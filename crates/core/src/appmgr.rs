//! Per-host process resource managers (§3.2).
//!
//! "Another bottleneck in Meglos was that all program developers and users
//! ran their applications from a single host. VORX eliminates this problem
//! by allowing programs to be run from different hosts. Each host has its
//! own process resource manager that is responsible for applications
//! started on that host and for keeping track of the mapping of
//! applications to processors."
//!
//! An *application* here is: an allocation of processing nodes, a set of
//! stubs on the launching host, and one process per node. The manager
//! records the application→processor mapping (what the paper's tools query)
//! and tears everything down on exit.

use desim::SimDuration;
use hpcnet::NodeAddr;

use crate::alloc::{ProcessorsNotAvailable, UserId};
use crate::host::create_stub;
use crate::world::{VCtx, World};

/// Lifecycle state of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// Processes are running.
    Running,
    /// The application exited and its processors were released.
    Exited,
}

/// One launched application, as tracked by its host's resource manager.
#[derive(Debug, Clone)]
pub struct AppRecord {
    /// The owning user.
    pub(crate) user: UserId,
    /// The processors it occupies (the application→processor mapping).
    pub(crate) nodes: Vec<NodeAddr>,
    /// Lifecycle state.
    pub state: AppState,
    /// Nodes whose process exited cleanly.
    pub(crate) done_nodes: Vec<u32>,
    /// Nodes the failure detector declared dead while this app ran there.
    pub(crate) failed_nodes: Vec<u32>,
}

/// Per-installation application registry (all hosts' managers share the
/// table).
#[derive(Debug, Default)]
pub struct AppRegistry {
    /// All applications ever launched.
    pub apps: Vec<AppRecord>,
}

/// Launch an application from `host`: allocate `n_nodes` processors
/// exclusively, create one stub per process, record the mapping, and spawn
/// `body` once per node. When every process finishes, the processors are
/// released automatically (the VORX "explicitly freed" step, done by the
/// manager on clean exit).
///
/// Returns the application id, or the §3.1 diagnostic.
pub fn start_application<F>(
    ctx: &VCtx,
    host: usize,
    user: UserId,
    name: &str,
    n_nodes: usize,
    body: F,
) -> Result<u32, ProcessorsNotAvailable>
where
    F: Fn(VCtx, NodeAddr, usize) + Clone + Send + 'static,
{
    let name = name.to_string();
    // Allocate processors up front (§3.1's VORX discipline).
    let nodes = ctx.with(move |w, _| w.alloc.allocate(user, n_nodes))?;
    // One stub per process: the faithful execution environment (§3.3). A
    // host that is down makes none, and its nodes' syscalls fail `NoStub`,
    // as they do once a host crashes after making them.
    for &n in &nodes {
        let _ = create_stub(ctx, host, vec![n]);
    }
    let app_id = ctx.with({
        let nodes = nodes.clone();
        move |w, _| {
            let id = w.appmgr.apps.len() as u32;
            w.appmgr.apps.push(AppRecord {
                user,
                nodes,
                state: AppState::Running,
                done_nodes: Vec::new(),
                failed_nodes: Vec::new(),
            });
            id
        }
    });
    // Spawn one process per node; each reports completion to the manager.
    ctx.with(move |_, s| {
        for (rank, &node) in nodes.iter().enumerate() {
            let body = body.clone();
            s.spawn(
                format!("app{app_id}:{name}@n{}", node.0),
                move |ctx: VCtx| {
                    body(ctx.clone(), node, rank);
                    ctx.with(move |w, _| on_proc_exit(w, app_id, node));
                },
            );
        }
    });
    Ok(app_id)
}

/// Manager bookkeeping when one process of `app_id` exits; releases the
/// allocation when the last one is done.
fn on_proc_exit(w: &mut World, app_id: u32, node: NodeAddr) {
    let (done, user, nodes) = {
        let a = &mut w.appmgr.apps[app_id as usize];
        if a.failed_nodes.contains(&node.0) {
            // The failure detector already accounted for this node; a
            // straggler exit (the process outlived the crash report) must
            // not double-count.
            return;
        }
        a.done_nodes.push(node.0);
        (
            a.done_nodes.len() + a.failed_nodes.len() == a.nodes.len(),
            a.user,
            a.nodes.clone(),
        )
    };
    if done {
        w.appmgr.apps[app_id as usize].state = AppState::Exited;
        w.alloc.free(user, &nodes);
    }
}

/// Failure-detector hook: `node` crashed. Every running application with a
/// process there counts that process as failed, so `wait_app` completes
/// (with losses) instead of waiting forever on a dead node. Called from
/// [`crate::fault::on_crash`].
pub(crate) fn on_node_failed(w: &mut World, node: NodeAddr) {
    // Iterate by index in launch order: deterministic, and `free` needs the
    // registry borrow released.
    for i in 0..w.appmgr.apps.len() {
        let (done, user, nodes) = {
            let a = &mut w.appmgr.apps[i];
            if a.state != AppState::Running
                || !a.nodes.contains(&node)
                || a.done_nodes.contains(&node.0)
                || a.failed_nodes.contains(&node.0)
            {
                continue;
            }
            a.failed_nodes.push(node.0);
            (
                a.done_nodes.len() + a.failed_nodes.len() == a.nodes.len(),
                a.user,
                a.nodes.clone(),
            )
        };
        if done {
            w.appmgr.apps[i].state = AppState::Exited;
            w.alloc.free(user, &nodes);
        }
    }
}

/// Block until `app_id` exits.
pub fn wait_app(ctx: &VCtx, app_id: u32) {
    // Poll-free would need a waitset; application exit is infrequent, so a
    // coarse periodic check keeps the manager simple.
    loop {
        let state = ctx.with(move |w, _| w.appmgr.apps[app_id as usize].state);
        if state == AppState::Exited {
            return;
        }
        ctx.sleep(SimDuration::from_ms(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{syscall, SyscallOp, SyscallRet};
    use crate::world::VorxBuilder;

    #[test]
    fn launch_track_and_release() {
        let mut v = VorxBuilder::single_cluster(8).hosts(2).build();
        v.spawn("host0:shell", |ctx| {
            let app =
                start_application(&ctx, 0, UserId(1), "solver", 3, |ctx: VCtx, node, rank| {
                    crate::api::user_compute(&ctx, node, SimDuration::from_ms(1 + rank as u64));
                    // Each process can use its own stub.
                    assert_eq!(
                        syscall(&ctx, node, SyscallOp::WriteFile { bytes: 100 }),
                        Ok(SyscallRet::Ok)
                    );
                })
                .expect("pool is free");
            // While running, the mapping is visible.
            ctx.with(move |w, _| {
                let a = &w.appmgr.apps[app as usize];
                assert_eq!(a.state, AppState::Running);
                assert_eq!(a.nodes.len(), 3);
            });
            wait_app(&ctx, app);
            // Exited: processors released.
            ctx.with(|w, _| {
                assert_eq!(w.alloc.free_count(), w.alloc.pool_size());
                assert_eq!(w.appmgr.apps[0].state, AppState::Exited);
            });
        });
        v.run_all();
    }

    #[test]
    fn launch_fails_cleanly_when_pool_exhausted() {
        let mut v = VorxBuilder::single_cluster(4).hosts(1).build();
        v.spawn("host0:shell", |ctx| {
            let first = start_application(&ctx, 0, UserId(1), "big", 3, |ctx: VCtx, node, _| {
                crate::api::user_compute(&ctx, node, SimDuration::from_ms(5));
            })
            .expect("3 of 3 pool nodes");
            let denied = start_application(&ctx, 0, UserId(2), "late", 2, |_ctx, _, _| {});
            assert!(denied.is_err(), "pool is exhausted");
            wait_app(&ctx, first);
            // After release, the second user can start.
            let ok = start_application(&ctx, 0, UserId(2), "late", 2, |ctx: VCtx, node, _| {
                crate::api::user_compute(&ctx, node, SimDuration::from_us(10));
            });
            assert!(ok.is_ok());
            wait_app(&ctx, ok.unwrap());
        });
        v.run_all();
    }
}
