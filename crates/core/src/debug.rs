//! Kernel-side debugging support for `vdb` (§6).
//!
//! "VORX makes it possible for the programmer to attach vdb to any process
//! that is running and to switch between the processes of his application."
//!
//! The kernel keeps a registry of application processes and, per process,
//! the cooperative debugging state: published variables (the simulation's
//! stand-in for reading a process's memory through the symbol table),
//! breakpoint labels, and the stopped/running flag. The user-facing tool
//! lives in `vorx-tools::vdb`; this module is the part the "kernel" owns —
//! exactly how the real vdb worked against kernel-held process state.

use std::collections::BTreeMap;

use desim::{sync::WaitSet, FixedSet, ProcId, Wakeup};
use hpcnet::NodeAddr;

use crate::world::{VCtx, World};

/// Debug-visible state of one registered process.
#[derive(Debug)]
pub struct DbgProc {
    /// The simulation process id.
    pub pid: ProcId,
    /// The registered name (e.g. `"n3:solver"`).
    pub name: String,
    /// The node it runs on.
    pub node: NodeAddr,
    /// Published "local variables" (symbol -> rendered value).
    pub vars: BTreeMap<String, String>,
    /// Armed breakpoint labels.
    pub breaks: FixedSet<String>,
    /// Stop at the next breakpoint regardless of label (attach-and-stop).
    pub stop_requested: bool,
    /// Currently stopped at a breakpoint: `(label, wait set)`.
    pub stopped_at: Option<String>,
    /// Processes (the stopped one) waiting for `continue`.
    pub(crate) cont_waiters: WaitSet,
    /// Breakpoints hit so far.
    pub hits: u64,
}

/// The kernel's debugger registry.
#[derive(Debug, Default)]
pub struct DbgState {
    /// Registered processes, in registration order.
    pub procs: Vec<DbgProc>,
}

impl DbgState {
    /// Find a process by registered name.
    pub fn by_name(&self, name: &str) -> Option<usize> {
        self.procs.iter().position(|p| p.name == name)
    }
}

/// Register the calling process with the debugger (typically at startup).
/// Returns its registry index.
pub fn register_process(ctx: &VCtx, node: NodeAddr, name: &str) -> usize {
    let pid = ctx.pid();
    let name = name.to_string();
    ctx.with(move |w, _| {
        let dbg = &mut w.dbg;
        assert!(
            dbg.by_name(&name).is_none(),
            "process name {name:?} already registered"
        );
        dbg.procs.push(DbgProc {
            pid,
            name,
            node,
            vars: BTreeMap::new(),
            breaks: FixedSet::default(),
            stop_requested: false,
            stopped_at: None,
            cont_waiters: WaitSet::new(),
            hits: 0,
        });
        dbg.procs.len() - 1
    })
}

/// Publish (or update) a debug-visible variable for the calling process —
/// the stand-in for vdb reading locals through the symbol table.
pub fn publish(ctx: &VCtx, idx: usize, var: &str, value: impl ToString) {
    let var = var.to_string();
    let value = value.to_string();
    ctx.with(move |w, _| {
        w.dbg.procs[idx].vars.insert(var, value);
    });
}

/// A cooperative breakpoint: if `label` is armed (or an unconditional stop
/// was requested), the process stops here until the debugger continues it.
/// Free when not armed — like a compiled-in breakpoint trap.
pub fn breakpoint(ctx: &VCtx, idx: usize, label: &str) {
    let label_owned = label.to_string();
    let should_stop = ctx.with(move |w, _| {
        let p = &mut w.dbg.procs[idx];
        if p.breaks.contains(&label_owned) || p.stop_requested {
            p.stop_requested = false;
            p.stopped_at = Some(label_owned);
            p.hits += 1;
            true
        } else {
            false
        }
    });
    if !should_stop {
        return;
    }
    let pid = ctx.pid();
    ctx.wait_until(move |w, _| {
        let p = &mut w.dbg.procs[idx];
        if p.stopped_at.is_none() {
            Some(())
        } else {
            p.cont_waiters.register(pid);
            None
        }
    });
}

/// Resume a stopped process (the debugger's `cont` command). Event-context
/// so tools can call it through `Simulation::setup`. Returns true iff the
/// process was stopped.
pub fn cont(w: &mut World, s: &mut crate::world::VSched, idx: usize) -> bool {
    let p = &mut w.dbg.procs[idx];
    if p.stopped_at.is_none() {
        return false;
    }
    p.stopped_at = None;
    p.cont_waiters.wake_all(s, Wakeup::START);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::VorxBuilder;
    use desim::SimDuration;

    #[test]
    fn unarmed_breakpoints_are_free() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("n0:app", |ctx| {
            let me = register_process(&ctx, NodeAddr(0), "n0:app");
            for i in 0..5 {
                publish(&ctx, me, "i", i);
                breakpoint(&ctx, me, "loop-top");
            }
        });
        v.run_all();
        let w = v.world();
        assert_eq!(w.dbg.procs[0].hits, 0);
        assert_eq!(w.dbg.procs[0].vars["i"], "4");
    }

    #[test]
    fn armed_breakpoint_stops_until_continued() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("n0:app", |ctx| {
            let me = register_process(&ctx, NodeAddr(0), "n0:app");
            // Arm our own breakpoint (normally the debugger does this).
            ctx.with(move |w, _| {
                w.dbg.procs[me].breaks.insert("phase2".into());
            });
            breakpoint(&ctx, me, "phase1"); // not armed: free
            breakpoint(&ctx, me, "phase2"); // stops here
            ctx.sleep(SimDuration::from_us(1));
        });
        // Run: the process parks at the breakpoint.
        let report = v.run();
        assert_eq!(report.parked.len(), 1);
        {
            let w = v.world();
            assert_eq!(w.dbg.procs[0].stopped_at.as_deref(), Some("phase2"));
            assert_eq!(w.dbg.procs[0].hits, 1);
        }
        // Continue and finish.
        v.sim.setup(|w, s| {
            assert!(cont(w, s, 0));
        });
        v.run_all();
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_rejected() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("a", |ctx| {
            register_process(&ctx, NodeAddr(0), "dup");
            register_process(&ctx, NodeAddr(0), "dup");
        });
        v.run_all();
    }
}
