//! Subprocesses: VORX's threads (§5).
//!
//! "Both Meglos and VORX allow a process to be subdivided into subprocesses.
//! [...] Each subprocess is an independently scheduled thread of execution
//! that may block for communications or other events without affecting the
//! execution of the other subprocesses. [...] distinct execution priorities
//! can be specified for each subprocess and the scheduler is preemptive.
//! [...] A context switch, which includes saving both fixed and floating
//! point registers takes 80 µsec."
//!
//! Model: every subprocess is a `desim` process gated by a per-node
//! scheduler. Exactly one subprocess per node is *scheduled* at a time;
//! every switch of the scheduled subprocess charges the measured 80 µs.
//! Priorities are honoured whenever the scheduler picks; preemption happens
//! at blocking points, at explicit yields, and between the quanta of
//! [`SubprocHandle::compute_sliced`] — the granularity a kernel's timer
//! interrupt would give.
//!
//! The cheaper structuring techniques of §5 are also here:
//! [`coroutine_switch`] (partial register save, only at well-defined
//! points) and — via `udco`'s interrupt/polled modes — interrupt-level
//! programming with no switches at all.

use desim::{SimDuration, Wakeup};
use hpcnet::NodeAddr;

use crate::api;
use crate::cpu::{BlockReason, CpuCat};
use crate::world::{VCtx, VSched, World};

/// State of one subprocess.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SpState {
    /// Waiting to be scheduled.
    Ready,
    /// The scheduled subprocess of its node.
    Running,
    /// Blocked on a semaphore or event.
    Blocked,
    /// Finished.
    Done,
}

#[derive(Debug)]
struct Sp {
    pid: desim::ProcId,
    prio: u8,
    state: SpState,
    /// FIFO tiebreak within a priority.
    seq: u64,
}

/// A counting semaphore shared by the subprocesses of one node (the §5
/// communication mechanism between subprocesses).
#[derive(Debug, Default)]
pub struct SpSem {
    count: i64,
    /// Blocked subprocess indices, FIFO (ring buffer: O(1) wake).
    waiters: std::collections::VecDeque<u32>,
}

/// The scheduler of a node that never ran a subprocess.
pub(crate) static NO_SUBPROCS: SchedState = SchedState {
    subprocs: Vec::new(),
    current: None,
    next_seq: 0,
    sems: Vec::new(),
    switches: 0,
};

/// Per-node subprocess scheduler state.
#[derive(Debug, Default)]
pub struct SchedState {
    subprocs: Vec<Sp>,
    current: Option<u32>,
    next_seq: u64,
    /// Semaphores on this node.
    pub(crate) sems: Vec<SpSem>,
    /// Context switches performed (statistics for E-CTX).
    pub switches: u64,
}

impl SchedState {
    /// Pick the highest-priority ready subprocess (FIFO within priority).
    fn pick(&self) -> Option<u32> {
        self.subprocs
            .iter()
            .enumerate()
            .filter(|(_, sp)| sp.state == SpState::Ready)
            .max_by_key(|(_, sp)| (sp.prio, std::cmp::Reverse(sp.seq)))
            .map(|(i, _)| i as u32)
    }
}

/// Handle to a subprocess, passed to its body.
#[derive(Debug, Clone, Copy)]
pub struct SubprocHandle {
    /// The node this subprocess runs on.
    pub(crate) node: NodeAddr,
    /// Index within the node's scheduler.
    pub(crate) idx: u32,
}

/// If nothing is scheduled, dispatch the best ready subprocess, charging the
/// context-switch cost on the node CPU before it resumes.
fn reschedule(w: &mut World, s: &mut VSched, node: NodeAddr) {
    let st = &mut w.node_mut(node).sched_mut();
    if st.current.is_some() {
        return;
    }
    let Some(next) = st.pick() else {
        return;
    };
    st.current = Some(next);
    st.subprocs[next as usize].state = SpState::Running;
    st.switches += 1;
    let pid = st.subprocs[next as usize].pid;
    // Saving and restoring the full register set costs 80 µs (§5).
    let d = SimDuration::from_ns(w.calib.ctx_switch_ns);
    let now = s.now();
    let end = w.charge(now, node, CpuCat::System, d);
    s.wake_in(end - now, pid, Wakeup::START);
}

/// Spawn a subprocess on `node` with `prio` (higher runs first). The body
/// starts once the scheduler dispatches it. Process-context API; use from
/// setup code via `ctx.with` + [`spawn_subproc_in`].
pub fn spawn_subproc<F>(
    ctx: &VCtx,
    node: NodeAddr,
    prio: u8,
    name: impl Into<String>,
    body: F,
) -> SubprocHandle
where
    F: FnOnce(VCtx, SubprocHandle) + Send + 'static,
{
    ctx.with(move |w, s| spawn_subproc_in(w, s, node, prio, name, body))
}

/// Event-context variant of [`spawn_subproc`].
pub fn spawn_subproc_in<F>(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    prio: u8,
    name: impl Into<String>,
    body: F,
) -> SubprocHandle
where
    F: FnOnce(VCtx, SubprocHandle) + Send + 'static,
{
    let idx = w.node(node).sched().subprocs.len() as u32;
    let handle = SubprocHandle { node, idx };
    let pid = s.spawn(name, move |ctx: VCtx| {
        // Wait to be dispatched for the first time.
        ctx.wait_until(move |w, _| (w.node(node).sched().current == Some(idx)).then_some(()));
        body(ctx.clone(), handle);
        // Exit: release the CPU and dispatch the next subprocess.
        ctx.with(move |w, s| {
            let st = &mut w.node_mut(node).sched_mut();
            st.subprocs[idx as usize].state = SpState::Done;
            if st.current == Some(idx) {
                st.current = None;
            }
            reschedule(w, s, node);
        });
    });
    let st = &mut w.node_mut(node).sched_mut();
    let seq = st.next_seq;
    st.next_seq += 1;
    st.subprocs.push(Sp {
        pid,
        prio,
        state: SpState::Ready,
        seq,
    });
    reschedule(w, s, node);
    handle
}

impl SubprocHandle {
    /// Compute for `d` of user time while scheduled (not preemptible).
    pub(crate) fn compute(&self, ctx: &VCtx, d: SimDuration) {
        let h = *self;
        debug_assert!(ctx.with(move |w, _| w.node(h.node).sched().current == Some(h.idx)));
        api::compute(ctx, self.node, CpuCat::User, d);
    }

    /// Compute for `total`, yielding the CPU every `quantum` so that
    /// higher-priority subprocesses can preempt (the timer-tick model of
    /// §5's preemptive scheduler).
    pub fn compute_sliced(&self, ctx: &VCtx, total: SimDuration, quantum: SimDuration) {
        assert!(!quantum.is_zero(), "quantum must be positive");
        let mut left = total;
        while !left.is_zero() {
            let step = left.min(quantum);
            self.compute(ctx, step);
            left = left.saturating_sub(step);
            self.yield_now(ctx);
        }
    }

    /// Voluntarily yield: if an equal-or-higher-priority subprocess is
    /// ready, switch to it (charging the switch); otherwise continue.
    pub(crate) fn yield_now(&self, ctx: &VCtx) {
        let h = *self;
        let switched = ctx.with(move |w, s| {
            let st = &mut w.node_mut(h.node).sched_mut();
            debug_assert_eq!(st.current, Some(h.idx));
            let me_prio = st.subprocs[h.idx as usize].prio;
            let better = st
                .pick()
                .map(|c| st.subprocs[c as usize].prio >= me_prio)
                .unwrap_or(false);
            if better {
                st.subprocs[h.idx as usize].state = SpState::Ready;
                let me = &mut st.subprocs[h.idx as usize];
                me.seq = st.next_seq;
                st.next_seq += 1;
                st.current = None;
                reschedule(w, s, h.node);
                true
            } else {
                false
            }
        });
        if switched {
            self.wait_scheduled(ctx);
        }
    }

    /// Block until re-dispatched.
    fn wait_scheduled(&self, ctx: &VCtx) {
        let h = *self;
        ctx.wait_until(move |w, _| (w.node(h.node).sched().current == Some(h.idx)).then_some(()));
    }

    /// Block this subprocess (scheduler dispatches the next one); the caller
    /// must have arranged for something to call [`sem_v_in`] later.
    #[allow(
        clippy::disallowed_methods,
        reason = "a subprocess switch is charged at dispatch, not on resume"
    )]
    pub(crate) fn block(&self, ctx: &VCtx, reason: BlockReason) {
        let h = *self;
        ctx.with(move |w, s| {
            let now = s.now();
            w.block(now, h.node, reason);
            let st = &mut w.node_mut(h.node).sched_mut();
            debug_assert_eq!(st.current, Some(h.idx));
            st.subprocs[h.idx as usize].state = SpState::Blocked;
            st.current = None;
            reschedule(w, s, h.node);
        });
        self.wait_scheduled(ctx);
        ctx.with(move |w, s| {
            let now = s.now();
            w.unblock(now, h.node, reason);
        });
    }

    /// P operation on semaphore `sem` of this node.
    pub fn sem_p(&self, ctx: &VCtx, sem: usize) {
        let h = *self;
        let acquired = ctx.with(move |w, _| {
            let st = &mut w.node_mut(h.node).sched_mut();
            if st.sems[sem].count > 0 {
                st.sems[sem].count -= 1;
                true
            } else {
                st.sems[sem].waiters.push_back(h.idx);
                false
            }
        });
        if !acquired {
            self.block(ctx, BlockReason::Other);
        }
    }

    /// V operation on semaphore `sem` of this node. Wakes the
    /// longest-waiting subprocess; if it outranks the caller, the caller is
    /// preempted on the spot (the scheduler is preemptive, §5).
    pub fn sem_v(&self, ctx: &VCtx, sem: usize) {
        let h = *self;
        let preempted = ctx.with(move |w, s| sem_v_in(w, s, h.node, sem, Some(h.idx)));
        if preempted {
            self.wait_scheduled(ctx);
        }
    }
}

/// Create a semaphore on `node` with an initial count; returns its index.
pub fn create_sem(ctx: &VCtx, node: NodeAddr, initial: i64) -> usize {
    ctx.with(move |w, _| {
        let st = &mut w.node_mut(node).sched_mut();
        st.sems.push(SpSem {
            count: initial,
            waiters: std::collections::VecDeque::new(),
        });
        st.sems.len() - 1
    })
}

/// Event-context V operation (e.g. from an interrupt handler). Returns true
/// iff the caller subprocess (`from`) was preempted.
pub(crate) fn sem_v_in(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    sem: usize,
    from: Option<u32>,
) -> bool {
    let st = &mut w.node_mut(node).sched_mut();
    let Some(woken) = st.sems[sem].waiters.pop_front() else {
        st.sems[sem].count += 1;
        return false;
    };
    st.subprocs[woken as usize].state = SpState::Ready;
    let woken_prio = st.subprocs[woken as usize].prio;
    let preempt = match (from, st.current) {
        (Some(me), Some(cur)) if me == cur => woken_prio > st.subprocs[me as usize].prio,
        _ => false,
    };
    if preempt {
        let me = from.expect("checked");
        st.subprocs[me as usize].state = SpState::Ready;
        let sp = &mut st.subprocs[me as usize];
        sp.seq = st.next_seq;
        st.next_seq += 1;
        st.current = None;
    }
    if st.current.is_none() {
        reschedule(w, s, node);
    }
    preempt
}

/// A coroutine switch: "coroutine switches occur only at well defined places
/// in the application code, so that most registers need not be saved" (§5).
/// Charges the much smaller partial-save cost.
pub fn coroutine_switch(ctx: &VCtx, node: NodeAddr) {
    let switch_ns = ctx.with(|w, _| w.calib.coroutine_switch_ns);
    api::compute_ns(ctx, node, CpuCat::System, switch_ns);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::VorxBuilder;
    use desim::SimTime;

    #[test]
    fn one_subprocess_runs_and_charges_dispatch() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("setup", |ctx| {
            spawn_subproc(&ctx, NodeAddr(0), 1, "n0:sp0", |ctx, h| {
                h.compute(&ctx, SimDuration::from_us(100));
            });
        });
        v.run_all();
        let w = v.world();
        assert_eq!(w.nodes[0].sched().switches, 1);
        // 80us dispatch + 100us compute.
        assert_eq!(w.nodes[0].cpu.busy(), SimDuration::from_us(180));
    }

    #[test]
    fn priorities_pick_highest_among_ready() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("setup", |ctx| {
            for (prio, tag) in [(1u8, 10u64), (5, 50), (3, 30)] {
                spawn_subproc(
                    &ctx,
                    NodeAddr(0),
                    prio,
                    format!("sp{prio}"),
                    move |ctx, h| {
                        h.compute(&ctx, SimDuration::from_us(10));
                        ctx.with(move |w, _| {
                            // Record completion order via the trace-free route:
                            w.next_token = w.next_token * 100 + tag;
                        });
                    },
                );
            }
        });
        v.run_all();
        // sp(prio 1) is dispatched the moment it is created (the node is
        // idle); while it runs, prio 5 and prio 3 become ready, and the
        // scheduler then picks them in priority order: 10, 50, 30.
        assert_eq!(v.world().next_token % 1_000_000, 105_030);
    }

    #[test]
    fn semaphore_handoff_costs_two_switches_per_cycle() {
        // The §5 structure: producer and consumer subprocesses exchanging
        // via semaphores; every round trip costs two context switches.
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("setup", |ctx| {
            let node = NodeAddr(0);
            let items = create_sem(&ctx, node, 0);
            let slots = create_sem(&ctx, node, 1);
            spawn_subproc(&ctx, node, 2, "producer", move |ctx, h| {
                for _ in 0..10 {
                    h.sem_p(&ctx, slots);
                    h.sem_v(&ctx, items);
                }
            });
            spawn_subproc(&ctx, node, 2, "consumer", move |ctx, h| {
                for _ in 0..10 {
                    h.sem_p(&ctx, items);
                    h.sem_v(&ctx, slots);
                }
            });
        });
        v.run_all();
        let w = v.world();
        // 2 initial dispatches + ~2 switches per item.
        assert!(
            (20..=24).contains(&w.nodes[0].sched().switches),
            "switches = {}",
            w.nodes[0].sched().switches
        );
        // All time is switch overhead (no compute was charged).
        assert_eq!(
            w.nodes[0].cpu.system_ns,
            w.nodes[0].sched().switches * 80_000
        );
    }

    #[test]
    fn sem_v_preempts_lower_priority_caller() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("setup", |ctx| {
            let node = NodeAddr(0);
            let sem = create_sem(&ctx, node, 0);
            spawn_subproc(&ctx, node, 9, "hi", move |ctx, h| {
                h.sem_p(&ctx, sem); // blocks: count is 0
                                    // Once V'd by `lo`, we must run *before* lo continues.
                ctx.with(|w, _| w.next_token = 1);
            });
            spawn_subproc(&ctx, node, 1, "lo", move |ctx, h| {
                // hi (prio 9) dispatched first, blocked on the semaphore,
                // then we run.
                h.sem_v(&ctx, sem); // must preempt us
                let hi_ran = ctx.with(|w, _| w.next_token == 1);
                assert!(hi_ran, "high-priority subprocess did not preempt");
            });
        });
        v.run_all();
    }

    #[test]
    fn compute_sliced_lets_higher_priority_in() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("setup", |ctx| {
            let node = NodeAddr(0);
            let sem = create_sem(&ctx, node, 0);
            spawn_subproc(&ctx, node, 9, "hi", move |ctx, h| {
                h.sem_p(&ctx, sem);
                let t = ctx.now();
                // Must get the CPU long before lo's 10ms burst would end.
                assert!(t < SimTime::from_ns(5_000_000), "preempted too late: {t}");
            });
            spawn_subproc(&ctx, node, 1, "lo", move |ctx, h| {
                ctx.with(move |w, s| {
                    sem_v_in(w, s, node, sem, None); // from an "interrupt"
                });
                h.compute_sliced(&ctx, SimDuration::from_ms(10), SimDuration::from_us(500));
            });
        });
        v.run_all();
    }

    #[test]
    fn coroutine_switch_is_an_order_of_magnitude_cheaper() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("coro", |ctx| {
            for _ in 0..10 {
                coroutine_switch(&ctx, NodeAddr(0));
            }
        });
        v.run_all();
        let w = v.world();
        assert_eq!(w.nodes[0].cpu.system_ns, 80_000); // 10 x 8us
        assert!(w.calib.coroutine_switch_ns * 10 <= w.calib.ctx_switch_ns);
    }
}
