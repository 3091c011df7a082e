//! Process-side helpers: charging CPU time from blocking process code, and
//! the one way a VORX call blocks.
//!
//! A call that cannot complete parks its process in [`block_until`], and the
//! rule is the paper's: *mark while parked, switch back in*. The first park
//! records [`TraceEvent::Block`] on the node's trace — the software
//! oscilloscope's idle-input or idle-output time (§6.2) — the answer records
//! the matching [`TraceEvent::Unblock`], and a process that parked pays the
//! measured context switch (`ctx_switch_ns`, §5) of system time to resume. A
//! call whose first poll answers neither marks nor pays. [`park_until`] is
//! the same loop without the switch: a user-level send spins on the output
//! register and is never descheduled, and a multicast write that a crash
//! ends returns as it would on a down node.
//!
//! [`TraceEvent::Block`]: crate::cpu::TraceEvent::Block
//! [`TraceEvent::Unblock`]: crate::cpu::TraceEvent::Unblock

use desim::{ProcId, SimDuration};
use hpcnet::NodeAddr;

use crate::cpu::{BlockReason, CpuCat};
use crate::world::{VCtx, VSched, World};

/// Block in a kernel call until `poll` answers: re-poll `poll(w, s, pid)` at
/// every wake (it registers `pid` with whatever will wake it before
/// answering `None`), mark the wait on `node`'s trace for `reason` while
/// parked, and charge the context switch back in if the call parked.
///
/// Always inline, as is [`park_until`], so that a process parked in either
/// keeps no frame of its own for it, optimised or not: an unoptimised
/// build's park that went two frames deeper than the call's earlier ones
/// would regrow every process's image once more.
#[inline(always)]
pub fn block_until<T>(
    ctx: &VCtx,
    node: NodeAddr,
    reason: BlockReason,
    poll: impl FnMut(&mut World, &mut VSched, ProcId) -> Option<T>,
) -> T {
    let (answer, switch_ns) = park_until(ctx, node, reason, poll);
    compute_ns(ctx, node, CpuCat::System, switch_ns);
    answer
}

/// [`block_until`]'s loop without the switch: returns `poll`'s answer and
/// the context switch (ns) that resuming the call costs — 0 if it never
/// parked.
#[inline(always)]
#[allow(
    clippy::disallowed_methods,
    reason = "the one place a kernel wait is marked on the trace"
)]
pub fn park_until<T>(
    ctx: &VCtx,
    node: NodeAddr,
    reason: BlockReason,
    mut poll: impl FnMut(&mut World, &mut VSched, ProcId) -> Option<T>,
) -> (T, u64) {
    let pid = ctx.pid();
    let mut parked = false;
    ctx.wait_until(move |w, s| {
        let now = s.now();
        let Some(answer) = poll(w, s, pid) else {
            if !parked {
                parked = true;
                w.block(now, node, reason);
            }
            return None;
        };
        if !parked {
            return Some((answer, 0));
        }
        w.unblock(now, node, reason);
        Some((answer, w.calib.ctx_switch_ns))
    })
}

/// Occupy `node`'s CPU for `d` and return when the work completes. This is
/// how application processes model computation and how syscall overheads
/// are applied.
///
/// System-category work runs at interrupt priority (queues only behind
/// other system work). User-category work queues behind earlier user work
/// and is *preempted* by system work: its completion is pushed back by
/// however much system time executed during the burst, iterated to a fixed
/// point.
pub fn compute(ctx: &VCtx, node: NodeAddr, cat: CpuCat, d: SimDuration) {
    if d.is_zero() {
        return;
    }
    match cat {
        CpuCat::System => {
            let end = ctx.with(move |w, s| w.charge(s.now(), node, cat, d));
            let now = ctx.now();
            if end > now {
                ctx.sleep(end - now);
            }
        }
        CpuCat::User => compute_user(ctx, node, d),
    }
}

/// [`compute`]'s user-category burst, preempted by system work. Out of line:
/// its bookkeeping would otherwise widen the frame of every system charge,
/// which a process keeps across its park in `sleep`.
#[inline(never)]
fn compute_user(ctx: &VCtx, node: NodeAddr, d: SimDuration) {
    let (start, mut end, mut sys_mark) = ctx.with(move |w, s| {
        let cpu = &mut w.node_mut(node).cpu;
        let (start, end) = cpu.begin_user(s.now(), d);
        (start, end, cpu.sys_cum_ns())
    });
    loop {
        let now = ctx.now();
        if end > now {
            ctx.sleep(end - now);
        }
        // Extend by however much interrupt-priority work was
        // reserved while we slept (it preempted this burst).
        let extended = ctx.with(move |w, _| {
            let cpu = &mut w.node_mut(node).cpu;
            let intruded = cpu.sys_cum_ns() - sys_mark;
            if intruded == 0 {
                None
            } else {
                let ne = end + SimDuration::from_ns(intruded);
                cpu.extend_user(ne);
                Some((ne, cpu.sys_cum_ns()))
            }
        });
        match extended {
            None => break,
            Some((ne, mark)) => {
                end = ne;
                sys_mark = mark;
            }
        }
    }
    // Record the actual burst interval now that its extent is known.
    ctx.with(move |w, s| {
        if w.trace.is_enabled() {
            let now = s.now();
            w.trace.record(
                now,
                crate::cpu::TraceEvent::Cpu {
                    node: node.0,
                    cat: CpuCat::User,
                    start_ns: start.as_ns(),
                    end_ns: end.as_ns(),
                },
            );
        }
    });
}

/// [`compute`] with a nanosecond constant (the calibration unit).
pub fn compute_ns(ctx: &VCtx, node: NodeAddr, cat: CpuCat, ns: u64) {
    compute(ctx, node, cat, SimDuration::from_ns(ns));
}

/// Charge user-code computation on `node`.
pub fn user_compute(ctx: &VCtx, node: NodeAddr, d: SimDuration) {
    compute(ctx, node, CpuCat::User, d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::VorxBuilder;
    use desim::SimTime;

    #[test]
    fn compute_occupies_the_node_cpu() {
        let mut v = VorxBuilder::single_cluster(2).build();
        v.spawn("n0:a", |ctx| {
            user_compute(&ctx, NodeAddr(0), SimDuration::from_us(100));
            assert_eq!(ctx.now(), SimTime::from_ns(100_000));
        });
        // A second process on the same node queues behind the first.
        v.spawn("n0:b", |ctx| {
            ctx.sleep(SimDuration::from_us(10)); // start mid-way through a's burst
            user_compute(&ctx, NodeAddr(0), SimDuration::from_us(5));
            assert_eq!(ctx.now(), SimTime::from_ns(105_000));
        });
        // A process on another node is unaffected.
        v.spawn("n1:c", |ctx| {
            user_compute(&ctx, NodeAddr(1), SimDuration::from_us(7));
            assert_eq!(ctx.now(), SimTime::from_ns(7_000));
        });
        v.run_all();
        let w = v.world();
        assert_eq!(w.nodes[0].cpu.user_ns, 105_000);
        assert_eq!(w.nodes[1].cpu.user_ns, 7_000);
    }
}
