//! Process-side helpers: charging CPU time from blocking process code.

use desim::SimDuration;
use hpcnet::NodeAddr;

use crate::cpu::CpuCat;
use crate::world::VCtx;

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
