//! `coll512_mix`: one 512-member group doing sum-allreduces two ways.
//!
//! First half: in-network combining (`hpcnet/combine.rs`, one frame per
//! upward link). Second half, in a fresh world: a radix-8 software tree over
//! ordinary channels (`core/collective.rs`, convoying through the root). A
//! combining change moves one half and a channel change the other; the
//! traced run reports the halves apart.

use std::sync::{Arc, Mutex};

use desim::SimDuration;
use hpcnet::combine::CombOp;
use hpcnet::{NodeAddr, Topology};
use vorx::collective::{self, CollMode, GroupCfg};
use vorx::VorxBuilder;

use super::{timed_run, RepOptions, RepOutcome, Sim};
use crate::inputs;
use crate::spans::{HostSpans, SimSpans};

pub const MEMBERS: u32 = 512;
const SHARDS: usize = 8;
const GROUP: u32 = 5;
/// Timed allreduces per half at full size (after one warm-up barrier that
/// absorbs attach skew). The tree half is ≈25× dearer per operation.
const INNET_OPS: u32 = 64;
const TREE_OPS: u32 = 12;
const TREE_RADIX: u32 = 8;

/// One half's two ways of reducing.
#[derive(Clone, Copy)]
pub struct Half {
    pub mode: CollMode,
    pub ops: u32,
    /// Span name of this half's run phase.
    pub run_span: &'static str,
    /// First operation number, so the halves reduce different operands.
    first_op: u32,
}

pub fn halves(div: u32) -> [Half; 2] {
    let innet = (INNET_OPS / div).max(2);
    [
        Half {
            mode: CollMode::InNetwork,
            ops: innet,
            run_span: "run.innet",
            first_op: 0,
        },
        Half {
            mode: CollMode::SoftwareTree { radix: TREE_RADIX },
            ops: (TREE_OPS / div).max(2),
            run_span: "run.tree",
            first_op: innet,
        },
    ]
}

#[derive(Default)]
struct Log {
    /// Member operations that returned the closed-form sum.
    right: u64,
    wrong: u64,
    /// Member 0's call durations, simulated ns.
    root_call_ns: Vec<u64>,
}

pub fn run(opts: &RepOptions, host: &mut HostSpans, sim_spans: &Arc<SimSpans>) -> RepOutcome {
    let mut out = RepOutcome::default();
    for half in halves(opts.div) {
        run_half(half, opts, host, sim_spans, &mut out);
    }
    out
}

fn run_half(
    half: Half,
    opts: &RepOptions,
    host: &mut HostSpans,
    sim_spans: &Arc<SimSpans>,
    out: &mut RepOutcome,
) {
    host.enter("phase.build");
    host.enter("hpcnet.topology");
    let topo = Topology::incomplete_hypercube(MEMBERS as usize / 4, 4)
        .expect("128 clusters of 4 is a valid incomplete hypercube");
    host.exit();
    host.enter("vorx.build");
    let v = VorxBuilder::with_topology(topo)
        .seed(opts.seed)
        .trace(opts.sim_trace)
        .shards(SHARDS)
        .build_sharded(opts.workers);
    collective::register_group_sharded(
        &v,
        &GroupCfg {
            group: GROUP,
            members: (0..MEMBERS).map(NodeAddr).collect(),
            mode: half.mode,
        },
    );
    let mut sim = Sim::Sharded(v);
    host.exit();
    host.exit();

    host.enter("phase.spawn");
    let log = Arc::new(Mutex::new(Log::default()));
    let seed = opts.seed;
    // The closed forms, once: 512 members each summing 512 operands per
    // operation inside the run phase would be the benchmark timing itself.
    let expected: Arc<Vec<u64>> = Arc::new(
        (half.first_op..half.first_op + half.ops)
            .map(|op| inputs::coll_expected_sum(seed, MEMBERS, op))
            .collect(),
    );
    for m in 0..MEMBERS {
        let log = Arc::clone(&log);
        let expected = Arc::clone(&expected);
        let spans = Arc::clone(sim_spans);
        sim.spawn_at(NodeAddr(m), format!("n{m}:coll"), move |ctx| {
            let c = collective::attach(&ctx, NodeAddr(m), GROUP);
            c.barrier(&ctx);
            let (mut right, mut wrong) = (0, 0);
            let mut calls = Vec::new();
            for (k, op) in (half.first_op..half.first_op + half.ops).enumerate() {
                ctx.sleep(SimDuration::from_ns(inputs::coll_think_ns(seed, m, op)));
                let t0 = ctx.now().as_ns();
                let sum = c.allreduce(&ctx, CombOp::Sum, inputs::coll_operand(seed, m, op));
                let t1 = ctx.now().as_ns();
                if sum == expected[k] {
                    right += 1;
                } else {
                    wrong += 1;
                }
                if m == 0 {
                    calls.push(t1 - t0);
                    spans.record("sim.allreduce_us", m, t0, t1);
                }
            }
            let mut log = log.lock().expect("collective log poisoned");
            log.right += right;
            log.wrong += wrong;
            log.root_call_ns.extend(calls);
        });
    }
    host.exit();

    if opts.dry {
        return;
    }
    let end = timed_run(host, out, |host| {
        host.enter(half.run_span);
        let end = sim.run();
        host.exit();
        end
    });

    host.enter("phase.verify");
    let log = std::mem::take(&mut *log.lock().expect("collective log poisoned"));
    out.sim_end_ns += end.end_ns;
    out.ops_attempted += u64::from(MEMBERS * half.ops);
    out.ops_done += log.right;
    // An allreduce moves one 8-byte operand per member.
    out.payload_bytes += 8 * log.right;
    out.latencies_ns.extend(log.root_call_ns);
    out.check(log.wrong == 0, || {
        format!(
            "{} allreduce results differ from the closed form",
            log.wrong
        )
    });
    out.check(end.parked.is_empty(), || {
        format!("{} members parked at quiescence", end.parked.len())
    });
    let in_flight = sim.in_flight();
    out.check(in_flight == 0, || {
        format!("{in_flight} frames inside the fabric at quiescence")
    });
    sim.collect_counters(out);
    host.exit();

    host.enter("phase.teardown");
    drop(sim);
    host.exit();
}
