//! Property-based tests of the collective layer (DESIGN.md §16).
//!
//! The in-network engine folds operands *inside* the star couplers, with
//! partial sums racing combining-window timers and, under faults, whole
//! attempt epochs being discarded and replayed. None of that machinery may
//! ever change the answer: every member must receive exactly the scalar
//! fold of all operands, for arbitrary operand values, arbitrary
//! combining-window settings, and under probabilistic frame loss and link
//! degradation. And because combining arbitration is a pure function of
//! arrival order, the sharded engine must replay every run bit-identically
//! at workers {1, 4, 8}.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use hpc_vorx::desim::{lock, FaultSchedule, LinkFaults, SimTime};
use hpc_vorx::hpcnet::combine::CombOp;
use hpc_vorx::hpcnet::{NetConfig, NodeAddr, Topology};
use hpc_vorx::vorx::collective::{self, CollMode, GroupCfg};
use hpc_vorx::vorx::{invariants, Calibration, VorxBuilder};

const GROUP: u32 = 7;
/// Fixed shard count: the shard partition is part of the simulated outcome,
/// so holding it constant is what makes the worker sweep a pure concurrency
/// comparison.
const SHARDS: usize = 4;

/// The derived operand of the second operation (distinct from the first so
/// a replayed first-op result can never masquerade as the second's).
fn second(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Scalar ground truth: a plain left fold over the operands.
fn fold(op: CombOp, xs: impl Iterator<Item = u64>) -> u64 {
    xs.fold(op.identity(), |a, b| op.apply(a, b))
}

/// One run outcome: per-member results of both ops, end time, merged trace.
struct Run {
    r1: Vec<u64>,
    r2: Vec<u64>,
    end_ns: u64,
    trace: String,
}

/// Run one in-network group of `operands.len()` members sharded over
/// `workers` threads: every member allreduces `operands[i]`, then reduces
/// `second(operands[i])` (two ops exercise sequence-number progression and
/// the root's last-two replay window).
fn run_group(
    operands: &[u64],
    op: CombOp,
    comb_window_ns: u64,
    faults: Option<FaultSchedule>,
    workers: usize,
) -> Run {
    let members = operands.len();
    let clusters = members.div_ceil(4);
    let topo = Topology::incomplete_hypercube(clusters, 4).expect("test topology");
    let mut nc = NetConfig::paper_1988();
    nc.comb_window_ns = comb_window_ns;
    let mut b = VorxBuilder::with_topology(topo)
        .seed(0x5EED)
        .net_config(nc)
        .shards(SHARDS);
    if let Some(f) = faults {
        b = b.faults(f);
    }
    let v = b.build_sharded(workers);
    collective::register_group_sharded(
        &v,
        &GroupCfg {
            group: GROUP,
            members: (0..members).map(|m| NodeAddr(m as u32)).collect(),
            mode: CollMode::InNetwork,
        },
    );
    let r1 = Arc::new(Mutex::new(vec![0u64; members]));
    let r2 = Arc::new(Mutex::new(vec![0u64; members]));
    for (m, &x) in operands.iter().enumerate() {
        let (r1, r2) = (Arc::clone(&r1), Arc::clone(&r2));
        v.spawn_at(NodeAddr(m as u32), format!("n{m}:coll"), move |ctx| {
            let c = collective::attach(&ctx, NodeAddr(m as u32), GROUP);
            lock(&r1)[m] = c.allreduce(&ctx, op, x);
            lock(&r2)[m] = c.reduce(&ctx, op, second(x));
        });
    }
    let mut v = v;
    let end = v.run_all();
    assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
    let trace = v.merged_trace().to_json();
    let (r1, r2) = (lock(&r1).clone(), lock(&r2).clone());
    Run {
        r1,
        r2,
        end_ns: end.as_ns(),
        trace,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// In-network reduce/allreduce equals the scalar fold for arbitrary
    /// operands, operations, and combining-window timings, under seeded
    /// loss and link degradation — and the run replays bit-identically at
    /// workers {1, 4, 8}.
    #[test]
    fn in_network_reduction_is_the_scalar_fold(
        operands in proptest::collection::vec(any::<u64>(), 2..17),
        op_idx in 0usize..4,
        window in 0u64..200_000,
        fault_seed in any::<u64>(),
        drop_milli in 0u32..40,
        delay_milli in 0u32..200,
        delay_ns in 0u64..200_000,
    ) {
        let op = [CombOp::Sum, CombOp::Min, CombOp::Max, CombOp::FetchAdd][op_idx];
        let exp1 = fold(op, operands.iter().copied());
        let exp2 = fold(op, operands.iter().copied().map(second));
        // Degraded links: probabilistic drops plus probabilistic extra
        // latency, the same profile on every link, from a seeded RNG.
        let profile = LinkFaults {
            drop: f64::from(drop_milli) / 1000.0,
            corrupt: 0.0,
            delay: f64::from(delay_milli) / 1000.0,
            delay_ns,
        };
        let schedule = FaultSchedule::new(fault_seed).all_links(profile);
        let runs: Vec<Run> = [1usize, 4, 8]
            .iter()
            .map(|&w| run_group(&operands, op, window, Some(schedule.clone()), w))
            .collect();
        for r in &runs {
            prop_assert_eq!(&r.r1, &vec![exp1; operands.len()], "first op diverged from fold");
            prop_assert_eq!(&r.r2, &vec![exp2; operands.len()], "second op diverged from fold");
        }
        prop_assert_eq!(runs[0].end_ns, runs[1].end_ns, "end time differs, workers 1 vs 4");
        prop_assert_eq!(runs[0].end_ns, runs[2].end_ns, "end time differs, workers 1 vs 8");
        prop_assert!(
            runs[0].trace == runs[1].trace && runs[0].trace == runs[2].trace,
            "merged traces differ across worker counts"
        );
    }
}

/// Window extremes, fault-free: a zero-width combining window (every
/// partial flushes at once) and a huge one (only the expected-count early
/// flush fires) must both produce the exact fold.
#[test]
fn combining_window_extremes_are_exact() {
    let operands: Vec<u64> = (0..12).map(|i| u64::MAX / 3 + i * 7).collect();
    for window in [0u64, 1, 1_000_000_000] {
        let r = run_group(&operands, CombOp::Sum, window, None, 1);
        let exp = fold(CombOp::Sum, operands.iter().copied());
        assert_eq!(r.r1, vec![exp; operands.len()], "window {window}");
    }
}

/// Combining must be invisible until used: arming a group that no process
/// ever attaches leaves a non-collective workload's trace byte-identical to
/// the same run with no group registered (the §16 determinism discipline —
/// collective-free traces match the pre-collective engine).
#[test]
fn unused_group_leaves_noncollective_traces_untouched() {
    let run = |register: bool| {
        let topo = Topology::incomplete_hypercube(2, 4).expect("test topology");
        let v = VorxBuilder::with_topology(topo)
            .seed(0x5EED)
            .shards(SHARDS)
            .build_sharded(1);
        if register {
            collective::register_group_sharded(
                &v,
                &GroupCfg {
                    group: GROUP,
                    members: (0..8).map(NodeAddr).collect(),
                    mode: CollMode::InNetwork,
                },
            );
        }
        v.spawn_at(NodeAddr(0), "w", |ctx| {
            let ch = hpc_vorx::vorx::channel::open(&ctx, NodeAddr(0), "plain");
            ch.write(&ctx, hpc_vorx::hpcnet::Payload::copy_from(&[7u8; 300]))
                .expect("write");
        });
        v.spawn_at(NodeAddr(5), "r", |ctx| {
            let ch = hpc_vorx::vorx::channel::open(&ctx, NodeAddr(5), "plain");
            ch.read(&ctx).expect("read");
        });
        let mut v = v;
        let end = v.run_all();
        assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
        (end.as_ns(), v.merged_trace().to_json())
    };
    let (end_armed, trace_armed) = run(true);
    let (end_bare, trace_bare) = run(false);
    assert_eq!(end_armed, end_bare, "an unused group changed the end time");
    assert_eq!(trace_armed, trace_bare, "an unused group changed the trace");
}

/// The software tree and the combining fabric are two engines for the same
/// operation: identical results on identical operands.
#[test]
fn software_tree_and_in_network_agree() {
    let operands: Vec<u64> = vec![3, u64::MAX, 0, 41, 7, 7, 19, 2];
    let innet = run_group(&operands, CombOp::Min, 20_000, None, 1);
    // Same group, software-tree mode, radix 2.
    let topo = Topology::incomplete_hypercube(2, 4).expect("test topology");
    let v = VorxBuilder::with_topology(topo)
        .seed(0x5EED)
        .shards(SHARDS)
        .build_sharded(1);
    collective::register_group_sharded(
        &v,
        &GroupCfg {
            group: GROUP,
            members: (0..operands.len()).map(|m| NodeAddr(m as u32)).collect(),
            mode: CollMode::SoftwareTree { radix: 2 },
        },
    );
    let got = Arc::new(Mutex::new(vec![0u64; operands.len()]));
    for (m, &x) in operands.iter().enumerate() {
        let got = Arc::clone(&got);
        v.spawn_at(NodeAddr(m as u32), format!("n{m}:tree"), move |ctx| {
            let c = collective::attach(&ctx, NodeAddr(m as u32), GROUP);
            lock(&got)[m] = c.allreduce(&ctx, CombOp::Min, x);
        });
    }
    let mut v = v;
    v.run_all();
    assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
    assert_eq!(&*lock(&got), &innet.r1, "engines disagree on CombOp::Min");
}

/// A crash disarms every retry chain the node owned, the collective ones
/// included. The root never joins, so the member's operation cannot
/// complete and only its nudge chain keeps the run going: first nudge at
/// 20 ms, the next armed for 60 ms. The member dies at 30 ms, with the
/// failure-detection sweep off so nothing else is left to run; the run must
/// go idle at the crash, not tick on to the dead member's next nudge.
#[test]
fn a_crashed_member_leaves_no_nudge_armed() {
    let crash = SimTime::from_ns(30_000_000);
    let calib = Calibration {
        crash_detect_ns: u64::MAX,
        ..Calibration::paper_1988()
    };
    let mut v = VorxBuilder::single_cluster(2)
        .calibration(calib)
        .faults(FaultSchedule::new(1).down_at(1, crash))
        .build();
    collective::register_group(
        &mut v.world(),
        &GroupCfg {
            group: GROUP,
            members: vec![NodeAddr(0), NodeAddr(1)],
            mode: CollMode::InNetwork,
        },
    );
    v.spawn("n1:member", |ctx| {
        let c = collective::attach(&ctx, NodeAddr(1), GROUP);
        c.allreduce(&ctx, CombOp::Sum, 1);
    });
    let report = v.run();
    assert_eq!(report.parked.len(), 1, "the member dies parked");
    let w = v.world();
    assert_eq!(w.faults.stats.crashes, 1);
    assert!(
        w.nodes[1].coll.is_empty(),
        "the crash wiped the member's state"
    );
    drop(w);
    assert_eq!(
        v.now(),
        crash,
        "a timer of the dead member's nudge chain ran after the crash"
    );
}
