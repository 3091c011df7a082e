//! Gray-failure determinism and estimator properties.
//!
//! Two things must hold for the PR 9 adaptive timers to be usable inside
//! the deterministic engine:
//!
//! 1. The Jacobson/Karn estimator itself is well-behaved: its RTO never
//!    leaves the `[floor, ceil]` clamp no matter what samples arrive, and
//!    the smoothed estimate converges into the sampled envelope.
//! 2. Gray degradation (latency inflation + seeded jitter) and flap trains
//!    are pure functions of `(seed, sim time)`, so the sharded engine
//!    replays the same world bit-identically at any worker count.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use desim::{FaultSchedule, SimDuration, SimTime};
use proptest::prelude::*;
use vorx::hpcnet::{ClusterId, Fabric, NetConfig, NodeAddr, Payload, Topology};
use vorx::rtt::RttEstimator;
use vorx::{channel, VCtx, VorxBuilder};

/// The calibration clamp used by the transport (see `Calibration`).
const FLOOR_NS: u64 = 5_000_000;
const CEIL_NS: u64 = 640_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever mix of base latency and jitter the samples carry, the RTO
    /// stays inside the clamp after every single sample — it can never dip
    /// below the floor (spurious-retransmit guard) nor run past the
    /// ceiling (unbounded-stall guard).
    #[test]
    fn rto_never_leaves_the_clamp(
        base in 1_000u64..2_000_000_000,
        jitters in proptest::collection::vec(0u64..500_000_000u64, 1..64),
    ) {
        let mut e = RttEstimator::new();
        for &j in &jitters {
            e.sample(base.saturating_add(j));
            let rto = e.rto_ns(FLOOR_NS, CEIL_NS).expect("sampled");
            prop_assert!(rto >= FLOOR_NS, "rto {rto} below floor");
            prop_assert!(rto <= CEIL_NS, "rto {rto} above ceiling");
        }
    }

    /// The smoothed estimate is a convex combination of the samples, so it
    /// converges into the sampled envelope `[base, base + jitter_bound)`,
    /// and the (unclamped) suspicion window always covers the smoothed
    /// estimate itself.
    #[test]
    fn srtt_converges_into_the_sampled_envelope(
        base in 1_000_000u64..100_000_000,
        jitters in proptest::collection::vec(0u64..20_000_000u64, 4..64),
    ) {
        let mut e = RttEstimator::new();
        for &j in &jitters {
            e.sample(base + j);
        }
        prop_assert!(e.srtt_ns() >= base);
        prop_assert!(e.srtt_ns() < base + 20_000_000);
        // floor=0, ceil=MAX exposes the raw srtt + 4*rttvar window.
        let raw = e.rto_ns(0, u64::MAX).expect("sampled");
        prop_assert!(raw >= e.srtt_ns());
    }
}

// ---------------------------------------------------------------------------
// Sharded determinism under degrade + flap.
// ---------------------------------------------------------------------------

const CLUSTERS: u32 = 4;
const PER_CLUSTER: u32 = 4;
const MSGS: u32 = 24;
const PACE_NS: u64 = 2_000_000;

fn topo() -> Topology {
    Topology::incomplete_hypercube(CLUSTERS as usize, PER_CLUSTER as usize).expect("valid machine")
}

fn nodes_of(t: &Topology, c: u32) -> Vec<NodeAddr> {
    t.endpoints()
        .filter(|&n| t.cluster_of(n) == ClusterId(c))
        .collect()
}

/// Both directed link ids of the cluster cable `a`–`b`.
fn cable(a: u32, b: u32) -> [u32; 2] {
    let f = Fabric::new(topo(), NetConfig::paper_1988());
    [
        f.cluster_link(ClusterId(a), ClusterId(b)).expect("wired").0,
        f.cluster_link(ClusterId(b), ClusterId(a)).expect("wired").0,
    ]
}

/// The gray script: an *asymmetric* degradation (only the 0→1 direction of
/// the cable inflates; the return path stays clean) with seeded jitter,
/// plus a flap train on the 2–3 cable dense enough to trip flap damping
/// (three downs inside the 50 ms window → 100 ms hold).
fn gray_schedule(seed: u64) -> FaultSchedule {
    let fwd = cable(0, 1)[0];
    let mut s = FaultSchedule::new(seed).degrade(
        fwd,
        SimTime::from_ns(5_000_000),
        SimTime::from_ns(80_000_000),
        40.0,
        2_000,
    );
    for l in cable(2, 3) {
        s = s.flap_link(l, SimTime::from_ns(20_000_000), 4_000_000, 4);
    }
    s
}

/// Run paced cross-cluster streams (one rides the degraded direction, one
/// rides the flapping cable) at `workers` threads; return the merged trace
/// plus the facts the oracles need.
fn run_once(workers: usize) -> (String, u64, u64, u64) {
    let t = topo();
    let mut v = VorxBuilder::with_topology(t.clone())
        .seed(0x6A41)
        .faults(gray_schedule(0x6A41))
        .build_sharded(workers);
    let delivered = Arc::new(AtomicU32::new(0));
    // Stream A rides the asymmetrically degraded 0→1 direction; stream B
    // rides the flapping 2–3 cable and must survive the damping hold via
    // the hypercube's redundant route (2→0→1→3).
    let streams = [
        (nodes_of(&t, 0)[0], nodes_of(&t, 1)[0], "gray.deg"),
        (nodes_of(&t, 2)[1], nodes_of(&t, 3)[1], "gray.flap"),
    ];
    for (wn, rn, name) in streams {
        let del = Arc::clone(&delivered);
        v.spawn_at(wn, format!("n{}:w:{name}", wn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, wn, name);
            for i in 0..MSGS {
                ctx.sleep(SimDuration::from_ns(PACE_NS));
                ch.write(&ctx, Payload::Synthetic(64 + i)).expect("write");
            }
        });
        v.spawn_at(rn, format!("n{}:r:{name}", rn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, rn, name);
            for i in 0..MSGS {
                assert_eq!(ch.read(&ctx).expect("read").len(), 64 + i);
                del.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let end = v.run_all();
    let trace = v.merged_trace().to_json();
    let flaps = v.sum_over_shards(|w| w.link_fault_stats().values().map(|s| s.flaps).sum());
    let samples = v.sum_over_shards(|w| {
        w.nodes
            .iter()
            .flat_map(|n| w.chan_ends.of(n))
            .map(|e| e.rtt.samples())
            .sum()
    });
    for k in 0..v.n_shards() {
        let w = v.world(k);
        for n in w.nodes.iter() {
            assert!(n.mbr.partitioned.is_empty(), "stale partition mark");
            assert!(n.mbr.probing.is_empty(), "probe still in flight at idle");
        }
    }
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        2 * MSGS,
        "lost deliveries at {workers} workers"
    );
    (trace, end.as_ns(), flaps, samples)
}

/// Degrade + jitter + flap are pure functions of `(seed, sim time)`: the
/// merged trace is byte-identical at 1, 4, and 8 workers, the flap train is
/// recorded, and the gray window actually fed the RTT estimators.
#[test]
fn degrade_and_flap_traces_are_bit_identical_across_workers() {
    let (t1, end1, flaps1, samples1) = run_once(1);
    let (t4, end4, flaps4, _) = run_once(4);
    let (t8, end8, flaps8, _) = run_once(8);
    assert_eq!(end1, end4, "end time diverged at 4 workers");
    assert_eq!(end1, end8, "end time diverged at 8 workers");
    assert_eq!(t1, t4, "trace diverged at 4 workers");
    assert_eq!(t1, t8, "trace diverged at 8 workers");
    assert_eq!(flaps1, flaps4);
    assert_eq!(flaps1, flaps8);
    assert!(flaps1 > 0, "the flap train never registered");
    assert!(samples1 > 0, "the gray window never fed an RTT estimator");
}
