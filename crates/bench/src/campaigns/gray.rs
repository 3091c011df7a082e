//! Gray-failure campaign: degraded-but-alive links — latency inflation
//! with seeded jitter, asymmetric (one-direction) degradation, flap trains
//! at two rates, and a primary-gateway outage — swept over the sharded
//! engine at workers {1, 4} on a two-level redundant hierarchy.
//!
//! The machine is `hierarchical_hypercube_redundant(&[4, 2], 2)`: two
//! groups of four clusters, two endpoints per cluster, and a *standby*
//! gateway class so the inter-group role can fail over without detours.
//! Four paced streams cross every interesting edge: the degraded cable,
//! the flapping cable, and the gateway in both directions.
//!
//! Oracles, checked at quiescence in every cell:
//!
//! 1. exactly-once FIFO delivery on every stream, no stuck processes;
//! 2. **no false `PeerDown`**: under pure delay (no loss, no downs) a
//!    degraded-but-live peer is never declared down or partitioned —
//!    `peer_down_events == 0 && partitions == 0`;
//! 3. **bounded spurious retransmits**: under pure delay the adaptive
//!    Jacobson/Karn timers keep retransmissions within a small
//!    bootstrap/ramp allowance instead of one-per-write forever;
//! 4. flap cells: the fast train trips flap damping (`flaps > 0`) and the
//!    slow train — spaced wider than `FLAP_WINDOW_NS` — does not;
//! 5. membership convergence: every node up, no partition marks, no
//!    probes in flight (with the rest of `vorx::invariants`);
//! 6. workers 1 and 4 produce bit-identical merged traces.
//!
//! Six scripts × two seeds at 24 messages per stream, plus the 12-message
//! run of every script at the first seed that CI has gated on since the
//! gray plane landed.

use desim::{FaultSchedule, SimTime};
use vorx::hpcnet::{Fabric, NetConfig, Topology};
use vorx::{invariants, VorxBuilder, VorxShardedSim};

use crate::campaign::{cable, nodes_of, streams, Campaign, Cell, Record, Run, Totals};

/// Hierarchy shape: two groups of four clusters.
const LEVELS: [usize; 2] = [4, 2];
/// Endpoints per cluster.
const EPS: usize = 2;
/// Gap between stream writes.
const PACE_NS: u64 = 4_000_000;
/// The degraded cable (intra-group, group 0).
const DEG_CABLE: (u32, u32) = (0, 1);
/// The flapping cable (intra-group, group 0).
const FLAP_CABLE: (u32, u32) = (2, 3);
/// The primary inter-group gateway cable (standby is 1–5).
const GW_CABLE: (u32, u32) = (0, 4);

/// Streams across every interesting edge — the degraded cable, the flapping
/// cable, and the gateway in both directions: (writer's cluster, reader's
/// cluster, which endpoint of each, channel name).
const STREAMS: [(u32, u32, usize, &str); 4] = [
    (DEG_CABLE.0, DEG_CABLE.1, 0, "gray.deg"),
    (FLAP_CABLE.0, FLAP_CABLE.1, 1, "gray.flap"),
    (3, 5, 0, "gray.xg"),
    (6, 2, 0, "gray.gx"),
];

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "gray",
    note: "gray failures: latency inflation x asymmetry x flap rate x gateway outage on a \
           [4,2]x2 redundant hierarchy, sharded engine, workers {1,4}",
    watchdog_s: (240, 600),
    on_expiry: None,
    workload: &[
        ("clusters_per_group", LEVELS[0] as u64),
        ("groups", LEVELS[1] as u64),
        ("endpoints_per_cluster", EPS as u64),
        ("streams", STREAMS.len() as u64),
        ("pace_ns", PACE_NS),
    ],
    cells,
    gates: &[],
};

fn topo() -> Topology {
    Topology::hierarchical_hypercube_redundant(&LEVELS, EPS).expect("valid machine")
}

/// A throwaway fabric of the campaign machine, to look link ids up in.
fn probe() -> Fabric {
    Fabric::new(topo(), NetConfig::paper_1988())
}

/// Every cluster cable the campaign streams can cross, both directions.
fn all_cables() -> Vec<u32> {
    let pairs = [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
        (4, 5),
        (4, 6),
        (5, 7),
        (6, 7),
        GW_CABLE,
        (1, 5), // the standby gateway class
    ];
    let probe = probe();
    pairs.into_iter().flat_map(|p| cable(&probe, p)).collect()
}

/// One fault script: its name, its schedule from a seed, and the oracles
/// it arms.
type Script = (&'static str, fn(u64) -> FaultSchedule, Arms);

/// What a script's cell is held to besides the oracles every cell carries.
#[derive(Clone, Copy)]
enum Arms {
    /// Nothing in the script loses or downs anything: no false `PeerDown`,
    /// and total retransmits within `retx_bound` (the bootstrap and
    /// severe-ramp allowance).
    PureDelay { retx_bound: u64 },
    /// The script churns links: downs recorded, every mark healed, and —
    /// where given — damping tripped (fast train) or not (slow train).
    Churn { expect_flaps: Option<bool> },
}

/// Degrade every cable over each `(start, end, factor, jitter)` window.
fn degrade_all(seed: u64, windows: &[(u64, u64, f64, u64)]) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in all_cables() {
        for &(from, to, factor, jitter_ns) in windows {
            s = s.degrade(
                l,
                SimTime::from_ns(from),
                SimTime::from_ns(to),
                factor,
                jitter_ns,
            );
        }
    }
    s
}

/// Flap the flapping cable: `n` transitions `gap_ns` apart from 10 ms.
fn flap_train(seed: u64, gap_ns: u64, n: u32) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in cable(&probe(), FLAP_CABLE) {
        s = s.flap_link(l, SimTime::from_ns(10_000_000), gap_ns, n);
    }
    s
}

const END_NS: u64 = 60_000_000_000;

const SCRIPTS: [Script; 6] = [
    // Symmetric moderate inflation on every cable: ~20 µs per transit — far
    // past clean latency, far under the RTO floor. Steady state must be
    // retransmit-free.
    (
        "delay-moderate-sym",
        |seed| degrade_all(seed, &[(2_000_000, END_NS, 40.0, 2_000)]),
        Arms::PureDelay { retx_bound: 8 },
    ),
    // The ramp the adaptive timers exist for: moderate (1 ms per transit,
    // sampleable) long enough to bootstrap the estimators, then severe
    // (50 ms per transit — cross-group RTT ≈ 400 ms, past the fixed 20 ms
    // base and deep into the old false-positive regime) for the rest of the
    // run. Every write must complete; the peer is never down.
    (
        "delay-severe-ramp",
        |seed| {
            let moderate = (2_000_000, 40_000_000, 2_000.0, 10_000);
            degrade_all(seed, &[moderate, (40_000_000, END_NS, 100_000.0, 10_000)])
        },
        Arms::PureDelay { retx_bound: 96 },
    ),
    // Asymmetric: only the forward direction of one cable inflates; acks
    // ride a clean return path. Latency stats and timers must handle the
    // per-direction split.
    (
        "delay-asym",
        |seed| {
            let (from, to) = (SimTime::from_ns(2_000_000), SimTime::from_ns(END_NS));
            FaultSchedule::new(seed).degrade(
                cable(&probe(), DEG_CABLE)[0],
                from,
                to,
                2_000.0,
                10_000,
            )
        },
        Arms::PureDelay { retx_bound: 8 },
    ),
    // Slow flap train: transitions 30 ms apart — wider than the 50 ms
    // window needs for three downs, so damping must *not* engage.
    (
        "flap-slow",
        |seed| flap_train(seed, 30_000_000, 3),
        Arms::Churn {
            expect_flaps: Some(false),
        },
    ),
    // Fast flap train: transitions 4 ms apart — three downs land inside
    // the 50 ms window, damping holds the link down and routing detours
    // around it until the train ends plus the hold.
    (
        "flap-fast",
        |seed| flap_train(seed, 4_000_000, 5),
        Arms::Churn {
            expect_flaps: Some(true),
        },
    ),
    // Primary gateway outage: both directions of the 0–4 cable die mid-run
    // and heal later. `recompute` re-wires the inter-group role onto the
    // standby class (1–5), so cross-group streams keep flowing and no
    // partition is ever declared.
    (
        "gateway-failover",
        |seed| {
            let mut s = FaultSchedule::new(seed);
            for l in cable(&probe(), GW_CABLE) {
                s = s
                    .link_down_at(l, SimTime::from_ns(10_000_000))
                    .link_up_at(l, SimTime::from_ns(80_000_000));
            }
            s
        },
        Arms::Churn { expect_flaps: None },
    ),
];

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for (seed, msgs) in [(0x69A1, 24), (0x69A2, 24), (0x69A1, 12)] {
        for (name, schedule, arms) in SCRIPTS {
            let key = Record::new().with("cell", name).with("seed", seed);
            let run = move |workers| run(schedule, arms, seed, msgs, workers);
            let key = key.with("messages_per_stream", msgs);
            out.push(Cell::new(key, false, &[1, 4], run));
        }
    }
    out
}

/// Run one script at `workers`, oracles evaluated at quiescence.
fn run(
    schedule: fn(u64) -> FaultSchedule,
    arms: Arms,
    seed: u64,
    msgs: u32,
    workers: usize,
) -> Run {
    let t = topo();
    let mut v: VorxShardedSim = VorxBuilder::with_topology(t.clone())
        .seed(seed)
        .faults(schedule(seed))
        .build_sharded(workers);

    let stream = |&(w, r, i, name): &(u32, u32, usize, &str)| {
        (nodes_of(&t, w)[i], nodes_of(&t, r)[i], name.to_string())
    };
    let pairs = STREAMS.iter().map(stream).collect();
    let s = streams(&v, pairs, msgs, PACE_NS, 64);

    let end = v.run_all();
    let trace = v.merged_trace().to_json();
    let totals = Totals::over_shards(&v);
    let (f, links) = (&totals.faults, totals.all_links());
    let rtt_samples = v.sum_over_shards(|w| {
        let chans = w.nodes.iter().flat_map(|n| w.chan_ends.of(n.addr));
        chans.map(|e| e.rtt.samples()).sum()
    });

    let mut violations = s.violations();
    violations.extend(invariants::check_shards(&v, 0));
    let retx_bound = match arms {
        Arms::PureDelay { retx_bound } => {
            // A delayed-but-live peer must never be declared down or
            // partitioned, and the adaptive timers must keep spurious
            // retransmits within the bootstrap allowance.
            if f.peer_down_events > 0 || f.partitions > 0 {
                violations.push("false-peer-down");
            }
            if f.retransmits > retx_bound {
                violations.push("spurious-retransmits");
            }
            if rtt_samples == 0 {
                violations.push("estimators-never-armed");
            }
            if links.lat_count == 0 {
                violations.push("latency-stats-missing");
            }
            Some(retx_bound)
        }
        Arms::Churn { expect_flaps } => {
            match expect_flaps {
                Some(true) if links.flaps == 0 => violations.push("damping-never-tripped"),
                Some(false) if links.flaps > 0 => violations.push("damping-tripped-spuriously"),
                _ => {}
            }
            // Flap and failover cells must actually churn the timeline
            // (bridged frames model no link churn — DESIGN.md §12 — so the
            // evidence is the recorded downs, the damper, and healed
            // marks, not retransmits), and every transient mark must heal.
            if links.downs == 0 {
                violations.push("no-churn-exercised");
            }
            if f.partitions != f.heals {
                violations.push("unhealed-partition");
            }
            None
        }
    };
    let sim = Record::new()
        .with("end_ns", end.as_ns())
        .with("delivered", s.delivered())
        .with("retx_bound", retx_bound)
        .with("rtt_samples", rtt_samples)
        .and(totals.record());
    Run::new(sim, violations).trace(trace)
}
