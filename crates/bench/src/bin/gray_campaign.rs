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
//!    slow train — spaced wider than `flap_window_ns` — does not;
//! 5. membership convergence: every node up, no partition marks, no
//!    probes in flight;
//! 6. workers 1 and 4 produce bit-identical merged traces.
//!
//! Writes `BENCH_gray.json` at the workspace root.
//!
//! Usage:
//!   gray_campaign            # full sweep + BENCH_gray.json
//!   gray_campaign --smoke    # reduced sweep under a wall-clock watchdog

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use desim::{FaultSchedule, SimDuration, SimTime};
use vorx::hpcnet::{ClusterId, Fabric, NetConfig, NodeAddr, Topology};
use vorx::{channel, FaultStats, VCtx, VorxBuilder, VorxShardedSim};
use vorx_bench::campaign::{index_of, msg_payload, with_watchdog, workspace_root};

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

fn topo() -> Topology {
    Topology::hierarchical_hypercube_redundant(&LEVELS, EPS).expect("valid machine")
}

/// Endpoints of cluster `c`, in address order.
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
    pairs.iter().flat_map(|&(a, b)| cable(a, b)).collect()
}

/// One campaign cell: a named fault script plus the oracles it arms.
struct Cell {
    name: &'static str,
    schedule: fn(u64) -> FaultSchedule,
    /// Pure-delay cell: arm the no-false-`PeerDown` and retransmit-bound
    /// oracles (nothing in the script loses or downs anything).
    pure_delay: bool,
    /// Ceiling on total retransmits (bootstrap + severe-ramp allowance)
    /// for pure-delay cells; `u64::MAX` disarms the bound.
    retx_bound: u64,
    /// The script must (fast train) or must not (slow train) trip damping.
    expect_flaps: Option<bool>,
}

/// Symmetric moderate inflation on every cable: ~20 µs per transit — far
/// past clean latency, far under the RTO floor. Steady state must be
/// retransmit-free.
fn sched_moderate(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in all_cables() {
        s = s.degrade(
            l,
            SimTime::from_ns(2_000_000),
            SimTime::from_ns(60_000_000_000),
            40.0,
            2_000,
        );
    }
    s
}

/// The ramp the adaptive timers exist for: moderate (1 ms per transit,
/// sampleable) long enough to bootstrap the estimators, then severe
/// (50 ms per transit — cross-group RTT ≈ 400 ms, past the fixed 20 ms
/// base and deep into the old false-positive regime) for the rest of the
/// run. Every write must complete; the peer is never down.
fn sched_severe_ramp(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in all_cables() {
        s = s
            .degrade(
                l,
                SimTime::from_ns(2_000_000),
                SimTime::from_ns(40_000_000),
                2_000.0,
                10_000,
            )
            .degrade(
                l,
                SimTime::from_ns(40_000_000),
                SimTime::from_ns(60_000_000_000),
                100_000.0,
                10_000,
            );
    }
    s
}

/// Asymmetric: only the forward direction of one cable inflates; acks ride
/// a clean return path. Latency stats and timers must handle the
/// per-direction split.
fn sched_asym(seed: u64) -> FaultSchedule {
    FaultSchedule::new(seed).degrade(
        cable(DEG_CABLE.0, DEG_CABLE.1)[0],
        SimTime::from_ns(2_000_000),
        SimTime::from_ns(60_000_000_000),
        2_000.0,
        10_000,
    )
}

/// Slow flap train: transitions 30 ms apart — wider than the 50 ms window
/// needs for three downs, so damping must *not* engage.
fn sched_flap_slow(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in cable(FLAP_CABLE.0, FLAP_CABLE.1) {
        s = s.flap_link(l, SimTime::from_ns(10_000_000), 30_000_000, 3);
    }
    s
}

/// Fast flap train: transitions 4 ms apart — three downs land inside the
/// 50 ms window, damping holds the link down and routing detours around
/// it until the train ends plus the hold.
fn sched_flap_fast(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in cable(FLAP_CABLE.0, FLAP_CABLE.1) {
        s = s.flap_link(l, SimTime::from_ns(10_000_000), 4_000_000, 5);
    }
    s
}

/// Primary gateway outage: both directions of the 0–4 cable die mid-run
/// and heal later. `recompute` re-wires the inter-group role onto the
/// standby class (1–5), so cross-group streams keep flowing and no
/// partition is ever declared.
fn sched_gateway(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed);
    for l in cable(GW_CABLE.0, GW_CABLE.1) {
        s = s
            .link_down_at(l, SimTime::from_ns(10_000_000))
            .link_up_at(l, SimTime::from_ns(80_000_000));
    }
    s
}

const CELLS: [Cell; 6] = [
    Cell {
        name: "delay-moderate-sym",
        schedule: sched_moderate,
        pure_delay: true,
        retx_bound: 8,
        expect_flaps: None,
    },
    Cell {
        name: "delay-severe-ramp",
        schedule: sched_severe_ramp,
        pure_delay: true,
        retx_bound: 96,
        expect_flaps: None,
    },
    Cell {
        name: "delay-asym",
        schedule: sched_asym,
        pure_delay: true,
        retx_bound: 8,
        expect_flaps: None,
    },
    Cell {
        name: "flap-slow",
        schedule: sched_flap_slow,
        pure_delay: false,
        retx_bound: u64::MAX,
        expect_flaps: Some(false),
    },
    Cell {
        name: "flap-fast",
        schedule: sched_flap_fast,
        pure_delay: false,
        retx_bound: u64::MAX,
        expect_flaps: Some(true),
    },
    Cell {
        name: "gateway-failover",
        schedule: sched_gateway,
        pure_delay: false,
        retx_bound: u64::MAX,
        expect_flaps: None,
    },
];

/// Everything one `(cell, seed, workers)` run produced.
struct RunOutcome {
    trace: String,
    end_ns: u64,
    delivered: u32,
    done: u32,
    expected_done: u32,
    fifo_ok: bool,
    membership_ok: bool,
    stats: FaultStats,
    flaps: u64,
    downs: u64,
    rtt_samples: u64,
    lat_min_ns: u64,
    lat_max_ns: u64,
    lat_mean_ns: u64,
    lat_count: u64,
}

/// Run one cell at `workers`, oracles evaluated at quiescence.
fn run_once(cell: &Cell, seed: u64, workers: usize, msgs: u32) -> RunOutcome {
    let t = topo();
    let mut v: VorxShardedSim = VorxBuilder::with_topology(t.clone())
        .seed(seed)
        .faults((cell.schedule)(seed))
        .build_sharded(workers);

    let done = Arc::new(AtomicU32::new(0));
    let fifo_ok = Arc::new(AtomicBool::new(true));
    let delivered = Arc::new(AtomicU32::new(0));
    // Streams across every interesting edge: the degraded cable, the
    // flapping cable, and the gateway in both directions.
    let streams: Vec<(NodeAddr, NodeAddr, String)> = vec![
        (
            nodes_of(&t, DEG_CABLE.0)[0],
            nodes_of(&t, DEG_CABLE.1)[0],
            "gray.deg".into(),
        ),
        (
            nodes_of(&t, FLAP_CABLE.0)[1],
            nodes_of(&t, FLAP_CABLE.1)[1],
            "gray.flap".into(),
        ),
        (nodes_of(&t, 3)[0], nodes_of(&t, 5)[0], "gray.xg".into()),
        (nodes_of(&t, 6)[0], nodes_of(&t, 2)[0], "gray.gx".into()),
    ];
    let expected_done = 2 * streams.len() as u32;
    for (wn, rn, name) in streams {
        let rname = name.clone();
        let (f_ok, del, d1, d2) = (
            Arc::clone(&fifo_ok),
            Arc::clone(&delivered),
            Arc::clone(&done),
            Arc::clone(&done),
        );
        v.spawn_at(wn, format!("n{}:w:{name}", wn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, wn, &name);
            for i in 0..msgs {
                ctx.sleep(SimDuration::from_ns(PACE_NS));
                ch.write(&ctx, msg_payload(i, 64)).expect("writer failed");
            }
            d1.fetch_add(1, Ordering::Relaxed);
        });
        v.spawn_at(rn, format!("n{}:r:{rname}", rn.0), move |ctx: VCtx| {
            let ch = channel::open(&ctx, rn, &rname);
            for expect in 0..msgs {
                let i = index_of(&ch.read(&ctx).expect("reader failed"));
                if i != expect {
                    f_ok.store(false, Ordering::Relaxed);
                }
                del.fetch_add(1, Ordering::Relaxed);
            }
            d2.fetch_add(1, Ordering::Relaxed);
        });
    }

    let end = v.run_all();
    let trace = v.merged_trace().to_json();

    let mut stats = FaultStats::default();
    let mut membership_ok = true;
    let (mut flaps, mut downs) = (0u64, 0u64);
    let (mut lat_min, mut lat_max, mut lat_sum, mut lat_count) = (u64::MAX, 0u64, 0u64, 0u64);
    let mut rtt_samples = 0u64;
    for k in 0..v.n_shards() {
        let w = v.world(k);
        let s = &w.faults.stats;
        stats.retransmits += s.retransmits;
        stats.peer_down_events += s.peer_down_events;
        stats.partitions += s.partitions;
        stats.probes_sent += s.probes_sent;
        stats.heals += s.heals;
        stats.dups_suppressed += s.dups_suppressed;
        stats.overload_rideouts += s.overload_rideouts;
        for ls in w.link_fault_stats().values() {
            flaps += ls.flaps;
            downs += ls.downs;
            if ls.lat_count > 0 {
                lat_min = lat_min.min(ls.lat_min_ns);
                lat_max = lat_max.max(ls.lat_max_ns);
                lat_sum += ls.lat_sum_ns;
                lat_count += ls.lat_count;
            }
        }
        for n in w.nodes.iter() {
            if !(n.up && n.mbr.partitioned.is_empty() && n.mbr.probing.is_empty()) {
                membership_ok = false;
            }
            rtt_samples += n.chans.values().map(|e| e.rtt.samples()).sum::<u64>();
        }
    }
    RunOutcome {
        trace,
        end_ns: end.as_ns(),
        delivered: delivered.load(Ordering::Relaxed),
        done: done.load(Ordering::Relaxed),
        expected_done,
        fifo_ok: fifo_ok.load(Ordering::Relaxed),
        membership_ok,
        stats,
        flaps,
        downs,
        rtt_samples,
        lat_min_ns: if lat_count == 0 { 0 } else { lat_min },
        lat_max_ns: lat_max,
        lat_mean_ns: lat_sum.checked_div(lat_count).unwrap_or(0),
        lat_count,
    }
}

/// One campaign cell at one seed: workers 1 and 4, traces compared.
struct CellResult {
    name: &'static str,
    seed: u64,
    msgs: u32,
    pure_delay: bool,
    retx_bound: u64,
    expect_flaps: Option<bool>,
    trace_identical: bool,
    run: RunOutcome,
}

impl CellResult {
    /// Every violated oracle, by name. Empty means the cell is clean.
    fn violations(&self) -> Vec<&'static str> {
        let r = &self.run;
        let mut v = Vec::new();
        if !r.fifo_ok {
            v.push("fifo");
        }
        if r.done != r.expected_done {
            v.push("stuck-process");
        }
        if !r.membership_ok {
            v.push("membership-convergence");
        }
        if !self.trace_identical {
            v.push("worker-determinism");
        }
        if self.pure_delay {
            // A delayed-but-live peer must never be declared down or
            // partitioned, and the adaptive timers must keep spurious
            // retransmits within the bootstrap allowance.
            if r.stats.peer_down_events > 0 || r.stats.partitions > 0 {
                v.push("false-peer-down");
            }
            if r.stats.retransmits > self.retx_bound {
                v.push("spurious-retransmits");
            }
            if r.rtt_samples == 0 {
                v.push("estimators-never-armed");
            }
            if r.lat_count == 0 {
                v.push("latency-stats-missing");
            }
        }
        match self.expect_flaps {
            Some(true) if r.flaps == 0 => v.push("damping-never-tripped"),
            Some(false) if r.flaps > 0 => v.push("damping-tripped-spuriously"),
            _ => {}
        }
        if !self.pure_delay {
            // Flap and failover cells must actually churn the timeline
            // (bridged frames model no link churn — DESIGN.md §12 — so the
            // evidence is the recorded downs, the damper, and healed
            // marks, not retransmits), and every transient mark must heal.
            if r.downs == 0 {
                v.push("no-churn-exercised");
            }
            if r.stats.partitions != r.stats.heals {
                v.push("unhealed-partition");
            }
        }
        v
    }
}

fn run_cell(cell: &Cell, seed: u64, msgs: u32) -> CellResult {
    let r1 = run_once(cell, seed, 1, msgs);
    let r4 = run_once(cell, seed, 4, msgs);
    let trace_identical = r1.trace == r4.trace
        && r1.end_ns == r4.end_ns
        && r1.stats.retransmits == r4.stats.retransmits
        && r1.flaps == r4.flaps;
    CellResult {
        name: cell.name,
        seed,
        msgs,
        pure_delay: cell.pure_delay,
        retx_bound: cell.retx_bound,
        expect_flaps: cell.expect_flaps,
        trace_identical,
        run: r1,
    }
}

/// Hand-rolled JSON, same convention as the other BENCH_*.json reports.
fn to_json(cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"gray failures: latency inflation x asymmetry x flap rate x gateway \
         outage on a [4,2]x2 redundant hierarchy, sharded engine, workers {1,4}\",\n",
    );
    out.push_str(&format!(
        "  \"workload\": {{ \"levels\": [4, 2], \"endpoints_per_cluster\": {EPS}, \
         \"streams\": 4, \"pace_ns\": {PACE_NS} }},\n",
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.run;
        let viol = c
            .violations()
            .iter()
            .map(|v| format!("\"{v}\""))
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{ \"cell\": \"{}\", \"seed\": {}, \"messages_per_stream\": {}, \
             \"end_ns\": {}, \"delivered\": {}, \"trace_identical_workers_1_4\": {}, \
             \"violations\": [{}], \"retransmits\": {}, \"retx_bound\": {}, \
             \"peer_down_events\": {}, \"partitions\": {}, \"heals\": {}, \
             \"probes_sent\": {}, \"rtt_samples\": {}, \"flaps\": {}, \"downs\": {}, \
             \"lat_min_ns\": {}, \"lat_mean_ns\": {}, \"lat_max_ns\": {}, \
             \"lat_count\": {} }}{}\n",
            c.name,
            c.seed,
            c.msgs,
            r.end_ns,
            r.delivered,
            c.trace_identical,
            viol,
            r.stats.retransmits,
            if c.retx_bound == u64::MAX {
                -1i64
            } else {
                c.retx_bound as i64
            },
            r.stats.peer_down_events,
            r.stats.partitions,
            r.stats.heals,
            r.stats.probes_sent,
            r.rtt_samples,
            r.flaps,
            r.downs,
            r.lat_min_ns,
            r.lat_mean_ns,
            r.lat_max_ns,
            r.lat_count,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_cell(c: &CellResult) {
    let r = &c.run;
    println!(
        "{:<20} seed {:#06x}: end {:>8.1} ms, {} delivered, retx {} (bound {}), \
         peer-down {}, partitions/heals {}/{}, probes {}, rtt-samples {}, flaps {}, \
         lat(ns) min/mean/max {}/{}/{} over {} frames, workers-identical={} violations={:?}",
        c.name,
        c.seed,
        r.end_ns as f64 / 1e6,
        r.delivered,
        r.stats.retransmits,
        if c.retx_bound == u64::MAX {
            "-".into()
        } else {
            c.retx_bound.to_string()
        },
        r.stats.peer_down_events,
        r.stats.partitions,
        r.stats.heals,
        r.stats.probes_sent,
        r.rtt_samples,
        r.flaps,
        r.lat_min_ns,
        r.lat_mean_ns,
        r.lat_max_ns,
        r.lat_count,
        c.trace_identical,
        c.violations(),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let cells: Vec<CellResult> = with_watchdog("gray", 240, None, || {
            CELLS.iter().map(|c| run_cell(c, 0x69A1, 12)).collect()
        });
        for c in &cells {
            print_cell(c);
        }
        let bad: usize = cells.iter().map(|c| c.violations().len()).sum();
        assert_eq!(bad, 0, "smoke: {bad} oracle violations");
        println!("gray-campaign smoke OK: zero oracle violations, traces bit-identical");
        return;
    }

    println!(
        "gray failures: {} cells x 2 seeds, 4 streams, [4,2]x{EPS} redundant hierarchy, \
         workers {{1,4}}",
        CELLS.len()
    );
    let cells: Vec<CellResult> = (0..2u64)
        .flat_map(|i| {
            CELLS
                .iter()
                .map(move |c| with_watchdog("gray", 600, None, || run_cell(c, 0x69A1 + i, 24)))
        })
        .collect();
    for c in &cells {
        print_cell(c);
    }
    let bad: usize = cells.iter().map(|c| c.violations().len()).sum();
    assert_eq!(bad, 0, "{bad} oracle violations across the campaign");

    let root = workspace_root();
    let path = root.join("BENCH_gray.json");
    std::fs::write(&path, to_json(&cells)).expect("write BENCH_gray.json");
    println!("wrote {}", path.display());
}
