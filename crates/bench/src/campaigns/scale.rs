//! Million-endpoint scale campaign: hierarchical worlds from 1k to 1M
//! endpoints under the sharded engine, with link churn, streaming
//! workloads, and the O(1)-idle/implicit-routing claims measured rather
//! than asserted in the abstract.
//!
//! Each scale point builds a hierarchical incomplete hypercube
//! ([`Topology::hierarchical_hypercube`]), shards it into 8 contiguous
//! cluster groups (`VorxBuilder::shards`), and drives the same bounded
//! streaming workload (windows of writer/reader pairs spawned as sim time
//! advances — never materialized at build) while two cluster cables flap.
//! Spawning every workload process at build time would materialize a
//! coroutine per process before the first event runs — fine at 16 endpoints,
//! fatal at a million. So one small generator process per shard wakes as
//! each sim-time window opens and spawns only that window's writers and
//! readers, on the shards that own them; the stream set is a pure function
//! of `(seed, window, index)`, so every shard derives the same plan with no
//! cross-shard coordination and the outcome stays bit-identical across
//! worker counts. Per cell it records:
//!
//! * events/sec (engine activities dispatched / wall time),
//! * build cost: `build_s`, the wall time of `build_sharded`, and the links
//!   whose state the shards' fabrics built, summed over shards (a count,
//!   so it repeats to the digit),
//! * what the nodes own at the end, counted over every world table
//!   (`World::tables`): the most rows one node holds, the rows all hold,
//!   and the endpoints owning nothing; and an oracle, checked at every
//!   scale: an endpoint the workload does not name — a stream end, a
//!   stream name's manager or its successor replica, a generator host, the
//!   overlay monitor's node — owns nothing (`World::owns_nothing`),
//! * route-overlay size: detour entries sampled mid-flap on the shard
//!   owning the churned edge, and the final size (must be 0 — heal is an
//!   overlay clear),
//! * merged-trace bit-identity between workers 1 and 4 at a fixed shard
//!   count — the determinism gate at every scale.
//!
//! Alongside the sweep, `recompute` cells time `Topology::recompute` after a
//! single edge death against the pre-overlay dense all-destinations BFS
//! (`dense_bfs_into`) on the same churned topology; the implicit
//! representation must be ≥ 100× faster at the 100k point (and at 10k, the
//! one CI can afford). The `dense` cell is the opposite of the sweep's
//! mostly-idle worlds: on the 100k world every endpoint writes one stream and
//! reads one, 204,800 processes live from the first event, and it records
//! the resident memory they cost per process. The 100k and 1M worlds, the
//! dense row and the 100k dense BFS (most of a minute on its own) are the
//! heavy cells `--smoke` skips.
//!
//! Bytes are measured, not modelled: the 8-shard 100k build's live heap in
//! `tests/wiring.rs`, each blocking call's parked footprint in
//! `tests/footprint.rs`, and the dense row's resident growth per process.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use desim::rng::SplitMix64;
use desim::{FaultSchedule, SimDuration, SimTime};
use vorx::hpcnet::{
    Attachment, ClusterId, Fabric, NetConfig, NodeAddr, Payload, PortRef, Topology,
    PORTS_PER_CLUSTER,
};
use vorx::{channel, invariants, objmgr, Calibration, VCtx, VorxBuilder, VorxShardedSim};

use crate::campaign::{cable, rows_record, Campaign, Cell, Gate, Record, Run, Totals};

/// Shard count, fixed across every scale point and worker count: the shard
/// partition is part of the simulated outcome, so holding it constant is
/// what makes the workers-{1,4} trace comparison meaningful.
const SHARDS: usize = 8;
/// Campaign seed.
const SEED: u64 = 0x5CA1E;
/// First cable flap (down, up), ns.
const FLAP_A_NS: (u64, u64) = (1_500_000, 2_500_000);
/// Second cable flap (down, up), ns — a different group, later window.
const FLAP_B_NS: (u64, u64) = (2_000_000, 3_000_000);

/// The streaming workload: constant offered load at every scale — the
/// scale axis is the *world*, and events/sec shows what the idle fraction
/// costs. `WINDOWS` sim-time windows open `WINDOW_NS` apart; each spawns
/// `STREAMS_PER_WINDOW` writer/reader pairs; each writer sends
/// `MSGS_PER_STREAM` synthetic `PAYLOAD_LEN`-byte messages `PACE_NS` apart.
const WINDOWS: u32 = 4;
const STREAMS_PER_WINDOW: u32 = 16;
const MSGS_PER_STREAM: u32 = 4;
const WINDOW_NS: u64 = 1_000_000;
const PACE_NS: u64 = 50_000;
const PAYLOAD_LEN: u32 = 256;
/// Messages the workload delivers when it runs to completion.
const EXPECTED_MESSAGES: u64 = (WINDOWS * STREAMS_PER_WINDOW * MSGS_PER_STREAM) as u64;
/// Messages of each stream of the dense row, `PAYLOAD_LEN` bytes each.
const DENSE_MSGS: u32 = 2;
/// Mean gap between the starts of the dense row's streams, ns: each starts at
/// a seeded instant within `endpoints × DENSE_START_GAP_NS`, an offered load
/// of 100,000 streams per simulated second at any size. All at once, 10,240
/// streams already jam the fabric: frames it can never drain, and
/// retransmissions until writers declare their peers down.
const DENSE_START_GAP_NS: u64 = 10_000;

/// One scale point of the sweep: name, hierarchy levels, endpoints per
/// cluster, and whether the world is too big for CI.
type Scale = (&'static str, &'static [usize], usize, bool);

static SCALES: [Scale; 4] = [
    ("1k", &[8, 16], 8, false),
    // Big enough that an O(endpoints) sweep anywhere on the hot path would
    // blow the watchdog, small enough for CI.
    ("10k", &[8, 16, 10], 8, false),
    ("100k", &[64, 20, 20], 4, true),
    ("1M", &[64, 64, 62], 4, true),
];

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "scale",
    note: "scale campaign: hierarchical worlds 1k..1M endpoints, sharded engine (8 shards), \
           streaming workload, two cable flaps, workers {1,4}; events/sec figures are \
           wall-clock and only comparable on similar host hardware",
    watchdog_s: (300, 3600),
    on_expiry: None,
    workload: &[
        ("shards", SHARDS as u64),
        ("seed", SEED),
        ("windows", WINDOWS as u64),
        ("streams_per_window", STREAMS_PER_WINDOW as u64),
        ("msgs_per_stream", MSGS_PER_STREAM as u64),
        ("payload_len", PAYLOAD_LEN as u64),
        ("flap_a_down_ns", FLAP_A_NS.0),
        ("flap_a_up_ns", FLAP_A_NS.1),
        ("flap_b_down_ns", FLAP_B_NS.0),
        ("flap_b_up_ns", FLAP_B_NS.1),
        ("dense_msgs_per_stream", DENSE_MSGS as u64),
        ("dense_start_gap_ns", DENSE_START_GAP_NS),
    ],
    cells,
    gates: &[
        Gate {
            name: "overlay recompute >= 100x faster than the dense BFS",
            check: |cells| {
                let speedup = |c: &Record| c.rec("host").rec("seq").f64("speedup");
                let x: Vec<f64> = measured(cells, "recompute").map(speedup).collect();
                let ok = x.iter().all(|s| *s >= 100.0);
                (!x.is_empty()).then_some((ok, format!("{x:.0?}x")))
            },
        },
        Gate {
            name: "dense: delivered == expected",
            check: |cells| {
                let sim = measured(cells, "dense").next()?.rec("sim");
                let got = sim.u64("delivered");
                let want = sim.u64("endpoints") * u64::from(DENSE_MSGS);
                Some((got == want, format!("{got} of {want}")))
            },
        },
    ],
};

/// The cells whose key says they measure `what`.
fn measured<'a>(cells: &'a [Record], what: &'a str) -> impl Iterator<Item = &'a Record> {
    let is = move |c: &&Record| c.rec("key").str("measure") == what;
    cells.iter().filter(is)
}

fn cells() -> Vec<Cell> {
    let key = |s: &Scale, what: &str| Record::new().with("scale", s.0).with("measure", what);
    let mut out = Vec::new();
    for s in &SCALES {
        out.push(Cell::new(key(s, "world"), s.3, &[1, 4], move |w| run(s, w)));
    }
    // The dense row: every endpoint active at once.
    let s = &SCALES[2];
    out.push(Cell::new(key(s, "dense"), true, &[1, 4], move |w| {
        dense(s, w)
    }));
    // The headline acceptance number: implicit recompute vs dense BFS.
    for s in &SCALES[1..3] {
        out.push(Cell::new(key(s, "recompute"), s.3, &[0], move |_| {
            recompute_speedup(s)
        }));
    }
    out
}

fn topo(&(_, levels, eps, _): &Scale) -> Topology {
    Topology::hierarchical_hypercube(levels, eps).expect("valid hierarchy")
}

/// The first wired cluster-to-cluster neighbor out of `c`.
fn neighbor_of(t: &Topology, c: ClusterId) -> ClusterId {
    for port in 0..PORTS_PER_CLUSTER as u8 {
        if let Attachment::Cluster(peer) = t.attachment(PortRef { cluster: c, port }) {
            return peer.cluster;
        }
    }
    panic!("cluster {} has no cluster links", c.0);
}

/// The churn script: two cluster cables flap, in different groups, timed so
/// the overlay exists while streams are in flight. Pure function of the
/// topology, identical for every worker count. The first flap's own
/// cluster (cluster 0) is where the overlay monitor lives.
fn churn(t: &Topology) -> FaultSchedule {
    let probe = Fabric::new(t.clone(), NetConfig::paper_1988());
    let last = ClusterId(t.n_clusters() as u32 - 1);
    let flaps = [(ClusterId(0), FLAP_A_NS), (last, FLAP_B_NS)];
    let mut s = FaultSchedule::new(SEED);
    for (c, (down, up)) in flaps {
        for l in cable(&probe, (c.0, neighbor_of(t, c).0)) {
            s = s
                .link_down_at(l, SimTime::from_ns(down))
                .link_up_at(l, SimTime::from_ns(up));
        }
    }
    s
}

/// The `i`-th stream of window `k` on an `n`-endpoint world: a pure function
/// (one SplitMix64 step from a key) every shard evaluates identically.
/// Source and destination are always distinct nodes.
fn stream(n: u32, k: u32, i: u32) -> (NodeAddr, NodeAddr) {
    let h = SplitMix64::new(SEED ^ (u64::from(k) << 32) ^ u64::from(i)).next_u64();
    let src = (h % u64::from(n)) as u32;
    let step = (SplitMix64::new(h).next_u64() % u64::from(n - 1)) as u32 + 1;
    (NodeAddr(src), NodeAddr((src + step) % n))
}

/// The name the `i`-th stream of window `k` opens.
fn stream_name(k: u32, i: u32) -> String {
    format!("scale.{k}.{i}")
}

/// Each shard's generator host: its lowest address, `None` for a shard
/// that owns no endpoint.
fn generator_hosts(v: &VorxShardedSim, n: u32) -> Vec<Option<NodeAddr>> {
    let mut rep: Vec<Option<NodeAddr>> = vec![None; v.n_shards()];
    for a in (0..n).map(NodeAddr) {
        rep[v.shard_of(a)].get_or_insert(a);
    }
    rep
}

/// Every endpoint the workload names on an `n`-endpoint world: each
/// stream's two ends, each stream name's manager and its successor replica,
/// the generator hosts and the overlay monitor's node. No other endpoint
/// may own anything once the run is over.
fn named(v: &VorxShardedSim, n: u32) -> BTreeSet<NodeAddr> {
    let mut named: BTreeSet<NodeAddr> = generator_hosts(v, n).into_iter().flatten().collect();
    named.insert(NodeAddr(0));
    let w = v.world(0);
    for k in 0..WINDOWS {
        for i in 0..STREAMS_PER_WINDOW {
            let (src, dst) = stream(n, k, i);
            let name = stream_name(k, i);
            named.extend([src, dst, objmgr::manager_for(&w, &name)]);
            named.extend(objmgr::successor_for(&w, &name));
        }
    }
    named
}

/// Install one streaming generator per shard. `delivered` is bumped by every
/// reader per message; process completion itself is `run_all`'s oracle.
fn install_generators(v: &VorxShardedSim, n: u32, delivered: &Arc<AtomicU64>) {
    for (shard, rep) in generator_hosts(v, n).into_iter().enumerate() {
        let Some(rep) = rep else { continue };
        let delivered = Arc::clone(delivered);
        v.spawn_at(rep, format!("gen{shard}"), move |ctx: VCtx| {
            generator(&ctx, n, &delivered);
        });
    }
}

/// One shard's generator: at each window open, derive the window's streams
/// and spawn the halves this shard owns.
fn generator(ctx: &VCtx, n: u32, delivered: &Arc<AtomicU64>) {
    for k in 0..WINDOWS {
        if k > 0 {
            ctx.sleep(SimDuration::from_ns(WINDOW_NS));
        }
        ctx.with(|w, sch| {
            let me = w.shard.shard_id;
            for i in 0..STREAMS_PER_WINDOW {
                let (src, dst) = stream(n, k, i);
                if w.shard.owner(src) == me {
                    let name = stream_name(k, i);
                    sch.spawn(format!("n{}:w:{name}", src.0), move |ctx: VCtx| {
                        let ch = channel::open(&ctx, src, &name);
                        for _ in 0..MSGS_PER_STREAM {
                            ctx.sleep(SimDuration::from_ns(PACE_NS));
                            ch.write(&ctx, Payload::Synthetic(PAYLOAD_LEN))
                                .expect("scale writer failed");
                        }
                    });
                }
                if w.shard.owner(dst) == me {
                    let name = stream_name(k, i);
                    let del = Arc::clone(delivered);
                    sch.spawn(format!("n{}:r:{name}", dst.0), move |ctx: VCtx| {
                        let ch = channel::open(&ctx, dst, &name);
                        for _ in 0..MSGS_PER_STREAM {
                            ch.read(&ctx).expect("scale reader failed");
                            del.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            }
        });
    }
}

fn run(cfg: &Scale, workers: usize) -> Run {
    let t = topo(cfg);
    let (n, clusters) = (t.n_endpoints() as u32, t.n_clusters());
    let schedule = churn(&t);
    let built = Instant::now();
    let mut v = VorxBuilder::with_topology(t)
        .seed(SEED)
        .shards(SHARDS)
        // The partition-detection sweep is O(endpoints²) per link death;
        // at these scales the campaign relies on retransmission riding out
        // the short flaps instead.
        .calibration(Calibration {
            partition_detect_ns: u64::MAX,
            ..Calibration::paper_1988()
        })
        .faults(schedule)
        .build_sharded(workers);
    let build_s = built.elapsed().as_secs_f64();

    let delivered = Arc::new(AtomicU64::new(0));
    install_generators(&v, n, &delivered);

    // Overlay monitor: on the shard that owns the first churned edge,
    // sample the detour-overlay size while the cable is down. Reads only —
    // it cannot perturb the simulated outcome.
    let overlay_mid = Arc::new(AtomicU64::new(0));
    let om = Arc::clone(&overlay_mid);
    v.spawn_at(NodeAddr(0), "overlay-monitor", move |ctx: VCtx| {
        ctx.sleep(SimDuration::from_ns((FLAP_A_NS.0 + FLAP_A_NS.1) / 2));
        let len = ctx.with(|w, _| w.net.topology().overlay_len() as u64);
        om.fetch_max(len, Ordering::Relaxed);
    });

    let wall = Instant::now();
    let end = v.run_all();
    let wall_s = wall.elapsed().as_secs_f64();
    let trace = v.merged_trace().to_json();
    let events: u64 = v.stats().events_per_shard.iter().sum();

    let parts = invariants::inspect_shards(&v);
    let overlay_final = v.sum_over_shards(|w| w.net.topology().overlay_len() as u64);
    let delivered = delivered.load(Ordering::Relaxed);
    let overlay_mid = overlay_mid.load(Ordering::Relaxed);

    let mut violations = invariants::violations(&parts, 0);
    let named = named(&v, n);
    if (parts.iter().flat_map(|p| &p.busy)).any(|(a, _)| !named.contains(a)) {
        violations.push("unnamed-endpoint-owns-rows");
    }
    if delivered != EXPECTED_MESSAGES {
        violations.push("lost-messages");
    }
    if overlay_final != 0 {
        violations.push("heal-left-overlay"); // heal must clear the overlay
    }
    if overlay_mid == 0 {
        violations.push("overlay-never-exercised"); // flap installed no detours
    }
    let sim = Record::new()
        .with("endpoints", n)
        .with("clusters", clusters)
        .with("end_ns", end.as_ns())
        .with("delivered", delivered)
        .with("events", events)
        .and(rows_record(&parts))
        .with("overlay_mid_flap", overlay_mid)
        .with("overlay_final", overlay_final)
        .with(
            "materialized_links",
            v.sum_over_shards(|w| w.net.materialized_links() as u64),
        )
        .and(Totals::over_shards(&v).record());
    let host = Record::new()
        .with("build_s", build_s)
        .with("wall_s", wall_s)
        .with("events_per_sec", events as f64 / wall_s.max(1e-9));
    Run::new(sim, violations).host(host).trace(trace)
}

/// A seeded derangement of `0..n` (`n >= 2`): Sattolo's shuffle, which
/// makes one cycle through every index, so no `i` maps to itself.
fn derangement(n: u32) -> Vec<u32> {
    let mut to: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = SplitMix64::new(SEED ^ i as u64).next_u64() % i as u64;
        to.swap(i, j as usize);
    }
    to
}

/// This process's resident set, bytes (`VmRSS`); 0 where procfs has none.
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok());
    kib.unwrap_or(0) << 10
}

/// The dense row: every endpoint of `cfg`'s world writes one stream of
/// `DENSE_MSGS` messages to its image under [`derangement`] and reads the
/// one stream written to it, both ends from the stream's seeded start. Two
/// processes per endpoint exist from the first event, parked until their
/// start and then in their open, so what the world costs beyond its build is
/// theirs: the resident set it grows by, per process.
fn dense(cfg: &Scale, workers: usize) -> Run {
    let t = topo(cfg);
    let n = t.n_endpoints() as u32;
    let built = Instant::now();
    let mut v = VorxBuilder::with_topology(t)
        .seed(SEED)
        .shards(SHARDS)
        // Millions of CPU intervals; the sim record carries the outcome.
        .trace(false)
        .build_sharded(workers);
    let build_s = built.elapsed().as_secs_f64();
    let delivered = Arc::new(AtomicU64::new(0));
    let rss_before = rss_bytes();
    let spread = u64::from(n) * DENSE_START_GAP_NS;
    for (src, dst) in derangement(n).into_iter().enumerate() {
        let (src, dst) = (NodeAddr(src as u32), NodeAddr(dst));
        let start =
            SimDuration::from_ns(SplitMix64::new(!SEED ^ u64::from(src.0)).next_u64() % spread);
        let name = format!("dense.{}", src.0);
        let reader_name = name.clone();
        v.spawn_at(src, format!("n{}:w", src.0), move |ctx: VCtx| {
            ctx.sleep(start);
            let ch = channel::open(&ctx, src, &name);
            for _ in 0..DENSE_MSGS {
                ch.write(&ctx, Payload::Synthetic(PAYLOAD_LEN))
                    .expect("dense writer failed");
            }
        });
        let del = Arc::clone(&delivered);
        v.spawn_at(dst, format!("n{}:r", dst.0), move |ctx: VCtx| {
            ctx.sleep(start);
            let ch = channel::open(&ctx, dst, &reader_name);
            for _ in 0..DENSE_MSGS {
                ch.read(&ctx).expect("dense reader failed");
                del.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let processes = 2 * u64::from(n);
    let wall = Instant::now();
    let end = v.run_all();
    let wall_s = wall.elapsed().as_secs_f64();
    let rss_growth = rss_bytes().saturating_sub(rss_before);
    let events: u64 = v.stats().events_per_shard.iter().sum();
    let delivered = delivered.load(Ordering::Relaxed);
    let violations = invariants::check_shards(&v, 0);
    let sim = Record::new()
        .with("endpoints", n)
        .with("processes", processes)
        .with("delivered", delivered)
        .with("events", events)
        .with("end_ns", end.as_ns());
    let host = Record::new()
        .with("build_s", build_s)
        .with("wall_s", wall_s)
        .with("rss_growth_per_process_b", rss_growth / processes);
    Run::new(sim, violations).host(host)
}

/// Time `recompute` after a single edge death on the implicit hierarchical
/// representation against the dense all-destinations BFS it replaced.
fn recompute_speedup(cfg: &Scale) -> Run {
    let mut t = topo(cfg);
    let edge = PortRef {
        cluster: ClusterId(0),
        port: 0,
    };
    // Warm the overlay scratch, then take the median of 5 churn recomputes.
    t.set_edge_state(edge, false);
    t.recompute();
    t.set_edge_state(edge, true);
    t.recompute();
    let mut samples = Vec::new();
    for _ in 0..5 {
        t.set_edge_state(edge, false);
        let c = Instant::now();
        t.recompute();
        samples.push(c.elapsed().as_nanos() as u64);
        t.set_edge_state(edge, true);
        t.recompute();
    }
    samples.sort_unstable();
    let overlay_ns = samples[2].max(1);

    // The dense baseline, on the same churned topology, once.
    t.set_edge_state(edge, false);
    let mut table = Vec::new();
    let c = Instant::now();
    t.dense_bfs_into(&mut table);
    let dense_ns = c.elapsed().as_nanos() as u64;
    let host = Record::new()
        .with("overlay_ns", overlay_ns)
        .with("dense_bfs_ns", dense_ns)
        .with("speedup", dense_ns as f64 / overlay_ns as f64);
    Run::new(Record::new(), Vec::new()).host(host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_dense_pairing_is_a_seeded_derangement() {
        let to = derangement(1000);
        assert_eq!(to, derangement(1000), "must be pure");
        let mut seen = vec![false; 1000];
        for (i, &d) in to.iter().enumerate() {
            assert_ne!(i as u32, d, "no self-streams");
            assert!(!std::mem::replace(&mut seen[d as usize], true), "{d} twice");
        }
    }

    /// The dense row's workload, on the 1k world: every stream delivered.
    #[test]
    fn the_dense_row_delivers_every_message_at_1k() {
        let r = dense(&SCALES[0], 1);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.sim.u64("processes"), 2048);
        assert_eq!(r.sim.u64("delivered"), 1024 * u64::from(DENSE_MSGS));
    }

    #[test]
    fn streams_are_pure_and_distinct_endpoints() {
        for k in 0..WINDOWS {
            for i in 0..STREAMS_PER_WINDOW {
                let (a, b) = stream(1000, k, i);
                assert_eq!((a, b), stream(1000, k, i), "must be pure");
                assert_ne!(a, b, "no self-streams");
                assert!(a.0 < 1000 && b.0 < 1000);
            }
        }
    }
}
