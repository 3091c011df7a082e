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
//! Per cell it records:
//!
//! * events/sec (engine activities dispatched / wall time),
//! * bytes/endpoint (per-shard memory accountant total / endpoints, max
//!   over shards) and the count of endpoints still at the idle baseline,
//! * route-overlay size: detour entries sampled mid-flap on the shard
//!   owning the churned edge, and the final size (must be 0 — heal is an
//!   overlay clear),
//! * merged-trace bit-identity between workers 1 and 4 at a fixed shard
//!   count — the determinism gate at every scale.
//!
//! Alongside the sweep it times `Topology::recompute` after a single edge
//! death against the pre-overlay dense all-destinations BFS
//! (`dense_bfs_into`) on the same churned topology and asserts the implicit
//! representation is ≥ 100× faster at the 100k point (10k in smoke).
//!
//! Writes `BENCH_scale.json` at the workspace root.
//!
//! Usage:
//!   scale_campaign            # full sweep {1k, 10k, 100k, 1M} + JSON
//!   scale_campaign --smoke    # 10k only, under a wall-clock watchdog (CI)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use desim::{FaultSchedule, SimDuration, SimTime};
use vorx::hpcnet::{
    Attachment, ClusterId, Fabric, NetConfig, NodeAddr, PortRef, Topology, PORTS_PER_CLUSTER,
};
use vorx::{accounting, Calibration, VCtx, VorxBuilder, VorxShardedSim};
use vorx_bench::campaign::{with_watchdog, workspace_root};
use vorx_bench::workload::StreamingWorkload;

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

/// One scale point of the sweep.
struct ScaleCfg {
    name: &'static str,
    levels: &'static [usize],
    eps: usize,
}

const SCALES: [ScaleCfg; 4] = [
    ScaleCfg {
        name: "1k",
        levels: &[8, 16],
        eps: 8,
    },
    ScaleCfg {
        name: "10k",
        levels: &[8, 16, 10],
        eps: 8,
    },
    ScaleCfg {
        name: "100k",
        levels: &[64, 20, 20],
        eps: 4,
    },
    ScaleCfg {
        name: "1M",
        levels: &[64, 64, 62],
        eps: 4,
    },
];

impl ScaleCfg {
    fn topo(&self) -> Topology {
        Topology::hierarchical_hypercube(self.levels, self.eps).expect("valid hierarchy")
    }

    /// The shared streaming workload: constant offered load at every scale
    /// — the scale axis is the *world*, and events/sec shows what the idle
    /// fraction costs.
    fn workload(&self) -> StreamingWorkload {
        StreamingWorkload {
            seed: SEED,
            windows: 4,
            streams_per_window: 16,
            msgs_per_stream: 4,
            window_ns: 1_000_000,
            pace_ns: 50_000,
            payload_len: 256,
        }
    }
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

/// Both directed link ids of the cable `a`–`b`, plus the clusters, from a
/// throwaway probe fabric (link ids are a function of the topology alone).
fn cable(f: &Fabric, a: ClusterId, b: ClusterId) -> [u32; 2] {
    [
        f.cluster_link(a, b).expect("wired").0,
        f.cluster_link(b, a).expect("wired").0,
    ]
}

/// The churn script: two cluster cables flap, in different groups, timed so
/// the overlay exists while streams are in flight. Pure function of the
/// topology, identical for every worker count.
struct Churn {
    schedule: FaultSchedule,
    /// A cluster whose routing tables the first flap rewrites (the dead
    /// edge's own cluster) — where the overlay monitor lives.
    watch: ClusterId,
}

fn churn(t: &Topology) -> Churn {
    let probe = Fabric::new(t.clone(), NetConfig::paper_1988());
    let a0 = ClusterId(0);
    let a1 = neighbor_of(t, a0);
    let b0 = ClusterId(t.n_clusters() as u32 - 1);
    let b1 = neighbor_of(t, b0);
    let mut s = FaultSchedule::new(SEED);
    for l in cable(&probe, a0, a1) {
        s = s
            .link_down_at(l, SimTime::from_ns(FLAP_A_NS.0))
            .link_up_at(l, SimTime::from_ns(FLAP_A_NS.1));
    }
    for l in cable(&probe, b0, b1) {
        s = s
            .link_down_at(l, SimTime::from_ns(FLAP_B_NS.0))
            .link_up_at(l, SimTime::from_ns(FLAP_B_NS.1));
    }
    Churn {
        schedule: s,
        watch: a0,
    }
}

/// Everything one `(scale, workers)` run produced.
struct RunOutcome {
    trace: String,
    end_ns: u64,
    wall_s: f64,
    events: u64,
    delivered: u64,
    bytes_per_endpoint: u64,
    mem_max_node: u64,
    idle_nodes: usize,
    overlay_mid_flap: u64,
    overlay_final: usize,
    rerouted: u64,
    flaps: u64,
}

fn run_once(cfg: &ScaleCfg, workers: usize, ch: &Churn) -> RunOutcome {
    let t = cfg.topo();
    let n = t.n_endpoints() as u32;
    let v: VorxShardedSim = VorxBuilder::with_topology(t)
        .seed(SEED)
        .shards(SHARDS)
        // The partition-detection sweep is O(endpoints²) per link death;
        // at these scales the campaign relies on retransmission riding out
        // the short flaps instead.
        .calibration(Calibration {
            partition_detect_ns: u64::MAX,
            ..Calibration::paper_1988()
        })
        .faults(ch.schedule.clone())
        .build_sharded(workers);
    let mut v = v;

    let delivered = Arc::new(AtomicU64::new(0));
    cfg.workload().install(&v, n, &delivered);

    // Overlay monitor: on the shard that owns the first churned edge,
    // sample the detour-overlay size while the cable is down. Reads only —
    // it cannot perturb the simulated outcome.
    let overlay_mid = Arc::new(AtomicU64::new(0));
    let om = Arc::clone(&overlay_mid);
    let watch_node = NodeAddr(ch.watch.0 * cfg.eps as u32);
    v.spawn_at(watch_node, "overlay-monitor", move |ctx: VCtx| {
        ctx.sleep(SimDuration::from_ns((FLAP_A_NS.0 + FLAP_A_NS.1) / 2));
        let len = ctx.with(|w, _| w.net.topology().overlay_len() as u64);
        om.fetch_max(len, Ordering::Relaxed);
    });

    let wall = Instant::now();
    let end = v.run_all();
    let wall_s = wall.elapsed().as_secs_f64();
    let trace = v.merged_trace().to_json();
    let events: u64 = v.stats().events_per_shard.iter().sum();

    let (mut bpe, mut mem_max, mut idle, mut overlay_final, mut rerouted) = (0, 0, 0usize, 0, 0);
    let mut flaps = 0u64;
    for k in 0..v.n_shards() {
        let w = v.world(k);
        let (mx, total, id) = accounting::world_mem_report(&w);
        // Each shard replicates the compact slot index; the honest
        // per-endpoint figure is each replica's own total over n.
        bpe = bpe.max(total / u64::from(n));
        mem_max = mem_max.max(mx);
        idle = idle.max(id);
        overlay_final = overlay_final.max(w.net.topology().overlay_len());
        rerouted += w.net.stats.frames_rerouted;
        flaps += w.link_fault_stats().values().map(|s| s.flaps).sum::<u64>();
    }
    RunOutcome {
        trace,
        end_ns: end.as_ns(),
        wall_s,
        events,
        delivered: delivered.load(Ordering::Relaxed),
        bytes_per_endpoint: bpe,
        mem_max_node: mem_max,
        idle_nodes: idle,
        overlay_mid_flap: overlay_mid.load(Ordering::Relaxed),
        overlay_final,
        rerouted,
        flaps,
    }
}

/// One campaign cell: the same scale at workers 1 and 4, traces compared.
struct CellResult {
    name: &'static str,
    endpoints: u32,
    clusters: usize,
    trace_identical: bool,
    run1: RunOutcome,
    run4_wall_s: f64,
    run4_events: u64,
}

fn run_cell(cfg: &ScaleCfg) -> CellResult {
    let t = cfg.topo();
    let (n, clusters) = (t.n_endpoints() as u32, t.n_clusters());
    let ch = churn(&t);
    drop(t);
    let r1 = run_once(cfg, 1, &ch);
    let r4 = run_once(cfg, 4, &ch);
    let expected = cfg.workload().expected_messages();
    assert_eq!(r1.delivered, expected, "{}: lost messages", cfg.name);
    assert_eq!(
        r1.overlay_final, 0,
        "{}: heal must clear the overlay",
        cfg.name
    );
    assert!(
        r1.overlay_mid_flap > 0,
        "{}: flap installed no detours — churn never exercised the overlay",
        cfg.name
    );
    CellResult {
        name: cfg.name,
        endpoints: n,
        clusters,
        trace_identical: r1.trace == r4.trace && r1.end_ns == r4.end_ns,
        run1: r1,
        run4_wall_s: r4.wall_s,
        run4_events: r4.events,
    }
}

/// Time `recompute` after a single edge death on the implicit hierarchical
/// representation against the dense all-destinations BFS it replaced.
/// Returns `(overlay_ns, dense_ns, speedup)`.
fn recompute_speedup(cfg: &ScaleCfg) -> (u64, u64, f64) {
    let mut t = cfg.topo();
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
    (overlay_ns, dense_ns, dense_ns as f64 / overlay_ns as f64)
}

/// Hand-rolled JSON, same convention as the other BENCH_*.json reports.
fn to_json(host_cpus: usize, cells: &[CellResult], speedup: &(u64, u64, f64)) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"scale campaign: hierarchical worlds 1k..1M endpoints, sharded engine \
         (8 shards), streaming workload, two cable flaps, workers {1,4}; events/sec figures \
         are wall-clock and only comparable on similar host hardware (host_cpus = effective \
         CPU affinity mask)\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!(
        "  \"recompute_100k\": {{ \"overlay_ns\": {}, \"dense_bfs_ns\": {}, \
         \"speedup\": {:.0} }},\n",
        speedup.0, speedup.1, speedup.2
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let r = &c.run1;
        out.push_str(&format!(
            "    {{ \"scale\": \"{}\", \"endpoints\": {}, \"clusters\": {}, \"shards\": {}, \
             \"end_ns\": {}, \"delivered\": {}, \"trace_identical_workers_1_4\": {}, \
             \"events\": {}, \"events_per_sec_w1\": {:.0}, \"events_per_sec_w4\": {:.0}, \
             \"bytes_per_endpoint\": {}, \"mem_max_node_bytes\": {}, \"idle_nodes\": {}, \
             \"overlay_mid_flap\": {}, \"overlay_final\": {}, \"frames_rerouted\": {} }}{}\n",
            c.name,
            c.endpoints,
            c.clusters,
            SHARDS,
            r.end_ns,
            r.delivered,
            c.trace_identical,
            r.events,
            r.events as f64 / r.wall_s.max(1e-9),
            c.run4_events as f64 / c.run4_wall_s.max(1e-9),
            r.bytes_per_endpoint,
            r.mem_max_node,
            r.idle_nodes,
            r.overlay_mid_flap,
            r.overlay_final,
            r.rerouted,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn print_cell(c: &CellResult) {
    let r = &c.run1;
    println!(
        "{:>4}: {:>9} endpoints / {:>6} clusters, end {:.2} ms, {} delivered, \
         {} events ({:.0}/s w1, {:.0}/s w4), {} B/endpoint, {} idle, \
         overlay mid/final {}/{}, rerouted {}, flaps {}, workers-identical={}",
        c.name,
        c.endpoints,
        c.clusters,
        r.end_ns as f64 / 1e6,
        r.delivered,
        r.events,
        r.events as f64 / r.wall_s.max(1e-9),
        c.run4_events as f64 / c.run4_wall_s.max(1e-9),
        r.bytes_per_endpoint,
        r.idle_nodes,
        r.overlay_mid_flap,
        r.overlay_final,
        r.rerouted,
        r.flaps,
        c.trace_identical,
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // The 10k point: big enough that an O(endpoints) sweep anywhere on
        // the hot path would blow the watchdog, small enough for CI.
        let cfg = &SCALES[1];
        let (cell, sp) = with_watchdog("scale", 300, None, || {
            (run_cell(cfg), recompute_speedup(cfg))
        });
        print_cell(&cell);
        println!(
            "recompute after churn: overlay {} ns vs dense BFS {} ns ({:.0}x)",
            sp.0, sp.1, sp.2
        );
        assert!(cell.trace_identical, "smoke: workers 1 vs 4 traces differ");
        assert!(
            sp.2 >= 100.0,
            "smoke: overlay recompute only {:.1}x faster than dense BFS",
            sp.2
        );
        println!(
            "scale-campaign smoke OK: traces bit-identical, recompute {:.0}x",
            sp.2
        );
        return;
    }

    let mut cells = Vec::new();
    for cfg in &SCALES {
        cells.push(with_watchdog("scale", 3600, None, || run_cell(cfg)));
        print_cell(cells.last().expect("just pushed"));
    }
    // The headline acceptance number: implicit recompute vs dense BFS at
    // the 100k point.
    let sp = recompute_speedup(&SCALES[2]);
    println!(
        "recompute after churn at 100k: overlay {} ns vs dense BFS {} ns ({:.0}x)",
        sp.0, sp.1, sp.2
    );
    assert!(
        sp.2 >= 100.0,
        "overlay recompute only {:.1}x faster than dense BFS at 100k",
        sp.2
    );
    let bad: usize = cells.iter().filter(|c| !c.trace_identical).count();
    assert_eq!(bad, 0, "{bad} scale points broke worker determinism");

    let host_cpus = desim::affinity::effective_parallelism();
    let root = workspace_root();
    let path = root.join("BENCH_scale.json");
    std::fs::write(&path, to_json(host_cpus, &cells, &sp)).expect("write BENCH_scale.json");
    println!("wrote {}", path.display());
}
