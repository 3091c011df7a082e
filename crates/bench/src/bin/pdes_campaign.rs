//! Sharded-engine (PDES) campaign: how the asynchronous conservative engine
//! (earliest-input-time sync, per-link lookahead) scales with worker
//! threads, against the sequential engine baseline, on cross-cluster
//! channel workloads.
//!
//! Every endpoint of every cluster writes a paced message stream to its
//! counterpart endpoints in the next `FANOUT` clusters (and reads the
//! symmetric streams), so each shard is both producing and consuming
//! cross-shard traffic continuously. Node counts sweep up to the paper's
//! 70-node machine (10 clusters × 7 endpoints); worker counts sweep
//! {1, 2, 4, 8}; every cell also runs on the plain sequential engine.
//!
//! Determinism is asserted inside the campaign: for a given config, every
//! engine and worker count must report identical simulated end times and
//! delivered-frame counts (the `tests/pdes.rs` suite additionally proves the
//! traces are byte-identical).
//!
//! Parallel *wall-clock* speedup needs parallel hardware: `host_cpus` is the
//! **effective** parallelism — the CPU affinity mask actually granted to
//! this process, not the machine's core count — and worker threads are
//! pinned to distinct allowed CPUs whenever the mask grants enough of them.
//! The ≥2.5× 4-worker scaling gate on the 70-node cell is enforced only when
//! the host has ≥ 4 effective CPUs (a single-CPU host still validates
//! determinism and the ≥2× advantage over the sequential engine).
//!
//! Writes `BENCH_pdes.json` at the workspace root: per-cell wall-clock
//! medians, round/bridge/frontier-bump counters, per-worker stall
//! histograms (idle-spin vs yielded wall time), per-shard event counts, and
//! the speedup ratios.
//!
//! Usage:
//!   pdes_campaign            # full sweep + BENCH_pdes.json
//!   pdes_campaign --smoke    # one small config, workers {1, 4, 8} with
//!                            # tracing on: bit-identical traces + liveness
//!                            # under a deadlock watchdog that dumps every
//!                            # shard's frontier and mailbox depths (CI)

use std::sync::{Arc, Mutex};
use std::time::Instant;

use desim::{affinity, PdesMonitor, PdesStats, WorkerStall};
use vorx::hpcnet::{Fabric, NetConfig, NodeAddr, Payload, Topology};
use vorx::{channel, VCtx, VorxBuilder};
use vorx_bench::campaign::{with_watchdog, workspace_root};
use vorx_bench::report::{render, Row};

/// Messages per channel.
const MSGS: u32 = 20;
/// Each node writes to its counterpart endpoint in the next `FANOUT`
/// clusters (and reads the symmetric streams coming the other way).
const FANOUT: usize = 3;
/// Payload bytes per message (synthetic: no host-side byte shuffling).
const MSG_BYTES: u32 = 64;
/// Wall-clock repeats per cell; the median is reported.
const REPEATS: usize = 3;
/// Workload seed (identical for every engine/worker cell, so the simulated
/// execution is identical and only the host wall-clock differs).
const SEED: u64 = 0x9DE5;

/// The configs swept: (clusters, endpoints per cluster).
const CONFIGS: [(usize, usize); 3] = [(4, 4), (6, 6), (10, 7)];
/// Worker counts swept on the sharded engine.
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Spawn the all-to-next-`FANOUT`-clusters workload through an arbitrary
/// spawner, so the identical spawn order runs on both engines.
fn spawn_workload(
    topo: &Topology,
    mut spawn: impl FnMut(NodeAddr, String, Box<dyn FnOnce(VCtx) + Send>),
) {
    let nc = topo.n_clusters();
    let mut clusters: Vec<Vec<NodeAddr>> = vec![Vec::new(); nc];
    for a in topo.endpoints() {
        clusters[topo.cluster_of(a).0 as usize].push(a);
    }
    let epc = clusters[0].len();
    for c in 0..nc {
        for (e, &wn) in clusters[c].iter().enumerate().take(epc) {
            for j in 1..=FANOUT.min(nc - 1) {
                let rn = clusters[(c + j) % nc][e];
                let name = format!("s{c}.{e}.{j}");
                let rname = name.clone();
                spawn(
                    wn,
                    format!("n{}:w{name}", wn.0),
                    Box::new(move |ctx| {
                        let ch = channel::open(&ctx, wn, &name);
                        for _ in 0..MSGS {
                            ch.write(&ctx, Payload::Synthetic(MSG_BYTES)).unwrap();
                        }
                    }),
                );
                spawn(
                    rn,
                    format!("n{}:r{rname}", rn.0),
                    Box::new(move |ctx| {
                        let ch = channel::open(&ctx, rn, &rname);
                        for _ in 0..MSGS {
                            ch.read(&ctx).unwrap();
                        }
                    }),
                );
            }
        }
    }
}

/// One measured cell.
struct Cell {
    /// 0 = sequential engine, otherwise sharded with this many workers.
    workers: usize,
    /// Whether the workers were pinned to distinct host CPUs.
    pinned: bool,
    /// Wall-clock per repeat, ns.
    wall_ns: Vec<u64>,
    /// Simulated end time, ns (must agree across every cell of a config).
    end_ns: u64,
    /// Frames delivered (must agree across every cell of a config).
    delivered: u64,
    /// Run segments executed across all shards (sharded cells only).
    rounds: u64,
    /// Cross-shard messages through the per-link mailboxes (sharded only).
    msgs_bridged: u64,
    /// Frontier advances published without local progress — the
    /// null-message traffic equivalent (sharded cells only).
    frontier_bumps: u64,
    /// Per-worker idle accounting from the last repeat (sharded only).
    worker_stalls: Vec<WorkerStall>,
    /// Events dispatched per shard (sharded cells only).
    events_per_shard: Vec<u64>,
}

fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// A slot the deadlock watchdog inspects on expiry: the active run parks its
/// engine monitor here, so a hung run dumps every shard's frontier and
/// mailbox depths before the abort.
type MonitorSlot = Arc<Mutex<Option<PdesMonitor>>>;

/// One wall-clock sample of the sequential engine.
fn run_sequential_once(clusters: usize, epc: usize) -> (u64, u64, u64) {
    let topo = Topology::incomplete_hypercube(clusters, epc).expect("valid hypercube");
    let mut v = VorxBuilder::with_topology(topo.clone())
        .seed(SEED)
        .trace(false)
        .build();
    spawn_workload(&topo, |_, name, f| {
        v.spawn(name, f);
    });
    let t0 = Instant::now();
    let end = v.run_all();
    let wall = t0.elapsed().as_nanos() as u64;
    let delivered = v.world().net.stats.frames_delivered;
    (wall, end.as_ns(), delivered)
}

/// One wall-clock sample of the sharded engine.
fn run_sharded_once(
    clusters: usize,
    epc: usize,
    workers: usize,
    pin: bool,
    slot: &MonitorSlot,
) -> (u64, u64, u64, PdesStats) {
    let topo = Topology::incomplete_hypercube(clusters, epc).expect("valid hypercube");
    let mut v = VorxBuilder::with_topology(topo.clone())
        .seed(SEED)
        .trace(false)
        .build_sharded(workers);
    v.pin_workers(pin);
    spawn_workload(&topo, |node, name, f| {
        v.spawn_at(node, name, f);
    });
    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(v.monitor());
    let t0 = Instant::now();
    let end = v.run_all();
    let wall = t0.elapsed().as_nanos() as u64;
    *slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
    let delivered = v.sum_over_shards(|w| w.net.stats.frames_delivered);
    (wall, end.as_ns(), delivered, v.stats().clone())
}

/// Run a cell `REPEATS` times; keep per-repeat wall clocks and the (stable)
/// simulated outcome.
fn run_cell(clusters: usize, epc: usize, workers: usize, slot: &MonitorSlot) -> Cell {
    // Pinning only helps when each worker can own a distinct CPU.
    let pin = workers > 1 && affinity::effective_parallelism() >= workers;
    let mut cell = Cell {
        workers,
        pinned: pin && workers > 0,
        wall_ns: Vec::new(),
        end_ns: 0,
        delivered: 0,
        rounds: 0,
        msgs_bridged: 0,
        frontier_bumps: 0,
        worker_stalls: Vec::new(),
        events_per_shard: Vec::new(),
    };
    for rep in 0..REPEATS {
        if workers == 0 {
            let (wall, end, delivered) = run_sequential_once(clusters, epc);
            cell.wall_ns.push(wall);
            cell.end_ns = end;
            cell.delivered = delivered;
        } else {
            let (wall, end, delivered, stats) = run_sharded_once(clusters, epc, workers, pin, slot);
            cell.wall_ns.push(wall);
            cell.end_ns = end;
            cell.delivered = delivered;
            if rep == 0 {
                cell.rounds = stats.rounds;
                cell.msgs_bridged = stats.msgs_bridged;
                cell.frontier_bumps = stats.frontier_bumps;
                cell.events_per_shard = stats.events_per_shard.clone();
            }
            // Stall accounting is host-timing noise; keep the last repeat.
            cell.worker_stalls = stats.worker_stalls.clone();
        }
    }
    cell
}

/// One config's cells: sequential baseline plus the worker sweep.
struct ConfigResult {
    clusters: usize,
    epc: usize,
    nodes: usize,
    /// Minimum per-pair lookahead of the config (ns) — the per-link matrix
    /// entries vary by cluster distance; this is their floor.
    min_lookahead_ns: u64,
    cells: Vec<Cell>,
}

impl ConfigResult {
    /// Median wall-clock of the cell with this worker count (0 = sequential).
    fn med(&self, workers: usize) -> u64 {
        let c = self
            .cells
            .iter()
            .find(|c| c.workers == workers)
            .expect("swept cell");
        median(&mut c.wall_ns.clone())
    }
}

fn run_config(clusters: usize, epc: usize, slot: &MonitorSlot) -> ConfigResult {
    let topo = Topology::incomplete_hypercube(clusters, epc).expect("valid hypercube");
    let nodes = topo.n_endpoints();
    let min_lookahead_ns = Fabric::new(topo, NetConfig::paper_1988())
        .lookahead_ns()
        .unwrap_or(0);
    let mut cells = vec![run_cell(clusters, epc, 0, slot)];
    for workers in WORKER_SWEEP {
        cells.push(run_cell(clusters, epc, workers, slot));
    }
    // Worker count must be semantically invisible: every sharded cell
    // reports the same simulated outcome. (The sequential engine is the
    // wall-clock baseline only — its cross-cluster frames ride the full
    // store-and-forward fabric, while bridged frames use the static
    // link-latency model, so its simulated end time differs by design.)
    for c in &cells[2..] {
        assert_eq!(
            (c.end_ns, c.delivered),
            (cells[1].end_ns, cells[1].delivered),
            "cell (workers={}) diverged from workers=1",
            c.workers
        );
    }
    assert_eq!(
        cells[0].delivered, cells[1].delivered,
        "engines must deliver the same frames"
    );
    assert!(cells[0].delivered > 0, "workload delivered nothing");
    ConfigResult {
        clusters,
        epc,
        nodes,
        min_lookahead_ns,
        cells,
    }
}

/// Emit the campaign as hand-rolled JSON (same convention as the other
/// BENCH_*.json reports: no serde dependency on the output path).
fn to_json(host_cpus: usize, configs: &[ConfigResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"PDES campaign: asynchronous conservative sharded engine \
         (earliest-input-time sync, per-link lookahead) vs the sequential engine on \
         cross-cluster channel workloads; wall-clock parallel speedup requires parallel \
         host hardware (host_cpus = effective CPU affinity mask)\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str(&format!(
        "  \"workload\": {{ \"msgs_per_channel\": {MSGS}, \"bytes_per_message\": {MSG_BYTES}, \
         \"fanout_clusters\": {FANOUT}, \"repeats\": {REPEATS}, \"seed\": {SEED} }},\n",
    ));
    out.push_str("  \"configs\": [\n");
    for (i, cfg) in configs.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"nodes\": {}, \"clusters\": {}, \"endpoints_per_cluster\": {}, \
             \"min_lookahead_ns\": {}, \"sim_end_ns_sequential\": {}, \"sim_end_ns_sharded\": {}, \
             \"frames_delivered\": {},\n",
            cfg.nodes,
            cfg.clusters,
            cfg.epc,
            cfg.min_lookahead_ns,
            cfg.cells[0].end_ns,
            cfg.cells[1].end_ns,
            cfg.cells[0].delivered,
        ));
        out.push_str("      \"cells\": [\n");
        for (j, c) in cfg.cells.iter().enumerate() {
            let walls = c
                .wall_ns
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            let events = c
                .events_per_shard
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            let stalls = c
                .worker_stalls
                .iter()
                .map(|s| {
                    format!(
                        "{{ \"spin_ns\": {}, \"yield_ns\": {}, \"stalls\": {}, \
                         \"yields\": {} }}",
                        s.spin_ns, s.yield_ns, s.stalls, s.yields
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let engine = if c.workers == 0 {
                "sequential".to_string()
            } else {
                format!("sharded-{}w", c.workers)
            };
            out.push_str(&format!(
                "        {{ \"engine\": \"{engine}\", \"workers\": {}, \"pinned\": {}, \
                 \"median_wall_ns\": {}, \"wall_ns\": [{walls}], \"rounds\": {}, \
                 \"msgs_bridged\": {}, \"frontier_bumps\": {}, \
                 \"worker_stalls\": [{stalls}], \
                 \"events_per_shard\": [{events}] }}{}\n",
                c.workers,
                c.pinned,
                median(&mut c.wall_ns.clone()),
                c.rounds,
                c.msgs_bridged,
                c.frontier_bumps,
                if j + 1 == cfg.cells.len() { "" } else { "," },
            ));
        }
        out.push_str("      ],\n");
        out.push_str(&format!(
            "      \"speedup_4w_vs_sequential\": {:.3}, \"speedup_4w_vs_1w\": {:.3}, \
             \"speedup_8w_vs_1w\": {:.3} }}{}\n",
            cfg.med(0) as f64 / cfg.med(4) as f64,
            cfg.med(1) as f64 / cfg.med(4) as f64,
            cfg.med(1) as f64 / cfg.med(8) as f64,
            if i + 1 == configs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The watchdog's expiry hook: dump the active engine's frontiers and
/// mailbox depths (the conservative-sync equivalent of a deadlock
/// backtrace).
fn dump_on_expiry(slot: &MonitorSlot) -> Option<Box<dyn FnOnce() + Send>> {
    let watch = Arc::clone(slot);
    Some(Box::new(move || {
        if let Some(m) = watch.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
            eprintln!("engine state at expiry:\n{}", m.dump());
        }
    }))
}

/// Smoke mode: the small config with tracing ON, workers {1, 4, 8} — the
/// simulated execution must be bit-identical, nothing may park, and the
/// sharded plumbing counters must be live. Fast enough for every CI run.
fn smoke() {
    let (clusters, epc) = CONFIGS[0];
    let slot: MonitorSlot = Arc::default();
    let run = |workers: usize| {
        let topo = Topology::incomplete_hypercube(clusters, epc).expect("valid hypercube");
        let mut v = VorxBuilder::with_topology(topo.clone())
            .seed(SEED)
            .build_sharded(workers);
        spawn_workload(&topo, |node, name, f| {
            v.spawn_at(node, name, f);
        });
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(v.monitor());
        let end = v.run_all();
        *slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
        let delivered = v.sum_over_shards(|w| w.net.stats.frames_delivered);
        let depth_hwm = (0..v.n_shards())
            .map(|k| v.world(k).net.max_port_link_depth_hwm())
            .max()
            .unwrap_or(0);
        let stats = v.stats().clone();
        (v.merged_trace().to_json(), end, delivered, stats, depth_hwm)
    };
    let ((t1, e1, d1, s1, h1), (t4, e4, d4, s4, h4), (t8, e8, d8, _s8, _h8)) =
        with_watchdog("pdes", 120, dump_on_expiry(&slot), || {
            (run(1), run(4), run(8))
        });
    assert_eq!(h1, h4, "smoke: queue-depth high-water marks diverged");
    assert_eq!(e1, e4, "smoke: end times diverged at 1 vs 4 workers");
    assert_eq!(e1, e8, "smoke: end times diverged at 1 vs 8 workers");
    assert_eq!(d1, d4, "smoke: deliveries diverged at 1 vs 4 workers");
    assert_eq!(d1, d8, "smoke: deliveries diverged at 1 vs 8 workers");
    assert_eq!(t1, t4, "smoke: traces diverged at 1 vs 4 workers");
    assert_eq!(t1, t8, "smoke: traces diverged at 1 vs 8 workers");
    assert!(d1 > 0, "smoke: nothing delivered");
    assert!(s1.msgs_bridged > 0, "smoke: no cross-shard traffic");
    assert!(
        s1.events_per_shard.iter().all(|&e| e > 0),
        "smoke: idle shard"
    );
    let spin_ms: f64 = s4
        .worker_stalls
        .iter()
        .map(|s| s.spin_ns as f64)
        .sum::<f64>()
        / 1e6;
    let yield_ms: f64 = s4
        .worker_stalls
        .iter()
        .map(|s| s.yield_ns as f64)
        .sum::<f64>()
        / 1e6;
    println!(
        "pdes-campaign smoke OK: {clusters}x{epc} nodes, {} frames delivered, \
         {} rounds, {} bridged, {} frontier bumps, depth hwm {} slots, trace \
         bit-identical at 1 vs 4 vs 8 workers (4w idle: {spin_ms:.2} ms spin, \
         {yield_ms:.2} ms yielded)",
        d1, s1.rounds, s1.msgs_bridged, s1.frontier_bumps, h1,
    );
    println!("  events per shard: {:?}", s1.events_per_shard);
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let host_cpus = affinity::effective_parallelism();
    let slot: MonitorSlot = Arc::default();
    let configs: Vec<ConfigResult> = with_watchdog("pdes", 540, dump_on_expiry(&slot), || {
        CONFIGS
            .iter()
            .map(|&(c, e)| run_config(c, e, &slot))
            .collect()
    });

    let mut rows = Vec::new();
    for cfg in &configs {
        let seq_med = cfg.med(0);
        for c in &cfg.cells {
            let med = median(&mut c.wall_ns.clone());
            let label = if c.workers == 0 {
                format!("{:>2} nodes sequential", cfg.nodes)
            } else {
                format!(
                    "{:>2} nodes {}w ({:.2}x)",
                    cfg.nodes,
                    c.workers,
                    seq_med as f64 / med as f64
                )
            };
            rows.push(Row::new(label, None, med as f64 / 1e6, "ms wall"));
        }
    }
    print!(
        "{}",
        render(
            &format!(
                "pdes campaign: {MSGS} x {MSG_BYTES} B per channel, fanout {FANOUT} clusters, \
                 host CPUs {host_cpus}"
            ),
            &rows,
        )
    );
    for cfg in &configs {
        for c in cfg.cells.iter().filter(|c| c.workers > 0) {
            let idle_ms: f64 = c
                .worker_stalls
                .iter()
                .map(|s| (s.spin_ns + s.yield_ns) as f64)
                .sum::<f64>()
                / 1e6;
            println!(
                "{:>2} nodes, {} workers{}: {} rounds, {} bridged, {} bumps, \
                 idle {:.2} ms, events/shard {:?}",
                cfg.nodes,
                c.workers,
                if c.pinned { " (pinned)" } else { "" },
                c.rounds,
                c.msgs_bridged,
                c.frontier_bumps,
                idle_ms,
                c.events_per_shard,
            );
        }
    }

    let root = workspace_root();
    let path = root.join("BENCH_pdes.json");
    std::fs::write(&path, to_json(host_cpus, &configs)).expect("write BENCH_pdes.json");
    println!("wrote {}", path.display());

    // The ≥2× gate on the 70-node cell: the sharded engine at 4 workers
    // against the sequential engine it replaces. The bridged data path wins
    // even single-threaded (bridged frames skip the per-hop
    // store-and-forward event cascade), so this holds on any host.
    let big = configs.last().expect("nonempty sweep");
    let speedup = big.med(0) as f64 / big.med(4) as f64;
    assert!(
        speedup >= 2.0,
        "70-node cell: 4 workers ran only {speedup:.2}x faster than the sequential engine"
    );
    println!("70-node speedup, 4 workers vs sequential engine: {speedup:.2}x (gate: >= 2x)");
    // Parallel *scaling* (4 workers vs 1) additionally needs parallel
    // hardware; record it, and only enforce it where it can exist.
    let scaling = big.med(1) as f64 / big.med(4) as f64;
    if host_cpus >= 4 {
        assert!(
            scaling >= 2.5,
            "70-node cell: asynchronous sync must scale — 4 workers only \
             {scaling:.2}x over 1 on a {host_cpus}-CPU host (gate: >= 2.5x)"
        );
        println!("70-node scaling, 4 workers vs 1: {scaling:.2}x (gate: >= 2.5x)");
    } else {
        println!(
            "70-node scaling, 4 workers vs 1: {scaling:.2}x — host has {host_cpus} \
             effective CPU(s), parallel scaling not enforced"
        );
    }
}
