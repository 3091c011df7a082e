//! Collective campaign: in-network combining vs software reduction trees.
//!
//! DESIGN.md §16's headline claim is that a combining fabric turns an
//! allreduce from O(fan-in) unicasts convoying through the root into one
//! frame per upward link: latency grows with the *diameter* of the
//! combining tree (≈ log fan-in), not with the member count. This campaign
//! measures that claim instead of asserting it in prose.
//!
//! Sweep: fan-in {8, 64, 512, 4096} × {software-tree, in-network} ×
//! workers {1, 4}, on a flat incomplete hypercube and (fan-in ≥ 64) a
//! hierarchical one whose gateway levels combine recursively. Every member
//! of one collective group runs a warm-up barrier, then `OPS` timed
//! sum-allreduces; the root's per-op simulated latency is the cell's
//! figure. Per cell the merged traces of workers 1 and 4 must be
//! bit-identical — combining arbitration is a pure function of arrival
//! order, so the sharded engine may not perturb it.
//!
//! Gates (enforced here, not just reported):
//!   * fan-in ≥ 512: in-network latency ≥ 3× lower than the software tree;
//!   * in-network latency grows sub-linearly: the 4096-member op costs
//!     < 20× the 8-member op against a 512× fan-in growth;
//!   * worker trace identity at every cell.
//!
//! Writes `BENCH_collective.json` at the workspace root.
//!
//! Usage:
//!   collective_campaign           # full sweep + JSON
//!   collective_campaign --smoke   # fan-in 512 flat, both modes (CI)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use desim::affinity;
use vorx::collective::{self, CollMode, GroupCfg};
use vorx::hpcnet::combine::CombOp;
use vorx::hpcnet::{NodeAddr, Topology};
use vorx::{VorxBuilder, VorxShardedSim};
use vorx_bench::campaign::{with_watchdog, workspace_root};

/// Shard count, fixed per cell across worker counts (clamped to the
/// cluster count on the smallest worlds); the shard partition is part of
/// the simulated outcome, so holding it constant is what makes the
/// workers-{1,4} trace comparison meaningful.
const SHARDS: usize = 8;
/// Campaign seed.
const SEED: u64 = 0xC0117;
/// Collective group id under test.
const GROUP: u32 = 5;
/// Timed allreduces per run (after one warm-up barrier).
const OPS: u64 = 4;
/// Software-tree radix: wide and shallow, the strongest software baseline
/// at these fan-ins.
const RADIX: u32 = 8;

/// The two topology families of the sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Topo {
    Flat,
    Hier,
}

impl Topo {
    fn name(self) -> &'static str {
        match self {
            Topo::Flat => "flat",
            Topo::Hier => "hier",
        }
    }

    /// A world with exactly `fanin` endpoints, 4 per cluster.
    fn build(self, fanin: usize) -> Option<Topology> {
        let t = match (self, fanin) {
            // Beyond 512 endpoints a flat hypercube runs out of coupler
            // ports (dim 10 + 4 endpoints > the port budget) — scaling past
            // it is exactly what the hierarchical family is for.
            (Topo::Flat, f) if f > 512 => return None,
            (Topo::Flat, f) => Topology::incomplete_hypercube(f / 4, 4),
            // Gateway levels combine recursively: two levels at 64/512,
            // three at 4096.
            (Topo::Hier, 64) => Topology::hierarchical_hypercube(&[4, 4], 4),
            (Topo::Hier, 512) => Topology::hierarchical_hypercube(&[8, 16], 4),
            (Topo::Hier, 4096) => Topology::hierarchical_hypercube(&[8, 16, 8], 4),
            (Topo::Hier, _) => return None, // below 64 "hierarchical" is flat
        };
        Some(t.expect("valid campaign topology"))
    }
}

/// One `(fanin, topo, mode, workers)` run.
struct RunOutcome {
    /// Simulated ns for the `OPS` timed allreduces, measured at the root.
    ops_ns: u64,
    end_ns: u64,
    trace: String,
    wall_s: f64,
    coll_retries: u64,
}

fn run_once(fanin: usize, topo: Topo, mode: CollMode, workers: usize) -> RunOutcome {
    let t = topo.build(fanin).expect("cell exists");
    assert_eq!(t.n_endpoints(), fanin, "topology/fan-in mismatch");
    let v: VorxShardedSim = VorxBuilder::with_topology(t)
        .seed(SEED)
        .shards(SHARDS)
        .build_sharded(workers);
    collective::register_group_sharded(
        &v,
        &GroupCfg {
            group: GROUP,
            members: (0..fanin).map(|m| NodeAddr(m as u32)).collect(),
            mode,
        },
    );
    let ops_ns = Arc::new(AtomicU64::new(0));
    for m in 0..fanin {
        let ops_ns = Arc::clone(&ops_ns);
        v.spawn_at(NodeAddr(m as u32), format!("n{m}:coll"), move |ctx| {
            let node = NodeAddr(m as u32);
            let c = collective::attach(&ctx, node, GROUP);
            // Warm-up: absorb attach skew so the timed ops measure steady
            // state, not channel rendezvous.
            c.barrier(&ctx);
            let t0 = ctx.now();
            for i in 0..OPS {
                let r = c.allreduce(&ctx, CombOp::Sum, m as u64 + i);
                let n = fanin as u64;
                assert_eq!(r, n * (n - 1) / 2 + i * n, "wrong sum at member {m}");
            }
            if m == 0 {
                ops_ns.store((ctx.now() - t0).as_ns(), Ordering::Relaxed);
            }
        });
    }
    let mut v = v;
    let wall = Instant::now();
    let end = v.run_all();
    let wall_s = wall.elapsed().as_secs_f64();
    let coll_retries = v.sum_over_shards(|w| w.faults.stats.coll_retries);
    RunOutcome {
        ops_ns: ops_ns.load(Ordering::Relaxed),
        end_ns: end.as_ns(),
        trace: v.merged_trace().to_json(),
        wall_s,
        coll_retries,
    }
}

/// One campaign cell: a `(fanin, topo, mode)` point at workers 1 and 4.
struct Cell {
    fanin: usize,
    topo: Topo,
    mode_name: &'static str,
    /// Simulated latency of one allreduce, ns.
    op_ns: u64,
    end_ns: u64,
    trace_identical: bool,
    wall_s_w1: f64,
    wall_s_w4: f64,
    coll_retries: u64,
}

fn run_cell(fanin: usize, topo: Topo, mode: CollMode, mode_name: &'static str) -> Cell {
    let r1 = run_once(fanin, topo, mode, 1);
    let r4 = run_once(fanin, topo, mode, 4);
    assert!(r1.ops_ns > 0, "root never timed its ops");
    assert_eq!(
        r1.coll_retries,
        0,
        "fault-free {fanin}/{}/{mode_name}: retry timer fired",
        topo.name()
    );
    Cell {
        fanin,
        topo,
        mode_name,
        op_ns: r1.ops_ns / OPS,
        end_ns: r1.end_ns,
        trace_identical: r1.trace == r4.trace && r1.end_ns == r4.end_ns,
        wall_s_w1: r1.wall_s,
        wall_s_w4: r4.wall_s,
        coll_retries: r1.coll_retries,
    }
}

/// Hand-rolled JSON, same convention as the other BENCH_*.json reports.
fn to_json(host_cpus: usize, cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"collective campaign: one group of <fanin> members, warm-up barrier \
         then 4 timed sum-allreduces; op_ns is the root's per-op simulated latency; \
         software tree radix 8; workers {1,4} traces compared per cell\",\n",
    );
    out.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"fanin\": {}, \"topo\": \"{}\", \"mode\": \"{}\", \"op_ns\": {}, \
             \"end_ns\": {}, \"trace_identical_workers_1_4\": {}, \"wall_s_w1\": {:.3}, \
             \"wall_s_w4\": {:.3}, \"coll_retries\": {} }}{}\n",
            c.fanin,
            c.topo.name(),
            c.mode_name,
            c.op_ns,
            c.end_ns,
            c.trace_identical,
            c.wall_s_w1,
            c.wall_s_w4,
            c.coll_retries,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"speedups\": [\n");
    let pairs = speedups(cells);
    for (i, (fanin, topo, s)) in pairs.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"fanin\": {}, \"topo\": \"{}\", \"innet_speedup\": {:.2} }}{}\n",
            fanin,
            topo,
            s,
            if i + 1 == pairs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// software-tree op_ns / in-network op_ns, per `(fanin, topo)`.
fn speedups(cells: &[Cell]) -> Vec<(usize, &'static str, f64)> {
    let mut out = Vec::new();
    for c in cells.iter().filter(|c| c.mode_name == "innet") {
        if let Some(t) = cells
            .iter()
            .find(|t| t.mode_name == "tree" && t.fanin == c.fanin && t.topo == c.topo)
        {
            out.push((c.fanin, c.topo.name(), t.op_ns as f64 / c.op_ns as f64));
        }
    }
    out
}

fn print_cell(c: &Cell) {
    println!(
        "fan-in {:>4} {:>4} {:>5}: {:>10} ns/op, end {:.2} ms, retries {}, \
         wall {:.2}s/{:.2}s (w1/w4), workers-identical={}",
        c.fanin,
        c.topo.name(),
        c.mode_name,
        c.op_ns,
        c.end_ns as f64 / 1e6,
        c.coll_retries,
        c.wall_s_w1,
        c.wall_s_w4,
        c.trace_identical,
    );
}

/// The in-network-beats-software gate at one `(fanin, topo)` point.
fn assert_speedup(cells: &[Cell], fanin: usize, min: f64) {
    for (f, topo, s) in speedups(cells) {
        if f == fanin {
            assert!(
                s >= min,
                "fan-in {f} {topo}: in-network only {s:.2}x faster (gate: >= {min}x)"
            );
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let modes: [(CollMode, &'static str); 2] = [
        (CollMode::InNetwork, "innet"),
        (CollMode::SoftwareTree { radix: RADIX }, "tree"),
    ];

    if smoke {
        // One point past the gate threshold, flat only: big enough that the
        // O(fan-in) root convoy would be unmissable, small enough for CI.
        let cells: Vec<Cell> = with_watchdog("collective", 600, None, || {
            modes
                .iter()
                .map(|(m, name)| run_cell(512, Topo::Flat, *m, name))
                .collect()
        });
        for c in &cells {
            print_cell(c);
            assert!(
                c.trace_identical,
                "smoke: workers 1 vs 4 traces differ at fan-in 512 {}",
                c.mode_name
            );
        }
        assert_speedup(&cells, 512, 3.0);
        let (_, _, s) = speedups(&cells)[0];
        println!("collective-campaign smoke OK: traces bit-identical, in-network {s:.1}x");
        return;
    }

    let mut cells = Vec::new();
    for &fanin in &[8usize, 64, 512, 4096] {
        for topo in [Topo::Flat, Topo::Hier] {
            if topo.build(fanin).is_none() {
                continue;
            }
            for (m, name) in &modes {
                cells.push(with_watchdog("collective", 3600, None, || {
                    run_cell(fanin, topo, *m, name)
                }));
                print_cell(cells.last().expect("just pushed"));
            }
        }
    }

    let bad = cells.iter().filter(|c| !c.trace_identical).count();
    assert_eq!(bad, 0, "{bad} cells broke worker determinism");
    assert_speedup(&cells, 512, 3.0);
    assert_speedup(&cells, 4096, 3.0);
    // Sub-linear growth: 512x the members, < 20x the latency. The small
    // end is flat, the large end hierarchical — the only family that
    // reaches 4096 endpoints — so the gate also covers recursive gateway
    // combining.
    let innet = |f: usize, topo: Topo| {
        cells
            .iter()
            .find(|c| c.mode_name == "innet" && c.topo == topo && c.fanin == f)
            .expect("cell exists")
            .op_ns
    };
    let (small, large) = (innet(8, Topo::Flat), innet(4096, Topo::Hier));
    assert!(
        large < small * 20,
        "in-network latency grew {small} -> {large} ns over a 512x fan-in growth \
         — that is not ~log scaling"
    );

    let host_cpus = affinity::effective_parallelism();
    let root = workspace_root();
    let path = root.join("BENCH_collective.json");
    std::fs::write(&path, to_json(host_cpus, &cells)).expect("write BENCH_collective.json");
    println!("wrote {}", path.display());
}
