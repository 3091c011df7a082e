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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vorx::collective::{self, CollMode, GroupCfg};
use vorx::hpcnet::combine::CombOp;
use vorx::hpcnet::{NodeAddr, Topology};
use vorx::{invariants, VorxBuilder};

use crate::campaign::{find, Campaign, Cell, Gate, Record, Run, Totals};

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

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "collective",
    note: "collective campaign: one group of <fanin> members, warm-up barrier then 4 timed \
           sum-allreduces; op_ns is the root's per-op simulated latency; software tree \
           radix 8; workers {1,4} traces compared per cell",
    watchdog_s: (600, 3600),
    on_expiry: None,
    workload: &[
        ("shards", SHARDS as u64),
        ("seed", SEED),
        ("timed_ops", OPS),
        ("tree_radix", RADIX as u64),
    ],
    cells,
    gates: &[
        Gate {
            name: "in-network >= 3x faster than the software tree at fan-in >= 512",
            check: |cells| {
                let mut detail = Vec::new();
                let mut ok = true;
                for c in cells.iter().filter(|c| c.rec("key").str("mode") == "innet") {
                    let (fanin, topo) = (c.rec("key").u64("fanin"), c.rec("key").str("topo"));
                    let key = [
                        ("fanin", fanin.into()),
                        ("topo", topo.into()),
                        ("mode", "tree".into()),
                    ];
                    let tree = find(cells, &key)?;
                    let s = tree.rec("sim").f64("op_ns") / c.rec("sim").f64("op_ns");
                    ok &= fanin < 512 || s >= 3.0;
                    detail.push(format!("{fanin} {topo} {s:.2}x"));
                }
                let detail = detail.join(", ");
                Some((ok, detail))
            },
        },
        // Sub-linear growth: 512x the members, < 20x the latency. The small
        // end is flat, the large end hierarchical — the only family that
        // reaches 4096 endpoints — so the gate also covers recursive
        // gateway combining.
        Gate {
            name: "in-network op at fan-in 4096 < 20x the op at fan-in 8",
            check: |cells| {
                let innet = |f: u64, topo: &str| {
                    let key = [
                        ("fanin", f.into()),
                        ("topo", topo.into()),
                        ("mode", "innet".into()),
                    ];
                    Some(find(cells, &key)?.rec("sim").u64("op_ns"))
                };
                let (small, large) = (innet(8, "flat")?, innet(4096, "hier")?);
                let detail = format!("{small} -> {large} ns over a 512x fan-in growth");
                Some((large < small * 20, detail))
            },
        },
    ],
};

/// A world with exactly `fanin` endpoints, 4 per cluster, of family `topo`.
fn build(topo: &str, fanin: usize) -> Option<Topology> {
    let t = match (topo, fanin) {
        // Beyond 512 endpoints a flat hypercube runs out of coupler ports
        // (dim 10 + 4 endpoints > the port budget) — scaling past it is
        // exactly what the hierarchical family is for.
        ("flat", f) if f > 512 => return None,
        ("flat", f) => Topology::incomplete_hypercube(f / 4, 4),
        // Gateway levels combine recursively: two levels at 64/512, three
        // at 4096.
        ("hier", 64) => Topology::hierarchical_hypercube(&[4, 4], 4),
        ("hier", 512) => Topology::hierarchical_hypercube(&[8, 16], 4),
        ("hier", 4096) => Topology::hierarchical_hypercube(&[8, 16, 8], 4),
        _ => return None, // below 64 "hierarchical" is flat
    };
    Some(t.expect("valid campaign topology"))
}

fn cells() -> Vec<Cell> {
    let modes = [
        (CollMode::InNetwork, "innet"),
        (CollMode::SoftwareTree { radix: RADIX }, "tree"),
    ];
    let mut out = Vec::new();
    for fanin in [8usize, 64, 512, 4096] {
        for topo in ["flat", "hier"] {
            if build(topo, fanin).is_none() {
                continue;
            }
            for (mode, mode_name) in modes {
                let key = Record::new().with("fanin", fanin).with("topo", topo);
                let run = move |workers| run(fanin, topo, mode, workers);
                out.push(Cell::new(key.with("mode", mode_name), false, &[1, 4], run));
            }
        }
    }
    out
}

fn run(fanin: usize, topo: &str, mode: CollMode, workers: usize) -> Run {
    let t = build(topo, fanin).expect("cell exists");
    assert_eq!(t.n_endpoints(), fanin, "topology/fan-in mismatch");
    let mut v = VorxBuilder::with_topology(t)
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
    let wall = Instant::now();
    let end = v.run_all();
    let wall_s = wall.elapsed().as_secs_f64();
    let totals = Totals::over_shards(&v);
    let ops_ns = ops_ns.load(Ordering::Relaxed);

    let mut violations = invariants::check_shards(&v, 0);
    if ops_ns == 0 {
        violations.push("root-never-timed");
    }
    if totals.faults.coll_retries != 0 {
        violations.push("fault-free-retry"); // nothing was lost: no retry timer may fire
    }
    let sim = Record::new()
        .with("op_ns", ops_ns / OPS)
        .with("end_ns", end.as_ns())
        .and(totals.record());
    Run::new(sim, violations)
        .host(Record::new().with("wall_s", wall_s))
        .trace(v.merged_trace().to_json())
}
