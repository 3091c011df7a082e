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
//! {1, 2, 4, 8}; every config also runs on the plain sequential engine.
//!
//! Determinism is checked by the harness on each config's `simulation`
//! cells (tracing on): every worker count must report the same `sim` record
//! and a byte-identical merged trace. The sequential engine is a cell of its
//! own — its cross-cluster frames ride the full store-and-forward fabric,
//! while bridged frames use the static link-latency model, so its simulated
//! end time differs by design — and a gate holds the two engines to the
//! same delivered-frame count.
//!
//! Speed is the `wall-clock` cells' business (tracing off, median of
//! `REPEATS`): marked heavy, because a wall clock on a shared CI host
//! measures the neighbours, so `--smoke` neither takes nor gates it.
//! Parallel *wall-clock* speedup needs parallel hardware: `host_cpus` is
//! `std::thread::available_parallelism` — the CPUs this process may run on
//! (its affinity mask and cgroup quota), not the machine's core count — and
//! worker threads go wherever the host's scheduler puts them. The engine
//! never runs more workers than that (a 4-worker cell on a 2-CPU host runs
//! 2), which a gate holds on every host: w4 ≤ 1.1 × w1.
//! The ≥2.5× 4-worker scaling gate on the 70-node cell is evaluated only when
//! the host has ≥ 4 effective CPUs (a smaller host still validates
//! determinism, and that the sequential engine's hop-by-hop fabric costs at
//! most 3× the bridged path on one worker — no parallelism in either).
//!
//! Per wall-clock cell and worker count: the repeats and their min, upper
//! median and mean (`campaign::summary`), and the round and frontier-bump
//! counters (engine scheduling, so host-side: above one worker they vary
//! with thread timing); simulated: bridged messages and per-shard event
//! counts. A hung cell dumps every shard's frontier, the engine's `busy`
//! count and the mailbox depths before the watchdog aborts.

use std::sync::Mutex;
use std::time::Instant;

use desim::{host_cpus, lock, PdesMonitor};
use vorx::hpcnet::{NetConfig, NodeAddr, Payload, Topology};
use vorx::{channel, invariants, VCtx, VorxBuilder};

use crate::campaign::{find, summary, Campaign, Cell, Gate, Record, Run, Totals};

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

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "pdes",
    note: "PDES campaign: asynchronous conservative sharded engine (earliest-input-time sync, \
           per-link lookahead) vs the sequential engine on cross-cluster channel workloads; \
           wall-clock parallel speedup requires parallel host hardware (host_cpus = \
           std::thread::available_parallelism)",
    watchdog_s: (120, 540),
    on_expiry: Some(dump_on_expiry),
    workload: &[
        ("msgs_per_channel", MSGS as u64),
        ("bytes_per_message", MSG_BYTES as u64),
        ("fanout_clusters", FANOUT as u64),
        ("repeats", REPEATS as u64),
        ("seed", SEED),
    ],
    cells,
    gates: &[
        Gate {
            name: "both engines deliver the same frames",
            check: |cells| {
                // Frames delivered by every cell run on `engine`, in table order.
                let frames = |engine: &str| -> Vec<u64> {
                    let on = cells
                        .iter()
                        .filter(|c| c.rec("key").str("engine") == engine);
                    on.map(|c| c.rec("sim").u64("frames_delivered")).collect()
                };
                let (seq, sharded) = (frames("sequential"), frames("sharded"));
                Some((seq == sharded, format!("{seq:?} vs {sharded:?}")))
            },
        },
        // One worker, so no parallelism: this compares the two data paths.
        // The sequential engine forwards every cross-cluster frame hop by
        // hop through one ten-cluster fabric; the sharded engine bridges it
        // over the static link-latency model. The hop-by-hop path may cost
        // more, but not an arbitration rescan more (12.5x before the fabric
        // arbitrated from a worklist).
        Gate {
            name: "70 nodes: sequential <= 3x sharded at 1 worker",
            check: |cells| {
                let s = median_70(cells, "sequential", "seq")? / median_70(cells, "sharded", "w1")?;
                Some((s <= 3.0, format!("{s:.2}x")))
            },
        },
        // The engine runs at most one worker per effective CPU, so asking
        // for more workers than the host has cannot cost an oversubscribed
        // run: this holds on any host.
        Gate {
            name: "70 nodes: w4 <= 1.1x w1",
            check: |cells| {
                let r = median_70(cells, "sharded", "w4")? / median_70(cells, "sharded", "w1")?;
                Some((r <= 1.1, format!("{r:.2}x")))
            },
        },
        // Parallel *scaling* needs parallel hardware: below 4 effective CPUs
        // the gate is not evaluated at all, rather than passed with a
        // slowdown for its detail.
        Gate {
            name: "70 nodes: 4 workers >= 2.5x over 1 worker (hosts with >= 4 CPUs)",
            check: |cells| {
                let cpus = host_cpus();
                if cpus < 4 {
                    return None;
                }
                let s = median_70(cells, "sharded", "w1")? / median_70(cells, "sharded", "w4")?;
                Some((s >= 2.5, format!("{s:.2}x on {cpus} effective CPUs")))
            },
        },
    ],
};

/// Median wall clock of the 70-node cell of `engine` at worker label `w`.
fn median_70(cells: &[Record], engine: &str, w: &str) -> Option<f64> {
    let key = [
        ("nodes", 70u64.into()),
        ("engine", engine.into()),
        ("measure", "wall-clock".into()),
    ];
    let cell = find(cells, &key)?;
    Some(cell.rec("host").rec(w).f64("median_ns"))
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for timed in [false, true] {
        for (clusters, epc) in CONFIGS {
            for (engine, workers) in [("sequential", &[0][..]), ("sharded", &[1, 2, 4, 8][..])] {
                let key = Record::new()
                    .with("nodes", clusters * epc)
                    .with("clusters", clusters)
                    .with("endpoints_per_cluster", epc)
                    .with("engine", engine)
                    .with("measure", if timed { "wall-clock" } else { "simulation" });
                let run = move |w| run(clusters, epc, w, timed);
                out.push(Cell::new(key, timed, workers, run));
            }
        }
    }
    out
}

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

/// Where the active run parks its engine monitor, so a hung run dumps every
/// shard's frontier and mailbox depths before the abort (the
/// conservative-sync equivalent of a deadlock backtrace).
static MONITOR: Mutex<Option<PdesMonitor>> = Mutex::new(None);

fn dump_on_expiry() {
    if let Some(m) = lock(&MONITOR).as_ref() {
        eprintln!("engine state at expiry:\n{}", m.dump());
    }
}

/// One pass over the workload — `workers == 0` is the sequential engine —
/// and its wall clock, ns. The run's host record holds what the sharded
/// engine counted: rounds and frontier bumps.
fn pass(topo: &Topology, workers: usize, traced: bool) -> (u64, Run) {
    let b = VorxBuilder::with_topology(topo.clone())
        .seed(SEED)
        .trace(traced);
    if workers == 0 {
        let mut v = b.build();
        spawn_workload(topo, |_, name, f| {
            v.spawn(name, f);
        });
        let t0 = Instant::now();
        let end = v.run_all();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let w = v.world();
        let sim = Record::new().with("end_ns", end.as_ns());
        let run = Run::new(sim.and(Totals::of(&w).record()), invariants::check(&w, 0));
        return (wall_ns, run);
    }
    let mut v = b.build_sharded(workers);
    spawn_workload(topo, |node, name, f| {
        v.spawn_at(node, name, f);
    });
    *lock(&MONITOR) = Some(v.monitor());
    let t0 = Instant::now();
    let end = v.run_all();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    *lock(&MONITOR) = None;
    let st = v.stats().clone();
    let mut violations = invariants::check_shards(&v, 0);
    if st.msgs_bridged == 0 {
        violations.push("no-cross-shard-traffic");
    }
    if st.events_per_shard.contains(&0) {
        violations.push("idle-shard");
    }
    let sim = Record::new()
        .with("end_ns", end.as_ns())
        .with("msgs_bridged", st.msgs_bridged)
        .with("events_per_shard", st.events_per_shard.clone())
        .and(Totals::over_shards(&v).record());
    let host = Record::new()
        .with("rounds", st.rounds)
        .with("frontier_bumps", st.frontier_bumps);
    let run = Run::new(sim, violations).host(host);
    (
        wall_ns,
        if traced {
            run.trace(v.merged_trace().to_json())
        } else {
            run
        },
    )
}

/// A `simulation` cell is one traced pass; a `wall-clock` cell (`timed`) is
/// `REPEATS` untraced ones, which must all simulate the same run.
fn run(clusters: usize, epc: usize, workers: usize, timed: bool) -> Run {
    let topo = Topology::incomplete_hypercube(clusters, epc).expect("valid hypercube");
    let repeats = if timed { REPEATS } else { 1 };
    let mut passes: Vec<(u64, Run)> = (0..repeats).map(|_| pass(&topo, workers, !timed)).collect();
    let walls: Vec<u64> = passes.iter().map(|p| p.0).collect();
    // Engine counters are host-timing noise above one worker; keep the last
    // repeat's.
    let (_, mut run) = passes.pop().expect("at least one pass");
    if passes.iter().any(|(_, p)| p.sim != run.sim) {
        run.violations.push("repeat-determinism");
    }
    if run.sim.u64("frames_delivered") == 0 {
        run.violations.push("nothing-delivered");
    }
    let host = summary(&walls).with("wall_ns", walls);
    let lookahead = min_lookahead_ns(&topo).unwrap_or(0);
    Run {
        sim: run.sim.with("min_lookahead_ns", lookahead),
        host: host.and(run.host),
        ..run
    }
}

/// The floor of the config's per-pair lookahead matrix, ns, by
/// `VorxBuilder::build_sharded`'s formula: the fewest links any
/// cross-cluster frame crosses, each at least a header-only frame's latency.
/// `None` for one cluster, where nothing crosses a shard boundary.
fn min_lookahead_ns(topo: &Topology) -> Option<u64> {
    let unit_ns = NetConfig::paper_1988().header_link_latency_ns();
    topo.min_cross_cluster_links()
        .map(|links| links as u64 * unit_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookahead_matches_min_cross_cluster_path() {
        // Hypercube: adjacent clusters one hop apart, plus the two endpoint
        // links; a header-only frame pays 36 * 50 + 500 ns per link.
        let cube = Topology::incomplete_hypercube(10, 7).unwrap();
        assert_eq!(min_lookahead_ns(&cube), Some(3 * (36 * 50 + 500)));
        // Single cluster: nothing ever crosses a shard boundary.
        let one = Topology::single_cluster(4).unwrap();
        assert_eq!(min_lookahead_ns(&one), None);
    }
}
