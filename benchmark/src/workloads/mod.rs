//! The six workloads, and what one rep of any of them reports.
//!
//! A rep builds a fresh world from seeded inputs, runs it to quiescence (or
//! to its simulated-time deadline), checks every output, and hands back a
//! [`RepOutcome`]. Nothing here times anything except through the
//! [`HostSpans`] the caller passes in.

pub mod coll;
pub mod fabric;
pub mod paper;
pub mod streams;

use std::collections::BTreeMap;
use std::sync::Arc;

use desim::{RunOutcome, SimTime};
use hpcnet::NodeAddr;
use vorx::{VCtx, VorxShardedSim, VorxSim};

use crate::host::CountingAlloc;
use crate::spans::{HostSpans, SimSpans};

/// The benchmark's workloads, in the order every report lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper70Sw,
    Paper70Win,
    Dense1kShard,
    FabricSat,
    Chaos70Sw,
    Coll512Mix,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Paper70Sw,
        Workload::Paper70Win,
        Workload::Dense1kShard,
        Workload::FabricSat,
        Workload::Chaos70Sw,
        Workload::Coll512Mix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper70Sw => "paper70_sw",
            Workload::Paper70Win => "paper70_win",
            Workload::Dense1kShard => "dense1k_shard",
            Workload::FabricSat => "fabric_sat",
            Workload::Chaos70Sw => "chaos70_sw",
            Workload::Coll512Mix => "coll512_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload is in the set (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Paper70Sw => "the paper's 70-node machine on stop-and-wait channels: process switches dominate, the world is tiny, the fabric is light",
            Workload::Paper70Win => "same world, streams and sizes on the credit-window channel path (W=8): the other way through channel.rs",
            Workload::Dense1kShard => "1024 endpoints all active on the 8-shard engine: shard sync, bridged frames, hierarchical routing, 2048 live processes",
            Workload::FabricSat => "hpcnet alone, injected above capacity with multicast: no desim, no vorx, no threads, so only fabric changes move it",
            Workload::Chaos70Sw => "paper70 under seeded loss, two cable cuts and a node crash+restart: the recovery paths of channel, kernel and fabric",
            Workload::Coll512Mix => "512-member allreduce, in-network combining then a radix-8 software tree: combine.rs against channel convoying",
        }
    }

    /// What one operation is, for the reports.
    pub fn op(self) -> &'static str {
        match self {
            Workload::FabricSat => "frame copy delivered",
            Workload::Coll512Mix => "member allreduce completed",
            _ => "message delivered to its reader",
        }
    }
}

/// How one rep is run.
#[derive(Debug, Clone)]
pub struct RepOptions {
    pub seed: u64,
    /// Work divisor: 1 is the benchmark's size, 20 the `--check` size.
    pub div: u32,
    /// Record simulated-time spans around the workload's calls into a layer.
    pub traced: bool,
    /// Build the world with `desim` tracing on (`VorxBuilder::trace(true)`).
    pub sim_trace: bool,
    /// Worker threads of the sharded engine.
    pub workers: usize,
    /// Set up and tear down only: build the world and spawn its processes,
    /// then drop it without running an event (an extra `setup_s` sample).
    pub dry: bool,
}

/// What one rep measured and checked. Times are the caller's, from the spans.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// Simulated completion time (summed over a workload's sub-runs).
    pub sim_end_ns: u64,
    pub ops_attempted: u64,
    pub ops_done: u64,
    /// Payload bytes of the operations done, headers and resends excluded.
    pub payload_bytes: u64,
    /// Per-operation simulated latency samples.
    pub latencies_ns: Vec<u64>,
    /// Exact per-layer counts, by metric name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Failed correctness checks; empty means the outputs are correct.
    pub errors: Vec<String>,
    /// Host-side costs of the run phase, counted exactly (not simulated, so
    /// not in the digest): payload bytes physically copied, heap allocations
    /// and the bytes they asked for, voluntary context switches.
    pub run_bytes_copied: u64,
    pub run_allocs: u64,
    pub run_alloc_bytes: u64,
    pub run_ctx_switches: u64,
}

impl RepOutcome {
    pub fn bump(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Hash of everything simulated: identical across reps of one seed, and
    /// across commits unless the model itself changed.
    pub fn sim_digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.sim_end_ns);
        eat(self.ops_done);
        eat(self.payload_bytes);
        for (name, v) in &self.counters {
            name.bytes().for_each(|b| eat(u64::from(b)));
            eat(*v);
        }
        let mut lat = self.latencies_ns.clone();
        lat.sort_unstable();
        lat.iter().for_each(|&x| eat(x));
        h
    }
}

/// Simulated-time watchdog: no workload needs a tenth of this, and a world
/// that is still busy then is retransmitting into a void (README, "found
/// while sizing"). Unfinished operations count as failed.
pub const SIM_DEADLINE: SimTime = SimTime::from_ns(120_000_000_000);

/// Run one rep of `w`.
pub fn run_rep(
    w: Workload,
    opts: &RepOptions,
    host: &mut HostSpans,
    sim_spans: &Arc<SimSpans>,
) -> RepOutcome {
    match w {
        Workload::FabricSat => fabric::run(opts, host),
        Workload::Coll512Mix => coll::run(opts, host, sim_spans),
        _ => streams::run(w, opts, host, sim_spans),
    }
}

/// The run phase: the span every host-time metric is taken over, and the
/// window in which payload copies, allocations and context switches are
/// counted.
pub fn timed_run<R>(
    host: &mut HostSpans,
    out: &mut RepOutcome,
    run: impl FnOnce(&mut HostSpans) -> R,
) -> R {
    host.enter("phase.run");
    let copied = hpcnet::copymeter::payload_bytes_copied();
    let switches = crate::host::voluntary_ctx_switches();
    let (allocs, bytes) = CountingAlloc::totals();
    CountingAlloc::count(true);
    let r = run(host);
    CountingAlloc::count(false);
    let (allocs_now, bytes_now) = CountingAlloc::totals();
    out.run_allocs += allocs_now - allocs;
    out.run_alloc_bytes += bytes_now - bytes;
    out.run_ctx_switches += crate::host::voluntary_ctx_switches() - switches;
    out.run_bytes_copied += hpcnet::copymeter::payload_bytes_copied() - copied;
    host.exit();
    r
}

/// A built VORX world on either engine, with the handful of operations the
/// workloads need from both.
pub enum Sim {
    Seq(VorxSim),
    Sharded(VorxShardedSim),
}

/// How a run ended.
pub struct RunEnd {
    pub end_ns: u64,
    /// Processes still parked at quiescence: each is a caller that never got
    /// its answer.
    pub parked: Vec<String>,
    pub deadline_hit: bool,
}

impl Sim {
    pub fn spawn_at<F>(&self, node: NodeAddr, name: String, f: F)
    where
        F: FnOnce(VCtx) + Send + 'static,
    {
        match self {
            Sim::Seq(v) => {
                v.spawn(name, f);
            }
            Sim::Sharded(v) => {
                v.spawn_at(node, name, f);
            }
        }
    }

    /// Run to quiescence. The sequential engine also stops at
    /// [`SIM_DEADLINE`]; the sharded engine has no public bounded run, so
    /// there only the parent's wall-clock limit applies.
    pub fn run(&mut self) -> RunEnd {
        match self {
            Sim::Seq(v) => match v.sim.run_until(SIM_DEADLINE) {
                RunOutcome::Idle(r) => RunEnd {
                    end_ns: r.now.as_ns(),
                    parked: r.parked.into_iter().map(|(_, n)| n).collect(),
                    deadline_hit: false,
                },
                RunOutcome::DeadlineReached => RunEnd {
                    end_ns: v.now().as_ns(),
                    parked: v
                        .sim
                        .parked_processes()
                        .into_iter()
                        .map(|(_, n)| n)
                        .collect(),
                    deadline_hit: true,
                },
            },
            Sim::Sharded(v) => {
                let reports = v.run();
                RunEnd {
                    end_ns: reports.iter().map(|r| r.now.as_ns()).max().unwrap_or(0),
                    parked: reports
                        .into_iter()
                        .flat_map(|r| r.parked.into_iter().map(|(_, n)| n))
                        .collect(),
                    deadline_hit: false,
                }
            }
        }
    }

    /// Sum a statistic over the world (sequential) or all shard worlds.
    pub fn sum(&self, f: impl Fn(&vorx::World) -> u64) -> u64 {
        match self {
            Sim::Seq(v) => f(&v.world()),
            Sim::Sharded(v) => v.sum_over_shards(f),
        }
    }

    /// Fold the public counters of every layer into `out`.
    pub fn collect_counters(&self, out: &mut RepOutcome) {
        match self {
            Sim::Seq(v) => out.bump("desim.events", v.sim.events_dispatched()),
            Sim::Sharded(v) => {
                let st = v.stats();
                out.bump("desim.events", st.events_per_shard.iter().sum());
                out.bump("desim.shard_rounds", st.rounds);
                out.bump("desim.shard_bridged", st.msgs_bridged);
                out.bump("desim.shard_frontier_bumps", st.frontier_bumps);
            }
        }
        type Pick = fn(&vorx::World) -> u64;
        let picks: [(&'static str, Pick); 12] = [
            ("vorx.retransmits", |w| w.faults.stats.retransmits),
            ("vorx.dups_suppressed", |w| w.faults.stats.dups_suppressed),
            ("vorx.busy_sent", |w| w.faults.stats.busy_sent),
            ("vorx.peer_down_events", |w| w.faults.stats.peer_down_events),
            ("vorx.table_rejects", |w| w.faults.stats.table_rejects),
            ("vorx.coll_retries", |w| w.faults.stats.coll_retries),
            ("hpcnet.frames_sent", |w| w.net.stats.frames_sent),
            ("hpcnet.frames_delivered", |w| w.net.stats.frames_delivered),
            ("hpcnet.frames_rerouted", |w| w.net.stats.frames_rerouted),
            ("hpcnet.frames_combined", |w| w.net.stats.frames_combined),
            ("hpcnet.frames_dropped", |w| w.net.stats.frames_dropped),
            ("hpcnet.payload_bytes", |w| {
                w.net.stats.payload_bytes_delivered
            }),
        ];
        for (name, pick) in picks {
            out.bump(name, self.sum(pick));
        }
    }

    /// Frames still inside any fabric: must be zero at quiescence.
    pub fn in_flight(&self) -> u64 {
        self.sum(|w| w.net.in_flight() as u64)
    }
}
