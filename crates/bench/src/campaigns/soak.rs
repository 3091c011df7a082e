//! Chaos-soak campaign: layer every fault class the simulator knows — loss,
//! corruption, crash/restart churn, link flaps, and scripted overload
//! (budget squeezes + traffic-amplification bursts) — over long sim-time
//! runs on the sharded engine, and hold the result against online
//! invariant oracles.
//!
//! The 4-cluster incomplete hypercube (4 endpoints per cluster) carries
//! eight paced streams (one intra-cluster and one cross-cluster per
//! cluster) plus a listener/client rendezvous, all under:
//!
//! * 2% loss and 1% corruption on every link,
//! * two spare-node crash/restart cycles,
//! * a cluster-cable flap,
//! * byte-budget squeezes to zero on two switches (restored mid-run), and
//! * a burst window that amplifies payload sizes, derived purely from sim
//!   time so replay stays deterministic.
//!
//! Oracles (checked online by the readers — `campaign::streams` — and at
//! quiescence over every shard — `vorx::invariants`):
//!
//! 1. per-stream exactly-once FIFO delivery,
//! 2. no stuck writers — every process runs to completion,
//! 3. every port-link depth high-water mark within its hardware cap, and
//!    every switch's sheddable-byte high-water mark within the budget,
//! 4. all switch buffers drained at idle,
//! 5. membership convergence: all nodes up, no partition marks, no
//!    in-flight probes,
//! 6. replica consistency: every hash-home server registration present on
//!    its successor replica,
//! 7. the memory accountant's idle nodes still at the O(1) baseline,
//!
//! and — across the whole campaign — workers 1 and 4 must produce
//! bit-identical merged traces. (Deep cross-cluster partitions are the
//! sequential `partition` campaign's job: bridged frames model no link
//! churn — DESIGN.md §12.)
//!
//! Three seeds at 48 messages per stream, plus the 20-message run of the
//! first seed that CI has gated on since the overload plane landed.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults, SimDuration, SimTime};
use vorx::hpcnet::{Fabric, NetConfig, Payload, Topology};
use vorx::{channel, invariants, VCtx, VorxBuilder, VorxShardedSim};

use crate::campaign::{cable, nodes_of, streams, Campaign, Cell, Record, Run, Totals};

/// Clusters in the campaign machine.
const CLUSTERS: u32 = 4;
/// Endpoints per cluster.
const PER_CLUSTER: u32 = 4;
/// Baseline per-switch sheddable-byte budget: finite (so the overload
/// plane is armed and the byte oracle has a bound) but far above what the
/// workload can buffer — only the scripted squeezes ever shed.
const BYTE_BUDGET: u64 = 64 * 1024;
/// Gap between stream writes.
const PACE_NS: u64 = 2_000_000;
/// Base payload bytes (amplified by burst windows).
const BASE_LEN: u32 = 96;
/// Burst window: payloads double while it is active.
const BURST_NS: (u64, u64) = (5_000_000, 20_000_000);
/// Squeeze window: clusters 0 and 2 drop to a zero byte budget here, so
/// every sheddable frame needing switch buffering inside it is shed.
const SQUEEZE_NS: (u64, u64) = (15_000_000, 40_000_000);

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "soak",
    note: "chaos soak: loss x corrupt x crash x flap x overload on a 4x4 incomplete \
           hypercube, sharded engine, workers {1,4}",
    watchdog_s: (180, 600),
    on_expiry: None,
    workload: &[
        ("clusters", CLUSTERS as u64),
        ("endpoints_per_cluster", PER_CLUSTER as u64),
        ("streams", 8),
        ("byte_budget", BYTE_BUDGET),
        ("base_len", BASE_LEN as u64),
        ("squeeze_from_ns", SQUEEZE_NS.0),
        ("squeeze_until_ns", SQUEEZE_NS.1),
        ("burst_from_ns", BURST_NS.0),
        ("burst_until_ns", BURST_NS.1),
    ],
    cells,
    gates: &[],
};

fn cells() -> Vec<Cell> {
    let rows = [(0x50AC, 48), (0x50AD, 48), (0x50AE, 48), (0x50AC, 20)];
    let cell = |(seed, msgs): (u64, u32)| {
        let key = Record::new()
            .with("seed", seed)
            .with("messages_per_stream", msgs);
        Cell::new(key, false, &[1, 4], move |workers| run(seed, msgs, workers))
    };
    rows.into_iter().map(cell).collect()
}

/// The fault script: every class layered on one seeded schedule. All of it
/// is a pure function of `(seed, sim time)` — nothing here can diverge
/// across worker counts.
fn soak_schedule(seed: u64, t: &Topology) -> FaultSchedule {
    let spare_a = *nodes_of(t, 0).last().expect("populated");
    let spare_c = *nodes_of(t, 2).last().expect("populated");
    let mut s = FaultSchedule::new(seed)
        .all_links(LinkFaults {
            drop: 0.02,
            corrupt: 0.01,
            delay: 0.0,
            delay_ns: 0,
        })
        // Crash/restart churn on process-free spares.
        .down_at(spare_a.0, SimTime::from_ns(20_000_000))
        .up_at(spare_a.0, SimTime::from_ns(45_000_000))
        .down_at(spare_c.0, SimTime::from_ns(30_000_000))
        .up_at(spare_c.0, SimTime::from_ns(55_000_000))
        // Overload: squeeze two switches to zero budget, then restore the
        // finite baseline; amplify offered load inside the burst window.
        .squeeze_at(0, SimTime::from_ns(SQUEEZE_NS.0), 0)
        .squeeze_at(0, SimTime::from_ns(SQUEEZE_NS.1), BYTE_BUDGET)
        .squeeze_at(2, SimTime::from_ns(SQUEEZE_NS.0), 0)
        .squeeze_at(2, SimTime::from_ns(SQUEEZE_NS.1), BYTE_BUDGET)
        .burst(
            SimTime::from_ns(BURST_NS.0),
            SimTime::from_ns(BURST_NS.1),
            2,
        );
    // A cluster-cable flap rides along.
    let probe = Fabric::new(t.clone(), NetConfig::paper_1988());
    for l in cable(&probe, (0, 1)) {
        s = s
            .link_down_at(l, SimTime::from_ns(10_000_000))
            .link_up_at(l, SimTime::from_ns(25_000_000));
    }
    s
}

/// Run the full soak once at `workers`, oracles evaluated at quiescence.
fn run(seed: u64, msgs: u32, workers: usize) -> Run {
    let t = Topology::incomplete_hypercube(CLUSTERS as usize, PER_CLUSTER as usize)
        .expect("valid machine");
    let mut v: VorxShardedSim = VorxBuilder::with_topology(t.clone())
        .seed(seed)
        .net_config(NetConfig {
            switch_byte_budget: BYTE_BUDGET,
            ..NetConfig::paper_1988()
        })
        .faults(soak_schedule(seed, &t))
        .build_sharded(workers);

    let mut pairs = Vec::new();
    for c in 0..CLUSTERS {
        let here = nodes_of(&t, c);
        let next = nodes_of(&t, (c + 1) % CLUSTERS);
        // Intra-cluster: rides through its own switch, so the squeezes on
        // clusters 0 and 2 shed it; recovery is retransmission.
        pairs.push((here[0], here[1], format!("soak.i{c}")));
        // Cross-cluster: exercises the shard bridge under the same churn.
        pairs.push((here[2], next[2], format!("soak.x{c}")));
    }
    let mut s = streams(&v, pairs, msgs, PACE_NS, BASE_LEN);
    // Listener/client rendezvous: server registrations flow through the
    // distributed manager and its successor replica (oracle 6), and the
    // connections ride the bounded listener backlog.
    let srv = nodes_of(&t, 1)[3];
    let cli = nodes_of(&t, 3)[3];
    let (del, d) = (Arc::clone(&s.delivered), Arc::clone(&s.done));
    v.spawn_at(srv, format!("n{}:server", srv.0), move |ctx: VCtx| {
        let lst = channel::listen(&ctx, srv, "soak.srv");
        for _ in 0..2 {
            let ch = lst.accept(&ctx);
            ch.read(&ctx).expect("server read");
            del.fetch_add(1, Ordering::Relaxed);
        }
        d.fetch_add(1, Ordering::Relaxed);
    });
    for k in 0..2u32 {
        let d = Arc::clone(&s.done);
        v.spawn_at(cli, format!("n{}:client{k}", cli.0), move |ctx: VCtx| {
            // Let the listener register before the first client open.
            ctx.sleep(SimDuration::from_ns(1_000_000 * u64::from(k + 1)));
            let ch = channel::open(&ctx, cli, "soak.srv");
            ch.write(&ctx, Payload::copy_from(b"soak"))
                .expect("client write");
            d.fetch_add(1, Ordering::Relaxed);
        });
    }
    s.expected_done += 1 + 2;

    let end = v.run_all();
    let trace = v.merged_trace().to_json();
    let parts = invariants::inspect_shards(&v);
    let totals = Totals::over_shards(&v);

    let mut violations = s.violations();
    // The two crash/restart spares plus all-idle bystanders must leave at
    // least the untouched endpoints at the O(1) baseline.
    violations.extend(invariants::violations(&parts, 2));
    // A soak that shed nothing and recovered nothing tested nothing.
    if totals.net.frames_shed == 0 {
        violations.push("no-shedding-exercised");
    }
    if totals.faults.retransmits == 0 {
        violations.push("no-recovery-exercised");
    }
    let sim = Record::new()
        .with("end_ns", end.as_ns())
        .with("delivered", s.delivered())
        .with(
            "shed_links",
            totals.links.values().filter(|l| l.shed > 0).count(),
        )
        .with("mem_max_node_bytes", parts.iter().map(|p| p.mem_max).max())
        .with(
            "mem_total_bytes",
            parts.iter().map(|p| p.mem_total).sum::<u64>(),
        )
        .with(
            "mem_idle_nodes",
            parts.iter().map(|p| p.mem_idle).sum::<usize>(),
        )
        .and(totals.record());
    Run::new(sim, violations).trace(trace)
}
