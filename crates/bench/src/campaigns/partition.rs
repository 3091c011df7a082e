//! Partition-tolerance campaign: drive a cross-fabric stream through link
//! cuts — reroutable cuts, short blips, and full partitions with heal — and
//! report what the partition plane costs.
//!
//! The 4-cluster incomplete hypercube (2 endpoints per cluster) runs a
//! writer in cluster 0 streaming 40 × 128 B messages to a reader in
//! cluster 3. Three churn modes, each crossed with background loss:
//!
//! * `reroute` — cut the cable the baseline route uses and never heal it:
//!   the fabric detours over the surviving path; the application never
//!   notices.
//! * `blip`    — isolate cluster 0 entirely, heal before the detection
//!   sweep fires: plain retransmission rides through.
//! * `outage`  — isolate cluster 0 past the sweep: blocked calls fail with
//!   the typed `Partitioned` error, state pauses, and the heal resumes the
//!   same channel without reopening.
//!
//! Per cell: recovery latency, rerouted frames, failed writes, probe/sweep
//! counts, per-link fault stats. The outage cell under 2% loss is the one
//! CI has gated on since the partition plane landed: it must both declare
//! and heal, and show the typed write failure.

use std::sync::{Arc, Mutex};

use desim::{lock, SimDuration, SimTime};
use vorx::hpcnet::{Fabric, NetConfig, NodeAddr, Topology};
use vorx::{channel, VorxBuilder, VorxError};

use crate::campaign::{
    cable, index_of, lossy, msg_payload, nodes_of, stream_verdict, Campaign, Cell, Record, Run,
};

/// Messages in the stream.
const MSGS: u32 = 40;
/// Payload bytes per message.
const MSG_LEN: usize = 128;
/// Gap between writes, so cuts land mid-stream.
const PACE_NS: u64 = 1_000_000;
/// When the scripted cut fires.
const CUT_AT_NS: u64 = 10_000_000;

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "partition",
    note: "partition campaign: cluster-0 writer -> cluster-3 reader on an incomplete \
           4-hypercube under link churn",
    watchdog_s: (120, 600),
    on_expiry: None,
    workload: &[
        ("messages", MSGS as u64),
        ("bytes_per_message", MSG_LEN as u64),
        ("clusters", 4),
        ("endpoints_per_cluster", 2),
        ("cut_at_ns", CUT_AT_NS),
    ],
    cells,
    gates: &[],
};

/// The churn modes: `None` cuts the primary-path cable and never heals it
/// (the fabric reroutes); `Some(d)` isolates cluster 0 for `d` ns. The sweep
/// fires `partition_detect_ns` (250 ms) after the cut, so a shorter outage is
/// an undetected blip and a longer one a declared partition.
const CHURNS: [(&str, Option<u64>); 3] = [
    ("reroute", None),
    ("blip", Some(100_000_000)),
    ("outage", Some(400_000_000)),
];

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for (i, (mode, heal_delay_ns)) in CHURNS.into_iter().enumerate() {
        for (j, loss) in [0.0, 0.02].into_iter().enumerate() {
            let seed = 0x9A57 + (i as u64) * 2 + j as u64;
            let key = Record::new().with("mode", mode).with("loss", loss);
            let run = move |_| run(mode, heal_delay_ns, loss, seed);
            out.push(Cell::new(key.with("seed", seed), false, &[0], run));
        }
    }
    out
}

/// What the reader observed.
#[derive(Default)]
struct Progress {
    delivered: Vec<u32>,
    /// Cut-to-first-post-cut-delivery latency.
    recovery_ns: Option<u64>,
}

/// Opens can themselves land inside the outage (the request to the name's
/// home manager is lost or times out across the cut); both sides treat
/// that as transient, like the write path.
fn open_retrying(
    ctx: &desim::Ctx<vorx::world::World>,
    node: NodeAddr,
    name: &str,
) -> channel::ChannelHandle {
    let mut attempts = 0u32;
    loop {
        match channel::try_open(ctx, node, name) {
            Ok(ch) => return ch,
            Err(VorxError::Unreachable | VorxError::Partitioned) => {
                attempts += 1;
                assert!(attempts < 200, "open retried unboundedly");
                ctx.sleep(SimDuration::from_ns(20_000_000));
            }
            Err(e) => panic!("open: unexpected error {e:?}"),
        }
    }
}

/// Run one cell: fixed seed, `loss` on every link, one scripted churn.
fn run(mode: &str, heal_delay_ns: Option<u64>, loss: f64, seed: u64) -> Run {
    let topo = Topology::incomplete_hypercube(4, 2).expect("valid hypercube");
    let probe = Fabric::new(topo.clone(), NetConfig::paper_1988());
    let (src, dst) = (nodes_of(&topo, 0)[0], nodes_of(&topo, 3)[0]);
    let mut schedule = lossy(seed, loss);
    match heal_delay_ns {
        None => {
            let first_hop = topo.cluster_path(src, dst)[1].0;
            for l in cable(&probe, (0, first_hop)) {
                schedule = schedule.link_down_at(l, SimTime::from_ns(CUT_AT_NS));
            }
        }
        Some(delay) => {
            for l in [cable(&probe, (0, 1)), cable(&probe, (0, 2))].concat() {
                schedule = schedule
                    .link_down_at(l, SimTime::from_ns(CUT_AT_NS))
                    .link_up_at(l, SimTime::from_ns(CUT_AT_NS + delay));
            }
        }
    }
    let mut v = VorxBuilder::with_topology(topo)
        .trace(false)
        .faults(schedule)
        .build();

    let failed_writes = Arc::new(Mutex::new(0u32));
    let fw = Arc::clone(&failed_writes);
    v.spawn("writer", move |ctx| {
        let ch = open_retrying(&ctx, src, "part.stream");
        let mut idx = 0u32;
        while idx < MSGS {
            ctx.sleep(SimDuration::from_ns(PACE_NS));
            match ch.write(&ctx, msg_payload(idx, MSG_LEN)) {
                Ok(()) => idx += 1,
                Err(VorxError::Partitioned) => {
                    // Typed, bounded-time failure: count it, wait out the
                    // outage, retry the same message on the same handle.
                    *lock(&fw) += 1;
                    assert!(*lock(&fw) < 5_000, "writer stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("writer: unexpected error {e:?}"),
            }
        }
    });

    let progress = Arc::new(Mutex::new(Progress::default()));
    let shared = Arc::clone(&progress);
    v.spawn("reader", move |ctx| {
        let ch = open_retrying(&ctx, dst, "part.stream");
        let mut expect = 0u32;
        let mut stalls = 0u32;
        while expect < MSGS {
            match ch.read(&ctx) {
                Ok(payload) => {
                    let i = index_of(&payload);
                    if i != expect {
                        continue; // app-level duplicate from a write retry
                    }
                    let mut g = lock(&shared);
                    let now = ctx.now().as_ns();
                    if now > CUT_AT_NS && g.recovery_ns.is_none() {
                        g.recovery_ns = Some(now - CUT_AT_NS);
                    }
                    g.delivered.push(i);
                    drop(g);
                    expect += 1;
                }
                Err(VorxError::Partitioned) => {
                    stalls += 1;
                    assert!(stalls < 5_000, "reader stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(20_000_000));
                }
                Err(e) => panic!("reader: unexpected error {e:?}"),
            }
        }
    });

    let report = v.run();
    let g = lock(&progress);
    let (sim, mut violations) = stream_verdict(&v.world(), &report, &g.delivered, MSGS);
    let failed_writes = *lock(&failed_writes);
    if mode == "outage" {
        // A cut that outlasts the sweep must be declared, healed, and seen
        // by the writer as the typed error.
        if sim.u64("partitions") == 0 {
            violations.push("partition-never-declared");
        }
        if sim.u64("heals") == 0 {
            violations.push("partition-never-healed");
        }
        if failed_writes == 0 {
            violations.push("no-typed-write-failure");
        }
    }
    let sim = sim
        .with("elapsed_ns", report.now.as_ns())
        .with("failed_writes", failed_writes)
        .with("recovery_latency_ns", g.recovery_ns);
    Run::new(sim, violations)
}
