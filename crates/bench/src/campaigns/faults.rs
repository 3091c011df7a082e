//! Fault-injection campaign: drive a writer→reader stream through seeded
//! loss and a mid-run crash/restart, and report what the recovery
//! protocols cost.
//!
//! A 4-node cluster runs the object manager on node 0 (never faulted), a
//! writer on node 1 and a reader on node 2. The writer streams 50 × 256 B
//! messages, each carrying its index. The fault schedule crashes the
//! reader's node mid-stream and restarts it; the pair then fails over to a
//! generation-suffixed channel name (`stream.g1`) where the reader first
//! reports how far it got, so delivery is exactly-once end to end even
//! though the transport below is at-least-once.
//!
//! The sweep crosses loss ∈ {0, 1, 5, 10}% with {0, 1} crashes, every cell
//! from a fixed seed, plus the 5%-loss-and-a-crash cell at seed 0xFA05 that
//! has been CI's gate since the fault plane landed. Per cell: goodput,
//! retransmits, duplicates suppressed, recovery latency, per-link injection
//! counters.

use std::sync::{Arc, Mutex};

use desim::{lock, SimTime};
use vorx::hpcnet::{NodeAddr, Payload};
use vorx::objmgr::ObjMgrMode;
use vorx::{channel, VorxBuilder, VorxError};

use crate::campaign::{index_of, lossy, msg_payload, stream_verdict, Campaign, Cell, Record, Run};

/// Messages in the stream.
const MSGS: u32 = 50;
/// Payload bytes per message.
const MSG_LEN: usize = 256;
/// Node running the writer.
const WRITER: NodeAddr = NodeAddr(1);
/// Node running the reader (the one that crashes).
const READER: NodeAddr = NodeAddr(2);
/// When the reader's node crashes (mid-stream for this workload).
const CRASH_AT_NS: u64 = 5_000_000;
/// When it comes back up, cold.
const RESTART_AT_NS: u64 = 50_000_000;

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "faults",
    note: "seeded fault campaign: writer n1 -> reader n2, stop-and-wait channel with \
           retransmit + failover",
    watchdog_s: (120, 600),
    on_expiry: None,
    workload: &[
        ("messages", MSGS as u64),
        ("bytes_per_message", MSG_LEN as u64),
        ("nodes", 4),
        ("crash_at_ns", CRASH_AT_NS),
        ("restart_at_ns", RESTART_AT_NS),
    ],
    cells,
    gates: &[],
};

fn cells() -> Vec<Cell> {
    let mut rows = Vec::new();
    for (i, loss) in [0.0, 0.01, 0.05, 0.10].into_iter().enumerate() {
        for crash in [false, true] {
            rows.push((loss, crash, 0xFA10 + (i as u64) * 2 + u64::from(crash)));
        }
    }
    rows.push((0.05, true, 0xFA05));
    let cell = |(loss, crash, seed): (f64, bool, u64)| {
        let key = Record::new()
            .with("loss", loss)
            .with("crashes", u64::from(crash));
        Cell::new(key.with("seed", seed), false, &[0], move |_| {
            run(loss, crash, seed)
        })
    };
    rows.into_iter().map(cell).collect()
}

/// Channel name for one failover generation.
fn stream_name(generation: u32) -> String {
    format!("stream.g{generation}")
}

/// What the reader observed, shared with the harness.
#[derive(Default)]
struct Progress {
    /// Indices committed, in commit order.
    delivered: Vec<u32>,
    /// Crash-to-first-post-recovery-delivery latency.
    recovery_ns: Option<u64>,
}

/// Run one cell: fixed seed, `loss` on every link, optionally one
/// crash/restart of the reader's node.
fn run(loss: f64, crash: bool, seed: u64) -> Run {
    let mut schedule = lossy(seed, loss);
    if crash {
        schedule = schedule
            .down_at(READER.0, SimTime::from_ns(CRASH_AT_NS))
            .up_at(READER.0, SimTime::from_ns(RESTART_AT_NS));
    }
    let mut v = VorxBuilder::single_cluster(4)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .trace(false)
        .faults(schedule)
        .build();

    v.spawn("n1:writer", move |ctx| {
        let mut generation = 0u32;
        let mut idx = 0u32;
        let mut ch = channel::try_open(&ctx, WRITER, &stream_name(0)).expect("initial open");
        while idx < MSGS {
            match ch.write(&ctx, msg_payload(idx, MSG_LEN)) {
                Ok(()) => idx += 1,
                Err(_) => {
                    // Peer declared down: abandon this generation and
                    // rendezvous on the next. The reader reports its resume
                    // point first, which both rewinds past anything the
                    // crash swallowed and skips anything already committed.
                    ch.close(&ctx);
                    generation += 1;
                    ch = channel::try_open(&ctx, WRITER, &stream_name(generation))
                        .expect("failover open");
                    let resume = ch.read(&ctx).expect("resume index");
                    idx = index_of(&resume);
                }
            }
        }
        ch.close(&ctx);
    });

    let progress = Arc::new(Mutex::new(Progress::default()));
    let shared = Arc::clone(&progress);
    v.spawn("n2:reader", move |ctx| {
        let mut generation = 0u32;
        let mut expect = 0u32;
        'recover: loop {
            let ch = match channel::try_open(&ctx, READER, &stream_name(generation)) {
                Ok(ch) => ch,
                Err(_) => {
                    vorx::fault::wait_until_up(&ctx, READER);
                    generation += 1;
                    continue 'recover;
                }
            };
            if generation > 0
                && ch
                    .write(&ctx, Payload::copy_from(&expect.to_le_bytes()))
                    .is_err()
            {
                // Crashed again before the resume index got through.
                vorx::fault::wait_until_up(&ctx, READER);
                generation += 1;
                continue 'recover;
            }
            loop {
                match ch.read(&ctx) {
                    Ok(payload) => {
                        let i = index_of(&payload);
                        if i != expect {
                            continue; // app-level duplicate from the rewind
                        }
                        let mut g = lock(&shared);
                        if generation > 0 && g.recovery_ns.is_none() {
                            g.recovery_ns = Some(ctx.now().as_ns() - CRASH_AT_NS);
                        }
                        g.delivered.push(i);
                        drop(g);
                        expect += 1;
                        if expect == MSGS {
                            return;
                        }
                    }
                    Err(VorxError::NodeDown) => {
                        // Our own node crashed; wait out the outage and
                        // rendezvous on the next generation.
                        vorx::fault::wait_until_up(&ctx, READER);
                        generation += 1;
                        continue 'recover;
                    }
                    Err(_) => {
                        // Writer abandoned this generation.
                        generation += 1;
                        continue 'recover;
                    }
                }
            }
        }
    });

    let report = v.run();
    let g = lock(&progress);
    let (sim, mut violations) = stream_verdict(&v.world(), &report, &g.delivered, MSGS);
    if crash && (sim.u64("crashes"), sim.u64("restarts")) != (1, 1) {
        violations.push("fault-plane-idle");
    }
    let kbytes = (g.delivered.len() * MSG_LEN) as f64 / 1e3;
    let sim = sim
        .with("elapsed_ns", report.now.as_ns())
        .with("goodput_kbps", kbytes / report.now.as_secs_f64())
        .with("recovery_latency_ns", g.recovery_ns);
    Run::new(sim, violations)
}
