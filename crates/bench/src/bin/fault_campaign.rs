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
//! from a fixed seed, and writes `BENCH_faults.json` at the workspace root
//! (goodput, retransmits, duplicates suppressed, recovery latency).
//!
//! Usage:
//!   fault_campaign            # full sweep + BENCH_faults.json
//!   fault_campaign --smoke    # one faulted cell, assert it recovers (CI)

use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults, SimTime};
use parking_lot::Mutex;
use vorx::channel;
use vorx::hpcnet::{NodeAddr, Payload};
use vorx::objmgr::ObjMgrMode;
use vorx::{VorxBuilder, VorxError};
use vorx_bench::campaign::{index_of, msg_payload, workspace_root};
use vorx_bench::report::{render, Row};

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

/// One campaign cell's outcome.
struct CellResult {
    loss: f64,
    crashed: bool,
    seed: u64,
    completed: bool,
    delivered: u32,
    elapsed_ns: u64,
    goodput_kbps: f64,
    retransmits: u64,
    dups_suppressed: u64,
    corrupted_rx: u64,
    peer_down_events: u64,
    crashes: u64,
    restarts: u64,
    recovery_ns: Option<u64>,
    leaked_waiters: usize,
    /// Per-link injection counters, links with any activity only.
    link_faults: Vec<(u32, desim::LinkStats)>,
    /// Max port-link occupancy high-water mark (slots).
    depth_hwm: usize,
    /// Max per-switch sheddable-byte high-water mark.
    bytes_hwm: u64,
}

/// Run one cell: fixed seed, `loss` on every link, optionally one
/// crash/restart of the reader's node.
fn run_cell(loss: f64, crash: bool, seed: u64) -> CellResult {
    let mut schedule = FaultSchedule::new(seed);
    if loss > 0.0 {
        schedule = schedule.all_links(LinkFaults::loss(loss));
    }
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
                        let mut g = shared.lock();
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
    // A leaked waiter fails the cell; say which process it was.
    for (pid, name) in &report.parked {
        eprintln!("parked: {pid:?} {name}");
    }
    let elapsed_ns = report.now.as_ns();
    let leaked_waiters = report.parked.len();
    let (stats, link_faults, depth_hwm, bytes_hwm) = {
        let w = v.world();
        let link_faults: Vec<(u32, desim::LinkStats)> = w
            .link_fault_stats()
            .iter()
            .filter(|(_, s)| **s != desim::LinkStats::default())
            .map(|(l, s)| (*l, *s))
            .collect();
        (
            w.faults.stats.clone(),
            link_faults,
            w.net.max_port_link_depth_hwm(),
            w.net.max_cluster_data_bytes_hwm(),
        )
    };

    let g = progress.lock();
    let in_order = g
        .delivered
        .iter()
        .enumerate()
        .all(|(i, &got)| got == i as u32);
    let delivered = g.delivered.len() as u32;
    let completed = delivered == MSGS && in_order && leaked_waiters == 0;
    let secs = SimTime::from_ns(elapsed_ns).as_secs_f64();
    let goodput_kbps = if secs > 0.0 {
        (u64::from(delivered) * MSG_LEN as u64) as f64 / 1e3 / secs
    } else {
        0.0
    };
    CellResult {
        loss,
        crashed: crash,
        seed,
        completed,
        delivered,
        elapsed_ns,
        goodput_kbps,
        retransmits: stats.retransmits,
        dups_suppressed: stats.dups_suppressed,
        corrupted_rx: stats.corrupted_rx,
        peer_down_events: stats.peer_down_events,
        crashes: stats.crashes,
        restarts: stats.restarts,
        recovery_ns: g.recovery_ns,
        leaked_waiters,
        link_faults,
        depth_hwm,
        bytes_hwm,
    }
}

/// Render one cell's per-link injection counters as indented summary lines,
/// with the delivered-latency profile when the schedule recorded one.
fn print_link_faults(cell: &CellResult) {
    for (l, s) in &cell.link_faults {
        let lat = if s.lat_count > 0 {
            format!(
                " lat(ns) min/mean/max={}/{}/{} over {}",
                s.lat_min_ns,
                s.lat_mean_ns(),
                s.lat_max_ns,
                s.lat_count
            )
        } else {
            String::new()
        };
        println!(
            "  link {l}: dropped={} corrupted={} delayed={} down_drops={} downs={} flaps={}{lat}",
            s.dropped, s.corrupted, s.delayed, s.down_drops, s.downs, s.flaps
        );
    }
}

/// Emit the campaign as hand-rolled JSON (same convention as the other
/// BENCH_*.json reports: no serde dependency on the output path).
fn to_json(cells: &[CellResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"seeded fault campaign: writer n1 -> reader n2, \
         stop-and-wait channel with retransmit + failover\",\n",
    );
    out.push_str(&format!(
        "  \"workload\": {{ \"messages\": {MSGS}, \"bytes_per_message\": {MSG_LEN}, \
         \"nodes\": 4, \"crash_at_ns\": {CRASH_AT_NS}, \"restart_at_ns\": {RESTART_AT_NS} }},\n",
    ));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let recovery = c
            .recovery_ns
            .map(|n| n.to_string())
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "    {{ \"loss\": {:.2}, \"crashes\": {}, \"seed\": {}, \"completed\": {}, \
             \"delivered\": {}, \"elapsed_ns\": {}, \"goodput_kbps\": {:.1}, \
             \"retransmits\": {}, \"dups_suppressed\": {}, \"corrupted_rx\": {}, \
             \"peer_down_events\": {}, \"node_crashes\": {}, \"node_restarts\": {}, \
             \"recovery_latency_ns\": {}, \"leaked_waiters\": {} }}{}\n",
            c.loss,
            u32::from(c.crashed),
            c.seed,
            c.completed,
            c.delivered,
            c.elapsed_ns,
            c.goodput_kbps,
            c.retransmits,
            c.dups_suppressed,
            c.corrupted_rx,
            c.peer_down_events,
            c.crashes,
            c.restarts,
            recovery,
            c.leaked_waiters,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // CI gate: 5% loss plus one crash/restart, fixed seed. The workload
        // must complete exactly-once in order with nothing left parked.
        let c = run_cell(0.05, true, 0xFA05);
        assert_eq!(
            c.delivered, MSGS,
            "smoke: delivered {}/{MSGS} messages",
            c.delivered
        );
        assert!(c.completed, "smoke: stream did not complete in order");
        assert_eq!(c.leaked_waiters, 0, "smoke: leaked blocked waiters");
        assert_eq!((c.crashes, c.restarts), (1, 1), "smoke: fault plane idle");
        println!(
            "fault-campaign smoke OK: {}/{MSGS} delivered, {} retransmits, \
             {} dups suppressed, recovery {:.1} ms, 0 leaked waiters, \
             depth hwm {} slots / {} B",
            c.delivered,
            c.retransmits,
            c.dups_suppressed,
            c.recovery_ns.unwrap_or(0) as f64 / 1e6,
            c.depth_hwm,
            c.bytes_hwm,
        );
        print_link_faults(&c);
        return;
    }

    let losses = [0.0, 0.01, 0.05, 0.10];
    let mut cells = Vec::new();
    for (i, &loss) in losses.iter().enumerate() {
        for crash in [false, true] {
            let seed = 0xFA10 + (i as u64) * 2 + u64::from(crash);
            cells.push(run_cell(loss, crash, seed));
        }
    }

    let rows: Vec<Row> = cells
        .iter()
        .map(|c| {
            let label = format!(
                "loss {:>2.0}%{}",
                c.loss * 100.0,
                if c.crashed { " + crash" } else { "        " }
            );
            Row::new(label, None, c.goodput_kbps, "KB/s")
        })
        .collect();
    print!(
        "{}",
        render(
            &format!("fault campaign: {MSGS} x {MSG_LEN} B stream, writer n1 -> reader n2"),
            &rows,
        )
    );
    for c in &cells {
        println!(
            "loss {:>4.2} crash {}: completed={} retransmits={} dups={} peer_down={} \
             recovery={} depth_hwm={} bytes_hwm={}",
            c.loss,
            u32::from(c.crashed),
            c.completed,
            c.retransmits,
            c.dups_suppressed,
            c.peer_down_events,
            c.recovery_ns
                .map(|n| format!("{:.1}ms", n as f64 / 1e6))
                .unwrap_or_else(|| "-".into()),
            c.depth_hwm,
            c.bytes_hwm,
        );
        print_link_faults(c);
    }

    let incomplete = cells.iter().filter(|c| !c.completed).count();
    assert_eq!(
        incomplete, 0,
        "{incomplete} campaign cells failed to recover"
    );

    let root = workspace_root();
    let path = root.join("BENCH_faults.json");
    std::fs::write(&path, to_json(&cells)).expect("write BENCH_faults.json");
    println!("wrote {}", path.display());
}
