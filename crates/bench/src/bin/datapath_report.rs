//! Windowed data-path report: sweep channel window size × message size ×
//! loss rate and measure goodput through the credit-based pipeline, plus
//! the zero-copy accounting (physical payload bytes copied, buffer-pool
//! recycling).
//!
//! A 2-node cluster streams a fixed message count from node 0 to node 1.
//! `chan_window = 1` is the paper's §5 stop-and-wait protocol bit-for-bit;
//! larger windows enable the credit-based pipeline. The paper's Table 1
//! shows sliding-window transfer roughly doubling goodput over
//! stop-and-wait (164 µs vs 303 µs per 4-byte message); this report
//! reproduces that ordering inside the simulation, for channels.
//!
//! Writes `BENCH_datapath.json` at the workspace root.
//!
//! Usage:
//!   datapath_report           # full sweep + BENCH_datapath.json
//!   datapath_report --smoke   # one comparison, assert windowed >= 2x (CI)

use std::sync::Arc;

use desim::{FaultSchedule, LinkFaults};
use parking_lot::Mutex;
use vorx::channel;
use vorx::hpcnet::{copymeter, NodeAddr, Payload};
use vorx::objmgr::ObjMgrMode;
use vorx::{Calibration, VorxBuilder};
use vorx_bench::campaign::workspace_root;
use vorx_bench::report::{render, Row};

/// Messages per cell (enough to amortize rendezvous and reach steady state).
const MSGS: u32 = 64;

/// Paper Table 2: one 4-byte channel write cycle, stop-and-wait, ≈ 303 µs.
const PAPER_SW_4B_US: f64 = 303.0;
/// Paper Table 1: sliding-window UDCO asymptote for 4-byte messages with 64
/// buffers, ≈ 164 µs.
const PAPER_WIN_4B_US: f64 = 164.0;

/// One sweep cell's outcome.
struct Cell {
    window: u32,
    msg_bytes: usize,
    loss: f64,
    seed: u64,
    completed: bool,
    elapsed_ns: u64,
    per_msg_us: f64,
    goodput_kbps: f64,
    retransmits: u64,
    dups_suppressed: u64,
    payload_bytes_copied: u64,
    pool_hits: u64,
    pool_misses: u64,
    pool_recycled: u64,
    leaked: usize,
    /// Per-link injection counters, links with any activity only.
    link_faults: Vec<(u32, desim::LinkStats)>,
    /// Max port-link occupancy high-water mark (slots).
    depth_hwm: usize,
    /// Max per-switch sheddable-byte high-water mark.
    bytes_hwm: u64,
}

/// Stream `MSGS` messages of `msg_bytes` from node 0 to node 1 with the
/// given window, under `loss` on every link. Elapsed time runs from the
/// writer's first write to the reader's last delivery, so rendezvous cost
/// stays out of the per-message figure.
fn run_cell(window: u32, msg_bytes: usize, loss: f64, seed: u64) -> Cell {
    let mut schedule = FaultSchedule::new(seed);
    if loss > 0.0 {
        schedule = schedule.all_links(LinkFaults::loss(loss));
    }
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .calibration(Calibration::paper_1988_windowed(window))
        .trace(false)
        .faults(schedule)
        .build();

    copymeter::reset();
    let span = Arc::new(Mutex::new((0u64, 0u64)));
    let span_w = Arc::clone(&span);
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "dp");
        span_w.lock().0 = ctx.now().as_ns();
        for i in 0..MSGS {
            let mut buf = vec![0u8; msg_bytes.max(4)];
            buf[..4].copy_from_slice(&i.to_le_bytes());
            ch.write(&ctx, Payload::copy_from(&buf)).unwrap();
        }
        ch.close(&ctx); // flushes the window in pipelined mode
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let span_r = Arc::clone(&span);
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "dp");
        for _ in 0..MSGS {
            let p = ch.read(&ctx).unwrap();
            sink.lock().push(u32::from_le_bytes(
                p.bytes().unwrap()[..4].try_into().unwrap(),
            ));
        }
        span_r.lock().1 = ctx.now().as_ns();
    });
    let report = v.run();
    let leaked = report.parked.len();
    let (t0, t1) = *span.lock();
    let elapsed_ns = t1.saturating_sub(t0);
    let order = got.lock().clone();
    let completed = order == (0..MSGS).collect::<Vec<_>>() && leaked == 0 && elapsed_ns > 0;
    let w = v.world();
    let (pool_hits, pool_misses, pool_recycled) = w.payload_pool.stats();
    let link_faults: Vec<(u32, desim::LinkStats)> = w
        .link_fault_stats()
        .iter()
        .filter(|(_, s)| **s != desim::LinkStats::default())
        .map(|(l, s)| (*l, *s))
        .collect();
    let secs = elapsed_ns as f64 / 1e9;
    Cell {
        window,
        msg_bytes,
        loss,
        seed,
        completed,
        elapsed_ns,
        per_msg_us: elapsed_ns as f64 / 1e3 / f64::from(MSGS),
        goodput_kbps: if secs > 0.0 {
            (u64::from(MSGS) * msg_bytes as u64) as f64 / 1e3 / secs
        } else {
            0.0
        },
        retransmits: w.faults.stats.retransmits,
        dups_suppressed: w.faults.stats.dups_suppressed,
        payload_bytes_copied: copymeter::payload_bytes_copied(),
        pool_hits,
        pool_misses,
        pool_recycled,
        leaked,
        link_faults,
        depth_hwm: w.net.max_port_link_depth_hwm(),
        bytes_hwm: w.net.max_cluster_data_bytes_hwm(),
    }
}

/// Hand-rolled JSON, same convention as the other BENCH_*.json reports.
fn to_json(cells: &[Cell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"note\": \"windowed channel data path: window x message size x loss sweep, \
         writer n0 -> reader n1; window 1 = paper stop-and-wait\",\n",
    );
    out.push_str(&format!(
        "  \"paper\": {{ \"table2_stop_and_wait_4B_us\": {PAPER_SW_4B_US}, \
         \"table1_sliding_window_4B_us\": {PAPER_WIN_4B_US} }},\n"
    ));
    out.push_str(&format!("  \"messages_per_cell\": {MSGS},\n"));
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"window\": {}, \"msg_bytes\": {}, \"loss\": {:.2}, \"seed\": {}, \
             \"completed\": {}, \"elapsed_ns\": {}, \"per_msg_us\": {:.1}, \
             \"goodput_kbps\": {:.1}, \"retransmits\": {}, \"dups_suppressed\": {}, \
             \"payload_bytes_copied\": {}, \"pool_hits\": {}, \"pool_misses\": {}, \
             \"pool_recycled\": {}, \"leaked_waiters\": {} }}{}\n",
            c.window,
            c.msg_bytes,
            c.loss,
            c.seed,
            c.completed,
            c.elapsed_ns,
            c.per_msg_us,
            c.goodput_kbps,
            c.retransmits,
            c.dups_suppressed,
            c.payload_bytes_copied,
            c.pool_hits,
            c.pool_misses,
            c.pool_recycled,
            c.leaked,
            if i + 1 == cells.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        // CI gate: the acceptance ratio from the issue — windowed (W=8)
        // goodput at least 2x stop-and-wait for 256-byte messages on a
        // clean network — plus zero payload copies on the single-fragment
        // path.
        let sw = run_cell(1, 256, 0.0, 0xDA7A);
        let win = run_cell(8, 256, 0.0, 0xDA7A);
        assert!(sw.completed, "smoke: stop-and-wait cell failed");
        assert!(win.completed, "smoke: windowed cell failed");
        assert!(
            win.goodput_kbps >= 2.0 * sw.goodput_kbps,
            "smoke: windowed goodput {:.1} KB/s < 2x stop-and-wait {:.1} KB/s",
            win.goodput_kbps,
            sw.goodput_kbps
        );
        // The only metered copies are the writer materializing each message
        // (`Payload::copy_from`); fabric forwarding, reassembly of
        // single-fragment messages, and read() move zero payload bytes.
        let construction = u64::from(MSGS) * 256;
        assert_eq!(
            win.payload_bytes_copied, construction,
            "smoke: data path must copy zero payload bytes past construction"
        );
        println!(
            "datapath smoke OK: W=8 {:.1} KB/s vs W=1 {:.1} KB/s ({:.2}x), 0 payload bytes copied past construction",
            win.goodput_kbps,
            sw.goodput_kbps,
            win.goodput_kbps / sw.goodput_kbps
        );
        return;
    }

    let windows = [1u32, 2, 4, 8, 16, 32];
    let sizes = [4usize, 256, 1024, 4096];
    let losses = [0.0, 0.01, 0.05];
    let mut cells = Vec::new();
    for &window in &windows {
        for &size in &sizes {
            for &loss in &losses {
                let seed = 0xDA7A ^ (u64::from(window) << 24) ^ ((size as u64) << 8);
                cells.push(run_cell(window, size, loss, seed));
            }
        }
    }

    // Console summary: the 0%-loss column across windows, per size.
    for &size in &sizes {
        let rows: Vec<Row> = cells
            .iter()
            .filter(|c| c.msg_bytes == size && c.loss == 0.0)
            .map(|c| {
                let paper = if size == 4 && c.window == 1 {
                    Some(PAPER_SW_4B_US)
                } else if size == 4 && c.window == 32 {
                    Some(PAPER_WIN_4B_US)
                } else {
                    None
                };
                Row::new(
                    format!("window {:>2}", c.window),
                    paper,
                    c.per_msg_us,
                    "us/msg",
                )
            })
            .collect();
        print!(
            "{}",
            render(
                &format!("windowed channel data path: {size} B messages, 0% loss"),
                &rows,
            )
        );
    }

    // Per-link loss accounting for the heaviest lossy cells: what the fault
    // plane actually injected on each link, from `World::link_fault_stats`.
    println!("per-link fault accounting (5% loss, 256 B cells):");
    for c in cells
        .iter()
        .filter(|c| c.loss == 0.05 && c.msg_bytes == 256)
    {
        println!(
            "  window {:>2}: {} retransmits, {} dups suppressed, \
             depth hwm {} slots / {} B",
            c.window, c.retransmits, c.dups_suppressed, c.depth_hwm, c.bytes_hwm
        );
        for (l, s) in &c.link_faults {
            println!(
                "    link {l}: dropped={} corrupted={} delayed={}",
                s.dropped, s.corrupted, s.delayed
            );
        }
    }

    let incomplete = cells.iter().filter(|c| !c.completed).count();
    assert_eq!(incomplete, 0, "{incomplete} sweep cells failed");

    // The Table 1 ordering must reproduce: windowed >= 2x stop-and-wait
    // goodput at 0% loss for 256-byte messages.
    let g = |w: u32| {
        cells
            .iter()
            .find(|c| c.window == w && c.msg_bytes == 256 && c.loss == 0.0)
            .expect("cell present")
            .goodput_kbps
    };
    assert!(
        g(8) >= 2.0 * g(1),
        "windowed 256B goodput {:.1} < 2x stop-and-wait {:.1}",
        g(8),
        g(1)
    );

    let root = workspace_root();
    let path = root.join("BENCH_datapath.json");
    std::fs::write(&path, to_json(&cells)).expect("write BENCH_datapath.json");
    println!("wrote {}", path.display());
}
