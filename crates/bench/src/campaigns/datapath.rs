//! Windowed data-path report: sweep channel window size × message size ×
//! loss rate and measure goodput through the credit-based pipeline, plus
//! the zero-copy accounting (physical payload bytes copied). Only the
//! 4096-byte cells send messages longer than one HPC frame, so only they
//! gather fragments, each message into a buffer of its own.
//!
//! A 2-node cluster streams a fixed message count from node 0 to node 1.
//! `chan_window = 1` is the paper's §5 stop-and-wait protocol bit-for-bit;
//! larger windows enable the credit-based pipeline. The paper's Table 1
//! shows sliding-window transfer roughly doubling goodput over
//! stop-and-wait (164 µs vs 303 µs per 4-byte message); this report
//! reproduces that ordering inside the simulation, for channels.

use std::sync::{Arc, Mutex};

use desim::lock;
use vorx::hpcnet::{copymeter, NodeAddr};
use vorx::objmgr::ObjMgrMode;
use vorx::{channel, Calibration, VorxBuilder};

use super::paper::{TABLE1_PAPER, TABLE2_PAPER};
use crate::campaign::{
    find, index_of, lossy, msg_payload, stream_verdict, Campaign, Cell, Gate, Record, Run,
};

/// Messages per cell (enough to amortize rendezvous and reach steady state).
const MSGS: u32 = 64;

/// Paper Table 2: one 4-byte channel write cycle, stop-and-wait, 303 µs.
const PAPER_SW_4B_US: u64 = TABLE2_PAPER[0] as u64;
/// Paper Table 1: sliding-window UDCO asymptote for 4-byte messages with 64
/// buffers, 164 µs.
const PAPER_WIN_4B_US: u64 = TABLE1_PAPER[6][0] as u64;

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "datapath",
    note: "windowed channel data path: window x message size x loss sweep, writer n0 -> \
           reader n1; window 1 = paper stop-and-wait",
    watchdog_s: (120, 600),
    on_expiry: None,
    workload: &[
        ("messages_per_cell", MSGS as u64),
        ("paper_table2_stop_and_wait_4b_us", PAPER_SW_4B_US),
        ("paper_table1_sliding_window_4b_us", PAPER_WIN_4B_US),
    ],
    cells,
    gates: &[
        // The Table 1 ordering must reproduce, on a clean network.
        Gate {
            name: "windowed (W=8) goodput >= 2x stop-and-wait, 256 B, 0% loss",
            check: |cells| {
                let g = |w| Some(clean_256(cells, w)?.rec("sim").f64("goodput_kbps"));
                let (sw, win) = (g(1)?, g(8)?);
                let detail = format!("W=8 {win:.1} KB/s vs W=1 {sw:.1} KB/s ({:.2}x)", win / sw);
                Some((win >= 2.0 * sw, detail))
            },
        },
        // The only metered copies are the writer materializing each message
        // (`Payload::copy_from`); fabric forwarding, reassembly of
        // single-fragment messages, and read() move zero payload bytes.
        Gate {
            name: "zero payload bytes copied past construction (W=8, 256 B)",
            check: |cells| {
                let copied = clean_256(cells, 8)?.rec("sim").u64("payload_bytes_copied");
                let detail = format!("{copied} B copied for {MSGS} x 256 B constructed");
                Some((copied == u64::from(MSGS) * 256, detail))
            },
        },
    ],
};

/// The clean-network 256-byte cell at `window`.
fn clean_256(cells: &[Record], window: u64) -> Option<&Record> {
    let key = [
        ("window", window.into()),
        ("msg_bytes", 256u64.into()),
        ("loss", 0.0.into()),
    ];
    find(cells, &key)
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for window in [1u32, 2, 4, 8, 16, 32] {
        for size in [4usize, 256, 1024, 4096] {
            for loss in [0.0, 0.01, 0.05] {
                let seed = 0xDA7A ^ (u64::from(window) << 24) ^ ((size as u64) << 8);
                let key = Record::new().with("window", window).with("msg_bytes", size);
                let key = key.with("loss", loss).with("seed", seed);
                let run = move |_| run(window, size, loss, seed);
                out.push(Cell::new(key, false, &[0], run));
            }
        }
    }
    out
}

/// Stream `MSGS` messages of `msg_bytes` from node 0 to node 1 with the
/// given window, under `loss` on every link. Elapsed time runs from the
/// writer's first write to the reader's last delivery, so rendezvous cost
/// stays out of the per-message figure.
fn run(window: u32, msg_bytes: usize, loss: f64, seed: u64) -> Run {
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .calibration(Calibration::paper_1988_windowed(window))
        .trace(false)
        .faults(lossy(seed, loss))
        .build();

    copymeter::reset();
    let span = Arc::new(Mutex::new((0u64, 0u64)));
    let span_w = Arc::clone(&span);
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "dp");
        lock(&span_w).0 = ctx.now().as_ns();
        for i in 0..MSGS {
            ch.write(&ctx, msg_payload(i, msg_bytes.max(4))).unwrap();
        }
        ch.close(&ctx); // flushes the window in pipelined mode
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let span_r = Arc::clone(&span);
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "dp");
        for _ in 0..MSGS {
            lock(&sink).push(index_of(&ch.read(&ctx).unwrap()));
        }
        lock(&span_r).1 = ctx.now().as_ns();
    });
    let report = v.run();
    let (t0, t1) = *lock(&span);
    let elapsed_ns = t1.saturating_sub(t0);
    let w = v.world();
    let (sim, violations) = stream_verdict(&w, &report, &lock(&got), MSGS);
    let kbytes = (u64::from(MSGS) * msg_bytes as u64) as f64 / 1e3;
    let sim = sim
        .with("elapsed_ns", elapsed_ns)
        .with("per_msg_us", elapsed_ns as f64 / 1e3 / f64::from(MSGS))
        .with("goodput_kbps", kbytes / (elapsed_ns as f64 / 1e9))
        .with("payload_bytes_copied", copymeter::payload_bytes_copied());
    Run::new(sim, violations)
}
