//! Paper campaign: the paper's own numbers as one cell table.
//!
//! *The Evolution of HPC/VORX* (PPoPP 1990) carries two tables, one figure
//! and a dozen in-text measurements. Each of them is a cell here — key
//! `{claim, row}`, `claim` being the experiment id of DESIGN.md §4 — run on
//! the simulated 1988 machine under `Calibration::paper_1988()`:
//!
//! * the 39 figures the paper prints (Table 1 × 28, Table 2 × 4, 1027 kB/s,
//!   12 s and 2 s, 3.2 MB/s and 30 fps, 60 µs, 80 µs) carry `sim = {unit,
//!   paper, ours, err_pct}`; `err_pct` is signed, negative where we are
//!   faster than the 1988 machine;
//! * the sweeps it describes only in words (S/NET recovery, open scaling,
//!   the FFT redistribution, …) carry `{unit, ours, …}`: `ours` is the row's
//!   headline, the rest what the same run also observed;
//! * the gates are the sentences of the paper those sweeps exist to check,
//!   each named after the claims it covers (`T1+T2: …` covers both tables).
//!
//! Every cell is light — the whole table runs in under a second — so
//! `campaign --smoke` compares all of it with the committed
//! `BENCH_paper.json`, and a PR that moves a reproduced number fails naming
//! claim, row and field. EXPERIMENTS.md's paper half is that report printed
//! as a table (`tests/campaign.rs` keeps the two equal).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use desim::rng::SmallRng;
use desim::{lock, SimDuration, SimTime};
use snet::{SnetSim, Strategy};
use vorx::alloc::UserId;
use vorx::api::{compute_ns, user_compute};
use vorx::cpu::CpuCat;
use vorx::hpcnet::driver::StandaloneNet;
use vorx::hpcnet::{Fabric, Frame, NetConfig, NodeAddr, Payload, Topology, PORTS_PER_CLUSTER};
use vorx::objmgr::ObjMgrMode;
use vorx::protocols::sliding_window::{self, SwParams};
use vorx::udco::{self, UdcoMode};
use vorx::{channel, sched, Calibration, VCtx, VorxBuilder};
use vorx_apps::bitmap::{run_bitmap, BitmapParams};
use vorx_apps::conference::{run_conference, ConferenceParams};
use vorx_apps::download::{run_download, DownloadMode};
use vorx_apps::fft2d::{run_fft2d, topology_for, Distribution, Fft2dParams};
use vorx_apps::patterns::many_to_one;
use vorx_apps::spice::{run_spice, SpiceParams};

use crate::campaign::{find, Campaign, Cell, Gate, Record, Run, Value};

/// Message sizes used by Tables 1 and 2.
pub const TABLE_SIZES: [u32; 4] = [4, 64, 256, 1024];
/// Buffer counts used by Table 1.
pub const TABLE1_BUFS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Paper values for Table 1 (µs/msg), rows = buffers, cols = sizes.
pub const TABLE1_PAPER: [[f64; 4]; 7] = [
    [414.0, 451.0, 574.0, 1071.0],
    [290.0, 317.0, 412.0, 787.0],
    [227.0, 251.0, 330.0, 644.0],
    [196.0, 218.0, 289.0, 573.0],
    [179.0, 200.0, 267.0, 535.0],
    [172.0, 192.0, 257.0, 518.0],
    [164.0, 184.0, 248.0, 504.0],
];
/// Paper values for Table 2 (µs/msg) per message size.
pub const TABLE2_PAPER: [f64; 4] = [303.0, 341.0, 474.0, 997.0];

/// Messages per cell of Tables 1 and 2: the paper's methodology.
const MSGS: u64 = 1000;
/// Messages per cell at which `benchmark/` runs the same 32 cells (`MSGS`
/// in `benchmark/src/workloads/paper.rs`), that row, and the mean error
/// `benchmark/` declares there: `BENCHMARK_ERR_PCT` mirrors "Measured:
/// 9.51 %" in the `paper_err_pct` row of `benchmark/README.md`'s metric
/// table, so a re-fit of `Calibration::paper_1988()` edits both.
/// (`paper_err_pct()` beside that `MSGS` reads 9.5116 to the digit, its Table 2
/// channel being named `"t2"`, not `"bench"`, which moves the one open
/// inside each cell.)
const BENCHMARK_MSGS: u64 = 100;
const BENCHMARK_ROW: &str = "100 msgs/cell";
const BENCHMARK_ERR_PCT: f64 = 9.51;
/// Messages per cell of the ablation rows.
const ABL_MSGS: u64 = 500;
/// Program text E-DL downloads to every node (~100 KB).
const DL_TEXT_BYTES: u32 = 100 * 1024;
/// E-DL: the paper's machine, and the smaller ones of the sweep.
const DL_PER_70: &str = "per-process stubs, 70 nodes";
const DL_TREE_70: &str = "shared stub + tree, 70 nodes";
const DL_SMALLER: [usize; 3] = [10, 20, 40];
/// E-OPEN sweep: channel pairs opening at once, two nodes each.
const OPEN_PAIRS: [usize; 5] = [2, 4, 8, 16, 32];
/// E-FFT sweep: matrix side × nodes.
const FFT_SIZES: [(usize, usize); 6] = [(32, 4), (32, 8), (64, 8), (64, 16), (64, 32), (128, 16)];
/// E-RAPPORT sweep: conferees, and whether they send video.
const CONFERENCES: [(usize, bool); 5] = [(2, false), (3, false), (3, true), (5, true), (8, true)];
/// E-SCALE sweep: clusters × endpoints per cluster.
const SCALE_WORLDS: [(usize, usize); 5] = [(1, 12), (4, 4), (16, 4), (64, 4), (256, 4)];
/// E-SNET: the recovery schemes the paper evaluated under the overload
/// blast (senders, messages each, bytes per message), the Meglos length
/// limit that fits the 2048-byte fifo, and the same blast on the HPC.
const STRATEGIES: [Strategy; 3] = [
    Strategy::BusyRetry,
    Strategy::RandomBackoff,
    Strategy::Reservation,
];
const BLAST: (usize, u64, u32) = (11, 20, 1024);
const LIMITED: (usize, u64, u32) = (12, 1, 150);
const HPC_ROW: &str = "HPC/VORX channels, 11 senders x 20 x 1024 B";
/// E-CTX: the §5 structurings; 200 messages, 50 µs of real work in each.
const STRUCTURINGS: [(Structuring, &str); 3] = [
    (Structuring::Subprocess, "subprocesses + semaphores"),
    (Structuring::Coroutine, "coroutines (CEMU style)"),
    (Structuring::InterruptLevel, "interrupt level (SPICE style)"),
];
/// E-ALLOC: two developers, an 8-node pool, five sessions (seeds 1–5) of
/// 30 edit/compile/run cycles under each allocation policy.
const POLICIES: [(AllocPolicy, &str); 2] = [
    (AllocPolicy::MeglosAutoFree, "Meglos auto-free"),
    (AllocPolicy::VorxExplicit, "VORX explicit allocation"),
];
/// E-SHARE: whether another user's process time-shares node 0.
const SHARINGS: [(bool, &str); 2] = [
    (false, "exclusive nodes"),
    (true, "one node shared with another user"),
];
const F1_ROW: &str = "spanning application, 2 workstations + 8 nodes";
/// ABL: the rows, and what each changes in the 1988 cost model.
type Ablation = (&'static str, fn(&mut Calibration));
const ABLATIONS: [Ablation; 5] = [
    ("paper 1988 (calibrated)", |_| {}),
    ("free context switches", |c| c.ctx_switch_ns = 0),
    ("2x faster kernel copies", |c| {
        (c.fifo_read_ns_per_byte, c.chan_sidebuf_ns_per_byte) = (150, 150)
    }),
    ("2x slower kernel copies", |c| {
        (c.fifo_read_ns_per_byte, c.chan_sidebuf_ns_per_byte) = (600, 600)
    }),
    ("all software free (hw only)", |c| {
        *c = Calibration::instant()
    }),
];

/// The campaign.
pub const CAMPAIGN: Campaign = Campaign {
    name: "paper",
    note: "the paper's own numbers: one cell per published figure (paper / ours / signed \
           err_pct) and per row of the sweeps it describes in words, on the simulated 1988 \
           machine under Calibration::paper_1988(), sequential engine",
    watchdog_s: (60, 60),
    on_expiry: None,
    workload: &[
        ("table_messages_per_cell", MSGS),
        ("benchmark_messages_per_cell", BENCHMARK_MSGS),
        ("ablation_messages_per_cell", ABL_MSGS),
        ("download_text_bytes", DL_TEXT_BYTES as u64),
    ],
    cells,
    gates: &[
        Gate {
            name: "T1+T2: mean |error| over the 32 table cells <= 10 %",
            check: |cells| {
                let (mean, both) = both_means(cells)?;
                let off = table_errs(cells)?.into_iter().filter(|e| e.1 > 10.0);
                let off: Vec<String> = off.map(|(n, e)| format!("{n} {e:.1} %")).collect();
                let detail = format!("{both}; more than 10 % off: {}", off.join(", "));
                Some((mean <= 10.0, detail))
            },
        },
        Gate {
            name: "T1+T2: worst |error| over the 32 table cells <= 30 %",
            check: |cells| {
                let errs = table_errs(cells)?;
                let (name, worst) = errs.iter().max_by(|a, b| a.1.total_cmp(&b.1))?;
                Some((*worst <= 30.0, format!("worst {worst:.1} % at {name}")))
            },
        },
        Gate {
            name: "T1+T2: mean error at benchmark/'s 100 msgs/cell within 0.01 of the \
                   9.51 % it declares",
            check: |cells| {
                let at100 = sim(cells, "T1+T2", BENCHMARK_ROW)?.f64("mean_err_pct");
                let ok = (at100 - BENCHMARK_ERR_PCT).abs() <= 0.01;
                Some((ok, format!("{BENCHMARK_ROW}: {}", both_means(cells)?.1)))
            },
        },
        Gate {
            name: "T1+T2: one buffer loses to channels, two buffers beat them and 64 beat two \
                   at every size",
            check: |cells| {
                let us = |claim, row: &str| Some(sim(cells, claim, row)?.f64("ours"));
                verdict(TABLE_SIZES.map(|len| {
                    let [r1, r2, r64] = [1, 2, 64].map(|bufs| t1_row(bufs, len));
                    let (one, two, many) = (us("T1", &r1)?, us("T1", &r2)?, us("T1", &r64)?);
                    let (rc, chan) = (t2_row(len), us("T2", &t2_row(len))?);
                    let figure = format!(
                        "{r1} {one:.1} > T2 {rc} {chan:.1} > {r2} {two:.1} > {r64} {many:.1}"
                    );
                    Some((one > chan && chan > two && two > many, figure))
                }))
            },
        },
        Gate {
            name: "E-THRU+E-BMP+E-SPICE+E-CTX+E-DL: every in-text figure but the tree \
                   download within 10 % of the paper",
            check: |cells| {
                const CLAIMS: [&str; 5] = ["E-THRU", "E-BMP", "E-SPICE", "E-CTX", "E-DL"];
                let of = |claim| rows(cells, claim).map(move |(row, s)| (claim, row, s));
                let published = CLAIMS.into_iter().flat_map(of);
                let published = published.filter(|c| c.2.get("paper").is_some());
                let checked = published.filter(|c| c.1 != DL_TREE_70);
                verdict(checked.map(|(claim, row, s)| {
                    let err = err_pct(s.f64("paper"), s.f64("ours"));
                    Some((err.abs() <= 10.0, format!("{claim} {row} {err:+.1} %")))
                }))
            },
        },
        Gate {
            name: "F1: 20 clusters, 80 endpoints, 4 hops across, 160 items through the \
                   spanning application",
            check: |cells| {
                let s = sim(cells, "F1", F1_ROW)?;
                let got = ["clusters", "endpoints", "max_hops", "items"].map(|k| s.u64(k));
                let figure = format!("{F1_ROW}: {got:?} in {:.1} ms", s.f64("ours"));
                Some((got == [20, 80, 4, 160], figure))
            },
        },
        Gate {
            name: "E-SNET: busy retry locks out, back-off and reservation deliver 220/220, \
                   12 x 150 B never overflows, the HPC loses nothing",
            check: |cells| {
                let burst = |strategy, load, locks_out: bool| {
                    let row = snet_row(strategy, load);
                    let s = sim(cells, "E-SNET", &row)?;
                    let (got, rejects) = (s.u64("ours"), s.u64("rejects"));
                    let sent = got + s.u64("undelivered");
                    let ok = is(s, "completed") != locks_out && (locks_out || got == sent);
                    let fits = load == BLAST || rejects == 0;
                    Some((
                        ok && fits,
                        format!("{row}: {got}/{sent}, {rejects} rejects"),
                    ))
                };
                let hpc = sim(cells, "E-SNET", HPC_ROW)?.u64("ours");
                verdict([
                    burst(Strategy::BusyRetry, BLAST, true),
                    burst(Strategy::RandomBackoff, BLAST, false),
                    burst(Strategy::Reservation, BLAST, false),
                    burst(Strategy::BusyRetry, LIMITED, false),
                    Some((hpc == 220, format!("{HPC_ROW}: {hpc}/220"))),
                ])
            },
        },
        Gate {
            name: "E-DL: the tree download is >= 6x faster than per-process stubs at 70 nodes",
            check: |cells| {
                let per = sim(cells, "E-DL", DL_PER_70)?.f64("ours");
                let tree = sim(cells, "E-DL", DL_TREE_70)?.f64("ours");
                let x = per / tree;
                let figure = format!("{DL_PER_70} {per:.2} s / {DL_TREE_70} {tree:.3} s = {x:.1}x");
                Some((x >= 6.0, figure + " (paper: 6x)"))
            },
        },
        // "Grow": every doubling of the nodes costs the one manager at least
        // 1.5x; "flat": no distributed world takes twice the smallest one's
        // time.
        Gate {
            name: "E-OPEN: centralized opens grow with the node count, distributed opens \
                   stay flat, beat them and are served by more than one manager",
            check: |cells| {
                let open = |(row, s): (_, &Record)| {
                    let (central, distrib) = (s.f64("centralized_ms"), s.f64("ours"));
                    (row, central, distrib, s.u64("managers_used"))
                };
                let opens: Vec<_> = rows(cells, "E-OPEN").map(open).collect();
                let checks = opens.iter().enumerate();
                verdict(checks.map(|(i, &(row, central, distrib, managers))| {
                    let grew = i == 0 || central >= 1.5 * opens[i - 1].1;
                    let flat = distrib <= 2.0 * opens[0].2;
                    let figure =
                        format!("{row}: {central:.2} / {distrib:.2} ms, {managers} managers");
                    Some((grew && flat && distrib < central && managers > 1, figure))
                }))
            },
        },
        Gate {
            name: "E-FFT: point-to-point beats multicast at every size, both verified to 1e-6",
            check: |cells| {
                verdict(rows(cells, "E-FFT").map(|(row, s)| {
                    let x = s.f64("multicast_ms") / s.f64("ours");
                    Some((x > 1.0 && is(s, "verified"), format!("{row} {x:.1}x")))
                }))
            },
        },
        Gate {
            name: "E-CTX: subprocesses cost more per message than coroutines, coroutines \
                   more than interrupt level, two switches (> 120 us) between the ends",
            check: |cells| {
                let [a, b, c] = STRUCTURINGS.map(|(_, row)| row);
                let us = |row| Some(sim(cells, "E-CTX", row)?.f64("ours"));
                let (sp, co, il) = (us(a)?, us(b)?, us(c)?);
                let figure = format!("{a} {sp:.1} > {b} {co:.1} > {c} {il:.1} us/msg");
                Some((sp > co && co > il && sp - il > 120.0, figure))
            },
        },
        Gate {
            name: "ABL: a free context switch is worth 80 us per message at both sizes",
            check: |cells| {
                let (base, free) = (ABLATIONS[0].0, ABLATIONS[1].0);
                let (b, f) = (sim(cells, "ABL", base)?, sim(cells, "ABL", free)?);
                let [w4, w1024] = ["ours", "us_1024b"].map(|k| b.f64(k) - f.f64(k));
                let ok = (w4 - 80.0).abs() <= 0.5 && (w1024 - 80.0).abs() <= 0.5;
                let figure = format!("{w4:.1} us at 4 B, {w1024:.1} us at 1024 B");
                Some((ok, format!("{free} against {base}: {figure}")))
            },
        },
        Gate {
            name: "E-ALLOC: Meglos auto-free fails mid-session, VORX explicit allocation never",
            check: |cells| {
                verdict(POLICIES.map(|(policy, row)| {
                    let failures = sim(cells, "E-ALLOC", row)?.u64("ours");
                    let fails = policy == AllocPolicy::MeglosAutoFree;
                    let figure = format!("{row}: {failures} 'processors not available'");
                    Some(((failures > 0) == fails, figure))
                }))
            },
        },
        Gate {
            name: "E-SHARE: exclusive nodes balance exactly, a shared one skews by > 5 ms and \
                   finishes later",
            check: |cells| {
                let exclusive = sim(cells, "E-SHARE", SHARINGS[0].1)?.f64("ours");
                verdict(SHARINGS.map(|(shared, row)| {
                    let s = sim(cells, "E-SHARE", row)?;
                    let (makespan, skew) = (s.f64("ours"), s.f64("skew_ms"));
                    let ok = if shared {
                        skew > 5.0 && makespan > exclusive
                    } else {
                        skew == 0.0
                    };
                    Some((ok, format!("{row}: {makespan} ms, skew {skew} ms")))
                }))
            },
        },
        Gate {
            name: "E-RAPPORT: no audio deadline miss up to five conferees",
            check: |cells| {
                let conferences = rows(cells, "E-RAPPORT").zip(CONFERENCES);
                verdict(conferences.map(|((row, s), (conferees, _))| {
                    let misses = s.u64("deadline_misses");
                    Some((
                        conferees > 5 || misses == 0,
                        format!("{row}: {misses} misses"),
                    ))
                }))
            },
        },
        Gate {
            name: "E-SCALE: 40-byte hardware latency at 1024 endpoints >= 10x under 303 us",
            check: |cells| {
                let (row, s) = rows(cells, "E-SCALE").last()?;
                let (mean, max) = (s.f64("ours"), s.f64("max_us"));
                let x = TABLE2_PAPER[0] / max;
                let figure = format!("{row}: mean {mean:.1} us, max {max:.1} us, {x:.0}x under");
                Some((x >= 10.0, figure))
            },
        },
    ],
};

// ------------------------------------------------------------ gate plumbing

/// The `sim` of cell `{claim, row}`.
fn sim<'a>(cells: &'a [Record], claim: &str, row: &str) -> Option<&'a Record> {
    Some(find(cells, &[("claim", claim.into()), ("row", row.into())])?.rec("sim"))
}

/// The rows of `claim` in table order: `(row, sim)`.
fn rows<'a>(cells: &'a [Record], claim: &'a str) -> impl Iterator<Item = (&'a str, &'a Record)> {
    let of_claim = move |c: &&Record| c.rec("key").str("claim") == claim;
    let cells = cells.iter().filter(of_claim);
    cells.map(|c| (c.rec("key").str("row"), c.rec("sim")))
}

/// Whether the boolean field `key` of `s` is true.
fn is(s: &Record, key: &str) -> bool {
    s.get(key) == Some(&Value::Bool(true))
}

/// A gate over several cells: each check is whether one cell (or one size)
/// holds and its figure, which names the row; `None` is a cell that was not
/// run. The gate holds when all do, and marks in its detail those that fail.
fn verdict(checks: impl IntoIterator<Item = Option<(bool, String)>>) -> Option<(bool, String)> {
    let checks: Vec<(bool, String)> = checks.into_iter().collect::<Option<_>>()?;
    let figure = |(ok, f): &(bool, String)| format!("{}{f}", if *ok { "" } else { "FAILING " });
    let detail: Vec<String> = checks.iter().map(figure).collect();
    (!checks.is_empty()).then(|| (checks.iter().all(|c| c.0), detail.join(", ")))
}

/// Signed error of `ours` against the paper's figure, percent.
fn err_pct(paper: f64, ours: f64) -> f64 {
    (ours - paper) / paper * 100.0
}

/// `|err_pct|` of the 32 cells of Tables 1 and 2, each with its name.
fn table_errs(cells: &[Record]) -> Option<Vec<(String, f64)>> {
    let err = |(claim, row, ..): &TableCell| {
        let s = sim(cells, claim, row)?;
        let err = err_pct(s.f64("paper"), s.f64("ours")).abs();
        Some((format!("{claim} {row}"), err))
    };
    tables().iter().map(err).collect()
}

/// The mean of [`table_errs`], and it beside the 100-message cell's: the
/// two figures that must not drift apart unnoticed.
fn both_means(cells: &[Record]) -> Option<(f64, String)> {
    let errs = table_errs(cells)?;
    let mean = errs.iter().map(|e| e.1).sum::<f64>() / errs.len() as f64;
    let at100 = sim(cells, "T1+T2", BENCHMARK_ROW)?.f64("mean_err_pct");
    let both = format!(
        "mean {mean:.4} % at {MSGS} msgs/cell, {at100:.4} % at {BENCHMARK_MSGS} \
         (benchmark/ declares {BENCHMARK_ERR_PCT} %)"
    );
    Some((mean, both))
}

// ------------------------------------------------------------ the cell table

/// A table row; `run` returns the fields of its `sim` after `unit`.
fn cell(claim: &str, row: &str, unit: &'static str, run: impl Fn() -> Record + 'static) -> Cell {
    let key = Record::new().with("claim", claim).with("row", row);
    let run = move |_| Run::new(Record::new().with("unit", unit).and(run()), Vec::new());
    Cell::new(key, false, &[0], run)
}

/// The fields of a cell the paper prints a figure for.
fn vs_paper(paper: f64, ours: f64) -> Record {
    let r = Record::new().with("paper", paper).with("ours", ours);
    r.with("err_pct", err_pct(paper, ours))
}

/// The headline field of a cell the paper describes in words.
fn ours(x: impl Into<Value>) -> Record {
    Record::new().with("ours", x)
}

fn t1_row(bufs: u32, len: u32) -> String {
    format!("{bufs}-buffer window, {len} B")
}

fn t2_row(len: u32) -> String {
    format!("{len} B")
}

fn snet_row(strategy: Strategy, (senders, count, len): (usize, u64, u32)) -> String {
    format!("{strategy}, {senders} senders x {count} x {len} B")
}

/// One published cell of Tables 1 and 2: claim, row, the paper's µs/msg,
/// the buffer count (`None`: the channel protocol of Table 2), bytes.
type TableCell = (&'static str, String, f64, Option<u32>, u32);

/// Tables 1 and 2: 28 + 4 published cells.
fn tables() -> Vec<TableCell> {
    let mut t = Vec::new();
    for (r, bufs) in TABLE1_BUFS.into_iter().enumerate() {
        for (c, len) in TABLE_SIZES.into_iter().enumerate() {
            t.push(("T1", t1_row(bufs, len), TABLE1_PAPER[r][c], Some(bufs), len));
        }
    }
    for (c, len) in TABLE_SIZES.into_iter().enumerate() {
        t.push(("T2", t2_row(len), TABLE2_PAPER[c], None, len));
    }
    t
}

/// µs/msg of one cell of [`tables`] over `n_msgs` messages.
fn table_us(bufs: Option<u32>, len: u32, n_msgs: u64) -> f64 {
    match bufs {
        Some(bufs) => table1_cell(bufs, len, n_msgs),
        None => table2_cell(len, n_msgs),
    }
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();

    // T1, T2: µs/message, elapsed / 1000 messages, the paper's methodology.
    for (claim, row, paper, bufs, len) in tables() {
        let run = move || vs_paper(paper, table_us(bufs, len, MSGS));
        out.push(cell(claim, &row, "us/msg", run));
    }
    // The same 32 cells at the size `benchmark/` runs them.
    out.push(cell("T1+T2", BENCHMARK_ROW, "%", || {
        let err = |(_, _, paper, bufs, len): TableCell| {
            err_pct(paper, table_us(bufs, len, BENCHMARK_MSGS)).abs()
        };
        let errs: Vec<f64> = tables().into_iter().map(err).collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        let worst = errs.iter().copied().fold(0.0, f64::max);
        Record::new()
            .with("mean_err_pct", mean)
            .with("worst_err_pct", worst)
    }));
    out.push(cell("E-THRU", "1024 B channel stream", "kB/s", || {
        vs_paper(1027.0, channel_stream_kbps(MSGS))
    }));
    out.push(cell("F1", F1_ROW, "ms", figure1));

    // E-SNET, §2: many-to-one overload on the S/NET under each recovery
    // scheme, the Meglos length limit, the reservation protocol's tax on an
    // uncontended message, and the same blast on the HPC.
    let limited = [(Strategy::BusyRetry, LIMITED)];
    for (strategy, load) in STRATEGIES.map(|s| (s, BLAST)).into_iter().chain(limited) {
        let row = snet_row(strategy, load);
        out.push(cell("E-SNET", &row, "msgs", move || {
            let r = snet_burst(strategy, load);
            ours(r.delivered_total)
                .with("undelivered", r.undelivered)
                .with("rejects", r.rejects)
                .with("last_delivery_ms", r.last_delivery_ns as f64 / 1e6)
                .with("completed", r.completed)
        }));
    }
    let row = "reservation tax, one uncontended 256 B message";
    out.push(cell("E-SNET", row, "us", || {
        let us = |strategy| snet_burst(strategy, (1, 1, 256)).delivered[0][0].0 as f64 / 1e3;
        let (plain, resv) = (us(Strategy::BusyRetry), us(Strategy::Reservation));
        let tax = ours(resv - plain).with("busy_retry_us", plain);
        tax.with("reservation_us", resv)
    }));
    out.push(cell("E-SNET", HPC_ROW, "msgs", || {
        let r = many_to_one(BLAST.0, BLAST.1, BLAST.2);
        ours(r.delivered)
            .with("elapsed_ms", r.elapsed.as_ms_f64())
            .with("mbytes_per_sec", r.mbytes_per_sec)
    }));

    // E-DL, §3.3: "12 seconds to download and initialize a process on each
    // of 70 processors", two with the tree; the smaller machines show where
    // the per-process time goes (work serialized on the host).
    let secs = |nodes, mode| run_download(nodes, DL_TEXT_BYTES, mode).as_secs_f64();
    let (per, tree) = (DownloadMode::PerProcessStub, DownloadMode::Tree);
    out.push(cell("E-DL", DL_PER_70, "s", move || {
        vs_paper(12.0, secs(70, per))
    }));
    out.push(cell("E-DL", DL_TREE_70, "s", move || {
        vs_paper(2.0, secs(70, tree))
    }));
    for nodes in DL_SMALLER {
        let row = format!("per-process stubs, {nodes} nodes");
        let run = move || ours(secs(nodes, per)).with("tree_s", secs(nodes, tree));
        out.push(cell("E-DL", &row, "s", run));
    }

    // E-OPEN, §3.2: every node opens a channel at startup; one manager on
    // node 0 against one per node.
    for pairs in OPEN_PAIRS {
        let row = format!("{} nodes, {} opens", 2 * pairs, 2 * pairs);
        out.push(cell("E-OPEN", &row, "ms", move || {
            let (central, _) = open_scaling(pairs, ObjMgrMode::Centralized(NodeAddr(0)));
            let (distrib, served) = open_scaling(pairs, ObjMgrMode::Distributed);
            let (central, distrib) = (central.as_ms_f64(), distrib.as_ms_f64());
            ours(distrib)
                .with("centralized_ms", central)
                .with("speedup", central / distrib)
                .with("managers_used", served.iter().filter(|s| **s > 0).count())
        }));
    }

    // E-FFT, §4.2: the redistribution phase of a 2D FFT; every multicast
    // receiver reads the whole matrix to keep its own rows.
    for (n, p) in FFT_SIZES {
        let row = format!("{n}x{n} on {p} nodes");
        out.push(cell("E-FFT", &row, "ms", move || {
            let run = |strategy| run_fft2d(Fft2dParams { n, p, strategy }, 7);
            let (mc, pp) = (
                run(Distribution::Multicast),
                run(Distribution::PointToPoint),
            );
            let (mc_ms, pp_ms) = (mc.distribute_max.as_ms_f64(), pp.distribute_max.as_ms_f64());
            ours(pp_ms)
                .with("multicast_ms", mc_ms)
                .with("speedup", mc_ms / pp_ms)
                .with("bytes_per_node", pp.bytes_rx[0])
                .with("multicast_bytes_per_node", mc.bytes_rx[0])
                .with("verified", mc.max_err < 1e-6 && pp.max_err < 1e-6)
        }));
    }

    // E-BMP, §4.1: 30 frames of a 900 x 900 monochrome display, raw sends
    // paced by the hardware alone.
    let bitmap = || {
        let mut p = BitmapParams::paper_900();
        p.frames = 30;
        run_bitmap(p)
    };
    out.push(cell("E-BMP", "stream throughput", "MB/s", move || {
        let r = bitmap();
        let sim = vs_paper(3.2, r.mbytes_per_sec).with("bytes", r.bytes_received);
        sim.with("elapsed_ms", r.elapsed.as_ms_f64())
    }));
    let row = "900 x 900 mono refresh rate";
    out.push(cell("E-BMP", row, "fps", move || {
        vs_paper(30.0, bitmap().fps)
    }));

    // E-SPICE, §4.1: "60 µsec software latencies for 64 byte messages with
    // direct access to the communications hardware and no low-level
    // protocol", and the solver that wanted them.
    for len in TABLE_SIZES {
        let row = format!("raw {len} B one-way");
        out.push(cell("E-SPICE", &row, "us", move || match len {
            64 => vs_paper(60.0, raw_latency_us(len)),
            _ => ours(raw_latency_us(len)),
        }));
    }
    let row = "stand-in solver, 256 unknowns / 8 nodes / 100 Jacobi iterations";
    out.push(cell("E-SPICE", row, "us/iteration", || {
        let (m, p, iters) = (256, 8, 100);
        let r = run_spice(SpiceParams { m, p, iters }, 11);
        ours(r.per_iter.as_us_f64())
            .with("elapsed_ms", r.elapsed.as_ms_f64())
            .with("residual", r.residual)
            .with("parallel_equals_serial", r.max_err == 0.0)
    }));

    // E-CTX, §5: the 80 µs switch, and what each structuring of a
    // message-driven computation pays per message.
    out.push(cell("E-CTX", "context switch", "us", || {
        vs_paper(80.0, measured_ctx_switch_us())
    }));
    for (technique, row) in STRUCTURINGS {
        out.push(cell("E-CTX", row, "us/msg", move || {
            ours(ctx_structuring(technique, 200, 50_000))
        }));
    }

    // E-ALLOC and E-SHARE, §3.1.
    for (policy, row) in POLICIES {
        out.push(cell("E-ALLOC", row, "failures", move || {
            let per_session = [1, 2, 3, 4, 5].map(|seed| alloc_race(policy, 30, seed));
            let total: u32 = per_session.iter().flatten().sum();
            let per_session: Vec<Vec<u32>> = per_session.iter().map(|f| f.to_vec()).collect();
            ours(total).with("per_session", per_session)
        }));
    }
    for (interferer, row) in SHARINGS {
        out.push(cell("E-SHARE", row, "ms", move || {
            let (makespan_us, skew_us) = shared_vs_exclusive(interferer);
            ours(makespan_us / 1000.0).with("skew_ms", skew_us / 1000.0)
        }));
    }

    // E-RAPPORT, §1: 64 B audio frames every 8 ms against a 20 ms playout
    // deadline, 8 KB video frames at 15 fps, raw UDCO transport, 500 ms.
    for (conferees, with_video) in CONFERENCES {
        let video = if with_video {
            "15 fps video"
        } else {
            "audio only"
        };
        let row = format!("{conferees} conferees, {video}");
        out.push(cell("E-RAPPORT", &row, "us", move || {
            let mut p = ConferenceParams::default_3way();
            (p.conferees, p.with_video, p.duration_ms) = (conferees, with_video, 500);
            let r = run_conference(p);
            ours(r.audio.mean_latency_us)
                .with("audio_max_us", r.audio.max_latency_us)
                .with("jitter_us", r.audio.jitter_us)
                .with("deadline_misses", r.audio.deadline_misses)
                .with("video_mean_us", r.video.mean_latency_us)
        }));
    }

    // E-SCALE, §1: hardware latency of random unicast traffic on bare
    // fabrics up to the 1024-node hypercube the paper sizes. Injection is
    // spaced so that no source outruns its link (a 40 B frame serializes in
    // 2 µs, a 1060 B one in 53 µs): the fabric is measured, not queueing.
    for (clusters, per_cluster) in SCALE_WORLDS {
        let row = format!(
            "{} endpoints, {clusters} x {per_cluster}",
            clusters * per_cluster
        );
        out.push(cell("E-SCALE", &row, "us", move || {
            let topo = Topology::incomplete_hypercube(clusters, per_cluster).expect("valid");
            let n = topo.n_endpoints() as u64;
            let probe = |i| NodeAddr(((i * 97 + 13) % n) as u32);
            let hops = (0..n.min(64)).map(|i| topo.hops(NodeAddr(0), probe(i)));
            let max_hops = hops.max().unwrap_or(0);
            let (mean, max) = random_traffic(topo.clone(), 4, 4_000, 42);
            let spacing = (60_000 * 12 / n.min(64)).max(2_000);
            let (mean_large, _) = random_traffic(topo, 1024, spacing, 43);
            ours(mean)
                .with("max_us", max)
                .with("max_hops", max_hops)
                .with("mean_1060b_us", mean_large)
        }));
    }

    // ABL: Table 2's 4 B and 1024 B rows with one term of the cost model
    // changed — which physical cause each part of the latency has.
    for (row, change) in ABLATIONS {
        out.push(cell("ABL", row, "us/msg", move || {
            let mut calib = Calibration::paper_1988();
            change(&mut calib);
            let us = |len| table2_cell_with(calib, len, ABL_MSGS);
            ours(us(4)).with("us_1024b", us(1024))
        }));
    }
    out
}

// ------------------------------------------------------- the run of one cell

/// Table 1: sliding-window ("reader-active") protocol latency between two
/// nodes on one cluster. The sender transmits `n_msgs`; per-message latency
/// is elapsed / n_msgs, exactly the paper's methodology.
pub fn table1_cell(bufs: u32, msg_len: u32, n_msgs: u64) -> f64 {
    let mut v = VorxBuilder::single_cluster(2).trace(false).build();
    let p = SwParams {
        data_tag: 1,
        credit_tag: 2,
        msg_len,
        n_msgs,
        bufs,
    };
    v.spawn("n0:sw-sender", move |ctx| {
        sliding_window::sender(&ctx, NodeAddr(0), NodeAddr(1), p);
    });
    v.spawn("n1:sw-receiver", move |ctx| {
        sliding_window::receiver(&ctx, NodeAddr(1), NodeAddr(0), p);
    });
    v.run_all().as_us_f64() / n_msgs as f64
}

/// Table 2: channel (stop-and-wait) latency between two nodes, measured the
/// same way: the writer issues `n_msgs` writes; the reader consumes them.
pub fn table2_cell(msg_len: u32, n_msgs: u64) -> f64 {
    table2_cell_with(Calibration::paper_1988(), msg_len, n_msgs)
}

/// [`table2_cell`] under an arbitrary software cost model (the ablations).
fn table2_cell_with(calib: Calibration, msg_len: u32, n_msgs: u64) -> f64 {
    let mut v = VorxBuilder::single_cluster(2)
        .calibration(calib)
        .trace(false)
        .build();
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "bench");
        for _ in 0..n_msgs {
            ch.write(&ctx, Payload::Synthetic(msg_len)).unwrap();
        }
    });
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "bench");
        for _ in 0..n_msgs {
            let m = ch.read(&ctx).unwrap();
            debug_assert_eq!(m.len(), msg_len);
        }
    });
    v.run_all().as_us_f64() / n_msgs as f64
}

/// E-THRU, §4: streaming 1024-byte channel messages — 1024 B over Table 2's
/// last row, in bytes per ms = kB/s.
fn channel_stream_kbps(n_msgs: u64) -> f64 {
    1024.0 / table2_cell(1024, n_msgs) * 1000.0
}

/// F1: construct the installation Figure 1 depicts — ten workstations and
/// the 70-node pool of 1988 on an incomplete hypercube of 20 clusters — and
/// run one application across it: workstation n0 sources a work list, eight
/// processing nodes transform the items, workstation n9 collects them ("a
/// single application that spans many workstations and many nodes").
fn figure1() -> Record {
    const ITEMS_PER_WORKER: u64 = 20;
    const WORKERS: std::ops::Range<u32> = 10..18;
    fn open_all(ctx: &VCtx, node: NodeAddr, prefix: &str) -> Vec<channel::ChannelHandle> {
        let open = |wk| channel::open(ctx, node, &format!("{prefix}-{wk}"));
        WORKERS.map(open).collect()
    }
    let topo = Topology::incomplete_hypercube(20, 4).expect("valid configuration");
    let far = topo.endpoints().map(|n| topo.hops(NodeAddr(0), n)).max();
    let inventory = Record::new()
        .with("clusters", topo.n_clusters())
        .with("ports_per_cluster", PORTS_PER_CLUSTER)
        .with("endpoints", topo.n_endpoints())
        .with("workstations", 10u64)
        .with("max_hops", far.unwrap_or(0));
    let mut v = VorxBuilder::with_topology(topo)
        .hosts(10)
        .trace(false)
        .build();
    for wk in WORKERS {
        v.spawn(format!("n{wk}:worker"), move |ctx| {
            let node = NodeAddr(wk);
            let src = channel::open(&ctx, node, &format!("work-{wk}"));
            let dst = channel::open(&ctx, node, &format!("done-{wk}"));
            for _ in 0..ITEMS_PER_WORKER {
                let item = src.read(&ctx).unwrap();
                user_compute(&ctx, node, SimDuration::from_ms(2));
                dst.write(&ctx, item).unwrap();
            }
        });
    }
    v.spawn("n0:source-ws", move |ctx| {
        let chans = open_all(&ctx, NodeAddr(0), "work");
        for _ in 0..ITEMS_PER_WORKER {
            for ch in &chans {
                ch.write(&ctx, Payload::Synthetic(256)).unwrap();
            }
        }
    });
    let items = Arc::new(AtomicU64::new(0));
    let collected = Arc::clone(&items);
    v.spawn("n9:collect-ws", move |ctx| {
        let chans = open_all(&ctx, NodeAddr(9), "done");
        for _ in 0..ITEMS_PER_WORKER * chans.len() as u64 {
            channel::read_any(&ctx, NodeAddr(9), &chans).unwrap();
            collected.fetch_add(1, Ordering::Relaxed);
        }
    });
    let end = v.run_all();
    let w = v.world();
    ours((end - SimTime::ZERO).as_ms_f64())
        .and(inventory)
        .with("items", items.load(Ordering::Relaxed))
        .with("frames_delivered", w.net.stats.frames_delivered)
        .with("payload_bytes", w.net.stats.payload_bytes_delivered)
}

/// E-SNET: `senders` nodes each send `count` messages of `len` bytes to
/// node 0 of an S/NET at once, recovering from fifo overflow by `strategy`.
fn snet_burst(strategy: Strategy, (senders, count, len): (usize, u64, u32)) -> snet::SnetReport {
    const DEADLINE_NS: u64 = 60_000_000_000;
    let mut sim = SnetSim::new(senders + 1, strategy, 42);
    for s in 1..=senders {
        sim.enqueue(s, 0, len, count, 0);
    }
    sim.run(DEADLINE_NS)
}

/// E-OPEN: `pairs` channel pairs open simultaneously at startup under the
/// §3.2 architecture `mode`. Returns the time until the last open completes
/// and the opens each node's manager served.
fn open_scaling(pairs: usize, mode: ObjMgrMode) -> (SimDuration, Vec<u64>) {
    let mut v = VorxBuilder::with_topology(topology_for(pairs * 2))
        .objmgr(mode)
        .trace(false)
        .build();
    for i in 0..pairs {
        for node in [2 * i, 2 * i + 1] {
            v.spawn(format!("n{node}:open"), move |ctx| {
                let _ = channel::open(&ctx, NodeAddr(node as u32), &format!("startup-{i}"));
            });
        }
    }
    let end = v.run_all();
    let served = v.world().nodes.iter().map(|n| n.mgr.served).collect();
    (end - SimTime::ZERO, served)
}

/// E-SPICE: one-way user-level latency of a raw (no-protocol) message, µs.
fn raw_latency_us(len: u32) -> f64 {
    const TAG: u16 = 5;
    let mut v = VorxBuilder::single_cluster(2).trace(false).build();
    v.spawn("n0:tx", move |ctx| {
        udco::register(&ctx, NodeAddr(0), TAG, UdcoMode::Raw);
        let payload = Payload::Synthetic(len);
        udco::send_raw(&ctx, NodeAddr(0), NodeAddr(1), TAG, 0, payload);
    });
    v.spawn("n1:rx", move |ctx| {
        udco::register(&ctx, NodeAddr(1), TAG, UdcoMode::Raw);
        let _ = udco::recv_raw_spin(&ctx, NodeAddr(1), TAG);
    });
    v.run_all().as_us_f64()
}

/// The §5 alternatives for structuring message-driven computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Structuring {
    /// Input and compute subprocesses exchanging via semaphores: two full
    /// 80 µs context switches per message.
    Subprocess,
    /// Coroutines: switches "occur only at well defined places [...] so
    /// that most registers need not be saved".
    Coroutine,
    /// Interrupt-level / polled: "the entire computation is done by the
    /// interrupt service routines" — no switches at all.
    InterruptLevel,
}

/// E-CTX: service `n_msgs` incoming 64-byte messages, each requiring
/// `work_ns` of computation, under the given structuring; returns the
/// receiving node's CPU time per message in µs (the structuring overhead
/// the paper weighs).
fn ctx_structuring(technique: Structuring, n_msgs: u64, work_ns: u64) -> f64 {
    const TAG: u16 = 9;
    let (tx, rx) = (NodeAddr(0), NodeAddr(1));
    let mut v = VorxBuilder::single_cluster(2).trace(false).build();
    v.spawn("n0:driver", move |ctx| {
        // Pace the driver so the receiver's structuring dominates timing.
        for i in 0..n_msgs {
            udco::send(&ctx, tx, rx, TAG, i, Payload::Synthetic(64));
            ctx.sleep(SimDuration::from_us(600));
        }
    });
    let work = move |ctx: &VCtx| user_compute(ctx, rx, SimDuration::from_ns(work_ns));
    match technique {
        Structuring::Subprocess => v.spawn("n1:subproc", move |ctx| {
            udco::register(&ctx, rx, TAG, UdcoMode::Interrupt);
            let switch_ns = ctx.with(|w, _| w.calib.ctx_switch_ns);
            for _ in 0..n_msgs {
                // The input subprocess is woken by the ISR (recv charges
                // the resume switch); handing the message to the compute
                // subprocess costs another full switch.
                let _ = udco::recv(&ctx, rx, TAG);
                compute_ns(&ctx, rx, CpuCat::System, switch_ns);
                work(&ctx);
            }
        }),
        Structuring::Coroutine => v.spawn("n1:coro", move |ctx| {
            udco::register(&ctx, rx, TAG, UdcoMode::Raw);
            for _ in 0..n_msgs {
                let _ = udco::recv_raw_spin(&ctx, rx, TAG);
                // Hand off input -> compute coroutine and back.
                sched::coroutine_switch(&ctx, rx);
                work(&ctx);
                sched::coroutine_switch(&ctx, rx);
            }
        }),
        Structuring::InterruptLevel => v.spawn("n1:isr", move |ctx| {
            udco::register(&ctx, rx, TAG, UdcoMode::Raw);
            for _ in 0..n_msgs {
                let _ = udco::recv_raw_spin(&ctx, rx, TAG);
                work(&ctx);
            }
        }),
    };
    v.run_all();
    let w = v.world();
    (w.nodes[1].cpu.busy().as_ns() as f64 / 1000.0) / n_msgs as f64
}

/// E-CTX: the §5 context-switch cost measured through the subprocess
/// scheduler (one semaphore handoff = one switch), µs.
fn measured_ctx_switch_us() -> f64 {
    let mut v = VorxBuilder::single_cluster(1).trace(false).build();
    v.spawn("setup", |ctx| {
        let node = NodeAddr(0);
        let sem = sched::create_sem(&ctx, node, 0);
        sched::spawn_subproc(&ctx, node, 2, "a", move |ctx, h| {
            for _ in 0..100 {
                h.sem_p(&ctx, sem);
            }
        });
        sched::spawn_subproc(&ctx, node, 1, "b", move |ctx, h| {
            for _ in 0..100 {
                h.sem_v(&ctx, sem);
            }
        });
    });
    v.run_all();
    let w = v.world();
    w.nodes[0].cpu.system_ns as f64 / 1000.0 / w.nodes[0].sched().switches as f64
}

/// The §3.1 allocation discipline under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AllocPolicy {
    /// Meglos: allocate at run start, auto-free at run end.
    MeglosAutoFree,
    /// VORX: allocate the whole session up front, free at logout.
    VorxExplicit,
}

/// E-ALLOC: two developers iterate edit/compile/run on a shared 8-node
/// pool, each wanting 6 of it; returns the "processors not available"
/// failures each hits over `cycles` development cycles.
fn alloc_race(policy: AllocPolicy, cycles: u32, seed: u64) -> [u32; 2] {
    const WANT: usize = 6;
    let mut v = VorxBuilder::single_cluster(8).trace(false).build();
    let failures = Arc::new(Mutex::new([0u32; 2]));
    for dev in 0..2u32 {
        let fail = Arc::clone(&failures);
        v.spawn(format!("dev{dev}"), move |ctx| {
            let user = UserId(dev);
            let mut rng = SmallRng::seed_from_u64(seed ^ u64::from(dev));
            if policy == AllocPolicy::VorxExplicit {
                // Allocate once for the whole session. The second developer
                // simply cannot start with this pool size: VORX makes the
                // conflict explicit and immediate — an early failure, not a
                // mid-session surprise.
                if ctx.with(move |w, _| w.alloc.allocate(user, WANT)).is_err() {
                    return;
                }
            }
            for _ in 0..cycles {
                // Edit + compile.
                ctx.sleep(SimDuration::from_ms(500 + rng.below(500)));
                // Run.
                if policy == AllocPolicy::VorxExplicit {
                    // The session allocation is still held.
                    ctx.sleep(SimDuration::from_ms(300 + rng.below(300)));
                    continue;
                }
                match ctx.with(move |w, _| w.alloc.allocate(user, WANT)) {
                    Ok(nodes) => {
                        ctx.sleep(SimDuration::from_ms(300 + rng.below(300)));
                        ctx.with(move |w, _| {
                            w.alloc.free(user, &nodes);
                        });
                    }
                    Err(_) => {
                        // "processors not available"
                        lock(&fail)[dev as usize] += 1;
                        ctx.sleep(SimDuration::from_ms(200));
                    }
                }
            }
            if policy == AllocPolicy::VorxExplicit {
                ctx.with(move |w, _| {
                    w.alloc.free_all(user);
                });
            }
        });
    }
    v.run_all();
    let f = *lock(&failures);
    f
}

/// E-SHARE: a 4-worker balanced computation (10 × 1 ms each), optionally
/// with another user's process time-sharing node 0 (the Meglos default).
/// Returns `(makespan_us, max_worker_us - min_worker_us)` — the §3.1
/// complaint is that sharing destroys the repeatable balance.
fn shared_vs_exclusive(interferer: bool) -> (f64, f64) {
    let mut v = VorxBuilder::single_cluster(5).trace(false).build();
    let spans = Arc::new(Mutex::new([0u64; 4]));
    for wk in 0..4usize {
        let spans = Arc::clone(&spans);
        v.spawn(format!("n{wk}:worker"), move |ctx| {
            let t0 = ctx.now();
            for _ in 0..10 {
                user_compute(&ctx, NodeAddr(wk as u32), SimDuration::from_ms(1));
            }
            lock(&spans)[wk] = (ctx.now() - t0).as_ns();
        });
    }
    if interferer {
        v.spawn("n0:other-user", |ctx| {
            for _ in 0..10 {
                user_compute(&ctx, NodeAddr(0), SimDuration::from_ms(1));
                ctx.sleep(SimDuration::from_us(100));
            }
        });
    }
    let end = v.run_all();
    let spans = lock(&spans);
    let max = *spans.iter().max().unwrap() as f64 / 1000.0;
    let min = *spans.iter().min().unwrap() as f64 / 1000.0;
    (end.as_us_f64(), max - min)
}

/// E-SCALE: hardware latency (mean, max; µs) of 1000 random unicast frames
/// of `len` payload bytes injected `spacing_ns` apart on a bare fabric.
fn random_traffic(topo: Topology, len: u32, spacing_ns: u64, seed: u64) -> (f64, f64) {
    const FRAMES: u64 = 1000;
    let n = topo.n_endpoints() as u64;
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..FRAMES {
        let (src, dst) = (rng() % n, rng() % n);
        let dst = if dst == src { (dst + 1) % n } else { dst };
        // The sequence number carries the injection index, hence the time.
        let (seq, payload) = (i << 16 | src, Payload::Synthetic(len));
        let frame = Frame::unicast(NodeAddr(src as u32), NodeAddr(dst as u32), 0, seq, payload);
        net.send_at(i * spacing_ns, frame);
    }
    net.run();
    let lat_us =
        |(t, _, f): &(u64, NodeAddr, Frame)| (*t - (f.seq >> 16) * spacing_ns) as f64 / 1e3;
    let total: f64 = net.delivered.iter().map(lat_us).sum();
    let max = net.delivered.iter().map(lat_us).fold(0.0, f64::max);
    (total / FRAMES as f64, max)
}

/// The runners at reduced size: what the gates check of the committed cells,
/// asserted of fresh runs by `cargo test`.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_4byte_lands_near_paper() {
        let (us, paper) = (table2_cell(4, 100), TABLE2_PAPER[0]);
        assert!(
            (us - paper).abs() / paper < 0.15,
            "4-byte channel latency {us:.1}us vs paper {paper}us"
        );
    }

    #[test]
    fn table1_shape_holds() {
        // Decreasing from 1 to 2 to 64 buffers; 2 buffers beat channels;
        // 1 buffer loses to channels.
        let [k1, k2, k64] = [1, 2, 64].map(|bufs| table1_cell(bufs, 4, 200));
        assert!(k1 > k2 && k2 > k64);
        let chan = table2_cell(4, 200);
        assert!(
            k2 < chan,
            "2-buffer sliding window {k2:.1} must beat channels {chan:.1}"
        );
        assert!(
            k1 > chan,
            "1-buffer sliding window {k1:.1} must lose to channels {chan:.1}"
        );
    }

    #[test]
    fn channel_stream_near_1027_kbps() {
        let kbps = channel_stream_kbps(200);
        assert!(
            (900.0..1130.0).contains(&kbps),
            "channel stream {kbps:.0} kB/s vs paper 1027"
        );
    }

    #[test]
    fn distributed_objmgr_beats_centralized() {
        let (central, _) = open_scaling(8, ObjMgrMode::Centralized(NodeAddr(0)));
        let (distrib, served) = open_scaling(8, ObjMgrMode::Distributed);
        assert!(
            distrib < central,
            "distributed {distrib} should beat centralized {central}"
        );
        assert!(
            served.iter().filter(|s| **s > 0).count() > 1,
            "distributed mode must spread the load: {served:?}"
        );
    }

    #[test]
    fn structuring_costs_ordered_as_paper_says() {
        let [sp, co, il] =
            STRUCTURINGS.map(|(technique, _)| ctx_structuring(technique, 20, 50_000));
        assert!(
            sp > co && co > il,
            "expected subprocess ({sp:.0}us) > coroutine ({co:.0}us) > interrupt-level ({il:.0}us)"
        );
        // Subprocesses pay ~2 x 80us more than interrupt level per message.
        assert!(
            sp - il > 120.0,
            "subprocess overhead {sp:.0} vs interrupt {il:.0}"
        );
    }

    #[test]
    fn measured_switch_is_80us() {
        let us = measured_ctx_switch_us();
        assert!((us - 80.0).abs() < 1.0, "measured {us:.1}us");
    }

    #[test]
    fn meglos_policy_produces_not_available_failures() {
        let meglos = alloc_race(AllocPolicy::MeglosAutoFree, 20, 42);
        let vorx = alloc_race(AllocPolicy::VorxExplicit, 20, 42);
        assert!(
            meglos[0] + meglos[1] > 0,
            "the §3.1 race should bite under auto-free: {meglos:?}"
        );
        assert_eq!(
            vorx,
            [0, 0],
            "explicit allocation has no mid-session failures"
        );
    }

    #[test]
    fn sharing_destroys_load_balance() {
        let (excl_make, excl_skew) = shared_vs_exclusive(false);
        let (shared_make, shared_skew) = shared_vs_exclusive(true);
        // Exclusive: perfectly balanced and repeatable.
        assert!(excl_skew < 1.0, "exclusive skew {excl_skew}us");
        // Shared: the interfered worker lags far behind its siblings.
        assert!(
            shared_skew > 5_000.0,
            "sharing should skew the balance, got {shared_skew}us"
        );
        assert!(shared_make > excl_make);
    }
}
