//! Assemble `BENCH_engine.json` from the engine benchmark results.
//!
//! Reads the per-bench JSON files the criterion harness drops under
//! `target/criterion-stub/desim/` (run `cargo bench -p vorx-bench --bench
//! engine` first) and writes a before/after report at the workspace root,
//! in the campaign schema: one host-only cell per bench.
//!
//! Usage:
//!   engine_report                      # refresh "after", keep "before"
//!   engine_report --set-baseline       # record current results as "before"
//!   engine_report --baseline-dir DIR   # read "before" numbers from DIR
//!
//! The "before" figures are preserved across runs so the perf trajectory of
//! the engine is tracked from PR to PR.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vorx_bench::campaign::{
    cell_report, cells_of, new_report, parse, read_report, workspace_root, write_report, Record,
    Value,
};

const NOTE: &str = "desim engine hot-path benches, ns of host wall time; measured with the \
    vendored criterion stand-in (vendor/README.md), so only before/after ratios are comparable, \
    not absolute numbers from real criterion; run both sides pinned to one CPU (taskset), and \
    expect runs of one binary on a shared host to differ by 20% or more. spawn_park_N spawns N \
    processes, parks them all, wakes them all, runs them out and drops the simulation, all timed \
    (an engine with a stack mapping per process, PR 13 and before, holds about 30,000); \
    timer_arm_cancel_10k arms, cancels and purges 10k timeouts between 10k plain events on a \
    warm simulation; ack_timer_backlog_10k runs 210 stop-and-wait streams of 48 messages on a \
    warm simulation, each message arming a 20 ms timeout that its ack cancels 1.5 ms later \
    among four plain events, so thirteen disarmed timers trail every live one; spsc_burst64_100k pushes 64-message bursts of 64-byte messages through one \
    mailbox and drains each; ctx_with_wake_10k hands a turn between two processes 10k times each \
    way, six Ctx::with blocks, two same-instant wakes and two park/resume pairs per round trip";

/// The three statistics of one bench, if `r` holds them all.
fn stats_of(r: &Record) -> Option<Record> {
    ["min_ns", "median_ns", "mean_ns"]
        .iter()
        .try_fold(Record::new(), |s, k| Some(s.with(k, r.get(k)?.clone())))
}

/// Read every `<bench>.json` in `dir` into a name → stats map.
fn read_dir_stats(dir: &Path) -> BTreeMap<String, Record> {
    let mut out = BTreeMap::new();
    for p in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let p = p.path();
        if p.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&p).unwrap_or_default();
        if let (Some(name), Ok(Value::Rec(r))) =
            (p.file_stem().and_then(|s| s.to_str()), parse(&text))
        {
            out.extend(stats_of(&r).map(|s| (name.to_string(), s)));
        }
    }
    out
}

/// The "before" statistics of the existing report, by bench.
fn read_existing_before() -> BTreeMap<String, Record> {
    let report = read_report("engine").unwrap_or_default();
    let before = |c: &Record| {
        Some((
            c.rec("key").str("bench").to_string(),
            stats_of(c.rec("host").rec("before"))?,
        ))
    };
    cells_of(&report).filter_map(before).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let set_baseline = args.iter().any(|a| a == "--set-baseline");
    let baseline_dir = args
        .iter()
        .position(|a| a == "--baseline-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let results_dir = workspace_root().join("target/criterion-stub/desim");
    let after = read_dir_stats(&results_dir);
    if after.is_empty() {
        eprintln!(
            "no results under {}; run `cargo bench -p vorx-bench --bench engine` first",
            results_dir.display()
        );
        std::process::exit(1);
    }
    let before = if set_baseline {
        after.clone()
    } else if let Some(dir) = baseline_dir {
        read_dir_stats(&dir)
    } else {
        read_existing_before()
    };

    let cells: Vec<Record> = after
        .iter()
        .map(|(bench, a)| {
            let b = before.get(bench);
            let host = Record::new()
                .with("before", b.cloned())
                .with("after", a.clone())
                .with(
                    "speedup_median",
                    b.map(|b| b.f64("median_ns") / a.f64("median_ns")),
                );
            println!("{bench}: {}", host.line());
            cell_report(
                Record::new().with("bench", bench.as_str()),
                Record::new(),
                host,
                None,
                &[],
            )
        })
        .collect();
    let path = write_report(new_report("engine", NOTE, Record::new()), cells, Vec::new());
    println!("wrote {}", path.display());
}
