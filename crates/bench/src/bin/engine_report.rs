//! Assemble `BENCH_engine.json` from the engine benchmark results.
//!
//! Reads the per-bench JSON files the criterion harness drops under
//! `target/criterion-stub/desim/` (run `cargo bench -p vorx-bench --bench
//! engine` first) and writes a before/after report at the workspace root.
//!
//! Usage:
//!   engine_report                      # refresh "after", keep "before"
//!   engine_report --set-baseline       # record current results as "before"
//!   engine_report --baseline-dir DIR   # read "before" numbers from DIR
//!
//! The "before" section is preserved across runs so the perf trajectory of
//! the engine is tracked from PR to PR.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vorx_bench::campaign::workspace_root;

#[derive(Debug, Clone, Copy)]
struct Stats {
    min_ns: f64,
    median_ns: f64,
    mean_ns: f64,
}

/// Extract a numeric field from a flat JSON object by key.
fn field_f64(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = json.find(&pat)? + pat.len();
    let rest = json[i..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_stats(json: &str) -> Option<Stats> {
    Some(Stats {
        min_ns: field_f64(json, "min_ns")?,
        median_ns: field_f64(json, "median_ns")?,
        mean_ns: field_f64(json, "mean_ns")?,
    })
}

/// Read every `<bench>.json` in `dir` into a name → stats map.
fn read_dir_stats(dir: &Path) -> BTreeMap<String, Stats> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let Some(name) = p.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if let Some(st) = std::fs::read_to_string(&p)
            .ok()
            .as_deref()
            .and_then(parse_stats)
        {
            out.insert(name.to_string(), st);
        }
    }
    out
}

/// Pull the `"before"` object out of an existing report (naive but
/// sufficient: the report is machine-written with known nesting).
fn read_existing_before(report: &Path) -> BTreeMap<String, Stats> {
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(report) else {
        return out;
    };
    let Some(start) = text.find("\"before\":") else {
        return out;
    };
    let body = &text[start..];
    let Some(open) = body.find('{') else {
        return out;
    };
    let mut depth = 0usize;
    let mut end = open;
    for (i, c) in body[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    let obj = &body[open..=end];
    // Each bench is `"name":{...}` one level down.
    let mut rest = &obj[1..];
    while let Some(q) = rest.find('"') {
        let after = &rest[q + 1..];
        let Some(q2) = after.find('"') else { break };
        let name = &after[..q2];
        let Some(ob) = after.find('{') else { break };
        let Some(cb) = after[ob..].find('}') else {
            break;
        };
        if let Some(st) = parse_stats(&after[ob..=ob + cb]) {
            out.insert(name.to_string(), st);
        }
        rest = &after[ob + cb..];
    }
    out
}

fn emit_section(out: &mut String, name: &str, stats: &BTreeMap<String, Stats>) {
    out.push_str(&format!("  \"{name}\": {{\n"));
    let n = stats.len();
    for (i, (bench, st)) in stats.iter().enumerate() {
        out.push_str(&format!(
            "    \"{bench}\": {{\"min_ns\": {:.1}, \"median_ns\": {:.1}, \"mean_ns\": {:.1}}}{}\n",
            st.min_ns,
            st.median_ns,
            st.mean_ns,
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  }");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let set_baseline = args.iter().any(|a| a == "--set-baseline");
    let baseline_dir = args
        .iter()
        .position(|a| a == "--baseline-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    let root = workspace_root();
    let results_dir = root.join("target/criterion-stub/desim");
    let report_path = root.join("BENCH_engine.json");

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
        read_existing_before(&report_path)
    };

    let mut out = String::from("{\n");
    out.push_str(
        "  \"note\": \"desim engine hot-path benches, ns of host wall time; \
         measured with the vendored criterion stand-in (vendor/README.md), so \
         only before/after ratios are comparable, not absolute numbers from \
         real criterion; run both sides pinned to one CPU (taskset), and \
         expect runs of one binary on a shared host to differ by 20% or more. \
         spawn_park_N spawns N processes, parks them all, wakes them all, \
         runs them out and drops the simulation, all timed (an engine with a \
         stack mapping per process, PR 13 and before, holds about 30,000); \
         timer_arm_cancel_10k arms, cancels and purges 10k timeouts between \
         10k plain events on a warm simulation; spsc_burst64_100k pushes \
         64-message bursts of 64-byte messages through one mailbox and \
         drains each\",\n",
    );
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        desim::affinity::effective_parallelism()
    ));
    emit_section(&mut out, "before", &before);
    out.push_str(",\n");
    emit_section(&mut out, "after", &after);
    if !before.is_empty() {
        out.push_str(",\n  \"speedup_median\": {\n");
        let common: Vec<_> = after
            .iter()
            .filter_map(|(k, a)| before.get(k).map(|b| (k, b.median_ns / a.median_ns)))
            .collect();
        for (i, (k, s)) in common.iter().enumerate() {
            out.push_str(&format!(
                "    \"{k}\": {s:.2}{}\n",
                if i + 1 < common.len() { "," } else { "" }
            ));
        }
        out.push_str("  }");
    }
    out.push_str("\n}\n");

    std::fs::write(&report_path, &out).expect("write BENCH_engine.json");
    println!("wrote {}", report_path.display());
    print!("{out}");
}
