//! The benchmark's checks on itself: its declaration, its output shapes, and
//! a whole `run --check` through real child processes.
//!
//! (Seeded-input determinism, the order statistics, the JSON reader and the
//! `compare` verdicts are unit-tested beside their code.)

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use vorx_benchmark::json::{self, Value};
use vorx_benchmark::runner::{self, WorkloadRun};
use vorx_benchmark::schema::{self, END_TO_END, PER_LAYER};
use vorx_benchmark::trace::Traced;
use vorx_benchmark::workloads::Workload;

fn names(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("no `{key}` array"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Value::as_str)
                .expect("entry has a name")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_is_what_this_code_implements() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let declared = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        declared,
        schema::benchmark_json(),
        "BENCHMARK.json differs from `vorx-benchmark declare`"
    );
    assert_eq!(
        names(&declared, "workloads"),
        Workload::ALL.map(|w| w.name().to_string())
    );
    assert_eq!(
        names(&declared, "end_to_end"),
        END_TO_END.map(|m| m.name.to_string())
    );
    assert_eq!(
        names(&declared, "per_layer"),
        PER_LAYER.map(|m| m.name.to_string())
    );
}

#[test]
fn declaration_stays_inside_the_contract() {
    let ok_name = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let ok_unit = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = BTreeMap::new();
    let all_names = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name));
    for n in all_names {
        assert!(ok_name(n), "bad name {n}");
        assert!(seen.insert(n, ()).is_none(), "name {n} used twice");
    }
    for u in END_TO_END
        .iter()
        .map(|m| m.unit)
        .chain(PER_LAYER.iter().map(|m| m.unit))
    {
        assert!(ok_unit(u), "bad unit {u}");
    }
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200));
    let setup = schema::end_to_end("setup_s").expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(schema::benchmark_json().to_string().len() < 64 * 1024);
}

/// A rep result line as a child prints it.
fn rep(run_s: f64, setup_s: f64, ops_done: u64) -> runner::Rep {
    Ok(Value::obj()
        .with("run_s", run_s)
        .with("setup_samples_s", vec![setup_s, setup_s * 2.0])
        .with("peak_rss_mb", 10.0)
        .with("run_allocs", 40_000u64)
        .with("sim_end_ns", 2_000_000_000u64)
        .with("ops_attempted", 1000u64)
        .with("ops_done", ops_done)
        .with("payload_bytes", 250_000u64)
        .with("lat_p50_ns", 1_500u64)
        .with("lat_tail_ns", 9_000u64)
        .with("lat_samples", 1000u64)
        .with("sim_digest", "00ff")
        .with("errors", Vec::<String>::new()))
}

#[test]
fn driver_line_has_exactly_the_contract_keys_and_every_metric() {
    let run = WorkloadRun {
        workload: Workload::Paper70Sw,
        reps: vec![
            rep(4.0, 0.3, 1000),
            rep(3.0, 0.2, 1000),
            rep(5.0, 0.4, 1000),
        ],
    };
    let s = runner::summarize(&run, 9.5);
    assert!(s.correct, "{:?}", s.problems);
    let line = json::parse(&s.driver_line().to_string()).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("attempted").unwrap().as_u64(), Some(1000));
    assert_eq!(line.get("failed").unwrap().as_u64(), Some(0));
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, END_TO_END.map(|m| m.name));
    for (decl, (_, v)) in END_TO_END.iter().zip(metrics) {
        assert_eq!(v.get("unit").unwrap().as_str(), Some(decl.unit));
        assert!(v.get("value").unwrap().as_f64().unwrap() > 0.0);
    }
    // Host times come from the best rep (3 s over 2 simulated seconds) and
    // the least set-up sample.
    let value = |name: &str| {
        let all = s.metrics.iter().chain(&s.host_speed);
        all.clone().find(|(n, _)| *n == name).unwrap().1
    };
    assert_eq!(value("host_s_per_sim_s"), 1.5);
    assert_eq!(value("ops_per_host_s"), 1000.0 / 3.0);
    assert_eq!(value("setup_s"), 0.2);
    assert_eq!(value("host_allocs_per_op"), 40.0);
    assert_eq!(value("sim_goodput_mbps"), 1.0);
}

#[test]
fn a_dead_rep_fails_its_workload_without_ending_the_set() {
    let run = WorkloadRun {
        workload: Workload::Chaos70Sw,
        reps: vec![rep(4.0, 0.3, 1000), Err("killed after 60 s".into())],
    };
    let s = runner::summarize(&run, 9.5);
    assert!(!s.correct);
    assert_eq!((s.attempted, s.failed), (1000, 1000));
    let none = WorkloadRun {
        workload: Workload::Chaos70Sw,
        reps: vec![Err("spawn failed".into())],
    };
    let s = runner::summarize(&none, 9.5);
    assert!(!s.correct && s.failed == s.attempted);
    // Short of its operations, a finished rep counts the shortfall.
    let short = WorkloadRun {
        workload: Workload::Chaos70Sw,
        reps: vec![rep(4.0, 0.3, 1000), rep(4.0, 0.3, 990)],
    };
    assert_eq!(runner::summarize(&short, 9.5).failed, 10);
}

#[test]
fn differing_simulated_results_between_reps_are_an_error() {
    let mut odd = rep(3.0, 0.2, 1000).unwrap();
    if let Value::Obj(fields) = &mut odd {
        fields.retain(|(k, _)| k != "sim_digest");
    }
    let run = WorkloadRun {
        workload: Workload::Paper70Sw,
        reps: vec![rep(4.0, 0.3, 1000), Ok(odd.with("sim_digest", "beef"))],
    };
    assert!(!runner::summarize(&run, 9.5).correct);
}

#[test]
fn traced_line_names_every_per_layer_metric() {
    let t = Traced {
        workload: Workload::FabricSat,
        metrics: PER_LAYER.iter().map(|d| (d.name, 1.0)).collect(),
        correct: true,
        attempted: 10,
        failed: 0,
        span_file: PathBuf::new(),
        problems: Vec::new(),
    };
    let line = json::parse(&t.driver_line().to_string()).unwrap();
    let metrics = line.get("metrics").unwrap().as_obj().unwrap();
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(got, PER_LAYER.map(|m| m.name));
}

#[test]
fn check_mode_runs_every_workload_and_every_correctness_check() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("check_report.json");
    let started = Instant::now();
    let status = Command::new(env!("CARGO_BIN_EXE_vorx-benchmark"))
        .args(["run", "--check", "--seed", "11", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark binary runs");
    let took = started.elapsed().as_secs_f64();
    assert!(status.success(), "run --check failed");
    // The time limit is for the optimized build the benchmark is run with.
    if !cfg!(debug_assertions) {
        assert!(took < 15.0, "run --check took {took:.1} s");
    }
    let report = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let host = report.get("host").expect("host metadata");
    for key in [
        "schema_version",
        "git_rev",
        "rustc",
        "allowed_cpus",
        "pinned_cpu",
        "loadavg_1m_at_start",
        "seed",
    ] {
        assert!(host.get(key).is_some(), "host metadata lacks {key}");
    }
    let sections = report.get("workloads").unwrap().as_arr().unwrap();
    let got: Vec<&str> = sections
        .iter()
        .map(|s| s.get("workload").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(got, Workload::ALL.map(Workload::name));
    for s in sections {
        let name = s.get("workload").unwrap().as_str().unwrap();
        assert_eq!(s.get("correct").unwrap().as_bool(), Some(true), "{name}");
        assert_eq!(s.get("failed").unwrap().as_u64(), Some(0), "{name}");
        assert_eq!(s.get("reps").unwrap().as_u64(), Some(1), "{name}");
        let metrics = s.get("metrics").unwrap().as_obj().unwrap();
        let declared: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(declared, END_TO_END.map(|m| m.name), "{name}");
        assert!(s.get("per_rep").unwrap().get("run_wall_s").is_some());
    }
}
