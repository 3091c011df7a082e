//! Command line of the benchmark. See `README.md` beside `Cargo.toml`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use vorx_benchmark::host::{self, CountingAlloc};
use vorx_benchmark::json::{self, Value};
use vorx_benchmark::rep::{self, RepSpec};
use vorx_benchmark::runner::{self, Summary};
use vorx_benchmark::schema;
use vorx_benchmark::workloads::{paper, RepOptions, Workload};
use vorx_benchmark::{compare, kernels, trace};

// Counts only while a rep's run phase turns it on; otherwise one relaxed
// load per allocation.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage:
  vorx-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload, one JSON result line: end-to-end metrics (--trace 0) or
      per-layer metrics (--trace 1)
  vorx-benchmark run [--seed <n>] [--seconds <s>] [--check] [--out <file>]
      all six workloads, reps interleaved (20 s each by default); the full report
      (--check: 1/20 size, one rep each, every correctness check)
  vorx-benchmark trace [--seed <n>] [--seconds <s>] [--workload <name>] [--out <file>]
      per-layer metrics, span files and the layer budget
  vorx-benchmark compare <a.json> <b.json>
      the noise-band gate between two `run` reports; exit 1 on `worse`
  vorx-benchmark declare
      print the BENCHMARK.json this binary implements";

/// Seconds per workload of a `run` without `--seconds`: eight interleaved
/// rounds over about two minutes, long enough to visit the host's floor.
const RUN_CMD_SECONDS: f64 = 20.0;

/// Switches that take no value.
const SWITCHES: [&str; 4] = ["--check", "--traced", "--sim-trace", "--no-pin"];

struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: BTreeMap::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if SWITCHES.contains(&a.as_str()) {
                args.options.insert(a, String::new());
            } else if a.starts_with("--") {
                let v = raw.next().ok_or(format!("{a} needs a value"))?;
                args.options.insert(a, v);
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    fn has(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{key}: cannot read `{v}`")),
        }
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        match self.options.get("--workload") {
            None => Ok(None),
            Some(name) => Workload::from_name(name).map(Some).ok_or(format!(
                "unknown workload `{name}`; the workloads are {}",
                Workload::ALL.map(Workload::name).join(", ")
            )),
        }
    }
}

fn emit(doc: &Value, args: &Args) -> Result<(), String> {
    match args.options.get("--out") {
        Some(path) => std::fs::write(path, doc.pretty()).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{}", doc.pretty());
            Ok(())
        }
    }
}

/// The driver's form: one workload, the result object on the last line.
fn driver(args: &Args, workload: Workload) -> Result<ExitCode, String> {
    let seed = args.get("--seed", 1u64)?;
    let seconds = args.get("--seconds", f64::from(schema::RUN_SECONDS))?;
    let line = match args.get("--trace", 0u8)? {
        0 => {
            let err = paper::paper_err_pct()?;
            let runs = runner::measure(&[workload], seed, seconds, 1, runner::MIN_REPS);
            let summary = runner::summarize(&runs[0], err);
            report_problems(&summary);
            summary.driver_line()
        }
        1 => {
            let traced = trace::run(workload, seed, seconds);
            for p in &traced.problems {
                eprintln!("{}: {p}", workload.name());
            }
            traced.driver_line()
        }
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn report_problems(s: &Summary) {
    for p in &s.problems {
        eprintln!("{}: {p}", s.workload.name());
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.get("--seed", 1u64)?;
    let check = args.has("--check");
    let (seconds, div, min_reps) = if check {
        (0.0, 20, 1)
    } else {
        (args.get("--seconds", RUN_CMD_SECONDS)?, 1, runner::MIN_REPS)
    };
    let meta = host::metadata(seed);
    let err = paper::paper_err_pct()?;
    let started = Instant::now();
    let runs = runner::measure(&Workload::ALL, seed, seconds, div, min_reps);
    let summaries: Vec<Summary> = runs.iter().map(|r| runner::summarize(r, err)).collect();
    summaries.iter().for_each(report_problems);
    let doc = Value::obj()
        .with("host", meta)
        .with("metrics", schema::declarations_json())
        .with(
            "run",
            Value::obj()
                .with("seconds_per_workload", seconds)
                .with("work_divisor", div)
                .with("wall_s", started.elapsed().as_secs_f64()),
        )
        .with(
            "workloads",
            Value::Arr(summaries.iter().map(Summary::report).collect()),
        );
    emit(&doc, args)?;
    let all_correct = summaries.iter().all(|s| s.correct && s.failed == 0);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn trace_cmd(args: &Args) -> Result<ExitCode, String> {
    let seed = args.get("--seed", 1u64)?;
    let seconds = args.get("--seconds", f64::from(schema::RUN_SECONDS))?;
    let workloads = match args.workload()? {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut sections = Vec::new();
    let mut ok = true;
    for w in workloads {
        let t = trace::run(w, seed, seconds);
        for p in &t.problems {
            eprintln!("{}: {p}", w.name());
        }
        ok &= t.correct;
        sections.push(
            Value::obj()
                .with("workload", w.name())
                .with("correct", t.correct)
                .with("span_file", t.span_file.display().to_string())
                .with("metrics", t.metrics_json())
                .with("problems", t.problems.clone()),
        );
    }
    let doc = Value::obj()
        .with("host", host::metadata(seed))
        .with("workloads", Value::Arr(sections));
    emit(&doc, args)?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("compare takes two report files".into());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let worse = rows.iter().any(|r| r.verdict == compare::Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The measuring child: one rep, one line.
fn rep_cmd(args: &Args, t0: Instant) -> Result<ExitCode, String> {
    let spec = RepSpec {
        workload: args.workload()?.ok_or("rep needs --workload")?,
        opts: RepOptions {
            seed: args.get("--seed", 1)?,
            div: args.get("--div", 1u32)?.max(1),
            traced: args.has("--traced"),
            sim_trace: args.has("--sim-trace"),
            workers: args.get("--workers", 1usize)?.max(1),
            dry: false,
        },
        pin: !args.has("--no-pin"),
        spans_out: args.options.get("--spans-out").map(Into::into),
    };
    println!("{}", rep::run(&spec, t0));
    Ok(ExitCode::SUCCESS)
}

fn kernels_cmd() -> ExitCode {
    host::pin_to_last_cpu();
    let mut doc = Value::obj();
    for (name, v) in kernels::run_all() {
        doc.set(name, v);
    }
    println!("{doc}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None => match args.workload()? {
                Some(w) => driver(&args, w),
                None => Err("no sub-command and no --workload".into()),
            },
            Some("run") => run(&args),
            Some("trace") => trace_cmd(&args),
            Some("compare") => compare_cmd(&args),
            Some("declare") => {
                print!("{}", schema::benchmark_json().pretty());
                Ok(ExitCode::SUCCESS)
            }
            Some("rep") => rep_cmd(&args, t0),
            Some("kernels") => Ok(kernels_cmd()),
            Some(other) => Err(format!("unknown sub-command `{other}`")),
        }
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("vorx-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
