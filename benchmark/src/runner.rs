//! The parent side: spawn one pinned child per rep, watch it, and fold the
//! reps of a workload into its end-to-end metrics.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::rep::RepSpec;
use crate::schema::{self, EndToEnd, END_TO_END, HOST_SPEED};
use crate::stats;
use crate::workloads::Workload;

/// Per-rep wall-clock limit. The slowest rep takes under 5 s; a rep still
/// running at 60 s is retransmitting into a void (README, "found while
/// sizing") and is killed, its operations counted as failed.
pub const REP_WALL_LIMIT: Duration = Duration::from_secs(60);
/// Reps per workload below which a measuring run does not stop, whatever the
/// clock says.
pub const MIN_REPS: usize = 3;

/// One finished rep: the child's result line, or why there is none.
pub type Rep = Result<Value, String>;

/// Run one rep in a child process of this same binary.
pub fn spawn_rep(spec: &RepSpec) -> Rep {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .arg("rep")
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let started = Instant::now();
    // A rep prints one line of a few KB, far below a pipe's capacity, so the
    // child never blocks on a full pipe while we only poll for its exit.
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > REP_WALL_LIMIT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "killed after {} s wall-clock limit",
                    REP_WALL_LIMIT.as_secs()
                ));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
    };
    let read_all = |pipe: Option<&mut dyn Read>| {
        let mut s = String::new();
        if let Some(p) = pipe {
            let _ = p.read_to_string(&mut s);
        }
        s
    };
    let out = read_all(child.stdout.as_mut().map(|p| p as &mut dyn Read));
    let err = read_all(child.stderr.as_mut().map(|p| p as &mut dyn Read));
    if !status.success() {
        let last = err.lines().last().unwrap_or("no message");
        return Err(format!("rep died ({status}): {last}"));
    }
    let line = out.lines().last().ok_or("rep printed nothing")?;
    json::parse(line).map_err(|e| format!("rep result unreadable: {e}"))
}

/// The reps of one workload, in the order they ran.
pub struct WorkloadRun {
    pub workload: Workload,
    pub reps: Vec<Rep>,
}

/// Run `workloads` for about `seconds` each, reps interleaved round-robin
/// (A B C, A B C, …) so that host drift hits every workload alike. A round
/// is not started once the budget cannot hold it, except to reach `min_reps`.
pub fn measure(
    workloads: &[Workload],
    seed: u64,
    seconds: f64,
    div: u32,
    min_reps: usize,
) -> Vec<WorkloadRun> {
    let mut runs: Vec<WorkloadRun> = workloads
        .iter()
        .map(|&workload| WorkloadRun {
            workload,
            reps: Vec::new(),
        })
        .collect();
    let budget = seconds * workloads.len() as f64;
    let started = Instant::now();
    let mut last_round = 0.0;
    for round in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        if round >= min_reps && elapsed + last_round > budget {
            break;
        }
        for run in &mut runs {
            run.reps
                .push(spawn_rep(&RepSpec::plain(run.workload, seed, div)));
        }
        last_round = started.elapsed().as_secs_f64() - elapsed;
    }
    runs
}

/// A workload's end-to-end result: what the driver's last line carries, plus
/// what a reader needs to trust it.
pub struct Summary {
    pub workload: Workload,
    /// Every correctness check of every rep passed, every rep finished, and
    /// the simulated results were identical across reps.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric name, value)` in [`END_TO_END`] order.
    pub metrics: Vec<(&'static str, f64)>,
    /// `(metric name, value)` in [`HOST_SPEED`] order.
    pub host_speed: Vec<(&'static str, f64)>,
    /// Per-rep values of the host-time metrics, for spread and `compare`.
    pub per_rep: Vec<(&'static str, Vec<f64>)>,
    pub sim_digest: String,
    pub lat_samples: u64,
    /// Failed checks and dead reps, in words.
    pub problems: Vec<String>,
}

fn field(rep: &Value, key: &str) -> f64 {
    rep.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Fold a workload's reps into its metrics.
///
/// Host-time figures report the *best* rep (least run time, least set-up
/// time), not the median: this host's noise is one-sided — the same pinned
/// rep moves between plateaus 30 % and 55 % above its floor — and the least
/// of several reps is the floor whenever the run visits it. Every rep's value
/// is kept beside it. Simulated metrics and exact counts must be identical
/// across reps; `peak_rss_mb` is the median.
pub fn summarize(run: &WorkloadRun, paper_err_pct: f64) -> Summary {
    let ok: Vec<&Value> = run.reps.iter().filter_map(|r| r.as_ref().ok()).collect();
    let mut problems: Vec<String> = run
        .reps
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().err().map(|e| format!("rep {i}: {e}")))
        .collect();
    for (i, rep) in ok.iter().enumerate() {
        for e in rep.get("errors").and_then(Value::as_arr).unwrap_or(&[]) {
            problems.push(format!("rep {i}: {}", e.as_str().unwrap_or("?")));
        }
    }
    let Some(first) = ok.first() else {
        // Every rep died: the whole workload failed, but the set goes on.
        return Summary {
            workload: run.workload,
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: END_TO_END.iter().map(|m| (m.name, f64::NAN)).collect(),
            host_speed: HOST_SPEED.iter().map(|m| (m.name, f64::NAN)).collect(),
            per_rep: Vec::new(),
            sim_digest: String::new(),
            lat_samples: 0,
            problems,
        };
    };
    let digest = first
        .get("sim_digest")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    if ok
        .iter()
        .any(|r| r.get("sim_digest").and_then(Value::as_str) != Some(digest.as_str()))
    {
        problems.push("simulated results differ between reps of one seed".into());
    }

    let attempted = first.uint("ops_attempted").unwrap_or(1).max(1);
    // A dead rep failed everything it was given; otherwise the worst rep.
    let failed = if ok.len() < run.reps.len() {
        attempted
    } else {
        ok.iter()
            .map(|r| attempted.saturating_sub(r.uint("ops_done").unwrap_or(0)))
            .max()
            .unwrap_or(attempted)
    };

    let col = |key: &str| -> Vec<f64> { ok.iter().map(|r| field(r, key)).collect() };
    let (run_s, rss) = (col("run_s"), col("peak_rss_mb"));
    // Each rep sets up several times; every sample counts.
    let setup_s: Vec<f64> = ok
        .iter()
        .flat_map(|r| {
            r.get("setup_samples_s")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
        })
        .filter_map(Value::as_f64)
        .collect();
    let best_run_s = stats::least(&run_s);
    let sim_s = field(first, "sim_end_ns") / 1e9;
    let ops_done = field(first, "ops_done");
    let value = |name: &str| -> f64 {
        match name {
            "host_s_per_sim_s" => best_run_s / sim_s,
            "ops_per_host_s" => ops_done / best_run_s,
            "setup_s" => stats::least(&setup_s),
            "peak_rss_mb" => stats::median(&rss).unwrap_or(f64::NAN),
            "host_allocs_per_op" => {
                stats::median(&col("run_allocs")).unwrap_or(f64::NAN) / ops_done.max(1.0)
            }
            "sim_end_ms" => sim_s * 1e3,
            "sim_op_us_p50" => field(first, "lat_p50_ns") / 1e3,
            "sim_op_us_p99" => field(first, "lat_tail_ns") / 1e3,
            "sim_goodput_mbps" => field(first, "payload_bytes") * 8.0 / 1e6 / sim_s,
            "paper_err_pct" => paper_err_pct,
            other => unreachable!("no definition for end-to-end metric {other}"),
        }
    };
    let values = |decls: &[EndToEnd]| -> Vec<(&'static str, f64)> {
        decls.iter().map(|m| (m.name, value(m.name))).collect()
    };
    let (metrics, host_speed) = (values(&END_TO_END), values(&HOST_SPEED));
    if let Some((name, _)) = metrics.iter().find(|(_, v)| !v.is_finite() || *v <= 0.0) {
        problems.push(format!("metric {name} is not a positive number"));
    }
    let per_rep = vec![
        (
            "host_s_per_sim_s",
            run_s.iter().map(|s| s / sim_s).collect::<Vec<f64>>(),
        ),
        (
            "ops_per_host_s",
            run_s.iter().map(|s| ops_done / s).collect(),
        ),
        ("setup_s", setup_s),
        ("peak_rss_mb", rss),
        ("run_wall_s", run_s),
    ];
    Summary {
        workload: run.workload,
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        host_speed,
        per_rep,
        sim_digest: digest,
        lat_samples: first.uint("lat_samples").unwrap_or(0),
        problems,
    }
}

fn metrics_json(decls: &[EndToEnd], values: &[(&'static str, f64)]) -> Value {
    schema::values_json(
        decls
            .iter()
            .zip(values)
            .map(|(decl, (name, v))| (*name, decl.unit, *v)),
    )
}

impl Summary {
    /// The driver's result object: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the last as `{"name": {"value": v, "unit": u}, …}`
    /// over the declared end-to-end metrics.
    pub fn driver_line(&self) -> Value {
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics_json(&END_TO_END, &self.metrics))
    }

    /// The workload's section of a full `run` report.
    pub fn report(&self) -> Value {
        let mut per_rep = Value::obj();
        for (name, xs) in &self.per_rep {
            per_rep.set(name, xs.clone());
        }
        Value::obj()
            .with("workload", self.workload.name())
            .with("operation", self.workload.op())
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("reps", self.per_rep.first().map_or(0, |(_, xs)| xs.len()))
            .with("metrics", metrics_json(&END_TO_END, &self.metrics))
            .with("host_speed", metrics_json(&HOST_SPEED, &self.host_speed))
            .with("per_rep", per_rep)
            .with("sim_op_samples", self.lat_samples)
            .with("sim_digest", self.sim_digest.as_str())
            .with("problems", self.problems.clone())
    }
}
