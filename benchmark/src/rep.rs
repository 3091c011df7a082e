//! One rep: what a measuring child process does between `main` and exit.
//!
//! The child pins itself, builds the world, runs it, verifies it, and prints
//! one JSON line. A fresh process per rep keeps `VmHWM` per rep, keeps one
//! rep's heap layout out of the next, and lets the parent kill a rep that
//! hangs without losing the set.

use std::sync::Arc;
use std::time::Instant;

use crate::host;
use crate::json::Value;
use crate::spans::{self, HostSpans, SimSpans};
use crate::stats;
use crate::workloads::{self, RepOptions, Workload};

/// Host seconds a rep may spend on extra set-up samples.
const EXTRA_SETUP_BUDGET_S: f64 = 0.25;

/// Everything the parent tells a child.
#[derive(Debug, Clone)]
pub struct RepSpec {
    pub workload: Workload,
    pub opts: RepOptions,
    /// Pin to the last allowed CPU (off only for the unpinned diagnostics).
    pub pin: bool,
    /// Write the span file here when the rep is traced.
    pub spans_out: Option<std::path::PathBuf>,
}

impl RepSpec {
    /// A pinned, untraced, single-worker rep: what every timed rep is.
    pub fn plain(workload: Workload, seed: u64, div: u32) -> RepSpec {
        RepSpec {
            workload,
            opts: RepOptions {
                seed,
                div,
                traced: false,
                sim_trace: false,
                workers: 1,
                dry: false,
            },
            pin: true,
            spans_out: None,
        }
    }

    /// The child's command line (after the `rep` sub-command).
    pub fn to_args(&self) -> Vec<String> {
        let mut a = vec![
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.opts.seed.to_string(),
            "--div".into(),
            self.opts.div.to_string(),
            "--workers".into(),
            self.opts.workers.to_string(),
        ];
        for (flag, on) in [
            ("--traced", self.opts.traced),
            ("--sim-trace", self.opts.sim_trace),
            ("--no-pin", !self.pin),
        ] {
            if on {
                a.push(flag.into());
            }
        }
        if let Some(p) = &self.spans_out {
            a.push("--spans-out".into());
            a.push(p.display().to_string());
        }
        a
    }
}

/// Run the rep and return its result line. `t0` is the first instant of the
/// child's `main`, so `setup_s` covers everything before the first event.
pub fn run(spec: &RepSpec, t0: Instant) -> Value {
    let pinned = if spec.pin {
        host::pin_to_last_cpu()
    } else {
        None
    };
    let mut host_spans = HostSpans::starting_at(t0);
    let sim_spans = Arc::new(SimSpans::new(spec.opts.traced));
    let mut out = workloads::run_rep(spec.workload, &spec.opts, &mut host_spans, &sim_spans);

    // Everything before the first event, and nothing after it: process start,
    // pinning and input generation, then every build and spawn phase.
    let startup_s = host_spans
        .spans()
        .first()
        .map_or(0.0, |s| s.start_ns as f64 / 1e9);
    let setup_of = |h: &HostSpans| startup_s + h.total("phase.build") + h.total("phase.spawn");
    let run_s = host_spans.total("phase.run");
    // Set-up is milliseconds where a run is seconds, so a rep can afford to
    // set up several more times: the least of many short samples finds the
    // host's undisturbed moments far more often than one sample per rep.
    let mut setup_samples = vec![setup_of(&host_spans)];
    let extra = (EXTRA_SETUP_BUDGET_S / setup_samples[0]).clamp(2.0, 16.0) as usize;
    let dry = RepOptions {
        dry: true,
        ..spec.opts.clone()
    };
    for _ in 0..extra {
        let mut h = HostSpans::starting_at(Instant::now());
        workloads::run_rep(spec.workload, &dry, &mut h, &sim_spans);
        setup_samples.push(setup_of(&h));
    }

    let samples = out.latencies_ns.len();
    let digest = out.sim_digest();
    let p50 = stats::percentile_u64(&mut out.latencies_ns, 50.0).unwrap_or(0);
    let tail = stats::tail_u64(&mut out.latencies_ns).unwrap_or(0);

    let sim = sim_spans.take();
    let mut sim_summary = Value::obj();
    for (name, (p50_us, tail_us, n)) in spans::sim_span_summary(&sim) {
        sim_summary.set(
            name,
            Value::obj()
                .with("p50_us", p50_us)
                .with("tail_us", tail_us)
                .with("samples", n),
        );
    }
    if let Some(path) = &spec.spans_out {
        let trace_id = format!("{}-{:x}", spec.workload.name(), spec.opts.seed);
        let doc = spans::to_json(&trace_id, &host_spans, &sim);
        if let Err(e) = std::fs::write(path, doc.to_string()) {
            out.errors
                .push(format!("span file {}: {e}", path.display()));
        }
    }

    let mut phases = Value::obj();
    for (name, s) in host_spans.self_times() {
        phases.set(name, s);
    }
    let mut counters = Value::obj();
    for (name, v) in &out.counters {
        counters.set(name, *v);
    }
    Value::obj()
        .with("workload", spec.workload.name())
        .with("seed", spec.opts.seed)
        .with("div", spec.opts.div)
        .with("pinned_cpu", pinned.map_or(Value::Null, Value::from))
        .with("setup_samples_s", setup_samples)
        .with("run_s", run_s)
        .with("sim_end_ns", out.sim_end_ns)
        .with("ops_attempted", out.ops_attempted)
        .with("ops_done", out.ops_done)
        .with("payload_bytes", out.payload_bytes)
        .with("lat_p50_ns", p50)
        .with("lat_tail_ns", tail)
        .with("lat_samples", samples)
        .with("sim_digest", format!("{digest:016x}"))
        .with("peak_rss_mb", host::peak_rss_mb())
        .with("run_bytes_copied", out.run_bytes_copied)
        .with("run_allocs", out.run_allocs)
        .with("run_alloc_bytes", out.run_alloc_bytes)
        .with("run_ctx_switches", out.run_ctx_switches)
        .with("phase_self_s", phases)
        .with("counters", counters)
        .with("sim_spans", sim_summary)
        .with("errors", out.errors)
}
