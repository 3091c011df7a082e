//! The traced run: per-layer metrics, span files and the layer budget.
//!
//! End-to-end metrics are measured with tracing off. This run repeats the
//! workload once with the benchmark's spans recorded (and once without, for
//! the overhead), prices each layer's operations with the kernels, and sets
//! the workload's exact counts against those prices.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use hpcnet::{ClusterId, NodeAddr, Topology};

use crate::json::Value;
use crate::rep::RepSpec;
use crate::runner::{self, Rep};
use crate::schema::{self, PER_LAYER};
use crate::workloads::{coll, fabric, streams, Workload};

/// Where span files go, relative to the directory the benchmark is run from
/// (the repository root).
pub const OUT_DIR: &str = "benchmark/out";

/// Work divisor of the diagnostic reps (quarter size).
const DIAG_DIV: u32 = 4;

fn run_s(rep: &Rep) -> Result<f64, String> {
    rep.as_ref().map_err(Clone::clone)?.num("run_s")
}

/// Mean links a frame of this workload crosses (up-link, inter-cluster hops,
/// down-link), from the seeded plan and the topology's own routing.
fn mean_links(pairs: impl Iterator<Item = (u32, u32)>, topo: &Topology) -> f64 {
    let mut path: Vec<ClusterId> = Vec::new();
    let (mut total, mut n) = (0u64, 0u64);
    for (a, b) in pairs {
        if topo.cluster_path_into(NodeAddr(a), NodeAddr(b), &mut path) {
            total += path.len() as u64 + 1;
            n += 1;
        }
    }
    total as f64 / n.max(1) as f64
}

/// `(unicast link traversals, multicast copies)` of the traced rep: exact for
/// the bare fabric, frames delivered × mean path length elsewhere.
fn fabric_load(w: Workload, seed: u64, counters: &Value) -> (f64, f64) {
    let frames = counters
        .get("hpcnet.frames_delivered")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    match w {
        Workload::FabricSat => {
            let plan = fabric::injections(seed, 1);
            let topo = fabric::topology();
            let unicasts = plan.iter().filter_map(|i| Some((i.src, i.dst?)));
            let n_unicast = plan.iter().filter(|i| i.dst.is_some()).count() as f64;
            let copies = fabric::expected_copies(&plan) as f64 - n_unicast;
            (mean_links(unicasts, &topo) * n_unicast, copies)
        }
        Workload::Coll512Mix => {
            let topo = Topology::incomplete_hypercube(coll::MEMBERS as usize / 4, 4)
                .expect("valid hypercube");
            let to_root = (1..coll::MEMBERS).map(|m| (m, 0));
            (frames * mean_links(to_root, &topo), 0.0)
        }
        _ => {
            let plan = streams::plan_for(w, seed, 1);
            let topo = streams::topology_for(w);
            let pairs = plan.streams.iter().map(|s| (s.src, s.dst));
            (frames * mean_links(pairs, &topo), 0.0)
        }
    }
}

/// Run the kernels in a pinned child and read its result line back.
fn kernels() -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("kernels")
        .output()
        .map_err(|e| format!("kernels: {e}"))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "kernels died: {}",
            err.lines().last().unwrap_or("no message")
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let v = crate::json::parse(text.lines().last().ok_or("kernels printed nothing")?)?;
    Ok(v.as_obj()
        .ok_or("kernel result is not an object")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

/// What a traced run of one workload found.
pub struct Traced {
    pub workload: Workload,
    /// Every metric of [`PER_LAYER`], by name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub span_file: PathBuf,
    pub problems: Vec<String>,
}

/// The traced run of `w`: about `seconds` of traced/untraced pairs, then the
/// kernels and the diagnostic reps.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Traced {
    let mut problems = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let span_file = PathBuf::from(OUT_DIR).join(format!("trace_{}.json", w.name()));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        problems.push(format!("{OUT_DIR}: {e}"));
    }

    // Traced and untraced reps alternate so drift hits both alike; the best
    // of each is compared, as for the end-to-end metrics.
    let started = Instant::now();
    let (mut best_plain, mut best_traced) = (f64::INFINITY, f64::INFINITY);
    let mut traced_rep: Option<Value> = None;
    for pair in 0..3 {
        if pair > 0 && started.elapsed().as_secs_f64() > seconds / 3.0 {
            break;
        }
        match run_s(&runner::spawn_rep(&RepSpec::plain(w, seed, 1))) {
            Ok(s) => best_plain = best_plain.min(s),
            Err(e) => problems.push(format!("untraced rep: {e}")),
        }
        let mut traced = RepSpec::plain(w, seed, 1);
        traced.opts.traced = true;
        traced.spans_out = Some(span_file.clone());
        match runner::spawn_rep(&traced) {
            Ok(rep) => {
                let s = rep.num("run_s").unwrap_or(f64::INFINITY);
                if s <= best_traced {
                    best_traced = s;
                    traced_rep = Some(rep);
                }
            }
            Err(e) => problems.push(format!("traced rep: {e}")),
        }
    }
    let rep = traced_rep.unwrap_or_else(Value::obj);
    for e in rep.get("errors").and_then(Value::as_arr).unwrap_or(&[]) {
        problems.push(format!("traced rep: {}", e.as_str().unwrap_or("?")));
    }
    let attempted = rep.uint("ops_attempted").unwrap_or(1).max(1);
    let ops_done = rep.uint("ops_done").unwrap_or(0);
    let counters = rep.get("counters").cloned().unwrap_or_else(Value::obj);
    let count = |name: &str| counters.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    let nested = |obj: &str, key: &str, field: Option<&str>| -> f64 {
        let v = rep.get(obj).and_then(|o| o.get(key));
        match field {
            Some(f) => v.and_then(|o| o.get(f)),
            None => v,
        }
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
    };

    // Exact counts of the traced rep.
    for name in [
        "desim.events",
        "desim.shard_rounds",
        "desim.shard_bridged",
        "desim.shard_frontier_bumps",
        "hpcnet.frames_sent",
        "hpcnet.frames_delivered",
        "hpcnet.frames_rerouted",
        "hpcnet.frames_combined",
        "hpcnet.frames_dropped",
        "vorx.retransmits",
        "vorx.dups_suppressed",
        "vorx.busy_sent",
        "vorx.peer_down_events",
        "vorx.table_rejects",
        "vorx.coll_retries",
        "vorx.typed_errors",
    ] {
        m.insert(name, count(name));
    }

    // Phases (self time) and simulated-time spans.
    for (metric, span) in [
        ("phase.build_s", "phase.build"),
        ("phase.topology_s", "hpcnet.topology"),
        ("phase.vorx_build_s", "vorx.build"),
        ("phase.spawn_s", "phase.spawn"),
        ("phase.verify_s", "phase.verify"),
        ("phase.teardown_s", "phase.teardown"),
    ] {
        m.insert(metric, nested("phase_self_s", span, None));
    }
    // The collective workload splits its run phase into two child spans, so
    // the phase's own self time is empty; report the phase's whole duration.
    let traced_run_s = rep.num("run_s").unwrap_or(f64::NAN);
    m.insert("phase.run_s", traced_run_s);
    for (metric, span, field) in [
        ("sim.open_us_p50", "sim.open_us", "p50_us"),
        ("sim.open_us_p99", "sim.open_us", "tail_us"),
        ("sim.write_us_p50", "sim.write_us", "p50_us"),
        ("sim.write_us_p99", "sim.write_us", "tail_us"),
        ("sim.read_wait_us_p50", "sim.read_wait_us", "p50_us"),
        ("sim.read_wait_us_p99", "sim.read_wait_us", "tail_us"),
        ("sim.allreduce_us_p50", "sim.allreduce_us", "p50_us"),
        ("sim.allreduce_us_p99", "sim.allreduce_us", "tail_us"),
    ] {
        m.insert(metric, nested("sim_spans", span, Some(field)));
    }
    m.insert(
        "trace_overhead_pct",
        100.0 * (best_traced / best_plain - 1.0),
    );

    // Per-operation costs of the traced rep.
    let ops = ops_done.max(1) as f64;
    let run_ns = traced_run_s * 1e9;
    let events = count("desim.events");
    let sim_s = rep.num("sim_end_ns").unwrap_or(f64::NAN) / 1e9;
    m.insert("host.s_per_sim_s", best_plain / sim_s);
    m.insert("host.ops_per_s", ops / best_plain);
    m.insert(
        "host.ctx_switches_per_op",
        rep.num("run_ctx_switches").unwrap_or(0.0) / ops,
    );
    m.insert("host_ns_per_op", run_ns / ops);
    m.insert(
        "host_ns_per_event",
        if events > 0.0 { run_ns / events } else { 0.0 },
    );
    m.insert("events_per_op", events / ops);
    m.insert("frames_per_op", count("hpcnet.frames_delivered") / ops);
    let allocs = rep.num("run_allocs").unwrap_or(0.0);
    let alloc_bytes = rep.num("run_alloc_bytes").unwrap_or(0.0);
    let copied = rep.num("run_bytes_copied").unwrap_or(0.0);
    let frames = count("hpcnet.frames_delivered").max(1.0);
    m.insert("hpcnet.allocs_per_frame", allocs / frames);
    m.insert(
        "hpcnet.payload_copies",
        copied / count("hpcnet.payload_bytes").max(1.0),
    );
    m.insert("vorx.allocs_per_msg", allocs / ops);
    m.insert("vorx.alloc_bytes_per_msg", alloc_bytes / ops);
    m.insert(
        "vorx.payload_copies_per_msg",
        copied / rep.num("payload_bytes").unwrap_or(1.0).max(1.0),
    );

    // Kernels.
    let k = kernels().unwrap_or_else(|e| {
        problems.push(e);
        BTreeMap::new()
    });
    for d in &PER_LAYER {
        if let Some(&v) = k.get(d.name) {
            m.insert(d.name, v);
        }
    }

    // Diagnostics that need whole reps, at quarter size.
    let mut diag_problems = Vec::new();
    let mut rep_s = |what: &str, spec: RepSpec| -> f64 {
        run_s(&runner::spawn_rep(&spec)).unwrap_or_else(|e| {
            diag_problems.push(format!("{what}: {e}"));
            f64::NAN
        })
    };
    let quarter_sw = RepSpec::plain(Workload::Paper70Sw, seed, DIAG_DIV);
    let pinned_s = rep_s("quarter paper70_sw", quarter_sw.clone());
    let mut unpinned = quarter_sw.clone();
    unpinned.pin = false;
    m.insert(
        "desim.unpinned_slowdown",
        rep_s("unpinned paper70_sw", unpinned) / pinned_s,
    );
    let mut sim_traced = quarter_sw;
    sim_traced.opts.sim_trace = true;
    m.insert(
        "desim.trace_on_overhead_pct",
        100.0 * (rep_s("desim-traced paper70_sw", sim_traced) / pinned_s - 1.0),
    );
    // Both CPUs allowed, one worker against two: what the sharded engine's
    // parallelism buys on this host, if anything.
    let mut w1 = RepSpec::plain(Workload::Dense1kShard, seed, DIAG_DIV);
    w1.pin = false;
    let mut w2 = w1.clone();
    w2.opts.workers = 2;
    m.insert(
        "desim.shard_w2_speedup",
        rep_s("dense1k_shard workers 1", w1) / rep_s("dense1k_shard workers 2", w2),
    );
    problems.append(&mut diag_problems);
    match runner::spawn_rep(&RepSpec::plain(Workload::Coll512Mix, seed, DIAG_DIV)) {
        Ok(rep) => {
            for (metric, half) in [("vorx.coll_innet_op_ns", 0), ("vorx.coll_tree_op_ns", 1)] {
                let h = coll::halves(DIAG_DIV)[half];
                let s = rep
                    .get("phase_self_s")
                    .and_then(|p| p.get(h.run_span))
                    .and_then(Value::as_f64)
                    .unwrap_or(f64::NAN);
                m.insert(metric, s * 1e9 / f64::from(coll::MEMBERS * h.ops));
            }
        }
        Err(e) => problems.push(format!("collective halves: {e}")),
    }

    // The layer budget: exact count x kernel price, as a share of the run
    // phase. The prices come from kernels that run one layer in isolation,
    // so this is an estimate from outside, not a profile.
    let price = |name: &str| k.get(name).copied().unwrap_or(0.0);
    let (traversals, mcast_copies) = fabric_load(w, seed, &counters);
    let event_share = events * price("desim.event_ns") / run_ns;
    let hop_share = traversals * price("hpcnet.hop_ns") / run_ns;
    let mcast_share = mcast_copies * price("hpcnet.mcast_copy_ns") / run_ns;
    // A channel message's price with the engine floor and the fabric taken
    // out: channel and kernel code, and the process switches they cause. The
    // two-node kernel's message crosses two links each way.
    let (msg_ns, msg_events) = match w {
        Workload::Paper70Win => ("vorx.chan_win_msg_ns", "vorx.chan_win_events_per_msg"),
        _ => ("vorx.chan_sw_msg_ns", "vorx.chan_sw_events_per_msg"),
    };
    let chan_own_ns = (price(msg_ns)
        - price(msg_events) * price("desim.event_ns")
        - 4.0 * price("hpcnet.hop_ns"))
    .max(0.0);
    let chan_share = match w {
        Workload::FabricSat | Workload::Coll512Mix => 0.0,
        _ => ops * chan_own_ns / run_ns,
    };
    m.insert("budget.desim_event_share", event_share);
    m.insert("budget.hpcnet_hop_share", hop_share);
    m.insert("budget.hpcnet_mcast_share", mcast_share);
    m.insert("budget.vorx_chan_share", chan_share);
    m.insert(
        "budget.unattributed_share",
        1.0 - event_share - hop_share - mcast_share - chan_share,
    );

    for d in &PER_LAYER {
        match m.get(d.name) {
            Some(v) if v.is_finite() => {}
            _ => {
                problems.push(format!("per-layer metric {} was not measured", d.name));
                m.insert(d.name, 0.0);
            }
        }
    }
    Traced {
        workload: w,
        correct: problems.is_empty(),
        attempted,
        failed: attempted.saturating_sub(ops_done),
        metrics: m,
        span_file,
        problems,
    }
}

impl Traced {
    /// `{"name": {"value": v, "unit": u}, …}` over every per-layer metric.
    pub fn metrics_json(&self) -> Value {
        schema::values_json(
            PER_LAYER
                .iter()
                .map(|d| (d.name, d.unit, self.metrics[d.name])),
        )
    }

    pub fn driver_line(&self) -> Value {
        Value::obj()
            .with("correct", self.correct)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", self.metrics_json())
    }
}
