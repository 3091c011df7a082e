//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Host-time spans mark a rep's phases (`phase.build` ▸ `hpcnet.topology`,
//! `vorx.build`; `phase.spawn`; `phase.run`; `phase.verify`;
//! `phase.teardown`) and are always recorded — there are a dozen per rep.
//! Simulated-time spans wrap each call a workload's own processes make into
//! a layer (`sim.open_us`, `sim.write_us`, …) and are recorded only in a
//! traced run. Both stay in memory until the rep ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Value;
use crate::stats;

/// One host-time span, ns since the recorder started.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Records nested host-time spans on the rep's main thread.
pub struct HostSpans {
    t0: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl HostSpans {
    /// Start the clock at `t0` (the child's first instruction of `main`).
    pub fn starting_at(t0: Instant) -> HostSpans {
        HostSpans {
            t0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(HostSpan {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.now_ns();
        (self.spans[i].end_ns - self.spans[i].start_ns) as f64 / 1e9
    }

    /// Self time per span name, seconds: a span's duration minus the part
    /// its children cover, summed over spans of one name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns - s.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += ns as f64 / 1e9;
        }
        by_name
    }

    /// Total duration per span name, seconds (children included).
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }
}

/// One simulated-time span: a call from a workload process into a layer.
#[derive(Debug, Clone, Copy)]
pub struct SimSpan {
    pub name: &'static str,
    /// The stream or member that made the call.
    pub actor: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects simulated-time spans from every workload process. Off (one
/// branch per call) unless the rep is traced.
pub struct SimSpans {
    enabled: bool,
    spans: Mutex<Vec<SimSpan>>,
}

impl SimSpans {
    pub fn new(enabled: bool) -> SimSpans {
        SimSpans {
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn record(&self, name: &'static str, actor: u32, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span recorder poisoned by a panicking process")
                .push(SimSpan {
                    name,
                    actor,
                    start_ns,
                    end_ns,
                });
        }
    }

    pub fn take(&self) -> Vec<SimSpan> {
        std::mem::take(&mut *self.spans.lock().expect("span recorder poisoned"))
    }
}

/// `name -> (p50 µs, tail µs, samples)` over simulated-time spans.
pub fn sim_span_summary(spans: &[SimSpan]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name)
            .or_default()
            .push(s.end_ns - s.start_ns);
    }
    by_name
        .into_iter()
        .map(|(name, mut d)| {
            let n = d.len();
            let p50 = stats::percentile_u64(&mut d, 50.0).unwrap_or(0) as f64 / 1e3;
            let tail = stats::tail_u64(&mut d).unwrap_or(0) as f64 / 1e3;
            (name, (p50, tail, n))
        })
        .collect()
}

/// The span file of one traced rep: every span with name, start, end, parent
/// and the one id all spans of this workload run share.
pub fn to_json(trace_id: &str, host: &HostSpans, sim: &[SimSpan]) -> Value {
    let run_span = host.spans().iter().position(|s| s.name == "phase.run");
    let host_spans: Vec<Value> = host
        .spans()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::obj()
                .with("id", i)
                .with("name", s.name)
                .with("clock", "host_ns")
                .with("start", s.start_ns)
                .with("end", s.end_ns)
                .with("parent", s.parent.map_or(Value::Null, Value::from))
        })
        .collect();
    // Simulated spans hang under the run phase: that is where the
    // simulated clock advances.
    let sim_spans: Vec<Value> = sim
        .iter()
        .map(|s| {
            Value::obj()
                .with("name", s.name)
                .with("clock", "sim_ns")
                .with("actor", s.actor)
                .with("start", s.start_ns)
                .with("end", s.end_ns)
                .with("parent", run_span.map_or(Value::Null, Value::from))
        })
        .collect();
    Value::obj()
        .with("trace_id", trace_id)
        .with("host_spans", host_spans)
        .with("sim_spans", sim_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut h = HostSpans::starting_at(Instant::now());
        h.enter("outer");
        h.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner = h.exit();
        let outer = h.exit();
        let own = h.self_times();
        assert!(inner >= 0.005 && outer >= inner);
        assert!((own["outer"] - (outer - inner)).abs() < 1e-9);
        assert!((own["inner"] - inner).abs() < 1e-9);
        assert_eq!(h.spans()[1].parent, Some(0));
    }

    #[test]
    fn sim_spans_only_when_enabled() {
        let off = SimSpans::new(false);
        off.record("sim.write_us", 0, 0, 10);
        assert!(off.take().is_empty());
        let on = SimSpans::new(true);
        on.record("sim.write_us", 0, 1_000, 3_000);
        on.record("sim.write_us", 1, 1_000, 5_000);
        let s = on.take();
        let sum = sim_span_summary(&s);
        assert_eq!(sum["sim.write_us"], (2.0, 4.0, 2));
    }
}
