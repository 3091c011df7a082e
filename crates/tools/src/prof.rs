//! `prof`-style execution profiling (§6.2).
//!
//! "The prof profiling system available in VORX can be run on a process to
//! show how execution time is divided up among different parts of the
//! program. Typically one finds that a large portion of the execution time
//! is spent in a small section of the code."
//!
//! Applications bracket code sections with [`enter`]/[`exit`] (or the
//! [`region`] closure helper); the report attributes wall time between the
//! brackets to the named region, per node.

use desim::{FixedMap, SimDuration, SimTime, Trace};
use vorx::hpcnet::NodeAddr;
use vorx::{TraceEvent, VCtx};

/// Mark entry into region `name` on `node`.
pub fn enter(ctx: &VCtx, node: NodeAddr, name: &str) {
    let name = name.to_string();
    ctx.with(move |w, s| {
        let now = s.now();
        w.trace.record(
            now,
            TraceEvent::Region {
                node: node.0,
                name,
                enter: true,
            },
        );
    });
}

/// Mark exit from region `name` on `node`.
pub fn exit(ctx: &VCtx, node: NodeAddr, name: &str) {
    let name = name.to_string();
    ctx.with(move |w, s| {
        let now = s.now();
        w.trace.record(
            now,
            TraceEvent::Region {
                node: node.0,
                name,
                enter: false,
            },
        );
    });
}

/// Run `f` inside a profiled region.
pub fn region<R>(ctx: &VCtx, node: NodeAddr, name: &str, f: impl FnOnce() -> R) -> R {
    enter(ctx, node, name);
    let r = f();
    exit(ctx, node, name);
    r
}

/// One region's aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStat {
    /// Total (inclusive) time spent in the region.
    pub total: SimDuration,
    /// Number of entries.
    pub count: u64,
}

/// Profiling report: per `(node, region)` aggregates.
#[derive(Debug, Default)]
pub struct ProfReport {
    /// The aggregates.
    pub regions: FixedMap<(u32, String), RegionStat>,
}

impl ProfReport {
    /// Build from a recorded trace. Unmatched exits panic (a bracketing bug
    /// in the instrumented program); unmatched enters are attributed up to
    /// the end of the trace.
    pub fn from_trace(trace: &Trace<TraceEvent>) -> Self {
        let mut open: FixedMap<(u32, String), Vec<SimTime>> = FixedMap::default();
        let mut report = ProfReport::default();
        let mut t_end = SimTime::ZERO;
        for (t, ev) in trace.iter() {
            t_end = t_end.max(t);
            if let TraceEvent::Cpu { end_ns, .. } = ev {
                // CPU bursts are recorded at reservation time but may end
                // later; the trace's true horizon includes them.
                t_end = t_end.max(SimTime::from_ns(*end_ns));
            }
            if let TraceEvent::Region { node, name, enter } = ev {
                let key = (*node, name.clone());
                if *enter {
                    open.entry(key).or_default().push(t);
                } else {
                    let started = open
                        .get_mut(&key)
                        .and_then(Vec::pop)
                        .unwrap_or_else(|| panic!("prof: exit without enter for {key:?}"));
                    let stat = report.regions.entry(key).or_default();
                    stat.total += t - started;
                    stat.count += 1;
                }
            }
        }
        for (key, starts) in open {
            for s in starts {
                let stat = report.regions.entry(key.clone()).or_default();
                stat.total += t_end - s;
                stat.count += 1;
            }
        }
        report
    }

    /// Regions sorted by total time, descending — "typically one finds that
    /// a large portion of the execution time is spent in a small section of
    /// the code."
    pub fn hottest(&self) -> Vec<(&(u32, String), &RegionStat)> {
        let mut v: Vec<_> = self.regions.iter().collect();
        v.sort_by_key(|(k, s)| (std::cmp::Reverse(s.total), k.0, k.1.clone()));
        v
    }

    /// Render the flat profile.
    pub fn render(&self) -> String {
        let mut out = String::from("prof: time per region\n");
        out.push_str(&format!(
            "{:<6} {:<20} {:>12} {:>8} {:>12}\n",
            "node", "region", "total", "calls", "per-call"
        ));
        for ((node, name), stat) in self.hottest() {
            let per = stat
                .total
                .checked_div(stat.count.max(1))
                .unwrap_or(SimDuration::ZERO);
            out.push_str(&format!(
                "n{:<5} {:<20} {:>12} {:>8} {:>12}\n",
                node,
                name,
                stat.total.to_string(),
                stat.count,
                per.to_string()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vorx::api::user_compute;
    use vorx::VorxBuilder;

    #[test]
    fn attributes_time_to_regions() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("n0:app", |ctx| {
            for _ in 0..3 {
                region(&ctx, NodeAddr(0), "hot", || {
                    user_compute(&ctx, NodeAddr(0), SimDuration::from_us(300));
                });
                region(&ctx, NodeAddr(0), "cold", || {
                    user_compute(&ctx, NodeAddr(0), SimDuration::from_us(10));
                });
            }
        });
        v.run_all();
        let w = v.world();
        let p = ProfReport::from_trace(&w.trace);
        let hot = &p.regions[&(0u32, "hot".to_string())];
        let cold = &p.regions[&(0u32, "cold".to_string())];
        assert_eq!(hot.count, 3);
        assert_eq!(hot.total, SimDuration::from_us(900));
        assert_eq!(cold.total, SimDuration::from_us(30));
        let hottest = p.hottest();
        assert_eq!(hottest[0].0 .1, "hot");
        let listing = p.render();
        assert!(listing.contains("hot") && listing.contains("cold"));
    }

    #[test]
    fn unclosed_region_attributed_to_trace_end() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("n0:app", |ctx| {
            enter(&ctx, NodeAddr(0), "forever");
            user_compute(&ctx, NodeAddr(0), SimDuration::from_us(100));
        });
        v.run_all();
        let p = ProfReport::from_trace(&v.world().trace);
        let r = &p.regions[&(0u32, "forever".to_string())];
        assert_eq!(r.total, SimDuration::from_us(100));
    }

    #[test]
    #[should_panic(expected = "exit without enter")]
    fn unmatched_exit_panics() {
        let mut v = VorxBuilder::single_cluster(1).build();
        v.spawn("n0:bad", |ctx| {
            exit(&ctx, NodeAddr(0), "never-entered");
        });
        v.run_all();
        let _ = ProfReport::from_trace(&v.world().trace);
    }
}
