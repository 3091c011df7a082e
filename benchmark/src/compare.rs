//! `compare <a.json> <b.json>`: the noise-band gate between two `run`
//! reports — one row per (workload, end-to-end metric).

use crate::json::Value;
use crate::schema::{Better, Clock, EndToEnd, END_TO_END, HOST_SPEED};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b` is worse than `a` by more than the metric's bound.
    Worse,
    /// Within the bound, but a side's best rep stands alone (its second-best
    /// is further off than the bound) and the two sides' reps overlap: the
    /// data cannot tell "unchanged" from "changed".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub bound: f64,
    pub verdict: Verdict,
    pub note: String,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// How far a side's second-best rep lies from its best, as a share of the
/// best. The reported value is the best rep — the host's floor, if the run
/// visited it — and a second rep beside it is the evidence that it did.
fn floor_gap(m: &EndToEnd, xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if m.better == Better::Higher {
        v.reverse();
    }
    match v.as_slice() {
        [best, second, ..] => (second - best).abs() / best.abs(),
        _ => 0.0,
    }
}

/// True unless every rep of `b` reads better than every rep of `a`.
fn overlap(m: &EndToEnd, a: &[f64], b: &[f64]) -> bool {
    match m.better {
        Better::Lower => stats::greatest(b) >= stats::least(a),
        Better::Higher => stats::least(b) <= stats::greatest(a),
    }
}

fn reps(section: &Value, metric: &str) -> Vec<f64> {
    section
        .get("per_rep")
        .and_then(|p| p.get(metric))
        .and_then(Value::as_arr)
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

fn metric_value(section: &Value, metric: &str) -> Option<f64> {
    ["metrics", "host_speed"]
        .iter()
        .find_map(|group| section.get(group)?.get(metric)?.get("value")?.as_f64())
}

/// Compare two reports. Errors name what is missing from which file.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let sections = |v: &Value, which: &str| -> Result<Vec<Value>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_arr)
            .ok_or(format!(
                "{which}: no `workloads` array — not a `run` report"
            ))?
            .to_vec())
    };
    let seed = |v: &Value| {
        v.get("host")
            .and_then(|h| h.get("seed"))
            .and_then(Value::as_u64)
    };
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    let (sa, sb) = (sections(a, "first report")?, sections(b, "second report")?);
    let mut rows = Vec::new();
    for wa in &sa {
        let name = wa.get("workload").and_then(Value::as_str).unwrap_or("?");
        let Some(wb) = sb
            .iter()
            .find(|w| w.get("workload").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("second report has no workload `{name}`"));
        };
        for m in END_TO_END.iter().chain(&HOST_SPEED) {
            let (Some(va), Some(vb)) = (metric_value(wa, m.name), metric_value(wb, m.name)) else {
                return Err(format!("{name}: metric `{}` missing from a report", m.name));
            };
            let worse_by = worsening(m, va, vb);
            let (verdict, note) = if m.clock == Clock::Simulated && same_seed {
                // One seed, one answer: any difference is a model change.
                if va == vb {
                    (Verdict::Ok, String::new())
                } else if worse_by > 0.0 {
                    (Verdict::Worse, "simulated result changed".into())
                } else {
                    (Verdict::Ok, "simulated result changed (better)".into())
                }
            } else if worse_by > m.bound {
                (Verdict::Worse, String::new())
            } else {
                let (ra, rb) = (reps(wa, m.name), reps(wb, m.name));
                let gap = floor_gap(m, &ra).max(floor_gap(m, &rb));
                if gap > m.bound && overlap(m, &ra, &rb) {
                    (
                        Verdict::Unresolved,
                        format!("best rep stands {:.1} % from the next", 100.0 * gap),
                    )
                } else {
                    (Verdict::Ok, String::new())
                }
            };
            rows.push(Row {
                workload: name.to_string(),
                metric: m.name,
                a: va,
                b: vb,
                bound: m.bound,
                verdict,
                note,
            });
        }
    }
    Ok(rows)
}

/// The table `compare` prints: both values, the ratio with its base, the
/// bound, the verdict.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>16} {:>6}  {}\n",
        "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>16.4} {:>5.0}%  {}{}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            100.0 * r.bound,
            r.verdict.as_str(),
            if r.note.is_empty() {
                String::new()
            } else {
                format!(" ({})", r.note)
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::end_to_end;

    fn report(seed: u64, host_s: f64, reps: &[f64], sim_end: f64) -> Value {
        let mut metrics = Value::obj();
        for m in END_TO_END.iter().chain(&HOST_SPEED) {
            let v = match m.name {
                "host_s_per_sim_s" => host_s,
                "sim_end_ms" => sim_end,
                _ => 1.0,
            };
            metrics.set(m.name, Value::obj().with("value", v).with("unit", m.unit));
        }
        Value::obj()
            .with("host", Value::obj().with("seed", seed))
            .with(
                "workloads",
                vec![Value::obj()
                    .with("workload", "paper70_sw")
                    .with("metrics", metrics)
                    .with(
                        "per_rep",
                        Value::obj().with("host_s_per_sim_s", reps.to_vec()),
                    )],
            )
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn identical_reports_are_ok() {
        let a = report(1, 10.0, &[10.0, 10.1, 10.2], 100.0);
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), END_TO_END.len() + HOST_SPEED.len());
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn beyond_the_bound_is_worse_and_direction_matters() {
        let bound = end_to_end("host_s_per_sim_s").unwrap().bound;
        let a = report(1, 10.0, &[10.0, 10.1], 100.0);
        let slower = report(1, 10.0 * (1.0 + bound + 0.01), &[11.7, 11.8], 100.0);
        let faster = report(1, 5.0, &[5.0, 5.1], 100.0);
        assert_eq!(
            verdict(&compare(&a, &slower).unwrap(), "host_s_per_sim_s"),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&compare(&a, &faster).unwrap(), "host_s_per_sim_s"),
            Verdict::Ok
        );
    }

    #[test]
    fn a_lone_best_rep_among_overlapping_reps_is_unresolved() {
        let a = report(1, 10.0, &[10.0, 14.0, 18.0, 12.0], 100.0);
        let b = report(1, 10.2, &[10.2, 15.0, 17.0, 11.0], 100.0);
        assert_eq!(
            verdict(&compare(&a, &b).unwrap(), "host_s_per_sim_s"),
            Verdict::Unresolved
        );
        // Every rep of b better than every rep of a: resolved, and better.
        let clear = report(1, 5.0, &[5.0, 7.0, 9.0, 6.0], 100.0);
        assert_eq!(
            verdict(&compare(&a, &clear).unwrap(), "host_s_per_sim_s"),
            Verdict::Ok
        );
    }

    #[test]
    fn one_seed_simulated_difference_is_reported_at_bound_zero() {
        let a = report(1, 10.0, &[10.0], 100.0);
        let b = report(1, 10.0, &[10.0], 100.001);
        assert_eq!(
            verdict(&compare(&a, &b).unwrap(), "sim_end_ms"),
            Verdict::Worse
        );
        // Across seeds the seed-to-seed bound applies instead.
        let other_seed = report(2, 10.0, &[10.0], 100.001);
        assert_eq!(
            verdict(&compare(&a, &other_seed).unwrap(), "sim_end_ms"),
            Verdict::Ok
        );
    }

    #[test]
    fn a_file_that_is_not_a_report_is_an_error() {
        assert!(compare(&Value::obj(), &Value::obj()).is_err());
    }
}
