//! Generic timestamped trace recording.
//!
//! The VORX "software oscilloscope" (§6.2 of the paper) records execution
//! data while the application runs and displays it afterwards. This module
//! provides the recording half in a domain-agnostic way: a `Trace<E>` is an
//! append-only log of `(SimTime, E)` pairs that higher layers (the
//! oscilloscope, `cdb`, experiment harnesses) interpret.
//!
//! [`Trace::to_json`] is the one export, for offline analysis and for
//! comparing two runs byte for byte (every determinism test and campaign
//! cell does). An event type opts in by writing itself ([`JsonEvent`]); there
//! is no serialisation framework underneath.

use std::fmt::Write as _;

use crate::time::SimTime;

/// An append-only, time-ordered event log.
#[derive(Debug, Clone)]
pub struct Trace<E> {
    events: Vec<(SimTime, E)>,
    enabled: bool,
}

impl<E> Default for Trace<E> {
    fn default() -> Self {
        Trace {
            events: Vec::new(),
            enabled: true,
        }
    }
}

impl<E> Trace<E> {
    /// A new, enabled trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// A trace that discards everything (zero overhead for production runs).
    pub fn disabled() -> Self {
        Trace {
            events: Vec::new(),
            enabled: false,
        }
    }

    /// Record `event` at `t`. Events must be recorded in non-decreasing time
    /// order (the simulation guarantees this naturally).
    pub fn record(&mut self, t: SimTime, event: E) {
        if self.enabled {
            debug_assert!(
                self.events.last().is_none_or(|(last, _)| *last <= t),
                "trace events recorded out of order"
            );
            self.events.push((t, event));
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over `(time, event)` pairs in record order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.events.iter().map(|(t, e)| (*t, e))
    }

    /// Events within `[from, to)`.
    ///
    /// The log is time-sorted (see [`Trace::record`]), so both bounds are
    /// located by binary search; cost is O(log n + k) for k yielded events
    /// rather than a scan of the whole log.
    pub fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = (SimTime, &E)> {
        let lo = self.events.partition_point(|(t, _)| *t < from);
        let hi = lo + self.events[lo..].partition_point(|(t, _)| *t < to);
        self.events[lo..hi].iter().map(|(t, e)| (*t, e))
    }

    /// Drop all recorded events, keeping the enabled flag.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Take the log so far, leaving an empty trace with the same enabled
    /// flag: recording carries on where it was.
    pub fn take(&mut self) -> Trace<E> {
        Trace {
            events: std::mem::take(&mut self.events),
            enabled: self.enabled,
        }
    }

    /// Merge several time-ordered traces into one global timeline. Ordering
    /// is by `(time, trace index, record index)`: ties at equal time resolve
    /// in favor of the earlier-indexed trace, and record order within one
    /// trace is preserved (the merge is stable). The sharded engine uses
    /// this to reassemble the global trace from per-shard traces; the result
    /// upholds the [`Trace::record`] ordering invariant, so
    /// [`Trace::window`] and the oscilloscope consume it unchanged.
    ///
    /// The merge moves events, never clones them, and splices whole *runs*:
    /// whenever the leading trace's next events all precede every other
    /// trace's head, they are located by binary search and bulk-moved in one
    /// `extend` instead of element-by-element head comparisons. Shard traces
    /// are long stretches of local activity punctuated by cross-shard
    /// contact, so runs are long and the merge is effectively a few
    /// `memcpy`s. A single non-empty input is returned as-is (zero copies,
    /// zero allocations).
    pub fn merge(traces: Vec<Trace<E>>) -> Trace<E> {
        let mut nonempty = traces;
        nonempty.retain(|t| !t.is_empty());
        if nonempty.len() <= 1 {
            let mut t = nonempty.pop().unwrap_or_default();
            t.enabled = true;
            return t;
        }
        let total = nonempty.iter().map(Trace::len).sum();
        let mut parts: Vec<std::vec::IntoIter<(SimTime, E)>> =
            nonempty.into_iter().map(|t| t.events.into_iter()).collect();
        // Invariant: every entry in `parts` is non-empty, in original trace
        // order (exhausted entries are removed, preserving tie stability).
        let head = |p: &std::vec::IntoIter<(SimTime, E)>| p.as_slice()[0].0;
        let mut events = Vec::with_capacity(total);
        while parts.len() > 1 {
            // The part with the earliest head goes next; ties at equal time
            // resolve to the earliest index (stability).
            let mut i = 0;
            let mut it = head(&parts[0]);
            for (j, p) in parts.iter().enumerate().skip(1) {
                let t = head(p);
                if t < it {
                    i = j;
                    it = t;
                }
            }
            // How far may part `i` run? Up to the earliest head among the
            // others: inclusively if `i` wins the tie (i < j), else
            // exclusively.
            let (lim_t, lim_j) = parts
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(j, p)| (head(p), j))
                .min()
                .expect("at least two parts");
            let run = if i < lim_j {
                parts[i].as_slice().partition_point(|(t, _)| *t <= lim_t)
            } else {
                parts[i].as_slice().partition_point(|(t, _)| *t < lim_t)
            };
            debug_assert!(run >= 1, "earliest head must be part of its run");
            events.extend(parts[i].by_ref().take(run));
            if parts[i].as_slice().is_empty() {
                parts.remove(i);
            }
        }
        events.extend(parts.pop().expect("one part remains"));
        Trace {
            events,
            enabled: true,
        }
    }
}

/// An event that writes itself as one JSON value. Implemented for the
/// element types traces are exported with, nothing generic: the format is
/// whatever the implementations write, and [`Trace::to_json`] is its only
/// consumer.
pub trait JsonEvent {
    /// Append this event's JSON value to `out`.
    fn write_json(&self, out: &mut String);
}

impl JsonEvent for u64 {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl<E: JsonEvent> Trace<E> {
    /// The trace as a JSON array of `{"t_ns":…,"event":…}` objects, in
    /// record order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (t, e)) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_ns\":{},\"event\":", t.as_ns());
            e.write_json(&mut out);
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// `s` as a JSON string literal, quotes included. The workspace's one JSON
/// string escaper: event implementations and the campaign reports call it.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Ev {
        kind: &'static str,
    }

    #[test]
    fn records_in_order_and_iterates() {
        let mut t = Trace::new();
        t.record(SimTime::from_ns(1), Ev { kind: "a" });
        t.record(SimTime::from_ns(5), Ev { kind: "b" });
        assert_eq!(t.len(), 2);
        let kinds: Vec<_> = t.iter().map(|(_, e)| e.kind).collect();
        assert_eq!(kinds, ["a", "b"]);
    }

    #[test]
    fn window_filters_half_open() {
        let mut t = Trace::new();
        for i in 0..10u64 {
            t.record(SimTime::from_ns(i * 10), i);
        }
        let in_window: Vec<_> = t
            .window(SimTime::from_ns(20), SimTime::from_ns(50))
            .map(|(_, e)| *e)
            .collect();
        assert_eq!(in_window, vec![2, 3, 4]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, 1u8);
        assert!(t.is_empty());
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_str("he said \"hi\"\n"), r#""he said \"hi\"\n""#);
        assert_eq!(json_str("\t\r\\\u{1}é"), r#""\t\r\\\u0001é""#);
    }

    #[test]
    fn merge_interleaves_by_time_with_stable_ties() {
        let mut a = Trace::new();
        a.record(SimTime::from_ns(1), "a1");
        a.record(SimTime::from_ns(5), "a5");
        a.record(SimTime::from_ns(5), "a5b");
        let mut b = Trace::new();
        b.record(SimTime::from_ns(1), "b1");
        b.record(SimTime::from_ns(3), "b3");
        let merged = Trace::merge(vec![a, b]);
        let got: Vec<_> = merged.iter().map(|(t, e)| (t.as_ns(), *e)).collect();
        // Equal times: trace 0 before trace 1; within a trace, record order.
        assert_eq!(
            got,
            vec![(1, "a1"), (1, "b1"), (3, "b3"), (5, "a5"), (5, "a5b")]
        );
    }

    #[test]
    fn clear_empties_the_log_and_recording_goes_on() {
        let mut t = Trace::new();
        t.record(SimTime::ZERO, 1u8);
        t.clear();
        assert!(t.is_empty());
        t.record(SimTime::from_ns(9), 2u8);
        assert!(t.iter().eq([(SimTime::from_ns(9), &2u8)]));
    }
}
