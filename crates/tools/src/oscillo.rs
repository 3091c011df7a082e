//! The software oscilloscope (§6.2).
//!
//! "VORX includes a tool called the software oscilloscope that helps the
//! programmer visualize how well processors of an application are utilized
//! and how well the computational load is balanced. [...] it displays a
//! graph for each processor indicating CPU time usage with different colors
//! used to partition time into several categories. Two of the categories are
//! quite standard: user time [...] and system time [...]. The remainder of
//! the time is idle time [...] The processor may be idle because the program
//! is waiting for input or it may be idle waiting for output. [...] a third
//! possibility for idle time is that some threads are waiting for input and
//! others are waiting for output. Finally, the processor may be idle for
//! some other reason."
//!
//! "Execution data is recorded while the application is running and later
//! the software oscilloscope is used to display the data" — recording is the
//! `vorx` world trace; this module is the display half. All graphs share one
//! time axis ("the software oscilloscope synchronizes all the graphs with
//! each other"); rendering any `[from, to)` window gives freeze/zoom/seek.

use desim::{SimTime, Trace};
use vorx::{BlockReason, CpuCat, TraceEvent};

/// Time categories displayed by the oscilloscope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cat {
    /// Application code executing.
    User,
    /// Operating-system code executing.
    System,
    /// Idle, waiting for message input.
    IdleInput,
    /// Idle, waiting for message output.
    IdleOutput,
    /// Idle, some threads waiting for input and others for output.
    IdleMixed,
    /// Idle for any other reason.
    IdleOther,
}

impl Cat {
    /// One-character glyph for the timeline rendering.
    pub(crate) fn glyph(self) -> char {
        match self {
            Cat::User => 'U',
            Cat::System => 'S',
            Cat::IdleInput => 'i',
            Cat::IdleOutput => 'o',
            Cat::IdleMixed => 'm',
            Cat::IdleOther => '.',
        }
    }
}

/// Time spent per category over a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Utilization {
    /// User ns.
    pub user: u64,
    /// System ns.
    pub(crate) system: u64,
    /// Idle-waiting-for-input ns.
    pub(crate) idle_input: u64,
    /// Idle-waiting-for-output ns.
    pub(crate) idle_output: u64,
    /// Mixed-wait ns.
    pub(crate) idle_mixed: u64,
    /// Other idle ns.
    pub(crate) idle_other: u64,
}

impl Utilization {
    /// Window length covered.
    pub fn total(&self) -> u64 {
        self.user
            + self.system
            + self.idle_input
            + self.idle_output
            + self.idle_mixed
            + self.idle_other
    }

    /// Fraction of the window doing useful (user) work.
    pub(crate) fn user_frac(&self) -> f64 {
        self.user as f64 / self.total().max(1) as f64
    }

    /// Fraction busy (user + system).
    pub(crate) fn busy_frac(&self) -> f64 {
        (self.user + self.system) as f64 / self.total().max(1) as f64
    }

    fn add(&mut self, cat: Cat, ns: u64) {
        match cat {
            Cat::User => self.user += ns,
            Cat::System => self.system += ns,
            Cat::IdleInput => self.idle_input += ns,
            Cat::IdleOutput => self.idle_output += ns,
            Cat::IdleMixed => self.idle_mixed += ns,
            Cat::IdleOther => self.idle_other += ns,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Busy {
    start: u64,
    end: u64,
    cat: CpuCat,
}

#[derive(Debug, Clone, Copy)]
struct BlockDelta {
    t: u64,
    din: i32,
    dout: i32,
}

/// The display tool: consumes a recorded trace, renders synchronized
/// per-node timelines and utilization summaries.
#[derive(Debug)]
pub struct Oscilloscope {
    n_nodes: usize,
    t_end: u64,
    busy: Vec<Vec<Busy>>,
    blocks: Vec<Vec<BlockDelta>>,
}

impl Oscilloscope {
    /// Build from a recorded trace.
    pub fn from_trace(trace: &Trace<TraceEvent>, n_nodes: usize) -> Self {
        let mut busy = vec![Vec::new(); n_nodes];
        let mut blocks = vec![Vec::new(); n_nodes];
        let mut t_end = 0u64;
        for (t, ev) in trace.iter() {
            t_end = t_end.max(t.as_ns());
            match ev {
                TraceEvent::Cpu {
                    node,
                    cat,
                    start_ns,
                    end_ns,
                } => {
                    busy[*node as usize].push(Busy {
                        start: *start_ns,
                        end: *end_ns,
                        cat: *cat,
                    });
                    t_end = t_end.max(*end_ns);
                }
                TraceEvent::Block { node, reason } => {
                    blocks[*node as usize].push(delta(t.as_ns(), *reason, 1));
                }
                TraceEvent::Unblock { node, reason } => {
                    blocks[*node as usize].push(delta(t.as_ns(), *reason, -1));
                }
                TraceEvent::Region { .. }
                | TraceEvent::Fault { .. }
                | TraceEvent::LinkFault { .. } => {}
            }
        }
        // User bursts are recorded spanning their preemptions (system work
        // runs at interrupt priority *inside* them), so intervals can
        // overlap. Normalize per node: clip user-vs-user, subtract system
        // time out of user bursts, and merge into one sorted,
        // non-overlapping timeline.
        let busy = busy.into_iter().map(normalize_intervals).collect();
        for b in &mut blocks {
            b.sort_by_key(|x| x.t);
        }
        Oscilloscope {
            n_nodes,
            t_end,
            busy,
            blocks,
        }
    }

    /// End of recorded time.
    pub fn t_end(&self) -> SimTime {
        SimTime::from_ns(self.t_end)
    }

    /// Number of nodes displayed.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// The category timeline of `node` over `[from, to)`, as contiguous
    /// segments covering the whole window.
    pub(crate) fn segments(&self, node: usize, from: SimTime, to: SimTime) -> Vec<(u64, u64, Cat)> {
        let (from, to) = (from.as_ns(), to.as_ns());
        assert!(from <= to);
        let mut out = Vec::new();
        // Walk block deltas to know the wait-state at any time.
        let deltas = &self.blocks[node];
        let mut di = 0usize;
        let (mut n_in, mut n_out) = (0i32, 0i32);
        while di < deltas.len() && deltas[di].t <= from {
            n_in += deltas[di].din;
            n_out += deltas[di].dout;
            di += 1;
        }
        let idle_cat = |n_in: i32, n_out: i32| -> Cat {
            if n_in > 0 && n_out > 0 {
                Cat::IdleMixed
            } else if n_in > 0 {
                Cat::IdleInput
            } else if n_out > 0 {
                Cat::IdleOutput
            } else {
                Cat::IdleOther
            }
        };
        // Walk busy intervals; fill idle gaps with block-state segments.
        let mut t = from;
        let mut bi = self.busy[node].partition_point(|b| b.end <= from);
        while t < to {
            let next_busy = self.busy[node].get(bi).copied();
            match next_busy {
                Some(b) if b.start <= t => {
                    let end = b.end.min(to);
                    if end > t {
                        let cat = match b.cat {
                            CpuCat::User => Cat::User,
                            CpuCat::System => Cat::System,
                        };
                        out.push((t, end, cat));
                        t = end;
                    }
                    if b.end <= to {
                        bi += 1;
                    }
                }
                other => {
                    // Idle until the next busy interval (or `to`).
                    let gap_end = other.map(|b| b.start.min(to)).unwrap_or(to);
                    // Split by block-state changes.
                    while t < gap_end {
                        let next_change = deltas
                            .get(di)
                            .map(|d| d.t)
                            .filter(|dt| *dt < gap_end)
                            .unwrap_or(gap_end);
                        let seg_end = next_change.max(t);
                        if seg_end > t {
                            out.push((t, seg_end, idle_cat(n_in, n_out)));
                            t = seg_end;
                        }
                        while di < deltas.len() && deltas[di].t <= t {
                            n_in += deltas[di].din;
                            n_out += deltas[di].dout;
                            di += 1;
                        }
                        if seg_end == gap_end && next_change == gap_end {
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    /// Per-category time for `node` over `[from, to)`.
    pub fn utilization(&self, node: usize, from: SimTime, to: SimTime) -> Utilization {
        let mut u = Utilization::default();
        for (a, b, cat) in self.segments(node, from, to) {
            u.add(cat, b - a);
        }
        u
    }

    /// Render synchronized timelines for every node over `[from, to)` using
    /// `width` buckets; each bucket shows the category that dominated it.
    /// This is the §6.2 display: freeze/zoom/seek by choosing the window.
    pub fn render(&self, from: SimTime, to: SimTime, width: usize) -> String {
        assert!(width > 0);
        let span = (to.as_ns()).saturating_sub(from.as_ns()).max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "software oscilloscope  [{from} .. {to}]  (U=user S=system i=wait-input o=wait-output m=mixed .=idle)\n"
        ));
        for node in 0..self.n_nodes {
            let segs = self.segments(node, from, to);
            let mut row = String::with_capacity(width);
            for b in 0..width {
                let b0 = from.as_ns() + span * b as u64 / width as u64;
                let b1 = from.as_ns() + span * (b + 1) as u64 / width as u64;
                let mut best = (0u64, Cat::IdleOther);
                let mut acc: Vec<(Cat, u64)> = Vec::new();
                for &(a, e, cat) in &segs {
                    let ov = e.min(b1).saturating_sub(a.max(b0));
                    if ov > 0 {
                        match acc.iter_mut().find(|(c, _)| *c == cat) {
                            Some((_, v)) => *v += ov,
                            None => acc.push((cat, ov)),
                        }
                    }
                }
                for (cat, v) in acc {
                    if v > best.0 {
                        best = (v, cat);
                    }
                }
                row.push(best.1.glyph());
            }
            let u = self.utilization(node, from, to);
            out.push_str(&format!(
                "n{node:<3} |{row}| user {:4.0}% busy {:4.0}%\n",
                u.user_frac() * 100.0,
                u.busy_frac() * 100.0
            ));
        }
        out
    }

    /// Render the full recorded interval.
    pub fn render_all(&self, width: usize) -> String {
        self.render(SimTime::ZERO, self.t_end(), width)
    }

    /// Aggregate load-balance statistic: (min, max, mean) user fraction
    /// across nodes over the full run — the §6.2 "how well the computational
    /// load is balanced" question as one number.
    pub fn balance(&self) -> (f64, f64, f64) {
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        let mut sum = 0.0;
        for n in 0..self.n_nodes {
            let f = self.utilization(n, SimTime::ZERO, self.t_end()).user_frac();
            min = min.min(f);
            max = max.max(f);
            sum += f;
        }
        (min, max, sum / self.n_nodes.max(1) as f64)
    }
}

/// Produce a sorted, non-overlapping busy timeline from possibly-overlapping
/// raw intervals: system intervals win (they preempted the user burst they
/// overlap); user intervals are clipped around them.
fn normalize_intervals(raw: Vec<Busy>) -> Vec<Busy> {
    let mut sys: Vec<Busy> = raw
        .iter()
        .copied()
        .filter(|b| b.cat == CpuCat::System)
        .collect();
    sys.sort_by_key(|b| b.start);
    let mut user: Vec<Busy> = raw.into_iter().filter(|b| b.cat == CpuCat::User).collect();
    user.sort_by_key(|b| b.start);
    // Clip user-vs-user (later burst trimmed to start after the earlier).
    let mut cursor = 0u64;
    let mut out = Vec::with_capacity(sys.len() + user.len());
    for mut u in user {
        u.start = u.start.max(cursor);
        if u.end <= u.start {
            continue;
        }
        cursor = u.end;
        // Subtract overlapping system intervals.
        let mut t = u.start;
        for s in &sys {
            if s.end <= t || s.start >= u.end {
                continue;
            }
            if s.start > t {
                out.push(Busy {
                    start: t,
                    end: s.start,
                    cat: CpuCat::User,
                });
            }
            t = t.max(s.end);
            if t >= u.end {
                break;
            }
        }
        if t < u.end {
            out.push(Busy {
                start: t,
                end: u.end,
                cat: CpuCat::User,
            });
        }
    }
    out.extend(sys);
    out.sort_by_key(|b| b.start);
    // Final defensive clip: drop any residual overlap.
    let mut merged: Vec<Busy> = Vec::with_capacity(out.len());
    for mut b in out {
        if let Some(last) = merged.last() {
            b.start = b.start.max(last.end);
        }
        if b.end > b.start {
            merged.push(b);
        }
    }
    merged
}

fn delta(t: u64, reason: BlockReason, sign: i32) -> BlockDelta {
    let (mut din, mut dout) = (0, 0);
    match reason {
        BlockReason::Input => din = sign,
        BlockReason::Output => dout = sign,
        // Other-reason waits render as the catch-all idle category, so no
        // counter is needed for them.
        BlockReason::Other => {}
    }
    BlockDelta { t, din, dout }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use vorx::hpcnet::{NodeAddr, Payload};
    use vorx::{channel, VorxBuilder};

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn segments_cover_window_exactly() {
        let mut trace = Trace::new();
        trace.record(
            t(0),
            TraceEvent::Cpu {
                node: 0,
                cat: CpuCat::User,
                start_ns: 10,
                end_ns: 30,
            },
        );
        trace.record(
            t(40),
            TraceEvent::Block {
                node: 0,
                reason: BlockReason::Input,
            },
        );
        trace.record(
            t(60),
            TraceEvent::Unblock {
                node: 0,
                reason: BlockReason::Input,
            },
        );
        let o = Oscilloscope::from_trace(&trace, 1);
        let segs = o.segments(0, t(0), t(80));
        // Coverage: contiguous from 0 to 80.
        assert_eq!(segs.first().unwrap().0, 0);
        assert_eq!(segs.last().unwrap().1, 80);
        for w in segs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "gap in segments: {segs:?}");
        }
        let u = o.utilization(0, t(0), t(80));
        assert_eq!(u.user, 20);
        assert_eq!(u.idle_input, 20);
        assert_eq!(u.total(), 80);
    }

    #[test]
    fn mixed_wait_classification() {
        let mut trace = Trace::new();
        trace.record(
            t(0),
            TraceEvent::Block {
                node: 0,
                reason: BlockReason::Input,
            },
        );
        trace.record(
            t(10),
            TraceEvent::Block {
                node: 0,
                reason: BlockReason::Output,
            },
        );
        trace.record(
            t(20),
            TraceEvent::Unblock {
                node: 0,
                reason: BlockReason::Input,
            },
        );
        let o = Oscilloscope::from_trace(&trace, 1);
        let u = o.utilization(0, t(0), t(30));
        assert_eq!(u.idle_input, 10);
        assert_eq!(u.idle_mixed, 10);
        assert_eq!(u.idle_output, 10);
    }

    #[test]
    fn real_run_produces_consistent_categories() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:w", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "osc");
            for _ in 0..5 {
                vorx::api::user_compute(&ctx, NodeAddr(1), SimDuration::from_us(200));
                ch.write(&ctx, Payload::Synthetic(256)).unwrap();
            }
        });
        v.spawn("n2:r", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(2), "osc");
            for _ in 0..5 {
                let _ = ch.read(&ctx).unwrap();
                vorx::api::user_compute(&ctx, NodeAddr(2), SimDuration::from_us(50));
            }
        });
        let end = v.run_all();
        let w = v.world();
        let o = Oscilloscope::from_trace(&w.trace, 3);
        // Node 1 did 1ms of user work; node 2 did 250us.
        let u1 = o.utilization(1, SimTime::ZERO, end);
        let u2 = o.utilization(2, SimTime::ZERO, end);
        assert_eq!(u1.user, 1_000_000);
        assert_eq!(u2.user, 250_000);
        assert!(u2.idle_input > 0, "reader must show wait-input time");
        // Full coverage.
        assert_eq!(u1.total(), end.as_ns());
        // Render does not panic and shows every node row.
        let s = o.render_all(60);
        assert!(s.lines().count() >= 4);
        let (min, max, _mean) = o.balance();
        assert!(min <= max);
    }
}
