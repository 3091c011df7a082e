//! Deterministic fault injection: scheduled element crash/restart events and
//! seeded per-link message dispositions (drop / corrupt / delay).
//!
//! The schedule is *data*, not behavior: upper layers read the crash/restart
//! [`FaultEvent`]s and turn them into ordinary simulation events, and consult
//! [`FaultSchedule::disposition`] once per message arrival. All randomness
//! comes from one seeded [`SmallRng`], and dispositions are drawn in arrival
//! order — which the executor already makes deterministic — so two runs with
//! the same seed inject byte-identical fault streams and traces replay
//! bit-identically.

use std::collections::{BTreeMap, VecDeque};

use crate::hash::FixedMap;
use crate::rng::{SmallRng, SplitMix64};
use crate::time::SimTime;

/// A scheduled change to an element's availability. Element ids are opaque
/// to desim; upper layers map them to nodes, links, or hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The element fails (crash, power loss, unplugged cable).
    Down(u32),
    /// The element comes back with cold state.
    Up(u32),
    /// A network link goes down: frames in flight on it are lost and
    /// traffic must route around it until the matching [`FaultAction::LinkUp`].
    LinkDown(u32),
    /// A previously-downed link carries traffic again.
    LinkUp(u32),
    /// The link stays up but its message-fault profile changes (a degraded
    /// cable: loss/corruption/delay). The new profile is the next one queued
    /// for this link by [`FaultSchedule::degrade_at`].
    LinkDegrade(u32),
    /// A cluster switch's store-and-forward byte budget changes (an overload
    /// squeeze or its release). The new budget is the next one queued for
    /// this cluster by [`FaultSchedule::squeeze_at`].
    BudgetSqueeze(u32),
}

/// One entry in the crash/restart timeline.
#[derive(Debug, Clone, Copy)]
pub struct FaultEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// Per-link message fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently dropped in transit.
    pub drop: f64,
    /// Probability a message arrives with a detectable corruption.
    pub corrupt: f64,
    /// Probability a message is delayed by [`LinkFaults::delay_ns`].
    pub delay: f64,
    /// Extra latency applied to delayed messages, ns.
    pub delay_ns: u64,
}

impl LinkFaults {
    /// A fault-free link.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        corrupt: 0.0,
        delay: 0.0,
        delay_ns: 0,
    };

    /// Drop-only faults at probability `p`.
    pub fn loss(p: f64) -> Self {
        LinkFaults {
            drop: p,
            ..LinkFaults::NONE
        }
    }

    fn is_none(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0 && self.delay == 0.0
    }
}

/// What should happen to one message in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Deliver normally.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver, but flagged as corrupted (models a CRC failure the receiver
    /// can detect but not repair).
    Corrupt,
    /// Deliver after this many extra nanoseconds.
    Delay(u64),
}

/// Per-link injection counters, keyed by link id in
/// [`FaultSchedule::link_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages dropped on this link by a probabilistic or scripted fault.
    pub dropped: u64,
    /// Messages corrupted on this link.
    pub corrupted: u64,
    /// Messages delayed on this link.
    pub delayed: u64,
    /// Messages lost because they were in flight when the link went down.
    pub down_drops: u64,
    /// Times the timeline took this link down.
    pub downs: u64,
    /// Messages shed at this link's switch because a byte budget was
    /// exhausted (deterministic overload drops, not probabilistic faults).
    pub shed: u64,
    /// Times the fault plane judged this link to be flapping (a down that
    /// arrived within the damping window of the previous down).
    pub flaps: u64,
    /// Smallest delivered one-hop latency observed, ns (valid when
    /// `lat_count > 0`).
    pub lat_min_ns: u64,
    /// Largest delivered one-hop latency observed, ns.
    pub lat_max_ns: u64,
    /// Sum of delivered one-hop latencies, ns (mean = sum / count).
    pub lat_sum_ns: u64,
    /// Delivered frames with a recorded latency.
    pub lat_count: u64,
}

impl LinkStats {
    /// Mean delivered latency in ns, 0 when nothing was recorded.
    pub fn lat_mean_ns(&self) -> u64 {
        self.lat_sum_ns.checked_div(self.lat_count).unwrap_or(0)
    }

    /// Fold another link's (or another shard's view of this link's)
    /// counters into this one: counts add, the latency extremes widen, and
    /// `lat_min_ns` is taken only from a side that recorded a latency. The
    /// destructuring names every field, so a counter added to the struct
    /// does not compile until it is merged here.
    pub fn merge(&mut self, o: &LinkStats) {
        let LinkStats {
            dropped,
            corrupted,
            delayed,
            down_drops,
            downs,
            shed,
            flaps,
            lat_min_ns,
            lat_max_ns,
            lat_sum_ns,
            lat_count,
        } = self;
        *dropped += o.dropped;
        *corrupted += o.corrupted;
        *delayed += o.delayed;
        *down_drops += o.down_drops;
        *downs += o.downs;
        *shed += o.shed;
        *flaps += o.flaps;
        if o.lat_count > 0 {
            *lat_min_ns = if *lat_count > 0 {
                (*lat_min_ns).min(o.lat_min_ns)
            } else {
                o.lat_min_ns
            };
            *lat_max_ns = (*lat_max_ns).max(o.lat_max_ns);
            *lat_sum_ns += o.lat_sum_ns;
            *lat_count += o.lat_count;
        }
    }
}

/// One deterministic latency-degradation window: between `start_ns` and
/// `end_ns` (exclusive), frames on `link` are inflated by `factor_milli`
/// (1000 = 1.0x) of the base hop latency plus a seeded jitter in
/// `[0, jitter_ns]`. Both terms are pure functions of sim time, so sharded
/// replays stay bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GrayWindow {
    link: u32,
    start_ns: u64,
    end_ns: u64,
    factor_milli: u64,
    jitter_ns: u64,
}

/// A seeded, deterministic fault plan: a crash/restart timeline plus
/// per-link message fault probabilities and an optional scripted drop table
/// (for tests that need to kill exactly the nth message on a link).
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    rng: SmallRng,
    events: Vec<FaultEvent>,
    default_link: LinkFaults,
    per_link: FixedMap<u32, LinkFaults>,
    /// `link -> sorted arrival ordinals (1-based) to drop`, consulted before
    /// any probabilistic draw.
    scripted_drops: FixedMap<u32, Vec<u64>>,
    /// Messages seen so far per link (drives the scripted table).
    arrivals: FixedMap<u32, u64>,
    /// `link -> queued degrade profiles`, consumed in timeline order by
    /// [`FaultSchedule::apply_degrade`].
    degrades: FixedMap<u32, VecDeque<LinkFaults>>,
    /// `cluster -> queued byte budgets`, consumed in timeline order by
    /// [`FaultSchedule::apply_squeeze`].
    squeezes: FixedMap<u32, VecDeque<u64>>,
    /// Traffic-amplification windows `(start_ns, end_ns, factor)`: a pure
    /// function of sim time consulted by load generators, so overload bursts
    /// replay bit-identically without touching the RNG.
    bursts: Vec<(u64, u64, u32)>,
    /// Latency-degradation windows consulted by
    /// [`FaultSchedule::gray_delay_ns`]; pure functions of sim time.
    lat_windows: Vec<GrayWindow>,
    /// The construction seed, reused (hashed) for per-frame gray jitter so
    /// jitter never perturbs the probabilistic RNG stream.
    gray_seed: u64,
    /// Per-link injection counters (ordered so summaries are deterministic).
    link_stats: BTreeMap<u32, LinkStats>,
}

impl FaultSchedule {
    /// An empty schedule drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            rng: SmallRng::seed_from_u64(seed),
            events: Vec::new(),
            default_link: LinkFaults::NONE,
            per_link: FixedMap::default(),
            scripted_drops: FixedMap::default(),
            arrivals: FixedMap::default(),
            degrades: FixedMap::default(),
            squeezes: FixedMap::default(),
            bursts: Vec::new(),
            lat_windows: Vec::new(),
            gray_seed: seed,
            link_stats: BTreeMap::new(),
        }
    }

    /// Schedule element `id` to fail at `at`.
    pub fn down_at(mut self, id: u32, at: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            action: FaultAction::Down(id),
        });
        self
    }

    /// Schedule element `id` to restart at `at`.
    pub fn up_at(mut self, id: u32, at: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            action: FaultAction::Up(id),
        });
        self
    }

    /// Schedule link `link` to go down at `at`: frames in flight on it are
    /// lost and traffic reroutes around it.
    pub fn link_down_at(mut self, link: u32, at: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            action: FaultAction::LinkDown(link),
        });
        self
    }

    /// Schedule link `link` to come back up at `at`.
    pub fn link_up_at(mut self, link: u32, at: SimTime) -> Self {
        self.events.push(FaultEvent {
            at,
            action: FaultAction::LinkUp(link),
        });
        self
    }

    /// Schedule link `link` to degrade to `faults` at `at` (the link stays
    /// up; its message-fault profile changes). Several degrades of the same
    /// link apply in timeline order.
    pub fn degrade_at(mut self, link: u32, at: SimTime, faults: LinkFaults) -> Self {
        self.events.push(FaultEvent {
            at,
            action: FaultAction::LinkDegrade(link),
        });
        self.degrades.entry(link).or_default().push_back(faults);
        self
    }

    /// Schedule cluster `cluster`'s switch byte budget to become `bytes` at
    /// `at` (an overload squeeze; `u64::MAX` releases it). Several squeezes
    /// of the same cluster apply in timeline order.
    pub fn squeeze_at(mut self, cluster: u32, at: SimTime, bytes: u64) -> Self {
        self.events.push(FaultEvent {
            at,
            action: FaultAction::BudgetSqueeze(cluster),
        });
        self.squeezes.entry(cluster).or_default().push_back(bytes);
        self
    }

    /// Declare a traffic-amplification window: between `start` and `end`
    /// (exclusive), load generators consulting [`FaultSchedule::amplification`]
    /// should multiply their offered load by `factor`.
    pub fn burst(mut self, start: SimTime, end: SimTime, factor: u32) -> Self {
        self.bursts.push((start.as_ns(), end.as_ns(), factor));
        self
    }

    /// Flap link `link`: starting at `first_down`, alternate down/up every
    /// `half_period_ns` nanoseconds for `cycles` full down+up cycles. Edges
    /// that would fall past [`SimTime::MAX`] land on it, so the timeline
    /// never runs backwards.
    pub fn flap_link(
        mut self,
        link: u32,
        first_down: SimTime,
        half_period_ns: u64,
        cycles: u32,
    ) -> Self {
        let base = first_down.as_ns();
        let edge = |k: u64| SimTime::from_ns(base.saturating_add(k.saturating_mul(half_period_ns)));
        for i in 0..u64::from(cycles) {
            self = self
                .link_down_at(link, edge(2 * i))
                .link_up_at(link, edge(2 * i + 1));
        }
        self
    }

    /// Declare a gray-degradation window on `link`: between `start` and
    /// `end` (exclusive), every frame's hop latency is multiplied by
    /// `factor` (≥ 1.0) and stretched by a seeded jitter in `[0, jitter_ns]`.
    /// Unlike [`FaultSchedule::degrade_at`] this drops nothing and draws no
    /// randomness at arrival time — the delay is a pure function of
    /// `(seed, link, sim time)`, so sharded replays stay bit-identical.
    pub fn degrade(
        mut self,
        link: u32,
        start: SimTime,
        end: SimTime,
        factor: f64,
        jitter_ns: u64,
    ) -> Self {
        let factor_milli = ((factor.max(1.0)) * 1000.0).round() as u64;
        self.lat_windows.push(GrayWindow {
            link,
            start_ns: start.as_ns(),
            end_ns: end.as_ns(),
            factor_milli,
            jitter_ns,
        });
        self
    }

    /// Apply `faults` to every link without a per-link override.
    pub fn all_links(mut self, faults: LinkFaults) -> Self {
        self.default_link = faults;
        self
    }

    /// Override the fault profile of one link.
    pub fn link(mut self, link: u32, faults: LinkFaults) -> Self {
        self.per_link.insert(link, faults);
        self
    }

    /// Deterministically drop the `nth` (1-based) message to arrive on
    /// `link`, regardless of probabilities.
    pub fn drop_nth(mut self, link: u32, nth: u64) -> Self {
        self.scripted_drops.entry(link).or_default().push(nth);
        self
    }

    /// The crash/restart timeline, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True iff no message faults can ever fire (dispositions are then
    /// always [`Disposition::Deliver`] and consume no randomness).
    pub fn message_faults_possible(&self) -> bool {
        !self.scripted_drops.is_empty()
            || !self.default_link.is_none()
            || self.per_link.values().any(|f| !f.is_none())
            || self.degrades.values().flatten().any(|f| !f.is_none())
    }

    /// True iff a gray latency-degradation window exists anywhere in the
    /// schedule. Transport RTT estimators arm only when this is set, so
    /// fault-free and loss-only runs keep their calibration-default timers
    /// and replay byte-identically to earlier builds.
    pub fn gray_possible(&self) -> bool {
        !self.lat_windows.is_empty()
    }

    /// True iff delivered-latency statistics are worth recording (a gray
    /// window or any probabilistic message fault is configured). Keeps the
    /// per-frame counter update off the fast path of clean scale runs.
    pub fn track_latency(&self) -> bool {
        self.gray_possible() || self.message_faults_possible()
    }

    /// Extra delivery latency for a frame arriving on `link` at `now_ns`,
    /// given the fabric's base hop latency `hop_ns`. Overlapping windows
    /// take the worst inflation and the worst jitter bound. A pure function
    /// of `(seed, link, now_ns)`: no RNG state is consumed, so dispositions
    /// drawn before/after are unaffected and replays stay bit-identical.
    pub fn gray_delay_ns(&self, link: u32, now_ns: u64, hop_ns: u64) -> u64 {
        let mut factor_milli = 1000u64;
        let mut jitter_bound = 0u64;
        for w in &self.lat_windows {
            if w.link == link && w.start_ns <= now_ns && now_ns < w.end_ns {
                factor_milli = factor_milli.max(w.factor_milli);
                jitter_bound = jitter_bound.max(w.jitter_ns);
            }
        }
        if factor_milli == 1000 && jitter_bound == 0 {
            return 0;
        }
        let inflation = hop_ns.saturating_mul(factor_milli.saturating_sub(1000)) / 1000;
        let jitter = if jitter_bound == 0 {
            0
        } else {
            let h = SplitMix64::new(self.gray_seed ^ (u64::from(link) << 32) ^ now_ns).next_u64();
            // A bound of `u64::MAX` admits every word.
            jitter_bound.checked_add(1).map_or(h, |span| h % span)
        };
        inflation.saturating_add(jitter)
    }

    /// Per-link injection counters, keyed by link id. Links that never saw
    /// an injection have no entry.
    pub fn link_stats(&self) -> &BTreeMap<u32, LinkStats> {
        &self.link_stats
    }

    /// Install the next queued degrade profile for `link` (scheduled by
    /// [`FaultSchedule::degrade_at`]). Called by the layer that executes the
    /// timeline when a [`FaultAction::LinkDegrade`] fires. Returns the
    /// profile now in force.
    pub fn apply_degrade(&mut self, link: u32) -> LinkFaults {
        let f = self
            .degrades
            .get_mut(&link)
            .and_then(VecDeque::pop_front)
            .unwrap_or(LinkFaults::NONE);
        self.per_link.insert(link, f);
        f
    }

    /// Install the next queued byte budget for `cluster` (scheduled by
    /// [`FaultSchedule::squeeze_at`]). Called by the layer that executes the
    /// timeline when a [`FaultAction::BudgetSqueeze`] fires. Returns the
    /// budget now in force (`u64::MAX` once the queue is exhausted).
    pub fn apply_squeeze(&mut self, cluster: u32) -> u64 {
        self.squeezes
            .get_mut(&cluster)
            .and_then(VecDeque::pop_front)
            .unwrap_or(u64::MAX)
    }

    /// Traffic-amplification factor in force at `now_ns`: the largest factor
    /// among burst windows covering that instant, 1 outside every window. A
    /// pure function of time — consulting it consumes no randomness, so
    /// burst-driven load replays bit-identically.
    pub fn amplification(&self, now_ns: u64) -> u32 {
        self.bursts
            .iter()
            .filter(|&&(s, e, _)| s <= now_ns && now_ns < e)
            .map(|&(_, _, f)| f)
            .max()
            .unwrap_or(1)
    }

    /// Record a frame lost because it was in flight when `link` went down.
    /// Down-drops are scripted (no randomness) and counted per link only.
    pub fn note_down_drop(&mut self, link: u32) {
        self.link_stats.entry(link).or_default().down_drops += 1;
    }

    /// Record a frame shed at `link`'s switch by an exhausted byte budget.
    /// Sheds are deterministic (no randomness) and counted per link only.
    pub fn note_overload_shed(&mut self, link: u32) {
        self.link_stats.entry(link).or_default().shed += 1;
    }

    /// Record the timeline taking `link` down.
    pub fn note_link_down(&mut self, link: u32) {
        self.link_stats.entry(link).or_default().downs += 1;
    }

    /// Record the fault plane judging `link` to be flapping (a down within
    /// the damping window of the previous down).
    pub fn note_flap(&mut self, link: u32) {
        self.link_stats.entry(link).or_default().flaps += 1;
    }

    /// Record one delivered frame's end-to-end hop latency on `link`. Only
    /// called when [`FaultSchedule::track_latency`] is set, so clean runs
    /// pay nothing per frame.
    pub fn note_delivered(&mut self, link: u32, latency_ns: u64) {
        let s = self.link_stats.entry(link).or_default();
        if s.lat_count == 0 || latency_ns < s.lat_min_ns {
            s.lat_min_ns = latency_ns;
        }
        s.lat_max_ns = s.lat_max_ns.max(latency_ns);
        s.lat_sum_ns += latency_ns;
        s.lat_count += 1;
    }

    /// Decide the fate of one message arriving on `link`. Must be called
    /// exactly once per in-transit message, in arrival order.
    pub fn disposition(&mut self, link: u32) -> Disposition {
        let n = self.arrivals.entry(link).or_insert(0);
        *n += 1;
        let ordinal = *n;
        if let Some(script) = self.scripted_drops.get(&link) {
            if script.contains(&ordinal) {
                self.link_stats.entry(link).or_default().dropped += 1;
                return Disposition::Drop;
            }
        }
        let f = self.per_link.get(&link).unwrap_or(&self.default_link);
        if f.is_none() {
            return Disposition::Deliver;
        }
        let f = *f;
        if f.drop > 0.0 && self.rng.chance(f.drop) {
            self.link_stats.entry(link).or_default().dropped += 1;
            return Disposition::Drop;
        }
        if f.corrupt > 0.0 && self.rng.chance(f.corrupt) {
            self.link_stats.entry(link).or_default().corrupted += 1;
            return Disposition::Corrupt;
        }
        if f.delay > 0.0 && self.rng.chance(f.delay) {
            self.link_stats.entry(link).or_default().delayed += 1;
            return Disposition::Delay(f.delay_ns);
        }
        Disposition::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Messages the plane dropped, summed over its links.
    fn dropped(f: &FaultSchedule) -> u64 {
        f.link_stats().values().map(|s| s.dropped).sum()
    }

    #[test]
    fn same_seed_same_dispositions() {
        let mk = || FaultSchedule::new(42).all_links(LinkFaults::loss(0.3));
        let (mut a, mut b) = (mk(), mk());
        for link in 0..4u32 {
            for _ in 0..200 {
                assert_eq!(a.disposition(link), b.disposition(link));
            }
        }
        assert_eq!(a.link_stats(), b.link_stats());
        assert!(dropped(&a) > 0, "30% loss must fire in 800 draws");
    }

    #[test]
    fn scripted_drop_hits_exactly_the_nth() {
        let mut f = FaultSchedule::new(1).drop_nth(5, 3);
        assert_eq!(f.disposition(5), Disposition::Deliver);
        assert_eq!(f.disposition(5), Disposition::Deliver);
        assert_eq!(f.disposition(5), Disposition::Drop);
        assert_eq!(f.disposition(5), Disposition::Deliver);
        // Other links are untouched.
        assert_eq!(f.disposition(6), Disposition::Deliver);
        assert_eq!(dropped(&f), 1);
    }

    #[test]
    fn fault_free_links_consume_no_randomness() {
        let mut f = FaultSchedule::new(7)
            .link(1, LinkFaults::loss(1.0))
            .link(2, LinkFaults::NONE);
        // Draws on a fault-free link never perturb the stream of a faulty
        // one: interleaving order on link 2 is irrelevant.
        let seq_a: Vec<_> = (0..8).map(|_| f.disposition(1)).collect();
        let mut g = FaultSchedule::new(7)
            .link(1, LinkFaults::loss(1.0))
            .link(2, LinkFaults::NONE);
        let seq_b: Vec<_> = (0..8)
            .map(|_| {
                g.disposition(2);
                g.disposition(1)
            })
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn flap_expands_to_alternating_link_events() {
        let f = FaultSchedule::new(0).flap_link(7, SimTime::from_ns(1_000), 500, 2);
        let got: Vec<_> = f
            .events()
            .iter()
            .map(|e| (e.at.as_ns(), e.action))
            .collect();
        assert_eq!(
            got,
            vec![
                (1_000, FaultAction::LinkDown(7)),
                (1_500, FaultAction::LinkUp(7)),
                (2_000, FaultAction::LinkDown(7)),
                (2_500, FaultAction::LinkUp(7)),
            ]
        );
    }

    #[test]
    fn degrade_applies_profiles_in_timeline_order() {
        let mut f = FaultSchedule::new(3)
            .degrade_at(2, SimTime::from_ns(10), LinkFaults::loss(1.0))
            .degrade_at(2, SimTime::from_ns(20), LinkFaults::NONE);
        assert!(f.message_faults_possible(), "queued degrade counts");
        assert_eq!(f.apply_degrade(2), LinkFaults::loss(1.0));
        assert_eq!(f.disposition(2), Disposition::Drop);
        assert_eq!(f.apply_degrade(2), LinkFaults::NONE);
        assert_eq!(f.disposition(2), Disposition::Deliver);
        // Queue exhausted: a further apply restores the fault-free profile.
        assert_eq!(f.apply_degrade(2), LinkFaults::NONE);
    }

    #[test]
    fn per_link_stats_track_each_counter() {
        let mut f = FaultSchedule::new(9)
            .link(4, LinkFaults::loss(1.0))
            .drop_nth(5, 1);
        f.disposition(4);
        f.disposition(5);
        f.note_down_drop(4);
        f.note_link_down(4);
        let s4 = f.link_stats()[&4];
        assert_eq!((s4.dropped, s4.down_drops, s4.downs), (1, 1, 1));
        assert_eq!(f.link_stats()[&5].dropped, 1);
        assert!(
            !f.link_stats().contains_key(&6),
            "untouched links have no entry"
        );
        // The summed `dropped` excludes down-drops (those are scripted
        // losses, not dispositions, and counted apart).
        assert_eq!(dropped(&f), 2);
    }

    #[test]
    fn squeeze_applies_budgets_in_timeline_order() {
        let mut f = FaultSchedule::new(0)
            .squeeze_at(2, SimTime::from_ns(10), 4_096)
            .squeeze_at(2, SimTime::from_ns(20), u64::MAX);
        assert_eq!(f.events().len(), 2);
        assert_eq!(f.events()[0].action, FaultAction::BudgetSqueeze(2));
        assert_eq!(f.apply_squeeze(2), 4_096);
        assert_eq!(f.apply_squeeze(2), u64::MAX);
        // Queue exhausted: a further apply releases the budget.
        assert_eq!(f.apply_squeeze(2), u64::MAX);
        // Squeezes are scripted, not probabilistic.
        assert!(!f.message_faults_possible());
    }

    #[test]
    fn burst_amplification_is_a_pure_function_of_time() {
        let f = FaultSchedule::new(0)
            .burst(SimTime::from_ns(100), SimTime::from_ns(200), 4)
            .burst(SimTime::from_ns(150), SimTime::from_ns(300), 8);
        assert_eq!(f.amplification(0), 1);
        assert_eq!(f.amplification(100), 4);
        assert_eq!(f.amplification(150), 8, "overlap takes the max");
        assert_eq!(f.amplification(200), 8, "end is exclusive");
        assert_eq!(f.amplification(300), 1);
    }

    #[test]
    fn gray_delay_is_a_pure_function_of_time() {
        let f = FaultSchedule::new(11).degrade(
            3,
            SimTime::from_ns(1_000),
            SimTime::from_ns(2_000),
            2.5,
            400,
        );
        assert!(f.gray_possible());
        assert_eq!(f.gray_delay_ns(3, 999, 1_000), 0, "before the window");
        assert_eq!(f.gray_delay_ns(3, 2_000, 1_000), 0, "end is exclusive");
        assert_eq!(f.gray_delay_ns(4, 1_500, 1_000), 0, "other links untouched");
        let d = f.gray_delay_ns(3, 1_500, 1_000);
        // 2.5x of a 1000ns hop = 1500ns inflation, plus jitter in [0, 400].
        assert!((1_500..=1_900).contains(&d), "delay {d} out of range");
        // Pure function: same (seed, link, time) gives the same delay, and
        // consulting it consumes no RNG (dispositions unaffected).
        let g = FaultSchedule::new(11).degrade(
            3,
            SimTime::from_ns(1_000),
            SimTime::from_ns(2_000),
            2.5,
            400,
        );
        assert_eq!(d, g.gray_delay_ns(3, 1_500, 1_000));
        assert_ne!(
            f.gray_delay_ns(3, 1_500, 1_000),
            f.gray_delay_ns(3, 1_501, 1_000),
            "jitter varies with time (for this seed)"
        );
    }

    #[test]
    fn overlapping_gray_windows_take_the_worst_terms() {
        let f = FaultSchedule::new(0)
            .degrade(1, SimTime::from_ns(0), SimTime::from_ns(100), 3.0, 0)
            .degrade(1, SimTime::from_ns(50), SimTime::from_ns(200), 2.0, 0);
        assert_eq!(f.gray_delay_ns(1, 60, 1_000), 2_000, "max factor wins");
        assert_eq!(f.gray_delay_ns(1, 150, 1_000), 1_000);
    }

    #[test]
    fn gray_windows_do_not_count_as_message_faults() {
        let f =
            FaultSchedule::new(0).degrade(1, SimTime::from_ns(0), SimTime::from_ns(100), 2.0, 0);
        assert!(!f.message_faults_possible(), "no drop/corrupt configured");
        assert!(f.track_latency(), "but latency tracking arms");
        assert!(!FaultSchedule::new(0).gray_possible());
    }

    #[test]
    fn delivered_latency_stats_accumulate() {
        let mut f = FaultSchedule::new(0);
        f.note_delivered(2, 500);
        f.note_delivered(2, 100);
        f.note_delivered(2, 300);
        f.note_flap(2);
        let s = f.link_stats()[&2];
        assert_eq!((s.lat_min_ns, s.lat_max_ns, s.lat_count), (100, 500, 3));
        assert_eq!(s.lat_mean_ns(), 300);
        assert_eq!(s.flaps, 1);
    }

    #[test]
    fn overload_sheds_count_per_link() {
        let mut f = FaultSchedule::new(0);
        f.note_overload_shed(3);
        f.note_overload_shed(3);
        assert_eq!(f.link_stats()[&3].shed, 2);
        assert_eq!(dropped(&f), 0, "sheds are not probabilistic drops");
    }

    #[test]
    fn timeline_round_trips() {
        let f = FaultSchedule::new(0)
            .down_at(3, SimTime::from_ns(100))
            .up_at(3, SimTime::from_ns(200));
        assert_eq!(f.events().len(), 2);
        assert_eq!(f.events()[0].action, FaultAction::Down(3));
        assert_eq!(f.events()[1].action, FaultAction::Up(3));
        assert!(!f.message_faults_possible());
        assert!(FaultSchedule::new(0)
            .all_links(LinkFaults::loss(0.01))
            .message_faults_possible());
    }
}
