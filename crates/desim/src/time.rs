//! Virtual time for the simulation.
//!
//! Simulated time is a count of nanoseconds since the start of the
//! simulation. Nanosecond resolution comfortably covers the 1988 cost model
//! of the HPC/VORX paper (the finest quantity we model is the 50 ns
//! serialization time of one byte on a 160 Mbit/s HPC link) while `u64`
//! range allows simulations of ~584 years, far beyond any experiment.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in simulated time, measured in nanoseconds from simulation
/// start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" bound.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds since simulation start.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so such a call is a logic error in the caller.
    pub(crate) fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: `earlier` is later than `self`"),
        )
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (for reporting).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Milliseconds as a float (for reporting).
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True iff this is the empty span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Integer division into another duration, e.g. for per-message averages.
    pub fn checked_div(self, n: u64) -> Option<SimDuration> {
        self.0.checked_div(n).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: simulation ran past u64 nanoseconds"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: subtracted past simulation start"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

fn fmt_ns(ns: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // Pick the largest unit that keeps the value >= 1 for readability.
    if ns >= 1_000_000_000 {
        write!(f, "{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        write!(f, "{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        write!(f, "{:.3}us", ns as f64 / 1e3)
    } else {
        write!(f, "{ns}ns")
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t=")?;
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ns(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_us(3).as_ns(), 3_000);
        assert_eq!(SimDuration::from_ms(2).as_ns(), 2_000_000);
        assert_eq!(SimTime::from_ns(42).as_ns(), 42);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(40);
        assert_eq!((t + d).as_ns(), 140);
        assert_eq!((t + d - d).as_ns(), 100);
        assert_eq!((t + d) - t, d);
        assert_eq!((d + d).as_ns(), 80);
        assert_eq!((d * 3).as_ns(), 120);
        assert_eq!((d / 4).as_ns(), 10);
        assert_eq!(d - d, SimDuration::ZERO);
        assert!((d / 4) < d);
    }

    #[test]
    fn since_and_saturating() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(25);
        assert_eq!(b.since(a).as_ns(), 15);
        assert_eq!(
            SimDuration::from_ns(5).saturating_sub(SimDuration::from_ns(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn since_panics_when_backwards() {
        SimTime::from_ns(1).since(SimTime::from_ns(2));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_ns(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_us(303).to_string(), "303.000us");
        assert_eq!(SimDuration::from_ms(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_ms(2_000).to_string(), "2.000s");
    }

    #[test]
    fn float_views() {
        assert!((SimDuration::from_us(303).as_us_f64() - 303.0).abs() < 1e-9);
        assert!((SimDuration::from_ms(12).as_ms_f64() - 12.0).abs() < 1e-9);
        assert!((SimDuration::from_ms(3_000).as_secs_f64() - 3.0).abs() < 1e-12);
        assert!((SimTime::from_ns(1_500).as_us_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_us).sum();
        assert_eq!(total, SimDuration::from_us(10));
    }

    #[test]
    fn checked_div() {
        assert_eq!(
            SimDuration::from_us(10).checked_div(4),
            Some(SimDuration::from_ns(2_500))
        );
        assert_eq!(SimDuration::from_us(10).checked_div(0), None);
    }
}
