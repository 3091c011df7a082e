//! Jacobson/Karn round-trip-time estimation (DESIGN.md §15).
//!
//! Fixed retransmission timeouts turn *slow* links into *dead* links: a
//! gray-degraded path whose acks take longer than `chan_ack_timeout_ns`
//! triggers a retransmit storm and, after retry exhaustion, a false
//! `PeerDown`. The classic answer (Jacobson 1988, and the multiprocessor
//! transport work in PAPERS.md) is to derive the timer from observed
//! round-trip behaviour:
//!
//! ```text
//! first sample:  SRTT = RTT,               RTTVAR = RTT / 2
//! afterwards:    RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − RTT|
//!                SRTT   = 7/8·SRTT   + 1/8·RTT
//! RTO = clamp(SRTT + 4·RTTVAR, floor, ceiling)
//! ```
//!
//! Karn's rule: only *unambiguous* acks — those for a frame that was never
//! retransmitted — contribute samples, because an ack for a retransmitted
//! frame cannot be attributed to a particular transmission.
//!
//! The estimator is pure integer arithmetic over sim-time nanoseconds, so
//! sharded replays stay bit-identical.

/// One SRTT/RTTVAR estimator (per channel end, or per membership peer).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RttEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    samples: u64,
}

impl RttEstimator {
    /// A fresh estimator with no samples; [`RttEstimator::rto_ns`] returns
    /// `None` until the first sample arrives.
    pub fn new() -> Self {
        RttEstimator::default()
    }

    /// Fold in one unambiguous round-trip sample.
    pub fn sample(&mut self, rtt_ns: u64) {
        if self.samples == 0 {
            self.srtt_ns = rtt_ns;
            self.rttvar_ns = rtt_ns / 2;
        } else {
            let err = self.srtt_ns.abs_diff(rtt_ns);
            self.rttvar_ns = (3 * self.rttvar_ns + err) / 4;
            self.srtt_ns = (7 * self.srtt_ns + rtt_ns) / 8;
        }
        self.samples += 1;
    }

    /// Smoothed round-trip time, ns (0 before the first sample).
    pub fn srtt_ns(&self) -> u64 {
        self.srtt_ns
    }

    /// Samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The retransmission timeout `SRTT + 4·RTTVAR`, clamped to
    /// `[floor_ns, ceil_ns]`; `None` before the first sample (callers fall
    /// back to their calibration constant).
    pub fn rto_ns(&self, floor_ns: u64, ceil_ns: u64) -> Option<u64> {
        if self.samples == 0 {
            return None;
        }
        let raw = self.srtt_ns.saturating_add(4 * self.rttvar_ns);
        Some(raw.clamp(floor_ns, ceil_ns.max(floor_ns)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut e = RttEstimator::new();
        assert_eq!(e.rto_ns(0, u64::MAX), None);
        e.sample(8_000);
        assert_eq!(e.srtt_ns(), 8_000);
        assert_eq!(e.rto_ns(0, u64::MAX), Some(24_000));
    }

    #[test]
    fn steady_samples_converge_and_variance_decays() {
        let mut e = RttEstimator::new();
        for _ in 0..64 {
            e.sample(10_000);
        }
        assert_eq!(e.srtt_ns(), 10_000);
        // Which is exactly why the floor clamp exists.
        assert_eq!(e.rto_ns(5_000, u64::MAX), Some(10_000));
        assert_eq!(e.rto_ns(20_000, u64::MAX), Some(20_000));
    }

    #[test]
    fn rto_clamps_to_ceiling() {
        let mut e = RttEstimator::new();
        e.sample(1_000_000_000);
        assert_eq!(e.rto_ns(0, 50_000_000), Some(50_000_000));
    }

    #[test]
    fn jittery_samples_widen_the_timeout() {
        let mut e = RttEstimator::new();
        for i in 0..32u64 {
            e.sample(if i % 2 == 0 { 5_000 } else { 15_000 });
        }
        let rto = e.rto_ns(0, u64::MAX).unwrap();
        assert!(rto > 15_000, "RTO {rto} must cover the observed spread");
    }
}
