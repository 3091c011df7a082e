//! Parameters of the S/NET bus, receiver FIFOs, and recovery strategies.
//!
//! The mid-1980s S/NET–Meglos system is one machine, so its timings and
//! capacities are named constants, each with its derivation; a run chooses
//! only the processor count, the recovery [`Strategy`] and the seed
//! ([`crate::SnetSim::new`]). All times in ns.

/// Receiver FIFO capacity in bytes. "The hardware provided a fifo input
/// buffer for each processor that could hold several incoming messages, with
/// a combined length up to 2048 bytes." (§2)
pub const FIFO_BYTES: u32 = 2048;
/// Bus serialization time per byte. The S/NET was "a high speed
/// interconnect" for its day; we model 10 MB/s.
pub(crate) const BUS_NS_PER_BYTE: u64 = 100;
/// Fixed per-transfer bus overhead (arbitration, addressing).
pub(crate) const BUS_OVERHEAD_NS: u64 = 2_000;
/// Hardware envelope per message on the bus.
pub const HEADER_BYTES: u32 = 12;
/// Receiver software FIFO read rate (kernel word-copy loop on a Motorola
/// 68000-class CPU), per byte.
pub(crate) const SW_READ_NS_PER_BYTE: u64 = 300;
/// Receiver software per-message overhead (interrupt entry + dispatch).
pub(crate) const SW_PER_MSG_NS: u64 = 50_000;
/// Granularity at which the receiver's FIFO read loop frees space. The
/// lockout of §2 depends on space being freed gradually ("the receiver could
/// not remove words from its fifo fast enough").
pub(crate) const DRAIN_CHUNK_BYTES: u32 = 64;
/// Busy-retry loop interval: how quickly a rejected sender re-offers its
/// message ("continuously resend their message until it was successfully
/// received").
pub(crate) const RETRY_NS: u64 = 10_000;
/// Initial random-backoff window; doubles per consecutive rejection.
pub(crate) const BACKOFF_INITIAL_NS: u64 = 100_000;
/// Random-backoff window cap.
pub(crate) const BACKOFF_MAX_NS: u64 = 10_000_000;
/// Length of a reservation-protocol control message (request / grant).
pub(crate) const CONTROL_BYTES: u32 = 16;
/// Software cost to generate or act on a reservation control message.
pub(crate) const RESERVATION_SW_NS: u64 = 30_000;

/// Bus occupancy of a message with `payload` bytes.
pub(crate) const fn transfer_ns(payload: u32) -> u64 {
    BUS_OVERHEAD_NS + BUS_NS_PER_BYTE * (payload + HEADER_BYTES) as u64
}

/// How a sender recovers when the receiver's FIFO rejects its message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Original Meglos plan: "continuously resend their message until it was
    /// successfully received". Subject to lockout.
    BusyRetry,
    /// Ethernet-style random exponential backoff: avoids lockout "but when
    /// many messages need to be retransmitted, communications runs at the
    /// timeout rate".
    RandomBackoff,
    /// Reservation protocol: a short request precedes the data; the receiver
    /// authorizes one sender at a time, eliminating overflow at the cost of
    /// "extra software and communications overhead \[that\] would increase
    /// latency for all messages".
    Reservation,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::BusyRetry => "busy-retry",
            Strategy::RandomBackoff => "random-backoff",
            Strategy::Reservation => "reservation",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_header_and_overhead() {
        assert_eq!(transfer_ns(0), 2_000 + 1_200);
        assert_eq!(transfer_ns(1024), 2_000 + 100 * 1036);
    }

    // The paper's two preconditions on the constants, checked when the
    // tests compile.

    #[test]
    fn lockout_preconditions_hold_for_paper_defaults() {
        // The §2 lockout requires the bus to deliver faster than the
        // receiver software frees space: bytes freed during one long
        // transfer must be smaller than the message.
        const { assert!(transfer_ns(1024) / SW_READ_NS_PER_BYTE < (1024 + HEADER_BYTES) as u64) };
    }

    #[test]
    fn twelve_150_byte_messages_fit_the_fifo() {
        // "12 processors could each send a 150 byte message to a single
        // processor without overflowing its fifo." (§2)
        const { assert!(12 * (150 + HEADER_BYTES) <= FIFO_BYTES) };
    }
}
