//! Hardware timing/capacity parameters of the HPC interconnect.
//!
//! The 1988 hardware is one machine: its link rate, hop latency, buffer
//! slots and combining-ALU latency are named constants here, with their
//! derivation. [`NetConfig`] holds only what a run varies: the sheddable
//! byte budget per switch and the combining window.
//!
//! Durations are expressed in nanoseconds (the fabric is independent of
//! `desim`); the embedding layer converts them to `SimDuration`.

/// Number of ports on one HPC cluster (§1 of the paper: "self-routing star
/// networks called clusters, each of which contains twelve ports").
pub const PORTS_PER_CLUSTER: usize = 12;

/// Serialization time of one byte on a port, in ns. The paper's ports run at
/// 160 Mbit/s = 20 MB/s, i.e. 50 ns/byte.
pub const NS_PER_BYTE: u64 = 50;

/// Fixed per-hop latency (switch decision + propagation), in ns. Fiber runs
/// "over a kilometer" are possible; we model a short in-room link. Hardware
/// latency is "much smaller than the latency introduced by the
/// communications software" (§1), so this stays ≤ a few µs.
pub const HOP_LATENCY_NS: u64 = 500;

/// Whole-message buffer slots at each cluster input port. A link "refuses to
/// accept a message unless the hardware has room to buffer an entire
/// message" (§2) — this is the hardware flow control.
pub(crate) const CLUSTER_PORT_SLOTS: usize = 2;

/// Whole-message buffer slots in an endpoint's receive FIFO.
pub(crate) const ENDPOINT_RX_SLOTS: usize = 4;

/// Combining-ALU latency per merge at a star coupler, in ns (a register-file
/// ALU pass): each contribution folded into a held partial extends the
/// partial's readiness by this much. Only consulted once a collective group
/// is registered ([`crate::Fabric::comb_register_group`]).
pub(crate) const COMB_ALU_NS: u64 = 100;

/// Serialization time for `bytes` on a port, in ns.
pub fn serialize_ns(bytes: u32) -> u64 {
    NS_PER_BYTE * u64::from(bytes)
}

/// Latency of one store-and-forward hop for a frame of `wire_bytes`: full
/// serialization onto the link plus the fixed switch/propagation latency.
/// Every link a frame crosses pays at least this much, which is what gives
/// the sharded engine its lookahead.
pub(crate) fn link_latency_ns(wire_bytes: u32) -> u64 {
    serialize_ns(wire_bytes) + HOP_LATENCY_NS
}

/// Per-link latency (ns) of a header-only frame — the unit that converts
/// [`crate::Topology::min_shard_links`] into the sharded engine's
/// per-shard-pair lookahead (no frame is smaller, so `links × this`
/// lower-bounds the fabric latency of any frame on a path of `links` links).
pub fn header_link_latency_ns() -> u64 {
    link_latency_ns(crate::frame::HEADER_BYTES)
}

/// The fabric parameters a run varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Store-and-forward byte budget per cluster switch for *sheddable*
    /// (lowest-priority, data-class) frames. A sheddable frame whose wire
    /// bytes would push the cluster's buffered sheddable bytes past this
    /// budget is dropped at arrival instead of buffered (deterministic load
    /// shedding; counted in `Stats::frames_shed`). `u64::MAX` — the default,
    /// and the 1988 hardware — disables the budget entirely.
    pub switch_byte_budget: u64,
    /// Combining window, in ns: the longest a star coupler holds a partial
    /// combine waiting for more contributions before flushing it onward.
    /// Bounds the latency a straggler (or a lost contribution) can impose
    /// on the rest of its subtree — see DESIGN.md §16.
    pub comb_window_ns: u64,
}

impl NetConfig {
    /// The 1988 HPC hardware as described by the paper.
    pub fn paper_1988() -> Self {
        NetConfig {
            switch_byte_budget: u64::MAX, // unbounded: the paper's hardware
            comb_window_ns: 20_000,       // bounds straggler hold time
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig::paper_1988()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rate_is_160_mbit() {
        // 20 MB/s => 1024 bytes serialize in 51.2 us.
        assert_eq!(serialize_ns(1024), 51_200);
        assert_eq!(serialize_ns(0), 0);
    }
}
