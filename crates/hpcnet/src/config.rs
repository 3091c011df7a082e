//! Hardware timing/capacity parameters of the HPC interconnect.

/// Number of ports on one HPC cluster (§1 of the paper: "self-routing star
/// networks called clusters, each of which contains twelve ports").
pub const PORTS_PER_CLUSTER: usize = 12;

/// Timing and buffering parameters for the fabric model.
///
/// Durations are expressed in nanoseconds here (the fabric is independent
/// of `desim`); the embedding layer converts them to `SimDuration`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Serialization time of one byte on a port, in ns. The paper's ports
    /// run at 160 Mbit/s = 20 MB/s, i.e. 50 ns/byte.
    pub ns_per_byte: u64,
    /// Fixed per-hop latency (switch decision + propagation), in ns. Fiber
    /// runs "over a kilometer" are possible; we default to a short in-room
    /// link. Hardware latency is "much smaller than the latency introduced
    /// by the communications software" (§1), so this stays ≤ a few µs.
    pub hop_latency_ns: u64,
    /// Whole-message buffer slots at each cluster input port. A link
    /// "refuses to accept a message unless the hardware has room to buffer
    /// an entire message" (§2) — this is the hardware flow control.
    pub cluster_port_slots: usize,
    /// Whole-message buffer slots in an endpoint's receive FIFO.
    pub endpoint_rx_slots: usize,
    /// Store-and-forward byte budget per cluster switch for *sheddable*
    /// (lowest-priority, data-class) frames. A sheddable frame whose wire
    /// bytes would push the cluster's buffered sheddable bytes past this
    /// budget is dropped at arrival instead of buffered (deterministic load
    /// shedding; counted in `Stats::frames_shed`). `u64::MAX` — the default,
    /// and the 1988 hardware — disables the budget entirely.
    pub switch_byte_budget: u64,
    /// Combining-ALU latency per merge at a star coupler, in ns: each
    /// contribution folded into a held partial extends the partial's
    /// readiness by this much. Only consulted once a collective group is
    /// registered ([`crate::Fabric::comb_register_group`]).
    pub comb_alu_ns: u64,
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
            ns_per_byte: 50,     // 160 Mbit/s
            hop_latency_ns: 500, // self-routing switch decision, short fiber
            cluster_port_slots: 2,
            endpoint_rx_slots: 4,
            switch_byte_budget: u64::MAX, // unbounded: the paper's hardware
            comb_alu_ns: 100,             // a register-file ALU pass
            comb_window_ns: 20_000,       // bounds straggler hold time
        }
    }

    /// Serialization time for `bytes` on a port, in ns.
    pub fn serialize_ns(&self, bytes: u32) -> u64 {
        self.ns_per_byte * u64::from(bytes)
    }

    /// Latency of one store-and-forward hop for a frame of `wire_bytes`:
    /// full serialization onto the link plus the fixed switch/propagation
    /// latency. Every link a frame crosses pays at least this much, which is
    /// what gives the sharded engine its lookahead.
    pub fn link_latency_ns(&self, wire_bytes: u32) -> u64 {
        self.serialize_ns(wire_bytes) + self.hop_latency_ns
    }

    /// Per-link latency (ns) of a header-only frame — the unit that converts
    /// [`crate::Topology::cluster_link_counts`] into the sharded engine's
    /// per-pair lookahead matrix (no frame is smaller, so `links × this`
    /// lower-bounds the fabric latency of any frame on a path of `links`
    /// links).
    pub fn header_link_latency_ns(&self) -> u64 {
        self.link_latency_ns(crate::frame::HEADER_BYTES)
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
        let c = NetConfig::paper_1988();
        // 20 MB/s => 1024 bytes serialize in 51.2 us.
        assert_eq!(c.serialize_ns(1024), 51_200);
        assert_eq!(c.serialize_ns(0), 0);
    }
}
