//! The 1988 cost model: every software cost constant used by the VORX
//! simulation, in one place.
//!
//! The paper's nodes are 25 MHz Motorola 68020s with 68882 FPUs; hosts are
//! SUN-3 workstations running SunOS. We cannot run that hardware, so each
//! software operation is charged a calibrated amount of simulated CPU time.
//! `Calibration::paper_1988()` is tuned so that the reproduction of Table 1
//! and Table 2 lands near the published values; the derivation of each
//! number is given on its field or constant.
//!
//! A value that some run or test varies is a field of [`Calibration`]: the
//! 20 CPU costs (zeroed by [`Calibration::instant`], ablated by the `paper`
//! campaign) and seven protocol settings. A value nothing varies is a named
//! constant here, with its derivation: the side buffers per channel end
//! ([`CHAN_SIDE_BUFFERS`]), the SunOS descriptor table ([`STUB_FD_LIMIT`]),
//! the control and open retry timers ([`CTL_TIMEOUT_NS`],
//! [`CTL_MAX_RETRIES`], [`OPEN_TIMEOUT_NS`], [`OPEN_MAX_RETRIES`]), the
//! adaptive-timer clamps ([`RTO_FLOOR_NS`], [`RTO_CEIL_NS`]), link flap
//! damping ([`FLAP_DAMP_DOWNS`], [`FLAP_WINDOW_NS`], [`FLAP_HOLD_NS`]) and
//! the kernel table bounds ([`MAX_CHANS_PER_NODE`],
//! [`LISTENER_BACKLOG_CAP`]).
//!
//! Everything is expressed in nanoseconds (`u64`).

use desim::SimDuration;

/// Software cost constants for the VORX kernel, user-level communications,
/// and host workstations. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Calibration {
    // ----- kernel interrupt / receive path -----
    /// Interrupt entry + vectoring + kernel prologue.
    pub intr_entry_ns: u64,
    /// Kernel demultiplex of a received frame (find channel/object, header
    /// checks) after it has been read from the FIFO.
    pub rx_dispatch_ns: u64,
    /// Reading one byte from the HPC input FIFO into kernel memory
    /// (68020 word-copy loop).
    pub fifo_read_ns_per_byte: u64,

    // ----- channel protocol (§4, Table 2) -----
    /// `write` syscall entry, protocol header construction, transmit start.
    pub chan_write_syscall_ns: u64,
    /// `read` syscall entry/exit bookkeeping (excluding the data copy).
    pub chan_read_syscall_ns: u64,
    /// Copying a received message from kernel FIFO staging into a channel
    /// side buffer, per byte. The kernel acks only after this copy, so it is
    /// on the sender-visible path.
    pub chan_sidebuf_ns_per_byte: u64,
    /// Generating and transmitting the kernel-level acknowledgement.
    pub chan_ack_gen_ns: u64,
    /// Copying from the side buffer to the reader's user buffer, per byte
    /// (off the sender-visible path).
    pub copy_user_ns_per_byte: u64,

    // ----- subprocess scheduling (§5) -----
    /// A full context switch, "which includes saving both fixed and floating
    /// point registers\[,\] takes 80 µsec" — measured by the paper.
    pub ctx_switch_ns: u64,
    /// A coroutine switch: "most registers need not be saved".
    pub coroutine_switch_ns: u64,

    // ----- user-defined communications objects (§4.1, Table 1) -----
    /// User-level send with direct hardware access: build the frame and poke
    /// the output registers (no supervisor call).
    pub udco_send_ns: u64,
    /// Copying the payload into the output interface, per byte.
    pub udco_copy_ns_per_byte: u64,
    /// Kernel trampoline into a user-specified interrupt service routine and
    /// back (the price of taking interrupts at user level).
    pub user_isr_ns: u64,
    /// Polling the interface for input with interrupts disabled (§5's
    /// "test for input at convenient places" technique).
    pub udco_poll_ns: u64,
    /// Raw-mode send: the leanest direct-register path (parallel SPICE's
    /// "no low-level protocol" technique, §4.1).
    pub raw_send_ns: u64,
    /// Raw-mode input poll (a register test in a tight loop).
    pub raw_poll_ns: u64,

    // ----- object manager (§3.2) -----
    /// Service time for one channel-open request at an object manager.
    pub objmgr_service_ns: u64,

    // ----- hosts and stubs (§3.3) -----
    /// Creating one stub process on a SunOS host (fork + exec + channel
    /// plumbing). Dominates the per-process-stub download path.
    pub stub_create_ns: u64,
    /// Host-side service time for one forwarded UNIX system call.
    pub host_syscall_ns: u64,
    /// Host CPU copy rate, per byte (program text downloads).
    pub host_copy_ns_per_byte: u64,

    // ----- fault recovery (timeouts and retry budgets) -----
    //
    // The 1988 hardware never lost a frame (store-and-forward with hardware
    // flow control), so these values have no Table to calibrate against.
    // They are protocol settings, not CPU costs: `instant()` keeps them
    // nonzero because a zero retransmission timeout would be a busy loop.
    // The control and open timers, which nothing varies, are the constants
    // below the struct.
    /// Base ack timeout for a channel data fragment; doubles per retry.
    pub chan_ack_timeout_ns: u64,
    /// Retransmissions of a data fragment before the peer is declared down.
    pub chan_max_retries: u32,
    /// Delay between a node crash and its peers learning of it (the soft
    /// failure-detection sweep). `u64::MAX` disables detection, leaving
    /// retry exhaustion as the only signal.
    pub crash_detect_ns: u64,
    /// Delay between a link failure and the membership sweep declaring
    /// mutually unreachable (but alive) node pairs *partitioned*. Pairs are
    /// snapshotted at link-down time and rechecked when the sweep fires, so
    /// a heal inside the window suppresses the declaration. `u64::MAX`
    /// disables the sweep, leaving heartbeat-probe exhaustion as the only
    /// partition signal.
    pub partition_detect_ns: u64,

    // ----- windowed channel data path (Tables 1/2 ordering) -----
    //
    // The paper's §5 channels are stop-and-wait; its Table 1 shows the
    // sliding-window UDCO roughly doubling goodput over them. These
    // constants make windowed transfer a first-class *channel* mode:
    // `chan_window = 1` is bit-for-bit the stop-and-wait protocol, and any
    // larger value enables the credit-based pipeline (see DESIGN.md §10).
    /// Fragments a writer may keep in flight before blocking. 1 =
    /// stop-and-wait (the paper's §5 protocol and the default).
    pub chan_window: u32,
    /// Receiver-side fragment buffering in windowed mode: the credit pool
    /// advertised to the writer (side buffers counted in fragments, like the
    /// UDCO "buffers" column of Table 1).
    pub chan_rx_frag_buffers: u32,
    /// Bound on the receiver's out-of-order reorder buffer, in fragments.
    /// Clamped to 32 (the selective-ack bitmap width); fragments beyond
    /// `cum_ack + bound` are dropped and retransmitted later.
    pub chan_reorder_frags: u32,
}

// ----- side buffers and stubs -----

/// Side buffers per channel end ("the kernel has many side buffers").
pub const CHAN_SIDE_BUFFERS: usize = 8;

/// Open file descriptors allowed per stub ("limited by the SunOS kernel to
/// 32 open file descriptors").
pub const STUB_FD_LIMIT: usize = 32;

// ----- fault recovery: control and open timers -----
//
// Protocol constants like the channel ack timeout on `Calibration`, with
// no Table to calibrate against and nonzero for the same reason.

/// Base timeout for reliable control frames (open replies, connect
/// notifications, closes); doubles per retry.
pub const CTL_TIMEOUT_NS: u64 = 20_000_000;
/// Retransmissions of a control frame before giving up.
pub const CTL_MAX_RETRIES: u32 = 6;
/// Base timeout for an unacknowledged open/listen request to the object
/// manager; doubles per retry.
pub const OPEN_TIMEOUT_NS: u64 = 50_000_000;
/// Retransmissions of an open/listen request before the manager is declared
/// unreachable.
pub const OPEN_MAX_RETRIES: u32 = 8;

// ----- adaptive timers (gray failures, DESIGN.md §15) -----
//
// Jacobson/Karn retransmission-timer estimation: RTO = SRTT + 4·RTTVAR,
// clamped to [RTO_FLOOR_NS, RTO_CEIL_NS]. The estimator arms only when the
// fault schedule contains a gray (pure-delay) degradation window; otherwise
// every timer uses the fixed constants above and traces stay byte-identical
// to pre-estimator builds.

/// Lower clamp on the adaptive retransmission timeout. Keeps a freshly
/// converged estimator from firing inside normal delivery jitter.
pub const RTO_FLOOR_NS: u64 = 5_000_000;
/// Upper clamp on the adaptive retransmission timeout (pre-backoff).
pub const RTO_CEIL_NS: u64 = 640_000_000;
/// Downs within [`FLAP_WINDOW_NS`] before the fault plane declares a link
/// *flapping* and holds it down.
pub const FLAP_DAMP_DOWNS: u32 = 3;
/// Sliding window over which downs of one link count toward damping.
pub const FLAP_WINDOW_NS: u64 = 50_000_000;
/// How long a flapping link is held down after its last transition before
/// it is reinstated (hysteresis: each new flap extends the hold).
pub const FLAP_HOLD_NS: u64 = 100_000_000;

// ----- resource budgets (graceful degradation, DESIGN.md §13) -----
//
// Every kernel table is bounded so an overloaded or abused node refuses
// work (`VorxError::ResourceExhausted`) instead of growing without limit.
// The bounds are far above anything a correct workload reaches, so they
// change no existing behavior. The object manager's pending-open queue
// needs no bound: it holds at most one opener per name by construction.

/// Channels a single node may hold open concurrently; `rendezvous` refuses
/// further opens.
pub const MAX_CHANS_PER_NODE: usize = 4096;
/// Unaccepted connections a listener may queue; further `SERVE_CONN`s are
/// discarded (the client's own open retry/timeout path recovers).
pub const LISTENER_BACKLOG_CAP: usize = 1024;

impl Calibration {
    /// The tuned 1988 model. Rationale:
    ///
    /// * `ctx_switch_ns = 80_000` is measured by the paper (§5).
    /// * FIFO/copy rates ≈ 0.3 µs/byte: a 25 MHz 68020 moving one 32-bit
    ///   word per ~7-8 cycles of loads/stores/loop overhead.
    /// * The channel fixed costs are tuned so a 4-byte channel write cycle
    ///   lands at ≈ 303 µs (Table 2) with the hardware model's two hops.
    /// * The UDCO costs are tuned so the sliding-window asymptote lands near
    ///   164 µs for 4-byte messages (Table 1, 64 buffers).
    pub fn paper_1988() -> Self {
        Calibration {
            intr_entry_ns: 20_000,
            rx_dispatch_ns: 12_000,
            fifo_read_ns_per_byte: 300,
            chan_write_syscall_ns: 106_000,
            chan_read_syscall_ns: 25_000,
            chan_sidebuf_ns_per_byte: 300,
            chan_ack_gen_ns: 18_000,
            copy_user_ns_per_byte: 150,
            ctx_switch_ns: 80_000,
            coroutine_switch_ns: 8_000,
            udco_send_ns: 45_000,
            udco_copy_ns_per_byte: 300,
            user_isr_ns: 60_000,
            udco_poll_ns: 5_000,
            raw_send_ns: 10_000,
            raw_poll_ns: 2_000,
            objmgr_service_ns: 150_000,
            stub_create_ns: 60_000_000,
            host_syscall_ns: 2_000_000,
            host_copy_ns_per_byte: 100,
            chan_ack_timeout_ns: 20_000_000,
            chan_max_retries: 6,
            crash_detect_ns: 200_000_000,
            partition_detect_ns: 250_000_000,
            chan_window: 1,
            chan_rx_frag_buffers: 64,
            chan_reorder_frags: 32,
        }
    }

    /// The 1988 model with a `w`-fragment channel window (`w = 1` is
    /// [`Calibration::paper_1988`] exactly).
    pub fn paper_1988_windowed(w: u32) -> Self {
        let mut c = Calibration::paper_1988();
        c.chan_window = w.max(1);
        c
    }

    /// An idealized zero-cost-software calibration, useful in unit tests
    /// that check protocol *logic* rather than timing: every CPU cost is 0,
    /// the protocol settings are [`Calibration::paper_1988`]'s.
    pub fn instant() -> Self {
        Calibration {
            intr_entry_ns: 0,
            rx_dispatch_ns: 0,
            fifo_read_ns_per_byte: 0,
            chan_write_syscall_ns: 0,
            chan_read_syscall_ns: 0,
            chan_sidebuf_ns_per_byte: 0,
            chan_ack_gen_ns: 0,
            copy_user_ns_per_byte: 0,
            ctx_switch_ns: 0,
            coroutine_switch_ns: 0,
            udco_send_ns: 0,
            udco_copy_ns_per_byte: 0,
            user_isr_ns: 0,
            udco_poll_ns: 0,
            raw_send_ns: 0,
            raw_poll_ns: 0,
            objmgr_service_ns: 0,
            stub_create_ns: 0,
            host_syscall_ns: 0,
            host_copy_ns_per_byte: 0,
            ..Self::paper_1988()
        }
    }

    /// Cost of moving `bytes` at `rate` ns/byte.
    pub(crate) fn per_byte(rate: u64, bytes: u32) -> SimDuration {
        SimDuration::from_ns(rate * u64::from(bytes))
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::paper_1988()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_context_switch_is_80us() {
        assert_eq!(Calibration::paper_1988().ctx_switch_ns, 80_000);
    }

    #[test]
    fn instant_calibration_is_free() {
        let c = Calibration::instant();
        assert_eq!(c.chan_write_syscall_ns, 0);
        assert_eq!(c.ctx_switch_ns, 0);
    }

    #[test]
    fn per_byte_scales() {
        assert_eq!(
            Calibration::per_byte(300, 1024),
            SimDuration::from_ns(307_200)
        );
    }
}
