//! Channels: VORX's standard communications abstraction (§4).
//!
//! "Channels provide low latency, high bandwidth message passing
//! communications between processors. [...] they are set up with a single
//! open call and data is transferred with read and write calls."
//!
//! Implementation follows the paper:
//!
//! * **Rendezvous by name** through the object manager (§3.2 /
//!   [`crate::objmgr`]).
//! * **Stop-and-wait** protocol: the writer's kernel transmits one fragment
//!   and blocks the writing process until the *receiving kernel*
//!   acknowledges it. No sender-side copy is needed, because the data stays
//!   in place until acknowledged.
//! * **Side buffers**: the receiving kernel copies each fragment into a
//!   side buffer and acks; if the side buffers are full (rare), the ack is
//!   withheld until the reader frees space, which stalls the writer — the
//!   protocol's flow control.
//! * Writes larger than the 1024-byte hardware payload are fragmented and
//!   reassembled transparently; a read returns one whole written message.
//! * **Multiplexed read** ([`read_any`]): block until data arrives on any of
//!   several channels.
//!
//! ## Windowed mode (`Calibration::chan_window > 1`)
//!
//! The paper's Table 1 shows sliding-window transfer roughly doubling
//! goodput over stop-and-wait. With `chan_window = W > 1` a `write` returns
//! once its fragments are accepted into the kernel's W-deep transmit window,
//! acknowledgements are cumulative with a selective-ack bitmap
//! ([`proto::KIND_CHAN_WACK`]), and the receiver reassembles in order
//! through a bounded reorder buffer while granting credits.
//!
//! ## One sender, two protocols
//!
//! Stop-and-wait is *not* the W = 1 case of the window: the two differ in
//! what the paper measures, so both data paths stay. What they share is the
//! sender's retransmission state ([`WinTx`]), of which a stop-and-wait
//! `write` is the depth-1 user. See DESIGN.md §10.
//!
//! | shared by both modes | where |
//! |---|---|
//! | in-flight set (fragments kept until acked) | [`WinTx::inflight`] |
//! | received messages awaiting `read`, each with the credit it holds | [`ChanEnd::rx`] |
//! | the retry chain and busy grants | [`WinTx`] |
//! | the one retransmit timer: a [`crate::retry`] chain | `TxRetry` |
//! | the one retransmission loop | `retransmit_inflight` |
//! | give-up → `peer_down` or heartbeat probe | `TxRetry::give_up` |
//! | pause / resume / wipe | `pause_tx`, `resume_tx`, `clear_tx` |
//!
//! Every end of a world is a row of one world table, in [`ChanSlab`], and
//! both its queues are FIFOs over one slab each beside it: an end's first
//! message or fragment takes a free slot, and a crash wipe hands back the
//! slots of the ends it removes.
//!
//! | per mode (Table 1 has a row for each) | stop-and-wait | windowed |
//! |---|---|---|
//! | ack wire format | 0-byte `KIND_CHAN_ACK` per fragment | 8-byte `KIND_CHAN_WACK`: cumulative + sack + credit |
//! | receive charges | side-buffer copy + ack generation, then a user copy in `read` | ack generation only (payload handed over by reference) |
//! | where `write` blocks ([`api::block_until`]: marked `Output`, one switch back in) | until the fragment is acked | only while the window or the credit is exhausted |
//! | flow control | withheld ack + `KIND_CHAN_BUSY`, deferred frame | credit grants, reorder bound |

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use desim::{sync::WaitSet, Fifo, Slots, Wakeup};
use hpcnet::{Frame, NodeAddr, Payload, MAX_PAYLOAD};

use crate::api;
use crate::calib::{
    Calibration, CHAN_SIDE_BUFFERS, LISTENER_BACKLOG_CAP, OPEN_MAX_RETRIES, OPEN_TIMEOUT_NS,
    RTO_CEIL_NS, RTO_FLOOR_NS,
};
use crate::cpu::{BlockReason, CpuCat};
use crate::kernel;
use crate::objmgr::Name;
use crate::proto;
use crate::retry::{self, Chain, Retry};
use crate::world::{Table, VCtx, VSched, World};

/// Channel operation errors (an alias of the unified [`crate::VorxError`];
/// variant paths like `ChanError::PeerClosed` keep working through it).
pub type ChanError = crate::VorxError;

/// Result of a channel operation.
pub(crate) type ChanResult<T> = Result<T, ChanError>;

/// Consecutive `KIND_CHAN_BUSY` grants a writer honors before concluding
/// the reader is never coming back and counting silence against the retry
/// budget again.
const MAX_BUSY_GRANTS: u32 = 64;

/// Drop all outstanding transmit state, returning its fragments' slots to
/// `q`, and disarm its timer (ack received, peer closed/down, failed write).
pub(crate) fn clear_tx(end: &mut ChanEnd, q: &mut Queues) {
    q.inflight.clear(&mut end.win.inflight);
    end.win.busy_grants = 0;
    end.win.chain.restart();
}

/// Pause a stalled end's retransmit machinery without wiping it: disarm the
/// timer but keep the in-flight set, so the heal resume can retransmit it
/// over the restored route. The partition-tolerant counterpart of
/// [`clear_tx`].
pub(crate) fn pause_tx(end: &mut ChanEnd) {
    end.win.chain.disarm();
}

/// Restart the retransmit machinery of every end on `node` peered with
/// `peer` (heartbeat-probe ack or partition heal): clear the partition
/// mark, bump the timer epoch, zero the retry budget, and retransmit the
/// outstanding state immediately over whatever route the fabric has now.
pub(crate) fn resume_peer(w: &mut World, s: &mut VSched, node: NodeAddr, peer: NodeAddr) {
    for id in w.chans_peered(node, peer, |_| true) {
        resume_tx(w, s, node, id);
    }
}

fn resume_tx(w: &mut World, s: &mut VSched, node: NodeAddr, chan: u32) {
    let Some(end) = w.chan_mut(node, chan) else {
        return;
    };
    end.partitioned = false;
    if end.peer_down {
        return; // the peer crashed while partitioned; nothing to resume
    }
    end.win.chain.restart();
    if !end.win.inflight.is_empty() {
        retransmit_inflight(w, s, node, chan);
        retry::arm(w, s, node, TxRetry(chan));
    }
    // Wake blocked readers and writers either way: the end is usable again.
    if let Some(end) = w.chan_mut(node, chan) {
        end.wake_all(s);
    }
}

/// Declare the peer of every end on `node` peered with `peer` down (a
/// heartbeat probe outlived the peer's crash).
pub(crate) fn mark_peer_down(w: &mut World, s: &mut VSched, node: NodeAddr, peer: NodeAddr) {
    for id in w.chans_peered(node, peer, |e| !e.peer_down) {
        set_peer_down(w, s, node, id);
    }
}

/// `node`'s end of channel `chan` learns its peer is down (retry
/// exhaustion, a failed heartbeat probe, or the crash-detection sweep): wipe
/// its transmit state and wake its blocked callers, which observe
/// [`ChanError::PeerDown`]. Once per end; a gone end is a no-op.
pub(crate) fn set_peer_down(w: &mut World, s: &mut VSched, node: NodeAddr, chan: u32) {
    let Some((end, q)) = w.chan_queues(node, chan).filter(|(e, _)| !e.peer_down) else {
        return;
    };
    end.peer_down = true;
    clear_tx(end, q);
    end.wake_all(s);
    w.faults.stats.peer_down_events += 1;
}

/// Per-end protocol parameters, frozen from the [`Calibration`] when the end
/// is created (so every frame of a channel's life obeys one mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Fragments the writer may keep unacked; 1 = stop-and-wait.
    pub window: u32,
    /// Receiver fragment-buffer capacity advertised as credit (windowed).
    pub(crate) rx_frag_buffers: u32,
    /// Reorder-buffer bound in fragments (windowed), ≤ 32 so the
    /// selective-ack bitmap can describe every held fragment.
    pub(crate) reorder_frags: u32,
}

impl ChannelConfig {
    /// Derive the per-channel configuration from the world calibration.
    pub(crate) fn from_calib(c: &Calibration) -> Self {
        let window = c.chan_window.max(1);
        ChannelConfig {
            window,
            rx_frag_buffers: c.chan_rx_frag_buffers.max(window),
            reorder_frags: c.chan_reorder_frags.clamp(1, 32),
        }
    }
}

/// Reassembles fragments of one written message. Fragments are held as
/// refcounted slices: a single-fragment message (every size the paper
/// measures) is delivered zero-copy, and only a multi-fragment gather
/// touches payload bytes — into a buffer of its own, with the copy metered.
#[derive(Debug, Default)]
pub struct PayloadAsm {
    parts: Vec<Bytes>,
    synth: u32,
    frags: usize,
}

impl PayloadAsm {
    /// Append one fragment (no copy; the fragment's bytes are shared).
    pub(crate) fn push(&mut self, p: Payload) {
        self.frags += 1;
        match p {
            Payload::Data(b) => {
                assert_eq!(self.synth, 0, "mixed data and synthetic fragments");
                self.parts.push(b);
            }
            Payload::Synthetic(n) => {
                assert!(self.parts.is_empty(), "mixed data and synthetic fragments");
                self.synth += n;
            }
        }
    }

    /// Number of fragments buffered.
    pub(crate) fn frags(&self) -> usize {
        self.frags
    }

    /// Append the last fragment `p` and take the message. A message of one
    /// fragment — nothing buffered before it — is `p` itself and never
    /// touches `parts`, so a reader end of one-frame messages holds no
    /// reassembly buffer.
    pub(crate) fn finish(&mut self, p: Payload) -> Payload {
        if self.frags == 0 {
            return p;
        }
        self.push(p);
        self.take()
    }

    /// Take the assembled message, resetting the assembler. One fragment
    /// passes straight through (zero-copy); several are gathered into one
    /// new buffer.
    pub(crate) fn take(&mut self) -> Payload {
        self.frags = 0;
        if self.parts.is_empty() {
            let n = self.synth;
            self.synth = 0;
            return Payload::Synthetic(n);
        }
        if self.parts.len() == 1 {
            return Payload::Data(self.parts.pop().expect("checked"));
        }
        let total: usize = self.parts.iter().map(Bytes::len).sum();
        let mut buf = Vec::with_capacity(total);
        for b in self.parts.drain(..) {
            buf.extend_from_slice(&b);
        }
        hpcnet::copymeter::add(total as u64);
        Payload::Data(Bytes::from(buf))
    }
}

/// Transmit state of one end, both modes: the in-flight fragments and the
/// one retransmit-timer chain that guards them. A windowed end keeps up to
/// `ChannelConfig::window` fragments here; a stop-and-wait end at most one.
#[derive(Debug, Default)]
pub struct WinTx {
    /// Unacked fragments, oldest first, kept for retransmission: a queue
    /// in the world's [`ChanSlab`] ([`ChanSlab::inflight`] reads it).
    /// Fragment numbers are handed out
    /// consecutively and leave only from the front (cumulative ack) or all
    /// at once (`clear_tx`), so this is always a contiguous run: fragment
    /// `n` sits at index `n − front`.
    pub inflight: Fifo,
    /// Highest fragment number the receiver has granted credit for
    /// (cumulative ack + advertised credit, monotonic; windowed only). A
    /// writer whose window is otherwise empty may send one fragment past
    /// this as a zero-window probe.
    pub tx_limit: u32,
    /// The retransmit chain: restarted on every ack progress, its attempts
    /// the consecutive timeouts without acknowledged progress.
    pub chain: Chain,
    /// "Receiver full" signals honored without counting silence against the
    /// retry budget — `KIND_CHAN_BUSY`, or a zero-credit windowed ack —
    /// capped by `MAX_BUSY_GRANTS`.
    pub busy_grants: u32,
}

impl WinTx {
    /// Accept a freshly numbered fragment into the in-flight set.
    fn push(&mut self, slots: &mut Slots<WinFrag>, frame: Frame, now_ns: u64) {
        debug_assert!(
            slots
                .back(&self.inflight)
                .is_none_or(|b| b.frag() + 1 == proto::seq_frag(frame.seq)),
            "in-flight fragment numbers must stay a contiguous run"
        );
        let frag = WinFrag {
            frame,
            sacked: false,
            sent_ns: now_ns,
            rexmit: false,
        };
        slots.push_back(&mut self.inflight, frag);
    }

    /// The in-flight fragment numbered `frag`; `None` below the front or
    /// past the tail. Walks at most the window's W slots.
    fn get_mut<'q>(&self, slots: &'q mut Slots<WinFrag>, frag: u32) -> Option<&'q mut WinFrag> {
        let front = slots.front(&self.inflight)?.frag();
        slots.get_mut(&self.inflight, frag.checked_sub(front)? as usize)
    }

    /// The receiver said "full", not the network "lost": restart the chain
    /// without touching the fragments. False once the grants are spent, so
    /// a reader that never drains cannot hold the writer forever.
    fn grant_busy(&mut self) -> bool {
        if self.busy_grants >= MAX_BUSY_GRANTS {
            return false;
        }
        self.busy_grants += 1;
        self.chain.restart();
        true
    }
}

/// One in-flight fragment.
#[derive(Debug, Clone)]
pub struct WinFrag {
    /// The frame, kept for retransmission.
    pub(crate) frame: Frame,
    /// Selectively acknowledged: held by the receiver, skip on timeout.
    pub sacked: bool,
    /// Sim time of the *first* transmission (never reset on retransmit).
    pub(crate) sent_ns: u64,
    /// Retransmitted at least once — its ack is ambiguous, so it never
    /// contributes an RTT sample (Karn's rule).
    pub(crate) rexmit: bool,
}

impl WinFrag {
    /// This fragment's number.
    pub fn frag(&self) -> u32 {
        proto::seq_frag(self.frame.seq)
    }
}

/// Windowed-mode receive state: the bounded reorder buffer and the credit
/// accounting behind the grants advertised in every windowed ack.
#[derive(Debug, Default)]
pub struct WinRx {
    /// Fragments copied into side buffers but not yet in-order-committable,
    /// by fragment number, with their `last` flag. Bounded by
    /// `ChannelConfig::reorder_frags`; dedup state never outlives the
    /// cumulative ack, because committing a fragment removes it here and
    /// advances `rx_next_frag` past it.
    pub ready: BTreeMap<u32, (Payload, bool)>,
    /// Fragments whose side-buffer copy charge is in flight; duplicates
    /// arriving mid-copy are dropped.
    pub copying: BTreeSet<u32>,
    /// Fragments committed but not yet consumed by a reader (in `asm` or in
    /// queued `rx` messages); they hold credit.
    pub held: u32,
    /// The last advertised credit was zero; the next reader-side release
    /// must push a credit update or the writer stays stalled.
    pub(crate) starved: bool,
}

/// One end of a channel, owned by a node's kernel.
#[derive(Debug)]
pub struct ChanEnd {
    /// Channel id (same on both ends).
    pub id: u32,
    /// The rendezvous name.
    pub name: Name,
    /// The other end's node.
    pub peer: NodeAddr,
    /// Complete received messages awaiting `read` (kernel side buffers): a
    /// queue in the world's [`ChanSlab`].
    pub rx: Fifo,
    /// Partial message being reassembled.
    pub(crate) asm: PayloadAsm,
    /// Fragments received while the side buffers were full; their acks are
    /// withheld until the reader frees space.
    pub deferred: VecDeque<Frame>,
    /// Processes blocked in `read`.
    pub(crate) rx_waiters: WaitSet,
    /// Process blocked in `write` awaiting the kernel ack.
    pub(crate) tx_wait: WaitSet,
    /// The ack for the outstanding stop-and-wait fragment has arrived.
    pub(crate) ack_ready: bool,
    /// Next fragment number expected from the peer; anything below it is a
    /// duplicate (its ack was lost) and is re-acked, not re-delivered.
    pub(crate) rx_next_frag: u32,
    /// Fragment currently being copied into a side buffer (its charge is in
    /// flight); a duplicate arriving in that window is dropped.
    pub(crate) accepting: Option<u32>,
    /// The peer's node is known to be down (retry exhaustion or the
    /// failure-detection sweep).
    pub(crate) peer_down: bool,
    /// The peer is alive but unreachable (network partition). Unlike
    /// `peer_down`, nothing is wiped: timers are paused, the transmit
    /// window is preserved, and the heal sweep clears this flag and resumes
    /// the transfer. Blocked callers observe
    /// [`crate::VorxError::Partitioned`].
    pub(crate) partitioned: bool,
    /// Fragments sent from this end (for `cdb`).
    pub msgs_tx: u64,
    /// Messages delivered to readers at this end (for `cdb`).
    pub msgs_rx: u64,
    /// A reader is currently blocked on this end (for `cdb`).
    pub reader_blocked: bool,
    /// A writer is currently blocked on this end (for `cdb`).
    pub writer_blocked: bool,
    /// This end has been closed by the local process.
    pub closed_local: bool,
    /// The peer's end has been closed (close notification received).
    pub closed_remote: bool,
    /// Protocol parameters frozen at creation (window, credit pool).
    pub cfg: ChannelConfig,
    /// Transmit state: in-flight fragments and their retransmit timer.
    pub win: WinTx,
    /// Windowed receive state (untouched when `cfg.window == 1`).
    pub winrx: WinRx,
    /// Jacobson/Karn round-trip estimator for this end's data acks. Sampled
    /// only while a gray fault has armed adaptation
    /// ([`crate::fault::FaultState::gray_armed`]); fault-free runs never
    /// touch it, so their traces stay bit-identical.
    pub rtt: crate::rtt::RttEstimator,
    /// Karn backoff persistence: doublings applied to the *base* timeout of
    /// fresh fragments after a timeout fired, until the next unambiguous
    /// sample resets it. Without this the estimator cannot bootstrap when
    /// the true RTT exceeds the fixed timeout — every fragment would be
    /// retransmitted once (ambiguous ack, no sample) forever. Consulted
    /// only while `gray_armed`.
    pub(crate) rto_backoff: u32,
}

// One channel end, one row of its world's `ChanSlab`: 360 bytes (432 while
// `rx`, `inflight` and the credit counts were `VecDeque`s of their own).
const _: () = assert!(size_of::<ChanEnd>() <= 360);

impl ChanEnd {
    fn new(id: u32, name: Name, peer: NodeAddr, cfg: ChannelConfig) -> Self {
        // Until the first ack arrives, the writer trusts the configured
        // receive capacity (both ends share one calibration).
        let win = WinTx {
            tx_limit: cfg.rx_frag_buffers,
            ..WinTx::default()
        };
        ChanEnd {
            id,
            name,
            peer,
            rx: Fifo::default(),
            asm: PayloadAsm::default(),
            deferred: VecDeque::new(),
            rx_waiters: WaitSet::new(),
            tx_wait: WaitSet::new(),
            ack_ready: false,
            rx_next_frag: 1,
            accepting: None,
            peer_down: false,
            partitioned: false,
            msgs_tx: 0,
            msgs_rx: 0,
            reader_blocked: false,
            writer_blocked: false,
            closed_local: false,
            closed_remote: false,
            cfg,
            win,
            winrx: WinRx::default(),
            rtt: crate::rtt::RttEstimator::new(),
            rto_backoff: 0,
        }
    }

    /// Wake the end's blocked readers, then its blocked writer, so each
    /// re-checks the end's state.
    pub(crate) fn wake_all(&mut self, s: &mut VSched) {
        self.rx_waiters.wake_all(s, Wakeup::START);
        self.tx_wait.wake_all(s, Wakeup::START);
    }

    /// Why no new transfer can start on this end, if none can.
    fn broken(&self) -> Option<ChanError> {
        if self.closed_local {
            Some(ChanError::LocalClosed)
        } else if self.closed_remote {
            Some(ChanError::PeerClosed)
        } else if self.peer_down {
            Some(ChanError::PeerDown)
        } else if self.partitioned {
            Some(ChanError::Partitioned)
        } else {
            None
        }
    }

    /// Side-buffer slots in use (complete messages + an in-progress
    /// reassembly counts as one).
    fn sidebuf_used(&self) -> usize {
        self.rx.len() + usize::from(self.asm.frags() > 0)
    }

    /// Pop the next complete message, releasing the credit its fragments
    /// held (windowed mode; a no-op beyond the pop for stop-and-wait).
    pub(crate) fn pop_rx(&mut self, q: &mut Queues) -> Option<Payload> {
        let m = q.rx.pop_front(&mut self.rx)?;
        self.winrx.held = self.winrx.held.saturating_sub(m.frags);
        Some(m.payload)
    }

    /// Receiver fragment-buffer slots currently free (the credit grant).
    fn win_avail(&self) -> u32 {
        let used =
            self.winrx.held + self.winrx.ready.len() as u32 + self.winrx.copying.len() as u32;
        self.cfg.rx_frag_buffers.saturating_sub(used)
    }
}

/// A complete received message queued at its end, with the fragments it
/// holds credit for until a reader takes it (windowed; 0 for stop-and-wait).
#[derive(Debug)]
struct RxMsg {
    payload: Payload,
    frags: u32,
}

/// The queued items of every channel end of one [`World`]: one slab per
/// queue kind, each end's queue a [`Fifo`] into it. An end's first message
/// or fragment takes a free slot, so a first-used end allocates nothing
/// once the world's slabs have grown to its traffic's high-water mark.
#[derive(Debug, Default)]
pub(crate) struct Queues {
    /// Every end's received messages ([`ChanEnd::rx`]).
    rx: Slots<RxMsg>,
    /// Every end's unacked fragments ([`WinTx::inflight`]).
    inflight: Slots<WinFrag>,
}

/// Every channel end of one [`World`], the rows of one world table by node
/// and channel id; the table's rows never move, and a row freed by a crash
/// wipe is reused by the next end created. The ends' queued messages and
/// fragments live here too, one slab per kind of queue.
#[derive(Debug, Default)]
pub struct ChanSlab {
    /// Each node's ends, by node and channel id.
    pub(crate) ends: Table<u32, ChanEnd>,
    /// The ends' queued messages and fragments.
    queues: Queues,
}

impl ChanSlab {
    /// The in-flight fragments of `end`, one of this slab's ends, oldest
    /// first.
    pub fn inflight<'a>(&'a self, end: &ChanEnd) -> impl Iterator<Item = &'a WinFrag> + 'a {
        self.queues.inflight.iter(&end.win.inflight)
    }

    /// True iff the live ends' queues own every occupied queue slot: no
    /// slot outlived its end ([`crate::invariants::QUEUE_SLOTS`]).
    pub fn slots_owned(&self) -> bool {
        let (rx, inflight) = (self.ends.values()).fold((0, 0), |(rx, fl), e| {
            (rx + e.rx.len(), fl + e.win.inflight.len())
        });
        rx == self.queues.rx.occupied() && inflight == self.queues.inflight.occupied()
    }

    /// Node `a`'s channel ends, by channel id.
    pub fn of(&self, a: NodeAddr) -> impl Iterator<Item = &ChanEnd> + '_ {
        self.ends.of(a).map(|(_, end)| end)
    }

    /// True iff node `a` holds an end of channel `id`.
    pub(crate) fn contains(&self, a: NodeAddr, id: u32) -> bool {
        self.ends.contains(a, &id)
    }

    /// Channel ends node `a` holds.
    pub fn count(&self, a: NodeAddr) -> usize {
        self.ends.count(a)
    }

    /// Take node `a`'s ends off the slab, in id order, their queued items
    /// dropped and their slots returned.
    pub(crate) fn remove_all(&mut self, a: NodeAddr) -> Vec<ChanEnd> {
        let ends = self.ends.wipe(a).into_iter().map(|(_, end)| end);
        ends.map(|mut end| {
            self.queues.rx.clear(&mut end.rx);
            self.queues.inflight.clear(&mut end.win.inflight);
            end
        })
        .collect()
    }
}

impl World {
    /// Node `a`'s end of channel `id`, if it holds one.
    pub fn chan(&self, a: NodeAddr, id: u32) -> Option<&ChanEnd> {
        self.chan_ends.ends.get(a, &id)
    }

    /// Mutable [`World::chan`]; materializes node `a`, as
    /// [`World::node_mut`] does.
    pub fn chan_mut(&mut self, a: NodeAddr, id: u32) -> Option<&mut ChanEnd> {
        self.chan_queues(a, id).map(|(end, _)| end)
    }

    /// [`World::chan_mut`] with the queues its `rx` and `inflight` handles
    /// point into.
    pub(crate) fn chan_queues(
        &mut self,
        a: NodeAddr,
        id: u32,
    ) -> Option<(&mut ChanEnd, &mut Queues)> {
        self.node_mut(a);
        let ChanSlab { ends, queues } = &mut self.chan_ends;
        Some((ends.get_mut(a, &id)?, queues))
    }

    /// Ids of node `a`'s channel ends peered with `peer` that pass `keep`,
    /// in id order.
    pub(crate) fn chans_peered(
        &self,
        a: NodeAddr,
        peer: NodeAddr,
        keep: impl Fn(&ChanEnd) -> bool,
    ) -> Vec<u32> {
        let ends = self.chan_ends.of(a);
        ends.filter(|e| e.peer == peer && keep(e))
            .map(|e| e.id)
            .collect()
    }
}

/// Create a channel end on `node` (called by the object manager's reply
/// handler, and directly by tests).
pub(crate) fn create_end(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    id: u32,
    name: Name,
    peer: NodeAddr,
) {
    let cfg = ChannelConfig::from_calib(&w.calib);
    w.node_mut(node);
    let exists = w.chan_ends.contains(node, id);
    assert!(!exists, "channel id {id} already exists on {node}");
    w.chan_ends
        .ends
        .insert(node, id, ChanEnd::new(id, name, peer, cfg));
    kernel::drain_orphans(w, s, node, id);
}

/// A user-level handle to one channel end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelHandle {
    /// Channel id.
    pub id: u32,
    /// The local node.
    pub(crate) node: NodeAddr,
    /// The peer node.
    pub peer: NodeAddr,
}

/// Open a channel named `name` from `node`: sends an open request to the
/// responsible object manager and blocks until another process opens the
/// same name. Returns the connected handle. Panics if the open fails under
/// fault injection; use [`try_open`] to handle that.
pub fn open(ctx: &VCtx, node: NodeAddr, name: &str) -> ChannelHandle {
    try_open(ctx, node, name).expect("channel open failed")
}

/// Fallible [`open`]: fails with [`ChanError::Unreachable`] when the object
/// manager does not answer within the retry budget, or
/// [`ChanError::NodeDown`] when the opener's own node is down or crashes
/// mid-open.
pub fn try_open(ctx: &VCtx, node: NodeAddr, name: &str) -> ChanResult<ChannelHandle> {
    let syscall_ns = ctx.with(|w, _| w.calib.chan_read_syscall_ns);
    api::compute_ns(ctx, node, CpuCat::System, syscall_ns);
    let (id, peer) = crate::objmgr::rendezvous(ctx, node, name, proto::ObjKind::Channel)?;
    Ok(ChannelHandle { id, node, peer })
}

/// Split a payload into hardware-sized fragments, flagging the last. Lazy
/// and slice-based: no fragment list is built, so a message that fits one
/// frame — or many — costs no allocation here.
pub(crate) fn fragment(payload: Payload) -> impl Iterator<Item = (Payload, bool)> {
    let mut rest = Some(payload);
    std::iter::from_fn(move || {
        let p = rest.take()?;
        let (cut, len) = (MAX_PAYLOAD as usize, p.len() as usize);
        if len <= cut {
            return Some((p, true));
        }
        rest = Some(p.slice(cut, len));
        Some((p.slice(0, cut), false))
    })
}

/// Number the next fragment of `h`'s stream, accept it into the in-flight
/// set and put it on the wire; arm the retransmit timer unless one already
/// guards the set. The single entry into the transmit state for both modes.
fn transmit_frag(w: &mut World, s: &mut VSched, h: ChannelHandle, payload: Payload, last: bool) {
    let now_ns = s.now().as_ns();
    let (end, q) = w.chan_queues(h.node, h.id).expect("caller holds the end");
    end.msgs_tx += 1;
    let kind = if last {
        proto::KIND_CHAN_DATA_LAST
    } else {
        proto::KIND_CHAN_DATA
    };
    let seq = proto::chan_seq(h.id, end.msgs_tx as u32);
    let f = Frame::unicast(h.node, h.peer, kind, seq, payload);
    end.win.push(&mut q.inflight, f.clone(), now_ns);
    let arm = end.win.chain.timer.is_none();
    kernel::send_frame(w, s, f);
    if arm {
        retry::arm(w, s, h.node, TxRetry(h.id));
    }
}

impl ChannelHandle {
    /// Write one message. Blocks (stop-and-wait) until the receiving kernel
    /// has acknowledged every fragment. Fails if either end is closed
    /// (writes racing a close may be partially delivered and then fail, as
    /// on a real machine).
    pub fn write(&self, ctx: &VCtx, payload: Payload) -> ChanResult<()> {
        let h = *self;
        let (window, syscall_ns) =
            ctx.with(|w, _| (w.calib.chan_window, w.calib.chan_write_syscall_ns));
        if window > 1 {
            return self.write_windowed(ctx, payload, syscall_ns);
        }
        for (frag, last) in fragment(payload) {
            // Syscall entry + protocol work, then transmit and block.
            api::compute_ns(ctx, h.node, CpuCat::System, syscall_ns);
            let pre = ctx.with(move |w, s| {
                if !w.node(h.node).up {
                    return Err(ChanError::NodeDown);
                }
                let Some(end) = w.chan_mut(h.node, h.id) else {
                    return Err(ChanError::NodeDown);
                };
                if let Some(e) = end.broken() {
                    return Err(e);
                }
                debug_assert!(
                    end.win.inflight.is_empty(),
                    "stop-and-wait write with a fragment still outstanding"
                );
                transmit_frag(w, s, h, frag, last);
                Ok(())
            });
            pre?;
            // No ack arrives in the instant of the transmit, so the first
            // poll always parks.
            let acked = api::block_until(ctx, h.node, BlockReason::Output, move |w, _, pid| {
                let Some((end, q)) = w.chan_queues(h.node, h.id) else {
                    return Some(Err(ChanError::NodeDown));
                };
                let outcome = if end.ack_ready {
                    end.ack_ready = false;
                    Ok(())
                } else if end.closed_remote {
                    clear_tx(end, q);
                    Err(ChanError::PeerClosed)
                } else if end.peer_down {
                    clear_tx(end, q);
                    Err(ChanError::PeerDown)
                } else if end.partitioned {
                    // The write failed; its fragment must not linger to be
                    // retransmitted by the heal resume, and its fragment
                    // number is handed back so an app-level retry reuses it
                    // — the receiver still expects it (or, if the data
                    // crossed before the cut, acks the retry as a
                    // duplicate).
                    clear_tx(end, q);
                    end.msgs_tx -= 1;
                    Err(ChanError::Partitioned)
                } else {
                    end.tx_wait.register(pid);
                    end.writer_blocked = true;
                    return None;
                };
                end.writer_blocked = false;
                Some(outcome)
            });
            acked?;
        }
        Ok(())
    }

    /// Windowed-mode write (`chan_window > 1`): each fragment is accepted
    /// into the kernel's transmit window as soon as there is window space
    /// and receiver credit, so `write` returns without waiting for
    /// acknowledgements. The window-base timer retransmits and the
    /// cumulative/selective acks ([`on_wack`]) drain the window behind us;
    /// [`ChannelHandle::close`] flushes it.
    fn write_windowed(&self, ctx: &VCtx, payload: Payload, syscall_ns: u64) -> ChanResult<()> {
        let h = *self;
        for (frag, last) in fragment(payload) {
            // Syscall entry + protocol work for this fragment.
            api::compute_ns(ctx, h.node, CpuCat::System, syscall_ns);
            let mut frag_slot = Some(frag);
            let res = api::block_until(ctx, h.node, BlockReason::Output, move |w, s, pid| {
                let Some(end) = w.chan_mut(h.node, h.id) else {
                    return Some(Err(ChanError::NodeDown));
                };
                // On `Partitioned`, fragments already accepted into the
                // window stay there (the heal resume retransmits them); this
                // one was never accepted, so the write fails cleanly.
                if let Some(e) = end.broken() {
                    end.writer_blocked = false;
                    return Some(Err(e));
                }
                let next = end.msgs_tx as u32 + 1;
                // Window space plus receiver credit; a writer whose window
                // is empty may send one fragment past the credit limit as a
                // zero-window probe (the receiver re-acks it with fresh
                // credit, or defers it and grants later).
                let can_send = (end.win.inflight.len() as u32) < end.cfg.window
                    && (next <= end.win.tx_limit || end.win.inflight.is_empty());
                if !can_send {
                    end.tx_wait.register(pid);
                    end.writer_blocked = true;
                    return None;
                }
                end.writer_blocked = false;
                let p = frag_slot.take().expect("fragment transmitted twice");
                transmit_frag(w, s, h, p, last);
                Some(Ok(()))
            });
            res?;
        }
        Ok(())
    }

    /// Read one whole message, blocking until it arrives. Buffered messages
    /// remain readable after a close; once drained, reads fail.
    pub fn read(&self, ctx: &VCtx) -> ChanResult<Payload> {
        let h = *self;
        let (syscall_ns, copy_ns_per_byte) = ctx.with(|w, _| {
            let c = &w.calib;
            // The user copy is a stop-and-wait cost only: the windowed path
            // hands the user the refcounted payload directly.
            let copy = if c.chan_window <= 1 {
                c.copy_user_ns_per_byte
            } else {
                0
            };
            (c.chan_read_syscall_ns, copy)
        });
        api::compute_ns(ctx, h.node, CpuCat::System, syscall_ns);
        let outcome = api::block_until(ctx, h.node, BlockReason::Input, move |w, _, pid| {
            // No end: the node crashed out from under us, and the wake that
            // delivered us here came from the crash cleanup.
            let Some((end, q)) = w.chan_queues(h.node, h.id) else {
                return Some(Err(ChanError::NodeDown));
            };
            // Buffered messages outlive a close or a lost peer.
            let outcome = match end.pop_rx(q) {
                Some(p) => Ok(p),
                None => match end.broken() {
                    Some(e) => Err(e),
                    None => {
                        end.rx_waiters.register(pid);
                        end.reader_blocked = true;
                        return None;
                    }
                },
            };
            end.reader_blocked = false;
            Some(outcome)
        });
        let payload = outcome?;
        // Stop-and-wait copies from the side buffer into the user's buffer
        // (a charge of nothing when windowed).
        api::compute(
            ctx,
            h.node,
            CpuCat::System,
            crate::calib::Calibration::per_byte(copy_ns_per_byte, payload.len()),
        );
        // Freeing the side buffer may release a deferred fragment (and its
        // withheld ack).
        ctx.with(move |w, s| release_deferred(w, s, h.node, h.id));
        Ok(payload)
    }

    /// Number of complete messages ready to read (non-blocking peek).
    /// Returns 0 if the channel no longer exists (node crashed).
    pub fn readable(&self, ctx: &VCtx) -> usize {
        let h = *self;
        ctx.with(move |w, _| w.chan(h.node, h.id).map(|e| e.rx.len()).unwrap_or(0))
    }

    /// Close this end (§4: channels "are dynamically created and destroyed
    /// during program execution"). Sends a close notification to the peer;
    /// idempotent. Buffered inbound messages stay readable at the peer.
    pub fn close(&self, ctx: &VCtx) {
        let h = *self;
        let (window, syscall_ns) =
            ctx.with(|w, _| (w.calib.chan_window, w.calib.chan_read_syscall_ns));
        if window > 1 {
            // Pipelined writes return before their acks; flush the transmit
            // window so a close never races data still in flight. Errors
            // (peer down/closed) end the flush — nothing left to wait for.
            let pid = ctx.pid();
            ctx.wait_until(move |w, _| {
                let Some(end) = w.chan_mut(h.node, h.id) else {
                    return Some(());
                };
                if end.win.inflight.is_empty() || end.closed_remote || end.peer_down {
                    Some(())
                } else {
                    end.tx_wait.register(pid);
                    None
                }
            });
        }
        api::compute_ns(ctx, h.node, CpuCat::System, syscall_ns);
        ctx.with(move |w, s| {
            let Some(end) = w.chan_mut(h.node, h.id) else {
                return; // node crashed; nothing left to close
            };
            if end.closed_local {
                return; // idempotent
            }
            end.closed_local = true;
            if end.peer_down {
                return; // peer is gone; nobody to notify
            }
            let f = Frame::unicast(
                h.node,
                h.peer,
                proto::KIND_CHAN_CLOSE,
                proto::chan_seq(h.id, 0),
                Payload::Synthetic(0),
            );
            // Close notifications must survive loss or the peer blocks
            // forever: deliver reliably (receiver acks, sender retransmits).
            crate::fault::reliable_send(w, s, f);
        });
    }
}

/// Kernel handler: the peer closed its end.
pub(crate) fn on_close(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    crate::fault::ack_ctl(w, s, node, &f);
    let chan = proto::seq_chan(f.seq);
    let Some((end, q)) = w.chan_queues(node, chan) else {
        // Close may race the open reply; stash like data frames. (A
        // retransmitted close after a crash wiped the end lands here too
        // and is dropped with the orphan list if the end never reappears.)
        w.orphans.push(node, f);
        return;
    };
    if end.closed_remote {
        return; // duplicate close (our ack was lost)
    }
    end.closed_remote = true;
    clear_tx(end, q);
    // Wake everyone so blocked reads/writes observe the close.
    end.wake_all(s);
}

/// Multiplexed read (§4): block until a message is available on *any* of
/// `handles` (all local to `node`), then read it. Returns the index of the
/// handle that produced data and the message.
pub fn read_any(
    ctx: &VCtx,
    node: NodeAddr,
    handles: &[ChannelHandle],
) -> ChanResult<(usize, Payload)> {
    assert!(!handles.is_empty(), "read_any with no channels");
    assert!(
        handles.iter().all(|h| h.node == node),
        "read_any channels must share a node"
    );
    let (syscall_ns, copy_ns_per_byte) = ctx.with(|w, _| {
        let c = &w.calib;
        // As in `read`: the user copy is a stop-and-wait cost only.
        let copy = if c.chan_window <= 1 {
            c.copy_user_ns_per_byte
        } else {
            0
        };
        (c.chan_read_syscall_ns, copy)
    });
    api::compute_ns(ctx, node, CpuCat::System, syscall_ns);
    // `block_until` runs its poll inline on this thread, so the handle
    // slice can be borrowed directly — no per-poll `to_vec`.
    let hs = handles;
    let outcome = api::block_until(ctx, node, BlockReason::Input, move |w, _, pid| {
        let outcome = 'poll: {
            let mut all_closed = true;
            for (i, h) in hs.iter().enumerate() {
                let Some((end, q)) = w.chan_queues(h.node, h.id) else {
                    // Our node crashed and wiped the channels.
                    break 'poll Err(ChanError::NodeDown);
                };
                if let Some(p) = end.pop_rx(q) {
                    break 'poll Ok((i, p));
                }
                all_closed &= end.closed_local || end.closed_remote || end.peer_down;
            }
            if all_closed {
                break 'poll Err(ChanError::PeerClosed);
            }
            for h in hs {
                let end = w.chan_mut(h.node, h.id).expect("checked");
                end.rx_waiters.register(pid);
                end.reader_blocked = true;
            }
            return None;
        };
        for h in hs {
            if let Some(end) = w.chan_mut(h.node, h.id) {
                end.reader_blocked = false;
            }
        }
        Some(outcome)
    });
    let (idx, payload) = outcome?;
    api::compute(
        ctx,
        node,
        CpuCat::System,
        crate::calib::Calibration::per_byte(copy_ns_per_byte, payload.len()),
    );
    let h = handles[idx];
    ctx.with(move |w, s| release_deferred(w, s, h.node, h.id));
    Ok((idx, payload))
}

/// Base (attempt-0) retransmit timeout for `chan` on `node`: the fixed
/// `chan_ack_timeout_ns` until a gray fault arms adaptation and the end has
/// observed at least one round trip, then the Jacobson RTO
/// `clamp(SRTT + 4·RTTVAR, RTO_FLOOR_NS, RTO_CEIL_NS)`. The retry chain's
/// doubling backoff ([`retry::backoff`]) is layered on top either way.
fn rto_base_ns(w: &World, node: NodeAddr, chan: u32) -> u64 {
    let fixed = w.calib.chan_ack_timeout_ns;
    if !w.faults.gray_armed {
        return fixed;
    }
    let Some(end) = w.chan(node, chan) else {
        return fixed;
    };
    let base = end.rtt.rto_ns(RTO_FLOOR_NS, RTO_CEIL_NS).unwrap_or(fixed);
    // Karn backoff persistence: keep a timed-out end's doubled base until a
    // valid sample replaces it, clamped to the ceiling.
    retry::backoff(base, end.rto_backoff).clamp(RTO_FLOOR_NS, RTO_CEIL_NS)
}

/// The widest adaptive RTO among `node`'s channel ends peered with `peer`,
/// or `None` when no such end has a round-trip sample yet. Feeds the
/// heartbeat-probe deadline (`crate::membership`): a probe sent because a
/// degraded channel exhausted its retries must outlive the degradation the
/// channel itself observed. Taking the max over ends is order-independent,
/// so sharded replays stay deterministic.
pub(crate) fn peer_rto_hint(w: &World, node: NodeAddr, peer: NodeAddr) -> Option<u64> {
    w.chan_ends
        .of(node)
        .filter(|end| end.peer == peer)
        .filter_map(|end| end.rtt.rto_ns(RTO_FLOOR_NS, RTO_CEIL_NS))
        .max()
}

/// Kernel handler: a channel data fragment arrived at `node`.
///
/// Under loss, the same fragment may arrive more than once (the writer
/// retransmits when its ack is lost or late). The receiver is the dedup
/// point: `rx_next_frag` says which fragment is next in the stream, so
/// anything earlier is re-acked without re-delivery and anything currently
/// being copied (`accepting`) or deferred is dropped as a duplicate.
pub(crate) fn on_data(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame, last: bool) {
    let chan = proto::seq_chan(f.seq);
    let windowed = match w.chan(node, chan) {
        Some(end) => end.cfg.window > 1,
        None => w.calib.chan_window > 1,
    };
    if windowed {
        return on_data_windowed(w, s, node, f, last);
    }
    let frag = proto::seq_frag(f.seq);
    let src = f.src;
    let seq = f.seq;
    enum Act {
        Orphan,
        ReAck,
        DropAhead,
        DropDup,
        ReBusy,
        Defer,
        Accept,
    }
    let act = match w.chan(node, chan) {
        // Open-reply race: the peer learned about the channel before we did.
        None => Act::Orphan,
        Some(end) => {
            if frag < end.rx_next_frag {
                // Already committed: the ack was lost or the retransmission
                // crossed it in flight.
                Act::ReAck
            } else if frag > end.rx_next_frag {
                // Stop-and-wait never runs ahead; a frame from the future
                // can only be damage we failed to detect. Drop it.
                Act::DropAhead
            } else if end.accepting == Some(frag) {
                // The first copy of this fragment is mid-copy; its ack is
                // coming.
                Act::DropDup
            } else if !end.deferred.is_empty() {
                // Already deferred (side buffers full): the BUSY we sent was
                // lost, so the writer's timer fired. Tell it again.
                Act::ReBusy
            } else if end.sidebuf_used() >= CHAN_SIDE_BUFFERS {
                // Side buffers full: hold the fragment, withhold the ack,
                // and send BUSY so the stall is not mistaken for loss. The
                // writer stays blocked — this is the protocol's flow
                // control.
                Act::Defer
            } else {
                Act::Accept
            }
        }
    };
    match act {
        Act::Orphan => w.orphans.push(node, f),
        Act::ReAck => {
            w.faults.stats.dups_suppressed += 1;
            let ack = Frame::unicast(node, src, proto::KIND_CHAN_ACK, seq, Payload::Synthetic(0));
            kernel::send_frame(w, s, ack);
        }
        Act::DropAhead | Act::DropDup => {
            w.faults.stats.dups_suppressed += 1;
        }
        Act::ReBusy => {
            w.faults.stats.dups_suppressed += 1;
            let busy = Frame::unicast(node, src, proto::KIND_CHAN_BUSY, seq, Payload::Synthetic(0));
            kernel::send_frame(w, s, busy);
        }
        Act::Defer => {
            w.chan_mut(node, chan)
                .expect("matched just above")
                .deferred
                .push_back(f);
            w.faults.stats.busy_sent += 1;
            let busy = Frame::unicast(node, src, proto::KIND_CHAN_BUSY, seq, Payload::Synthetic(0));
            kernel::send_frame(w, s, busy);
        }
        Act::Accept => accept_fragment(w, s, node, f, last),
    }
}

/// Copy a fragment into the side buffer (charged), then commit it and send
/// the ack. Marks the fragment `accepting` for the duration of the copy so
/// a duplicate arriving mid-copy is not committed twice.
fn accept_fragment(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame, last: bool) {
    let chan = proto::seq_chan(f.seq);
    if let Some(end) = w.chan_mut(node, chan) {
        end.accepting = Some(proto::seq_frag(f.seq));
    }
    let c = w.calib;
    let cost = c.chan_sidebuf_ns_per_byte * u64::from(f.payload.len()) + c.chan_ack_gen_ns;
    let now = s.now();
    let end_t = w.charge(now, node, CpuCat::System, desim::SimDuration::from_ns(cost));
    s.schedule_in(end_t - now, move |w: &mut World, s| {
        commit_fragment(w, s, node, f, last);
    });
}

fn commit_fragment(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame, last: bool) {
    let chan = proto::seq_chan(f.seq);
    let src = f.src;
    let seq = f.seq;
    {
        let Some((end, q)) = w.chan_queues(node, chan) else {
            return; // the node crashed while the copy charge was in flight
        };
        end.accepting = None;
        end.rx_next_frag = proto::seq_frag(seq) + 1;
        if last {
            let payload = end.asm.finish(f.payload);
            q.rx.push_back(&mut end.rx, RxMsg { payload, frags: 0 });
            end.msgs_rx += 1;
            end.rx_waiters.wake_all(s, Wakeup::START);
        } else {
            end.asm.push(f.payload);
        }
    }
    // Kernel-level acknowledgement back to the writer's kernel.
    let ack = Frame::unicast(node, src, proto::KIND_CHAN_ACK, seq, Payload::Synthetic(0));
    kernel::send_frame(w, s, ack);
}

/// Kernel handler: a stop-and-wait ack arrived at the writer's node — the
/// depth-1 case of [`on_wack`]'s cumulative drain.
pub fn on_ack(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    let chan = proto::seq_chan(f.seq);
    let now_ns = s.now().as_ns();
    let gray = w.faults.gray_armed;
    let Some((end, q)) = w.chan_queues(node, chan) else {
        return; // crash or close raced the ack
    };
    if end.cfg.window > 1 {
        return; // defensive: windowed ends never use this kind
    }
    let Some(fr) = q.inflight.front(&end.win.inflight) else {
        return; // duplicate ack for an already-acknowledged fragment
    };
    if fr.frag() != proto::seq_frag(f.seq) {
        return;
    }
    // Karn's rule: only a never-retransmitted fragment's ack is an
    // unambiguous round-trip sample.
    if gray && !fr.rexmit {
        let rtt = now_ns.saturating_sub(fr.sent_ns);
        end.rtt.sample(rtt);
        end.rto_backoff = 0;
    }
    clear_tx(end, q);
    end.ack_ready = true;
    end.tx_wait.wake_all(s, Wakeup::START);
}

/// Kernel handler: the receiver's side buffers are full (`KIND_CHAN_BUSY`).
/// The outstanding fragment was *received*, not lost: stop counting silence
/// against the retry budget and restart the timer chain from zero — the
/// stop-and-wait spelling of [`on_wack`]'s zero-credit branch.
pub(crate) fn on_busy(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    let chan = proto::seq_chan(f.seq);
    let Some((end, q)) = w.chan_queues(node, chan) else {
        return;
    };
    let front = q.inflight.front(&end.win.inflight).map(WinFrag::frag);
    if end.cfg.window > 1 || front != Some(proto::seq_frag(f.seq)) {
        return; // stale: already acked
    }
    if end.win.grant_busy() {
        retry::arm(w, s, node, TxRetry(chan));
    }
}

// ---------------------------------------------------------------------------
// Windowed mode (`chan_window > 1`): credit-based pipelining. See the module
// docs and DESIGN.md §10. Of this section only the retransmit timer runs at
// W = 1.
// ---------------------------------------------------------------------------

/// Windowed-mode data handler: dedup against the cumulative ack, the reorder
/// buffer, and in-flight copies; drop (and re-ack) fragments beyond the
/// reorder bound or the credit pool; accept the rest out of order.
fn on_data_windowed(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame, last: bool) {
    let chan = proto::seq_chan(f.seq);
    let frag = proto::seq_frag(f.seq);
    enum Act {
        Orphan,
        ReAck,
        DropDup,
        DropOverflow,
        Accept,
    }
    let act = match w.chan(node, chan) {
        // Open-reply race: the peer learned about the channel before we did.
        None => Act::Orphan,
        Some(end) => {
            if frag < end.rx_next_frag {
                // Already committed; the ack was lost. Re-advertise it.
                Act::ReAck
            } else if end.winrx.copying.contains(&frag) || end.winrx.ready.contains_key(&frag) {
                // Duplicate of a fragment we already hold out of order.
                Act::DropDup
            } else if frag >= end.rx_next_frag + end.cfg.reorder_frags || end.win_avail() == 0 {
                // Beyond the reorder bound or out of credit: drop it and
                // send a duplicate ack so the writer relearns the window.
                Act::DropOverflow
            } else {
                Act::Accept
            }
        }
    };
    match act {
        Act::Orphan => w.orphans.push(node, f),
        Act::ReAck => {
            w.faults.stats.dups_suppressed += 1;
            send_wack(w, s, node, chan);
        }
        Act::DropDup => {
            w.faults.stats.dups_suppressed += 1;
        }
        Act::DropOverflow => {
            w.faults.stats.busy_sent += 1;
            send_wack(w, s, node, chan);
        }
        Act::Accept => accept_win_fragment(w, s, node, f, last),
    }
}

/// Accept a windowed fragment: pin its refcounted payload (no side-buffer
/// copy — the kernel keeps a reference to the arrival buffer, so the only
/// charge is ack generation), then commit it. While the charge is in flight
/// the fragment sits in `copying`, which both dedups retransmissions and
/// holds its credit slot.
fn accept_win_fragment(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame, last: bool) {
    let chan = proto::seq_chan(f.seq);
    if let Some(end) = w.chan_mut(node, chan) {
        end.winrx.copying.insert(proto::seq_frag(f.seq));
    }
    let c = w.calib;
    let cost = c.chan_ack_gen_ns;
    let now = s.now();
    let end_t = w.charge(now, node, CpuCat::System, desim::SimDuration::from_ns(cost));
    s.schedule_in(end_t - now, move |w: &mut World, s| {
        commit_win_fragment(w, s, node, f, last);
    });
}

/// Move a copied fragment into the reorder buffer, drain everything that is
/// now in order into the reassembler (completed messages go to `rx`,
/// zero-copy), and acknowledge with the updated cumulative/selective state.
fn commit_win_fragment(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame, last: bool) {
    let chan = proto::seq_chan(f.seq);
    let frag = proto::seq_frag(f.seq);
    {
        let Some((end, q)) = w.chan_queues(node, chan) else {
            return; // the node crashed while the copy charge was in flight
        };
        if !end.winrx.copying.remove(&frag) {
            return; // crash cleanup raced the commit
        }
        end.winrx.ready.insert(frag, (f.payload, last));
        // In-order drain: commit every consecutive fragment starting at the
        // stream position. Committed fragments hold credit (`held`) until a
        // reader consumes their message.
        while let Some((p, l)) = end.winrx.ready.remove(&end.rx_next_frag) {
            end.rx_next_frag += 1;
            end.winrx.held += 1;
            if l {
                let frags = end.asm.frags() as u32 + 1;
                let payload = end.asm.finish(p);
                q.rx.push_back(&mut end.rx, RxMsg { payload, frags });
                end.msgs_rx += 1;
                end.rx_waiters.wake_all(s, Wakeup::START);
            } else {
                end.asm.push(p);
            }
        }
    }
    send_wack(w, s, node, chan);
}

/// Send a windowed ack: cumulative ack in the seq's fragment field, plus a
/// selective-ack bitmap of out-of-order holdings and the current credit
/// grant. Advertising zero credit sets `starved` so the next reader-side
/// release pushes a fresh grant.
fn send_wack(w: &mut World, s: &mut VSched, node: NodeAddr, chan: u32) {
    let Some(end) = w.chan_mut(node, chan) else {
        return;
    };
    let cum = end.rx_next_frag - 1;
    let mut sack = 0u32;
    for &frag in end.winrx.ready.keys().chain(end.winrx.copying.iter()) {
        let off = frag.wrapping_sub(cum + 1);
        if off < 32 {
            sack |= 1 << off;
        }
    }
    let avail = end.win_avail();
    end.winrx.starved = avail == 0;
    let peer = end.peer;
    let f = Frame::unicast(
        node,
        peer,
        proto::KIND_CHAN_WACK,
        proto::chan_seq(chan, cum),
        proto::pack_wack(sack, avail),
    );
    kernel::send_frame(w, s, f);
}

/// Wake a parked windowed writer only when it can actually transmit, and —
/// hysteresis — only when the window has drained to half empty (or fully
/// empty, or credit just reopened a stalled stream). Each wake costs the
/// writer a context switch, so acking fragment-by-fragment must not wake
/// fragment-by-fragment.
fn maybe_wake_writer(end: &mut ChanEnd, s: &mut VSched, limit_opened: bool) {
    let next = end.msgs_tx as u32 + 1;
    let space = end.cfg.window.saturating_sub(end.win.inflight.len() as u32);
    let can_send = space > 0 && (next <= end.win.tx_limit || end.win.inflight.is_empty());
    if can_send
        && (end.win.inflight.is_empty()
            || space * 2 >= end.cfg.window
            || (limit_opened && next <= end.win.tx_limit))
    {
        end.tx_wait.wake_all(s, Wakeup::START);
    }
}

/// Kernel handler: a windowed ack (`KIND_CHAN_WACK`) arrived at the writer.
pub fn on_wack(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    let chan = proto::seq_chan(f.seq);
    let cum = proto::seq_frag(f.seq);
    let (sack, credit) = proto::parse_wack(&f.payload);
    let now_ns = s.now().as_ns();
    let gray = w.faults.gray_armed;
    let rearm = {
        let Some((end, q)) = w.chan_queues(node, chan) else {
            return; // crash or close raced the ack
        };
        if end.cfg.window <= 1 {
            return; // defensive: stop-and-wait ends never use this kind
        }
        // Cumulative ack: everything at or below `cum` is delivered. The
        // *newest* never-retransmitted fragment it drains is the one
        // unambiguous round-trip sample this ack carries (Karn's rule —
        // older drained fragments may have been covered by a lost earlier
        // ack, so their elapsed time overestimates the path).
        let before = end.win.inflight.len();
        let mut rtt_sample = None;
        while let Some(fr) = q
            .inflight
            .pop_front_if(&mut end.win.inflight, |fr| fr.frag() <= cum)
        {
            if gray && !fr.rexmit {
                rtt_sample = Some(now_ns.saturating_sub(fr.sent_ns));
            }
        }
        if let Some(rtt) = rtt_sample {
            end.rtt.sample(rtt);
            end.rto_backoff = 0;
        }
        let progress = end.win.inflight.len() < before;
        // Selective acks: skip these on retransmit timeouts. A bit naming a
        // fragment outside the in-flight run (a stale or damaged ack) finds
        // nothing and is ignored.
        let mut sacked_new = false;
        for i in 0..32u32 {
            if sack & (1 << i) != 0 {
                if let Some(fr) = end.win.get_mut(&mut q.inflight, cum.saturating_add(1 + i)) {
                    if !fr.sacked {
                        fr.sacked = true;
                        sacked_new = true;
                    }
                }
            }
        }
        // The transmit limit is monotonic (a reordered stale ack must not
        // shrink it): `cum + credit` only ever ratchets up.
        let new_limit = cum.saturating_add(credit);
        let limit_opened = new_limit > end.win.tx_limit;
        if limit_opened {
            end.win.tx_limit = new_limit;
        }
        if progress || sacked_new {
            // Forward progress: reset the retry budget and restart the
            // timer chain.
            end.win.busy_grants = 0;
            end.win.chain.restart();
            maybe_wake_writer(end, s, limit_opened);
            !end.win.inflight.is_empty()
        } else if credit == 0 && !end.win.inflight.is_empty() {
            // Zero credit, no progress: the receiver is full, not the
            // network lossy — the windowed analog of `KIND_CHAN_BUSY`.
            end.win.grant_busy()
        } else {
            // Duplicate ack carrying nothing new; it may still reopen the
            // credit limit for a stalled writer.
            if limit_opened {
                maybe_wake_writer(end, s, true);
            }
            false
        }
    };
    if rearm {
        retry::arm(w, s, node, TxRetry(chan));
    }
}

/// Retransmit every unsacked in-flight fragment of `chan`, oldest first
/// (go-back-N with selective-ack skip; one fragment for stop-and-wait) — the
/// only place channel data is ever re-sent. Each copy makes its fragment's
/// ack ambiguous for RTT sampling (Karn's rule). Walks by index, re-borrowing
/// the end around each `send_frame`, so no frame list is built.
fn retransmit_inflight(w: &mut World, s: &mut VSched, node: NodeAddr, chan: u32) {
    for i in 0.. {
        let end = w.chan_queues(node, chan);
        let Some(fr) = end.and_then(|(end, q)| q.inflight.get_mut(&end.win.inflight, i)) else {
            return;
        };
        if fr.sacked {
            continue;
        }
        fr.rexmit = true;
        let f = fr.frame.clone();
        w.faults.stats.retransmits += 1;
        kernel::send_frame(w, s, f);
    }
}

/// The retransmit chain of channel `chan`'s in-flight set. One timer guards
/// the whole set: on expiry [`retransmit_inflight`] re-sends it and the next
/// timer waits twice as long; after `chan_max_retries` silent retries the
/// writer gives up. Acks, BUSY grants, closes, crashes and resumes all
/// restart the chain.
struct TxRetry(u32);

impl Retry for TxRetry {
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain> {
        let end = w.chan_mut(node, self.0)?;
        (!end.win.inflight.is_empty()).then_some(&mut end.win.chain)
    }

    fn base_ns(&self, w: &World, node: NodeAddr) -> u64 {
        rto_base_ns(w, node, self.0)
    }

    fn budget(&self, w: &World) -> Option<u32> {
        Some(w.calib.chan_max_retries)
    }

    fn resend(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        if let Some(end) = w.chan_mut(node, self.0) {
            end.rto_backoff = (end.rto_backoff + 1).min(retry::MAX_SHIFT);
        }
        retransmit_inflight(w, s, node, self.0);
    }

    fn give_up(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        let Some(end) = w.chan_mut(node, self.0) else {
            return;
        };
        let peer = end.peer;
        let rideout = w.net.overload_active();
        let gray = w.faults.gray_armed;
        if (w.net.topology().generation() > 0 || rideout || gray) && w.node(peer).up {
            // The partition plane is active (or the fabric is under an
            // overload budget that may be shedding our data, or a gray fault
            // may be delaying acks past the retry chain) and the peer's node
            // is alive: the silence may be a routing outage, overload, or
            // degradation rather than a crash. Keep the in-flight set parked
            // (the exhausted timer is already dead) and let a heartbeat
            // probe — never shed — decide between resume and peer-down.
            if rideout {
                w.faults.stats.overload_rideouts += 1;
            }
            crate::membership::suspect(w, s, node, peer);
        } else {
            set_peer_down(w, s, node, self.0);
        }
    }
}

/// Reader-side credit release (windowed): if the last advertised grant was
/// zero, a freed message must push a fresh credit update or the writer stays
/// stalled forever.
fn release_win_credit(w: &mut World, s: &mut VSched, node: NodeAddr, chan: u32) {
    let send = match w.chan(node, chan) {
        Some(end) => end.winrx.starved && end.win_avail() > 0,
        None => false,
    };
    if send {
        send_wack(w, s, node, chan);
    }
}

/// After a reader frees a side buffer, accept one deferred fragment (and
/// release its withheld ack).
fn release_deferred(w: &mut World, s: &mut VSched, node: NodeAddr, chan: u32) {
    let Some(end) = w.chan(node, chan) else {
        return;
    };
    if end.cfg.window > 1 {
        return release_win_credit(w, s, node, chan);
    }
    if end.deferred.is_empty() || end.sidebuf_used() >= CHAN_SIDE_BUFFERS {
        return;
    }
    let f = w
        .chan_mut(node, chan)
        .expect("checked")
        .deferred
        .pop_front()
        .expect("checked");
    let last = f.kind == proto::KIND_CHAN_DATA_LAST;
    accept_fragment(w, s, node, f, last);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::world::VorxBuilder;
    use bytes::Bytes;

    #[test]
    fn fragment_splits_and_flags_last() {
        let frags: Vec<_> = fragment(Payload::Synthetic(2500)).collect();
        let lens: Vec<u32> = frags.iter().map(|(p, _)| p.len()).collect();
        assert_eq!(lens, vec![1024, 1024, 452]);
        let lasts: Vec<bool> = frags.iter().map(|(_, l)| *l).collect();
        assert_eq!(lasts, vec![false, false, true]);

        let frags: Vec<_> = fragment(Payload::Data(Bytes::from(vec![7u8; 1500]))).collect();
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].0.len(), 1024);
        assert!(frags[1].1);
    }

    #[test]
    fn assembler_concatenates_data() {
        let mut asm = PayloadAsm::default();
        asm.push(Payload::copy_from(&[1, 2]));
        asm.push(Payload::copy_from(&[3]));
        assert_eq!(asm.frags(), 2);
        let p = asm.take();
        assert_eq!(p.bytes().unwrap().as_ref(), &[1, 2, 3]);
        assert_eq!(asm.frags(), 0);
    }

    #[test]
    fn assembler_sums_synthetic() {
        let mut asm = PayloadAsm::default();
        asm.push(Payload::Synthetic(1024));
        asm.push(Payload::Synthetic(476));
        assert_eq!(asm.take().len(), 1500);
    }

    #[test]
    fn open_write_read_round_trip() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:writer", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "pipe");
            ch.write(&ctx, Payload::copy_from(b"hello vorx")).unwrap();
        });
        v.spawn("n2:reader", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "pipe");
            let msg = ch.read(&ctx).unwrap();
            assert_eq!(msg.bytes().unwrap().as_ref(), b"hello vorx");
        });
        v.run_all();
    }

    #[test]
    fn open_rendezvous_connects_matching_names_only() {
        let mut v = VorxBuilder::single_cluster(5).build();
        for (node, name, msg) in [(1u32, "a", b"AA"), (3, "b", b"BB")] {
            v.spawn(format!("n{node}:w"), move |ctx| {
                let ch = open(&ctx, NodeAddr(node), name);
                ch.write(&ctx, Payload::copy_from(msg)).unwrap();
            });
        }
        for (node, name, expect) in [(2u32, "a", b"AA"), (4, "b", b"BB")] {
            v.spawn(format!("n{node}:r"), move |ctx| {
                let ch = open(&ctx, NodeAddr(node), name);
                let m = ch.read(&ctx).unwrap();
                assert_eq!(m.bytes().unwrap().as_ref(), expect);
            });
        }
        v.run_all();
    }

    #[test]
    fn large_write_is_fragmented_and_reassembled() {
        let mut v = VorxBuilder::single_cluster(3).build();
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        v.spawn("n1:w", move |ctx| {
            let ch = open(&ctx, NodeAddr(1), "big");
            ch.write(&ctx, Payload::Data(Bytes::from(data))).unwrap();
        });
        v.spawn("n2:r", move |ctx| {
            let ch = open(&ctx, NodeAddr(2), "big");
            let m = ch.read(&ctx).unwrap();
            assert_eq!(m.bytes().unwrap().as_ref(), &expect[..]);
        });
        v.run_all();
    }

    #[test]
    fn stop_and_wait_preserves_order_across_many_messages() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:w", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "seq");
            for i in 0..20u8 {
                ch.write(&ctx, Payload::copy_from(&[i])).unwrap();
            }
        });
        v.spawn("n2:r", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "seq");
            for i in 0..20u8 {
                let m = ch.read(&ctx).unwrap();
                assert_eq!(m.bytes().unwrap().as_ref(), &[i]);
            }
        });
        v.run_all();
    }

    #[test]
    fn bidirectional_traffic_on_one_channel() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:pinger", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "pp");
            for i in 0..5u8 {
                ch.write(&ctx, Payload::copy_from(&[i])).unwrap();
                let r = ch.read(&ctx).unwrap();
                assert_eq!(r.bytes().unwrap().as_ref(), &[i + 100]);
            }
        });
        v.spawn("n2:ponger", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "pp");
            for i in 0..5u8 {
                let r = ch.read(&ctx).unwrap();
                assert_eq!(r.bytes().unwrap().as_ref(), &[i]);
                ch.write(&ctx, Payload::copy_from(&[i + 100])).unwrap();
            }
        });
        v.run_all();
    }

    #[test]
    fn read_any_picks_whichever_channel_has_data() {
        let mut v = VorxBuilder::single_cluster(4).build();
        v.spawn("n1:w1", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "mux-a");
            ctx.sleep(desim::SimDuration::from_ms(5));
            ch.write(&ctx, Payload::copy_from(b"from-a")).unwrap();
        });
        v.spawn("n2:w2", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "mux-b");
            ch.write(&ctx, Payload::copy_from(b"from-b")).unwrap();
        });
        v.spawn("n3:mux", |ctx| {
            let a = open(&ctx, NodeAddr(3), "mux-a");
            let b = open(&ctx, NodeAddr(3), "mux-b");
            let (i1, m1) = read_any(&ctx, NodeAddr(3), &[a, b]).unwrap();
            let (i2, m2) = read_any(&ctx, NodeAddr(3), &[a, b]).unwrap();
            // b's writer is not delayed, so it arrives first.
            assert_eq!(i1, 1);
            assert_eq!(m1.bytes().unwrap().as_ref(), b"from-b");
            assert_eq!(i2, 0);
            assert_eq!(m2.bytes().unwrap().as_ref(), b"from-a");
        });
        v.run_all();
    }

    #[test]
    fn slow_reader_stalls_writer_via_withheld_acks() {
        // With instant software costs, a writer burst can outrun the reader;
        // the side-buffer limit (8) plus withheld acks must bound the
        // writer's lead rather than dropping anything.
        let mut v = VorxBuilder::single_cluster(3)
            .calibration(Calibration::instant())
            .build();
        v.spawn("n1:w", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "stall");
            for i in 0..30u8 {
                ch.write(&ctx, Payload::copy_from(&[i])).unwrap();
            }
        });
        v.spawn("n2:r", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "stall");
            for i in 0..30u8 {
                ctx.sleep(desim::SimDuration::from_ms(1)); // slow consumer
                let m = ch.read(&ctx).unwrap();
                assert_eq!(m.bytes().unwrap().as_ref(), &[i]);
            }
        });
        v.run_all();
    }

    #[test]
    fn message_counters_track_both_directions() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:w", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "count");
            ch.write(&ctx, Payload::Synthetic(100)).unwrap();
            ch.write(&ctx, Payload::Synthetic(100)).unwrap();
            let _ = ch.read(&ctx).unwrap();
        });
        v.spawn("n2:r", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "count");
            let _ = ch.read(&ctx).unwrap();
            let _ = ch.read(&ctx).unwrap();
            ch.write(&ctx, Payload::Synthetic(10)).unwrap();
        });
        v.run_all();
        let w = v.world();
        let end1 = w.chan_ends.of(NodeAddr(1)).next().unwrap();
        let end2 = w.chan_ends.of(NodeAddr(2)).next().unwrap();
        assert_eq!(end1.msgs_tx, 2);
        assert_eq!(end1.msgs_rx, 1);
        assert_eq!(end2.msgs_rx, 2);
        assert_eq!(end2.msgs_tx, 1);
    }
}

// ---------------------------------------------------------------------------
// Server name reuse (§4): "a mechanism that allows servers to continually
// reuse a single channel name."
// ---------------------------------------------------------------------------

/// State of one listening name on a node.
#[derive(Debug, Default)]
pub struct ListenState {
    /// Registration acknowledged by the object manager.
    pub acked: bool,
    /// The registration request's token, kept for retransmission.
    pub(crate) token: u64,
    /// The registration's retransmit chain, disarmed on `SERVE_ACK`.
    pub(crate) chain: Chain,
    /// Accepted-but-unclaimed connections: `(channel id, client node)`.
    pub(crate) pending: std::collections::VecDeque<(u32, NodeAddr)>,
    /// Processes blocked in `accept` (or awaiting the registration ack).
    pub(crate) waiters: WaitSet,
}

/// A server-side listening name. Every client `open` of the name yields a
/// *new* channel, delivered through [`Listener::accept`]; the name itself
/// stays registered.
#[derive(Debug, Clone)]
pub struct Listener {
    /// The server's node.
    pub(crate) node: NodeAddr,
    /// The listening name.
    pub(crate) name: Name,
}

/// Register `name` as a server name on `node` and wait until the object
/// manager acknowledges the registration. On a down node nothing is
/// registered, as when the node crashes mid-registration: the call returns
/// at once and `accept` stays parked.
///
/// Note: plain `open`s are symmetric, so two clients that open the name
/// *before* the server registers will pair with each other (the ordinary
/// rendezvous). Register the server before starting clients, or use a name
/// only clients-of-this-server open.
pub fn listen(ctx: &VCtx, node: NodeAddr, name: &str) -> Listener {
    let syscall_ns = ctx.with(|w, _| w.calib.chan_read_syscall_ns);
    api::compute_ns(ctx, node, CpuCat::System, syscall_ns);
    let name = Name::new(name);
    let name_owned = name.clone();
    ctx.with(move |w, s| {
        if !w.node(node).up {
            return; // nothing registered: `accept` stays parked
        }
        let prev = w
            .listeners
            .insert(node, name_owned.clone(), ListenState::default());
        assert!(
            prev.is_none(),
            "name {name_owned:?} already listening on {node}"
        );
        let mgr = crate::objmgr::manager_for(w, &name_owned);
        let token = w.token();
        w.listeners
            .get_mut(node, &name_owned)
            .expect("just inserted")
            .token = token;
        let f = Frame::unicast(
            node,
            mgr,
            proto::KIND_SERVE_REQ,
            token,
            proto::pack_open_req(&name_owned),
        );
        kernel::send_frame(w, s, f);
        retry::arm(w, s, node, ListenRetry(name_owned));
    });
    let pid = ctx.pid();
    let name_owned = name.clone();
    ctx.wait_until(move |w, _| {
        let Some(ls) = w.listeners.get_mut(node, &name_owned) else {
            return Some(()); // our node crashed; the registration died with it
        };
        if ls.acked {
            Some(())
        } else {
            ls.waiters.register(pid);
            None
        }
    });
    Listener { node, name }
}

/// The retransmit chain of the unacknowledged registration of this listen
/// name. The `SERVE_ACK` is a plain frame: if it is lost, the next
/// retransmission here makes the manager re-ack (registrations are
/// idempotent per token). After [`OPEN_MAX_RETRIES`] the chain gives up
/// silently — an unreachable manager leaves the listener parked (see
/// DESIGN.md on non-recoverable paths).
struct ListenRetry(Name);

impl Retry for ListenRetry {
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain> {
        let ls = w.listeners.get_mut(node, &self.0)?;
        (!ls.acked).then_some(&mut ls.chain)
    }

    fn base_ns(&self, _: &World, _: NodeAddr) -> u64 {
        OPEN_TIMEOUT_NS
    }

    fn budget(&self, _: &World) -> Option<u32> {
        Some(OPEN_MAX_RETRIES)
    }

    fn resend(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        let Some(token) = w.listeners.get(node, &self.0).map(|ls| ls.token) else {
            return;
        };
        let mgr = crate::objmgr::manager_for(w, &self.0);
        w.faults.stats.retransmits += 1;
        let req = proto::pack_open_req(&self.0);
        let f = Frame::unicast(node, mgr, proto::KIND_SERVE_REQ, token, req);
        kernel::send_frame(w, s, f);
    }
}

impl Listener {
    /// Block until the next client opens this name; returns the fresh
    /// channel to that client.
    pub fn accept(&self, ctx: &VCtx) -> ChannelHandle {
        let node = self.node;
        let name = self.name.clone();
        let pid = ctx.pid();
        let (id, peer) = ctx.wait_until(move |w, _| {
            // If the node crashed the listener is gone and nobody will wake
            // us — stay parked (documented non-recoverable path) rather
            // than panic in the wake path.
            let ls = w.listeners.get_mut(node, &name)?;
            match ls.pending.pop_front() {
                Some(conn) => Some(conn),
                None => {
                    ls.waiters.register(pid);
                    None
                }
            }
        });
        let syscall_ns = ctx.with(|w, _| w.calib.chan_read_syscall_ns);
        api::compute_ns(ctx, node, CpuCat::System, syscall_ns);
        ChannelHandle { id, node, peer }
    }
}

impl World {
    /// Node `a`'s listener on `name`, found without building a [`Name`].
    fn listener_mut(&mut self, a: NodeAddr, name: &str) -> Option<(&Name, &mut ListenState)> {
        self.listeners.find_mut(a, |k, _| *k == name)
    }
}

/// Kernel handler: the object manager acknowledged a listen registration.
/// Duplicates (a retransmitted registration re-acked) are idempotent.
pub(crate) fn on_serve_ack(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    let name = proto::parse_open_req(&f.payload);
    let Some((_, ls)) = w.listener_mut(node, name) else {
        return; // crash wiped the listener; stale ack
    };
    ls.acked = true;
    ls.chain.disarm();
    ls.waiters.wake_all(s, Wakeup::START);
}

/// Kernel handler: a client connected to a listening name — create the
/// server-side end of the new channel and queue it for `accept`. Delivered
/// reliably by the manager, so ack first, then deduplicate.
pub(crate) fn on_serve_conn(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    crate::fault::ack_ctl(w, s, node, &f);
    let (id, client, name) = proto::parse_open_rep(&f.payload);
    if w.chan_ends.contains(node, id) {
        return; // duplicate connect (our first ack was lost)
    }
    let Some((key, ls)) = w.listener_mut(node, name) else {
        return; // listener died with a crash; the client will learn via timeout
    };
    if ls.pending.len() >= LISTENER_BACKLOG_CAP {
        // Bounded listener backlog: discard the connection instead of
        // growing the unaccepted queue without limit. The manager's CTL_ACK
        // was already sent, so no retransmit storm; the client's end stays
        // half-open and its first write times out into the normal recovery
        // path. (The client-side channel is NOT capped here: erroring the
        // *server* out of an accept it never saw is safe, wedging the client
        // mid-open is not.)
        w.faults.stats.table_rejects += 1;
        return;
    }
    let key = key.clone();
    create_end(w, s, node, id, key.clone(), client);
    let Some(ls) = w.listeners.get_mut(node, &key) else {
        return;
    };
    ls.pending.push_back((id, client));
    ls.waiters.wake_all(s, Wakeup::START);
}

#[cfg(test)]
mod close_tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn reader_drains_buffer_then_sees_close() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:w", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "c");
            ch.write(&ctx, Payload::copy_from(b"one")).unwrap();
            ch.write(&ctx, Payload::copy_from(b"two")).unwrap();
            ch.close(&ctx);
        });
        v.spawn("n2:r", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "c");
            ctx.sleep(desim::SimDuration::from_ms(20)); // let the close land
            assert_eq!(ch.read(&ctx).unwrap().bytes().unwrap().as_ref(), b"one");
            assert_eq!(ch.read(&ctx).unwrap().bytes().unwrap().as_ref(), b"two");
            assert_eq!(ch.read(&ctx), Err(ChanError::PeerClosed));
        });
        v.run_all();
    }

    #[test]
    fn blocked_reader_is_woken_by_close() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:w", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "c");
            ctx.sleep(desim::SimDuration::from_ms(5));
            ch.close(&ctx);
        });
        v.spawn("n2:r", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "c");
            // Blocks with nothing buffered; must not hang forever.
            assert_eq!(ch.read(&ctx), Err(ChanError::PeerClosed));
            assert!(ctx.now() >= desim::SimTime::from_ns(5_000_000));
        });
        v.run_all();
    }

    #[test]
    fn write_after_peer_close_fails() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:closer", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "c");
            ch.close(&ctx);
        });
        v.spawn("n2:w", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "c");
            ctx.sleep(desim::SimDuration::from_ms(20));
            assert_eq!(
                ch.write(&ctx, Payload::Synthetic(4)),
                Err(ChanError::PeerClosed)
            );
        });
        v.run_all();
    }

    #[test]
    fn local_close_fails_own_operations() {
        let mut v = VorxBuilder::single_cluster(3).build();
        v.spawn("n1:a", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "c");
            ch.close(&ctx);
            ch.close(&ctx); // idempotent
            assert_eq!(
                ch.write(&ctx, Payload::Synthetic(1)),
                Err(ChanError::LocalClosed)
            );
            assert_eq!(ch.read(&ctx), Err(ChanError::LocalClosed));
        });
        v.spawn("n2:b", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "c");
            assert_eq!(ch.read(&ctx), Err(ChanError::PeerClosed));
        });
        v.run_all();
    }

    #[test]
    fn read_any_errors_when_every_channel_closed() {
        let mut v = VorxBuilder::single_cluster(4).build();
        for n in [1u32, 2] {
            v.spawn(format!("n{n}:c"), move |ctx| {
                let ch = open(&ctx, NodeAddr(n), &format!("m{n}"));
                ch.close(&ctx);
            });
        }
        v.spawn("n3:mux", |ctx| {
            let a = open(&ctx, NodeAddr(3), "m1");
            let b = open(&ctx, NodeAddr(3), "m2");
            assert_eq!(
                read_any(&ctx, NodeAddr(3), &[a, b]),
                Err(ChanError::PeerClosed)
            );
        });
        v.run_all();
    }
}

#[cfg(test)]
mod listen_tests {
    use super::*;
    use crate::world::VorxBuilder;

    #[test]
    fn server_accepts_many_clients_on_one_name() {
        // §4: "a mechanism that allows servers to continually reuse a
        // single channel name."
        let mut v = VorxBuilder::single_cluster(6).build();
        v.spawn("n1:server", |ctx| {
            let listener = listen(&ctx, NodeAddr(1), "service");
            for _ in 0..4 {
                let ch = listener.accept(&ctx);
                let req = ch.read(&ctx).unwrap();
                ch.write(&ctx, req).unwrap(); // echo
                ch.close(&ctx);
            }
        });
        for n in 2..6u32 {
            v.spawn(format!("n{n}:client"), move |ctx| {
                let ch = open(&ctx, NodeAddr(n), "service");
                assert_eq!(ch.peer, NodeAddr(1));
                ch.write(&ctx, Payload::copy_from(&[n as u8])).unwrap();
                let rep = ch.read(&ctx).unwrap();
                assert_eq!(rep.bytes().unwrap().as_ref(), &[n as u8]);
            });
        }
        v.run_all();
    }

    #[test]
    fn client_queued_before_listen_is_connected() {
        // A single client that opens before the server registers is parked
        // at the manager and connected when the registration arrives. (Two
        // early clients would pair with *each other* — plain opens are
        // symmetric; see `listen` docs.)
        let mut v = VorxBuilder::single_cluster(4).build();
        v.spawn("n1:early", move |ctx| {
            let ch = open(&ctx, NodeAddr(1), "late-srv");
            assert_eq!(ch.peer, NodeAddr(3));
            ch.write(&ctx, Payload::Synthetic(8)).unwrap();
        });
        v.spawn("n3:server", |ctx| {
            ctx.sleep(desim::SimDuration::from_ms(10)); // client queues first
            let l = listen(&ctx, NodeAddr(3), "late-srv");
            let ch = l.accept(&ctx);
            let _ = ch.read(&ctx).unwrap();
        });
        v.run_all();
    }

    #[test]
    fn each_accept_gets_a_distinct_channel() {
        let mut v = VorxBuilder::single_cluster(4).build();
        v.spawn("n1:server", |ctx| {
            let l = listen(&ctx, NodeAddr(1), "s");
            let a = l.accept(&ctx);
            let b = l.accept(&ctx);
            assert_ne!(a.id, b.id);
            let ma = a.read(&ctx).unwrap();
            let mb = b.read(&ctx).unwrap();
            // Channels keep client streams separate.
            let (pa, pb) = (ma.bytes().unwrap()[0], mb.bytes().unwrap()[0]);
            assert_ne!(pa, pb);
        });
        for n in 2..4u32 {
            v.spawn(format!("n{n}:client"), move |ctx| {
                let ch = open(&ctx, NodeAddr(n), "s");
                ch.write(&ctx, Payload::copy_from(&[n as u8])).unwrap();
            });
        }
        v.run_all();
    }
}
