//! Event-driven simulator of the S/NET single-bus multicomputer and the
//! flow-control recovery strategies of §2 of the paper.
//!
//! The interesting physics: the bus delivers messages faster than receiver
//! *software* drains its 2048-byte FIFO, and on overflow the FIFO "retained
//! the portion of the message that was received up to the time of the
//! overflow", which the receiving kernel must read and discard. Under the
//! original busy-retry recovery this produces **lockout**: retrying senders
//! keep refilling every freed byte with partial garbage, so no whole message
//! ever fits again.

use std::collections::VecDeque;

use desim::queue::EventQueue;
use desim::rng::SplitMix64;

use crate::config::{SnetConfig, Strategy};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgKind {
    Data,
    Request,
    Grant,
}

#[derive(Debug, Clone, Copy)]
struct OutMsg {
    dst: usize,
    len: u32,
    seq: u64,
    kind: MsgKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ItemKind {
    Data,
    /// Truncated junk left in the FIFO by a rejected message.
    Partial,
    Request,
    Grant,
}

#[derive(Debug, Clone, Copy)]
struct FifoItem {
    kind: ItemKind,
    src: usize,
    seq: u64,
    /// Bytes occupied in the FIFO (header included).
    total: u32,
    drained: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SenderPhase {
    /// Ready to offer the head message to the bus.
    Ready,
    /// Offer queued at the bus or transfer in progress.
    Offering,
    /// Waiting out a backoff interval.
    BackingOff,
    /// Reservation protocol: request sent, waiting for the grant.
    AwaitGrant,
    /// Reservation protocol: grant received, authorized to send the data.
    Granted,
    /// Nothing to send.
    Idle,
}

struct Node {
    /// Software gap between a successful send and offering the next message
    /// (`None` = the busy-loop `retry_ns`). Models a paced application.
    send_gap_ns: Option<u64>,
    /// Data messages this node still has to send.
    pending: VecDeque<OutMsg>,
    /// Control messages (requests/grants) jump this queue.
    control: VecDeque<OutMsg>,
    phase: SenderPhase,
    consecutive_rejects: u32,
    // --- receiver side ---
    fifo: VecDeque<FifoItem>,
    fifo_used: u32,
    draining: bool,
    grant_queue: VecDeque<usize>,
    grant_outstanding: Option<usize>,
}

impl Node {
    fn new() -> Self {
        Node {
            send_gap_ns: None,
            pending: VecDeque::new(),
            control: VecDeque::new(),
            phase: SenderPhase::Idle,
            consecutive_rejects: 0,
            fifo: VecDeque::new(),
            fifo_used: 0,
            draining: false,
            grant_queue: VecDeque::new(),
            grant_outstanding: None,
        }
    }

    fn head(&self) -> Option<&OutMsg> {
        self.control.front().or_else(|| self.pending.front())
    }

    fn pop_head(&mut self) -> OutMsg {
        if let Some(m) = self.control.pop_front() {
            m
        } else {
            self.pending.pop_front().expect("pop with empty queues")
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Node offers its head message to the bus.
    Offer(usize),
    /// The bus finished transferring `msg` from `src`.
    TransferEnd { src: usize, msg: OutMsg },
    /// Receiver software finished one read chunk at node `n`.
    DrainChunk(usize),
}

/// One delivered message: `(time_ns, src, seq)`.
pub type Delivery = (u64, usize, u64);

/// Results of a run.
#[derive(Debug, Clone)]
pub struct SnetReport {
    /// All deliveries in order, per receiving node.
    pub delivered: Vec<Vec<Delivery>>,
    /// Total data messages delivered.
    pub delivered_total: u64,
    /// Rejected (overflowed) transfer attempts.
    pub rejects: u64,
    /// Garbage bytes the receivers had to read and discard.
    pub garbage_bytes: u64,
    /// Bus busy time, ns.
    pub bus_busy_ns: u64,
    /// Time of the last delivery (ns), or the deadline if none.
    pub last_delivery_ns: u64,
    /// True iff every enqueued data message was delivered before the
    /// deadline. `false` indicates starvation/lockout (or injected loss —
    /// S/NET software has no retransmission protocol to recover it).
    pub completed: bool,
    /// Data messages left undelivered at the deadline.
    pub undelivered: u64,
    /// Data messages lost to injected faults (vanished on the bus).
    pub lost: u64,
    /// Data messages that arrived corrupted and were discarded as junk.
    pub corrupted: u64,
}

/// The S/NET simulator. Build, enqueue traffic, [`SnetSim::run`].
pub struct SnetSim {
    cfg: SnetConfig,
    strategy: Strategy,
    nodes: Vec<Node>,
    /// The clock, and the events still to fire.
    queue: EventQueue<Event>,
    bus_busy: bool,
    bus_waiting: VecDeque<usize>,
    rng: SplitMix64,
    delivered: Vec<Vec<Delivery>>,
    rejects: u64,
    garbage_bytes: u64,
    bus_busy_ns: u64,
    enqueued_data: u64,
    delivered_data: u64,
    /// Injected fault probabilities for data messages in transit.
    fault_drop: f64,
    fault_corrupt: f64,
    lost: u64,
    corrupted: u64,
}

impl SnetSim {
    /// Create a simulator with `n` processors.
    pub fn new(cfg: SnetConfig, n: usize, strategy: Strategy, seed: u64) -> Self {
        SnetSim {
            cfg,
            strategy,
            nodes: (0..n).map(|_| Node::new()).collect(),
            queue: EventQueue::default(),
            bus_busy: false,
            bus_waiting: VecDeque::new(),
            rng: SplitMix64::new(seed),
            delivered: vec![Vec::new(); n],
            rejects: 0,
            garbage_bytes: 0,
            bus_busy_ns: 0,
            enqueued_data: 0,
            delivered_data: 0,
            fault_drop: 0.0,
            fault_corrupt: 0.0,
            lost: 0,
            corrupted: 0,
        }
    }

    /// Inject transit faults: each *data* message independently vanishes
    /// with probability `drop` or arrives as discardable junk with
    /// probability `corrupt`. Draws come from the simulator's seeded RNG in
    /// bus-transfer order, so runs stay deterministic per seed; with both
    /// probabilities zero no randomness is consumed. Control messages
    /// (reservation requests/grants) are left intact.
    pub fn set_faults(&mut self, drop: f64, corrupt: f64) {
        self.fault_drop = drop;
        self.fault_corrupt = corrupt;
    }

    /// `true` with probability `p`, drawing nothing when `p == 0`.
    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && (self.rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Number of processors.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Queue `count` data messages of `len` bytes from `src` to `dst`,
    /// with the first offered at time `start_ns`.
    pub fn enqueue(&mut self, src: usize, dst: usize, len: u32, count: u64, start_ns: u64) {
        assert_ne!(src, dst, "S/NET node cannot send to itself");
        assert!(
            len + self.cfg.header_bytes <= self.cfg.fifo_bytes,
            "message larger than the receive FIFO can never be delivered"
        );
        for i in 0..count {
            self.nodes[src].pending.push_back(OutMsg {
                dst,
                len,
                seq: i,
                kind: MsgKind::Data,
            });
        }
        self.enqueued_data += count;
        self.queue.push(start_ns, Event::Offer(src));
    }

    /// Like [`SnetSim::enqueue`], but the sender waits `gap_ns` after each
    /// successful send before offering the next message (a well-behaved,
    /// flow-controlled application rather than a hardware blast).
    pub fn enqueue_paced(
        &mut self,
        src: usize,
        dst: usize,
        len: u32,
        count: u64,
        start_ns: u64,
        gap_ns: u64,
    ) {
        self.nodes[src].send_gap_ns = Some(gap_ns);
        self.enqueue(src, dst, len, count, start_ns);
    }

    /// Run until quiescent or `deadline_ns`, whichever comes first.
    pub fn run(mut self, deadline_ns: u64) -> SnetReport {
        while let Some(ev) = self.queue.pop(deadline_ns) {
            match ev {
                Event::Offer(n) => self.offer(n),
                Event::TransferEnd { src, msg } => self.transfer_end(src, msg),
                Event::DrainChunk(n) => self.drain_chunk(n),
            }
        }
        let last_delivery_ns = self
            .delivered
            .iter()
            .flatten()
            .map(|(t, _, _)| *t)
            .max()
            .unwrap_or(deadline_ns);
        SnetReport {
            delivered_total: self.delivered_data,
            rejects: self.rejects,
            garbage_bytes: self.garbage_bytes,
            bus_busy_ns: self.bus_busy_ns,
            last_delivery_ns,
            completed: self.delivered_data == self.enqueued_data,
            undelivered: self.enqueued_data - self.delivered_data,
            lost: self.lost,
            corrupted: self.corrupted,
            delivered: self.delivered,
        }
    }

    /// Node `n` wants to put its head message on the bus.
    fn offer(&mut self, n: usize) {
        let node = &mut self.nodes[n];
        let Some(head) = node.head().copied() else {
            node.phase = SenderPhase::Idle;
            return;
        };
        // Under the reservation protocol a *data* message needs a grant.
        if self.strategy == Strategy::Reservation
            && head.kind == MsgKind::Data
            && node.control.is_empty()
        {
            match node.phase {
                SenderPhase::AwaitGrant => return, // request outstanding
                SenderPhase::Granted => {}         // authorized: send data
                _ => {
                    // Send a request first.
                    node.control.push_back(OutMsg {
                        dst: head.dst,
                        len: self.cfg.control_bytes,
                        seq: head.seq,
                        kind: MsgKind::Request,
                    });
                }
            }
        }
        node.phase = SenderPhase::Offering;
        if self.bus_busy {
            if !self.bus_waiting.contains(&n) {
                self.bus_waiting.push_back(n);
            }
        } else {
            self.start_transfer(n);
        }
    }

    fn start_transfer(&mut self, n: usize) {
        debug_assert!(!self.bus_busy);
        let msg = self.nodes[n].pop_head();
        let dur = self.cfg.transfer_ns(msg.len);
        self.bus_busy = true;
        self.bus_busy_ns += dur;
        self.queue.push_in(dur, Event::TransferEnd { src: n, msg });
    }

    fn bus_release(&mut self) {
        self.bus_busy = false;
        if let Some(next) = self.bus_waiting.pop_front() {
            // Re-check the node still has something to send.
            if self.nodes[next].head().is_some() {
                self.start_transfer(next);
            } else {
                self.nodes[next].phase = SenderPhase::Idle;
                self.bus_release();
            }
        }
    }

    fn transfer_end(&mut self, src: usize, msg: OutMsg) {
        let size = msg.len + self.cfg.header_bytes;
        let dst = msg.dst;
        if msg.kind == MsgKind::Data {
            if self.chance(self.fault_drop) {
                // The message vanishes in transit (bad address latch): the
                // bus cycle completed, so the sender saw success and moves
                // on. Without a software retransmission protocol the
                // message is gone for good.
                self.lost += 1;
                self.on_send_success(src, msg);
                self.bus_release();
                return;
            }
            if self.chance(self.fault_corrupt) {
                // Damaged in transit: whatever fits of it lands in the FIFO
                // as junk the receiving kernel must read and discard.
                self.corrupted += 1;
                let free = self.cfg.fifo_bytes - self.nodes[dst].fifo_used;
                let junk = size.min(free);
                if junk > 0 {
                    self.nodes[dst].fifo.push_back(FifoItem {
                        kind: ItemKind::Partial,
                        src,
                        seq: msg.seq,
                        total: junk,
                        drained: 0,
                    });
                    self.nodes[dst].fifo_used += junk;
                    self.garbage_bytes += u64::from(junk);
                    self.kick_drain(dst);
                }
                self.on_send_success(src, msg);
                self.bus_release();
                return;
            }
        }
        let free = self.cfg.fifo_bytes - self.nodes[dst].fifo_used;
        if size <= free {
            // Accepted whole.
            let kind = match msg.kind {
                MsgKind::Data => ItemKind::Data,
                MsgKind::Request => ItemKind::Request,
                MsgKind::Grant => ItemKind::Grant,
            };
            self.nodes[dst].fifo.push_back(FifoItem {
                kind,
                src,
                seq: msg.seq,
                total: size,
                drained: 0,
            });
            self.nodes[dst].fifo_used += size;
            self.kick_drain(dst);
            self.on_send_success(src, msg);
        } else {
            // Overflow: the FIFO keeps the truncated prefix, which the
            // receiving kernel must read and discard; the sender sees a
            // fifo-full signal and must resend the whole message.
            self.rejects += 1;
            if free > 0 {
                self.nodes[dst].fifo.push_back(FifoItem {
                    kind: ItemKind::Partial,
                    src,
                    seq: msg.seq,
                    total: free,
                    drained: 0,
                });
                self.nodes[dst].fifo_used += free;
                self.garbage_bytes += u64::from(free);
                self.kick_drain(dst);
            }
            self.on_send_reject(src, msg);
        }
        self.bus_release();
    }

    fn on_send_success(&mut self, src: usize, msg: OutMsg) {
        let node = &mut self.nodes[src];
        node.consecutive_rejects = 0;
        match (self.strategy, msg.kind) {
            (Strategy::Reservation, MsgKind::Request) => {
                node.phase = SenderPhase::AwaitGrant;
                // Do not offer the data yet; wait for the grant.
            }
            _ => {
                node.phase = SenderPhase::Ready;
                if node.head().is_some() {
                    // Software gap before offering the next message.
                    let gap = node.send_gap_ns.unwrap_or(self.cfg.retry_ns);
                    self.queue.push_in(gap, Event::Offer(src));
                } else {
                    node.phase = SenderPhase::Idle;
                }
            }
        }
    }

    fn on_send_reject(&mut self, src: usize, msg: OutMsg) {
        // The whole message must be resent: put it back at the head.
        let node = &mut self.nodes[src];
        match msg.kind {
            MsgKind::Data => node.pending.push_front(msg),
            _ => node.control.push_front(msg),
        }
        node.consecutive_rejects += 1;
        let delay = match self.strategy {
            Strategy::BusyRetry | Strategy::Reservation => self.cfg.retry_ns,
            Strategy::RandomBackoff => {
                let exp = node.consecutive_rejects.min(16);
                let window = (self.cfg.backoff_initial_ns << (exp - 1))
                    .min(self.cfg.backoff_max_ns)
                    .max(1);
                self.cfg.retry_ns + self.rng.next_u64() % window
            }
        };
        node.phase = SenderPhase::BackingOff;
        self.queue.push_in(delay, Event::Offer(src));
    }

    /// Start the receiver software drain loop at `n` if it is not running.
    fn kick_drain(&mut self, n: usize) {
        if !self.nodes[n].draining && !self.nodes[n].fifo.is_empty() {
            self.nodes[n].draining = true;
            // Per-message software overhead is charged before the first
            // chunk of each item.
            let d = self.cfg.sw_per_msg_ns + self.chunk_ns(n);
            self.queue.push_in(d, Event::DrainChunk(n));
        }
    }

    fn chunk_ns(&self, n: usize) -> u64 {
        let item = self.nodes[n].fifo.front().expect("drain with empty fifo");
        let remaining = item.total - item.drained;
        let chunk = remaining.min(self.cfg.drain_chunk_bytes);
        self.cfg.sw_read_ns_per_byte * u64::from(chunk)
    }

    fn drain_chunk(&mut self, n: usize) {
        let cfg_chunk = self.cfg.drain_chunk_bytes;
        let node = &mut self.nodes[n];
        let item = node.fifo.front_mut().expect("drain with empty fifo");
        let chunk = (item.total - item.drained).min(cfg_chunk);
        item.drained += chunk;
        node.fifo_used -= chunk; // space frees as the kernel reads
        if item.drained == item.total {
            let item = node.fifo.pop_front().expect("checked");
            match item.kind {
                ItemKind::Data => {
                    self.delivered[n].push((self.queue.now(), item.src, item.seq));
                    self.delivered_data += 1;
                    if self.strategy == Strategy::Reservation
                        && self.nodes[n].grant_outstanding == Some(item.src)
                    {
                        self.nodes[n].grant_outstanding = None;
                        self.maybe_grant(n);
                    }
                }
                ItemKind::Partial => { /* junk discarded */ }
                ItemKind::Request => {
                    self.nodes[n].grant_queue.push_back(item.src);
                    self.maybe_grant(n);
                }
                ItemKind::Grant => {
                    // This node's request was granted: send the data now.
                    self.nodes[n].phase = SenderPhase::Granted;
                    self.queue
                        .push_in(self.cfg.reservation_sw_ns, Event::Offer(n));
                }
            }
        }
        let node = &mut self.nodes[n];
        if node.fifo.is_empty() {
            node.draining = false;
        } else {
            let head_fresh = node.fifo.front().expect("checked").drained == 0;
            let extra = if head_fresh {
                self.cfg.sw_per_msg_ns
            } else {
                0
            };
            let d = extra + self.chunk_ns(n);
            self.queue.push_in(d, Event::DrainChunk(n));
        }
    }

    /// Authorize the next requester if no data transfer is outstanding.
    fn maybe_grant(&mut self, n: usize) {
        if self.nodes[n].grant_outstanding.is_some() {
            return;
        }
        let Some(who) = self.nodes[n].grant_queue.pop_front() else {
            return;
        };
        self.nodes[n].grant_outstanding = Some(who);
        self.nodes[n].control.push_back(OutMsg {
            dst: who,
            len: self.cfg.control_bytes,
            seq: 0,
            kind: MsgKind::Grant,
        });
        self.queue
            .push_in(self.cfg.reservation_sw_ns, Event::Offer(n));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn burst(strategy: Strategy, senders: usize, len: u32, count: u64) -> SnetReport {
        let mut sim = SnetSim::new(SnetConfig::paper_1985(), senders + 1, strategy, 42);
        for s in 1..=senders {
            sim.enqueue(s, 0, len, count, 0);
        }
        sim.run(30 * SEC)
    }

    #[test]
    fn paced_single_sender_delivers_everything() {
        // A sender paced slower than the receiver's drain never overflows.
        let mut sim = SnetSim::new(SnetConfig::paper_1985(), 2, Strategy::BusyRetry, 42);
        sim.enqueue_paced(1, 0, 1024, 20, 0, 400_000);
        let r = sim.run(30 * SEC);
        assert!(r.completed);
        assert_eq!(r.delivered_total, 20);
        assert_eq!(r.rejects, 0);
        // FIFO order.
        let seqs: Vec<u64> = r.delivered[0].iter().map(|(_, _, s)| *s).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn unpaced_single_sender_overruns_the_fifo() {
        // The raw hardware physics: the bus is faster than the receiving
        // kernel, so even one sender blasting back-to-back long messages
        // wedges the FIFO with partial junk. This is exactly why Meglos
        // channels used a stop-and-wait protocol (§4).
        let r = burst(Strategy::BusyRetry, 1, 1024, 20);
        assert!(!r.completed);
        assert!(r.garbage_bytes > 0);
    }

    #[test]
    fn twelve_short_messages_never_overflow() {
        // §2: "12 processors could each send a 150 byte message to a single
        // processor without overflowing its fifo."
        let r = burst(Strategy::BusyRetry, 11, 150, 1);
        assert!(r.completed);
        assert_eq!(r.rejects, 0);
        assert_eq!(r.garbage_bytes, 0);
    }

    #[test]
    fn busy_retry_long_messages_lock_out() {
        // §2: many senders, long messages, busy retry => lockout. Some
        // messages are never received within a generous deadline.
        let r = burst(Strategy::BusyRetry, 8, 1024, 50);
        assert!(!r.completed, "expected lockout, but all messages arrived");
        assert!(r.undelivered > 0);
        assert!(r.garbage_bytes > 0, "lockout should generate junk partials");
    }

    #[test]
    fn random_backoff_completes_but_slowly() {
        let retry = burst(Strategy::BusyRetry, 8, 1024, 8);
        let back = burst(Strategy::RandomBackoff, 8, 1024, 8);
        assert!(back.completed, "backoff must avoid lockout");
        // Busy retry with this load locks out; compare against the
        // no-contention bus-bound time instead: backoff pays heavily.
        let ideal_bus_ns = SnetConfig::paper_1985().transfer_ns(1024) * 64;
        assert!(
            back.last_delivery_ns > 3 * ideal_bus_ns,
            "backoff should run well below bus speed: {} vs ideal {}",
            back.last_delivery_ns,
            ideal_bus_ns
        );
        let _ = retry;
    }

    #[test]
    fn reservation_eliminates_overflow() {
        let r = burst(Strategy::Reservation, 11, 1024, 10);
        assert!(r.completed);
        assert_eq!(r.rejects, 0, "reservation must never overflow");
        assert_eq!(r.garbage_bytes, 0);
        assert_eq!(r.delivered_total, 110);
    }

    #[test]
    fn reservation_adds_latency_to_uncontended_messages() {
        // §2: "the extra software and communications overhead would increase
        // latency for all messages" — even a single uncontended sender.
        let plain = burst(Strategy::BusyRetry, 1, 256, 1);
        let resv = burst(Strategy::Reservation, 1, 256, 1);
        let t_plain = plain.delivered[0][0].0;
        let t_resv = resv.delivered[0][0].0;
        assert!(
            t_resv > t_plain + 2 * SnetConfig::paper_1985().transfer_ns(16),
            "reservation latency {t_resv} should exceed plain {t_plain} by \
             at least a request+grant round trip"
        );
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = SnetSim::new(SnetConfig::paper_1985(), 9, Strategy::RandomBackoff, seed);
            for s in 1..=8 {
                sim.enqueue(s, 0, 1024, 4, 0);
            }
            let r = sim.run(30 * SEC);
            (r.last_delivery_ns, r.rejects)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8)); // different seeds take different paths
    }

    #[test]
    fn injected_loss_is_deterministic_and_accounted() {
        let run = |seed| {
            let mut sim = SnetSim::new(SnetConfig::paper_1985(), 2, Strategy::BusyRetry, seed);
            sim.set_faults(0.2, 0.1);
            sim.enqueue_paced(1, 0, 512, 50, 0, 400_000);
            let r = sim.run(60 * SEC);
            (r.delivered_total, r.lost, r.corrupted, r.last_delivery_ns)
        };
        let (delivered, lost, corrupted, _) = run(11);
        assert_eq!(run(11), run(11), "same seed must replay identically");
        assert!(lost > 0, "20% loss over 50 messages must fire");
        assert!(corrupted > 0, "10% corruption over 50 messages must fire");
        assert_eq!(delivered + lost + corrupted, 50);
    }

    #[test]
    fn corrupted_messages_become_junk_the_kernel_discards() {
        let mut sim = SnetSim::new(SnetConfig::paper_1985(), 2, Strategy::BusyRetry, 3);
        sim.set_faults(0.0, 1.0); // every data message is damaged
        sim.enqueue_paced(1, 0, 256, 5, 0, 400_000);
        let r = sim.run(30 * SEC);
        assert_eq!(r.delivered_total, 0);
        assert_eq!(r.corrupted, 5);
        assert!(r.garbage_bytes > 0);
        assert!(!r.completed);
    }

    #[test]
    #[should_panic(expected = "larger than the receive FIFO")]
    fn oversize_message_rejected_at_enqueue() {
        let mut sim = SnetSim::new(SnetConfig::paper_1985(), 2, Strategy::BusyRetry, 1);
        sim.enqueue(1, 0, 2048, 1, 0);
    }
}
