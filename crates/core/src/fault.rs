//! The VORX side of the fault plane: crash/restart handling, the reliable
//! control-frame machinery, and recovery statistics.
//!
//! The 1988 hardware gave VORX a luxury most distributed kernels never had:
//! the HPC's store-and-forward buffering with hardware flow control meant a
//! frame, once accepted, was never lost. The recovery protocols here extend
//! the reproduction beyond that guarantee: when a seeded
//! [`desim::FaultSchedule`] is installed, frames can be dropped, corrupted,
//! or delayed in transit and nodes can crash and restart — and the channel
//! and object-manager protocols must recover (timeout, retransmit, dedup,
//! failover) rather than hang or panic.
//!
//! Everything fires as ordinary simulation events from seeded streams, so a
//! faulted run replays bit-identically from the same `(workload seed, fault
//! seed)` pair.

use desim::{SimDuration, Wakeup};
use hpcnet::{Frame, LinkId, NodeAddr, Payload, Transit};

use crate::calib::{
    CTL_MAX_RETRIES, CTL_TIMEOUT_NS, FLAP_DAMP_DOWNS, FLAP_HOLD_NS, FLAP_WINDOW_NS,
};
use crate::cpu::TraceEvent;
use crate::kernel;
use crate::objmgr::MgrKey;
use crate::proto;
use crate::retry::{self, Chain, Retry};
use crate::world::{Call, CallState, OpenResult, VCtx, VSched, World};

/// Recovery-protocol counters, kept alongside the schedule in
/// [`World::faults`].
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Data/control/open frames retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Duplicate channel fragments suppressed by the receiver (the ack was
    /// lost, or a retransmission crossed the ack in flight).
    pub dups_suppressed: u64,
    /// Frames discarded on arrival because the interface's CRC check failed.
    pub corrupted_rx: u64,
    /// `KIND_CHAN_BUSY` notifications sent (flow-control stall, not loss).
    pub busy_sent: u64,
    /// Channel ends that declared their peer down (retry exhaustion or the
    /// failure-detection sweep).
    pub peer_down_events: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node restarts injected.
    pub restarts: u64,
    /// Heartbeat beacons sent by the membership layer (partition suspicion).
    pub probes_sent: u64,
    /// Ordered node pairs declared partitioned (detection sweep or beacon
    /// exhaustion).
    pub partitions: u64,
    /// Partition marks cleared by the heal sweep.
    pub heals: u64,
    /// Pending opens failed over from an unreachable hash-home manager to
    /// its successor replica.
    pub mgr_failovers: u64,
    /// Retry exhaustions converted into membership probes because the fabric
    /// was under an overload budget: the writer rides out shedding via the
    /// pause/resume path instead of declaring its (alive) peer down.
    pub overload_rideouts: u64,
    /// Opens refused because the node already held
    /// [`MAX_CHANS_PER_NODE`](crate::calib::MAX_CHANS_PER_NODE) channels, or
    /// listener connections discarded past
    /// [`LISTENER_BACKLOG_CAP`](crate::calib::LISTENER_BACKLOG_CAP).
    pub table_rejects: u64,
    /// Collective attempt epochs opened by a root's retry timer (a
    /// contribution or flushed partial was lost, or a straggler outlasted
    /// the timeout — see DESIGN.md §16).
    pub coll_retries: u64,
}

impl std::ops::AddAssign<&FaultStats> for FaultStats {
    /// Sum another world's (another shard's) counters into this one. The
    /// destructuring names every field, so a counter added to the struct
    /// does not compile until it is merged here.
    fn add_assign(&mut self, o: &FaultStats) {
        let FaultStats {
            retransmits,
            dups_suppressed,
            corrupted_rx,
            busy_sent,
            peer_down_events,
            crashes,
            restarts,
            probes_sent,
            partitions,
            heals,
            mgr_failovers,
            overload_rideouts,
            table_rejects,
            coll_retries,
        } = self;
        *retransmits += o.retransmits;
        *dups_suppressed += o.dups_suppressed;
        *corrupted_rx += o.corrupted_rx;
        *busy_sent += o.busy_sent;
        *peer_down_events += o.peer_down_events;
        *crashes += o.crashes;
        *restarts += o.restarts;
        *probes_sent += o.probes_sent;
        *partitions += o.partitions;
        *heals += o.heals;
        *mgr_failovers += o.mgr_failovers;
        *overload_rideouts += o.overload_rideouts;
        *table_rejects += o.table_rejects;
        *coll_retries += o.coll_retries;
    }
}

/// The fault plane as the world sees it: the seeded schedule plus the
/// recovery statistics. Implements [`hpcnet::FaultHook`] so the fabric
/// consults the schedule (and its private RNG streams) on every hop.
#[derive(Debug)]
pub struct FaultState {
    /// The installed schedule (empty and fault-free by default).
    pub schedule: desim::FaultSchedule,
    /// Recovery counters.
    pub stats: FaultStats,
    /// True iff the schedule contains a gray (pure-delay) degradation
    /// window. Cached at construction. Only the paths it changes read it,
    /// so fault-free and loss-only runs keep the fixed calibration timers
    /// and replay byte-identically: the adaptive timeouts
    /// (`channel::rto_base_ns`, `membership::probe_timeout_ns`), the
    /// heartbeat RTT sample in [`crate::membership::on_probe_ack`] (it
    /// inserts a `peer_rtt` row), the ride-out in `TxRetry::give_up`, the
    /// bridged-frame delay in `kernel::bridge_one`, and the data-ack RTT
    /// samples in [`crate::channel::on_ack`] and [`crate::channel::on_wack`]
    /// (the `gray` campaign records their count, 0 on its churn cells).
    pub gray_armed: bool,
    /// Cached [`desim::FaultSchedule::track_latency`]: whether delivered
    /// per-link latency statistics are recorded (off on clean scale runs).
    pub(crate) track_latency: bool,
    /// Flap damping: recent down timestamps per link, pruned to
    /// [`FLAP_WINDOW_NS`]. Keyed lookups only — never iterated.
    flap_history: desim::FixedMap<u32, std::collections::VecDeque<u64>>,
    /// Links currently held down by the damper, with the suppress epoch
    /// owning the pending reinstate timer (each new transition while held
    /// bumps the epoch, extending the hold).
    flap_held: desim::FixedMap<u32, u64>,
}

impl FaultState {
    /// Wrap a schedule with zeroed statistics.
    pub(crate) fn new(schedule: desim::FaultSchedule) -> Self {
        let gray_armed = schedule.gray_possible();
        let track_latency = schedule.track_latency();
        FaultState {
            schedule,
            stats: FaultStats::default(),
            gray_armed,
            track_latency,
            flap_history: Default::default(),
            flap_held: Default::default(),
        }
    }

    /// Downs of `l` recorded within the damping window ending at `now_ns`.
    fn downs_in_window(&mut self, l: LinkId, now_ns: u64) -> usize {
        match self.flap_history.get_mut(&l.0) {
            Some(h) => {
                while h.front().is_some_and(|&t| t + FLAP_WINDOW_NS < now_ns) {
                    h.pop_front();
                }
                h.len()
            }
            None => 0,
        }
    }
}

impl hpcnet::FaultHook for FaultState {
    fn on_transit(&mut self, link: LinkId, _frame: &Frame, now_ns: u64, hop_ns: u64) -> Transit {
        let disp = self.schedule.disposition(link.0);
        // Gray degradation stacks on top of the probabilistic disposition:
        // a frame that survives loss still crosses the slow link.
        let gray = self.schedule.gray_delay_ns(link.0, now_ns, hop_ns);
        let t = match disp {
            desim::Disposition::Deliver if gray > 0 => Transit::Delay(gray),
            desim::Disposition::Deliver => Transit::Deliver,
            desim::Disposition::Drop => Transit::Drop,
            desim::Disposition::Corrupt => Transit::Corrupt,
            desim::Disposition::Delay(ns) => Transit::Delay(ns + gray),
        };
        if self.track_latency {
            match t {
                Transit::Deliver | Transit::Corrupt => self.schedule.note_delivered(link.0, hop_ns),
                Transit::Delay(extra) => self.schedule.note_delivered(link.0, hop_ns + extra),
                Transit::Drop => {}
            }
        }
        t
    }

    fn on_down_drop(&mut self, link: LinkId) {
        self.schedule.note_down_drop(link.0);
    }

    fn on_overload_drop(&mut self, link: LinkId) {
        self.schedule.note_overload_shed(link.0);
    }
}

/// A reliably-delivered control frame awaiting its `KIND_CTL_ACK`.
#[derive(Debug)]
pub struct CtlPending {
    /// The frame, kept for retransmission.
    pub frame: Frame,
    /// Base retransmit timeout for this frame (doubles per attempt).
    /// [`CTL_TIMEOUT_NS`] for ordinary control traffic; heartbeat probes use
    /// an adaptive deadline derived from the peer's observed RTT.
    pub base_timeout_ns: u64,
    /// The retransmit chain, disarmed when the ack arrives.
    pub chain: Chain,
}

/// Send a control frame (open reply, connect notification, close) with
/// at-least-once delivery: the receiver echoes `frame.seq` in a
/// `KIND_CTL_ACK`; until that arrives the sender retransmits with doubling
/// timeouts, giving up after [`CTL_MAX_RETRIES`]. `frame.seq` must be unique
/// among the sender's outstanding control frames (tokens and
/// `chan_seq(id, 0)` keys never collide).
pub fn reliable_send(w: &mut World, s: &mut VSched, frame: Frame) {
    reliable_send_with_timeout(w, s, frame, CTL_TIMEOUT_NS);
}

/// [`reliable_send`] with an explicit base timeout — the membership layer's
/// heartbeat probes derive theirs from the peer's RTT estimate instead of
/// the fixed control-plane constant.
pub(crate) fn reliable_send_with_timeout(
    w: &mut World,
    s: &mut VSched,
    frame: Frame,
    base_timeout_ns: u64,
) {
    let from = frame.src;
    let key = frame.seq;
    // The entry is the sender's kernel state: materialize its node.
    w.node_mut(from);
    w.ctl_unacked.insert(
        from,
        key,
        CtlPending {
            frame: frame.clone(),
            base_timeout_ns,
            chain: Chain::default(),
        },
    );
    kernel::send_frame(w, s, frame);
    retry::arm(w, s, from, CtlRetry(key));
}

/// The retry chain of the unacknowledged control frame with this `seq`.
struct CtlRetry(u64);

impl Retry for CtlRetry {
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain> {
        Some(&mut w.ctl_unacked.get_mut(node, &self.0)?.chain)
    }

    fn base_ns(&self, w: &World, node: NodeAddr) -> u64 {
        let p = w.ctl_unacked.get(node, &self.0);
        p.map_or(CTL_TIMEOUT_NS, |p| p.base_timeout_ns)
    }

    fn budget(&self, _: &World) -> Option<u32> {
        Some(CTL_MAX_RETRIES)
    }

    fn resend(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        if let Some(p) = w.ctl_unacked.get(node, &self.0) {
            let f = p.frame.clone();
            w.faults.stats.retransmits += 1;
            kernel::send_frame(w, s, f);
        }
    }

    /// The receiver is gone. Drop the entry; higher-level recovery
    /// (peer-down marking, manager re-resolution) owns the outcome. A
    /// heartbeat beacon *is* that recovery — its exhaustion is the
    /// membership layer's unreachability verdict.
    fn give_up(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        let Some(p) = w.take_ctl_unacked(node, self.0) else {
            return;
        };
        if let (proto::KIND_HEARTBEAT, hpcnet::Dest::Unicast(peer)) = (p.frame.kind, &p.frame.dst) {
            crate::membership::on_probe_failed(w, s, node, *peer);
        }
    }
}

/// Receiver side of [`reliable_send`]: acknowledge receipt of control frame
/// `f` at `node`. Handlers call this before deduplicating, so a dup (the
/// first ack was lost) is re-acked.
pub(crate) fn ack_ctl(w: &mut World, s: &mut VSched, node: NodeAddr, f: &Frame) {
    let ack = Frame::unicast(
        node,
        f.src,
        proto::KIND_CTL_ACK,
        f.seq,
        Payload::Synthetic(0),
    );
    kernel::send_frame(w, s, ack);
}

/// Kernel handler: a control-frame ack arrived; stop retransmitting. An
/// acked heartbeat beacon is the membership layer's reachability evidence.
pub(crate) fn on_ctl_ack(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    // Dropping the entry disarms its chain.
    if let Some(p) = w.take_ctl_unacked(node, f.seq) {
        if p.frame.kind == proto::KIND_HEARTBEAT {
            if let hpcnet::Dest::Unicast(peer) = p.frame.dst {
                crate::membership::on_probe_ack(w, s, node, peer, p.chain.attempts);
            }
        }
    }
}

/// Crash `node`: its interface goes dark (in-flight frames to and from it
/// die), its kernel state is wiped cold, and every process parked in a
/// recovery-aware wait (channel read/write, open, syscall) is woken so its
/// wait closure observes the loss and returns [`crate::VorxError::NodeDown`]
/// instead of leaking in a wait set; a multicast writer returns as it would
/// on a down node.
///
/// Peers learn of the death from the failure-detection sweep
/// (`crash_detect_ns` later) or from retry exhaustion, whichever is first;
/// the sweep also fails the syscalls the node was serving as a host with
/// [`crate::VorxError::HostDown`].
pub fn on_crash(w: &mut World, s: &mut VSched, node: NodeAddr) {
    if !w.node(node).up {
        return;
    }
    let now = s.now();
    w.faults.stats.crashes += 1;
    w.trace.record(
        now,
        TraceEvent::Fault {
            node: node.0,
            up: false,
        },
    );
    kernel::fabric_step(w, s, |w, out| {
        w.net.set_endpoint_down(now.as_ns(), node, true, out)
    });

    // A cold node takes the slot and the node's rows leave every world
    // table. Wakes go in channel-id, then call-token order (wake order
    // feeds the event order determinism rests on); UDCO, multicast
    // reader and listener waiters stay parked, as DESIGN.md §9 documents.
    // Dropping the rows disarms every retry chain the node held: a dead
    // node's timeouts must not drag the simulated clock forward.
    let mut wiped = w.wipe_node(node);
    for mut end in wiped.ends {
        end.wake_all(s);
    }
    for pid in wiped.callers {
        s.wake(pid, Wakeup::START);
    }
    wiped.node.tx_waiters.wake_all(s, Wakeup::START);

    // The application manager's failure detector is part of the manager
    // abstraction: mark the node's processes failed so `wait_app` completes.
    crate::appmgr::on_node_failed(w, node);

    // Failure-detection sweep: after `crash_detect_ns`, peers with channel
    // ends to this node learn it is down, syscalls it was serving as a host
    // fail, and manager entries backed by it are evicted. All are
    // snapshotted now: what the node builds after a restart inside the
    // window (a new generation) must survive the sweep. Tokens are
    // world-unique, so `(manager, name, token)` identifies a queued request
    // exactly. Idle templates hold neither ends, calls nor entries.
    let detect = w.calib.crash_detect_ns;
    if detect == u64::MAX {
        return;
    }
    let mut hits: Vec<(NodeAddr, u32)> = Vec::new();
    let mut served: Vec<(NodeAddr, u64)> = Vec::new();
    let mut stale_servers: Vec<(NodeAddr, MgrKey)> = Vec::new();
    let mut stale_pending: Vec<(NodeAddr, MgrKey, u64)> = Vec::new();
    let mgr = &w.managers;
    for a in w.nodes.touched().map(|n| n.addr) {
        let peered = w.chan_ends.of(a).filter(|e| e.peer == node);
        hits.extend(peered.map(|e| (a, e.id)));
        let calls = w.calls.of(a).filter(
            |(_, c)| matches!(c.state, CallState::Syscall { host, ret: None } if host == node),
        );
        served.extend(calls.map(|(token, _)| (a, *token)));
        let servers = mgr.servers.of(a).filter(|(_, srv)| **srv == node);
        stale_servers.extend(servers.map(|(key, _)| (a, key.clone())));
        let pending = mgr.pending.of(a).filter(|(_, (req, _))| *req == node);
        stale_pending.extend(pending.map(|(key, &(_, token))| (a, key.clone(), token)));
    }
    s.schedule_in(SimDuration::from_ns(detect), move |w: &mut World, s| {
        for &(a, id) in &hits {
            crate::channel::set_peer_down(w, s, a, id);
        }
        for &(a, token) in &served {
            crate::host::answer_syscall(w, s, a, token, Err(crate::VorxError::HostDown));
        }
        // Evict the manager entries snapshotted at crash time — and only
        // those, so registrations made after a restart are untouched.
        let mgr = &mut w.managers;
        for (a, key) in &stale_servers {
            if mgr.servers.get(*a, key) == Some(&node) {
                mgr.servers.remove(*a, key);
            }
        }
        for (a, key, token) in &stale_pending {
            if mgr.pending.get(*a, key) == Some(&(node, *token)) {
                mgr.pending.remove(*a, key);
            }
        }
    });
}

/// Restart `node` with cold kernel state: the interface comes back up,
/// processes parked in [`wait_until_up`] resume, and opens that were queued
/// at a manager on this node (whose state died with it) are re-resolved by
/// retransmitting their requests.
pub fn on_restart(w: &mut World, s: &mut VSched, node: NodeAddr) {
    if w.node(node).up {
        return;
    }
    let now = s.now();
    w.faults.stats.restarts += 1;
    w.trace.record(
        now,
        TraceEvent::Fault {
            node: node.0,
            up: true,
        },
    );
    w.node_mut(node).up = true;
    kernel::fabric_step(w, s, |w, out| {
        w.net.set_endpoint_down(now.as_ns(), node, false, out)
    });
    w.node_mut(node).up_waiters.wake_all(s, Wakeup::START);

    // Manager failover: requesters whose open was queued at this manager
    // before the crash are still parked (their retransmit chains stopped at
    // the KIND_OPEN_QUEUED ack). The manager's queue died with it, so those
    // requests restart from scratch.
    let queued = |c: &Call| matches!(c.state, CallState::Open(OpenResult::Pending { mgr, .. }) if mgr == node);
    let opens: Vec<(NodeAddr, u64)> = (w.nodes.touched())
        .flat_map(|n| w.calls.of(n.addr).map(move |(t, c)| (n.addr, *t, c)))
        .filter(|(_, _, c)| queued(c))
        .map(|(a, t, _)| (a, t))
        .collect();
    for (a, t) in opens {
        crate::objmgr::resend_open(w, s, a, t);
    }
}

/// Take directed link `l` down: frames in flight on it die at the cut
/// (counted as down-drops, never delivered), the routing tables recompute
/// around the dead edge, and the partition-detection sweep is scheduled for
/// any node pairs the failure disconnected. A physical cable cut is two
/// directed links — inject both ids to model it.
pub(crate) fn on_link_down(w: &mut World, s: &mut VSched, l: LinkId) {
    let now = kernel::now_ns(s);
    if w.net.is_link_down(l) {
        // Another down while the damper holds the link: not a state change,
        // but evidence of continued instability — extend the hold.
        if w.faults.flap_held.contains_key(&l.0) {
            w.faults.schedule.note_flap(l.0);
            extend_flap_hold(w, s, l);
        }
        return;
    }
    // Flap bookkeeping: a down within the damping window of the previous
    // down counts as a flap.
    if w.faults.downs_in_window(l, now) > 0 {
        w.faults.schedule.note_flap(l.0);
    }
    w.faults.flap_history.entry(l.0).or_default().push_back(now);
    w.faults.schedule.note_link_down(l.0);
    w.trace.record(
        s.now(),
        TraceEvent::LinkFault {
            link: l.0,
            up: false,
        },
    );
    kernel::fabric_step(w, s, |w, out| w.net.set_link_down(now, l, true, out));
    crate::membership::schedule_partition_sweep(w, s);
}

/// Bring directed link `l` back up: the routing tables recompute (healing
/// to the baseline when no dead edges remain), and the membership heal
/// sweep reconnects every node pair the restored edge made reachable again.
///
/// A link that flapped [`FLAP_DAMP_DOWNS`] times within [`FLAP_WINDOW_NS`] is
/// *damped*: the up is suppressed and the link held down until it has been
/// stable for [`FLAP_HOLD_NS`] (each further transition extends the hold), so
/// the detour overlay and channel pause/resume stop thrashing.
pub(crate) fn on_link_up(w: &mut World, s: &mut VSched, l: LinkId) {
    if !w.net.is_link_down(l) {
        return;
    }
    let now = kernel::now_ns(s);
    if w.faults.flap_held.contains_key(&l.0) {
        // Still inside the hold: not stable yet.
        extend_flap_hold(w, s, l);
        return;
    }
    if w.faults.downs_in_window(l, now) >= FLAP_DAMP_DOWNS as usize {
        w.faults.flap_held.insert(l.0, 0);
        extend_flap_hold(w, s, l);
        return;
    }
    raise_link(w, s, l);
}

/// The undamped link-up path: trace, fabric state, heal sweep.
fn raise_link(w: &mut World, s: &mut VSched, l: LinkId) {
    w.trace.record(
        s.now(),
        TraceEvent::LinkFault {
            link: l.0,
            up: true,
        },
    );
    let now = kernel::now_ns(s);
    kernel::fabric_step(w, s, |w, out| w.net.set_link_down(now, l, false, out));
    crate::membership::on_heal(w, s);
}

/// Bump the suppress epoch of held link `l` and (re)schedule its reinstate
/// for [`FLAP_HOLD_NS`] from now. Only the newest epoch's timer acts, so
/// every transition during the hold pushes reinstatement further out.
fn extend_flap_hold(w: &mut World, s: &mut VSched, l: LinkId) {
    let epoch = {
        let e = w
            .faults
            .flap_held
            .get_mut(&l.0)
            .expect("caller holds the link");
        *e += 1;
        *e
    };
    let hold = SimDuration::from_ns(FLAP_HOLD_NS);
    s.schedule_in(hold, move |w: &mut World, s| {
        if w.faults.flap_held.get(&l.0) != Some(&epoch) {
            return; // a newer transition extended the hold
        }
        w.faults.flap_held.remove(&l.0);
        w.faults.flap_history.remove(&l.0);
        if w.net.is_link_down(l) {
            raise_link(w, s, l);
        }
    });
}

/// Park the calling process until `node` is up (restart notification).
/// Returns immediately if it already is.
pub fn wait_until_up(ctx: &VCtx, node: NodeAddr) {
    let pid = ctx.pid();
    ctx.wait_until(move |w, _| {
        if w.node(node).up {
            Some(())
        } else {
            w.node_mut(node).up_waiters.register(pid);
            None
        }
    });
}
