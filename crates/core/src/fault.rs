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

use crate::cpu::TraceEvent;
use crate::kernel;
use crate::proto;
use crate::retry::{self, Chain, Retry};
use crate::world::{VCtx, VSched, World};

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
    /// Open requests refused (`KIND_OPEN_NACK`) or listener connections
    /// discarded because a bounded kernel table was full.
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
    /// window. Cached at construction: the transport RTT estimators sample
    /// and adapt only when set, so fault-free and loss-only runs keep the
    /// fixed calibration timers and replay byte-identically.
    pub gray_armed: bool,
    /// Cached [`desim::FaultSchedule::track_latency`]: whether delivered
    /// per-link latency statistics are recorded (off on clean scale runs).
    pub(crate) track_latency: bool,
    /// Flap damping: recent down timestamps per link, pruned to
    /// `flap_window_ns`. Keyed lookups only — never iterated.
    flap_history: desim::FixedMap<u32, std::collections::VecDeque<u64>>,
    /// Links currently held down by the damper, with the suppress epoch
    /// owning the pending reinstate timer (each new transition while held
    /// bumps the epoch, extending the hold).
    flap_held: desim::FixedMap<u32, u64>,
}

impl FaultState {
    /// Wrap a schedule with zeroed statistics.
    pub fn new(schedule: desim::FaultSchedule) -> Self {
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
    fn downs_in_window(&mut self, l: LinkId, now_ns: u64, window_ns: u64) -> usize {
        match self.flap_history.get_mut(&l.0) {
            Some(h) => {
                while h.front().is_some_and(|&t| t + window_ns < now_ns) {
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
        let gray = if self.gray_armed {
            self.schedule.gray_delay_ns(link.0, now_ns, hop_ns)
        } else {
            0
        };
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
    /// `ctl_timeout_ns` for ordinary control traffic; heartbeat probes use
    /// an adaptive deadline derived from the peer's observed RTT.
    pub base_timeout_ns: u64,
    /// The retransmit chain, disarmed when the ack arrives.
    pub chain: Chain,
}

/// Send a control frame (open reply, connect notification, close) with
/// at-least-once delivery: the receiver echoes `frame.seq` in a
/// `KIND_CTL_ACK`; until that arrives the sender retransmits with doubling
/// timeouts, giving up after `ctl_max_retries`. `frame.seq` must be unique
/// among the sender's outstanding control frames (tokens and
/// `chan_seq(id, 0)` keys never collide).
pub fn reliable_send(w: &mut World, s: &mut VSched, frame: Frame) {
    let base = w.calib.ctl_timeout_ns;
    reliable_send_with_timeout(w, s, frame, base);
}

/// [`reliable_send`] with an explicit base timeout — the membership layer's
/// heartbeat probes derive theirs from the peer's RTT estimate instead of
/// the fixed control-plane constant.
pub fn reliable_send_with_timeout(
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
        (from, key),
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
        Some(&mut w.ctl_unacked.get_mut(&(node, self.0))?.chain)
    }

    fn base_ns(&self, w: &World, node: NodeAddr) -> u64 {
        let p = w.ctl_unacked.get(&(node, self.0));
        p.map_or(w.calib.ctl_timeout_ns, |p| p.base_timeout_ns)
    }

    fn budget(&self, w: &World) -> Option<u32> {
        Some(w.calib.ctl_max_retries)
    }

    fn resend(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        if let Some(p) = w.ctl_unacked.get(&(node, self.0)) {
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
pub fn ack_ctl(w: &mut World, s: &mut VSched, node: NodeAddr, f: &Frame) {
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
pub fn on_ctl_ack(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
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
/// instead of leaking in a wait set.
///
/// Peers learn of the death from the failure-detection sweep
/// (`crash_detect_ns` later) or from retry exhaustion, whichever is first.
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

    // Wipe the node's kernel state cold, keeping the wait sets we must wake.
    // Wakes go in channel-id order: wake order feeds the event order that
    // the determinism guarantee rests on.
    let n = w.node_mut(node);
    n.up = false;
    n.rx_in_service = false;
    n.tx_q.clear();
    n.orphans.clear();
    n.resolve.clear();
    // Wiping an entry drops its retry chain, which disarms the chain's
    // timer: a dead node's timeouts must not keep ticking (they would be
    // no-ops, but no-op events still drag the simulated clock forward).
    n.listeners.clear();
    n.syscall_waits.clear();
    n.mgr = Default::default();
    n.mbr = Default::default();
    n.sched = Default::default();
    // UDCO and multicast state dies with the node. Their waiters are *not*
    // woken: those paths predate the recovery protocols and have no error
    // vocabulary (see DESIGN.md — processes using them on a crashed node
    // stay parked, as do listeners).
    n.udcos.clear();
    n.mcast.clear();
    n.mcast_pending.clear();
    n.coll.clear();
    w.wipe_handshakes(node);
    for mut end in w.take_chans(node) {
        crate::channel::clear_tx(&mut end);
        end.rx_waiters.wake_all(s, Wakeup::START);
        end.tx_wait.wake_all(s, Wakeup::START);
    }
    w.node_mut(node).open_waiters.wake_all(s, Wakeup::START);
    w.node_mut(node).syscall_waiters.wake_all(s, Wakeup::START);
    w.node_mut(node).tx_waiters.wake_all(s, Wakeup::START);

    // The application manager's failure detector is part of the manager
    // abstraction: mark the node's processes failed so `wait_app` completes.
    crate::appmgr::on_node_failed(w, node);

    // Failure-detection sweep: after `crash_detect_ns`, peers with channel
    // ends to this node learn it is down, and manager registrations backed
    // by it are evicted. Snapshot the affected ends now — ends created
    // after the crash (a new generation) must not be marked.
    let detect = w.calib.crash_detect_ns;
    if detect == u64::MAX {
        return;
    }
    let mut hits: Vec<(u32, u32)> = Vec::new();
    for (i, other) in w.nodes.iter().enumerate() {
        if i == node.0 as usize {
            continue;
        }
        let peered = w.chan_ends.of(other).filter(|e| e.peer == node);
        hits.extend(peered.map(|e| (i as u32, e.id)));
    }
    // Manager entries backed by the dead node are snapshotted the same way:
    // eviction only removes what was stale *at crash time*. If the node
    // restarts inside the detection window and re-registers (a new
    // generation), those fresh entries must survive the sweep. Tokens are
    // world-unique, so `(manager, name, token)` identifies a queued request
    // exactly.
    let mut stale_servers: Vec<(u32, String)> = Vec::new();
    let mut stale_pending: Vec<(u32, String, u64)> = Vec::new();
    for (i, other) in w.nodes.iter().enumerate() {
        for (name, srv) in &other.mgr.servers {
            if *srv == node {
                stale_servers.push((i as u32, name.clone()));
            }
        }
        for (name, q) in &other.mgr.pending {
            for &(req, token) in q {
                if req == node {
                    stale_pending.push((i as u32, name.clone(), token));
                }
            }
        }
    }
    s.schedule_in(SimDuration::from_ns(detect), move |w: &mut World, s| {
        for &(ni, id) in &hits {
            let Some(end) = w.chan_mut(NodeAddr(ni), id) else {
                continue;
            };
            if end.peer_down {
                continue;
            }
            end.peer_down = true;
            crate::channel::clear_tx(end);
            end.rx_waiters.wake_all(s, Wakeup::START);
            end.tx_wait.wake_all(s, Wakeup::START);
            w.faults.stats.peer_down_events += 1;
        }
        // Evict the manager entries snapshotted at crash time — and only
        // those, so registrations made after a restart are untouched.
        for (ni, name) in &stale_servers {
            let mgr = &mut w.nodes[*ni as usize].mgr;
            if mgr.servers.get(name) == Some(&node) {
                mgr.servers.remove(name);
            }
        }
        for (ni, name, token) in &stale_pending {
            let mgr = &mut w.nodes[*ni as usize].mgr;
            if let Some(q) = mgr.pending.get_mut(name) {
                q.retain(|(req, t)| !(*req == node && t == token));
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
    let mut opens: Vec<(NodeAddr, u64)> = w
        .open_waits
        .iter()
        .filter(|(_, (_, o))| {
            matches!(o, crate::world::OpenResult::Pending { mgr, .. } if *mgr == node)
        })
        .map(|(&t, &(a, _))| (a, t))
        .collect();
    opens.sort_unstable();
    for (a, t) in opens {
        crate::objmgr::resend_open(w, s, a, t);
    }
}

/// Take directed link `l` down: frames in flight on it die at the cut
/// (counted as down-drops, never delivered), the routing tables recompute
/// around the dead edge, and the partition-detection sweep is scheduled for
/// any node pairs the failure disconnected. A physical cable cut is two
/// directed links — inject both ids to model it.
pub fn on_link_down(w: &mut World, s: &mut VSched, l: LinkId) {
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
    let window = w.calib.flap_window_ns;
    if w.calib.flap_damp_downs > 0 {
        if w.faults.downs_in_window(l, now, window) > 0 {
            w.faults.schedule.note_flap(l.0);
        }
        w.faults.flap_history.entry(l.0).or_default().push_back(now);
    }
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
/// A link that flapped `flap_damp_downs` times within `flap_window_ns` is
/// *damped*: the up is suppressed and the link held down until it has been
/// stable for `flap_hold_ns` (each further transition extends the hold), so
/// the detour overlay and channel pause/resume stop thrashing.
pub fn on_link_up(w: &mut World, s: &mut VSched, l: LinkId) {
    if !w.net.is_link_down(l) {
        return;
    }
    let now = kernel::now_ns(s);
    if w.faults.flap_held.contains_key(&l.0) {
        // Still inside the hold: not stable yet.
        extend_flap_hold(w, s, l);
        return;
    }
    let damp = w.calib.flap_damp_downs;
    if damp > 0 && w.faults.downs_in_window(l, now, w.calib.flap_window_ns) >= damp as usize {
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
/// for `flap_hold_ns` from now. Only the newest epoch's timer acts, so
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
    let hold = w.calib.flap_hold_ns;
    s.schedule_in(SimDuration::from_ns(hold), move |w: &mut World, s| {
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
