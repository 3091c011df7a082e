//! Heartbeat membership and partition detection.
//!
//! The PR 2 fault plane distinguishes exactly two peer states: *up* and
//! *crashed*. Link failures introduce a third: **partitioned** — the peer's
//! node is alive and its kernel state intact, but no surviving fabric path
//! connects the two ends. The distinction matters because the correct
//! recoveries differ: a crashed peer's channel state is gone forever
//! ([`crate::VorxError::PeerDown`], ends are wiped), while a partitioned
//! peer will come back exactly as it was — blocked callers get
//! [`crate::VorxError::Partitioned`], in-flight windows are *paused*, and
//! the heal sweep reconnects rather than wiping state.
//!
//! Two detectors feed the distinction, mirroring the two crash detectors of
//! PR 2 (retry exhaustion and the `crash_detect_ns` sweep):
//!
//! * **Heartbeat probes** ([`suspect`]): when a channel's retransmit budget
//!   exhausts while the partition plane is active and the peer is still
//!   believed alive, the sender emits one `KIND_HEARTBEAT` beacon over the
//!   PR 2 reliable control plane instead of declaring the peer down. The
//!   beacon's `KIND_CTL_ACK` is the liveness evidence: an ack means the
//!   fabric found an alternate route (resume the stalled window over it);
//!   exhaustion of the beacon's own retry budget means the peer is
//!   unreachable — partitioned if still up, down if it crashed meanwhile.
//!   Probe resolution is bounded by the control plane's doubling timeouts,
//!   which is what keeps the "no write ever hangs" guarantee.
//! * **The partition-detection sweep** ([`schedule_partition_sweep`]):
//!   `partition_detect_ns` after a link failure, every ordered pair of live
//!   nodes whose clusters the routing tables can no longer connect is
//!   declared partitioned, waking blocked readers and writers that would
//!   otherwise park forever waiting for traffic that cannot arrive. Pairs
//!   are snapshotted at link-down time and rechecked at fire time, so a
//!   heal inside the window suppresses the declaration.
//!
//! Everything runs as ordinary simulation events off the seeded fault
//! schedule; fault-free runs execute none of this code, preserving PR 3
//! trace bit-identity.

use std::collections::BTreeSet;

use desim::SimDuration;
use hpcnet::{Frame, NodeAddr, Payload};

use crate::calib::{CTL_TIMEOUT_NS, RTO_CEIL_NS, RTO_FLOOR_NS};
use crate::proto;
use crate::rtt::RttEstimator;
use crate::world::{Table, VSched, World};

/// Every node's membership state, by node and peer.
#[derive(Debug, Default)]
pub struct Membership {
    /// Peers each node currently believes are partitioned away (alive but
    /// unreachable). Cleared pairwise by the heal sweep.
    pub partitioned: Table<u32, ()>,
    /// Peers with a heartbeat beacon in flight, keyed to the sim time the
    /// probe was sent (feeds the heartbeat RTT estimator on the ack).
    pub probing: Table<u32, u64>,
    /// Observed heartbeat round-trip estimators per peer (phi-accrual-lite:
    /// the suspicion window is `SRTT + 4·RTTVAR`, clamped, instead of a
    /// fixed constant). Only populated when a gray fault armed adaptation.
    pub peer_rtt: Table<u32, RttEstimator>,
}

/// Channel retry exhaustion against a peer still believed alive: send one
/// heartbeat beacon to disambiguate *slow/rerouting* from *unreachable*.
/// At most one probe per (node, peer) pair is in flight; the stalled
/// transfers stay paused until it resolves.
///
/// The probe deadline adapts to gray degradation: when the fault schedule
/// armed the estimators, the beacon's base timeout is the largest of the
/// control-plane constant, the peer's observed heartbeat RTO, and the RTO
/// of the channels that stalled behind it — so a *slow* peer's probes
/// outlive its latency inflation instead of inheriting the exhausted
/// channel's (too short) fixed chain and declaring a live peer partitioned.
pub fn suspect(w: &mut World, s: &mut VSched, node: NodeAddr, peer: NodeAddr) {
    if w.mbr.partitioned.contains(node, &peer.0) {
        return; // verdict already in
    }
    let now = s.now().as_ns();
    if w.mbr.probing.contains(node, &peer.0) {
        return; // a probe is already out
    }
    w.node_mut(node);
    w.mbr.probing.insert(node, peer.0, now);
    w.faults.stats.probes_sent += 1;
    let token = w.token();
    let f = Frame::unicast(
        node,
        peer,
        proto::KIND_HEARTBEAT,
        token,
        Payload::Synthetic(0),
    );
    let base = probe_timeout_ns(w, node, peer);
    crate::fault::reliable_send_with_timeout(w, s, f, base);
}

/// Base retransmit timeout for a heartbeat probe from `node` to `peer`:
/// the fixed [`CTL_TIMEOUT_NS`] until a gray fault arms adaptation, then the
/// widest of the fixed constant, the heartbeat-RTT estimate, and the RTO of
/// the channel ends stalled behind the probe.
fn probe_timeout_ns(w: &World, node: NodeAddr, peer: NodeAddr) -> u64 {
    let fixed = CTL_TIMEOUT_NS;
    if !w.faults.gray_armed {
        return fixed;
    }
    let hb = w
        .mbr
        .peer_rtt
        .get(node, &peer.0)
        .and_then(|e| e.rto_ns(RTO_FLOOR_NS, RTO_CEIL_NS))
        .unwrap_or(0);
    let chan = crate::channel::peer_rto_hint(w, node, peer).unwrap_or(0);
    fixed.max(hb).max(chan)
}

/// Kernel handler: a heartbeat beacon arrived. Liveness evidence is the
/// control-plane ack itself; nothing else to do.
pub fn on_heartbeat(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    crate::fault::ack_ctl(w, s, node, &f);
}

/// The peer acked our beacon: it is reachable after all (the fabric found an
/// alternate route). Resume every transfer that stalled behind the probe.
/// `attempts` is the beacon's retransmission count — only a never-
/// retransmitted probe yields an unambiguous RTT sample (Karn's rule).
pub fn on_probe_ack(w: &mut World, s: &mut VSched, node: NodeAddr, peer: NodeAddr, attempts: u32) {
    let Some(sent_ns) = w.mbr.probing.remove(node, &peer.0) else {
        return;
    };
    if w.faults.gray_armed && attempts == 0 {
        let rtt = s.now().as_ns().saturating_sub(sent_ns);
        let est = w
            .mbr
            .peer_rtt
            .get_or_insert_with(node, peer.0, Default::default);
        est.sample(rtt);
    }
    crate::channel::resume_peer(w, s, node, peer);
}

/// Our beacon's retry budget exhausted: the peer is unreachable. Partitioned
/// if it is still up; ordinary PR 2 peer-down semantics if it crashed while
/// the probe was out.
pub fn on_probe_failed(w: &mut World, s: &mut VSched, node: NodeAddr, peer: NodeAddr) {
    if w.mbr.probing.remove(node, &peer.0).is_none() {
        return;
    }
    if w.node(peer).up {
        mark_partitioned(w, s, node, peer);
    } else {
        crate::channel::mark_peer_down(w, s, node, peer);
    }
}

/// Declare `peer` partitioned from `node`: pause (never wipe) every channel
/// end peered with it, wake blocked callers so they observe
/// [`crate::VorxError::Partitioned`], and fail pending opens over to the
/// name's successor replica when their hash-home sits behind the partition.
pub(crate) fn mark_partitioned(w: &mut World, s: &mut VSched, node: NodeAddr, peer: NodeAddr) {
    w.node_mut(node);
    if w.mbr.partitioned.insert(node, peer.0, ()).is_some() {
        return;
    }
    w.faults.stats.partitions += 1;
    for id in w.chans_peered(node, peer, |e| !e.peer_down && !e.partitioned) {
        let Some(end) = w.chan_mut(node, id) else {
            continue;
        };
        end.partitioned = true;
        crate::channel::pause_tx(end);
        end.wake_all(s);
    }
    crate::objmgr::failover_opens(w, s, node, peer);
}

/// Every ordered pair of live nodes the current routing tables cannot
/// connect, sorted.
fn unreachable_pairs(w: &World) -> Vec<(u32, u32)> {
    let topo = w.net.topology();
    let n = w.nodes.len();
    let mut out = Vec::new();
    for a in 0..n {
        if !w.nodes[a].up {
            continue;
        }
        let ca = topo.cluster_of(NodeAddr(a as u32));
        for b in 0..n {
            if a == b || !w.nodes[b].up {
                continue;
            }
            let cb = topo.cluster_of(NodeAddr(b as u32));
            if !topo.reachable(ca, cb) {
                out.push((a as u32, b as u32));
            }
        }
    }
    out
}

/// Schedule the partition-detection sweep after a link failure. See the
/// module docs; a no-op when the failure cut no routes or detection is
/// disabled (`partition_detect_ns == u64::MAX`).
pub fn schedule_partition_sweep(w: &mut World, s: &mut VSched) {
    let detect = w.calib.partition_detect_ns;
    if detect == u64::MAX {
        return;
    }
    let pairs = unreachable_pairs(w);
    if pairs.is_empty() {
        return;
    }
    s.schedule_in(SimDuration::from_ns(detect), move |w: &mut World, s| {
        // Recheck against the *current* tables: pairs the fabric healed (or
        // whose nodes crashed) inside the window are not declared.
        let still: BTreeSet<(u32, u32)> = unreachable_pairs(w).into_iter().collect();
        for &(a, b) in &pairs {
            if still.contains(&(a, b)) {
                mark_partitioned(w, s, NodeAddr(a), NodeAddr(b));
            }
        }
    });
}

/// Link-up heal sweep: clear the partition marks of every pair the fabric
/// can connect again, resume their paused transfers over the restored
/// route, and run the object manager's anti-entropy reconciliation so
/// registrations accepted on either side of the partition converge.
pub fn on_heal(w: &mut World, s: &mut VSched) {
    let mut healed = false;
    for a in 0..w.nodes.len() {
        let na = NodeAddr(a as u32);
        let marks: Vec<u32> = w.mbr.partitioned.of(na).map(|(b, _)| *b).collect();
        for b in marks {
            let nb = NodeAddr(b);
            let topo = w.net.topology();
            if topo.reachable(topo.cluster_of(na), topo.cluster_of(nb)) {
                w.mbr.partitioned.remove(na, &b);
                w.faults.stats.heals += 1;
                healed = true;
                crate::channel::resume_peer(w, s, na, nb);
            }
        }
    }
    if healed {
        crate::objmgr::anti_entropy(w, s);
    }
}
