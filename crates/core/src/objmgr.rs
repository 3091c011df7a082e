//! The communications object manager (§3.2).
//!
//! "All resource management in Meglos was centralized on a single host.
//! While this is appropriate for a small system, it causes a serious
//! performance bottleneck for systems with over ten processors. [...] We
//! solved this problem in VORX by splitting the resource manager into
//! several functional pieces and replicating the individual pieces for
//! increased performance. [...] The object manager uses distributed hashing
//! to map a channel name to a particular processor."
//!
//! Both architectures are provided: [`ObjMgrMode::Centralized`] (the Meglos
//! bottleneck) and [`ObjMgrMode::Distributed`] (a manager replica on every
//! node, selected by hashing the channel name). Because two processes
//! opening the same name hash to the same manager, the rendezvous is correct
//! in either mode; only the load distribution differs — which is exactly
//! what the E-OPEN experiment measures.

use std::collections::VecDeque;

use desim::{FixedMap, FixedSet, SimDuration, Wakeup};
use hpcnet::{Frame, NodeAddr, Payload};

use crate::channel;
use crate::cpu::CpuCat;
use crate::kernel;
use crate::proto;
use crate::retry::{self, Chain, Retry};
use crate::world::{OpenResult, VCtx, VSched, World};

/// Where channel-open requests are served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjMgrMode {
    /// Every open is processed by the single manager on this node
    /// (Meglos-style; the paper's bottleneck).
    Centralized(NodeAddr),
    /// A manager replica runs on every node; the name's hash picks the
    /// replica (VORX-style).
    Distributed,
}

/// Per-node object-manager state.
#[derive(Debug, Default)]
pub struct MgrState {
    /// Unmatched open requests by name: `(requester, token)`.
    pub pending: FixedMap<String, VecDeque<(NodeAddr, u64)>>,
    /// Registered server names (§4 name reuse): name -> server node.
    pub servers: FixedMap<String, NodeAddr>,
    /// Requests this manager has served (load statistics for E-OPEN).
    pub served: u64,
    /// Open requests already seen, by `(requester, token)`: a retransmitted
    /// request (the requester's timeout fired before our `OPEN_QUEUED`
    /// landed) must not queue twice. Dies with the node on a crash, which is
    /// what lets retransmissions after a restart be served from scratch.
    ///
    /// Bounded: entries are evicted FIFO once [`SEEN_CAP`] is reached (see
    /// `seen_order`). Tokens are unique per request and retransmissions
    /// arrive within a few timeouts of the original, so the window only
    /// needs to cover requests still in flight — a manager that served
    /// millions of opens must not hold memory for all of them.
    pub seen: FixedSet<(u32, u64)>,
    /// FIFO eviction order for `seen`.
    pub seen_order: VecDeque<(u32, u64)>,
}

/// Bound on the per-manager duplicate-suppression window (`MgrState::seen`).
/// Large enough that every request with a live retransmit chain stays
/// remembered, small enough that dedup state cannot grow with workload age.
pub const SEEN_CAP: usize = 4096;

/// Record `key` in the manager's duplicate-suppression window, evicting the
/// oldest entry beyond [`SEEN_CAP`]. Returns `true` when the key is new.
pub fn note_seen(st: &mut MgrState, key: (u32, u64)) -> bool {
    if !st.seen.insert(key) {
        return false;
    }
    st.seen_order.push_back(key);
    while st.seen_order.len() > SEEN_CAP {
        let old = st.seen_order.pop_front().expect("nonempty");
        st.seen.remove(&old);
    }
    true
}

/// The key of `name` in [`MgrState::pending`] and [`MgrState::servers`]:
/// the object kind's digit, a NUL, the name. One allocation.
fn mgr_key(kind: proto::ObjKind, name: &str) -> String {
    let mut key = String::with_capacity(2 + name.len());
    key.push(char::from(b'0' + kind as u8));
    key.push('\0');
    key.push_str(name);
    key
}

/// FNV-1a hash of a channel name; stable across runs and platforms.
pub fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The manager node responsible for `name`.
pub fn manager_for(w: &World, name: &str) -> NodeAddr {
    match w.objmgr_mode {
        ObjMgrMode::Centralized(a) => a,
        ObjMgrMode::Distributed => NodeAddr((name_hash(name) % w.nodes.len() as u64) as u32),
    }
}

/// Node-local cache of name → serving-manager resolutions.
///
/// Normally the hash picks the manager and the cache is a transparent
/// confirmation of it; the win comes after a manager failover, when the node
/// that already learned the successor skips the dead-primary timeout on its
/// next open of the same name. Entries are stamped with the failover/heal
/// epoch at insert time and never served across an epoch change — a stale
/// manager address is evicted on lookup instead.
#[derive(Debug, Default)]
pub struct ResolveCache {
    entries: FixedMap<String, (u64, NodeAddr)>,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Entries dropped because the failover/heal epoch moved past them.
    pub stale_evictions: u64,
}

impl ResolveCache {
    /// Look `name` up; a hit must match the current `epoch` exactly, and a
    /// mismatched entry is evicted (never returned).
    pub fn lookup(&mut self, epoch: u64, name: &str) -> Option<NodeAddr> {
        match self.entries.get(name) {
            Some(&(e, addr)) if e == epoch => {
                self.hits += 1;
                Some(addr)
            }
            Some(_) => {
                self.entries.remove(name);
                self.stale_evictions += 1;
                None
            }
            None => None,
        }
    }

    /// Record that `name` was served by `mgr` under `epoch`. Owns the name
    /// only the first time it is seen.
    pub fn put(&mut self, epoch: u64, name: &str, mgr: NodeAddr) {
        match self.entries.get_mut(name) {
            Some(entry) => *entry = (epoch, mgr),
            None => {
                self.entries.insert(name.to_string(), (epoch, mgr));
            }
        }
    }

    /// Drop every entry (node crash wipes kernel state cold). The hit/stale
    /// counters survive: they are measurements, not state.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The failover/heal epoch guarding cached resolutions: any manager failover
/// or partition heal may move a name's serving manager, so either event
/// invalidates every cached entry in the installation.
pub fn resolve_epoch(w: &World) -> u64 {
    w.faults.stats.mgr_failovers + w.faults.stats.heals
}

/// Resolve the manager to target for an open of `name` from `node`: the
/// node's epoch-checked cache first, the hash otherwise.
pub fn resolve_mgr(w: &mut World, node: NodeAddr, name: &str) -> NodeAddr {
    let epoch = resolve_epoch(w);
    if let Some(mgr) = w.node_mut(node).resolve.lookup(epoch, name) {
        return mgr;
    }
    manager_for(w, name)
}

/// The successor replica for `name`'s manager state: the node after the
/// hash-home in address order. Server registrations are pushed here so an
/// open can fail over when the home becomes unreachable. `None` in
/// centralized mode (a single manager has no replica) and on one-node
/// systems.
pub fn successor_for(w: &World, name: &str) -> Option<NodeAddr> {
    match w.objmgr_mode {
        ObjMgrMode::Centralized(_) => None,
        ObjMgrMode::Distributed => {
            let n = w.nodes.len() as u64;
            if n < 2 {
                return None;
            }
            Some(NodeAddr(((name_hash(name) % n + 1) % n) as u32))
        }
    }
}

/// Push a fresh server registration to the name's successor replica
/// (reliable control frame). No-op when the successor is the home itself.
fn push_replica(
    w: &mut World,
    s: &mut VSched,
    mgr: NodeAddr,
    kind: proto::ObjKind,
    server: NodeAddr,
    name: &str,
) {
    let Some(succ) = successor_for(w, name) else {
        return;
    };
    if succ == mgr {
        return;
    }
    let tok = w.token();
    let f = Frame::unicast(
        mgr,
        succ,
        proto::KIND_REPL_REG,
        tok,
        proto::pack_repl_reg(kind, server, name),
    );
    crate::fault::reliable_send(w, s, f);
}

/// Kernel handler: a replicated server registration arrived at the name's
/// successor. Idempotent — the home serializes registrations and both the
/// original push and anti-entropy re-pushes carry the same server, so the
/// first write wins and repeats are no-ops.
pub fn on_repl_reg(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    crate::fault::ack_ctl(w, s, node, &f);
    let (kind, server, name) = proto::parse_repl_reg(&f.payload);
    let key = mgr_key(kind, name);
    w.node_mut(node).mgr.servers.entry(key).or_insert(server);
}

/// Retarget an exhausted pending open at the home manager's successor
/// replica. Returns `false` when no failover applies: centralized mode,
/// one-node system, or the open already failed over once (its recorded
/// manager is no longer the hash-home) — a second silence means the name's
/// replica set is unreachable and the open must fail.
fn try_failover(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    token: u64,
    old_mgr: NodeAddr,
    kind: proto::ObjKind,
    name: &str,
) -> bool {
    let Some(succ) = successor_for(w, name) else {
        return false;
    };
    if old_mgr != manager_for(w, name) || succ == old_mgr {
        return false;
    }
    match w.open_wait_mut(node, token) {
        Some(OpenResult::Pending {
            mgr, queued, chain, ..
        }) => {
            *mgr = succ;
            *queued = false;
            chain.restart();
        }
        _ => return false,
    }
    w.faults.stats.mgr_failovers += 1;
    kernel::send_frame(w, s, open_req(node, succ, kind, name, token));
    retry::arm(w, s, node, OpenRetry(token));
    true
}

/// Fail over every pending open on `node` whose manager is the newly
/// partitioned (or dead) `peer`, without waiting for each open's retransmit
/// chain to exhaust on its own. Tokens are processed in sorted order for
/// determinism; opens with no replica to fail over to resolve as
/// [`crate::VorxError::Unreachable`].
pub(crate) fn failover_opens(w: &mut World, s: &mut VSched, node: NodeAddr, peer: NodeAddr) {
    let mut toks: Vec<(u64, proto::ObjKind, String)> = w
        .open_waits
        .iter()
        .filter_map(|(t, (a, o))| match o {
            OpenResult::Pending {
                mgr, kind, name, ..
            } if *a == node && *mgr == peer => Some((*t, *kind, name.clone())),
            _ => None,
        })
        .collect();
    toks.sort_by_key(|e| e.0);
    for (token, kind, name) in toks {
        if !try_failover(w, s, node, token, peer, kind, &name) {
            let failed = OpenResult::Failed(crate::VorxError::Unreachable);
            w.set_open_wait(node, token, failed);
            w.node_mut(node).open_waiters.wake_all(s, Wakeup::START);
        }
    }
}

/// Anti-entropy after a partition heal: every live node re-pushes the
/// registrations it homes (to the successor) and the ones it replicates
/// (back to the home), so registrations made on either side while the
/// fabric was split converge. Receivers apply them idempotently.
pub(crate) fn anti_entropy(w: &mut World, s: &mut VSched) {
    if !matches!(w.objmgr_mode, ObjMgrMode::Distributed) {
        return;
    }
    for me in 0..w.nodes.len() as u32 {
        let me = NodeAddr(me);
        if !w.node(me).up {
            continue;
        }
        let mut entries: Vec<(String, NodeAddr)> = w
            .node(me)
            .mgr
            .servers
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        entries.sort();
        for (key, server) in entries {
            let Some((disc, name)) = key.split_once('\0') else {
                continue;
            };
            let kind = if disc == "1" {
                proto::ObjKind::Udco
            } else {
                proto::ObjKind::Channel
            };
            let home = manager_for(w, name);
            let Some(succ) = successor_for(w, name) else {
                continue;
            };
            if succ == home {
                continue;
            }
            let target = if me == home {
                succ
            } else if me == succ {
                home
            } else {
                continue;
            };
            if !w.node(target).up {
                continue;
            }
            let tok = w.token();
            let f = Frame::unicast(
                me,
                target,
                proto::KIND_REPL_REG,
                tok,
                proto::pack_repl_reg(kind, server, name),
            );
            crate::fault::reliable_send(w, s, f);
        }
    }
}

/// Kernel handler: an open request reached its manager node.
pub fn on_open_req(w: &mut World, s: &mut VSched, mgr: NodeAddr, f: Frame) {
    // Acknowledge receipt immediately with `OPEN_QUEUED` so the requester's
    // retransmit chain stops; the eventual `OPEN_REP` is delivered reliably
    // on its own. Plain send: if the `OPEN_QUEUED` is lost, the requester's
    // next retransmission lands here again and is re-acked.
    let queued = Frame::unicast(
        mgr,
        f.src,
        proto::KIND_OPEN_QUEUED,
        f.seq,
        Payload::Synthetic(0),
    );
    let dup = !note_seen(&mut w.node_mut(mgr).mgr, (f.src.0, f.seq));
    kernel::send_frame(w, s, queued);
    if dup {
        return; // already queued (or served); don't double-enqueue
    }
    // The manager is software: serving a request costs CPU time. Requests
    // queue on the manager's CPU — with the centralized manager and many
    // simultaneous opens, this queueing *is* the §3.2 bottleneck.
    let cost = SimDuration::from_ns(w.calib.objmgr_service_ns);
    let now = s.now();
    let end = w.charge(now, mgr, CpuCat::System, cost);
    s.schedule_in(end - now, move |w: &mut World, s| {
        serve_open(w, s, mgr, f);
    });
}

fn serve_open(w: &mut World, s: &mut VSched, mgr: NodeAddr, f: Frame) {
    if !w.node(mgr).up {
        return; // the manager node crashed between the charge and the service
    }
    let (kind, name) = proto::parse_open_req_kind(&f.payload);
    let key = mgr_key(kind, name);
    let requester = (f.src, f.seq);
    let cap = w.calib.mgr_pending_cap;
    let st = &mut w.node_mut(mgr).mgr;
    st.served += 1;
    // A registered server takes priority: every client open yields a fresh
    // channel to the server without consuming the registration.
    if let Some(&server) = st.servers.get(&key) {
        let id = w.alloc_chan();
        let rep = Frame::unicast(
            mgr,
            requester.0,
            proto::KIND_OPEN_REP,
            requester.1,
            proto::pack_open_rep_kind(kind, id, server, name),
        );
        crate::fault::reliable_send(w, s, rep);
        let ctok = w.token();
        let conn = Frame::unicast(
            mgr,
            server,
            proto::KIND_SERVE_CONN,
            ctok,
            proto::pack_open_rep_kind(kind, id, requester.0, name),
        );
        crate::fault::reliable_send(w, s, conn);
        return;
    }
    if st.pending.get(&key).is_some_and(|q| q.len() >= cap) {
        // Bounded registration table: refuse with a typed NACK (reliable, so
        // the opener fails fast with `ResourceExhausted` instead of
        // retrying into an overloaded manager until its budget runs out).
        w.faults.stats.table_rejects += 1;
        let nack = Frame::unicast(
            mgr,
            requester.0,
            proto::KIND_OPEN_NACK,
            requester.1,
            proto::pack_open_req_kind(kind, name),
        );
        crate::fault::reliable_send(w, s, nack);
        return;
    }
    let q = st.pending.entry(key).or_default();
    q.push_back(requester);
    if q.len() < 2 {
        return;
    }
    let a = q.pop_front().expect("len >= 2");
    let b = q.pop_front().expect("len >= 2");
    let id = w.alloc_chan();
    for (me, other) in [(a, b), (b, a)] {
        let rep = Frame::unicast(
            mgr,
            me.0,
            proto::KIND_OPEN_REP,
            me.1,
            proto::pack_open_rep_kind(kind, id, other.0, name),
        );
        crate::fault::reliable_send(w, s, rep);
    }
}

/// Kernel handler: a server registration reached its manager node. Matches
/// any clients already queued for the name, then acknowledges.
pub fn on_serve_req(w: &mut World, s: &mut VSched, mgr: NodeAddr, f: Frame) {
    let cost = SimDuration::from_ns(w.calib.objmgr_service_ns);
    let now = s.now();
    let end = w.charge(now, mgr, CpuCat::System, cost);
    s.schedule_in(end - now, move |w: &mut World, s| {
        if !w.node(mgr).up {
            return; // the manager node crashed before servicing
        }
        let (kind, name) = proto::parse_open_req_kind(&f.payload);
        let key = mgr_key(kind, name);
        let server = f.src;
        let st = &mut w.node_mut(mgr).mgr;
        if st.servers.get(&key) == Some(&server) {
            // Retransmitted registration (our SERVE_ACK was lost): re-ack
            // without re-registering or double-counting.
            let ack = Frame::unicast(
                mgr,
                server,
                proto::KIND_SERVE_ACK,
                f.seq,
                proto::pack_open_req_kind(kind, name),
            );
            kernel::send_frame(w, s, ack);
            return;
        }
        st.served += 1;
        let prev = st.servers.insert(key.clone(), server);
        assert!(prev.is_none(), "name {name:?} already has a server");
        let waiting: Vec<(NodeAddr, u64)> = st
            .pending
            .remove(&key)
            .map(|q| q.into_iter().collect())
            .unwrap_or_default();
        // Replicate the fresh registration to the name's successor so opens
        // can fail over if this manager becomes unreachable.
        push_replica(w, s, mgr, kind, server, name);
        // Acknowledge the registration. Plain send: a lost ack is healed by
        // the server's registration retransmission (re-acked above).
        let ack = Frame::unicast(
            mgr,
            server,
            proto::KIND_SERVE_ACK,
            f.seq,
            proto::pack_open_req_kind(kind, name),
        );
        kernel::send_frame(w, s, ack);
        // Connect clients that were already waiting.
        for (client, token) in waiting {
            let id = w.alloc_chan();
            let rep = Frame::unicast(
                mgr,
                client,
                proto::KIND_OPEN_REP,
                token,
                proto::pack_open_rep_kind(kind, id, server, name),
            );
            crate::fault::reliable_send(w, s, rep);
            let ctok = w.token();
            let conn = Frame::unicast(
                mgr,
                server,
                proto::KIND_SERVE_CONN,
                ctok,
                proto::pack_open_rep_kind(kind, id, client, name),
            );
            crate::fault::reliable_send(w, s, conn);
        }
    });
}

/// Kernel handler: an open reply reached the requesting node. Delivered
/// reliably by the manager, so ack first, then deduplicate against the
/// pending-open table.
pub fn on_open_rep(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    crate::fault::ack_ctl(w, s, node, &f);
    let token = f.seq;
    match w.open_wait_mut(node, token) {
        Some(OpenResult::Pending { chain, .. }) => {
            // A reply can beat the OPEN_QUEUED ack; disarm the request's
            // retransmit chain either way.
            chain.disarm();
        }
        // Duplicate reply (our first ack was lost), or a crash wiped the open.
        _ => return,
    }
    let (kind, id, peer, name) = proto::parse_open_rep_kind(&f.payload);
    // Remember which manager actually served this name (the successor,
    // after a failover), stamped with the current epoch.
    let epoch = resolve_epoch(w);
    let mgr = f.src;
    w.node_mut(node).resolve.put(epoch, name, mgr);
    match kind {
        proto::ObjKind::Channel => {
            // Create the channel end if this node does not have it yet
            // (both ends of a same-node channel share one kernel, so the
            // second reply is a no-op at the kernel level but still
            // resolves its own token).
            if !w.node(node).chans.contains(id) {
                channel::create_end(w, s, node, id, name.to_string(), peer);
            }
        }
        proto::ObjKind::Udco => {
            // The UDCO itself is registered by `udco::open` once the
            // assigned tag is known (receive discipline is a local choice).
        }
    }
    w.set_open_wait(node, token, OpenResult::Done(id, peer));
    w.node_mut(node).open_waiters.wake_all(s, Wakeup::START);
}

/// Kernel handler: the manager refused our open request (`KIND_OPEN_NACK`,
/// pending-open table full). Delivered reliably, so ack first, then fail the
/// waiting open with [`crate::VorxError::ResourceExhausted`] — retrying
/// later, after the manager's queue drains, may succeed.
pub fn on_open_nack(w: &mut World, s: &mut VSched, node: NodeAddr, f: Frame) {
    crate::fault::ack_ctl(w, s, node, &f);
    let token = f.seq;
    match w.open_wait_mut(node, token) {
        Some(OpenResult::Pending { chain, .. }) => chain.disarm(),
        // Duplicate NACK (our first ack was lost), or a crash wiped the open.
        _ => return,
    }
    let failed = OpenResult::Failed(crate::VorxError::ResourceExhausted);
    w.set_open_wait(node, token, failed);
    w.node_mut(node).open_waiters.wake_all(s, Wakeup::START);
}

/// Kernel handler: the manager acknowledged queueing our open request —
/// stop the request's retransmit chain. (Loss of this frame is healed by
/// the next retransmission; the manager re-acks duplicates.)
pub fn on_open_queued(w: &mut World, _s: &mut VSched, node: NodeAddr, f: Frame) {
    if let Some(OpenResult::Pending { queued, chain, .. }) = w.open_wait_mut(node, f.seq) {
        *queued = true;
        chain.disarm();
    }
}

/// One open request frame (initial transmission and retransmissions).
fn open_req(node: NodeAddr, mgr: NodeAddr, kind: proto::ObjKind, name: &str, token: u64) -> Frame {
    Frame::unicast(
        node,
        mgr,
        proto::KIND_OPEN_REQ,
        token,
        proto::pack_open_req_kind(kind, name),
    )
}

/// The retransmit chain of the open request with this token, until the
/// manager acknowledges it with `OPEN_QUEUED`. Timeouts double per retry;
/// after `open_max_retries` the open fails over to the name's successor
/// replica, or fails with [`crate::VorxError::Unreachable`].
struct OpenRetry(u64);

impl OpenRetry {
    /// Where the pending request goes and what it asks for.
    fn request(&self, w: &World, node: NodeAddr) -> Option<(NodeAddr, proto::ObjKind, String)> {
        match w.open_wait(node, self.0) {
            Some(OpenResult::Pending {
                mgr, name, kind, ..
            }) => Some((*mgr, *kind, name.clone())),
            _ => None,
        }
    }
}

impl Retry for OpenRetry {
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain> {
        match w.open_wait_mut(node, self.0) {
            Some(OpenResult::Pending {
                queued: false,
                chain,
                ..
            }) => Some(chain),
            _ => None, // acknowledged, resolved, failed, or wiped by a crash
        }
    }

    fn base_ns(&self, w: &World, _: NodeAddr) -> u64 {
        w.calib.open_timeout_ns
    }

    fn budget(&self, w: &World) -> Option<u32> {
        Some(w.calib.open_max_retries)
    }

    fn resend(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        if let Some((mgr, kind, name)) = self.request(w, node) {
            w.faults.stats.retransmits += 1;
            kernel::send_frame(w, s, open_req(node, mgr, kind, &name, self.0));
        }
    }

    /// Before giving up, try the name's successor replica — the silent
    /// manager may merely be partitioned away from us.
    fn give_up(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        let Some((mgr, kind, name)) = self.request(w, node) else {
            return;
        };
        if !try_failover(w, s, node, self.0, mgr, kind, &name) {
            let failed = OpenResult::Failed(crate::VorxError::Unreachable);
            w.set_open_wait(node, self.0, failed);
            w.node_mut(node).open_waiters.wake_all(s, Wakeup::START);
        }
    }
}

/// Restart a pending open from scratch (manager failover: the manager that
/// queued it crashed, taking the queue with it). Called from
/// [`crate::fault::on_restart`].
pub(crate) fn resend_open(w: &mut World, s: &mut VSched, node: NodeAddr, token: u64) {
    let info = match w.open_wait_mut(node, token) {
        Some(OpenResult::Pending {
            mgr,
            name,
            kind,
            queued,
            chain,
        }) => {
            *queued = false;
            // Disarm whatever remained of the pre-crash chain.
            chain.restart();
            Some((*mgr, *kind, name.clone()))
        }
        _ => None,
    };
    let Some((mgr, kind, name)) = info else {
        return;
    };
    kernel::send_frame(w, s, open_req(node, mgr, kind, &name, token));
    retry::arm(w, s, node, OpenRetry(token));
}

/// Rendezvous on `name` through the object manager: register a pending
/// open, transmit the request (with retransmission until the manager
/// acknowledges queueing it), and park until the manager replies with the
/// connected object. Returns `(object id, peer node)`.
pub fn rendezvous(
    ctx: &VCtx,
    node: NodeAddr,
    name: &str,
    kind: proto::ObjKind,
) -> crate::VorxResult<(u32, NodeAddr)> {
    let name_owned = name.to_string();
    let token = ctx.with(move |w, s| {
        // Bounded channel table: refuse new opens once this node holds its
        // budgeted number of channels — degrade locally instead of growing
        // the kernel without limit. (Checked before anything is registered,
        // so a refused open leaves no state behind.)
        if w.node(node).chans.len() >= w.calib.max_chans_per_node {
            w.faults.stats.table_rejects += 1;
            return Err(crate::VorxError::ResourceExhausted);
        }
        let mgr = resolve_mgr(w, node, &name_owned);
        let token = w.token();
        // Packed before the pending entry takes the name over.
        let req = open_req(node, mgr, kind, &name_owned, token);
        let pending = OpenResult::Pending {
            mgr,
            name: name_owned,
            kind,
            queued: false,
            chain: Chain::default(),
        };
        w.set_open_wait(node, token, pending);
        kernel::send_frame(w, s, req);
        retry::arm(w, s, node, OpenRetry(token));
        Ok(token)
    })?;
    let pid = ctx.pid();
    ctx.wait_until(move |w, _| match w.open_wait(node, token) {
        Some(OpenResult::Done(id, peer)) => {
            let (id, peer) = (*id, *peer);
            w.take_open_wait(node, token);
            Some(Ok((id, peer)))
        }
        Some(OpenResult::Failed(e)) => {
            let e = *e;
            w.take_open_wait(node, token);
            Some(Err(e))
        }
        Some(OpenResult::Pending { .. }) => {
            w.node_mut(node).open_waiters.register(pid);
            None
        }
        // Our own node crashed and the pending-open table died with it.
        None => Some(Err(crate::VorxError::NodeDown)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::channel::open;
    use crate::world::VorxBuilder;
    use hpcnet::Payload;

    #[test]
    fn name_hash_is_stable() {
        assert_eq!(name_hash("pipe"), name_hash("pipe"));
        assert_ne!(name_hash("pipe"), name_hash("pipf"));
    }

    #[test]
    fn seen_window_dedups_and_stays_bounded() {
        let mut st = MgrState::default();
        assert!(note_seen(&mut st, (1, 42)));
        assert!(!note_seen(&mut st, (1, 42)), "retransmission must dedup");
        // Push far past the cap: memory stays bounded...
        for t in 0..(SEEN_CAP as u64 * 2) {
            note_seen(&mut st, (2, t));
        }
        assert_eq!(st.seen.len(), SEEN_CAP);
        assert_eq!(st.seen_order.len(), SEEN_CAP);
        // ...recent entries still dedup, and the oldest were evicted (so a
        // very late retransmission would be re-served, which is safe — the
        // requester stopped retransmitting long ago).
        assert!(!note_seen(&mut st, (2, SEEN_CAP as u64 * 2 - 1)));
        assert!(note_seen(&mut st, (1, 42)), "evicted entries are forgotten");
    }

    #[test]
    fn resolve_cache_never_serves_across_epochs() {
        let mut c = ResolveCache::default();
        c.put(0, "a", NodeAddr(3));
        assert_eq!(c.lookup(0, "a"), Some(NodeAddr(3)));
        assert_eq!(c.hits, 1);
        // Epoch moved: the entry must be evicted, never returned.
        assert_eq!(c.lookup(1, "a"), None);
        assert_eq!(c.stale_evictions, 1);
        assert!(c.is_empty(), "stale entry evicted on lookup");
        // Re-learned under the new epoch, a crash wipe clears entries but
        // keeps the measurement counters.
        c.put(1, "a", NodeAddr(4));
        assert_eq!(c.lookup(1, "a"), Some(NodeAddr(4)));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits, 2);
        assert_eq!(c.stale_evictions, 1);
    }

    #[test]
    fn repeat_opens_hit_the_resolve_cache() {
        let mut v = VorxBuilder::single_cluster(4).build();
        v.spawn("n1:w", |ctx| {
            for _ in 0..2 {
                let ch = open(&ctx, NodeAddr(1), "hot");
                ch.write(&ctx, Payload::Synthetic(4)).unwrap();
                ch.close(&ctx);
            }
        });
        v.spawn("n2:r", |ctx| {
            for _ in 0..2 {
                let ch = open(&ctx, NodeAddr(2), "hot");
                let _ = ch.read(&ctx).unwrap();
                ch.close(&ctx);
            }
        });
        v.run_all();
        let w = v.world();
        assert!(
            w.node(NodeAddr(1)).resolve.hits >= 1,
            "the second open of a cached name must hit"
        );
        assert!(w.node(NodeAddr(2)).resolve.hits >= 1);
        assert_eq!(w.node(NodeAddr(1)).resolve.stale_evictions, 0);
    }

    #[test]
    fn distributed_mode_spreads_managers() {
        let v = VorxBuilder::single_cluster(8).build();
        let w = v.world();
        let mgrs: FixedSet<u32> = (0..50)
            .map(|i| manager_for(&w, &format!("chan-{i}")).0)
            .collect();
        assert!(
            mgrs.len() > 3,
            "hashing should spread across nodes: {mgrs:?}"
        );
    }

    #[test]
    fn centralized_mode_uses_one_manager() {
        let v = VorxBuilder::single_cluster(8)
            .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
            .build();
        let w = v.world();
        for i in 0..20 {
            assert_eq!(manager_for(&w, &format!("chan-{i}")), NodeAddr(0));
        }
    }

    #[test]
    fn centralized_manager_serves_all_opens() {
        let mut v = VorxBuilder::single_cluster(6)
            .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
            .build();
        for pair in 0..2u32 {
            let (wn, rn) = (1 + pair * 2, 2 + pair * 2);
            v.spawn(format!("n{wn}:w"), move |ctx| {
                let ch = open(&ctx, NodeAddr(wn), &format!("c{pair}"));
                ch.write(&ctx, Payload::Synthetic(4)).unwrap();
            });
            v.spawn(format!("n{rn}:r"), move |ctx| {
                let ch = open(&ctx, NodeAddr(rn), &format!("c{pair}"));
                let _ = ch.read(&ctx).unwrap();
            });
        }
        v.run_all();
        let w = v.world();
        assert_eq!(w.nodes[0].mgr.served, 4);
        assert!(w.nodes.iter().skip(1).all(|n| n.mgr.served == 0));
    }

    #[test]
    fn same_node_processes_can_rendezvous() {
        let mut v = VorxBuilder::single_cluster(2)
            .calibration(Calibration::paper_1988())
            .build();
        v.spawn("n1:a", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "local");
            ch.write(&ctx, Payload::copy_from(b"x")).unwrap();
        });
        v.spawn("n1:b", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "local");
            let m = ch.read(&ctx).unwrap();
            assert_eq!(m.bytes().unwrap().as_ref(), b"x");
        });
        v.run_all();
    }

    #[test]
    fn three_openers_match_first_two() {
        let mut v = VorxBuilder::single_cluster(4).build();
        v.spawn("n1:w", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "popular");
            ch.write(&ctx, Payload::Synthetic(8)).unwrap();
        });
        v.spawn("n2:r", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "popular");
            let _ = ch.read(&ctx).unwrap();
        });
        // The third open never matches; it must park, not crash.
        v.spawn("n3:odd", |ctx| {
            let _ = open(&ctx, NodeAddr(3), "popular");
            unreachable!("third opener should wait forever");
        });
        let report = v.run();
        assert_eq!(report.parked.len(), 1);
        assert_eq!(report.parked[0].1, "n3:odd");
    }
}
