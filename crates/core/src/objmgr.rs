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
//!
//! Every name an open or a listen keeps — the opener's pending request, the
//! manager's tables, the channel end, the listener — is a [`Name`]: up to
//! [`Name::INLINE`] bytes held in place, a longer one in one shared
//! `Arc<str>`. A name costs its bytes once, on the wire; a
//! manager keys its tables by `(ObjKind, Name)`, and a paired name leaves
//! nothing there.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use desim::SimDuration;
use hpcnet::{Frame, NodeAddr, Payload};

use crate::calib::{MAX_CHANS_PER_NODE, OPEN_MAX_RETRIES, OPEN_TIMEOUT_NS};
use crate::channel;
use crate::cpu::CpuCat;
use crate::kernel;
use crate::proto;
use crate::retry::{self, Chain, Retry};
use crate::world::{CallState, OpenResult, Table, VCtx, VSched, World};

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

/// An immutable object name, no larger than a `String`: up to
/// [`Name::INLINE`] bytes are held in place, a longer name in one
/// `Arc<str>` that every clone shares. Hashes, compares and orders exactly
/// as its `str` does, so a map keyed by `Name` is searched with a `&str`.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; Name::INLINE] },
    Shared(Arc<str>),
}

const _: () = assert!(size_of::<Name>() <= size_of::<String>());

impl Name {
    /// The longest name held in place.
    pub const INLINE: usize = 22;

    /// `s` as a name: in place if it fits, one allocation otherwise.
    pub fn new(s: &str) -> Self {
        if s.len() > Self::INLINE {
            return Name(Repr::Shared(s.into()));
        }
        let mut bytes = [0; Self::INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name(Repr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("built from a str")
            }
            Repr::Shared(s) => s,
        }
    }

    /// The name's bytes (no UTF-8 check).
    fn bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// True when the name is held in place (it is at most
    /// [`Name::INLINE`] bytes long).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.bytes() == other.as_bytes()
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Byte order, as `str`'s.
impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bytes().cmp(other.bytes())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// The key of a name in [`Managers::pending`] and [`Managers::servers`]:
/// a channel and a UDCO of one name are different objects.
pub type MgrKey = (proto::ObjKind, Name);

/// A node's object-manager counters.
#[derive(Debug, Default)]
pub struct MgrState {
    /// Requests this manager has served (load statistics for E-OPEN).
    pub served: u64,
    /// Rows the manager holds in [`Managers::seen`].
    pub seen: u32,
}

/// Every node's object-manager tables (every node can serve opens).
#[derive(Debug, Default)]
pub struct Managers {
    /// The unmatched open request of each name: `(requester, token)`. The
    /// next request for the name removes it and pairs with it, so a paired
    /// name leaves nothing here.
    pub pending: Table<MgrKey, (NodeAddr, u64)>,
    /// Registered server names (§4 name reuse): name -> server node.
    pub servers: Table<MgrKey, NodeAddr>,
    /// Open requests already seen, by `(requester, token)`: a retransmitted
    /// request (the requester's timeout fired before our `OPEN_QUEUED`
    /// landed) must not queue twice. Dies with the node on a crash, which is
    /// what lets retransmissions after a restart be served from scratch.
    ///
    /// Bounded: entries are evicted oldest first once [`SEEN_CAP`] is
    /// reached (a manager's rows are listed in the order they came).
    /// Tokens are unique per request and retransmissions arrive within a
    /// few timeouts of the original, so the window only needs to cover
    /// requests still in flight — a manager that served millions of opens
    /// must not hold memory for all of them.
    pub seen: Table<(u32, u64), ()>,
}

/// Bound on the per-manager duplicate-suppression window (`Managers::seen`).
/// Large enough that every request with a live retransmit chain stays
/// remembered, small enough that dedup state cannot grow with workload age.
pub const SEEN_CAP: usize = 4096;

/// Record `key` in manager `mgr`'s duplicate-suppression window, evicting
/// the oldest entry beyond [`SEEN_CAP`]. Returns `true` when the key is new.
pub fn note_seen(w: &mut World, mgr: NodeAddr, key: (u32, u64)) -> bool {
    let seen = &mut w.managers.seen;
    if seen.contains(mgr, &key) {
        return false;
    }
    seen.push_back(mgr, key, ());
    let held = &mut crate::world::node_in(&mut w.nodes, mgr).mgr.seen;
    *held += 1;
    while *held as usize > SEEN_CAP {
        seen.pop_front(mgr).expect("nonempty");
        *held -= 1;
    }
    true
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
    let servers = &mut w.managers.servers;
    servers.get_or_insert_with(node, (kind, Name::new(name)), || server);
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
    match w.open_mut(node, token) {
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
    let toks: Vec<(u64, proto::ObjKind, Name)> = w
        .calls
        .of(node)
        .filter_map(|(t, c)| match &c.state {
            CallState::Open(OpenResult::Pending {
                mgr, kind, name, ..
            }) if *mgr == peer => Some((*t, *kind, name.clone())),
            _ => None,
        })
        .collect();
    for (token, kind, name) in toks {
        if !try_failover(w, s, node, token, peer, kind, &name) {
            fail_open(w, s, node, token);
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
        // Channels before UDCOs, then by name bytes.
        let entries: Vec<(MgrKey, NodeAddr)> = w
            .managers
            .servers
            .of(me)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for ((kind, name), server) in entries {
            let home = manager_for(w, &name);
            let Some(succ) = successor_for(w, &name) else {
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
                proto::pack_repl_reg(kind, server, &name),
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
    let dup = !note_seen(w, mgr, (f.src.0, f.seq));
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
    let key = (kind, Name::new(name));
    let requester = (f.src, f.seq);
    w.node_mut(mgr).mgr.served += 1;
    let st = &mut w.managers;
    // A registered server takes priority: every client open yields a fresh
    // channel to the server without consuming the registration.
    if let Some(&server) = st.servers.get(mgr, &key) {
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
    // The first opener of a name waits here; the second takes it out and
    // pairs with it, so no name ever holds two waiting openers.
    let Some(a) = st.pending.remove(mgr, &key) else {
        st.pending.insert(mgr, key, requester);
        return;
    };
    let b = requester;
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
        let key = (kind, Name::new(name));
        let server = f.src;
        let st = &mut w.managers;
        if st.servers.get(mgr, &key) == Some(&server) {
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
        let waiting = st.pending.remove(mgr, &key);
        let prev = st.servers.insert(mgr, key, server);
        w.node_mut(mgr).mgr.served += 1;
        assert!(prev.is_none(), "name {name:?} already has a server");
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
        // Connect the client that was already waiting.
        if let Some((client, token)) = waiting {
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
    match w.open_mut(node, token) {
        Some(OpenResult::Pending { chain, .. }) => {
            // A reply can beat the OPEN_QUEUED ack; disarm the request's
            // retransmit chain either way.
            chain.disarm();
        }
        // Duplicate reply (our first ack was lost), or a crash wiped the open.
        _ => return,
    }
    let (kind, id, peer, name) = proto::parse_open_rep_kind(&f.payload);
    match kind {
        proto::ObjKind::Channel => {
            // Create the channel end if this node does not have it yet
            // (both ends of a same-node channel share one kernel, so the
            // second reply is a no-op at the kernel level but still
            // resolves its own token).
            if !w.chan_ends.contains(node, id) {
                channel::create_end(w, s, node, id, Name::new(name), peer);
            }
        }
        proto::ObjKind::Udco => {
            // The UDCO itself is registered by `udco::open` once the
            // assigned tag is known (receive discipline is a local choice).
        }
    }
    w.answer(s, node, token, |c| {
        *c = CallState::Open(OpenResult::Done(id, peer));
    });
}

/// Node `node`'s open `token` fails unreachable: no manager answered it.
fn fail_open(w: &mut World, s: &mut VSched, node: NodeAddr, token: u64) {
    w.answer(s, node, token, |c| {
        *c = CallState::Open(OpenResult::Failed(crate::VorxError::Unreachable));
    });
}

/// Kernel handler: the manager acknowledged queueing our open request —
/// stop the request's retransmit chain. (Loss of this frame is healed by
/// the next retransmission; the manager re-acks duplicates.)
pub fn on_open_queued(w: &mut World, _s: &mut VSched, node: NodeAddr, f: Frame) {
    if let Some(OpenResult::Pending { queued, chain, .. }) = w.open_mut(node, f.seq) {
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
/// after [`OPEN_MAX_RETRIES`] the open fails over to the name's successor
/// replica, or fails with [`crate::VorxError::Unreachable`].
struct OpenRetry(u64);

impl OpenRetry {
    /// Where the pending request goes and what it asks for.
    fn request(&self, w: &mut World, node: NodeAddr) -> Option<(NodeAddr, proto::ObjKind, Name)> {
        match w.open_mut(node, self.0) {
            Some(OpenResult::Pending {
                mgr, name, kind, ..
            }) => Some((*mgr, *kind, name.clone())),
            _ => None,
        }
    }
}

impl Retry for OpenRetry {
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain> {
        match w.open_mut(node, self.0) {
            Some(OpenResult::Pending {
                queued: false,
                chain,
                ..
            }) => Some(chain),
            _ => None, // acknowledged, resolved, failed, or wiped by a crash
        }
    }

    fn base_ns(&self, _: &World, _: NodeAddr) -> u64 {
        OPEN_TIMEOUT_NS
    }

    fn budget(&self, _: &World) -> Option<u32> {
        Some(OPEN_MAX_RETRIES)
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
            fail_open(w, s, node, self.0);
        }
    }
}

/// Restart a pending open from scratch (manager failover: the manager that
/// queued it crashed, taking the queue with it). Called from
/// [`crate::fault::on_restart`].
pub(crate) fn resend_open(w: &mut World, s: &mut VSched, node: NodeAddr, token: u64) {
    let info = match w.open_mut(node, token) {
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
///
/// Inlined into its two callers: an opener parks here, and a parked
/// process's image holds every frame on its stack, so a call of its own
/// would add a frame's bytes to every parked opener (96 B on x86-64) and a
/// second image allocation to a process that parks deeper here than at its
/// first park.
#[inline]
pub fn rendezvous(
    ctx: &VCtx,
    node: NodeAddr,
    name: &str,
    kind: proto::ObjKind,
) -> crate::VorxResult<(u32, NodeAddr)> {
    let pid = ctx.pid();
    let token = ctx.with(|w, s| {
        // A crashed node's kernel takes no request: the restart must find
        // its tables cold.
        if !w.node(node).up {
            return Err(crate::VorxError::NodeDown);
        }
        // Bounded channel table: refuse new opens once this node holds its
        // budgeted number of channels — degrade locally instead of growing
        // the kernel without limit. (Checked before anything is registered,
        // so a refused open leaves no state behind.)
        if w.chan_ends.count(node) >= MAX_CHANS_PER_NODE {
            w.faults.stats.table_rejects += 1;
            return Err(crate::VorxError::ResourceExhausted);
        }
        // The name is built here rather than before `with`, so the frame a
        // parked opener keeps does not hold it.
        let name = Name::new(name);
        let mgr = manager_for(w, &name);
        let token = w.token();
        let req = open_req(node, mgr, kind, &name, token);
        let pending = OpenResult::Pending {
            mgr,
            name,
            kind,
            queued: false,
            chain: Chain::default(),
        };
        w.issue(node, token, pid, CallState::Open(pending));
        kernel::send_frame(w, s, req);
        retry::arm(w, s, node, OpenRetry(token));
        Ok(token)
    })?;
    ctx.wait_until(move |w, _| match w.poll_call(node, token)? {
        Some(CallState::Open(OpenResult::Done(id, peer))) => Some(Ok((id, peer))),
        Some(CallState::Open(OpenResult::Failed(e))) => Some(Err(e)),
        // Our own node crashed and the call died with it.
        _ => Some(Err(crate::VorxError::NodeDown)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calibration;
    use crate::channel::open;
    use crate::world::VorxBuilder;
    use desim::FixedSet;
    use hpcnet::Payload;

    #[test]
    fn name_hash_is_stable() {
        assert_eq!(name_hash("pipe"), name_hash("pipe"));
        assert_ne!(name_hash("pipe"), name_hash("pipf"));
    }

    #[test]
    fn seen_window_dedups_and_stays_bounded() {
        let v = VorxBuilder::single_cluster(2).build();
        let mut w = v.world();
        let m = NodeAddr(1);
        assert!(note_seen(&mut w, m, (1, 42)));
        assert!(!note_seen(&mut w, m, (1, 42)), "retransmission must dedup");
        // Push far past the cap: memory stays bounded...
        for t in 0..(SEEN_CAP as u64 * 2) {
            note_seen(&mut w, m, (2, t));
        }
        assert_eq!(w.managers.seen.count(m), SEEN_CAP);
        assert_eq!(w.node(m).mgr.seen as usize, SEEN_CAP);
        // ...recent entries still dedup, and the oldest were evicted (so a
        // very late retransmission would be re-served, which is safe — the
        // requester stopped retransmitting long ago).
        assert!(!note_seen(&mut w, m, (2, SEEN_CAP as u64 * 2 - 1)));
        assert!(
            note_seen(&mut w, m, (1, 42)),
            "evicted entries are forgotten"
        );
        assert!(!w.managers.seen.holds(NodeAddr(0)), "one manager's window");
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
