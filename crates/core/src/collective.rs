//! Collective operations: barrier, reduce, allreduce, and all-to-all.
//!
//! Two interchangeable engines implement the same blocking API (ROADMAP
//! item 3, DESIGN.md §16):
//!
//! * **In-network** — members send one combinable [`crate::proto::KIND_COLL_UP`]
//!   frame toward the group root; the fabric's combining tables
//!   ([`hpcnet::Fabric::comb_register_group`]) merge them at every star
//!   coupler on the way, so the root's software sees O(active clusters)
//!   merged frames instead of O(n) individual ones, and the result rides the
//!   existing hardware-multicast path back down.
//! * **Software tree** — a configurable-radix reduction tree built on
//!   ordinary channels, paying the full per-message channel software cost at
//!   every level. This is the baseline the in-network engine races in
//!   the `collective` campaign (`vorx-bench`).
//!
//! Reliability follows the PR 2 retry/dedup discipline, adapted to
//! combining: a contribution that *might already be merged* must never be
//! re-sent under the same identity, so retransmission opens a fresh
//! *attempt* epoch ([`hpcnet::combine::enc_seq`]). The root accumulates each
//! `(sequence, attempt)` independently and completes on the first attempt
//! whose count reaches the group size; a lost contribution or partial makes
//! that attempt incomplete forever, and the root's retry timer multicasts a
//! [`crate::proto::KIND_COLL_RETRY`] that bumps the epoch. A member that
//! contributed but never saw the result asks for a replay with
//! [`crate::proto::KIND_COLL_NUDGE`]. Channels carry their own reliability,
//! so the software tree needs none of this.

use std::sync::Arc;

use desim::{sync::WaitSet, FixedMap, SimDuration, Wakeup};
use hpcnet::combine::{self, CombOp};
use hpcnet::{Dest, Frame, NodeAddr, Payload};

use crate::api;
use crate::calib::CTL_TIMEOUT_NS;
use crate::channel::{self, ChannelHandle};
use crate::cpu::{BlockReason, CpuCat};
use crate::retry::{self, Chain, Retry};
use crate::world::{VCtx, VSched, VorxShardedSim, World};
use crate::{kernel, proto};

/// How a collective group executes its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollMode {
    /// Combining inside the fabric's star couplers (DESIGN.md §16).
    InNetwork,
    /// A software reduction tree of the given radix over ordinary channels.
    SoftwareTree {
        /// Children per tree node (≥ 1).
        radix: u32,
    },
}

/// Static configuration of one collective group.
#[derive(Debug, Clone)]
pub struct GroupCfg {
    /// Group id (≤ [`hpcnet::combine::MAX_GROUP`]).
    pub group: u32,
    /// The member nodes. Sorted ascending at registration; the first member
    /// is the root.
    pub members: Vec<NodeAddr>,
    /// Execution engine.
    pub mode: CollMode,
}

/// A registered group as every world holds it: the member list sorted,
/// deduplicated and shared — by every attached member's [`Collective`], the
/// root's result and retry multicasts, and the all-to-all recovery timer —
/// never copied per member or per operation.
#[derive(Debug, Clone)]
pub struct Group {
    /// The member nodes, ascending; the first is the root.
    pub(crate) members: Arc<[NodeAddr]>,
    /// Every member but the root (`members[1..]`): the root's multicast
    /// targets.
    pub(crate) others: Arc<[NodeAddr]>,
    /// Execution engine.
    pub(crate) mode: CollMode,
}

impl Group {
    fn new(cfg: &GroupCfg) -> Group {
        let mut members = cfg.members.clone();
        members.sort();
        members.dedup();
        assert!(!members.is_empty(), "collective group needs members");
        assert!(
            cfg.group <= combine::MAX_GROUP,
            "collective group id exceeds 24 bits"
        );
        if let CollMode::SoftwareTree { radix } = cfg.mode {
            assert!(radix >= 1, "software tree radix must be >= 1");
        }
        Group {
            others: members[1..].into(),
            members: members.into(),
            mode: cfg.mode,
        }
    }
}

/// Per-node, per-group collective protocol state (a row of
/// [`World::coll`]; a crash wipes it like every other world table's).
#[derive(Default)]
pub struct CollNodeState {
    /// Next operation sequence number on this node. Members of a group call
    /// the same operations in the same program order, so sequence numbers
    /// align across the group without coordination.
    pub next_cseq: u32,
    /// Processes blocked in a collective op on this node/group.
    pub waiters: WaitSet,
    /// The member-side in-flight operation, if any (ops block, so at most
    /// one per group per node).
    pub pending: Option<PendingUp>,
    /// Latest completed `(sequence, result)` seen on this node.
    pub completed: Option<(u32, u64)>,
    /// A `KIND_COLL_RETRY` that arrived before this member reached the
    /// operation it names: `(sequence, attempt)` to start from.
    pub retry_hint: Option<(u32, u8)>,
    /// Root side: per-`(sequence, attempt)` accumulated `(value, count)`.
    pub accs: FixedMap<(u32, u8), (u64, u32)>,
    /// Root side: the in-flight operation this root is collecting.
    pub root_pending: Option<RootPending>,
    /// Root side: recently completed results, kept for `KIND_COLL_NUDGE`
    /// replay. A straggler can lag at most one full operation behind the
    /// root (every op is a full synchronization), so only the last two
    /// sequences are retained.
    pub done: FixedMap<u32, (u64, CombOp, u32)>,
    /// All-to-all: the in-flight gather on this node.
    pub a2a: Option<A2aPending>,
    /// All-to-all: own `(sequence → value)` contributions, kept for
    /// `KIND_COLL_A2A_REQ` replay (last two sequences, same bound as
    /// `done`).
    pub a2a_sent: FixedMap<u32, u64>,
    /// All-to-all values that arrived before this node entered the
    /// operation, keyed by sequence.
    pub a2a_early: FixedMap<u32, Vec<(u32, u64)>>,
}

/// A member's in-flight contribution awaiting its result.
pub struct PendingUp {
    /// Operation sequence.
    pub cseq: u32,
    /// Combining operation.
    pub op: CombOp,
    /// This member's operand.
    pub value: u64,
    /// Current attempt epoch (high-water: retries only move it up).
    pub attempt: u8,
    /// The group root (result source, nudge target).
    pub root: NodeAddr,
    /// The nudge chain.
    pub chain: Chain,
}

/// The root's in-flight collection.
pub struct RootPending {
    /// Operation sequence.
    pub cseq: u32,
    /// Combining operation.
    pub op: CombOp,
    /// The root's own operand (re-folded into every fresh attempt).
    pub own: u64,
    /// Current attempt epoch.
    pub attempt: u8,
    /// Full group size (completion threshold).
    pub total: u32,
    /// Every member except the root (retry/result multicast targets): the
    /// group's own list.
    pub others: Arc<[NodeAddr]>,
    /// The retry chain.
    pub chain: Chain,
}

/// One node's in-flight all-to-all gather.
pub struct A2aPending {
    /// Operation sequence.
    pub cseq: u32,
    /// Received values by member index (own slot filled at start).
    pub vals: Vec<Option<u64>>,
    /// The recovery chain.
    pub chain: Chain,
}

impl A2aPending {
    fn missing(&self) -> usize {
        self.vals.iter().filter(|v| v.is_none()).count()
    }
}

/// Register a collective group in one world. Sequential builds call this
/// once through [`VorxSim::world`](crate::world::VorxSim::world); sharded
/// builds must register on *every* shard ([`register_group_sharded`]).
///
/// For an in-network group this also arms the fabric's combining tables —
/// but only on the shard owning the root, because that is the only fabric
/// that ever carries `KIND_COLL_UP` frames (members elsewhere bridge
/// straight into it). Shards that never see collective traffic keep their
/// combining state disarmed and their traces byte-identical to
/// collective-free builds.
pub fn register_group(w: &mut World, cfg: &GroupCfg) {
    install(w, cfg.group, Group::new(cfg));
}

/// [`register_group`] on every shard of a sharded simulation, all of them
/// sharing one member list. Call before spawning member processes.
pub fn register_group_sharded(sim: &VorxShardedSim, cfg: &GroupCfg) {
    let g = Group::new(cfg);
    for k in 0..sim.n_shards() {
        install(&mut sim.world(k), cfg.group, g.clone());
    }
}

fn install(w: &mut World, group: u32, g: Group) {
    let root = g.members[0];
    if g.mode == CollMode::InNetwork {
        let total = g.members.len() as u32;
        if w.shard.enabled {
            if !w.shard.is_remote(root) {
                // Only members co-located with the root route through this
                // fabric; everyone else's frames arrive over the bridge and
                // merge at the root's own cluster.
                let local: Vec<NodeAddr> = g
                    .members
                    .iter()
                    .copied()
                    .filter(|m| !w.shard.is_remote(*m))
                    .collect();
                w.net
                    .comb_register_group(group, proto::KIND_COLL_UP, &local, root, total);
            }
        } else {
            w.net
                .comb_register_group(group, proto::KIND_COLL_UP, &g.members, root, total);
        }
    }
    w.coll_groups.insert(group, g);
}

/// A process-side handle to one collective group, bound to the calling
/// member's node. [`attach`] it once, then call operations in the same
/// order from every member.
pub struct Collective {
    group: u32,
    node: NodeAddr,
    idx: usize,
    members: Arc<[NodeAddr]>,
    /// The root's multicast targets (used by the root only).
    others: Arc<[NodeAddr]>,
    engine: Engine,
}

enum Engine {
    InNetwork,
    Software {
        parent: Option<ChannelHandle>,
        children: Vec<ChannelHandle>,
    },
}

/// The longest tree-edge channel name: `coll`, a `u32` group, `.e` and a
/// `usize` member index.
const EDGE_NAME_MAX: usize = 4 + 10 + 2 + 20;

/// The channel name of the tree edge into member `child` of `group`,
/// formatted into `buf` rather than onto the heap. A name of up to
/// [`crate::objmgr::Name::INLINE`] bytes — every group and member index
/// below 10⁸ — then costs the open no allocation at all.
fn edge_name(buf: &mut [u8; EDGE_NAME_MAX], group: u32, child: usize) -> &str {
    use std::io::Write;
    let mut rest = &mut buf[..];
    write!(rest, "coll{group}.e{child}").expect("an edge name fits EDGE_NAME_MAX");
    let len = EDGE_NAME_MAX - rest.len();
    std::str::from_utf8(&buf[..len]).expect("formatted as UTF-8")
}

/// Attach to a registered group from a member process running on `node`.
/// For a software-tree group this opens the tree channels (blocking until
/// the tree peers attach too); in-network groups attach instantly.
pub fn attach(ctx: &VCtx, node: NodeAddr, group: u32) -> Collective {
    let cfg = ctx.with(move |w, _| {
        w.coll_groups
            .get(&group)
            .unwrap_or_else(|| panic!("collective group {group} is not registered"))
            .clone()
    });
    let idx = cfg
        .members
        .binary_search(&node)
        .unwrap_or_else(|_| panic!("{node} is not a member of collective group {group}"));
    let engine = match cfg.mode {
        CollMode::InNetwork => Engine::InNetwork,
        CollMode::SoftwareTree { radix } => {
            // Deadlock-free open order: post the parent edge first (so the
            // parent's matching open always finds it), then child edges in
            // ascending order.
            let r = radix as usize;
            let mut buf = [0; EDGE_NAME_MAX];
            let mut open_edge = |c| channel::open(ctx, node, edge_name(&mut buf, group, c));
            let parent = (idx > 0).then(|| open_edge(idx));
            let children = (1..=r)
                .map(|k| idx * r + k)
                .filter(|&c| c < cfg.members.len())
                .map(open_edge)
                .collect();
            Engine::Software { parent, children }
        }
    };
    Collective {
        group,
        node,
        idx,
        members: cfg.members,
        others: cfg.others,
        engine,
    }
}

impl Collective {
    /// This member's index within the group (0 = root).
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Block until every member has entered the barrier. In an in-network
    /// group a down node returns at once, entering nothing.
    pub fn barrier(&self, ctx: &VCtx) {
        self.allreduce(ctx, CombOp::Sum, 0);
    }

    /// Fold every member's operand with `op`; every member returns when the
    /// reduction completes, and all of them receive the folded value (the
    /// result broadcast doubles as the completion acknowledgement, so a
    /// root-only variant would cost exactly the same — `reduce` *is*
    /// `allreduce`). In an in-network group a down node returns `operand`
    /// at once, as [`Collective::allreduce`] does.
    pub fn reduce(&self, ctx: &VCtx, op: CombOp, operand: u64) -> u64 {
        self.allreduce(ctx, op, operand)
    }

    /// Fetch-and-add: every member contributes `operand` and receives the
    /// group total. (The Ultracomputer's per-requester serialization prefix
    /// is not modeled — a documented simplification; see
    /// [`hpcnet::combine::CombOp::FetchAdd`].) In an in-network group a
    /// down node returns `operand` at once, as [`Collective::allreduce`]
    /// does.
    pub fn fetch_add(&self, ctx: &VCtx, operand: u64) -> u64 {
        self.allreduce(ctx, CombOp::FetchAdd, operand)
    }

    /// Fold every member's operand with `op` and deliver the result to all.
    /// In an in-network group a call on a down node sends nothing, keeps no
    /// state and returns `operand` at once, which the caller cannot tell
    /// from a group whose other members all contributed the identity.
    pub fn allreduce(&self, ctx: &VCtx, op: CombOp, operand: u64) -> u64 {
        match &self.engine {
            Engine::InNetwork => self.innet_allreduce(ctx, op, operand),
            Engine::Software { parent, children } => {
                self.sw_allreduce(ctx, op, operand, parent, children)
            }
        }
    }

    /// Exchange one value with every member: returns the full vector of
    /// member values, indexed by member index (own value included). In an
    /// in-network group a call on a down node sends nothing, keeps no state
    /// and returns at once, with `value` at this member's index and 0 at
    /// every other.
    pub fn all_to_all(&self, ctx: &VCtx, value: u64) -> Vec<u64> {
        match &self.engine {
            Engine::InNetwork => self.innet_all_to_all(ctx, value),
            Engine::Software { parent, children } => {
                self.sw_all_to_all(ctx, value, parent, children)
            }
        }
    }

    // ----- in-network engine -----

    fn innet_allreduce(&self, ctx: &VCtx, op: CombOp, operand: u64) -> u64 {
        let node = self.node;
        let group = self.group;
        // The lean direct-hardware send (the raw UDCO path of §4.1): build
        // a 13-byte operand and poke the output registers.
        let (up, send_ns) = ctx.with(|w, _| {
            let c = &w.calib;
            let send_ns =
                c.raw_send_ns + c.udco_copy_ns_per_byte * u64::from(combine::COMB_PAYLOAD_BYTES);
            (w.node(node).up, send_ns)
        });
        if !up {
            return operand;
        }
        api::compute_ns(ctx, node, CpuCat::User, send_ns);
        let cseq = if self.idx == 0 {
            let others = Arc::clone(&self.others);
            ctx.with(move |w, s| root_begin(w, s, node, group, op, operand, others))
        } else {
            let root = self.members[0];
            ctx.with(move |w, s| member_begin(w, s, node, group, op, operand, root))
        };
        wait_completed(ctx, node, group, cseq)
    }

    fn innet_all_to_all(&self, ctx: &VCtx, value: u64) -> Vec<u64> {
        let node = self.node;
        let group = self.group;
        let idx = self.idx as u32;
        let n = self.members.len();
        let (up, send_ns, switch_ns) = ctx.with(|w, _| {
            let send_ns = w.calib.raw_send_ns + w.calib.udco_copy_ns_per_byte * 12;
            (w.node(node).up, send_ns, w.calib.ctx_switch_ns)
        });
        if !up {
            let mut vals = vec![0; n];
            vals[idx as usize] = value;
            return vals;
        }
        api::compute_ns(ctx, node, CpuCat::User, send_ns);
        let others: Vec<NodeAddr> = self
            .members
            .iter()
            .copied()
            .filter(|&m| m != node)
            .collect();
        let cseq = ctx.with(move |w, s| {
            let st = coll_state(w, node, group);
            let cseq = st.next_cseq;
            st.next_cseq += 1;
            let mut vals = vec![None; n];
            vals[idx as usize] = Some(value);
            let early = st.a2a_early.remove(&cseq).unwrap_or_default();
            for (i, v) in early {
                vals[i as usize] = Some(v);
            }
            st.a2a_sent.insert(cseq, value);
            st.a2a_sent.retain(|&c, _| c + 2 > cseq);
            st.a2a = Some(A2aPending {
                cseq,
                vals,
                chain: Chain::default(),
            });
            if !others.is_empty() {
                let f = Frame {
                    src: node,
                    dst: Dest::Multicast(others.into()),
                    kind: proto::KIND_COLL_A2A,
                    seq: combine::enc_seq(group, cseq, 0),
                    payload: proto::pack_a2a(idx, value),
                    corrupted: false,
                };
                kernel::send_frame(w, s, f);
            }
            retry::arm(w, s, node, CollRetry(CollChain::A2a, group, cseq));
            cseq
        });
        let pid = ctx.pid();
        let mut blocked = false;
        let (vals, was_blocked) = ctx.wait_until(move |w, s| {
            let now = s.now();
            let st = coll_state(w, node, group);
            let done = st
                .a2a
                .as_ref()
                .is_some_and(|p| p.cseq == cseq && p.missing() == 0);
            if done {
                let p = st.a2a.take().expect("checked above");
                let vals: Vec<u64> = p.vals.into_iter().map(|v| v.expect("complete")).collect();
                if blocked {
                    w.unblock(now, node, BlockReason::Input);
                }
                Some((vals, blocked))
            } else {
                let st = coll_state(w, node, group);
                st.waiters.register(pid);
                if !blocked {
                    blocked = true;
                    w.block(now, node, BlockReason::Input);
                }
                None
            }
        });
        if was_blocked {
            api::compute_ns(ctx, node, CpuCat::System, switch_ns);
        }
        vals
    }

    // ----- software-tree engine -----

    fn sw_allreduce(
        &self,
        ctx: &VCtx,
        op: CombOp,
        operand: u64,
        parent: &Option<ChannelHandle>,
        children: &[ChannelHandle],
    ) -> u64 {
        // Up: fold the children's subtree results into our own operand.
        let mut acc = operand;
        for ch in children {
            let p = ch.read(ctx).expect("collective tree channel closed");
            let (cop, v, _) = combine::unpack(&p).expect("malformed tree operand");
            debug_assert_eq!(cop.code(), op.code(), "mixed ops in one collective");
            acc = op.apply(acc, v);
        }
        // The root now holds the result; everyone else sends up and waits
        // for it to come back down.
        let result = match parent {
            None => acc,
            Some(up) => {
                up.write(ctx, combine::pack(op, acc, 1))
                    .expect("collective tree channel closed");
                let p = up.read(ctx).expect("collective tree channel closed");
                let (_, v, _) = combine::unpack(&p).expect("malformed tree result");
                v
            }
        };
        // Down: forward to our subtree.
        for ch in children {
            ch.write(ctx, combine::pack(op, result, 1))
                .expect("collective tree channel closed");
        }
        result
    }

    fn sw_all_to_all(
        &self,
        ctx: &VCtx,
        value: u64,
        parent: &Option<ChannelHandle>,
        children: &[ChannelHandle],
    ) -> Vec<u64> {
        // Up: gather (index, value) pairs from the subtree.
        let mut pairs: Vec<(u32, u64)> = vec![(self.idx as u32, value)];
        for ch in children {
            let p = ch.read(ctx).expect("collective tree channel closed");
            pairs.extend(parse_pairs(&p));
        }
        let full = match parent {
            None => {
                assert_eq!(pairs.len(), self.members.len(), "gather incomplete");
                pairs
            }
            Some(up) => {
                up.write(ctx, pack_pairs(&pairs))
                    .expect("collective tree channel closed");
                let p = up.read(ctx).expect("collective tree channel closed");
                parse_pairs(&p)
            }
        };
        for ch in children {
            ch.write(ctx, pack_pairs(&full))
                .expect("collective tree channel closed");
        }
        let mut vals = vec![0u64; self.members.len()];
        for (i, v) in full {
            vals[i as usize] = v;
        }
        vals
    }
}

/// Pack a list of `(index, value)` pairs (12 bytes each) for tree gathers.
fn pack_pairs(pairs: &[(u32, u64)]) -> Payload {
    let mut b = Vec::with_capacity(pairs.len() * 12);
    for &(i, v) in pairs {
        b.extend_from_slice(&i.to_be_bytes());
        b.extend_from_slice(&v.to_be_bytes());
    }
    Payload::copy_from(&b)
}

fn parse_pairs(p: &Payload) -> Vec<(u32, u64)> {
    let b = p.bytes().expect("tree gather carries data");
    assert_eq!(b.len() % 12, 0, "malformed tree gather payload");
    b.chunks_exact(12)
        .map(|c| {
            let mut i = [0u8; 4];
            i.copy_from_slice(&c[..4]);
            let mut v = [0u8; 8];
            v.copy_from_slice(&c[4..12]);
            (u32::from_be_bytes(i), u64::from_be_bytes(v))
        })
        .collect()
}

// ----- kernel-side machinery (in-network engine) -----

fn coll_state(w: &mut World, node: NodeAddr, group: u32) -> &mut CollNodeState {
    w.node_mut(node);
    w.coll.get_or_insert_with(node, group, Default::default)
}

/// Start a member-side operation: allocate the sequence, send the operand
/// up, arm the nudge timer.
fn member_begin(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    group: u32,
    op: CombOp,
    value: u64,
    root: NodeAddr,
) -> u32 {
    let st = coll_state(w, node, group);
    let cseq = st.next_cseq;
    st.next_cseq += 1;
    let attempt = match st.retry_hint.take() {
        Some((c, a)) if c == cseq => a,
        _ => 0,
    };
    st.pending = Some(PendingUp {
        cseq,
        op,
        value,
        attempt,
        root,
        chain: Chain::default(),
    });
    let f = Frame::unicast(
        node,
        root,
        proto::KIND_COLL_UP,
        combine::enc_seq(group, cseq, attempt),
        combine::pack(op, value, 1),
    );
    kernel::send_frame(w, s, f);
    retry::arm(w, s, node, CollRetry(CollChain::Nudge, group, cseq));
    cseq
}

/// Start the root-side collection: fold the root's own operand into attempt
/// 0 and arm the retry timer. Early contributions (members that raced
/// ahead) are already accumulated. `others` is the group's every member but
/// this root.
fn root_begin(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    group: u32,
    op: CombOp,
    own: u64,
    others: Arc<[NodeAddr]>,
) -> u32 {
    let total = others.len() as u32 + 1;
    let st = coll_state(w, node, group);
    let cseq = st.next_cseq;
    st.next_cseq += 1;
    let e = st.accs.entry((cseq, 0)).or_insert((op.identity(), 0));
    e.0 = op.apply(e.0, own);
    e.1 += 1;
    st.root_pending = Some(RootPending {
        cseq,
        op,
        own,
        attempt: 0,
        total,
        others,
        chain: Chain::default(),
    });
    try_complete_root(w, s, node, group, cseq, 0);
    retry::arm(w, s, node, CollRetry(CollChain::Root, group, cseq));
    cseq
}

/// Block until `cseq` completes on this node and return its result.
fn wait_completed(ctx: &VCtx, node: NodeAddr, group: u32, cseq: u32) -> u64 {
    let pid = ctx.pid();
    let mut blocked = false;
    let (val, was_blocked) = ctx.wait_until(move |w, s| {
        let now = s.now();
        let st = coll_state(w, node, group);
        match st.completed {
            Some((c, v)) if c == cseq => {
                if blocked {
                    w.unblock(now, node, BlockReason::Input);
                }
                Some((v, blocked))
            }
            _ => {
                st.waiters.register(pid);
                if !blocked {
                    blocked = true;
                    w.block(now, node, BlockReason::Input);
                }
                None
            }
        }
    });
    if was_blocked {
        let switch_ns = ctx.with(|w, _| w.calib.ctx_switch_ns);
        api::compute_ns(ctx, node, CpuCat::System, switch_ns);
    }
    val
}

/// The three collective retry chains. None has a budget: the loss and
/// degradation fault models are probabilistic per transmission, so retries
/// eventually succeed.
enum CollChain {
    /// A member's result hasn't come back: [`send_nudge`].
    Nudge,
    /// The root's current attempt didn't complete in time: [`retry_root`].
    Root,
    /// An all-to-all gather still misses values: [`replay_a2a`].
    A2a,
}

/// The retry chain `(kind, group, cseq)`: `kind` of operation `cseq` of
/// `group`.
struct CollRetry(CollChain, u32, u32);

impl Retry for CollRetry {
    fn chain<'w>(&self, w: &'w mut World, node: NodeAddr) -> Option<&'w mut Chain> {
        let st = w.coll.get_mut(node, &self.1)?;
        let (cseq, chain) = match self.0 {
            CollChain::Nudge => st.pending.as_mut().map(|p| (p.cseq, &mut p.chain))?,
            CollChain::Root => st.root_pending.as_mut().map(|p| (p.cseq, &mut p.chain))?,
            CollChain::A2a => {
                let p = st.a2a.as_mut().filter(|p| p.missing() > 0)?;
                (p.cseq, &mut p.chain)
            }
        };
        (cseq == self.2).then_some(chain)
    }

    fn base_ns(&self, _: &World, _: NodeAddr) -> u64 {
        CTL_TIMEOUT_NS
    }

    fn resend(&self, w: &mut World, s: &mut VSched, node: NodeAddr) {
        let resend = match self.0 {
            CollChain::Nudge => send_nudge,
            CollChain::Root => retry_root,
            CollChain::A2a => replay_a2a,
        };
        resend(w, s, node, self.1, self.2);
    }
}

/// Ask the root to replay the result of `cseq` (or, if the root is still
/// collecting, let its own retry chain drive recovery).
fn send_nudge(w: &mut World, s: &mut VSched, node: NodeAddr, group: u32, cseq: u32) {
    let Some(p) = coll_state(w, node, group).pending.as_ref() else {
        return;
    };
    let f = Frame::unicast(
        node,
        p.root,
        proto::KIND_COLL_NUDGE,
        combine::enc_seq(group, cseq, p.attempt),
        Payload::Synthetic(0),
    );
    kernel::send_frame(w, s, f);
}

/// A contribution (or a flushed partial) was lost, or a straggler is slow:
/// open a fresh attempt epoch and ask every member to re-send under it.
fn retry_root(w: &mut World, s: &mut VSched, node: NodeAddr, group: u32, cseq: u32) {
    let st = coll_state(w, node, group);
    let Some(rp) = &mut st.root_pending else {
        return;
    };
    rp.attempt = rp.attempt.saturating_add(1);
    let (a, op, own, others) = (rp.attempt, rp.op, rp.own, Arc::clone(&rp.others));
    let e = st.accs.entry((cseq, a)).or_insert((op.identity(), 0));
    e.0 = op.apply(e.0, own);
    e.1 += 1;
    w.faults.stats.coll_retries += 1;
    if !others.is_empty() {
        let f = Frame {
            src: node,
            dst: Dest::Multicast(others),
            kind: proto::KIND_COLL_RETRY,
            seq: combine::enc_seq(group, cseq, a),
            payload: Payload::Synthetic(0),
            corrupted: false,
        };
        kernel::send_frame(w, s, f);
    }
    try_complete_root(w, s, node, group, cseq, a);
}

/// If `attempt`'s accumulation reached the group size, finish the
/// operation: record the result, wake the root's waiter, and multicast the
/// result down the hardware path.
fn try_complete_root(
    w: &mut World,
    s: &mut VSched,
    node: NodeAddr,
    group: u32,
    cseq: u32,
    attempt: u8,
) {
    let st = coll_state(w, node, group);
    let Some(rp) = &st.root_pending else { return };
    if rp.cseq != cseq {
        return;
    }
    let total = rp.total;
    let Some(&(val, cnt)) = st.accs.get(&(cseq, attempt)) else {
        return;
    };
    if cnt < total {
        return;
    }
    let rp = st.root_pending.take().expect("checked above");
    let op = rp.op;
    st.accs.retain(|&(c, _), _| c != cseq);
    st.completed = Some((cseq, val));
    st.done.insert(cseq, (val, op, cnt));
    st.done.retain(|&c, _| c + 2 > cseq);
    st.waiters.wake_all(s, Wakeup::START);
    if !rp.others.is_empty() {
        let now = s.now();
        w.charge(
            now,
            node,
            CpuCat::System,
            SimDuration::from_ns(w.calib.chan_ack_gen_ns),
        );
        let f = Frame {
            src: node,
            dst: Dest::Multicast(rp.others),
            kind: proto::KIND_COLL_RESULT,
            seq: combine::enc_seq(group, cseq, 0),
            payload: combine::pack(op, val, cnt),
            corrupted: false,
        };
        kernel::send_frame(w, s, f);
    }
}

/// Kernel handler: a (possibly fabric-merged) contribution reached the
/// root. Fold it into its `(sequence, attempt)` accumulator.
pub fn on_up(w: &mut World, s: &mut VSched, a: NodeAddr, f: Frame) {
    let group = combine::seq_group(f.seq);
    let cseq = combine::seq_cseq(f.seq);
    let attempt = combine::seq_attempt(f.seq);
    let Some((op, v, c)) = combine::unpack(&f.payload) else {
        return; // not a well-formed operand; drop
    };
    let st = coll_state(w, a, group);
    if st.done.contains_key(&cseq) || st.completed.is_some_and(|(dc, _)| dc >= cseq) {
        return; // stale straggler for a completed operation
    }
    let e = st.accs.entry((cseq, attempt)).or_insert((op.identity(), 0));
    e.0 = op.apply(e.0, v);
    e.1 += c;
    try_complete_root(w, s, a, group, cseq, attempt);
}

/// Kernel handler: the result came down from the root.
pub fn on_result(w: &mut World, s: &mut VSched, a: NodeAddr, f: Frame) {
    let group = combine::seq_group(f.seq);
    let cseq = combine::seq_cseq(f.seq);
    let Some((_, v, _)) = combine::unpack(&f.payload) else {
        return;
    };
    let st = coll_state(w, a, group);
    if st.completed.is_some_and(|(c, _)| c >= cseq) {
        return; // duplicate replay
    }
    st.completed = Some((cseq, v));
    if st.pending.as_ref().is_some_and(|p| p.cseq == cseq) {
        st.pending = None;
    }
    st.waiters.wake_all(s, Wakeup::START);
}

/// Kernel handler: the root opened a fresh attempt epoch — re-send our
/// contribution under it (members that haven't reached the operation yet
/// stash the epoch and start from it directly).
pub fn on_retry(w: &mut World, s: &mut VSched, a: NodeAddr, f: Frame) {
    let group = combine::seq_group(f.seq);
    let cseq = combine::seq_cseq(f.seq);
    let attempt = combine::seq_attempt(f.seq);
    let st = coll_state(w, a, group);
    if st.completed.is_some_and(|(c, _)| c >= cseq) {
        return; // already have the result; the retry crossed it in flight
    }
    match &mut st.pending {
        Some(p) if p.cseq == cseq => {
            if attempt <= p.attempt {
                return; // stale or duplicate epoch
            }
            p.attempt = attempt;
            let (op, value, root) = (p.op, p.value, p.root);
            let frame = Frame::unicast(
                a,
                root,
                proto::KIND_COLL_UP,
                combine::enc_seq(group, cseq, attempt),
                combine::pack(op, value, 1),
            );
            kernel::send_frame(w, s, frame);
        }
        _ => {
            if st.next_cseq <= cseq {
                // We haven't entered this operation yet; start at the
                // freshest epoch when we do.
                match st.retry_hint {
                    Some((c, hint)) if c == cseq && hint >= attempt => {}
                    _ => st.retry_hint = Some((cseq, attempt)),
                }
            }
        }
    }
}

/// Kernel handler (root side): a member wants the result replayed.
pub fn on_nudge(w: &mut World, s: &mut VSched, a: NodeAddr, f: Frame) {
    let group = combine::seq_group(f.seq);
    let cseq = combine::seq_cseq(f.seq);
    let from = f.src;
    let st = coll_state(w, a, group);
    let Some(&(val, op, cnt)) = st.done.get(&cseq) else {
        return; // still collecting (our retry timer drives), or ancient
    };
    let now = s.now();
    w.charge(
        now,
        a,
        CpuCat::System,
        SimDuration::from_ns(w.calib.chan_ack_gen_ns),
    );
    let frame = Frame::unicast(
        a,
        from,
        proto::KIND_COLL_RESULT,
        combine::enc_seq(group, cseq, 0),
        combine::pack(op, val, cnt),
    );
    kernel::send_frame(w, s, frame);
}

/// Unicast a replay request to every member whose value for all-to-all
/// `cseq` is still missing.
fn replay_a2a(w: &mut World, s: &mut VSched, node: NodeAddr, group: u32, cseq: u32) {
    let Some(g) = w.coll_groups.get(&group) else {
        return;
    };
    let members = Arc::clone(&g.members);
    let my_idx = members.binary_search(&node).unwrap_or(usize::MAX) as u32;
    let Some(p) = coll_state(w, node, group).a2a.as_ref() else {
        return;
    };
    let missing: Vec<NodeAddr> = p
        .vals
        .iter()
        .enumerate()
        .filter(|(_, v)| v.is_none())
        .map(|(i, _)| members[i])
        .collect();
    for m in missing {
        let f = Frame::unicast(
            node,
            m,
            proto::KIND_COLL_A2A_REQ,
            combine::enc_seq(group, cseq, 0),
            proto::pack_a2a_req(my_idx),
        );
        kernel::send_frame(w, s, f);
    }
}

/// Kernel handler: an all-to-all value arrived (broadcast or replay).
pub fn on_a2a_val(w: &mut World, s: &mut VSched, a: NodeAddr, f: Frame) {
    let group = combine::seq_group(f.seq);
    let cseq = combine::seq_cseq(f.seq);
    let (idx, v) = proto::parse_a2a(&f.payload);
    let st = coll_state(w, a, group);
    match &mut st.a2a {
        Some(p) if p.cseq == cseq => {
            p.vals[idx as usize] = Some(v);
            if p.missing() == 0 {
                st.waiters.wake_all(s, Wakeup::START);
            }
        }
        _ => {
            if st.next_cseq <= cseq {
                st.a2a_early.entry(cseq).or_default().push((idx, v));
            }
        }
    }
}

/// Kernel handler: replay our own all-to-all value to a requester that
/// missed the broadcast.
pub fn on_a2a_req(w: &mut World, s: &mut VSched, a: NodeAddr, f: Frame) {
    let group = combine::seq_group(f.seq);
    let cseq = combine::seq_cseq(f.seq);
    let req_idx = proto::parse_a2a_req(&f.payload) as usize;
    let Some(cfg) = w.coll_groups.get(&group) else {
        return;
    };
    let Some(&req_node) = cfg.members.get(req_idx) else {
        return;
    };
    let my_idx = match cfg.members.binary_search(&a) {
        Ok(i) => i as u32,
        Err(_) => return,
    };
    let st = coll_state(w, a, group);
    let Some(&v) = st.a2a_sent.get(&cseq) else {
        return; // haven't entered that operation yet; requester will re-ask
    };
    let frame = Frame::unicast(
        a,
        req_node,
        proto::KIND_COLL_A2A_VAL,
        combine::enc_seq(group, cseq, 0),
        proto::pack_a2a(my_idx, v),
    );
    kernel::send_frame(w, s, frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::VorxBuilder;
    use std::sync::{Arc, Mutex};

    #[test]
    fn edge_names_format_on_the_stack_as_format_would() {
        let mut buf = [0; EDGE_NAME_MAX];
        for (g, c) in [
            (0, 0),
            (7, 511),
            (99_999_999, 99_999_999),
            (u32::MAX, usize::MAX),
        ] {
            assert_eq!(edge_name(&mut buf, g, c), format!("coll{g}.e{c}"));
        }
        let name = edge_name(&mut buf, 99_999_999, 99_999_999);
        assert_eq!(name.len(), crate::objmgr::Name::INLINE);
    }

    fn group(members: &[u32], mode: CollMode) -> GroupCfg {
        GroupCfg {
            group: 7,
            members: members.iter().map(|&m| NodeAddr(m)).collect(),
            mode,
        }
    }

    fn run_allreduce(mode: CollMode) -> Vec<u64> {
        let members: Vec<u32> = (0..8).collect();
        let mut v = VorxBuilder::hypercube(4, 2).build();
        register_group(&mut v.world(), &group(&members, mode));
        let results = Arc::new(Mutex::new(vec![0u64; members.len()]));
        for (i, m) in members.iter().copied().enumerate() {
            let results = Arc::clone(&results);
            v.spawn(format!("n{m}:coll"), move |ctx| {
                let c = attach(&ctx, NodeAddr(m), 7);
                let r = c.allreduce(&ctx, CombOp::Sum, u64::from(m) + 1);
                desim::lock(&results)[i] = r;
            });
        }
        v.run_all();
        assert_eq!(v.world().net.in_flight(), 0);
        let r = desim::lock(&results).clone();
        r
    }

    #[test]
    fn in_network_allreduce_sums_every_member() {
        let r = run_allreduce(CollMode::InNetwork);
        assert!(r.iter().all(|&v| v == 36), "results {r:?}");
    }

    #[test]
    fn software_tree_allreduce_matches() {
        let r = run_allreduce(CollMode::SoftwareTree { radix: 2 });
        assert!(r.iter().all(|&v| v == 36), "results {r:?}");
    }

    #[test]
    fn in_network_beats_software_tree_in_simulated_time() {
        let t = |mode| {
            let members: Vec<u32> = (0..12).collect();
            let mut v = VorxBuilder::hypercube(4, 3).build();
            register_group(&mut v.world(), &group(&members, mode));
            for m in members.iter().copied() {
                v.spawn(format!("n{m}:coll"), move |ctx| {
                    let c = attach(&ctx, NodeAddr(m), 7);
                    c.barrier(&ctx);
                });
            }
            v.run_all().as_ns()
        };
        let innet = t(CollMode::InNetwork);
        let tree = t(CollMode::SoftwareTree { radix: 2 });
        assert!(
            innet < tree,
            "in-network {innet} ns should beat software tree {tree} ns"
        );
    }

    #[test]
    fn all_to_all_exchanges_every_value() {
        for mode in [CollMode::InNetwork, CollMode::SoftwareTree { radix: 3 }] {
            let members: Vec<u32> = (0..6).collect();
            let mut v = VorxBuilder::hypercube(2, 3).build();
            register_group(&mut v.world(), &group(&members, mode));
            let results = Arc::new(Mutex::new(Vec::new()));
            for m in members.iter().copied() {
                let results = Arc::clone(&results);
                v.spawn(format!("n{m}:a2a"), move |ctx| {
                    let c = attach(&ctx, NodeAddr(m), 7);
                    let r = c.all_to_all(&ctx, u64::from(m) * 100);
                    desim::lock(&results).push(r);
                });
            }
            v.run_all();
            let want: Vec<u64> = (0..6).map(|i| i * 100).collect();
            for r in desim::lock(&results).iter() {
                assert_eq!(r, &want, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn mixed_op_sequence_stays_aligned() {
        let members: Vec<u32> = (0..4).collect();
        let mut v = VorxBuilder::hypercube(2, 2).build();
        register_group(&mut v.world(), &group(&members, CollMode::InNetwork));
        let oks = Arc::new(Mutex::new(0u32));
        for m in members.iter().copied() {
            let oks = Arc::clone(&oks);
            v.spawn(format!("n{m}:mix"), move |ctx| {
                let c = attach(&ctx, NodeAddr(m), 7);
                c.barrier(&ctx);
                let mx = c.reduce(&ctx, CombOp::Max, u64::from(m));
                assert_eq!(mx, 3);
                let mn = c.allreduce(&ctx, CombOp::Min, u64::from(m) + 10);
                assert_eq!(mn, 10);
                let fa = c.fetch_add(&ctx, 2);
                assert_eq!(fa, 8);
                let vals = c.all_to_all(&ctx, u64::from(m) ^ 5);
                assert_eq!(vals, vec![5, 4, 7, 6]);
                *desim::lock(&oks) += 1;
            });
        }
        v.run_all();
        assert_eq!(*desim::lock(&oks), 4);
    }

    #[test]
    fn sharded_in_network_allreduce_is_worker_invariant() {
        let run = |workers: usize| {
            let members: Vec<u32> = (0..12).collect();
            let cfg = group(&members, CollMode::InNetwork);
            let v = VorxBuilder::hypercube(4, 3).seed(11).build_sharded(workers);
            register_group_sharded(&v, &cfg);
            let results = Arc::new(Mutex::new(vec![0u64; members.len()]));
            for (i, m) in members.iter().copied().enumerate() {
                let results = Arc::clone(&results);
                v.spawn_at(NodeAddr(m), format!("n{m}:coll"), move |ctx| {
                    let c = attach(&ctx, NodeAddr(m), 7);
                    let r = c.allreduce(&ctx, CombOp::Sum, u64::from(m));
                    desim::lock(&results)[i] = r;
                });
            }
            let mut v = v;
            let end = v.run_all().as_ns();
            let r = desim::lock(&results).clone();
            let trace = v.merged_trace().to_json();
            (end, r, trace)
        };
        let (e1, r1, t1) = run(1);
        let (e4, r4, t4) = run(4);
        assert!(r1.iter().all(|&v| v == 66), "results {r1:?}");
        assert_eq!(r1, r4);
        assert_eq!(e1, e4);
        assert_eq!(t1, t4);
    }
}
