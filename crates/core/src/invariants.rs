//! Quiescence oracles: what must hold of any world once it has run to idle
//! with its faults healed and every node up, whatever the workload was.
//!
//! These started life private to the chaos-soak campaign; they live here so
//! every campaign cell and every root integration test that ends healed can
//! ask the same questions. All of it is read-only and runs *after* the
//! simulation: nothing here is on the run path.
//!
//! A sequential world is inspected whole ([`check`]); a sharded one
//! ([`check_shards`]) shard by shard ([`inspect_shards`]), each shard
//! answering for the nodes it owns, because one oracle — replica consistency
//! — needs every shard's registrations side by side before it can say
//! anything ([`violations`]).
//!
//! The oracles, by the name a violation is reported under:
//!
//! * [`LINK_DEPTH_CAP`] — every port link's occupancy high-water mark is
//!   within its hardware slot cap (endpoint receive links are exempt: the
//!   cross-shard bridge deposits into them past the cap, DESIGN.md §12);
//! * [`BYTE_BUDGET`] — every switch's sheddable-byte high-water mark is
//!   within the configured store-and-forward budget;
//! * [`UNDRAINED_SWITCH`] — no switch still buffers a sheddable byte;
//! * [`MEMBERSHIP`] — every owned node is up, holds no partition mark and
//!   has no heartbeat probe in flight;
//! * [`CRASHED_OWNS_NOTHING`] — every owned node that is down owns nothing
//!   ([`World::owns_nothing`]): a crash wipes every row, and a down node's
//!   kernel takes none;
//! * [`REPLICAS`] — in distributed-manager mode, every server registration
//!   held by its hash-home also sits on the home's successor replica;
//! * [`PENDING_OPENER`] — every manager's `pending` entry holds exactly one
//!   opener, and no opener under two names: a request's token names one
//!   object;
//! * [`PENDING_SERVED`] — no manager keeps an opener waiting on a name it
//!   has a server registered for (registering connects the waiting opener);
//! * [`IDLE_OWNS_NOTHING`] — at least the expected number of owned nodes
//!   own nothing;
//! * [`QUEUE_SLOTS`] — the live channel ends' `rx` and `inflight` queues
//!   own every occupied slot of their world's slabs
//!   ([`crate::channel::ChanSlab::slots_owned`]): a crash wipe returned
//!   every slot of the ends it removed, and an ack or a wipe of the
//!   transmit state every slot of the fragments it let go.
//!
//! A node owning something is materialized, so each oracle walks the
//! materialized nodes alone: O(active nodes), not O(endpoints). The slot
//! count walks the world's live channel ends, which only such nodes hold.

use desim::FixedSet;
use hpcnet::{ClusterId, LinkId, NodeAddr};

use crate::objmgr::{self, MgrKey, ObjMgrMode};
use crate::world::{VorxShardedSim, World};

/// A port link's occupancy exceeded its slot cap.
pub const LINK_DEPTH_CAP: &str = "link-depth-cap";
/// A switch buffered more sheddable bytes than its budget allows.
pub const BYTE_BUDGET: &str = "byte-budget";
/// A switch still holds sheddable bytes at idle.
pub const UNDRAINED_SWITCH: &str = "undrained-switch";
/// A node is down, partition-marked or still probing at idle.
pub const MEMBERSHIP: &str = "membership-convergence";
/// A home manager's registration is missing from its successor replica.
pub const REPLICAS: &str = "replica-consistency";
/// A manager holds one opener under two names.
pub const PENDING_OPENER: &str = "pending-one-opener";
/// A manager keeps an opener waiting on a name it has a server for.
pub const PENDING_SERVED: &str = "pending-beside-server";
/// Fewer nodes than expected own nothing.
pub const IDLE_OWNS_NOTHING: &str = "idle-owns-nothing";
/// A down node holds a row in some world table.
pub const CRASHED_OWNS_NOTHING: &str = "crashed-owns-nothing";
/// A channel queue slot is occupied that no live end's queue holds.
pub const QUEUE_SLOTS: &str = "queue-slots-owned";

/// What one world — a whole sequential world, or one shard of a sharded
/// one — shows at quiescence for the nodes it owns. Built under one short
/// borrow of the world, so no two shard locks are ever held together.
pub struct Part {
    /// Violations this world can establish alone, by name.
    local: Vec<&'static str>,
    /// `(node, [(servers-map key, server node)])` for owned nodes that hold
    /// registrations; replica consistency is judged over all parts.
    servers: Vec<(u32, Vec<(MgrKey, u32)>)>,
    /// Endpoints in the machine, when managers are distributed by hash.
    hash_homes: Option<u64>,
    /// Owned nodes that own something, in address order, each with the
    /// rows it holds over every world table.
    pub busy: Vec<(NodeAddr, usize)>,
    /// Owned nodes that own nothing ([`World::owns_nothing`]).
    pub idle: usize,
}

/// Inspect `w` at quiescence on behalf of the nodes that pass `owned`.
fn inspect(w: &World, owned: impl Fn(NodeAddr) -> bool) -> Part {
    let mut local = Vec::new();
    let net = &w.net;
    // Hardware flow control must have held on every port link.
    if (0..net.n_links() as u32)
        .map(LinkId)
        .any(|l| !net.link_ends_at_endpoint(l) && net.link_depth_hwm(l) > net.link_cap(l))
    {
        local.push(LINK_DEPTH_CAP);
    }
    if net.max_cluster_data_bytes_hwm() > net.config().switch_byte_budget {
        local.push(BYTE_BUDGET);
    }
    if (0..net.topology().n_clusters() as u32).any(|c| net.cluster_data_bytes(ClusterId(c)) != 0) {
        local.push(UNDRAINED_SWITCH);
    }
    if !w.chan_ends.slots_owned() {
        local.push(QUEUE_SLOTS);
    }
    let rows_of = |a| w.tables().iter().map(|(_, t)| t.count(a)).sum::<usize>();
    debug_assert_eq!(
        w.nodes.touched().map(|n| rows_of(n.addr)).sum::<usize>(),
        w.tables().iter().map(|(_, t)| t.rows()).sum::<usize>(),
        "a row of a node never materialized: a write must call `node_mut` first"
    );
    let (mut servers, mut busy) = (Vec::new(), Vec::new());
    let (mut converged, mut one_opener, mut unserved) = (true, true, true);
    let mut cold = true;
    let mgr = &w.managers;
    for n in w.nodes.touched().filter(|n| owned(n.addr)) {
        let a = n.addr;
        converged &= n.up && !w.mbr.partitioned.holds(a) && !w.mbr.probing.holds(a);
        if w.owns_nothing(a) {
            continue;
        }
        cold &= n.up;
        busy.push((a, rows_of(a)));
        let openers: FixedSet<_> = mgr.pending.of(a).map(|(_, o)| o).collect();
        one_opener &= openers.len() == mgr.pending.count(a);
        unserved &= mgr.pending.of(a).all(|(k, _)| !mgr.servers.contains(a, k));
        if mgr.servers.holds(a) {
            let entries = mgr.servers.of(a).map(|(k, v)| (k.clone(), v.0));
            servers.push((a.0, entries.collect()));
        }
    }
    if !converged {
        local.push(MEMBERSHIP);
    }
    if !cold {
        local.push(CRASHED_OWNS_NOTHING);
    }
    if !one_opener {
        local.push(PENDING_OPENER);
    }
    if !unserved {
        local.push(PENDING_SERVED);
    }
    Part {
        local,
        servers,
        hash_homes: match w.objmgr_mode {
            ObjMgrMode::Distributed => Some(w.nodes.len() as u64),
            ObjMgrMode::Centralized(_) => None,
        },
        idle: (0..w.nodes.len() as u32)
            .filter(|&a| owned(NodeAddr(a)))
            .count()
            - busy.len(),
        busy,
    }
}

/// Inspect every shard of `v` for the nodes that shard owns.
pub fn inspect_shards(v: &VorxShardedSim) -> Vec<Part> {
    (0..v.n_shards())
        .map(|k| {
            let w = v.world(k);
            inspect(&w, |a| w.shard.owner(a) == k)
        })
        .collect()
}

/// Every violated oracle over the parts of one machine, by name, each at
/// most once. `min_idle` is how many nodes the workload leaves untouched
/// (0 when it makes no such promise). Empty means the machine is clean.
pub fn violations(parts: &[Part], min_idle: usize) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = Vec::new();
    for name in parts.iter().flat_map(|p| &p.local) {
        if !v.contains(name) {
            v.push(name);
        }
    }
    if !replicas_consistent(parts) {
        v.push(REPLICAS);
    }
    if parts.iter().map(|p| p.idle).sum::<usize>() < min_idle {
        v.push(IDLE_OWNS_NOTHING);
    }
    v
}

/// All oracles over a sequential world, every node owned.
pub fn check(w: &World, min_idle: usize) -> Vec<&'static str> {
    violations(&[inspect(w, |_| true)], min_idle)
}

/// All oracles over a sharded machine, each shard owning its nodes.
pub fn check_shards(v: &VorxShardedSim, min_idle: usize) -> Vec<&'static str> {
    violations(&inspect_shards(v), min_idle)
}

/// Every registration held by its hash-home must also sit on the successor
/// replica (home = hash(name) mod n, successor = the next address —
/// [`objmgr::successor_for`] in closed form, so it needs no `World`).
fn replicas_consistent(parts: &[Part]) -> bool {
    let Some(n) = parts.iter().find_map(|p| p.hash_homes) else {
        return true;
    };
    let held = || parts.iter().flat_map(|p| &p.servers);
    let lookup = |node: u32, key: &MgrKey| {
        held()
            .find(|(at, _)| *at == node)
            .and_then(|(_, es)| es.iter().find(|(k, _)| k == key))
            .map(|(_, server)| *server)
    };
    held().all(|(node, entries)| {
        entries.iter().all(|(key, server)| {
            // The hash home is a function of the name alone.
            let home = (objmgr::name_hash(&key.1) % n) as u32;
            let succ = ((u64::from(home) + 1) % n) as u32;
            // A replica copy, or a one-node machine: nothing to mirror.
            home != *node || succ == home || lookup(succ, key) == Some(*server)
        })
    })
}
