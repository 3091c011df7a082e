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
//! * [`REPLICAS`] — in distributed-manager mode, every server registration
//!   held by its hash-home also sits on the home's successor replica;
//! * [`IDLE_MEMORY`] — at least the expected number of owned nodes cost
//!   exactly the accountant's O(1) idle baseline.

use hpcnet::{ClusterId, LinkId, NodeAddr};

use crate::accounting;
use crate::objmgr::{self, ObjMgrMode};
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
/// Fewer nodes than expected sit at the idle-memory baseline.
pub const IDLE_MEMORY: &str = "idle-memory-baseline";

/// What one world — a whole sequential world, or one shard of a sharded
/// one — shows at quiescence for the nodes it owns. Built under one short
/// borrow of the world, so no two shard locks are ever held together.
pub struct Part {
    /// Violations this world can establish alone, by name.
    local: Vec<&'static str>,
    /// `(node, [(servers-map key, server node)])` for owned nodes that hold
    /// registrations; replica consistency is judged over all parts.
    servers: Vec<(u32, Vec<(String, u32)>)>,
    /// Endpoints in the machine, when managers are distributed by hash.
    hash_homes: Option<u64>,
    /// Largest accounted footprint of one owned node, bytes.
    pub mem_max: u64,
    /// Accounted footprint of all owned nodes, bytes.
    pub mem_total: u64,
    /// Owned nodes costing exactly [`accounting::idle_node_bytes`].
    pub mem_idle: usize,
}

/// Inspect `w` at quiescence on behalf of the nodes in `owned`.
pub fn inspect(w: &World, owned: &[NodeAddr]) -> Part {
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
    let (mut servers, mut mem_max, mut mem_total, mut mem_idle) = (Vec::new(), 0, 0, 0);
    let baseline = accounting::idle_node_bytes();
    let mut converged = true;
    for &a in owned {
        let n = w.node(a);
        converged &= n.up && n.mbr.partitioned.is_empty() && n.mbr.probing.is_empty();
        if !n.mgr.servers.is_empty() {
            let entries = n.mgr.servers.iter().map(|(k, v)| (k.clone(), v.0));
            servers.push((a.0, entries.collect()));
        }
        let b = accounting::node_mem_bytes(w, n);
        mem_max = b.max(mem_max);
        mem_total += b;
        mem_idle += usize::from(b == baseline);
    }
    if !converged {
        local.push(MEMBERSHIP);
    }
    Part {
        local,
        servers,
        hash_homes: match w.objmgr_mode {
            ObjMgrMode::Distributed => Some(w.nodes.len() as u64),
            ObjMgrMode::Centralized(_) => None,
        },
        mem_max,
        mem_total,
        mem_idle,
    }
}

/// [`inspect`] every shard of `v` for the nodes that shard owns.
pub fn inspect_shards(v: &VorxShardedSim) -> Vec<Part> {
    (0..v.n_shards())
        .map(|k| {
            let w = v.world(k);
            let owned: Vec<NodeAddr> = (0..w.nodes.len() as u32)
                .map(NodeAddr)
                .filter(|&a| w.shard.owner(a) == k)
                .collect();
            inspect(&w, &owned)
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
    if parts.iter().map(|p| p.mem_idle).sum::<usize>() < min_idle {
        v.push(IDLE_MEMORY);
    }
    v
}

/// All oracles over a sequential world, every node owned.
pub fn check(w: &World, min_idle: usize) -> Vec<&'static str> {
    let all: Vec<NodeAddr> = (0..w.nodes.len() as u32).map(NodeAddr).collect();
    violations(&[inspect(w, &all)], min_idle)
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
    let lookup = |node: u32, key: &str| {
        held()
            .find(|(at, _)| *at == node)
            .and_then(|(_, es)| es.iter().find(|(k, _)| k == key))
            .map(|(_, server)| *server)
    };
    held().all(|(node, entries)| {
        entries.iter().all(|(key, server)| {
            // The servers-map key is `<kind>\0<name>`; the hash home is a
            // function of the name alone.
            let Some(name) = key.split('\0').nth(1) else {
                return true;
            };
            let home = (objmgr::name_hash(name) % n) as u32;
            let succ = ((u64::from(home) + 1) % n) as u32;
            // A replica copy, or a one-node machine: nothing to mirror.
            home != *node || succ == home || lookup(succ, key) == Some(*server)
        })
    })
}
