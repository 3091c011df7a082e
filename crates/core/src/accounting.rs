//! Per-node memory accounting: what each simulated kernel currently keeps
//! resident, in approximate bytes.
//!
//! ROADMAP item 2 (million-endpoint worlds) needs the per-node cost of an
//! *idle* node to be a small O(1) constant: every table a node owns is
//! either empty until used or bounded by a calibration budget (DESIGN.md
//! §13). This module is the measurement side of that contract — campaign
//! bins report the accountant's numbers so a regression that makes idle
//! nodes grow shows up as a number, not an OOM three PRs later.
//!
//! The figures are approximations (container headers and allocator slack
//! are modeled as a flat per-entry overhead, a node and a channel end as
//! the fixed [`NODE_BYTES`] and [`CHAN_END_BYTES`]), but they are
//! *deterministic* approximations: the same run yields the same bytes on
//! any host layout, so they are safe to assert on in tests and campaigns.

use hpcnet::Frame;

use crate::world::{Node, World};

/// Modeled bookkeeping cost per container entry (hash-table slot or deque
/// cell plus allocator slack). Deliberately coarse: the accountant tracks
/// growth, not malloc internals.
pub const ENTRY_BYTES: u64 = 48;

/// Modeled fixed cost of a materialized node: its tables' headers, wait
/// sets and CPU model, as read from the `Node` layout when the accountant's
/// figures were pinned. The simulator's own layout may change without
/// moving any figure this module reports.
pub const NODE_BYTES: u64 = 1_056;

/// Modeled fixed cost of one channel end, read the same way from the
/// `ChanEnd` layout.
pub const CHAN_END_BYTES: u64 = 432;

fn frame_bytes<'a>(it: impl Iterator<Item = &'a Frame>) -> u64 {
    it.map(|f| u64::from(f.wire_bytes())).sum()
}

/// Approximate resident bytes of one of `w`'s nodes' kernel state: the
/// fixed [`NODE_BYTES`] plus everything its tables currently hold. An idle
/// node — booted but never communicating — pays only the fixed part.
pub fn node_mem_bytes(w: &World, node: &Node) -> u64 {
    let mut b = NODE_BYTES;
    // Transmit path: queued frames and reliably-sent control frames.
    b += frame_bytes(node.tx_q.iter()) + node.tx_q.len() as u64 * ENTRY_BYTES;
    let ctl = || w.ctl_unacked.iter().filter(|((a, _), _)| *a == node.addr);
    b += frame_bytes(ctl().map(|(_, p)| &p.frame)) + ctl().count() as u64 * ENTRY_BYTES;
    // Channels: each end reports its own buffered payloads.
    b += w.chan_ends.of(node).map(|e| e.mem_bytes()).sum::<u64>()
        + node.chans.len() as u64 * ENTRY_BYTES;
    // Open/syscall rendezvous tables.
    let opens = w.open_waits.values().filter(|(a, _)| *a == node.addr);
    b += (opens.count() + node.syscall_waits.len()) as u64 * ENTRY_BYTES;
    // Listeners and their (bounded) unaccepted-connection backlogs.
    b += node
        .listeners
        .values()
        .map(|ls| ENTRY_BYTES * (1 + ls.pending.len() as u64))
        .sum::<u64>();
    // Object-manager role state: registrations, pending opens, dedup window.
    let mgr = &node.mgr;
    b += (mgr.servers.len() + mgr.seen.len() + mgr.seen_order.len()) as u64 * ENTRY_BYTES;
    b += mgr
        .pending
        .values()
        .map(|q| ENTRY_BYTES * (1 + q.len() as u64))
        .sum::<u64>();
    // Name-resolution cache and membership sets.
    b += node.resolve.len() as u64 * ENTRY_BYTES;
    b += (node.mbr.partitioned.len() + node.mbr.probing.len()) as u64 * ENTRY_BYTES;
    // UDCOs, multicast ends, and frames parked for not-yet-created channels.
    b += (node.udcos.len() + node.mcast.len() + node.mcast_pending.len()) as u64 * ENTRY_BYTES;
    b += frame_bytes(node.orphans.iter()) + node.orphans.len() as u64 * ENTRY_BYTES;
    b
}

/// The fixed cost of a *materialized* node holding no kernel state: the
/// accountant's baseline for a node that communicated once and went quiet.
pub fn idle_node_bytes() -> u64 {
    NODE_BYTES
}

/// The cost of an endpoint that has never been touched at all: one lazy
/// [`crate::world::NodeTable`] slot (a null pointer). This — not
/// [`idle_node_bytes`] — is the per-endpoint price of *scale*: a booted
/// million-endpoint world pays `n × idle_slot_bytes()` for its kernel
/// tables until traffic actually reaches a node (DESIGN.md §14).
pub fn idle_slot_bytes() -> u64 {
    std::mem::size_of::<Option<Box<Node>>>() as u64
}

/// Documented O(1) idle budget, bytes per endpoint, for a booted world
/// that has run zero traffic: the lazy slot plus modeled allocator slack.
/// The 100k-endpoint baseline test and the scale campaign assert against
/// this number; raising it is an API-visible regression.
pub const IDLE_BYTES_PER_ENDPOINT_BUDGET: u64 = 16;

/// World-level summary: `(max single-node bytes, total bytes, idle nodes)`.
/// "Idle" counts endpoints at or below their baseline: never-touched slots
/// (costing [`idle_slot_bytes`]) and materialized-but-quiet nodes (costing
/// exactly [`idle_node_bytes`]). Walks only materialized nodes — O(active),
/// not O(endpoints).
pub fn world_mem_report(w: &World) -> (u64, u64, usize) {
    let mut max = 0u64;
    let mut total = w.nodes.len() as u64 * idle_slot_bytes();
    let mut idle = w.nodes.len() - w.nodes.materialized_count();
    for node in w.nodes.materialized() {
        let b = node_mem_bytes(w, node);
        max = max.max(b);
        total += b;
        if b == idle_node_bytes() {
            idle += 1;
        }
    }
    (max, total, idle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::open;
    use crate::world::VorxBuilder;
    use hpcnet::{NodeAddr, Payload};

    #[test]
    fn idle_nodes_cost_exactly_the_o1_baseline() {
        let mut v = VorxBuilder::single_cluster(8).build();
        // Only nodes 1 and 2 ever communicate; 0 and 3..7 stay idle.
        v.spawn("n1:w", |ctx| {
            let ch = open(&ctx, NodeAddr(1), "acct");
            ch.write(&ctx, Payload::copy_from(b"hello")).unwrap();
        });
        v.spawn("n2:r", |ctx| {
            let ch = open(&ctx, NodeAddr(2), "acct");
            let _ = ch.read(&ctx).unwrap();
        });
        v.run_all();
        let w = v.sim.world();
        let baseline = idle_node_bytes();
        for i in [0usize, 3, 4, 5, 6, 7] {
            // The object manager for "acct" lives on a hash-chosen node;
            // skip it if it landed on one of these. Nodes that were never
            // touched at all still cost only their lazy slot.
            if !w.nodes.is_materialized(i) {
                continue;
            }
            let n = &w.nodes[i];
            if n.mgr.servers.is_empty() && n.mgr.seen.is_empty() {
                assert_eq!(
                    node_mem_bytes(&w, n),
                    baseline,
                    "idle node {i} grew beyond the O(1) baseline"
                );
            }
        }
        let (max, total, idle) = world_mem_report(&w);
        assert!(max > baseline, "communicating nodes must cost more");
        assert!(total >= 8 * idle_slot_bytes());
        assert!(idle >= 5, "at most nodes 1, 2, and the manager are busy");
    }

    /// ROADMAP item 2, measured: a booted 100k-endpoint hierarchical world
    /// that runs zero traffic stays at the documented O(1) idle budget per
    /// endpoint, and no kernel is ever faulted in.
    #[test]
    fn idle_100k_world_stays_o1_per_endpoint() {
        use hpcnet::Topology;
        let topo = Topology::hierarchical_hypercube(&[64, 20, 20], 4).unwrap();
        assert_eq!(topo.n_endpoints(), 102_400);
        let mut v = VorxBuilder::with_topology(topo).trace(false).build();
        v.run();
        let w = v.sim.world();
        assert_eq!(
            w.nodes.materialized_count(),
            0,
            "an idle world must not fault in any kernel"
        );
        let (max, total, idle) = world_mem_report(&w);
        assert_eq!(max, 0, "no materialized node, no max");
        assert_eq!(idle, 102_400);
        let per_endpoint = total / w.nodes.len() as u64;
        assert!(
            per_endpoint <= IDLE_BYTES_PER_ENDPOINT_BUDGET,
            "idle world costs {per_endpoint} B/endpoint, budget is {}",
            IDLE_BYTES_PER_ENDPOINT_BUDGET
        );
    }
}
