//! Allocation accounting on the routing-recompute hot path: link churn
//! triggers [`Topology::recompute`] on every fault-plane edge event, so the
//! BFS must run entirely on scratch buffers hoisted into the `Topology` —
//! zero heap allocations per recompute, on both the reroute and the
//! heal-to-baseline paths.

use hpc_vorx::hpcnet::{ClusterId, NodeAddr, PortRef, Topology, TopologyBuilder};

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

/// Directed edge out of cluster 0 on port 0 (dimension-0 cable): killing it
/// forces real rerouting work on the paper's 10-cluster machine.
const EDGE: PortRef = PortRef {
    cluster: ClusterId(0),
    port: 0,
};

/// One full churn cycle: kill the edge, recompute (reroute path), heal it,
/// recompute (restore-baseline path).
fn churn_cycle(t: &mut Topology) {
    t.set_edge_state(EDGE, false);
    t.recompute();
    t.set_edge_state(EDGE, true);
    t.recompute();
}

/// A builder graph — a ring of five clusters, port 0 of each cabled to port
/// 1 of the next, one endpoint apiece — whose dense baseline routes 0 -> 1
/// and 0 -> 2 over [`EDGE`].
fn builder_ring() -> Topology {
    let mut b = TopologyBuilder::new();
    let cs: Vec<ClusterId> = (0..5).map(|_| b.add_cluster()).collect();
    for (i, &cluster) in cs.iter().enumerate() {
        let next = PortRef {
            cluster: cs[(i + 1) % cs.len()],
            port: 1,
        };
        b.connect(PortRef { cluster, port: 0 }, next).unwrap();
    }
    for &cluster in &cs {
        b.attach_endpoint_auto(cluster).unwrap();
    }
    b.build().unwrap()
}

/// Steady-state recomputes must not allocate at all, whichever baseline the
/// overlay sits on: the BFS port array and work queue are hoisted scratch
/// buffers sized by the first recompute, and the overlay map keeps its
/// capacity.
#[test]
fn recompute_allocates_nothing_in_steady_state() {
    for mut t in [
        Topology::incomplete_hypercube(10, 7).unwrap(),
        builder_ring(),
    ] {
        // Warm-up cycle: the first repair sizes the overlay map.
        churn_cycle(&mut t);
        let gen_before = t.generation();

        let before = alloc_meter::bytes();
        for _ in 0..32 {
            churn_cycle(&mut t);
        }
        let churn = alloc_meter::bytes() - before;

        assert_eq!(t.generation(), gen_before + 64, "64 recomputes ran");
        assert_eq!(
            churn, 0,
            "recompute allocated {churn} bytes over 64 steady-state runs; \
             the BFS must reuse the hoisted scratch buffers"
        );
    }
}

/// The zero-allocation property must not come at the price of correctness:
/// after the measured churn the tables still answer like the fault-free
/// baseline, and mid-churn the detour route is in force.
#[test]
fn scratch_reuse_preserves_routing_answers() {
    let mut t = Topology::incomplete_hypercube(10, 7).unwrap();
    let last = NodeAddr((t.n_endpoints() - 1) as u32);
    let baseline = t.cluster_path(NodeAddr(0), last);
    for _ in 0..8 {
        churn_cycle(&mut t);
    }
    assert_eq!(
        t.cluster_path(NodeAddr(0), last),
        baseline,
        "healed tables must match the construction-time baseline"
    );
    // Mid-churn: the dead dim-0 edge forces a detour but keeps delivery.
    t.set_edge_state(EDGE, false);
    t.recompute();
    let detour = t.cluster_path(NodeAddr(0), NodeAddr(last.0));
    assert!(t.reachable(ClusterId(0), t.cluster_of(last)));
    assert!(
        detour.len() >= baseline.len(),
        "detour cannot be shorter than the baseline route"
    );
    t.set_edge_state(EDGE, true);
    t.recompute();
}

/// On the hierarchical representation a full heal is an overlay clear:
/// O(1), and — the regression this test pins — zero heap allocation per
/// heal. The detour overlay exists only while edges are dead.
#[test]
fn hier_heal_is_overlay_clear_and_allocation_free() {
    let mut t = Topology::hierarchical_hypercube(&[8, 8], 4).unwrap();
    // Warm-up cycle: the first detour repair may grow the overlay map.
    churn_cycle(&mut t);
    assert_eq!(t.overlay_len(), 0, "healed topology must carry no overlay");

    for i in 0..32 {
        t.set_edge_state(EDGE, false);
        t.recompute();
        assert!(t.overlay_len() > 0, "dead edge must install detours");

        t.set_edge_state(EDGE, true);
        let before = alloc_meter::bytes();
        t.recompute();
        let heal = alloc_meter::bytes() - before;
        assert_eq!(heal, 0, "heal #{i} allocated {heal} bytes");
        assert_eq!(t.overlay_len(), 0, "heal must clear the overlay");
    }
}

/// A clone — each shard of a sharded world takes one — shares the cluster
/// and endpoint tables: a 100k-endpoint world clones for the same few bytes
/// as a 1k one (the level and gateway tables of its hierarchy).
#[test]
fn topology_clone_allocates_nothing_proportional_to_endpoints() {
    let clone_bytes = |t: &Topology| {
        let before = alloc_meter::bytes();
        let c = t.clone();
        let used = alloc_meter::bytes() - before;
        drop(c);
        used
    };
    let small = Topology::hierarchical_hypercube(&[8, 16], 8).unwrap();
    let big = Topology::hierarchical_hypercube(&[64, 20, 20], 4).unwrap();
    assert_eq!(big.n_endpoints(), 102_400);
    let (s, b) = (clone_bytes(&small), clone_bytes(&big));
    assert!(
        s <= 256 && b <= 256,
        "clones took {s} B (1k) and {b} B (100k)"
    );
}

/// `cluster_path_into` with a reused buffer answers identically to the
/// allocating `cluster_path` and performs zero allocations in steady state
/// — baseline routes and overlay detours alike. This is the variant the
/// fabric's combining set-up walks per group member.
#[test]
fn cluster_path_into_reuses_buffer_without_allocating() {
    let mut t = Topology::hierarchical_hypercube(&[8, 8], 4).unwrap();
    let n = t.n_endpoints() as u32;
    let pairs: Vec<(NodeAddr, NodeAddr)> = (0..16)
        .map(|i| (NodeAddr(i * 17 % n), NodeAddr((i * 97 + 13) % n)))
        .collect();

    // Expected answers from the allocating variant, on the fault-free
    // tables and again mid-churn, gathered outside the metered region.
    let expect_base: Vec<_> = pairs.iter().map(|&(a, b)| t.cluster_path(a, b)).collect();
    t.set_edge_state(EDGE, false);
    t.recompute();
    let expect_churn: Vec<_> = pairs.iter().map(|&(a, b)| t.cluster_path(a, b)).collect();
    t.set_edge_state(EDGE, true);
    t.recompute();

    // Warm the buffer to the longest path this topology can answer.
    let mut path = Vec::with_capacity(t.n_clusters() + 1);

    let before = alloc_meter::bytes();
    for (&(a, b), want) in pairs.iter().zip(&expect_base) {
        assert!(t.cluster_path_into(a, b, &mut path));
        assert_eq!(&path, want);
    }
    t.set_edge_state(EDGE, false);
    t.recompute();
    for (&(a, b), want) in pairs.iter().zip(&expect_churn) {
        assert!(t.cluster_path_into(a, b, &mut path));
        assert_eq!(&path, want);
    }
    t.set_edge_state(EDGE, true);
    t.recompute();
    let used = alloc_meter::bytes() - before;
    assert_eq!(
        used, 0,
        "cluster_path_into allocated {used} bytes with a reused buffer"
    );
}
