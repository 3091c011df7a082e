//! Live-topology routing properties: the BFS `recompute` over surviving
//! inter-cluster edges must agree with an independent ground-truth
//! reachability computation, and every route it serves must be loop-free,
//! alive edge by edge, and shortest.
//!
//! These run on *incomplete* hypercubes (the paper's §2 configuration), on
//! hierarchies of them, and on arbitrary `TopologyBuilder` graphs, with
//! arbitrary subsets of directed edges marked dead — including splits,
//! one-way cuts, and fully severed fabrics.

use std::collections::{BTreeSet, VecDeque};

use hpc_vorx::hpcnet::{
    Attachment, ClusterId, NodeAddr, PortRef, Topology, TopologyBuilder, PORTS_PER_CLUSTER,
};

use proptest::prelude::*;

/// All directed inter-cluster edges of `t`, as `(from_port, to_cluster)`.
fn edges(t: &Topology) -> Vec<(PortRef, ClusterId)> {
    let mut out = Vec::new();
    for c in 0..t.n_clusters() as u32 {
        for port in 0..PORTS_PER_CLUSTER as u8 {
            let p = PortRef {
                cluster: ClusterId(c),
                port,
            };
            if let Attachment::Cluster(peer) = t.attachment(p) {
                out.push((p, peer.cluster));
            }
        }
    }
    out
}

/// Ground-truth directed reachability by BFS over the surviving edge set,
/// computed independently of the topology's own tables.
fn bfs_reachable(
    n_clusters: usize,
    alive: &BTreeSet<(u32, u32)>,
    from: ClusterId,
) -> BTreeSet<u32> {
    let mut seen = BTreeSet::from([from.0]);
    let mut q = VecDeque::from([from.0]);
    while let Some(c) = q.pop_front() {
        for next in 0..n_clusters as u32 {
            if alive.contains(&(c, next)) && seen.insert(next) {
                q.push_back(next);
            }
        }
    }
    seen
}

/// Ground-truth shortest-path distances (in inter-cluster hops) from `from`
/// over the surviving edge set; `usize::MAX` marks unreachable clusters.
fn bfs_dist(n_clusters: usize, alive: &BTreeSet<(u32, u32)>, from: ClusterId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; n_clusters];
    dist[from.0 as usize] = 0;
    let mut q = VecDeque::from([from.0]);
    while let Some(c) = q.pop_front() {
        for next in 0..n_clusters as u32 {
            if alive.contains(&(c, next)) && dist[next as usize] == usize::MAX {
                dist[next as usize] = dist[c as usize] + 1;
                q.push_back(next);
            }
        }
    }
    dist
}

/// Follow the `route` answers from cluster `src` toward `dst_ep` like a frame
/// would: every next hop must be a live cable, and no cluster may come up
/// twice. Returns the hops walked, `None` where some cluster has no route.
fn walk_route(
    t: &Topology,
    dead_ports: &BTreeSet<(u32, u8)>,
    src: u32,
    dst_ep: NodeAddr,
) -> Result<Option<usize>, String> {
    let dst = t.cluster_of(dst_ep).0;
    let mut here = src;
    let mut visited = BTreeSet::from([src]);
    while here != dst {
        let port = t.route(ClusterId(here), dst_ep);
        if port == u8::MAX {
            return Ok(None);
        }
        prop_assert!(
            !dead_ports.contains(&(here, port)),
            "next-hop {}:{} toward {} is a dead edge",
            here,
            port,
            dst
        );
        let cluster = ClusterId(here);
        let att = t.attachment(PortRef { cluster, port });
        let Attachment::Cluster(peer) = att else {
            return Err(format!(
                "next-hop {here}:{port} toward {dst} is not a cluster link: {att:?}"
            ));
        };
        here = peer.cluster.0;
        prop_assert!(
            visited.insert(here),
            "route {} -> {} revisits cluster {}",
            src,
            dst,
            here
        );
    }
    Ok(Some(visited.len() - 1))
}

/// One cable of a random builder graph: the two clusters (reduced modulo
/// what exists when it is wired) and the port each side would like.
type Cable = (usize, usize, u8, u8);

/// The port endpoints sit on; cables use the eleven below it.
const ENDPOINT_PORT: u8 = PORTS_PER_CLUSTER as u8 - 1;

/// A connected builder graph of `n` clusters: cluster `c > 0` hangs off an
/// earlier one (`tree[c - 1]`, a spanning tree — eleven ports always
/// suffice), then every `extra` cable that still finds a free port on both
/// sides; repeats of a pair are parallel cables. A side takes the first free
/// port at or after the one it asked for, so port order and wiring order
/// differ. Endpoint `c` sits on cluster `c`.
fn builder_graph(n: usize, tree: &[Cable], extra: &[Cable]) -> Topology {
    let mut b = TopologyBuilder::new();
    let cs: Vec<ClusterId> = (0..n).map(|_| b.add_cluster()).collect();
    let mut used = vec![[false; ENDPOINT_PORT as usize]; n];
    let mut take = |c: usize, want: u8| {
        let port = (0..ENDPOINT_PORT)
            .map(|i| (want + i) % ENDPOINT_PORT)
            .find(|&p| !used[c][p as usize])?;
        used[c][port as usize] = true;
        Some(PortRef {
            cluster: cs[c],
            port,
        })
    };
    let tree = (1..n).map(|c| (tree[c - 1].0 % c, c, tree[c - 1].2, tree[c - 1].3));
    let extra = extra.iter().map(|&(a, z, pa, pz)| (a % n, z % n, pa, pz));
    for (a, z, pa, pz) in tree.chain(extra).filter(|&(a, z, ..)| a != z) {
        if let (Some(a), Some(z)) = (take(a, pa), take(z, pz)) {
            b.connect(a, z).unwrap();
        }
    }
    for &cluster in &cs {
        b.attach_endpoint(PortRef {
            cluster,
            port: ENDPOINT_PORT,
        })
        .unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Builder graphs route by the same baseline-plus-overlay scheme as the
    /// hypercubes, their baseline being a BFS table. On random connected
    /// graphs with parallel cables and arbitrary dead-edge sets: every
    /// `route` answer equals the dense BFS over the surviving edges
    /// (`u8::MAX` for severed pairs included), following the answers never
    /// takes a dead port or revisits a cluster and arrives in exactly the
    /// ground-truth shortest distance, and a full heal empties the overlay
    /// and restores the as-built routes.
    #[test]
    fn builder_graphs_reroute_like_dense_bfs_and_heal_to_baseline(
        n_clusters in 2usize..13,
        tree in proptest::collection::vec((0usize..12, 0usize..12, 0u8..11, 0u8..11), 11..12),
        extra in proptest::collection::vec((0usize..12, 0usize..12, 0u8..11, 0u8..11), 0..16),
        dead_draw in proptest::collection::vec(0u8..4, 0..80),
    ) {
        let pristine = builder_graph(n_clusters, &tree, &extra);
        let mut t = pristine.clone();
        let all = edges(&t);
        let mut alive: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut dead_ports: BTreeSet<(u32, u8)> = BTreeSet::new();
        for (i, (p, to)) in all.iter().enumerate() {
            if dead_draw.get(i) == Some(&0) {
                t.set_edge_state(*p, false);
                dead_ports.insert((p.cluster.0, p.port));
            } else {
                alive.insert((p.cluster.0, to.0));
            }
        }
        t.recompute();

        let mut dense = Vec::new();
        t.dense_bfs_into(&mut dense);
        for src in 0..n_clusters as u32 {
            let dist = bfs_dist(n_clusters, &alive, ClusterId(src));
            for dst in (0..n_clusters as u32).filter(|&d| d != src) {
                prop_assert_eq!(
                    t.route(ClusterId(src), NodeAddr(dst)),
                    dense[src as usize][dst as usize],
                    "route({}, {}) is not the dense BFS answer", src, dst
                );
                let walked = walk_route(&t, &dead_ports, src, NodeAddr(dst))?;
                let truth = Some(dist[dst as usize]).filter(|&d| d != usize::MAX);
                prop_assert_eq!(walked, truth, "walk {} -> {} vs BFS distance", src, dst);
                prop_assert_eq!(t.reachable(ClusterId(src), ClusterId(dst)), truth.is_some());
            }
        }

        for (p, _) in &all {
            t.set_edge_state(*p, true);
        }
        t.recompute();
        prop_assert_eq!(t.overlay_len(), 0);
        for src in 0..n_clusters as u32 {
            for dst in 0..n_clusters as u32 {
                prop_assert_eq!(
                    t.route(ClusterId(src), NodeAddr(dst)),
                    pristine.route(ClusterId(src), NodeAddr(dst)),
                    "healed route({}, {}) is not the as-built one", src, dst
                );
            }
        }
    }

    /// Kill an arbitrary subset of directed inter-cluster edges, recompute,
    /// and check every ordered endpoint pair: the tables must serve a route
    /// exactly when ground-truth BFS says one exists, and the served path
    /// must start/end correctly, never repeat a cluster (loop-free), and
    /// use only surviving edges.
    #[test]
    fn surviving_pairs_always_get_live_loop_free_routes(
        n_clusters in 2usize..9,
        dead_mask in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut t = Topology::incomplete_hypercube(n_clusters, 1).unwrap();
        let all = edges(&t);
        let mut alive: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (i, (p, to)) in all.iter().enumerate() {
            let dead = *dead_mask.get(i).unwrap_or(&false);
            if dead {
                t.set_edge_state(*p, false);
            } else {
                alive.insert((p.cluster.0, to.0));
            }
        }
        t.recompute();

        let mut path = Vec::new();
        for src in 0..n_clusters as u32 {
            let truth = bfs_reachable(n_clusters, &alive, ClusterId(src));
            for dst in 0..n_clusters as u32 {
                let (a, b) = (NodeAddr(src), NodeAddr(dst));
                prop_assert_eq!(
                    t.reachable(ClusterId(src), ClusterId(dst)),
                    truth.contains(&dst),
                    "reachable({}, {}) disagrees with ground truth", src, dst
                );
                match t.cluster_path_into(a, b, &mut path) {
                    false => prop_assert!(
                        !truth.contains(&dst),
                        "no route served for a reachable pair {} -> {}", src, dst
                    ),
                    true => {
                        prop_assert!(truth.contains(&dst));
                        prop_assert_eq!(path[0].0, src);
                        prop_assert_eq!(path[path.len() - 1].0, dst);
                        let distinct: BTreeSet<u32> =
                            path.iter().map(|c| c.0).collect();
                        prop_assert_eq!(
                            distinct.len(), path.len(),
                            "route {:?} revisits a cluster", path
                        );
                        for hop in path.windows(2) {
                            prop_assert!(
                                alive.contains(&(hop[0].0, hop[1].0)),
                                "route {:?} crosses the dead edge {}->{}",
                                path, hop[0].0, hop[1].0
                            );
                        }
                    }
                }
            }
        }
    }

    /// Implicit hierarchical routing ≡ BFS ground truth. On random small
    /// hierarchies (≤64 clusters, 1–3 levels) with arbitrary dead-edge
    /// sets, walk the served next-hops port by port and check, for every
    /// ordered cluster pair, that (a) `reachable` agrees with ground-truth
    /// BFS, (b) every next-hop port is alive and attached to a cluster
    /// link, (c) the walk never revisits a cluster (loop-free), and (d) on
    /// single-level topologies — where routing promises shortest paths —
    /// the walked length equals the BFS distance over surviving edges.
    /// Multi-level routes funnel through gateway clusters, so their length
    /// is the hierarchical scheme's cost, deliberately not the flat-graph
    /// optimum; BFS still lower-bounds it.
    #[test]
    fn hierarchical_routing_matches_bfs_ground_truth(
        levels in proptest::collection::vec(2usize..5, 1..4),
        eps in 1usize..3,
        dead_mask in proptest::collection::vec(any::<bool>(), 0..256),
    ) {
        let mut t = Topology::hierarchical_hypercube(&levels, eps).unwrap();
        let n_clusters = t.n_clusters();
        let all = edges(&t);
        let mut alive: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut dead_ports: BTreeSet<(u32, u8)> = BTreeSet::new();
        for (i, (p, to)) in all.iter().enumerate() {
            if *dead_mask.get(i).unwrap_or(&false) {
                t.set_edge_state(*p, false);
                dead_ports.insert((p.cluster.0, p.port));
            } else {
                alive.insert((p.cluster.0, to.0));
            }
        }
        t.recompute();

        for src in 0..n_clusters as u32 {
            let dist = bfs_dist(n_clusters, &alive, ClusterId(src));
            for dst in 0..n_clusters as u32 {
                let dst_ep = NodeAddr(dst * eps as u32);
                let truth = dist[dst as usize] != usize::MAX;
                prop_assert_eq!(
                    t.reachable(ClusterId(src), ClusterId(dst)),
                    truth,
                    "reachable({}, {}) disagrees with ground truth", src, dst
                );
                let walked = walk_route(&t, &dead_ports, src, dst_ep)?;
                let delivered = walked.is_some();
                prop_assert_eq!(
                    delivered, truth,
                    "route served for {} -> {} iff BFS connects them", src, dst
                );
                if let Some(steps) = walked {
                    prop_assert!(
                        steps >= dist[dst as usize],
                        "walk {} -> {} beat the BFS lower bound", src, dst
                    );
                    if levels.len() == 1 {
                        prop_assert_eq!(
                            steps, dist[dst as usize],
                            "walked path {} -> {} is not shortest", src, dst
                        );
                    }
                }
            }
        }
    }

    /// Healing every dead edge restores the fault-free baseline routes
    /// verbatim: the recomputed path equals the pristine topology's path
    /// for every pair.
    #[test]
    fn full_heal_restores_baseline_routes(
        n_clusters in 2usize..9,
        dead_mask in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let pristine = Topology::incomplete_hypercube(n_clusters, 1).unwrap();
        let mut t = Topology::incomplete_hypercube(n_clusters, 1).unwrap();
        let all = edges(&t);
        for (i, (p, _)) in all.iter().enumerate() {
            if *dead_mask.get(i).unwrap_or(&false) {
                t.set_edge_state(*p, false);
            }
        }
        t.recompute();
        for (p, _) in &all {
            t.set_edge_state(*p, true);
        }
        t.recompute();
        for src in 0..n_clusters as u32 {
            for dst in 0..n_clusters as u32 {
                let (a, b) = (NodeAddr(src), NodeAddr(dst));
                prop_assert_eq!(
                    t.cluster_path(a, b),
                    pristine.cluster_path(a, b),
                    "healed tables must match the baseline verbatim"
                );
                prop_assert_eq!(t.hops(a, b), pristine.hops(a, b));
            }
        }
    }
}
