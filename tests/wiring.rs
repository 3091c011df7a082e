//! A fabric pays for the part of the machine its traffic touches: every
//! shard's fabric shares one wiring (link ends, caps, port tables) and one
//! pair of topology tables, and builds a link's state only on the first
//! write to it. An untouched link reads as idle through every accessor.

use hpc_vorx::hpcnet::driver::StandaloneNet;
use hpc_vorx::hpcnet::{ClusterId, Fabric, Frame, LinkId, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::{channel, invariants, VorxBuilder};

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

/// The 100k-endpoint world of the scale campaign, on its eight shards. Each
/// shard once held a whole-machine fabric and topology (about 450 MB of RSS for
/// the eight); now the heap the build leaves behind, topology included, is
/// bounded by what every shard must index per endpoint. Measured: 44.1 MB
/// (72.2 MB while each shard's processor pool kept a slot per endpoint,
/// 84.7 MB while each fabric also kept two per-endpoint frame tallies).
/// Run idle, the world faults in no node and every endpoint owns nothing.
#[test]
fn sharded_100k_build_holds_at_most_52_mb() {
    let before = alloc_meter::live_bytes();
    let topo = Topology::hierarchical_hypercube(&[64, 20, 20], 4).unwrap();
    assert_eq!(topo.n_endpoints(), 102_400);
    let mut v = VorxBuilder::with_topology(topo).shards(8).build_sharded(1);
    let live = alloc_meter::live_bytes() - before;
    assert_eq!(v.n_shards(), 8);
    let built: usize = (0..8).map(|k| v.world(k).net.materialized_links()).sum();
    assert_eq!(built, 0, "a build touches no link");
    let mb = live as f64 / f64::from(1 << 20);
    println!("the 8-shard 100k build holds {mb:.1} MB live");
    assert!(mb <= 52.0, "the 8-shard 100k build holds {mb:.1} MB live");

    v.run();
    let materialized = v.sum_over_shards(|w| w.nodes.touched().count() as u64);
    assert_eq!(materialized, 0, "an idle world faults in no kernel");
    let idle: usize = invariants::inspect_shards(&v).iter().map(|p| p.idle).sum();
    assert_eq!(idle, 102_400, "every endpoint owns nothing");
}

/// Every endpoint of the 1024-endpoint `[8, 16] x 8` world writes to the
/// endpoint nine addresses on (the next cluster, or the next shard at a
/// shard's edge) and reads from the one nine addresses back. A shard owns an
/// eighth of the clusters; its fabric builds state for its own endpoints'
/// links and its own cables, and bridged frames land straight in a receive
/// FIFO, so no shard builds more than a quarter of the machine's links.
#[test]
fn dense_sharded_run_builds_at_most_a_quarter_of_the_links_per_shard() {
    const MSGS: usize = 2;
    let topo = Topology::hierarchical_hypercube(&[8, 16], 8).unwrap();
    let n = topo.n_endpoints() as u32;
    assert_eq!(n, 1024);
    let mut v = VorxBuilder::with_topology(topo).shards(8).build_sharded(1);
    for a in 0..n {
        // Channel `d{a}` joins `a` to `a + 9`.
        let (me, out, back) = (
            NodeAddr(a),
            format!("d{a}"),
            format!("d{}", (a + n - 9) % n),
        );
        v.spawn_at(me, format!("n{a}:w"), move |ctx| {
            let ch = channel::open(&ctx, me, &out);
            for _ in 0..MSGS {
                ch.write(&ctx, Payload::Synthetic(64)).unwrap();
            }
        });
        v.spawn_at(me, format!("n{a}:r"), move |ctx| {
            let ch = channel::open(&ctx, me, &back);
            for _ in 0..MSGS {
                ch.read(&ctx).unwrap();
            }
        });
    }
    v.run_all();
    assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
    assert!(v.stats().msgs_bridged > 0, "the run crossed shards");
    for k in 0..v.n_shards() {
        let w = v.world(k);
        let (built, all) = (w.net.materialized_links(), w.net.n_links());
        assert!(built > 0, "shard {k} carried traffic");
        assert!(4 * built <= all, "shard {k} built {built} of {all} links");
    }
}

/// A first-touch table reads every untouched id as its template, and the
/// reads allocate nothing and build nothing.
#[test]
fn first_touch_reads_of_untouched_ids_allocate_nothing() {
    const N: usize = 1 << 16;
    let mut t = hpc_vorx::desim::FirstTouch::new(N, 7u64);
    *t.get_or_insert_with(5, || 1) = 2;
    let (sum, calls) = alloc_meter::measure(|| (0..N).map(|i| t[i]).sum::<u64>());
    assert_eq!(sum, 7 * (N as u64 - 1) + 2);
    assert_eq!((calls, t.touched_len()), (0, 1));
}

/// Reads never build state, and what they read of an untouched link is the
/// idle link: up, never occupied, never busy, empty.
#[test]
fn an_untouched_link_reads_as_idle() {
    let topo = Topology::incomplete_hypercube(4, 2).unwrap();
    let mut net = StandaloneNet::new(Fabric::new(topo, NetConfig::paper_1988()));
    let f = &net.fabric;
    assert_eq!(f.materialized_links(), 0);
    assert_eq!(f.max_port_link_depth_hwm(), 0);
    assert!((0..f.n_links() as u32).all(|l| f.link_depth_hwm(LinkId(l)) == 0));
    assert_eq!(f.materialized_links(), 0, "reads build nothing");

    // Node 0 (cluster 0) to node 3 (cluster 1): cluster 3's endpoints and
    // its cables stay untouched.
    net.send_at(
        0,
        Frame::unicast(NodeAddr(0), NodeAddr(3), 0, 0, Payload::Synthetic(100)),
    );
    net.run();
    let f = &net.fabric;
    let built = f.materialized_links();
    assert!(built > 0 && built < f.n_links());
    let untouched = [
        f.endpoint_up_link(NodeAddr(7)),
        f.endpoint_down_link(NodeAddr(6)),
        f.cluster_link(ClusterId(3), ClusterId(2)).unwrap(),
        f.cluster_link(ClusterId(2), ClusterId(3)).unwrap(),
    ];
    let report = f.link_report();
    for l in untouched {
        assert!(!f.is_link_down(l), "{l:?}");
        assert_eq!(f.link_depth_hwm(l), 0, "{l:?}");
        let (id, _, busy_ns, buffered) = &report[l.0 as usize];
        assert_eq!((*id, *busy_ns, *buffered), (l, 0, 0), "{l:?}");
    }
    // The port-side maximum comes from the links the frame crossed.
    assert_eq!(f.max_port_link_depth_hwm(), 1);
    assert_eq!(f.materialized_links(), built, "reads build nothing");
}
