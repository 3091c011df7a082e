//! Grant-order goldens for `hpcnet::Fabric` arbitration.
//!
//! Six seeded [`StandaloneNet`] scenarios, each hashing the full delivered
//! sequence `(t, endpoint, src, seq, len)` plus [`Stats`] and the driver's
//! shed count. The hashes were printed by the pass-based rescan arbiter this
//! file was committed ahead of (`progress` as of PR 20: every pass visits the
//! pending endpoints ascending, then cluster ascending × port 0..12); the
//! worklist arbiter must start the same transmissions in the same order, so
//! every same-instant event keeps its sequence number and the hashes stay
//! equal — to the bit, not within a tolerance. When `Stats` lost its
//! per-endpoint frame tallies, the digest stopped hashing them, and the six
//! literals were recomputed with the new digest on the fabric just before
//! the tallies went.
//!
//! The two multicast scenarios run again with every target list descending,
//! then shuffled: the fabric re-lists a multicast in its tree's order, so a
//! list's order is unobservable and the hashes must not move. One more
//! scenario cuts a cable under buffered multicasts and checks every delivery
//! instead of a hash.
//!
//! The work counters ([`Fabric::work`]) are asserted on the unicast scenario:
//! a frame is routed once per cluster it crosses, and a grant costs a bounded
//! number of worklist visits.
//!
//! The S/NET simulator's event order is pinned the same way, by four runs of
//! §2's recovery strategies (`snet_order`): it shares `desim::queue` with the
//! fabric driver, and a changed hash means same-instant events moved.

use hpc_vorx::desim::rng::SplitMix64;
use hpc_vorx::hpcnet::combine::{self, CombOp};
use hpc_vorx::hpcnet::driver::StandaloneNet;
use std::cell::RefCell;
use std::rc::Rc;

use hpc_vorx::hpcnet::config::serialize_ns;
use hpc_vorx::hpcnet::{
    ClusterId, Dest, Fabric, FaultHook, Frame, LinkId, NetConfig, NodeAddr, Payload, Stats,
    Topology, Transit,
};
use snet::{SnetReport, SnetSim, Strategy};

const CLUSTERS: usize = 16;
const PER_CLUSTER: usize = 4;
const ENDPOINTS: u32 = (CLUSTERS * PER_CLUSTER) as u32;
/// Injection interval: one frame every 2 µs over 64 sources is several times
/// what the fabric drains, so every transmitter backs up.
const GAP_NS: u64 = 2_000;
/// The sheddable data kind of every scenario's background traffic.
const DATA: u16 = 9;
/// The combining kind of the collective scenario.
const COMB: u16 = 30;

fn hypercube(cfg: NetConfig) -> Fabric {
    Fabric::new(
        Topology::incomplete_hypercube(CLUSTERS, PER_CLUSTER).unwrap(),
        cfg,
    )
}

/// How a multicast's source lists its targets. The fabric re-lists a head
/// in its multicast tree's order where the targets do not form one run per
/// output port, so the order is unobservable: every order must give the
/// digest of the ascending one.
#[derive(Clone, Copy, Debug)]
enum ListOrder {
    Ascending,
    Descending,
    /// Shuffled by a generator of this seed, apart from the scenario's own.
    Shuffled(u64),
}

const LIST_ORDERS: [ListOrder; 3] = [
    ListOrder::Ascending,
    ListOrder::Descending,
    ListOrder::Shuffled(0x5EED),
];

/// Every endpoint but `src`, listed in `order` (`shuffle` draws for
/// [`ListOrder::Shuffled`]).
fn others(src: u32, order: ListOrder, shuffle: &mut SplitMix64) -> Dest {
    let mut list: Vec<_> = (0..ENDPOINTS).filter(|&a| a != src).map(NodeAddr).collect();
    match order {
        ListOrder::Ascending => {}
        ListOrder::Descending => list.reverse(),
        ListOrder::Shuffled(_) => {
            for i in (1..list.len()).rev() {
                list.swap(i, (shuffle.next_u64() % (i as u64 + 1)) as usize);
            }
        }
    }
    Dest::Multicast(list.into())
}

/// `frames` injections one every [`GAP_NS`], sources round-robin,
/// destinations and sizes drawn from `seed` (a SplitMix64 word modulo the
/// range: the scenarios' only randomness); every `mcast_every`-th (0:
/// never) is a 512-byte multicast to every other endpoint, its targets
/// listed in `order`. `hot` draws one destination in four from that
/// endpoint's cluster, so its ports back up.
fn load(
    net: &mut StandaloneNet,
    seed: u64,
    frames: u32,
    mcast_every: u32,
    order: ListOrder,
    hot: Option<u32>,
) {
    let mut rng = SplitMix64::new(seed);
    let mut shuffle = SplitMix64::new(match order {
        ListOrder::Shuffled(s) => s,
        _ => 0,
    });
    for i in 0..frames {
        let src = i % ENDPOINTS;
        let dst = if mcast_every != 0 && i % mcast_every == mcast_every - 1 {
            others(src, order, &mut shuffle)
        } else {
            let mut d = match hot {
                Some(h) if rng.next_u64().is_multiple_of(4) => {
                    h - h % 4 + (rng.next_u64() % 4) as u32
                }
                _ => (rng.next_u64() % u64::from(ENDPOINTS)) as u32,
            };
            if d == src {
                d = (d + 1) % ENDPOINTS;
            }
            Dest::Unicast(NodeAddr(d))
        };
        let len = match dst {
            Dest::Multicast(_) => 512,
            Dest::Unicast(_) => 16 + (rng.next_u64() % 1009) as u32,
        };
        net.send_at(
            u64::from(i) * GAP_NS,
            Frame {
                src: NodeAddr(src),
                dst,
                kind: DATA,
                seq: u64::from(i),
                payload: Payload::Synthetic(len),
                corrupted: false,
            },
        );
    }
}

/// FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The scenario's whole observable outcome as one number.
fn digest(net: &StandaloneNet) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(net.delivered.len() as u64);
    for (t, at, f) in &net.delivered {
        h.word(*t);
        h.word(u64::from(at.0));
        h.word(u64::from(f.src.0));
        h.word(f.seq);
        h.word(u64::from(f.payload.len()));
        h.word(u64::from(f.kind) | u64::from(f.corrupted) << 16);
    }
    let Stats {
        frames_delivered,
        payload_bytes_delivered,
        frames_sent,
        frames_dropped,
        frames_corrupted,
        frames_rerouted,
        frames_shed,
        frames_combined,
        comb_flushes,
    } = &net.fabric.stats;
    for w in [
        frames_delivered,
        payload_bytes_delivered,
        frames_sent,
        frames_dropped,
        frames_corrupted,
        frames_rerouted,
        frames_shed,
        frames_combined,
        comb_flushes,
    ] {
        h.word(*w);
    }
    h.word(net.waiting_dropped);
    h.word(net.now());
    h.word(net.fabric.in_flight() as u64);
    h.0
}

#[track_caller]
fn assert_golden(name: &str, net: &StandaloneNet, want: u64) {
    let got = digest(net);
    assert_eq!(
        got,
        want,
        "{name}: digest {got:#018x}, the rescan arbiter printed {want:#018x} \
         ({} delivered, stats {:?})",
        net.delivered.len(),
        net.fabric.stats
    );
}

/// Both directed links of the cable between clusters `a` and `b`.
fn cable(f: &Fabric, a: u32, b: u32) -> [LinkId; 2] {
    [
        f.cluster_link(ClusterId(a), ClusterId(b)).unwrap(),
        f.cluster_link(ClusterId(b), ClusterId(a)).unwrap(),
    ]
}

fn sat_unicast() -> StandaloneNet {
    let mut net = StandaloneNet::new(hypercube(NetConfig::paper_1988()));
    load(&mut net, 1, 2_000, 0, ListOrder::Ascending, None);
    net.run();
    net
}

#[test]
fn saturated_unicast() {
    let net = sat_unicast();
    assert_eq!(net.fabric.stats.frames_delivered, 2_000);
    assert_golden("saturated_unicast", &net, 0x1cf2_8b32_fe45_2bc4);
}

/// Every 65th frame a 63-target multicast, its targets listed in each
/// [`ListOrder`] in turn.
#[test]
fn saturated_with_multicast() {
    for order in LIST_ORDERS {
        let mut net = StandaloneNet::new(hypercube(NetConfig::paper_1988()));
        load(&mut net, 2, 2_000, ENDPOINTS + 1, order, None);
        net.run();
        assert!(net.fabric.stats.frames_delivered > 2_000 + 29 * 62);
        let name = format!("saturated_with_multicast, {order:?} lists");
        assert_golden(&name, &net, 0xfdd9_8f30_8888_cfd5);
    }
}

/// Cluster 5 loses all four of its cables while every buffer is loaded:
/// heads bound for it (and the targets of multicast heads inside it) must be
/// purged, heads it was a waypoint for must reroute. Then one cable of
/// cluster 10 is cut on top, the first cut heals, and the rest heals. Run
/// with the multicasts' targets listed in each [`ListOrder`] in turn.
#[test]
fn cable_cut_and_heal_mid_run() {
    for order in LIST_ORDERS {
        let net = cut_and_heal(order);
        let st = &net.fabric.stats;
        assert!(st.frames_dropped > 0, "unroutable heads were purged");
        assert!(st.frames_rerouted > 0, "buffered heads rerouted");
        assert_eq!(net.fabric.topology().overlay_len(), 0, "fully healed");
        let name = format!("cable_cut_and_heal_mid_run, {order:?} lists");
        assert_golden(&name, &net, 0x1f2f_9bcb_9d23_1e2e);
    }
}

fn cut_and_heal(order: ListOrder) -> StandaloneNet {
    let mut net = StandaloneNet::new(hypercube(NetConfig::paper_1988()));
    load(&mut net, 3, 2_400, 31, order, Some(21));
    let island: Vec<_> = [4, 7, 1, 13]
        .into_iter()
        .flat_map(|peer| cable(&net.fabric, 5, peer))
        .collect();
    let extra = cable(&net.fabric, 10, 8);
    net.run_until(900_000);
    assert!(
        net.fabric.in_flight() > 64,
        "the cut must find loaded buffers"
    );
    for &l in &island {
        net.apply(|f, out| f.set_link_down(900_000, l, true, out));
    }
    net.run_until(1_700_000);
    for &l in &extra {
        net.apply(|f, out| f.set_link_down(1_700_000, l, true, out));
    }
    net.run_until(2_600_000);
    for &l in &island {
        net.apply(|f, out| f.set_link_down(2_600_000, l, false, out));
    }
    net.run_until(3_400_000);
    for &l in &extra {
        net.apply(|f, out| f.set_link_down(3_400_000, l, false, out));
    }
    net.run();
    net
}

/// Records, for every frame that arrives on one of `watch`, the span from
/// the start of its transmission to its arrival.
struct InFlight {
    watch: [LinkId; 2],
    spans: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl FaultHook for InFlight {
    fn on_transit(&mut self, link: LinkId, frame: &Frame, now_ns: u64, hop_ns: u64) -> Transit {
        if self.watch.contains(&link) {
            let start = now_ns - hop_ns - serialize_ns(frame.wire_bytes());
            self.spans.borrow_mut().push((start, now_ns));
        }
        Transit::Deliver
    }
}

/// One cable cut while multicast heads wait mid-tree, never healed: every
/// buffered head reroutes, and the multicast heads whose targets no longer
/// form one run per port are re-listed. No cluster is cut off, and the cut
/// falls where neither direction of the cable carries a frame (found by an
/// uncut run of the same load), so nothing is lost: every target of every
/// frame must be delivered exactly once. (Under this saturation many
/// single-cable cuts leave frames wedged for good; this cable under this
/// load does not.)
#[test]
fn cable_cut_under_buffered_multicast_delivers_every_target_once() {
    const FRAMES: u32 = 1_600;
    const MCAST_EVERY: u32 = 13;
    let fresh = |spans: &Rc<RefCell<_>>| {
        let fab = hypercube(NetConfig::paper_1988());
        let watch = cable(&fab, 2, 6);
        let hook = InFlight {
            watch,
            spans: Rc::clone(spans),
        };
        let mut net = StandaloneNet::new(fab).with_faults(Box::new(hook));
        load(&mut net, 7, FRAMES, MCAST_EVERY, ListOrder::Ascending, None);
        (net, watch)
    };
    let spans = Rc::new(RefCell::new(Vec::new()));
    let (mut probe, _) = fresh(&spans);
    probe.run();
    // The first arrival from 600 µs on after which no frame is on the cable.
    let spans = spans.take();
    let idle = |t: u64| !spans.iter().any(|&(s, a)| s <= t && t < a);
    let cut = spans
        .iter()
        .map(|&(_, a)| a)
        .filter(|&a| a >= 600_000 && idle(a))
        .min();
    let cut = cut.expect("the cable idles between transmissions");

    let (mut net, watch) = fresh(&Rc::new(RefCell::new(Vec::new())));
    net.run_until(cut);
    assert!(
        net.fabric.in_flight() > 64,
        "the cut must find loaded buffers"
    );
    let before = net.fabric.work().relists;
    for l in watch {
        net.apply(|f, out| f.set_link_down(cut, l, true, out));
    }
    let relisted = net.fabric.work().relists - before;
    assert!(
        relisted > 0,
        "no buffered multicast head was re-listed by the re-route"
    );
    net.run();
    let st = &net.fabric.stats;
    assert_eq!(st.frames_dropped, 0, "a frame was lost at the cut");
    assert!(st.frames_rerouted > 0, "buffered heads rerouted");
    // Each (frame, endpoint) once: a unicast's one target, a multicast's 63.
    let mut got: Vec<(u64, u32)> = net
        .delivered
        .iter()
        .map(|(_, at, f)| (f.seq, at.0))
        .collect();
    got.sort_unstable();
    let frames = got.chunk_by(|a, b| a.0 == b.0);
    assert_eq!(
        frames.clone().count(),
        FRAMES as usize,
        "a frame was never delivered"
    );
    for (i, copies) in (0..FRAMES).zip(frames) {
        let at: Vec<u32> = copies.iter().map(|&(_, at)| at).collect();
        if i % MCAST_EVERY == MCAST_EVERY - 1 {
            let others: Vec<u32> = (0..ENDPOINTS).filter(|&a| a != i % ENDPOINTS).collect();
            assert_eq!(
                at, others,
                "multicast {i}: a target missed or delivered twice"
            );
        } else {
            assert_eq!(at.len(), 1, "unicast {i} delivered {} times", at.len());
        }
    }
}

/// A quarter of the traffic converges on cluster 9, so the senders' output
/// registers stay loaded; three of them crash mid-run (one inside the hot
/// cluster, with a full receive FIFO path behind it) and one restarts.
#[test]
fn endpoint_crash_with_loaded_output_register() {
    let mut net = StandaloneNet::new(hypercube(NetConfig::paper_1988()));
    load(&mut net, 4, 2_400, 0, ListOrder::Ascending, Some(37));
    net.crash_at(700_000, NodeAddr(3));
    net.crash_at(700_000, NodeAddr(38));
    net.crash_at(1_100_000, NodeAddr(50));
    net.run_until(700_000);
    assert!(
        net.fabric.stats.frames_dropped > 0,
        "a crash found a loaded register or FIFO"
    );
    net.run_until(2_000_000);
    net.apply(|f, out| f.set_endpoint_down(2_000_000, NodeAddr(38), false, out));
    // `run_inner`: the two endpoints that stay dead keep their later
    // injections queued in the driver forever.
    net.run_inner();
    assert_eq!(net.fabric.in_flight(), 0);
    assert_golden(
        "endpoint_crash_with_loaded_output_register",
        &net,
        0x1e92_08f0_316c_fc4b,
    );
}

/// A registered combining group: four rounds of 64 contributions toward the
/// root, merging at every star coupler on the way, under background load.
#[test]
fn registered_combining_group() {
    let mut fab = hypercube(NetConfig::paper_1988());
    let members: Vec<NodeAddr> = (0..ENDPOINTS).map(NodeAddr).collect();
    let root = NodeAddr(22);
    fab.comb_register_group(5, COMB, &members, root, ENDPOINTS);
    let mut net = StandaloneNet::new(fab);
    load(&mut net, 5, 1_200, 0, ListOrder::Ascending, None);
    let mut rng = SplitMix64::new(55);
    for round in 0..4u32 {
        let seq = combine::enc_seq(5, round, 0);
        for m in 0..ENDPOINTS {
            // Stragglers: a few members contribute after the window closed.
            let late = if rng.next_u64().is_multiple_of(8) {
                45_000
            } else {
                0
            };
            net.send_at(
                u64::from(round) * 400_000 + rng.next_u64() % 3_000 + late,
                Frame::unicast(
                    NodeAddr(m),
                    root,
                    COMB,
                    seq,
                    combine::pack(CombOp::Sum, u64::from(m + round), 1),
                ),
            );
        }
    }
    net.run();
    assert!(net.fabric.stats.frames_combined > 100);
    assert_eq!(net.fabric.comb_entries_live(), 0);
    assert_golden("registered_combining_group", &net, 0xf992_6421_003c_6791);
}

/// A finite store-and-forward byte budget: data frames past it are shed at
/// arrival (their slot frees at once), control frames never are.
#[test]
fn finite_byte_budget_sheds() {
    let cfg = NetConfig {
        switch_byte_budget: 3_000,
        ..NetConfig::paper_1988()
    };
    let mut fab = hypercube(cfg);
    fab.set_sheddable(|f| f.kind == DATA && f.seq % 5 != 0);
    let mut net = StandaloneNet::new(fab);
    load(&mut net, 6, 2_400, 0, ListOrder::Ascending, Some(12));
    net.run_until(1_500_000);
    net.fabric.set_cluster_byte_budget(ClusterId(3), 600);
    net.run();
    assert!(net.fabric.stats.frames_shed > 0);
    assert_golden("finite_byte_budget_sheds", &net, 0xe601_9fb1_5c74_83e4);
}

/// The counters that say arbitration does work proportional to what changed:
/// each delivered frame was routed once per cluster on its path (the rescan
/// arbiter made 1,796 `route` calls per grant on `fabric_sat`), and a grant
/// costs at most four worklist visits (541 port visits before).
#[test]
fn a_frame_is_routed_once_per_cluster_and_a_grant_costs_o1_visits() {
    let net = sat_unicast();
    let topo = net.fabric.topology();
    let mut path = Vec::new();
    let mut crossings = 0u64;
    for (_, at, f) in &net.delivered {
        assert!(topo.cluster_path_into(f.src, *at, &mut path));
        crossings += path.len() as u64;
    }
    let w = net.fabric.work();
    assert_eq!(w.routes, crossings, "one route per frame per cluster");
    // Every frame is granted once onto its source's link and once per
    // cluster it crosses.
    assert_eq!(w.grants, crossings + net.delivered.len() as u64);
    assert!(
        w.port_visits <= 4 * w.grants,
        "{} worklist visits for {} grants",
        w.port_visits,
        w.grants
    );
}

/// Scheduling behind the clock is refused in every build, not only under
/// `debug_assert!`: a frame queued for 500 µs after the driver stood at
/// 1 ms would otherwise run the clock backwards and leave `delivered` out
/// of time order.
#[test]
#[should_panic(expected = "in the past")]
fn a_frame_sent_in_the_past_is_refused() {
    let mut net = StandaloneNet::new(hypercube(NetConfig::paper_1988()));
    net.run_until(1_000_000);
    net.send_at(
        500_000,
        Frame::unicast(NodeAddr(0), NodeAddr(1), DATA, 0, Payload::Synthetic(64)),
    );
}

/// One S/NET run's observable outcome: every delivery per receiver, in
/// order, and the counters the §2 comparison reads.
fn snet_digest(r: &SnetReport) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for node in &r.delivered {
        h.word(node.len() as u64);
        for &(t, src, seq) in node {
            h.word(t);
            h.word(src as u64);
            h.word(seq);
        }
    }
    h.word(r.rejects);
    h.word(r.garbage_bytes);
    h.word(r.last_delivery_ns);
    h.0
}

/// `senders` nodes each blast `count` messages of `len` bytes at node 0 from
/// t = 0.
fn snet_burst(strategy: Strategy, seed: u64, senders: usize, len: u32, count: u64) -> SnetSim {
    let mut sim = SnetSim::new(senders + 1, strategy, seed);
    for s in 1..=senders {
        sim.enqueue(s, 0, len, count, 0);
    }
    sim
}

#[test]
fn snet_order() {
    let lockout = snet_burst(Strategy::BusyRetry, 1, 8, 1024, 10).run(200_000_000);
    assert!(!lockout.completed, "busy retry locks out");
    let backoff = snet_burst(Strategy::RandomBackoff, 7, 8, 1024, 4).run(30_000_000_000);
    assert!(backoff.completed);
    let reservation = snet_burst(Strategy::Reservation, 9, 11, 1024, 10).run(30_000_000_000);
    assert_eq!((reservation.delivered_total, reservation.rejects), (110, 0));
    let mut paced = SnetSim::new(2, Strategy::BusyRetry, 11);
    paced.set_faults(0.2, 0.1);
    paced.enqueue_paced(1, 0, 512, 50, 0, 400_000);
    let paced = paced.run(60_000_000_000);
    assert!(paced.lost > 0 && paced.corrupted > 0);
    let got = [&lockout, &backoff, &reservation, &paced].map(snet_digest);
    let want = [
        0x354c_094d_074b_1f8a,
        0xf4a6_5b9e_75b0_a0d3,
        0xd4f3_d3d8_0f91_9a8a,
        0x7dbd_09c0_89af_0af0,
    ];
    assert_eq!(got, want, "S/NET event order moved: {got:#018x?}");
}
