//! What a parked VORX process costs the host. A simulated process parked in
//! a blocking call is its frames' bytes on the heap (`desim`'s `coro`
//! module), so every byte of stack a blocking call keeps across its park is
//! paid once per parked process — 2,048 times on a dense 1,024-endpoint run
//! and 200,000 times on the 100k-endpoint one.
//!
//! Each figure below is the live heap of 64 processes parked in one blocking
//! call, less that of the same 64 processes run up to that call and then
//! returned, per process: the image and whatever the call itself leaves in
//! the world (a waiter registration, a deferred fragment, a pending open) —
//! and not the channel ends or group state both runs share.

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

use std::sync::Arc;

use hpc_vorx::desim::SimDuration;
use hpc_vorx::vorx::collective::{self, CollMode, GroupCfg};
use hpc_vorx::vorx::hpcnet::combine::CombOp;
use hpc_vorx::vorx::hpcnet::{NodeAddr, Payload, Topology};
use hpc_vorx::vorx::udco::{self, UdcoMode};
use hpc_vorx::vorx::{channel, invariants, Calibration, VorxBuilder, VorxSim};

/// Endpoints of the measured world (16 clusters of 4), one measured process
/// on each.
const NODES: u32 = 64;

/// A point by which every scenario below has settled and before which no
/// protocol timer fires (the earliest are 20 ms after the last send).
const SETTLED: SimDuration = SimDuration::from_ms(15);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Site {
    ReadSw,
    ReadWin,
    WriteSw,
    WriteWin,
    CloseWin,
    TryOpen,
    Allreduce,
    UdcoRecv,
}

impl Site {
    const ALL: [Site; 8] = [
        Site::ReadSw,
        Site::ReadWin,
        Site::WriteSw,
        Site::WriteWin,
        Site::CloseWin,
        Site::TryOpen,
        Site::Allreduce,
        Site::UdcoRecv,
    ];

    /// Live heap per parked process: what was measured in an optimised and
    /// in an unoptimised build (whose frames are 2.5–3 times as deep), plus
    /// 10 %. Each call cost 1.7–2.7 KiB optimised while a process kept a copy
    /// of the whole cost model on its stack and images had 50 % slack.
    /// A parked open's rows — its open wait with the opener in it, its
    /// manager's pending entry and dedup row — are rows of world tables that
    /// the warmed world emptied and freed, or sized to the warm-up's rows,
    /// so the parked run pays their regrowth: 1,117 B optimised (2,589
    /// unoptimised) while they were per-node maps that kept their warm-up
    /// capacity. Unoptimised `WriteWin`/`CloseWin` read 3,320 B, inside the
    /// 10 % of their older, lower figures, which stay.
    fn budget(self) -> i64 {
        let (release, debug) = match self {
            Site::ReadSw => (792, 2_552),
            Site::ReadWin => (792, 2_552),
            Site::WriteSw => (1_080, 2_888),
            Site::WriteWin => (888, 3_300),
            Site::CloseWin => (888, 3_304),
            Site::TryOpen => (1_280, 2_752),
            Site::Allreduce => (900, 2_574),
            Site::UdcoRecv => (800, 2_256),
        };
        let measured = if cfg!(debug_assertions) {
            debug
        } else {
            release
        };
        measured * 11 / 10
    }
}

const GROUP: u32 = 3;

fn world(site: Site) -> VorxSim {
    let topo = Topology::incomplete_hypercube(16, 4).unwrap();
    let calib = match site {
        Site::ReadWin => Calibration::paper_1988_windowed(8),
        // A receiver with buffers for one window, the fewest a windowed end
        // takes, and nobody reading them: eight writes fill them, the ninth
        // goes out as a zero-window probe that is never accepted, and the
        // tenth write — or a close, which flushes the window — parks.
        Site::WriteWin | Site::CloseWin => Calibration {
            chan_rx_frag_buffers: 0,
            ..Calibration::paper_1988_windowed(8)
        },
        _ => Calibration::paper_1988(),
    };
    let mut v = VorxBuilder::with_topology(topo).calibration(calib).build();
    // Node and link state is built on first touch, and kernel tables grow
    // to their working size: warm both up with the measured call's traffic,
    // run to completion, so that what each run adds is its own.
    for a in 0..NODES {
        v.world().node_mut(NodeAddr(a));
    }
    match site {
        Site::TryOpen => {
            for i in 0..NODES {
                for node in [i, (i + 1) % NODES] {
                    v.spawn(format!("n{node}:warm{i}"), move |ctx| {
                        channel::open(&ctx, NodeAddr(node), &format!("fp{i}"));
                    });
                }
            }
        }
        Site::Allreduce => {
            let members = (0..NODES).map(NodeAddr).collect();
            let cfg = GroupCfg {
                group: GROUP,
                members,
                mode: CollMode::InNetwork,
            };
            collective::register_group(&mut v.world(), &cfg);
            for i in 0..NODES {
                v.spawn(format!("n{i}:warm"), move |ctx| {
                    let c = collective::attach(&ctx, NodeAddr(i), GROUP);
                    c.allreduce(&ctx, CombOp::Sum, 1);
                });
            }
        }
        _ => {}
    }
    v.run_all();
    v
}

/// Spawn the scenario of `site`: on every node a process that runs up to the
/// measured call and, if `park`, makes it; beside it, where the call needs
/// one, a peer that opens the other end and returns. Returns how many
/// processes make the call.
fn spawn(v: &VorxSim, site: Site, park: bool) -> usize {
    let payload = Payload::Synthetic(64);
    let mut measured = 0;
    for i in 0..NODES {
        let me = NodeAddr(i);
        let peer = NodeAddr((i + 1) % NODES);
        let name: Arc<str> = format!("fp{i}").into();
        if matches!(site, Site::TryOpen | Site::Allreduce | Site::UdcoRecv) {
            // No peer: the open has nobody to meet, the group has one
            // member who never arrives, the object has nobody sending.
            if site == Site::Allreduce && i == NODES - 1 {
                v.spawn(format!("n{i}:late"), move |ctx| {
                    let _ = collective::attach(&ctx, me, GROUP);
                });
                continue;
            }
        } else {
            let name = Arc::clone(&name);
            v.spawn(format!("n{}:peer{i}", peer.0), move |ctx| {
                channel::open(&ctx, peer, &name);
            });
        }
        measured += 1;
        let payload = payload.clone();
        v.spawn(format!("n{i}:{site:?}"), move |ctx| match site {
            Site::ReadSw | Site::ReadWin => {
                let ch = channel::open(&ctx, me, &name);
                if park {
                    let _ = ch.read(&ctx);
                }
            }
            Site::WriteSw | Site::WriteWin | Site::CloseWin => {
                let ch = channel::open(&ctx, me, &name);
                // Stop-and-wait: fill the reader's eight side buffers, and
                // the next fragment is deferred, its ack withheld. Windowed:
                // fill them and send the probe.
                let sent = if site == Site::WriteSw { 8 } else { 9 };
                for _ in 0..sent {
                    ch.write(&ctx, payload.clone()).unwrap();
                }
                if park {
                    if site == Site::CloseWin {
                        ch.close(&ctx);
                    } else {
                        let _ = ch.write(&ctx, payload);
                    }
                }
            }
            Site::TryOpen => {
                if park {
                    let _ = channel::try_open(&ctx, me, &name);
                }
            }
            Site::Allreduce => {
                let c = collective::attach(&ctx, me, GROUP);
                if park {
                    c.allreduce(&ctx, CombOp::Sum, 1);
                }
            }
            Site::UdcoRecv => {
                udco::register(&ctx, me, 1, UdcoMode::Interrupt);
                if park {
                    udco::recv(&ctx, me, 1);
                }
            }
        });
    }
    measured
}

/// Live heap a warmed-up world of `site` gains in the [`SETTLED`] after the
/// scenario is spawned, and how many processes made the measured call.
fn live_heap(site: Site, park: bool) -> (i64, usize) {
    let mut v = world(site);
    let before = alloc_meter::live_bytes();
    let n = spawn(&v, site, park);
    v.sim.run_until(v.now() + SETTLED);
    let live = alloc_meter::live_bytes() - before;
    let parked = v.sim.parked_processes().len();
    assert_eq!(parked, if park { n } else { 0 }, "{site:?}, park {park}");
    (live, n)
}

/// Live heap per process parked in the call of `site`.
fn per_parked_process(site: Site) -> i64 {
    let (parked, n) = live_heap(site, true);
    let (returned, _) = live_heap(site, false);
    (parked - returned) / n as i64
}

/// Every blocking call of the VORX API a process parks in holds its frames
/// and little else: live heap per parked process within 10 % of what was
/// measured, in an optimised and in an unoptimised build.
#[test]
fn a_parked_process_costs_its_frames() {
    let mut over = Vec::new();
    for site in Site::ALL {
        let bytes = per_parked_process(site);
        println!("{site:?}: {bytes} B per parked process");
        if bytes > site.budget() {
            over.push(format!("{site:?}: {bytes} B > {} B", site.budget()));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// Live heap per member of an in-network group of every endpoint of `topo`,
/// each attached and parked holding its handle.
fn live_per_attached_member(topo: Topology) -> i64 {
    let n = topo.n_endpoints() as u32;
    let mut v = VorxBuilder::with_topology(topo).build();
    let cfg = GroupCfg {
        group: GROUP,
        members: (0..n).map(NodeAddr).collect(),
        mode: CollMode::InNetwork,
    };
    collective::register_group(&mut v.world(), &cfg);
    let before = alloc_meter::live_bytes();
    for i in 0..n {
        v.spawn(format!("m{i:04}"), move |ctx| {
            let c = collective::attach(&ctx, NodeAddr(i), GROUP);
            ctx.park();
            drop(c);
        });
    }
    let report = v.run();
    let live = alloc_meter::live_bytes() - before;
    assert_eq!(report.parked.len(), n as usize);
    live / i64::from(n)
}

/// A member's handle shares the group's member list: attached members cost
/// the same each in a group of 1,024 as in one of 64 (copying the list made
/// it 4 KiB more each at 1,024).
#[test]
fn an_attached_member_costs_the_same_in_a_group_of_any_size() {
    let small = live_per_attached_member(Topology::incomplete_hypercube(16, 4).unwrap());
    let large = live_per_attached_member(Topology::hierarchical_hypercube(&[8, 16], 8).unwrap());
    println!("attached member: {small} B at 64 members, {large} B at 1,024");
    assert!(
        large * 10 <= small * 11,
        "{large} B per attached member at 1,024 members, {small} B at 64"
    );
}

/// Live heap per stream of the 64-node world after every node `i` opened a
/// stop-and-wait channel to node `i + 1`, sent one message on it, read the
/// one from node `i - 1`, and returned: both ends, the touched nodes, the
/// fabric links the traffic built and whatever the open handshake left.
fn live_per_idle_stream() -> i64 {
    let topo = Topology::incomplete_hypercube(16, 4).unwrap();
    let mut v = VorxBuilder::with_topology(topo).trace(false).build();
    let before = alloc_meter::live_bytes();
    for i in 0..NODES {
        let (me, peer) = (NodeAddr(i), NodeAddr((i + 1) % NODES));
        let name: Arc<str> = format!("idle{i}").into();
        let peer_name = Arc::clone(&name);
        v.spawn(format!("n{i}:w{i}"), move |ctx| {
            let ch = channel::open(&ctx, me, &name);
            ch.write(&ctx, Payload::Synthetic(64)).unwrap();
        });
        v.spawn(format!("n{}:r{i}", peer.0), move |ctx| {
            let ch = channel::open(&ctx, peer, &peer_name);
            ch.read(&ctx).unwrap();
        });
    }
    let report = v.run();
    assert!(report.all_finished());
    (alloc_meter::live_bytes() - before) / i64::from(NODES)
}

/// A connected idle stream costs at most its measured heap plus 10 %:
/// 3,489 bytes, optimised or not — a node (at most 256 B), two ends as rows
/// of their world's table (360 B each), their rows in the other world
/// tables, the links its traffic touched. It was 3,775 while each opener
/// kept a resolve-cache row of name → manager (the budget then read
/// 3,853), 3,691 while every table
/// was a `Vec` that doubled: 64 nodes fill a `Vec` of 64 exactly, where the
/// slab that also holds the idle template takes 128 (+184 B a stream), and
/// a slab past four rows keeps a row of its chunks; 4,540 while each end's
/// queues were containers of its own; 5,122 while every node kept its
/// channel index, its resolve cache and its manager's tables of its own (a
/// 776-byte node),
/// 7,038 while its ends, open waits and unacknowledged control frames were
/// in hash tables of its own, rounded up to four buckets, left allocated
/// once the handshake had emptied them, and keyed by a `RandomState` each;
/// 5,234 while each name was a `String` copied at every table it entered
/// and a paired name kept its key and an emptied queue at its manager.
#[test]
fn a_connected_idle_stream_costs_at_most_its_budget() {
    const MEASURED: i64 = 3_489;
    let bytes = live_per_idle_stream();
    println!("connected idle stream: {bytes} B");
    assert!(
        bytes <= MEASURED * 11 / 10,
        "{bytes} B per connected idle stream, budget {} B",
        MEASURED * 11 / 10
    );
}

/// A paired name leaves nothing at its manager: once both nodes of a
/// two-node world have opened the same 256 names, no manager holds a
/// pending open. (Each paired name used to keep its key and an emptied
/// queue there for the life of the node.)
#[test]
fn a_paired_name_leaves_nothing_at_its_manager() {
    let mut v = VorxBuilder::single_cluster(2).trace(false).build();
    for node in 0..2 {
        v.spawn(format!("n{node}:opener"), move |ctx| {
            for i in 0..256 {
                channel::try_open(&ctx, NodeAddr(node), &format!("paired/{i}")).unwrap();
            }
        });
    }
    assert!(v.run().all_finished());
    let w = v.world();
    let served: u64 = (0..2).map(|a| w.node(NodeAddr(a)).mgr.served).sum();
    assert_eq!(served, 512, "every open reached a manager");
    let pending = &w.managers.pending;
    assert!(
        pending.is_empty(),
        "the managers still hold {} names",
        pending.len()
    );
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
}
