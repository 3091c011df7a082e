//! Per-layer kernels: small loops that call only the named public functions
//! of one layer, timed from outside. Each value is the median of a few
//! samples taken in one pinned process; counts are exact.
//!
//! A kernel prices one operation of one layer in isolation. The traced run
//! multiplies those prices by a workload's exact counts to get the layer
//! budget — an estimate from outside, which is all a benchmark that may not
//! edit the program can give.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use desim::{spsc, Ctx, ProcId, Scheduler, SimDuration, SimTime, Simulation, Trace, Wakeup};
use hpcnet::combine::{self, CombOp};
use hpcnet::driver::StandaloneNet;
use hpcnet::{
    Attachment, ClusterId, Fabric, Frame, NetConfig, NodeAddr, Payload, PortRef, Topology,
};
use vorx::collective::{self, CollMode, GroupCfg};
use vorx::udco::{self, UdcoMode};
use vorx::{channel, sched, Calibration, VorxBuilder};

use crate::inputs::Rng;
use crate::stats;
use crate::workloads::fabric;

/// Samples per kernel; the median is reported.
const SAMPLES: usize = 5;

fn median_of(samples: usize, mut f: impl FnMut() -> f64) -> f64 {
    let xs: Vec<f64> = (0..samples).map(|_| f()).collect();
    stats::median(&xs).unwrap_or(f64::NAN)
}

/// Host ns per item of `f`, which processes `items` of them.
fn ns_per(items: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / items as f64
}

// ---------------------------------------------------------------- desim ----

/// `schedule_in` at distinct times, then `run_to_idle`: one heap push, one
/// pop and one callback per event.
fn desim_event_ns() -> f64 {
    const N: u64 = 100_000;
    median_of(SAMPLES, || {
        let mut sim = Simulation::new(0u64);
        ns_per(N, || {
            sim.setup(|_, s| {
                for i in 0..N {
                    s.schedule_in(SimDuration::from_ns(i + 1), |w: &mut u64, _| *w += 1);
                }
            });
            sim.run_to_idle();
            assert_eq!(*sim.world(), N);
        })
    })
}

/// A chain of zero-delay events: the same-instant lane, no heap.
fn desim_lane_event_ns() -> f64 {
    const N: u64 = 200_000;
    fn hop(w: &mut u64, s: &mut Scheduler<u64>) {
        if *w > 0 {
            *w -= 1;
            s.schedule_in(SimDuration::ZERO, hop);
        }
    }
    median_of(SAMPLES, || {
        let mut sim = Simulation::new(N);
        sim.schedule_in(SimDuration::from_ns(1), hop);
        ns_per(N, || {
            sim.run_to_idle();
        })
    })
}

/// One process sleeping `N` times: two thread handoffs per sleep.
fn desim_switch_ns() -> f64 {
    const N: u64 = 10_000;
    median_of(SAMPLES, || {
        let mut sim = Simulation::new(());
        sim.spawn("sleeper", |ctx: Ctx<()>| {
            for _ in 0..N {
                ctx.sleep(SimDuration::from_us(1));
            }
        });
        ns_per(N, || {
            assert!(sim.run_to_idle().all_finished());
        })
    })
}

/// 2048 parked processes woken round-robin: the same handoff with every
/// stack cold, as in `dense1k_shard`.
fn desim_switch_2k_ns() -> f64 {
    const PROCS: u64 = 2048;
    const ROUNDS: u64 = 4;
    median_of(3, || {
        let mut sim = Simulation::new(());
        for i in 0..PROCS {
            sim.spawn(format!("p{i}"), |ctx: Ctx<()>| {
                for _ in 0..ROUNDS {
                    ctx.sleep(SimDuration::from_us(1));
                }
            });
        }
        ns_per(PROCS * ROUNDS, || {
            assert!(sim.run_to_idle().all_finished());
        })
    })
}

#[derive(Default)]
struct Ring {
    pids: Vec<ProcId>,
    turn: usize,
}

/// A 256-process wake ring: each waits its turn, then wakes its successor
/// with a zero-delay wake — kernels acknowledging each other.
fn desim_wake_ns() -> f64 {
    const LINKS: usize = 256;
    const ROUNDS: usize = 16;
    median_of(SAMPLES, || {
        let mut sim = Simulation::new(Ring::default());
        let pids: Vec<ProcId> = (0..LINKS)
            .map(|i| {
                sim.spawn(format!("link{i}"), move |ctx: Ctx<Ring>| {
                    for r in 0..ROUNDS {
                        let mine = r * LINKS + i;
                        ctx.wait_until(move |w, _| (w.turn == mine).then_some(()));
                        ctx.with(|w, s| {
                            w.turn += 1;
                            let next = w.pids[(i + 1) % LINKS];
                            s.wake(next, Wakeup::START);
                        });
                    }
                })
            })
            .collect();
        sim.setup(move |w, _| w.pids = pids);
        ns_per((LINKS * ROUNDS) as u64, || {
            sim.run_to_idle();
            assert_eq!(sim.world().turn, LINKS * ROUNDS);
        })
    })
}

/// Spawn, run and join empty processes: a thread each.
fn desim_spawn_ns() -> f64 {
    const N: u64 = 2_000;
    median_of(3, || {
        ns_per(N, || {
            let mut sim = Simulation::new(());
            for i in 0..N {
                sim.spawn(format!("e{i}"), |_ctx: Ctx<()>| {});
            }
            assert!(sim.run_to_idle().all_finished());
            drop(sim);
        })
    })
}

/// Arm and cancel a timer (one ack timer per channel message), then let the
/// engine discard the dead entries.
fn desim_timer_cancel_ns() -> f64 {
    const N: u64 = 100_000;
    median_of(SAMPLES, || {
        let mut sim = Simulation::new(());
        ns_per(N, || {
            sim.setup(|_, s| {
                for i in 0..N {
                    s.schedule_cancellable_in(SimDuration::from_us(1 + i), |_, _| {})
                        .cancel();
                }
            });
            sim.run_to_idle();
        })
    })
}

/// One push and one pop through a shard mailbox.
fn desim_spsc_ns() -> f64 {
    const N: u64 = 500_000;
    median_of(SAMPLES, || {
        let (tx, rx) = spsc::pair::<u64>();
        ns_per(N, || {
            let mut sum = 0;
            for i in 0..N {
                tx.push(black_box(i));
                sum += rx.pop().expect("just pushed");
            }
            black_box(sum);
        })
    })
}

/// Merge eight interleaved shard traces, per event.
fn desim_trace_merge_ns() -> f64 {
    const SHARDS: u64 = 8;
    const PER_SHARD: u64 = 25_000;
    median_of(SAMPLES, || {
        let traces: Vec<Trace<u64>> = (0..SHARDS)
            .map(|k| {
                let mut t = Trace::new();
                // Runs of 16 local events between cross-shard contacts.
                for i in 0..PER_SHARD {
                    let run = i / 16;
                    t.record(SimTime::from_ns((run * SHARDS + k) * 16 + i % 16), i);
                }
                t
            })
            .collect();
        ns_per(SHARDS * PER_SHARD, || {
            black_box(Trace::merge(traces).len());
        })
    })
}

// --------------------------------------------------------------- hpcnet ----

/// Links a unicast frame crosses: up-link, inter-cluster hops, down-link.
fn links_on_path(topo: &Topology, src: u32, dst: u32, scratch: &mut Vec<ClusterId>) -> u64 {
    assert!(topo.cluster_path_into(NodeAddr(src), NodeAddr(dst), scratch));
    scratch.len() as u64 + 1
}

/// Unicast-only load on the `fabric_sat` topology, one frame every `gap_ns`:
/// host ns per link traversal.
fn hpcnet_hop_ns(gap_ns: u64) -> f64 {
    const FRAMES: u32 = 2_000;
    let plan = crate::inputs::fabric_injections(17, fabric::ENDPOINTS, FRAMES, gap_ns, u32::MAX);
    let topo = fabric::topology();
    let mut scratch = Vec::new();
    let links: u64 = plan
        .iter()
        .map(|i| links_on_path(&topo, i.src, i.dst.expect("unicast only"), &mut scratch))
        .sum();
    median_of(3, || {
        let mut net = StandaloneNet::new(Fabric::new(topo.clone(), NetConfig::paper_1988()));
        fabric::load(&mut net, &plan);
        ns_per(links, || net.run_inner())
    })
}

/// Multicasts to all 63 other endpoints, far apart: host ns per copy.
fn hpcnet_mcast_copy_ns() -> f64 {
    const MCASTS: u32 = 60;
    // `mcast_every = 1` makes every injection a multicast.
    let plan = crate::inputs::fabric_injections(17, fabric::ENDPOINTS, MCASTS, 200_000, 1);
    let copies = fabric::expected_copies(&plan);
    median_of(SAMPLES, || {
        let mut net = StandaloneNet::new(Fabric::new(fabric::topology(), NetConfig::paper_1988()));
        fabric::load(&mut net, &plan);
        let ns = ns_per(copies, || net.run_inner());
        assert_eq!(net.delivered.len() as u64, copies);
        ns
    })
}

/// Operand frames of a 512-member group merging in the couplers: host ns per
/// merged operand (`Stats::frames_combined`).
fn hpcnet_combine_ns() -> f64 {
    const MEMBERS: u32 = 512;
    const ROUNDS: u32 = 8;
    const KIND: u16 = 30;
    const GROUP: u32 = 5;
    let topo = Topology::incomplete_hypercube(MEMBERS as usize / 4, 4).expect("valid hypercube");
    let members: Vec<NodeAddr> = (0..MEMBERS).map(NodeAddr).collect();
    median_of(SAMPLES, || {
        let mut fab = Fabric::new(topo.clone(), NetConfig::paper_1988());
        fab.comb_register_group(GROUP, KIND, &members, NodeAddr(0), MEMBERS);
        let mut net = StandaloneNet::new(fab);
        for round in 0..ROUNDS {
            let seq = combine::enc_seq(GROUP, round, 0);
            for m in 0..MEMBERS {
                net.send_at(
                    u64::from(round) * 1_000_000,
                    Frame::unicast(
                        NodeAddr(m),
                        NodeAddr(0),
                        KIND,
                        seq,
                        combine::pack(CombOp::Sum, u64::from(m), 1),
                    ),
                );
            }
        }
        let t = Instant::now();
        net.run_inner();
        let ns = t.elapsed().as_nanos() as f64;
        let merged = net.fabric.stats.frames_combined;
        assert!(merged > 0 && net.fabric.in_flight() == 0);
        ns / merged as f64
    })
}

/// The two routing schemes' topologies: 128 flat clusters (BFS tables) and a
/// `[64,20,20]` hierarchy (implicit positional routing plus overlay).
fn flat_topology() -> Topology {
    Topology::incomplete_hypercube(128, 4).expect("valid hypercube")
}

fn hier_topology() -> Topology {
    Topology::hierarchical_hypercube(&[64, 20, 20], 4).expect("valid hierarchy")
}

/// `cluster_path_into` between seeded endpoint pairs, per call.
fn hpcnet_route_ns(topo: &Topology) -> f64 {
    const N: u64 = 20_000;
    let n = topo.n_endpoints() as u64;
    let mut rng = Rng::for_purpose(23, 0);
    let pairs: Vec<(NodeAddr, NodeAddr)> = (0..N)
        .map(|_| (NodeAddr(rng.below(n) as u32), NodeAddr(rng.below(n) as u32)))
        .collect();
    let mut path = Vec::new();
    median_of(SAMPLES, || {
        ns_per(N, || {
            for &(a, b) in &pairs {
                black_box(topo.cluster_path_into(a, b, &mut path));
            }
        })
    })
}

/// Kill one inter-cluster edge and recompute, heal it and recompute: host ns
/// per `recompute`.
fn hpcnet_recompute_ns(topo: &Topology, rounds: u64) -> f64 {
    let edge = (0..hpcnet::PORTS_PER_CLUSTER as u8)
        .map(|port| PortRef {
            cluster: ClusterId(0),
            port,
        })
        .find(|&p| matches!(topo.attachment(p), Attachment::Cluster(_)))
        .expect("cluster 0 has a cable");
    let mut topo = topo.clone();
    median_of(3, || {
        ns_per(2 * rounds, || {
            for _ in 0..rounds {
                topo.set_edge_state(edge, false);
                topo.recompute();
                topo.set_edge_state(edge, true);
                topo.recompute();
            }
        })
    })
}

// ----------------------------------------------------------------- vorx ----

/// `(host ns per message, engine events per message)` for 64 B messages
/// between two nodes of one cluster.
fn vorx_chan_msg(calib: Calibration) -> (f64, f64) {
    const N: u64 = 3_000;
    let mut events = 0.0;
    let ns = median_of(SAMPLES, || {
        let mut v = VorxBuilder::single_cluster(2)
            .calibration(calib)
            .trace(false)
            .build();
        v.spawn("n0:writer", |ctx| {
            let Ok(ch) = channel::try_open(&ctx, NodeAddr(0), "k") else {
                return;
            };
            for _ in 0..N {
                if ch.write(&ctx, Payload::Synthetic(64)).is_err() {
                    return;
                }
            }
        });
        v.spawn("n1:reader", |ctx| {
            let Ok(ch) = channel::try_open(&ctx, NodeAddr(1), "k") else {
                return;
            };
            for _ in 0..N {
                if ch.read(&ctx).is_err() {
                    return;
                }
            }
        });
        let ns = ns_per(N, || {
            assert!(v.run().all_finished(), "channel kernel deadlocked");
        });
        events = v.sim.events_dispatched() as f64 / N as f64;
        ns
    });
    (ns, events)
}

/// `udco::send`/`recv`: the kernel and fabric without `channel.rs`.
fn vorx_udco_msg_ns() -> f64 {
    const N: u64 = 3_000;
    const TAG: u16 = 7;
    median_of(SAMPLES, || {
        let mut v = VorxBuilder::single_cluster(2).trace(false).build();
        v.spawn("n0:src", |ctx| {
            for i in 0..N {
                udco::send(
                    &ctx,
                    NodeAddr(0),
                    NodeAddr(1),
                    TAG,
                    i,
                    Payload::Synthetic(64),
                );
            }
        });
        v.spawn("n1:sink", |ctx| {
            udco::register(&ctx, NodeAddr(1), TAG, UdcoMode::Interrupt);
            for _ in 0..N {
                udco::recv(&ctx, NodeAddr(1), TAG);
            }
        });
        ns_per(N, || {
            assert!(v.run().all_finished(), "udco kernel deadlocked");
        })
    })
}

/// `(host ns per open, simulated µs per open p50)`: pairs of processes on the
/// paper's 70 nodes rendezvous through the distributed object manager.
fn vorx_open() -> (f64, f64) {
    const PAIRS: u32 = 200;
    let mut sim_p50 = 0.0;
    let ns = median_of(3, || {
        let mut v = VorxBuilder::hypercube(10, 7).trace(false).build();
        let durations = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for i in 0..PAIRS {
            for node in [i % 70, (i * 7 + 3 + i / 70) % 70] {
                let durations = std::sync::Arc::clone(&durations);
                v.spawn(format!("n{node}:open{i}"), move |ctx| {
                    let t0 = ctx.now();
                    if channel::try_open(&ctx, NodeAddr(node), &format!("o{i}")).is_ok() {
                        durations
                            .lock()
                            .expect("open log poisoned")
                            .push((ctx.now() - t0).as_ns());
                    }
                });
            }
        }
        let ns = ns_per(u64::from(2 * PAIRS), || {
            v.run();
        });
        let mut d = durations.lock().expect("open log poisoned");
        assert_eq!(d.len() as u32, 2 * PAIRS, "an open failed");
        sim_p50 = stats::percentile_u64(&mut d, 50.0).unwrap_or(0) as f64 / 1e3;
        ns
    });
    (ns, sim_p50)
}

/// In-network allreduce on 4096 endpoints across three gateway levels: the
/// largest world the collectives were demonstrated on, per member-op (the
/// warm-up barrier counts as one).
fn vorx_coll_innet4096_op_ns() -> f64 {
    const MEMBERS: u32 = 4096;
    const OPS: u32 = 2;
    const GROUP: u32 = 5;
    let topo = Topology::hierarchical_hypercube(&[8, 16, 8], 4).expect("valid hierarchy");
    let mut v = VorxBuilder::with_topology(topo)
        .trace(false)
        .shards(8)
        .build_sharded(1);
    collective::register_group_sharded(
        &v,
        &GroupCfg {
            group: GROUP,
            members: (0..MEMBERS).map(NodeAddr).collect(),
            mode: CollMode::InNetwork,
        },
    );
    for m in 0..MEMBERS {
        v.spawn_at(NodeAddr(m), format!("n{m}:coll"), move |ctx| {
            let c = collective::attach(&ctx, NodeAddr(m), GROUP);
            c.barrier(&ctx);
            for _ in 0..OPS {
                black_box(c.allreduce(&ctx, CombOp::Sum, u64::from(m)));
            }
        });
    }
    ns_per(u64::from(MEMBERS * (OPS + 1)), || {
        let parked: usize = v.run().iter().map(|r| r.parked.len()).sum();
        assert_eq!(parked, 0, "4096-member collective deadlocked");
    })
}

/// Two subprocesses of one node handing a semaphore back and forth (§5).
fn vorx_sched_switch_ns() -> f64 {
    const N: u64 = 2_000;
    median_of(SAMPLES, || {
        let mut v = VorxBuilder::single_cluster(2).trace(false).build();
        v.spawn("n0:init", |ctx| {
            let node = NodeAddr(0);
            let ping = sched::create_sem(&ctx, node, 0);
            let pong = sched::create_sem(&ctx, node, 0);
            sched::spawn_subproc(&ctx, node, 1, "a", move |ctx, me| {
                for _ in 0..N / 2 {
                    me.sem_v(&ctx, ping);
                    me.sem_p(&ctx, pong);
                }
            });
            sched::spawn_subproc(&ctx, node, 1, "b", move |ctx, me| {
                for _ in 0..N / 2 {
                    me.sem_p(&ctx, ping);
                    me.sem_v(&ctx, pong);
                }
            });
        });
        ns_per(N, || {
            assert!(v.run().all_finished(), "semaphore handoff deadlocked");
        })
    })
}

/// Every kernel, by metric name. Takes ≈6 s pinned on the sizing host.
pub fn run_all() -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    m.insert("desim.event_ns", desim_event_ns());
    m.insert("desim.lane_event_ns", desim_lane_event_ns());
    m.insert("desim.switch_ns", desim_switch_ns());
    m.insert("desim.switch_2k_ns", desim_switch_2k_ns());
    m.insert("desim.wake_ns", desim_wake_ns());
    m.insert("desim.spawn_ns", desim_spawn_ns());
    m.insert("desim.timer_cancel_ns", desim_timer_cancel_ns());
    m.insert("desim.spsc_ns", desim_spsc_ns());
    m.insert("desim.trace_merge_ns", desim_trace_merge_ns());

    m.insert("hpcnet.hop_ns", hpcnet_hop_ns(20_000));
    m.insert("hpcnet.hop_sat_ns", hpcnet_hop_ns(2_000));
    m.insert("hpcnet.mcast_copy_ns", hpcnet_mcast_copy_ns());
    m.insert("hpcnet.combine_ns", hpcnet_combine_ns());
    let flat = flat_topology();
    m.insert("hpcnet.route_flat_ns", hpcnet_route_ns(&flat));
    m.insert("hpcnet.recompute_flat_ns", hpcnet_recompute_ns(&flat, 4));
    drop(flat);
    let (hier, topo_ns) = {
        let t = Instant::now();
        let hier = hier_topology();
        (hier, t.elapsed().as_nanos() as f64)
    };
    let endpoints = hier.n_endpoints() as f64;
    m.insert("hpcnet.topo_build_ns_per_ep", topo_ns / endpoints);
    m.insert("hpcnet.route_hier_ns", hpcnet_route_ns(&hier));
    m.insert("hpcnet.recompute_hier_ns", hpcnet_recompute_ns(&hier, 50));
    let t = Instant::now();
    let fab = Fabric::new(hier, NetConfig::paper_1988());
    m.insert(
        "hpcnet.fabric_build_ns_per_ep",
        t.elapsed().as_nanos() as f64 / endpoints,
    );
    drop(fab);

    let (sw_ns, sw_events) = vorx_chan_msg(Calibration::paper_1988());
    let (win_ns, win_events) = vorx_chan_msg(Calibration::paper_1988_windowed(8));
    m.insert("vorx.chan_sw_msg_ns", sw_ns);
    m.insert("vorx.chan_sw_events_per_msg", sw_events);
    m.insert("vorx.chan_win_msg_ns", win_ns);
    m.insert("vorx.chan_win_events_per_msg", win_events);
    m.insert("vorx.udco_msg_ns", vorx_udco_msg_ns());
    let (open_ns, open_sim_us) = vorx_open();
    m.insert("vorx.open_ns", open_ns);
    m.insert("vorx.open_sim_us_p50", open_sim_us);
    m.insert("vorx.coll_innet4096_op_ns", vorx_coll_innet4096_op_ns());
    let dense = Topology::hierarchical_hypercube(&[8, 16], 8).expect("valid hierarchy");
    m.insert(
        "vorx.world_build_ns_per_node",
        median_of(SAMPLES, || {
            ns_per(1024, || {
                black_box(
                    VorxBuilder::with_topology(dense.clone())
                        .trace(false)
                        .build(),
                );
            })
        }),
    );
    m.insert("vorx.sched_switch_ns", vorx_sched_switch_ns());
    m
}
