//! Sharded-engine determinism: simulated outcomes are a function of the
//! topology, workload, and seed — never of the worker-thread count — and a
//! single-shard sharded run replays the sequential engine byte-for-byte.

use desim::{FaultSchedule, SimDuration, SimTime};
use hpc_vorx::vorx::hpcnet::{ClusterId, Fabric, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::{api, channel, invariants, VCtx, VorxBuilder, VorxShardedSim};
use hpc_vorx::vorx_tools::oscillo::Oscilloscope;

/// Group node addresses by cluster, in address order.
fn by_cluster(topo: &Topology) -> Vec<Vec<NodeAddr>> {
    let mut out = vec![Vec::new(); topo.n_clusters()];
    for a in topo.endpoints() {
        out[topo.cluster_of(a).0 as usize].push(a);
    }
    out
}

/// Cross-cluster channel pairs: endpoint `e` of cluster `c` writes to
/// endpoint `e` of cluster `c + 1`, for `e < per_cluster`. Leaves the last
/// endpoints of every cluster free of processes (fault-injection targets).
fn cross_pairs(topo: &Topology, per_cluster: usize) -> Vec<(NodeAddr, NodeAddr)> {
    let clusters = by_cluster(topo);
    let nc = clusters.len();
    let mut pairs = Vec::new();
    for (c, nodes) in clusters.iter().enumerate() {
        for (e, &wn) in nodes.iter().take(per_cluster).enumerate() {
            pairs.push((wn, clusters[(c + 1) % nc][e]));
        }
    }
    pairs
}

/// Spawn the pair workload through an arbitrary spawner, so the identical
/// spawn order runs on the sequential and the sharded engine.
fn spawn_pairs(
    pairs: &[(NodeAddr, NodeAddr)],
    msgs: usize,
    mut spawn: impl FnMut(NodeAddr, String, Box<dyn FnOnce(VCtx) + Send>),
) {
    for (i, &(wn, rn)) in pairs.iter().enumerate() {
        let name = format!("p{i}");
        let rname = name.clone();
        spawn(
            wn,
            format!("n{}:w{i}", wn.0),
            Box::new(move |ctx| {
                let ch = channel::open(&ctx, wn, &name);
                for m in 0..msgs {
                    let bytes = 64 + (m as u32 % 3) * 100;
                    ch.write(&ctx, Payload::Synthetic(bytes)).unwrap();
                }
            }),
        );
        spawn(
            rn,
            format!("n{}:r{i}", rn.0),
            Box::new(move |ctx| {
                let ch = channel::open(&ctx, rn, &rname);
                for _ in 0..msgs {
                    ch.read(&ctx).unwrap();
                }
            }),
        );
    }
}

/// The paper's 70-node machine: 10 clusters × 7 endpoints.
fn topo70() -> Topology {
    Topology::incomplete_hypercube(10, 7).unwrap()
}

/// Crash/restart two process-free spare nodes and flap two hypercube edges:
/// every fault class the sharded fault-plane filter must route correctly.
fn churn_schedule(topo: &Topology, seed: u64) -> FaultSchedule {
    let clusters = by_cluster(topo);
    let probe = Fabric::new(topo.clone(), NetConfig::paper_1988());
    let l01 = probe
        .cluster_link(ClusterId(0), ClusterId(1))
        .expect("adjacent clusters");
    let l10 = probe
        .cluster_link(ClusterId(1), ClusterId(0))
        .expect("adjacent clusters");
    let spare_a = *clusters[2].last().unwrap();
    let spare_b = *clusters[7].last().unwrap();
    FaultSchedule::new(seed)
        .down_at(spare_a.0, SimTime::from_ns(5_000 * 1_000))
        .up_at(spare_a.0, SimTime::from_ns(8_000 * 1_000))
        .down_at(spare_b.0, SimTime::from_ns(6_000 * 1_000))
        .link_down_at(l01.0, SimTime::from_ns(4_000 * 1_000))
        .link_up_at(l01.0, SimTime::from_ns(7_000 * 1_000))
        .link_down_at(l10.0, SimTime::from_ns(4_500 * 1_000))
}

/// Run the 70-node workload sharded with the given worker count; return the
/// merged trace JSON plus headline counters.
fn run70(workers: usize, seed: u64) -> (String, u64, u64, SimTime) {
    let topo = topo70();
    let pairs = cross_pairs(&topo, 5);
    let faults = churn_schedule(&topo, seed);
    let mut v: VorxShardedSim = VorxBuilder::with_topology(topo)
        .seed(seed)
        .faults(faults)
        .build_sharded(workers);
    spawn_pairs(&pairs, 3, |node, name, f| {
        v.spawn_at(node, name, f);
    });
    let end = v.run_all();
    let delivered = v.sum_over_shards(|w| w.net.stats.frames_delivered);
    let bridged = v.stats().msgs_bridged;
    (v.merged_trace().to_json(), delivered, bridged, end)
}

/// The engine runs no more worker threads than the process has CPUs, so on a
/// 2-CPU host the 4- and 8-worker runs here run as 2; the lists stay as they
/// are, to hold wider hosts to the same equality.
#[test]
fn worker_count_is_invisible_at_70_nodes() {
    let (t1, d1, b1, e1) = run70(1, 0x5EED);
    let (t2, d2, b2, e2) = run70(2, 0x5EED);
    let (t4, d4, b4, e4) = run70(4, 0x5EED);
    let (t8, d8, b8, e8) = run70(8, 0x5EED);
    assert!(b1 > 0, "cross-cluster workload must bridge frames");
    assert!(d1 > 0);
    assert_eq!((d1, b1, e1), (d2, b2, e2));
    assert_eq!((d1, b1, e1), (d4, b4, e4));
    assert_eq!((d1, b1, e1), (d8, b8, e8));
    assert_eq!(t1, t2, "workers=2 diverged from workers=1");
    assert_eq!(t1, t4, "workers=4 diverged from workers=1");
    assert_eq!(t1, t8, "workers=8 diverged from workers=1");
}

#[test]
fn single_shard_matches_sequential_engine_byte_for_byte() {
    // One cluster ⇒ one shard ⇒ the sharded build must replay the
    // sequential engine exactly: same events, same times, same stats.
    let pairs: Vec<(NodeAddr, NodeAddr)> = (0..4).map(|i| (NodeAddr(i), NodeAddr(i + 4))).collect();
    let faults = FaultSchedule::new(7)
        .down_at(3, SimTime::from_ns(9_000 * 1_000))
        .up_at(3, SimTime::from_ns(11_000 * 1_000));

    let mut seq = VorxBuilder::single_cluster(8)
        .faults(faults.clone())
        .build();
    spawn_pairs(&pairs, 3, |_, name, f| {
        seq.spawn(name, f);
    });
    let seq_end = seq.run_all();
    assert_eq!(invariants::check(&seq.world(), 0), [] as [&str; 0]);
    let seq_json = seq.world().trace.to_json();
    let seq_delivered = seq.world().net.stats.frames_delivered;

    let mut sh = VorxBuilder::single_cluster(8)
        .faults(faults)
        .build_sharded(1);
    assert_eq!(sh.n_shards(), 1);
    spawn_pairs(&pairs, 3, |node, name, f| {
        sh.spawn_at(node, name, f);
    });
    let sh_end = sh.run_all();
    assert_eq!(invariants::check_shards(&sh, 0), [] as [&str; 0]);
    let sh_delivered = sh.world(0).net.stats.frames_delivered;
    let sh_json = sh.merged_trace().to_json();

    assert_eq!(seq_end, sh_end);
    assert_eq!(seq_delivered, sh_delivered);
    assert_eq!(seq_json, sh_json, "single-shard run must be byte-identical");
}

/// The same at a second seed, workers {1, 4, 8} (on a 2-CPU host 4 and 8
/// run as 2).
#[test]
fn worker_count_is_invisible_on_a_second_seed() {
    let (t1, d1, b1, e1) = run70(1, 0xC1);
    for workers in [4, 8] {
        let (tn, dn, bn, en) = run70(workers, 0xC1);
        assert_eq!((d1, b1, e1), (dn, bn, en), "workers={workers}");
        assert_eq!(t1, tn, "workers={workers} diverged from workers=1");
    }
}

#[test]
fn merged_trace_feeds_the_tools_unchanged() {
    let topo = topo70();
    let pairs = cross_pairs(&topo, 2);
    let mut v = VorxBuilder::with_topology(topo).build_sharded(4);
    spawn_pairs(&pairs, 2, |node, name, f| {
        v.spawn_at(node, name, f);
    });
    let end = v.run_all();
    assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
    let trace = v.merged_trace();
    // Time-windowing works on the merged trace (monotone timestamps).
    let mut last = SimTime::ZERO;
    let mut n = 0usize;
    for (t, _) in trace.window(SimTime::ZERO, end) {
        assert!(t >= last, "merged trace must be time-ordered");
        last = t;
        n += 1;
    }
    assert!(n > 0);
    // And the oscilloscope consumes it exactly like a sequential trace.
    let o = Oscilloscope::from_trace(&trace, 70);
    assert_eq!(o.n_nodes(), 70);
    assert!(o.t_end() <= end);
    let rendered = o.render_all(60);
    assert!(!rendered.is_empty());
}

/// `merged_trace` takes the log, not the recorder: a second round of work on
/// the same machine is traced too, and a machine built with tracing off
/// stays off. Both rounds cross every shard boundary, and the first leaves
/// the shards resting at different times: the second must still find no
/// frame due at a shard before that shard's own clock, whatever the workers.
#[test]
fn merged_trace_can_be_taken_twice() {
    let two_rounds = |workers: usize, trace: bool| {
        let topo = Topology::incomplete_hypercube(4, 2).unwrap();
        let pairs = cross_pairs(&topo, 1);
        let mut v = VorxBuilder::with_topology(topo)
            .trace(trace)
            .build_sharded(workers);
        let mut round = |k: usize| {
            for (i, &(wn, rn)) in pairs.iter().enumerate() {
                // Writer `i` of round 0 starts `i` x 40 us late, so that the
                // shards come to rest far apart; round 1 sends at once.
                let (name, late) = (format!("round{k}-p{i}"), ((1 - k) * i) as u64 * 40);
                let rname = name.clone();
                v.spawn_at(wn, format!("n{}:w{i}", wn.0), move |ctx: VCtx| {
                    api::user_compute(&ctx, wn, SimDuration::from_us(late));
                    let ch = channel::open(&ctx, wn, &name);
                    ch.write(&ctx, Payload::Synthetic(64)).unwrap();
                    ch.write(&ctx, Payload::Synthetic(264)).unwrap();
                });
                v.spawn_at(rn, format!("n{}:r{i}", rn.0), move |ctx: VCtx| {
                    let ch = channel::open(&ctx, rn, &rname);
                    ch.read(&ctx).unwrap();
                    ch.read(&ctx).unwrap();
                });
            }
            v.run_all();
            v.merged_trace()
        };
        let traces = [round(0), round(1)];
        assert!(v.stats().msgs_bridged > 0, "round 1 must cross shards");
        assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
        (v, traces)
    };
    let (v, [first, second]) = two_rounds(1, true);
    assert!(!first.is_empty() && !second.is_empty());
    let first_end = first.iter().last().unwrap().0;
    assert!(second.iter().next().unwrap().0 >= first_end);
    assert!((0..v.n_shards()).all(|k| v.world(k).trace.is_enabled()));
    let (_, [first4, second4]) = two_rounds(4, true);
    assert_eq!(first.to_json(), first4.to_json(), "round 0, workers=4");
    assert_eq!(second.to_json(), second4.to_json(), "round 1, workers=4");

    let (off, traces) = two_rounds(1, false);
    assert!(traces.iter().all(|t| t.is_empty()));
    assert!((0..off.n_shards()).all(|k| !off.world(k).trace.is_enabled()));
}

#[test]
fn per_shard_counters_cover_every_shard() {
    let topo = topo70();
    let pairs = cross_pairs(&topo, 3);
    let mut v = VorxBuilder::with_topology(topo).build_sharded(2);
    spawn_pairs(&pairs, 2, |node, name, f| {
        v.spawn_at(node, name, f);
    });
    v.run_all();
    assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
    let stats = v.stats();
    assert_eq!(stats.events_per_shard.len(), 10);
    assert!(stats.events_per_shard.iter().all(|&e| e > 0));
    assert!(stats.rounds > 0);
}

/// Zero cross-shard traffic: pure-compute processes (sleep chains, no
/// channels) with wildly different durations per cluster. Shards must still
/// advance past each other — the early finishers ratchet their frontiers
/// (the null-message role) instead of stalling the long-running shard — and
/// nothing deadlocks: the run completing at the longest chain's end *is*
/// the deadlock assertion.
#[test]
fn zero_cross_traffic_completes_without_bridging() {
    let topo = topo70();
    let clusters = by_cluster(&topo);
    for workers in [1usize, 4] {
        let mut v: VorxShardedSim = VorxBuilder::with_topology(topo.clone())
            .seed(0xD06)
            .build_sharded(workers);
        for (c, nodes) in clusters.iter().enumerate() {
            // Cluster c sleeps (c + 1) times 50 µs: shard 0 goes quiet 10×
            // earlier than shard 9.
            let naps = c + 1;
            v.spawn_at(nodes[0], format!("sleeper{c}"), move |ctx: VCtx| {
                for _ in 0..naps {
                    ctx.sleep(desim::SimDuration::from_us(50));
                }
            });
        }
        let end = v.run_all();
        assert_eq!(
            end,
            SimTime::from_ns(10 * 50_000),
            "run must end at the longest sleep chain ({workers} workers)"
        );
        let stats = v.stats();
        assert_eq!(
            stats.msgs_bridged, 0,
            "nothing may cross a shard ({workers} workers)"
        );
        assert!(
            stats.frontier_bumps > 0,
            "idle shards must advance past the busy one via frontier bumps \
             ({workers} workers)"
        );
    }
}

/// A lighter seed sweep in proptest style: any seed must behave identically
/// under 1 and 3 workers on a 16-node, 4-cluster machine.
#[test]
fn seeds_are_worker_invariant() {
    for seed in [1u64, 0xBEEF, 0x1234_5678] {
        let run = |workers: usize| {
            let topo = Topology::incomplete_hypercube(4, 4).unwrap();
            let pairs = cross_pairs(&topo, 3);
            let faults = churn_schedule_small(&topo, seed);
            let mut v = VorxBuilder::with_topology(topo)
                .seed(seed)
                .faults(faults)
                .build_sharded(workers);
            spawn_pairs(&pairs, 2, |node, name, f| {
                v.spawn_at(node, name, f);
            });
            v.run_all();
            assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
            v.merged_trace().to_json()
        };
        assert_eq!(run(1), run(3), "seed {seed:#x} diverged across workers");
    }
}

fn churn_schedule_small(topo: &Topology, seed: u64) -> FaultSchedule {
    let clusters = by_cluster(topo);
    let spare = *clusters[1].last().unwrap();
    FaultSchedule::new(seed)
        .down_at(spare.0, SimTime::from_ns(4_000 * 1_000))
        .up_at(spare.0, SimTime::from_ns(6_000 * 1_000))
}

/// Overload determinism: budget squeezes plus burst-amplified traffic shed
/// frames mid-run, the channel protocol rides the window out on
/// retransmission — and none of it may depend on the worker count. Workers
/// 1 and 4 must produce bit-identical traces with shedding demonstrably
/// active in both.
#[test]
fn overload_shedding_is_worker_invariant() {
    let run = |workers: usize| {
        let topo = Topology::incomplete_hypercube(4, 4).unwrap();
        let clusters = by_cluster(&topo);
        // Squeeze the switches of clusters 0 and 2 to a zero byte budget
        // mid-run, then restore: every data frame crossing those switches
        // inside the window is shed (control traffic is never shed) and
        // must be recovered by retransmission after the restore.
        let faults = FaultSchedule::new(0x0BAD)
            .squeeze_at(0, SimTime::from_ns(2_000_000), 0)
            .squeeze_at(0, SimTime::from_ns(50_000_000), u64::MAX)
            .squeeze_at(2, SimTime::from_ns(2_000_000), 0)
            .squeeze_at(2, SimTime::from_ns(50_000_000), u64::MAX)
            .burst(SimTime::ZERO, SimTime::from_ns(10_000_000), 3);
        let mut v: VorxShardedSim = VorxBuilder::with_topology(topo)
            .seed(0x0BAD)
            .faults(faults)
            .build_sharded(workers);
        // Intra-cluster pairs: shedding happens inside a switch, so the
        // overloaded traffic must stay within its shard (bridged frames
        // model no switch contention — DESIGN.md §12).
        for (c, nodes) in clusters.iter().enumerate() {
            let (wn, rn) = (nodes[0], nodes[1]);
            let name = format!("ov{c}");
            let rname = name.clone();
            v.spawn_at(wn, format!("n{}:w{c}", wn.0), move |ctx: VCtx| {
                let ch = channel::open(&ctx, wn, &name);
                for _ in 0..6 {
                    // Burst windows amplify the offered load: bigger
                    // payloads while a burst is active, derived from sim
                    // time alone so replay stays deterministic.
                    let amp = ctx.with(|w, s| w.faults.schedule.amplification(s.now().as_ns()));
                    ch.write(&ctx, Payload::Synthetic(64 * amp)).unwrap();
                }
            });
            v.spawn_at(rn, format!("n{}:r{c}", rn.0), move |ctx: VCtx| {
                let ch = channel::open(&ctx, rn, &rname);
                for _ in 0..6 {
                    ch.read(&ctx).unwrap();
                }
            });
        }
        v.run_all();
        assert_eq!(invariants::check_shards(&v, 0), [] as [&str; 0]);
        let shed = v.sum_over_shards(|w| w.net.stats.frames_shed);
        let retx = v.sum_over_shards(|w| w.faults.stats.retransmits);
        (v.merged_trace().to_json(), shed, retx)
    };
    let (t1, shed1, retx1) = run(1);
    let (t4, shed4, retx4) = run(4);
    assert!(shed1 > 0, "the squeeze window must actually shed frames");
    assert!(retx1 > 0, "shed data must be recovered by retransmission");
    assert_eq!((shed1, retx1), (shed4, retx4));
    assert_eq!(t1, t4, "overload handling diverged across worker counts");
}

// ---------------------------------------------------------------------------
// Per-link lookahead properties, at the desim level: a toy shard world whose
// messages ride the exact per-pair latency from a *random* matrix. Every
// delivery must land at its analytically expected time (so the engine never
// delivered across a frontier, early or late) and the log must be identical
// for every worker count. Several tokens travel at once, so messages are in
// flight while shards go quiet between drains: a run that stopped early
// would lose deliveries, and one that never saw `busy` reach 0 would hang.
// ---------------------------------------------------------------------------

use desim::{OutMsg, Scheduler, ShardWorld, ShardedSim, Simulation};
use proptest::prelude::*;

/// Forwards each message round-robin to the next shard, charging exactly
/// `lat[self][next]` — the tightest delivery the lookahead permits. A message
/// is `token << 16 | hops left`.
struct LatWorld {
    id: usize,
    lat: Vec<Vec<u64>>,
    log: Vec<(u64, u32)>,
    outbox: Vec<OutMsg<u32>>,
}

impl ShardWorld for LatWorld {
    type Msg = u32;
    fn drain_outbox(&mut self, into: &mut Vec<OutMsg<u32>>) {
        into.append(&mut self.outbox);
    }
    fn deliver(&mut self, s: &mut Scheduler<Self>, msg: u32) {
        self.log.push((s.now().as_ns(), msg));
        if msg & 0xFFFF > 0 {
            let dst = (self.id + 1) % self.lat.len();
            self.outbox.push(OutMsg {
                deliver_at: s.now() + SimDuration::from_ns(self.lat[self.id][dst]),
                dst_shard: dst,
                msg: msg - 1,
            });
        }
    }
}

/// The first hop of token `k` out of shard 0: tokens fan out over the other
/// shards in turn.
fn first_hop(k: u32, n: usize) -> usize {
    1 + k as usize % (n - 1)
}

fn run_lat(lat: &[Vec<u64>], hops: u32, fan: u32, workers: usize) -> Vec<Vec<(u64, u32)>> {
    let n = lat.len();
    let shards: Vec<Simulation<LatWorld>> = (0..n)
        .map(|id| {
            Simulation::new(LatWorld {
                id,
                lat: lat.to_vec(),
                log: Vec::new(),
                outbox: Vec::new(),
            })
        })
        .collect();
    // Seed: at t = 0 shard 0 hands `fan` tokens to the other shards.
    shards[0].schedule_in(SimDuration::ZERO, move |w: &mut LatWorld, s| {
        for k in 0..fan {
            let dst = first_hop(k, n);
            w.outbox.push(OutMsg {
                deliver_at: s.now() + SimDuration::from_ns(w.lat[0][dst]),
                dst_shard: dst,
                msg: k << 16 | hops,
            });
        }
    });
    let mut sim = ShardedSim::new(shards, lat.to_vec(), workers);
    sim.run_to_idle();
    sim.into_shards()
        .into_iter()
        .map(|s| s.world().log.clone())
        .collect()
}

/// Re-sends itself a message carrying only 1 ns of latency, far below the
/// declared self-link lookahead.
struct CheatWorld {
    outbox: Vec<OutMsg<u32>>,
}

impl ShardWorld for CheatWorld {
    type Msg = u32;
    fn drain_outbox(&mut self, into: &mut Vec<OutMsg<u32>>) {
        into.append(&mut self.outbox);
    }
    fn deliver(&mut self, s: &mut Scheduler<Self>, msg: u32) {
        self.outbox.push(OutMsg {
            deliver_at: s.now() + SimDuration::from_ns(1),
            dst_shard: 0,
            msg,
        });
    }
}

/// A self-send below the declared self-link lookahead must fail loudly.
/// Mid-segment the published frontier lags the clock, so the frontier-based
/// lookahead assert alone would pass and the message would be scheduled
/// inside the segment the shard already executed.
#[test]
#[should_panic(expected = "lands inside the executed segment")]
fn self_send_below_lookahead_panics() {
    let sim0 = Simulation::new(CheatWorld { outbox: Vec::new() });
    sim0.schedule_in(SimDuration::ZERO, |w: &mut CheatWorld, s| {
        w.outbox.push(OutMsg {
            deliver_at: s.now() + SimDuration::from_ns(10),
            dst_shard: 0,
            msg: 1,
        });
    });
    let mut sim = ShardedSim::new(vec![sim0], vec![vec![10]], 1);
    sim.run_to_idle();
}

/// What the shard bridge injects with must refuse a time behind the clock in
/// a release build too: an event queued there would fire "before" events
/// that have already run.
#[test]
#[should_panic(expected = "is in the past")]
fn schedule_at_a_time_the_clock_has_passed_panics() {
    let mut sim = Simulation::new(0u32);
    sim.schedule_in(SimDuration::from_ns(100), |w: &mut u32, _| *w += 1);
    sim.run_until(SimTime::from_ns(40));
    sim.schedule_at(SimTime::from_ns(40), |w: &mut u32, _| *w += 1); // now: fine
    sim.schedule_at(SimTime::from_ns(39), |w: &mut u32, _| *w += 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random full latency matrices (2–4 shards, 1–60 ns per directed pair)
    /// and 1–5 tokens at once: messages riding the exact lookahead must
    /// arrive at the analytically expected instants, identically for 1, 2,
    /// and 4 workers.
    #[test]
    fn random_link_latencies_never_cross_a_frontier(
        n in 2usize..5,
        cells in proptest::collection::vec(1u64..61, 16..17),
        hops in 5u32..40,
        fan in 1u32..6,
    ) {
        let lat: Vec<Vec<u64>> =
            (0..n).map(|a| (0..n).map(|b| cells[a * 4 + b]).collect()).collect();
        let logs1 = run_lat(&lat, hops, fan, 1);
        // Expected: hop j of token k (hops left: hops - j) lands one shard
        // further round the ring at the sum of the per-pair latencies along
        // the way. Tokens meeting at one instant may land in either order.
        let mut expect: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n];
        for k in 0..fan {
            let (mut t, mut src, mut dst) = (0u64, 0usize, first_hop(k, n));
            for j in 0..=hops {
                t += lat[src][dst];
                expect[dst].push((t, k << 16 | (hops - j)));
                (src, dst) = (dst, (dst + 1) % n);
            }
        }
        let mut sorted = logs1.clone();
        for (got, want) in sorted.iter_mut().zip(&mut expect) {
            got.sort_unstable();
            want.sort_unstable();
        }
        prop_assert_eq!(&sorted, &expect, "delivery drifted from the link latencies");
        let logs2 = run_lat(&lat, hops, fan, 2);
        prop_assert_eq!(&logs1, &logs2, "workers=2 diverged");
        let logs4 = run_lat(&lat, hops, fan, 4);
        prop_assert_eq!(&logs1, &logs4, "workers=4 diverged");
    }
}
