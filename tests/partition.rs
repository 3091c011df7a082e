//! Partition-tolerance integration tests: adaptive rerouting, heartbeat
//! membership, the partition-detection sweep, pause/resume channel
//! semantics, and replicated object-manager failover — all under scripted
//! and randomized link-fault schedules.
//!
//! The headline property exercised here: under any seeded link-churn
//! schedule, every channel operation either completes or fails with a
//! *typed* error in bounded time — nothing ever parks forever — and equal
//! seeds replay bit-identically.

use std::sync::{Arc, Mutex};

use hpc_vorx::desim::{lock, FaultSchedule, LinkFaults, SimDuration, SimTime};
use hpc_vorx::hpcnet::{ClusterId, Fabric, NetConfig, NodeAddr, Payload, Topology};
use hpc_vorx::vorx::objmgr::name_hash;
use hpc_vorx::vorx::{channel, invariants, Calibration, VorxBuilder, VorxError};

use proptest::prelude::*;

/// The four-cluster, two-endpoints-per-cluster hypercube every test here
/// runs on. Clusters form a 2-cube: 0–1, 0–2, 1–3, 2–3 (no 0–3 or 1–2
/// cable), so cluster pairs at distance two always have exactly two
/// disjoint routes.
fn topo() -> Topology {
    Topology::incomplete_hypercube(4, 2).unwrap()
}

/// A throwaway fabric over [`topo`], for resolving link ids. Link numbering
/// is a pure function of the topology, so it answers for the real one.
fn probe_fabric() -> Fabric {
    Fabric::new(topo(), NetConfig::paper_1988())
}

/// Both directed link ids of the cluster cable `a`–`b`.
fn cable(a: u32, b: u32) -> [u32; 2] {
    let f = probe_fabric();
    [
        f.cluster_link(ClusterId(a), ClusterId(b)).unwrap().0,
        f.cluster_link(ClusterId(b), ClusterId(a)).unwrap().0,
    ]
}

/// The first endpoint attached to cluster `c`.
fn node_in(c: u32) -> NodeAddr {
    let t = topo();
    (0..t.n_endpoints() as u32)
        .map(NodeAddr)
        .find(|&n| t.cluster_of(n) == ClusterId(c))
        .unwrap()
}

/// Everything a churn run reports.
struct Run {
    /// Message indices delivered to the reader, in order, deduplicated.
    delivered: Vec<u8>,
    /// `Partitioned` errors the writer observed (then retried past).
    writer_stalls: u32,
    /// Processes left parked at idle (must always be zero).
    leaked: usize,
    /// The full execution trace as JSON.
    trace: String,
    partitions: u64,
    heals: u64,
    probes_sent: u64,
    frames_rerouted: u64,
}

/// Stream `msgs` one-byte messages from cluster 0 to cluster 3 under
/// `schedule`. Both sides treat [`VorxError::Partitioned`] as transient:
/// sleep and retry. The reader deduplicates by content index, so app-level
/// at-least-once retries (a write that failed after its data crossed) still
/// yield an exactly-once `delivered` sequence.
fn churn_run(schedule: FaultSchedule, calib: Calibration, msgs: u8) -> Run {
    let (src, dst) = (node_in(0), node_in(3));
    let mut v = VorxBuilder::hypercube(4, 2)
        .calibration(calib)
        .faults(schedule)
        .build();
    let stalls = Arc::new(Mutex::new(0u32));
    let st = Arc::clone(&stalls);
    v.spawn("writer", move |ctx| {
        let ch = channel::open(&ctx, src, "part.stream");
        let mut i = 0u8;
        while i < msgs {
            // Pace the stream so scripted cuts land mid-transfer instead of
            // after a sub-millisecond burst already finished.
            ctx.sleep(SimDuration::from_ns(2_000_000));
            match ch.write(&ctx, Payload::copy_from(&[i])) {
                Ok(()) => i += 1,
                Err(VorxError::Partitioned) => {
                    *lock(&st) += 1;
                    assert!(*lock(&st) < 400, "writer stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(50_000_000));
                }
                Err(e) => panic!("writer: unexpected error {e:?}"),
            }
        }
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    v.spawn("reader", move |ctx| {
        let ch = channel::open(&ctx, dst, "part.stream");
        let mut expect = 0u8;
        let mut stalls = 0u32;
        while expect < msgs {
            match ch.read(&ctx) {
                Ok(p) => {
                    let b = p.bytes().unwrap()[0];
                    if b == expect {
                        lock(&sink).push(b);
                        expect += 1;
                    } // else: duplicate from an app-level write retry
                }
                Err(VorxError::Partitioned) => {
                    stalls += 1;
                    assert!(stalls < 400, "reader stalled unboundedly");
                    ctx.sleep(SimDuration::from_ns(50_000_000));
                }
                Err(e) => panic!("reader: unexpected error {e:?}"),
            }
        }
    });
    let report = v.run();
    let leaked = report.parked.len();
    let delivered = lock(&got).clone();
    let writer_stalls = *lock(&stalls);
    let w = v.world();
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
    Run {
        delivered,
        writer_stalls,
        leaked,
        trace: w.trace.to_json(),
        partitions: w.faults.stats.partitions,
        heals: w.faults.stats.heals,
        probes_sent: w.faults.stats.probes_sent,
        frames_rerouted: w.net.stats.frames_rerouted,
    }
}

/// Cut the cable the baseline route actually uses, mid-stream: the fabric
/// reroutes over the surviving path and the stream completes with no
/// partition ever declared — the cut is invisible to the application.
#[test]
fn reroute_rides_through_a_link_cut() {
    let (src, dst) = (node_in(0), node_in(3));
    // Which first hop does the fault-free table take for 0 → cluster 3?
    let first_hop = topo().cluster_path(src, dst)[1].0;
    let mut schedule = FaultSchedule::new(11);
    for l in cable(0, first_hop) {
        schedule = schedule.link_down_at(l, SimTime::from_ns(2_000_000));
    }
    let run = churn_run(schedule, Calibration::paper_1988(), 8);
    assert_eq!(run.delivered, (0..8).collect::<Vec<_>>());
    assert_eq!(run.leaked, 0);
    assert!(run.frames_rerouted > 0, "the detour must have been taken");
    assert_eq!(run.partitions, 0, "both ends stayed mutually reachable");
    assert_eq!(run.writer_stalls, 0);
}

/// Isolate cluster 0 entirely, then heal: blocked writers and readers get
/// the typed `Partitioned` error from the detection sweep (bounded time,
/// never a hang), channel state survives the outage, and after the heal the
/// same handles finish the stream.
#[test]
fn partition_is_typed_and_heals_without_reopening() {
    let mut schedule = FaultSchedule::new(12);
    for cab in [cable(0, 1), cable(0, 2)] {
        for l in cab {
            schedule = schedule
                .link_down_at(l, SimTime::from_ns(5_000_000))
                .link_up_at(l, SimTime::from_ns(400_000_000));
        }
    }
    let run = churn_run(schedule, Calibration::paper_1988(), 8);
    assert_eq!(run.delivered, (0..8).collect::<Vec<_>>());
    assert_eq!(run.leaked, 0);
    assert!(run.partitions >= 1, "the sweep must declare the partition");
    assert!(run.heals >= 1, "the heal sweep must clear it");
    assert!(run.writer_stalls >= 1, "the writer must see Partitioned");
}

/// With the omniscient sweep disabled, the heartbeat path alone must reach
/// the same verdict: channel retry exhaustion sends a beacon, the beacon's
/// control-plane exhaustion declares the partition — still bounded time.
#[test]
fn heartbeat_probe_detects_partition_without_sweep() {
    let mut calib = Calibration::paper_1988();
    calib.partition_detect_ns = u64::MAX;
    let mut schedule = FaultSchedule::new(13);
    for cab in [cable(0, 1), cable(0, 2)] {
        for l in cab {
            schedule = schedule
                .link_down_at(l, SimTime::from_ns(5_000_000))
                .link_up_at(l, SimTime::from_ns(8_000_000_000));
        }
    }
    let run = churn_run(schedule, calib, 6);
    assert_eq!(run.delivered, (0..6).collect::<Vec<_>>());
    assert_eq!(run.leaked, 0);
    assert!(run.probes_sent >= 1, "exhaustion must probe before verdict");
    assert!(run.partitions >= 1, "probe failure must declare partition");
    assert!(run.heals >= 1);
}

/// Replicated object-manager failover: a server registers a name whose
/// hash-home lives in cluster 0; the home pushes the registration to its
/// successor replica. With cluster 0's cables cut, a client's open fails
/// over to the successor and still connects to the server.
#[test]
fn open_fails_over_to_replica_when_home_is_partitioned() {
    // A name homed on the *second* endpoint of cluster 0, so the successor
    // (home + 1, by address) lives in a different cluster.
    let t = topo();
    let n = t.n_endpoints() as u64;
    let home = {
        let c0 = (0..n as u32)
            .map(NodeAddr)
            .filter(|&a| t.cluster_of(a) == ClusterId(0))
            .max_by_key(|a| a.0)
            .unwrap();
        assert_ne!(
            t.cluster_of(NodeAddr(c0.0 + 1)),
            ClusterId(0),
            "successor must sit outside cluster 0"
        );
        c0
    };
    let name = (0..)
        .map(|i| format!("svc{i}"))
        .find(|s| name_hash(s) % n == u64::from(home.0))
        .unwrap();

    let mut schedule = FaultSchedule::new(14);
    for cab in [cable(0, 1), cable(0, 2)] {
        for l in cab {
            schedule = schedule.link_down_at(l, SimTime::from_ns(20_000_000));
        }
    }
    let mut v = VorxBuilder::hypercube(4, 2).faults(schedule).build();
    let (server, client) = (node_in(2), node_in(3));
    let sname = name.clone();
    v.spawn("server", move |ctx| {
        // Registers before the cut: the home manager pushes the replica.
        let ls = channel::listen(&ctx, server, &sname);
        let ch = ls.accept(&ctx);
        let m = ch.read(&ctx).unwrap();
        ch.write(&ctx, m).unwrap(); // echo
    });
    let cname = name;
    let got = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&got);
    v.spawn("client", move |ctx| {
        // Opens after the cut: the request to the home manager can never
        // arrive; the open must fail over to the successor replica.
        ctx.sleep(SimDuration::from_ns(50_000_000));
        let ch = channel::try_open(&ctx, client, &cname).unwrap();
        ch.write(&ctx, Payload::copy_from(b"ping")).unwrap();
        let echo = ch.read(&ctx).unwrap();
        *lock(&sink) = Some(echo.bytes().unwrap().to_vec());
        ch.close(&ctx);
    });
    let report = v.run();
    assert_eq!(report.parked, vec![], "no process may stay parked");
    assert_eq!(lock(&got).as_deref(), Some(b"ping".as_slice()));
    let w = v.world();
    assert!(
        w.faults.stats.mgr_failovers >= 1,
        "the open must have failed over to the successor replica"
    );
    // The cut never heals, so the marks it left are the right answer here
    // and nothing else is: every other quiescence oracle still holds.
    assert_eq!(invariants::check(&w, 0), [invariants::MEMBERSHIP]);
}

/// The node-local resolve cache must never serve a manager address across a
/// failover/heal epoch change. A client learns the successor replica during
/// a partition (cache stamped with the failover epoch); after the fabric
/// heals, the next open of the same name must evict that entry and resolve
/// back to the hash-home — not silently reuse the successor.
#[test]
fn resolve_cache_is_invalidated_across_failover_and_heal() {
    use hpc_vorx::vorx::objmgr::resolve_epoch;

    let t = topo();
    let n = t.n_endpoints() as u64;
    // A name homed on the last endpoint of cluster 0, so the successor
    // (home + 1, by address) lives in a different cluster.
    let home = (0..n as u32)
        .map(NodeAddr)
        .filter(|&a| t.cluster_of(a) == ClusterId(0))
        .max_by_key(|a| a.0)
        .unwrap();
    let name = (0..)
        .map(|i| format!("svc{i}"))
        .find(|s| name_hash(s) % n == u64::from(home.0))
        .unwrap();

    // Cut cluster 0 off at 20 ms; heal the fabric at 1 s.
    let mut schedule = FaultSchedule::new(15);
    for cab in [cable(0, 1), cable(0, 2)] {
        for l in cab {
            schedule = schedule
                .link_down_at(l, SimTime::from_ns(20_000_000))
                .link_up_at(l, SimTime::from_ns(1_000_000_000));
        }
    }
    let mut v = VorxBuilder::hypercube(4, 2).faults(schedule).build();
    let (server, client) = (node_in(2), node_in(3));
    let sname = name.clone();
    v.spawn("server", move |ctx| {
        // Registers before the cut: the home pushes the replica.
        let ls = channel::listen(&ctx, server, &sname);
        for _ in 0..2 {
            let ch = ls.accept(&ctx);
            let m = ch.read(&ctx).unwrap();
            ch.write(&ctx, m).unwrap(); // echo
        }
    });
    let cname = name.clone();
    v.spawn("client", move |ctx| {
        // Open #1, mid-partition: fails over to the successor replica and
        // caches it under the failover epoch.
        ctx.sleep(SimDuration::from_ns(50_000_000));
        let ch = channel::try_open(&ctx, client, &cname).unwrap();
        ch.write(&ctx, Payload::copy_from(b"one")).unwrap();
        let _ = ch.read(&ctx).unwrap();
        ch.close(&ctx);
        // Open #2, well after the heal: the cached successor is one or more
        // epochs old and must be evicted, not served.
        ctx.sleep(SimDuration::from_ns(5_000_000_000));
        let ch = channel::try_open(&ctx, client, &cname).unwrap();
        ch.write(&ctx, Payload::copy_from(b"two")).unwrap();
        let _ = ch.read(&ctx).unwrap();
        ch.close(&ctx);
    });
    let report = v.run();
    assert_eq!(report.parked, vec![], "no process may stay parked");

    let mut w = v.world();
    assert!(w.faults.stats.mgr_failovers >= 1, "open #1 must fail over");
    assert!(w.faults.stats.heals >= 1, "the fabric must heal");
    let stale = w.node(client).resolve.stale_evictions;
    assert!(
        stale >= 1,
        "open #2 must evict the stale successor entry, not serve it"
    );
    // What the client believes now was learned under the current epoch and
    // points back at the hash-home that served open #2.
    let epoch = resolve_epoch(&w);
    assert_eq!(
        w.node_mut(client).resolve.lookup(epoch, &name),
        Some(home),
        "post-heal resolution must come from the hash-home again"
    );
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
}

/// Build the scripted churn schedule used by the determinism tests: two
/// overlapping cable flaps plus background loss.
fn churny_schedule(seed: u64) -> FaultSchedule {
    let mut s = FaultSchedule::new(seed).all_links(LinkFaults::loss(0.02));
    for l in cable(0, 1) {
        s = s
            .link_down_at(l, SimTime::from_ns(3_000_000))
            .link_up_at(l, SimTime::from_ns(300_000_000));
    }
    for l in cable(2, 3) {
        s = s
            .link_down_at(l, SimTime::from_ns(150_000_000))
            .link_up_at(l, SimTime::from_ns(600_000_000));
    }
    s
}

/// Equal (workload, fault) seeds under link churn replay bit-identically:
/// the whole partition plane — drops, reroutes, sweeps, probes, heals — is
/// inside the deterministic event order.
#[test]
fn equal_churn_seeds_replay_bit_identically() {
    let a = churn_run(churny_schedule(77), Calibration::paper_1988(), 8);
    let b = churn_run(churny_schedule(77), Calibration::paper_1988(), 8);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.leaked, 0);
    assert!(a.trace.len() > 2, "trace must record");
    assert_eq!(a.trace, b.trace, "churn runs must replay bit-identically");
    let c = churn_run(churny_schedule(78), Calibration::paper_1988(), 8);
    assert_ne!(a.trace, c.trace, "a different seed must take another path");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized link-churn schedules (every cut eventually heals) with
    /// background loss: the stream always completes exactly once, in
    /// order, and the run leaves no parked process — no schedule hangs the
    /// system.
    #[test]
    fn any_healing_churn_schedule_delivers_everything(
        seed in 0u64..1_000_000,
        flap in proptest::collection::vec(
            (0usize..4, 1_000_000u64..200_000_000, 5_000_000u64..400_000_000),
            1..4,
        ),
        loss in 0.0f64..0.02,
    ) {
        let cables = [cable(0, 1), cable(0, 2), cable(1, 3), cable(2, 3)];
        let mut schedule = FaultSchedule::new(seed).all_links(LinkFaults::loss(loss));
        for (c, down_ns, dur_ns) in flap {
            for l in cables[c] {
                schedule = schedule
                    .link_down_at(l, SimTime::from_ns(down_ns))
                    .link_up_at(l, SimTime::from_ns(down_ns + dur_ns));
            }
        }
        let run = churn_run(schedule, Calibration::paper_1988(), 6);
        prop_assert_eq!(run.delivered, (0..6).collect::<Vec<_>>());
        prop_assert_eq!(run.leaked, 0);
    }
}
