//! Gray-failure regression tests: a degraded-but-live peer must never be
//! declared partitioned or down.
//!
//! The PR 9 fix under test: heartbeat probes sent by `membership::suspect`
//! used to inherit the control plane's fixed timeout — the same constant
//! family whose exhaustion just *triggered* the probe — so a peer slow
//! enough to exhaust the channel's retry chain was guaranteed to exhaust
//! the probe's too, and a merely-degraded peer was declared partitioned.
//! The probe deadline now derives from the per-peer RTT estimate (heartbeat
//! EWMA and the stalled channels' Jacobson RTO), and the channel timers
//! themselves adapt, so pure-delay faults are ridden out.

use desim::{FaultSchedule, SimDuration, SimTime};
use hpcnet::{NodeAddr, Payload};
use vorx::{channel, VorxBuilder};

/// Degrade every link of the machine between `start` and `end` by `factor`.
/// Link ids beyond the machine's range are inert windows.
fn degrade_all(mut s: FaultSchedule, start: u64, end: u64, factor: f64) -> FaultSchedule {
    for l in 0..32u32 {
        s = s.degrade(l, SimTime::from_ns(start), SimTime::from_ns(end), factor, 0);
    }
    s
}

/// A two-phase pure-delay degradation: moderate (RTT well past the fixed
/// 20 ms ack timeout, inside the retry chain) long enough for the RTT
/// estimators to bootstrap, then severe (RTT past the *entire* fixed retry
/// chain — the old code's false-positive regime). Every write must still
/// complete, and the peer must never be marked partitioned or down.
#[test]
fn degraded_but_live_peer_is_not_declared_partitioned() {
    // Phase boundaries (ns). Writes start after the open handshake, inside
    // the moderate window; the last writes ride the severe window.
    const MODERATE: (u64, u64) = (100_000_000, 5_000_000_000);
    const SEVERE: (u64, u64) = (5_000_000_000, 120_000_000_000);
    // 500 ns hop × factor: moderate ≈ 30 ms per hop (RTT ~120 ms, past the
    // 20 ms fixed base but inside the 2.5 s fixed chain — sampleable once
    // Karn backoff stretches the base past one round trip), severe ≈ 1 s
    // per hop (RTT ~4-8 s, past the *whole* fixed chain: the old fixed
    // timers exhaust here and falsely partition the peer).
    let schedule = degrade_all(
        degrade_all(FaultSchedule::new(0xD6), MODERATE.0, MODERATE.1, 60_000.0),
        SEVERE.0,
        SEVERE.1,
        2_000_000.0,
    );
    let mut v = VorxBuilder::single_cluster(3).faults(schedule).build();
    v.spawn("n1:w", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "gray.reg");
        // Moderate phase: the estimator samples these round trips.
        ctx.sleep(SimDuration::from_ns(MODERATE.0));
        for _ in 0..5 {
            ch.write(&ctx, Payload::Synthetic(64))
                .expect("moderate write");
        }
        // Severe phase: the adapted timers must ride this out.
        ctx.sleep(SimDuration::from_ns(
            SEVERE.0.saturating_sub(ctx.now().as_ns()),
        ));
        for _ in 0..2 {
            ch.write(&ctx, Payload::Synthetic(64))
                .expect("severe write");
        }
    });
    v.spawn("n2:r", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(2), "gray.reg");
        for _ in 0..7 {
            assert_eq!(ch.read(&ctx).expect("read").len(), 64);
        }
    });
    v.run_all();
    let w = v.world();
    let writer_end = w.chan_ends.of(&w.nodes[1]).next().expect("writer end");
    assert!(
        writer_end.rtt.samples() > 0,
        "the moderate phase must feed the Jacobson estimator"
    );
    assert_eq!(
        w.faults.stats.partitions, 0,
        "a delayed-but-live peer was declared partitioned"
    );
    assert_eq!(
        w.faults.stats.peer_down_events, 0,
        "a delayed-but-live peer was declared down"
    );
    for n in w.nodes.iter() {
        assert!(n.mbr.partitioned.is_empty(), "stale partition mark");
    }
}

/// Same machine, no degradation anywhere in the schedule: the estimators
/// stay disarmed and the fixed-timeout path runs byte-for-byte — the trace
/// matches a build with no fault schedule at all.
#[test]
fn unarmed_estimators_leave_the_fault_free_trace_untouched() {
    let run = |schedule: Option<FaultSchedule>| {
        let b = VorxBuilder::single_cluster(3).seed(7);
        let b = match schedule {
            Some(s) => b.faults(s),
            None => b,
        };
        let mut v = b.build();
        v.spawn("n1:w", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "clean");
            for _ in 0..4 {
                ch.write(&ctx, Payload::Synthetic(256)).unwrap();
            }
        });
        v.spawn("n2:r", |ctx| {
            let ch = channel::open(&ctx, NodeAddr(2), "clean");
            for _ in 0..4 {
                ch.read(&ctx).unwrap();
            }
        });
        v.run_all();
        let mut w = v.world();
        let trace = std::mem::replace(&mut w.trace, desim::Trace::disabled());
        trace.to_json()
    };
    // An empty schedule arms nothing; the traces must be identical.
    assert_eq!(run(None), run(Some(FaultSchedule::new(7))));
}
