//! Windowed data-path integration tests: the credit-based channel pipeline
//! (`chan_window > 1`) against seeded loss, corruption, and reordering —
//! plus the determinism and bounded-state guarantees it must share with
//! stop-and-wait.
//!
//! Everything runs from fixed seeds, so each scenario replays
//! bit-identically on every run.

use std::sync::{Arc, Mutex};

use hpc_vorx::desim::{lock, FaultSchedule, LinkFaults, RunOutcome, SimTime};
use hpc_vorx::hpcnet::{Frame, NodeAddr, Payload};
use hpc_vorx::vorx::objmgr::ObjMgrMode;
use hpc_vorx::vorx::{channel, invariants, proto, Calibration, VorxBuilder, World};

use proptest::prelude::*;

/// Deterministic test message `i` of `len` bytes.
fn msg(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|j| ((i * 7 + j) % 251) as u8).collect()
}

/// Stream `sizes.len()` messages (message `i` is `msg(i, sizes[i])`) from
/// node 0 to node 1 with an optionally-customized calibration, under
/// `schedule`. Returns (received messages, leaked process count, trace
/// JSON — empty when tracing is off).
fn stream_with(
    calib: Calibration,
    schedule: FaultSchedule,
    sizes: &[usize],
    trace: bool,
) -> (Vec<Vec<u8>>, usize, String) {
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .calibration(calib)
        .trace(trace)
        .faults(schedule)
        .build();
    let sizes_w: Vec<usize> = sizes.to_vec();
    v.spawn("n0:writer", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "dp");
        for (i, &len) in sizes_w.iter().enumerate() {
            ch.write(&ctx, Payload::copy_from(&msg(i, len))).unwrap();
        }
        // In windowed mode the close flushes the transmit window.
        ch.close(&ctx);
    });
    let got = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let n_msgs = sizes.len();
    v.spawn("n1:reader", move |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "dp");
        for _ in 0..n_msgs {
            let p = ch.read(&ctx).unwrap();
            lock(&sink).push(p.bytes().unwrap().to_vec());
        }
    });
    // Run in 1 ms slices so the sender's in-flight set is inspected while
    // it is populated, not only once it has drained.
    let mut t = 0u64;
    let report = loop {
        t += 1_000_000;
        match v.sim.run_until(SimTime::from_ns(t)) {
            RunOutcome::Idle(r) => break r,
            RunOutcome::DeadlineReached => assert_inflight_contiguous(&v.world()),
        }
    };
    let leaked = report.parked.len();
    let trace_json = if trace {
        v.world().trace.to_json()
    } else {
        String::new()
    };
    let order = lock(&got).clone();
    // The receive-side window state must be fully drained: nothing held,
    // nothing mid-copy, nothing parked in the reorder buffer — and the
    // sender keeps nothing for retransmission.
    let w = v.world();
    for end in w.chan_ends.of(&w.nodes[0]) {
        assert!(
            end.win.inflight.is_empty(),
            "unacked fragments at quiescence"
        );
    }
    for end in w.chan_ends.of(&w.nodes[1]) {
        assert!(end.winrx.ready.is_empty(), "reorder buffer not drained");
        assert!(end.winrx.copying.is_empty(), "copy in flight at quiescence");
        assert_eq!(end.winrx.held, 0, "credit leaked by consumed messages");
    }
    assert_eq!(invariants::check(&w, 0), [] as [&str; 0]);
    (order, leaked, trace_json)
}

/// The property the sender's `VecDeque` indexing (`frag − front`) rests on:
/// every end's in-flight fragment numbers are one contiguous ascending run,
/// never longer than the window.
fn assert_inflight_contiguous(w: &World) {
    for end in w.nodes.iter().flat_map(|n| w.chan_ends.of(n)) {
        let frags: Vec<u32> = end.win.inflight.iter().map(|fr| fr.frag()).collect();
        assert!(
            frags.windows(2).all(|p| p[0] + 1 == p[1]),
            "in-flight fragments not contiguous: {frags:?}"
        );
        assert!(frags.len() <= end.cfg.window as usize, "window overrun");
    }
}

/// Expected stream for `sizes`.
fn expect(sizes: &[usize]) -> Vec<Vec<u8>> {
    sizes.iter().enumerate().map(|(i, &l)| msg(i, l)).collect()
}

/// Windowed mode on a clean network: byte-identical in-order delivery,
/// including messages large enough to fragment (multi-fragment reassembly
/// through the reorder buffer).
#[test]
fn windowed_delivers_in_order_with_fragmentation() {
    let sizes = [4usize, 256, 1024, 3000, 1, 2500, 64, 5000];
    let (order, leaked, _) = stream_with(
        Calibration::paper_1988_windowed(8),
        FaultSchedule::new(3),
        &sizes,
        false,
    );
    assert_eq!(order, expect(&sizes));
    assert_eq!(leaked, 0);
}

/// A window larger than the stream still flushes and closes cleanly.
#[test]
fn window_larger_than_stream_flushes_on_close() {
    let sizes = [16usize; 3];
    let (order, leaked, _) = stream_with(
        Calibration::paper_1988_windowed(16),
        FaultSchedule::new(5),
        &sizes,
        false,
    );
    assert_eq!(order, expect(&sizes));
    assert_eq!(leaked, 0);
}

/// The reorder buffer and credit pool are hard bounds: with a tiny receive
/// window and loss on every link, fragments beyond the bounds are dropped
/// and retransmitted — delivery stays exact, and nothing leaks.
#[test]
fn tiny_reorder_and_credit_bounds_still_deliver_exactly_once() {
    let mut c = Calibration::paper_1988_windowed(4);
    c.chan_rx_frag_buffers = 4;
    c.chan_reorder_frags = 2;
    let schedule = FaultSchedule::new(11).all_links(LinkFaults::loss(0.05));
    let sizes = [200usize; 10];
    let (order, leaked, _) = stream_with(c, schedule, &sizes, false);
    assert_eq!(order, expect(&sizes));
    assert_eq!(leaked, 0);
}

/// Determinism: the same (seed, window) pair replays bit-identically, and
/// the window size genuinely changes the execution (so the comparison is
/// not vacuous).
#[test]
fn same_seed_same_window_replays_bit_identically() {
    let sizes = [256usize; 6];
    let schedule = || FaultSchedule::new(42).all_links(LinkFaults::loss(0.03));
    let run = |w: u32| {
        stream_with(
            Calibration::paper_1988_windowed(w),
            schedule(),
            &sizes,
            true,
        )
    };
    let (order_a, leaked_a, trace_a) = run(4);
    let (order_b, leaked_b, trace_b) = run(4);
    assert_eq!(order_a, expect(&sizes));
    assert_eq!(order_a, order_b);
    assert_eq!(leaked_a, leaked_b);
    assert!(trace_a.len() > 2, "trace must record");
    assert_eq!(trace_a, trace_b, "same window must replay bit-identically");
    // Different window, same seed: a different execution.
    let (order_c, _, trace_c) = run(1);
    assert_eq!(order_c, expect(&sizes));
    assert_ne!(trace_a, trace_c, "window size must change the schedule");
}

/// The windowed pipeline is actually faster: the same workload finishes in
/// less simulated time at W=8 than at W=1 (the full goodput comparison
/// against the paper's tables lives in the `datapath` campaign).
#[test]
fn windowed_finishes_sooner_than_stop_and_wait() {
    let sizes = [256usize; 16];
    let finish = |w: u32| {
        let mut v = VorxBuilder::single_cluster(2)
            .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
            .calibration(Calibration::paper_1988_windowed(w))
            .trace(false)
            .build();
        let sizes_w: Vec<usize> = sizes.to_vec();
        v.spawn("n0:w", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(0), "t");
            for (i, &len) in sizes_w.iter().enumerate() {
                ch.write(&ctx, Payload::copy_from(&msg(i, len))).unwrap();
            }
            ch.close(&ctx);
        });
        let done = Arc::new(Mutex::new(0u64));
        let sink = Arc::clone(&done);
        v.spawn("n1:r", move |ctx| {
            let ch = channel::open(&ctx, NodeAddr(1), "t");
            for _ in 0..16 {
                ch.read(&ctx).unwrap();
            }
            *lock(&sink) = ctx.now().as_ns();
        });
        v.run_all();
        assert_eq!(invariants::check(&v.world(), 0), [] as [&str; 0]);
        let t = *lock(&done);
        assert!(t > 0);
        t
    };
    let t1 = finish(1);
    let t8 = finish(8);
    assert!(
        t8 * 4 <= t1 * 3,
        "W=8 ({t8} ns) should beat W=1 ({t1} ns) clearly"
    );
}

/// A windowed ack naming fragments the sender does not hold — selective-ack
/// bits past the in-flight tail, or a stale cumulative ack whose bits fall
/// below the front — must change nothing: no fragment marked, no timer
/// chain restarted, no index out of range.
#[test]
fn sack_bits_outside_the_inflight_run_are_ignored() {
    let mut v = VorxBuilder::single_cluster(2)
        .objmgr(ObjMgrMode::Centralized(NodeAddr(0)))
        .calibration(Calibration::paper_1988_windowed(4))
        .trace(false)
        .build();
    v.spawn("n0:writer", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(0), "sack");
        for i in 0..4 {
            ch.write(&ctx, Payload::copy_from(&msg(i, 64))).unwrap();
        }
        ctx.with(|w, s| {
            let snapshot = |w: &World| {
                let end = w.chan(NodeAddr(0), ch.id).unwrap();
                let marks: Vec<(u32, bool)> = end
                    .win
                    .inflight
                    .iter()
                    .map(|fr| (fr.frag(), fr.sacked))
                    .collect();
                (marks, end.win.chain.epoch, end.win.tx_limit)
            };
            let before = snapshot(w);
            let (front, len) = (before.0[0].0, before.0.len() as u32);
            assert!(len >= 2, "the window must still be in flight");
            let credit = before.2 - (front - 1);
            // Every bit from the tail on, on a duplicate of the last ack.
            let past_tail = !0u32 << len;
            // A reordered ack from before the stream began: its bits name
            // fragments 1.. which, below `front`, are long gone.
            for (cum, sack) in [(front - 1, past_tail), (0, (1u32 << (front - 1)) - 1)] {
                let forged = Frame::unicast(
                    NodeAddr(1),
                    NodeAddr(0),
                    proto::KIND_CHAN_WACK,
                    proto::chan_seq(ch.id, cum),
                    proto::pack_wack(sack, credit.min(before.2 - cum)),
                );
                channel::on_wack(w, s, NodeAddr(0), forged);
                assert_eq!(snapshot(w), before, "cum {cum} sack {sack:#x}");
            }
        });
        ch.close(&ctx);
    });
    v.spawn("n1:reader", |ctx| {
        let ch = channel::open(&ctx, NodeAddr(1), "sack");
        for i in 0..4 {
            assert_eq!(ch.read(&ctx).unwrap().bytes().unwrap().to_vec(), msg(i, 64));
        }
    });
    v.run_all();
    assert_eq!(invariants::check(&v.world(), 0), [] as [&str; 0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Duplicated and reordered acks under loss, W ∈ {1, 4, 16}: a share of
    /// the frames on every link — acks included — arrives late. 700 µs late
    /// overtakes the neighbouring acks (reordering); 25 ms late outlives
    /// the 20 ms ack timeout, so the fragment is retransmitted and acked
    /// twice (duplication). Delivery stays byte-identical, and
    /// `stream_with` checks the in-flight run every simulated millisecond.
    #[test]
    fn duplicated_and_reordered_acks_deliver_byte_identical(
        seed in 0u64..1_000_000,
        window in prop::sample::select(vec![1u32, 4, 16]),
        drop in 0.0f64..0.05,
        delay in 0.05f64..0.3,
        late in any::<bool>(),
    ) {
        let schedule = FaultSchedule::new(seed).all_links(LinkFaults {
            drop,
            corrupt: 0.0,
            delay,
            delay_ns: if late { 25_000_000 } else { 700_000 },
        });
        let sizes = [4usize, 1500, 256, 64, 2048, 1, 900, 256, 3000, 16];
        let (order, leaked, _) = stream_with(
            Calibration::paper_1988_windowed(window),
            schedule,
            &sizes,
            false,
        );
        prop_assert_eq!(order, expect(&sizes));
        prop_assert_eq!(leaked, 0);
    }

    /// Randomized loss/corruption with random seeds across window sizes:
    /// the windowed protocol delivers every message byte-identically, in
    /// order, exactly once, leaving no parked process and no receive-side
    /// window state behind.
    #[test]
    fn lossy_windowed_stream_delivers_byte_identical(
        seed in 0u64..1_000_000,
        window in prop::sample::select(vec![1u32, 4, 16]),
        drop in 0.0f64..0.06,
        corrupt in 0.0f64..0.04,
    ) {
        let schedule = FaultSchedule::new(seed).all_links(LinkFaults {
            drop,
            corrupt,
            delay: 0.0,
            delay_ns: 0,
        });
        let sizes = [4usize, 1500, 256, 64, 2048, 1, 900, 256];
        let (order, leaked, _) = stream_with(
            Calibration::paper_1988_windowed(window),
            schedule,
            &sizes,
            false,
        );
        prop_assert_eq!(order, expect(&sizes));
        prop_assert_eq!(leaked, 0);
    }
}
