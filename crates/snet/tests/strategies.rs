//! Additional S/NET strategy behaviour tests.

use snet::{SnetSim, Strategy};

const SEC: u64 = 1_000_000_000;

/// Under the reservation protocol, a receiver grants one sender at a time,
/// so deliveries from different senders interleave rather than one sender
/// monopolizing the receiver.
#[test]
fn reservation_interleaves_senders() {
    let mut sim = SnetSim::new(4, Strategy::Reservation, 9);
    for s in 1..4 {
        sim.enqueue(s, 0, 1024, 6, 0);
    }
    let r = sim.run(30 * SEC);
    assert!(r.completed);
    // In the first 9 deliveries, every sender appears.
    let first: Vec<usize> = r.delivered[0].iter().take(9).map(|(_, s, _)| *s).collect();
    for s in 1..4 {
        assert!(first.contains(&s), "sender {s} starved early: {first:?}");
    }
}

/// Random backoff with a single contender behaves like busy retry (no
/// rejections means no backoff is ever taken).
#[test]
fn backoff_without_contention_is_free() {
    let mk = |strategy| {
        let mut sim = SnetSim::new(2, strategy, 5);
        sim.enqueue_paced(1, 0, 512, 5, 0, 300_000);
        sim.run(SEC)
    };
    let retry = mk(Strategy::BusyRetry);
    let back = mk(Strategy::RandomBackoff);
    assert!(retry.completed && back.completed);
    assert_eq!(retry.rejects, 0);
    assert_eq!(back.rejects, 0);
    assert_eq!(retry.last_delivery_ns, back.last_delivery_ns);
}

/// Lockout is an offered-load phenomenon: a burst that fits the FIFO
/// completes; a sustained blast beyond the drain rate wedges — at any
/// message size the bus outruns the receiving kernel.
#[test]
fn lockout_depends_on_offered_load() {
    let run = |len: u32, count: u64| {
        let mut sim = SnetSim::new(9, Strategy::BusyRetry, 3);
        for s in 1..9 {
            sim.enqueue(s, 0, len, count, 0);
        }
        sim.run(30 * SEC).completed
    };
    // 8 senders x 3 x 76B = 1824B: the whole burst fits the 2048B FIFO.
    assert!(run(64, 3), "a FIFO-sized burst should complete");
    // Sustained blasts wedge, short or long.
    assert!(
        !run(64, 40),
        "sustained short-message blast should lock out"
    );
    assert!(!run(1024, 10), "long-message blast should lock out");
}
