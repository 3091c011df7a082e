//! `desim::spsc` under two threads: FIFO, every value dropped exactly once,
//! and — because a mailbox is a `VecDeque` that keeps its capacity and grows
//! by doubling — at most `1 + ⌈log₂ max_depth⌉` allocations for a queue never
//! deeper than `max_depth`, however many values pass through it (14–16
//! measured for a million values, the queue 18–68 thousand deep). A stress
//! test shows the absence of nothing; the queue's ordering is its lock's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use desim::spsc;

#[path = "common/alloc_meter.rs"]
mod alloc_meter;

const N: u64 = 1_000_000;
/// Values left in the queue when both halves are dropped.
const LEFT: u64 = 1_000;

static DROPS: AtomicU64 = AtomicU64::new(0);

/// A boxed sequence number that counts its drops.
struct Tracked(Box<u64>);

impl Drop for Tracked {
    fn drop(&mut self) {
        DROPS.fetch_add(1, Ordering::Relaxed);
    }
}

/// xorshift64: burst lengths need no quality, only to differ.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
// A mailbox joins two shard workers, which are OS threads; so does this test.
#[allow(clippy::disallowed_methods)]
fn bursts_across_threads_stay_fifo_drop_once_and_grow_by_doubling() {
    let (tx, rx) = spsc::pair::<Tracked>();
    // Values popped so far, published after each pop: what the producer
    // reads here is at most what the consumer has taken, so `pushed - popped`
    // bounds the depth the producer's next `push` can find from above.
    let popped = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(2));

    let producer = {
        let (popped, start) = (Arc::clone(&popped), Arc::clone(&start));
        std::thread::spawn(move || {
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut max_depth = 0;
            start.wait();
            let allocs_before = alloc_meter::calls();
            let mut i = 0;
            while i < N {
                // Bursts of 1..=64 pushes, then a pause of up to 63 spins,
                // so the queue runs both empty and deep.
                for _ in 0..=next(&mut rng) % 64 {
                    if i == N {
                        break;
                    }
                    max_depth = max_depth.max(i + 1 - popped.load(Ordering::Acquire));
                    tx.push(Tracked(Box::new(i)));
                    i += 1;
                }
                for _ in 0..next(&mut rng) % 64 {
                    std::hint::spin_loop();
                }
            }
            // One box per value; the rest grew the queue.
            let growths = alloc_meter::calls() - allocs_before - N;
            (tx, growths, max_depth)
        })
    };

    let mut rng = 0xD1B5_4A32_D192_ED03u64;
    start.wait();
    let mut want = 0;
    while want < N - LEFT {
        for _ in 0..=next(&mut rng) % 64 {
            let Some(v) = rx.pop() else { break };
            assert_eq!(*v.0, want, "SPSC reordered");
            want += 1;
            drop(v);
            popped.store(want, Ordering::Release);
            if want == N - LEFT {
                break;
            }
        }
        for _ in 0..next(&mut rng) % 64 {
            std::hint::spin_loop();
        }
    }
    let (tx, growths, max_depth) = producer.join().expect("producer panicked");

    assert_eq!(DROPS.load(Ordering::Relaxed), N - LEFT);
    // A buffer that starts at one slot or more and doubles reaches
    // `max_depth` slots within `1 + ⌈log₂ max_depth⌉` allocations.
    let bound = 1 + u64::from(max_depth.next_power_of_two().ilog2());
    assert!(
        growths <= bound,
        "{growths} allocations for {N} values through a queue never deeper than \
         {max_depth}: more than 1 + ⌈log₂ {max_depth}⌉ = {bound}"
    );
    // The next value is the first left behind; put it back with the rest.
    let next = rx.pop().expect("values still queued");
    assert_eq!(*next.0, N - LEFT);
    tx.push(next);
    drop(tx);
    drop(rx);
    assert_eq!(
        DROPS.load(Ordering::Relaxed),
        N,
        "the {LEFT} values still queued are dropped with the queue, once"
    );
}
