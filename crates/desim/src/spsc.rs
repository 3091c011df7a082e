//! Unbounded single-producer/single-consumer mailbox.
//!
//! The asynchronous sharded engine ([`crate::ShardedSim`]) keeps one of
//! these per *directed* cross-shard link: the worker that owns the source
//! shard is the only pusher and the worker that owns the destination shard
//! is the only popper (neither half is `Clone`). Both halves share one
//! `VecDeque` behind a `Mutex`, taken through [`crate::lock`]; the engine
//! counts each mailbox beside it and locks no empty one ([`crate::shard`]).
//! A `VecDeque` keeps its capacity, so a mailbox allocates only while it
//! grows to its deepest backlog, doubling each time, and then never again.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::lock;

type Queue<T> = Arc<Mutex<VecDeque<T>>>;

/// The producer half. Not cloneable: a mailbox has one producer.
pub struct Sender<T>(Queue<T>);

/// The consumer half. Not cloneable: a mailbox has one consumer.
pub struct Receiver<T>(Queue<T>);

/// Create a connected `(Sender, Receiver)` pair.
pub fn pair<T: Send>() -> (Sender<T>, Receiver<T>) {
    let queue = Queue::default();
    (Sender(Arc::clone(&queue)), Receiver(queue))
}

impl<T: Send> Sender<T> {
    /// Append `v` to the queue. Allocates only when the queue is deeper than
    /// it has ever been.
    pub fn push(&self, v: T) {
        lock(&self.0).push_back(v);
    }
}

impl<T: Send> Receiver<T> {
    /// Remove and return the oldest element, or `None` if the queue is
    /// currently empty. Never frees: the slot stays for the next push.
    pub fn pop(&self) -> Option<T> {
        lock(&self.0).pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_same_thread() {
        let (tx, rx) = pair::<u32>();
        assert_eq!(rx.pop(), None);
        for i in 0..100 {
            tx.push(i);
        }
        for i in 0..100 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    // A mailbox joins two shard workers, which are OS threads; so does this test.
    #[allow(clippy::disallowed_methods)]
    fn cross_thread_stream() {
        let (tx, rx) = pair::<u64>();
        let n = 10_000u64;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                tx.push(i);
            }
        });
        let mut got = 0u64;
        while got < n {
            if let Some(v) = rx.pop() {
                assert_eq!(v, got, "SPSC reordered");
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn drop_releases_queued_values() {
        // Drop with values still queued: every element must be dropped once.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (tx, rx) = pair::<D>();
        for _ in 0..5 {
            tx.push(D);
        }
        let _ = rx.pop(); // one popped and dropped
        drop(tx);
        drop(rx); // four queued, dropped with the queue
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }
}
