//! Unbounded lock-free single-producer/single-consumer queue.
//!
//! The asynchronous sharded engine ([`crate::ShardedSim`]) keeps one of
//! these per *directed* cross-shard link: the worker that owns the source
//! shard is the only pusher and the worker that owns the destination shard
//! is the only popper, so the single-producer/single-consumer contract holds
//! by construction (and by type: neither half is `Clone` or `Sync`). The
//! queue is a dummy-node linked list with Vyukov's node cache: the consumer
//! never frees a node, it only moves `head` past it, and the producer takes
//! its next node from behind `head` before it asks the allocator. So a
//! mailbox allocates up to the deepest it has ever been (plus the dummy) and
//! then never again; `push` is one `Acquire` load at most and one `Release`
//! store, `pop` one `Acquire` load and one `Release` store — no mutex, no
//! condvar, no spinning, which is what lets shards exchange messages while
//! both sides keep executing. The words each side writes sit on separate
//! cache lines.
//!
//! The orderings are argued at each `SAFETY:` note below, and exercised by
//! `tests/spsc_reuse.rs`; the exhaustive-interleaving checker of ROADMAP
//! item 4(d) is still open, and this file is its first customer.

use std::cell::Cell;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

struct Node<T> {
    next: AtomicPtr<Node<T>>,
    /// `Some` exactly in the nodes after `head`: not in the dummy, not in a
    /// node waiting for reuse.
    val: Option<T>,
}

impl<T> Node<T> {
    fn alloc(val: Option<T>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            next: AtomicPtr::new(ptr::null_mut()),
            val,
        }))
    }
}

/// The one word the consumer writes.
#[repr(align(64))]
struct ConsumerSide<T> {
    /// The current dummy node; the value stream starts at `head.next`. The
    /// producer reads it to learn which nodes it may reuse.
    head: AtomicPtr<Node<T>>,
}

/// The producer's words; nobody else reads them while a [`Sender`] lives.
#[repr(align(64))]
struct ProducerSide<T> {
    /// The most recently pushed node.
    tail: Cell<*mut Node<T>>,
    /// The oldest node of the list. Every node ever allocated is on the one
    /// chain `first → … → head → … → tail`; those before `head` are spent.
    first: Cell<*mut Node<T>>,
    /// `head` as last loaded: the nodes from `first` up to it are ours.
    head_seen: Cell<*mut Node<T>>,
}

struct Inner<T> {
    consumer: ConsumerSide<T>,
    producer: ProducerSide<T>,
    /// The queue owns `T`s in transit.
    _owns: PhantomData<T>,
}

// SAFETY: `producer`'s cells are touched only through the one `Sender` (which
// is not `Sync`, so by one thread at a time) and by `drop`, which has `&mut`;
// `consumer.head` is an atomic. The nodes behind the raw pointers are reached
// under the SPSC discipline argued in `push` and `pop`. Values move from the
// pushing thread to the popping (or dropping) one, hence `T: Send`; no `&T`
// is ever shared.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let mut p = self.producer.first.get();
        while !p.is_null() {
            // SAFETY: both halves are gone, so every node is exclusively
            // ours; `first` starts the chain that links them all, each made
            // by `Node::alloc`. Dropping the box drops a value still queued.
            let mut boxed = unsafe { Box::from_raw(p) };
            p = *boxed.next.get_mut();
        }
    }
}

/// Makes a half `!Sync`, so that `&self` methods have one caller at a time.
type NotSync = PhantomData<Cell<()>>;

/// The producer half. Not cloneable and not `Sync`: exactly one producer
/// may exist, on one thread at a time.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
    _one_thread: NotSync,
}

/// The consumer half. Not cloneable and not `Sync`: exactly one consumer
/// may exist, on one thread at a time.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
    _one_thread: NotSync,
}

/// Create a connected `(Sender, Receiver)` pair.
pub fn pair<T: Send>() -> (Sender<T>, Receiver<T>) {
    let dummy = Node::alloc(None);
    let inner = Arc::new(Inner {
        consumer: ConsumerSide {
            head: AtomicPtr::new(dummy),
        },
        producer: ProducerSide {
            tail: Cell::new(dummy),
            first: Cell::new(dummy),
            head_seen: Cell::new(dummy),
        },
        _owns: PhantomData,
    });
    (
        Sender {
            inner: Arc::clone(&inner),
            _one_thread: PhantomData,
        },
        Receiver {
            inner,
            _one_thread: PhantomData,
        },
    )
}

impl<T: Send> Sender<T> {
    /// Append `v` to the queue. Never blocks; allocates only when every node
    /// made so far is still queued.
    pub fn push(&self, v: T) {
        let p = &self.inner.producer;
        let first = p.first.get();
        if first == p.head_seen.get() {
            // This `Acquire` load pairs with `pop`'s `Release` store of
            // `head` — the reuse edge: everything the consumer did to the
            // nodes it has passed happened before what we do to them next.
            p.head_seen
                .set(self.inner.consumer.head.load(Ordering::Acquire));
        }
        let node = if first == p.head_seen.get() {
            Node::alloc(Some(v))
        } else {
            // SAFETY: `first` is strictly behind `head` as the consumer
            // published it, so the consumer has read its `next` (to step
            // off it) and emptied its `val` (when it was `head.next`) for the
            // last time, both before the `Release` store we acquired above or
            // an earlier one; it never goes back, and nobody else has the
            // pointer. Its `next` is the link we stored when we pushed the
            // node after it, and that node is `head` at the furthest, so it
            // is live. From here until the `Release` store below republishes
            // it, the node is ours alone.
            unsafe {
                p.first.set((*first).next.load(Ordering::Relaxed));
                (*first).next.store(ptr::null_mut(), Ordering::Relaxed);
                debug_assert!((*first).val.is_none());
                (*first).val = Some(v);
            }
            first
        };
        let prev = p.tail.replace(node);
        // SAFETY: `prev` is the last node we pushed (or the first dummy): at
        // or after `head`, so never reused or freed while we hold it, and its
        // `next` is still null — the consumer only reads it. This `Release`
        // store publishes `node` whole (its value and its null `next`); the
        // consumer's `Acquire` load of this word pairs with it.
        unsafe { (*prev).next.store(node, Ordering::Release) };
    }
}

impl<T: Send> Receiver<T> {
    /// Remove and return the oldest element, or `None` if the queue is
    /// currently empty. Never blocks, never frees: the node it steps off is
    /// the producer's to reuse.
    pub fn pop(&self) -> Option<T> {
        // Single consumer: we are the only one that moves `head`.
        let head = self.inner.consumer.head.load(Ordering::Relaxed);
        // SAFETY: `head` is live — the producer reuses only nodes strictly
        // behind the `head` it has seen, and nothing is freed before drop.
        let next = unsafe { (*head).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // SAFETY: the `Acquire` load above saw the producer's `Release`
        // store of `next`, so the node is fully written; it is after `head`,
        // so the producer will not touch its `val` again until we publish a
        // `head` beyond it. Taking the value leaves it fit to be the dummy.
        let v = unsafe { (*next).val.take() };
        // `Release`: our read of `head.next` and our write of `next.val` are
        // done before the producer can see `head` move and take either node
        // back (see `push`).
        self.inner.consumer.head.store(next, Ordering::Release);
        Some(v.expect("SPSC node published without a value"))
    }

    /// True iff no element is currently queued (advisory: the producer may
    /// push concurrently).
    pub fn is_empty(&self) -> bool {
        let head = self.inner.consumer.head.load(Ordering::Relaxed);
        // SAFETY: as in `pop`.
        unsafe { (*head).next.load(Ordering::Acquire) }.is_null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_same_thread() {
        let (tx, rx) = pair::<u32>();
        assert!(rx.is_empty());
        for i in 0..100 {
            tx.push(i);
        }
        assert!(!rx.is_empty());
        for i in 0..100 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
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
        assert!(rx.is_empty());
    }

    #[test]
    fn drop_releases_queued_values() {
        // Drop with values still queued: every element must be dropped once.
        use std::sync::atomic::AtomicUsize;
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
        drop(rx); // four queued, dropped by Inner::drop
        assert_eq!(DROPS.load(Ordering::Relaxed), 5);
    }
}
