//! The workspace's one event queue. Events fire in `(time, seq)` order, `seq`
//! counting the calls that scheduled them, so actions due at one instant fire
//! in call order: [`EventQueue`], which `desim`'s `Scheduler`, `hpcnet`'s
//! standalone driver and the S/NET simulator each keep their own loop around.
//! The [`MinHeap`] under it also merges `ShardedSim`'s cross-shard messages,
//! by a key drawn at the sender. Time is `u64` ns.

// The workspace's one `BinaryHeap`: the root `clippy.toml` refuses it
// everywhere else.
#![allow(clippy::disallowed_types)]

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Values `V`, which need no ordering, popped least key `K` first. Equal keys
/// pop in no fixed order: a caller that needs one makes its keys unique.
pub struct MinHeap<K, V>(BinaryHeap<Keyed<K, V>>);

struct Keyed<K, V> {
    key: K,
    val: V,
}

impl<K: Ord, V> PartialEq for Keyed<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord, V> Eq for Keyed<K, V> {}
impl<K: Ord, V> PartialOrd for Keyed<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, V> Ord for Keyed<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap.
        other.key.cmp(&self.key)
    }
}

impl<K: Ord, V> Default for MinHeap<K, V> {
    fn default() -> Self {
        MinHeap(BinaryHeap::new())
    }
}

impl<K: Ord, V> MinHeap<K, V> {
    /// Add `val` under `key`.
    pub fn push(&mut self, key: K, val: V) {
        self.0.push(Keyed { key, val });
    }

    /// The entry with the least key.
    pub fn peek(&self) -> Option<(&K, &V)> {
        self.0.peek().map(|e| (&e.key, &e.val))
    }

    /// Take out the entry with the least key.
    pub fn pop(&mut self) -> Option<(K, V)> {
        self.0.pop().map(|e| (e.key, e.val))
    }
}

/// Actions `A` in `(time, seq)` order, and the clock they move.
pub struct EventQueue<A> {
    now: u64,
    seq: u64,
    heap: MinHeap<(u64, u64), A>,
    /// Actions pushed *at* `now`, FIFO, so in `seq` order: O(1) for the
    /// dominant zero-delay cascade. The clock moves only while the lane is
    /// empty, so a heap entry at `now` was pushed before the clock got there,
    /// ahead of every lane entry; `pop` relies on it.
    lane: VecDeque<A>,
}

impl<A> Default for EventQueue<A> {
    fn default() -> Self {
        EventQueue {
            now: 0,
            seq: 0,
            heap: MinHeap::default(),
            lane: VecDeque::new(),
        }
    }
}

impl<A> EventQueue<A> {
    /// The clock, ns.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Actions queued.
    pub fn len(&self) -> usize {
        self.heap.0.len() + self.lane.len()
    }

    /// Whether no action is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.0.is_empty() && self.lane.is_empty()
    }

    /// Queue `a` to fire `d` after the clock: [`EventQueue::push`] at `now + d`.
    #[inline]
    pub fn push_in(&mut self, d: u64, a: A) {
        let t = self.now.checked_add(d).expect("the clock ran past u64 ns");
        self.push(t, a);
    }

    /// Queue `a` to fire at `t`, after everything already queued for `t`.
    /// Panics if `t` is before the clock, in every build.
    #[inline]
    pub fn push(&mut self, t: u64, a: A) {
        assert!(
            t >= self.now,
            "an event at {t} ns is in the past: the clock reads {} ns",
            self.now
        );
        if t == self.now {
            self.lane.push_back(a);
        } else {
            self.heap.push((t, self.seq), a);
        }
        self.seq += 1;
    }

    /// Take out the earliest action, moving the clock to its time, if it is
    /// due by `limit`. Otherwise `None`, and if anything is queued the clock
    /// stands at `limit` (never moved back).
    #[inline]
    pub fn pop(&mut self, limit: u64) -> Option<A> {
        let t = self.peek_time()?;
        if t > limit {
            self.now = self.now.max(limit);
            return None;
        }
        self.now = t;
        // Of the actions due at `t`, the heap's were pushed first (see `lane`).
        if self.heap.peek().is_some_and(|(&(h, _), _)| h == t) {
            self.heap.pop().map(|(_, a)| a)
        } else {
            self.lane.pop_front()
        }
    }

    /// When the earliest action is due.
    #[inline]
    pub fn peek_time(&self) -> Option<u64> {
        if self.lane.is_empty() {
            self.heap.peek().map(|(&(t, _), _)| t)
        } else {
            Some(self.now)
        }
    }

    /// Keep only the actions `keep` accepts, the heap's first, then the
    /// lane's in order. Keys are unique, so what is left pops as before.
    pub fn retain(&mut self, mut keep: impl FnMut(&A) -> bool) {
        self.heap.0.retain(|e| keep(&e.val));
        self.lane.retain(|a| keep(a));
    }

    /// The heap's earliest action, the lane aside.
    pub(crate) fn heap_head(&self) -> Option<&A> {
        self.heap.peek().map(|(_, a)| a)
    }

    /// Take out [`EventQueue::heap_head`] unfired; the clock stays.
    pub(crate) fn take_heap_head(&mut self) -> Option<A> {
        self.heap.pop().map(|(_, a)| a)
    }

    /// Move the clock forward to `t`, never back, past nothing queued.
    pub fn advance_to(&mut self, t: u64) {
        if t > self.now {
            assert!(
                self.peek_time().is_none_or(|h| h >= t),
                "advancing the clock to {t} ns would pass queued events"
            );
            self.now = t;
        }
    }
}
