//! Many FIFOs over one slab of slots.
//!
//! A model with one queue per link or per channel end pays, in a
//! `VecDeque` each, for every owner a run touches; the hardware and the
//! kernel it models pay for the messages they hold. [`Slots`] is one
//! [`Slab`] of item-and-next slots, and a [`Fifo`] is a 12-byte handle into
//! it — head, tail and length — that owns no memory of its own. The slab
//! grows only when more items are held at once than ever before, so a
//! queue's first push allocates nothing once the slab has warmed up.
//!
//! A handle belongs to one slab: every call names both, and the owner of
//! the slab returns a handle's slots ([`Slots::clear`]) before dropping the
//! handle. [`Slots::occupied`] against the owners' lengths is the oracle
//! that none leaked.

use crate::slab::Slab;

/// No slot: the end of a chain.
const NIL: u32 = u32::MAX;

/// A FIFO queue held in a [`Slots`] slab: its oldest slot, its newest, and
/// how many it holds. The default handle is empty and owns no slot.
/// Neither `Clone` nor `Copy`: two handles to one chain would free it twice.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Fifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Fifo {
    /// Items queued.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One slot: an item and the next slot of its queue.
#[derive(Debug)]
struct Slot<T> {
    item: T,
    next: u32,
}

/// A slab of slots that many [`Fifo`]s share. See the module docs.
#[derive(Debug)]
pub struct Slots<T> {
    slots: Slab<Slot<T>>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            slots: Slab::default(),
        }
    }
}

impl<T> Slots<T> {
    /// Slots holding an item: the sum of every live handle's length.
    pub fn occupied(&self) -> usize {
        self.slots.len()
    }

    /// Append `item` to `q`, in a free slot, or a new one when none is free.
    pub fn push_back(&mut self, q: &mut Fifo, item: T) {
        let at = self.slots.insert(Slot { item, next: NIL });
        match q.len {
            0 => q.head = at,
            _ => self.slots[q.tail].next = at,
        }
        q.tail = at;
        q.len += 1;
    }

    /// Remove and return the oldest item of `q`.
    pub fn pop_front(&mut self, q: &mut Fifo) -> Option<T> {
        if q.len == 0 {
            return None;
        }
        let Slot { item, next } = self.slots.remove(q.head);
        q.head = next;
        q.len -= 1;
        Some(item)
    }

    /// Remove and return the oldest item of `q` if `pop` says so.
    pub fn pop_front_if(&mut self, q: &mut Fifo, pop: impl FnOnce(&T) -> bool) -> Option<T> {
        match self.front(q) {
            Some(item) if pop(item) => self.pop_front(q),
            _ => None,
        }
    }

    /// The oldest item of `q`.
    pub fn front(&self, q: &Fifo) -> Option<&T> {
        (q.len > 0).then(|| &self.slots[q.head].item)
    }

    /// The newest item of `q`.
    pub fn back(&self, q: &Fifo) -> Option<&T> {
        (q.len > 0).then(|| &self.slots[q.tail].item)
    }

    /// The `i`-th oldest item of `q`, reached by walking `i` slots.
    pub fn get_mut(&mut self, q: &Fifo, i: usize) -> Option<&mut T> {
        if i >= q.len() {
            return None;
        }
        let mut at = q.head;
        for _ in 0..i {
            at = self.slots[at].next;
        }
        Some(&mut self.slots[at].item)
    }

    /// The items of `q`, oldest first.
    pub fn iter<'a>(&'a self, q: &Fifo) -> impl Iterator<Item = &'a T> + 'a {
        let mut at = q.head;
        (0..q.len).map(move |_| {
            let slot = &self.slots[at];
            at = slot.next;
            &slot.item
        })
    }

    /// Drop every item of `q` and return its slots to the free list.
    pub fn clear(&mut self, q: &mut Fifo) {
        while self.pop_front(q).is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn a_handle_is_twelve_bytes() {
        assert_eq!(size_of::<Fifo>(), 12);
    }

    /// Random pushes, pops, peeks, walks and clears over a few queues
    /// answer as one `VecDeque` per queue does, and the slab never holds
    /// more slots than a `Vec` of the most items ever queued at once.
    #[test]
    fn queues_match_a_vecdeque_each() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(7);
        let mut slab = Slots::default();
        let mut qs: Vec<Fifo> = (0..5).map(|_| Fifo::default()).collect();
        let mut model: Vec<VecDeque<u32>> = vec![VecDeque::new(); 5];
        let mut peak = 0;
        for step in 0..20_000u32 {
            let k = rng.below(5) as usize;
            let (q, m) = (&mut qs[k], &mut model[k]);
            match rng.below(10) {
                0..=4 => {
                    slab.push_back(q, step);
                    m.push_back(step);
                }
                5..=7 => assert_eq!(slab.pop_front(q), m.pop_front()),
                8 => {
                    let i = rng.below(4) as usize;
                    assert_eq!(slab.get_mut(q, i).copied(), m.get(i).copied());
                    let odd = |x: &u32| x % 2 == 1;
                    let want = m.front().copied().filter(odd);
                    assert_eq!(slab.pop_front_if(q, odd), want);
                    if want.is_some() {
                        m.pop_front();
                    }
                }
                _ if step % 97 == 0 => {
                    slab.clear(q);
                    m.clear();
                }
                _ => {}
            }
            assert_eq!(slab.front(q), m.front());
            assert_eq!(slab.back(q), m.back());
            assert_eq!(q.len(), m.len());
            assert!(slab.iter(q).eq(m.iter()));
            let live: usize = model.iter().map(VecDeque::len).sum();
            assert_eq!(slab.occupied(), live);
            peak = peak.max(live);
        }
        let pushed = (0..peak).fold(Vec::new(), |mut v, i| {
            v.push(i);
            v
        });
        assert_eq!(slab.slots.capacity(), pushed.capacity());
    }
}
