//! Many FIFOs over one slab of slots.
//!
//! A model with one queue per link or per channel end pays, in a
//! `VecDeque` each, for every owner a run touches; the hardware and the
//! kernel it models pay for the messages they hold. [`Slots`] is one `Vec`
//! of slots with a free list, and a [`Fifo`] is a 12-byte handle into it —
//! head, tail and length — that owns no memory of its own. The slab grows
//! (by doubling) only when more items are held at once than ever before,
//! so a queue's first push allocates nothing once the slab has warmed up.
//!
//! A handle belongs to one slab: every call names both, and the owner of
//! the slab returns a handle's slots ([`Slots::clear`]) before dropping the
//! handle. [`Slots::occupied`] against the owners' lengths is the oracle
//! that none leaked.

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

/// One slot: an item and the next slot of its chain (a queue's, or the
/// free list's).
#[derive(Debug)]
struct Slot<T> {
    item: Option<T>,
    next: u32,
}

/// A slab of slots that many [`Fifo`]s share. See the module docs.
#[derive(Debug)]
pub struct Slots<T> {
    slots: Vec<Slot<T>>,
    /// First free slot, [`NIL`] when every slot holds an item.
    free: u32,
    /// Slots holding an item.
    occupied: u32,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            slots: Vec::new(),
            free: NIL,
            occupied: 0,
        }
    }
}

impl<T> Slots<T> {
    /// Slots holding an item: the sum of every live handle's length.
    pub fn occupied(&self) -> usize {
        self.occupied as usize
    }

    /// Append `item` to `q`, in a free slot, or a new one when none is free.
    pub fn push_back(&mut self, q: &mut Fifo, item: T) {
        let at = match self.free {
            NIL => self.grow(item),
            at => {
                let slot = &mut self.slots[at as usize];
                self.free = slot.next;
                slot.next = NIL;
                slot.item = Some(item);
                at
            }
        };
        match q.len {
            0 => q.head = at,
            _ => self.slots[q.tail as usize].next = at,
        }
        q.tail = at;
        q.len += 1;
        self.occupied += 1;
    }

    /// Remove and return the oldest item of `q`.
    pub fn pop_front(&mut self, q: &mut Fifo) -> Option<T> {
        if q.len == 0 {
            return None;
        }
        let at = q.head;
        let slot = &mut self.slots[at as usize];
        let item = slot.item.take();
        q.head = std::mem::replace(&mut slot.next, self.free);
        self.free = at;
        q.len -= 1;
        self.occupied -= 1;
        item
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
        (q.len > 0).then(|| self.item(q.head))
    }

    /// The newest item of `q`.
    pub fn back(&self, q: &Fifo) -> Option<&T> {
        (q.len > 0).then(|| self.item(q.tail))
    }

    /// The `i`-th oldest item of `q`, reached by walking `i` slots.
    pub fn get_mut(&mut self, q: &Fifo, i: usize) -> Option<&mut T> {
        if i >= q.len() {
            return None;
        }
        let mut at = q.head;
        for _ in 0..i {
            at = self.slots[at as usize].next;
        }
        self.slots[at as usize].item.as_mut()
    }

    /// The items of `q`, oldest first.
    pub fn iter<'a>(&'a self, q: &Fifo) -> impl Iterator<Item = &'a T> + 'a {
        let mut at = q.head;
        (0..q.len).map(move |_| {
            let slot = &self.slots[at as usize];
            at = slot.next;
            slot.item.as_ref().expect("a queued slot holds its item")
        })
    }

    /// Drop every item of `q` and return its slots to the free list.
    pub fn clear(&mut self, q: &mut Fifo) {
        while self.pop_front(q).is_some() {}
    }

    /// A new slot holding `item`, at the end of the slab. Out of line: the
    /// slab grows only past its high-water mark, and `push_back`'s common
    /// path, a free slot, stays small.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, item: T) -> u32 {
        let at = u32::try_from(self.slots.len()).expect("slots fit in u32");
        assert_ne!(at, NIL, "slab full");
        self.slots.push(Slot {
            item: Some(item),
            next: NIL,
        });
        at
    }

    fn item(&self, at: u32) -> &T {
        let slot = &self.slots[at as usize];
        slot.item.as_ref().expect("a queued slot holds its item")
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
    /// more slots than the most items ever queued at once.
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
        assert_eq!(slab.slots.len(), peak);
    }
}
