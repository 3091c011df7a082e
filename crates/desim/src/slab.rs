//! One pool discipline for every table the model keeps.
//!
//! A [`Slab`] hands out `u32` keys and threads its free list through its
//! vacant entries. It grows a chunk at a time — 4, 4, 8, 16 … entries, so
//! its capacity is what a `Vec` would hold after the same pushes — but a
//! new chunk joins the old ones: growing never copies or moves an entry.
//! A chunk is written only as its keys are first handed out, so, as with a
//! `Vec`'s spare capacity, the pages of its untouched end cost no memory.
//!
//! A [`FirstTouch`] table sits over a slab: one zeroed `u32` per id, where
//! 0 means untouched and names the slab's first entry, a template. A new
//! table is zeroed memory, and a read of an untouched id reads the template.

use std::ops::{Index, IndexMut};

/// No entry: the end of the free list.
const NIL: u32 = u32::MAX;

/// Chunks a [`Slab`] may grow: 2³¹ entries, every key below [`NIL`].
pub(crate) const CHUNKS: usize = 30;

/// The chunk a key falls in and its offset there. Chunk 0 holds keys 0–3
/// and chunk `k ≥ 1` the `2^(k+1)` keys from `2^(k+1)` on. Inline: every
/// slab read in every crate computes it, and `Slab` is instantiated there.
#[inline]
pub(crate) fn chunk_of(key: u32) -> (usize, usize) {
    let top = (key | 3).ilog2();
    let start = (1 << top) & !3;
    (top as usize - 1, (key - start) as usize)
}

/// Entries in chunk `k`.
pub(crate) fn chunk_len(k: usize) -> usize {
    2 << k.max(1)
}

/// An entry of a [`Slab`]: a value, or vacant and linked to the next
/// vacant entry.
#[derive(Debug)]
enum Entry<T> {
    Vacant(u32),
    Occupied(T),
}

/// Values under `u32` keys, in chunks that never move. See the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    /// Chunk 0, keys 0–3: up to four values, a slab allocates as a `Vec`
    /// would. Each chunk is a `Vec` of exactly its length's capacity, so it
    /// never reallocates.
    first: Vec<Entry<T>>,
    /// Chunks 1, 2 …, in a row sized for all of them when chunk 1 is added:
    /// past four values, one allocation more than a `Vec`'s.
    rest: Vec<Vec<Entry<T>>>,
    /// Keys handed out so far: the next key when no entry is vacant.
    top: u32,
    /// First vacant entry, [`NIL`] when none is.
    free: u32,
    /// Occupied entries.
    len: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            first: Vec::new(),
            rest: Vec::new(),
            top: 0,
            free: NIL,
            len: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries occupied or vacant: what a `Vec` would hold after as many
    /// pushes as the most values ever held at once.
    pub fn capacity(&self) -> usize {
        match self.top {
            0 => 0,
            top => 4 << chunk_of(top - 1).0,
        }
    }

    /// Store `value` in a vacant entry, or under a new key when none is
    /// vacant, and return its key.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        self.len += 1;
        if self.free == NIL {
            return self.push(value);
        }
        let key = self.free;
        let entry = self.entry(key);
        let Entry::Vacant(next) = *entry else {
            unreachable!("the free list names vacant entries")
        };
        *entry = Entry::Occupied(value);
        self.free = next;
        key
    }

    /// Take the value under `key` out, and put its entry on the free list.
    /// Panics if `key` is vacant.
    #[inline]
    pub fn remove(&mut self, key: u32) -> T {
        let free = Entry::Vacant(self.free);
        let Entry::Occupied(value) = std::mem::replace(self.entry(key), free) else {
            vacant(key)
        };
        self.free = key;
        self.len -= 1;
        value
    }

    /// Every value, with its key, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        let chunks = std::iter::once(&self.first).chain(&self.rest);
        let entries = chunks.flat_map(|c| c.iter());
        (0..).zip(entries).filter_map(|(key, entry)| match entry {
            Entry::Occupied(value) => Some((key, value)),
            Entry::Vacant(_) => None,
        })
    }

    #[inline]
    fn chunk(&self, k: usize) -> &Vec<Entry<T>> {
        if k == 0 {
            &self.first
        } else {
            &self.rest[k - 1]
        }
    }

    #[inline]
    fn chunk_mut(&mut self, k: usize) -> &mut Vec<Entry<T>> {
        if k == 0 {
            &mut self.first
        } else {
            &mut self.rest[k - 1]
        }
    }

    #[inline]
    fn entry(&mut self, key: u32) -> &mut Entry<T> {
        let (k, at) = chunk_of(key);
        &mut self.chunk_mut(k)[at]
    }

    /// Store `value` under the first key never handed out, in a new chunk
    /// if the last is full. Out of line: a slab comes here only past its
    /// high-water mark.
    #[cold]
    #[inline(never)]
    fn push(&mut self, value: T) -> u32 {
        let key = self.top;
        let (k, at) = chunk_of(key);
        assert!(k < CHUNKS, "over 2^31 slab entries");
        if at == 0 && k == 0 {
            self.first = Vec::with_capacity(chunk_len(0));
        } else if at == 0 {
            self.rest.reserve_exact(CHUNKS - 1 - self.rest.len());
            self.rest.push(Vec::with_capacity(chunk_len(k)));
        }
        let chunk = self.chunk_mut(k);
        debug_assert!(chunk.len() == at && at < chunk.capacity());
        chunk.push(Entry::Occupied(value));
        self.top += 1;
        key
    }
}

/// A read of a vacant or never handed out key: a bug in the caller. Out of
/// line, so that every read stays small enough to inline.
#[cold]
#[inline(never)]
fn vacant(key: u32) -> ! {
    panic!("slab key {key} is vacant")
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;
    #[inline]
    fn index(&self, key: u32) -> &T {
        let (k, at) = chunk_of(key);
        match &self.chunk(k)[at] {
            Entry::Occupied(value) => value,
            Entry::Vacant(_) => vacant(key),
        }
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, key: u32) -> &mut T {
        match self.entry(key) {
            Entry::Occupied(value) => value,
            Entry::Vacant(_) => vacant(key),
        }
    }
}

/// An entry per id, built on the id's first write; an untouched id reads
/// as the template. See the module docs.
#[derive(Debug)]
pub struct FirstTouch<T> {
    /// Per id: its entry's key in `rows`, 0 (the template) while untouched.
    ids: Vec<u32>,
    /// The template, which is never written, then one entry per touched id.
    rows: Slab<T>,
}

impl<T> FirstTouch<T> {
    /// A table of `n` ids, none touched, each reading as `template`.
    pub fn new(n: usize, template: T) -> Self {
        let mut rows = Slab::default();
        // The row of chunks at once: a first touch allocates only a chunk.
        rows.rest.reserve_exact(CHUNKS - 1);
        rows.insert(template);
        FirstTouch {
            ids: vec![0; n],
            rows,
        }
    }

    /// Ids, touched or not.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True iff the table has no id.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Id `i`'s entry, built by `make` on the first call for `i`.
    #[inline]
    pub fn get_or_insert_with(&mut self, i: usize, make: impl FnOnce() -> T) -> &mut T {
        if self.ids[i] == 0 {
            self.ids[i] = self.rows.insert(make());
        }
        &mut self.rows[self.ids[i]]
    }

    /// Every id's entry, the template for an untouched one, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.ids.iter().map(|&key| &self.rows[key])
    }

    /// The touched ids' entries, in id order.
    pub fn touched(&self) -> impl Iterator<Item = &T> + '_ {
        let keys = self.ids.iter().filter(|&&key| key != 0);
        keys.map(|&key| &self.rows[key])
    }

    /// Ids touched.
    pub fn touched_len(&self) -> usize {
        self.rows.len() - 1
    }
}

/// Id `i`'s entry, or the template while `i` is untouched.
impl<T> Index<usize> for FirstTouch<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.rows[self.ids[i]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random inserts and removes answer as a `Vec<Option<T>>` indexed by
    /// key does, vacant keys are reused before the slab grows, and the
    /// slab never holds more entries than a `Vec` of the most values ever
    /// held at once would.
    #[test]
    fn a_slab_matches_a_vec_of_options() {
        let mut rng = crate::rng::SmallRng::seed_from_u64(43);
        let mut slab = Slab::default();
        let mut model: Vec<Option<u64>> = Vec::new();
        let mut peak = Vec::new();
        for step in 0..6_000u64 {
            let held: Vec<u32> = (0..model.len() as u32)
                .filter(|&k| model[k as usize].is_some())
                .collect();
            if held.is_empty() || rng.below(5) < 3 {
                let key = slab.insert(step);
                if model.iter().any(Option::is_none) {
                    let vacant = model.get(key as usize).is_some_and(Option::is_none);
                    assert!(vacant, "a vacant key is reused before the slab grows");
                } else {
                    assert_eq!(key as usize, model.len());
                    model.push(None);
                }
                model[key as usize] = Some(step);
            } else {
                let key = held[rng.below(held.len() as u64) as usize];
                assert_eq!(Some(slab.remove(key)), model[key as usize].take());
            }
            let probe = rng.below(model.len() as u64) as u32;
            if let Some(v) = model[probe as usize].as_mut() {
                slab[probe] += 1;
                *v += 1;
            }
            assert_eq!(slab.len(), model.iter().flatten().count());
            while peak.len() < slab.len() {
                peak.push(0u64);
            }
            assert_eq!(slab.capacity(), peak.capacity());
            if step % 100 == 0 {
                let want = (0..)
                    .zip(&model)
                    .filter_map(|(k, v)| Some((k, v.as_ref()?)));
                assert!(slab.iter().eq(want));
            }
        }
    }

    #[test]
    fn capacity_follows_a_vecs_after_every_push() {
        let mut slab = Slab::default();
        let mut vec = Vec::new();
        for i in 0..5_000u64 {
            slab.insert(i);
            vec.push(i);
            assert_eq!(slab.capacity(), vec.capacity(), "after {} pushes", i + 1);
        }
    }

    #[test]
    fn a_held_entry_never_moves() {
        let mut slab = Slab::default();
        let key = slab.insert([7u64; 4]);
        let at: *const [u64; 4] = &slab[key];
        for i in 0..10_000 {
            slab.insert([i; 4]);
        }
        assert!(std::ptr::eq(at, &slab[key]), "growth moved an entry");
    }

    #[test]
    fn chunks_tile_the_keys() {
        let mut next = 0u64;
        for k in 0..CHUNKS {
            let first = u32::try_from(next).expect("a key");
            assert_eq!(chunk_of(first), (k, 0));
            let last = next + chunk_len(k) as u64 - 1;
            let last = u32::try_from(last).expect("a key");
            assert_eq!(chunk_of(last), (k, chunk_len(k) - 1));
            next += chunk_len(k) as u64;
        }
        assert_eq!(next, 1 << 31);
    }

    #[test]
    fn first_touch_builds_an_entry_on_the_first_write_only() {
        let mut t = FirstTouch::new(6, 'i');
        assert_eq!((t.len(), t.touched_len()), (6, 0));
        assert!((0..6).all(|i| t[i] == 'i'));
        *t.get_or_insert_with(4, || 'a') = 'b';
        assert_eq!(*t.get_or_insert_with(4, || unreachable!()), 'b');
        *t.get_or_insert_with(1, || 'c') = 'd';
        assert_eq!(t.touched().copied().collect::<String>(), "db");
        assert_eq!((t[4], t[0], t.touched_len()), ('b', 'i', 2));
    }
}
