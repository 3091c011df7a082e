//! World tables: one table per kind of per-node kernel state, keyed by
//! `(node, key)` (DESIGN.md §14).
//!
//! A node pays for kernel state only while it holds some. A [`Table`] keeps
//! every node's rows of one kind in one [`Slab`], with a hash index by
//! `(node, key)` for point operations and each node's rows linked through
//! the slab in key order, so [`Table::of`] reads them and [`Table::wipe`]
//! takes them in key order. The slab and the index grow with the rows the
//! whole world holds, and a row never moves: no node and no row costs an
//! allocation of its own.
//!
//! A table that a burst grew and then drained is freed as it empties,
//! unless it has room for at most [`HANDSHAKE_KEEP`] rows: that is cheaper
//! kept than built again by the next burst.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use desim::Slab;
use hpcnet::NodeAddr;

/// Rows an emptied table may keep room for.
pub const HANDSHAKE_KEEP: usize = 16;

/// No row: the end of a node's list.
const NIL: u32 = u32::MAX;

/// What a crash's wipe, [`crate::World::owns_nothing`] and the quiescence
/// oracles ([`crate::invariants`]) ask of every world table, whatever its
/// key and row.
pub trait NodeRows {
    /// True iff the table holds a row of node `a`.
    fn holds(&self, a: NodeAddr) -> bool;
    /// Rows node `a` holds.
    fn count(&self, a: NodeAddr) -> usize;
    /// Rows of every node.
    fn rows(&self) -> usize;
    /// Drop every row of node `a`, in key order.
    fn drop_rows(&mut self, a: NodeAddr);
}

/// One row of a [`Table`], linked to its node's neighbours in key order.
#[derive(Debug)]
struct Row<K, V> {
    key: K,
    val: V,
    prev: u32,
    next: u32,
}

/// What a [`Table`]'s index is keyed by: a row, or the ends of a node's
/// list (one index for both, so a table is two allocations, not three).
#[derive(Debug, PartialEq, Eq, Hash)]
enum At<K> {
    /// Indexes the row's slot.
    Row(NodeAddr, K),
    /// Indexes the node's first and last slots, packed high and low.
    Ends(NodeAddr),
}

/// The hasher of a [`Table`]'s index: `rustc`'s multiply-add over the
/// key's words, with fixed state. The index is never iterated where order
/// could reach an event, and its keys are small integers and short names
/// the simulation makes itself, so SipHash's defence against chosen keys
/// buys nothing here and costs a lookup on every frame.
#[derive(Debug, Default, Clone, Copy)]
struct RowHasher(u64);

impl RowHasher {
    fn add(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        let mut tail = [0; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Every node's rows of one kind, by `(node, key)`.
#[derive(Debug)]
pub struct Table<K, V> {
    /// The slot of each row, and the ends of each node's list.
    index: HashMap<At<K>, u64, BuildHasherDefault<RowHasher>>,
    /// The rows.
    rows: Slab<Row<K, V>>,
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table {
            index: HashMap::default(),
            rows: Slab::default(),
        }
    }
}

impl<K: Ord + Hash + Clone, V> Table<K, V> {
    fn slot(&self, a: NodeAddr, k: &K) -> Option<u32> {
        let slot = self.index.get(&At::Row(a, k.clone()))?;
        Some(*slot as u32)
    }

    /// Node `a`'s `(first, last)` slots, if it holds a row.
    fn ends(&self, a: NodeAddr) -> Option<(u32, u32)> {
        let e = self.index.get(&At::Ends(a))?;
        Some(((e >> 32) as u32, *e as u32))
    }

    fn set_ends(&mut self, a: NodeAddr, first: u32, last: u32) {
        if first == NIL {
            self.index.remove(&At::Ends(a));
        } else {
            let e = (u64::from(first) << 32) | u64::from(last);
            self.index.insert(At::Ends(a), e);
        }
    }

    /// Node `a`'s row `k`.
    pub fn get(&self, a: NodeAddr, k: &K) -> Option<&V> {
        Some(&self.rows[self.slot(a, k)?].val)
    }

    /// Mutable [`Table::get`].
    pub fn get_mut(&mut self, a: NodeAddr, k: &K) -> Option<&mut V> {
        let slot = self.slot(a, k)?;
        Some(&mut self.rows[slot].val)
    }

    /// True iff node `a` has a row `k`.
    pub fn contains(&self, a: NodeAddr, k: &K) -> bool {
        self.slot(a, k).is_some()
    }

    /// Set node `a`'s row `k` to `v`, returning the row it replaces.
    pub fn insert(&mut self, a: NodeAddr, k: K, v: V) -> Option<V> {
        if let Some(slot) = self.slot(a, &k) {
            return Some(std::mem::replace(&mut self.rows[slot].val, v));
        }
        self.add(a, k, v, true);
        None
    }

    /// Add row `k`, which node `a` does not hold, at the end of its list:
    /// a table whose rows all come this way lists each node's oldest
    /// first, and [`Table::pop_front`] takes them in that order.
    pub fn push_back(&mut self, a: NodeAddr, k: K, v: V) {
        debug_assert!(!self.contains(a, &k), "a row pushed twice");
        self.add(a, k, v, false);
    }

    /// Take node `a`'s first row off the table.
    pub fn pop_front(&mut self, a: NodeAddr) -> Option<(K, V)> {
        let k = self.first(a)?.0.clone();
        let v = self.remove(a, &k)?;
        Some((k, v))
    }

    /// Node `a`'s row `k`, built by `make` if it has none.
    pub fn get_or_insert_with(&mut self, a: NodeAddr, k: K, make: impl FnOnce() -> V) -> &mut V {
        let slot = match self.slot(a, &k) {
            Some(slot) => slot,
            None => self.add(a, k, make(), true),
        };
        &mut self.rows[slot].val
    }

    /// Link a new row `k` into node `a`'s list: at its end, or, if
    /// `sorted`, after the last row whose key is smaller, searched from the
    /// end, so rising keys append at once.
    fn add(&mut self, a: NodeAddr, k: K, v: V, sorted: bool) -> u32 {
        let (first, last) = self.ends(a).unwrap_or((NIL, NIL));
        let mut prev = last;
        while sorted && prev != NIL && self.rows[prev].key > k {
            prev = self.rows[prev].prev;
        }
        let next = match prev {
            NIL => first,
            p => self.rows[p].next,
        };
        let at = At::Row(a, k.clone());
        let slot = self.rows.insert(Row {
            key: k,
            val: v,
            prev,
            next,
        });
        if prev != NIL {
            self.rows[prev].next = slot;
        }
        if next != NIL {
            self.rows[next].prev = slot;
        }
        let first = if prev == NIL { slot } else { first };
        let last = if next == NIL { slot } else { last };
        self.set_ends(a, first, last);
        self.index.insert(at, u64::from(slot));
        slot
    }

    /// Take node `a`'s row `k` off the table.
    pub fn remove(&mut self, a: NodeAddr, k: &K) -> Option<V> {
        let slot = self.index.remove(&At::Row(a, k.clone()))? as u32;
        let row = self.rows.remove(slot);
        let (mut first, mut last) = self.ends(a).expect("a node with a row");
        match row.prev {
            NIL => first = row.next,
            p => self.rows[p].next = row.next,
        }
        match row.next {
            NIL => last = row.prev,
            n => self.rows[n].prev = row.prev,
        }
        self.set_ends(a, first, last);
        if self.rows.is_empty() && self.rows.capacity() > HANDSHAKE_KEEP {
            *self = Table::default();
        }
        Some(row.val)
    }

    /// Node `a`'s rows, in key order.
    pub fn of(&self, a: NodeAddr) -> impl Iterator<Item = (&K, &V)> + '_ {
        let mut at = self.ends(a).map_or(NIL, |e| e.0);
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let row = &self.rows[at];
            at = row.next;
            Some((&row.key, &row.val))
        })
    }

    /// Node `a`'s first row in key order that passes `pick`, mutably.
    pub fn find_mut(&mut self, a: NodeAddr, pick: impl Fn(&K, &V) -> bool) -> Option<(&K, &mut V)> {
        let mut at = self.ends(a).map_or(NIL, |e| e.0);
        while at != NIL && !pick(&self.rows[at].key, &self.rows[at].val) {
            at = self.rows[at].next;
        }
        if at == NIL {
            return None;
        }
        let row = &mut self.rows[at];
        Some((&row.key, &mut row.val))
    }

    /// Run `f` on each of node `a`'s rows, in key order.
    pub fn for_each_mut(&mut self, a: NodeAddr, mut f: impl FnMut(&K, &mut V)) {
        let mut at = self.ends(a).map_or(NIL, |e| e.0);
        while at != NIL {
            let row = &mut self.rows[at];
            f(&row.key, &mut row.val);
            at = row.next;
        }
    }

    /// Node `a`'s first row in key order.
    pub fn first(&self, a: NodeAddr) -> Option<(&K, &V)> {
        self.of(a).next()
    }

    /// True iff node `a` holds a row.
    pub fn holds(&self, a: NodeAddr) -> bool {
        self.index.contains_key(&At::Ends(a))
    }

    /// Rows node `a` holds.
    pub fn count(&self, a: NodeAddr) -> usize {
        self.of(a).count()
    }

    /// Take every row of node `a` off the table, in key order.
    pub fn wipe(&mut self, a: NodeAddr) -> Vec<(K, V)> {
        let mut out = Vec::new();
        while let Some((k, _)) = self.first(a) {
            let k = k.clone();
            let v = self.remove(a, &k).expect("a row just read");
            out.push((k, v));
        }
        out
    }

    /// Rows of every node.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no node holds a row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every node's rows, in no order an event may depend on: for a tally
    /// over the whole table.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.rows.iter().map(|(_, row)| &row.val)
    }
}

impl<K: Ord + Hash + Clone, V> NodeRows for Table<K, V> {
    fn holds(&self, a: NodeAddr) -> bool {
        Table::holds(self, a)
    }

    fn count(&self, a: NodeAddr) -> usize {
        Table::count(self, a)
    }

    fn rows(&self) -> usize {
        self.rows.len()
    }

    fn drop_rows(&mut self, a: NodeAddr) {
        drop(self.wipe(a));
    }
}

/// Every node's first-in, first-out queue of one kind: a [`Table`] keyed by
/// the order rows were pushed in, world-wide, so a node's rows read oldest
/// first and a push appends at once.
#[derive(Debug)]
pub struct Queue<V> {
    /// The rows, which [`crate::World::tables`] lists.
    pub(super) rows: Table<u64, V>,
    pushed: u64,
}

impl<V> Default for Queue<V> {
    fn default() -> Self {
        Queue {
            rows: Table::default(),
            pushed: 0,
        }
    }
}

impl<V> Queue<V> {
    /// Append `v` to node `a`'s queue.
    pub fn push(&mut self, a: NodeAddr, v: V) {
        self.rows.push_back(a, self.pushed, v);
        self.pushed += 1;
    }

    /// Take the oldest row off node `a`'s queue.
    pub fn pop(&mut self, a: NodeAddr) -> Option<V> {
        Some(self.rows.pop_front(a)?.1)
    }

    /// Take the rows of node `a`'s queue that pass `pick` off it, oldest
    /// first; the others keep their places.
    pub fn take_if(&mut self, a: NodeAddr, pick: impl Fn(&V) -> bool) -> Vec<V> {
        let keys: Vec<u64> = (self.rows.of(a))
            .filter(|(_, v)| pick(v))
            .map(|(k, _)| *k)
            .collect();
        keys.iter().filter_map(|k| self.rows.remove(a, k)).collect()
    }

    /// Node `a`'s queue, oldest first.
    pub fn of(&self, a: NodeAddr) -> impl Iterator<Item = &V> + '_ {
        self.rows.of(a).map(|(_, v)| v)
    }

    /// True iff node `a`'s queue holds a row.
    pub fn holds(&self, a: NodeAddr) -> bool {
        self.rows.holds(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(t: &Table<u32, char>, n: u32) -> Vec<(u32, char)> {
        t.of(NodeAddr(n)).map(|(k, v)| (*k, *v)).collect()
    }

    #[test]
    fn a_nodes_rows_read_in_key_order() {
        let mut t: Table<u32, char> = Table::default();
        let rows = [
            (2, 9, 'c'),
            (1, 5, 'b'),
            (2, 0, 'a'),
            (1, 1, 'x'),
            (2, 4, 'z'),
        ];
        for (n, k, v) in rows {
            t.insert(NodeAddr(n), k, v);
        }
        assert_eq!(of(&t, 2), [(0, 'a'), (4, 'z'), (9, 'c')]);
        assert_eq!(of(&t, 0), []);
        assert_eq!(t.remove(NodeAddr(2), &4), Some('z'));
        *t.get_or_insert_with(NodeAddr(2), 5, || '?') = 'y';
        t.insert(NodeAddr(2), 10, 'd');
        assert_eq!(t.remove(NodeAddr(2), &0), Some('a'));
        assert_eq!(of(&t, 2), [(5, 'y'), (9, 'c'), (10, 'd')]);
        assert_eq!(t.wipe(NodeAddr(1)), [(1, 'x'), (5, 'b')]);
        assert!(!t.holds(NodeAddr(1)) && t.holds(NodeAddr(2)));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn pushed_rows_read_oldest_first() {
        let mut t: Table<u32, char> = Table::default();
        for (k, v) in [(7, 'a'), (3, 'b'), (5, 'c')] {
            t.push_back(NodeAddr(1), k, v);
        }
        assert_eq!(t.remove(NodeAddr(1), &3), Some('b'));
        assert_eq!(of(&t, 1), [(7, 'a'), (5, 'c')]);
        assert_eq!(t.pop_front(NodeAddr(1)), Some((7, 'a')));
        assert!(t.contains(NodeAddr(1), &5) && !t.contains(NodeAddr(1), &7));
    }

    #[test]
    fn an_emptied_table_keeps_a_little_room_and_frees_the_rest() {
        let mut t: Table<u32, char> = Table::default();
        for k in 0..HANDSHAKE_KEEP as u32 {
            t.insert(NodeAddr(0), k, 'k');
        }
        t.drop_rows(NodeAddr(0));
        assert!(t.rows.capacity() >= HANDSHAKE_KEEP, "a small table stays");
        for k in 0..100 {
            t.insert(NodeAddr(k % 3), k, 'k');
        }
        for a in 0..3 {
            t.drop_rows(NodeAddr(a));
        }
        assert_eq!(t.rows.capacity(), 0, "a large one is freed");
    }

    #[test]
    fn a_queue_pops_oldest_first_and_takes_what_it_picks() {
        let mut q: Queue<u32> = Queue::default();
        for (n, v) in [(1, 10), (2, 20), (1, 11), (1, 12), (2, 21)] {
            q.push(NodeAddr(n), v);
        }
        assert_eq!(q.take_if(NodeAddr(1), |v| *v != 11), [10, 12]);
        q.push(NodeAddr(1), 13);
        assert_eq!(q.of(NodeAddr(1)).copied().collect::<Vec<_>>(), [11, 13]);
        assert_eq!(q.pop(NodeAddr(2)), Some(20));
        q.rows.drop_rows(NodeAddr(2));
        assert!(!q.holds(NodeAddr(2)) && q.holds(NodeAddr(1)));
    }
}
