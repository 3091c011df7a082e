//! The workspace's one hash-map hasher.
//!
//! `std`'s default `RandomState` keys every map from a per-process random
//! seed: 16 bytes in each map, and an iteration order that differs from run
//! to run. A simulation may not let that order reach an event, so every
//! map that holds simulated state hashes with [`FixedState`] instead: a
//! zero-sized builder of `std`'s SipHash with fixed keys. The same keys
//! inserted in the same order iterate in the same order on every run.
//! (`clippy.toml` refuses `HashMap::new`, `HashMap::with_capacity`,
//! `HashSet::new` and `HashSet::with_capacity`, which build a
//! `RandomState` map.)

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher};

/// SipHash with fixed keys, built from nothing: zero bytes per map.
pub type FixedState = BuildHasherDefault<DefaultHasher>;

/// A `HashMap` hashed with [`FixedState`]; build one with `default()`.
pub type FixedMap<K, V> = HashMap<K, V, FixedState>;

/// A `HashSet` hashed with [`FixedState`]; build one with `default()`.
pub type FixedSet<T> = HashSet<T, FixedState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_maps_cost_no_hasher_bytes_and_iterate_alike() {
        assert_eq!(std::mem::size_of::<FixedState>(), 0);
        let fill = || {
            let mut m = FixedMap::default();
            for k in 0..1_000u64 {
                m.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(fill(), fill());
    }
}
