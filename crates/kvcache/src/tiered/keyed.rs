//! Keyed state the hot paths look up by id: hashed lookups, ordered
//! walks.
//!
//! [`KeyedMap`] answers `get`/`get_mut`/`contains_key` through a
//! [`HashMap`] with a fixed integer hasher ([`FxBuild`]) and walks through
//! an ordered key set, which only `insert` of a new key and `remove`
//! touch. Its `iter`, `keys` and `values` therefore yield exactly the
//! order a `BTreeMap` would, and nothing reaches the hash map's own
//! iteration order: the type offers no walk of the hash map at all.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fixed, seedless multiply-rotate hasher for integer ids (the
/// rustc/Firefox "Fx" hash). The cache's keys are session counters,
/// which need no flooding resistance; a fixed
/// hasher also keeps every run's lookups the same work.
#[derive(Default)]
pub(super) struct FxHasher {
    hash: u64,
}

/// The Fx multiplier: odd, so multiplying is a bijection on `u64`.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.add(word);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s.
pub(super) type FxBuild = BuildHasherDefault<FxHasher>;

/// A hash set under [`FxHasher`], for membership tests only.
pub(super) type FxHashSet<T> = HashSet<T, FxBuild>;

/// A map with hashed lookups and `BTreeMap`-ordered walks (module docs).
/// Not `Debug`: a derived one would print the hash map in hash order.
pub(super) struct KeyedMap<K, V> {
    map: HashMap<K, V, FxBuild>,
    /// Every key of `map`, in order: what walks go through.
    order: BTreeSet<K>,
}

impl<K, V> Default for KeyedMap<K, V> {
    fn default() -> Self {
        KeyedMap {
            map: HashMap::default(),
            order: BTreeSet::new(),
        }
    }
}

impl<K: Copy + Ord + Hash, V> KeyedMap<K, V> {
    pub(super) fn len(&self) -> usize {
        self.order.len()
    }

    pub(super) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(super) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.map.get_mut(key)
    }

    pub(super) fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts or replaces `key`'s value; returns the value replaced.
    pub(super) fn insert(&mut self, key: K, value: V) -> Option<V> {
        let old = self.map.insert(key, value);
        if old.is_none() {
            self.order.insert(key);
        }
        old
    }

    pub(super) fn remove(&mut self, key: &K) -> Option<V> {
        let old = self.map.remove(key);
        if old.is_some() {
            self.order.remove(key);
        }
        old
    }

    /// `key`'s value, inserting `make()` first if there is none: one
    /// hashed lookup when the key is present.
    pub(super) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        match self.map.entry(key) {
            Entry::Occupied(held) => held.into_mut(),
            Entry::Vacant(slot) => {
                self.order.insert(key);
                slot.insert(make())
            }
        }
    }

    /// Keys in ascending order.
    pub(super) fn keys(&self) -> impl Iterator<Item = &K> + '_ {
        self.order.iter()
    }

    /// `(key, value)` pairs in ascending key order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.order.iter().filter_map(|k| self.map.get_key_value(k))
    }

    /// Values in ascending key order.
    pub(super) fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.order.iter().filter_map(|k| self.map.get(k))
    }

    /// True if the ordered key set holds exactly the hash map's keys.
    pub(super) fn is_consistent(&self) -> bool {
        self.order.len() == self.map.len() && self.order.iter().all(|k| self.map.contains_key(k))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::KeyedMap;

    /// The key space: small, so keys come and go repeatedly.
    const KEYS: u64 = 48;

    /// Asserts `map` answers every read exactly as the model does.
    fn assert_agrees(map: &KeyedMap<u64, u32>, model: &BTreeMap<u64, u32>, what: &str) {
        assert!(map.is_consistent(), "{what}: key set drift");
        assert_eq!(map.len(), model.len(), "{what}: len");
        let pairs: Vec<_> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let expected: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(pairs, expected, "{what}: iter");
        assert!(map.keys().eq(model.keys()), "{what}: keys");
        assert!(map.values().eq(model.values()), "{what}: values");
        for key in 0..KEYS {
            assert_eq!(
                map.contains_key(&key),
                model.contains_key(&key),
                "{what}: contains_key({key})"
            );
            assert_eq!(map.get(&key), model.get(&key), "{what}: get({key})");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The map against a `BTreeMap` model: random inserts, removes,
        /// in-place updates and get-or-inserts, every read compared after
        /// every step.
        #[test]
        fn keyed_map_answers_as_a_btree_map(
            ops in prop::collection::vec((0u8..4, 0u64..KEYS, 0u32..u32::MAX), 1..200),
        ) {
            let mut map = KeyedMap::default();
            let mut model = BTreeMap::new();
            for (step, &(kind, key, value)) in ops.iter().enumerate() {
                let what = match kind {
                    0 => {
                        assert_eq!(map.insert(key, value), model.insert(key, value));
                        "insert"
                    }
                    1 => {
                        assert_eq!(map.remove(&key), model.remove(&key));
                        "remove"
                    }
                    2 => {
                        let (held, expected) = (map.get_mut(&key), model.get_mut(&key));
                        assert_eq!(held.is_some(), expected.is_some());
                        if let (Some(held), Some(expected)) = (held, expected) {
                            *held ^= value;
                            *expected ^= value;
                        }
                        "get_mut"
                    }
                    _ => {
                        let held = map.get_or_insert_with(key, || value);
                        *held = held.wrapping_add(1);
                        let expected = model.entry(key).or_insert(value);
                        *expected = expected.wrapping_add(1);
                        "get_or_insert_with"
                    }
                };
                assert_agrees(&map, &model, &format!("step {step} ({what} {key})"));
            }
        }
    }
}
