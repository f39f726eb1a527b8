//! A robin-hood open-addressing hash table.
//!
//! The paper pairs each local `std::map` with a fast hash table
//! (`martinus/robin-hood-hashing`) "allowing threads to consult a fast
//! hashtable before consulting a slower map". This is a from-scratch
//! reimplementation of the same probing discipline:
//!
//! * open addressing with linear probing,
//! * *robin hood* displacement: an inserting entry steals the slot of any
//!   resident entry that is closer to its home bucket (smaller probe
//!   distance), bounding the variance of probe sequences,
//! * *backward-shift* deletion (no tombstones): on removal, subsequent
//!   entries with non-zero probe distance shift back one slot.
//!
//! Keys hash with the crate's one key hash (see [`crate::index`]), the
//! same multiply-and-shift mix the paper's library applies to integer
//! keys: unkeyed, so a table lays out its keys the same way in every
//! process and every run, and the no-index layered map and the figure
//! runs repeat exactly. It offers no protection against keys chosen to
//! collide; the tables hold the program's own keys.

use crate::index::hash_key;
use std::hash::Hash;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Distance from the key's home bucket (0 = at home).
    dist: u16,
}

/// A robin-hood hash map.
///
/// # Example
///
/// ```
/// use skipgraph::local::RobinHoodMap;
///
/// let mut m = RobinHoodMap::new();
/// m.insert("a", 1);
/// assert_eq!(m.get(&"a"), Some(&1));
/// assert_eq!(m.remove(&"a"), Some(1));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RobinHoodMap<K, V> {
    slots: Vec<Option<Slot<K, V>>>,
    len: usize,
    mask: usize,
}

const INITIAL_CAPACITY: usize = 16;
/// Grow at 7/8 occupancy.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

impl<K: Hash + Eq, V> Default for RobinHoodMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V> RobinHoodMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self {
            slots: (0..INITIAL_CAPACITY).map(|_| None).collect(),
            len: 0,
            mask: INITIAL_CAPACITY - 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot-array capacity (diagnostics/tests).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, key: &K) -> usize {
        (hash_key(key) as usize) & self.mask
    }

    /// Inserts `key -> value`, returning the previous value if the key was
    /// present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
        }
        let mut idx = self.home(&key);
        let mut entry = Slot {
            key,
            value,
            dist: 0,
        };
        loop {
            match &mut self.slots[idx] {
                vacant @ None => {
                    *vacant = Some(entry);
                    self.len += 1;
                    return None;
                }
                Some(resident) => {
                    if resident.key == entry.key {
                        return Some(std::mem::replace(&mut resident.value, entry.value));
                    }
                    if resident.dist < entry.dist {
                        // Robin hood: steal from the richer entry.
                        std::mem::swap(resident, &mut entry);
                    }
                }
            }
            idx = (idx + 1) & self.mask;
            entry.dist += 1;
            debug_assert!((entry.dist as usize) <= self.slots.len());
        }
    }

    fn find(&self, key: &K) -> Option<usize> {
        let mut idx = self.home(key);
        let mut dist: u16 = 0;
        loop {
            match &self.slots[idx] {
                None => return None,
                Some(s) => {
                    if s.key == *key {
                        return Some(idx);
                    }
                    // Robin-hood invariant: if the resident is closer to
                    // home than our probe distance, the key cannot be
                    // further along.
                    if s.dist < dist {
                        return None;
                    }
                }
            }
            idx = (idx + 1) & self.mask;
            dist += 1;
        }
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key)
            .map(|i| &self.slots[i].as_ref().unwrap().value)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Removes `key`, returning its value. Uses backward-shift deletion, so
    /// lookups never traverse tombstones.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let mut idx = self.find(key)?;
        let removed = self.slots[idx].take().expect("found slot");
        self.len -= 1;
        // Backward shift: pull subsequent displaced entries one slot back.
        loop {
            let next = (idx + 1) & self.mask;
            match &mut self.slots[next] {
                Some(s) if s.dist > 0 => {
                    s.dist -= 1;
                    self.slots[idx] = self.slots[next].take();
                    idx = next;
                }
                _ => break,
            }
        }
        Some(removed.value)
    }

    /// Removes every entry, keeping capacity.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.len = 0;
    }

    /// Iterates over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|s| (&s.key, &s.value)))
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, (0..new_cap).map(|_| None).collect());
        self.mask = new_cap - 1;
        self.len = 0;
        for slot in old.into_iter().flatten() {
            self.insert(slot.key, slot.value);
        }
    }

    /// Maximum probe distance among residents (diagnostics: robin hood
    /// keeps this small).
    pub fn max_probe_distance(&self) -> u16 {
        self.slots
            .iter()
            .flatten()
            .map(|s| s.dist)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove() {
        let mut m = RobinHoodMap::new();
        assert_eq!(m.insert(1u64, "one"), None);
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(1, "uno"), Some("one"));
        assert_eq!(m.get(&1), Some(&"uno"));
        assert_eq!(m.get(&3), None);
        assert_eq!(m.remove(&1), Some("uno"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = RobinHoodMap::new();
        for i in 0..10_000u64 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 10_000);
        assert!(m.capacity() >= 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)), "key {i}");
        }
    }

    #[test]
    fn backward_shift_preserves_lookups() {
        let mut m = RobinHoodMap::new();
        for i in 0..1000u64 {
            m.insert(i, i);
        }
        for i in (0..1000u64).step_by(2) {
            assert_eq!(m.remove(&i), Some(i));
        }
        for i in 0..1000u64 {
            if i % 2 == 0 {
                assert_eq!(m.get(&i), None);
            } else {
                assert_eq!(m.get(&i), Some(&i));
            }
        }
        assert_eq!(m.len(), 500);
    }

    #[test]
    fn clear_retains_usability() {
        let mut m = RobinHoodMap::new();
        m.insert(1u8, 1);
        m.clear();
        assert!(m.is_empty());
        m.insert(2, 2);
        assert_eq!(m.get(&2), Some(&2));
    }

    #[test]
    fn probe_distances_stay_bounded() {
        let mut m = RobinHoodMap::new();
        for i in 0..50_000u64 {
            m.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
        }
        // Robin hood keeps the maximum probe length small even at 7/8 load.
        assert!(m.max_probe_distance() < 64, "{}", m.max_probe_distance());
    }

    #[test]
    fn iter_sees_everything_once() {
        let mut m = RobinHoodMap::new();
        for i in 0..100u32 {
            m.insert(i, ());
        }
        let mut keys: Vec<u32> = m.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
    }

    proptest! {
        /// Differential test against std HashMap over random op sequences.
        #[test]
        fn behaves_like_std_hashmap(ops in proptest::collection::vec((0u8..3, 0u16..64, 0u32..1000), 0..600)) {
            let mut ours: RobinHoodMap<u16, u32> = RobinHoodMap::new();
            let mut model: HashMap<u16, u32> = HashMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => prop_assert_eq!(ours.insert(k, v), model.insert(k, v)),
                    1 => prop_assert_eq!(ours.remove(&k), model.remove(&k)),
                    _ => prop_assert_eq!(ours.get(&k), model.get(&k)),
                }
                prop_assert_eq!(ours.len(), model.len());
            }
            for (k, v) in &model {
                prop_assert_eq!(ours.get(k), Some(v));
            }
        }
    }
}
