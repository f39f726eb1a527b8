//! The default ordered local structure, backed by `BTreeMap` (the Rust
//! analogue of the paper's C++ `std::map`).

use super::LocalMap;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A [`LocalMap`] over `std::collections::BTreeMap`.
#[derive(Debug, Clone)]
pub struct BTreeLocalMap<K, R> {
    inner: BTreeMap<K, R>,
}

impl<K, R> Default for BTreeLocalMap<K, R> {
    fn default() -> Self {
        Self {
            inner: BTreeMap::new(),
        }
    }
}

impl<K: Ord, R> BTreeLocalMap<K, R> {
    /// Keeps only the mappings `keep` accepts (a staleness sweep: the
    /// blocked map drops every anchor reference whose generation moved).
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &R) -> bool) {
        self.inner.retain(|k, r| keep(k, r));
    }
}

impl<K: Ord, R: Copy> LocalMap<K, R> for BTreeLocalMap<K, R> {
    fn insert(&mut self, key: K, node: R) {
        self.inner.insert(key, node);
    }

    fn remove(&mut self, key: &K) -> bool {
        self.inner.remove(key).is_some()
    }

    fn get(&self, key: &K) -> Option<R> {
        self.inner.get(key).copied()
    }

    fn max_lower_equal(&self, key: &K) -> Option<(&K, R)> {
        self.inner
            .range((Bound::Unbounded, Bound::Included(key)))
            .next_back()
            .map(|(k, r)| (k, *r))
    }

    fn pred(&self, key: &K) -> Option<(&K, R)> {
        self.inner
            .range((Bound::Unbounded, Bound::Excluded(key)))
            .next_back()
            .map(|(k, r)| (k, *r))
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn clear(&mut self) {
        self.inner.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn navigation() {
        let mut m: BTreeLocalMap<u64, u32> = BTreeLocalMap::default();
        for k in [10u64, 20, 30] {
            m.insert(k, k as u32 * 10);
        }
        assert_eq!(m.max_lower_equal(&20), Some((&20, 200)));
        assert_eq!(m.max_lower_equal(&25), Some((&20, 200)));
        assert_eq!(m.max_lower_equal(&5), None);
        assert_eq!(m.pred(&20), Some((&10, 100)));
        assert_eq!(m.pred(&10), None);
        assert_eq!(m.pred(&100), Some((&30, 300)));
    }

    #[test]
    fn insert_remove_get() {
        let mut m: BTreeLocalMap<u64, u8> = BTreeLocalMap::default();
        assert!(m.is_empty());
        m.insert(1, 1);
        m.insert(1, 2); // replace
        assert_eq!(m.get(&1), Some(2));
        assert_eq!(m.len(), 1);
        assert!(m.remove(&1));
        assert!(!m.remove(&1));
        assert!(m.is_empty());
    }

    #[test]
    fn backward_walk_with_erasure() {
        // The getStart pattern: walk backwards erasing as we go.
        let mut m: BTreeLocalMap<u64, ()> = BTreeLocalMap::default();
        for k in 0..10u64 {
            m.insert(k, ());
        }
        let mut cursor = 7u64;
        let mut seen = vec![cursor];
        loop {
            m.remove(&cursor);
            match m.pred(&cursor) {
                Some((k, _)) => {
                    cursor = *k;
                    seen.push(cursor);
                }
                None => break,
            }
        }
        assert_eq!(seen, vec![7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(m.len(), 2); // 8 and 9 untouched
    }

    #[test]
    fn retain_keeps_what_the_predicate_accepts() {
        let mut m: BTreeLocalMap<u64, u32> = BTreeLocalMap::default();
        for k in 0..10u64 {
            m.insert(k, k as u32 % 3);
        }
        m.retain(|k, r| *r != 0 && *k != 7);
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(&3), None);
        assert_eq!(m.get(&7), None);
        assert_eq!(m.max_lower_equal(&7), Some((&5, 2)));
    }

    #[test]
    fn clear() {
        let mut m: BTreeLocalMap<u64, ()> = BTreeLocalMap::default();
        m.insert(1, ());
        m.clear();
        assert!(m.is_empty());
    }
}
