//! A sorted-vector local structure.
//!
//! The layered design takes *any* user-provided sequential navigable map
//! as the per-thread local structure. This implementation keeps the
//! mappings in one sorted `Vec`: O(log n) lookups with perfect cache
//! locality and O(n) inserts/removes — a good trade when each thread owns
//! a modest number of keys (e.g. under the sparse skip graph, which only
//! indexes top-reaching nodes) or when update rates are low.

use super::LocalMap;

/// A [`LocalMap`] over a single sorted vector.
#[derive(Debug, Clone)]
pub struct SortedVecLocalMap<K, R> {
    entries: Vec<(K, R)>,
}

impl<K, R> Default for SortedVecLocalMap<K, R> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, R> SortedVecLocalMap<K, R> {
    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }
}

impl<K: Ord, R: Copy> LocalMap<K, R> for SortedVecLocalMap<K, R> {
    fn insert(&mut self, key: K, node: R) {
        match self.position(&key) {
            Ok(i) => self.entries[i].1 = node,
            Err(i) => self.entries.insert(i, (key, node)),
        }
    }

    fn remove(&mut self, key: &K) -> bool {
        match self.position(key) {
            Ok(i) => {
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    fn get(&self, key: &K) -> Option<R> {
        self.position(key).ok().map(|i| self.entries[i].1)
    }

    fn max_lower_equal(&self, key: &K) -> Option<(&K, R)> {
        let i = match self.position(key) {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        i.checked_sub(1)
            .map(|i| (&self.entries[i].0, self.entries[i].1))
    }

    fn pred(&self, key: &K) -> Option<(&K, R)> {
        let i = match self.position(key) {
            Ok(i) | Err(i) => i,
        };
        i.checked_sub(1)
            .map(|i| (&self.entries[i].0, self.entries[i].1))
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn navigation_matches_btree_flavour() {
        let mut m: SortedVecLocalMap<u64, u32> = SortedVecLocalMap::default();
        for k in [30u64, 10, 20] {
            m.insert(k, k as u32);
        }
        assert_eq!(m.max_lower_equal(&20), Some((&20, 20)));
        assert_eq!(m.max_lower_equal(&25), Some((&20, 20)));
        assert_eq!(m.max_lower_equal(&5), None);
        assert_eq!(m.pred(&20), Some((&10, 10)));
        assert_eq!(m.pred(&10), None);
        assert_eq!(m.pred(&99), Some((&30, 30)));
    }

    #[test]
    fn replace_and_remove() {
        let mut m: SortedVecLocalMap<u64, u32> = SortedVecLocalMap::default();
        m.insert(5, 1);
        m.insert(5, 2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&5), Some(2));
        assert!(m.remove(&5));
        assert!(!m.remove(&5));
        assert!(m.is_empty());
        m.insert(1, 1);
        m.clear();
        assert!(m.is_empty());
    }
}
