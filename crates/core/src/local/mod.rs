//! Thread-local structures.
//!
//! The layered design places a *sequential*, navigable map in each thread,
//! mapping the keys the thread inserted to their shared nodes. The paper
//! uses a C++ `std::map` plus an auxiliary robin-hood hash table ("our local
//! structures, in practice, are implemented with two complementary,
//! sequential data structures"). Here:
//!
//! * [`BTreeLocalMap`] is the ordered structure, in place of the paper's
//!   `std::map`: an in-crate B+tree whose leaves hold 16 keys in one array
//!   and their references in another, 64-byte aligned and linked both ways,
//!   under inner nodes of 32 separators with `u32` child indices; nodes
//!   live in two slabs of chunks that never move. A leaf is freed when it
//!   empties and merges into its left sibling when under a quarter full and
//!   the two fit in three quarters of a leaf. It answers predecessor
//!   queries (`getMaxLowerEqual`) and steps backward, as `getStart`
//!   (Alg. 4) and `updateStart` (Alg. 9) require, and keeps the leaf its
//!   last `getMaxLowerEqual` reached, so the insert that follows
//!   `getStart` for the same key takes no second descent. With `u64` keys
//!   and 16-byte references it takes 42–44 B per entry at 2^18–2^20
//!   entries, about 10 % more than `std::collections::BTreeMap` (38.9 B);
//! * [`RobinHoodMap`] is the hash table consulted before the slower ordered
//!   map (a reimplementation of the robin-hood open-addressing scheme the
//!   paper takes from `martinus/robin-hood-hashing`).
//!
//! The module forbids unchecked code (`unsafe_code`). The B+tree passes a
//! conformance test against `std::collections::BTreeMap`.

#![forbid(unsafe_code)]

mod btree;
mod robinhood;

pub use crate::shims::LocalMap;
pub use btree::BTreeLocalMap;
pub use robinhood::RobinHoodMap;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::fmt::Debug;

    /// Live entries above which a [`BTreeLocalMap`] has at least three
    /// levels: 16 entries per leaf and 33 children per inner node.
    const THREE_LEVELS: usize = 16 * 33;

    /// Operations per fill phase for a key space: fewer under Miri.
    fn ops(space: u64) -> usize {
        let ops = if space <= 64 { 2_000 } else { 12_000 };
        if cfg!(miri) {
            ops / 40
        } else {
            ops
        }
    }

    /// Drives a fresh [`BTreeLocalMap`] and a `std::collections::BTreeMap`
    /// through the same operations on keys drawn from `0..space` (mapped by
    /// `key`): a fill, a drain to empty, a refill and a `clear`, with
    /// `retain` in both fills. Every answer and every length must agree.
    /// Returns the most entries the map held.
    fn conformance<K: Ord + Clone + Debug>(key: fn(u64) -> K, space: u64) -> usize {
        let mut state = space ^ 0x2545_f491_4f6c_dd1d;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut map = BTreeLocalMap::<K, u32>::default();
        let mut model: BTreeMap<K, u32> = BTreeMap::new();
        let check = |map: &BTreeLocalMap<K, u32>, model: &BTreeMap<K, u32>, k: &K| {
            let below = |incl: bool| {
                model
                    .range(..=k)
                    .rev()
                    .find(|(m, _)| incl || *m != k)
                    .map(|(m, r)| (m.clone(), *r))
            };
            assert_eq!(map.get(k), model.get(k).copied(), "get {k:?}");
            let owned = |e: Option<(&K, u32)>| e.map(|(m, r)| (m.clone(), r));
            assert_eq!(
                owned(map.max_lower_equal(k)),
                below(true),
                "max_lower_equal {k:?}"
            );
            assert_eq!(owned(map.pred(k)), below(false), "pred {k:?}");
            assert_eq!(map.len(), model.len());
            assert_eq!(map.is_empty(), model.is_empty());
        };
        let mut peak = 0;
        for phase in 0..2 {
            let ops = ops(space);
            for op in 0..ops {
                let k = key(next() % space);
                match next() % 20 {
                    0..=11 => {
                        let r = next() as u32;
                        map.insert(k.clone(), r);
                        model.insert(k.clone(), r);
                    }
                    12..=14 => assert_eq!(map.remove(&k), model.remove(&k).is_some()),
                    _ => {}
                }
                check(&map, &model, &k);
                check(&map, &model, &key(next() % (space + 2)));
                if op == ops / 2 {
                    let keep = move |_: &K, r: &u32| r % 3 != phase;
                    map.retain(keep);
                    model.retain(|k, r| keep(k, r));
                }
                peak = peak.max(map.len());
            }
            for k in model.keys() {
                check(&map, &model, k);
            }
            // Drain to empty in a scattered order, then refill.
            let mut live: Vec<K> = model.keys().cloned().collect();
            while !live.is_empty() {
                let k = live.swap_remove((next() % live.len() as u64) as usize);
                assert!(map.remove(&k));
                model.remove(&k);
                check(&map, &model, &k);
            }
            assert!(map.is_empty());
        }
        map.insert(key(1), 1);
        map.clear();
        model.clear();
        check(&map, &model, &key(1));
        peak
    }

    #[test]
    fn btree_local_map_conforms_to_std() {
        for space in [64, 4096, 1 << 40] {
            let peak = conformance(|k| k, space);
            if space > 64 && !cfg!(miri) {
                assert!(peak > THREE_LEVELS, "{peak} entries at most");
            }
            conformance(|k| format!("{k:x}"), space);
        }
    }
}
