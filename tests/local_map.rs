//! The default ordered local structure, `BTreeLocalMap`, against
//! `std::collections::BTreeMap` at a size where its tree has three levels,
//! and what it reserves: for one entry, and per entry at 2^18.
//!
//! The crate's own conformance test (`local::tests`) covers drains,
//! refills, `clear`, `retain` and `String` keys at smaller sizes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::local::BTreeLocalMap;
use skipgraph::NodeRef;
use std::collections::BTreeMap;

/// A reference of a `NodeRef`'s size, which the layered handles store.
type Ref = [u64; 2];

const _: () = assert!(size_of::<Ref>() == size_of::<NodeRef<u64, u64>>());

/// Scattered distinct keys.
fn scattered(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(n);
    std::iter::from_fn(|| Some(rng.gen::<u64>()))
        .filter(|k| seen.insert(*k))
        .take(n)
        .collect()
}

/// 2^17 scattered inserts, one remove of an earlier key after every
/// third, and a predecessor and a floor query at a random key after each
/// operation; then every entry, walked backwards by `pred`. At least 2^16
/// entries stay live: that many need 4 096 leaves of 16, which need more
/// than one parent of 33 children, so the tree has three levels or more.
#[test]
fn a_three_level_tree_answers_like_std() {
    let keys = scattered(1 << 17, 17);
    let mut rng = SmallRng::seed_from_u64(18);
    let mut map: BTreeLocalMap<u64, u32> = BTreeLocalMap::default();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    let own = |e: Option<(&u64, u32)>| e.map(|(k, r)| (*k, r));
    let std_floor = |model: &BTreeMap<u64, u32>, k: u64, incl: bool| {
        model
            .range(..=k)
            .rev()
            .find(|(m, _)| incl || **m != k)
            .map(|(m, r)| (*m, *r))
    };
    for (i, &k) in keys.iter().enumerate() {
        map.insert(k, i as u32);
        model.insert(k, i as u32);
        if i % 3 == 2 {
            let gone = keys[rng.gen_range(0..i)];
            assert_eq!(map.remove(&gone), model.remove(&gone).is_some());
        }
        let probe = if i % 2 == 0 {
            rng.gen::<u64>()
        } else {
            keys[rng.gen_range(0..i + 1)]
        };
        assert_eq!(map.get(&probe), model.get(&probe).copied());
        assert_eq!(
            own(map.max_lower_equal(&probe)),
            std_floor(&model, probe, true)
        );
        assert_eq!(own(map.pred(&probe)), std_floor(&model, probe, false));
        assert_eq!(map.len(), model.len());
    }
    assert!(map.len() >= 1 << 16, "{} live", map.len());
    let mut cursor = own(map.max_lower_equal(&u64::MAX));
    for (k, r) in model.iter().rev() {
        assert_eq!(cursor, Some((*k, *r)));
        cursor = own(map.pred(k));
    }
    assert_eq!(cursor, None);
}

#[test]
fn a_one_entry_map_reserves_under_a_page() {
    let mut map: BTreeLocalMap<u64, Ref> = BTreeLocalMap::default();
    assert_eq!(map.allocated_bytes(), 0);
    map.insert(7, [7, 7]);
    let bytes = map.allocated_bytes();
    println!("one entry: {bytes} B reserved");
    assert!(bytes <= 4096, "{bytes} B for one entry");
}

#[test]
fn scattered_entries_take_under_48_bytes_each() {
    let mut map: BTreeLocalMap<u64, Ref> = BTreeLocalMap::default();
    for k in scattered(1 << 18, 19) {
        map.insert(k, [k, k]);
    }
    let per_entry = map.allocated_bytes() as f64 / map.len() as f64;
    println!("2^18 scattered u64 entries: {per_entry:.1} B per entry");
    assert!(per_entry <= 48.0, "{per_entry:.1} B per entry");
}
