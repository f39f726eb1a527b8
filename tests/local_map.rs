//! The default ordered local structure, `BTreeLocalMap`, against
//! `std::collections::BTreeMap` at a size where its tree has three levels
//! and through the lookup-then-insert its finger serves, and what it
//! reserves: for one entry, and per entry at 2^18.
//!
//! The crate's own conformance test (`local::tests`) covers drains,
//! refills, `clear`, `retain` and `String` keys at smaller sizes.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::local::BTreeLocalMap;
use std::collections::BTreeMap;

/// A reference of the size the layered handles store: a node reference
/// is two words (the crate's `graph::tests::a_node_ref_is_two_words`).
type Ref = [u64; 2];

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

/// Every entry of `map` (whose keys are all below `u64::MAX`), walked
/// backwards by `pred`, against `model`.
fn walk_matches(map: &BTreeLocalMap<u64, u32>, model: &BTreeMap<u64, u32>) {
    let mut cursor = map.pred(&u64::MAX).map(|(k, r)| (*k, r));
    for (k, r) in model.iter().rev() {
        assert_eq!(cursor, Some((*k, *r)));
        cursor = map.pred(k).map(|(k, r)| (*k, r));
    }
    assert_eq!(cursor, None);
}

/// The layered insert's pattern, `max_lower_equal(k)` then `insert(k)`,
/// with one of these in between: nothing (the insert takes the finger's
/// leaf), an insert of another key (which may split that leaf or
/// another), a remove of a run of up to 16 live keys from near `k` (which
/// empties and frees leaves or leaves them underfull to merge), a remove
/// of `k` itself, a `retain` of seven keys in eight, or a `clear`. Every
/// answer is checked against `std::collections::BTreeMap` after every
/// operation, and every entry every 256 steps. Between clears the map
/// grows past 528 entries, which take three levels.
#[test]
fn a_lookup_then_insert_answers_like_std_across_splits_merges_and_rebuilds() {
    const SPACE: u64 = 1 << 14;
    let mut rng = SmallRng::seed_from_u64(47);
    let mut map: BTreeLocalMap<u64, u32> = BTreeLocalMap::default();
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    // `max_lower_equal` would move the finger: only the step's lookup
    // and the check after its insert call it (`walk_matches` does not).
    let check = |map: &BTreeLocalMap<u64, u32>, model: &BTreeMap<u64, u32>, k: u64| {
        assert_eq!(map.len(), model.len());
        assert_eq!(map.get(&k), model.get(&k).copied(), "get {k}");
        let pred = model.range(..k).next_back().map(|(m, r)| (*m, *r));
        assert_eq!(map.pred(&k).map(|(m, r)| (*m, r)), pred, "pred {k}");
    };
    let floor = |map: &BTreeLocalMap<u64, u32>, model: &BTreeMap<u64, u32>, k: u64| {
        let floor = model.range(..=k).next_back().map(|(m, r)| (*m, *r));
        assert_eq!(
            map.max_lower_equal(&k).map(|(m, r)| (*m, r)),
            floor,
            "floor {k}"
        );
    };
    let mut most = 0;
    for step in 0..40_000u32 {
        let k = rng.gen_range(0..SPACE);
        floor(&map, &model, k);
        match rng.gen_range(0..8000) {
            0..=3999 => {}
            4000..=5999 => {
                let other = rng.gen_range(0..SPACE);
                map.insert(other, step);
                model.insert(other, step);
                check(&map, &model, other);
            }
            6000..=6799 => {
                let from = rng.gen_range(k.saturating_sub(64)..k + 1);
                let run: Vec<u64> = model
                    .range(from..)
                    .take(rng.gen_range(1..17))
                    .map(|(m, _)| *m)
                    .collect();
                for gone in run {
                    assert!(map.remove(&gone));
                    model.remove(&gone);
                    check(&map, &model, gone);
                }
            }
            6800..=7984 => {
                assert_eq!(map.remove(&k), model.remove(&k).is_some());
                check(&map, &model, k);
            }
            7985..=7998 => {
                let dropped = rng.gen_range(0..8);
                map.retain(|m, _| m % 8 != dropped);
                model.retain(|m, _| m % 8 != dropped);
                walk_matches(&map, &model);
            }
            _ => {
                map.clear();
                model.clear();
            }
        }
        map.insert(k, step);
        model.insert(k, step);
        check(&map, &model, k);
        floor(&map, &model, rng.gen_range(0..SPACE));
        most = most.max(map.len());
        if step % 256 == 255 {
            walk_matches(&map, &model);
        }
    }
    walk_matches(&map, &model);
    println!("at most {most} entries");
    assert!(most > 16 * 33, "{most} entries at most: under three levels");
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
