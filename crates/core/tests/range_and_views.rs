//! Range scans and readers outside the registered set (the bare graph's
//! handle), sequential and concurrent.

use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};

fn filled(lazy: bool) -> LayeredMap<u64, u64> {
    let map = LayeredMap::new(GraphConfig::new(4).lazy(lazy).chunk_capacity(1024));
    let mut h = map.register(ThreadCtx::plain(0));
    for k in (0..200u64).step_by(2) {
        assert!(h.insert(k, k + 1));
    }
    map
}

#[test]
fn handle_range_matches_btreemap_semantics() {
    for lazy in [false, true] {
        let map = filled(lazy);
        let mut h = map.register(ThreadCtx::plain(1));
        let mut model = BTreeMap::new();
        for k in (0..200u64).step_by(2) {
            model.insert(k, k + 1);
        }
        for (lo, hi) in [(0u64, 50u64), (13, 77), (100, 100), (150, 300)] {
            let got: Vec<(u64, u64)> = h
                .range(Bound::Included(&lo), Bound::Excluded(hi))
                .map(|(k, v)| (*k, *v))
                .collect();
            let want: Vec<(u64, u64)> = model
                .range((Bound::Included(lo), Bound::Excluded(hi)))
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(got, want, "lazy={lazy} range [{lo},{hi})");
        }
        // Range after removals.
        assert!(h.remove(&20));
        assert!(h.remove(&22));
        model.remove(&20);
        model.remove(&22);
        let got: Vec<(u64, u64)> = h
            .range(Bound::Included(&18), Bound::Included(26))
            .map(|(k, v)| (*k, *v))
            .collect();
        let want: Vec<(u64, u64)> = model.range(18u64..=26).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "lazy={lazy}");
    }
}

#[test]
fn handle_range_uses_local_jump() {
    // The thread that inserted the keys jumps from its local structure;
    // results must be identical to a cold-reader's scan.
    let map = filled(true);
    let mut owner = map.register(ThreadCtx::plain(0));
    // Re-register slot 0's data under a fresh handle? No: owner handle was
    // dropped in `filled`, so recreate inserts into local map via fresh
    // inserts.
    for k in (300..400u64).step_by(2) {
        assert!(owner.insert(k, k));
    }
    let from_owner: Vec<(u64, u64)> = owner
        .range(Bound::Included(&300), Bound::Excluded(400))
        .map(|(k, v)| (*k, *v))
        .collect();
    let mut view = map.shared().pin(ThreadCtx::plain(1));
    let from_view: Vec<(u64, u64)> = view
        .range(Bound::Included(&300), Bound::Excluded(400))
        .map(|(k, v)| (*k, *v))
        .collect();
    assert_eq!(from_owner, from_view);
    assert_eq!(from_owner.len(), 50);
}

#[test]
fn read_only_view_from_foreign_thread() {
    let map = filled(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            // A thread that never registered can still read, under a slot
            // no live handle uses, through the bare graph's handle.
            let mut view = map.shared().pin(ThreadCtx::plain(3));
            assert!(view.contains(&100));
            assert!(!view.contains(&101));
            assert_eq!(view.get(&100), Some(101));
            assert_eq!(map.shared().len(view.ctx()), 100);
        });
    });
}

/// A reader's slot is a thread slot like a handle's (its reads pin under
/// it), so a slot past the registered set is refused, not wrapped onto
/// one a live handle may own.
#[test]
#[should_panic(expected = "thread id 4 out of range")]
fn read_only_rejects_an_out_of_range_slot() {
    let map = filled(false);
    let _ = map.shared().pin(ThreadCtx::plain(4));
}

#[test]
fn concurrent_scans_during_updates_see_consistent_prefixes() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(4).lazy(true));
    {
        let mut h = map.register(ThreadCtx::plain(0));
        for k in 0..500u64 {
            assert!(h.insert(k * 2, k));
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Two writers churn odd keys (never part of the scanned set).
        for t in 1..3u16 {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                let mut h = map.register(ThreadCtx::plain(t));
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = (i * 2 + 1) % 1000;
                    h.insert(k, k);
                    h.remove(&k);
                    i += 1;
                }
            });
        }
        // Scanner: even keys must always all be present and ordered.
        let mut view = map.shared().pin(ThreadCtx::plain(3));
        for _ in 0..50 {
            let evens: Vec<u64> = view
                .range(Bound::Unbounded, Bound::Unbounded)
                .map(|(k, _)| *k)
                .filter(|k| k % 2 == 0)
                .collect();
            assert_eq!(evens.len(), 500, "all stable keys visible");
            assert!(evens.windows(2).all(|w| w[0] < w[1]));
        }
        stop.store(true, Ordering::Relaxed);
    });
    map.shared().check_invariants().unwrap();
}

#[test]
fn empty_map_ranges() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2));
    let mut h = map.register(ThreadCtx::plain(0));
    assert!(h.range(Bound::Unbounded, Bound::Unbounded).next().is_none());
    let mut view = map.shared().pin(ThreadCtx::plain(1));
    assert_eq!(map.shared().len(view.ctx()), 0);
    assert_eq!(view.get(&1), None);
}

/// Index-accelerated range starts: with the shared hash index installed,
/// a scan whose lower-bound key is present starts *at* the validated
/// holder (no descent). Every bound flavor and staleness path must agree
/// with `BTreeMap` — including bounds on removed keys (tombstoned index
/// entries must fall back to the descent, not seed the walk with a dead
/// node) and an inclusive start that is also past the last key.
#[test]
fn indexed_range_start_matches_btreemap_semantics() {
    for lazy in [false, true] {
        let map: LayeredMap<u64, u64> = LayeredMap::new(
            GraphConfig::new(4)
                .lazy(lazy)
                .hash_index(true)
                .chunk_capacity(1024),
        );
        let mut h = map.register(ThreadCtx::plain(0));
        let mut model = BTreeMap::new();
        for k in (0..200u64).step_by(2) {
            assert!(h.insert(k, k + 1));
            model.insert(k, k + 1);
        }
        for &k in &[20u64, 21, 150] {
            h.remove(&k);
            model.remove(&k);
        }
        // Lower bounds covering: present key, removed key (index
        // tombstone), never-inserted odd key, before-first, past-last.
        for lo in [0u64, 4, 20, 21, 33, 150, 198, 199, 500] {
            for hi in [lo, lo + 1, lo + 40, 1000] {
                let got: Vec<(u64, u64)> = h
                    .range(Bound::Included(&lo), Bound::Excluded(hi))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                let want: Vec<(u64, u64)> = model
                    .range((Bound::Included(lo), Bound::Excluded(hi)))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                assert_eq!(got, want, "lazy={lazy} incl range [{lo},{hi})");
                let got: Vec<(u64, u64)> = h
                    .range(Bound::Excluded(&lo), Bound::Included(hi))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                let want: Vec<(u64, u64)> = model
                    .range((Bound::Excluded(lo), Bound::Included(hi)))
                    .map(|(k, v)| (*k, *v))
                    .collect();
                assert_eq!(got, want, "lazy={lazy} excl range ({lo},{hi}]");
            }
        }
        // The bare graph's handle shares the index path.
        let mut view = map.shared().pin(ThreadCtx::plain(1));
        let got: Vec<u64> = view
            .range(Bound::Included(&4), Bound::Excluded(10))
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(got, vec![4, 6, 8], "lazy={lazy} view scan");
    }
}
