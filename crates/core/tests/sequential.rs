//! Sequential correctness of every configuration variant, including
//! differential property tests against `BTreeMap`.

use instrument::ThreadCtx;
use proptest::prelude::*;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap, MapHandle, MembershipStrategy, SkipGraph};
use std::collections::BTreeSet;

fn configs() -> Vec<(&'static str, GraphConfig)> {
    vec![
        ("eager-sg", GraphConfig::new(4).chunk_capacity(256)),
        ("lazy-sg", GraphConfig::new(4).lazy(true).chunk_capacity(256)),
        ("sparse-sg", GraphConfig::new(4).sparse(true).chunk_capacity(256)),
        (
            "lazy-sparse-sg",
            GraphConfig::new(4).lazy(true).sparse(true).chunk_capacity(256),
        ),
        ("linked-list", GraphConfig::linked_list(4).chunk_capacity(256)),
        (
            "single-sl",
            GraphConfig::single_skip_list(4).chunk_capacity(256),
        ),
        (
            "lazy-zero-commission",
            GraphConfig::new(4)
                .lazy(true)
                .commission_cycles(0)
                .chunk_capacity(256),
        ),
    ]
}

#[test]
fn layered_basic_lifecycle_all_variants() {
    for (name, cfg) in configs() {
        let map: LayeredMap<u64, u64> = LayeredMap::new(cfg);
        let mut h = map.register(ThreadCtx::plain(0));
        assert!(!h.contains(&5), "{name}");
        assert!(h.insert(5, 50), "{name}");
        assert!(!h.insert(5, 51), "{name}: duplicate must fail");
        assert!(h.contains(&5), "{name}");
        assert_eq!(h.get(&5), Some(50), "{name}");
        assert!(h.remove(&5), "{name}");
        assert!(!h.remove(&5), "{name}: double remove must fail");
        assert!(!h.contains(&5), "{name}");
        // Reinsert after removal (exercises resurrection in lazy mode:
        // the node flips back to valid and keeps its original value).
        assert!(h.insert(5, 52), "{name}: reinsert");
        let expect = if map.config().lazy { 50 } else { 52 };
        assert_eq!(h.get(&5), Some(expect), "{name}");
        assert!(h.contains(&5), "{name}");
        map.shared().check_invariants().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn lazy_resurrection_keeps_original_value() {
    // A lazy re-insert of a removed key resurrects the *node*, so the value
    // is the original one — this is the paper's semantics (set semantics;
    // values ride along).
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2).lazy(true));
    let mut h = map.register(ThreadCtx::plain(0));
    assert!(h.insert(1, 100));
    assert!(h.remove(&1));
    assert!(h.insert(1, 200));
    assert_eq!(h.get(&1), Some(100));
}

#[test]
fn many_keys_ordered_iteration() {
    for (name, cfg) in configs() {
        let map: LayeredMap<u64, u64> = LayeredMap::new(cfg);
        let mut h = map.register(ThreadCtx::plain(0));
        let keys: Vec<u64> = (0..500).map(|i| (i * 37) % 1000).collect();
        let mut expect = BTreeSet::new();
        for &k in &keys {
            assert_eq!(h.insert(k, k), expect.insert(k), "{name}: insert {k}");
        }
        for k in (0..1000).step_by(3) {
            assert_eq!(h.remove(&k), expect.remove(&k), "{name}: remove {k}");
        }
        for k in 0..1000 {
            assert_eq!(h.contains(&k), expect.contains(&k), "{name}: contains {k}");
        }
        let ctx = ThreadCtx::plain(0);
        let got = map.shared().keys(&ctx);
        let want: Vec<u64> = expect.iter().copied().collect();
        assert_eq!(got, want, "{name}: snapshot must be sorted and complete");
        map.shared()
            .check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn direct_skipgraph_map_api() {
    for lazy in [false, true] {
        for sparse in [false, true] {
            let g: SkipGraph<u64, u64> =
                SkipGraph::new(GraphConfig::new(2).lazy(lazy).sparse(sparse).chunk_capacity(128));
            let mut h = g.pin(ThreadCtx::plain(0));
            assert!(h.insert(10, 1));
            assert!(h.insert(20, 2));
            assert!(!h.insert(10, 3));
            assert!(h.contains(&10));
            assert!(h.remove(&10));
            assert!(!h.contains(&10));
            assert!(h.contains(&20));
            g.check_invariants().unwrap();
        }
    }
}

#[test]
fn pop_min_orders_keys() {
    for lazy in [false, true] {
        let g: SkipGraph<u64, u64> = SkipGraph::new(GraphConfig::new(2).lazy(lazy));
        let ctx = ThreadCtx::plain(0);
        let mut h = g.pin(ThreadCtx::plain(0));
        for k in [30u64, 10, 20, 40] {
            assert!(h.insert(k, k * 2));
        }
        assert_eq!(g.pop_min(&ctx), Some((10, 20)));
        assert_eq!(g.pop_min(&ctx), Some((20, 40)));
        assert_eq!(g.pop_min(&ctx), Some((30, 60)));
        assert_eq!(g.pop_min(&ctx), Some((40, 80)));
        assert_eq!(g.pop_min(&ctx), None);
    }
}

#[test]
fn membership_strategies_build() {
    for strat in [
        MembershipStrategy::NumaAware,
        MembershipStrategy::ThreadIdSuffix,
        MembershipStrategy::Single,
    ] {
        let map: LayeredMap<u64, ()> =
            LayeredMap::new(GraphConfig::new(8).membership(strat));
        let mut h = map.register(ThreadCtx::plain(3));
        assert!(h.insert(1, ()));
        assert!(h.contains(&1));
    }
}

#[test]
fn zero_commission_retires_aggressively() {
    // With a zero commission period, removed nodes are retired (marked) by
    // the very next search that passes them; the structure must stay
    // correct.
    let map: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(2).lazy(true).commission_cycles(0));
    let mut h = map.register(ThreadCtx::plain(0));
    for k in 0..200u64 {
        assert!(h.insert(k, k));
    }
    for k in 0..200u64 {
        assert!(h.remove(&k));
    }
    // Searches now retire everything they pass.
    for k in 0..200u64 {
        assert!(!h.contains(&k));
    }
    // Reinsertion builds fresh nodes over the marked chains (relink).
    for k in 0..200u64 {
        assert!(h.insert(k, k + 1), "reinsert {k}");
    }
    for k in 0..200u64 {
        assert!(h.contains(&k));
    }
    map.shared().check_invariants().unwrap();
}

#[test]
fn string_keys_and_droppable_values() {
    let map: LayeredMap<String, Vec<u8>> = LayeredMap::new(GraphConfig::new(2).lazy(true));
    let mut h = map.register(ThreadCtx::plain(0));
    assert!(h.insert("hello".to_string(), vec![1, 2, 3]));
    assert!(h.insert("world".to_string(), vec![4]));
    assert_eq!(h.get(&"hello".to_string()), Some(vec![1, 2, 3]));
    assert!(h.remove(&"hello".to_string()));
    assert!(!h.contains(&"hello".to_string()));
    // Dropping the map must drop every allocation exactly once (asserted by
    // miri/asan in principle; here we just exercise the path).
    drop(h);
    drop(map);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential test: a single-threaded layered map behaves exactly
    /// like a BTreeSet for any op sequence, in every variant.
    #[test]
    fn behaves_like_btreeset(
        ops in proptest::collection::vec((0u8..3, 0u64..64), 1..400),
        lazy: bool,
        sparse: bool,
    ) {
        let cfg = GraphConfig::new(2).lazy(lazy).sparse(sparse).chunk_capacity(128);
        let map: LayeredMap<u64, u64> = LayeredMap::new(cfg);
        let mut h = map.register(ThreadCtx::plain(0));
        let mut model = BTreeSet::new();
        for (op, k) in ops {
            match op {
                0 => prop_assert_eq!(h.insert(k, k), model.insert(k), "insert {}", k),
                1 => prop_assert_eq!(h.remove(&k), model.remove(&k), "remove {}", k),
                _ => prop_assert_eq!(h.contains(&k), model.contains(&k), "contains {}", k),
            }
        }
        let ctx = ThreadCtx::plain(1);
        let got = map.shared().keys(&ctx);
        let want: Vec<u64> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
        map.shared().check_invariants().map_err(TestCaseError::fail)?;
    }
}

#[test]
fn sparse_local_structures_are_smaller() {
    // The paper's claim for sparse skip graphs: "only elements that reach
    // the top level are added to the local structures. Therefore, sparse
    // skip graphs also cause the local structures to become more sparse."
    let dense: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(8).chunk_capacity(4096));
    let sparse: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(8).sparse(true).chunk_capacity(4096));
    let mut hd = dense.register(ThreadCtx::plain(0));
    let mut hs = sparse.register(ThreadCtx::plain(0));
    for k in 0..4000u64 {
        assert!(hd.insert(k, k));
        assert!(hs.insert(k, k));
    }
    assert_eq!(hd.local_len(), 4000, "dense indexes everything");
    // Sparse indexes only towers reaching MaxLevel = 2: expectation 1/4.
    let sparse_len = hs.local_len();
    assert!(
        sparse_len < 4000 / 2 && sparse_len > 4000 / 16,
        "sparse local structure has {sparse_len} of 4000 entries"
    );
    // Both answer queries identically.
    for k in (0..4000u64).step_by(37) {
        assert!(hd.contains(&k));
        assert!(hs.contains(&k));
    }
}

#[test]
fn get_or_insert_semantics() {
    for lazy in [false, true] {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(2).lazy(lazy).chunk_capacity(256));
        let mut h = map.register(ThreadCtx::plain(0));
        // Absent: inserts and returns the new value.
        assert_eq!(h.get_or_insert(1, 10), 10);
        // Present: returns the mapped value, ignores the new one.
        assert_eq!(h.get_or_insert(1, 99), 10);
        assert_eq!(h.get(&1), Some(10));
        // After removal: reinserts; lazy resurrection keeps the original.
        assert!(h.remove(&1));
        let v = h.get_or_insert(1, 42);
        if lazy {
            assert_eq!(v, 10, "resurrected node keeps its value");
        } else {
            assert_eq!(v, 42);
        }
    }
}

#[test]
fn bulk_load_constructor() {
    let map: LayeredMap<u64, u64> = LayeredMap::bulk_load(
        GraphConfig::new(4).chunk_capacity(1024),
        (0..500u64).map(|k| (k, k * 3)),
    );
    let mut h = map.register(ThreadCtx::plain(1));
    for k in (0..500).step_by(41) {
        assert_eq!(h.get(&k), Some(k * 3));
    }
    assert_eq!(map.shared().len(h.ctx()), 500);
    map.shared().check_invariants().unwrap();
}

#[test]
fn rebuild_compacts_dead_weight() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(
        GraphConfig::new(2)
            .lazy(true)
            .commission_cycles(u64::MAX)
            .chunk_capacity(4096),
    );
    let mut h = map.register(ThreadCtx::plain(0));
    for k in 0..1000u64 {
        assert!(h.insert(k, k * 2));
    }
    for k in 0..900u64 {
        assert!(h.remove(&k));
    }
    let ctx = ThreadCtx::plain(0);
    let before = map.shared().memory_stats(&ctx);
    assert_eq!(before.live, 100);
    assert_eq!(before.invalid, 900, "commission never expires: all retained");
    let fresh = map.rebuild();
    let after = fresh.shared().memory_stats(&ctx);
    assert_eq!(after.live, 100);
    assert_eq!(after.invalid + after.marked, 0, "no dead weight");
    assert_eq!(after.allocated, 100);
    // Contents preserved.
    let mut h2 = fresh.register(ThreadCtx::plain(1));
    for k in 900..1000u64 {
        assert_eq!(h2.get(&k), Some(k * 2));
    }
    assert!(!h2.contains(&0));
}

/// `getStart` finishes pending insertions (Alg. 10), and a node without
/// upper levels has nothing left to finish once it is linked: a fresh-key
/// insert costs one search, plus one for every taller node it meets
/// unfinished — never one for each node it meets.
#[test]
fn get_start_finishes_only_nodes_with_upper_levels() {
    const N: u64 = 2000;
    for (name, cfg) in [
        // MaxLevel = 0: every node is height 0.
        ("dense, 2 threads", GraphConfig::new(2).lazy(true)),
        ("sparse, 8 threads", GraphConfig::new(8).lazy(true).sparse(true)),
    ] {
        let map: LayeredMap<u64, u64> = LayeredMap::new(cfg);
        let stats = instrument::AccessStats::new(map.config().num_threads);
        let mut h = map.register(ThreadCtx::recording(0, stats.clone()));
        // Ascending keys: every node but the last is the next insert's
        // start candidate exactly once while it may still be unfinished.
        for k in 0..N {
            assert!(h.insert(k, k), "{name}");
        }
        let heights = map.shared().memory_stats(&ThreadCtx::plain(0)).height_histogram;
        let tall = N - heights[0] as u64;
        let finishes = stats.thread(0).searches - N;
        assert!(
            finishes == tall || finishes + 1 == tall,
            "{name}: {finishes} finishInsert searches for {tall} nodes with upper levels"
        );
        map.shared().check_invariants().unwrap();
    }
}

/// One hash layer per handle: the shared index stands in for the
/// per-thread table where the graph has one.
#[test]
fn indexed_handles_keep_no_local_hashtable() {
    for lazy in [false, true] {
        let plain: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2).lazy(lazy));
        let indexed: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(2).lazy(lazy).hash_index(true));
        let mut hp = plain.register(ThreadCtx::plain(0));
        let mut hi = indexed.register(ThreadCtx::plain(0));
        for k in 0..100u64 {
            assert!(hp.insert(k, k) && hi.insert(k, k));
        }
        assert_eq!(hp.local_hash_len(), Some(100), "lazy={lazy}");
        assert_eq!(hi.local_hash_len(), None, "lazy={lazy}");
        assert_eq!(hi.local_len(), hp.local_len(), "lazy={lazy}");
    }
}

/// The index is best-effort: an entry can be lost to a busy slot, a grow
/// or a colliding signature. The handle's own keys then come back from
/// `getStart` as the start node itself, and a search started at the node
/// would step over it — every point operation has to take that start as
/// the hit it is.
#[test]
fn own_keys_without_an_index_entry_are_still_found() {
    for (name, cfg) in configs() {
        let map: LayeredMap<u64, u64> = LayeredMap::new(cfg.hash_index(true));
        let mut h = map.register(ThreadCtx::plain(0));
        let evict = |k: u64| map.shared().index_evict(&k, &ThreadCtx::plain(0));
        for k in 0..64u64 {
            assert!(h.insert(k, k), "{name}");
        }
        for k in 0..64u64 {
            evict(k);
            match k % 4 {
                0 => assert_eq!(h.get(&k), Some(k), "{name}: get {k}"),
                1 => assert!(h.contains(&k), "{name}: contains {k}"),
                2 => assert!(!h.insert(k, k + 1), "{name}: duplicate insert {k}"),
                _ => assert!(h.remove(&k), "{name}: remove {k}"),
            }
        }
        assert_eq!(map.shared().len(h.ctx()), 48, "{name}");
        // Removed keys: absent whether or not their tombstone entry
        // survives, and insertable again exactly once.
        for k in (3..64u64).step_by(4) {
            evict(k);
            assert_eq!(h.get(&k), None, "{name}: get removed {k}");
            assert!(!h.remove(&k), "{name}: double remove {k}");
            evict(k);
            assert!(h.insert(k, k + 2), "{name}: reinsert {k}");
            evict(k);
            assert!(!h.insert(k, k + 3), "{name}: duplicate reinsert {k}");
            assert!(h.contains(&k), "{name}: contains reinserted {k}");
        }
        assert_eq!(map.shared().len(h.ctx()), 64, "{name}");
        map.shared().check_invariants().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// A read that had to search for a key the index had lost publishes the
/// node it found, so the key's next operation is a probe again — whether
/// the reader's local structures hold the key or not.
#[test]
fn a_read_that_searched_republishes_the_entry() {
    for lazy in [false, true] {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(2).lazy(lazy).hash_index(true));
        let stats = instrument::AccessStats::new(2);
        let mut owner = map.register(ThreadCtx::recording(0, stats.clone()));
        let mut other = map.register(ThreadCtx::recording(1, stats.clone()));
        for k in 0..32u64 {
            assert!(owner.insert(k, k));
        }
        for (t, h) in [&mut owner, &mut other].into_iter().enumerate() {
            map.shared().index_evict(&7, h.ctx());
            let before = stats.thread(t);
            assert_eq!(h.get(&7), Some(7), "lazy={lazy} t{t}");
            assert_eq!(h.get(&7), Some(7), "lazy={lazy} t{t}");
            let after = stats.thread(t);
            assert_eq!(after.index_misses - before.index_misses, 1, "lazy={lazy} t{t}");
            assert_eq!(after.index_hits - before.index_hits, 1, "lazy={lazy} t{t}");
        }
    }
}

/// `bulk_load` inserts through thread slot 0, so every loaded node lands
/// in slot 0's arena; `rebuild` goes through
/// the same path and re-compacts mutations from other slots back into
/// slot 0 (documented on both constructors).
#[test]
fn bulk_load_and_rebuild_land_in_slot_zero_arena() {
    let n = 200u64;
    let map: LayeredMap<u64, u64> =
        LayeredMap::bulk_load(GraphConfig::new(4).chunk_capacity(64), (0..n).map(|k| (k, k + 1)));
    let sizes = map.shared().arena_sizes();
    assert_eq!(sizes[0] as u64, n, "bulk-loaded nodes must come from slot 0's arena");
    assert!(sizes[1..].iter().all(|&s| s == 0), "non-zero foreign arena: {sizes:?}");
    map.shared().check_invariants().unwrap();

    // Mutate from a different thread slot: removals plus fresh keys that
    // allocate from slot 1's arena.
    {
        let mut h = map.register(ThreadCtx::plain(1));
        for k in 0..50u64 {
            assert!(h.remove(&k));
        }
        for k in n..n + 25 {
            assert!(h.insert(k, k + 1));
        }
    }
    assert!(map.shared().arena_sizes()[1] > 0, "slot 1 inserts must use slot 1's arena");

    let live = (n - 50 + 25) as usize;
    let rebuilt = map.rebuild();
    let sizes = rebuilt.shared().arena_sizes();
    assert_eq!(sizes[0], live, "rebuild must compact every live node into slot 0");
    assert!(sizes[1..].iter().all(|&s| s == 0), "rebuild left foreign arenas: {sizes:?}");
    rebuilt.shared().check_invariants().unwrap();

    let mut h = rebuilt.register(ThreadCtx::plain(0));
    for k in 0..50u64 {
        assert!(!h.contains(&k), "removed key {k} survived rebuild");
    }
    for k in 50..n + 25 {
        assert_eq!(h.get(&k), Some(k + 1), "live key {k} lost by rebuild");
    }
}

/// EXPERIMENTS C3: non-lazy removals must *tombstone* the removed key's
/// local-map entry (remapping it to the surviving predecessor) instead of
/// dropping it, so removal-heavy runs keep their shared-structure entry
/// points. Subsequent operations must still be exact.
#[test]
fn nonlazy_removes_retain_tombstoned_hints() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2).chunk_capacity(256));
    let mut h = map.register(ThreadCtx::plain(0));
    for k in 0..100u64 {
        assert!(h.insert(k, k));
    }
    for k in 50..100u64 {
        assert!(h.remove(&k));
    }
    assert!(
        h.local_len() > 50,
        "tombstoned hints were dropped: local_len = {} (50 live keys)",
        h.local_len()
    );
    for k in 0..50u64 {
        assert!(h.contains(&k));
    }
    for k in 50..100u64 {
        assert!(!h.contains(&k), "tombstone for {k} must not answer membership");
    }
    for k in 50..100u64 {
        assert!(h.insert(k, k + 1), "reinsert over tombstone failed for {k}");
    }
    assert_eq!(h.get(&60), Some(61));
    map.shared().check_invariants().unwrap();
}

/// Tombstoned hints are budgeted (64 per handle): the budget caps what a
/// removal-heavy run retains, and re-inserting or erasing a tombstoned key
/// frees its share for later removals — with the per-thread hashtable and,
/// on an indexed map, without it.
#[test]
fn tombstone_budget_caps_and_refills() {
    const BUDGET: usize = 64;
    for indexed in [false, true] {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(2).hash_index(indexed).chunk_capacity(256));
        let mut h = map.register(ThreadCtx::plain(0));
        for k in 0..400u64 {
            assert!(h.insert(k, k));
        }
        for k in 100..300u64 {
            assert!(h.remove(&k));
        }
        assert_eq!(h.local_len(), 200 + BUDGET, "indexed={indexed}: cap");
        // The first 64 removals hold the tombstones; bring 32 of them
        // back to life, then remove 100 other keys.
        for k in 100..132u64 {
            assert!(h.insert(k, k + 1), "indexed={indexed}: reinsert over tombstone {k}");
        }
        assert_eq!(h.local_len(), 232 + BUDGET - 32, "indexed={indexed}: freed");
        for k in 300..400u64 {
            assert!(h.remove(&k));
        }
        assert_eq!(h.local_len(), 132 + BUDGET, "indexed={indexed}: refilled to the cap");
        for k in 0..400u64 {
            let live = k < 132;
            assert_eq!(h.contains(&k), live, "indexed={indexed}: contains {k}");
        }
        map.shared().check_invariants().unwrap();
    }
}
