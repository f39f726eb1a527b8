//! Batch-executor integration tests: sorted-run hint chaining, combined
//! outcome correctness against a sequential model, slot-0 arena placement
//! of bulk loads/rebuilds, and tombstoned local hints (EXPERIMENTS C3).

use instrument::{AccessStats, ThreadCtx};
use skipgraph::{
    BatchConfig, BatchOp, BatchOutcome, BatchedLayeredMap, GraphConfig, LayeredMap,
};
use std::collections::BTreeMap;

/// A sorted 64-key batch must perform strictly fewer shared-node visits
/// than the same 64 inserts issued independently. The sparse non-lazy
/// protocol keeps the local maps from indexing every tower (only
/// max-level towers are indexed), so independent inserts pay repeated
/// near-head searches while the combiner's sorted run resumes each
/// insertion from its predecessor's frontier.
#[test]
fn sorted_batch_visits_fewer_nodes_than_independent_inserts() {
    // A fixed permutation of 0..64 (37 is coprime to 64).
    let keys: Vec<u64> = (0..64u64).map(|i| (i * 37) % 64).collect();
    let config = || GraphConfig::new(8).sparse(true).chunk_capacity(256);

    let ind_stats = AccessStats::new(8);
    let plain: LayeredMap<u64, u64> = LayeredMap::new(config());
    {
        let mut h = plain.register(ThreadCtx::recording(0, ind_stats.clone()));
        for &k in &keys {
            assert!(h.insert(k, k));
        }
    }
    let independent = ind_stats.totals().traversed;

    let bat_stats = AccessStats::new(8);
    let combined: BatchedLayeredMap<u64, u64> =
        BatchedLayeredMap::new(config(), BatchConfig::uniform(8, 1));
    {
        let mut h = combined.register(ThreadCtx::recording(0, bat_stats.clone()));
        let outs = h.execute_batch(keys.iter().map(|&k| BatchOp::Insert(k, k)).collect());
        assert_eq!(outs.len(), keys.len());
        for out in &outs {
            assert!(matches!(out, BatchOutcome::Inserted { fresh: true, .. }));
        }
    }
    let batched = bat_stats.totals().traversed;

    assert!(
        batched < independent,
        "sorted batch visited {batched} nodes, independent inserts {independent}"
    );
    let totals = bat_stats.totals();
    assert!(totals.batches >= 1, "combiner recorded no batch");
    assert_eq!(totals.batched_ops, keys.len() as u64);
}

/// Randomized mixed batches checked against a sequential `BTreeMap`
/// model. The combiner sorts stably by key, so same-key operations
/// execute in submission order and different-key operations commute —
/// outcomes must match applying the batch to the model in submission
/// order. Values are a pure function of the key because lazy
/// resurrection keeps the original node's value. Direct (unbatched)
/// operations interleave between rounds.
#[test]
fn mixed_batches_match_sequential_model() {
    let combined: BatchedLayeredMap<u64, u64> = BatchedLayeredMap::new(
        GraphConfig::new(4).lazy(true).chunk_capacity(256),
        BatchConfig::uniform(4, 1),
    );
    let mut h = combined.register(ThreadCtx::plain(0));
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();

    // Deterministic splitmix-style generator (no external RNG needed).
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };

    for _round in 0..40 {
        let spec: Vec<(u64, u64)> = (0..16).map(|_| (next() % 3, next() % 64)).collect();
        let outs = h.execute_batch(
            spec.iter()
                .map(|&(op, k)| match op {
                    0 => BatchOp::Insert(k, k * 10),
                    1 => BatchOp::Remove(k),
                    _ => BatchOp::Get(k),
                })
                .collect(),
        );
        assert_eq!(outs.len(), spec.len());
        for (&(op, k), out) in spec.iter().zip(&outs) {
            match (op, out) {
                (0, BatchOutcome::Inserted { fresh, .. }) => {
                    let expect = !model.contains_key(&k);
                    if expect {
                        model.insert(k, k * 10);
                    }
                    assert_eq!(*fresh, expect, "insert({k})");
                }
                (1, BatchOutcome::Removed { removed, .. }) => {
                    assert_eq!(*removed, model.remove(&k).is_some(), "remove({k})");
                }
                (_, BatchOutcome::Got(v)) => {
                    assert_eq!(v.as_ref(), model.get(&k), "get({k})");
                }
                (op, out) => panic!("op kind {op} got mismatched outcome {out:?}"),
            }
        }
        // A few direct (unbatched) operations between batches.
        for _ in 0..4 {
            let k = next() % 64;
            assert_eq!(h.contains(&k), model.contains_key(&k), "direct contains({k})");
        }
    }
    combined.inner().shared().check_invariants().unwrap();
}

/// `bulk_load` runs as one sorted hint-chained run through thread slot 0,
/// so every loaded node lands in slot 0's arena; `rebuild` goes through
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

/// The combined execution path applies the same C3 tombstoning on
/// non-lazy removals it drains from the publication slots.
#[test]
fn combined_nonlazy_removes_retain_tombstoned_hints() {
    let combined: BatchedLayeredMap<u64, u64> = BatchedLayeredMap::new(
        GraphConfig::new(2).chunk_capacity(256),
        BatchConfig::uniform(2, 1),
    );
    let mut h = combined.register(ThreadCtx::plain(0));
    let outs = h.execute_batch((0..64u64).map(|k| BatchOp::Insert(k, k)).collect());
    assert!(outs
        .iter()
        .all(|o| matches!(o, BatchOutcome::Inserted { fresh: true, .. })));
    let outs = h.execute_batch((32..64u64).map(BatchOp::Remove).collect());
    assert!(outs
        .iter()
        .all(|o| matches!(o, BatchOutcome::Removed { removed: true, .. })));
    assert!(
        h.direct().local_len() > 32,
        "combined non-lazy removes dropped their tombstones: local_len = {}",
        h.direct().local_len()
    );
    for k in 0..32u64 {
        assert!(h.contains(&k));
    }
    for k in 32..64u64 {
        assert!(!h.contains(&k));
    }
    combined.inner().shared().check_invariants().unwrap();
}
