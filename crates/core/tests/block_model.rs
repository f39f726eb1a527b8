//! The differential/property test wall around the blocked map's
//! split/merge machinery.
//!
//! Three rings: (1) single-threaded differential checks against
//! `BTreeMap` over arbitrary op sequences (colliding keys included) at
//! the capacities that force constant splitting and merging; (2)
//! real-thread runs over disjoint key classes (`k % threads == t`) whose
//! final state is exactly predictable; (3) the same runs under the
//! deterministic scheduler's round-robin and PCT policies, where every
//! interleaving is replayable. The structural invariants (anchor order,
//! coverage, no frozen residue) are re-checked after every run.
#![cfg(not(feature = "bug-injection"))]

use instrument::{AccessStats, ThreadCtx};
use proptest::prelude::*;
use skipgraph::{BlockedSkipMap, GraphConfig, MAX_BLOCK_CAP, MIN_BLOCK_CAP};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

fn bound_from(tag: u8, k: u64) -> Bound<u64> {
    match tag % 3 {
        0 => Bound::Unbounded,
        1 => Bound::Included(k),
        _ => Bound::Excluded(k),
    }
}

fn as_ref_bound(b: &Bound<u64>) -> Bound<&u64> {
    match b {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential: any op sequence on a blocked map behaves exactly
    /// like a `BTreeMap`, for the split-happy capacities and both tower
    /// regimes.
    #[test]
    fn behaves_like_btreemap(
        ops in proptest::collection::vec((0u8..4, 0u64..48, 0u64..1000), 1..350),
        cap_sel: bool,
        sparse: bool,
    ) {
        let cap = if cap_sel { 2 } else { 4 };
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(2).sparse(sparse).chunk_capacity(256),
            cap,
        );
        let mut h = map.register(ThreadCtx::plain(0));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 => prop_assert_eq!(
                    h.insert(k, v),
                    !model.contains_key(&k),
                    "insert {}", k
                ),
                1 => prop_assert_eq!(h.remove(&k), model.remove(&k).is_some(), "remove {}", k),
                2 => prop_assert_eq!(h.get(&k), model.get(&k).copied(), "get {}", k),
                _ => prop_assert_eq!(h.contains(&k), model.contains_key(&k), "contains {}", k),
            }
            if op == 0 && !model.contains_key(&k) {
                model.insert(k, v);
            }
        }
        let got: Vec<(u64, u64)> = map.range(Bound::Unbounded, Bound::Unbounded, h.ctx()).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        map.check_invariants(h.ctx()).map_err(TestCaseError::fail)?;
    }

    /// Differential range scans: arbitrary bounds against the model,
    /// after a mixed load that leaves removed (still claimed) slots in
    /// most blocks, then re-inserts a share of the removed keys — fresh
    /// slots and unsorted tails, or splits where no slot is free — at the
    /// smallest, a middle and the largest block
    /// capacity (the bounds of the scan's per-block buffer).
    #[test]
    fn ranges_match_btreemap(
        keys in proptest::collection::vec(0u64..64, 1..120),
        removes in proptest::collection::vec((0u64..64, any::<bool>()), 0..60),
        start in (0u8..3, 0u64..64),
        end in (0u8..3, 0u64..64),
        cap in prop_oneof![Just(MIN_BLOCK_CAP), Just(8), Just(MAX_BLOCK_CAP)],
    ) {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(2).chunk_capacity(256),
            cap,
        );
        let mut h = map.register(ThreadCtx::plain(0));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for k in keys {
            h.insert(k, k * 3);
            model.entry(k).or_insert(k * 3);
        }
        for &(k, _) in &removes {
            h.remove(&k);
            model.remove(&k);
        }
        // The same pair again: it claims a fresh slot (the removed one
        // keeps its claim), or splits a block with none free.
        for &(k, _) in removes.iter().filter(|(_, again)| *again) {
            h.insert(k, k * 3);
            model.insert(k, k * 3);
        }
        let (sb, eb) = (bound_from(start.0, start.1), bound_from(end.0, end.1));
        // An inverted range is a caller error for BTreeMap::range; give
        // the model the same guard the map's iterator applies naturally.
        let inverted = match (&sb, &eb) {
            (Bound::Included(s) | Bound::Excluded(s), Bound::Included(e) | Bound::Excluded(e)) => s > e,
            _ => false,
        };
        if !inverted {
            let got: Vec<(u64, u64)> = map.range(as_ref_bound(&sb), eb, h.ctx()).collect();
            let want: Vec<(u64, u64)> = model.range((sb, eb)).map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, want, "range {:?}..{:?}", sb, eb);
        }
        map.check_invariants(h.ctx()).map_err(TestCaseError::fail)?;
    }

    /// Local-anchor differential: the same arbitrary-sequence contract as
    /// `behaves_like_btreemap`, with every point op and every scan start
    /// under one thread slot, so each resolves via that slot's local anchor
    /// map first — at blocks of two and four (splits *and* merges retire
    /// recorded anchors constantly), with explicit grace-period flushes
    /// mid-sequence. A flush recycles the retired anchors the slot still
    /// references, so subsequent lookups must die on the generation check;
    /// a recorded anchor surviving past a split/merge/recycle would answer
    /// the very next op or scan from the wrong block and diverge from the
    /// model immediately. The handle is dropped and registered again
    /// mid-sequence: the slot, stale entries included, outlives it.
    #[test]
    fn handle_over_local_anchors_behaves_like_btreemap(
        ops in proptest::collection::vec((0u8..12, 0u64..48, 0u64..1000), 1..350),
        cap in prop_oneof![Just(2usize), Just(4)],
    ) {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(2).chunk_capacity(256),
            cap,
        );
        let mut h = map.register(ThreadCtx::plain(0));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0..=2 => {
                    let expect = !model.contains_key(&k);
                    prop_assert_eq!(h.insert(k, v), expect, "insert {}", k);
                    if expect {
                        model.insert(k, v);
                    }
                }
                3 | 4 => prop_assert_eq!(
                    h.remove(&k),
                    model.remove(&k).is_some(),
                    "remove {}",
                    k
                ),
                5 | 6 => prop_assert_eq!(h.get(&k), model.get(&k).copied(), "get {}", k),
                7 => prop_assert_eq!(h.contains(&k), model.contains_key(&k), "contains {}", k),
                8 | 9 => {
                    let end = k + v % 16;
                    let got: Vec<(u64, u64)> =
                        map.range(Bound::Excluded(&k), Bound::Included(end), h.ctx()).collect();
                    let want: Vec<(u64, u64)> = model
                        .range((Bound::Excluded(k), Bound::Included(end)))
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    prop_assert_eq!(got, want, "range ({}, {}]", k, end);
                }
                10 => h = map.register(ThreadCtx::plain(0)),
                _ => {
                    // Retire-and-recycle point: every anchor a split or
                    // merge has retired so far is now recycled under a
                    // bumped generation while the slot still holds a
                    // reference to the old incarnation.
                    map.shared().reclaim_flush(h.ctx());
                }
            }
        }
        // Final sweep through the (now maximally stale) local anchor map.
        for k in 0..48u64 {
            prop_assert_eq!(h.get(&k), model.get(&k).copied(), "final get {}", k);
        }
        let ctx = ThreadCtx::plain(1);
        let got: Vec<(u64, u64)> = map.range(Bound::Unbounded, Bound::Unbounded, &ctx).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        map.check_invariants(&ctx).map_err(TestCaseError::fail)?;
    }
}

/// Seeded per-thread op plan over this thread's key class (`k % threads
/// == t`): a pure function of `(seed, t)`, so real-thread and
/// deterministic runs execute identical plans.
fn class_plan(seed: u64, t: u64, threads: u64, ops: usize, key_space: u64) -> Vec<(u8, u64)> {
    let mut x = seed ^ (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    (0..ops)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x / 8 % (key_space / threads)) * threads + t;
            ((x % 8) as u8, k)
        })
        .collect()
}

/// The plan op that scans [`SCAN_SPAN`] keys from its key on (the seeded
/// plans of [`class_plan`] never draw it).
const SCAN: u8 = 8;
const SCAN_SPAN: u64 = 14;

/// Applies one plan through a handle of `ctx`'s thread slot, mirroring it
/// on a model; returns the model (exact, because no two threads' plans
/// touch one key). `stable` holds what was loaded beforehand and no plan
/// removes. A scan is checked for what the weak per-block snapshot
/// promises: strictly ascending keys inside its bounds, each with the
/// value its inserter gave it, and none missing that is stable or this
/// thread's own.
fn run_plan(
    map: &BlockedSkipMap<u64, u64>,
    ctx: ThreadCtx,
    plan: &[(u8, u64)],
    stable: &BTreeMap<u64, u64>,
) -> BTreeMap<u64, u64> {
    let t = ctx.id();
    let mut h = map.register(ctx);
    let mut model = BTreeMap::new();
    for &(op, k) in plan {
        match op {
            0..=3 => {
                let expect = !model.contains_key(&k);
                assert_eq!(h.insert(k, k + 1), expect, "t{t} insert {k}");
                if expect {
                    model.insert(k, k + 1);
                }
            }
            4..=5 => {
                let expect = model.remove(&k).is_some();
                assert_eq!(h.remove(&k), expect, "t{t} remove {k}");
            }
            SCAN => {
                let end = k + SCAN_SPAN;
                let seen: Vec<(u64, u64)> = map
                    .range(Bound::Included(&k), Bound::Excluded(end), h.ctx())
                    .collect();
                assert!(
                    seen.windows(2).all(|w| w[0].0 < w[1].0),
                    "t{t} scan from {k} not strictly ascending: {seen:?}"
                );
                for &(key, v) in &seen {
                    assert!((k..end).contains(&key), "t{t} scan from {k} yielded {key}");
                    let loaded = stable.get(&key).copied();
                    assert_eq!(
                        v,
                        loaded.unwrap_or(key + 1),
                        "t{t} scan from {k}: value of {key}"
                    );
                }
                for (key, v) in stable.range(k..end).chain(model.range(k..end)) {
                    assert!(
                        seen.binary_search(&(*key, *v)).is_ok(),
                        "t{t} scan from {k} lost {key}: {seen:?}"
                    );
                }
            }
            _ => {
                assert_eq!(h.get(&k), model.get(&k).copied(), "t{t} get {k}");
            }
        }
    }
    model
}

fn check_final_state(map: &BlockedSkipMap<u64, u64>, models: Vec<BTreeMap<u64, u64>>) {
    let mut h = map.register(ThreadCtx::plain(0));
    let mut want: BTreeMap<u64, u64> = BTreeMap::new();
    for m in models {
        want.extend(m);
    }
    for (&k, &v) in &want {
        assert_eq!(h.get(&k), Some(v), "final get {k}");
    }
    let got: Vec<(u64, u64)> = map
        .range(Bound::Unbounded, Bound::Unbounded, h.ctx())
        .collect();
    let want_vec: Vec<(u64, u64)> = want.into_iter().collect();
    assert_eq!(got, want_vec, "final scan mismatch");
    map.check_invariants(h.ctx()).unwrap();
}

/// Real threads, disjoint key classes: every per-thread op outcome and
/// the final state are exactly predictable even though splits and merges
/// interleave freely.
#[test]
fn real_threads_disjoint_classes_are_exact() {
    const THREADS: u64 = 3;
    for (cap, seed) in [(2usize, 11u64), (4, 22), (8, 33)] {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(THREADS as usize).chunk_capacity(1 << 10),
            cap,
        );
        let models = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let map = &map;
                    s.spawn(move || {
                        let plan = class_plan(seed, t, THREADS, 400, 60);
                        run_plan(map, ThreadCtx::plain(t as u16), &plan, &BTreeMap::new())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        check_final_state(&map, models);
    }
}

/// A real-thread writer splits blocks while a reader iterates across
/// them: scans must stay strictly ascending and never lose a key that
/// was present before the scan began (satellite of the weak-snapshot
/// contract).
#[test]
fn iteration_crosses_blocks_under_concurrent_splits() {
    let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
        GraphConfig::new(2).chunk_capacity(1 << 10),
        4,
    );
    let stable: Vec<u64> = (0..120).map(|i| i * 10).collect();
    let mut setup = map.register(ThreadCtx::plain(0));
    for &k in &stable {
        setup.insert(k, k);
    }
    drop(setup);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut h = map.register(ThreadCtx::plain(1));
            // Odd keys only: the stable (even) keys are never touched, so
            // every scan must observe all of them.
            for round in 0..6u64 {
                for i in 0..120 {
                    h.insert(i * 10 + 1 + round, i);
                }
                for i in 0..120 {
                    h.remove(&(i * 10 + 1 + round));
                }
            }
        });
        let ctx = ThreadCtx::plain(0);
        for _ in 0..8 {
            let seen: Vec<u64> = map
                .range(Bound::Unbounded, Bound::Unbounded, &ctx)
                .map(|(k, _)| k)
                .collect();
            let mut ascending = seen.clone();
            ascending.sort_unstable();
            ascending.dedup();
            assert_eq!(seen, ascending, "scan not strictly ascending");
            for &k in &stable {
                assert!(seen.binary_search(&k).is_ok(), "stable key {k} lost mid-scan");
            }
        }
        writer.join().unwrap();
    });
    map.check_invariants(&ThreadCtx::plain(0)).unwrap();
}

/// Split-storm liveness regression: a hot shared key space at the
/// smallest capacity makes every block freeze, split, and re-split while
/// replacements for the *same* anchor keys race their upper-level
/// linking. This is the workload that exposed the self-successor
/// livelock (a replacement's duplicate `link_upper` adopting itself as
/// its own level-1 successor, spinning every traversal) — a regression
/// hangs this test rather than failing an assert.
#[test]
fn split_storm_on_shared_keys_stays_live() {
    const KEY_SPACE: u64 = 512;
    for seed in [3u64, 71, 123] {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(6).chunk_capacity(1 << 12),
            2,
        );
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t as u16));
                    let mut x = seed ^ (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
                    for _ in 0..30_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x / 8 % KEY_SPACE;
                        // Write-heavy: blocks churn through fill,
                        // freeze, split, and merge continuously.
                        match x % 8 {
                            0..=4 => {
                                h.insert(k, k);
                            }
                            5 | 6 => {
                                h.remove(&k);
                            }
                            _ => {
                                h.get(&k);
                            }
                        }
                    }
                });
            }
        });
        let ctx = ThreadCtx::plain(0);
        for (k, v) in map.range(Bound::Unbounded, Bound::Unbounded, &ctx) {
            assert!(k < KEY_SPACE && v == k, "stray entry {k} -> {v}");
        }
        map.check_invariants(&ctx).unwrap();
    }
}

/// A scattered preload at the size the scan workloads of the literature
/// use. Nothing here is timed: with a split that walks level 0 from its
/// head this load is quadratic and does not finish inside a test timeout
/// (143 s in a release build against about a second), which is also why
/// the test is left out of debug runs, where it needs some 20 s.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn scattered_preload_of_2_19_keys_through_two_handles() {
    const KEYS: u64 = 1 << 19;
    const THREADS: u64 = 2;
    let scatter = |i: u64| i.wrapping_mul(0x9E37_79B1_85EB_CA87);
    let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
        GraphConfig::new(THREADS as usize).max_level(7).sparse(true),
        8,
    );
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let map = &map;
            s.spawn(move || {
                let mut h = map.register(ThreadCtx::plain(t as u16));
                for i in (t..KEYS).step_by(THREADS as usize) {
                    assert!(h.insert(scatter(i), i), "insert {i}");
                }
            });
        }
    });
    let mut h = map.register(ThreadCtx::plain(0));
    assert_eq!(map.len(h.ctx()) as u64, KEYS);
    map.check_invariants(h.ctx()).unwrap();
    for i in 0..KEYS {
        assert_eq!(h.get(&scatter(i)), Some(i), "key {i}");
    }
}

/// What the same preload reads, as an exact count: one driver thread, two
/// recording handles taking turns. An insert starts at a local anchor and
/// pays no descent of its own; a split still descends from the head for
/// its frontier, through top lists eight times as long at eight times the
/// keys, and that is all that grows (454 reads per insert against 112
/// before the local anchor maps, 4.05 times as many).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn scattered_preload_reads_grow_only_by_the_splits_descent() {
    fn reads_per_insert(keys: u64) -> f64 {
        let map: BlockedSkipMap<u64, u64> =
            BlockedSkipMap::new(GraphConfig::new(2).max_level(7).sparse(true), 8);
        let stats = AccessStats::new(2);
        let mut handles: Vec<_> = (0..2)
            .map(|t| map.register(ThreadCtx::recording(t, Arc::clone(&stats))))
            .collect();
        for i in 0..keys {
            assert!(handles[i as usize % 2].insert(i.wrapping_mul(0x9E37_79B1_85EB_CA87), i));
        }
        assert_eq!(map.len(&ThreadCtx::plain(0)) as u64, keys);
        stats.reads().total() as f64 / keys as f64
    }
    let (mid, large) = (reads_per_insert(1 << 16), reads_per_insert(1 << 19));
    println!(
        "scattered preload: {mid:.1} reads/insert over 2^16 keys, {large:.1} over 2^19 ({:.2}x)",
        large / mid
    );
    assert!(
        large <= 3.3 * mid,
        "reads per insert: {mid:.1} -> {large:.1}"
    );
}

/// The same disjoint-class exactness under the deterministic scheduler:
/// every facade access is sequenced by the policy, so failures here come
/// with a replayable schedule.
#[cfg(feature = "deterministic")]
mod deterministic {
    use super::*;
    use skipgraph::det::{self, DetConfig, Policy};
    use std::sync::Mutex;

    /// Runs `plan(t)` on thread `t` of `map` (which holds `preloaded`,
    /// keys no plan removes) under `det` and checks every outcome and the
    /// final state; returns the steps the schedule took. Counters go to
    /// `stats` if given.
    fn det_run(
        map: &BlockedSkipMap<u64, u64>,
        threads: u64,
        plan: impl Fn(u64) -> Vec<(u8, u64)> + Sync,
        preloaded: BTreeMap<u64, u64>,
        det: &DetConfig,
        stats: Option<&Arc<AccessStats>>,
    ) -> usize {
        let models = Mutex::new(Vec::new());
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads as u16)
            .map(|t| {
                let (models, plan, preloaded) = (&models, &plan, &preloaded);
                Box::new(move || {
                    let ctx = match stats {
                        Some(s) => ThreadCtx::recording(t, Arc::clone(s)),
                        None => ThreadCtx::plain(t),
                    };
                    let model = run_plan(map, ctx, &plan(t as u64), preloaded);
                    models.lock().unwrap().push(model);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let steps = det::run_threads(det, workers).decisions.len();
        let mut models = models.into_inner().unwrap();
        models.push(preloaded);
        check_final_state(map, models);
        steps
    }

    fn det_round(cap: usize, seed: u64, det: DetConfig) {
        const THREADS: u64 = 3;
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
            GraphConfig::new(THREADS as usize).chunk_capacity(512),
            cap,
        );
        let plan = |t| class_plan(seed, t, THREADS, 60, 24);
        det_run(&map, THREADS, plan, BTreeMap::new(), &det, None);
    }

    /// At capacity 2 the quanta start at 2: quantum 1 puts two inserters
    /// of one block in lock step, and whether a given seed then finishes is
    /// a lottery every change to a split's yield points re-rolls (see
    /// `cap2_quantum1_lockstep_insert_contest`). This is a dev-profile
    /// lane, as CI runs it: `--release` drops the `debug_assert!`s' facade
    /// loads, a different set of yield points, and the same livelock then
    /// exceeds `max_steps` here.
    #[test]
    fn round_robin_schedules_are_exact() {
        for (cap, seed, quantum) in [(2usize, 1u64, 2u32), (2, 2, 3), (4, 3, 2), (4, 4, 7)] {
            det_round(cap, seed, DetConfig::new(seed, Policy::RoundRobin { quantum }));
        }
    }

    /// ROADMAP "No asterisks" (i): a block with one free slot is not
    /// lock-free under lock step. One inserter claims the slot, another
    /// finds every slot claimed and freezes the block before the first
    /// publishes, the claim dies with the block, the replacement is born
    /// with one free slot, and round-robin quantum 1 can repeat that for
    /// ever at capacity 2: splits complete, inserts do not. Which seeds it
    /// catches moves with every yield point a split gains or loses, so this
    /// sweeps them and prints the ones that run out of steps. The item that
    /// makes the freezer help unpublished claims un-ignores it.
    #[test]
    #[ignore = "ROADMAP: No asterisks (i)"]
    fn cap2_quantum1_lockstep_insert_contest() {
        let stuck: Vec<u64> = (1..=24u64)
            .filter(|&seed| {
                let mut det = DetConfig::new(seed, Policy::RoundRobin { quantum: 1 });
                det.max_steps = 200_000;
                std::panic::catch_unwind(|| det_round(2, seed, det)).is_err()
            })
            .collect();
        println!("cap 2, quantum 1: seeds {stuck:?} of 1..=24 exceed 200 000 steps");
        assert!(
            stuck.is_empty(),
            "lock-step inserters livelock on seeds {stuck:?}"
        );
    }

    #[test]
    fn pct_schedules_are_exact() {
        for (cap, seed) in [(2usize, 5u64), (2, 6), (4, 7), (4, 8)] {
            det_round(
                cap,
                seed,
                DetConfig::new(
                    seed,
                    Policy::Pct {
                        change_points: 10,
                        expected_steps: 30_000,
                    },
                ),
            );
        }
    }

    /// A split whose carried predecessor dies. The key space is cut into
    /// zones of `ZONE` keys dealt to the threads in turn; a zone's first
    /// key is preloaded and never removed, so every zone always has an
    /// anchor of its own and no block ever takes inserts from two threads
    /// (at capacity 2 those would race for one free slot, a contest of the
    /// *insert* protocol that lock-step schedules can prolong at will and
    /// that is not this lane's subject). The threads work adjacent zones
    /// at the same time — fill one, empty it, move `THREADS` zones on — so
    /// the block before a zone's first one, which is what a split there
    /// carries as its predecessor at level 0 and often above, belongs to
    /// the neighbouring thread and is freezing, splitting, merging or
    /// being retired in the same window. Threads 0/1 and 2/3 share a
    /// membership vector, so a replacement is linked both ways: through
    /// the carried frontier (nine in ten here) and, when a helper of the
    /// other pair built it, through its own descent. Every outcome and the
    /// final state are exact, and the step budget is the liveness half: a
    /// stale frontier entry descends again, it does not spin. The sweep is
    /// wide, not pinned to seeds: the yield points of a split move with
    /// its code.
    #[test]
    fn adjacent_splits_outlive_their_carried_predecessors() {
        const THREADS: u64 = 4;
        const ZONE: u64 = 6;
        const ZONES_EACH: u64 = 4;
        const MAX_STEPS: u64 = 200_000;
        let plan = |t: u64| {
            let mut ops = Vec::new();
            for round in 0..ZONES_EACH {
                let first = (round * THREADS + t) * ZONE;
                ops.extend((1..ZONE).map(|i| (0u8, first + i)));
                // Emptied blocks merge, which retires their anchors.
                ops.extend((1..ZONE - 1).map(|i| (4u8, first + i)));
                ops.push((6, first + ZONE - 1));
            }
            ops
        };
        let pct = (0..64u64).map(|seed| {
            let policy = Policy::Pct {
                change_points: 12,
                expected_steps: 30_000,
            };
            (100 + seed, policy)
        });
        let round_robin =
            (1..=16u32).map(|quantum| (quantum as u64, Policy::RoundRobin { quantum }));
        let (mut schedules, mut longest) = (0, 0);
        for (seed, policy) in pct.chain(round_robin) {
            for sparse in [false, true] {
                let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
                    GraphConfig::new(THREADS as usize)
                        .sparse(sparse)
                        .chunk_capacity(512),
                    2,
                );
                let mut loader = map.register(ThreadCtx::plain(0));
                let anchored: BTreeMap<u64, u64> = (0..THREADS * ZONES_EACH)
                    .map(|zone| (zone * ZONE, zone))
                    .collect();
                for (&k, &v) in &anchored {
                    assert!(loader.insert(k, v));
                }
                drop(loader);
                let mut det = DetConfig::new(seed, policy.clone());
                det.max_steps = MAX_STEPS;
                longest = longest.max(det_run(&map, THREADS, plan, anchored, &det, None));
                schedules += 1;
            }
        }
        println!("adjacent splits: {schedules} schedules, longest {longest} of {MAX_STEPS} steps");
    }

    /// Scans that start at a local anchor a neighbour is killing. Zones as
    /// in `adjacent_splits_outlive_their_carried_predecessors`: a zone's
    /// first key is loaded beforehand and never removed, the rest of it is
    /// one thread's to fill and empty, and the threads work adjacent zones
    /// at the same time. Between its own steps a thread scans from inside
    /// the zones on either side of its own, twice over: the first scan's
    /// search leaves the sampled anchors it passed in the thread's slot —
    /// the neighbour's blocks — and by the next one the neighbour has
    /// frozen, split, merged or retired them, so the scan starts from an
    /// entry that is evicted on sight, or live and no longer covering, or
    /// dies under the jump-in. Every scan must be strictly ascending, hold
    /// nothing from outside its bounds, and miss no key that is never
    /// removed (nor one of the scanner's own). With `sparse` only some
    /// anchors are sampled; without it all are. The counters say how many
    /// scans and point operations began at a local anchor at all.
    #[test]
    fn scans_start_at_local_anchors_a_neighbour_kills() {
        const THREADS: u64 = 4;
        const ZONE: u64 = 6;
        const ZONES_EACH: u64 = 3;
        const MAX_STEPS: u64 = 200_000;
        let plan = |t: u64| {
            let mut ops = Vec::new();
            for round in 0..ZONES_EACH {
                let zone = round * THREADS + t;
                let first = zone * ZONE;
                let around = |ops: &mut Vec<(u8, u64)>| {
                    ops.push((SCAN, first.saturating_sub(ZONE - 2)));
                    ops.push((SCAN, first + ZONE + 1));
                };
                around(&mut ops);
                for i in 1..ZONE {
                    ops.push((0u8, first + i));
                    if i % 2 == 0 {
                        around(&mut ops);
                    }
                }
                // Emptied blocks merge, which retires their anchors.
                for i in 1..ZONE - 1 {
                    ops.push((4u8, first + i));
                    if i % 2 == 0 {
                        around(&mut ops);
                    }
                }
                ops.push((SCAN, first));
            }
            ops
        };
        let pct = (0..64u64).map(|seed| {
            let policy = Policy::Pct {
                change_points: 12,
                expected_steps: 40_000,
            };
            (200 + seed, policy)
        });
        let round_robin = [3u32, 7].map(|quantum| (quantum as u64, Policy::RoundRobin { quantum }));
        let stats = AccessStats::new(THREADS as usize);
        let (mut schedules, mut longest) = (0, 0);
        for (seed, policy) in pct.chain(round_robin) {
            for sparse in [false, true] {
                let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(
                    GraphConfig::new(THREADS as usize)
                        .max_level(2)
                        .sparse(sparse)
                        .chunk_capacity(512),
                    2,
                );
                let mut loader = map.register(ThreadCtx::plain(0));
                let anchored: BTreeMap<u64, u64> = (0..=THREADS * ZONES_EACH)
                    .map(|zone| (zone * ZONE, zone))
                    .collect();
                for (&k, &v) in &anchored {
                    assert!(loader.insert(k, v));
                }
                drop(loader);
                let mut det = DetConfig::new(seed, policy.clone());
                det.max_steps = MAX_STEPS;
                let steps = det_run(&map, THREADS, plan, anchored, &det, Some(&stats));
                longest = longest.max(steps);
                schedules += 1;
            }
        }
        let t = stats.totals();
        println!(
            "scans from dying anchors: {schedules} schedules, longest {longest} of {MAX_STEPS} \
             steps; {} operations and scans, {} searches, {} answered by a local anchor alone",
            t.ops, t.searches, t.anchor_hits
        );
        assert!(
            t.anchor_hits > 0,
            "no scan or operation ever started at a local anchor"
        );
    }
}
