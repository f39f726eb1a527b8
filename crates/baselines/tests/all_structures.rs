//! Uniform integration tests over every baseline: sequential model checks
//! against `BTreeSet`, concurrent balance accounting, cross-structure
//! differential runs, and drop safety with droppable payloads.

use baselines::{
    CoarseLockMap, HarrisList, LockFreeSkipList, LockedSkipList, NoHotspotSkipList, NumaskSkipList,
    RotatingSkipList, SkipListConfig,
};
use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, MapHandle};
use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

const THREADS: usize = 4;

/// Runs a deterministic sequential op stream, checking against a model.
fn model_check<M: ConcurrentMap<u64, u64>>(map: &M, label: &str, seed: u64) {
    let mut h = map.pin(ThreadCtx::plain(0));
    let mut model = BTreeSet::new();
    let mut state = seed | 1;
    for i in 0..4000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (state >> 33) % 160;
        match state % 3 {
            0 => assert_eq!(h.insert(k, k), model.insert(k), "{label}: insert {k} @ {i}"),
            1 => assert_eq!(h.remove(&k), model.remove(&k), "{label}: remove {k} @ {i}"),
            _ => assert_eq!(
                h.contains(&k),
                model.contains(&k),
                "{label}: contains {k} @ {i}"
            ),
        }
    }
}

/// Concurrent balance accounting (same oracle as the core stress tests).
fn balance_check<M: ConcurrentMap<u64, u64>>(map: &M, label: &str) {
    let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
        (0..THREADS as u16)
            .map(|t| {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.pin(ThreadCtx::plain(t));
                    let mut b: HashMap<u64, i64> = HashMap::new();
                    let mut state = 0x1234_5678u64 ^ ((t as u64) << 24) | 1;
                    for _ in 0..2500 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % 64;
                        if state.is_multiple_of(2) {
                            if h.insert(k, k) {
                                *b.entry(k).or_default() += 1;
                            }
                        } else if h.remove(&k) {
                            *b.entry(k).or_default() -= 1;
                        }
                    }
                    b
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let mut total: HashMap<u64, i64> = HashMap::new();
    for b in balances {
        for (k, v) in b {
            *total.entry(k).or_default() += v;
        }
    }
    let mut h = map.pin(ThreadCtx::plain(0));
    for k in 0..64u64 {
        let v = total.get(&k).copied().unwrap_or(0);
        assert!(v == 0 || v == 1, "{label}: key {k} balance {v}");
        assert_eq!(h.contains(&k), v == 1, "{label}: key {k}");
    }
}

macro_rules! structure_tests {
    ($name:ident, $make:expr) => {
        mod $name {
            use super::*;

            #[test]
            fn sequential_model() {
                let m = $make;
                model_check(&m, stringify!($name), 0xACE0);
            }

            #[test]
            fn concurrent_balance() {
                let m = $make;
                balance_check(&m, stringify!($name));
            }
        }
    };
}

structure_tests!(
    lockfree_skiplist,
    LockFreeSkipList::<u64, u64>::new(SkipListConfig::new(THREADS, 1 << 10).chunk_capacity(4096))
);
structure_tests!(
    lockfree_skiplist_norelink,
    LockFreeSkipList::<u64, u64>::new(
        SkipListConfig::new(THREADS, 1 << 10)
            .relink(false)
            .chunk_capacity(4096)
    )
);
structure_tests!(
    locked_skiplist,
    LockedSkipList::<u64, u64>::new(THREADS, 10, 4096)
);
structure_tests!(harris_list, HarrisList::<u64, u64>::new(THREADS, 4096));
structure_tests!(coarse, CoarseLockMap::<u64, u64>::new());
structure_tests!(
    nohotspot,
    NoHotspotSkipList::<u64, u64>::new(THREADS, 4096, Duration::from_millis(2))
);
structure_tests!(
    rotating,
    RotatingSkipList::<u64, u64>::new(THREADS, 4096, Duration::from_millis(2))
);
structure_tests!(
    numask,
    NumaskSkipList::<u64, u64>::new(vec![0, 0, 1, 1], 4096, Duration::from_millis(2))
);

#[test]
fn all_structures_agree_on_identical_sequential_stream() {
    // Drive every structure with the same op stream; all answers must
    // match the first one's.
    let skiplist =
        LockFreeSkipList::<u64, u64>::new(SkipListConfig::new(1, 1 << 9).chunk_capacity(4096));
    let locked = LockedSkipList::<u64, u64>::new(1, 9, 4096);
    let harris = HarrisList::<u64, u64>::new(1, 4096);
    let coarse = CoarseLockMap::<u64, u64>::new();
    let nohotspot = NoHotspotSkipList::<u64, u64>::new(1, 4096, Duration::from_millis(2));
    let rotating = RotatingSkipList::<u64, u64>::new(1, 4096, Duration::from_millis(2));
    let numask = NumaskSkipList::<u64, u64>::new(vec![0], 4096, Duration::from_millis(2));

    let mut h1 = skiplist.pin(ThreadCtx::plain(0));
    let mut h2 = locked.pin(ThreadCtx::plain(0));
    let mut h3 = harris.pin(ThreadCtx::plain(0));
    let mut h4 = coarse.pin(ThreadCtx::plain(0));
    let mut h5 = nohotspot.pin(ThreadCtx::plain(0));
    let mut h6 = rotating.pin(ThreadCtx::plain(0));
    let mut h7 = numask.pin(ThreadCtx::plain(0));

    let mut state = 99u64;
    for _ in 0..3000 {
        state = state
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let k = (state >> 35) % 256;
        match state % 3 {
            0 => {
                let r = h1.insert(k, k);
                assert_eq!(r, h2.insert(k, k));
                assert_eq!(r, h3.insert(k, k));
                assert_eq!(r, h4.insert(k, k));
                assert_eq!(r, h5.insert(k, k));
                assert_eq!(r, h6.insert(k, k));
                assert_eq!(r, h7.insert(k, k));
            }
            1 => {
                let r = h1.remove(&k);
                assert_eq!(r, h2.remove(&k));
                assert_eq!(r, h3.remove(&k));
                assert_eq!(r, h4.remove(&k));
                assert_eq!(r, h5.remove(&k));
                assert_eq!(r, h6.remove(&k));
                assert_eq!(r, h7.remove(&k));
            }
            _ => {
                let r = h1.contains(&k);
                assert_eq!(r, h2.contains(&k));
                assert_eq!(r, h3.contains(&k));
                assert_eq!(r, h4.contains(&k));
                assert_eq!(r, h5.contains(&k));
                assert_eq!(r, h6.contains(&k));
                assert_eq!(r, h7.contains(&k));
            }
        }
    }
    // Final key sets identical.
    let want = skiplist.keys(&ThreadCtx::plain(0));
    assert_eq!(locked.keys(&ThreadCtx::plain(0)), want);
    assert_eq!(harris.keys(&ThreadCtx::plain(0)), want);
    assert_eq!(coarse.keys(), want);
    assert_eq!(nohotspot.keys(&ThreadCtx::plain(0)), want);
    assert_eq!(rotating.keys(&ThreadCtx::plain(0)), want);
    assert_eq!(numask.keys(&ThreadCtx::plain(0)), want);
}

#[test]
fn droppable_payloads_are_released_exactly_once() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    // Values with drop side effects: the arena must drop every allocated
    // value exactly once when the structure drops.
    #[derive(Clone)]
    struct Tag(Arc<AtomicU32>);
    impl Drop for Tag {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let drops = Arc::new(AtomicU32::new(0));
    let created;
    {
        let list: LockFreeSkipList<u64, Tag> =
            LockFreeSkipList::new(SkipListConfig::new(1, 1 << 8).chunk_capacity(64));
        let mut h = list.pin(ThreadCtx::plain(0));
        let mut n = 0;
        for k in 0..100u64 {
            if MapHandle::insert(&mut h, k, Tag(Arc::clone(&drops))) {
                n += 1;
            }
        }
        // Remove half: values must NOT drop yet (arena-owned until the
        // structure drops).
        for k in 0..50u64 {
            MapHandle::remove(&mut h, &k);
        }
        created = n;
        assert_eq!(drops.load(Ordering::SeqCst), 0);
    }
    assert_eq!(drops.load(Ordering::SeqCst), created);
}
