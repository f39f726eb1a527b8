//! Linearizability checking of the concurrent structures: record real
//! invocation/response timestamps around every operation, then verify
//! per-key histories with the Wing & Gong checker.
//!
//! To keep histories within the checker's budget, each test uses a small
//! key set and bounded ops per thread; timestamps come from the TSC.
#![cfg(not(feature = "bug-injection"))]

use instrument::time::cycles;
use instrument::ThreadCtx;
use linearize::{check_keyed_histories, Event, Op};
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap, MapHandle, SkipGraph};
use std::sync::Barrier;

const THREADS: usize = 4;
const KEYS: u64 = 48;
const OPS_PER_THREAD: usize = 160; // ~13 events per key on average

fn record_history<M: ConcurrentMap<u64, u64>>(map: &M) -> Vec<(u64, Event)> {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS as u16)
            .map(|t| {
                let map = &map;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut h = map.pin(ThreadCtx::plain(t));
                    let mut events = Vec::with_capacity(OPS_PER_THREAD);
                    let mut state = 0xABCD_EF01u64 ^ ((t as u64) << 32);
                    barrier.wait();
                    for _ in 0..OPS_PER_THREAD {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % KEYS;
                        let (op, start, result, end) = match state % 3 {
                            0 => {
                                let s0 = cycles();
                                let r = h.insert(k, k);
                                (Op::Insert, s0, r, cycles())
                            }
                            1 => {
                                let s0 = cycles();
                                let r = h.remove(&k);
                                (Op::Remove, s0, r, cycles())
                            }
                            _ => {
                                let s0 = cycles();
                                let r = h.contains(&k);
                                (Op::Contains, s0, r, cycles())
                            }
                        };
                        events.push((
                            k,
                            Event {
                                op,
                                result,
                                start,
                                end,
                            },
                        ));
                    }
                    events
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    })
}

#[test]
fn layered_eager_is_linearizable() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(THREADS).chunk_capacity(4096));
    let history = record_history(&map);
    check_keyed_histories(&history).expect("eager layered map");
}

#[test]
fn layered_lazy_is_linearizable() {
    let map: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(THREADS).lazy(true).chunk_capacity(4096));
    let history = record_history(&map);
    check_keyed_histories(&history).expect("lazy layered map");
}

#[test]
fn layered_lazy_zero_commission_is_linearizable() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(
        GraphConfig::new(THREADS)
            .lazy(true)
            .commission_cycles(0)
            .chunk_capacity(4096),
    );
    let history = record_history(&map);
    check_keyed_histories(&history).expect("lazy layered map, zero commission");
}

#[test]
fn sparse_layered_is_linearizable() {
    let map: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(THREADS).sparse(true).chunk_capacity(4096));
    let history = record_history(&map);
    check_keyed_histories(&history).expect("sparse layered map");
}

#[test]
fn direct_skipgraph_is_linearizable() {
    let g: SkipGraph<u64, u64> =
        SkipGraph::new(GraphConfig::new(THREADS).lazy(true).chunk_capacity(4096));
    let history = record_history(&g);
    check_keyed_histories(&history).expect("direct skip graph");
}

#[test]
fn lockfree_skiplist_is_linearizable() {
    use baselines::{LockFreeSkipList, SkipListConfig};
    let l: LockFreeSkipList<u64, u64> =
        LockFreeSkipList::new(SkipListConfig::new(THREADS, KEYS).chunk_capacity(4096));
    let history = record_history(&l);
    check_keyed_histories(&history).expect("lock-free skip list");
}

#[test]
fn nohotspot_is_linearizable() {
    use baselines::NoHotspotSkipList;
    let l: NoHotspotSkipList<u64, u64> =
        NoHotspotSkipList::new(THREADS, 4096, std::time::Duration::from_millis(1));
    let history = record_history(&l);
    check_keyed_histories(&history).expect("no-hotspot skip list");
}

#[test]
fn checker_catches_a_broken_map() {
    // Sanity check that the pipeline would actually catch a bug: a "map"
    // whose insert always reports success is not linearizable.
    struct AlwaysYes;
    struct YesHandle(ThreadCtx);
    impl ConcurrentMap<u64, u64> for AlwaysYes {
        type Handle<'a> = YesHandle;
        fn pin(&self, ctx: ThreadCtx) -> YesHandle {
            YesHandle(ctx)
        }
    }
    impl MapHandle<u64, u64> for YesHandle {
        fn insert(&mut self, _k: u64, _v: u64) -> bool {
            true
        }
        fn remove(&mut self, _k: &u64) -> bool {
            false
        }
        fn contains(&mut self, _k: &u64) -> bool {
            false
        }
        fn ctx(&self) -> &ThreadCtx {
            &self.0
        }
    }
    let history = record_history(&AlwaysYes);
    assert!(
        check_keyed_histories(&history).is_err(),
        "double successful inserts must be rejected"
    );
}

#[test]
fn rotating_is_linearizable() {
    use baselines::RotatingSkipList;
    let l: RotatingSkipList<u64, u64> =
        RotatingSkipList::new(THREADS, 4096, std::time::Duration::from_millis(1));
    let history = record_history(&l);
    check_keyed_histories(&history).expect("rotating skip list");
}

#[test]
fn numask_is_linearizable() {
    use baselines::NumaskSkipList;
    let l: NumaskSkipList<u64, u64> =
        NumaskSkipList::new(vec![0, 0, 1, 1], 4096, std::time::Duration::from_millis(1));
    let history = record_history(&l);
    check_keyed_histories(&history).expect("numask skip list");
}

#[test]
fn locked_skiplist_is_linearizable() {
    use baselines::LockedSkipList;
    let l: LockedSkipList<u64, u64> = LockedSkipList::new(THREADS, 8, 4096);
    let history = record_history(&l);
    check_keyed_histories(&history).expect("locked skip list");
}

#[test]
fn harris_list_is_linearizable() {
    use baselines::HarrisList;
    let l: HarrisList<u64, u64> = HarrisList::new(THREADS, 4096);
    let history = record_history(&l);
    check_keyed_histories(&history).expect("harris list");
}

#[test]
fn layered_linked_list_and_single_sl_are_linearizable() {
    for cfg in [
        GraphConfig::linked_list(THREADS).chunk_capacity(4096),
        GraphConfig::single_skip_list(THREADS).chunk_capacity(4096),
    ] {
        let map: LayeredMap<u64, u64> = LayeredMap::new(cfg);
        let history = record_history(&map);
        check_keyed_histories(&history).expect("layered ablation variant");
    }
}
