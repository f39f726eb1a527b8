//! Concurrent stress tests for every shared-structure variant.
//!
//! The main oracle: run a random workload with per-thread op accounting,
//! then check that for every key the final membership equals
//! `successful_inserts - successful_removes` (which must be 0 or 1) —
//! a consequence of linearizability for set semantics.

use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap, MapHandle, SkipGraph};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const THREADS: usize = 8;
const KEYS: u64 = 128;
const OPS: usize = 6_000;

/// Runs a mixed workload and verifies the per-key balance invariant.
fn stress<M: ConcurrentMap<u64, u64>>(map: &M, label: &str) {
    let barrier = Barrier::new(THREADS);
    let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u16)
            .map(|t| {
                let map = &map;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut h = map.pin(ThreadCtx::plain(t));
                    let mut balance: HashMap<u64, i64> = HashMap::new();
                    let mut state: u64 = 0x9E3779B97F4A7C15 ^ (t as u64);
                    let mut rand = || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    barrier.wait();
                    for _ in 0..OPS {
                        let k = rand() % KEYS;
                        match rand() % 3 {
                            0 => {
                                if h.insert(k, k) {
                                    *balance.entry(k).or_insert(0) += 1;
                                }
                            }
                            1 => {
                                if h.remove(&k) {
                                    *balance.entry(k).or_insert(0) -= 1;
                                }
                            }
                            _ => {
                                let _ = h.contains(&k);
                            }
                        }
                    }
                    balance
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Aggregate per-key balances across threads.
    let mut total: HashMap<u64, i64> = HashMap::new();
    for b in balances {
        for (k, v) in b {
            *total.entry(k).or_insert(0) += v;
        }
    }
    for (&k, &v) in &total {
        assert!(
            v == 0 || v == 1,
            "{label}: key {k} has impossible balance {v}"
        );
    }
    (0..KEYS).for_each(|k| {
        let expected = total.get(&k).copied().unwrap_or(0) == 1;
        let mut h = map.pin(ThreadCtx::plain(0));
        assert_eq!(
            h.contains(&k),
            expected,
            "{label}: final membership of {k} diverges from op accounting"
        );
    });
}

fn layered(cfg: GraphConfig) -> LayeredMap<u64, u64> {
    LayeredMap::new(cfg.chunk_capacity(4096))
}

#[test]
fn stress_layered_eager() {
    let map = layered(GraphConfig::new(THREADS));
    stress(&map, "layered eager");
    map.shared().check_invariants().unwrap();
}

#[test]
fn stress_layered_lazy() {
    let map = layered(GraphConfig::new(THREADS).lazy(true));
    stress(&map, "layered lazy");
    map.shared().check_invariants().unwrap();
}

#[test]
fn stress_layered_sparse() {
    let map = layered(GraphConfig::new(THREADS).sparse(true));
    stress(&map, "layered sparse");
    map.shared().check_invariants().unwrap();
}

#[test]
fn stress_layered_lazy_sparse() {
    let map = layered(GraphConfig::new(THREADS).lazy(true).sparse(true));
    stress(&map, "layered lazy sparse");
    map.shared().check_invariants().unwrap();
}

#[test]
fn stress_layered_lazy_zero_commission() {
    // Zero commission period: every search retires aggressively, maximizing
    // marked-chain churn and relink pressure.
    let map = layered(GraphConfig::new(THREADS).lazy(true).commission_cycles(0));
    stress(&map, "layered lazy zero-commission");
    map.shared().check_invariants().unwrap();
}

#[test]
fn stress_layered_linked_list() {
    let map = layered(GraphConfig::linked_list(THREADS));
    stress(&map, "layered over linked list");
    map.shared().check_invariants().unwrap();
}

#[test]
fn stress_layered_single_skip_list() {
    let map = layered(GraphConfig::single_skip_list(THREADS));
    stress(&map, "layered over single skip list");
    map.shared().check_invariants().unwrap();
}

#[test]
fn stress_skipgraph_direct() {
    let g: SkipGraph<u64, u64> = SkipGraph::new(GraphConfig::new(THREADS).chunk_capacity(4096));
    stress(&g, "non-layered skip graph");
    g.check_invariants().unwrap();
}

#[test]
fn stress_skipgraph_direct_lazy_sparse() {
    let g: SkipGraph<u64, u64> = SkipGraph::new(
        GraphConfig::new(THREADS)
            .lazy(true)
            .sparse(true)
            .chunk_capacity(4096),
    );
    stress(&g, "non-layered lazy sparse skip graph");
    g.check_invariants().unwrap();
}

#[test]
fn disjoint_key_ranges_all_present() {
    // Each thread owns a disjoint key range; everything must be present at
    // the end — tests that partitioned insertions never lose each other.
    for cfg in [
        GraphConfig::new(THREADS),
        GraphConfig::new(THREADS).lazy(true),
        GraphConfig::new(THREADS).sparse(true),
    ] {
        let map = layered(cfg);
        std::thread::scope(|s| {
            for t in 0..THREADS as u16 {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t));
                    let base = t as u64 * 1000;
                    for k in base..base + 500 {
                        assert!(h.insert(k, k), "insert {k}");
                    }
                });
            }
        });
        let mut h = map.register(ThreadCtx::plain(0));
        for t in 0..THREADS as u64 {
            for k in t * 1000..t * 1000 + 500 {
                assert!(h.contains(&k), "missing {k}");
            }
        }
        map.shared().check_invariants().unwrap();
        assert_eq!(
            map.shared().len(h.ctx()),
            THREADS * 500,
            "exact cardinality"
        );
    }
}

#[test]
fn single_key_ping_pong() {
    // All threads fight over one key: exercises the resurrection path
    // (lazy) and the marking race (eager) at maximum contention.
    for lazy in [false, true] {
        let map = layered(GraphConfig::new(THREADS).lazy(lazy).commission_cycles(1000));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..THREADS as u16 {
                let map = &map;
                let stop = &stop;
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t));
                    let mut net: i64 = 0;
                    for _ in 0..4000 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if h.insert(7, t as u64) {
                            net += 1;
                        }
                        if h.remove(&7) {
                            net -= 1;
                        }
                    }
                    net
                });
            }
        });
        // After all threads did matched insert/remove attempts, the key's
        // membership must be consistent with a final contains.
        let mut h = map.register(ThreadCtx::plain(0));
        let present = h.contains(&7);
        let snapshot_has = map.shared().keys(h.ctx()).contains(&7);
        assert_eq!(present, snapshot_has, "lazy={lazy}");
        map.shared().check_invariants().unwrap();
    }
}

#[test]
fn cross_thread_removal() {
    // Thread 0 inserts; other threads remove — exercises the path where the
    // remover has no local mapping for the key.
    for lazy in [false, true] {
        let map = layered(GraphConfig::new(THREADS).lazy(lazy));
        {
            let mut h = map.register(ThreadCtx::plain(0));
            for k in 0..1000u64 {
                assert!(h.insert(k, k));
            }
        }
        std::thread::scope(|s| {
            for t in 1..THREADS as u16 {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t));
                    let mut removed = 0;
                    for k in 0..1000u64 {
                        if h.remove(&k) {
                            removed += 1;
                        }
                    }
                    removed
                });
            }
        });
        let mut h = map.register(ThreadCtx::plain(0));
        for k in 0..1000u64 {
            assert!(!h.contains(&k), "lazy={lazy}: key {k} still present");
        }
        map.shared().check_invariants().unwrap();
    }
}

#[test]
fn handle_reregistration_preserves_data() {
    // Dropping a handle and registering a fresh one (empty local
    // structures) must still see the shared data.
    let map = layered(GraphConfig::new(2).lazy(true));
    {
        let mut h = map.register(ThreadCtx::plain(0));
        for k in 0..100u64 {
            h.insert(k, k * 2);
        }
    }
    let mut h2 = map.register(ThreadCtx::plain(0));
    for k in 0..100u64 {
        assert!(h2.contains(&k));
        assert_eq!(h2.get(&k), Some(k * 2));
    }
}

#[test]
fn oversubscribed_thread_ids() {
    // More worker threads than CPUs is fine; ids just need to be dense.
    let map = layered(GraphConfig::new(64));
    std::thread::scope(|s| {
        for t in 0..64u16 {
            let map = &map;
            s.spawn(move || {
                let mut h = map.register(ThreadCtx::plain(t));
                for i in 0..50u64 {
                    h.insert(t as u64 * 100 + i, i);
                }
            });
        }
    });
    let mut h = map.register(ThreadCtx::plain(0));
    assert_eq!(map.shared().len(h.ctx()), 64 * 50);
    assert!(h.contains(&6307));
}
