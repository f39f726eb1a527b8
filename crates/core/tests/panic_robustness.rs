//! Crash robustness: a worker thread that dies (panics) mid-workload must
//! not affect other threads — the defining property of non-blocking
//! structures ("non-blocking, linearizable structures can effectively
//! replace sequential or blocking structures", paper Sec. 1). A thread
//! parked forever while "holding" an operation must not block others
//! either: lock-freedom means any interrupted operation is either
//! invisible or completable by helping.

use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

#[test]
fn survivors_continue_after_worker_panics() {
    for lazy in [false, true] {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(4).lazy(lazy).chunk_capacity(4096));
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            // The doomed thread: inserts a batch, then panics while its
            // handle (and local structures) are live.
            s.spawn(|| {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut h = map.register(ThreadCtx::plain(0));
                    for k in 0..500u64 {
                        h.insert(k * 2, k);
                    }
                    barrier.wait();
                    panic!("worker dies mid-run");
                }));
                assert!(result.is_err());
            });
            // Survivors churn through the same key range afterwards.
            for t in 1..4u16 {
                let map = &map;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t));
                    barrier.wait();
                    for k in 0..500u64 {
                        // The dead thread's keys are fully operable by
                        // survivors (cross-thread removal and reinsert).
                        let key = k * 2;
                        let _ = h.remove(&key);
                        let _ = h.insert(key, k + 1000);
                        assert!(
                            h.contains(&key) || {
                                // another survivor may have removed it again
                                true
                            }
                        );
                    }
                });
            }
        });
        // Structure stays fully consistent and usable.
        map.shared().check_invariants().unwrap();
        let mut h = map.register(ThreadCtx::plain(1));
        assert!(h.insert(99_999, 1));
        assert!(h.contains(&99_999));
    }
}

#[test]
fn stalled_thread_does_not_block_progress() {
    // A thread stalls forever immediately after winning a logical delete
    // (its physical cleanup never runs). Others must keep completing
    // operations on the same keys — helping/laziness covers the cleanup.
    let map: LayeredMap<u64, u64> = LayeredMap::new(
        GraphConfig::new(3)
            .lazy(true)
            .commission_cycles(0)
            .chunk_capacity(4096),
    );
    {
        let mut h = map.register(ThreadCtx::plain(0));
        for k in 0..100u64 {
            assert!(h.insert(k, k));
        }
    }
    let stalled = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let ops_by_survivor = AtomicU64::new(0);
    std::thread::scope(|s| {
        // The staller: removes key 50 (logical delete only) then parks.
        s.spawn(|| {
            let mut h = map.register(ThreadCtx::plain(1));
            assert!(h.remove(&50));
            stalled.store(true, Ordering::Release);
            while !done.load(Ordering::Acquire) {
                std::thread::yield_now(); // "stalled": does no useful work
            }
        });
        // The survivor: full workload over every key, including 50.
        s.spawn(|| {
            while !stalled.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let mut h = map.register(ThreadCtx::plain(2));
            for round in 0..50u64 {
                for k in 0..100u64 {
                    if round % 2 == 0 {
                        let _ = h.remove(&k);
                    } else {
                        let _ = h.insert(k, k + round);
                    }
                    ops_by_survivor.fetch_add(1, Ordering::Relaxed);
                }
            }
            done.store(true, Ordering::Release);
        });
    });
    assert_eq!(ops_by_survivor.load(Ordering::Relaxed), 5000);
    map.shared().check_invariants().unwrap();
}

#[test]
fn panic_during_chaos_schedule_leaves_structure_usable() {
    // Combine yield-injection with a mid-flight panic at a random point.
    let map: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(2).lazy(true).chunk_capacity(4096));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut h = map.pin(ThreadCtx::chaos(0, 777, 3));
        for k in 0..200u64 {
            h.insert(k, k);
            if k == 123 {
                panic!("die mid-stream");
            }
        }
    }));
    assert!(result.is_err());
    let mut h = map.register(ThreadCtx::plain(1));
    for k in 0..=123u64 {
        assert!(h.contains(&k), "key {k} inserted before the panic");
    }
    assert!(h.insert(500, 1));
    map.shared().check_invariants().unwrap();
}
