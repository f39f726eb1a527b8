//! Cross-crate integration tests: the harness drives every structure, the
//! instrumentation feeds the reports, the NUMA model feeds the membership
//! vectors and the locality classification — the full pipeline the
//! benchmarks rely on.
#![cfg(not(feature = "bug-injection"))]

use instrument::report::locality_summary;
use instrument::{AccessStats, ThreadCtx};
use layered_skipgraph::*;
use numa::{Placement, Topology};
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap, MapHandle};
use std::sync::Arc;
use std::time::Duration;
use synchro::registry::{run_named, STRUCTURES};
use synchro::{run_trial, InstrMode, Workload};

fn quick_workload(threads: usize) -> Workload {
    Workload::new(threads, 1 << 9)
        .duration(Duration::from_millis(25))
        .no_pin()
}

#[test]
fn harness_drives_every_structure_correctly() {
    // Beyond smoke: after each trial the structure's contents must be a
    // subset of the key space and internally consistent where we can check.
    for name in STRUCTURES {
        let w = quick_workload(3);
        let res = run_named(name, &w, &InstrMode::Off);
        assert!(res.total_ops > 0, "{name}");
        assert_eq!(res.per_thread_ops.len(), 3, "{name}");
        assert!(
            res.effective_update_pct() <= 55.0,
            "{name}: effective updates cannot exceed the requested ratio by much"
        );
    }
}

#[test]
fn instrumented_run_produces_consistent_metrics() {
    let threads = 4;
    let stats = AccessStats::new(threads);
    let map: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(threads).lazy(true).chunk_capacity(4096));
    let w = quick_workload(threads);
    let res = run_trial(&map, &w, &InstrMode::Stats(Arc::clone(&stats)));
    let totals = stats.totals();
    // Every measured harness op was recorded; the recorded count also
    // includes the preload inserts, so it is at least the measured total.
    assert!(totals.ops >= res.total_ops);
    // CAS failures never exceed attempts; searches traversed something.
    assert!(totals.cas_failures <= totals.cas_attempts);
    assert!(totals.searches > 0);
    // Locality summary is well-formed under both real and modeled splits.
    let numa_of: Vec<usize> = (0..threads)
        .map(|t| usize::from(t >= threads / 2))
        .collect();
    let s = locality_summary(&stats, &numa_of);
    assert!(s.cas_success_rate > 0.0 && s.cas_success_rate <= 1.0);
    assert!(s.local_reads_per_op + s.remote_reads_per_op > 0.0);
}

#[test]
fn membership_vectors_follow_the_placement_distance() {
    // End-to-end: topology -> placement -> layered map membership. Threads
    // that the placement puts on the same core must share more lists than
    // threads across the socket boundary.
    let topo = Topology::paper_machine();
    let placement = Placement::new(&topo, 96);
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(96));
    let m0 = map.shared().membership_of(0);
    let m1 = map.shared().membership_of(1); // SMT sibling of 0
    let m95 = map.shared().membership_of(95); // other socket
    let max = map.config().max_level;
    let near = skipgraph::mvec::shared_levels(m0, m1, max);
    let far = skipgraph::mvec::shared_levels(m0, m95, max);
    assert!(near > far, "near={near} far={far}");
    assert_eq!(
        placement.assignment(0).numa_node,
        placement.assignment(1).numa_node
    );
    assert_ne!(
        placement.assignment(0).numa_node,
        placement.assignment(95).numa_node
    );
}

#[test]
fn cache_sim_mode_reports_misses() {
    let threads = 2;
    let stats = AccessStats::new(threads);
    let w = quick_workload(threads);
    let res = run_named("layered_map_sg", &w, &InstrMode::StatsAndCache(stats));
    assert!(res.cache.accesses > 0);
    assert!(res.cache.l1 <= res.cache.accesses);
    assert!(res.cache.l3 <= res.cache.l2);
    let (l1, _, _) = res.cache.per_op(res.total_ops);
    assert!(l1 >= 0.0);
}

#[test]
fn facade_reexports_compile_and_work() {
    // The root crate re-exports all member crates.
    let _t = numa::Topology::paper_machine();
    let map: skipgraph::LayeredMap<u64, u64> =
        skipgraph::LayeredMap::new(skipgraph::GraphConfig::new(2));
    let mut h = map.register(instrument::ThreadCtx::plain(0));
    assert!(h.insert(1, 1));
    let pq: sg_pqueue::LayeredPriorityQueue<u64, u64> = sg_pqueue::LayeredPriorityQueue::new(2);
    let mut ph = pq.register(instrument::ThreadCtx::plain(0));
    ph.push(1, 1);
    assert_eq!(ph.pop_min(), Some((1, 1)));
    let mut hier = cache_sim::Hierarchy::xeon_8275cl();
    hier.access(0x40, false);
    assert_eq!(hier.miss_counts().accesses, 1);
    let _ = baselines::HarrisList::<u64, u64>::new(1, 64);
}

#[test]
fn layered_and_skiplist_agree_under_identical_workload() {
    // Differential: run the same deterministic op sequence against the
    // layered map and the lock-free skip list; the surviving key sets must
    // be identical (both are linearizable sets).
    use baselines::{LockFreeSkipList, SkipListConfig};
    let layered: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(1).lazy(true).chunk_capacity(4096));
    let skiplist: LockFreeSkipList<u64, u64> =
        LockFreeSkipList::new(SkipListConfig::new(1, 1 << 10).chunk_capacity(4096));
    let mut hl = layered.register(ThreadCtx::plain(0));
    let mut hs = skiplist.pin(ThreadCtx::plain(0));
    let mut state = 42u64;
    for _ in 0..5000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (state >> 33) % 512;
        match state % 3 {
            0 => {
                assert_eq!(
                    hl.insert(k, k),
                    MapHandle::insert(&mut hs, k, k),
                    "insert {k}"
                );
            }
            1 => {
                assert_eq!(hl.remove(&k), MapHandle::remove(&mut hs, &k), "remove {k}");
            }
            _ => {
                assert_eq!(
                    hl.contains(&k),
                    MapHandle::contains(&mut hs, &k),
                    "contains {k}"
                );
            }
        }
    }
    let ctx = ThreadCtx::plain(0);
    assert_eq!(layered.shared().keys(&ctx), skiplist.keys(&ctx));
}

#[test]
fn concurrent_pipeline_under_oversubscription() {
    // The whole pipeline with more threads than this machine has cores.
    let threads = 16;
    let w = Workload::new(threads, 1 << 10)
        .duration(Duration::from_millis(150))
        .write_heavy();
    for name in ["lazy_layered_sg", "layered_map_ssg", "nohotspot"] {
        let res = run_named(name, &w, &InstrMode::Off);
        assert!(res.total_ops > 0, "{name}");
        // On a single-core host the scheduler may starve a few of the 16
        // oversubscribed threads within the window; most must progress.
        let progressed = res.per_thread_ops.iter().filter(|&&o| o > 0).count();
        assert!(
            progressed >= threads / 2,
            "{name}: only {progressed} threads progressed"
        );
    }
}

/// A context is a thread id and one optional boxed recorder, so a plain
/// context costs every handle two words and no allocation. The sizes are
/// pinned where they were measured (x86-64).
#[test]
fn a_plain_context_is_two_words_in_every_handle() {
    use skipgraph::{BlockedHandle, LayeredHandle};
    use std::mem::size_of;
    assert!(!ThreadCtx::plain(0).is_recording());
    let sizes = (
        size_of::<ThreadCtx>(),
        size_of::<LayeredHandle<u64, u64>>(),
        size_of::<BlockedHandle<u64, u64>>(),
    );
    println!("ThreadCtx, LayeredHandle<u64, u64>, BlockedHandle<u64, u64>: {sizes:?} bytes");
    #[cfg(target_arch = "x86_64")]
    assert_eq!(sizes, (16, 304, 24));
}
