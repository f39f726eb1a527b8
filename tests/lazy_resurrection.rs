//! Lazy-variant resurrection semantics (Alg. 2 / Alg. 12): a remove flips
//! the node's valid bit off without unlinking it, and a subsequent insert
//! of the same key resurrects the *same node* in place instead of
//! allocating a new one. Verified both through map semantics (with
//! `memory_stats` witnessing the physical node) and by checking the
//! resulting histories with the linearizability checker.
#![cfg(not(feature = "bug-injection"))]

use instrument::ThreadCtx;
use linearize::{check_history_from, Event, Op};
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap, SkipGraph};
use std::ops::Bound::Unbounded;

fn lazy_graph() -> SkipGraph<u64, u64> {
    SkipGraph::new(
        GraphConfig::new(2)
            .lazy(true)
            .commission_cycles(u64::MAX)
            .chunk_capacity(256),
    )
}

#[test]
fn remove_invalidates_in_place_and_insert_resurrects() {
    let g = lazy_graph();
    let c = ThreadCtx::plain(0);
    let mut h = g.pin(ThreadCtx::plain(0));
    assert!(h.insert(5, 50));
    assert!(h.contains(&5));

    // Remove = casValid(false): the node stays physically linked.
    assert!(h.remove(&5));
    assert!(!h.contains(&5));
    assert_eq!(h.get(&5), None);
    let s = g.memory_stats(&c);
    assert_eq!((s.live, s.invalid, s.marked), (0, 1, 0));

    // Insert = casValid(true) on the existing node: no new allocation.
    let allocated_before = s.allocated;
    assert!(h.insert(5, 50));
    assert!(h.contains(&5));
    let s = g.memory_stats(&c);
    assert_eq!((s.live, s.invalid, s.marked), (1, 0, 0));
    assert_eq!(
        s.allocated, allocated_before,
        "resurrection must reuse the invalid node, not allocate"
    );
}

#[test]
fn resurrection_cycles_are_stable() {
    let g = lazy_graph();
    let mut h = g.pin(ThreadCtx::plain(0));
    assert!(h.insert(9, 1));
    for _ in 0..50 {
        assert!(h.remove(&9));
        assert!(!h.contains(&9));
        assert!(!h.remove(&9), "double remove must fail");
        assert!(h.insert(9, 1));
        assert!(h.contains(&9));
        assert!(!h.insert(9, 1), "double insert must fail");
    }
    let s = g.memory_stats(&ThreadCtx::plain(0));
    assert_eq!(s.allocated, 1, "one node serves every cycle");
}

#[test]
fn layered_lazy_map_observes_resurrection() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(
        GraphConfig::new(2)
            .lazy(true)
            .commission_cycles(u64::MAX)
            .chunk_capacity(256),
    );
    let mut h = map.pin(ThreadCtx::plain(0));
    assert!(h.insert(3, 30));
    assert!(h.remove(&3));
    assert!(!h.contains(&3));
    assert!(h.insert(3, 31));
    assert!(h.contains(&3));
    assert!(h.remove(&3));
    assert!(!h.contains(&3));
}

#[test]
fn recorded_resurrection_history_linearizes() {
    // Drive a remove/insert/contains cycle through the lazy graph while
    // recording it as a history; the checker must accept it, and must
    // reject the "broken casValid" counterfactual where the remove
    // succeeds but the key remains visible.
    let g = lazy_graph();
    let mut h = g.pin(ThreadCtx::plain(0));
    let mut events = Vec::new();
    let mut clock = 0u64;
    let mut record = |op: Op, result: bool, clock: &mut u64| {
        let start = *clock;
        let end = *clock + 1;
        *clock += 2;
        events.push(Event {
            op,
            result,
            start,
            end,
        });
    };
    record(Op::Insert, h.insert(7, 7), &mut clock);
    record(Op::Remove, h.remove(&7), &mut clock);
    record(Op::Contains, h.contains(&7), &mut clock);
    record(Op::Insert, h.insert(7, 7), &mut clock);
    record(Op::Contains, h.contains(&7), &mut clock);
    record(Op::Remove, h.remove(&7), &mut clock);
    check_history_from(&events, false).expect("resurrection history must linearize");

    // Counterfactual: contains(7) = true right after the successful
    // remove — exactly what the bug-injection feature produces.
    let mut broken = events.clone();
    broken[2].result = true;
    check_history_from(&broken, false).expect_err("visible-after-remove history must be rejected");
}

/// A whole-list scan skips exactly the dead nodes the census counts:
/// on a quiescent lazy graph holding live, lazily removed (invalid) and
/// marked nodes, the scan with both bounds open (which `len` counts)
/// yields the `memory_stats` live count, and the level-0 list length is
/// the census's physical count.
#[test]
fn a_snapshot_is_the_open_range_and_matches_the_census() {
    // Commission 0: a removed node is retired (marked) by the next search
    // that passes it, and stays linked until an insert substitutes it.
    let g: SkipGraph<u64, u64> = SkipGraph::new(
        GraphConfig::new(2)
            .lazy(true)
            .commission_cycles(0)
            .chunk_capacity(256),
    );
    let c = ThreadCtx::plain(0);
    let mut h = g.pin(ThreadCtx::plain(0));
    for k in 0..100u64 {
        assert!(h.insert(k, k * 10));
    }
    // Each removal's search passes the keys removed before it; the last
    // removed key is passed by none and stays invalid.
    let removed = |k: u64| (20..60).contains(&k) && (k - 20).is_multiple_of(3);
    for k in (0..100u64).filter(|&k| removed(k)) {
        assert!(h.remove(&k));
    }
    let m = g.memory_stats(&c);
    assert!(m.live > 0 && m.invalid > 0 && m.marked > 0, "{m:?}");
    let snapshot: Vec<(&u64, &u64)> = g.range(Unbounded, Unbounded, &c).collect();
    assert_eq!(snapshot.len(), m.live);
    assert_eq!(g.len(&c), m.live);
    assert!(snapshot.iter().all(|&(&k, &v)| v == k * 10 && !removed(k)));
    assert_eq!(g.level_lengths(&c)[0], m.physical());
    assert_eq!(g.memory_stats(&c), m, "the scans changed nothing");
}
