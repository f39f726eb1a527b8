//! Lazy-variant resurrection semantics (Alg. 2 / Alg. 12): a remove flips
//! the node's valid bit off without unlinking it, and a subsequent insert
//! of the same key resurrects the *same node* in place instead of
//! allocating a new one. Verified both through map semantics (with
//! `structure_stats` witnessing the physical node) and by checking the
//! resulting histories with the linearizability checker.
#![cfg(not(feature = "bug-injection"))]

use instrument::ThreadCtx;
use linearize::{check_history_from, Event, Op};
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap, SkipGraph};

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
    assert!(g.insert(5, 50, 0, &c));
    assert!(g.contains(&5, &c));

    // Remove = casValid(false): the node stays physically linked.
    assert!(g.remove(&5, &c));
    assert!(!g.contains(&5, &c));
    assert_eq!(g.get(&5, &c), None);
    let s = g.structure_stats(&c);
    assert_eq!((s.live, s.invalid, s.marked), (0, 1, 0));

    // Insert = casValid(true) on the existing node: no new allocation.
    let allocated_before = s.allocated();
    assert!(g.insert(5, 50, 0, &c));
    assert!(g.contains(&5, &c));
    let s = g.structure_stats(&c);
    assert_eq!((s.live, s.invalid, s.marked), (1, 0, 0));
    assert_eq!(
        s.allocated(),
        allocated_before,
        "resurrection must reuse the invalid node, not allocate"
    );
}

#[test]
fn resurrection_cycles_are_stable() {
    let g = lazy_graph();
    let c = ThreadCtx::plain(0);
    assert!(g.insert(9, 1, 0, &c));
    for _ in 0..50 {
        assert!(g.remove(&9, &c));
        assert!(!g.contains(&9, &c));
        assert!(!g.remove(&9, &c), "double remove must fail");
        assert!(g.insert(9, 1, 0, &c));
        assert!(g.contains(&9, &c));
        assert!(!g.insert(9, 1, 0, &c), "double insert must fail");
    }
    let s = g.structure_stats(&ThreadCtx::plain(0));
    assert_eq!(s.allocated(), 1, "one node serves every cycle");
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
    let c = ThreadCtx::plain(0);
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
    record(Op::Insert, g.insert(7, 7, 0, &c), &mut clock);
    record(Op::Remove, g.remove(&7, &c), &mut clock);
    record(Op::Contains, g.contains(&7, &c), &mut clock);
    record(Op::Insert, g.insert(7, 7, 0, &c), &mut clock);
    record(Op::Contains, g.contains(&7, &c), &mut clock);
    record(Op::Remove, g.remove(&7, &c), &mut clock);
    check_history_from(&events, false).expect("resurrection history must linearize");

    // Counterfactual: contains(7) = true right after the successful
    // remove — exactly what the bug-injection feature produces.
    let mut broken = events.clone();
    broken[2].result = true;
    check_history_from(&broken, false)
        .expect_err("visible-after-remove history must be rejected");
}
