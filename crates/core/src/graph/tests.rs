//! White-box tests of the shared-structure internals: search/relink
//! behaviour, the retire protocol, lazy linking, and the head-array
//! geometry.

use super::*;
use crate::params::GraphConfig;
use crate::sync::lines_of;
use crate::{sparse_height, ConcurrentMap};
use instrument::{AccessStats, ThreadCtx};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn eager(threads: usize) -> SkipGraph<u64, u64> {
    SkipGraph::new(GraphConfig::new(threads).chunk_capacity(512))
}

fn lazy(threads: usize, commission: u64) -> SkipGraph<u64, u64> {
    SkipGraph::new(
        GraphConfig::new(threads)
            .lazy(true)
            .commission_cycles(commission)
            .chunk_capacity(512),
    )
}

fn ctx(id: u16) -> ThreadCtx {
    ThreadCtx::plain(id)
}

/// Inserts through the one insert loop from the head array, giving the node
/// levels `0..=height` (a bare graph's handle draws its own heights).
pub(super) fn insert(g: &SkipGraph<u64, u64>, k: u64, v: u64, height: u8, c: &ThreadCtx) -> bool {
    let pin = g.pin(c);
    g.insert_from(
        &k,
        v,
        g.index_hash(&k),
        height,
        false,
        None,
        || None,
        &pin,
        c,
    )
    .0
}

/// A plain graph cannot install the index it is asked for, so it refuses
/// the flag rather than reading `hash_index: true` with no index behind it.
#[test]
#[should_panic(expected = "use LayeredMap::new")]
fn a_hash_index_without_the_key_hash_is_rejected() {
    let _ = SkipGraph::<u64, u64>::new(GraphConfig::new(1).hash_index(true));
}

/// The layered handles and the blocked map's anchor maps store one
/// `NodeRef` per entry; `tests/local_map.rs` sizes its entries after it.
#[test]
fn a_node_ref_is_two_words() {
    assert_eq!(
        std::mem::size_of::<NodeRef<u64, u64>>(),
        std::mem::size_of::<[u64; 2]>()
    );
}

#[test]
fn head_index_geometry() {
    assert_eq!(head_index(0, 0), 0);
    assert_eq!(head_index(1, 0), 1);
    assert_eq!(head_index(1, 1), 2);
    assert_eq!(head_index(2, 0), 3);
    assert_eq!(head_index(2, 3), 6);
    assert_eq!(head_index(3, 0), 7);
}

#[test]
fn heads_cover_every_list_and_point_at_tail() {
    let g = eager(8); // max_level = 2 -> 1 + 2 + 4 = 7 lists
    let c = ctx(0);
    for level in 0..=g.config().max_level {
        for suffix in 0..(1u32 << level) {
            let head = g.head(level, suffix);
            // SAFETY: heads live as long as the graph.
            let (h, next) = unsafe { (&*head, g.load_next(head, level as usize, &c)) };
            assert!(h.is_head());
            assert_eq!(h.top_level(), level);
            assert!(unsafe { &*next.ptr() }.is_tail(), "level {level}/{suffix}");
        }
    }
}

#[test]
fn search_finds_and_reports_levels() {
    let g = eager(4); // max_level = 1
    let c = ctx(0);
    for k in [10u64, 20, 30] {
        assert!(insert(&g, k, k, g.config().max_level, &c));
    }
    let mvec = g.membership_of(0);
    let res = g.search_from(&20, mvec, None, true, &c);
    assert!(res.found);
    unsafe {
        assert_eq!(*(*res.succs[0]).key(), 20);
        assert_eq!(*(*res.preds[0]).key(), 10);
    }
    // Absent key: successor is the next greater element.
    let res = g.search_from(&25, mvec, None, true, &c);
    assert!(!res.found);
    unsafe {
        assert_eq!(*(*res.succs[0]).key(), 30);
        assert_eq!(*(*res.preds[0]).key(), 20);
    }
    // Key below minimum: predecessor is the head.
    let res = g.search_from(&5, mvec, None, true, &c);
    assert!(unsafe { &*res.preds[0] }.is_head());
}

#[test]
fn eager_search_physically_unlinks_marked_chains() {
    let g = eager(2); // max_level = 0: pure list, easiest to inspect
    let c = ctx(0);
    for k in 0..10u64 {
        assert!(insert(&g, k, k, 0, &c));
    }
    // Logically delete 3..7 without the composite remove (no cleanup pass).
    let mvec = g.membership_of(0);
    for k in 3..7u64 {
        let pin = g.pin(&c);
        let res = g.search_from(&k, mvec, None, false, &c);
        assert!(g.logical_delete_eager(res.hit(&pin).unwrap(), &c));
    }
    // One unlinking search across the whole chain: pred(2).next must jump
    // directly to 7 afterwards (a single relink CAS snips the chain).
    let res = g.search_from(&7, mvec, None, true, &c);
    assert!(res.found);
    unsafe {
        assert_eq!(*(*res.preds[0]).key(), 2);
        let after = g.load_next(res.preds[0], 0, &c);
        assert_eq!(*(*after.ptr()).key(), 7, "chain snipped in one hop");
    }
    g.check_invariants().unwrap();
}

#[test]
fn insert_relinks_over_marked_chain() {
    let g = lazy(2, 0); // zero commission: retire immediately on sight
    let c = ctx(0);
    let mut h = ConcurrentMap::pin(&g, ctx(0));
    for k in [1u64, 2, 3, 4, 8] {
        assert!(insert(&g, k, k, 0, &c));
    }
    for k in [2u64, 3, 4] {
        assert!(h.remove(&k));
    }
    // A search retires the invalid nodes (marks them)...
    assert!(!h.contains(&3));
    // ...and the next insert replaces the whole marked chain with one CAS.
    assert!(insert(&g, 5, 5, 0, &c));
    let mvec = g.membership_of(0);
    let res = g.search_from(&5, mvec, None, false, &c);
    unsafe {
        assert_eq!(*(*res.preds[0]).key(), 1, "marked 2,3,4 were substituted");
    }
    assert_eq!(g.keys(&c), vec![1, 5, 8]);
    g.check_invariants().unwrap();
}

#[test]
fn lazy_insert_then_finish_links_upper_levels() {
    let g = lazy(8, u64::MAX); // max_level = 2; commission never expires
    let c = ctx(0);
    let res = g.search_from(&50, g.membership_of(0), None, false, &c);
    assert!(!res.found);
    let node = g.alloc_node(50, 500, &c, g.config().max_level);
    let p = node.as_ptr();
    // SAFETY: a fresh node linked by the only thread, which retires nothing.
    unsafe {
        assert!(g.try_link_level0(node, &res, &c, 0));
        // Only level 0 is linked so far.
        assert!(!(*p).is_inserted());
        assert!(Node::link(p, 1).load().ptr().is_null());
        // finishInsert completes the upper levels.
        let mut res = g.search_from(&50, g.membership_of(0), None, false, &c);
        assert!(res.found);
        assert!(g.link_upper(DataRef::new(p), &mut res, &c, || None));
        assert!((*p).is_inserted());
        for level in 1..=g.config().max_level as usize {
            let w = Node::link(p, level).load();
            assert!(!w.ptr().is_null(), "level {level}");
        }
    }
    g.check_invariants().unwrap();
}

#[test]
fn insert_helper_state_machine() {
    let g = lazy(2, u64::MAX);
    let c = ctx(0);
    assert!(insert(&g, 7, 70, 0, &c));
    let pin = g.pin(&c);
    let res = g.search_from(&7, g.membership_of(0), None, false, &c);
    let node = res.hit(&pin).unwrap();
    // Valid duplicate -> Some(false).
    assert_eq!(g.insert_helper(node, g.index_hash(&7), &c), Some(false));
    // Invalid (logically deleted) -> resurrected, Some(true).
    assert_eq!(g.remove_helper(node, &c), Some(true));
    assert_eq!(g.insert_helper(node, g.index_hash(&7), &c), Some(true));
    // Marked -> None.
    assert_eq!(g.remove_helper(node, &c), Some(true));
    // SAFETY: `node` is pinned.
    unsafe { g.help_mark(node.ptr(), 0, &c) };
    assert_eq!(g.insert_helper(node, g.index_hash(&7), &c), None);
    assert_eq!(g.remove_helper(node, &c), None);
}

#[test]
fn remove_helper_double_remove_fails() {
    let g = lazy(2, u64::MAX);
    let c = ctx(0);
    assert!(insert(&g, 7, 70, 0, &c));
    let pin = g.pin(&c);
    let res = g.search_from(&7, g.membership_of(0), None, false, &c);
    let node = res.hit(&pin).unwrap();
    assert_eq!(g.remove_helper(node, &c), Some(true));
    assert_eq!(g.remove_helper(node, &c), Some(false), "already invalid");
}

#[test]
fn check_retire_respects_commission_period() {
    // Huge commission: invalid nodes are never retired.
    let g = lazy(2, u64::MAX);
    let c = ctx(0);
    let mut h = ConcurrentMap::pin(&g, ctx(0));
    assert!(insert(&g, 9, 9, 0, &c));
    assert!(h.remove(&9));
    assert!(!h.contains(&9)); // search passes the invalid node
    let res = g.search_from(&9, g.membership_of(0), None, false, &c);
    // Node still physically linked and unmarked (invalid only).
    assert!(
        res.found || {
            // found=false because the node is invalid... found checks only the
            // mark; re-fetch to assert the state precisely.
            // SAFETY: one thread, and it retired nothing.
            let w = unsafe { g.load_next(res.succs[0], 0, &c) };
            !w.marked()
        }
    );
    // Zero commission: the same sequence marks the node on first contact.
    let g = lazy(2, 0);
    let c = ctx(0);
    let mut h = ConcurrentMap::pin(&g, ctx(0));
    assert!(insert(&g, 9, 9, 0, &c));
    assert!(h.remove(&9));
    assert!(!h.contains(&9)); // this search retires it
    let res = g.search_from(&9, g.membership_of(0), None, false, &c);
    assert!(!res.found, "retired node is skipped");
}

#[test]
fn help_mark_is_idempotent_and_freezes_pointer() {
    let g = eager(2);
    let c = ctx(0);
    assert!(insert(&g, 1, 1, 0, &c));
    assert!(insert(&g, 2, 2, 0, &c));
    let res = g.search_from(&1, g.membership_of(0), None, false, &c);
    let node = res.succs[0];
    // SAFETY: one thread, and it retires nothing.
    let (before, w) = unsafe {
        let before = g.load_next(node, 0, &c).ptr();
        g.help_mark(node, 0, &c);
        g.help_mark(node, 0, &c);
        (before, g.load_next(node, 0, &c))
    };
    assert!(w.marked());
    assert_eq!(w.ptr(), before, "mark preserved the successor pointer");
}

#[test]
fn partitioned_upper_levels_respect_membership() {
    // 8 threads (max_level 2, thread-id-suffix membership): thread 0's
    // nodes (mvec 0) must never appear in the level-1 list "1".
    let g: SkipGraph<u64, u64> = SkipGraph::new(
        GraphConfig::new(8)
            .membership(crate::mvec::MembershipStrategy::ThreadIdSuffix)
            .chunk_capacity(512),
    );
    let c0 = ctx(0); // mvec 00
    let c1 = ctx(1); // mvec 01
    for k in 0..20u64 {
        assert!(insert(&g, k * 2, k, g.config().max_level, &c0));
        assert!(insert(&g, k * 2 + 1, k, g.config().max_level, &c1));
    }
    // Walk level-1 list "1" (suffix 1): only odd keys (thread 1, mvec 01).
    let head = g.head(1, 1);
    let mut seen = 0;
    // SAFETY: nothing was removed, so every node is live.
    unsafe {
        let mut cur = g.load_next(head, 1, &c0).ptr();
        while (*cur).is_data() {
            assert_eq!(g.mvec_of(&*cur) & 1, 1, "foreign node in list (1,1)");
            seen += 1;
            cur = g.load_next(cur, 1, &c0).ptr();
        }
    }
    assert_eq!(seen, 20);
    g.check_invariants().unwrap();
}

#[test]
fn sparse_heights_bound_tower_population() {
    let g: SkipGraph<u64, u64> =
        SkipGraph::new(GraphConfig::new(8).sparse(true).chunk_capacity(4096));
    let c = ctx(0);
    let mut rng = SmallRng::seed_from_u64(3);
    let max = g.config().max_level;
    for k in 0..2000u64 {
        let h = sparse_height(&mut rng, max);
        assert!(insert(&g, k, k, h, &c));
    }
    // Count nodes in the thread's top-level list: expectation is
    // 2000 / 4^max (partitioning x sparse refinement would be for the
    // thread split; here a single thread inserts everything, so the
    // top list holds ~2000/2^max of the nodes).
    let head = g.head(max, g.membership_of(0));
    let mut count = 0;
    // SAFETY: nothing was removed, so every node is live.
    unsafe {
        let mut cur = g.load_next(head, max as usize, &c).ptr();
        while (*cur).is_data() {
            count += 1;
            cur = g.load_next(cur, max as usize, &c).ptr();
        }
    }
    let expected = 2000.0 / (1 << max) as f64;
    assert!(
        (count as f64) < expected * 2.0 && (count as f64) > expected / 3.0,
        "top-level population {count}, expected about {expected}"
    );
    g.check_invariants().unwrap();
}

#[test]
fn sparse_invariants_hold_across_all_heights_and_mutations() {
    // Truncated-tower regression: under the sparse config nodes of every
    // height class coexist, and check_invariants walks every list of every
    // level — any out-of-bounds tower slot or mis-linked truncated node
    // would surface here (and under Miri).
    let g: SkipGraph<u64, u64> = SkipGraph::new(
        GraphConfig::new(16)
            .sparse(true)
            .lazy(true)
            .chunk_capacity(512),
    );
    let c = ctx(0);
    let mut h = ConcurrentMap::pin(&g, ctx(0));
    let mut rng = SmallRng::seed_from_u64(7);
    let max = g.config().max_level;
    assert!(max >= 2, "need several height classes");
    for k in 0..600u64 {
        let h = sparse_height(&mut rng, max);
        assert!(insert(&g, k, k, h, &c));
    }
    // Every height class must actually be populated.
    let m = g.memory_stats(&c);
    for h in 0..=max as usize {
        assert!(m.height_histogram[h] > 0, "no nodes of height {h}");
    }
    assert_eq!(m.height_histogram.iter().sum::<usize>(), 600);
    g.check_invariants().unwrap();
    // Mutate: remove a third, reinsert some, then re-check.
    for k in (0..600u64).step_by(3) {
        assert!(h.remove(&k));
    }
    for k in (0..600u64).step_by(6) {
        let h = sparse_height(&mut rng, max);
        assert!(insert(&g, k, k, h, &c));
    }
    g.check_invariants().unwrap();
    // Byte accounting stays consistent with the histogram.
    let m = g.memory_stats(&c);
    let class = |h| std::mem::size_of::<Node<u64, u64>>() + Node::<u64, u64>::tower_bytes(h);
    let expected: usize = m
        .height_histogram
        .iter()
        .enumerate()
        .map(|(h, &n)| n * class(h))
        .sum();
    assert_eq!(m.allocated_bytes, expected);
}

#[test]
fn snapshot_iter_skips_dead_nodes() {
    let g = lazy(2, u64::MAX);
    let c = ctx(0);
    let mut h = ConcurrentMap::pin(&g, ctx(0));
    for k in 0..10u64 {
        assert!(insert(&g, k, k * 10, 0, &c));
    }
    for k in (0..10u64).step_by(2) {
        assert!(h.remove(&k));
    }
    let pairs: Vec<(u64, u64)> = g
        .range(Bound::Unbounded, Bound::Unbounded, &c)
        .map(|(k, v)| (*k, *v))
        .collect();
    assert_eq!(pairs, vec![(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
    assert_eq!(g.len(&c), 5);
    assert!(!g.is_empty(&c));
}

#[test]
fn traversal_lengths_are_recorded() {
    let stats = AccessStats::new(1);
    let g = eager(2);
    let mut h = ConcurrentMap::pin(&g, ThreadCtx::recording(0, Arc::clone(&stats)));
    for k in 0..50u64 {
        assert!(insert(&g, k, k, g.config().max_level, h.ctx()));
    }
    let before = stats.totals();
    assert!(h.contains(&25));
    let after = stats.totals();
    assert_eq!(after.searches, before.searches + 1);
    assert!(after.traversed > before.traversed);
}

#[test]
fn search_from_start_node_matches_head_search() {
    let g = eager(4);
    let c = ctx(0);
    for k in 0..100u64 {
        assert!(insert(&g, k, k, g.config().max_level, &c));
    }
    let mvec = g.membership_of(0);
    // Use the node holding 40 as a jump-in point for key 70.
    let r40 = g.search_from(&40, mvec, None, false, &c);
    assert!(r40.found);
    let from_head = g.search_from(&70, mvec, None, false, &c);
    let pin = g.pin(&c);
    let from_node = g.search_from(&70, mvec, r40.hit(&pin), false, &c);
    assert!(from_head.found && from_node.found);
    assert_eq!(from_head.succs[0], from_node.succs[0]);
    assert_eq!(from_head.preds[0], from_node.preds[0]);
}

#[test]
fn pop_min_under_concurrent_inserts() {
    let g = Arc::new(lazy(4, 0));
    let popped: Vec<Vec<u64>> = std::thread::scope(|s| {
        (0..4u16)
            .map(|t| {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    let c = ctx(t);
                    let mut got = Vec::new();
                    for i in 0..300u64 {
                        let k = i * 4 + t as u64;
                        assert!(insert(&g, k, k, 0, &c));
                        if i % 3 == 2 {
                            if let Some((k, _)) = g.pop_min(&c) {
                                got.push(k);
                            }
                        }
                    }
                    got
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let mut all: Vec<u64> = popped.into_iter().flatten().collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n, "pop_min never yields a key twice");
    let c = ctx(0);
    assert_eq!(g.len(&c) + n, 1200);
}

// ---------------------------------------------------------------------------
// Epoch-based reclamation: retire/recycle lifecycle and generation checks.
// ---------------------------------------------------------------------------

/// Every operation loads the global epoch and every advance writes it and
/// the advance count, so neither word may share a 128-byte line with the
/// fields every operation reads and nothing writes after construction —
/// wherever the graph lands: the check runs at every offset within a line
/// that the graph's alignment allows.
#[test]
fn epoch_words_share_no_line_with_the_read_mostly_fields() {
    fn span<T>(x: &T) -> (usize, usize) {
        (x as *const T as usize, std::mem::size_of_val(x))
    }
    let g: SkipGraph<u64, u64> =
        SkipGraph::new_hashed(GraphConfig::new(4).hash_index(true).chunk_capacity(256));
    let base = &g as *const _ as usize;
    let read = [
        span(&g.config),
        span(&g.membership),
        span(&g.heads),
        span(&g.arenas),
        span(&g.index),
    ];
    for shift in (0..128).step_by(std::mem::align_of::<SkipGraph<u64, u64>>()) {
        let lines = |(addr, size): (usize, usize)| {
            let at = addr - base + shift;
            at / 128..=(at + size - 1) / 128
        };
        for word in g.reclaim.epoch_words() {
            for field in read {
                let (w, f) = (lines(word), lines(field));
                assert!(
                    w.end() < f.start() || f.end() < w.start(),
                    "at offset {shift}, an epoch word shares a line with a read-mostly field"
                );
            }
        }
    }
}

#[test]
fn arena_banks_share_no_line() {
    // A bank's free-list heads and lengths and its recycled counter are
    // written by its owner and by reclaiming threads; its class arenas are
    // loaded by every allocation. Neighbouring banks must not share a line.
    let g: SkipGraph<u64, u64> = SkipGraph::new(GraphConfig::new(4).chunk_capacity(256));
    let lines: Vec<_> = g.arenas.iter().map(|b| lines_of(&b.0)).collect();
    for (i, a) in lines.iter().enumerate() {
        for (j, b) in lines.iter().enumerate().skip(i + 1) {
            assert!(
                a.end() < b.start() || b.end() < a.start(),
                "banks {i} and {j} share a line"
            );
        }
    }
}

fn reclaiming(threads: usize) -> SkipGraph<u64, u64> {
    SkipGraph::new(GraphConfig::new(threads).max_level(2).chunk_capacity(256))
}

#[test]
fn generation_checks_catch_stale_references() {
    let g = reclaiming(2);
    let c = ctx(0);
    let mut h = ConcurrentMap::pin(&g, ctx(0));
    assert!(insert(&g, 10, 10, 1, &c));
    let live = {
        let pin = g.pin(&c);
        let res = g.search_from(&10, g.membership_of(0), None, false, &c);
        NodeRef::new(res.hit(&pin).unwrap())
    };
    assert!(live.is_current(), "freshly captured reference validates");
    assert!(h.remove(&10));
    // Retirement bumps the generation: the reference is invalid even
    // before the slot is recycled.
    assert!(!live.is_current(), "retired node must fail validation");
    assert_eq!(g.reclaim_flush(&c), 1);
    // Recycle the slot under a different key; the impostor must not
    // satisfy the stale reference either.
    assert!(insert(&g, 11, 11, 1, &c));
    let m = g.memory_stats(&c);
    assert_eq!(m.recycled_slots, 1, "the freed slot was reused");
    assert!(!live.is_current(), "recycled impostor must not validate");
}

#[test]
fn references_captured_from_marked_nodes_are_poisoned() {
    let g = reclaiming(2);
    let c = ctx(0);
    assert!(insert(&g, 10, 10, 1, &c));
    let pin = g.pin(&c);
    let res = g.search_from(&10, g.membership_of(0), None, false, &c);
    let node = res.hit(&pin).unwrap();
    // Mark the node without unlinking it (the first half of an eager
    // removal): a capture taken *after* the mark may belong to either
    // incarnation, so it must never validate.
    assert!(g.logical_delete_eager(node, &c));
    let poisoned = NodeRef::new(node);
    assert!(
        !poisoned.is_current(),
        "capture on a marked node is poisoned"
    );
}

#[test]
fn head_start_reads_heal_a_lost_index_entry() {
    // `get` and `contains` run one read: a key the search finds after its
    // index entry was lost is published again, so the next read of either
    // kind is an index hit.
    let stats = AccessStats::new(1);
    let g =
        SkipGraph::<u64, u64>::new_hashed(GraphConfig::new(1).hash_index(true).chunk_capacity(256));
    let mut h = ConcurrentMap::pin(&g, ThreadCtx::recording(0, stats.clone()));
    let hits = || stats.thread(0).index_hits;
    assert!(insert(&g, 7, 70, 0, h.ctx()));
    g.index_evict(&7, h.ctx());
    assert!(h.contains(&7));
    let before = hits();
    assert_eq!(h.get(&7), Some(70));
    assert_eq!(hits(), before + 1, "contains republished the entry");
    g.index_evict(&7, h.ctx());
    assert_eq!(h.get(&7), Some(70));
    let before = hits();
    assert!(h.contains(&7));
    assert_eq!(hits(), before + 1, "get republished the entry");
}

#[test]
fn churn_with_recycling_keeps_the_footprint_flat() {
    let g = reclaiming(2);
    let c = ctx(0);
    let mut h = ConcurrentMap::pin(&g, ctx(0));
    const WINDOW: u64 = 16;
    const TOTAL: u64 = 400;
    for i in 0..TOTAL {
        let height = (i % 3) as u8; // rotate through every size class
        assert!(insert(&g, i, i, height, &c));
        if i >= WINDOW {
            assert!(h.remove(&(i - WINDOW)));
        }
        if i % 50 == 49 {
            g.reclaim_flush(&c);
        }
    }
    let m = g.memory_stats(&c);
    assert_eq!(m.live, WINDOW as usize);
    assert_eq!(m.retired_nodes as u64, TOTAL - WINDOW);
    assert!(
        m.recycled_slots as u64 > (TOTAL - WINDOW) / 2,
        "most inserts should reuse freed slots (recycled {})",
        m.recycled_slots
    );
    assert!(
        m.allocated < 200,
        "footprint must plateau near the live set, not the insert total \
         (allocated {})",
        m.allocated
    );
    assert_eq!(g.keys(&c), (TOTAL - WINDOW..TOTAL).collect::<Vec<_>>());
    assert!(g.check_invariants().is_ok());
}
