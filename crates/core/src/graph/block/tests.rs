use super::range::scan_prefetch_lines;
use super::resolve::SWEEP_FLOOR;
use super::storage::*;
use super::*;
use crate::graph::DataRef;
use crate::node::Node;
use crate::sync::TagPtr;
use instrument::AccessStats;
use std::collections::BTreeMap;
use std::ops::Bound;

fn cfg(threads: usize) -> GraphConfig {
    GraphConfig::new(threads).chunk_capacity(256)
}

fn ctx() -> ThreadCtx {
    ThreadCtx::plain(0)
}

#[test]
fn control_word_bit_packing() {
    let w = present_bit(3) | claimed_bit(3) | claimed_bit(7) | (5 << PREFIX_SHIFT);
    assert_eq!(present_bits(w), 0b1000);
    assert_eq!(claimed_bits(w), 0b1000_1000);
    assert_eq!(prefix_len(w), 5);
    assert!(!is_frozen(w));
    assert!(is_frozen(w | FROZEN));
    // The bitmaps and the frozen/prefix fields never overlap.
    assert_eq!(present_bits(FROZEN), 0);
    assert_eq!(claimed_bits(FROZEN), 0);
    assert_eq!(prefix_len(FROZEN), 0);
    assert_eq!(prefix_len(PREFIX_MASK << PREFIX_SHIFT), PREFIX_MASK);
}

#[test]
fn layout_bytes_stay_pointer_aligned() {
    for cap in MIN_BLOCK_CAP..=MAX_BLOCK_CAP {
        assert_eq!(block_layout_bytes::<u64, u64>(cap) % 8, 0);
        assert_eq!(block_layout_bytes::<u32, u8>(cap) % 8, 0);
    }
    assert_eq!(block_layout_bytes::<u64, u64>(4), 16 + 4 * 16);
    // A scan prefetches the whole of the next block, the largest
    // `(u64, u64)` one included, under the cap.
    assert_eq!(scan_prefetch_lines::<u64, u64>(8), 4);
    assert_eq!(scan_prefetch_lines::<u64, u64>(MAX_BLOCK_CAP), 6);
}

#[test]
fn single_block_insert_get_remove() {
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
    let c = ctx();
    assert!(map.is_empty(&c));
    assert!(map.insert(10, 100, &c));
    assert!(map.insert(5, 50, &c));
    assert!(!map.insert(10, 999, &c), "duplicate insert must fail");
    assert_eq!(map.get(&10, &c), Some(100));
    assert_eq!(map.get(&5, &c), Some(50));
    assert_eq!(map.get(&7, &c), None);
    assert!(map.remove(&10, &c));
    assert!(!map.remove(&10, &c), "double remove must fail");
    assert_eq!(map.get(&10, &c), None);
    assert_eq!(map.get(&5, &c), Some(50));
    assert_eq!(map.len(&c), 1);
    map.check_invariants(&c).unwrap();
}

#[test]
fn splits_preserve_entries() {
    const N: u64 = if cfg!(miri) { 24 } else { 200 };
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
    let c = ctx();
    for k in 0..N {
        assert!(map.insert(k, k * 2, &c), "insert {k}");
    }
    for k in 0..N {
        assert_eq!(map.get(&k, &c), Some(k * 2), "lookup {k}");
    }
    let stats = map.stats(&c);
    assert_eq!(stats.entries, N as usize);
    assert!(
        stats.anchors > N as usize / 4 && stats.anchors <= N as usize,
        "blocking factor out of range: {} anchors for {N} keys",
        stats.anchors
    );
    map.check_invariants(&c).unwrap();
}

#[test]
fn merges_unlink_emptied_blocks() {
    const N: u64 = if cfg!(miri) { 16 } else { 64 };
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
    let c = ctx();
    for k in 0..N {
        map.insert(k, k, &c);
    }
    for k in 0..N {
        assert!(map.remove(&k, &c), "remove {k}");
    }
    assert!(map.is_empty(&c));
    assert_eq!(map.stats(&c).anchors, 0, "emptied blocks must unlink");
    map.check_invariants(&c).unwrap();
    // The map stays usable: the next insert recreates a first anchor.
    assert!(map.insert(7, 7, &c));
    assert_eq!(map.get(&7, &c), Some(7));
    map.check_invariants(&c).unwrap();
}

#[test]
fn first_block_covers_keys_below_its_anchor() {
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
    let c = ctx();
    assert!(map.insert(100, 1, &c));
    // Both land in the block anchored at 100 (no anchor <= them).
    assert!(map.insert(50, 2, &c));
    assert!(map.insert(1, 3, &c));
    assert_eq!(map.get(&50, &c), Some(2));
    assert_eq!(map.get(&1, &c), Some(3));
    assert_eq!(map.stats(&c).anchors, 1);
    let keys: Vec<u64> = map
        .range(Bound::Unbounded, Bound::Unbounded, &c)
        .map(|(k, _)| k)
        .collect();
    assert_eq!(keys, vec![1, 50, 100]);
    map.check_invariants(&c).unwrap();
}

#[test]
fn range_bounds_match_btreemap() {
    const N: u64 = if cfg!(miri) { 20 } else { 90 };
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
    let c = ctx();
    let mut model = BTreeMap::new();
    for k in (0..N).map(|i| (i * 7) % N) {
        map.insert(k, k + 1, &c);
        model.insert(k, k + 1);
    }
    for k in (0..N).step_by(3) {
        map.remove(&k, &c);
        model.remove(&k);
    }
    let lo = N / 4;
    let hi = 3 * N / 4;
    let cases: Vec<(Bound<u64>, Bound<u64>)> = vec![
        (Bound::Unbounded, Bound::Unbounded),
        (Bound::Included(lo), Bound::Excluded(hi)),
        (Bound::Excluded(lo), Bound::Included(hi)),
        (Bound::Included(0), Bound::Excluded(0)),
        (Bound::Excluded(N), Bound::Unbounded),
    ];
    for (start, end) in cases {
        let got: Vec<_> = map.range(start.as_ref(), end, &c).collect();
        let want: Vec<(u64, u64)> = model.range((start, end)).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "range {start:?}..{end:?}");
    }
}

/// The scan's buffer at its worst case: a full cap-16 block whose tail
/// was filled in descending key order, so every entry after the
/// one-entry sorted prefix is inserted at the front of the buffer.
/// Also a Miri regression for the buffer's `MaybeUninit` reads.
#[test]
fn a_descending_tail_scans_in_order() {
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), MAX_BLOCK_CAP);
    let c = ctx();
    let mut model = BTreeMap::new();
    let top = 100 + MAX_BLOCK_CAP as u64;
    for k in std::iter::once(100).chain((101..top).rev()) {
        assert!(map.insert(k, k * 2, &c));
        model.insert(k, k * 2);
    }
    assert_eq!(map.stats(&c).anchors, 1, "one full block");
    {
        let pin = map.graph.pin(&c);
        let w = unsafe { map.blk(map.resolve(&100, &pin, &c).unwrap()) }
            .control()
            .load();
        assert_eq!(present_bits(w), slot_mask(MAX_BLOCK_CAP));
        assert_eq!(prefix_len(w), 1);
    }
    for lo in 99..=top {
        let cases = [
            (Bound::Included(lo), Bound::Unbounded),
            (Bound::Excluded(lo), Bound::Included(lo + 5)),
            (Bound::Unbounded, Bound::Excluded(lo)),
        ];
        for (start, end) in cases {
            let got: Vec<_> = map.range(start.as_ref(), end, &c).collect();
            let want: Vec<(u64, u64)> = model.range((start, end)).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want, "range {start:?}..{end:?}");
        }
    }
}

#[test]
fn iterator_survives_split_mid_scan() {
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
    let c = ctx();
    let original: Vec<u64> = (0..10).map(|i| i * 10).collect();
    for &k in &original {
        map.insert(k, k, &c);
    }
    let c2 = ThreadCtx::plain(0);
    let mut iter = map.range(Bound::Unbounded, Bound::Unbounded, &c2);
    let mut seen = vec![iter.next().unwrap().0, iter.next().unwrap().0];
    // Split blocks ahead of the scan position while the iterator is
    // live: the stale successor chain must still reach every
    // pre-existing key exactly once, in order.
    for k in 41..=44 {
        map.insert(k, k, &c);
    }
    for k in 71..=74 {
        map.insert(k, k, &c);
    }
    seen.extend(iter.map(|(k, _)| k));
    let mut ascending = seen.clone();
    ascending.sort_unstable();
    ascending.dedup();
    assert_eq!(seen, ascending, "scan must stay strictly ascending");
    for &k in &original {
        assert!(seen.contains(&k), "pre-existing key {k} lost mid-scan");
    }
    map.check_invariants(&c).unwrap();
}

#[test]
fn sparse_anchor_heights_are_counter_driven() {
    const N: u64 = if cfg!(miri) { 24 } else { 150 };
    let map = BlockedSkipMap::<u64, u64>::new(cfg(4).sparse(true), 4);
    let c = ctx();
    for k in 0..N {
        map.insert(k, k, &c);
    }
    for k in 0..N {
        assert_eq!(map.get(&k, &c), Some(k), "lookup {k}");
    }
    map.check_invariants(&c).unwrap();
}

/// Miri regression: the raw in-block slot projection must stay inside
/// the node allocation's provenance and never alias the control word.
#[test]
fn slot_projection_roundtrip() {
    let map = BlockedSkipMap::<u64, u32>::new(cfg(1), MAX_BLOCK_CAP);
    let c = ctx();
    let node = map.graph.alloc_node(42, (), &c, 0);
    let blk = unsafe { map.blk(node) };
    for i in 0..MAX_BLOCK_CAP {
        unsafe { blk.write(i, (i as u64 * 3, i as u32)) };
    }
    blk.control().store(slot_mask(MAX_BLOCK_CAP));
    for i in 0..MAX_BLOCK_CAP {
        assert_eq!(unsafe { blk.read(i) }, (i as u64 * 3, i as u32));
        assert_eq!(unsafe { blk.key_at(i) }, i as u64 * 3);
    }
    assert_eq!(blk.forward().load(), 0, "forward word must start null");
    map.graph.discard_unpublished(node, &c);
}

/// Miri regression: the split's survivor copy reads only published
/// slots of the frozen block and writes fresh allocations.
#[test]
fn split_copy_preserves_entries() {
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), MIN_BLOCK_CAP);
    let c = ctx();
    for k in [5u64, 3, 9, 1, 7] {
        assert!(map.insert(k, k * 11, &c));
    }
    for k in [1u64, 3, 5, 7, 9] {
        assert_eq!(map.get(&k, &c), Some(k * 11));
    }
    assert!(map.stats(&c).anchors >= 2, "cap-2 blocks must have split");
    map.check_invariants(&c).unwrap();
}

/// An uncontended split searches once: the install, the upper-level
/// unlink and the linking of both halves all run on that descent's
/// frontier (the head-walking protocol paid up to two more descents
/// inside `link_replacement`).
#[test]
fn a_split_descends_once() {
    const TOP: usize = 3;
    let sink = AccessStats::new(1);
    let c = ThreadCtx::recording(0, sink.clone());
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1).max_level(TOP as u8), 4);
    for k in 0..40 {
        assert!(map.insert(k * 10, k, &c));
    }
    // An ascending load leaves two entries per block; a third puts a
    // mid-list block over cap/2, so its split builds two halves.
    assert!(map.insert(205, 0, &c));
    let pin = map.graph.pin(&c);
    let anchor = map.resolve(&205, &pin, &c).unwrap();
    assert_eq!(unsafe { anchor.as_ref() }.top_level() as usize, TOP);
    let blk = unsafe { map.blk(anchor) };
    let w = blk.control().load();
    assert_eq!(present_bits(w).count_ones(), 3);
    blk.control().store(w | FROZEN);

    let before = sink.totals().searches;
    map.help_split(anchor, &c);
    assert_eq!(sink.totals().searches - before, 1);

    let first = blk.forward().load() as BPtr<u64>;
    let mut top_list = Vec::new();
    // SAFETY: every node named here is reached under `pin`.
    let second = unsafe {
        let mut cur = Node::link(map.graph.head(TOP as u8, 0), TOP).load();
        while !(*cur.ptr()).is_tail() {
            assert!(!cur.marked());
            top_list.push(cur.ptr());
            cur = Node::link(cur.ptr(), TOP).load();
        }
        Node::link(first, 0).load().ptr()
    };
    assert!(
        !top_list.contains(&anchor.as_ptr()),
        "dead anchor still linked"
    );
    let at = top_list
        .iter()
        .position(|&p| p == first)
        .expect("first half linked");
    assert_eq!(
        top_list.get(at + 1),
        Some(&second),
        "second half follows the first"
    );
    drop(pin);
    map.check_invariants(&c).unwrap();
}

/// Miri regression + hint safety: a replaced block's generation moves
/// (through its retirement) so stale block hints cannot validate against
/// the dead anchor.
#[test]
fn generation_moves_when_block_is_replaced() {
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), MIN_BLOCK_CAP);
    let c = ctx();
    assert!(map.insert(1, 1, &c));
    assert!(map.insert(2, 2, &c));
    let stale = {
        let pin = map.graph.pin(&c);
        let anchor = map.resolve(&1, &pin, &c).unwrap();
        // SAFETY: resolved under `pin`.
        NodeRef::new(unsafe { DataRef::new(anchor.as_ptr()) })
    };
    {
        let pin = map.graph.pin(&c);
        assert!(stale.node(&pin).is_some(), "live anchor must validate");
    }
    // Filling the block freezes and replaces it.
    assert!(map.insert(3, 3, &c));
    let pin = map.graph.pin(&c);
    let dead = stale.node(&pin).is_none() || stale.node(&pin).is_some_and(|n| n.is_marked(0));
    assert!(dead, "stale hint validated against a replaced block");
    drop(pin);
    for k in 1..=3 {
        assert_eq!(map.get(&k, &c), Some(k));
    }
    map.graph.reclaim_flush(&c);
    map.check_invariants(&c).unwrap();
}

#[test]
fn stats_report_blocking_gains() {
    const N: u64 = if cfg!(miri) { 24 } else { 160 };
    let fat = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
    let c = ctx();
    for k in 0..N {
        fat.insert(k, k, &c);
    }
    let s = fat.stats(&c);
    assert_eq!(s.entries, N as usize);
    assert!(s.bytes_per_key > 0.0);
    assert!(
        s.anchors < N as usize / 2,
        "cap-8 blocking should use far fewer anchors than keys ({})",
        s.anchors
    );
}

#[test]
#[should_panic(expected = "BlockedSkipMap with GraphConfig::hash_index(true)")]
fn a_hash_index_under_blocks_is_rejected() {
    let _ = BlockedSkipMap::<u64, u64>::new(cfg(1).hash_index(true), 4);
}

/// A block whose slots are all claimed but partly removed keeps its
/// claims: no remove freezes it while it holds an entry. The next insert
/// that finds no free slot freezes it, and the rebuilt block takes the
/// refill.
#[test]
fn a_clogged_block_keeps_its_claims_until_an_insert_freezes_it() {
    // Claimed slots of the block covering key 0 (white-box probe).
    let claimed = |map: &BlockedSkipMap<u64, u64>, c: &ThreadCtx| -> u32 {
        let pin = map.graph.pin(c);
        let a = map.resolve(&0, &pin, c).expect("block exists");
        claimed_bits(unsafe { map.blk(a) }.control().load()).count_ones()
    };
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
    let c = ctx();
    for k in 0..4 {
        assert!(map.insert(k, k, &c));
    }
    assert_eq!(map.stats(&c).anchors, 1);
    // All four slots claimed; remove down to two survivors.
    assert!(map.remove(&3, &c));
    assert!(map.remove(&2, &c));
    assert_eq!(claimed(&map, &c), 4, "the removes keep every slot claimed");
    // The insert freezes the clogged block; the two survivors move into
    // one fresh block, which takes the new entry in a third slot.
    assert!(map.insert(10, 10, &c));
    assert_eq!(claimed(&map, &c), 3);
    assert!(map.insert(11, 11, &c));
    for (k, v) in [(0, 0), (1, 1), (10, 10), (11, 11)] {
        assert_eq!(map.get(&k, &c), Some(v), "key {k}");
    }
    assert_eq!(map.stats(&c).anchors, 1);
    map.check_invariants(&c).unwrap();
}

#[test]
fn prefix_probe_matches_linear_reference() {
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
    let c = ctx();
    for n in 1..=8usize {
        let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 10 + 5, i)).collect();
        // A throwaway block (never installed; arena-backed, so the
        // leak is bounded by the test).
        let node = map.build_block(&entries, TagPtr::null(), &c);
        let blk = unsafe { map.blk(node) };
        for probe in 0..90u64 {
            let want = entries.iter().rposition(|e| e.0 <= probe);
            assert_eq!(
                BlockedSkipMap::prefix_probe(&blk, n, &probe),
                want,
                "n {n} probe {probe}"
            );
        }
    }
}

/// A slot's local anchors serve point ops for whole block ranges: a
/// warmed slot answers out-of-order lookups without fresh descents
/// (anchor hits recorded), stays correct across the splits the inserts
/// force, and serves the map's own entry points and a handle
/// registered later under the same id alike.
#[test]
fn local_anchors_serve_whole_block_ranges() {
    const N: u64 = if cfg!(miri) { 24 } else { 100 };
    let sink = AccessStats::new(1);
    let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
    let mut h = map.register(ThreadCtx::recording(0, sink.clone()));
    for k in 0..N {
        assert!(h.insert(k, k));
    }
    let warm = sink.totals().anchor_hits;
    assert!(warm > 0, "sorted inserts must start at a local anchor");
    drop(h);
    let mut h = map.register(ThreadCtx::recording(0, sink.clone()));
    for k in (0..N).rev() {
        assert_eq!(h.get(&k), Some(k), "reverse lookup {k}");
    }
    let reread = sink.totals().anchor_hits;
    assert!(reread >= warm + N, "a new handle must find the slot warm");
    let c = ThreadCtx::recording(0, sink.clone());
    assert_eq!(map.get(&(N / 2), &c), Some(N / 2));
    let from = map.range(Bound::Included(&(N / 2)), Bound::Unbounded, &c);
    assert_eq!(from.count() as u64, N - N / 2);
    assert_eq!(sink.totals().anchor_hits, reread + 2);
    assert!(map.stats(&c).local_entries > 0);
    map.check_invariants(&c).unwrap();
}

/// Dead entries a slot never looks at again do not pile up: once the
/// slot has doubled since its last sweep, every entry whose generation
/// moved goes.
#[test]
fn a_sweep_drops_entries_whose_generation_moved() {
    let n = if cfg!(miri) {
        64
    } else {
        2 * SWEEP_FLOOR as u64
    };
    // `MaxLevel` 0: every anchor is sampled.
    let map = BlockedSkipMap::<u64, u64>::new(cfg(2), 2);
    let (a, b) = (ThreadCtx::plain(0), ThreadCtx::plain(1));
    let held = || map.local[0].0.lock().unwrap().map.len();
    for k in n..2 * n {
        assert!(map.insert(k, k, &a));
    }
    let first = held();
    assert!(first >= map.stats(&a).anchors / 2, "{first} entries");
    // Another thread empties the map, so all of those anchors die, and
    // slot 0 then works below them: eviction on sight never meets one.
    for k in n..2 * n {
        assert!(map.remove(&k, &b));
    }
    for k in 0..n {
        assert!(map.insert(k, k, &a));
    }
    let live = map.stats(&a).anchors;
    if !cfg!(miri) {
        println!("{first} entries, then {} for {live} live anchors", held());
        assert!(
            2 * held() <= 3 * live,
            "{} entries for {live} anchors",
            held()
        );
    }
    for k in 0..n {
        assert_eq!(map.get(&k, &a), Some(k));
    }
    map.check_invariants(&a).unwrap();
}

/// Every sparse anchor creation writes `anchor_seq`; every blocked
/// operation reads `cap`, `local` and the graph's read-mostly fields. The
/// counter must share a 128-byte line with none of them, wherever the map
/// lands: the check runs at every offset within a line that the map's
/// alignment allows.
#[test]
fn the_anchor_counter_shares_no_line_with_the_read_mostly_fields() {
    fn span<T>(x: &T) -> (usize, usize) {
        (x as *const T as usize, std::mem::size_of_val(x))
    }
    let map = BlockedSkipMap::<u64, u64>::new(cfg(4).sparse(true), 8);
    let base = &map as *const _ as usize;
    let g = &map.graph;
    let read = [
        span(&map.cap),
        span(&map.local),
        span(&g.config),
        span(&g.membership),
        span(&g.heads),
        span(&g.arenas),
        span(&g.index),
    ];
    let counter = span(&map.anchor_seq.0);
    for shift in (0..128).step_by(std::mem::align_of::<BlockedSkipMap<u64, u64>>()) {
        let lines = |(addr, size): (usize, usize)| {
            let at = addr - base + shift;
            at / 128..=(at + size - 1) / 128
        };
        for field in read {
            let (w, f) = (lines(counter), lines(field));
            assert!(
                w.end() < f.start() || f.end() < w.start(),
                "at offset {shift}, the anchor counter shares a line with a read-mostly field"
            );
        }
    }
}
