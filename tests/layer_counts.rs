//! What each optional layer is *for*, asserted as raw counts.
//!
//! The other root tests check that blocks, the hash index and the replicas
//! are linearizable; these check that they do their job — shorter
//! searches, fewer bytes, socket-local reads, one replay per socket. Every number
//! is a count the instrumentation takes (nodes visited, lines touched,
//! bytes allocated, operations replayed): no clock, no cost model, so two
//! runs print the same counts on any host.
//!
//! To keep them exact each test is one driver thread holding one handle
//! per modelled slot and giving them turns round-robin. Free-running
//! threads on a small host funnel everyone's replay through whichever
//! thread holds the CPU, which makes the attribution a property
//! of the scheduler; a fair interleave is what one pinned thread per
//! socket provides. Preloads are spread over every slot because a node
//! joins only its inserter's upper-level lists, RNGs are seeded, and the
//! commission period (TSC-based) is off wherever removes run.
//!
//! These are the successors of the counts the retired `bench_*` gate bins
//! took (EXPERIMENTS.md, "One measurement system", lists which gate went
//! where and the mutation under which each test here fails).
#![cfg(not(feature = "bug-injection"))]

use instrument::report::nodes_per_search;
use instrument::{AccessStats, ThreadCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::{
    BlockedSkipMap, ConcurrentMap, GraphConfig, LayeredMap, MapHandle, ReplicaConfig,
    ReplicatedHandle, ReplicatedLayeredMap, SkipGraph,
};
use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::sync::Arc;
use synchro::Zipf;

const CHUNK: usize = 1 << 12;
/// YCSB-style skew of every Zipf read below.
const ZIPF_ALPHA: f64 = 0.99;

/// Key `i`, scattered uniformly (odd multiplier: a bijection on `u64`).
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B1_85EB_CA87)
}

/// One handle per thread id in `tids`, recording into `stats` if given.
fn pin_all<'m, M: ConcurrentMap<u64, u64>>(
    map: &'m M,
    tids: std::ops::Range<u16>,
    stats: Option<&Arc<AccessStats>>,
) -> Vec<M::Handle<'m>> {
    tids.map(|t| {
        map.pin(match stats {
            Some(s) => ThreadCtx::recording(t, Arc::clone(s)),
            None => ThreadCtx::plain(t),
        })
    })
    .collect()
}

/// Inserts keys `0..keys`, the handles taking turns.
fn preload<H: MapHandle<u64, u64>>(handles: &mut [H], keys: u64) {
    let n = handles.len();
    for i in 0..keys {
        assert!(handles[i as usize % n].insert(key(i), i));
    }
}

/// `rounds` rounds of one `op(handle, rng, round)` per handle, in handle
/// order. Handle `t` draws from RNG stream `(seed, t)`: two calls with
/// different seeds share no stream.
fn interleave<H>(
    handles: &mut [H],
    seed: u64,
    rounds: u64,
    mut op: impl FnMut(&mut H, &mut SmallRng, u64),
) {
    let mut rngs: Vec<SmallRng> = (0..handles.len() as u64)
        .map(|t| SmallRng::seed_from_u64(seed << 8 | t))
        .collect();
    for i in 0..rounds {
        for (h, rng) in handles.iter_mut().zip(&mut rngs) {
            op(h, rng, i);
        }
    }
}

/// Thread slots and block capacity of the blocked-map tests.
const SLOTS: u16 = 2;
const BLOCK_CAP: usize = 8;
/// Keys of their preload (scattered, the slots taking turns).
const BLOCK_KEYS: u64 = 60_000;

/// Full-height sparse lazy towers — the blocked and the unblocked lane
/// differ only in blocking; a split's frozen victim goes back to the free
/// lists instead of counting against bytes/key forever.
fn block_config(slots: u16) -> GraphConfig {
    GraphConfig::new(slots as usize)
        .max_level(7)
        .sparse(true)
        .lazy(true)
        .chunk_capacity(CHUNK)
}

/// A blocked map holding `BLOCK_KEYS` keys, loaded through slots
/// `0..SLOTS` by handles that are gone again: what a later context with
/// one of those ids finds is what the map kept for its slot.
fn preloaded_blocks(slots: u16) -> BlockedSkipMap<u64, u64> {
    let map = BlockedSkipMap::new(block_config(slots), BLOCK_CAP);
    preload(&mut pin_all(&map, 0..SLOTS, None), BLOCK_KEYS);
    map
}

#[test]
fn blocks_shorten_searches_and_shrink_bytes_per_key() {
    const PROBES: u64 = 20_000;
    // Counts nodes visited per search over uniform lookups of the keys
    // (every lookup is one search, or one local anchor inspected).
    fn probe<M: ConcurrentMap<u64, u64>>(map: &M) -> f64 {
        let stats = AccessStats::new(SLOTS as usize);
        let mut readers = pin_all(map, 0..SLOTS, Some(&stats));
        interleave(&mut readers, 1, PROBES / SLOTS as u64, |h, rng, _| {
            assert!(h.contains(&key(rng.gen::<u64>() % BLOCK_KEYS)));
        });
        nodes_per_search(&stats)
    }
    let ctx = ThreadCtx::plain(0);

    let unblocked: SkipGraph<u64, u64> = SkipGraph::new(block_config(SLOTS));
    preload(&mut pin_all(&unblocked, 0..SLOTS, None), BLOCK_KEYS);
    let un_nodes = probe(&unblocked);
    unblocked.reclaim_flush(&ctx);
    let un_bytes = unblocked.memory_stats(&ctx).allocated_bytes as f64 / BLOCK_KEYS as f64;

    let blocked = preloaded_blocks(SLOTS);
    // What the local anchor maps cost, read before the lookups teach the
    // slots anything more.
    let loaded = blocked.stats(&ctx);
    let bl_nodes = probe(&blocked);
    blocked.shared().reclaim_flush(&ctx);
    let bl_stats = blocked.stats(&ctx);
    assert_eq!(bl_stats.entries as u64, BLOCK_KEYS);

    println!(
        "blocks: {bl_nodes:.2} vs {un_nodes:.2} nodes/search ({:.2}x), {:.2} vs {un_bytes:.2} \
         bytes/key ({:.3}x), {} anchors; local maps {} entries, {} B ({:.3} of node bytes) \
         after the preload, {} entries after the lookups",
        un_nodes / bl_nodes,
        bl_stats.bytes_per_key,
        bl_stats.bytes_per_key / un_bytes,
        bl_stats.anchors,
        loaded.local_entries,
        loaded.local_bytes,
        loaded.local_bytes as f64 / loaded.allocated_bytes as f64,
        bl_stats.local_entries,
    );
    assert!(
        un_nodes >= 2.0 * bl_nodes,
        "blocks must at least halve nodes/search: {bl_nodes:.2} vs {un_nodes:.2}"
    );
    assert!(
        bl_nodes <= 8.0,
        "a blocked lookup must start next to its block: {bl_nodes:.2} nodes"
    );
    assert!(
        bl_stats.bytes_per_key < un_bytes,
        "blocks must spend fewer bytes/key: {:.2} vs {un_bytes:.2}",
        bl_stats.bytes_per_key
    );
    assert!(loaded.local_entries > 0);
    assert!(
        10 * loaded.local_bytes <= loaded.allocated_bytes,
        "local anchor maps cost {} B beside {} B of nodes",
        loaded.local_bytes,
        loaded.allocated_bytes
    );
}

/// Keys a scan of the blocked-map tests reads (`scan_short`'s length).
const SCAN_LEN: usize = 32;

#[test]
fn a_scan_starts_at_a_local_anchor() {
    const SCANS: u64 = 10_000;
    let map = preloaded_blocks(SLOTS);
    let stats = AccessStats::new(SLOTS as usize);
    // Bare contexts, no handles: the scan is the map's own function.
    let mut ctxs: Vec<ThreadCtx> = (0..SLOTS)
        .map(|t| ThreadCtx::recording(t, Arc::clone(&stats)))
        .collect();
    let zipf = Zipf::new(BLOCK_KEYS, ZIPF_ALPHA);
    interleave(&mut ctxs, 9, SCANS, |ctx, rng, _| {
        let i = zipf.sample(rng);
        let mut scan = map.range(Bound::Included(&key(i)), Bound::Unbounded, ctx);
        assert_eq!(scan.next(), Some((key(i), i)));
        scan.take(SCAN_LEN - 1).for_each(drop);
    });
    let (nodes, t) = (nodes_per_search(&stats), stats.totals());
    println!(
        "scan starts: {nodes:.2} nodes/search, {} of {} answered by a local anchor",
        t.anchor_hits, t.searches
    );
    // The walk along the blocks is no search: one per scan, for its start.
    assert_eq!(t.searches, SLOTS as u64 * SCANS);
    assert!(nodes <= 9.0, "a scan start visited {nodes:.2} nodes");
}

#[test]
fn a_scan_from_the_smallest_key_inspects_the_first_block() {
    const SCANS: u64 = 1_000;
    // A slot holds no anchor at or below the map's smallest key unless the
    // first anchor happens to be sampled, so scans from it (Zipf rank 0 in
    // the test above, 8.7 % of its scans) find nothing in their local
    // maps: the first block covers them, and without that try each would
    // come down from a list head.
    let map = preloaded_blocks(SLOTS);
    let (smallest, _) = map
        .range(Bound::Unbounded, Bound::Unbounded, &ThreadCtx::plain(0))
        .next()
        .unwrap();
    let stats = AccessStats::new(SLOTS as usize);
    let mut ctxs: Vec<ThreadCtx> = (0..SLOTS)
        .map(|t| ThreadCtx::recording(t, Arc::clone(&stats)))
        .collect();
    interleave(&mut ctxs, 12, SCANS, |ctx, _, _| {
        let mut scan = map.range(Bound::Included(&smallest), Bound::Unbounded, ctx);
        assert_eq!(scan.next().map(|(k, _)| k), Some(smallest));
        scan.take(SCAN_LEN - 1).for_each(drop);
    });
    let (nodes, t) = (nodes_per_search(&stats), stats.totals());
    println!(
        "smallest-key scans: {nodes:.2} nodes/search (8.00 at 4e37704: a head descent each), \
         {} of {} answered by a local anchor",
        t.anchor_hits, t.searches
    );
    assert_eq!(t.searches, SLOTS as u64 * SCANS);
    // One node inspected per scan start: the first block, no search.
    assert_eq!(t.traversed, t.searches, "a smallest-key scan searched");
}

#[test]
fn a_slot_that_built_nothing_still_converges() {
    const READS: u64 = 20_000;
    // Slot 2 inserted nothing: no list above level 0 holds a node of its
    // own, and its local map starts empty.
    let map = preloaded_blocks(SLOTS + 1);
    let pass = |seed: u64| {
        let stats = AccessStats::new(SLOTS as usize + 1);
        let mut reader = pin_all(&map, SLOTS..SLOTS + 1, Some(&stats));
        interleave(&mut reader, seed, READS, |h, rng, _| {
            assert!(h.contains(&key(rng.gen::<u64>() % BLOCK_KEYS)));
        });
        nodes_per_search(&stats)
    };
    let (first, second) = (pass(10), pass(11));
    println!("a slot that built nothing: {first:.2} nodes/search, then {second:.2}");
    assert!(
        second <= 8.0,
        "second pass visited {second:.2} nodes/search"
    );
}

#[test]
fn local_anchor_maps_shed_dead_anchors() {
    const TURNS: u64 = 4;
    let map = preloaded_blocks(SLOTS);
    let mut handles = pin_all(&map, 0..SLOTS, None);
    // Every turn replaces each live key by a fresh one, the slots taking
    // turns: the live size holds while the anchors turn over.
    for i in 0..TURNS * BLOCK_KEYS {
        let h = &mut handles[i as usize % SLOTS as usize];
        assert!(h.remove(&key(i)));
        assert!(h.insert(key(i + BLOCK_KEYS), i + BLOCK_KEYS));
    }
    drop(handles);
    let ctx = ThreadCtx::plain(0);
    map.shared().reclaim_flush(&ctx);
    let stats = map.stats(&ctx);
    assert_eq!(stats.entries as u64, BLOCK_KEYS);
    // Linked at the sampling level = live with a tower that reaches it.
    let sampled = map.shared().level_lengths(&ctx)[2];
    println!(
        "turnover: {} local entries for {sampled} live sampled anchors of {} after {TURNS} turns",
        stats.local_entries, stats.anchors
    );
    assert!(
        stats.local_entries <= 2 * sampled,
        "{} local entries for {sampled} live sampled anchors",
        stats.local_entries
    );
}

#[test]
fn a_block_split_costs_a_descent_not_a_list() {
    // Shared-node reads per insert of a scattered preload, splits
    // included. A split that walked a list from its head would make this
    // grow with the anchor count (eight times the keys, eight times the
    // anchors); one that starts from a search frontier grows it by the
    // descent's few extra hops, and an insert that starts at a local
    // anchor pays no descent of its own at all.
    fn reads_per_insert(keys: u64) -> f64 {
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(block_config(SLOTS), BLOCK_CAP);
        let stats = AccessStats::new(SLOTS as usize);
        preload(&mut pin_all(&map, 0..SLOTS, Some(&stats)), keys);
        assert_eq!(map.len(&ThreadCtx::plain(0)) as u64, keys);
        stats.reads().total() as f64 / keys as f64
    }
    let small = reads_per_insert(1 << 13);
    let large = reads_per_insert(1 << 16);
    println!(
        "split cost: {small:.1} reads/insert over 2^13 keys, {large:.1} over 2^16 ({:.2}x)",
        large / small
    );
    assert!(
        large <= 1.6 * small && large <= 70.0,
        "reads per insert grew with the list: {small:.1} -> {large:.1}"
    );
}

/// A block splits at half its survivors: 4 096 ascending inserts through
/// one handle fill the last block to `BLOCK_CAP` and split it, leaving
/// every block but the last with `BLOCK_CAP / 2` entries.
#[test]
fn ascending_inserts_split_blocks_in_half() {
    const KEYS: u64 = 4_096;
    let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(block_config(1), BLOCK_CAP);
    let mut h = map.register(ThreadCtx::plain(0));
    for k in 0..KEYS {
        assert!(h.insert(k, k));
    }
    let stats = map.stats(h.ctx());
    println!(
        "half split: {} anchors hold {} entries after {KEYS} ascending inserts at cap {BLOCK_CAP}",
        stats.anchors, stats.entries
    );
    assert_eq!((stats.anchors, stats.entries), (1_023, KEYS as usize));
}

/// A remove keeps its slot's claim, so a re-insert claims a fresh slot,
/// the same pair included. The claims are read off the split: fresh keys
/// fill a block's free slots one each, and the insert after the last free
/// one splits it. Four inserts, a remove and a re-insert of the removed
/// pair leave five of the eight slots claimed (four if the re-insert took
/// back its old slot).
#[test]
fn a_re_insert_of_a_removed_pair_claims_a_fresh_slot() {
    let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(block_config(1), BLOCK_CAP);
    let mut h = map.register(ThreadCtx::plain(0));
    for k in 0..4 {
        assert!(h.insert(k, k));
    }
    assert!(h.remove(&2));
    assert!(h.insert(2, 2));
    let mut fresh = 0;
    while map.stats(h.ctx()).anchors == 1 {
        assert!(h.insert(100 + fresh, 0));
        fresh += 1;
    }
    let claimed = BLOCK_CAP as u64 - (fresh - 1);
    println!("slot claims: {claimed} of {BLOCK_CAP} after 4 inserts, a remove and its re-insert");
    assert_eq!(claimed, 5);
}

/// Keys of the indexed-map tests' preload.
const INDEX_KEYS: u64 = 60_000;

/// A layered map under the shared hash index holding `INDEX_KEYS` keys,
/// loaded through every slot by handles that are gone again.
fn preloaded_index(slots: u16) -> LayeredMap<u64, u64> {
    let map = LayeredMap::new(
        GraphConfig::new(slots as usize)
            .max_level(7)
            .sparse(true)
            .chunk_capacity(CHUNK)
            .hash_index(true),
    );
    preload(&mut pin_all(&map, 0..slots, None), INDEX_KEYS);
    map
}

#[test]
fn cross_thread_indexed_reads_visit_one_node() {
    const READERS: u16 = 2;
    // One slot more than the readers, and every handle that preloads is
    // dropped before the reads: the reading handles' local structures are
    // cold, so each read takes the cross-thread path the index exists for.
    let map = preloaded_index(READERS + 1);
    let stats = AccessStats::new(READERS as usize + 1);
    let mut readers = pin_all(&map, 0..READERS, Some(&stats));
    let zipf = Zipf::new(INDEX_KEYS, ZIPF_ALPHA);
    interleave(&mut readers, 2, INDEX_KEYS / READERS as u64, |h, rng, _| {
        assert!(h.contains(&key(zipf.sample(rng))), "preloaded key lost");
    });
    let t = stats.totals();
    let nodes = nodes_per_search(&stats);
    println!(
        "index: {nodes:.3} nodes/search over {} searches, {} index hits",
        t.searches, t.index_hits
    );
    assert_eq!(t.searches, INDEX_KEYS);
    assert!(nodes <= 2.0, "an indexed read visited {nodes:.2} nodes");
}

#[test]
fn the_index_is_one_table_at_half_load() {
    let map = preloaded_index(SLOTS);
    let mem = map.shared().memory_stats(&ThreadCtx::plain(0));
    // One 128-byte counter stripe per thread slot (rounded up to a power
    // of two) in each segment, and 16 B for every slot of the one array a
    // segment has: a grow keeps nothing of what it outgrew.
    let stripes = 128 * mem.index_segments * (SLOTS as usize).next_power_of_two();
    let occ = map.shared().index_occupancy();
    let loads: Vec<String> = occ.iter().map(|s| format!("{:.3}", s.load_factor())).collect();
    // Every key once, through handles that loaded none of them.
    let stats = AccessStats::new(SLOTS as usize);
    let mut readers = pin_all(&map, 0..SLOTS, Some(&stats));
    for i in 0..INDEX_KEYS {
        assert!(readers[i as usize % SLOTS as usize].contains(&key(i)), "preloaded key lost");
    }
    let hits = stats.totals().index_hits;
    println!(
        "index: {:.1} B per slot of capacity, {:.1} B per live key, load {} over {} slots, \
         {hits} of {INDEX_KEYS} reads index hits",
        mem.index_bytes as f64 / mem.index_capacity as f64,
        mem.index_bytes as f64 / INDEX_KEYS as f64,
        loads.join(" / "),
        mem.index_capacity
    );
    assert_eq!(
        mem.index_bytes,
        16 * mem.index_capacity + stripes,
        "index bytes beyond one two-word slot per slot of capacity"
    );
    for s in &occ {
        assert!(s.load_factor() >= 0.375, "a segment grew early: load {:.3}", s.load_factor());
    }
    assert_eq!(hits, INDEX_KEYS, "preloaded keys missing from the index");
}

/// Every index segment starts at four slots and grows by its one rule:
/// 2^16 inserts through one handle end at exactly the capacity the
/// deleted capacity hint reached at its smallest setting (and at its
/// 4 096-slot default: the doublings meet at the same power of two).
#[test]
fn an_index_segment_starts_at_four_slots() {
    const KEYS: u64 = 1 << 16;
    let map = LayeredMap::new(GraphConfig::new(1).lazy(true).hash_index(true).chunk_capacity(CHUNK));
    let ctx = ThreadCtx::plain(0);
    let empty = map.shared().memory_stats(&ctx);
    let mut h = map.register(ThreadCtx::plain(0));
    for i in 0..KEYS {
        assert!(h.insert(key(i), i));
    }
    let full = map.shared().memory_stats(&ctx);
    println!(
        "index start: {} slots over {} segments, {} after {KEYS} inserts",
        empty.index_capacity, empty.index_segments, full.index_capacity
    );
    assert_eq!(empty.index_capacity, 4 * empty.index_segments);
    assert_eq!(full.index_capacity, 131_072);
}

#[test]
fn key_turnover_at_a_constant_live_size_keeps_the_index_size() {
    const LIVE: u64 = 5_000;
    const TURNS: u64 = 4;
    let map = LayeredMap::new(
        GraphConfig::new(SLOTS as usize)
            .max_level(7)
            .sparse(true)
            .chunk_capacity(CHUNK)
            .hash_index(true),
    );
    let mut handles = pin_all(&map, 0..SLOTS, None);
    preload(&mut handles, LIVE);
    // Every turn replaces each live key by a fresh one. The preload grew
    // the index at 3/4 occupancy, so its live share sits over the 3/8
    // under which a tripped segment compacts: the first turn's trip
    // doubles once. After it the live load stays under 3/8, and every
    // trip of the occupancy wire finds the segment mostly tombstones.
    let mut replace = |i: u64| {
        let h = &mut handles[i as usize % SLOTS as usize];
        assert!(h.remove(&key(i)));
        assert!(h.insert(key(i + LIVE), i + LIVE));
    };
    (0..LIVE).for_each(&mut replace);
    let ctx = ThreadCtx::plain(0);
    let before = map.shared().memory_stats(&ctx);
    (LIVE..(TURNS + 1) * LIVE).for_each(&mut replace);
    let after = map.shared().memory_stats(&ctx);
    let tombstones: usize = map.shared().index_occupancy().iter().map(|s| s.tombstones).sum();
    println!(
        "index turnover: {} -> {} slots, {} -> {} B over {TURNS}x{LIVE} replaced keys, \
         {tombstones} tombstones left",
        before.index_capacity, after.index_capacity, before.index_bytes, after.index_bytes
    );
    assert_eq!(after.index_capacity, before.index_capacity, "turnover grew the index");
    assert_eq!(after.index_bytes, before.index_bytes);
}

/// A key whose `Hash` impl counts its calls on the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Counted(u64);

thread_local! {
    static HASHES: Cell<u64> = const { Cell::new(0) };
}

impl Hash for Counted {
    fn hash<H: Hasher>(&self, state: &mut H) {
        HASHES.with(|n| n.set(n.get() + 1));
        self.0.hash(state);
    }
}

/// Key hashes `op` computes on this thread.
fn hashes_of(op: impl FnOnce()) -> u64 {
    let before = HASHES.with(Cell::get);
    op();
    HASHES.with(Cell::get) - before
}

#[test]
fn a_point_operation_hashes_its_key_once() {
    // Lazy, indexed, and no commission: a removed node is never retired,
    // so no retirement's invalidation hashes inside a counted operation.
    let config = || {
        GraphConfig::new(SLOTS as usize)
            .lazy(true)
            .hash_index(true)
            .chunk_capacity(CHUNK)
            .commission_cycles(u64::MAX)
    };
    let k = Counted;
    // (operation, how many ran, key hashes they computed)
    let mut counts: Vec<(&str, u64, u64)> = Vec::new();
    let mut count = |op, f: &mut dyn FnMut()| counts.push((op, 1, hashes_of(f)));

    let map = LayeredMap::new(config());
    let stats = AccessStats::new(SLOTS as usize);
    let mut h = map.register(ThreadCtx::recording(0, Arc::clone(&stats)));
    for i in 0..64 {
        h.insert(k(2 * i), i);
    }
    let before = stats.totals();
    count("fresh insert", &mut || assert!(h.insert(k(1), 1)));
    let fresh = stats.totals();
    count("duplicate insert", &mut || assert!(!h.insert(k(1), 1)));
    count("get", &mut || assert_eq!(h.get(&k(2)), Some(1)));
    count("contains", &mut || assert!(h.contains(&k(4))));
    count("absent contains", &mut || assert!(!h.contains(&k(3))));
    count("remove", &mut || assert!(h.remove(&k(1))));
    count("absent remove", &mut || assert!(!h.remove(&k(1))));
    count("resurrecting insert", &mut || assert!(h.insert(k(1), 1)));

    // One worker per replica; a write's replays on both count with it.
    let map: ReplicatedLayeredMap<Counted, u64> =
        ReplicatedLayeredMap::new(config(), ReplicaConfig::uniform(SLOTS as usize, 2));
    let mut w: Vec<_> = (0..SLOTS).map(|t| map.register(ThreadCtx::plain(t))).collect();
    count("replicated insert", &mut || {
        assert!(w[0].insert(k(7), 7));
        w[1].sync();
    });
    count("replicated get", &mut || assert_eq!(w[1].get(&k(7)), Some(7)));
    count("replicated contains", &mut || assert!(w[0].contains(&k(7))));
    count("replicated remove", &mut || {
        assert!(w[0].remove(&k(7)));
        w[1].sync();
    });

    println!("key hashes (operation, operations, hashes): {counts:?}");
    for (op, ops, hashes) in &counts {
        assert_eq!(hashes, ops, "{ops} {op} hashed {hashes} keys");
    }
    // A fresh key: one index probe, which misses, and one descent from
    // the local start.
    assert_eq!(fresh.index_misses - before.index_misses, 1);
    assert_eq!(fresh.index_hits - before.index_hits, 0);
    assert_eq!(fresh.searches - before.searches, 1);
}

/// What a run of point operations costs in counts: (operations,
/// searches, nodes traversed, index hits, index misses, key hashes).
type OpCounts = (u64, u64, u64, u64, u64, u64);

/// The counts `run` adds to thread 0 of `stats`.
fn op_counts(stats: &AccessStats, run: impl FnOnce()) -> OpCounts {
    let before = stats.thread(0);
    let hashes = hashes_of(run);
    let after = stats.thread(0);
    (
        after.ops - before.ops,
        after.searches - before.searches,
        after.traversed - before.traversed,
        after.index_hits - before.index_hits,
        after.index_misses - before.index_misses,
        hashes,
    )
}

/// A replica's drain runs each logged update through its layered handle's
/// own insert or remove body, under the hash the appender stored: a
/// one-replica map costs what direct calls on a lone layered map cost.
#[test]
fn a_replica_drain_runs_the_direct_operations() {
    const SLOTS: usize = 8;
    const PRELOAD: u64 = 1 << 10;
    // Lazy and indexed, on a graph with upper levels; no commission, so
    // no search retires a removed node.
    let config = || {
        GraphConfig::new(SLOTS)
            .lazy(true)
            .hash_index(true)
            .chunk_capacity(CHUNK)
            .commission_cycles(u64::MAX)
    };
    let k = |i| Counted(key(i));
    // Fresh inserts, removes of preloaded and of just-inserted keys,
    // re-inserts of the latter, and absent removes: (insert?, key).
    let mut ops = Vec::new();
    for i in 0..64 {
        let fresh = k(PRELOAD + i);
        ops.push((true, fresh));
        ops.push((false, k(i * 17 % PRELOAD)));
        ops.push((false, fresh));
        ops.push((true, fresh));
        ops.push((false, k(PRELOAD + 64 + i)));
    }

    let stats = AccessStats::new(SLOTS);
    let map = ReplicatedLayeredMap::new(config(), ReplicaConfig::uniform(SLOTS, 1));
    let mut h = map.register(ThreadCtx::recording(0, Arc::clone(&stats)));
    for i in 0..PRELOAD {
        h.insert(k(i), i);
    }
    let replayed = op_counts(&stats, || {
        for &(insert, key) in &ops {
            let _ = if insert { h.insert(key, 0) } else { h.remove(&key) };
        }
    });

    let stats = AccessStats::new(SLOTS);
    let map = LayeredMap::new(config());
    let mut h = map.register(ThreadCtx::recording(0, Arc::clone(&stats)));
    for i in 0..PRELOAD {
        h.insert(k(i), i);
    }
    let direct = op_counts(&stats, || {
        for &(insert, key) in &ops {
            let _ = if insert { h.insert(key, 0) } else { h.remove(&key) };
        }
    });

    println!(
        "one-replica drain against direct calls (ops, searches, traversed, index hits, \
         index misses, key hashes): {replayed:?} against {direct:?}"
    );
    assert_eq!(replayed, direct);
}

/// A bare graph's handle runs the layered handle's insert loop with no
/// local structure, so a lazy insert finishes its own upper levels: no
/// `getStart` of its would ever finish them.
#[test]
fn a_bare_lazy_insert_links_every_level() {
    const KEYS: usize = 256;
    let graph: SkipGraph<u64, u64> = SkipGraph::new(GraphConfig::new(8).lazy(true));
    assert_eq!(graph.config().max_level, 2);
    let mut h = graph.pin(ThreadCtx::plain(0));
    for k in 0..KEYS as u64 {
        assert!(h.insert(k, k));
    }
    let lengths = graph.level_lengths(h.ctx());
    println!("bare lazy graph: levels 0..=2 hold {:?} of {KEYS} keys", &lengths[..3]);
    assert_eq!(lengths[..3], [KEYS; 3]);
}

/// A reader outside the registered set takes the bare graph's handle,
/// which runs the handles' read: on an indexed map a present key is one
/// index hit, counted as a one-node search.
#[test]
fn a_read_only_view_reads_through_the_index() {
    let map = LayeredMap::new(GraphConfig::new(2).hash_index(true).chunk_capacity(CHUNK));
    assert!(map.register(ThreadCtx::plain(0)).insert(7, 70));
    let stats = AccessStats::new(2);
    let mut view = map
        .shared()
        .pin(ThreadCtx::recording(1, Arc::clone(&stats)));
    assert_eq!(view.get(&7), Some(70));
    let t = stats.thread(1);
    println!(
        "read-only view: {} index hits, {} searches over {} nodes",
        t.index_hits, t.searches, t.traversed
    );
    assert_eq!((t.index_hits, t.searches, t.traversed), (1, 1, 1));
}

#[test]
fn sparse_towers_spend_half_the_fixed_layout_bytes_per_node() {
    const KEYS: u64 = 1 << 14;
    const SLOTS: u16 = 8;
    let map: LayeredMap<u64, u64> = LayeredMap::new(
        GraphConfig::new(SLOTS as usize)
            .sparse(true)
            .chunk_capacity(CHUNK),
    );
    preload(&mut pin_all(&map, 0..SLOTS, None), KEYS);
    let mem = map.shared().memory_stats(&ThreadCtx::plain(0));
    let fixed = SkipGraph::<u64, u64>::fixed_tower_node_bytes();
    println!(
        "towers: {:.2} of the fixed layout's {fixed} B/node over {} nodes",
        mem.bytes_per_node(),
        mem.allocated
    );
    assert_eq!(mem.allocated as u64, KEYS);
    // Not "at most half": the header PR 4 grew put the ratio at 1.93x.
    assert!(
        mem.bytes_per_node() <= 0.55 * fixed as f64,
        "sparse towers spend {:.2} of {fixed} B/node",
        mem.bytes_per_node()
    );
}

#[test]
fn sparse_towers_quarter_the_local_entries() {
    // The paper: "only elements that reach the top level are added to the
    // local structures. Therefore, sparse skip graphs also cause the local
    // structures to become more sparse." Eight slots give MaxLevel 2, so a
    // sparse tower reaches the top with probability 1/4.
    const KEYS: u64 = 4096;
    let local_len = |sparse: bool| {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(8).sparse(sparse).chunk_capacity(CHUNK));
        let mut h = map.register(ThreadCtx::plain(0));
        for k in 0..KEYS {
            assert!(h.insert(k, k));
        }
        h.local_len()
    };
    let (dense, sparse) = (local_len(false), local_len(true));
    println!("local entries after {KEYS} ascending inserts: dense {dense}, sparse {sparse}");
    assert_eq!(dense, KEYS as usize, "a dense handle maps every key it inserted");
    // Slot 0's seeded height RNG gives exactly this count (the older run
    // in `results/local_structures.csv` reads 1 005).
    assert_eq!(sparse, 1068);
    let quarter = KEYS as f64 / 4.0;
    assert!((sparse as f64 - quarter).abs() <= 0.1 * quarter);
}

const REPLICA_KEYS: u64 = 20_000;

type Replicated = ReplicatedLayeredMap<u64, u64>;
type Worker<'m> = ReplicatedHandle<'m, u64, u64>;

/// The replicated map of the two tests below, preloaded through every
/// slot with every replica caught up: `sockets` replicas over
/// `sockets + 1` thread slots. Thread 0 only preloads (it shares socket
/// 0); threads `1..=sockets` sit one per socket and do the counted work.
fn replicated(sockets: usize) -> Replicated {
    let slots = sockets + 1;
    // A roomy log, so a high lag bound (768 of 1 024 slots): a socket is
    // never made to help replay another socket's replica, so whatever
    // remote lines are counted are the design's and not back-pressure's.
    let rcfg = ReplicaConfig::uniform(slots, sockets)
        .logs(4)
        .log_capacity(1 << 10);
    let map = ReplicatedLayeredMap::new(
        GraphConfig::new(slots)
            .lazy(true)
            .hash_index(true)
            .chunk_capacity(CHUNK)
            .commission_cycles(u64::MAX),
        rcfg,
    );
    preload(&mut pin_all(&map, 0..slots as u16, None), REPLICA_KEYS);
    sync_all(&mut workers(&map, None));
    map
}

/// One handle per socket.
fn workers<'m>(map: &'m Replicated, stats: Option<&Arc<AccessStats>>) -> Vec<Worker<'m>> {
    pin_all(map, 1..map.replica_config().threads() as u16, stats)
}

/// A sink with a row for each of the map's thread slots.
fn sink(map: &Replicated) -> Arc<AccessStats> {
    AccessStats::new(map.replica_config().threads())
}

/// Shared-node lines touched (instrumented reads plus CAS), split by
/// whether the toucher's socket owns the node: `(local, remote)`.
fn lines(stats: &AccessStats, map: &Replicated) -> (u64, u64) {
    let rcfg = map.replica_config();
    let socket_of: Vec<usize> = (0..rcfg.threads())
        .map(|t| rcfg.socket_of(t as u16))
        .collect();
    let (lr, rr) = stats.reads().split_by_locality(&socket_of);
    let (lc, rc) = stats.cas().split_by_locality(&socket_of);
    (lr + lc, rr + rc)
}

/// Catches every worker's replica up to every log head.
fn sync_all(workers: &mut [Worker<'_>]) {
    for h in workers {
        h.sync();
    }
}

/// 90% Zipf membership reads of the preload, 10% updates of the same
/// population (alternately remove and re-insert).
fn read_heavy(workers: &mut [Worker<'_>], seed: u64, rounds: u64) {
    let zipf = Zipf::new(REPLICA_KEYS, ZIPF_ALPHA);
    interleave(workers, seed, rounds, |h, rng, i| {
        let k = key(zipf.sample(rng));
        if i % 10 != 9 {
            h.contains(&k);
        } else if (i / 10) % 2 == 0 {
            h.remove(&k);
        } else {
            h.insert(k, i);
        }
    });
}

/// 100% updates of the Zipf population, alternately remove and re-insert.
fn write_only(workers: &mut [Worker<'_>], seed: u64, rounds: u64) {
    let zipf = Zipf::new(REPLICA_KEYS, ZIPF_ALPHA);
    interleave(workers, seed, rounds, |h, rng, i| {
        let k = key(zipf.sample(rng));
        if i % 2 == 0 {
            h.remove(&k);
        } else {
            h.insert(k, i);
        }
    });
}

#[test]
fn a_synced_replica_serves_reads_without_remote_lines() {
    const SOCKETS: usize = 4;
    const ROUNDS: u64 = 4_000;
    let map = replicated(SOCKETS);
    let stats = sink(&map);
    read_heavy(&mut workers(&map, Some(&stats)), 3, ROUNDS);
    let (local, remote) = lines(&stats, &map);
    let ops = stats.totals().ops;
    let per_op = (local + remote) as f64 / ops as f64;
    println!(
        "replica reads: {local} local + {remote} remote lines over {ops} ops ({per_op:.3}/op)"
    );
    assert_eq!(ops, SOCKETS as u64 * ROUNDS);
    assert_eq!(
        remote, 0,
        "a replica-local read-heavy mix touched another socket's nodes"
    );
    assert!(per_op <= 2.5, "{per_op:.2} lines/op");
}

#[test]
fn a_replicated_write_is_replayed_once_per_socket() {
    const SOCKETS: usize = 4;
    const ROUNDS: u64 = 2_000;
    let map = replicated(SOCKETS);
    let stats = sink(&map);
    let mut writers = workers(&map, Some(&stats));
    write_only(&mut writers, 4, ROUNDS);
    // Writers replay only their home replica; the recording handles pay
    // the other sockets' replays here, so that every one is counted.
    sync_all(&mut writers);
    let t = stats.totals();
    let (local, remote) = lines(&stats, &map);
    let per_replay = (local + remote) as f64 / t.replayed_ops as f64;
    println!(
        "replica writes: {} appends, {} replayed in {} batches, {local} local + {remote} remote \
         lines ({per_replay:.3}/replayed op)",
        t.log_appends, t.replayed_ops, t.replay_batches
    );
    assert_eq!(t.log_appends, SOCKETS as u64 * ROUNDS);
    assert_eq!(t.replayed_ops, SOCKETS as u64 * t.log_appends);
    assert_eq!(remote, 0);
    assert!(per_replay <= 3.0, "{per_replay:.2} lines per replayed op");
}

#[test]
fn a_foreign_replay_starts_warm() {
    const FRESH: u64 = 2_000;
    const LOGS: usize = 2;
    const LOG_CAPACITY: usize = 16;
    // The backpressure bound: three quarters of the log.
    const LAG_BOUND: usize = LOG_CAPACITY * 3 / 4;
    // Two slots, one per socket: `MaxLevel` 0, the benchmark's graph. A
    // small lag bound, so the lone writer below keeps helping the idle
    // socket's replica, where its handle has replayed nothing before.
    let map: Replicated = ReplicatedLayeredMap::new(
        GraphConfig::new(2)
            .lazy(true)
            .hash_index(true)
            .chunk_capacity(CHUNK)
            .commission_cycles(u64::MAX),
        ReplicaConfig::uniform(2, 2)
            .logs(LOGS)
            .log_capacity(LOG_CAPACITY),
    );
    let stats = sink(&map);
    let mut w = pin_all(&map, 0..2, Some(&stats));
    preload(&mut w, REPLICA_KEYS);
    sync_all(&mut w);
    // Only thread 1 writes: fresh keys spread over the whole key range.
    let before = stats.thread(1);
    for i in REPLICA_KEYS..REPLICA_KEYS + FRESH {
        assert!(w[1].insert(key(i), i));
    }
    let after = stats.thread(1);
    let replayed = after.replayed_ops - before.replayed_ops;
    let searches = after.searches - before.searches;
    let nodes = (after.traversed - before.traversed) as f64 / searches as f64;
    println!(
        "foreign replays: thread 1 replayed {replayed} ops for {FRESH} inserts, \
         {nodes:.2} nodes/search over {searches} searches"
    );
    // Its own replica applies every insert, the other one all but what the
    // lag bound leaves pending in each log.
    assert!(
        replayed >= 2 * FRESH - (LOGS * LAG_BOUND) as u64,
        "{replayed} replays"
    );
    assert!(
        nodes <= 3.0,
        "a replay into the other replica visited {nodes:.2} nodes/search"
    );
}
