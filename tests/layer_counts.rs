//! What each optional layer is *for*, asserted as raw counts.
//!
//! The other root tests check that blocks, the hash index, the replicas
//! and the adaptation controller are linearizable; these check that they
//! do their job — shorter searches, fewer bytes, socket-local reads, one
//! replay per socket, one replay in all when writes dominate. Every number
//! is a count the instrumentation takes (nodes visited, lines touched,
//! bytes allocated, operations replayed): no clock, no cost model, so two
//! runs print the same counts on any host.
//!
//! To keep them exact each test is one driver thread holding one handle
//! per modelled slot and giving them turns round-robin. Free-running
//! threads on a small host funnel everyone's combining and replay through
//! whichever thread holds the CPU, which makes the attribution a property
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
    AdaptConfig, BlockedSkipMap, ConcurrentMap, GraphConfig, LayeredMap, MapHandle, ReplicaConfig,
    ReplicatedHandle, ReplicatedLayeredMap, SkipGraph,
};
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
/// differ only in blocking; reclamation on, so a split's frozen victim goes
/// back to the free lists instead of counting against bytes/key forever.
fn block_config(slots: u16) -> GraphConfig {
    GraphConfig::new(slots as usize)
        .max_level(7)
        .sparse(true)
        .lazy(true)
        .reclaim(true)
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

#[test]
fn a_scan_starts_at_a_local_anchor() {
    const SCANS: u64 = 10_000;
    const SCAN_LEN: usize = 32;
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
        "scan starts: {nodes:.2} nodes/search, {} of {} scans without a search",
        t.anchor_hits, t.searches
    );
    // The walk along the blocks is no search: one per scan, for its start.
    assert_eq!(t.searches, SLOTS as u64 * SCANS);
    assert!(nodes <= 9.0, "a scan start visited {nodes:.2} nodes");
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
    let sampled = map.shared().structure_stats(&ctx).per_level[2];
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

#[test]
fn key_turnover_at_a_constant_live_size_keeps_the_index_size() {
    const LIVE: u64 = 5_000;
    const TURNS: u64 = 4;
    // Sized for twice the live keys, so the live load stays under the 3/8
    // at which a tripped segment doubles: every trip of the occupancy
    // wire during the turnover finds the segment mostly tombstones.
    let map = LayeredMap::new(
        GraphConfig::new(SLOTS as usize)
            .max_level(7)
            .sparse(true)
            .chunk_capacity(CHUNK)
            .hash_index(true)
            .index_capacity(2 * LIVE as usize),
    );
    let mut handles = pin_all(&map, 0..SLOTS, None);
    preload(&mut handles, LIVE);
    let ctx = ThreadCtx::plain(0);
    let before = map.shared().memory_stats(&ctx);
    // Every turn replaces each live key by a fresh one.
    for i in 0..TURNS * LIVE {
        let h = &mut handles[i as usize % SLOTS as usize];
        assert!(h.remove(&key(i)));
        assert!(h.insert(key(i + LIVE), i + LIVE));
    }
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

const REPLICA_KEYS: u64 = 20_000;

type Replicated = ReplicatedLayeredMap<u64, u64>;
type Worker<'m> = ReplicatedHandle<'m, u64, u64>;

/// The replicated map of the three tests below, preloaded through every
/// slot with every replica caught up: `sockets` replicas over
/// `sockets + 1` thread slots. Thread 0 only preloads (it shares socket
/// 0); threads `1..=sockets` sit one per socket and do the counted work.
fn replicated(sockets: usize, adapt: Option<AdaptConfig>) -> Replicated {
    let slots = sockets + 1;
    // A roomy log with a high lag bound: a socket is never made to help
    // replay another socket's replica, so whatever remote lines are
    // counted are the design's and not back-pressure's.
    let mut rcfg = ReplicaConfig::uniform(slots, sockets)
        .logs(4)
        .log_capacity(1 << 10)
        .max_lag(3 << 8);
    if let Some(a) = adapt {
        rcfg = rcfg.adapt(a);
    }
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
    let map = replicated(SOCKETS, None);
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
    let map = replicated(SOCKETS, None);
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
fn the_controller_reads_like_replicas_and_writes_like_one_structure() {
    const SOCKETS: usize = 8;
    /// Uncounted rounds opening each phase: enough 512-op windows for the
    /// controller to sense the mix, pass its dwell guard and finish the
    /// transition (the upshift rebuilds every replica).
    const SETTLE: u64 = 750;
    const READ_ROUNDS: u64 = 2_000;
    const WRITE_ROUNDS: u64 = 1_000;

    struct Counts {
        read_lines: u64,
        read_remote: u64,
        write_lines: u64,
        write_appends: u64,
        write_replayed: u64,
    }
    // The same phase sequence on a map with and without the controller:
    // the all-write preload, a read-heavy phase, a write-only phase.
    let run = |adapt: Option<AdaptConfig>| {
        let map = replicated(SOCKETS, adapt);
        read_heavy(&mut workers(&map, None), 5, SETTLE);
        let stats = sink(&map);
        read_heavy(&mut workers(&map, Some(&stats)), 6, READ_ROUNDS);
        let (local, read_remote) = lines(&stats, &map);

        // Every replica caught up before and after the counted writes, so
        // the replays counted are exactly those of the counted appends.
        let mut settle = workers(&map, None);
        write_only(&mut settle, 7, SETTLE);
        sync_all(&mut settle);
        drop(settle);
        let stats = sink(&map);
        let mut writers = workers(&map, Some(&stats));
        write_only(&mut writers, 8, WRITE_ROUNDS);
        sync_all(&mut writers);
        let (wl, wr) = lines(&stats, &map);
        let t = stats.totals();
        let counts = Counts {
            read_lines: local + read_remote,
            read_remote,
            write_lines: wl + wr,
            write_appends: t.log_appends,
            write_replayed: t.replayed_ops,
        };
        (counts, map.adapt_state())
    };
    let (adaptive, state) = run(Some(AdaptConfig::new().window_ops(512).dwell_windows(1)));
    let (plain, _) = run(None);
    let state = state.expect("a controller was attached");
    println!(
        "controller: read-heavy {} lines ({} remote) vs {} without; write-only {} appends \
         replayed {} times in {} lines vs {} times in {} lines without; {} downshifts, {} upshifts",
        adaptive.read_lines,
        adaptive.read_remote,
        plain.read_lines,
        adaptive.write_appends,
        adaptive.write_replayed,
        adaptive.write_lines,
        plain.write_replayed,
        plain.write_lines,
        state.downshifts,
        state.upshifts,
    );
    // Read-heavy: back on socket-local replicas, within a tenth of the
    // lines of a map that never left them.
    assert_eq!(adaptive.read_remote, 0);
    assert!(adaptive.read_lines * 10 <= plain.read_lines * 11);
    // Write-only: one replay per write where the replicas pay one each.
    assert_eq!(adaptive.write_appends, SOCKETS as u64 * WRITE_ROUNDS);
    assert_eq!(adaptive.write_replayed, adaptive.write_appends);
    assert_eq!(plain.write_replayed, SOCKETS as u64 * plain.write_appends);
    assert!(adaptive.write_lines * 4 <= plain.write_lines);
    // The preload downshifted, the reads upshifted, the writes downshifted.
    assert!(state.downshifts >= 1 && state.upshifts >= 1, "{state:?}");
    assert_eq!(state.mode, "single");
}
