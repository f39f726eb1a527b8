//! Fat level-0 blocks: B-skiplist blocking layered over the skip graph.
//!
//! A [`BlockedSkipMap`] stores several key/value pairs per level-0 node
//! ("anchor") in a trailing sorted-prefix array, instead of one pair per
//! node. Searches pay one tower descent per *block* rather than per key,
//! and a block's entries share cache lines, so the per-key traversal and
//! memory costs drop by roughly the blocking factor (the classic
//! B-skiplist argument, applied to the paper's NUMA-local skip graph).
//!
//! # Coverage invariant
//!
//! An entry `e` always lives in the block of the greatest anchor key
//! `<= e`; if no such anchor exists, in the *first* block (which therefore
//! covers `-inf`). New anchors below an existing anchor key can only be
//! created by splitting the first block, and splits freeze their victim
//! first — so an insert's publish CAS succeeding against an unfrozen
//! control word proves the block still covered the key, and the publish
//! linearizes the insert.
//!
//! # One way per job
//!
//! Point operations live on [`BlockedHandle`]; a scan is
//! [`BlockedSkipMap::range`] under the caller's context. A block's
//! lifecycle has one rule. An insert that finds every slot claimed
//! freezes the block, and a remove that empties it freezes it too; a
//! frozen block with more than `cap / 2` survivors is replaced by two
//! blocks cut at `len.div_ceil(2)` (the half split), one with fewer by a
//! single block, and one with none is unlinked (the merge). A remove
//! keeps its slot's claim, so a re-insert claims a fresh slot, and a block
//! whose slots are all claimed but partly removed keeps its claims until
//! an insert freezes it.
//!
//! # Module map
//!
//! * `storage` — the block layout, the control word and its bit fields;
//! * `protocol` — the split/merge protocol: first anchor, freeze
//!   helping, replacement build, install and upper-level (un)linking;
//! * `resolve` — the local anchor maps and the resolver every entry
//!   point finds its block through;
//! * `range` — the range iterator.

mod protocol;
mod range;
mod resolve;
mod storage;
#[cfg(test)]
mod tests;

pub use range::BlockedRangeIter;
pub use storage::{MAX_BLOCK_CAP, MIN_BLOCK_CAP};

use super::{NodePtr, NodeRef, SearchResult, SkipGraph};
use crate::node::Node;
use crate::params::GraphConfig;
use crate::sync::{FacadeAtomicUsize, Padded};
use instrument::ThreadCtx;
use resolve::LocalSlot;
use std::marker::PhantomData;
use std::ptr::NonNull;
use storage::{
    block_layout_bytes, claimed_bit, claimed_bits, is_frozen, prefix_len, present_bit,
    present_bits, slot_mask, Blk, FROZEN,
};

type BNode<K> = Node<K, ()>;
type BPtr<K> = NodePtr<K, ()>;
type BSearch<K> = SearchResult<K, ()>;

/// Aggregate footprint of a [`BlockedSkipMap`], for the blocking-ablation
/// benchmarks: how many anchors carry how many live entries, and what the
/// per-key byte cost works out to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockedStats {
    /// Live (unmarked) anchor nodes on the bottom list.
    pub anchors: usize,
    /// Live entries summed over those anchors' present bitmaps.
    pub entries: usize,
    /// Bytes consumed by allocated node slots, towers and blocks included.
    /// The local anchor maps are not in it; see `local_bytes`.
    pub allocated_bytes: usize,
    /// `allocated_bytes / entries` (0 when empty).
    pub bytes_per_key: f64,
    /// Anchors recorded in the thread slots' local maps, summed over the
    /// slots (a slot busy at the time reads as empty).
    pub local_entries: usize,
    /// What those entries cost at a B-tree's worst-case occupancy (half
    /// full): `local_entries` × the entry size × 2.
    pub local_bytes: usize,
}

/// A lock-free ordered map with fat level-0 blocks over a [`SkipGraph`].
///
/// Keys and values are `Copy` so block migration is a plain memcpy and
/// readers need no per-entry synchronization; the inner graph runs the
/// lazy protocol (searches never relink level-0 chains), which keeps a
/// frozen block reachable until its replacement is installed.
pub struct BlockedSkipMap<K, V> {
    graph: SkipGraph<K, ()>,
    cap: usize,
    /// Drives deterministic anchor tower heights in sparse mode: the
    /// `n`-th anchor gets height `trailing_zeros(n)` (capped), i.e. the
    /// geometric distribution without per-thread RNG state. On a line of
    /// its own: every sparse anchor creation writes it, and every blocked
    /// operation reads `cap` and `local`.
    anchor_seq: Padded<FacadeAtomicUsize>,
    /// One local anchor map per configured thread slot, indexed by
    /// `ctx.id()` (see the module docs).
    local: Box<[LocalSlot<K>]>,
    _values: PhantomData<V>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for BlockedSkipMap<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BlockedSkipMap<K, V> {}

impl<K, V> BlockedSkipMap<K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// Builds a blocked map for `config` with `cap` entry slots per
    /// block. The configuration is forced lazy (see the type docs) and
    /// its `block_bytes` is derived from `cap` and the entry stride.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is outside [`MIN_BLOCK_CAP`]`..=`[`MAX_BLOCK_CAP`],
    /// the entry type is over-aligned (block slots are 8-aligned), or
    /// `config` asks for [`GraphConfig::hash_index`] (the index names one
    /// key per node; no blocked operation publishes to it or probes it).
    pub fn new(config: GraphConfig, cap: usize) -> Self {
        assert!(
            !config.hash_index,
            "BlockedSkipMap with GraphConfig::hash_index(true): a blocked map keeps no hash index"
        );
        assert!(
            (MIN_BLOCK_CAP..=MAX_BLOCK_CAP).contains(&cap),
            "block capacity must be in {MIN_BLOCK_CAP}..={MAX_BLOCK_CAP}"
        );
        assert!(
            std::mem::align_of::<(K, V)>() <= 8,
            "block entries must be at most 8-aligned"
        );
        debug_assert_eq!(std::mem::size_of::<usize>(), 8);
        let config = config
            .lazy(true)
            .block_bytes(block_layout_bytes::<K, V>(cap));
        Self {
            local: (0..config.num_threads)
                .map(|_| Padded(Default::default()))
                .collect(),
            graph: SkipGraph::new(config),
            cap,
            anchor_seq: Padded(FacadeAtomicUsize::new(1)),
            _values: PhantomData,
        }
    }

    /// The inner skip graph (anchors only; entries live in the blocks).
    pub fn shared(&self) -> &SkipGraph<K, ()> {
        &self.graph
    }

    fn anchor_height(&self) -> u8 {
        let cfg = self.graph.config();
        if !cfg.sparse {
            return cfg.max_level;
        }
        let n = self.anchor_seq.0.fetch_add(1);
        (n.trailing_zeros() as u8).min(cfg.max_level)
    }

    #[inline]
    unsafe fn blk(&self, anchor: NonNull<BNode<K>>) -> Blk<K, V> {
        unsafe { Blk::of(anchor, self.cap) }
    }

    /// [`BlockedHandle::insert`] under `ctx`.
    fn insert(&self, key: K, value: V, ctx: &ThreadCtx) -> bool {
        let pin = self.graph.pin(ctx);
        loop {
            let Some(anchor) = self.resolve(&key, &pin, ctx) else {
                if self.link_anchor(key, value, ctx) {
                    return true;
                }
                continue;
            };
            let blk = unsafe { self.blk(anchor) };
            // Claim phase: reserve an unclaimed slot, or freeze a full
            // block and help replace it.
            let mut w = blk.control().load();
            let slot = loop {
                if is_frozen(w) {
                    self.help_split(anchor, ctx);
                    break usize::MAX; // retry from a fresh covering anchor
                }
                let free = !claimed_bits(w) & slot_mask(self.cap);
                if free == 0 {
                    match blk.control().compare_exchange(w, w | FROZEN) {
                        Ok(_) => {
                            self.help_split(anchor, ctx);
                            break usize::MAX;
                        }
                        Err(cur) => {
                            w = cur;
                            continue;
                        }
                    }
                }
                let i = free.trailing_zeros() as usize;
                match blk.control().compare_exchange(w, w | claimed_bit(i)) {
                    Ok(_) => break i,
                    Err(cur) => w = cur,
                }
            };
            if slot == usize::MAX {
                continue;
            }
            // The slot is exclusively ours: write the pair, then publish.
            unsafe { blk.write(slot, (key, value)) };
            let mut w = blk.control().load();
            loop {
                if is_frozen(w) {
                    // The block froze between claim and publish; the claim
                    // dies with it (survivor sets read present bits only).
                    //
                    // Injected bug (maps over sparse towers: the
                    // `blocked_sg` lane; `anchor_blocked_sg`, whose every
                    // anchor is sampled, carries `resolve_read`'s instead,
                    // so each stress lane carries exactly one live fault):
                    // skip the post-split recheck and report success for
                    // an entry that never became present — the lost-insert
                    // window the differential test wall must catch.
                    #[cfg(feature = "bug-injection")]
                    if self.graph.config().sparse {
                        return true;
                    }
                    self.help_split(anchor, ctx);
                    break;
                }
                if let Some(i) = self.scan_present(&blk, w, &key) {
                    debug_assert_ne!(i, slot);
                    // Duplicate: linearized at the load of `w`. Return the
                    // claim so the slot can serve a later writer.
                    loop {
                        if is_frozen(w) {
                            break;
                        }
                        match blk.control().compare_exchange(w, w & !claimed_bit(slot)) {
                            Ok(_) => break,
                            Err(cur) => w = cur,
                        }
                    }
                    return false;
                }
                // Publish: succeeding against an unfrozen word proves the
                // block still covers `key` (coverage invariant), so this
                // CAS linearizes the insert.
                match blk.control().compare_exchange(w, w | present_bit(slot)) {
                    Ok(_) => return true,
                    Err(cur) => w = cur,
                }
            }
        }
    }

    /// [`BlockedHandle::remove`] under `ctx`.
    fn remove(&self, key: &K, ctx: &ThreadCtx) -> bool {
        let pin = self.graph.pin(ctx);
        loop {
            let Some(anchor) = self.resolve(key, &pin, ctx) else {
                return false;
            };
            let blk = unsafe { self.blk(anchor) };
            let mut w = blk.control().load();
            loop {
                if is_frozen(w) {
                    self.help_split(anchor, ctx);
                    break; // retry from a fresh covering anchor
                }
                let Some(i) = self.scan_present(&blk, w, key) else {
                    return false; // linearized at the load of `w`
                };
                // Clear the present bit and keep the claim (slots are
                // write-once; the key stays readable forever).
                let removed = w & !present_bit(i);
                match blk.control().compare_exchange(w, removed) {
                    Ok(_) => {
                        // Emptied the block: freeze it so help_split
                        // unlinks it (the merge path). Losing this CAS
                        // means a writer claimed a slot (or froze it
                        // first) — either way, not ours.
                        if present_bits(removed) == 0
                            && blk
                                .control()
                                .compare_exchange(removed, removed | FROZEN)
                                .is_ok()
                        {
                            self.help_split(anchor, ctx);
                        }
                        return true;
                    }
                    Err(cur) => w = cur,
                }
            }
        }
    }

    /// [`BlockedHandle::get`] under `ctx`.
    fn get(&self, key: &K, ctx: &ThreadCtx) -> Option<V> {
        let pin = self.graph.pin(ctx);
        loop {
            let anchor = self.resolve_read(key, &pin, ctx)?;
            let blk = unsafe { self.blk(anchor) };
            let w = blk.control().load();
            if is_frozen(w) {
                // A frozen snapshot is not linearizable for point reads
                // (the replacement may already hold newer entries): help
                // the split along and retry on the live block.
                self.help_split(anchor, ctx);
                continue;
            }
            // Fast path: probe the sorted prefix laid down when the block
            // was built, then one equality check decides the outcome.
            let n = prefix_len(w);
            if n > 0 {
                if let Some(base) = Self::prefix_probe(&blk, n, key) {
                    if unsafe { blk.key_at(base) } == *key && w & present_bit(base) != 0 {
                        return Some(unsafe { blk.read(base) }.1);
                    }
                }
                // Absent from the prefix, or removed there; a re-insert
                // may still sit in the unsorted tail.
            }
            // Slow path: linear scan of the append region.
            for i in n..self.cap {
                if w & present_bit(i) != 0 && unsafe { blk.key_at(i) } == *key {
                    return Some(unsafe { blk.read(i) }.1);
                }
            }
            return None;
        }
    }

    /// Position of the greatest sorted-prefix key `<= key` (the only slot
    /// that can hold `key`), or `None` when every prefix key exceeds it.
    ///
    /// Branch-free binary search — the halving loop has no
    /// data-dependent branch (the select compiles to a cmov), so the
    /// branch predictor never trains on key order.
    #[inline]
    fn prefix_probe(blk: &Blk<K, V>, n: usize, key: &K) -> Option<usize> {
        let (mut base, mut size) = (0usize, n);
        while size > 1 {
            let half = size / 2;
            let probe = base + half;
            base = if unsafe { blk.key_at(probe) } <= *key {
                probe
            } else {
                base
            };
            size -= half;
        }
        (unsafe { blk.key_at(0) } <= *key).then_some(base)
    }

    /// Index of the present slot holding `key` under control word `w`.
    fn scan_present(&self, blk: &Blk<K, V>, w: usize, key: &K) -> Option<usize> {
        (0..self.cap).find(|&i| w & present_bit(i) != 0 && unsafe { blk.key_at(i) } == *key)
    }

    /// Live entry count (a weak snapshot, like [`SkipGraph::len`]).
    pub fn len(&self, ctx: &ThreadCtx) -> usize {
        self.stats(ctx).entries
    }

    /// Whether the map holds no live entries.
    pub fn is_empty(&self, ctx: &ThreadCtx) -> bool {
        self.len(ctx) == 0
    }

    /// Footprint snapshot: anchors, entries, and bytes per live key.
    pub fn stats(&self, ctx: &ThreadCtx) -> BlockedStats {
        let mut anchors = 0usize;
        let mut entries = 0usize;
        for node in self.graph.walk((0, 0), ctx, |_| None) {
            if !node.load0(&self.graph, ctx).marked() {
                anchors += 1;
                let blk = unsafe { self.blk(node.ptr) };
                entries += present_bits(blk.control().load()).count_ones() as usize;
            }
        }
        let allocated_bytes = self.graph.memory_stats(ctx).allocated_bytes;
        let local_entries: usize = self
            .local
            .iter()
            .map(|slot| slot.0.try_lock().map_or(0, |l| l.map.len()))
            .sum();
        BlockedStats {
            anchors,
            entries,
            allocated_bytes,
            bytes_per_key: if entries == 0 {
                0.0
            } else {
                allocated_bytes as f64 / entries as f64
            },
            local_entries,
            local_bytes: local_entries * std::mem::size_of::<(K, NodeRef<K, ()>)>() * 2,
        }
    }

    /// Quiescent structural check for tests: inner graph invariants, plus
    /// the blocked layer's own — strictly ascending anchor keys, coverage
    /// (non-first blocks hold no key below their anchor, no block holds a
    /// key at or above its successor anchor), no frozen residue, and no
    /// duplicate keys across blocks.
    pub fn check_invariants(&self, ctx: &ThreadCtx) -> Result<(), String>
    where
        K: std::fmt::Debug,
    {
        self.graph.check_invariants()?;
        let mut last_anchor: Option<K> = None;
        let mut last_key: Option<K> = None;
        let mut first_block = true;
        for node in self.graph.walk((0, 0), ctx, |_| None) {
            let w0 = node.load0(&self.graph, ctx);
            if w0.marked() {
                let key = node.key();
                return Err(format!("marked anchor {key:?} still linked at quiescence"));
            }
            let anchor_key = *node.key();
            if last_anchor.is_some_and(|a| a >= anchor_key) {
                return Err(format!("anchor keys not ascending at {anchor_key:?}"));
            }
            last_anchor = Some(anchor_key);
            let blk = unsafe { self.blk(node.ptr) };
            let w = blk.control().load();
            if is_frozen(w) {
                return Err(format!("frozen block {anchor_key:?} at quiescence"));
            }
            if present_bits(w) & !claimed_bits(w) != 0 {
                return Err(format!("present-but-unclaimed slot in {anchor_key:?}"));
            }
            let succ_key: Option<K> = {
                let s = unsafe { &*w0.ptr() };
                s.is_data().then(|| *unsafe { s.key() })
            };
            let mut keys: Vec<K> = (0..self.cap)
                .filter(|&i| w & present_bit(i) != 0)
                .map(|i| unsafe { blk.key_at(i) })
                .collect();
            keys.sort_unstable();
            for k in keys {
                if !first_block && k < anchor_key {
                    return Err(format!("{k:?} below its anchor {anchor_key:?}"));
                }
                if succ_key.is_some_and(|s| k >= s) {
                    return Err(format!("{k:?} not below successor anchor"));
                }
                if last_key.is_some_and(|p| p >= k) {
                    return Err(format!("duplicate or unordered key {k:?}"));
                }
                last_key = Some(k);
            }
            first_block = false;
        }
        Ok(())
    }
}

/// Per-thread handle for a [`BlockedSkipMap`]: carries the thread's
/// recording context. The thread's *local anchor map* — the blocked
/// analogue of the layered design's per-thread local structures — is kept
/// by the map under the context's id (see the module docs), so a handle's
/// point operations and a [`BlockedSkipMap::range`] under its context
/// ([`Self::ctx`]) resolve alike, and a handle registered again for the
/// same id finds the slot as its predecessor left it. The handle is the
/// map's one way to insert, remove and look up.
pub struct BlockedHandle<'g, K, V> {
    map: &'g BlockedSkipMap<K, V>,
    ctx: ThreadCtx,
}

impl<'g, K, V> BlockedHandle<'g, K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// The recording context of this thread.
    pub fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    /// Inserts `key -> value`; `false` if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        self.map.insert(key, value, &self.ctx)
    }

    /// Removes `key`; `false` if it was absent.
    pub fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        self.map.remove(key, &self.ctx)
    }

    /// Looks up `key`, returning its value.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.ctx.record_op();
        self.map.get(key, &self.ctx)
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }
}

impl<K, V> BlockedSkipMap<K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// Registers a thread, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.id()` is outside the configured thread range.
    pub fn register(&self, ctx: ThreadCtx) -> BlockedHandle<'_, K, V> {
        assert!(
            (ctx.id() as usize) < self.graph.config().num_threads,
            "thread id out of range"
        );
        BlockedHandle { map: self, ctx }
    }
}
