//! The shared structure: a lock-free skip graph constrained in height with
//! a NUMA-aware data partitioning scheme.
//!
//! A skip graph is a collection of linked lists: level 0 holds every node
//! (the list "λ"), and each level-`i` list is partitioned into two
//! level-`i+1` lists selected by membership-vector suffixes, so the graph
//! contains `2^i` lists at level `i` and can be viewed as `2^MaxLevel` skip
//! lists sharing their bottom levels. Every search is a skip list search
//! and can start from *any* node's top level.
//!
//! This module implements the structure, the two search procedures of the
//! paper (`lazyRelinkSearch`, Alg. 5, and `retireSearch`, Alg. 8), the
//! relink optimization (a single CAS replaces a whole chain of marked
//! references), and composite insert/remove/contains operations used when
//! the graph is operated without the thread-local layer.

mod arenas;
mod block;
mod iter;
mod ops;
mod range;
mod stats;
#[cfg(test)]
mod tests;

pub use block::{
    BlockPolicy, BlockedHandle, BlockedRangeIter, BlockedSkipMap, BlockedStats, MAX_BLOCK_CAP,
    MIN_BLOCK_CAP,
};
pub use iter::SnapshotIter;
pub use ops::HintChain;
pub use range::{NodeRefHint, RangeIter};
pub use stats::{MemoryStats, StructureStats};

use crate::index::{HashIndex, IndexRead};
use crate::mvec::{list_suffix, membership_vectors};
use crate::node::{Node, MAX_HEIGHT};
use crate::params::GraphConfig;
use crate::prefetch::prefetch_read;
use crate::reclaim::EpochReclaim;
use crate::sync::TagPtr;
use arenas::TowerArenas;
use instrument::ThreadCtx;
use std::cmp::Ordering as CmpOrdering;
use std::ptr::NonNull;

pub(crate) type NodePtr<K, V> = *mut Node<K, V>;

/// Commission-period time source, shared with the epoch-reclamation
/// protocol so one logical clock drives both decisions (see
/// [`crate::reclaim::logical_now`]): deterministic scheduler steps under
/// `--features deterministic` (monotonic, a pure function of the
/// schedule), TSC cycles otherwise.
#[inline]
fn cycles() -> u64 {
    crate::reclaim::logical_now()
}

/// Offset added to a captured generation when the node was already dying
/// (marked at level 0) at capture time: the poisoned value can never
/// validate against the slot's future incarnations, so the reference is
/// permanently stale. (A false revalidation would need exactly `2^31`
/// retirements of the same slot between capture and use — the same
/// wrap-around exposure any 32-bit tag scheme accepts.)
const GEN_POISON: u32 = 1 << 31;

/// Captures the generation identifying the incarnation of `p` that is
/// currently linked. Load order matters: the generation is read *before*
/// the level-0 mark probe. Retirement bumps the generation only after the
/// level-0 mark is set (marking is top-down and the bump follows full
/// unlinking), so observing the cell unmarked *after* the generation load
/// proves the loaded value belongs to the live incarnation — not to a
/// retired one whose slot could be recycled under a different key. A
/// marked observation poisons the capture instead.
///
/// Callers must hold a reclamation pin (nodes reached by a pinned
/// traversal cannot be recycled while the pin lasts; see
/// [`crate::reclaim`]).
fn capture_gen<K, V>(p: NodePtr<K, V>) -> u32 {
    let gen = unsafe { Node::generation_of(NonNull::new_unchecked(p)) };
    if unsafe { &*p }.load_next_raw(0).marked() {
        gen.wrapping_add(GEN_POISON)
    } else {
        gen
    }
}

/// An opaque reference to a shared node, as stored by the thread-local
/// structures. The slot stays dereferenceable for as long as the owning
/// [`SkipGraph`] is alive (arena chunks are never unmapped mid-run), but
/// with reclamation enabled its *contents* may belong to a later
/// incarnation: every dereference goes through the generation check of
/// `NodeRef::node`.
pub struct NodeRef<K, V> {
    pub(crate) ptr: NonNull<Node<K, V>>,
    /// Generation of the node when the reference was captured; retirement
    /// bumps the node's counter, so a stale reference fails validation.
    pub(crate) gen: u32,
}

impl<K, V> NodeRef<K, V> {
    /// Captures a reference to `ptr`, recording the generation of its
    /// current incarnation (see [`capture_gen`] for the load-order
    /// protocol). Must be called under a reclamation pin, on a node the
    /// pinned traversal legitimately reached.
    pub(crate) fn new(ptr: NonNull<Node<K, V>>) -> Self {
        Self {
            ptr,
            gen: capture_gen(ptr.as_ptr()),
        }
    }

    /// The raw pointer, with no generation check. Only for identity
    /// comparisons and for passing to searches *after* [`Self::node`]
    /// validated the reference under the current pin.
    pub(crate) fn as_ptr(&self) -> NodePtr<K, V> {
        self.ptr.as_ptr()
    }

    /// Generation-checked dereference: `Some` while the node has not been
    /// retired since capture. Callers must hold a reclamation pin on the
    /// owning graph: validation proves the incarnation is not yet retired,
    /// and the pin is what then blocks its recycling for as long as the
    /// returned reference is used.
    pub(crate) fn node(&self) -> Option<&Node<K, V>> {
        // The generation word is read through an atomic projection (never
        // through a `&Node`), so probing a slot that is concurrently being
        // reinitialized for a new incarnation is race-free.
        if unsafe { Node::generation_of(self.ptr) } == self.gen {
            Some(unsafe { self.ptr.as_ref() })
        } else {
            None
        }
    }
}

impl<K, V> Clone for NodeRef<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for NodeRef<K, V> {}
impl<K, V> PartialEq for NodeRef<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr == other.ptr && self.gen == other.gen
    }
}
impl<K, V> Eq for NodeRef<K, V> {}
impl<K, V> std::fmt::Debug for NodeRef<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeRef({:p}, gen={})", self.ptr, self.gen)
    }
}

/// Result of a search: per-level predecessors, the captured predecessor
/// references (`middle`), and successors, as in Alg. 5.
pub(crate) struct SearchResult<K, V> {
    pub preds: [NodePtr<K, V>; MAX_HEIGHT],
    pub middles: [TagPtr<Node<K, V>>; MAX_HEIGHT],
    pub succs: [NodePtr<K, V>; MAX_HEIGHT],
    /// Generation of each predecessor's incarnation at capture time
    /// (possibly poisoned; see [`capture_gen`]). Consulted when a *later*
    /// operation adopts the predecessor as a hint — within the search's
    /// own pin the raw pointers are valid as-is.
    pub pred_gens: [u32; MAX_HEIGHT],
    /// `succs[0]` is an unmarked data node with the goal key.
    pub found: bool,
}

impl<K, V> SearchResult<K, V> {
    fn empty() -> Self {
        Self {
            preds: [std::ptr::null_mut(); MAX_HEIGHT],
            middles: [TagPtr::null(); MAX_HEIGHT],
            succs: [std::ptr::null_mut(); MAX_HEIGHT],
            pred_gens: [0; MAX_HEIGHT],
            found: false,
        }
    }
}

/// An RAII reclamation pin (see [`SkipGraph::pin`]). While any guard for a
/// thread is alive, every node its traversals reach is protected from
/// recycling. Inert when reclamation is disabled.
pub(crate) struct PinGuard<'g, K, V> {
    domain: Option<(&'g EpochReclaim<K, V>, usize)>,
}

impl<K, V> Drop for PinGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some((domain, tid)) = self.domain {
            domain.unpin(tid);
        }
    }
}

/// The lock-free skip graph shared structure.
///
/// All operations take an [`instrument::ThreadCtx`] identifying the calling
/// thread (dense id in `0..config.num_threads`); the thread's membership
/// vector — its associated skip list — is derived from the configured
/// [`crate::MembershipStrategy`].
///
/// Nodes are allocated from per-thread NUMA-tagged arenas and reclaimed
/// when the graph is dropped (see the crate docs for why).
pub struct SkipGraph<K, V> {
    config: GraphConfig,
    membership: Box<[u32]>,
    /// Head sentinel of every list, indexed by `head_index(level, suffix)`.
    heads: Box<[NodePtr<K, V>]>,
    /// Per-thread size-class node arenas (index = thread id; class = tower
    /// height).
    arenas: Box<[TowerArenas<K, V>]>,
    /// Sentinel arena bank (owner tag 0, matching the paper's attribution
    /// of head accesses to one arbitrary thread).
    _sentinels: TowerArenas<K, V>,
    /// The epoch-based reclamation domain (inert unless
    /// `GraphConfig::reclaim`): limbo lists, pins, and the global epoch.
    reclaim: EpochReclaim<K, V>,
    /// The shared point-read hash index (`GraphConfig::hash_index`),
    /// installed by the hashed constructors; `None` on plain graphs. See
    /// [`crate::index`] for the coherence protocol.
    index: Option<HashIndex<K, V>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for SkipGraph<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for SkipGraph<K, V> {}

#[inline]
fn head_index(level: u8, suffix: u32) -> usize {
    ((1usize << level) - 1) + suffix as usize
}

impl<K, V> SkipGraph<K, V> {
    /// The configuration the graph was built with.
    pub fn config(&self) -> &GraphConfig {
        &self.config
    }

    /// Nodes allocated per thread arena (monotonic; arenas never shrink).
    ///
    /// Allocates its result; sampling loops should prefer
    /// [`SkipGraph::allocated_nodes`] / [`SkipGraph::memory_stats`].
    pub fn arena_sizes(&self) -> Vec<usize> {
        self.arenas.iter().map(|a| a.allocated()).collect()
    }

    /// Total data nodes ever allocated, across all threads and size
    /// classes. Zero-alloc; safe to call per sample.
    pub fn allocated_nodes(&self) -> usize {
        self.arenas.iter().map(|a| a.allocated()).sum()
    }

    /// Bytes per node the *old* fixed-tower inline layout would spend
    /// (header plus `MAX_HEIGHT - 1` always-present upper slots) — the
    /// baseline the truncated layout is measured against.
    pub fn fixed_tower_node_bytes() -> usize {
        std::mem::size_of::<Node<K, V>>() + Node::<K, V>::tower_bytes(MAX_HEIGHT - 1)
    }
}

impl<K: Ord, V> SkipGraph<K, V> {
    /// Builds an empty skip graph for the given configuration.
    pub fn new(config: GraphConfig) -> Self {
        let membership = membership_vectors(
            config.membership,
            config.num_threads,
            config.max_level,
        )
        .into_boxed_slice();
        // Sentinels go through the same size classes as data nodes (a
        // level-`l` head lands in class `l`, the tail in the top class);
        // chunks are mapped lazily, so unused classes cost nothing.
        let sentinels = TowerArenas::new(
            0,
            256.min(config.chunk_capacity.max(2)),
            config.block_bytes,
        );
        let tail = sentinels.alloc(Node::new_tail()).as_ptr();
        let max = config.max_level;
        let mut heads = vec![std::ptr::null_mut(); head_index(max, 0) + (1 << max)];
        for level in 0..=max {
            for suffix in 0..(1u32 << level) {
                let head = sentinels.alloc(Node::new_head(level, suffix));
                unsafe {
                    head.as_ref().store_next(level as usize, TagPtr::clean(tail));
                }
                heads[head_index(level, suffix)] = head.as_ptr();
            }
        }
        let arenas = (0..config.num_threads)
            .map(|t| TowerArenas::new(t as u16, config.chunk_capacity, config.block_bytes))
            .collect();
        let reclaim = EpochReclaim::new(config.reclaim, config.num_threads);
        Self {
            config,
            membership,
            heads: heads.into_boxed_slice(),
            arenas,
            _sentinels: sentinels,
            reclaim,
            index: None,
        }
    }

    /// Builds an empty skip graph and, when `config.hash_index` is set,
    /// installs the shared point-read hash index (`K: Hash` is needed to
    /// capture the type-erased hasher; plain [`SkipGraph::new`] has no
    /// such bound and always leaves the index off).
    pub fn new_hashed(config: GraphConfig) -> Self
    where
        K: std::hash::Hash,
    {
        let mut graph = Self::new(config);
        if graph.config.hash_index {
            graph.index = Some(HashIndex::new(
                graph.config.num_threads,
                graph.config.index_capacity,
                graph.config.adapt,
            ));
        }
        graph
    }

    /// The shared hash index, if installed.
    pub(crate) fn index(&self) -> Option<&HashIndex<K, V>> {
        self.index.as_ref()
    }

    /// The index's hash of `key`, for the `_hashed` hooks below: a point
    /// operation that probes the index and then publishes into it hashes
    /// its key once. `0` on a plain graph, where those hooks do nothing.
    #[inline]
    pub(crate) fn index_hash(&self, key: &K) -> u64 {
        self.index.as_ref().map_or(0, |idx| idx.hash(key))
    }

    /// Publish-after-link: installs (or refreshes) `node`'s index entry
    /// under its *current* generation. Called after the level-0 link CAS
    /// (or a lazy resurrection) — never before, so a reader that wins the
    /// entry always finds a reachable incarnation. Best-effort: a full
    /// probe window simply leaves the key on the descent path.
    pub(crate) fn index_publish(&self, node: NonNull<Node<K, V>>, ctx: &ThreadCtx) {
        let hash = self.index_hash(unsafe { node.as_ref().key() });
        self.index_publish_hashed(node, hash, ctx);
    }

    /// [`SkipGraph::index_publish`] for a node whose key's
    /// [`SkipGraph::index_hash`] the caller already holds.
    pub(crate) fn index_publish_hashed(&self, node: NonNull<Node<K, V>>, hash: u64, ctx: &ThreadCtx) {
        if let Some(idx) = &self.index {
            let gen = unsafe { Node::generation_of(node) };
            idx.publish_hashed(hash, node, gen, ctx.id() as usize);
        }
    }

    /// Republishes a live node that a search found after the index had no
    /// usable entry for its key (`hash` is the key's
    /// [`SkipGraph::index_hash`]): publishes are best-effort, so an entry
    /// can be lost to a busy slot, a grow or a colliding signature, and
    /// the key would otherwise pay the search on every later operation.
    /// Caller holds a pin and reached `node` through it.
    pub(crate) fn index_heal(&self, node: &Node<K, V>, hash: u64, ctx: &ThreadCtx) {
        let Some(idx) = &self.index else { return };
        let ptr = NonNull::from(node);
        // Generation before the mark probe, as in `capture_gen`: seeing
        // the node unmarked after the load proves the generation is the
        // linked incarnation's, so the entry dies with it.
        let gen = unsafe { Node::generation_of(ptr) };
        if !node.load_next_raw(0).marked() {
            idx.publish_hashed(hash, ptr, gen, ctx.id() as usize);
        }
    }

    /// Bulk publish-after-link for a combiner's sorted run: one pass over
    /// the run's freshly linked nodes (each with its key's
    /// [`SkipGraph::index_hash`], which the combiner's probe computed)
    /// instead of a per-operation publish inside
    /// [`SkipGraph::try_link_level0`]. Each entry is re-validated
    /// under the pin — a node that was marked (or lazily invalidated, or
    /// retired) since its link is skipped; the liveness ladder on the read
    /// side makes a lost race here merely a missed fast path, never a
    /// wrong answer.
    pub(crate) fn index_publish_run(&self, run: &[(NodeRef<K, V>, u64)], ctx: &ThreadCtx) {
        if self.index.is_none() || run.is_empty() {
            return;
        }
        let _pin = self.pin(ctx);
        for (r, hash) in run {
            let Some(node) = r.node() else { continue };
            let w0 = node.load_next(0, ctx);
            if w0.marked() || (self.config.lazy && !w0.valid()) {
                continue;
            }
            self.index_publish_hashed(NonNull::from(node), *hash, ctx);
        }
    }

    /// Invalidate-before-retire: clears any index entry naming `node`
    /// (matched by pointer, so a newer incarnation's entry survives).
    pub(crate) fn index_invalidate(&self, node: &Node<K, V>, ctx: &ThreadCtx) {
        if let Some(idx) = &self.index {
            let tid = ctx.id() as usize;
            idx.invalidate(unsafe { node.key() }, Some(NonNull::from(node)), tid);
        }
    }

    /// Test hook: drops whatever index entry `key` has, the way a lost
    /// publish or a colliding signature does. The index is an accelerator,
    /// so no answer may change.
    #[doc(hidden)]
    pub fn index_evict(&self, key: &K, ctx: &ThreadCtx) {
        if let Some(idx) = &self.index {
            idx.invalidate(key, None, ctx.id() as usize);
        }
    }

    /// Per-NUMA-segment occupancy telemetry for the shared hash index:
    /// entries, capacity, tombstones, and a probe-length histogram per
    /// segment (empty when no index is installed). A weak snapshot meant
    /// for sizing [`GraphConfig::index_capacity`](crate::GraphConfig) —
    /// see [`crate::index::SegmentOccupancy`] for how to read it.
    pub fn index_occupancy(&self) -> Vec<crate::index::SegmentOccupancy> {
        self.index().map_or_else(Vec::new, |i| i.occupancy())
    }

    /// Hash-index segment grows triggered by the windowed probe signal
    /// alone — the adaptive early-growth actuator (see
    /// [`GraphConfig::adapt`](crate::GraphConfig)). Always `0` without an
    /// index or without adaptation.
    pub fn index_probe_grows(&self) -> usize {
        self.index().map_or(0, |i| i.probe_grows())
    }

    /// Consults the hash index for `key`, recording hit/miss/stale
    /// counters. An index hit is a complete one-node "search", so it also
    /// records a search of length 1 (keeping nodes/search honest in the
    /// instrument totals). Returns `None` when no index is installed.
    pub(crate) fn index_read<'g>(
        &'g self,
        key: &K,
        ctx: &ThreadCtx,
    ) -> Option<IndexRead<'g, K, V>> {
        self.index_read_hashed(key, self.index_hash(key), ctx)
    }

    /// [`SkipGraph::index_read`] for a key whose
    /// [`SkipGraph::index_hash`] the caller already holds.
    pub(crate) fn index_read_hashed<'g>(
        &'g self,
        key: &K,
        hash: u64,
        ctx: &ThreadCtx,
    ) -> Option<IndexRead<'g, K, V>> {
        let idx = self.index.as_ref()?;
        let read = idx.read_node(key, hash, self.config.lazy, ctx);
        match &read {
            IndexRead::Hit(_) | IndexRead::Absent(_) => {
                ctx.record_index_hit();
                ctx.record_search(1);
            }
            IndexRead::Stale => ctx.record_index_stale(),
            IndexRead::Miss => ctx.record_index_miss(),
        }
        Some(read)
    }

    /// Pins the calling thread against reclamation for the guard's
    /// lifetime (re-entrant; inert when reclamation is disabled). Every
    /// public operation takes a pin around its traversal; layered handles
    /// take one around local-map validation plus the shared operation, so
    /// a validated [`NodeRef`] stays dereferenceable through the op.
    ///
    /// An outermost pin periodically quiesces first — tries to advance the
    /// global epoch and collects the thread's own limbo list — so
    /// reclamation makes progress without a dedicated maintenance thread.
    pub(crate) fn pin(&self, ctx: &ThreadCtx) -> PinGuard<'_, K, V> {
        if !self.reclaim.enabled() {
            return PinGuard { domain: None };
        }
        let tid = ctx.id() as usize;
        if !self.reclaim.is_pinned(tid) && self.reclaim.op_tick(tid) {
            if self.reclaim.try_advance() {
                ctx.record_epoch_advance();
            }
            let freed = self.reclaim.collect(tid, |p| self.free_node(p));
            if freed > 0 {
                ctx.record_recycle(freed as u64);
            }
        }
        self.reclaim.pin(tid);
        PinGuard {
            domain: Some((&self.reclaim, tid)),
        }
    }

    /// Releases one reclaimed node: drops its payload and parks the slot
    /// on the free list of its size class in the *owning* thread's arena
    /// bank, preserving first-touch NUMA placement.
    ///
    /// Only called from limbo-list collection (grace period passed) or for
    /// never-published nodes.
    fn free_node(&self, node: NonNull<Node<K, V>>) {
        unsafe {
            let owner = node.as_ref().owner() as usize;
            Node::release_payload(node);
            self.arenas[owner].recycle(node);
        }
    }

    /// Walks the frozen chain of marked level-`level` references from
    /// `first` (exclusive of `end`) that a relink CAS just unlinked,
    /// recording the unlink on each node; a node observed unlinked from
    /// *every* level of its tower is retired onto the calling thread's
    /// limbo list. No-op with reclamation disabled.
    ///
    /// Each chain node's level-`level` reference is marked, hence
    /// immutable, so the raw walk is stable; and a successful relink is
    /// the unique event unlinking these nodes at this level (the cell
    /// pointing at each chain node is frozen — only the relinked cell
    /// could still reach them), so per-(node, level) reports never race.
    pub(crate) fn note_unlinked_chain(
        &self,
        first: NodePtr<K, V>,
        end: NodePtr<K, V>,
        level: usize,
        ctx: &ThreadCtx,
    ) {
        if !self.reclaim.enabled() {
            return;
        }
        let mut cur = first;
        while cur != end {
            let node = unsafe { &*cur };
            debug_assert!(node.is_data());
            let w = node.load_next_raw(level);
            debug_assert!(w.marked(), "unlinked chains are frozen");
            if node.note_unlinked(level) {
                // Invalidate-before-retire: the index entry must die
                // before the generation bump inside `retire`, so no
                // window exists where a reader holds a gen-valid entry
                // to a slot that is already in limbo.
                self.index_invalidate(node, ctx);
                // Safety: fully unlinked, reported exactly once (the
                // completing fetch_or), and we are pinned.
                unsafe {
                    self.reclaim
                        .retire(ctx.id() as usize, NonNull::new_unchecked(cur));
                }
                ctx.record_retire();
            }
            cur = w.ptr();
        }
    }

    /// Immediately recycles a node that was allocated but never published
    /// (no grace period needed: no other thread ever saw it). With
    /// reclamation disabled the node is simply left to the arena, matching
    /// the paper's never-free model.
    pub(crate) fn discard_unpublished(&self, node: NonNull<Node<K, V>>, ctx: &ThreadCtx) {
        if !self.reclaim.enabled() {
            return;
        }
        self.free_node(node);
        ctx.record_recycle(1);
    }

    /// Drives reclamation to a fixed point from a quiescent caller: runs
    /// enough epoch advancements to age every current limbo entry past its
    /// grace period and collects every thread's limbo list. Returns the
    /// number of slots recycled. Intended for tests, benchmarks, and
    /// maintenance windows; concurrent pinned threads may block some
    /// advancements (the flush is then merely partial).
    pub fn reclaim_flush(&self, ctx: &ThreadCtx) -> usize {
        if !self.reclaim.enabled() {
            return 0;
        }
        debug_assert!(
            !self.reclaim.is_pinned(ctx.id() as usize),
            "reclaim_flush requires a quiescent caller"
        );
        let mut freed = 0;
        for _ in 0..=crate::reclaim::GRACE_EPOCHS {
            if self.reclaim.try_advance() {
                ctx.record_epoch_advance();
            }
            for tid in 0..self.reclaim.slot_count() {
                freed += self.reclaim.collect(tid, |p| self.free_node(p));
            }
        }
        if freed > 0 {
            ctx.record_recycle(freed as u64);
        }
        freed
    }

    /// The membership vector of a registered thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn membership_of(&self, thread: u16) -> u32 {
        self.membership[thread as usize]
    }

    /// Head of the level-`level` list containing membership vector `mvec`.
    #[inline]
    pub(crate) fn head(&self, level: u8, mvec: u32) -> NodePtr<K, V> {
        self.heads[head_index(level, list_suffix(mvec, level))]
    }

    /// Allocates a data node in the calling thread's arena. The ownership
    /// tag (locality attribution + recycle destination) is the allocating
    /// thread unless the configuration pins the whole structure to one
    /// owner (`owner_tag`, the per-socket replica case).
    pub(crate) fn alloc_node(
        &self,
        key: K,
        value: V,
        ctx: &ThreadCtx,
        top_level: u8,
    ) -> NonNull<Node<K, V>> {
        let mvec = self.membership[ctx.id() as usize];
        let owner = self.config.owner_tag.unwrap_or(ctx.id());
        self.arenas[ctx.id() as usize].alloc(Node::new_data(
            key,
            value,
            mvec,
            owner,
            top_level,
            cycles() as u32,
        ))
    }

    /// Ensures `node.next[level]` is marked (helping; the mark bit is
    /// sticky). Recorded as maintenance CAS traffic.
    pub(crate) fn help_mark(&self, node: &Node<K, V>, level: usize, ctx: &ThreadCtx) {
        let mut spins = 0u64;
        loop {
            spins += 1;
            debug_assert!(spins < 500_000_000, "help_mark livelock at level {level}");
            let w = node.load_next(level, ctx);
            if w.marked() {
                return;
            }
            let _ = node.cas_next(level, w, w.with_mark(), ctx);
        }
    }

    /// Alg. 14, `checkRetire`: if `node` is unmarked, invalid, and its
    /// commission period has expired, start physical removal (Alg. 15,
    /// `retire`). Returns whether the node is now marked at level 0.
    ///
    /// `w0` is a freshly loaded `node.next[0]` word.
    pub(crate) fn check_retire(
        &self,
        node: &Node<K, V>,
        w0: TagPtr<Node<K, V>>,
        ctx: &ThreadCtx,
    ) -> bool {
        debug_assert!(!w0.marked());
        if w0.valid() {
            return false;
        }
        // Timestamps are truncated to 32 bits; comparing the wrapped delta
        // keeps the check sound (truncation can only delay retirement).
        let elapsed = (cycles() as u32).wrapping_sub(node.alloc_ts()) as u64;
        if elapsed <= self.config.commission_cycles {
            return false;
        }
        // retire(): atomically (false, invalid) -> (true, invalid), then
        // mark every upper level top-down.
        match node.cas_next(0, w0, w0.with_mark(), ctx) {
            Ok(()) => {
                for level in (1..=node.top_level() as usize).rev() {
                    self.help_mark(node, level, ctx);
                }
                true
            }
            // An active node is preferably kept unmarked (paper: returning
            // false "has an operational advantage"); report marked only if
            // it actually is.
            Err(w) => w.marked(),
        }
    }

    /// Walks the chain of skippable (logically deleted / level-marked)
    /// nodes starting at `first` in the level-`level` list. Returns the
    /// first non-skippable node and whether any node was skipped.
    ///
    /// Skippability is made *stable* before skipping: a logically deleted
    /// node gets its level-`level` reference help-marked, so every skipped
    /// reference is immutable and a chain can be replaced with one CAS (the
    /// relink optimization).
    fn skip_chain(
        &self,
        first: NodePtr<K, V>,
        level: usize,
        ctx: &ThreadCtx,
        visited: &mut u64,
    ) -> (NodePtr<K, V>, bool) {
        let mut cur = first;
        let mut advanced = false;
        let mut spins = 0u64;
        loop {
            spins += 1;
            debug_assert!(spins < 500_000_000, "skip_chain livelock at level {level}");
            let node = unsafe { &*cur };
            if !node.is_data() {
                return (cur, advanced); // tail (or a head, which never appears mid-list)
            }
            let w = node.load_next(level, ctx);
            // Pull the successor's header line in while we finish deciding
            // whether `node` is skippable (mark checks / retire below).
            prefetch_read(w.ptr());
            if w.marked() {
                *visited += 1;
                cur = w.ptr();
                advanced = true;
                continue;
            }
            let w0 = if level == 0 {
                w
            } else {
                node.load_next(0, ctx)
            };
            let gone = w0.marked()
                || (self.config.lazy && self.check_retire(node, w0, ctx));
            if !gone {
                return (cur, advanced);
            }
            // Logically deleted: freeze this level, then hop over.
            self.help_mark(node, level, ctx);
            *visited += 1;
            cur = node.load_next(level, ctx).ptr();
            advanced = true;
        }
    }

    /// The search procedure (Alg. 5 / Alg. 8 unified).
    ///
    /// * `mvec` selects which lists to traverse at levels above 0.
    /// * `start`: a node to jump in from (its key must be `<= key`); `None`
    ///   starts from the head of the level-`MaxLevel` list of `mvec`.
    /// * `unlink`: physically remove chains of marked references as they
    ///   are traversed (non-lazy mode; the lazy variant leaves chains to be
    ///   replaced by inserting nodes).
    ///
    /// When `key` names a node that is marked at every level (a frozen
    /// block's anchor searching for itself, `unlink = false`), that node is
    /// skipped like any other dead one and the result is the frontier
    /// *around* it: at each level `preds[l]` is the last node below `key`
    /// that was alive when the walk stood on it, `middles[l]` the reference
    /// it held then, and `succs[l]` the first live node at or above `key` —
    /// so if the dead node is still linked at level `l` it lies on the
    /// frozen chain of marked references from `middles[l]` to `succs[l]`,
    /// and the reference naming it belongs to `preds[l]` or to a dead node
    /// on that chain. [`SkipGraph::carried_pred`] is how a caller that
    /// walks on from such a frontier later takes `preds[l]` back out.
    pub(crate) fn search_from(
        &self,
        key: &K,
        mvec: u32,
        start: Option<NodePtr<K, V>>,
        unlink: bool,
        ctx: &ThreadCtx,
    ) -> SearchResult<K, V> {
        let mut visited = 0u64;
        let (mut prev, top) = match start {
            Some(p) => (p, unsafe { &*p }.top_level() as usize),
            None => (
                self.head(self.config.max_level, mvec),
                self.config.max_level as usize,
            ),
        };
        let mut res = SearchResult::empty();
        for level in (0..=top).rev() {
            // A head is per-(level, suffix): switch entry points as we
            // descend. Data-node predecessors belong to all lower lists.
            if unsafe { &*prev }.is_head() {
                prev = self.head(level as u8, mvec);
            }
            let mut spins = 0u64;
            loop {
                spins += 1;
                debug_assert!(spins < 500_000_000, "search_from livelock at level {level}");
                let prev_ref = unsafe { &*prev };
                let mut middle = prev_ref.load_next(level, ctx);
                // Overlap the successor's line transfer with the null /
                // mark bookkeeping before we dereference it.
                prefetch_read(middle.ptr());
                if middle.ptr().is_null() {
                    // `prev` can only be a start node that was never linked
                    // at this level: a partially-linked node whose
                    // finishInsert aborted (Alg. 10 marks it `inserted` so
                    // nobody retries) can be handed out by getStart during
                    // the transient window where its upper levels are
                    // marked but level 0 is not. Re-enter from the head.
                    prev = self.head(level as u8, mvec);
                    continue;
                }
                let (succ, skipped) = self.skip_chain(middle.ptr(), level, ctx, &mut visited);
                if skipped && unlink && !middle.marked() {
                    // Relink: one CAS snips the whole marked chain.
                    match prev_ref.cas_next(level, middle, middle.with_ptr(succ), ctx) {
                        Ok(()) => {
                            self.note_unlinked_chain(middle.ptr(), succ, level, ctx);
                            middle = middle.with_ptr(succ)
                        }
                        Err(_) => continue, // re-read this level from prev
                    }
                }
                let succ_ref = unsafe { &*succ };
                visited += 1;
                if succ_ref.cmp_key(key) == CmpOrdering::Less {
                    prev = succ;
                    continue;
                }
                res.preds[level] = prev;
                res.middles[level] = middle;
                res.succs[level] = succ;
                if self.reclaim.enabled() {
                    res.pred_gens[level] = capture_gen(prev);
                }
                break;
            }
        }
        let s0 = unsafe { &*res.succs[0] };
        res.found = s0.is_data() && s0.cmp_key(key) == CmpOrdering::Equal && !s0.is_marked(0);
        ctx.record_search(visited);
        res
    }

    /// Like [`SkipGraph::search_from`], but resumes from the predecessor
    /// frontier of a *previous* search (sorted-run hint chaining): at every
    /// level the walk starts from whichever is furthest along — the
    /// carried-down predecessor, the hint's predecessor for that level, or
    /// `start` (a local-map jump-in node, key strictly below `key`) — so a
    /// run of ascending keys costs one full traversal plus short hops, and
    /// an op whose key is far past the frontier jumps via its local-map
    /// start instead of walking the gap. (The skip graph is only
    /// `MaxLevel ≈ log2(threads)` levels deep — the layered local maps, not
    /// the levels, provide the logarithmic jump; a hinted run without
    /// starts degrades to walking the whole key gap at the top level.)
    ///
    /// Correctness relies on three properties:
    ///
    /// * the hint must come from a search *on this graph* for a key `<=
    ///   key`; its predecessors are strictly below that key, hence strictly
    ///   below `key`, so adopting one can never overshoot (this also covers
    ///   duplicate keys in a batch — the frontier stops strictly before the
    ///   key, at the cost of one extra hop);
    /// * a stale hint predecessor stays dereferenceable: without
    ///   reclamation nodes are never freed mid-run; with it, the per-level
    ///   generation gate rejects retired predecessors and the caller's pin
    ///   keeps every accepted one from being recycled. If the pred was
    ///   merely removed meanwhile, its frozen next pointers still lead to
    ///   the live region and [`Self::skip_chain`] walks over the marked
    ///   chain as usual;
    /// * a search may start from *any* node's top level (the skip-graph
    ///   property), so hint predecessors allocated under a different
    ///   membership vector than `mvec` are still valid entry points.
    pub(crate) fn search_hinted(
        &self,
        key: &K,
        mvec: u32,
        start: Option<NodePtr<K, V>>,
        hint: Option<&SearchResult<K, V>>,
        unlink: bool,
        ctx: &ThreadCtx,
    ) -> SearchResult<K, V> {
        let mut visited = 0u64;
        let top = self.config.max_level as usize;
        let mut prev = self.head(self.config.max_level, mvec);
        let mut res = SearchResult::empty();
        for level in (0..=top).rev() {
            if unsafe { &*prev }.is_head() {
                prev = self.head(level as u8, mvec);
            }
            // Local-map jump: adopt the start node at its topmost level
            // when it is further along than the carried-down predecessor
            // (once adopted, the carried prev stays at or past it). Same
            // marked-reference gate as hint adoption below.
            if let Some(sp) = start {
                let s_ref = unsafe { &*sp };
                if level <= s_ref.top_level() as usize
                    && s_ref.is_data()
                    && !s_ref.load_next(level, ctx).marked()
                {
                    let prev_ref = unsafe { &*prev };
                    if prev_ref.is_head() || unsafe { s_ref.key() > prev_ref.key() } {
                        prev = sp;
                    }
                }
            }
            // Hint jump: adopt the previous search's predecessor for this
            // level when it is further along than the carried-down one.
            // A predecessor whose level reference is already marked is
            // NOT adopted: marked references are immutable, so a linking
            // caller could never CAS through it, and (lazy mode never
            // unlinking it) retrying with the same hint would re-adopt it
            // forever — the fresh-descent path skips it instead. With
            // reclamation on, a generation gate comes first: a pred
            // retired since the hint's search (its slot possibly recycled
            // under a different key) fails the check and the fresh-descent
            // frontier stands in.
            if let Some(h) = hint {
                let hp = h.preds[level];
                if !hp.is_null()
                    && (!self.reclaim.enabled()
                        || unsafe { Node::generation_of(NonNull::new_unchecked(hp)) }
                            == h.pred_gens[level])
                {
                    let hp_ref = unsafe { &*hp };
                    if hp_ref.is_data() && !hp_ref.load_next(level, ctx).marked() {
                        let prev_ref = unsafe { &*prev };
                        if prev_ref.is_head()
                            || unsafe { hp_ref.key() > prev_ref.key() }
                        {
                            prev = hp;
                        }
                    }
                }
            }
            let mut spins = 0u64;
            loop {
                spins += 1;
                debug_assert!(spins < 500_000_000, "search_hinted livelock at level {level}");
                let prev_ref = unsafe { &*prev };
                let mut middle = prev_ref.load_next(level, ctx);
                prefetch_read(middle.ptr());
                if middle.ptr().is_null() {
                    // Same transient as in `search_from`: a hint node whose
                    // upper levels were never linked. Re-enter from the head.
                    prev = self.head(level as u8, mvec);
                    continue;
                }
                let (succ, skipped) = self.skip_chain(middle.ptr(), level, ctx, &mut visited);
                if skipped && unlink && !middle.marked() {
                    match prev_ref.cas_next(level, middle, middle.with_ptr(succ), ctx) {
                        Ok(()) => {
                            self.note_unlinked_chain(middle.ptr(), succ, level, ctx);
                            middle = middle.with_ptr(succ)
                        }
                        Err(_) => continue,
                    }
                }
                let succ_ref = unsafe { &*succ };
                visited += 1;
                if succ_ref.cmp_key(key) == CmpOrdering::Less {
                    prev = succ;
                    continue;
                }
                res.preds[level] = prev;
                res.middles[level] = middle;
                res.succs[level] = succ;
                if self.reclaim.enabled() {
                    res.pred_gens[level] = capture_gen(prev);
                }
                break;
            }
        }
        let s0 = unsafe { &*res.succs[0] };
        res.found = s0.is_data() && s0.cmp_key(key) == CmpOrdering::Equal && !s0.is_marked(0);
        ctx.record_search(visited);
        if hint.is_some() {
            ctx.record_hinted_search(visited);
        }
        res
    }

    /// The predecessor `res` carries for `level`, for a caller that walks
    /// on from the search's frontier under the pin the search ran under —
    /// or `None` if that node was retired since (or was already dying when
    /// the search captured it): it is off every list, so only a fresh
    /// search will do. A predecessor that merely *died* since is returned;
    /// its frozen references still lead forward into the live list.
    pub(crate) fn carried_pred(
        &self,
        res: &SearchResult<K, V>,
        level: usize,
    ) -> Option<NodePtr<K, V>> {
        let p = NonNull::new(res.preds[level])?;
        // SAFETY: a search of this graph put `p` there, so it is an arena slot.
        let live =
            !self.reclaim.enabled() || unsafe { Node::generation_of(p) } == res.pred_gens[level];
        live.then_some(p.as_ptr())
    }

    /// Number of data nodes currently linked (unmarked, and valid under the
    /// lazy protocol) in the bottom list. O(n); test/diagnostic use.
    pub fn len(&self, ctx: &ThreadCtx) -> usize {
        self.iter_snapshot(ctx).count()
    }

    /// True when [`SkipGraph::len`] is zero.
    pub fn is_empty(&self, ctx: &ThreadCtx) -> bool {
        self.len(ctx) == 0
    }

    /// Structural invariant check, used by tests: the bottom list is
    /// strictly sorted, every upper-level list is a sub-sequence of the
    /// bottom list restricted to matching suffixes, and every list ends at
    /// the tail. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String>
    where
        K: std::fmt::Debug,
    {
        for level in 0..=self.config.max_level {
            for suffix in 0..(1u32 << level) {
                let mut p = self.heads[head_index(level, suffix)];
                let mut last_key: Option<&K> = None;
                loop {
                    let node = unsafe { &*p };
                    let next = node.load_next_raw(level as usize).ptr();
                    if next.is_null() {
                        return Err(format!("level {level}/{suffix}: null next"));
                    }
                    let n = unsafe { &*next };
                    if n.is_tail() {
                        break;
                    }
                    if !n.is_data() {
                        return Err(format!("level {level}/{suffix}: non-data interior"));
                    }
                    let k = unsafe { n.key() };
                    if let Some(prev_k) = last_key {
                        if prev_k >= k {
                            return Err(format!(
                                "level {level}/{suffix}: order violation at {k:?}"
                            ));
                        }
                    }
                    last_key = Some(k);
                    if level > 0 {
                        if list_suffix(n.mvec(), level) != suffix {
                            return Err(format!(
                                "level {level}/{suffix}: foreign mvec {:b}",
                                n.mvec()
                            ));
                        }
                        if n.top_level() < level {
                            return Err(format!(
                                "level {level}/{suffix}: node above its top level"
                            ));
                        }
                    }
                    p = next;
                }
            }
        }
        Ok(())
    }
}

impl<K, V> std::fmt::Debug for SkipGraph<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SkipGraph")
            .field("config", &self.config)
            .finish()
    }
}
