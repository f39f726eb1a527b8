//! The layered structure: per-thread sequential maps over the shared skip
//! graph (the paper's primary contribution).
//!
//! [`LayeredMap`] owns the shared structure; each participating thread
//! registers once and receives a [`LayeredHandle`], which owns the thread's
//! *local structures* — an ordered [`LocalMap`] (default
//! [`BTreeLocalMap`]) behind one hash layer consulted first — plus the
//! recording [`ThreadCtx`]. The hash layer is the paper's per-thread
//! [`RobinHoodMap`] on a plain graph and the shared [`crate::index`] when
//! the graph has one ([`GraphConfig::hash_index`]): the index names every
//! thread's keys, so a table that can only name the handle's own would be
//! a second probe and a second structure to maintain for no further hits.
//!
//! The handle implements the paper's algorithms:
//!
//! * insert — Alg. 1 (hash-layer fast path + `insertHelper`) and Alg. 3
//!   (`lazyInsert`) under the lazy configuration, or the eager all-levels
//!   insertion otherwise;
//! * remove — Alg. 11/12/13;
//! * contains — Alg. 6/7;
//! * `getStart` — Alg. 4 (backward traversal, finishing pending insertions
//!   via `finishInsert`, Alg. 10) and `updateStart` — Alg. 9.
//!
//! # Example
//!
//! ```
//! use skipgraph::{GraphConfig, LayeredMap};
//! use instrument::ThreadCtx;
//!
//! let map: LayeredMap<u64, &str> = LayeredMap::new(GraphConfig::new(2).lazy(true));
//! let mut h = map.register(ThreadCtx::plain(0));
//! assert!(h.insert(7, "seven"));
//! assert!(h.contains(&7));
//! assert!(h.remove(&7));
//! assert!(!h.contains(&7));
//! ```

use crate::batch::{BatchConfig, BatchExecutor, BatchOp, BatchOutcome, CombinerTarget};
use crate::graph::{HintChain, NodePtr, NodeRef, NodeRefHint, RangeIter, SkipGraph};
use crate::index::IndexRead;
use crate::local::{BTreeLocalMap, LocalMap, RobinHoodMap};
use crate::node::Node;
use crate::params::GraphConfig;
use crate::sparse_height;
use instrument::ThreadCtx;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hash::Hash;
use std::ops::ControlFlow::{self, Break, Continue};
use std::ptr::NonNull;

/// A concurrent ordered map built by layering thread-local maps over a
/// NUMA-partitioned skip graph.
pub struct LayeredMap<K, V> {
    shared: SkipGraph<K, V>,
    /// Present when the map was built with [`LayeredMap::with_batching`]:
    /// the per-socket flat-combining executor that [`CombiningHandle`]s
    /// publish to.
    batch: Option<BatchExecutor<K, V>>,
}

impl<K: Ord, V> LayeredMap<K, V> {
    /// Builds the map for a [`GraphConfig`]. Handle registration needs
    /// `K: Hash` anyway (the handle's hash layer), so the bound here is
    /// free — and it lets `GraphConfig::hash_index` install the shared
    /// point-read index.
    pub fn new(config: GraphConfig) -> Self
    where
        K: Hash,
    {
        Self {
            shared: SkipGraph::new_hashed(config),
            batch: None,
        }
    }

    /// Builds the map with the NUMA-local flat-combining executor attached
    /// (`batch.threads()` must equal `config.num_threads`). Threads opt
    /// into combining per handle via [`LayeredMap::register_combining`];
    /// plain [`LayeredMap::register`] handles keep operating directly.
    pub fn with_batching(config: GraphConfig, batch: BatchConfig) -> Self
    where
        K: Hash,
    {
        assert_eq!(
            batch.threads(),
            config.num_threads,
            "batch config must cover exactly the registered threads"
        );
        let mut map = Self::new(config);
        map.batch = Some(BatchExecutor::new(&batch));
        map
    }

    /// The underlying shared structure.
    pub fn shared(&self) -> &SkipGraph<K, V> {
        &self.shared
    }

    /// The configuration the map was built with.
    pub fn config(&self) -> &GraphConfig {
        self.shared.config()
    }

    /// Builds the map and loads it with `pairs` through thread slot 0
    /// (single-threaded; a convenience for tests and cold starts). Every
    /// loaded node is allocated from **slot 0's arena** — NUMA-local for
    /// whichever socket runs the load, remote for readers elsewhere until
    /// their own updates migrate hot keys.
    ///
    /// The load runs as one sorted hint-chained run
    /// ([`LayeredHandle::extend`]): each insertion resumes from its
    /// predecessor's frontier, so loading `n` pairs costs one full
    /// traversal plus O(n) short hops instead of `n` independent searches.
    pub fn bulk_load<I>(config: GraphConfig, pairs: I) -> Self
    where
        K: Hash + Clone,
        I: IntoIterator<Item = (K, V)>,
    {
        let map = Self::new(config);
        {
            let mut h = map.register(ThreadCtx::plain(0));
            let _ = h.extend(pairs);
        }
        map
    }

    /// Rebuilds the map into a fresh structure containing a snapshot of
    /// the live entries, releasing all arena memory held by dead nodes.
    ///
    /// Shared nodes are arena-allocated and never freed mid-run (the
    /// paper's memory model), so long removal-heavy runs grow memory
    /// monotonically; periodic quiescent-point compaction is the
    /// operational counterpart. The caller must guarantee quiescence: the
    /// snapshot is a weak one, and handles to the *old* map keep operating
    /// on the old structure.
    ///
    /// Like [`LayeredMap::bulk_load`] (which implements the rebuild), every
    /// rebuilt node lands in **slot 0's arena** regardless of which arena
    /// owned it before — rebuilding trades the old map's accumulated NUMA
    /// placement for compactness, and threads re-warm locality through
    /// their own subsequent updates. The snapshot iterates in key order, so
    /// the reload is a single sorted hint-chained run (O(n) short hops).
    pub fn rebuild(&self) -> Self
    where
        K: Hash + Clone,
        V: Clone,
    {
        let ctx = ThreadCtx::plain(0);
        Self::bulk_load(
            self.config().clone(),
            self.shared
                .iter_snapshot(&ctx)
                .map(|(k, v)| (k.clone(), v.clone())),
        )
    }

    /// Registers the calling thread, using the default
    /// ([`BTreeLocalMap`]) ordered local structure.
    ///
    /// `ctx.id()` must be a dense id below `config.num_threads`, unique per
    /// live handle.
    pub fn register(&self, ctx: ThreadCtx) -> LayeredHandle<'_, K, V>
    where
        K: Hash + Clone,
    {
        self.register_with_local(ctx, BTreeLocalMap::default())
    }

    /// Registers the calling thread with a user-provided ordered local
    /// structure (the layer is generic in the paper's sense: any sequential
    /// navigable map works).
    pub fn register_with_local<L>(&self, ctx: ThreadCtx, local: L) -> LayeredHandle<'_, K, V, L>
    where
        K: Hash + Clone,
        L: LocalMap<K, NodeRef<K, V>>,
    {
        assert!(
            (ctx.id() as usize) < self.config().num_threads,
            "thread id {} out of range (num_threads = {})",
            ctx.id(),
            self.config().num_threads
        );
        let mvec = self.shared.membership_of(ctx.id());
        let seed = 0x5ee0_dead_beef_u64 ^ (ctx.id() as u64) << 32;
        LayeredHandle {
            map: self,
            mvec,
            local,
            hash: self.shared.index().is_none().then(RobinHoodMap::new),
            tombstones: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            ctx,
        }
    }

    /// Registers the calling thread for *combined* execution: the returned
    /// handle publishes every shared-structure operation to its socket's
    /// flat-combining slot bank instead of executing it directly.
    ///
    /// # Panics
    ///
    /// Panics if the map was built without [`LayeredMap::with_batching`].
    pub fn register_combining(&self, ctx: ThreadCtx) -> CombiningHandle<'_, K, V>
    where
        K: Hash + Clone,
    {
        let exec = self
            .batch
            .as_ref()
            .expect("register_combining requires LayeredMap::with_batching");
        CombiningHandle {
            inner: self.register(ctx),
            exec,
        }
    }
}

impl<K, V> std::fmt::Debug for LayeredMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredMap")
            .field("config", self.shared.config())
            .finish()
    }
}

/// A per-thread handle to a [`LayeredMap`]. Not `Send`: it owns the
/// thread's local structures.
pub struct LayeredHandle<'m, K, V, L = BTreeLocalMap<K, NodeRef<K, V>>> {
    map: &'m LayeredMap<K, V>,
    ctx: ThreadCtx,
    mvec: u32,
    local: L,
    /// The paper's table in front of `local`, kept only on a graph without
    /// a shared hash index: an indexed handle's hash layer is the index.
    hash: Option<RobinHoodMap<K, NodeRef<K, V>>>,
    /// Keys whose `local` mapping is a tombstoned hint (see
    /// [`LayeredHandle::tombstone_local`]).
    tombstones: Vec<K>,
    rng: SmallRng,
}

/// What a point operation does with a node its local structures (or the
/// index) hold for the key: the operation's outcome, or `None` when the
/// node is marked — the caller erases its mapping and searches.
type OnHolder<'m, H, K, V, T> = fn(&mut H, &K, &'m Node<K, V>) -> Option<T>;

impl<'m, K, V, L> LayeredHandle<'m, K, V, L>
where
    K: Ord + Hash + Clone,
    L: LocalMap<K, NodeRef<K, V>>,
{
    /// The recording context of this thread.
    pub fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    /// This thread's membership vector.
    pub fn membership(&self) -> u32 {
        self.mvec
    }

    /// Entries currently held by the thread-local ordered structure
    /// (diagnostics; the paper's sparse variant keeps this small).
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Entries held by the thread-local hashtable, or `None` when the
    /// handle has none because the graph's shared hash index stands in
    /// (diagnostics).
    pub fn local_hash_len(&self) -> Option<usize> {
        self.hash.as_ref().map(|table| table.len())
    }

    fn lazy(&self) -> bool {
        self.map.config().lazy
    }

    fn sparse(&self) -> bool {
        self.map.config().sparse
    }

    fn max_level(&self) -> u8 {
        self.map.config().max_level
    }

    /// Tower height for a new node: `MaxLevel` normally; geometric with
    /// p = 1/2 under the sparse configuration.
    fn new_height(&mut self) -> u8 {
        let max = self.max_level();
        if self.sparse() {
            sparse_height(&mut self.rng, max)
        } else {
            max
        }
    }

    /// Whether a freshly inserted node should be indexed by the local
    /// structures. Non-lazy sparse graphs index only nodes that reached the
    /// top level (the paper: "only elements that reach the top level are
    /// added to the local structures"); the lazy protocol needs every node
    /// locally indexed so pending insertions can be finished.
    fn should_index(&self, height: u8) -> bool {
        self.lazy() || !self.sparse() || height == self.max_level()
    }

    /// Maps `key` to its live shared node in the local structures.
    fn index_local(&mut self, key: K, r: NodeRef<K, V>) {
        self.forget_tombstone(&key);
        if let Some(table) = &mut self.hash {
            table.insert(key.clone(), r);
        }
        self.local.insert(key, r);
    }

    fn erase_local(&mut self, key: &K) {
        self.forget_tombstone(key);
        self.local.remove(key);
        if let Some(table) = &mut self.hash {
            table.remove(key);
        }
    }

    /// `key`'s mapping (if any) is no tombstone any more: it was erased
    /// or is being replaced by a live one.
    fn forget_tombstone(&mut self, key: &K) {
        if let Some(i) = self.tombstones.iter().position(|k| k == key) {
            self.tombstones.swap_remove(i);
        }
    }

    /// Retains a *tombstoned* hint after a non-lazy removal: maps the
    /// removed key to the removed position's surviving predecessor, so
    /// later operations near the erased key still jump into the shared
    /// structure instead of degrading to head starts (the C3 artifact in
    /// EXPERIMENTS.md: removal-heavy non-lazy runs used to empty the local
    /// maps). Only the ordered local map gets the tombstone — the hash
    /// layer answers membership directly and must stay exact. The
    /// invariant `node.key <= mapped key` (equality for live entries,
    /// strict for tombstones) keeps `get_start`/`prev_start` sound: a
    /// start returned for a lookup of `k` always has key `<= k`, and
    /// marked tombstone targets self-clean on the next backward walk.
    ///
    /// Only predecessors carrying **this thread's membership vector** are
    /// retained: a start node's upper-level lists are selected by *its*
    /// mvec prefix, and `eager_insert` links new towers through the
    /// predecessors a start-based search collects — a foreign-mvec start
    /// would splice the tower into another thread's constituent lists.
    /// (The local structures previously only ever held self-inserted
    /// nodes, which guaranteed this implicitly.)
    /// Tombstones are **budgeted**: the handle keeps the keys currently
    /// mapped to one (`index_local` and `erase_local` strike a key off),
    /// and installation stops once `TOMBSTONE_BUDGET` are held —
    /// churn-heavy runs otherwise fill the ordered map with hints whose
    /// targets are already dead (each backward walk must test and skip
    /// them), which measurably outweighs the better starts. A small
    /// bounded pool is enough to keep the map from emptying out, which is
    /// all C3 needs.
    fn tombstone_local(&mut self, key: &K, pred: NodeRef<K, V>) {
        const TOMBSTONE_BUDGET: usize = 64;
        if self.tombstones.len() >= TOMBSTONE_BUDGET {
            return;
        }
        // Generation-validated under the caller's pin: a predecessor that
        // was retired (or whose slot was recycled) since its generation was
        // captured is silently dropped rather than installed as a hint.
        let Some(node) = pred.node() else { return };
        if !node.is_data() || node.mvec() != self.mvec || node.is_marked(0) {
            return;
        }
        if !self.tombstones.contains(key) {
            self.tombstones.push(key.clone());
        }
        self.local.insert(key.clone(), pred);
    }

    /// Wraps a search's level-0 predecessor frontier (pointer + captured
    /// generation) for [`LayeredHandle::tombstone_local`]. Returns `None`
    /// for the null pointer of an empty [`SearchResult`].
    fn frontier_ref(pred: NodePtr<K, V>, gen: u32) -> Option<NodeRef<K, V>> {
        NonNull::new(pred).map(|ptr| NodeRef { ptr, gen })
    }

    /// Alg. 9, `updateStart`: the closest preceding *fully inserted* start
    /// candidate strictly before `key`, without finishing insertions or
    /// erasing stale entries. `min_top` filters to nodes tall enough for the
    /// caller (a search started from a node only fills levels up to its top,
    /// so linking a height-`h` node needs a start of at least that height).
    fn prev_start(&self, key: &K, min_top: u8) -> Option<NodePtr<K, V>> {
        let mut cursor = key.clone();
        loop {
            let (k, r) = self.local.pred(&cursor)?;
            // Generation check under the caller's pin: a stale reference
            // (slot retired or recycled since capture) is stepped over —
            // `get_start` erases such entries on its next walk.
            let usable = r.node().map_or(false, |node| {
                node.is_inserted()
                    && node.top_level() >= min_top
                    && (!node.is_marked(0) || !node.is_marked(node.top_level() as usize))
            });
            if usable {
                return Some(r.as_ptr());
            }
            cursor = k.clone();
        }
    }

    /// Alg. 4, `getStart`: the closest preceding usable start node. Walks
    /// the local structure backwards, erasing mappings to marked nodes and
    /// finishing pending insertions (Alg. 10) along the way.
    fn get_start(&mut self, key: &K, min_top: u8) -> Option<NodePtr<K, V>> {
        let mut probe = self
            .local
            .max_lower_equal(key)
            .map(|(k, r)| (k.clone(), r));
        while let Some((k, r)) = probe {
            let Some(node) = r.node() else {
                // The slot was retired (possibly recycled for a different
                // key) since the reference was captured: erase the stale
                // mapping and keep walking backwards.
                self.erase_local(&k);
                probe = self.local.pred(&k).map(|(k2, r2)| (k2.clone(), r2));
                continue;
            };
            let mark0 = node.is_marked(0);
            let mark_top = node.is_marked(node.top_level() as usize);
            if !mark0 || !mark_top {
                if node.is_inserted() {
                    if node.top_level() >= min_top {
                        return Some(r.as_ptr()); // found fully inserted
                    }
                    // Alive but too short to start from: step back.
                } else {
                    // Try to complete the pending insertion.
                    let shared = &self.map.shared;
                    let top = node.top_level();
                    let start2 = self.prev_start(&k, top);
                    let mut res = shared.search_from(&k, self.mvec, start2, false, &self.ctx);
                    let finished = res.found
                        && res.succs[0] == r.as_ptr()
                        && shared.link_upper(r.ptr, &mut res, &self.ctx, || {
                            self.prev_start(&k, top)
                        });
                    if finished {
                        if node.top_level() >= min_top {
                            return Some(r.as_ptr()); // just fully inserted
                        }
                    } else {
                        self.erase_local(&k); // insertion could not complete
                    }
                }
            } else {
                self.erase_local(&k); // marked: clean the stale mapping
            }
            probe = self.local.pred(&k).map(|(k2, r2)| (k2.clone(), r2));
        }
        None
    }

    /// The node the local hashtable holds for `key` (none on an indexed
    /// handle, which has no table). A stale mapping is erased here.
    fn table_holder(&mut self, key: &K) -> Option<&'m Node<K, V>> {
        let r = *self.hash.as_ref()?.get(key)?;
        if r.node().is_none() {
            self.erase_local(key);
            return None;
        }
        // SAFETY: generation-validated just above under the caller's pin,
        // and the slot lives in the map's arenas, which outlive the handle.
        Some(unsafe { &*r.as_ptr() })
    }

    /// The hash layer's fast path (Alg. 1 / 6 / 11): offers the node the
    /// layer holds for `key` to `on_holder`. On an indexed graph the layer
    /// is one probe of the shared index under `hash`, the key's
    /// [`SkipGraph::index_hash`] — the unique (lazy) holder whether valid
    /// or logically deleted, exactly what a table hit hands the helpers;
    /// otherwise it is the local table.
    fn hash_layer<T>(
        &mut self,
        key: &K,
        hash: u64,
        on_holder: OnHolder<'m, Self, K, V, T>,
    ) -> Option<T> {
        let node = if self.hash.is_some() {
            self.table_holder(key)?
        } else {
            match self.map.shared.index_read_hashed(key, hash, &self.ctx)? {
                IndexRead::Hit(node) | IndexRead::Absent(node) => node,
                IndexRead::Miss | IndexRead::Stale => return None,
            }
        };
        let outcome = on_holder(self, key, node);
        if outcome.is_none() {
            self.erase_local(key); // marked: fall through to the search
        }
        outcome
    }

    /// `getStart` for a point operation on `key`: `Continue(start)` with a
    /// start strictly before `key`, or `Break(outcome)`. The greatest
    /// local mapping `<= key` can be the key's own node: a key this thread
    /// inserted whose hash-layer entry is gone (an index publish dropped by
    /// a busy slot or a grow, an entry overwritten by a colliding
    /// signature). A search started *at* that node would step over it and
    /// report the key absent, so the node is offered to `on_holder` as the
    /// hit the hash layer would have been (and, still linked afterwards,
    /// is published again under `hash`); if it turns out marked its
    /// mapping is erased and the walk repeats.
    fn start_for<T>(
        &mut self,
        key: &K,
        hash: u64,
        min_top: u8,
        on_holder: OnHolder<'m, Self, K, V, T>,
    ) -> ControlFlow<T, Option<NodePtr<K, V>>> {
        loop {
            let start = self.get_start(key, min_top);
            let Some(p) = start else { return Continue(None) };
            // SAFETY: `get_start` validated the reference under the
            // caller's pin; local structures only map to data nodes.
            let node: &'m Node<K, V> = unsafe { &*p };
            if unsafe { node.key() } != key {
                return Continue(start);
            }
            match on_holder(self, key, node) {
                Some(outcome) => {
                    self.map.shared.index_heal(node, hash, &self.ctx);
                    return Break(outcome);
                }
                None => self.erase_local(key),
            }
        }
    }

    /// Alg. 2 against a node holding the key (non-lazy: an unmarked
    /// holder is a duplicate).
    fn insert_on(&mut self, _key: &K, node: &'m Node<K, V>) -> Option<bool> {
        if self.lazy() {
            self.map.shared.insert_helper(node, &self.ctx)
        } else {
            (!node.is_marked(0)).then_some(false)
        }
    }

    /// Alg. 12 against a node holding the key; non-lazy, the eager
    /// deletion plus its cleanup pass.
    fn remove_on(&mut self, key: &K, node: &'m Node<K, V>) -> Option<bool> {
        let shared = &self.map.shared;
        if self.lazy() {
            return shared.remove_helper(node, &self.ctx);
        }
        if node.load_next(0, &self.ctx).marked() {
            return None;
        }
        let won = shared.logical_delete_eager(node, &self.ctx);
        self.erase_local(key);
        if won {
            // Physical cleanup pass; its predecessor frontier seeds the
            // tombstoned hint (C3 mitigation).
            let start = self.get_start(key, 0);
            let res = shared.search_from(key, self.mvec, start, true, &self.ctx);
            if let Some(p) = Self::frontier_ref(res.preds[0], res.pred_gens[0]) {
                self.tombstone_local(key, p);
            }
        }
        Some(won)
    }

    /// Alg. 6 against a node holding the key: its value if the key is
    /// present.
    fn read_on(&mut self, _key: &K, node: &'m Node<K, V>) -> Option<Option<&'m V>> {
        let w0 = node.load_next(0, &self.ctx);
        if w0.marked() {
            return None;
        }
        Some((!self.lazy() || w0.valid()).then(|| unsafe { node.value() }))
    }

    /// Inserts `key -> value`. Returns `false` if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        let map = self.map;
        let shared = &map.shared;
        // Pin for the whole operation: local-structure references are
        // generation-validated under this pin, which is what keeps their
        // targets from being recycled while we dereference them.
        let _pin = shared.pin(&self.ctx);
        // One hash serves the probe and, for a fresh key, the publish.
        let hash = shared.index_hash(&key);
        if let Some(outcome) = self.hash_layer(&key, hash, Self::insert_on) {
            return outcome;
        }
        let height = self.new_height();
        if self.lazy() {
            self.lazy_insert(key, value, hash, height)
        } else {
            self.eager_insert(key, value, hash, height)
        }
    }

    /// Alg. 3, `lazyInsert`: link at level 0 only; upper levels are
    /// completed on demand by `getStart`.
    fn lazy_insert(&mut self, key: K, value: V, hash: u64, height: u8) -> bool {
        let shared = &self.map.shared;
        let mut pending = Some(value);
        let mut start = match self.start_for(&key, hash, 0, Self::insert_on) {
            Break(outcome) => return outcome,
            Continue(start) => start,
        };
        let mut node = None;
        loop {
            let res = shared.search_from(&key, self.mvec, start, false, &self.ctx);
            if res.found {
                let existing = unsafe { &*res.succs[0] };
                match shared.insert_helper(existing, &self.ctx) {
                    Some(outcome) => return outcome,
                    None => continue, // became marked; retry the search
                }
            }
            let n = *node.get_or_insert_with(|| {
                let v = pending.take().expect("value pending");
                shared.alloc_node(key.clone(), v, &self.ctx, height)
            });
            if shared.try_link_level0_publish(n, &res, &self.ctx, Some(hash)) {
                self.index_local(key, NodeRef::new(n));
                return true;
            }
            start = self.prev_start(&key, 0); // updateStart (Alg. 3 line 15)
        }
    }

    /// Non-lazy insertion: level 0 plus an eager `finishInsert`.
    fn eager_insert(&mut self, key: K, value: V, hash: u64, height: u8) -> bool {
        let shared = &self.map.shared;
        let mut pending = Some(value);
        let mut start = match self.start_for(&key, hash, height, Self::insert_on) {
            Break(outcome) => return outcome,
            Continue(start) => start,
        };
        let mut node = None;
        let mut spins = 0u64;
        loop {
            spins += 1;
            debug_assert!(spins < 100_000_000, "eager_insert livelock");
            let mut res = shared.search_from(&key, self.mvec, start, true, &self.ctx);
            if res.found {
                return false; // unmarked duplicate
            }
            let n = *node.get_or_insert_with(|| {
                let v = pending.take().expect("value pending");
                shared.alloc_node(key.clone(), v, &self.ctx, height)
            });
            if !shared.try_link_level0_publish(n, &res, &self.ctx, Some(hash)) {
                start = self.prev_start(&key, height);
                continue;
            }
            let _ =
                shared.link_upper(n, &mut res, &self.ctx, || self.prev_start(&key, height));
            if self.should_index(height) {
                self.index_local(key, NodeRef::new(n));
            }
            return true;
        }
    }

    /// Removes `key`. Returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        let map = self.map;
        let shared = &map.shared;
        let _pin = shared.pin(&self.ctx);
        let hash = shared.index_hash(key);
        if let Some(outcome) = self.hash_layer(key, hash, Self::remove_on) {
            return outcome;
        }
        if self.lazy() {
            // Alg. 13, lazyRemove.
            let mut start = match self.start_for(key, hash, 0, Self::remove_on) {
                Break(outcome) => return outcome,
                Continue(start) => start,
            };
            loop {
                let res = shared.search_from(key, self.mvec, start, false, &self.ctx);
                if !res.found {
                    return false;
                }
                match shared.remove_helper(unsafe { &*res.succs[0] }, &self.ctx) {
                    Some(outcome) => return outcome,
                    None => start = self.prev_start(key, 0),
                }
            }
        } else {
            let mut spins = 0u64;
            loop {
                spins += 1;
                debug_assert!(spins < 100_000_000, "eager_remove livelock");
                let start = match self.start_for(key, hash, 0, Self::remove_on) {
                    Break(outcome) => return outcome,
                    Continue(start) => start,
                };
                let res = shared.search_from(key, self.mvec, start, true, &self.ctx);
                if !res.found {
                    return false;
                }
                if shared.logical_delete_eager(unsafe { &*res.succs[0] }, &self.ctx) {
                    let res2 = shared.search_from(key, self.mvec, start, true, &self.ctx);
                    self.erase_local(key);
                    if let Some(p) = Self::frontier_ref(res2.preds[0], res2.pred_gens[0]) {
                        self.tombstone_local(key, p);
                    }
                    return true;
                }
            }
        }
    }

    /// Alg. 6: the local table's speculative hit (a marked holder's
    /// mapping is erased and the caller searches).
    fn table_read(&mut self, key: &K) -> Option<Option<&'m V>> {
        let node = self.table_holder(key)?;
        let value = self.read_on(key, node);
        if value.is_none() {
            self.erase_local(key);
        }
        value
    }

    /// The value of `key` when the hash layer answers: the local table's
    /// speculative hit (Alg. 6), or — the Skip Hash fast path — the shared
    /// index, whose validated read needs no second look at the node.
    /// `None` means "search" (Alg. 7).
    fn hashed_read(&mut self, key: &K, hash: u64) -> Option<Option<&'m V>> {
        if let Some(value) = self.table_read(key) {
            return Some(value);
        }
        match self.map.shared.index_read_hashed(key, hash, &self.ctx)? {
            IndexRead::Hit(node) => Some(Some(unsafe { node.value() })),
            IndexRead::Absent(_) => Some(None),
            IndexRead::Miss | IndexRead::Stale => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        let map = self.map;
        let shared = &map.shared;
        let _pin = shared.pin(&self.ctx);
        let hash = shared.index_hash(key);
        if let Some(value) = self.hashed_read(key, hash) {
            return value.is_some();
        }
        // Alg. 7: search from the local start.
        let start = match self.start_for(key, hash, 0, Self::read_on) {
            Break(value) => return value.is_some(),
            Continue(start) => start,
        };
        let res = shared.search_from(key, self.mvec, start, !self.lazy(), &self.ctx);
        if !res.found {
            return false;
        }
        let node = unsafe { &*res.succs[0] };
        let present = !self.lazy() || {
            let w0 = node.load_next(0, &self.ctx);
            !w0.marked() && w0.valid()
        };
        if present {
            shared.index_heal(node, hash, &self.ctx);
        }
        present
    }

    /// Returns a clone of the value mapped to `key`, if present.
    pub fn get(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.ctx.record_op();
        let map = self.map;
        let shared = &map.shared;
        // The pin keeps every node read below dereferenceable until the
        // value is cloned.
        let _pin = shared.pin(&self.ctx);
        let hash = shared.index_hash(key);
        if let Some(value) = self.hashed_read(key, hash) {
            return value.cloned();
        }
        let start = match self.start_for(key, hash, 0, Self::read_on) {
            Break(value) => return value.cloned(),
            Continue(start) => start,
        };
        let res = shared.search_from(key, self.mvec, start, !self.lazy(), &self.ctx);
        if !res.found {
            return None;
        }
        let node = unsafe { &*res.succs[0] };
        let w0 = node.load_next(0, &self.ctx);
        if w0.marked() || (self.lazy() && !w0.valid()) {
            return None;
        }
        shared.index_heal(node, hash, &self.ctx);
        Some(unsafe { node.value() }.clone())
    }

    /// Returns the value mapped to `key`, inserting `value` first if the
    /// key is absent. The returned value is the one actually mapped — an
    /// existing (or, under the lazy protocol, resurrected) node keeps its
    /// original value.
    ///
    /// Under continuous adversarial removals of the same key this retries;
    /// each retry implies another thread's operation completed (lock-free).
    pub fn get_or_insert(&mut self, key: K, value: V) -> V
    where
        V: Clone,
    {
        loop {
            if let Some(v) = self.get(&key) {
                return v;
            }
            if self.insert(key.clone(), value.clone()) {
                if let Some(v) = self.get(&key) {
                    return v;
                }
                // Removed again between our insert and read; retry.
            }
        }
    }

    /// Ordered scan of the live pairs in the given key range, jumping into
    /// the shared structure from this thread's local map (the same
    /// mechanism that accelerates point operations accelerates the scan's
    /// positioning step).
    pub fn range(
        &mut self,
        start: std::ops::Bound<&K>,
        end: std::ops::Bound<K>,
    ) -> RangeIter<'_, K, V> {
        // Use the strictly-preceding local node as the jump-in hint: a
        // hint holding the bound key itself would make the positioning
        // search start *at* (and therefore skip) the first in-range node
        // (point operations meet that case in `start_for`).
        // The hint is validated under this pin; `range` itself pins before
        // the handle pin drops, so coverage is continuous.
        let map = self.map;
        let _pin = map.shared.pin(&self.ctx);
        let hint = match &start {
            std::ops::Bound::Included(k) | std::ops::Bound::Excluded(k) => {
                self.prev_start(k, 0).map(NodeRefHint)
            }
            std::ops::Bound::Unbounded => None,
        };
        map.shared.range(start, end, hint, &self.ctx)
    }

    /// Collects the live pairs within the range.
    pub fn range_to_vec(
        &mut self,
        start: std::ops::Bound<&K>,
        end: std::ops::Bound<K>,
    ) -> Vec<(K, V)>
    where
        V: Clone,
    {
        self.range(start, end)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Bulk insert: sorts `pairs` ascending and executes them as a single
    /// hint-chained run — each insertion's search resumes from the previous
    /// one's predecessor frontier, so `n` pairs cost one full descent plus
    /// O(n) short hops instead of `n` independent searches. Freshly linked
    /// (and, lazily, resurrected) nodes are indexed into the local
    /// structures under the usual `should_index` policy. Returns the number
    /// of pairs actually inserted (duplicates are skipped, set semantics).
    ///
    /// The sort is stable, so duplicate keys within `pairs` keep their
    /// order and only the first lands.
    pub fn extend<I>(&mut self, pairs: I) -> usize
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let mut pairs: Vec<(K, V)> = pairs.into_iter().collect();
        if pairs.is_empty() {
            return 0;
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let total = pairs.len() as u64;
        let map = self.map;
        let shared = &map.shared;
        let mut chain = HintChain::new();
        let mut inserted = 0usize;
        for (k, v) in pairs {
            self.ctx.record_op();
            // Per-iteration pin: the chain's frontier is generation-checked
            // at adoption, so quiescing between operations is safe and lets
            // reclamation progress during long runs.
            let _pin = shared.pin(&self.ctx);
            let height = self.new_height();
            let key = k.clone();
            let (fresh, node) = shared.insert_with_hint(k, v, height, None, &mut chain, &self.ctx);
            if fresh {
                inserted += 1;
            }
            if let Some(r) = node {
                if r.node().is_some_and(|n| self.should_index(n.top_level())) {
                    self.index_local(key, r);
                }
            }
        }
        self.ctx.record_batch(total);
        inserted
    }

    /// Indexes a combined-run node into this handle's local structures:
    /// the table (a pure membership fast path) takes any node, the ordered
    /// map only nodes carrying this thread's membership vector (see
    /// `tombstone_local` for why a foreign-mvec start is unsound). Skips
    /// the work when the table already maps the key to the same node (hot
    /// keys re-execute constantly under combining; re-inserting into the
    /// ordered map every time would dominate the combiner's per-operation
    /// cost).
    fn index_combined(&mut self, key: &K, r: NodeRef<K, V>) {
        if self.hash.as_ref().is_some_and(|table| table.get(key) == Some(&r)) {
            return;
        }
        // Generation check under the caller's pin: a node retired between
        // execution and indexing is simply not indexed.
        let Some(n) = r.node() else { return };
        if !self.should_index(n.top_level()) {
            return;
        }
        if n.mvec() == self.mvec {
            self.index_local(key.clone(), r);
        } else if let Some(table) = &mut self.hash {
            table.insert(key.clone(), r);
        }
    }

    /// Publishes a combined run's freshly linked nodes into the shared
    /// hash index in one pass (the deferred half of
    /// [`SkipGraph::index_publish_run`]'s contract).
    fn publish_run(&self, run: &[(NodeRef<K, V>, u64)]) {
        self.map.shared.index_publish_run(run, &self.ctx);
    }

    /// Executes one operation of a combined sorted run on behalf of the
    /// flat-combining executor (this handle is the *combiner*). The search
    /// starts from the further of the run's chain frontier and this
    /// thread's local-map predecessor (`prev_start`) — the local maps, not
    /// the graph's `≈ log2(threads)` levels, provide the long jump, so a
    /// combined run without them would walk every key gap at the top level.
    ///
    /// The combiner also maintains *its own* local structures: fresh nodes
    /// it allocates carry its membership vector and are indexed under the
    /// usual policy (warming future combined runs), and non-lazy removals
    /// erase the exact hashtable mapping and leave a tombstoned local-map
    /// hint to the surviving predecessor. The submitting thread
    /// separately refreshes its structures from the returned outcome.
    fn combined_op(
        &mut self,
        op: BatchOp<K, V>,
        chain: &mut HintChain<K, V>,
        publishes: &mut Vec<(NodeRef<K, V>, u64)>,
    ) -> BatchOutcome<K, V>
    where
        V: Clone,
    {
        let map = self.map;
        let shared = &map.shared;
        let lazy = self.lazy();
        let _pin = shared.pin(&self.ctx);
        match op {
            BatchOp::Insert(k, v) => {
                // Hash-layer fast path, as in [`LayeredHandle::insert`]: a
                // present key resolves with one helper CAS and no search
                // (the chain frontier is untouched, which is fine — it
                // still precedes every later key of the sorted run). An
                // index entry of a lazily removed key is the same node
                // with its valid bit down, so the helper resurrects it in
                // place — a remove/re-insert cycle never leaves the index.
                let hash = shared.index_hash(&k);
                let on_holder: OnHolder<'m, Self, K, V, _> = |h, k, node| {
                    let fresh = h.insert_on(k, node)?;
                    Some((fresh, NodeRef::new(NonNull::from(node))))
                };
                if let Some((fresh, r)) = self.hash_layer(&k, hash, on_holder) {
                    // A node of this thread's own list that another handle
                    // linked becomes a local start.
                    self.index_combined(&k, r);
                    return BatchOutcome::Inserted { fresh, node: Some(r) };
                }
                let start = self.prev_start(&k, 0);
                let height = self.new_height();
                let key = k.clone();
                let (fresh, node) = shared.insert_with_hint_sink(
                    k,
                    v,
                    hash,
                    height,
                    start,
                    chain,
                    &self.ctx,
                    Some(publishes),
                );
                if let Some(r) = node {
                    self.index_combined(&key, r);
                }
                BatchOutcome::Inserted { fresh, node }
            }
            BatchOp::Remove(k) => {
                // Fast path, lazy only: the helper CAS is the whole
                // removal there. Non-lazy removals always need the cleanup
                // search for the tombstoned predecessor.
                if lazy {
                    let hash = shared.index_hash(&k);
                    if let Some(removed) = self.hash_layer(&k, hash, Self::remove_on) {
                        return BatchOutcome::Removed { removed, pred: None };
                    }
                }
                let start = self.prev_start(&k, 0);
                let removed = shared.remove_with_hint(&k, start, chain, &self.ctx);
                let pred = chain.last_pred();
                if removed && !lazy {
                    self.erase_local(&k);
                    if let Some(p) = pred {
                        self.tombstone_local(&k, p);
                    }
                }
                BatchOutcome::Removed { removed, pred }
            }
            BatchOp::Get(k) => {
                if let Some(value) = self.table_read(&k) {
                    return BatchOutcome::Got(value.cloned());
                }
                // The index answers first; the local-map start is looked
                // up only for the search.
                let start = || self.prev_start(&k, 0);
                BatchOutcome::Got(shared.get_with_hint(&k, start, chain, &self.ctx))
            }
        }
    }
}

impl<K, V> CombinerTarget<K, V> for LayeredHandle<'_, K, V>
where
    K: Ord + Hash + Clone,
    V: Clone,
{
    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    /// The per-key hint-chained run: every operation resumes the previous
    /// one's predecessor frontier, and freshly linked nodes defer their
    /// shared-index publish until the whole run is executed.
    fn combined_run(
        &mut self,
        work: Vec<(usize, usize, BatchOp<K, V>)>,
        out: &mut dyn FnMut(usize, usize, BatchOutcome<K, V>),
    ) {
        let mut chain = HintChain::new();
        let mut publishes = Vec::new();
        for (si, oi, op) in work {
            let o = self.combined_op(op, &mut chain, &mut publishes);
            out(si, oi, o);
        }
        self.publish_run(&publishes);
    }
}

/// A per-thread handle that routes every shared-structure operation
/// through the map's NUMA-local flat-combining executor (built with
/// [`LayeredMap::with_batching`]). Single-key calls are one-element
/// batches; [`CombiningHandle::execute_batch`] publishes many operations
/// at once, which is where combining pays off.
///
/// Local-structure upkeep happens on the *submitting* thread after the
/// combiner hands results back: fresh nodes are indexed under the same
/// `should_index` policy as direct handles, and non-lazy removals leave
/// the tombstoned predecessor hint (C3 mitigation).
pub struct CombiningHandle<'m, K, V> {
    inner: LayeredHandle<'m, K, V>,
    exec: &'m BatchExecutor<K, V>,
}

impl<'m, K, V> CombiningHandle<'m, K, V>
where
    K: Ord + Hash + Clone,
    V: Clone,
{
    /// The recording context of this thread.
    pub fn ctx(&self) -> &ThreadCtx {
        &self.inner.ctx
    }

    /// The wrapped direct handle (operations through it bypass the
    /// combiner; local structures are shared with combined execution).
    pub fn direct(&mut self) -> &mut LayeredHandle<'m, K, V> {
        &mut self.inner
    }

    /// Publishes `ops` to this thread's slot, waits for (or performs) the
    /// combined execution, refreshes the local structures from the
    /// outcomes, and returns the outcomes in submission order.
    pub fn execute_batch(&mut self, ops: Vec<BatchOp<K, V>>) -> Vec<BatchOutcome<K, V>> {
        let keys: Vec<K> = ops.iter().map(|op| op.key().clone()).collect();
        for _ in &keys {
            self.inner.ctx.record_op();
        }
        let exec = self.exec;
        let (outs, self_combined) = exec.submit_tracked(&mut self.inner, ops);
        // Self-combined operations ran through `combined_op` on this very
        // handle and are already indexed; only a foreign combiner's
        // write-back needs the local refresh.
        if !self_combined {
            for (key, out) in keys.iter().zip(outs.iter()) {
                self.note(key, out);
            }
        }
        outs
    }

    /// Refreshes the local structures from one combined outcome.
    ///
    /// Combined inserts allocate from the **combiner's** arena under the
    /// combiner's membership vector. The hashtable, where the handle has
    /// one, indexes them regardless, but the ordered local map — whose
    /// entries are handed to `search_from` as start nodes and feed
    /// upper-level linking — only takes nodes carrying this thread's own
    /// mvec (`index_combined`). When the submitter combined its own batch
    /// (the common case) the mvecs match and indexing is unchanged.
    fn note(&mut self, key: &K, out: &BatchOutcome<K, V>) {
        let map = self.inner.map;
        // The outcome's references were captured under the combiner's pin;
        // validate them under our own before touching the local structures.
        let _pin = map.shared.pin(&self.inner.ctx);
        let h = &mut self.inner;
        match out {
            BatchOutcome::Inserted { node: Some(r), .. } => h.index_combined(key, *r),
            BatchOutcome::Inserted { node: None, .. } => {}
            BatchOutcome::Removed { removed, pred } => {
                if *removed && !h.lazy() {
                    h.erase_local(key);
                    if let Some(p) = pred {
                        h.tombstone_local(key, *p);
                    }
                }
                // Lazy removals keep the mappings: the node is only
                // invalidated and can be resurrected in place.
            }
            BatchOutcome::Got(_) => {}
        }
    }

    /// Inserts `key -> value` through the combiner. Returns `false` if the
    /// key was present.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        match self.execute_batch(vec![BatchOp::Insert(key, value)]).pop() {
            Some(BatchOutcome::Inserted { fresh, .. }) => fresh,
            _ => unreachable!("insert answered with a non-insert outcome"),
        }
    }

    /// Removes `key` through the combiner. Returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self
            .execute_batch(vec![BatchOp::Remove(key.clone())])
            .pop()
        {
            Some(BatchOutcome::Removed { removed, .. }) => removed,
            _ => unreachable!("remove answered with a non-remove outcome"),
        }
    }

    /// Whether `key` is present (combined lookup).
    pub fn contains(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// A clone of the value mapped to `key`, if present (combined lookup).
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.execute_batch(vec![BatchOp::Get(key.clone())]).pop() {
            Some(BatchOutcome::Got(v)) => v,
            _ => unreachable!("get answered with a non-get outcome"),
        }
    }
}

impl<'m, K, V> std::fmt::Debug for CombiningHandle<'m, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CombiningHandle")
            .field("thread", &self.inner.ctx.id())
            .finish()
    }
}

/// A read-only, `Send`-able view of a [`LayeredMap`], for threads outside
/// the registered set (the paper's heterogeneous-workload accommodation:
/// "searching (read-only) from another thread's local structure" — here,
/// simpler and contention-free, searching from the head array without any
/// local structure).
pub struct ReadOnlyView<'m, K, V> {
    map: &'m LayeredMap<K, V>,
    ctx: ThreadCtx,
}

impl<K: Ord, V> LayeredMap<K, V> {
    /// A read-only view usable from any thread. `reader_slot` selects the
    /// membership vector used for traversal (any registered slot works;
    /// reads are correct regardless of the slot, it only affects which
    /// upper-level lists the search descends through).
    pub fn read_only(&self, reader_slot: u16) -> ReadOnlyView<'_, K, V> {
        let slot = (reader_slot as usize % self.config().num_threads) as u16;
        ReadOnlyView {
            map: self,
            ctx: ThreadCtx::plain(slot),
        }
    }

    /// Like [`read_only`](Self::read_only), but traversing under the
    /// caller's context — pass a recording [`ThreadCtx`] to attribute the
    /// view's searches, index probes, and range-start accelerations to an
    /// [`instrument::AccessStats`] sink. The context's id selects the
    /// membership vector and must name a registered slot.
    pub fn read_only_with(&self, ctx: ThreadCtx) -> ReadOnlyView<'_, K, V> {
        assert!(
            (ctx.id() as usize) < self.config().num_threads,
            "reader ctx id {} outside the registered set",
            ctx.id()
        );
        ReadOnlyView { map: self, ctx }
    }
}

impl<'m, K: Ord, V> ReadOnlyView<'m, K, V> {
    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.map.shared.contains(key, &self.ctx)
    }

    /// A clone of the value mapped to `key`, if present.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.map.shared.get(key, &self.ctx)
    }

    /// Ordered scan of the live pairs within the range.
    pub fn range(
        &self,
        start: std::ops::Bound<&K>,
        end: std::ops::Bound<K>,
    ) -> RangeIter<'_, K, V>
    where
        K: Clone,
    {
        self.map.shared.range(start, end, None, &self.ctx)
    }

    /// Number of live entries (O(n) snapshot walk).
    pub fn len(&self) -> usize {
        self.map.shared.len(&self.ctx)
    }

    /// Whether the map appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<'m, K, V> std::fmt::Debug for ReadOnlyView<'m, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadOnlyView").finish_non_exhaustive()
    }
}

impl<'m, K, V, L> std::fmt::Debug for LayeredHandle<'m, K, V, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredHandle")
            .field("thread", &self.ctx.id())
            .field("mvec", &self.mvec)
            .finish()
    }
}
