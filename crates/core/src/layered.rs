//! The layered structure: per-thread sequential maps over the shared skip
//! graph (the paper's primary contribution).
//!
//! [`LayeredMap`] owns the shared structure; each participating thread
//! registers once and receives a [`LayeredHandle`], which owns the thread's
//! *local structures* — one ordered [`BTreeLocalMap`] (an in-crate
//! B+tree, the paper's `std::map`) behind one hash layer consulted first —
//! plus the recording [`ThreadCtx`]. The hash layer is the
//! paper's per-thread [`RobinHoodMap`] on a plain graph and the shared
//! [`crate::index`] when the graph has one ([`GraphConfig::hash_index`]):
//! the index names every thread's keys, so a table that can only name the
//! handle's own would be a second probe and a second structure to
//! maintain for no further hits.
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
//! The searches and links themselves are the graph's one loop per point
//! operation (`graph/ops.rs`); the handle supplies the hash layer, the
//! start, the `updateStart` refresh and the local bookkeeping. With its
//! private layered bit off the handle is the bare [`SkipGraph`]'s
//! [`ConcurrentMap`](crate::ConcurrentMap) handle: no table, no local
//! mappings, no tombstones, so every start is the head array. A reader
//! outside the registered set takes that bare handle under a slot no live
//! handle uses (`map.shared().pin(ctx)`).
//!
//! Every operation takes one reclamation pin and reads shared nodes only
//! through references bounded by it: a local-map entry, an index read and
//! a search each hand their node out as the graph core's pin-scoped
//! `DataRef`. The module forbids `unsafe_code`.
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

#![forbid(unsafe_code)]

use crate::graph::{DataRef, NodeRef, PinGuard, RangeIter, SkipGraph};
use crate::index::{hash_key, IndexRead};
use crate::local::{BTreeLocalMap, RobinHoodMap};
use crate::node::Node;
use crate::params::GraphConfig;
use crate::replicate::Update;
use crate::sparse_height;
use instrument::ThreadCtx;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Ordering;
use std::hash::Hash;
use std::ops::Bound;
use std::ops::ControlFlow::{self, Break, Continue};

/// A concurrent ordered map built by layering thread-local maps over a
/// NUMA-partitioned skip graph.
pub struct LayeredMap<K, V> {
    shared: SkipGraph<K, V>,
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
        }
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
    /// The load is [`LayeredHandle::extend`]: one insert per pair, each
    /// starting from the handle's local map, so ascending pairs start at
    /// the node the previous insert linked.
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
    /// Shared nodes are arena-allocated, and arena memory is never
    /// returned mid-run. Retired nodes are recycled within their owner's
    /// arena, but the arenas keep their high-water size, and logically
    /// removed nodes stay linked until a search unlinks them. Periodic
    /// quiescent-point compaction releases both. The caller must guarantee
    /// quiescence: the snapshot is a weak one, and handles to the *old* map
    /// keep operating on the old structure.
    ///
    /// Like [`LayeredMap::bulk_load`] (which implements the rebuild), every
    /// rebuilt node lands in **slot 0's arena** regardless of which arena
    /// owned it before — rebuilding trades the old map's accumulated NUMA
    /// placement for compactness, and threads re-warm locality through
    /// their own subsequent updates. The snapshot iterates in key order, so
    /// each reloaded insert starts at its predecessor's node.
    pub fn rebuild(&self) -> Self
    where
        K: Hash + Clone,
        V: Clone,
    {
        let ctx = ThreadCtx::plain(0);
        Self::bulk_load(
            self.config().clone(),
            self.shared
                .range(Bound::Unbounded, Bound::Unbounded, &ctx)
                .map(|(k, v)| (k.clone(), v.clone())),
        )
    }

    /// Registers the calling thread.
    ///
    /// `ctx.id()` must be a dense id below `config.num_threads`, unique per
    /// live handle.
    pub fn register(&self, ctx: ThreadCtx) -> LayeredHandle<'_, K, V>
    where
        K: Hash + Clone,
    {
        LayeredHandle::new(&self.shared, ctx, true)
    }
}

impl<K, V> std::fmt::Debug for LayeredMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredMap")
            .field("config", self.shared.config())
            .finish()
    }
}

/// A per-thread handle to a [`LayeredMap`] — or, with no local
/// structures, to a bare [`SkipGraph`] (its
/// [`ConcurrentMap`](crate::ConcurrentMap) handle: the paper's
/// non-layered ablation, whose every `getStart` falls back to the head
/// array). Not `Send`: it owns the thread's local structures.
pub struct LayeredHandle<'m, K, V> {
    graph: &'m SkipGraph<K, V>,
    /// Whether the handle keeps local structures: off for a bare graph's
    /// handle, which then maps, tables and tombstones nothing.
    layered: bool,
    ctx: ThreadCtx,
    mvec: u32,
    local: BTreeLocalMap<K, NodeRef<K, V>>,
    /// The paper's table in front of `local`, kept only on a graph without
    /// a shared hash index: an indexed handle's hash layer is the index.
    hash: Option<RobinHoodMap<K, NodeRef<K, V>>>,
    /// Keys whose `local` mapping is a tombstoned hint (see
    /// [`LayeredHandle::tombstone_local`]).
    tombstones: Vec<K>,
    rng: SmallRng,
}

/// What a point operation does with a node its local structures (or the
/// index) hold for the key, given the key's hash and the operation's pin:
/// the operation's outcome, or `None` when the node is marked — the caller
/// erases its mapping and searches.
type OnHolder<'m, 'p, H, K, V, T> =
    fn(&mut H, &K, u64, DataRef<'p, K, V>, &'p PinGuard<'m, K, V>) -> Option<T>;

impl<'m, K, V> LayeredHandle<'m, K, V>
where
    K: Ord + Hash + Clone,
{
    /// The handle of thread `ctx.id()` (a dense id below
    /// `config.num_threads`, unique per live handle) on `graph`: with
    /// local structures when `layered`, else the bare graph's handle.
    pub(crate) fn new(graph: &'m SkipGraph<K, V>, ctx: ThreadCtx, layered: bool) -> Self {
        assert!(
            (ctx.id() as usize) < graph.config().num_threads,
            "thread id {} out of range (num_threads = {})",
            ctx.id(),
            graph.config().num_threads
        );
        let id = ctx.id() as u64;
        let seed = if layered {
            0x5ee0_dead_beef_u64 ^ (id << 32)
        } else {
            0xBADD_CAFE_u64 ^ (id << 24)
        };
        Self {
            graph,
            layered,
            mvec: graph.membership_of(ctx.id()),
            local: BTreeLocalMap::default(),
            hash: (layered && graph.index().is_none()).then(RobinHoodMap::new),
            tombstones: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            ctx,
        }
    }

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
    /// handle has none: the graph's shared hash index stands in, or the
    /// handle is a bare graph's (diagnostics).
    pub fn local_hash_len(&self) -> Option<usize> {
        self.hash.as_ref().map(|table| table.len())
    }

    fn lazy(&self) -> bool {
        self.graph.config().lazy
    }

    /// The one hash of a point operation on `key`: [`hash_key`], called
    /// here where it can be inlined, on an indexed graph; `0` on a plain
    /// one, whose `_hashed` index hooks do nothing (a layered handle's
    /// per-thread table hashes for itself).
    #[inline]
    fn key_hash(&self, key: &K) -> u64 {
        if self.graph.index().is_some() {
            hash_key(key)
        } else {
            0
        }
    }

    fn sparse(&self) -> bool {
        self.graph.config().sparse
    }

    fn max_level(&self) -> u8 {
        self.graph.config().max_level
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
    /// locally indexed so pending insertions can be finished. A bare
    /// graph's handle indexes nothing, so its lazy inserts finish their own
    /// upper levels.
    fn should_index(&self, height: u8) -> bool {
        self.layered && (self.lazy() || !self.sparse() || height == self.max_level())
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
    /// all C3 needs. A bare graph's handle keeps none.
    fn tombstone_local(&mut self, key: &K, pred: NodeRef<K, V>, pin: &PinGuard<'m, K, V>) {
        const TOMBSTONE_BUDGET: usize = 64;
        if !self.layered || self.tombstones.len() >= TOMBSTONE_BUDGET {
            return;
        }
        // Generation-validated under the caller's pin: a predecessor that
        // was retired (or whose slot was recycled) since its generation was
        // captured is silently dropped rather than installed as a hint.
        let Some(node) = pred.node(pin) else { return };
        if node.mvec() != self.mvec || node.is_marked(0) {
            return;
        }
        if !self.tombstones.contains(key) {
            self.tombstones.push(key.clone());
        }
        self.local.insert(key.clone(), pred);
    }

    /// Alg. 9, `updateStart`: the closest preceding *fully inserted* start
    /// candidate strictly before `key`, without finishing insertions or
    /// erasing stale entries. `min_top` filters to nodes tall enough for the
    /// caller (a search started from a node only fills levels up to its top,
    /// so linking a height-`h` node needs a start of at least that height).
    fn prev_start<'p>(
        &self,
        key: &K,
        min_top: u8,
        pin: &'p PinGuard<'m, K, V>,
    ) -> Option<DataRef<'p, K, V>> {
        let mut cursor = key.clone();
        loop {
            let (k, r) = self.local.pred(&cursor)?;
            // Generation check under the caller's pin: a stale reference
            // (slot retired or recycled since capture) is stepped over —
            // `get_start` erases such entries on its next walk.
            if let Some(node) = r.node(pin).filter(|node| Self::usable_start(node, min_top)) {
                return Some(node);
            }
            cursor = k.clone();
        }
    }

    /// `updateStart`'s test of a start candidate: fully inserted, tall
    /// enough, and not marked at both level 0 and its top.
    fn usable_start(node: &Node<K, V>, min_top: u8) -> bool {
        node.is_inserted()
            && node.top_level() >= min_top
            && (!node.is_marked(0) || !node.is_marked(node.top_level() as usize))
    }

    /// The greatest key below `key` this handle's ordered local map holds.
    /// Only the key is read — its mapping is not validated — so the caller
    /// needs no pin on this handle's graph.
    pub(crate) fn local_pred_key(&self, key: &K) -> Option<K> {
        self.local.pred(key).map(|(k, _)| k.clone())
    }

    /// The warm start of a replay into this replica from another socket:
    /// `warm` is a key below the operation's (the replaying thread's home
    /// local predecessor) with its [`hash_key`], and this replica's index
    /// names that key's node here. The node replaces `start` (what
    /// `getStart` found, strictly before the operation's key) when the key
    /// lies further along than `start`, the index finds its node (live, or
    /// lazily removed and still linked), the node passes
    /// [`Self::usable_start`] for `min_top`, and it carries this handle's
    /// membership vector (a start of another thread's lists would link an
    /// insert into them; see `tombstone_local`). Anything else keeps
    /// `start`. The read is unrecorded as a hit or a search: the search it
    /// seeds records itself.
    fn warm_start<'p>(
        &self,
        warm: Option<&(K, u64)>,
        start: Option<DataRef<'p, K, V>>,
        min_top: u8,
        pin: &'p PinGuard<'m, K, V>,
    ) -> Option<DataRef<'p, K, V>> {
        let (Some((key, hash)), Some(index)) = (warm, self.graph.index()) else {
            return start;
        };
        if start.is_some_and(|p| p.cmp_key(key) != Ordering::Less) {
            return start;
        }
        let node = match index.read_node(key, *hash, self.lazy(), pin, &self.ctx) {
            IndexRead::Hit(node) | IndexRead::Absent(node) => node,
            IndexRead::Miss | IndexRead::Stale => return start,
        };
        if node.mvec() != self.mvec || !Self::usable_start(&node, min_top) {
            return start;
        }
        Some(node)
    }

    /// Alg. 4, `getStart`: the closest preceding usable start node. Walks
    /// the local structure backwards, erasing mappings to marked nodes and
    /// finishing pending insertions (Alg. 10) along the way.
    fn get_start<'p>(
        &mut self,
        key: &K,
        min_top: u8,
        pin: &'p PinGuard<'m, K, V>,
    ) -> Option<DataRef<'p, K, V>> {
        let mut probe = self
            .local
            .max_lower_equal(key)
            .map(|(k, r)| (k.clone(), r));
        while let Some((k, r)) = probe {
            let Some(node) = r.node(pin) else {
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
                        return Some(node); // found fully inserted
                    }
                    // Alive but too short to start from: step back.
                } else {
                    // Try to complete the pending insertion.
                    let top = node.top_level();
                    let start2 = self.prev_start(&k, top, pin);
                    let mut res = self.graph.search_from(&k, self.mvec, start2, false, &self.ctx);
                    let finished = res.found
                        && res.succs[0] == r.ptr.as_ptr()
                        && self.graph.link_upper(r.ptr, &mut res, &self.ctx, || {
                            self.prev_start(&k, top, pin)
                        });
                    if finished {
                        if node.top_level() >= min_top {
                            return Some(node); // just fully inserted
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

    /// The hash layer's fast path (Alg. 1 / 6 / 11): offers the node the
    /// layer holds for `key` to `on_holder`. On an indexed graph the layer
    /// is one probe of the shared index under `hash`, the key's
    /// [`LayeredHandle::key_hash`] — the unique (lazy) holder whether valid
    /// or logically deleted, exactly what a table hit hands the helpers;
    /// otherwise it is the local table, whose stale mapping is erased here.
    fn hash_layer<'p, T>(
        &mut self,
        key: &K,
        hash: u64,
        pin: &'p PinGuard<'m, K, V>,
        on_holder: OnHolder<'m, 'p, Self, K, V, T>,
    ) -> Option<T> {
        let node = if let Some(table) = &self.hash {
            let Some(node) = table.get(key)?.node(pin) else {
                self.erase_local(key);
                return None;
            };
            node
        } else {
            match self.graph.index_read(key, hash, pin, &self.ctx)? {
                IndexRead::Hit(node) | IndexRead::Absent(node) => node,
                IndexRead::Miss | IndexRead::Stale => return None,
            }
        };
        let outcome = on_holder(self, key, hash, node, pin);
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
    /// mapping is erased and the walk repeats. A start strictly before
    /// `key` then yields to the `warm` start when that is further along
    /// ([`Self::warm_start`]), whose index line is fetched while the local
    /// map is walked.
    fn start_for<'p, T>(
        &mut self,
        key: &K,
        hash: u64,
        min_top: u8,
        warm: Option<&(K, u64)>,
        pin: &'p PinGuard<'m, K, V>,
        on_holder: OnHolder<'m, 'p, Self, K, V, T>,
    ) -> ControlFlow<T, Option<DataRef<'p, K, V>>> {
        if let (Some((_, warm_hash)), Some(index)) = (warm, self.graph.index()) {
            index.prefetch(*warm_hash);
        }
        loop {
            let start = self.get_start(key, min_top, pin);
            let Some(node) = start else {
                return Continue(self.warm_start(warm, None, min_top, pin));
            };
            if node.key() != key {
                return Continue(self.warm_start(warm, start, min_top, pin));
            }
            match on_holder(self, key, hash, node, pin) {
                Some(outcome) => {
                    self.graph.index_heal(&node, hash, &self.ctx);
                    return Break(outcome);
                }
                None => self.erase_local(key),
            }
        }
    }

    /// Alg. 2 against a node holding the key (non-lazy: an unmarked
    /// holder is a duplicate).
    fn insert_on(
        &mut self,
        _key: &K,
        hash: u64,
        node: DataRef<'_, K, V>,
        _pin: &PinGuard<'m, K, V>,
    ) -> Option<bool> {
        if self.lazy() {
            self.graph.insert_helper(&node, hash, &self.ctx)
        } else {
            (!node.is_marked(0)).then_some(false)
        }
    }

    /// Alg. 12 against a node holding the key; non-lazy, the eager
    /// deletion plus its cleanup pass.
    fn remove_on(
        &mut self,
        key: &K,
        _hash: u64,
        node: DataRef<'_, K, V>,
        pin: &PinGuard<'m, K, V>,
    ) -> Option<bool> {
        if self.lazy() {
            return self.graph.remove_helper(&node, &self.ctx);
        }
        if node.load_next(0, &self.ctx).marked() {
            return None;
        }
        let won = self.graph.logical_delete_eager(&node, &self.ctx);
        self.erase_local(key);
        if won {
            // Physical cleanup pass; its predecessor frontier seeds the
            // tombstoned hint (C3 mitigation).
            let start = self.get_start(key, 0, pin);
            let res = self.graph.search_from(key, self.mvec, start, true, &self.ctx);
            if let Some(p) = res.pred_ref(0, pin) {
                self.tombstone_local(key, p, pin);
            }
        }
        Some(won)
    }

    /// Alg. 6 against a node holding the key: its value if the key is
    /// present.
    fn read_on<'p>(
        &mut self,
        _key: &K,
        _hash: u64,
        node: DataRef<'p, K, V>,
        _pin: &'p PinGuard<'m, K, V>,
    ) -> Option<Option<&'p V>> {
        let w0 = node.load_next(0, &self.ctx);
        if w0.marked() {
            return None;
        }
        Some((!self.lazy() || w0.valid()).then(|| node.value()))
    }

    /// Inserts `key -> value`. Returns `false` if the key was present.
    ///
    /// On an indexed graph the insert hashes its key, starts the transfer
    /// of the index line its probe will read, finds its local start
    /// (`getStart`) while that line arrives, and only then probes the index
    /// and searches. A fresh key — the common insert — thus probes a line
    /// that is already in cache. A key that is present, or lazily removed,
    /// pays the local descent before the index answers, where probing
    /// first would have answered without one. On a plain graph the
    /// per-thread table, a local structure, still answers first (Alg. 1).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        // Pin for the whole operation: local-structure references are
        // generation-validated under this pin, which is what keeps their
        // targets from being recycled while we dereference them.
        let pin = self.graph.pin(&self.ctx);
        // One hash serves the probe and, for a fresh key, the publish.
        let hash = self.key_hash(&key);
        self.insert_hashed(key, value, hash, None, &pin)
    }

    /// The one insert body, behind [`Self::insert`], [`Self::extend`] and
    /// a replica's replay ([`Self::apply`]): `hash` is the key's
    /// [`Self::key_hash`] (a replay's [`hash_key`]) and `warm` an optional
    /// warm start ([`Self::start_for`]). The caller has recorded the
    /// operation and holds `pin`.
    fn insert_hashed(
        &mut self,
        key: K,
        value: V,
        hash: u64,
        warm: Option<&(K, u64)>,
        pin: &PinGuard<'m, K, V>,
    ) -> bool {
        // An eager insert draws its height first: its start must be at
        // least as tall. A lazy one starts anywhere and draws only when no
        // holder of the key answered.
        let eager_height = (!self.lazy()).then(|| self.new_height());
        let min_top = eager_height.unwrap_or(0);
        let start = match self.insert_start(&key, hash, min_top, warm, pin) {
            Break(outcome) => return outcome,
            Continue(start) => start,
        };
        let height = eager_height.unwrap_or_else(|| self.new_height());
        let local = self.should_index(height);
        let graph = self.graph;
        let (inserted, node) = graph.insert_from(
            &key,
            value,
            hash,
            height,
            local,
            start,
            || self.prev_start(&key, min_top, pin),
            pin,
            &self.ctx,
        );
        if let Some(n) = node.filter(|_| local) {
            self.index_local(key, NodeRef::new(n));
        }
        inserted
    }

    /// The hash layer and `getStart` (with `min_top`) of an insert, in the
    /// order [`Self::insert`] describes: `Break(outcome)` when a holder of
    /// `key` answers, else the start of the search.
    fn insert_start<'p>(
        &mut self,
        key: &K,
        hash: u64,
        min_top: u8,
        warm: Option<&(K, u64)>,
        pin: &'p PinGuard<'m, K, V>,
    ) -> ControlFlow<bool, Option<DataRef<'p, K, V>>> {
        let Some(index) = self.graph.index() else {
            if let Some(outcome) = self.hash_layer(key, hash, pin, Self::insert_on) {
                return Break(outcome);
            }
            return self.start_for(key, hash, min_top, warm, pin, Self::insert_on);
        };
        index.prefetch(hash);
        let start = self.start_for(key, hash, min_top, warm, pin, Self::insert_on);
        if start.is_continue() {
            if let Some(outcome) = self.hash_layer(key, hash, pin, Self::insert_on) {
                return Break(outcome);
            }
        }
        start
    }

    /// Removes `key`. Returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        let pin = self.graph.pin(&self.ctx);
        let hash = self.key_hash(key);
        self.remove_hashed(key, hash, None, &pin)
    }

    /// The one remove body (Alg. 11–13), behind [`Self::remove`] and a
    /// replica's replay ([`Self::apply`]); `hash` and `warm` as for
    /// [`Self::insert_hashed`].
    fn remove_hashed(
        &mut self,
        key: &K,
        hash: u64,
        warm: Option<&(K, u64)>,
        pin: &PinGuard<'m, K, V>,
    ) -> bool {
        if let Some(outcome) = self.hash_layer(key, hash, pin, Self::remove_on) {
            return outcome;
        }
        let start = match self.start_for(key, hash, 0, warm, pin, Self::remove_on) {
            Break(outcome) => return outcome,
            Continue(start) => start,
        };
        let graph = self.graph;
        let (removed, cleanup) =
            graph.remove_from(key, start, || self.prev_start(key, 0, pin), pin, &self.ctx);
        if let Some(res) = cleanup {
            // An eager removal won here: its cleanup pass's predecessor
            // seeds the tombstoned hint (C3 mitigation).
            self.erase_local(key);
            if let Some(p) = res.pred_ref(0, pin) {
                self.tombstone_local(key, p, pin);
            }
        }
        removed
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: &K) -> bool {
        self.contains_hashed(key, self.key_hash(key))
    }

    /// [`Self::contains`] for a key whose [`Self::key_hash`] (or, on a
    /// replica, [`hash_key`]) the caller already holds.
    pub(crate) fn contains_hashed(&mut self, key: &K, hash: u64) -> bool {
        self.ctx.record_op();
        let pin = self.graph.pin(&self.ctx);
        self.read_hashed(key, hash, &pin, |value| value.is_some())
    }

    /// Returns a clone of the value mapped to `key`, if present.
    pub fn get(&mut self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.get_hashed(key, self.key_hash(key))
    }

    /// [`Self::get`] for a key whose hash the caller already holds, as
    /// [`Self::contains_hashed`].
    pub(crate) fn get_hashed(&mut self, key: &K, hash: u64) -> Option<V>
    where
        V: Clone,
    {
        self.ctx.record_op();
        let pin = self.graph.pin(&self.ctx);
        self.read_hashed(key, hash, &pin, |value| value.cloned())
    }

    /// The one point read (Alg. 6/7), behind [`Self::get`],
    /// [`Self::contains`] and a replica's reads: the hash layer — the local
    /// table's speculative hit (Alg. 6; a marked holder's mapping is
    /// erased), or the Skip Hash fast path, the shared index, whose
    /// validated read needs no second look at the node — else the read
    /// loop from the local start. `answer` maps the key's value, or `None`
    /// when the key is absent, to the result; `hash` as for
    /// [`Self::insert_hashed`]. Every node read here is read under `pin`.
    fn read_hashed<'p, T>(
        &mut self,
        key: &K,
        hash: u64,
        pin: &'p PinGuard<'m, K, V>,
        answer: impl FnOnce(Option<&'p V>) -> T,
    ) -> T {
        let hashed = match self.hash {
            Some(_) => self.hash_layer(key, hash, pin, Self::read_on),
            None => match self.graph.index_read(key, hash, pin, &self.ctx) {
                Some(IndexRead::Hit(node)) => Some(Some(node.value())),
                Some(IndexRead::Absent(_)) => Some(None),
                _ => None,
            },
        };
        if let Some(value) = hashed {
            return answer(value);
        }
        let start = match self.start_for(key, hash, 0, None, pin, Self::read_on) {
            Break(value) => return answer(value),
            Continue(start) => start,
        };
        answer(
            self.graph
                .read_from(key, hash, start, pin, &self.ctx)
                .map(DataRef::value),
        )
    }

    /// Ordered scan of the live pairs in the given key range, jumping into
    /// the shared structure from this thread's local map (the same
    /// mechanism that accelerates point operations accelerates the scan's
    /// positioning step).
    pub fn range(
        &mut self,
        start: Bound<&K>,
        end: Bound<K>,
    ) -> RangeIter<'_, K, V> {
        // Use the strictly-preceding local node as the jump-in hint: a
        // hint holding the bound key itself would make the positioning
        // search start *at* (and therefore skip) the first in-range node
        // (point operations meet that case in `start_for`).
        // The hint is validated under this pin; `range` itself pins before
        // the handle pin drops, so coverage is continuous.
        let graph = self.graph;
        let pin = graph.pin(&self.ctx);
        let hint = match &start {
            Bound::Included(k) | Bound::Excluded(k) => {
                self.prev_start(k, 0, &pin)
            }
            Bound::Unbounded => None,
        };
        graph.range_from(start, end, hint, &self.ctx)
    }

    /// Bulk insert: [`Self::insert`] of each pair in turn. Returns the
    /// number of pairs actually inserted (set semantics: of duplicate keys
    /// within `pairs`, only the first lands).
    pub fn extend<I>(&mut self, pairs: I) -> usize
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let mut inserted = 0;
        for (k, v) in pairs {
            inserted += self.insert(k, v) as usize;
        }
        inserted
    }

    /// Applies one logged update to this replica's handle — a replica
    /// drain's one call per operation — and returns its set-semantics
    /// outcome. The update runs the handle's own insert or remove body
    /// under its own pin, with the hash stored beside it in the log (the
    /// appender recorded the operation and hashed its key) and, for a
    /// replay into another socket's replica, the operation's warm key
    /// ([`Self::warm_start`]).
    pub(crate) fn apply(&mut self, op: Update<K, V>, hash: u64, warm: Option<&(K, u64)>) -> bool {
        let pin = self.graph.pin(&self.ctx);
        match op {
            Update::Insert(k, v) => self.insert_hashed(k, v, hash, warm, &pin),
            Update::Remove(k) => self.remove_hashed(&k, hash, warm, &pin),
        }
    }
}

impl<'m, K, V> std::fmt::Debug for LayeredHandle<'m, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredHandle")
            .field("thread", &self.ctx.id())
            .field("mvec", &self.mvec)
            .finish()
    }
}
