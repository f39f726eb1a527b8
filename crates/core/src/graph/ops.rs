//! Insert/remove/contains primitives and the skip graph's point operations.
//!
//! The primitives are the building blocks of the paper's algorithms:
//! `insertHelper` (Alg. 2), `removeHelper` (Alg. 12), level-0 linking with
//! the relink optimization (Alg. 3 line 14), upper-level linking
//! (`finishInsert`, Alg. 10), and the eager (non-lazy) logical deletion.
//!
//! Each point operation has one loop over them: `insert_from`,
//! `remove_from` and `read_from`. Every unblocked handle runs them — a
//! layered handle from its local-map starts, a bare graph's handle from
//! the head array (no start) — and the blocked map keeps its own loops
//! over blocks.
//!
//! The primitives dereference the node pointers their caller's search
//! reached under the pin it holds (see the graph module's invariant).

use super::{DataRef, PinGuard, SearchResult, SkipGraph};
use crate::node::Node;
use crate::sync::TagPtr;
use instrument::ThreadCtx;
use std::ptr::NonNull;

impl<K: Ord, V> SkipGraph<K, V> {
    /// Alg. 2, `insertHelper`: linearizes an insertion against an existing
    /// node with the goal key. Returns `Some(false)` when the node is an
    /// unmarked valid duplicate, `Some(true)` when the valid bit was flipped
    /// (the node is resurrected — a successful insertion with no new node),
    /// or `None` when the node is marked (caller must clean its local
    /// structures and fall back to a full insert). `hash` is the key's
    /// [`SkipGraph::index_hash`].
    pub(crate) fn insert_helper(&self, node: &Node<K, V>, hash: u64, ctx: &ThreadCtx) -> Option<bool> {
        loop {
            let w0 = node.load_next(0, ctx);
            if w0.marked() {
                return None;
            }
            if w0.valid() {
                return Some(false); // duplicate
            }
            if node.cas_next(0, w0, w0.with_valid(true), ctx).is_ok() {
                // Resurrection is a successful insertion: refresh the
                // index entry so point reads hit this incarnation.
                self.index_publish_hashed(NonNull::from(node), hash, ctx);
                return Some(true); // flipped invalid -> valid
            }
        }
    }

    /// Alg. 12, `removeHelper`: linearizes a removal against an existing
    /// node. `Some(false)` — node already invalid (failed removal);
    /// `Some(true)` — valid bit unset here (successful removal); `None` —
    /// node marked, fall back to a full search.
    pub(crate) fn remove_helper(&self, node: &Node<K, V>, ctx: &ThreadCtx) -> Option<bool> {
        loop {
            let w0 = node.load_next(0, ctx);
            if w0.marked() {
                return None;
            }
            if !w0.valid() {
                return Some(false); // logically deleted already
            }
            // Injected linearizability bug (harness validation only):
            // claim a successful removal without performing the casValid,
            // so the key stays present and later operations contradict the
            // reported removal. See the `bug-injection` feature docs.
            #[cfg(feature = "bug-injection")]
            return Some(true);
            #[cfg(not(feature = "bug-injection"))]
            if node.cas_next(0, w0, w0.with_valid(false), ctx).is_ok() {
                // The node stays linked and remains the unique holder of
                // its key, so its index entry stays too: the read side
                // sees unmarked-invalid and answers authoritative absence
                // in O(1), and a later re-insert resurrects through the
                // entry instead of paying a descent. The entry dies with
                // the node (invalidate-before-retire) or is overwritten
                // by the next incarnation's publish — both within the
                // same probe window a reader uses, so a visible entry is
                // never wrong, only at worst superseded.
                return Some(true);
            }
        }
    }

    /// Non-lazy logical deletion: marks every upper level top-down, then
    /// competes to set the level-0 mark (the linearization point). Returns
    /// whether this call won.
    pub(crate) fn logical_delete_eager(&self, node: &Node<K, V>, ctx: &ThreadCtx) -> bool {
        for level in (1..=node.top_level() as usize).rev() {
            self.help_mark(node, level, ctx);
        }
        loop {
            let w0 = node.load_next(0, ctx);
            if w0.marked() {
                return false;
            }
            if node.cas_next(0, w0, w0.with_mark(), ctx).is_ok() {
                // Injected coherence bug (harness validation only): the
                // winner of an eager delete skips its invalidate duty.
                // The victim's generation bumps only when the node is
                // unlinked from every level and retired, so until then
                // the stale entry answers point reads with the removed
                // key, and the stress wall must catch the contradiction.
                // See the `bug-injection` feature docs.
                #[cfg(not(feature = "bug-injection"))]
                self.index_invalidate(node, ctx);
                return true;
            }
        }
    }

    /// Links `node` into the bottom list between `res.preds[0]` and
    /// `res.succs[0]` with a single CAS, replacing the (possibly non-empty)
    /// chain of marked references captured in `res.middles[0]` — the relink
    /// optimization. Returns whether the CAS succeeded.
    ///
    /// A linked node is published to the index under `hash`, its key's
    /// [`SkipGraph::index_hash`].
    pub(crate) fn try_link_level0(
        &self,
        node: NonNull<Node<K, V>>,
        res: &SearchResult<K, V>,
        ctx: &ThreadCtx,
        hash: u64,
    ) -> bool {
        let m0 = res.middles[0];
        if m0.marked() {
            return false; // predecessor was deleted; caller re-searches
        }
        let node_ref = unsafe { node.as_ref() };
        // Fresh nodes are published unmarked and valid.
        node_ref.store_next(0, TagPtr::clean(res.succs[0]));
        let pred = unsafe { &*res.preds[0] };
        let ok = pred
            .cas_next(0, m0, m0.with_ptr(node.as_ptr()), ctx)
            .is_ok();
        if ok {
            // Publish-after-link: the node is reachable from level 0, so
            // the index may now name it.
            self.index_publish_hashed(node, hash, ctx);
            // The insert substituted the captured marked chain: those
            // nodes are now unlinked at level 0.
            self.note_unlinked_chain(m0.ptr(), res.succs[0], 0, ctx);
        }
        ok
    }

    /// Alg. 10, `finishInsert`: links `node` at levels `1..=top_level` of
    /// its associated skip list. `res` must be a search for the node's key
    /// (it is refreshed in place on CAS failures; `refresh_start` supplies
    /// an updated jump-in point, mirroring `updateStart`). Returns `false`
    /// if the node got marked (or superseded) before all levels were linked.
    pub(crate) fn link_upper<'a>(
        &self,
        node_nn: NonNull<Node<K, V>>,
        res: &mut SearchResult<K, V>,
        ctx: &ThreadCtx,
        mut refresh_start: impl FnMut() -> Option<DataRef<'a, K, V>>,
    ) -> bool
    where
        K: 'a,
        V: 'a,
    {
        let node = unsafe { node_nn.as_ref() };
        let key = unsafe { node.key() };
        let mvec = node.mvec();
        let unlink = !self.config.lazy;
        for level in 1..=node.top_level() as usize {
            let mut spins = 0u64;
            loop {
                spins += 1;
                debug_assert!(spins < 100_000_000, "link_upper livelock at level {level}");
                if res.preds[level].is_null() {
                    // The search that produced `res` started below this
                    // level; redo it from the head array.
                    *res = self.search_from(key, mvec, None, unlink, ctx);
                    if !res.found || res.succs[0] != node_nn.as_ptr() {
                        return false;
                    }
                    continue;
                }
                if res.succs[level] == node_nn.as_ptr() {
                    // The node is already reachable at this level — a
                    // concurrent linker (or a previous life of a
                    // resurrected node) beat us to it. Adopting the search
                    // result anyway would set the node's reference to
                    // itself: a self-successor cycle that livelocks every
                    // traversal of the level. Treat the level as done.
                    break;
                }
                let succ = unsafe { &*res.succs[level] };
                if succ.is_data() && succ.is_marked(0) {
                    // A search walks the upper levels before level 0, so it
                    // can hand out a successor that was alive when passed
                    // and has died since — possibly an older incarnation of
                    // this very key, which cannot be alive beside the node
                    // (linked at level 0 already). Linked in front of it,
                    // the node would leave two nodes with one key in this
                    // list; search again instead, skipping the dead one.
                    *res = self.search_from(key, mvec, refresh_start(), unlink, ctx);
                    if !res.found || res.succs[0] != node_nn.as_ptr() {
                        return false;
                    }
                    continue;
                }
                // Point the node's own level reference at the successor.
                // Unrecorded: initialization of the thread's in-flight node.
                loop {
                    let old = node.load_next_raw(level);
                    if old.marked() {
                        // Marked mid-insertion: abort linking (Alg. 10
                        // lines 10-12: mark as inserted so nobody retries).
                        node.set_inserted();
                        return false;
                    }
                    if node
                        .cas_next_raw(level, old, TagPtr::clean(res.succs[level]))
                        .is_ok()
                    {
                        break;
                    }
                }
                let m = res.middles[level];
                if !m.marked() {
                    let pred = unsafe { &*res.preds[level] };
                    if pred
                        .cas_next(level, m, m.with_ptr(node_nn.as_ptr()), ctx)
                        .is_ok()
                    {
                        self.note_unlinked_chain(m.ptr(), res.succs[level], level, ctx);
                        break; // this level is linked; proceed upward
                    }
                }
                // CAS failed: re-search and retry the level.
                *res = self.search_from(key, mvec, refresh_start(), unlink, ctx);
                if !res.found || res.succs[0] != node_nn.as_ptr() {
                    return false; // node no longer the live holder of the key
                }
            }
        }
        node.set_inserted();
        true
    }

    /// The one insert loop (Alg. 3's `lazyInsert`, or the eager
    /// all-levels insertion), behind every unblocked handle: searches from
    /// `start`, then from `update_start()` (Alg. 9, `updateStart`) after a
    /// lost level-0 link. A holder of the key answers instead: lazily
    /// through Alg. 2 (a resurrection is a successful insert), eagerly as
    /// an unmarked duplicate. A fresh node gets levels `0..=height`
    /// (`hash` is the key's [`SkipGraph::index_hash`]). The loop finishes
    /// the node's upper levels (Alg. 10) unless `local` — the caller maps
    /// the node in a local structure — and the graph is lazy: then the
    /// caller's `getStart` finishes them on demand. Returns the outcome
    /// and the node this call linked; a node allocated for a link that
    /// lost is recycled when a retry finds the key.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn insert_from<'p>(
        &self,
        key: &K,
        value: V,
        hash: u64,
        height: u8,
        local: bool,
        mut start: Option<DataRef<'p, K, V>>,
        mut update_start: impl FnMut() -> Option<DataRef<'p, K, V>>,
        pin: &'p PinGuard<'_, K, V>,
        ctx: &ThreadCtx,
    ) -> (bool, Option<NonNull<Node<K, V>>>)
    where
        K: Clone,
    {
        debug_assert!(height <= self.config.max_level);
        let mvec = self.membership_of(ctx.id());
        let lazy = self.config.lazy;
        let mut pending = Some(value);
        let mut node = None;
        let mut spins = 0u64;
        loop {
            spins += 1;
            debug_assert!(spins < 100_000_000, "insert livelock");
            let mut res = self.search_from(key, mvec, start, !lazy, ctx);
            if let Some(existing) = res.hit(pin) {
                let outcome = if lazy {
                    match self.insert_helper(&existing, hash, ctx) {
                        Some(outcome) => outcome,
                        None => continue, // became marked; retry the search
                    }
                } else {
                    false // an unmarked duplicate
                };
                if let Some(n) = node {
                    self.discard_unpublished(n, ctx);
                }
                return (outcome, None);
            }
            let n = *node.get_or_insert_with(|| {
                let v = pending.take().expect("value pending");
                self.alloc_node(key.clone(), v, ctx, height)
            });
            if !self.try_link_level0(n, &res, ctx, hash) {
                start = update_start(); // Alg. 3 line 15
                continue;
            }
            if !(lazy && local) {
                let _ = self.link_upper(n, &mut res, ctx, &mut update_start);
            }
            return (true, Some(n));
        }
    }

    /// The one remove loop (Alg. 13's `lazyRemove`, or the eager marking
    /// removal), behind every unblocked handle: searches from `start`, and
    /// from `update_start()` after the holder turned out marked (lazy) or
    /// another remover won its level-0 mark (eager). Returns the outcome
    /// and, when an eager removal won here, its cleanup search: one relink
    /// pass over the key's position ("searches performed on behalf of
    /// removals physically remove marked nodes"), whose level-0
    /// predecessor a caller may keep as a hint.
    #[inline]
    pub(crate) fn remove_from<'p>(
        &self,
        key: &K,
        mut start: Option<DataRef<'p, K, V>>,
        mut update_start: impl FnMut() -> Option<DataRef<'p, K, V>>,
        pin: &'p PinGuard<'_, K, V>,
        ctx: &ThreadCtx,
    ) -> (bool, Option<SearchResult<K, V>>) {
        let mvec = self.membership_of(ctx.id());
        let lazy = self.config.lazy;
        let mut spins = 0u64;
        loop {
            spins += 1;
            debug_assert!(spins < 100_000_000, "remove livelock");
            let res = self.search_from(key, mvec, start, !lazy, ctx);
            let Some(node) = res.hit(pin) else {
                return (false, None);
            };
            if lazy {
                if let Some(outcome) = self.remove_helper(&node, ctx) {
                    return (outcome, None);
                }
            } else if self.logical_delete_eager(&node, ctx) {
                let cleanup = self.search_from(key, mvec, start, true, ctx);
                return (true, Some(cleanup));
            }
            start = update_start();
        }
    }

    /// The one point read below the hash layer (Alg. 7), behind every
    /// unblocked handle: one search from
    /// `start`; the node holding `key` if the key is present, republished
    /// to the index under `hash` (its [`SkipGraph::index_hash`]) when a
    /// lost entry made the search necessary.
    #[inline]
    pub(crate) fn read_from<'p>(
        &self,
        key: &K,
        hash: u64,
        start: Option<DataRef<'p, K, V>>,
        pin: &'p PinGuard<'_, K, V>,
        ctx: &ThreadCtx,
    ) -> Option<DataRef<'p, K, V>> {
        let lazy = self.config.lazy;
        let res = self.search_from(key, self.membership_of(ctx.id()), start, !lazy, ctx);
        // `found` saw the node unmarked; lazily, its valid bit decides.
        let node = res.hit(pin).filter(|node| {
            !lazy || {
                let w0 = node.load_next(0, ctx);
                !w0.marked() && w0.valid()
            }
        })?;
        self.index_heal(&node, hash, ctx);
        Some(node)
    }

    /// Removes and returns the smallest present key (priority-queue
    /// `deleteMin`). Walks the bottom list from the head, attempting to
    /// linearize a removal on each live node.
    ///
    /// Unlike map searches (where the lazy protocol leaves physical
    /// removal to substituting inserts), `pop_min` snips marked prefixes
    /// as it walks: under priority-queue usage the minimum region drains
    /// permanently and no insert would ever land there to relink it.
    pub fn pop_min(&self, ctx: &ThreadCtx) -> Option<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let _pin = self.pin(ctx);
        let lazy = self.config().lazy;
        let mut prev = self.head(0, 0);
        loop {
            let prev_ref = unsafe { &*prev };
            let middle = prev_ref.load_next(0, ctx);
            // Walk (and freeze) the dead chain after prev.
            let mut cur = middle.ptr();
            let mut skipped = false;
            loop {
                let node = unsafe { &*cur };
                if !node.is_data() {
                    break;
                }
                let w = node.load_next(0, ctx);
                if w.marked() {
                    cur = w.ptr();
                    skipped = true;
                    continue;
                }
                if lazy && !w.valid() && self.check_retire(node, w, ctx) {
                    cur = node.load_next(0, ctx).ptr();
                    skipped = true;
                    continue;
                }
                break;
            }
            if skipped && !middle.marked() {
                // Best effort: unlink the dead prefix in one CAS.
                if prev_ref.cas_next(0, middle, middle.with_ptr(cur), ctx).is_ok() {
                    self.note_unlinked_chain(middle.ptr(), cur, 0, ctx);
                }
            }
            let node = unsafe { &*cur };
            if node.is_tail() {
                return None;
            }
            let won = if lazy {
                matches!(self.remove_helper(node, ctx), Some(true))
            } else {
                let w0 = node.load_next(0, ctx);
                !w0.marked() && self.logical_delete_eager(node, ctx)
            };
            if won {
                return Some(unsafe { (node.key().clone(), node.value().clone()) });
            }
            prev = cur; // lost the race for this node; move past it
        }
    }
}
