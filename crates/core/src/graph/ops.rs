//! Insert/remove/contains primitives and the skip graph's point operations.
//!
//! The primitives are the building blocks of the paper's algorithms:
//! `insertHelper` (Alg. 2), `removeHelper` (Alg. 12), level-0 linking with
//! the relink optimization (Alg. 3 line 14), upper-level linking
//! (`finishInsert`, Alg. 10), and the eager (non-lazy) logical deletion.
//!
//! Each point operation has one implementation, the hinted one
//! (`insert_with_hint`, `remove_with_hint`, `get_with_hint`): a layered
//! bulk insert or a combiner's sorted run passes a local-map start and a
//! [`HintChain`], and the public operations used when the graph runs
//! without the thread-local layer pass neither, so they search from the
//! head array.

use super::{NodePtr, NodeRef, SearchResult, SkipGraph};
use crate::index::IndexRead;
use crate::node::Node;
use crate::sync::TagPtr;
use instrument::ThreadCtx;
use std::ptr::NonNull;

/// A resumable search frontier for executing a *sorted run* of operations:
/// each hinted operation stores the predecessor vector of its final
/// search here, and the next operation of the run resumes from it instead
/// of the head array (see `SkipGraph::search_hinted`).
///
/// The chain is only valid for the graph it was produced on and for
/// non-descending keys; start a fresh chain per sorted run. Holds raw node
/// pointers, so it is deliberately neither `Send` nor `Sync` and must not
/// outlive the graph.
pub(crate) struct HintChain<K, V> {
    res: Option<SearchResult<K, V>>,
}

impl<K, V> HintChain<K, V> {
    /// An empty chain: the first operation searches from the head array.
    pub(crate) fn new() -> Self {
        Self { res: None }
    }

    /// The level-0 predecessor of the most recent search, when it is a
    /// data node — the "last predecessor" a layered handle tombstones a
    /// removed key to so later jump starts stay near the erased position.
    /// The reference carries the generation captured by the search, so a
    /// predecessor retired since then fails its validation downstream.
    pub(crate) fn last_pred(&self) -> Option<NodeRef<K, V>> {
        let res = self.res.as_ref()?;
        let p = res.preds[0];
        // `is_data` only reads the atomic meta word, so probing a slot
        // that was recycled since the search is race-free; the generation
        // below then keeps a recycled slot from validating.
        if !p.is_null() && unsafe { &*p }.is_data() {
            Some(NodeRef {
                ptr: unsafe { NonNull::new_unchecked(p) },
                gen: res.pred_gens[0],
            })
        } else {
            None
        }
    }

    /// The frontier an operation of `chain`'s run resumes from; a one-off
    /// operation (`None`) has none.
    fn frontier<'c>(chain: &'c Option<&mut Self>) -> Option<&'c SearchResult<K, V>> {
        chain.as_ref()?.res.as_ref()
    }

    /// Leaves `res` as the frontier for the run's next operation; a one-off
    /// operation keeps nothing.
    fn keep(chain: &mut Option<&mut Self>, res: SearchResult<K, V>) {
        if let Some(chain) = chain {
            chain.res = Some(res);
        }
    }
}

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
                // Without reclamation the victim's generation never
                // bumps, so the stale entry keeps answering point reads
                // with the removed key until the stress wall catches the
                // contradiction. See the `bug-injection` feature docs.
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
    /// The publish-after-link index update is in the caller's hands:
    /// `Some(hash)` publishes under the key's [`SkipGraph::index_hash`];
    /// combiner sorted runs pass `None`, collect the linked nodes, and
    /// publish the whole run in one pass via
    /// [`SkipGraph::index_publish_run`].
    pub(crate) fn try_link_level0(
        &self,
        node: NonNull<Node<K, V>>,
        res: &SearchResult<K, V>,
        ctx: &ThreadCtx,
        publish: Option<u64>,
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
            if let Some(hash) = publish {
                self.index_publish_hashed(node, hash, ctx);
            }
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
    pub(crate) fn link_upper(
        &self,
        node_nn: NonNull<Node<K, V>>,
        res: &mut SearchResult<K, V>,
        ctx: &ThreadCtx,
        mut refresh_start: impl FnMut() -> Option<NodePtr<K, V>>,
    ) -> bool {
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

    /// Inserts `key -> value` from the head array, giving the new node an
    /// explicit tower height (levels `0..=height`): the one-off form of the
    /// crate's hinted insert, with no local-map start and no run.
    ///
    /// Under the lazy configuration a logically deleted duplicate is
    /// resurrected in place (Alg. 2); under the non-lazy configuration any
    /// unmarked duplicate fails the insertion. A sparse caller draws
    /// `height` with [`crate::sparse_height`].
    pub fn insert(&self, key: K, value: V, height: u8, ctx: &ThreadCtx) -> bool {
        let hash = self.index_hash(&key);
        self.insert_with_hint(key, value, hash, height, None, None, ctx, None).0
    }

    /// Removes `key`, searching from the head array. Returns whether the
    /// key was present (a successful removal was linearized here).
    pub fn remove(&self, key: &K, ctx: &ThreadCtx) -> bool {
        self.remove_with_hint(key, None, None, ctx)
    }

    /// Whether `key` is present (unmarked, and valid under the lazy
    /// configuration).
    pub fn contains(&self, key: &K, ctx: &ThreadCtx) -> bool {
        self.get_with_hint(key, self.index_hash(key), || None, None, ctx, |_| ())
            .is_some()
    }

    /// Returns a clone of the value mapped to `key`, if present.
    pub fn get(&self, key: &K, ctx: &ThreadCtx) -> Option<V>
    where
        V: Clone,
    {
        // SAFETY: `get_with_hint` hands `read` a present data node under
        // its pin, so its value is initialized and stays alive for the clone.
        self.get_with_hint(key, self.index_hash(key), || None, None, ctx, |node| {
            unsafe { node.value() }.clone()
        })
    }

    /// Inserts `key -> value` (`hash` is the key's
    /// [`SkipGraph::index_hash`]): the body behind the graph's `insert`, a
    /// layered bulk insert and a combiner's sorted run.
    ///
    /// `chain` is the sorted run the operation belongs to (hint chaining):
    /// the search resumes from the run's frontier and leaves its own there
    /// for the next operation. Keys fed to one chain must be
    /// non-descending. `start`, when given, must be a fully inserted node
    /// with key strictly below `key` carrying the caller's own membership
    /// vector (a layered local-map jump-in, e.g. `prev_start`); each level
    /// descends from whichever of chain frontier and start is furthest.
    /// With neither, the search starts at the head array.
    ///
    /// Returns `(inserted, node)`: `node` is the graph node holding the key
    /// after the call — the freshly linked (or lazily resurrected) node, or
    /// the surviving duplicate on a failed non-lazy insert — so layered
    /// callers can refresh their local structures in bulk. A one-off
    /// operation (`chain` is `None`) has no such caller: it captures no
    /// reference and returns `None`.
    ///
    /// With `defer` given, a freshly linked node is *not* published to the
    /// hash index inline — its [`NodeRef`] and hash are pushed into the sink
    /// instead, and the caller publishes the whole sorted run in one
    /// [`SkipGraph::index_publish_run`] pass after the run completes. Lazy
    /// resurrections of existing nodes still publish inline (the helper owns
    /// that transition either way).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn insert_with_hint(
        &self,
        key: K,
        value: V,
        hash: u64,
        height: u8,
        start: Option<NodePtr<K, V>>,
        mut chain: Option<&mut HintChain<K, V>>,
        ctx: &ThreadCtx,
        mut defer: Option<&mut Vec<(NodeRef<K, V>, u64)>>,
    ) -> (bool, Option<NodeRef<K, V>>) {
        debug_assert!(height <= self.config().max_level);
        let _pin = self.pin(ctx);
        let mvec = self.membership_of(ctx.id());
        let lazy = self.config().lazy;
        let run = chain.is_some();
        let mut pending = Some((key, value));
        let mut node: Option<NonNull<Node<K, V>>> = None;
        loop {
            let mut res = {
                let kref: &K = match node {
                    Some(n) => unsafe { (*n.as_ptr()).key() },
                    None => &pending.as_ref().expect("key pending").0,
                };
                self.search_hinted(kref, mvec, start, HintChain::frontier(&chain), !lazy, ctx)
            };
            if res.found {
                let existing = res.succs[0];
                let existing_ref =
                    run.then(|| NodeRef::new(unsafe { NonNull::new_unchecked(existing) }));
                let outcome = if lazy {
                    match self.insert_helper(unsafe { &*existing }, hash, ctx) {
                        Some(outcome) => outcome,
                        None => continue, // became marked; retry the search
                    }
                } else {
                    false // an unmarked duplicate
                };
                if let Some(n) = node.take() {
                    self.discard_unpublished(n, ctx);
                }
                HintChain::keep(&mut chain, res);
                return (outcome, existing_ref);
            }
            let n = *node.get_or_insert_with(|| {
                let (k, v) = pending.take().expect("pending kv");
                self.alloc_node(k, v, ctx, height)
            });
            if !self.try_link_level0(n, &res, ctx, defer.is_none().then_some(hash)) {
                continue;
            }
            let fresh = run.then(|| NodeRef::new(n));
            if let Some(sink) = defer.as_deref_mut() {
                sink.push((fresh.expect("a deferred publish belongs to a run"), hash));
            }
            let _ = self.link_upper(n, &mut res, ctx, || None);
            // `res` still holds strict predecessors of the key (link_upper
            // refreshes keep that invariant), so it is a valid frontier for
            // the run's next, larger-or-equal key.
            HintChain::keep(&mut chain, res);
            return (true, fresh);
        }
    }

    /// Removes `key`: the body behind the graph's `remove` and a
    /// combiner's sorted run; `start` and `chain` as for
    /// [`SkipGraph::insert_with_hint`]. Returns whether a
    /// removal was linearized here. After a successful non-lazy removal
    /// the chain's frontier reflects the post-cleanup position, so
    /// [`HintChain::last_pred`] gives the surviving predecessor.
    pub(crate) fn remove_with_hint(
        &self,
        key: &K,
        start: Option<NodePtr<K, V>>,
        mut chain: Option<&mut HintChain<K, V>>,
        ctx: &ThreadCtx,
    ) -> bool {
        let _pin = self.pin(ctx);
        let mvec = self.membership_of(ctx.id());
        let lazy = self.config().lazy;
        loop {
            let hint = HintChain::frontier(&chain);
            let res = self.search_hinted(key, mvec, start, hint, !lazy, ctx);
            if !res.found {
                HintChain::keep(&mut chain, res);
                return false;
            }
            let node = unsafe { &*res.succs[0] };
            if lazy {
                if let Some(outcome) = self.remove_helper(node, ctx) {
                    HintChain::keep(&mut chain, res);
                    return outcome;
                }
                // Became marked; retry the search.
            } else if self.logical_delete_eager(node, ctx) {
                // Physical cleanup: one relink pass over the key's position,
                // entered where the first search was ("searches performed
                // on behalf of removals physically remove marked nodes").
                let res = self.search_hinted(key, mvec, start, hint, true, ctx);
                HintChain::keep(&mut chain, res);
                return true;
            }
            // Non-lazy, lost the level-0 marking race: retry in case
            // another unmarked holder of the key exists.
        }
    }

    /// Reads `key`: the body behind the graph's `get` and `contains` and a
    /// combiner's sorted run. `read` maps the present node to the answer
    /// (a clone of its value for a get, `()` for a membership test).
    /// `hash` is the key's [`SkipGraph::index_hash`]; `chain` is as for
    /// [`SkipGraph::insert_with_hint`], and `start` is only asked for when
    /// the index does not answer.
    pub(crate) fn get_with_hint<T>(
        &self,
        key: &K,
        hash: u64,
        start: impl FnOnce() -> Option<NodePtr<K, V>>,
        mut chain: Option<&mut HintChain<K, V>>,
        ctx: &ThreadCtx,
        read: impl FnOnce(&Node<K, V>) -> T,
    ) -> Option<T> {
        let _pin = self.pin(ctx);
        // Skip Hash fast path: a generation-valid index entry answers
        // without a descent, and leaves the chain's frontier untouched — it
        // still bounds this key from below, so the run's next
        // (non-descending) operation resumes from it unchanged. The pin
        // keeps a hit node dereferenceable; `read_node` re-checked its
        // generation and state after the pin. Only an inconclusive read
        // pays the search.
        match self.index_read(key, hash, ctx) {
            Some(IndexRead::Hit(node)) => return Some(read(node)),
            Some(IndexRead::Absent(_)) => return None,
            _ => {}
        }
        let mvec = self.membership_of(ctx.id());
        let lazy = self.config().lazy;
        let res = self.search_hinted(key, mvec, start(), HintChain::frontier(&chain), !lazy, ctx);
        // SAFETY: a found search's `succs[0]` is a data node it reached
        // under this pin.
        let node = res.found.then(|| unsafe { &*res.succs[0] });
        // `found` saw the node unmarked; lazily, its valid bit decides.
        let present = node.filter(|node| {
            !lazy || {
                let w0 = node.load_next(0, ctx);
                !w0.marked() && w0.valid()
            }
        });
        let out = present.map(|node| {
            self.index_heal(node, hash, ctx);
            read(node)
        });
        HintChain::keep(&mut chain, res);
        out
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
