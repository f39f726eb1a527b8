//! The resolver and the local anchor maps.
//!
//! The paper caps tower height and gets away with it because each
//! thread's local map (`getStart`) lands a search next to its target. The
//! blocked map does the same with the *anchor* — not the key — as the unit
//! of locality: it holds one ordered map of anchors per configured thread
//! slot (a [`BTreeLocalMap`] from anchor key to generation-checked
//! [`NodeRef`], found by `ctx.id()`), and every entry point — the
//! handle's point operations and [`BlockedSkipMap::range`] — finds its
//! block through one function, `resolve`:
//!
//! 1. take the slot's greatest anchor `<= key` and validate it under the
//!    operation's pin — generation unchanged (splits and merges retire the
//!    old anchor, which moves it), a data node, level-0 word unmarked and
//!    non-null; an entry that fails is evicted on sight and the next lower
//!    one tried;
//! 2. if its level-0 successor's key is `> key` it *covers* the key: one
//!    node inspected, no search;
//! 3. else jump in: `search_from(key, mvec, Some(anchor), ..)` descends
//!    from the anchor's own tower, the paper's use of its local map;
//! 4. a thread that knows no anchor at or below the key tries the first
//!    anchor on level 0 under the checks of 1. and the cover test of 2.
//!    (the first block covers every key below its successor's, the map's
//!    smallest keys included), and only then descends from a list head.
//!
//! **What a slot holds.** Only anchors whose tower reaches
//! `min(2, max_level)` are sampled — the paper's sparse variant at anchor
//! granularity: with geometric heights that is a quarter of the anchors,
//! each a useful place to jump in from, for a few per cent of the node
//! bytes. A thread records such an anchor when it links it upward (the
//! map's first anchor; the install winner's walk over a split's
//! replacement chain), and when a search shows it one it did not start
//! from: the search's predecessor at the sampling level — the closest
//! sampled anchor below the key on the lists it walked — and, after a
//! descent from a list head, the anchor it landed on. A slot therefore
//! holds, in the main, the anchors of its own thread's lists, as the
//! paper's local maps hold their thread's own nodes: the sum over the
//! slots stays near the number of sampled anchors however many threads
//! read every key. The predecessor rule is what lets a slot that built
//! nothing converge: `search_from` enters at the start anchor's *top*
//! level only, so from a low or distant anchor the walk is long, and it
//! should be paid once. Staleness is bounded as well as size: when a
//! slot's length reaches twice its length after the last sweep (floor
//! `SWEEP_FLOOR`), every entry whose generation moved is dropped.
//!
//! **Why the maps sit in the map.** A scan is `map.range(.., ctx)`: it
//! holds a context, not a handle, so a map in the handle is one scans
//! never see; and a slot outlives its handle, so a re-registered thread
//! starts warm. Two `ThreadCtx` with one id are constructible in safe
//! code, so a slot is a `Mutex` taken with `try_lock` only: a busy or
//! poisoned slot is a miss (the operation descends and records nothing),
//! never a wait — lock-freedom and the deterministic scheduler's yield
//! points are as without it. Slots are 128-byte aligned so two threads'
//! lock words share no line.
//!
//! The maps are accelerators with the index's contract: never an
//! authority. A resolved block is re-checked by the operation itself (a
//! frozen control word sends it to help and resolve again; a publish CAS
//! against an unfrozen word proves coverage).

use super::{BNode, BPtr, BSearch, BlockedSkipMap};
use crate::graph::{DataRef, NodeRef, PinGuard};
use crate::local::BTreeLocalMap;
use instrument::ThreadCtx;
use std::cmp::Ordering as CmpOrdering;
use std::ptr::NonNull;
use std::sync::{Mutex, MutexGuard};

/// A slot's local map is not swept for stale entries below this length.
pub(super) const SWEEP_FLOOR: usize = 1024;

/// `node` is a data node whose level-0 word is unmarked and non-null;
/// returns it with that word's successor.
fn linked_anchor<K>(node: &BNode<K>) -> Option<(&BNode<K>, BPtr<K>)> {
    if !node.is_data() {
        return None;
    }
    let w0 = node.load_next_raw(0);
    (!w0.marked() && !w0.ptr().is_null()).then_some((node, w0.ptr()))
}

/// One thread slot's local structure: the sampled anchors its thread
/// linked or was shown by a search, by anchor key (see the module docs).
pub(super) struct LocalAnchors<K> {
    pub(super) map: BTreeLocalMap<K, NodeRef<K, ()>>,
    /// Length at which the next staleness sweep runs.
    sweep_at: usize,
}

/// A slot on cache lines of its own: taking one thread's lock must not
/// move the line another thread's lock word sits on.
#[repr(align(128))]
pub(super) struct LocalSlot<K>(pub(super) Mutex<LocalAnchors<K>>);

impl<K> Default for LocalSlot<K> {
    fn default() -> Self {
        Self(Mutex::new(LocalAnchors {
            map: BTreeLocalMap::default(),
            sweep_at: SWEEP_FLOOR,
        }))
    }
}

impl<K: Ord + Copy> LocalAnchors<K> {
    /// The greatest recorded anchor `<= key` that passes the liveness
    /// rungs of the validation ladder under the caller's `pin` — its
    /// generation still matches and [`linked_anchor`] passes — with its
    /// level-0 successor. Dead entries met on the way are evicted; a live
    /// anchor that does not cover `key` stays, for its own range.
    fn floor<'p>(
        &mut self,
        key: &K,
        pin: &'p PinGuard<'_, K, ()>,
    ) -> Option<(DataRef<'p, K, ()>, BPtr<K>)> {
        loop {
            let (akey, hint) = self.map.max_lower_equal(key)?;
            let akey = *akey;
            if let Some(node) = hint.node(pin) {
                if let Some((_, succ)) = linked_anchor(&node) {
                    return Some((node, succ));
                }
            }
            self.map.remove(&akey);
        }
    }

    /// Records `anchor`, a node the caller's pinned traversal reached, and
    /// sweeps out every entry whose generation moved once the map has
    /// doubled since the last sweep.
    fn record(&mut self, anchor: NonNull<BNode<K>>) {
        let akey = *unsafe { anchor.as_ref().key() };
        self.map.insert(akey, NodeRef::new(anchor));
        if self.map.len() >= self.sweep_at {
            // The generation word is an atomic projection of an arena
            // slot: readable whatever became of the node.
            self.map.retain(|_, r| r.is_current());
            self.sweep_at = (2 * self.map.len()).max(SWEEP_FLOOR);
        }
    }
}

impl<K, V> BlockedSkipMap<K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// The tower height from which an anchor is sampled into the local
    /// maps: 2, or the configured maximum where towers stop lower (a
    /// `MaxLevel`-1 map would otherwise sample nothing).
    fn sample_level(&self) -> usize {
        2.min(self.graph.config().max_level as usize)
    }

    /// The calling thread's local anchor map, unless the slot is busy (a
    /// second context with this id is inside it) or poisoned. Never waits.
    fn local(&self, ctx: &ThreadCtx) -> Option<MutexGuard<'_, LocalAnchors<K>>> {
        self.local[ctx.id() as usize].0.try_lock().ok()
    }

    /// Records an anchor the calling thread has just linked upward, if it
    /// is sampled. Caller must hold a pin.
    pub(super) fn record_linked(&self, anchor: NonNull<BNode<K>>, ctx: &ThreadCtx) {
        if unsafe { anchor.as_ref() }.top_level() as usize >= self.sample_level() {
            if let Some(mut local) = self.local(ctx) {
                local.record(anchor);
            }
        }
    }

    /// The block responsible for `key` right now — every entry point's way
    /// to its block (see "The local anchor maps" in the module docs): the
    /// thread's greatest live local anchor `<= key` if it covers the key,
    /// else a search that jumps in from that anchor's tower. A thread that
    /// knows nothing at or below the key (or whose slot is busy) takes the
    /// first block if it covers the key, and descends from the head only
    /// if it does not. A search teaches the slot the sampled anchors it
    /// shows.
    /// `None` only when the map holds no data nodes at all. `pin` is the
    /// caller's.
    ///
    /// Keys below a local anchor's own key never resolve to it (the map
    /// order guarantees `anchor.key <= key`) unless it is the first anchor,
    /// whose block covers them; and a closer anchor can only appear above
    /// a covering one by a split of that very block — splits freeze first,
    /// so the operation's own frozen check closes the window between this
    /// resolution and its use.
    pub(super) fn resolve(
        &self,
        key: &K,
        pin: &PinGuard<'_, K, ()>,
        ctx: &ThreadCtx,
    ) -> Option<NonNull<BNode<K>>> {
        let mut local = self.local(ctx);
        let floor = local.as_mut().and_then(|l| l.floor(key, pin));
        // SAFETY: `succ` was read from a live anchor under the caller's pin.
        let covers = |succ: BPtr<K>| unsafe { &*succ }.cmp_key(key) == CmpOrdering::Greater;
        let hit = match floor {
            // Only an anchor the local map named is an anchor hit.
            Some((anchor, succ)) => covers(succ).then(|| {
                ctx.record_anchor_hit();
                NonNull::from(&*anchor)
            }),
            // A thread that knows nothing at or below `key` tries the
            // first block before a head descent: it covers every key
            // below its successor's.
            None => self
                .first_anchor(ctx)
                .filter(|&(_, succ)| covers(succ))
                .map(|(a, _)| a),
        };
        if let Some(anchor) = hit {
            // One node inspected instead of a search (counted as a
            // one-node search, like an index fast-path hit).
            ctx.record_search(1);
            ctx.record_hinted_search(1);
            return Some(anchor);
        }
        let start = floor.map(|(anchor, _)| anchor);
        let (found, sampled_pred) = self.covering_anchor(key, start, ctx);
        if let Some(local) = local.as_mut() {
            // What the search shows that the thread did not start from: its
            // predecessor at the sampling level — the closest sampled
            // anchor below `key` on the lists it walked — and, where it
            // had to come down from a head, the anchor it landed on.
            let start = start.map(|anchor| NonNull::from(&*anchor));
            let passed = NonNull::new(sampled_pred)
                .filter(|p| Some(*p) != start && unsafe { p.as_ref() }.is_data());
            let landed = found.filter(|a| {
                start.is_none() && unsafe { a.as_ref() }.top_level() as usize >= self.sample_level()
            });
            for shown in [passed, landed].into_iter().flatten() {
                local.record(shown);
            }
        }
        found
    }

    /// The first node on level 0 with its successor, if it passes
    /// [`linked_anchor`]. Caller must hold a pin.
    fn first_anchor(&self, ctx: &ThreadCtx) -> Option<(NonNull<BNode<K>>, BPtr<K>)> {
        // SAFETY: heads live as long as the graph; a head's level-0 word
        // always names a node (the tail at least), which the caller's pin
        // keeps readable.
        let head = unsafe { &*self.graph.head(0, self.graph.membership_of(ctx.id())) };
        let first = unsafe { &*head.load_next_raw(0).ptr() };
        linked_anchor(first).map(|(node, succ)| (NonNull::from(node), succ))
    }

    /// [`Self::resolve`] for the paths that only read the block — point
    /// lookups and scan starts. The two differ in the bug-injection build
    /// alone.
    ///
    /// Injected bug (`--features bug-injection`, maps whose towers are not
    /// sparse: the `anchor_blocked_sg` lane, where every anchor is sampled;
    /// `blocked_sg` runs the scan workload's sparse towers and carries the
    /// lost insert instead, so each stress lane carries exactly one live
    /// fault): trust the local anchor *without* the covering
    /// check. A read through a live anchor whose key range moved to a
    /// split-off sibling the thread has never seen then scans the wrong
    /// block and reports a present key absent: the stale miss the
    /// deterministic wall must catch. Reads only — a severed write would
    /// publish outside the coverage invariant and corrupt the level-0
    /// order itself, turning the detectable lie into a structural
    /// livelock.
    #[inline]
    pub(super) fn resolve_read(
        &self,
        key: &K,
        pin: &PinGuard<'_, K, ()>,
        ctx: &ThreadCtx,
    ) -> Option<NonNull<BNode<K>>> {
        #[cfg(feature = "bug-injection")]
        if !self.graph.config().sparse {
            if let Some((anchor, _)) = self.local(ctx).and_then(|mut l| l.floor(key, pin)) {
                return Some(NonNull::from(&*anchor));
            }
        }
        self.resolve(key, pin, ctx)
    }

    /// The search behind [`Self::resolve`]: jumps in from `start`, a live
    /// anchor with key `<= key`, or descends from the head. Returns the
    /// block responsible for `key` and the search's predecessor at the
    /// sampling level (null where the search entered below that level).
    fn covering_anchor(
        &self,
        key: &K,
        start: Option<DataRef<'_, K, ()>>,
        ctx: &ThreadCtx,
    ) -> (Option<NonNull<BNode<K>>>, BPtr<K>) {
        let mvec = self.graph.membership_of(ctx.id());
        let res = self.graph.search_from(key, mvec, start, false, ctx);
        let sampled_pred = res.preds[self.sample_level()];
        (self.covering_of(&res, key, mvec, ctx), sampled_pred)
    }

    /// The block responsible for `key` right now, given a search for it:
    /// the last data anchor with key `<= key` on the raw level-0 chain
    /// (marked anchors included — a frozen block still owns its keys until
    /// replaced), or the first data anchor when every anchor key exceeds
    /// `key` (the first block covers `-inf`). `None` only when the map
    /// holds no data nodes at all.
    fn covering_of(
        &self,
        res: &BSearch<K>,
        key: &K,
        mvec: u32,
        ctx: &ThreadCtx,
    ) -> Option<NonNull<BNode<K>>> {
        if res.found {
            return NonNull::new(res.succs[0]);
        }
        let mut best: Option<NonNull<BNode<K>>> = None;
        let mut cur = res.preds[0];
        if cur.is_null() {
            cur = self.graph.head(0, mvec);
        }
        loop {
            let node = unsafe { &*cur };
            match node.cmp_key(key) {
                CmpOrdering::Greater => break,
                _ => {
                    if node.is_data() {
                        best = Some(unsafe { NonNull::new_unchecked(cur) });
                    }
                }
            }
            let next = node.load_next(0, ctx).ptr();
            if next.is_null() {
                break;
            }
            cur = next;
        }
        if best.is_some() {
            return best;
        }
        // Every anchor key exceeds `key`: the first data anchor (live or
        // dying) covers it.
        let mut cur = self.graph.head(0, mvec);
        loop {
            let node = unsafe { &*cur };
            if node.is_tail() {
                return None;
            }
            if node.is_data() {
                return Some(unsafe { NonNull::new_unchecked(cur) });
            }
            cur = node.load_next(0, ctx).ptr();
        }
    }
}
