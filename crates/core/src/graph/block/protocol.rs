//! The split/merge protocol.
//!
//! `help_split` is idempotent and runs on every thread that observes the
//! frozen bit: snapshot the survivors (immutable once frozen), mark the
//! anchor's tower top-down under the marked-pointer protocol, publish the
//! replacement block(s) through the forward word (first CAS wins; losers
//! discard their candidates unpublished), and install the winner by
//! swinging the predecessor's level-0 reference. The migration is
//! invisible to readers: a key present in the frozen block is present in
//! its replacement, and point operations never read a frozen snapshot —
//! they help first and retry, so the lookup always lands on the live
//! incarnation. The dead anchor's retirement bumps its generation, so
//! cached [`NodeRef`]-based block hints fail validation instead of
//! resurrecting a migrated block.
//!
//! Every outcome of a frozen block is canonicalized through its *forward
//! word*: a replacement chain head (any pointer `> 1`), or the [`MERGED`]
//! sentinel claiming the no-survivor unlink. Helpers that lose the CAS
//! adopt the winner's decision.

use super::storage::{
    claimed_bit, is_frozen, present_bit, slot_mask, CLAIMED_SHIFT, MAX_BLOCK_CAP, MERGED,
    PREFIX_SHIFT,
};
use super::{BNode, BPtr, BSearch, BlockedSkipMap};
use crate::graph::SearchResult;
use crate::sync::TagPtr;
use instrument::ThreadCtx;
use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::ptr::NonNull;

impl<K, V> BlockedSkipMap<K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// Helps every dying data anchor on a marked level-0 chain
    /// (exclusive of `end`). In the blocked map a marked data node is
    /// always frozen — marking only ever happens inside [`Self::help_split`].
    fn help_marked_chain(&self, first: BPtr<K>, end: BPtr<K>, ctx: &ThreadCtx) {
        let mut cur = first;
        while cur != end && !cur.is_null() {
            let node = unsafe { &*cur };
            if node.is_data() {
                self.help_split(unsafe { NonNull::new_unchecked(cur) }, ctx);
            }
            cur = node.load_next_raw(0).ptr();
        }
    }

    /// Creates the map's first anchor, seeded with `(key, value)` already
    /// published in its block; the level-0 link CAS is the insert's
    /// linearization point. Only succeeds while the bottom list is
    /// completely empty — any concurrent anchor makes this return `false`
    /// so the caller re-resolves coverage. Never substitutes a marked
    /// chain: snipping a frozen anchor here would race its pending
    /// replacement, so frozen residue is helped out of the way instead.
    pub(super) fn link_anchor(&self, key: K, value: V, ctx: &ThreadCtx) -> bool {
        let mvec = self.graph.membership_of(ctx.id());
        let mut pending: Option<NonNull<BNode<K>>> = None;
        let linked = loop {
            let mut res = self.graph.search_from(&key, mvec, None, false, ctx);
            let succ = res.succs[0];
            if res.found
                || !unsafe { &*res.preds[0] }.is_head()
                || !unsafe { &*succ }.is_tail()
            {
                break false; // map is no longer empty: insert via coverage
            }
            let m0 = res.middles[0];
            if m0.ptr() != succ {
                self.help_marked_chain(m0.ptr(), succ, ctx);
                continue;
            }
            let node = match pending {
                Some(n) => n,
                None => {
                    let n = self.graph.alloc_node(key, (), ctx, self.anchor_height());
                    let blk = unsafe { self.blk(n) };
                    unsafe { blk.write(0, (key, value)) };
                    blk.control()
                        .store(present_bit(0) | claimed_bit(0) | (1 << PREFIX_SHIFT));
                    pending = Some(n);
                    n
                }
            };
            unsafe { node.as_ref() }.store_next(0, TagPtr::clean(succ));
            let pred = unsafe { &*res.preds[0] };
            if pred
                .cas_next(0, m0, m0.with_ptr(node.as_ptr()), ctx)
                .is_ok()
            {
                pending = None;
                self.graph.link_upper(node, &mut res, ctx, || None);
                self.record_linked(node, ctx);
                break true;
            }
        };
        if let Some(n) = pending {
            self.graph.discard_unpublished(n, ctx);
        }
        linked
    }

    /// Builds a replacement block holding `entries` (sorted, nonempty),
    /// its level-0 reference already pointing at `next`. The node is
    /// unpublished until an install CAS makes it reachable.
    pub(super) fn build_block(
        &self,
        entries: &[(K, V)],
        next: TagPtr<BNode<K>>,
        ctx: &ThreadCtx,
    ) -> NonNull<BNode<K>> {
        let n = entries.len();
        debug_assert!(n >= 1 && n <= self.cap);
        let node = self
            .graph
            .alloc_node(entries[0].0, (), ctx, self.anchor_height());
        let blk = unsafe { self.blk(node) };
        for (i, e) in entries.iter().enumerate() {
            unsafe { blk.write(i, *e) };
        }
        let m = slot_mask(n);
        blk.control()
            .store(m | (m << CLAIMED_SHIFT) | (n << PREFIX_SHIFT));
        unsafe { node.as_ref() }.store_next(0, next);
        node
    }

    /// Replaces (or, with no survivors, unlinks) a frozen block.
    /// Idempotent: every thread that observes the frozen bit runs this to
    /// completion; CAS losers simply observe the winner's progress.
    ///
    /// One descent is the record of a split: after the marks, a search
    /// for the dead anchor's own key over its own membership vector yields
    /// the frontier around it, where the install, [`Self::unlink_upper`]
    /// and [`Self::link_replacement`] start — never at a list head. A stale
    /// entry (predecessor retired, reference marked, CAS lost) re-descends.
    pub(super) fn help_split(&self, anchor: NonNull<BNode<K>>, ctx: &ThreadCtx) {
        let f = unsafe { anchor.as_ref() };
        let blk = unsafe { self.blk(anchor) };
        let frozen_w = blk.control().load();
        debug_assert!(is_frozen(frozen_w), "help_split on a live block");

        // (a) The survivor set, identical in every helper.
        let mut buf = [MaybeUninit::uninit(); MAX_BLOCK_CAP];
        let survivors = blk.sorted_entries(frozen_w, &mut buf);

        // (b) Mark the tower top-down, then level 0; after the level-0
        // mark the anchor's successor is stable.
        let top = f.top_level() as usize;
        for level in (1..=top).rev() {
            self.graph.help_mark(f, level, ctx);
        }
        self.graph.help_mark(f, 0, ctx);
        let succ0 = f.load_next_raw(0).ptr();

        // (c) Resolve the canonical replacement through the forward word:
        // first publisher wins, losers free their never-published builds.
        // *Every* outcome goes through the word — a merge (no survivors)
        // claims it with [`MERGED`].
        let replacement: Option<NonNull<BNode<K>>> = {
            let fwd = blk.forward().load();
            if fwd > MERGED {
                Some(unsafe { NonNull::new_unchecked(fwd as BPtr<K>) })
            } else if fwd == MERGED {
                None // merge decided: the install is a plain unlink
            } else if survivors.is_empty() {
                match blk.forward().compare_exchange(0, MERGED) {
                    Ok(_) => None,
                    Err(winner) => {
                        (winner > MERGED).then(|| unsafe { NonNull::new_unchecked(winner as BPtr<K>) })
                    }
                }
            } else {
                let tail = TagPtr::clean(succ0);
                let (n1, n2) = if survivors.len() > self.cap / 2 {
                    let mid = survivors.len().div_ceil(2);
                    let second = self.build_block(&survivors[mid..], tail, ctx);
                    let first = self.build_block(
                        &survivors[..mid],
                        TagPtr::clean(second.as_ptr()),
                        ctx,
                    );
                    (first, Some(second))
                } else {
                    (self.build_block(survivors, tail, ctx), None)
                };
                match blk.forward().compare_exchange(0, n1.as_ptr() as usize) {
                    Ok(_) => Some(n1),
                    Err(winner) => {
                        self.graph.discard_unpublished(n1, ctx);
                        if let Some(n2) = n2 {
                            self.graph.discard_unpublished(n2, ctx);
                        }
                        (winner > MERGED).then(|| unsafe { NonNull::new_unchecked(winner as BPtr<K>) })
                    }
                }
            }
        };
        let target = replacement.map_or(succ0, NonNull::as_ptr);

        // (d) Descend once, then install: swing the level-0 reference
        // naming the frozen anchor (`preds[0]`'s, or a dying anchor's on
        // the chain behind it) to the replacement chain, or straight to
        // the successor for a merge. Exactly one CAS succeeds; that winner
        // owns the post-install duties.
        let key = unsafe { f.key() };
        let descend = || self.graph.search_from(key, f.mvec(), None, false, ctx);
        let mut res = descend();
        let won_install = 'install: loop {
            let Some(mut p) = res.carried_pred(0) else {
                res = descend();
                continue;
            };
            loop {
                let pred = unsafe { &*p };
                let w0 = pred.load_next(0, ctx);
                if w0.ptr() == anchor.as_ptr() {
                    if w0.marked() {
                        // The predecessor is itself a dying frozen anchor;
                        // its replacement will take over the reference to
                        // us, so help it first and descend again.
                        debug_assert!(pred.is_data());
                        self.help_split(unsafe { NonNull::new_unchecked(p) }, ctx);
                    } else if pred.cas_next(0, w0, w0.with_ptr(target), ctx).is_ok() {
                        break 'install true;
                    }
                    res = descend();
                    continue 'install;
                }
                // SAFETY: non-null, reached under our pin. The tail is greater than any key.
                if w0.ptr().is_null() || unsafe { &*w0.ptr() }.cmp_key(key).is_gt() {
                    break 'install false; // already installed by another helper
                }
                p = w0.ptr();
            }
        };

        if !won_install {
            // The install is already decided, but the winner may still be
            // mid-duties (or parked by the scheduler). Finishing the
            // upper-level unlink here keeps every helper independently
            // live: a frozen anchor left on upper levels keeps covering
            // searches landing on it, since its own `next0` bypasses the
            // replacement chain.
            self.unlink_upper(anchor, &mut res, ctx);
            return;
        }

        // (e) Winner duties. The dead anchor's generation must move so
        // cached block hints go stale: its retirement bumps it.
        self.graph.note_unlinked_chain(anchor.as_ptr(), succ0, 0, ctx);
        self.unlink_upper(anchor, &mut res, ctx);

        // The install winner links the replacement *chain* — one or two
        // blocks — upward. The chain is recovered by walking level-0
        // references from the canonical first block. By the time we walk, a
        // reference may already name a chain block's *own* replacement
        // (it can fill and split the moment the install lands), whose
        // installer is linking it concurrently; `link_replacement`
        // tolerates the duplicate. The walk ends at the frozen block's old
        // successor (or its stand-in: any non-data node, marked reference,
        // or key at/above the old successor's). A marked reference means
        // the chain block itself is already dying; its replacement's
        // installer owns everything past it, so the walk stops —
        // best-effort, the descent still finds unlinked blocks.
        if let Some(n1) = replacement {
            let succ_key: Option<K> = {
                let s = unsafe { &*succ0 };
                s.is_data().then(|| *unsafe { s.key() })
            };
            let mut cur = n1;
            loop {
                let w = unsafe { cur.as_ref() }.load_next_raw(0);
                self.link_replacement(cur, f.mvec(), &mut res, ctx);
                self.record_linked(cur, ctx);
                if w.marked() || w.ptr().is_null() || w.ptr() == succ0 {
                    break;
                }
                let next = unsafe { &*w.ptr() };
                if !next.is_data()
                    || succ_key.is_some_and(|s| next.cmp_key(&s) != CmpOrdering::Less)
                {
                    break;
                }
                cur = unsafe { NonNull::new_unchecked(w.ptr()) };
            }
        }
    }

    /// Links a freshly installed replacement block at its upper tower
    /// levels (best effort: if the block died or was superseded already,
    /// skip it) through the split's frontier `res`, then moves the frontier
    /// past it: the chain's next block follows its left neighbour without
    /// a search. An entry is only *tried* — the link CAS fails unless the
    /// list still reads as `res` says, and `link_upper` then descends
    /// afresh. What no CAS checks is checked here, else the block pays its
    /// own descent: it joins the frontier's lists (`alloc_node` stamps the
    /// *builder's* vector), nobody began linking it (a chain block that
    /// already split hands the walk its own replacement), and `res`
    /// brackets its key (a first block's replacement may undercut the dead
    /// anchor's; a descent after the install may stop at a younger block).
    fn link_replacement(
        &self,
        node: NonNull<BNode<K>>,
        dead_mvec: u32,
        res: &mut BSearch<K>,
        ctx: &ThreadCtx,
    ) {
        let n = unsafe { node.as_ref() };
        let top = n.top_level() as usize;
        if top == 0 {
            return; // height 0 is born `inserted` (`Node::new_data`)
        }
        let key = unsafe { n.key() };
        // SAFETY: a full descent leaves no entry null, and the caller's pin covers them.
        let carried = n.mvec() == dead_mvec
            && n.load_next_raw(1).ptr().is_null()
            && (1..=top).all(|l| unsafe {
                (*res.preds[l]).cmp_key(key).is_lt() && (*res.succs[l]).cmp_key(key).is_ge()
            });
        if !carried {
            // An empty result makes `link_upper` search for the block itself.
            self.graph.link_upper(node, &mut SearchResult::empty(), ctx, || None);
        } else if self.graph.link_upper(node, res, ctx, || None) {
            // (Where `link_upper` searched again, `succs[l]` names the block.)
            for l in (1..=top).filter(|&l| res.succs[l] != node.as_ptr()) {
                res.preds[l] = node.as_ptr();
                res.middles[l] = TagPtr::clean(res.succs[l]); // as `link_upper` wrote it
            }
        }
    }

    /// Physically unlinks a dead anchor from levels `1..=top` of its
    /// associated list. Per level: walk from the predecessor the split's
    /// frontier `res` carries, excising *every* dying anchor encountered
    /// on the way (their marked references are frozen, so the splice
    /// target is stable); if the anchor is not found the level was never
    /// linked or already unlinked — give up (the safe leak mirrors
    /// `link_upper`'s abort path). Excising dead predecessors ourselves
    /// instead of helping their own splits is what keeps this loop live:
    /// two dying anchors that are each other's upper-level predecessors
    /// would otherwise spin forever, since a helper whose install CAS is
    /// already decided never reaches the other's unlink duties. Only a
    /// thread's own successful CAS reports the unlink, so retirement
    /// accounting never double-counts. A carried predecessor that was
    /// retired or died, or a lost splice, re-descends; a splice of the
    /// carried reference is written back, so `res` stays a true search
    /// result for `link_replacement`.
    fn unlink_upper(&self, anchor: NonNull<BNode<K>>, res: &mut BSearch<K>, ctx: &ThreadCtx) {
        let f = unsafe { anchor.as_ref() };
        let key = unsafe { f.key() };
        let descend = || self.graph.search_from(key, f.mvec(), None, false, ctx);
        for level in 1..=f.top_level() as usize {
            // The anchor is fully marked, so its level reference is frozen.
            debug_assert!(f.load_next_raw(level).marked());
            'level: loop {
                let Some(mut p) = res.carried_pred(level) else {
                    *res = descend();
                    continue;
                };
                loop {
                    let pred = unsafe { &*p };
                    let w = pred.load_next(level, ctx);
                    if w.ptr().is_null() {
                        break 'level;
                    }
                    if w.marked() {
                        // `pred` died under our feet; a fresh descent stops
                        // before it, so the next pass excises it first.
                        *res = descend();
                        continue 'level;
                    }
                    let nref = unsafe { &*w.ptr() };
                    if nref.is_tail() || nref.cmp_key(key) == CmpOrdering::Greater {
                        break 'level; // not on this level (anymore)
                    }
                    let nw = nref.load_next_raw(level);
                    if nref.is_data() && nw.marked() {
                        // A dying anchor (ours or another's): its marked
                        // reference is frozen, so splice it out here.
                        if pred.cas_next(level, w, w.with_ptr(nw.ptr()), ctx).is_err() {
                            *res = descend();
                            continue 'level;
                        }
                        self.graph.note_unlinked_chain(w.ptr(), nw.ptr(), level, ctx);
                        if p == res.preds[level] && w == res.middles[level] {
                            // The rest of that frozen chain still ends at `succs[level]`.
                            res.middles[level] = w.with_ptr(nw.ptr());
                        }
                        if w.ptr() == anchor.as_ptr() {
                            break 'level;
                        }
                        continue; // keep walking from `pred`
                    }
                    p = w.ptr();
                }
            }
        }
    }
}
