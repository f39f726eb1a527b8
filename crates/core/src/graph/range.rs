//! Ordered range scans over the bottom list.
//!
//! Skip graph searches can start from arbitrary positions, which makes
//! range scans natural: locate the lower bound (optionally jumping in from
//! a thread-local start node), then walk the level-0 list until the upper
//! bound. Like [`super::SnapshotIter`], the scan is a weak snapshot: each
//! node's liveness is observed as it is passed.

use super::{NodePtr, PinGuard, SkipGraph};
use crate::index::IndexRead;
use instrument::ThreadCtx;
use std::ops::Bound;

/// Iterator over live `(key, value)` pairs within a key range, in
/// ascending order. Created by [`SkipGraph::range`].
///
/// The iterator holds a reclamation pin for its whole lifetime, so every
/// node it passes stays allocated. With reclamation enabled, yielded
/// references must therefore not outlive the iterator.
pub struct RangeIter<'g, K, V> {
    graph: &'g SkipGraph<K, V>,
    ctx: &'g ThreadCtx,
    cur: NodePtr<K, V>,
    /// `cur` is itself the first candidate (an index-accelerated start
    /// landed *on* the range's first key) rather than the node before it.
    at_cur: bool,
    end: Bound<K>,
    _pin: PinGuard<'g, K, V>,
}

impl<K: Ord + Clone, V> SkipGraph<K, V> {
    /// Scans live pairs in `[start_bound, end_bound)` semantics given by
    /// the two bounds, ascending. `start_hint` is an optional jump-in node
    /// (same contract as search starts: key ≤ the scan's lower bound).
    ///
    /// When the shared hash index is installed and holds a validated live
    /// entry for the bound key itself, the scan starts *at* that node with
    /// no descent at all — the positioning step costs one index probe.
    /// Any other index answer (absent, stale, miss) falls back to the
    /// hinted search.
    pub fn range<'g>(
        &'g self,
        start: Bound<&K>,
        end: Bound<K>,
        start_hint: Option<NodeRefHint<K, V>>,
        ctx: &'g ThreadCtx,
    ) -> RangeIter<'g, K, V> {
        let pin = self.pin(ctx);
        let mvec = self.membership_of(ctx.id());
        let hint = start_hint.map(|h| h.0);
        let indexed = match &start {
            Bound::Included(k) | Bound::Excluded(k) => {
                match self.index_read(k, self.index_hash(k), ctx) {
                    Some(IndexRead::Hit(node)) => Some(node as *const _ as NodePtr<K, V>),
                    _ => None,
                }
            }
            Bound::Unbounded => None,
        };
        // Position `cur` at the last node *before* the range so the
        // iterator's first step lands on the first in-range node — or, on
        // an index hit, directly on the bound key's live holder (included
        // in the scan iff the bound is inclusive).
        let (cur, at_cur) = match &start {
            Bound::Unbounded => (self.head(0, 0), false),
            Bound::Included(k) => {
                if let Some(node) = indexed {
                    (node, true)
                } else {
                    let res = self.search_from(k, mvec, hint, false, ctx);
                    (res.preds[0], false)
                }
            }
            Bound::Excluded(k) => {
                // First node with key > k: start after the holder if the
                // key is present, else after the predecessor.
                if let Some(node) = indexed {
                    (node, false)
                } else {
                    let res = self.search_from(k, mvec, hint, false, ctx);
                    (if res.found { res.succs[0] } else { res.preds[0] }, false)
                }
            }
        };
        RangeIter {
            graph: self,
            ctx,
            cur,
            at_cur,
            end,
            _pin: pin,
        }
    }

    /// Collects the live pairs within the range (convenience wrapper).
    pub fn range_to_vec(
        &self,
        start: Bound<&K>,
        end: Bound<K>,
        ctx: &ThreadCtx,
    ) -> Vec<(K, V)>
    where
        V: Clone,
    {
        self.range(start, end, None, ctx)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// An opaque jump-in hint for [`SkipGraph::range`] (produced by the
/// layered handle from its local structure).
pub struct NodeRefHint<K, V>(pub(crate) NodePtr<K, V>);

impl<'g, K: Ord + Clone, V> Iterator for RangeIter<'g, K, V> {
    type Item = (&'g K, &'g V);

    fn next(&mut self) -> Option<Self::Item> {
        let lazy = self.graph.config().lazy;
        loop {
            let node = if self.at_cur {
                // Index-accelerated start: `cur` is the bound key's own
                // holder — consider it before stepping (its liveness is
                // re-checked below like any other node's).
                self.at_cur = false;
                unsafe { &*self.cur }
            } else {
                let w = unsafe { &*self.cur }.load_next(0, self.ctx);
                let next = w.ptr();
                let node = unsafe { &*next };
                if node.is_tail() {
                    return None;
                }
                self.cur = next;
                node
            };
            let key = unsafe { node.key() };
            let in_range = match &self.end {
                Bound::Unbounded => true,
                Bound::Included(e) => key <= e,
                Bound::Excluded(e) => key < e,
            };
            if !in_range {
                return None;
            }
            let w0 = node.load_next(0, self.ctx);
            if !w0.marked() && (!lazy || w0.valid()) {
                return Some((key, unsafe { node.value() }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GraphConfig;
    use instrument::ThreadCtx;

    fn graph(lazy: bool) -> SkipGraph<u64, u64> {
        let g = SkipGraph::new(GraphConfig::new(2).lazy(lazy).chunk_capacity(512));
        let c = ThreadCtx::plain(0);
        for k in (0..100u64).step_by(2) {
            assert!(g.insert(k, k * 10, g.config().max_level, &c));
        }
        g
    }

    #[test]
    fn inclusive_exclusive_bounds() {
        let g = graph(false);
        let c = ThreadCtx::plain(0);
        let got = g.range_to_vec(Bound::Included(&10), Bound::Excluded(20), &c);
        assert_eq!(got.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![10, 12, 14, 16, 18]);
        let got = g.range_to_vec(Bound::Excluded(&10), Bound::Included(20), &c);
        assert_eq!(got.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![12, 14, 16, 18, 20]);
        // Lower bound between keys.
        let got = g.range_to_vec(Bound::Included(&11), Bound::Excluded(16), &c);
        assert_eq!(got.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![12, 14]);
    }

    #[test]
    fn unbounded_scan_is_full_snapshot() {
        let g = graph(true);
        let c = ThreadCtx::plain(0);
        let got = g.range_to_vec(Bound::Unbounded, Bound::Unbounded, &c);
        assert_eq!(got.len(), 50);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(got[0], (0, 0));
        assert_eq!(got[49], (98, 980));
    }

    #[test]
    fn removed_keys_are_skipped() {
        let g = graph(true);
        let c = ThreadCtx::plain(0);
        assert!(g.remove(&12, &c));
        assert!(g.remove(&14, &c));
        let got = g.range_to_vec(Bound::Included(&10), Bound::Included(16), &c);
        assert_eq!(got.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![10, 16]);
    }

    #[test]
    fn empty_range() {
        let g = graph(false);
        let c = ThreadCtx::plain(0);
        let got = g.range_to_vec(Bound::Included(&11), Bound::Excluded(12), &c);
        assert!(got.is_empty());
        let got = g.range_to_vec(Bound::Included(&1000), Bound::Unbounded, &c);
        assert!(got.is_empty());
    }

    #[test]
    fn values_ride_along() {
        let g = graph(false);
        let c = ThreadCtx::plain(0);
        for (k, v) in g.range(Bound::Unbounded, Bound::Unbounded, None, &c) {
            assert_eq!(*v, *k * 10);
        }
    }
}
