//! Ordered scans over the bottom list.
//!
//! Skip graph searches can start from arbitrary positions, which makes
//! range scans natural: locate the lower bound (a layered handle jumps in
//! from a thread-local start node), then walk the level-0 list until the
//! upper bound. A whole-list iteration is the scan with both bounds open. The scan is a weak snapshot: each
//! node's liveness is observed as it is passed. The scan steps through
//! the core's pinned list walk (`LevelWalk`), so this module forbids
//! `unsafe_code`.

#![forbid(unsafe_code)]

use super::{DataRef, LevelWalk, SkipGraph};
use crate::index::IndexRead;
use instrument::ThreadCtx;
use std::ops::Bound;

/// Iterator over live `(key, value)` pairs within a key range, in
/// ascending order. Created by [`SkipGraph::range`] and
/// [`LayeredHandle::range`](crate::LayeredHandle::range).
///
/// The iterator holds a reclamation pin for its whole lifetime, so every
/// node it passes stays allocated. Yielded references must therefore not
/// outlive the iterator.
pub struct RangeIter<'g, K, V> {
    graph: &'g SkipGraph<K, V>,
    ctx: &'g ThreadCtx,
    walk: LevelWalk<'g, K, V>,
    end: Bound<K>,
}

impl<K: Ord, V> SkipGraph<K, V> {
    /// Scans live pairs in `[start_bound, end_bound)` semantics given by
    /// the two bounds, ascending.
    ///
    /// When the shared hash index is installed and holds a validated live
    /// entry for the bound key itself, the scan starts *at* that node with
    /// no descent at all — the positioning step costs one index probe.
    /// Any other index answer (absent, stale, miss) falls back to a
    /// search from the head array.
    pub fn range<'g>(
        &'g self,
        start: Bound<&K>,
        end: Bound<K>,
        ctx: &'g ThreadCtx,
    ) -> RangeIter<'g, K, V> {
        self.range_from(start, end, None, ctx)
    }

    /// Collects the live keys in ascending order (diagnostic/test helper).
    pub fn keys(&self, ctx: &ThreadCtx) -> Vec<K>
    where
        K: Clone,
    {
        self.range(Bound::Unbounded, Bound::Unbounded, ctx)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// [`Self::range`] whose positioning search, if it needs one, starts
    /// at `hint` (same contract as search starts: key ≤ the scan's lower
    /// bound).
    pub(crate) fn range_from<'g>(
        &'g self,
        start: Bound<&K>,
        end: Bound<K>,
        hint: Option<DataRef<'_, K, V>>,
        ctx: &'g ThreadCtx,
    ) -> RangeIter<'g, K, V> {
        // Start the walk at the last node *before* the range so its first
        // step lands on the first in-range node — or, on an index hit,
        // directly on the bound key's live holder (included in the scan iff
        // the bound is inclusive).
        let walk = self.walk((0, 0), ctx, |pin| {
            let (Bound::Included(k) | Bound::Excluded(k)) = start else {
                return None;
            };
            let included = matches!(start, Bound::Included(_));
            if let Some(IndexRead::Hit(node)) = self.index_read(k, self.index_hash(k), pin, ctx) {
                return Some((node, included));
            }
            let res = self.search_from(k, self.membership_of(ctx.id()), hint, false, ctx);
            // Past an excluded bound key that is present, start after its
            // holder; otherwise after the predecessor.
            // A head predecessor leaves the walk at the list's head.
            match res.hit(pin).filter(|_| !included) {
                Some(holder) => Some((holder, false)),
                None => res.pred(0, pin).map(|pred| (pred, false)),
            }
        });
        RangeIter {
            graph: self,
            ctx,
            walk,
            end,
        }
    }
}

impl<'g, K: Ord, V> Iterator for RangeIter<'g, K, V> {
    type Item = (&'g K, &'g V);

    fn next(&mut self) -> Option<Self::Item> {
        let lazy = self.graph.config().lazy;
        loop {
            // An index-accelerated start yields the bound key's own holder
            // first; its liveness is re-checked below like any other node's.
            let node = self.walk.next()?;
            let key = node.key();
            let in_range = match &self.end {
                Bound::Unbounded => true,
                Bound::Included(e) => key <= e,
                Bound::Excluded(e) => key < e,
            };
            if !in_range {
                return None;
            }
            let w0 = node.load0(self.graph, self.ctx);
            if !w0.marked() && (!lazy || w0.valid()) {
                return Some((key, node.value()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::insert;
    use crate::params::GraphConfig;
    use crate::ConcurrentMap;
    use instrument::ThreadCtx;

    /// The keys of `g.range(start, end, c)`, in scan order.
    fn keys(g: &SkipGraph<u64, u64>, start: Bound<&u64>, end: Bound<u64>) -> Vec<u64> {
        g.range(start, end, &ThreadCtx::plain(0))
            .map(|(k, _)| *k)
            .collect()
    }

    fn graph(lazy: bool) -> SkipGraph<u64, u64> {
        let g = SkipGraph::new(GraphConfig::new(2).lazy(lazy).chunk_capacity(512));
        let c = ThreadCtx::plain(0);
        for k in (0..100u64).step_by(2) {
            assert!(insert(&g, k, k * 10, g.config().max_level, &c));
        }
        g
    }

    #[test]
    fn inclusive_exclusive_bounds() {
        let g = graph(false);
        let got = keys(&g, Bound::Included(&10), Bound::Excluded(20));
        assert_eq!(got, vec![10, 12, 14, 16, 18]);
        let got = keys(&g, Bound::Excluded(&10), Bound::Included(20));
        assert_eq!(got, vec![12, 14, 16, 18, 20]);
        // Lower bound between keys.
        assert_eq!(
            keys(&g, Bound::Included(&11), Bound::Excluded(16)),
            vec![12, 14]
        );
    }

    #[test]
    fn unbounded_scan_is_full_snapshot() {
        let g = graph(true);
        let c = ThreadCtx::plain(0);
        let got: Vec<(u64, u64)> = g
            .range(Bound::Unbounded, Bound::Unbounded, &c)
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(got.len(), 50);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(got[0], (0, 0));
        assert_eq!(got[49], (98, 980));
    }

    #[test]
    fn removed_keys_are_skipped() {
        let g = graph(true);
        let mut h = ConcurrentMap::pin(&g, ThreadCtx::plain(0));
        assert!(h.remove(&12));
        assert!(h.remove(&14));
        assert_eq!(
            keys(&g, Bound::Included(&10), Bound::Included(16)),
            vec![10, 16]
        );
    }

    #[test]
    fn empty_range() {
        let g = graph(false);
        assert!(keys(&g, Bound::Included(&11), Bound::Excluded(12)).is_empty());
        assert!(keys(&g, Bound::Included(&1000), Bound::Unbounded).is_empty());
    }

    #[test]
    fn values_ride_along() {
        let g = graph(false);
        let c = ThreadCtx::plain(0);
        for (k, v) in g.range(Bound::Unbounded, Bound::Unbounded, &c) {
            assert_eq!(*v, *k * 10);
        }
    }
}
