//! Structural introspection.
//!
//! [`SkipGraph::memory_stats`] walks the bottom list once and reports its
//! physical composition — live/invalid/marked node counts — beside the
//! arena and index counters, with no allocation: diagnostics, tests of
//! the lazy protocol (e.g. "a long commission period leaves invalid nodes
//! physically present"; the paper discusses exactly this LC-WH overhead)
//! and sampling loops all use it. [`SkipGraph::level_lengths`] walks every
//! list of every level; [`SkipGraph::arena_sizes`] counts allocations per
//! thread. Both walks step through the core's pinned list walk
//! (`LevelWalk`), so a sampler never follows the link of a slot recycled
//! under it, and this module forbids `unsafe_code`.

#![forbid(unsafe_code)]

use super::SkipGraph;
use crate::mvec::list_suffix;
use crate::node::MAX_HEIGHT;
use instrument::ThreadCtx;

impl<K: Ord, V> SkipGraph<K, V> {
    /// Physically linked nodes per level (marked ones included), summed
    /// over all lists of that level; levels above `max_level` read zero.
    /// Level 0 equals [`MemoryStats::physical`]. One walk of every list
    /// under one pin of `ctx`'s thread slot (which no other thread may be
    /// using), so counts are approximate under concurrency.
    pub fn level_lengths(&self, ctx: &ThreadCtx) -> [usize; MAX_HEIGHT] {
        let _pin = self.pin(ctx);
        let mut lengths = [0; MAX_HEIGHT];
        for level in 0..=self.config().max_level {
            for suffix in 0..(1u32 << level) {
                for node in self.walk((level, suffix), ctx, |_| None) {
                    debug_assert_eq!(list_suffix(self.mvec_of(&node), level), suffix);
                    lengths[level as usize] += 1;
                }
            }
        }
        lengths
    }

    /// Zero-allocation memory snapshot: one bottom-list walk plus fixed-size
    /// arena counters, safe to call from a sampling loop that runs under a
    /// thread slot of its own (the walk pins `ctx`'s slot). Counts are
    /// approximate under concurrency (a single walk, not an atomic
    /// snapshot).
    pub fn memory_stats(&self, ctx: &ThreadCtx) -> MemoryStats {
        let (mut live, mut invalid, mut marked) = (0, 0, 0);
        for node in self.walk((0, 0), ctx, |_| None) {
            let w = node.load0(self, ctx);
            if w.marked() {
                marked += 1;
            } else if !w.valid() {
                invalid += 1;
            } else {
                live += 1;
            }
        }
        let mut height_histogram = [0usize; MAX_HEIGHT];
        let mut allocated_bytes = 0;
        let mut resident_bytes = 0;
        let mut free_slots = 0;
        let mut free_bytes = 0;
        let mut recycled_slots = 0;
        for bank in self.arenas.iter().map(|b| &b.0) {
            bank.histogram_into(&mut height_histogram);
            allocated_bytes += bank.allocated_bytes();
            resident_bytes += bank.mapped_bytes();
            free_slots += bank.free_slots();
            free_bytes += bank.free_bytes();
            recycled_slots += bank.recycled();
        }
        // The index's slot arrays are part of the structure's memory
        // footprint: count them in both totals (they are eagerly
        // allocated, hence resident).
        let index_bytes = self.index().map_or(0, |i| i.bytes());
        allocated_bytes += index_bytes;
        resident_bytes += index_bytes;
        MemoryStats {
            live,
            invalid,
            marked,
            allocated: height_histogram.iter().sum(),
            allocated_bytes,
            resident_bytes,
            index_bytes,
            index_entries: self.index().map_or(0, |i| i.published_entries()),
            index_retired_entries: self.index().map_or(0, |i| i.retired_entries()),
            index_capacity: self.index().map_or(0, |i| i.capacity()),
            height_histogram,
            limbo_nodes: self.reclaim.limbo_nodes(),
            retired_nodes: self.reclaim.retired_total(),
            global_epoch: self.reclaim.global_epoch(),
            epoch_advances: self.reclaim.epoch_advances(),
            recycled_slots,
            free_slots,
            free_bytes,
        }
    }
}

/// The structure's physical composition: live/dead composition of the
/// bottom list plus per-height allocation counts and byte usage of the
/// size-class arenas. `Copy`, fixed size, no heap traffic — built for
/// per-sample observability of the truncated-tower layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryStats {
    /// Unmarked, valid data nodes in the bottom list (the abstract set).
    pub live: usize,
    /// Unmarked but invalid nodes (logically deleted, commission pending).
    pub invalid: usize,
    /// Marked nodes still physically linked in the bottom list.
    pub marked: usize,
    /// Data nodes ever allocated, all threads and size classes (monotonic;
    /// includes physically unlinked and never-published nodes).
    pub allocated: usize,
    /// Bytes consumed by allocated node slots (header + truncated tower).
    pub allocated_bytes: usize,
    /// Bytes of arena chunk storage mapped (first-touch resident bound).
    pub resident_bytes: usize,
    /// Bytes held by the shared hash index: 16 per slot of capacity plus
    /// the per-thread counter stripes (zero when no index is installed).
    /// Already included in `allocated_bytes` and `resident_bytes`.
    pub index_bytes: usize,
    /// Index entries ever published (monotonic; republishing an existing
    /// key counts again).
    pub index_entries: usize,
    /// Index entries retired by explicit invalidation (monotonic;
    /// tombstoned by removals and retire-path invalidation — stale
    /// entries dropped by readers count here too).
    pub index_retired_entries: usize,
    /// Slots in the index's one array (zero when no index is installed).
    /// `index_entries - index_retired_entries` over this capacity
    /// approximates the load factor; the exact composition — entries,
    /// tombstones, probe-length histogram — comes from
    /// [`SkipGraph::index_occupancy`].
    pub index_capacity: usize,
    /// Allocated nodes per tower height (`[h]` = nodes with `top_level == h`).
    pub height_histogram: [usize; MAX_HEIGHT],
    /// Retired nodes awaiting their grace period on limbo lists.
    pub limbo_nodes: usize,
    /// Nodes ever retired (monotonic; `retired_nodes - limbo_nodes` have
    /// been returned to the free lists or recycled).
    pub retired_nodes: usize,
    /// The reclaimer's current global epoch.
    pub global_epoch: usize,
    /// Successful epoch advancements (equals `global_epoch` for the life
    /// of one graph; kept separate for instrumented diffing).
    pub epoch_advances: usize,
    /// Allocations that were served by recycling a reclaimed slot instead
    /// of carving a fresh one (monotonic).
    pub recycled_slots: usize,
    /// Reclaimed slots currently parked on arena free lists.
    pub free_slots: usize,
    /// Bytes represented by those parked slots (header + truncated tower,
    /// per size class).
    pub free_bytes: usize,
}

impl MemoryStats {
    /// Total nodes physically present in the bottom list.
    pub fn physical(&self) -> usize {
        self.live + self.invalid + self.marked
    }

    /// Allocated nodes that are dead weight (not live in the abstract set).
    pub fn dead(&self) -> usize {
        self.allocated.saturating_sub(self.live)
    }

    /// Mean allocated bytes per node (0.0 when nothing is allocated).
    pub fn bytes_per_node(&self) -> f64 {
        if self.allocated == 0 {
            0.0
        } else {
            self.allocated_bytes as f64 / self.allocated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::insert;
    use crate::params::GraphConfig;
    use crate::ConcurrentMap;

    #[test]
    fn counts_classify_lazy_states() {
        let g: SkipGraph<u64, u64> = SkipGraph::new(
            GraphConfig::new(2)
                .lazy(true)
                .commission_cycles(u64::MAX)
                .chunk_capacity(256),
        );
        let c = ThreadCtx::plain(0);
        let mut h = ConcurrentMap::pin(&g, ThreadCtx::plain(0));
        for k in 0..30u64 {
            assert!(insert(&g, k, k, 0, &c));
        }
        for k in 0..10u64 {
            assert!(h.remove(&k));
        }
        let s = g.memory_stats(&c);
        assert_eq!(s.live, 20);
        // Commission never expires: removed nodes stay invalid, unmarked.
        assert_eq!(s.invalid, 10);
        assert_eq!(s.marked, 0);
        assert_eq!(s.physical(), 30);
        assert_eq!(g.level_lengths(&c)[0], 30);
        assert_eq!(s.allocated, 30);
    }

    #[test]
    fn eager_removal_physically_shrinks() {
        let g: SkipGraph<u64, u64> = SkipGraph::new(GraphConfig::new(2).chunk_capacity(256));
        let c = ThreadCtx::plain(0);
        let mut h = ConcurrentMap::pin(&g, ThreadCtx::plain(0));
        for k in 0..30u64 {
            assert!(insert(&g, k, k, 0, &c));
        }
        for k in 0..10u64 {
            assert!(h.remove(&k));
        }
        let s = g.memory_stats(&c);
        assert_eq!(s.live, 20);
        assert_eq!(s.invalid, 0);
        assert_eq!(s.marked, 0, "eager cleanup unlinked the removed nodes");
        assert_eq!(g.arena_sizes(), [30, 0], "arena never shrinks");
    }

    #[test]
    fn per_level_population() {
        let g: SkipGraph<u64, u64> = SkipGraph::new(GraphConfig::new(8).chunk_capacity(1024));
        let c = ThreadCtx::plain(0);
        let max = g.config().max_level;
        for k in 0..100u64 {
            assert!(insert(&g, k, k, max, &c));
        }
        let lengths = g.level_lengths(&c);
        // Full-height towers: every level holds every node; no list
        // exists above `max_level`.
        for (level, &n) in lengths.iter().enumerate() {
            let want = if level <= max as usize { 100 } else { 0 };
            assert_eq!(n, want, "level {level}");
        }
    }

    #[test]
    fn memory_stats_tracks_height_classes_and_bytes() {
        let g: SkipGraph<u64, u64> = SkipGraph::new(
            GraphConfig::new(8)
                .lazy(true)
                .commission_cycles(u64::MAX)
                .chunk_capacity(256),
        );
        let c = ThreadCtx::plain(0);
        let mut h = ConcurrentMap::pin(&g, ThreadCtx::plain(0));
        // Deterministic heights: 60 at height 0, 30 at height 1, 10 at 2.
        for k in 0..60u64 {
            assert!(insert(&g, k, k, 0, &c));
        }
        for k in 60..90u64 {
            assert!(insert(&g, k, k, 1, &c));
        }
        for k in 90..100u64 {
            assert!(insert(&g, k, k, 2, &c));
        }
        for k in 0..20u64 {
            assert!(h.remove(&k));
        }
        let m = g.memory_stats(&c);
        assert_eq!(m.live, 80);
        assert_eq!(m.invalid, 20);
        assert_eq!(m.marked, 0);
        assert_eq!(m.physical(), 100);
        assert_eq!(m.allocated, 100);
        assert_eq!(m.dead(), 20);
        assert_eq!(m.height_histogram[0], 60);
        assert_eq!(m.height_histogram[1], 30);
        assert_eq!(m.height_histogram[2], 10);
        assert_eq!(m.height_histogram[3..], [0usize; MAX_HEIGHT - 3]);
        // Byte accounting: a class-`h` slot is the header plus the tower
        // bytes (none at height 0; the unlink word and `h` slots above).
        type N = crate::node::Node<u64, u64>;
        let class = |h| std::mem::size_of::<N>() + N::tower_bytes(h);
        let expected = 60 * class(0) + 30 * class(1) + 10 * class(2);
        assert_eq!(expected, 60 * 32 + 30 * 48 + 10 * 56);
        assert_eq!(m.allocated_bytes, expected);
        assert!(m.resident_bytes >= m.allocated_bytes);
        assert!(m.bytes_per_node() < SkipGraph::<u64, u64>::fixed_tower_node_bytes() as f64);
        // Agreement with the per-level walk and the arena counters.
        assert_eq!(g.level_lengths(&c)[0], m.physical());
        assert_eq!(g.arena_sizes().iter().sum::<usize>(), m.allocated);
    }

    #[test]
    fn memory_stats_report_reclamation_lifecycle() {
        let g: SkipGraph<u64, u64> =
            SkipGraph::new(GraphConfig::new(2).max_level(2).chunk_capacity(256));
        let c = ThreadCtx::plain(0);
        let mut h = ConcurrentMap::pin(&g, ThreadCtx::plain(0));
        for k in 0..40u64 {
            assert!(insert(&g, k, k, 1, &c));
        }
        for k in 0..20u64 {
            assert!(h.remove(&k));
        }
        // Eager removal relinks every level, so each removed node is fully
        // unlinked and retired; the grace period has not passed yet.
        let m = g.memory_stats(&c);
        assert_eq!(m.live, 20);
        assert_eq!(m.retired_nodes, 20);
        assert_eq!(m.limbo_nodes, 20);
        assert_eq!(m.free_slots, 0);
        assert_eq!(m.allocated, 40);
        // Age the limbo entries past the grace period and collect.
        assert_eq!(g.reclaim_flush(&c), 20);
        let m = g.memory_stats(&c);
        assert_eq!(m.limbo_nodes, 0);
        assert_eq!(m.free_slots, 20);
        let stride = std::mem::size_of::<crate::node::Node<u64, u64>>()
            + crate::node::Node::<u64, u64>::tower_bytes(1);
        assert_eq!(m.free_bytes, 20 * stride);
        assert_eq!(m.recycled_slots, 0);
        // New inserts of the same height are served from the free list:
        // the arena footprint does not grow.
        for k in 100..120u64 {
            assert!(insert(&g, k, k, 1, &c));
        }
        let m = g.memory_stats(&c);
        assert_eq!(m.recycled_slots, 20);
        assert_eq!(m.free_slots, 0);
        assert_eq!(m.free_bytes, 0);
        assert_eq!(m.allocated, 40, "recycling kept the footprint flat");
        assert_eq!(m.live, 40);
        assert_eq!(g.keys(&c).len(), 40);
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn zero_commission_marks_show_up() {
        let g: SkipGraph<u64, u64> = SkipGraph::new(
            GraphConfig::new(2)
                .lazy(true)
                .commission_cycles(0)
                .chunk_capacity(256),
        );
        let c = ThreadCtx::plain(0);
        let mut h = ConcurrentMap::pin(&g, ThreadCtx::plain(0));
        for k in 0..20u64 {
            assert!(insert(&g, k, k, 0, &c));
        }
        for k in 0..20u64 {
            assert!(h.remove(&k));
        }
        // A pass over the list retires everything...
        assert!(!h.contains(&0));
        let s = g.memory_stats(&c);
        assert_eq!(s.live, 0);
        // ...but (lazy variant) physical unlinking awaits substituting
        // inserts, so marked nodes remain linked.
        assert!(s.marked > 0);
        assert_eq!(s.invalid + s.marked, s.physical());
    }
}
