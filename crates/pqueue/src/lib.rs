//! Priority queues layered over skip graphs.
//!
//! The paper's appendix reports preliminary results for priority queues
//! built with the layering technique and names both *exact* and *relaxed*
//! designs as applicable. This crate provides both:
//!
//! * [`LayeredPriorityQueue`] — an exact concurrent priority queue:
//!   `insert` goes through the layered map (thread-local jump + partitioned
//!   skip graph), `pop_min` linearizes a removal on the first live node of
//!   the bottom list;
//! * a *relaxed* `pop_approx_min` in the spirit of SprayList-style
//!   relaxation: each caller walks a small random prefix of the bottom list
//!   before attempting removal, spreading contention away from the head at
//!   the cost of exactness.
//!
//! # Example
//!
//! ```
//! use sg_pqueue::LayeredPriorityQueue;
//! use instrument::ThreadCtx;
//!
//! let pq: LayeredPriorityQueue<u64, &str> = LayeredPriorityQueue::new(2);
//! let mut h = pq.register(ThreadCtx::plain(0));
//! h.push(3, "three");
//! h.push(1, "one");
//! h.push(2, "two");
//! assert_eq!(h.pop_min(), Some((1, "one")));
//! assert_eq!(h.pop_min(), Some((2, "two")));
//! assert_eq!(h.pop_min(), Some((3, "three")));
//! assert_eq!(h.pop_min(), None);
//! ```

use instrument::ThreadCtx;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::{GraphConfig, LayeredHandle, LayeredMap};
use std::hash::Hash;
use std::ops::Bound;

/// An exact concurrent priority queue over a lazy layered skip graph.
///
/// Keys are priorities (smaller = higher priority) and must be unique, as
/// in skip-list-based priority queues with set semantics; `push` on a
/// present key fails.
pub struct LayeredPriorityQueue<K, V> {
    map: LayeredMap<K, V>,
}

impl<K, V> LayeredPriorityQueue<K, V>
where
    K: Ord + Hash + Clone,
{
    /// Builds a queue for `threads` participating threads: a lazy layered
    /// skip graph with a zero commission period (queue minima drain
    /// permanently, so deferring retirement would only lengthen the dead
    /// prefix that `pop_min` walks) and the shared hash index on, so
    /// membership tests ([`PriorityQueueHandle::contains`]) and the
    /// `get`-then-`remove` race of `pop_approx_min` resolve in O(1)
    /// instead of descending the skip graph.
    pub fn new(threads: usize) -> Self {
        Self::with_config(
            GraphConfig::new(threads)
                .lazy(true)
                .commission_cycles(0)
                .hash_index(true),
        )
    }

    /// Builds a queue with an explicit shared-structure configuration.
    pub fn with_config(config: GraphConfig) -> Self {
        Self {
            map: LayeredMap::new(config),
        }
    }

    /// Registers the calling thread.
    pub fn register(&self, ctx: ThreadCtx) -> PriorityQueueHandle<'_, K, V> {
        let seed = 0x9e37_79b9 ^ ((ctx.id() as u64) << 17);
        PriorityQueueHandle {
            handle: self.map.register(ctx),
            pq: self,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The underlying layered map (for inspection).
    pub fn map(&self) -> &LayeredMap<K, V> {
        &self.map
    }
}

impl<K, V> std::fmt::Debug for LayeredPriorityQueue<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LayeredPriorityQueue")
            .finish_non_exhaustive()
    }
}

/// Per-thread handle to a [`LayeredPriorityQueue`].
pub struct PriorityQueueHandle<'q, K, V> {
    handle: LayeredHandle<'q, K, V>,
    pq: &'q LayeredPriorityQueue<K, V>,
    rng: SmallRng,
}

impl<'q, K, V> PriorityQueueHandle<'q, K, V>
where
    K: Ord + Hash + Clone,
    V: Clone,
{
    /// Inserts an element; `false` if the priority is already enqueued.
    pub fn push(&mut self, priority: K, value: V) -> bool {
        self.handle.insert(priority, value)
    }

    /// Removes and returns the minimum-priority element.
    pub fn pop_min(&mut self) -> Option<(K, V)> {
        self.pq.map.shared().pop_min(self.handle.ctx())
    }

    /// Relaxed removal: walks a uniformly random number of live candidates
    /// in `0..spray_width` from the head before attempting removal,
    /// trading exactness for reduced head contention (SprayList-style).
    /// Returns an element within roughly `spray_width` of the minimum.
    pub fn pop_approx_min(&mut self, spray_width: usize) -> Option<(K, V)> {
        let skip = if spray_width <= 1 {
            0
        } else {
            self.rng.gen_range(0..spray_width)
        };
        let shared = self.pq.map.shared();
        let ctx = self.handle.ctx();
        // Collect up to skip+1 candidate keys from the snapshot prefix.
        let candidates: Vec<K> = shared
            .range(Bound::Unbounded, Bound::Unbounded, ctx)
            .take(skip + 1)
            .map(|(k, _)| k.clone())
            .collect();
        // Try the chosen candidate first, then fall back toward the head,
        // then to an exact pop.
        for k in candidates.iter().rev() {
            if let Some(v) = self.try_take(k) {
                return Some((k.clone(), v));
            }
        }
        self.pop_min()
    }

    /// Whether `priority` is currently enqueued. With the hash index on
    /// (the [`LayeredPriorityQueue::new`] default) this is an O(1) point
    /// read even for priorities inserted by other threads.
    pub fn contains(&mut self, priority: &K) -> bool {
        self.handle.contains(priority)
    }

    /// Whether the queue appears empty.
    pub fn is_empty(&mut self) -> bool {
        self.peek_min().is_none()
    }

    /// The current minimum without removing it (racy by nature).
    pub fn peek_min(&mut self) -> Option<(K, V)> {
        let shared = self.pq.map.shared();
        shared
            .range(Bound::Unbounded, Bound::Unbounded, self.handle.ctx())
            .next()
            .map(|(k, v)| (k.clone(), v.clone()))
    }

    fn try_take(&mut self, key: &K) -> Option<V> {
        let v = self.handle.get(key)?;
        if self.handle.remove(key) {
            Some(v)
        } else {
            None
        }
    }
}

impl<'q, K, V> std::fmt::Debug for PriorityQueueHandle<'q, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriorityQueueHandle")
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ordered_drain() {
        let pq: LayeredPriorityQueue<u64, u64> = LayeredPriorityQueue::new(2);
        let mut h = pq.register(ThreadCtx::plain(0));
        for k in [5u64, 1, 9, 3, 7] {
            assert!(h.push(k, k * 10));
        }
        let mut out = Vec::new();
        while let Some((k, _)) = h.pop_min() {
            out.push(k);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
        assert!(h.is_empty());
    }

    #[test]
    fn duplicate_priority_rejected() {
        let pq: LayeredPriorityQueue<u64, ()> = LayeredPriorityQueue::new(2);
        let mut h = pq.register(ThreadCtx::plain(0));
        assert!(h.push(1, ()));
        assert!(!h.push(1, ()));
    }

    #[test]
    fn peek_does_not_remove() {
        let pq: LayeredPriorityQueue<u64, u64> = LayeredPriorityQueue::new(2);
        let mut h = pq.register(ThreadCtx::plain(0));
        h.push(4, 40);
        assert_eq!(h.peek_min(), Some((4, 40)));
        assert_eq!(h.peek_min(), Some((4, 40)));
        assert_eq!(h.pop_min(), Some((4, 40)));
    }

    #[test]
    fn spray_pop_returns_near_minimum() {
        let pq: LayeredPriorityQueue<u64, ()> = LayeredPriorityQueue::new(2);
        let mut h = pq.register(ThreadCtx::plain(0));
        for k in 0..100u64 {
            h.push(k, ());
        }
        let width = 8;
        for _ in 0..20 {
            let (k, _) = h.pop_approx_min(width).expect("non-empty");
            // Relaxation bound: within the first `width` live elements of a
            // 100-element queue, so never later than key 20 + width.
            assert!(k < 40, "spray returned {k}, far from the minimum");
        }
    }

    #[test]
    fn cross_thread_contains_rides_the_hash_index() {
        use instrument::AccessStats;
        let pq: LayeredPriorityQueue<u64, u64> = LayeredPriorityQueue::new(2);
        let mut producer = pq.register(ThreadCtx::plain(0));
        for k in 0..32u64 {
            assert!(producer.push(k, k));
        }
        // Thread 1 never inserted, so its thread-local layer misses and
        // every membership test goes through the shared structure — with
        // the index on, as O(1) hits instead of descents.
        let stats = AccessStats::new(2);
        let mut observer = pq.register(ThreadCtx::recording(1, stats.clone()));
        for k in 0..32u64 {
            assert!(observer.contains(&k), "key {k}");
        }
        assert!(!observer.contains(&99));
        let t = stats.totals();
        assert!(
            t.index_hits >= 32,
            "cross-thread contains bypassed the index: {} hits",
            t.index_hits
        );
    }

    #[test]
    fn concurrent_producers_consumers() {
        const T: usize = 4;
        let pq: LayeredPriorityQueue<u64, u64> = LayeredPriorityQueue::new(T);
        let popped: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..T as u16)
                .map(|t| {
                    let pq = &pq;
                    s.spawn(move || {
                        let mut h = pq.register(ThreadCtx::plain(t));
                        let mut got = Vec::new();
                        for i in 0..500u64 {
                            let key = i * T as u64 + t as u64;
                            assert!(h.push(key, key));
                            if i % 2 == 1 {
                                if let Some((k, _)) = h.pop_min() {
                                    got.push(k);
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // No element popped twice.
        let mut all: Vec<u64> = popped.into_iter().flatten().collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "an element was popped twice");
        // Remaining elements = pushed - popped.
        let mut h = pq.register(ThreadCtx::plain(0));
        let mut remaining = BTreeSet::new();
        while let Some((k, _)) = h.pop_min() {
            assert!(remaining.insert(k), "duplicate in drain");
        }
        assert_eq!(remaining.len() + n, T * 500);
    }
}
