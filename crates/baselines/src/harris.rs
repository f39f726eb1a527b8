//! A standalone Harris-style lock-free linked list.
//!
//! The paper's `layered_map_ll` ablation layers local maps over a linked
//! list (provided by [`skipgraph::GraphConfig::linked_list`]); this is the
//! *unlayered* linked list, useful as a tiny-key-space baseline and for
//! differential testing of the data layer.

use crate::datalist::DataList;
use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, MapHandle};

/// A sorted lock-free linked list (Harris 2001 lineage, with chain unlink).
pub struct HarrisList<K, V> {
    list: DataList<K, V>,
}

impl<K: Ord, V> HarrisList<K, V> {
    /// Builds an empty list for `threads` registered threads.
    pub fn new(threads: usize, chunk_capacity: usize) -> Self {
        Self {
            list: DataList::new(threads, chunk_capacity, true),
        }
    }

    /// Live keys in ascending order.
    pub fn keys(&self, ctx: &ThreadCtx) -> Vec<K>
    where
        K: Clone,
    {
        self.list.keys(ctx)
    }
}

/// Per-thread handle to a [`HarrisList`].
pub struct HarrisHandle<'l, K, V> {
    list: &'l HarrisList<K, V>,
    ctx: ThreadCtx,
}

impl<K, V> ConcurrentMap<K, V> for HarrisList<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    type Handle<'a>
        = HarrisHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        HarrisHandle { list: self, ctx }
    }
}

impl<'l, K: Ord, V> MapHandle<K, V> for HarrisHandle<'l, K, V> {
    fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        self.list
            .list
            .insert_from(key, value, self.list.list.head(), &self.ctx)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        self.list
            .list
            .remove_from(key, self.list.list.head(), &self.ctx)
    }

    fn contains(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        self.list
            .list
            .contains_from(key, self.list.list.head(), &self.ctx)
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sequential_model_check() {
        let l: HarrisList<u64, u64> = HarrisList::new(1, 256);
        let mut h = l.pin(ThreadCtx::plain(0));
        let mut model = BTreeSet::new();
        let mut state = 3u64;
        for _ in 0..3000 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let k = (state >> 40) % 100;
            match state % 3 {
                0 => assert_eq!(h.insert(k, k), model.insert(k)),
                1 => assert_eq!(h.remove(&k), model.remove(&k)),
                _ => assert_eq!(h.contains(&k), model.contains(&k)),
            }
        }
        assert_eq!(
            l.keys(&ThreadCtx::plain(0)),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_disjoint() {
        let l: HarrisList<u64, u64> = HarrisList::new(4, 1024);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let l = &l;
                s.spawn(move || {
                    let mut h = l.pin(ThreadCtx::plain(t));
                    for i in 0..200u64 {
                        assert!(h.insert(i * 4 + t as u64, i));
                    }
                });
            }
        });
        assert_eq!(l.keys(&ThreadCtx::plain(0)).len(), 800);
    }
}
