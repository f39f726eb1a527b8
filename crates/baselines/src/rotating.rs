//! A "Rotating skip list" style structure.
//!
//! Dick, Fekete & Gramoli (CCPE 2017) replace skip-list towers with
//! contiguous arrays ("wheels") to improve cache behaviour, and delegate
//! structural adaptation (raising/lowering levels, physical removal) to a
//! background thread; the data level itself is a lock-free list.
//!
//! Fidelity note (see DESIGN.md §5): we reproduce the defining mechanisms —
//! (i) array-backed index levels traversed with contiguous memory accesses
//! (our per-level sorted arrays play the role of the wheels),
//! (ii) background-only structural adaptation with the index *rotated* in
//! as a unit, and (iii) a lock-free data level with logical deletion.
//! The original rotates wheel slots in place; we publish rebuilt arrays,
//! which preserves the cache-contiguity property the design is named for.

use crate::datalist::{DataList, DataPtr};
use crate::index::{IndexCell, VecIndex};
use crate::maintenance::MaintenanceThread;
use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, MapHandle};
use std::sync::Arc;
use std::time::Duration;

/// The rotating-style skip list.
pub struct RotatingSkipList<K, V> {
    inner: Arc<Inner<K, V>>,
    _maintenance: MaintenanceThread,
}

struct Inner<K, V> {
    data: DataList<K, V>,
    index: IndexCell<K, V>,
}

impl<K, V> RotatingSkipList<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Builds the structure for `threads` application threads, plus one
    /// background thread that sweeps marked nodes and rotates a fresh wheel
    /// index in every `period`.
    pub fn new(threads: usize, chunk_capacity: usize, period: Duration) -> Self {
        let inner = Arc::new(Inner {
            data: DataList::new(threads + 1, chunk_capacity, false),
            index: IndexCell::new(),
        });
        let worker = Arc::clone(&inner);
        let bg_ctx_id = threads as u16;
        let maintenance = MaintenanceThread::spawn(period, move || {
            let ctx = ThreadCtx::plain(bg_ctx_id);
            worker.data.sweep(&ctx);
            let live = worker.data.live_nodes(&ctx);
            worker.index.publish(VecIndex::build(&live, 2));
        });
        Self {
            inner,
            _maintenance: maintenance,
        }
    }

    fn start_for(&self, key: &K) -> DataPtr<K, V> {
        self.inner
            .index
            .load()
            .locate(key)
            .unwrap_or_else(|| self.inner.data.head())
    }

    /// Live keys in ascending order (diagnostics).
    pub fn keys(&self, ctx: &ThreadCtx) -> Vec<K> {
        self.inner.data.keys(ctx)
    }

    /// Height of the current wheel index (diagnostics).
    pub fn index_height(&self) -> usize {
        self.inner.index.load().height()
    }
}

/// Per-thread handle to a [`RotatingSkipList`].
pub struct RotatingHandle<'l, K, V> {
    list: &'l RotatingSkipList<K, V>,
    ctx: ThreadCtx,
}

impl<K, V> ConcurrentMap<K, V> for RotatingSkipList<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Handle<'a>
        = RotatingHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        RotatingHandle { list: self, ctx }
    }
}

impl<'l, K, V> MapHandle<K, V> for RotatingHandle<'l, K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        let start = self.list.start_for(&key);
        self.list
            .inner
            .data
            .insert_from(key, value, start, &self.ctx)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        let start = self.list.start_for(key);
        self.list.inner.data.remove_from(key, start, &self.ctx)
    }

    fn contains(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        let start = self.list.start_for(key);
        self.list.inner.data.contains_from(key, start, &self.ctx)
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn make() -> RotatingSkipList<u64, u64> {
        RotatingSkipList::new(4, 1024, Duration::from_millis(2))
    }

    #[test]
    fn sequential_model_check() {
        let l = make();
        let mut h = l.pin(ThreadCtx::plain(0));
        let mut model = BTreeSet::new();
        let mut state = 5u64;
        for _ in 0..3000 {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let k = (state >> 35) % 130;
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
    fn wheel_rotates_in() {
        let l = make();
        let mut h = l.pin(ThreadCtx::plain(0));
        for k in 0..3000u64 {
            h.insert(k, k);
        }
        std::thread::sleep(Duration::from_millis(20));
        assert!(l.index_height() >= 2, "height {}", l.index_height());
        assert!(h.contains(&2500));
    }

    #[test]
    fn concurrent_mixed() {
        use std::collections::HashMap;
        let l = make();
        let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
            (0..4u16)
                .map(|t| {
                    let l = &l;
                    s.spawn(move || {
                        let mut h = l.pin(ThreadCtx::plain(t));
                        let mut b: HashMap<u64, i64> = HashMap::new();
                        let mut state = 0xB0B ^ ((t as u64) << 11);
                        for _ in 0..1500 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let k = state % 50;
                            if state.is_multiple_of(2) {
                                if h.insert(k, k) {
                                    *b.entry(k).or_default() += 1;
                                }
                            } else if h.remove(&k) {
                                *b.entry(k).or_default() -= 1;
                            }
                        }
                        b
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut total: HashMap<u64, i64> = HashMap::new();
        for b in balances {
            for (k, v) in b {
                *total.entry(k).or_default() += v;
            }
        }
        let mut h = l.pin(ThreadCtx::plain(0));
        for k in 0..50u64 {
            let v = total.get(&k).copied().unwrap_or(0);
            assert!(v == 0 || v == 1);
            assert_eq!(h.contains(&k), v == 1, "key {k}");
        }
    }
}
