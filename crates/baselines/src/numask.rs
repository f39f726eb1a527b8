//! A NUMASK-style NUMA-aware skip list.
//!
//! Daly, Hassan, Spear & Palmieri (DISC 2018) split a skip list into a
//! shared data layer and *per-NUMA-zone index layers*: each socket owns a
//! replica of the upper levels, allocated in its own memory, so index
//! traversal is NUMA-local and only the final data-level walk crosses
//! sockets. Per-zone helper threads keep the indexes synchronized with the
//! data layer.
//!
//! Fidelity note (see DESIGN.md §5): we reproduce exactly that split —
//! (i) a shared lock-free data list, (ii) one index per NUMA zone used
//! only by threads of that zone, (iii) one background helper per zone
//! sweeping the data list and refreshing its zone's index — with the
//! simplification that indexes are refreshed by rebuild rather than by
//! replaying an update log.

use crate::datalist::{DataList, DataPtr};
use crate::index::{IndexCell, VecIndex};
use crate::maintenance::MaintenanceThread;
use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, MapHandle};
use std::sync::Arc;
use std::time::Duration;

/// The NUMASK-style skip list.
pub struct NumaskSkipList<K, V> {
    inner: Arc<Inner<K, V>>,
    zone_of: Vec<usize>,
    _maintenance: Vec<MaintenanceThread>,
}

struct Inner<K, V> {
    data: DataList<K, V>,
    /// One index per NUMA zone.
    indexes: Vec<IndexCell<K, V>>,
}

impl<K, V> NumaskSkipList<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Builds the structure. `zone_of[t]` is the NUMA zone of application
    /// thread `t` (take it from [`numa::Placement::numa_nodes`]); one
    /// helper thread is spawned per zone.
    ///
    /// # Panics
    ///
    /// Panics if `zone_of` is empty.
    pub fn new(zone_of: Vec<usize>, chunk_capacity: usize, period: Duration) -> Self {
        assert!(!zone_of.is_empty());
        let threads = zone_of.len();
        let zones = zone_of.iter().copied().max().unwrap() + 1;
        let inner = Arc::new(Inner {
            data: DataList::new(threads + zones, chunk_capacity, false),
            indexes: (0..zones).map(|_| IndexCell::new()).collect(),
        });
        let maintenance = (0..zones)
            .map(|z| {
                let worker = Arc::clone(&inner);
                let bg_ctx_id = (threads + z) as u16;
                MaintenanceThread::spawn(period, move || {
                    let ctx = ThreadCtx::plain(bg_ctx_id);
                    if z == 0 {
                        // One zone's helper owns physical removal.
                        worker.data.sweep(&ctx);
                    }
                    let live = worker.data.live_nodes(&ctx);
                    worker.indexes[z].publish(VecIndex::build(&live, 2));
                })
            })
            .collect();
        Self {
            inner,
            zone_of,
            _maintenance: maintenance,
        }
    }

    fn start_for(&self, key: &K, thread: u16) -> DataPtr<K, V> {
        let zone = self.zone_of[thread as usize];
        self.inner.indexes[zone]
            .load()
            .locate(key)
            .unwrap_or_else(|| self.inner.data.head())
    }

    /// Live keys in ascending order (diagnostics).
    pub fn keys(&self, ctx: &ThreadCtx) -> Vec<K> {
        self.inner.data.keys(ctx)
    }

    /// Densest-level sizes of each zone index (diagnostics).
    pub fn index_sizes(&self) -> Vec<usize> {
        self.inner.indexes.iter().map(|i| i.load().len()).collect()
    }
}

/// Per-thread handle to a [`NumaskSkipList`].
pub struct NumaskHandle<'l, K, V> {
    list: &'l NumaskSkipList<K, V>,
    ctx: ThreadCtx,
}

impl<K, V> ConcurrentMap<K, V> for NumaskSkipList<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    type Handle<'a>
        = NumaskHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        assert!(
            (ctx.id() as usize) < self.zone_of.len(),
            "thread id out of range"
        );
        NumaskHandle { list: self, ctx }
    }
}

impl<'l, K, V> MapHandle<K, V> for NumaskHandle<'l, K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        let start = self.list.start_for(&key, self.ctx.id());
        self.list
            .inner
            .data
            .insert_from(key, value, start, &self.ctx)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        let start = self.list.start_for(key, self.ctx.id());
        self.list.inner.data.remove_from(key, start, &self.ctx)
    }

    fn contains(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        let start = self.list.start_for(key, self.ctx.id());
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

    fn make() -> NumaskSkipList<u64, u64> {
        // 4 threads: 0,1 on zone 0; 2,3 on zone 1.
        NumaskSkipList::new(vec![0, 0, 1, 1], 1024, Duration::from_millis(2))
    }

    #[test]
    fn sequential_model_check() {
        let l = make();
        let mut h = l.pin(ThreadCtx::plain(0));
        let mut model = BTreeSet::new();
        let mut state = 21u64;
        for _ in 0..3000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            let k = (state >> 34) % 110;
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
    fn per_zone_indexes_build_independently() {
        let l = make();
        let mut h = l.pin(ThreadCtx::plain(0));
        for k in 0..2000u64 {
            h.insert(k, k);
        }
        std::thread::sleep(Duration::from_millis(25));
        let sizes = l.index_sizes();
        assert_eq!(sizes.len(), 2);
        assert!(sizes.iter().all(|&s| s > 100), "{sizes:?}");
        // Thread 3 (zone 1) uses its own index.
        let mut h3 = l.pin(ThreadCtx::plain(3));
        assert!(h3.contains(&1234));
    }

    #[test]
    fn concurrent_mixed_across_zones() {
        use std::collections::HashMap;
        let l = make();
        let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
            (0..4u16)
                .map(|t| {
                    let l = &l;
                    s.spawn(move || {
                        let mut h = l.pin(ThreadCtx::plain(t));
                        let mut b: HashMap<u64, i64> = HashMap::new();
                        let mut state = 0xC0DE ^ ((t as u64) << 13);
                        for _ in 0..1500 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let k = state % 45;
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
        for k in 0..45u64 {
            let v = total.get(&k).copied().unwrap_or(0);
            assert!(v == 0 || v == 1);
            assert_eq!(h.contains(&k), v == 1, "key {k}");
        }
    }
}
