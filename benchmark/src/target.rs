//! The structures under test, seen from outside: each *stack* (a map type
//! with one configuration) is built, registered on and queried only through
//! the public functions of `skipgraph`.

use crate::replay::{replay_batched, replay_each, KeySpace, Sink};
use crate::stream::THREADS;
use instrument::ThreadCtx;
use skipgraph::{
    AdaptConfig, BatchConfig, BatchOp, BatchOutcome, BlockedHandle, BlockedSkipMap,
    CombiningHandle, GraphConfig, LayeredHandle, LayeredMap, ReplicaConfig, ReplicatedHandle,
    ReplicatedLayeredMap, SkipGraph,
};
use std::ops::Bound;
use std::time::Instant;

/// A quiescent reading of what a stack holds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Memory {
    /// Live keys found by a walk of the structure.
    pub live: u64,
    /// `memory_stats().allocated_bytes` (node slots and index tables),
    /// summed over replicas. Not `resident_bytes`: that counts whole
    /// 2^20-object arena chunks, so one more node can move it by 40 %.
    pub bytes: u64,
    pub index_bytes: u64,
    /// Nodes retired and not yet recycled.
    pub limbo: u64,
    /// Live anchors (blocked map only).
    pub anchors: u64,
}

/// What the end-of-repetition checks find, after the workers have joined.
#[derive(Debug, Default)]
pub struct Footprint {
    /// Read before the reclamation flush.
    pub memory: Memory,
    /// Nanoseconds one `reclaim_flush` took.
    pub flush_ns: u64,
    /// Adaptive replication: completed mode switches, and index segment
    /// grows triggered by the probe-displacement signal.
    pub mode_switches: u64,
    pub probe_grows: u64,
    /// First violated structural invariant, if any.
    pub invariants: Option<String>,
}

/// A map under test. `memory` and `footprint` need quiescent callers.
pub trait Stack: Sync {
    type Handle<'a>: Ops
    where
        Self: 'a;

    /// Registers worker `ctx.id()`.
    fn register(&self, ctx: ThreadCtx) -> Self::Handle<'_>;

    fn memory(&self) -> Memory;

    /// Measures the structure, flushes reclamation and checks invariants.
    fn footprint(&self) -> Footprint;
}

/// One worker's handle. Keys and values are `u64`.
pub trait Ops {
    fn get(&mut self, key: u64) -> Option<u64>;
    fn insert(&mut self, key: u64, value: u64) -> bool;
    fn remove(&mut self, key: u64) -> bool;

    /// Appends up to `n` pairs, ascending from `start` inclusive, to `out`.
    /// Stacks without a range function answer with a point get of `start`.
    fn scan(&mut self, start: u64, _n: usize, out: &mut Vec<(u64, u64)>) {
        out.extend(self.get(start).map(|v| (start, v)));
    }

    /// Makes every completed write visible to this worker's reads.
    fn sync(&mut self) {}

    /// Executes `ops` (see [`crate::stream`]) as worker `thread`, checking
    /// every outcome and sampling latencies into `sink`.
    fn replay(&mut self, thread: usize, ops: &[u32], keys: &KeySpace, sink: &mut Sink)
    where
        Self: Sized,
    {
        replay_each(self, thread, ops, keys, sink);
    }
}

fn quiescent() -> ThreadCtx {
    ThreadCtx::plain(0)
}

fn timed_flush<K: Ord, V>(graph: &SkipGraph<K, V>) -> u64 {
    let begin = Instant::now();
    graph.reclaim_flush(&quiescent());
    begin.elapsed().as_nanos() as u64
}

fn layered_memory(map: &LayeredMap<u64, u64>) -> Memory {
    let mem = map.shared().memory_stats(&quiescent());
    Memory {
        live: mem.live as u64,
        bytes: mem.allocated_bytes as u64,
        index_bytes: mem.index_bytes as u64,
        limbo: mem.limbo_nodes as u64,
        anchors: 0,
    }
}

fn layered_footprint(map: &LayeredMap<u64, u64>) -> Footprint {
    Footprint {
        memory: layered_memory(map),
        flush_ns: timed_flush(map.shared()),
        probe_grows: map.shared().index_probe_grows() as u64,
        invariants: map.shared().check_invariants().err(),
        ..Footprint::default()
    }
}

impl Stack for LayeredMap<u64, u64> {
    type Handle<'a> = LayeredHandle<'a, u64, u64>;

    fn register(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        LayeredMap::register(self, ctx)
    }

    fn memory(&self) -> Memory {
        layered_memory(self)
    }

    fn footprint(&self) -> Footprint {
        layered_footprint(self)
    }
}

impl Ops for LayeredHandle<'_, u64, u64> {
    fn get(&mut self, key: u64) -> Option<u64> {
        LayeredHandle::get(self, &key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        LayeredHandle::insert(self, key, value)
    }
    fn remove(&mut self, key: u64) -> bool {
        LayeredHandle::remove(self, &key)
    }
    fn scan(&mut self, start: u64, n: usize, out: &mut Vec<(u64, u64)>) {
        let range = self.range(Bound::Included(&start), Bound::Unbounded);
        out.extend(range.take(n).map(|(k, v)| (*k, *v)));
    }
}

/// A [`LayeredMap`] built `with_batching`, operated through combining
/// handles in [`BATCH`]-operation batches.
pub struct Batched(pub LayeredMap<u64, u64>);

/// Operations per `execute_batch` call on the batch rung.
pub const BATCH: usize = 64;

impl Stack for Batched {
    type Handle<'a> = CombiningHandle<'a, u64, u64>;

    fn register(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        self.0.register_combining(ctx)
    }

    fn memory(&self) -> Memory {
        layered_memory(&self.0)
    }

    fn footprint(&self) -> Footprint {
        layered_footprint(&self.0)
    }
}

/// Single operations (the preload) go through the wrapped direct handle;
/// only `replay` publishes to the combiner.
impl Ops for CombiningHandle<'_, u64, u64> {
    fn get(&mut self, key: u64) -> Option<u64> {
        self.direct().get(&key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        self.direct().insert(key, value)
    }
    fn remove(&mut self, key: u64) -> bool {
        self.direct().remove(&key)
    }
    fn replay(&mut self, thread: usize, ops: &[u32], _keys: &KeySpace, sink: &mut Sink) {
        replay_batched(
            |batch: Vec<BatchOp<u64, u64>>| -> Vec<BatchOutcome<u64, u64>> {
                self.execute_batch(batch)
            },
            thread,
            ops,
            sink,
        );
    }
}

impl Stack for BlockedSkipMap<u64, u64> {
    type Handle<'a> = BlockedOps<'a>;

    fn register(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        BlockedOps {
            map: self,
            handle: BlockedSkipMap::register(self, ctx),
        }
    }

    fn memory(&self) -> Memory {
        let ctx = quiescent();
        let (stats, mem) = (self.stats(&ctx), self.shared().memory_stats(&ctx));
        Memory {
            live: stats.entries as u64,
            bytes: stats.allocated_bytes as u64,
            index_bytes: mem.index_bytes as u64,
            limbo: mem.limbo_nodes as u64,
            anchors: stats.anchors as u64,
        }
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            memory: self.memory(),
            flush_ns: timed_flush(self.shared()),
            invariants: self.check_invariants(&quiescent()).err(),
            ..Footprint::default()
        }
    }
}

/// The blocked map's range function lives on the map, not on the handle.
pub struct BlockedOps<'a> {
    map: &'a BlockedSkipMap<u64, u64>,
    handle: BlockedHandle<'a, u64, u64>,
}

impl Ops for BlockedOps<'_> {
    fn get(&mut self, key: u64) -> Option<u64> {
        self.handle.get(&key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        self.handle.insert(key, value)
    }
    fn remove(&mut self, key: u64) -> bool {
        self.handle.remove(&key)
    }
    fn scan(&mut self, start: u64, n: usize, out: &mut Vec<(u64, u64)>) {
        let range = self
            .map
            .range(Bound::Included(&start), Bound::Unbounded, self.handle.ctx());
        out.extend(range.take(n));
    }
}

impl Stack for ReplicatedLayeredMap<u64, u64> {
    type Handle<'a> = ReplicatedHandle<'a, u64, u64>;

    fn register(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        ReplicatedLayeredMap::register(self, ctx)
    }

    /// Every replica holds every key: bytes add up, `live` is replica 0's.
    fn memory(&self) -> Memory {
        let mut total = Memory::default();
        for replica in self.replicas().iter().rev() {
            let m = layered_memory(replica);
            total = Memory {
                live: m.live,
                bytes: total.bytes + m.bytes,
                index_bytes: total.index_bytes + m.index_bytes,
                limbo: total.limbo + m.limbo,
                anchors: 0,
            };
        }
        total
    }

    fn footprint(&self) -> Footprint {
        let mut total = Footprint {
            memory: self.memory(),
            ..Footprint::default()
        };
        for replica in self.replicas() {
            let f = layered_footprint(replica);
            total.flush_ns += f.flush_ns;
            total.probe_grows += f.probe_grows;
            total.invariants = total.invariants.or(f.invariants).or_else(|| {
                (f.memory.live != total.memory.live).then(|| {
                    format!(
                        "replicas hold {} and {} keys",
                        total.memory.live, f.memory.live
                    )
                })
            });
        }
        if let Some(adapt) = self.adapt_state() {
            total.mode_switches = adapt.downshifts + adapt.upshifts;
        }
        total
    }
}

impl Ops for ReplicatedHandle<'_, u64, u64> {
    fn get(&mut self, key: u64) -> Option<u64> {
        ReplicatedHandle::get(self, &key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        ReplicatedHandle::insert(self, key, value)
    }
    fn remove(&mut self, key: u64) -> bool {
        ReplicatedHandle::remove(self, &key)
    }
    fn sync(&mut self) {
        ReplicatedHandle::sync(self);
    }
}

/// The point workloads' graph: the paper's defaults for two threads
/// (`MaxLevel = 0`, so the local structures carry the search), lazy
/// protocol, shared hash index.
pub fn point_config() -> GraphConfig {
    GraphConfig::new(THREADS).lazy(true).hash_index(true)
}

/// `bench_block`'s geometry: full-height sparse towers under fat blocks,
/// with reclamation so split and merge garbage is recycled.
pub fn scan_config() -> GraphConfig {
    GraphConfig::new(THREADS)
        .max_level(7)
        .sparse(true)
        .lazy(true)
        .reclaim(true)
}

/// Entry slots per block of the blocked map.
pub const BLOCK_CAP: usize = 8;

/// Worker `t` reads from replica `t`: one replica per (modelled) socket.
pub fn replica_config() -> ReplicaConfig {
    ReplicaConfig::uniform(THREADS, THREADS)
}

pub fn layered(config: GraphConfig) -> LayeredMap<u64, u64> {
    LayeredMap::new(config)
}

/// Both workers publish to one slot bank, so either may combine for both.
pub fn batched(config: GraphConfig) -> Batched {
    Batched(LayeredMap::with_batching(
        config,
        BatchConfig::uniform(THREADS, 1),
    ))
}

pub fn blocked() -> BlockedSkipMap<u64, u64> {
    BlockedSkipMap::new(scan_config(), BLOCK_CAP)
}

pub fn replicated() -> ReplicatedLayeredMap<u64, u64> {
    ReplicatedLayeredMap::new(point_config(), replica_config())
}

/// The replicated stack with the control plane on at its defaults, in the
/// replicas' graphs (index growth) and in the replication layer (mode
/// switching).
pub fn adaptive() -> ReplicatedLayeredMap<u64, u64> {
    let adapt = AdaptConfig::new();
    ReplicatedLayeredMap::new(point_config().adapt(adapt), replica_config().adapt(adapt))
}
