//! Per-thread recording context and the shared statistics sink.

use crate::histogram::LogHistogram;
use crate::matrix::AccessMatrix;
use cache_sim::{Hierarchy, MissCounts};
use crossbeam_utils::CachePadded;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-thread scalar counters (single-writer; relaxed).
#[derive(Debug, Default)]
struct ThreadCounters {
    ops: AtomicU64,
    cas_attempts: AtomicU64,
    cas_failures: AtomicU64,
    traversed: AtomicU64,
    searches: AtomicU64,
    batches: AtomicU64,
    batched_ops: AtomicU64,
    hinted_searches: AtomicU64,
    hinted_traversed: AtomicU64,
    retired: AtomicU64,
    recycled: AtomicU64,
    epoch_advances: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    index_stale: AtomicU64,
    log_appends: AtomicU64,
    log_lag_sum: AtomicU64,
    replay_batches: AtomicU64,
    replayed_ops: AtomicU64,
    anchor_hits: AtomicU64,
}

/// A read-only snapshot of one thread's scalar counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounterSnapshot {
    /// Completed high-level operations (insert/remove/contains).
    pub ops: u64,
    /// Maintenance CAS attempts (excluding initialization of the thread's
    /// own in-flight node).
    pub cas_attempts: u64,
    /// Failed maintenance CAS attempts.
    pub cas_failures: u64,
    /// Shared nodes visited by searches.
    pub traversed: u64,
    /// Number of shared-structure searches performed.
    pub searches: u64,
    /// Combined batches this thread drained as the combiner.
    pub batches: u64,
    /// Operations executed inside those batches (own + other threads').
    pub batched_ops: u64,
    /// Searches that resumed from a sorted-run hint (subset of `searches`).
    pub hinted_searches: u64,
    /// Shared nodes visited by hinted searches (subset of `traversed`);
    /// `hinted_traversed / hinted_searches` is the mean hint-hit distance.
    pub hinted_traversed: u64,
    /// Fully-unlinked nodes this thread retired onto its limbo list.
    pub retired: u64,
    /// Reclaimed slots this thread returned to arena free lists.
    pub recycled: u64,
    /// Global-epoch advancements this thread's quiesce pass won.
    pub epoch_advances: u64,
    /// Point reads answered by the shared hash index (hit or
    /// authoritative absent) without a skip-graph descent.
    pub index_hits: u64,
    /// Index consultations that found no usable entry (key not indexed,
    /// or a signature collision) and fell back to the descent.
    pub index_misses: u64,
    /// Index entries rejected as stale (generation bumped, node marked,
    /// or anchor frozen) before falling back to the descent.
    pub index_stale: u64,
    /// Operations appended to a replication operation log.
    pub log_appends: u64,
    /// Sum over appends of the log's observed lag (head minus the
    /// slowest replica's completion tail) at append time;
    /// `log_lag_sum / log_appends` is the mean backlog a write joins.
    pub log_lag_sum: u64,
    /// Replica replay batches this thread drained (one per lease-held
    /// pass over a log's pending suffix).
    pub replay_batches: u64,
    /// Operations applied inside those replay batches.
    pub replayed_ops: u64,
    /// Block resolutions of the blocked map — point operations and scan
    /// starts — that no search ran for: the thread's local anchor map
    /// named a live block that covers the key. A resolution that jumps in
    /// from a local anchor's tower is a search and not counted here, and
    /// neither is a descent from a list head.
    pub anchor_hits: u64,
    /// Always 0: replay compaction was removed and nothing records this
    /// any more. The field is kept because `benchmark/` still names it.
    pub collapsed_ops: u64,
}

/// Shared statistics sink for one experiment: thread-pair matrices plus
/// per-thread counters. Create one per structure-under-test, hand an
/// [`ThreadCtx::recording`] context to each worker thread, then query the
/// aggregate after the run.
#[derive(Debug)]
pub struct AccessStats {
    reads: AccessMatrix,
    cas: AccessMatrix,
    counters: Vec<CachePadded<ThreadCounters>>,
    /// Batch-size distribution across all combiners (one sample per
    /// drained batch; updated once per batch, so the lock is cold).
    batch_sizes: Mutex<LogHistogram>,
}

impl AccessStats {
    /// Creates a sink for `threads` worker threads.
    pub fn new(threads: usize) -> Arc<Self> {
        assert!(threads > 0);
        Arc::new(Self {
            reads: AccessMatrix::new(threads),
            cas: AccessMatrix::new(threads),
            counters: (0..threads).map(|_| CachePadded::default()).collect(),
            batch_sizes: Mutex::new(LogHistogram::new()),
        })
    }

    /// The read heatmap (Figs. 14–17).
    pub fn reads(&self) -> &AccessMatrix {
        &self.reads
    }

    /// The maintenance-CAS heatmap (Figs. 6–9).
    pub fn cas(&self) -> &AccessMatrix {
        &self.cas
    }

    /// Snapshot of one thread's counters.
    pub fn thread(&self, id: usize) -> ThreadCounterSnapshot {
        let c = &self.counters[id];
        ThreadCounterSnapshot {
            ops: c.ops.load(Ordering::Relaxed),
            cas_attempts: c.cas_attempts.load(Ordering::Relaxed),
            cas_failures: c.cas_failures.load(Ordering::Relaxed),
            traversed: c.traversed.load(Ordering::Relaxed),
            searches: c.searches.load(Ordering::Relaxed),
            batches: c.batches.load(Ordering::Relaxed),
            batched_ops: c.batched_ops.load(Ordering::Relaxed),
            hinted_searches: c.hinted_searches.load(Ordering::Relaxed),
            hinted_traversed: c.hinted_traversed.load(Ordering::Relaxed),
            retired: c.retired.load(Ordering::Relaxed),
            recycled: c.recycled.load(Ordering::Relaxed),
            epoch_advances: c.epoch_advances.load(Ordering::Relaxed),
            index_hits: c.index_hits.load(Ordering::Relaxed),
            index_misses: c.index_misses.load(Ordering::Relaxed),
            index_stale: c.index_stale.load(Ordering::Relaxed),
            log_appends: c.log_appends.load(Ordering::Relaxed),
            log_lag_sum: c.log_lag_sum.load(Ordering::Relaxed),
            replay_batches: c.replay_batches.load(Ordering::Relaxed),
            replayed_ops: c.replayed_ops.load(Ordering::Relaxed),
            anchor_hits: c.anchor_hits.load(Ordering::Relaxed),
            collapsed_ops: 0,
        }
    }

    /// A copy of the combined batch-size histogram (one sample per batch a
    /// combiner drained).
    pub fn batch_size_histogram(&self) -> LogHistogram {
        self.batch_sizes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Sum of all thread snapshots.
    pub fn totals(&self) -> ThreadCounterSnapshot {
        let mut t = ThreadCounterSnapshot::default();
        for id in 0..self.counters.len() {
            let s = self.thread(id);
            t.ops += s.ops;
            t.cas_attempts += s.cas_attempts;
            t.cas_failures += s.cas_failures;
            t.traversed += s.traversed;
            t.searches += s.searches;
            t.batches += s.batches;
            t.batched_ops += s.batched_ops;
            t.hinted_searches += s.hinted_searches;
            t.hinted_traversed += s.hinted_traversed;
            t.retired += s.retired;
            t.recycled += s.recycled;
            t.epoch_advances += s.epoch_advances;
            t.index_hits += s.index_hits;
            t.index_misses += s.index_misses;
            t.index_stale += s.index_stale;
            t.log_appends += s.log_appends;
            t.log_lag_sum += s.log_lag_sum;
            t.replay_batches += s.replay_batches;
            t.replayed_ops += s.replayed_ops;
            t.anchor_hits += s.anchor_hits;
        }
        t
    }

    /// Number of threads this sink was sized for.
    pub fn threads(&self) -> usize {
        self.counters.len()
    }
}

/// The per-thread context threaded through every data-structure operation.
///
/// `ThreadCtx` carries the dense benchmark thread id (which doubles as the
/// NUMA-ownership tag for nodes the thread allocates) and the optional
/// recording sinks. All `record_*` methods are no-ops (a single predictable
/// branch) when constructed with [`ThreadCtx::plain`].
#[derive(Debug)]
pub struct ThreadCtx {
    id: u16,
    stats: Option<Arc<AccessStats>>,
    cache: Option<RefCell<Hierarchy>>,
    chaos: Option<Chaos>,
}

/// Schedule-fuzzing state: yields the OS thread with probability
/// `1/one_in` at every instrumented shared-memory access, multiplying the
/// interleavings an oversubscribed stress test explores.
#[derive(Debug)]
struct Chaos {
    state: Cell<u64>,
    one_in: u32,
}

impl Chaos {
    #[inline]
    fn maybe_yield(&self) {
        let mut x = self.state.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state.set(x);
        if x.is_multiple_of(self.one_in as u64) {
            std::thread::yield_now();
        }
    }
}

impl ThreadCtx {
    /// A non-recording context for thread `id` (throughput runs).
    pub fn plain(id: u16) -> Self {
        Self {
            id,
            stats: None,
            cache: None,
            chaos: None,
        }
    }

    /// A recording context feeding `stats` (heatmaps / Table 1).
    pub fn recording(id: u16, stats: Arc<AccessStats>) -> Self {
        Self {
            id,
            stats: Some(stats),
            cache: None,
            chaos: None,
        }
    }

    /// A sibling context with the same thread id and stats sink, for a
    /// structure that needs several handles per thread (e.g. one per
    /// replica): shared-node traffic from every sibling lands in the same
    /// per-thread counters. The cache simulation and chaos state are
    /// per-context (`RefCell`/`Cell`) and deliberately not forked.
    pub fn fork(&self) -> Self {
        Self {
            id: self.id,
            stats: self.stats.clone(),
            cache: None,
            chaos: None,
        }
    }

    /// A schedule-fuzzing context: yields the OS thread with probability
    /// `1/one_in` at every shared-node access, forcing preemption at the
    /// exact linearization-sensitive points. For stress tests.
    ///
    /// # Panics
    ///
    /// Panics if `one_in` is zero.
    pub fn chaos(id: u16, seed: u64, one_in: u32) -> Self {
        assert!(one_in > 0);
        Self {
            id,
            stats: None,
            cache: None,
            chaos: Some(Chaos {
                state: Cell::new(seed | 1),
                one_in,
            }),
        }
    }

    /// Attaches a per-thread cache-hierarchy simulation (Table 2).
    pub fn with_cache_sim(mut self, hierarchy: Hierarchy) -> Self {
        self.cache = Some(RefCell::new(hierarchy));
        self
    }

    /// The dense benchmark thread id.
    #[inline]
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Records a read of a shared-node word owned by thread `owner` at
    /// address `addr`.
    #[inline]
    pub fn record_read(&self, owner: u16, addr: usize) {
        if let Some(s) = &self.stats {
            s.reads.record(self.id, owner);
        }
        if let Some(c) = &self.cache {
            c.borrow_mut().access(addr as u64, false);
        }
        if let Some(c) = &self.chaos {
            c.maybe_yield();
        }
    }

    /// Records a maintenance CAS on a word owned by `owner`.
    #[inline]
    pub fn record_cas(&self, owner: u16, addr: usize, success: bool) {
        if let Some(s) = &self.stats {
            s.cas.record(self.id, owner);
            let c = &s.counters[self.id as usize];
            c.cas_attempts.fetch_add(1, Ordering::Relaxed);
            if !success {
                c.cas_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(c) = &self.cache {
            c.borrow_mut().access(addr as u64, true);
        }
        if let Some(c) = &self.chaos {
            c.maybe_yield();
        }
    }

    /// Records the completion of one high-level operation.
    #[inline]
    pub fn record_op(&self) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .ops
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a finished shared-structure search that visited `nodes`
    /// shared nodes (Fig. 5).
    #[inline]
    pub fn record_search(&self, nodes: u64) {
        if let Some(s) = &self.stats {
            let c = &s.counters[self.id as usize];
            c.searches.fetch_add(1, Ordering::Relaxed);
            c.traversed.fetch_add(nodes, Ordering::Relaxed);
        }
    }

    /// Records a finished *hinted* search (one that resumed from a
    /// sorted-run predecessor frontier instead of the head or a local-map
    /// jump). Callers record the search itself via
    /// [`ThreadCtx::record_search`] as usual; this adds the hint-distance
    /// attribution on top.
    #[inline]
    pub fn record_hinted_search(&self, nodes: u64) {
        if let Some(s) = &self.stats {
            let c = &s.counters[self.id as usize];
            c.hinted_searches.fetch_add(1, Ordering::Relaxed);
            c.hinted_traversed.fetch_add(nodes, Ordering::Relaxed);
        }
    }

    /// Records one combined batch of `ops` operations drained and executed
    /// by this thread acting as a socket's combiner.
    #[inline]
    pub fn record_batch(&self, ops: u64) {
        if let Some(s) = &self.stats {
            let c = &s.counters[self.id as usize];
            c.batches.fetch_add(1, Ordering::Relaxed);
            c.batched_ops.fetch_add(ops, Ordering::Relaxed);
            s.batch_sizes
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .record(ops);
        }
    }

    /// Records the retirement of one fully-unlinked node onto this
    /// thread's limbo list.
    #[inline]
    pub fn record_retire(&self) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .retired
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `slots` reclaimed slots returned to arena free lists by this
    /// thread's collect pass.
    #[inline]
    pub fn record_recycle(&self, slots: u64) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .recycled
                .fetch_add(slots, Ordering::Relaxed);
        }
    }

    /// Records one successful global-epoch advancement won by this thread.
    #[inline]
    pub fn record_epoch_advance(&self) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .epoch_advances
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a point read answered by the shared hash index (a hit or
    /// an authoritative absent — either way no descent was paid).
    #[inline]
    pub fn record_index_hit(&self) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .index_hits
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an index consultation that found no usable entry.
    #[inline]
    pub fn record_index_miss(&self) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .index_misses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an index entry rejected as stale during validation.
    #[inline]
    pub fn record_index_stale(&self) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .index_stale
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records an append to a replication operation log together with the
    /// lag (head minus the slowest replica's tail) the write joined.
    #[inline]
    pub fn record_log_append(&self, lag: u64) {
        if let Some(s) = &self.stats {
            let c = &s.counters[self.id as usize];
            c.log_appends.fetch_add(1, Ordering::Relaxed);
            c.log_lag_sum.fetch_add(lag, Ordering::Relaxed);
        }
    }

    /// Records a replica replay batch of `ops` operations drained under a
    /// replay lease.
    #[inline]
    pub fn record_replay_batch(&self, ops: u64) {
        if let Some(s) = &self.stats {
            let c = &s.counters[self.id as usize];
            c.replay_batches.fetch_add(1, Ordering::Relaxed);
            c.replayed_ops.fetch_add(ops, Ordering::Relaxed);
        }
    }

    /// Records a block resolution a local anchor answered alone (it named
    /// a live block covering the key; no search was paid).
    #[inline]
    pub fn record_anchor_hit(&self) {
        if let Some(s) = &self.stats {
            s.counters[self.id as usize]
                .anchor_hits
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// True when any recording sink is attached (used by structures to skip
    /// assembling record arguments on the fast path).
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.stats.is_some() || self.cache.is_some() || self.chaos.is_some()
    }

    /// The cache-simulation counters accumulated by this thread, if a
    /// hierarchy was attached.
    pub fn cache_counts(&self) -> Option<MissCounts> {
        self.cache.as_ref().map(|c| c.borrow().miss_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ctx_records_nothing_and_does_not_crash() {
        let ctx = ThreadCtx::plain(3);
        ctx.record_read(1, 0x10);
        ctx.record_cas(1, 0x10, false);
        ctx.record_op();
        ctx.record_search(5);
        ctx.record_hinted_search(2);
        ctx.record_batch(8);
        ctx.record_retire();
        ctx.record_recycle(4);
        ctx.record_epoch_advance();
        ctx.record_index_hit();
        ctx.record_index_miss();
        ctx.record_index_stale();
        ctx.record_log_append(7);
        ctx.record_replay_batch(5);
        ctx.record_anchor_hit();
        assert_eq!(ctx.id(), 3);
        assert!(!ctx.is_recording());
        assert!(ctx.cache_counts().is_none());
    }

    #[test]
    fn recording_ctx_feeds_matrices_and_counters() {
        let stats = AccessStats::new(4);
        let ctx = ThreadCtx::recording(1, stats.clone());
        ctx.record_read(2, 0x40);
        ctx.record_cas(3, 0x80, true);
        ctx.record_cas(3, 0x80, false);
        ctx.record_op();
        ctx.record_search(7);
        assert_eq!(stats.reads().get(1, 2), 1);
        assert_eq!(stats.cas().get(1, 3), 2);
        let t = stats.thread(1);
        assert_eq!(t.ops, 1);
        assert_eq!(t.cas_attempts, 2);
        assert_eq!(t.cas_failures, 1);
        assert_eq!(t.traversed, 7);
        assert_eq!(t.searches, 1);
        assert_eq!(stats.totals().cas_attempts, 2);
    }

    #[test]
    fn combiner_counters_and_batch_histogram() {
        let stats = AccessStats::new(2);
        let ctx = ThreadCtx::recording(0, stats.clone());
        ctx.record_batch(8);
        ctx.record_batch(64);
        ctx.record_hinted_search(3);
        ctx.record_hinted_search(5);
        let t = stats.thread(0);
        assert_eq!(t.batches, 2);
        assert_eq!(t.batched_ops, 72);
        assert_eq!(t.hinted_searches, 2);
        assert_eq!(t.hinted_traversed, 8);
        assert_eq!(stats.totals().batched_ops, 72);
        let h = stats.batch_size_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 64);
        assert_eq!(h.min(), 8);
    }

    #[test]
    fn reclamation_counters_accumulate() {
        let stats = AccessStats::new(2);
        let ctx = ThreadCtx::recording(1, stats.clone());
        ctx.record_retire();
        ctx.record_retire();
        ctx.record_recycle(3);
        ctx.record_epoch_advance();
        let t = stats.thread(1);
        assert_eq!(t.retired, 2);
        assert_eq!(t.recycled, 3);
        assert_eq!(t.epoch_advances, 1);
        let totals = stats.totals();
        assert_eq!(totals.retired, 2);
        assert_eq!(totals.recycled, 3);
        assert_eq!(totals.epoch_advances, 1);
    }

    #[test]
    fn index_counters_accumulate() {
        let stats = AccessStats::new(2);
        let ctx = ThreadCtx::recording(0, stats.clone());
        ctx.record_index_hit();
        ctx.record_index_hit();
        ctx.record_index_miss();
        ctx.record_index_stale();
        let t = stats.thread(0);
        assert_eq!(t.index_hits, 2);
        assert_eq!(t.index_misses, 1);
        assert_eq!(t.index_stale, 1);
        let totals = stats.totals();
        assert_eq!(totals.index_hits, 2);
        assert_eq!(totals.index_misses, 1);
        assert_eq!(totals.index_stale, 1);
    }

    #[test]
    fn replication_counters_accumulate() {
        let stats = AccessStats::new(2);
        let a = ThreadCtx::recording(0, stats.clone());
        let b = ThreadCtx::recording(1, stats.clone());
        a.record_log_append(3);
        a.record_log_append(5);
        b.record_replay_batch(4);
        b.record_replay_batch(0);
        let t0 = stats.thread(0);
        assert_eq!(t0.log_appends, 2);
        assert_eq!(t0.log_lag_sum, 8);
        let t1 = stats.thread(1);
        assert_eq!(t1.replay_batches, 2);
        assert_eq!(t1.replayed_ops, 4);
        let totals = stats.totals();
        assert_eq!(totals.log_appends, 2);
        assert_eq!(totals.log_lag_sum, 8);
        assert_eq!(totals.replay_batches, 2);
        assert_eq!(totals.replayed_ops, 4);
    }

    #[test]
    fn anchor_counters_accumulate() {
        let stats = AccessStats::new(2);
        let ctx = ThreadCtx::recording(1, stats.clone());
        ctx.record_anchor_hit();
        ctx.record_anchor_hit();
        assert_eq!(stats.thread(1).anchor_hits, 2);
        assert_eq!(stats.totals().anchor_hits, 2);
    }

    #[test]
    fn chaos_ctx_is_recording_and_does_not_crash() {
        let ctx = ThreadCtx::chaos(2, 42, 2);
        assert!(ctx.is_recording());
        for i in 0..100 {
            ctx.record_read(0, i);
            ctx.record_cas(0, i, i % 2 == 0);
        }
        assert_eq!(ctx.id(), 2);
        assert!(ctx.cache_counts().is_none());
    }

    #[test]
    fn cache_sim_attachment_counts_accesses() {
        let ctx = ThreadCtx::plain(0).with_cache_sim(Hierarchy::xeon_8275cl());
        ctx.record_read(0, 0x1000);
        ctx.record_read(0, 0x1000);
        ctx.record_cas(0, 0x2000, true);
        let m = ctx.cache_counts().unwrap();
        assert_eq!(m.accesses, 3);
        assert_eq!(m.l1, 2); // two distinct lines, each cold-missed once
    }
}
