//! Per-thread recording context and the shared statistics sink.
//!
//! A [`ThreadCtx`] is a thread id and at most one boxed recorder. A plain
//! context has no recorder: it allocates nothing, and every `record_*`
//! call on it is one test of one word. The recorder holds whatever a
//! context was built to feed — an [`AccessStats`] sink, a cache-hierarchy
//! simulation, schedule-fuzzing state — and a sink keeps each thread's
//! counters as one row of atomics indexed by a private [`Counter`], so a
//! counter is named once: as a variant, and in the one mapping from a row
//! to a [`ThreadCounterSnapshot`].

use crate::matrix::AccessMatrix;
use cache_sim::{Hierarchy, MissCounts};
use crossbeam_utils::CachePadded;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A per-thread scalar counter: its index in the thread's row.
#[derive(Clone, Copy)]
enum Counter {
    Ops,
    CasAttempts,
    CasFailures,
    Traversed,
    Searches,
    HintedSearches,
    HintedTraversed,
    Retired,
    Recycled,
    EpochAdvances,
    IndexHits,
    IndexMisses,
    IndexStale,
    LogAppends,
    LogLagSum,
    ReplayBatches,
    ReplayedOps,
    AnchorHits,
}

/// One thread's counters (single-writer; relaxed), indexed by [`Counter`].
type CounterRow = [AtomicU64; Counter::AnchorHits as usize + 1];

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
    /// Always 0: the flat-combining executor was removed and nothing
    /// records this any more. The field is kept because `benchmark/` still
    /// names it.
    pub batches: u64,
    /// Always 0, as `batches`.
    pub batched_ops: u64,
    /// Searches that started from a hint instead of the head or a
    /// local-map jump — a blocked map's first-block try (subset of
    /// `searches`).
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
    /// Sum over appends of the lag the append's claim checked: the head
    /// minus the appender's bound on the slowest replica's completion
    /// tail. The bound is reloaded only when it says the log is full, so
    /// this is an upper bound on the true backlog, and
    /// `log_lag_sum / log_appends` reads at or above the mean backlog a
    /// write joins.
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

impl ThreadCounterSnapshot {
    /// The one mapping from a counter row to a snapshot: `read` gives the
    /// value of each counter (one thread's, or a sum over threads).
    fn from_row(read: impl Fn(Counter) -> u64) -> Self {
        use Counter::*;
        Self {
            ops: read(Ops),
            cas_attempts: read(CasAttempts),
            cas_failures: read(CasFailures),
            traversed: read(Traversed),
            searches: read(Searches),
            batches: 0,
            batched_ops: 0,
            hinted_searches: read(HintedSearches),
            hinted_traversed: read(HintedTraversed),
            retired: read(Retired),
            recycled: read(Recycled),
            epoch_advances: read(EpochAdvances),
            index_hits: read(IndexHits),
            index_misses: read(IndexMisses),
            index_stale: read(IndexStale),
            log_appends: read(LogAppends),
            log_lag_sum: read(LogLagSum),
            replay_batches: read(ReplayBatches),
            replayed_ops: read(ReplayedOps),
            anchor_hits: read(AnchorHits),
            collapsed_ops: 0,
        }
    }
}

/// Shared statistics sink for one experiment: thread-pair matrices plus
/// per-thread counters. Create one per structure-under-test, hand an
/// [`ThreadCtx::recording`] context to each worker thread, then query the
/// aggregate after the run.
#[derive(Debug)]
pub struct AccessStats {
    reads: AccessMatrix,
    cas: AccessMatrix,
    counters: Vec<CachePadded<CounterRow>>,
}

impl AccessStats {
    /// Creates a sink for `threads` worker threads.
    pub fn new(threads: usize) -> Arc<Self> {
        assert!(threads > 0);
        Arc::new(Self {
            reads: AccessMatrix::new(threads),
            cas: AccessMatrix::new(threads),
            counters: (0..threads).map(|_| CachePadded::default()).collect(),
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
        let row = &self.counters[id];
        ThreadCounterSnapshot::from_row(|c| row[c as usize].load(Ordering::Relaxed))
    }

    /// Sum of all thread snapshots.
    pub fn totals(&self) -> ThreadCounterSnapshot {
        ThreadCounterSnapshot::from_row(|c| {
            self.counters
                .iter()
                .map(|row| row[c as usize].load(Ordering::Relaxed))
                .sum()
        })
    }

    /// Number of threads this sink was sized for.
    pub fn threads(&self) -> usize {
        self.counters.len()
    }

    #[inline]
    fn add(&self, id: u16, counter: Counter, n: u64) {
        self.counters[id as usize][counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// The per-thread context threaded through every data-structure operation.
///
/// `ThreadCtx` carries the dense benchmark thread id (which doubles as the
/// NUMA-ownership tag for nodes the thread allocates) and at most one
/// boxed recorder. A [`ThreadCtx::plain`] context has none: it is two
/// words, allocates nothing, and each `record_*` call and
/// [`ThreadCtx::is_recording`] is a single predictable branch on the
/// recorder pointer.
#[derive(Debug)]
pub struct ThreadCtx {
    id: u16,
    recorder: Option<Box<Recorder>>,
}

/// What a recording context feeds: the stats sink, the cache simulation
/// and the chaos state, each optional. A recorder holds at least one.
#[derive(Debug, Default)]
struct Recorder {
    stats: Option<Arc<AccessStats>>,
    cache: Option<RefCell<Hierarchy>>,
    chaos: Option<Chaos>,
}

impl Recorder {
    /// Feeds one shared-node access to the cache simulation, then lets the
    /// chaos state preempt the thread.
    #[inline]
    fn access(&self, addr: usize, write: bool) {
        if let Some(c) = &self.cache {
            c.borrow_mut().access(addr as u64, write);
        }
        if let Some(c) = &self.chaos {
            c.maybe_yield();
        }
    }
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
    fn with(id: u16, recorder: Recorder) -> Self {
        Self {
            id,
            recorder: Some(Box::new(recorder)),
        }
    }

    /// A non-recording context for thread `id` (throughput runs).
    pub fn plain(id: u16) -> Self {
        Self { id, recorder: None }
    }

    /// A recording context feeding `stats` (heatmaps / Table 1).
    pub fn recording(id: u16, stats: Arc<AccessStats>) -> Self {
        Self::with(
            id,
            Recorder {
                stats: Some(stats),
                ..Recorder::default()
            },
        )
    }

    /// A sibling context with the same thread id and stats sink, for a
    /// structure that needs several handles per thread (e.g. one per
    /// replica): shared-node traffic from every sibling lands in the same
    /// per-thread counters. The cache simulation and chaos state are
    /// per-context (`RefCell`/`Cell`) and deliberately not forked.
    pub fn fork(&self) -> Self {
        match self.stats() {
            Some(s) => Self::recording(self.id, Arc::clone(s)),
            None => Self::plain(self.id),
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
        Self::with(
            id,
            Recorder {
                chaos: Some(Chaos {
                    state: Cell::new(seed | 1),
                    one_in,
                }),
                ..Recorder::default()
            },
        )
    }

    /// Attaches a per-thread cache-hierarchy simulation (Table 2).
    pub fn with_cache_sim(mut self, hierarchy: Hierarchy) -> Self {
        self.recorder.get_or_insert_with(Box::default).cache = Some(RefCell::new(hierarchy));
        self
    }

    /// The dense benchmark thread id.
    #[inline]
    pub fn id(&self) -> u16 {
        self.id
    }

    #[inline]
    fn stats(&self) -> Option<&Arc<AccessStats>> {
        self.recorder.as_ref()?.stats.as_ref()
    }

    /// Adds `n` to this thread's `counter` in the stats sink, if any.
    #[inline]
    fn count(&self, counter: Counter, n: u64) {
        if let Some(s) = self.stats() {
            s.add(self.id, counter, n);
        }
    }

    /// Records a read of a shared-node word owned by thread `owner` at
    /// address `addr`.
    #[inline]
    pub fn record_read(&self, owner: u16, addr: usize) {
        if let Some(r) = &self.recorder {
            if let Some(s) = &r.stats {
                s.reads.record(self.id, owner);
            }
            r.access(addr, false);
        }
    }

    /// Records a maintenance CAS on a word owned by `owner`.
    #[inline]
    pub fn record_cas(&self, owner: u16, addr: usize, success: bool) {
        if let Some(r) = &self.recorder {
            if let Some(s) = &r.stats {
                s.cas.record(self.id, owner);
                s.add(self.id, Counter::CasAttempts, 1);
                if !success {
                    s.add(self.id, Counter::CasFailures, 1);
                }
            }
            r.access(addr, true);
        }
    }

    /// Records the completion of one high-level operation.
    #[inline]
    pub fn record_op(&self) {
        self.count(Counter::Ops, 1);
    }

    /// Records a finished shared-structure search that visited `nodes`
    /// shared nodes (Fig. 5).
    #[inline]
    pub fn record_search(&self, nodes: u64) {
        self.count(Counter::Searches, 1);
        self.count(Counter::Traversed, nodes);
    }

    /// Records a finished *hinted* search (one that started from a hint —
    /// a blocked map's first block — instead of the head or a local-map
    /// jump). Callers record the search itself via
    /// [`ThreadCtx::record_search`] as usual; this adds the hint-distance
    /// attribution on top.
    #[inline]
    pub fn record_hinted_search(&self, nodes: u64) {
        self.count(Counter::HintedSearches, 1);
        self.count(Counter::HintedTraversed, nodes);
    }

    /// Records the retirement of one fully-unlinked node onto this
    /// thread's limbo list.
    #[inline]
    pub fn record_retire(&self) {
        self.count(Counter::Retired, 1);
    }

    /// Records `slots` reclaimed slots returned to arena free lists by this
    /// thread's collect pass.
    #[inline]
    pub fn record_recycle(&self, slots: u64) {
        self.count(Counter::Recycled, slots);
    }

    /// Records one successful global-epoch advancement won by this thread.
    #[inline]
    pub fn record_epoch_advance(&self) {
        self.count(Counter::EpochAdvances, 1);
    }

    /// Records a point read answered by the shared hash index (a hit or
    /// an authoritative absent — either way no descent was paid).
    #[inline]
    pub fn record_index_hit(&self) {
        self.count(Counter::IndexHits, 1);
    }

    /// Records an index consultation that found no usable entry.
    #[inline]
    pub fn record_index_miss(&self) {
        self.count(Counter::IndexMisses, 1);
    }

    /// Records an index entry rejected as stale during validation.
    #[inline]
    pub fn record_index_stale(&self) {
        self.count(Counter::IndexStale, 1);
    }

    /// Records an append to a replication operation log together with the
    /// lag its claim checked (head minus the appender's bound on the
    /// slowest replica's tail, at least the backlog the write joined).
    #[inline]
    pub fn record_log_append(&self, lag: u64) {
        self.count(Counter::LogAppends, 1);
        self.count(Counter::LogLagSum, lag);
    }

    /// Records a replica replay batch of `ops` operations drained under a
    /// replay lease.
    #[inline]
    pub fn record_replay_batch(&self, ops: u64) {
        self.count(Counter::ReplayBatches, 1);
        self.count(Counter::ReplayedOps, ops);
    }

    /// Records a block resolution a local anchor answered alone (it named
    /// a live block covering the key; no search was paid).
    #[inline]
    pub fn record_anchor_hit(&self) {
        self.count(Counter::AnchorHits, 1);
    }

    /// True when a recorder is attached (used by structures to skip
    /// assembling record arguments on the fast path).
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.recorder.is_some()
    }

    /// The cache-simulation counters accumulated by this thread, if a
    /// hierarchy was attached.
    pub fn cache_counts(&self) -> Option<MissCounts> {
        let cache = self.recorder.as_ref()?.cache.as_ref()?;
        Some(cache.borrow().miss_counts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ctx_records_nothing_and_does_not_crash() {
        let ctx = ThreadCtx::plain(3);
        record_everything(&ctx);
        assert_eq!(ctx.id(), 3);
        assert!(!ctx.is_recording());
        assert!(ctx.recorder.is_none(), "a plain context allocates nothing");
        assert!(ctx.fork().recorder.is_none());
        assert!(ctx.cache_counts().is_none());
    }

    /// Every `record_*` call once, for tests that check what a context
    /// feeds.
    fn record_everything(ctx: &ThreadCtx) {
        ctx.record_read(0, 0x1000);
        ctx.record_cas(1, 0x2000, false);
        ctx.record_op();
        ctx.record_search(5);
        ctx.record_hinted_search(2);
        ctx.record_retire();
        ctx.record_recycle(4);
        ctx.record_epoch_advance();
        ctx.record_index_hit();
        ctx.record_index_miss();
        ctx.record_index_stale();
        ctx.record_log_append(7);
        ctx.record_replay_batch(5);
        ctx.record_anchor_hit();
    }

    #[test]
    fn a_fork_shares_the_sink_and_drops_cache_and_chaos() {
        let stats = AccessStats::new(2);
        let ctx = ThreadCtx::with(
            1,
            Recorder {
                stats: Some(stats.clone()),
                cache: Some(RefCell::new(Hierarchy::xeon_8275cl())),
                chaos: Some(Chaos {
                    state: Cell::new(1),
                    one_in: 1,
                }),
            },
        );
        let fork = ctx.fork();
        assert_eq!(fork.id(), 1);
        let r = fork.recorder.as_deref().unwrap();
        assert!(Arc::ptr_eq(r.stats.as_ref().unwrap(), &stats));
        assert!(r.cache.is_none() && r.chaos.is_none());
        record_everything(&ctx);
        record_everything(&fork);
        assert_eq!(stats.reads().get(1, 0), 2);
        assert_eq!(stats.cas().get(1, 1), 2);
        let t = stats.thread(1);
        assert_eq!(
            (t.ops, t.cas_failures, t.traversed, t.log_lag_sum),
            (2, 2, 10, 14)
        );
        assert_eq!(ctx.cache_counts().unwrap().accesses, 2);
        assert!(fork.cache_counts().is_none());
    }

    #[test]
    fn a_cache_sim_on_a_plain_context_feeds_the_cache_and_no_counter() {
        let ctx = ThreadCtx::plain(0).with_cache_sim(Hierarchy::xeon_8275cl());
        assert!(ctx.is_recording());
        assert!(ctx.stats().is_none());
        record_everything(&ctx);
        assert_eq!(ctx.cache_counts().unwrap().accesses, 2);
        assert!(ctx.fork().recorder.is_none());
    }

    #[test]
    fn a_chaos_context_counts_nothing() {
        let ctx = ThreadCtx::chaos(1, 7, 1);
        assert!(ctx.is_recording());
        record_everything(&ctx);
        let r = ctx.recorder.as_deref().unwrap();
        assert!(r.stats.is_none() && r.cache.is_none());
        assert!(ctx.cache_counts().is_none());
        assert!(ctx.fork().recorder.is_none());
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
    fn hinted_search_counters() {
        let stats = AccessStats::new(2);
        let ctx = ThreadCtx::recording(0, stats.clone());
        ctx.record_hinted_search(3);
        ctx.record_hinted_search(5);
        let t = stats.thread(0);
        assert_eq!(t.hinted_searches, 2);
        assert_eq!(t.hinted_traversed, 8);
        assert_eq!((t.batches, t.batched_ops), (0, 0));
        assert_eq!(stats.totals().hinted_traversed, 8);
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
