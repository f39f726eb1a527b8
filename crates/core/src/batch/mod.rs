//! NUMA-local flat-combining batch executor (`skipgraph::batch`).
//!
//! An opt-in batching subsystem layered over the shared [`crate::graph::SkipGraph`]:
//! each registered thread owns one cache-line-padded *publication slot* in
//! its NUMA node's slot bank, deposits a vector of pending operations
//! there, and then either spin-waits for results or — by winning the
//! bank's *combiner lease* CAS — drains every pending slot of its socket,
//! sorts the union of operations by key, and executes the sorted run with
//! the hint-chained operations of `crate::graph` (each search resumes
//! from the previous operation's predecessor frontier). One traversal plus
//! short hops replaces `b` independent traversals, and all resulting
//! coherence traffic stays on the combiner's socket.
//!
//! Why this preserves linearizability: a submitted operation executes
//! (and linearizes, inside the skip graph) strictly between the owner's
//! publication and its consumption of the result, so every combined
//! operation linearizes within its caller's real-time interval — the
//! per-key histories the stress runner checks are unchanged in kind.
//!
//! Every slot-state and lease access goes through
//! [`crate::sync::FacadeAtomicUsize`], so under `--features deterministic`
//! the cooperative scheduler interleaves publication, combining, and
//! write-back at the same replayable granularity as the structure itself.

use crate::graph::NodeRef;
use crate::layered::{CombiningHandle, LayeredMap};
use crate::params::GraphConfig;
use crate::sync::{FacadeAtomicUsize, Padded};
use instrument::ThreadCtx;
use std::cell::UnsafeCell;
use std::hash::Hash;

/// Slot states: the owner publishes `EMPTY -> PENDING`; the combiner
/// answers `PENDING -> DONE`; the owner consumes `DONE -> EMPTY`.
const EMPTY: usize = 0;
const PENDING: usize = 1;
const DONE: usize = 2;

/// One operation deposited in a publication slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp<K, V> {
    /// Set-semantics insert: fails on a present key.
    Insert(K, V),
    /// Set-semantics remove: fails on an absent key.
    Remove(K),
    /// Point lookup.
    Get(K),
}

impl<K, V> BatchOp<K, V> {
    /// The operation's target key (the combiner's sort key).
    pub fn key(&self) -> &K {
        match self {
            BatchOp::Insert(k, _) | BatchOp::Remove(k) | BatchOp::Get(k) => k,
        }
    }
}

/// The result written back for one [`BatchOp`], in submission order.
#[derive(Debug)]
pub enum BatchOutcome<K, V> {
    /// Outcome of an [`BatchOp::Insert`].
    Inserted {
        /// Whether the insertion succeeded (key was absent, or was
        /// resurrected under the lazy protocol).
        fresh: bool,
        /// The shared node holding the key after the operation (the new
        /// node, or the surviving duplicate) — submitters use it to
        /// refresh their local structures.
        node: Option<NodeRef<K, V>>,
    },
    /// Outcome of a [`BatchOp::Remove`].
    Removed {
        /// Whether the key was present (a removal linearized here).
        removed: bool,
        /// The removed position's surviving predecessor, for tombstoned
        /// local-map hints (see `LayeredHandle` / EXPERIMENTS C3).
        pred: Option<NodeRef<K, V>>,
    },
    /// Outcome of a [`BatchOp::Get`].
    Got(Option<V>),
}

/// Maps registered threads onto per-socket slot banks.
///
/// Build one from the real topology via [`BatchConfig::from_placement`] or
/// synthetically via [`BatchConfig::uniform`].
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// `socket_of[t]` = slot-bank index of thread `t`.
    socket_of: Vec<usize>,
    sockets: usize,
}

impl BatchConfig {
    /// `threads` split into `sockets` contiguous blocks (a synthetic
    /// topology for tests and single-socket hosts).
    pub fn uniform(threads: usize, sockets: usize) -> Self {
        assert!(threads > 0 && sockets > 0);
        let sockets = sockets.min(threads);
        let socket_of = (0..threads).map(|t| t * sockets / threads).collect();
        Self { socket_of, sockets }
    }

    /// Derives the thread→socket map from a [`numa::Placement`] (the same
    /// placement that pins benchmark threads), so slots are grouped exactly
    /// by the NUMA node the thread runs on.
    pub fn from_placement(placement: &numa::Placement) -> Self {
        let socket_of = placement.numa_nodes();
        assert!(!socket_of.is_empty());
        let sockets = socket_of.iter().copied().max().unwrap_or(0) + 1;
        Self { socket_of, sockets }
    }

    /// Number of registered threads.
    pub fn threads(&self) -> usize {
        self.socket_of.len()
    }

    /// Number of slot banks (sockets).
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// The slot bank thread `t` publishes to.
    pub fn socket_of(&self, t: u16) -> usize {
        self.socket_of[t as usize]
    }
}

/// A structure the flat-combining executor can drive: anything that owns a
/// thread context and can execute one key-sorted run of batch operations.
/// [`crate::layered::LayeredHandle`] implements it with the per-key
/// hint-chained ops.
pub trait CombinerTarget<K, V> {
    /// The recording context of the combining thread.
    fn ctx(&self) -> &ThreadCtx;

    /// Executes `work` — `(slot, op_index, op)` triples sorted by key
    /// (stable, so same-key ops keep per-slot submission order) — and
    /// delivers each outcome through `out` with the triple's identifiers.
    /// Every triple must be answered exactly once.
    fn combined_run(
        &mut self,
        work: Vec<(usize, usize, BatchOp<K, V>)>,
        out: &mut dyn FnMut(usize, usize, BatchOutcome<K, V>),
    );
}

/// One thread's publication slot. The owner has exclusive access to `req`
/// and `resp` while `state` is `EMPTY` or `DONE`; the combiner has
/// exclusive access between observing `PENDING` (Acquire) and storing
/// `DONE` (Release). A classic SPSC handoff: every transfer of access
/// rides a Release store observed by an Acquire load.
struct Slot<K, V> {
    state: FacadeAtomicUsize,
    req: UnsafeCell<Vec<BatchOp<K, V>>>,
    resp: UnsafeCell<Vec<BatchOutcome<K, V>>>,
}

impl<K, V> Slot<K, V> {
    fn new() -> Self {
        Self {
            state: FacadeAtomicUsize::new(EMPTY),
            req: UnsafeCell::new(Vec::new()),
            resp: UnsafeCell::new(Vec::new()),
        }
    }
}

/// One socket's publication array plus its combiner lease.
struct Bank<K, V> {
    /// `0` = free; `tid + 1` = held by thread `tid`.
    lease: Padded<FacadeAtomicUsize>,
    slots: Vec<Padded<Slot<K, V>>>,
    /// Owning thread of each slot (diagnostics).
    members: Vec<u16>,
}

/// The flat-combining executor: per-socket publication banks over a
/// [`crate::graph::SkipGraph`]. See the module docs for the protocol.
pub struct BatchExecutor<K, V> {
    banks: Vec<Bank<K, V>>,
    /// Thread id → (bank, slot-within-bank).
    addr: Vec<(u16, u16)>,
}

// The UnsafeCell payloads are handed off between owner and combiner under
// the slot-state protocol documented on `Slot`; K/V (and the raw node
// pointers in outcomes, which are arena-backed for the graph's lifetime)
// cross threads, hence the Send + Sync bounds.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for BatchExecutor<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BatchExecutor<K, V> {}

impl<K, V> BatchExecutor<K, V> {
    /// Builds the slot banks for `config`.
    pub fn new(config: &BatchConfig) -> Self {
        let mut banks: Vec<Bank<K, V>> = (0..config.sockets())
            .map(|_| Bank {
                lease: Padded(FacadeAtomicUsize::new(0)),
                slots: Vec::new(),
                members: Vec::new(),
            })
            .collect();
        let mut addr = Vec::with_capacity(config.threads());
        for t in 0..config.threads() {
            let b = config.socket_of(t as u16);
            let bank = &mut banks[b];
            addr.push((b as u16, bank.slots.len() as u16));
            bank.slots.push(Padded(Slot::new()));
            bank.members.push(t as u16);
        }
        Self { banks, addr }
    }

    /// Number of slot banks.
    pub fn sockets(&self) -> usize {
        self.banks.len()
    }
}

impl<K: Ord, V> BatchExecutor<K, V> {
    /// Publishes `ops` to the calling thread's slot and returns their
    /// outcomes in submission order. The calling thread spin-waits on its
    /// slot and, whenever its socket's lease is free, takes it and combines
    /// (its own operations included) — so the call always terminates as
    /// long as scheduled threads run: a published slot is either drained by
    /// the current lease holder's successor scan or self-combined.
    ///
    /// `handle` is the caller's direct handle to the target structure: if
    /// the caller becomes the combiner, the whole drained union executes
    /// as one sorted run through [`CombinerTarget::combined_run`] — for a
    /// layered handle, per-op hint chains seeded by the further of the
    /// chain frontier and the combiner's local-map predecessor — and
    /// fresh nodes are allocated from the *combiner's* arena (same socket
    /// as the submitter by construction, which is the point) under the
    /// combiner's membership vector.
    pub fn submit<T>(&self, handle: &mut T, ops: Vec<BatchOp<K, V>>) -> Vec<BatchOutcome<K, V>>
    where
        T: CombinerTarget<K, V>,
    {
        self.submit_tracked(handle, ops).0
    }

    /// [`submit`](Self::submit), additionally reporting whether the caller
    /// executed its own batch as the combiner (`true`) or received the
    /// results through the slot write-back of another thread's combining
    /// pass (`false`). Self-combined operations already went through the
    /// caller's own layered handle, so the caller must not re-index them.
    pub(crate) fn submit_tracked<T>(
        &self,
        handle: &mut T,
        ops: Vec<BatchOp<K, V>>,
    ) -> (Vec<BatchOutcome<K, V>>, bool)
    where
        T: CombinerTarget<K, V>,
    {
        if ops.is_empty() {
            return (Vec::new(), true);
        }
        let tid = handle.ctx().id();
        let (b, s) = self.addr[tid as usize];
        let bank = &self.banks[b as usize];
        let slot = &bank.slots[s as usize].0;
        debug_assert_eq!(bank.members[s as usize], tid);
        // Combiner-first: an uncontended lease (the common case on a quiet
        // socket) lets the caller run its own batch directly — no slot
        // round-trip, no write-back allocation, and the outcomes come out
        // of `combined_op` already indexed in the caller's structures.
        if bank.lease.0.compare_exchange(0, tid as usize + 1).is_ok() {
            let outs = self.combine(bank, handle, Some(ops));
            bank.lease.0.store(0);
            return (outs.expect("own operations answered"), true);
        }
        // Publish. The slot is ours while EMPTY.
        unsafe { *slot.req.get() = ops };
        slot.state.store(PENDING);
        let mut spins = 0u32;
        loop {
            if slot.state.load() == DONE {
                let resp = unsafe { std::mem::take(&mut *slot.resp.get()) };
                slot.state.store(EMPTY);
                return (resp, false);
            }
            if bank.lease.0.compare_exchange(0, tid as usize + 1).is_ok() {
                // The prior lease holder may have answered us between our
                // last state check and the CAS; re-check before combining.
                if slot.state.load() != DONE {
                    // Our slot is PENDING and we hold the lease, so the
                    // drain below answers it; the next iteration consumes.
                    let _ = self.combine(bank, handle, None);
                }
                bank.lease.0.store(0);
            } else {
                // Another thread holds the lease and is combining on our
                // behalf. Spin briefly for the fast handoff, then yield the
                // OS thread on every iteration: when cores are
                // oversubscribed a busy-waiting waiter steals the very
                // quantum the combiner needs to finish the batch.
                spins = spins.wrapping_add(1);
                if spins < 16 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Drains every pending slot of `bank`, executes the union (plus the
    /// combiner's unpublished `own` operations, if any) as one key-sorted
    /// run through the combiner's handle, and writes the outcomes back.
    /// Returns the outcomes of `own` in submission order. Must only be
    /// called while holding `bank`'s lease.
    fn combine<T>(
        &self,
        bank: &Bank<K, V>,
        handle: &mut T,
        own: Option<Vec<BatchOp<K, V>>>,
    ) -> Option<Vec<BatchOutcome<K, V>>>
    where
        T: CombinerTarget<K, V>,
    {
        /// Pseudo slot index for the combiner's own unpublished run.
        const OWN: usize = usize::MAX;
        let had_own = own.is_some();
        // Drain phase: take the request vectors of every slot that was
        // PENDING at scan time (later publishers catch the next lease).
        let mut work: Vec<(usize, usize, BatchOp<K, V>)> = Vec::new();
        let mut drained: Vec<(usize, usize)> = Vec::new(); // (slot, op count)
        for (si, slot) in bank.slots.iter().enumerate() {
            let slot = &slot.0;
            if slot.state.load() != PENDING {
                continue;
            }
            let ops = unsafe { std::mem::take(&mut *slot.req.get()) };
            drained.push((si, ops.len()));
            for (oi, op) in ops.into_iter().enumerate() {
                work.push((si, oi, op));
            }
        }
        let mut own_len = 0;
        if let Some(own_ops) = own {
            own_len = own_ops.len();
            for (oi, op) in own_ops.into_iter().enumerate() {
                work.push((OWN, oi, op));
            }
        }
        if work.is_empty() {
            return had_own.then(Vec::new);
        }
        // Sorted run: ascending keys let every operation resume the
        // previous one's frontier. The sort is stable, so same-key
        // operations keep their per-slot submission order.
        work.sort_by(|a, b| a.2.key().cmp(b.2.key()));
        let total = work.len() as u64;
        // Per-slot outcome buffers, indexed back into submission order.
        let mut buf_of = vec![usize::MAX; bank.slots.len()];
        let mut bufs: Vec<Vec<Option<BatchOutcome<K, V>>>> = Vec::with_capacity(drained.len());
        for (di, &(si, count)) in drained.iter().enumerate() {
            buf_of[si] = di;
            bufs.push((0..count).map(|_| None).collect());
        }
        let mut own_out: Vec<Option<BatchOutcome<K, V>>> = (0..own_len).map(|_| None).collect();
        handle.combined_run(work, &mut |si, oi, out| {
            if si == OWN {
                own_out[oi] = Some(out);
            } else {
                bufs[buf_of[si]][oi] = Some(out);
            }
        });
        // Write-back phase: per slot, restore submission order and release
        // with DONE.
        for (buf, &(si, _)) in bufs.into_iter().zip(drained.iter()) {
            let slot = &bank.slots[si].0;
            unsafe {
                *slot.resp.get() = buf
                    .into_iter()
                    .map(|o| o.expect("every drained op answered"))
                    .collect();
            }
            slot.state.store(DONE);
        }
        handle.ctx().record_batch(total);
        had_own.then(|| {
            own_out
                .into_iter()
                .map(|o| o.expect("every own op answered"))
                .collect()
        })
    }
}

impl<K, V> std::fmt::Debug for BatchExecutor<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExecutor")
            .field("sockets", &self.banks.len())
            .field("threads", &self.addr.len())
            .finish()
    }
}

/// A [`LayeredMap`] whose per-thread handles route every shared-structure
/// operation through the flat-combining executor (the fully-combined
/// configuration the batch stress lanes exercise). Registering yields a
/// [`CombiningHandle`].
pub struct BatchedLayeredMap<K, V> {
    map: LayeredMap<K, V>,
}

impl<K: Ord + Hash + Clone, V> BatchedLayeredMap<K, V> {
    /// Builds the layered map with a batch executor attached.
    pub fn new(config: GraphConfig, batch: BatchConfig) -> Self {
        Self {
            map: LayeredMap::with_batching(config, batch),
        }
    }

    /// The underlying layered map (its plain `register` handles bypass the
    /// combiner; useful for preloading).
    pub fn inner(&self) -> &LayeredMap<K, V> {
        &self.map
    }

    /// Registers the calling thread for combined execution.
    pub fn register(&self, ctx: ThreadCtx) -> CombiningHandle<'_, K, V>
    where
        V: Clone,
    {
        self.map.register_combining(ctx)
    }
}

impl<K, V> std::fmt::Debug for BatchedLayeredMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedLayeredMap").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(threads: usize, lazy: bool) -> LayeredMap<u64, u64> {
        LayeredMap::new(GraphConfig::new(threads).lazy(lazy).chunk_capacity(1 << 10))
    }

    #[test]
    fn config_uniform_blocks_and_placement_shapes() {
        let c = BatchConfig::uniform(4, 2);
        assert_eq!(c.sockets(), 2);
        assert_eq!(c.threads(), 4);
        assert_eq!(
            (0..4).map(|t| c.socket_of(t)).collect::<Vec<_>>(),
            vec![0, 0, 1, 1]
        );
        // More sockets than threads degrades gracefully.
        let c1 = BatchConfig::uniform(1, 4);
        assert_eq!(c1.sockets(), 1);
        let p = numa::Placement::new(&numa::Topology::synthetic(2, 2, 1, 10, 21), 4);
        let cp = BatchConfig::from_placement(&p);
        assert_eq!(cp.threads(), 4);
        assert!(cp.sockets() >= 1);
        for t in 0..4 {
            assert!(cp.socket_of(t) < cp.sockets());
        }
    }

    /// Single thread: the submitter always becomes its own combiner.
    #[test]
    fn self_combining_executes_mixed_batch() {
        let m = map(1, true);
        let exec = BatchExecutor::new(&BatchConfig::uniform(1, 1));
        let mut h = m.register(ThreadCtx::plain(0));
        let outs = exec.submit(
            &mut h,
            vec![
                BatchOp::Insert(5, 50),
                BatchOp::Insert(1, 10),
                BatchOp::Insert(5, 99), // duplicate within the batch
                BatchOp::Get(1),
                BatchOp::Remove(3), // absent
                BatchOp::Remove(1),
                BatchOp::Get(1),
            ],
        );
        assert_eq!(outs.len(), 7);
        assert!(matches!(outs[0], BatchOutcome::Inserted { fresh: true, .. }));
        assert!(matches!(outs[1], BatchOutcome::Inserted { fresh: true, .. }));
        assert!(matches!(
            outs[2],
            BatchOutcome::Inserted { fresh: false, .. }
        ));
        assert!(matches!(outs[3], BatchOutcome::Got(Some(10))));
        assert!(matches!(
            outs[4],
            BatchOutcome::Removed { removed: false, .. }
        ));
        assert!(matches!(
            outs[5],
            BatchOutcome::Removed { removed: true, .. }
        ));
        assert!(matches!(outs[6], BatchOutcome::Got(None)));
        let ctx = ThreadCtx::plain(0);
        assert!(m.shared().contains(&5, &ctx));
        assert!(!m.shared().contains(&1, &ctx));
    }

    /// Two threads on one socket: whoever wins the lease answers both
    /// slots; both submitters observe correct results. Small and
    /// loop-bounded so it stays Miri-friendly.
    #[test]
    fn two_thread_handoff_is_exact() {
        let m = map(2, false);
        let exec = BatchExecutor::new(&BatchConfig::uniform(2, 1));
        std::thread::scope(|s| {
            for t in 0..2u16 {
                let m = &m;
                let exec = &exec;
                s.spawn(move || {
                    let mut h = m.register(ThreadCtx::plain(t));
                    for round in 0..3u64 {
                        let base = (t as u64) * 100 + round * 10;
                        let outs = exec.submit(
                            &mut h,
                            vec![BatchOp::Insert(base, base), BatchOp::Get(base)],
                        );
                        assert!(
                            matches!(outs[0], BatchOutcome::Inserted { fresh: true, .. }),
                            "t{t} round {round}"
                        );
                        assert!(matches!(outs[1], BatchOutcome::Got(Some(v)) if v == base));
                    }
                });
            }
        });
        let ctx = ThreadCtx::plain(0);
        assert_eq!(m.shared().len(&ctx), 6);
        m.shared().check_invariants().unwrap();
    }

    /// Combined inserts land in the combiner's arena (NUMA locality of the
    /// allocation follows the combiner, i.e. the submitter's socket).
    #[test]
    fn single_combiner_owns_all_combined_nodes() {
        let m = map(2, false);
        let exec = BatchExecutor::new(&BatchConfig::uniform(2, 1));
        let mut h = m.register(ThreadCtx::plain(1));
        let ops = (0..16u64).map(|k| BatchOp::Insert(k, k)).collect();
        let _ = exec.submit(&mut h, ops);
        let sizes = m.shared().arena_sizes();
        assert_eq!(sizes[0], 0);
        assert_eq!(sizes[1], 16);
    }
}
