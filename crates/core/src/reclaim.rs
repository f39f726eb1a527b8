//! Quiescent-state / epoch-based reclamation (EBR) for shared nodes.
//!
//! The paper's C++ implementation never frees shared nodes mid-run — fine
//! for fixed-length benchmarks, fatal for a long-running service under
//! churn. This crate drops that model on purpose: every
//! [`crate::SkipGraph`], and so every map built over one, reclaims, and
//! there is no switch to turn it off. A node that has been *physically
//! unlinked from every level* is retired onto the retiring thread's
//! **limbo list**, waits out a grace period measured in **epochs**, and is
//! then returned to its size-class free list inside the owning thread's
//! `TowerArenas` bank (so recycled memory keeps its first-touch NUMA
//! placement).
//!
//! # The protocol
//!
//! * A global epoch counter `global`, padded onto lines of its own with
//!   the advance count (every pin loads it, every advance writes it), and
//!   one padded slot per benchmark thread. While a thread executes an
//!   operation it is **pinned**: its slot holds `(epoch << 1) | 1`,
//!   snapshotting the global epoch it entered at; quiescent threads hold
//!   `0`. The epoch and the slots' words are [`FacadeAtomicUsize`]s, so
//!   under `--features deterministic` every pin, unpin, advancement scan,
//!   and epoch CAS is a replayable scheduling point and shrunken traces
//!   reproduce reclamation decisions.
//! * Retiring pushes `(node, global)` onto the thread's limbo list after
//!   bumping the node's generation counter (every pointer cached before
//!   the bump now fails its generation check, see [`crate::node`]).
//! * [`EpochReclaim::try_advance`] CASes `global` from `g` to `g + 1` iff
//!   every pinned slot announces `g`. [`EpochReclaim::collect`] frees a
//!   thread's limbo entries whose `epoch + GRACE_EPOCHS <= global`.
//!
//! # Why two epochs of grace are enough
//!
//! While a thread is pinned at announced epoch `P`, the global epoch can
//! advance at most once past it (`g -> g + 1` requires every pinned slot
//! to announce `g`; ours announces `P`, so only the `P -> P + 1` step can
//! pass us): `global <= P + 1` for the whole pin. A node freed at
//! `global >= r + GRACE_EPOCHS` therefore has `r <= P - 1` — and a pinned
//! traversal can only acquire references to nodes whose retire epoch is
//! `>= P`. The reachability half of that claim rests on two structural
//! facts of the unlink protocol:
//!
//! 1. every word ever stored into a *live* (unmarked) `next[L]` cell
//!    targets a node that was not yet unlinked at level `L` at store time
//!    (a relink's successor was observed unmarked at `L`, and any later
//!    snip of that successor at `L` must go through the very cell the
//!    relink CAS pins — so CAS success proves the successor still linked);
//! 2. marking proceeds top-down, so a traversal that descends at a node
//!    it observed unmarked at level `L` reads a level-`L-1` cell that was
//!    also unmarked at that moment.
//!
//! Together: any node the traversal reaches — including through frozen
//! marked "zombie" chains — became fully unlinked only *after* the pin was
//! announced, so its retire epoch is `>= P` and its free is blocked by the
//! pin. (Collecting while pinned at `P` is likewise safe: it only frees
//! retire epochs `<= global - 2 <= P - 1`, which the pinned thread cannot
//! be holding.)
//!
//! A lagged pin (the announce store lands after `global` already moved
//! past the snapshot) is conservative, never unsafe: the stale announced
//! epoch blocks advancement *earlier*, and the `global <= P + 1` bound
//! above never assumed the snapshot was fresh.
//!
//! # Shared logical time (deterministic replay)
//!
//! [`logical_now`] is the single time source for both the commission
//! clock (`check_retire`, Alg. 14) and the epoch machinery: scheduler
//! steps under `deterministic`, TSC cycles otherwise. Sharing one source
//! is what lets a shrunken deterministic trace reproduce commission *and*
//! reclamation decisions byte-for-byte on replay.
//!
//! Its unchecked code rests on the grace-period argument above: a retired node
//! is freed only once no pin that could have reached it remains.

use crate::node::Node;
use crate::sync::{FacadeAtomicUsize, Padded};
use std::ptr::NonNull;
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Grace distance: a node retired at epoch `r` may be freed once
/// `global >= r + GRACE_EPOCHS`. See the module docs for the proof that 2
/// suffices.
pub(crate) const GRACE_EPOCHS: usize = 2;

/// Outermost pins between quiesce attempts (per thread): every
/// `QUIESCE_PERIOD`-th operation tries to advance the epoch and collect
/// its own limbo list before pinning.
pub(crate) const QUIESCE_PERIOD: usize = 64;

/// The logical time source of the commission clock (the stamp
/// `alloc_node` writes and the check in `check_retire`): TSC cycles, or
/// under `--features deterministic` the scheduler's step count, 0 outside
/// a schedule. So a map preloaded before its lane starts stamps its nodes
/// at 0, a time the lane's steps are measured from, and what retires in a
/// lane is a pure function of its schedule.
#[inline]
pub(crate) fn logical_now() -> u64 {
    #[cfg(feature = "deterministic")]
    return crate::det::active_step().unwrap_or(0);
    #[cfg(not(feature = "deterministic"))]
    instrument::time::cycles()
}

/// A node waiting out its grace period.
struct Retired<K, V> {
    node: NonNull<Node<K, V>>,
    epoch: usize,
}

/// Per-thread reclamation state. The domain holds each slot in a
/// [`Padded`] 128-byte granule, so pin/unpin stores never false-share with
/// a neighbor's announcement word, not even through the adjacent-line
/// prefetcher.
struct ThreadSlot<K, V> {
    /// `(epoch << 1) | 1` while pinned, `0` while quiescent.
    pinned: FacadeAtomicUsize,
    /// Pin re-entrancy depth. Owner-thread only (pins nest:
    /// `LayeredHandle::range` pins to read its hint, then the scan's
    /// `SkipGraph::walk` pins again).
    depth: AtomicUsize,
    /// Outermost pins since the last quiesce attempt. Owner-thread only.
    ops: AtomicUsize,
    /// Nodes this thread has ever retired. Owner-thread writes (plain
    /// load+store — keeping the retire hot path free of locked RMWs);
    /// stats readers sum across slots and tolerate staleness.
    retired: AtomicUsize,
    /// This thread's limbo list. Uncontended in practice (owner pushes and
    /// collects); a mutex keeps teardown flushes simple.
    limbo: Mutex<Vec<Retired<K, V>>>,
}

/// The two words an epoch advance writes.
struct Epoch {
    /// The global epoch, through the facade so the deterministic scheduler
    /// interleaves advancement with pins.
    global: FacadeAtomicUsize,
    /// Successful epoch advancements.
    advances: AtomicUsize,
}

/// The reclamation domain owned by one [`crate::SkipGraph`].
pub(crate) struct EpochReclaim<K, V> {
    /// Loaded by every pin and written by every advance, so padded off
    /// the graph's read-mostly fields.
    epoch: Padded<Epoch>,
    slots: Box<[Padded<ThreadSlot<K, V>>]>,
}

// Retired nodes carry K/V payloads that will be dropped (released) from
// whichever thread runs the collect, so both must be Send. The slots
// themselves hold no thread-affine state.
unsafe impl<K: Send, V: Send> Send for EpochReclaim<K, V> {}
unsafe impl<K: Send, V: Send> Sync for EpochReclaim<K, V> {}

impl<K, V> EpochReclaim<K, V> {
    pub(crate) fn new(threads: usize) -> Self {
        let slots = (0..threads.max(1))
            .map(|_| {
                Padded(ThreadSlot {
                    pinned: FacadeAtomicUsize::new(0),
                    depth: AtomicUsize::new(0),
                    ops: AtomicUsize::new(0),
                    retired: AtomicUsize::new(0),
                    limbo: Mutex::new(Vec::new()),
                })
            })
            .collect();
        Self {
            epoch: Padded(Epoch {
                global: FacadeAtomicUsize::new(0),
                advances: AtomicUsize::new(0),
            }),
            slots,
        }
    }

    /// The words an epoch advance writes, as (address, size) pairs.
    #[cfg(test)]
    pub(crate) fn epoch_words(&self) -> [(usize, usize); 2] {
        fn span<T>(x: &T) -> (usize, usize) {
            (x as *const T as usize, std::mem::size_of::<T>())
        }
        [span(&self.epoch.0.global), span(&self.epoch.0.advances)]
    }

    /// Pins `tid` (re-entrant). The outermost pin announces the current
    /// global epoch; until the matching [`Self::unpin`], every node the
    /// thread can reach is protected from being freed.
    pub(crate) fn pin(&self, tid: usize) {
        let slot = &self.slots[tid].0;
        let d = slot.depth.load(Ordering::Relaxed);
        slot.depth.store(d + 1, Ordering::Relaxed);
        if d == 0 {
            let e = self.epoch.0.global.load();
            // The announcement must be ordered before every subsequent
            // shared read; try_advance fences symmetrically before its
            // scan. On x86 a locked RMW is a full barrier, so a SeqCst
            // swap is the cheaper spelling of `store + fence(SeqCst)`
            // (the same substitution crossbeam-epoch's pin makes); under
            // Miri and on other architectures keep the explicit fence.
            #[cfg(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri)))]
            slot.pinned.swap_seq_cst((e << 1) | 1);
            #[cfg(not(all(any(target_arch = "x86", target_arch = "x86_64"), not(miri))))]
            {
                slot.pinned.store((e << 1) | 1);
                fence(Ordering::SeqCst);
            }
        }
    }

    /// Releases one pin level; the outermost release re-enters quiescence.
    pub(crate) fn unpin(&self, tid: usize) {
        let slot = &self.slots[tid].0;
        let d = slot.depth.load(Ordering::Relaxed);
        debug_assert!(d > 0, "unpin without pin");
        slot.depth.store(d - 1, Ordering::Relaxed);
        if d == 1 {
            slot.pinned.store(0);
        }
    }

    /// Whether `tid` currently holds at least one pin.
    #[inline]
    pub(crate) fn is_pinned(&self, tid: usize) -> bool {
        self.slots[tid].0.depth.load(Ordering::Relaxed) > 0
    }

    /// Counts one outermost pin; true every [`QUIESCE_PERIOD`]-th call,
    /// when the caller should run [`Self::try_advance`] + [`Self::collect`]
    /// (while quiescent — the graph does this right before pinning).
    #[inline]
    pub(crate) fn op_tick(&self, tid: usize) -> bool {
        let slot = &self.slots[tid].0;
        let n = slot.ops.load(Ordering::Relaxed) + 1;
        slot.ops.store(n, Ordering::Relaxed);
        n.is_multiple_of(QUIESCE_PERIOD)
    }

    /// Retires a fully-unlinked node: bumps its generation (invalidating
    /// every pointer cached before now) and parks it on `tid`'s limbo list
    /// stamped with the current epoch.
    ///
    /// # Safety
    ///
    /// `node` must be a data node physically unlinked from every level,
    /// reported exactly once (see `Node::note_unlinked`).
    pub(crate) unsafe fn retire(&self, tid: usize, node: NonNull<Node<K, V>>) {
        node.as_ref().bump_generation();
        let epoch = self.epoch.0.global.load();
        let slot = &self.slots[tid].0;
        slot.limbo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Retired { node, epoch });
        // Owner-only counter: load+store instead of a locked fetch_add.
        let r = slot.retired.load(Ordering::Relaxed);
        slot.retired.store(r + 1, Ordering::Relaxed);
    }

    /// Tries to advance the global epoch by one. Succeeds only when every
    /// pinned thread has announced the current epoch.
    pub(crate) fn try_advance(&self) -> bool {
        let g = self.epoch.0.global.load();
        fence(Ordering::SeqCst);
        for slot in self.slots.iter() {
            let p = slot.0.pinned.load();
            if p != 0 && (p >> 1) != g {
                return false;
            }
        }
        let ok = self.epoch.0.global.compare_exchange(g, g + 1).is_ok();
        if ok {
            self.epoch.0.advances.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Frees every entry of `tid`'s limbo list whose grace period has
    /// passed, handing each node to `free` (which returns the slot to its
    /// owning arena). Returns how many were freed. Safe to call pinned or
    /// quiescent: a collectible epoch is at least two behind the global,
    /// which no live reference can reach (module docs).
    pub(crate) fn collect<F: FnMut(NonNull<Node<K, V>>)>(&self, tid: usize, mut free: F) -> usize {
        let g = self.epoch.0.global.load();
        let mut limbo = self.slots[tid]
            .0
            .limbo
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // Entries are pushed with nondecreasing epoch stamps (retire reads
        // the monotonic global, and a slot's pushes are sequential — only
        // the owner retires into it), so the collectible entries form a
        // prefix. Binary search + drain keeps a quiesce tick's cost
        // proportional to what it frees, not to the limbo backlog — which
        // matters when a preempted pin has stalled the grace period and
        // the backlog is deep.
        let freed = limbo.partition_point(|r| r.epoch + GRACE_EPOCHS <= g);
        for r in limbo.drain(..freed) {
            free(r.node);
        }
        freed
    }

    /// Number of thread slots (the collect fan-out for a full flush).
    #[inline]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Current global epoch.
    #[inline]
    pub(crate) fn global_epoch(&self) -> usize {
        self.epoch.0.global.load()
    }

    /// Nodes currently awaiting their grace period (all threads). A
    /// lock-and-sum over the limbo lists: this is a stats path, and
    /// keeping the count here (instead of a shared counter) keeps locked
    /// RMWs out of the retire/collect hot paths.
    pub(crate) fn limbo_nodes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.0.limbo.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Nodes ever retired (sum of the per-thread owner-only counters;
    /// concurrent readers may observe a slightly stale total).
    pub(crate) fn retired_total(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.0.retired.load(Ordering::Relaxed))
            .sum()
    }

    /// Successful epoch advancements.
    #[inline]
    pub(crate) fn epoch_advances(&self) -> usize {
        self.epoch.0.advances.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::sync::{line_of, lines_of};
    use numa::arena::Arena;

    fn arena() -> Arena<Node<u64, u64>> {
        Arena::with_layout(0, 16, 0)
    }

    fn data(a: &Arena<Node<u64, u64>>, k: u64) -> NonNull<Node<u64, u64>> {
        a.alloc(Node::new_data(k, k, 0, 0, 0))
    }

    #[test]
    fn pinned_words_share_no_line() {
        let r: EpochReclaim<u64, u64> = EpochReclaim::new(4);
        let lines: Vec<usize> = r
            .slots
            .iter()
            .map(|s| {
                assert_eq!(
                    lines_of(&s.0.pinned).count(),
                    1,
                    "a pinned word straddles lines"
                );
                line_of(&s.0.pinned)
            })
            .collect();
        for (i, line) in lines.iter().enumerate() {
            assert!(
                !lines[..i].contains(line),
                "two slots' pinned words share a line"
            );
        }
    }

    #[test]
    fn grace_period_blocks_and_releases() {
        let a = arena();
        let r: EpochReclaim<u64, u64> = EpochReclaim::new(2);
        let n = data(&a, 7);
        unsafe { r.retire(0, n) };
        assert_eq!(r.limbo_nodes(), 1);
        assert_eq!(r.retired_total(), 1);
        assert_eq!(
            unsafe { Node::generation_of(n) },
            1,
            "retire bumps the generation"
        );
        // Epoch 0: nothing collectible.
        assert_eq!(r.collect(0, |_| panic!("grace not passed")), 0);
        assert!(r.try_advance());
        assert_eq!(r.collect(0, |_| panic!("one epoch is not grace")), 0);
        assert!(r.try_advance());
        let mut freed = Vec::new();
        assert_eq!(r.collect(0, |p| freed.push(p)), 1);
        assert_eq!(freed, vec![n]);
        assert_eq!(r.limbo_nodes(), 0);
        assert_eq!(r.epoch_advances(), 2);
        unsafe { Node::release_payload(n) };
    }

    #[test]
    fn pinned_thread_blocks_advancement_until_unpin() {
        let r: EpochReclaim<u64, u64> = EpochReclaim::new(3);
        r.pin(1);
        assert!(r.is_pinned(1));
        // Thread 1 announced epoch 0, so 0 -> 1 can pass it...
        assert!(r.try_advance());
        // ...but 1 -> 2 cannot: slot 1 still announces 0.
        assert!(!r.try_advance());
        assert_eq!(r.global_epoch(), 1);
        // Re-entrant inner pin/unpin keeps the announcement.
        r.pin(1);
        r.unpin(1);
        assert!(!r.try_advance());
        r.unpin(1);
        assert!(!r.is_pinned(1));
        assert!(r.try_advance());
        assert_eq!(r.global_epoch(), 2);
    }

    #[test]
    fn collect_only_frees_own_slot() {
        let a = arena();
        let r: EpochReclaim<u64, u64> = EpochReclaim::new(2);
        let n0 = data(&a, 1);
        let n1 = data(&a, 2);
        unsafe {
            r.retire(0, n0);
            r.retire(1, n1);
        }
        assert!(r.try_advance());
        assert!(r.try_advance());
        let mut freed = Vec::new();
        assert_eq!(r.collect(0, |p| freed.push(p)), 1);
        assert_eq!(freed, vec![n0]);
        assert_eq!(r.limbo_nodes(), 1, "slot 1's node stays in limbo");
        assert_eq!(r.collect(1, |p| freed.push(p)), 1);
        assert_eq!(freed, vec![n0, n1]);
        unsafe {
            Node::release_payload(n0);
            Node::release_payload(n1);
        }
    }

    #[test]
    fn op_tick_fires_periodically() {
        let r: EpochReclaim<u64, u64> = EpochReclaim::new(1);
        let fired: usize = (0..2 * QUIESCE_PERIOD).filter(|_| r.op_tick(0)).count();
        assert_eq!(fired, 2);
    }
}
