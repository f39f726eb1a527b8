//! Shared lock-free hash index for O(1) point reads (the Skip Hash fast
//! path).
//!
//! The index maps key hashes to generation-tagged node entries over live
//! shared nodes, one key per node. It is an *accelerator, never an
//! authority*: every entry is re-validated on read against the node it
//! names — generation first (the `crate::reclaim` retire protocol bumps
//! it, so entries to retired incarnations can never validate), then the
//! key, then the node's own level-0 state word — and any failure falls
//! back to the ordered descent. Publishing and invalidation are therefore
//! best-effort: a lost publish or a skipped invalidation costs a descent,
//! not correctness.
//!
//! # Coherence protocol (see ARCHITECTURE §7)
//!
//! * **publish-after-link** — an entry is published only after its node is
//!   reachable in the shared structure (level-0 link CAS or lazy
//!   resurrection), so a hit can always be re-verified against live shared
//!   state.
//! * **invalidate-before-retire** — removal paths tombstone the entry
//!   before the node is retired onto a limbo list; the retire-side
//!   generation bump is the hard backstop that makes the tombstone pure
//!   hygiene.
//! * **generation re-check ordering** — a reader first proves the pair
//!   `(ptr, gen)` consistent (the slot's tag word doubles as a seqlock),
//!   then checks `Node::generation_of(ptr) == gen` under its reclamation
//!   pin. Equality proves the incarnation has not been retired since
//!   publish, which (with the pin blocking recycling) makes the
//!   dereference safe — exactly the [`crate::graph::NodeRef`] argument.
//!
//! # Slot layout
//!
//! Each bucket is two facade-atomic words (every access is a
//! deterministic-scheduler yield point, so stress schedules interleave
//! index and structure steps at the same granularity), 16 bytes aligned
//! to 16 — a quarter of a 64-byte line by type, so no slot straddles two
//! lines whatever the allocator returns:
//!
//! ```text
//! tag:  [63] present | [62:32] key-hash signature | [31:0] generation
//! ptr:  the shared node
//! ```
//!
//! `tag` values 0 (`EMPTY`), 1 (`TOMBSTONE`) and 2 (`BUSY`) are reserved;
//! a present tag always has bit 63 set. Writers claim a slot by CAS-ing
//! the tag to `BUSY`, store `ptr`, then release-store the final tag;
//! readers load the tag, `ptr`, then the tag again and reject the entry
//! unless both tag loads agree — so a reader can never pair one entry's
//! pointer with another's generation, unless a grow's plain stores raced a
//! publish into the slot (see below). A writer that finds a slot
//! busy simply moves on (the index tolerates lost publishes), so no
//! operation ever waits on a stalled peer.
//!
//! # Header layout
//!
//! Every probe — lookup, publish or invalidate, from any core — loads a
//! segment's `mask` and the chunk-directory entry its slot lives in. Those
//! words sit on 128-byte lines that no publish or invalidate ever writes
//! (only a grow stores `mask` and installs a chunk), so they stay shared in
//! every core's cache. What a publish or invalidate does count — slots
//! claimed, entries published, entries tombstoned — goes to the calling
//! thread's own 128-byte-padded stripe; the totals are sums over the
//! stripes.
//!
//! # Growing in place
//!
//! A segment is one power-of-two slot array held in a fixed chunk
//! directory: chunk 0 has the initial capacity and chunk `j ≥ 1` is the
//! upper half the `j`-th doubling added. A grow (one grower at a time,
//! everyone else keeps probing) allocates only that upper half, copies
//! into it — with plain stores, the chunk is still private — every entry
//! whose home the doubled mask moves there, installs the chunk and
//! publishes the mask. One fused pass over the old half then frees the
//! originals it stranded, publishes again those it has no copy of, shifts
//! displaced entries back toward home and clears every tombstone no probe
//! chain needs (see `Segment::repack`). When the occupancy trip-wire
//! fires while live entries fill under 3/8 of the array, the same pass runs
//! without the doubling: key turnover at a constant live size does not
//! grow the index.
//!
//! The safety argument rests on two facts: slot storage is freed only when
//! the segment drops, and every `ptr` word ever stored is `0` or a node of
//! this graph. The pass moves and frees with plain stores, so a publish
//! racing it into one slot may be lost, or leave one write's tag beside
//! another's pointer; whatever `(tag, ptr)` pair a reader assembles goes
//! through the generation → key → level-0 ladder like any other stale
//! entry, and the race costs a descent, never a wrong answer.
//!
//! # NUMA-aware segments
//!
//! The index is split into one segment per NUMA node (detected topology,
//! or the paper's machine as a fallback), selected by the top hash bits;
//! each segment owns an independently grown slot array, so probe chains
//! stay within one segment's storage (first-touched by the building
//! thread) instead of striding a single machine-wide array.

use crate::adapt::{AdaptConfig, OCC_GROW_PCT, PROBE_GROW};
use crate::node::Node;
use crate::sync::{FacadeAtomicUsize, Padded};
use instrument::{MeanWindow, ThreadCtx};
use numa::{Placement, Topology};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow::{self, Break, Continue};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

// Tag packing below folds a 32-bit generation and a 31-bit hash
// signature into one word.
const _: () = assert!(usize::BITS == 64, "the hash index packs (sig, gen) into one 64-bit word");

const TAG_EMPTY: usize = 0;
const TAG_TOMBSTONE: usize = 1;
const TAG_BUSY: usize = 2;
const TAG_PRESENT: usize = 1 << 63;

/// Linear-probe bound: past this many slots from home, a publish gives up
/// (after growing the segment and retrying once) and a lookup reports a
/// miss. Lookups of absent keys stop at the first empty slot long before;
/// the bound only caps the worst case (16 lines) and the damage a
/// pathological hash cluster can do.
pub const PROBE_LIMIT: usize = 64;

/// Width of [`SegmentOccupancy::probe_histogram`].
const HISTOGRAM_BUCKETS: usize = 16;

/// Occupancy snapshot of one NUMA segment's slot array — the tuning
/// signal for [`crate::GraphConfig::index_capacity`]: `used` near 75% of
/// `capacity` means the segment is about to grow (or, with few live
/// entries, to compact), and mass in the histogram's upper buckets means
/// probe chains (and thus point-read line costs) are long even though
/// space remains — the condition the windowed probe sensor turns into an
/// early grow when [`crate::GraphConfig::adapt`] is set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentOccupancy {
    /// Slots in the segment's array (power of two).
    pub capacity: usize,
    /// Slots not empty, tombstones included (the grow trigger compares
    /// this against 75% of `capacity`).
    pub used: usize,
    /// Present entries observed by the snapshot walk.
    pub entries: usize,
    /// Tombstoned slots (retired entries still occupying probe chains
    /// until the next grow or compaction clears them).
    pub tombstones: usize,
    /// Present entries binned by displacement from their home slot
    /// (`[0]` = direct hits; the last bucket absorbs the tail).
    pub probe_histogram: [u64; HISTOGRAM_BUCKETS],
}

impl SegmentOccupancy {
    /// Fraction of the table occupied by present entries.
    pub fn load_factor(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.entries as f64 / self.capacity as f64
        }
    }

    /// Mean probe length over present entries (1.0 = every key home).
    pub fn mean_probe(&self) -> f64 {
        if self.entries == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .probe_histogram
            .iter()
            .enumerate()
            .map(|(d, n)| (d as u64 + 1) * n)
            .sum();
        weighted as f64 / self.entries as f64
    }
}

/// Smallest per-segment array an explicit capacity hint can ask for.
const MIN_SEGMENT_CAP: usize = 1 << 2;
/// Per-segment start size when the capacity hint is `0` (auto).
const AUTO_SEGMENT_CAP: usize = 1 << 12;
/// Largest per-segment array a grow will produce.
const MAX_SEGMENT_CAP: usize = 1 << 24;
/// Chunk-directory length: chunk 0 plus one chunk per possible doubling.
const CHUNKS: usize = (MAX_SEGMENT_CAP / MIN_SEGMENT_CAP).trailing_zeros() as usize + 1;
/// Without an [`AdaptConfig`], a thread sums the `used` stripes against
/// the occupancy threshold on every this-many-th slot it claims (every
/// `capacity / 16`-th in smaller arrays), not on every publish: the sum
/// reads every other thread's stripe line. A grow is then late by at most
/// this many claims per thread — a fraction of a percent of a 4 096-slot
/// array, with probe exhaustion as the backstop.
const GROW_CHECK_EVERY: usize = 64;
/// Live entries (present slots, not tombstones) under this many eighths
/// of the array when the occupancy trip-wire fires: compact in place
/// instead of doubling. Three eighths, so a compacted array has room for
/// as many claims again before it trips.
const COMPACT_BELOW_EIGHTHS: usize = 3;

/// Deterministic key hasher (`SipHash-1-3` with the zero key): stress
/// replays and the deterministic scheduler need the same keys to land in
/// the same slots on every run, so no per-process `RandomState`.
fn hash_key<K: Hash>(key: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    // One avalanche round on top: DefaultHasher's low bits are already
    // good, but the segment selector uses the *top* bits.
    let x = h.finish();
    let x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^ (x >> 33)
}

#[inline]
fn sig_of(hash: u64) -> usize {
    ((hash >> 33) as usize) & 0x7FFF_FFFF
}

#[inline]
fn tag_of(hash: u64, gen: u32) -> usize {
    TAG_PRESENT | (sig_of(hash) << 32) | gen as usize
}

#[inline]
fn tag_gen(tag: usize) -> u32 {
    tag as u32
}

#[inline]
fn tag_is_present(tag: usize) -> bool {
    tag & TAG_PRESENT != 0
}

#[inline]
fn tag_sig(tag: usize) -> usize {
    (tag >> 32) & 0x7FFF_FFFF
}

/// One bucket. See the module docs for the seqlock protocol tying the
/// two words together.
#[repr(C, align(16))]
struct Slot {
    tag: FacadeAtomicUsize,
    ptr: FacadeAtomicUsize,
}

// A quarter line: four slots to a 64-byte line, none across two.
const _: () = assert!(std::mem::size_of::<Slot>() == 16 && 64 % std::mem::size_of::<Slot>() == 0);

impl Slot {
    const fn empty() -> Self {
        Self {
            tag: FacadeAtomicUsize::new(TAG_EMPTY),
            ptr: FacadeAtomicUsize::new(0),
        }
    }

    /// The rest of the seqlock pair-read whose first tag load saw `tag`:
    /// the pointer, if the tag still reads the same around it.
    fn pair(&self, tag: usize) -> Option<usize> {
        let ptr = self.ptr.load();
        (self.tag.load() == tag && ptr != 0).then_some(ptr)
    }
}

fn empty_slots(n: usize) -> Box<[Slot]> {
    (0..n).map(|_| Slot::empty()).collect()
}

/// One thread's share of a segment's counts.
struct Counts {
    /// Slots this thread's publishes claimed from `EMPTY`. A grow or
    /// compaction books its own net change on stripe 0, so only the
    /// (wrapping) sum over the stripes means anything: the slots not
    /// empty, which the occupancy trip-wire compares against capacity.
    used: AtomicUsize,
    /// Entries published (`published - retired` over-approximates the
    /// live entry count by lost/overwritten slots).
    published: AtomicUsize,
    /// Entries tombstoned by invalidation (hygiene metric).
    retired: AtomicUsize,
}

/// What a grow or the adaptive sensor writes.
struct GrowState {
    /// Single-grower lease; losers skip the grow entirely.
    lock: AtomicUsize,
    /// Windowed mean probe displacement of publishes (adaptive early
    /// growth sensor; only fed when an [`AdaptConfig`] is attached).
    probe_window: MeanWindow,
    /// Consecutive closed windows whose mean probe met the growth
    /// threshold — the dwell guard for probe-signal growth. Growth is a
    /// one-way ratchet, so the degenerate one-sided form of the
    /// [`crate::Hysteresis`] streak suffices.
    probe_streak: AtomicU32,
    /// Segment grows triggered by the probe signal alone (telemetry).
    probe_grows: AtomicUsize,
}

/// One NUMA segment: a power-of-two slot array that grows in place (see
/// the module docs). Aligned to a line pair, so segments stand apart, and
/// laid out so that the lines up to the `counts` pointer hold only what
/// probes read.
#[repr(C, align(128))]
struct Segment {
    /// Slots minus one. Written only by a grow, after the chunk it newly
    /// covers is installed and filled.
    mask: AtomicUsize,
    /// log2 of chunk 0's length (immutable).
    base_bits: u32,
    /// The slot array: chunk 0 holds slots `[0, 2^base_bits)` and chunk
    /// `j ≥ 1` slots `[2^(base_bits + j - 1), 2^(base_bits + j))`. Each is
    /// installed once, by the grow that first covers it, and freed only
    /// when the segment drops.
    chunks: [OnceLock<Box<[Slot]>>; CHUNKS],
    /// Per-thread stripes of the counts (the pointer is immutable).
    counts: Box<[Padded<Counts>]>,
    grow: Padded<GrowState>,
}

impl Segment {
    fn new(cap: usize, stripes: usize) -> Self {
        debug_assert!(cap.is_power_of_two() && stripes.is_power_of_two());
        let chunks: [OnceLock<Box<[Slot]>>; CHUNKS] = std::array::from_fn(|_| OnceLock::new());
        if chunks[0].set(empty_slots(cap)).is_err() {
            unreachable!("a fresh directory is empty");
        }
        Self {
            mask: AtomicUsize::new(cap - 1),
            base_bits: cap.trailing_zeros(),
            chunks,
            counts: (0..stripes)
                .map(|_| {
                    Padded(Counts {
                        used: AtomicUsize::new(0),
                        published: AtomicUsize::new(0),
                        retired: AtomicUsize::new(0),
                    })
                })
                .collect(),
            grow: Padded(GrowState {
                lock: AtomicUsize::new(0),
                probe_window: MeanWindow::new(),
                probe_streak: AtomicU32::new(0),
                probe_grows: AtomicUsize::new(0),
            }),
        }
    }

    /// Slots in the array.
    fn capacity(&self) -> usize {
        self.mask.load(Ordering::Acquire) + 1
    }

    /// The slots from `i` to the end of its chunk, which ends at a power
    /// of two: at the end of the array under any mask covering `i`.
    #[inline]
    fn run(&self, i: usize) -> &[Slot] {
        let (chunk, at) = if i >> self.base_bits == 0 {
            (0, i)
        } else {
            let top = usize::BITS - 1 - i.leading_zeros();
            ((top + 1 - self.base_bits) as usize, i ^ (1 << top))
        };
        &self.chunks[chunk]
            .get()
            .expect("a published mask covers installed chunks only")[at..]
    }

    /// Slot `i`, which a mask this segment published covers.
    fn slot(&self, i: usize) -> &Slot {
        &self.run(i)[0]
    }

    /// Offers `f` the probe window from `home` under `mask`, slot number
    /// and slot, until it breaks; `None` if it never does. The chunk is
    /// resolved once per run of slots, not once per slot.
    #[inline]
    fn probe<T>(
        &self,
        mask: usize,
        home: usize,
        mut f: impl FnMut(usize, &Slot) -> ControlFlow<T>,
    ) -> Option<T> {
        let (mut i, mut left) = (home, PROBE_LIMIT.min(mask + 1));
        while left > 0 {
            let run = self.run(i);
            let n = run.len().min(left);
            for (k, s) in run[..n].iter().enumerate() {
                if let Break(t) = f(i + k, s) {
                    return Some(t);
                }
            }
            left -= n;
            i = (i + n) & mask;
        }
        None
    }

    /// Calls `f(i, slot)` for the slots `i` of `[from, to)`, in order.
    fn walk<'s>(&'s self, from: usize, to: usize, mut f: impl FnMut(usize, &'s Slot)) {
        let mut i = from;
        while i < to {
            let run = self.run(i);
            for s in &run[..run.len().min(to - i)] {
                f(i, s);
                i += 1;
            }
        }
    }

    /// Thread `tid`'s stripe of the counts. Ids past the stripe count (a
    /// caller outside the registered set) fold onto one.
    fn counts(&self, tid: usize) -> &Counts {
        &self.counts[tid & (self.counts.len() - 1)].0
    }

    /// Slots not empty, tombstones included: the sum of the `used` stripes.
    fn used(&self) -> usize {
        let sum = self
            .counts
            .iter()
            .fold(0usize, |sum, c| sum.wrapping_add(c.0.used.load(Ordering::Relaxed)));
        (sum as isize).max(0) as usize
    }

    /// Slot storage plus the counter stripes.
    fn bytes(&self) -> usize {
        let slots: usize = self
            .chunks
            .iter()
            .filter_map(OnceLock::get)
            .map(|c| std::mem::size_of_val(&**c))
            .sum();
        slots + std::mem::size_of_val(&*self.counts)
    }

    /// Relieves the segment (single grower; losers no-op). Doubles the
    /// array — unless the occupancy trip-wire asked (`tripped`, rather than
    /// a full probe window or the probe signal) while live entries fill
    /// under [`COMPACT_BELOW_EIGHTHS`] of it, or it is as large as it gets:
    /// then it compacts in place. Entries a racing publish, invalidate or
    /// grow pass moves may be lost; the read that then misses republishes
    /// them ([`crate::SkipGraph`]'s `index_heal`).
    fn grow(&self, tripped: bool) {
        let lease = &self.grow.0.lock;
        if lease.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).is_err() {
            return;
        }
        // Only the lease holder stores the mask.
        let cap = self.mask.load(Ordering::Relaxed) + 1;
        let scan = Scan::of(self, cap);
        let delta = if cap < MAX_SEGMENT_CAP
            && (!tripped || scan.live * 8 >= cap * COMPACT_BELOW_EIGHTHS)
        {
            self.double(cap, scan)
        } else {
            // Start the walk where a probe chain starts, after an empty
            // slot (any slot if there is none).
            let start = (0..cap)
                .find(|&i| self.slot(i).tag.load() == TAG_EMPTY)
                .map_or(0, |i| (i + 1) % cap);
            let walk = Walk {
                holes: &scan.tomb,
                movers: &scan.shifted,
                rehome: &[],
            };
            self.repack(start, cap, &walk)
        };
        self.counts[0].0.used.fetch_add(delta as usize, Ordering::Relaxed);
        lease.store(0, Ordering::Release);
    }

    /// Doubles a `cap`-slot array in place and returns the net change in
    /// slots not empty. Every entry the doubled mask homes in the new
    /// upper half is copied into it first, with plain stores (the chunk is
    /// still private); then the chunk is installed, the mask published, and
    /// the old half repacked.
    fn double(&self, cap: usize, scan: Scan) -> isize {
        let upper = empty_slots(cap);
        // An old wrap-around's entries, and (below) those with no copy.
        let mut rehome = vec![0; scan.upper.len()];
        rehome[0] = scan.wrapped & !scan.upper[0];
        let mut delta = 0;
        for (w, word) in scan.upper.iter().enumerate() {
            let mut m = *word;
            let run = if m == 0 { &[][..] } else { self.run(w * 64) };
            while m != 0 {
                let i = w * 64 + m.trailing_zeros() as usize;
                m &= m - 1;
                let s = run.get(i % 64).unwrap_or_else(|| self.slot(i));
                let t = s.tag.load();
                let free = upper[tag_sig(t) & (cap - 1)..]
                    .iter()
                    .take(PROBE_LIMIT)
                    .find(|u| u.tag.load() == TAG_EMPTY);
                // A racing writer's entry, or one whose window runs off the
                // end, gets no copy: the repack publishes it again.
                match (s.pair(t), free) {
                    (Some(ptr), Some(u)) if tag_is_present(t) && tag_sig(t) & cap != 0 => {
                        u.ptr.store(ptr);
                        u.tag.store(t);
                        delta += 1;
                    }
                    _ => rehome[w] |= 1 << (i % 64),
                }
            }
        }
        let chunk = (cap.trailing_zeros() + 1 - self.base_bits) as usize;
        if self.chunks[chunk].set(upper).is_err() {
            unreachable!("only a doubling to {} slots installs chunk {chunk}", 2 * cap);
        }
        self.mask.store(2 * cap - 1, Ordering::Release);
        // Stranded entries are holes: those with a copy, those without
        // (published again), and an old wrap-around's; only entries homed
        // where they sit in the old half stay to be shifted.
        let mut holes: Vec<u64> = (0..scan.tomb.len())
            .map(|w| scan.tomb[w] | scan.upper[w])
            .collect();
        let mut movers: Vec<u64> = (0..scan.shifted.len())
            .map(|w| scan.shifted[w] & !scan.upper[w])
            .collect();
        holes[0] |= scan.wrapped;
        movers[0] &= !scan.wrapped;
        let walk = Walk {
            holes: &holes,
            movers: &movers,
            rehome: &rehome,
        };
        delta + self.repack(0, cap, &walk)
    }

    /// The fused pass over `span` slots from `start` (wrapping under the
    /// published mask; `start` begins a probe chain), a window of
    /// [`PROBE_LIMIT`] steps at a time, acting on what a [`Scan`] found
    /// (see [`Walk`]). Each mover shifts into the oldest hole between its
    /// home and itself, the slot it leaves becoming a hole. A hole a full
    /// window behind the walk lies on no chain any more (the entries that
    /// could reach it have moved into it or an older hole) and is emptied,
    /// a window's worth at a time. Stranded entries are published again
    /// once the walk is done: one published into a hole ahead of it would
    /// be freed with the hole. Moves and frees are plain stores of what the
    /// slot holds now, so a publish racing one may be lost. Returns the net
    /// change in slots not empty.
    fn repack<'s>(&'s self, start: usize, span: usize, scan: &Walk<'_>) -> isize {
        // Two windows of steps, one bit each.
        const RING: usize = 2 * PROBE_LIMIT;
        const _: () = assert!(RING == u128::BITS as usize);
        let mask = self.mask.load(Ordering::Relaxed);
        let slot_at = |step: usize| (start + step) & mask;
        // The holes of the last two windows, by step modulo `RING`, and each
        // window's first step with the chunk run it starts in.
        let mut ring: u128 = 0;
        let mut runs: [(usize, &'s [Slot]); 2] = [(0, &[]); 2];
        let slot = |runs: &[(usize, &'s [Slot]); 2], step: usize| -> &'s Slot {
            let (base, run) = runs[step % RING / PROBE_LIMIT];
            run.get(step - base).unwrap_or_else(|| self.slot(slot_at(step)))
        };
        let mut delta = 0;
        let mut stranded = Vec::new();
        for base in (0..span).step_by(PROBE_LIMIT) {
            let n = PROBE_LIMIT.min(span - base);
            let half = base % RING;
            if base >= RING {
                // This window's half of the ring holds the window before
                // last: a full window behind every step from here on.
                let mut m = (ring >> half) as u64;
                ring &= !((u64::MAX as u128) << half);
                while m != 0 {
                    let step = base - RING + m.trailing_zeros() as usize;
                    m &= m - 1;
                    slot(&runs, step).tag.store(TAG_EMPTY);
                    delta -= 1;
                }
            }
            let at = slot_at(base);
            runs[half / PROBE_LIMIT] = (base, self.run(at));
            let bits = |set: &[u64]| window_bits(set, span, at, n);
            ring |= (bits(scan.holes) as u128) << half;
            let mut m = bits(scan.rehome);
            while m != 0 {
                let step = base + m.trailing_zeros() as usize;
                m &= m - 1;
                let (p, s) = (slot_at(step), slot(&runs, step));
                let t = s.tag.load();
                if let Some(ptr) = s.pair(t).filter(|_| tag_is_present(t) && tag_sig(t) & mask > p) {
                    stranded.push((t, ptr));
                }
            }
            let mut m = bits(scan.movers);
            while m != 0 {
                let step = base + m.trailing_zeros() as usize;
                m &= m - 1;
                let s = slot(&runs, step);
                let t = s.tag.load();
                let dist = slot_at(step).wrapping_sub(tag_sig(t) & mask) & mask;
                if !tag_is_present(t) || dist == 0 || dist >= PROBE_LIMIT || dist > step {
                    continue;
                }
                let from = step - dist;
                let ahead = ring.rotate_right((from % RING) as u32) & ((1 << dist) - 1);
                let Some(ptr) = s.pair(t).filter(|_| ahead != 0) else { continue };
                let q = from + ahead.trailing_zeros() as usize;
                ring &= !(1 << (q % RING));
                let dst = slot(&runs, q);
                dst.tag.store(TAG_BUSY);
                dst.ptr.store(ptr);
                dst.tag.store(t);
                ring |= 1 << (step % RING);
            }
        }
        // What the walk left: a hole behind its last empty slot lies on no
        // chain; one after it only if the chain ends with the walk.
        let end = if self.slot(slot_at(span)).tag.load() == TAG_EMPTY {
            TAG_EMPTY
        } else {
            TAG_TOMBSTONE
        };
        // The ring holds the last two windows' steps, from `first` on.
        let first = (span.div_ceil(PROBE_LIMIT) * PROBE_LIMIT).saturating_sub(RING);
        let last_empty = (first..span)
            .rev()
            .find(|&step| self.slot(slot_at(step)).tag.load() == TAG_EMPTY)
            .unwrap_or(0);
        while ring != 0 {
            let r = ring.trailing_zeros() as usize;
            ring &= ring - 1;
            let step = first + (r + RING - first % RING) % RING;
            let to = if step < last_empty { TAG_EMPTY } else { end };
            self.slot(slot_at(step)).tag.store(to);
            delta -= (to == TAG_EMPTY) as isize;
        }
        for (t, ptr) in stranded {
            delta += self.rehome(t, ptr);
        }
        delta
    }

    /// Publishes `(tag, ptr)` again from its home under the published mask,
    /// on the grower's behalf: claims the first free slot of its window,
    /// unless the window already holds its signature (its copy, or a
    /// fresher publish). `1` when the claimed slot was empty.
    fn rehome(&self, tag: usize, ptr: usize) -> isize {
        let mask = self.mask.load(Ordering::Relaxed);
        self.probe(mask, tag_sig(tag) & mask, |_, s| {
            let seen = s.tag.load();
            if tag_is_present(seen) && tag_sig(seen) == tag_sig(tag) {
                return Break(0);
            }
            if (seen == TAG_EMPTY || seen == TAG_TOMBSTONE)
                && s.tag.compare_exchange(seen, TAG_BUSY).is_ok()
            {
                s.ptr.store(ptr);
                s.tag.store(tag);
                return Break((seen == TAG_EMPTY) as isize);
            }
            Continue(())
        })
        .unwrap_or(0)
    }
}

/// One branch-free pass over a segment's first `cap` slots (which test
/// comes out which way is a coin toss a branch would mispredict), as
/// bitsets by slot number, 64 to a word.
struct Scan {
    /// Present entries.
    live: usize,
    tomb: Vec<u64>,
    /// Present entries a doubled mask homes in the new upper half.
    upper: Vec<u64>,
    /// Present entries 1 to `PROBE_LIMIT - 1` slots past their home.
    shifted: Vec<u64>,
    /// Present entries homed past their slot, left at the start by a
    /// window that wrapped around the end: only the first word has any.
    wrapped: u64,
}

impl Scan {
    fn of(seg: &Segment, cap: usize) -> Self {
        let words = vec![0; cap.div_ceil(64)];
        let mut scan = Scan {
            live: 0,
            tomb: words.clone(),
            upper: words.clone(),
            shifted: words,
            wrapped: 0,
        };
        // A word's bits gather in registers and are stored once it is full.
        let mut word = [0u64; 3];
        seg.walk(0, cap, |i, s| {
            let t = s.tag.load();
            let b = i % 64;
            let present = tag_is_present(t);
            let dist = i.wrapping_sub(tag_sig(t)) & (cap - 1);
            scan.live += present as usize;
            word[0] |= ((t == TAG_TOMBSTONE) as u64) << b;
            word[1] |= ((present & (tag_sig(t) & cap != 0)) as u64) << b;
            word[2] |= ((present & (dist.wrapping_sub(1) < PROBE_LIMIT - 1)) as u64) << b;
            if b == 63 || i == cap - 1 {
                let w = i / 64;
                [scan.tomb[w], scan.upper[w], scan.shifted[w]] = std::mem::take(&mut word);
            }
        });
        // A window that wraps around the end reaches at most PROBE_LIMIT - 1
        // slots into the array.
        seg.walk(0, cap.min(PROBE_LIMIT), |i, s| {
            let t = s.tag.load();
            let wrapped = tag_is_present(t) & (tag_sig(t) & (cap - 1) > i);
            scan.wrapped |= (wrapped as u64) << i;
        });
        scan
    }
}

/// What a repack acts on, as bitsets by slot of the walked span: the holes
/// (tombstones, and after a doubling the stranded entries), the entries
/// that may shift toward home, and the stranded entries to publish again.
struct Walk<'a> {
    holes: &'a [u64],
    movers: &'a [u64],
    rehome: &'a [u64],
}

/// `n <= 64` bits of the slot bitset `set` (over `len` slots, or empty: no
/// slot) from slot `at` on, wrapping at `len`.
fn window_bits(set: &[u64], len: usize, at: usize, n: usize) -> u64 {
    if set.is_empty() {
        return 0;
    }
    let (mut bits, mut got, mut i) = (0, 0, at);
    while got < n {
        let (w, b) = (i / 64, i % 64);
        let take = (64 - b).min(n - got).min(len - i);
        bits |= ((set[w] >> b) & (u64::MAX >> (64 - take))) << got;
        got += take;
        i = (i + take) % len;
    }
    bits
}

/// A raw, seqlock-consistent index entry: the tag read the same around
/// the pointer load, but nothing about the node has been validated yet
/// (a grow's plain stores racing a publish can even leave one write's tag
/// beside another's pointer); [`HashIndex::read_node`] applies the
/// validation ladder.
#[derive(Debug, Clone, Copy)]
struct RawEntry<K, V> {
    ptr: NonNull<Node<K, V>>,
    gen: u32,
}

/// Outcome of a fully validated plain-node index read. `Absent` is
/// authoritative only under the lazy protocol, where an unmarked invalid
/// node is the unique holder of its key.
#[derive(Debug)]
pub(crate) enum IndexRead<'g, K, V> {
    /// No entry (or an unusable one): descend.
    Miss,
    /// An entry failed generation / key / liveness validation: descend.
    /// (The reader tombstoned it when it was provably dead.)
    Stale,
    /// The validated live holder of the key, unmarked and valid.
    Hit(&'g Node<K, V>),
    /// Authoritative absence: the unique (lazy) holder is logically
    /// deleted. Carries that holder so an insert can resurrect it in
    /// place — the entry doubles as a tombstone and as the re-insertion
    /// fast path. (Never produced with the injected coherence bug
    /// compiled in — that build answers Hit before the liveness ladder.)
    #[cfg_attr(feature = "bug-injection", allow(dead_code))]
    Absent(&'g Node<K, V>),
}

/// The shared, lock-free, resizable hash index. One per indexed
/// structure, owned by its [`crate::SkipGraph`]; see the module docs.
pub struct HashIndex<K, V> {
    segments: Box<[Segment]>,
    /// Shift applied to a key hash to select a segment.
    seg_shift: u32,
    /// Adaptive growth thresholds; `None` keeps the static 75% trip-wire
    /// and no probe sensing.
    adapt: Option<AdaptConfig>,
    /// Type-erased deterministic hasher, captured where `K: Hash` was in
    /// scope so the graph core can publish and invalidate from `K: Ord`
    /// contexts (hooks in `ops.rs` / `graph/mod.rs`).
    hash_of: fn(&K) -> u64,
    _marker: std::marker::PhantomData<fn() -> (K, V)>,
}

// The index stores raw node pointers but never owns nodes; sharing it
// follows the graph's own bounds.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for HashIndex<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for HashIndex<K, V> {}

impl<K, V> HashIndex<K, V> {
    /// Builds an index with one segment per NUMA node of the detected
    /// topology (paper machine fallback), sized for `capacity_hint` total
    /// entries (`0` = auto). Requires `K: Hash` only here — every other
    /// method runs through the captured hasher. `adapt` configures the
    /// growth policy; `None` keeps the static threshold.
    pub(crate) fn new(threads: usize, capacity_hint: usize, adapt: Option<AdaptConfig>) -> Self
    where
        K: Hash,
    {
        let nodes = Placement::new(&Topology::detect_or_paper(), threads.max(1)).num_nodes();
        let segments = nodes.max(1).next_power_of_two();
        let per_seg = if capacity_hint == 0 {
            AUTO_SEGMENT_CAP
        } else {
            (capacity_hint / segments).next_power_of_two()
        }
        .clamp(MIN_SEGMENT_CAP, MAX_SEGMENT_CAP);
        let stripes = threads.max(1).next_power_of_two();
        Self {
            segments: (0..segments).map(|_| Segment::new(per_seg, stripes)).collect(),
            seg_shift: 64 - segments.trailing_zeros(),
            adapt,
            hash_of: hash_key::<K>,
            _marker: std::marker::PhantomData,
        }
    }

    /// Segment grows triggered by the windowed probe signal alone, i.e.
    /// below the occupancy threshold (telemetry; always `0` without an
    /// [`AdaptConfig`]).
    pub(crate) fn probe_grows(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.grow.0.probe_grows.load(Ordering::Relaxed))
            .sum()
    }

    /// The index's hash of `key`: what the `_hashed` methods take, so an
    /// operation that probes and then publishes hashes its key once.
    #[inline]
    pub(crate) fn hash(&self, key: &K) -> u64 {
        (self.hash_of)(key)
    }

    #[inline]
    fn segment(&self, hash: u64) -> &Segment {
        let i = if self.segments.len() == 1 {
            0
        } else {
            (hash >> self.seg_shift) as usize & (self.segments.len() - 1)
        };
        &self.segments[i]
    }

    /// Total bytes of segment storage (slot arrays plus counter stripes)
    /// — the `memory_stats` contribution.
    pub(crate) fn bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes()).sum()
    }

    /// Entries tombstoned by invalidation since construction.
    pub(crate) fn retired_entries(&self) -> usize {
        self.segments
            .iter()
            .flat_map(|s| s.counts.iter())
            .map(|c| c.0.retired.load(Ordering::Relaxed))
            .sum()
    }

    /// Entries ever published (monotonic).
    pub(crate) fn published_entries(&self) -> usize {
        self.segments
            .iter()
            .flat_map(|s| s.counts.iter())
            .map(|c| c.0.published.load(Ordering::Relaxed))
            .sum()
    }

    /// Total slots across every segment: the denominator of the index's
    /// global load factor.
    pub(crate) fn capacity(&self) -> usize {
        self.segments.iter().map(Segment::capacity).sum()
    }

    /// Installed NUMA segments (fixed at construction).
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Weak per-segment occupancy snapshot (see [`SegmentOccupancy`]):
    /// walks each segment's slot array once, classifying slots and
    /// binning present entries by probe displacement from their home
    /// position. Concurrent publishes/invalidations may be half-observed —
    /// the numbers are telemetry for sizing `index_capacity`, not an
    /// invariant source.
    pub(crate) fn occupancy(&self) -> Vec<SegmentOccupancy> {
        self.segments
            .iter()
            .map(|seg| {
                let mask = seg.capacity() - 1;
                let mut occ = SegmentOccupancy {
                    capacity: mask + 1,
                    used: seg.used().min(mask + 1),
                    ..SegmentOccupancy::default()
                };
                seg.walk(0, mask + 1, |i, slot| {
                    let tag = slot.tag.load();
                    if tag == TAG_TOMBSTONE {
                        occ.tombstones += 1;
                    } else if tag_is_present(tag) {
                        occ.entries += 1;
                        // The probe walks forward from `sig & mask`, so the
                        // wrapped distance from home is the entry's cost.
                        let dist = i.wrapping_sub(tag_sig(tag) & mask) & mask;
                        occ.probe_histogram[dist.min(HISTOGRAM_BUCKETS - 1)] += 1;
                    }
                });
                occ
            })
            .collect()
    }

    /// Publishes `(ptr, gen)` under `hash`, the [`Self::hash`] of the
    /// node's key, on behalf of thread `tid`. Best effort: busy slots are
    /// skipped, and a full probe window grows the segment and retries once.
    /// Callers pass a generation captured from the incarnation they just
    /// linked/observed live — publish-after-link.
    pub(crate) fn publish_hashed(&self, hash: u64, ptr: NonNull<Node<K, V>>, gen: u32, tid: usize) {
        let seg = self.segment(hash);
        if !self.try_publish(seg, hash, ptr, gen, tid) {
            seg.grow(false);
            self.try_publish(seg, hash, ptr, gen, tid);
        }
    }

    /// One pass over `hash`'s probe window; `false` when it held no slot
    /// to take.
    fn try_publish(
        &self,
        seg: &Segment,
        hash: u64,
        ptr: NonNull<Node<K, V>>,
        gen: u32,
        tid: usize,
    ) -> bool {
        let mask = seg.mask.load(Ordering::Acquire);
        let sig = sig_of(hash);
        let tag = tag_of(hash, gen);
        // Probe from the signature (not the raw hash): the position is
        // then recoverable from the tag alone, which is what lets a grow
        // move entries it can only see through their tags.
        seg.probe(mask, sig & mask, |i, s| {
            let seen = s.tag.load();
            let takeable = seen == TAG_EMPTY
                || seen == TAG_TOMBSTONE
                || (tag_is_present(seen) && tag_sig(seen) == sig);
            if takeable && s.tag.compare_exchange(seen, TAG_BUSY).is_ok() {
                let counts = seg.counts(tid);
                // This thread's stripe of the slots claimed from empty,
                // when this one was.
                let claims = if seen == TAG_EMPTY {
                    counts.used.fetch_add(1, Ordering::Relaxed).wrapping_add(1)
                } else {
                    0
                };
                s.ptr.store(ptr.as_ptr() as usize);
                s.tag.store(tag);
                counts.published.fetch_add(1, Ordering::Relaxed);
                // The probe window needs every sample; the occupancy
                // trip-wire alone is sampled (both powers of two).
                let every = ((mask + 1) >> 4).clamp(1, GROW_CHECK_EVERY);
                if self.adapt.is_some() || (claims != 0 && claims & (every - 1) == 0) {
                    self.after_publish(seg, i.wrapping_sub(sig) & mask);
                }
                return Break(());
            }
            Continue(())
        })
        .is_some()
    }

    /// Post-publish growth policy, run on every publish with an
    /// [`AdaptConfig`] and on every [`GROW_CHECK_EVERY`]th claim of a
    /// thread (more often in small arrays) without. Two triggers:
    ///
    /// * **occupancy** — the share of slots not empty (tombstones
    ///   included: they occupy probe-chain positions until a grow or
    ///   compaction clears them) crosses [`OCC_GROW_PCT`]; the segment
    ///   doubles, or compacts when few of those slots are live;
    /// * **probe signal** (adaptive only) — the windowed mean probe
    ///   displacement of publishes meets [`PROBE_GROW`] for
    ///   `dwell_windows + 1` consecutive windows, growing early when an
    ///   adversarial key mix clusters collisions below the occupancy
    ///   threshold.
    ///
    /// The grow a full probe window triggers in [`Self::publish_hashed`]
    /// remains the backstop either way.
    fn after_publish(&self, seg: &Segment, displacement: usize) {
        if seg.used() * 100 > seg.capacity() * OCC_GROW_PCT {
            seg.grow(true);
            return;
        }
        let Some(a) = self.adapt else { return };
        let sensor = &seg.grow.0;
        let Some(mean) = sensor.probe_window.record(displacement as u32, a.window_ops) else {
            return;
        };
        if mean < PROBE_GROW {
            sensor.probe_streak.store(0, Ordering::Relaxed);
            return;
        }
        let streak = sensor.probe_streak.load(Ordering::Relaxed) + 1;
        if streak <= a.dwell_windows {
            sensor.probe_streak.store(streak, Ordering::Relaxed);
            return;
        }
        sensor.probe_streak.store(0, Ordering::Relaxed);
        sensor.probe_grows.fetch_add(1, Ordering::Relaxed);
        seg.grow(false);
    }

    /// Tombstones the entry for `key` if it still names `ptr`, on behalf
    /// of thread `tid`. Best effort (see the module docs: the retire-side
    /// generation bump is the backstop). `ptr == None` tombstones whatever
    /// entry the key currently has.
    pub(crate) fn invalidate(&self, key: &K, ptr: Option<NonNull<Node<K, V>>>, tid: usize) {
        self.invalidate_hashed(self.hash(key), ptr, tid);
    }

    fn invalidate_hashed(&self, hash: u64, ptr: Option<NonNull<Node<K, V>>>, tid: usize) {
        let seg = self.segment(hash);
        let mask = seg.mask.load(Ordering::Acquire);
        let sig = sig_of(hash);
        seg.probe(mask, sig & mask, |_, s| {
            let seen = s.tag.load();
            if seen == TAG_EMPTY {
                return Break(());
            }
            if tag_is_present(seen) && tag_sig(seen) == sig {
                let cur = s.ptr.load();
                let matches = match ptr {
                    Some(p) => cur == p.as_ptr() as usize,
                    None => true,
                };
                // Re-read the tag so a pointer observed mid-republish
                // (tag flipped to BUSY and back) cannot kill the fresh
                // entry of a different incarnation.
                if matches && s.tag.load() == seen {
                    if s.tag.compare_exchange(seen, TAG_TOMBSTONE).is_ok() {
                        seg.counts(tid).retired.fetch_add(1, Ordering::Relaxed);
                    }
                    return Break(());
                }
            }
            Continue(())
        });
    }

    /// Seqlock-consistent raw lookup: the first present entry whose
    /// signature matches. No validation beyond pair consistency — see
    /// [`RawEntry`].
    fn lookup_raw_hashed(&self, hash: u64) -> Option<RawEntry<K, V>> {
        let seg = self.segment(hash);
        let mask = seg.mask.load(Ordering::Acquire);
        let sig = sig_of(hash);
        seg.probe(mask, sig & mask, |_, s| {
            let t1 = s.tag.load();
            if t1 == TAG_EMPTY {
                return Break(None);
            }
            if tag_is_present(t1) && tag_sig(t1) == sig {
                let ptr = s.ptr.load();
                if s.tag.load() == t1 {
                    if let Some(nn) = NonNull::new(ptr as *mut Node<K, V>) {
                        return Break(Some(RawEntry {
                            ptr: nn,
                            gen: tag_gen(t1),
                        }));
                    }
                }
                // Torn or republishing: fall through and keep probing —
                // a grow's moves leave duplicate signatures for a moment.
            }
            Continue(())
        })
        .flatten()
    }
}

impl<K: Ord, V> HashIndex<K, V> {
    /// The full validation ladder for a *plain* (one key per node) entry
    /// of `key`, whose [`Self::hash`] is `hash`. Caller must hold a reclamation pin on the owning graph: the
    /// generation check proves the incarnation is not retired, and the
    /// pin then blocks its recycling while the returned reference is
    /// used.
    ///
    /// `lazy` selects the protocol: under it, an unmarked *invalid* node
    /// is the unique holder of its key, so the read is authoritative
    /// absence; eagerly-deleted nodes are marked and fall back instead.
    pub(crate) fn read_node(
        &self,
        key: &K,
        hash: u64,
        lazy: bool,
        ctx: &ThreadCtx,
    ) -> IndexRead<'_, K, V> {
        let Some(entry) = self.lookup_raw_hashed(hash) else {
            return IndexRead::Miss;
        };
        // Generation re-check ordering: gen before any &Node deref.
        if unsafe { Node::generation_of(entry.ptr) } != entry.gen {
            self.invalidate_hashed(hash, Some(entry.ptr), ctx.id() as usize);
            return IndexRead::Stale;
        }
        let node = unsafe { entry.ptr.as_ref() };
        if !node.is_data() || unsafe { node.key() } != key {
            // A signature collision (someone else's live entry): miss,
            // and leave the entry alone.
            return IndexRead::Miss;
        }
        // Injected coherence bug (harness validation only): trust the
        // published entry as if invalidate-before-retire had swept every
        // dead node out of the index, skipping the authoritative level-0
        // state re-check. A removal whose invalidation hook is elided
        // (see `logical_delete_eager`) then leaves a hit that contradicts
        // the linearized removal — the stale read the stress wall must
        // catch. See the `bug-injection` feature docs.
        #[cfg(feature = "bug-injection")]
        {
            let _ = (lazy, ctx);
            return IndexRead::Hit(node);
        }
        #[cfg(not(feature = "bug-injection"))]
        {
            // A recorded load: the hit node's level-0 word is a real
            // cache-line touch (the one line an index-served read costs),
            // so it must show up in the access matrices like any other.
            let w0 = node.load_next(0, ctx);
            if w0.marked() {
                // Dead incarnation awaiting retire: tombstone and descend
                // (a fresh insert of the key may own a new node).
                self.invalidate_hashed(hash, Some(entry.ptr), ctx.id() as usize);
                return IndexRead::Stale;
            }
            if w0.valid() {
                IndexRead::Hit(node)
            } else if lazy {
                IndexRead::Absent(node)
            } else {
                IndexRead::Stale
            }
        }
    }
}

impl<K, V> std::fmt::Debug for HashIndex<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashIndex")
            .field("segments", &self.segments.len())
            .field("published", &self.published_entries())
            .field("retired_entries", &self.retired_entries())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dangling(align_off: usize) -> NonNull<Node<u64, u64>> {
        // Unit tests of the table machinery never dereference entries,
        // so any aligned non-null address works as an opaque pointer.
        NonNull::new((64 + 64 * align_off) as *mut Node<u64, u64>).unwrap()
    }

    type Idx = HashIndex<u64, u64>;

    fn publish(idx: &Idx, key: u64, ptr: NonNull<Node<u64, u64>>, gen: u32, tid: usize) {
        idx.publish_hashed(idx.hash(&key), ptr, gen, tid);
    }

    fn lookup(idx: &Idx, key: u64) -> Option<RawEntry<u64, u64>> {
        idx.lookup_raw_hashed(idx.hash(&key))
    }

    #[test]
    fn publish_lookup_invalidate_roundtrip() {
        let idx: HashIndex<u64, u64> = HashIndex::new(2, 1 << 12, None);
        let p = dangling(1);
        publish(&idx, 7, p, 42, 0);
        let e = lookup(&idx, 7).expect("published entry");
        assert_eq!(e.ptr, p);
        assert_eq!(e.gen, 42);
        assert!(lookup(&idx, 8).is_none());
        assert_eq!(idx.published_entries(), 1);

        // Wrong-pointer invalidation leaves the entry standing.
        idx.invalidate(&7, Some(dangling(2)), 0);
        assert!(lookup(&idx, 7).is_some());
        assert_eq!(idx.retired_entries(), 0);

        idx.invalidate(&7, Some(p), 0);
        assert!(lookup(&idx, 7).is_none());
        assert_eq!(idx.retired_entries(), 1);

        // Tombstoned slots are reusable.
        publish(&idx, 7, p, 43, 0);
        assert_eq!(lookup(&idx, 7).unwrap().gen, 43);
    }

    #[test]
    fn republish_overwrites_generation() {
        let idx: HashIndex<u64, u64> = HashIndex::new(1, 1 << 10, None);
        let p = dangling(1);
        publish(&idx, 5, p, 1, 0);
        publish(&idx, 5, dangling(2), 9, 0);
        let e = lookup(&idx, 5).unwrap();
        assert_eq!(e.gen, 9);
        assert_eq!(e.ptr, dangling(2));
    }

    #[test]
    fn untargeted_invalidate_clears_any_holder() {
        let idx: HashIndex<u64, u64> = HashIndex::new(1, 1 << 10, None);
        publish(&idx, 11, dangling(4), 5, 0);
        idx.invalidate(&11, None, 0);
        assert!(lookup(&idx, 11).is_none());
    }

    /// Keys `keys` whose entries `idx` has lost or mixed up.
    fn missing(idx: &Idx, keys: std::ops::Range<u64>) -> Vec<u64> {
        keys.filter(|&k| match lookup(idx, k) {
            Some(e) => {
                assert_eq!(e.gen, k as u32, "entry for {k} mixed up");
                false
            }
            None => true,
        })
        .collect()
    }

    #[test]
    fn grows_past_the_initial_capacity() {
        // From the auto size and from the smallest array a hint can ask
        // for: the smaller one crosses every window overflow there is, and
        // each overflowing publish must survive its retry.
        let hints: &[usize] = if cfg!(miri) { &[1] } else { &[0, 1] };
        for &hint in hints {
            let idx: HashIndex<u64, u64> = HashIndex::new(1, hint, None);
            let start = idx.capacity();
            let keys = start.max(if cfg!(miri) { 300 } else { 4_000 }) as u64;
            for k in 0..keys {
                publish(&idx, k, dangling(1 + k as usize), k as u32, 0);
            }
            assert!(idx.capacity() > start, "hint {hint}: no grow happened");
            assert_eq!(missing(&idx, 0..keys), Vec::<u64>::new(), "hint {hint}");
        }
    }

    #[test]
    fn grows_keep_every_entry_among_tombstones() {
        // Invalidations leave tombstones on the chains the grows repack:
        // every live key must stay findable, every dead one absent.
        let idx: HashIndex<u64, u64> = HashIndex::new(1, 1, None);
        let keys = if cfg!(miri) { 200u64 } else { 3_000 };
        let mut dead = Vec::new();
        for k in 0..keys {
            publish(&idx, k, dangling(1 + k as usize), k as u32, 0);
            if k % 3 == 0 {
                idx.invalidate(&(k / 2), None, 0);
                dead.push(k / 2);
            }
        }
        let lost: Vec<u64> = missing(&idx, 0..keys)
            .into_iter()
            .filter(|k| !dead.contains(k))
            .collect();
        assert_eq!(lost, Vec::<u64>::new());
        assert!(dead.iter().all(|&k| lookup(&idx, k).is_none()));
    }

    #[test]
    fn turnover_at_a_constant_live_size_compacts() {
        // Each round replaces every live key by a fresh one: tombstones
        // trip the wire again and again with few live entries, and each
        // trip must purge them in place instead of doubling.
        let idx: HashIndex<u64, u64> = HashIndex::new(1, 1 << 12, None);
        let (live, rounds) = if cfg!(miri) { (40u64, 2) } else { (1_000, 4) };
        let start = idx.capacity();
        for k in 0..live {
            publish(&idx, k, dangling(1 + k as usize), k as u32, 0);
        }
        for k in 0..rounds * live {
            idx.invalidate(&k, None, 0);
            publish(&idx, k + live, dangling(1 + k as usize), (k + live) as u32, 0);
        }
        assert_eq!(idx.capacity(), start, "turnover doubled the index");
        let end = rounds * live;
        assert_eq!(missing(&idx, end..end + live), Vec::<u64>::new());
        assert!((0..end).all(|k| lookup(&idx, k).is_none()));
        let occ = idx.occupancy();
        let used: usize = occ.iter().map(|s| s.used).sum();
        let tombstones: usize = occ.iter().map(|s| s.tombstones).sum();
        let entries: usize = occ.iter().map(|s| s.entries).sum();
        assert_eq!(used, entries + tombstones, "used stripes drifted from the slots");
    }

    #[test]
    fn probe_signal_grows_below_the_occupancy_threshold() {
        // Drive the sensor directly with long displacements: the array
        // stays empty (occupancy can never trigger), so the windowed
        // mean-probe signal alone must grow the segment — and only after
        // the dwell guard's `dwell + 1` consecutive qualifying windows.
        let cfg = AdaptConfig::new().window_ops(16).dwell_windows(1);
        let idx: HashIndex<u64, u64> = HashIndex::new(1, 0, Some(cfg));
        let seg = &idx.segments[0];
        let before = seg.capacity();
        for _ in 0..16 {
            idx.after_publish(seg, 5);
        }
        assert_eq!(seg.capacity(), before, "dwell guard must hold the first window");
        for _ in 0..16 {
            idx.after_publish(seg, 5);
        }
        assert_eq!(seg.capacity(), before * 2, "second qualifying window grows");
        assert_eq!(idx.probe_grows(), 1, "growth must be attributed to the probe signal");
        // A short-probe window resets the streak: one more qualifying
        // window alone must not grow again.
        for _ in 0..16 {
            idx.after_publish(seg, 0);
        }
        for _ in 0..16 {
            idx.after_publish(seg, 5);
        }
        assert_eq!(seg.capacity(), before * 2, "a reset streak must re-dwell");
    }

    /// The 128-byte line (pair) an object starts on.
    fn line_of<T>(x: &T) -> usize {
        x as *const T as usize / 128
    }

    /// The lines an object covers.
    fn lines_of<T>(x: &T) -> std::ops::RangeInclusive<usize> {
        line_of(x)..=(x as *const T as usize + std::mem::size_of::<T>().max(1) - 1) / 128
    }

    #[test]
    fn probe_read_words_share_no_line_with_a_counter() {
        // A live index, grown so that chunks installed mid-run are part of
        // the picture.
        let idx: HashIndex<u64, u64> = HashIndex::new(4, 0, None);
        for k in 0..6_000u64 {
            publish(&idx, k, dangling(1 + k as usize), 0, (k % 4) as usize);
        }
        for k in 0..1_000u64 {
            idx.invalidate(&k, None, (k % 4) as usize);
        }
        assert!(idx.capacity() > idx.segments.len() * AUTO_SEGMENT_CAP, "no grow happened");
        for seg in idx.segments.iter() {
            assert_eq!(seg as *const Segment as usize % 128, 0);
            // What every lookup, publish and invalidate loads on its way
            // to a slot: the mask and the chunk directory (written only by
            // a grow) and the stripe array's pointer.
            let mut read: Vec<usize> = Vec::new();
            read.extend(lines_of(&seg.mask));
            read.extend(lines_of(&seg.base_bits));
            read.extend(lines_of(&seg.chunks));
            read.extend(lines_of(&seg.counts));
            // What a publish, an invalidate, the sensor or a grow's lease
            // writes (slots aside).
            let mut written: Vec<usize> = Vec::new();
            let mut stripes: Vec<usize> = Vec::new();
            for c in seg.counts.iter() {
                assert_eq!(lines_of(c).count(), 1, "a stripe straddles lines");
                stripes.push(line_of(c));
            }
            written.extend(&stripes);
            written.extend(lines_of(&seg.grow));
            for line in &read {
                assert!(!written.contains(line), "a probe-read word sits on a written line");
            }
            // No two threads' stripes on one line.
            let mut distinct = stripes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), stripes.len(), "two stripes share a line");
            assert_eq!(seg.counts.len(), 4);
        }
        // Segments stand apart from each other.
        for pair in idx.segments.windows(2) {
            assert!(lines_of(&pair[0]).end() < lines_of(&pair[1]).start());
        }
    }

    #[test]
    fn striped_counts_sum_to_the_totals() {
        let idx: HashIndex<u64, u64> = HashIndex::new(4, 1 << 12, None);
        for k in 0..100u64 {
            // Thread ids past the stripe count fold onto a stripe.
            publish(&idx, k, dangling(1 + k as usize), 0, (k % 6) as usize);
        }
        for k in 0..40u64 {
            idx.invalidate(&k, None, (k % 3) as usize);
        }
        assert_eq!(idx.published_entries(), 100);
        assert_eq!(idx.retired_entries(), 40);
        let occ = idx.occupancy();
        assert_eq!(occ.iter().map(|s| s.used).sum::<usize>(), 100);
        assert_eq!(occ.iter().map(|s| s.entries).sum::<usize>(), 60);
        assert_eq!(occ.iter().map(|s| s.tombstones).sum::<usize>(), 40);
    }

    #[test]
    fn a_grow_adds_exactly_its_upper_half() {
        // Drive grows directly (publish-count triggers depend on the
        // detected segment count, so they are not deterministic here).
        let seg = Segment::new(AUTO_SEGMENT_CAP, 1);
        let stripes = std::mem::size_of::<Padded<Counts>>();
        assert_eq!(seg.bytes(), 16 * AUTO_SEGMENT_CAP + stripes);
        for doubled in 1..=3 {
            let before = (seg.capacity(), seg.bytes());
            seg.grow(false);
            assert_eq!(seg.capacity(), 2 * before.0);
            // Nothing of the predecessor is kept: the array gains its new
            // upper half, and that is all.
            assert_eq!(seg.bytes(), before.1 + 16 * before.0, "grow {doubled}");
        }
        assert_eq!(seg.bytes(), 16 * seg.capacity() + stripes);
    }
}


