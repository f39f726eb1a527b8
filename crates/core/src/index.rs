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
//! pointer with another's generation. A writer that finds a slot
//! busy simply moves on (the index tolerates lost publishes), so no
//! operation ever waits on a stalled peer.
//!
//! # Header layout
//!
//! Every probe — lookup, publish or invalidate, from any core — loads a
//! segment's `current` word and its table's `mask` and `slots` pointer.
//! Those words sit on 128-byte lines that no publish or invalidate ever
//! writes (only a grow swaps `current`), so they stay shared in every
//! core's cache. What a publish or invalidate does count — slots claimed,
//! entries published, entries tombstoned — goes to the calling thread's own
//! 128-byte-padded stripe; the totals are sums over the stripes.
//!
//! # NUMA-aware segments
//!
//! The table is split into one segment per NUMA node (detected topology,
//! or the paper's machine as a fallback), selected by the top hash bits;
//! each segment owns an independently grown power-of-two table, so probe
//! chains stay within one segment's storage (first-touched by the
//! building thread) instead of striding a single machine-wide array.

use crate::adapt::{AdaptConfig, OCC_GROW_PCT, PROBE_GROW};
use crate::node::Node;
use crate::sync::{FacadeAtomicUsize, Padded};
use instrument::{MeanWindow, ThreadCtx};
use numa::{Placement, Topology};
use std::hash::{Hash, Hasher};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

// Tag packing below folds a 32-bit generation and a 31-bit hash
// signature into one word.
const _: () = assert!(usize::BITS == 64, "the hash index packs (sig, gen) into one 64-bit word");

const TAG_EMPTY: usize = 0;
const TAG_TOMBSTONE: usize = 1;
const TAG_BUSY: usize = 2;
const TAG_PRESENT: usize = 1 << 63;

/// Linear-probe bound: past this, a publish gives up (after nudging the
/// segment to grow) and a lookup reports a miss. Bounds both the read
/// cost and the damage a pathological hash cluster can do.
/// Maximum linear-probe chain length before a lookup gives up (also the
/// width of [`SegmentOccupancy::probe_histogram`]).
pub const PROBE_LIMIT: usize = 16;

/// Occupancy snapshot of one NUMA segment's current table — the tuning
/// signal for [`crate::GraphConfig::index_capacity`]: `entries` near 75%
/// of `capacity` means the segment is about to grow, and mass in the
/// histogram's upper buckets means probe chains (and thus point-read
/// line costs) are long even though space remains — the condition the
/// windowed probe sensor turns into an early grow when
/// [`crate::GraphConfig::adapt`] is set.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SegmentOccupancy {
    /// Slots in the current table (power of two).
    pub capacity: usize,
    /// Slots ever claimed from empty in this table, tombstones included
    /// (the grow trigger compares this against 75% of `capacity`).
    pub used: usize,
    /// Present entries observed by the snapshot walk.
    pub entries: usize,
    /// Tombstoned slots (retired entries still occupying probe chains
    /// until the next grow drops them).
    pub tombstones: usize,
    /// Present entries binned by displacement from their home slot
    /// (`[0]` = direct hits; the last bucket absorbs the tail).
    pub probe_histogram: [u64; PROBE_LIMIT],
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

/// Smallest per-segment table; also the default when the configured
/// capacity hint is `0` (auto).
const MIN_SEGMENT_CAP: usize = 1 << 10;
/// Largest per-segment table a grow will produce.
const MAX_SEGMENT_CAP: usize = 1 << 24;
/// Without an [`AdaptConfig`], a thread sums the `used` stripes against
/// the occupancy threshold on every this-many-th slot it claims, not on
/// every publish: the sum reads every other thread's stripe line. A grow
/// is then late by at most this many claims per thread — a fraction of a
/// percent of the smallest table, with probe exhaustion as the backstop.
const GROW_CHECK_EVERY: usize = 64;

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
}

/// One power-of-two probe array. Tables are immutable in size; a segment
/// grows by building a successor and swapping the current-table pointer.
/// The header is immutable too and aligned to a line pair of its own:
/// every probe reads `mask` and `slots`, and nothing ever writes near them.
#[repr(align(128))]
struct Table {
    mask: usize,
    slots: Box<[Slot]>,
    /// Slots ever claimed from `EMPTY` (tombstones included), one stripe
    /// per thread: their sum is the grow trigger. Monotonic per table.
    used: Box<[Padded<AtomicUsize>]>,
}

impl Table {
    fn new(cap: usize, stripes: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two() && stripes.is_power_of_two());
        Box::new(Self {
            mask: cap - 1,
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            used: (0..stripes).map(|_| Padded(AtomicUsize::new(0))).collect(),
        })
    }

    fn used(&self) -> usize {
        self.used.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots)
            + std::mem::size_of_val(&*self.used)
            + std::mem::size_of::<Self>()
    }
}

/// One thread's share of a segment's monotonic entry counts.
struct Counts {
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
    retired_tables: Mutex<Vec<Box<Table>>>,
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

/// One NUMA segment: the current table plus every predecessor it grew
/// out of (parked until drop — entries hold no owned memory, but the
/// byte accounting and late readers of a just-swapped table need the
/// storage to stay mapped). Aligned to a line pair, so segments stand
/// apart, and laid out so that the first pair holds only what probes read.
#[repr(C, align(128))]
struct Segment {
    /// `Box<Table>` leaked into an atomic word; readers snapshot it
    /// lock-free. Retired predecessors keep raw reads safe: a table is
    /// only ever freed in `Drop`. Written only by a grow's swap.
    current: AtomicUsize,
    /// Per-thread stripes of the entry counts (the pointer is immutable).
    counts: Box<[Padded<Counts>]>,
    grow: Padded<GrowState>,
}

impl Segment {
    fn new(cap: usize, stripes: usize) -> Self {
        Self {
            current: AtomicUsize::new(Box::into_raw(Table::new(cap, stripes)) as usize),
            counts: (0..stripes)
                .map(|_| {
                    Padded(Counts {
                        published: AtomicUsize::new(0),
                        retired: AtomicUsize::new(0),
                    })
                })
                .collect(),
            grow: Padded(GrowState {
                lock: AtomicUsize::new(0),
                retired_tables: Mutex::new(Vec::new()),
                probe_window: MeanWindow::new(),
                probe_streak: AtomicU32::new(0),
                probe_grows: AtomicUsize::new(0),
            }),
        }
    }

    fn table(&self) -> &Table {
        // Tables live until the segment drops; see `current`'s docs.
        unsafe { &*(self.current.load(Ordering::Acquire) as *const Table) }
    }

    /// Thread `tid`'s stripe of the entry counts. Ids past the stripe
    /// count (a caller outside the registered set) fold onto one.
    fn counts(&self, tid: usize) -> &Counts {
        &self.counts[tid & (self.counts.len() - 1)].0
    }

    fn bytes(&self) -> usize {
        let retired: usize = self
            .grow
            .0
            .retired_tables
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|t| t.bytes())
            .sum();
        self.table().bytes() + retired + std::mem::size_of_val(&*self.counts)
    }

    /// Doubles the table (single grower; losers and over-cap segments
    /// no-op). Live entries are re-published into the successor; a
    /// publish racing the copy may be lost — the read that then misses
    /// republishes it ([`crate::SkipGraph`]'s `index_heal`).
    fn grow(&self) {
        let grow = &self.grow.0;
        if grow.lock.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).is_err() {
            return;
        }
        let old = self.table();
        let cap = old.mask + 1;
        if cap < MAX_SEGMENT_CAP {
            let new = Table::new(cap * 2, old.used.len());
            let mut installed = 0;
            for slot in old.slots.iter() {
                // Seqlock pair-read, as in `lookup_raw_hashed`.
                let t1 = slot.tag.load();
                if !tag_is_present(t1) {
                    continue;
                }
                let ptr = slot.ptr.load();
                if slot.tag.load() != t1 || ptr == 0 {
                    continue; // racing writer; entry is lost, not corrupted
                }
                installed += Self::install(&new, t1, ptr) as usize;
            }
            // The successor is still private: one store stands for every
            // slot the copy claimed.
            new.used[0].0.store(installed, Ordering::Relaxed);
            let fresh = Box::into_raw(new) as usize;
            let prev = self.current.swap(fresh, Ordering::AcqRel);
            grow.retired_tables
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(unsafe { Box::from_raw(prev as *mut Table) });
        }
        grow.lock.store(0, Ordering::Release);
    }

    /// Claims a slot of the still-private successor `table` for a
    /// fully-formed entry and says whether one was found. The position is
    /// rebuilt from the tag's signature, which is what probes start from.
    fn install(table: &Table, tag: usize, ptr: usize) -> bool {
        let mut i = tag_sig(tag) & table.mask;
        for _ in 0..PROBE_LIMIT {
            let s = &table.slots[i];
            if s.tag.load() == TAG_EMPTY {
                s.ptr.store(ptr);
                s.tag.store(tag);
                return true;
            }
            i = (i + 1) & table.mask;
        }
        false
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        let cur = *self.current.get_mut();
        drop(unsafe { Box::from_raw(cur as *mut Table) });
    }
}

/// A raw, seqlock-consistent index entry: the `(ptr, gen)` pair was
/// published together (never torn), but nothing about the node has been
/// validated yet; [`HashIndex::read_node`] applies the validation ladder.
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
            MIN_SEGMENT_CAP * 4
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

    /// Total bytes of segment storage (current tables plus retired
    /// predecessors) — the `memory_stats` contribution.
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

    /// Total slots across every segment's current table (retired tables
    /// excluded): the denominator of the index's global load factor.
    pub(crate) fn capacity(&self) -> usize {
        self.segments.iter().map(|s| s.table().mask + 1).sum()
    }

    /// Installed NUMA segments (fixed at construction).
    pub(crate) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Weak per-segment occupancy snapshot (see [`SegmentOccupancy`]):
    /// walks each segment's *current* table once, classifying slots and
    /// binning present entries by probe displacement from their home
    /// position. Concurrent publishes/invalidations may be half-observed —
    /// the numbers are telemetry for sizing `index_capacity`, not an
    /// invariant source.
    pub(crate) fn occupancy(&self) -> Vec<SegmentOccupancy> {
        self.segments
            .iter()
            .map(|seg| {
                let table = seg.table();
                let mut occ = SegmentOccupancy {
                    capacity: table.mask + 1,
                    used: table.used().min(table.mask + 1),
                    ..SegmentOccupancy::default()
                };
                for (i, slot) in table.slots.iter().enumerate() {
                    let tag = slot.tag.load();
                    if tag == TAG_TOMBSTONE {
                        occ.tombstones += 1;
                        continue;
                    }
                    if !tag_is_present(tag) {
                        continue;
                    }
                    occ.entries += 1;
                    // The probe walks forward from `sig & mask`, so the
                    // wrapped distance from home is the entry's cost.
                    let home = tag_sig(tag) & table.mask;
                    let dist = i.wrapping_sub(home) & table.mask;
                    occ.probe_histogram[dist.min(PROBE_LIMIT - 1)] += 1;
                }
                occ
            })
            .collect()
    }

    /// Publishes `(ptr, gen)` under `hash`, the [`Self::hash`] of the
    /// node's key, on behalf of thread `tid`. Best effort: a busy or full
    /// probe window drops the publish (and nudges the segment to grow).
    /// Callers pass a generation captured from the incarnation they just
    /// linked/observed live — publish-after-link.
    pub(crate) fn publish_hashed(&self, hash: u64, ptr: NonNull<Node<K, V>>, gen: u32, tid: usize) {
        let seg = self.segment(hash);
        let table = seg.table();
        let sig = sig_of(hash);
        let tag = tag_of(hash, gen);
        // Probe from the signature (not the raw hash): the position is
        // then recoverable from the tag alone, which is what lets a grow
        // re-install entries it can only see through their tags.
        let mut i = sig & table.mask;
        for _ in 0..PROBE_LIMIT {
            let s = &table.slots[i];
            let seen = s.tag.load();
            let takeable = seen == TAG_EMPTY
                || seen == TAG_TOMBSTONE
                || (tag_is_present(seen) && tag_sig(seen) == sig);
            if takeable && s.tag.compare_exchange(seen, TAG_BUSY).is_ok() {
                // This thread's claims of this table so far, when the
                // slot was claimed from empty.
                let claims = if seen == TAG_EMPTY {
                    let stripe = &table.used[tid & (table.used.len() - 1)].0;
                    stripe.fetch_add(1, Ordering::Relaxed) + 1
                } else {
                    0
                };
                s.ptr.store(ptr.as_ptr() as usize);
                s.tag.store(tag);
                seg.counts(tid).published.fetch_add(1, Ordering::Relaxed);
                // The probe window needs every sample; the occupancy
                // trip-wire alone is sampled.
                if self.adapt.is_some() || (claims != 0 && claims % GROW_CHECK_EVERY == 0) {
                    self.after_publish(seg, table, i.wrapping_sub(sig) & table.mask);
                }
                return;
            }
            i = (i + 1) & table.mask;
        }
        // Probe window exhausted: grow (if allowed) and drop the publish.
        seg.grow();
    }

    /// Post-publish growth policy, run on every publish with an
    /// [`AdaptConfig`] and on every [`GROW_CHECK_EVERY`]th claim of a
    /// thread without. Two triggers:
    ///
    /// * **occupancy** — the share of ever-claimed slots (tombstones
    ///   included: they occupy probe-chain positions until a grow drops
    ///   them) crosses [`OCC_GROW_PCT`];
    /// * **probe signal** (adaptive only) — the windowed mean probe
    ///   displacement of publishes meets [`PROBE_GROW`] for
    ///   `dwell_windows + 1` consecutive windows, growing early when an
    ///   adversarial key mix clusters collisions below the occupancy
    ///   threshold.
    ///
    /// The probe-exhaustion `grow()` at the end of [`Self::publish_hashed`]
    /// remains the correctness backstop either way.
    fn after_publish(&self, seg: &Segment, table: &Table, displacement: usize) {
        if table.used() * 100 > (table.mask + 1) * OCC_GROW_PCT {
            seg.grow();
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
        seg.grow();
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
        let table = seg.table();
        let sig = sig_of(hash);
        let mut i = sig & table.mask;
        for _ in 0..PROBE_LIMIT {
            let s = &table.slots[i];
            let seen = s.tag.load();
            if seen == TAG_EMPTY {
                return;
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
                    return;
                }
            }
            i = (i + 1) & table.mask;
        }
    }

    /// Seqlock-consistent raw lookup: the first present entry whose
    /// signature matches. No validation beyond pair consistency — see
    /// [`RawEntry`].
    fn lookup_raw_hashed(&self, hash: u64) -> Option<RawEntry<K, V>> {
        let table = self.segment(hash).table();
        let sig = sig_of(hash);
        let mut i = sig & table.mask;
        for _ in 0..PROBE_LIMIT {
            let s = &table.slots[i];
            let t1 = s.tag.load();
            if t1 == TAG_EMPTY {
                return None;
            }
            if tag_is_present(t1) && tag_sig(t1) == sig {
                let ptr = s.ptr.load();
                if s.tag.load() == t1 {
                    if let Some(nn) = NonNull::new(ptr as *mut Node<K, V>) {
                        return Some(RawEntry {
                            ptr: nn,
                            gen: tag_gen(t1),
                        });
                    }
                }
                // Torn or republishing: fall through and keep probing —
                // duplicate-signature entries are possible after a grow.
            }
            i = (i + 1) & table.mask;
        }
        None
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

    #[test]
    fn grows_past_the_initial_capacity() {
        let keys = if cfg!(miri) { 300u64 } else { 4_000 };
        let idx: HashIndex<u64, u64> = HashIndex::new(1, 0, None);
        for k in 0..keys {
            publish(&idx, k, dangling(1 + k as usize), k as u32, 0);
        }
        // The minimum table holds 1024 slots per segment; without grows
        // most publishes would have been dropped. Require the vast
        // majority to survive (growth migration may shed a few).
        let mut hits = 0;
        for k in 0..keys {
            if let Some(e) = lookup(&idx, k) {
                assert_eq!(e.gen, k as u32, "entry for {k} mixed up");
                hits += 1;
            }
        }
        assert!(
            hits as f64 >= keys as f64 * 0.9,
            "only {hits}/{keys} entries survived growth"
        );
        assert!(idx.bytes() > 0);
    }

    #[test]
    fn probe_signal_grows_below_the_occupancy_threshold() {
        // Drive the sensor directly with long displacements: the table
        // stays empty (occupancy can never trigger), so the windowed
        // mean-probe signal alone must grow the segment — and only after
        // the dwell guard's `dwell + 1` consecutive qualifying windows.
        let cfg = AdaptConfig::new().window_ops(16).dwell_windows(1);
        let idx: HashIndex<u64, u64> = HashIndex::new(1, 0, Some(cfg));
        let seg = &idx.segments[0];
        let before = seg.table().mask + 1;
        for _ in 0..16 {
            idx.after_publish(seg, seg.table(), 5);
        }
        assert_eq!(seg.table().mask + 1, before, "dwell guard must hold the first window");
        for _ in 0..16 {
            idx.after_publish(seg, seg.table(), 5);
        }
        assert_eq!(seg.table().mask + 1, before * 2, "second qualifying window grows");
        assert_eq!(idx.probe_grows(), 1, "growth must be attributed to the probe signal");
        // A short-probe window resets the streak: one more qualifying
        // window alone must not grow again.
        for _ in 0..16 {
            idx.after_publish(seg, seg.table(), 0);
        }
        for _ in 0..16 {
            idx.after_publish(seg, seg.table(), 5);
        }
        assert_eq!(seg.table().mask + 1, before * 2, "a reset streak must re-dwell");
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
        // A live index, grown once so that retired tables and a successor
        // allocated mid-run are part of the picture.
        let idx: HashIndex<u64, u64> = HashIndex::new(4, 0, None);
        for k in 0..6_000u64 {
            publish(&idx, k, dangling(1 + k as usize), 0, (k % 4) as usize);
        }
        for k in 0..1_000u64 {
            idx.invalidate(&k, None, (k % 4) as usize);
        }
        assert!(idx.capacity() > idx.segments.len() * MIN_SEGMENT_CAP * 4, "no grow happened");
        for seg in idx.segments.iter() {
            let table = seg.table();
            // A header that starts a line pair and fits in it shares it
            // with no neighbour on the heap, whatever the allocator does.
            assert_eq!(table as *const Table as usize % 128, 0);
            assert_eq!(lines_of(table).count(), 1);
            // What every lookup, publish and invalidate loads on its way
            // to a slot (of the boxed arrays, the pointer words).
            let mut read: Vec<usize> = Vec::new();
            read.extend(lines_of(&seg.current));
            read.extend(lines_of(&seg.counts));
            read.extend(lines_of(&table.mask));
            read.extend(lines_of(&table.slots));
            read.extend(lines_of(&table.used));
            // What a publish, an invalidate, the sensor or a grow writes
            // (slots aside).
            let mut written: Vec<usize> = Vec::new();
            let mut stripes: Vec<usize> = Vec::new();
            for c in seg.counts.iter() {
                assert_eq!(lines_of(c).count(), 1, "a stripe straddles lines");
                stripes.push(line_of(c));
            }
            for u in table.used.iter() {
                assert_eq!(lines_of(u).count(), 1, "a stripe straddles lines");
                stripes.push(line_of(u));
            }
            written.extend(&stripes);
            written.extend(lines_of(&seg.grow));
            for line in &read {
                assert!(!written.contains(line), "a probe-read word sits on a written line");
            }
            // No two threads' stripes on one line (nor a thread's two).
            let mut distinct = stripes.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), stripes.len(), "two stripes share a line");
            assert_eq!(seg.counts.len(), 4);
            assert_eq!(table.used.len(), 4);
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
    fn byte_accounting_includes_retired_tables() {
        // Drive one grow directly (publish-count triggers depend on the
        // detected segment count, so they are not deterministic here).
        let seg = Segment::new(MIN_SEGMENT_CAP, 1);
        let before = seg.bytes();
        seg.grow();
        let after = seg.bytes();
        // The successor table is twice the size and the predecessor is
        // parked, so the footprint at least doubles — both allocations
        // must show up in the byte accounting.
        assert!(
            after >= before * 2,
            "grow footprint not accounted: {before} -> {after}"
        );
        assert_eq!(seg.table().mask + 1, MIN_SEGMENT_CAP * 2);
    }
}
