//! Fat level-0 blocks: B-skiplist blocking layered over the skip graph.
//!
//! A [`BlockedSkipMap`] stores several key/value pairs per level-0 node
//! ("anchor") in a trailing sorted-prefix array, instead of one pair per
//! node. Searches pay one tower descent per *block* rather than per key,
//! and a block's entries share cache lines, so the per-key traversal and
//! memory costs drop by roughly the blocking factor (the classic
//! B-skiplist argument, applied to the paper's NUMA-local skip graph).
//!
//! # Block layout
//!
//! Every node the inner graph allocates reserves
//! [`GraphConfig::block_bytes`] of trailing storage after its truncated
//! tower (see [`Node::block_base`]); the blocked map carves it as:
//!
//! ```text
//! offset 0   control word   (FacadeAtomicUsize)
//! offset 8   forward word   (FacadeAtomicUsize; replacement pointer)
//! offset 16  cap × (K, V)   write-once entry slots
//! ```
//!
//! The control word packs the whole block state so every transition is a
//! single full-word CAS:
//!
//! * bits `0..16`  — *present* bitmap: slot holds a live entry,
//! * bits `16..32` — *claimed* bitmap: slot is (or was) owned by a writer,
//! * bit  `32`     — *frozen*: sticky; the block is being split or merged,
//! * bits `33..39` — length of the sorted prefix written at block build,
//! * bits `39..55` — *tombstone* bitmap: slot's entry was removed; its
//!   bytes are intact, so a re-insert of the same pair can resurrect it.
//!
//! Slots are write-once: a writer claims a slot (CAS), writes the pair,
//! then publishes it (CAS setting the present bit — the insert's
//! linearization point). Removal clears the present bit, sets the
//! tombstone bit and keeps the claim, so published keys stay readable
//! forever and the reader needs no per-slot synchronization. A re-insert
//! of the *same key and value* may instead resurrect a tombstoned slot
//! with one CAS (present on, tombstone off): the slot bytes never change,
//! so no reader can observe a torn entry, and windowed same-key churn
//! stops exhausting slots and freeze-splitting the block. A block whose
//! slots are exhausted is frozen (sticky bit) and replaced wholesale by
//! one or two fresh blocks holding the surviving entries — the split —,
//! or simply unlinked when nothing survives — the merge. Freezing makes
//! the present bitmap immutable, which is what lets any helper compute
//! the same survivor set.
//!
//! # Coverage invariant
//!
//! An entry `e` always lives in the block of the greatest anchor key
//! `<= e`; if no such anchor exists, in the *first* block (which therefore
//! covers `-inf`). New anchors below an existing anchor key can only be
//! created by splitting the first block, and splits freeze their victim
//! first — so an insert's publish CAS succeeding against an unfrozen
//! control word proves the block still covered the key, and the publish
//! linearizes the insert.
//!
//! # Split/merge linearization
//!
//! `help_split` is idempotent and runs on every thread that observes the
//! frozen bit: snapshot the survivors (immutable once frozen), mark the
//! anchor's tower top-down under the marked-pointer protocol, publish the
//! replacement block(s) through the forward word (first CAS wins; losers
//! discard their candidates unpublished), and install the winner by
//! swinging the predecessor's level-0 reference. The migration is
//! invisible to readers: a key present in the frozen block is present in
//! its replacement, and point operations never read a frozen snapshot —
//! they help first and retry, so the lookup always lands on the live
//! incarnation. The install bumps the dead anchor's generation (directly,
//! or through retirement when reclamation is on), so cached
//! [`NodeRef`]-based block hints fail validation instead of resurrecting
//! a migrated block.
//!
//! Every outcome of a frozen block is canonicalized through its *forward
//! word*: a replacement chain head (any pointer `> 1`), or the [`MERGED`]
//! sentinel claiming the no-survivor unlink. Helpers that lose the CAS
//! adopt the winner's decision.
//!
//! # The local anchor maps
//!
//! The paper caps tower height and gets away with it because each
//! thread's local map (`getStart`) lands a search next to its target. The
//! blocked map does the same with the *anchor* — not the key — as the unit
//! of locality: it holds one ordered map of anchors per configured thread
//! slot (a [`BTreeLocalMap`] from anchor key to generation-checked
//! [`NodeRef`], found by `ctx.id()`), and every entry point — the map's
//! and the handle's point operations and [`BlockedSkipMap::range`] — finds
//! its block through one function, `resolve`:
//!
//! 1. take the slot's greatest anchor `<= key` and validate it under the
//!    operation's pin — generation unchanged (splits and merges retire the
//!    old anchor, which moves it), a data node, level-0 word unmarked and
//!    non-null; an entry that fails is evicted on sight and the next lower
//!    one tried;
//! 2. if its level-0 successor's key is `> key` it *covers* the key: one
//!    node inspected, no search;
//! 3. else jump in: `search_from(key, mvec, Some(anchor), ..)` descends
//!    from the anchor's own tower, the paper's use of its local map;
//! 4. only a thread that knows no anchor at or below the key descends from
//!    a list head.
//!
//! **What a slot holds.** Only anchors whose tower reaches
//! `min(2, max_level)` are sampled — the paper's sparse variant at anchor
//! granularity: with geometric heights that is a quarter of the anchors,
//! each a useful place to jump in from, for a few per cent of the node
//! bytes. A thread records such an anchor when it links it upward (the
//! map's first anchor; the install winner's walk over a split's
//! replacement chain), and when a search shows it one it did not start
//! from: the search's predecessor at the sampling level — the closest
//! sampled anchor below the key on the lists it walked — and, after a
//! descent from a list head, the anchor it landed on. A slot therefore
//! holds, in the main, the anchors of its own thread's lists, as the
//! paper's local maps hold their thread's own nodes: the sum over the
//! slots stays near the number of sampled anchors however many threads
//! read every key. The predecessor rule is what lets a slot that built
//! nothing converge: `search_from` enters at the start anchor's *top*
//! level only, so from a low or distant anchor the walk is long, and it
//! should be paid once. Staleness is bounded as well as size: when a
//! slot's length reaches twice its length after the last sweep (floor
//! `SWEEP_FLOOR`), every entry whose generation moved is dropped.
//!
//! **Why the maps sit in the map.** A scan is `map.range(.., ctx)`: it
//! holds a context, not a handle, so a map in the handle is one scans
//! never see; and a slot outlives its handle, so a re-registered thread
//! starts warm. Two `ThreadCtx` with one id are constructible in safe
//! code, so a slot is a `Mutex` taken with `try_lock` only: a busy or
//! poisoned slot is a miss (the operation descends and records nothing),
//! never a wait — lock-freedom and the deterministic scheduler's yield
//! points are as without it. Slots are 128-byte aligned so two threads'
//! lock words share no line.
//!
//! The maps are accelerators with the index's contract: never an
//! authority. A resolved block is re-checked by the operation itself (a
//! frozen control word sends it to help and resolve again; a publish CAS
//! against an unfrozen word proves coverage).

use super::{NodePtr, NodeRef, PinGuard, SearchResult, SkipGraph};
use crate::local::{BTreeLocalMap, LocalMap};
use crate::node::Node;
use crate::params::GraphConfig;
use crate::sync::{FacadeAtomicUsize, TagPtr};
use instrument::ThreadCtx;
use std::cmp::Ordering as CmpOrdering;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::Bound;
use std::ptr::NonNull;
use std::sync::{Mutex, MutexGuard};

/// Smallest supported blocking factor. A 1-slot block would re-freeze
/// immediately after every split (the replacement is born full), so the
/// unblocked ablation point is the plain [`SkipGraph`], not `cap = 1`.
pub const MIN_BLOCK_CAP: usize = 2;
/// Largest supported blocking factor (present/claimed bitmaps are 16 bits
/// each).
pub const MAX_BLOCK_CAP: usize = 16;

/// Forward-word sentinel claiming the merge outcome (no replacement; the
/// install unlinks). Distinguishable from real replacement pointers, which
/// are 8-aligned node addresses.
const MERGED: usize = 1;

const CLAIMED_SHIFT: u32 = 16;
const FROZEN: usize = 1 << 32;
const PREFIX_SHIFT: u32 = 33;
const PREFIX_MASK: usize = 0x3F;
const TOMB_SHIFT: u32 = 39;
const FORWARD_OFFSET: usize = 8;
const SLOTS_OFFSET: usize = 16;

#[inline]
fn present_bit(i: usize) -> usize {
    1 << i
}
#[inline]
fn claimed_bit(i: usize) -> usize {
    1 << (CLAIMED_SHIFT + i as u32)
}
#[inline]
fn present_bits(w: usize) -> usize {
    w & 0xFFFF
}
#[inline]
fn claimed_bits(w: usize) -> usize {
    (w >> CLAIMED_SHIFT) & 0xFFFF
}
#[inline]
fn tomb_bit(i: usize) -> usize {
    1 << (TOMB_SHIFT + i as u32)
}
#[inline]
fn tomb_bits(w: usize) -> usize {
    (w >> TOMB_SHIFT) & 0xFFFF
}
#[inline]
fn is_frozen(w: usize) -> bool {
    w & FROZEN != 0
}
#[inline]
fn prefix_len(w: usize) -> usize {
    (w >> PREFIX_SHIFT) & PREFIX_MASK
}
#[inline]
fn slot_mask(cap: usize) -> usize {
    (1 << cap) - 1
}

/// Bytes of trailing block storage a node needs for `cap` entry slots
/// (control + forward words + slots, rounded up to pointer alignment).
pub(crate) fn block_layout_bytes<K, V>(cap: usize) -> usize {
    let raw = SLOTS_OFFSET + cap * std::mem::size_of::<(K, V)>();
    (raw + 7) & !7
}

type BNode<K> = Node<K, ()>;
type BPtr<K> = NodePtr<K, ()>;
type BSearch<K> = SearchResult<K, ()>;

/// A slot's local map is not swept for stale entries below this length.
const SWEEP_FLOOR: usize = 1024;

/// The liveness rungs of the validation ladder, under the caller's pin:
/// `hint` still names the incarnation it captured (generation), that is a
/// data node, and its level-0 word is unmarked and non-null. Returns the
/// node with that word's successor.
fn live_anchor<K>(hint: &NodeRef<K, ()>) -> Option<(&BNode<K>, BPtr<K>)> {
    let node = hint.node().filter(|n| n.is_data())?;
    let w0 = node.load_next_raw(0);
    (!w0.marked() && !w0.ptr().is_null()).then_some((node, w0.ptr()))
}

/// One thread slot's local structure: the sampled anchors its thread
/// linked or was shown by a search, by anchor key (see the module docs).
struct LocalAnchors<K> {
    map: BTreeLocalMap<K, NodeRef<K, ()>>,
    /// Length at which the next staleness sweep runs.
    sweep_at: usize,
}

/// A slot on cache lines of its own: taking one thread's lock must not
/// move the line another thread's lock word sits on.
#[repr(align(128))]
struct LocalSlot<K>(Mutex<LocalAnchors<K>>);

impl<K> Default for LocalSlot<K> {
    fn default() -> Self {
        Self(Mutex::new(LocalAnchors {
            map: BTreeLocalMap::default(),
            sweep_at: SWEEP_FLOOR,
        }))
    }
}

impl<K: Ord + Copy> LocalAnchors<K> {
    /// The greatest recorded anchor `<= key` that passes [`live_anchor`],
    /// with its level-0 successor. Dead entries met on the way are
    /// evicted; a live anchor that does not cover `key` stays, for its own
    /// range.
    fn floor(&mut self, key: &K) -> Option<(NonNull<BNode<K>>, BPtr<K>)> {
        loop {
            let (akey, hint) = self.map.max_lower_equal(key)?;
            let akey = *akey;
            if let Some((_, succ)) = live_anchor(&hint) {
                return Some((hint.ptr, succ));
            }
            self.map.remove(&akey);
        }
    }

    /// Records `anchor`, a node the caller's pinned traversal reached, and
    /// sweeps out every entry whose generation moved once the map has
    /// doubled since the last sweep.
    fn record(&mut self, anchor: NonNull<BNode<K>>) {
        let akey = *unsafe { anchor.as_ref().key() };
        self.map.insert(akey, NodeRef::new(anchor));
        if self.map.len() >= self.sweep_at {
            // The generation word is an atomic projection of an arena
            // slot: readable whatever became of the node.
            self.map
                .retain(|_, r| unsafe { Node::generation_of(r.ptr) } == r.gen);
            self.sweep_at = (2 * self.map.len()).max(SWEEP_FLOOR);
        }
    }
}

/// Tunable block-lifecycle policy: where a split cuts and when a clogged
/// block compacts. The default is a half split and compaction only on
/// empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockPolicy {
    /// Percentage of a split's survivors kept in the *left* (lower)
    /// replacement block, in `1..=99`. 50 is the classic half split;
    /// higher values leave the left block fuller ("leave-behind"), which
    /// suits ascending loads where the right block keeps absorbing.
    pub split_left_pct: u8,
    /// A block whose live count drops to this threshold *and* whose
    /// slots are all claimed (so it cannot absorb another insert anyway)
    /// is frozen and compacted into a fresh block with free slots. 0
    /// compacts only fully-emptied blocks (they unlink instead).
    pub merge_threshold: usize,
}

impl Default for BlockPolicy {
    fn default() -> Self {
        Self {
            split_left_pct: 50,
            merge_threshold: 0,
        }
    }
}

impl BlockPolicy {
    /// The index a split of `len` sorted survivors cuts at (size of the
    /// left block), always leaving both sides nonempty.
    fn split_point(&self, len: usize) -> usize {
        (len * self.split_left_pct as usize)
            .div_ceil(100)
            .clamp(1, len - 1)
    }

    fn validate(&self, cap: usize) {
        assert!(
            (1..=99).contains(&self.split_left_pct),
            "split_left_pct must be in 1..=99"
        );
        assert!(
            self.merge_threshold < cap,
            "merge_threshold must be below the block capacity"
        );
    }
}

/// A typed view of one anchor's trailing block region. Purely a pointer
/// package: carries no lifetime, so callers must hold a reclamation pin
/// for as long as they use it (same contract as raw node pointers).
struct Blk<K, V> {
    base: *mut u8,
    cap: usize,
    _kv: PhantomData<*mut (K, V)>,
}

impl<K: Copy, V: Copy> Blk<K, V> {
    /// # Safety
    ///
    /// `anchor` must point at a live (pinned) node of a graph configured
    /// with `block_bytes >= block_layout_bytes::<K, V>(cap)`.
    unsafe fn of(anchor: NonNull<BNode<K>>, cap: usize) -> Self {
        Self {
            base: Node::block_base(anchor),
            cap,
            _kv: PhantomData,
        }
    }

    #[inline]
    fn control(&self) -> &FacadeAtomicUsize {
        // Safety: the region is 8-aligned (nodes are 8-aligned, header and
        // tower sizes are multiples of 8) and zero-initialized by the
        // arena, which is a valid `FacadeAtomicUsize`.
        unsafe { &*(self.base as *const FacadeAtomicUsize) }
    }

    #[inline]
    fn forward(&self) -> &FacadeAtomicUsize {
        unsafe { &*(self.base.add(FORWARD_OFFSET) as *const FacadeAtomicUsize) }
    }

    /// Raw slot projection. Never forms a reference: slots are read and
    /// written through raw pointers so unpublished slots (plain memory
    /// owned by one claiming writer) never alias a shared borrow.
    #[inline]
    unsafe fn slot(&self, i: usize) -> *mut (K, V) {
        debug_assert!(i < self.cap);
        (self.base.add(SLOTS_OFFSET) as *mut (K, V)).add(i)
    }

    /// Reads a published (or prefix) slot. Safe against concurrent
    /// removal: slots are write-once, and the claim CAS / publish CAS
    /// pair orders the write before any reader's acquire of the control
    /// word.
    #[inline]
    unsafe fn read(&self, i: usize) -> (K, V) {
        std::ptr::read(self.slot(i))
    }

    #[inline]
    unsafe fn key_at(&self, i: usize) -> K {
        (*self.slot(i)).0
    }

    #[inline]
    unsafe fn write(&self, i: usize, e: (K, V)) {
        std::ptr::write(self.slot(i), e)
    }
}

/// Aggregate footprint of a [`BlockedSkipMap`], for the blocking-ablation
/// benchmarks: how many anchors carry how many live entries, and what the
/// per-key byte cost works out to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockedStats {
    /// Live (unmarked) anchor nodes on the bottom list.
    pub anchors: usize,
    /// Live entries summed over those anchors' present bitmaps.
    pub entries: usize,
    /// Bytes consumed by allocated node slots, towers and blocks included.
    /// The local anchor maps are not in it; see `local_bytes`.
    pub allocated_bytes: usize,
    /// `allocated_bytes / entries` (0 when empty).
    pub bytes_per_key: f64,
    /// Anchors recorded in the thread slots' local maps, summed over the
    /// slots (a slot busy at the time reads as empty).
    pub local_entries: usize,
    /// What those entries cost at a B-tree's worst-case occupancy (half
    /// full): `local_entries` × the entry size × 2.
    pub local_bytes: usize,
}

/// A lock-free ordered map with fat level-0 blocks over a [`SkipGraph`].
///
/// Keys and values are `Copy` so block migration is a plain memcpy and
/// readers need no per-entry synchronization; the inner graph runs the
/// lazy protocol (searches never relink level-0 chains), which keeps a
/// frozen block reachable until its replacement is installed.
pub struct BlockedSkipMap<K, V> {
    graph: SkipGraph<K, ()>,
    cap: usize,
    policy: BlockPolicy,
    /// Drives deterministic anchor tower heights in sparse mode: the
    /// `n`-th anchor gets height `trailing_zeros(n)` (capped), i.e. the
    /// geometric distribution without per-thread RNG state.
    anchor_seq: FacadeAtomicUsize,
    /// One local anchor map per configured thread slot, indexed by
    /// `ctx.id()` (see the module docs).
    local: Box<[LocalSlot<K>]>,
    _values: PhantomData<V>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for BlockedSkipMap<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for BlockedSkipMap<K, V> {}

impl<K, V> BlockedSkipMap<K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// Builds a blocked map for `config` with `cap` entry slots per
    /// block. The configuration is forced lazy (see the type docs) and
    /// its `block_bytes` is derived from `cap` and the entry stride.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is outside [`MIN_BLOCK_CAP`]`..=`[`MAX_BLOCK_CAP`],
    /// the entry type is over-aligned (block slots are 8-aligned), or
    /// `config` asks for [`GraphConfig::hash_index`] (the index names one
    /// key per node; no blocked operation publishes to it or probes it).
    pub fn new(config: GraphConfig, cap: usize) -> Self {
        Self::with_policy(config, cap, BlockPolicy::default())
    }

    /// [`Self::new`] with an explicit block-lifecycle [`BlockPolicy`]
    /// (split point, compaction threshold).
    ///
    /// # Panics
    ///
    /// As [`Self::new`], and on an out-of-range policy (see
    /// [`BlockPolicy`]).
    pub fn with_policy(config: GraphConfig, cap: usize, policy: BlockPolicy) -> Self {
        assert!(
            !config.hash_index,
            "BlockedSkipMap with GraphConfig::hash_index(true): a blocked map keeps no hash index"
        );
        assert!(
            (MIN_BLOCK_CAP..=MAX_BLOCK_CAP).contains(&cap),
            "block capacity must be in {MIN_BLOCK_CAP}..={MAX_BLOCK_CAP}"
        );
        assert!(
            std::mem::align_of::<(K, V)>() <= 8,
            "block entries must be at most 8-aligned"
        );
        debug_assert_eq!(std::mem::size_of::<usize>(), 8);
        policy.validate(cap);
        let config = config
            .lazy(true)
            .block_bytes(block_layout_bytes::<K, V>(cap));
        Self {
            local: (0..config.num_threads)
                .map(|_| LocalSlot::default())
                .collect(),
            graph: SkipGraph::new(config),
            cap,
            policy,
            anchor_seq: FacadeAtomicUsize::new(1),
            _values: PhantomData,
        }
    }

    /// The inner skip graph (anchors only; entries live in the blocks).
    pub fn shared(&self) -> &SkipGraph<K, ()> {
        &self.graph
    }

    fn anchor_height(&self) -> u8 {
        let cfg = self.graph.config();
        if !cfg.sparse {
            return cfg.max_level;
        }
        let n = self.anchor_seq.fetch_add(1);
        (n.trailing_zeros() as u8).min(cfg.max_level)
    }

    #[inline]
    unsafe fn blk(&self, anchor: NonNull<BNode<K>>) -> Blk<K, V> {
        unsafe { Blk::of(anchor, self.cap) }
    }

    /// The tower height from which an anchor is sampled into the local
    /// maps: 2, or the configured maximum where towers stop lower (a
    /// `MaxLevel`-1 map would otherwise sample nothing).
    fn sample_level(&self) -> usize {
        2.min(self.graph.config().max_level as usize)
    }

    /// The calling thread's local anchor map, unless the slot is busy (a
    /// second context with this id is inside it) or poisoned. Never waits.
    fn local(&self, ctx: &ThreadCtx) -> Option<MutexGuard<'_, LocalAnchors<K>>> {
        self.local[ctx.id() as usize].0.try_lock().ok()
    }

    /// Records an anchor the calling thread has just linked upward, if it
    /// is sampled. Caller must hold a pin.
    fn record_linked(&self, anchor: NonNull<BNode<K>>, ctx: &ThreadCtx) {
        if unsafe { anchor.as_ref() }.top_level() as usize >= self.sample_level() {
            if let Some(mut local) = self.local(ctx) {
                local.record(anchor);
            }
        }
    }

    /// The block responsible for `key` right now — every entry point's way
    /// to its block (see "The local anchor maps" in the module docs): the
    /// thread's greatest live local anchor `<= key` if it covers the key,
    /// else a search that jumps in from that anchor's tower; a head descent
    /// only when the thread knows nothing at or below the key (or its slot
    /// is busy). A search teaches the slot the sampled anchors it shows.
    /// `None` only when the map holds no data nodes at all. Caller must
    /// hold a pin.
    ///
    /// Keys below a local anchor's own key never resolve to it (the map
    /// order guarantees `anchor.key <= key`), and a closer anchor can only
    /// appear above a covering one by a split of that very block — splits
    /// freeze first, so the operation's own frozen check closes the window
    /// between this resolution and its use.
    fn resolve(&self, key: &K, ctx: &ThreadCtx) -> Option<NonNull<BNode<K>>> {
        let mut local = self.local(ctx);
        let start = match local.as_mut().and_then(|l| l.floor(key)) {
            // SAFETY: `succ` was read from a live anchor under the caller's pin.
            Some((anchor, succ)) if unsafe { &*succ }.cmp_key(key) == CmpOrdering::Greater => {
                // One node inspected instead of a search (counted as a
                // one-node search, like an index fast-path hit).
                ctx.record_anchor_hit();
                ctx.record_search(1);
                ctx.record_hinted_search(1);
                return Some(anchor);
            }
            start => start.map(|(anchor, _)| anchor),
        };
        let (found, sampled_pred) = self.covering_anchor(key, start, ctx);
        if let Some(local) = local.as_mut() {
            // What the search shows that the thread did not start from: its
            // predecessor at the sampling level — the closest sampled
            // anchor below `key` on the lists it walked — and, where it
            // had to come down from a head, the anchor it landed on.
            let passed = NonNull::new(sampled_pred)
                .filter(|p| Some(*p) != start && unsafe { p.as_ref() }.is_data());
            let landed = found.filter(|a| {
                start.is_none() && unsafe { a.as_ref() }.top_level() as usize >= self.sample_level()
            });
            for shown in [passed, landed].into_iter().flatten() {
                local.record(shown);
            }
        }
        found
    }

    /// [`Self::resolve`] for the paths that only read the block — point
    /// lookups and scan starts. The two differ in the bug-injection build
    /// alone.
    ///
    /// Injected bug (`--features bug-injection`, `anchor_blocked_sg` lane:
    /// non-default merge threshold, so each stress lane carries exactly
    /// one live fault): trust the local anchor *without* the covering
    /// check. A read through a live anchor whose key range moved to a
    /// split-off sibling the thread has never seen then scans the wrong
    /// block and reports a present key absent: the stale miss the
    /// deterministic wall must catch. Reads only — a severed write would
    /// publish outside the coverage invariant and corrupt the level-0
    /// order itself, turning the detectable lie into a structural
    /// livelock.
    #[inline]
    fn resolve_read(&self, key: &K, ctx: &ThreadCtx) -> Option<NonNull<BNode<K>>> {
        #[cfg(feature = "bug-injection")]
        if self.policy.merge_threshold > 0 {
            if let Some((anchor, _)) = self.local(ctx).and_then(|mut l| l.floor(key)) {
                return Some(anchor);
            }
        }
        self.resolve(key, ctx)
    }

    /// The search behind [`Self::resolve`]: jumps in from `start`, a live
    /// anchor with key `<= key`, or descends from the head. Returns the
    /// block responsible for `key` and the search's predecessor at the
    /// sampling level (null where the search entered below that level).
    fn covering_anchor(
        &self,
        key: &K,
        start: Option<NonNull<BNode<K>>>,
        ctx: &ThreadCtx,
    ) -> (Option<NonNull<BNode<K>>>, BPtr<K>) {
        let mvec = self.graph.membership_of(ctx.id());
        let res = self
            .graph
            .search_from(key, mvec, start.map(NonNull::as_ptr), false, ctx);
        let sampled_pred = res.preds[self.sample_level()];
        (self.covering_of(&res, key, mvec, ctx), sampled_pred)
    }

    /// The block responsible for `key` right now, given a search for it:
    /// the last data anchor with key `<= key` on the raw level-0 chain
    /// (marked anchors included — a frozen block still owns its keys until
    /// replaced), or the first data anchor when every anchor key exceeds
    /// `key` (the first block covers `-inf`). `None` only when the map
    /// holds no data nodes at all.
    fn covering_of(
        &self,
        res: &BSearch<K>,
        key: &K,
        mvec: u32,
        ctx: &ThreadCtx,
    ) -> Option<NonNull<BNode<K>>> {
        if res.found {
            return NonNull::new(res.succs[0]);
        }
        let mut best: Option<NonNull<BNode<K>>> = None;
        let mut cur = res.preds[0];
        if cur.is_null() {
            cur = self.graph.head(0, mvec);
        }
        loop {
            let node = unsafe { &*cur };
            match node.cmp_key(key) {
                CmpOrdering::Greater => break,
                _ => {
                    if node.is_data() {
                        best = Some(unsafe { NonNull::new_unchecked(cur) });
                    }
                }
            }
            let next = node.load_next(0, ctx).ptr();
            if next.is_null() {
                break;
            }
            cur = next;
        }
        if best.is_some() {
            return best;
        }
        // Every anchor key exceeds `key`: the first data anchor (live or
        // dying) covers it.
        let mut cur = self.graph.head(0, mvec);
        loop {
            let node = unsafe { &*cur };
            if node.is_tail() {
                return None;
            }
            if node.is_data() {
                return Some(unsafe { NonNull::new_unchecked(cur) });
            }
            cur = node.load_next(0, ctx).ptr();
        }
    }

    /// Helps every dying data anchor on a marked level-0 chain
    /// (exclusive of `end`). In the blocked map a marked data node is
    /// always frozen — marking only ever happens inside [`Self::help_split`].
    fn help_marked_chain(&self, first: BPtr<K>, end: BPtr<K>, ctx: &ThreadCtx) {
        let mut cur = first;
        while cur != end && !cur.is_null() {
            let node = unsafe { &*cur };
            if node.is_data() {
                self.help_split(unsafe { NonNull::new_unchecked(cur) }, ctx);
            }
            cur = node.load_next_raw(0).ptr();
        }
    }

    /// Creates the map's first anchor, seeded with `(key, value)` already
    /// published in its block; the level-0 link CAS is the insert's
    /// linearization point. Only succeeds while the bottom list is
    /// completely empty — any concurrent anchor makes this return `false`
    /// so the caller re-resolves coverage. Never substitutes a marked
    /// chain: snipping a frozen anchor here would race its pending
    /// replacement, so frozen residue is helped out of the way instead.
    fn link_anchor(&self, key: K, value: V, ctx: &ThreadCtx) -> bool {
        let mvec = self.graph.membership_of(ctx.id());
        let mut pending: Option<NonNull<BNode<K>>> = None;
        let linked = loop {
            let mut res = self.graph.search_from(&key, mvec, None, false, ctx);
            let succ = res.succs[0];
            if res.found
                || !unsafe { &*res.preds[0] }.is_head()
                || !unsafe { &*succ }.is_tail()
            {
                break false; // map is no longer empty: insert via coverage
            }
            let m0 = res.middles[0];
            if m0.ptr() != succ {
                self.help_marked_chain(m0.ptr(), succ, ctx);
                continue;
            }
            let node = match pending {
                Some(n) => n,
                None => {
                    let n = self.graph.alloc_node(key, (), ctx, self.anchor_height());
                    let blk = unsafe { self.blk(n) };
                    unsafe { blk.write(0, (key, value)) };
                    blk.control()
                        .store(present_bit(0) | claimed_bit(0) | (1 << PREFIX_SHIFT));
                    pending = Some(n);
                    n
                }
            };
            unsafe { node.as_ref() }.store_next(0, TagPtr::clean(succ));
            let pred = unsafe { &*res.preds[0] };
            if pred
                .cas_next(0, m0, m0.with_ptr(node.as_ptr()), ctx)
                .is_ok()
            {
                pending = None;
                self.graph.link_upper(node, &mut res, ctx, || None);
                self.record_linked(node, ctx);
                break true;
            }
        };
        if let Some(n) = pending {
            self.graph.discard_unpublished(n, ctx);
        }
        linked
    }

    /// Inserts `key -> value`; `false` if the key was present.
    pub fn insert(&self, key: K, value: V, ctx: &ThreadCtx) -> bool
    where
        V: PartialEq,
    {
        let _pin = self.graph.pin(ctx);
        loop {
            let Some(anchor) = self.resolve(&key, ctx) else {
                if self.link_anchor(key, value, ctx) {
                    return true;
                }
                continue;
            };
            let blk = unsafe { self.blk(anchor) };
            // Claim phase: reserve an unclaimed slot, or freeze a full
            // block and help replace it.
            let mut w = blk.control().load();
            let slot = loop {
                if is_frozen(w) {
                    self.help_split(anchor, ctx);
                    break usize::MAX; // retry from a fresh covering anchor
                }
                // Tombstone reuse: a re-insert of a removed (key, value)
                // pair resurrects its slot in place — one CAS turns the
                // present bit back on without consuming a fresh slot.
                // The bytes never change (equality is checked first), so
                // no reader can observe a torn entry; succeeding against
                // an unfrozen word linearizes the insert exactly like the
                // ordinary publish CAS (coverage invariant).
                if tomb_bits(w) != 0 {
                    if let Some(i) = self.scan_tomb(&blk, w, &key, &value) {
                        if self.scan_present(&blk, w, &key).is_some() {
                            // Duplicate (linearized at the load of `w`).
                            return false;
                        }
                        match blk
                            .control()
                            .compare_exchange(w, (w & !tomb_bit(i)) | present_bit(i))
                        {
                            Ok(_) => return true,
                            Err(cur) => {
                                w = cur;
                                continue;
                            }
                        }
                    }
                }
                let free = !claimed_bits(w) & slot_mask(self.cap);
                if free == 0 {
                    match blk.control().compare_exchange(w, w | FROZEN) {
                        Ok(_) => {
                            self.help_split(anchor, ctx);
                            break usize::MAX;
                        }
                        Err(cur) => {
                            w = cur;
                            continue;
                        }
                    }
                }
                let i = free.trailing_zeros() as usize;
                match blk.control().compare_exchange(w, w | claimed_bit(i)) {
                    Ok(_) => break i,
                    Err(cur) => w = cur,
                }
            };
            if slot == usize::MAX {
                continue;
            }
            // The slot is exclusively ours: write the pair, then publish.
            unsafe { blk.write(slot, (key, value)) };
            let mut w = blk.control().load();
            loop {
                if is_frozen(w) {
                    // The block froze between claim and publish; the claim
                    // dies with it (survivor sets read present bits only).
                    //
                    // Injected bug (default policy only, so each stress
                    // lane carries exactly one live fault): skip the
                    // post-split recheck and report success for an entry
                    // that never became present — the lost-insert window
                    // the differential test wall must catch.
                    #[cfg(feature = "bug-injection")]
                    if self.policy.merge_threshold == 0 {
                        return true;
                    }
                    self.help_split(anchor, ctx);
                    break;
                }
                if let Some(i) = self.scan_present(&blk, w, &key) {
                    debug_assert_ne!(i, slot);
                    // Duplicate: linearized at the load of `w`. Return the
                    // claim so the slot can serve a later writer.
                    loop {
                        if is_frozen(w) {
                            break;
                        }
                        match blk.control().compare_exchange(w, w & !claimed_bit(slot)) {
                            Ok(_) => break,
                            Err(cur) => w = cur,
                        }
                    }
                    return false;
                }
                // Publish: succeeding against an unfrozen word proves the
                // block still covers `key` (coverage invariant), so this
                // CAS linearizes the insert.
                match blk.control().compare_exchange(w, w | present_bit(slot)) {
                    Ok(_) => return true,
                    Err(cur) => w = cur,
                }
            }
        }
    }

    /// Removes `key`; `false` if it was absent.
    pub fn remove(&self, key: &K, ctx: &ThreadCtx) -> bool {
        let _pin = self.graph.pin(ctx);
        loop {
            let Some(anchor) = self.resolve(key, ctx) else {
                return false;
            };
            let blk = unsafe { self.blk(anchor) };
            let mut w = blk.control().load();
            loop {
                if is_frozen(w) {
                    self.help_split(anchor, ctx);
                    break; // retry from a fresh covering anchor
                }
                let Some(i) = self.scan_present(&blk, w, key) else {
                    return false; // linearized at the load of `w`
                };
                // Tombstone: clear the present bit, set the tombstone bit,
                // keep the claim (slots are write-once; the key stays
                // readable forever, and a same-pair re-insert may
                // resurrect the slot).
                let tombed = (w & !present_bit(i)) | tomb_bit(i);
                match blk.control().compare_exchange(w, tombed) {
                    Ok(_) => {
                        let now = tombed;
                        let live = present_bits(now).count_ones() as usize;
                        let clogged = live <= self.policy.merge_threshold
                            && !claimed_bits(now) & slot_mask(self.cap) == 0;
                        if live == 0 || clogged {
                            // Emptied the block (unlink it via the merge
                            // path), or tombstones clogged every slot with
                            // few survivors left (freeze so help_split
                            // compacts them into a fresh block with free
                            // slots — the policy's merge threshold).
                            // Losing this CAS means a writer claimed a slot
                            // (or froze it first) — either way, not ours.
                            if blk.control().compare_exchange(now, now | FROZEN).is_ok() {
                                self.help_split(anchor, ctx);
                            }
                        }
                        return true;
                    }
                    Err(cur) => w = cur,
                }
            }
        }
    }

    /// Looks up `key`, returning its value.
    pub fn get(&self, key: &K, ctx: &ThreadCtx) -> Option<V> {
        let _pin = self.graph.pin(ctx);
        loop {
            let anchor = self.resolve_read(key, ctx)?;
            let blk = unsafe { self.blk(anchor) };
            let w = blk.control().load();
            if is_frozen(w) {
                // A frozen snapshot is not linearizable for point reads
                // (the replacement may already hold newer entries): help
                // the split along and retry on the live block.
                self.help_split(anchor, ctx);
                continue;
            }
            // Fast path: probe the sorted prefix laid down when the block
            // was built, then one equality check decides the outcome.
            let n = prefix_len(w);
            if n > 0 {
                if let Some(base) = Self::prefix_probe(&blk, n, key) {
                    if unsafe { blk.key_at(base) } == *key && w & present_bit(base) != 0 {
                        return Some(unsafe { blk.read(base) }.1);
                    }
                }
                // Absent from the prefix, or tombstoned there; a
                // re-insert may still sit in the unsorted tail.
            }
            // Slow path: linear scan of the append region.
            for i in n..self.cap {
                if w & present_bit(i) != 0 && unsafe { blk.key_at(i) } == *key {
                    return Some(unsafe { blk.read(i) }.1);
                }
            }
            return None;
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K, ctx: &ThreadCtx) -> bool {
        self.get(key, ctx).is_some()
    }

    /// Position of the greatest sorted-prefix key `<= key` (the only slot
    /// that can hold `key`), or `None` when every prefix key exceeds it.
    ///
    /// Branch-free binary search — the halving loop has no
    /// data-dependent branch (the select compiles to a cmov), so the
    /// branch predictor never trains on key order.
    #[inline]
    fn prefix_probe(blk: &Blk<K, V>, n: usize, key: &K) -> Option<usize> {
        let (mut base, mut size) = (0usize, n);
        while size > 1 {
            let half = size / 2;
            let probe = base + half;
            base = if unsafe { blk.key_at(probe) } <= *key {
                probe
            } else {
                base
            };
            size -= half;
        }
        (unsafe { blk.key_at(0) } <= *key).then_some(base)
    }

    /// Index of the tombstoned slot holding exactly `(key, value)` under
    /// control word `w` — the resurrection candidate. Value equality is
    /// part of the contract: resurrecting flips bits only, so the slot
    /// bytes must already be the pair being inserted.
    fn scan_tomb(&self, blk: &Blk<K, V>, w: usize, key: &K, value: &V) -> Option<usize>
    where
        V: PartialEq,
    {
        (0..self.cap).find(|&i| {
            w & tomb_bit(i) != 0
                && unsafe { blk.key_at(i) } == *key
                && unsafe { blk.read(i) }.1 == *value
        })
    }

    /// Index of the present slot holding `key` under control word `w`.
    fn scan_present(&self, blk: &Blk<K, V>, w: usize, key: &K) -> Option<usize> {
        (0..self.cap)
            .find(|&i| w & present_bit(i) != 0 && unsafe { blk.key_at(i) } == *key)
    }

    /// Builds a replacement block holding `entries` (sorted, nonempty),
    /// its level-0 reference already pointing at `next`. The node is
    /// unpublished until an install CAS makes it reachable.
    fn build_block(
        &self,
        entries: &[(K, V)],
        next: TagPtr<BNode<K>>,
        ctx: &ThreadCtx,
    ) -> NonNull<BNode<K>> {
        let n = entries.len();
        debug_assert!(n >= 1 && n <= self.cap);
        let node = self
            .graph
            .alloc_node(entries[0].0, (), ctx, self.anchor_height());
        let blk = unsafe { self.blk(node) };
        for (i, e) in entries.iter().enumerate() {
            unsafe { blk.write(i, *e) };
        }
        let m = slot_mask(n);
        blk.control()
            .store(m | (m << CLAIMED_SHIFT) | (n << PREFIX_SHIFT));
        unsafe { node.as_ref() }.store_next(0, next);
        node
    }

    /// A frozen block's survivors, sorted, in the caller's stack buffer:
    /// present bits are immutable once frozen, so all helpers agree on it.
    fn survivors<'b>(
        &self,
        blk: &Blk<K, V>,
        frozen_w: usize,
        buf: &'b mut [MaybeUninit<(K, V)>; MAX_BLOCK_CAP],
    ) -> &'b [(K, V)] {
        let mut n = 0;
        for i in (0..self.cap).filter(|&i| frozen_w & present_bit(i) != 0) {
            buf[n].write(unsafe { blk.read(i) });
            n += 1;
        }
        // SAFETY: present slots are published for good; `buf[..n]` was just written.
        let live = unsafe { &mut *(&mut buf[..n] as *mut [MaybeUninit<(K, V)>] as *mut [(K, V)]) };
        live.sort_unstable_by_key(|e| e.0);
        live
    }

    /// Replaces (or, with no survivors, unlinks) a frozen block.
    /// Idempotent: every thread that observes the frozen bit runs this to
    /// completion; CAS losers simply observe the winner's progress.
    ///
    /// One descent is the record of a split: after the marks, a search
    /// for the dead anchor's own key over its own membership vector yields
    /// the frontier around it, where the install, [`Self::unlink_upper`]
    /// and [`Self::link_replacement`] start — never at a list head. A stale
    /// entry (predecessor retired, reference marked, CAS lost) re-descends.
    fn help_split(&self, anchor: NonNull<BNode<K>>, ctx: &ThreadCtx) {
        let f = unsafe { anchor.as_ref() };
        let blk = unsafe { self.blk(anchor) };
        let frozen_w = blk.control().load();
        debug_assert!(is_frozen(frozen_w), "help_split on a live block");

        // (a) The survivor set, identical in every helper.
        let mut buf = [MaybeUninit::uninit(); MAX_BLOCK_CAP];
        let survivors = self.survivors(&blk, frozen_w, &mut buf);

        // (b) Mark the tower top-down, then level 0; after the level-0
        // mark the anchor's successor is stable.
        let top = f.top_level() as usize;
        for level in (1..=top).rev() {
            self.graph.help_mark(f, level, ctx);
        }
        self.graph.help_mark(f, 0, ctx);
        let succ0 = f.load_next_raw(0).ptr();

        // (c) Resolve the canonical replacement through the forward word:
        // first publisher wins, losers free their never-published builds.
        // *Every* outcome goes through the word — a merge (no survivors)
        // claims it with [`MERGED`].
        let replacement: Option<NonNull<BNode<K>>> = {
            let fwd = blk.forward().load();
            if fwd > MERGED {
                Some(unsafe { NonNull::new_unchecked(fwd as BPtr<K>) })
            } else if fwd == MERGED {
                None // merge decided: the install is a plain unlink
            } else if survivors.is_empty() {
                match blk.forward().compare_exchange(0, MERGED) {
                    Ok(_) => None,
                    Err(winner) => {
                        (winner > MERGED).then(|| unsafe { NonNull::new_unchecked(winner as BPtr<K>) })
                    }
                }
            } else {
                let tail = TagPtr::clean(succ0);
                let (n1, n2) = if survivors.len() > self.cap / 2 {
                    let mid = self.policy.split_point(survivors.len());
                    let second = self.build_block(&survivors[mid..], tail, ctx);
                    let first = self.build_block(
                        &survivors[..mid],
                        TagPtr::clean(second.as_ptr()),
                        ctx,
                    );
                    (first, Some(second))
                } else {
                    (self.build_block(survivors, tail, ctx), None)
                };
                match blk.forward().compare_exchange(0, n1.as_ptr() as usize) {
                    Ok(_) => Some(n1),
                    Err(winner) => {
                        self.graph.discard_unpublished(n1, ctx);
                        if let Some(n2) = n2 {
                            self.graph.discard_unpublished(n2, ctx);
                        }
                        (winner > MERGED).then(|| unsafe { NonNull::new_unchecked(winner as BPtr<K>) })
                    }
                }
            }
        };
        let target = replacement.map_or(succ0, NonNull::as_ptr);

        // (d) Descend once, then install: swing the level-0 reference
        // naming the frozen anchor (`preds[0]`'s, or a dying anchor's on
        // the chain behind it) to the replacement chain, or straight to
        // the successor for a merge. Exactly one CAS succeeds; that winner
        // owns the post-install duties.
        let key = unsafe { f.key() };
        let descend = || self.graph.search_from(key, f.mvec(), None, false, ctx);
        let mut res = descend();
        let won_install = 'install: loop {
            let Some(mut p) = self.graph.carried_pred(&res, 0) else {
                res = descend();
                continue;
            };
            loop {
                let pred = unsafe { &*p };
                let w0 = pred.load_next(0, ctx);
                if w0.ptr() == anchor.as_ptr() {
                    if w0.marked() {
                        // The predecessor is itself a dying frozen anchor;
                        // its replacement will take over the reference to
                        // us, so help it first and descend again.
                        debug_assert!(pred.is_data());
                        self.help_split(unsafe { NonNull::new_unchecked(p) }, ctx);
                    } else if pred.cas_next(0, w0, w0.with_ptr(target), ctx).is_ok() {
                        break 'install true;
                    }
                    res = descend();
                    continue 'install;
                }
                // SAFETY: non-null, reached under our pin. The tail is greater than any key.
                if w0.ptr().is_null() || unsafe { &*w0.ptr() }.cmp_key(key).is_gt() {
                    break 'install false; // already installed by another helper
                }
                p = w0.ptr();
            }
        };

        if !won_install {
            // The install is already decided, but the winner may still be
            // mid-duties (or parked by the scheduler). Finishing the
            // upper-level unlink here keeps every helper independently
            // live: a frozen anchor left on upper levels keeps covering
            // searches landing on it, since its own `next0` bypasses the
            // replacement chain.
            self.unlink_upper(anchor, &mut res, ctx);
            return;
        }

        // (e) Winner duties. The dead anchor's generation must move so
        // cached block hints go stale: retirement bumps it when
        // reclamation is on; bump directly otherwise.
        if !self.graph.reclaim.enabled() {
            f.bump_generation();
        }
        self.graph.note_unlinked_chain(anchor.as_ptr(), succ0, 0, ctx);
        self.unlink_upper(anchor, &mut res, ctx);

        // The install winner links the replacement *chain* — one or two
        // blocks — upward. The chain is recovered by walking level-0
        // references from the canonical first block. By the time we walk, a
        // reference may already name a chain block's *own* replacement
        // (it can fill and split the moment the install lands), whose
        // installer is linking it concurrently; `link_replacement`
        // tolerates the duplicate. The walk ends at the frozen block's old
        // successor (or its stand-in: any non-data node, marked reference,
        // or key at/above the old successor's). A marked reference means
        // the chain block itself is already dying; its replacement's
        // installer owns everything past it, so the walk stops —
        // best-effort, the descent still finds unlinked blocks.
        if let Some(n1) = replacement {
            let succ_key: Option<K> = {
                let s = unsafe { &*succ0 };
                s.is_data().then(|| *unsafe { s.key() })
            };
            let mut cur = n1;
            loop {
                let w = unsafe { cur.as_ref() }.load_next_raw(0);
                self.link_replacement(cur, f.mvec(), &mut res, ctx);
                self.record_linked(cur, ctx);
                if w.marked() || w.ptr().is_null() || w.ptr() == succ0 {
                    break;
                }
                let next = unsafe { &*w.ptr() };
                if !next.is_data()
                    || succ_key.is_some_and(|s| next.cmp_key(&s) != CmpOrdering::Less)
                {
                    break;
                }
                cur = unsafe { NonNull::new_unchecked(w.ptr()) };
            }
        }
    }

    /// Links a freshly installed replacement block at its upper tower
    /// levels (best effort: if the block died or was superseded already,
    /// skip it) through the split's frontier `res`, then moves the frontier
    /// past it: the chain's next block follows its left neighbour without
    /// a search. An entry is only *tried* — the link CAS fails unless the
    /// list still reads as `res` says, and `link_upper` then descends
    /// afresh. What no CAS checks is checked here, else the block pays its
    /// own descent: it joins the frontier's lists (`alloc_node` stamps the
    /// *builder's* vector), nobody began linking it (a chain block that
    /// already split hands the walk its own replacement), and `res`
    /// brackets its key (a first block's replacement may undercut the dead
    /// anchor's; a descent after the install may stop at a younger block).
    fn link_replacement(
        &self,
        node: NonNull<BNode<K>>,
        dead_mvec: u32,
        res: &mut BSearch<K>,
        ctx: &ThreadCtx,
    ) {
        let n = unsafe { node.as_ref() };
        let top = n.top_level() as usize;
        if top == 0 {
            return; // height 0 is born `inserted` (`Node::new_data`)
        }
        let key = unsafe { n.key() };
        // SAFETY: a full descent leaves no entry null, and the caller's pin covers them.
        let carried = n.mvec() == dead_mvec
            && n.load_next_raw(1).ptr().is_null()
            && (1..=top).all(|l| unsafe {
                (*res.preds[l]).cmp_key(key).is_lt() && (*res.succs[l]).cmp_key(key).is_ge()
            });
        if !carried {
            // An empty result makes `link_upper` search for the block itself.
            self.graph.link_upper(node, &mut SearchResult::empty(), ctx, || None);
        } else if self.graph.link_upper(node, res, ctx, || None) {
            // (Where `link_upper` searched again, `succs[l]` names the block.)
            for l in (1..=top).filter(|&l| res.succs[l] != node.as_ptr()) {
                res.preds[l] = node.as_ptr();
                res.middles[l] = TagPtr::clean(res.succs[l]); // as `link_upper` wrote it
            }
        }
    }

    /// Physically unlinks a dead anchor from levels `1..=top` of its
    /// associated list. Per level: walk from the predecessor the split's
    /// frontier `res` carries, excising *every* dying anchor encountered
    /// on the way (their marked references are frozen, so the splice
    /// target is stable); if the anchor is not found the level was never
    /// linked or already unlinked — give up (the safe leak mirrors
    /// `link_upper`'s abort path). Excising dead predecessors ourselves
    /// instead of helping their own splits is what keeps this loop live:
    /// two dying anchors that are each other's upper-level predecessors
    /// would otherwise spin forever, since a helper whose install CAS is
    /// already decided never reaches the other's unlink duties. Only a
    /// thread's own successful CAS reports the unlink, so retirement
    /// accounting never double-counts. A carried predecessor that was
    /// retired or died, or a lost splice, re-descends; a splice of the
    /// carried reference is written back, so `res` stays a true search
    /// result for `link_replacement`.
    fn unlink_upper(&self, anchor: NonNull<BNode<K>>, res: &mut BSearch<K>, ctx: &ThreadCtx) {
        let f = unsafe { anchor.as_ref() };
        let key = unsafe { f.key() };
        let descend = || self.graph.search_from(key, f.mvec(), None, false, ctx);
        for level in 1..=f.top_level() as usize {
            // The anchor is fully marked, so its level reference is frozen.
            debug_assert!(f.load_next_raw(level).marked());
            'level: loop {
                let Some(mut p) = self.graph.carried_pred(res, level) else {
                    *res = descend();
                    continue;
                };
                loop {
                    let pred = unsafe { &*p };
                    let w = pred.load_next(level, ctx);
                    if w.ptr().is_null() {
                        break 'level;
                    }
                    if w.marked() {
                        // `pred` died under our feet; a fresh descent stops
                        // before it, so the next pass excises it first.
                        *res = descend();
                        continue 'level;
                    }
                    let nref = unsafe { &*w.ptr() };
                    if nref.is_tail() || nref.cmp_key(key) == CmpOrdering::Greater {
                        break 'level; // not on this level (anymore)
                    }
                    let nw = nref.load_next_raw(level);
                    if nref.is_data() && nw.marked() {
                        // A dying anchor (ours or another's): its marked
                        // reference is frozen, so splice it out here.
                        if pred.cas_next(level, w, w.with_ptr(nw.ptr()), ctx).is_err() {
                            *res = descend();
                            continue 'level;
                        }
                        self.graph.note_unlinked_chain(w.ptr(), nw.ptr(), level, ctx);
                        if p == res.preds[level] && w == res.middles[level] {
                            // The rest of that frozen chain still ends at `succs[level]`.
                            res.middles[level] = w.with_ptr(nw.ptr());
                        }
                        if w.ptr() == anchor.as_ptr() {
                            break 'level;
                        }
                        continue; // keep walking from `pred`
                    }
                    p = w.ptr();
                }
            }
        }
    }

    /// Live entry count (a weak snapshot, like [`SkipGraph::len`]).
    pub fn len(&self, ctx: &ThreadCtx) -> usize {
        self.stats(ctx).entries
    }

    /// Whether the map holds no live entries.
    pub fn is_empty(&self, ctx: &ThreadCtx) -> bool {
        self.len(ctx) == 0
    }

    /// Footprint snapshot: anchors, entries, and bytes per live key.
    pub fn stats(&self, ctx: &ThreadCtx) -> BlockedStats {
        let _pin = self.graph.pin(ctx);
        let mut anchors = 0usize;
        let mut entries = 0usize;
        let mut cur = self.graph.head(0, 0);
        loop {
            let node = unsafe { &*cur };
            if node.is_tail() {
                break;
            }
            let w0 = node.load_next(0, ctx);
            if node.is_data() && !w0.marked() {
                anchors += 1;
                let blk = unsafe { self.blk(NonNull::new_unchecked(cur)) };
                entries += present_bits(blk.control().load()).count_ones() as usize;
            }
            cur = w0.ptr();
        }
        let allocated_bytes = self.graph.memory_stats(ctx).allocated_bytes;
        let local_entries: usize = self
            .local
            .iter()
            .map(|slot| slot.0.try_lock().map_or(0, |l| l.map.len()))
            .sum();
        BlockedStats {
            anchors,
            entries,
            allocated_bytes,
            bytes_per_key: if entries == 0 {
                0.0
            } else {
                allocated_bytes as f64 / entries as f64
            },
            local_entries,
            local_bytes: local_entries * std::mem::size_of::<(K, NodeRef<K, ()>)>() * 2,
        }
    }

    /// Quiescent structural check for tests: inner graph invariants, plus
    /// the blocked layer's own — strictly ascending anchor keys, coverage
    /// (non-first blocks hold no key below their anchor, no block holds a
    /// key at or above its successor anchor), no frozen residue, and no
    /// duplicate keys across blocks.
    pub fn check_invariants(&self, ctx: &ThreadCtx) -> Result<(), String>
    where
        K: std::fmt::Debug,
    {
        self.graph.check_invariants()?;
        let _pin = self.graph.pin(ctx);
        let mut last_anchor: Option<K> = None;
        let mut last_key: Option<K> = None;
        let mut first_block = true;
        let mut cur = self.graph.head(0, 0);
        loop {
            let node = unsafe { &*cur };
            if node.is_tail() {
                return Ok(());
            }
            let w0 = node.load_next(0, ctx);
            if node.is_data() {
                if w0.marked() {
                    return Err(format!(
                        "marked anchor {:?} still linked at quiescence",
                        unsafe { node.key() }
                    ));
                }
                let anchor_key = *unsafe { node.key() };
                if last_anchor.is_some_and(|a| a >= anchor_key) {
                    return Err(format!("anchor keys not ascending at {anchor_key:?}"));
                }
                last_anchor = Some(anchor_key);
                let blk = unsafe { self.blk(NonNull::new_unchecked(cur)) };
                let w = blk.control().load();
                if is_frozen(w) {
                    return Err(format!("frozen block {anchor_key:?} at quiescence"));
                }
                if present_bits(w) & !claimed_bits(w) != 0 {
                    return Err(format!("present-but-unclaimed slot in {anchor_key:?}"));
                }
                if tomb_bits(w) & !claimed_bits(w) != 0 {
                    return Err(format!("tombstone on unclaimed slot in {anchor_key:?}"));
                }
                if tomb_bits(w) & present_bits(w) != 0 {
                    return Err(format!("slot both present and tombstoned in {anchor_key:?}"));
                }
                let succ_key: Option<K> = {
                    let s = unsafe { &*w0.ptr() };
                    s.is_data().then(|| *unsafe { s.key() })
                };
                let mut keys: Vec<K> = (0..self.cap)
                    .filter(|&i| w & present_bit(i) != 0)
                    .map(|i| unsafe { blk.key_at(i) })
                    .collect();
                keys.sort_unstable();
                for k in keys {
                    if !first_block && k < anchor_key {
                        return Err(format!("{k:?} below its anchor {anchor_key:?}"));
                    }
                    if succ_key.is_some_and(|s| k >= s) {
                        return Err(format!("{k:?} not below successor anchor"));
                    }
                    if last_key.is_some_and(|p| p >= k) {
                        return Err(format!("duplicate or unordered key {k:?}"));
                    }
                    last_key = Some(k);
                }
                first_block = false;
            }
            cur = w0.ptr();
        }
    }
}

/// Per-thread handle for a [`BlockedSkipMap`]: carries the thread's
/// recording context. The thread's *local anchor map* — the blocked
/// analogue of the layered design's per-thread local structures — is kept
/// by the map under the context's id (see the module docs), so point
/// operations and scans through a handle and through the map with the same
/// context resolve alike, and a handle registered again for the same id
/// finds the slot as its predecessor left it.
pub struct BlockedHandle<'g, K, V> {
    map: &'g BlockedSkipMap<K, V>,
    ctx: ThreadCtx,
}

impl<'g, K, V> BlockedHandle<'g, K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// The recording context of this thread.
    pub fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    /// Inserts `key -> value`; `false` if the key was present.
    pub fn insert(&mut self, key: K, value: V) -> bool
    where
        V: PartialEq,
    {
        self.ctx.record_op();
        self.map.insert(key, value, &self.ctx)
    }

    /// Removes `key`; `false` if it was absent.
    pub fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        self.map.remove(key, &self.ctx)
    }

    /// Looks up `key`, returning its value.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.ctx.record_op();
        self.map.get(key, &self.ctx)
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Scans live entries with keys in the range given by the bounds,
    /// ascending: [`BlockedSkipMap::range`] with this handle's context.
    pub fn range(&self, start: Bound<&K>, end: Bound<K>) -> BlockedRangeIter<'_, K, V> {
        self.map.range(start, end, &self.ctx)
    }
}

impl<K, V> BlockedSkipMap<K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// Registers a thread, returning its handle.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.id()` is outside the configured thread range.
    pub fn register(&self, ctx: ThreadCtx) -> BlockedHandle<'_, K, V> {
        assert!(
            (ctx.id() as usize) < self.graph.config().num_threads,
            "thread id out of range"
        );
        BlockedHandle { map: self, ctx }
    }
}

#[inline]
fn before_start<K: Ord>(k: &K, start: &Bound<K>) -> bool {
    match start {
        Bound::Unbounded => false,
        Bound::Included(s) => k < s,
        Bound::Excluded(s) => k <= s,
    }
}

#[inline]
fn beyond_end<K: Ord>(k: &K, end: &Bound<K>) -> bool {
    match end {
        Bound::Unbounded => false,
        Bound::Included(e) => k > e,
        Bound::Excluded(e) => k >= e,
    }
}

/// Ascending iterator over live entries in a key range, by block. Each
/// block is observed once — its control word and level-0 successor are
/// loaded in the same visit — so the scan is a *weak per-block snapshot*:
/// entries inserted into an already-passed block are missed, but no key
/// is yielded twice and the output is strictly ascending even when blocks
/// split or merge mid-scan (a block's entries are bounded by its
/// successor anchor's key at visit time, and replacement blocks are never
/// reachable through the dead block's own successor reference).
///
/// Holds a reclamation pin for its whole lifetime, so passed blocks stay
/// readable.
pub struct BlockedRangeIter<'g, K, V> {
    map: &'g BlockedSkipMap<K, V>,
    ctx: &'g ThreadCtx,
    cur: BPtr<K>,
    start: Bound<K>,
    end: Bound<K>,
    /// High-water mark backing the strict-ascent guarantee.
    last: Option<K>,
    /// Current block's in-range entries, reversed so `pop` ascends.
    buf: Vec<(K, V)>,
    visited: usize,
    _pin: PinGuard<'g, K, ()>,
}

impl<K, V> BlockedSkipMap<K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    /// Scans live entries with keys in the range given by the bounds,
    /// ascending. A bounded scan finds its first block the way a point
    /// operation does: from the calling thread's local anchor map.
    pub fn range<'g>(
        &'g self,
        start: Bound<&K>,
        end: Bound<K>,
        ctx: &'g ThreadCtx,
    ) -> BlockedRangeIter<'g, K, V> {
        let pin = self.graph.pin(ctx);
        let cur = match start {
            Bound::Unbounded => self.graph.head(0, self.graph.membership_of(ctx.id())),
            Bound::Included(k) | Bound::Excluded(k) => self
                .resolve_read(k, ctx)
                .map_or(std::ptr::null_mut(), NonNull::as_ptr),
        };
        BlockedRangeIter {
            map: self,
            ctx,
            cur,
            start: match start {
                Bound::Unbounded => Bound::Unbounded,
                Bound::Included(k) => Bound::Included(*k),
                Bound::Excluded(k) => Bound::Excluded(*k),
            },
            end,
            last: None,
            buf: Vec::with_capacity(self.cap),
            visited: 0,
            _pin: pin,
        }
    }

    /// An unbounded ascending scan.
    pub fn iter<'g>(&'g self, ctx: &'g ThreadCtx) -> BlockedRangeIter<'g, K, V> {
        self.range(Bound::Unbounded, Bound::Unbounded, ctx)
    }

    /// Collects a range scan (convenience for tests and benchmarks).
    pub fn range_to_vec(&self, start: Bound<&K>, end: Bound<K>, ctx: &ThreadCtx) -> Vec<(K, V)> {
        self.range(start, end, ctx).collect()
    }
}

impl<K, V> Iterator for BlockedRangeIter<'_, K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            while let Some(e) = self.buf.pop() {
                if before_start(&e.0, &self.start) {
                    continue;
                }
                if beyond_end(&e.0, &self.end) {
                    self.buf.clear();
                    self.cur = std::ptr::null_mut();
                    return None;
                }
                if self.last.is_some_and(|l| l >= e.0) {
                    continue;
                }
                self.last = Some(e.0);
                return Some(e);
            }
            if self.cur.is_null() {
                return None;
            }
            let node = unsafe { &*self.cur };
            if node.is_tail() {
                self.cur = std::ptr::null_mut();
                return None;
            }
            if node.is_data() {
                // After the first visited block, entries are at or above
                // their anchor key: an out-of-range anchor ends the scan.
                if self.visited > 0 {
                    if let CmpOrdering::Greater | CmpOrdering::Equal = match &self.end {
                        Bound::Unbounded => CmpOrdering::Less,
                        Bound::Included(e) => {
                            if node.cmp_key(e) == CmpOrdering::Greater {
                                CmpOrdering::Greater
                            } else {
                                CmpOrdering::Less
                            }
                        }
                        Bound::Excluded(e) => {
                            if node.cmp_key(e) != CmpOrdering::Less {
                                CmpOrdering::Greater
                            } else {
                                CmpOrdering::Less
                            }
                        }
                    } {
                        self.cur = std::ptr::null_mut();
                        return None;
                    }
                }
                self.visited += 1;
                // The same-visit pair: the entry snapshot is taken no
                // later than the successor reference, which is what keeps
                // the per-block snapshots duplicate-free across a
                // concurrent split (the dead block's own reference never
                // points at its replacements).
                let blk = unsafe { self.map.blk(NonNull::new_unchecked(self.cur)) };
                let w = blk.control().load();
                let next = node.load_next(0, self.ctx).ptr();
                for i in 0..self.map.cap {
                    if w & present_bit(i) != 0 {
                        self.buf.push(unsafe { blk.read(i) });
                    }
                }
                self.buf.sort_unstable_by(|a, b| b.0.cmp(&a.0));
                self.cur = next;
            } else {
                self.cur = node.load_next(0, self.ctx).ptr();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrument::AccessStats;
    use std::collections::BTreeMap;

    fn cfg(threads: usize) -> GraphConfig {
        GraphConfig::new(threads).chunk_capacity(256)
    }

    fn ctx() -> ThreadCtx {
        ThreadCtx::plain(0)
    }

    #[test]
    fn control_word_bit_packing() {
        let w = present_bit(3) | claimed_bit(3) | claimed_bit(7) | (5 << PREFIX_SHIFT);
        assert_eq!(present_bits(w), 0b1000);
        assert_eq!(claimed_bits(w), 0b1000_1000);
        assert_eq!(prefix_len(w), 5);
        assert!(!is_frozen(w));
        assert!(is_frozen(w | FROZEN));
        // The bitmaps and the frozen/prefix fields never overlap.
        assert_eq!(present_bits(FROZEN), 0);
        assert_eq!(claimed_bits(FROZEN), 0);
        assert_eq!(prefix_len(FROZEN), 0);
        assert_eq!(prefix_len(PREFIX_MASK << PREFIX_SHIFT), PREFIX_MASK);
        // Tombstone bitmap: bits 39..55, disjoint from everything else.
        let t = w | tomb_bit(2) | tomb_bit(15);
        assert_eq!(tomb_bits(t), (1 << 2) | (1 << 15));
        assert_eq!(present_bits(t), present_bits(w));
        assert_eq!(claimed_bits(t), claimed_bits(w));
        assert_eq!(prefix_len(t), prefix_len(w));
        assert!(!is_frozen(t));
        assert_eq!(tomb_bits(FROZEN), 0);
        assert_eq!(tomb_bits(PREFIX_MASK << PREFIX_SHIFT), 0);
        assert!(tomb_bit(MAX_BLOCK_CAP - 1) < 1 << 55, "tomb bits fit below bit 55");
    }

    #[test]
    fn tombstone_reuse_absorbs_same_pair_churn() {
        let ctx = ctx();
        let map: BlockedSkipMap<u64, u64> = BlockedSkipMap::new(cfg(1), 4);
        for k in 0..4 {
            assert!(map.insert(k, k * 10, &ctx));
        }
        assert_eq!(map.stats(&ctx).anchors, 1, "four entries fill one block");
        // Windowed same-key churn on a slot-exhausted block: every
        // re-insert must resurrect the tombstoned slot instead of
        // freeze-splitting (the pre-reuse behavior split on the first
        // re-insert because every slot was claimed).
        for _ in 0..64 {
            assert!(map.remove(&2, &ctx));
            assert!(!map.contains(&2, &ctx));
            assert!(map.insert(2, 20, &ctx));
            assert_eq!(map.get(&2, &ctx), Some(20));
        }
        assert_eq!(map.stats(&ctx).anchors, 1, "churn must not split the block");
        map.check_invariants(&ctx).unwrap();

        // A different value cannot resurrect (the bytes would have to
        // change under readers): the insert falls back to the split path
        // and the new pair still lands correctly.
        assert!(map.remove(&2, &ctx));
        assert!(map.insert(2, 999, &ctx));
        assert_eq!(map.get(&2, &ctx), Some(999));
        for k in [0u64, 1, 3] {
            assert_eq!(map.get(&k, &ctx), Some(k * 10));
        }
        map.check_invariants(&ctx).unwrap();
    }

    #[test]
    fn layout_bytes_stay_pointer_aligned() {
        for cap in MIN_BLOCK_CAP..=MAX_BLOCK_CAP {
            assert_eq!(block_layout_bytes::<u64, u64>(cap) % 8, 0);
            assert_eq!(block_layout_bytes::<u32, u8>(cap) % 8, 0);
        }
        assert_eq!(block_layout_bytes::<u64, u64>(4), 16 + 4 * 16);
    }

    #[test]
    fn single_block_insert_get_remove() {
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
        let c = ctx();
        assert!(map.is_empty(&c));
        assert!(map.insert(10, 100, &c));
        assert!(map.insert(5, 50, &c));
        assert!(!map.insert(10, 999, &c), "duplicate insert must fail");
        assert_eq!(map.get(&10, &c), Some(100));
        assert_eq!(map.get(&5, &c), Some(50));
        assert_eq!(map.get(&7, &c), None);
        assert!(map.remove(&10, &c));
        assert!(!map.remove(&10, &c), "double remove must fail");
        assert_eq!(map.get(&10, &c), None);
        assert!(map.contains(&5, &c));
        assert_eq!(map.len(&c), 1);
        map.check_invariants(&c).unwrap();
    }

    #[test]
    fn splits_preserve_entries() {
        const N: u64 = if cfg!(miri) { 24 } else { 200 };
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
        let c = ctx();
        for k in 0..N {
            assert!(map.insert(k, k * 2, &c), "insert {k}");
        }
        for k in 0..N {
            assert_eq!(map.get(&k, &c), Some(k * 2), "lookup {k}");
        }
        let stats = map.stats(&c);
        assert_eq!(stats.entries, N as usize);
        assert!(
            stats.anchors > N as usize / 4 && stats.anchors <= N as usize,
            "blocking factor out of range: {} anchors for {N} keys",
            stats.anchors
        );
        map.check_invariants(&c).unwrap();
    }

    #[test]
    fn merges_unlink_emptied_blocks() {
        const N: u64 = if cfg!(miri) { 16 } else { 64 };
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
        let c = ctx();
        for k in 0..N {
            map.insert(k, k, &c);
        }
        for k in 0..N {
            assert!(map.remove(&k, &c), "remove {k}");
        }
        assert!(map.is_empty(&c));
        assert_eq!(map.stats(&c).anchors, 0, "emptied blocks must unlink");
        map.check_invariants(&c).unwrap();
        // The map stays usable: the next insert recreates a first anchor.
        assert!(map.insert(7, 7, &c));
        assert_eq!(map.get(&7, &c), Some(7));
        map.check_invariants(&c).unwrap();
    }

    #[test]
    fn first_block_covers_keys_below_its_anchor() {
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
        let c = ctx();
        assert!(map.insert(100, 1, &c));
        // Both land in the block anchored at 100 (no anchor <= them).
        assert!(map.insert(50, 2, &c));
        assert!(map.insert(1, 3, &c));
        assert_eq!(map.get(&50, &c), Some(2));
        assert_eq!(map.get(&1, &c), Some(3));
        assert_eq!(map.stats(&c).anchors, 1);
        let keys: Vec<u64> = map.iter(&c).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![1, 50, 100]);
        map.check_invariants(&c).unwrap();
    }

    #[test]
    fn range_bounds_match_btreemap() {
        const N: u64 = if cfg!(miri) { 20 } else { 90 };
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
        let c = ctx();
        let mut model = BTreeMap::new();
        for k in (0..N).map(|i| (i * 7) % N) {
            map.insert(k, k + 1, &c);
            model.insert(k, k + 1);
        }
        for k in (0..N).step_by(3) {
            map.remove(&k, &c);
            model.remove(&k);
        }
        let lo = N / 4;
        let hi = 3 * N / 4;
        let cases: Vec<(Bound<u64>, Bound<u64>)> = vec![
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(lo), Bound::Excluded(hi)),
            (Bound::Excluded(lo), Bound::Included(hi)),
            (Bound::Included(0), Bound::Excluded(0)),
            (Bound::Excluded(N), Bound::Unbounded),
        ];
        for (start, end) in cases {
            let got = map.range_to_vec(start.as_ref(), end, &c);
            let want: Vec<(u64, u64)> = model
                .range((start, end))
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(got, want, "range {start:?}..{end:?}");
        }
    }

    #[test]
    fn iterator_survives_split_mid_scan() {
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 4);
        let c = ctx();
        let original: Vec<u64> = (0..10).map(|i| i * 10).collect();
        for &k in &original {
            map.insert(k, k, &c);
        }
        let c2 = ThreadCtx::plain(0);
        let mut iter = map.iter(&c2);
        let mut seen = vec![iter.next().unwrap().0, iter.next().unwrap().0];
        // Split blocks ahead of the scan position while the iterator is
        // live: the stale successor chain must still reach every
        // pre-existing key exactly once, in order.
        for k in 41..=44 {
            map.insert(k, k, &c);
        }
        for k in 71..=74 {
            map.insert(k, k, &c);
        }
        seen.extend(iter.map(|(k, _)| k));
        let mut ascending = seen.clone();
        ascending.sort_unstable();
        ascending.dedup();
        assert_eq!(seen, ascending, "scan must stay strictly ascending");
        for &k in &original {
            assert!(seen.contains(&k), "pre-existing key {k} lost mid-scan");
        }
        map.check_invariants(&c).unwrap();
    }

    #[test]
    fn sparse_anchor_heights_are_counter_driven() {
        const N: u64 = if cfg!(miri) { 24 } else { 150 };
        let map = BlockedSkipMap::<u64, u64>::new(cfg(4).sparse(true), 4);
        let c = ctx();
        for k in 0..N {
            map.insert(k, k, &c);
        }
        for k in 0..N {
            assert_eq!(map.get(&k, &c), Some(k), "lookup {k}");
        }
        map.check_invariants(&c).unwrap();
    }

    /// Miri regression: the raw in-block slot projection must stay inside
    /// the node allocation's provenance and never alias the control word.
    #[test]
    fn slot_projection_roundtrip() {
        let map = BlockedSkipMap::<u64, u32>::new(cfg(1), MAX_BLOCK_CAP);
        let c = ctx();
        let node = map.graph.alloc_node(42, (), &c, 0);
        let blk = unsafe { map.blk(node) };
        for i in 0..MAX_BLOCK_CAP {
            unsafe { blk.write(i, (i as u64 * 3, i as u32)) };
        }
        blk.control().store(slot_mask(MAX_BLOCK_CAP));
        for i in 0..MAX_BLOCK_CAP {
            assert_eq!(unsafe { blk.read(i) }, (i as u64 * 3, i as u32));
            assert_eq!(unsafe { blk.key_at(i) }, i as u64 * 3);
        }
        assert_eq!(blk.forward().load(), 0, "forward word must start null");
        map.graph.discard_unpublished(node, &c);
    }

    /// Miri regression: the split's survivor copy reads only published
    /// slots of the frozen block and writes fresh allocations.
    #[test]
    fn split_copy_preserves_entries() {
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), MIN_BLOCK_CAP);
        let c = ctx();
        for k in [5u64, 3, 9, 1, 7] {
            assert!(map.insert(k, k * 11, &c));
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(map.get(&k, &c), Some(k * 11));
        }
        assert!(map.stats(&c).anchors >= 2, "cap-2 blocks must have split");
        map.check_invariants(&c).unwrap();
    }

    /// An uncontended split searches once: the install, the upper-level
    /// unlink and the linking of both halves all run on that descent's
    /// frontier (the head-walking protocol paid up to two more descents
    /// inside `link_replacement`).
    #[test]
    fn a_split_descends_once() {
        const TOP: usize = 3;
        let sink = AccessStats::new(1);
        let c = ThreadCtx::recording(0, sink.clone());
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1).max_level(TOP as u8), 4);
        for k in 0..40 {
            assert!(map.insert(k * 10, k, &c));
        }
        // An ascending load leaves two entries per block; a third puts a
        // mid-list block over cap/2, so its split builds two halves.
        assert!(map.insert(205, 0, &c));
        let _pin = map.graph.pin(&c);
        let anchor = map.resolve(&205, &c).unwrap();
        assert_eq!(unsafe { anchor.as_ref() }.top_level() as usize, TOP);
        let blk = unsafe { map.blk(anchor) };
        let w = blk.control().load();
        assert_eq!(present_bits(w).count_ones(), 3);
        blk.control().store(w | FROZEN);

        let before = sink.totals().searches;
        map.help_split(anchor, &c);
        assert_eq!(sink.totals().searches - before, 1);

        let first = blk.forward().load() as BPtr<u64>;
        let second = unsafe { &*first }.load_next_raw(0).ptr();
        let mut top_list = Vec::new();
        let mut cur = unsafe { &*map.graph.head(TOP as u8, 0) }.load_next_raw(TOP);
        while !unsafe { &*cur.ptr() }.is_tail() {
            assert!(!cur.marked());
            top_list.push(cur.ptr());
            cur = unsafe { &*cur.ptr() }.load_next_raw(TOP);
        }
        assert!(!top_list.contains(&anchor.as_ptr()), "dead anchor still linked");
        let at = top_list.iter().position(|&p| p == first).expect("first half linked");
        assert_eq!(top_list.get(at + 1), Some(&second), "second half follows the first");
        drop(_pin);
        map.check_invariants(&c).unwrap();
    }

    /// Miri regression + hint safety: a replaced block's generation moves
    /// (directly, or through retirement) so stale block hints cannot
    /// validate against the dead anchor.
    #[test]
    fn generation_moves_when_block_is_replaced() {
        for reclaim in [false, true] {
            let map = BlockedSkipMap::<u64, u64>::new(cfg(1).reclaim(reclaim), MIN_BLOCK_CAP);
            let c = ctx();
            assert!(map.insert(1, 1, &c));
            assert!(map.insert(2, 2, &c));
            let stale = {
                let _pin = map.graph.pin(&c);
                NodeRef::new(map.resolve(&1, &c).unwrap())
            };
            {
                let _pin = map.graph.pin(&c);
                assert!(stale.node().is_some(), "live anchor must validate");
            }
            // Filling the block freezes and replaces it.
            assert!(map.insert(3, 3, &c));
            let _pin = map.graph.pin(&c);
            let dead = stale.node().is_none()
                || stale.node().is_some_and(|n| n.load_next_raw(0).marked());
            assert!(dead, "stale hint validated against a replaced block (reclaim={reclaim})");
            drop(_pin);
            for k in 1..=3 {
                assert_eq!(map.get(&k, &c), Some(k));
            }
            if reclaim {
                map.graph.reclaim_flush(&c);
            }
            map.check_invariants(&c).unwrap();
        }
    }

    #[test]
    fn stats_report_blocking_gains() {
        const N: u64 = if cfg!(miri) { 24 } else { 160 };
        let fat = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
        let c = ctx();
        for k in 0..N {
            fat.insert(k, k, &c);
        }
        let s = fat.stats(&c);
        assert_eq!(s.entries, N as usize);
        assert!(s.bytes_per_key > 0.0);
        assert!(
            s.anchors < N as usize / 2,
            "cap-8 blocking should use far fewer anchors than keys ({})",
            s.anchors
        );
    }

    #[test]
    fn policy_split_point_math() {
        // Defaults reproduce the historical half split (div_ceil(2)).
        let half = BlockPolicy::default();
        for len in 2..=16 {
            assert_eq!(half.split_point(len), len.div_ceil(2), "len {len}");
        }
        // Left-biased cuts leave the left block fuller; clamping keeps
        // both sides nonempty at every length.
        let left = BlockPolicy {
            split_left_pct: 75,
            ..BlockPolicy::default()
        };
        assert_eq!(left.split_point(8), 6);
        assert_eq!(left.split_point(2), 1);
        let extreme = BlockPolicy {
            split_left_pct: 99,
            ..BlockPolicy::default()
        };
        for len in 2..=16 {
            let cut = extreme.split_point(len);
            assert!(cut >= 1 && cut < len, "len {len} cut {cut}");
        }
        BlockPolicy::default().validate(4);
    }

    #[test]
    #[should_panic(expected = "merge_threshold")]
    fn policy_rejects_threshold_at_capacity() {
        let bad = BlockPolicy {
            merge_threshold: 4,
            ..BlockPolicy::default()
        };
        let _ = BlockedSkipMap::<u64, u64>::with_policy(cfg(1), 4, bad);
    }

    #[test]
    #[should_panic(expected = "BlockedSkipMap with GraphConfig::hash_index(true)")]
    fn a_hash_index_under_blocks_is_rejected() {
        let _ = BlockedSkipMap::<u64, u64>::new(cfg(1).hash_index(true), 4);
    }

    /// A nonzero merge threshold compacts a tombstone-clogged block into a
    /// fresh one with free slots at remove time; the default policy
    /// leaves the clog in place until an insert forces the freeze.
    #[test]
    fn merge_threshold_compacts_clogged_blocks() {
        // Claimed slots of the block covering key 0 (white-box probe).
        let claimed = |map: &BlockedSkipMap<u64, u64>, c: &ThreadCtx| -> u32 {
            let _pin = map.graph.pin(c);
            let a = map.resolve(&0, c).expect("block exists");
            claimed_bits(unsafe { map.blk(a) }.control().load()).count_ones()
        };
        let run = |policy: BlockPolicy| -> u32 {
            let map = BlockedSkipMap::<u64, u64>::with_policy(cfg(1), 4, policy);
            let c = ctx();
            for k in 0..4 {
                assert!(map.insert(k, k, &c));
            }
            assert_eq!(map.stats(&c).anchors, 1);
            // All four slots claimed; tombstone down to two survivors.
            assert!(map.remove(&3, &c));
            assert!(map.remove(&2, &c));
            let clog = claimed(&map, &c);
            // Either way the map stays correct through a refill.
            assert!(map.insert(10, 10, &c));
            assert!(map.insert(11, 11, &c));
            for (k, v) in [(0, 0), (1, 1), (10, 10), (11, 11)] {
                assert_eq!(map.get(&k, &c), Some(v), "policy {policy:?} key {k}");
            }
            map.check_invariants(&c).unwrap();
            clog
        };
        // Compacting policy: the second remove crosses the threshold on a
        // fully-claimed block, so it is rebuilt immediately — the
        // covering block has free slots before any insert arrives.
        let compacting = BlockPolicy {
            merge_threshold: 2,
            ..BlockPolicy::default()
        };
        assert_eq!(run(compacting), 2);
        // Default policy: the tombstones keep every slot claimed.
        assert_eq!(run(BlockPolicy::default()), 4);
    }

    #[test]
    fn prefix_probe_matches_linear_reference() {
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
        let c = ctx();
        for n in 1..=8usize {
            let entries: Vec<(u64, u64)> =
                (0..n as u64).map(|i| (i * 10 + 5, i)).collect();
            // A throwaway block (never installed; arena-backed, so the
            // leak is bounded by the test).
            let node = map.build_block(&entries, TagPtr::null(), &c);
            let blk = unsafe { map.blk(node) };
            for probe in 0..90u64 {
                let want = entries.iter().rposition(|e| e.0 <= probe);
                assert_eq!(
                    BlockedSkipMap::prefix_probe(&blk, n, &probe),
                    want,
                    "n {n} probe {probe}"
                );
            }
        }
    }

    /// A slot's local anchors serve point ops for whole block ranges: a
    /// warmed slot answers out-of-order lookups without fresh descents
    /// (anchor hits recorded), stays correct across the splits the inserts
    /// force, and serves the map's own entry points and a handle
    /// registered later under the same id alike.
    #[test]
    fn local_anchors_serve_whole_block_ranges() {
        const N: u64 = if cfg!(miri) { 24 } else { 100 };
        let sink = AccessStats::new(1);
        let map = BlockedSkipMap::<u64, u64>::new(cfg(1), 8);
        let mut h = map.register(ThreadCtx::recording(0, sink.clone()));
        for k in 0..N {
            assert!(h.insert(k, k));
        }
        let warm = sink.totals().anchor_hits;
        assert!(warm > 0, "sorted inserts must start at a local anchor");
        drop(h);
        let mut h = map.register(ThreadCtx::recording(0, sink.clone()));
        for k in (0..N).rev() {
            assert_eq!(h.get(&k), Some(k), "reverse lookup {k}");
        }
        let reread = sink.totals().anchor_hits;
        assert!(reread >= warm + N, "a new handle must find the slot warm");
        let c = ThreadCtx::recording(0, sink.clone());
        assert_eq!(map.get(&(N / 2), &c), Some(N / 2));
        let from = map.range(Bound::Included(&(N / 2)), Bound::Unbounded, &c);
        assert_eq!(from.count() as u64, N - N / 2);
        assert_eq!(sink.totals().anchor_hits, reread + 2);
        assert!(map.stats(&c).local_entries > 0);
        map.check_invariants(&c).unwrap();
    }

    /// Dead entries a slot never looks at again do not pile up: once the
    /// slot has doubled since its last sweep, every entry whose generation
    /// moved goes.
    #[test]
    fn a_sweep_drops_entries_whose_generation_moved() {
        let n = if cfg!(miri) {
            64
        } else {
            2 * SWEEP_FLOOR as u64
        };
        // `MaxLevel` 0: every anchor is sampled.
        let map = BlockedSkipMap::<u64, u64>::new(cfg(2), 2);
        let (a, b) = (ThreadCtx::plain(0), ThreadCtx::plain(1));
        let held = || map.local[0].0.lock().unwrap().map.len();
        for k in n..2 * n {
            assert!(map.insert(k, k, &a));
        }
        let first = held();
        assert!(first >= map.stats(&a).anchors / 2, "{first} entries");
        // Another thread empties the map, so all of those anchors die, and
        // slot 0 then works below them: eviction on sight never meets one.
        for k in n..2 * n {
            assert!(map.remove(&k, &b));
        }
        for k in 0..n {
            assert!(map.insert(k, k, &a));
        }
        let live = map.stats(&a).anchors;
        if !cfg!(miri) {
            println!("{first} entries, then {} for {live} live anchors", held());
            assert!(
                2 * held() <= 3 * live,
                "{} entries for {live} anchors",
                held()
            );
        }
        for k in 0..n {
            assert_eq!(map.get(&k, &a), Some(k));
        }
        map.check_invariants(&a).unwrap();
    }
}
