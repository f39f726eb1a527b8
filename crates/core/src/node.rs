//! Shared node layout: packed header + height-truncated trailing tower.
//!
//! A shared node is a fixed *header* followed by a trailing tower of
//! exactly `top_level` tagged next-references (levels `1..=top_level`; the
//! level-0 reference lives in the header). Nodes are allocated from
//! per-height size-class arenas ([`crate::graph`]'s `TowerArenas`), so a
//! node pays for precisely the tower it uses instead of embedding a
//! worst-case `[TaggedAtomic; MAX_HEIGHT]` — under the sparse-height
//! configuration the expected tower length is < 1 slot, which more than
//! halves bytes-per-node versus the old inline layout.
//!
//! The header is `#[repr(C)]` with the hot fields first: the level-0
//! next-reference, the tower pointer, then the key (the discriminant every
//! traversal compares). For `Node<u64, u64>` the header is 48 bytes, so a
//! level-0 traversal step — load `next[0]`, compare the key, inspect the
//! packed metadata — touches a single cache line per node (chunk storage is
//! 64-byte aligned; see `numa::arena`).
//!
//! The cold/rare metadata (`kind`, `top_level`, `inserted`) is packed into
//! one atomic byte, and the commission timestamp is truncated to 32 bits
//! (wrap-around can only *delay* retirement by one 2^32-cycle epoch, never
//! trigger it early, because `check_retire` compares the elapsed delta).
//!
//! # Recycling (epoch-based reclamation)
//!
//! Because `skipgraph::reclaim` returns slots to per-size-class free lists
//! and reuses them, the header additionally carries
//!
//! * a **generation counter** (`gen`), bumped when the node is retired:
//!   every raw pointer cached outside the structure (local hint maps, C3
//!   tombstones, `HintChain` frontiers) snapshots the generation at capture
//!   time and re-checks it before dereferencing — a recycled slot fails the
//!   check and the caller falls back to a head search;
//! * an **unlinked bitmask** (`unlinked`), one bit per level, set by
//!   whichever thread physically snips the node out of that level's list.
//!   The thread that completes the mask (observes the last missing bit) is
//!   the unique retirer, so a node enters a limbo list exactly once.

use crate::sync::{TagPtr, TaggedAtomic};
use instrument::ThreadCtx;
use std::cmp::Ordering as CmpOrdering;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

/// Maximum tower height supported. The layered structures use
/// `MaxLevel = ceil(log2 T) - 1`, so 8 levels support up to 2^9 = 512
/// threads. Height `h` nodes (`top_level = h`) occupy the size class with
/// `h` trailing tower slots.
pub const MAX_HEIGHT: usize = 8;

/// What a node is: a per-list head sentinel, a data node, the shared tail
/// sentinel, or a reclaimed slot sitting on a free list (payload dropped;
/// arena teardown must not drop it again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeKind {
    Head,
    Data,
    Tail,
    Free,
}

/// `meta` byte: bits 0..=2 `top_level`, bits 3..=4 `kind`, bit 7 `inserted`.
/// Only `inserted` ever changes after construction; the rest are immutable,
/// so relaxed loads are enough to read them.
const META_TOP_MASK: u8 = 0b0000_0111;
const META_KIND_SHIFT: u8 = 3;
const META_KIND_MASK: u8 = 0b11 << META_KIND_SHIFT;
const META_INSERTED: u8 = 0b1000_0000;

const KIND_HEAD: u8 = 0;
const KIND_DATA: u8 = 1;
const KIND_TAIL: u8 = 2;
const KIND_FREE: u8 = 3;

/// Node header. The trailing tower (`top_level` extra [`TaggedAtomic`]
/// slots) is co-allocated immediately after the header by the size-class
/// arena and reached through `self.tower`, which is set once by
/// [`Node::attach_tower`] right after allocation.
///
/// Field order is fixed (`repr(C)`) so the hot path — `next0`, `tower`,
/// `key` — occupies the first bytes of the (cache-line-aligned) slot.
#[repr(C)]
pub(crate) struct Node<K, V> {
    /// This node's successor in the level-0 list, tagged with
    /// (marked, valid) bits. Level 0 is in the header because every
    /// traversal ends there and the lazy protocol's logical state (valid /
    /// marked) lives in this word.
    next0: TaggedAtomic<Node<K, V>>,
    /// First slot of the trailing tower (levels `1..=top_level`), or null
    /// for height-0 nodes and nodes whose tower is not attached yet. Set
    /// once from the arena slot pointer — deriving it from `&self` would
    /// leave the reference's provenance (which covers only the header).
    tower: *mut TaggedAtomic<Node<K, V>>,
    key: MaybeUninit<K>,
    value: MaybeUninit<V>,
    /// Truncated cycle timestamp at allocation (commission period, Alg.
    /// 14). 32 bits: `check_retire` compares the wrapped *delta*, so the
    /// truncation can only postpone retirement, never cause it early.
    alloc_ts: u32,
    /// Slot generation: bumped when the node is retired. Cached raw
    /// pointers (hint maps, tombstones, hint chains) carry the generation
    /// they were captured at and re-check it before dereferencing; a bumped
    /// counter means the slot was (or is about to be) recycled for a
    /// different key. Survives recycling — [`Node::reinit_recycled`] leaves
    /// it untouched, so stale readers never observe a rollback.
    gen: AtomicU32,
    /// Membership vector of the inserting thread (suffixes select lists).
    /// `max_level < MAX_HEIGHT = 8`, so vectors always fit in 7 bits.
    mvec: u8,
    /// Packed `top_level` / `kind` / `inserted` (see the `META_*` masks).
    meta: AtomicU8,
    /// One bit per level `0..=top_level`, set by the thread whose CAS
    /// physically snipped this node out of that level's list. The thread
    /// that fills the mask retires the node (exactly once).
    unlinked: AtomicU8,
    /// Benchmark thread that allocated this node (NUMA-ownership tag).
    owner: u16,
}

#[inline]
fn pack_meta(kind: u8, top_level: u8, inserted: bool) -> u8 {
    debug_assert!((top_level as usize) < MAX_HEIGHT);
    (top_level & META_TOP_MASK)
        | (kind << META_KIND_SHIFT)
        | if inserted { META_INSERTED } else { 0 }
}

impl<K, V> Node<K, V> {
    /// Bytes of trailing tower storage a node of height `top_level` needs.
    pub(crate) const fn tower_bytes(top_level: usize) -> usize {
        top_level * std::mem::size_of::<TaggedAtomic<Node<K, V>>>()
    }

    pub(crate) fn new_data(
        key: K,
        value: V,
        mvec: u32,
        owner: u16,
        top_level: u8,
        alloc_ts: u32,
    ) -> Self {
        debug_assert!((top_level as usize) < MAX_HEIGHT);
        debug_assert!(mvec <= u8::MAX as u32, "membership vectors fit in 7 bits");
        Self {
            next0: TaggedAtomic::null(),
            tower: std::ptr::null_mut(),
            key: MaybeUninit::new(key),
            value: MaybeUninit::new(value),
            alloc_ts,
            gen: AtomicU32::new(0),
            mvec: mvec as u8,
            // A height-0 node has no upper level left to link once its
            // level-0 CAS lands, so it is born `inserted`: `getStart` must
            // not run a `finishInsert` (a descent and a search) that has
            // nothing to finish. Nobody can see the flag before the link.
            meta: AtomicU8::new(pack_meta(KIND_DATA, top_level, top_level == 0)),
            unlinked: AtomicU8::new(0),
            owner,
        }
    }

    /// A head sentinel for the list (`level`, `suffix`). Heads compare less
    /// than every key. Head accesses are attributed to thread 0 (the paper
    /// attributes head-array accesses "arbitrarily" to one thread). A head
    /// only ever uses its level-`level` reference, but is allocated with a
    /// full `level`-slot tower so `next(level)` is in bounds.
    pub(crate) fn new_head(level: u8, suffix: u32) -> Self {
        debug_assert!(suffix <= u8::MAX as u32);
        Self {
            next0: TaggedAtomic::null(),
            tower: std::ptr::null_mut(),
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            alloc_ts: 0,
            gen: AtomicU32::new(0),
            mvec: suffix as u8,
            meta: AtomicU8::new(pack_meta(KIND_HEAD, level, true)),
            unlinked: AtomicU8::new(0),
            owner: 0,
        }
    }

    /// The single tail sentinel, comparing greater than every key.
    pub(crate) fn new_tail() -> Self {
        Self {
            next0: TaggedAtomic::null(),
            tower: std::ptr::null_mut(),
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            alloc_ts: 0,
            gen: AtomicU32::new(0),
            mvec: 0,
            meta: AtomicU8::new(pack_meta(KIND_TAIL, (MAX_HEIGHT - 1) as u8, true)),
            unlinked: AtomicU8::new(0),
            owner: 0,
        }
    }

    /// Points `node.tower` at the trailing slots the size-class arena
    /// co-allocated after the header. Must be called once, right after
    /// allocation, before the node is published.
    ///
    /// # Safety
    ///
    /// `node` must be an arena slot with at least
    /// [`Node::tower_bytes`]`(top_level)` zero-initialized bytes directly
    /// after the header (zeroed bytes are valid null [`TaggedAtomic`]s).
    pub(crate) unsafe fn attach_tower(node: std::ptr::NonNull<Self>) {
        let top = node.as_ref().top_level() as usize;
        if top == 0 {
            return;
        }
        debug_assert_eq!(
            std::mem::size_of::<Self>() % std::mem::align_of::<TaggedAtomic<Self>>(),
            0,
            "tower slots must be naturally aligned after the header"
        );
        // Derive the tower pointer from the raw slot pointer (whose
        // provenance spans the whole arena chunk), not from a `&Node`.
        let base = node
            .as_ptr()
            .cast::<u8>()
            .add(std::mem::size_of::<Self>())
            .cast::<TaggedAtomic<Self>>();
        std::ptr::addr_of_mut!((*node.as_ptr()).tower).write(base);
    }

    #[inline]
    fn meta_bits(&self) -> u8 {
        self.meta.load(Ordering::Relaxed)
    }

    #[inline]
    pub(crate) fn kind(&self) -> NodeKind {
        match (self.meta_bits() & META_KIND_MASK) >> META_KIND_SHIFT {
            KIND_HEAD => NodeKind::Head,
            KIND_DATA => NodeKind::Data,
            KIND_TAIL => NodeKind::Tail,
            _ => NodeKind::Free,
        }
    }

    /// Highest level this node participates in (`0..MAX_HEIGHT`); also the
    /// length of the trailing tower.
    #[inline]
    pub(crate) fn top_level(&self) -> u8 {
        self.meta_bits() & META_TOP_MASK
    }

    /// Membership vector of the inserting thread.
    #[inline]
    pub(crate) fn mvec(&self) -> u32 {
        self.mvec as u32
    }

    /// NUMA-ownership tag (allocating benchmark thread).
    #[inline]
    pub(crate) fn owner(&self) -> u16 {
        self.owner
    }

    /// Truncated allocation timestamp (commission period).
    #[inline]
    pub(crate) fn alloc_ts(&self) -> u32 {
        self.alloc_ts
    }

    pub(crate) fn is_data(&self) -> bool {
        self.kind() == NodeKind::Data
    }

    pub(crate) fn is_tail(&self) -> bool {
        self.kind() == NodeKind::Tail
    }

    pub(crate) fn is_head(&self) -> bool {
        self.kind() == NodeKind::Head
    }

    /// The level-`level` next-reference slot: level 0 from the header,
    /// upper levels from the trailing tower (bounds-checked in debug
    /// builds: accessing above `top_level` reads past the allocation).
    #[inline]
    pub(crate) fn next(&self, level: usize) -> &TaggedAtomic<Node<K, V>> {
        if level == 0 {
            return &self.next0;
        }
        debug_assert!(
            level <= self.top_level() as usize,
            "level {level} above tower height {}",
            self.top_level()
        );
        debug_assert!(!self.tower.is_null(), "tower not attached");
        unsafe { &*self.tower.add(level - 1) }
    }

    /// The node's key.
    ///
    /// # Safety: callers must ensure the node is a data node.
    pub(crate) unsafe fn key(&self) -> &K {
        debug_assert!(self.is_data());
        self.key.assume_init_ref()
    }

    /// The node's value (set once before publication; immutable after).
    ///
    /// # Safety: callers must ensure the node is a data node.
    pub(crate) unsafe fn value(&self) -> &V {
        debug_assert!(self.is_data());
        self.value.assume_init_ref()
    }

    /// Three-way comparison of this node against a search key, treating
    /// heads as -inf and the tail as +inf.
    #[inline]
    pub(crate) fn cmp_key(&self, k: &K) -> CmpOrdering
    where
        K: Ord,
    {
        match self.kind() {
            NodeKind::Head => CmpOrdering::Less,
            NodeKind::Tail => CmpOrdering::Greater,
            NodeKind::Data => unsafe { self.key().cmp(k) },
            NodeKind::Free => {
                // Unreachable from a pinned traversal (slots are only parked
                // after the grace period); answer like the tail so a search
                // that somehow got here stops instead of reading freed keys.
                debug_assert!(false, "cmp_key on a freed slot");
                CmpOrdering::Greater
            }
        }
    }

    /// Recorded load of `next[level]`: counts one shared-node read by `ctx`
    /// against this node's owner (plus the cache simulation, if attached).
    #[inline]
    pub(crate) fn load_next(&self, level: usize, ctx: &ThreadCtx) -> TagPtr<Node<K, V>> {
        let slot = self.next(level);
        if ctx.is_recording() {
            ctx.record_read(self.owner(), slot.addr());
        }
        slot.load()
    }

    /// Unrecorded load, for a thread touching its own in-flight node (the
    /// paper excludes such accesses from the instrumentation).
    #[inline]
    pub(crate) fn load_next_raw(&self, level: usize) -> TagPtr<Node<K, V>> {
        self.next(level).load()
    }

    /// Unrecorded store, for initializing an unpublished node.
    #[inline]
    pub(crate) fn store_next(&self, level: usize, word: TagPtr<Node<K, V>>) {
        self.next(level).store(word);
    }

    /// Recorded maintenance CAS on `next[level]`.
    #[inline]
    pub(crate) fn cas_next(
        &self,
        level: usize,
        current: TagPtr<Node<K, V>>,
        new: TagPtr<Node<K, V>>,
        ctx: &ThreadCtx,
    ) -> Result<(), TagPtr<Node<K, V>>> {
        let slot = self.next(level);
        let r = slot.compare_exchange(current, new);
        if ctx.is_recording() {
            ctx.record_cas(self.owner(), slot.addr(), r.is_ok());
        }
        r
    }

    /// Unrecorded CAS, for initializing the thread's own in-flight node.
    #[inline]
    pub(crate) fn cas_next_raw(
        &self,
        level: usize,
        current: TagPtr<Node<K, V>>,
        new: TagPtr<Node<K, V>>,
    ) -> Result<(), TagPtr<Node<K, V>>> {
        self.next(level).compare_exchange(current, new)
    }

    /// Whether this node's level-`level` reference is marked.
    #[inline]
    pub(crate) fn is_marked(&self, level: usize) -> bool {
        self.next(level).load().marked()
    }

    /// Whether the node has been linked at all its levels (lazy protocol).
    #[inline]
    pub(crate) fn is_inserted(&self) -> bool {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point();
        self.meta.load(Ordering::Acquire) & META_INSERTED != 0
    }

    pub(crate) fn set_inserted(&self) {
        #[cfg(feature = "deterministic")]
        crate::det::yield_point();
        self.meta.fetch_or(META_INSERTED, Ordering::Release);
    }

    /// Current slot generation. Through a shared reference this is only
    /// for tests; runtime generation checks go through the raw projection
    /// [`Node::generation_of`], which never forms a `&Node`.
    #[cfg(test)]
    #[inline]
    pub(crate) fn generation(&self) -> u32 {
        self.gen.load(Ordering::Acquire)
    }

    /// Reads the generation through a raw slot pointer without forming a
    /// `&Node` over the whole header. Generation checks on cached pointers
    /// must use this: the slot may concurrently be re-initialized for a new
    /// key ([`Node::reinit_recycled`] plain-writes the non-atomic fields),
    /// and a shared reference spanning those bytes would race. The `gen`
    /// word itself is only ever written atomically, so an atomic load
    /// through a field projection is always sound.
    ///
    /// # Safety
    ///
    /// `p` must point into a live arena slot (slots are never unmapped
    /// while the structure exists, so any pointer that was once a node of
    /// this graph qualifies).
    #[inline]
    pub(crate) unsafe fn generation_of(p: NonNull<Self>) -> u32 {
        (*std::ptr::addr_of!((*p.as_ptr()).gen)).load(Ordering::Acquire)
    }

    /// Bumps the generation. Called at retire time: from this point every
    /// pointer cached before the bump fails its generation check.
    #[inline]
    pub(crate) fn bump_generation(&self) {
        self.gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Base of the trailing *block region*: the extra per-slot bytes the
    /// arena reserves after the tower (see `GraphConfig::block_bytes`),
    /// used by the blocked map for its fat level-0 entry array. Derived
    /// from the raw slot pointer — never from `&self` — so the returned
    /// pointer carries provenance over the whole slot, and reads the
    /// packed metadata through an atomic projection instead of forming a
    /// `&Node` (the header's non-atomic fields may be racing a
    /// [`Node::reinit_recycled`] on another thread).
    ///
    /// # Safety
    ///
    /// `node` must be a live arena slot allocated with at least
    /// `tower_bytes(top_level)` + the requested block bytes of trailing
    /// storage.
    #[inline]
    pub(crate) unsafe fn block_base(node: NonNull<Self>) -> *mut u8 {
        let meta = (*std::ptr::addr_of!((*node.as_ptr()).meta)).load(Ordering::Relaxed);
        let top = (meta & META_TOP_MASK) as usize;
        node.as_ptr()
            .cast::<u8>()
            .add(std::mem::size_of::<Self>() + Self::tower_bytes(top))
    }

    /// Records that this node was physically snipped out of `level`'s
    /// list. Returns `true` for exactly one caller across the node's
    /// lifetime: the one whose bit completed the mask over levels
    /// `0..=top_level` — that caller must retire the node. Distinct levels
    /// are snipped by (possibly) distinct threads; `fetch_or` keeps the
    /// completing transition unique when they race.
    #[inline]
    pub(crate) fn note_unlinked(&self, level: usize) -> bool {
        debug_assert!(level <= self.top_level() as usize);
        let bit = 1u8 << level;
        let full = ((1u16 << (self.top_level() + 1)) - 1) as u8;
        let prev = self.unlinked.fetch_or(bit, Ordering::AcqRel);
        prev & bit == 0 && prev | bit == full
    }

    /// Drops the key/value payload and marks the slot `Free`, so the
    /// arena's teardown does not drop it a second time. Called by the
    /// reclaimer once the grace period has passed, immediately before the
    /// slot goes onto a free list.
    ///
    /// # Safety
    ///
    /// `node` must be a retired data node past its grace period: no other
    /// thread may access the payload concurrently or afterwards.
    pub(crate) unsafe fn release_payload(node: NonNull<Self>) {
        let p = node.as_ptr();
        let meta = &*std::ptr::addr_of!((*p).meta);
        let bits = meta.load(Ordering::Relaxed);
        debug_assert_eq!((bits & META_KIND_MASK) >> META_KIND_SHIFT, KIND_DATA);
        // Flip the kind first: from here every teardown path sees `Free`
        // and skips the payload.
        meta.store(pack_meta(KIND_FREE, bits & META_TOP_MASK, false), Ordering::Release);
        (*std::ptr::addr_of_mut!((*p).key)).assume_init_drop();
        (*std::ptr::addr_of_mut!((*p).value)).assume_init_drop();
    }

    /// Re-initializes a recycled slot with a fresh header, preserving the
    /// slot's generation counter. Field-by-field on purpose: a whole-struct
    /// write would reset `gen` (letting a stale cached pointer pass its
    /// generation check) and would plain-write the atomic words that stale
    /// readers still probe atomically.
    ///
    /// # Safety
    ///
    /// `slot` must be a free-listed slot popped by its owning thread, with
    /// `trailing_bytes` bytes of tower + block storage directly after the
    /// header (at least `Node::tower_bytes(header.top_level())`), and no
    /// other thread dereferencing it (its grace period passed; the
    /// free-list pop won the slot). The whole trailing region is re-zeroed
    /// so a recycled slot's block starts empty, exactly like a fresh one.
    pub(crate) unsafe fn reinit_recycled(slot: NonNull<Self>, header: Self, trailing_bytes: usize) {
        let header = ManuallyDrop::new(header);
        let p = slot.as_ptr();
        let top = header.top_level() as usize;
        debug_assert!(trailing_bytes >= Self::tower_bytes(top));
        debug_assert_eq!(
            ((*std::ptr::addr_of!((*p).meta)).load(Ordering::Relaxed) & META_KIND_MASK)
                >> META_KIND_SHIFT,
            KIND_FREE
        );
        std::ptr::addr_of_mut!((*p).tower).write(std::ptr::null_mut());
        std::ptr::addr_of_mut!((*p).key).write(std::ptr::read(&header.key));
        std::ptr::addr_of_mut!((*p).value).write(std::ptr::read(&header.value));
        std::ptr::addr_of_mut!((*p).alloc_ts).write(header.alloc_ts);
        std::ptr::addr_of_mut!((*p).mvec).write(header.mvec);
        std::ptr::addr_of_mut!((*p).owner).write(header.owner);
        (*std::ptr::addr_of!((*p).unlinked)).store(0, Ordering::Relaxed);
        // The free-list pop left its link word in `next0`; reset it.
        (*std::ptr::addr_of!((*p).next0)).store(TagPtr::null());
        if trailing_bytes > 0 {
            std::ptr::write_bytes(
                p.cast::<u8>().add(std::mem::size_of::<Self>()),
                0,
                trailing_bytes,
            );
        }
        // Publish the new identity last.
        (*std::ptr::addr_of!((*p).meta))
            .store(header.meta.load(Ordering::Relaxed), Ordering::Release);
        Self::attach_tower(slot);
    }
}

impl<K, V> Drop for Node<K, V> {
    fn drop(&mut self) {
        if self.kind() == NodeKind::Data {
            unsafe {
                self.key.assume_init_drop();
                self.value.assume_init_drop();
            }
        }
    }
}

impl<K, V> std::fmt::Debug for Node<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Node")
            .field("kind", &self.kind())
            .field("mvec", &self.mvec())
            .field("owner", &self.owner)
            .field("top_level", &self.top_level())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa::arena::Arena;
    use std::ptr::NonNull;

    #[test]
    fn data_node_fields() {
        let n: Node<u64, u64> = Node::new_data(42, 7, 0b101, 3, 2, 99);
        assert!(n.is_data());
        assert_eq!(unsafe { *n.key() }, 42);
        assert_eq!(unsafe { *n.value() }, 7);
        assert_eq!(n.mvec(), 0b101);
        assert_eq!(n.owner(), 3);
        assert_eq!(n.top_level(), 2);
        assert_eq!(n.alloc_ts(), 99);
        assert!(!n.is_inserted());
        n.set_inserted();
        assert!(n.is_inserted());
        // Setting `inserted` must not clobber the packed immutable bits.
        assert!(n.is_data());
        assert_eq!(n.top_level(), 2);
        // Nothing is left to finish on a node without upper levels.
        assert!(Node::new_data(1u64, 1u64, 0, 0, 0, 0).is_inserted());
    }

    #[test]
    fn sentinels_compare_as_infinities() {
        let h: Node<u64, ()> = Node::new_head(3, 0b11);
        let t: Node<u64, ()> = Node::new_tail();
        assert_eq!(h.cmp_key(&0), CmpOrdering::Less);
        assert_eq!(t.cmp_key(&u64::MAX), CmpOrdering::Greater);
        assert!(h.is_head());
        assert!(t.is_tail());
    }

    #[test]
    fn data_cmp() {
        let n: Node<u64, ()> = Node::new_data(10, (), 0, 0, 0, 0);
        assert_eq!(n.cmp_key(&5), CmpOrdering::Greater);
        assert_eq!(n.cmp_key(&10), CmpOrdering::Equal);
        assert_eq!(n.cmp_key(&15), CmpOrdering::Less);
    }

    #[test]
    fn header_is_packed_into_one_cache_line() {
        // The whole point of the layout: header (next0 + tower ptr + key +
        // value + packed metadata + generation/unlinked words) of a u64
        // map node is 48 bytes, and a height-0 node is exactly the header
        // — both under one 64-byte line. The old inline-tower layout was
        // 96 bytes; the pre-reclamation header was 40.
        assert_eq!(std::mem::size_of::<Node<u64, u64>>(), 48);
        assert_eq!(std::mem::align_of::<Node<u64, u64>>(), 8);
        // Tower slots can be appended without padding.
        assert_eq!(
            std::mem::size_of::<Node<u64, u64>>()
                % std::mem::align_of::<TaggedAtomic<Node<u64, u64>>>(),
            0
        );
        assert_eq!(Node::<u64, u64>::tower_bytes(0), 0);
        assert_eq!(Node::<u64, u64>::tower_bytes(7), 56);
    }

    fn tower_arena(top_level: usize) -> Arena<Node<u64, u64>> {
        Arena::with_layout(0, 16, Node::<u64, u64>::tower_bytes(top_level))
    }

    #[test]
    fn attached_tower_slots_start_null_and_are_independent() {
        let arena = tower_arena(3);
        let node = arena.alloc(Node::new_data(1, 1, 0, 0, 3, 0));
        unsafe { Node::attach_tower(node) };
        let n = unsafe { node.as_ref() };
        let probe = arena.alloc(Node::new_data(2, 2, 0, 0, 3, 0));
        unsafe { Node::attach_tower(probe) };
        for level in 0..=3usize {
            assert!(n.load_next_raw(level).ptr().is_null(), "level {level} not null");
        }
        // Stores at each level land in distinct slots.
        for level in 0..=3usize {
            n.store_next(level, TagPtr::clean(probe.as_ptr()));
        }
        for level in 0..=3usize {
            assert_eq!(n.load_next_raw(level).ptr(), probe.as_ptr());
        }
        // ...and did not leak into the neighboring slot's header.
        assert!(unsafe { probe.as_ref() }.load_next_raw(0).ptr().is_null());
    }

    #[test]
    fn height_zero_node_needs_no_tower() {
        let arena = tower_arena(0);
        let node = arena.alloc(Node::new_data(9, 9, 0, 0, 0, 0));
        unsafe { Node::attach_tower(node) };
        let n = unsafe { node.as_ref() };
        assert!(n.load_next_raw(0).ptr().is_null());
        n.store_next(0, TagPtr::clean(node.as_ptr()));
        assert_eq!(n.load_next_raw(0).ptr(), node.as_ptr());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "above tower height")]
    fn out_of_height_slot_access_is_caught() {
        let arena = tower_arena(2);
        let node = arena.alloc(Node::new_data(1u64, 1u64, 0, 0, 2, 0));
        unsafe { Node::attach_tower(node) };
        let _ = unsafe { node.as_ref() }.load_next_raw(3);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "tower not attached")]
    fn unattached_tower_access_is_caught() {
        let n: Node<u64, u64> = Node::new_data(1, 1, 0, 0, 2, 0);
        let _ = n.load_next_raw(1);
    }

    #[test]
    fn cas_through_tower_slot() {
        let arena = tower_arena(1);
        let node = arena.alloc(Node::new_data(1u64, 1u64, 0, 0, 1, 0));
        unsafe { Node::attach_tower(node) };
        let n = unsafe { node.as_ref() };
        let word = TagPtr::clean(node.as_ptr());
        assert!(n.cas_next_raw(1, TagPtr::null(), word).is_ok());
        assert_eq!(n.load_next_raw(1).ptr(), node.as_ptr());
        assert!(n.cas_next_raw(1, TagPtr::null(), word).is_err());
        let _ = NonNull::from(n);
    }

    #[test]
    fn drop_runs_for_data_only() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        #[derive(Clone)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl PartialEq for D {
            fn eq(&self, _: &Self) -> bool {
                true
            }
        }
        impl Eq for D {}
        impl PartialOrd for D {
            fn partial_cmp(&self, o: &Self) -> Option<CmpOrdering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for D {
            fn cmp(&self, _: &Self) -> CmpOrdering {
                CmpOrdering::Equal
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        drop(Node::new_data(D, D, 0, 0, 0, 0));
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
        DROPS.store(0, Ordering::SeqCst);
        drop(Node::<D, D>::new_head(0, 0));
        drop(Node::<D, D>::new_tail());
        assert_eq!(DROPS.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn node_is_sufficiently_aligned_for_tags() {
        assert!(std::mem::align_of::<Node<u8, u8>>() >= 4);
    }

    #[test]
    fn unlink_mask_completes_exactly_once() {
        let n: Node<u64, u64> = Node::new_data(1, 1, 0, 0, 2, 0);
        assert!(!n.note_unlinked(2));
        assert!(!n.note_unlinked(0));
        // Duplicate snip reports never complete the mask a second time.
        assert!(!n.note_unlinked(0));
        assert!(n.note_unlinked(1), "last missing level completes the mask");
        assert!(!n.note_unlinked(1));
        // Height-0 nodes complete on their single level.
        let z: Node<u64, u64> = Node::new_data(2, 2, 0, 0, 0, 0);
        assert!(z.note_unlinked(0));
        assert!(!z.note_unlinked(0));
    }

    #[test]
    fn recycled_slot_keeps_generation_and_new_identity() {
        let arena = tower_arena(2);
        let node = arena.alloc(Node::new_data(5u64, 50u64, 0b11, 1, 2, 7));
        unsafe { Node::attach_tower(node) };
        assert_eq!(unsafe { Node::generation_of(node) }, 0);
        unsafe { node.as_ref() }.bump_generation();
        assert_eq!(unsafe { Node::generation_of(node) }, 1);
        unsafe { Node::release_payload(node) };
        assert_eq!(unsafe { node.as_ref() }.kind(), NodeKind::Free);
        // Simulate the free-list link parking a pointer in next0.
        unsafe { node.as_ref() }.store_next(0, TagPtr::clean(node.as_ptr()));
        unsafe {
            Node::reinit_recycled(
                node,
                Node::new_data(9u64, 90u64, 0b01, 2, 2, 8),
                Node::<u64, u64>::tower_bytes(2),
            )
        };
        let n = unsafe { node.as_ref() };
        assert!(n.is_data());
        assert_eq!(unsafe { *n.key() }, 9);
        assert_eq!(unsafe { *n.value() }, 90);
        assert_eq!(n.mvec(), 0b01);
        assert_eq!(n.owner(), 2);
        assert_eq!(n.alloc_ts(), 8);
        assert!(!n.is_inserted());
        assert_eq!(n.generation(), 1, "reinit must not reset the generation");
        for level in 0..=2usize {
            assert!(n.load_next_raw(level).ptr().is_null(), "level {level} not reset");
        }
        assert!(!n.note_unlinked(0), "unlinked mask must be cleared by reinit");
    }

    #[test]
    fn release_payload_drops_exactly_once_and_free_skips_teardown_drop() {
        use std::sync::atomic::AtomicU32;
        static DROPS: AtomicU32 = AtomicU32::new(0);
        struct D(#[allow(dead_code)] u8);
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        impl PartialEq for D {
            fn eq(&self, _: &Self) -> bool {
                true
            }
        }
        impl Eq for D {}
        impl PartialOrd for D {
            fn partial_cmp(&self, o: &Self) -> Option<CmpOrdering> {
                Some(self.cmp(o))
            }
        }
        impl Ord for D {
            fn cmp(&self, _: &Self) -> CmpOrdering {
                CmpOrdering::Equal
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        {
            let arena: Arena<Node<D, D>> = Arena::with_layout(0, 4, 0);
            let node = arena.alloc(Node::new_data(D(0), D(1), 0, 0, 0, 0));
            unsafe { Node::attach_tower(node) };
            unsafe { Node::release_payload(node) };
            assert_eq!(DROPS.load(Ordering::SeqCst), 2, "payload dropped at release");
        }
        // Arena teardown saw a Free slot and did not double-drop.
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
