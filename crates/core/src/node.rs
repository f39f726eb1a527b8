//! Shared node layout: a 32-byte header and a tower at a fixed offset.
//!
//! A shared node is a fixed *header* followed, above height 0, by one
//! unlink word and a trailing tower of exactly `top_level` tagged
//! next-references (levels `1..=top_level`; the level-0 reference lives in
//! the header). Nodes are allocated from per-height size-class arenas
//! ([`crate::graph`]'s `TowerArenas`), so a node pays for precisely the
//! tower it uses instead of embedding a worst-case `[TaggedAtomic;
//! MAX_HEIGHT]` — under the sparse-height configuration the expected tower
//! length is < 1 slot, which more than halves bytes-per-node versus the old
//! inline layout.
//!
//! The header is `#[repr(C)]`: the level-0 next-reference, the key, the
//! value, the generation, the packed metadata byte and three bytes that say
//! who allocated the node and when. That is 32 bytes for a
//! `Node<u64, u64>` and 24 for a blocked anchor's `Node<u64, ()>`. A
//! height-0 node is the header alone, so it fills exactly half a cache line
//! and, in a 64-byte-aligned chunk (see `numa::arena`), never crosses one.
//! A class-`h` slot (`h >= 1`) is the header, the unlink word and `h` tower
//! slots: `40 + 8h` bytes, the tower at a fixed offset from the slot.
//!
//! The three packed bytes hold
//!
//! * the allocating thread's id, 9 bits (`GraphConfig::new` caps threads at
//!   512). The graph maps it to the node's membership vector and NUMA owner,
//!   and a reclaimed slot goes back to that thread's arena bank;
//! * the commission stamp, 15 bits of `logical_now() >> STAMP_SHIFT`. They
//!   wrap every 2^32 cycles, and [`Node::commission_expired`] counts only
//!   whole units that surely passed, so truncation and wrap-around can only
//!   postpone retirement, never bring it forward. A head sentinel never
//!   retires and keeps its list suffix there instead.
//!
//! The cold/rare metadata (`kind`, `top_level`, a height-0 node's unlink
//! bit, `inserted`) is packed into one atomic byte.
//!
//! # Provenance
//!
//! A `&Node` covers the header's bytes only, so no tower is reachable from
//! one. Every access above level 0 goes through [`Node::link`] on the raw
//! slot pointer an arena handed out or a link word held — its provenance
//! spans the whole slot. Level 0 and the rest of the header stay readable
//! through `&self`.
//!
//! # Recycling (epoch-based reclamation)
//!
//! Because `skipgraph::reclaim` returns slots to per-size-class free lists
//! and reuses them, a node additionally carries
//!
//! * a **generation counter** (`gen`), bumped when the node is retired:
//!   every raw pointer cached outside the structure (local hint maps, C3
//!   tombstones, search frontiers carried past their search) snapshots the
//!   generation at capture time and re-checks it before dereferencing — a
//!   recycled slot fails the check and the caller falls back to a head
//!   search;
//! * an **unlinked bitmask**, one bit per level, set by whichever thread
//!   physically snips the node out of that level's list: a `meta` bit at
//!   height 0, the unlink word above it. The thread that completes the mask
//!   (observes the last missing bit) is the unique retirer, so a node enters
//!   a limbo list exactly once.
//!
//! Its unchecked code rests on one invariant: a node's key and value are
//! initialized exactly while its kind is `Data`, and a slot that may be
//! reinitialized is read only through raw field projections, never
//! through a `&Node` over the whole header.

use crate::sync::{TagPtr, TaggedAtomic};
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

/// `meta` byte: bits 0..=2 `top_level`, bits 3..=4 `kind`, bit 5 a
/// height-0 node's level-0 unlink bit, bit 7 `inserted`. Only the unlink
/// bit and `inserted` change after publication, so relaxed loads are
/// enough to read the rest.
const META_TOP_MASK: u8 = 0b0000_0111;
const META_KIND_SHIFT: u8 = 3;
const META_KIND_MASK: u8 = 0b11 << META_KIND_SHIFT;
const META_UNLINKED0: u8 = 0b0010_0000;
const META_INSERTED: u8 = 0b1000_0000;

const KIND_HEAD: u8 = 0;
const KIND_DATA: u8 = 1;
const KIND_TAIL: u8 = 2;
const KIND_FREE: u8 = 3;

/// The packed bytes: the allocating thread's id in the low 9 bits, the
/// commission stamp in the 15 above.
const ID_BITS: u32 = 9;
const ID_MASK: u32 = (1 << ID_BITS) - 1;
const STAMP_MASK: u32 = (1 << 15) - 1;

/// Cycles per stamp unit, as a shift: 15 bits of `logical_now() >> 17`
/// wrap every 2^32 cycles. Under `deterministic` logical time counts
/// scheduler steps and the stamp keeps every one.
const STAMP_SHIFT: u32 = if cfg!(feature = "deterministic") {
    0
} else {
    17
};

/// Node header. Above height 0 the slot continues with the unlink word and
/// the tower (`top_level` [`TaggedAtomic`] slots), co-allocated by the
/// size-class arena and reached from the slot pointer ([`Node::link`]).
///
/// Field order is fixed (`repr(C)`) so what an index-served read touches —
/// `next0`, `key`, `value`, `gen`, `meta` — occupies the first 29 bytes.
#[repr(C)]
pub(crate) struct Node<K, V> {
    /// This node's successor in the level-0 list, tagged with
    /// (marked, valid) bits. Level 0 is in the header because every
    /// traversal ends there and the lazy protocol's logical state (valid /
    /// marked) lives in this word.
    next0: TaggedAtomic<Node<K, V>>,
    key: MaybeUninit<K>,
    value: MaybeUninit<V>,
    /// Slot generation: bumped when the node is retired. Cached raw
    /// pointers (hint maps, tombstones, carried search frontiers) carry the
    /// generation they were captured at and re-check it before
    /// dereferencing; a bumped
    /// counter means the slot was (or is about to be) recycled for a
    /// different key. Survives recycling — [`Node::reinit_recycled`] leaves
    /// it untouched, so stale readers never observe a rollback.
    gen: AtomicU32,
    /// Packed `top_level` / `kind` / unlink bit / `inserted` (see the
    /// `META_*` masks).
    meta: AtomicU8,
    /// The allocating thread's id and the commission stamp (a head's list
    /// suffix), little-endian (see `ID_BITS`). Written before publication.
    origin: [u8; 3],
}

#[inline]
fn pack_meta(kind: u8, top_level: u8, inserted: bool) -> u8 {
    debug_assert!((top_level as usize) < MAX_HEIGHT);
    (top_level & META_TOP_MASK)
        | (kind << META_KIND_SHIFT)
        | if inserted { META_INSERTED } else { 0 }
}

#[inline]
fn pack_origin(id: u16, stamp: u32) -> [u8; 3] {
    debug_assert!((id as u32) <= ID_MASK, "thread ids fit in 9 bits");
    debug_assert!(stamp <= STAMP_MASK);
    let w = id as u32 | stamp << ID_BITS;
    [w as u8, (w >> 8) as u8, (w >> 16) as u8]
}

/// Whether a node stamped `stamp` has surely been alive longer than
/// `commission` cycles at logical time `now`, with `1 << shift` cycles a
/// stamp unit. `units` whole units between the two stamps prove only
/// `(units - 1) << shift` cycles (plus one), so that is what is compared:
/// a rounded or wrapped stamp can only postpone retirement. A zero
/// commission retires at once, whatever the stamp says: the stamp cannot
/// tell the cycle its node was stamped from the rest of its unit, and
/// under `deterministic` the clock stands at 0 outside a schedule.
#[inline]
fn commission_expired_at(stamp: u32, now: u64, commission: u64, shift: u32) -> bool {
    let units = ((now >> shift) as u32).wrapping_sub(stamp) & STAMP_MASK;
    commission == 0
        || units
            .checked_sub(1)
            .is_some_and(|u| (u as u64) << shift >= commission)
}

impl<K, V> Node<K, V> {
    /// Bytes of trailing storage a node of height `top_level` needs: none
    /// at height 0, else the unlink word and the tower.
    pub(crate) const fn tower_bytes(top_level: usize) -> usize {
        if top_level == 0 {
            0
        } else {
            (top_level + 1) * std::mem::size_of::<TaggedAtomic<Node<K, V>>>()
        }
    }

    /// The commission stamp of a node allocated at logical time `now`.
    #[inline]
    pub(crate) fn stamp_at(now: u64) -> u32 {
        (now >> STAMP_SHIFT) as u32 & STAMP_MASK
    }

    pub(crate) fn new_data(key: K, value: V, id: u16, top_level: u8, stamp: u32) -> Self {
        debug_assert!((top_level as usize) < MAX_HEIGHT);
        Self {
            next0: TaggedAtomic::null(),
            key: MaybeUninit::new(key),
            value: MaybeUninit::new(value),
            gen: AtomicU32::new(0),
            // A height-0 node has no upper level left to link once its
            // level-0 CAS lands, so it is born `inserted`: `getStart` must
            // not run a `finishInsert` (a descent and a search) that has
            // nothing to finish. Nobody can see the flag before the link.
            meta: AtomicU8::new(pack_meta(KIND_DATA, top_level, top_level == 0)),
            origin: pack_origin(id, stamp),
        }
    }

    /// A head sentinel for the list (`level`, `suffix`). Heads compare less
    /// than every key. Head accesses are attributed to thread 0 (the paper
    /// attributes head-array accesses "arbitrarily" to one thread), and a
    /// head keeps its list suffix where a data node keeps its stamp. A head
    /// only ever uses its level-`level` reference, but is allocated with a
    /// full `level`-slot tower so `link(level)` is in bounds.
    pub(crate) fn new_head(level: u8, suffix: u32) -> Self {
        Self {
            next0: TaggedAtomic::null(),
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            gen: AtomicU32::new(0),
            meta: AtomicU8::new(pack_meta(KIND_HEAD, level, true)),
            origin: pack_origin(0, suffix),
        }
    }

    /// The single tail sentinel, comparing greater than every key.
    pub(crate) fn new_tail() -> Self {
        Self {
            next0: TaggedAtomic::null(),
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            gen: AtomicU32::new(0),
            meta: AtomicU8::new(pack_meta(KIND_TAIL, (MAX_HEIGHT - 1) as u8, true)),
            origin: pack_origin(0, 0),
        }
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

    #[inline]
    fn origin(&self) -> u32 {
        let [a, b, c] = self.origin;
        u32::from_le_bytes([a, b, c, 0])
    }

    /// The thread that allocated this node (0 for sentinels).
    #[inline]
    pub(crate) fn id(&self) -> u16 {
        (self.origin() & ID_MASK) as u16
    }

    /// The commission stamp (a head's list suffix).
    #[inline]
    pub(crate) fn stamp(&self) -> u32 {
        self.origin() >> ID_BITS
    }

    /// Whether the node's commission period (Alg. 14) has surely passed
    /// at logical time `now` (see `commission_expired_at`).
    #[inline]
    pub(crate) fn commission_expired(&self, now: u64, commission: u64) -> bool {
        commission_expired_at(self.stamp(), now, commission, STAMP_SHIFT)
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

    /// The level-0 next-reference, in the header.
    #[inline]
    pub(crate) fn next0(&self) -> &TaggedAtomic<Node<K, V>> {
        &self.next0
    }

    /// The level-`level` next-reference of the slot at `p`: level 0 from
    /// the header, upper levels from the tower at its fixed offset (the
    /// unlink word takes the place a level-0 tower slot would have).
    /// Bounds-checked in debug builds: a level above `top_level` lies past
    /// the slot.
    ///
    /// # Safety
    ///
    /// `p` must point at a live slot with provenance over the whole slot —
    /// the pointer an arena handed out or one loaded from a link word, never
    /// one derived from a `&Node` — and the returned reference must not
    /// outlive the slot.
    #[inline]
    pub(crate) unsafe fn link<'a>(p: *mut Self, level: usize) -> &'a TaggedAtomic<Self> {
        if level == 0 {
            return &*std::ptr::addr_of!((*p).next0);
        }
        debug_assert!(
            level
                <= ((*std::ptr::addr_of!((*p).meta)).load(Ordering::Relaxed) & META_TOP_MASK)
                    as usize,
            "level {level} above tower height"
        );
        &*p.cast::<u8>()
            .add(std::mem::size_of::<Self>() + level * std::mem::size_of::<TaggedAtomic<Self>>())
            .cast::<TaggedAtomic<Self>>()
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

    /// Records that the node at `p` was physically snipped out of
    /// `level`'s list. Returns `true` for exactly one caller across the
    /// node's lifetime: the one whose bit completed the mask over levels
    /// `0..=top_level` — that caller must retire the node. Distinct levels
    /// are snipped by (possibly) distinct threads; one `fetch_or` on one
    /// byte — `meta`'s unlink bit at height 0, the unlink word above it —
    /// keeps the completing transition unique when they race.
    ///
    /// # Safety
    ///
    /// As for [`Node::link`].
    #[inline]
    pub(crate) unsafe fn note_unlinked(p: *mut Self, level: usize) -> bool {
        let meta = &*std::ptr::addr_of!((*p).meta);
        let top = meta.load(Ordering::Relaxed) & META_TOP_MASK;
        debug_assert!(level <= top as usize);
        if top == 0 {
            return meta.fetch_or(META_UNLINKED0, Ordering::AcqRel) & META_UNLINKED0 == 0;
        }
        let mask = &*p
            .cast::<u8>()
            .add(std::mem::size_of::<Self>())
            .cast::<AtomicU8>();
        let bit = 1u8 << level;
        let full = ((1u16 << (top + 1)) - 1) as u8;
        let prev = mask.fetch_or(bit, Ordering::AcqRel);
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
        meta.store(
            pack_meta(KIND_FREE, bits & META_TOP_MASK, false),
            Ordering::Release,
        );
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
    /// `trailing_bytes` bytes of unlink word, tower and block storage
    /// directly after the header (at least
    /// `Node::tower_bytes(header.top_level())`), and no other thread
    /// dereferencing it (its grace period passed; the free-list pop won the
    /// slot). The whole trailing region is re-zeroed so a recycled slot's
    /// unlink mask, tower and block start empty, exactly like a fresh one.
    pub(crate) unsafe fn reinit_recycled(slot: NonNull<Self>, header: Self, trailing_bytes: usize) {
        let header = ManuallyDrop::new(header);
        let p = slot.as_ptr();
        debug_assert!(trailing_bytes >= Self::tower_bytes(header.top_level() as usize));
        debug_assert_eq!(
            ((*std::ptr::addr_of!((*p).meta)).load(Ordering::Relaxed) & META_KIND_MASK)
                >> META_KIND_SHIFT,
            KIND_FREE
        );
        std::ptr::addr_of_mut!((*p).key).write(std::ptr::read(&header.key));
        std::ptr::addr_of_mut!((*p).value).write(std::ptr::read(&header.value));
        std::ptr::addr_of_mut!((*p).origin).write(header.origin);
        // The free-list pop left its link word in `next0`; reset it.
        (*std::ptr::addr_of!((*p).next0)).store(TagPtr::null());
        if trailing_bytes > 0 {
            std::ptr::write_bytes(
                p.cast::<u8>().add(std::mem::size_of::<Self>()),
                0,
                trailing_bytes,
            );
        }
        // Publish the new identity last (its level-0 unlink bit clear).
        (*std::ptr::addr_of!((*p).meta))
            .store(header.meta.load(Ordering::Relaxed), Ordering::Release);
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
            .field("id", &self.id())
            .field("top_level", &self.top_level())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa::arena::Arena;

    fn tower_arena(top_level: usize) -> Arena<Node<u64, u64>> {
        Arena::with_layout(0, 16, Node::<u64, u64>::tower_bytes(top_level))
    }

    #[test]
    fn data_node_fields() {
        let n: Node<u64, u64> = Node::new_data(42, 7, 300, 2, 0x7ABC);
        assert!(n.is_data());
        assert_eq!(unsafe { *n.key() }, 42);
        assert_eq!(unsafe { *n.value() }, 7);
        assert_eq!((n.id(), n.stamp()), (300, 0x7ABC));
        assert_eq!(n.top_level(), 2);
        assert!(!n.is_inserted());
        n.set_inserted();
        assert!(n.is_inserted());
        // Setting `inserted` must not clobber the packed immutable bits.
        assert!(n.is_data());
        assert_eq!(n.top_level(), 2);
        // Nothing is left to finish on a node without upper levels.
        assert!(Node::new_data(1u64, 1u64, 0, 0, 0).is_inserted());
    }

    #[test]
    fn sentinels_compare_as_infinities() {
        let h: Node<u64, ()> = Node::new_head(3, 0b101);
        let t: Node<u64, ()> = Node::new_tail();
        assert_eq!(h.cmp_key(&0), CmpOrdering::Less);
        assert_eq!(t.cmp_key(&u64::MAX), CmpOrdering::Greater);
        assert!(h.is_head());
        assert!(t.is_tail());
        // Sentinels belong to thread 0; a head keeps its list suffix.
        assert_eq!((h.id(), h.stamp(), t.id()), (0, 0b101, 0));
    }

    #[test]
    fn data_cmp() {
        let n: Node<u64, ()> = Node::new_data(10, (), 0, 0, 0);
        assert_eq!(n.cmp_key(&5), CmpOrdering::Greater);
        assert_eq!(n.cmp_key(&10), CmpOrdering::Equal);
        assert_eq!(n.cmp_key(&15), CmpOrdering::Less);
    }

    #[test]
    fn a_height_zero_node_never_crosses_a_line() {
        type N = Node<u64, u64>;
        // The whole point of the layout: the header of a u64 map node is 32
        // bytes, and a height-0 node is exactly the header. The old
        // inline-tower layout was 96 bytes; the header with separate tower
        // and stamp fields 48, with the two in one word 40; a blocked
        // anchor (no value) is 24.
        assert_eq!(std::mem::size_of::<N>(), 32);
        assert_eq!(std::mem::size_of::<Node<u64, ()>>(), 24);
        assert_eq!(std::mem::align_of::<N>(), 8);
        // What an index-served read touches: generation, metadata, key,
        // level-0 word and value, bytes 0..29.
        let hot = [
            (std::mem::offset_of!(N, next0), 8),
            (std::mem::offset_of!(N, key), 8),
            (std::mem::offset_of!(N, value), 8),
            (std::mem::offset_of!(N, gen), 4),
            (std::mem::offset_of!(N, meta), 1),
        ];
        let start = hot.iter().map(|&(at, _)| at).min().unwrap();
        let end = hot.iter().map(|&(at, len)| at + len).max().unwrap();
        assert_eq!((start, end), (0, 29));
        // Height-0 slots start at line offsets 0 and 32 of a 64-byte
        // aligned chunk: no node, hot bytes or not, crosses a line.
        let crossing = (0..8)
            .map(|i| i * std::mem::size_of::<N>() % 64)
            .filter(|&at| at / 64 != (at + std::mem::size_of::<N>() - 1) / 64)
            .count();
        assert_eq!(crossing, 0);
        // The unlink word and tower slots follow without padding.
        assert_eq!(
            std::mem::size_of::<N>() % std::mem::align_of::<TaggedAtomic<N>>(),
            0
        );
        // No trailing bytes at height 0; above it the unlink word and the
        // tower, so a class-`h` slot is the header + 8 + 8h bytes.
        assert_eq!(N::tower_bytes(0), 0);
        assert_eq!(N::tower_bytes(7), 64);
        for h in 1..MAX_HEIGHT {
            assert_eq!(std::mem::size_of::<N>() + N::tower_bytes(h), 40 + 8 * h);
        }
    }

    #[test]
    fn tower_slots_start_null_and_are_independent() {
        let arena = tower_arena(3);
        let node = arena.alloc(Node::new_data(1, 1, 0, 3, 0)).as_ptr();
        let probe = arena.alloc(Node::new_data(2, 2, 0, 3, 0)).as_ptr();
        let link = |level| unsafe { Node::link(node, level) };
        for level in 0..=3usize {
            assert!(link(level).load().ptr().is_null(), "level {level} not null");
        }
        // Stores at each level land in distinct slots, at the fixed offset.
        for level in 0..=3usize {
            link(level).store(TagPtr::clean(probe));
        }
        for level in 0..=3usize {
            assert_eq!(link(level).load().ptr(), probe);
        }
        assert_eq!(link(1).addr(), node as usize + 40);
        assert_eq!(link(3).addr(), node as usize + 56);
        // ...and did not leak into the neighbouring slot's header.
        assert!(unsafe { &*probe }.next0().load().ptr().is_null());
    }

    #[test]
    fn height_zero_node_needs_no_tower() {
        let arena = tower_arena(0);
        let node = arena.alloc(Node::new_data(9, 9, 0, 0, 0));
        let n = unsafe { node.as_ref() };
        assert!(n.next0().load().ptr().is_null());
        n.next0().store(TagPtr::clean(node.as_ptr()));
        assert_eq!(n.next0().load().ptr(), node.as_ptr());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "above tower height")]
    fn out_of_height_slot_access_is_caught() {
        let arena = tower_arena(2);
        let node = arena.alloc(Node::new_data(1u64, 1u64, 0, 2, 0));
        let _ = unsafe { Node::link(node.as_ptr(), 3) };
    }

    #[test]
    fn cas_through_tower_slot() {
        let arena = tower_arena(1);
        let node = arena.alloc(Node::new_data(1u64, 1u64, 0, 1, 0)).as_ptr();
        let slot = unsafe { Node::link(node, 1) };
        let word = TagPtr::clean(node);
        assert!(slot.compare_exchange(TagPtr::null(), word).is_ok());
        assert_eq!(slot.load().ptr(), node);
        assert!(slot.compare_exchange(TagPtr::null(), word).is_err());
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
        drop(Node::new_data(D, D, 0, 0, 0));
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
    fn an_unlink_is_reported_once_at_every_height() {
        for h in 0..MAX_HEIGHT {
            let arena = tower_arena(h);
            let node = arena.alloc(Node::new_data(1, 1, 0, h as u8, 0)).as_ptr();
            let mut completed = 0;
            // Levels reported top-down, each twice: duplicate snip reports
            // never complete the mask a second time.
            for level in (0..=h).rev() {
                for _ in 0..2 {
                    if unsafe { Node::note_unlinked(node, level) } {
                        completed += 1;
                        assert_eq!(level, 0, "only the last missing level completes");
                    }
                }
            }
            assert_eq!(completed, 1, "height {h}");
            // The mask bits moved no other state.
            let n = unsafe { &*node };
            assert!(n.is_data() && n.top_level() as usize == h);
            assert_eq!(n.is_inserted(), h == 0);
        }
    }

    #[test]
    fn recycled_slot_keeps_generation_and_new_identity() {
        let arena = tower_arena(2);
        let node = arena.alloc(Node::new_data(5u64, 50u64, 1, 2, 7));
        assert_eq!(unsafe { Node::generation_of(node) }, 0);
        unsafe { node.as_ref() }.bump_generation();
        assert_eq!(unsafe { Node::generation_of(node) }, 1);
        unsafe {
            for level in 0..=2 {
                Node::note_unlinked(node.as_ptr(), level);
            }
            Node::release_payload(node);
            assert_eq!(node.as_ref().kind(), NodeKind::Free);
            // Simulate the free-list link parking a pointer in next0.
            node.as_ref().next0().store(TagPtr::clean(node.as_ptr()));
            Node::reinit_recycled(
                node,
                Node::new_data(9u64, 90u64, 2, 2, 8),
                Node::<u64, u64>::tower_bytes(2),
            )
        };
        let n = unsafe { node.as_ref() };
        assert!(n.is_data());
        assert_eq!(unsafe { *n.key() }, 9);
        assert_eq!(unsafe { *n.value() }, 90);
        assert_eq!((n.id(), n.stamp()), (2, 8));
        assert!(!n.is_inserted());
        assert_eq!(n.generation(), 1, "reinit must not reset the generation");
        for level in 0..=2usize {
            let w = unsafe { Node::link(node.as_ptr(), level) }.load();
            assert!(w.ptr().is_null(), "level {level} not reset");
        }
        assert!(
            !unsafe { Node::note_unlinked(node.as_ptr(), 0) },
            "unlinked mask must be cleared by reinit"
        );
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
            let node = arena.alloc(Node::new_data(D(0), D(1), 0, 0, 0));
            unsafe { Node::release_payload(node) };
            assert_eq!(
                DROPS.load(Ordering::SeqCst),
                2,
                "payload dropped at release"
            );
        }
        // Arena teardown saw a Free slot and did not double-drop.
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_commission_counts_only_the_units_that_surely_passed() {
        const S: u32 = 17;
        let unit = 1u64 << S;
        // Stamped in the last cycle of unit 5.
        let born = 6 * unit - 1;
        let stamp = (born >> S) as u32;
        let commission = unit + 5;
        // Two units apart by the stamps, but only unit + 2 cycles passed: a
        // compare of whole elapsed units (`2 << 17 > commission`) would
        // retire the node here, earlier than the exact clock allows.
        assert!(!commission_expired_at(stamp, 7 * unit + 1, commission, S));
        // Three units apart: at least 2 units + 1 cycle passed.
        assert!(commission_expired_at(stamp, 8 * unit, commission, S));
        // A stamp 2^15 units (2^32 cycles) old reads as fresh: postponed.
        assert!(!commission_expired_at(
            stamp,
            born + (1 << 32),
            commission,
            S
        ));
        // A zero commission retires at once, at unit resolution and in
        // exact steps alike (a clock standing at the stamp included).
        assert!(commission_expired_at(stamp, born, 0, S));
        assert!(commission_expired_at(5, 5, 0, 0));
        assert!(commission_expired_at(0, 0, 0, 0));
        // Exhaustively, at a small unit: never earlier than the exact rule
        // (elapsed > commission), and at most two units later.
        let shift = 4;
        for born in 0..64u64 {
            for elapsed in 0..300u64 {
                for commission in [1, 15, 16, 17, 40, 100] {
                    let stamp = (born >> shift) as u32;
                    let expired = commission_expired_at(stamp, born + elapsed, commission, shift);
                    assert!(
                        !expired || elapsed > commission,
                        "{born} {elapsed} {commission}"
                    );
                    assert!(expired || elapsed <= commission + (2 << shift));
                }
            }
        }
        // Exact steps keep the exact rule below the wrap.
        for elapsed in 0..200u64 {
            for commission in 1..100 {
                let expired = commission_expired_at(1000, 1000 + elapsed, commission, 0);
                assert_eq!(expired, elapsed > commission);
            }
        }
    }
}
