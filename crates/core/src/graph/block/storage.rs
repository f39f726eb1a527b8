//! Block storage and the control word.
//!
//! Every node the inner graph allocates reserves
//! `GraphConfig::block_bytes` of trailing storage after its truncated
//! tower (see `Node::block_base`); the blocked map carves it as:
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
//! * bits `33..39` — length of the sorted prefix written at block build.
//!
//! Slots are write-once: a writer claims a slot (CAS), writes the pair,
//! then publishes it (CAS setting the present bit — the insert's
//! linearization point). Removal clears the present bit and keeps the
//! claim, so published keys stay readable forever and the reader needs
//! no per-slot synchronization; a re-insert claims a fresh slot. A block
//! whose slots are exhausted is frozen (sticky bit) and replaced wholesale by
//! one or two fresh blocks holding the surviving entries — the split —,
//! or simply unlinked when nothing survives — the merge. Freezing makes
//! the present bitmap immutable, which is what lets any helper compute
//! the same survivor set.
//!
//! Its unchecked code rests on the graph core's invariant plus its own:
//! a slot's entry is read only once its claim is published, and slot
//! bytes never change after that.

use super::BNode;
use crate::node::Node;
use crate::sync::FacadeAtomicUsize;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr::NonNull;

/// Smallest supported blocking factor. A 1-slot block would re-freeze
/// immediately after every split (the replacement is born full), so the
/// unblocked ablation point is the plain [`SkipGraph`](crate::SkipGraph), not `cap = 1`.
pub const MIN_BLOCK_CAP: usize = 2;
/// Largest supported blocking factor (present/claimed bitmaps are 16 bits
/// each).
pub const MAX_BLOCK_CAP: usize = 16;

/// Forward-word sentinel claiming the merge outcome (no replacement; the
/// install unlinks). Distinguishable from real replacement pointers, which
/// are 8-aligned node addresses.
pub(super) const MERGED: usize = 1;

pub(super) const CLAIMED_SHIFT: u32 = 16;
pub(super) const FROZEN: usize = 1 << 32;
pub(super) const PREFIX_SHIFT: u32 = 33;
pub(super) const PREFIX_MASK: usize = 0x3F;
const FORWARD_OFFSET: usize = 8;
const SLOTS_OFFSET: usize = 16;

#[inline]
pub(super) fn present_bit(i: usize) -> usize {
    1 << i
}
#[inline]
pub(super) fn claimed_bit(i: usize) -> usize {
    1 << (CLAIMED_SHIFT + i as u32)
}
#[inline]
pub(super) fn present_bits(w: usize) -> usize {
    w & 0xFFFF
}
#[inline]
pub(super) fn claimed_bits(w: usize) -> usize {
    (w >> CLAIMED_SHIFT) & 0xFFFF
}
#[inline]
pub(super) fn is_frozen(w: usize) -> bool {
    w & FROZEN != 0
}
#[inline]
pub(super) fn prefix_len(w: usize) -> usize {
    (w >> PREFIX_SHIFT) & PREFIX_MASK
}
#[inline]
pub(super) fn slot_mask(cap: usize) -> usize {
    (1 << cap) - 1
}

/// Bytes of trailing block storage a node needs for `cap` entry slots
/// (control + forward words + slots, rounded up to pointer alignment).
pub(crate) fn block_layout_bytes<K, V>(cap: usize) -> usize {
    let raw = SLOTS_OFFSET + cap * std::mem::size_of::<(K, V)>();
    (raw + 7) & !7
}

/// A typed view of one anchor's trailing block region. Purely a pointer
/// package: carries no lifetime, so callers must hold a reclamation pin
/// for as long as they use it (same contract as raw node pointers).
pub(super) struct Blk<K, V> {
    base: *mut u8,
    cap: usize,
    _kv: PhantomData<*mut (K, V)>,
}

impl<K: Copy, V: Copy> Blk<K, V> {
    /// # Safety
    ///
    /// `anchor` must point at a live (pinned) node of a graph configured
    /// with `block_bytes >= block_layout_bytes::<K, V>(cap)`.
    pub(super) unsafe fn of(anchor: NonNull<BNode<K>>, cap: usize) -> Self {
        Self {
            base: Node::block_base(anchor),
            cap,
            _kv: PhantomData,
        }
    }

    #[inline]
    pub(super) fn control(&self) -> &FacadeAtomicUsize {
        // Safety: the region is 8-aligned (nodes are 8-aligned, header and
        // tower sizes are multiples of 8) and zero-initialized by the
        // arena, which is a valid `FacadeAtomicUsize`.
        unsafe { &*(self.base as *const FacadeAtomicUsize) }
    }

    #[inline]
    pub(super) fn forward(&self) -> &FacadeAtomicUsize {
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
    pub(super) unsafe fn read(&self, i: usize) -> (K, V) {
        std::ptr::read(self.slot(i))
    }

    #[inline]
    pub(super) unsafe fn key_at(&self, i: usize) -> K {
        (*self.slot(i)).0
    }

    #[inline]
    pub(super) unsafe fn write(&self, i: usize, e: (K, V)) {
        std::ptr::write(self.slot(i), e)
    }

    /// The entries present under control word `w`, ascending by key, in
    /// the caller's stack buffer: a scan's view of the block, and a frozen
    /// block's survivors (present bits are immutable once frozen, so all
    /// split helpers agree on those). The bitmap is walked lowest slot
    /// first and each entry inserted at its place from the back, so the
    /// sorted prefix costs one compare per entry and only the unsorted
    /// tail shifts. Always inlined: the scan calls it once a block, and
    /// out of line that call cost about 25 ns of a 32-key scan.
    #[inline(always)]
    pub(super) fn sorted_entries<'b>(
        &self,
        w: usize,
        buf: &'b mut [MaybeUninit<(K, V)>; MAX_BLOCK_CAP],
    ) -> &'b [(K, V)]
    where
        K: Ord,
    {
        let mut present = present_bits(w);
        let mut n = 0;
        while present != 0 {
            let i = present.trailing_zeros() as usize;
            present &= present - 1;
            // SAFETY: a present slot is published, and slots are write-once.
            let e = unsafe { self.read(i) };
            let mut j = n;
            // SAFETY: `buf[..n]` was written by earlier rounds of this loop.
            while j > 0 && unsafe { buf[j - 1].assume_init_ref() }.0 > e.0 {
                buf[j] = buf[j - 1];
                j -= 1;
            }
            buf[j].write(e);
            n += 1;
        }
        // SAFETY: `buf[..n]` was just written.
        unsafe { &*(&buf[..n] as *const [MaybeUninit<(K, V)>] as *const [(K, V)]) }
    }
}
