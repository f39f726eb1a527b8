//! Tagged atomic pointers carrying the paper's *marked* and *valid* bits.
//!
//! Every shared node reference `s.next[i]` packs two flags into the low bits
//! of the pointer word (nodes are at least 8-byte aligned, so two bits are
//! free):
//!
//! * **marked** (bit 0) — set when the node *owning this reference* is being
//!   physically removed at this level. Once set, the reference is immutable;
//!   this immutability is what makes the relink optimization (replacing a
//!   whole chain of marked references with a single CAS) correct.
//! * **invalid** (bit 1) — meaningful on `next[0]` only, and only in the
//!   lazy variant: an unmarked+invalid node is logically deleted but not yet
//!   committed for physical removal (it can still be resurrected by an
//!   insert of the same key flipping it back to valid).
//!
//! [`TagPtr`] is a decoded word (pointer + flags); [`TaggedAtomic`] is the
//! atomic cell. All compare-and-swap operations work on full words, so the
//! paper's `casMark` / `casValid` / `casMarkValid` / `casNext` are expressed
//! as loads plus full-word CAS.
//!
//! Its unchecked code rests on two invariants: a tagged word names a node of
//! its graph or nothing, and a `HandoffCell` is published again only
//! once every reader of its previous stamp is done with it.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Execution facade: in normal builds this is a no-op the optimizer erases,
/// so [`TaggedAtomic`] compiles straight down to `std::sync::atomic`. Under
/// `--features deterministic` every tagged-atomic access first yields to
/// the cooperative scheduler (see [`crate::det`]), turning each shared
/// load/store/CAS into a replayable scheduling point.
#[inline(always)]
fn facade_yield() {
    #[cfg(feature = "deterministic")]
    crate::det::yield_point();
}

/// Pads a value to two cache lines (the adjacent-line prefetcher's
/// granule), so neighbouring values — slot states, leases, log heads,
/// tails and slots, reclamation slots, anchor-map locks, counter stripes —
/// never false-share. The crate's one padding type.
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

/// The 128-byte line (pair) an object starts on: [`Padded`]'s granule,
/// the unit the address tests compare.
#[cfg(test)]
pub(crate) fn line_of<T>(x: &T) -> usize {
    x as *const T as usize / 128
}

/// The 128-byte lines an object covers.
#[cfg(test)]
pub(crate) fn lines_of<T>(x: &T) -> std::ops::RangeInclusive<usize> {
    line_of(x)..=(x as *const T as usize + std::mem::size_of::<T>().max(1) - 1) / 128
}

const MARK_BIT: usize = 0b01;
const INVALID_BIT: usize = 0b10;
const TAG_MASK: usize = 0b11;

/// A decoded tagged pointer: target plus (marked, valid) flags.
pub struct TagPtr<T> {
    raw: usize,
    _marker: PhantomData<*mut T>,
}

impl<T> Clone for TagPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for TagPtr<T> {}

impl<T> PartialEq for TagPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for TagPtr<T> {}

impl<T> TagPtr<T> {
    /// Packs a pointer and flags into a tagged word.
    ///
    /// # Panics
    ///
    /// Debug-panics if `ptr` is not at least 4-byte aligned.
    #[inline]
    pub fn new(ptr: *mut T, marked: bool, valid: bool) -> Self {
        debug_assert_eq!(ptr as usize & TAG_MASK, 0, "pointer too unaligned to tag");
        let mut raw = ptr as usize;
        if marked {
            raw |= MARK_BIT;
        }
        if !valid {
            raw |= INVALID_BIT;
        }
        Self {
            raw,
            _marker: PhantomData,
        }
    }

    /// An unmarked, valid reference (the state of freshly allocated nodes).
    #[inline]
    pub fn clean(ptr: *mut T) -> Self {
        Self::new(ptr, false, true)
    }

    /// The null reference (unmarked, valid).
    #[inline]
    pub fn null() -> Self {
        Self::clean(std::ptr::null_mut())
    }

    /// The raw word (for debugging).
    #[inline]
    pub fn raw(self) -> usize {
        self.raw
    }

    /// The pointer with tags stripped.
    #[inline]
    pub fn ptr(self) -> *mut T {
        (self.raw & !TAG_MASK) as *mut T
    }

    /// Whether the mark bit is set.
    #[inline]
    pub fn marked(self) -> bool {
        self.raw & MARK_BIT != 0
    }

    /// Whether the valid bit is set (i.e. the INVALID flag is clear).
    #[inline]
    pub fn valid(self) -> bool {
        self.raw & INVALID_BIT == 0
    }

    /// This word with a different target but identical flags — used by the
    /// relink optimization, which must preserve the predecessor's own flags
    /// while swinging the reference over a marked chain.
    #[inline]
    pub fn with_ptr(self, ptr: *mut T) -> Self {
        debug_assert_eq!(ptr as usize & TAG_MASK, 0);
        Self {
            raw: (ptr as usize) | (self.raw & TAG_MASK),
            _marker: PhantomData,
        }
    }

    /// This word with the mark bit set.
    #[inline]
    pub fn with_mark(self) -> Self {
        Self {
            raw: self.raw | MARK_BIT,
            _marker: PhantomData,
        }
    }

    /// This word with the valid flag replaced.
    #[inline]
    pub fn with_valid(self, valid: bool) -> Self {
        let raw = if valid {
            self.raw & !INVALID_BIT
        } else {
            self.raw | INVALID_BIT
        };
        Self {
            raw,
            _marker: PhantomData,
        }
    }
}

impl<T> fmt::Debug for TagPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TagPtr({:p}, marked={}, valid={})",
            self.ptr(),
            self.marked(),
            self.valid()
        )
    }
}

/// An atomic tagged pointer cell.
pub struct TaggedAtomic<T> {
    cell: AtomicUsize,
    _marker: PhantomData<*mut T>,
}

unsafe impl<T: Send + Sync> Send for TaggedAtomic<T> {}
unsafe impl<T: Send + Sync> Sync for TaggedAtomic<T> {}

impl<T> TaggedAtomic<T> {
    /// A cell holding the null clean reference.
    pub fn null() -> Self {
        Self {
            cell: AtomicUsize::new(TagPtr::<T>::null().raw()),
            _marker: PhantomData,
        }
    }

    /// A cell initialized to `word`.
    #[allow(dead_code)]
    pub fn new(word: TagPtr<T>) -> Self {
        Self {
            cell: AtomicUsize::new(word.raw()),
            _marker: PhantomData,
        }
    }

    /// Atomically loads the word (Acquire).
    #[inline]
    pub fn load(&self) -> TagPtr<T> {
        facade_yield();
        TagPtr {
            raw: self.cell.load(Ordering::Acquire),
            _marker: PhantomData,
        }
    }

    /// Plain store (Release). Only for unpublished nodes (initialization).
    #[inline]
    pub fn store(&self, word: TagPtr<T>) {
        facade_yield();
        self.cell.store(word.raw(), Ordering::Release);
    }

    /// Full-word compare-and-swap. Returns `Ok(())` on success and the
    /// observed word on failure.
    #[inline]
    pub fn compare_exchange(&self, current: TagPtr<T>, new: TagPtr<T>) -> Result<(), TagPtr<T>> {
        facade_yield();
        self.cell
            .compare_exchange(
                current.raw(),
                new.raw(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| ())
            .map_err(|raw| TagPtr {
                raw,
                _marker: PhantomData,
            })
    }

    /// Address of the cell, used by the cache simulator.
    #[inline]
    pub fn addr(&self) -> usize {
        &self.cell as *const _ as usize
    }
}

impl<T> fmt::Debug for TaggedAtomic<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TaggedAtomic({:?})", self.load())
    }
}

/// A plain atomic word routed through the execution facade: every access
/// is a yield point of the deterministic scheduler, exactly like
/// [`TaggedAtomic`]. Used for coordination words that are not tagged node
/// pointers — epoch words, hash-index slots, the replica logs' heads,
/// tails, replay leases and slot stamps — so the `deterministic` stress
/// runner interleaves (and replays) them at the same granularity as the
/// data structure itself.
#[derive(Debug)]
pub(crate) struct FacadeAtomicUsize {
    cell: AtomicUsize,
}

impl FacadeAtomicUsize {
    /// A cell initialized to `v`.
    pub const fn new(v: usize) -> Self {
        Self {
            cell: AtomicUsize::new(v),
        }
    }

    /// Atomically loads the word (Acquire).
    #[inline]
    pub fn load(&self) -> usize {
        facade_yield();
        self.cell.load(Ordering::Acquire)
    }

    /// Atomically stores `v` (Release).
    #[inline]
    pub fn store(&self, v: usize) {
        facade_yield();
        self.cell.store(v, Ordering::Release);
    }

    /// Full-word compare-and-swap (AcqRel on success, Acquire on failure).
    /// Returns the observed word on failure.
    #[inline]
    pub fn compare_exchange(&self, current: usize, new: usize) -> Result<usize, usize> {
        facade_yield();
        self.cell
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomic add (AcqRel), returning the previous value. Used by the
    /// reclamation subsystem's shared counters, whose interleaving with
    /// the grace-period protocol the deterministic scheduler must control.
    #[inline]
    pub fn fetch_add(&self, v: usize) -> usize {
        facade_yield();
        self.cell.fetch_add(v, Ordering::AcqRel)
    }

    /// Atomic swap (SeqCst), returning the previous value. Exists for the
    /// reclamation pin announce: on x86 a locked RMW is a full barrier, so
    /// it replaces the costlier `store + fence(SeqCst)` pair.
    #[inline]
    pub fn swap_seq_cst(&self, v: usize) -> usize {
        facade_yield();
        self.cell.swap(v, Ordering::SeqCst)
    }
}

/// A value handed from one writer to many readers through a stamp word
/// (a replica log slot): `publish` stores the value, then the stamp, and a
/// reader that sees the stamp reads the value in place. The cell relies on
/// one rule it cannot check, which the log keeps by construction (a
/// position is claimable only once every replica's tail has passed its
/// previous occupant): a writer publishes again only once every reader of
/// the previous stamp is done with it.
pub(crate) struct HandoffCell<T> {
    stamp: FacadeAtomicUsize,
    value: UnsafeCell<Option<T>>,
}

// SAFETY: the cell owns its value, and readers share it (the rule above).
unsafe impl<T: Send> Send for HandoffCell<T> {}
unsafe impl<T: Send + Sync> Sync for HandoffCell<T> {}

impl<T> HandoffCell<T> {
    pub(crate) fn new() -> Self {
        Self {
            stamp: FacadeAtomicUsize::new(0),
            value: UnsafeCell::new(None),
        }
    }

    /// Stores `value` and stamps the cell `stamp`; the caller owns the
    /// cell under the type's rule.
    pub(crate) fn publish(&self, stamp: usize, value: T) {
        // SAFETY: no reader is left (the rule); new ones wait for the stamp.
        unsafe { *self.value.get() = Some(value) };
        self.stamp.store(stamp);
    }

    /// The value stamped `stamp`, once the stamp reads so; `wait` gets
    /// every other stamp read meanwhile.
    pub(crate) fn await_stamp(&self, stamp: usize, mut wait: impl FnMut(usize)) -> &T {
        loop {
            match self.stamp.load() {
                seen if seen == stamp => break,
                seen => wait(seen),
            }
        }
        // SAFETY: the stamp's Acquire load saw the store that followed the
        // value's write, and the value stays until every reader is done.
        unsafe { (*self.value.get()).as_ref() }.expect("a stamped cell holds its value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_flags() {
        let x = Box::into_raw(Box::new(17u64));
        for &marked in &[false, true] {
            for &valid in &[false, true] {
                let w = TagPtr::new(x, marked, valid);
                assert_eq!(w.ptr(), x);
                assert_eq!(w.marked(), marked);
                assert_eq!(w.valid(), valid);
            }
        }
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn clean_is_unmarked_valid() {
        let w = TagPtr::<u64>::null();
        assert!(!w.marked());
        assert!(w.valid());
        assert!(w.ptr().is_null());
    }

    #[test]
    fn with_mark_preserves_ptr_and_valid() {
        let x = Box::into_raw(Box::new(0u64));
        let w = TagPtr::new(x, false, false).with_mark();
        assert!(w.marked());
        assert!(!w.valid());
        assert_eq!(w.ptr(), x);
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn with_ptr_preserves_tags() {
        let a = Box::into_raw(Box::new(0u64));
        let b = Box::into_raw(Box::new(1u64));
        let w = TagPtr::new(a, true, false).with_ptr(b);
        assert_eq!(w.ptr(), b);
        assert!(w.marked());
        assert!(!w.valid());
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn cas_succeeds_only_on_exact_word() {
        let x = Box::into_raw(Box::new(5u64));
        let cell = TaggedAtomic::new(TagPtr::clean(x));
        // Same pointer, different flags: must fail.
        let wrong = TagPtr::new(x, true, true);
        assert!(cell.compare_exchange(wrong, TagPtr::null()).is_err());
        // Exact word: succeeds.
        assert!(cell
            .compare_exchange(TagPtr::clean(x), TagPtr::new(x, true, false))
            .is_ok());
        let seen = cell.load();
        assert!(seen.marked());
        assert!(!seen.valid());
        unsafe { drop(Box::from_raw(x)) };
    }

    #[test]
    fn failed_cas_returns_observed() {
        let cell = TaggedAtomic::<u64>::null();
        let other = TagPtr::<u64>::null().with_mark();
        cell.store(other);
        match cell.compare_exchange(TagPtr::null(), TagPtr::null()) {
            Err(w) => assert!(w.marked()),
            Ok(()) => panic!("CAS must fail"),
        }
    }

    proptest! {
        #[test]
        fn flag_transitions_compose(m1: bool, v1: bool, v2: bool) {
            let w = TagPtr::<u64>::new(std::ptr::null_mut(), m1, v1).with_valid(v2);
            prop_assert_eq!(w.marked(), m1);
            prop_assert_eq!(w.valid(), v2);
            let w2 = w.with_mark();
            prop_assert!(w2.marked());
            prop_assert_eq!(w2.valid(), v2);
        }
    }
}
