//! Bit-packing invariants of `TagPtr` / `TaggedAtomic`.
//!
//! The whole correctness story of the shared structure rests on two bits
//! stolen from aligned pointer words: **marked** (bit 0, sticky — a marked
//! reference is immutable, which is what makes relink's single-CAS chain
//! replacement safe) and **invalid** (bit 1, the lazy protocol's logical
//! deletion flag, meaningful on `next[0]` only). These tests pin the
//! packing down exactly.

use proptest::prelude::*;
use skipgraph::sync::{TagPtr, TaggedAtomic};

fn aligned(word: usize) -> *mut u64 {
    (word & !0b11) as *mut u64
}

#[test]
fn flags_round_trip_all_combinations() {
    let p = aligned(0xDEAD_BEE0);
    for marked in [false, true] {
        for valid in [false, true] {
            let w = TagPtr::new(p, marked, valid);
            assert_eq!(w.ptr(), p);
            assert_eq!(w.marked(), marked);
            assert_eq!(w.valid(), valid);
        }
    }
}

#[test]
fn clean_and_null_are_unmarked_valid() {
    let w: TagPtr<u64> = TagPtr::null();
    assert!(w.ptr().is_null());
    assert!(!w.marked());
    assert!(w.valid());
    let p = Box::into_raw(Box::new(7u64));
    let c = TagPtr::clean(p);
    assert_eq!(c.ptr(), p);
    assert!(!c.marked() && c.valid());
    drop(unsafe { Box::from_raw(p) });
}

#[test]
fn with_mark_preserves_pointer_and_validity() {
    for valid in [false, true] {
        let w = TagPtr::new(aligned(0x1000), false, valid);
        let m = w.with_mark();
        assert!(m.marked());
        assert_eq!(m.valid(), valid, "marking must not disturb the valid bit");
        assert_eq!(m.ptr(), w.ptr());
        // Sticky: marking twice is the identity on an already-marked word.
        assert_eq!(m.with_mark(), m);
    }
}

#[test]
fn with_valid_preserves_pointer_and_mark() {
    for marked in [false, true] {
        let w = TagPtr::new(aligned(0x2000), marked, true);
        let inv = w.with_valid(false);
        assert!(!inv.valid());
        assert_eq!(
            inv.marked(),
            marked,
            "validity flips must not disturb the mark"
        );
        assert_eq!(inv.ptr(), w.ptr());
        // Resurrection: flipping back restores the original word exactly.
        assert_eq!(inv.with_valid(true), w);
    }
}

#[test]
fn with_ptr_preserves_both_flags() {
    let w = TagPtr::new(aligned(0x3000), true, false);
    let s = w.with_ptr(aligned(0x4000));
    assert_eq!(s.ptr(), aligned(0x4000));
    assert!(s.marked());
    assert!(!s.valid());
}

#[test]
fn distinct_flags_are_distinct_words() {
    // The four flag states of one pointer are four different CAS-visible
    // words: a stale expectation can never accidentally match.
    let p = aligned(0x5000);
    let words = [
        TagPtr::new(p, false, true).raw(),
        TagPtr::new(p, false, false).raw(),
        TagPtr::new(p, true, true).raw(),
        TagPtr::new(p, true, false).raw(),
    ];
    for i in 0..4 {
        for j in (i + 1)..4 {
            assert_ne!(words[i], words[j]);
        }
    }
}

#[test]
fn cas_on_marked_word_rejects_stale_unmarked_expectation() {
    // "Marked references are immutable" operationally: every mutation in
    // the protocol CASes against an *unmarked* expectation, so once the
    // mark lands no such CAS can succeed again.
    let p = aligned(0x6000);
    let cell: TaggedAtomic<u64> = TaggedAtomic::new(TagPtr::clean(p));
    let clean = cell.load();
    cell.compare_exchange(clean, clean.with_mark()).unwrap();
    let err = cell
        .compare_exchange(clean, TagPtr::clean(aligned(0x7000)))
        .expect_err("stale unmarked expectation must fail against a marked word");
    assert!(
        err.marked(),
        "failed CAS must return the current (marked) word"
    );
    assert_eq!(
        cell.load(),
        clean.with_mark(),
        "the marked word is untouched"
    );
}

#[test]
fn cas_valid_models_logical_delete_and_resurrect() {
    // The paper's casValid: remove flips valid off; a later insert of the
    // same key flips it back on, in place, iff nobody marked it meanwhile.
    let p = aligned(0x8000);
    let cell: TaggedAtomic<u64> = TaggedAtomic::new(TagPtr::clean(p));
    let w = cell.load();
    cell.compare_exchange(w, w.with_valid(false)).unwrap(); // remove
    let dead = cell.load();
    assert!(!dead.valid() && !dead.marked());
    cell.compare_exchange(dead, dead.with_valid(true)).unwrap(); // resurrect
    assert_eq!(cell.load(), w);
}

#[test]
fn store_and_addr() {
    let cell: TaggedAtomic<u64> = TaggedAtomic::null();
    assert_ne!(cell.addr(), 0);
    let w = TagPtr::new(aligned(0x9000), true, true);
    cell.store(w);
    assert_eq!(cell.load(), w);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "pointer too unaligned to tag")]
fn under_aligned_pointer_is_rejected_in_debug() {
    // A pointer with a live low bit would corrupt the flag encoding.
    let _ = TagPtr::new(0x1001 as *mut u64, false, true);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "assertion")]
fn with_ptr_rejects_under_aligned_target_in_debug() {
    let w: TagPtr<u64> = TagPtr::null();
    let _ = w.with_ptr(0x1002 as *mut u64);
}

proptest! {
    #[test]
    fn packing_round_trips_for_any_aligned_pointer(
        word in any::<usize>(),
        marked in any::<bool>(),
        valid in any::<bool>(),
    ) {
        let p = aligned(word);
        let w = TagPtr::new(p, marked, valid);
        prop_assert_eq!(w.ptr(), p);
        prop_assert_eq!(w.marked(), marked);
        prop_assert_eq!(w.valid(), valid);
        // raw() is ptr | flags and nothing else.
        prop_assert_eq!(w.raw() & !0b11, p as usize);
    }
}
