//! The range iterator.

use super::storage::{block_layout_bytes, MAX_BLOCK_CAP};
use super::{BNode, BPtr, BlockedSkipMap};
use crate::graph::PinGuard;
use crate::prefetch::prefetch_read;
use instrument::ThreadCtx;
use numa::arena::CACHE_LINE;
use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::ops::Bound;
use std::ptr::NonNull;

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

/// The most lines a scan prefetches of its next block: a core tracks about
/// ten outstanding misses, and an anchor with a block of `MAX_BLOCK_CAP`
/// `(u64, u64)` entries touches at most six lines.
const SCAN_PREFETCH_LINES: usize = 8;

/// The lines a scan prefetches of each next block: every line an anchor
/// with no tower above level 0 (most sparse anchors) and its block of
/// `cap` entries can touch, wherever its start sits in a line; at most
/// [`SCAN_PREFETCH_LINES`]. One count for the whole scan: a count from
/// each block's own offset in its line varies from block to block, and
/// the mispredicted loop cost more than the extra line.
pub(super) fn scan_prefetch_lines<K, V>(cap: usize) -> usize {
    let bytes = std::mem::size_of::<BNode<K>>() + block_layout_bytes::<K, V>(cap);
    let worst_offset = CACHE_LINE - std::mem::align_of::<BNode<K>>();
    (worst_offset + bytes)
        .div_ceil(CACHE_LINE)
        .min(SCAN_PREFETCH_LINES)
}

/// Prefetches `lines` cache lines from the one holding `p`. Never
/// dereferences `p`.
#[inline]
fn prefetch_lines(p: *const u8, lines: usize) {
    let first = p.wrapping_sub(p as usize % CACHE_LINE);
    for i in 0..lines {
        prefetch_read(first.wrapping_add(i * CACHE_LINE));
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
/// readable. A block's entries are drained from a buffer inside the
/// iterator, in key order, while the next block's lines are prefetched:
/// a scan allocates nothing.
pub struct BlockedRangeIter<'g, K, V> {
    map: &'g BlockedSkipMap<K, V>,
    ctx: &'g ThreadCtx,
    cur: BPtr<K>,
    start: Bound<K>,
    end: Bound<K>,
    /// High-water mark backing the strict-ascent guarantee.
    last: Option<K>,
    /// Current block's entries, ascending by key; `buf[pos..len]` are
    /// still to be yielded and `buf[..len]` is initialized.
    buf: [MaybeUninit<(K, V)>; MAX_BLOCK_CAP],
    pos: usize,
    len: usize,
    /// Lines prefetched of each next block (`scan_prefetch_lines`).
    lines: usize,
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
                .resolve_read(k, &pin, ctx)
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
            buf: [MaybeUninit::uninit(); MAX_BLOCK_CAP],
            pos: 0,
            len: 0,
            lines: scan_prefetch_lines::<K, V>(self.cap),
            visited: 0,
            _pin: pin,
        }
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
            while self.pos < self.len {
                // SAFETY: `buf[..len]` was written by `sorted_entries`.
                let e = unsafe { self.buf[self.pos].assume_init() };
                self.pos += 1;
                if before_start(&e.0, &self.start) {
                    continue;
                }
                if beyond_end(&e.0, &self.end) {
                    self.len = 0;
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
                // SAFETY: `cur` was reached under the scan's pin.
                let next = unsafe { self.map.graph.load_next(self.cur, 0, self.ctx) }.ptr();
                // The next block's lines arrive while this one drains.
                prefetch_lines(next.cast(), self.lines);
                self.len = blk.sorted_entries(w, &mut self.buf).len();
                self.pos = 0;
                self.cur = next;
            } else {
                // SAFETY: as above.
                self.cur = unsafe { self.map.graph.load_next(self.cur, 0, self.ctx) }.ptr();
            }
        }
    }
}
