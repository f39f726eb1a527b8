//! Per-height size-class arenas for height-truncated nodes.
//!
//! One benchmark thread owns one [`TowerArenas`]: a bank of `MAX_HEIGHT`
//! owner-tagged [`Arena`]s, where class `h` carries `h` trailing tower
//! slots after each node header. Allocating from the class matching a
//! node's `top_level` gives every node exactly the tower it uses — the
//! core of the truncated-tower layout — while preserving the paper's
//! memory model: chunked, first-touched by the owner.
//!
//! Because tower heights are geometrically distributed (P(h) = 2^-(h+1)
//! under the sparse strategy), chunk capacities are halved per class so
//! tall-node classes don't map mostly-empty chunks.
//!
//! # Recycling
//!
//! Every graph reclaims (`skipgraph::reclaim`), so each class also keeps
//! a Treiber-stack **free list** of reclaimed slots, linked through the
//! parked node's `next0` word. Any thread may push (the reclaimer
//! collecting its limbo list returns each slot to the *owning* bank, so
//! recycled memory keeps its first-touch NUMA placement); only the owner
//! pops (allocation goes through the owner's bank), which makes the pop
//! single-consumer and therefore ABA-free without counted pointers: a
//! popped head cannot be pushed back concurrently with another pop.
//!
//! Its unchecked code rests on the arena's invariant: a slot stays mapped while
//! the graph lives, and it is recycled only after its grace period.

use crate::node::{Node, MAX_HEIGHT};
use numa::arena::Arena;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Objects per chunk for class `h`, given the configured base capacity:
/// halved per height, floored so even the tallest class batches some
/// allocations.
fn class_capacity(base: usize, height: usize) -> usize {
    (base >> height).max((base / 16).max(1))
}

/// A lock-free stack of reclaimed slots for one size class, linked through
/// each parked node's `next0` cell. Multi-producer (any collecting
/// thread), single-consumer (the owning thread's allocations).
struct FreeList<K, V> {
    head: AtomicPtr<Node<K, V>>,
    len: AtomicUsize,
}

impl<K, V> FreeList<K, V> {
    fn new() -> Self {
        Self {
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }

    /// Parks a reclaimed slot (payload already released; kind is `Free`).
    fn push(&self, node: NonNull<Node<K, V>>) {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // The slot is unreachable to everyone else, so the plain-ish
            // (atomic, unrecorded) store of the link cannot race.
            unsafe { node.as_ref() }.store_next(0, crate::sync::TagPtr::clean(head));
            match self.head.compare_exchange_weak(
                head,
                node.as_ptr(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(cur) => head = cur,
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops a slot. Owner-thread only (single consumer).
    fn pop(&self) -> Option<NonNull<Node<K, V>>> {
        loop {
            let head = self.head.load(Ordering::Acquire);
            let node = NonNull::new(head)?;
            let next = unsafe { node.as_ref() }.load_next_raw(0).ptr();
            match self
                .head
                .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    return Some(node);
                }
                Err(_) => continue,
            }
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }
}

/// One thread's bank of per-height node arenas (+ free lists).
pub(crate) struct TowerArenas<K, V> {
    classes: [Arena<Node<K, V>>; MAX_HEIGHT],
    free: [FreeList<K, V>; MAX_HEIGHT],
    /// Allocations served from a free list instead of fresh arena slots.
    recycled: AtomicUsize,
    /// Extra zeroed bytes after every tower for the fat level-0 block
    /// (`GraphConfig::block_bytes`); zero for plain single-key nodes.
    block_bytes: usize,
}

impl<K, V> TowerArenas<K, V> {
    /// A bank tagged with `owner`, whose height-0 class maps
    /// `base_capacity`-object chunks (taller classes are smaller). Every
    /// class reserves `block_bytes` extra zeroed bytes after the tower so
    /// blocked maps get their entry array co-allocated in the same slot.
    pub(crate) fn new(owner: u16, base_capacity: usize, block_bytes: usize) -> Self {
        let classes = std::array::from_fn(|h| {
            Arena::with_layout(
                owner,
                class_capacity(base_capacity, h),
                Node::<K, V>::tower_bytes(h) + block_bytes,
            )
        });
        Self {
            classes,
            free: std::array::from_fn(|_| FreeList::new()),
            recycled: AtomicUsize::new(0),
            block_bytes,
        }
    }

    /// Allocates `header` in the size class of its `top_level` and attaches
    /// the trailing tower, preferring a recycled slot from the class's free
    /// list. The returned node has all `top_level + 1` next-slots
    /// initialized to null clean words.
    ///
    /// Callers must be the bank's owning thread (the recycled-slot pop is
    /// single-consumer).
    pub(crate) fn alloc(&self, header: Node<K, V>) -> NonNull<Node<K, V>> {
        let class = header.top_level() as usize;
        debug_assert!(class < MAX_HEIGHT);
        if let Some(slot) = self.free[class].pop() {
            // Safety: the slot was reclaimed from this very class (same
            // trailing-byte layout), its grace period passed before it was
            // pushed, and the pop made this thread its unique owner. The
            // whole trailing region — tower *and* block — is re-zeroed.
            let trailing = Node::<K, V>::tower_bytes(class) + self.block_bytes;
            unsafe { Node::reinit_recycled(slot, header, trailing) };
            self.recycled.fetch_add(1, Ordering::Relaxed);
            return slot;
        }
        let node = self.classes[class].alloc(header);
        // Safety: class `h` slots carry `tower_bytes(h)` zeroed trailing
        // bytes, exactly what attach_tower requires.
        unsafe { Node::attach_tower(node) };
        node
    }

    /// Returns a reclaimed slot (payload released, kind `Free`) to its
    /// size class's free list. Callable from any thread.
    ///
    /// # Safety
    ///
    /// `node` must be a `Free` slot allocated from this bank whose grace
    /// period has passed: no other thread may dereference it ever again
    /// (stale cached pointers only probe its generation word atomically).
    pub(crate) unsafe fn recycle(&self, node: NonNull<Node<K, V>>) {
        let class = node.as_ref().top_level() as usize;
        debug_assert!(class < MAX_HEIGHT);
        self.free[class].push(node);
    }

    /// Total node slots ever carved from the arenas (monotonic; recycled
    /// slots are not double-counted).
    pub(crate) fn allocated(&self) -> usize {
        self.classes.iter().map(|a| a.len()).sum()
    }

    /// Bytes consumed by allocated node slots across all classes.
    pub(crate) fn allocated_bytes(&self) -> usize {
        self.classes.iter().map(|a| a.allocated_bytes()).sum()
    }

    /// Bytes of chunk storage mapped across all classes (first-touch
    /// resident upper bound; chunks are mapped lazily).
    pub(crate) fn mapped_bytes(&self) -> usize {
        self.classes.iter().map(|a| a.mapped_bytes()).sum()
    }

    /// Slots currently parked on this bank's free lists.
    pub(crate) fn free_slots(&self) -> usize {
        self.free.iter().map(FreeList::len).sum()
    }

    /// Bytes represented by the parked free-list slots.
    pub(crate) fn free_bytes(&self) -> usize {
        self.free
            .iter()
            .zip(self.classes.iter())
            .map(|(f, a)| f.len() * a.slot_stride())
            .sum()
    }

    /// Allocations served by recycling a free-listed slot.
    pub(crate) fn recycled(&self) -> usize {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Adds this bank's per-height allocation counts into `out` (no
    /// allocation; callable per sample).
    pub(crate) fn histogram_into(&self, out: &mut [usize; MAX_HEIGHT]) {
        for (h, a) in self.classes.iter().enumerate() {
            out[h] += a.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_from_matching_class_with_working_towers() {
        let bank: TowerArenas<u64, u64> = TowerArenas::new(2, 64, 0);
        let mut nodes = Vec::new();
        for h in 0..MAX_HEIGHT as u8 {
            nodes.push(bank.alloc(Node::new_data(h as u64, 0, 0, 2, h, 0)));
        }
        let mut hist = [0usize; MAX_HEIGHT];
        bank.histogram_into(&mut hist);
        assert_eq!(hist, [1; MAX_HEIGHT]);
        assert_eq!(bank.allocated(), MAX_HEIGHT);
        // Every node can address its full tower.
        for (h, n) in nodes.iter().enumerate() {
            let n = unsafe { n.as_ref() };
            for level in 0..=h {
                assert!(n.load_next_raw(level).ptr().is_null());
            }
        }
    }

    #[test]
    fn truncated_classes_cost_less_than_fixed_towers() {
        let bank: TowerArenas<u64, u64> = TowerArenas::new(0, 64, 0);
        for _ in 0..100 {
            bank.alloc(Node::new_data(1, 1, 0, 0, 0, 0));
        }
        let fixed = 100
            * (std::mem::size_of::<Node<u64, u64>>()
                + Node::<u64, u64>::tower_bytes(MAX_HEIGHT - 1));
        assert!(
            bank.allocated_bytes() * 2 <= fixed,
            "height-0 nodes must cost <= half a fixed-tower node: {} vs {}",
            bank.allocated_bytes(),
            fixed
        );
    }

    #[test]
    fn class_capacity_is_monotone_and_positive() {
        for base in [1usize, 4, 1 << 10, 1 << 16] {
            let mut prev = usize::MAX;
            for h in 0..MAX_HEIGHT {
                let c = class_capacity(base, h);
                assert!(c >= 1);
                assert!(c <= prev);
                prev = c;
            }
        }
    }

    #[test]
    fn recycled_slots_are_reused_in_their_class() {
        let bank: TowerArenas<u64, u64> = TowerArenas::new(0, 64, 0);
        let n = bank.alloc(Node::new_data(1u64, 10, 0, 0, 2, 0));
        let fresh_after_one = bank.allocated();
        unsafe {
            Node::release_payload(n);
            bank.recycle(n);
        }
        assert_eq!(bank.free_slots(), 1);
        assert!(bank.free_bytes() > 0);
        // Same class: the recycled slot is handed back.
        let m = bank.alloc(Node::new_data(2u64, 20, 0, 0, 2, 1));
        assert_eq!(m, n, "slot must be recycled, not freshly carved");
        assert_eq!(bank.recycled(), 1);
        assert_eq!(bank.free_slots(), 0);
        assert_eq!(bank.allocated(), fresh_after_one, "no new slot carved");
        let mr = unsafe { m.as_ref() };
        assert!(mr.is_data());
        assert_eq!(unsafe { *mr.key() }, 2);
        for level in 0..=2usize {
            assert!(mr.load_next_raw(level).ptr().is_null());
        }
        // A different class never sees it.
        let other = bank.alloc(Node::new_data(3u64, 30, 0, 0, 1, 2));
        assert_ne!(other, n);
        assert_eq!(bank.recycled(), 1);
    }

    #[test]
    fn free_list_is_lifo_per_class() {
        let bank: TowerArenas<u64, u64> = TowerArenas::new(0, 64, 0);
        let a = bank.alloc(Node::new_data(1u64, 1, 0, 0, 0, 0));
        let b = bank.alloc(Node::new_data(2u64, 2, 0, 0, 0, 0));
        unsafe {
            Node::release_payload(a);
            bank.recycle(a);
            Node::release_payload(b);
            bank.recycle(b);
        }
        assert_eq!(bank.free_slots(), 2);
        assert_eq!(bank.alloc(Node::new_data(3u64, 3, 0, 0, 0, 1)), b);
        assert_eq!(bank.alloc(Node::new_data(4u64, 4, 0, 0, 0, 1)), a);
        assert_eq!(bank.free_slots(), 0);
        assert_eq!(bank.recycled(), 2);
    }
}
