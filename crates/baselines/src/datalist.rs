//! The shared *data layer*: a sorted lock-free linked list with logical
//! (mark-based) deletion.
//!
//! This is the common substrate of the index-based competitors: No Hotspot,
//! Rotating, and NUMASK all keep the dataset in one bottom-level list and
//! layer index structures above it, deferring physical removal to
//! background maintenance. The list is Harris-style; traversal helping
//! (physically unlinking marked nodes, one CAS per chain — the relink
//! optimization again) is optional so that "no hot spot"-style read-only
//! traversals are expressible.

use instrument::ThreadCtx;
use numa::arena::Arena;
use skipgraph::sync::{TagPtr, TaggedAtomic};
use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::ptr::NonNull;

#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub(crate) enum Kind {
    Head,
    Data,
    Tail,
}

/// A node of the data layer. Index layers point directly at data nodes.
pub struct DataNode<K, V> {
    pub(crate) next: TaggedAtomic<DataNode<K, V>>,
    key: MaybeUninit<K>,
    value: MaybeUninit<V>,
    pub(crate) kind: Kind,
    pub(crate) owner: u16,
}

impl<K, V> DataNode<K, V> {
    fn data(key: K, value: V, owner: u16) -> Self {
        Self {
            next: TaggedAtomic::null(),
            key: MaybeUninit::new(key),
            value: MaybeUninit::new(value),
            kind: Kind::Data,
            owner,
        }
    }

    fn sentinel(kind: Kind) -> Self {
        Self {
            next: TaggedAtomic::null(),
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            kind,
            owner: 0,
        }
    }

    /// # Safety
    ///
    /// Data nodes only.
    pub(crate) unsafe fn key(&self) -> &K {
        debug_assert_eq!(self.kind, Kind::Data);
        self.key.assume_init_ref()
    }

    #[inline]
    pub(crate) fn cmp_key(&self, k: &K) -> CmpOrdering
    where
        K: Ord,
    {
        match self.kind {
            Kind::Head => CmpOrdering::Less,
            Kind::Tail => CmpOrdering::Greater,
            Kind::Data => unsafe { self.key.assume_init_ref() }.cmp(k),
        }
    }

    #[inline]
    pub(crate) fn load_next(&self, ctx: &ThreadCtx) -> TagPtr<DataNode<K, V>> {
        if ctx.is_recording() {
            ctx.record_read(self.owner, self.next.addr());
        }
        self.next.load()
    }

    #[inline]
    fn cas_next(
        &self,
        cur: TagPtr<DataNode<K, V>>,
        new: TagPtr<DataNode<K, V>>,
        ctx: &ThreadCtx,
    ) -> Result<(), TagPtr<DataNode<K, V>>> {
        let r = self.next.compare_exchange(cur, new);
        if ctx.is_recording() {
            ctx.record_cas(self.owner, self.next.addr(), r.is_ok());
        }
        r
    }

    /// Whether the node is logically deleted.
    #[inline]
    pub(crate) fn is_marked(&self) -> bool {
        self.next.load().marked()
    }
}

impl<K, V> Drop for DataNode<K, V> {
    fn drop(&mut self) {
        if self.kind == Kind::Data {
            unsafe {
                self.key.assume_init_drop();
                self.value.assume_init_drop();
            }
        }
    }
}

pub(crate) type DataPtr<K, V> = *mut DataNode<K, V>;

/// `(pred, curr, middle)` returned by [`DataList::search`].
pub(crate) type SearchTriple<K, V> = (DataPtr<K, V>, DataPtr<K, V>, TagPtr<DataNode<K, V>>);

/// The sorted lock-free data list.
pub struct DataList<K, V> {
    head: DataPtr<K, V>,
    arenas: Box<[Arena<DataNode<K, V>>]>,
    _sentinels: Arena<DataNode<K, V>>,
    /// Whether foreground traversals physically unlink marked chains
    /// (Harris) or leave cleanup to background maintenance (No Hotspot).
    pub(crate) foreground_unlink: bool,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for DataList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for DataList<K, V> {}

impl<K: Ord, V> DataList<K, V> {
    /// Builds an empty list for `threads` registered threads.
    pub fn new(threads: usize, chunk_capacity: usize, foreground_unlink: bool) -> Self {
        let sentinels = Arena::with_chunk_capacity(0, 4);
        let tail = sentinels.alloc(DataNode::sentinel(Kind::Tail)).as_ptr();
        let head = sentinels.alloc(DataNode::sentinel(Kind::Head));
        unsafe { head.as_ref() }.next.store(TagPtr::clean(tail));
        let arenas = (0..threads)
            .map(|t| Arena::with_chunk_capacity(t as u16, chunk_capacity))
            .collect();
        Self {
            head: head.as_ptr(),
            arenas,
            _sentinels: sentinels,
            foreground_unlink,
        }
    }

    pub(crate) fn head(&self) -> DataPtr<K, V> {
        self.head
    }

    /// Finds `(pred, curr, middle)` such that `pred.key < key <= curr.key`,
    /// starting from `start` (a node with key `< key`; the head or an index
    /// hit). With `unlink`, marked chains are snipped along the way.
    pub(crate) fn search(
        &self,
        key: &K,
        start: DataPtr<K, V>,
        unlink: bool,
        ctx: &ThreadCtx,
    ) -> SearchTriple<K, V> {
        let mut visited = 0u64;
        // A stale index hit may point at a logically deleted node; its
        // `next` is frozen (marked), so it can never serve as a CAS-able
        // predecessor — and without foreground unlinking it stays that way.
        // Enter from the head instead (the head is never marked).
        let mut prev = if unsafe { &*start }.kind == Kind::Data && unsafe { &*start }.is_marked() {
            self.head
        } else {
            start
        };
        loop {
            let prev_ref = unsafe { &*prev };
            let mut middle = prev_ref.load_next(ctx);
            let mut cur = middle.ptr();
            // Walk past logically deleted nodes.
            let mut skipped = false;
            loop {
                let node = unsafe { &*cur };
                if node.kind != Kind::Data {
                    break;
                }
                let w = node.load_next(ctx);
                if !w.marked() {
                    break;
                }
                visited += 1;
                cur = w.ptr();
                skipped = true;
            }
            if skipped && unlink && !middle.marked() {
                match prev_ref.cas_next(middle, middle.with_ptr(cur), ctx) {
                    Ok(()) => middle = middle.with_ptr(cur),
                    Err(_) => continue,
                }
            }
            let cur_ref = unsafe { &*cur };
            visited += 1;
            if cur_ref.cmp_key(key) == CmpOrdering::Less {
                prev = cur;
                continue;
            }
            if middle.marked() && unsafe { &*prev }.kind == Kind::Data {
                // The predecessor was deleted under us; restart from the
                // head so callers always get a usable predecessor.
                prev = self.head;
                continue;
            }
            ctx.record_search(visited);
            return (prev, cur, middle);
        }
    }

    /// Inserts, searching from `start`. Returns `false` on a present
    /// (unmarked) key.
    pub(crate) fn insert_from(
        &self,
        key: K,
        value: V,
        start: DataPtr<K, V>,
        ctx: &ThreadCtx,
    ) -> bool {
        let mut pending = Some((key, value));
        let mut node: Option<NonNull<DataNode<K, V>>> = None;
        loop {
            let key_ref: &K = match node {
                Some(n) => unsafe { (*n.as_ptr()).key.assume_init_ref() },
                None => &pending.as_ref().expect("pending").0,
            };
            let (pred, cur, middle) = self.search(key_ref, start, self.foreground_unlink, ctx);
            let cur_ref = unsafe { &*cur };
            if cur_ref.kind == Kind::Data
                && cur_ref.cmp_key(key_ref) == CmpOrdering::Equal
                && !cur_ref.is_marked()
            {
                return false; // live duplicate
            }
            if middle.marked() {
                continue; // predecessor deleted; retry
            }
            let n = *node.get_or_insert_with(|| {
                let (k, v) = pending.take().expect("pending kv");
                self.arenas[ctx.id() as usize].alloc(DataNode::data(k, v, ctx.id()))
            });
            unsafe { n.as_ref() }.next.store(TagPtr::clean(cur));
            if unsafe { &*pred }
                .cas_next(middle, middle.with_ptr(n.as_ptr()), ctx)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Logically deletes `key` (marks its node). Returns whether this call
    /// won the removal.
    pub(crate) fn remove_from(&self, key: &K, start: DataPtr<K, V>, ctx: &ThreadCtx) -> bool {
        loop {
            let (_, cur, _) = self.search(key, start, self.foreground_unlink, ctx);
            let node = unsafe { &*cur };
            if node.kind != Kind::Data || node.cmp_key(key) != CmpOrdering::Equal {
                return false;
            }
            loop {
                let w = node.load_next(ctx);
                if w.marked() {
                    break; // lost; outer loop re-checks for another holder
                }
                if node.cas_next(w, w.with_mark(), ctx).is_ok() {
                    if self.foreground_unlink {
                        let _ = self.search(key, start, true, ctx);
                    }
                    return true;
                }
            }
        }
    }

    /// Whether `key` is present, searching from `start`.
    pub(crate) fn contains_from(&self, key: &K, start: DataPtr<K, V>, ctx: &ThreadCtx) -> bool {
        let (_, cur, _) = self.search(key, start, false, ctx);
        let node = unsafe { &*cur };
        node.kind == Kind::Data && node.cmp_key(key) == CmpOrdering::Equal && !node.is_marked()
    }

    /// Background sweep: physically unlinks every marked chain (one CAS per
    /// chain). Returns the number of unlinked nodes.
    pub(crate) fn sweep(&self, ctx: &ThreadCtx) -> usize {
        let mut removed = 0;
        let mut prev = self.head;
        loop {
            let prev_ref = unsafe { &*prev };
            let middle = prev_ref.load_next(ctx);
            let mut cur = middle.ptr();
            let mut chain = 0;
            loop {
                let node = unsafe { &*cur };
                if node.kind != Kind::Data {
                    break;
                }
                let w = node.load_next(ctx);
                if !w.marked() {
                    break;
                }
                chain += 1;
                cur = w.ptr();
            }
            if chain > 0
                && !middle.marked()
                && prev_ref.cas_next(middle, middle.with_ptr(cur), ctx).is_ok()
            {
                removed += chain;
            }
            let node = unsafe { &*cur };
            if node.kind != Kind::Data {
                return removed;
            }
            prev = cur;
        }
    }

    /// The live (unmarked) data nodes in key order, as raw pointers. Used
    /// by maintenance threads to rebuild index layers.
    pub(crate) fn live_nodes(&self, ctx: &ThreadCtx) -> Vec<DataPtr<K, V>> {
        let mut out = Vec::new();
        let mut cur = unsafe { &*self.head }.load_next(ctx).ptr();
        loop {
            let node = unsafe { &*cur };
            if node.kind != Kind::Data {
                break;
            }
            let w = node.load_next(ctx);
            if !w.marked() {
                out.push(cur);
            }
            cur = w.ptr();
        }
        out
    }

    /// Live keys in ascending order (diagnostics).
    pub fn keys(&self, ctx: &ThreadCtx) -> Vec<K>
    where
        K: Clone,
    {
        self.live_nodes(ctx)
            .into_iter()
            .map(|p| unsafe { (*p).key() }.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ThreadCtx {
        ThreadCtx::plain(0)
    }

    #[test]
    fn insert_remove_contains() {
        let l: DataList<u64, u64> = DataList::new(2, 256, true);
        let c = ctx();
        assert!(l.insert_from(5, 50, l.head(), &c));
        assert!(!l.insert_from(5, 51, l.head(), &c));
        assert!(l.contains_from(&5, l.head(), &c));
        assert!(l.remove_from(&5, l.head(), &c));
        assert!(!l.remove_from(&5, l.head(), &c));
        assert!(!l.contains_from(&5, l.head(), &c));
        assert!(l.insert_from(5, 52, l.head(), &c));
        assert!(l.contains_from(&5, l.head(), &c));
    }

    #[test]
    fn sweep_unlinks_marked_chains() {
        let l: DataList<u64, u64> = DataList::new(2, 256, false); // no foreground unlink
        let c = ctx();
        for k in 0..50u64 {
            assert!(l.insert_from(k, k, l.head(), &c));
        }
        for k in (0..50u64).step_by(2) {
            assert!(l.remove_from(&k, l.head(), &c));
        }
        let removed = l.sweep(&c);
        assert_eq!(removed, 25);
        assert_eq!(l.keys(&c).len(), 25);
        assert_eq!(l.sweep(&c), 0, "second sweep finds nothing");
    }

    #[test]
    fn ordered_keys() {
        let l: DataList<u64, u64> = DataList::new(2, 256, true);
        let c = ctx();
        for k in [9u64, 3, 7, 1, 5] {
            l.insert_from(k, k, l.head(), &c);
        }
        assert_eq!(l.keys(&c), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn search_from_interior_start() {
        let l: DataList<u64, u64> = DataList::new(2, 256, true);
        let c = ctx();
        for k in 0..20u64 {
            l.insert_from(k, k, l.head(), &c);
        }
        let nodes = l.live_nodes(&c);
        let start = nodes[10]; // key 10
        assert!(l.contains_from(&15, start, &c));
        assert!(l.insert_from(100, 100, start, &c));
        assert!(l.remove_from(&15, start, &c));
        assert!(!l.contains_from(&15, start, &c));
    }

    #[test]
    fn concurrent_balance() {
        use std::collections::HashMap;
        let l: DataList<u64, u64> = DataList::new(4, 1024, true);
        let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
            (0..4u16)
                .map(|t| {
                    let l = &l;
                    s.spawn(move || {
                        let c = ThreadCtx::plain(t);
                        let mut b: HashMap<u64, i64> = HashMap::new();
                        let mut state = 77u64 ^ ((t as u64) << 8);
                        for _ in 0..2000 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let k = state % 32;
                            if state.is_multiple_of(2) {
                                if l.insert_from(k, k, l.head(), &c) {
                                    *b.entry(k).or_default() += 1;
                                }
                            } else if l.remove_from(&k, l.head(), &c) {
                                *b.entry(k).or_default() -= 1;
                            }
                        }
                        b
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        let mut total: HashMap<u64, i64> = HashMap::new();
        for b in balances {
            for (k, v) in b {
                *total.entry(k).or_default() += v;
            }
        }
        let c = ctx();
        for k in 0..32u64 {
            let v = total.get(&k).copied().unwrap_or(0);
            assert!(v == 0 || v == 1);
            assert_eq!(l.contains_from(&k, l.head(), &c), v == 1, "key {k}");
        }
    }
}
