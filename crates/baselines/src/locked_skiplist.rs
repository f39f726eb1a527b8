//! A lock-based (optimistic lazy) skip list.
//!
//! The paper's evaluation includes "a locked skip list", which is expected
//! to do well under low contention. This is the classic optimistic design
//! (Herlihy–Lev–Luchangco–Shavit): searches are wait-free and lock-free;
//! updates lock the affected predecessors, validate, and apply; removal is
//! lazy (a `marked` flag) with in-place unlinking under locks.

use instrument::ThreadCtx;
use numa::arena::Arena;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::{ConcurrentMap, MapHandle};
use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

#[derive(PartialEq, Eq, Clone, Copy)]
enum Kind {
    Head,
    Data,
    Tail,
}

struct LkNode<K, V> {
    lock: Mutex<()>,
    next: Box<[AtomicPtr<LkNode<K, V>>]>,
    key: MaybeUninit<K>,
    value: MaybeUninit<V>,
    kind: Kind,
    owner: u16,
    top_level: u8,
    marked: AtomicBool,
    fully_linked: AtomicBool,
}

impl<K, V> LkNode<K, V> {
    fn data(key: K, value: V, owner: u16, top_level: u8) -> Self {
        Self {
            lock: Mutex::new(()),
            next: (0..=top_level)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            key: MaybeUninit::new(key),
            value: MaybeUninit::new(value),
            kind: Kind::Data,
            owner,
            top_level,
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
        }
    }

    fn sentinel(kind: Kind, levels: usize) -> Self {
        Self {
            lock: Mutex::new(()),
            next: (0..levels)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            kind,
            owner: 0,
            top_level: (levels - 1) as u8,
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(true),
        }
    }

    #[inline]
    fn cmp_key(&self, k: &K) -> CmpOrdering
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
    fn load_next(&self, level: usize, ctx: &ThreadCtx) -> *mut LkNode<K, V> {
        if ctx.is_recording() {
            ctx.record_read(self.owner, &self.next[level] as *const _ as usize);
        }
        self.next[level].load(Ordering::Acquire)
    }
}

impl<K, V> Drop for LkNode<K, V> {
    fn drop(&mut self) {
        if self.kind == Kind::Data {
            unsafe {
                self.key.assume_init_drop();
                self.value.assume_init_drop();
            }
        }
    }
}

type Ptr<K, V> = *mut LkNode<K, V>;

/// An optimistic lazy lock-based skip list.
pub struct LockedSkipList<K, V> {
    levels: usize,
    head: Ptr<K, V>,
    arenas: Box<[Arena<LkNode<K, V>>]>,
    _sentinels: Arena<LkNode<K, V>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for LockedSkipList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for LockedSkipList<K, V> {}

impl<K: Ord, V> LockedSkipList<K, V> {
    /// Builds an empty list with `levels` levels (the paper gives skip
    /// lists `log2(key-space)` levels).
    pub fn new(threads: usize, levels: usize, chunk_capacity: usize) -> Self {
        assert!(levels >= 1 && threads >= 1);
        let sentinels = Arena::with_chunk_capacity(0, 8);
        let tail = sentinels
            .alloc(LkNode::sentinel(Kind::Tail, levels))
            .as_ptr();
        let head = sentinels.alloc(LkNode::sentinel(Kind::Head, levels));
        for level in 0..levels {
            unsafe { head.as_ref() }.next[level].store(tail, Ordering::Release);
        }
        let arenas = (0..threads)
            .map(|t| Arena::with_chunk_capacity(t as u16, chunk_capacity))
            .collect();
        Self {
            levels,
            head: head.as_ptr(),
            arenas,
            _sentinels: sentinels,
        }
    }

    /// Wait-free search filling per-level predecessors/successors; returns
    /// the highest level at which the key was found, if any.
    fn find(
        &self,
        key: &K,
        preds: &mut [Ptr<K, V>],
        succs: &mut [Ptr<K, V>],
        ctx: &ThreadCtx,
    ) -> Option<usize> {
        let mut found = None;
        let mut prev = self.head;
        let mut visited = 0u64;
        for level in (0..self.levels).rev() {
            let mut cur = unsafe { &*prev }.load_next(level, ctx);
            loop {
                let cur_ref = unsafe { &*cur };
                visited += 1;
                if cur_ref.cmp_key(key) == CmpOrdering::Less {
                    prev = cur;
                    cur = cur_ref.load_next(level, ctx);
                } else {
                    break;
                }
            }
            if found.is_none() && unsafe { &*cur }.cmp_key(key) == CmpOrdering::Equal {
                found = Some(level);
            }
            preds[level] = prev;
            succs[level] = cur;
        }
        ctx.record_search(visited);
        found
    }

    #[allow(clippy::needless_range_loop)] // levels index preds/succs in lockstep
    fn insert(&self, key: K, value: V, top_level: u8, ctx: &ThreadCtx) -> bool {
        let mut preds = vec![std::ptr::null_mut(); self.levels];
        let mut succs = vec![std::ptr::null_mut(); self.levels];
        loop {
            if let Some(_lvl) = self.find(&key, &mut preds, &mut succs, ctx) {
                let found = unsafe { &*succs[0] };
                if found.cmp_key(&key) == CmpOrdering::Equal {
                    if !found.marked.load(Ordering::Acquire) {
                        // Wait for the in-flight insertion to complete, then
                        // report a duplicate.
                        while !found.fully_linked.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                        return false;
                    }
                    // Marked duplicate: retry until it is unlinked.
                    continue;
                }
            }
            // Lock and validate predecessors bottom-up.
            let mut guards = Vec::with_capacity(top_level as usize + 1);
            let mut valid = true;
            let mut last_locked: Ptr<K, V> = std::ptr::null_mut();
            for level in 0..=top_level as usize {
                let pred = preds[level];
                if pred != last_locked {
                    guards.push(unsafe { &*pred }.lock.lock());
                    last_locked = pred;
                }
                let pred_ref = unsafe { &*pred };
                let succ = succs[level];
                valid = !pred_ref.marked.load(Ordering::Acquire)
                    && !unsafe { &*succ }.marked.load(Ordering::Acquire)
                    && pred_ref.next[level].load(Ordering::Acquire) == succ;
                if !valid {
                    break;
                }
            }
            if !valid {
                drop(guards);
                continue;
            }
            let node =
                self.arenas[ctx.id() as usize].alloc(LkNode::data(key, value, ctx.id(), top_level));
            let node_ref = unsafe { node.as_ref() };
            for level in 0..=top_level as usize {
                node_ref.next[level].store(succs[level], Ordering::Release);
            }
            for level in 0..=top_level as usize {
                unsafe { &*preds[level] }.next[level].store(node.as_ptr(), Ordering::Release);
            }
            node_ref.fully_linked.store(true, Ordering::Release);
            return true;
        }
    }

    #[allow(clippy::needless_range_loop)] // levels index preds/succs in lockstep
    fn remove(&self, key: &K, ctx: &ThreadCtx) -> bool {
        let mut preds = vec![std::ptr::null_mut(); self.levels];
        let mut succs = vec![std::ptr::null_mut(); self.levels];
        let mut victim_locked = false;
        let mut victim: Ptr<K, V> = std::ptr::null_mut();
        loop {
            let found = self.find(key, &mut preds, &mut succs, ctx);
            if !victim_locked {
                match found {
                    Some(level) => {
                        let cand = succs[0];
                        let cand_ref = unsafe { &*cand };
                        let ready = cand_ref.fully_linked.load(Ordering::Acquire)
                            && cand_ref.top_level as usize == level
                            && !cand_ref.marked.load(Ordering::Acquire);
                        if !ready {
                            if cand_ref.marked.load(Ordering::Acquire) {
                                return false;
                            }
                            continue; // not fully linked yet; retry
                        }
                        victim = cand;
                        // Lock the victim and mark it.
                        std::mem::forget(unsafe { &*victim }.lock.lock());
                        if unsafe { &*victim }.marked.load(Ordering::Acquire) {
                            unsafe { (*victim).lock.force_unlock() };
                            return false;
                        }
                        unsafe { &*victim }.marked.store(true, Ordering::Release);
                        victim_locked = true;
                    }
                    None => return false,
                }
            }
            // Lock and validate predecessors.
            let top = unsafe { &*victim }.top_level as usize;
            let mut guards = Vec::with_capacity(top + 1);
            let mut valid = true;
            let mut last_locked: Ptr<K, V> = std::ptr::null_mut();
            for level in 0..=top {
                let pred = preds[level];
                if pred != last_locked {
                    guards.push(unsafe { &*pred }.lock.lock());
                    last_locked = pred;
                }
                let pred_ref = unsafe { &*pred };
                valid = !pred_ref.marked.load(Ordering::Acquire)
                    && pred_ref.next[level].load(Ordering::Acquire) == victim;
                if !valid {
                    break;
                }
            }
            if !valid {
                drop(guards);
                continue; // re-find and retry unlinking
            }
            for level in (0..=top).rev() {
                let succ = unsafe { &*victim }.next[level].load(Ordering::Acquire);
                unsafe { &*preds[level] }.next[level].store(succ, Ordering::Release);
            }
            unsafe { (*victim).lock.force_unlock() };
            return true;
        }
    }

    fn contains(&self, key: &K, ctx: &ThreadCtx) -> bool {
        let mut preds = vec![std::ptr::null_mut(); self.levels];
        let mut succs = vec![std::ptr::null_mut(); self.levels];
        if self.find(key, &mut preds, &mut succs, ctx).is_none() {
            return false;
        }
        let node = unsafe { &*succs[0] };
        node.cmp_key(key) == CmpOrdering::Equal
            && node.fully_linked.load(Ordering::Acquire)
            && !node.marked.load(Ordering::Acquire)
    }

    /// Live keys in ascending order (diagnostics).
    pub fn keys(&self, ctx: &ThreadCtx) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        let mut cur = unsafe { &*self.head }.load_next(0, ctx);
        loop {
            let node = unsafe { &*cur };
            if node.kind != Kind::Data {
                break;
            }
            if node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire) {
                out.push(unsafe { node.key.assume_init_ref() }.clone());
            }
            cur = node.load_next(0, ctx);
        }
        out
    }
}

/// Per-thread handle to a [`LockedSkipList`].
pub struct LockedHandle<'l, K, V> {
    list: &'l LockedSkipList<K, V>,
    ctx: ThreadCtx,
    rng: SmallRng,
}

impl<K, V> ConcurrentMap<K, V> for LockedSkipList<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    type Handle<'a>
        = LockedHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        let seed = 0x10cced ^ ((ctx.id() as u64) << 18);
        LockedHandle {
            list: self,
            ctx,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<'l, K: Ord, V> MapHandle<K, V> for LockedHandle<'l, K, V> {
    fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        let max = (self.list.levels - 1) as u8;
        let mut h = 0u8;
        while h < max && self.rng.gen::<bool>() {
            h += 1;
        }
        self.list.insert(key, value, h, &self.ctx)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        self.list.remove(key, &self.ctx)
    }

    fn contains(&mut self, key: &K) -> bool {
        self.ctx.record_op();
        self.list.contains(key, &self.ctx)
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sequential_model_check() {
        let l: LockedSkipList<u64, u64> = LockedSkipList::new(2, 10, 1024);
        let mut h = l.pin(ThreadCtx::plain(0));
        let mut model = BTreeSet::new();
        let mut state = 99u64;
        for _ in 0..3000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) % 150;
            match state % 3 {
                0 => assert_eq!(h.insert(k, k), model.insert(k)),
                1 => assert_eq!(h.remove(&k), model.remove(&k)),
                _ => assert_eq!(h.contains(&k), model.contains(&k)),
            }
        }
        assert_eq!(
            l.keys(&ThreadCtx::plain(0)),
            model.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_mixed() {
        use std::collections::HashMap;
        let l: LockedSkipList<u64, u64> = LockedSkipList::new(4, 10, 1024);
        let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
            (0..4u16)
                .map(|t| {
                    let l = &l;
                    s.spawn(move || {
                        let mut h = l.pin(ThreadCtx::plain(t));
                        let mut b: HashMap<u64, i64> = HashMap::new();
                        let mut state = 0xFEED ^ ((t as u64) << 9);
                        for _ in 0..2000 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let k = state % 48;
                            if state.is_multiple_of(2) {
                                if h.insert(k, k) {
                                    *b.entry(k).or_default() += 1;
                                }
                            } else if h.remove(&k) {
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
        let mut h = l.pin(ThreadCtx::plain(0));
        for k in 0..48u64 {
            let v = total.get(&k).copied().unwrap_or(0);
            assert!(v == 0 || v == 1, "key {k}: {v}");
            assert_eq!(h.contains(&k), v == 1, "key {k}");
        }
    }

    #[test]
    fn duplicate_insert_waits_for_full_link() {
        let l: LockedSkipList<u64, u64> = LockedSkipList::new(2, 6, 64);
        let mut h = l.pin(ThreadCtx::plain(0));
        assert!(h.insert(1, 1));
        assert!(!h.insert(1, 2));
        assert!(h.remove(&1));
        assert!(h.insert(1, 3));
    }
}
