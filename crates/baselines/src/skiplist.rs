//! A lock-free skip list (Fraser/Herlihy–Shavit lineage) with the paper's
//! relink optimization.
//!
//! This is the "skip list" the paper instruments for Table 1 and Fig. 9:
//! a textbook lock-free skip list whose searches physically remove marked
//! nodes, upgraded to remove *sequences* of marked references with a single
//! CAS ("a trivial optimization that we will call relink optimization").
//! The optimization can be disabled ([`SkipListConfig::relink`]) for the
//! ablation benchmark.
//!
//! Unlike the skip graph, towers have probabilistic heights (p = 1/2) and
//! there is no partitioning: every thread traverses and repairs the same
//! lists — the contention and locality behaviour the paper improves upon.

use instrument::ThreadCtx;
use numa::arena::Arena;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::sync::{TagPtr, TaggedAtomic};
use skipgraph::{ConcurrentMap, MapHandle};
use std::cmp::Ordering as CmpOrdering;
use std::mem::MaybeUninit;
use std::ptr::NonNull;

/// Configuration of a [`LockFreeSkipList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipListConfig {
    /// Number of registered threads.
    pub num_threads: usize,
    /// Number of levels (the paper gives non-layered skip lists
    /// `log2(key-space)` levels).
    pub levels: usize,
    /// Enable the relink (chain) optimization; disabled, marked nodes are
    /// unlinked one CAS at a time (the textbook protocol).
    pub relink: bool,
    /// Objects per arena chunk.
    pub chunk_capacity: usize,
}

impl SkipListConfig {
    /// Defaults: `levels = log2(key_space)`, relink on.
    pub fn new(num_threads: usize, key_space: u64) -> Self {
        assert!(num_threads > 0);
        let levels = (64 - key_space.max(2).leading_zeros() as usize).clamp(2, 24);
        Self {
            num_threads,
            levels,
            relink: true,
            chunk_capacity: numa::arena::DEFAULT_CHUNK_CAPACITY,
        }
    }

    /// Toggles the relink optimization.
    pub fn relink(mut self, on: bool) -> Self {
        self.relink = on;
        self
    }

    /// Overrides the arena chunk capacity.
    pub fn chunk_capacity(mut self, objects: usize) -> Self {
        assert!(objects > 0);
        self.chunk_capacity = objects;
        self
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Kind {
    Head,
    Data,
    Tail,
}

struct SlNode<K, V> {
    tower: Box<[TaggedAtomic<SlNode<K, V>>]>,
    key: MaybeUninit<K>,
    value: MaybeUninit<V>,
    kind: Kind,
    owner: u16,
    top_level: u8,
}

impl<K, V> SlNode<K, V> {
    fn data(key: K, value: V, owner: u16, top_level: u8) -> Self {
        Self {
            tower: (0..=top_level).map(|_| TaggedAtomic::null()).collect(),
            key: MaybeUninit::new(key),
            value: MaybeUninit::new(value),
            kind: Kind::Data,
            owner,
            top_level,
        }
    }

    fn sentinel(kind: Kind, levels: usize) -> Self {
        Self {
            tower: (0..levels).map(|_| TaggedAtomic::null()).collect(),
            key: MaybeUninit::uninit(),
            value: MaybeUninit::uninit(),
            kind,
            owner: 0,
            top_level: (levels - 1) as u8,
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
    fn load(&self, level: usize, ctx: &ThreadCtx) -> TagPtr<SlNode<K, V>> {
        if ctx.is_recording() {
            ctx.record_read(self.owner, self.tower[level].addr());
        }
        self.tower[level].load()
    }

    #[inline]
    fn cas(
        &self,
        level: usize,
        cur: TagPtr<SlNode<K, V>>,
        new: TagPtr<SlNode<K, V>>,
        ctx: &ThreadCtx,
    ) -> Result<(), TagPtr<SlNode<K, V>>> {
        let r = self.tower[level].compare_exchange(cur, new);
        if ctx.is_recording() {
            ctx.record_cas(self.owner, self.tower[level].addr(), r.is_ok());
        }
        r
    }
}

impl<K, V> Drop for SlNode<K, V> {
    fn drop(&mut self) {
        if self.kind == Kind::Data {
            unsafe {
                self.key.assume_init_drop();
                self.value.assume_init_drop();
            }
        }
    }
}

type Ptr<K, V> = *mut SlNode<K, V>;

struct Found<K, V> {
    preds: Vec<Ptr<K, V>>,
    middles: Vec<TagPtr<SlNode<K, V>>>,
    succs: Vec<Ptr<K, V>>,
    found: bool,
}

/// A lock-free skip list with optional relink optimization.
pub struct LockFreeSkipList<K, V> {
    config: SkipListConfig,
    head: Ptr<K, V>,
    arenas: Box<[Arena<SlNode<K, V>>]>,
    _sentinels: Arena<SlNode<K, V>>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for LockFreeSkipList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for LockFreeSkipList<K, V> {}

impl<K: Ord, V> LockFreeSkipList<K, V> {
    /// Builds an empty skip list.
    pub fn new(config: SkipListConfig) -> Self {
        let sentinels = Arena::with_chunk_capacity(0, 8);
        let tail = sentinels
            .alloc(SlNode::sentinel(Kind::Tail, config.levels))
            .as_ptr();
        let head = sentinels
            .alloc(SlNode::sentinel(Kind::Head, config.levels))
            .as_ptr();
        for level in 0..config.levels {
            unsafe { &*head }.tower[level].store(TagPtr::clean(tail));
        }
        let arenas = (0..config.num_threads)
            .map(|t| Arena::with_chunk_capacity(t as u16, config.chunk_capacity))
            .collect();
        Self {
            config,
            head,
            arenas,
            _sentinels: sentinels,
        }
    }

    /// The configuration the list was built with.
    pub fn config(&self) -> &SkipListConfig {
        &self.config
    }

    fn help_mark(&self, node: &SlNode<K, V>, level: usize, ctx: &ThreadCtx) {
        loop {
            let w = node.load(level, ctx);
            if w.marked() {
                return;
            }
            let _ = node.cas(level, w, w.with_mark(), ctx);
        }
    }

    /// Search identifying per-level predecessors/successors. With
    /// `unlink`, marked nodes (or whole chains under `relink`) are
    /// physically removed as they are passed.
    fn search(&self, key: &K, unlink: bool, ctx: &ThreadCtx) -> Found<K, V> {
        let levels = self.config.levels;
        let mut visited = 0u64;
        let mut out = Found {
            preds: vec![std::ptr::null_mut(); levels],
            middles: vec![TagPtr::null(); levels],
            succs: vec![std::ptr::null_mut(); levels],
            found: false,
        };
        let mut prev = self.head;
        for level in (0..levels).rev() {
            loop {
                let prev_ref = unsafe { &*prev };
                let mut middle = prev_ref.load(level, ctx);
                // Walk the marked chain.
                let mut cur = middle.ptr();
                let mut chain_end = cur;
                let mut skipped = false;
                loop {
                    let node = unsafe { &*chain_end };
                    if node.kind != Kind::Data {
                        break;
                    }
                    let w = node.load(level, ctx);
                    if !w.marked() {
                        // A node marked at 0 but not yet at this level is
                        // logically deleted: freeze the level and skip.
                        if level > 0 && node.load(0, ctx).marked() {
                            self.help_mark(node, level, ctx);
                        } else {
                            break;
                        }
                    }
                    visited += 1;
                    chain_end = node.load(level, ctx).ptr();
                    skipped = true;
                    if !self.config.relink && unlink {
                        // Textbook protocol: unlink one node per CAS.
                        if prev_ref
                            .cas(level, middle, middle.with_ptr(chain_end), ctx)
                            .is_err()
                        {
                            break;
                        }
                        middle = middle.with_ptr(chain_end);
                    }
                }
                cur = chain_end;
                if skipped && unlink && self.config.relink && !middle.marked() {
                    match prev_ref.cas(level, middle, middle.with_ptr(cur), ctx) {
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
                out.preds[level] = prev;
                out.middles[level] = middle;
                out.succs[level] = cur;
                break;
            }
        }
        let s0 = unsafe { &*out.succs[0] };
        out.found = s0.kind == Kind::Data
            && s0.cmp_key(key) == CmpOrdering::Equal
            && !s0.load(0, ctx).marked();
        ctx.record_search(visited);
        out
    }

    fn insert(&self, key: K, value: V, top_level: u8, ctx: &ThreadCtx) -> bool {
        let mut pending = Some((key, value));
        let mut node: Option<NonNull<SlNode<K, V>>> = None;
        loop {
            let mut res = {
                let kref: &K = match node {
                    Some(n) => unsafe { (*n.as_ptr()).key.assume_init_ref() },
                    None => &pending.as_ref().expect("pending").0,
                };
                self.search(kref, true, ctx)
            };
            if res.found {
                return false;
            }
            let n = *node.get_or_insert_with(|| {
                let (k, v) = pending.take().expect("pending kv");
                self.arenas[ctx.id() as usize].alloc(SlNode::data(k, v, ctx.id(), top_level))
            });
            let node_ref = unsafe { n.as_ref() };
            // Bottom link.
            let m0 = res.middles[0];
            if m0.marked() {
                continue;
            }
            node_ref.tower[0].store(TagPtr::clean(res.succs[0]));
            if unsafe { &*res.preds[0] }
                .cas(0, m0, m0.with_ptr(n.as_ptr()), ctx)
                .is_err()
            {
                continue;
            }
            // Upper links.
            let key = unsafe { node_ref.key.assume_init_ref() };
            'levels: for level in 1..=top_level as usize {
                loop {
                    loop {
                        let old = node_ref.tower[level].load();
                        if old.marked() {
                            return true; // removed mid-insert; insert already counted
                        }
                        if node_ref.tower[level]
                            .compare_exchange(old, TagPtr::clean(res.succs[level]))
                            .is_ok()
                        {
                            break;
                        }
                    }
                    let m = res.middles[level];
                    if !m.marked()
                        && unsafe { &*res.preds[level] }
                            .cas(level, m, m.with_ptr(n.as_ptr()), ctx)
                            .is_ok()
                    {
                        continue 'levels;
                    }
                    res = self.search(key, true, ctx);
                    if !res.found || res.succs[0] != n.as_ptr() {
                        return true; // node removed concurrently
                    }
                }
            }
            return true;
        }
    }

    fn remove(&self, key: &K, ctx: &ThreadCtx) -> bool {
        loop {
            let res = self.search(key, true, ctx);
            if !res.found {
                return false;
            }
            let node = unsafe { &*res.succs[0] };
            for level in (1..=node.top_level as usize).rev() {
                self.help_mark(node, level, ctx);
            }
            loop {
                let w0 = node.load(0, ctx);
                if w0.marked() {
                    break; // another remover won; retry outer
                }
                if node.cas(0, w0, w0.with_mark(), ctx).is_ok() {
                    let _ = self.search(key, true, ctx); // physical cleanup
                    return true;
                }
            }
        }
    }

    fn contains(&self, key: &K, ctx: &ThreadCtx) -> bool {
        self.search(key, false, ctx).found
    }

    /// Live keys in ascending order (diagnostics).
    pub fn keys(&self, ctx: &ThreadCtx) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        let mut cur = unsafe { &*self.head }.load(0, ctx).ptr();
        loop {
            let node = unsafe { &*cur };
            if node.kind != Kind::Data {
                break;
            }
            if !node.load(0, ctx).marked() {
                out.push(unsafe { node.key.assume_init_ref() }.clone());
            }
            cur = node.load(0, ctx).ptr();
        }
        out
    }
}

/// Per-thread handle to a [`LockFreeSkipList`].
pub struct SkipListHandle<'l, K, V> {
    list: &'l LockFreeSkipList<K, V>,
    ctx: ThreadCtx,
    rng: SmallRng,
}

impl<K, V> ConcurrentMap<K, V> for LockFreeSkipList<K, V>
where
    K: Ord + Send + Sync,
    V: Send + Sync,
{
    type Handle<'a>
        = SkipListHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        let seed = 0x5ca1_ab1e ^ ((ctx.id() as u64) << 20);
        SkipListHandle {
            list: self,
            ctx,
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl<'l, K: Ord, V> MapHandle<K, V> for SkipListHandle<'l, K, V> {
    fn insert(&mut self, key: K, value: V) -> bool {
        self.ctx.record_op();
        let max = (self.list.config.levels - 1) as u8;
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

    fn list(relink: bool) -> LockFreeSkipList<u64, u64> {
        LockFreeSkipList::new(
            SkipListConfig::new(4, 1 << 10)
                .relink(relink)
                .chunk_capacity(1024),
        )
    }

    #[test]
    fn sequential_lifecycle() {
        for relink in [true, false] {
            let l = list(relink);
            let mut h = l.pin(ThreadCtx::plain(0));
            assert!(h.insert(5, 50));
            assert!(!h.insert(5, 51));
            assert!(h.contains(&5));
            assert!(h.remove(&5));
            assert!(!h.remove(&5));
            assert!(!h.contains(&5));
            assert!(h.insert(5, 52));
            assert!(h.contains(&5));
        }
    }

    #[test]
    fn behaves_like_btreeset_sequentially() {
        for relink in [true, false] {
            let l = list(relink);
            let mut h = l.pin(ThreadCtx::plain(0));
            let mut model = BTreeSet::new();
            let mut state = 12345u64;
            for _ in 0..2000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = (state >> 33) % 200;
                match state % 3 {
                    0 => assert_eq!(h.insert(k, k), model.insert(k)),
                    1 => assert_eq!(h.remove(&k), model.remove(&k)),
                    _ => assert_eq!(h.contains(&k), model.contains(&k)),
                }
            }
            let got = l.keys(&ThreadCtx::plain(0));
            let want: Vec<u64> = model.into_iter().collect();
            assert_eq!(got, want, "relink={relink}");
        }
    }

    #[test]
    fn concurrent_disjoint_inserts() {
        let l = list(true);
        std::thread::scope(|s| {
            for t in 0..4u16 {
                let l = &l;
                s.spawn(move || {
                    let mut h = l.pin(ThreadCtx::plain(t));
                    for i in 0..400u64 {
                        assert!(h.insert(i * 4 + t as u64, i));
                    }
                });
            }
        });
        let got = l.keys(&ThreadCtx::plain(0));
        assert_eq!(got.len(), 1600);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_mixed_balance() {
        use std::collections::HashMap;
        let l = list(true);
        let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
            (0..4u16)
                .map(|t| {
                    let l = &l;
                    s.spawn(move || {
                        let mut h = l.pin(ThreadCtx::plain(t));
                        let mut b: HashMap<u64, i64> = HashMap::new();
                        let mut state = 0xDEAD ^ (t as u64);
                        for _ in 0..2500 {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let k = state % 64;
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
        for k in 0..64u64 {
            let v = total.get(&k).copied().unwrap_or(0);
            assert!(v == 0 || v == 1, "key {k}: balance {v}");
            assert_eq!(h.contains(&k), v == 1, "key {k}");
        }
    }
}
