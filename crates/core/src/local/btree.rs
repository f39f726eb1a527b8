//! The default ordered local structure: an in-crate B+tree (the paper uses
//! C++ `std::map`; see ARCHITECTURE §3 for why this is not
//! `std::collections::BTreeMap`).
//!
//! # Layout
//!
//! * A **leaf** holds at most [`LEAF_CAP`] (16) keys in one array and their
//!   references in another, and links to its neighbours by `prev`/`next`.
//!   It is 64-byte aligned, keys first, so a search inside it reads the
//!   key lines and then one reference line.
//! * An **inner node** holds at most [`INNER_CAP`] (32) separators and one
//!   more `u32` child index. Every key in child `i` is `< sep[i]` and every
//!   key in child `i + 1` is `>= sep[i]`, so one descent — take the child
//!   after the last separator `<= key` — serves `get`, `pred` and
//!   `max_lower_equal` alike: the answer sits in the leaf it reaches or,
//!   when that leaf holds nothing small enough, is the previous leaf's last
//!   entry. Each step prefetches every line of the child before searching
//!   it; an inner node counts its separators `<= key`, a leaf is
//!   binary-searched.
//! * Nodes live in two slabs, one per kind, addressed by `u32`. A slab
//!   chunk never moves once allocated (growing copies nothing); chunk `c`
//!   holds `min(2^c, 1024)` nodes, so a small map reserves space in
//!   proportion to its entries.
//!
//! There is no `unsafe`: every array slot past a node's length holds a
//! clone of a key the tree held (or a copy of a reference), so the arrays
//! are always initialised. A heap-allocated key type pays for those
//! clones; the maps here hold integer keys.
//!
//! # Deletion
//!
//! A leaf is freed when it empties. A leaf left with fewer than a quarter
//! of [`LEAF_CAP`] entries merges into its left sibling under the same
//! parent when the two fit in three quarters of a leaf; nothing is ever
//! borrowed from a sibling. An inner node is freed when it has no child
//! left, and a root with one child collapses into it. Without the merge,
//! key turnover at a constant live size keeps thinning the leaves (the
//! `turnover_keeps_leaves_filled` test).
//!
//! # Memory
//!
//! With `u64` keys and 16-byte references (a [`crate::NodeRef`]) a leaf is
//! 448 bytes and an inner node 448. Scattered inserts leave leaves about
//! 70 % full, which comes to 43.8, 42.9 and 42.0 B per entry at 2^18, 2^19
//! and 2^20 entries, slab slack and inner nodes included;
//! `std::collections::BTreeMap` takes 38.9 B for the same entries. A
//! one-entry map reserves 544 B (std: 280 B).

use crate::prefetch::prefetch_read;
use std::fmt;

/// Entries a leaf holds at most.
const LEAF_CAP: usize = 16;
/// Entries the left half keeps when a full leaf splits.
const LEAF_HALF: usize = LEAF_CAP / 2;
/// A leaf under this many entries tries to merge into its left sibling.
const LEAF_UNDERFULL: usize = LEAF_CAP / 4;
/// The most entries a merged leaf may hold.
const LEAF_MERGED_MAX: usize = LEAF_CAP * 3 / 4;
/// Separators an inner node holds at most; it has one more child.
const INNER_CAP: usize = 32;
/// Separators the left half keeps when a full inner node splits; the next
/// one moves up.
const INNER_HALF: usize = INNER_CAP / 2;
/// The null node index.
const NIL: u32 = u32::MAX;
/// Inner levels a descent records. An inner node splits only after its
/// children split 16 times since it was made (it starts with at most 17
/// children and splits at 33), so `h` inner levels take at least 16^(h-1)
/// leaf splits: 16 levels are never reached.
const MAX_INNER_LEVELS: usize = 16;
/// Nodes in a full-size slab chunk (log2).
const CHUNK_CAP_LOG: u32 = 10;
const CHUNK_CAP: usize = 1 << CHUNK_CAP_LOG;

/// Prefetches every cache line of `node`.
#[inline(always)]
fn prefetch_lines<T>(node: &T) {
    let base = (node as *const T).cast::<u8>();
    for line in (0..size_of::<T>()).step_by(64) {
        prefetch_read(base.wrapping_add(line));
    }
}

#[derive(Clone)]
#[repr(C, align(64))]
struct Leaf<K, R> {
    keys: [K; LEAF_CAP],
    len: u32,
    prev: u32,
    next: u32,
    refs: [R; LEAF_CAP],
}

impl<K: Ord + Clone, R: Copy> Leaf<K, R> {
    /// A leaf holding one entry, unlinked.
    fn single(key: K, node: R) -> Self {
        Self {
            keys: std::array::from_fn(|_| key.clone()),
            len: 1,
            prev: NIL,
            next: NIL,
            refs: [node; LEAF_CAP],
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    /// Entries with keys `< key`.
    fn lower_bound(&self, key: &K) -> usize {
        self.keys[..self.len()].partition_point(|k| k < key)
    }

    /// Entries with keys `<= key`.
    fn upper_bound(&self, key: &K) -> usize {
        self.keys[..self.len()].partition_point(|k| k <= key)
    }

    /// Inserts at position `i`; the leaf is not full.
    fn insert_at(&mut self, i: usize, key: K, node: R) {
        let len = self.len();
        let keys = &mut self.keys[i..=len];
        for j in (1..keys.len()).rev() {
            keys[j] = keys[j - 1].clone();
        }
        keys[0] = key;
        self.refs.copy_within(i..len, i + 1);
        self.refs[i] = node;
        self.len += 1;
    }

    /// Removes the entry at position `i`.
    fn remove_at(&mut self, i: usize) {
        let len = self.len();
        let keys = &mut self.keys[i..len];
        for j in 1..keys.len() {
            keys[j - 1] = keys[j].clone();
        }
        self.refs.copy_within(i + 1..len, i);
        self.len -= 1;
    }

    /// Moves the upper half of this full leaf into a new, unlinked leaf.
    fn split_off(&mut self) -> Self {
        let from = |j: usize| (LEAF_HALF + j).min(LEAF_CAP - 1);
        self.len = LEAF_HALF as u32;
        Self {
            keys: std::array::from_fn(|j| self.keys[from(j)].clone()),
            len: (LEAF_CAP - LEAF_HALF) as u32,
            prev: NIL,
            next: NIL,
            refs: std::array::from_fn(|j| self.refs[from(j)]),
        }
    }
}

#[derive(Clone)]
#[repr(C, align(64))]
struct Inner<K> {
    keys: [K; INNER_CAP],
    /// Separators in use; the node has `len + 1` children.
    len: u32,
    children: [u32; INNER_CAP + 1],
}

impl<K: Ord + Clone> Inner<K> {
    /// A root over two children split apart at `sep`.
    fn root(left: u32, sep: K, right: u32) -> Self {
        let mut children = [right; INNER_CAP + 1];
        children[0] = left;
        Self {
            keys: std::array::from_fn(|_| sep.clone()),
            len: 1,
            children,
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    /// The child whose key range holds `key`. A count rather than a
    /// binary search: its comparisons do not wait on each other, which
    /// pays where inner nodes sit in cache (small maps, and the top of
    /// large ones); leaves, cold in a large map, keep the binary search.
    fn child_for(&self, key: &K) -> usize {
        self.keys[..self.len()].iter().filter(|s| *s <= key).count()
    }

    /// Adds `child`, split off child `pos` at `sep`, right after it; the
    /// node is not full.
    fn insert_at(&mut self, pos: usize, sep: K, child: u32) {
        let len = self.len();
        let keys = &mut self.keys[pos..=len];
        for j in (1..keys.len()).rev() {
            keys[j] = keys[j - 1].clone();
        }
        keys[0] = sep;
        self.children.copy_within(pos + 1..=len, pos + 2);
        self.children[pos + 1] = child;
        self.len += 1;
    }

    /// Drops child `pos` and the separator on its left (on its right for
    /// the first child); the node has at least two children.
    fn remove_child(&mut self, pos: usize) {
        let len = self.len();
        let keys = &mut self.keys[pos.saturating_sub(1)..len];
        for j in 1..keys.len() {
            keys[j - 1] = keys[j].clone();
        }
        self.children.copy_within(pos + 1..=len, pos);
        self.len -= 1;
    }

    /// Splits this full node: returns the separator that moves up and a new
    /// node with the children above it.
    fn split_off(&mut self) -> (K, Self) {
        let key = |j: usize| (INNER_HALF + 1 + j).min(INNER_CAP - 1);
        let child = |j: usize| (INNER_HALF + 1 + j).min(INNER_CAP);
        self.len = INNER_HALF as u32;
        let right = Self {
            keys: std::array::from_fn(|j| self.keys[key(j)].clone()),
            len: (INNER_CAP - INNER_HALF - 1) as u32,
            children: std::array::from_fn(|j| self.children[child(j)]),
        };
        (self.keys[INNER_HALF].clone(), right)
    }
}

/// Nodes of one kind, addressed by `u32`. Chunk `c` holds
/// `min(2^c, CHUNK_CAP)` nodes and is never reallocated, so no node moves
/// and growing copies nothing. Freed slots keep their contents until
/// reused.
#[derive(Clone)]
struct Slab<T> {
    chunks: Vec<Vec<T>>,
    /// Slots handed out so far, freed ones included.
    used: u32,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            chunks: Vec::new(),
            used: 0,
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    /// The chunk and offset of slot `i`.
    #[inline]
    fn locate(i: u32) -> (usize, usize) {
        let j = i as usize + 1;
        if j < CHUNK_CAP {
            let c = j.ilog2();
            (c as usize, j - (1 << c))
        } else {
            (
                (j >> CHUNK_CAP_LOG) + CHUNK_CAP_LOG as usize - 1,
                j & (CHUNK_CAP - 1),
            )
        }
    }

    #[inline]
    fn get(&self, i: u32) -> &T {
        let (c, o) = Self::locate(i);
        &self.chunks[c][o]
    }

    #[inline]
    fn get_mut(&mut self, i: u32) -> &mut T {
        let (c, o) = Self::locate(i);
        &mut self.chunks[c][o]
    }

    fn alloc(&mut self, node: T) -> u32 {
        if let Some(i) = self.free.pop() {
            *self.get_mut(i) = node;
            return i;
        }
        let i = self.used;
        assert!(i < NIL, "a local map's slab ran out of u32 node indices");
        let (c, _) = Self::locate(i);
        if c == self.chunks.len() {
            let cap = 1usize << c.min(CHUNK_CAP_LOG as usize);
            self.chunks.push(Vec::with_capacity(cap));
        }
        self.chunks[c].push(node);
        self.used += 1;
        i
    }

    fn free(&mut self, i: u32) {
        self.free.push(i);
    }

    fn allocated_bytes(&self) -> usize {
        let nodes: usize = self.chunks.iter().map(Vec::capacity).sum();
        nodes * size_of::<T>()
            + self.chunks.capacity() * size_of::<Vec<T>>()
            + self.free.capacity() * size_of::<u32>()
    }
}

/// The nodes a descent passed through: for each inner level from the
/// root, the node and the child taken.
type Path = [(u32, usize); MAX_INNER_LEVELS];

/// The ordered local map: keys to opaque shared-node references `R`
/// ([`crate::NodeRef`] in practice; `Copy`, so the map never hands out
/// interior mutability), over an in-crate B+tree (see the module docs).
///
/// # Example
///
/// ```
/// use skipgraph::local::BTreeLocalMap;
///
/// let mut m: BTreeLocalMap<u64, u32> = BTreeLocalMap::default();
/// m.insert(10, 1);
/// m.insert(20, 2);
/// assert_eq!(m.max_lower_equal(&15), Some((&10, 1)));
/// assert_eq!(m.pred(&10), None);
/// ```
#[derive(Clone)]
pub struct BTreeLocalMap<K, R> {
    leaves: Slab<Leaf<K, R>>,
    inners: Slab<Inner<K>>,
    /// A leaf when `height` is 0; [`NIL`] when the map is empty.
    root: u32,
    /// Inner levels above the leaves.
    height: usize,
    len: usize,
}

impl<K, R> Default for BTreeLocalMap<K, R> {
    fn default() -> Self {
        Self {
            leaves: Slab::default(),
            inners: Slab::default(),
            root: NIL,
            height: 0,
            len: 0,
        }
    }
}

impl<K, R> BTreeLocalMap<K, R> {
    /// Bytes the map's node slabs reserve (diagnostics, like
    /// [`super::RobinHoodMap::capacity`]).
    pub fn allocated_bytes(&self) -> usize {
        self.leaves.allocated_bytes() + self.inners.allocated_bytes()
    }

    /// The leftmost leaf, or [`NIL`].
    fn first_leaf(&self) -> u32 {
        let mut at = self.root;
        for _ in 0..self.height {
            at = self.inners.get(at).children[0];
        }
        at
    }

    /// Every entry in key order.
    fn entries(&self) -> impl Iterator<Item = (&K, &R)> {
        let first = self.first_leaf();
        std::iter::successors((first != NIL).then(|| self.leaves.get(first)), |leaf| {
            (leaf.next != NIL).then(|| self.leaves.get(leaf.next))
        })
        .flat_map(|leaf| {
            let len = leaf.len as usize;
            leaf.keys[..len].iter().zip(&leaf.refs[..len])
        })
    }
}

impl<K: Ord + Clone, R: Copy> BTreeLocalMap<K, R> {
    /// Keeps only the mappings `keep` accepts (a staleness sweep: the
    /// blocked map drops every anchor reference whose generation moved).
    /// Rebuilds the tree from the survivors.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &R) -> bool) {
        let mut kept = Self::default();
        for (key, node) in self.entries() {
            if keep(key, node) {
                kept.insert(key.clone(), *node);
            }
        }
        *self = kept;
    }

    /// One step of a descent for `key` from inner node `at`, `level`
    /// levels below the root: the child's position and index. Every line
    /// of the child is prefetched before it is searched, so a cold node
    /// costs one miss rather than one per line its search reads in turn.
    #[inline(always)]
    fn step(&self, at: u32, level: usize, key: &K) -> (usize, u32) {
        let inner = self.inners.get(at);
        let pos = inner.child_for(key);
        let child = inner.children[pos];
        if level + 1 == self.height {
            prefetch_lines(self.leaves.get(child));
        } else {
            prefetch_lines(self.inners.get(child));
        }
        (pos, child)
    }

    /// The leaf whose key range holds `key`; the map is not empty.
    #[inline]
    fn leaf_for(&self, key: &K) -> &Leaf<K, R> {
        let mut at = self.root;
        for level in 0..self.height {
            at = self.step(at, level, key).1;
        }
        self.leaves.get(at)
    }

    /// [`Self::leaf_for`]'s index, recording the descent in `path`.
    fn descend(&self, key: &K, path: &mut Path) -> u32 {
        let mut at = self.root;
        for (level, entry) in path[..self.height].iter_mut().enumerate() {
            let (pos, child) = self.step(at, level, key);
            *entry = (at, pos);
            at = child;
        }
        at
    }

    /// The entry before position `i` of `leaf`: in it, or the previous
    /// leaf's last.
    #[inline]
    fn entry_before<'a>(&'a self, leaf: &'a Leaf<K, R>, i: usize) -> Option<(&'a K, R)> {
        let (leaf, i) = match i {
            0 if leaf.prev == NIL => return None,
            0 => {
                let prev = self.leaves.get(leaf.prev);
                (prev, prev.len())
            }
            _ => (leaf, i),
        };
        Some((&leaf.keys[i - 1], leaf.refs[i - 1]))
    }

    /// Adds `child`, split off at `sep` from the child `path` ends in, to
    /// its parent, splitting inner nodes up the path as they fill.
    fn insert_up(&mut self, path: &Path, mut sep: K, mut child: u32) {
        for &(at, pos) in path[..self.height].iter().rev() {
            let inner = self.inners.get_mut(at);
            if inner.len() < INNER_CAP {
                inner.insert_at(pos, sep, child);
                return;
            }
            let (up, mut right) = inner.split_off();
            if pos <= INNER_HALF {
                inner.insert_at(pos, sep, child);
            } else {
                right.insert_at(pos - INNER_HALF - 1, sep, child);
            }
            sep = up;
            child = self.inners.alloc(right);
        }
        assert!(
            self.height < MAX_INNER_LEVELS,
            "local map taller than its path"
        );
        self.root = self.inners.alloc(Inner::root(self.root, sep, child));
        self.height += 1;
    }

    /// Frees leaf `at` after taking it out of the leaf list.
    fn unlink_leaf(&mut self, at: u32) {
        let (prev, next) = {
            let leaf = self.leaves.get(at);
            (leaf.prev, leaf.next)
        };
        if prev != NIL {
            self.leaves.get_mut(prev).next = next;
        }
        if next != NIL {
            self.leaves.get_mut(next).prev = prev;
        }
        self.leaves.free(at);
    }

    /// Drops the (freed) child `path` ends in from its parent, freeing
    /// parents left childless, then collapses a root left with one child.
    fn remove_child(&mut self, path: &Path) {
        let mut level = self.height;
        loop {
            if level == 0 {
                self.root = NIL;
                self.height = 0;
                return;
            }
            level -= 1;
            let (at, pos) = path[level];
            let inner = self.inners.get_mut(at);
            if inner.len() > 0 {
                inner.remove_child(pos);
                break;
            }
            self.inners.free(at);
        }
        while self.height > 0 {
            let root = self.inners.get(self.root);
            if root.len() > 0 {
                break;
            }
            let only = root.children[0];
            self.inners.free(self.root);
            self.root = only;
            self.height -= 1;
        }
    }

    /// Moves every entry of leaf `at` to the end of `left`, its left
    /// sibling, and frees `at`.
    fn merge_into(&mut self, left: u32, at: u32) {
        for j in 0..self.leaves.get(at).len() {
            let (key, node) = {
                let leaf = self.leaves.get(at);
                (leaf.keys[j].clone(), leaf.refs[j])
            };
            let left = self.leaves.get_mut(left);
            let end = left.len();
            left.insert_at(end, key, node);
        }
        self.unlink_leaf(at);
    }
}

impl<K: Ord + Clone, R: Copy> BTreeLocalMap<K, R> {
    /// Inserts or replaces the mapping for `key`.
    pub fn insert(&mut self, key: K, node: R) {
        if self.root == NIL {
            self.root = self.leaves.alloc(Leaf::single(key, node));
            self.len = 1;
            return;
        }
        let mut path = [(NIL, 0); MAX_INNER_LEVELS];
        let at = self.descend(&key, &mut path);
        let leaf = self.leaves.get_mut(at);
        let i = leaf.lower_bound(&key);
        if i < leaf.len() && leaf.keys[i] == key {
            leaf.refs[i] = node;
            return;
        }
        self.len += 1;
        if leaf.len() < LEAF_CAP {
            leaf.insert_at(i, key, node);
            return;
        }
        let mut right = leaf.split_off();
        if i <= LEAF_HALF {
            leaf.insert_at(i, key, node);
        } else {
            right.insert_at(i - LEAF_HALF, key, node);
        }
        let next = leaf.next;
        right.prev = at;
        right.next = next;
        let sep = right.keys[0].clone();
        let right = self.leaves.alloc(right);
        self.leaves.get_mut(at).next = right;
        if next != NIL {
            self.leaves.get_mut(next).prev = right;
        }
        self.insert_up(&path, sep, right);
    }

    /// Removes the mapping for `key`; returns whether it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        if self.root == NIL {
            return false;
        }
        let mut path = [(NIL, 0); MAX_INNER_LEVELS];
        let at = self.descend(key, &mut path);
        let leaf = self.leaves.get_mut(at);
        let i = leaf.lower_bound(key);
        if i == leaf.len() || leaf.keys[i] != *key {
            return false;
        }
        leaf.remove_at(i);
        self.len -= 1;
        let remaining = leaf.len();
        if remaining == 0 {
            self.unlink_leaf(at);
            self.remove_child(&path);
        } else if remaining < LEAF_UNDERFULL && self.height > 0 {
            let (parent, pos) = path[self.height - 1];
            if pos > 0 {
                let left = self.inners.get(parent).children[pos - 1];
                if self.leaves.get(left).len() + remaining <= LEAF_MERGED_MAX {
                    self.merge_into(left, at);
                    self.remove_child(&path);
                }
            }
        }
        true
    }

    /// The mapping for `key`, if any.
    pub fn get(&self, key: &K) -> Option<R> {
        if self.root == NIL {
            return None;
        }
        let leaf = self.leaf_for(key);
        let i = leaf.lower_bound(key);
        (i < leaf.len() && leaf.keys[i] == *key).then(|| leaf.refs[i])
    }

    /// The mapping with the greatest key `<= key` (the paper's
    /// `getMaxLowerEqual`).
    pub fn max_lower_equal(&self, key: &K) -> Option<(&K, R)> {
        if self.root == NIL {
            return None;
        }
        let leaf = self.leaf_for(key);
        self.entry_before(leaf, leaf.upper_bound(key))
    }

    /// The mapping with the greatest key `< key` (one backward step).
    pub fn pred(&self, key: &K) -> Option<(&K, R)> {
        if self.root == NIL {
            return None;
        }
        let leaf = self.leaf_for(key);
        self.entry_before(leaf, leaf.lower_bound(key))
    }

    /// Number of mappings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every mapping.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

impl<K: fmt::Debug, R: fmt::Debug> fmt::Debug for BTreeLocalMap<K, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn navigation() {
        let mut m: BTreeLocalMap<u64, u32> = BTreeLocalMap::default();
        for k in [10u64, 20, 30] {
            m.insert(k, k as u32 * 10);
        }
        assert_eq!(m.max_lower_equal(&20), Some((&20, 200)));
        assert_eq!(m.max_lower_equal(&25), Some((&20, 200)));
        assert_eq!(m.max_lower_equal(&5), None);
        assert_eq!(m.pred(&20), Some((&10, 100)));
        assert_eq!(m.pred(&10), None);
        assert_eq!(m.pred(&100), Some((&30, 300)));
    }

    #[test]
    fn insert_remove_get() {
        let mut m: BTreeLocalMap<u64, u8> = BTreeLocalMap::default();
        assert!(m.is_empty());
        m.insert(1, 1);
        m.insert(1, 2); // replace
        assert_eq!(m.get(&1), Some(2));
        assert_eq!(m.len(), 1);
        assert!(m.remove(&1));
        assert!(!m.remove(&1));
        assert!(m.is_empty());
    }

    #[test]
    fn backward_walk_with_erasure() {
        // The getStart pattern: walk backwards erasing as we go.
        let mut m: BTreeLocalMap<u64, ()> = BTreeLocalMap::default();
        for k in 0..10u64 {
            m.insert(k, ());
        }
        let mut cursor = 7u64;
        let mut seen = vec![cursor];
        loop {
            m.remove(&cursor);
            match m.pred(&cursor) {
                Some((k, _)) => {
                    cursor = *k;
                    seen.push(cursor);
                }
                None => break,
            }
        }
        assert_eq!(seen, vec![7, 6, 5, 4, 3, 2, 1, 0]);
        assert_eq!(m.len(), 2); // 8 and 9 untouched
    }

    #[test]
    fn retain_keeps_what_the_predicate_accepts() {
        let mut m: BTreeLocalMap<u64, u32> = BTreeLocalMap::default();
        for k in 0..10u64 {
            m.insert(k, k as u32 % 3);
        }
        m.retain(|k, r| *r != 0 && *k != 7);
        assert_eq!(m.len(), 5);
        assert_eq!(m.get(&3), None);
        assert_eq!(m.get(&7), None);
        assert_eq!(m.max_lower_equal(&7), Some((&5, 2)));
        assert_eq!(format!("{m:?}"), "{1: 1, 2: 2, 4: 1, 5: 2, 8: 2}");
    }

    #[test]
    fn clear() {
        let mut m: BTreeLocalMap<u64, ()> = BTreeLocalMap::default();
        m.insert(1, ());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.allocated_bytes(), 0);
    }

    #[test]
    fn slab_chunks_double_up_to_the_cap() {
        let chunk_of = |i| Slab::<()>::locate(i);
        assert_eq!(chunk_of(0), (0, 0));
        assert_eq!((chunk_of(1), chunk_of(2)), ((1, 0), (1, 1)));
        assert_eq!(chunk_of(1022), (9, 511));
        assert_eq!((chunk_of(1023), chunk_of(2046)), ((10, 0), (10, 1023)));
        assert_eq!(chunk_of(2047), (11, 0));
    }

    /// Mean entries per leaf.
    fn leaf_fill<K: Ord + Clone, R: Copy>(m: &BTreeLocalMap<K, R>) -> f64 {
        let mut leaves = 0usize;
        let mut at = m.first_leaf();
        while at != NIL {
            leaves += 1;
            at = m.leaves.get(at).next;
        }
        m.len() as f64 / leaves as f64
    }

    /// Full replacement churn at a constant live size: each round removes
    /// every live key and inserts as many fresh ones, interleaved. Without
    /// the merge, the leaves a turnover thins stay thin and the fill keeps
    /// falling from round to round.
    #[test]
    fn turnover_keeps_leaves_filled() {
        const LIVE: usize = if cfg!(miri) { 1 << 10 } else { 1 << 16 };
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut fresh = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 16
        };
        let mut m: BTreeLocalMap<u64, u64> = BTreeLocalMap::default();
        let mut live: Vec<u64> = Vec::with_capacity(LIVE);
        while live.len() < LIVE {
            let k = fresh();
            if m.get(&k).is_none() {
                m.insert(k, k);
                live.push(k);
            }
        }
        let mut fills = Vec::new();
        for _ in 0..5 {
            for slot in live.iter_mut() {
                assert!(m.remove(slot));
                let k = loop {
                    let k = fresh();
                    if m.get(&k).is_none() {
                        break k;
                    }
                };
                m.insert(k, k);
                *slot = k;
            }
            assert_eq!(m.len(), LIVE);
            fills.push(leaf_fill(&m));
        }
        assert!(
            fills[4] >= 0.9 * fills[0],
            "mean leaf fill per round {fills:?}"
        );
    }
}
