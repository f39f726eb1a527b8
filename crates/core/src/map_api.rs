//! The concurrent-map interface shared by the layered structures, the
//! baselines, and the benchmark harness.
//!
//! Each map type implements [`ConcurrentMap`] once, with its one handle;
//! the bare [`SkipGraph`] and the [`LayeredMap`] share theirs, the
//! [`LayeredHandle`] (a bare graph's keeps no local structures).

use crate::graph::SkipGraph;
use crate::layered::{LayeredHandle, LayeredMap};
use instrument::ThreadCtx;
use std::hash::Hash;

/// A concurrent ordered set/map operated through per-thread handles.
///
/// Implementations hand each participating thread a [`MapHandle`] created
/// from its [`ThreadCtx`]; the handle owns whatever per-thread state the
/// structure needs (local structures, RNGs, ...).
pub trait ConcurrentMap<K, V>: Send + Sync {
    /// The per-thread handle type.
    type Handle<'a>: MapHandle<K, V> + 'a
    where
        Self: 'a;

    /// Registers a thread. `ctx.id()` must be dense, unique, and below the
    /// thread count the structure was configured for.
    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_>;
}

/// Per-thread operations of a [`ConcurrentMap`]. The Synchrobench-style
/// set semantics of the paper: `insert` fails on a present key, `remove`
/// fails on an absent key.
pub trait MapHandle<K, V> {
    /// Inserts `key -> value`; `false` if the key was present.
    fn insert(&mut self, key: K, value: V) -> bool;
    /// Removes `key`; `false` if it was absent.
    fn remove(&mut self, key: &K) -> bool;
    /// Whether `key` is present.
    fn contains(&mut self, key: &K) -> bool;
    /// The recording context this handle was pinned with.
    fn ctx(&self) -> &ThreadCtx;
}

impl<K, V> ConcurrentMap<K, V> for LayeredMap<K, V>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Send + Sync,
{
    type Handle<'a>
        = LayeredHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        self.register(ctx)
    }
}

impl<'m, K, V> MapHandle<K, V> for LayeredHandle<'m, K, V>
where
    K: Ord + Hash + Clone,
{
    fn insert(&mut self, key: K, value: V) -> bool {
        LayeredHandle::insert(self, key, value)
    }
    fn remove(&mut self, key: &K) -> bool {
        LayeredHandle::remove(self, key)
    }
    fn contains(&mut self, key: &K) -> bool {
        LayeredHandle::contains(self, key)
    }
    fn ctx(&self) -> &ThreadCtx {
        LayeredHandle::ctx(self)
    }
}

impl<K, V> ConcurrentMap<K, V> for crate::replicate::ReplicatedLayeredMap<K, V>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    type Handle<'a>
        = crate::replicate::ReplicatedHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        self.register(ctx)
    }
}

impl<'m, K, V> MapHandle<K, V> for crate::replicate::ReplicatedHandle<'m, K, V>
where
    K: Ord + Hash + Clone,
    V: Clone,
{
    fn insert(&mut self, key: K, value: V) -> bool {
        crate::replicate::ReplicatedHandle::insert(self, key, value)
    }
    fn remove(&mut self, key: &K) -> bool {
        crate::replicate::ReplicatedHandle::remove(self, key)
    }
    fn contains(&mut self, key: &K) -> bool {
        crate::replicate::ReplicatedHandle::contains(self, key)
    }
    fn ctx(&self) -> &ThreadCtx {
        crate::replicate::ReplicatedHandle::ctx(self)
    }
}

/// The bare graph's handle is a [`LayeredHandle`] without local
/// structures (the paper's non-layered skip graph ablation): the same
/// point-operation bodies, every `getStart` falling back to the head array.
impl<K, V> ConcurrentMap<K, V> for SkipGraph<K, V>
where
    K: Ord + Hash + Clone + Send + Sync,
    V: Send + Sync,
{
    type Handle<'a>
        = LayeredHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        LayeredHandle::new(self, ctx, false)
    }
}

impl<K, V> ConcurrentMap<K, V> for crate::graph::BlockedSkipMap<K, V>
where
    K: Ord + Copy + Send + Sync,
    V: Copy + Send + Sync,
{
    type Handle<'a>
        = crate::graph::BlockedHandle<'a, K, V>
    where
        Self: 'a;

    fn pin(&self, ctx: ThreadCtx) -> Self::Handle<'_> {
        self.register(ctx)
    }
}

impl<'g, K, V> MapHandle<K, V> for crate::graph::BlockedHandle<'g, K, V>
where
    K: Ord + Copy,
    V: Copy,
{
    fn insert(&mut self, key: K, value: V) -> bool {
        crate::graph::BlockedHandle::insert(self, key, value)
    }
    fn remove(&mut self, key: &K) -> bool {
        crate::graph::BlockedHandle::remove(self, key)
    }
    fn contains(&mut self, key: &K) -> bool {
        crate::graph::BlockedHandle::contains(self, key)
    }
    fn ctx(&self) -> &ThreadCtx {
        crate::graph::BlockedHandle::ctx(self)
    }
}
