//! Stand-ins for retired API, kept only because the end-to-end benchmark
//! (`benchmark/src/{target,replay,trace}.rs`) still compiles against them.
//! Nothing else may name them; they go when the benchmark drops the rungs
//! that use them.
//!
//! * The workload-adaptation layer: replication is chosen when a map is
//!   built and the hash index grows by one rule, so none of its names
//!   configures or reports anything.
//! * The flat-combining executor: a "combining" map is a plain
//!   [`LayeredMap`], and [`CombiningHandle::execute_batch`] runs each
//!   operation through the wrapped handle's direct call, in order.
//! * The ordered-local-map trait: [`crate::local::BTreeLocalMap`], the one
//!   ordered local structure, has its methods as inherent ones.
//! * The reclamation switch: every graph reclaims.

use crate::{
    GraphConfig, LayeredHandle, LayeredMap, ReplicaConfig, ReplicatedLayeredMap, SkipGraph,
};
use instrument::ThreadCtx;
use std::convert::Infallible;
use std::hash::Hash;
use std::marker::PhantomData;

/// Kept for `benchmark/src/target.rs`; carries no setting.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptConfig;

impl AdaptConfig {
    /// Kept for `benchmark/src/target.rs`.
    pub fn new() -> Self {
        Self
    }
}

/// Kept for `benchmark/src/target.rs`; never produced.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct AdaptSnapshot {
    /// Always 0.
    pub downshifts: u64,
    /// Always 0.
    pub upshifts: u64,
}

impl GraphConfig {
    /// Kept for `benchmark/src/target.rs`; returns `self` unchanged.
    #[doc(hidden)]
    pub fn adapt(self, _: AdaptConfig) -> Self {
        self
    }

    /// Kept for `benchmark/src/target.rs`; returns `self` unchanged
    /// (every graph reclaims).
    #[doc(hidden)]
    pub fn reclaim(self, _: bool) -> Self {
        self
    }
}

impl ReplicaConfig {
    /// Kept for `benchmark/src/target.rs`; returns `self` unchanged.
    #[doc(hidden)]
    pub fn adapt(self, _: AdaptConfig) -> Self {
        self
    }
}

impl<K, V> ReplicatedLayeredMap<K, V> {
    /// Kept for `benchmark/src/target.rs`; always `None`.
    #[doc(hidden)]
    pub fn adapt_state(&self) -> Option<AdaptSnapshot> {
        None
    }
}

impl<K, V> SkipGraph<K, V> {
    /// Kept for `benchmark/src/target.rs`; always 0.
    #[doc(hidden)]
    pub fn index_probe_grows(&self) -> usize {
        0
    }
}

/// Kept for `benchmark/src/replay.rs`: one operation of a batch.
#[doc(hidden)]
#[derive(Debug)]
pub enum BatchOp<K, V> {
    /// Set-semantics insert.
    Insert(K, V),
    /// Set-semantics remove.
    Remove(K),
    /// Point lookup.
    Get(K),
}

/// Kept for `benchmark/src/replay.rs`: the outcome of one [`BatchOp`].
#[doc(hidden)]
#[derive(Debug)]
pub enum BatchOutcome<K, V> {
    /// Whether the insert added the key.
    Inserted {
        /// `true` when the key was absent.
        fresh: bool,
    },
    /// Whether the remove found the key.
    Removed {
        /// `true` when the key was present.
        removed: bool,
    },
    /// The value a lookup found.
    Got(Option<V>),
    /// Never built: keeps the key type a parameter, as it is of the
    /// operation.
    Never(Infallible, PhantomData<K>),
}

/// Kept for `benchmark/src/target.rs`; carries no setting.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig;

impl BatchConfig {
    /// Kept for `benchmark/src/target.rs`.
    pub fn uniform(_threads: usize, _sockets: usize) -> Self {
        Self
    }
}

impl<K: Ord, V> LayeredMap<K, V> {
    /// Kept for `benchmark/src/target.rs`; [`LayeredMap::new`].
    #[doc(hidden)]
    pub fn with_batching(config: GraphConfig, _: BatchConfig) -> Self
    where
        K: Hash,
    {
        Self::new(config)
    }

    /// Kept for `benchmark/src/target.rs`; [`LayeredMap::register`],
    /// wrapped.
    #[doc(hidden)]
    pub fn register_combining(&self, ctx: ThreadCtx) -> CombiningHandle<'_, K, V>
    where
        K: Hash + Clone,
    {
        CombiningHandle(self.register(ctx))
    }
}

/// Kept for `benchmark/src/target.rs`, which implements its operations
/// trait for this type and for [`LayeredHandle`] alike: a layered handle.
#[doc(hidden)]
pub struct CombiningHandle<'m, K, V>(LayeredHandle<'m, K, V>);

impl<'m, K, V> CombiningHandle<'m, K, V>
where
    K: Ord + Hash + Clone,
    V: Clone,
{
    /// The wrapped handle.
    pub fn direct(&mut self) -> &mut LayeredHandle<'m, K, V> {
        &mut self.0
    }

    /// Runs `ops` in order, each through the wrapped handle's direct call.
    pub fn execute_batch(&mut self, ops: Vec<BatchOp<K, V>>) -> Vec<BatchOutcome<K, V>> {
        ops.into_iter()
            .map(|op| match op {
                BatchOp::Insert(k, v) => BatchOutcome::Inserted {
                    fresh: self.0.insert(k, v),
                },
                BatchOp::Remove(k) => BatchOutcome::Removed {
                    removed: self.0.remove(&k),
                },
                BatchOp::Get(k) => BatchOutcome::Got(self.0.get(&k)),
            })
            .collect()
    }
}

/// Kept for `benchmark/src/trace.rs`, which imports it; has no methods.
#[doc(hidden)]
pub trait LocalMap {}
