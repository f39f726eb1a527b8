//! Inert stand-ins for the retired workload-adaptation API, kept only
//! because the end-to-end benchmark (`benchmark/src/target.rs`) still
//! compiles against them. Replication is chosen when a map is built and the
//! hash index grows by one rule, so none of them configures or reports
//! anything. Nothing else may name them; they go when the benchmark drops
//! its `adapt` rung.

use crate::{GraphConfig, ReplicaConfig, ReplicatedLayeredMap, SkipGraph};

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
