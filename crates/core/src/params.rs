//! Configuration of the shared structure.

use crate::adapt::AdaptConfig;
use crate::mvec::{default_max_level, MembershipStrategy};
use crate::node::MAX_HEIGHT;

/// Default commission-period factor: the paper found `350000 * T` cycles to
/// perform "very well" under high contention (p. 6).
pub const DEFAULT_COMMISSION_FACTOR: u64 = 350_000;

/// Configuration of a [`crate::SkipGraph`] / [`crate::LayeredMap`].
///
/// Built with [`GraphConfig::new`] and customized through the builder
/// methods:
///
/// ```
/// use skipgraph::{GraphConfig, MembershipStrategy};
///
/// let cfg = GraphConfig::new(96)
///     .lazy(true)
///     .membership(MembershipStrategy::NumaAware);
/// assert_eq!(cfg.max_level, 6); // ceil(log2 96) - 1
/// assert_eq!(cfg.commission_cycles, 350_000 * 96);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphConfig {
    /// Number of registered threads `T`.
    pub num_threads: usize,
    /// Maximum level (`MaxLevel`); defaults to `ceil(log2 T) - 1`.
    pub max_level: u8,
    /// Sparse skip graph: towers get probabilistic heights (p = 1/2) so a
    /// level-`i` list keeps an element with expectation `1/4^i`.
    pub sparse: bool,
    /// Lazy protocol: level-0-only insertions finished on demand, valid-bit
    /// logical deletion, commission period, relink-only physical removal.
    pub lazy: bool,
    /// Commission period in cycles (lazy variant only).
    pub commission_cycles: u64,
    /// Membership vector generation scheme.
    pub membership: MembershipStrategy,
    /// Objects per arena chunk (the paper uses 2^20).
    pub chunk_capacity: usize,
    /// Epoch-based reclamation: fully-unlinked nodes are retired onto
    /// per-thread limbo lists and, after a grace period, recycled through
    /// per-size-class free lists in the owning thread's arena bank. Off by
    /// default (the paper's fixed-length-run memory model).
    pub reclaim: bool,
    /// Extra bytes reserved after every node's tower for a fat level-0
    /// block (B-skiplist blocking; see `skipgraph::BlockedSkipMap`). Zero
    /// for plain single-key nodes. The byte size is computed by the block
    /// layer from its capacity and entry stride, keeping `GraphConfig`
    /// independent of the key/value types.
    pub block_bytes: usize,
    /// Shared lock-free hash index for O(1) point reads (the Skip Hash
    /// fast path; see `skipgraph::index`). Maintained inline by
    /// insert/remove and consulted first by point `get`/`contains`;
    /// entries are generation-validated, so reclamation stays safe. Off
    /// by default. Honored by the layered builders (which know the key
    /// hashes); `SkipGraph::new` alone leaves it off — use
    /// `SkipGraph::new_hashed` — and the blocked map rejects it.
    pub hash_index: bool,
    /// Total entry-capacity hint for the hash index (`0` = auto: 4 096
    /// slots per segment). Segments start at `index_capacity / segments`
    /// slots (rounded up to a power of two, at least 4) and grow in place,
    /// lock-free, past the hint under load.
    pub index_capacity: usize,
    /// Workload-adaptive control plane (see [`crate::adapt`]): when set,
    /// the hash index grows segments from the windowed occupancy/probe
    /// signal using these thresholds. `None` (the default) keeps the
    /// static behavior: the index's fixed 75% trip-wire.
    pub adapt: Option<AdaptConfig>,
    /// NUMA-ownership override: when set, every node allocated in this
    /// structure is tagged as owned by this thread (and recycled into its
    /// arena bank) instead of the allocating thread. Used by per-socket
    /// replicas, whose memory belongs to the replica's socket no matter
    /// which thread happens to replay an operation into it. `None` (the
    /// default) keeps allocating-thread ownership.
    pub owner_tag: Option<u16>,
}

impl GraphConfig {
    /// A configuration for `threads` threads with the paper's defaults:
    /// non-lazy, non-sparse, NUMA-aware membership vectors,
    /// `MaxLevel = ceil(log2 T) - 1`, commission period `350000 * T`.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds 512 (the inline tower height
    /// supports `MaxLevel <= 7`, i.e. up to 2^9 threads by the paper's
    /// formula; ownership tags are 16-bit).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        assert!(threads <= 512, "supported thread count is 1..=512");
        Self {
            num_threads: threads,
            max_level: default_max_level(threads),
            sparse: false,
            lazy: false,
            commission_cycles: DEFAULT_COMMISSION_FACTOR * threads as u64,
            membership: MembershipStrategy::NumaAware,
            chunk_capacity: numa::arena::DEFAULT_CHUNK_CAPACITY,
            reclaim: false,
            block_bytes: 0,
            hash_index: false,
            index_capacity: 0,
            adapt: None,
            owner_tag: None,
        }
    }

    /// Overrides the maximum level.
    ///
    /// # Panics
    ///
    /// Panics if `level >= MAX_HEIGHT`.
    pub fn max_level(mut self, level: u8) -> Self {
        assert!((level as usize) < MAX_HEIGHT, "level out of range");
        self.max_level = level;
        self
    }

    /// Selects the sparse skip graph variant.
    pub fn sparse(mut self, sparse: bool) -> Self {
        self.sparse = sparse;
        self
    }

    /// Selects the lazy protocol.
    pub fn lazy(mut self, lazy: bool) -> Self {
        self.lazy = lazy;
        self
    }

    /// Overrides the commission period (cycles).
    pub fn commission_cycles(mut self, cycles: u64) -> Self {
        self.commission_cycles = cycles;
        self
    }

    /// Overrides the membership strategy.
    pub fn membership(mut self, strategy: MembershipStrategy) -> Self {
        self.membership = strategy;
        self
    }

    /// Overrides the arena chunk capacity.
    ///
    /// # Panics
    ///
    /// Panics if `objects` is zero.
    pub fn chunk_capacity(mut self, objects: usize) -> Self {
        assert!(objects > 0);
        self.chunk_capacity = objects;
        self
    }

    /// Enables epoch-based reclamation with NUMA-preserving slot recycling
    /// (see `skipgraph::reclaim`). Required for long-running churn
    /// workloads; adds a generation check to every cached node pointer.
    pub fn reclaim(mut self, reclaim: bool) -> Self {
        self.reclaim = reclaim;
        self
    }

    /// Reserves `bytes` of trailing block storage on every allocated node
    /// (multiple of 8 so the region stays pointer-aligned). Used by the
    /// blocked map; plain maps leave this at zero.
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes % 8 == 0, "block bytes must preserve 8-byte alignment");
        self.block_bytes = bytes;
        self
    }

    /// Enables the shared lock-free hash index (Skip Hash fast path) so
    /// point reads skip the skip-graph descent when a generation-valid
    /// entry exists. See `skipgraph::index` for the coherence protocol.
    pub fn hash_index(mut self, on: bool) -> Self {
        self.hash_index = on;
        self
    }

    /// Overrides the hash-index capacity hint (`0` = auto). The index
    /// grows past the hint on demand, doubling a segment's slot array in
    /// place; a hint near twice the expected key count avoids the early
    /// growth steps.
    pub fn index_capacity(mut self, entries: usize) -> Self {
        self.index_capacity = entries;
        self
    }

    /// Enables the workload-adaptive control plane with the given
    /// thresholds (see [`GraphConfig::adapt`]).
    pub fn adapt(mut self, cfg: AdaptConfig) -> Self {
        self.adapt = Some(cfg);
        self
    }

    /// Tags every node allocated in this structure as owned by `thread`
    /// (see [`GraphConfig::owner_tag`]).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is not a registered thread id.
    pub fn owner_tag(mut self, thread: u16) -> Self {
        assert!(
            (thread as usize) < self.num_threads,
            "owner tag must be a registered thread id"
        );
        self.owner_tag = Some(thread);
        self
    }

    /// The `layered_map_ll` ablation: the shared structure is a plain
    /// linked list (maximum level always 0).
    pub fn linked_list(threads: usize) -> Self {
        Self::new(threads).max_level(0)
    }

    /// The `layered_map_sl` ablation: a single constituent skip list (all
    /// threads share one membership vector, no partitioning).
    pub fn single_skip_list(threads: usize) -> Self {
        Self::new(threads).membership(MembershipStrategy::Single)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GraphConfig::new(96);
        assert_eq!(c.max_level, 6);
        assert!(!c.lazy);
        assert!(!c.sparse);
        assert_eq!(c.commission_cycles, 33_600_000);
        assert_eq!(c.membership, MembershipStrategy::NumaAware);
        assert!(!c.reclaim, "reclamation is opt-in");
        assert!(!c.hash_index, "the point-read index is opt-in");
    }

    #[test]
    fn builder_chains() {
        let c = GraphConfig::new(4)
            .lazy(true)
            .sparse(true)
            .max_level(3)
            .commission_cycles(10)
            .chunk_capacity(128)
            .reclaim(true)
            .block_bytes(144)
            .hash_index(true)
            .index_capacity(1 << 12)
            .adapt(AdaptConfig::new().window_ops(16));
        assert!(c.lazy && c.sparse);
        assert_eq!(c.max_level, 3);
        assert_eq!(c.commission_cycles, 10);
        assert_eq!(c.chunk_capacity, 128);
        assert!(c.reclaim);
        assert_eq!(c.block_bytes, 144);
        assert!(c.hash_index);
        assert_eq!(c.index_capacity, 1 << 12);
        assert_eq!(c.adapt, Some(AdaptConfig::new().window_ops(16)));
        assert_eq!(GraphConfig::new(4).adapt, None, "adaptation is opt-in");
    }

    #[test]
    fn ablation_presets() {
        assert_eq!(GraphConfig::linked_list(16).max_level, 0);
        assert_eq!(
            GraphConfig::single_skip_list(16).membership,
            MembershipStrategy::Single
        );
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = GraphConfig::new(0);
    }

    #[test]
    #[should_panic]
    fn too_many_threads_rejected() {
        let _ = GraphConfig::new(513);
    }

    #[test]
    #[should_panic]
    fn level_out_of_range_rejected() {
        let _ = GraphConfig::new(2).max_level(8);
    }
}
