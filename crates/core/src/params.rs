//! Configuration of the shared structure.

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
    /// Extra bytes reserved after every node's tower for a fat level-0
    /// block (B-skiplist blocking). Zero for plain single-key nodes; set
    /// by `BlockedSkipMap::new` alone, from its capacity and entry stride,
    /// keeping `GraphConfig` independent of the key/value types.
    pub(crate) block_bytes: usize,
    /// Shared lock-free hash index for O(1) point reads (the Skip Hash
    /// fast path; see `skipgraph::index`). Maintained inline by
    /// insert/remove and consulted first by point `get`/`contains`;
    /// entries are generation-validated, so reclamation stays safe. Off
    /// by default. Honored by the layered builders (which know the key
    /// hashes); `SkipGraph::new` and the blocked map reject it. Every
    /// index segment starts at four slots and doubles in place, lock-free,
    /// under load.
    pub hash_index: bool,
    /// NUMA-ownership override: when set, every node allocated in this
    /// structure is tagged as owned by this thread (and recycled into its
    /// arena bank) instead of the allocating thread. Set by
    /// `ReplicatedLayeredMap::new` alone: a replica's memory belongs to
    /// the replica's socket no matter which thread happens to replay an
    /// operation into it. `None` keeps allocating-thread ownership.
    pub(crate) owner_tag: Option<u16>,
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
            block_bytes: 0,
            hash_index: false,
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

    /// Reserves `bytes` of trailing block storage on every allocated node
    /// (multiple of 8 so the region stays pointer-aligned). Used by the
    /// blocked map; plain maps leave this at zero.
    pub(crate) fn block_bytes(mut self, bytes: usize) -> Self {
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

    /// Tags every node allocated in this structure as owned by `thread`
    /// (see the `owner_tag` field).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is not a registered thread id.
    pub(crate) fn owner_tag(mut self, thread: u16) -> Self {
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
            .block_bytes(144)
            .hash_index(true);
        assert!(c.lazy && c.sparse);
        assert_eq!(c.max_level, 3);
        assert_eq!(c.commission_cycles, 10);
        assert_eq!(c.chunk_capacity, 128);
        assert_eq!(c.block_bytes, 144);
        assert!(c.hash_index);
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
