//! Layered thread-local maps over NUMA-partitioned lock-free skip graphs.
//!
//! A Rust reproduction of *"Layering Data Structures over Skip Graphs for
//! Increased NUMA Locality"* (Thomas & Mendes, PODC 2019). The design
//! layers two kinds of structures:
//!
//! * a **shared structure** — a lock-free [`SkipGraph`] constrained in
//!   height (`MaxLevel = ceil(log2 T) - 1`) whose *partitioning scheme*
//!   assigns each thread one constituent skip list via a NUMA-aware
//!   membership vector (see [`mvec`]), increasing locality and reducing
//!   contention;
//! * per-thread **local structures** — a sequential navigable map (a
//!   [`local::BTreeLocalMap`], an in-crate B+tree) plus a
//!   [`local::RobinHoodMap`] hash table (the shared hash [`index`] takes
//!   the table's place where the graph has one) — used to *jump* into the
//!   shared structure near where operations complete, and to answer
//!   speculative lookups locally.
//!
//! Variants (all selected through [`GraphConfig`]):
//!
//! * **non-lazy** — insertions link all levels eagerly; removals mark
//!   top-down; searches physically unlink chains of marked references with
//!   a single CAS (the *relink optimization*);
//! * **lazy** — insertions link level 0 only and are *finished* on demand;
//!   removals just flip a `valid` bit (allowing in-place resurrection);
//!   nodes become candidates for physical removal only after a *commission
//!   period*, and unlinking happens only when an inserting node substitutes
//!   a marked chain;
//! * **sparse** — towers get geometric heights, so a level-`i` list keeps
//!   an element with expectation `1/4^i` and the local structures index
//!   only top-reaching nodes.
//!
//! Memory has one model, whatever the variant: a node unlinked from every
//! level is retired and, after an epoch grace period, recycled into its
//! owner's NUMA-local arena (`reclaim`). The paper's implementation never
//! frees a shared node mid-run, which only suits runs of a fixed length;
//! dropping that model is deliberate, and there is no switch back to it.
//!
//! Four map types, operated through three per-thread handles: the paper's
//! [`LayeredMap`] and the bare [`SkipGraph`] (the non-layered ablation)
//! share the [`LayeredHandle`] — the bare graph's keeps no local
//! structures, so every search starts at the head array, and it is also
//! how a reader outside a layered map's registered set reads
//! (`map.shared().pin(ctx)`) — the blocked [`BlockedSkipMap`] has its
//! [`BlockedHandle`] (point operations; a scan is
//! [`BlockedSkipMap::range`]), and the per-socket [`ReplicatedLayeredMap`]
//! its [`ReplicatedHandle`] (whose replicas replay a log of updates
//! through their layered handles). Each implements [`ConcurrentMap`].
//!
//! # Quick start
//!
//! ```
//! use skipgraph::{GraphConfig, LayeredMap};
//! use instrument::ThreadCtx;
//!
//! let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(4).lazy(true));
//! std::thread::scope(|s| {
//!     for t in 0..4u16 {
//!         let map = &map;
//!         s.spawn(move || {
//!             let mut h = map.register(ThreadCtx::plain(t));
//!             for i in 0..100u64 {
//!                 h.insert(i * 4 + t as u64, i);
//!             }
//!             assert!(h.contains(&(t as u64)));
//!         });
//!     }
//! });
//! ```

#[cfg(feature = "deterministic")]
pub mod det;
mod graph;
pub mod index;
mod layered;
mod map_api;
pub mod mvec;
mod node;
mod params;
mod prefetch;
mod reclaim;
pub mod replicate;
mod shims;
pub mod sync;

pub mod local;

pub use graph::{
    BlockedHandle, BlockedRangeIter, BlockedSkipMap, BlockedStats, MemoryStats, RangeIter,
    SkipGraph, MAX_BLOCK_CAP, MIN_BLOCK_CAP,
};
pub use layered::{LayeredHandle, LayeredMap};
pub use map_api::{ConcurrentMap, MapHandle};
pub use mvec::{default_max_level, MembershipStrategy};
pub use params::{GraphConfig, DEFAULT_COMMISSION_FACTOR};
pub use replicate::{ReplicaConfig, ReplicatedHandle, ReplicatedLayeredMap};
pub use shims::*;

/// Maximum supported tower height (levels `0..MAX_HEIGHT`).
pub const MAX_HEIGHT: usize = node::MAX_HEIGHT;

/// Samples a sparse-skip-graph tower height: `P(height >= i) = 1/2^i`,
/// capped at `max_level` (a standard skip-list height distribution).
pub(crate) fn sparse_height(rng: &mut impl rand::Rng, max_level: u8) -> u8 {
    let mut h = 0;
    while h < max_level && rng.gen::<bool>() {
        h += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sparse_height_distribution() {
        let mut rng = SmallRng::seed_from_u64(42);
        let n = 100_000;
        let mut counts = [0usize; 8];
        for _ in 0..n {
            counts[sparse_height(&mut rng, 7) as usize] += 1;
        }
        // P(h = 0) = 1/2, P(h = 1) = 1/4, ...
        assert!((counts[0] as f64 / n as f64 - 0.5).abs() < 0.02);
        assert!((counts[1] as f64 / n as f64 - 0.25).abs() < 0.02);
        assert!(counts.iter().sum::<usize>() == n);
    }

    #[test]
    fn sparse_height_respects_cap() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(sparse_height(&mut rng, 3) <= 3);
        }
        assert_eq!(sparse_height(&mut rng, 0), 0);
    }
}
