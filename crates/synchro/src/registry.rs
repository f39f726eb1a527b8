//! The structure registry: every map of the paper's evaluation, by its
//! figure-legend name, built from one table ([`with_named`]) that trials,
//! figures, latency runs and the stress runner all go through.
//!
//! | Name | Structure |
//! |---|---|
//! | `layered_map_sg` | local maps over a (non-lazy) skip graph |
//! | `lazy_layered_sg` | the lazy variant |
//! | `layered_map_ssg` | local maps over a *sparse* skip graph |
//! | `layered_map_ll` | local maps over a linked list (MaxLevel 0) |
//! | `layered_map_sl` | local maps over a single skip list (no partitioning) |
//! | `skipgraph` | the skip graph without layering |
//! | `blocked_sg` | fat level-0 blocks (B-skiplist blocking) over sparse towers, as the benchmark's scan workload runs them |
//! | `anchor_blocked_sg` | the same blocks over full towers, every anchor sampled into the local anchor maps |
//! | `hashed_sg` | layered map with the shared lock-free hash index (Skip Hash fast path) |
//! | `lazy_hashed_sg` | the lazy hash-indexed layered map, the geometry of the benchmark's point workloads |
//! | `replicated_sg` | per-socket replicas of the lazy hash-indexed map over partitioned operation logs |
//! | `skiplist` | lock-free skip list with the relink optimization |
//! | `skiplist_norelink` | the same without relink (ablation) |
//! | `locked_skiplist` | optimistic lazy lock-based skip list |
//! | `harris_ll` | Harris linked list (unlayered) |
//! | `nohotspot` | No-Hotspot-style skip list |
//! | `rotating` | Rotating-style skip list |
//! | `numask` | NUMASK-style NUMA-aware skip list |
//! | `coarse_btreemap` | one `RwLock` around a `BTreeMap` (naive reference; not in the paper) |
//!
//! The rows the paper's figures plot ([`FIGURE_STRUCTURES`]) take the
//! paper's parameters. The extension rows take small ones — blocks of
//! four, a one-slot index hint, 16-slot replica logs, two synthetic
//! sockets — because the deterministic stress lanes must reach their
//! split, grow and wraparound paths within a few hundred scheduled
//! operations.

use crate::workload::{run_trial, summarize, InstrMode, TrialResult, TrialSummary, Workload};
use baselines::{
    CoarseLockMap, HarrisList, LockFreeSkipList, LockedSkipList, NoHotspotSkipList,
    NumaskSkipList, RotatingSkipList, SkipListConfig,
};
use numa::{Placement, Topology};
use skipgraph::{
    BlockedSkipMap, ConcurrentMap, GraphConfig, LayeredMap, ReplicaConfig, ReplicatedLayeredMap,
    SkipGraph,
};
use std::time::Duration;

/// All registry names, in the order the paper's figures list them.
pub const STRUCTURES: &[&str] = &[
    "layered_map_sg",
    "lazy_layered_sg",
    "layered_map_ssg",
    "layered_map_ll",
    "layered_map_sl",
    "skipgraph",
    "blocked_sg",
    "anchor_blocked_sg",
    "hashed_sg",
    "lazy_hashed_sg",
    "replicated_sg",
    "skiplist",
    "skiplist_norelink",
    "locked_skiplist",
    "harris_ll",
    "nohotspot",
    "rotating",
    "numask",
    "coarse_btreemap",
];

/// The subset the paper's throughput figures plot (Figs. 2–4, 11–13).
pub const FIGURE_STRUCTURES: &[&str] = &[
    "layered_map_sg",
    "lazy_layered_sg",
    "layered_map_ssg",
    "layered_map_ll",
    "layered_map_sl",
    "skipgraph",
    "skiplist",
    "locked_skiplist",
    "nohotspot",
    "rotating",
    "numask",
];

/// Arena chunk capacity for `threads` threads over `key_space` keys:
/// enough for the preload plus churn without mapping the paper's 2^20
/// objects per thread on a small machine.
pub fn chunk_capacity(threads: usize, key_space: u64) -> usize {
    ((key_space as usize / threads.max(1)) * 2).clamp(1 << 10, 1 << 16)
}

/// What to do with a freshly built structure. A trait rather than a
/// closure because the method is generic over the structure's type.
pub trait Visit {
    /// What the visit returns.
    type Out;
    /// Runs on `map`, which is dropped when the visit returns.
    fn visit<M: ConcurrentMap<u64, u64>>(self, map: &M) -> Self::Out;
}

/// Builds the named structure for `threads` threads over the keys
/// `0..key_space` and hands it to `visit`. Panics on an unknown name (see
/// [`STRUCTURES`]).
pub fn with_named<V: Visit>(name: &str, threads: usize, key_space: u64, visit: V) -> V::Out {
    let t = threads;
    let cap = chunk_capacity(t, key_space);
    let maintenance = Duration::from_millis(2);
    match name {
        "layered_map_sg" | "lazy_layered_sg" | "layered_map_ssg" | "layered_map_ll"
        | "layered_map_sl" | "hashed_sg" | "lazy_hashed_sg" => {
            let graph = match name {
                "layered_map_sg" => GraphConfig::new(t),
                "lazy_layered_sg" => GraphConfig::new(t).lazy(true),
                "layered_map_ssg" => GraphConfig::new(t).sparse(true),
                "layered_map_ll" => GraphConfig::linked_list(t),
                "layered_map_sl" => GraphConfig::single_skip_list(t),
                "lazy_hashed_sg" => GraphConfig::new(t).lazy(true).hash_index(true),
                // Non-lazy, so eager removes must invalidate their own
                // entries (the duty the bug-injection lane skips); every
                // index segment starts at four slots, so the stress
                // schedules cross in-place grows and compactions.
                _ => GraphConfig::new(t).hash_index(true),
            };
            visit.visit(&LayeredMap::<u64, u64>::new(graph.chunk_capacity(cap)))
        }
        "skipgraph" => visit.visit(&SkipGraph::<u64, u64>::new(
            GraphConfig::new(t).chunk_capacity(cap),
        )),
        // Blocks of four so the stress schedules reach splits and merges,
        // not just in-block CASes, over the scan workload's sparse towers
        // of up to eight levels. Sparse towers select the lost-insert
        // injection (`anchor_blocked_sg` keeps the severed covering check).
        "blocked_sg" => visit.visit(&BlockedSkipMap::<u64, u64>::new(
            GraphConfig::new(t)
                .chunk_capacity(cap)
                .max_level(7)
                .sparse(true),
            4,
        )),
        // The same blocks over full towers: with three threads towers stop
        // at level 1 and every anchor reaches it, so the local anchor maps
        // fill, and split and merge installs retire the dead anchors, so
        // those maps validate against recycled slots.
        "anchor_blocked_sg" => visit.visit(&BlockedSkipMap::<u64, u64>::new(
            GraphConfig::new(t).chunk_capacity(cap),
            4,
        )),
        // Per-socket replicas over two synthetic sockets, so reads on one
        // replica race replays of the other, with logs of 16 (so a lag
        // bound of 12) so the stress schedules reach wraparound and
        // backpressure helping. The bug-injection build replicates the
        // plain eager graph, so the replication fault is the only live one
        // in the lane.
        "replicated_sg" => {
            let graph = GraphConfig::new(t).chunk_capacity(cap);
            #[cfg(not(feature = "bug-injection"))]
            let graph = graph.lazy(true).hash_index(true);
            let replicas = ReplicaConfig::uniform(t, t.min(2)).logs(2).log_capacity(16);
            visit.visit(&ReplicatedLayeredMap::<u64, u64>::new(graph, replicas))
        }
        "skiplist" => visit.visit(&LockFreeSkipList::<u64, u64>::new(
            SkipListConfig::new(t, key_space).chunk_capacity(cap),
        )),
        "skiplist_norelink" => visit.visit(&LockFreeSkipList::<u64, u64>::new(
            SkipListConfig::new(t, key_space)
                .relink(false)
                .chunk_capacity(cap),
        )),
        "locked_skiplist" => {
            let levels = SkipListConfig::new(t, key_space).levels;
            visit.visit(&LockedSkipList::<u64, u64>::new(t, levels, cap))
        }
        "harris_ll" => visit.visit(&HarrisList::<u64, u64>::new(t, cap)),
        "coarse_btreemap" => visit.visit(&CoarseLockMap::<u64, u64>::new()),
        "nohotspot" => visit.visit(&NoHotspotSkipList::<u64, u64>::new(t, cap, maintenance)),
        "rotating" => visit.visit(&RotatingSkipList::<u64, u64>::new(t, cap, maintenance)),
        "numask" => {
            let zones = Placement::new(&Topology::detect_or_paper(), t).numa_nodes();
            visit.visit(&NumaskSkipList::<u64, u64>::new(zones, cap, maintenance))
        }
        other => panic!("unknown structure {other:?}; see synchro::registry::STRUCTURES"),
    }
}

/// Builds the named structure and runs one trial. Panics on an unknown
/// name (see [`STRUCTURES`]).
pub fn run_named(name: &str, workload: &Workload, instr: &InstrMode) -> TrialResult {
    struct Trial<'a>(&'a Workload, &'a InstrMode);
    impl Visit for Trial<'_> {
        type Out = TrialResult;
        fn visit<M: ConcurrentMap<u64, u64>>(self, map: &M) -> TrialResult {
            run_trial(map, self.0, self.1)
        }
    }
    with_named(
        name,
        workload.threads,
        workload.key_space,
        Trial(workload, instr),
    )
}

/// Runs `runs` trials of the named structure and summarizes (mean/std).
pub fn summarize_named(name: &str, workload: &Workload, runs: usize) -> TrialSummary {
    summarize(workload, runs, |w| run_named(name, w, &InstrMode::Off))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_structure_runs() {
        let w = Workload::new(2, 1 << 8)
            .duration(Duration::from_millis(15))
            .no_pin();
        for name in STRUCTURES {
            let res = run_named(name, &w, &InstrMode::Off);
            assert!(res.total_ops > 0, "{name} made no progress");
        }
    }

    #[test]
    #[should_panic(expected = "unknown structure")]
    fn unknown_name_panics() {
        let w = Workload::new(1, 4).duration(Duration::from_millis(1)).no_pin();
        let _ = run_named("nope", &w, &InstrMode::Off);
    }

    #[test]
    fn figure_structures_is_subset() {
        for name in FIGURE_STRUCTURES {
            assert!(STRUCTURES.contains(name), "{name}");
        }
    }
}
