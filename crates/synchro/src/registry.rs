//! The structure registry: every map of the paper's evaluation, by its
//! figure-legend name.
//!
//! | Name | Structure |
//! |---|---|
//! | `layered_map_sg` | local maps over a (non-lazy) skip graph |
//! | `lazy_layered_sg` | the lazy variant |
//! | `layered_map_ssg` | local maps over a *sparse* skip graph |
//! | `layered_map_ll` | local maps over a linked list (MaxLevel 0) |
//! | `layered_map_sl` | local maps over a single skip list (no partitioning) |
//! | `batched_layered_sg` | lazy layered map behind the NUMA-local flat-combining executor |
//! | `skipgraph` | the skip graph without layering |
//! | `blocked_sg` | fat level-0 blocks (B-skiplist blocking) over the lazy skip graph |
//! | `anchor_blocked_sg` | blocked map under the anchor-granular policy (compacting merges, left-biased splits) |
//! | `hashed_sg` | layered map with the shared lock-free hash index (Skip Hash fast path) |
//! | `replicated_sg` | per-socket replicas of the lazy hash-indexed map over partitioned operation logs |
//! | `adaptive_sg` | the replicated map with the adaptation subsystem engaged (small sensor windows) |
//! | `skiplist` | lock-free skip list with the relink optimization |
//! | `skiplist_norelink` | the same without relink (ablation) |
//! | `locked_skiplist` | optimistic lazy lock-based skip list |
//! | `harris_ll` | Harris linked list (unlayered) |
//! | `nohotspot` | No-Hotspot-style skip list |
//! | `rotating` | Rotating-style skip list |
//! | `numask` | NUMASK-style NUMA-aware skip list |
//! | `coarse_btreemap` | one `RwLock` around a `BTreeMap` (naive reference; not in the paper) |

use crate::workload::{run_trial, InstrMode, TrialResult, TrialSummary, Workload};
use baselines::{
    CoarseLockMap, HarrisList, LockFreeSkipList, LockedSkipList, NoHotspotSkipList,
    NumaskSkipList, RotatingSkipList, SkipListConfig,
};
use numa::{Placement, Topology};
use skipgraph::{
    AdaptConfig, BatchConfig, BatchedLayeredMap, BlockPolicy, BlockedSkipMap, GraphConfig,
    LayeredMap, ReplicaConfig, ReplicatedLayeredMap, SkipGraph,
};
use std::time::Duration;

/// All registry names, in the order the paper's figures list them.
pub const STRUCTURES: &[&str] = &[
    "layered_map_sg",
    "lazy_layered_sg",
    "reclaim_layered_sg",
    "layered_map_ssg",
    "layered_map_ll",
    "layered_map_sl",
    "batched_layered_sg",
    "skipgraph",
    "blocked_sg",
    "anchor_blocked_sg",
    "hashed_sg",
    "replicated_sg",
    "adaptive_sg",
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

fn maintenance_period() -> Duration {
    Duration::from_millis(2)
}

fn chunk_capacity(workload: &Workload) -> usize {
    // Enough for the preload plus churn without mapping the paper's 2^20
    // objects per thread on a small machine.
    ((workload.key_space as usize / workload.threads.max(1)) * 2).clamp(1 << 10, 1 << 16)
}

/// Builds the named structure and runs one trial. Panics on an unknown
/// name (see [`STRUCTURES`]).
pub fn run_named(name: &str, workload: &Workload, instr: &InstrMode) -> TrialResult {
    let t = workload.threads;
    let cap = chunk_capacity(workload);
    match name {
        "layered_map_sg" => run_trial(
            &LayeredMap::<u64, u64>::new(GraphConfig::new(t).chunk_capacity(cap)),
            workload,
            instr,
        ),
        "lazy_layered_sg" => run_trial(
            &LayeredMap::<u64, u64>::new(GraphConfig::new(t).lazy(true).chunk_capacity(cap)),
            workload,
            instr,
        ),
        // Non-lazy layered map with epoch-based reclamation: removals
        // retire their nodes through the grace-period protocol and slots
        // are recycled NUMA-locally, exercising the generation-checked
        // hint paths under churn.
        "reclaim_layered_sg" => run_trial(
            &LayeredMap::<u64, u64>::new(GraphConfig::new(t).reclaim(true).chunk_capacity(cap)),
            workload,
            instr,
        ),
        "layered_map_ssg" => run_trial(
            &LayeredMap::<u64, u64>::new(GraphConfig::new(t).sparse(true).chunk_capacity(cap)),
            workload,
            instr,
        ),
        "layered_map_ll" => run_trial(
            &LayeredMap::<u64, u64>::new(GraphConfig::linked_list(t).chunk_capacity(cap)),
            workload,
            instr,
        ),
        "layered_map_sl" => run_trial(
            &LayeredMap::<u64, u64>::new(GraphConfig::single_skip_list(t).chunk_capacity(cap)),
            workload,
            instr,
        ),
        "batched_layered_sg" => {
            // Slot banks follow the same placement the trial pins threads
            // with, so each bank is genuinely per-NUMA-node.
            let topology = Topology::detect_or_paper();
            let batch = BatchConfig::from_placement(&Placement::new(&topology, t));
            run_trial(
                &BatchedLayeredMap::<u64, u64>::new(
                    GraphConfig::new(t).lazy(true).chunk_capacity(cap),
                    batch,
                ),
                workload,
                instr,
            )
        }
        "skipgraph" => run_trial(
            &SkipGraph::<u64, u64>::new(GraphConfig::new(t).chunk_capacity(cap)),
            workload,
            instr,
        ),
        // Fat level-0 blocks: several keys per anchor node, split/merge
        // under the marked-pointer protocol (see `skipgraph::BlockedSkipMap`).
        "blocked_sg" => run_trial(
            &BlockedSkipMap::<u64, u64>::new(GraphConfig::new(t).chunk_capacity(cap), 8),
            workload,
            instr,
        ),
        // The blocked map under the anchor-granular policy: compacting
        // merges (threshold 1) and leave-behind splits. This is also the
        // configuration whose bug-injection arm trusts a local anchor
        // without the covering check (`blocked_sg` keeps the lost-insert
        // arm instead).
        "anchor_blocked_sg" => run_trial(
            &BlockedSkipMap::<u64, u64>::with_policy(
                GraphConfig::new(t).chunk_capacity(cap),
                8,
                BlockPolicy { split_left_pct: 65, merge_threshold: 1 },
            ),
            workload,
            instr,
        ),
        // Layered map with the shared point-read hash index installed
        // (non-lazy, no reclamation: eager removes must invalidate their
        // index entries — the exact duty the bug-injection lane skips).
        "hashed_sg" => run_trial(
            &LayeredMap::<u64, u64>::new(
                GraphConfig::new(t).hash_index(true).chunk_capacity(cap),
            ),
            workload,
            instr,
        ),
        // Per-socket node replication: one lazy hash-indexed replica per
        // populated NUMA node, reads served replica-locally under the NR
        // read rule, writes through membership-vector-partitioned
        // operation logs (see `skipgraph::replicate`). Small logs + a
        // tight lag bound keep the backpressure/helping paths hot even in
        // short trials.
        "replicated_sg" => {
            let topology = Topology::detect_or_paper();
            let placement = Placement::new(&topology, t);
            let mut replicas = ReplicaConfig::from_placement(&placement);
            if replicas.sockets() < 2 {
                // Single-node hosts still exercise cross-replica staleness
                // with a synthetic two-socket split.
                replicas = ReplicaConfig::uniform(t, 2);
            }
            let replicas = replicas.logs(2).log_capacity(64).max_lag(48);
            run_trial(
                &ReplicatedLayeredMap::<u64, u64>::new(
                    GraphConfig::new(t)
                        .lazy(true)
                        .hash_index(true)
                        .chunk_capacity(cap),
                    replicas,
                ),
                workload,
                instr,
            )
        }
        // The replicated map with the adaptation subsystem engaged: tiny
        // sensor windows and no dwell so the replication gate, index
        // growth signal, and ascending-split gate all switch within a
        // short trial rather than after thousands of operations.
        "adaptive_sg" => {
            let topology = Topology::detect_or_paper();
            let placement = Placement::new(&topology, t);
            let mut replicas = ReplicaConfig::from_placement(&placement);
            if replicas.sockets() < 2 {
                replicas = ReplicaConfig::uniform(t, 2);
            }
            let replicas = replicas
                .logs(2)
                .log_capacity(64)
                .max_lag(48)
                .adapt(AdaptConfig::new().window_ops(64).dwell_windows(1));
            run_trial(
                &ReplicatedLayeredMap::<u64, u64>::new(
                    GraphConfig::new(t)
                        .lazy(true)
                        .hash_index(true)
                        .chunk_capacity(cap)
                        .adapt(AdaptConfig::new().window_ops(64).dwell_windows(1)),
                    replicas,
                ),
                workload,
                instr,
            )
        }
        "skiplist" => run_trial(
            &LockFreeSkipList::<u64, u64>::new(
                SkipListConfig::new(t, workload.key_space).chunk_capacity(cap),
            ),
            workload,
            instr,
        ),
        "skiplist_norelink" => run_trial(
            &LockFreeSkipList::<u64, u64>::new(
                SkipListConfig::new(t, workload.key_space)
                    .relink(false)
                    .chunk_capacity(cap),
            ),
            workload,
            instr,
        ),
        "locked_skiplist" => {
            let levels = SkipListConfig::new(t, workload.key_space).levels;
            run_trial(
                &LockedSkipList::<u64, u64>::new(t, levels, cap),
                workload,
                instr,
            )
        }
        "harris_ll" => run_trial(&HarrisList::<u64, u64>::new(t, cap), workload, instr),
        "coarse_btreemap" => run_trial(&CoarseLockMap::<u64, u64>::new(), workload, instr),
        "nohotspot" => run_trial(
            &NoHotspotSkipList::<u64, u64>::new(t, cap, maintenance_period()),
            workload,
            instr,
        ),
        "rotating" => run_trial(
            &RotatingSkipList::<u64, u64>::new(t, cap, maintenance_period()),
            workload,
            instr,
        ),
        "numask" => {
            let topology = Topology::detect_or_paper();
            let zones = Placement::new(&topology, t).numa_nodes();
            run_trial(
                &NumaskSkipList::<u64, u64>::new(zones, cap, maintenance_period()),
                workload,
                instr,
            )
        }
        other => panic!("unknown structure {other:?}; see synchro::registry::STRUCTURES"),
    }
}

/// Runs `runs` trials of the named structure and summarizes (mean/std).
pub fn summarize_named(name: &str, workload: &Workload, runs: usize) -> TrialSummary {
    assert!(runs > 0);
    let mut throughputs = Vec::with_capacity(runs);
    let mut effective = Vec::with_capacity(runs);
    for r in 0..runs {
        let w = workload.clone().seed(workload.seed.wrapping_add(r as u64));
        let res = run_named(name, &w, &InstrMode::Off);
        throughputs.push(res.ops_per_ms());
        effective.push(res.effective_update_pct());
    }
    let mean = throughputs.iter().sum::<f64>() / runs as f64;
    let var = if runs > 1 {
        throughputs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (runs - 1) as f64
    } else {
        0.0
    };
    TrialSummary {
        mean_ops_per_ms: mean,
        stddev: var.sqrt(),
        mean_effective_update_pct: effective.iter().sum::<f64>() / runs as f64,
        runs: throughputs,
    }
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
