//! Deterministic-schedule lanes (`cargo test --features deterministic`).
//!
//! Under the `deterministic` feature every `TaggedAtomic` access in the
//! data structures is a yield point of the seeded cooperative scheduler
//! (`skipgraph::det`), so a whole concurrent execution — every
//! interleaving decision, every operation result, every history — is a
//! pure function of the `(workload seed, schedule seed, policy)` triple.
//!
//! Replay a failure printed by the stress runner with e.g.
//! `SCHEDULE_SEED=1234 cargo test --features deterministic pct_schedules`.
// Not meaningful with the broken-on-purpose lazy remove compiled in.
#![cfg(all(feature = "deterministic", not(feature = "bug-injection")))]

use instrument::ThreadCtx;
use skipgraph::det::{round_robin_family, DetConfig, Policy};
use skipgraph::{GraphConfig, LayeredMap};
use synchro::stress::{
    counters_named_det, execute_det, initially_present, plan_workload, records_named_det,
    stress_named_det, StressConfig, DET_STRUCTURES,
};

fn env_seed(default: u64) -> u64 {
    std::env::var("SCHEDULE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Small deterministic workload: 3 threads keep scheduling interesting
/// while each run stays well under the step bound.
fn small() -> StressConfig {
    StressConfig {
        threads: 3,
        key_space: 8,
        ops_per_thread: 24,
        update_pct: 70,
        preload: true,
        seed: 42,
    }
}

#[test]
fn same_seed_replays_byte_for_byte() {
    let cfg = small();
    let plans = plan_workload(&cfg);
    let det = DetConfig::new(
        env_seed(0xD15C0),
        Policy::Pct {
            change_points: 8,
            expected_steps: 20_000,
        },
    );
    let (r1, t1) = records_named_det("lazy_layered_sg", &cfg, &plans, &det);
    let (r2, t2) = records_named_det("lazy_layered_sg", &cfg, &plans, &det);
    assert_eq!(t1, t2, "schedule traces diverged for identical seeds");
    assert_eq!(r1, r2, "operation records diverged for identical seeds");
    assert!(!t1.decisions.is_empty());
}

#[test]
fn different_schedule_seeds_explore_different_interleavings() {
    let cfg = small();
    let plans = plan_workload(&cfg);
    let mk = |seed| {
        DetConfig::new(
            seed,
            Policy::Pct {
                change_points: 12,
                expected_steps: 20_000,
            },
        )
    };
    let (_, t1) = records_named_det("skipgraph", &cfg, &plans, &mk(1));
    let (_, t2) = records_named_det("skipgraph", &cfg, &plans, &mk(2));
    assert_ne!(t1.decisions, t2.decisions, "PCT seeds 1 and 2 gave the same schedule");
}

#[test]
fn round_robin_family_is_clean_on_every_det_structure() {
    // Bounded-exhaustive sweep of small round-robin schedules: every
    // quantum × starting thread, on every deterministically schedulable
    // structure, with a tiny workload.
    let cfg = StressConfig {
        threads: 2,
        key_space: 4,
        ops_per_thread: 10,
        update_pct: 80,
        preload: false,
        seed: 3,
    };
    for name in DET_STRUCTURES {
        for (seed, policy) in round_robin_family(cfg.threads, 3) {
            let det = DetConfig::new(seed, policy);
            stress_named_det(name, &cfg, &det)
                .unwrap_or_else(|e| panic!("{name} under {:?}: {e}", det.policy));
        }
    }
}

#[test]
fn pct_schedules_linearize() {
    let cfg = small();
    let base = env_seed(100);
    for name in ["lazy_layered_sg", "layered_map_sg", "skiplist", "harris_ll"] {
        for s in 0..6u64 {
            let det = DetConfig::new(
                base + s,
                Policy::Pct {
                    change_points: 10,
                    expected_steps: 30_000,
                },
            );
            stress_named_det(name, &cfg, &det)
                .unwrap_or_else(|e| panic!("{name} seed {}: {e}", base + s));
        }
    }
}

/// Deterministic-schedule stress of the epoch-based reclamation path:
/// a removal-heavy mix over a tiny key space so nodes are retired,
/// epochs advance through the facade atomics (the scheduler interleaves
/// the grace-period protocol), and freed slots are recycled under new
/// keys while other threads still hold generation-tagged hints to the
/// old incarnation. `ops_per_thread` is chosen to cross the reclaimer's
/// quiesce period several times per thread so collection actually runs
/// mid-workload, not just at teardown.
#[test]
fn reclaiming_layered_map_pct_and_round_robin_linearize() {
    // key_space × the checker's per-key cap must cover 3 × 200 ops.
    let cfg = StressConfig {
        threads: 3,
        key_space: 12,
        ops_per_thread: 200,
        update_pct: 90,
        preload: true,
        seed: 9,
    };
    let base = env_seed(500);
    for s in 0..4u64 {
        let det = DetConfig::new(
            base + s,
            Policy::Pct {
                change_points: 10,
                expected_steps: 60_000,
            },
        );
        stress_named_det("reclaim_layered_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("reclaim_layered_sg pct seed {}: {e}", base + s));
    }
    for quantum in [1u32, 3, 7] {
        let det = DetConfig::new(base, Policy::RoundRobin { quantum });
        stress_named_det("reclaim_layered_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("reclaim_layered_sg round-robin quantum {quantum}: {e}"));
    }
}

#[test]
fn trace_replay_reproduces_the_run() {
    let cfg = small();
    let plans = plan_workload(&cfg);
    let det = DetConfig::new(env_seed(77), Policy::RoundRobin { quantum: 5 });
    let (r1, t1) = records_named_det("lazy_layered_sg", &cfg, &plans, &det);
    let replay = DetConfig::new(
        det.seed,
        Policy::Replay {
            segments: t1.segments(),
        },
    );
    let (r2, t2) = records_named_det("lazy_layered_sg", &cfg, &plans, &replay);
    assert_eq!(t1.decisions, t2.decisions, "replay deviated from the recorded trace");
    assert_eq!(r1, r2, "replay produced different operation results");
}

/// Deterministic-schedule stress of the flat-combining batch executor:
/// 4 threads mapped 2 sockets × 2 threads (`batched_layered_sg` builds
/// `BatchConfig::uniform(4, 2)` in the registry), under both PCT and
/// round-robin policies. Every per-key history of the combined batches
/// must linearize — the combiner answering a foreign slot's operation is
/// just another linearization point for that submitter's op.
#[test]
fn batched_executor_pct_and_round_robin_linearize() {
    let cfg = StressConfig {
        threads: 4,
        key_space: 10,
        ops_per_thread: 25,
        update_pct: 70,
        preload: true,
        seed: 11,
    };
    let base = env_seed(500);
    for s in 0..4u64 {
        let det = DetConfig::new(
            base + s,
            Policy::Pct {
                change_points: 10,
                expected_steps: 60_000,
            },
        );
        stress_named_det("batched_layered_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("pct seed {}: {e}", base + s));
    }
    for quantum in [1u32, 3, 7] {
        let det = DetConfig::new(base, Policy::RoundRobin { quantum });
        stress_named_det("batched_layered_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("round-robin quantum {quantum}: {e}"));
    }
}

/// Deterministic-schedule stress of the shared point-read hash index:
/// an update-heavy mix over a tiny key space so inserts/removes churn
/// index entries (publish-after-link vs invalidate racing reads through
/// the index fast path), with the scheduler interleaving the entry CAS
/// protocol against the node-state re-checks. `hashed_sg` starts at the
/// smallest index there is, so the schedules also interleave in-place
/// grows and compactions with reads. A stale index read surviving
/// validation would surface as a non-linearizable per-key history.
///
/// The lane fails if no schedule grows the index: each schedule is run a
/// second time on a map built as `hashed_sg` is, whose index is read
/// afterwards (the registry hands out no map to inspect).
#[test]
fn hashed_index_pct_and_round_robin_linearize() {
    let cfg = StressConfig {
        threads: 3,
        key_space: 10,
        ops_per_thread: 120,
        update_pct: 80,
        preload: true,
        seed: 13,
    };
    let base = env_seed(700);
    let pct = (0..4u64).map(|s| {
        DetConfig::new(
            base + s,
            Policy::Pct {
                change_points: 10,
                expected_steps: 60_000,
            },
        )
    });
    let round_robin =
        [1u32, 3, 7].map(|quantum| DetConfig::new(base, Policy::RoundRobin { quantum }));
    let mut grew = 0;
    for det in pct.chain(round_robin) {
        stress_named_det("hashed_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("hashed_sg {det:?}: {e}"));
        grew += index_grows_under(&cfg, &det) as usize;
    }
    assert!(grew > 0, "no schedule grew the index");
}

/// Whether `det` grows the index of a map built as `hashed_sg` is.
fn index_grows_under(cfg: &StressConfig, det: &DetConfig) -> bool {
    let map = LayeredMap::<u64, u64>::new(
        GraphConfig::new(cfg.threads as usize)
            .hash_index(true)
            .index_capacity(1),
    );
    let capacity = || map.shared().memory_stats(&ThreadCtx::plain(0)).index_capacity;
    let before = capacity();
    let mut h = map.register(ThreadCtx::plain(0));
    for key in (0..cfg.key_space).filter(|&k| initially_present(cfg, k)) {
        assert!(h.insert(key, key));
    }
    drop(h);
    execute_det(&map, &plan_workload(cfg), det, None);
    capacity() > before
}

/// Deterministic-schedule stress of the anchor-granular blocked map:
/// `anchor_blocked_sg` runs the blocked map under a compacting merge
/// threshold and left-biased splits, so schedules interleave freezes,
/// chain rebuilds, and merge unlinks against point ops that route
/// through the thread slots' local anchor maps. A local anchor trusted
/// past a split without its covering check (the exact fault the
/// bug-injection arm plants) would surface as a lost or misplaced
/// operation in the per-key histories. `GraphConfig::new(3)` stops towers
/// at level 1, which is also where the sampling rule stops, so every
/// anchor is recorded; the last assertion keeps the lane from going
/// vacuous should that change.
#[test]
fn anchor_blocked_pct_and_round_robin_linearize() {
    let cfg = StressConfig {
        threads: 3,
        key_space: 10,
        ops_per_thread: 120,
        update_pct: 80,
        preload: true,
        seed: 23,
    };
    let base = env_seed(1100);
    for s in 0..4u64 {
        let det = DetConfig::new(
            base + s,
            Policy::Pct {
                change_points: 10,
                expected_steps: 60_000,
            },
        );
        stress_named_det("anchor_blocked_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("anchor_blocked_sg pct seed {}: {e}", base + s));
    }
    for quantum in [1u32, 3, 7] {
        let det = DetConfig::new(base, Policy::RoundRobin { quantum });
        stress_named_det("anchor_blocked_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("anchor_blocked_sg round-robin quantum {quantum}: {e}"));
        let counted = counters_named_det("anchor_blocked_sg", &cfg, &det);
        assert!(
            counted.anchor_hits > 0,
            "quantum {quantum}: no operation was answered by a local anchor: {counted:?}"
        );
    }
}

/// Deterministic-schedule stress of the per-socket replication layer:
/// 4 threads on 2 synthetic sockets (`replicated_sg` builds a tiny
/// 16-slot log with a lag bound of 12, so schedules reach wraparound and
/// backpressure helping). The scheduler interleaves appends, replay-lease
/// handoffs, the NR read catch-up, and the slot seq/result stamps — a
/// read served from a replica whose tail had not passed the mapped log's
/// head (or a lost/duplicated outcome across slot reuse) would surface as
/// a non-linearizable per-key history.
#[test]
fn replicated_pct_and_round_robin_linearize() {
    let cfg = StressConfig {
        threads: 4,
        key_space: 10,
        ops_per_thread: 25,
        update_pct: 70,
        preload: true,
        seed: 17,
    };
    let base = env_seed(900);
    for s in 0..4u64 {
        let det = DetConfig::new(
            base + s,
            Policy::Pct {
                change_points: 10,
                expected_steps: 60_000,
            },
        );
        stress_named_det("replicated_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("replicated_sg pct seed {}: {e}", base + s));
    }
    for quantum in [1u32, 3, 7] {
        let det = DetConfig::new(base, Policy::RoundRobin { quantum });
        stress_named_det("replicated_sg", &cfg, &det)
            .unwrap_or_else(|e| panic!("replicated_sg round-robin quantum {quantum}: {e}"));
    }
}

/// Deterministic-schedule stress of the adaptation subsystem: the
/// `adaptive_sg` lane runs the replicated map with an 8-op sensor window
/// and zero dwell, so the write-ratio gate downshifts to the single
/// structure and upshifts back *mid-schedule*. The scheduler interleaves
/// the drain-then-redirect downshift (and the rebuild-replicas upshift)
/// against concurrent reads and log appends — a read served from replica
/// 0 before the drain completed, or a write lost across the generation
/// bump, would surface as a non-linearizable per-key history. Two mixes:
/// one update-heavy (holds the gate mostly single), one near the band
/// edges so the gate oscillates.
#[test]
fn adaptive_transitions_pct_and_round_robin_linearize() {
    let base = env_seed(1300);
    for (seed, update_pct) in [(19u64, 70u32), (29, 45)] {
        let cfg = StressConfig {
            threads: 4,
            key_space: 10,
            ops_per_thread: 25,
            update_pct,
            preload: true,
            seed,
        };
        for s in 0..4u64 {
            let det = DetConfig::new(
                base + s,
                Policy::Pct {
                    change_points: 10,
                    expected_steps: 60_000,
                },
            );
            stress_named_det("adaptive_sg", &cfg, &det).unwrap_or_else(|e| {
                panic!("adaptive_sg update_pct {update_pct} pct seed {}: {e}", base + s)
            });
        }
        for quantum in [1u32, 3, 7] {
            let det = DetConfig::new(base, Policy::RoundRobin { quantum });
            stress_named_det("adaptive_sg", &cfg, &det).unwrap_or_else(|e| {
                panic!("adaptive_sg update_pct {update_pct} round-robin quantum {quantum}: {e}")
            });
        }
    }
}

/// Long-running sweep; run explicitly with
/// `cargo test --features deterministic -- --ignored long_det_sweep`.
#[test]
#[ignore = "long-running: hundreds of seeded schedules over all det structures"]
fn long_det_sweep() {
    let cfg = StressConfig {
        threads: 4,
        key_space: 10,
        ops_per_thread: 60,
        update_pct: 70,
        preload: true,
        seed: 9,
    };
    let base = env_seed(10_000);
    for name in DET_STRUCTURES {
        for s in 0..32u64 {
            let det = DetConfig::new(
                base + s,
                Policy::Pct {
                    change_points: 16,
                    expected_steps: 120_000,
                },
            );
            stress_named_det(name, &cfg, &det)
                .unwrap_or_else(|e| panic!("{name} seed {}: {e}", base + s));
        }
    }
}
