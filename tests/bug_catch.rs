//! Harness validation: with `--features "deterministic bug-injection"` the
//! lazy remove skips its validity CAS (it reports success without ever
//! unlinking the key), and the stress runner must catch the resulting
//! non-linearizable history, shrink it, and produce a replayable report.
#![cfg(all(feature = "deterministic", feature = "bug-injection"))]

use linearize::Op;
use skipgraph::det::{round_robin_family, DetConfig, Policy};
use synchro::stress::{records_named_det, stress_named_det, FailureReport, StressConfig};

/// Runs `name` under each schedule in turn and returns the first failure
/// report. Every arm sweeps a bounded family (at least 32 schedules) and
/// never pins a seed: which schedule exposes a fault shifts whenever the
/// product code's number of facade accesses does, and a hand-picked seed
/// list would then dictate product structure.
fn first_catch(
    name: &str,
    cfg: &StressConfig,
    schedules: impl Iterator<Item = DetConfig>,
) -> Box<FailureReport> {
    let mut tried = 0;
    for det in schedules {
        tried += 1;
        if let Err(report) = stress_named_det(name, cfg, &det) {
            eprintln!("{name}: caught by schedule {tried}: {det:?}");
            return report;
        }
    }
    panic!("{name}: injected bug went undetected on all {tried} schedules");
}

/// PCT schedules for seeds `1..=32`.
fn pct(change_points: u32, expected_steps: u64) -> impl Iterator<Item = DetConfig> {
    (1..=32).map(move |seed| {
        DetConfig::new(
            seed,
            Policy::Pct {
                change_points,
                expected_steps,
            },
        )
    })
}

/// Every round-robin schedule with a quantum up to `max_quantum`, from
/// every starting thread.
fn round_robin(threads: u16, max_quantum: u32) -> impl Iterator<Item = DetConfig> {
    round_robin_family(threads, max_quantum)
        .into_iter()
        .map(|(seed, policy)| DetConfig::new(seed, policy))
}

fn bug_workload() -> StressConfig {
    StressConfig {
        threads: 3,
        key_space: 8,
        ops_per_thread: 30,
        update_pct: 70,
        preload: true,
        seed: 5,
    }
}

#[test]
fn injected_lazy_remove_bug_is_caught_and_shrunk() {
    let cfg = bug_workload();
    let report = first_catch("lazy_layered_sg", &cfg, pct(8, 40_000));

    // The report must carry a replayable schedule and a concrete history.
    let (shrunk_det, _trace) = report.schedule.clone().expect("det report without schedule");
    assert!(matches!(shrunk_det.policy, Policy::Replay { .. }));
    assert!(!report.failure.history.is_empty());
    // A broken remove is the only injected fault, so the violating history
    // must involve one.
    assert!(
        report
            .failure
            .history
            .iter()
            .any(|r| r.op == Op::Remove && r.result),
        "shrunk history has no successful remove: {report}"
    );

    // Shrinking must actually shrink: far fewer ops than the full plan.
    let total: usize = report.plans.iter().map(Vec::len).sum();
    let original = cfg.threads as usize * cfg.ops_per_thread;
    assert!(
        total <= original / 4,
        "shrinker left {total} of {original} ops: {report}"
    );

    // And the minimal (plans, schedule) pair must still reproduce the
    // violation when replayed from scratch.
    let (records, _) = records_named_det("lazy_layered_sg", &report.config, &report.plans, &shrunk_det);
    let replay_check = synchro::stress::check_records(&records, &report.config);
    assert!(
        replay_check.is_err(),
        "shrunk report does not reproduce the violation:\n{report}"
    );

    // The rendered report names the structure and the replay seed.
    // (Printed so CI logs show what a shrunk failure looks like.)
    eprintln!("{report}");
    let text = format!("{report}");
    assert!(text.contains("lazy_layered_sg"));
    assert!(text.contains("replay:"));
}

#[test]
fn non_lazy_structures_are_unaffected_by_the_injection() {
    // The injected fault is in the lazy remove path only; the eager
    // protocol must still linearize even with the feature enabled.
    let cfg = bug_workload();
    let det = DetConfig::new(2, Policy::RoundRobin { quantum: 7 });
    for name in ["layered_map_sg", "skipgraph", "skiplist"] {
        stress_named_det(name, &cfg, &det).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn injected_stale_index_read_is_caught_and_shrunk() {
    // The hash index's injected coherence fault: the eager remove winner
    // skips its invalidate-before-retire duty, and the index read path
    // trusts any generation-valid entry without re-checking the node's
    // validity word. With no reclamation running the generation never
    // bumps, so the stale entry keeps answering point reads for a key
    // that was removed — a successful remove followed by a `true`
    // contains with no insert in between, which cannot linearize.
    let cfg = StressConfig {
        threads: 3,
        key_space: 8,
        ops_per_thread: 30,
        update_pct: 70,
        preload: true,
        seed: 5,
    };
    let report = first_catch("hashed_sg", &cfg, round_robin(3, 11));

    let (shrunk_det, _trace) = report.schedule.clone().expect("det report without schedule");
    assert!(matches!(shrunk_det.policy, Policy::Replay { .. }));
    assert!(!report.failure.history.is_empty());
    // The only injected fault is the skipped invalidate, so the violating
    // history must contain the remove whose entry went stale.
    assert!(
        report
            .failure
            .history
            .iter()
            .any(|r| r.op == Op::Remove && r.result),
        "shrunk history has no successful remove: {report}"
    );

    let total: usize = report.plans.iter().map(Vec::len).sum();
    let original = cfg.threads as usize * cfg.ops_per_thread;
    assert!(
        total <= original / 2,
        "shrinker left {total} of {original} ops: {report}"
    );

    let (records, _) =
        records_named_det("hashed_sg", &report.config, &report.plans, &shrunk_det);
    assert!(
        synchro::stress::check_records(&records, &report.config).is_err(),
        "shrunk report does not reproduce the violation:\n{report}"
    );

    let text = format!("{report}");
    assert!(text.contains("hashed_sg"));
    assert!(text.contains("replay:"));
}

#[test]
fn injected_stale_replica_read_is_caught_and_shrunk() {
    // The replication layer's injected fault, live on maps without an
    // adaptation controller: the read rule's tail-wait (`wait_local_valid`)
    // loads the mapped log's head and then returns without waiting for the
    // local replica's tail to pass it — the NR read rule severed. Writes
    // still linearize (every result is computed in log order on the home
    // replica), so only reads can lie: a thread whose socket has no
    // pending write of its own serves `contains` from whatever prefix
    // its replica happens to have applied, missing updates (or even the
    // preload) already completed through the log. Three threads on two
    // synthetic sockets put thread 2 alone on socket 1, so its reads race
    // the other socket's completed writes. PCT schedules (not round-robin:
    // the strict rotation parks the lone reader inside other threads'
    // replays often enough to keep its replica accidentally fresh) let a
    // remote write complete while the reader's replica still lags.
    let cfg = StressConfig {
        threads: 3,
        key_space: 8,
        ops_per_thread: 30,
        update_pct: 70,
        preload: true,
        seed: 5,
    };
    let report = first_catch("replicated_sg", &cfg, pct(10, 60_000));

    let (shrunk_det, _trace) = report.schedule.clone().expect("det report without schedule");
    assert!(matches!(shrunk_det.policy, Policy::Replay { .. }));
    assert!(!report.failure.history.is_empty());
    // The severed tail-wait only affects the read path, so the violating
    // history must contain the stale read itself.
    assert!(
        report.failure.history.iter().any(|r| r.op == Op::Contains),
        "shrunk history has no contains: {report}"
    );

    let total: usize = report.plans.iter().map(Vec::len).sum();
    let original = cfg.threads as usize * cfg.ops_per_thread;
    assert!(
        total <= original / 2,
        "shrinker left {total} of {original} ops: {report}"
    );

    let (records, _) =
        records_named_det("replicated_sg", &report.config, &report.plans, &shrunk_det);
    assert!(
        synchro::stress::check_records(&records, &report.config).is_err(),
        "shrunk report does not reproduce the violation:\n{report}"
    );

    let text = format!("{report}");
    assert!(text.contains("replicated_sg"));
    assert!(text.contains("replay:"));
}

#[test]
fn injected_severed_downshift_drain_is_caught_and_shrunk() {
    // The adaptation subsystem's injected fault: the replication gate's
    // downshift publishes the single-structure epoch *without* draining
    // the operation logs first. Writes that completed through logs homed
    // on other sockets are still waiting in those logs when reads start
    // going directly to replica 0 — so a read can miss an update (or the
    // preload) whose writer already returned success. The `adaptive_sg`
    // lane's tiny 8-op window, zero dwell, and a write band straddling
    // the 70% mix make the gate oscillate mid-run, and PCT schedules land
    // reads in the gap between a premature epoch flip and the log replay
    // that would have covered it. The gap closes the moment any single-
    // mode write drains the stranded log, so sweep seeds rather than
    // pinning one alignment. (The severed read-side tail-wait fires only
    // on a map without a controller, i.e. on replicated_sg; each lane
    // carries exactly one live fault.)
    let cfg = StressConfig {
        threads: 3,
        key_space: 8,
        ops_per_thread: 30,
        update_pct: 70,
        preload: true,
        seed: 5,
    };
    let report = first_catch("adaptive_sg", &cfg, pct(10, 60_000));

    let (shrunk_det, _trace) = report.schedule.clone().expect("det report without schedule");
    assert!(matches!(shrunk_det.policy, Policy::Replay { .. }));
    assert!(!report.failure.history.is_empty());
    // The skipped drain only corrupts what reads observe (writes still
    // compute their results in log order before the flip), so the
    // violating history must contain the stale read itself.
    assert!(
        report.failure.history.iter().any(|r| r.op == Op::Contains),
        "shrunk history has no contains: {report}"
    );

    // Shrinking must make progress, but this fault resists deep shrinks
    // by construction: the sensor windows are op-count-based, so dropping
    // operations shifts every later window boundary and moves the very
    // downshift under test — most candidate reductions dissolve the
    // violation rather than isolate it.
    let total: usize = report.plans.iter().map(Vec::len).sum();
    let original = cfg.threads as usize * cfg.ops_per_thread;
    assert!(
        total < original,
        "shrinker left {total} of {original} ops: {report}"
    );

    let (records, _) =
        records_named_det("adaptive_sg", &report.config, &report.plans, &shrunk_det);
    assert!(
        synchro::stress::check_records(&records, &report.config).is_err(),
        "shrunk report does not reproduce the violation:\n{report}"
    );

    let text = format!("{report}");
    assert!(text.contains("adaptive_sg"));
    assert!(text.contains("replay:"));
}

#[test]
fn injected_blocked_lost_insert_is_caught_and_shrunk() {
    // The blocked map's injected fault: an insert that observes its block
    // frozen at publish time reports success without ever setting the
    // present bit, so the key silently misses the survivor migration —
    // the lost-insert window a skipped post-split recheck would open.
    // The fault needs a freeze to land between a claim and its publish:
    // a tiny key space keeps one block churning through splits and
    // merges, and sweeping short round-robin quanta parks threads inside
    // that window (the exact alignment shifts whenever the handles'
    // yield-point count changes, so sweep, don't pin).
    let cfg = StressConfig {
        threads: 2,
        key_space: 4,
        ops_per_thread: 40,
        update_pct: 80,
        preload: true,
        seed: 7,
    };
    let report = first_catch("blocked_sg", &cfg, round_robin(2, 16));

    let (shrunk_det, _trace) = report.schedule.clone().expect("det report without schedule");
    assert!(matches!(shrunk_det.policy, Policy::Replay { .. }));
    assert!(!report.failure.history.is_empty());
    // A lying insert is the only injected fault, so the violating history
    // must contain one that claimed success.
    assert!(
        report
            .failure
            .history
            .iter()
            .any(|r| r.op == Op::Insert && r.result),
        "shrunk history has no successful insert: {report}"
    );

    let total: usize = report.plans.iter().map(Vec::len).sum();
    let original = cfg.threads as usize * cfg.ops_per_thread;
    assert!(
        total <= original / 2,
        "shrinker left {total} of {original} ops: {report}"
    );

    let (records, _) =
        records_named_det("blocked_sg", &report.config, &report.plans, &shrunk_det);
    assert!(
        synchro::stress::check_records(&records, &report.config).is_err(),
        "shrunk report does not reproduce the violation:\n{report}"
    );

    let text = format!("{report}");
    assert!(text.contains("blocked_sg"));
    assert!(text.contains("replay:"));
}

#[test]
fn injected_anchor_stale_covering_is_caught_and_shrunk() {
    // The local anchor maps' injected fault (compacting policies only, so
    // each stress lane still carries exactly one live fault): on the read
    // paths — point lookups and scan starts — a local anchor that passes
    // the liveness ladder is returned *without* the covering check. After
    // splits mint anchors a thread's slot has never been shown, a lookup
    // of a key past a recorded block's range then reads the wrong block
    // and reports a present key absent. The key space spans several cap-4
    // blocks so evictions of split-killed anchors leave
    // live-but-non-covering ones behind, and short round-robin quanta
    // interleave the splits with the stale lookups.
    let cfg = StressConfig {
        threads: 3,
        key_space: 12,
        ops_per_thread: 60,
        update_pct: 80,
        preload: true,
        seed: 19,
    };
    let report = first_catch("anchor_blocked_sg", &cfg, round_robin(3, 11));

    let (shrunk_det, _trace) = report.schedule.clone().expect("det report without schedule");
    assert!(matches!(shrunk_det.policy, Policy::Replay { .. }));
    assert!(!report.failure.history.is_empty());

    let total: usize = report.plans.iter().map(Vec::len).sum();
    let original = cfg.threads as usize * cfg.ops_per_thread;
    assert!(
        total <= original / 2,
        "shrinker left {total} of {original} ops: {report}"
    );

    let (records, _) =
        records_named_det("anchor_blocked_sg", &report.config, &report.plans, &shrunk_det);
    assert!(
        synchro::stress::check_records(&records, &report.config).is_err(),
        "shrunk report does not reproduce the violation:\n{report}"
    );

    let text = format!("{report}");
    assert!(text.contains("anchor_blocked_sg"));
    assert!(text.contains("replay:"));
}
