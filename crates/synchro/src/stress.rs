//! History-recording stress runner with linearizability checking.
//!
//! Runs a seeded mixed insert/remove/contains workload against any registry
//! structure, records every operation as a [`linearize::Event`] with
//! real-time bounds from a global logical clock, and feeds each per-key
//! history to the Wing & Gong checker. Two execution modes share the same
//! planned workload:
//!
//! * **normal mode** ([`stress_named`]) — real threads under the OS
//!   scheduler; works for every structure in the registry and doubles as a
//!   tier-1 smoke test;
//! * **deterministic mode** (`stress_named_det`, `--features
//!   deterministic`) — the workload runs under the seeded cooperative
//!   scheduler of `skipgraph::det`, so a failing seed replays exactly; on a
//!   violation the runner *shrinks* the failure (drops operations, then
//!   bisects away preemption points) and reports a minimal seed + operation
//!   trace. Only the lock-free, maintenance-thread-free structures are
//!   eligible (see [`DET_STRUCTURES`]).

use crate::registry::{with_named, Visit};
use instrument::ThreadCtx;
#[cfg(feature = "deterministic")]
use instrument::{AccessStats, ThreadCounterSnapshot};
use linearize::{check_history_from, Event, Op, MAX_EVENTS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::{ConcurrentMap, MapHandle};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "deterministic")]
use std::sync::Arc;
use std::sync::Mutex;

#[cfg(feature = "deterministic")]
use skipgraph::det::{self, DetConfig, Policy, Trace};

/// Structures eligible for deterministic-schedule stress: every shared
/// access goes through the `TaggedAtomic` facade, and no background
/// maintenance thread runs outside the scheduler. Lock-based structures
/// (`locked_skiplist`, `coarse_btreemap`) would deadlock the cooperative
/// scheduler; `nohotspot`/`rotating`/`numask` spawn maintenance threads
/// the scheduler cannot sequence.
pub const DET_STRUCTURES: &[&str] = &[
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
    "harris_ll",
];

/// A seeded stress workload. The plan derived from it is a pure function
/// of the fields, so a (config, schedule-seed) pair identifies a run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Worker thread count.
    pub threads: u16,
    /// Keys are drawn from `0..key_space`.
    pub key_space: u64,
    /// Planned operations per thread.
    pub ops_per_thread: usize,
    /// Percentage of operations that are updates (split evenly between
    /// insert and remove); the rest are `contains`.
    pub update_pct: u32,
    /// Preload every even key before the measured run.
    pub preload: bool,
    /// Seed for the workload plan (op kinds and keys).
    pub seed: u64,
}

impl StressConfig {
    /// A small bounded workload suitable for tier-1 smoke runs.
    pub fn smoke(seed: u64) -> Self {
        Self {
            threads: 3,
            key_space: 16,
            ops_per_thread: 40,
            update_pct: 60,
            preload: false,
            seed,
        }
    }

    /// A contended workload: more threads and ops, small key space.
    pub fn contended(seed: u64) -> Self {
        Self {
            threads: 4,
            key_space: 12,
            ops_per_thread: 120,
            update_pct: 70,
            preload: true,
            seed,
        }
    }
}

/// One planned operation (the key is fixed; the result is observed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedOp {
    /// Operation kind.
    pub op: Op,
    /// Target key.
    pub key: u64,
}

/// One completed operation as recorded by the runner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Executing thread.
    pub thread: u16,
    /// Operation kind.
    pub op: Op,
    /// Target key.
    pub key: u64,
    /// Observed result.
    pub result: bool,
    /// Logical invocation timestamp.
    pub start: u64,
    /// Logical response timestamp.
    pub end: u64,
}

impl OpRecord {
    fn event(&self) -> Event {
        Event {
            op: self.op,
            result: self.result,
            start: self.start,
            end: self.end,
        }
    }
}

impl fmt::Display for OpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t{} {:?}({})={} @[{},{}]",
            self.thread, self.op, self.key, self.result, self.start, self.end
        )
    }
}

/// Derives the per-thread operation plans from the config. Per-key volume
/// is capped so every per-key history stays well under
/// [`linearize::MAX_EVENTS`].
pub fn plan_workload(cfg: &StressConfig) -> Vec<Vec<PlannedOp>> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x5712_e55c_0a6e_u64);
    let per_key_cap = (MAX_EVENTS - 8) as u64;
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut plans = Vec::with_capacity(cfg.threads as usize);
    for _ in 0..cfg.threads {
        let mut plan = Vec::with_capacity(cfg.ops_per_thread);
        for _ in 0..cfg.ops_per_thread {
            let kind = rng.gen_range(0u32..100);
            let op = if kind < cfg.update_pct / 2 {
                Op::Insert
            } else if kind < cfg.update_pct {
                Op::Remove
            } else {
                Op::Contains
            };
            let mut key = rng.gen_range(0..cfg.key_space);
            // Respect the checker's per-key event cap: probe forward until
            // a key with remaining room (deterministic).
            let mut probes = 0;
            while counts.get(&key).copied().unwrap_or(0) >= per_key_cap {
                key = (key + 1) % cfg.key_space;
                probes += 1;
                assert!(
                    probes <= cfg.key_space,
                    "workload too large for key space: every key at the per-key cap"
                );
            }
            *counts.entry(key).or_insert(0) += 1;
            plan.push(PlannedOp { op, key });
        }
        plans.push(plan);
    }
    plans
}

/// Whether `key` starts present for this config (preloaded even keys).
pub fn initially_present(cfg: &StressConfig, key: u64) -> bool {
    cfg.preload && key.is_multiple_of(2)
}

fn preload_map<M: ConcurrentMap<u64, u64>>(map: &M, cfg: &StressConfig) {
    if !cfg.preload {
        return;
    }
    let mut h = map.pin(ThreadCtx::plain(0));
    let mut key = 0;
    while key < cfg.key_space {
        let fresh = h.insert(key, key);
        assert!(fresh, "preload found key {key} already present");
        key += 2;
    }
}

fn worker_body<H: MapHandle<u64, u64>>(
    mut handle: H,
    thread: u16,
    plan: &[PlannedOp],
    clock: &AtomicU64,
    out: &Mutex<Vec<OpRecord>>,
) {
    let mut records = Vec::with_capacity(plan.len());
    for p in plan {
        let start = clock.fetch_add(1, Ordering::Relaxed);
        let result = match p.op {
            Op::Insert => handle.insert(p.key, p.key),
            Op::Remove => handle.remove(&p.key),
            Op::Contains => handle.contains(&p.key),
        };
        let end = clock.fetch_add(1, Ordering::Relaxed);
        records.push(OpRecord {
            thread,
            op: p.op,
            key: p.key,
            result,
            start,
            end,
        });
    }
    out.lock()
        .unwrap_or_else(|e| e.into_inner())
        .extend(records);
}

/// Runs `plans` against `map` with real threads (OS scheduling) and
/// returns every operation record. The map must be freshly built (and
/// preloaded via `preload_map` semantics by the caller).
pub fn execute<M: ConcurrentMap<u64, u64>>(map: &M, plans: &[Vec<PlannedOp>]) -> Vec<OpRecord> {
    let clock = AtomicU64::new(1);
    let slots: Vec<Mutex<Vec<OpRecord>>> = plans.iter().map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|s| {
        for (t, plan) in plans.iter().enumerate() {
            let clock = &clock;
            let slot = &slots[t];
            s.spawn(move || {
                let handle = map.pin(ThreadCtx::plain(t as u16));
                worker_body(handle, t as u16, plan, clock, slot);
            });
        }
    });
    collect_records(slots)
}

/// Runs `plans` under the deterministic scheduler; returns the records and
/// the schedule trace. Same seed + config + structure → byte-for-byte
/// identical records and trace. The workers' counters go to `stats` if
/// given (counting is no facade access: the schedule is the same).
#[cfg(feature = "deterministic")]
pub fn execute_det<M: ConcurrentMap<u64, u64>>(
    map: &M,
    plans: &[Vec<PlannedOp>],
    det_cfg: &DetConfig,
    stats: Option<&Arc<AccessStats>>,
) -> (Vec<OpRecord>, Trace) {
    let clock = AtomicU64::new(1);
    let slots: Vec<Mutex<Vec<OpRecord>>> = plans.iter().map(|_| Mutex::new(Vec::new())).collect();
    let trace = {
        let clock = &clock;
        let slots = &slots;
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = plans
            .iter()
            .enumerate()
            .map(|(t, plan)| {
                let b: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let ctx = match stats {
                        Some(s) => ThreadCtx::recording(t as u16, Arc::clone(s)),
                        None => ThreadCtx::plain(t as u16),
                    };
                    worker_body(map.pin(ctx), t as u16, plan, clock, &slots[t]);
                });
                b
            })
            .collect();
        det::run_threads(det_cfg, workers)
    };
    (collect_records(slots), trace)
}

fn collect_records(slots: Vec<Mutex<Vec<OpRecord>>>) -> Vec<OpRecord> {
    slots
        .into_iter()
        .flat_map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// The essence of one linearizability failure.
#[derive(Clone, Debug)]
pub struct KeyFailure {
    /// The violating key.
    pub key: u64,
    /// The checker's explanation.
    pub reason: String,
    /// That key's full history, sorted by invocation.
    pub history: Vec<OpRecord>,
}

/// Checks every per-key history in `records`. `Err` carries the first
/// violating key (by key order).
pub fn check_records(records: &[OpRecord], cfg: &StressConfig) -> Result<(), KeyFailure> {
    let mut per_key: BTreeMap<u64, Vec<OpRecord>> = BTreeMap::new();
    for r in records {
        per_key.entry(r.key).or_default().push(*r);
    }
    for (key, mut history) in per_key {
        history.sort_by_key(|r| r.start);
        let events: Vec<Event> = history.iter().map(|r| r.event()).collect();
        if let Err(reason) = check_history_from(&events, initially_present(cfg, key)) {
            return Err(KeyFailure {
                key,
                reason,
                history,
            });
        }
    }
    Ok(())
}

/// A (possibly shrunk) reported failure, with everything needed to replay
/// it: the structure, the workload plans, and the schedule.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Registry name of the structure under test.
    pub structure: String,
    /// The stress config the failure was found under.
    pub config: StressConfig,
    /// Remaining planned operations per thread (shrunk in det mode).
    pub plans: Vec<Vec<PlannedOp>>,
    /// The violation.
    pub failure: KeyFailure,
    /// Schedule seed and segments (det mode only).
    #[cfg(feature = "deterministic")]
    pub schedule: Option<(DetConfig, Trace)>,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "linearizability violation: structure={} key={} workload_seed={}",
            self.structure, self.failure.key, self.config.seed
        )?;
        writeln!(f, "  reason: {}", self.failure.reason)?;
        writeln!(f, "  history of key {}:", self.failure.key)?;
        for r in &self.failure.history {
            writeln!(f, "    {r}")?;
        }
        let total: usize = self.plans.iter().map(Vec::len).sum();
        writeln!(f, "  minimal plan: {total} ops")?;
        for (t, plan) in self.plans.iter().enumerate() {
            if plan.is_empty() {
                continue;
            }
            let ops: Vec<String> = plan
                .iter()
                .map(|p| format!("{:?}({})", p.op, p.key))
                .collect();
            writeln!(f, "    t{t}: {}", ops.join(" "))?;
        }
        #[cfg(feature = "deterministic")]
        if let Some((det_cfg, trace)) = &self.schedule {
            writeln!(f, "  schedule: {}", trace.render())?;
            writeln!(
                f,
                "  replay: SCHEDULE_SEED={} with Policy::{:?}",
                det_cfg.seed, det_cfg.policy
            )?;
        }
        Ok(())
    }
}

/// Preloads a freshly built structure and runs the plans on it with real
/// threads.
struct Threads<'a>(&'a StressConfig, &'a [Vec<PlannedOp>]);

impl Visit for Threads<'_> {
    type Out = Vec<OpRecord>;
    fn visit<M: ConcurrentMap<u64, u64>>(self, map: &M) -> Vec<OpRecord> {
        preload_map(map, self.0);
        execute(map, self.1)
    }
}

/// Preloads a freshly built structure and runs the plans on it under the
/// deterministic scheduler, the workers' counters going to `stats`.
#[cfg(feature = "deterministic")]
struct Scheduled<'a> {
    cfg: &'a StressConfig,
    plans: &'a [Vec<PlannedOp>],
    det_cfg: &'a DetConfig,
    stats: Option<&'a Arc<AccessStats>>,
}

#[cfg(feature = "deterministic")]
impl Visit for Scheduled<'_> {
    type Out = (Vec<OpRecord>, Trace);
    fn visit<M: ConcurrentMap<u64, u64>>(self, map: &M) -> (Vec<OpRecord>, Trace) {
        preload_map(map, self.cfg);
        execute_det(map, self.plans, self.det_cfg, self.stats)
    }
}

/// Runs the stress workload against the named structure under normal OS
/// scheduling and checks every per-key history. Returns the number of
/// recorded operations on success.
///
/// # Errors
///
/// The (unshrunk) failure report when some key's history is not
/// linearizable.
pub fn stress_named(name: &str, cfg: &StressConfig) -> Result<usize, Box<FailureReport>> {
    let plans = plan_workload(cfg);
    let records = with_named(
        name,
        cfg.threads as usize,
        cfg.key_space,
        Threads(cfg, &plans),
    );
    match check_records(&records, cfg) {
        Ok(()) => Ok(records.len()),
        Err(failure) => Err(Box::new(FailureReport {
            structure: name.to_string(),
            config: cfg.clone(),
            plans,
            failure,
            #[cfg(feature = "deterministic")]
            schedule: None,
        })),
    }
}

#[cfg(feature = "deterministic")]
fn scheduled_named(name: &str, run: Scheduled<'_>) -> (Vec<OpRecord>, Trace) {
    assert!(
        crate::registry::STRUCTURES.contains(&name),
        "unknown structure {name:?}; see synchro::registry::STRUCTURES"
    );
    assert!(
        DET_STRUCTURES.contains(&name),
        "{name} is not deterministically schedulable (locks or maintenance threads); \
         see synchro::stress::DET_STRUCTURES"
    );
    with_named(name, run.cfg.threads as usize, run.cfg.key_space, run)
}

/// Runs `plans` deterministically against a fresh instance of the named
/// structure. Exposed so tests can assert byte-for-byte replay.
#[cfg(feature = "deterministic")]
pub fn records_named_det(
    name: &str,
    cfg: &StressConfig,
    plans: &[Vec<PlannedOp>],
    det_cfg: &DetConfig,
) -> (Vec<OpRecord>, Trace) {
    scheduled_named(
        name,
        Scheduled {
            cfg,
            plans,
            det_cfg,
            stats: None,
        },
    )
}

/// The counters the workers of one deterministic stress run record,
/// summed: what a lane's schedules actually exercised (a lane whose
/// subject is a fast path is vacuous if the path is never taken).
#[cfg(feature = "deterministic")]
pub fn counters_named_det(
    name: &str,
    cfg: &StressConfig,
    det_cfg: &DetConfig,
) -> ThreadCounterSnapshot {
    let stats = AccessStats::new(cfg.threads as usize);
    let plans = plan_workload(cfg);
    scheduled_named(
        name,
        Scheduled {
            cfg,
            plans: &plans,
            det_cfg,
            stats: Some(&stats),
        },
    );
    stats.totals()
}

/// Deterministic-schedule stress: plan the workload, run it under the
/// seeded scheduler, check histories; on a violation, shrink (drop
/// operations, then bisect away preemption points) and return a minimal
/// replayable report.
///
/// # Errors
///
/// The shrunk failure report.
#[cfg(feature = "deterministic")]
pub fn stress_named_det(
    name: &str,
    cfg: &StressConfig,
    det_cfg: &DetConfig,
) -> Result<Trace, Box<FailureReport>> {
    let plans = plan_workload(cfg);
    let run = |plans: &[Vec<PlannedOp>], dc: &DetConfig| records_named_det(name, cfg, plans, dc);
    let (records, trace) = run(&plans, det_cfg);
    match check_records(&records, cfg) {
        Ok(()) => Ok(trace),
        Err(first) => {
            let (plans, det_cfg, failure, trace) =
                shrink_det(plans, det_cfg.clone(), cfg, first, &run);
            Err(Box::new(FailureReport {
                structure: name.to_string(),
                config: cfg.clone(),
                plans,
                failure,
                schedule: Some((det_cfg, trace)),
            }))
        }
    }
}

/// Greedy ddmin-style shrinking: first drop operation chunks per thread,
/// then replay the failing schedule and bisect away preemption boundaries.
/// Bounded by a run budget so pathological cases stay fast.
#[cfg(feature = "deterministic")]
fn shrink_det<F>(
    mut plans: Vec<Vec<PlannedOp>>,
    mut det_cfg: DetConfig,
    cfg: &StressConfig,
    mut failure: KeyFailure,
    run: &F,
) -> (Vec<Vec<PlannedOp>>, DetConfig, KeyFailure, Trace)
where
    F: Fn(&[Vec<PlannedOp>], &DetConfig) -> (Vec<OpRecord>, Trace),
{
    let mut budget = 400usize;
    let mut try_fail = |plans: &[Vec<PlannedOp>], dc: &DetConfig| -> Option<(KeyFailure, Trace)> {
        if budget == 0 {
            return None;
        }
        budget -= 1;
        let (records, trace) = run(plans, dc);
        check_records(&records, cfg).err().map(|f| (f, trace))
    };

    // Phase 0: re-run to capture the failing trace for later replay.
    let mut trace = match try_fail(&plans, &det_cfg) {
        Some((f, t)) => {
            failure = f;
            t
        }
        None => {
            // Budget exhausted or (unexpectedly) no longer failing; report
            // what we have with an empty schedule.
            let empty = Trace {
                seed: det_cfg.seed,
                decisions: vec![],
            };
            return (plans, det_cfg, failure, empty);
        }
    };

    // Phase 1: per-thread chunked op dropping.
    for t in 0..plans.len() {
        let mut chunk = (plans[t].len() / 2).max(1);
        loop {
            let mut i = 0;
            while i < plans[t].len() {
                let upper = (i + chunk).min(plans[t].len());
                let mut candidate = plans.clone();
                candidate[t].drain(i..upper);
                if let Some((f, tr)) = try_fail(&candidate, &det_cfg) {
                    plans = candidate;
                    failure = f;
                    trace = tr;
                } else {
                    i = upper;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }

    // Phase 2: pin the schedule to the failing trace, then merge away
    // preemption boundaries in chunks while the failure persists.
    let mut segments = trace.segments();
    det_cfg.policy = Policy::Replay {
        segments: segments.clone(),
    };
    if let Some((f, tr)) = try_fail(&plans, &det_cfg) {
        failure = f;
        trace = tr;
        let mut chunk = (segments.len() / 2).max(1);
        loop {
            let mut b = 1;
            while b < segments.len() {
                let upper = (b + chunk).min(segments.len());
                let mut candidate = segments.clone();
                // Merge segments [b, upper) into segment b-1: the earlier
                // thread keeps running instead of being preempted.
                let extra: u32 = candidate[b..upper].iter().map(|&(_, n)| n).sum();
                candidate[b - 1].1 += extra;
                candidate.drain(b..upper);
                let dc = DetConfig {
                    policy: Policy::Replay {
                        segments: candidate.clone(),
                    },
                    ..det_cfg.clone()
                };
                if let Some((f, tr)) = try_fail(&plans, &dc) {
                    segments = candidate;
                    det_cfg = dc;
                    failure = f;
                    trace = tr;
                } else {
                    b = upper;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    (plans, det_cfg, failure, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_respects_cap() {
        let cfg = StressConfig::smoke(11);
        let p1 = plan_workload(&cfg);
        let p2 = plan_workload(&cfg);
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), cfg.threads as usize);
        assert!(p1.iter().all(|p| p.len() == cfg.ops_per_thread));
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for p in p1.iter().flatten() {
            *counts.entry(p.key).or_insert(0) += 1;
            assert!(p.key < cfg.key_space);
        }
        assert!(counts.values().all(|&c| c <= MAX_EVENTS - 8));
    }

    #[test]
    fn different_seeds_differ() {
        let a = plan_workload(&StressConfig::smoke(1));
        let b = plan_workload(&StressConfig::smoke(2));
        assert_ne!(a, b);
    }

    #[test]
    fn check_records_flags_violations() {
        let cfg = StressConfig::smoke(0);
        let rec = |op, result, start, end| OpRecord {
            thread: 0,
            op,
            key: 5,
            result,
            start,
            end,
        };
        // remove(true) on a never-inserted key.
        let bad = vec![rec(Op::Remove, true, 1, 2)];
        let f = check_records(&bad, &cfg).unwrap_err();
        assert_eq!(f.key, 5);
        // The same is fine when preloaded... but key 5 is odd, so still bad.
        let cfg_pre = StressConfig {
            preload: true,
            ..cfg.clone()
        };
        assert!(check_records(&bad, &cfg_pre).is_err());
        // An even preloaded key may be removed first thing.
        let bad_even: Vec<OpRecord> = bad.iter().map(|r| OpRecord { key: 4, ..*r }).collect();
        assert!(check_records(&bad_even, &cfg_pre).is_ok());
        assert!(check_records(&bad_even, &cfg).is_err());
    }

    #[test]
    fn det_structures_are_registered() {
        for name in DET_STRUCTURES {
            assert!(crate::registry::STRUCTURES.contains(name), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown structure")]
    fn unknown_name_panics() {
        let _ = stress_named("nope", &StressConfig::smoke(0));
    }

    #[test]
    fn normal_stress_passes_on_reference_structure() {
        let cfg = StressConfig::smoke(3);
        let n = stress_named("coarse_btreemap", &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(n, cfg.threads as usize * cfg.ops_per_thread);
    }
}
