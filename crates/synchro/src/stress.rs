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
//! * **deterministic mode** ([`stress_named_det`], `--features
//!   deterministic`) — the workload runs under the seeded cooperative
//!   scheduler of `skipgraph::det`, so a failing seed replays exactly; on a
//!   violation the runner *shrinks* the failure (drops operations, then
//!   bisects away preemption points) and reports a minimal seed + operation
//!   trace. Only the lock-free, maintenance-thread-free structures are
//!   eligible (see [`DET_STRUCTURES`]).

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
    cfg.preload && key % 2 == 0
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
    out.lock().unwrap_or_else(|e| e.into_inner()).extend(records);
}

/// Runs `plans` against `map` with real threads (OS scheduling) and
/// returns every operation record. The map must be freshly built (and
/// preloaded via [`preload_map`] semantics by the caller).
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
            let ops: Vec<String> = plan.iter().map(|p| format!("{:?}({})", p.op, p.key)).collect();
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

/// Builds the named structure fresh and evaluates `$body` with `$map`
/// bound to it. Only the det-eligible subset plus the remaining registry
/// structures that are safe under OS scheduling.
macro_rules! with_structure {
    ($name:expr, $cfg:expr, |$map:ident| $body:expr) => {{
        use baselines::{
            CoarseLockMap, HarrisList, LockFreeSkipList, LockedSkipList, NoHotspotSkipList,
            NumaskSkipList, RotatingSkipList, SkipListConfig,
        };
        use skipgraph::{BatchConfig, BatchedLayeredMap, GraphConfig, LayeredMap, SkipGraph};
        let t = $cfg.threads as usize;
        let cap = (($cfg.key_space as usize / t.max(1)) * 2).clamp(1 << 10, 1 << 16);
        let maint = std::time::Duration::from_millis(2);
        match $name {
            "layered_map_sg" => {
                let $map = LayeredMap::<u64, u64>::new(GraphConfig::new(t).chunk_capacity(cap));
                $body
            }
            "lazy_layered_sg" => {
                let $map =
                    LayeredMap::<u64, u64>::new(GraphConfig::new(t).lazy(true).chunk_capacity(cap));
                $body
            }
            "reclaim_layered_sg" => {
                // Epoch-based reclamation on: retired slots are recycled
                // under the scheduler, hitting the generation-checked
                // stale-hint fallbacks.
                let $map = LayeredMap::<u64, u64>::new(
                    GraphConfig::new(t).reclaim(true).chunk_capacity(cap),
                );
                $body
            }
            "layered_map_ssg" => {
                let $map = LayeredMap::<u64, u64>::new(
                    GraphConfig::new(t).sparse(true).chunk_capacity(cap),
                );
                $body
            }
            "layered_map_ll" => {
                let $map =
                    LayeredMap::<u64, u64>::new(GraphConfig::linked_list(t).chunk_capacity(cap));
                $body
            }
            "layered_map_sl" => {
                let $map = LayeredMap::<u64, u64>::new(
                    GraphConfig::single_skip_list(t).chunk_capacity(cap),
                );
                $body
            }
            "batched_layered_sg" => {
                // Two synthetic sockets (when threads allow) so the
                // combiner lease and cross-slot draining are exercised.
                let sockets = if t >= 2 { 2 } else { 1 };
                let $map = BatchedLayeredMap::<u64, u64>::new(
                    GraphConfig::new(t).lazy(true).chunk_capacity(cap),
                    BatchConfig::uniform(t, sockets),
                );
                $body
            }
            "skipgraph" => {
                let $map = SkipGraph::<u64, u64>::new(GraphConfig::new(t).chunk_capacity(cap));
                $body
            }
            "blocked_sg" => {
                // A small blocking factor so stress schedules actually
                // reach the split/merge paths, not just in-block CASes.
                let $map = skipgraph::BlockedSkipMap::<u64, u64>::new(
                    GraphConfig::new(t).chunk_capacity(cap),
                    4,
                );
                $body
            }
            "anchor_blocked_sg" => {
                // The anchor-granular policy over the same small blocking
                // factor: compacting merges (threshold 1) and left-biased
                // splits keep the freeze/rebuild paths hot, and a nonzero
                // threshold selects the local-anchor bug-injection arm
                // (severed covering check) instead of the lost-insert one.
                // `GraphConfig::new(3)` stops towers at level 1, and every
                // anchor reaches it: all of them are sampled into the
                // local anchor maps, so the arm has entries to trust.
                let $map = skipgraph::BlockedSkipMap::<u64, u64>::with_policy(
                    GraphConfig::new(t).chunk_capacity(cap),
                    4,
                    skipgraph::BlockPolicy {
                        split_left_pct: 65,
                        merge_threshold: 1,
                    },
                );
                $body
            }
            "hashed_sg" => {
                // Shared point-read hash index on, no reclamation: eager
                // removes must invalidate their entries themselves (the
                // generation backstop never fires), which is precisely
                // the coherence duty the bug-injection lane deletes. The
                // smallest index there is (a capacity hint of one slot), so
                // schedules cross in-place grows and compactions mid-read.
                let $map = LayeredMap::<u64, u64>::new(
                    GraphConfig::new(t)
                        .hash_index(true)
                        .index_capacity(1)
                        .chunk_capacity(cap),
                );
                $body
            }
            "replicated_sg" => {
                // Per-socket replicas over partitioned operation logs
                // (`skipgraph::replicate`): two synthetic sockets so reads
                // on one replica race replays of the other, with a tiny
                // log and lag bound so schedules reach the wraparound and
                // backpressure/helping paths.
                let sockets = if t >= 2 { 2 } else { 1 };
                // The bug-injection build also compiles the lazy-remove
                // and index-coherence faults into lazy/indexed configs;
                // build the replicas over the plain eager graph there so
                // the severed read-side tail-wait is the only live fault
                // in this lane (each injected fault has its own lane).
                #[cfg(feature = "bug-injection")]
                let gcfg = GraphConfig::new(t).chunk_capacity(cap);
                #[cfg(not(feature = "bug-injection"))]
                let gcfg = GraphConfig::new(t)
                    .lazy(true)
                    .hash_index(true)
                    .chunk_capacity(cap);
                let $map = skipgraph::ReplicatedLayeredMap::<u64, u64>::new(
                    gcfg,
                    skipgraph::ReplicaConfig::uniform(t, sockets)
                        .logs(2)
                        .log_capacity(16)
                        .max_lag(12),
                );
                $body
            }
            "adaptive_sg" => {
                // The replicated map with the adaptation subsystem live: a
                // tiny sensor window and zero dwell so the replication gate
                // downshifts/upshifts *within* a stress schedule, putting
                // the drain-then-redirect transitions directly under the
                // deterministic scheduler and the linearizability checker.
                // The bug-injection build severs the downshift drain (the
                // only live fault in this lane — replicated_sg keeps the
                // read-side tail-wait fault).
                let sockets = if t >= 2 { 2 } else { 1 };
                // The band straddles the stress mixes' ~70% write ratio:
                // 8-op windows fluctuate across both edges, so the gate
                // oscillates and schedules see *repeated* downshifts with
                // cross-socket writes in flight, not one quiet downshift
                // during the preload.
                let acfg = skipgraph::AdaptConfig::new()
                    .window_ops(8)
                    .dwell_windows(0)
                    .write_band(60, 75);
                #[cfg(feature = "bug-injection")]
                let gcfg = GraphConfig::new(t).chunk_capacity(cap);
                #[cfg(not(feature = "bug-injection"))]
                let gcfg = GraphConfig::new(t)
                    .lazy(true)
                    .hash_index(true)
                    .chunk_capacity(cap)
                    .adapt(acfg);
                let $map = skipgraph::ReplicatedLayeredMap::<u64, u64>::new(
                    gcfg,
                    skipgraph::ReplicaConfig::uniform(t, sockets)
                        .logs(2)
                        .log_capacity(16)
                        .max_lag(12)
                        .adapt(acfg),
                );
                $body
            }
            "skiplist" => {
                let $map = LockFreeSkipList::<u64, u64>::new(
                    SkipListConfig::new(t, $cfg.key_space).chunk_capacity(cap),
                );
                $body
            }
            "skiplist_norelink" => {
                let $map = LockFreeSkipList::<u64, u64>::new(
                    SkipListConfig::new(t, $cfg.key_space)
                        .relink(false)
                        .chunk_capacity(cap),
                );
                $body
            }
            "harris_ll" => {
                let $map = HarrisList::<u64, u64>::new(t, cap);
                $body
            }
            "locked_skiplist" => {
                let levels = SkipListConfig::new(t, $cfg.key_space).levels;
                let $map = LockedSkipList::<u64, u64>::new(t, levels, cap);
                $body
            }
            "coarse_btreemap" => {
                let $map = CoarseLockMap::<u64, u64>::new();
                $body
            }
            "nohotspot" => {
                let $map = NoHotspotSkipList::<u64, u64>::new(t, cap, maint);
                $body
            }
            "rotating" => {
                let $map = RotatingSkipList::<u64, u64>::new(t, cap, maint);
                $body
            }
            "numask" => {
                let topology = numa::Topology::detect_or_paper();
                let zones = numa::Placement::new(&topology, t).numa_nodes();
                let $map = NumaskSkipList::<u64, u64>::new(zones, cap, maint);
                $body
            }
            other => panic!("unknown structure {other:?}; see synchro::registry::STRUCTURES"),
        }
    }};
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
    let records = with_structure!(name, cfg, |map| {
        preload_map(&map, cfg);
        execute(&map, &plans)
    });
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

/// Runs `plans` deterministically against a fresh instance of the named
/// structure. Exposed so tests can assert byte-for-byte replay.
#[cfg(feature = "deterministic")]
pub fn records_named_det(
    name: &str,
    cfg: &StressConfig,
    plans: &[Vec<PlannedOp>],
    det_cfg: &DetConfig,
) -> (Vec<OpRecord>, Trace) {
    assert!(
        crate::registry::STRUCTURES.contains(&name),
        "unknown structure {name:?}; see synchro::registry::STRUCTURES"
    );
    assert!(
        DET_STRUCTURES.contains(&name),
        "{name} is not deterministically schedulable (locks or maintenance threads); \
         see synchro::stress::DET_STRUCTURES"
    );
    with_structure!(name, cfg, |map| {
        preload_map(&map, cfg);
        execute_det(&map, plans, det_cfg, None)
    })
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
    assert!(
        DET_STRUCTURES.contains(&name),
        "{name} is not deterministically schedulable"
    );
    let stats = AccessStats::new(cfg.threads as usize);
    with_structure!(name, cfg, |map| {
        preload_map(&map, cfg);
        execute_det(&map, &plan_workload(cfg), det_cfg, Some(&stats))
    });
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
        let bad_even: Vec<OpRecord> = bad
            .iter()
            .map(|r| OpRecord { key: 4, ..*r })
            .collect();
        assert!(check_records(&bad_even, &cfg_pre).is_ok());
        assert!(check_records(&bad_even, &cfg).is_err());
    }

    #[test]
    fn normal_stress_passes_on_reference_structure() {
        let cfg = StressConfig::smoke(3);
        let n = stress_named("coarse_btreemap", &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(n, cfg.threads as usize * cfg.ops_per_thread);
    }
}
