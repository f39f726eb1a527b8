//! Workload definition and trial execution.

use cache_sim::{Cache, Hierarchy, MissCounts};
use instrument::{AccessStats, ThreadCtx};
use numa::{Placement, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::{ConcurrentMap, MapHandle};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A benchmark workload in the paper's terms.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of worker threads `T`.
    pub threads: usize,
    /// Key space size (2^8 = HC, 2^14 = MC, 2^17 = LC).
    pub key_space: u64,
    /// Requested fraction of update operations (0.5 = WH, 0.2 = RH).
    pub update_ratio: f64,
    /// Fraction of the key space preloaded before measuring (0.2; the
    /// paper's LC tests use 0.025).
    pub preload_fraction: f64,
    /// Measured duration of one trial (the paper uses 10 s).
    pub duration: Duration,
    /// RNG seed (per-thread seeds derive from it).
    pub seed: u64,
    /// Pin worker threads according to the detected/modeled topology.
    pub pin: bool,
    /// Zipf exponent for key selection; `None` = uniform (the paper's
    /// setting).
    pub zipf_alpha: Option<f64>,
}

impl Workload {
    /// A workload over `threads` threads and `key_space` keys with the
    /// paper's defaults (50% updates, 20% preload, 100 ms trials — pass
    /// `.duration(..)` for paper-length runs).
    pub fn new(threads: usize, key_space: u64) -> Self {
        Self {
            threads,
            key_space,
            update_ratio: 0.5,
            preload_fraction: 0.2,
            duration: Duration::from_millis(100),
            seed: 0x5eed_0001,
            pin: true,
            zipf_alpha: None,
        }
    }

    /// High contention: key space 2^8.
    pub fn hc(threads: usize) -> Self {
        Self::new(threads, 1 << 8)
    }

    /// Medium contention: key space 2^14.
    pub fn mc(threads: usize) -> Self {
        Self::new(threads, 1 << 14)
    }

    /// Low contention: key space 2^17, preloaded at 2.5%.
    pub fn lc(threads: usize) -> Self {
        let mut w = Self::new(threads, 1 << 17);
        w.preload_fraction = 0.025;
        w
    }

    /// Write-heavy: 50% requested updates.
    pub fn write_heavy(mut self) -> Self {
        self.update_ratio = 0.5;
        self
    }

    /// Read-heavy: 20% requested updates.
    pub fn read_heavy(mut self) -> Self {
        self.update_ratio = 0.2;
        self
    }

    /// Overrides the trial duration.
    pub fn duration(mut self, d: Duration) -> Self {
        self.duration = d;
        self
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables pinning (for constrained environments).
    pub fn no_pin(mut self) -> Self {
        self.pin = false;
        self
    }

    /// Draws keys Zipf(α)-distributed instead of uniformly (an extension
    /// beyond the paper's uniform workloads; ranks are scattered over the
    /// key space by a fixed odd multiplier so hot keys are not adjacent).
    pub fn zipf(mut self, alpha: f64) -> Self {
        self.zipf_alpha = Some(alpha);
        self
    }
}

/// What instrumentation each worker thread attaches.
#[derive(Clone)]
pub enum InstrMode {
    /// No recording: pure throughput.
    Off,
    /// Record into the given stats sink (heatmaps, Table 1, Fig. 5).
    Stats(Arc<AccessStats>),
    /// Stats plus a per-thread cache-hierarchy simulation (Table 2;
    /// per-thread private L3 slice model).
    StatsAndCache(Arc<AccessStats>),
    /// Stats plus a cache simulation whose L3 is *shared per NUMA node*:
    /// `numa_of[t]` selects thread `t`'s socket cache in `l3s`.
    StatsAndSharedCache {
        /// The stats sink.
        stats: Arc<AccessStats>,
        /// One shared L3 per NUMA node.
        l3s: Arc<Vec<Arc<Mutex<Cache>>>>,
        /// Thread → NUMA node.
        numa_of: Arc<Vec<usize>>,
    },
}

impl InstrMode {
    /// A shared-L3 mode for `threads` threads using the given assignment.
    pub fn shared_cache(stats: Arc<AccessStats>, numa_of: Vec<usize>) -> Self {
        let nodes = numa_of.iter().copied().max().unwrap_or(0) + 1;
        let l3s = Arc::new((0..nodes).map(|_| Hierarchy::shared_l3_xeon()).collect());
        InstrMode::StatsAndSharedCache {
            stats,
            l3s,
            numa_of: Arc::new(numa_of),
        }
    }

    fn ctx_for(&self, thread: u16) -> ThreadCtx {
        match self {
            InstrMode::Off => ThreadCtx::plain(thread),
            InstrMode::Stats(stats) => ThreadCtx::recording(thread, Arc::clone(stats)),
            InstrMode::StatsAndCache(stats) => ThreadCtx::recording(thread, Arc::clone(stats))
                .with_cache_sim(Hierarchy::xeon_8275cl()),
            InstrMode::StatsAndSharedCache {
                stats,
                l3s,
                numa_of,
            } => {
                let node = numa_of
                    .get(thread as usize)
                    .copied()
                    .unwrap_or(0)
                    .min(l3s.len() - 1);
                let (l1, l2) = Hierarchy::xeon_l1_l2();
                ThreadCtx::recording(thread, Arc::clone(stats))
                    .with_cache_sim(Hierarchy::with_shared_l3(l1, l2, Arc::clone(&l3s[node])))
            }
        }
    }
}

/// The outcome of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// Total completed operations across all threads.
    pub total_ops: u64,
    /// Successful (effective) updates across all threads.
    pub effective_updates: u64,
    /// Measured wall time.
    pub elapsed: Duration,
    /// Per-thread completed operations.
    pub per_thread_ops: Vec<u64>,
    /// Aggregated cache-simulation counters (when enabled).
    pub cache: MissCounts,
    /// How many threads were successfully pinned.
    pub pinned: usize,
}

impl TrialResult {
    /// The paper's reported quantity: total operations per millisecond.
    pub fn ops_per_ms(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1000.0
    }

    /// Percentage of operations that were effective updates.
    pub fn effective_update_pct(&self) -> f64 {
        if self.total_ops == 0 {
            0.0
        } else {
            100.0 * self.effective_updates as f64 / self.total_ops as f64
        }
    }
}

/// Mean/std summary over several trials (the paper averages 5 runs).
#[derive(Debug, Clone)]
pub struct TrialSummary {
    /// Per-run throughput (ops/ms).
    pub runs: Vec<f64>,
    /// Mean throughput.
    pub mean_ops_per_ms: f64,
    /// Sample standard deviation of the throughput.
    pub stddev: f64,
    /// Mean effective update percentage.
    pub mean_effective_update_pct: f64,
}

/// Runs the Synchrobench `-f 1` procedure once against `map`.
///
/// Preloads `preload_fraction * key_space` distinct keys (spread across all
/// worker threads so node ownership matches steady state), then runs timed
/// random operations: with probability `update_ratio` an update (alternating
/// matched insert/remove per thread — the effective-update heuristic),
/// otherwise a `contains`.
pub fn run_trial<M: ConcurrentMap<u64, u64>>(
    map: &M,
    workload: &Workload,
    instr: &InstrMode,
) -> TrialResult {
    assert!(workload.threads > 0 && workload.key_space > 1);
    let topology = Topology::detect_or_paper();
    let placement = Placement::new(&topology, workload.threads);
    let preload_target = (workload.key_space as f64 * workload.preload_fraction) as u64;
    let preloaded = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let start_barrier = Barrier::new(workload.threads + 1);
    let pinned = AtomicU64::new(0);

    let results: Vec<(u64, u64, Option<MissCounts>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..workload.threads as u16)
            .map(|t| {
                let map = &map;
                let stop = &stop;
                let preloaded = &preloaded;
                let start_barrier = &start_barrier;
                let pinned = &pinned;
                let placement = &placement;
                let instr = instr.clone();
                s.spawn(move || {
                    if workload.pin && numa::pin_current_thread(&placement.assignment(t as usize)) {
                        pinned.fetch_add(1, Ordering::Relaxed);
                    }
                    let mut rng =
                        SmallRng::seed_from_u64(workload.seed ^ ((t as u64 + 1) * 0x9E37));
                    let zipf = workload
                        .zipf_alpha
                        .map(|a| crate::zipf::Zipf::new(workload.key_space, a));
                    let key_space = workload.key_space;
                    let draw_key = move |rng: &mut SmallRng| -> u64 {
                        match &zipf {
                            // Scatter ranks over the ordered key space;
                            // an odd multiplier is a bijection modulo the
                            // power-of-two key spaces the scenarios use.
                            Some(z) => z.sample(rng).wrapping_mul(0x9E37_79B1) % key_space,
                            None => rng.gen_range(0..key_space),
                        }
                    };
                    let mut handle = map.pin(instr.ctx_for(t));
                    // Preload phase: all threads insert until the target
                    // cardinality is reached.
                    while preloaded.load(Ordering::Relaxed) < preload_target {
                        let k = draw_key(&mut rng);
                        if handle.insert(k, k) {
                            preloaded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    start_barrier.wait();
                    // Measured phase.
                    let mut ops = 0u64;
                    let mut effective = 0u64;
                    let mut last_inserted: Option<u64> = None;
                    while !stop.load(Ordering::Relaxed) {
                        // Check the stop flag every few ops via batching.
                        for _ in 0..32 {
                            let p: f64 = rng.gen();
                            if p < workload.update_ratio {
                                match last_inserted.take() {
                                    None => {
                                        let k = draw_key(&mut rng);
                                        if handle.insert(k, k) {
                                            effective += 1;
                                            last_inserted = Some(k);
                                        }
                                    }
                                    Some(k) => {
                                        if handle.remove(&k) {
                                            effective += 1;
                                        }
                                    }
                                }
                            } else {
                                let k = draw_key(&mut rng);
                                let _ = handle.contains(&k);
                            }
                            ops += 1;
                        }
                    }
                    let cache = handle.ctx().cache_counts();
                    (ops, effective, cache)
                })
            })
            .collect();
        // Release the measured phase and time it.
        start_barrier.wait();
        let t0 = Instant::now();
        while t0.elapsed() < workload.duration {
            std::thread::sleep(Duration::from_millis(1).min(workload.duration));
        }
        stop.store(true, Ordering::Relaxed);
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let per_thread_ops: Vec<u64> = results.iter().map(|(o, _, _)| *o).collect();
    let cache = results
        .iter()
        .filter_map(|(_, _, c)| *c)
        .fold(MissCounts::default(), |acc, c| acc.merge(&c));
    TrialResult {
        total_ops: per_thread_ops.iter().sum(),
        effective_updates: results.iter().map(|(_, e, _)| *e).sum(),
        elapsed: workload.duration,
        per_thread_ops,
        cache,
        pinned: pinned.load(Ordering::Relaxed) as usize,
    }
}

/// Runs `runs` trials, each against a freshly built structure (the paper:
/// "each trial is an average of 5 runs").
pub fn run_trials<M, F>(factory: F, workload: &Workload, runs: usize) -> TrialSummary
where
    M: ConcurrentMap<u64, u64>,
    F: Fn() -> M,
{
    summarize(workload, runs, |w| {
        run_trial(&factory(), w, &InstrMode::Off)
    })
}

/// Runs `trial` `runs` times, the `r`-th with the workload's seed plus
/// `r`, and summarizes the throughputs and effective-update percentages.
pub(crate) fn summarize(
    workload: &Workload,
    runs: usize,
    mut trial: impl FnMut(&Workload) -> TrialResult,
) -> TrialSummary {
    assert!(runs > 0);
    let (throughputs, effective): (Vec<f64>, Vec<f64>) = (0..runs)
        .map(|r| {
            let res = trial(&workload.clone().seed(workload.seed.wrapping_add(r as u64)));
            (res.ops_per_ms(), res.effective_update_pct())
        })
        .unzip();
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
    use skipgraph::{GraphConfig, LayeredMap};

    fn quick(threads: usize) -> Workload {
        Workload::new(threads, 1 << 8)
            .duration(Duration::from_millis(30))
            .no_pin()
    }

    #[test]
    fn trial_produces_ops() {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(2).lazy(true).chunk_capacity(4096));
        let res = run_trial(&map, &quick(2), &InstrMode::Off);
        assert!(res.total_ops > 0);
        assert!(res.ops_per_ms() > 0.0);
        assert_eq!(res.per_thread_ops.len(), 2);
        assert!(res.effective_update_pct() > 0.0);
        assert!(res.effective_update_pct() <= 50.0 + 1.0);
    }

    #[test]
    fn preload_reaches_target() {
        let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2).chunk_capacity(4096));
        let w = quick(2);
        let _ = run_trial(&map, &w, &InstrMode::Off);
        // After the run the structure holds roughly the preload +- churn;
        // at minimum it is non-empty and within the key space.
        let ctx = ThreadCtx::plain(0);
        let keys = map.shared().keys(&ctx);
        assert!(!keys.is_empty());
        assert!(keys.iter().all(|&k| k < w.key_space));
    }

    #[test]
    fn stats_instrumentation_collects() {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(2).lazy(true).chunk_capacity(4096));
        let stats = AccessStats::new(2);
        let res = run_trial(&map, &quick(2), &InstrMode::Stats(Arc::clone(&stats)));
        assert!(res.total_ops > 0);
        assert!(stats.totals().ops > 0);
        assert!(stats.reads().total() > 0);
    }

    #[test]
    fn cache_sim_instrumentation_counts() {
        let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2).chunk_capacity(4096));
        let stats = AccessStats::new(2);
        let res = run_trial(&map, &quick(2), &InstrMode::StatsAndCache(stats));
        assert!(res.cache.accesses > 0);
        assert!(res.cache.l1 <= res.cache.accesses);
    }

    #[test]
    fn run_trials_averages() {
        let s = run_trials(
            || LayeredMap::<u64, u64>::new(GraphConfig::new(2).lazy(true).chunk_capacity(4096)),
            &quick(2),
            3,
        );
        assert_eq!(s.runs.len(), 3);
        assert!(s.mean_ops_per_ms > 0.0);
        assert!(s.stddev >= 0.0);
    }

    #[test]
    fn scenario_presets_match_paper() {
        assert_eq!(Workload::hc(4).key_space, 1 << 8);
        assert_eq!(Workload::mc(4).key_space, 1 << 14);
        let lc = Workload::lc(4);
        assert_eq!(lc.key_space, 1 << 17);
        assert!((lc.preload_fraction - 0.025).abs() < 1e-9);
        assert!((Workload::hc(4).write_heavy().update_ratio - 0.5).abs() < 1e-9);
        assert!((Workload::hc(4).read_heavy().update_ratio - 0.2).abs() < 1e-9);
    }
}
