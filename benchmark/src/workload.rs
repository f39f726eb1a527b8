//! The four workloads and the end-to-end run.

use crate::harness::{calibrate, Diagnostics};
use crate::metrics::END_TO_END;
use crate::rep::{self, Plan, Rep, Slice};
use crate::replay::{KeySpace, CLASS_NAMES, INSERT, READ, REMOVE};
use crate::stats::{median, percentile, quantile, spread_pct};
use crate::stream::{generate, stream_hash, Dist, StreamSpec, ThreadStream, THREADS};
use crate::target;
use std::time::Instant;

/// Measured repetitions of one run, each on a fresh structure.
pub const REPS: usize = 5;
/// Slices each worker's measured phase is timed in (about 50 ms each).
pub const SLICES: usize = 80;
/// `ops_s` is the workers times this quantile of the slices' throughput.
/// Whatever the host takes from a slice — a preempted vCPU, a busy
/// neighbour — only slows it, so the upper part of the distribution is the
/// part that repeats (README, *Measurements*).
pub const OPS_QUANTILE: f64 = 0.9;
/// Keys one scan asks for.
pub const SCAN_LEN: usize = 32;
/// Share of each stream replayed untimed before the measured phase.
pub const WARM_SHARE: f64 = 0.10;

/// Which map type a workload drives (its full stack).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StackKind {
    /// `LayeredMap`, [`target::point_config`].
    Layered,
    /// `BlockedSkipMap`, [`target::scan_config`], [`target::BLOCK_CAP`].
    Blocked,
    /// `ReplicatedLayeredMap` over [`target::point_config`].
    Replicated,
}

pub struct Workload {
    pub name: &'static str,
    pub stack: StackKind,
    pub keys_log2: u32,
    pub read_permille: u32,
    pub insert_permille: u32,
    pub scan: bool,
    pub dist: Dist,
    /// Measured operations of one repetition, both workers together: fixed
    /// work, calibrated once so that the five measured phases add up to
    /// about `metrics::RUN_SECONDS` on this host (README).
    pub measured_ops: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_read_zipf",
        stack: StackKind::Layered,
        keys_log2: 19,
        read_permille: 950,
        insert_permille: 25,
        scan: false,
        dist: Dist::Zipf(0.99),
        measured_ops: 24_000_000,
    },
    Workload {
        name: "update_uniform",
        stack: StackKind::Layered,
        keys_log2: 19,
        read_permille: 500,
        insert_permille: 250,
        scan: false,
        dist: Dist::Uniform,
        measured_ops: 6_400_000,
    },
    Workload {
        name: "scan_short",
        stack: StackKind::Blocked,
        keys_log2: 16,
        read_permille: 950,
        insert_permille: 25,
        scan: true,
        dist: Dist::Zipf(0.99),
        measured_ops: 2_800_000,
    },
    Workload {
        name: "replicated_mixed",
        stack: StackKind::Replicated,
        keys_log2: 18,
        read_permille: 900,
        insert_permille: 50,
        scan: false,
        dist: Dist::Zipf(0.99),
        measured_ops: 11_200_000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much of a workload one run executes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub keys: u64,
    pub ops_per_thread: usize,
    pub reps: usize,
}

impl Workload {
    /// The full-size run.
    pub fn scale(&self) -> Scale {
        let measured = (self.measured_ops / THREADS) as f64;
        Scale {
            keys: 1 << self.keys_log2,
            ops_per_thread: (measured / (1.0 - WARM_SHARE)).round() as usize,
            reps: REPS,
        }
    }

    /// 2^12 keys and some ten thousand operations: exercises every code
    /// path of the harness in well under a second per workload.
    pub fn smoke_scale(&self) -> Scale {
        Scale {
            keys: 1 << 12,
            ops_per_thread: 64_000,
            reps: 2,
        }
    }

    pub fn spec(&self, scale: &Scale) -> StreamSpec {
        StreamSpec {
            keys: scale.keys,
            ops_per_thread: scale.ops_per_thread,
            read_permille: self.read_permille,
            insert_permille: self.insert_permille,
            scan: self.scan,
            dist: self.dist,
        }
    }

    /// One repetition on the workload's own stack.
    pub fn rep(&self, plan: &Plan) -> Rep {
        match self.stack {
            StackKind::Layered => rep::run(|| target::layered(target::point_config()), plan),
            StackKind::Blocked => rep::run(target::blocked, plan),
            StackKind::Replicated => rep::run(target::replicated, plan),
        }
    }
}

/// A generated input: the streams and what the oracle needs.
pub struct Input {
    pub spec: StreamSpec,
    pub streams: Vec<ThreadStream>,
    pub keys: KeySpace,
    pub warm_ops: usize,
    pub gen_s: f64,
}

impl Input {
    pub fn generate(spec: StreamSpec, seed: u64) -> Self {
        let begin = Instant::now();
        let streams = generate(&spec, seed);
        let keys = KeySpace::new(spec.keys, SCAN_LEN);
        Self {
            warm_ops: (spec.ops_per_thread as f64 * WARM_SHARE) as usize,
            spec,
            streams,
            keys,
            gen_s: begin.elapsed().as_secs_f64(),
        }
    }

    /// An untraced, uncounted repetition plan over this input.
    pub fn plan(&self) -> Plan<'_> {
        Plan {
            spec: &self.spec,
            streams: &self.streams,
            keys: &self.keys,
            warm_ops: self.warm_ops,
            stats: None,
            span_epoch: None,
            probe_gets: 0,
            slices: SLICES,
        }
    }
}

/// The result of one run, end to end or traced.
pub struct Outcome {
    /// Every metric of the run's table (`metrics::END_TO_END` or
    /// `metrics::PER_LAYER`), in its order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Counts the metrics without a usable value as failed checks: not finite
/// (a class without samples, a division by zero) or, where the table has no
/// metric that may read 0, not positive. A broken lower-is-better metric
/// must not pass for a perfect one.
pub fn usable(metrics: &[(&'static str, f64)], positive: bool) -> u64 {
    let mut failed = 0;
    for (name, value) in metrics {
        if !value.is_finite() || (positive && *value <= 0.0) {
            eprintln!("FAILED check: {name} = {value} is not a measurement");
            failed += 1;
        }
    }
    failed
}

/// Runs `workload` end to end, untraced: `scale.reps` repetitions over one
/// generated stream.
pub fn run_end_to_end(workload: &Workload, scale: &Scale, seed: u64) -> Outcome {
    let input = Input::generate(workload.spec(scale), seed);
    eprintln!(
        "# {}: {} keys, {} ops/worker ({} warm-up), {} repetitions, seed {seed}, stream {:016x}, generated in {:.2} s",
        workload.name,
        scale.keys,
        scale.ops_per_thread,
        input.warm_ops,
        scale.reps,
        stream_hash(&input.streams),
        input.gen_s
    );
    let mut diag = Diagnostics::default();
    let mut reps = Vec::with_capacity(scale.reps);
    for r in 0..scale.reps {
        diag.calib.push(calibrate());
        let rep = workload.rep(&input.plan());
        eprintln!(
            "  rep {r}: setup {:.3} s, {:.0} ops/s, read p50 {:.1} ns, insert p50 {:.1} ns, remove p50 {:.1} ns, failed {}",
            rep.setup_s(),
            rep.ops_s(),
            percentile(&rep.lat[READ], 50.0),
            percentile(&rep.lat[INSERT], 50.0),
            percentile(&rep.lat[REMOVE], 50.0),
            rep.failed
        );
        reps.push(rep);
    }
    diag.calib.push(calibrate());

    // Timing metrics are order statistics over the slices of all
    // repetitions, not totals: a stall of the host lands in a few slices
    // and leaves the quantile where it was.
    let slices: Vec<&Slice> = reps.iter().flat_map(|r| &r.slices).collect();
    let over_slices = |class: usize, p: f64| {
        let per_slice: Vec<f64> = slices
            .iter()
            .filter(|s| !s.lat[class].is_empty())
            .map(|s| percentile(&s.lat[class], p))
            .collect();
        median(&per_slice)
    };
    // The set-ups of a run are not five draws of one quantity: the first two
    // of a process run on a cold heap (about 0.7 and 0.5 s, then 0.35 s, for
    // 2^19 keys). A median of five sits on the edge between the cold pair
    // and the warm three and flips; the mean counts every set-up once and
    // spread less on the same runs (README).
    let set_up: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    let rates: Vec<f64> = slices.iter().map(|s| s.ops_s()).collect();
    let metrics = vec![
        ("setup_s", set_up.iter().sum::<f64>() / set_up.len() as f64),
        ("ops_s", THREADS as f64 * quantile(&rates, OPS_QUANTILE)),
        ("read_p50_ns", over_slices(READ, 50.0)),
        ("read_p90_ns", over_slices(READ, 90.0)),
        ("insert_p50_ns", over_slices(INSERT, 50.0)),
        ("insert_p90_ns", over_slices(INSERT, 90.0)),
        ("remove_p50_ns", over_slices(REMOVE, 50.0)),
        (
            "mem_bytes_per_key",
            median(
                &reps
                    .iter()
                    .map(|r| r.preloaded.bytes as f64 / r.preloaded.live as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    assert!(metrics
        .iter()
        .map(|m| m.0)
        .eq(END_TO_END.iter().map(|m| m.name)));

    // Ungated readings: what the gated statistics leave out, and whether
    // the run can be trusted.
    let total = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).sum::<f64>();
    eprintln!(
        "  all measured operations over all measured time, stalls included: {:.0} ops/s; set-ups {:.3}..{:.3} s",
        total(&|r: &Rep| r.measured_ops as f64) / total(&|r: &Rep| r.wall_s),
        quantile(&set_up, 0.0),
        quantile(&set_up, 1.0)
    );
    for (class, name) in CLASS_NAMES.iter().enumerate() {
        let mut all: Vec<u32> = reps.iter().flat_map(|r| &r.lat[class]).copied().collect();
        all.sort_unstable();
        eprintln!(
            "  {name}: {} samples, p50 {:.0} ns, p90 {:.0} ns, p99 {:.0} ns, p99.9 {:.0} ns",
            all.len(),
            percentile(&all, 50.0),
            percentile(&all, 90.0),
            percentile(&all, 99.0),
            percentile(&all, 99.9)
        );
    }
    diag.pinned = reps.iter().all(|r| r.pinned);
    diag.rep_spread_pct = spread_pct(&reps.iter().map(Rep::ops_s).collect::<Vec<_>>());
    diag.print();

    Outcome {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum::<u64>() + usable(&metrics, true),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_partition_the_measured_phase() {
        let w = find("update_uniform").expect("a workload");
        let scale = w.smoke_scale();
        let input = Input::generate(w.spec(&scale), 3);
        let rep = w.rep(&input.plan());
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.slices.len(), THREADS * SLICES);
        let ops: usize = rep.slices.iter().map(|s| s.ops).sum();
        assert_eq!(ops as u64, rep.measured_ops);
        for class in [READ, INSERT, REMOVE] {
            let sampled: usize = rep.slices.iter().map(|s| s.lat[class].len()).sum();
            assert_eq!(sampled, rep.lat[class].len());
            assert!(rep.slices.iter().all(|s| s.lat[class].is_sorted()));
        }
        assert!(rep.slices.iter().all(|s| s.dur_ns > 0 && s.ops_s() > 0.0));
    }

    #[test]
    fn a_metric_without_a_value_is_a_failed_check() {
        assert_eq!(usable(&[("ops_s", 1.0), ("setup_s", 0.5)], true), 0);
        assert_eq!(usable(&[("ops_s", f64::NAN), ("setup_s", 0.0)], true), 2);
        // Per-layer tables hold metrics that may read 0.
        assert_eq!(usable(&[("batch.op_ns", 0.0)], false), 0);
        assert_eq!(usable(&[("batch.op_ns", f64::INFINITY)], false), 1);
    }
}
