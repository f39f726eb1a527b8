//! The traced run: per-layer metrics, measured from outside.
//!
//! The first [`TRACE_SHARE`] of the workload's stream is replayed against
//! the workload's own stack and against each strict sub-stack below it —
//! the *ladder*; a rung is one stack. A rung is run in up to two passes, on
//! separate fresh stacks:
//!
//! * a **timed** pass with plain contexts, whose sampled calls into the
//!   rung's public functions give the `*_ns` metrics, and
//! * a **counted** pass with `ThreadCtx::recording` contexts, whose
//!   counters and access matrices give the shares and per-operation counts.
//!   Recording costs an atomic add per shared-node access, so this pass is
//!   slower and none of its clock readings is reported — except as
//!   `harness.trace_overhead_pct`.
//!
//! Spans (run › rung pass › phase › sampled operation) are kept in memory
//! and written to `<out-dir>/trace_<workload>.json` at the end.

use crate::harness::{calibrate, timer_ns, Diagnostics};
use crate::metrics::{unit_of, PER_LAYER};
use crate::rep::{self, Rep};
use crate::replay::{CLASS_NAMES, INSERT, READ, REMOVE};
use crate::stats::{percentile, ratio, spread_pct, trimmed_mean};
use crate::stream::{churn_key, initial_churn, preload_key, read_keys, THREADS};
use crate::target::{self, Stack};
use crate::workload::{usable, Input, Outcome, Scale, StackKind, Workload, SCAN_LEN, WARM_SHARE};
use instrument::AccessStats;
use skipgraph::local::{BTreeLocalMap, LocalMap, RobinHoodMap};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Leading share of the end-to-end stream a traced pass replays: the
/// warm-up (first half) and as much again, measured.
const TRACE_SHARE: f64 = 2.0 * WARM_SHARE;
/// Cost of a remote access in the NUMA model, in local accesses.
const REMOTE_COST: f64 = 5.0;
/// Point gets probed after the blocked rung's measured phase, per worker.
const PROBE_GETS: usize = 1 << 16;

struct Span {
    parent: Option<usize>,
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Sampled operations: the worker and its stream position.
    op: Option<(usize, u32)>,
}

struct Tracer<'a> {
    input: &'a Input,
    epoch: Instant,
    spans: Vec<Span>,
    diag: Diagnostics,
    attempted: u64,
    failed: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Timed,
    Counted,
}

impl<'a> Tracer<'a> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span(&mut self, parent: Option<usize>, name: String, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns,
            op: None,
        });
        self.spans.len() - 1
    }

    /// One pass of rung `rung` on the stack `build` constructs.
    fn pass<S: Stack>(
        &mut self,
        rung: &str,
        mode: Mode,
        probe_gets: usize,
        build: impl FnOnce() -> S,
    ) -> Rep {
        let plan = rep::Plan {
            stats: (mode == Mode::Counted).then(|| AccessStats::new(THREADS)),
            span_epoch: Some(self.epoch),
            probe_gets,
            ..self.input.plan()
        };
        let start_ns = self.now_ns();
        let rep = rep::run(build, &plan);
        let end_ns = self.now_ns();
        let kind = if mode == Mode::Timed {
            "timed"
        } else {
            "counted"
        };
        eprintln!(
            "  rung {rung:<8} {kind:<7}: setup {:.3} s, {:>10.0} ops/s, failed {}",
            rep.setup_s(),
            rep.ops_s(),
            rep.failed
        );
        let pass = self.span(Some(0), format!("{rung}/{kind}"), start_ns, end_ns);
        let [p0, p1, m0, m1] = rep.phase_ns;
        self.span(Some(pass), "construct".into(), start_ns, p0);
        self.span(Some(pass), "preload".into(), p0, p1);
        self.span(Some(pass), "warmup".into(), p1, m0);
        let measured = self.span(Some(pass), "measured".into(), m0, m1);
        self.span(Some(pass), "check".into(), m1, end_ns);
        for &(thread, s) in &rep.spans {
            self.spans.push(Span {
                parent: Some(measured),
                name: format!("{rung}.{}", CLASS_NAMES[s.class as usize]),
                start_ns: s.start_ns,
                end_ns: s.start_ns + s.dur_ns as u64,
                op: Some((thread, s.op)),
            });
        }
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.diag.calib.push(calibrate());
        rep
    }

    /// Spans as JSON, each with its self time: its duration minus the part
    /// its children cover.
    fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}",
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(covered[id])
            );
            if let Some((thread, op)) = s.op {
                let _ = write!(out, ", \"thread\": {thread}, \"op\": {op}");
            }
            out.push_str(if id + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

/// Mean nanoseconds of `RobinHoodMap::get` and of a `BTreeLocalMap`
/// predecessor query, standalone, over what worker 0's local structures
/// hold after the preload, probed with the keys worker 0's reads draw
/// (about half are its own). Timed in blocks of 64 calls.
fn local_rung(input: &Input) -> (f64, f64) {
    const BLOCK: usize = 64;
    let mut hash = RobinHoodMap::new();
    let mut tree: BTreeLocalMap<u64, u64> = BTreeLocalMap::default();
    let own = (0..input.spec.keys)
        .step_by(THREADS)
        .map(preload_key)
        .chain((0..initial_churn(input.spec.keys)).map(|j| churn_key(0, j)));
    for key in own {
        hash.insert(key, key);
        tree.insert(key, key);
    }
    let probes: Vec<u64> = read_keys(&input.streams[0].ops).take(1 << 18).collect();
    let time = |f: &dyn Fn(&u64) -> u64| {
        let mut blocks: Vec<u32> = probes
            .chunks_exact(BLOCK)
            .map(|block| {
                let begin = Instant::now();
                for key in block {
                    black_box(f(key));
                }
                begin.elapsed().as_nanos() as u32
            })
            .collect();
        blocks.sort_unstable();
        trimmed_mean(&blocks) / BLOCK as f64
    };
    (
        time(&|k| hash.get(k).copied().unwrap_or(0)),
        time(&|k| tree.max_lower_equal(k).map_or(0, |(_, v)| v)),
    )
}

/// Insert and remove samples of a pass together, ascending.
fn writes(rep: &Rep) -> Vec<u32> {
    let mut all = [&rep.lat[INSERT][..], &rep.lat[REMOVE][..]].concat();
    all.sort_unstable();
    all
}

/// Runs the traced passes of `workload` and returns every per-layer
/// metric; layers that are not on the workload's ladder read 0.
pub fn run_traced(workload: &Workload, scale: &Scale, seed: u64, out_dir: &Path) -> Outcome {
    let full_ops = scale.ops_per_thread;
    let mut spec = workload.spec(scale);
    spec.ops_per_thread = (full_ops as f64 * TRACE_SHARE) as usize;
    let mut input = Input::generate(spec, seed);
    // The same warm-up as the end-to-end run: the first tenth of its stream.
    input.warm_ops = (full_ops as f64 * WARM_SHARE) as usize;
    eprintln!(
        "# {} traced: {} keys, first {} ops/worker of the stream ({} warm-up), seed {seed}",
        workload.name, scale.keys, spec.ops_per_thread, input.warm_ops
    );

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    macro_rules! set {
        ($name:literal, $value:expr $(,)?) => {{
            unit_of($name); // panics on a name outside the tables
            m.insert($name, $value);
        }};
    }
    let mut t = Tracer {
        input: &input,
        epoch: Instant::now(),
        spans: Vec::new(),
        diag: Diagnostics::default(),
        attempted: 0,
        failed: 0,
    };
    t.span(None, format!("run/{}", workload.name), 0, 0);
    t.diag.calib.push(calibrate());
    set!("harness.timer_ns", timer_ns());
    set!("harness.gen_s", input.gen_s);

    let point = target::point_config;
    let probe_gets = PROBE_GETS.min(spec.ops_per_thread);
    let full = |t: &mut Tracer, mode: Mode| match workload.stack {
        StackKind::Layered => t.pass("index", mode, 0, || target::layered(point())),
        StackKind::Blocked => t.pass("block", mode, probe_gets, target::blocked),
        StackKind::Replicated => t.pass("replicate", mode, 0, target::replicated),
    };

    // The workload's own stack first and last, untraced in all but spans:
    // the two readings bracket the ladder.
    let full_first = full(&mut t, Mode::Timed);

    // The sub-stacks. `index` is the layered map with the hash index (the
    // point workloads' own stack), `layered` the same map without it. The
    // blocked map sits on the bare graph: its one sub-stack is that graph
    // under a layered map, single-key nodes instead of blocks.
    let index_pass = (workload.stack == StackKind::Replicated)
        .then(|| t.pass("index", Mode::Timed, 0, || target::layered(point())));
    let index = match workload.stack {
        StackKind::Layered => Some(&full_first),
        StackKind::Replicated => index_pass.as_ref(),
        StackKind::Blocked => None,
    };
    let layered_config = match workload.stack {
        StackKind::Blocked => target::scan_config(),
        _ => point().hash_index(false),
    };
    let layered = t.pass("layered", Mode::Timed, 0, || {
        target::layered(layered_config)
    });
    let (hash_get_ns, pred_ns) = local_rung(&input);
    set!("local.hash_get_ns", hash_get_ns);
    set!("local.pred_ns", pred_ns);
    let layered_get_ns = trimmed_mean(&layered.lat[READ]);
    set!("layered.get_ns", layered_get_ns);
    set!("layered.insert_ns", trimmed_mean(&layered.lat[INSERT]));
    set!("layered.remove_ns", trimmed_mean(&layered.lat[REMOVE]));
    set!("graph.self_ns", layered_get_ns - hash_get_ns - pred_ns);
    if let Some(index) = index {
        set!(
            "index.read_saved_ns",
            layered_get_ns - trimmed_mean(&index.lat[READ])
        );
        set!(
            "index.write_cost_ns",
            trimmed_mean(&writes(index)) - trimmed_mean(&writes(&layered)),
        );
    }

    if workload.stack != StackKind::Blocked {
        let timed = t.pass("batch", Mode::Timed, 0, || target::batched(point()));
        let counted = t.pass("batch", Mode::Counted, 0, || target::batched(point()));
        set!("batch.op_ns", trimmed_mean(&timed.lat[READ]));
        set!(
            "batch.mean_batch",
            ratio(counted.counters.batched_ops, counted.counters.batches)
        );
        set!(
            "batch.hinted_nodes_per_search",
            ratio(
                counted.counters.hinted_traversed,
                counted.counters.hinted_searches
            ),
        );
    }
    if workload.stack == StackKind::Replicated {
        let adapt = t.pass("adapt", Mode::Timed, 0, target::adaptive);
        let mut all = adapt.lat.concat();
        all.sort_unstable();
        set!("adapt.op_ns", trimmed_mean(&all));
        set!("adapt.mode_switches", adapt.footprint.mode_switches as f64);
        set!(
            "adapt.index_probe_grows",
            adapt.footprint.probe_grows as f64
        );
        set!("replicate.sync_ns", full_first.sync_ns);
    }
    if workload.stack == StackKind::Blocked {
        set!("block.get_ns", trimmed_mean(&full_first.probe_lat));
        set!(
            "block.scan_ns_per_key",
            trimmed_mean(&full_first.lat[READ]) / SCAN_LEN as f64
        );
        set!(
            "block.insert_p99_ns",
            percentile(&full_first.lat[INSERT], 99.0)
        );
        set!("reclaim.flush_ns", full_first.footprint.flush_ns as f64);
    }

    // The counted pass of the full stack: shares and per-operation counts.
    let counted = full(&mut t, Mode::Counted);
    let c = &counted.counters;
    let [local_reads, remote_reads, local_cas, remote_cas] = counted.locality;
    let ops = (THREADS * spec.ops_per_thread) as u64;
    let live = counted.expected_live;
    set!("graph.nodes_per_search", ratio(c.traversed, c.searches));
    set!(
        "graph.cas_fail_share",
        ratio(c.cas_failures, c.cas_attempts)
    );
    set!(
        "index.hit_share",
        ratio(c.index_hits, c.index_hits + c.index_misses + c.index_stale)
    );
    set!(
        "index.stale_share",
        ratio(c.index_stale, c.index_hits + c.index_misses + c.index_stale)
    );
    set!(
        "index.bytes_per_key",
        ratio(counted.footprint.memory.index_bytes, live)
    );
    set!(
        "block.entries_per_anchor",
        ratio(
            counted.footprint.memory.live,
            counted.footprint.memory.anchors
        )
    );
    set!("block.anchor_hit_share", ratio(c.anchor_hits, ops));
    set!("reclaim.retired", c.retired as f64);
    set!("reclaim.recycled_share", ratio(c.recycled, c.retired));
    set!(
        "reclaim.limbo_peak",
        counted.limbo_peak.max(counted.footprint.memory.limbo) as f64
    );
    set!(
        "replicate.append_lag_mean",
        ratio(c.log_lag_sum, c.log_appends)
    );
    set!(
        "replicate.replay_batch_mean",
        ratio(c.replayed_ops, c.replay_batches)
    );
    set!("replicate.write_amp", ratio(c.replayed_ops, c.log_appends));
    set!(
        "replicate.collapsed_share",
        ratio(c.collapsed_ops, c.replayed_ops + c.collapsed_ops)
    );
    let (local, remote) = (local_reads + local_cas, remote_reads + remote_cas);
    set!(
        "numa.remote_read_share",
        ratio(remote_reads, local_reads + remote_reads)
    );
    set!(
        "numa.remote_cas_share",
        ratio(remote_cas, local_cas + remote_cas)
    );
    set!("numa.lines_per_op", ratio(local + remote, ops));
    set!(
        "numa.modeled_cost_per_op",
        (local as f64 + REMOTE_COST * remote as f64) / ops as f64
    );
    set!("numa.resident_bytes", counted.footprint.memory.bytes as f64);

    let full_last = full(&mut t, Mode::Timed);
    let plain = [full_first.ops_s(), full_last.ops_s()];
    let plain_ops_s = (plain[0] + plain[1]) / 2.0;
    set!(
        "harness.trace_overhead_pct",
        (plain_ops_s - counted.ops_s()) / plain_ops_s * 100.0
    );
    set!("harness.rep_spread_pct", spread_pct(&plain));
    set!(
        "harness.read_p99_ns",
        percentile(&full_first.lat[READ], 99.0)
    );
    set!(
        "harness.read_p999_ns",
        percentile(&full_first.lat[READ], 99.9)
    );
    set!(
        "harness.insert_p99_ns",
        percentile(&full_first.lat[INSERT], 99.0)
    );
    t.diag.pinned = full_first.pinned && full_last.pinned;
    t.diag.rep_spread_pct = spread_pct(&plain);
    set!("harness.calib_drift_pct", t.diag.calib_drift_pct());
    set!("harness.pinned", t.diag.pinned as u8 as f64);
    t.diag.print();
    // Model and clock side by side.
    eprintln!(
        "  clock {plain_ops_s:.0} ops/s untraced | model {:.2} lines/op, cost {:.2}/op (remote = {REMOTE_COST}x local)",
        m["numa.lines_per_op"], m["numa.modeled_cost_per_op"]
    );

    let end = t.now_ns();
    t.spans[0].end_ns = end;
    let path = out_dir.join(format!("trace_{}.json", workload.name));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, t.to_json(workload.name, seed)));
    match written {
        Ok(()) => eprintln!("  {} spans written to {}", t.spans.len(), path.display()),
        Err(e) => {
            eprintln!("FAILED: cannot write {}: {e}", path.display());
            t.failed += 1;
        }
    }

    // A layer off the workload's ladder reads 0; a reading that is not a
    // number is a failed check.
    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, _, _)| (name, m.get(name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        attempted: t.attempted,
        failed: t.failed + usable(&metrics, false),
        metrics,
    }
}
