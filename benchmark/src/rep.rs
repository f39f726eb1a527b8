//! One repetition: a freshly built stack, preloaded in parallel by the two
//! pinned workers through the handles they then keep, warmed up, measured,
//! and checked.

use crate::replay::{KeySpace, OpSpan, Sink};
use crate::stream::{
    churn_key, initial_churn, live_keys_after, preload_key, read_keys, value_of, StreamSpec,
    ThreadStream, THREADS,
};
use crate::target::{Footprint, Memory, Ops, Stack};
use instrument::{AccessStats, ThreadCounterSnapshot, ThreadCtx};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// What one repetition runs.
pub struct Plan<'a> {
    pub spec: &'a StreamSpec,
    pub streams: &'a [ThreadStream],
    pub keys: &'a KeySpace,
    /// Leading operations of each stream executed untimed.
    pub warm_ops: usize,
    /// Count shared-node accesses (`ThreadCtx::recording`); such a pass is
    /// several times slower and its clock readings are not used.
    pub stats: Option<Arc<AccessStats>>,
    /// Keep spans of sampled operations, relative to this instant.
    pub span_epoch: Option<Instant>,
    /// Timed point gets of preloaded keys issued after the measured phase
    /// (the only point reads a scan workload's stack sees).
    pub probe_gets: usize,
    /// Slices of equal operation count (at least one) each worker's
    /// measured phase is timed in. In a counted pass the workers also meet
    /// between slices and worker 0 reads the reclamation backlog.
    pub slices: usize,
}

/// Shared-node accesses of the workers, split by the model "worker `t`
/// runs on socket `t`": local reads, remote reads, local CAS, remote CAS.
pub type Locality = [u64; 4];

/// One slice of one worker's measured phase.
pub struct Slice {
    pub ops: usize,
    pub dur_ns: u64,
    /// Sampled latencies per class, ascending.
    pub lat: [Vec<u32>; 3],
}

impl Slice {
    /// Operations per second of the worker that ran the slice.
    pub fn ops_s(&self) -> f64 {
        self.ops as f64 / self.dur_ns as f64 * 1e9
    }
}

/// What one repetition measured.
pub struct Rep {
    /// Constructing the stack, then the parallel preload (with `sync()`).
    pub construct_s: f64,
    pub preload_s: f64,
    /// First worker's start to last worker's end of the measured phase.
    pub wall_s: f64,
    pub measured_ops: u64,
    /// The slices of both workers.
    pub slices: Vec<Slice>,
    /// Sampled latencies per class over both workers, ascending.
    pub lat: [Vec<u32>; 3],
    pub probe_lat: Vec<u32>,
    /// Mean time of the `sync()` each worker issues after measuring.
    pub sync_ns: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The stack's memory once the preload is done: the same keys whatever
    /// the seed, so the same bytes.
    pub preloaded: Memory,
    pub footprint: Footprint,
    pub expected_live: u64,
    pub pinned: bool,
    /// Counters of a counted pass, from the end of preload on.
    pub counters: ThreadCounterSnapshot,
    pub locality: Locality,
    pub limbo_peak: u64,
    /// Offsets from `span_epoch`, nanoseconds: preload start, warm-up
    /// start, measured start, measured end.
    pub phase_ns: [u64; 4],
    pub spans: Vec<(usize, OpSpan)>,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.construct_s + self.preload_s
    }

    pub fn ops_s(&self) -> f64 {
        self.measured_ops as f64 / self.wall_s
    }
}

struct Worker {
    sink: Sink,
    slices: Vec<Slice>,
    probe_lat: Vec<u32>,
    attempted: u64,
    pinned: bool,
    /// Instants of: preload start, preload end (all workers), measured
    /// start, measured end.
    at: [Instant; 4],
    sync_ns: u64,
    counters: ThreadCounterSnapshot,
    locality: Locality,
    limbo_peak: u64,
    preloaded: Memory,
}

/// `a op b` on every counter the per-layer metrics read.
macro_rules! counters {
    ($a:ident $op:tt $b:ident: $($field:ident)*) => {
        ThreadCounterSnapshot {
            $($field: $a.$field $op $b.$field,)*
            ..ThreadCounterSnapshot::default()
        }
    };
    ($a:ident $op:tt $b:ident) => {
        counters!($a $op $b: cas_attempts cas_failures traversed searches batches
            batched_ops hinted_searches hinted_traversed retired recycled index_hits
            index_misses index_stale log_appends log_lag_sum replay_batches replayed_ops
            anchor_hits collapsed_ops)
    };
}

/// This worker's row of an access matrix, split into own and other socket.
fn row_split(matrix: &instrument::AccessMatrix, thread: usize) -> (u64, u64) {
    let local = matrix.get(thread, thread);
    (local, matrix.row_sum(thread) - local)
}

fn locality_of(stats: &AccessStats, thread: usize) -> Locality {
    let (local_reads, remote_reads) = row_split(stats.reads(), thread);
    let (local_cas, remote_cas) = row_split(stats.cas(), thread);
    [local_reads, remote_reads, local_cas, remote_cas]
}

fn work<S: Stack>(stack: &S, plan: &Plan, thread: usize, barrier: &Barrier) -> Worker {
    let pinned = numa::pin_to_cpu(thread);
    let ctx = match &plan.stats {
        Some(stats) => ThreadCtx::recording(thread as u16, stats.clone()),
        None => ThreadCtx::plain(thread as u16),
    };
    let mut h = stack.register(ctx);
    let mut sink = Sink::new(plan.span_epoch);
    let mut attempted = 0;

    // Preload: this worker's share of the ranks, then its first churn keys,
    // through the handle it keeps — its local structures index what it
    // inserted, which is what makes later searches short.
    barrier.wait();
    let preload_start = Instant::now();
    for rank in (thread as u64..plan.spec.keys).step_by(THREADS) {
        let key = preload_key(rank);
        sink.failed += !h.insert(key, value_of(key)) as u64;
        attempted += 1;
    }
    for j in 0..initial_churn(plan.spec.keys) {
        let key = churn_key(thread, j);
        sink.failed += !h.insert(key, value_of(key)) as u64;
        attempted += 1;
    }
    // Every worker has stopped writing before any `sync()`, so each
    // replica ends the preload holding every key.
    barrier.wait();
    h.sync();
    barrier.wait();
    let preload_end = Instant::now();
    let preloaded = if thread == 0 {
        stack.memory()
    } else {
        Memory::default()
    };
    barrier.wait();

    let before = plan
        .stats
        .as_ref()
        .map(|s| (s.thread(thread), locality_of(s, thread)));
    let ops = &plan.streams[thread].ops;
    let (warm, measured) = ops.split_at(plan.warm_ops.min(ops.len()));
    h.replay(thread, warm, plan.keys, &mut sink);
    barrier.wait();

    sink.sampling = true;
    sink.op_base = warm.len();
    let mut limbo_peak = 0;
    // Slice boundaries: the instant and how many samples each class holds.
    // Only these are recorded while the clock runs; the slices are cut
    // afterwards.
    let sampled = |sink: &Sink| -> [usize; 3] { std::array::from_fn(|c| sink.lat[c].len()) };
    let slice_ops = measured.len().div_ceil(plan.slices).max(1);
    let mut marks = Vec::with_capacity(plan.slices + 1);
    marks.push((Instant::now(), sampled(&sink)));
    for part in measured.chunks(slice_ops) {
        h.replay(thread, part, plan.keys, &mut sink);
        sink.op_base += part.len();
        marks.push((Instant::now(), sampled(&sink)));
        if plan.stats.is_some() {
            barrier.wait();
            if thread == 0 {
                limbo_peak = limbo_peak.max(stack.memory().limbo);
            }
            barrier.wait();
        }
    }
    let (measured_start, measured_end) = (marks[0].0, marks[marks.len() - 1].0);
    attempted += ops.len() as u64;
    let slices = marks
        .windows(2)
        .zip(measured.chunks(slice_ops))
        .map(|(mark, part)| {
            let ((from, had), (to, has)) = (mark[0], mark[1]);
            Slice {
                ops: part.len(),
                dur_ns: (to - from).as_nanos() as u64,
                lat: std::array::from_fn(|c| {
                    let mut lat = sink.lat[c][had[c]..has[c]].to_vec();
                    lat.sort_unstable();
                    lat
                }),
            }
        })
        .collect();

    let (counters, locality) = match (&plan.stats, before) {
        (Some(stats), Some((then, was))) => {
            let (now, is) = (stats.thread(thread), locality_of(stats, thread));
            (
                counters!(now - then),
                std::array::from_fn(|i| is[i] - was[i]),
            )
        }
        _ => Default::default(),
    };

    // Every worker has stopped writing: one more `sync()` brings this
    // worker's replica level with the others for the checks.
    barrier.wait();
    let sync_start = Instant::now();
    h.sync();
    let sync_ns = sync_start.elapsed().as_nanos() as u64;

    // Probe keys: the ranks the stream's reads drew, in stream order.
    let mut probe_lat = Vec::with_capacity(plan.probe_gets);
    for key in read_keys(ops).take(plan.probe_gets) {
        let begin = Instant::now();
        let got = h.get(key);
        probe_lat.push(begin.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        sink.failed += (got != Some(value_of(key))) as u64;
        attempted += 1;
    }

    Worker {
        sink,
        slices,
        probe_lat,
        attempted,
        pinned,
        at: [preload_start, preload_end, measured_start, measured_end],
        sync_ns,
        counters,
        locality,
        limbo_peak,
        preloaded,
    }
}

/// Runs one repetition of `plan` on the stack `build` constructs.
pub fn run<S: Stack>(build: impl FnOnce() -> S, plan: &Plan) -> Rep {
    let construct_start = Instant::now();
    let stack = build();
    let construct_s = construct_start.elapsed().as_secs_f64();

    let barrier = Barrier::new(THREADS);
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..THREADS)
            .map(|t| {
                let (stack, barrier) = (&stack, &barrier);
                s.spawn(move || work(stack, plan, t, barrier))
            })
            .collect();
        spawned
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect()
    });

    let first = |i: usize| workers.iter().map(|w| w.at[i]).min().expect("two workers");
    let last = |i: usize| workers.iter().map(|w| w.at[i]).max().expect("two workers");
    let epoch = plan.span_epoch.unwrap_or(first(0));
    let since_epoch = |t: Instant| t.duration_since(epoch).as_nanos() as u64;

    let mut rep = Rep {
        construct_s,
        preload_s: (last(1) - first(0)).as_secs_f64(),
        wall_s: (last(3) - first(2)).as_secs_f64(),
        measured_ops: 0,
        slices: Vec::new(),
        lat: Default::default(),
        probe_lat: Vec::new(),
        sync_ns: workers.iter().map(|w| w.sync_ns as f64).sum::<f64>() / THREADS as f64,
        attempted: 2, // the two end-of-repetition checks below
        failed: 0,
        preloaded: workers[0].preloaded,
        footprint: stack.footprint(),
        expected_live: live_keys_after(plan.spec, plan.streams),
        pinned: workers.iter().all(|w| w.pinned),
        counters: ThreadCounterSnapshot::default(),
        locality: Locality::default(),
        limbo_peak: 0,
        phase_ns: [
            since_epoch(first(0)),
            since_epoch(last(1)),
            since_epoch(first(2)),
            since_epoch(last(3)),
        ],
        spans: Vec::new(),
    };
    for (t, w) in workers.into_iter().enumerate() {
        rep.measured_ops +=
            (plan.streams[t].ops.len() - plan.warm_ops.min(plan.streams[t].ops.len())) as u64;
        rep.attempted += w.attempted;
        rep.failed += w.sink.failed;
        for (all, mine) in rep.lat.iter_mut().zip(w.sink.lat) {
            all.extend(mine);
        }
        rep.slices.extend(w.slices);
        rep.probe_lat.extend(w.probe_lat);
        let (a, b) = (rep.counters, w.counters);
        rep.counters = counters!(a + b);
        for (all, mine) in rep.locality.iter_mut().zip(w.locality) {
            *all += mine;
        }
        rep.limbo_peak = rep.limbo_peak.max(w.limbo_peak);
        rep.spans.extend(w.sink.spans.into_iter().map(|s| (t, s)));
    }
    for lat in rep.lat.iter_mut() {
        lat.sort_unstable();
    }
    rep.probe_lat.sort_unstable();

    if rep.footprint.memory.live != rep.expected_live {
        eprintln!(
            "FAILED check: structure holds {} keys, the generator predicts {}",
            rep.footprint.memory.live, rep.expected_live
        );
        rep.failed += 1;
    }
    if let Some(violation) = &rep.footprint.invariants {
        eprintln!("FAILED check: {violation}");
        rep.failed += 1;
    }
    rep
}
