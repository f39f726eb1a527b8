//! `bench_block`: the fat-level-0-block ablation — one sparse lazy skip
//! graph with one key per node versus the same graph blocked at
//! `BLOCK_CAP` keys per anchor (`skipgraph::BlockedSkipMap`).
//!
//! Both lanes carry the identical population and workload. The preload
//! is parallel: each measurement thread inserts its interleaved share of
//! the keys through its own handle (as `benchmark/` does). Loading all
//! keys through thread 0 would leave every other thread's upper-level
//! lists on the unblocked lane empty — with no local structures, each of
//! its operations then walks level 0 from the head (~600 ops/s at 60 000
//! keys: `--check` would not finish on two hardware threads). Three
//! measurements per lane:
//!
//! * **ops/s** — a mixed read-mostly phase (90% lookups, 10%
//!   insert/remove churn), median of paired trials; within a pair the
//!   lane order alternates so background drift debiases across the
//!   median instead of always charging one lane.
//! * **nodes/search** — shared nodes visited per search
//!   (`traversed / searches` from the instrumented context) over a pure
//!   lookup pass. Blocking covers `~occupancy x cap` keys per anchor, so
//!   the level-0 walk and the tower descent both shorten.
//! * **bytes/key** — arena bytes over live keys right after the preload,
//!   when allocated == live on both lanes.
//!
//! Writes `BENCH_6.json` at the workspace root (`BENCH_OUT` overrides).
//! With `--check` the process exits non-zero unless the blocked lane (a)
//! visits at most half the nodes per search of the unblocked lane and
//! (b) spends strictly fewer bytes per key. Both gates compare medians
//! of the same in-process run, not wall-clock-sensitive absolutes, so
//! they hold on noisy shared runners. The CI `bench-smoke` block lane
//! runs this.

use instrument::{AccessStats, ThreadCtx};
use skipgraph::{
    BlockedHandle, BlockedSkipMap, ConcurrentMap, GraphConfig, MapHandle, SkipGraph,
    SkipGraphHandle,
};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

/// Keys per lane: large enough that tower descents dominate constant
/// overheads, small enough for a smoke lane.
const KEYS: u64 = 60_000;
/// Mixed-phase operations per thread per trial.
const OPS: u64 = 120_000;
/// Lookups of the instrumented nodes-per-search pass.
const PROBES: u64 = 60_000;
/// Default blocking factor; `--cap N` overrides (the EXPERIMENTS.md
/// ablation sweeps 2/4/8/16).
const BLOCK_CAP: usize = 8;
const CHUNK: usize = 1 << 12;
const TRIALS: usize = 5;
const MIN_NODES_RATIO: f64 = 2.0;
const MAX_BYTES_RATIO: f64 = 1.0;

fn thread_count() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
        .clamp(1, 4)
}

/// Key `i`, scattered uniformly (odd multiplier: a bijection on `u64`).
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B1_85EB_CA87)
}

fn config(threads: u64) -> GraphConfig {
    // Full-height sparse towers on both lanes: the default max level is
    // sized for thread partitioning (log2 of the thread count), which at
    // this population would leave level-0 walks O(keys) long and drown
    // the ablation in quadratic preloads. With identical tower geometry
    // the lanes differ only in blocking.
    // Epoch reclamation on both lanes: splits retire their frozen block
    // and a preload would otherwise count every dead block in
    // `allocated_bytes` forever (the unblocked lane never retires during
    // a preload, so it is unaffected).
    GraphConfig::new(threads as usize)
        .max_level(7)
        .sparse(true)
        .lazy(true)
        .reclaim(true)
        .chunk_capacity(CHUNK)
}

/// The two lanes behind one face: preload, mixed phase, probes, stats.
enum Map {
    Unblocked(SkipGraph<u64, u64>),
    Blocked(BlockedSkipMap<u64, u64>),
}

/// Per-thread handle over either lane (sparse insert heights, hint
/// caching — the production access path of both structures).
enum Handle<'m> {
    Unblocked(SkipGraphHandle<'m, u64, u64>),
    Blocked(BlockedHandle<'m, u64, u64>),
}

impl Map {
    fn build(threads: u64, blocked: Option<usize>) -> Self {
        if let Some(cap) = blocked {
            Map::Blocked(BlockedSkipMap::new(config(threads), cap))
        } else {
            Map::Unblocked(SkipGraph::new(config(threads)))
        }
    }

    fn pin(&self, ctx: ThreadCtx) -> Handle<'_> {
        match self {
            Map::Unblocked(m) => Handle::Unblocked(m.pin(ctx)),
            Map::Blocked(m) => Handle::Blocked(m.pin(ctx)),
        }
    }

    /// Arena bytes per live key right after the preload (limbo flushed,
    /// so retired split victims are back on the free lists and only the
    /// high-water allocation counts).
    fn bytes_per_key(&self, ctx: &ThreadCtx) -> f64 {
        match self {
            Map::Unblocked(m) => {
                m.reclaim_flush(ctx);
                m.memory_stats(ctx).allocated_bytes as f64 / KEYS as f64
            }
            Map::Blocked(m) => {
                m.shared().reclaim_flush(ctx);
                m.stats(ctx).bytes_per_key
            }
        }
    }
}

impl Handle<'_> {
    fn insert(&mut self, k: u64, v: u64) -> bool {
        match self {
            Handle::Unblocked(h) => h.insert(k, v),
            Handle::Blocked(h) => MapHandle::insert(h, k, v),
        }
    }

    fn remove(&mut self, k: &u64) -> bool {
        match self {
            Handle::Unblocked(h) => h.remove(k),
            Handle::Blocked(h) => MapHandle::remove(h, k),
        }
    }

    fn contains(&mut self, k: &u64) -> bool {
        match self {
            Handle::Unblocked(h) => h.contains(k),
            Handle::Blocked(h) => MapHandle::contains(h, k),
        }
    }
}

fn preload(map: &Map, threads: u64) {
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let mut h = map.pin(ThreadCtx::plain(t as u16));
                for i in (t..KEYS).step_by(threads as usize) {
                    assert!(h.insert(key(i), i));
                }
            });
        }
    });
}

/// The timed mixed phase: thread-disjoint op streams, 90% lookups and a
/// 10% insert/remove churn pair over a private upper key range.
fn mixed_phase(map: &Map, threads: u64) -> f64 {
    let start = Barrier::new(threads as usize + 1);
    let done = Barrier::new(threads as usize + 1);
    let elapsed = std::thread::scope(|s| {
        for t in 0..threads {
            let map = &map;
            let (start, done) = (&start, &done);
            s.spawn(move || {
                let mut h = map.pin(ThreadCtx::plain(t as u16));
                let mut x = 0x1234_5678_9ABC_DEF0u64 ^ t;
                start.wait();
                for i in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    if i % 10 == 9 {
                        // Churn a key private to this thread, well above
                        // the preloaded index range.
                        let k = key(KEYS + t * OPS + i);
                        h.insert(k, i);
                        h.remove(&k);
                    } else {
                        h.contains(&key(x % KEYS));
                    }
                }
                done.wait();
            });
        }
        start.wait();
        let begin = Instant::now();
        done.wait();
        begin.elapsed()
    });
    (threads * OPS) as f64 / elapsed.as_secs_f64()
}

/// Nodes per search over a single-threaded instrumented lookup pass.
fn nodes_per_search(map: &Map) -> f64 {
    let stats = AccessStats::new(1);
    let mut h = map.pin(ThreadCtx::recording(0, stats.clone()));
    let mut x = 0xDEAD_BEEF_0BAD_F00Du64;
    for _ in 0..PROBES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h.contains(&key(x % KEYS));
    }
    let t = stats.totals();
    t.traversed as f64 / t.searches.max(1) as f64
}

struct Lane {
    name: &'static str,
    ops_per_s: f64,
    nodes_per_search: f64,
    bytes_per_key: f64,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

fn run_lanes(threads: u64, cap: usize) -> (Lane, Lane) {
    // Structure metrics vary little between preloads (same keys every
    // trial; only split points move with the interleaving): measure them
    // once on fresh maps.
    let (un, bl) = (Map::build(threads, None), Map::build(threads, Some(cap)));
    preload(&un, threads);
    preload(&bl, threads);
    let ctx = ThreadCtx::plain(0);
    let (un_nps, bl_nps) = (nodes_per_search(&un), nodes_per_search(&bl));
    let (un_bpk, bl_bpk) = (un.bytes_per_key(&ctx), bl.bytes_per_key(&ctx));
    drop((un, bl));

    // Throughput: paired trials with alternating order inside the pair.
    let (mut un_s, mut bl_s) = (Vec::new(), Vec::new());
    for trial in 0..TRIALS {
        let run = |blocked: Option<usize>| {
            let map = Map::build(threads, blocked);
            preload(&map, threads);
            mixed_phase(&map, threads)
        };
        let (u, b) = if trial % 2 == 0 {
            let u = run(None);
            (u, run(Some(cap)))
        } else {
            let b = run(Some(cap));
            (run(None), b)
        };
        eprintln!("  trial {trial}: unblocked {u:>12.0} ops/s, blocked {b:>12.0} ops/s ({:.2}x)", b / u);
        un_s.push(u);
        bl_s.push(b);
    }
    (
        Lane {
            name: "unblocked_sparse",
            ops_per_s: median(un_s),
            nodes_per_search: un_nps,
            bytes_per_key: un_bpk,
        },
        Lane {
            name: "blocked_sparse",
            ops_per_s: median(bl_s),
            nodes_per_search: bl_nps,
            bytes_per_key: bl_bpk,
        },
    )
}

fn lane_json(l: &Lane) -> String {
    format!(
        "    \"{}\": {{\n      \"ops_per_s\": {:.0},\n      \"nodes_per_search\": {:.2},\n      \
         \"bytes_per_key\": {:.2}\n    }}",
        l.name, l.ops_per_s, l.nodes_per_search, l.bytes_per_key,
    )
}

fn main() {
    let mut check = false;
    let mut cap = BLOCK_CAP;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--check" => check = true,
            "--cap" => cap = args.next().expect("--cap N").parse().expect("block cap"),
            other => panic!("unknown flag {other}"),
        }
    }
    let threads = thread_count();

    eprintln!(
        "# bench_block: {KEYS} keys, block cap {cap}, {threads} threads x {OPS} mixed ops, \
         median of {TRIALS}"
    );

    let (un, bl) = run_lanes(threads, cap);
    for l in [&un, &bl] {
        eprintln!(
            "[{}] {:>12.0} ops/s | {:.2} nodes/search | {:.2} bytes/key",
            l.name, l.ops_per_s, l.nodes_per_search, l.bytes_per_key
        );
    }
    let nodes_ratio = un.nodes_per_search / bl.nodes_per_search;
    let bytes_ratio = bl.bytes_per_key / un.bytes_per_key;
    let ops_ratio = bl.ops_per_s / un.ops_per_s;
    eprintln!(
        "[gate] nodes/search shrinks {nodes_ratio:.2}x (min {MIN_NODES_RATIO}), bytes/key \
         {bytes_ratio:.2}x of unblocked (max {MAX_BYTES_RATIO}), throughput {ops_ratio:.2}x \
         (informational)"
    );

    let json = format!(
        "{{\n  \"bench\": \"block_ablation_smoke\",\n  \"threads\": {threads},\n  \
         \"keys\": {KEYS},\n  \"block_cap\": {cap},\n  \"ops_per_thread\": {OPS},\n  \
         \"lanes\": {{\n{},\n{}\n  }},\n  \"nodes_per_search_ratio\": {nodes_ratio:.2},\n  \
         \"bytes_per_key_ratio\": {bytes_ratio:.2},\n  \"ops_ratio\": {ops_ratio:.2}\n}}\n",
        lane_json(&un),
        lane_json(&bl),
    );

    let out = std::env::var("BENCH_OUT").map(PathBuf::from).unwrap_or_else(|_| {
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(|p| p.parent())
            .unwrap_or(&manifest)
            .join("BENCH_6.json")
    });
    let mut failed = false;
    match std::fs::write(&out, &json) {
        Ok(()) => eprintln!("wrote {}", out.display()),
        Err(e) => {
            eprintln!("FAIL: could not write {}: {e}", out.display());
            failed = true;
        }
    }
    print!("{json}");

    if check {
        if nodes_ratio < MIN_NODES_RATIO {
            eprintln!(
                "FAIL: blocked lane visits {nodes_ratio:.2}x fewer nodes per search < required \
                 {MIN_NODES_RATIO:.1}x"
            );
            failed = true;
        }
        if bytes_ratio >= MAX_BYTES_RATIO {
            eprintln!(
                "FAIL: blocked lane spends {bytes_ratio:.2}x the unblocked lane's bytes per key \
                 (must be < {MAX_BYTES_RATIO:.1})"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
