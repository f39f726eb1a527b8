//! Criterion micro-benchmarks: single-operation latencies of the core
//! structures on a preloaded map — useful for regression tracking, apart
//! from the figure/table reproduction targets.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use instrument::ThreadCtx;
use skipgraph::local::RobinHoodMap;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap};
use std::time::Duration;

const PRELOAD: u64 = 1 << 12;

fn preloaded(config: GraphConfig) -> LayeredMap<u64, u64> {
    let map = LayeredMap::new(config.chunk_capacity(1 << 14));
    let mut h = map.register(ThreadCtx::plain(0));
    for k in 0..PRELOAD {
        h.insert(k * 2, k);
    }
    drop(h);
    map
}

fn bench_layered(c: &mut Criterion) {
    let mut group = c.benchmark_group("layered");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150))
        .sample_size(20);
    for (name, cfg) in [
        ("eager_sg", GraphConfig::new(2)),
        ("lazy_sg", GraphConfig::new(2).lazy(true)),
        ("sparse_ssg", GraphConfig::new(2).sparse(true)),
    ] {
        let map = preloaded(cfg);
        group.bench_function(format!("{name}/contains_hit"), |b| {
            let mut h = map.pin(ThreadCtx::plain(0));
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 2) % (PRELOAD * 2);
                std::hint::black_box(h.contains(&k))
            });
        });
        group.bench_function(format!("{name}/contains_miss"), |b| {
            let mut h = map.pin(ThreadCtx::plain(0));
            let mut k = 1u64;
            b.iter(|| {
                k = ((k + 2) % (PRELOAD * 2)) | 1;
                std::hint::black_box(h.contains(&k))
            });
        });
        group.bench_function(format!("{name}/insert_remove"), |b| {
            let mut h = map.pin(ThreadCtx::plain(1));
            let mut k = 1u64;
            b.iter(|| {
                k = ((k + 2) % (PRELOAD * 2)) | 1;
                std::hint::black_box(h.insert(k, k));
                std::hint::black_box(h.remove(&k))
            });
        });
    }
    group.finish();
}

fn bench_robinhood(c: &mut Criterion) {
    let mut group = c.benchmark_group("robinhood");
    group
        .measurement_time(Duration::from_millis(300))
        .warm_up_time(Duration::from_millis(100))
        .sample_size(20);
    group.bench_function("insert_1k", |b| {
        b.iter_batched(
            RobinHoodMap::<u64, u64>::new,
            |mut m| {
                for k in 0..1000u64 {
                    m.insert(k.wrapping_mul(0x9E3779B97F4A7C15), k);
                }
                m
            },
            BatchSize::SmallInput,
        );
    });
    let mut full = RobinHoodMap::new();
    for k in 0..10_000u64 {
        full.insert(k, k);
    }
    group.bench_function("lookup_hit", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 10_000;
            std::hint::black_box(full.get(&k))
        });
    });
    group.finish();
}

fn bench_range_and_pqueue(c: &mut Criterion) {
    use instrument::ThreadCtx;
    use sg_pqueue::LayeredPriorityQueue;
    use std::ops::Bound;

    let mut group = c.benchmark_group("range_pqueue");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150))
        .sample_size(20);

    let map = preloaded(GraphConfig::new(2).lazy(true));
    group.bench_function("range_scan_100", |b| {
        let mut h = map.pin(ThreadCtx::plain(0));
        let mut lo = 0u64;
        b.iter(|| {
            lo = (lo + 200) % (PRELOAD * 2 - 200);
            let n = h
                .range(Bound::Included(&lo), Bound::Excluded(lo + 200))
                .count();
            std::hint::black_box(n)
        });
    });
    group.bench_function("read_only_view_get", |b| {
        // A reader outside the registered set: the bare graph's handle.
        let mut view = map.shared().pin(ThreadCtx::plain(1));
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 2) % (PRELOAD * 2);
            std::hint::black_box(view.get(&k))
        });
    });
    group.bench_function("pqueue_push_pop", |b| {
        let pq: LayeredPriorityQueue<u64, u64> = LayeredPriorityQueue::new(2);
        let mut h = pq.register(ThreadCtx::plain(0));
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            h.push(k, k);
            std::hint::black_box(h.pop_min())
        });
    });
    group.finish();
}

/// In-block point reads on the fat-level-0 blocked map: the hit path
/// runs the branch-free binary search over the block's sorted prefix
/// (`graph/block/mod.rs::get`), so this group tracks regressions in
/// that search (see the microbench note in EXPERIMENTS.md). Ascending
/// preload keeps every block's sorted prefix full — the search covers
/// the whole block, not the unsorted tail scan.
fn bench_block_search(c: &mut Criterion) {
    use skipgraph::BlockedSkipMap;

    let mut group = c.benchmark_group("block_search");
    group
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(150))
        .sample_size(20);
    for cap in [8usize, 16] {
        let map: BlockedSkipMap<u64, u64> =
            BlockedSkipMap::new(GraphConfig::new(2).chunk_capacity(1 << 14), cap);
        {
            let mut h = map.register(ThreadCtx::plain(0));
            for k in 0..PRELOAD {
                h.insert(k * 2, k);
            }
        }
        group.bench_function(format!("cap{cap}/get_hit"), |b| {
            let mut h = map.register(ThreadCtx::plain(0));
            let mut k = 0u64;
            b.iter(|| {
                k = (k + 2) % (PRELOAD * 2);
                std::hint::black_box(h.get(&k))
            });
        });
        group.bench_function(format!("cap{cap}/get_miss"), |b| {
            let mut h = map.register(ThreadCtx::plain(0));
            let mut k = 1u64;
            b.iter(|| {
                k = ((k + 2) % (PRELOAD * 2)) | 1;
                std::hint::black_box(h.get(&k))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_layered,
    bench_robinhood,
    bench_range_and_pqueue,
    bench_block_search
);
criterion_main!(benches);
