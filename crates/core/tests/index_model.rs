//! The differential wall around the shared point-read hash index.
//!
//! The index is an accelerator, never an authority: every hit must be
//! re-validated against the node it names. These tests drive the
//! index-accelerated layered map against a `BTreeMap` model under churn
//! **with reclamation on**, flushing the grace-period protocol mid-run
//! so removed nodes are actually retired, recycled, and re-published
//! under new keys while the index still holds generation-tagged entries
//! to the old incarnations. A single stale read — a hit surviving
//! validation after its node was retired — shows up as a differential
//! mismatch.
#![cfg(not(feature = "bug-injection"))]

use instrument::ThreadCtx;
use proptest::prelude::*;
use skipgraph::{GraphConfig, LayeredMap};
use std::collections::BTreeMap;

fn indexed_reclaiming(threads: usize) -> GraphConfig {
    GraphConfig::new(threads)
        .hash_index(true)
        .reclaim(true)
        .chunk_capacity(256)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential churn: arbitrary op sequences (flushes included)
    /// over a small key space so removed slots are recycled under
    /// colliding keys, against the model. Every operation runs the index
    /// fast path first — the handle has no hashtable of its own — so a
    /// stale entry answering past its generation check would diverge from
    /// the model immediately; and entries go missing at random, as lost
    /// publishes and colliding signatures make them, so the handle's own
    /// keys also arrive as the start node of their own search.
    #[test]
    fn indexed_map_behaves_like_btreemap_under_reclaim(
        ops in proptest::collection::vec((0u8..10, 0u64..32, 0u64..1000), 1..300),
        index_cap_sel: bool,
        lazy: bool,
    ) {
        // A tiny capacity hint forces segment grows mid-sequence; the
        // default exercises the steady-state table.
        let cap = if index_cap_sel { 8 } else { 0 };
        let map: LayeredMap<u64, u64> = LayeredMap::new(
            indexed_reclaiming(2).index_capacity(cap).lazy(lazy),
        );
        let mut h = map.register(ThreadCtx::plain(0));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // A lazy re-insert may resurrect the removed node with its first
        // value or, once that node is retired, link a new one: values are
        // only compared under the eager protocol.
        let seen = |got: Option<u64>, want: Option<&u64>| {
            if lazy { got.is_some() == want.is_some() } else { got == want.copied() }
        };
        for (op, k, v) in ops {
            match op {
                0 | 1 => {
                    let expect = !model.contains_key(&k);
                    prop_assert_eq!(h.insert(k, v), expect, "insert {}", k);
                    if expect {
                        model.insert(k, v);
                    }
                }
                2 | 3 => prop_assert_eq!(
                    h.remove(&k),
                    model.remove(&k).is_some(),
                    "remove {}",
                    k
                ),
                4 | 5 => prop_assert!(seen(h.get(&k), model.get(&k)), "get {}", k),
                6 => prop_assert_eq!(h.contains(&k), model.contains_key(&k), "contains {}", k),
                7 | 8 => map.shared().index_evict(&k, h.ctx()),
                _ => {
                    // Retire-and-recycle point: the flush runs the full
                    // grace-period protocol, so every index entry for a
                    // removed key now names a recycled (generation-bumped)
                    // slot. Subsequent reads must observe the bump.
                    map.shared().reclaim_flush(h.ctx());
                }
            }
        }
        // Final sweep through the fast path: every key the model holds
        // must be found with its exact value, every other key absent.
        for k in 0..32u64 {
            prop_assert!(seen(h.get(&k), model.get(&k)), "final get {}", k);
        }
    }
}

/// Real-thread churn with periodic flushes from a dedicated reclaimer
/// thread: workers hammer a small shared key space through index-first
/// handles while retirement and slot recycling run concurrently. Workers
/// assert only self-consistency (a get after *their own* insert of a
/// thread-owned key sees their value), which a stale index entry for a
/// recycled slot would break.
#[test]
fn concurrent_churn_with_reclaim_never_serves_stale_reads() {
    // At the auto size, and from the smallest index there is, whose
    // grows and compactions then run under the churn.
    for cap in [0, 1] {
        concurrent_churn(cap);
    }
}

fn concurrent_churn(index_capacity: usize) {
    const THREADS: u64 = 3;
    const PER_CLASS: u64 = 16;
    let map: LayeredMap<u64, u64> = LayeredMap::new(
        indexed_reclaiming(THREADS as usize + 1).index_capacity(index_capacity),
    );
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = &map;
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t as u16));
                    let mut x = 0x9E37_79B9u64 ^ (t << 32) | 1;
                    for round in 0..4000u64 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Thread-owned key class: k % THREADS == t, so
                        // this thread is the only writer and every
                        // outcome on k is exact.
                        let k = (x / 8 % PER_CLASS) * THREADS + t;
                        h.insert(k, round);
                        assert!(
                            h.get(&k).is_some(),
                            "t{t} lost its own key {k} (round {round})"
                        );
                        assert!(h.contains(&k), "t{t} contains({k}) false after insert");
                        if x % 3 == 0 {
                            assert!(h.remove(&k), "t{t} remove({k}) lied");
                            assert_eq!(h.get(&k), None, "t{t} read {k} back after remove");
                            assert!(!h.contains(&k), "t{t} contains({k}) true after remove");
                        }
                    }
                })
            })
            .collect();
        let flusher = s.spawn(|| {
            let ctx = ThreadCtx::plain(THREADS as u16);
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                map.shared().reclaim_flush(&ctx);
                std::thread::yield_now();
            }
        });
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        flusher.join().unwrap();
    });
    // Post-run: the index's stats must be coherent (entries never exceed
    // what was ever published, retired entries were counted).
    let ctx = ThreadCtx::plain(0);
    let stats = map.shared().memory_stats(&ctx);
    assert!(stats.index_bytes > 0, "index allocated no tables");
}

/// Occupancy telemetry: the per-segment snapshot must account for every
/// live key (entries >= live keys, since lazy absence-tombstones also
/// hold slots), stay within capacity, put every histogram entry within
/// the probe limit, and agree with the aggregate `memory_stats` fields.
#[test]
fn occupancy_snapshot_accounts_for_published_keys() {
    let map: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(2).lazy(true).hash_index(true).index_capacity(1 << 12));
    let mut h = map.register(ThreadCtx::plain(0));
    const N: u64 = 3000;
    for k in 0..N {
        assert!(h.insert(k.wrapping_mul(0x9E37_79B9), k));
    }
    let ctx = ThreadCtx::plain(0);
    let mem = map.shared().memory_stats(&ctx);
    let occ = map.shared().index_occupancy();
    assert_eq!(occ.len(), mem.index_segments, "segment count disagrees");
    assert!(!occ.is_empty(), "indexed map reported no segments");
    let capacity: usize = occ.iter().map(|s| s.capacity).sum();
    assert_eq!(capacity, mem.index_capacity, "capacity disagrees");
    // Publishes are best-effort (a full probe window drops the entry),
    // so the snapshot may undercount live keys slightly — but never by
    // much at this load factor, and never beyond what was published.
    let entries: usize = occ.iter().map(|s| s.entries).sum();
    assert!(
        entries >= N as usize * 9 / 10,
        "snapshot saw only {entries} entries for {N} live keys"
    );
    assert!(
        entries <= mem.index_entries,
        "snapshot saw more entries than were ever published"
    );
    for (i, seg) in occ.iter().enumerate() {
        assert!(seg.entries + seg.tombstones <= seg.capacity, "segment {i} overfull");
        assert!(seg.used <= seg.capacity, "segment {i} used > capacity");
        let binned: u64 = seg.probe_histogram.iter().sum();
        assert_eq!(binned as usize, seg.entries, "segment {i} histogram loses entries");
        if seg.entries > 0 {
            assert!(seg.mean_probe() >= 1.0, "segment {i} mean probe below 1");
            assert!(
                seg.mean_probe() <= skipgraph::index::PROBE_LIMIT as f64,
                "segment {i} mean probe beyond the limit"
            );
            assert!(seg.load_factor() > 0.0 && seg.load_factor() <= 1.0);
        }
    }
}

/// Key turnover at a constant live size under the deterministic
/// scheduler, from the smallest index there is: each thread replaces its
/// own keys by fresh ones, so slots turn into tombstones faster than keys
/// reuse them, and schedules interleave the index's in-place grows and
/// compactions with the reads, removes and inserts of the other threads.
/// Every outcome is exact (a thread's keys are its own), and the index
/// must end up far smaller than the entries it ever held: at most a third
/// of them (64–128 slots for ≈ 560 entries here; 256–384 with compaction
/// disabled).
#[cfg(feature = "deterministic")]
mod deterministic {
    use super::*;
    use skipgraph::det::{self, round_robin_family, DetConfig, Policy};

    const THREADS: u64 = 3;
    const LIVE: u64 = 6;
    const TURNS: u64 = 30;

    fn turnover(det: &DetConfig) {
        let map: LayeredMap<u64, u64> = LayeredMap::new(
            GraphConfig::new(THREADS as usize)
                .hash_index(true)
                .index_capacity(1),
        );
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..THREADS)
            .map(|t| {
                let map = &map;
                Box::new(move || {
                    let mut h = map.register(ThreadCtx::plain(t as u16));
                    let key = |i: u64| i * THREADS + t;
                    for i in 0..LIVE {
                        assert!(h.insert(key(i), i));
                    }
                    for i in 0..TURNS * LIVE {
                        assert_eq!(h.get(&key(i)), Some(i), "t{t} lost {}", key(i));
                        assert!(h.remove(&key(i)), "t{t} remove {}", key(i));
                        assert!(h.insert(key(i + LIVE), i + LIVE), "t{t} insert {}", key(i + LIVE));
                        assert!(!h.contains(&key(i)), "t{t} read {} back", key(i));
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        det::run_threads(det, workers);
        let mut h = map.register(ThreadCtx::plain(0));
        for t in 0..THREADS {
            for i in TURNS * LIVE..(TURNS + 1) * LIVE {
                assert_eq!(h.get(&(i * THREADS + t)), Some(i));
            }
        }
        let mem = map.shared().memory_stats(h.ctx());
        assert!(
            mem.index_entries >= 3 * mem.index_capacity,
            "{} slots for {} entries ever published: the index kept its tombstones",
            mem.index_capacity,
            mem.index_entries
        );
    }

    #[test]
    fn turnover_under_pct_and_round_robin() {
        for seed in 1..=8 {
            turnover(&DetConfig::new(
                seed,
                Policy::Pct {
                    change_points: 10,
                    expected_steps: 60_000,
                },
            ));
        }
        for (seed, policy) in round_robin_family(THREADS as u16, 3) {
            turnover(&DetConfig::new(seed, policy));
        }
    }
}
