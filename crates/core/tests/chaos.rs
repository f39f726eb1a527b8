//! Schedule-fuzzed stress tests: worker contexts yield the OS thread at
//! random shared-node accesses (`ThreadCtx::chaos`), forcing preemption at
//! linearization-sensitive points — the closest a plain-OS-thread test
//! gets to an interleaving explorer on a small machine.

use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap};
use std::collections::HashMap;
use std::sync::Barrier;

const THREADS: usize = 4;
const KEYS: u64 = 32;
const OPS: usize = 1200;

fn chaos_stress(cfg: GraphConfig, label: &str, seed: u64) {
    let map: LayeredMap<u64, u64> = LayeredMap::new(cfg.chunk_capacity(4096));
    let barrier = Barrier::new(THREADS);
    let balances: Vec<HashMap<u64, i64>> = std::thread::scope(|s| {
        (0..THREADS as u16)
            .map(|t| {
                let map = &map;
                let barrier = &barrier;
                s.spawn(move || {
                    // Yield at roughly every 5th shared access.
                    let mut h = map.pin(ThreadCtx::chaos(t, seed ^ t as u64, 5));
                    let mut balance: HashMap<u64, i64> = HashMap::new();
                    let mut state = seed ^ ((t as u64) << 17) | 1;
                    barrier.wait();
                    for _ in 0..OPS {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % KEYS;
                        match state % 3 {
                            0 => {
                                if h.insert(k, k) {
                                    *balance.entry(k).or_insert(0) += 1;
                                }
                            }
                            1 => {
                                if h.remove(&k) {
                                    *balance.entry(k).or_insert(0) -= 1;
                                }
                            }
                            _ => {
                                let _ = h.contains(&k);
                            }
                        }
                    }
                    balance
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let mut total: HashMap<u64, i64> = HashMap::new();
    for b in balances {
        for (k, v) in b {
            *total.entry(k).or_insert(0) += v;
        }
    }
    let mut h = map.pin(ThreadCtx::plain(0));
    for k in 0..KEYS {
        let v = total.get(&k).copied().unwrap_or(0);
        assert!(v == 0 || v == 1, "{label}: key {k} balance {v}");
        assert_eq!(h.contains(&k), v == 1, "{label}: key {k}");
    }
    map.shared().check_invariants().unwrap();
}

#[test]
fn chaos_eager() {
    for seed in [11, 222, 3333] {
        chaos_stress(GraphConfig::new(THREADS), "eager", seed);
    }
}

#[test]
fn chaos_lazy() {
    for seed in [7, 77, 777] {
        chaos_stress(GraphConfig::new(THREADS).lazy(true), "lazy", seed);
    }
}

#[test]
fn chaos_lazy_zero_commission() {
    for seed in [13, 131, 1313] {
        chaos_stress(
            GraphConfig::new(THREADS).lazy(true).commission_cycles(0),
            "lazy-zero",
            seed,
        );
    }
}

#[test]
fn chaos_sparse() {
    for seed in [5, 55, 555] {
        chaos_stress(GraphConfig::new(THREADS).sparse(true), "sparse", seed);
    }
}

#[test]
fn chaos_lazy_sparse() {
    for seed in [9, 99, 999] {
        chaos_stress(
            GraphConfig::new(THREADS).lazy(true).sparse(true),
            "lazy-sparse",
            seed,
        );
    }
}

/// The chaos workload under the deterministic scheduler: the same four
/// threads and 32 keys, every outcome checked against the threads' summed
/// balances, `check_invariants` after each schedule.
///
/// Regression lane for an eager-insert race that `chaos_eager` hit about
/// once in 500 runs on a loaded host: a search walks the upper levels
/// before level 0, so `link_upper` could link a node at level 1 in front of
/// an older incarnation of its own key that died in between, leaving two
/// nodes with one key in a level-1 list ("order violation"). PCT seed 111
/// of this sweep caught it before the fix (`link_upper` now searches again
/// when its successor is dead); schedules re-roll whenever yield points
/// move, so the whole sweep is the test, not the seed.
#[cfg(feature = "deterministic")]
mod deterministic {
    use super::*;
    use skipgraph::det::{self, DetConfig, Policy};
    use std::sync::Mutex;

    fn det_chaos(cfg: GraphConfig, seed: u64, det: &DetConfig) -> Result<(), String> {
        let map: LayeredMap<u64, u64> = LayeredMap::new(cfg.chunk_capacity(4096));
        let balances = Mutex::new(HashMap::<u64, i64>::new());
        let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..THREADS as u16)
            .map(|t| {
                let (map, balances) = (&map, &balances);
                Box::new(move || {
                    let mut h = map.pin(ThreadCtx::plain(t));
                    let mut state = seed ^ ((t as u64) << 17) | 1;
                    for _ in 0..OPS / 8 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let k = state % KEYS;
                        let delta = match state % 3 {
                            0 => h.insert(k, k) as i64,
                            1 => -(h.remove(&k) as i64),
                            _ => {
                                h.contains(&k);
                                0
                            }
                        };
                        *balances.lock().unwrap().entry(k).or_insert(0) += delta;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        det::run_threads(det, workers);
        let mut h = map.pin(ThreadCtx::plain(0));
        for (k, v) in balances.into_inner().unwrap() {
            assert!(v == 0 || v == 1, "key {k} balance {v}");
            assert_eq!(h.contains(&k), v == 1, "key {k}");
        }
        map.shared().check_invariants()
    }

    #[test]
    fn eager_upper_levels_stay_sorted_under_pct() {
        let mut failed = Vec::new();
        for seed in 1..=400u64 {
            let det = DetConfig::new(
                seed,
                Policy::Pct {
                    change_points: 12,
                    expected_steps: 40_000,
                },
            );
            if let Err(e) = det_chaos(GraphConfig::new(THREADS), seed, &det) {
                failed.push((seed, e));
            }
        }
        assert!(failed.is_empty(), "{} schedules: {failed:?}", failed.len());
    }
}
