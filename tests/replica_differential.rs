//! The fast slice of the replication differential (the full proptest wall
//! is `crates/core/tests/replicate_model.rs`): a replicated map with two
//! sockets, a 16-slot log, a lag bound of 12 and reclamation flushes,
//! driven against a `BTreeSet` model.
//!
//! Operations come in bursts through one handle at a time, so a burst's
//! writes pile up in the other socket's replica until back-pressure makes
//! the writer replay them there. Those foreign replays start warm, from the
//! node the other replica's index holds for the writer's home local
//! predecessor of each key; the test fails if no burst of either thread
//! replayed into the other socket's replica.
#![cfg(not(feature = "bug-injection"))]

use instrument::{AccessStats, ThreadCtx};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skipgraph::{GraphConfig, ReplicaConfig, ReplicatedLayeredMap};
use std::collections::BTreeSet;
use std::ops::Bound::Unbounded;

const LOGS: usize = 2;
const LOG_CAPACITY: usize = 16;
/// The backpressure bound: three quarters of the log.
const LAG_BOUND: usize = LOG_CAPACITY * 3 / 4;
const KEYS: u64 = 96;

fn one_run(seed: u64) -> [bool; 2] {
    // A third slot flushes reclamation; two handles, one per socket.
    let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
        GraphConfig::new(3)
            .lazy(true)
            .hash_index(true)
            .chunk_capacity(256),
        ReplicaConfig::uniform(2, 2)
            .logs(LOGS)
            .log_capacity(LOG_CAPACITY),
    );
    let stats = AccessStats::new(3);
    let mut handles: Vec<_> = (0..2)
        .map(|t| map.register(ThreadCtx::recording(t, stats.clone())))
        .collect();
    assert_ne!(handles[0].socket(), handles[1].socket());
    let flush = ThreadCtx::plain(2);
    let mut model = BTreeSet::new();
    let mut rng = SmallRng::seed_from_u64(seed);
    // Whether a burst of each thread replayed into the other replica.
    let mut helped = [false; 2];
    for _ in 0..12 {
        let t = rng.gen_range(0..2usize);
        let h = &mut handles[t];
        let before = stats.thread(t).replayed_ops;
        let mut writes = 0;
        for _ in 0..rng.gen_range(1..96) {
            let k = rng.gen_range(0..KEYS);
            match rng.gen_range(0..10) {
                0..=3 => {
                    writes += 1;
                    assert_eq!(h.insert(k, k), model.insert(k), "seed {seed}: insert {k}");
                }
                4..=6 => {
                    writes += 1;
                    assert_eq!(h.remove(&k), model.remove(&k), "seed {seed}: remove {k}");
                }
                7 | 8 => assert_eq!(
                    h.contains(&k),
                    model.contains(&k),
                    "seed {seed}: contains {k}"
                ),
                _ => {
                    for replica in map.replicas() {
                        replica.shared().reclaim_flush(&flush);
                    }
                }
            }
        }
        // The home replica owed at most `LAG_BOUND` operations per log when
        // the burst began, and owes the burst's own writes: a thread that
        // replayed more than both also replayed into the other replica.
        let replayed = stats.thread(t).replayed_ops - before;
        helped[t] |= replayed > writes + (LOGS * LAG_BOUND) as u64;
    }
    for h in &mut handles {
        h.sync();
    }
    let ctx = ThreadCtx::plain(2);
    for (r, replica) in map.replicas().iter().enumerate() {
        let keys: BTreeSet<u64> = replica
            .shared()
            .range(Unbounded, Unbounded, &ctx)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(
            keys, model,
            "seed {seed}: replica {r} disagrees with the model"
        );
        replica.shared().check_invariants().unwrap();
    }
    for h in &mut handles {
        for k in 0..KEYS {
            assert_eq!(h.contains(&k), model.contains(&k), "seed {seed}: final {k}");
        }
    }
    helped
}

#[test]
fn replicas_agree_with_a_model_across_foreign_replays() {
    let mut helped = [false; 2];
    for seed in 1..=8 {
        let run = one_run(seed);
        helped[0] |= run[0];
        helped[1] |= run[1];
    }
    assert_eq!(
        helped,
        [true, true],
        "a thread never replayed into the other replica"
    );
}
