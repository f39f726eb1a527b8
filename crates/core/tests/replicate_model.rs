//! The differential wall around per-socket replication
//! (`skipgraph::replicate`).
//!
//! Every operation of a [`skipgraph::ReplicatedLayeredMap`] flows through
//! a bounded operation log and is applied to each replica independently,
//! so the things that can silently go wrong are *divergence* (replicas
//! applying different per-key histories), *lost read-your-writes* (a read
//! served by a replica whose tail never caught the mapped log's head),
//! and *slot-reuse corruption* once a tiny log wraps. These tests drive
//! two handles pinned to different sockets against a `BTreeMap` model —
//! sequentially interleaved, so every outcome is exact — over a log small
//! enough to wrap many times per sequence, **with reclamation on** and
//! mid-run grace-period flushes on both replicas so replayed nodes are
//! retired and recycled while the other replica still lags.
#![cfg(not(feature = "bug-injection"))]

//!
//! Values are checked as *sets*, not exactly: the lazy protocol
//! linearizes an insert over a logically-deleted node by flipping its
//! valid bit back (`insertHelper`), which deliberately does not rewrite
//! the stored value — so after remove+reinsert the observable value
//! depends on whether a replica resurrected the old incarnation or
//! linked a recycled fresh node. Membership is exact; every observed
//! value must be one some successful insert of that key supplied (a
//! recycled-slot mixup would surface another key's value or garbage).

use instrument::ThreadCtx;
use proptest::prelude::*;
use skipgraph::{AdaptConfig, GraphConfig, ReplicaConfig, ReplicatedLayeredMap};
use std::collections::{BTreeMap, BTreeSet};

fn replicated_reclaiming() -> ReplicatedLayeredMap<u64, u64> {
    // Three thread slots: two handles on two sockets plus a flusher ctx.
    // The 16-slot log with a lag bound of 12 wraps every few operations,
    // keeping the backpressure and slot-reuse paths hot.
    ReplicatedLayeredMap::new(
        GraphConfig::new(3)
            .lazy(true)
            .hash_index(true)
            .reclaim(true)
            .chunk_capacity(256),
        ReplicaConfig::uniform(2, 2).logs(2).log_capacity(16).max_lag(12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential churn across sockets: arbitrary op sequences where
    /// each op executes through the handle the generator picked, so
    /// updates appended on one socket are read back through the other
    /// socket's replica (the NR read rule under test), with reclamation
    /// flushes recycling replayed nodes mid-sequence.
    #[test]
    fn replicated_map_behaves_like_btreemap_across_sockets(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..32, 0u64..1000, any::<bool>()),
            1..300,
        ),
    ) {
        let map = replicated_reclaiming();
        let mut h0 = map.register(ThreadCtx::plain(0));
        let mut h1 = map.register(ThreadCtx::plain(1));
        prop_assert!(h0.socket() != h1.socket(), "handles share a socket");
        let mut model: BTreeSet<u64> = BTreeSet::new();
        // Every value a successful insert ever supplied for a key: the
        // only values any replica may legally serve for it.
        let mut legal: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
        let flush_ctx = ThreadCtx::plain(2);
        for (op, k, v, second) in ops {
            // Sequential interleaving keeps the model exact while still
            // routing every op through the full append/replay protocol.
            let h = if second { &mut h1 } else { &mut h0 };
            match op {
                0 | 1 => {
                    let expect = !model.contains(&k);
                    prop_assert_eq!(h.insert(k, v), expect, "insert {}", k);
                    if expect {
                        model.insert(k);
                        legal.entry(k).or_default().insert(v);
                    }
                }
                2 | 3 => prop_assert_eq!(h.remove(&k), model.remove(&k), "remove {}", k),
                4 | 5 => {
                    let got = h.get(&k);
                    prop_assert_eq!(got.is_some(), model.contains(&k), "get {}", k);
                    if let Some(v) = got {
                        prop_assert!(
                            legal.get(&k).is_some_and(|s| s.contains(&v)),
                            "get {} served value {} no insert supplied", k, v
                        );
                    }
                }
                6 => prop_assert_eq!(h.contains(&k), model.contains(&k), "contains {}", k),
                _ => {
                    // Retire-and-recycle on both replicas: replayed
                    // removals are flushed through the grace-period
                    // protocol while the other replica may still hold
                    // unapplied log entries for the same keys.
                    for replica in map.replicas() {
                        replica.shared().reclaim_flush(&flush_ctx);
                    }
                }
            }
        }
        // Final sweep through both sockets: each replica must agree with
        // the model key for key (divergence would surface on whichever
        // socket applied the losing history).
        for k in 0..32u64 {
            prop_assert_eq!(
                h0.contains(&k), model.contains(&k), "final contains {} via socket 0", k
            );
            prop_assert_eq!(
                h1.contains(&k), model.contains(&k), "final contains {} via socket 1", k
            );
        }
    }
}

/// Same-key bursts in one replay batch: socket 0 drains per-op as it
/// appends (its batches are singletons); socket 1 is only ever drained
/// in bulk — by the writer's back-pressure help at the 12-op lag bound
/// and by the final `sync` — so its batches hold several operations per
/// key, executed in log order inside one sorted run, and it must agree
/// with the model key for key.
#[test]
fn a_lagging_replica_draining_same_key_bursts_agrees_with_the_model() {
    let map = replicated_reclaiming();
    let mut w = map.register(ThreadCtx::plain(0));
    let mut model: BTreeSet<u64> = BTreeSet::new();
    // All values any live insert ever supplied per key (resurrection may
    // legally serve an old incarnation — see the module docs).
    let mut legal: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut x = 0xD1B5_4A32u64 | 1;
    // Tiny key space + bursts of ops per key: every drained suffix on
    // the lagging replica holds multi-op same-key groups (insert after
    // remove, double remove, double insert).
    for round in 0..240u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let k = x % 6;
        match x / 8 % 4 {
            0 | 1 => {
                let expect = !model.contains(&k);
                assert_eq!(w.insert(k, round), expect, "insert {k} round {round}");
                if expect {
                    model.insert(k);
                    legal.entry(k).or_default().insert(round);
                }
            }
            2 => assert_eq!(w.remove(&k), model.remove(&k), "remove {k}"),
            _ => {
                let got = w.get(&k);
                assert_eq!(got.is_some(), model.contains(&k), "get {k} presence");
                if let Some(v) = got {
                    assert!(
                        legal.get(&k).is_some_and(|s| s.contains(&v)),
                        "get {k} served {v}, which no insert supplied"
                    );
                }
            }
        }
    }
    let mut r = map.register(ThreadCtx::plain(1));
    r.sync();
    for k in 0..6u64 {
        let got = r.get(&k);
        assert_eq!(
            got.is_some(),
            model.contains(&k),
            "lagging replica disagrees on key {k} presence"
        );
        if let Some(v) = got {
            assert!(
                legal.get(&k).is_some_and(|s| s.contains(&v)),
                "lagging replica serves {v} for {k}, which no insert supplied"
            );
        }
    }
}

/// One protocol, not two: a map built without an `AdaptConfig` and a map
/// whose controller can never close a window (so it sits in generation 0
/// of the replicated mode forever) must be the same machine. One seeded
/// sequence — bursts through socket 0 that leave socket 1 lagging, reads
/// and writes through socket 1 that catch it up, one `sync` — over a log
/// tiny enough to wrap and to force back-pressure helping: every outcome,
/// every replica's final key set (unsynced, so equal lag too), and the
/// append / replay counters of both threads must be identical.
#[test]
fn a_controller_less_map_equals_one_whose_controller_never_fires() {
    type Run = (Vec<Option<u64>>, Vec<Vec<u64>>, [u64; 3]);
    fn run(rcfg: ReplicaConfig) -> Run {
        let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
            GraphConfig::new(2).lazy(true).hash_index(true),
            rcfg.logs(2).log_capacity(8).max_lag(4),
        );
        let stats = instrument::AccessStats::new(2);
        let mut h0 = map.register(ThreadCtx::recording(0, stats.clone()));
        let mut h1 = map.register(ThreadCtx::recording(1, stats.clone()));
        assert_ne!(h0.socket(), h1.socket());
        let mut outcomes = Vec::new();
        let mut x = 0x5EED_0F15u64 | 1;
        for step in 0..900u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 10;
            // Socket 1 acts on every eighth step only, so it drains the
            // bursts in between as multi-op batches.
            let h = if step % 8 == 7 { &mut h1 } else { &mut h0 };
            outcomes.push(match x / 16 % 4 {
                0 | 1 => Some(h.insert(k, step) as u64),
                2 => Some(h.remove(&k) as u64),
                _ => h.get(&k),
            });
            if step == 450 {
                h1.sync();
            }
        }
        let ctx = ThreadCtx::plain(0);
        let key_sets = map
            .replicas()
            .iter()
            .map(|r| r.shared().iter_snapshot(&ctx).map(|(k, _)| *k).collect())
            .collect();
        let t = stats.totals();
        let counters = [t.log_appends, t.replay_batches, t.replayed_ops];
        (outcomes, key_sets, counters)
    }
    let plain = run(ReplicaConfig::uniform(2, 2));
    let pinned = run(ReplicaConfig::uniform(2, 2).adapt(AdaptConfig::new().window_ops(u32::MAX)));
    assert_eq!(plain.0, pinned.0, "outcomes differ");
    assert_eq!(plain.1, pinned.1, "replica key sets differ");
    assert_eq!(plain.2, pinned.2, "append / replay counters differ");
    // The sequence did what it is for: the 8-slot logs wrapped many times
    // (so the 4-slot lag bound forced helping), and the lagging replica
    // drained multi-op batches.
    assert!(plain.2[0] > 400, "only {} appends", plain.2[0]);
    assert!(plain.2[2] > plain.2[1], "every replay batch was a singleton");
    assert_eq!(plain.1.len(), 2);
}

/// `sync` catches a replica up to *every* log head in one call. The
/// observable contract: after a bulk load through socket 0 and one
/// `sync` on socket 1, socket 1's reads are pure reads — replaying a
/// missed insert would have to link nodes into the replica, and linking
/// takes CAS, which the instrumentation would count.
#[test]
fn sync_retires_replay_debt_across_all_logs() {
    let map = replicated_reclaiming();
    let mut writer = map.register(ThreadCtx::plain(0));
    for k in 0..64u64 {
        assert!(writer.insert(k, k));
    }
    let stats = instrument::AccessStats::new(3);
    let mut reader = map.register(ThreadCtx::recording(1, stats.clone()));
    reader.sync();
    let (lc, rc) = stats.cas().split_by_locality(&[0, 0, 0]);
    assert!(lc + rc > 0, "sync applied nothing: the preload left no replay debt to test");
    let after_sync = lc + rc;
    for k in 0..64u64 {
        assert!(reader.contains(&k), "key {k} missing via socket 1 after sync");
    }
    let (lc, rc) = stats.cas().split_by_locality(&[0, 0, 0]);
    assert_eq!(lc + rc, after_sync, "post-sync reads still paid replay CAS");
}

/// Real-thread churn: workers split across both sockets hammer a small
/// shared key space through the log while a dedicated reclaimer thread
/// flushes both replicas. Workers assert read-your-writes on thread-owned
/// key classes (this thread is the key's only writer, so every outcome is
/// exact) — a read served by a lagging replica, a lost log entry, or a
/// slot-reuse mixup would break one of them.
#[test]
fn concurrent_churn_across_sockets_keeps_read_your_writes() {
    const THREADS: u64 = 3;
    const PER_CLASS: u64 = 16;
    let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
        GraphConfig::new(THREADS as usize + 1)
            .lazy(true)
            .hash_index(true)
            .reclaim(true)
            .chunk_capacity(256),
        ReplicaConfig::uniform(THREADS as usize, 2)
            .logs(2)
            .log_capacity(16)
            .max_lag(12),
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
                for replica in map.replicas() {
                    replica.shared().reclaim_flush(&ctx);
                }
                std::thread::yield_now();
            }
        });
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        flusher.join().unwrap();
    });
    // Post-run: both replicas agree on membership for the whole key space
    // once a fresh handle's catch-up has drained every log. (Values may
    // differ legitimately: one replica can resurrect an old incarnation
    // where the other linked a recycled fresh node — see the module docs.)
    let mut a = map.register(ThreadCtx::plain(0));
    let mut b = map.register(ThreadCtx::plain(2));
    assert_ne!(a.socket(), b.socket());
    for k in 0..(THREADS * PER_CLASS) {
        assert_eq!(a.contains(&k), b.contains(&k), "replicas disagree on key {k}");
    }
}
