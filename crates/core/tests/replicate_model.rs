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
//! enough to wrap many times per sequence, with mid-run grace-period
//! flushes on both replicas so replayed nodes are retired and recycled
//! while the other replica still lags.
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
use skipgraph::{GraphConfig, ReplicaConfig, ReplicatedLayeredMap};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound::Unbounded;

fn replicated_reclaiming() -> ReplicatedLayeredMap<u64, u64> {
    // Three thread slots: two handles on two sockets plus a flusher ctx.
    // The 16-slot log (lag bound 12) wraps every few operations,
    // keeping the backpressure and slot-reuse paths hot.
    ReplicatedLayeredMap::new(
        GraphConfig::new(3)
            .lazy(true)
            .hash_index(true)
            .chunk_capacity(256),
        ReplicaConfig::uniform(2, 2).logs(2).log_capacity(16),
    )
}

/// Four thread slots over two sockets: `MaxLevel` 1, so threads 0 and 1
/// (socket 0) carry one membership vector and threads 2 and 3 (socket 1)
/// the other. A replay into the other socket's replica then meets warm
/// nodes of both vectors, and only its own may start its search.
fn replicated_four_slots(lazy: bool) -> ReplicatedLayeredMap<u64, u64> {
    ReplicatedLayeredMap::new(
        GraphConfig::new(4)
            .lazy(lazy)
            .hash_index(true)
            .chunk_capacity(256),
        ReplicaConfig::uniform(4, 2).logs(2).log_capacity(16),
    )
}

/// Runs `ops` — `(op, key, value, handle)` — through one handle per thread
/// slot of `map` against a `BTreeSet` model, sequentially interleaved, with
/// op 7 flushing reclamation on every replica through `flush_ctx` (a
/// context that is never pinned between operations). Ends with every key
/// read back through every handle.
fn run_against_model(
    map: &ReplicatedLayeredMap<u64, u64>,
    flush_ctx: ThreadCtx,
    ops: Vec<(u8, u64, u64, usize)>,
) -> Result<(), TestCaseError> {
    let threads = map.replica_config().threads();
    let mut handles: Vec<_> = (0..threads as u16)
        .map(|t| map.register(ThreadCtx::plain(t)))
        .collect();
    prop_assert!(
        handles.iter().any(|h| h.socket() != handles[0].socket()),
        "every handle on one socket"
    );
    let mut model: BTreeSet<u64> = BTreeSet::new();
    // Every value a successful insert ever supplied for a key: the only
    // values any replica may legally serve for it.
    let mut legal: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut max_key = 0;
    for (op, k, v, t) in ops {
        max_key = max_key.max(k);
        // Sequential interleaving keeps the model exact while still routing
        // every op through the full append/replay protocol.
        let h = &mut handles[t % threads];
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
                        "get {} served value {} no insert supplied",
                        k,
                        v
                    );
                }
            }
            6 => prop_assert_eq!(h.contains(&k), model.contains(&k), "contains {}", k),
            _ => {
                for replica in map.replicas() {
                    replica.shared().reclaim_flush(&flush_ctx);
                }
            }
        }
    }
    // Each replica must agree with the model key for key (divergence would
    // surface on whichever socket applied the losing history).
    for h in &mut handles {
        for k in 0..=max_key {
            prop_assert_eq!(
                h.contains(&k),
                model.contains(&k),
                "final contains {} via socket {}",
                k,
                h.socket()
            );
        }
    }
    // Every upper-level list holds only its own membership vector's nodes:
    // a replay that started from another vector's node would have linked
    // its insert into that node's lists.
    for replica in map.replicas() {
        if let Err(e) = replica.shared().check_invariants() {
            return Err(TestCaseError::fail(e));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential churn with two thread slots per socket, in bursts of
    /// operations through one handle: a burst's writes pile up in the
    /// other socket's replica until back-pressure makes the writer replay
    /// them there, starting warm from nodes of either membership vector,
    /// while reclamation flushes recycle replayed nodes.
    #[test]
    fn four_slots_over_two_sockets_behave_like_btreemap(
        bursts in proptest::collection::vec(
            (0usize..4, proptest::collection::vec((0u8..8, 0u64..48, 0u64..1000), 1..64)),
            1..10,
        ),
    ) {
        let map = replicated_four_slots(true);
        let ops = bursts
            .into_iter()
            .flat_map(|(t, ops)| ops.into_iter().map(move |(op, k, v)| (op, k, v, t)))
            .collect();
        run_against_model(&map, ThreadCtx::plain(0), ops)?;
    }

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
        // Reclamation flushes retire and recycle replayed nodes on both
        // replicas while the other may still hold unapplied log entries
        // for the same keys; the flusher is the third slot.
        let map = replicated_reclaiming();
        let ops = ops.into_iter().map(|(op, k, v, second)| (op, k, v, second as usize)).collect();
        run_against_model(&map, ThreadCtx::plain(2), ops)?;
    }
}

/// Under the eager protocol a replay links every level from its search.
/// Thread 2 (socket 1, the other membership vector) inserts keys that
/// thread 0 then replays into its own replica, so thread 0's home local
/// map names them; thread 0's later writes (three lag bounds' worth, over
/// two logs) pile up in socket 1's replica until it must replay them
/// there. Each one's warm key names a node of
/// thread 2's vector in that replica: started from it, an insert would be
/// linked into thread 2's upper-level list ("foreign mvec").
#[test]
fn a_warm_node_of_another_vector_starts_no_eager_replay() {
    // The lag bound of the 16-slot log.
    const LAG_BOUND: usize = 12;
    let map = replicated_four_slots(false);
    let mut h0 = map.register(ThreadCtx::plain(0));
    let mut h2 = map.register(ThreadCtx::plain(2));
    assert_ne!(h0.socket(), h2.socket());
    for k in (0..40).map(|i| 10 * i) {
        assert!(h2.insert(k, k));
        h0.sync();
    }
    for k in (0..3 * LAG_BOUND as u64).map(|i| 10 * i + 5) {
        assert!(h0.insert(k, k), "insert {k}");
    }
    h2.sync();
    for replica in map.replicas() {
        replica.shared().check_invariants().unwrap();
    }
}

/// A replay into the other socket's replica starts at the node that
/// replica's index holds for the replaying thread's home local predecessor
/// of each key. Here that predecessor is already gone from the lagging
/// replica when the help runs: removed (its node lazily invalidated, still
/// linked), and in the `recycle` arm also retired by a substituting insert,
/// flushed and its slot reused for a fresh key. The replay must fall back
/// or start from the dead node without changing any outcome.
fn a_warm_key_gone_from_the_lagging_replica(recycle: bool) {
    // The lag bound of the 16-slot log.
    const LAG_BOUND: usize = 12;
    // Commission off, so a search that meets a removed node retires it.
    let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
        GraphConfig::new(3)
            .lazy(true)
            .hash_index(true)
            .commission_cycles(0)
            .chunk_capacity(256),
        ReplicaConfig::uniform(2, 2).logs(1).log_capacity(16),
    );
    let stats = instrument::AccessStats::new(3);
    let mut h0 = map.register(ThreadCtx::plain(0));
    let mut h1 = map.register(ThreadCtx::recording(1, stats.clone()));
    assert_ne!(h0.socket(), h1.socket());
    let mut model: BTreeSet<u64> = (0..40).map(|i| 10 * i).collect();
    for &k in &model {
        assert!(h0.insert(k, k));
        // Thread 1 replays every insert into its own replica, which maps
        // each key in its home local map.
        h1.sync();
    }
    // The warm keys of 205 and 310 as thread 1 will see them: removed on
    // socket 0, still mapped in thread 1's home local map.
    for k in [200, 300] {
        assert!(h0.remove(&k));
        model.remove(&k);
    }
    if recycle {
        // Inserts just below them pass the dead nodes, retire them and
        // unlink them at level 0; the next inserts start at those lazily
        // linked nodes and so finish their towers (Alg. 10), unlinking the
        // dead nodes at every upper level. The flush frees their slots;
        // fresh inserts take the slots back.
        for k in [195, 196, 295, 296] {
            assert!(h0.insert(k, k));
            model.insert(k);
        }
        let flush = ThreadCtx::plain(2);
        let freed = map.replicas()[h0.socket()].shared().reclaim_flush(&flush);
        assert!(
            freed >= 2,
            "the removed nodes were not recycled: {freed} freed"
        );
        for k in 1000..1004 {
            assert!(h0.insert(k, k));
            model.insert(k);
        }
    }
    // Fewer than LAG_BOUND appends since the sync: nobody helped yet.
    // Thread 1's writes now pile up in socket 0's replica until the lag
    // bound makes thread 1 replay them there.
    let before = stats.thread(1);
    let writes: Vec<(u64, bool)> = [(205, true), (310, false)]
        .into_iter()
        .chain((0..LAG_BOUND as u64).map(|i| (2000 + 10 * i, true)))
        .collect();
    for &(k, insert) in &writes {
        if insert {
            assert!(h1.insert(k, k), "insert {k}");
            model.insert(k);
        } else {
            assert!(h1.remove(&k), "remove {k}");
            model.remove(&k);
        }
    }
    let replayed = stats.thread(1).replayed_ops - before.replayed_ops;
    assert!(
        replayed > writes.len() as u64,
        "thread 1 never replayed into socket 0's replica ({replayed} replays)"
    );
    h0.sync();
    h1.sync();
    let ctx = ThreadCtx::plain(2);
    for (r, replica) in map.replicas().iter().enumerate() {
        let keys: BTreeSet<u64> = replica
            .shared()
            .range(Unbounded, Unbounded, &ctx)
            .map(|(k, _)| *k)
            .collect();
        assert_eq!(keys, model, "replica {r} disagrees with the model");
        replica.shared().check_invariants().unwrap();
    }
    for k in 0..2200u64 {
        assert_eq!(h0.contains(&k), model.contains(&k), "key {k} via socket 0");
        assert_eq!(h1.contains(&k), model.contains(&k), "key {k} via socket 1");
    }
}

#[test]
fn a_removed_warm_key_changes_no_outcome() {
    a_warm_key_gone_from_the_lagging_replica(false);
}

#[test]
fn a_recycled_warm_key_changes_no_outcome() {
    a_warm_key_gone_from_the_lagging_replica(true);
}

/// Same-key bursts in one replay batch: socket 0 drains per-op as it
/// appends (its batches are singletons); socket 1 is only ever drained
/// in bulk — by the writer's back-pressure help at the 12-op lag bound
/// and by the final `sync` — so its batches hold several operations per
/// key, executed in log order inside one run, and it must agree with the
/// model key for key.
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
            .chunk_capacity(256),
        ReplicaConfig::uniform(THREADS as usize, 2).logs(2).log_capacity(16),
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
