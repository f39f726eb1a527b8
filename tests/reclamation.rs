//! Layered-map behaviour under epoch-based reclamation: thread-local
//! structures keep generation-tagged references to shared nodes, and once
//! a node is retired — and its slot possibly recycled under a different
//! key — every stale reference must fail its generation check and fall
//! back to a fresh search instead of trusting the impostor.
//!
//! The scenario uses two handles: handle 0 inserts (and therefore indexes
//! the nodes in *its* local structures), handle 1 removes. With two
//! threads the default tower height is 0, so handle 1's cleanup searches
//! fully unlink and retire every removed node even though the nodes carry
//! handle 0's membership vector — leaving handle 0 holding references to
//! retired (then recycled) slots.

use instrument::ThreadCtx;
use skipgraph::{GraphConfig, LayeredMap};

const N: u64 = 32;

#[test]
fn stale_local_structure_hints_fall_back_after_recycling() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2).chunk_capacity(1 << 10));
    let mut h0 = map.register(ThreadCtx::plain(0));
    let mut h1 = map.register(ThreadCtx::plain(1));

    // Handle 0 inserts and indexes the keys locally.
    for k in 0..N {
        assert!(h0.insert(k, k));
    }
    assert!(h0.local_len() > 0, "handle 0 indexed its insertions");

    // Handle 1 retires them all and ages the retirements past the grace
    // period. Handle 0's hash and ordered map still reference the retired
    // incarnations.
    for k in 0..N {
        assert!(h1.remove(&k));
    }
    assert_eq!(map.shared().reclaim_flush(h1.ctx()), N as usize);

    // Stale hashtable fast path: the generation check fails, the entry is
    // erased, and the lookup falls back to a head search.
    for k in 0..N / 2 {
        assert!(!h0.contains(&k), "key {k} was removed by handle 1");
        assert_eq!(h0.get(&k), None);
    }

    // Recycling preserves NUMA placement: the freed slots went back to
    // *handle 0's* arena (their allocation site), so handle 0's fresh
    // insertions pop them off the free list. The first insertion's
    // `get_start` also walks handle 0's ordered map, hitting the remaining
    // stale references (generation check fails → entry erased → the search
    // starts from the head instead of jumping in at a recycled slot).
    for k in 100..100 + N {
        assert!(h0.insert(k, k));
    }
    let stats = map.shared().memory_stats(h0.ctx());
    assert_eq!(stats.recycled_slots, N as usize, "slots were reused");

    // The recycled slots now hold different keys; the old keys are gone
    // and the new ones resolve through valid references.
    for k in 0..N {
        assert!(!h0.contains(&k));
        assert!(!h1.contains(&k));
    }
    for k in 100..100 + N {
        assert_eq!(h0.get(&k), Some(k));
        assert_eq!(h1.get(&k), Some(k));
    }

    // Re-inserting through the (now cleaned) fast path works, and the new
    // references validate.
    for k in 0..N {
        assert!(h0.insert(k, k + 1));
        assert_eq!(h0.get(&k), Some(k + 1));
    }
    assert!(map.shared().check_invariants().is_ok());
}

#[test]
fn churn_through_the_layered_handle_recycles_memory() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(GraphConfig::new(2).chunk_capacity(1 << 10));
    let mut h = map.register(ThreadCtx::plain(0));
    const WINDOW: u64 = 16;
    const TOTAL: u64 = 600;
    for i in 0..TOTAL {
        assert!(h.insert(i, i));
        if i >= WINDOW {
            assert!(h.remove(&(i - WINDOW)));
        }
    }
    // Handle operations quiesce periodically on their own (the pin-time
    // tick), so most retired slots are already back on the free lists; a
    // final flush empties the remaining limbo.
    let ctx = ThreadCtx::plain(0);
    map.shared().reclaim_flush(&ctx);
    let stats = map.shared().memory_stats(&ctx);
    assert_eq!(stats.live, WINDOW as usize);
    assert_eq!(stats.retired_nodes as u64, TOTAL - WINDOW);
    assert_eq!(stats.limbo_nodes, 0);
    assert!(
        stats.recycled_slots as u64 > (TOTAL - WINDOW) / 2,
        "churn should be served mostly from recycled slots (recycled {})",
        stats.recycled_slots
    );
    assert!(
        stats.allocated < 300,
        "footprint must plateau near the live set (allocated {})",
        stats.allocated
    );
    assert!(map.shared().check_invariants().is_ok());
}

/// A stats sampler and a churning thread at once: `memory_stats` walks the
/// bottom list under a pin of its own thread slot, so a slot the churn
/// retires and recycles while the sampler stands on it cannot hand the walk
/// a link into another incarnation. Every sample finishes, and no more
/// nodes are linked than were ever allocated.
#[test]
fn stats_sampled_during_churn_finish_and_stay_within_the_allocation() {
    let map: LayeredMap<u64, u64> = LayeredMap::new(
        GraphConfig::new(2)
            .lazy(true)
            .commission_cycles(0)
            .chunk_capacity(1 << 10),
    );
    let done = std::sync::atomic::AtomicBool::new(false);
    let samples = std::thread::scope(|s| {
        s.spawn(|| {
            let mut h = map.register(ThreadCtx::plain(0));
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..20_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x % 256;
                if x & (1 << 40) == 0 {
                    h.insert(k, k);
                } else {
                    h.remove(&k);
                }
            }
            done.store(true, std::sync::atomic::Ordering::Release);
        });
        let sampler = s.spawn(|| {
            let ctx = ThreadCtx::plain(1);
            let mut samples = 0;
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let m = map.shared().memory_stats(&ctx);
                assert!(m.physical() <= m.allocated, "sample {samples}: {m:?}");
                samples += 1;
            }
            samples
        });
        sampler.join().unwrap()
    });
    assert!(samples > 0);
    let m = map.shared().memory_stats(&ThreadCtx::plain(0));
    assert!(m.recycled_slots > 0, "the churn recycled slots: {m:?}");
}

/// Two threads insert the same keys and nothing is ever removed, so every
/// slot in use holds a live key. A thread whose level-0 link loses to the
/// other's and whose retry then finds the key must hand its never-published
/// node back (`discard_unpublished`); otherwise the slot is neither live nor
/// free. Round-robin schedules interleave the two inserts of each key.
#[cfg(all(feature = "deterministic", not(feature = "bug-injection")))]
#[test]
fn an_insert_that_loses_its_link_to_the_same_key_frees_its_node() {
    use skipgraph::det::{self, round_robin_family, DetConfig};
    const KEYS: u64 = 24;
    let mut discarded = 0;
    for lazy in [true, false] {
        for (seed, policy) in round_robin_family(2, 6) {
            let map: LayeredMap<u64, u64> =
                LayeredMap::new(GraphConfig::new(2).lazy(lazy).chunk_capacity(1 << 8));
            let workers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2u16)
                .map(|t| {
                    let map = &map;
                    Box::new(move || {
                        let mut h = map.register(ThreadCtx::plain(t));
                        for k in 0..KEYS {
                            h.insert(k, k);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            det::run_threads(&DetConfig::new(seed, policy.clone()), workers);
            let m = map.shared().memory_stats(&ThreadCtx::plain(0));
            assert_eq!(m.live, KEYS as usize);
            assert_eq!(
                m.allocated - m.free_slots,
                m.live,
                "lazy={lazy} seed={seed} {policy:?}: a lost insert kept its node"
            );
            discarded += m.free_slots + m.recycled_slots;
        }
    }
    assert!(discarded > 0, "no schedule made an insert lose its link");
}
