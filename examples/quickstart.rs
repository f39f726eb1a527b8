//! Quickstart: build a layered skip-graph map, register threads, and run
//! concurrent operations.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use instrument::ThreadCtx;
use skipgraph::{GraphConfig, LayeredMap};

fn main() {
    const THREADS: usize = 4;

    // A lazy layered skip graph for 4 threads: MaxLevel = ceil(log2 4) - 1,
    // NUMA-aware membership vectors, commission period 350000 * T cycles.
    let config = GraphConfig::new(THREADS).lazy(true);
    println!("config: {config:?}");
    let map: LayeredMap<u64, String> = LayeredMap::new(config);

    // The cross-thread lookups below assert keys inserted by *other*
    // threads, so every thread must finish its insert stripe first.
    let inserted = std::sync::Barrier::new(THREADS);

    std::thread::scope(|s| {
        for t in 0..THREADS as u16 {
            let map = &map;
            let inserted = &inserted;
            s.spawn(move || {
                // Each thread registers once and gets a handle owning its
                // thread-local structures (ordered map + hash table).
                let mut handle = map.register(ThreadCtx::plain(t));
                println!("thread {t}: membership vector {:03b}", handle.membership());

                // Insert a stripe of keys.
                for i in 0..10u64 {
                    let key = i * THREADS as u64 + t as u64;
                    assert!(handle.insert(key, format!("value-{key}")));
                }
                inserted.wait();

                // Local speculative lookups hit the thread's own hashtable.
                assert!(handle.contains(&(t as u64)));

                // Cross-thread keys are found through the shared structure.
                let other = ((t as u64 + 1) % THREADS as u64) + THREADS as u64;
                assert!(handle.contains(&other));

                // Removals are logical (valid-bit) and can resurrect.
                assert!(handle.remove(&(t as u64)));
                assert!(!handle.contains(&(t as u64)));
                assert!(handle.insert(t as u64, "revived".into()));
                assert!(handle.contains(&(t as u64)));
            });
        }
    });

    // The bottom level of the shared structure is an ordered snapshot.
    let ctx = ThreadCtx::plain(0);
    let keys = map.shared().keys(&ctx);
    println!("final size: {}", keys.len());
    assert_eq!(keys.len(), 40);
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted");
    map.shared()
        .check_invariants()
        .expect("structural invariants");
    println!("first keys: {:?}...", &keys[..8]);
}
