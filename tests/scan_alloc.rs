//! A blocked-map scan allocates nothing, as an exact count.
//!
//! A binary of its own because it installs a counting global allocator:
//! the system allocator, counting the allocations of the thread that asks
//! for it. What a warm scan may still allocate is what its start teaches
//! the thread's local anchor map, so the scans are repeated until a pass
//! teaches it nothing; the pass after that is counted.
#![cfg(not(feature = "bug-injection"))]

use instrument::ThreadCtx;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use skipgraph::{BlockedSkipMap, GraphConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use synchro::Zipf;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: an exiting thread may allocate after its slot is gone.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments to the system allocator
// unchanged; counting touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.set(true);
    f();
    COUNTED.set(false);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Key `i`, scattered uniformly (odd multiplier: a bijection on `u64`).
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B1_85EB_CA87)
}

#[test]
fn a_warm_scan_allocates_nothing() {
    const KEYS: u64 = 1 << 14;
    const SCANS: u64 = 1_000;
    const SCAN_LEN: usize = 32;
    const MAX_PASSES: usize = 16;
    // `scan_short`'s geometry at a quarter of its keys: two slots taking
    // turns at the preload, blocks of eight, sparse lazy towers,
    // reclamation on, Zipf starts. The scans run in slot 0, which starts
    // out knowing only its own anchors.
    let map = BlockedSkipMap::new(
        GraphConfig::new(2)
            .max_level(7)
            .sparse(true)
            .lazy(true)
            .reclaim(true)
            .chunk_capacity(1 << 12),
        8,
    );
    let mut loaders = [0, 1].map(|t| map.register(ThreadCtx::plain(t)));
    for i in 0..KEYS {
        assert!(loaders[i as usize % 2].insert(key(i), i));
    }
    drop(loaders);
    let ctx = ThreadCtx::plain(0);
    let zipf = Zipf::new(KEYS, 0.99);
    // The same starts every pass, so the passes converge.
    let pass = || {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..SCANS {
            let i = zipf.sample(&mut rng);
            let mut scan = map.range(Bound::Included(&key(i)), Bound::Unbounded, &ctx);
            assert_eq!(scan.next(), Some((key(i), i)));
            scan.take(SCAN_LEN - 1).for_each(drop);
        }
    };
    let mut learned = map.stats(&ctx).local_entries;
    let mut passes = 0;
    loop {
        pass();
        passes += 1;
        let now = map.stats(&ctx).local_entries;
        if now == learned {
            break;
        }
        assert!(
            passes < MAX_PASSES,
            "local map still growing after {passes} passes"
        );
        learned = now;
    }
    let allocations = allocations_in(pass);
    println!(
        "scans: {allocations} allocations over {SCANS} scans of {SCAN_LEN} keys \
         (1000 at 4e37704: a Vec per scan), after {passes} passes to {learned} local entries"
    );
    assert_eq!(allocations, 0, "{SCANS} warm scans allocated");
}
