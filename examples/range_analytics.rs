//! Mixed OLTP/analytics scenario: transactional threads update an ordered
//! index through registered handles while an analytics thread — *not* part
//! of the registered set — runs ordered range scans through the bare
//! graph's handle, which keeps no local structure (the paper's
//! heterogeneous-workload accommodation). The reader still needs a thread
//! slot of its own (one live user per slot): the map has `WRITERS + 1`.
//!
//! ```text
//! cargo run --release --example range_analytics
//! ```

use instrument::ThreadCtx;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const WRITERS: usize = 3;
/// The analytics reader's thread slot, past the writers'.
const READER: u16 = WRITERS as u16;
const RUN_FOR: Duration = Duration::from_millis(400);
/// Account balances keyed by account id; each writer owns an id stripe.
const ACCOUNTS_PER_WRITER: u64 = 2000;

fn main() {
    // The shared hash index doubles as the scans' positioning structure:
    // a stripe scan probes its first key in the index and, on a validated
    // hit, starts walking at that node with no tower descent at all.
    let map: LayeredMap<u64, u64> =
        LayeredMap::new(GraphConfig::new(WRITERS + 1).lazy(true).hash_index(true));
    // Seed the dataset.
    {
        let mut h = map.register(ThreadCtx::plain(0));
        for a in 0..WRITERS as u64 * ACCOUNTS_PER_WRITER {
            assert!(h.insert(a, 100));
        }
    }
    let stop = AtomicBool::new(false);
    let churn = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    // Attributes the analytics reader's positioning probes (one per
    // stripe scan, on slot `READER`) so the summary can report
    // index-accelerated starts.
    let reader_stats = instrument::AccessStats::new(WRITERS + 1);

    std::thread::scope(|s| {
        // Transactional writers: close and reopen accounts in their stripe.
        for w in 0..WRITERS as u16 {
            let map = &map;
            let stop = &stop;
            let churn = &churn;
            s.spawn(move || {
                let mut h = map.register(ThreadCtx::plain(w));
                let base = w as u64 * ACCOUNTS_PER_WRITER;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let account = base + (i * 7) % ACCOUNTS_PER_WRITER;
                    if h.remove(&account) {
                        // Reopen with an updated balance.
                        h.insert(account, 100 + i % 50);
                        churn.fetch_add(1, Ordering::Relaxed);
                    }
                    i += 1;
                }
            });
        }
        // Analytics reader: unregistered thread, the bare graph's handle
        // on the slot no writer holds, stripe sums via range scans.
        s.spawn(|| {
            let mut view = map
                .shared()
                .pin(ThreadCtx::recording(READER, reader_stats.clone()));
            while !stop.load(Ordering::Relaxed) {
                for w in 0..WRITERS as u64 {
                    let lo = w * ACCOUNTS_PER_WRITER;
                    let hi = lo + ACCOUNTS_PER_WRITER;
                    let (count, sum) = view
                        .range(Bound::Included(&lo), Bound::Excluded(hi))
                        .fold((0u64, 0u64), |(c, s), (_, v)| (c + 1, s + v));
                    // Accounts are only ever *replaced* (remove+insert), so
                    // a scan sees nearly the whole stripe; balances are in
                    // the configured band.
                    assert!(count <= ACCOUNTS_PER_WRITER);
                    assert!(count > ACCOUNTS_PER_WRITER / 2, "stripe {w}: {count}");
                    assert!(sum >= 100 * count);
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        let t0 = Instant::now();
        while t0.elapsed() < RUN_FOR {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let ctx = ThreadCtx::plain(0);
    let stats = map.shared().memory_stats(&ctx);
    println!(
        "churned {} accounts, ran {} stripe scans",
        churn.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed)
    );
    // Each stripe scan probes exactly one key (its lower bound). A hit
    // means the scan started walking at that node without a descent; the
    // stripe base is only briefly absent mid-replacement, so most scans
    // should start accelerated.
    let reads = reader_stats.totals();
    println!(
        "range positioning: {} probes answered by the index, {} descended",
        reads.index_hits,
        reads.index_misses + reads.index_stale
    );
    assert!(
        reads.index_hits > 0,
        "no stripe scan ever started from the shared index"
    );
    println!(
        "final structure: {} live, {} invalid (commission pending), {} marked, \
         {:.1}% dead weight, {} nodes allocated",
        stats.live,
        stats.invalid,
        stats.marked,
        100.0 * (stats.invalid + stats.marked) as f64 / stats.physical().max(1) as f64,
        stats.allocated
    );
    assert_eq!(stats.live as u64, WRITERS as u64 * ACCOUNTS_PER_WRITER);
    map.shared().check_invariants().expect("invariants");
}
