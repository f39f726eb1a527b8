//! NUMA-locality instrumentation demo: runs the paper's MC write-heavy
//! workload against the lazy layered skip graph and a lock-free skip list,
//! then prints the Table-1-style locality summary and a node-pair access
//! heatmap for both — the same machinery behind Figures 6–9/14–17.
//!
//! ```text
//! cargo run --release --example numa_heatmap
//! ```

use instrument::report::{accesses_by_node_pair, locality_summary, render_ascii_heatmap};
use instrument::AccessStats;
use numa::{Placement, Topology};
use std::sync::Arc;
use std::time::Duration;
use synchro::registry::run_named;
use synchro::{InstrMode, Workload};

const THREADS: usize = 8;

fn main() {
    let topology = Topology::detect_or_paper();
    println!("topology: {topology}");
    let placement = Placement::new(&topology, THREADS);
    let mut numa_of = placement.numa_nodes();
    if numa_of.iter().all(|&n| n == numa_of[0]) {
        // All threads fit one socket: classify against the modeled split
        // at T/2 (the boundary the membership vectors encode) so the
        // local/remote columns stay meaningful at small scale.
        numa_of = (0..THREADS).map(|t| usize::from(t >= THREADS / 2)).collect();
        println!("(single-socket placement; using modeled 2-node split)");
    }
    println!("thread -> NUMA node: {numa_of:?}");

    let workload = Workload::mc(THREADS)
        .write_heavy()
        .duration(Duration::from_millis(300));

    for structure in ["lazy_layered_sg", "skiplist"] {
        let stats = AccessStats::new(THREADS);
        let res = run_named(structure, &workload, &InstrMode::Stats(Arc::clone(&stats)));
        let summary = locality_summary(&stats, &numa_of);
        println!("\n== {structure} ==");
        println!(
            "throughput: {:.0} ops/ms ({:.1}% effective updates)",
            res.ops_per_ms(),
            res.effective_update_pct()
        );
        println!(
            "reads/op: {:.2} local + {:.2} remote (locality {:.1}%)",
            summary.local_reads_per_op,
            summary.remote_reads_per_op,
            100.0 * summary.read_locality()
        );
        println!(
            "maintenance CAS/op: {:.4} local + {:.4} remote, success rate {:.3}",
            summary.local_cas_per_op, summary.remote_cas_per_op, summary.cas_success_rate
        );
        println!("CAS heatmap ({THREADS}x{THREADS}, log-shaded):");
        print!("{}", render_ascii_heatmap(stats.cas(), 16));
        let nodes = numa_of.iter().copied().max().unwrap_or(0) + 1;
        println!("aggregated by NUMA-node pair:");
        for (i, row) in accesses_by_node_pair(stats.cas(), &numa_of, nodes)
            .iter()
            .enumerate()
        {
            println!("  from node {i}: {row:?}");
        }
    }
    println!(
        "\nThe layered structure should show markedly higher locality than \
         the skip list (paper: 70% fewer remote CAS/op at 96 threads)."
    );

    // Hash-index occupancy heatmap: load an indexed map and show how the
    // keys landed across the per-NUMA-segment slot arrays — the tuning
    // signal for `GraphConfig::index_capacity` (slots in use crowding the
    // 75% occupancy threshold mean an imminent grow or compaction; mass in
    // the histogram's upper buckets means long probe chains despite free
    // space).
    let map: skipgraph::LayeredMap<u64, u64> = skipgraph::LayeredMap::new(
        skipgraph::GraphConfig::new(THREADS).lazy(true).hash_index(true),
    );
    {
        let mut h = map.register(instrument::ThreadCtx::plain(0));
        for k in 0..40_000u64 {
            h.insert(k.wrapping_mul(0x9E37_79B9) >> 8, k);
        }
        for k in 0..10_000u64 {
            h.remove(&(k.wrapping_mul(0x9E37_79B9) >> 8));
        }
    }
    let mem = map.shared().memory_stats(&instrument::ThreadCtx::plain(0));
    println!(
        "\n== hash-index occupancy ({} segments, {} slots total) ==",
        mem.index_segments, mem.index_capacity
    );
    for (i, seg) in map.shared().index_occupancy().iter().enumerate() {
        let hist: Vec<u64> = seg.probe_histogram.to_vec();
        println!(
            "  segment {i}: {}/{} entries ({:.0}% load, {} tombstones), \
             mean probe {:.2}, histogram {:?}",
            seg.entries,
            seg.capacity,
            100.0 * seg.load_factor(),
            seg.tombstones,
            seg.mean_probe(),
            hist
        );
    }
}
