//! The experiment implementations, shared by the `benches/` targets (run
//! by `cargo bench` at the quick scale) and the `src/bin/` binaries
//! (command-line control for paper-scale runs).

use crate::{run_instrumented, scenario_workload, write_result, Scale};
use instrument::report::{self, locality_summary, LocalitySummary};
use instrument::AccessStats;
use skipgraph::{ConcurrentMap, GraphConfig, LayeredMap, MembershipStrategy};
use std::sync::Arc;
use synchro::registry::{
    chunk_capacity, run_named, summarize_named, with_named, Visit, FIGURE_STRUCTURES,
};
use synchro::{run_trials, InstrMode};

/// Figs. 2–4 (write-heavy) or Figs. 11–13 (read-heavy): the throughput
/// sweep over `scenarios` at every thread count of the scale.
pub fn throughput(scale: &Scale, scenarios: &[&str], structures: &[&str], out_file: &str) {
    let mut csv =
        String::from("scenario,structure,threads,ops_per_ms,stddev,effective_update_pct\n");
    for &scenario in scenarios {
        println!("# {scenario} throughput (total ops/ms)");
        println!("structure,threads,ops_per_ms,stddev,effective_update_pct");
        for &structure in structures {
            for &threads in &scale.threads {
                let w = scenario_workload(scenario, threads, scale);
                let s = summarize_named(structure, &w, scale.runs);
                let row = format!(
                    "{structure},{threads},{:.1},{:.1},{:.1}",
                    s.mean_ops_per_ms, s.stddev, s.mean_effective_update_pct
                );
                println!("{row}");
                csv.push_str(&format!("{scenario},{row}\n"));
            }
        }
        println!();
    }
    write_result(out_file, &csv);
}

/// Default structure list for the throughput figures.
pub fn default_structures() -> &'static [&'static str] {
    FIGURE_STRUCTURES
}

/// Fig. 5: average shared nodes traversed per search, MC-WH.
pub fn nodes_per_search(scale: &Scale) {
    const STRUCTURES: &[&str] = &[
        "layered_map_sg",
        "lazy_layered_sg",
        "layered_map_ssg",
        "skipgraph",
        "skiplist",
    ];
    let mut csv = String::from("structure,threads,nodes_per_search\n");
    println!("# Figure 5 — avg shared nodes per search, MC-WH");
    println!("structure,threads,nodes_per_search");
    for &structure in STRUCTURES {
        for &threads in &scale.threads {
            let (stats, _) = run_instrumented(structure, "mc-wh", threads, scale);
            let nps = report::nodes_per_search(&stats);
            let row = format!("{structure},{threads},{nps:.2}");
            println!("{row}");
            csv.push_str(&row);
            csv.push('\n');
        }
    }
    write_result("fig5_nodes_per_search.csv", &csv);
}

/// Figs. 6–9 (`kind = "cas"`) / Figs. 14–17 (`kind = "read"`): heatmaps on
/// MC-WH at the instrumentation thread count.
pub fn heatmaps(scale: &Scale, kind: &str) {
    const STRUCTURES: &[(&str, &str)] = &[
        ("lazy_layered_sg", "lazy map/SG"),
        ("layered_map_sg", "map/SG"),
        ("layered_map_ssg", "sparse map/SSG"),
        ("skiplist", "skip list"),
    ];
    assert!(kind == "cas" || kind == "read", "kind must be cas|read");
    let threads = scale.instr_threads;
    println!("# {kind} heatmaps, {threads} threads, MC-WH");
    for (structure, label) in STRUCTURES {
        let (stats, numa_of) = run_instrumented(structure, "mc-wh", threads, scale);
        let matrix = if kind == "cas" {
            stats.cas()
        } else {
            stats.reads()
        };
        write_result(&format!("heatmap_{kind}_{structure}.csv"), &matrix.to_csv());
        let nodes = numa_of.iter().copied().max().unwrap_or(0) + 1;
        let grouped = report::accesses_by_node_pair(matrix, &numa_of, nodes);
        let (local, remote) = matrix.split_by_locality(&numa_of);
        let total = (local + remote).max(1);
        println!(
            "{label}: {kind} locality {:.1}% (local {local}, remote {remote})",
            100.0 * local as f64 / total as f64
        );
        for (i, row) in grouped.iter().enumerate() {
            println!("  node {i} -> {row:?}");
        }
    }
}

/// Table 1 plus the derived Sec.-5 headline claims. Returns the rows for
/// programmatic checks.
pub fn table1(scale: &Scale) -> Vec<(&'static str, LocalitySummary)> {
    const STRUCTURES: &[(&str, &str)] = &[
        ("lazy_layered_sg", "lazy map/sg"),
        ("layered_map_sg", "map/sg"),
        ("layered_map_sl", "map/sgl"),
        ("skiplist", "skip list"),
    ];
    let threads = scale.instr_threads;
    println!("# Table 1 — {threads} threads, HC-WH (maintenance CAS only)");
    println!(
        "structure,local_reads_per_op,remote_reads_per_op,local_cas_per_op,remote_cas_per_op,cas_success_rate"
    );
    let mut csv = String::from(
        "structure,local_reads_per_op,remote_reads_per_op,local_cas_per_op,remote_cas_per_op,cas_success_rate\n",
    );
    let mut rows: Vec<(&'static str, LocalitySummary)> = Vec::new();
    for (structure, label) in STRUCTURES {
        let (stats, numa_of) = run_instrumented(structure, "hc-wh", threads, scale);
        let s = locality_summary(&stats, &numa_of);
        let row = format!(
            "{label},{:.3},{:.3},{:.4},{:.4},{:.3}",
            s.local_reads_per_op,
            s.remote_reads_per_op,
            s.local_cas_per_op,
            s.remote_cas_per_op,
            s.cas_success_rate
        );
        println!("{row}");
        csv.push_str(&row);
        csv.push('\n');
        rows.push((label, s));
    }
    write_result("table1_locality.csv", &csv);

    let lazy = &rows[0].1;
    let sl = &rows[3].1;
    if sl.remote_cas_per_op > 0.0 {
        println!(
            "\nremote maintenance CAS/op reduction (lazy map/sg vs skip list): {:.1}% (paper: ~70%)",
            100.0 * (1.0 - lazy.remote_cas_per_op / sl.remote_cas_per_op)
        );
    }
    println!(
        "CAS success rate: lazy map/sg {:.3} vs skip list {:.3} (paper: 0.990 vs 0.701)",
        lazy.cas_success_rate, sl.cas_success_rate
    );
    println!(
        "read locality: lazy map/sg {:.1}% vs skip list {:.1}%",
        100.0 * lazy.read_locality(),
        100.0 * sl.read_locality()
    );
    rows
}

/// Table 2: simulated cache misses per op, HC-WH. `hashed_sg` rides
/// along beyond the paper's four rows: its point reads resolve through
/// the O(1) shared index instead of a descent, so the simulated miss
/// profile isolates what the index saves in line touches per op.
pub fn table2(scale: &Scale) {
    const STRUCTURES: &[(&str, &str)] = &[
        ("lazy_layered_sg", "lazy_sg"),
        ("layered_map_sg", "map_sg"),
        ("layered_map_ssg", "map_ssg"),
        ("hashed_sg", "hashed_sg"),
        ("skiplist", "sl"),
    ];
    println!("# Table 2 — simulated data-cache misses per operation, HC-WH");
    println!("l3_model,threads,structure,l1_per_op,l2_per_op,l3_per_op");
    let mut csv = String::from("l3_model,threads,structure,l1_per_op,l2_per_op,l3_per_op\n");
    for shared_l3 in [false, true] {
        let model = if shared_l3 { "shared" } else { "private" };
        for &threads in &scale.cache_threads {
            for (structure, label) in STRUCTURES {
                let stats = AccessStats::new(threads);
                let w = scenario_workload("hc-wh", threads, scale);
                let mode = if shared_l3 {
                    InstrMode::shared_cache(Arc::clone(&stats), crate::classification(threads))
                } else {
                    InstrMode::StatsAndCache(Arc::clone(&stats))
                };
                let res = run_named(structure, &w, &mode);
                let (l1, l2, l3) = res.cache.per_op(res.total_ops);
                let row = format!("{model},{threads},{label},{l1:.2},{l2:.2},{l3:.2}");
                println!("{row}");
                csv.push_str(&row);
                csv.push('\n');
            }
        }
    }
    write_result("table2_cache.csv", &csv);
}

/// Commission-period sweep (future-work ablation).
pub fn commission_sweep(scale: &Scale) {
    const FACTORS: &[u64] = &[0, 50_000, 150_000, 350_000, 700_000, 1_400_000];
    let threads = *scale.threads.last().expect("thread list");
    println!("# Ablation — commission period sweep, lazy_layered_sg, {threads} threads");
    println!("scenario,commission_factor,ops_per_ms,stddev");
    let mut csv = String::from("scenario,commission_factor,ops_per_ms,stddev\n");
    for scenario in ["hc-wh", "lc-wh"] {
        for &factor in FACTORS {
            let w = scenario_workload(scenario, threads, scale);
            let cap = chunk_capacity(threads, w.key_space);
            let s = run_trials(
                || {
                    LayeredMap::<u64, u64>::new(
                        GraphConfig::new(threads)
                            .lazy(true)
                            .commission_cycles(factor * threads as u64)
                            .chunk_capacity(cap),
                    )
                },
                &w,
                scale.runs,
            );
            let row = format!(
                "{scenario},{factor},{:.1},{:.1}",
                s.mean_ops_per_ms, s.stddev
            );
            println!("{row}");
            csv.push_str(&row);
            csv.push('\n');
        }
    }
    write_result("ablation_commission.csv", &csv);
}

/// Relink and membership-strategy ablations.
pub fn relink_membership_ablation(scale: &Scale) {
    let threads = *scale.threads.last().expect("thread list");
    let mut csv = String::from("ablation,variant,scenario,ops_per_ms,stddev\n");

    println!("# Ablation — relink optimization (lock-free skip list), {threads} threads");
    println!("variant,scenario,ops_per_ms,stddev");
    for scenario in ["hc-wh", "mc-wh"] {
        for name in ["skiplist", "skiplist_norelink"] {
            let w = scenario_workload(scenario, threads, scale);
            let s = summarize_named(name, &w, scale.runs);
            let row = format!("{name},{scenario},{:.1},{:.1}", s.mean_ops_per_ms, s.stddev);
            println!("{row}");
            csv.push_str(&format!("relink,{row}\n"));
        }
    }

    println!("\n# Ablation — membership strategy (layered map/SG), {threads} threads");
    println!("variant,scenario,ops_per_ms,stddev");
    for scenario in ["hc-wh", "mc-wh"] {
        for (label, strategy) in [
            ("numa_aware", MembershipStrategy::NumaAware),
            ("thread_id_suffix", MembershipStrategy::ThreadIdSuffix),
            ("single_list", MembershipStrategy::Single),
        ] {
            let w = scenario_workload(scenario, threads, scale);
            let cap = chunk_capacity(threads, w.key_space);
            let s = run_trials(
                || {
                    LayeredMap::<u64, u64>::new(
                        GraphConfig::new(threads)
                            .membership(strategy)
                            .chunk_capacity(cap),
                    )
                },
                &w,
                scale.runs,
            );
            let row = format!(
                "{label},{scenario},{:.1},{:.1}",
                s.mean_ops_per_ms, s.stddev
            );
            println!("{row}");
            csv.push_str(&format!("membership,{row}\n"));
        }
    }
    write_result("ablation_relink_membership.csv", &csv);
}

/// Local-structure sizes: the sparse skip graph's local structures hold
/// only top-reaching nodes (paper Sec. 2: "sparse skip graphs also cause
/// the local structures to become more sparse").
pub fn local_structures() {
    use instrument::ThreadCtx;

    // Local sizes after identical insertions. 8 registered threads so
    // MaxLevel = 2 and the sparse variant indexes ~1/4 of the towers.
    println!("# Local-structure sizes after 4096 insertions per thread");
    println!("variant,local_entries");
    let mut csv = String::from("experiment,variant,value\n");
    for (label, sparse) in [("dense_sg", false), ("sparse_ssg", true)] {
        let map: LayeredMap<u64, u64> =
            LayeredMap::new(GraphConfig::new(8).sparse(sparse).chunk_capacity(1 << 13));
        let mut h = map.register(ThreadCtx::plain(0));
        for k in 0..4096u64 {
            let _ = h.insert(k, k);
        }
        let len = h.local_len();
        println!("{label},{len}");
        csv.push_str(&format!("local_size,{label},{len}\n"));
    }
    write_result("local_structures.csv", &csv);
}

/// Extension experiment — per-operation latency distribution (cycles) of
/// the MC write-heavy workload: where the lazy protocol's deferred work
/// (finishInsert, retirement, relink) would surface as tail effects.
pub fn latency(scale: &Scale) {
    const STRUCTURES: &[&str] = &["lazy_layered_sg", "layered_map_sg", "skiplist", "nohotspot"];
    let threads = *scale.threads.last().expect("thread list");
    println!("# Latency (cycles), MC-WH, {threads} threads");
    println!("structure,op,p50,p90,p99,p999,max,count");
    let mut csv = String::from("structure,op,p50,p90,p99,p999,max,count\n");
    for &structure in STRUCTURES {
        let w = scenario_workload("mc-wh", threads, scale);
        let s = with_named(structure, threads, w.key_space, Latency(&w));
        for (op, h) in [
            ("insert", &s.insert),
            ("remove", &s.remove),
            ("contains", &s.contains),
            ("overall", &s.overall()),
        ] {
            let row = format!(
                "{structure},{op},{},{},{},{},{},{}",
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.percentile(99.9),
                h.max(),
                h.count()
            );
            println!("{row}");
            csv.push_str(&row);
            csv.push('\n');
        }
    }
    write_result("latency.csv", &csv);
}

/// Runs one latency trial on the structure it is given.
struct Latency<'a>(&'a synchro::Workload);

impl Visit for Latency<'_> {
    type Out = synchro::LatencySummary;
    fn visit<M: ConcurrentMap<u64, u64>>(self, map: &M) -> synchro::LatencySummary {
        synchro::run_latency_trial(map, self.0)
    }
}

/// The paper's qualitative locality claim, quantified: "the larger the
/// distance between two NUMA nodes, the bigger the reduction in remote
/// accesses between threads pinned to those nodes." Models a 4-node
/// machine with ring-like distances, runs the lazy layered skip graph and
/// the skip list instrumented, and reports per-node-pair read traffic
/// (per op) plus the layered variant's reduction, grouped by distance.
pub fn distance_reduction(scale: &Scale) {
    use instrument::report::accesses_by_node_pair;
    #[rustfmt::skip]
    let distances = vec![
        10, 16, 21, 28,
        16, 10, 16, 21,
        21, 16, 10, 16,
        28, 21, 16, 10,
    ];
    let topo = numa::Topology::with_distances(4, 8, 2, distances.clone());
    let threads = 64; // 16 per modeled node
    let numa_of = numa::Placement::new(&topo, threads).numa_nodes();

    let mut per_structure = Vec::new();
    for structure in ["lazy_layered_sg", "skiplist"] {
        let stats = instrument::AccessStats::new(threads);
        let w = scenario_workload("mc-wh", threads, scale);
        let res = synchro::registry::run_named(
            structure,
            &w,
            &synchro::InstrMode::Stats(std::sync::Arc::clone(&stats)),
        );
        let grouped = accesses_by_node_pair(stats.reads(), &numa_of, 4);
        let ops = res.total_ops.max(1) as f64;
        per_structure.push((structure, grouped, ops));
    }

    println!("# Distance-proportional locality (reads/op by node pair, MC-WH, {threads} threads)");
    println!("node_pair,distance,layered_per_op,skiplist_per_op,reduction_pct");
    let mut csv = String::from("node_pair,distance,layered_per_op,skiplist_per_op,reduction_pct\n");
    let mut by_distance: Vec<(u32, f64)> = Vec::new();
    for i in 0..4usize {
        for j in (i + 1)..4usize {
            let d = distances[i * 4 + j];
            let layered =
                (per_structure[0].1[i][j] + per_structure[0].1[j][i]) as f64 / per_structure[0].2;
            let skiplist =
                (per_structure[1].1[i][j] + per_structure[1].1[j][i]) as f64 / per_structure[1].2;
            let reduction = if skiplist > 0.0 {
                100.0 * (1.0 - layered / skiplist)
            } else {
                0.0
            };
            let row = format!("{i}-{j},{d},{layered:.3},{skiplist:.3},{reduction:.1}");
            println!("{row}");
            csv.push_str(&row);
            csv.push('\n');
            if skiplist >= 1.0 {
                by_distance.push((d, reduction));
            }
        }
    }
    // The trend is only meaningful where the baseline actually produces
    // cross-pair traffic (on an oversubscribed single-CPU host, scheduling
    // order concentrates ownership on the first node, starving some
    // pairs); summarize over pairs with >= 1 baseline read/op.
    by_distance.sort_by_key(|(d, _)| *d);
    let meaningful: Vec<String> = by_distance
        .iter()
        .filter(|(_, r)| r.is_finite())
        .map(|(d, r)| format!("d{d}: {r:.0}%"))
        .collect();
    println!("\nreduction by ascending distance (pairs with >=1 baseline read/op): {meaningful:?}");
    write_result("distance_reduction.csv", &csv);
}

/// Extension experiment — skew sensitivity: throughput under Zipfian key
/// selection (α = 0 is the paper's uniform setting) on the MC write-heavy
/// scenario. Skew concentrates both contention and locality onto hot
/// keys, which is where the local hashtable fast path of the lazy layered
/// map pays off most.
pub fn zipf_throughput(scale: &Scale) {
    const STRUCTURES: &[&str] = &["lazy_layered_sg", "layered_map_sg", "skiplist", "nohotspot"];
    const ALPHAS: &[f64] = &[0.0, 0.5, 0.99, 1.2];
    let threads = *scale.threads.last().expect("thread list");
    println!("# Zipf skew sweep, MC-WH, {threads} threads (alpha 0 = uniform)");
    println!("structure,alpha,ops_per_ms,stddev");
    let mut csv = String::from("structure,alpha,ops_per_ms,stddev\n");
    for &structure in STRUCTURES {
        for &alpha in ALPHAS {
            let mut w = scenario_workload("mc-wh", threads, scale);
            if alpha > 0.0 {
                w = w.zipf(alpha);
            }
            let s = summarize_named(structure, &w, scale.runs);
            let row = format!(
                "{structure},{alpha},{:.1},{:.1}",
                s.mean_ops_per_ms, s.stddev
            );
            println!("{row}");
            csv.push_str(&row);
            csv.push('\n');
        }
    }
    write_result("zipf_throughput.csv", &csv);
}
