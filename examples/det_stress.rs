//! Demo of the deterministic-schedule stress harness.
//!
//! ```sh
//! cargo run --features deterministic --example det_stress
//! SCHEDULE_SEED=42 cargo run --features deterministic --example det_stress -- lazy_layered_sg
//! cargo run --features "deterministic bug-injection" --example det_stress
//! ```
//!
//! Runs a seeded workload twice under the cooperative scheduler, shows the
//! schedule trace, and proves the replay is byte-for-byte identical. With
//! `bug-injection` also enabled, shows the shrunk failure report instead.

#[cfg(not(feature = "deterministic"))]
fn main() {
    eprintln!("rebuild with: cargo run --features deterministic --example det_stress");
    std::process::exit(2);
}

#[cfg(feature = "deterministic")]
fn main() {
    use skipgraph::det::{DetConfig, Policy};
    use synchro::stress::{plan_workload, records_named_det, stress_named_det, StressConfig};

    let structure = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "lazy_layered_sg".into());
    let seed: u64 = std::env::var("SCHEDULE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C0);
    let cfg = StressConfig::contended(7);
    let det = DetConfig::new(
        seed,
        Policy::Pct {
            change_points: 12,
            expected_steps: 60_000,
        },
    );
    println!(
        "structure={structure} workload_seed={} schedule_seed={seed} ({} threads x {} ops)",
        cfg.seed, cfg.threads, cfg.ops_per_thread
    );

    match stress_named_det(&structure, &cfg, &det) {
        Ok(trace) => {
            println!("linearizable; schedule {}", trace.render());
            let plans = plan_workload(&cfg);
            let (r1, t1) = records_named_det(&structure, &cfg, &plans, &det);
            let (r2, t2) = records_named_det(&structure, &cfg, &plans, &det);
            assert_eq!(t1, t2);
            assert_eq!(r1, r2);
            println!(
                "replay: {} records, byte-for-byte identical across two runs",
                r1.len()
            );
            println!("first records: ");
            for r in r1.iter().take(5) {
                println!("  {r}");
            }
        }
        Err(report) => {
            println!("{report}");
            std::process::exit(1);
        }
    }
}
