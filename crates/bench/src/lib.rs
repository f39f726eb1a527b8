//! Shared plumbing for the reproduction benchmarks.
//!
//! Every table and figure of the paper has a dedicated bench target (see
//! `benches/`); `cargo bench --workspace` regenerates them all at the
//! `quick` scale, and the binaries in `src/bin/` run the same code with
//! command-line control for paper-scale sweeps.
//!
//! Scale selection: set `SCALE=paper` for the paper's parameters
//! (threads 2..96, 10 s trials, 5 runs — hours of wall time on a small
//! machine) or leave unset for `quick` (a few seconds per target; same
//! code, same rows, smaller numbers). Results are printed as CSV and also
//! written under `results/` (override with `RESULTS_DIR`).

pub mod figures;

use std::fs;
use std::path::PathBuf;
use std::time::Duration;
use synchro::Workload;

/// Scaling of a benchmark run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Thread counts swept by throughput figures.
    pub threads: Vec<usize>,
    /// Trial duration.
    pub duration: Duration,
    /// Runs averaged per point.
    pub runs: usize,
    /// Thread count used by the instrumentation experiments
    /// (heatmaps/Table 1; the paper uses 96).
    pub instr_threads: usize,
    /// Thread counts for the cache table (the paper reports 8/16/32).
    pub cache_threads: Vec<usize>,
}

impl Scale {
    /// The paper's parameters.
    pub fn paper() -> Self {
        Self {
            threads: vec![2, 4, 8, 16, 24, 32, 48, 64, 80, 96],
            duration: Duration::from_secs(10),
            runs: 5,
            instr_threads: 96,
            cache_threads: vec![8, 16, 32],
        }
    }

    /// A CI-sized run preserving the sweep shape.
    pub fn quick() -> Self {
        Self {
            threads: vec![2, 4, 8],
            duration: Duration::from_millis(80),
            runs: 2,
            instr_threads: 8,
            cache_threads: vec![2, 4],
        }
    }

    /// Reads `SCALE` from the environment (`paper` or `quick`, default
    /// `quick`).
    pub fn from_env() -> Self {
        match std::env::var("SCALE").as_deref() {
            Ok("paper") => Self::paper(),
            Ok("quick") | Err(_) => Self::quick(),
            Ok(other) => {
                eprintln!("unknown SCALE={other:?}, using quick");
                Self::quick()
            }
        }
    }
}

/// The six throughput scenarios of Figs. 2–4 and 11–13.
pub const SCENARIOS: &[&str] = &["hc-wh", "mc-wh", "lc-wh", "hc-rh", "mc-rh", "lc-rh"];

/// Builds the workload for a scenario name (`hc|mc|lc` x `wh|rh`).
///
/// # Panics
///
/// Panics on an unknown scenario.
pub fn scenario_workload(name: &str, threads: usize, scale: &Scale) -> Workload {
    let base = match &name[..2] {
        "hc" => Workload::hc(threads),
        "mc" => Workload::mc(threads),
        "lc" => Workload::lc(threads),
        _ => panic!("unknown scenario {name:?}"),
    };
    let w = match &name[3..] {
        "wh" => base.write_heavy(),
        "rh" => base.read_heavy(),
        _ => panic!("unknown scenario {name:?}"),
    };
    w.duration(scale.duration)
}

/// Directory results are written to: `RESULTS_DIR` if set, otherwise
/// `results/` at the workspace root (bench targets run with the package
/// directory as CWD, so a relative default would scatter files).
pub fn results_dir() -> PathBuf {
    let p = match std::env::var("RESULTS_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => {
            let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(|p| p.parent())
                .unwrap_or(&manifest)
                .join("results")
        }
    };
    let _ = fs::create_dir_all(&p);
    p
}

/// Writes `content` to `results/<name>` and reports the path on stderr.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    if let Err(e) = fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        eprintln!("wrote {}", path.display());
    }
}

/// Runs an instrumented MC-WH trial of `structure` at the scale's
/// instrumentation thread count and returns the stats sink plus the
/// thread → NUMA-node assignment used to classify locality (shared by the
/// heatmap and Table-1 targets).
pub fn run_instrumented(
    structure: &str,
    scenario: &str,
    threads: usize,
    scale: &Scale,
) -> (std::sync::Arc<instrument::AccessStats>, Vec<usize>) {
    let stats = instrument::AccessStats::new(threads);
    let w = scenario_workload(scenario, threads, scale);
    let _ = synchro::registry::run_named(
        structure,
        &w,
        &synchro::InstrMode::Stats(std::sync::Arc::clone(&stats)),
    );
    (stats, classification(threads))
}

/// Thread → NUMA-node assignment used to classify accesses as
/// local/remote. When the socket-fill-first placement keeps every thread
/// on one node (quick-scale runs below a socket's capacity), fall back to
/// the *modeled* split at T/2 — the boundary the NUMA-aware membership
/// vectors encode — so that the locality columns remain meaningful. The
/// paper-scale 96-thread run uses the real two-socket assignment.
pub fn classification(threads: usize) -> Vec<usize> {
    let topology = numa::Topology::detect_or_paper();
    let numa_of = numa::Placement::new(&topology, threads).numa_nodes();
    let spans_sockets = numa_of.iter().any(|&n| n != numa_of[0]);
    if spans_sockets {
        numa_of
    } else {
        (0..threads)
            .map(|t| usize::from(t >= threads / 2))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_sane_shapes() {
        let p = Scale::paper();
        assert_eq!(p.instr_threads, 96);
        assert_eq!(p.cache_threads, vec![8, 16, 32]);
        assert!(p.threads.contains(&96));
        let q = Scale::quick();
        assert!(q.duration < Duration::from_secs(1));
    }

    #[test]
    fn scenario_parsing() {
        let s = Scale::quick();
        let w = scenario_workload("hc-wh", 4, &s);
        assert_eq!(w.key_space, 1 << 8);
        assert!((w.update_ratio - 0.5).abs() < 1e-9);
        let w = scenario_workload("lc-rh", 2, &s);
        assert_eq!(w.key_space, 1 << 17);
        assert!((w.update_ratio - 0.2).abs() < 1e-9);
        assert!((w.preload_fraction - 0.025).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn bad_scenario_panics() {
        let _ = scenario_workload("xx-yy", 2, &Scale::quick());
    }
}
