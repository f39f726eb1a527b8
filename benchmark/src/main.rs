//! The repository's end-to-end benchmark. See `README.md` in this package
//! and `/BENCHMARK.json`.
//!
//! ```text
//! benchmark --workload <name|all> [--seed N] [--seconds 20] [--trace [0|1]]
//!           [--smoke] [--out-dir DIR]
//! benchmark --selfcheck [--smoke]
//! ```
//!
//! The last line of standard output of a `--workload` run is one JSON
//! object `{correct, attempted, failed, metrics}`; everything else goes to
//! standard error.

mod harness;
mod metrics;
mod rep;
mod replay;
mod stats;
mod stream;
mod target;
mod trace;
mod workload;

use metrics::{parse_result, result_json, END_TO_END, RUN_SECONDS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{run_end_to_end, Scale, Workload, WORKLOADS};

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    out_dir: PathBuf,
}

fn usage(problem: &str) -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "{problem}\nusage: benchmark --workload <{}|all> [--seed N] [--seconds {RUN_SECONDS}] \
         [--trace [0|1]] [--smoke] [--out-dir DIR]\n       benchmark --selfcheck [--smoke]",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        trace: false,
        smoke: false,
        selfcheck: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads = match name.as_str() {
                    "all" => WORKLOADS.iter().collect(),
                    one => vec![workload::find(one)
                        .ok_or_else(|| usage(&format!("unknown workload {one}")))?],
                };
            }
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| usage(&format!("bad seed {v}")))?;
            }
            // The work of a run is fixed (`Workload::measured_ops`), so its
            // length is not a knob: numbers from runs of different lengths
            // would not compare. `--smoke` is the quick run.
            "--seconds" => {
                let v = value("a number")?;
                if v.parse() != Ok(RUN_SECONDS) {
                    return Err(usage(&format!(
                        "a run executes fixed work sized for --seconds {RUN_SECONDS}, not {v}"
                    )));
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            // `--trace` alone means 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(usage(&format!("unknown argument {other}"))),
        }
    }
    if args.selfcheck != args.workloads.is_empty() {
        return Err(usage("give exactly one of --workload and --selfcheck"));
    }
    Ok(args)
}

fn scale_of(w: &Workload, args: &Args) -> Scale {
    if args.smoke {
        w.smoke_scale()
    } else {
        w.scale()
    }
}

fn print_metrics(metrics: &[(&str, f64)]) {
    for (name, value) in metrics {
        eprintln!("  {name:<32} {value:>16.3} {}", metrics::unit_of(name));
    }
}

/// One end-to-end run in a process of its own, as the driver makes them (a
/// second run inside this process would start on a warm heap and read a
/// lower `setup_s`): `attempted`, `failed` and every end-to-end metric.
fn child_run(w: &Workload, args: &Args) -> Option<(u64, u64, Vec<f64>)> {
    let mut child = Command::new(std::env::current_exe().ok()?);
    child.args(["--workload", w.name, "--seed", &args.seed.to_string()]);
    if args.smoke {
        child.arg("--smoke");
    }
    let stdout = child.stderr(Stdio::inherit()).output().ok()?.stdout;
    let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    parse_result(String::from_utf8(stdout).ok()?.lines().last()?, &names)
}

/// Runs every workload twice back to back and compares the two runs'
/// metrics against the bounds: the benchmark's own noise floor.
fn selfcheck(args: &Args) -> bool {
    let mut ok = true;
    println!("| workload | metric | first | second | difference | bound |");
    println!("|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        let (Some(first), Some(second)) = (child_run(w, args), child_run(w, args)) else {
            println!("| {} | a run printed no result | | | | |", w.name);
            ok = false;
            continue;
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (first.2[i], second.2[i]);
            let diff = (b - a).abs() / a;
            let within = diff <= m.bound;
            ok &= within;
            println!(
                "| {} | {} | {a:.4} | {b:.4} | {:.2} %{} | {:.0} % |",
                w.name,
                m.name,
                diff * 100.0,
                if within { "" } else { " **over**" },
                m.bound * 100.0
            );
        }
        let (attempted, failed) = (first.0 + second.0, first.1 + second.1);
        println!(
            "| {} | failed_ops | {failed} of {attempted} | | | 0 |",
            w.name
        );
        ok &= failed == 0;
    }
    ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < stream::THREADS {
        eprintln!(
            "the benchmark pins {} workers to their own CPUs; this host offers {cpus}",
            stream::THREADS
        );
        return ExitCode::from(2);
    }
    if args.selfcheck {
        return if selfcheck(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut correct = true;
    for w in &args.workloads {
        let scale = scale_of(w, &args);
        let outcome = if args.trace {
            trace::run_traced(w, &scale, args.seed, &args.out_dir)
        } else {
            run_end_to_end(w, &scale, args.seed)
        };
        print_metrics(&outcome.metrics);
        eprintln!(
            "  attempted {} operations and checks, {} failed",
            outcome.attempted, outcome.failed
        );
        println!(
            "{}",
            result_json(outcome.attempted, outcome.failed, &outcome.metrics)
        );
        correct &= outcome.failed == 0;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = args("--workload scan_short --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workloads[0].name, "scan_short");
        assert_eq!((a.seed, a.trace), (42, true));
        assert!(!args("--workload scan_short --trace 0").unwrap().trace);
        assert!(args("--workload scan_short --trace").unwrap().trace);
        assert_eq!(
            args("--workload all").unwrap().workloads.len(),
            WORKLOADS.len()
        );
        assert!(args("--selfcheck --smoke").unwrap().selfcheck);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for line in [
            "",
            "--workload nope",
            "--workload",
            "--workload all --selfcheck",
            "--workload all --seconds 0",
            "--workload all --seconds 19",
            "--workload all --seconds x",
            "--workload all --seed x",
            "--frobnicate",
        ] {
            assert!(args(line).is_err(), "{line:?} was accepted");
        }
    }

    /// The `--smoke` size through every workload, end to end and traced:
    /// every metric is emitted, nothing fails, the span files are written.
    #[test]
    fn smoke_runs_all_workloads_and_the_trace_ladder() {
        let out_dir = std::env::temp_dir().join(format!("benchmark-smoke-{}", std::process::id()));
        for w in &WORKLOADS {
            let scale = w.smoke_scale();
            let e2e = run_end_to_end(w, &scale, 1);
            assert_eq!(e2e.failed, 0, "{}", w.name);
            assert_eq!(e2e.metrics.len(), END_TO_END.len());
            for (i, (name, value)) in e2e.metrics.iter().enumerate() {
                assert_eq!(*name, END_TO_END[i].name);
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{} {name} = {value}",
                    w.name
                );
            }
            let traced = trace::run_traced(w, &scale, 1, &out_dir);
            assert_eq!(traced.failed, 0, "{} traced", w.name);
            assert_eq!(traced.metrics.len(), metrics::PER_LAYER.len());
            assert!(traced.metrics.iter().all(|(_, v)| v.is_finite()));
            let spans = std::fs::read_to_string(out_dir.join(format!("trace_{}.json", w.name)))
                .expect("span file");
            assert!(spans.contains("\"self_ns\"") && spans.contains("/timed"));
        }
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}
