//! Paper-scale throughput sweeps (Figs. 2–4, 11–13) with CLI control.
//!
//! ```text
//! throughput [--scenario hc-wh|mc-wh|lc-wh|hc-rh|mc-rh|lc-rh|all]
//!            [--threads 2,4,8,...] [--duration-ms N] [--runs N]
//!            [--structures name,name,...|all]
//! ```

use bench::{figures, Scale, SCENARIOS};
use std::time::Duration;

fn main() {
    let mut scale = Scale::from_env();
    let mut scenarios: Vec<String> = vec!["all".into()];
    let mut structures: Vec<String> = vec!["all".into()];
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            std::process::exit(2);
        });
        match flag.as_str() {
            "--scenario" => scenarios = value.split(',').map(str::to_string).collect(),
            "--threads" => {
                scale.threads = value
                    .split(',')
                    .map(|t| t.parse().expect("thread count"))
                    .collect()
            }
            "--duration-ms" => {
                scale.duration = Duration::from_millis(value.parse().expect("millis"))
            }
            "--runs" => scale.runs = value.parse().expect("runs"),
            "--structures" => structures = value.split(',').map(str::to_string).collect(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    let scenario_list: Vec<&str> = if scenarios.iter().any(|s| s == "all") {
        SCENARIOS.to_vec()
    } else {
        scenarios.iter().map(String::as_str).collect()
    };
    let structure_list: Vec<&str> = if structures.iter().any(|s| s == "all") {
        figures::default_structures().to_vec()
    } else {
        structures.iter().map(String::as_str).collect()
    };
    figures::throughput(
        &scale,
        &scenario_list,
        &structure_list,
        "throughput_cli.csv",
    );
}
