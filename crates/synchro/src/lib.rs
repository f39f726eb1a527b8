//! A Synchrobench-equivalent testing harness.
//!
//! The paper's experiments "follow exactly the testing procedure of
//! Synchrobench \[18\] with the flag `-f 1`": timed trials of uniformly
//! random operations, where the requested percentage of *update* operations
//! is matched as closely as possible and only *successful* inserts/removes
//! count as (effective) updates. This crate reimplements that procedure:
//!
//! * [`Workload`] — key space, requested update ratio, preload fraction,
//!   trial duration (the paper's scenarios are provided as constructors:
//!   [`Workload::hc`]/[`Workload::mc`]/[`Workload::lc`] × write-heavy 50% /
//!   read-heavy 20%),
//! * [`run_trial`] — spawns the threads (pinned socket-fill-first via
//!   [`numa::Placement`]), preloads, runs for the trial duration, and
//!   reports total operations per millisecond plus the effective-update
//!   percentage,
//! * [`run_trials`] — the paper's "average of 5 runs", each on a fresh
//!   structure,
//! * [`registry`] — every structure of the paper's evaluation by its
//!   figure-legend name (`layered_map_sg`, `lazy_layered_sg`, ...,
//!   `rotating`, `nohotspot`, `numask`), built from one table that trials,
//!   figures and stress runs share.

//! * [`stress`] — a history-recording stress runner that checks every
//!   per-key history for linearizability, with a deterministic-schedule
//!   mode (`--features deterministic`) that replays and shrinks failures
//!   to a minimal seed + operation trace.

mod latency;
pub mod registry;
pub mod stress;
mod workload;
mod zipf;

pub use latency::{run_latency_trial, LatencySummary};
pub use stress::{stress_named, FailureReport, OpRecord, PlannedOp, StressConfig};
pub use workload::{run_trial, run_trials, InstrMode, TrialResult, TrialSummary, Workload};
pub use zipf::Zipf;
