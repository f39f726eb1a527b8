//! Manual access-pattern instrumentation for the layered-skip-graph
//! reproduction.
//!
//! The paper's locality evaluation (Sec. 5, item 2) is *manual code
//! instrumentation*: every shared-node access function records "thread `i`
//! accessed a node allocated by thread `j`". This crate provides exactly
//! that machinery:
//!
//! * [`AccessStats`] — per-thread-pair read and maintenance-CAS matrices
//!   (the heatmaps of Figs. 6–9 and 14–17), plus per-thread scalar counters
//!   (operations, CAS attempts/failures, traversed nodes) for Table 1 and
//!   Fig. 5,
//! * [`ThreadCtx`] — the per-thread recording context passed to every
//!   operation of every structure. When constructed with
//!   [`ThreadCtx::plain`] all recording methods compile to a single
//!   predictable branch; heatmap/metric benches attach stats and optionally
//!   a per-thread [`cache_sim::Hierarchy`],
//! * [`report`] — locality summaries (local vs. remote classification given
//!   a thread → NUMA-node assignment) and CSV heatmap output,
//! * [`time::cycles`] — the cycle timestamps used by the lazy structure's
//!   commission period (the paper uses `350000 * T` cycles).
//!
//! Matching the paper, accesses performed by a thread on the node it is
//! currently inserting are *not* recorded ("otherwise locality would be
//! artificially inflated with no-contention operations that are inherently
//! local"); the data structures simply use non-recording accessors for the
//! in-flight node.

mod ctx;
mod histogram;
mod matrix;
pub mod report;
pub mod time;

pub use ctx::{AccessStats, ThreadCtx, ThreadCounterSnapshot};
pub use histogram::LogHistogram;
pub use matrix::AccessMatrix;
