//! Trace-driven cache hierarchy simulator.
//!
//! The paper's Table 2 reports "average (instructions & data) cache misses
//! per operation" collected with PAPI hardware counters. Hardware counters
//! are not available in this reproduction environment, so the benchmarks
//! substitute this simulator: the concurrent structures feed every shared
//! node access (address + read/write) through a per-thread [`Hierarchy`]
//! whose geometry matches the evaluation machine's Xeon Platinum 8275CL
//! (L1d 32 KiB/8-way, L2 1 MiB/16-way, L3 35.75 MiB/11-way, 64-byte lines).
//!
//! The substitution preserves what the table demonstrates — the *relative*
//! data-locality behaviour of the structures (a skip list touches more
//! distinct cache lines per operation than the layered variants) — while the
//! absolute numbers are simulator-accurate rather than silicon-accurate.
//! Instruction misses and cross-core coherence traffic are not modeled;
//! the shared L3 is approximated per-thread (see [`Hierarchy::xeon_8275cl`]).
//!
//! # Example
//!
//! ```
//! use cache_sim::Hierarchy;
//!
//! let mut h = Hierarchy::xeon_8275cl();
//! h.access(0x1000, false);
//! h.access(0x1008, false); // same 64-byte line: pure hit
//! let m = h.miss_counts();
//! assert_eq!(m.accesses, 2);
//! assert_eq!(m.l1, 1);
//! ```

mod cache;
mod hierarchy;

pub use cache::{Cache, CacheGeometry};
pub use hierarchy::{Hierarchy, MissCounts};
