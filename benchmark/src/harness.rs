//! Readings about the harness and the host rather than the maps: they say
//! whether a run can be trusted and are never gated.

use crate::stats::spread_pct;
use std::hint::black_box;
use std::time::Instant;

const CHASE_SLOTS: usize = 1 << 16;
const CHASE_STEPS: usize = 1 << 21;

/// Nanoseconds per step of a fixed dependent-load chase over a 256 KiB
/// cycle: the same work every call, so a change between calls is the host
/// (frequency, a noisy neighbour), not the program.
pub fn calibrate() -> f64 {
    // A full-period LCG walk visits every slot once: one cycle.
    let mut next = vec![0u32; CHASE_SLOTS];
    let step = |i: usize| (i * 5 + 12_345) % CHASE_SLOTS;
    let mut order = 0;
    for _ in 0..CHASE_SLOTS {
        let to = step(order);
        next[order] = to as u32;
        order = to;
    }
    let begin = Instant::now();
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
    }
    black_box(at);
    begin.elapsed().as_nanos() as f64 / CHASE_STEPS as f64
}

/// Nanoseconds one `Instant` pair costs: the floor under every sampled
/// latency.
pub fn timer_ns() -> f64 {
    const PAIRS: u32 = 1 << 18;
    let begin = Instant::now();
    for _ in 0..PAIRS {
        black_box(Instant::now().elapsed());
    }
    begin.elapsed().as_nanos() as f64 / PAIRS as f64
}

#[derive(Default)]
pub struct Diagnostics {
    /// [`calibrate`] before the first repetition and after each.
    pub calib: Vec<f64>,
    pub rep_spread_pct: f64,
    pub pinned: bool,
}

impl Diagnostics {
    pub fn calib_drift_pct(&self) -> f64 {
        spread_pct(&self.calib)
    }

    pub fn print(&self) {
        eprintln!(
            "  harness: ops/s spread over repetitions {:.1} %, calibration kernel drift {:.1} %, workers pinned: {}, {} CPUs",
            self.rep_spread_pct,
            self.calib_drift_pct(),
            self.pinned,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
    }
}
