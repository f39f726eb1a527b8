//! Workload-adaptive control plane (`skipgraph::adapt`).
//!
//! Two layers previously owned a private, inconsistent version of
//! "decide from measurement": replication amplified every write into one
//! apply per socket no matter the mix, and the hash index grew segments on
//! a hardwired 75% trip-wire. This module centralizes the *decision
//! machinery* they now share:
//!
//! * **Sensors** are windowed counters fed inline from the hot paths
//!   (see [`instrument::CounterWindow`]): write ratio per epoch window in
//!   the replication layer, mean probe length per segment window in the
//!   hash index. Sensor words are plain relaxed `std` atomics — they are
//!   *statistics*, never synchronization, so they add no facade yield
//!   points and leave deterministic schedules untouched.
//! * **Controllers** are two-threshold hysteresis gates with a dwell
//!   guard ([`Hysteresis`]): a knob engages only after the engage
//!   threshold holds for `dwell + 1` consecutive windows and disengages
//!   symmetrically, so a workload oscillating near one threshold cannot
//!   flap the actuator.
//! * **Actuators** live in their layers and perform generation-safe
//!   transitions: `replicate.rs` drains the membership-partitioned logs
//!   before retiring replicas and publishes the switch through an epoch
//!   word every handle validates like a generation tag; `index.rs` grows
//!   segments from the occupancy/probe signal.
//!
//! [`AdaptConfig`] carries the window shape and the replication band —
//! the values callers set differently; the index thresholds nobody ever
//! tuned are constants of this module. The config is plain data
//! (`Copy + Eq`), so it rides inside [`crate::GraphConfig`] and
//! [`crate::ReplicaConfig`] without disturbing their builder idioms;
//! adaptation is opt-in per structure (`None` keeps the static seed
//! behavior bit-for-bit).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};

/// Hash-index segment growth occupancy threshold, in percent of the
/// table's slots ever claimed — with or without an [`AdaptConfig`].
pub(crate) const OCC_GROW_PCT: usize = 75;
/// Hash-index early-growth probe signal: a windowed mean probe
/// displacement at or above this many slots grows the segment even below
/// [`OCC_GROW_PCT`] (collision clustering from an adversarial key mix).
pub(crate) const PROBE_GROW: u32 = 4;

/// Window shape for every adaptive knob, plus the replication band. All
/// percentages are integer `0..=100`; all comparisons are inclusive.
///
/// ```
/// use skipgraph::AdaptConfig;
///
/// let cfg = AdaptConfig::new().window_ops(64).dwell_windows(1);
/// assert_eq!(cfg.window_ops, 64);
/// assert!(cfg.write_up_pct < cfg.write_down_pct);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptConfig {
    /// Operations per sensor window (default 1024). The window is closed
    /// by the operation that fills it; tiny windows make the det/stress
    /// lanes switch modes mid-schedule, `u32::MAX` never closes one, so
    /// the controller never fires.
    pub window_ops: u32,
    /// Extra consecutive confirming windows a controller demands before
    /// switching (default 2). `0` switches on the first qualifying
    /// window.
    pub dwell_windows: u32,
    /// Replication upshift threshold (default 40): a write ratio at or
    /// below this re-engages one-replica-per-socket reads.
    pub write_up_pct: u32,
    /// Replication downshift threshold (default 60): a write ratio at or
    /// above this drops to the single structure, ending per-socket write
    /// amplification.
    pub write_down_pct: u32,
}

impl AdaptConfig {
    /// The default thresholds (see each field).
    pub fn new() -> Self {
        Self {
            window_ops: 1024,
            dwell_windows: 2,
            write_up_pct: 40,
            write_down_pct: 60,
        }
    }

    /// Overrides the sensor window length.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn window_ops(mut self, ops: u32) -> Self {
        assert!(ops >= 1, "a sensor window needs at least one op");
        self.window_ops = ops;
        self
    }

    /// Overrides the dwell guard.
    pub fn dwell_windows(mut self, windows: u32) -> Self {
        self.dwell_windows = windows;
        self
    }

    /// Overrides both replication thresholds.
    ///
    /// # Panics
    ///
    /// Panics unless `up < down <= 100` (the hysteresis band must be
    /// open: equal thresholds flap on a boundary workload).
    pub fn write_band(mut self, up_pct: u32, down_pct: u32) -> Self {
        assert!(up_pct < down_pct && down_pct <= 100, "need up < down <= 100");
        self.write_up_pct = up_pct;
        self.write_down_pct = down_pct;
        self
    }
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A two-threshold hysteresis gate with a dwell guard — the one
/// controller shape every adaptive knob shares.
///
/// The gate *engages* after the signal sits at or above `high` for
/// `dwell + 1` consecutive observations, and *disengages* after it sits
/// at or below `low` for the same streak; anything in the open band
/// `(low, high)` (or a single off-streak observation) resets the streak.
/// What "engaged" actuates is the caller's business: single-structure
/// mode for replication (signal = write ratio).
///
/// Observations are relaxed-atomic so the gate can sit in shared state
/// and be driven by whichever thread closes a sensor window; windows are
/// closed by exactly one thread apiece (see
/// [`instrument::CounterWindow`]), so the read-modify-write races the
/// relaxed orderings permit can only delay a switch by a window, never
/// corrupt the decision.
#[derive(Debug)]
pub struct Hysteresis {
    low: u32,
    high: u32,
    dwell: u32,
    streak: AtomicU32,
    engaged: AtomicBool,
}

impl Hysteresis {
    /// A gate over the closed thresholds `low < high`, starting
    /// disengaged.
    ///
    /// # Panics
    ///
    /// Panics unless `low < high`.
    pub fn new(low: u32, high: u32, dwell: u32) -> Self {
        assert!(low < high, "hysteresis band must be open");
        Self {
            low,
            high,
            dwell,
            streak: AtomicU32::new(0),
            engaged: AtomicBool::new(false),
        }
    }

    /// Whether the gate is currently engaged.
    pub fn engaged(&self) -> bool {
        self.engaged.load(Relaxed)
    }

    /// Feeds one windowed observation; returns `Some(new_state)` exactly
    /// when this observation completes a switch.
    pub fn observe(&self, signal: u32) -> Option<bool> {
        let engaged = self.engaged.load(Relaxed);
        let qualifies = if engaged { signal <= self.low } else { signal >= self.high };
        if !qualifies {
            self.streak.store(0, Relaxed);
            return None;
        }
        let streak = self.streak.load(Relaxed) + 1;
        if streak <= self.dwell {
            self.streak.store(streak, Relaxed);
            return None;
        }
        self.streak.store(0, Relaxed);
        self.engaged.store(!engaged, Relaxed);
        Some(!engaged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_form_open_bands() {
        let c = AdaptConfig::new();
        assert!(c.write_up_pct < c.write_down_pct);
    }

    #[test]
    fn builder_chains() {
        let c = AdaptConfig::new()
            .window_ops(16)
            .dwell_windows(0)
            .write_band(30, 70);
        assert_eq!(c.window_ops, 16);
        assert_eq!(c.dwell_windows, 0);
        assert_eq!((c.write_up_pct, c.write_down_pct), (30, 70));
    }

    #[test]
    #[should_panic]
    fn closed_write_band_rejected() {
        let _ = AdaptConfig::new().write_band(50, 50);
    }

    #[test]
    fn dwell_guard_demands_consecutive_windows() {
        let h = Hysteresis::new(40, 60, 2);
        assert_eq!(h.observe(80), None);
        assert_eq!(h.observe(80), None);
        assert_eq!(h.observe(80), Some(true), "third consecutive window engages");
        assert!(h.engaged());
        // Disengage needs its own streak; a band observation resets it.
        assert_eq!(h.observe(30), None);
        assert_eq!(h.observe(50), None, "in-band resets the streak");
        assert_eq!(h.observe(30), None);
        assert_eq!(h.observe(30), None);
        assert_eq!(h.observe(30), Some(false));
        assert!(!h.engaged());
    }

    #[test]
    fn zero_dwell_switches_immediately() {
        let h = Hysteresis::new(40, 60, 0);
        assert_eq!(h.observe(60), Some(true), "inclusive threshold");
        assert_eq!(h.observe(90), None, "already engaged");
        assert_eq!(h.observe(41), None, "in-band holds the mode");
        assert_eq!(h.observe(40), Some(false));
    }

    #[test]
    fn interrupted_streak_restarts() {
        let h = Hysteresis::new(40, 60, 1);
        assert_eq!(h.observe(90), None);
        assert_eq!(h.observe(10), None, "off-streak observation resets");
        assert_eq!(h.observe(90), None);
        assert_eq!(h.observe(90), Some(true));
    }
}
