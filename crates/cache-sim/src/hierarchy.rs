//! A three-level inclusive cache hierarchy.

use crate::cache::{Cache, CacheGeometry};
use std::sync::{Arc, Mutex};

/// Aggregated miss counters of a [`Hierarchy`] (or of several, summed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissCounts {
    /// Total accesses fed to the hierarchy.
    pub accesses: u64,
    /// L1 misses.
    pub l1: u64,
    /// L2 misses (accesses that missed both L1 and L2).
    pub l2: u64,
    /// L3 misses (went to memory).
    pub l3: u64,
}

impl MissCounts {
    /// Element-wise sum, used to aggregate per-thread hierarchies.
    pub fn merge(&self, other: &MissCounts) -> MissCounts {
        MissCounts {
            accesses: self.accesses + other.accesses,
            l1: self.l1 + other.l1,
            l2: self.l2 + other.l2,
            l3: self.l3 + other.l3,
        }
    }

    /// Misses per operation for a run of `ops` operations, as reported in
    /// the paper's Table 2.
    pub fn per_op(&self, ops: u64) -> (f64, f64, f64) {
        let d = ops.max(1) as f64;
        (self.l1 as f64 / d, self.l2 as f64 / d, self.l3 as f64 / d)
    }
}

/// The last-level cache: private to the simulated thread, or a slice of a
/// socket-shared cache (threads of one socket contend for the same sets,
/// as on real silicon).
#[derive(Debug, Clone)]
enum L3 {
    Private(Cache),
    Shared(Arc<Mutex<Cache>>),
}

/// A per-thread L1/L2 simulation over a private or socket-shared L3.
///
/// Lookup goes L1 → L2 → L3; a miss at a level fills that level (and the
/// levels above it, modeling an inclusive hierarchy).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    l3: L3,
    counts: MissCounts,
}

impl Hierarchy {
    /// Builds a hierarchy from explicit geometries (private L3).
    pub fn new(l1: CacheGeometry, l2: CacheGeometry, l3: CacheGeometry) -> Self {
        Self {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            l3: L3::Private(Cache::new(l3)),
            counts: MissCounts::default(),
        }
    }

    /// Builds a hierarchy whose L3 is a *shared* cache: pass the same
    /// `Arc` to every thread of one simulated socket and their traffic
    /// contends for the same sets, as on real silicon. (The shared cache
    /// is locked per access; use for instrumented runs, not timing.)
    pub fn with_shared_l3(l1: CacheGeometry, l2: CacheGeometry, l3: Arc<Mutex<Cache>>) -> Self {
        Self {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            l3: L3::Shared(l3),
            counts: MissCounts::default(),
        }
    }

    /// A socket-shared L3 shaped like the evaluation machine's 35.75 MiB
    /// cache (rounded to 32 MiB / 16-way for power-of-two sets).
    pub fn shared_l3_xeon() -> Arc<Mutex<Cache>> {
        Arc::new(Mutex::new(Cache::new(CacheGeometry {
            size_bytes: 32 << 20,
            associativity: 16,
            line_bytes: 64,
        })))
    }

    /// The per-thread L1/L2 geometries of the evaluation machine, for use
    /// with [`Hierarchy::with_shared_l3`].
    pub fn xeon_l1_l2() -> (CacheGeometry, CacheGeometry) {
        (
            CacheGeometry {
                size_bytes: 32 << 10,
                associativity: 8,
                line_bytes: 64,
            },
            CacheGeometry {
                size_bytes: 1 << 20,
                associativity: 16,
                line_bytes: 64,
            },
        )
    }

    /// The cache geometry of the paper's evaluation machine (Intel Xeon
    /// Platinum 8275CL): L1d 32 KiB/8-way, L2 1 MiB/16-way, and the 35.75 MiB
    /// shared L3 approximated per hardware thread as a 768 KiB/12-way slice
    /// (35.75 MiB / 48 threads per socket, rounded to a power-of-two set
    /// count). Modeling the L3 per thread ignores both constructive sharing
    /// and cross-thread eviction; the benches report this caveat.
    pub fn xeon_8275cl() -> Self {
        let line = 64;
        Self::new(
            CacheGeometry {
                size_bytes: 32 << 10,
                associativity: 8,
                line_bytes: line,
            },
            CacheGeometry {
                size_bytes: 1 << 20,
                associativity: 16,
                line_bytes: line,
            },
            CacheGeometry {
                size_bytes: 768 << 10,
                associativity: 12,
                line_bytes: line,
            },
        )
    }

    /// Simulates one access. `write` is accepted for interface completeness;
    /// with a write-allocate model reads and writes behave identically for
    /// miss counting.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) {
        let _ = write;
        self.counts.accesses += 1;
        if self.l1.access(addr) {
            return;
        }
        self.counts.l1 += 1;
        if self.l2.access(addr) {
            return;
        }
        self.counts.l2 += 1;
        let l3_hit = match &mut self.l3 {
            L3::Private(c) => c.access(addr),
            L3::Shared(c) => c.lock().expect("l3 lock").access(addr),
        };
        if !l3_hit {
            self.counts.l3 += 1;
        }
    }

    /// Counters so far.
    pub fn miss_counts(&self) -> MissCounts {
        self.counts
    }

    /// Resets contents and counters (including a shared L3, affecting all
    /// hierarchies holding it).
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        match &mut self.l3 {
            L3::Private(c) => c.reset(),
            L3::Shared(c) => c.lock().expect("l3 lock").reset(),
        }
        self.counts = MissCounts::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn cold_miss_fills_all_levels() {
        let mut h = Hierarchy::xeon_8275cl();
        h.access(0x4000, false);
        let m = h.miss_counts();
        assert_eq!((m.l1, m.l2, m.l3), (1, 1, 1));
        // Immediately after, the line is in L1.
        h.access(0x4000, false);
        assert_eq!(h.miss_counts().l1, 1);
    }

    #[test]
    fn l2_resident_working_set() {
        let mut h = Hierarchy::xeon_8275cl();
        // 128 KiB working set: too big for the 32 KiB L1, fits L2.
        let lines: Vec<u64> = (0..2048u64).map(|i| i * 64).collect();
        for &l in &lines {
            h.access(l, false);
        }
        let warm = h.miss_counts();
        for &l in &lines {
            h.access(l, false);
        }
        let after = h.miss_counts();
        assert!(after.l1 > warm.l1, "L1 keeps missing (capacity)");
        assert_eq!(after.l2, warm.l2, "L2 absorbs the whole working set");
    }

    #[test]
    fn miss_monotonicity_l1_ge_l2_ge_l3() {
        let mut h = Hierarchy::xeon_8275cl();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50_000 {
            h.access(rng.gen_range(0..64u64 << 20), rng.gen_bool(0.2));
        }
        let m = h.miss_counts();
        assert!(m.accesses >= m.l1);
        assert!(m.l1 >= m.l2);
        assert!(m.l2 >= m.l3);
    }

    #[test]
    fn merge_and_per_op() {
        let a = MissCounts {
            accesses: 10,
            l1: 4,
            l2: 2,
            l3: 1,
        };
        let b = MissCounts {
            accesses: 6,
            l1: 2,
            l2: 2,
            l3: 0,
        };
        let m = a.merge(&b);
        assert_eq!(m.accesses, 16);
        assert_eq!(m.l1, 6);
        let (l1, l2, l3) = m.per_op(4);
        assert_eq!((l1, l2, l3), (1.5, 1.0, 0.25));
    }

    #[test]
    fn shared_l3_is_visible_across_threads() {
        let l3 = Hierarchy::shared_l3_xeon();
        let (l1, l2) = Hierarchy::xeon_l1_l2();
        let mut a = Hierarchy::with_shared_l3(l1, l2, Arc::clone(&l3));
        let mut b = Hierarchy::with_shared_l3(l1, l2, l3);
        // Thread A pulls a line into the shared L3...
        a.access(0x123400, false);
        assert_eq!(a.miss_counts().l3, 1);
        // ...thread B misses its private L1/L2 but hits the shared L3.
        b.access(0x123400, false);
        let mb = b.miss_counts();
        assert_eq!(mb.l1, 1);
        assert_eq!(mb.l2, 1);
        assert_eq!(mb.l3, 0, "constructive sharing through the shared L3");
    }

    #[test]
    fn reset_clears() {
        let mut h = Hierarchy::xeon_8275cl();
        h.access(1, false);
        h.reset();
        assert_eq!(h.miss_counts(), MissCounts::default());
    }
}
