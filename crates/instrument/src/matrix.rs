//! Thread-pair access matrices.

use crossbeam_utils::CachePadded;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cells on one 128-byte line pair.
const CELLS_PER_LINE: usize = 128 / std::mem::size_of::<AtomicU64>();

/// An `n x n` matrix of counters where cell `(i, j)` is the number of
/// accesses performed by thread `i` on nodes allocated by thread `j`.
///
/// Each row's cells sit on 128-byte line pairs of their own and are
/// written only by the row's thread, so recording is contention-free
/// (relaxed increments on exclusively-owned cache lines).
#[derive(Debug)]
pub struct AccessMatrix {
    n: usize,
    /// Line pairs per row: `n` cells rounded up to whole line pairs.
    row_lines: usize,
    /// Row `i` is line pairs `[i * row_lines, (i + 1) * row_lines)`.
    lines: Vec<CachePadded<[AtomicU64; CELLS_PER_LINE]>>,
}

impl AccessMatrix {
    /// Creates an `n x n` zero matrix.
    pub fn new(n: usize) -> Self {
        let row_lines = n.div_ceil(CELLS_PER_LINE);
        Self {
            n,
            row_lines,
            lines: (0..n * row_lines)
                .map(|_| CachePadded::new(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }

    fn cell(&self, i: usize, j: usize) -> &AtomicU64 {
        &self.lines[i * self.row_lines + j / CELLS_PER_LINE][j % CELLS_PER_LINE]
    }

    /// Matrix dimension (number of threads).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Records one access by `current` on a node owned by `owner`.
    /// Out-of-range ids (e.g. the sentinel owner on a larger machine) are
    /// clamped into the last row/column rather than dropped.
    #[inline]
    pub fn record(&self, current: u16, owner: u16) {
        let i = (current as usize).min(self.n - 1);
        let j = (owner as usize).min(self.n - 1);
        self.cell(i, j).fetch_add(1, Ordering::Relaxed);
    }

    /// Reads cell `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.cell(i, j).load(Ordering::Relaxed)
    }

    /// Sum over a full row (all accesses performed by thread `i`).
    pub fn row_sum(&self, i: usize) -> u64 {
        (0..self.n).map(|j| self.get(i, j)).sum()
    }

    /// Sum of every cell.
    pub fn total(&self) -> u64 {
        (0..self.n).map(|i| self.row_sum(i)).sum()
    }

    /// Splits the total into (local, remote) given each thread's NUMA node.
    ///
    /// # Panics
    ///
    /// Panics if `numa_of.len() < dim()`.
    pub fn split_by_locality(&self, numa_of: &[usize]) -> (u64, u64) {
        assert!(numa_of.len() >= self.n, "assignment too short");
        let mut local = 0;
        let mut remote = 0;
        for i in 0..self.n {
            for j in 0..self.n {
                let v = self.get(i, j);
                if numa_of[i] == numa_of[j] {
                    local += v;
                } else {
                    remote += v;
                }
            }
        }
        (local, remote)
    }

    /// Dumps the matrix as dense CSV (one row per line).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for i in 0..self.n {
            for j in 0..self.n {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&self.get(i, j).to_string());
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read() {
        let m = AccessMatrix::new(4);
        m.record(1, 2);
        m.record(1, 2);
        m.record(3, 0);
        assert_eq!(m.get(1, 2), 2);
        assert_eq!(m.get(3, 0), 1);
        assert_eq!(m.get(0, 0), 0);
        assert_eq!(m.row_sum(1), 2);
        assert_eq!(m.total(), 3);
    }

    #[test]
    fn out_of_range_clamps() {
        let m = AccessMatrix::new(2);
        m.record(9, 9);
        assert_eq!(m.get(1, 1), 1);
    }

    #[test]
    fn locality_split() {
        let m = AccessMatrix::new(4);
        // threads 0,1 on node 0; threads 2,3 on node 1.
        let numa = vec![0, 0, 1, 1];
        m.record(0, 1); // local
        m.record(0, 2); // remote
        m.record(2, 3); // local
        m.record(3, 0); // remote
        m.record(3, 0); // remote
        assert_eq!(m.split_by_locality(&numa), (2, 3));
    }

    #[test]
    fn csv_shape() {
        let m = AccessMatrix::new(2);
        m.record(0, 1);
        let csv = m.to_csv();
        assert_eq!(csv, "0,1\n0,0\n");
    }

    #[test]
    fn no_two_rows_share_a_line() {
        for n in [1usize, 2, 3, 16, 17, 40] {
            let m = AccessMatrix::new(n);
            let lines_of_row = |i: usize| -> Vec<usize> {
                (0..n)
                    .map(|j| m.cell(i, j) as *const AtomicU64 as usize / 128)
                    .collect()
            };
            for i in 0..n {
                let mine = lines_of_row(i);
                for other in (0..n).filter(|&o| o != i) {
                    assert!(
                        lines_of_row(other).iter().all(|l| !mine.contains(l)),
                        "rows {i} and {other} of a {n}x{n} matrix share a line"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_rows_do_not_interfere() {
        let m = std::sync::Arc::new(AccessMatrix::new(8));
        let handles: Vec<_> = (0..8u16)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for k in 0..1000u16 {
                        m.record(t, k % 8);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.total(), 8000);
        for i in 0..8 {
            assert_eq!(m.row_sum(i), 1000);
        }
    }
}
