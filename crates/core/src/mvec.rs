//! Membership vectors and the partitioning scheme.
//!
//! Each thread `t` owns a membership vector `M_t` of `MaxLevel` bits. The
//! *suffixes* of `M_t` select the linked lists the thread operates in: at
//! level `i`, thread `t` works in the list labeled by the low `i` bits of
//! `M_t`, so all of its insertions land in one *associated skip list* of the
//! skip graph and at most `T / 2^i` threads share any level-`i` list.
//!
//! The paper generates the vectors from the machine's NUMA characteristics:
//! threads are renumbered so that id distance tracks physical distance
//! (see [`numa::Placement`]), and the vectors are chosen so that closer
//! thread ids share *longer suffixes* — i.e. more lists. We realize that by
//! bit-reversing the thread's scaled rank: adjacent ids share high rank
//! bits, which become shared low (suffix) bits after reversal. On the
//! paper's 2-socket machine this makes the two level-1 lists coincide
//! exactly with the two sockets.

/// How membership vectors are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MembershipStrategy {
    /// NUMA-aware: bit-reversed scaled rank of the (distance-renumbered)
    /// thread id. This is the scheme evaluated in the paper.
    #[default]
    NumaAware,
    /// The binary suffix of the raw thread id (the paper's "as simply as
    /// taking the binary suffix of each thread ID").
    ThreadIdSuffix,
    /// All threads share vector 0: the skip graph degenerates into a single
    /// skip list (the paper's `layered_map_sl` ablation).
    Single,
}

/// Default maximum level for a layered structure over `threads` threads:
/// `ceil(log2 T) - 1`, clamped to the supported tower height.
pub fn default_max_level(threads: usize) -> u8 {
    let t = threads.max(1);
    let ceil_log = (usize::BITS - (t - 1).leading_zeros()) as i32; // ceil(log2 t)
    (ceil_log - 1).clamp(0, crate::node::MAX_HEIGHT as i32 - 1) as u8
}

/// Reverses the low `bits` bits of `x`.
pub(crate) fn reverse_bits(x: u32, bits: u8) -> u32 {
    let mut out = 0;
    for i in 0..bits {
        if x & (1 << i) != 0 {
            out |= 1 << (bits - 1 - i);
        }
    }
    out
}

/// Generates one membership vector per thread (dense ids `0..threads`).
///
/// # Panics
///
/// Panics if `max_level >= 32` or `threads == 0`.
pub fn membership_vectors(strategy: MembershipStrategy, threads: usize, max_level: u8) -> Vec<u32> {
    assert!(threads > 0, "need at least one thread");
    assert!((max_level as u32) < 32, "membership vectors are 32-bit");
    let slots = 1u64 << max_level;
    (0..threads)
        .map(|t| match strategy {
            MembershipStrategy::NumaAware => {
                let rank = (t as u64 * slots / threads as u64) as u32;
                reverse_bits(rank, max_level)
            }
            MembershipStrategy::ThreadIdSuffix => (t as u32) & (slots as u32 - 1),
            MembershipStrategy::Single => 0,
        })
        .collect()
}

/// The label of the level-`level` list containing membership vector `mvec`
/// (its low `level` bits).
#[inline]
pub fn list_suffix(mvec: u32, level: u8) -> u32 {
    if level == 0 {
        0
    } else {
        mvec & ((1u32 << level) - 1)
    }
}

/// The number of levels (starting from 0) at which two membership vectors
/// share lists: one more than the length of their common suffix, capped at
/// `max_level`.
pub fn shared_levels(a: u32, b: u32, max_level: u8) -> u8 {
    let mut lvl = 0;
    while lvl < max_level && list_suffix(a, lvl + 1) == list_suffix(b, lvl + 1) {
        lvl += 1;
    }
    lvl + 1 // level 0 is always shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn default_max_level_matches_paper() {
        // MaxLevel = ceil(log2 T) - 1
        assert_eq!(default_max_level(96), 6);
        assert_eq!(default_max_level(2), 0);
        assert_eq!(default_max_level(3), 1);
        assert_eq!(default_max_level(4), 1);
        assert_eq!(default_max_level(8), 2);
        assert_eq!(default_max_level(9), 3);
        assert_eq!(default_max_level(1), 0);
        // Clamp at the supported tower height.
        assert_eq!(
            default_max_level(1 << 20),
            (crate::node::MAX_HEIGHT - 1) as u8
        );
    }

    #[test]
    fn reverse_bits_basics() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0, 6), 0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn numa_vectors_socket_split() {
        // 96 threads, MaxLevel 6: the level-1 lists ("0" and "1") must
        // coincide with the two sockets (threads 0..48 vs 48..96 under the
        // fill-socket-first renumbering).
        let v = membership_vectors(MembershipStrategy::NumaAware, 96, 6);
        for t in 0..48 {
            assert_eq!(list_suffix(v[t], 1), 0, "thread {t}");
        }
        for t in 48..96 {
            assert_eq!(list_suffix(v[t], 1), 1, "thread {t}");
        }
    }

    #[test]
    fn closer_ids_share_more_levels() {
        let v = membership_vectors(MembershipStrategy::NumaAware, 96, 6);
        // SMT sibling (id distance 1) shares at least as many levels as the
        // remote-socket thread (id distance 95).
        let near = shared_levels(v[0], v[1], 6);
        let far = shared_levels(v[0], v[95], 6);
        assert!(near >= far, "near={near} far={far}");
        assert_eq!(far, 1, "cross-socket threads share only level 0");
        assert!(near >= 5, "SMT siblings share almost all levels: {near}");
    }

    #[test]
    fn top_level_list_population_is_balanced() {
        let v = membership_vectors(MembershipStrategy::NumaAware, 96, 6);
        let mut counts = vec![0usize; 64];
        for &m in &v {
            counts[list_suffix(m, 6) as usize] += 1;
        }
        // At most ceil(T / 2^MaxLevel) = 2 threads per top-level list.
        assert!(counts.iter().all(|&c| c <= 2), "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 96);
    }

    #[test]
    fn thread_id_suffix_strategy() {
        let v = membership_vectors(MembershipStrategy::ThreadIdSuffix, 8, 2);
        assert_eq!(v, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn single_strategy_collapses() {
        let v = membership_vectors(MembershipStrategy::Single, 8, 3);
        assert!(v.iter().all(|&m| m == 0));
    }

    #[test]
    fn list_suffix_level_zero_is_lambda() {
        assert_eq!(list_suffix(0b111111, 0), 0);
    }

    proptest! {
        #[test]
        fn suffix_nesting(mvec in 0u32..64, l1 in 0u8..6, l2 in 0u8..6) {
            // Lists are nested: sharing at a level implies sharing below it.
            let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
            let other = mvec ^ (1 << 5); // differs in a high bit
            if list_suffix(mvec, hi) == list_suffix(other, hi) {
                prop_assert_eq!(list_suffix(mvec, lo), list_suffix(other, lo));
            }
        }

        #[test]
        fn vectors_fit_max_level(threads in 1usize..200, max_level in 0u8..8) {
            let v = membership_vectors(MembershipStrategy::NumaAware, threads, max_level);
            prop_assert_eq!(v.len(), threads);
            for &m in &v {
                prop_assert!(m < (1 << max_level) || max_level == 0 && m == 0);
            }
        }

        #[test]
        fn reverse_is_involution(x in 0u32..256, bits in 1u8..9) {
            let x = x & ((1 << bits) - 1);
            prop_assert_eq!(reverse_bits(reverse_bits(x, bits), bits), x);
        }
    }
}
