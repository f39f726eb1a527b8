//! Order statistics for latency samples, slices and repetitions.
//!
//! A statistic of nothing is NaN, never 0: a metric that lost its samples
//! must not read as a perfect lower-is-better value. The run counts a
//! non-finite metric as a failed check (`workload::usable`).

/// Quantile `q` (0..=1) of `values`, linearly interpolated between the two
/// nearest ranks; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let Some(last) = v.len().checked_sub(1) else {
        return f64::NAN;
    };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, part) = (at as usize, at.fract());
    v[lo] + (v[(lo + 1).min(last)] - v[lo]) * part
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `(max - min) / median` of `values`, in percent.
pub fn spread_pct(values: &[f64]) -> f64 {
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    (hi - lo) / median(values) * 100.0
}

/// Percentile `p` (0..=100) of ascending integer-nanosecond samples,
/// interpolated inside the 1 ns bin the rank falls in; NaN when empty.
///
/// `Instant` reads whole nanoseconds, so thousands of samples tie on the
/// value at the rank. Each tied sample stands for a latency somewhere in
/// `[v, v + 1)`; spreading the ties evenly over that bin (the usual
/// histogram interpolation) makes the percentile move smoothly with the
/// share of samples below it instead of jumping by whole nanoseconds.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (((p / 100.0) * sorted.len() as f64) as usize).min(sorted.len() - 1);
    let v = sorted[rank];
    let lo = sorted.partition_point(|&x| x < v);
    let hi = sorted.partition_point(|&x| x <= v);
    v as f64 + (rank - lo) as f64 / (hi - lo) as f64
}

/// Mean of the lowest 99 % of ascending samples (NaN when empty): a
/// preempted vCPU turns one sample into milliseconds, which would move a
/// plain mean of ~100 ns samples by tens of percent.
pub fn trimmed_mean(sorted: &[u32]) -> f64 {
    let keep = (sorted.len() * 99).div_ceil(100);
    sorted[..keep].iter().map(|&x| x as f64).sum::<f64>() / keep as f64
}

/// `num / den`; 0 when the denominator is 0 (a share of no events).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[10.0, 20.0, 30.0, 40.0, 50.0], 0.75), 40.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.75), 17.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
    }

    #[test]
    fn nothing_has_no_statistic() {
        assert!(median(&[]).is_nan());
        assert!(percentile(&[], 50.0).is_nan());
        assert!(trimmed_mean(&[]).is_nan());
        assert!(spread_pct(&[]).is_nan());
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[90.0, 100.0, 110.0]), 20.0);
    }

    #[test]
    fn percentile_interpolates_inside_ties() {
        // 100 samples: 40 x 10 ns, 40 x 20 ns, 20 x 30 ns.
        let mut s = vec![10u32; 40];
        s.extend(vec![20u32; 40]);
        s.extend(vec![30u32; 20]);
        // Rank 50 is the 11th of the 40 ties on 20 ns.
        assert_eq!(percentile(&s, 50.0), 20.25);
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert!(percentile(&s, 100.0) < 31.0 && percentile(&s, 100.0) >= 30.0);
        // Moves monotonically with the share of samples below the rank.
        assert!(percentile(&s, 45.0) < percentile(&s, 55.0));
    }

    #[test]
    fn trimmed_mean_drops_the_top_percent() {
        let mut s = vec![100u32; 99];
        s.push(4_000_000);
        assert_eq!(trimmed_mean(&s), 100.0);
        assert_eq!(trimmed_mean(&[7]), 7.0);
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
