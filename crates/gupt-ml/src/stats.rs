//! Non-private descriptive statistics.
//!
//! These are the §7.2 analyst queries (mean and median of a single
//! attribute) plus the helpers the other programs share. They are plain
//! statistics — privacy comes entirely from the GUPT runtime wrapping
//! them.

use std::cmp::Ordering;

/// Arithmetic mean. Returns 0.0 on empty input (the clamping layer in the
/// runtime makes the choice of sentinel irrelevant to privacy).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance `1/n · Σ (x − mean)²`.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Exact median (average of the two central order statistics for even
/// lengths). Returns 0.0 on empty input.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Exact `p`-th percentile with linear interpolation between order
/// statistics (the NIST/Excel "inclusive" convention). `p` is clamped to
/// `[0, 100]`. Returns 0.0 on empty input.
///
/// The order statistics are found by selection, not a full sort: the
/// lower one by `select_nth_unstable_by`, the upper one as the minimum
/// of the part to its right. Values are compared with `partial_cmp`,
/// under which `-0.0` and `0.0` tie: when both occur, the sign of a zero
/// result is unspecified and can differ from a sort's. On other inputs
/// without NaN the result equals a sort's bit for bit.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let by_value = |a: &f64, b: &f64| a.partial_cmp(b).unwrap_or(Ordering::Equal);
    let mut values: Vec<f64> = xs.to_vec();
    let p = p.clamp(0.0, 100.0) / 100.0;
    let rank = p * (values.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (_, &mut lower, above) = values.select_nth_unstable_by(lo, by_value);
    if lo == hi {
        lower
    } else {
        let upper = above
            .iter()
            .copied()
            .min_by(by_value)
            .expect("hi = lo + 1 < len leaves a value above lo");
        let frac = rank - lo as f64;
        lower * (1.0 - frac) + upper * frac
    }
}

/// Sample covariance between two equal-length series
/// (`1/n · Σ (x−x̄)(y−ȳ)`). Returns 0.0 when lengths differ or are zero.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.is_empty() || xs.len() != ys.len() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys)
        .map(|(x, y)| (x - mx) * (y - my))
        .sum::<f64>()
        / xs.len() as f64
}

/// Extracts column `j` of a row-major dataset.
pub fn column(rows: &[Vec<f64>], j: usize) -> Vec<f64> {
    rows.iter().map(|r| r[j]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[5.0]), 5.0);
    }

    #[test]
    fn variance_basic() {
        // Var([2,4,4,4,5,5,7,9]) = 4 (classic example).
        assert!((variance(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 4.0).abs() < 1e-12);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn std_dev_is_sqrt_variance() {
        let xs = [1.0, 3.0, 5.0, 7.0];
        assert!((std_dev(&xs) - variance(&xs).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
        assert_eq!(percentile(&xs, 50.0), 25.0);
        // 25th percentile: rank 0.75 → 10 + 0.75·10 = 17.5.
        assert!((percentile(&xs, 25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_rank() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -5.0), 1.0);
        assert_eq!(percentile(&xs, 200.0), 2.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&xs, 50.0), 30.0);
    }

    /// The sort-based percentile that selection replaced, kept as the
    /// reference the selection path must match.
    fn percentile_by_sort(xs: &[f64], p: f64) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        let p = p.clamp(0.0, 100.0) / 100.0;
        let rank = p * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    const REFERENCE_PS: [f64; 7] = [0.0, 0.1, 25.0, 50.0, 75.0, 99.9, 100.0];

    #[test]
    fn selection_matches_the_sort_bit_for_bit_under_heavy_ties() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x0D57);
        for len in 1..=300 {
            // Five distinct values (one of them +0.0) for every length:
            // most order statistics sit inside a run of ties.
            let xs: Vec<f64> = (0..len)
                .map(|_| [-3.5, 0.0, 1.0, 2.25, 1e9][rng.random_range(0..5usize)])
                .collect();
            for p in REFERENCE_PS {
                assert_eq!(
                    percentile(&xs, p).to_bits(),
                    percentile_by_sort(&xs, p).to_bits(),
                    "len {len}, p {p}"
                );
            }
        }
    }

    #[test]
    fn signed_zeros_compare_equal_to_the_sort() {
        // `partial_cmp` ties -0.0 with 0.0, so the sign of a zero result
        // can differ from the sort's (at this seed it does for 32 of the
        // 2,100 cases); the values still compare equal.
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x2E50);
        for len in 1..=300 {
            let xs: Vec<f64> = (0..len)
                .map(|_| [-0.0, 0.0, -1.0, 1.0][rng.random_range(0..4usize)])
                .collect();
            for p in REFERENCE_PS {
                assert_eq!(
                    percentile(&xs, p),
                    percentile_by_sort(&xs, p),
                    "len {len}, p {p}"
                );
            }
        }
    }

    #[test]
    fn covariance_basic() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0];
        // Cov = E[(x-2)(y-4)] = (1·2 + 0 + 1·2)/3 = 4/3.
        assert!((covariance(&xs, &ys) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(covariance(&xs, &ys[..2]), 0.0);
        assert_eq!(covariance(&[], &[]), 0.0);
    }

    #[test]
    fn covariance_of_independent_is_zero() {
        let xs = [1.0, -1.0, 1.0, -1.0];
        let ys = [1.0, 1.0, -1.0, -1.0];
        assert!(covariance(&xs, &ys).abs() < 1e-12);
    }

    #[test]
    fn column_extraction() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(column(&rows, 0), vec![1.0, 3.0]);
        assert_eq!(column(&rows, 1), vec![2.0, 4.0]);
    }
}
