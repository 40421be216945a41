//! Order statistics for timing samples.

/// The percentile ladder a tail is read from, highest last, in millionths
/// (integers, so ranks are exact: `0.999 * 10_000` is not 9 990 in `f64`).
const TAIL_LADDER_PPM: [u64; 7] = [
    500_000, 900_000, 990_000, 999_000, 999_900, 999_990, 999_999,
];

/// Samples that must lie beyond a percentile for it to count as measured.
pub const TAIL_SUPPORT: u64 = 10;

/// Median of the samples; 0 for none. Averages the two middle values of an
/// even-sized sample.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest ladder percentile with at least [`TAIL_SUPPORT`] of `n`
/// samples strictly beyond its rank, or `None` when even the median is not
/// that well supported (fewer than 20 samples).
pub fn tail_percentile(n: u64) -> Option<f64> {
    TAIL_LADDER_PPM
        .iter()
        .rev()
        .copied()
        .find(|&ppm| n.saturating_sub(nearest_rank(n, ppm)) >= TAIL_SUPPORT)
        .map(|ppm| ppm as f64 / 10_000.0)
}

/// 1-based nearest rank of the `ppm`-millionths quantile in `n` sorted
/// samples.
fn nearest_rank(n: u64, ppm: u64) -> u64 {
    let rank = (u128::from(ppm) * u128::from(n)).div_ceil(1_000_000);
    (rank as u64).clamp(1, n.max(1))
}

/// Percentile `p` (in percent) of ascending samples by nearest rank; 0 for
/// none.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let ppm = (p * 10_000.0).round() as u64;
    sorted[nearest_rank(sorted.len() as u64, ppm) as usize - 1]
}

/// Self time of a span: its duration minus the time its child spans cover.
/// Children run one at a time inside the parent, so their durations add.
/// `None` when the children claim more than the parent lasted, which means
/// a span was attributed to the wrong parent.
pub fn self_time(parent_ns: u64, child_ns: impl IntoIterator<Item = u64>) -> Option<u64> {
    parent_ns.checked_sub(child_ns.into_iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 10 000 samples: p99.9 leaves exactly 10 beyond, p99.99 only 1.
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 99.9), 100);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_rejects_overclaims() {
        assert_eq!(self_time(1_000, [200, 300]), Some(500));
        assert_eq!(self_time(1_000, []), Some(1_000));
        assert_eq!(self_time(1_000, [1_000]), Some(0));
        assert_eq!(self_time(1_000, [600, 500]), None);
    }
}
