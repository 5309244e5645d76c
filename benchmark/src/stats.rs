//! Order statistics over raw samples. Everything here is exact: the
//! benchmark keeps every sample, so no histogram bucketing is involved.

/// Exact percentile by the nearest-rank rule: the smallest sample such that
/// at least `p` percent of the samples are ≤ it. `p` in (0, 100].
/// Returns 0 for an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the usual midpoint for even counts.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Mean of the middle samples: the lowest and the highest fifth (rounded
/// down) are set aside. As deaf to a stalled slice as the median, but it
/// moves by a third of a step, not a whole one, when one more slice of ten
/// lands in a slow spell of the machine, so identical runs agree better.
pub fn middle_mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 5;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Number of samples strictly beyond the nearest-rank `p`th percentile
/// position: the evidence behind a reported tail percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Per-slice rate (work ÷ seconds) for slices of equal work.
pub fn slice_rates(work: &[u64], wall_ns: &[u64]) -> Vec<f64> {
    work.iter()
        .zip(wall_ns)
        .map(|(&w, &ns)| {
            if ns == 0 {
                0.0
            } else {
                w as f64 / (ns as f64 * 1e-9)
            }
        })
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method) — the rule the acceptance check uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = (pos - j * 4) as f64 / 4.0;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_spread(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Order of the input does not matter; one sample is every percentile.
        assert_eq!(percentile(&[50.0, 15.0, 40.0, 20.0, 35.0], 90.0), 50.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn p90_of_one_to_hundred_leaves_ten_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(95, 90.0), 9);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn median_takes_the_midpoint_of_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn middle_mean_ignores_one_stalled_slice() {
        // Ten slices of 1000 commits; nine take 1 s, one stalls for 10 s.
        let work = [1000u64; 10];
        let mut wall = [1_000_000_000u64; 10];
        wall[3] = 10_000_000_000;
        let rates = slice_rates(&work, &wall);
        assert_eq!(rates[3], 100.0);
        assert_eq!(middle_mean(&rates), 1000.0);
    }

    #[test]
    fn middle_mean_averages_the_six_middle_of_ten() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(middle_mean(&s), (3 + 4 + 5 + 6 + 7 + 8) as f64 / 6.0);
        assert_eq!(middle_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(middle_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 5.5, 8.25));
        assert!((iqr_spread(&s) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 20.0, 40.0));
    }
}
