//! Order statistics over small sample sets.

/// Sort a copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Smallest sample. Panics on an empty set: every caller has at least
/// one rep.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("non-empty")
}

/// Median; the mean of the two middle samples when the count is even.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of an empty set");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of what is left after dropping the
/// lowest and the highest quarter of the samples (rounded down). As
/// deaf to a wild rep as the median, and steadier than it on the five
/// to thirty reps a run has.
pub fn midmean(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "midmean of an empty set");
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank percentile of integer samples: the sample at rank
/// `ceil(p/100 · n)`, 1-based — the same rule `fd_campaign::Stats` uses.
/// `None` on an empty set.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(samples[rank - 1])
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the "exclusive" method the acceptance driver uses).
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let m = v.len();
    assert!(m >= 2, "quartiles need two samples");
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 for fewer than two
/// samples, where no spread is defined).
pub fn spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimators_at_one_two_and_nine_samples() {
        // n = 1: every estimator is the sample.
        assert_eq!(min(&[7.0]), 7.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(percentile(&mut [7], 50.0), Some(7));
        assert_eq!(percentile(&mut [7], 99.0), Some(7));
        assert_eq!(spread(&[7.0]), 0.0);

        // n = 2: the median interpolates, p99 is the larger sample.
        assert_eq!(min(&[20.0, 10.0]), 10.0);
        assert_eq!(median(&[20.0, 10.0]), 15.0);
        assert_eq!(midmean(&[20.0, 10.0]), 15.0);
        assert_eq!(percentile(&mut [20, 10], 50.0), Some(10));
        assert_eq!(percentile(&mut [20, 10], 99.0), Some(20));

        // n = 9: the median is a real observation.
        let xs: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(min(&xs), 1.0);
        assert_eq!(median(&xs), 5.0);
        // Drops 1, 2 and 8, 9; a wild top sample changes nothing.
        assert_eq!(midmean(&xs), 5.0);
        assert_eq!(
            midmean(&[1.0, 2.0, 3.0, 4.0, 6.0, 6.0, 7.0, 8.0, 900.0]),
            5.2
        );
        let mut ys: Vec<u64> = (1..=9).rev().collect();
        assert_eq!(percentile(&mut ys, 50.0), Some(5));
        assert_eq!(percentile(&mut ys, 95.0), Some(9));
        assert_eq!(percentile(&mut ys, 10.0), Some(1));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
    }
}
