//! Order statistics over small samples.

/// First quartile, median and third quartile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Median of `values`: the mean of the two middle elements for an even
/// count. Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Quartiles by the "exclusive" method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here match
/// the ones the driver computes. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale; the interval is clamped to
        // the sample but the offset is not, so short samples extrapolate
        // exactly as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

/// Mean of the middle half of `values` (the interquartile mean): the
/// lowest and the highest quarter of the sorted sample, rounded down, are
/// left out.
pub fn midmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "midmean of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q.q3 - q.q1) / q.median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert!((q.q1 - 2.75).abs() < 1e-12);
        assert!((q.median - 5.5).abs() < 1e-12);
        assert!((q.q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert!((q.q1 - 0.75).abs() < 1e-12 && (q.q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn quartiles_agree_with_median() {
        for n in 1..12 {
            let v: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64).collect();
            assert!((quartiles(&v).median - median(&v)).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&[7.0]), 7.0);
        assert_eq!(midmean(&[1.0, 2.0, 3.0]), 2.0);
        // 8 samples: two dropped at each end, outliers included.
        let v = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0];
        assert_eq!(midmean(&v), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
    }

    #[test]
    fn spread_of_constant_is_zero() {
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }
}
