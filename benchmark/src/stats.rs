//! Medians, quartiles and percentiles over small sample sets.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the spread of a
//! metric across runs is judged with: a spread computed here reads the
//! same as one computed from the printed values.

/// First quartile, median, third quartile and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Distance between the quartiles as a share of the median (0 when the
    /// median is 0 or there is a single sample).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
    v
}

/// Median of `values` (mean of the two middle samples for an even count).
/// Panics on an empty slice: every caller times at least one rep.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles of `values`. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    // statistics.quantiles, method="exclusive": cut point i of 4 sits at
    // position i*(n+1)/4 (1-based), interpolated between its neighbours
    // and clamped to the data.
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: median(&v),
        q3: cut(3),
        n,
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of already sorted samples,
/// with the number of samples strictly beyond the returned rank.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        let q = quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((q.q1, q.median, q.q3), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1, 2, 4]
        let q = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let q = quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert!((q.spread() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[5.0]).spread(), 0.0);
        assert_eq!(quartiles(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_the_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.99), (990.0, 10));
        assert_eq!(percentile_sorted(&v, 0.5), (500.0, 500));
        assert_eq!(percentile_sorted(&v, 1.0), (1000.0, 0));
        assert_eq!(percentile_sorted(&[3.0], 0.99), (3.0, 0));
    }
}
