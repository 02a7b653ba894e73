//! Empirical CDFs and survival curves.
//!
//! Figure 5 plots "the fraction of pages that were unchanged by the given
//! day" — a survival curve over days. [`SurvivalCurve`] holds such a series
//! sampled at day granularity; [`Ecdf`] is the general empirical CDF used by
//! the Kolmogorov–Smirnov test in [`crate::gof`].

/// An empirical cumulative distribution function over a finite sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (need not be sorted; NaNs rejected).
    pub fn new(mut sample: Vec<f64>) -> Ecdf {
        assert!(sample.iter().all(|x| !x.is_nan()), "ECDF sample must not contain NaN");
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Ecdf { sorted: sample }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)` = fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Sorted access to the underlying sample.
    pub fn sorted_sample(&self) -> &[f64] {
        &self.sorted
    }

    /// The largest absolute difference `sup |F_n(x) − F(x)|` against a
    /// reference CDF, evaluated at the sample points (both one-sided jumps).
    pub fn ks_distance(&self, cdf: impl Fn(f64) -> f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = cdf(x);
            let upper = (i as f64 + 1.0) / n as f64 - f;
            let lower = f - i as f64 / n as f64;
            d = d.max(upper.abs()).max(lower.abs());
        }
        d
    }
}

/// A survival curve sampled on a uniform day grid: `value[k]` is the
/// fraction of the population still "alive" (unchanged, or present) at the
/// end of day `k`.
#[derive(Clone, Debug, PartialEq)]
pub struct SurvivalCurve {
    values: Vec<f64>,
}

impl SurvivalCurve {
    /// Build from a per-day series of surviving fractions. Values must be in
    /// `[0, 1]` and non-increasing (a survival function cannot rise).
    pub fn new(values: Vec<f64>) -> SurvivalCurve {
        assert!(
            values.iter().all(|v| (0.0..=1.0).contains(v)),
            "survival values must be fractions"
        );
        assert!(
            values.windows(2).all(|w| w[1] <= w[0] + 1e-12),
            "survival curve must be non-increasing"
        );
        SurvivalCurve { values }
    }

    /// Number of days covered.
    pub fn days(&self) -> usize {
        self.values.len()
    }

    /// Fraction surviving at the end of day `k` (clamps past the end).
    pub fn at_day(&self, k: usize) -> f64 {
        if self.values.is_empty() {
            return 1.0;
        }
        let k = k.min(self.values.len() - 1);
        self.values[k]
    }

    /// The raw series.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// First day on which the surviving fraction drops to `threshold` or
    /// below — e.g. `half_life = first_day_below(0.5)` answers the paper's
    /// "how long does it take for 50% of the web to change?" (§3.3).
    pub fn first_day_at_or_below(&self, threshold: f64) -> Option<usize> {
        self.values.iter().position(|&v| v <= threshold)
    }

    /// Convenience: the 50% crossing day (the paper reports ~50 days overall,
    /// ~11 days for com, ~4 months for gov).
    pub fn half_life_days(&self) -> Option<usize> {
        self.first_day_at_or_below(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_step_values() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(100.0), 1.0);
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert_eq!(e.ks_distance(|_| 0.5), 0.0);
    }

    #[test]
    fn ks_distance_of_perfect_fit_is_small() {
        // Sample = exact quantiles of U[0,1]; KS distance must be <= 1/(2n)+eps.
        let n = 100;
        let sample: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5) / n as f64).collect();
        let e = Ecdf::new(sample);
        let d = e.ks_distance(|x| x.clamp(0.0, 1.0));
        assert!(d <= 0.5 / n as f64 + 1e-9, "d={d}");
    }

    #[test]
    fn ks_distance_detects_mismatch() {
        let sample: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let e = Ecdf::new(sample);
        // Reference: point mass far away → distance near 1.
        let d = e.ks_distance(|x| if x < 10.0 { 0.0 } else { 1.0 });
        assert!(d > 0.99);
    }

    #[test]
    fn survival_half_life() {
        let s = SurvivalCurve::new(vec![1.0, 0.9, 0.7, 0.5, 0.2]);
        assert_eq!(s.half_life_days(), Some(3));
        assert_eq!(s.first_day_at_or_below(0.95), Some(1));
        assert_eq!(s.first_day_at_or_below(0.1), None);
        assert_eq!(s.at_day(2), 0.7);
        assert_eq!(s.at_day(99), 0.2);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn survival_rejects_rising_curve() {
        let _ = SurvivalCurve::new(vec![0.5, 0.6]);
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn survival_rejects_out_of_range() {
        let _ = SurvivalCurve::new(vec![1.5]);
    }
}
