//! Survival curves.
//!
//! Figure 5 plots "the fraction of pages that were unchanged by the given
//! day" — a survival curve over days. [`SurvivalCurve`] holds such a series
//! sampled at day granularity.

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
    fn first_day_at_or_below(&self, threshold: f64) -> Option<usize> {
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
