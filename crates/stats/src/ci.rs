//! Confidence intervals for proportions and Poisson change rates.
//!
//! Estimator **EP** (§5.3, \[CGM99a\]) records how many of `n` visits to a
//! page detected a change and derives "a confidence interval for the change
//! frequency of that page". With visits at a regular interval `Δ`, each
//! visit detects a change with probability `p = 1 − e^{−λΔ}` independently,
//! so a binomial CI on `p` maps monotonically onto a CI on `λ` via
//! `λ = −ln(1 − p)/Δ`. That transformation is implemented here; the Wilson
//! score interval is used for `p` because it behaves at the boundary counts
//! (0 or n detections) that dominate crawl histories.

use crate::special::normal_quantile;

/// A two-sided confidence interval `[lo, hi]` with its nominal level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Nominal coverage, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True if the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }
}

/// Wilson score interval for a binomial proportion: `successes` out of `n`
/// at confidence `level` (e.g. 0.95).
pub fn binomial_wilson(successes: u64, n: u64, level: f64) -> ConfidenceInterval {
    assert!(n > 0, "need at least one trial");
    assert!(successes <= n, "successes cannot exceed trials");
    assert!((0.0..1.0).contains(&level) && level > 0.0, "level must be in (0,1)");
    let z = normal_quantile(0.5 + level / 2.0);
    let n_f = n as f64;
    let p_hat = successes as f64 / n_f;
    let z2 = z * z;
    let denom = 1.0 + z2 / n_f;
    let center = (p_hat + z2 / (2.0 * n_f)) / denom;
    let half = z * (p_hat * (1.0 - p_hat) / n_f + z2 / (4.0 * n_f * n_f)).sqrt() / denom;
    // Pin the boundary counts exactly: algebraically lo = 0 when successes
    // = 0 and hi = 1 when successes = n, but floating point can land at
    // ±1e-17, which downstream transforms (−ln(1−p)) must not see.
    let lo = if successes == 0 { 0.0 } else { (center - half).max(0.0) };
    let hi = if successes == n { 1.0 } else { (center + half).min(1.0) };
    ConfidenceInterval { lo, hi, level }
}

/// Confidence interval for a Poisson change rate λ (per day) from a
/// regular-access change history: `detections` changes detected over `n`
/// visits spaced `interval_days` apart.
///
/// Maps the Wilson interval on the per-visit detection probability through
/// `λ = −ln(1 − p)/Δ`. When the upper proportion bound reaches 1 (every
/// visit saw a change) the rate upper bound is unbounded — reported as
/// `f64::INFINITY` — which mirrors the paper's observation that daily
/// monitoring cannot distinguish "changes once a day" from "changes every
/// minute" (Figure 1(a)).
pub fn rate_ci_from_regular_access(
    detections: u64,
    n: u64,
    interval_days: f64,
    level: f64,
) -> ConfidenceInterval {
    assert!(interval_days > 0.0, "access interval must be positive");
    let p_ci = binomial_wilson(detections, n, level);
    let to_rate = |p: f64| {
        if p >= 1.0 {
            f64::INFINITY
        } else {
            -(1.0 - p).ln() / interval_days
        }
    };
    ConfidenceInterval {
        lo: to_rate(p_ci.lo),
        hi: to_rate(p_ci.hi),
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_known_value() {
        // Classic check: 8/10 at 95% → approx [0.490, 0.943].
        let ci = binomial_wilson(8, 10, 0.95);
        assert!((ci.lo - 0.490).abs() < 0.005, "lo={}", ci.lo);
        assert!((ci.hi - 0.943).abs() < 0.005, "hi={}", ci.hi);
        assert!(ci.contains(0.8));
    }

    #[test]
    fn wilson_zero_and_full() {
        let ci0 = binomial_wilson(0, 20, 0.95);
        assert_eq!(ci0.lo, 0.0);
        assert!(ci0.hi > 0.0 && ci0.hi < 0.25);
        let ci1 = binomial_wilson(20, 20, 0.95);
        assert_eq!(ci1.hi, 1.0);
        assert!(ci1.lo > 0.75);
    }

    #[test]
    fn wilson_narrows_with_n() {
        let narrow = binomial_wilson(50, 100, 0.95);
        let wide = binomial_wilson(5, 10, 0.95);
        assert!(narrow.width() < wide.width());
    }

    #[test]
    fn rate_ci_covers_truth() {
        // lambda = 0.1/day observed daily: p = 1 - e^-0.1 ≈ 0.0952.
        // With detections near expectation the CI should cover 0.1.
        let n = 100;
        let p = 1.0 - (-0.1f64).exp();
        let detections = (p * n as f64).round() as u64;
        let ci = rate_ci_from_regular_access(detections, n, 1.0, 0.95);
        assert!(ci.contains(0.1), "ci=[{}, {}]", ci.lo, ci.hi);
    }

    #[test]
    fn rate_ci_every_visit_changed_is_unbounded() {
        let ci = rate_ci_from_regular_access(30, 30, 1.0, 0.95);
        assert!(ci.hi.is_infinite());
        assert!(ci.lo > 1.0, "lo={}", ci.lo); // definitely faster than 1/day
    }

    #[test]
    fn rate_ci_never_changed_starts_at_zero() {
        let ci = rate_ci_from_regular_access(0, 120, 1.0, 0.95);
        assert_eq!(ci.lo, 0.0);
        assert!(ci.hi < 0.05, "hi={}", ci.hi);
    }

    #[test]
    fn wilson_coverage_simulation() {
        // Empirical coverage of the 95% Wilson interval should be near 95%.
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(17);
        let p = 0.3;
        let n = 50;
        let trials = 2000;
        let mut covered = 0;
        for _ in 0..trials {
            let successes = (0..n).filter(|_| rng.bernoulli(p)).count() as u64;
            if binomial_wilson(successes, n as u64, 0.95).contains(p) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(coverage > 0.92 && coverage <= 1.0, "coverage={coverage}");
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn wilson_rejects_zero_trials() {
        let _ = binomial_wilson(0, 0, 0.95);
    }
}
