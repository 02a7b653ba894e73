//! Goodness-of-fit tests against the exponential distribution.
//!
//! §3.4 verifies the Poisson model by plotting change-interval distributions
//! of pages with a common mean interval against `e^{−λt}` on a log scale
//! (Figure 6) and eyeballing the fit. We make the verification quantitative:
//! a chi-square test on binned intervals and a Kolmogorov–Smirnov test on
//! the raw intervals, both against the exponential with the sample's rate.

use crate::ecdf::Ecdf;
use crate::histogram::Histogram;
use crate::special::chi_square_sf;

/// Outcome of a goodness-of-fit test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GofResult {
    /// The test statistic (chi-square value or KS distance).
    pub statistic: f64,
    /// The p-value: probability of a statistic at least this extreme under
    /// the null hypothesis that the data is exponential.
    pub p_value: f64,
    /// Sample size the test was computed on.
    pub n: usize,
}

impl GofResult {
    /// Conventional rejection check.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Chi-square test of exponentiality for a sample of intervals.
///
/// The rate is estimated as `1/mean` (MLE for the exponential); intervals
/// are binned into `bins` equal-probability bins under the fitted
/// exponential, so every bin has expected count `n/bins`. One degree of
/// freedom is consumed by the rate estimate: dof = bins − 2.
pub fn chi_square_exponential_fit(intervals: &[f64], bins: usize) -> GofResult {
    assert!(bins >= 3, "need at least 3 bins for a meaningful test");
    assert!(
        intervals.iter().all(|&x| x >= 0.0 && x.is_finite()),
        "intervals must be finite and non-negative"
    );
    let n = intervals.len();
    if n < bins * 5 {
        // Too small for the asymptotic to mean anything: be conservative.
        return GofResult { statistic: 0.0, p_value: 1.0, n };
    }
    let mean: f64 = intervals.iter().sum::<f64>() / n as f64;
    assert!(mean > 0.0, "intervals cannot all be zero");
    let lambda = 1.0 / mean;

    // Equal-probability bin edges under Exp(lambda): F^{-1}(k/bins).
    let mut counts = vec![0u64; bins];
    for &x in intervals {
        let u = 1.0 - (-lambda * x).exp(); // CDF value in [0,1)
        let k = ((u * bins as f64) as usize).min(bins - 1);
        counts[k] += 1;
    }
    let expected = n as f64 / bins as f64;
    let statistic: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    let dof = (bins - 2) as f64;
    GofResult { statistic, p_value: chi_square_sf(statistic, dof), n }
}

/// Kolmogorov–Smirnov test of exponentiality.
///
/// Computes `D = sup |F_n(x) − (1 − e^{−λx})|` with `λ = 1/mean`, and the
/// asymptotic Kolmogorov p-value with the Lilliefors-style small-sample
/// correction `D·(√n + 0.12 + 0.11/√n)`. Because λ is estimated from the
/// same data the p-value is approximate (slightly anti-conservative);
/// adequate for the paper's "does a Poisson process predict the data"
/// question.
pub fn ks_test_exponential(intervals: &[f64]) -> GofResult {
    assert!(
        intervals.iter().all(|&x| x >= 0.0 && x.is_finite()),
        "intervals must be finite and non-negative"
    );
    let n = intervals.len();
    if n == 0 {
        return GofResult { statistic: 0.0, p_value: 1.0, n };
    }
    let mean: f64 = intervals.iter().sum::<f64>() / n as f64;
    assert!(mean > 0.0, "intervals cannot all be zero");
    let lambda = 1.0 / mean;
    let ecdf = Ecdf::new(intervals.to_vec());
    let d = ecdf.ks_distance(|x| 1.0 - (-lambda * x).exp());
    let sqrt_n = (n as f64).sqrt();
    let t = d * (sqrt_n + 0.12 + 0.11 / sqrt_n);
    GofResult { statistic: d, p_value: kolmogorov_sf(t), n }
}

/// Chi-square test that integer day-intervals follow the **geometric**
/// distribution — the exact law of *detected* change intervals when a
/// Poisson page is observed once per day (Figure 1(a)'s channel): each
/// daily visit independently detects a change with `p = 1 − e^{−λ}`, so
/// the gap between detections is `P(k) = (1−p)^{k−1} p`.
///
/// Testing Figure 6 data against the continuous exponential would reject
/// on large samples purely because of the 1-day granularity; this is the
/// discretization-aware version.
pub fn chi_square_geometric_fit(intervals_days: &[f64]) -> GofResult {
    let n = intervals_days.len();
    assert!(
        intervals_days.iter().all(|&x| x >= 1.0 && x.is_finite()),
        "detected intervals are whole days >= 1"
    );
    if n < 30 {
        return GofResult { statistic: 0.0, p_value: 1.0, n };
    }
    let mean: f64 = intervals_days.iter().sum::<f64>() / n as f64;
    let p = (1.0 / mean).clamp(1e-9, 1.0 - 1e-9); // geometric MLE
    // Bins: k = 1..K individually, then a lumped tail, chosen so every
    // bin's expected count is >= 5.
    let mut k_max = 1usize;
    while n as f64 * (1.0 - p).powi(k_max as i32) * p >= 5.0 && k_max < 200 {
        k_max += 1;
    }
    let bins = k_max + 1; // 1..=k_max plus tail
    if bins < 3 {
        return GofResult { statistic: 0.0, p_value: 1.0, n };
    }
    let mut counts = vec![0u64; bins];
    for &x in intervals_days {
        let k = x.round() as usize;
        let idx = if k >= 1 && k <= k_max { k - 1 } else { bins - 1 };
        counts[idx] += 1;
    }
    let mut statistic = 0.0;
    for (i, &c) in counts.iter().enumerate() {
        let prob = if i < k_max {
            (1.0 - p).powi(i as i32) * p
        } else {
            (1.0 - p).powi(k_max as i32) // tail: k > k_max
        };
        let expected = n as f64 * prob;
        if expected > 0.0 {
            let d = c as f64 - expected;
            statistic += d * d / expected;
        }
    }
    let dof = (bins - 2) as f64;
    GofResult { statistic, p_value: chi_square_sf(statistic, dof), n }
}

/// Survival function of the Kolmogorov distribution:
/// `Q(t) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²t²}`.
fn kolmogorov_sf(t: f64) -> f64 {
    if t <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64) * (k as f64) * t * t).exp();
        if term < 1e-16 {
            break;
        }
        sum += if k % 2 == 1 { term } else { -term };
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Build Figure 6's plot data: the observed fraction of intervals in each
/// day-bin alongside the Poisson model's prediction for the same bin.
///
/// Returns `(bin_center_days, observed_fraction, predicted_fraction)` rows.
/// The prediction integrates the exponential density over each bin:
/// `e^{−λ·lo} − e^{−λ·hi}`.
pub fn figure6_series(
    intervals: &[f64],
    max_days: f64,
    bins: usize,
) -> Vec<(f64, f64, f64)> {
    assert!(max_days > 0.0 && bins > 0);
    let mut hist = Histogram::new(0.0, max_days, bins);
    for &x in intervals {
        hist.record(x);
    }
    let n = intervals.len();
    if n == 0 {
        return Vec::new();
    }
    let mean: f64 = intervals.iter().sum::<f64>() / n as f64;
    let lambda = if mean > 0.0 { 1.0 / mean } else { 0.0 };
    let w = hist.bin_width();
    (0..bins)
        .map(|i| {
            let lo = i as f64 * w;
            let hi = lo + w;
            let predicted = (-lambda * lo).exp() - (-lambda * hi).exp();
            (hist.bin_center(i), hist.fraction(i), predicted)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_exponential;
    use crate::rng::SimRng;

    fn exponential_sample(seed: u64, lambda: f64, n: usize) -> Vec<f64> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| sample_exponential(&mut rng, lambda)).collect()
    }

    #[test]
    fn chi_square_accepts_exponential() {
        let xs = exponential_sample(1, 0.1, 5000);
        let r = chi_square_exponential_fit(&xs, 10);
        assert!(!r.rejects_at(0.01), "p={}", r.p_value);
    }

    #[test]
    fn chi_square_rejects_uniform() {
        // Uniform[0, 20] has the same mean as Exp(0.1) but is far from it.
        let mut rng = SimRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..5000).map(|_| rng.uniform_range(0.0, 20.0)).collect();
        let r = chi_square_exponential_fit(&xs, 10);
        assert!(r.rejects_at(0.001), "p={}", r.p_value);
    }

    #[test]
    fn ks_accepts_exponential() {
        let xs = exponential_sample(3, 0.5, 2000);
        let r = ks_test_exponential(&xs);
        assert!(!r.rejects_at(0.01), "D={}, p={}", r.statistic, r.p_value);
    }

    #[test]
    fn ks_rejects_constant_intervals() {
        // Perfectly periodic changes are maximally non-Poisson.
        let xs = vec![10.0; 500];
        let r = ks_test_exponential(&xs);
        assert!(r.rejects_at(0.001), "p={}", r.p_value);
    }

    #[test]
    fn small_samples_are_conservative() {
        let r = chi_square_exponential_fit(&[1.0, 2.0, 3.0], 3);
        assert_eq!(r.p_value, 1.0);
        let r = ks_test_exponential(&[]);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn figure6_prediction_matches_observation_for_exponential_data() {
        let xs = exponential_sample(4, 0.1, 50_000); // 10-day mean interval
        let rows = figure6_series(&xs, 80.0, 16);
        assert_eq!(rows.len(), 16);
        // Observed and predicted fractions should track closely bin by bin.
        for (center, obs, pred) in rows {
            assert!(
                (obs - pred).abs() < 0.01,
                "bin at {center}: obs={obs}, pred={pred}"
            );
        }
    }

    #[test]
    fn figure6_fractions_decay_exponentially() {
        // 500k samples: the 70–80-day bin holds only ~6e-4 of the mass,
        // and the adjacent-bin ratio needs a few hundred samples there to
        // sit within the 0.15 tolerance.
        let xs = exponential_sample(5, 0.1, 500_000);
        let rows = figure6_series(&xs, 80.0, 8);
        // log-fractions should be roughly linear: ratio between adjacent
        // bins approximately constant.
        let ratios: Vec<f64> = rows.windows(2).map(|w| w[1].1 / w[0].1).collect();
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        for r in &ratios {
            assert!((r - mean_ratio).abs() < 0.15, "ratio {r} vs mean {mean_ratio}");
        }
    }

    #[test]
    fn geometric_fit_accepts_daily_sampled_poisson() {
        // Simulate daily detection of a Poisson page and check the
        // detected gaps pass the geometric test.
        let mut rng = SimRng::seed_from_u64(21);
        let lambda = 0.12f64;
        let p = 1.0 - (-lambda).exp();
        let mut gaps = Vec::new();
        let mut gap = 0u32;
        for _ in 0..40_000 {
            gap += 1;
            if rng.bernoulli(p) {
                gaps.push(gap as f64);
                gap = 0;
            }
        }
        let r = chi_square_geometric_fit(&gaps);
        assert!(!r.rejects_at(0.01), "p={}", r.p_value);
    }

    #[test]
    fn geometric_fit_rejects_constant_gaps() {
        let gaps = vec![10.0; 2000];
        let r = chi_square_geometric_fit(&gaps);
        assert!(r.rejects_at(0.001), "p={}", r.p_value);
    }

    #[test]
    fn geometric_fit_small_sample_conservative() {
        let r = chi_square_geometric_fit(&[1.0, 2.0, 3.0]);
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn kolmogorov_sf_known_point() {
        // Q(0.83) ≈ 0.5 (median of Kolmogorov distribution ~0.828).
        assert!((kolmogorov_sf(0.8276) - 0.5).abs() < 0.01);
        assert_eq!(kolmogorov_sf(0.0), 1.0);
        assert!(kolmogorov_sf(3.0) < 1e-6);
    }
}
