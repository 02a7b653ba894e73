//! Goodness of fit of the Poisson change model.
//!
//! §3.4 verifies the Poisson model by plotting change-interval distributions
//! of pages with a common mean interval against `e^{−λt}` on a log scale
//! (Figure 6) and eyeballing the fit. We make the verification quantitative
//! with a chi-square test of the daily-detected intervals against the
//! geometric law a once-a-day observer of a Poisson page sees.

use crate::histogram::Histogram;
use crate::special::chi_square_sf;

/// Outcome of a goodness-of-fit test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GofResult {
    /// The chi-square statistic.
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
}
