//! Elementary distributions: exponential inter-arrival times and
//! log-uniform rates.
//!
//! Theorem 1 of the paper: for a Poisson process with rate λ, the time to
//! the next event has density `λ e^{−λt}`. All change schedules in the
//! simulator and all analytic freshness results build on this.

use crate::rng::SimRng;

/// Sample an exponential variate with rate `lambda` (mean `1/lambda`).
///
/// Uses inversion: `−ln(1−U)/λ` with `U ~ Uniform[0,1)`; `1−U ∈ (0,1]` so
/// the logarithm is finite.
#[inline]
pub fn sample_exponential(rng: &mut SimRng, lambda: f64) -> f64 {
    assert!(lambda > 0.0, "exponential rate must be positive, got {lambda}");
    let u = rng.uniform();
    -(-u).ln_1p() / lambda
}

/// Sample from a log-uniform distribution on `[lo, hi]` (both positive).
///
/// Used by the simulator to spread per-page change rates *within* a
/// change-interval band of Figure 2: rates inside a band like
/// "1 week – 1 month" plausibly span the band multiplicatively rather than
/// additively.
pub fn sample_log_uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    assert!(lo > 0.0 && hi >= lo, "log-uniform needs 0 < lo <= hi");
    let (ln_lo, ln_hi) = (lo.ln(), hi.ln());
    rng.uniform_range(ln_lo, ln_hi).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = SimRng::seed_from_u64(1);
        let lambda = 0.25;
        let n = 50_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = sample_exponential(&mut rng, lambda);
            assert!(x >= 0.0 && x.is_finite());
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean={mean}");
    }

    #[test]
    fn exponential_memoryless_tail() {
        // P(X > 2/lambda) should be e^{-2} ≈ 0.1353.
        let mut rng = SimRng::seed_from_u64(2);
        let lambda = 1.0;
        let n = 50_000;
        let tail = (0..n)
            .filter(|_| sample_exponential(&mut rng, lambda) > 2.0)
            .count() as f64
            / n as f64;
        assert!((tail - (-2.0f64).exp()).abs() < 0.01, "tail={tail}");
    }

    #[test]
    fn log_uniform_bounds_and_median() {
        let mut rng = SimRng::seed_from_u64(6);
        let (lo, hi) = (0.01f64, 100.0f64);
        let n = 50_000;
        let mut below_geo_mean = 0usize;
        let geo_mean = (lo * hi).sqrt();
        for _ in 0..n {
            let x = sample_log_uniform(&mut rng, lo, hi);
            assert!((lo..=hi).contains(&x));
            if x < geo_mean {
                below_geo_mean += 1;
            }
        }
        let frac = below_geo_mean as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "median should be geometric mean, frac={frac}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let mut rng = SimRng::seed_from_u64(1);
        let _ = sample_exponential(&mut rng, 0.0);
    }
}
