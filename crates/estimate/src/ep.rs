//! Estimator **EP**: frequentist Poisson-rate estimation from a change
//! history.
//!
//! With visits every `Δ` days, each comparison is a Bernoulli trial that
//! detects a change with probability `p = 1 − e^{−λΔ}`. \[CGM99a\] observes
//! that the *naive* estimator `X/T` (detections over monitored time) is
//! biased low for fast pages — it can never report more than one change per
//! visit (Figure 1(a) of this paper) — and proposes estimators that invert
//! the detection probability instead:
//!
//! * [`estimate_regular_mle`]: `λ̂ = −ln(1 − X/n)/Δ`, the MLE.
//! * [`estimate_regular_bias_corrected`]: `λ̂ = −ln((n−X+0.5)/(n+0.5))/Δ`,
//!   \[CGM99a\]'s small-sample correction that stays finite at `X = n`.
//! * [`estimate_irregular_mle`]: Newton-solved MLE for irregular visit
//!   intervals, maximizing `Σ_changed ln(1−e^{−λt_i}) − Σ_unchanged λt_i`.
//!
//! The §5.3 confidence interval comes from
//! [`webevo_stats::rate_ci_from_regular_access`].

use crate::history::ChangeHistory;
use webevo_stats::{rate_ci_from_regular_access, ConfidenceInterval};
use webevo_types::{ChangeRate, Error, Result};

/// A point estimate of a page's change rate with its confidence interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpEstimate {
    /// Estimated Poisson rate (events/day).
    pub rate: ChangeRate,
    /// Two-sided confidence interval on the rate.
    pub ci: ConfidenceInterval,
    /// Comparisons the estimate is based on.
    pub n: u64,
    /// Detections among them.
    pub detections: u64,
}

/// The naive estimator: detected changes per monitored day (`X/T`).
///
/// Consistent only when the page changes much slower than it is visited;
/// saturates at one change per visit interval for fast pages.
pub fn estimate_naive(history: &ChangeHistory) -> Result<ChangeRate> {
    if !history.has_data() || history.monitored_days() <= 0.0 {
        return Err(Error::InvalidState("no comparisons in history".into()));
    }
    Ok(ChangeRate(history.detections() as f64 / history.monitored_days()))
}

/// MLE for regular access intervals: `λ̂ = −ln(1 − X/n)/Δ`.
///
/// Returns an error when every visit saw a change (`X = n`), where the MLE
/// diverges — use [`estimate_regular_bias_corrected`] there.
pub fn estimate_regular_mle(detections: u64, n: u64, interval_days: f64) -> Result<ChangeRate> {
    if n == 0 {
        return Err(Error::InvalidState("no comparisons".into()));
    }
    if interval_days <= 0.0 {
        return Err(Error::invalid("access interval must be positive"));
    }
    if detections > n {
        return Err(Error::invalid("detections cannot exceed comparisons"));
    }
    if detections == n {
        return Err(Error::InvalidState(
            "every visit detected a change; MLE diverges (Figure 1(a) granularity limit)".into(),
        ));
    }
    let p_hat = detections as f64 / n as f64;
    Ok(ChangeRate(-(1.0 - p_hat).ln() / interval_days))
}

/// \[CGM99a\]'s bias-corrected estimator for regular access:
/// `λ̂ = −ln((n − X + 0.5)/(n + 0.5))/Δ`.
///
/// Finite for all `0 ≤ X ≤ n` and nearly unbiased down to small `n`.
pub fn estimate_regular_bias_corrected(
    detections: u64,
    n: u64,
    interval_days: f64,
) -> Result<ChangeRate> {
    if n == 0 {
        return Err(Error::InvalidState("no comparisons".into()));
    }
    if interval_days <= 0.0 {
        return Err(Error::invalid("access interval must be positive"));
    }
    if detections > n {
        return Err(Error::invalid("detections cannot exceed comparisons"));
    }
    let num = n as f64 - detections as f64 + 0.5;
    let den = n as f64 + 0.5;
    Ok(ChangeRate(-(num / den).ln() / interval_days))
}

/// Full EP estimate from a history with (approximately) regular access:
/// bias-corrected point estimate plus the §5.3 confidence interval.
pub fn estimate_ep(history: &ChangeHistory, level: f64) -> Result<EpEstimate> {
    let n = history.comparisons();
    if n == 0 {
        return Err(Error::InvalidState("no comparisons in history".into()));
    }
    let interval = history
        .mean_access_interval()
        .ok_or_else(|| Error::InvalidState("no interval data".into()))?;
    if interval <= 0.0 {
        return Err(Error::InvalidState("all visits at the same instant".into()));
    }
    let detections = history.detections();
    let rate = estimate_regular_bias_corrected(detections, n, interval)?;
    let ci = rate_ci_from_regular_access(detections, n, interval, level);
    Ok(EpEstimate { rate, ci, n, detections })
}

/// MLE for **irregular** access intervals.
///
/// Maximizes `L(λ) = Σ_{changed} ln(1 − e^{−λ tᵢ}) − Σ_{unchanged} λ tᵢ`
/// over the comparison observations. The log-likelihood is strictly concave
/// in λ, so bisection on `dL/dλ` converges globally:
///
/// `dL/dλ = Σ_changed tᵢ e^{−λtᵢ}/(1 − e^{−λtᵢ}) − Σ_unchanged tᵢ`.
///
/// Boundary cases: no detections → rate 0 is the supremum (returned);
/// all detections → the likelihood increases without bound (error, use the
/// bias-corrected estimator on the pooled counts).
pub fn estimate_irregular_mle(history: &ChangeHistory) -> Result<ChangeRate> {
    let obs: Vec<(f64, bool)> = history
        .comparison_observations()
        .map(|o| (o.interval, o.changed))
        .filter(|&(t, _)| t > 0.0)
        .collect();
    if obs.is_empty() {
        return Err(Error::InvalidState("no comparisons in history".into()));
    }
    let changed: Vec<f64> = obs.iter().filter(|&&(_, c)| c).map(|&(t, _)| t).collect();
    let unchanged_sum: f64 = obs.iter().filter(|&&(_, c)| !c).map(|&(t, _)| t).sum();
    if changed.is_empty() {
        return Ok(ChangeRate::ZERO);
    }
    if unchanged_sum == 0.0 {
        return Err(Error::InvalidState(
            "every visit detected a change; irregular MLE diverges".into(),
        ));
    }
    let score = |lambda: f64| -> f64 {
        let gain: f64 = changed
            .iter()
            .map(|&t| {
                let e = (-lambda * t).exp();
                t * e / (1.0 - e)
            })
            .sum();
        gain - unchanged_sum
    };
    // Bracket the root: dL/dλ → +∞ as λ→0⁺ and → −unchanged_sum < 0 as λ→∞.
    let mut lo = 1e-9;
    let mut hi = 1.0;
    let mut iterations = 0;
    while score(hi) > 0.0 {
        hi *= 2.0;
        iterations += 1;
        if iterations > 200 {
            return Err(Error::NoConvergence { what: "irregular MLE bracket", iterations });
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if score(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    Ok(ChangeRate(0.5 * (lo + hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_stats::SimRng;
    use webevo_types::Checksum;

    /// Build a history by simulating daily visits to a Poisson page.
    fn simulated_history(lambda: f64, days: usize, interval: f64, seed: u64) -> ChangeHistory {
        use webevo_stats::PoissonProcess;
        let mut rng = SimRng::seed_from_u64(seed);
        let horizon = days as f64 * interval + 1.0;
        let process = PoissonProcess::generate(&mut rng, lambda, horizon);
        let mut h = ChangeHistory::new(days + 2);
        for k in 0..=days {
            let t = k as f64 * interval;
            let version = process.version_at(t);
            h.record_visit(t, Checksum::of_version(1, version));
        }
        h
    }

    #[test]
    fn naive_underestimates_fast_pages() {
        // Page changes 3x/day but is visited daily: naive can see at most
        // one change/day.
        let h = simulated_history(3.0, 200, 1.0, 1);
        let naive = estimate_naive(&h).unwrap();
        assert!(naive.per_day() <= 1.0 + 1e-9);
        assert!(naive.per_day() < 1.5, "naive should saturate, got {}", naive.per_day());
    }

    #[test]
    fn mle_recovers_moderate_rate() {
        let lambda = 0.2;
        let h = simulated_history(lambda, 400, 1.0, 2);
        let est = estimate_regular_mle(h.detections(), h.comparisons(), 1.0).unwrap();
        assert!(
            (est.per_day() - lambda).abs() < 0.05,
            "est={} true={lambda}",
            est.per_day()
        );
    }

    #[test]
    fn bias_corrected_close_to_mle_away_from_boundary() {
        let mle = estimate_regular_mle(30, 100, 1.0).unwrap();
        let bc = estimate_regular_bias_corrected(30, 100, 1.0).unwrap();
        assert!((mle.per_day() - bc.per_day()).abs() < 0.01);
    }

    #[test]
    fn bias_corrected_finite_at_boundary() {
        let bc = estimate_regular_bias_corrected(100, 100, 1.0).unwrap();
        assert!(bc.per_day().is_finite());
        assert!(bc.per_day() > 4.0, "all-changed should imply a fast page");
        assert!(estimate_regular_mle(100, 100, 1.0).is_err());
    }

    #[test]
    fn zero_detections_gives_zero_rate() {
        let bc = estimate_regular_bias_corrected(0, 100, 1.0).unwrap();
        assert!(bc.per_day() < 0.006);
        let mle = estimate_regular_mle(0, 100, 1.0).unwrap();
        assert_eq!(mle.per_day(), 0.0);
    }

    #[test]
    fn ep_ci_covers_truth() {
        let lambda = 0.1;
        let mut covered = 0;
        let trials = 60;
        for seed in 0..trials {
            let h = simulated_history(lambda, 200, 1.0, 100 + seed);
            let est = estimate_ep(&h, 0.95).unwrap();
            if est.ci.contains(lambda) {
                covered += 1;
            }
        }
        // 95% nominal; allow slack for the small trial count.
        assert!(covered as f64 / trials as f64 > 0.85, "covered {covered}/{trials}");
    }

    #[test]
    fn irregular_mle_recovers_rate() {
        // Visits at mixed intervals: 0.5, 1, 2 days repeating.
        use webevo_stats::PoissonProcess;
        let lambda = 0.3;
        let mut rng = SimRng::seed_from_u64(5);
        let process = PoissonProcess::generate(&mut rng, lambda, 2000.0);
        let mut h = ChangeHistory::new(5000);
        let mut t = 0.0;
        let steps = [0.5, 1.0, 2.0];
        let mut i = 0;
        while t < 1500.0 {
            h.record_visit(t, Checksum::of_version(1, process.version_at(t)));
            t += steps[i % 3];
            i += 1;
        }
        let est = estimate_irregular_mle(&h).unwrap();
        assert!(
            (est.per_day() - lambda).abs() < 0.05,
            "est={} true={lambda}",
            est.per_day()
        );
    }

    #[test]
    fn irregular_mle_zero_when_no_changes() {
        let mut h = ChangeHistory::new(50);
        for k in 0..20 {
            h.record_visit(k as f64, Checksum(7));
        }
        assert_eq!(estimate_irregular_mle(&h).unwrap(), ChangeRate::ZERO);
    }

    #[test]
    fn irregular_matches_regular_on_regular_data() {
        let h = simulated_history(0.15, 300, 1.0, 9);
        let irregular = estimate_irregular_mle(&h).unwrap();
        let regular =
            estimate_regular_mle(h.detections(), h.comparisons(), 1.0).unwrap();
        assert!(
            (irregular.per_day() - regular.per_day()).abs() < 1e-6,
            "{} vs {}",
            irregular.per_day(),
            regular.per_day()
        );
    }

    #[test]
    fn errors_on_empty_history() {
        let h = ChangeHistory::new(10);
        assert!(estimate_naive(&h).is_err());
        assert!(estimate_ep(&h, 0.95).is_err());
        assert!(estimate_irregular_mle(&h).is_err());
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(estimate_regular_mle(5, 10, 0.0).is_err());
        assert!(estimate_regular_mle(11, 10, 1.0).is_err());
        assert!(estimate_regular_bias_corrected(11, 10, 1.0).is_err());
    }
}
