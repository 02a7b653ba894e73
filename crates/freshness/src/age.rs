//! The *age* metric — the paper's companion to freshness.
//!
//! §4: "In \[CGM99b\] we also discuss a second metric, the 'age' of crawled
//! pages." A stored copy's age is 0 while it is fresh, and the time since
//! the page's first unseen change otherwise. Age penalizes *how stale*
//! pages are, not just whether they are stale.

/// Time-averaged expected age of a page re-synced **in place** every
/// `interval_days`:
///
/// ```text
/// Ā = I/2 − 1/λ + (1 − e^{−λI})/(λ²I)
/// ```
///
/// (the average over one sync interval of the expected age a time `t`
/// after a sync, `t − (1 − e^{−λt})/λ`).
pub fn age_periodic(lambda: f64, interval_days: f64) -> f64 {
    assert!(lambda >= 0.0, "rate must be non-negative");
    assert!(interval_days > 0.0, "interval must be positive");
    if lambda == 0.0 {
        return 0.0;
    }
    let li = lambda * interval_days;
    interval_days / 2.0 - 1.0 / lambda + (-(-li).exp_m1()) / (lambda * lambda * interval_days)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected age of a single page copy a time `t` after its last sync, for
    /// change rate `lambda`:
    ///
    /// ```text
    /// E[age(t)] = ∫₀^t P(first change before s happened) ds·… = t − (1 − e^{−λt})/λ
    /// ```
    ///
    /// *Derivation.* Age at `t` is `(t − T_c)⁺` where `T_c` is the first change
    /// after the sync; `E[(t − T_c)⁺] = ∫₀^t P(T_c ≤ s) ds =
    /// ∫₀^t (1 − e^{−λs}) ds = t − (1 − e^{−λt})/λ`.
    fn age_at(lambda: f64, t: f64) -> f64 {
        assert!(lambda >= 0.0 && t >= 0.0);
        if lambda == 0.0 {
            return 0.0;
        }
        t - (-(-lambda * t).exp_m1()) / lambda
    }

    #[test]
    fn age_zero_at_sync() {
        assert_eq!(age_at(0.5, 0.0), 0.0);
    }

    #[test]
    fn age_grows_monotonically() {
        let mut prev = 0.0;
        for i in 1..50 {
            let a = age_at(0.2, i as f64);
            assert!(a > prev);
            prev = a;
        }
    }

    #[test]
    fn age_asymptote_is_t_minus_mean_interval() {
        // For large t, E[age] → t − 1/λ.
        let lambda = 0.5;
        let t = 100.0;
        assert!((age_at(lambda, t) - (t - 1.0 / lambda)).abs() < 1e-6);
    }

    #[test]
    fn static_page_never_ages() {
        assert_eq!(age_at(0.0, 1000.0), 0.0);
        assert_eq!(age_periodic(0.0, 30.0), 0.0);
    }

    #[test]
    fn periodic_age_matches_numeric_integration() {
        let (lambda, interval) = (0.1, 30.0);
        let n = 100_000;
        let numeric: f64 = (0..n)
            .map(|i| age_at(lambda, interval * (i as f64 + 0.5) / n as f64))
            .sum::<f64>()
            / n as f64;
        let analytic = age_periodic(lambda, interval);
        assert!((numeric - analytic).abs() < 1e-5, "{numeric} vs {analytic}");
    }

    #[test]
    fn faster_revisits_lower_age() {
        let lambda = 0.05;
        let a_fast = age_periodic(lambda, 5.0);
        let a_slow = age_periodic(lambda, 50.0);
        assert!(a_fast < a_slow);
    }

    #[test]
    fn age_increases_with_change_rate() {
        let interval = 30.0;
        let a_slow = age_periodic(0.01, interval);
        let a_fast = age_periodic(0.5, interval);
        assert!(a_fast > a_slow);
    }
}
