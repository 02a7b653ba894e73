//! Instantaneous expected-freshness curves — the data behind Figures 7
//! and 8.
//!
//! Figure 7 shows how collection freshness evolves over time for a
//! batch-mode crawler (sawtooth: rises during the grey crawling burst,
//! decays exponentially while idle) versus a steady crawler (flat). Figure 8
//! adds shadowing: the *crawler's* collection ramps from zero as the shadow
//! fills, while the *current* collection decays until the swap.
//!
//! All curves are exact expectations under the Poisson model, expressed in
//! cycle-relative time and evaluated on a uniform grid.

use crate::policy::{CrawlPolicy, UpdateMode};

/// A sampled curve: expected freshness at uniformly spaced times.
#[derive(Clone, Debug, PartialEq)]
pub struct FreshnessCurve {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl FreshnessCurve {
    /// Sample times in days (absolute, spanning one or more cycles).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Expected freshness at each sample time.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(time, freshness)` rows.
    pub fn rows(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Trapezoidal time-average of the curve.
    pub fn time_average(&self) -> f64 {
        if self.times.len() < 2 {
            return self.values.first().copied().unwrap_or(0.0);
        }
        let mut area = 0.0;
        for i in 1..self.times.len() {
            let dt = self.times[i] - self.times[i - 1];
            area += dt * (self.values[i] + self.values[i - 1]) / 2.0;
        }
        area / (self.times.last().unwrap() - self.times.first().unwrap())
    }

    /// Minimum sampled freshness.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sampled freshness.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Expected freshness of an **in-place** collection at cycle-offset `t`
/// (`0 ≤ t < T`), where pages are crawled uniformly during `[0, w)` each
/// cycle.
///
/// *Derivation.* A page crawled at burst offset `τ` was last synced at
/// `τ` (if `τ ≤ t`) or at `τ − T` (previous cycle, if `τ > t`):
///
/// ```text
/// F(t) = (1/w)[ ∫₀^min(t,w) e^{−λ(t−τ)} dτ + ∫_min(t,w)^w e^{−λ(t+T−τ)} dτ ]
/// ```
///
/// For the steady crawler (`w = T`) this collapses to the constant
/// `(1 − e^{−λT})/(λT)` — the flat line of Figure 7(b).
pub fn inplace_freshness_at(lambda: f64, cycle: f64, window: f64, t: f64) -> f64 {
    assert!((0.0..).contains(&t), "t must be non-negative");
    assert!(window > 0.0 && window <= cycle);
    if lambda == 0.0 {
        return 1.0;
    }
    let t = t % cycle;
    let split = t.min(window);
    // ∫₀^split e^{−λ(t−τ)} dτ = (e^{−λ(t−split)} − e^{−λt})/λ
    let recent = ((-lambda * (t - split)).exp() - (-lambda * t).exp()) / lambda;
    // ∫_split^w e^{−λ(t+T−τ)} dτ = (e^{−λ(t+T−w)} − e^{−λ(t+T−split)})/λ
    let old = ((-lambda * (t + cycle - window)).exp()
        - (-lambda * (t + cycle - split)).exp())
        / lambda;
    (recent + old) / window
}

/// Expected freshness of the **shadow (crawler's) collection** at
/// cycle-offset `t`: the fraction crawled so far, each copy decayed since
/// its crawl instant. Zero at the start of every cycle (the shadow starts
/// from scratch), which is the rising ramp of Figure 8 (top).
pub fn shadow_crawlers_freshness_at(lambda: f64, cycle: f64, window: f64, t: f64) -> f64 {
    assert!(window > 0.0 && window <= cycle);
    let t = t % cycle;
    let filled = t.min(window);
    if filled == 0.0 {
        return 0.0;
    }
    if lambda == 0.0 {
        // All crawled pages stay fresh; fraction crawled so far.
        return filled / window;
    }
    // (1/w) ∫₀^filled e^{−λ(t−τ)} dτ
    ((-lambda * (t - filled)).exp() - (-lambda * t).exp()) / (lambda * window)
}

/// Expected freshness of the **current collection under shadowing** at
/// cycle-offset `t`, where the swap happened at the burst end `w` of the
/// *current* cycle: the collection in service was crawled during `[0, w)`
/// of the cycle that ended at the most recent swap.
///
/// Cycle-relative bookkeeping: for `t ∈ [0, w)` the serving collection is
/// the one swapped in last cycle (crawl offsets `τ − T`); for `t ∈ [w, T)`
/// it is this cycle's (crawl offsets `τ`).
pub fn shadow_current_freshness_at(lambda: f64, cycle: f64, window: f64, t: f64) -> f64 {
    assert!(window > 0.0 && window <= cycle);
    if lambda == 0.0 {
        return 1.0;
    }
    let t = t % cycle;
    let age_of_burst_start = if t >= window { t } else { t + cycle };
    // (1/w) ∫₀^w e^{−λ(age_of_burst_start − τ)} dτ
    ((-lambda * (age_of_burst_start - window)).exp() - (-lambda * age_of_burst_start).exp())
        / (lambda * window)
}

/// The pair of curves Figure 8 plots for one policy: the crawler's
/// collection (only meaningful under shadowing) and the current collection.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyCurves {
    /// Freshness of the collection being assembled (shadow) — equals the
    /// current collection for in-place policies.
    pub crawlers: FreshnessCurve,
    /// Freshness of the collection users query.
    pub current: FreshnessCurve,
}

/// Sample the Figure 7/8 curves for a policy over `cycles` cycles with
/// `samples_per_cycle` points per cycle.
pub fn policy_curves(
    policy: &CrawlPolicy,
    lambda: f64,
    cycles: usize,
    samples_per_cycle: usize,
) -> PolicyCurves {
    assert!(cycles > 0 && samples_per_cycle > 1);
    let cycle = policy.cycle_days;
    let window = policy.mode.window_days(cycle);
    let n = cycles * samples_per_cycle;
    let mut times = Vec::with_capacity(n + 1);
    let mut current = Vec::with_capacity(n + 1);
    let mut crawlers = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let t = cycle * cycles as f64 * i as f64 / n as f64;
        times.push(t);
        match policy.update {
            UpdateMode::InPlace => {
                let f = inplace_freshness_at(lambda, cycle, window, t);
                current.push(f);
                crawlers.push(f);
            }
            UpdateMode::Shadow => {
                current.push(shadow_current_freshness_at(lambda, cycle, window, t));
                crawlers.push(shadow_crawlers_freshness_at(lambda, cycle, window, t));
            }
        }
    }
    PolicyCurves {
        crawlers: FreshnessCurve { times: times.clone(), values: crawlers },
        current: FreshnessCurve { times, values: current },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{
        freshness_batch_shadow, freshness_periodic, freshness_steady_inplace,
        freshness_steady_shadow,
    };
    use crate::policy::{CrawlMode, CrawlPolicy, UpdateMode};

    const LAMBDA: f64 = 0.2; // "high page change rate" like the Figure 7 plots
    const CYCLE: f64 = 30.0;
    const WINDOW: f64 = 7.0;

    #[test]
    fn steady_inplace_curve_is_flat() {
        let c = freshness_steady_inplace(LAMBDA, CYCLE);
        for i in 0..50 {
            let t = CYCLE * i as f64 / 50.0;
            let f = inplace_freshness_at(LAMBDA, CYCLE, CYCLE, t);
            assert!((f - c).abs() < 1e-10, "t={t}: {f} vs {c}");
        }
    }

    #[test]
    fn batch_inplace_sawtooth_shape() {
        // Rises during the burst, peaks at the burst end, decays after.
        let start = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, 0.0);
        let peak = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, WINDOW);
        let mid_idle = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, 20.0);
        let end = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, 29.999);
        assert!(peak > start, "peak {peak} > cycle start {start}");
        assert!(peak > mid_idle && mid_idle > end, "decays while idle");
        // The paper notes freshness < 1 even at the end of a crawl: some
        // pages changed during the burst.
        assert!(peak < 1.0);
    }

    #[test]
    fn batch_inplace_decay_is_exponential_while_idle() {
        // In the idle region the curve must decay exactly like e^{-λt}.
        let f1 = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, 10.0);
        let f2 = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, 15.0);
        assert!((f2 / f1 - (-LAMBDA * 5.0f64).exp()).abs() < 1e-10);
    }

    #[test]
    fn curve_time_average_matches_analytic_inplace() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Batch { window_days: WINDOW },
            update: UpdateMode::InPlace,
            cycle_days: CYCLE,
        };
        let curves = policy_curves(&policy, LAMBDA, 1, 4000);
        let avg = curves.current.time_average();
        let expect = freshness_periodic(LAMBDA, CYCLE);
        assert!((avg - expect).abs() < 1e-4, "avg={avg} expect={expect}");
    }

    #[test]
    fn curve_time_average_matches_analytic_steady_shadow() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Steady,
            update: UpdateMode::Shadow,
            cycle_days: CYCLE,
        };
        let curves = policy_curves(&policy, LAMBDA, 1, 4000);
        let avg = curves.current.time_average();
        let expect = freshness_steady_shadow(LAMBDA, CYCLE);
        assert!((avg - expect).abs() < 1e-4, "avg={avg} expect={expect}");
    }

    #[test]
    fn curve_time_average_matches_analytic_batch_shadow() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Batch { window_days: WINDOW },
            update: UpdateMode::Shadow,
            cycle_days: CYCLE,
        };
        let curves = policy_curves(&policy, LAMBDA, 1, 4000);
        let avg = curves.current.time_average();
        let expect = freshness_batch_shadow(LAMBDA, CYCLE, WINDOW);
        assert!((avg - expect).abs() < 1e-4, "avg={avg} expect={expect}");
    }

    #[test]
    fn shadow_crawlers_collection_ramps_from_zero() {
        // Figure 8 top: "the freshness of the crawler's collection
        // increases from zero every month".
        let f0 = shadow_crawlers_freshness_at(LAMBDA, CYCLE, CYCLE, 0.0);
        assert_eq!(f0, 0.0);
        let mut prev = 0.0;
        for i in 1..=10 {
            let f = shadow_crawlers_freshness_at(LAMBDA, CYCLE, CYCLE, CYCLE * i as f64 / 10.0 * 0.999);
            assert!(f >= prev - 1e-9, "ramp should not decrease early");
            prev = f;
        }
    }

    #[test]
    fn shadow_current_decays_between_swaps() {
        // Figure 8 bottom: current collection decays until replaced.
        // For batch/shadow the swap is at w; freshness right after the swap
        // must exceed freshness just before the next swap.
        let after_swap = shadow_current_freshness_at(LAMBDA, CYCLE, WINDOW, WINDOW);
        let before_next = shadow_current_freshness_at(LAMBDA, CYCLE, WINDOW, WINDOW - 0.001);
        assert!(after_swap > before_next, "{after_swap} vs {before_next}");
    }

    #[test]
    fn inplace_dominates_shadow_pointwise_for_steady() {
        // Figure 8(a): "The dashed line is always higher than the solid
        // curve" — in-place beats shadowing at every instant for steady.
        for i in 0..100 {
            let t = CYCLE * i as f64 / 100.0;
            let ip = inplace_freshness_at(LAMBDA, CYCLE, CYCLE, t);
            let sh = shadow_current_freshness_at(LAMBDA, CYCLE, CYCLE, t);
            assert!(ip >= sh - 1e-12, "t={t}: in-place {ip} < shadow {sh}");
        }
    }

    #[test]
    fn batch_shadow_equals_inplace_while_idle() {
        // Figure 8(b): "the dashed line and the solid line are the same
        // most of the time" — once the burst is over, in-place and
        // shadowing serve the same copies.
        for i in 0..50 {
            let t = WINDOW + (CYCLE - WINDOW) * i as f64 / 50.0;
            let ip = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, t);
            let sh = shadow_current_freshness_at(LAMBDA, CYCLE, WINDOW, t);
            assert!((ip - sh).abs() < 1e-10, "t={t}: {ip} vs {sh}");
        }
    }

    #[test]
    fn static_pages_flat_at_one() {
        assert_eq!(inplace_freshness_at(0.0, CYCLE, WINDOW, 3.0), 1.0);
        assert_eq!(shadow_current_freshness_at(0.0, CYCLE, WINDOW, 3.0), 1.0);
        assert!(
            (shadow_crawlers_freshness_at(0.0, CYCLE, CYCLE, 15.0) - 0.5).abs() < 1e-12,
            "half the shadow is filled mid-cycle"
        );
    }

    #[test]
    fn curves_are_periodic() {
        for &t in &[3.0, 11.0, 26.0] {
            let a = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, t);
            let b = inplace_freshness_at(LAMBDA, CYCLE, WINDOW, t + CYCLE);
            assert!((a - b).abs() < 1e-12);
        }
    }
}
