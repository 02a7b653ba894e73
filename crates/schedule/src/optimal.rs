//! The freshness-optimal revisit allocation of \[CGM99b\] — Figure 9.
//!
//! Problem: maximize `(1/N) Σᵢ F(λᵢ, fᵢ)` subject to `Σᵢ fᵢ = B`,
//! `fᵢ ≥ 0`, where `F(λ, f) = (f/λ)(1 − e^{−λ/f})` is the time-averaged
//! freshness of a page with rate `λ` visited `f` times per day (uniformly
//! spaced).
//!
//! The objective is concave in each `fᵢ` (marginal freshness
//! `∂F/∂f = (1/λ)[1 − e^{−x}(1 + x)]` with `x = λ/f` is positive and
//! decreasing in `f`), so Lagrange/KKT water-filling is globally optimal:
//! there is a multiplier `μ ≥ 0` with
//!
//! * `fᵢ = 0` whenever the marginal gain at zero, `1/λᵢ`, is ≤ `μ`
//!   (pages that change *too fast* are abandoned first — the right-hand
//!   fall of Figure 9), and
//! * otherwise `fᵢ` solves `∂F/∂fᵢ = μ`.
//!
//! Both the inner solve (monotone in `f`) and the outer budget matching
//! (total allocation monotone decreasing in `μ`) are bisections, so the
//! solver is deterministic and robust.

use crate::policy::{Allocation, RevisitPolicy};
use webevo_types::{ChangeRate, Error, Result};

/// Marginal freshness gain `∂F/∂f` at frequency `f` for rate `lambda`.
///
/// `= (1/λ)[1 − e^{−λ/f}(1 + λ/f)]`; at `f → 0⁺` this tends to `1/λ`.
///
/// The production solver works in the substituted variable `x = λ/f` (see
/// [`invert_gain`]); this form survives as the test oracle pinning the
/// KKT conditions.
#[cfg(test)]
fn marginal_gain(lambda: f64, f: f64) -> f64 {
    debug_assert!(lambda > 0.0);
    if f <= 0.0 {
        return 1.0 / lambda;
    }
    let x = lambda / f;
    if x > 700.0 {
        // e^{-x} underflows; the gain has saturated at 1/λ.
        return 1.0 / lambda;
    }
    (1.0 - (-x).exp() * (1.0 + x)) / lambda
}

/// Invert `g(x) = 1 − e^{−x}(1+x) = y` for `x > 0`, given `y ∈ (0, 1)`.
///
/// In the substitution `x = λ/f` the inner KKT equation
/// `marginal_gain(λ, f) = μ` collapses to `g(x) = μλ`, one transcendental
/// equation in one variable. `g` is strictly increasing
/// (`g′(x) = x·e^{−x} > 0`), so a bracket-safeguarded Newton iteration from
/// an asymptotic-aware initial guess converges in a handful of steps —
/// this sits at the bottom of the allocation solver's hot loop, where the
/// former ~50-halving bisection dominated whole-crawl wall time.
///
/// `guess` warm-starts the iteration (pass `NaN` for a cold start).
fn invert_gain(y: f64, guess: f64) -> f64 {
    debug_assert!(y > 0.0 && y < 1.0);
    let mut lo = 0.0_f64;
    let mut hi = f64::INFINITY;
    let mut x = if guess.is_finite() && guess > 0.0 {
        guess
    } else if y < 0.5 {
        // Small-x expansion: g(x) = x²/2 − x³/3 + …
        (2.0 * y).sqrt()
    } else {
        // Large x: x − ln(1+x) = −ln(1−y) =: L, so x ≈ L + ln(1+L).
        let l = -(1.0 - y).ln();
        l + l.ln_1p()
    };
    for _ in 0..64 {
        let e = (-x).exp();
        let g = 1.0 - e * (1.0 + x);
        if g > y {
            hi = x;
        } else {
            lo = x;
        }
        let newton = x - (g - y) / (x * e);
        let next = if newton.is_finite() && newton > lo && newton < hi {
            newton
        } else if hi.is_finite() {
            0.5 * (lo + hi)
        } else {
            2.0 * x.max(1.0)
        };
        if (next - x).abs() <= 1e-15 * next {
            return next;
        }
        x = next;
    }
    x
}

/// Solve `marginal_gain(lambda, f) = mu` for `f`; requires
/// `mu < 1/lambda` (otherwise the optimum is `f = 0`).
///
/// Test-only oracle: the original doubling-bracket + bisection solve the
/// Newton path in [`invert_gain`] is checked against.
#[cfg(test)]
fn solve_frequency(lambda: f64, mu: f64) -> f64 {
    debug_assert!(mu > 0.0 && mu < 1.0 / lambda);
    // marginal_gain decreases in f; bracket an interval containing the root.
    let mut lo = 0.0;
    let mut hi = lambda.max(1.0);
    while marginal_gain(lambda, hi) > mu {
        hi *= 2.0;
        if hi > 1e18 {
            break; // numerically flat; accept hi
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if marginal_gain(lambda, mid) > mu {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-14 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Result of the optimal allocation solve.
#[derive(Clone, Debug, PartialEq)]
pub struct OptimalSolution {
    /// The per-page frequencies.
    pub allocation: Allocation,
    /// The Lagrange multiplier at the optimum (marginal freshness per unit
    /// of crawl budget — the "water level").
    pub multiplier: f64,
    /// Pages allocated zero visits (abandoned as too hot or static).
    pub zero_pages: usize,
}

/// Compute the freshness-optimal allocation for `rates` under a total
/// budget of `budget_per_day` visits/day.
///
/// Static pages (λ = 0) receive zero frequency (their copies are always
/// fresh). If *all* pages are static any allocation is optimal; zero
/// frequencies are returned.
pub fn optimal_allocation(rates: &[ChangeRate], budget_per_day: f64) -> Result<OptimalSolution> {
    if rates.is_empty() {
        return Err(Error::invalid("allocation needs at least one page"));
    }
    if budget_per_day <= 0.0 || !budget_per_day.is_finite() {
        return Err(Error::invalid("budget must be positive and finite"));
    }
    if rates.iter().any(|r| !r.is_valid()) {
        return Err(Error::invalid("change rates must be finite and non-negative"));
    }
    let changing: Vec<(usize, f64)> = rates
        .iter()
        .enumerate()
        .filter(|(_, r)| r.per_day() > 0.0)
        .map(|(i, r)| (i, r.per_day()))
        .collect();
    let mut frequencies = vec![0.0; rates.len()];
    if changing.is_empty() {
        return Ok(OptimalSolution {
            allocation: Allocation { frequencies, policy: RevisitPolicy::Optimal },
            multiplier: 0.0,
            zero_pages: rates.len(),
        });
    }

    // Pages with identical λ provably share the same optimal frequency, so
    // solve once per distinct rate (this also makes "equal rates ⇒ equal
    // frequencies" exact rather than tolerance-dependent) and weight by
    // multiplicity.
    let mut distinct: Vec<f64> = changing.iter().map(|&(_, l)| l).collect();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    let mut counts = vec![0.0_f64; distinct.len()];
    for &(_, l) in &changing {
        counts[distinct.partition_point(|&d| d < l)] += 1.0;
    }

    // Outer root-find on mu: total allocated budget is strictly decreasing
    // in mu, and its derivative is available in closed form from the inner
    // solution (df/dμ = −λ²(1+x) / (x³(1−μλ))), so a bracket-safeguarded
    // Newton replaces the former fixed 50-step bisection. Inner solves
    // warm-start from the previous outer iterate, so after the first pass
    // each distinct rate costs only a step or two of `invert_gain`.
    let mu_max = 1.0 / distinct[0]; // the slowest page has the largest gain-at-zero
    let mut xs = vec![f64::NAN; distinct.len()];
    let eval = |mu: f64, xs: &mut [f64]| -> (f64, f64) {
        let mut total = 0.0;
        let mut dtotal = 0.0;
        for ((k, &l), &c) in distinct.iter().enumerate().zip(&counts) {
            let y = mu * l;
            if y >= 1.0 {
                break; // abandoned — and so is every faster (later) rate
            }
            let x = invert_gain(y, xs[k]);
            xs[k] = x;
            total += c * l / x;
            dtotal -= c * l * l * (1.0 + x) / (x * x * x * (1.0 - y));
        }
        (total, dtotal)
    };
    let mut mu_lo = 0.0; // total → ∞ as mu → 0⁺
    let mut mu_hi = mu_max; // total = 0 at mu_max
    let mut mu = 0.5 * mu_max;
    for _ in 0..100 {
        let (total, dtotal) = eval(mu, &mut xs);
        if (total - budget_per_day).abs() <= 1e-12 * budget_per_day {
            break; // the final rescale absorbs the residual
        }
        if total > budget_per_day {
            mu_lo = mu;
        } else {
            mu_hi = mu;
        }
        if (mu_hi - mu_lo) < 1e-15 * mu_max {
            break;
        }
        let newton = mu - (total - budget_per_day) / dtotal;
        mu = if newton.is_finite() && newton > mu_lo && newton < mu_hi {
            newton
        } else {
            0.5 * (mu_lo + mu_hi)
        };
    }
    let mut freq_of = vec![0.0_f64; distinct.len()];
    for ((k, &l), &x) in distinct.iter().enumerate().zip(&xs) {
        let y = mu * l;
        if y < 1.0 {
            freq_of[k] = l / invert_gain(y, x);
        }
    }
    let mut zero_pages = rates.len() - changing.len();
    for &(i, l) in &changing {
        let f = freq_of[distinct.partition_point(|&d| d < l)];
        if f > 0.0 {
            frequencies[i] = f;
        } else {
            zero_pages += 1;
        }
    }
    // Rescale the residual bisection slack onto the positive entries so the
    // budget is met exactly.
    let total: f64 = frequencies.iter().sum();
    if total > 0.0 {
        let scale = budget_per_day / total;
        for f in &mut frequencies {
            *f *= scale;
        }
    }
    Ok(OptimalSolution {
        allocation: Allocation { frequencies, policy: RevisitPolicy::Optimal },
        multiplier: mu,
        zero_pages,
    })
}

/// Generate Figure 9's curve: optimal revisit frequency as a function of
/// the page's change rate, within a fixed reference collection.
///
/// The collection is a dense grid of rates from `rate_lo` to `rate_hi`
/// (log-spaced, `points` pages) with total budget `budget_per_day`; the
/// returned rows are `(λ, f*)` pairs. The shape — rising to a peak at
/// λ_h, then falling to zero — is scenario-independent (the paper: "the
/// shape of the graph is always the same").
pub fn optimal_frequency_curve(
    rate_lo: f64,
    rate_hi: f64,
    points: usize,
    budget_per_day: f64,
) -> Result<Vec<(f64, f64)>> {
    if !(rate_lo > 0.0 && rate_hi > rate_lo) {
        return Err(Error::invalid("need 0 < rate_lo < rate_hi"));
    }
    if points < 3 {
        return Err(Error::invalid("need at least 3 points"));
    }
    let rates: Vec<ChangeRate> = (0..points)
        .map(|i| {
            let t = i as f64 / (points - 1) as f64;
            ChangeRate((rate_lo.ln() + t * (rate_hi.ln() - rate_lo.ln())).exp())
        })
        .collect();
    let solution = optimal_allocation(&rates, budget_per_day)?;
    Ok(rates
        .iter()
        .zip(solution.allocation.frequencies.iter())
        .map(|(r, &f)| (r.per_day(), f))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{evaluate_allocation, proportional_allocation, uniform_allocation};

    fn rates(v: &[f64]) -> Vec<ChangeRate> {
        v.iter().map(|&x| ChangeRate(x)).collect()
    }

    #[test]
    fn budget_is_respected() {
        let rs = rates(&[0.01, 0.1, 0.5, 2.0, 0.0]);
        let sol = optimal_allocation(&rs, 3.0).unwrap();
        assert!((sol.allocation.total_budget() - 3.0).abs() < 1e-9);
        assert_eq!(sol.allocation.frequencies[4], 0.0, "static page gets nothing");
    }

    #[test]
    fn optimal_beats_uniform_and_proportional() {
        // A skewed rate mixture like the measured web: many slow pages, a
        // few very fast ones.
        let mut v = vec![0.005; 60];
        v.extend(vec![0.05; 25]);
        v.extend(vec![1.0; 10]);
        v.extend(vec![5.0; 5]);
        let rs = rates(&v);
        let budget = 10.0;
        let uni = uniform_allocation(&rs, budget).unwrap();
        let prop = proportional_allocation(&rs, budget).unwrap();
        let opt = optimal_allocation(&rs, budget).unwrap();
        let f_uni = evaluate_allocation(&rs, &uni);
        let f_prop = evaluate_allocation(&rs, &prop);
        let f_opt = evaluate_allocation(&rs, &opt.allocation);
        assert!(f_opt >= f_uni - 1e-9, "optimal {f_opt} vs uniform {f_uni}");
        assert!(f_opt >= f_prop - 1e-9, "optimal {f_opt} vs proportional {f_prop}");
        // The paper's 10–23% improvement claim is workload-dependent; on a
        // skewed mixture the gain over proportional should be clearly
        // visible.
        assert!(f_opt > f_prop * 1.05, "gain over proportional: {f_opt} vs {f_prop}");
    }

    #[test]
    fn figure9_shape_rises_then_falls() {
        let curve = optimal_frequency_curve(0.001, 10.0, 120, 30.0).unwrap();
        let freqs: Vec<f64> = curve.iter().map(|&(_, f)| f).collect();
        let peak_idx = freqs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(peak_idx > 5, "peak should not be at the slow end");
        assert!(peak_idx < freqs.len() - 5, "peak should not be at the fast end");
        // Rising before the peak (sampled).
        assert!(freqs[peak_idx / 2] < freqs[peak_idx]);
        // Falling after the peak, eventually to zero.
        assert!(freqs[freqs.len() - 1] < freqs[peak_idx]);
        assert_eq!(
            freqs[freqs.len() - 1], 0.0,
            "pages changing too fast are abandoned"
        );
    }

    #[test]
    fn equal_rates_get_equal_frequencies() {
        let rs = rates(&[0.2; 8]);
        let sol = optimal_allocation(&rs, 4.0).unwrap();
        for &f in &sol.allocation.frequencies {
            assert!((f - 0.5).abs() < 1e-9, "f={f}");
        }
    }

    #[test]
    fn all_static_collection() {
        let rs = rates(&[0.0, 0.0, 0.0]);
        let sol = optimal_allocation(&rs, 1.0).unwrap();
        assert_eq!(sol.allocation.frequencies, vec![0.0, 0.0, 0.0]);
        assert_eq!(sol.zero_pages, 3);
        assert!((evaluate_allocation(&rs, &sol.allocation) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn marginal_gain_properties() {
        // Decreasing in f, limit 1/λ at f→0.
        let l = 0.5;
        assert!((marginal_gain(l, 0.0) - 2.0).abs() < 1e-12);
        let mut prev = f64::INFINITY;
        for &f in &[0.01, 0.1, 1.0, 10.0, 100.0] {
            let g = marginal_gain(l, f);
            assert!(g < prev, "gain must decrease");
            assert!(g > 0.0);
            prev = g;
        }
    }

    #[test]
    fn kkt_conditions_hold() {
        // At the optimum every positive-frequency page has the same
        // marginal gain (the multiplier), and zero pages have gain-at-zero
        // below it.
        let rs = rates(&[0.01, 0.1, 1.0, 20.0]);
        let sol = optimal_allocation(&rs, 1.0).unwrap();
        let mu = sol.multiplier;
        for (r, &f) in rs.iter().zip(sol.allocation.frequencies.iter()) {
            if f > 0.0 {
                let g = marginal_gain(r.per_day(), f);
                assert!(
                    (g - mu).abs() < mu * 0.05,
                    "active page gain {g} should sit near mu {mu}"
                );
            } else if r.per_day() > 0.0 {
                assert!(1.0 / r.per_day() <= mu * 1.05, "abandoned page threshold");
            }
        }
    }

    #[test]
    fn newton_inversion_matches_bisection_oracle() {
        // The production inner solve (Newton on x = λ/f in `invert_gain`)
        // must agree with the original bracketed bisection across the whole
        // operating range, including near both asymptotes of g.
        for &lambda in &[1e-4, 0.01, 0.5, 1.0, 7.3, 100.0] {
            for &frac in &[1e-9, 1e-4, 0.01, 0.3, 0.5, 0.9, 0.999, 0.999_999] {
                let mu = frac / lambda; // μλ = frac ∈ (0, 1)
                let f_oracle = solve_frequency(lambda, mu);
                let f_newton = lambda / invert_gain(frac, f64::NAN);
                assert!(
                    (f_newton - f_oracle).abs() <= 1e-6 * f_oracle,
                    "λ={lambda} μλ={frac}: newton {f_newton} vs oracle {f_oracle}"
                );
                // Warm starts must converge to the same root.
                for &guess in &[f_newton * 0.1, f_newton * 10.0] {
                    let warm = lambda / invert_gain(frac, lambda / guess);
                    assert!(
                        (warm - f_newton).abs() <= 1e-9 * f_newton,
                        "warm start from {guess} drifted: {warm} vs {f_newton}"
                    );
                }
            }
        }
    }

    #[test]
    fn tight_budget_abandons_fastest_pages_first() {
        let rs = rates(&[0.01, 0.1, 50.0]);
        let sol = optimal_allocation(&rs, 0.05).unwrap();
        let f = &sol.allocation.frequencies;
        assert_eq!(f[2], 0.0, "hottest page abandoned under tight budget");
        assert!(f[0] > 0.0 || f[1] > 0.0);
    }

    #[test]
    fn validation_errors() {
        assert!(optimal_allocation(&[], 1.0).is_err());
        assert!(optimal_allocation(&rates(&[0.1]), -1.0).is_err());
        assert!(optimal_frequency_curve(0.0, 1.0, 10, 1.0).is_err());
        assert!(optimal_frequency_curve(0.1, 1.0, 2, 1.0).is_err());
    }
}
