//! Allocation baselines and the shared evaluation metric.

use webevo_freshness::freshness_periodic;
use webevo_types::{ChangeRate, Error, Result};

/// Which revisit policy to use (§4.3's design axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RevisitPolicy {
    /// Same frequency for every page (the "fixed frequency" choice).
    Uniform,
    /// Frequency proportional to the page's change rate — the intuition the
    /// paper's two-page example refutes.
    Proportional,
    /// The freshness-optimal allocation of \[CGM99b\] (Figure 9).
    Optimal,
}

/// A per-page revisit-frequency assignment (visits per day), aligned with
/// the rate slice it was computed from.
#[derive(Clone, Debug, PartialEq)]
pub struct Allocation {
    /// Visits per day per page.
    pub frequencies: Vec<f64>,
    /// The policy that produced it.
    pub policy: RevisitPolicy,
}

impl Allocation {
    /// Total visits per day consumed.
    pub fn total_budget(&self) -> f64 {
        self.frequencies.iter().sum()
    }

    /// Revisit interval per page in days (`∞` where frequency is 0).
    pub fn intervals(&self) -> Vec<f64> {
        self.frequencies
            .iter()
            .map(|&f| if f > 0.0 { 1.0 / f } else { f64::INFINITY })
            .collect()
    }
}

fn validate(rates: &[ChangeRate], budget_per_day: f64) -> Result<()> {
    if rates.is_empty() {
        return Err(Error::invalid("allocation needs at least one page"));
    }
    if budget_per_day <= 0.0 || !budget_per_day.is_finite() {
        return Err(Error::invalid("budget must be positive and finite"));
    }
    if rates.iter().any(|r| !r.is_valid()) {
        return Err(Error::invalid("change rates must be finite and non-negative"));
    }
    Ok(())
}

/// Uniform allocation: every page visited at `budget / n` per day.
pub fn uniform_allocation(rates: &[ChangeRate], budget_per_day: f64) -> Result<Allocation> {
    validate(rates, budget_per_day)?;
    let f = budget_per_day / rates.len() as f64;
    Ok(Allocation { frequencies: vec![f; rates.len()], policy: RevisitPolicy::Uniform })
}

/// Proportional allocation: `fᵢ ∝ λᵢ`, with the degenerate all-static
/// collection falling back to uniform (there is nothing to be proportional
/// to).
pub fn proportional_allocation(
    rates: &[ChangeRate],
    budget_per_day: f64,
) -> Result<Allocation> {
    validate(rates, budget_per_day)?;
    let total_rate: f64 = rates.iter().map(|r| r.per_day()).sum();
    if total_rate <= 0.0 {
        let mut a = uniform_allocation(rates, budget_per_day)?;
        a.policy = RevisitPolicy::Proportional;
        return Ok(a);
    }
    let frequencies = rates
        .iter()
        .map(|r| budget_per_day * r.per_day() / total_rate)
        .collect();
    Ok(Allocation { frequencies, policy: RevisitPolicy::Proportional })
}

/// Expected collection freshness of an allocation: the mean over pages of
/// the periodic-sync freshness `F(λᵢ, Iᵢ)`, with the conventions
/// `F = 1` for static pages and `F = 0` for changing pages never visited.
pub fn evaluate_allocation(rates: &[ChangeRate], allocation: &Allocation) -> f64 {
    assert_eq!(
        rates.len(),
        allocation.frequencies.len(),
        "allocation must align with rates"
    );
    let n = rates.len() as f64;
    rates
        .iter()
        .zip(allocation.frequencies.iter())
        .map(|(r, &f)| {
            if r.per_day() == 0.0 {
                1.0
            } else if f <= 0.0 {
                0.0
            } else {
                freshness_periodic(r.per_day(), 1.0 / f)
            }
        })
        .sum::<f64>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(v: &[f64]) -> Vec<ChangeRate> {
        v.iter().map(|&x| ChangeRate(x)).collect()
    }

    #[test]
    fn uniform_splits_evenly() {
        let a = uniform_allocation(&rates(&[0.1, 0.2, 0.3]), 3.0).unwrap();
        assert_eq!(a.frequencies, vec![1.0, 1.0, 1.0]);
        assert!((a.total_budget() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn proportional_tracks_rates() {
        let a = proportional_allocation(&rates(&[0.1, 0.3]), 4.0).unwrap();
        assert!((a.frequencies[0] - 1.0).abs() < 1e-12);
        assert!((a.frequencies[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn proportional_all_static_falls_back_to_uniform() {
        let a = proportional_allocation(&rates(&[0.0, 0.0]), 2.0).unwrap();
        assert_eq!(a.frequencies, vec![1.0, 1.0]);
    }

    #[test]
    fn papers_two_page_example() {
        // §4.3: p1 changes daily, p2 changes every second; one visit/day
        // total. Visiting p1 (uniform would split, but compare the two pure
        // strategies): all-budget-on-p1 beats all-budget-on-p2.
        let rs = rates(&[1.0, 86_400.0]);
        let visit_p1 = Allocation {
            frequencies: vec![1.0, 0.0],
            policy: RevisitPolicy::Optimal,
        };
        let visit_p2 = Allocation {
            frequencies: vec![0.0, 1.0],
            policy: RevisitPolicy::Optimal,
        };
        let f1 = evaluate_allocation(&rs, &visit_p1);
        let f2 = evaluate_allocation(&rs, &visit_p2);
        assert!(f1 > f2, "visiting the slower page wins: {f1} vs {f2}");
        // The paper's numbers: freshness ≈ 0.5·0.632 ≈ 0.32 vs ≈ 0.
        assert!((f1 - 0.316).abs() < 0.01);
        assert!(f2 < 1e-4);
    }

    #[test]
    fn evaluation_conventions() {
        let rs = rates(&[0.0, 0.5]);
        let a = Allocation { frequencies: vec![0.0, 0.0], policy: RevisitPolicy::Uniform };
        // Static page counts as fresh, unvisited changing page as stale.
        assert!((evaluate_allocation(&rs, &a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn intervals_inverse_of_frequencies() {
        let a = Allocation { frequencies: vec![2.0, 0.0], policy: RevisitPolicy::Uniform };
        let iv = a.intervals();
        assert_eq!(iv[0], 0.5);
        assert!(iv[1].is_infinite());
    }

    #[test]
    fn validation_errors() {
        assert!(uniform_allocation(&[], 1.0).is_err());
        assert!(uniform_allocation(&rates(&[0.1]), 0.0).is_err());
        assert!(uniform_allocation(&rates(&[0.1]), f64::INFINITY).is_err());
        assert!(proportional_allocation(&rates(&[-0.1]), 1.0).is_err());
    }
}
