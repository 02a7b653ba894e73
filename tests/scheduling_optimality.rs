//! Scheduling integration tests: the optimal allocation dominates the
//! baselines across workloads and budgets, and the Figure 9 curve behaves.

use webevo::prelude::*;
use webevo::sim::DomainProfile;

fn paper_mixture(seed: u64, per_domain: usize) -> Vec<ChangeRate> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut rates = Vec::new();
    for domain in Domain::ALL {
        let profile = DomainProfile::calibrated(domain);
        for _ in 0..per_domain {
            rates.push(profile.sample_rate(&mut rng));
        }
    }
    rates
}

#[test]
fn optimal_dominates_across_budgets() {
    let rates = paper_mixture(1, 150);
    for &cycle_days in &[2.0, 10.0, 30.0, 90.0] {
        let budget = rates.len() as f64 / cycle_days;
        let uni = uniform_allocation(&rates, budget).unwrap();
        let prop = proportional_allocation(&rates, budget).unwrap();
        let opt = optimal_allocation(&rates, budget).unwrap();
        let f_uni = evaluate_allocation(&rates, &uni);
        let f_prop = evaluate_allocation(&rates, &prop);
        let f_opt = evaluate_allocation(&rates, &opt.allocation);
        assert!(
            f_opt >= f_uni - 1e-9 && f_opt >= f_prop - 1e-9,
            "cycle {cycle_days}: opt {f_opt} vs uni {f_uni} / prop {f_prop}"
        );
    }
}

#[test]
fn paper_gain_band_under_scarce_budget() {
    // The paper: optimizing revisit frequencies gains 10–23% freshness.
    // The gain depends on workload and budget; under a monthly budget on
    // the paper-calibrated mixture the optimal policy must beat uniform
    // by a clearly material margin within (or beyond) that band.
    let rates = paper_mixture(2, 200);
    let budget = rates.len() as f64 / 30.0;
    let uni = uniform_allocation(&rates, budget).unwrap();
    let opt = optimal_allocation(&rates, budget).unwrap();
    let f_uni = evaluate_allocation(&rates, &uni);
    let f_opt = evaluate_allocation(&rates, &opt.allocation);
    let gain = f_opt / f_uni - 1.0;
    assert!(
        gain > 0.08,
        "gain {gain:.3} should approach the paper's 10-23% band (uni {f_uni}, opt {f_opt})"
    );
}

#[test]
fn proportional_is_the_worst_policy_on_skewed_rates() {
    // The paper's §4.3 example shows proportional revisiting wastes budget
    // on hopeless pages. On a mixture with very hot pages it must lose to
    // uniform.
    let mut rates = paper_mixture(3, 100);
    // Spike in some hopeless, once-a-visit-plus pages.
    for _ in 0..40 {
        rates.push(ChangeRate(3.0));
    }
    let budget = rates.len() as f64 / 30.0;
    let uni = uniform_allocation(&rates, budget).unwrap();
    let prop = proportional_allocation(&rates, budget).unwrap();
    let f_uni = evaluate_allocation(&rates, &uni);
    let f_prop = evaluate_allocation(&rates, &prop);
    assert!(
        f_prop < f_uni,
        "proportional {f_prop} must lose to uniform {f_uni} on skewed rates"
    );
}

#[test]
fn figure9_peak_moves_with_budget() {
    // More budget → the crawler can afford to chase faster pages: the
    // abandonment threshold (where f* returns to 0) moves right.
    let tight = optimal_frequency_curve(0.001, 20.0, 150, 5.0).unwrap();
    let rich = optimal_frequency_curve(0.001, 20.0, 150, 60.0).unwrap();
    let last_active = |curve: &[(f64, f64)]| {
        curve
            .iter()
            .rev()
            .find(|&&(_, f)| f > 0.0)
            .map(|&(l, _)| l)
            .unwrap_or(0.0)
    };
    assert!(
        last_active(&rich) > last_active(&tight),
        "richer budgets chase faster pages"
    );
}

#[test]
fn allocation_budget_conservation_property() {
    // Property-style sweep: for random mixtures, every policy conserves
    // the budget and produces non-negative frequencies.
    let mut rng = SimRng::seed_from_u64(11);
    for trial in 0..20 {
        let n = 5 + (trial % 7) * 13;
        let rates: Vec<ChangeRate> = (0..n)
            .map(|_| ChangeRate(rng.uniform_range(0.0, 2.0)))
            .collect();
        let budget = rng.uniform_range(0.5, 20.0);
        for alloc in [
            uniform_allocation(&rates, budget).unwrap(),
            proportional_allocation(&rates, budget).unwrap(),
            optimal_allocation(&rates, budget).unwrap().allocation,
        ] {
            assert!((alloc.total_budget() - budget).abs() < 1e-6);
            assert!(alloc.frequencies.iter().all(|&f| f >= 0.0));
        }
    }
}
