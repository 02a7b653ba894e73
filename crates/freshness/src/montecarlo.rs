//! Monte Carlo cross-validation of the analytic freshness formulas.
//!
//! Each simulation realizes Poisson change processes for a population of
//! pages, replays a crawl policy against them, and measures the fraction of
//! up-to-date copies over a dense time grid. The integration tests assert
//! agreement with [`crate::analytic`] — guarding the derivations the paper
//! omitted.

use crate::policy::{CrawlPolicy, UpdateMode};
#[cfg(test)]
use crate::policy::CrawlMode;
use webevo_stats::{PoissonProcess, SimRng};

/// Result of a Monte Carlo freshness run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonteCarloFreshness {
    /// Time-averaged freshness of the current collection.
    pub current_avg: f64,
    /// Number of page-instants sampled.
    pub samples: usize,
}

/// Simulate `pages` Poisson pages of rate `lambda` under `policy` for
/// `cycles` full cycles (after one warm-up cycle) and measure the current
/// collection's time-averaged freshness on `grid` points per cycle.
///
/// Crawl instants: page `i` of `n` is crawled at burst offset
/// `(i + 0.5)/n · w` in every cycle — the uniform spread both crawler modes
/// assume in §4.
pub fn simulate_policy(
    policy: &CrawlPolicy,
    lambda: f64,
    pages: usize,
    cycles: usize,
    grid: usize,
    seed: u64,
) -> MonteCarloFreshness {
    assert!(pages > 0 && cycles > 0 && grid > 1);
    let cycle = policy.cycle_days;
    let window = policy.mode.window_days(cycle);
    let warmup = cycle; // one full cycle so every page has been crawled
    let horizon = warmup + cycle * cycles as f64 + cycle;
    let root = SimRng::seed_from_u64(seed);

    // Realize each page's change schedule once.
    let processes: Vec<PoissonProcess> = (0..pages)
        .map(|i| {
            let mut rng = root.fork(i as u64);
            PoissonProcess::generate(&mut rng, lambda, horizon)
        })
        .collect();

    // Per-page crawl offset within the burst.
    let offsets: Vec<f64> = (0..pages)
        .map(|i| (i as f64 + 0.5) / pages as f64 * window)
        .collect();

    let mut freshness_sum = 0.0;
    let mut samples = 0usize;
    for g in 0..grid * cycles {
        let t = warmup + cycle * cycles as f64 * g as f64 / (grid * cycles) as f64;
        let mut fresh = 0usize;
        for (i, process) in processes.iter().enumerate() {
            let sync_time = last_serving_sync(policy, t, offsets[i], cycle, window);
            // Copy is fresh iff the page did not change since the sync.
            if !process.any_in(sync_time, t) {
                fresh += 1;
            }
        }
        freshness_sum += fresh as f64 / pages as f64;
        samples += pages;
    }
    MonteCarloFreshness {
        current_avg: freshness_sum / (grid * cycles) as f64,
        samples,
    }
}

/// The crawl instant whose copy the *current collection* serves at time
/// `t`, for a page crawled at burst offset `offset` each cycle.
fn last_serving_sync(
    policy: &CrawlPolicy,
    t: f64,
    offset: f64,
    cycle: f64,
    window: f64,
) -> f64 {
    let cycle_idx = (t / cycle).floor();
    let cycle_start = cycle_idx * cycle;
    let in_cycle = t - cycle_start;
    match policy.update {
        UpdateMode::InPlace => {
            // Served copy is from this cycle's crawl if it already happened,
            // else last cycle's.
            if in_cycle >= offset {
                cycle_start + offset
            } else {
                cycle_start - cycle + offset
            }
        }
        UpdateMode::Shadow => {
            // The swap happens at the burst end. The serving collection was
            // crawled in the cycle whose burst most recently completed.
            let last_swap_cycle_start = if in_cycle >= window {
                cycle_start
            } else {
                cycle_start - cycle
            };
            last_swap_cycle_start + offset
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::{
        freshness_batch_shadow, freshness_periodic, freshness_steady_shadow,
    };

    const LAMBDA: f64 = 1.0 / 10.0; // fast pages: sharper differences
    const CYCLE: f64 = 30.0;

    /// Single-page freshness simulation with an arbitrary fixed revisit
    /// interval — the Monte Carlo counterpart of
    /// [`crate::analytic::freshness_periodic`], the Figure 9 optimizer's
    /// objective.
    fn simulate_periodic(
        lambda: f64,
        interval_days: f64,
        horizon_days: f64,
        grid: usize,
        seed: u64,
    ) -> f64 {
        assert!(interval_days > 0.0 && horizon_days > interval_days);
        let mut rng = SimRng::seed_from_u64(seed);
        let process = PoissonProcess::generate(&mut rng, lambda, horizon_days);
        let mut fresh = 0usize;
        let start = interval_days; // skip the pre-first-sync ramp
        for g in 0..grid {
            let t = start + (horizon_days - start) * g as f64 / grid as f64;
            let sync = (t / interval_days).floor() * interval_days;
            if !process.any_in(sync, t) {
                fresh += 1;
            }
        }
        fresh as f64 / grid as f64
    }

    fn run(policy: CrawlPolicy) -> f64 {
        // 1600 pages × 8 cycles keeps the Monte Carlo standard error well
        // under the 0.02 tolerance (400 × 4 sat right at its edge).
        simulate_policy(&policy, LAMBDA, 1600, 8, 60, 42).current_avg
    }

    #[test]
    fn steady_inplace_matches_formula() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Steady,
            update: UpdateMode::InPlace,
            cycle_days: CYCLE,
        };
        let mc = run(policy);
        let analytic = freshness_periodic(LAMBDA, CYCLE);
        assert!((mc - analytic).abs() < 0.02, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn batch_inplace_matches_formula() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Batch { window_days: 7.0 },
            update: UpdateMode::InPlace,
            cycle_days: CYCLE,
        };
        let mc = run(policy);
        let analytic = freshness_periodic(LAMBDA, CYCLE);
        assert!((mc - analytic).abs() < 0.02, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn steady_shadow_matches_formula() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Steady,
            update: UpdateMode::Shadow,
            cycle_days: CYCLE,
        };
        let mc = run(policy);
        let analytic = freshness_steady_shadow(LAMBDA, CYCLE);
        assert!((mc - analytic).abs() < 0.02, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn batch_shadow_matches_formula() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Batch { window_days: 7.0 },
            update: UpdateMode::Shadow,
            cycle_days: CYCLE,
        };
        let mc = run(policy);
        let analytic = freshness_batch_shadow(LAMBDA, CYCLE, 7.0);
        assert!((mc - analytic).abs() < 0.02, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn periodic_single_page_matches_formula() {
        let mc = simulate_periodic(0.1, 10.0, 2000.0, 20_000, 7);
        let analytic = freshness_periodic(0.1, 10.0);
        assert!((mc - analytic).abs() < 0.02, "mc={mc} analytic={analytic}");
    }

    #[test]
    fn deterministic_given_seed() {
        let policy = CrawlPolicy {
            mode: CrawlMode::Steady,
            update: UpdateMode::InPlace,
            cycle_days: CYCLE,
        };
        let a = simulate_policy(&policy, LAMBDA, 50, 2, 20, 9).current_avg;
        let b = simulate_policy(&policy, LAMBDA, 50, 2, 20, 9).current_avg;
        assert_eq!(a, b);
    }
}
