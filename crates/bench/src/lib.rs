//! Fixtures of the `repro` binary.

#![forbid(unsafe_code)]

use std::time::Instant;
use webevo::prelude::*;

/// Median wall-clock seconds of `reps` invocations of `f` (the upper
/// middle sample when `reps` is even). The timing primitive of `repro
/// fleet`'s legs: a fleet run is deterministic, so repetitions produce
/// identical results and the median only damps scheduler noise — one
/// noisy-neighbor stall on a shared CI runner must not trip the
/// regression gate.
pub fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples = (0..reps)
        .map(|_| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the benchmark helpers measure real elapsed time"
            )]
            let start = Instant::now();
            let out = f();
            let secs = start.elapsed().as_secs_f64();
            std::hint::black_box(out);
            secs
        })
        .collect();
    median(samples)
}

/// The middle of `samples` by value, the upper one of two.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// The standard reproduction universe: medium scale (Table 1 domain
/// ratio, 100-page windows), fixed seed.
pub fn repro_universe() -> WebUniverse {
    WebUniverse::generate(UniverseConfig::medium_scale(1999))
}

/// The paper's Table 2 rate: one change per four months.
pub const TABLE2_LAMBDA: f64 = 1.0 / 120.0;

/// The paper-calibrated change-rate mixture used by scheduling
/// experiments: `per_domain` pages per Table 1 domain class.
pub fn paper_rate_mixture(seed: u64, per_domain: usize) -> Vec<ChangeRate> {
    use webevo::sim::DomainProfile;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut rates = Vec::with_capacity(per_domain * 4);
    for domain in Domain::ALL {
        let profile = DomainProfile::calibrated(domain);
        for _ in 0..per_domain {
            rates.push(profile.sample_rate(&mut rng));
        }
    }
    rates
}

/// Run the full §2–3 experiment on the repro universe (128 monitored
/// days). Expensive — cache the result when calling repeatedly.
pub fn repro_experiment() -> ExperimentReport {
    let universe = repro_universe();
    let candidates = universe.site_count();
    let permitted = candidates * 270 / 400;
    run_full_experiment(
        &universe,
        &MonitorConfig { days: 128, failure_rate: 0.0, time_of_day: 0.0 },
        candidates,
        permitted,
    )
}

#[cfg(test)]
mod tests {
    use super::{median, median_secs};

    #[test]
    fn median_is_the_middle_sample_wherever_it_ran() {
        assert_eq!(median(vec![0.12, 0.0, 0.04]), 0.04);
        assert_eq!(median(vec![0.04, 0.12, 0.0, 0.08]), 0.08, "even: the upper middle");
        assert_eq!(median(vec![0.04]), 0.04);
    }

    #[test]
    fn median_secs_runs_every_repetition_and_times_it() {
        for reps in [3, 4] {
            let mut calls = 0;
            let secs = median_secs(reps, || calls += 1);
            assert_eq!(calls, reps);
            assert!(secs >= 0.0 && secs.is_finite());
        }
    }
}
