//! Estimator **EB**: Bayesian inference over frequency classes.
//!
//! §5.3: *"EB tries to categorize pages into different frequency classes,
//! say, pages that change every week (class C_W) and pages that change
//! every month (class C_M). To implement EB, the UpdateModule stores the
//! probability that page pᵢ belongs to each frequency class … and updates
//! these probabilities based on detected changes. For instance, if the
//! UpdateModule learns that page p₁ did not change for one month, \[it\]
//! increases P{p₁ ∈ C_M} and decreases P{p₁ ∈ C_W}."*
//!
//! Each class is a Poisson rate hypothesis. An observation "changed (or
//! not) over an interval of `t` days" has likelihood `1 − e^{−λ_c t}`
//! (resp. `e^{−λ_c t}`) under class `c`; the posterior is updated by
//! Bayes' rule. The estimator reports the MAP class and the
//! posterior-mean rate.

use webevo_types::{wire_struct, ChangeRate, Error, Result};

/// A frequency-class hypothesis: a label and its Poisson rate.
#[derive(Clone, Debug, PartialEq)]
pub struct FrequencyClass {
    /// Human-readable label ("daily", "weekly", …).
    pub label: String,
    /// The class's change rate.
    pub rate: ChangeRate,
}

impl FrequencyClass {
    /// Build a class from a mean change interval in days.
    fn per_interval(label: &str, days: f64) -> FrequencyClass {
        FrequencyClass {
            label: label.to_string(),
            rate: ChangeRate::per_interval_days(days),
        }
    }
}

/// The Bayesian frequency-class estimator for one page.
#[derive(Clone, Debug, PartialEq)]
pub struct BayesianEstimator {
    classes: Vec<FrequencyClass>,
    /// Posterior probabilities, kept normalized.
    posterior: Vec<f64>,
    observations: u64,
}

impl BayesianEstimator {
    /// Create with a uniform prior over `classes`.
    pub fn uniform_prior(classes: Vec<FrequencyClass>) -> Result<BayesianEstimator> {
        if classes.is_empty() {
            return Err(Error::invalid("need at least one frequency class"));
        }
        Ok(BayesianEstimator::uniform(classes))
    }

    /// A uniform prior over [`BayesianEstimator::paper_classes`] — the
    /// state an EB UpdateModule starts every page from. Infallible: the
    /// paper's classes are a fixed, non-empty list.
    pub fn paper_prior() -> BayesianEstimator {
        BayesianEstimator::uniform(BayesianEstimator::paper_classes())
    }

    /// A uniform prior over non-empty `classes`.
    fn uniform(classes: Vec<FrequencyClass>) -> BayesianEstimator {
        let n = classes.len();
        BayesianEstimator {
            classes,
            posterior: vec![1.0 / n as f64; n],
            observations: 0,
        }
    }

    /// The paper's example classes (weekly C_W and monthly C_M) plus the
    /// daily and 4-monthly extremes §3.1 measured — a practical default
    /// spanning Figure 2's bins.
    pub fn paper_classes() -> Vec<FrequencyClass> {
        vec![
            FrequencyClass::per_interval("daily", 1.0),
            FrequencyClass::per_interval("weekly", webevo_types::time::WEEK),
            FrequencyClass::per_interval("monthly", webevo_types::time::MONTH),
            FrequencyClass::per_interval("quarterly+", webevo_types::time::FOUR_MONTHS),
        ]
    }

    /// Update the posterior with one observation: the page was seen
    /// `changed` (or not) over an interval of `interval_days` since the
    /// previous visit.
    pub fn observe(&mut self, interval_days: f64, changed: bool) {
        assert!(interval_days > 0.0, "observation interval must be positive");
        let mut total = 0.0;
        for (i, class) in self.classes.iter().enumerate() {
            let p_change = class.rate.change_probability(interval_days);
            let likelihood = if changed { p_change } else { 1.0 - p_change };
            // Floor the likelihood so a single surprising observation cannot
            // zero out a class forever (all-zero posteriors are unusable).
            self.posterior[i] *= likelihood.max(1e-300);
            total += self.posterior[i];
        }
        if total > 0.0 {
            for p in &mut self.posterior {
                *p /= total;
            }
        } else {
            // Complete underflow: reset to uniform rather than NaN.
            let n = self.posterior.len() as f64;
            for p in &mut self.posterior {
                *p = 1.0 / n;
            }
        }
        self.observations += 1;
    }

    /// Observations absorbed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Maximum a-posteriori class.
    pub fn map_class(&self) -> &FrequencyClass {
        let (idx, _) = self
            .posterior
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("posterior has no NaN"))
            .expect("at least one class");
        &self.classes[idx]
    }

    /// Posterior-mean change rate — the scheduling input.
    pub fn posterior_mean_rate(&self) -> ChangeRate {
        let mean = self
            .classes
            .iter()
            .zip(self.posterior.iter())
            .map(|(c, &p)| c.rate.per_day() * p)
            .sum();
        ChangeRate(mean)
    }
}

wire_struct!(FrequencyClass { label, rate });
// A decoded estimator is checked, not trusted: `observe` and `map_class`
// index the posterior by class.
wire_struct!(BayesianEstimator { classes, posterior, observations }
    reject |e| e.classes.is_empty() || e.posterior.len() != e.classes.len()
        => "Bayesian estimator needs at least one class and one posterior entry per class");

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_stats::{PoissonProcess, SimRng};
    use webevo_types::{BinDecode, BinEncode, BinReader};

    fn weekly_monthly() -> BayesianEstimator {
        BayesianEstimator::uniform_prior(vec![
            FrequencyClass::per_interval("weekly", 7.0),
            FrequencyClass::per_interval("monthly", 30.0),
        ])
        .unwrap()
    }

    #[test]
    fn papers_update_direction() {
        // "if the UpdateModule learns that page p1 did not change for one
        // month, \[it\] increases P{C_M} and decreases P{C_W}".
        let mut e = weekly_monthly();
        let before = e.posterior.to_vec();
        e.observe(30.0, false);
        assert!(e.posterior[1] > before[1], "P(monthly) should increase");
        assert!(e.posterior[0] < before[0], "P(weekly) should decrease");
    }

    #[test]
    fn change_observation_favors_fast_class() {
        let mut e = weekly_monthly();
        e.observe(1.0, true);
        assert!(e.posterior[0] > 0.5, "a quick change favors weekly");
        assert_eq!(e.map_class().label, "weekly");
    }

    #[test]
    fn posterior_stays_normalized() {
        let mut e = weekly_monthly();
        for k in 0..50 {
            e.observe(1.0 + (k % 5) as f64, k % 3 == 0);
            let sum: f64 = e.posterior.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
        }
    }

    #[test]
    fn converges_to_true_class() {
        // Simulate a genuinely weekly page observed daily for a year.
        let lambda = 1.0 / 7.0;
        let mut rng = SimRng::seed_from_u64(3);
        let process = PoissonProcess::generate(&mut rng, lambda, 400.0);
        let mut e = BayesianEstimator::paper_prior();
        let mut last_version = 0;
        for day in 1..=365 {
            let v = process.version_at(day as f64);
            e.observe(1.0, v != last_version);
            last_version = v;
        }
        assert_eq!(e.map_class().label, "weekly");
        assert!(e.posterior_mean_rate().per_day() > 0.05);
        assert!(e.posterior_mean_rate().per_day() < 0.4);
    }

    #[test]
    fn static_page_converges_to_slowest_class() {
        let mut e = BayesianEstimator::paper_prior();
        for day in 0..120 {
            let _ = day;
            e.observe(1.0, false);
        }
        assert_eq!(e.map_class().label, "quarterly+");
    }

    #[test]
    fn prior_validation() {
        assert!(BayesianEstimator::uniform_prior(vec![]).is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_interval_observation() {
        let mut e = weekly_monthly();
        e.observe(0.0, true);
    }

    #[test]
    fn decode_rejects_an_estimator_without_classes() {
        let empty = BayesianEstimator { classes: vec![], posterior: vec![], observations: 0 };
        let mut bytes = Vec::new();
        empty.bin_encode(&mut bytes);
        assert!(BayesianEstimator::bin_decode(&mut BinReader::new(&bytes)).is_err());
    }

    #[test]
    fn decode_rejects_a_posterior_that_does_not_match_the_classes() {
        let mut e = weekly_monthly();
        let mut bytes = Vec::new();
        e.bin_encode(&mut bytes);
        assert_eq!(BayesianEstimator::bin_decode(&mut BinReader::new(&bytes)), Ok(e.clone()));
        e.posterior.push(0.0);
        bytes.clear();
        e.bin_encode(&mut bytes);
        assert!(BayesianEstimator::bin_decode(&mut BinReader::new(&bytes)).is_err());
    }
}
