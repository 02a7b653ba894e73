//! Figure 6: verifying the Poisson model.
//!
//! §3.4: *"we select only the pages whose average change intervals are,
//! say, 10 days and plot the distribution of their change intervals. If the
//! pages indeed follow a Poisson process, this graph should be distributed
//! exponentially."* We reproduce the selection, the observed-vs-predicted
//! series (log-scale in the paper), and add a quantitative
//! goodness-of-fit verdict the paper only eyeballs.

use crate::monitor::MonitoringData;
use webevo_stats::gof::{chi_square_geometric_fit, figure6_series};
use webevo_stats::GofResult;

/// The Figure 6 data for one interval group.
#[derive(Clone, Debug)]
pub struct PoissonFitReport {
    /// The target mean interval (10 or 20 days in the paper).
    pub target_interval_days: f64,
    /// Pages whose estimated mean interval fell within the tolerance band.
    pub pages_in_group: usize,
    /// Total change intervals collected from them.
    pub samples: usize,
    /// `(interval_days, observed_fraction, poisson_predicted_fraction)`
    /// rows — the bars and the straight line of Figure 6.
    pub series: Vec<(f64, f64, f64)>,
    /// Chi-square goodness-of-fit verdict against the exponential.
    pub chi_square: GofResult,
}

/// Build the Figure 6 report for pages with estimated mean change interval
/// within `target ± tolerance·target` days.
pub fn poisson_fit_for_interval(
    data: &MonitoringData,
    target_interval_days: f64,
    tolerance: f64,
) -> PoissonFitReport {
    assert!(target_interval_days > 0.0 && tolerance > 0.0);
    let lo = target_interval_days * (1.0 - tolerance);
    let hi = target_interval_days * (1.0 + tolerance);
    let mut intervals: Vec<f64> = Vec::new();
    let mut pages = 0usize;
    for rec in &data.records {
        if let Some(mean) = rec.mean_change_interval() {
            if mean >= lo && mean <= hi {
                pages += 1;
                intervals.extend(rec.change_intervals());
            }
        }
    }
    // Figure 6 plots intervals up to ~8× the mean; 16 bins like the paper's
    // visual granularity.
    let max_days = target_interval_days * 8.0;
    let series = figure6_series(&intervals, max_days, 16);
    // Daily monitoring discretizes intervals to whole days, so the
    // quantitative check uses the geometric law the Poisson model implies
    // for *detected* intervals (see stats::gof).
    let chi_square = chi_square_geometric_fit(&intervals);
    PoissonFitReport {
        target_interval_days,
        pages_in_group: pages,
        samples: intervals.len(),
        series,
        chi_square,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{DailyMonitor, MonitorConfig};
    use webevo_sim::{UniverseConfig, WebUniverse};
    use webevo_types::SiteId;

    fn monitored_data() -> MonitoringData {
        // A bigger universe so the 10-day group is well populated.
        let mut cfg = UniverseConfig::test_scale(31);
        cfg.pages_per_site = 80;
        cfg.window_size = 80;
        cfg.churn = false; // keep pages alive so intervals accumulate
        let u = WebUniverse::generate(cfg);
        let sites: Vec<SiteId> = u.sites().iter().map(|s| s.id).collect();
        DailyMonitor::new(MonitorConfig { days: 128, failure_rate: 0.0, time_of_day: 0.0 })
            .run(&u, &sites)
    }

    #[test]
    fn ten_day_group_is_roughly_exponential() {
        let data = monitored_data();
        let report = poisson_fit_for_interval(&data, 10.0, 0.3);
        assert!(report.pages_in_group > 5, "pages={}", report.pages_in_group);
        assert!(report.samples > 50, "samples={}", report.samples);
        // The simulated web *is* Poisson, so the fit must not be strongly
        // rejected. Daily granularity discretizes the intervals, so allow
        // a lenient threshold rather than a clean 5% test.
        assert!(
            report.chi_square.p_value > 0.005,
            "p={}",
            report.chi_square.p_value
        );
        // Observed fractions should decay: first bins dominate later ones.
        let obs: Vec<f64> = report.series.iter().map(|r| r.1).collect();
        let head: f64 = obs[..4].iter().sum();
        let tail: f64 = obs[obs.len() - 4..].iter().sum();
        assert!(head > tail * 3.0, "exponential decay: head {head} vs tail {tail}");
    }

    #[test]
    fn prediction_tracks_observation() {
        let data = monitored_data();
        let report = poisson_fit_for_interval(&data, 10.0, 0.3);
        for &(center, obs, pred) in &report.series {
            assert!(
                (obs - pred).abs() < 0.12,
                "bin {center}: obs {obs} vs pred {pred}"
            );
        }
    }

    #[test]
    fn empty_group_is_benign() {
        let data = MonitoringData::from_records(10, vec![]);
        let report = poisson_fit_for_interval(&data, 10.0, 0.2);
        assert_eq!(report.pages_in_group, 0);
        assert_eq!(report.samples, 0);
        assert!(report.series.is_empty());
        assert_eq!(report.chi_square.p_value, 1.0);
    }
}
