//! The paper's web-evolution measurement study (§2–3), reproduced against
//! the synthetic web.
//!
//! Pipeline:
//!
//! 1. **Site selection** ([`selection`]): rank sites by site-level PageRank
//!    over a snapshot graph, take the top candidates, apply the
//!    webmaster-permission subsample — Table 1.
//! 2. **Daily active monitoring** ([`monitor`]): crawl every selected
//!    site's page window once a day for the experiment duration, recording
//!    presence and checksums — the §2.1 methodology, including its
//!    limitations (1-day granularity, Figure 1; window censoring,
//!    Figure 3).
//! 3. **Analysis** ([`analysis`]): average change intervals (Figure 2),
//!    visible lifespans by Methods 1 and 2 (Figure 4), the
//!    fraction-unchanged survival curves (Figure 5).
//! 4. **Model verification** ([`poisson_fit`]): the Figure 6 check that
//!    pages with a common mean change interval have exponentially
//!    distributed intervals.
//!
//! [`run_full_experiment`] chains all four and returns an
//! [`ExperimentReport`] whose tables print in the paper's format
//! ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![expect(
    clippy::disallowed_types,
    reason = "the monitor's page `index` is a `HashMap` that is only looked up, never iterated"
)]

pub mod analysis;
pub mod monitor;
pub mod poisson_fit;
pub mod report;
pub mod selection;

pub use analysis::{
    change_interval_histograms, lifespan_histograms, unchanged_curves, LifespanMethod,
};
pub use monitor::{DailyMonitor, MonitorConfig, MonitoringData, PageRecord};
pub use poisson_fit::{poisson_fit_for_interval, PoissonFitReport};
pub use selection::{select_sites, SiteSelection};

use webevo_sim::WebUniverse;
use webevo_stats::{IntervalHistogram, LifespanHistogram, SurvivalCurve};
use webevo_types::domain::PerDomain;

/// Everything the §2–3 experiment produces.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Table 1: the selected sites and their domain mix.
    pub selection: SiteSelection,
    /// Figure 2(a): change-interval histogram over all domains.
    pub fig2_overall: IntervalHistogram,
    /// Figure 2(b): per-domain change-interval histograms.
    pub fig2_by_domain: PerDomain<IntervalHistogram>,
    /// Figure 4(a), Method 1: lifespans with `s` as the estimate.
    pub fig4_method1: LifespanHistogram,
    /// Figure 4(a), Method 2: `2s` for censored pages.
    pub fig4_method2: LifespanHistogram,
    /// Figure 4(b): per-domain lifespans (Method 1, as in the paper).
    pub fig4_by_domain: PerDomain<LifespanHistogram>,
    /// Figure 5(a): fraction unchanged over all domains.
    pub fig5_overall: SurvivalCurve,
    /// Figure 5(b): per-domain fraction-unchanged curves.
    pub fig5_by_domain: PerDomain<SurvivalCurve>,
    /// Figure 6: Poisson-fit reports for the 10-day and 20-day groups.
    pub fig6: Vec<PoissonFitReport>,
    /// The raw monitoring data (for further analysis).
    pub data: MonitoringData,
}

/// Run the full §2–3 experiment on a universe: select sites, monitor them
/// daily, and compute every figure.
pub fn run_full_experiment(
    universe: &WebUniverse,
    monitor_config: &MonitorConfig,
    candidate_sites: usize,
    permitted_sites: usize,
) -> ExperimentReport {
    let selection = select_sites(universe, 0.0, candidate_sites, permitted_sites);
    let monitor = DailyMonitor::new(monitor_config.clone());
    let data = monitor.run(universe, &selection.selected);
    let (fig2_overall, fig2_by_domain) = change_interval_histograms(&data);
    let (fig4_method1, _) = lifespan_histograms(&data, LifespanMethod::Method1);
    let (fig4_method2, _) = lifespan_histograms(&data, LifespanMethod::Method2);
    let (_, fig4_by_domain) = lifespan_histograms(&data, LifespanMethod::Method1);
    let (fig5_overall, fig5_by_domain) = unchanged_curves(&data);
    let fig6 = vec![
        poisson_fit_for_interval(&data, 10.0, 0.25),
        poisson_fit_for_interval(&data, 20.0, 0.25),
    ];
    ExperimentReport {
        selection,
        fig2_overall,
        fig2_by_domain,
        fig4_method1,
        fig4_method2,
        fig4_by_domain,
        fig5_overall,
        fig5_by_domain,
        fig6,
        data,
    }
}
