//! Site-level statistics pooling (§5.3).
//!
//! *"Note that it is also possible to keep update statistics on larger
//! units than a page, such as a web site or a directory. If web pages on a
//! site change at similar frequencies, the crawler may trace how many times
//! the pages on that site changed for last 6 months, and get a confidence
//! interval based on the site-level statistics. In this case, the crawler
//! may get a tighter confidence interval … However, if pages on a site
//! change at highly different frequencies, this average change frequency
//! may not be sufficient."*
//!
//! [`SitePool`] aggregates the comparison counts of many pages and yields a
//! pooled EP estimate with its (tighter) confidence interval. The
//! `ablation_site_pooling` bench quantifies the trade-off the paper warns
//! about.

use crate::ep::EpEstimate;
use crate::history::ChangeHistory;
use webevo_stats::rate_ci_from_regular_access;
use webevo_types::{ChangeRate, Error, Result};

/// Pooled change statistics for a group of pages (a site or directory).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SitePool {
    comparisons: u64,
    detections: u64,
    monitored_days: f64,
    pages: u64,
}

impl SitePool {
    /// An empty pool.
    pub fn new() -> SitePool {
        SitePool::default()
    }

    /// Fold one page's history into the pool.
    pub fn add_history(&mut self, history: &ChangeHistory) {
        if history.has_data() {
            self.comparisons += history.comparisons();
            self.detections += history.detections();
            self.monitored_days += history.monitored_days();
            self.pages += 1;
        }
    }

    /// Pages contributing data.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Total comparisons across the pool.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Pooled EP estimate: bias-corrected rate over the pooled counts with
    /// the pooled confidence interval. The rate is the *site-average* rate;
    /// §5.3's caveat is that individual pages may sit far from it.
    pub fn estimate(&self, level: f64) -> Result<EpEstimate> {
        if self.comparisons == 0 {
            return Err(Error::InvalidState("pool has no comparisons".into()));
        }
        let interval = self.monitored_days / self.comparisons as f64;
        if interval <= 0.0 {
            return Err(Error::InvalidState("pool has zero monitored time".into()));
        }
        let num = self.comparisons as f64 - self.detections as f64 + 0.5;
        let den = self.comparisons as f64 + 0.5;
        let rate = ChangeRate(-(num / den).ln() / interval);
        let ci = rate_ci_from_regular_access(self.detections, self.comparisons, interval, level);
        Ok(EpEstimate { rate, ci, n: self.comparisons, detections: self.detections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ep::estimate_ep;
    use webevo_stats::{PoissonProcess, SimRng};
    use webevo_types::Checksum;

    fn history_for(lambda: f64, days: usize, seed: u64) -> ChangeHistory {
        let mut rng = SimRng::seed_from_u64(seed);
        let process = PoissonProcess::generate(&mut rng, lambda, days as f64 + 1.0);
        let mut h = ChangeHistory::new(days + 2);
        for day in 0..=days {
            let t = day as f64;
            h.record_visit(t, Checksum::of_version(seed, process.version_at(t)));
        }
        h
    }

    #[test]
    fn pooling_tightens_ci_for_homogeneous_site() {
        let lambda = 0.05;
        let mut pool = SitePool::new();
        let mut single_width = 0.0;
        for seed in 0..30 {
            let h = history_for(lambda, 60, seed);
            if seed == 0 {
                if let Ok(e) = estimate_ep(&h, 0.95) {
                    single_width = e.ci.width();
                }
            }
            pool.add_history(&h);
        }
        let pooled = pool.estimate(0.95).unwrap();
        assert!(pooled.ci.width() < single_width, "pooled CI should be tighter");
        assert!(pooled.ci.contains(lambda), "pooled CI covers the shared rate");
        assert_eq!(pool.pages(), 30);
    }

    #[test]
    fn pooled_rate_is_average_for_heterogeneous_site() {
        // Half the pages change at 0.01/day, half at 0.3/day: the pooled
        // estimate lands between — the paper's "less-than optimal" caveat.
        let mut pool = SitePool::new();
        for seed in 0..20 {
            let lambda = if seed % 2 == 0 { 0.01 } else { 0.3 };
            pool.add_history(&history_for(lambda, 120, 100 + seed));
        }
        let pooled = pool.estimate(0.95).unwrap();
        let r = pooled.rate.per_day();
        assert!(r > 0.02 && r < 0.3, "pooled rate {r} should sit between extremes");
    }

    #[test]
    fn empty_pool_errors() {
        assert!(SitePool::new().estimate(0.95).is_err());
    }

    #[test]
    fn histories_without_data_are_skipped() {
        let mut pool = SitePool::new();
        let h = ChangeHistory::new(10); // never visited
        pool.add_history(&h);
        assert_eq!(pool.pages(), 0);
    }
}
