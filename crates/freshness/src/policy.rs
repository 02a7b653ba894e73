//! The crawler design space of §4: crawl mode × update mode.

use std::fmt;

/// How the crawler spreads its visits over a cycle (§4 choice 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CrawlMode {
    /// Runs continuously; every page is revisited once per cycle, with
    /// visits spread uniformly over the whole cycle.
    Steady,
    /// Runs in a burst: all visits happen inside the first
    /// `window_days` of each cycle, then the crawler idles.
    Batch {
        /// Length of the crawling burst, in days (the paper uses 1 week for
        /// Table 2 and 2 weeks for the §4 sensitivity scenario).
        window_days: f64,
    },
}

impl CrawlMode {
    /// The active crawling window: the full cycle for a steady crawler, the
    /// burst for a batch crawler.
    pub fn window_days(&self, cycle_days: f64) -> f64 {
        match *self {
            CrawlMode::Steady => cycle_days,
            CrawlMode::Batch { window_days } => window_days,
        }
    }
}

/// How the crawler installs refreshed pages (§4 choice 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UpdateMode {
    /// Each crawled page replaces its old copy immediately.
    InPlace,
    /// Pages accumulate in a shadow collection that replaces the current
    /// collection all at once when the crawl cycle completes \[MJLF84\].
    Shadow,
}

/// A full policy point: crawl mode, update mode and the cycle length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrawlPolicy {
    /// Steady or batch crawling.
    pub mode: CrawlMode,
    /// In-place update or shadowing.
    pub update: UpdateMode,
    /// Cycle length in days (the paper's "every month" = 30).
    pub cycle_days: f64,
}

impl CrawlPolicy {
    /// The four Table 2 policies at the paper's parameters (1-month cycle,
    /// 1-week batch window), in the table's row-major order:
    /// (in-place, steady), (in-place, batch), (shadow, steady),
    /// (shadow, batch).
    pub fn table2_policies() -> [CrawlPolicy; 4] {
        let batch = CrawlMode::Batch { window_days: webevo_types::time::WEEK };
        let cycle = webevo_types::time::MONTH;
        [
            CrawlPolicy { mode: CrawlMode::Steady, update: UpdateMode::InPlace, cycle_days: cycle },
            CrawlPolicy { mode: batch, update: UpdateMode::InPlace, cycle_days: cycle },
            CrawlPolicy { mode: CrawlMode::Steady, update: UpdateMode::Shadow, cycle_days: cycle },
            CrawlPolicy { mode: batch, update: UpdateMode::Shadow, cycle_days: cycle },
        ]
    }

    /// Short label like "steady/in-place" for tables.
    pub fn label(&self) -> String {
        let mode = match self.mode {
            CrawlMode::Steady => "steady",
            CrawlMode::Batch { .. } => "batch",
        };
        let update = match self.update {
            UpdateMode::InPlace => "in-place",
            UpdateMode::Shadow => "shadowing",
        };
        format!("{mode}/{update}")
    }
}

impl fmt::Display for CrawlPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (cycle {} days)", self.label(), self.cycle_days)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_policy_order() {
        let ps = CrawlPolicy::table2_policies();
        assert_eq!(ps[0].label(), "steady/in-place");
        assert_eq!(ps[1].label(), "batch/in-place");
        assert_eq!(ps[2].label(), "steady/shadowing");
        assert_eq!(ps[3].label(), "batch/shadowing");
        for p in ps {
            assert_eq!(p.cycle_days, 30.0);
        }
    }

    #[test]
    fn batch_window_clamps_to_burst() {
        let m = CrawlMode::Batch { window_days: 14.0 };
        assert_eq!(m.window_days(30.0), 14.0);
        assert_eq!(CrawlMode::Steady.window_days(30.0), 30.0);
    }
}
