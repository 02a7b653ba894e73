//! The daily active-crawling monitor (§2.1).
//!
//! Every day, for every monitored site, the monitor observes the site's
//! page window and records, per page: presence and checksum. Change
//! detection is checksum comparison between consecutive observations —
//! with all the granularity consequences the paper discusses (at most one
//! detected change per day, Figure 1).

use std::collections::HashMap;
use webevo_sim::{FetchError, Fetcher, SimFetcher, WebUniverse};
use webevo_types::{Checksum, Domain, PageId, SiteId};

/// Monitor parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorConfig {
    /// Number of daily observations (the paper: Feb 17 – Jun 24 1999 ≈ 128).
    pub days: usize,
    /// Probability that an individual page fetch fails transiently that
    /// day (0 for a clean run).
    pub failure_rate: f64,
    /// Time-of-day at which the nightly crawl observes pages, as a day
    /// fraction (the paper crawled at night; any constant works — what
    /// matters is the 1-day cadence).
    pub time_of_day: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig { days: 128, failure_rate: 0.0, time_of_day: 0.0 }
    }
}

impl MonitorConfig {
    /// The paper's four-month daily run.
    pub fn paper() -> MonitorConfig {
        MonitorConfig::default()
    }
}

/// Everything the monitor learned about one page.
#[derive(Clone, Debug, PartialEq)]
pub struct PageRecord {
    /// The page.
    pub page: PageId,
    /// Its site.
    pub site: SiteId,
    /// Its site's domain class.
    pub domain: Domain,
    /// First day the page was observed (0-based).
    pub first_seen: u32,
    /// Last day the page was observed.
    pub last_seen: u32,
    /// Number of days it was actually observed (≤ span when fetches
    /// failed).
    pub days_observed: u32,
    /// Days on which a change was detected (checksum differed from the
    /// previous observation).
    pub change_days: Vec<u32>,
    /// Last checksum seen (for change detection).
    last_checksum: Checksum,
}

impl PageRecord {
    /// Build a record directly (fixtures and tests; the monitor builds
    /// records from observations).
    pub fn synthetic(
        page: PageId,
        site: SiteId,
        domain: Domain,
        first_seen: u32,
        last_seen: u32,
        change_days: Vec<u32>,
    ) -> PageRecord {
        assert!(last_seen >= first_seen);
        assert!(change_days.windows(2).all(|w| w[0] < w[1]), "change days sorted");
        PageRecord {
            page,
            site,
            domain,
            first_seen,
            last_seen,
            days_observed: last_seen - first_seen + 1,
            change_days,
            last_checksum: Checksum(0),
        }
    }

    /// Number of detected changes.
    pub fn changes(&self) -> u32 {
        self.change_days.len() as u32
    }

    /// Observation span in days (`last_seen − first_seen`); the "existed
    /// within our window for N days" of §3.1.
    pub fn span_days(&self) -> u32 {
        self.last_seen - self.first_seen
    }

    /// §3.1's average change interval estimate: observed time / changes.
    /// Days lost to failed fetches are censored — dropped from the
    /// numerator — rather than counted as unchanged time; otherwise a
    /// page that changed on every successful visit drifts out of the
    /// "changed every time we visited" bin as soon as any visit fails.
    /// With no failures `days_observed − 1 == span_days`, the paper's
    /// exact estimator. Pages with
    /// no detected change report `None` (the paper cannot tell how often
    /// they change — its fifth bar).
    pub fn mean_change_interval(&self) -> Option<f64> {
        if self.change_days.is_empty() {
            None
        } else {
            Some((self.days_observed.saturating_sub(1)) as f64 / self.changes() as f64)
        }
    }

    /// Observed intervals between consecutive detected changes, in days —
    /// the Figure 6 samples.
    pub fn change_intervals(&self) -> Vec<f64> {
        self.change_days
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64)
            .collect()
    }

    /// Day of the first detected change, if any.
    pub fn first_change_day(&self) -> Option<u32> {
        self.change_days.first().copied()
    }

    /// Censoring class per Figure 3: was the page already present on day 0
    /// (left-censored) or still present on the final day (right-censored)?
    pub fn censoring(&self, total_days: usize) -> (bool, bool) {
        (self.first_seen == 0, self.last_seen as usize == total_days - 1)
    }
}

/// The complete monitoring data set.
#[derive(Clone, Debug, Default)]
pub struct MonitoringData {
    /// Total experiment days.
    pub days: usize,
    /// One record per page ever observed, in first-observation order.
    pub records: Vec<PageRecord>,
    index: HashMap<PageId, usize>,
}

impl MonitoringData {
    /// Build a data set from pre-existing records (fixtures and tests).
    pub fn from_records(days: usize, records: Vec<PageRecord>) -> MonitoringData {
        let index = records
            .iter()
            .enumerate()
            .map(|(i, r)| (r.page, i))
            .collect();
        MonitoringData { days, records, index }
    }

    /// Record of a specific page, if observed.
    pub fn record(&self, page: PageId) -> Option<&PageRecord> {
        self.index.get(&page).map(|&i| &self.records[i])
    }

    /// Number of distinct pages observed.
    pub fn page_count(&self) -> usize {
        self.records.len()
    }
}

/// The §2.1 daily monitor.
#[derive(Clone, Debug)]
pub struct DailyMonitor {
    config: MonitorConfig,
}

impl DailyMonitor {
    /// Create a monitor.
    pub fn new(config: MonitorConfig) -> DailyMonitor {
        assert!(config.days >= 2, "need at least two observation days");
        assert!((0.0..1.0).contains(&config.time_of_day));
        DailyMonitor { config }
    }

    /// Run the daily crawl against `sites` of `universe`.
    pub fn run(&self, universe: &WebUniverse, sites: &[SiteId]) -> MonitoringData {
        let mut fetcher =
            SimFetcher::new(universe).with_failure_rate(self.config.failure_rate);
        let mut data = MonitoringData {
            days: self.config.days,
            records: Vec::new(),
            index: HashMap::new(),
        };
        for day in 0..self.config.days {
            let t = day as f64 + self.config.time_of_day;
            for &site in sites {
                let domain = universe.site(site).domain;
                for page in universe.window(site, t) {
                    let url = universe.url_of(page);
                    match fetcher.fetch(url, t) {
                        Ok(outcome) => {
                            Self::observe(&mut data, page, site, domain, day as u32, outcome.checksum)
                        }
                        Err(FetchError::Transient) => {
                            // A failed fetch is a missed observation — the
                            // page looks absent today, exactly as a real
                            // crawler would experience it.
                        }
                        Err(FetchError::NotFound) => {
                            // Window listed it but it died between the
                            // window scan and the fetch — treat as absent.
                        }
                        Err(FetchError::RateLimited { .. }) => {
                            // The monitor paces itself; with the default
                            // unrestricted fetcher this does not happen.
                        }
                    }
                }
            }
        }
        data
    }

    fn observe(
        data: &mut MonitoringData,
        page: PageId,
        site: SiteId,
        domain: Domain,
        day: u32,
        checksum: Checksum,
    ) {
        match data.index.get(&page) {
            Some(&i) => {
                let rec = &mut data.records[i];
                if checksum != rec.last_checksum {
                    rec.change_days.push(day);
                    rec.last_checksum = checksum;
                }
                rec.last_seen = day;
                rec.days_observed += 1;
            }
            None => {
                let rec = PageRecord {
                    page,
                    site,
                    domain,
                    first_seen: day,
                    last_seen: day,
                    days_observed: 1,
                    change_days: Vec::new(),
                    last_checksum: checksum,
                };
                data.index.insert(page, data.records.len());
                data.records.push(rec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_sim::UniverseConfig;

    fn run_small(failure_rate: f64) -> (WebUniverse, MonitoringData) {
        let u = WebUniverse::generate(UniverseConfig::test_scale(11));
        let sites: Vec<SiteId> = u.sites().iter().map(|s| s.id).collect();
        let monitor = DailyMonitor::new(MonitorConfig {
            days: 60,
            failure_rate,
            time_of_day: 0.0,
        });
        let data = monitor.run(&u, &sites);
        (u, data)
    }

    #[test]
    fn observes_every_window_page() {
        let (u, data) = run_small(0.0);
        // Every page in the day-0 window must have a record starting day 0.
        for site in u.sites() {
            for p in u.window(site.id, 0.0) {
                let rec = data.record(p).expect("window page observed");
                assert_eq!(rec.first_seen, 0);
            }
        }
    }

    #[test]
    fn change_detection_matches_ground_truth() {
        let (u, data) = run_small(0.0);
        for rec in &data.records {
            for &d in &rec.change_days {
                assert!(d > rec.first_seen, "first observation cannot detect change");
                // Ground truth: the page really changed in (d-1, d].
                assert!(
                    u.changed_between(rec.page, d as f64 - 1.0, d as f64 + 1e-9),
                    "page {} claimed change on day {d}",
                    rec.page
                );
            }
        }
    }

    #[test]
    fn at_most_one_detection_per_day() {
        // Figure 1(a): daily monitoring detects at most one change per day.
        let (_, data) = run_small(0.0);
        for rec in &data.records {
            let mut sorted = rec.change_days.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), rec.change_days.len());
            assert!(rec.changes() <= rec.span_days());
        }
    }

    #[test]
    fn mean_interval_matches_paper_formula() {
        let rec = PageRecord {
            page: PageId(1),
            site: SiteId(0),
            domain: Domain::Com,
            first_seen: 0,
            last_seen: 50,
            days_observed: 51,
            change_days: vec![3, 10, 20, 33, 50],
            last_checksum: Checksum(0),
        };
        // "existed for 50 days, changed 5 times → 10 days".
        assert_eq!(rec.mean_change_interval(), Some(10.0));
        assert_eq!(rec.change_intervals(), vec![7.0, 10.0, 13.0, 17.0]);
    }

    #[test]
    fn no_change_pages_report_none() {
        let (_, data) = run_small(0.0);
        let quiet = data.records.iter().find(|r| r.changes() == 0).unwrap();
        assert_eq!(quiet.mean_change_interval(), None);
    }

    #[test]
    fn failures_reduce_observations_but_not_correctness() {
        let (u, noisy) = run_small(0.15);
        let (_, clean) = run_small(0.0);
        // Fewer total observations with failures...
        let obs_noisy: u64 = noisy.records.iter().map(|r| r.days_observed as u64).sum();
        let obs_clean: u64 = clean.records.iter().map(|r| r.days_observed as u64).sum();
        assert!(obs_noisy < obs_clean);
        // ...but every detected change is still a real change.
        for rec in &noisy.records {
            for w in rec.change_days.windows(2) {
                assert!(
                    u.changed_between(rec.page, w[0] as f64, w[1] as f64 + 1e-9),
                    "detected change must be real"
                );
            }
        }
    }

    #[test]
    fn censoring_classification() {
        let (_, data) = run_small(0.0);
        let total = data.days;
        for rec in &data.records {
            let (left, right) = rec.censoring(total);
            assert_eq!(left, rec.first_seen == 0);
            assert_eq!(right, rec.last_seen as usize == total - 1);
        }
    }

    #[test]
    #[should_panic(expected = "two observation days")]
    fn rejects_one_day_experiment() {
        let _ = DailyMonitor::new(MonitorConfig { days: 1, failure_rate: 0.0, time_of_day: 0.0 });
    }
}
