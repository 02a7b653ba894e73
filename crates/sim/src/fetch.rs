//! The crawler-facing fetch interface.
//!
//! Crawlers never touch universe ground truth; they see exactly what a real
//! crawler sees: fetch a URL, get back a checksum, extracted links and an
//! optional last-modified date — or a failure. [`SimFetcher`] implements
//! the trait over a [`WebUniverse`], with the politeness constraints §2.3
//! describes (the paper waited ≥10 s between requests to a site and crawled
//! only at night) and optional transient-failure injection for robustness
//! testing.

use crate::universe::WebUniverse;
use webevo_types::{wire_enum, wire_struct, Checksum, SiteId, Url};

/// Why a fetch failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FetchError {
    /// The URL does not resolve (page deleted, or not yet created).
    NotFound,
    /// The per-site politeness constraint forbids fetching right now;
    /// retry at or after the given time (days).
    RateLimited {
        /// Earliest permissible retry time.
        retry_at: f64,
    },
    /// A transient network/server failure; retrying later may succeed.
    Transient,
}

/// A successful fetch.
#[derive(Clone, Debug, PartialEq)]
pub struct FetchOutcome {
    /// Digest of the page content (the UpdateModule's change signal).
    pub checksum: Checksum,
    /// URLs extracted from the page (the CrawlModule forwards these to
    /// AllUrls).
    pub links: Vec<Url>,
    /// Server-reported last-modified time (days), when available.
    pub last_modified: Option<f64>,
}

/// Anything a crawler can fetch from.
pub trait Fetcher {
    /// Fetch `url` at simulated time `t`.
    fn fetch(&mut self, url: Url, t: f64) -> Result<FetchOutcome, FetchError>;

    /// Export the fetcher's replay-relevant mutable state for a
    /// checkpoint, if the implementation supports durable crawl state.
    /// The default (`None`) marks a fetcher as stateless for recovery
    /// purposes.
    fn export_state(&self) -> Option<FetcherState> {
        None
    }

    /// Advance internal state exactly as [`Fetcher::fetch`] would have for
    /// an attempt that produced `result`, without performing a fetch.
    /// Write-ahead-log recovery calls this once per logged attempt so the
    /// fetcher's attempt counter and per-site clocks land at the same
    /// values an uninterrupted run would carry.
    fn observe_replay(&mut self, url: Url, t: f64, result: &Result<FetchOutcome, FetchError>) {
        let _ = (url, t, result);
    }

    /// Install replay-relevant state previously captured by
    /// [`Fetcher::export_state`] — the recovery-side counterpart, callable
    /// through a trait object so session-level recovery works with any
    /// fetcher. Stateless fetchers ignore it.
    fn restore_state(&mut self, state: FetcherState) {
        let _ = state;
    }
}

/// The replay-relevant mutable state of a fetcher: everything that can
/// influence a *future* fetch result. Politeness limits and the failure
/// rate are configuration, not state — the owner re-applies them when
/// rebuilding a fetcher.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FetcherState {
    /// Last successful access time per site (politeness pacing), sorted by
    /// site id so snapshots are deterministic.
    pub last_site_access: Vec<(SiteId, f64)>,
    /// Fetch attempts issued so far (drives deterministic failure
    /// injection).
    pub attempt_counter: u64,
}

wire_struct!(FetcherState { last_site_access, attempt_counter });

/// Politeness constraints, mirroring §2.3.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Politeness {
    /// Minimum delay between requests to one site, in days (the paper's
    /// 10 s ≈ 1.157e-4 days).
    pub min_delay_days: f64,
    /// Crawling allowed only within this window of each day, as day
    /// fractions `[start, end)` — the paper crawled 9PM–6AM PST, i.e.
    /// roughly `(0.875, 1.0)` ∪ `(0.0, 0.25)`; we model a single window
    /// and `None` means "any time".
    pub night_window: Option<(f64, f64)>,
}

impl Politeness {
    /// The paper's setup: ≥10 seconds between requests, nightly crawling.
    /// With these limits a site yields at most ~3,240 pages per night —
    /// the origin of the 3,000-page window (§2.3).
    pub fn paper() -> Politeness {
        Politeness {
            min_delay_days: 10.0 / 86_400.0,
            night_window: Some((0.875, 0.25)), // wraps midnight
        }
    }

    /// No constraints (simulation-speed crawling): [`SimFetcher::new`]'s
    /// default.
    fn unrestricted() -> Politeness {
        Politeness { min_delay_days: 0.0, night_window: None }
    }

    /// Is crawling allowed at day-fraction `frac`?
    fn allows_time_of_day(&self, frac: f64) -> bool {
        match self.night_window {
            None => true,
            Some((start, end)) if start <= end => frac >= start && frac < end,
            // Window wrapping midnight, e.g. (0.875, 0.25).
            Some((start, end)) => frac >= start || frac < end,
        }
    }
}

wire_enum!(FetchError { NotFound = 0, RateLimited { retry_at } = 1, Transient = 2 });
wire_struct!(FetchOutcome { checksum, links, last_modified });

/// A [`Fetcher`] over a [`WebUniverse`].
pub struct SimFetcher<'a> {
    universe: &'a WebUniverse,
    politeness: Politeness,
    /// Probability a fetch fails transiently (deterministic per
    /// `(page, attempt)` so runs are reproducible).
    failure_rate: f64,
    /// Per-site last successful access, densely indexed by `SiteId`
    /// (`NEG_INFINITY` = never touched). The fetch path pays one array
    /// read instead of a hash probe per attempt; exports stay identical to
    /// the old map form (finite entries, ascending site id).
    last_site_access: Vec<f64>,
    attempt_counter: u64,
    /// Whether to expose last-modified dates (real servers often do not;
    /// §5.3's checksum design assumes they may be absent).
    report_last_modified: bool,
    /// Scratch buffer for link extraction, reused across fetches; each
    /// success clones it at exact size into the outcome.
    scratch_links: Vec<Url>,
}

impl<'a> SimFetcher<'a> {
    /// A fetcher with no politeness limits and no failures.
    pub fn new(universe: &'a WebUniverse) -> SimFetcher<'a> {
        SimFetcher {
            universe,
            politeness: Politeness::unrestricted(),
            failure_rate: 0.0,
            last_site_access: vec![f64::NEG_INFINITY; universe.site_count()],
            attempt_counter: 0,
            report_last_modified: false,
            scratch_links: Vec::new(),
        }
    }

    /// Set politeness constraints.
    pub fn with_politeness(mut self, politeness: Politeness) -> SimFetcher<'a> {
        self.politeness = politeness;
        self
    }

    /// Inject transient failures with the given probability.
    pub fn with_failure_rate(mut self, rate: f64) -> SimFetcher<'a> {
        assert!((0.0..=1.0).contains(&rate));
        self.failure_rate = rate;
        self
    }

    /// Report last-modified dates on success.
    pub fn with_last_modified(mut self) -> SimFetcher<'a> {
        self.report_last_modified = true;
        self
    }

    /// Restore replay-relevant state exported by [`Fetcher::export_state`]
    /// (politeness/failure configuration is set separately via the
    /// builders).
    pub fn restore_state(&mut self, state: FetcherState) {
        self.last_site_access.fill(f64::NEG_INFINITY);
        for (site, t) in state.last_site_access {
            if let Some(slot) = self.last_site_access.get_mut(site.index()) {
                *slot = t;
            }
        }
        self.attempt_counter = state.attempt_counter;
    }

    /// Record a successful site contact at `t` (out-of-universe sites are
    /// ignored; they can only arise from hand-crafted URLs).
    #[inline]
    fn stamp_site(&mut self, site: SiteId, t: f64) {
        if let Some(slot) = self.last_site_access.get_mut(site.index()) {
            *slot = t;
        }
    }

    fn transient_failure(&mut self, url: Url) -> bool {
        if self.failure_rate == 0.0 {
            return false;
        }
        // Deterministic hash of (page, attempt#).
        let mut z = url.page.0 ^ self.attempt_counter.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) < self.failure_rate
    }
}

impl Fetcher for SimFetcher<'_> {
    fn fetch(&mut self, url: Url, t: f64) -> Result<FetchOutcome, FetchError> {
        self.attempt_counter += 1;
        // Politeness: time-of-day window. Hoisted behind the configuration
        // check so unrestricted fetchers (the common engine setup) skip the
        // day-fraction arithmetic entirely.
        if self.politeness.night_window.is_some() {
            let day_frac = t - t.floor();
            if !self.politeness.allows_time_of_day(day_frac) {
                let retry_at = t.floor()
                    + self
                        .politeness
                        .night_window
                        .map(|(s, _)| if day_frac < s { s } else { s + 1.0 })
                        .unwrap_or(0.0);
                return Err(FetchError::RateLimited { retry_at });
            }
        }
        // Politeness: per-site spacing (untouched sites sit at −∞, so the
        // bound below never triggers for them).
        if let Some(&last) = self.last_site_access.get(url.site.index()) {
            let earliest = last + self.politeness.min_delay_days;
            if t < earliest {
                return Err(FetchError::RateLimited { retry_at: earliest });
            }
        }
        if self.transient_failure(url) {
            return Err(FetchError::Transient);
        }
        self.stamp_site(url.site, t);
        if url.page.index() >= self.universe.page_count()
            || !self.universe.alive(url.page, t)
        {
            return Err(FetchError::NotFound);
        }
        self.universe.out_links_into(url.page, t, &mut self.scratch_links);
        Ok(FetchOutcome {
            checksum: self.universe.checksum_at(url.page, t),
            links: self.scratch_links.clone(),
            last_modified: self
                .report_last_modified
                .then(|| self.universe.last_modified(url.page, t)),
        })
    }

    fn export_state(&self) -> Option<FetcherState> {
        // Dense array ascends by site id, so the export is sorted for free.
        let last_site_access: Vec<(SiteId, f64)> = self
            .last_site_access
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t.is_finite())
            .map(|(s, &t)| (SiteId(s as u32), t))
            .collect();
        Some(FetcherState {
            last_site_access,
            attempt_counter: self.attempt_counter,
        })
    }

    fn restore_state(&mut self, state: FetcherState) {
        SimFetcher::restore_state(self, state);
    }

    /// Mirror of [`SimFetcher::fetch`]'s state transitions, keyed on the
    /// *recorded* result instead of recomputing one: the attempt counter
    /// always advances; rate-limited and transient attempts never touch
    /// the per-site clock; successful and not-found attempts do (`fetch`
    /// stamps the site before discovering the page is dead).
    fn observe_replay(&mut self, url: Url, t: f64, result: &Result<FetchOutcome, FetchError>) {
        self.attempt_counter += 1;
        if matches!(result, Ok(_) | Err(FetchError::NotFound)) {
            self.stamp_site(url.site, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UniverseConfig;
    use webevo_types::PageId;

    fn universe() -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(3))
    }

    /// The root page of the `site`-th site (slot 0, immortal).
    fn root_of(u: &WebUniverse, site: usize) -> PageId {
        u.occupant(u.sites()[site].id, 0, 0.0).expect("roots live from time zero")
    }

    #[test]
    fn fetch_alive_page_succeeds() {
        let u = universe();
        let mut f = SimFetcher::new(&u);
        let root = root_of(&u, 0);
        let out = f.fetch(u.url_of(root), 5.0).unwrap();
        assert_eq!(out.checksum, u.checksum_at(root, 5.0));
        assert!(out.last_modified.is_none());
    }

    #[test]
    fn fetch_dead_page_is_not_found() {
        let u = universe();
        let dead = u
            .pages()
            .iter()
            .find(|p| p.death < 100.0)
            .expect("churn produces deaths");
        let mut f = SimFetcher::new(&u);
        assert_eq!(
            f.fetch(u.url_of(dead.id), dead.death + 0.5),
            Err(FetchError::NotFound)
        );
    }

    #[test]
    fn fetch_unborn_page_is_not_found() {
        let u = universe();
        let late = u
            .pages()
            .iter()
            .find(|p| p.birth > 10.0)
            .expect("churn produces late births");
        let mut f = SimFetcher::new(&u);
        assert_eq!(
            f.fetch(u.url_of(late.id), late.birth - 1.0),
            Err(FetchError::NotFound)
        );
    }

    #[test]
    fn unknown_page_is_not_found() {
        let u = universe();
        let mut f = SimFetcher::new(&u);
        let bogus = Url::new(u.sites()[0].id, PageId(u.page_count() as u64 + 5));
        assert_eq!(f.fetch(bogus, 1.0), Err(FetchError::NotFound));
    }

    #[test]
    fn per_site_spacing_enforced() {
        let u = universe();
        let politeness = Politeness { min_delay_days: 0.01, night_window: None };
        let mut f = SimFetcher::new(&u).with_politeness(politeness);
        let root = root_of(&u, 0);
        let url = u.url_of(root);
        assert!(f.fetch(url, 1.0).is_ok());
        match f.fetch(url, 1.005) {
            Err(FetchError::RateLimited { retry_at }) => {
                assert!((retry_at - 1.01).abs() < 1e-9)
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        assert!(f.fetch(url, 1.01).is_ok());
        // A different site is not limited.
        let other_root = root_of(&u, 1);
        assert!(f.fetch(u.url_of(other_root), 1.0101).is_ok());
    }

    #[test]
    fn night_window_enforced() {
        let u = universe();
        let mut f = SimFetcher::new(&u).with_politeness(Politeness::paper());
        let root = root_of(&u, 0);
        let url = u.url_of(root);
        // Noon (day fraction 0.5) is outside the night window.
        assert!(matches!(
            f.fetch(url, 3.5),
            Err(FetchError::RateLimited { .. })
        ));
        // 10PM (0.92) is inside.
        assert!(f.fetch(url, 3.92).is_ok());
        // 3AM (0.125) is inside (wrapped window).
        assert!(f.fetch(url, 5.125).is_ok());
    }

    #[test]
    fn paper_politeness_explains_window_size() {
        let p = Politeness::paper();
        let (start, end) = p.night_window.expect("the paper crawls at night");
        let max = ((1.0 - start) + end) / p.min_delay_days;
        // 9 hours at one page per 10 s = 3,240 pages: the 3,000-page
        // window of §2.3 fits just under it.
        assert!((max - 3240.0).abs() < 1.0, "max={max}");
        assert!(max > 3000.0);
    }

    #[test]
    fn failure_injection_is_deterministic_and_calibrated() {
        let u = universe();
        let root = root_of(&u, 0);
        let url = u.url_of(root);
        let run = || {
            let mut f = SimFetcher::new(&u).with_failure_rate(0.3);
            let mut failures = 0;
            for i in 0..2000 {
                if f.fetch(url, 1.0 + i as f64 * 0.001) == Err(FetchError::Transient) {
                    failures += 1;
                }
            }
            failures
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "failure pattern must be reproducible");
        let rate = a as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "rate={rate}");
    }

    #[test]
    fn replay_observation_matches_live_fetching() {
        // Drive one fetcher live, a second by replaying the recorded
        // results: their exported states must be identical — the property
        // WAL recovery leans on.
        let u = universe();
        let root = root_of(&u, 0);
        let url = u.url_of(root);
        let politeness = Politeness { min_delay_days: 0.01, night_window: None };
        let mut live = SimFetcher::new(&u)
            .with_politeness(politeness)
            .with_failure_rate(0.3);
        let mut results = Vec::new();
        for i in 0..200 {
            let t = 1.0 + i as f64 * 0.003;
            results.push((url, t, live.fetch(url, t)));
        }
        let mut replayed = SimFetcher::new(&u)
            .with_politeness(politeness)
            .with_failure_rate(0.3);
        for (url, t, result) in &results {
            replayed.observe_replay(*url, *t, result);
        }
        assert_eq!(live.export_state(), replayed.export_state());
        // And the replayed fetcher continues exactly like the live one.
        assert_eq!(live.fetch(url, 2.0), replayed.fetch(url, 2.0));
    }

    #[test]
    fn state_export_restore_roundtrip() {
        let u = universe();
        let mut f = SimFetcher::new(&u).with_failure_rate(0.2);
        for i in 0..50 {
            let root = root_of(&u, i % u.sites().len());
            let _ = f.fetch(u.url_of(root), 1.0 + i as f64 * 0.01);
        }
        let state = f.export_state().expect("sim fetcher is stateful");
        let mut restored = SimFetcher::new(&u).with_failure_rate(0.2);
        restored.restore_state(state);
        assert_eq!(f.export_state(), restored.export_state());
        let root = root_of(&u, 0);
        assert_eq!(f.fetch(u.url_of(root), 3.0), restored.fetch(u.url_of(root), 3.0));
    }

    #[test]
    fn last_modified_reporting() {
        let u = universe();
        let mut f = SimFetcher::new(&u).with_last_modified();
        let page = u
            .pages()
            .iter()
            .find(|p| !p.events.is_empty() && p.death.is_infinite())
            .expect("changing page");
        // Probe strictly between the first change and the next one (hot
        // pages can change again within any fixed offset).
        let e = u.events_of(page.id).get(0).unwrap();
        let next = u.events_of(page.id).get(1).unwrap_or(e + 1.0);
        let out = f.fetch(u.url_of(page.id), e + (next - e) / 2.0).unwrap();
        assert_eq!(out.last_modified, Some(e));
    }
}
