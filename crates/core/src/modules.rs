//! The three modules of Figure 12 as separable units.
//!
//! * [`CrawlModule`] — fetches a page and reports the outcome (links are
//!   extracted by the fetch layer, as a real crawler's parser would).
//! * [`UpdateModule`] — the *update decision*: estimates each page's change
//!   rate from its history (EP or EB) and assigns revisit intervals under
//!   the configured strategy and crawl budget.
//! * [`RankingModule`] — the *refinement decision*: recomputes importance
//!   over the collection's link structure, estimates the importance of
//!   uncrawled URLs from their in-links (footnote 2), and proposes
//!   replacements.
//!
//! §5.3's performance argument — the refinement decision is expensive and
//! must not run per-crawl — is preserved by making `RankingModule::run` an
//! explicitly periodic batch operation while `UpdateModule` stays O(1) per
//! crawl (its global reallocation is also periodic).

use crate::allurls::AllUrls;
use crate::collection::{Collection, StoredPage};
use webevo_graph::pagerank::{pagerank, PageRankConfig};
use webevo_graph::PageGraph;
use webevo_schedule::{
    optimal_allocation, proportional_allocation, uniform_allocation,
};
use webevo_sim::{FetchError, FetchOutcome, Fetcher};
use webevo_types::{wire_enum, wire_struct, ChangeRate, DenseMap, PageId, Url};

/// Which frequency estimator the UpdateModule uses (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// EP: frequentist bias-corrected Poisson estimate from the change
    /// history.
    Ep,
    /// EB: Bayesian frequency-class posterior mean.
    Eb,
}

/// Which revisit strategy turns rates into frequencies (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RevisitStrategy {
    /// Every page at the same frequency.
    Uniform,
    /// Frequency proportional to estimated change rate.
    Proportional,
    /// The freshness-optimal allocation (Figure 9).
    Optimal,
}

/// The CrawlModule: fetch plus accounting. One instance per worker in the
/// threaded engine.
#[derive(Clone, Debug, Default)]
pub struct CrawlModule {
    crawled: u64,
    failed: u64,
}

impl CrawlModule {
    /// A fresh module.
    pub fn new() -> CrawlModule {
        CrawlModule::default()
    }

    /// Crawl one URL at time `t`: fetch plus [`CrawlModule::observe`]
    /// accounting. Convenience wrapper for direct module use; the engines
    /// fetch through their replayable `FetchSource` and call `observe`
    /// themselves, so accounting semantics live in `observe` alone.
    pub fn crawl(
        &mut self,
        fetcher: &mut dyn Fetcher,
        url: Url,
        t: f64,
    ) -> Result<FetchOutcome, FetchError> {
        let result = fetcher.fetch(url, t);
        self.observe(result.is_err());
        result
    }

    /// Account one attempt that `failed` (or not) without fetching —
    /// write-ahead-log replay advances the counters from recorded
    /// outcomes.
    pub fn observe(&mut self, failed: bool) {
        self.crawled += 1;
        if failed {
            self.failed += 1;
        }
    }

    /// Total crawl attempts.
    pub fn crawled(&self) -> u64 {
        self.crawled
    }

    /// Failed crawl attempts.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// The UpdateModule: rate estimation and revisit-interval assignment.
#[derive(Clone, Debug)]
pub struct UpdateModule {
    strategy: RevisitStrategy,
    estimator: EstimatorKind,
    /// Prior rate for pages without enough history (events/day). The
    /// paper's overall average interval is ~4 months; a somewhat faster
    /// prior makes the crawler explore new pages before settling.
    prior_rate: ChangeRate,
    /// Per-page revisit intervals from the last reallocation. Dense and
    /// iterated in ascending-id order, so snapshots stay canonical (two
    /// exports of the same state are byte-identical).
    intervals: DenseMap<f64>,
    /// Fallback interval before the first reallocation.
    default_interval: f64,
}

impl UpdateModule {
    /// Create with a strategy, estimator and the default revisit interval
    /// used until the first global reallocation.
    pub fn new(
        strategy: RevisitStrategy,
        estimator: EstimatorKind,
        default_interval: f64,
    ) -> UpdateModule {
        assert!(default_interval > 0.0);
        UpdateModule {
            strategy,
            estimator,
            prior_rate: ChangeRate(1.0 / 60.0),
            intervals: DenseMap::new(),
            default_interval,
        }
    }

    /// Estimated change rate of a stored page under the configured
    /// estimator; the prior until the page has enough history.
    pub fn estimated_rate(&self, page: &StoredPage) -> ChangeRate {
        match self.estimator {
            EstimatorKind::Ep => {
                let h = &page.history;
                if h.comparisons() < 2 {
                    return self.prior_rate;
                }
                let interval = match h.mean_access_interval() {
                    Some(i) if i > 0.0 => i,
                    _ => return self.prior_rate,
                };
                webevo_estimate::estimate_regular_bias_corrected(
                    h.detections(),
                    h.comparisons(),
                    interval,
                )
                .unwrap_or(self.prior_rate)
            }
            EstimatorKind::Eb => {
                if page.bayes.observations() == 0 {
                    self.prior_rate
                } else {
                    page.bayes.posterior_mean_rate()
                }
            }
        }
    }

    /// Recompute every page's revisit interval from current estimates,
    /// given the crawl budget (fetches/day). Called periodically — not per
    /// crawl — alongside the ranking pass.
    pub fn reallocate(&mut self, collection: &Collection, budget_per_day: f64) {
        if collection.is_empty() || budget_per_day <= 0.0 {
            return;
        }
        let mut pages: Vec<PageId> = Vec::with_capacity(collection.len());
        let mut rates: Vec<ChangeRate> = Vec::with_capacity(collection.len());
        for (p, stored) in collection.iter() {
            pages.push(p);
            rates.push(self.estimated_rate(stored));
        }
        let allocation = match self.strategy {
            RevisitStrategy::Uniform => uniform_allocation(&rates, budget_per_day),
            RevisitStrategy::Proportional => proportional_allocation(&rates, budget_per_day),
            RevisitStrategy::Optimal => {
                optimal_allocation(&rates, budget_per_day).map(|s| s.allocation)
            }
        };
        let Ok(allocation) = allocation else {
            return; // keep previous intervals on solver failure
        };
        self.intervals.clear();
        for (p, &f) in pages.iter().zip(allocation.frequencies.iter()) {
            // Zero-frequency pages are parked far in the future rather than
            // dropped: if the collection shrinks they become reachable
            // again at the next reallocation.
            let interval = if f > 0.0 { 1.0 / f } else { 1e6 };
            self.intervals.insert(*p, interval);
        }
    }

    /// The next revisit time for a page crawled at `t`.
    pub fn next_due(&self, page: PageId, t: f64) -> f64 {
        t + self
            .intervals
            .get(page)
            .copied()
            .unwrap_or(self.default_interval)
    }

    /// Drop scheduling state for a discarded page.
    pub fn forget(&mut self, page: PageId) {
        self.intervals.remove(page);
    }

    /// The page's assigned revisit interval, if it has one (pages never
    /// touched by a reallocation run on the default).
    pub fn interval(&self, page: PageId) -> Option<f64> {
        self.intervals.get(page).copied()
    }

    /// Carry a page's assigned interval across a fleet rebalance — the
    /// receiving shard keeps the donor's allocation until its own next
    /// reallocation pass.
    pub fn set_interval(&mut self, page: PageId, interval: f64) {
        assert!(interval > 0.0, "revisit interval must be positive");
        self.intervals.insert(page, interval);
    }

    /// The configured strategy.
    pub fn strategy(&self) -> RevisitStrategy {
        self.strategy
    }

    /// The configured estimator.
    pub fn estimator(&self) -> EstimatorKind {
        self.estimator
    }
}

wire_struct!(CrawlModule { crawled, failed });
wire_enum!(RevisitStrategy { Uniform = 0, Proportional = 1, Optimal = 2 });
wire_enum!(EstimatorKind { Ep = 0, Eb = 1 });
wire_struct!(UpdateModule { strategy, estimator, prior_rate, intervals, default_interval });

/// RankingModule parameters.
#[derive(Clone, Debug)]
pub struct RankingConfig {
    /// PageRank parameterization (importance metric).
    pub pagerank: PageRankConfig,
    /// At most this many replacements per ranking pass (churn damping).
    pub max_replacements_per_run: usize,
    /// A candidate must beat the minimum collection importance by this
    /// factor to trigger a replacement (hysteresis against thrashing).
    pub admit_margin: f64,
}

impl Default for RankingConfig {
    fn default() -> Self {
        RankingConfig {
            pagerank: PageRankConfig::conventional(),
            max_replacements_per_run: 8,
            admit_margin: 1.1,
        }
    }
}

wire_struct!(RankingConfig { pagerank, max_replacements_per_run, admit_margin });

/// The outcome of one ranking pass.
#[derive(Clone, Debug, Default)]
pub struct RankingOutcome {
    /// `(discard, admit)` pairs the engine should execute.
    pub replacements: Vec<(PageId, Url)>,
    /// Pages scored.
    pub ranked: usize,
}

/// The RankingModule: periodic importance recomputation and replacement
/// proposals.
#[derive(Clone, Debug, Default)]
pub struct RankingModule {
    config: RankingConfig,
    runs: u64,
}

impl RankingModule {
    /// Create with a configuration.
    pub fn new(config: RankingConfig) -> RankingModule {
        RankingModule { config, runs: 0 }
    }

    /// Number of completed passes.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// One ranking pass: recompute PageRank over the collection's link
    /// structure, write importance scores back, and propose replacements
    /// from AllUrls candidates.
    pub fn run(&mut self, collection: &mut Collection, all_urls: &AllUrls) -> RankingOutcome {
        self.runs += 1;
        if collection.is_empty() {
            return RankingOutcome::default();
        }
        // Build the intra-collection link graph.
        let mut graph = PageGraph::new();
        for (p, stored) in collection.iter() {
            graph.add_page(p, stored.url.site);
        }
        // Two passes (membership first, then edges) so no intermediate
        // edge list is materialized: the old per-page `collect` meant one
        // heap allocation per collection page, every ranking pass.
        for (p, stored) in collection.iter() {
            for l in stored.links.iter().filter(|l| collection.contains(l.page)) {
                graph.add_link(p, l.page);
            }
        }
        let Ok(scores) = pagerank(&graph, &self.config.pagerank) else {
            return RankingOutcome::default();
        };
        for (p, stored) in collection.iter_mut() {
            stored.importance = scores.get(p);
        }
        // Estimate candidates from their in-link evidence.
        let in_collection = |url: Url| collection.contains(url.page);
        let teleport = 1.0 - self.config.pagerank.follow;
        let mut candidates: Vec<(Url, f64)> = all_urls
            .candidates(&in_collection)
            .map(|(url, info)| {
                let mass: f64 = info
                    .in_link_sources
                    .iter()
                    .filter(|s| collection.contains(**s))
                    .map(|&s| {
                        let deg = graph.out_degree(s) + 1;
                        scores.get(s) / deg as f64
                    })
                    .sum();
                (url, teleport + self.config.pagerank.follow * mass)
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("no NaN")
                .then((a.0.site, a.0.page).cmp(&(b.0.site, b.0.page)))
        });

        // Propose replacements: best candidates against worst incumbents.
        let mut outcome = RankingOutcome { replacements: Vec::new(), ranked: collection.len() };
        let mut evicted: Vec<PageId> = Vec::new();
        for (url, estimate) in candidates {
            if outcome.replacements.len() >= self.config.max_replacements_per_run {
                break;
            }
            let victim = collection
                .iter()
                .filter(|(p, _)| !evicted.contains(p))
                .min_by(|a, b| {
                    a.1.importance
                        .partial_cmp(&b.1.importance)
                        .expect("no NaN")
                        .then(a.0.cmp(&b.0))
                })
                .map(|(p, s)| (p, s.importance));
            let Some((victim_page, victim_importance)) = victim else {
                break;
            };
            if estimate > victim_importance * self.config.admit_margin {
                evicted.push(victim_page);
                outcome.replacements.push((victim_page, url));
            } else {
                break; // candidates are sorted; nothing further qualifies
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::{Checksum, SiteId};

    fn url(i: u64) -> Url {
        Url::new(SiteId(0), PageId(i))
    }

    fn filled_collection(n: u64) -> Collection {
        let mut c = Collection::new(n as usize, 50);
        for i in 0..n {
            c.save(url(i), Checksum(i), vec![], 0.0);
        }
        c
    }

    #[test]
    fn update_module_uses_prior_without_history() {
        let m = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Ep, 10.0);
        let c = filled_collection(1);
        let stored = c.get(PageId(0)).unwrap();
        assert_eq!(m.estimated_rate(stored), ChangeRate(1.0 / 60.0));
    }

    #[test]
    fn update_module_learns_from_history() {
        let m = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Ep, 10.0);
        let mut c = filled_collection(1);
        // Change on every visit for 30 days: the estimate must be fast.
        for day in 1..=30 {
            c.update(PageId(0), Checksum(100 + day), vec![], day as f64);
        }
        let rate = m.estimated_rate(c.get(PageId(0)).unwrap());
        assert!(rate.per_day() > 1.0, "rate={}", rate.per_day());
        // EB agrees directionally.
        let mb = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Eb, 10.0);
        let rb = mb.estimated_rate(c.get(PageId(0)).unwrap());
        assert!(rb.per_day() > 0.3, "eb rate={}", rb.per_day());
    }

    #[test]
    fn reallocation_uniform_gives_equal_intervals() {
        let mut m = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Ep, 10.0);
        let c = filled_collection(4);
        m.reallocate(&c, 2.0); // 2 fetches/day over 4 pages → 2-day interval
        for i in 0..4 {
            let due = m.next_due(PageId(i), 100.0);
            assert!((due - 102.0).abs() < 1e-9, "due={due}");
        }
    }

    #[test]
    fn reallocation_optimal_prefers_moderate_pages() {
        let mut m = UpdateModule::new(RevisitStrategy::Optimal, EstimatorKind::Ep, 10.0);
        let mut c = Collection::new(2, 200);
        c.save(url(0), Checksum(0), vec![], 0.0);
        c.save(url(1), Checksum(1), vec![], 0.0);
        // Page 0 changes every visit (hot), page 1 changes rarely.
        for day in 1..=60 {
            c.update(PageId(0), Checksum(1000 + day), vec![], day as f64);
            let slow = if day < 30 { Checksum(1) } else { Checksum(2) };
            c.update(PageId(1), slow, vec![], day as f64);
        }
        m.reallocate(&c, 0.2); // tight budget
        let hot_due = m.next_due(PageId(0), 0.0);
        let slow_due = m.next_due(PageId(1), 0.0);
        assert!(
            slow_due < hot_due,
            "optimal visits the moderate page sooner: hot={hot_due}, slow={slow_due}"
        );
    }

    #[test]
    fn forget_restores_default() {
        let mut m = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Ep, 7.0);
        let c = filled_collection(2);
        m.reallocate(&c, 1.0);
        assert!((m.next_due(PageId(0), 0.0) - 2.0).abs() < 1e-9);
        m.forget(PageId(0));
        assert!((m.next_due(PageId(0), 0.0) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn ranking_scores_and_replaces() {
        let mut c = Collection::new(3, 50);
        // Page 0 links to 1; 1 links to 0; 2 is isolated (lowest rank).
        c.save(url(0), Checksum(0), vec![url(1)], 0.0);
        c.save(url(1), Checksum(1), vec![url(0)], 0.0);
        c.save(url(2), Checksum(2), vec![], 0.0);
        let mut a = AllUrls::new();
        // Candidate 10 is linked from both collection hubs.
        a.add_in_link(url(10), PageId(0), 0.0);
        a.add_in_link(url(10), PageId(1), 0.0);
        let mut ranking = RankingModule::new(RankingConfig {
            admit_margin: 1.0,
            ..RankingConfig::default()
        });
        let outcome = ranking.run(&mut c, &a);
        assert_eq!(outcome.ranked, 3);
        assert!(c.get(PageId(0)).unwrap().importance > c.get(PageId(2)).unwrap().importance);
        assert_eq!(outcome.replacements.len(), 1);
        let (victim, admit) = outcome.replacements[0];
        assert_eq!(victim, PageId(2), "isolated page is the victim");
        assert_eq!(admit, url(10));
    }

    #[test]
    fn ranking_respects_margin() {
        let mut c = Collection::new(2, 50);
        c.save(url(0), Checksum(0), vec![url(1)], 0.0);
        c.save(url(1), Checksum(1), vec![url(0)], 0.0);
        let mut a = AllUrls::new();
        // A candidate with one weak in-link should NOT displace anyone
        // under a high margin.
        a.add_in_link(url(10), PageId(0), 0.0);
        let mut ranking = RankingModule::new(RankingConfig {
            admit_margin: 10.0,
            ..RankingConfig::default()
        });
        let outcome = ranking.run(&mut c, &a);
        assert!(outcome.replacements.is_empty());
    }

    #[test]
    fn ranking_on_empty_collection_is_noop() {
        let mut c = Collection::new(2, 50);
        let a = AllUrls::new();
        let mut ranking = RankingModule::new(RankingConfig::default());
        let outcome = ranking.run(&mut c, &a);
        assert_eq!(outcome.ranked, 0);
        assert!(outcome.replacements.is_empty());
    }

    #[test]
    fn crawl_module_counts() {
        use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};
        let u = WebUniverse::generate(UniverseConfig::test_scale(5));
        let mut f = SimFetcher::new(&u);
        let mut m = CrawlModule::new();
        let root = u.sites()[0].slots[0][0];
        assert!(m.crawl(&mut f, u.url_of(root), 1.0).is_ok());
        let bogus = Url::new(SiteId(0), PageId(u.page_count() as u64 + 1));
        assert!(m.crawl(&mut f, bogus, 1.0).is_err());
        assert_eq!(m.crawled(), 2);
        assert_eq!(m.failed(), 1);
    }
}
