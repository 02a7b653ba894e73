//! The two deciding modules of Figure 12 as separable units. The third,
//! the CrawlModule, is the engines' fetch slot: it fetches a page through
//! a `webevo_sim::Fetcher` (links are extracted by the fetch layer, as a
//! real crawler's parser would) and hands the outcome to these two.
//!
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
use std::cmp::Ordering;
use webevo_estimate::BayesianEstimator;
use webevo_graph::{estimate_uncrawled, LinkCsr, PageRankConfig, PageRankKernel};
use webevo_schedule::{
    optimal_allocation, proportional_allocation, uniform_allocation,
};
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

    /// A newly admitted page's EB state, for [`Collection::save`]: a
    /// uniform prior over the paper's frequency classes under EB, `None`
    /// under EP, whose estimate reads only the change history.
    pub fn initial_posterior(&self) -> Option<Box<BayesianEstimator>> {
        match self.estimator {
            EstimatorKind::Ep => None,
            EstimatorKind::Eb => Some(Box::new(BayesianEstimator::paper_prior())),
        }
    }

    /// Estimated change rate of a stored page under the configured
    /// estimator; the prior until the page has enough history, and under
    /// EB for a page that carries no posterior.
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
            EstimatorKind::Eb => match &page.bayes {
                Some(bayes) if bayes.observations() > 0 => bayes.posterior_mean_rate(),
                _ => self.prior_rate,
            },
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

    /// The configured estimator.
    pub fn estimator(&self) -> EstimatorKind {
        self.estimator
    }
}

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
    /// `(page, importance)` for every page the pass read; as built when
    /// PageRank failed.
    pub importance: Vec<(PageId, f64)>,
    /// `(discard, admit)` pairs the engine should execute.
    pub replacements: Vec<(PageId, Url)>,
    /// Iterations the PageRank solve took; 0 when it failed.
    pub iterations: usize,
    /// Links of the structure the solve ran over.
    pub links: usize,
}

/// What one ranking pass reads, flattened out of the collection and
/// AllUrls at a pass boundary. Every executor builds it on the crawl
/// thread and solves it with [`RankingModule::solve`]: the inline executor
/// in place, the pool in one scoped solve per pass, joined at the next
/// boundary — an input, not clones of the whole `Collection` and
/// `AllUrls`, is what crosses to the solving thread.
pub(crate) struct RankInput {
    /// The intra-collection link structure; its page order is the order of
    /// every per-page vector here.
    links: LinkCsr,
    /// Each page's importance as of the build; a solve overwrites it with
    /// the new scores, a failed solve leaves it as built.
    importance: Vec<f64>,
    /// AllUrls' admission candidates, ascending page id.
    candidates: Vec<Url>,
    /// Candidate `k`'s in-collection in-link sources are
    /// `sources[source_end[k - 1]..source_end[k]]` (from 0 for `k = 0`).
    source_end: Vec<usize>,
    sources: Vec<PageId>,
}

impl RankInput {
    /// Flatten the ranking pass's view of `collection` and `all_urls`.
    pub(crate) fn build(collection: &Collection, all_urls: &AllUrls) -> RankInput {
        let links = LinkCsr::from_out_links(|| {
            collection.iter().map(|(p, stored)| (p, stored.links.iter().map(|l| l.page)))
        });
        let importance = collection.iter().map(|(_, stored)| stored.importance).collect();
        let (mut candidates, mut source_end, mut sources) = (Vec::new(), Vec::new(), Vec::new());
        let in_collection = |url: Url| links.contains(url.page);
        for (url, info) in all_urls.candidates(&in_collection) {
            candidates.push(url);
            sources.extend(info.in_link_sources.iter().filter(|&&s| links.contains(s)));
            source_end.push(sources.len());
        }
        RankInput { links, importance, candidates, source_end, sources }
    }
}

/// The RankingModule: periodic importance recomputation and replacement
/// proposals.
///
/// The scratch buffers are reused from pass to pass and carry nothing from
/// one pass into the next, so they are never persisted: a module rebuilt
/// from its config decides exactly what this one would.
#[derive(Clone, Debug, Default)]
pub struct RankingModule {
    config: RankingConfig,
    kernel: PageRankKernel,
    /// Candidates with their footnote-2 estimates.
    estimates: Vec<(Url, f64)>,
    /// Incumbent positions, for the lowest-importance selection.
    incumbents: Vec<u32>,
    /// Makes [`RankingModule::solve`] panic; it travels with the module
    /// wherever the solve runs.
    #[cfg(test)]
    pub(crate) panic_in_solve: bool,
}

impl RankingModule {
    /// Create with a configuration.
    pub fn new(config: RankingConfig) -> RankingModule {
        RankingModule { config, ..RankingModule::default() }
    }

    /// One ranking pass: recompute PageRank over the collection's link
    /// structure, write importance scores back, and propose replacements
    /// from AllUrls candidates.
    pub fn run(&mut self, collection: &mut Collection, all_urls: &AllUrls) -> RankingOutcome {
        let outcome = self.solve(RankInput::build(collection, all_urls));
        for ((_, stored), &(_, importance)) in collection.iter_mut().zip(&outcome.importance) {
            stored.importance = importance;
        }
        outcome
    }

    /// Solve a built input — the one ranking step of every executor, live
    /// and in replay. A failed solve answers with the importances the
    /// input was built with and no replacements.
    pub(crate) fn solve(&mut self, mut input: RankInput) -> RankingOutcome {
        #[cfg(test)]
        if self.panic_in_solve {
            panic!("ranking solve told to panic");
        }
        let (replacements, iterations) = self.propose(&mut input).unwrap_or_default();
        let links = input.links.link_count();
        let importance = input.links.pages().iter().copied().zip(input.importance).collect();
        RankingOutcome { importance, replacements, iterations, links }
    }

    /// The proposals of a built input: PageRank over its links (into
    /// `input.importance`), every candidate's footnote-2 estimate, and the
    /// replacement proposals — the best `max_replacements_per_run`
    /// candidates (estimate descending, then `(site, page)`) against as
    /// many lowest-importance incumbents (importance ascending, then
    /// `PageId`), paired in order while the candidate beats its victim by
    /// `admit_margin` — and the solve's iteration count. `None` if
    /// PageRank fails.
    fn propose(&mut self, input: &mut RankInput) -> Option<(Vec<(PageId, Url)>, usize)> {
        let config = &self.config;
        let iterations = self.kernel.solve(&input.links, &config.pagerank).ok()?;
        input.importance.copy_from_slice(self.kernel.scores());
        let (links, scores) = (&input.links, &input.importance);

        self.estimates.clear();
        let mut start = 0;
        for (&url, &end) in input.candidates.iter().zip(&input.source_end) {
            let sources = &input.sources[start..end];
            self.estimates.push((url, estimate_uncrawled(links, scores, sources, &config.pagerank)));
            start = end;
        }
        let k = config.max_replacements_per_run;
        let best = least_k(&mut self.estimates, k, |a, b| {
            b.1.total_cmp(&a.1).then((a.0.site, a.0.page).cmp(&(b.0.site, b.0.page)))
        });
        self.incumbents.clear();
        self.incumbents.extend(0..scores.len() as u32);
        let lowest = least_k(&mut self.incumbents, k, |&a, &b| {
            scores[a as usize].total_cmp(&scores[b as usize]).then(a.cmp(&b))
        });
        let replacements = best
            .iter()
            .zip(lowest.iter().map(|&v| v as usize))
            .take_while(|&(&(_, estimate), v)| estimate > scores[v] * config.admit_margin)
            .map(|(&(url, _), v)| (links.pages()[v], url))
            .collect();
        Some((replacements, iterations))
    }
}

/// The `k` least elements of `items` under `order`, sorted, at its front:
/// a bounded selection, then a sort of only the selected. `order` must be
/// total, so the result is what a full sort's first `k` would be.
fn least_k<T>(items: &mut [T], k: usize, mut order: impl FnMut(&T, &T) -> Ordering) -> &[T] {
    if k < items.len() {
        items.select_nth_unstable_by(k, &mut order);
    }
    let k = k.min(items.len());
    let head = &mut items[..k];
    head.sort_unstable_by(order);
    head
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use webevo_graph::{pagerank, LinkCsr};
    use webevo_types::{Checksum, SiteId};

    fn url(i: u64) -> Url {
        Url::new(SiteId(0), PageId(i))
    }

    /// `RankingModule::run` as it stood before the flat link structure:
    /// the oracle of `ranking_pass_matches_the_reference`. It takes only
    /// the PageRank scores from `pagerank(&LinkCsr)`, today's kernel, which
    /// the graph crate's differential tests hold bit-equal to the loop this
    /// body called; the out-degrees it divides by it counts itself.
    fn reference_run(
        config: &RankingConfig,
        collection: &mut Collection,
        all_urls: &AllUrls,
    ) -> Vec<(PageId, Url)> {
        if collection.is_empty() {
            return Vec::new();
        }
        let links = LinkCsr::from_out_links(|| {
            collection.iter().map(|(p, stored)| (p, stored.links.iter().map(|l| l.page)))
        });
        let Ok(scores) = pagerank(&links, &config.pagerank) else {
            return Vec::new();
        };
        for (p, stored) in collection.iter_mut() {
            stored.importance = scores.get(p);
        }
        // Distinct in-collection targets; a self-link counts once.
        let out_degree = |p: PageId| -> usize {
            let stored = collection.get(p).expect("a source in the collection");
            let targets: BTreeSet<PageId> =
                stored.links.iter().map(|l| l.page).filter(|&t| collection.contains(t)).collect();
            targets.len()
        };
        // Estimate candidates from their in-link evidence.
        let in_collection = |url: Url| collection.contains(url.page);
        let teleport = 1.0 - config.pagerank.follow;
        let mut candidates: Vec<(Url, f64)> = all_urls
            .candidates(&in_collection)
            .map(|(url, info)| {
                let mass: f64 = info
                    .in_link_sources
                    .iter()
                    .filter(|s| collection.contains(**s))
                    .map(|&s| {
                        let deg = out_degree(s) + 1;
                        scores.get(s) / deg as f64
                    })
                    .sum();
                (url, teleport + config.pagerank.follow * mass)
            })
            .collect();
        candidates.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("no NaN")
                .then((a.0.site, a.0.page).cmp(&(b.0.site, b.0.page)))
        });

        // Propose replacements: best candidates against worst incumbents.
        let mut replacements = Vec::new();
        let mut evicted: Vec<PageId> = Vec::new();
        for (url, estimate) in candidates {
            if replacements.len() >= config.max_replacements_per_run {
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
            if estimate > victim_importance * config.admit_margin {
                evicted.push(victim_page);
                replacements.push((victim_page, url));
            } else {
                break; // candidates are sorted; nothing further qualifies
            }
        }
        replacements
    }

    fn importance_bits(collection: &Collection) -> Vec<(PageId, u64)> {
        collection.iter().map(|(p, stored)| (p, stored.importance.to_bits())).collect()
    }

    proptest! {
        /// The ranking pass — written back (`run`) and as every executor
        /// answers it (`solve` on a built input, with the module's scratch
        /// already used once) — decides exactly what the reference
        /// pass decides, and leaves bit-identical importances: duplicate,
        /// self- and non-member links, dangling pages, all-equal scores (no
        /// links), dead, excluded and zero-in-link candidates, every cap and
        /// margin of interest, and PageRank failing (iteration cap 2).
        #[test]
        fn ranking_pass_matches_the_reference(
            pages in prop::collection::vec((0u64..20, 0u32..3), 0..14),
            links in prop::collection::vec((0u64..20, 0u64..26), 0..70),
            urls in prop::collection::vec((0u64..30, 0u64..26, 0u8..6), 0..40),
            knobs in (0usize..4, 0usize..3, 0usize..3, 0u8..4),
        ) {
            let (cap, margin, form, link_mode) = knobs;
            let mut collection = Collection::new(64, 8);
            for &(id, site) in &pages {
                if collection.contains(PageId(id)) {
                    continue;
                }
                // Out-links in drawn order; mode 0 drops them all, so every
                // page scores the same.
                let out: Vec<Url> = links
                    .iter()
                    .filter(|&&(from, _)| from == id && link_mode != 0)
                    .map(|&(_, to)| Url::new(SiteId((to % 3) as u32), PageId(to)))
                    .collect();
                collection.save(Url::new(SiteId(site), PageId(id)), Checksum(id), out, 0.0, None);
                // Importances a failed solve leaves in place.
                collection.get_mut(PageId(id)).unwrap().importance = 0.25 + (id % 4) as f64;
            }
            let mut all_urls = AllUrls::new();
            for &(id, source, kind) in &urls {
                let candidate = Url::new(SiteId((id % 3) as u32), PageId(id));
                match kind {
                    0 => all_urls.discover(candidate, 0.0),
                    1 => {
                        all_urls.add_in_link(candidate, PageId(source), 0.0);
                        all_urls.mark_dead(candidate, 1.0);
                    }
                    _ => all_urls.add_in_link(candidate, PageId(source), 0.0),
                }
            }
            let config = RankingConfig {
                pagerank: match form {
                    0 => PageRankConfig::conventional(),
                    1 => PageRankConfig::paper_1999(),
                    _ => PageRankConfig { max_iterations: 2, ..PageRankConfig::conventional() },
                },
                max_replacements_per_run: [0, 1, 8, 100][cap],
                admit_margin: [1.0, 1.1, 10.0][margin],
            };

            let mut expected = collection.clone();
            let want = reference_run(&config, &mut expected, &all_urls);
            let mut module = RankingModule::new(config);
            let mut got = collection.clone();
            let outcome = module.run(&mut got, &all_urls);
            prop_assert_eq!(&outcome.replacements, &want);
            prop_assert_eq!(importance_bits(&got), importance_bits(&expected));

            let solved = module.solve(RankInput::build(&collection, &all_urls));
            prop_assert_eq!(&solved.replacements, &want);
            let pool_importance: Vec<(PageId, u64)> =
                solved.importance.iter().map(|&(p, v)| (p, v.to_bits())).collect();
            prop_assert_eq!(pool_importance, importance_bits(&expected));
        }
    }

    fn filled_collection(n: u64) -> Collection {
        let mut c = Collection::new(n as usize, 50);
        for i in 0..n {
            c.save(url(i), Checksum(i), vec![], 0.0, None);
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

    /// A one-page collection saved with `m`'s initial posterior, changed on
    /// every daily visit for 30 days.
    fn always_changing(m: &UpdateModule) -> Collection {
        let mut c = Collection::new(1, 50);
        c.save(url(0), Checksum(0), vec![], 0.0, m.initial_posterior());
        for day in 1..=30 {
            c.update(PageId(0), Checksum(100 + day), vec![], day as f64);
        }
        c
    }

    #[test]
    fn update_module_learns_from_history() {
        // Change on every visit for 30 days: the estimate must be fast.
        let m = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Ep, 10.0);
        let rate = m.estimated_rate(always_changing(&m).get(PageId(0)).unwrap());
        assert!(rate.per_day() > 1.0, "rate={}", rate.per_day());
        // EB agrees directionally.
        let mb = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Eb, 10.0);
        let rb = mb.estimated_rate(always_changing(&mb).get(PageId(0)).unwrap());
        assert!(rb.per_day() > 0.3, "eb rate={}", rb.per_day());
    }

    #[test]
    fn eb_rate_of_a_page_without_a_posterior_is_the_prior() {
        let ep = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Ep, 10.0);
        let eb = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Eb, 10.0);
        let c = always_changing(&ep);
        let page = c.get(PageId(0)).unwrap();
        assert!(page.bayes.is_none());
        assert_eq!(eb.estimated_rate(page), ChangeRate(1.0 / 60.0));
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
        c.save(url(0), Checksum(0), vec![], 0.0, None);
        c.save(url(1), Checksum(1), vec![], 0.0, None);
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
        c.save(url(0), Checksum(0), vec![url(1)], 0.0, None);
        c.save(url(1), Checksum(1), vec![url(0)], 0.0, None);
        c.save(url(2), Checksum(2), vec![], 0.0, None);
        let mut a = AllUrls::new();
        // Candidate 10 is linked from both collection hubs.
        a.add_in_link(url(10), PageId(0), 0.0);
        a.add_in_link(url(10), PageId(1), 0.0);
        let mut ranking = RankingModule::new(RankingConfig {
            admit_margin: 1.0,
            ..RankingConfig::default()
        });
        let outcome = ranking.run(&mut c, &a);
        assert!(c.get(PageId(0)).unwrap().importance > c.get(PageId(2)).unwrap().importance);
        assert_eq!(outcome.replacements.len(), 1);
        let (victim, admit) = outcome.replacements[0];
        assert_eq!(victim, PageId(2), "isolated page is the victim");
        assert_eq!(admit, url(10));
    }

    #[test]
    fn ranking_respects_margin() {
        let mut c = Collection::new(2, 50);
        c.save(url(0), Checksum(0), vec![url(1)], 0.0, None);
        c.save(url(1), Checksum(1), vec![url(0)], 0.0, None);
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
        assert!(outcome.replacements.is_empty());
    }
}
