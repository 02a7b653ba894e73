//! The `Collection`: the crawler's local page store (Figure 12).
//!
//! Each stored page carries what §5.3 says the UpdateModule records: the
//! last checksum (for change detection), the change history feeding
//! estimator EP, the extracted links (feeding both AllUrls and the
//! RankingModule's link structure), and the current importance score. A
//! page carries EB's frequency-class posterior only when the UpdateModule
//! estimates with EB: the UpdateModule owns that choice and hands
//! [`Collection::save`] each new page's initial posterior, `None` under EP,
//! whose estimate never reads one.

use webevo_estimate::{BayesianEstimator, ChangeHistory};
use webevo_types::{wire_struct, Checksum, DenseMap, PageId, SiteId, Url};

/// One page's stored state.
#[derive(Clone, Debug)]
pub struct StoredPage {
    /// The page's URL.
    pub url: Url,
    /// Checksum from the most recent crawl.
    pub checksum: Checksum,
    /// Out-links extracted at the most recent crawl.
    pub links: Vec<Url>,
    /// Time of the most recent crawl (days).
    pub last_crawl: f64,
    /// Number of crawls of this page.
    pub crawl_count: u64,
    /// Change observation history (drives estimator EP).
    pub history: ChangeHistory,
    /// Bayesian frequency-class state (drives estimator EB): `Some`
    /// exactly when the UpdateModule estimates with EB (see
    /// [`UpdateModule::initial_posterior`](crate::UpdateModule::initial_posterior)).
    /// Boxed, because EP pages (the default) never set it: inline, the
    /// posterior would widen every stored page and every empty slot of the
    /// collection's dense map by 48 bytes. A box encodes as its contents,
    /// so the wire layout is the unboxed one.
    pub bayes: Option<Box<BayesianEstimator>>,
    /// Current importance score (set by the RankingModule; 1.0 until the
    /// first ranking pass, matching PageRank's mean).
    pub importance: f64,
}

/// The local collection: a capacity-bounded page store.
#[derive(Clone, Debug)]
pub struct Collection {
    // Dense slot map, iterated in ascending-id order: iteration feeds
    // float accumulations (metrics sampling, ranking mass sums) that must
    // replay exactly for a fixed seed, and ascending `PageId` is the same
    // order the ordered map it replaced produced. A HashMap's per-instance
    // seed would reorder them run to run.
    pages: DenseMap<StoredPage>,
    capacity: usize,
    history_window: usize,
}

impl Collection {
    /// Create with a fixed page capacity (the paper's "fixed number of
    /// pages" assumption, §5.2) and a per-page history window.
    pub fn new(capacity: usize, history_window: usize) -> Collection {
        assert!(capacity > 0, "collection capacity must be positive");
        Collection { pages: DenseMap::new(), capacity, history_window }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stored pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.pages.len() >= self.capacity
    }

    /// True if the page is stored.
    pub fn contains(&self, page: PageId) -> bool {
        self.pages.contains(page)
    }

    /// Shared access to a stored page.
    pub fn get(&self, page: PageId) -> Option<&StoredPage> {
        self.pages.get(page)
    }

    /// Mutable access to a stored page.
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut StoredPage> {
        self.pages.get_mut(page)
    }

    /// Admit a new page crawled at `t` (Algorithm 5.1 step \[9\]) with
    /// `bayes` as its initial EB state — what
    /// [`UpdateModule::initial_posterior`](crate::UpdateModule::initial_posterior)
    /// hands out. Panics if full — the engine must evict first (step
    /// \[7\]/\[8\]); that ordering is the refinement decision and must stay
    /// explicit.
    pub fn save(
        &mut self,
        url: Url,
        checksum: Checksum,
        links: Vec<Url>,
        t: f64,
        bayes: Option<Box<BayesianEstimator>>,
    ) {
        assert!(!self.is_full(), "collection full: evict before saving");
        assert!(!self.pages.contains(url.page), "page already stored: use update");
        let mut history = ChangeHistory::new(self.history_window);
        history.record_visit(t, checksum);
        self.pages.insert(
            url.page,
            StoredPage {
                url,
                checksum,
                links,
                last_crawl: t,
                crawl_count: 1,
                history,
                bayes,
                importance: 1.0,
            },
        );
    }

    /// Update an existing page from a re-crawl at `t` (Algorithm 5.1 step
    /// \[5\]). Returns whether a change was detected.
    pub fn update(&mut self, page: PageId, checksum: Checksum, links: Vec<Url>, t: f64) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "`update` requires a stored page: the engines update only pages they just found stored"
        )]
        let stored = self.pages.get_mut(page).expect("update requires a stored page");
        let obs = stored.history.record_visit(t, checksum);
        if obs.interval > 0.0 {
            if let Some(bayes) = &mut stored.bayes {
                bayes.observe(obs.interval, obs.changed);
            }
        }
        stored.checksum = checksum;
        stored.links = links;
        stored.last_crawl = t;
        stored.crawl_count += 1;
        obs.changed
    }

    /// Discard a page (Algorithm 5.1 step \[8\]). Returns its state.
    pub fn discard(&mut self, page: PageId) -> Option<StoredPage> {
        self.pages.remove(page)
    }

    /// Iterate stored pages in ascending-id order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, &StoredPage)> {
        self.pages.iter()
    }

    /// Iterate stored pages mutably, ascending-id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (PageId, &mut StoredPage)> {
        self.pages.iter_mut()
    }

    /// The stored page with the lowest importance (deterministic
    /// tie-break on page id) — the discard candidate of §5.2.
    pub fn least_important(&self) -> Option<PageId> {
        self.pages
            .iter()
            .min_by(|a, b| a.1.importance.total_cmp(&b.1.importance).then(a.0.cmp(&b.0)))
            .map(|(p, _)| p)
    }

    /// Remove and return every page whose site satisfies `departing`, in
    /// ascending page-id order — the donor side of a fleet rebalance.
    pub fn extract_pages(&mut self, departing: impl Fn(SiteId) -> bool) -> Vec<StoredPage> {
        let leaving: Vec<PageId> = self
            .pages
            .iter()
            .filter(|(_, stored)| departing(stored.url.site))
            .map(|(p, _)| p)
            .collect();
        leaving
            .into_iter()
            .filter_map(|p| self.pages.remove(p))
            .collect()
    }

    /// Re-insert a page extracted from another shard's collection, state
    /// verbatim (change history, estimators, importance all carried
    /// over). Panics if the page is already stored; unlike
    /// [`Collection::save`] this may overfill — rebalancing trims to the
    /// re-apportioned capacity afterwards via [`Collection::set_capacity`]
    /// and explicit eviction.
    pub fn absorb(&mut self, page: StoredPage) {
        assert!(!self.pages.contains(page.url.page), "page already stored: cannot absorb");
        self.pages.insert(page.url.page, page);
    }

    /// Rewrite the capacity — fleet rebalancing re-apportions capacity
    /// along with site ownership. The caller is responsible for evicting
    /// down to the new capacity.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "collection capacity must be positive");
        self.capacity = capacity;
    }
}

wire_struct!(StoredPage {
    url, checksum, links, last_crawl, crawl_count, history, bayes, importance
});
wire_struct!(Collection { pages, capacity, history_window });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modules::{EstimatorKind, RevisitStrategy, UpdateModule};
    use webevo_types::SiteId;

    fn url(i: u64) -> Url {
        Url::new(SiteId(0), PageId(i))
    }

    fn collection() -> Collection {
        Collection::new(3, 50)
    }

    /// What the UpdateModule under `estimator` hands a new page.
    fn initial_posterior(estimator: EstimatorKind) -> Option<Box<BayesianEstimator>> {
        UpdateModule::new(RevisitStrategy::Uniform, estimator, 10.0).initial_posterior()
    }

    #[test]
    fn save_update_discard_lifecycle() {
        let mut c = collection();
        c.save(url(1), Checksum(100), vec![url(2)], 0.0, None);
        assert!(c.contains(PageId(1)));
        assert_eq!(c.len(), 1);
        // Unchanged re-crawl.
        assert!(!c.update(PageId(1), Checksum(100), vec![], 1.0));
        // Changed re-crawl.
        assert!(c.update(PageId(1), Checksum(200), vec![url(3)], 2.0));
        let stored = c.get(PageId(1)).unwrap();
        assert_eq!(stored.crawl_count, 3);
        assert_eq!(stored.history.detections(), 1);
        assert_eq!(stored.links, vec![url(3)]);
        let removed = c.discard(PageId(1)).unwrap();
        assert_eq!(removed.crawl_count, 3);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "evict before saving")]
    fn save_into_full_collection_panics() {
        let mut c = collection();
        for i in 0..3 {
            c.save(url(i), Checksum(i), vec![], 0.0, None);
        }
        c.save(url(9), Checksum(9), vec![], 0.0, None);
    }

    #[test]
    #[should_panic(expected = "already stored")]
    fn double_save_panics() {
        let mut c = collection();
        c.save(url(1), Checksum(1), vec![], 0.0, None);
        c.save(url(1), Checksum(1), vec![], 1.0, None);
    }

    #[test]
    fn least_important_breaks_ties_deterministically() {
        let mut c = collection();
        for i in 0..3 {
            c.save(url(i), Checksum(i), vec![], 0.0, None);
        }
        // All importance 1.0 → lowest page id wins the tie.
        assert_eq!(c.least_important(), Some(PageId(0)));
        c.get_mut(PageId(2)).unwrap().importance = 0.1;
        assert_eq!(c.least_important(), Some(PageId(2)));
    }

    #[test]
    fn bayes_observes_changes_on_update() {
        let mut c = collection();
        c.save(url(1), Checksum(0), vec![], 0.0, initial_posterior(EstimatorKind::Eb));
        for day in 1..=30 {
            // Change every other day.
            let ck = Checksum((day / 2) as u64);
            c.update(PageId(1), ck, vec![], day as f64);
        }
        let bayes = c.get(PageId(1)).unwrap().bayes.as_ref().expect("EB pages keep a posterior");
        assert_eq!(bayes.observations(), 30);
        // Posterior mean should land near 0.5/day, far from the
        // "quarterly+" class.
        let rate = bayes.posterior_mean_rate().per_day();
        assert!(rate > 0.1, "rate={rate}");
    }

    #[test]
    fn ep_pages_carry_no_posterior() {
        let mut c = collection();
        c.save(url(1), Checksum(0), vec![], 0.0, initial_posterior(EstimatorKind::Ep));
        assert!(c.get(PageId(1)).unwrap().bayes.is_none());
        for day in 1..=30 {
            c.update(PageId(1), Checksum((day / 2) as u64), vec![], day as f64);
        }
        let stored = c.get(PageId(1)).unwrap();
        assert!(stored.bayes.is_none(), "an update must not conjure a posterior");
        assert_eq!(stored.history.comparisons(), 30);
    }

    #[test]
    fn every_strict_prefix_of_a_stored_page_is_truncated() {
        use webevo_types::{BinDecode, BinEncode, BinReader};
        for estimator in [EstimatorKind::Ep, EstimatorKind::Eb] {
            let mut c = collection();
            c.save(url(1), Checksum(7), vec![url(2), url(3)], 0.5, initial_posterior(estimator));
            c.update(PageId(1), Checksum(8), vec![url(4)], 3.0);
            let mut bytes = Vec::new();
            c.get(PageId(1)).unwrap().bin_encode(&mut bytes);
            let back = StoredPage::bin_decode(&mut BinReader::new(&bytes)).unwrap();
            assert_eq!(back.bayes.is_some(), estimator == EstimatorKind::Eb);
            for len in 0..bytes.len() {
                let err = StoredPage::bin_decode(&mut BinReader::new(&bytes[..len])).unwrap_err();
                assert!(err.to_string().starts_with("payload truncated: wanted "), "{len}: {err}");
            }
        }
    }
}
