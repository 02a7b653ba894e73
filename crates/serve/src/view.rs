//! The immutable, epoch-numbered [`CollectionView`] and its per-page rows.
//!
//! A view is built once, on the crawl thread, from the borrowed boundary
//! arenas — that single pass over the dense `PageId` arena is the entire
//! publication cost. Everything derived (PageRank over the view's link
//! graph, change-rate top-k, per-site rollups) is memoized lazily behind
//! [`OnceLock`]s, so the first *reader* who asks pays for it, off the
//! crawl thread, and every later reader shares the result.

use std::sync::OnceLock;
use webevo_core::view::{BoundaryPages, ViewBoundary};
use webevo_core::CrawlMetrics;
use webevo_graph::{pagerank, LinkCsr, PageRankConfig, PageRankScores};
use webevo_stats::Summary;
use webevo_types::{Checksum, PageId, SiteId, Url};

/// One page of a [`CollectionView`]: the queryable projection of a stored
/// page at the boundary the view was published from.
#[derive(Clone, Debug)]
pub struct ViewPage {
    /// The page's global id.
    pub page: PageId,
    /// The owning site (`None` for periodic-engine views, whose
    /// user-visible snapshot does not record site attribution).
    pub site: Option<SiteId>,
    /// Checksum from the most recent crawl.
    pub checksum: Checksum,
    /// Time of the most recent crawl (days).
    pub last_crawl: f64,
    /// Number of crawls of this page (1 for periodic views — the batch
    /// baseline rebuilds from scratch every cycle).
    pub crawl_count: u64,
    /// Out-links extracted at the most recent crawl (empty for periodic
    /// views).
    pub links: Vec<Url>,
    /// Estimated change rate (events/day; 0 for periodic views — the
    /// batch baseline keeps no change histories).
    pub change_rate: f64,
    /// Importance score from the last ranking pass (0 for periodic
    /// views).
    pub importance: f64,
}

/// Epoch metadata of one published view.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochInfo {
    /// The view's epoch number (0 = the initial empty view, before the
    /// first pass boundary).
    pub epoch: u64,
    /// Simulated day of the boundary the view was published from.
    pub day: f64,
    /// Fetch sequence at the boundary (summed across shards for a fleet
    /// view).
    pub fetch_seq: u64,
    /// Completed refinement passes at the boundary (the minimum across
    /// shards for a fleet view).
    pub passes: u64,
    /// Number of pages in the view.
    pub pages: usize,
}

/// Overall freshness/age statistics of a view, read from the crawl's
/// metrics series at the boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FreshnessStats {
    /// Time-averaged freshness of the user-visible collection.
    pub avg_freshness: f64,
    /// Time-averaged mean copy age (days).
    pub avg_age: f64,
    /// The most recent freshness sample, if any: `(day, freshness)`.
    pub latest: Option<(f64, f64)>,
    /// Total fetches issued up to the boundary.
    pub fetches: u64,
    /// Failed fetches up to the boundary.
    pub failed_fetches: u64,
}

/// Per-site rollup of a view's pages, `CrawlMetrics`-style: Welford
/// summaries over the site's pages.
#[derive(Clone, Debug)]
pub struct SiteRollup {
    /// The site.
    pub site: SiteId,
    /// Pages of this site in the view.
    pub pages: usize,
    /// Copy age relative to the view's day (`day - last_crawl`).
    pub copy_age: Summary,
    /// Estimated change rates (events/day).
    pub change_rate: Summary,
    /// Importance scores.
    pub importance: Summary,
}

/// An immutable snapshot of the user-visible collection at one pass/cycle
/// boundary. Cheap to share (`Arc`), safe to query from any number of
/// threads; every answer derived from one view is internally consistent
/// with exactly that epoch.
#[derive(Debug)]
pub struct CollectionView {
    epoch: u64,
    day: f64,
    fetch_seq: u64,
    passes: u64,
    /// Ascending by `PageId` — the dense-arena iteration order, which is
    /// what makes lookups a binary search and fleet merges a k-way merge
    /// of sorted runs.
    pages: Vec<ViewPage>,
    metrics: CrawlMetrics,
    pagerank: OnceLock<PageRankScores>,
    top_rate: OnceLock<Vec<(PageId, f64)>>,
    rollups: OnceLock<Vec<SiteRollup>>,
}

impl CollectionView {
    /// The epoch-0 empty view: what readers see between `.serve()` and
    /// the first pass boundary.
    pub fn empty() -> CollectionView {
        CollectionView::from_parts(0, 0.0, 0, 0, Vec::new(), CrawlMetrics::default())
    }

    /// Build a view from raw parts. `pages` must be sorted ascending by
    /// `PageId` (debug-asserted) — both construction paths (arena
    /// iteration, sorted k-way fleet merge) produce that order naturally.
    pub fn from_parts(
        epoch: u64,
        day: f64,
        fetch_seq: u64,
        passes: u64,
        pages: Vec<ViewPage>,
        metrics: CrawlMetrics,
    ) -> CollectionView {
        debug_assert!(
            pages.windows(2).all(|w| w[0].page < w[1].page),
            "view pages must be strictly ascending by PageId"
        );
        CollectionView {
            epoch,
            day,
            fetch_seq,
            passes,
            pages,
            metrics,
            pagerank: OnceLock::new(),
            top_rate: OnceLock::new(),
            rollups: OnceLock::new(),
        }
    }

    /// Build a view from an engine's pass boundary. One pass over the
    /// dense arena; nothing derived is computed here.
    pub fn from_boundary(epoch: u64, boundary: &ViewBoundary<'_>) -> CollectionView {
        let pages = match boundary.pages {
            BoundaryPages::Stored { collection, update } => collection
                .iter()
                .map(|(page, stored)| ViewPage {
                    page,
                    site: Some(stored.url.site),
                    checksum: stored.checksum,
                    last_crawl: stored.last_crawl,
                    crawl_count: stored.crawl_count,
                    links: stored.links.clone(),
                    change_rate: update.estimated_rate(stored).0,
                    importance: stored.importance,
                })
                .collect(),
            BoundaryPages::Periodic(arena) => arena
                .iter()
                .map(|(page, snap)| ViewPage {
                    page,
                    site: None,
                    checksum: snap.checksum,
                    last_crawl: snap.crawl_time,
                    crawl_count: 1,
                    links: Vec::new(),
                    change_rate: 0.0,
                    importance: 0.0,
                })
                .collect(),
        };
        CollectionView::from_parts(
            epoch,
            boundary.t,
            boundary.fetch_seq,
            boundary.passes,
            pages,
            boundary.metrics.clone(),
        )
    }

    /// The view's epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Simulated day of the publishing boundary.
    pub fn day(&self) -> f64 {
        self.day
    }

    /// Epoch metadata.
    pub fn info(&self) -> EpochInfo {
        EpochInfo {
            epoch: self.epoch,
            day: self.day,
            fetch_seq: self.fetch_seq,
            passes: self.passes,
            pages: self.pages.len(),
        }
    }

    /// How far the live clock has moved past this view (days, never
    /// negative).
    pub fn staleness(&self, live_day: f64) -> f64 {
        (live_day - self.day).max(0.0)
    }

    /// Number of pages in the view.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when the view holds no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// All pages, ascending by `PageId`.
    pub fn pages(&self) -> &[ViewPage] {
        &self.pages
    }

    /// The crawl metrics as of the publishing boundary.
    pub fn metrics(&self) -> &CrawlMetrics {
        &self.metrics
    }

    /// Look a page up by id (binary search over the sorted arena order).
    pub fn get(&self, page: PageId) -> Option<&ViewPage> {
        self.pages
            .binary_search_by_key(&page, |p| p.page)
            .ok()
            .map(|i| &self.pages[i])
    }

    /// Look a page up by URL. For stored-collection views the URL's site
    /// must match; periodic views record no site, so only the page id is
    /// checked.
    pub fn lookup_url(&self, url: Url) -> Option<&ViewPage> {
        self.get(url.page)
            .filter(|p| p.site.is_none() || p.site == Some(url.site))
    }

    /// Overall freshness/age statistics from the boundary's metrics.
    pub fn freshness(&self) -> FreshnessStats {
        let times = self.metrics.freshness.times();
        let values = self.metrics.freshness.values();
        FreshnessStats {
            avg_freshness: self.metrics.freshness.time_average(),
            avg_age: self.metrics.age.time_average(),
            latest: times
                .last()
                .copied()
                .zip(values.last().copied()),
            fetches: self.metrics.fetches,
            failed_fetches: self.metrics.failed_fetches,
        }
    }

    /// Per-site rollups, ascending by `SiteId`. Pages without site
    /// attribution (periodic views) are skipped. Memoized per view.
    pub fn site_rollups(&self) -> &[SiteRollup] {
        self.rollups.get_or_init(|| {
            use std::collections::BTreeMap;
            let mut by_site: BTreeMap<SiteId, SiteRollup> = BTreeMap::new();
            for p in &self.pages {
                let Some(site) = p.site else { continue };
                let entry = by_site.entry(site).or_insert_with(|| SiteRollup {
                    site,
                    pages: 0,
                    copy_age: Summary::default(),
                    change_rate: Summary::default(),
                    importance: Summary::default(),
                });
                entry.pages += 1;
                entry.copy_age.record((self.day - p.last_crawl).max(0.0));
                entry.change_rate.record(p.change_rate);
                entry.importance.record(p.importance);
            }
            by_site.into_values().collect()
        })
    }

    /// PageRank over the view's own link graph (paper form, §2.2),
    /// restricted to links whose both endpoints are in the view. Memoized
    /// per view; empty for periodic views (no link structure). The solve
    /// is infallible here: the paper config converges on every graph this
    /// construction can produce (dangling mass is redistributed), and a
    /// non-view is better than a panic on the read path — an iteration
    /// cap blowout yields the empty scores.
    fn pagerank(&self) -> &PageRankScores {
        self.pagerank.get_or_init(|| {
            let links = LinkCsr::from_out_links(|| {
                self.pages
                    .iter()
                    .filter(|p| p.site.is_some())
                    .map(|p| (p.page, p.links.iter().map(|link| link.page)))
            });
            pagerank(&links, &PageRankConfig::paper_1999()).unwrap_or_default()
        })
    }

    /// The `k` highest-PageRank pages of the view, descending score, ties
    /// broken by ascending `PageId` (`PageRankScores::top_k` — the
    /// ordering is pinned, so served top-k lists are byte-identical
    /// across runs).
    pub fn top_k_pagerank(&self, k: usize) -> Vec<(PageId, f64)> {
        self.pagerank().top_k(k)
    }

    /// The `k` highest estimated-change-rate pages, descending rate, ties
    /// broken by ascending `PageId`. Memoized per view.
    pub fn top_k_change_rate(&self, k: usize) -> Vec<(PageId, f64)> {
        let ranked = self.top_rate.get_or_init(|| {
            let mut v: Vec<(PageId, f64)> =
                self.pages.iter().map(|p| (p.page, p.change_rate)).collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN").then(a.0.cmp(&b.0)));
            v
        });
        ranked.iter().take(k).copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(id: u64, site: u32, rate: f64, links: &[u64]) -> ViewPage {
        ViewPage {
            page: PageId(id),
            site: Some(SiteId(site)),
            checksum: Checksum(id),
            last_crawl: 1.0,
            crawl_count: 2,
            links: links.iter().map(|&l| Url::new(SiteId(site), PageId(l))).collect(),
            change_rate: rate,
            importance: 1.0,
        }
    }

    fn view(pages: Vec<ViewPage>) -> CollectionView {
        CollectionView::from_parts(3, 5.0, 40, 2, pages, CrawlMetrics::default())
    }

    #[test]
    fn empty_view_answers_sanely() {
        let v = CollectionView::empty();
        assert_eq!(v.info(), EpochInfo { epoch: 0, day: 0.0, fetch_seq: 0, passes: 0, pages: 0 });
        assert!(v.is_empty());
        assert!(v.get(PageId(1)).is_none());
        assert!(v.top_k_pagerank(5).is_empty());
        assert!(v.top_k_change_rate(5).is_empty());
        assert!(v.site_rollups().is_empty());
        assert_eq!(v.staleness(2.5), 2.5);
        assert_eq!(v.freshness().fetches, 0);
    }

    #[test]
    fn lookup_by_id_and_url() {
        let v = view(vec![page(1, 0, 0.1, &[]), page(4, 1, 0.2, &[])]);
        assert_eq!(v.get(PageId(4)).unwrap().site, Some(SiteId(1)));
        assert!(v.get(PageId(2)).is_none());
        assert!(v.lookup_url(Url::new(SiteId(1), PageId(4))).is_some());
        // Wrong site: the URL does not address this page.
        assert!(v.lookup_url(Url::new(SiteId(0), PageId(4))).is_none());
    }

    #[test]
    fn change_rate_top_k_is_ordered_and_tie_broken() {
        let v = view(vec![
            page(1, 0, 0.5, &[]),
            page(2, 0, 0.9, &[]),
            page(3, 0, 0.5, &[]),
            page(9, 0, 0.1, &[]),
        ]);
        let top = v.top_k_change_rate(3);
        assert_eq!(
            top.iter().map(|&(p, _)| p.0).collect::<Vec<_>>(),
            [2, 1, 3],
            "descending rate, ties by ascending id"
        );
    }

    #[test]
    fn pagerank_top_k_favors_the_hub() {
        // 1..=4 all link to 5; 5 links back to 1.
        let v = view(vec![
            page(1, 0, 0.0, &[5]),
            page(2, 0, 0.0, &[5]),
            page(3, 0, 0.0, &[5]),
            page(4, 0, 0.0, &[5]),
            page(5, 0, 0.0, &[1]),
        ]);
        let top = v.top_k_pagerank(2);
        assert_eq!(top[0].0, PageId(5), "hub ranks first");
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn rollups_group_by_site_in_order() {
        let v = view(vec![page(1, 2, 0.1, &[]), page(2, 0, 0.3, &[]), page(3, 2, 0.2, &[])]);
        let rollups = v.site_rollups();
        assert_eq!(rollups.len(), 2);
        assert_eq!(rollups[0].site, SiteId(0));
        assert_eq!(rollups[0].pages, 1);
        assert_eq!(rollups[1].site, SiteId(2));
        assert_eq!(rollups[1].pages, 2);
        assert!((rollups[1].change_rate.mean() - 0.15).abs() < 1e-12);
        // Copy age is measured against the view's day (5.0 - 1.0).
        assert!((rollups[1].copy_age.mean() - 4.0).abs() < 1e-12);
    }
}
