//! The epoch swap and the reader-facing [`QueryService`].
//!
//! [`ViewHandle`] is the swap point: one `RwLock<Arc<CollectionView>>`
//! plus an atomic epoch counter. Publication takes the write lock just
//! long enough to store a new `Arc` (readers briefly clone the current
//! `Arc` under the read lock and then answer entirely lock-free from
//! their snapshot), so readers never block writers for longer than an
//! `Arc` store and writers never block readers for longer than an `Arc`
//! clone. The workspace forbids `unsafe`, so this is the swap primitive —
//! the critical sections are two reference-count operations, which is
//! what `benchmark/`'s `serve.swap_stall_ns_max` reading measures.

use crate::view::{CollectionView, EpochInfo, FreshnessStats, SiteRollup, ViewPage};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use webevo_core::view::{ViewBoundary, ViewPublisher};
use webevo_obs::ObsSink;
use webevo_types::{PageId, Url};

/// The atomic epoch pointer readers and the publisher share.
#[derive(Debug)]
pub struct ViewHandle {
    current: RwLock<Arc<CollectionView>>,
    epoch: AtomicU64,
}

impl ViewHandle {
    /// A fresh handle holding the epoch-0 empty view, so readers that
    /// attach before the first pass boundary get sane (empty) answers.
    pub fn new() -> Arc<ViewHandle> {
        Arc::new(ViewHandle {
            current: RwLock::new(Arc::new(CollectionView::empty())),
            epoch: AtomicU64::new(0),
        })
    }

    /// The current epoch number, without touching the view lock.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Snapshot the current view. The read lock is held for one `Arc`
    /// clone; every query answered from the returned `Arc` is consistent
    /// with exactly this epoch.
    pub fn view(&self) -> Arc<CollectionView> {
        Arc::clone(&self.current.read().expect("no publisher panicked holding the view lock"))
    }

    /// Swap a new view in and advance the epoch counter.
    pub fn install(&self, view: CollectionView) {
        let epoch = view.epoch();
        *self.current.write().expect("no reader panicked holding the view lock") =
            Arc::new(view);
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// The serving attachment for one engine: hands out the boundary-side
/// [`ViewPublisher`] and any number of reader-side [`QueryService`]s,
/// all sharing one [`ViewHandle`].
#[derive(Clone, Debug)]
pub struct ServeHandle {
    handle: Arc<ViewHandle>,
    obs: ObsSink,
}

impl ServeHandle {
    /// Create a serving attachment. Pass the session's [`ObsSink`] to get
    /// `serve_epoch`/`serve_view_pages` gauges and per-query latency
    /// histograms; the no-op sink serves without recording.
    pub fn new(obs: ObsSink) -> ServeHandle {
        ServeHandle { handle: ViewHandle::new(), obs }
    }

    /// The shared swap point.
    pub fn view_handle(&self) -> &Arc<ViewHandle> {
        &self.handle
    }

    /// A publisher to install on an engine
    /// ([`CrawlEngine::set_view_publisher`](webevo_core::CrawlEngine::set_view_publisher)).
    /// May be called again after engine recovery — epochs keep counting
    /// from the handle's current epoch.
    pub fn publisher(&self) -> Box<dyn ViewPublisher> {
        Box::new(EpochPublisher { handle: Arc::clone(&self.handle), obs: self.obs.clone() })
    }

    /// A reader-facing query service. Cheap to clone and `Send + Sync`:
    /// hand one to each reader thread.
    pub fn service(&self) -> QueryService {
        QueryService { handle: Arc::clone(&self.handle), obs: self.obs.clone() }
    }
}

/// The boundary-side publisher: builds a [`CollectionView`] from each
/// pass boundary and swaps it in as the next epoch.
struct EpochPublisher {
    handle: Arc<ViewHandle>,
    obs: ObsSink,
}

impl ViewPublisher for EpochPublisher {
    fn publish(&mut self, boundary: ViewBoundary<'_>) {
        let epoch = self.handle.epoch() + 1;
        let view = CollectionView::from_boundary(epoch, &boundary);
        let pages = view.len();
        self.handle.install(view);
        if self.obs.enabled() {
            self.obs.gauge("serve_epoch", epoch as f64);
            self.obs.gauge("serve_view_pages", pages as f64);
        }
    }
}

/// Concurrent read access to the latest published view. Every method
/// snapshots the current epoch once and answers entirely from that
/// snapshot; use [`QueryService::view`] directly to run several queries
/// against one consistent epoch.
#[derive(Clone, Debug)]
pub struct QueryService {
    handle: Arc<ViewHandle>,
    obs: ObsSink,
}

impl QueryService {
    /// Snapshot the current view for multi-query consistency.
    pub fn view(&self) -> Arc<CollectionView> {
        self.handle.view()
    }

    /// The current epoch number (no view lock taken).
    pub fn epoch(&self) -> u64 {
        self.handle.epoch()
    }

    fn timed<R>(&self, f: impl FnOnce(&CollectionView) -> R) -> R {
        let view = self.handle.view();
        if !self.obs.enabled() {
            return f(&view);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "`Instant::now` feeds the obs latency histograms only; query results never depend on it"
        )]
        let start = Instant::now();
        let out = f(&view);
        self.obs.observe("serve_query_us", start.elapsed().as_micros() as f64);
        out
    }

    /// Epoch metadata of the current view.
    pub fn epoch_info(&self) -> EpochInfo {
        self.timed(|v| v.info())
    }

    /// How many days the live clock (`live_day`) has moved past the
    /// current view.
    pub fn staleness(&self, live_day: f64) -> f64 {
        self.timed(|v| v.staleness(live_day))
    }

    /// Look a page up by id.
    pub fn lookup(&self, page: PageId) -> Option<ViewPage> {
        self.timed(|v| v.get(page).cloned())
    }

    /// Look a page up by URL (site-checked where the view records sites).
    pub fn lookup_url(&self, url: Url) -> Option<ViewPage> {
        self.timed(|v| v.lookup_url(url).cloned())
    }

    /// Overall freshness/age statistics of the current view.
    pub fn freshness(&self) -> FreshnessStats {
        self.timed(|v| v.freshness())
    }

    /// Per-site rollups of the current view, ascending by `SiteId`.
    pub fn site_rollups(&self) -> Vec<SiteRollup> {
        self.timed(|v| v.site_rollups().to_vec())
    }

    /// Top `k` pages by PageRank over the current view's link graph.
    pub fn top_k_pagerank(&self, k: usize) -> Vec<(PageId, f64)> {
        self.timed(|v| v.top_k_pagerank(k))
    }

    /// Top `k` pages by estimated change rate.
    pub fn top_k_change_rate(&self, k: usize) -> Vec<(PageId, f64)> {
        self.timed(|v| v.top_k_change_rate(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_core::CrawlMetrics;
    use webevo_types::{Checksum, SiteId};

    fn test_view(epoch: u64, ids: &[u64]) -> CollectionView {
        let pages = ids
            .iter()
            .map(|&id| ViewPage {
                page: PageId(id),
                site: Some(SiteId(0)),
                checksum: Checksum(id),
                last_crawl: 0.0,
                crawl_count: 1,
                links: Vec::new(),
                change_rate: 0.0,
                importance: 1.0,
            })
            .collect();
        CollectionView::from_parts(epoch, epoch as f64, 0, epoch, pages, CrawlMetrics::default())
    }

    #[test]
    fn handle_starts_at_the_empty_epoch_and_swaps_forward() {
        let serve = ServeHandle::new(ObsSink::noop());
        let service = serve.service();
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.epoch_info().pages, 0);

        serve.view_handle().install(test_view(1, &[3, 7]));
        assert_eq!(service.epoch(), 1);
        assert_eq!(service.epoch_info().pages, 2);
        assert_eq!(service.lookup(PageId(7)).unwrap().page, PageId(7));
        assert!(service.lookup(PageId(4)).is_none());
    }

    #[test]
    fn snapshots_outlive_later_swaps() {
        let serve = ServeHandle::new(ObsSink::noop());
        serve.view_handle().install(test_view(1, &[1]));
        let snapshot = serve.service().view();
        serve.view_handle().install(test_view(2, &[1, 2, 3]));
        // The old snapshot still answers from epoch 1, the handle from 2.
        assert_eq!(snapshot.epoch(), 1);
        assert_eq!(snapshot.len(), 1);
        assert_eq!(serve.service().view().epoch(), 2);
    }

    #[test]
    fn recorded_queries_land_latency_observations() {
        let obs = ObsSink::recording();
        let serve = ServeHandle::new(obs.clone());
        serve.view_handle().install(test_view(1, &[1, 2]));
        let service = serve.service();
        let _ = service.epoch_info();
        let _ = service.lookup(PageId(2));
        let merged = obs.merged_registry().expect("one sink");
        let hist = merged.histogram("serve_query_us").expect("queries recorded");
        assert_eq!(hist.count(), 2);
    }
}
