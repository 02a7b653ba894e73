//! Fleet serving: merging per-shard boundary views into one fleet view.
//!
//! Each shard's engine gets a [`ViewPublisher`] that stashes the shard's
//! latest boundary parts into a shared slot; the fleet coordinator calls
//! [`FleetViewCollector::merge_and_publish`] at every exchange barrier
//! (and after the final drive), where all shards are quiescent at the
//! same simulated day. The merge is cheap by construction: shards own
//! disjoint `PageId` sets and each slot's pages arrive sorted ascending,
//! so the fleet view is a k-way merge of sorted runs, and the metrics
//! merge is the same capacity-weighted pooling `FleetSession` uses for
//! its end-of-run metrics.

use crate::query::{QueryService, ServeHandle};
use crate::view::{CollectionView, ViewPage};
use std::sync::{Arc, Mutex};
use webevo_core::view::{ViewBoundary, ViewPublisher};
use webevo_core::CrawlMetrics;
use webevo_types::{ShardId, WebEvoError};

/// One shard's latest published boundary, staged for the next merge.
struct ShardParts {
    day: f64,
    fetch_seq: u64,
    passes: u64,
    pages: Vec<ViewPage>,
    metrics: CrawlMetrics,
}

/// Shared collection point for per-shard views, owned by the fleet
/// coordinator.
pub struct FleetViewCollector {
    serve: ServeHandle,
    /// Per-shard staging slots, written by shard drive threads at their
    /// pass boundaries and drained (read) by the coordinator at barriers.
    slots: Mutex<Vec<Option<ShardParts>>>,
    /// Capacity weights for the metrics merge, ascending shard order —
    /// the same weights `FleetSession` merges its end-of-run metrics
    /// with.
    weights: Vec<f64>,
}

impl FleetViewCollector {
    /// A collector for `weights.len()` shards with the given capacity
    /// weights.
    pub fn new(serve: ServeHandle, weights: Vec<f64>) -> Arc<FleetViewCollector> {
        let shards = weights.len();
        Arc::new(FleetViewCollector {
            serve,
            slots: Mutex::new((0..shards).map(|_| None).collect()),
            weights,
        })
    }

    /// The publisher to install on shard `shard`'s engine.
    pub fn publisher_for(self: &Arc<Self>, shard: ShardId) -> Box<dyn ViewPublisher> {
        Box::new(ShardPublisher { collector: Arc::clone(self), shard })
    }

    /// A reader-facing service over the merged fleet view.
    pub fn service(&self) -> QueryService {
        self.serve.service()
    }

    /// Merge the staged shard views into one fleet view and publish it as
    /// the next epoch. Returns `false` (and publishes nothing) until
    /// every shard has staged at least one boundary — before the first
    /// barrier the epoch-0 empty view keeps serving. Call only from the
    /// coordinator with all shards quiescent.
    pub fn merge_and_publish(&self) -> Result<bool, WebEvoError> {
        let slots = self.slots.lock().expect("no shard panicked holding the view slots");
        if slots.iter().any(|slot| slot.is_none()) {
            return Ok(false);
        }
        // The fleet stamp: all shards sit at the same barrier day (the
        // max covers a shard whose final boundary landed a hair earlier);
        // fetch sequences are per-shard counters, so the fleet total is
        // their sum; passes advance in lockstep, so the fleet count is
        // the slowest shard's.
        let day = slots
            .iter()
            .flatten()
            .map(|p| p.day)
            .fold(f64::NEG_INFINITY, f64::max);
        let fetch_seq = slots.iter().flatten().map(|p| p.fetch_seq).sum();
        let passes = slots.iter().flatten().map(|p| p.passes).min().unwrap_or(0);
        let mut pages: Vec<ViewPage> = Vec::with_capacity(
            slots.iter().flatten().map(|p| p.pages.len()).sum(),
        );
        for parts in slots.iter().flatten() {
            pages.extend(parts.pages.iter().cloned());
        }
        // Disjoint sorted runs concatenated in shard order: one sort
        // restores global PageId order (cheap — runs are pre-sorted).
        pages.sort_by_key(|p| p.page);
        // Shards sample on one shared grid, but a pass boundary can fire
        // a hair before or after a shard's own sampling instant, so the
        // *staged* series may trail each other by a row. Truncate every
        // shard to the common prefix (the slowest shard's last sample)
        // before the weighted merge, which requires identical grids.
        let rows = slots
            .iter()
            .flatten()
            .map(|p| p.metrics.freshness.len())
            .min()
            .unwrap_or(0);
        let truncated: Vec<CrawlMetrics> = slots
            .iter()
            .flatten()
            .map(|p| truncate_series(&p.metrics, rows))
            .collect();
        let parts: Vec<(f64, &CrawlMetrics)> = self
            .weights
            .iter()
            .zip(truncated.iter())
            .map(|(&w, m)| (w, m))
            .collect();
        let metrics = CrawlMetrics::merge_weighted(&parts)?;
        let epoch = self.serve.view_handle().epoch() + 1;
        self.serve
            .view_handle()
            .install(CollectionView::from_parts(epoch, day, fetch_seq, passes, pages, metrics));
        Ok(true)
    }
}

/// A copy of `metrics` with the freshness/age series cut to the first
/// `rows` samples (the counters and latency summaries pass through
/// unchanged — they are totals, not grids).
fn truncate_series(metrics: &CrawlMetrics, rows: usize) -> CrawlMetrics {
    let mut out = metrics.clone();
    out.freshness = Default::default();
    out.age = Default::default();
    for ((t, fresh), (_, age)) in metrics
        .freshness
        .rows()
        .zip(metrics.age.rows())
        .take(rows)
    {
        out.sample(t, fresh, age);
    }
    out
}

impl std::fmt::Debug for FleetViewCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetViewCollector")
            .field("shards", &self.weights.len())
            .field("epoch", &self.serve.view_handle().epoch())
            .finish()
    }
}

/// The per-shard boundary observer: stages the shard's latest view parts
/// for the coordinator's next merge. Runs on the shard's drive thread.
struct ShardPublisher {
    collector: Arc<FleetViewCollector>,
    shard: ShardId,
}

impl ViewPublisher for ShardPublisher {
    fn publish(&mut self, boundary: ViewBoundary<'_>) {
        // Build the shard's rows via the single-engine path (epoch number
        // is irrelevant for staged parts; the merged view gets its own).
        let staged = CollectionView::from_boundary(0, &boundary);
        let (day, fetch_seq, passes) =
            (boundary.t, boundary.fetch_seq, boundary.passes);
        let pages = staged.pages().to_vec();
        let metrics = staged.metrics().clone();
        let mut slots =
            self.collector.slots.lock().expect("no shard panicked holding the view slots");
        slots[self.shard.0 as usize] =
            Some(ShardParts { day, fetch_seq, passes, pages, metrics });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_core::view::BoundaryPages;
    use webevo_core::{Collection, EstimatorKind, RevisitStrategy, UpdateModule};
    use webevo_obs::ObsSink;
    use webevo_types::{Checksum, PageId, SiteId, Url};

    fn boundary_parts(
        ids: &[u64],
        site: u32,
        t: f64,
    ) -> (Collection, UpdateModule, CrawlMetrics) {
        let mut collection = Collection::new(ids.len().max(1), 10);
        for &id in ids {
            collection.save(Url::new(SiteId(site), PageId(id)), Checksum(id), vec![], t, None);
        }
        let update = UpdateModule::new(RevisitStrategy::Uniform, EstimatorKind::Ep, 30.0);
        let mut metrics = CrawlMetrics::default();
        metrics.sample(t, 1.0, 0.0);
        (collection, update, metrics)
    }

    fn publish(
        collector: &Arc<FleetViewCollector>,
        shard: u32,
        ids: &[u64],
        t: f64,
        passes: u64,
    ) {
        let (collection, update, metrics) = boundary_parts(ids, shard, t);
        let mut publisher = collector.publisher_for(ShardId(shard));
        publisher.publish(ViewBoundary {
            t,
            fetch_seq: 10 * (shard as u64 + 1),
            passes,
            pages: BoundaryPages::Stored { collection: &collection, update: &update },
            metrics: &metrics,
        });
    }

    #[test]
    fn merge_waits_for_every_shard_then_interleaves_pages() {
        let collector =
            FleetViewCollector::new(ServeHandle::new(ObsSink::noop()), vec![2.0, 2.0]);
        let service = collector.service();

        publish(&collector, 0, &[0, 4], 6.0, 1);
        // Shard 1 has not published: nothing to merge yet.
        assert!(!collector.merge_and_publish().expect("merge runs"));
        assert_eq!(service.epoch(), 0);

        publish(&collector, 1, &[1, 3], 6.0, 1);
        assert!(collector.merge_and_publish().expect("merge runs"));
        let view = service.view();
        assert_eq!(view.epoch(), 1);
        let ids: Vec<u64> = view.pages().iter().map(|p| p.page.0).collect();
        assert_eq!(ids, [0, 1, 3, 4], "global ascending PageId order restored");
        let info = view.info();
        assert_eq!(info.fetch_seq, 30, "fleet fetch_seq is the shard sum");
        assert_eq!(info.passes, 1);
        assert_eq!(info.day, 6.0);

        // Later barriers advance the epoch with refreshed shard parts.
        publish(&collector, 0, &[0, 4, 6], 12.0, 2);
        publish(&collector, 1, &[1, 3], 12.0, 2);
        assert!(collector.merge_and_publish().expect("merge runs"));
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.epoch_info().pages, 5);
    }
}
