//! The serving half of the pass-boundary surface: a write-only observer
//! that sees the engine's user-visible pages at every quiescent boundary.
//!
//! [`CrawlHook`](crate::CrawlHook) is the *durability* observer of a pass
//! boundary (snapshots, WAL flushes); [`ViewPublisher`] is the *serving*
//! observer. At every ranking pass (incremental, threaded) or shadow swap
//! (periodic) the engine hands the publisher a [`ViewBoundary`] — borrowed
//! references into the dense `PageId` arenas plus the boundary's logical
//! clock — and the publisher clones whatever it needs to build an
//! immutable, epoch-numbered view for concurrent readers (`webevo-serve`).
//!
//! The hard invariant mirrors observability's: **serving is free**. The
//! publisher is write-only — engines never read anything back from it, it
//! is deliberately absent from [`CrawlerState`](crate::CrawlerState) and
//! every snapshot/WAL format, and a served run's checkpoints and metrics
//! stay byte-identical to an unserved run's (`tests/determinism.rs` pins
//! this for all three engines and a sharded fleet).

use crate::collection::Collection;
use crate::metrics::CrawlMetrics;
use crate::modules::UpdateModule;
use crate::periodic::PeriodicPage;
use webevo_types::DenseMap;

/// The user-visible pages at one boundary, borrowed straight from the
/// engine's dense arenas. Publishers clone from these borrows — that one
/// arena clone is the entire publication cost on the crawl thread.
#[derive(Clone, Copy, Debug)]
pub enum BoundaryPages<'a> {
    /// A stored-collection engine (incremental, threaded): the Figure 12
    /// `Collection` plus the `UpdateModule` that owns its change-rate
    /// estimates.
    Stored {
        /// The live collection at the boundary.
        collection: &'a Collection,
        /// The update module, for per-page estimated change rates.
        update: &'a UpdateModule,
    },
    /// The periodic engine: the user-visible current window (checksums and
    /// crawl times only — the batch baseline keeps no link structure,
    /// histories, or importance scores).
    Periodic(&'a DenseMap<PeriodicPage>),
}

impl BoundaryPages<'_> {
    /// Number of user-visible pages at the boundary.
    pub fn len(&self) -> usize {
        match self {
            BoundaryPages::Stored { collection, .. } => collection.len(),
            BoundaryPages::Periodic(pages) => pages.len(),
        }
    }

    /// True when no pages are visible yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a publisher may read at one pass/cycle boundary.
#[derive(Debug)]
pub struct ViewBoundary<'a> {
    /// Simulated day of the boundary.
    pub t: f64,
    /// Fetch sequence number at the boundary.
    pub fetch_seq: u64,
    /// Completed refinement passes including this one (ranking runs,
    /// applied rankings, or shadow swaps — see
    /// [`CrawlEngine::passes`](crate::CrawlEngine::passes)).
    pub passes: u64,
    /// The user-visible pages.
    pub pages: BoundaryPages<'a>,
    /// The crawl metrics accumulated so far.
    pub metrics: &'a CrawlMetrics,
}

/// A pass-boundary serving observer. Implementations build immutable
/// views from the borrowed boundary state; they must never feed anything
/// back into the engine (there is no channel to — the contract is
/// write-only by construction).
pub trait ViewPublisher: Send {
    /// Called once per pass/cycle boundary, on the crawl thread, with the
    /// engine quiescent. Keep it cheap: readers are waiting on the next
    /// epoch, and the crawl is stalled until this returns.
    fn publish(&mut self, boundary: ViewBoundary<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::{Checksum, PageId, SiteId, Url};

    struct CountingPublisher {
        boundaries: Vec<(f64, u64, usize)>,
    }

    impl ViewPublisher for CountingPublisher {
        fn publish(&mut self, boundary: ViewBoundary<'_>) {
            self.boundaries.push((boundary.t, boundary.passes, boundary.pages.len()));
        }
    }

    #[test]
    fn boundary_pages_report_length_for_both_arenas() {
        let mut collection = Collection::new(4, 10);
        collection.save(Url::new(SiteId(0), PageId(1)), Checksum(7), vec![], 0.5, None);
        let update = UpdateModule::new(
            crate::modules::RevisitStrategy::Uniform,
            crate::modules::EstimatorKind::Ep,
            30.0,
        );
        let stored = BoundaryPages::Stored { collection: &collection, update: &update };
        assert_eq!(stored.len(), 1);
        assert!(!stored.is_empty());

        let arena: DenseMap<PeriodicPage> = DenseMap::new();
        let periodic = BoundaryPages::Periodic(&arena);
        assert!(periodic.is_empty());
    }

    #[test]
    fn publishers_see_the_boundary_stamp() {
        let collection = Collection::new(4, 10);
        let update = UpdateModule::new(
            crate::modules::RevisitStrategy::Uniform,
            crate::modules::EstimatorKind::Ep,
            30.0,
        );
        let metrics = CrawlMetrics::default();
        let mut publisher = CountingPublisher { boundaries: Vec::new() };
        publisher.publish(ViewBoundary {
            t: 3.0,
            fetch_seq: 42,
            passes: 1,
            pages: BoundaryPages::Stored { collection: &collection, update: &update },
            metrics: &metrics,
        });
        assert_eq!(publisher.boundaries, vec![(3.0, 1, 0)]);
    }
}
