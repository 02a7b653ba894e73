//! The incremental crawler architecture of §5 — the paper's primary
//! contribution — together with the periodic (batch + shadowing) baseline
//! it argues against.
//!
//! The architecture follows Figure 12:
//!
//! ```text
//!   AllUrls ──scan──▶ RankingModule ──add/remove──▶ CollUrls (priority queue)
//!      ▲                   │ discard                     │ pop / pushback
//!      │ addUrls           ▼                             ▼
//!   CrawlModule ◀──crawl── UpdateModule ◀──checksum── Collection
//! ```
//!
//! * [`allurls`] — every URL ever discovered, with the in-link evidence the
//!   RankingModule uses to estimate the importance of uncrawled pages.
//! * [`collection`] — the local page store: checksums, links, change
//!   histories, importance scores.
//! * [`modules`] — the deciding modules as separable units:
//!   `UpdateModule` (update decision: what to refresh, when) and
//!   `RankingModule` (refinement decision: what to keep). The CrawlModule
//!   (fetch + link extraction) is the engines' fetch slot.
//! * [`incremental`] — the one deterministic engine combining them
//!   (Algorithm 5.1 / Figure 11 made concrete), with two executors that
//!   both fetch through the caller's fetcher: inline (one fetch slot at a
//!   time, ranking in place) and a pool (several slots in flight between
//!   state updates, ranking as one scoped solve per pass, joined at the
//!   next boundary, decoupled from the crawl hot path exactly as §5.3
//!   prescribes: "Separating the update decision from the refinement
//!   decision is crucial").
//! * [`periodic`] — the batch-mode, shadowing, fixed-frequency baseline
//!   (the right-hand column of Figure 10).
//! * [`metrics`] — freshness/age/new-page-latency instrumentation against
//!   simulator ground truth.
//! * [`routing`] — cross-shard link routing for fleets: a scoped engine
//!   diverts foreign-site discoveries into an outbox instead of burning
//!   fetches on them, and the fleet coordinator delivers merged batches
//!   back into the owning shards' frontiers (durably, via the WAL).
//! * [`engine`] — the [`CrawlEngine`] trait every engine implements:
//!   one step-wise `drive`/`replay`/`export_state` contract, plus the
//!   shared [`CrawlBudget`] both configuration families derive from. The
//!   application-facing `CrawlSession` builder in `webevo-store` drives
//!   engines exclusively through this trait.
//! * [`shell`] — the [`EngineShell`] every engine embeds: the run state a
//!   checkpoint freezes, fetch accounting, the sampling grid, routing
//!   plumbing and the pass-boundary sequence, defined once so that the
//!   periodic and incremental engines differ in crawl policy only.
//! * [`view`] — the serving surface: a write-only [`ViewPublisher`]
//!   observer that sees the user-visible pages at every quiescent pass
//!   boundary, from which `webevo-serve` builds immutable epoch-numbered
//!   query views. Like observability, publishing never feeds back into
//!   crawl decisions.
//! * [`state`] + [`hooks`] — the durability surface: the full serializable
//!   engine state captured at pass boundaries, and the [`CrawlHook`]
//!   observer that `webevo-store` implements to persist snapshots and
//!   per-fetch write-ahead-log deltas. Every engine restores via
//!   [`engine::restore`] and replays its write-ahead log, so a killed
//!   crawl continues bit-identically after restart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod allurls;
pub mod collection;
pub mod engine;
pub mod hooks;
pub mod incremental;
pub mod metrics;
pub mod modules;
pub mod periodic;
pub mod routing;
pub mod shell;
pub mod state;
pub mod view;

pub use allurls::AllUrls;
pub use collection::{Collection, StoredPage};
pub use engine::{collection_quality, restore, CrawlBudget, CrawlEngine};
pub use hooks::{CrawlHook, FetchRecord, NoopHook};
pub use incremental::{IncrementalConfig, IncrementalCrawler, IncrementalEngine, ThreadedCrawler};
pub use metrics::CrawlMetrics;
pub use modules::{EstimatorKind, RankingConfig, RankingModule, RevisitStrategy, UpdateModule};
pub use periodic::{PeriodicConfig, PeriodicCrawler, PeriodicState};
pub use routing::{
    rebalance_states, route_exchange, RoutedBatch, RoutedLink, RoutingState,
    ShardScope, WalEvent,
};
pub use shell::EngineShell;
pub use state::{CrawlerState, EngineClock, EngineConfig, EngineKind, QueueEntry};
pub use view::{BoundaryPages, ViewBoundary, ViewPublisher};
