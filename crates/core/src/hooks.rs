//! Engine-side checkpoint instrumentation.
//!
//! The durability subsystem (`webevo-store`) must observe two things to
//! make a crawl recoverable: every fetch attempt's outcome (the
//! write-ahead-log deltas) and a consistent full-state view at pass
//! boundaries (the snapshots). [`CrawlHook`] is that observation surface.
//! The contract mirrors §5.3's separation of the crawl loop from periodic
//! refinement:
//!
//! * [`CrawlHook::on_fetch`] fires once per fetch attempt with a borrowed
//!   [`FetchRecord`] delta. Implementations must only buffer in memory —
//!   the engines call it on the fetch hot path.
//! * [`CrawlHook::on_pass_boundary`] fires at each completed pass
//!   boundary — a RankingModule pass for the incremental engines, a
//!   shadow swap for the periodic one — when no fetch is in flight and no
//!   ranking outcome is pending: the one point where the full engine
//!   state is quiescent and cheap to capture. The engine announces the
//!   boundary explicitly; observers never have to infer it from ranking
//!   or cycle counters. Durable I/O belongs here.
//!
//! Recovery replays `snapshot + WAL tail` through the engines'
//! [`crate::engine::CrawlEngine::replay`]: each logged [`FetchRecord`] is
//! re-applied through the same state transitions as a live fetch, so the
//! restored engine is bit-identical to the pre-crash one at the last
//! flushed boundary.

use crate::state::CrawlerState;
use webevo_sim::{FetchError, FetchOutcome};
use webevo_types::{wire_struct, Url};

/// One fetch attempt's outcome — the unit of the write-ahead log.
///
/// `seq` is the engine's monotone fetch-attempt counter; recovery uses it
/// to discard WAL records already folded into a newer snapshot and to
/// detect gaps. `url` and `t` are carried redundantly so replay can verify
/// the deterministic schedule reproduces the logged one record-for-record.
#[derive(Clone, Debug, PartialEq)]
pub struct FetchRecord {
    /// Engine-wide fetch-attempt sequence number (1-based).
    pub seq: u64,
    /// The URL that was fetched.
    pub url: Url,
    /// The simulated time of the attempt (days).
    pub t: f64,
    /// What the fetcher returned.
    pub result: Result<FetchOutcome, FetchError>,
}

wire_struct!(FetchRecord { seq, url, t, result });

/// Observer the engines drive during a run. See the module docs for the
/// hot-path/boundary split.
pub trait CrawlHook {
    /// Whether the engine should construct and deliver [`FetchRecord`]s.
    /// Returning `false` (the no-op hook) lets the hot path skip the
    /// per-fetch clone entirely.
    fn active(&self) -> bool {
        true
    }

    /// One fetch attempt completed. The record is borrowed: clone it if it
    /// must outlive the call. Buffer only; no I/O.
    fn on_fetch(&mut self, record: &FetchRecord);

    /// A pass boundary completed at time `t` with the engine quiescent.
    /// `export` lazily captures the full engine state (including the
    /// fetcher's, when the fetcher is stateful) — call it only when a
    /// snapshot is actually due; flushing buffered records needs no
    /// export.
    fn on_pass_boundary(&mut self, t: f64, export: &mut dyn FnMut() -> CrawlerState);
}

/// The inert hook: engines run exactly as if uninstrumented.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopHook;

impl CrawlHook for NoopHook {
    fn active(&self) -> bool {
        false
    }

    fn on_fetch(&mut self, _record: &FetchRecord) {}

    fn on_pass_boundary(&mut self, _t: f64, _export: &mut dyn FnMut() -> CrawlerState) {}
}
