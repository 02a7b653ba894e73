//! The full serializable state of a crawler engine.
//!
//! [`CrawlerState`] is everything an engine needs to continue a run after
//! a process restart: the Figure 12 data structures (`Collection`,
//! `AllUrls`, `CollUrls`), the module states, the metrics accumulated so
//! far, the discrete-event clock, and — for fetchers that carry replay
//! state — the fetcher's counters. It is captured at pass boundaries via
//! [`crate::CrawlHook::on_pass_boundary`] and rebuilt through
//! [`crate::engine::restore`] (or the engines' `from_state`
//! constructors).
//!
//! All three engines share the layout. The incremental fields are empty
//! for the periodic engine, whose cycle/shadow state lives in the
//! [`PeriodicState`] payload instead; [`EngineKind`] records which engine
//! wrote a state so recovery can rebuild the right one.
//!
//! Two encoding details keep restoration *bit-identical* rather than
//! merely approximate:
//!
//! * Queue due-times are stored as raw IEEE-754 bit patterns
//!   ([`QueueEntry::due_bits`]): the immediate-priority lane uses `−∞`,
//!   which must survive the trip exactly.
//! * The `queued`/`admissions` sets are stored as ascending id vectors
//!   (the engines' dense sets iterate in that order already) so two
//!   snapshots of the same state are byte-identical.

use crate::allurls::AllUrls;
use crate::collection::Collection;
use crate::incremental::IncrementalConfig;
use crate::metrics::CrawlMetrics;
use crate::modules::{CrawlModule, UpdateModule};
use crate::periodic::{PeriodicConfig, PeriodicState};
use crate::routing::RoutingState;
use webevo_schedule::{RevisitQueue, ScheduledVisit};
use webevo_sim::FetcherState;
use webevo_types::binio::{BinDecode, BinEncode, BinError, BinReader};
use webevo_types::{PageId, Url, WebEvoError};

/// Which engine a [`CrawlerState`] belongs to — and, in the
/// `CrawlSession` builder, which engine to construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The batch-mode, shadowing baseline [`crate::PeriodicCrawler`].
    Periodic,
    /// The incremental engine ([`crate::incremental`]) with its inline
    /// executor: [`crate::IncrementalCrawler`].
    Incremental,
    /// The same engine with its pool executor — `workers` parallel
    /// CrawlModules and a ranking thread: [`crate::ThreadedCrawler`].
    Threaded {
        /// Number of crawl workers.
        workers: usize,
    },
}

impl EngineKind {
    /// The engine family's display name (worker counts elided).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Periodic => "periodic",
            EngineKind::Incremental => "incremental",
            EngineKind::Threaded { .. } => "threaded",
        }
    }

    /// Whether two kinds name the same engine family. `Threaded { 2 }`
    /// and `Threaded { 4 }` are the same family: a checkpoint written by
    /// one can seed a session configured for the other (the snapshot's
    /// worker count wins, preserving the deterministic schedule).
    pub fn same_family(&self, other: &EngineKind) -> bool {
        self.name() == other.name()
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Threaded { workers } => write!(f, "threaded({workers} workers)"),
            other => f.write_str(other.name()),
        }
    }
}

/// The engine-specific configuration carried inside a [`CrawlerState`],
/// so `--resume` needs no re-specification.
#[derive(Clone, Debug)]
pub enum EngineConfig {
    /// Configuration of the incremental engines (single-threaded and
    /// threaded alike).
    Incremental(IncrementalConfig),
    /// Configuration of the periodic baseline.
    Periodic(PeriodicConfig),
}

impl EngineConfig {
    /// The incremental configuration, or a typed error when the state was
    /// written by the periodic engine.
    pub fn as_incremental(&self) -> Result<&IncrementalConfig, WebEvoError> {
        match self {
            EngineConfig::Incremental(config) => Ok(config),
            EngineConfig::Periodic(_) => Err(WebEvoError::InvalidState(
                "state carries a periodic configuration, not an incremental one".into(),
            )),
        }
    }

    /// The periodic configuration, or a typed error when the state was
    /// written by an incremental engine.
    pub fn as_periodic(&self) -> Result<&PeriodicConfig, WebEvoError> {
        match self {
            EngineConfig::Periodic(config) => Ok(config),
            EngineConfig::Incremental(_) => Err(WebEvoError::InvalidState(
                "state carries an incremental configuration, not a periodic one".into(),
            )),
        }
    }

    /// Collection capacity, common to both configurations.
    pub fn capacity(&self) -> usize {
        match self {
            EngineConfig::Incremental(config) => config.capacity,
            EngineConfig::Periodic(config) => config.capacity,
        }
    }
}

/// The engine's discrete-event clock: the current fetch-slot time plus the
/// next due times of the two periodic activities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineClock {
    /// Current simulated time (days).
    pub t: f64,
    /// When the next RankingModule pass is due (unused by the periodic
    /// engine, whose boundaries are shadow swaps).
    pub next_ranking: f64,
    /// When the next metrics sample is due.
    pub next_sample: f64,
}

/// One `CollUrls` entry with its due time as a raw bit pattern (exact for
/// every float, including the `−∞` of the immediate-priority lane).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueueEntry {
    /// `f64::to_bits` of the due time.
    pub due_bits: u64,
    /// The scheduled URL.
    pub url: Url,
}

/// Complete serializable engine state. See the module docs.
#[derive(Clone, Debug)]
pub struct CrawlerState {
    /// Which engine wrote this state (including the worker count for the
    /// threaded engine, whose deterministic schedule depends on it).
    pub engine: EngineKind,
    /// The engine configuration (restored verbatim so `--resume` needs no
    /// re-specification).
    pub config: EngineConfig,
    /// When the run began (baseline for new-page latency accounting).
    pub run_start: f64,
    /// Whether the run has started (seed URLs injected; always true in
    /// practice: states are only captured at pass boundaries).
    pub seeded: bool,
    /// The discrete-event clock.
    pub clock: EngineClock,
    /// Fetch attempts issued so far (pairs with [`crate::FetchRecord::seq`]).
    pub fetch_seq: u64,
    /// The local page store (incremental engines; empty for periodic).
    pub collection: Collection,
    /// Every URL ever discovered (incremental engines).
    pub all_urls: AllUrls,
    /// `CollUrls`: the scheduled visits, earliest first (incremental
    /// engines).
    pub queue: Vec<QueueEntry>,
    /// Pages currently scheduled (dedup guard), sorted.
    pub queued: Vec<PageId>,
    /// Ranking-proposed admissions awaiting their first crawl, sorted.
    pub admissions: Vec<PageId>,
    /// The UpdateModule (strategy, estimator, revisit intervals).
    pub update: UpdateModule,
    /// RankingModule passes completed (incremental engine).
    pub ranking_runs: u64,
    /// Ranking outcomes applied (threaded engine).
    pub ranking_applied: u64,
    /// Threaded engine: a ranking request built from exactly this state
    /// must be (re)issued on resume — the snapshot is taken at the
    /// boundary between applying one response and sending the next
    /// request.
    pub rank_pending: bool,
    /// CrawlModule counters.
    pub crawl: CrawlModule,
    /// The periodic engine's cycle/shadow state (`None` for the
    /// incremental engines).
    pub periodic: Option<PeriodicState>,
    /// Metrics accumulated so far.
    pub metrics: CrawlMetrics,
    /// Fetcher replay state, when the fetcher is stateful.
    pub fetcher: Option<FetcherState>,
    /// Cross-shard routing state (inert default when unsharded; absent in
    /// pre-routing snapshots, which decode to the default).
    pub routing: RoutingState,
}

impl BinEncode for EngineKind {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        match self {
            EngineKind::Periodic => out.push(0),
            EngineKind::Incremental => out.push(1),
            EngineKind::Threaded { workers } => {
                out.push(2);
                workers.bin_encode(out);
            }
        }
    }
}

impl BinDecode for EngineKind {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<EngineKind, BinError> {
        match r.byte()? {
            0 => Ok(EngineKind::Periodic),
            1 => Ok(EngineKind::Incremental),
            2 => Ok(EngineKind::Threaded { workers: usize::bin_decode(r)? }),
            other => Err(BinError::new(format!("invalid EngineKind tag {other}"))),
        }
    }
}

impl BinEncode for EngineConfig {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        match self {
            EngineConfig::Incremental(config) => {
                out.push(0);
                config.bin_encode(out);
            }
            EngineConfig::Periodic(config) => {
                out.push(1);
                config.bin_encode(out);
            }
        }
    }
}

impl BinDecode for EngineConfig {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<EngineConfig, BinError> {
        match r.byte()? {
            0 => Ok(EngineConfig::Incremental(IncrementalConfig::bin_decode(r)?)),
            1 => Ok(EngineConfig::Periodic(PeriodicConfig::bin_decode(r)?)),
            other => Err(BinError::new(format!("invalid EngineConfig tag {other}"))),
        }
    }
}

impl BinEncode for EngineClock {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        self.t.bin_encode(out);
        self.next_ranking.bin_encode(out);
        self.next_sample.bin_encode(out);
    }
}

impl BinDecode for EngineClock {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<EngineClock, BinError> {
        Ok(EngineClock {
            t: f64::bin_decode(r)?,
            next_ranking: f64::bin_decode(r)?,
            next_sample: f64::bin_decode(r)?,
        })
    }
}

impl BinEncode for QueueEntry {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        self.due_bits.bin_encode(out);
        self.url.bin_encode(out);
    }
}

impl BinDecode for QueueEntry {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<QueueEntry, BinError> {
        Ok(QueueEntry { due_bits: u64::bin_decode(r)?, url: Url::bin_decode(r)? })
    }
}

impl BinEncode for CrawlerState {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        self.engine.bin_encode(out);
        self.config.bin_encode(out);
        self.run_start.bin_encode(out);
        self.seeded.bin_encode(out);
        self.clock.bin_encode(out);
        self.fetch_seq.bin_encode(out);
        self.collection.bin_encode(out);
        self.all_urls.bin_encode(out);
        self.queue.bin_encode(out);
        self.queued.bin_encode(out);
        self.admissions.bin_encode(out);
        self.update.bin_encode(out);
        self.ranking_runs.bin_encode(out);
        self.ranking_applied.bin_encode(out);
        self.rank_pending.bin_encode(out);
        self.crawl.bin_encode(out);
        self.periodic.bin_encode(out);
        self.metrics.bin_encode(out);
        self.fetcher.bin_encode(out);
        self.routing.bin_encode(out);
    }
}

impl BinDecode for CrawlerState {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<CrawlerState, BinError> {
        Ok(CrawlerState {
            engine: EngineKind::bin_decode(r)?,
            config: EngineConfig::bin_decode(r)?,
            run_start: f64::bin_decode(r)?,
            seeded: bool::bin_decode(r)?,
            clock: EngineClock::bin_decode(r)?,
            fetch_seq: u64::bin_decode(r)?,
            collection: Collection::bin_decode(r)?,
            all_urls: AllUrls::bin_decode(r)?,
            queue: Vec::bin_decode(r)?,
            queued: Vec::bin_decode(r)?,
            admissions: Vec::bin_decode(r)?,
            update: UpdateModule::bin_decode(r)?,
            ranking_runs: u64::bin_decode(r)?,
            ranking_applied: u64::bin_decode(r)?,
            rank_pending: bool::bin_decode(r)?,
            crawl: CrawlModule::bin_decode(r)?,
            periodic: Option::bin_decode(r)?,
            metrics: CrawlMetrics::bin_decode(r)?,
            fetcher: Option::bin_decode(r)?,
            // Routing-era states append this block; earlier version-3
            // snapshots end at `fetcher` and decode to the inert default.
            routing: if r.is_exhausted() {
                RoutingState::default()
            } else {
                RoutingState::bin_decode(r)?
            },
        })
    }
}

/// Encode a queue for a snapshot: entries earliest-first, due times as
/// bits.
pub fn queue_to_entries(queue: &RevisitQueue) -> Vec<QueueEntry> {
    queue
        .snapshot_entries()
        .into_iter()
        .map(|v| QueueEntry { due_bits: v.due.to_bits(), url: v.url })
        .collect()
}

/// Rebuild a queue from snapshot entries.
pub fn entries_to_queue(entries: &[QueueEntry]) -> RevisitQueue {
    RevisitQueue::from_entries(
        entries
            .iter()
            .map(|e| ScheduledVisit { due: f64::from_bits(e.due_bits), url: e.url })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_types::SiteId;

    fn url(i: u64) -> Url {
        Url::new(SiteId(0), PageId(i))
    }

    #[test]
    fn queue_codec_is_exact_for_negative_infinity() {
        let mut q = RevisitQueue::new();
        q.push(url(1), 4.5);
        q.push_front(url(2));
        let entries = queue_to_entries(&q);
        assert_eq!(entries[0].due_bits, f64::NEG_INFINITY.to_bits());
        let mut restored = entries_to_queue(&entries);
        assert_eq!(restored.pop().unwrap().url, url(2));
        assert_eq!(restored.pop().unwrap().due, 4.5);
    }

    #[test]
    fn engine_kind_families() {
        let a = EngineKind::Threaded { workers: 2 };
        let b = EngineKind::Threaded { workers: 4 };
        assert_ne!(a, b, "worker counts distinguish kinds");
        assert!(a.same_family(&b), "but not families");
        assert!(!a.same_family(&EngineKind::Incremental));
        assert_eq!(EngineKind::Periodic.to_string(), "periodic");
        assert_eq!(b.to_string(), "threaded(4 workers)");
    }

    #[test]
    fn engine_config_accessors_are_typed() {
        let periodic = EngineConfig::Periodic(PeriodicConfig::monthly(10));
        assert_eq!(periodic.capacity(), 10);
        assert!(periodic.as_periodic().is_ok());
        assert!(matches!(
            periodic.as_incremental(),
            Err(WebEvoError::InvalidState(_))
        ));
        let incremental = EngineConfig::Incremental(IncrementalConfig::monthly(20));
        assert_eq!(incremental.capacity(), 20);
        assert!(incremental.as_incremental().is_ok());
        assert!(matches!(
            incremental.as_periodic(),
            Err(WebEvoError::InvalidState(_))
        ));
    }
}
