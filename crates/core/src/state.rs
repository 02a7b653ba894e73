//! The full serializable state of a crawler engine.
//!
//! [`CrawlerState`] is everything an engine needs to continue a run after
//! a process restart, and nothing else: the Figure 12 data structures
//! (`Collection`, `AllUrls`, `CollUrls`), the UpdateModule's state, the
//! metrics accumulated so far, the discrete-event clock and pass counter,
//! and — for fetchers that carry replay state — what steers the fetcher's
//! future results. Each fact is stored once: what the engine can rebuild
//! (the `CollUrls` dedup set, from the queue) or never reads back is not
//! persisted. It is captured at pass boundaries via
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
//! * The `admissions` set is stored as an ascending id vector (the
//!   engines' dense sets iterate in that order already) so two snapshots
//!   of the same state are byte-identical.

use crate::allurls::AllUrls;
use crate::collection::Collection;
use crate::incremental::IncrementalConfig;
use crate::metrics::CrawlMetrics;
use crate::modules::UpdateModule;
use crate::periodic::{PeriodicConfig, PeriodicState};
use crate::routing::RoutingState;
use webevo_schedule::{RevisitQueue, ScheduledVisit};
use webevo_sim::FetcherState;
use webevo_types::{wire_enum, wire_struct, PageId, Url, WebEvoError};

/// Which engine a [`CrawlerState`] belongs to — and, in the
/// `CrawlSession` builder, which engine to construct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The batch-mode, shadowing baseline [`crate::PeriodicCrawler`].
    Periodic,
    /// The incremental engine ([`crate::incremental`]) with its inline
    /// executor: [`crate::IncrementalCrawler`].
    Incremental,
    /// The same engine with its pool executor — batches of `workers`
    /// fetch slots, as parallel CrawlModules would schedule them, and one
    /// scoped ranking solve per pass, joined at the next boundary:
    /// [`crate::ThreadedCrawler`].
    Threaded {
        /// Fetch slots in flight between two state updates: that many
        /// slots are scheduled before any of their results is applied.
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
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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
    /// Completed refinement passes: ranking passes (inline), applied
    /// ranking outcomes (pool) or shadow swaps (periodic); see
    /// [`crate::CrawlEngine::passes`].
    pub passes: u64,
    /// The local page store (incremental engines; empty for periodic).
    pub collection: Collection,
    /// Every URL ever discovered (incremental engines).
    pub all_urls: AllUrls,
    /// `CollUrls`: the scheduled visits, earliest first (incremental
    /// engines). Each page appears at most once; the engine's dedup guard
    /// is rebuilt from it.
    pub queue: Vec<QueueEntry>,
    /// Ranking-proposed admissions awaiting their first crawl, sorted.
    pub admissions: Vec<PageId>,
    /// The UpdateModule (strategy, estimator, revisit intervals).
    pub update: UpdateModule,
    /// Threaded engine: a ranking request built from exactly this state
    /// must be (re)issued on resume — the snapshot is taken at the
    /// boundary between applying one outcome and issuing the next
    /// request.
    pub rank_pending: bool,
    /// The periodic engine's cycle/shadow state (`None` for the
    /// incremental engines).
    pub periodic: Option<PeriodicState>,
    /// Metrics accumulated so far.
    pub metrics: CrawlMetrics,
    /// Fetcher replay state, when the fetcher is stateful.
    pub fetcher: Option<FetcherState>,
    /// Cross-shard routing state (inert default when unsharded).
    pub routing: RoutingState,
}

wire_enum!(EngineKind { Periodic = 0, Incremental = 1, Threaded { workers } = 2 });
wire_enum!(EngineConfig { Incremental(config) = 0, Periodic(config) = 1 });
wire_struct!(EngineClock { t, next_ranking, next_sample });
wire_struct!(QueueEntry { due_bits, url });
wire_struct!(CrawlerState {
    engine, config, run_start, seeded, clock, fetch_seq, passes, collection, all_urls, queue,
    admissions, update, rank_pending, periodic, metrics, fetcher, routing
});

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
    use crate::{CrawlEngine, NoopHook};
    use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};
    use webevo_types::{BinDecode, BinEncode, BinReader, ShardFn, ShardId, ShardPlan, SiteId};

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

    #[test]
    fn every_strict_prefix_of_a_state_fails_to_decode() {
        let u = WebUniverse::generate(UniverseConfig::test_scale(11));
        let mut engine = crate::IncrementalCrawler::new(IncrementalConfig::monthly(60));
        engine.drive(&u, &mut SimFetcher::new(&u), &mut NoopHook, 12.0).expect("drive succeeds");
        let mut state = engine.export_state();
        state.routing = RoutingState::scoped(ShardPlan::new(ShardFn::Hash, 2, 10), ShardId(1));
        let mut full = Vec::new();
        state.bin_encode(&mut full);

        // Every strict prefix is a truncation, never a panic or a value —
        // including the one that ends where the routing state begins.
        for len in 0..full.len() {
            let prefix = &full[..len];
            assert!(
                CrawlerState::bin_decode(&mut BinReader::new(prefix)).is_err(),
                "prefix of {len}/{} bytes decoded",
                full.len()
            );
        }
        let back = CrawlerState::bin_decode(&mut BinReader::new(&full)).expect("full decodes");
        assert_eq!(back.routing, state.routing);
    }
}
