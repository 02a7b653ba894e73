//! One driver API over every crawler engine.
//!
//! The paper's argument is *comparative*: periodic vs. incremental
//! crawling under one shared fetch budget and one freshness metric
//! (Figure 10). That comparison needs one crawl-loop contract, not one per
//! engine — [`CrawlEngine`] is that contract, implemented by
//! [`crate::PeriodicCrawler`] and by the incremental engine under both of
//! its executors ([`crate::IncrementalCrawler`], inline, and
//! [`crate::ThreadedCrawler`], a worker pool) alike:
//!
//! * [`CrawlEngine::drive`] advances the engine to a target day — it
//!   starts a fresh run on a new engine and continues a started (or
//!   checkpoint-restored) one, observing every fetch and pass boundary
//!   through a [`CrawlHook`].
//! * [`CrawlEngine::export_state`] / [`restore`] round-trip the full
//!   engine state through [`CrawlerState`] — every engine is
//!   checkpointable.
//! * [`CrawlEngine::replay`] re-applies a write-ahead-log tail after a
//!   restore, landing bit-identically on the pre-crash state.
//! * [`CrawlEngine::metrics`] / [`CrawlEngine::collection`] /
//!   [`CrawlEngine::passes`] expose the observable outcomes uniformly.
//!
//! Everything behind that contract that is not crawl policy — run state,
//! fetch accounting, the sampling grid, routing plumbing, the
//! pass-boundary sequence — is one [`EngineShell`] every engine embeds and
//! hands out through [`CrawlEngine::shell`]; the trait answers the state
//! queries and installs scope, sink and publisher once, over that shell.
//!
//! [`CrawlBudget`] carries the fetch-budget knobs the engines share
//! (capacity, revisit cycle, cadences), so the periodic and incremental
//! configurations derive from one source and cannot drift — e.g.
//! [`CrawlBudget::paper_monthly`] is the paper's Table 2 shape for both.
//!
//! The supported entry point for applications is the `CrawlSession`
//! builder in `webevo-store` (re-exported at `webevo::prelude`), which
//! layers checkpointing, recovery, and validation on top of this trait:
//!
//! ```
//! use webevo_core::engine::{CrawlBudget, EngineKind};
//! use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};
//! use webevo_store::CrawlSession;
//!
//! let universe = WebUniverse::generate(UniverseConfig::test_scale(7));
//! let dir = std::env::temp_dir().join(format!("webevo-engine-doc-{}", std::process::id()));
//! let mut fetcher = SimFetcher::new(&universe);
//!
//! // One builder drives any engine: periodic, incremental, or threaded.
//! let mut session = CrawlSession::builder()
//!     .engine(EngineKind::Incremental)
//!     .budget(CrawlBudget::paper_monthly(60).with_cycle_days(10.0))
//!     .universe(&universe)
//!     .fetcher(&mut fetcher)
//!     .checkpoint(&dir, 5.0)
//!     .build()
//!     .expect("a valid session");
//! let metrics = session.run(30.0).expect("the crawl runs");
//! assert!(metrics.fetches > 0);
//! assert!(session.collection_len() > 0);
//!
//! // The checkpoint directory now holds `snapshot + WAL tail`; a fresh
//! // session resumes the crawl exactly where it left off.
//! let mut fetcher = SimFetcher::new(&universe);
//! let mut resumed = CrawlSession::builder()
//!     .engine(EngineKind::Incremental)
//!     .budget(CrawlBudget::paper_monthly(60).with_cycle_days(10.0))
//!     .universe(&universe)
//!     .fetcher(&mut fetcher)
//!     .checkpoint(&dir, 5.0)
//!     .build()
//!     .expect("a valid session");
//! let metrics = resumed.resume(45.0).expect("the checkpoint recovers");
//! assert!(metrics.fetches > 0);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::collection::Collection;
use crate::hooks::CrawlHook;
use crate::incremental::{IncrementalConfig, IncrementalCrawler, ThreadedCrawler};
use crate::metrics::CrawlMetrics;
use crate::modules::{EstimatorKind, RankingConfig, RevisitStrategy};
use crate::periodic::{PeriodicConfig, PeriodicCrawler};
use crate::routing::{RoutedBatch, RoutedLink, RoutingState, ShardScope, WalEvent};
use crate::shell::EngineShell;
use crate::state::{CrawlerState, EngineClock};
use crate::view::ViewPublisher;
use webevo_obs::ObsSink;
use webevo_sim::{FetchError, FetchOutcome, Fetcher, FetcherState, WebUniverse};
use webevo_types::{Url, WebEvoError};

// The engine selector and config carrier live in [`crate::state`] (they
// are part of the serialized snapshot layout) but belong to this module's
// API surface; re-export them so `engine::{EngineKind, EngineConfig}`
// works as the builder idiom reads.
pub use crate::state::{EngineConfig, EngineKind};

/// The shared fetch-budget shape both crawler families consume: how many
/// pages to hold, how fast to revisit them, and how often the periodic
/// activities (metrics sampling, ranking passes, batch windows) recur.
///
/// Deriving [`IncrementalConfig`] and [`PeriodicConfig`] from one budget
/// keeps the comparison honest — the paper's Table 2 budget exists once,
/// as [`CrawlBudget::paper_monthly`], instead of being hardcoded per
/// engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrawlBudget {
    /// Collection capacity in pages (§5.2's fixed size).
    pub capacity: usize,
    /// Days per full revisit of the collection: the steady crawl rate is
    /// `capacity / cycle_days` fetches per day, and the periodic crawler
    /// recrawls everything once per cycle.
    pub cycle_days: f64,
    /// The periodic crawler's batch window: each cycle's crawl must finish
    /// within this many days (ignored by the incremental engines, whose
    /// load is steady by construction).
    pub batch_window_days: f64,
    /// Period of the RankingModule pass and the revisit reallocation
    /// (incremental engines only).
    pub ranking_interval_days: f64,
    /// Metrics sampling period in days.
    pub sample_interval_days: f64,
}

impl CrawlBudget {
    /// The paper's Table 2 budget: a monthly revisit cycle with a one-week
    /// batch window, daily ranking and daily metrics samples.
    pub fn paper_monthly(capacity: usize) -> CrawlBudget {
        CrawlBudget {
            capacity,
            cycle_days: 30.0,
            batch_window_days: 7.0,
            ranking_interval_days: 1.0,
            sample_interval_days: 1.0,
        }
    }

    /// Shorten or stretch the revisit cycle, scaling the batch window to
    /// keep the paper's cycle/window ratio.
    pub fn with_cycle_days(mut self, cycle_days: f64) -> CrawlBudget {
        let ratio = if self.cycle_days > 0.0 {
            self.batch_window_days / self.cycle_days
        } else {
            0.25
        };
        self.cycle_days = cycle_days;
        self.batch_window_days = cycle_days * ratio;
        self
    }

    /// Override the batch window.
    pub fn with_batch_window_days(mut self, window_days: f64) -> CrawlBudget {
        self.batch_window_days = window_days;
        self
    }

    /// Override the metrics sampling cadence.
    pub fn with_sample_interval_days(mut self, days: f64) -> CrawlBudget {
        self.sample_interval_days = days;
        self
    }

    /// Override the ranking cadence.
    pub fn with_ranking_interval_days(mut self, days: f64) -> CrawlBudget {
        self.ranking_interval_days = days;
        self
    }

    /// Steady crawl speed (fetches/day amortized over the cycle) — the
    /// budget both engine families spend.
    pub fn steady_rate(&self) -> f64 {
        self.capacity as f64 / self.cycle_days
    }

    /// The incremental-engine configuration this budget implies
    /// (§5.3 defaults: optimal revisit, estimator EP).
    pub fn incremental_config(&self) -> IncrementalConfig {
        IncrementalConfig {
            capacity: self.capacity,
            crawl_rate_per_day: self.steady_rate(),
            ranking_interval_days: self.ranking_interval_days,
            revisit: RevisitStrategy::Optimal,
            estimator: EstimatorKind::Ep,
            history_window: 200,
            sample_interval_days: self.sample_interval_days,
            ranking: RankingConfig::default(),
        }
    }

    /// The periodic-engine configuration this budget implies.
    pub fn periodic_config(&self) -> PeriodicConfig {
        PeriodicConfig {
            capacity: self.capacity,
            cycle_days: self.cycle_days,
            window_days: self.batch_window_days,
            sample_interval_days: self.sample_interval_days,
        }
    }
}

/// The step-wise crawl-loop contract every engine implements. See the
/// module docs for the shape. An engine supplies its crawl policy (the
/// required methods) and its [`EngineShell`]; the provided methods answer
/// everything policy-independent from the shell.
pub trait CrawlEngine {
    /// The engine's shell: run state, routing state and observers. Its
    /// fields are private to this crate, so only engines defined here can
    /// implement this trait.
    fn shell(&self) -> &EngineShell;

    /// Mutable access to [`CrawlEngine::shell`].
    fn shell_mut(&mut self) -> &mut EngineShell;

    /// Which engine this is (including the worker count for the threaded
    /// engine).
    fn kind(&self) -> EngineKind;

    /// Whether the run has started (seed URLs injected). A started engine
    /// continues from its frozen clock on the next [`CrawlEngine::drive`].
    fn started(&self) -> bool {
        self.shell().started
    }

    /// The engine's discrete-event clock.
    fn clock(&self) -> EngineClock {
        self.shell().clock
    }

    /// Advance the crawl to day `until`, fetching through `fetcher` and
    /// reporting every fetch and pass boundary to `hook`. The first call
    /// on a fresh engine starts the run at day 0; later calls continue
    /// from the frozen clock (including after [`restore`] + replay).
    /// Every engine fetches through `fetcher` alone, on the calling
    /// thread, in slot order, so a stateful fetcher (politeness clocks,
    /// failure injection) replays and checkpoints the same under each.
    ///
    /// Errors (typed, never panics, and before the run is started):
    /// `until` not a finite day beyond the current clock.
    fn drive(
        &mut self,
        universe: &WebUniverse,
        fetcher: &mut dyn Fetcher,
        hook: &mut dyn CrawlHook,
        until: f64,
    ) -> Result<&CrawlMetrics, WebEvoError>;

    /// Re-apply a write-ahead-log tail after [`restore`]: events already
    /// covered by the snapshot (seq ≤ the restored `fetch_seq`) are
    /// skipped, the rest drive the normal slot loop — logged fetch
    /// outcomes instead of live fetches (advancing `fetcher` alongside
    /// via [`Fetcher::observe_replay`]), logged [`WalEvent::Routed`]
    /// batches re-injected at the recorded point in the sequence.
    /// Afterwards the engine sits at the exact state of the last flushed
    /// boundary; call [`CrawlEngine::drive`] to continue crawling for
    /// real.
    fn replay(
        &mut self,
        universe: &WebUniverse,
        fetcher: &mut dyn Fetcher,
        events: &[WalEvent],
    ) -> Result<(), WebEvoError>;

    /// Capture the full engine state. The fetcher state is left `None`;
    /// the caller (the session or checkpoint layer, which owns the
    /// fetcher) merges it in.
    fn export_state(&self) -> CrawlerState;

    /// Collected metrics.
    fn metrics(&self) -> &CrawlMetrics {
        &self.shell().metrics
    }

    /// The Figure 12 `Collection`, for engines that maintain one (`None`
    /// for the periodic engine, whose user-visible snapshot has no
    /// importance scores or change histories).
    fn collection(&self) -> Option<&Collection>;

    /// Pages currently visible to users.
    fn collection_len(&self) -> usize;

    /// Completed refinement passes: RankingModule runs for the
    /// incremental engine, applied ranking outcomes for the threaded one,
    /// shadow swaps for the periodic one.
    fn passes(&self) -> u64 {
        self.shell().passes
    }

    /// Whether [`CrawlEngine::drive`] fetches through the caller-supplied
    /// fetcher: always, for every engine. Kept for callers written when
    /// the threaded engine still owned a fetcher of its own.
    fn uses_external_fetcher(&self) -> bool {
        true
    }

    /// Restrict the engine to the sites one fleet shard owns: foreign
    /// discoveries divert into the routing outbox instead of entering the
    /// frontier, and the residual schedule never fetches a foreign URL.
    /// Must be set before the run starts (a typed error otherwise).
    fn set_scope(&mut self, scope: ShardScope) -> Result<(), WebEvoError> {
        let shell = self.shell_mut();
        if shell.started {
            return Err(WebEvoError::InvalidState(
                "shard scope must be set before the run starts".into(),
            ));
        }
        shell.routing.scope = Some(scope);
        Ok(())
    }

    /// The engine's routing state (scope, outbox, applied-exchange
    /// counter); inert when unsharded.
    fn routing(&self) -> &RoutingState {
        &self.shell().routing
    }

    /// Deliver one exchange's routed links into the engine: clears the
    /// outbox (its contents were drained by the coordinator that built
    /// the batches), admits each owned link to the frontier, consumes one
    /// sequence number, and bumps the applied-exchange counter. Returns
    /// the applied batch so the caller can log it durably. The engine
    /// must be started (a typed error otherwise) and quiescent (at a pass
    /// boundary).
    fn inject_links(&mut self, links: Vec<RoutedLink>) -> Result<RoutedBatch, WebEvoError>;

    /// Install an observability sink: the engine stamps its drive, pass,
    /// and fetch-batch stages (and fetch-outcome counters) into it.
    /// Observation is strictly write-only — the hard invariant is that a
    /// traced run's crawl output stays byte-identical to an untraced
    /// run's, so the sink never appears in [`CrawlerState`] and no engine
    /// reads anything back from it.
    fn set_obs(&mut self, obs: ObsSink) {
        self.shell_mut().obs = obs;
    }

    /// Install a serving-view publisher: the engine calls
    /// [`ViewPublisher::publish`] at every pass/cycle boundary with the
    /// user-visible pages and the boundary's logical clock. Publishing is
    /// strictly write-only — the same hard invariant as observation: a
    /// served run's checkpoints and metrics stay byte-identical to an
    /// unserved run's, so the publisher never appears in [`CrawlerState`]
    /// and no engine reads anything back from it.
    fn set_view_publisher(&mut self, publisher: Box<dyn ViewPublisher>) {
        self.shell_mut().publisher = Some(publisher);
    }

    /// Record the closing metrics sample a live [`CrawlEngine::drive`]
    /// ending at `t` would have recorded, without advancing the engine.
    /// The fleet coordinator calls this in place of a drive when a
    /// recovered shard's clock already sits at (or just past) a barrier:
    /// the interrupted run closed that drive with a sample at exactly
    /// `t`, and WAL replay cannot reconstruct it because the sample
    /// belongs to the drive *call*, not to any logged event. Idempotent —
    /// a sample already present at `t` is not duplicated. The default is
    /// a no-op, matching engines whose drives do not close with a sample
    /// (the periodic engine samples on its grid only).
    fn close_sample(&mut self, universe: &WebUniverse, t: f64) {
        let _ = (universe, t);
    }
}

/// Rebuild the right engine from a checkpointed state. Returns the engine
/// and the fetcher state the caller must install into its fetcher (via
/// [`Fetcher::restore_state`]) before replaying or resuming.
pub fn restore(
    state: CrawlerState,
) -> Result<(Box<dyn CrawlEngine + Send>, Option<FetcherState>), WebEvoError> {
    fn boxed<E: CrawlEngine + Send + 'static>(
        (engine, fetcher): (E, Option<FetcherState>),
    ) -> (Box<dyn CrawlEngine + Send>, Option<FetcherState>) {
        (Box::new(engine), fetcher)
    }
    Ok(match state.engine {
        EngineKind::Periodic => boxed(PeriodicCrawler::from_state(state)?),
        EngineKind::Incremental => boxed(IncrementalCrawler::from_state(state)?),
        EngineKind::Threaded { .. } => boxed(ThreadedCrawler::from_state(state)?),
    })
}

/// Evaluation-only: a collection's quality (§5.1 goal 2) as the mean
/// ground-truth PageRank of its pages at time `t`, normalized by the best
/// achievable mean with the same size. 1.0 = the collection holds exactly
/// the top pages.
pub fn collection_quality(collection: &Collection, universe: &WebUniverse, t: f64) -> f64 {
    use webevo_graph::pagerank::{pagerank, PageRankConfig};
    let graph = universe.snapshot_graph(t);
    let Ok(scores) = pagerank(&graph, &PageRankConfig::conventional()) else {
        return 0.0;
    };
    let mut all: Vec<f64> = scores.iter().map(|(_, s)| s).collect();
    all.sort_by(|a, b| b.total_cmp(a));
    let k = collection.len().min(all.len());
    if k == 0 {
        return 0.0;
    }
    let ideal: f64 = all[..k].iter().sum::<f64>() / k as f64;
    let actual: f64 = collection.iter().map(|(p, _)| scores.get(p)).sum::<f64>() / k as f64;
    if ideal > 0.0 {
        actual / ideal
    } else {
        0.0
    }
}

/// Where a fetch slot's result comes from: a live fetcher, or the
/// write-ahead log during recovery. Replay feeds recorded outcomes through
/// the exact state transitions of a live crawl (including the fetcher's
/// own attempt counter and site clocks, via [`Fetcher::observe_replay`])
/// and cross-checks that the deterministic schedule reproduces the log
/// record-for-record. Every engine, under either executor, fetches and
/// replays through this.
pub(crate) enum FetchSource<'a> {
    /// Fetch for real.
    Live(&'a mut dyn Fetcher),
    /// Re-apply logged outcomes.
    Replay {
        /// The committed WAL tail (snapshot-covered events already
        /// skipped).
        events: &'a [WalEvent],
        /// Next event to consume.
        pos: usize,
        /// The fetcher to advance via [`Fetcher::observe_replay`].
        fetcher: &'a mut dyn Fetcher,
    },
}

impl<'a> FetchSource<'a> {
    /// The replay source over the part of `events` that a state ending at
    /// `fetch_seq` does not already cover. The uncovered tail must resume
    /// at exactly `fetch_seq + 1`.
    pub(crate) fn replay(
        events: &'a [WalEvent],
        fetch_seq: u64,
        fetcher: &'a mut dyn Fetcher,
    ) -> Result<FetchSource<'a>, WebEvoError> {
        let tail = &events[events.partition_point(|e| e.seq() <= fetch_seq)..];
        match tail.first() {
            Some(first) if first.seq() != fetch_seq + 1 => {
                Err(WebEvoError::InvalidState(format!(
                    "WAL gap: snapshot ends at seq {fetch_seq} but the log resumes at {}",
                    first.seq()
                )))
            }
            _ => Ok(FetchSource::Replay { events: tail, pos: 0, fetcher }),
        }
    }

    /// True once a replay source has no events left (a live source never
    /// exhausts).
    pub(crate) fn exhausted(&self) -> bool {
        match self {
            FetchSource::Live(_) => false,
            FetchSource::Replay { events, pos, .. } => *pos >= events.len(),
        }
    }

    /// Whether the event `ahead` places past the next one is a fetch
    /// record (always, for a live source): a batch of slots is only
    /// scheduled as far as the log has outcomes for it.
    pub(crate) fn has_fetch_at(&self, ahead: usize) -> bool {
        match self {
            FetchSource::Live(_) => true,
            FetchSource::Replay { events, pos, .. } => {
                matches!(events.get(*pos + ahead), Some(WalEvent::Fetch(_)))
            }
        }
    }

    /// Consume the next event when it is the routed batch due at the
    /// current point of the schedule: logged at exactly the shell's clock
    /// with its next sequence number (`None` for live sources, fetch
    /// events and batches due later). Live injection happens while the
    /// engine is frozen *between* drives; the match is exact because
    /// batches record the frozen clock.
    pub(crate) fn take_routed(&mut self, shell: &EngineShell) -> Option<RoutedBatch> {
        let FetchSource::Replay { events, pos, .. } = self else { return None };
        let Some(WalEvent::Routed(batch)) = events.get(*pos) else { return None };
        if batch.t.to_bits() != shell.clock.t.to_bits() || batch.seq != shell.fetch_seq + 1 {
            return None;
        }
        *pos += 1;
        Some(batch.clone())
    }

    /// The underlying fetcher's exportable state.
    pub(crate) fn fetcher_state(&self) -> Option<FetcherState> {
        match self {
            FetchSource::Live(fetcher) | FetchSource::Replay { fetcher, .. } => {
                fetcher.export_state()
            }
        }
    }

    /// Produce the result for fetch attempt `seq` of `url` at `t`.
    pub(crate) fn fetch(
        &mut self,
        seq: u64,
        url: Url,
        t: f64,
    ) -> Result<FetchOutcome, FetchError> {
        match self {
            FetchSource::Live(f) => f.fetch(url, t),
            FetchSource::Replay { events, pos, fetcher } => {
                let WalEvent::Fetch(record) = &events[*pos] else {
                    panic!(
                        "WAL replay out of sync at seq {seq}: engine scheduled a fetch, \
                         log has a routed batch"
                    );
                };
                assert_eq!(record.seq, seq, "WAL replay out of sync at seq {seq}");
                assert_eq!(
                    record.url, url,
                    "WAL replay diverged at seq {seq}: engine scheduled {url:?}, log has {:?}",
                    record.url
                );
                assert_eq!(
                    record.t.to_bits(),
                    t.to_bits(),
                    "WAL replay diverged at seq {seq}: slot time {t} vs logged {}",
                    record.t
                );
                fetcher.observe_replay(url, t, &record.result);
                *pos += 1;
                record.result.clone()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::{FetchRecord, NoopHook};
    use webevo_sim::{SimFetcher, UniverseConfig};
    use webevo_types::{ShardFn, ShardId, ShardPlan};

    /// One fresh engine of every kind under `budget`.
    fn engines(budget: CrawlBudget, workers: usize) -> Vec<Box<dyn CrawlEngine>> {
        vec![
            Box::new(PeriodicCrawler::new(budget.periodic_config())),
            Box::new(IncrementalCrawler::new(budget.incremental_config())),
            Box::new(ThreadedCrawler::new(budget.incremental_config(), workers)),
        ]
    }

    #[test]
    fn budget_derives_both_configs_from_one_source() {
        let budget = CrawlBudget::paper_monthly(90);
        let inc = budget.incremental_config();
        let per = budget.periodic_config();
        assert_eq!(inc.capacity, per.capacity);
        assert_eq!(inc.crawl_rate_per_day, per.average_speed());
        assert_eq!(per.cycle_days, 30.0);
        assert_eq!(per.window_days, 7.0);
        assert_eq!(inc.sample_interval_days, per.sample_interval_days);
        // The public `monthly` constructors are the same derivation.
        let inc2 = IncrementalConfig::monthly(90);
        assert_eq!(inc.capacity, inc2.capacity);
        assert_eq!(inc.crawl_rate_per_day, inc2.crawl_rate_per_day);
        let per2 = PeriodicConfig::monthly(90);
        assert_eq!(per.cycle_days, per2.cycle_days);
        assert_eq!(per.window_days, per2.window_days);
    }

    #[test]
    fn with_cycle_days_scales_the_window() {
        let budget = CrawlBudget::paper_monthly(100).with_cycle_days(15.0);
        assert_eq!(budget.cycle_days, 15.0);
        assert!((budget.batch_window_days - 3.5).abs() < 1e-12);
        assert!((budget.steady_rate() - 100.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn every_engine_drives_through_the_trait() {
        let u = WebUniverse::generate(UniverseConfig::test_scale(64));
        let budget = CrawlBudget::paper_monthly(40).with_cycle_days(5.0);
        for mut engine in engines(budget, 2) {
            let kind = engine.kind();
            assert!(!engine.started());
            let mut fetcher = SimFetcher::new(&u);
            engine
                .drive(&u, &mut fetcher, &mut NoopHook, 20.0)
                .unwrap_or_else(|e| panic!("{kind} drive failed: {e}"));
            assert!(engine.started());
            assert!(engine.metrics().fetches > 0, "{kind} fetched nothing");
            assert!(engine.collection_len() > 0, "{kind} holds no pages");
            assert!(engine.passes() > 0, "{kind} completed no passes");
            // The clock freezes at (or, for the periodic engine's idle
            // phase, before) the horizon — never beyond it.
            assert!(engine.clock().t <= 20.0, "{kind} clock overran the horizon");
            // Driving backwards is a typed error, not a panic.
            let mut fetcher = SimFetcher::new(&u);
            assert!(matches!(
                engine.drive(&u, &mut fetcher, &mut NoopHook, 10.0),
                Err(WebEvoError::InvalidState(_))
            ));
        }
    }

    #[test]
    fn scope_and_routed_links_are_guarded_by_the_run_state_for_every_kind() {
        let u = WebUniverse::generate(UniverseConfig::test_scale(66));
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        let plan = ShardPlan::new(ShardFn::Hash, 2, u.site_count() as u32);
        let scope = ShardScope { plan, shard: ShardId(0) };
        let invalid = |result: Result<(), WebEvoError>, needle: &str, kind: EngineKind| match result {
            Err(WebEvoError::InvalidState(msg)) => assert!(msg.contains(needle), "{kind}: {msg}"),
            other => panic!("{kind}: expected InvalidState mentioning {needle:?}, got {other:?}"),
        };
        for mut engine in engines(budget, 2) {
            let kind = engine.kind();
            // Before the run starts there is no point in the sequence to
            // inject at: refused, with nothing consumed.
            let injected = engine.inject_links(Vec::new()).map(|_| ());
            invalid(injected, "cannot inject routed links before the run starts", kind);
            assert_eq!(engine.routing(), &RoutingState::default(), "{kind}");
            assert_eq!(engine.shell().fetch_seq, 0, "{kind}");

            engine.drive(&u, &mut SimFetcher::new(&u), &mut NoopHook, 12.0).expect("drives");

            // Once started the seeds are in: a scope can no longer apply.
            let (routing, seq) = (engine.routing().clone(), engine.shell().fetch_seq);
            invalid(engine.set_scope(scope), "shard scope must be set before the run starts", kind);
            assert_eq!(engine.routing(), &routing, "{kind}: routing state moved");
            assert_eq!(engine.routing().scope, None, "{kind}");
            assert_eq!(engine.shell().fetch_seq, seq, "{kind}: a sequence number was consumed");

            // An (empty) exchange takes the next sequence number at the
            // frozen clock and counts as one applied exchange.
            let exchanges = routing.exchanges;
            let batch = engine.inject_links(Vec::new()).expect("a started engine accepts");
            assert_eq!((batch.seq, batch.t), (seq + 1, engine.clock().t), "{kind}");
            assert_eq!(engine.shell().fetch_seq, seq + 1, "{kind}");
            assert_eq!(engine.routing().exchanges, exchanges + 1, "{kind}");
        }
    }

    /// Records every fetch an engine reports.
    #[derive(Default)]
    struct FetchLog(Vec<FetchRecord>);

    impl CrawlHook for FetchLog {
        fn on_fetch(&mut self, record: &FetchRecord) {
            self.0.push(record.clone());
        }

        fn on_pass_boundary(&mut self, _t: f64, _export: &mut dyn FnMut() -> CrawlerState) {}
    }

    #[test]
    fn a_scoped_engine_fetches_and_seeds_only_the_sites_its_shard_owns() {
        // Shard scope is enforced in the engine and nowhere else: foreign
        // seeds are skipped, foreign discoveries divert into the outbox,
        // and a foreign entry that reaches the schedule anyway burns its
        // slot unfetched. The fetcher is a plain one that fetches anything.
        let u = WebUniverse::generate(UniverseConfig::test_scale(67));
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(1.0);
        let plan = ShardPlan::new(ShardFn::Hash, 2, u.site_count() as u32);
        let shard = ShardId(0);
        let seeds: Vec<Url> = u
            .sites()
            .iter()
            .filter_map(|site| {
                u.occupant(site.id, 0, 0.0)
                    .map(|root| Url::new(site.id, root))
            })
            .collect();
        let owned: Vec<Url> = seeds
            .iter()
            .copied()
            .filter(|s| plan.owns(shard, s.site))
            .collect();
        assert!(
            !owned.is_empty() && owned.len() < seeds.len(),
            "the plan must split the seeds"
        );
        for mut engine in engines(budget, 2) {
            let kind = engine.kind();
            engine
                .set_scope(ShardScope { plan, shard })
                .expect("a fresh engine takes a scope");
            let mut log = FetchLog::default();
            engine
                .drive(&u, &mut SimFetcher::new(&u), &mut log, 12.0)
                .expect("drives");
            assert!(!log.0.is_empty(), "{kind} fetched nothing");
            for record in &log.0 {
                assert!(
                    plan.owns(shard, record.url.site),
                    "{kind} fetched {:?}",
                    record.url
                );
            }
            let fetched = |seed: &&Url| log.0.iter().any(|r| r.url == **seed);
            let fetched_seeds: Vec<Url> = seeds.iter().filter(fetched).copied().collect();
            assert_eq!(
                fetched_seeds, owned,
                "{kind}: the seeds fetched are the shard's own"
            );
            assert!(
                !engine.routing().outbox.is_empty(),
                "{kind} diverted no foreign link"
            );
        }
    }

    #[test]
    fn restore_rejects_nothing_but_rebuilds_the_right_engine() {
        let u = WebUniverse::generate(UniverseConfig::test_scale(65));
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        for mut engine in engines(budget, 3) {
            let mut fetcher = SimFetcher::new(&u);
            engine.drive(&u, &mut fetcher, &mut NoopHook, 12.0).expect("drives");
            let state = engine.export_state();
            let (rebuilt, _) = restore(state).expect("state restores");
            assert_eq!(rebuilt.kind(), engine.kind());
            assert_eq!(rebuilt.collection_len(), engine.collection_len());
            assert_eq!(rebuilt.clock(), engine.clock());
        }
    }
}
