//! [`CrawlSession`]: the one supported way to run a crawl.
//!
//! A session binds together everything a crawl needs — an engine (any
//! [`EngineKind`]), a [`CrawlBudget`] or explicit configuration, the
//! universe, a fetcher, and optional checkpointing — behind a validating
//! builder. What used to be a per-engine zoo of constructors and
//! hand-wired run/resume/replay variants is now two calls:
//!
//! * [`CrawlSession::run`] — start a fresh crawl (checkpointing to disk
//!   when configured);
//! * [`CrawlSession::resume`] — recover `snapshot + WAL tail` from the
//!   checkpoint directory, replay to the last committed boundary, keep
//!   checkpointing the recovered lineage in place (no snapshot is
//!   rewritten; the log continues after its committed prefix), and
//!   continue. The continuation is bit-identical to a never-interrupted
//!   run (`tests/determinism.rs`).
//!
//! [`CrawlSessionBuilder::build`] validates everything up front and
//! returns typed [`WebEvoError`]s — zero capacity, zero workers, an
//! unwritable checkpoint directory, bad cadences — instead of panicking
//! mid-crawl; [`CrawlSession::resume`] adds recovery-shaped errors such
//! as a checkpoint written by a different engine kind.
//!
//! ```
//! use webevo_core::engine::{CrawlBudget, EngineKind};
//! use webevo_sim::{UniverseConfig, WebUniverse};
//! use webevo_store::CrawlSession;
//!
//! let universe = WebUniverse::generate(UniverseConfig::test_scale(3));
//! let mut session = CrawlSession::builder()
//!     .engine(EngineKind::Threaded { workers: 2 })
//!     .budget(CrawlBudget::paper_monthly(40).with_cycle_days(8.0))
//!     .universe(&universe)
//!     .build()
//!     .expect("a valid session");
//! let metrics = session.run(20.0).expect("the crawl runs");
//! assert!(metrics.fetches > 0);
//! ```

use crate::checkpoint::{recover, CheckpointConfig, CheckpointStats, Checkpointer, Recovered};
use std::path::{Path, PathBuf};
use webevo_core::engine::{restore, CrawlBudget, CrawlEngine};
use webevo_core::{
    Collection, CrawlHook, CrawlMetrics, CrawlerState, IncrementalConfig, IncrementalCrawler,
    NoopHook, PeriodicConfig, PeriodicCrawler, RoutedLink, RoutingState, ShardScope,
    ThreadedCrawler,
};
use webevo_core::{EngineClock, EngineKind, ViewPublisher};
use webevo_obs::{LogicalClock, ObsSink, Stage};
use webevo_serve::{QueryService, ServeHandle};
use webevo_sim::{Fetcher, SimFetcher, WebUniverse};
use webevo_types::{ShardId, ShardPlan, WebEvoError};

/// The fetcher a session crawls through: caller-supplied, or a default
/// [`SimFetcher`] over the session's universe.
enum SessionFetcher<'a> {
    Borrowed(&'a mut (dyn Fetcher + Send)),
    Owned(SimFetcher<'a>),
}

impl SessionFetcher<'_> {
    fn get(&mut self) -> &mut dyn Fetcher {
        match self {
            SessionFetcher::Borrowed(f) => *f,
            SessionFetcher::Owned(f) => f,
        }
    }
}

/// Builder for a [`CrawlSession`]. Obtain via [`CrawlSession::builder`].
pub struct CrawlSessionBuilder<'a> {
    engine: Option<EngineKind>,
    budget: Option<CrawlBudget>,
    incremental_config: Option<IncrementalConfig>,
    periodic_config: Option<PeriodicConfig>,
    universe: Option<&'a WebUniverse>,
    fetcher: Option<&'a mut (dyn Fetcher + Send)>,
    checkpoint: Option<(PathBuf, f64)>,
    scope: Option<ShardScope>,
    obs: ObsSink,
}

impl<'a> CrawlSessionBuilder<'a> {
    fn new() -> CrawlSessionBuilder<'a> {
        CrawlSessionBuilder {
            engine: None,
            budget: None,
            incremental_config: None,
            periodic_config: None,
            universe: None,
            fetcher: None,
            checkpoint: None,
            scope: None,
            obs: ObsSink::noop(),
        }
    }

    /// Which engine to run (required). `EngineKind::Threaded { workers }`
    /// selects the concurrent engine with that worker count.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = Some(kind);
        self
    }

    /// The shared fetch budget the engine configuration derives from.
    /// Overridden per engine family by [`CrawlSessionBuilder::incremental`]
    /// / [`CrawlSessionBuilder::periodic`].
    pub fn budget(mut self, budget: CrawlBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Full incremental configuration (fine-grained control over the
    /// revisit strategy, estimator, ranking tuning, …). Takes precedence
    /// over [`CrawlSessionBuilder::budget`] for the incremental engines.
    pub fn incremental(mut self, config: IncrementalConfig) -> Self {
        self.incremental_config = Some(config);
        self
    }

    /// Full periodic configuration. Takes precedence over
    /// [`CrawlSessionBuilder::budget`] for the periodic engine.
    pub fn periodic(mut self, config: PeriodicConfig) -> Self {
        self.periodic_config = Some(config);
        self
    }

    /// The synthetic web to crawl (required): seed URLs and metrics ground
    /// truth.
    pub fn universe(mut self, universe: &'a WebUniverse) -> Self {
        self.universe = Some(universe);
        self
    }

    /// The fetcher to crawl through, under every engine. Defaults to an
    /// unrestricted [`SimFetcher`] over the universe.
    pub fn fetcher(mut self, fetcher: &'a mut (dyn Fetcher + Send)) -> Self {
        self.fetcher = Some(fetcher);
        self
    }

    /// Scope the session to the sites one fleet shard owns under `plan`:
    /// foreign link discoveries divert into the routing outbox (drained by
    /// the fleet coordinator at exchange barriers) instead of burning
    /// fetches, and seeds on foreign sites are skipped. Every engine
    /// supports scoping, enforced where it schedules fetch slots, so no
    /// engine fetches a foreign URL. Only the fleet builds scoped
    /// sessions, so a scoped checkpoint lineage is a fleet shard's.
    pub(crate) fn scope(mut self, plan: ShardPlan, shard: ShardId) -> Self {
        self.scope = Some(ShardScope { plan, shard });
        self
    }

    /// Observe this session through `sink`: the engine's drive/pass/fetch
    /// spans and fetch-outcome counters, plus the checkpointer's WAL-flush
    /// and snapshot-encode spans, all land in it. The default
    /// [`ObsSink::noop`] records nothing at near-zero cost. Tracing is
    /// write-only — a traced run's crawl output is byte-identical to an
    /// untraced one (`tests/determinism.rs` pins this).
    pub fn obs(mut self, sink: ObsSink) -> Self {
        self.obs = sink;
        self
    }

    /// Checkpoint to `dir`, writing a full snapshot every
    /// `snapshot_every_days` simulated days (the WAL flushes at every pass
    /// boundary regardless). Also the directory [`CrawlSession::resume`]
    /// recovers from.
    pub fn checkpoint(mut self, dir: impl AsRef<Path>, snapshot_every_days: f64) -> Self {
        self.checkpoint = Some((dir.as_ref().to_path_buf(), snapshot_every_days));
        self
    }

    /// Validate the configuration and construct the session. All failure
    /// modes are typed [`WebEvoError`]s — nothing here panics.
    pub fn build(self) -> Result<CrawlSession<'a>, WebEvoError> {
        let kind = self.engine.ok_or_else(|| {
            WebEvoError::invalid("no engine selected: call .engine(EngineKind::…)")
        })?;
        let universe = self.universe.ok_or_else(|| {
            WebEvoError::invalid("no universe supplied: call .universe(&universe)")
        })?;
        if matches!(kind, EngineKind::Threaded { workers: 0 }) {
            return Err(WebEvoError::invalid(
                "threaded engine needs at least one worker",
            ));
        }

        // Resolve the engine configuration: explicit config > budget.
        let budget = self.budget;
        let mut engine: Box<dyn CrawlEngine + Send> = match kind {
            EngineKind::Periodic => {
                let config = match (self.periodic_config, budget) {
                    (Some(config), _) => config,
                    (None, Some(budget)) => budget.periodic_config(),
                    (None, None) => {
                        return Err(WebEvoError::invalid(
                            "periodic engine needs .budget(…) or .periodic(…)",
                        ))
                    }
                };
                validate_periodic(&config)?;
                Box::new(PeriodicCrawler::new(config))
            }
            EngineKind::Incremental | EngineKind::Threaded { .. } => {
                let config = match (self.incremental_config, budget) {
                    (Some(config), _) => config,
                    (None, Some(budget)) => budget.incremental_config(),
                    (None, None) => {
                        return Err(WebEvoError::invalid(
                            "incremental engines need .budget(…) or .incremental(…)",
                        ))
                    }
                };
                validate_incremental(&config)?;
                match kind {
                    EngineKind::Threaded { workers } => {
                        Box::new(ThreadedCrawler::new(config, workers))
                    }
                    _ => Box::new(IncrementalCrawler::new(config)),
                }
            }
        };

        // Shard scoping binds before the run seeds; an engine that cannot
        // be scoped rejects it here, at build time.
        if let Some(scope) = self.scope {
            engine.set_scope(scope)?;
        }
        if self.obs.enabled() {
            engine.set_obs(self.obs.clone());
        }

        // Checkpointing: the directory must exist (or be creatable) and be
        // writable *now*, not at the first pass boundary mid-crawl.
        let checkpoint = match self.checkpoint {
            None => None,
            Some((dir, every)) => {
                if !(every > 0.0 && every.is_finite()) {
                    return Err(WebEvoError::invalid(format!(
                        "snapshot cadence must be positive, got {every}"
                    )));
                }
                probe_writable(&dir)?;
                Some(CheckpointConfig::new(dir, every))
            }
        };

        let fetcher = match self.fetcher {
            Some(f) => SessionFetcher::Borrowed(f),
            None => SessionFetcher::Owned(SimFetcher::new(universe)),
        };
        Ok(CrawlSession {
            engine,
            universe,
            fetcher,
            checkpoint,
            checkpointer: None,
            obs: self.obs,
            serve: None,
            view_publisher: None,
        })
    }
}

fn validate_incremental(config: &IncrementalConfig) -> Result<(), WebEvoError> {
    if config.capacity == 0 {
        return Err(WebEvoError::invalid("collection capacity must be positive"));
    }
    for (value, what) in [
        (config.crawl_rate_per_day, "crawl rate (fetches/day)"),
        (config.ranking_interval_days, "ranking interval"),
        (config.sample_interval_days, "sample interval"),
    ] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(WebEvoError::invalid(format!(
                "{what} must be positive and finite, got {value}"
            )));
        }
    }
    Ok(())
}

fn validate_periodic(config: &PeriodicConfig) -> Result<(), WebEvoError> {
    if config.capacity == 0 {
        return Err(WebEvoError::invalid("collection capacity must be positive"));
    }
    for (value, what) in [
        (config.cycle_days, "cycle length"),
        (config.window_days, "batch window"),
        (config.sample_interval_days, "sample interval"),
    ] {
        if !(value > 0.0 && value.is_finite()) {
            return Err(WebEvoError::invalid(format!(
                "{what} must be positive and finite, got {value}"
            )));
        }
    }
    if config.window_days > config.cycle_days {
        return Err(WebEvoError::invalid(format!(
            "batch window ({} days) cannot exceed the cycle ({} days)",
            config.window_days, config.cycle_days
        )));
    }
    Ok(())
}

/// Create-and-probe: the checkpoint directory must accept writes before
/// the crawl starts.
fn probe_writable(dir: &Path) -> Result<(), WebEvoError> {
    std::fs::create_dir_all(dir).map_err(|e| {
        WebEvoError::invalid(format!("checkpoint dir {dir:?} cannot be created: {e}"))
    })?;
    let probe = dir.join(".webevo-write-probe");
    std::fs::write(&probe, b"probe")
        .map_err(|e| WebEvoError::invalid(format!("checkpoint dir {dir:?} is not writable: {e}")))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// A configured crawl over one universe with one engine. Built by
/// [`CrawlSession::builder`]; see the module docs.
pub struct CrawlSession<'a> {
    engine: Box<dyn CrawlEngine + Send>,
    universe: &'a WebUniverse,
    fetcher: SessionFetcher<'a>,
    checkpoint: Option<CheckpointConfig>,
    checkpointer: Option<Checkpointer>,
    /// The observability sink shared by the engine and the checkpointer
    /// (a noop unless [`CrawlSessionBuilder::obs`] installed one).
    obs: ObsSink,
    /// The serving attachment, once [`CrawlSession::serve`] created one.
    /// Held so repeated `serve()` calls share one epoch lineage.
    serve: Option<ServeHandle>,
    /// Factory for the engine's boundary view publisher, re-invoked after
    /// [`CrawlSession::adopt`] replaces the engine — serving survives
    /// recovery the same way observability does.
    view_publisher: Option<Box<dyn Fn() -> Box<dyn ViewPublisher> + Send>>,
}

impl<'a> CrawlSession<'a> {
    /// Start building a session.
    pub fn builder() -> CrawlSessionBuilder<'a> {
        CrawlSessionBuilder::new()
    }

    /// Run the crawl from day 0 to day `days` (or continue a previous
    /// [`CrawlSession::run`] of this session to a later horizon). With
    /// checkpointing configured, the first call starts a fresh snapshot
    /// lineage in the checkpoint directory.
    pub fn run(&mut self, days: f64) -> Result<&CrawlMetrics, WebEvoError> {
        if self.checkpointer.is_none() {
            if let Some(config) = self.checkpoint.clone() {
                // The lineage opens with a base snapshot of the state the
                // run starts from, so a kill before the first cadence
                // snapshot still recovers (base + whole WAL).
                let state = self.export_state();
                let ckpt = Checkpointer::create(config.clone(), &state).map_err(|e| {
                    WebEvoError::invalid(format!(
                        "checkpoint dir {:?} is not writable: {e}",
                        config.dir
                    ))
                })?;
                self.attach_checkpointer(ckpt);
            }
        }
        self.drive(days)
    }

    /// Recover from the checkpoint directory and continue to day `days`:
    /// decode the newest snapshot, rebuild the engine, restore the
    /// fetcher's replay state, re-apply the committed WAL tail, keep
    /// checkpointing the recovered lineage (see `Checkpointer::adopt`),
    /// and drive on.
    ///
    /// Typed failure modes: no checkpointing configured, nothing to
    /// resume (no snapshot on disk), a corrupt snapshot, or a snapshot
    /// written by a different engine kind than the session was built for.
    /// A worker-count difference within the threaded family is not an
    /// error: the snapshot's count wins, preserving the deterministic
    /// schedule.
    ///
    /// If `days` does not lie beyond the recovered clock, the session
    /// simply holds the recovered state (inspect it via
    /// [`CrawlSession::metrics`] and friends).
    pub fn resume(&mut self, days: f64) -> Result<&CrawlMetrics, WebEvoError> {
        let config = self.checkpoint.clone().ok_or_else(|| {
            WebEvoError::InvalidState(
                "resume requires .checkpoint(dir, every) on the builder".into(),
            )
        })?;
        let recovered = {
            let _span = self.obs.span(Stage::SnapshotDecode, LogicalClock::new(0.0, 0));
            recover(&config.dir)
                .map_err(|e| {
                    WebEvoError::InvalidState(format!(
                        "checkpoint dir {:?} cannot be recovered: {e}",
                        config.dir
                    ))
                })?
                .ok_or_else(|| {
                    WebEvoError::InvalidState(format!(
                        "nothing to resume: no snapshot in {:?} (run() first)",
                        config.dir
                    ))
                })?
        };
        self.adopt(recovered)?;
        if days > self.engine.clock().t {
            self.drive(days)
        } else {
            Ok(self.engine.metrics())
        }
    }

    /// Install a recovered checkpoint into this session: validate it
    /// against the session's configuration, continue its lineage with
    /// `Checkpointer::adopt` — the snapshot on disk stays, the WAL is
    /// cut back to the end of the committed prefix `recovered.wal` holds
    /// and appended to from there — rebuild the engine, restore the
    /// fetcher's replay state, and re-apply that prefix. No snapshot is
    /// exported, encoded or written; the next cadence snapshot counts from
    /// the day replay lands on. The engine afterwards sits at the last
    /// committed boundary; no driving happens. `FleetSession`
    /// recovers shards itself (it aligns their exchange counters first
    /// and refuses a checkpoint written under another shard plan) and
    /// adopts each one through this.
    pub(crate) fn adopt(&mut self, recovered: Recovered) -> Result<(), WebEvoError> {
        let config = self.checkpoint.clone().ok_or_else(|| {
            WebEvoError::InvalidState(
                "adopting a recovered state requires .checkpoint(dir, every) on the builder"
                    .into(),
            )
        })?;
        if !recovered.state.engine.same_family(&self.engine.kind()) {
            return Err(WebEvoError::InvalidState(format!(
                "checkpoint in {:?} was written by the {} engine, but this session is \
                 configured for the {} engine",
                config.dir,
                recovered.state.engine.name(),
                self.engine.kind().name()
            )));
        }
        let mut ckpt = Checkpointer::adopt(config.clone(), &recovered).map_err(|e| {
            WebEvoError::InvalidState(format!(
                "checkpoint in {:?} cannot be continued: {e}",
                config.dir
            ))
        })?;
        let (engine, fetcher_state) = restore(recovered.state)?;
        self.engine = engine;
        if self.obs.enabled() {
            self.engine.set_obs(self.obs.clone());
        }
        if let Some(factory) = &self.view_publisher {
            self.engine.set_view_publisher(factory());
        }
        if let Some(state) = fetcher_state {
            self.fetcher.get().restore_state(state);
        }
        self.engine
            .replay(self.universe, self.fetcher.get(), &recovered.wal)?;
        ckpt.resume_at(self.engine.clock().t);
        self.attach_checkpointer(ckpt);
        Ok(())
    }

    /// Checkpoint the rest of the session's crawl through `ckpt`, under
    /// the session's observability sink.
    fn attach_checkpointer(&mut self, mut ckpt: Checkpointer) {
        if self.obs.enabled() {
            ckpt.set_obs(self.obs.clone());
        }
        self.checkpointer = Some(ckpt);
    }

    /// The fleet's exchange-barrier checkpoint: commit the buffered leg
    /// and, when the cadence is due, hand the engine's *current*
    /// (pre-injection) state to the background encoder — the step an
    /// unscoped lineage takes at its pass boundaries. The fleet calls this
    /// right before delivering the routed batches, whose commit joins the
    /// snapshot first (see [`CrawlSession::deliver`]).
    pub(crate) fn snapshot_if_due(&mut self) -> Result<(), WebEvoError> {
        let Some(ckpt) = &mut self.checkpointer else {
            return Ok(());
        };
        let (engine, fetcher) = (&*self.engine, &mut self.fetcher);
        ckpt.checkpoint(engine.clock().t, &mut || export_with_fetcher(engine, fetcher))
            .map_err(|e| WebEvoError::InvalidState(format!("barrier checkpoint failed: {e}")))
    }

    /// Attach the serving layer: at every pass/cycle boundary the engine
    /// publishes an immutable epoch-numbered
    /// [`CollectionView`](webevo_serve::CollectionView), and the returned
    /// [`QueryService`] answers concurrent queries against the latest one
    /// — from any number of reader threads, without ever blocking the
    /// crawl. Before the first boundary, readers see the empty epoch-0
    /// view. Serving is write-only and free: a served run's checkpoints
    /// and metrics are byte-identical to an unserved run's
    /// (`tests/determinism.rs` pins this).
    ///
    /// Repeated calls share one epoch lineage, and the attachment
    /// survives [`CrawlSession::resume`] — epochs keep counting across a
    /// recovery. With [`CrawlSessionBuilder::obs`] configured, the
    /// publisher records `serve_epoch`/`serve_view_pages` gauges and the
    /// service records `serve_query_us` latency histograms.
    pub fn serve(&mut self) -> QueryService {
        let handle = match &self.serve {
            Some(handle) => handle.clone(),
            None => {
                let handle = ServeHandle::new(self.obs.clone());
                self.serve = Some(handle.clone());
                let factory = handle.clone();
                self.install_view_publisher(Box::new(move || factory.publisher()));
                handle
            }
        };
        handle.service()
    }

    /// Install a boundary view-publisher factory on the engine, keeping
    /// it for re-installation whenever `adopt()` rebuilds the engine.
    /// The fleet uses this directly to stage per-shard views into its
    /// merge collector.
    pub(crate) fn install_view_publisher(
        &mut self,
        factory: Box<dyn Fn() -> Box<dyn ViewPublisher> + Send>,
    ) {
        self.engine.set_view_publisher(factory());
        self.view_publisher = Some(factory);
    }

    /// The engine's routing state (shard scope, outbox, applied-exchange
    /// counter).
    pub(crate) fn routing(&self) -> &RoutingState {
        self.engine.routing()
    }

    /// Deliver one exchange's routed links: inject them into the engine
    /// (see [`CrawlEngine::inject_links`]) and commit the applied batch to
    /// the write-ahead log, so the exchange is durable before the shard
    /// crawls past the barrier and a kill-and-resume replays it exactly.
    /// The commit lands after the barrier's snapshot, if one is in flight.
    pub(crate) fn deliver(&mut self, links: Vec<RoutedLink>) -> Result<(), WebEvoError> {
        let batch = self.engine.inject_links(links)?;
        let Some(ckpt) = &mut self.checkpointer else {
            return Ok(());
        };
        ckpt.append_routed(batch);
        ckpt.flush()
            .map_err(|e| WebEvoError::InvalidState(format!("exchange commit failed: {e}")))
    }

    /// Record the closing metrics sample a live drive ending at `t` would
    /// have recorded, without advancing the engine (see
    /// [`CrawlEngine::close_sample`]). The fleet coordinator calls this
    /// when a recovered shard's replayed clock already sits at a barrier:
    /// the interrupted process closed that drive with a sample at exactly
    /// `t`, which no logged event reconstructs. Idempotent.
    pub(crate) fn close_sample(&mut self, t: f64) {
        self.engine.close_sample(self.universe, t);
    }

    /// Advance the engine under the checkpointer, when one is configured.
    fn drive(&mut self, days: f64) -> Result<&CrawlMetrics, WebEvoError> {
        let fetcher = self.fetcher.get();
        let hook: &mut dyn CrawlHook = match &mut self.checkpointer {
            Some(ckpt) => ckpt,
            None => &mut NoopHook,
        };
        self.engine.drive(self.universe, fetcher, hook, days)
    }

    /// The engine's discrete-event clock.
    pub fn clock(&self) -> EngineClock {
        self.engine.clock()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &CrawlMetrics {
        self.engine.metrics()
    }

    /// The Figure 12 collection, when the engine maintains one (`None`
    /// for the periodic engine).
    pub fn collection(&self) -> Option<&Collection> {
        self.engine.collection()
    }

    /// Pages currently visible to users.
    pub fn collection_len(&self) -> usize {
        self.engine.collection_len()
    }

    /// Completed refinement passes (ranking passes, applied rankings, or
    /// shadow swaps, depending on the engine).
    pub fn passes(&self) -> u64 {
        self.engine.passes()
    }

    /// Collection quality against ground-truth PageRank (see
    /// [`webevo_core::collection_quality`]); `None` for the periodic
    /// engine.
    pub fn quality(&self, t: f64) -> Option<f64> {
        self.engine
            .collection()
            .map(|c| webevo_core::collection_quality(c, self.universe, t))
    }

    /// Durability counters, when checkpointing is active.
    pub fn checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.checkpointer.as_ref().map(|c| c.stats())
    }

    /// Export the full engine state, with the fetcher's replay state
    /// merged in.
    pub fn export_state(&mut self) -> CrawlerState {
        export_with_fetcher(&*self.engine, &mut self.fetcher)
    }

    /// Direct access to the engine, for trait-level operations the
    /// session does not wrap.
    pub fn engine(&self) -> &dyn CrawlEngine {
        &*self.engine
    }
}

/// `engine`'s full state, with `fetcher`'s replay state merged in.
fn export_with_fetcher(engine: &dyn CrawlEngine, fetcher: &mut SessionFetcher<'_>) -> CrawlerState {
    let mut state = engine.export_state();
    state.fetcher = fetcher.get().export_state();
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_sim::UniverseConfig;

    fn universe(seed: u64) -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(seed))
    }

    #[test]
    fn default_fetcher_is_supplied() {
        let u = universe(31);
        let mut session = CrawlSession::builder()
            .engine(EngineKind::Incremental)
            .budget(CrawlBudget::paper_monthly(30).with_cycle_days(5.0))
            .universe(&u)
            .build()
            .expect("valid session");
        let metrics = session.run(10.0).expect("runs");
        assert!(metrics.fetches > 0);
        assert!(session.quality(10.0).is_some());
    }

    #[test]
    fn periodic_session_reports_swaps_as_passes() {
        let u = universe(32);
        let mut session = CrawlSession::builder()
            .engine(EngineKind::Periodic)
            .budget(CrawlBudget::paper_monthly(40).with_cycle_days(10.0))
            .universe(&u)
            .build()
            .expect("valid session");
        session.run(25.0).expect("runs");
        assert_eq!(session.passes(), 3, "day 25 is mid-window of cycle 3");
        assert!(session.collection().is_none());
        assert!(session.collection_len() > 0);
        assert!(session.quality(25.0).is_none());
    }

    #[test]
    fn run_then_longer_run_continues() {
        let u = universe(33);
        let mut session = CrawlSession::builder()
            .engine(EngineKind::Threaded { workers: 2 })
            .budget(CrawlBudget::paper_monthly(30).with_cycle_days(6.0))
            .universe(&u)
            .build()
            .expect("valid session");
        let first = session.run(10.0).expect("runs").fetches;
        let second = session.run(20.0).expect("continues").fetches;
        assert!(second > first);
    }
}
