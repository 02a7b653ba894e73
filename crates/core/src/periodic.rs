//! The periodic crawler baseline — batch-mode, shadowing, fixed frequency
//! (the right-hand column of Figure 10).
//!
//! Every cycle the crawler rebuilds a **brand new** collection from the
//! seed URLs: breadth-first crawling into a shadow space during the batch
//! window, then an atomic swap replaces the current collection (§1's
//! description of the traditional crawler, §4's shadowing semantics).
//! Between windows the crawler idles — which is exactly what gives it the
//! high peak speed §4 warns about (peak = cycle/window × the steady rate).
//!
//! The engine is a resumable state machine with full [`CrawlEngine`]
//! parity: the cycle clock, the mid-window shadow/frontier, and the
//! user-visible collection all live on the struct, so a checkpoint can
//! freeze the crawl anywhere and a restored engine continues
//! bit-identically. Pass boundaries — the durability flush points the
//! [`CrawlHook`] observes — are the shadow swaps: the one moment the
//! engine is quiescent between cycles.

use crate::collection::Collection;
use crate::engine::{check_drive_target, CrawlBudget, CrawlEngine, FetchSource};
use crate::hooks::{CrawlHook, FetchRecord, NoopHook};
use crate::metrics::CrawlMetrics;
use crate::modules::{CrawlModule, EstimatorKind, RevisitStrategy, UpdateModule};
use crate::routing::{RoutedBatch, RoutedLink, RoutingState, ShardScope, WalEvent};
use crate::view::{BoundaryPages, ViewBoundary, ViewPublisher};
use crate::state::{CrawlerState, EngineClock, EngineConfig, EngineKind};
use std::collections::VecDeque;
use webevo_obs::{LogicalClock, ObsSink, SpanGuard, Stage};
use webevo_sim::{FetchError, Fetcher, FetcherState, WebUniverse};
use webevo_types::{wire_struct, Checksum, DenseMap, DenseSet, Url, WebEvoError};

/// Configuration of the periodic crawler.
#[derive(Clone, Debug, PartialEq)]
pub struct PeriodicConfig {
    /// Collection capacity in pages.
    pub capacity: usize,
    /// Cycle length in days (the paper's "once a month").
    pub cycle_days: f64,
    /// Batch window: the crawl must finish within this many days (the
    /// paper's "finishes a crawl in a week").
    pub window_days: f64,
    /// Metrics sampling period in days.
    pub sample_interval_days: f64,
}

impl PeriodicConfig {
    /// The paper's Table 2 shape (monthly cycle, one-week window), derived
    /// from [`CrawlBudget::paper_monthly`] — the one place that budget is
    /// defined.
    pub fn monthly(capacity: usize) -> PeriodicConfig {
        CrawlBudget::paper_monthly(capacity).periodic_config()
    }

    /// Average crawl speed (fetches/day amortized over the cycle).
    pub fn average_speed(&self) -> f64 {
        self.capacity as f64 / self.cycle_days
    }

    /// Peak crawl speed (fetches/day during the window) — the §4 cost of
    /// batch crawling.
    pub fn peak_speed(&self) -> f64 {
        self.capacity as f64 / self.window_days
    }
}

/// One page of a periodic collection (current or shadow): when it was
/// crawled and what digest came back.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeriodicPage {
    /// When the batch crawl fetched this copy (days).
    pub crawl_time: f64,
    /// Digest of the fetched content.
    pub checksum: Checksum,
}

/// The in-flight state of one batch window: the shadow collection under
/// construction and its BFS frontier. Serialized inside
/// [`PeriodicState`] so a checkpoint can freeze a crawl mid-window.
#[derive(Clone, Debug)]
pub struct BatchWindow {
    /// The shadow collection being built this cycle.
    pub shadow: DenseMap<PeriodicPage>,
    /// BFS frontier, front = next URL to crawl.
    pub frontier: VecDeque<Url>,
    /// Pages ever enqueued this window (BFS dedup guard).
    pub seen: DenseSet,
}

/// The periodic engine's cycle/shadow payload inside
/// [`CrawlerState`] (the incremental fields of the shared state are empty
/// for this engine).
#[derive(Clone, Debug)]
pub struct PeriodicState {
    /// The user-visible collection.
    pub current: DenseMap<PeriodicPage>,
    /// When each page first became visible to users.
    pub first_visible: DenseMap<f64>,
    /// Completed shadow swaps.
    pub cycles: u64,
    /// Start day of the cycle in progress.
    pub cycle_start: f64,
    /// `true` between a swap and the next cycle start; `false` during the
    /// batch window.
    pub idle: bool,
    /// The mid-window state, when frozen inside a batch window.
    pub window: Option<BatchWindow>,
}

wire_struct!(PeriodicConfig { capacity, cycle_days, window_days, sample_interval_days });
wire_struct!(PeriodicPage { crawl_time, checksum });
wire_struct!(BatchWindow { shadow, frontier, seen });
wire_struct!(PeriodicState { current, first_visible, cycles, cycle_start, idle, window });

/// The periodic crawler.
pub struct PeriodicCrawler {
    config: PeriodicConfig,
    /// The user-visible collection (page → crawl info).
    // Iterated in ascending-id order for the replay contract: the swap
    // loop and metric sampling accumulate floats over this iteration
    // order.
    current: DenseMap<PeriodicPage>,
    /// When each page first became visible to users (for latency metrics).
    first_visible: DenseMap<f64>,
    metrics: CrawlMetrics,
    cycles: u64,
    run_start: f64,
    started: bool,
    fetch_seq: u64,
    /// `t` is the next fetch-slot time during a window; `next_ranking` is
    /// unused (this engine's boundaries are swaps, not ranking passes).
    clock: EngineClock,
    cycle_start: f64,
    /// See [`PeriodicState::idle`].
    idle: bool,
    window: Option<BatchWindow>,
    /// Cross-shard routing: scope, outbox, and the routed-in inbox that
    /// seeds the next batch window. Inert (default) when unsharded.
    routing: RoutingState,
    /// Observability sink. Write-only and deliberately absent from
    /// [`CrawlerState`]: a traced run stays byte-identical to an untraced
    /// one.
    obs: ObsSink,
    /// Serving-view publisher, fired at every shadow swap. Write-only and
    /// absent from [`CrawlerState`] for the same reason as `obs`: a
    /// served run stays byte-identical to an unserved one.
    publisher: Option<Box<dyn ViewPublisher>>,
}

impl PeriodicCrawler {
    /// Create a crawler.
    pub fn new(config: PeriodicConfig) -> PeriodicCrawler {
        assert!(config.capacity > 0);
        assert!(config.window_days > 0.0 && config.window_days <= config.cycle_days);
        assert!(config.sample_interval_days > 0.0);
        PeriodicCrawler {
            config,
            current: DenseMap::new(),
            first_visible: DenseMap::new(),
            metrics: CrawlMetrics::default(),
            cycles: 0,
            run_start: 0.0,
            started: false,
            fetch_seq: 0,
            clock: EngineClock { t: 0.0, next_ranking: 0.0, next_sample: 0.0 },
            cycle_start: 0.0,
            idle: false,
            window: None,
            routing: RoutingState::default(),
            obs: ObsSink::noop(),
            publisher: None,
        }
    }

    /// Rebuild an engine from a checkpointed state. Returns the engine and
    /// the fetcher state the caller must install into its fetcher before
    /// replaying or resuming.
    pub fn from_state(
        state: CrawlerState,
    ) -> Result<(PeriodicCrawler, Option<FetcherState>), WebEvoError> {
        if state.engine != EngineKind::Periodic {
            return Err(WebEvoError::InvalidState(format!(
                "state was written by the {} engine, not the periodic one",
                state.engine
            )));
        }
        let config = state.config.as_periodic()?.clone();
        let periodic = state.periodic.ok_or_else(|| {
            WebEvoError::InvalidState("periodic state payload missing from snapshot".into())
        })?;
        let crawler = PeriodicCrawler {
            config,
            current: periodic.current,
            first_visible: periodic.first_visible,
            metrics: state.metrics,
            cycles: periodic.cycles,
            run_start: state.run_start,
            started: state.seeded,
            fetch_seq: state.fetch_seq,
            clock: state.clock,
            cycle_start: periodic.cycle_start,
            idle: periodic.idle,
            window: periodic.window,
            routing: state.routing,
            obs: ObsSink::noop(),
            publisher: None,
        };
        Ok((crawler, state.fetcher))
    }

    /// Completed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Pages currently visible to users.
    pub fn current_size(&self) -> usize {
        self.current.len()
    }

    /// Start the run at the frozen clock: anchor the cycle grid and the
    /// sampling grid. Shared by [`CrawlEngine::drive`] on a fresh engine
    /// and by [`CrawlEngine::replay`] from a day-0 snapshot (a run killed
    /// before its first cadence snapshot). The BFS frontier itself seeds
    /// lazily per cycle via [`PeriodicCrawler::seed_window`].
    fn begin_run(&mut self) {
        let start = self.clock.t;
        self.run_start = start;
        self.cycle_start = start;
        self.clock.next_sample = start;
        self.started = true;
    }

    /// Seed the BFS frontier for the cycle starting at `self.cycle_start`.
    fn seed_window(&mut self, universe: &WebUniverse) {
        let mut window = BatchWindow {
            shadow: DenseMap::new(),
            frontier: VecDeque::new(),
            seen: DenseSet::new(),
        };
        for site in universe.sites() {
            // A scoped (fleet-shard) engine seeds only the sites it owns.
            if self.routing.is_foreign(site.id) {
                continue;
            }
            if let Some(root) = universe.occupant(site.id, 0, self.cycle_start) {
                let url = Url::new(site.id, root);
                if window.seen.insert(url.page) {
                    window.frontier.push_back(url);
                }
            }
        }
        // Routed-in URLs join the frontier after the owned roots, in the
        // deterministic exchange order they arrived in.
        for url in std::mem::take(&mut self.routing.inbox) {
            if window.seen.insert(url.page) {
                window.frontier.push_back(url);
            }
        }
        self.window = Some(window);
    }

    /// Apply one routed-link delivery: the outbox drained by the
    /// coordinator is cleared, the delivered URLs queue in the inbox for
    /// the next window seed (this engine can only admit URLs at a window
    /// start), one sequence number is consumed, and the exchange counter
    /// advances. Shared by live injection and WAL replay.
    fn apply_routed(&mut self, batch: RoutedBatch) {
        self.routing.outbox.clear();
        self.fetch_seq = batch.seq;
        self.routing.exchanges += 1;
        for link in batch.links {
            self.routing.inbox.push(link.url);
        }
    }

    /// Whether the replay source's next event is the routed batch due at
    /// the current point of the schedule; apply it if so.
    fn try_apply_routed(&mut self, source: &mut FetchSource<'_>) -> bool {
        let Some(batch) = source.take_routed_at(self.clock.t, self.fetch_seq + 1) else {
            return false;
        };
        self.apply_routed(batch);
        true
    }

    /// The shared event loop: samples, batch fetches, shadow swaps, and
    /// idle periods, driven either live or from the write-ahead log.
    /// Stops when the clock would cross `until` (the kill horizon — never
    /// baked into engine state) or, for replay sources, at log exhaustion.
    /// The exhaustion check sits before the swap handler so a resumed run
    /// re-enters at exactly the point the interrupted one left.
    fn advance(
        &mut self,
        universe: &WebUniverse,
        source: &mut FetchSource<'_>,
        until: f64,
        hook: &mut dyn CrawlHook,
    ) {
        let capacity = self.config.capacity;
        let step = self.config.window_days / capacity as f64;
        // Open cycle / fetch-batch spans. Local to this call on purpose: a
        // drive horizon landing mid-cycle closes the spans with the drive
        // and the next drive opens fresh ones — the trace describes wall
        // time actually spent inside each call.
        let mut cycle_span: Option<SpanGuard> = None;
        let mut batch_span: Option<SpanGuard> = None;
        loop {
            // Routed batches re-inject before anything else: live
            // injection happens while the engine is frozen between
            // drives (normally mid-idle, clock parked at the window
            // end), so replay applies the batch before the phase
            // handlers of the frozen point run again.
            if self.try_apply_routed(source) {
                continue;
            }
            if source.exhausted() {
                return;
            }
            if !self.idle {
                // --- Batch window: build the shadow collection. ---
                if self.clock.t >= until {
                    return;
                }
                if self.window.is_none() {
                    self.seed_window(universe);
                }
                if self.obs.enabled() {
                    let clock = LogicalClock::new(self.clock.t, self.fetch_seq);
                    if cycle_span.is_none() {
                        cycle_span = Some(self.obs.span(Stage::Cycle, clock));
                    }
                    if batch_span.is_none() {
                        batch_span = Some(self.obs.span(Stage::FetchBatch, clock));
                    }
                }
                loop {
                    // A barrier can land mid-window when the batch window
                    // spans the whole cycle; the batch replays here.
                    if self.try_apply_routed(source) {
                        continue;
                    }
                    if source.exhausted() {
                        return;
                    }
                    let window = self.window.as_ref().expect("window in progress");
                    if window.shadow.len() >= capacity {
                        break;
                    }
                    if self.clock.t >= until {
                        return;
                    }
                    // Sampling continues during the crawl: users still
                    // query the *current* collection while the shadow
                    // builds (§4).
                    while self.clock.next_sample <= self.clock.t {
                        let ts = self.clock.next_sample;
                        self.sample(universe, ts);
                        self.clock.next_sample += self.config.sample_interval_days;
                    }
                    let Some(url) = self.window.as_mut().expect("window").frontier.pop_front()
                    else {
                        break; // frontier exhausted before capacity
                    };
                    if self.routing.is_foreign(url.site) {
                        // Residual foreign entry (only possible in a
                        // window inherited from a pre-routing
                        // checkpoint): drop it without spending a fetch.
                        continue;
                    }
                    self.fetch_one(source, url, hook);
                    self.clock.t += step;
                }
                drop(batch_span.take());
                self.swap(universe, source, hook);
            } else {
                // --- Idle until the next cycle, sampling metrics. ---
                let cycle_end = self.cycle_start + self.config.cycle_days;
                while self.clock.next_sample <= cycle_end {
                    if self.clock.next_sample >= until {
                        return;
                    }
                    let ts = self.clock.next_sample;
                    self.sample(universe, ts);
                    self.clock.next_sample += self.config.sample_interval_days;
                }
                cycle_span = None;
                self.cycle_start += self.config.cycle_days;
                self.clock.t = self.cycle_start;
                self.idle = false;
            }
        }
    }

    /// One batch fetch slot at `self.clock.t`.
    fn fetch_one(&mut self, source: &mut FetchSource<'_>, url: Url, hook: &mut dyn CrawlHook) {
        let t = self.clock.t;
        self.fetch_seq += 1;
        let result = source.fetch(self.fetch_seq, url, t);
        if hook.active() {
            hook.on_fetch(&FetchRecord { seq: self.fetch_seq, url, t, result: result.clone() });
        }
        let window = self.window.as_mut().expect("window in progress");
        match result {
            Ok(outcome) => {
                self.obs.add("fetch_ok_total", 1);
                self.metrics.record_fetch(true);
                window
                    .shadow
                    .insert(url.page, PeriodicPage { crawl_time: t, checksum: outcome.checksum });
                for link in outcome.links {
                    if self.routing.is_foreign(link.site) {
                        // Another shard owns this site: queue the
                        // sighting for the next fleet exchange instead of
                        // entering the local frontier.
                        self.routing.outbox.push(RoutedLink {
                            seq: self.fetch_seq,
                            from: url.page,
                            url: link,
                        });
                        continue;
                    }
                    if window.seen.insert(link.page) {
                        window.frontier.push_back(link);
                    }
                }
            }
            Err(FetchError::NotFound) => {
                self.obs.add("fetch_not_found_total", 1);
                self.metrics.record_fetch(false);
            }
            Err(FetchError::Transient) => {
                self.obs.add("fetch_transient_total", 1);
                self.metrics.record_fetch(false);
            }
            Err(FetchError::RateLimited { .. }) => {
                // Batch crawlers just retry later in the window.
                self.obs.add("fetch_rate_limited_total", 1);
                window.frontier.push_back(url);
            }
        }
    }

    /// Swap the completed shadow in as the current collection, fire the
    /// pass boundary, and enter the idle phase. Pages become *visible* at
    /// the nominal window end (`cycle_start + window_days`), which the
    /// latency metrics account against, even when the batch finished its
    /// fetch budget earlier.
    fn swap(
        &mut self,
        universe: &WebUniverse,
        source: &mut FetchSource<'_>,
        hook: &mut dyn CrawlHook,
    ) {
        let window = self.window.take().expect("window in progress");
        let _pass = self.obs.span(Stage::Pass, LogicalClock::new(self.clock.t, self.fetch_seq));
        self.obs.gauge("queue_depth", window.frontier.len() as f64);
        let swap_time = self.cycle_start + self.config.window_days;
        for (p, snap) in window.shadow.iter() {
            if !self.first_visible.contains(p) {
                self.first_visible.insert(p, swap_time);
                let birth = universe.page(p).birth;
                if birth >= self.run_start {
                    self.metrics.record_admission_latency(swap_time - birth);
                    // The page was "found" when the batch crawl fetched
                    // it; it sat invisible until the swap.
                    self.metrics.record_discovery_latency(swap_time - snap.crawl_time);
                }
            }
        }
        self.current = window.shadow;
        self.cycles += 1;
        self.idle = true;
        if hook.active() {
            // The boundary fires with the swap done and the idle phase
            // entered: a snapshot taken here resumes into pure sampling,
            // never re-runs the swap.
            let t = self.clock.t;
            let source = &*source;
            hook.on_pass_boundary(t, &mut || {
                let mut state = self.export_state();
                state.fetcher = source.fetcher_state();
                state
            });
        }
        if let Some(publisher) = self.publisher.as_mut() {
            let _swap =
                self.obs.span(Stage::ViewSwap, LogicalClock::new(self.clock.t, self.fetch_seq));
            publisher.publish(ViewBoundary {
                t: self.clock.t,
                fetch_seq: self.fetch_seq,
                passes: self.cycles,
                pages: BoundaryPages::Periodic(&self.current),
                metrics: &self.metrics,
            });
        }
    }

    /// Evaluation-only: freshness and mean age of the current collection
    /// against ground truth.
    fn sample(&mut self, universe: &WebUniverse, t: f64) {
        let copies = self.current.iter().map(|(p, snap)| (p, snap.crawl_time));
        self.metrics.sample_freshness(universe, t, copies);
    }
}

impl CrawlEngine for PeriodicCrawler {
    fn kind(&self) -> EngineKind {
        EngineKind::Periodic
    }

    fn started(&self) -> bool {
        self.started
    }

    fn clock(&self) -> EngineClock {
        self.clock
    }

    /// Advance to day `until`. The first call starts the run at day 0;
    /// later calls continue from the frozen clock — mid-window, mid-idle,
    /// wherever it stopped. Unlike the incremental engines this engine
    /// never samples off the sampling grid, so a continued run's metric
    /// rows are exactly those of a single longer run.
    fn drive(
        &mut self,
        universe: &WebUniverse,
        fetcher: &mut dyn Fetcher,
        hook: &mut dyn CrawlHook,
        until: f64,
    ) -> Result<&CrawlMetrics, WebEvoError> {
        check_drive_target(self.started, self.clock.t, until)?;
        if !self.started {
            self.begin_run();
        }
        self.metrics.observe_speed(self.config.peak_speed());
        let _drive = self.obs.span(Stage::Drive, LogicalClock::new(self.clock.t, self.fetch_seq));
        self.advance(universe, &mut FetchSource::Live(fetcher), until, hook);
        Ok(&self.metrics)
    }

    /// Re-apply the write-ahead-log tail after restoring a snapshot. The
    /// BFS window is re-derived deterministically from the restored cycle
    /// state; each logged outcome feeds the live code path and advances
    /// `fetcher` via [`Fetcher::observe_replay`].
    fn replay(
        &mut self,
        universe: &WebUniverse,
        fetcher: &mut dyn Fetcher,
        events: &[WalEvent],
    ) -> Result<(), WebEvoError> {
        if !self.started {
            // Day-0 snapshot (killed before the first cadence snapshot):
            // an empty tail leaves the fresh engine untouched; a non-empty
            // one starts the run and replays it from the top.
            if events.is_empty() {
                return Ok(());
            }
            self.begin_run();
        }
        let mut source = FetchSource::replay(events, self.fetch_seq, Some(fetcher))?;
        self.advance(universe, &mut source, f64::INFINITY, &mut NoopHook);
        Ok(())
    }

    /// Capture the full engine state. The incremental fields of the
    /// shared layout are empty; the cycle/shadow state rides in
    /// [`CrawlerState::periodic`].
    fn export_state(&self) -> CrawlerState {
        CrawlerState {
            engine: EngineKind::Periodic,
            config: EngineConfig::Periodic(self.config.clone()),
            run_start: self.run_start,
            seeded: self.started,
            clock: self.clock,
            fetch_seq: self.fetch_seq,
            collection: Collection::new(self.config.capacity, 1),
            all_urls: crate::allurls::AllUrls::new(),
            queue: Vec::new(),
            queued: Vec::new(),
            admissions: Vec::new(),
            update: UpdateModule::new(
                RevisitStrategy::Uniform,
                EstimatorKind::Ep,
                self.config.cycle_days,
            ),
            ranking_runs: 0,
            ranking_applied: 0,
            rank_pending: false,
            crawl: CrawlModule::default(),
            periodic: Some(PeriodicState {
                current: self.current.clone(),
                first_visible: self.first_visible.clone(),
                cycles: self.cycles,
                cycle_start: self.cycle_start,
                idle: self.idle,
                window: self.window.clone(),
            }),
            metrics: self.metrics.clone(),
            fetcher: None,
            routing: self.routing.clone(),
        }
    }

    fn metrics(&self) -> &CrawlMetrics {
        &self.metrics
    }

    fn collection(&self) -> Option<&Collection> {
        None
    }

    fn collection_len(&self) -> usize {
        self.current.len()
    }

    fn passes(&self) -> u64 {
        self.cycles
    }

    fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    fn set_view_publisher(&mut self, publisher: Box<dyn ViewPublisher>) {
        self.publisher = Some(publisher);
    }

    fn set_scope(&mut self, scope: ShardScope) -> Result<(), WebEvoError> {
        if self.started {
            return Err(WebEvoError::InvalidState(
                "shard scope must be set before the run starts".into(),
            ));
        }
        self.routing.scope = Some(scope);
        Ok(())
    }

    fn routing(&self) -> Option<&RoutingState> {
        Some(&self.routing)
    }

    fn inject_links(&mut self, links: Vec<RoutedLink>) -> Result<RoutedBatch, WebEvoError> {
        if !self.started {
            return Err(WebEvoError::InvalidState(
                "cannot inject routed links before the run starts".into(),
            ));
        }
        let batch = RoutedBatch { seq: self.fetch_seq + 1, t: self.clock.t, links };
        self.apply_routed(batch.clone());
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};

    fn universe() -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(88))
    }

    fn config() -> PeriodicConfig {
        PeriodicConfig {
            capacity: 60,
            cycle_days: 10.0,
            window_days: 2.5,
            sample_interval_days: 0.5,
        }
    }

    fn run(crawler: &mut PeriodicCrawler, u: &WebUniverse, f: &mut SimFetcher, days: f64) {
        crawler.drive(u, f, &mut NoopHook, days).expect("drive succeeds");
    }

    #[test]
    fn cycles_and_swaps() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = PeriodicCrawler::new(config());
        run(&mut crawler, &u, &mut fetcher, 40.0);
        assert_eq!(crawler.cycles(), 4);
        assert!(crawler.current_size() > 40, "size={}", crawler.current_size());
    }

    #[test]
    fn collection_is_empty_before_first_swap() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = PeriodicCrawler::new(config());
        run(&mut crawler, &u, &mut fetcher, 40.0);
        // The first samples (before day 2.5) must show freshness 0 — no
        // current collection exists yet.
        let rows: Vec<(f64, f64)> = crawler.metrics().freshness.rows().collect();
        for &(t, f) in rows.iter().take(4) {
            if t < 2.5 {
                assert_eq!(f, 0.0, "no user-visible collection before the first swap");
            }
        }
        // After warm-up, freshness is positive.
        assert!(crawler.metrics().average_freshness_from(10.0) > 0.3);
    }

    #[test]
    fn peak_speed_exceeds_average() {
        let c = config();
        assert!(c.peak_speed() > c.average_speed() * 3.9);
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = PeriodicCrawler::new(c);
        run(&mut crawler, &u, &mut fetcher, 20.0);
        assert!((crawler.metrics().peak_speed - 24.0).abs() < 1e-9);
    }

    #[test]
    fn freshness_sawtooth_decays_between_swaps() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = PeriodicCrawler::new(config());
        run(&mut crawler, &u, &mut fetcher, 40.0);
        let rows: Vec<(f64, f64)> = crawler.metrics().freshness.rows().collect();
        // Find freshness right after the second swap (t≈12.5) and right
        // before the third (t≈22.5): it must decay.
        let f_after = rows
            .iter()
            .find(|(t, _)| *t >= 13.0)
            .map(|&(_, f)| f)
            .unwrap();
        let f_before = rows
            .iter()
            .find(|(t, _)| *t >= 22.0)
            .map(|&(_, f)| f)
            .unwrap();
        assert!(
            f_after > f_before,
            "sawtooth: after swap {f_after} should beat end of cycle {f_before}"
        );
    }

    #[test]
    fn new_pages_wait_for_next_swap() {
        // Admission latency for the periodic crawler is bounded below by
        // the batch mechanics: nothing becomes visible between swaps.
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = PeriodicCrawler::new(config());
        run(&mut crawler, &u, &mut fetcher, 40.0);
        assert!(crawler.metrics().new_page_latency.count() > 0);
    }

    #[test]
    fn deterministic() {
        let u = universe();
        let run_once = || {
            let mut fetcher = SimFetcher::new(&u);
            let mut crawler = PeriodicCrawler::new(config());
            run(&mut crawler, &u, &mut fetcher, 30.0);
            (crawler.current_size(), crawler.metrics().fetches)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn driving_in_two_legs_matches_one_run() {
        // The periodic engine freezes anywhere — mid-window, mid-idle —
        // and a continued drive retraces the single-run trajectory
        // exactly (its samples always lie on the sampling grid).
        let u = universe();
        let mut f1 = SimFetcher::new(&u);
        let mut split = PeriodicCrawler::new(config());
        run(&mut split, &u, &mut f1, 11.3); // mid-window of cycle 2
        run(&mut split, &u, &mut f1, 27.8); // mid-idle of cycle 3
        run(&mut split, &u, &mut f1, 40.0);

        let mut f2 = SimFetcher::new(&u);
        let mut whole = PeriodicCrawler::new(config());
        run(&mut whole, &u, &mut f2, 40.0);

        assert_eq!(split.metrics().fetches, whole.metrics().fetches);
        assert_eq!(split.cycles(), whole.cycles());
        let rows_a: Vec<(f64, f64)> = split.metrics().freshness.rows().collect();
        let rows_b: Vec<(f64, f64)> = whole.metrics().freshness.rows().collect();
        assert_eq!(rows_a, rows_b, "split drive diverged from one run");
    }

    #[test]
    fn state_roundtrip_mid_window_preserves_continuation() {
        let u = universe();
        let mut f1 = SimFetcher::new(&u);
        let mut original = PeriodicCrawler::new(config());
        run(&mut original, &u, &mut f1, 21.7); // mid-window of cycle 3
        let mut state = original.export_state();
        state.fetcher = webevo_sim::Fetcher::export_state(&f1);
        let (mut restored, fstate) = PeriodicCrawler::from_state(state).expect("restores");
        let mut f2 = SimFetcher::new(&u);
        f2.restore_state(fstate.expect("sim fetcher state persisted"));
        run(&mut original, &u, &mut f1, 35.0);
        run(&mut restored, &u, &mut f2, 35.0);
        assert_eq!(original.metrics().fetches, restored.metrics().fetches);
        let rows_a: Vec<(f64, f64)> = original.metrics().freshness.rows().collect();
        let rows_b: Vec<(f64, f64)> = restored.metrics().freshness.rows().collect();
        assert_eq!(rows_a, rows_b, "restored engine diverged");
    }

    #[test]
    fn from_state_rejects_foreign_states() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = PeriodicCrawler::new(config());
        run(&mut crawler, &u, &mut fetcher, 5.0);
        let mut state = crawler.export_state();
        state.engine = EngineKind::Incremental;
        assert!(matches!(
            PeriodicCrawler::from_state(state),
            Err(WebEvoError::InvalidState(_))
        ));
    }
}
