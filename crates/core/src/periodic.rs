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
use crate::engine::{CrawlBudget, CrawlEngine, FetchSource};
use crate::hooks::{CrawlHook, NoopHook};
use crate::metrics::CrawlMetrics;
use crate::modules::{CrawlModule, EstimatorKind, RevisitStrategy, UpdateModule};
use crate::routing::{RoutedBatch, RoutedLink, WalEvent};
use crate::shell::{announce_boundary, EngineShell};
use crate::state::{CrawlerState, EngineConfig, EngineKind};
use crate::view::BoundaryPages;
use std::collections::VecDeque;
use webevo_obs::{LogicalClock, SpanGuard, Stage};
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
    /// The run state every engine shares. Here `passes` counts completed
    /// shadow swaps, and the routing inbox seeds the next batch window.
    shell: EngineShell,
    cycle_start: f64,
    /// See [`PeriodicState::idle`].
    idle: bool,
    window: Option<BatchWindow>,
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
            shell: EngineShell::default(),
            cycle_start: 0.0,
            idle: false,
            window: None,
        }
    }

    /// Rebuild an engine from a checkpointed state. Returns the engine and
    /// the fetcher state the caller must install into its fetcher before
    /// replaying or resuming.
    pub fn from_state(
        mut state: CrawlerState,
    ) -> Result<(PeriodicCrawler, Option<FetcherState>), WebEvoError> {
        if state.engine != EngineKind::Periodic {
            return Err(WebEvoError::InvalidState(format!(
                "state was written by the {} engine, not the periodic one",
                state.engine
            )));
        }
        let config = state.config.as_periodic()?.clone();
        let periodic = state.periodic.take().ok_or_else(|| {
            WebEvoError::InvalidState("periodic state payload missing from snapshot".into())
        })?;
        let crawler = PeriodicCrawler {
            config,
            current: periodic.current,
            first_visible: periodic.first_visible,
            shell: EngineShell::restore(&mut state, periodic.cycles),
            cycle_start: periodic.cycle_start,
            idle: periodic.idle,
            window: periodic.window,
        };
        Ok((crawler, state.fetcher))
    }

    /// Completed cycles.
    pub fn cycles(&self) -> u64 {
        self.shell.passes
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
            if self.shell.routing.is_foreign(site.id) {
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
        for url in std::mem::take(&mut self.shell.routing.inbox) {
            if window.seen.insert(url.page) {
                window.frontier.push_back(url);
            }
        }
        self.window = Some(window);
    }

    /// Apply one routed-link delivery: after the shell's header, the
    /// delivered URLs queue in the inbox for the next window seed (this
    /// engine can only admit URLs at a window start). Shared by live
    /// injection and WAL replay.
    fn apply_routed(&mut self, batch: RoutedBatch) {
        self.shell.accept_batch(&batch);
        for link in batch.links {
            self.shell.routing.inbox.push(link.url);
        }
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
            if let Some(batch) = source.take_routed(&self.shell) {
                self.apply_routed(batch);
                continue;
            }
            if source.exhausted() {
                return;
            }
            if !self.idle {
                // --- Batch window: build the shadow collection. ---
                if self.shell.clock.t >= until {
                    return;
                }
                if self.window.is_none() {
                    self.seed_window(universe);
                }
                if self.shell.obs.enabled() {
                    let clock = LogicalClock::new(self.shell.clock.t, self.shell.fetch_seq);
                    if cycle_span.is_none() {
                        cycle_span = Some(self.shell.obs.span(Stage::Cycle, clock));
                    }
                    if batch_span.is_none() {
                        batch_span = Some(self.shell.obs.span(Stage::FetchBatch, clock));
                    }
                }
                loop {
                    // A barrier can land mid-window when the batch window
                    // spans the whole cycle; the batch replays here.
                    if let Some(batch) = source.take_routed(&self.shell) {
                        self.apply_routed(batch);
                        continue;
                    }
                    if source.exhausted() {
                        return;
                    }
                    let window = self.window.as_ref().expect("window in progress");
                    if window.shadow.len() >= capacity {
                        break;
                    }
                    if self.shell.clock.t >= until {
                        return;
                    }
                    // Sampling continues during the crawl: users still
                    // query the *current* collection while the shadow
                    // builds (§4).
                    self.sample_grid(universe, self.shell.clock.t);
                    let Some(url) = self.window.as_mut().expect("window").frontier.pop_front()
                    else {
                        break; // frontier exhausted before capacity
                    };
                    if self.shell.routing.is_foreign(url.site) {
                        // Residual foreign entry (only possible in a
                        // window inherited from a pre-routing
                        // checkpoint): drop it without spending a fetch.
                        continue;
                    }
                    self.fetch_one(source, url, hook);
                    self.shell.clock.t += step;
                }
                drop(batch_span.take());
                self.swap(universe, source, hook);
            } else {
                // --- Idle until the next cycle, sampling metrics. ---
                let cycle_end = self.cycle_start + self.config.cycle_days;
                while self.shell.clock.next_sample <= cycle_end {
                    // Stops *before* `until` (a sample at the horizon
                    // belongs to whoever resumes), so this takes the grid
                    // one step at a time: exactly the sample due at `ts`.
                    let ts = self.shell.clock.next_sample;
                    if ts >= until {
                        return;
                    }
                    self.sample_grid(universe, ts);
                }
                cycle_span = None;
                self.cycle_start += self.config.cycle_days;
                self.shell.clock.t = self.cycle_start;
                self.idle = false;
            }
        }
    }

    /// One batch fetch slot at the shell's clock.
    fn fetch_one(&mut self, source: &mut FetchSource<'_>, url: Url, hook: &mut dyn CrawlHook) {
        let t = self.shell.clock.t;
        self.shell.fetch_seq += 1;
        let seq = self.shell.fetch_seq;
        let result = source.fetch(seq, url, t);
        self.shell.observe_fetch(hook, seq, url, t, &result);
        let window = self.window.as_mut().expect("window in progress");
        match result {
            Ok(outcome) => {
                window
                    .shadow
                    .insert(url.page, PeriodicPage { crawl_time: t, checksum: outcome.checksum });
                for link in outcome.links {
                    if !self.shell.divert_foreign(seq, url.page, link)
                        && window.seen.insert(link.page)
                    {
                        window.frontier.push_back(link);
                    }
                }
            }
            // Batch crawlers just retry later in the window.
            Err(FetchError::RateLimited { .. }) => window.frontier.push_back(url),
            Err(FetchError::NotFound | FetchError::Transient) => {}
        }
    }

    /// Swap the completed shadow in as the current collection, fire the
    /// pass boundary, and enter the idle phase. Pages become *visible* at
    /// the nominal window end (`cycle_start + window_days`), which the
    /// latency metrics account against, even when the batch finished its
    /// fetch budget earlier.
    fn swap(&mut self, universe: &WebUniverse, source: &FetchSource<'_>, hook: &mut dyn CrawlHook) {
        let window = self.window.take().expect("window in progress");
        let _pass = self.shell.open_pass(window.frontier.len());
        let swap_time = self.cycle_start + self.config.window_days;
        self.shell.truth.clear();
        for (p, snap) in window.shadow.iter() {
            self.shell.truth.store(universe, p, snap.crawl_time);
            if !self.first_visible.contains(p) {
                self.first_visible.insert(p, swap_time);
                let birth = universe.page(p).birth;
                if birth >= self.shell.run_start {
                    self.shell.metrics.record_admission_latency(swap_time - birth);
                    // The page was "found" when the batch crawl fetched
                    // it; it sat invisible until the swap.
                    self.shell.metrics.record_discovery_latency(swap_time - snap.crawl_time);
                }
            }
        }
        self.current = window.shadow;
        self.shell.passes += 1;
        // The boundary fires with the swap done and the idle phase
        // entered: a snapshot taken here resumes into pure sampling,
        // never re-runs the swap.
        self.idle = true;
        announce_boundary(&*self, hook, || source.fetcher_state());
        self.shell.publish(BoundaryPages::Periodic(&self.current));
    }

    /// Emit every pending grid sample of the current collection up to and
    /// including `through`.
    fn sample_grid(&mut self, universe: &WebUniverse, through: f64) {
        let current = &self.current;
        self.shell.sample_grid(universe, through, self.config.sample_interval_days, || {
            current.iter().map(|(p, snap)| (p, snap.crawl_time))
        });
    }
}

impl CrawlEngine for PeriodicCrawler {
    fn shell(&self) -> &EngineShell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut EngineShell {
        &mut self.shell
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Periodic
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
        let (fresh, _drive) = self.shell.begin_drive(until, self.config.peak_speed())?;
        if fresh {
            // The engine's share of a run the shell just started: anchor
            // the cycle grid at the frozen clock. The BFS frontier seeds
            // lazily per cycle via `seed_window`.
            self.cycle_start = self.shell.clock.t;
        }
        self.advance(universe, &mut FetchSource::Live(fetcher), until, hook);
        Ok(&self.shell.metrics)
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
        let Some(fresh) = self.shell.begin_replay(events) else {
            return Ok(());
        };
        if fresh {
            self.cycle_start = self.shell.clock.t; // as `drive` starts a run
        }
        let mut source = FetchSource::replay(events, self.shell.fetch_seq, Some(fetcher))?;
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
            run_start: self.shell.run_start,
            seeded: self.shell.started,
            clock: self.shell.clock,
            fetch_seq: self.shell.fetch_seq,
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
                cycles: self.shell.passes,
                cycle_start: self.cycle_start,
                idle: self.idle,
                window: self.window.clone(),
            }),
            metrics: self.shell.metrics.clone(),
            fetcher: None,
            routing: self.shell.routing.clone(),
        }
    }

    fn collection(&self) -> Option<&Collection> {
        None
    }

    fn collection_len(&self) -> usize {
        self.current.len()
    }

    fn inject_links(&mut self, links: Vec<RoutedLink>) -> Result<RoutedBatch, WebEvoError> {
        let batch = self.shell.stamp_batch(links)?;
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
        assert!(crawler.current.len() > 40, "size={}", crawler.current.len());
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
            (crawler.current.len(), crawler.metrics().fetches)
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
