//! The incremental crawler engine — Algorithm 5.1 / Figures 11–12 made
//! concrete, deterministic, and instrumented. One engine, two executors.
//!
//! The engine is a discrete-event loop over *fetch slots*: a steady crawler
//! with budget `crawl_rate_per_day` performs one fetch every
//! `1/crawl_rate_per_day` days, continuously (§4's steady mode — low peak
//! load). Each iteration of the loop:
//!
//! 1. samples the metrics on the sampling grid and, when the ranking
//!    period elapsed, crosses a *pass boundary*: the RankingModule's
//!    outcome and the UpdateModule's global reallocation are applied (the
//!    periodic, off-hot-path refinement of §5.3),
//! 2. pops a batch of the most urgent URLs off `CollUrls`, never past the
//!    next boundary,
//! 3. crawls them and, in slot order, updates the Collection / AllUrls,
//!    estimates each page's change rate, and pushes it back with its next
//!    due time.
//!
//! §5.3: *"multiple CrawlModules may run in parallel"* and *"separating the
//! update decision (UpdateModule) from the refinement decision
//! (RankingModule) is crucial for performance … the crawler cannot
//! recompute the importance of pages for every page crawled."* Worker
//! parallelism is a deployment property of that one design, not a second
//! crawler: [`EngineKind`] selects the executor, and nothing else varies.
//!
//! * [`EngineKind::Incremental`] ⇒ **inline** ([`IncrementalCrawler`]):
//!   one slot per batch; the RankingModule runs in place at the boundary.
//! * [`EngineKind::Threaded`] ⇒ **pool** ([`ThreadedCrawler`]): up to
//!   `workers` slots per batch — the fetches in flight between two state
//!   updates, which is what parallel CrawlModules mean for the schedule —
//!   while ranking is one scoped solve per pass, joined at the next
//!   boundary: the engine's RankingModule is lent to it together with the
//!   rank input built at the boundary (the flat link structure plus each
//!   candidate's in-collection in-link sources, not copies of the whole
//!   `Collection` and `AllUrls`) — the crawl hot path never waits for
//!   PageRank.
//!
//! Both executors fetch through the caller's [`Fetcher`], on the
//! coordinating thread, in slot order.
//!
//! The pool is as **deterministic** as the inline executor: every slot of
//! a batch is scheduled before any is fetched, and the batch is fetched
//! and applied in slot order; a ranking request issued at one boundary
//! has its outcome applied at the *next* (or at the drive's end), not
//! whenever its solve happens to finish. That is what makes both
//! kinds checkpointable: a
//! [`CrawlerState`] snapshot plus the write-ahead-log tail reconstructs
//! the pre-crash engine bit-for-bit through the same slot loop
//! (`tests/determinism.rs`, `tests/trajectory_golden.rs`).
//!
//! Ground truth (`WebUniverse`) is used **only** by the metrics sampler;
//! every crawl decision flows from checksums and link observations, as in
//! a real deployment.
//!
//! The engine is driven through the [`CrawlEngine`] trait
//! ([`CrawlEngine::drive`] starts and continues runs); applications go
//! through the `CrawlSession` builder in `webevo-store`.

use crate::allurls::AllUrls;
use crate::collection::Collection;
use crate::engine::{CrawlBudget, CrawlEngine, FetchSource};
use crate::hooks::{CrawlHook, NoopHook};
use crate::metrics::CrawlMetrics;
use crate::modules::{
    EstimatorKind, RankInput, RankingConfig, RankingModule, RankingOutcome, RevisitStrategy,
    UpdateModule,
};
use crate::routing::{RoutedBatch, RoutedLink, WalEvent};
use crate::shell::{announce_boundary, EngineShell};
use crate::state::{entries_to_queue, queue_to_entries, CrawlerState, EngineConfig, EngineKind};
use crate::view::BoundaryPages;
use std::marker::PhantomData;
use std::thread::{Scope, ScopedJoinHandle};
use webevo_obs::{LogicalClock, SpanGuard, Stage};
use webevo_schedule::RevisitQueue;
use webevo_sim::{FetchError, FetchOutcome, Fetcher, FetcherState, WebUniverse};
use webevo_types::{wire_struct, DenseSet, PageId, Url, WebEvoError};

/// Configuration of the incremental crawler.
#[derive(Clone, Debug)]
pub struct IncrementalConfig {
    /// Collection capacity in pages (§5.2's fixed size).
    pub capacity: usize,
    /// Crawl budget in fetches per day (steady).
    pub crawl_rate_per_day: f64,
    /// Period of the RankingModule pass and the revisit reallocation.
    pub ranking_interval_days: f64,
    /// Revisit strategy (the §4.3 design axis).
    pub revisit: RevisitStrategy,
    /// Change-frequency estimator (§5.3).
    pub estimator: EstimatorKind,
    /// Observations retained per page history.
    pub history_window: usize,
    /// Metrics sampling period in days.
    pub sample_interval_days: f64,
    /// RankingModule tuning.
    pub ranking: RankingConfig,
}

impl IncrementalConfig {
    /// The paper's Table 2 budget (monthly revisit cycle, daily ranking),
    /// derived from [`CrawlBudget::paper_monthly`] — the one place that
    /// budget is defined.
    pub fn monthly(capacity: usize) -> IncrementalConfig {
        CrawlBudget::paper_monthly(capacity).incremental_config()
    }
}

wire_struct!(IncrementalConfig {
    capacity, crawl_rate_per_day, ranking_interval_days, revisit, estimator, history_window,
    sample_interval_days, ranking
});

/// One scheduled fetch slot. `seq` is assigned when the slot is scheduled,
/// and a batch is built, fetched and applied in `seq` order.
#[derive(Clone, Copy)]
struct Slot {
    seq: u64,
    url: Url,
    t: f64,
}

type FetchResult = Result<FetchOutcome, FetchError>;

/// The `(page, day it was crawled)` pairs the freshness sampler reads.
fn copies(collection: &Collection) -> impl Iterator<Item = (PageId, f64)> + '_ {
    collection.iter().map(|(p, stored)| (p, stored.last_crawl))
}

/// How batches of slots are fetched and where ranking runs — derived from
/// [`EngineKind`] and from nothing else.
#[derive(Clone, Copy)]
enum Executor {
    /// One slot per batch; ranking in place.
    Inline,
    /// Up to `workers` slots per batch, all scheduled before any result is
    /// applied; ranking deferred by one pass: one scoped solve per pass,
    /// joined at the next boundary.
    Pool { workers: usize },
}

/// A ranking request: the input built at a boundary, stamped with that
/// boundary's logical clock for the solve's span.
type RankRequest = (LogicalClock, RankInput);

/// A live pool's solve in flight: it hands the lent RankingModule back
/// with the outcome.
type Solve<'s> = ScopedJoinHandle<'s, (RankingModule, RankingOutcome)>;

/// What a drive or a replay runs the slot loop against.
struct Backend<'a, 's> {
    /// The caller's fetcher (live) or the write-ahead log (replay of
    /// either executor, where deferred ranking is solved in place).
    source: FetchSource<'a>,
    /// A live pool's thread scope and the solve in flight on it; `None`
    /// inline and in replay.
    pool: Option<(&'s Scope<'s, 'a>, Option<Solve<'s>>)>,
}

/// Marker of the inline executor; see [`IncrementalCrawler`].
pub struct Inline;

/// Marker of the pool executor; see [`ThreadedCrawler`].
pub struct Pool;

/// The incremental engine with the inline executor
/// ([`EngineKind::Incremental`]; the left-hand column of Figure 10).
pub type IncrementalCrawler = IncrementalEngine<Inline>;

/// The incremental engine with the pool executor
/// ([`EngineKind::Threaded`]): Figure 12 with real concurrency.
pub type ThreadedCrawler = IncrementalEngine<Pool>;

/// The incremental crawler. The type parameter only names which executor
/// the value was constructed with, so that each alias has its own `new`
/// and `from_state`; all behaviour is shared.
pub struct IncrementalEngine<X> {
    config: IncrementalConfig,
    executor: Executor,
    collection: Collection,
    all_urls: AllUrls,
    queue: RevisitQueue,
    /// The pages `queue` holds (each at most once): the dedup guard, not
    /// persisted but rebuilt from the queue on restore.
    queued: DenseSet,
    /// Pages the RankingModule proposed for admission; the eviction they
    /// pay for happens only when their crawl *succeeds* (Algorithm 5.1
    /// discards at crawl time, steps [7]-[9] — evicting at proposal time
    /// would leak slots whenever a candidate turns out dead).
    admissions: DenseSet,
    update: UpdateModule,
    /// The one RankingModule. It solves in place inline and in replay; a
    /// live pool lends it to one scoped solve per pass and gets it back
    /// at the join at the next boundary.
    ranking: RankingModule,
    /// The run state every engine shares. Here `passes` counts ranking
    /// outcomes applied, and shard scoping is enforced where slots are
    /// scheduled, so no slot fetches a foreign URL and the pool composes
    /// with fleet sharding.
    shell: EngineShell,
    /// Pool only. True once the first pass boundary has been crossed: a
    /// ranking request derived from the engine state at the most recent
    /// boundary is outstanding. Checkpoints persist the flag; the request
    /// itself is rebuilt from the snapshot (which is taken at exactly the
    /// state the request was built from).
    rank_pending: bool,
    /// Pool only. The outstanding ranking request while no solve of it is
    /// in flight: after `from_state` and during WAL replay. A live drive
    /// starts its solve first thing.
    unsent_rank_request: Option<RankRequest>,
    _executor: PhantomData<X>,
}

impl IncrementalEngine<Inline> {
    /// Create a crawler with one fetch slot in flight.
    pub fn new(config: IncrementalConfig) -> IncrementalCrawler {
        Self::build(config, Executor::Inline)
    }

    /// Rebuild an engine from a checkpointed state. Returns the engine and
    /// the fetcher state the caller must install into its fetcher (via
    /// e.g. `SimFetcher::restore_state`) before replaying or resuming.
    pub fn from_state(
        state: CrawlerState,
    ) -> Result<(IncrementalCrawler, Option<FetcherState>), WebEvoError> {
        if state.engine != EngineKind::Incremental {
            return Err(WebEvoError::InvalidState(format!(
                "state was written by the {} engine, not the incremental one",
                state.engine
            )));
        }
        Self::rebuild(state, Executor::Inline)
    }
}

impl IncrementalEngine<Pool> {
    /// Create with `workers` fetch slots in flight between two state
    /// updates.
    pub fn new(config: IncrementalConfig, workers: usize) -> ThreadedCrawler {
        assert!(workers >= 1);
        Self::build(config, Executor::Pool { workers })
    }

    /// Rebuild an engine from a checkpointed state; see
    /// [`IncrementalCrawler::from_state`].
    pub fn from_state(
        state: CrawlerState,
    ) -> Result<(ThreadedCrawler, Option<FetcherState>), WebEvoError> {
        let EngineKind::Threaded { workers } = state.engine else {
            return Err(WebEvoError::InvalidState(format!(
                "state was written by the {} engine, not the threaded one",
                state.engine
            )));
        };
        if workers == 0 {
            return Err(WebEvoError::InvalidState(
                "threaded state must carry a positive worker count".into(),
            ));
        }
        let rank_pending = state.rank_pending;
        let (mut crawler, fetcher) = Self::rebuild(state, Executor::Pool { workers })?;
        if rank_pending {
            // Snapshots are taken at pass boundaries, after the previous
            // outcome was applied and before the next request was issued:
            // the restored state *is* the outstanding request's base.
            crawler.rank_pending = true;
            let input = RankInput::build(&crawler.collection, &crawler.all_urls);
            crawler.unsent_rank_request = Some((crawler.shell.stamp(), input));
        }
        Ok((crawler, fetcher))
    }
}

impl<X> IncrementalEngine<X> {
    fn build(config: IncrementalConfig, executor: Executor) -> Self {
        assert!(config.crawl_rate_per_day > 0.0);
        assert!(config.ranking_interval_days > 0.0);
        assert!(config.sample_interval_days > 0.0);
        let default_interval = config.capacity as f64 / config.crawl_rate_per_day;
        IncrementalEngine {
            executor,
            collection: Collection::new(config.capacity, config.history_window),
            all_urls: AllUrls::new(),
            queue: RevisitQueue::new(),
            queued: DenseSet::new(),
            admissions: DenseSet::new(),
            update: UpdateModule::new(config.revisit, config.estimator, default_interval),
            ranking: RankingModule::new(config.ranking.clone()),
            shell: EngineShell::default(),
            rank_pending: false,
            unsent_rank_request: None,
            _executor: PhantomData,
            config,
        }
    }

    fn rebuild(
        mut state: CrawlerState,
        executor: Executor,
    ) -> Result<(Self, Option<FetcherState>), WebEvoError> {
        let config = state.config.as_incremental()?.clone();
        let engine = IncrementalEngine {
            shell: EngineShell::restore(&mut state),
            executor,
            collection: state.collection,
            all_urls: state.all_urls,
            queue: entries_to_queue(&state.queue),
            queued: state.queue.iter().map(|e| e.url.page).collect(),
            admissions: state.admissions.into_iter().collect(),
            update: state.update,
            ranking: RankingModule::new(config.ranking.clone()),
            rank_pending: false,
            unsent_rank_request: None,
            _executor: PhantomData,
            config,
        };
        Ok((engine, state.fetcher))
    }

    /// All discovered URLs (for inspection).
    pub fn all_urls(&self) -> &AllUrls {
        &self.all_urls
    }

    fn enqueue(&mut self, url: Url, due: f64) {
        if self.queued.insert(url.page) {
            self.queue.push(url, due);
        }
    }

    fn enqueue_front(&mut self, url: Url) {
        if self.queued.insert(url.page) {
            self.queue.push_front(url);
        }
    }

    /// Enter a sighted link into the frontier. While the collection has
    /// room, brand-new URLs jump the queue (§5.3: the new page "is placed
    /// on the top of CollUrls, so that the UpdateModule can crawl the page
    /// immediately"). Once full, admission is the RankingModule's call.
    fn admit_link(&mut self, url: Url, from: PageId, t: f64) {
        let first_sighting = !self.all_urls.contains(url);
        self.all_urls.add_in_link(url, from, t);
        if !self.collection.is_full() && !self.collection.contains(url.page) {
            if first_sighting {
                self.enqueue_front(url);
            } else {
                self.enqueue(url, t);
            }
        }
    }

    /// The engine's share of a run the shell just started — in a drive, or
    /// in the replay of a day-0 snapshot (a run killed before its first
    /// cadence snapshot recovers from the initial snapshot that
    /// `webevo-store`'s `Checkpointer` writes at creation, plus the whole
    /// WAL): anchor the ranking cadence at the frozen clock and inject the
    /// seed URLs (§1's "initial set of URLs, called seed URLs").
    fn begin_run(&mut self, universe: &WebUniverse) {
        let start = self.shell.clock.t;
        self.shell.clock.next_ranking = start + self.config.ranking_interval_days;
        for site in universe.sites() {
            // A scoped (fleet-shard) engine seeds only the sites it owns;
            // foreign sites are other shards' seeds.
            if self.shell.routing.is_foreign(site.id) {
                continue;
            }
            if let Some(root) = universe.occupant(site.id, 0, start) {
                let url = Url::new(site.id, root);
                self.all_urls.discover(url, start);
                self.enqueue(url, start);
            }
        }
    }

    /// Apply one routed-link delivery: after the shell's header, each
    /// link enters `AllUrls` (and the frontier, collection permitting)
    /// exactly as a locally discovered link would. Shared by live
    /// injection (on the frozen engine between drives) and WAL replay, so
    /// a replayed shard is bit-identical to the live one.
    fn apply_routed(&mut self, batch: RoutedBatch) {
        self.shell.accept_batch(&batch);
        for link in batch.links {
            self.admit_link(link.url, link.from, batch.t);
        }
    }

    /// The discrete-event loop over fetch slots, shared by both executors,
    /// live and in WAL replay. Stops at `end`, or — for replay sources —
    /// at log exhaustion; the exhaustion check sits *before* the boundary
    /// handlers so a resumed run re-enters at exactly the point the
    /// interrupted one left, and the `end` check before them because
    /// boundaries past `end` belong to whoever resumes the run.
    fn advance(
        &mut self,
        universe: &WebUniverse,
        backend: &mut Backend<'_, '_>,
        end: f64,
        hook: &mut dyn CrawlHook,
    ) -> Result<(), WebEvoError> {
        let step = 1.0 / self.config.crawl_rate_per_day;
        let width = match self.executor {
            Executor::Inline => 1,
            Executor::Pool { workers } => workers,
        };
        let mut batch: Vec<Slot> = Vec::with_capacity(width);
        // The open fetch-batch span, started at the first batch after a
        // boundary and closed (dropped) at the next one — so the trace
        // alternates fetch_batch / pass under the drive span.
        let mut fetch_span: Option<SpanGuard> = None;
        while self.shell.clock.t < end {
            // Routed batches re-inject before anything else: live
            // injection happens before the boundary handlers of the slot
            // the clock froze on.
            if let Some(routed) = backend.source.take_routed(&self.shell) {
                // A routed record marks the end of a live drive call at
                // the exchange barrier — the ranking-cadence instant the
                // coordinator drove to, which the frozen clock has just
                // overshot. Reconstruct that drive's closing work (not a
                // sample at the clock, which belongs to no live row) so
                // the replayed state matches the interrupted one.
                let barrier =
                    (self.shell.routing.exchanges + 1) as f64 * self.config.ranking_interval_days;
                fetch_span = None;
                self.finish_drive(universe, backend, barrier)?;
                self.apply_routed(routed);
                continue;
            }
            if backend.source.exhausted() {
                break;
            }
            let t = self.shell.clock.t;
            self.sample_grid(universe, t);
            if t >= self.shell.clock.next_ranking {
                fetch_span = None;
                self.pass_boundary(backend, hook)?;
            }
            if self.shell.obs.enabled() && fetch_span.is_none() && !self.queue.is_empty() {
                let clock = LogicalClock::new(t, self.shell.fetch_seq);
                fetch_span = Some(self.shell.obs.span(Stage::FetchBatch, clock));
            }
            // Schedule one batch: at most `width` slots. The slot at `t`
            // always runs; later ones only while they stay short of the
            // next boundary, and in replay only as far as the log has
            // outcomes for them.
            let clock = self.shell.clock;
            let horizon = clock.next_sample.min(clock.next_ranking).min(end);
            while batch.len() < width
                && (self.shell.clock.t == t || self.shell.clock.t < horizon)
                && backend.source.has_fetch_at(batch.len())
            {
                let Some(visit) = self.queue.pop() else { break };
                self.queued.remove(visit.url.page);
                // A foreign entry (only possible in a frontier inherited
                // from a pre-routing checkpoint) burns its slot without
                // spending a fetch or a sequence number: routed links, not
                // fetches, cross shard boundaries.
                if !self.shell.routing.is_foreign(visit.url.site) {
                    self.shell.fetch_seq += 1;
                    let seq = self.shell.fetch_seq;
                    batch.push(Slot { seq, url: visit.url, t: self.shell.clock.t });
                }
                self.shell.clock.t += step;
            }
            if self.shell.clock.t == t {
                // Nothing to crawl yet (collection empty and no
                // discoveries): burn the slot.
                self.shell.clock.t += step;
            }
            self.execute(universe, backend, &mut batch, hook);
        }
        Ok(())
    }

    /// Fetch a batch of scheduled slots and apply each result, in slot
    /// order. Every slot of the batch was scheduled before this runs, so a
    /// pool's batch of `workers` slots is the schedule that many parallel
    /// fetches would follow; the fetches themselves run one after another
    /// on this thread, so a stateful fetcher (politeness clocks, failure
    /// injection) sees one sequence of attempts, live and in replay, under
    /// either executor.
    fn execute(
        &mut self,
        universe: &WebUniverse,
        backend: &mut Backend<'_, '_>,
        batch: &mut Vec<Slot>,
        hook: &mut dyn CrawlHook,
    ) {
        for slot in batch.drain(..) {
            let result = backend.source.fetch(slot.seq, slot.url, slot.t);
            self.apply_result(universe, slot, result, hook);
        }
    }

    /// Apply one fetch slot's result.
    fn apply_result(
        &mut self,
        universe: &WebUniverse,
        slot: Slot,
        result: FetchResult,
        hook: &mut dyn CrawlHook,
    ) {
        let Slot { seq, url, t } = slot;
        self.shell.observe_fetch(hook, seq, url, t, &result);
        match result {
            Ok(FetchOutcome { checksum, links, .. }) => {
                if self.collection.contains(url.page) {
                    self.collection.update(url.page, checksum, links, t);
                } else {
                    let admitted = self.admissions.remove(url.page);
                    if self.collection.is_full() {
                        if !admitted {
                            // A stale growth-phase entry: the collection
                            // filled up since it was queued. Drop it; the
                            // RankingModule decides admissions now.
                            return;
                        }
                        // Algorithm 5.1 steps [7]-[8]: make room by
                        // discarding the least-important page, now that the
                        // replacement is in hand.
                        if let Some(victim) = self.collection.least_important() {
                            if let Some(stored) = self.collection.discard(victim) {
                                self.queue.remove(stored.url);
                                self.queued.remove(victim);
                                self.update.forget(victim);
                                self.shell.truth.remove(victim);
                            }
                        }
                    }
                    self.collection.save(url, checksum, links, t, self.update.initial_posterior());
                    let birth = universe.page(url.page).birth;
                    if birth >= self.shell.run_start {
                        // Only pages born during the run measure "how fast
                        // do *new* pages reach users"; initial-fill pages
                        // would just measure the warm-up.
                        self.shell.metrics.record_admission_latency(t - birth);
                        let found = self.all_urls.info(url).map(|i| i.discovered).unwrap_or(t);
                        self.shell.metrics.record_discovery_latency(t - found);
                    }
                }
                // The page and the events the fetch just read are in cache.
                self.shell.truth.store(universe, url.page, t);
                // Forward discovered URLs to AllUrls (Algorithm 5.1 steps
                // [11]-[12]) with in-link evidence, after the store, so a
                // self-link sees its page stored. The stored copy owns the
                // fetched links; they are lent out meanwhile, since
                // admission never reads a stored page's links.
                let links = self
                    .collection
                    .get_mut(url.page)
                    .map(|stored| std::mem::take(&mut stored.links))
                    .unwrap_or_default();
                for &link in &links {
                    if !self.shell.divert_foreign(seq, url.page, link) {
                        self.admit_link(link, url.page, t);
                    }
                }
                if let Some(stored) = self.collection.get_mut(url.page) {
                    stored.links = links;
                }
                self.enqueue(url, self.update.next_due(url.page, t));
            }
            Err(FetchError::NotFound) => {
                self.all_urls.mark_dead(url, t);
                self.admissions.remove(url.page);
                if self.collection.discard(url.page).is_some() {
                    self.update.forget(url.page);
                    self.shell.truth.remove(url.page);
                }
                // The freed slot is refilled by the next ranking pass.
            }
            // Retry with a small backoff.
            Err(FetchError::Transient) => self.enqueue(url, t + 0.25),
            Err(FetchError::RateLimited { retry_at }) => self.enqueue(url, retry_at.max(t + 0.01)),
        }
    }

    /// One pass boundary at the current slot: apply a ranking outcome, let
    /// the hook and the view publisher observe the quiescent engine, and
    /// (pool) issue the next ranking request.
    fn pass_boundary(
        &mut self,
        backend: &mut Backend<'_, '_>,
        hook: &mut dyn CrawlHook,
    ) -> Result<(), WebEvoError> {
        let _pass = self.shell.open_pass(self.queue.len());
        match self.executor {
            Executor::Inline => {
                let input = self.build_rank_input();
                let outcome = {
                    let _solve = self.shell.span(Stage::RankSolve);
                    self.ranking.solve(input)
                };
                self.apply_ranking(outcome);
            }
            Executor::Pool { .. } => {
                // The outcome of the request issued one interval ago lands
                // here — a fixed application point, not "whenever the
                // solve finishes", so replay can reproduce it. Waiting
                // only at the pass boundary keeps ranking off the fetch
                // hot path, as §5.3 prescribes.
                if let Some(outcome) = self.take_ranking(backend)? {
                    self.apply_ranking(outcome);
                }
                self.rank_pending = true;
            }
        }
        // Advance the clock *before* the hook: a snapshot must record this
        // pass as done, or the restored engine would run the boundary
        // twice.
        self.shell.clock.next_ranking += self.config.ranking_interval_days;
        announce_boundary(&*self, hook, || backend.source.fetcher_state());
        self.shell
            .publish(BoundaryPages::Stored { collection: &self.collection, update: &self.update });
        if let Executor::Pool { .. } = self.executor {
            let req = (self.shell.stamp(), self.build_rank_input());
            self.issue_ranking(backend, req);
        }
        Ok(())
    }

    /// The ranking pass's input, built from the engine as it stands — at a
    /// pass boundary, on the crawl thread, for either executor.
    fn build_rank_input(&self) -> RankInput {
        let _build = self.shell.span(Stage::RankBuild);
        RankInput::build(&self.collection, &self.all_urls)
    }

    /// Start the solve of a deferred ranking request: on a live pool's
    /// scope, under a `rank_solve` span stamped with the issuing
    /// boundary's clock, with the RankingModule lent to it until
    /// [`Self::take_ranking`] joins it; otherwise keep the request for
    /// that join point to solve in place.
    fn issue_ranking(&mut self, backend: &mut Backend<'_, '_>, (clock, input): RankRequest) {
        let Some((scope, solve)) = &mut backend.pool else {
            self.unsent_rank_request = Some((clock, input));
            return;
        };
        let mut ranking = std::mem::take(&mut self.ranking);
        let obs = self.shell.obs.clone();
        *solve = Some(scope.spawn(move || {
            let outcome = {
                let _solve = obs.span(Stage::RankSolve, clock);
                ranking.solve(input)
            };
            (ranking, outcome)
        }));
    }

    /// The outcome of the outstanding deferred ranking request, if there
    /// is one: joined from a live pool's solve, which hands the
    /// RankingModule back, and solved in place otherwise. A solve that
    /// panicked is a typed error; the module went down with its thread.
    fn take_ranking(
        &mut self,
        backend: &mut Backend<'_, '_>,
    ) -> Result<Option<RankingOutcome>, WebEvoError> {
        if let Some(solve) = backend.pool.as_mut().and_then(|(_, solve)| solve.take()) {
            let (ranking, outcome) = solve.join().map_err(|_| {
                WebEvoError::InvalidState(
                    "the pool's deferred ranking solve panicked; the engine lost its \
                     RankingModule and must be resumed from its checkpoint"
                        .into(),
                )
            })?;
            self.ranking = ranking;
            return Ok(Some(outcome));
        }
        Ok(self.unsent_rank_request.take().map(|(_, input)| self.ranking.solve(input)))
    }

    /// Periodic refinement: importance write-back, replacement proposals,
    /// revisit reallocation.
    ///
    /// Replacement proposals only *schedule* the candidate (at the queue
    /// front, per §5.3); the matching eviction happens when the candidate's
    /// crawl succeeds, so dead candidates never cost a slot.
    fn apply_ranking(&mut self, outcome: RankingOutcome) {
        let RankingOutcome { importance, replacements, iterations, links } = outcome;
        self.shell.passes += 1;
        self.shell.obs.add("pagerank_iterations_total", iterations as u64);
        self.shell.obs.add("pagerank_link_iterations_total", (iterations * links) as u64);
        for (p, importance) in importance {
            if let Some(stored) = self.collection.get_mut(p) {
                stored.importance = importance;
            }
        }
        for (_victim, admit) in replacements {
            // A deferred outcome's snapshot is one interval stale: the
            // admit may already be stored. (Never so when ranking ran in
            // place — its candidates exclude the collection.)
            if self.collection.contains(admit.page) {
                continue;
            }
            self.admissions.insert(admit.page);
            self.enqueue_front(admit);
        }
        let _reallocate = self.shell.span(Stage::Reallocate);
        self.update.reallocate(&self.collection, self.config.crawl_rate_per_day);
    }

    /// Close a drive that ends at `until`: a deferred ranking outcome still
    /// outstanding is applied rather than discarded (the application point
    /// — the drive's end — is deterministic), then the samples are flushed.
    /// Live drives end here; replay reconstructs the same at every routed
    /// record, the only place a drive ends mid-log. Taking and applying
    /// the outcome is the step a pool takes at every boundary, so it runs
    /// under a `pass` span too.
    fn finish_drive(
        &mut self,
        universe: &WebUniverse,
        backend: &mut Backend<'_, '_>,
        until: f64,
    ) -> Result<(), WebEvoError> {
        let pass = self.rank_pending.then(|| self.shell.span(Stage::Pass));
        if let Some(outcome) = self.take_ranking(backend)? {
            self.apply_ranking(outcome);
            // The outstanding request is consumed: a state exported now
            // must not re-issue one.
            self.rank_pending = false;
        }
        drop(pass);
        self.flush_samples(universe, until);
        Ok(())
    }

    /// Emit every pending grid sample of the collection up to and
    /// including `through`.
    fn sample_grid(&mut self, universe: &WebUniverse, through: f64) {
        let collection = &self.collection;
        let interval = self.config.sample_interval_days;
        self.shell.sample_grid(universe, through, interval, || copies(collection));
    }

    /// Emit every pending grid sample up to `until`, then the closing
    /// sample at `until` itself (a no-op when `until` sits on the grid —
    /// [`CrawlMetrics::sample`] dedups the identical instant). Every
    /// drive boundary flushes through here, so the sampled instants are a
    /// pure function of the drive horizons and the sampling cadence —
    /// never of the crawl rate, whose slot times vary per fleet shard.
    fn flush_samples(&mut self, universe: &WebUniverse, until: f64) {
        self.sample_grid(universe, until);
        self.shell.sample(universe, until, copies(&self.collection));
    }
}

impl<X> CrawlEngine for IncrementalEngine<X> {
    fn shell(&self) -> &EngineShell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut EngineShell {
        &mut self.shell
    }

    fn kind(&self) -> EngineKind {
        match self.executor {
            Executor::Inline => EngineKind::Incremental,
            Executor::Pool { workers } => EngineKind::Threaded { workers },
        }
    }

    /// Advance to day `until`. The first call starts the run at day 0 and
    /// injects the seed URLs (§1's "initial set of URLs, called seed
    /// URLs"); later calls continue from the frozen clock — including
    /// after a checkpoint restore, where the continuation is
    /// bit-identical to a never-interrupted run (`tests/determinism.rs`).
    ///
    /// Each call closes with a metrics sample at `until` and (pool)
    /// applies the outstanding ranking outcome. When `until` sits on the
    /// sampling grid — as every fleet exchange barrier does — the closing
    /// sample collapses into the grid sample at the same instant
    /// (`CrawlMetrics::sample` dedups identical instants), so segmented
    /// drives, single long drives, and the checkpoint-recovery path
    /// (restore + replay + drive) all produce the same series; a
    /// continued in-memory run carries one extra row only at an off-grid
    /// intermediate horizon, and a pool's early ranking application is an
    /// artifact a single longer run would not have at that point (the
    /// recovery path has neither: snapshots are captured at pass
    /// boundaries).
    ///
    /// A pool whose ranking solve panicked returns
    /// [`WebEvoError::InvalidState`]. The engine's RankingModule went down
    /// with that solve, so the engine must not be driven again: resume
    /// from the checkpoint instead.
    fn drive(
        &mut self,
        universe: &WebUniverse,
        fetcher: &mut dyn Fetcher,
        hook: &mut dyn CrawlHook,
        until: f64,
    ) -> Result<&CrawlMetrics, WebEvoError> {
        let (fresh, _drive) = self.shell.begin_drive(until, self.config.crawl_rate_per_day)?;
        if fresh {
            self.begin_run(universe);
        }
        let mut run = |engine: &mut Self, backend: &mut Backend<'_, '_>| {
            engine.advance(universe, backend, until, hook)?;
            engine.finish_drive(universe, backend, until)
        };
        let source = FetchSource::Live(fetcher);
        match self.executor {
            Executor::Inline => run(self, &mut Backend { source, pool: None })?,
            Executor::Pool { .. } => std::thread::scope(|scope| {
                let mut backend = Backend { source, pool: Some((scope, None)) };
                // A restored or replayed engine solves its outstanding
                // request first thing.
                if let Some(req) = self.unsent_rank_request.take() {
                    self.issue_ranking(&mut backend, req);
                }
                run(self, &mut backend)
            })?,
        }
        Ok(&self.shell.metrics)
    }

    /// Re-apply the write-ahead-log tail after restoring a snapshot:
    /// records already covered by the snapshot (seq ≤ the restored
    /// `fetch_seq`) are skipped, the rest drive the normal slot loop with
    /// logged outcomes instead of live fetches, ranking passes crossed on
    /// the way run synchronously, and routed batches re-inject at the
    /// exchange barrier they were logged at. Afterwards the engine (and
    /// `fetcher`, advanced via [`Fetcher::observe_replay`]) sit at
    /// the exact state of the last flushed pass boundary; call
    /// [`CrawlEngine::drive`] to continue crawling for real.
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
            self.begin_run(universe);
        }
        let source = FetchSource::replay(events, self.shell.fetch_seq, fetcher)?;
        let mut backend = Backend { source, pool: None };
        // The log is finite and each non-idle slot consumes one record, so
        // the unbounded horizon is only ever reached by exhaustion.
        self.advance(universe, &mut backend, f64::INFINITY, &mut NoopHook)
    }

    /// Capture the full engine state. The fetcher state is excluded: the
    /// caller that owns the fetcher merges it in, since only the run loop
    /// can reach it.
    fn export_state(&self) -> CrawlerState {
        CrawlerState {
            engine: self.kind(),
            config: EngineConfig::Incremental(self.config.clone()),
            run_start: self.shell.run_start,
            seeded: self.shell.started,
            clock: self.shell.clock,
            fetch_seq: self.shell.fetch_seq,
            passes: self.shell.passes,
            collection: self.collection.clone(),
            all_urls: self.all_urls.clone(),
            queue: queue_to_entries(&self.queue),
            admissions: self.admissions.to_vec(),
            update: self.update.clone(),
            rank_pending: self.rank_pending,
            periodic: None,
            metrics: self.shell.metrics.clone(),
            fetcher: None,
            routing: self.shell.routing.clone(),
        }
    }

    fn collection(&self) -> Option<&Collection> {
        Some(&self.collection)
    }

    fn collection_len(&self) -> usize {
        self.collection.len()
    }

    fn inject_links(&mut self, links: Vec<RoutedLink>) -> Result<RoutedBatch, WebEvoError> {
        let batch = self.shell.stamp_batch(links)?;
        self.apply_routed(batch.clone());
        Ok(batch)
    }

    fn close_sample(&mut self, universe: &WebUniverse, t: f64) {
        if self.shell.started {
            self.flush_samples(universe, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{collection_quality, restore};
    use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};
    use webevo_types::BinEncode;

    fn universe(seed: u64) -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(seed))
    }

    fn config(capacity: usize) -> IncrementalConfig {
        IncrementalConfig {
            capacity,
            crawl_rate_per_day: capacity as f64 / 5.0, // 5-day cycles: fast tests
            ranking_interval_days: 2.0,
            revisit: RevisitStrategy::Uniform,
            estimator: EstimatorKind::Ep,
            history_window: 100,
            sample_interval_days: 1.0,
            ranking: RankingConfig::default(),
        }
    }

    /// The engine for an executor: inline for `None`, a pool of `workers`
    /// otherwise.
    fn engine(workers: Option<usize>, config: IncrementalConfig) -> Box<dyn CrawlEngine> {
        match workers {
            None => Box::new(IncrementalCrawler::new(config)),
            Some(workers) => Box::new(ThreadedCrawler::new(config, workers)),
        }
    }

    fn run(engine: &mut dyn CrawlEngine, u: &WebUniverse, f: &mut SimFetcher, days: f64) {
        engine.drive(u, f, &mut NoopHook, days).expect("drive succeeds");
    }

    /// Drive a fresh engine for `days` through a plain fetcher.
    fn crawl(
        workers: Option<usize>,
        config: IncrementalConfig,
        u: &WebUniverse,
        days: f64,
    ) -> Box<dyn CrawlEngine> {
        let mut engine = engine(workers, config);
        run(&mut *engine, u, &mut SimFetcher::new(u), days);
        engine
    }

    /// `(executor, seed, capacity, days, least pages held, least passes)`.
    type FillCase = (Option<usize>, u64, usize, f64, usize, u64);

    fn assert_fills_collection(cases: &[FillCase]) {
        for &(workers, seed, capacity, days, min_len, min_passes) in cases {
            let engine = crawl(workers, config(capacity), &universe(seed), days);
            assert!(
                engine.collection_len() >= min_len,
                "workers={workers:?}: collection should fill: {}",
                engine.collection_len()
            );
            assert!(engine.passes() >= min_passes, "workers={workers:?}: {}", engine.passes());
        }
    }

    #[test]
    fn fills_collection_and_stays_fresh() {
        assert_fills_collection(&[(None, 77, 60, 60.0, 55, 20)]);
        let f = crawl(None, config(60), &universe(77), 60.0).metrics().average_freshness_from(20.0);
        // Calibration: the analytic per-page ceiling for this universe's
        // rate mixture at a 5-day cycle is ~0.62; the engine also spends
        // budget on discovery and carries churned pages until ranking
        // evicts them, landing near 0.49 at this seed.
        assert!(f > 0.45, "steady-state freshness too low: {f}");
    }

    #[test]
    fn threaded_fills_collection() {
        assert_fills_collection(&[(Some(4), 55, 50, 50.0, 45, 6)]);
    }

    #[test]
    fn single_worker_still_works() {
        assert_fills_collection(&[(Some(1), 57, 30, 30.0, 25, 0)]);
    }

    #[test]
    fn worker_count_changes_schedule_but_not_safety() {
        // More workers = larger batches = slightly different schedules;
        // every width must fill the collection.
        assert_fills_collection(&[
            (Some(1), 59, 40, 40.0, 35, 0),
            (Some(3), 59, 40, 40.0, 35, 0),
            (Some(8), 59, 40, 40.0, 35, 0),
        ]);
    }

    #[test]
    fn ranking_cadence_shorter_than_a_slot_does_not_stall_the_pool() {
        // A boundary is still overdue after every pass here; the slot at
        // the clock must run regardless, for either executor.
        for workers in [None, Some(2)] {
            let mut cfg = config(20);
            cfg.ranking_interval_days = 0.5 / cfg.crawl_rate_per_day;
            let engine = crawl(workers, cfg, &universe(62), 10.0);
            assert!(engine.metrics().fetches > 20, "workers={workers:?} stalled");
        }
    }

    #[test]
    fn the_executor_is_a_deployment_choice_bit_for_bit() {
        // With ranking off the pool has nothing to defer, so at one slot
        // in flight it must crawl exactly as the inline executor does —
        // across a drive boundary too, where the pool's thread scope
        // closes and reopens.
        let u = universe(63);
        let cfg = IncrementalConfig { ranking_interval_days: 1e9, ..config(40) };
        // The wire encoding writes every f64 as its raw bits.
        fn bytes(value: &impl BinEncode) -> Vec<u8> {
            let mut out = Vec::new();
            value.bin_encode(&mut out);
            out
        }
        let runs: Vec<(Vec<u8>, Vec<u8>)> = [None, Some(1)]
            .into_iter()
            .map(|workers| {
                let mut engine = engine(workers, cfg.clone());
                let mut fetcher = SimFetcher::new(&u);
                run(&mut *engine, &u, &mut fetcher, 9.5);
                run(&mut *engine, &u, &mut fetcher, 24.0);
                assert!(engine.metrics().fetches > 100, "workers={workers:?} barely crawled");
                assert_eq!(engine.passes(), 0, "ranking must stay off");
                (bytes(engine.metrics()), bytes(engine.collection().expect("incremental has one")))
            })
            .collect();
        assert!(runs[0].0 == runs[1].0, "metrics differ between the executors");
        assert!(runs[0].1 == runs[1].1, "collections differ between the executors");
    }

    #[test]
    fn discovers_beyond_seeds() {
        let u = universe(77);
        let mut crawler = IncrementalCrawler::new(config(40));
        run(&mut crawler, &u, &mut SimFetcher::new(&u), 30.0);
        assert!(
            crawler.all_urls().len() > u.site_count(),
            "link extraction should discover non-seed URLs"
        );
    }

    #[test]
    fn dead_pages_are_evicted_and_replaced() {
        let u = universe(77);
        let crawler = crawl(None, config(50), &u, 100.0);
        // After 100 days of churn, every stored page must still be alive
        // recently (dead ones evicted on NotFound).
        let mut stale_dead = 0;
        for (p, stored) in crawler.collection().expect("incremental has one").iter() {
            if !u.alive(p, 100.0) && (100.0 - stored.last_crawl) > 10.0 {
                stale_dead += 1;
            }
        }
        assert!(
            stale_dead <= crawler.collection_len() / 5,
            "too many dead pages lingering: {stale_dead}"
        );
    }

    #[test]
    fn new_page_latency_is_recorded() {
        let crawler = crawl(None, config(50), &universe(77), 60.0);
        assert!(crawler.metrics().new_page_latency.count() > 10);
        assert!(crawler.metrics().new_page_latency.mean() >= 0.0);
    }

    /// Same universe, same config, same executor → bit-identical metrics,
    /// run to run. (A free-running pool coordinator could not promise
    /// this; checkpoint recovery builds on it.)
    fn assert_deterministic(workers: Option<usize>, seed: u64) {
        let u = universe(seed);
        let run_once = || {
            let engine = crawl(workers, config(40), &u, 40.0);
            let m = engine.metrics();
            (
                engine.collection_len(),
                m.fetches,
                m.failed_fetches,
                m.freshness.rows().collect::<Vec<(f64, f64)>>(),
            )
        };
        let first = run_once();
        assert!(first.1 > 0, "the run should actually crawl");
        assert_eq!(first, run_once());
    }

    #[test]
    fn deterministic_given_same_inputs() {
        assert_deterministic(None, 77);
    }

    #[test]
    fn threaded_replays_identically() {
        assert_deterministic(Some(4), 58);
    }

    #[test]
    fn survives_transient_failures() {
        let u = universe(77);
        let mut fetcher = SimFetcher::new(&u).with_failure_rate(0.2);
        let mut crawler = IncrementalCrawler::new(config(50));
        run(&mut crawler, &u, &mut fetcher, 60.0);
        assert!(crawler.metrics().failed_fetches > 0);
        assert!(
            crawler.collection_len() >= 40,
            "collection should still fill under failures: {}",
            crawler.collection_len()
        );
        let f = crawler.metrics().average_freshness_from(30.0);
        assert!(f > 0.4, "freshness under failures: {f}");
    }

    #[test]
    fn quality_is_meaningful() {
        let u = universe(77);
        let crawler = crawl(None, config(30), &u, 60.0);
        let q = collection_quality(crawler.collection().expect("has one"), &u, 60.0);
        assert!(q > 0.2 && q <= 1.0 + 1e-9, "quality={q}");
    }

    #[test]
    fn optimal_strategy_runs_end_to_end() {
        let u = universe(77);
        let freshness = |revisit| {
            let cfg = IncrementalConfig { revisit, estimator: EstimatorKind::Eb, ..config(50) };
            crawl(None, cfg, &u, 80.0).metrics().average_freshness_from(40.0)
        };
        let f = freshness(RevisitStrategy::Optimal);
        assert!(f > 0.38, "optimal steady-state freshness: {f}");
        // The paper's §4.3 claim is comparative: the optimal allocation
        // must clearly beat the proportional trap under the same
        // (noisy, estimated) rates — absolute freshness depends on the
        // universe's rate mixture, which is heavy-tailed here.
        let f_prop = freshness(RevisitStrategy::Proportional);
        assert!(f > f_prop, "optimal {f} should beat proportional {f_prop}");
    }

    #[test]
    fn threaded_matches_single_threaded_statistically() {
        // Fixed composition (no churn, capacity covers every reachable
        // page): any freshness difference is then pure scheduling, which
        // must agree between the executors. Under churn they hold
        // *different but equally valid* page sets, because the pool
        // applies ranking one interval later — exactly as in a real
        // concurrent crawler.
        let mut ucfg = UniverseConfig::test_scale(56);
        ucfg.churn = false;
        ucfg.pages_per_site = 20;
        ucfg.window_size = 20;
        let u = WebUniverse::generate(ucfg);
        let capacity = 200; // 10 sites × 20 slots: everything fits
        let freshness = |workers| {
            crawl(workers, config(capacity), &u, 60.0).metrics().average_freshness_from(30.0)
        };
        let (f_pool, f_inline) = (freshness(Some(4)), freshness(None));
        assert!((f_pool - f_inline).abs() < 0.08, "pool {f_pool} vs inline {f_inline}");
    }

    #[test]
    fn state_roundtrip_preserves_continuation() {
        // Export at the end of a drive, rebuild, and continue both: the
        // original and the restored copy must stay in lockstep.
        let u = universe(60);
        for workers in [None, Some(2)] {
            let mut original = engine(workers, config(30));
            let mut fetcher = SimFetcher::new(&u);
            run(&mut *original, &u, &mut fetcher, 21.0);
            let mut state = original.export_state();
            assert_eq!(state.engine, original.kind());
            state.fetcher = Fetcher::export_state(&fetcher);
            let (mut restored, fetcher_state) = restore(state).expect("state restores");
            let mut restored_fetcher = SimFetcher::new(&u);
            if let Some(fetcher_state) = fetcher_state {
                restored_fetcher.restore_state(fetcher_state);
            }
            run(&mut *original, &u, &mut fetcher, 35.0);
            run(&mut *restored, &u, &mut restored_fetcher, 35.0);
            assert_eq!(original.metrics().fetches, restored.metrics().fetches);
            let rows_a: Vec<(f64, f64)> = original.metrics().freshness.rows().collect();
            let rows_b: Vec<(f64, f64)> = restored.metrics().freshness.rows().collect();
            assert_eq!(rows_a, rows_b, "workers={workers:?}: restored engine diverged");
        }
    }

    #[test]
    fn a_panicking_ranking_solve_is_a_typed_error() {
        // The solve issued at the first boundary (day 2) panics on its
        // thread; the join at the second (day 4) must hand that back as an
        // error from `drive`, not unwind into the caller.
        let u = universe(64);
        let mut crawler = ThreadedCrawler::new(config(20), 2);
        crawler.ranking.panic_in_solve = true;
        let mut fetcher = SimFetcher::new(&u);
        let driven = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crawler.drive(&u, &mut fetcher, &mut NoopHook, 5.0).map(|_| ())
        }));
        match driven.expect("the ranking panic unwound into the caller") {
            Err(WebEvoError::InvalidState(message)) => {
                assert!(message.contains("ranking solve panicked"), "{message}")
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
    }

    #[test]
    fn from_state_rejects_foreign_states() {
        let u = universe(61);
        let inline = crawl(None, config(20), &u, 8.0).export_state();
        let pool = crawl(Some(2), config(20), &u, 8.0).export_state();
        assert!(matches!(ThreadedCrawler::from_state(inline), Err(WebEvoError::InvalidState(_))));
        assert!(matches!(
            IncrementalCrawler::from_state(pool),
            Err(WebEvoError::InvalidState(_))
        ));
    }
}
