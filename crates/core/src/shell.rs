//! The engine shell: everything about a crawl engine that is *not* its
//! crawl policy, defined once for every engine.
//!
//! The paper compares periodic and incremental crawling under one budget
//! and one freshness metric, so whatever is not the policy under
//! comparison must be the same code on both sides. [`EngineShell`] is:
//!
//! * the **run state** a checkpoint freezes — metrics, clock, start day,
//!   started flag, fetch-sequence and pass counters, routing state — plus
//!   the two write-only observers (observability sink, serving-view
//!   publisher) and the freshness sampler's per-copy ground truth, all
//!   deliberately *not* part of any checkpoint;
//! * the **sequences** every engine walks in the same order: the drive
//!   and replay preludes, per-outcome fetch accounting, the freshness
//!   sampler and its grid loop, the routing plumbing (foreign-link diversion, the routed-batch
//!   stamp and header), and the pass boundary (pass span and queue gauge,
//!   then durability hook, then view publisher).
//!
//! What stays in the engines is policy: the periodic crawler's window/idle
//! state machine and BFS frontier, the incremental engine's slot loop,
//! executors and ranking hand-off. Every field is crate-private, which
//! also seals [`CrawlEngine`]: only an engine in this crate has a shell.

use crate::engine::CrawlEngine;
use crate::hooks::{CrawlHook, FetchRecord};
use crate::metrics::{CopyTruth, CrawlMetrics};
use crate::routing::{RoutedBatch, RoutedLink, RoutingState, WalEvent};
use crate::state::{CrawlerState, EngineClock};
use crate::view::{BoundaryPages, ViewBoundary, ViewPublisher};
use webevo_obs::{LogicalClock, ObsSink, SpanGuard, Stage};
use webevo_sim::{FetchError, FetchOutcome, FetcherState, WebUniverse};
use webevo_types::{PageId, Url, WebEvoError};

/// The policy-independent part of a crawl engine. See the module docs.
/// The default is the shell of a fresh engine: day 0, nothing fetched,
/// unsharded, unobserved.
#[derive(Default)]
pub struct EngineShell {
    /// Collected metrics.
    pub(crate) metrics: CrawlMetrics,
    /// Discrete-event clock; lives here (not in a run loop) so a
    /// checkpoint can freeze it and a resumed engine continues mid-run.
    /// `t` is the next fetch-slot time; the periodic engine leaves
    /// `next_ranking` unused (its boundaries are swaps, not rankings).
    pub(crate) clock: EngineClock,
    /// When the run began (baseline for new-page latency accounting).
    pub(crate) run_start: f64,
    /// Seed URLs injected (guards against double seeding on resume).
    pub(crate) started: bool,
    /// Fetch attempts issued; pairs with [`FetchRecord::seq`]. Routed
    /// batches consume numbers from the same counter, so the WAL is one
    /// totally-ordered event stream.
    pub(crate) fetch_seq: u64,
    /// Completed refinement passes; see [`CrawlEngine::passes`].
    pub(crate) passes: u64,
    /// Cross-shard routing: scope, outbox of foreign discoveries, inbox
    /// and the applied-exchange counter. Inert (default) when unsharded.
    pub(crate) routing: RoutingState,
    /// Observability sink, touched on the coordinating thread (and, through
    /// a clone, by the pool's scoped ranking solve for its span).
    /// Write-only and deliberately absent from [`CrawlerState`]: spans and
    /// counters describe the run, they never steer it, so a traced run
    /// stays byte-identical to an untraced one.
    pub(crate) obs: ObsSink,
    /// Serving-view publisher, fired at every pass boundary. Write-only
    /// and absent from [`CrawlerState`] for the same reason as `obs`: a
    /// served run stays byte-identical to an unserved one.
    pub(crate) publisher: Option<Box<dyn ViewPublisher>>,
    /// The freshness sampler: a mirror of the visible copies with each
    /// one's ground truth. The engine stores a copy wherever it stores or
    /// recrawls one, removes it wherever it discards one, and clears the
    /// mirror before storing a whole new visible set. Absent from
    /// [`CrawlerState`] like the observers: it only restates what the
    /// universe says about the copies, so a restored shell's mirror
    /// rebuilds from the engine's copies at its first sample.
    pub(crate) truth: CopyTruth,
}

impl EngineShell {
    /// The shell a checkpointed `state` freezes, moved out of it (the
    /// engine takes the rest).
    pub(crate) fn restore(state: &mut CrawlerState) -> EngineShell {
        EngineShell {
            metrics: std::mem::take(&mut state.metrics),
            clock: state.clock,
            run_start: state.run_start,
            started: state.seeded,
            fetch_seq: state.fetch_seq,
            passes: state.passes,
            routing: std::mem::take(&mut state.routing),
            ..EngineShell::default()
        }
    }

    /// The logical instant spans are stamped with.
    pub(crate) fn stamp(&self) -> LogicalClock {
        LogicalClock::new(self.clock.t, self.fetch_seq)
    }

    /// Open a `stage` span at the current slot.
    pub(crate) fn span(&self, stage: Stage) -> SpanGuard {
        self.obs.span(stage, self.stamp())
    }

    /// Start the run at the frozen clock if it has not started: anchor
    /// the run and the sampling grid there. Returns whether it did, in
    /// which case the engine seeds its frontier.
    fn start_run(&mut self) -> bool {
        let fresh = !self.started;
        if fresh {
            self.run_start = self.clock.t;
            self.clock.next_sample = self.clock.t;
            self.started = true;
        }
        fresh
    }

    /// The one opening of every [`CrawlEngine::drive`]. The target must be
    /// a finite day beyond the clock the run starts (or continues) from —
    /// checked before anything is touched, since a drive to NaN or +∞
    /// would never return. Then the run starts if fresh (returned, so the
    /// engine seeds its frontier), the engine's `speed` in fetches/day is
    /// recorded and the drive span opens.
    pub(crate) fn begin_drive(
        &mut self,
        until: f64,
        speed: f64,
    ) -> Result<(bool, SpanGuard), WebEvoError> {
        if !until.is_finite() || until <= self.clock.t {
            let from = if self.started { "engine clock" } else { "start day" };
            return Err(WebEvoError::InvalidState(format!(
                "drive target {until} must be a finite day beyond the {from} {}",
                self.clock.t
            )));
        }
        let fresh = self.start_run();
        self.metrics.observe_speed(speed);
        Ok((fresh, self.span(Stage::Drive)))
    }

    /// The one opening of every [`CrawlEngine::replay`]. `None` for a
    /// day-0 snapshot (a run killed before its first cadence snapshot)
    /// with an empty tail: nothing ever hit the log, the fresh engine
    /// stays untouched. A non-empty tail over one necessarily starts at
    /// seq 1, so the replay *is* the run from the top and starts exactly
    /// as a drive would; the return says whether it did.
    pub(crate) fn begin_replay(&mut self, events: &[WalEvent]) -> Option<bool> {
        if !self.started && events.is_empty() {
            return None;
        }
        Some(self.start_run())
    }

    /// Account one fetch attempt: deliver its [`FetchRecord`] to an active
    /// hook, bump the outcome's counter, and count it in the metrics
    /// (a rate-limited attempt is retried, not counted as a fetch).
    pub(crate) fn observe_fetch(
        &mut self,
        hook: &mut dyn CrawlHook,
        seq: u64,
        url: Url,
        t: f64,
        result: &Result<FetchOutcome, FetchError>,
    ) {
        if hook.active() {
            hook.on_fetch(&FetchRecord { seq, url, t, result: result.clone() });
        }
        let (counter, fetched) = match result {
            Ok(_) => ("fetch_ok_total", Some(true)),
            Err(FetchError::NotFound) => ("fetch_not_found_total", Some(false)),
            Err(FetchError::Transient) => ("fetch_transient_total", Some(false)),
            Err(FetchError::RateLimited { .. }) => ("fetch_rate_limited_total", None),
        };
        self.obs.add(counter, 1);
        if let Some(ok) = fetched {
            self.metrics.record_fetch(ok);
        }
    }

    /// Record the freshness and mean age at `t` of the user-visible
    /// `copies` (each a `(page, day it was crawled)` pair) against ground
    /// truth — evaluation only — under a `sample` span.
    pub(crate) fn sample(
        &mut self,
        universe: &WebUniverse,
        t: f64,
        copies: impl Iterator<Item = (PageId, f64)>,
    ) {
        let _sample = self.obs.span(Stage::Sample, LogicalClock::new(t, self.fetch_seq));
        let (freshness, mean_age) = self.truth.sample(universe, t, copies);
        self.metrics.sample(t, freshness, mean_age);
    }

    /// Emit every pending grid sample up to and including `through`.
    /// Samples sit on the grid instants, never on the slot that crossed
    /// them: slot times depend on the crawl rate, and fleet shards crawl at
    /// apportioned rates yet must sample on one shared grid to merge.
    pub(crate) fn sample_grid<I: Iterator<Item = (PageId, f64)>>(
        &mut self,
        universe: &WebUniverse,
        through: f64,
        interval: f64,
        copies: impl Fn() -> I,
    ) {
        while self.clock.next_sample <= through {
            self.sample(universe, self.clock.next_sample, copies());
            self.clock.next_sample += interval;
        }
    }

    /// Divert a discovered `link` that another shard owns into the outbox
    /// for the next fleet exchange, instead of the local frontier. Every
    /// sighting is routed (no dedup), mirroring the per-sighting in-link
    /// evidence a single node collects. Returns whether it was diverted.
    pub(crate) fn divert_foreign(&mut self, seq: u64, from: PageId, link: Url) -> bool {
        let foreign = self.routing.is_foreign(link.site);
        if foreign {
            self.routing.outbox.push(RoutedLink { seq, from, url: link });
        }
        foreign
    }

    /// Stamp one exchange's `links` as the batch a live
    /// [`CrawlEngine::inject_links`] delivers now: the next sequence
    /// number at the frozen clock.
    pub(crate) fn stamp_batch(&self, links: Vec<RoutedLink>) -> Result<RoutedBatch, WebEvoError> {
        if !self.started {
            return Err(WebEvoError::InvalidState(
                "cannot inject routed links before the run starts".into(),
            ));
        }
        Ok(RoutedBatch { seq: self.fetch_seq + 1, t: self.clock.t, links })
    }

    /// The header of applying a routed batch, live or replayed: the outbox
    /// the coordinator drained to build this exchange is cleared, one
    /// sequence number is consumed, and the exchange counter advances. The
    /// engine then admits the batch's links its own way.
    pub(crate) fn accept_batch(&mut self, batch: &RoutedBatch) {
        self.routing.outbox.clear();
        self.fetch_seq = batch.seq;
        self.routing.exchanges += 1;
    }

    /// Open a pass boundary at the current slot: the pass span (held by
    /// the engine until its boundary work is done) and the depth of the
    /// frontier the pass leaves behind.
    pub(crate) fn open_pass(&self, queue_depth: usize) -> SpanGuard {
        let pass = self.span(Stage::Pass);
        self.obs.gauge("queue_depth", queue_depth as f64);
        pass
    }

    /// The serving half of a pass boundary, after [`announce_boundary`]:
    /// hand the user-visible `pages` to the publisher, if one is
    /// installed.
    pub(crate) fn publish(&mut self, pages: BoundaryPages<'_>) {
        let stamp = self.stamp();
        if let Some(publisher) = self.publisher.as_mut() {
            let _swap = self.obs.span(Stage::ViewSwap, stamp);
            publisher.publish(ViewBoundary {
                t: self.clock.t,
                fetch_seq: self.fetch_seq,
                passes: self.passes,
                pages,
                metrics: &self.metrics,
            });
        }
    }
}

/// The durability half of a pass boundary, before [`EngineShell::publish`]:
/// let an active hook observe the quiescent `engine`, which must already
/// record the pass as done or a snapshot taken here would run the boundary
/// twice when restored. The export closure is lazy on purpose: most
/// boundaries only flush the WAL, and neither the engine nor the fetcher
/// state (`fetcher_state`: only the run loop can reach the fetcher) should
/// be captured unless a snapshot is actually due.
pub(crate) fn announce_boundary(
    engine: &impl CrawlEngine,
    hook: &mut dyn CrawlHook,
    fetcher_state: impl Fn() -> Option<FetcherState>,
) {
    if hook.active() {
        hook.on_pass_boundary(engine.shell().clock.t, &mut || {
            let mut state = engine.export_state();
            state.fetcher = fetcher_state();
            state
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use webevo_sim::UniverseConfig;

    /// `CrawlMetrics::sample_freshness` as it stood before the sampler
    /// derived each copy's truth ahead of sampling, verbatim: the oracle
    /// of `the_sampler_matches_the_per_sample_loop`.
    fn reference_sample_freshness(
        metrics: &mut CrawlMetrics,
        universe: &WebUniverse,
        t: f64,
        copies: impl Iterator<Item = (PageId, f64)>,
    ) {
        let (mut n, mut fresh, mut age_sum) = (0usize, 0usize, 0.0);
        for (p, crawled) in copies {
            n += 1;
            if universe.copy_is_fresh(p, crawled, t) {
                fresh += 1;
            } else {
                let page = universe.page(p);
                let staled_at =
                    universe.first_change_after(p, crawled).unwrap_or(page.death).min(page.death);
                age_sum += (t - staled_at).max(0.0);
            }
        }
        if n == 0 {
            metrics.sample(t, 0.0, 0.0);
        } else {
            metrics.sample(t, fresh as f64 / n as f64, age_sum / n as f64);
        }
    }

    /// The neighbouring `f64` of a finite `x`, above or below it.
    fn ulp(x: f64, up: bool) -> f64 {
        if x == 0.0 {
            let tiny = f64::from_bits(1);
            return if up { tiny } else { -tiny };
        }
        let bits = x.to_bits();
        f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
    }

    /// Every freshness and age row, as bits.
    fn row_bits(metrics: &CrawlMetrics) -> Vec<(u64, u64, u64)> {
        metrics
            .freshness
            .rows()
            .zip(metrics.age.rows())
            .map(|((t, fresh), (_, age))| (t.to_bits(), fresh.to_bits(), age.to_bits()))
            .collect()
    }

    proptest! {
        /// The shell's sampler records bit for bit what the per-sample
        /// loop records, through random stores, recrawls, removals,
        /// whole-set swaps, restores (a fresh mirror that rebuilds from
        /// the copies at its next sample) and non-decreasing sample
        /// instants. Probes, within the sampling contract: a sample at the
        /// crawl instant (a store moves the clock to its crawl), at an
        /// event time, at death and one ulp either side of both; a copy
        /// crawled exactly at an event (where `[crawled, t)` and the strict
        /// "first change after" disagree), one ulp either side of one, at
        /// birth or just before death; universes with and without churn
        /// (all pages immortal).
        #[test]
        fn the_sampler_matches_the_per_sample_loop(
            universe_seed in 0u64..6,
            churn in 0u8..3,
            ops in prop::collection::vec((0u8..9, 0u64..1 << 20, 0u8..8, 0.0f64..1.0), 1..80),
        ) {
            let mut config = UniverseConfig::test_scale(universe_seed);
            config.churn = churn != 0;
            let universe = WebUniverse::generate(config);
            let pages = universe.pages();
            let horizon = universe.config().horizon_days;
            let mut shell = EngineShell::default();
            let mut oracle = CrawlMetrics::default();
            let mut copies: BTreeMap<PageId, f64> = BTreeMap::new();
            let mut t: f64 = 0.0;
            for (kind, pick, probe, frac) in ops {
                let up = pick % 2 == 0;
                // A random page, and one whose copy is held, if any.
                let page = &pages[(pick % pages.len() as u64) as usize];
                let held = copies
                    .keys()
                    .nth(pick as usize % copies.len().max(1))
                    .map_or(page, |&p| universe.page(p));
                match kind {
                    // Store or recrawl one copy, never before its birth.
                    0..=2 => {
                        let events = universe.events_of(page.id);
                        let event = events.get((frac * events.len() as f64) as usize);
                        let end = page.death.min(horizon);
                        let crawled = match probe {
                            0 => t,
                            1 => page.birth + frac * (end - page.birth),
                            2 => event.unwrap_or(page.birth),
                            3 => event.map_or(page.birth, |e| ulp(e, up)),
                            4 => page.birth,
                            5 if page.death.is_finite() => ulp(page.death, false),
                            _ => t + frac * 3.0,
                        }
                        .max(page.birth);
                        t = t.max(crawled);
                        copies.insert(page.id, crawled);
                        shell.truth.store(&universe, page.id, crawled);
                    }
                    // Discard a held copy.
                    3 => {
                        copies.remove(&held.id);
                        shell.truth.remove(held.id);
                    }
                    // Replace the whole visible set.
                    4 => {
                        let n = pages.len() as u64;
                        copies = (0..pick % 24)
                            .map(|k| {
                                let q = &pages[((pick / 24 + k * 7919) % n) as usize];
                                (q.id, q.birth.max(t - frac * 10.0 * k as f64))
                            })
                            .collect();
                        t = copies.values().fold(t, |t, &crawled| t.max(crawled));
                        shell.truth.clear();
                        for (&p, &crawled) in &copies {
                            shell.truth.store(&universe, p, crawled);
                        }
                    }
                    // Restore: the mirror starts unbuilt.
                    5 => shell.truth = CopyTruth::default(),
                    // Sample at a non-decreasing instant.
                    _ => {
                        let events = universe.events_of(held.id);
                        let event = events.get((frac * events.len() as f64) as usize);
                        let death = held.death;
                        let next = match probe {
                            0 => t,
                            1 => t + frac * 5.0,
                            2 => event.unwrap_or(t),
                            3 => event.map_or(t, |e| ulp(e, up)),
                            4 => death,
                            5 if death.is_finite() => ulp(death, up),
                            _ => t + frac * 40.0,
                        };
                        if next.is_finite() && next > t {
                            t = next;
                        }
                        shell.sample(&universe, t, copies.iter().map(|(&p, &c)| (p, c)));
                        reference_sample_freshness(
                            &mut oracle,
                            &universe,
                            t,
                            copies.iter().map(|(&p, &c)| (p, c)),
                        );
                    }
                }
            }
            prop_assert_eq!(row_bits(&shell.metrics), row_bits(&oracle));
        }
    }

    /// Debug builds check the mirror against the engine's copies at every
    /// sample: a copy discarded without a `remove` trips the check.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "copy count drifted")]
    fn a_missed_remove_trips_the_cross_check() {
        let universe = WebUniverse::generate(UniverseConfig::test_scale(1));
        let mut copies: BTreeMap<PageId, f64> =
            universe.pages().iter().take(5).map(|page| (page.id, page.birth)).collect();
        let t = copies.values().fold(0.0, |t: f64, &crawled| t.max(crawled));
        let mut shell = EngineShell::default();
        shell.sample(&universe, t, copies.iter().map(|(&p, &c)| (p, c)));
        copies.pop_first();
        shell.sample(&universe, t + 1.0, copies.iter().map(|(&p, &c)| (p, c)));
    }
}
