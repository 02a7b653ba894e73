//! The deterministic-replay contract.
//!
//! Every stochastic component draws from a seeded [`SimRng`], so the whole
//! pipeline — universe generation, fetch simulation, crawler scheduling —
//! must replay bit-identically for a fixed `UniverseConfig` seed. These
//! tests pin that contract through the public `CrawlSession` and
//! `FleetSession` APIs, comparing metrics as wire bytes. Scenarios that
//! share a shape are table rows: kill → recover → continue cases of
//! `RecoveryCase`, attachments of `assert_attachment_is_free`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use webevo::prelude::*;
use webevo::store::{ShardReport, SNAPSHOT_FILE, WAL_FILE};
use webevo::types::BinEncode;

/// A unique temp directory per test (tests run concurrently).
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webevo-det-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the incremental crawler against a fresh universe + fetcher built
/// from `seed` and return its metrics.
fn crawl(seed: u64, days: f64) -> CrawlMetrics {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(seed));
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(IncrementalConfig {
            capacity: 50,
            crawl_rate_per_day: 10.0,
            ..IncrementalConfig::monthly(50)
        })
        .universe(&universe)
        .build()
        .expect("a valid session");
    session.run(days).expect("the crawl runs");
    session.metrics().clone()
}

/// The wire bytes of `value`: every field in declaration order, each
/// `f64` as its raw bits.
fn bytes(value: &impl BinEncode) -> Vec<u8> {
    let mut out = Vec::new();
    value.bin_encode(&mut out);
    out
}

/// Exact equality of every metric channel — both series, both latency
/// summaries in full, the counters and the peak speed — as wire bytes:
/// replay must be exact, down to the last fetch.
fn assert_metrics_identical(a: &CrawlMetrics, b: &CrawlMetrics) {
    assert!(bytes(a) == bytes(b), "metrics diverged ({} vs {} fetches)", a.fetches, b.fetches);
}

#[test]
fn identical_seeds_replay_identical_metrics() {
    let (first, second) = (crawl(42, 30.0), crawl(42, 30.0));
    assert!(first.fetches > 0, "the run should actually crawl");
    assert_metrics_identical(&first, &second);
}

#[test]
fn periodic_crawler_replays_identically() {
    let run = || {
        let universe = WebUniverse::generate(UniverseConfig::test_scale(42));
        let mut session = CrawlSession::builder()
            .engine(EngineKind::Periodic)
            .periodic(PeriodicConfig::monthly(50))
            .universe(&universe)
            .build()
            .expect("a valid session");
        session.run(65.0).expect("the crawl runs");
        session.metrics().clone()
    };
    let (first, second) = (run(), run());
    assert!(first.fetches > 0, "the run should actually crawl");
    assert_metrics_identical(&first, &second);
}

#[test]
fn different_seeds_diverge() {
    let rows = |seed| crawl(seed, 30.0).freshness.rows().collect::<Vec<_>>();
    // Different universes must not produce the same trajectory; otherwise
    // the seed is not actually reaching the generator.
    assert_ne!(rows(42), rows(43), "seeds 42 and 43 produced identical runs");
}

#[test]
fn universe_generation_replays() {
    let a = WebUniverse::generate(UniverseConfig::test_scale(7));
    let b = WebUniverse::generate(UniverseConfig::test_scale(7));
    assert_eq!(a.sites().len(), b.sites().len());
    for (sa, sb) in a.sites().iter().zip(b.sites()) {
        assert_eq!(sa.id, sb.id);
    }
    // Page change histories must match event-for-event.
    for site in a.sites() {
        for t in [0.0, 5.0, 25.0] {
            assert_eq!(
                a.occupant(site.id, 0, t),
                b.occupant(site.id, 0, t),
                "window occupancy diverged at t={t}"
            );
        }
    }
}

#[test]
fn fork_streams_independent_of_consumer_ordering() {
    // Stream `s` must yield the same values no matter which other streams
    // were forked first, or how much the parent was consumed in between.
    let draw = |rng: &mut SimRng| -> Vec<u64> { (0..64).map(|_| rng.next_u64()).collect() };

    let root_a = SimRng::seed_from_u64(99);
    let mut fork_a = root_a.fork(5);
    let a = draw(&mut fork_a);

    let mut root_b = SimRng::seed_from_u64(99);
    let _ = root_b.fork(1);
    let _ = root_b.next_u64(); // consume the parent
    let _ = root_b.fork(17);
    let mut fork_b = root_b.fork(5);
    let b = draw(&mut fork_b);

    assert_eq!(a, b, "fork(5) must not depend on sibling forks or parent use");

    // And distinct streams must actually be distinct.
    let mut other = root_a.fork(6);
    assert_ne!(a, draw(&mut other), "fork(5) and fork(6) should diverge");
}

// --------------------------------------------------------------------
// The durable-state extension of the replay contract: a run that is
// killed, recovered from `snapshot + WAL tail`, and continued must be
// indistinguishable — bit for bit, on every metric channel — from a run
// that was never interrupted. (webevo-store's acceptance bar, exercised
// through CrawlSession::resume for every engine, from a cadence snapshot,
// from the day-0 base snapshot alone, and from a torn log.)
// --------------------------------------------------------------------

/// One kill → recover → continue scenario.
struct RecoveryCase {
    tag: &'static str,
    kind: EngineKind,
    seed: u64,
    config: EngineConfig,
    /// Crawl through a caller-supplied failure-injecting fetcher. That
    /// makes the fetcher genuinely stateful (its attempt counter drives
    /// the failure pattern), so the case also proves fetcher state
    /// survives the crash. Zero injects no failures.
    failure_rate: f64,
    /// The fetcher's politeness limits.
    politeness: Politeness,
    snapshot_every: f64,
    /// Deliberately not a checkpoint boundary.
    kill_day: f64,
    end_day: f64,
    min_snapshots: u64,
    /// Passes the resumed run must have completed by `end_day` — proof
    /// that the continuation crossed boundaries of its own.
    min_passes: u64,
    /// The kill comes before any cadence snapshot: only the unseeded
    /// day-0 base snapshot `Checkpointer::create` writes is on disk.
    base_only: bool,
    /// Whether committed work follows the snapshot in the WAL at the kill.
    wal_tail: bool,
    /// Bytes torn off the end of the WAL before recovery, as a crash
    /// during a flush would (0 leaves it intact).
    torn_bytes: usize,
}

impl RecoveryCase {
    /// A session of this case over `universe`, checkpointing into `dir`
    /// when one is given.
    fn session<'a, 'u: 'a>(
        &self,
        universe: &'a WebUniverse,
        fetcher: &'a mut SimFetcher<'u>,
        dir: Option<&std::path::Path>,
    ) -> CrawlSession<'a> {
        let builder = CrawlSession::builder().engine(self.kind).universe(universe);
        let mut builder = match self.config.clone() {
            EngineConfig::Incremental(config) => builder.incremental(config),
            EngineConfig::Periodic(config) => builder.periodic(config),
        }
        .fetcher(fetcher);
        if let Some(dir) = dir {
            builder = builder.checkpoint(dir, self.snapshot_every);
        }
        builder.build().expect("a valid session")
    }
}

/// Crawl under the checkpointer to `kill_day`, "kill" the process by
/// dropping every in-memory structure, check what is on disk (tearing the
/// log if the case says so), recover from `snapshot + WAL tail` and
/// continue to `end_day` in one call — and require the result to match, on
/// every metric channel and in the fetcher's replay state, the same crawl
/// never interrupted.
fn assert_killed_and_recovered_matches_uninterrupted(case: RecoveryCase) {
    let dir = temp_dir(case.tag);
    let universe = WebUniverse::generate(UniverseConfig::test_scale(case.seed));
    let fetcher = || {
        SimFetcher::new(&universe)
            .with_failure_rate(case.failure_rate)
            .with_politeness(case.politeness)
    };
    let mut killed_fetcher = fetcher();
    let mut killed = case.session(&universe, &mut killed_fetcher, Some(&dir));
    killed.run(case.kill_day).expect("the crawl runs");
    let stats = killed.checkpoint_stats().expect("checkpointing active");
    assert!(stats.snapshots >= case.min_snapshots, "{}: stats={stats:?}", case.tag);
    drop(killed);
    drop(killed_fetcher);

    let on_disk = recover(&dir).expect("snapshot decodes").expect("snapshot exists");
    assert!(on_disk.state.clock.t < case.kill_day, "snapshot predates the kill point");
    if case.base_only {
        assert_eq!(on_disk.state.fetch_seq, 0, "only the base snapshot was written");
        assert!(!on_disk.state.seeded, "the base snapshot predates seeding");
    }
    assert_eq!(!on_disk.wal.is_empty(), case.wal_tail, "{}: WAL tail at the kill", case.tag);
    if case.torn_bytes > 0 {
        // Tear the log mid-record, as a crash during a flush would.
        let wal = std::fs::read(dir.join(WAL_FILE)).expect("wal readable");
        let kept = &wal[..wal.len() - case.torn_bytes];
        std::fs::write(dir.join(WAL_FILE), kept).expect("wal writable");
        let torn = recover(&dir).expect("torn WAL must still decode").expect("exists");
        let (torn, intact) = (torn.wal.len(), on_disk.wal.len());
        assert!(torn < intact, "truncation must shrink the committed tail ({torn} vs {intact})");
    }

    // Recovery loses only uncommitted work: the continued crawl re-fetches
    // it and still matches the uninterrupted reference exactly.
    let mut resumed_fetcher = fetcher();
    let mut resumed = case.session(&universe, &mut resumed_fetcher, Some(&dir));
    let resumed_metrics = resumed.resume(case.end_day).expect("snapshot + WAL recover").clone();
    assert!(resumed.passes() >= case.min_passes, "{}: passes={}", case.tag, resumed.passes());
    drop(resumed);

    let mut reference_fetcher = fetcher();
    let mut reference = case.session(&universe, &mut reference_fetcher, None);
    let reference_metrics = reference.run(case.end_day).expect("the crawl runs").clone();
    drop(reference);

    assert!(reference_metrics.fetches > 0, "the run should actually crawl");
    assert_metrics_identical(&reference_metrics, &resumed_metrics);
    if case.failure_rate > 0.0 {
        assert!(reference_metrics.failed_fetches > 0, "failure injection active");
    }
    assert_eq!(
        Fetcher::export_state(&reference_fetcher),
        Fetcher::export_state(&resumed_fetcher),
        "fetcher replay state diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The base shape of a row: the incremental engine at capacity 50 and 10
/// fetches/day under 15% failure injection, snapshotting every 5 days,
/// killed at day 23 with a WAL tail past its last cadence snapshot and
/// continued to day 40.
impl Default for RecoveryCase {
    fn default() -> Self {
        RecoveryCase {
            tag: "",
            kind: EngineKind::Incremental,
            seed: 42,
            config: EngineConfig::Incremental(IncrementalConfig {
                capacity: 50,
                crawl_rate_per_day: 10.0,
                ..IncrementalConfig::monthly(50)
            }),
            failure_rate: 0.15,
            // `SimFetcher::new`'s unrestricted default.
            politeness: Politeness { min_delay_days: 0.0, night_window: None },
            snapshot_every: 5.0,
            kill_day: 23.0,
            end_day: 40.0,
            min_snapshots: 0,
            min_passes: 0,
            base_only: false,
            wal_tail: true,
            torn_bytes: 0,
        }
    }
}

/// The base-snapshot rows' engine: capacity 40 at 8 fetches/day.
fn smaller_incremental_config() -> EngineConfig {
    EngineConfig::Incremental(IncrementalConfig {
        capacity: 40,
        crawl_rate_per_day: 8.0,
        ..IncrementalConfig::monthly(40)
    })
}

#[test]
fn incremental_killed_and_recovered_matches_uninterrupted() {
    assert_killed_and_recovered_matches_uninterrupted(RecoveryCase {
        tag: "inc-recover",
        min_snapshots: 2,
        min_passes: 39,
        ..RecoveryCase::default()
    });
}

#[test]
fn threaded_killed_and_recovered_matches_uninterrupted() {
    // The pool fetches through the session's fetcher like the inline
    // executor: under the paper's politeness (nightly window, per-site
    // spacing) and failure injection, its clocks and attempt counter
    // survive the crash too.
    assert_killed_and_recovered_matches_uninterrupted(RecoveryCase {
        tag: "thr-recover",
        kind: EngineKind::Threaded { workers: 4 },
        seed: 43,
        politeness: Politeness::paper(),
        snapshot_every: 4.0,
        kill_day: 21.0,
        end_day: 35.0,
        min_snapshots: 2,
        min_passes: 34,
        ..RecoveryCase::default()
    });
}

#[test]
fn periodic_killed_and_recovered_matches_uninterrupted() {
    // Day 23 sits mid-idle of the first monthly cycle, past the first
    // shadow swap (the engine's pass boundary), so recovery crosses both
    // a snapshot and an idle stretch — and the resumed run the next swap.
    assert_killed_and_recovered_matches_uninterrupted(RecoveryCase {
        tag: "per-recover",
        kind: EngineKind::Periodic,
        seed: 44,
        config: EngineConfig::Periodic(PeriodicConfig::monthly(50)),
        end_day: 70.0,
        min_snapshots: 1,
        min_passes: 2,
        wal_tail: false,
        ..RecoveryCase::default()
    });
}

#[test]
fn torn_wal_tail_is_discarded_not_misparsed() {
    // A long snapshot cadence leaves plenty of WAL past the (base)
    // snapshot; tearing 37 bytes off its end cuts the last record.
    assert_killed_and_recovered_matches_uninterrupted(RecoveryCase {
        tag: "torn-wal",
        seed: 44,
        config: smaller_incremental_config(),
        failure_rate: 0.0,
        snapshot_every: 50.0,
        kill_day: 18.0,
        end_day: 25.0,
        min_passes: 24,
        base_only: true,
        torn_bytes: 37,
        ..RecoveryCase::default()
    });
}

#[test]
fn session_killed_before_first_cadence_snapshot_recovers_from_base() {
    // With a snapshot cadence the run never reaches, the only snapshot on
    // disk is the base (day-0) one, and ALL crawl progress lives in the
    // WAL: recovery must replay it onto the base snapshot, never truncate
    // the log as if nothing had been committed.
    assert_killed_and_recovered_matches_uninterrupted(RecoveryCase {
        tag: "base-snapshot",
        seed: 46,
        config: smaller_incremental_config(),
        failure_rate: 0.2,
        snapshot_every: 50.0,
        kill_day: 13.0,
        end_day: 20.0,
        min_passes: 19,
        base_only: true,
        ..RecoveryCase::default()
    });
}

#[test]
fn periodic_killed_before_any_boundary_restarts_cleanly() {
    // The empty-WAL edge of the base-snapshot path: the periodic engine's
    // first pass boundary is its first shadow swap (day 7 here), so a
    // kill at day 5 leaves the base snapshot and an empty log — recovery
    // must restart the run from day 0 and still match an uninterrupted
    // run exactly.
    assert_killed_and_recovered_matches_uninterrupted(RecoveryCase {
        tag: "per-base",
        kind: EngineKind::Periodic,
        seed: 47,
        config: EngineConfig::Periodic(PeriodicConfig::monthly(50)),
        failure_rate: 0.0,
        kill_day: 5.0,
        min_passes: 2,
        base_only: true,
        wal_tail: false,
        ..RecoveryCase::default()
    });
}

// --------------------------------------------------------------------
// The fleet extension of the replay contract: a sharded fleet's merged
// metrics are a pure function of (universe, plan, budget, horizon) —
// independent of how many worker threads drove the shards and of when
// each shard finished — and fleet recovery tolerates losing any single
// shard mid-run.
// --------------------------------------------------------------------

/// Exact equality of two fleet results: the merged view and every
/// per-shard channel. (`routed_links` is excluded — it counts the links
/// delivered since the fleet's own start, so a resumed fleet reports
/// fewer; the tests comparing two *fresh* runs assert it separately.)
fn assert_fleet_identical(a: &FleetMetrics, b: &FleetMetrics) {
    assert_metrics_identical(&a.merged, &b.merged);
    assert_eq!(a.shards.len(), b.shards.len());
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        let report = |s: &ShardReport| (s.shard, s.capacity, s.sites, s.collection_len);
        assert_eq!(report(sa), report(sb), "{} diverged", sa.shard);
        assert_metrics_identical(&sa.metrics, &sb.metrics);
    }
}

/// Repeatability at the same thread count, and independence from it: one
/// thread serializes the shards, more interleave them differently — the
/// results, including the exchanged batches, must not notice. Nor may a
/// threaded shard's own slots in flight leak into them.
fn assert_fleet_identical_across_concurrency(
    kind: EngineKind,
    seed: u64,
    shards: u32,
    baseline: usize,
    others: &[usize],
) {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(seed));
    let run = |concurrency: usize| {
        let mut fleet = FleetSession::builder()
            .shards(shards)
            .engine(kind)
            .budget(CrawlBudget::paper_monthly(48).with_cycle_days(6.0))
            .universe(&universe)
            .concurrency(concurrency)
            .build()
            .expect("a valid fleet");
        fleet.run(25.0).expect("the fleet runs").clone()
    };
    let baseline = run(baseline);
    assert!(baseline.merged.fetches > 0, "{kind}: the fleet should actually crawl");
    assert!(
        baseline.shards.iter().all(|s| s.metrics.fetches > 0),
        "{kind}: every shard should actually crawl"
    );
    assert!(baseline.routed_links() > 0, "{kind}: cross-shard links were exchanged");
    for &concurrency in others {
        let other = run(concurrency);
        assert_fleet_identical(&baseline, &other);
        for (sa, sb) in baseline.shards.iter().zip(&other.shards) {
            assert_eq!(
                sa.routed_links, sb.routed_links,
                "{kind}: {} exchange deliveries diverged between fresh runs",
                sa.shard
            );
        }
    }
}

#[test]
fn fleet_merge_identical_across_runs_and_thread_counts() {
    assert_fleet_identical_across_concurrency(EngineKind::Incremental, 42, 4, 4, &[4, 1, 2]);
}

#[test]
fn threaded_fleet_identical_across_concurrency() {
    assert_fleet_identical_across_concurrency(
        EngineKind::Threaded { workers: 2 },
        48,
        2,
        1,
        &[2, 4],
    );
}

#[test]
fn four_shard_fleet_collects_what_the_single_node_collects() {
    // The page-loss contract of sharding: the same budget split four ways
    // collects within 1% of what one node collects. What holds it there
    // is capacity and crawl rate apportioned by owned sites (an even
    // split strands 10.6% of the collection on this skewed hash plan) and
    // foreign discoveries diverted to the exchange instead of the local
    // frontier (2.0% without). The inputs are `repro fleet`'s: the
    // medium-scale repro universe, full coverage, 15-day cycle, 15 days.
    let universe = WebUniverse::generate(UniverseConfig::medium_scale(1999));
    let capacity = universe.site_count() * universe.config().pages_per_site;
    let budget = CrawlBudget::paper_monthly(capacity).with_cycle_days(15.0);
    let run = |shards: u32| {
        let mut fleet = FleetSession::builder()
            .shards(shards)
            .budget(budget)
            .universe(&universe)
            .build()
            .expect("a valid fleet");
        fleet.run(15.0).expect("the fleet runs").clone()
    };
    let single = run(1);
    let fleet = run(4);
    assert!(fleet.routed_links() > 0, "cross-shard links were exchanged");
    let (n_single, n_fleet) = (single.collection_len(), fleet.collection_len());
    assert!(n_single >= 2_000, "1% must be a count of pages, not a rounding: {n_single}");
    let deficit = 1.0 - n_fleet as f64 / n_single as f64;
    assert!(
        deficit <= 0.01,
        "4-shard collection {n_fleet} vs single-node {n_single}: deficit {deficit:.4}"
    );
}

/// Kill a checkpointed fleet, tear shard 1's WAL mid-record, resume, and
/// compare with the same fleet never interrupted. Every kind crawls through
/// failure-injecting fetchers; the threaded engine's WAL mixes seq-tagged
/// fetch records with the fleet's routed-batch records, which recovery
/// replays through the same drive-end reconstruction the live loop uses.
fn assert_fleet_kill_one_shard_resume_matches_uninterrupted(
    tag: &str,
    kind: EngineKind,
    seed: u64,
    shards: u32,
    capacity: usize,
) {
    let dir = temp_dir(tag);
    let universe = WebUniverse::generate(UniverseConfig::test_scale(seed));
    let budget = CrawlBudget::paper_monthly(capacity).with_cycle_days(6.0);
    let build = |checkpoint: bool| {
        let mut builder = FleetSession::builder()
            .shards(shards)
            .engine(kind)
            .budget(budget)
            .universe(&universe)
            .failure_rate(0.15);
        if checkpoint {
            builder = builder.checkpoint(&dir, 4.0);
        }
        builder.build().expect("a valid fleet")
    };

    // Phase 1: run the fleet under checkpointing, then "kill" it — and
    // tear shard 1's WAL mid-record, as if that one shard's process
    // died during a flush while the others checkpointed cleanly.
    let mut killed = build(true);
    killed.run(23.0).expect("the fleet runs");
    drop(killed);
    let wal_path = dir.join("shard-1").join(webevo::store::WAL_FILE);
    let bytes = std::fs::read(&wal_path).expect("shard 1 has a WAL");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 31]).expect("wal writable");

    // Phase 2: resume the whole fleet. Shard 1 replays its committed
    // WAL prefix and re-crawls the torn tail; the others continue from
    // their snapshots — first rolling back any link exchange shard 1
    // never committed, then re-running it so every shard re-enters the
    // barrier loop in lockstep.
    let mut resumed = build(true);
    let resumed_results = resumed.resume(40.0).expect("the fleet recovers").clone();

    // Reference: the same fleet, never interrupted.
    let mut reference = build(false);
    let reference_results = reference.run(40.0).expect("the fleet runs").clone();

    assert!(reference_results.merged.fetches > 0, "{kind}: the fleet should actually crawl");
    assert!(
        reference_results.merged.failed_fetches > 0,
        "{kind}: failure injection should be active"
    );
    assert!(reference_results.routed_links() > 0, "{kind}: cross-shard links were exchanged");
    assert_fleet_identical(&reference_results, &resumed_results);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_kill_one_shard_resume_matches_uninterrupted() {
    assert_fleet_kill_one_shard_resume_matches_uninterrupted(
        "fleet-kill-one",
        EngineKind::Incremental,
        45,
        3,
        36,
    );
}

#[test]
fn threaded_fleet_kill_one_shard_resume_matches_uninterrupted() {
    assert_fleet_kill_one_shard_resume_matches_uninterrupted(
        "thr-fleet-kill-one",
        EngineKind::Threaded { workers: 2 },
        50,
        2,
        48,
    );
}

#[test]
fn fleet_rebalance_then_resume_matches_uninterrupted() {
    // Rebalancing migrates pages between shard checkpoints and rewrites
    // the manifest; what it must NOT do is perturb the crawl itself. Two
    // fleets take the same run → rebalance → resume path, but one is
    // additionally killed and recovered partway through the post-rebalance
    // leg — the final results must be bit-identical.
    let universe = WebUniverse::generate(UniverseConfig::test_scale(47));
    let budget = CrawlBudget::paper_monthly(36).with_cycle_days(6.0);
    let run_variant = |tag: &str, interrupt: bool| {
        let dir = temp_dir(tag);
        let build = |partition: ShardFn| {
            FleetSession::builder()
                .shards(3)
                .partition(partition)
                .budget(budget)
                .universe(&universe)
                .checkpoint(&dir, 4.0)
                .build()
                .expect("a valid fleet")
        };
        let mut fleet = build(ShardFn::Hash);
        fleet.run(12.0).expect("the fleet runs");
        let new_plan = ShardPlan::new(ShardFn::Balanced, 3, universe.site_count() as u32);
        fleet.rebalance(new_plan).expect("rebalances");
        if interrupt {
            fleet.resume(26.0).expect("the first post-rebalance leg runs");
            drop(fleet);
            // A fresh process picking up a rebalanced fleet configures the
            // partition the manifest records.
            fleet = build(ShardFn::Balanced);
        }
        let out = fleet.resume(40.0).expect("resumes to the end").clone();
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let straight = run_variant("rebalance-straight", false);
    let staged = run_variant("rebalance-staged", true);
    assert!(straight.merged.fetches > 0, "the fleet should actually crawl");
    assert_fleet_identical(&straight, &staged);
}

#[test]
fn threaded_fleet_agrees_with_single_shard_threaded_run() {
    // Sharding apportions the budget and splits the frontier, so the
    // 2-shard merged series cannot be byte-identical to a 1-shard run —
    // but on merged metrics the fleet must land where the single threaded
    // crawler lands, the same statistical contract the threaded engine
    // itself is held to against the sequential one.
    let universe = WebUniverse::generate(UniverseConfig::test_scale(49));
    let budget = CrawlBudget::paper_monthly(48).with_cycle_days(6.0);
    let run = |shards: u32| {
        let mut fleet = FleetSession::builder()
            .shards(shards)
            .engine(EngineKind::Threaded { workers: 2 })
            .budget(budget)
            .universe(&universe)
            .build()
            .expect("a valid fleet");
        fleet.run(36.0).expect("the fleet runs").clone()
    };
    let single = run(1);
    let sharded = run(2);
    assert!(single.merged.fetches > 0, "the single shard should actually crawl");
    let f_single = single.merged.average_freshness_from(12.0);
    let f_sharded = sharded.merged.average_freshness_from(12.0);
    assert!(
        (f_single - f_sharded).abs() < 0.08,
        "single-shard {f_single} vs 2-shard merged {f_sharded}"
    );
    let n_single = single.collection_len();
    let n_sharded = sharded.collection_len();
    assert!(
        n_sharded >= n_single * 9 / 10,
        "2-shard collection {n_sharded} lags single-shard {n_single}"
    );
}

// --------------------------------------------------------------------
// Attachments are free: attaching a fully recording `ObsSink`, or the
// epoch-swapped query layer (`CrawlSession::serve` /
// `FleetSession::serve`), must not perturb the crawl by a single byte.
// Spans time stages out of band, and the boundary publisher only reads
// the arenas at a pass boundary; nothing either computes feeds back into
// a crawl decision. So an attached run and a plain run must agree on every
// metric channel AND on the raw checkpoint bytes (snapshot + WAL) they
// leave on disk — with a session's served run queried by a reader thread
// for the whole crawl.
// --------------------------------------------------------------------

/// What an attachment is attached to: one session of an engine kind (seed
/// 48, `paper_monthly(50)` at a 6-day cycle, snapshots every 6 days, 30
/// days), or a fleet of `FLEET_SHARDS` shards of the default engine (seed
/// 49, `paper_monthly(36)` at a 6-day cycle, snapshots every 5 days, 25
/// days).
#[derive(Clone, Copy)]
enum Topology {
    Session(EngineKind),
    Fleet,
}

/// What is attached: a recording `ObsSink` (a fleet's shards record into
/// per-shard views of it), or the query layer (a session's is read by a
/// reader thread throughout).
#[derive(Clone, Copy, Debug)]
enum Attachment {
    Recording,
    Served,
}

const FLEET_SHARDS: u32 = 4;

impl Topology {
    /// Crawl once into a fresh directory, recording into `obs` (the
    /// builders' default is `ObsSink::noop()`) and serving when asked.
    /// Returns the results (a session's as a fleet of no shards) and every
    /// checkpoint file, snapshot then WAL, shard by shard.
    fn crawl(self, tag: &str, obs: &ObsSink, serve: bool) -> (FleetMetrics, Vec<Vec<u8>>) {
        let dir = temp_dir(tag);
        let (results, dirs) = match self {
            Topology::Session(kind) => {
                let universe = WebUniverse::generate(UniverseConfig::test_scale(48));
                let mut session = CrawlSession::builder()
                    .engine(kind)
                    .budget(CrawlBudget::paper_monthly(50).with_cycle_days(6.0))
                    .universe(&universe)
                    .checkpoint(&dir, 6.0)
                    .obs(obs.clone())
                    .build()
                    .expect("checkpoint dir is writable");
                if serve {
                    run_served(&mut session, 30.0);
                } else {
                    session.run(30.0).expect("the crawl runs");
                }
                let merged = session.metrics().clone();
                (FleetMetrics { merged, shards: Vec::new() }, vec![dir.clone()])
            }
            Topology::Fleet => {
                let universe = WebUniverse::generate(UniverseConfig::test_scale(49));
                let mut fleet = FleetSession::builder()
                    .shards(FLEET_SHARDS)
                    .budget(CrawlBudget::paper_monthly(36).with_cycle_days(6.0))
                    .universe(&universe)
                    .checkpoint(&dir, 5.0)
                    .obs(obs.clone())
                    .build()
                    .expect("a valid fleet");
                let queries = serve.then(|| fleet.serve());
                let results = fleet.run(25.0).expect("the fleet runs").clone();
                if let Some(queries) = &queries {
                    // The coordinator merges the shards' views at every barrier.
                    assert!(queries.epoch() >= 1, "no fleet view was ever merged");
                    let view = queries.view();
                    let spans_every_shard = view.len() == results.collection_len();
                    assert!(spans_every_shard, "the merged view must span every shard");
                    assert!(view.info().fetch_seq > 0, "the merged view carries no fetch progress");
                }
                (results, (0..FLEET_SHARDS).map(|k| dir.join(format!("shard-{k}"))).collect())
            }
        };
        let files = dirs
            .iter()
            .flat_map(|d| [SNAPSHOT_FILE, WAL_FILE].map(|f| std::fs::read(d.join(f)).expect(f)))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (results, files)
    }
}

/// Run `session` to `days` with the query layer attached and a reader
/// thread querying throughout (it checks before it tests `stop`, so it
/// answers at least once), and require the service to have published
/// epochs and answered queries, so the row cannot pass vacuously against a
/// publisher that was never wired in.
fn run_served(session: &mut CrawlSession<'_>, days: f64) {
    let queries = session.serve();
    assert_eq!(queries.epoch(), 0, "readers start on the empty epoch-0 view");
    let stop = AtomicBool::new(false);
    let answered = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut answered = 0u64;
            loop {
                let view = queries.view();
                assert_eq!(view.info().pages, view.len());
                let _ = view.freshness();
                answered += 1;
                if stop.load(Ordering::Relaxed) {
                    return answered;
                }
            }
        });
        session.run(days).expect("the crawl runs");
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread")
    });
    assert!(queries.epoch() >= 1, "no epoch was ever published");
    assert!(!queries.view().is_empty(), "the published view is empty");
    assert!(answered > 0, "the reader thread answered nothing");
}

/// Crawl `topology` twice over the same universe — once with `attachment`,
/// once plain — and require byte-identical results and checkpoint files.
/// A recording sink must also have seen the crawl (and a session's fetch
/// and fsync counters fired), so the row cannot pass vacuously against a
/// sink that was never wired in.
fn assert_attachment_is_free(topology: Topology, attachment: Attachment) {
    let name = if let Topology::Session(kind) = topology { kind.name() } else { "fleet" };
    let tag = format!("{name}-{attachment:?}");
    let (plain_sink, sink) = (ObsSink::noop(), ObsSink::recording());
    let (attached, attached_files) = match attachment {
        Attachment::Recording => topology.crawl(&format!("{tag}-on"), &sink, false),
        Attachment::Served => topology.crawl(&format!("{tag}-on"), &plain_sink, true),
    };
    let (plain, plain_files) = topology.crawl(&format!("{tag}-off"), &plain_sink, false);

    assert!(plain.merged.fetches > 0, "the run should actually crawl");
    assert_fleet_identical(&plain, &attached);
    assert!(plain_files == attached_files, "checkpoint bytes diverged under {attachment:?}");
    if let Attachment::Served = attachment {
        return;
    }
    // The recording sink saw every stage the topology runs: a session's
    // incremental engines also open the ranking stages, each on the thread
    // that does the work (the pool's scoped solve spans itself), and a
    // fleet its exchange barriers, in every shard.
    let spans = sink.spans();
    assert!(!spans.is_empty(), "the traced run recorded no spans");
    let topology_stages: &[Stage] = match topology {
        Topology::Session(EngineKind::Periodic) => &[],
        Topology::Session(_) => &[Stage::RankBuild, Stage::RankSolve, Stage::Reallocate],
        Topology::Fleet => &[Stage::ExchangeBarrier],
    };
    let crawl_stages = [Stage::Drive, Stage::Pass, Stage::FetchBatch, Stage::Sample];
    let store_stages = [Stage::WalFlush, Stage::SnapshotEncode];
    for &stage in crawl_stages.iter().chain(&store_stages).chain(topology_stages) {
        assert!(spans.iter().any(|s| s.stage == stage), "no {} span recorded", stage.name());
    }
    match topology {
        Topology::Session(kind) => {
            let registry = sink.merged_registry().expect("one sink, one edge set");
            assert!(registry.counter("fetch_ok_total") > 0, "fetch counters never fired");
            assert!(registry.counter("wal_fsyncs_total") > 0, "fsync counter never fired");
            if kind != EngineKind::Periodic {
                for counter in ["pagerank_iterations_total", "pagerank_link_iterations_total"] {
                    assert!(registry.counter(counter) > 0, "{counter} never fired");
                }
            }
        }
        Topology::Fleet => {
            for shard in 0..FLEET_SHARDS {
                assert!(
                    spans.iter().any(|s| s.shard == Some(ShardId(shard))),
                    "shard {shard} recorded no spans"
                );
            }
        }
    }
}

#[test]
fn incremental_traced_run_is_byte_identical_to_untraced() {
    assert_attachment_is_free(Topology::Session(EngineKind::Incremental), Attachment::Recording);
}

#[test]
fn periodic_traced_run_is_byte_identical_to_untraced() {
    assert_attachment_is_free(Topology::Session(EngineKind::Periodic), Attachment::Recording);
}

#[test]
fn threaded_traced_run_is_byte_identical_to_untraced() {
    assert_attachment_is_free(
        Topology::Session(EngineKind::Threaded { workers: 4 }),
        Attachment::Recording,
    );
}

#[test]
fn fleet_traced_run_is_byte_identical_to_untraced() {
    assert_attachment_is_free(Topology::Fleet, Attachment::Recording);
}

#[test]
fn incremental_served_run_is_byte_identical_to_unserved() {
    assert_attachment_is_free(Topology::Session(EngineKind::Incremental), Attachment::Served);
}

#[test]
fn periodic_served_run_is_byte_identical_to_unserved() {
    assert_attachment_is_free(Topology::Session(EngineKind::Periodic), Attachment::Served);
}

#[test]
fn threaded_served_run_is_byte_identical_to_unserved() {
    assert_attachment_is_free(
        Topology::Session(EngineKind::Threaded { workers: 4 }),
        Attachment::Served,
    );
}

#[test]
fn fleet_served_run_is_byte_identical_to_unserved() {
    assert_attachment_is_free(Topology::Fleet, Attachment::Served);
}

#[test]
fn concurrent_readers_always_see_one_consistent_epoch() {
    // N reader threads hammer the service across every epoch swap of a
    // live crawl. Each reader snapshots the view and checks internal
    // consistency — the stamp, the page count, the freshness stats, and
    // the memoized rollups must all describe the same epoch — and that
    // epochs only ever move forward. The crawl must cross at least 3
    // boundaries so swaps actually happen under the readers' feet.
    let universe = WebUniverse::generate(UniverseConfig::test_scale(50));
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(CrawlBudget::paper_monthly(60).with_cycle_days(5.0))
        .universe(&universe)
        .build()
        .expect("a valid session");
    let queries = session.serve();
    let stop = AtomicBool::new(false);
    // Check first, test `stop` after: a reader the scheduler starves until
    // the crawl is over still runs one check.
    let reader = || {
        let mut last_epoch = 0u64;
        let mut checks = 0u64;
        loop {
            let view = queries.view();
            let info = view.info();
            // One snapshot, one epoch: every number below comes from the
            // same immutable view.
            assert_eq!(info.epoch, view.epoch());
            assert_eq!(info.pages, view.len());
            assert!(
                info.epoch >= last_epoch,
                "epoch went backwards: {} after {last_epoch}",
                info.epoch
            );
            last_epoch = info.epoch;
            let freshness = view.freshness();
            assert!(freshness.fetches <= info.fetch_seq);
            let rollup_pages: usize = view.site_rollups().iter().map(|r| r.pages).sum();
            assert!(rollup_pages <= info.pages);
            if let Some(first) = view.pages().first() {
                // Point lookups answer from the same epoch too.
                assert_eq!(
                    view.get(first.page).expect("first page resolves").page,
                    first.page
                );
            }
            checks += 1;
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        (last_epoch, checks)
    };
    let max_epoch = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4).map(|_| scope.spawn(reader)).collect();
        session.run(20.0).expect("the crawl runs");
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().fold(0u64, |max_epoch, reader| {
            let (epoch, checks) = reader.join().expect("reader thread");
            assert!(checks > 0, "a reader thread never ran a check");
            max_epoch.max(epoch)
        })
    });
    assert!(
        queries.epoch() >= 3,
        "the crawl crossed fewer than 3 epoch swaps ({})",
        queries.epoch()
    );
    assert!(max_epoch >= 1, "no reader ever saw a published epoch");
}
