//! The deterministic-replay contract.
//!
//! Every stochastic component draws from a seeded [`SimRng`], so the whole
//! pipeline — universe generation, fetch simulation, crawler scheduling —
//! must replay bit-identically for a fixed `UniverseConfig` seed. These
//! tests pin that contract at the integration level, through the public
//! `CrawlSession` API: future refactors (sharding, async engines) must not
//! silently break replayability, and the session redesign itself is held
//! to the pre-redesign engines' byte-identical metrics.

use std::path::PathBuf;
use webevo::prelude::*;

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

/// Exact equality of every observable metric channel. `CrawlMetrics` does
/// not implement `PartialEq` (float series rarely should), so compare the
/// channels explicitly — bitwise, not within tolerance: replay must be
/// exact, down to the last fetch.
fn assert_metrics_identical(a: &CrawlMetrics, b: &CrawlMetrics) {
    assert_eq!(a.fetches, b.fetches, "fetch counts diverged");
    assert_eq!(a.failed_fetches, b.failed_fetches, "failure counts diverged");
    assert_eq!(a.peak_speed, b.peak_speed, "peak speed diverged");
    let rows_a: Vec<(f64, f64)> = a.freshness.rows().collect();
    let rows_b: Vec<(f64, f64)> = b.freshness.rows().collect();
    assert_eq!(rows_a, rows_b, "freshness series diverged");
    let age_a: Vec<(f64, f64)> = a.age.rows().collect();
    let age_b: Vec<(f64, f64)> = b.age.rows().collect();
    assert_eq!(age_a, age_b, "age series diverged");
    assert_eq!(a.new_page_latency.count(), b.new_page_latency.count());
    assert_eq!(a.new_page_latency.mean(), b.new_page_latency.mean());
    assert_eq!(a.discovery_latency.count(), b.discovery_latency.count());
    assert_eq!(a.discovery_latency.mean(), b.discovery_latency.mean());
}

#[test]
fn identical_seeds_replay_identical_metrics() {
    let first = crawl(42, 30.0);
    let second = crawl(42, 30.0);
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
    let first = run();
    let second = run();
    assert!(first.fetches > 0, "the run should actually crawl");
    assert_metrics_identical(&first, &second);
}

#[test]
fn different_seeds_diverge() {
    let a = crawl(42, 30.0);
    let b = crawl(43, 30.0);
    let rows_a: Vec<(f64, f64)> = a.freshness.rows().collect();
    let rows_b: Vec<(f64, f64)> = b.freshness.rows().collect();
    // Different universes must not produce the same trajectory; otherwise
    // the seed is not actually reaching the generator.
    assert_ne!(rows_a, rows_b, "seeds 42 and 43 produced identical runs");
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

// --------------------------------------------------------------------
// The durable-state extension of the replay contract: a run that is
// killed, recovered from `snapshot + WAL tail`, and continued must be
// indistinguishable — bit for bit, on every metric channel — from a run
// that was never interrupted. (webevo-store's acceptance bar, exercised
// through CrawlSession::resume for every engine.)
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
    /// survives the crash.
    failure_rate: f64,
    /// The fetcher's politeness limits; `None` keeps
    /// [`SimFetcher::new`]'s unrestricted default.
    politeness: Option<Politeness>,
    snapshot_every: f64,
    /// Deliberately not a checkpoint boundary.
    kill_day: f64,
    end_day: f64,
    min_snapshots: u64,
    /// Passes the resumed run must have completed by `end_day` — proof
    /// that the continuation crossed boundaries of its own.
    min_passes: u64,
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
/// dropping every in-memory structure, recover from `snapshot + WAL tail`
/// and continue to `end_day` in one call — and require the result to
/// match, on every metric channel and in the fetcher's replay state, the
/// same crawl never interrupted.
fn assert_killed_and_recovered_matches_uninterrupted(case: RecoveryCase) {
    let dir = temp_dir(case.tag);
    let universe = WebUniverse::generate(UniverseConfig::test_scale(case.seed));
    let fetcher = || {
        let fetcher = SimFetcher::new(&universe).with_failure_rate(case.failure_rate);
        match case.politeness {
            Some(politeness) => fetcher.with_politeness(politeness),
            None => fetcher,
        }
    };
    let mut killed_fetcher = fetcher();
    let mut killed = case.session(&universe, &mut killed_fetcher, Some(&dir));
    killed.run(case.kill_day).expect("the crawl runs");
    let stats = killed.checkpoint_stats().expect("checkpointing active");
    assert!(stats.snapshots >= case.min_snapshots, "{}: stats={stats:?}", case.tag);
    drop(killed);
    drop(killed_fetcher);

    // Sanity: what is on disk predates the kill point.
    let on_disk = recover(&dir).expect("snapshot decodes").expect("snapshot exists");
    assert!(on_disk.state.clock.t < case.kill_day, "snapshot predates the kill point");

    let mut resumed_fetcher = fetcher();
    let mut resumed = case.session(&universe, &mut resumed_fetcher, Some(&dir));
    resumed.resume(case.end_day).expect("snapshot + WAL tail recover");
    assert!(resumed.passes() >= case.min_passes, "{}: passes={}", case.tag, resumed.passes());
    let resumed_metrics = resumed.metrics().clone();
    drop(resumed);

    let mut reference_fetcher = fetcher();
    let mut reference = case.session(&universe, &mut reference_fetcher, None);
    reference.run(case.end_day).expect("the crawl runs");
    let reference_metrics = reference.metrics().clone();
    drop(reference);

    assert!(reference_metrics.fetches > 0, "the run should actually crawl");
    assert_metrics_identical(&reference_metrics, &resumed_metrics);
    assert!(reference_metrics.failed_fetches > 0, "failure injection active");
    assert_eq!(
        Fetcher::export_state(&reference_fetcher),
        Fetcher::export_state(&resumed_fetcher),
        "fetcher replay state diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn small_incremental_config() -> EngineConfig {
    EngineConfig::Incremental(IncrementalConfig {
        capacity: 50,
        crawl_rate_per_day: 10.0,
        ..IncrementalConfig::monthly(50)
    })
}

#[test]
fn incremental_killed_and_recovered_matches_uninterrupted() {
    assert_killed_and_recovered_matches_uninterrupted(RecoveryCase {
        tag: "inc-recover",
        kind: EngineKind::Incremental,
        seed: 42,
        config: small_incremental_config(),
        failure_rate: 0.15,
        politeness: None,
        snapshot_every: 5.0,
        kill_day: 23.0,
        end_day: 40.0,
        min_snapshots: 2,
        min_passes: 39,
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
        config: small_incremental_config(),
        failure_rate: 0.15,
        politeness: Some(Politeness::paper()),
        snapshot_every: 4.0,
        kill_day: 21.0,
        end_day: 35.0,
        min_snapshots: 2,
        min_passes: 34,
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
        failure_rate: 0.15,
        politeness: None,
        snapshot_every: 5.0,
        kill_day: 23.0,
        end_day: 70.0,
        min_snapshots: 1,
        min_passes: 2,
    });
}

#[test]
fn torn_wal_tail_is_discarded_not_misparsed() {
    let dir = temp_dir("torn-wal");
    let universe = WebUniverse::generate(UniverseConfig::test_scale(44));
    let config = IncrementalConfig {
        capacity: 40,
        crawl_rate_per_day: 8.0,
        ..IncrementalConfig::monthly(40)
    };

    // Long snapshot cadence: plenty of WAL accumulates past the snapshot.
    let mut killed = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(config.clone())
        .universe(&universe)
        .checkpoint(&dir, 50.0)
        .build()
        .expect("checkpoint dir is writable");
    killed.run(18.0).expect("the crawl runs");
    drop(killed);

    let intact = recover(&dir).expect("decodes").expect("exists");
    assert!(!intact.wal.is_empty(), "test needs a WAL tail to tear");

    // Tear the log mid-record, as a crash during a flush would.
    let wal_path = dir.join(webevo::store::WAL_FILE);
    let bytes = std::fs::read(&wal_path).expect("wal readable");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 37]).expect("wal writable");

    let torn = recover(&dir).expect("torn WAL must still decode").expect("exists");
    assert!(
        torn.wal.len() < intact.wal.len(),
        "truncation must shrink the committed tail ({} vs {})",
        torn.wal.len(),
        intact.wal.len()
    );

    // Recovery from the torn log loses only the uncommitted work — the
    // continued crawl re-fetches it and still matches the uninterrupted
    // reference exactly.
    let mut resumed = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(config.clone())
        .universe(&universe)
        .checkpoint(&dir, 50.0)
        .build()
        .expect("checkpoint dir is writable");
    resumed.resume(25.0).expect("torn checkpoint recovers");

    let mut reference = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(config)
        .universe(&universe)
        .build()
        .expect("a valid session");
    reference.run(25.0).expect("the crawl runs");
    assert_metrics_identical(reference.metrics(), resumed.metrics());
    let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(sa.shard, sb.shard);
        assert_eq!(sa.capacity, sb.capacity);
        assert_eq!(sa.sites, sb.sites);
        assert_eq!(sa.collection_len, sb.collection_len, "{} diverged", sa.shard);
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

#[test]
fn session_killed_before_first_cadence_snapshot_recovers_from_base() {
    // The recovery bugfix pinned end to end: with a snapshot cadence the
    // run never reaches, the only snapshot on disk is the base (day-0)
    // one Checkpointer::create writes, and ALL crawl progress lives in
    // the WAL. Before the fix this directory recovered as `Ok(None)` and
    // a restart truncated the log — silently discarding committed work.
    let dir = temp_dir("base-snapshot");
    let universe = WebUniverse::generate(UniverseConfig::test_scale(46));
    let config = IncrementalConfig {
        capacity: 40,
        crawl_rate_per_day: 8.0,
        ..IncrementalConfig::monthly(40)
    };
    let failure_rate = 0.2;

    let mut killed_fetcher = SimFetcher::new(&universe).with_failure_rate(failure_rate);
    let mut killed = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(config.clone())
        .universe(&universe)
        .fetcher(&mut killed_fetcher)
        .checkpoint(&dir, 50.0)
        .build()
        .expect("checkpoint dir is writable");
    killed.run(13.0).expect("the crawl runs");
    drop(killed);
    drop(killed_fetcher);

    // What survived the kill is exactly `day-0 snapshot + WAL`.
    let on_disk = recover(&dir).expect("decodes").expect("base snapshot exists");
    assert_eq!(on_disk.state.fetch_seq, 0, "only the base snapshot was written");
    assert!(!on_disk.state.seeded, "the base snapshot predates seeding");
    assert!(!on_disk.wal.is_empty(), "all committed work lives in the WAL");

    let mut resumed_fetcher = SimFetcher::new(&universe).with_failure_rate(failure_rate);
    let mut resumed = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(config.clone())
        .universe(&universe)
        .fetcher(&mut resumed_fetcher)
        .checkpoint(&dir, 50.0)
        .build()
        .expect("checkpoint dir is writable");
    resumed.resume(20.0).expect("base snapshot + WAL recover");
    let resumed_metrics = resumed.metrics().clone();
    drop(resumed);

    let mut reference_fetcher = SimFetcher::new(&universe).with_failure_rate(failure_rate);
    let mut reference = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(config)
        .universe(&universe)
        .fetcher(&mut reference_fetcher)
        .build()
        .expect("a valid session");
    reference.run(20.0).expect("the crawl runs");

    assert!(reference.metrics().failed_fetches > 0, "failure injection active");
    assert_metrics_identical(reference.metrics(), &resumed_metrics);
    assert_eq!(
        Fetcher::export_state(&reference_fetcher),
        Fetcher::export_state(&resumed_fetcher),
        "fetcher replay state diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn periodic_killed_before_any_boundary_restarts_cleanly() {
    // The empty-WAL edge of the base-snapshot path: the periodic engine's
    // first pass boundary is its first shadow swap (day 7 here), so a
    // kill at day 5 leaves the base snapshot and an empty log — recovery
    // must restart the run from day 0 and still match an uninterrupted
    // run exactly.
    let dir = temp_dir("per-base");
    let universe = WebUniverse::generate(UniverseConfig::test_scale(47));
    let config = PeriodicConfig::monthly(50);

    let mut killed = CrawlSession::builder()
        .engine(EngineKind::Periodic)
        .periodic(config.clone())
        .universe(&universe)
        .checkpoint(&dir, 5.0)
        .build()
        .expect("checkpoint dir is writable");
    killed.run(5.0).expect("the crawl runs");
    drop(killed);

    let on_disk = recover(&dir).expect("decodes").expect("base snapshot exists");
    assert!(!on_disk.state.seeded && on_disk.wal.is_empty());

    let mut resumed = CrawlSession::builder()
        .engine(EngineKind::Periodic)
        .periodic(config.clone())
        .universe(&universe)
        .checkpoint(&dir, 5.0)
        .build()
        .expect("checkpoint dir is writable");
    resumed.resume(40.0).expect("base snapshot recovers");

    let mut reference = CrawlSession::builder()
        .engine(EngineKind::Periodic)
        .periodic(config)
        .universe(&universe)
        .build()
        .expect("a valid session");
    reference.run(40.0).expect("the crawl runs");
    assert_metrics_identical(reference.metrics(), resumed.metrics());
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------------
// The observability extension of the replay contract: attaching a fully
// recording `ObsSink` must not perturb the crawl by a single byte.
// Spans time stages out of band and no observed value feeds back into a
// crawl decision, so a traced run and a Noop-sink run must agree on
// every metric channel AND on the raw checkpoint bytes (snapshot + WAL)
// they leave on disk.
// --------------------------------------------------------------------

/// Run `kind` twice over the same universe — once under a recording
/// sink, once untraced — and require byte-identical crawl output. Also
/// require the traced run to have actually observed something, so the
/// test cannot pass vacuously against a sink that was never wired in.
fn assert_observation_is_free(tag: &str, kind: EngineKind) {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(48));
    let budget = CrawlBudget::paper_monthly(50).with_cycle_days(6.0);
    let run = |suffix: &str, obs: Option<&ObsSink>| {
        let dir = temp_dir(&format!("{tag}-{suffix}"));
        let mut builder = CrawlSession::builder()
            .engine(kind)
            .budget(budget)
            .universe(&universe)
            .checkpoint(&dir, 6.0);
        if let Some(sink) = obs {
            builder = builder.obs(sink.clone());
        }
        let mut session = builder.build().expect("checkpoint dir is writable");
        session.run(30.0).expect("the crawl runs");
        let metrics = session.metrics().clone();
        drop(session);
        let snapshot = std::fs::read(dir.join(webevo::store::SNAPSHOT_FILE)).expect("snapshot");
        let wal = std::fs::read(dir.join(webevo::store::WAL_FILE)).expect("wal");
        let _ = std::fs::remove_dir_all(&dir);
        (metrics, snapshot, wal)
    };

    let sink = ObsSink::recording();
    let (traced, traced_snapshot, traced_wal) = run("traced", Some(&sink));
    let (plain, plain_snapshot, plain_wal) = run("plain", None);

    assert!(plain.fetches > 0, "the run should actually crawl");
    assert_metrics_identical(&plain, &traced);
    assert_eq!(plain_snapshot, traced_snapshot, "snapshot bytes diverged under observation");
    assert_eq!(plain_wal, traced_wal, "WAL bytes diverged under observation");

    let spans = sink.spans();
    assert!(!spans.is_empty(), "the traced run recorded no spans");
    // The ranking stages, each opened on the thread that does the work: the
    // pool's scoped solve spans itself.
    let pass_stages: &[Stage] = match kind {
        EngineKind::Periodic => &[],
        _ => &[Stage::RankBuild, Stage::RankSolve, Stage::Reallocate],
    };
    let stages =
        [Stage::Drive, Stage::Pass, Stage::FetchBatch, Stage::Sample, Stage::WalFlush, Stage::SnapshotEncode];
    for &stage in stages.iter().chain(pass_stages)
    {
        assert!(
            spans.iter().any(|s| s.stage == stage),
            "no {} span recorded",
            stage.name()
        );
    }
    let registry = sink.merged_registry().expect("one sink, one edge set");
    assert!(registry.counter("fetch_ok_total") > 0, "fetch counters never fired");
    assert!(registry.counter("wal_fsyncs_total") > 0, "fsync counter never fired");
}

#[test]
fn incremental_traced_run_is_byte_identical_to_untraced() {
    assert_observation_is_free("obs-inc", EngineKind::Incremental);
}

#[test]
fn periodic_traced_run_is_byte_identical_to_untraced() {
    assert_observation_is_free("obs-per", EngineKind::Periodic);
}

#[test]
fn threaded_traced_run_is_byte_identical_to_untraced() {
    assert_observation_is_free("obs-thr", EngineKind::Threaded { workers: 4 });
}

#[test]
fn fleet_traced_run_is_byte_identical_to_untraced() {
    // The 4-shard variant: one fleet-wide sink, per-shard views via
    // `for_shard`. Traced and untraced fleets must agree on the merged
    // metrics, every per-shard channel, and every shard's checkpoint
    // bytes; the trace must cover the fleet-only stages too.
    let universe = WebUniverse::generate(UniverseConfig::test_scale(49));
    let budget = CrawlBudget::paper_monthly(36).with_cycle_days(6.0);
    let shards = 4u32;
    let run = |tag: &str, obs: Option<&ObsSink>| {
        let dir = temp_dir(tag);
        let mut builder = FleetSession::builder()
            .shards(shards)
            .budget(budget)
            .universe(&universe)
            .checkpoint(&dir, 5.0);
        if let Some(sink) = obs {
            builder = builder.obs(sink.clone());
        }
        let mut fleet = builder.build().expect("a valid fleet");
        let results = fleet.run(25.0).expect("the fleet runs").clone();
        drop(fleet);
        let mut files = Vec::new();
        for shard in 0..shards {
            let shard_dir = dir.join(format!("shard-{shard}"));
            files.push(std::fs::read(shard_dir.join(webevo::store::SNAPSHOT_FILE)).expect("snapshot"));
            files.push(std::fs::read(shard_dir.join(webevo::store::WAL_FILE)).expect("wal"));
        }
        let _ = std::fs::remove_dir_all(&dir);
        (results, files)
    };

    let sink = ObsSink::recording();
    let (traced, traced_files) = run("fleet-obs-traced", Some(&sink));
    let (plain, plain_files) = run("fleet-obs-plain", None);

    assert!(plain.merged.fetches > 0, "the fleet should actually crawl");
    assert_fleet_identical(&plain, &traced);
    assert_eq!(plain_files, traced_files, "shard checkpoint bytes diverged under observation");

    let spans = sink.spans();
    for stage in [
        Stage::Drive,
        Stage::Pass,
        Stage::FetchBatch,
        Stage::Sample,
        Stage::WalFlush,
        Stage::SnapshotEncode,
        Stage::ExchangeBarrier,
    ] {
        assert!(
            spans.iter().any(|s| s.stage == stage),
            "no {} span recorded",
            stage.name()
        );
    }
    for shard in 0..shards {
        assert!(
            spans.iter().any(|s| s.shard == Some(ShardId(shard))),
            "shard {shard} recorded no spans"
        );
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
// The serving extension of the replay contract: attaching the
// epoch-swapped query layer (`CrawlSession::serve` /
// `FleetSession::serve`) must not perturb the crawl by a single byte.
// The boundary publisher is write-only — it reads the arenas at a pass
// boundary and nothing it computes feeds back into a crawl decision —
// so a served run and an unserved run must agree on every metric
// channel AND on the raw checkpoint bytes they leave on disk, even with
// reader threads hammering the service for the whole run.
// --------------------------------------------------------------------

/// Run `kind` twice over the same universe — once with the serving layer
/// attached and a reader thread querying throughout, once unserved — and
/// require byte-identical crawl output. Also require the served run to
/// have actually published epochs and answered queries, so the test
/// cannot pass vacuously against a publisher that was never wired in.
fn assert_serving_is_free(tag: &str, kind: EngineKind) {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(48));
    let budget = CrawlBudget::paper_monthly(50).with_cycle_days(6.0);
    let run = |suffix: &str, serve: bool| {
        let dir = temp_dir(&format!("{tag}-{suffix}"));
        let mut session = CrawlSession::builder()
            .engine(kind)
            .budget(budget)
            .universe(&universe)
            .checkpoint(&dir, 6.0)
            .build()
            .expect("checkpoint dir is writable");
        let mut served = None;
        if serve {
            let queries = session.serve();
            assert_eq!(queries.epoch(), 0, "readers start on the empty epoch-0 view");
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let reader = std::thread::spawn({
                let queries = queries.clone();
                let stop = std::sync::Arc::clone(&stop);
                move || {
                    let mut answered = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let view = queries.view();
                        assert_eq!(view.info().pages, view.len());
                        let _ = view.freshness();
                        answered += 1;
                    }
                    answered
                }
            });
            session.run(30.0).expect("the crawl runs");
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let answered = reader.join().expect("reader thread");
            served = Some((queries, answered));
        } else {
            session.run(30.0).expect("the crawl runs");
        }
        let metrics = session.metrics().clone();
        drop(session);
        if let Some((queries, answered)) = &served {
            assert!(queries.epoch() >= 1, "no epoch was ever published");
            assert!(!queries.view().is_empty(), "the published view is empty");
            assert!(*answered > 0, "the reader thread answered nothing");
        }
        let snapshot = std::fs::read(dir.join(webevo::store::SNAPSHOT_FILE)).expect("snapshot");
        let wal = std::fs::read(dir.join(webevo::store::WAL_FILE)).expect("wal");
        let _ = std::fs::remove_dir_all(&dir);
        (metrics, snapshot, wal)
    };

    let (served, served_snapshot, served_wal) = run("served", true);
    let (plain, plain_snapshot, plain_wal) = run("plain", false);

    assert!(plain.fetches > 0, "the run should actually crawl");
    assert_metrics_identical(&plain, &served);
    assert_eq!(plain_snapshot, served_snapshot, "snapshot bytes diverged under serving");
    assert_eq!(plain_wal, served_wal, "WAL bytes diverged under serving");
}

#[test]
fn incremental_served_run_is_byte_identical_to_unserved() {
    assert_serving_is_free("serve-inc", EngineKind::Incremental);
}

#[test]
fn periodic_served_run_is_byte_identical_to_unserved() {
    assert_serving_is_free("serve-per", EngineKind::Periodic);
}

#[test]
fn threaded_served_run_is_byte_identical_to_unserved() {
    assert_serving_is_free("serve-thr", EngineKind::Threaded { workers: 4 });
}

#[test]
fn fleet_served_run_is_byte_identical_to_unserved() {
    // The 4-shard variant: per-shard publishers stage views, the
    // coordinator merges them into one fleet view at every exchange
    // barrier. Served and unserved fleets must agree on the merged
    // metrics, every per-shard channel, and every shard's checkpoint
    // bytes — and the served fleet must have published a merged view
    // spanning all shards' pages.
    let universe = WebUniverse::generate(UniverseConfig::test_scale(49));
    let budget = CrawlBudget::paper_monthly(36).with_cycle_days(6.0);
    let shards = 4u32;
    let run = |tag: &str, serve: bool| {
        let dir = temp_dir(tag);
        let mut fleet = FleetSession::builder()
            .shards(shards)
            .budget(budget)
            .universe(&universe)
            .checkpoint(&dir, 5.0)
            .build()
            .expect("a valid fleet");
        let queries = serve.then(|| fleet.serve());
        let results = fleet.run(25.0).expect("the fleet runs").clone();
        if let Some(queries) = &queries {
            assert!(queries.epoch() >= 1, "no fleet view was ever merged");
            let view = queries.view();
            assert_eq!(
                view.len(),
                results.collection_len(),
                "the merged view must span every shard's collection"
            );
            let fleet_fetches: u64 = view.info().fetch_seq;
            assert!(fleet_fetches > 0, "the merged view carries no fetch progress");
        }
        drop(fleet);
        let mut files = Vec::new();
        for shard in 0..shards {
            let shard_dir = dir.join(format!("shard-{shard}"));
            files.push(std::fs::read(shard_dir.join(webevo::store::SNAPSHOT_FILE)).expect("snapshot"));
            files.push(std::fs::read(shard_dir.join(webevo::store::WAL_FILE)).expect("wal"));
        }
        let _ = std::fs::remove_dir_all(&dir);
        (results, files)
    };

    let (served, served_files) = run("fleet-serve-on", true);
    let (plain, plain_files) = run("fleet-serve-off", false);

    assert!(plain.merged.fetches > 0, "the fleet should actually crawl");
    assert_fleet_identical(&plain, &served);
    assert_eq!(plain_files, served_files, "shard checkpoint bytes diverged under serving");
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
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let queries = queries.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut checks = 0u64;
                // Check first, test `stop` after: a reader the scheduler
                // starves until the crawl is over still runs one check.
                loop {
                    let view = queries.view();
                    let info = view.info();
                    // One snapshot, one epoch: every number below comes
                    // from the same immutable view.
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
                    let rollup_pages: usize =
                        view.site_rollups().iter().map(|r| r.pages).sum();
                    assert!(rollup_pages <= info.pages);
                    if let Some(first) = view.pages().first() {
                        // Point lookups answer from the same epoch too.
                        assert_eq!(
                            view.get(first.page).expect("first page resolves").page,
                            first.page
                        );
                    }
                    checks += 1;
                    if stop.load(std::sync::atomic::Ordering::Relaxed) {
                        break;
                    }
                }
                (last_epoch, checks)
            })
        })
        .collect();
    session.run(20.0).expect("the crawl runs");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut max_epoch = 0u64;
    for reader in readers {
        let (epoch, checks) = reader.join().expect("reader thread");
        assert!(checks > 0, "a reader thread never ran a check");
        max_epoch = max_epoch.max(epoch);
    }
    assert!(
        queries.epoch() >= 3,
        "the crawl crossed fewer than 3 epoch swaps ({})",
        queries.epoch()
    );
    assert!(max_epoch >= 1, "no reader ever saw a published epoch");
}
