//! `CrawlSession` builder validation: every misconfiguration surfaces as
//! a typed [`WebEvoError`] from `build()` or `resume()` — never a panic
//! and never a mid-crawl surprise.

use webevo::prelude::*;

fn universe() -> WebUniverse {
    WebUniverse::generate(UniverseConfig::test_scale(9))
}

/// `build()` must reject, with an `InvalidParameter`, a session whose
/// message mentions the offending knob.
fn assert_invalid(result: Result<CrawlSession<'_>, WebEvoError>, needle: &str) {
    match result {
        Err(WebEvoError::InvalidParameter(msg)) => assert!(
            msg.contains(needle),
            "error should mention {needle:?}, got: {msg}"
        ),
        Err(other) => panic!("expected InvalidParameter mentioning {needle:?}, got {other}"),
        Ok(_) => panic!("expected InvalidParameter mentioning {needle:?}, got a session"),
    }
}

#[test]
fn zero_capacity_is_a_typed_error() {
    let u = universe();
    for kind in [
        EngineKind::Periodic,
        EngineKind::Incremental,
        EngineKind::Threaded { workers: 2 },
    ] {
        assert_invalid(
            CrawlSession::builder()
                .engine(kind)
                .budget(CrawlBudget::paper_monthly(0))
                .universe(&u)
                .build(),
            "capacity",
        );
    }
}

#[test]
fn zero_workers_is_a_typed_error() {
    let u = universe();
    assert_invalid(
        CrawlSession::builder()
            .engine(EngineKind::Threaded { workers: 0 })
            .budget(CrawlBudget::paper_monthly(10))
            .universe(&u)
            .build(),
        "worker",
    );
}

#[test]
fn unwritable_checkpoint_dir_is_a_typed_error() {
    // A path below a regular file can never become a directory — the
    // probe fails for any user, root included.
    let u = universe();
    let blocker = std::env::temp_dir().join(format!("webevo-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("tmp writable");
    assert_invalid(
        CrawlSession::builder()
            .engine(EngineKind::Incremental)
            .budget(CrawlBudget::paper_monthly(10))
            .universe(&u)
            .checkpoint(blocker.join("nested"), 5.0)
            .build(),
        "checkpoint dir",
    );
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn missing_engine_universe_or_config_are_typed_errors() {
    let u = universe();
    assert_invalid(
        CrawlSession::builder()
            .budget(CrawlBudget::paper_monthly(10))
            .universe(&u)
            .build(),
        "engine",
    );
    assert_invalid(
        CrawlSession::builder()
            .engine(EngineKind::Incremental)
            .budget(CrawlBudget::paper_monthly(10))
            .build(),
        "universe",
    );
    assert_invalid(
        CrawlSession::builder()
            .engine(EngineKind::Incremental)
            .universe(&u)
            .build(),
        "budget",
    );
}

#[test]
fn bad_cadences_are_typed_errors() {
    let u = universe();
    assert_invalid(
        CrawlSession::builder()
            .engine(EngineKind::Incremental)
            .budget(CrawlBudget::paper_monthly(10).with_cycle_days(0.0))
            .universe(&u)
            .build(),
        "crawl rate",
    );
    assert_invalid(
        CrawlSession::builder()
            .engine(EngineKind::Periodic)
            .budget(CrawlBudget::paper_monthly(10).with_batch_window_days(45.0))
            .universe(&u)
            .build(),
        "window",
    );
    let dir = std::env::temp_dir().join(format!("webevo-cadence-{}", std::process::id()));
    assert_invalid(
        CrawlSession::builder()
            .engine(EngineKind::Incremental)
            .budget(CrawlBudget::paper_monthly(10))
            .universe(&u)
            .checkpoint(&dir, 0.0)
            .build(),
        "cadence",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_checkpointing_is_a_typed_error() {
    let u = universe();
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(CrawlBudget::paper_monthly(10))
        .universe(&u)
        .build()
        .expect("a valid session");
    assert!(matches!(
        session.resume(10.0),
        Err(WebEvoError::InvalidState(msg)) if msg.contains("checkpoint")
    ));
}

#[test]
fn resume_with_nothing_on_disk_is_a_typed_error() {
    let u = universe();
    let dir = std::env::temp_dir().join(format!("webevo-nothing-{}", std::process::id()));
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(CrawlBudget::paper_monthly(10))
        .universe(&u)
        .checkpoint(&dir, 5.0)
        .build()
        .expect("a valid session");
    assert!(matches!(
        session.resume(10.0),
        Err(WebEvoError::InvalidState(msg)) if msg.contains("nothing to resume")
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_with_mismatched_engine_kind_is_a_typed_error() {
    let u = universe();
    let dir = std::env::temp_dir().join(format!("webevo-mismatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);

    // Write an *incremental* checkpoint...
    let mut writer = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(budget)
        .universe(&u)
        .checkpoint(&dir, 2.0)
        .build()
        .expect("a valid session");
    writer.run(10.0).expect("the crawl runs");
    drop(writer);

    // ...then try to resume it as a periodic crawl.
    let mut wrong = CrawlSession::builder()
        .engine(EngineKind::Periodic)
        .budget(budget)
        .universe(&u)
        .checkpoint(&dir, 2.0)
        .build()
        .expect("a valid session");
    match wrong.resume(20.0) {
        Err(WebEvoError::InvalidState(msg)) => {
            assert!(
                msg.contains("incremental") && msg.contains("periodic"),
                "error should name both kinds: {msg}"
            );
        }
        other => panic!("expected a kind-mismatch error, got {other:?}"),
    }

    // A worker-count difference within the threaded family is NOT a
    // mismatch — but incremental vs threaded is.
    let mut threaded = CrawlSession::builder()
        .engine(EngineKind::Threaded { workers: 3 })
        .budget(budget)
        .universe(&u)
        .checkpoint(&dir, 2.0)
        .build()
        .expect("a valid session");
    assert!(matches!(
        threaded.resume(20.0),
        Err(WebEvoError::InvalidState(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_over_an_orphaned_wal_is_a_typed_error_not_silent_loss() {
    // A WAL with committed records but no snapshot (hand-deleted here;
    // historically, an old-build crash between the first WAL flush and
    // the first snapshot) must refuse to resume — before the fix this
    // read as "nothing to resume" and a fresh run truncated the log.
    let u = universe();
    let dir = std::env::temp_dir().join(format!("webevo-orphan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
    let mut writer = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(budget)
        .universe(&u)
        .checkpoint(&dir, 50.0) // cadence never reached: base snapshot + fat WAL
        .build()
        .expect("a valid session");
    writer.run(10.0).expect("the crawl runs");
    drop(writer);
    std::fs::remove_file(dir.join(webevo::store::SNAPSHOT_FILE)).expect("snapshot exists");

    let mut orphaned = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(budget)
        .universe(&u)
        .checkpoint(&dir, 50.0)
        .build()
        .expect("a valid session");
    match orphaned.resume(20.0) {
        Err(WebEvoError::InvalidState(msg)) => assert!(
            msg.contains("committed record"),
            "error should name the stranded work: {msg}"
        ),
        other => panic!("expected an orphaned-WAL error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `FleetSession` builder validation rides the same typed-error contract.
#[test]
fn fleet_misconfigurations_are_typed_errors() {
    let u = universe();
    let budget = CrawlBudget::paper_monthly(10);
    let assert_fleet_invalid = |result: Result<FleetSession<'_>, WebEvoError>, needle: &str| {
        match result {
            Err(WebEvoError::InvalidParameter(msg)) => assert!(
                msg.contains(needle),
                "error should mention {needle:?}, got: {msg}"
            ),
            Err(other) => panic!("expected InvalidParameter mentioning {needle:?}, got {other}"),
            Ok(_) => panic!("expected InvalidParameter mentioning {needle:?}, got a fleet"),
        }
    };
    assert_fleet_invalid(
        FleetSession::builder().budget(budget).universe(&u).shards(0).build(),
        "shard",
    );
    assert_fleet_invalid(
        FleetSession::builder().budget(budget).universe(&u).shards(11).build(),
        "capacity",
    );
    // Threaded shards are supported, with failure injection too.
    FleetSession::builder()
        .budget(budget)
        .universe(&u)
        .shards(2)
        .engine(EngineKind::Threaded { workers: 4 })
        .failure_rate(0.1)
        .build()
        .expect("a threaded fleet builds");
    assert_fleet_invalid(
        FleetSession::builder().budget(budget).universe(&u).shards(2).concurrency(0).build(),
        "concurrency",
    );
    assert_fleet_invalid(FleetSession::builder().universe(&u).shards(2).build(), "budget");
    assert_fleet_invalid(
        FleetSession::builder().budget(budget).shards(2).build(),
        "universe",
    );
}

#[test]
fn resume_to_a_covered_day_reports_recovered_state() {
    let u = universe();
    let dir = std::env::temp_dir().join(format!("webevo-covered-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
    let mut writer = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(budget)
        .universe(&u)
        .checkpoint(&dir, 2.0)
        .build()
        .expect("a valid session");
    writer.run(20.0).expect("the crawl runs");
    drop(writer);

    let mut reader = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .budget(budget)
        .universe(&u)
        .checkpoint(&dir, 2.0)
        .build()
        .expect("a valid session");
    // Day 5 is long past: resume() recovers and reports without crawling.
    let fetches = reader.resume(5.0).expect("recovers").fetches;
    assert!(fetches > 0, "recovered state carries the crawl so far");
    assert!(reader.clock().t >= 5.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A drive target that is not a finite day is refused up front, for every
/// engine kind and on every path to an engine — the trait, a session, a
/// fleet: NaN and +∞ can never be reached, so anything but an entry check
/// is a crawl that does not return (−∞ rides the same check). Nothing is
/// started, sampled or written on the way out.
#[test]
fn non_finite_drive_targets_are_typed_errors_before_anything_starts() {
    let u = universe();
    let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
    let dir = std::env::temp_dir().join(format!("webevo-nonfinite-{}", std::process::id()));
    let refused = |what: &str, result: Result<(), WebEvoError>| {
        assert!(matches!(result, Err(WebEvoError::InvalidState(_))), "{what}: {result:?}");
    };
    let untouched = |what: &str, engine: &dyn CrawlEngine| {
        assert!(!engine.started(), "{what}: the run must not be started");
        let (clock, metrics) = (engine.clock(), engine.metrics());
        assert_eq!(metrics.freshness.rows().count(), 0, "{what}: no metric row");
        assert_eq!((clock.t, metrics.fetches, metrics.peak_speed), (0.0, 0, 0.0), "{what}");
    };
    for kind in [
        EngineKind::Periodic,
        EngineKind::Incremental,
        EngineKind::Threaded { workers: 2 },
    ] {
        for target in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let what = format!("{kind} driven to {target}");
            let mut engine: Box<dyn CrawlEngine> = match kind {
                EngineKind::Periodic => Box::new(PeriodicCrawler::new(budget.periodic_config())),
                EngineKind::Incremental => {
                    Box::new(IncrementalCrawler::new(budget.incremental_config()))
                }
                EngineKind::Threaded { workers } => {
                    Box::new(ThreadedCrawler::new(budget.incremental_config(), workers))
                }
            };
            let mut fetcher = SimFetcher::new(&u);
            refused(&what, engine.drive(&u, &mut fetcher, &mut NoopHook, target).map(|_| ()));
            untouched(&what, &*engine);

            let session = CrawlSession::builder().engine(kind).budget(budget).universe(&u);
            let mut session = session.build().expect("a valid session");
            refused(&what, session.run(target).map(|_| ()));
            untouched(&what, session.engine());

            let _ = std::fs::remove_dir_all(&dir);
            let fleet = FleetSession::builder().engine(kind).budget(budget).universe(&u);
            let mut fleet = fleet.shards(2).checkpoint(&dir, 2.0).build().expect("a valid fleet");
            refused(&what, fleet.run(target).map(|_| ()));
            assert!(fleet.results().is_none(), "{what}: no fleet results");
            let written = std::fs::read_dir(&dir).expect("build created the fleet dir").count();
            assert_eq!(written, 0, "{what}: no manifest and no shard directory");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
