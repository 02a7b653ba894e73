//! Golden fixture of the live on-disk formats: a checked-in
//! `WEBEVO-SNAPSHOT 5` + `WEBEVO-WAL 2` checkpoint must keep decoding,
//! re-encoding to itself, and resuming byte-identically.
//!
//! The pair under `tests/fixtures/golden/` comes from a deterministic run
//! (universe `test_scale(42)`, incremental engine, capacity 50 at 10
//! fetches/day, 15% transient-failure injection, snapshot cadence 5 days,
//! killed at day 23 — the same shape `tests/determinism.rs` pins). The WAL
//! was written by the build that preceded the removal of the JSON twin
//! formats. The snapshot was transcoded from the version-4 fixture (which
//! commit 458a729 wrote with only its stored-page encoding patched) by a
//! build of commit e9cce91 with only its snapshot encoding patched to the
//! version-5 layout: it decoded the version-4 payload and re-encoded it.
//! The same patched build, run to the kill point, wrote identical bytes.
//! The fixture is the proof that a change to the persisted types'
//! Rust-side shape moved no byte on disk: the bytes here are not produced
//! by the code under test.

use std::path::{Path, PathBuf};
use webevo_core::engine::EngineKind;
use webevo_core::{CrawlMetrics, IncrementalConfig};
use webevo_sim::{Fetcher, SimFetcher, UniverseConfig, WebUniverse};
use webevo_store::codec::SNAPSHOT_VERSION;
use webevo_store::wal::WAL_HEADER;
use webevo_store::{
    decode_snapshot, encode_snapshot, recover, CrawlSession, SNAPSHOT_FILE, WAL_FILE,
};
use webevo_types::BinEncode;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webevo-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The exact run parameters the fixture was generated with.
fn fixture_config() -> IncrementalConfig {
    IncrementalConfig {
        capacity: 50,
        crawl_rate_per_day: 10.0,
        ..IncrementalConfig::monthly(50)
    }
}

const FIXTURE_SEED: u64 = 42;
const FIXTURE_FAILURE_RATE: f64 = 0.15;
const FIXTURE_CADENCE_DAYS: f64 = 5.0;
const FIXTURE_KILL_DAY: f64 = 23.0;

/// Run the fixture's crawl into `dir` and kill it at the fixture's kill
/// point, leaving a snapshot plus a committed WAL tail.
fn run_to_kill_point(dir: &Path) {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(FIXTURE_SEED));
    let mut fetcher = SimFetcher::new(&universe).with_failure_rate(FIXTURE_FAILURE_RATE);
    let mut session = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(fixture_config())
        .universe(&universe)
        .fetcher(&mut fetcher)
        .checkpoint(dir, FIXTURE_CADENCE_DAYS)
        .build()
        .expect("checkpoint dir is writable");
    session.run(FIXTURE_KILL_DAY).expect("the crawl runs");
}

/// Every metric channel as wire bytes, each `f64` by its bits.
fn bytes(m: &CrawlMetrics) -> Vec<u8> {
    let mut out = Vec::new();
    m.bin_encode(&mut out);
    out
}

#[test]
fn fixture_reencodes_to_itself() {
    let snapshot = std::fs::read(fixture_dir().join(SNAPSHOT_FILE)).expect("fixture exists");
    assert!(
        snapshot.starts_with(format!("WEBEVO-SNAPSHOT {SNAPSHOT_VERSION} ").as_bytes()),
        "fixture snapshot is the live format"
    );
    let wal = std::fs::read(fixture_dir().join(WAL_FILE)).expect("fixture exists");
    assert!(wal.starts_with(format!("{WAL_HEADER}\n").as_bytes()), "fixture WAL is the live format");
    let state = decode_snapshot(&snapshot).expect("fixture decodes");
    assert!(encode_snapshot(&state) == snapshot, "decode → encode moved a byte");
}

#[test]
fn current_build_writes_the_fixture_bytes() {
    let dir = scratch_dir("write");
    run_to_kill_point(&dir);
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        let written = std::fs::read(dir.join(file)).expect("checkpoint written");
        let golden = std::fs::read(fixture_dir().join(file)).expect("fixture exists");
        assert!(
            written == golden,
            "{file}: this build writes different bytes than the fixture — a wire-format \
             change needs a version bump; a deliberate trajectory change needs \
             `-- --ignored regenerate_fixture`"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixture_resumes_onto_the_uninterrupted_trajectory() {
    // Stage a copy: resume continues the lineage in the directory — its
    // log grows and later snapshots replace the fixture's — and the
    // fixture itself must stay pristine.
    let dir = scratch_dir("resume");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(fixture_dir().join(file), dir.join(file)).expect("fixture copied");
    }
    let universe = WebUniverse::generate(UniverseConfig::test_scale(FIXTURE_SEED));

    // A snapshot from before the kill point plus a committed WAL tail to
    // replay.
    let on_disk = recover(&dir).expect("fixture decodes").expect("snapshot exists");
    assert!(on_disk.state.clock.t < FIXTURE_KILL_DAY, "snapshot predates the kill point");
    assert!(!on_disk.wal.is_empty(), "fixture carries a WAL tail");

    // Resume through the session API and continue to day 40.
    let mut resumed_fetcher =
        SimFetcher::new(&universe).with_failure_rate(FIXTURE_FAILURE_RATE);
    let mut resumed = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(fixture_config())
        .universe(&universe)
        .fetcher(&mut resumed_fetcher)
        .checkpoint(&dir, FIXTURE_CADENCE_DAYS)
        .build()
        .expect("checkpoint dir is writable");
    resumed.resume(40.0).expect("the fixture recovers");
    let resumed_metrics = resumed.metrics().clone();
    drop(resumed);

    // Reference: the same crawl, never interrupted.
    let mut reference_fetcher =
        SimFetcher::new(&universe).with_failure_rate(FIXTURE_FAILURE_RATE);
    let mut reference = CrawlSession::builder()
        .engine(EngineKind::Incremental)
        .incremental(fixture_config())
        .universe(&universe)
        .fetcher(&mut reference_fetcher)
        .build()
        .expect("a valid session");
    reference.run(40.0).expect("the crawl runs");
    let reference_metrics = reference.metrics().clone();
    drop(reference);

    assert!(reference_metrics.failed_fetches > 0, "failure injection active");
    let same = bytes(&reference_metrics) == bytes(&resumed_metrics);
    assert!(same, "metrics diverged across the resume");
    assert_eq!(
        Fetcher::export_state(&reference_fetcher),
        Fetcher::export_state(&resumed_fetcher),
        "fetcher replay state diverged across the resume"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rewrite the fixture with the current build. The fixture pins the
/// *formats*, not the trajectory — after a deliberate change to the
/// crawl's observable behaviour (e.g. where metrics samples land), run
/// this once, from a commit whose wire format is unchanged:
///
/// ```sh
/// cargo test -p webevo-store --test golden_fixture -- --ignored regenerate_fixture
/// ```
#[test]
#[ignore = "rewrites tests/fixtures/golden; run only after a deliberate trajectory change"]
fn regenerate_fixture() {
    let dir = scratch_dir("regen");
    run_to_kill_point(&dir);
    let on_disk = recover(&dir).expect("lineage decodes").expect("snapshot exists");
    assert!(on_disk.state.clock.t < FIXTURE_KILL_DAY, "snapshot predates the kill point");
    assert!(!on_disk.wal.is_empty(), "a committed WAL tail survives the kill");
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(dir.join(file), fixture_dir().join(file)).expect("fixture written");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
