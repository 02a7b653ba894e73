//! The cross-commit trajectory pin.
//!
//! `tests/determinism.rs` proves a build agrees with *itself* (killed and
//! resumed equals uninterrupted, traced equals untraced). It cannot see a
//! refactor that moves every trajectory of an engine the same way. This
//! suite can: each case below runs a kill → resume crawl and compares a
//! digest of everything it produced against a constant that was printed
//! by a build of an **older commit**, never by the code under test.
//!
//! Regenerating the constants (only when a change is *meant* to move a
//! trajectory): check out the parent of that change into a scratch
//! directory, copy this file and its `[[test]]` entry in
//! `crates/webevo/Cargo.toml` there, and run
//!
//! ```sh
//! cargo test --release -p webevo --test trajectory_golden -- --ignored --nocapture
//! ```
//!
//! then paste the printed rows over [`GOLDEN`]. A change that moves only
//! the snapshot layout re-pins the `state` column alone, from the parent
//! patched with nothing but the new encoding. The rows checked in here:
//! `metrics`, `fetches` and `passes` of the EP rows were printed at commit
//! 8490ee6 (the last commit with two incremental engine source files),
//! and those of the `incremental-eb` row at commit 458a729. The `state`
//! column was printed at commit e9cce91 with only the snapshot version
//! bumped to 5 and the snapshot written and read in the version-5 layout:
//! one `passes` counter; no `queued` set (rebuilt from the queue),
//! CrawlModule counters, stored-page `admitted` day, fetcher outcome
//! counters or periodic `cycles`; periodic `first_visible` as a page set;
//! `routing` a plain field. That build printed the other three columns
//! unchanged.
//!
//! The `state` values of `threaded-1`, `threaded-4` and
//! `fleet-2x-threaded-2` were re-pinned when the pool executor began
//! fetching through the session's fetcher: its snapshots now carry the
//! fetcher's state (`fetcher: Some(..)`) in an unchanged layout. The
//! check behind the re-pin: with each final state's (for the fleet, each
//! on-disk snapshot's) `fetcher` set to `None` and re-encoded, the new
//! build printed exactly the values these rows held before —
//! `0x98e43a4384871851`, `0x5d720583df1ddbfa` and `0xccaf9b8804c1e190` —
//! and its other three columns unchanged.
//!
//! The `multi-block` row was added, and printed at commit c11bceb, before
//! the PageRank kernel began grouping its targets within blocks of 4,096
//! positions. Every other row runs a collection of at most 50 pages, one
//! block; this one holds more than 8,192 pages at its kill, so the passes
//! after its resume solve over two full blocks and a partial third, and
//! its `state` column, a hash of the snapshot bytes, pins every
//! importance bit they wrote.

use std::path::PathBuf;
use webevo::prelude::*;
use webevo::store::{encode_snapshot, fnv64, SNAPSHOT_FILE, WAL_FILE};

/// What one case leaves behind: a digest of every metrics channel, the
/// raw counters (`passes` is 0 for the fleet, which does not expose one),
/// and a digest of the final engine state's snapshot bytes (for the
/// fleet: of every shard's on-disk snapshot and WAL).
#[derive(Debug, PartialEq, Eq)]
struct Digest {
    metrics: u64,
    fetches: u64,
    passes: u64,
    state: u64,
}

/// `(case, digest)` rows printed by `print_golden_digests` at the commit
/// named in the module docs.
const GOLDEN: &[(&str, Digest)] = &[
    ("incremental", Digest { metrics: 0x31f48a784d343cc9, fetches: 350, passes: 34, state: 0xf273120945c399aa }),
    ("incremental-eb", Digest { metrics: 0x7ad10033e7f24e0f, fetches: 350, passes: 34, state: 0xf80bb1a5db0f20b3 }),
    ("threaded-1", Digest { metrics: 0x60f7ffbd29fd7fc1, fetches: 350, passes: 34, state: 0x7873407699110552 }),
    ("threaded-4", Digest { metrics: 0x7d82a0f0afc2d1e8, fetches: 350, passes: 34, state: 0x5c689074d6a7d27b }),
    ("fleet-2x-threaded-2", Digest { metrics: 0x3ddff81b39e3510d, fetches: 321, passes: 0, state: 0x3b8fc96e331c0293 }),
    ("multi-block", Digest { metrics: 0x60933b1a0d5a77c7, fetches: 16001, passes: 3, state: 0x5a9dff434d85e887 }),
];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webevo-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn push_f64s(out: &mut Vec<u8>, values: impl IntoIterator<Item = f64>) {
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Every `CrawlMetrics` channel, f64s by bit pattern.
fn metrics_bytes(m: &CrawlMetrics, out: &mut Vec<u8>) {
    for (t, v) in m.freshness.rows().chain(m.age.rows()) {
        push_f64s(out, [t, v]);
    }
    for summary in [&m.new_page_latency, &m.discovery_latency] {
        let (n, mean, m2, min, max) = summary.raw_parts();
        out.extend_from_slice(&n.to_le_bytes());
        push_f64s(out, [mean, m2, min, max]);
    }
    out.extend_from_slice(&m.fetches.to_le_bytes());
    out.extend_from_slice(&m.failed_fetches.to_le_bytes());
    push_f64s(out, [m.peak_speed]);
}

/// What a single-node case crawls: its universe and collection, the
/// snapshot cadence, the day it is killed at and the day it is driven on
/// to.
struct Crawl {
    universe: UniverseConfig,
    capacity: usize,
    crawl_rate_per_day: f64,
    snapshot_every_days: f64,
    kill: f64,
    end: f64,
}

impl Crawl {
    /// A test-scale crawl under a 4-day snapshot cadence, killed at day
    /// 22.5 (off the cadence, the ranking grid and the sampling grid) and
    /// driven on to day 35.
    fn test_scale(seed: u64) -> Crawl {
        Crawl {
            universe: UniverseConfig::test_scale(seed),
            capacity: 50,
            crawl_rate_per_day: 10.0,
            snapshot_every_days: 4.0,
            kill: 22.5,
            end: 35.0,
        }
    }

    /// A crawl whose collection holds more than [`MULTI_BLOCK_PAGES`]
    /// pages when it is killed at day 2.5, so every ranking pass after
    /// the resume solves PageRank over more than two 4,096-position blocks
    /// of the kernel; driven on to day 4.
    fn multi_block() -> Crawl {
        Crawl {
            universe: UniverseConfig::scaled(1999, 30, 12_000, 5.0),
            capacity: 12_000,
            crawl_rate_per_day: 4_000.0,
            snapshot_every_days: 2.0,
            kill: 2.5,
            end: 4.0,
        }
    }
}

/// The collection the `multi-block` row must pass before its resume.
const MULTI_BLOCK_PAGES: usize = 8_192;

/// Single node: run `crawl` under its snapshot cadence, kill it, resume
/// from `snapshot + WAL tail` and drive on. The single-threaded kind
/// crawls through a failure-injecting fetcher, the threaded kinds through
/// the session's default one (as when these rows were first pinned);
/// either fetcher's replay state is part of the pinned snapshot. Under
/// `EstimatorKind::Eb` every stored page carries a posterior; under `Ep`
/// none does. Returns the digest and the collection's size at the kill.
fn single_node(
    tag: &str,
    kind: EngineKind,
    estimator: EstimatorKind,
    crawl: Crawl,
) -> (Digest, usize) {
    let dir = temp_dir(tag);
    let universe = WebUniverse::generate(crawl.universe);
    let config = IncrementalConfig {
        capacity: crawl.capacity,
        crawl_rate_per_day: crawl.crawl_rate_per_day,
        estimator,
        ..IncrementalConfig::monthly(crawl.capacity)
    };
    let external = kind == EngineKind::Incremental;
    let fetcher = || SimFetcher::new(&universe).with_failure_rate(0.15);
    let session = |fetcher: Option<&mut SimFetcher>, days: f64, resume: bool| {
        let mut builder = CrawlSession::builder()
            .engine(kind)
            .incremental(config.clone())
            .universe(&universe)
            .checkpoint(&dir, crawl.snapshot_every_days);
        if let Some(f) = fetcher {
            builder = builder.fetcher(f);
        }
        let mut session = builder.build().expect("checkpoint dir is writable");
        if resume {
            session.resume(days).expect("snapshot + WAL tail recover");
        } else {
            session.run(days).expect("the crawl runs");
        }
        let mut bytes = Vec::new();
        metrics_bytes(session.metrics(), &mut bytes);
        let digest = Digest {
            metrics: fnv64(&bytes),
            fetches: session.metrics().fetches,
            passes: session.passes(),
            state: fnv64(&encode_snapshot(&session.export_state())),
        };
        (digest, session.collection_len())
    };
    let mut killed_fetcher = fetcher();
    let (_, killed_len) = session(external.then_some(&mut killed_fetcher), crawl.kill, false);
    let mut resumed_fetcher = fetcher();
    let (digest, _) = session(external.then_some(&mut resumed_fetcher), crawl.end, true);
    let _ = std::fs::remove_dir_all(&dir);
    (digest, killed_len)
}

/// Fleet: 2 shards × `Threaded { workers: 2 }`, killed at day 23 with
/// shard 1's WAL torn mid-record, resumed to day 40 — the path that
/// replays routed-batch records between seq-tagged fetch records.
fn threaded_fleet() -> Digest {
    let dir = temp_dir("fleet");
    let universe = WebUniverse::generate(UniverseConfig::test_scale(50));
    let build = || {
        FleetSession::builder()
            .shards(2)
            .engine(EngineKind::Threaded { workers: 2 })
            .budget(CrawlBudget::paper_monthly(48).with_cycle_days(6.0))
            .universe(&universe)
            .checkpoint(&dir, 4.0)
            .build()
            .expect("a valid fleet")
    };
    let mut killed = build();
    killed.run(23.0).expect("the fleet runs");
    drop(killed);
    let wal_path = dir.join("shard-1").join(WAL_FILE);
    let wal = std::fs::read(&wal_path).expect("shard 1 has a WAL");
    std::fs::write(&wal_path, &wal[..wal.len() - 31]).expect("wal writable");

    let mut resumed = build();
    let results = resumed.resume(40.0).expect("the fleet recovers").clone();
    drop(resumed);
    assert!(results.routed_links() > 0, "cross-shard links were exchanged");

    let mut bytes = Vec::new();
    metrics_bytes(&results.merged, &mut bytes);
    let mut files = Vec::new();
    for report in &results.shards {
        metrics_bytes(&report.metrics, &mut bytes);
        bytes.extend_from_slice(&report.routed_links.to_le_bytes());
        bytes.extend_from_slice(&(report.collection_len as u64).to_le_bytes());
        let shard_dir = dir.join(format!("shard-{}", report.shard.0));
        files.extend(std::fs::read(shard_dir.join(SNAPSHOT_FILE)).expect("snapshot"));
        files.extend(std::fs::read(shard_dir.join(WAL_FILE)).expect("wal"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Digest {
        metrics: fnv64(&bytes),
        fetches: results.merged.fetches,
        passes: 0,
        state: fnv64(&files),
    }
}

fn cases() -> Vec<(&'static str, Digest)> {
    use EstimatorKind::{Eb, Ep};
    let test_scale = |tag, kind, estimator, seed| {
        single_node(tag, kind, estimator, Crawl::test_scale(seed)).0
    };
    let (multi_block, killed_len) =
        single_node("multi", EngineKind::Incremental, Ep, Crawl::multi_block());
    assert!(
        killed_len > MULTI_BLOCK_PAGES,
        "multi-block: {killed_len} pages at the kill, not past {MULTI_BLOCK_PAGES}"
    );
    vec![
        ("incremental", test_scale("inc", EngineKind::Incremental, Ep, 42)),
        ("incremental-eb", test_scale("inc-eb", EngineKind::Incremental, Eb, 42)),
        ("threaded-1", test_scale("thr1", EngineKind::Threaded { workers: 1 }, Ep, 43)),
        ("threaded-4", test_scale("thr4", EngineKind::Threaded { workers: 4 }, Ep, 43)),
        ("fleet-2x-threaded-2", threaded_fleet()),
        ("multi-block", multi_block),
    ]
}

#[test]
fn trajectories_match_the_digests_of_an_older_build() {
    let current = cases();
    assert_eq!(current.len(), GOLDEN.len(), "every case needs a golden row");
    for ((name, digest), (golden_name, golden)) in current.iter().zip(GOLDEN) {
        assert_eq!(name, golden_name);
        assert!(digest.fetches > 0, "{name}: the run should actually crawl");
        assert_eq!(digest, golden, "{name}: trajectory moved against the older build");
    }
}

/// Prints the rows of [`GOLDEN`]; see the module docs for when and where
/// to run it.
#[test]
#[ignore = "prints golden rows; run at the PARENT commit, never to bless the code under test"]
fn print_golden_digests() {
    for (name, d) in cases() {
        println!(
            "    (\"{name}\", Digest {{ metrics: {:#018x}, fetches: {}, passes: {}, state: {:#018x} }}),",
            d.metrics, d.fetches, d.passes, d.state
        );
    }
}
