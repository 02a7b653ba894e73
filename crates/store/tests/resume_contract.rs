//! The resume contract: `CrawlSession::resume` continues the lineage it
//! recovered instead of starting a new one. The snapshot on disk stays
//! byte for byte, the write-ahead log is cut back to the end of the
//! committed prefix the resume adopted and appended to from there, and
//! the next cadence snapshot counts from the day the crawl resumes at.
//! Each case is run for the incremental, threaded and periodic engines;
//! two fleet cases cover a kill in the middle of a link exchange — the
//! second with a one-day snapshot cadence, whose barrier snapshot must
//! land before the exchange — and the last two cases cover
//! `Checkpointer`'s drop, which joins the off-thread snapshot encoder.

use std::fs;
use std::path::{Path, PathBuf};
use webevo_core::engine::{CrawlBudget, EngineKind};
use webevo_core::{
    CrawlEngine, CrawlHook, CrawlMetrics, CrawlerState, FetchRecord, IncrementalConfig,
    IncrementalCrawler, WalEvent,
};
use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};
use webevo_store::{
    read_wal, recover, CheckpointConfig, Checkpointer, CrawlSession, FleetSession, SNAPSHOT_FILE,
    WAL_FILE,
};
use webevo_types::BinEncode;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webevo-resume-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One engine kind under the contract.
struct Case {
    tag: &'static str,
    kind: EngineKind,
    budget: CrawlBudget,
    /// Days between the engine's pass boundaries: ranking passes for the
    /// incremental kinds, shadow swaps (one per cycle) for the periodic.
    boundary_days: f64,
    /// The kill day: past a few boundaries, and on none of them.
    kill_day: f64,
    /// Where every continued run ends, to be compared with an
    /// uninterrupted run.
    end_day: f64,
}

fn cases() -> [Case; 3] {
    let incremental = CrawlBudget::paper_monthly(40).with_cycle_days(5.0);
    [
        Case {
            tag: "inc",
            kind: EngineKind::Incremental,
            budget: incremental,
            boundary_days: 1.0,
            kill_day: 12.5,
            end_day: 20.0,
        },
        Case {
            tag: "thr",
            kind: EngineKind::Threaded { workers: 2 },
            budget: incremental,
            boundary_days: 1.0,
            kill_day: 12.5,
            end_day: 20.0,
        },
        Case {
            tag: "per",
            kind: EngineKind::Periodic,
            budget: CrawlBudget::paper_monthly(40).with_cycle_days(8.0),
            boundary_days: 8.0,
            kill_day: 13.0,
            end_day: 34.0,
        },
    ]
}

impl Case {
    fn session<'a>(
        &self,
        universe: &'a WebUniverse,
        checkpoint: Option<(&Path, f64)>,
    ) -> CrawlSession<'a> {
        let mut builder =
            CrawlSession::builder().engine(self.kind).budget(self.budget).universe(universe);
        if let Some((dir, every)) = checkpoint {
            builder = builder.checkpoint(dir, every);
        }
        builder.build().expect("a valid session")
    }

    /// The uninterrupted run every continuation must land on.
    fn reference(&self, universe: &WebUniverse) -> Vec<u8> {
        let mut session = self.session(universe, None);
        bytes(session.run(self.end_day).expect("the crawl runs"))
    }
}

/// Every metric channel as wire bytes, each `f64` by its bits.
fn bytes(m: &CrawlMetrics) -> Vec<u8> {
    let mut out = Vec::new();
    m.bin_encode(&mut out);
    out
}

fn read(path: &Path) -> Vec<u8> {
    fs::read(path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

#[test]
fn resume_over_an_empty_tail_rewrites_nothing() {
    for case in cases() {
        let dir = scratch_dir(&format!("empty-{}", case.tag));
        let universe = WebUniverse::generate(UniverseConfig::test_scale(61));
        // A cadence shorter than the boundary interval snapshots at every
        // boundary, and dropping the session joins the last snapshot and
        // resets the log: the kill leaves a snapshot and an empty tail.
        let every = case.boundary_days / 2.0;
        let mut killed = case.session(&universe, Some((&dir, every)));
        killed.run(case.kill_day).expect("the crawl runs");
        drop(killed);
        let on_disk = recover(&dir).expect("decodes").expect("a snapshot exists");
        assert!(on_disk.wal.is_empty(), "{}: the kill must leave an empty tail", case.tag);
        let snapshot = read(&dir.join(SNAPSHOT_FILE));
        let wal = read(&dir.join(WAL_FILE));

        // Killed right after the resume: nothing on disk moved.
        let mut resumed = case.session(&universe, Some((&dir, every)));
        resumed.resume(0.0).expect("recovers");
        let stats = resumed.checkpoint_stats().expect("checkpointing active");
        assert_eq!(stats.snapshots, 0, "{}: a resume writes no snapshot", case.tag);
        assert!(read(&dir.join(SNAPSHOT_FILE)) == snapshot, "{}: snapshot rewritten", case.tag);
        drop(resumed);
        assert!(read(&dir.join(SNAPSHOT_FILE)) == snapshot, "{}: snapshot rewritten", case.tag);
        assert!(read(&dir.join(WAL_FILE)) == wal, "{}: log rewritten", case.tag);

        // Killed after one boundary: that boundary's cadence snapshot is
        // what recovers.
        let mut resumed = case.session(&universe, Some((&dir, every)));
        resumed.resume(case.kill_day + case.boundary_days).expect("recovers and crawls");
        drop(resumed);
        let after = recover(&dir).expect("decodes").expect("a snapshot exists");
        assert!(
            after.state.clock.t > on_disk.state.clock.t,
            "{}: the boundary after the resume took no snapshot",
            case.tag
        );

        let mut resumed = case.session(&universe, Some((&dir, every)));
        let continued = bytes(resumed.resume(case.end_day).expect("recovers"));
        assert!(continued == case.reference(&universe), "{}: trajectory moved", case.tag);
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn resume_cuts_a_torn_tail_before_it_appends() {
    for case in cases() {
        let dir = scratch_dir(&format!("torn-{}", case.tag));
        let universe = WebUniverse::generate(UniverseConfig::test_scale(62));
        // A cadence past the horizon: only the base snapshot exists, and
        // the log holds every committed boundary.
        let every = 100.0;
        let mut killed = case.session(&universe, Some((&dir, every)));
        killed.run(case.kill_day).expect("the crawl runs");
        drop(killed);
        let wal_path = dir.join(WAL_FILE);
        let committed = read(&wal_path);
        let tail = read_wal(&wal_path).expect("reads").len();
        assert!(tail > 0, "{}: the kill must leave a committed tail", case.tag);

        // Garbage after the last commit: the head of a record frame whose
        // payload never landed.
        let mut torn = committed.clone();
        torn.extend_from_slice(b"R\xff\x00\x00\x00torn-frame");
        fs::write(&wal_path, &torn).expect("log writable");

        let mut resumed = case.session(&universe, Some((&dir, every)));
        resumed.resume(0.0).expect("the torn tail recovers");
        let resumed_t = resumed.clock().t;
        assert!(read(&wal_path) == committed, "{}: torn bytes survived the resume", case.tag);
        // Killed after the first boundary past the resume: recovery sees
        // that boundary, which it could not if it sat behind the garbage.
        resumed.run(resumed_t + 1.5 * case.boundary_days).expect("crawls on");
        drop(resumed);
        assert!(read_wal(&wal_path).expect("reads").len() > tail, "{}: boundary lost", case.tag);
        let mut recovered = case.session(&universe, Some((&dir, every)));
        recovered.resume(0.0).expect("recovers");
        assert!(
            recovered.clock().t > resumed_t,
            "{}: recovery did not reach the boundary after the resume",
            case.tag
        );
        drop(recovered);

        let mut resumed = case.session(&universe, Some((&dir, every)));
        let continued = bytes(resumed.resume(case.end_day).expect("recovers"));
        assert!(continued == case.reference(&universe), "{}: trajectory moved", case.tag);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// `(tag, start, end)` of every frame after a WAL's header line.
fn frames(wal: &[u8]) -> Vec<(u8, usize, usize)> {
    let mut pos = wal.iter().position(|&b| b == b'\n').expect("a header line") + 1;
    let mut out = Vec::new();
    while pos + 13 <= wal.len() {
        let len = u32::from_le_bytes(wal[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        out.push((wal[pos], pos, pos + 13 + len));
        pos += 13 + len;
    }
    out
}

/// Kill shard `wal`'s log in the middle of its newest exchange: keep the
/// routed batch and its commit, or cut the log just before the batch.
/// Returns the log as it stood at the barrier, before the batch.
fn cut_last_exchange(wal: &Path, keep_batch: bool) -> Vec<u8> {
    let bytes = read(wal);
    let all = frames(&bytes);
    let routed = all.iter().rposition(|f| f.0 == b'X').expect("a routed batch");
    let (commit_tag, _, commit_end) = all[routed + 1];
    assert_eq!(commit_tag, b'C', "a routed batch is committed on its own");
    let end = if keep_batch { commit_end } else { all[routed].1 };
    fs::write(wal, &bytes[..end]).expect("log writable");
    bytes[..all[routed].1].to_vec()
}

#[test]
fn fleet_kill_mid_exchange_cuts_the_aligned_shard_back_to_the_barrier() {
    let dir = scratch_dir("fleet");
    let universe = WebUniverse::generate(UniverseConfig::test_scale(42));
    let budget = CrawlBudget::paper_monthly(48).with_cycle_days(6.0);
    let build = |checkpoint: bool| {
        let mut builder = FleetSession::builder().shards(2).budget(budget).universe(&universe);
        if checkpoint {
            builder = builder.checkpoint(&dir, 100.0);
        }
        builder.build().expect("a valid fleet")
    };
    // Barriers fall on every ranking day; the run ends just past the one
    // at day 9, whose exchange is the last routed batch in both logs.
    let barrier = 9.0;
    build(true).run(barrier + 0.25).expect("the fleet runs");

    // Kill in the middle of that exchange: shard 0 committed its batch,
    // shard 1 died before it synced.
    let shard_wal = |k: u32| dir.join(format!("shard-{k}")).join(WAL_FILE);
    let at_barrier = cut_last_exchange(&shard_wal(0), true);
    cut_last_exchange(&shard_wal(1), false);
    let shard1 = read(&shard_wal(1));

    // Resuming to the barrier aligns the fleet — shard 0 drops the batch
    // shard 1 never received — and runs no exchange yet: shard 0's log
    // must end at the barrier, or the re-run exchange would land after a
    // stale copy of its batch.
    build(true).resume(barrier).expect("the fleet recovers");
    assert!(read(&shard_wal(0)) == at_barrier, "shard 0's log kept the dropped batch");
    assert!(read(&shard_wal(1)) == shard1, "shard 1's log moved");

    let resumed = build(true).resume(20.0).expect("the fleet recovers").clone();
    let reference = build(false).run(20.0).expect("the fleet runs").clone();
    assert!(reference.routed_links() > 0, "cross-shard links were exchanged");
    assert!(bytes(&resumed.merged) == bytes(&reference.merged), "trajectory moved");
    for (a, b) in resumed.shards.iter().zip(&reference.shards) {
        assert!(bytes(&a.metrics) == bytes(&b.metrics), "{} moved", a.shard);
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fleet_shards_snapshot_at_the_barrier_before_the_exchange() {
    // (tag, engine, exchanges before the barrier the kill follows, kill
    // day, end day). Barriers fall on every ranking day (incremental) or
    // cycle start (periodic, every 6 days). Incremental shards pass a
    // boundary at every barrier; periodic ones swap mid-leg, 1.4 days
    // into the cycle — between the barrier and the kill, where a shard
    // must not snapshot.
    let budget = CrawlBudget::paper_monthly(48).with_cycle_days(6.0);
    let cases = [
        ("inc", EngineKind::Incremental, 8, 9.25, 14.0),
        ("per", EngineKind::Periodic, 1, 14.0, 26.0),
    ];
    for (tag, kind, before_barrier, kill_day, end_day) in cases {
        let dir = scratch_dir(&format!("fleet-barrier-{tag}"));
        let universe = WebUniverse::generate(UniverseConfig::test_scale(43));
        let build = |checkpoint: bool| {
            let mut builder =
                FleetSession::builder().shards(2).engine(kind).budget(budget).universe(&universe);
            if checkpoint {
                // A one-day cadence: a snapshot falls due at most barriers,
                // the one the kill follows included. (The cadence runs on
                // each shard's slot clock, which overshoots a barrier by
                // up to one slot, so it skips some.)
                builder = builder.checkpoint(&dir, 1.0);
            }
            builder.build().expect("a valid fleet")
        };
        build(true).run(kill_day).expect("the fleet runs");

        // Each shard's newest snapshot was taken at the barrier before its
        // exchange: it holds one exchange fewer than the shard replays,
        // and the fresh log opens with that barrier's routed batch.
        let shard_dir = |k: u32| dir.join(format!("shard-{k}"));
        for k in 0..2 {
            let on_disk = recover(&shard_dir(k)).expect("decodes").expect("a snapshot exists");
            let exchanges = on_disk.state.routing.exchanges;
            let routed = on_disk
                .wal
                .iter()
                .filter(|e| matches!(e, WalEvent::Routed(_)) && e.seq() > on_disk.state.fetch_seq)
                .count() as u64;
            assert_eq!(exchanges, before_barrier, "{tag} shard#{k}: not the barrier's snapshot");
            assert_eq!(routed, 1, "{tag} shard#{k}: the snapshot holds one exchange fewer");
            assert!(
                matches!(on_disk.wal.first(), Some(WalEvent::Routed(_))),
                "{tag} shard#{k}: the log does not open with the barrier's routed batch"
            );
        }

        // Kill in the middle of that exchange, as above.
        cut_last_exchange(&shard_dir(0).join(WAL_FILE), true);
        cut_last_exchange(&shard_dir(1).join(WAL_FILE), false);
        let resumed = build(true).resume(end_day).expect("the fleet recovers").clone();
        let reference = build(false).run(end_day).expect("the fleet runs").clone();
        assert!(reference.routed_links() > 0, "{tag}: cross-shard links were exchanged");
        for (a, b) in resumed.shards.iter().zip(&reference.shards) {
            assert!(bytes(&a.metrics) == bytes(&b.metrics), "{tag}: {} moved", a.shard);
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Records the day of the most recent pass boundary.
struct LastBoundary(f64);

impl CrawlHook for LastBoundary {
    fn on_fetch(&mut self, _record: &FetchRecord) {}

    fn on_pass_boundary(&mut self, t: f64, _export: &mut dyn FnMut() -> CrawlerState) {
        self.0 = t;
    }
}

/// Two hooks side by side: both observe every fetch and pass boundary.
struct PairHook<'a>(&'a mut dyn CrawlHook, &'a mut dyn CrawlHook);

impl CrawlHook for PairHook<'_> {
    fn on_fetch(&mut self, record: &FetchRecord) {
        self.0.on_fetch(record);
        self.1.on_fetch(record);
    }

    fn on_pass_boundary(&mut self, t: f64, export: &mut dyn FnMut() -> CrawlerState) {
        self.0.on_pass_boundary(t, export);
        self.1.on_pass_boundary(t, export);
    }
}

/// A checkpointer that snapshots at every boundary, driven a little past
/// one: that boundary's snapshot is still in flight (handed to the
/// encoder thread, not yet joined) when this returns.
fn snapshot_in_flight(dir: &Path) -> (Checkpointer, f64) {
    let universe = WebUniverse::generate(UniverseConfig::test_scale(64));
    let config = IncrementalConfig {
        capacity: 30,
        crawl_rate_per_day: 6.0,
        ..IncrementalConfig::monthly(30)
    };
    let mut crawler = IncrementalCrawler::new(config);
    let mut ckpt = Checkpointer::create(CheckpointConfig::new(dir, 0.5), &crawler.export_state())
        .expect("checkpoint dir writable");
    let mut last = LastBoundary(0.0);
    let mut fetcher = SimFetcher::new(&universe);
    let mut hook = PairHook(&mut ckpt, &mut last);
    crawler.drive(&universe, &mut fetcher, &mut hook, 6.5).expect("the crawl runs");
    assert!(last.0 > 5.0, "a boundary was crossed late in the run");
    (ckpt, last.0)
}

#[test]
fn drop_joins_the_snapshot_in_flight_and_resets_the_log() {
    let dir = scratch_dir("drop-join");
    let (ckpt, boundary) = snapshot_in_flight(&dir);
    // The log is reset only once the snapshot is joined.
    assert!(!read_wal(&dir.join(WAL_FILE)).expect("reads").is_empty());
    drop(ckpt);
    let recovered = recover(&dir).expect("decodes").expect("a snapshot exists");
    assert_eq!(recovered.state.clock.t, boundary, "the in-flight snapshot landed");
    assert!(recovered.wal.is_empty(), "the join reset the log");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn drop_after_the_directory_is_removed_reports_and_does_not_panic() {
    let dir = scratch_dir("drop-removed");
    let (ckpt, _) = snapshot_in_flight(&dir);
    // The encoder may be creating its temp file while the directory goes;
    // retry until the removal wins.
    for _ in 0..100 {
        if fs::remove_dir_all(&dir).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(!dir.exists(), "the directory is gone");
    let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(ckpt)));
    assert!(dropped.is_ok(), "dropping over a removed directory panicked");
    assert!(!dir.exists(), "nothing recreated the directory");
}
