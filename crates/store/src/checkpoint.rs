//! The [`Checkpointer`]: a [`CrawlHook`] that turns engine pass
//! boundaries into durable snapshots and WAL flushes, plus [`recover`],
//! the crash-side counterpart.
//!
//! Lifecycle of a checkpoint directory:
//!
//! 1. [`Checkpointer::create`] starts a fresh lineage (any previous
//!    snapshot/WAL in the directory is superseded) and immediately writes
//!    a **base snapshot** of the initial engine state, so the WAL is never
//!    without a snapshot to replay onto — a run killed before its first
//!    cadence snapshot recovers from `day-0 snapshot + whole WAL`.
//! 2. During the run, [`CrawlHook::on_fetch`] buffers records in memory;
//!    [`CrawlHook::on_pass_boundary`] appends the buffer to the WAL under
//!    one commit marker, and snapshots whenever
//!    [`CheckpointConfig::snapshot_every_days`] simulated days have passed
//!    since the last one. Snapshot writes are atomic (temp file + rename)
//!    and reset the WAL.
//! 3. After a crash, [`recover`] returns the newest snapshot and the
//!    committed WAL tail; the caller rebuilds the engine
//!    (`webevo_core::engine::restore` → `replay` → `drive`) and keeps
//!    checkpointing with `Checkpointer::adopt`, which continues the
//!    lineage it recovered: the snapshot stays as it is on disk, and the
//!    WAL is cut back to the end of the adopted committed prefix
//!    (dropping a torn tail) and appended to from there. Nothing is
//!    exported, encoded or rewritten. `CrawlSession::resume` packages all
//!    of this, and counts the next cadence snapshot from the day the
//!    crawl resumes at.
//!
//! A lineage whose state carries a shard scope belongs to a fleet shard.
//! Its pass boundaries only commit: the fleet coordinator takes the same
//! checkpoint step at every exchange barrier instead, before it injects
//! the exchange, so no shard's snapshot ever absorbs an exchange a peer
//! still holds only as a trailing WAL record (see `crate::fleet`).
//!
//! I/O failures inside the hook panic: the hook signature is infallible by
//! design (the engines cannot meaningfully continue a run whose durability
//! contract just broke). At an exchange barrier the same failures are
//! typed errors. Either way the message names the failing file.
//!
//! # Off-thread snapshot encoding
//!
//! Cadence snapshots do **not** block the crawl thread on encode + fsync.
//! The checkpoint step exports an owned [`CrawlerState`] (the immutable
//! boundary view) and hands it to a background encoder thread, which
//! performs the atomic temp-file + rename + directory-sync sequence. The
//! WAL reset that makes the snapshot authoritative is **deferred to the
//! join**, which the next commit performs before it appends (or drop,
//! when no commit follows), because the log must keep covering the old
//! lineage until the rename has durably landed. Between spawn and join
//! the directory holds either the previous snapshot plus a WAL that
//! replays past it, or the new snapshot plus a WAL whose records recovery
//! skips by sequence number. At a fleet barrier the join is the
//! exchange's own commit, so the shard's directory receives the
//! pre-injection snapshot, then the WAL reset, then the routed batch.

use crate::codec::{decode_snapshot, encode_snapshot, StoreError};
use crate::wal::{read_wal, scan_wal, WalScan, WalWriter};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use webevo_core::{CrawlHook, CrawlerState, FetchRecord, RoutedBatch, WalEvent};
use webevo_obs::{LogicalClock, ObsSink, Stage};

/// Snapshot file name within a checkpoint directory.
pub const SNAPSHOT_FILE: &str = "snapshot.wsnap";
/// WAL file name within a checkpoint directory.
pub const WAL_FILE: &str = "wal.wlog";

/// Where and how often to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding `snapshot.wsnap` and `wal.wlog`.
    pub dir: PathBuf,
    /// Full-snapshot cadence in simulated days; between snapshots only WAL
    /// appends happen. The first pass boundary always snapshots.
    pub snapshot_every_days: f64,
}

impl CheckpointConfig {
    /// Checkpoint into `dir`, snapshotting every `snapshot_every_days`.
    pub fn new(dir: impl Into<PathBuf>, snapshot_every_days: f64) -> CheckpointConfig {
        assert!(snapshot_every_days > 0.0, "snapshot cadence must be positive");
        CheckpointConfig { dir: dir.into(), snapshot_every_days }
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join(SNAPSHOT_FILE)
    }

    fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }
}

/// Durability counters (for benches and observability).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Fetch records buffered so far (lifetime total).
    pub records_logged: u64,
    /// Routed-link batches buffered so far (fleet exchange deliveries).
    pub routed_logged: u64,
    /// WAL flushes performed (= pass boundaries observed).
    pub flushes: u64,
    /// Full snapshots written.
    pub snapshots: u64,
}

/// The engine-facing checkpointing hook. See the module docs.
#[derive(Debug)]
pub struct Checkpointer {
    config: CheckpointConfig,
    buffer: Vec<WalEvent>,
    wal: WalWriter,
    /// Simulated day the snapshot cadence counts from: the newest snapshot
    /// this checkpointer wrote or opened over, or the day a resumed crawl
    /// continues from.
    last_snapshot_t: f64,
    last_seq: u64,
    stats: CheckpointStats,
    /// The lineage's state carries a shard scope, so it is a fleet shard's:
    /// its pass boundaries only commit, and its cadence snapshots are taken
    /// at exchange barriers (see the module docs).
    scoped: bool,
    /// Observability sink. Write-only: spans and counters recorded here
    /// never feed back into what gets snapshotted or when, so a traced
    /// lineage stays byte-identical to an untraced one.
    obs: ObsSink,
    /// WAL fsyncs already reported to `obs` (delta tracking, so the
    /// `wal_fsyncs_total` counter mirrors [`WalWriter::fsyncs`] exactly).
    fsyncs_seen: u64,
    /// Simulated day of the most recent checkpoint step — the
    /// logical-clock stamp for WAL-flush and snapshot spans.
    clock_t: f64,
    /// In-flight background snapshot encoder, if any. Invariant: while a
    /// snapshot is pending, nothing is flushed to the WAL — `flush` joins
    /// it first — so the pending snapshot covers every record the log
    /// holds, which is what makes the deferred [`WalWriter::reset`] at the
    /// join safe. The thread answers with the snapshot bytes it wrote.
    pending: Option<std::thread::JoinHandle<io::Result<Vec<u8>>>>,
}

impl Checkpointer {
    /// Start a fresh checkpoint lineage in `config.dir` (created if
    /// missing; an existing snapshot/WAL there is superseded): write a
    /// base snapshot of `initial` — the engine state the run starts from —
    /// and an empty WAL. The base snapshot guarantees every WAL the
    /// lineage ever holds has a snapshot to replay onto, even when the
    /// process dies before the first cadence snapshot.
    pub fn create(config: CheckpointConfig, initial: &CrawlerState) -> io::Result<Checkpointer> {
        fs::create_dir_all(&config.dir)?;
        // Truncate the previous lineage's WAL *before* the base snapshot
        // lands: a crash between the two steps then leaves the old
        // snapshot with an empty log (a consistent, merely older lineage)
        // — never a fresh day-0 snapshot paired with the old run's
        // records, which replay could not tell apart from its own.
        let wal = WalWriter::create(&config.wal_path())?;
        write_snapshot_atomically(&config, initial)?;
        Ok(Checkpointer::open(config, wal, initial, initial.fetch_seq, 1))
    }

    /// Start a fresh lineage over `state`, a state no snapshot in
    /// `config.dir` holds yet — the fleet's rebalance writes each shard's
    /// migrated state this way: snapshot it, then reset the WAL, so the
    /// directory again holds exactly one consistent lineage. A resume does
    /// not come here; it continues the lineage it recovered
    /// (`Checkpointer::adopt`).
    pub(crate) fn continue_from(
        config: CheckpointConfig,
        state: &CrawlerState,
    ) -> io::Result<Checkpointer> {
        fs::create_dir_all(&config.dir)?;
        write_snapshot_atomically(&config, state)?;
        let wal = WalWriter::create(&config.wal_path())?;
        Ok(Checkpointer::open(config, wal, state, state.fetch_seq, 1))
    }

    /// Keep checkpointing the lineage `recovered` came from, in
    /// `config.dir`: the snapshot already on disk stays the lineage's
    /// newest, and the WAL is cut back to the end of the committed prefix
    /// `recovered.wal` holds — dropping a torn tail, or routed batches the
    /// fleet's alignment popped — and appended to from there. Nothing is
    /// exported, encoded or written but that cut; the checkpointer starts
    /// at zero snapshots. Call it with the recovery the engine is (or will
    /// be) replayed from, so the log continues exactly where the engine
    /// stands, then [`Checkpointer::resume_at`] the day replay lands on.
    ///
    /// A prefix that does not end on a commit marker is
    /// [`StoreError::PrefixNotCommitted`]; an I/O failure is
    /// [`StoreError::Io`].
    pub(crate) fn adopt(
        config: CheckpointConfig,
        recovered: &Recovered,
    ) -> Result<Checkpointer, StoreError> {
        let wal_path = config.wal_path();
        let wal = match recovered.wal_end()? {
            Some(end) => WalWriter::continue_at(&wal_path, end),
            None => WalWriter::create(&wal_path),
        }
        .map_err(|e| StoreError::Io(format!("continuing {wal_path:?}: {e}")))?;
        let snapshot = &recovered.state;
        // Replay leaves the engine at the newest event's sequence number,
        // or at the snapshot's when the tail adds nothing past it.
        let last_seq = recovered.wal.last().map_or(0, WalEvent::seq).max(snapshot.fetch_seq);
        Ok(Checkpointer::open(config, wal, snapshot, last_seq, 0))
    }

    /// The replayed crawl continues from day `t`: count the snapshot
    /// cadence, and stamp traces, from there. Counting from the recovered
    /// snapshot's day instead would make a snapshot fall due sooner after
    /// every resume: one more state export held in memory, and encoded
    /// off-thread, while the resumed crawl runs on.
    pub(crate) fn resume_at(&mut self, t: f64) {
        self.last_snapshot_t = t;
        self.clock_t = t;
    }

    /// A checkpointer over an open `wal`, whose newest snapshot is
    /// `snapshot` and counts as `snapshots` written by this checkpointer.
    fn open(
        config: CheckpointConfig,
        wal: WalWriter,
        snapshot: &CrawlerState,
        last_seq: u64,
        snapshots: u64,
    ) -> Checkpointer {
        Checkpointer {
            last_snapshot_t: snapshot.clock.t,
            last_seq,
            clock_t: snapshot.clock.t,
            config,
            buffer: Vec::new(),
            wal,
            stats: CheckpointStats { snapshots, ..CheckpointStats::default() },
            scoped: snapshot.routing.scope.is_some(),
            obs: ObsSink::noop(),
            fsyncs_seen: 0,
            pending: None,
        }
    }

    /// Install an observability sink. Spans (WAL flush, snapshot encode)
    /// and counters (`wal_appends_total`, `wal_bytes_total`,
    /// `wal_fsyncs_total`, `snapshots_total`) flow into it from every
    /// subsequent flush and snapshot; the base snapshot written by
    /// [`Checkpointer::create`] predates the sink and is not traced.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = obs;
    }

    /// Durability counters so far.
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }

    /// The checkpoint step, at day `t`: commit the buffered events, then —
    /// when `snapshot_every_days` have passed since the last snapshot —
    /// export the state and hand it to the background encoder. Every pass
    /// boundary of an unscoped lineage takes it, and so does every fleet
    /// exchange barrier, with the shard's pre-injection state.
    pub(crate) fn checkpoint(
        &mut self,
        t: f64,
        export: &mut dyn FnMut() -> CrawlerState,
    ) -> io::Result<()> {
        self.clock_t = t;
        // Commit first: should the snapshot below tear, the WAL still
        // carries everything up to here on top of the previous snapshot.
        self.flush()?;
        if t - self.last_snapshot_t >= self.config.snapshot_every_days {
            // The crawl thread resumes as soon as the state is exported.
            // `last_snapshot_t` advances now (cadence is measured from the
            // state's time, not the encoder's completion), `stats.snapshots`
            // at the join.
            let state = export();
            self.last_snapshot_t = t;
            self.spawn_snapshot(state);
        }
        Ok(())
    }

    /// Buffer a routed-batch delivery (the fleet exchange's WAL record).
    /// The batch consumed a sequence number from the engine's unified
    /// counter, so it advances `last_seq` exactly like a fetch.
    pub(crate) fn append_routed(&mut self, batch: RoutedBatch) {
        self.last_seq = batch.seq;
        self.buffer.push(WalEvent::Routed(batch));
        self.stats.routed_logged += 1;
    }

    /// Append the buffered events to the WAL under one commit marker,
    /// after joining the snapshot in flight, if any: its WAL reset must
    /// precede this append, or the reset would discard records the
    /// snapshot does not cover. The fleet coordinator commits each
    /// delivered exchange this way, so a shard killed after the barrier
    /// replays the injection it already absorbed.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        self.join_pending_snapshot()?;
        let _span = self.obs.span(Stage::WalFlush, LogicalClock::new(self.clock_t, self.last_seq));
        self.obs.observe("wal_flush_records", self.buffer.len() as f64);
        let bytes = self.wal.append_committed(&self.buffer, self.last_seq).map_err(|e| {
            io::Error::new(e.kind(), format!("WAL append to {:?} failed: {e}", self.wal.path()))
        })?;
        self.buffer.clear();
        self.stats.flushes += 1;
        self.obs.add("wal_appends_total", 1);
        self.obs.add("wal_bytes_total", bytes);
        self.sync_fsync_counter();
        Ok(())
    }

    /// Hand `state` to a background encoder thread. Nothing is flushed
    /// until the join; see the `pending` field invariant.
    ///
    /// The thread frees the exported state as soon as it is encoded, before
    /// the file write and its syncs, and hands the encoded bytes back to be
    /// freed at the join. Where these multi-MB frees land moves glibc's
    /// dynamic mmap threshold, and with it whether the next ranking pass's
    /// multi-MB buffers are mapped or kept resident in the heap. On cold
    /// `durable-resume` runs the early free read the low peak RSS in 40 of
    /// 40, the state held through the write in 39 of 40, and the state
    /// freed with the bytes at the join the high one in 16 of 16.
    #[expect(
        clippy::disallowed_methods,
        reason = "the off-thread snapshot encoder is the sanctioned background thread; the next WAL commit (or drop) joins it"
    )]
    fn spawn_snapshot(&mut self, state: CrawlerState) {
        debug_assert!(self.pending.is_none(), "at most one snapshot in flight");
        let config = self.config.clone();
        let obs = self.obs.clone();
        let clock = LogicalClock::new(self.clock_t, self.last_seq);
        self.pending = Some(std::thread::spawn(move || {
            let _span = obs.span(Stage::SnapshotEncode, clock);
            let doc = encode_snapshot(&state);
            drop(state);
            write_atomically(&config.dir, SNAPSHOT_FILE, &doc)?;
            Ok(doc)
        }));
    }

    /// Wait for the in-flight snapshot (if any) to land, then reset the
    /// WAL — every record it holds is at or below the snapshot's
    /// `fetch_seq`, so recovery would skip them anyway — and count the
    /// snapshot. A failed or panicked encoder is an error naming the
    /// snapshot file, and leaves the WAL as it is.
    fn join_pending_snapshot(&mut self) -> io::Result<()> {
        let Some(handle) = self.pending.take() else { return Ok(()) };
        let path = self.config.snapshot_path();
        let written = handle.join().map_err(|_| {
            io::Error::other(format!("background snapshot encoder for {path:?} panicked"))
        })?;
        let doc = written.map_err(|e| {
            io::Error::new(e.kind(), format!("background snapshot write to {path:?} failed: {e}"))
        })?;
        self.wal.reset().map_err(|e| {
            io::Error::new(e.kind(), format!("WAL reset of {:?} failed: {e}", self.wal.path()))
        })?;
        self.sync_fsync_counter();
        self.stats.snapshots += 1;
        self.obs.add("snapshots_total", 1);
        self.obs.observe("snapshot_bytes", doc.len() as f64);
        Ok(())
    }

    /// Report WAL fsyncs accrued since the last report, so the registry's
    /// `wal_fsyncs_total` counter tracks [`WalWriter::fsyncs`] exactly —
    /// including the header sync from [`WalWriter::create`] and the sync
    /// inside each [`WalWriter::reset`].
    fn sync_fsync_counter(&mut self) {
        let fsyncs = self.wal.fsyncs();
        if fsyncs > self.fsyncs_seen {
            self.obs.add("wal_fsyncs_total", fsyncs - self.fsyncs_seen);
            self.fsyncs_seen = fsyncs;
        }
    }
}

impl CrawlHook for Checkpointer {
    fn on_fetch(&mut self, record: &FetchRecord) {
        self.last_seq = record.seq;
        self.buffer.push(WalEvent::Fetch(record.clone()));
        self.stats.records_logged += 1;
    }

    fn on_pass_boundary(&mut self, t: f64, export: &mut dyn FnMut() -> CrawlerState) {
        // A fleet shard's snapshots wait for the exchange barrier.
        let committed = if self.scoped {
            self.clock_t = t;
            self.flush()
        } else {
            self.checkpoint(t, export)
        };
        committed.unwrap_or_else(|e| panic!("{e}"));
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        // A failed final write is a crash mid-encode as far as the disk is
        // concerned: the WAL reset is skipped, so the previous snapshot
        // plus the intact log still recover. Drop reports it rather than
        // panicking (the directory may simply have been deleted under a
        // session that outlived it, or the drop may be part of an unwind).
        if let Err(e) = self.join_pending_snapshot() {
            eprintln!("[webevo-store] {e}");
        }
    }
}

fn write_snapshot_atomically(config: &CheckpointConfig, state: &CrawlerState) -> io::Result<u64> {
    let doc = encode_snapshot(state);
    write_atomically(&config.dir, SNAPSHOT_FILE, &doc)?;
    Ok(doc.len() as u64)
}

/// Replace `dir/name` with `bytes` atomically: write `name.tmp`, sync it,
/// rename it over `name`, sync the directory. Syncing before the rename
/// means the entry can never point at a half-written file after a machine
/// crash; syncing the directory after makes the rename itself durable.
pub(crate) fn write_atomically(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write;
    let tmp = dir.join(format!("{name}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, dir.join(name))?;
    fs::File::open(dir)?.sync_all()
}

/// What [`recover`] found in a checkpoint directory.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// The decoded snapshot.
    pub state: CrawlerState,
    /// The committed WAL tail — fetches and routed batches alike (it may
    /// include events the snapshot already covers; the engines' `replay`
    /// skips them by sequence number). A caller may drop trailing
    /// committed batches before adopting it (the fleet's alignment does);
    /// `Checkpointer::adopt` then continues the log after what is left.
    pub wal: Vec<WalEvent>,
    /// Where each committed prefix of the log ends in the file (see
    /// `WalScan::commit_ends`).
    commit_ends: Vec<(usize, u64)>,
}

impl Recovered {
    /// The byte offset where the committed prefix `wal` now holds ends in
    /// the log file: just past its last commit marker, or past the header
    /// when it holds no events. `None` when the directory held no readable
    /// log at all, so a fresh one must be started.
    fn wal_end(&self) -> Result<Option<u64>, StoreError> {
        let events = self.wal.len();
        match self.commit_ends.iter().rev().find(|&&(committed, _)| committed == events) {
            Some(&(_, end)) => Ok(Some(end)),
            None if self.commit_ends.is_empty() && events == 0 => Ok(None),
            None => Err(StoreError::PrefixNotCommitted { events }),
        }
    }
}

/// Load the newest consistent crawl state from a checkpoint directory:
/// `Ok(None)` when the directory holds no checkpoint at all (nothing to
/// resume), the decoded snapshot plus committed WAL tail otherwise.
/// Corrupt snapshots surface as [`StoreError`], and so does a WAL with
/// committed records but no snapshot to replay them onto
/// ([`StoreError::WalWithoutSnapshot`]) — durable work is never silently
/// discarded. A corrupt or torn WAL *tail* silently shrinks to its last
/// committed boundary, which is exactly the guarantee the engines need.
///
/// A stale `snapshot.wsnap.tmp` — the residue of a crash between the
/// snapshot temp-file write and its atomic rename — is removed here: the
/// rename never happened, so the file is not part of any lineage, and
/// leaving it would shadow nothing but clutter the directory forever.
pub fn recover(dir: &Path) -> Result<Option<Recovered>, StoreError> {
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    match fs::remove_file(&tmp) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(StoreError::Io(format!("removing stale {tmp:?}: {e}"))),
    }
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    let doc = match fs::read(&snapshot_path) {
        Ok(doc) => doc,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            // No snapshot: fine when the log is empty too (a directory
            // that never checkpointed), an error when committed work
            // would be orphaned.
            let wal = read_wal(&dir.join(WAL_FILE))?;
            return if wal.is_empty() {
                Ok(None)
            } else {
                Err(StoreError::WalWithoutSnapshot { committed_records: wal.len() })
            };
        }
        Err(e) => return Err(StoreError::Io(format!("reading {snapshot_path:?}: {e}"))),
    };
    let state = decode_snapshot(&doc)?;
    let WalScan { events, commit_ends } = scan_wal(&dir.join(WAL_FILE))?;
    Ok(Some(Recovered { state, wal: events, commit_ends }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_core::{
        engine, CrawlEngine, IncrementalConfig, IncrementalCrawler, NoopHook,
    };
    use webevo_sim::{Fetcher, SimFetcher, UniverseConfig, WebUniverse};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "webevo-ckpt-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(capacity: usize) -> IncrementalConfig {
        IncrementalConfig {
            capacity,
            crawl_rate_per_day: capacity as f64 / 5.0,
            ..IncrementalConfig::monthly(capacity)
        }
    }

    #[test]
    fn checkpoint_and_recover_incremental() {
        let dir = temp_dir("inc");
        let u = WebUniverse::generate(UniverseConfig::test_scale(21));
        // Killed run: crawl to day 20 under the checkpointer, then drop
        // everything in memory.
        let mut killed = IncrementalCrawler::new(config(40));
        let mut ckpt =
            Checkpointer::create(CheckpointConfig::new(&dir, 3.0), &killed.export_state())
                .expect("create checkpointer");
        let mut killed_fetcher = SimFetcher::new(&u);
        killed.drive(&u, &mut killed_fetcher, &mut ckpt, 20.0).expect("drive");
        assert!(ckpt.stats().snapshots >= 2, "stats={:?}", ckpt.stats());
        assert!(ckpt.stats().flushes > ckpt.stats().snapshots);
        drop(killed);
        drop(ckpt);

        // Recover from disk and continue to day 30 — through the engine
        // trait, exactly as `CrawlSession::resume` does.
        let recovered = recover(&dir).expect("clean dir decodes").expect("snapshot exists");
        let (mut restored, fetcher_state) = engine::restore(recovered.state).expect("restores");
        let mut fetcher2 = SimFetcher::new(&u);
        fetcher2.restore_state(fetcher_state.expect("sim fetcher state persisted"));
        restored.replay(&u, &mut fetcher2, &recovered.wal).expect("replay");
        restored.drive(&u, &mut fetcher2, &mut NoopHook, 30.0).expect("drive");

        // Reference: one uninterrupted run to day 30. Every metric channel
        // must agree bit-for-bit.
        let mut reference = IncrementalCrawler::new(config(40));
        let mut ref_fetcher = SimFetcher::new(&u);
        reference.drive(&u, &mut ref_fetcher, &mut NoopHook, 30.0).expect("drive");
        assert_eq!(reference.metrics().fetches, restored.metrics().fetches);
        let a: Vec<(f64, f64)> = reference.metrics().freshness.rows().collect();
        let b: Vec<(f64, f64)> = restored.metrics().freshness.rows().collect();
        assert_eq!(a, b);
        assert_eq!(
            Fetcher::export_state(&ref_fetcher),
            Fetcher::export_state(&fetcher2),
            "fetcher state must also converge"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_on_empty_dir_is_none() {
        let dir = temp_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert!(recover(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_seeds_a_base_snapshot() {
        // The lineage must be recoverable from the instant it opens: a
        // kill before any pass boundary finds the day-0 snapshot and an
        // empty WAL, not an empty directory.
        let dir = temp_dir("base");
        let crawler = IncrementalCrawler::new(config(25));
        let ckpt = Checkpointer::create(CheckpointConfig::new(&dir, 5.0), &crawler.export_state())
            .expect("create checkpointer");
        assert_eq!(ckpt.stats().snapshots, 1, "the base snapshot counts");
        drop(ckpt);
        let recovered = recover(&dir).expect("decodes").expect("base snapshot exists");
        assert!(!recovered.state.seeded, "day-0 state predates seeding");
        assert_eq!(recovered.state.fetch_seq, 0);
        assert!(recovered.wal.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_without_snapshot_is_an_error_not_silent_loss() {
        // The pre-fix failure mode: committed WAL frames with no snapshot
        // (an old-build crash between the first WAL flush and the first
        // snapshot, or a hand-deleted snapshot). `recover` must refuse,
        // not report "nothing to resume" and let a fresh `create` truncate
        // the log.
        let dir = temp_dir("orphan-wal");
        let u = WebUniverse::generate(UniverseConfig::test_scale(23));
        let mut crawler = IncrementalCrawler::new(config(30));
        let mut ckpt =
            Checkpointer::create(CheckpointConfig::new(&dir, 50.0), &crawler.export_state())
                .unwrap();
        let mut fetcher = SimFetcher::new(&u);
        crawler.drive(&u, &mut fetcher, &mut ckpt, 6.0).expect("drive");
        drop(ckpt);
        fs::remove_file(dir.join(SNAPSHOT_FILE)).unwrap();
        match recover(&dir) {
            Err(StoreError::WalWithoutSnapshot { committed_records }) => {
                assert!(committed_records > 0)
            }
            other => panic!("expected WalWithoutSnapshot, got {other:?}"),
        }
        // Same refusal for a log this build cannot read at all: an
        // old-format WAL must not pass for an empty one.
        fs::write(dir.join(WAL_FILE), b"WEBEVO-WAL 1\nR 0 {}\nC 0 1\n").unwrap();
        assert!(matches!(recover(&dir), Err(StoreError::UnsupportedVersion(1))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_3_snapshots_fail_closed() {
        // Version 3 stored an EB posterior on every page. Its header is
        // refused by version alone, even over a payload whose checksum
        // still matches.
        use crate::codec::{SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
        let dir = temp_dir("v3");
        let crawler = IncrementalCrawler::new(config(25));
        let ckpt = Checkpointer::create(CheckpointConfig::new(&dir, 5.0), &crawler.export_state())
            .expect("create checkpointer");
        drop(ckpt);
        let path = dir.join(SNAPSHOT_FILE);
        let live = fs::read(&path).unwrap();
        let header = format!("{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION} ");
        assert!(live.starts_with(header.as_bytes()));
        let v3 = [format!("{SNAPSHOT_MAGIC} 3 ").as_bytes(), &live[header.len()..]].concat();
        assert_eq!(decode_snapshot(&v3).unwrap_err(), StoreError::UnsupportedVersion(3));
        fs::write(&path, &v3).unwrap();
        assert!(matches!(recover(&dir), Err(StoreError::UnsupportedVersion(3))));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_snapshot_tmp_is_removed_and_overwritten() {
        // A crash between the snapshot temp-file write and the atomic
        // rename leaves `snapshot.wsnap.tmp` behind. `recover` must clean
        // it up, recovery must be unaffected, and the next snapshot must
        // succeed over the residue.
        let dir = temp_dir("stale-tmp");
        let u = WebUniverse::generate(UniverseConfig::test_scale(24));
        let mut crawler = IncrementalCrawler::new(config(30));
        let cfg = CheckpointConfig::new(&dir, 2.0);
        let mut ckpt = Checkpointer::create(cfg.clone(), &crawler.export_state()).unwrap();
        let mut fetcher = SimFetcher::new(&u);
        crawler.drive(&u, &mut fetcher, &mut ckpt, 8.0).expect("drive");
        drop(ckpt);
        // Plant a partial temp file, as a mid-write crash would.
        let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        fs::write(&tmp, b"WEBEVO-SNAPSHOT 3 torn-mid-wr").unwrap();

        let recovered = recover(&dir).expect("stale tmp must not break recovery");
        let recovered = recovered.expect("real snapshot still recovers");
        assert!(recovered.state.seeded);
        assert!(!tmp.exists(), "recover removes the stale temp file");

        // The next snapshot (here: a fresh lineage over the recovered
        // state, the way a fleet rebalance writes one) lands cleanly even
        // with a fresh stale tmp planted again.
        fs::write(&tmp, b"garbage").unwrap();
        let (mut restored, fstate) = engine::restore(recovered.state).expect("restores");
        let mut fetcher2 = SimFetcher::new(&u);
        fetcher2.restore_state(fstate.unwrap());
        restored.replay(&u, &mut fetcher2, &recovered.wal).expect("replay");
        let mut state = restored.export_state();
        state.fetcher = Fetcher::export_state(&fetcher2);
        let ckpt2 = Checkpointer::continue_from(cfg, &state).expect("snapshot over stale tmp");
        assert_eq!(ckpt2.stats().snapshots, 1);
        let again = recover(&dir).expect("decodes").expect("snapshot exists");
        assert_eq!(again.state.fetch_seq, state.fetch_seq);
        assert!(!tmp.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_background_snapshot_fails_the_next_commit() {
        // A directory squatting on the temp file's name makes the encoder
        // fail. The next commit joins it first: the error names the
        // snapshot file, and neither the reset nor the append happens.
        let dir = temp_dir("failed-encode");
        let state = IncrementalCrawler::new(config(25)).export_state();
        let mut ckpt = Checkpointer::create(CheckpointConfig::new(&dir, 1.0), &state).unwrap();
        fs::create_dir(dir.join(format!("{SNAPSHOT_FILE}.tmp"))).unwrap();
        ckpt.checkpoint(2.0, &mut || state.clone()).expect("the leg commits");
        let wal = fs::read(dir.join(WAL_FILE)).unwrap();
        let err = ckpt.flush().expect_err("the failed snapshot surfaces");
        assert!(err.to_string().contains(SNAPSHOT_FILE), "{err}");
        assert_eq!(fs::read(dir.join(WAL_FILE)).unwrap(), wal, "the log moved");
        assert_eq!(ckpt.stats().snapshots, 1, "only the base snapshot counts");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adopt_refuses_a_prefix_that_splits_a_batch() {
        // Committed batches end on commit markers; dropping one event from
        // the last batch leaves a prefix no marker ends, which adopt must
        // refuse rather than continue the log after it. A missing log, on
        // the other hand, commits nothing: adopt starts a fresh one.
        let dir = temp_dir("split");
        let u = WebUniverse::generate(UniverseConfig::test_scale(25));
        let mut crawler = IncrementalCrawler::new(config(30));
        let cfg = CheckpointConfig::new(&dir, 50.0);
        let mut ckpt = Checkpointer::create(cfg.clone(), &crawler.export_state()).unwrap();
        let mut fetcher = SimFetcher::new(&u);
        crawler.drive(&u, &mut fetcher, &mut ckpt, 6.0).expect("drive");
        drop(ckpt);
        let mut recovered = recover(&dir).unwrap().unwrap();
        let events = recovered.wal.len();
        assert!(events > 1);
        recovered.wal.pop();
        assert_eq!(
            Checkpointer::adopt(cfg.clone(), &recovered).unwrap_err(),
            StoreError::PrefixNotCommitted { events: events - 1 }
        );
        fs::remove_file(dir.join(WAL_FILE)).unwrap();
        let recovered = recover(&dir).unwrap().unwrap();
        let ckpt = Checkpointer::adopt(cfg, &recovered).expect("a fresh log");
        assert_eq!(ckpt.stats(), CheckpointStats::default());
        assert!(read_wal(&dir.join(WAL_FILE)).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn continue_from_resnapshots() {
        let dir = temp_dir("cont");
        let u = WebUniverse::generate(UniverseConfig::test_scale(22));
        let mut crawler = IncrementalCrawler::new(config(30));
        let mut ckpt =
            Checkpointer::create(CheckpointConfig::new(&dir, 2.0), &crawler.export_state())
                .unwrap();
        let mut fetcher = SimFetcher::new(&u);
        crawler.drive(&u, &mut fetcher, &mut ckpt, 10.0).expect("drive");

        let recovered = recover(&dir).unwrap().unwrap();
        let (mut restored, fstate) = engine::restore(recovered.state).expect("restores");
        let mut fetcher2 = SimFetcher::new(&u);
        fetcher2.restore_state(fstate.unwrap());
        restored.replay(&u, &mut fetcher2, &recovered.wal).expect("replay");
        let mut state = restored.export_state();
        state.fetcher = Fetcher::export_state(&fetcher2);
        let ckpt2 =
            Checkpointer::continue_from(CheckpointConfig::new(&dir, 2.0), &state).unwrap();
        assert_eq!(ckpt2.stats().snapshots, 1);
        // The new lineage stands alone: recovery now yields the replayed
        // state with an empty WAL tail.
        let again = recover(&dir).unwrap().unwrap();
        assert!(again.wal.is_empty());
        assert_eq!(again.state.fetch_seq, state.fetch_seq);
        fs::remove_dir_all(&dir).unwrap();
    }
}
