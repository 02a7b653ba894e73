//! What both modes of a workload run share: the output checks, the
//! universe and session builders, one untraced rep of each workload
//! shape, the closed-loop query reader, and the recovery leg that gives
//! every workload `recover_s` and `disk_bytes_per_page`.
//!
//! Everything here goes through `webevo`'s public API — builders, trait
//! methods, exported state — and never through the fields of per-page
//! structs, so the engine's state can be laid out again without editing
//! the benchmark.

use crate::procfs::{self, ProcStat};
use crate::spec::{Durable, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use webevo::prelude::*;
use webevo::store::fnv64;

/// Output checks, counted. A failed check makes the run incorrect and the
/// process exit non-zero; it never aborts the run, so every failure of one
/// run is reported together.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Unwrap a `Result` the workload needs to go on; the failure is
    /// counted and reported before the process stops.
    pub fn require<T, E: std::fmt::Display>(&mut self, result: Result<T, E>, what: &str) -> T {
        self.attempted += 1;
        match result {
            Ok(value) => value,
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                crate::fail_and_exit(self);
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Cost of one `Instant::now()` pair in nanoseconds: the floor under any
/// single timed sample. Sub-microsecond operations are timed in batches
/// sized so a sample is at least 100 times this.
pub fn clock_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        let a = Instant::now();
        sink += a.elapsed().as_nanos();
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// Where the benchmark writes: traces, result files and the per-rep
/// checkpoint directories all live under `benchmark/out/`, inside the
/// checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create the output directory {dir:?}: {e}"));
    dir
}

/// A checkpoint directory of this process's own, removed when dropped.
/// Declare it *before* the session that checkpoints into it: locals drop
/// in reverse order, so the session — whose drop joins the background
/// snapshot writer — is gone before the directory is.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        let dir = out_dir().join(format!("ckpt-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of the regular files directly inside.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copy the regular files directly inside `from` into a new `to`.
fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// `fnv64` over the final fetch count and the bit patterns of every
/// `(day, freshness)` row: two runs with equal digests fetched the same
/// number of pages and measured the same freshness series.
pub fn trajectory_digest(metrics: &CrawlMetrics) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&metrics.fetches.to_le_bytes());
    for (t, v) in metrics.freshness.rows() {
        bytes.extend_from_slice(&t.to_bits().to_le_bytes());
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv64(&bytes)
}

/// The workload's universe: generated from the seed alone, with change
/// schedules materialized one day past the crawl's horizon.
pub fn generate(w: &Workload, seed: u64) -> WebUniverse {
    WebUniverse::generate(UniverseConfig::scaled(seed, w.sites, w.pages, w.days + 1.0))
}

/// Pages the collection may hold: every slot of every site.
pub fn capacity(universe: &WebUniverse) -> usize {
    universe.site_count() * universe.config().pages_per_site
}

pub fn budget(w: &Workload, universe: &WebUniverse) -> CrawlBudget {
    let budget = CrawlBudget::paper_monthly(capacity(universe)).with_cycle_days(w.cycle_days);
    if w.ranking {
        budget
    } else {
        budget.with_ranking_interval_days(1e9)
    }
}

/// A fresh session for one rep. `checkpoint` is the directory and the
/// snapshot cadence, when the rep is durable.
pub fn session<'u>(
    w: &Workload,
    universe: &'u WebUniverse,
    checkpoint: Option<(&Path, f64)>,
) -> Result<CrawlSession<'u>, WebEvoError> {
    let builder = CrawlSession::builder()
        .engine(w.engine)
        .budget(budget(w, universe))
        .universe(universe);
    match checkpoint {
        Some((dir, every)) => builder.checkpoint(dir, every).build(),
        None => builder.build(),
    }
}

/// One closed-loop reader's samples: per query kind, nanoseconds per
/// query, one sample per timed batch.
#[derive(Debug, Default)]
pub struct QuerySamples {
    pub per_kind: [Vec<f64>; 8],
    /// The longest single `epoch_info` batch. `epoch_info` only snapshots
    /// the current view, so anything beyond its usual cost is time the
    /// reader waited on an epoch swap.
    pub swap_stall_ns_max: f64,
    pub queries: u64,
    /// Lookups of pages taken from the view they were answered from.
    pub lookups_checked: u64,
    pub lookups_missed: u64,
}

impl QuerySamples {
    /// The median query: each kind's median nanoseconds per query, and
    /// the median over the eight kinds (the mean of the two middle kinds).
    /// The kinds are sampled equally often, so the median of the pooled
    /// samples would sit exactly on the boundary between the fourth and
    /// the fifth kind and flip between them from run to run.
    pub fn p50(&self) -> f64 {
        let per_kind: Vec<f64> = self
            .per_kind
            .iter()
            .filter(|samples| !samples.is_empty())
            .map(|samples| crate::stats::median(samples))
            .collect();
        crate::stats::median(&per_kind)
    }

    /// Every batch sample of every kind, sorted.
    pub fn pooled_sorted(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.per_kind.iter().flatten().copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among samples"));
        all
    }
}

/// Queries per timed batch, by kind. One `Instant` pair costs about as
/// much as one cheap query, so the seven cheap kinds are timed 64 at a
/// time and divided; `top_k_pagerank` sorts every score of the view on
/// each call (milliseconds), so one call is already a sample.
const QUERY_BATCH: [usize; 8] = [64, 64, 64, 64, 64, 64, 1, 64];

/// Cycle the eight `QueryService` calls, closed loop and unthrottled,
/// until `stop` is set (checked once per cycle; a plain flag, `Relaxed`
/// is enough). Nothing is sampled before the first epoch is published:
/// the empty epoch-0 view answers everything in no time and would drown
/// the real samples.
pub fn read_queries(service: &QueryService, live_day: f64, stop: &AtomicBool) -> QuerySamples {
    let mut samples = QuerySamples::default();
    let mut cycle = 0usize;
    let mut ids = [PageId(0); 64];
    let mut urls = [Url::new(SiteId(0), PageId(0)); 64];
    while !stop.load(Ordering::Relaxed) {
        if service.epoch() == 0 {
            std::thread::yield_now();
            continue;
        }
        // Pick this cycle's lookup targets from the view that is current
        // now; if no swap happens before the batch ends, every one of
        // them must be found.
        let view = service.view();
        let pages = view.pages();
        for (k, (id, url)) in ids.iter_mut().zip(urls.iter_mut()).enumerate() {
            let at = cycle.wrapping_mul(7919).wrapping_add(k * 104_729) % pages.len();
            *id = pages[at].page;
            *url = Url::new(pages[at].site.unwrap_or(SiteId(0)), pages[at].page);
        }
        let view_epoch = view.epoch();
        drop(view);

        for (kind, &batch) in QUERY_BATCH.iter().enumerate() {
            let mut found = 0usize;
            let start = Instant::now();
            for i in 0..batch {
                match kind {
                    0 => drop(std::hint::black_box(service.epoch_info())),
                    1 => drop(std::hint::black_box(service.staleness(live_day))),
                    2 => found += usize::from(service.lookup(ids[i]).is_some()),
                    3 => found += usize::from(service.lookup_url(urls[i]).is_some()),
                    4 => drop(std::hint::black_box(service.freshness())),
                    5 => drop(std::hint::black_box(service.site_rollups())),
                    6 => drop(std::hint::black_box(service.top_k_pagerank(10))),
                    _ => drop(std::hint::black_box(service.top_k_change_rate(10))),
                }
            }
            let batch_ns = start.elapsed().as_nanos() as f64;
            samples.per_kind[kind].push(batch_ns / batch as f64);
            samples.queries += batch as u64;
            if kind == 0 {
                samples.swap_stall_ns_max = samples.swap_stall_ns_max.max(batch_ns);
            }
            if (kind == 2 || kind == 3) && service.epoch() == view_epoch {
                samples.lookups_checked += batch as u64;
                samples.lookups_missed += (batch - found) as u64;
            }
        }
        cycle += 1;
    }
    samples
}

/// What one untraced rep measured.
#[derive(Debug)]
pub struct Rep {
    /// Wall seconds of the timed section.
    pub wall_s: f64,
    /// CPU seconds of the whole process over the timed section (10 ms
    /// ticks; the sections are seconds long).
    pub user_s: f64,
    pub sys_s: f64,
    /// Minor faults over the whole rep, legs outside the timed section
    /// included.
    pub minor_faults: u64,
    /// Fetches issued inside the timed section.
    pub fetches: u64,
    pub digest: u64,
    pub avg_freshness: f64,
    pub collection_len: usize,
    /// `VmHWM` when the rep's crawl ended (before any state export, which
    /// would raise it).
    pub vm_hwm_bytes: u64,
    /// `durable-resume` only: seconds for build + `resume(0.0)` (two
    /// samples), and the checkpoint directory's bytes at the kill.
    pub recover_s: Vec<f64>,
    pub disk_bytes: Option<u64>,
}

struct Timed {
    wall_s: f64,
    user_s: f64,
    sys_s: f64,
}

fn timed<T>(section: impl FnOnce() -> T) -> (Timed, T) {
    let before = procfs::read_stat();
    let start = Instant::now();
    let value = section();
    let wall_s = start.elapsed().as_secs_f64();
    let after = procfs::read_stat();
    (
        Timed {
            wall_s,
            user_s: after.user_s_since(&before),
            sys_s: after.sys_s_since(&before),
        },
        value,
    )
}

/// The checks every finished crawl must pass.
fn check_crawl(
    checks: &mut Checks,
    label: &str,
    session: &CrawlSession<'_>,
    universe: &WebUniverse,
    days: f64,
) {
    let metrics = session.metrics();
    checks.check(metrics.fetches > 0, || format!("{label}: no fetches"));
    checks.check(session.collection_len() <= capacity(universe), || {
        format!(
            "{label}: collection {} over capacity {}",
            session.collection_len(),
            capacity(universe)
        )
    });
    let freshness = metrics.average_freshness_from(days / 2.0);
    checks.check(freshness > 0.0 && freshness <= 1.0, || {
        format!("{label}: average freshness {freshness} outside (0, 1]")
    });
}

fn finish(
    session: &CrawlSession<'_>,
    days: f64,
    section: Timed,
    fetches: u64,
    before: &ProcStat,
) -> Rep {
    Rep {
        wall_s: section.wall_s,
        user_s: section.user_s,
        sys_s: section.sys_s,
        minor_faults: procfs::read_stat().minflt_since(before),
        fetches,
        digest: trajectory_digest(session.metrics()),
        avg_freshness: session.metrics().average_freshness_from(days / 2.0),
        collection_len: session.collection_len(),
        vm_hwm_bytes: procfs::read_status().vm_hwm_bytes,
        recover_s: Vec::new(),
        disk_bytes: None,
    }
}

/// One rep of a workload without durability or serving — and the
/// reference run the two special workloads compare their digests with.
pub fn plain_rep(
    w: &Workload,
    universe: &WebUniverse,
    checks: &mut Checks,
    label: &str,
    want_state: bool,
) -> (Rep, Option<CrawlerState>) {
    let before = procfs::read_stat();
    let mut session = checks.require(session(w, universe, None), "session build");
    let (section, result) = timed(|| session.run(w.days).map(|m| m.fetches));
    let fetches = checks.require(result, "run");
    check_crawl(checks, label, &session, universe, w.days);
    let rep = finish(&session, w.days, section, fetches, &before);
    (rep, want_state.then(|| session.export_state()))
}

/// One `durable-resume` rep: crawl to the kill day under the
/// checkpointer (the timed section), drop the session, recover in a fresh
/// one, drive the recovered crawl on to the horizon.
pub fn durable_rep(
    w: &Workload,
    durable: Durable,
    universe: &WebUniverse,
    checks: &mut Checks,
    label: &str,
    want_state: bool,
) -> (Rep, Option<CrawlerState>) {
    let before = procfs::read_stat();
    let dir = ScratchDir::new(label);
    let checkpoint = Some((dir.path(), durable.snapshot_every_days));

    let mut killed = checks.require(session(w, universe, checkpoint), "session build");
    let (section, result) = timed(|| killed.run(durable.kill_day).map(|m| m.fetches));
    let fetches = checks.require(result, "checkpointed run");
    // Dropping the session joins the background snapshot writer, so the
    // directory is quiescent: this is what a kill leaves behind.
    drop(killed);
    let disk_bytes = dir.bytes();

    let tail = checks
        .require(recover(dir.path()), "recover")
        .map_or(0, |r| r.wal.len());
    checks.check(tail > 0, || {
        format!("{label}: the kill left no committed WAL tail to replay")
    });

    // Two recoveries of what the kill left: one on a copy of the
    // directory, whose session is dropped again, and the one the rep goes
    // on with. Two samples a rep steady `recover_s` against a slow fsync.
    let copy = ScratchDir::new(&format!("{label}-copy"));
    checks.require(
        copy_files(dir.path(), copy.path()),
        "copy of the killed directory",
    );
    let mut recover_s = Vec::with_capacity(2);
    let mut recover_in = |path: &Path, checks: &mut Checks| {
        let start = Instant::now();
        let mut resumed = checks.require(
            session(w, universe, Some((path, durable.snapshot_every_days))),
            "session build",
        );
        let result = resumed.resume(0.0).map(|m| m.fetches);
        recover_s.push(start.elapsed().as_secs_f64());
        // Recovery lands on the last committed pass boundary: the fetches
        // buffered after it died with the session.
        let recovered = checks.require(result, "resume");
        checks.check(recovered > 0 && recovered <= fetches, || {
            format!("{label}: recovered to {recovered} fetches, killed at {fetches}")
        });
        resumed
    };
    drop(recover_in(copy.path(), checks));
    let mut resumed = recover_in(dir.path(), checks);
    checks.require(resumed.run(w.days).map(|_| ()), "run after resume");
    check_crawl(checks, label, &resumed, universe, w.days);

    let mut rep = finish(&resumed, w.days, section, fetches, &before);
    rep.recover_s = recover_s;
    rep.disk_bytes = Some(disk_bytes);
    (rep, want_state.then(|| resumed.export_state()))
}

/// One `serve-live` rep: the crawl publishes a view at every pass
/// boundary while one reader thread queries it, unthrottled, for as long
/// as the crawl runs.
pub fn served_rep(
    w: &Workload,
    universe: &WebUniverse,
    checks: &mut Checks,
    label: &str,
    want_state: bool,
) -> (Rep, Option<CrawlerState>) {
    let before = procfs::read_stat();
    let mut session = checks.require(session(w, universe, None), "session build");
    let service = session.serve();
    let stop = AtomicBool::new(false);
    let (section, result, queries) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_queries(&service, w.days, &stop));
        let (section, result) = timed(|| session.run(w.days).map(|m| m.fetches));
        stop.store(true, Ordering::Relaxed);
        (
            section,
            result,
            reader.join().expect("the reader thread does not panic"),
        )
    });
    let fetches = checks.require(result, "served run");
    check_crawl(checks, label, &session, universe, w.days);
    check_queries(checks, label, &queries);
    checks.check(service.epoch() > 0, || {
        format!("{label}: no epoch was published")
    });
    let rep = finish(&session, w.days, section, fetches, &before);
    (rep, want_state.then(|| session.export_state()))
}

pub fn check_queries(checks: &mut Checks, label: &str, queries: &QuerySamples) {
    checks.check(queries.queries > 0, || {
        format!("{label}: the reader ran no queries")
    });
    checks.check(queries.lookups_missed == 0, || {
        format!(
            "{label}: {} of {} lookups of pages in the current view answered None",
            queries.lookups_missed, queries.lookups_checked
        )
    });
}

/// One untraced rep of `w`, whatever its shape, and — when asked — the
/// state its crawl ended in, exported after everything was measured.
pub fn rep(
    w: &Workload,
    universe: &WebUniverse,
    checks: &mut Checks,
    label: &str,
    want_state: bool,
) -> (Rep, Option<CrawlerState>) {
    match (w.durable, w.serve_live) {
        (Some(durable), _) => durable_rep(w, durable, universe, checks, label, want_state),
        (None, true) => served_rep(w, universe, checks, label, want_state),
        (None, false) => plain_rep(w, universe, checks, label, want_state),
    }
}

/// The recovery leg of a workload that does not checkpoint on its own:
/// the crawl is killed at its last day — a snapshot of the final state and
/// an empty log — and each sample times build + `resume(0.0)` of a fresh
/// session. A resume leaves the directory holding the same state again,
/// so samples can be taken throughout the run.
pub struct RecoveryLeg {
    dir: ScratchDir,
    /// Bytes in the directory at the kill.
    pub disk_bytes: u64,
    fetches: u64,
}

/// Snapshot cadence of the leg's sessions; nothing ever drives them.
const LEG_SNAPSHOT_DAYS: f64 = 5.0;

impl RecoveryLeg {
    pub fn new(state: &CrawlerState, checks: &mut Checks) -> RecoveryLeg {
        let dir = ScratchDir::new("leg");
        let config = CheckpointConfig::new(dir.path(), LEG_SNAPSHOT_DAYS);
        drop(checks.require(
            Checkpointer::create(config, state),
            "checkpoint of the final state",
        ));
        let disk_bytes = dir.bytes();
        RecoveryLeg {
            dir,
            disk_bytes,
            fetches: state.metrics.fetches,
        }
    }

    /// Seconds for one build + `resume(0.0)`.
    pub fn sample(&self, w: &Workload, universe: &WebUniverse, checks: &mut Checks) -> f64 {
        let checkpoint = Some((self.dir.path(), LEG_SNAPSHOT_DAYS));
        let start = Instant::now();
        let mut resumed = checks.require(session(w, universe, checkpoint), "session build");
        let result = resumed.resume(0.0).map(|m| m.fetches);
        let seconds = start.elapsed().as_secs_f64();
        let fetches = checks.require(result, "resume of the final state");
        checks.check(fetches == self.fetches, || {
            format!(
                "recovery leg: recovered {fetches} fetches, the state had {}",
                self.fetches
            )
        });
        seconds
    }
}
