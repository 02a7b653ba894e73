//! `--trace 1`: the per-layer metrics of one workload.
//!
//! Two sources. **(T)** one *traced rep*: the engine is driven through the
//! public `CrawlEngine::drive(universe, fetcher, hook, until)` seam with
//! timing wrappers this file owns — around the `SimFetcher`, around the
//! `Checkpointer`, around the serve publisher — plus the spans a
//! recording `ObsSink` collects from the program itself. Spans stay in
//! memory and are written to `out/<workload>.trace.jsonl` at the end.
//! **(P)** *probes*: public layer functions timed on the real state the
//! traced rep ended in, median of five.
//!
//! A layer a workload does not use reports 0 for its metrics: that is the
//! bypass the workload exists to show.

use crate::endtoend::Metric;
use crate::harness::{self, Checks, QuerySamples, ScratchDir};
use crate::procfs;
use crate::spec::{Workload, PER_LAYER, QUERY_KINDS};
use crate::stats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use webevo::core::engine::restore;
use webevo::core::view::{ViewBoundary, ViewPublisher};
use webevo::core::{RankingConfig, RankingModule};
use webevo::obs::Stage;
use webevo::prelude::*;
use webevo::schedule::queue::RevisitQueue;
use webevo::store::{decode_snapshot, encode_snapshot, read_wal, WalWriter, WAL_FILE};

/// Timings per probe; the median is reported.
const PROBE_REPS: usize = 5;

/// The metrics of one run, by name; anything never set reports 0.
#[derive(Default)]
struct Table(BTreeMap<&'static str, (f64, String)>);

impl Table {
    fn set(&mut self, name: &'static str, value: f64) {
        self.note(name, value, "");
    }

    fn note(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, (value, note.into()));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(v, _)| *v)
    }

    fn into_metrics(mut self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| {
                let (value, note) = self.0.remove(m.name).unwrap_or((0.0, String::new()));
                Metric::single(m.name, m.unit, value, note)
            })
            .collect()
    }
}

/// Median wall seconds of `PROBE_REPS` calls of `f`, and the last result.
fn median_s<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        let value = std::hint::black_box(f());
        samples.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (stats::median(&samples), last.expect("PROBE_REPS > 0"))
}

/// Nanoseconds per call of a sub-microsecond `f`: timed in batches of
/// `batch` calls (a batch is far above 100 clock reads), median of
/// `PROBE_REPS` batches.
fn ns_per_call(batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let (seconds, ()) = median_s(|| (0..batch).for_each(&mut f));
    seconds * 1e9 / batch as f64
}

/// Times every fetch the engine makes through it.
struct TimedFetcher<'u> {
    inner: SimFetcher<'u>,
    calls: u64,
    not_found: u64,
    nanos: u64,
}

impl<'u> TimedFetcher<'u> {
    fn new(universe: &'u WebUniverse) -> TimedFetcher<'u> {
        TimedFetcher {
            inner: SimFetcher::new(universe),
            calls: 0,
            not_found: 0,
            nanos: 0,
        }
    }
}

impl Fetcher for TimedFetcher<'_> {
    fn fetch(&mut self, url: Url, t: f64) -> Result<FetchOutcome, FetchError> {
        let start = Instant::now();
        let result = self.inner.fetch(url, t);
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.not_found += u64::from(matches!(result, Err(FetchError::NotFound)));
        result
    }

    fn export_state(&self) -> Option<FetcherState> {
        Fetcher::export_state(&self.inner)
    }

    fn observe_replay(&mut self, url: Url, t: f64, result: &Result<FetchOutcome, FetchError>) {
        self.inner.observe_replay(url, t, result);
    }

    fn restore_state(&mut self, state: FetcherState) {
        Fetcher::restore_state(&mut self.inner, state);
    }
}

/// Times the checkpointer's two callbacks.
struct TimedHook<'h> {
    inner: &'h mut Checkpointer,
    on_fetch_nanos: u64,
    boundary_nanos: u64,
}

impl CrawlHook for TimedHook<'_> {
    fn on_fetch(&mut self, record: &FetchRecord) {
        let start = Instant::now();
        self.inner.on_fetch(record);
        self.on_fetch_nanos += start.elapsed().as_nanos() as u64;
    }

    fn on_pass_boundary(&mut self, t: f64, export: &mut dyn FnMut() -> CrawlerState) {
        let start = Instant::now();
        self.inner.on_pass_boundary(t, export);
        self.boundary_nanos += start.elapsed().as_nanos() as u64;
    }
}

/// Records where and when the threaded engine fetched: it runs its own
/// worker fetchers and ignores the caller's, so its `sim.*` numbers come
/// from replaying this sequence through a [`TimedFetcher`] afterwards.
#[derive(Default)]
struct VisitRecorder(Vec<(Url, f64)>);

impl CrawlHook for VisitRecorder {
    fn on_fetch(&mut self, record: &FetchRecord) {
        self.0.push((record.url, record.t));
    }

    fn on_pass_boundary(&mut self, _t: f64, _export: &mut dyn FnMut() -> CrawlerState) {}
}

/// Publication counters shared with the engine-owned publisher. Plain
/// statistics read after the drive returns: `Relaxed` is enough.
#[derive(Default)]
struct PublishStats {
    nanos: AtomicU64,
    count: AtomicU64,
    pages: AtomicU64,
}

struct TimedPublisher {
    inner: Box<dyn ViewPublisher>,
    stats: Arc<PublishStats>,
}

impl ViewPublisher for TimedPublisher {
    fn publish(&mut self, boundary: ViewBoundary<'_>) {
        let pages = boundary.pages.len() as u64;
        let start = Instant::now();
        self.inner.publish(boundary);
        self.stats
            .nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.count.fetch_add(1, Ordering::Relaxed);
        self.stats.pages.store(pages, Ordering::Relaxed);
    }
}

fn new_engine(w: &Workload, universe: &WebUniverse) -> Box<dyn CrawlEngine + Send> {
    let budget = harness::budget(w, universe);
    match w.engine {
        EngineKind::Periodic => Box::new(PeriodicCrawler::new(budget.periodic_config())),
        EngineKind::Incremental => Box::new(IncrementalCrawler::new(budget.incremental_config())),
        EngineKind::Threaded { workers } => {
            Box::new(ThreadedCrawler::new(budget.incremental_config(), workers))
        }
    }
}

/// What the traced rep leaves for the probes.
struct Traced {
    engine: Box<dyn CrawlEngine + Send>,
    /// The checkpoint directory a durable traced rep was killed in.
    killed_dir: Option<ScratchDir>,
}

/// The traced rep: the same crawl as a timed rep's timed section, driven
/// through the engine trait with the wrappers in place.
fn traced_rep(
    w: &Workload,
    universe: &WebUniverse,
    sink: &ObsSink,
    table: &mut Table,
    checks: &mut Checks,
) -> Traced {
    let mut engine = new_engine(w, universe);
    engine.set_obs(sink.clone());
    let mut fetcher = TimedFetcher::new(universe);
    let until = w.durable.map_or(w.days, |d| d.kill_day);

    let serve = w.serve_live.then(|| ServeHandle::new(sink.clone()));
    let publish_stats = Arc::new(PublishStats::default());
    if let Some(handle) = &serve {
        engine.set_view_publisher(Box::new(TimedPublisher {
            inner: handle.publisher(),
            stats: Arc::clone(&publish_stats),
        }));
    }

    let killed_dir = w.durable.map(|_| ScratchDir::new("traced"));
    let mut checkpointer = w.durable.zip(killed_dir.as_ref()).map(|(durable, dir)| {
        let mut initial = engine.export_state();
        initial.fetcher = Fetcher::export_state(&fetcher);
        let config = CheckpointConfig::new(dir.path(), durable.snapshot_every_days);
        let mut ckpt = checks.require(Checkpointer::create(config, &initial), "checkpointer");
        ckpt.set_obs(sink.clone());
        ckpt
    });
    let mut timed_hook = checkpointer.as_mut().map(|inner| TimedHook {
        inner,
        on_fetch_nanos: 0,
        boundary_nanos: 0,
    });
    let mut recorder = VisitRecorder::default();
    let mut noop = NoopHook;
    let hook: &mut dyn CrawlHook = match &mut timed_hook {
        Some(hook) => hook,
        None if !engine.uses_external_fetcher() => &mut recorder,
        None => &mut noop,
    };

    // One reader beside the crawl when the workload serves.
    let stop = AtomicBool::new(false);
    let service = serve.as_ref().map(ServeHandle::service);
    let (drive_s, result, queries) = std::thread::scope(|scope| {
        let reader = service
            .as_ref()
            .map(|service| scope.spawn(|| harness::read_queries(service, w.days, &stop)));
        let start = Instant::now();
        let result = engine
            .drive(universe, &mut fetcher, hook, until)
            .map(|m| m.fetches);
        let drive_s = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let queries = reader.map(|r| r.join().expect("the reader thread does not panic"));
        (drive_s, result, queries)
    });
    checks.require(result, "traced drive");

    // The threaded engine's fetches, replayed through the timing wrapper.
    for &(url, t) in &recorder.0 {
        let _ = fetcher.fetch(url, t);
    }

    table.set("core.drive_s", drive_s);
    table.set("sim.fetch_calls", fetcher.calls as f64);
    table.set("sim.fetch_s", fetcher.nanos as f64 / 1e9);
    if fetcher.calls > 0 {
        table.set(
            "sim.fetch_ns_per_call",
            fetcher.nanos as f64 / fetcher.calls as f64,
        );
        table.set(
            "sim.not_found_share",
            fetcher.not_found as f64 / fetcher.calls as f64,
        );
    }

    if let Some(hook) = &timed_hook {
        let (on_fetch, boundary) = (
            hook.on_fetch_nanos as f64 / 1e9,
            hook.boundary_nanos as f64 / 1e9,
        );
        table.set("store.hook_on_fetch_s", on_fetch);
        table.set("store.hook_boundary_s", boundary);
        table.set("store.hook_s", on_fetch + boundary);
    }
    if let Some(ckpt) = checkpointer {
        let stats = ckpt.stats();
        table.set("store.snapshots", stats.snapshots as f64);
        table.set("store.flushes", stats.flushes as f64);
        table.set("store.records_logged", stats.records_logged as f64);
        // Dropping the checkpointer joins its snapshot writer: the
        // directory now is what a kill leaves behind.
    }

    if let Some(queries) = queries {
        let publish_s = publish_stats.nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let count = publish_stats.count.load(Ordering::Relaxed) as f64;
        table.set("serve.publish_s", publish_s);
        table.set("serve.publish_count", count);
        table.set(
            "serve.publish_ms_per_epoch",
            publish_s * 1e3 / count.max(1.0),
        );
        table.set(
            "serve.view_pages",
            publish_stats.pages.load(Ordering::Relaxed) as f64,
        );
        harness::check_queries(checks, "traced rep", &queries);
        query_metrics(&queries, table);
    }

    // core.self_s: the drive minus what the wrappers saw leave the layer.
    // The replayed fetches of the threaded engine ran on its own worker
    // thread, beside the drive rather than inside it, so they do not count.
    let inside = if engine.uses_external_fetcher() {
        table.get("sim.fetch_s")
    } else {
        0.0
    };
    table.set(
        "core.self_s",
        drive_s - inside - table.get("store.hook_s") - table.get("serve.publish_s"),
    );
    Traced { engine, killed_dir }
}

fn query_metrics(queries: &QuerySamples, table: &mut Table) {
    for (kind, samples) in queries.per_kind.iter().enumerate() {
        if samples.is_empty() {
            continue;
        }
        let name = format!("serve.query_ns.{}", QUERY_KINDS[kind]);
        let spec = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .expect("eight query metrics");
        table.note(
            spec.name,
            stats::median(samples),
            format!("{} batches", samples.len()),
        );
    }
    let pooled = queries.pooled_sorted();
    let (p99, beyond) = stats::percentile_sorted(&pooled, 0.99);
    table.set("serve.query_ns_p50", queries.p50());
    table.note(
        "serve.query_ns_p99",
        p99,
        format!("{beyond} of {} batch samples beyond it", pooled.len()),
    );
    table.set("serve.swap_stall_ns_max", queries.swap_stall_ns_max);
    table.set("serve.queries", queries.queries as f64);
}

/// Totals of the program's own spans, against the wrapper-timed drive.
fn span_metrics(sink: &ObsSink, table: &mut Table, checks: &mut Checks) {
    let spans = sink.spans();
    let total_s = |stage: Stage| {
        spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration_us())
            .sum::<u64>() as f64
            / 1e6
    };
    let (pass_s, batch_s) = (total_s(Stage::Pass), total_s(Stage::FetchBatch));
    table.set("core.pass_s", pass_s);
    table.set(
        "core.pass_count",
        spans.iter().filter(|s| s.stage == Stage::Pass).count() as f64,
    );
    table.set("core.fetch_batch_s", batch_s);
    table.set("obs.spans_recorded", spans.len() as f64);
    table.set(
        "store.wal_fsyncs",
        sink.merged_registry()
            .map_or(0.0, |r| r.counter("wal_fsyncs_total") as f64),
    );
    // What the program's own top-level stages cover of the wrapper-timed
    // drive: the periodic engine's cycles, or pass + fetch_batch elsewhere.
    // By stage, not by parent link: span stacks are per shard, not per
    // thread, so the checkpointer's off-thread `snapshot_encode` span
    // adopts whatever the crawl thread opens while it is in flight.
    let cycle_s = total_s(Stage::Cycle);
    let covered_s = if cycle_s > 0.0 {
        cycle_s
    } else {
        pass_s + batch_s
    };
    let coverage = covered_s / table.get("core.drive_s");
    table.note(
        "core.span_coverage",
        coverage,
        "(cycle, or pass + fetch_batch, spans) / wrapper-timed drive",
    );
    checks.check(coverage > 0.85 && coverage <= 1.05, || {
        format!("the program's spans cover {coverage:.3} of the wrapper-timed drive")
    });
}

/// Probes of the incremental engines' core, graph and schedule layers, on
/// the collection the traced rep ended with.
fn incremental_probes(
    w: &Workload,
    universe: &WebUniverse,
    state: &CrawlerState,
    table: &mut Table,
) {
    let collection = &state.collection;
    let n = collection.len();
    let budget_per_day = harness::budget(w, universe).steady_rate();

    // core: one ranking pass, as the engine runs it at every boundary.
    let mut ranked = collection.clone();
    let (rank_s, outcome) =
        median_s(|| RankingModule::new(RankingConfig::default()).run(&mut ranked, &state.all_urls));
    drop(ranked);
    table.set("core.rank_run_s", rank_s);
    table.set("core.rank_replacements", outcome.replacements.len() as f64);

    // graph: what the ranking pass is made of, on the true link graph.
    let (build_s, graph) = median_s(|| universe.snapshot_graph(w.days));
    let (pagerank_s, scores) = median_s(|| pagerank(&graph, &PageRankConfig::paper_1999()));
    let iterations = scores.map_or(0, |s| s.iterations());
    table.set("graph.build_s", build_s);
    table.set("graph.pages", graph.page_count() as f64);
    table.set("graph.links", graph.link_count() as f64);
    table.set("graph.pagerank_s", pagerank_s);
    table.set("graph.pagerank_iterations", iterations as f64);
    table.set(
        "graph.pagerank_ns_per_link_iter",
        pagerank_s * 1e9 / (graph.link_count() * iterations).max(1) as f64,
    );
    drop(graph);

    // schedule: the revisit queue at collection size, and the two
    // per-boundary reallocations.
    let urls: Vec<Url> = collection
        .iter()
        .map(|(page, _)| universe.url_of(page))
        .collect();
    let due = |i: usize| (i.wrapping_mul(2_654_435_761) % 1_000_003) as f64 / 1_000.0;
    let mut queue = RevisitQueue::new();
    let start = Instant::now();
    for (i, &url) in urls.iter().enumerate() {
        queue.push(url, due(i));
    }
    table.set(
        "schedule.queue_push_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
    let start = Instant::now();
    while let Some(visit) = queue.pop() {
        std::hint::black_box(visit);
    }
    table.set(
        "schedule.queue_pop_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
    let mut update = state.update.clone();
    table.set(
        "schedule.reallocate_s",
        median_s(|| update.reallocate(collection, budget_per_day)).0,
    );
    let rates: Vec<ChangeRate> = collection
        .iter()
        .map(|(_, page)| state.update.estimated_rate(page))
        .collect();
    table.set(
        "schedule.optimal_alloc_s",
        median_s(|| optimal_allocation(&rates, budget_per_day)).0,
    );
}

/// Probes of the estimators: one `ChangeHistory::new(200)` and one
/// Bayesian estimator per page of a tenth of the workload's page slots,
/// ten visits each. Run first of all, on the process's fresh heap, so the
/// growth of `VmRSS` is the histories' own — and on a tenth of the pages
/// so their peak stays below the crawl's and `VmHWM` still belongs to the
/// cold rep. Every number is a total over n (or 10 n) operations, far
/// above the clock.
fn estimate_probes(w: &Workload, table: &mut Table) {
    const VISITS: usize = 10;
    let n = w.pages / 10;
    let rss_before = procfs::read_status().vm_rss_bytes;
    let start = Instant::now();
    let mut histories: Vec<ChangeHistory> = (0..n).map(|_| ChangeHistory::new(200)).collect();
    table.set(
        "estimate.history_new_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
    let start = Instant::now();
    for visit in 0..VISITS {
        for history in &mut histories {
            // The checksum moves every other visit: half the comparisons
            // detect a change.
            std::hint::black_box(history.record_visit(visit as f64, Checksum(visit as u64 / 2)));
        }
    }
    table.set(
        "estimate.record_visit_ns",
        start.elapsed().as_nanos() as f64 / (n * VISITS) as f64,
    );
    let rss_after = procfs::read_status().vm_rss_bytes;
    table.note(
        "estimate.history_rss_bytes",
        rss_after.saturating_sub(rss_before) as f64 / n as f64,
        format!("VmRSS growth over {n} histories of {VISITS} visits"),
    );
    let start = Instant::now();
    for history in &histories {
        let _ = std::hint::black_box(estimate_ep(history, 0.95));
    }
    table.set(
        "estimate.ep_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
    drop(histories);
    let prior = BayesianEstimator::uniform_prior(BayesianEstimator::paper_classes())
        .expect("the paper's classes form a valid prior");
    let mut estimators = vec![prior; n];
    let start = Instant::now();
    for visit in 0..VISITS {
        for estimator in &mut estimators {
            estimator.observe(1.0, visit % 2 == 0);
        }
    }
    table.set(
        "estimate.eb_observe_ns",
        start.elapsed().as_nanos() as f64 / (n * VISITS) as f64,
    );
}

/// Probes of the store's read and write paths, on the directory the
/// traced rep was killed in, and of the engine's restore and replay.
/// Returns the recovered engine, replayed to its last committed boundary.
fn store_probes<'u>(
    dir: &ScratchDir,
    universe: &'u WebUniverse,
    table: &mut Table,
    checks: &mut Checks,
) -> (Box<dyn CrawlEngine + Send>, SimFetcher<'u>) {
    let (recover_s, recovered) = median_s(|| recover(dir.path()));
    let recovered = checks
        .require(recovered, "recover")
        .unwrap_or_else(|| panic!("the traced rep checkpointed into {:?}", dir.path()));
    table.set("store.recover_s", recover_s);
    let wal_path = dir.path().join(WAL_FILE);
    let (wal_read_s, wal) = median_s(|| read_wal(&wal_path));
    checks.require(wal.map(|_| ()), "read_wal");
    table.set("store.wal_read_s", wal_read_s);

    let (encode_s, doc) = median_s(|| encode_snapshot(&recovered.state));
    let (decode_s, decoded) = median_s(|| decode_snapshot(&doc));
    let decoded = checks.require(decoded, "decode_snapshot");
    checks.check(encode_snapshot(&decoded) == doc, || {
        "the decoded snapshot does not re-encode to the same bytes".to_string()
    });
    drop(decoded);
    let pages = recovered.state.collection.len().max(1);
    table.set("store.snapshot_encode_s", encode_s);
    table.set("store.snapshot_decode_s", decode_s);
    table.set("store.snapshot_bytes", doc.len() as f64);
    table.set(
        "store.snapshot_bytes_per_page",
        doc.len() as f64 / pages as f64,
    );
    table.set("store.encode_mb_per_s", doc.len() as f64 / 1e6 / encode_s);
    drop(doc);

    // One simulated day's records, appended and committed as the
    // checkpointer does at a pass boundary (fsync included).
    let first_t = recovered.wal.first().map_or(0.0, WalEvent::t);
    let day: Vec<WalEvent> = recovered
        .wal
        .iter()
        .take_while(|e| e.t() < first_t + 1.0)
        .cloned()
        .collect();
    let scratch = ScratchDir::new("wal-probe");
    std::fs::create_dir_all(scratch.path()).expect("the output directory is writable");
    let probe_path = scratch.path().join(WAL_FILE);
    let last_seq = day.last().map_or(0, WalEvent::seq);
    let mut appended = 0u64;
    let mut samples = Vec::with_capacity(PROBE_REPS);
    for _ in 0..PROBE_REPS {
        // Creating the writer syncs its header; that is not the append.
        let mut writer = checks.require(WalWriter::create(&probe_path), "WAL create");
        let start = Instant::now();
        let result = writer.append_committed(&day, last_seq);
        samples.push(start.elapsed().as_secs_f64());
        appended = checks.require(result, "WAL append");
    }
    table.note(
        "store.wal_append_s",
        stats::median(&samples),
        format!(
            "{} records, fsync on {}",
            day.len(),
            procfs::describe_filesystem(scratch.path())
        ),
    );
    table.set(
        "store.wal_bytes_per_record",
        appended as f64 / day.len().max(1) as f64,
    );

    // core: rebuild the engine from the snapshot, replay the tail.
    let mut restore_samples = Vec::with_capacity(PROBE_REPS);
    let mut replay_samples = Vec::with_capacity(PROBE_REPS);
    let mut last = None;
    for _ in 0..PROBE_REPS {
        let state = recovered.state.clone();
        let start = Instant::now();
        let restored = restore(state);
        restore_samples.push(start.elapsed().as_secs_f64());
        let (mut engine, fetcher_state) = checks.require(restored, "restore");
        let mut fetcher = SimFetcher::new(universe);
        if let Some(fetcher_state) = fetcher_state {
            fetcher.restore_state(fetcher_state);
        }
        let start = Instant::now();
        let replayed = engine.replay(universe, &mut fetcher, &recovered.wal);
        replay_samples.push(start.elapsed().as_secs_f64());
        checks.require(replayed, "replay");
        last = Some((engine, fetcher));
    }
    table.set("core.restore_s", stats::median(&restore_samples));
    table.set("core.replay_s", stats::median(&replay_samples));
    table.set("core.replay_events", recovered.wal.len() as f64);
    last.expect("PROBE_REPS > 0")
}

fn obs_probes(table: &mut Table) {
    let clock = LogicalClock::new(0.0, 0);
    let recording = ObsSink::recording();
    table.set(
        "obs.span_ns",
        ns_per_call(10_000, |_| drop(recording.span(Stage::FetchBatch, clock))),
    );
    let noop = ObsSink::noop();
    table.set(
        "obs.noop_span_ns",
        ns_per_call(1_000_000, |_| {
            drop(std::hint::black_box(noop.span(Stage::FetchBatch, clock)));
        }),
    );
}

pub fn run(w: &Workload, seed: u64, seconds: f64, checks: &mut Checks) -> (Vec<Metric>, u64) {
    let mut table = Table::default();
    let clock_ns = harness::clock_ns();
    table.note("bench.clock_ns", clock_ns, "one Instant::now() pair");
    if w.engine != EngineKind::Periodic {
        estimate_probes(w, &mut table);
    }

    let start = Instant::now();
    let universe = harness::generate(w, seed);
    table.set("sim.generate_s", start.elapsed().as_secs_f64());
    table.set("sim.arena_bytes", universe.arena_bytes() as f64);
    let rss_generated = procfs::read_status().vm_rss_bytes;

    // The cold rep, observation off: where the engine's state is first
    // faulted in.
    let (cold, _) = harness::rep(w, &universe, checks, "cold", false);
    table.set("core.cold_wall_s", cold.wall_s);
    table.set("core.cold_sys_s", cold.sys_s);
    table.set("core.cold_minor_faults", cold.minor_faults as f64);
    table.note(
        "core.state_bytes_per_page",
        cold.vm_hwm_bytes.saturating_sub(rss_generated) as f64 / cold.collection_len as f64,
        format!(
            "(VmHWM {} B - RSS after generation {rss_generated} B) / {} pages",
            cold.vm_hwm_bytes, cold.collection_len
        ),
    );

    // Untraced reps for half the run: the wall the traced rep is compared
    // with.
    let mut untraced = Vec::new();
    let started = Instant::now();
    while untraced.len() < 2 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let (rep, _) = harness::rep(w, &universe, checks, "untraced", false);
        checks.check(rep.digest == cold.digest, || {
            format!(
                "untraced rep digest {:016x} differs from the cold rep's {:016x}",
                rep.digest, cold.digest
            )
        });
        untraced.push(rep.wall_s);
    }

    let sink = ObsSink::recording();
    let traced = traced_rep(w, &universe, &sink, &mut table, checks);
    span_metrics(&sink, &mut table, checks);
    let overhead = table.get("core.drive_s") / stats::median(&untraced);
    table.note(
        "obs.trace_overhead_ratio",
        overhead,
        format!("traced drive / median of {} untraced reps", untraced.len()),
    );

    let Traced {
        mut engine,
        killed_dir,
    } = traced;
    // A durable traced rep stops at the kill: recover it the way a session
    // would, probe the store on what the kill left, then drive the
    // recovered engine to the horizon so its trajectory can be checked too.
    if let Some(dir) = &killed_dir {
        drop(engine);
        let (recovered, mut fetcher) = store_probes(dir, &universe, &mut table, checks);
        engine = recovered;
        let result = engine
            .drive(&universe, &mut fetcher, &mut NoopHook, w.days)
            .map(|_| ());
        checks.require(result, "drive after replay");
    }
    let traced_digest = harness::trajectory_digest(engine.metrics());
    checks.check(traced_digest == cold.digest, || {
        format!(
            "traced rep digest {traced_digest:016x} differs from the untraced {:016x}",
            cold.digest
        )
    });

    let (export_s, state) = median_s(|| engine.export_state());
    table.set("core.export_state_s", export_s);
    drop(engine);
    if killed_dir.is_none() {
        let mut samples = Vec::with_capacity(PROBE_REPS);
        for _ in 0..PROBE_REPS {
            let copy = state.clone();
            let start = Instant::now();
            let restored = restore(copy);
            samples.push(start.elapsed().as_secs_f64());
            checks.require(restored.map(|_| ()), "restore");
        }
        table.set("core.restore_s", stats::median(&samples));
    }
    if state.periodic.is_none() {
        incremental_probes(w, &universe, &state, &mut table);
    }
    obs_probes(&mut table);

    let trace_path = harness::out_dir().join(format!("{}.trace.jsonl", w.name));
    let written = std::fs::File::create(&trace_path).and_then(|file| {
        let mut out = std::io::BufWriter::new(file);
        sink.write_trace_jsonl(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    checks.require(written, "trace file");
    println!("spans written to {}", trace_path.display());
    (table.into_metrics(), cold.digest)
}
