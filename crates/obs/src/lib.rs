//! Observability for the webevo crawl engines: structured spans, a
//! mergeable metrics registry, and exporters for traces, metrics, and
//! flamegraph profiles.
//!
//! The crawl engines are deterministic discrete-event loops whose outputs
//! must stay byte-identical across runs, kills, and resumes — so the one
//! hard rule of this crate is that **observation never feeds back into
//! crawl decisions**. An [`ObsSink`] is a write-only channel: engines,
//! checkpointer, and fleet push spans and metric samples into it, wall
//! times are taken out-of-band from a monotonic epoch, and nothing an
//! instrumented component does ever reads an observed value back. The
//! sink is also deliberately absent from `CrawlerState` and every
//! snapshot/WAL format: a traced run and an untraced run produce the same
//! bytes everywhere except the trace files themselves
//! (`tests/determinism.rs` pins this for all three engines and a sharded
//! fleet).
//!
//! # Architecture
//!
//! * [`ObsSink`] — a cheaply clonable handle. [`ObsSink::noop`] (the
//!   default everywhere) carries no state at all: every call is one
//!   `Option` check, so uninstrumented runs pay effectively nothing.
//!   [`ObsSink::recording`] shares one lock-protected store between all
//!   clones; [`ObsSink::for_shard`] derives a child handle that stamps
//!   everything it records with a [`ShardId`], which is how one fleet-wide
//!   sink yields per-shard series.
//! * **Spans** ([`ObsSink::span`], [`SpanGuard`]) — hierarchical stages
//!   ([`Stage`]): drive → pass/cycle → fetch batch → freshness sample,
//!   WAL flush, snapshot encode/decode, exchange barrier, rebalance.
//!   Each span records wall
//!   time *and* the logical clock ([`LogicalClock`]: day + fetch sequence,
//!   plus the sink's shard), so traces line up across shards and across
//!   replays even though wall times differ run to run.
//! * **Metrics** ([`MetricsRegistry`]) — named counters, gauges, and
//!   fixed-bucket histograms with deterministic bucket edges, mergeable
//!   across shards the same way `CrawlMetrics::merge_weighted` merges the
//!   crawl series.
//! * **Exporters** — [`ObsSink::write_trace_jsonl`] (one JSON object per
//!   span), [`ObsSink::write_prometheus`] (text exposition, shard label
//!   per series), [`ObsSink::write_folded`] (folded stacks for
//!   `flamegraph.pl` / inferno), and [`ObsSink::stage_report`] (the
//!   end-of-run human-readable stage-time table).
//!
//! # Example: a traced crawl session
//!
//! ```
//! use webevo_core::engine::{CrawlBudget, EngineKind};
//! use webevo_obs::ObsSink;
//! use webevo_sim::{UniverseConfig, WebUniverse};
//! use webevo_store::CrawlSession;
//!
//! let universe = WebUniverse::generate(UniverseConfig::test_scale(1));
//! let obs = ObsSink::recording();
//! let mut session = CrawlSession::builder()
//!     .engine(EngineKind::Incremental)
//!     .budget(CrawlBudget::paper_monthly(20).with_cycle_days(5.0))
//!     .universe(&universe)
//!     .obs(obs.clone())
//!     .build()
//!     .expect("a valid session");
//! session.run(6.0).expect("the crawl runs");
//!
//! // The run emitted drive/pass/fetch spans and fetch-outcome counters.
//! let mut trace = Vec::new();
//! obs.write_trace_jsonl(&mut trace).expect("trace serializes");
//! assert!(!trace.is_empty());
//! let merged = obs.merged_registry().expect("one sink, one edge set");
//! assert!(merged.counter("fetch_ok_total") > 0);
//! println!("{}", obs.stage_report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod registry;

pub use registry::{Histogram, MetricsRegistry, ObsError};

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;
use webevo_types::ShardId;

/// The instrumented stages of a crawl, from outermost to innermost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// One `drive(until)` call on an engine — the outermost span of a
    /// crawl leg (a fleet emits one per shard per barrier segment).
    Drive,
    /// A pass boundary: ranking run + hook flush on the incremental and
    /// threaded engines, the shadow→current swap on the periodic engine.
    Pass,
    /// Inside a pass: flattening the collection's links and AllUrls'
    /// candidates into the ranking pass's input.
    RankBuild,
    /// PageRank, candidate estimates and replacement selection over a
    /// built input: inside a pass on the inline executor, a root span on
    /// the pool's ranking thread, stamped with the logical clock of the
    /// boundary that issued the request.
    RankSolve,
    /// Inside a pass: the UpdateModule's revisit-interval reallocation.
    Reallocate,
    /// One full periodic crawl cycle (batch window + idle tail).
    Cycle,
    /// The fetching work between two consecutive boundaries.
    FetchBatch,
    /// One freshness/age sample of the user-visible collection against
    /// simulator ground truth, stamped with the sampled instant.
    Sample,
    /// Encoding and atomically writing one snapshot.
    SnapshotEncode,
    /// Reading and decoding a checkpoint during recovery.
    SnapshotDecode,
    /// One pass-boundary WAL flush (buffer → frames → `sync_data`).
    WalFlush,
    /// One fleet exchange barrier: outbox drain, routing, injection, sync.
    ExchangeBarrier,
    /// A fleet rebalance: state migration onto a new shard plan.
    Rebalance,
    /// Building and publishing one immutable serving view at a pass/cycle
    /// boundary (the epoch swap of `webevo-serve`).
    ViewSwap,
}

impl Stage {
    /// The stable snake_case name used in every exporter.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Drive => "drive",
            Stage::Pass => "pass",
            Stage::RankBuild => "rank_build",
            Stage::RankSolve => "rank_solve",
            Stage::Reallocate => "reallocate",
            Stage::Cycle => "cycle",
            Stage::FetchBatch => "fetch_batch",
            Stage::Sample => "sample",
            Stage::SnapshotEncode => "snapshot_encode",
            Stage::SnapshotDecode => "snapshot_decode",
            Stage::WalFlush => "wal_flush",
            Stage::ExchangeBarrier => "exchange_barrier",
            Stage::Rebalance => "rebalance",
            Stage::ViewSwap => "view_swap",
        }
    }
}

/// The deterministic half of a span stamp: where the *simulation* stood
/// when the span opened. Wall times differ run to run; the logical clock
/// is what lines traces up across shards, replays, and machines.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LogicalClock {
    /// Simulated day.
    pub day: f64,
    /// Fetch sequence number (0 where no fetch counter applies, e.g.
    /// fleet-level barriers count exchanges instead).
    pub fetch_seq: u64,
}

impl LogicalClock {
    /// A stamp at simulated `day` and fetch sequence `fetch_seq`.
    pub fn new(day: f64, fetch_seq: u64) -> LogicalClock {
        LogicalClock { day, fetch_seq }
    }
}

/// One recorded span. Public so exporters and tests can inspect traces;
/// instrumented code only ever sees [`SpanGuard`].
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// The shard context of the recording sink (`None` for the fleet
    /// coordinator or a standalone session).
    pub shard: Option<ShardId>,
    /// Which stage.
    pub stage: Stage,
    /// Semicolon-joined stage path from the context's root span, e.g.
    /// `drive;fetch_batch` — the folded-stack identity of the span.
    pub path: String,
    /// Logical clock at open.
    pub clock: LogicalClock,
    /// Wall-clock microseconds since the sink's epoch at open.
    pub start_us: u64,
    /// Wall-clock microseconds since the sink's epoch at close (`None`
    /// while the span is still open).
    pub end_us: Option<u64>,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
}

impl SpanRecord {
    /// Wall duration in microseconds (0 for a still-open span).
    pub fn duration_us(&self) -> u64 {
        self.end_us.unwrap_or(self.start_us).saturating_sub(self.start_us)
    }
}

/// A span stack's key: the recording handle's shard context and the
/// thread that opened the span.
type StackKey = (Option<ShardId>, ThreadId);

/// The shared store behind a recording sink. Span stacks are kept per
/// shard context *and* per thread: a span nests only under spans its own
/// thread opened, so an off-thread stage (a background snapshot encode,
/// the pool's ranking solve) is a root of its own instead of adopting
/// whatever the crawl thread has open. The stacks are never iterated, so
/// their hashing order cannot reach any output.
#[derive(Debug)]
pub(crate) struct ObsState {
    epoch: Instant,
    pub(crate) spans: Vec<SpanRecord>,
    stacks: HashMap<StackKey, Vec<usize>>,
    pub(crate) registries: BTreeMap<Option<ShardId>, MetricsRegistry>,
}

impl ObsState {
    fn new() -> ObsState {
        ObsState {
            epoch: Instant::now(),
            spans: Vec::new(),
            stacks: HashMap::new(),
            registries: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A write-only observability handle. See the crate docs; the default
/// ([`ObsSink::noop`]) records nothing and costs one branch per call.
#[derive(Clone, Debug, Default)]
pub struct ObsSink {
    inner: Option<Arc<Mutex<ObsState>>>,
    shard: Option<ShardId>,
}

impl ObsSink {
    /// The no-op sink: every operation returns immediately. This is the
    /// default on every builder, so uninstrumented runs stay effectively
    /// free.
    pub fn noop() -> ObsSink {
        ObsSink::default()
    }

    /// A recording sink. All clones (including [`ObsSink::for_shard`]
    /// children) share one store; exporters on any handle see the whole
    /// trace.
    pub fn recording() -> ObsSink {
        ObsSink { inner: Some(Arc::new(Mutex::new(ObsState::new()))), shard: None }
    }

    /// A child handle that stamps everything it records with `shard`.
    /// Spans and metrics recorded through it land in that shard's series;
    /// the store (and epoch) stays shared with the parent.
    pub fn for_shard(&self, shard: ShardId) -> ObsSink {
        ObsSink { inner: self.inner.clone(), shard: Some(shard) }
    }

    /// Whether this sink records anything. Hot paths may use this to skip
    /// preparing values, exactly like `CrawlHook::active`.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The shard context this handle stamps, if any.
    pub fn shard(&self) -> Option<ShardId> {
        self.shard
    }

    fn lock(&self) -> Option<std::sync::MutexGuard<'_, ObsState>> {
        self.inner
            .as_ref()
            .map(|inner| inner.lock().expect("no recorder panicked holding the obs lock"))
    }

    /// Open a span for `stage` at logical time `clock`. The span closes —
    /// and its wall duration is recorded — when the returned guard drops.
    /// On a no-op sink this returns an inert guard.
    pub fn span(&self, stage: Stage, clock: LogicalClock) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { ctx: None };
        };
        let key = (self.shard, std::thread::current().id());
        let mut state = inner.lock().expect("no recorder panicked holding the obs lock");
        let start_us = state.now_us();
        let parent = state.stacks.get(&key).and_then(|stack| stack.last().copied());
        let path = match parent {
            Some(p) => {
                let mut path = state.spans[p].path.clone();
                path.push(';');
                path.push_str(stage.name());
                path
            }
            None => stage.name().to_string(),
        };
        let idx = state.spans.len();
        state.spans.push(SpanRecord {
            shard: self.shard,
            stage,
            path,
            clock,
            start_us,
            end_us: None,
            parent,
        });
        state.stacks.entry(key).or_default().push(idx);
        SpanGuard { ctx: Some(SpanCtx { state: Arc::clone(inner), key, idx }) }
    }

    /// Add `delta` to the counter `name` in this handle's shard context.
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(mut state) = self.lock() {
            state.registries.entry(self.shard).or_default().add(name, delta);
        }
    }

    /// Set the gauge `name` to `value` in this handle's shard context.
    pub fn gauge(&self, name: &str, value: f64) {
        if let Some(mut state) = self.lock() {
            state.registries.entry(self.shard).or_default().gauge(name, value);
        }
    }

    /// Record `value` into the fixed-bucket histogram `name` in this
    /// handle's shard context.
    pub fn observe(&self, name: &str, value: f64) {
        if let Some(mut state) = self.lock() {
            state.registries.entry(self.shard).or_default().observe(name, value);
        }
    }

    /// Every recorded span, in open order. Empty on a no-op sink.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().map(|state| state.spans.clone()).unwrap_or_default()
    }

    /// Every shard context's registry, ascending by shard (`None` — the
    /// unsharded context — first). Empty on a no-op sink.
    pub fn registries(&self) -> Vec<(Option<ShardId>, MetricsRegistry)> {
        self.lock()
            .map(|state| {
                state
                    .registries
                    .iter()
                    .map(|(shard, registry)| (*shard, registry.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All shard contexts' registries merged into one, in ascending shard
    /// order — counters sum, gauges keep their maximum, histograms add
    /// bucket-wise. Fails if two shards ever disagreed on a histogram's
    /// bucket edges (they cannot, with this crate's fixed default edges).
    pub fn merged_registry(&self) -> Result<MetricsRegistry, ObsError> {
        let mut merged = MetricsRegistry::default();
        for (_, registry) in self.registries() {
            merged.merge_from(&registry)?;
        }
        Ok(merged)
    }
}

struct SpanCtx {
    state: Arc<Mutex<ObsState>>,
    /// The stack the span was pushed on, so the guard pops from its own.
    key: StackKey,
    idx: usize,
}

/// RAII guard for an open span: records the closing wall time on drop.
/// Inert (and free) when obtained from a no-op sink.
pub struct SpanGuard {
    ctx: Option<SpanCtx>,
}

impl SpanGuard {
    /// Whether this guard belongs to a recording sink.
    fn is_recording(&self) -> bool {
        self.ctx.is_some()
    }
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard").field("recording", &self.is_recording()).finish()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(ctx) = self.ctx.take() else { return };
        let mut state = ctx.state.lock().expect("no recorder panicked holding the obs lock");
        let end = state.now_us();
        state.spans[ctx.idx].end_us = Some(end);
        if let Some(stack) = state.stacks.get_mut(&ctx.key) {
            if let Some(pos) = stack.iter().rposition(|&i| i == ctx.idx) {
                stack.remove(pos);
            }
            // A finished thread leaves no empty stack behind.
            if stack.is_empty() {
                state.stacks.remove(&ctx.key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing() {
        let sink = ObsSink::noop();
        assert!(!sink.enabled());
        {
            let _span = sink.span(Stage::Drive, LogicalClock::new(1.0, 5));
        }
        sink.add("fetch_ok_total", 3);
        sink.observe("wal_flush_records", 12.0);
        assert!(sink.spans().is_empty());
        assert!(sink.registries().is_empty());
        assert_eq!(sink.merged_registry().unwrap().counter("fetch_ok_total"), 0);
    }

    #[test]
    fn spans_nest_per_context_and_stamp_the_logical_clock() {
        let sink = ObsSink::recording();
        {
            let _drive = sink.span(Stage::Drive, LogicalClock::new(0.0, 0));
            {
                let _batch = sink.span(Stage::FetchBatch, LogicalClock::new(0.5, 17));
            }
            let _pass = sink.span(Stage::Pass, LogicalClock::new(1.0, 40));
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].path, "drive");
        assert_eq!(spans[1].path, "drive;fetch_batch");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].clock.fetch_seq, 17);
        assert_eq!(spans[2].path, "drive;pass");
        assert!(spans.iter().all(|s| s.end_us.is_some()));
        // Children close before (or when) the parent does.
        assert!(spans[1].end_us.unwrap() <= spans[0].end_us.unwrap());
    }

    #[test]
    fn shard_handles_share_the_store_but_separate_the_series() {
        let fleet = ObsSink::recording();
        let s0 = fleet.for_shard(ShardId(0));
        let s1 = fleet.for_shard(ShardId(1));
        {
            let _a = s0.span(Stage::Drive, LogicalClock::default());
            // A second context opens its own root: stacks are per shard.
            let _b = s1.span(Stage::Drive, LogicalClock::default());
            let _c = s1.span(Stage::WalFlush, LogicalClock::default());
        }
        s0.add("fetch_ok_total", 2);
        s1.add("fetch_ok_total", 5);
        fleet.add("exchange_barriers_total", 1);
        let spans = fleet.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].shard, Some(ShardId(0)));
        assert_eq!(spans[0].path, "drive");
        assert_eq!(spans[2].shard, Some(ShardId(1)));
        assert_eq!(spans[2].path, "drive;wal_flush");
        let registries = fleet.registries();
        assert_eq!(registries.len(), 3); // fleet context + two shards
        assert_eq!(registries[0].0, None);
        let merged = fleet.merged_registry().unwrap();
        assert_eq!(merged.counter("fetch_ok_total"), 7);
        assert_eq!(merged.counter("exchange_barriers_total"), 1);
    }

    #[test]
    fn a_span_on_another_thread_is_a_root_not_a_child_of_this_threads_span() {
        let sink = ObsSink::recording();
        let pass = sink.span(Stage::Pass, LogicalClock::new(2.0, 40));
        let worker = sink.clone();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _solve = worker.span(Stage::RankSolve, LogicalClock::new(2.0, 40));
                let _inner = worker.span(Stage::Reallocate, LogicalClock::new(2.0, 40));
            });
        });
        // This thread's stack is untouched by the other thread's spans.
        let _after = sink.span(Stage::Reallocate, LogicalClock::new(2.0, 41));
        drop(pass);
        let spans = sink.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[1].path.as_str(), spans[1].parent), ("rank_solve", None));
        assert_eq!((spans[2].path.as_str(), spans[2].parent), ("rank_solve;reallocate", Some(1)));
        assert_eq!((spans[3].path.as_str(), spans[3].parent), ("pass;reallocate", Some(0)));
    }

    #[test]
    fn stage_names_are_stable() {
        // Exporter output is a schema; renaming a stage is a breaking
        // change and must be deliberate.
        let names: Vec<&str> = [
            Stage::Drive,
            Stage::Pass,
            Stage::RankBuild,
            Stage::RankSolve,
            Stage::Reallocate,
            Stage::Cycle,
            Stage::FetchBatch,
            Stage::Sample,
            Stage::SnapshotEncode,
            Stage::SnapshotDecode,
            Stage::WalFlush,
            Stage::ExchangeBarrier,
            Stage::Rebalance,
            Stage::ViewSwap,
        ]
        .into_iter()
        .map(Stage::name)
        .collect();
        assert_eq!(
            names,
            [
                "drive",
                "pass",
                "rank_build",
                "rank_solve",
                "reallocate",
                "cycle",
                "fetch_batch",
                "sample",
                "snapshot_encode",
                "snapshot_decode",
                "wal_flush",
                "exchange_barrier",
                "rebalance",
                "view_swap"
            ]
        );
    }
}
