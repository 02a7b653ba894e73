//! [`FleetSession`]: a sharded crawl fleet — many [`CrawlSession`]s, one
//! result.
//!
//! The paper's incremental crawler is explicitly a web-scale system: §2
//! monitors 270 sites / 720,000 pages daily, and §4–5 argue the real
//! crawler must spread that work across many concurrent crawl units. The
//! fleet is that horizontal layer. A [`ShardPlan`] deterministically
//! partitions the universe's sites across `N` shards; each shard runs as a
//! scoped [`CrawlSession`] — its own engine instance, its own checkpoint
//! directory — on a worker thread.
//!
//! # The link-exchange protocol
//!
//! Shards are *scoped*, not blind: a shard's engine knows the plan, skips
//! seeds on foreign sites, and diverts every foreign link it discovers
//! into its routing **outbox** instead of burning a fetch on a URL another
//! shard owns; the engine, where it schedules fetch slots, is the one
//! place that scope is enforced. The fleet drives all shards in lockstep
//! between **exchange barriers** at `T(b) = b · interval` (the ranking
//! interval for incremental shards, the cycle length for periodic ones).
//! At each barrier the coordinator:
//!
//! 1. takes every shard's checkpoint step: it commits the shard's leg to
//!    its write-ahead log and, when the snapshot cadence is due, hands
//!    the shard's *pre-injection* state to the shard's background
//!    snapshot encoder (a shard's pass boundaries only commit, so this is
//!    the one place its snapshots come from);
//! 2. reads *every* shard's outbox (before injecting into any shard —
//!    injection clears the receiving shard's own outbox);
//! 3. merges the links per destination shard in `(source ShardId, seq)`
//!    order ([`route_exchange`]), so the batches are a pure function of
//!    the outbox contents, independent of thread scheduling;
//! 4. delivers each shard's batch: injects it into the engine frontier
//!    (consuming one sequence number) and commits it as a routed record
//!    to the shard's write-ahead log. The commit first joins the shard's
//!    snapshot, so the shard's directory receives the snapshot, then the
//!    WAL reset, then the batch — and the exchange is durable before any
//!    shard crawls past the barrier.
//!
//! Every shard receives a batch at every barrier — an empty one if
//! nothing routed its way — so the applied-exchange counter stays uniform
//! across the fleet, which is what lets recovery detect and align a kill
//! that landed mid-exchange. The merged fleet result is byte-identical
//! across runs and across [`FleetSessionBuilder::concurrency`] values:
//! thread scheduling decides only *when* a shard's numbers are produced,
//! never what they are.
//!
//! # On-disk layout
//!
//! With checkpointing configured, the fleet directory holds one manifest
//! plus one checkpoint directory per shard:
//!
//! ```text
//! fleet-dir/
//! ├── fleet.manifest     # shard count, partition fn, engine kind, seed
//! │                      #   (binary, checksummed; see FleetManifest)
//! ├── shard-0/           # a normal CrawlSession checkpoint dir:
//! │   ├── snapshot.wsnap #   base snapshot at lineage start, then cadence
//! │   └── wal.wlog       #   committed per-fetch deltas, interleaved with
//! │                      #   routed-batch records (frame tag 'X') at each
//! │                      #   exchange barrier
//! ├── shard-1/
//! │   └── …
//! └── shard-N-1/
//! ```
//!
//! [`FleetSession::resume`] validates the manifest against the builder's
//! configuration (shard count, partition function, engine kind, and
//! universe seed must match — a fleet must never resume under a different
//! routing) and each shard's recorded scope against the manifest plan (a
//! shard checkpointed under another plan is a typed
//! `StoreError::ShardPlanMismatch`). A kill can land mid-exchange, with
//! some shards' logs holding a routed batch their peers never received;
//! recovery *aligns* the fleet by dropping those trailing batches down to
//! the fleet-wide minimum exchange count — every shard then sits exactly
//! at the barrier with its outbox intact, its log cut back to that
//! barrier — and re-runs the exchange from the live outboxes, which
//! reproduces the dropped batches byte for byte.
//! The resumed trajectory therefore equals an uninterrupted run
//! (`tests/determinism.rs`).
//!
//! # Rebalancing
//!
//! [`FleetSession::rebalance`] migrates a checkpointed incremental fleet
//! onto a new [`ShardPlan`] (same shard count — e.g. hash → balanced to
//! fix ownership skew) between passes: it recovers every shard, performs
//! one final exchange so no outbox holds links routed under the old plan,
//! moves pages, URL evidence, revisit-queue entries, and admissions to
//! their new owners at the state level, re-apportions collection capacity
//! to the new ownership, writes a fresh snapshot lineage per shard, and
//! atomically rewrites the manifest. Resuming afterwards continues under
//! the new plan; resuming a stale pre-rebalance shard directory against
//! the rewritten manifest is the `ShardPlanMismatch` error above.
//!
//! Any [`EngineKind`] runs per shard, including the threaded engine: it
//! schedules, scopes and fetches through its shard's fetcher exactly as
//! the inline engine does and speaks the same outbox/exchange protocol,
//! so worker parallelism composes with sharding and with
//! [`FleetSessionBuilder::failure_rate`].
//!
//! ```
//! use webevo_core::engine::{CrawlBudget, EngineKind};
//! use webevo_sim::{UniverseConfig, WebUniverse};
//! use webevo_store::FleetSession;
//!
//! let universe = WebUniverse::generate(UniverseConfig::test_scale(11));
//! let mut fleet = FleetSession::builder()
//!     .shards(2)
//!     .engine(EngineKind::Incremental)
//!     .budget(CrawlBudget::paper_monthly(40).with_cycle_days(8.0))
//!     .universe(&universe)
//!     .build()
//!     .expect("a valid fleet");
//! let results = fleet.run(10.0).expect("the fleet runs");
//! assert_eq!(results.shards.len(), 2);
//! assert!(results.merged.fetches > 0);
//! // Every fetch the fleet performed happened on exactly one shard.
//! let per_shard: u64 = results.shards.iter().map(|s| s.metrics.fetches).sum();
//! assert_eq!(results.merged.fetches, per_shard);
//! // Foreign discoveries route between shards instead of burning fetches.
//! let routed: u64 = results.shards.iter().map(|s| s.routed_links).sum();
//! assert!(routed > 0, "cross-shard links were exchanged");
//! ```

use crate::checkpoint::{recover, write_atomically, CheckpointConfig, Checkpointer, Recovered};
use crate::codec::{decode_document, encode_document, StoreError};
use crate::session::CrawlSession;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use webevo_core::engine::{CrawlBudget, EngineKind};
use webevo_core::{rebalance_states, route_exchange, CrawlMetrics, RoutedLink, ShardScope, WalEvent};
use webevo_obs::{LogicalClock, ObsSink, Stage};
use webevo_serve::{FleetViewCollector, QueryService, ServeHandle};
use webevo_sim::{SimFetcher, WebUniverse};
use webevo_types::{wire_struct, ShardFn, ShardId, ShardPlan, WebEvoError};

/// Manifest file name within a fleet directory.
const MANIFEST_FILE: &str = "fleet.manifest";
/// Magic token opening the manifest's header line.
const MANIFEST_MAGIC: &str = "WEBEVO-MANIFEST";
/// The manifest format version this build writes, and the only one it
/// reads. Version 1 was an unchecksummed JSON object.
pub const MANIFEST_VERSION: u32 = 2;

/// The name of shard `k`'s checkpoint directory under the fleet dir.
fn shard_dir_name(shard: ShardId) -> String {
    format!("shard-{}", shard.0)
}

/// The durable identity of a fleet — the routing-relevant fields
/// (`plan`, `engine`, `seed`) that `resume` verifies before it re-routes
/// sites to shards — plus the snapshot cadence, recorded for operators but
/// deliberately *not* validated (resuming under a new cadence is
/// legitimate tuning, exactly as it is for a single `CrawlSession`).
/// Stored in `fleet.manifest` under the same header discipline as
/// snapshots: the text line `WEBEVO-MANIFEST <version> <fnv64 of payload>`
/// followed by these fields in the binary wire format, so a torn or
/// bit-rotted manifest is detected rather than half-loaded.
/// [`FleetSession::rebalance`] rewrites it atomically when the plan
/// changes.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetManifest {
    /// The site partition: shard count, total sites, and partition
    /// function. Resuming under a different plan would route sites to
    /// different shards and tear every shard's deterministic schedule.
    pub plan: ShardPlan,
    /// The per-shard engine kind.
    pub engine: EngineKind,
    /// The universe seed the fleet crawled (the whole synthetic web
    /// derives from it, so it identifies the crawl target).
    pub seed: u64,
    /// Full-snapshot cadence of every shard's checkpointer when the
    /// manifest was written (informational; see the struct docs).
    pub snapshot_every_days: f64,
}

wire_struct!(FleetManifest { plan, engine, seed, snapshot_every_days });

/// One shard's share of a fleet result.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Which shard.
    pub shard: ShardId,
    /// The shard's collection capacity (its weight in the merge).
    pub capacity: usize,
    /// Sites the plan assigns to this shard.
    pub sites: usize,
    /// Pages the shard's engine holds user-visible at the horizon.
    pub collection_len: usize,
    /// Links delivered *to* this shard by exchange barriers during the
    /// run: foreign discoveries other shards routed here instead of
    /// burning fetches on them.
    pub routed_links: u64,
    /// The shard's own metrics.
    pub metrics: CrawlMetrics,
}

/// A fleet run's outcome: the order-independent merged view plus every
/// shard's own report (ascending shard order).
#[derive(Clone, Debug)]
pub struct FleetMetrics {
    /// Fleet-level metrics, merged in ascending shard order (see
    /// [`CrawlMetrics::merge_weighted`] for per-channel semantics).
    pub merged: CrawlMetrics,
    /// Per-shard reports, index = shard id.
    pub shards: Vec<ShardReport>,
}

impl FleetMetrics {
    /// Total pages user-visible across the fleet.
    pub fn collection_len(&self) -> usize {
        self.shards.iter().map(|s| s.collection_len).sum()
    }

    /// Total links delivered across all exchange barriers.
    pub fn routed_links(&self) -> u64 {
        self.shards.iter().map(|s| s.routed_links).sum()
    }
}

/// Builder for a [`FleetSession`]. Obtain via [`FleetSession::builder`].
pub struct FleetSessionBuilder<'a> {
    universe: Option<&'a WebUniverse>,
    engine: EngineKind,
    budget: Option<CrawlBudget>,
    shards: u32,
    function: ShardFn,
    checkpoint: Option<(PathBuf, f64)>,
    concurrency: Option<usize>,
    failure_rate: f64,
    obs: ObsSink,
}

impl<'a> FleetSessionBuilder<'a> {
    fn new() -> FleetSessionBuilder<'a> {
        FleetSessionBuilder {
            universe: None,
            engine: EngineKind::Incremental,
            budget: None,
            shards: 1,
            function: ShardFn::Hash,
            checkpoint: None,
            concurrency: None,
            failure_rate: 0.0,
            obs: ObsSink::noop(),
        }
    }

    /// How many shards to partition the sites across (required; ≥ 1).
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// The partition-function family (default: [`ShardFn::Hash`]).
    /// [`ShardFn::Balanced`] round-robins sites by id, which keeps
    /// per-shard ownership within one site of even — the skew-free choice
    /// when sites carry comparable weight.
    pub fn partition(mut self, function: ShardFn) -> Self {
        self.function = function;
        self
    }

    /// The per-shard engine kind (default: incremental). Every kind
    /// composes with sharding: each shard runs its own engine, scoped
    /// where it schedules fetch slots.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = kind;
        self
    }

    /// The *fleet-wide* fetch budget (required): capacity and crawl rate
    /// are split across the shards — capacity apportioned by owned sites,
    /// and each shard's crawl rate the share of the fleet's rate that its
    /// capacity is of the whole — so N shards together are granted
    /// exactly the one-engine budget.
    pub fn budget(mut self, budget: CrawlBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// The synthetic web to crawl (required). All shards share it
    /// read-only; the [`ShardPlan`] decides who fetches what.
    pub fn universe(mut self, universe: &'a WebUniverse) -> Self {
        self.universe = Some(universe);
        self
    }

    /// Checkpoint every shard under `dir/shard-K/`, with a fleet manifest
    /// at `dir/fleet.manifest`. Also the directory [`FleetSession::resume`]
    /// recovers from.
    pub fn checkpoint(mut self, dir: impl AsRef<Path>, snapshot_every_days: f64) -> Self {
        self.checkpoint = Some((dir.as_ref().to_path_buf(), snapshot_every_days));
        self
    }

    /// Cap on concurrently running shard threads (default: one thread per
    /// shard). The outcome is byte-identical for every value ≥ 1 — shards
    /// advance in lockstep between exchange barriers and the merge order
    /// is fixed — so this only trades memory/core pressure against
    /// wall-clock time.
    pub fn concurrency(mut self, threads: usize) -> Self {
        self.concurrency = Some(threads);
        self
    }

    /// Inject transient fetch failures at this rate into every shard's
    /// fetcher (deterministic per shard; useful for recovery testing).
    pub fn failure_rate(mut self, rate: f64) -> Self {
        self.failure_rate = rate;
        self
    }

    /// Observe the fleet through `sink`: each shard's session gets a
    /// shard-labelled view of it (see [`ObsSink::for_shard`]), the
    /// coordinator stamps exchange barriers and rebalances, and
    /// [`ObsSink::merged_registry`] afterwards folds the per-shard
    /// histograms into one fleet-wide view. The default [`ObsSink::noop`]
    /// records nothing; tracing never changes what the fleet crawls.
    pub fn obs(mut self, sink: ObsSink) -> Self {
        self.obs = sink;
        self
    }

    /// Validate the configuration and construct the fleet. All failure
    /// modes are typed [`WebEvoError`]s.
    pub fn build(self) -> Result<FleetSession<'a>, WebEvoError> {
        let universe = self.universe.ok_or_else(|| {
            WebEvoError::invalid("no universe supplied: call .universe(&universe)")
        })?;
        let budget = self
            .budget
            .ok_or_else(|| WebEvoError::invalid("a fleet needs .budget(…)"))?;
        if self.shards == 0 {
            return Err(WebEvoError::invalid("a fleet needs at least one shard"));
        }
        if budget.capacity < self.shards as usize {
            return Err(WebEvoError::invalid(format!(
                "budget capacity {} cannot be split across {} shards (every shard needs \
                 at least one page)",
                budget.capacity, self.shards
            )));
        }
        if let Some(threads) = self.concurrency {
            if threads == 0 {
                return Err(WebEvoError::invalid(
                    "fleet concurrency must be at least one thread",
                ));
            }
        }
        if !(0.0..=1.0).contains(&self.failure_rate) {
            return Err(WebEvoError::invalid(format!(
                "failure rate must lie in [0, 1], got {}",
                self.failure_rate
            )));
        }
        if let Some((dir, every)) = &self.checkpoint {
            if !(*every > 0.0 && every.is_finite()) {
                return Err(WebEvoError::invalid(format!(
                    "snapshot cadence must be positive, got {every}"
                )));
            }
            std::fs::create_dir_all(dir).map_err(|e| {
                WebEvoError::invalid(format!("fleet dir {dir:?} cannot be created: {e}"))
            })?;
        }
        let plan = ShardPlan::new(self.function, self.shards, universe.site_count() as u32);
        let site_counts = owned_site_counts(&plan, universe);
        let capacities = apportion_capacity(budget.capacity, &site_counts);
        Ok(FleetSession {
            universe,
            engine: self.engine,
            budget,
            plan,
            site_counts,
            capacities,
            checkpoint: self.checkpoint,
            concurrency: self.concurrency,
            failure_rate: self.failure_rate,
            obs: self.obs,
            serve: None,
            results: None,
        })
    }
}

/// Sites each shard owns under `plan`, index = shard id.
fn owned_site_counts(plan: &ShardPlan, universe: &WebUniverse) -> Vec<usize> {
    plan.shard_ids()
        .map(|k| universe.sites().iter().filter(|s| plan.owns(k, s.id)).count())
        .collect()
}

/// Split the fleet's collection capacity across shards **proportionally
/// to the sites each shard owns** (largest-remainder apportionment, ties
/// to the lower shard id), with a floor of one page per shard so every
/// shard remains a valid session. Sizing by owned sites keeps capacity
/// where the reachable pages are — an even split would strand budget on
/// small shards that can never fill it, and bias the capacity-weighted
/// metrics merge. The result is a pure function of `(capacity,
/// site_counts)`, so it is identical on every run and resume.
fn apportion_capacity(capacity: usize, site_counts: &[usize]) -> Vec<usize> {
    let shards = site_counts.len();
    let total_sites: usize = site_counts.iter().sum();
    if total_sites == 0 {
        // Degenerate (siteless universe): fall back to an even split.
        return (0..shards)
            .map(|k| capacity / shards + usize::from(k < capacity % shards))
            .collect();
    }
    let mut caps: Vec<usize> = site_counts
        .iter()
        .map(|&s| capacity * s / total_sites)
        .collect();
    // Hand the rounding remainder to the largest fractional parts.
    let assigned: usize = caps.iter().sum();
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by_key(|&k| {
        // Descending fractional remainder; ascending shard id on ties.
        (std::cmp::Reverse(capacity * site_counts[k] % total_sites), k)
    });
    for &k in order.iter().take(capacity - assigned) {
        caps[k] += 1;
    }
    // Floor of 1 (a zero-capacity shard is not a valid session): borrow
    // from the largest allocations, largest first, while any can spare a
    // page (with capacity == shards, everyone ends with exactly one).
    while let Some(recipient) = caps.iter().position(|&c| c == 0) {
        let donors = (0..shards).filter(|&k| caps[k] > 1);
        let Some(donor) = donors.max_by_key(|&k| (caps[k], std::cmp::Reverse(k))) else {
            break;
        };
        caps[donor] -= 1;
        caps[recipient] += 1;
    }
    caps
}

/// The exchanges a shard's durable state absorbs once its committed WAL
/// tail replays: the snapshot's counter plus every routed record in the
/// tail the snapshot does not already cover.
fn replayed_exchanges(recovered: &Recovered) -> u64 {
    let base_seq = recovered.state.fetch_seq;
    recovered.state.routing.exchanges
        + recovered
            .wal
            .iter()
            .filter(|e| matches!(e, WalEvent::Routed(_)) && e.seq() > base_seq)
            .count() as u64
}

/// Align a shard's recovery to `target` exchanges by dropping trailing
/// routed records from its WAL tail. A kill mid-exchange leaves some
/// shards' logs holding a batch their peers never received; by protocol
/// those surplus batches sit at the very end of the log, each under a
/// commit marker of its own (no shard crawls past a barrier until every
/// shard's batch is durable), so dropping them rolls the shard back to
/// the barrier with its outbox intact. Adopting the recovery then cuts
/// them from the shard's log file, and the re-run exchange reproduces
/// the dropped batches byte for byte in their place.
fn align_exchanges(recovered: &mut Recovered, target: u64) -> Result<(), WebEvoError> {
    let mut e = replayed_exchanges(recovered);
    while e > target {
        match recovered.wal.last() {
            Some(WalEvent::Routed(batch)) if batch.seq > recovered.state.fetch_seq => {
                recovered.wal.pop();
                e -= 1;
            }
            _ => {
                return Err(WebEvoError::InvalidState(format!(
                    "checkpoint holds {e} applied exchange(s) inside its snapshot but the \
                     fleet minimum is {target}; the shards' histories have diverged"
                )))
            }
        }
    }
    Ok(())
}

/// Drive every session whose clock lies short of `until` up to `until`,
/// on at most `threads` scoped workers, each taking a contiguous run of
/// shards. Which thread drives which shard is scheduling noise; each
/// shard's trajectory is deterministic.
///
/// A recovered shard whose replayed clock already sits at `until` (its
/// interrupted drive completed this leg) is not re-driven, but it still
/// records the closing metrics sample the interrupted drive ended with —
/// see [`CrawlSession::close_sample`] — so every shard's sampling grid
/// stays identical to an uninterrupted fleet's.
///
/// A drive that fails or panics is the lowest failing shard's typed
/// error; a panic never unwinds through the scope.
fn drive_all(
    sessions: &mut [CrawlSession<'_>],
    until: f64,
    threads: usize,
) -> Result<(), WebEvoError> {
    let per_worker = sessions.len().div_ceil(threads.max(1)).max(1);
    let failures = std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .chunks_mut(per_worker)
            .enumerate()
            .map(|(w, lane)| {
                scope.spawn(move || {
                    let mut lane = lane.iter_mut().enumerate();
                    lane.find_map(|(i, s)| Some((w * per_worker + i, drive_one(s, until).err()?)))
                })
            })
            .collect();
        workers.into_iter().map(|worker| worker.join()).collect::<Result<Vec<_>, _>>()
    })
    .map_err(|_| WebEvoError::InvalidState("a fleet drive worker panicked".into()))?;
    match failures.into_iter().flatten().min_by_key(|&(k, _)| k) {
        Some((k, e)) => Err(WebEvoError::InvalidState(format!("shard#{k}: {e}"))),
        None => Ok(()),
    }
}

/// One shard's leg of [`drive_all`], with a panic caught as a typed error.
fn drive_one(session: &mut CrawlSession<'_>, until: f64) -> Result<(), WebEvoError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if until > session.clock().t {
            session.run(until).map(drop)
        } else {
            session.close_sample(until);
            Ok(())
        }
    }))
    .unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-string payload");
        Err(WebEvoError::InvalidState(format!("the shard's drive panicked: {message}")))
    })
}

/// A sharded crawl fleet over one universe. Built by
/// [`FleetSession::builder`]; see the module docs.
pub struct FleetSession<'a> {
    universe: &'a WebUniverse,
    engine: EngineKind,
    budget: CrawlBudget,
    plan: ShardPlan,
    /// Sites each shard owns under `plan`, index = shard id.
    site_counts: Vec<usize>,
    /// Collection capacity per shard (see [`apportion_capacity`]).
    capacities: Vec<usize>,
    checkpoint: Option<(PathBuf, f64)>,
    concurrency: Option<usize>,
    failure_rate: f64,
    /// Fleet-level observability sink; shard sessions receive
    /// shard-labelled views of it.
    obs: ObsSink,
    /// The fleet's view collector, once [`FleetSession::serve`] created
    /// one: each shard's engine stages boundary views into it, and the
    /// coordinator merges them into one fleet view at exchange barriers.
    serve: Option<Arc<FleetViewCollector>>,
    results: Option<FleetMetrics>,
}

impl<'a> FleetSession<'a> {
    /// Start building a fleet.
    pub fn builder() -> FleetSessionBuilder<'a> {
        FleetSessionBuilder::new()
    }

    /// The site partition in force (after a [`FleetSession::rebalance`],
    /// the new plan).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The fleet manifest this configuration implies (what `run` writes).
    pub fn manifest(&self) -> FleetManifest {
        FleetManifest {
            plan: self.plan,
            engine: self.engine,
            seed: self.universe.config().seed,
            snapshot_every_days: self.checkpoint.as_ref().map(|(_, e)| *e).unwrap_or(0.0),
        }
    }

    /// The most recent run's results.
    pub fn results(&self) -> Option<&FleetMetrics> {
        self.results.as_ref()
    }

    /// Attach the serving layer to the fleet: each shard's engine stages
    /// an immutable view of its collection at every pass boundary, and
    /// the coordinator merges the staged shard views into **one fleet
    /// view** at every exchange barrier (and once more after the final
    /// drive) — shards own disjoint `PageId` sets, so the merge restores
    /// global page order and pools metrics with the same capacity weights
    /// the end-of-run merge uses. The returned
    /// [`QueryService`] serves that merged view to any number of reader
    /// threads while the fleet crawls. Readers see the empty epoch-0 view
    /// until the first barrier. Serving is free: a served fleet's
    /// checkpoints and metrics are byte-identical to an unserved one's
    /// (`tests/determinism.rs` pins this).
    ///
    /// Repeated calls share one epoch lineage, which also survives
    /// [`FleetSession::resume`].
    pub fn serve(&mut self) -> QueryService {
        let collector = match &self.serve {
            Some(collector) => Arc::clone(collector),
            None => {
                let weights = self.capacities.iter().map(|&c| c as f64).collect();
                let collector =
                    FleetViewCollector::new(ServeHandle::new(self.obs.clone()), weights);
                self.serve = Some(Arc::clone(&collector));
                collector
            }
        };
        collector.service()
    }

    /// Run every shard from day 0 to day `days` in lockstep (exchange
    /// barriers between segments; see the module docs) and merge. With
    /// checkpointing configured, writes the fleet manifest and starts a
    /// fresh snapshot+WAL lineage per shard.
    pub fn run(&mut self, days: f64) -> Result<&FleetMetrics, WebEvoError> {
        self.execute(days, None)
    }

    /// Recover every shard from the fleet directory and continue to day
    /// `days`: validate the manifest against this configuration and every
    /// shard's recorded scope against the manifest plan, align the
    /// shards' exchange counters (a kill mid-exchange leaves them one
    /// apart; see `align_exchanges`), then continue the lockstep drive.
    pub fn resume(&mut self, days: f64) -> Result<&FleetMetrics, WebEvoError> {
        let Some((dir, _)) = self.checkpoint.clone() else {
            return Err(WebEvoError::InvalidState(
                "resume requires .checkpoint(dir, every) on the builder".into(),
            ));
        };
        self.validate_manifest(&dir)?;
        self.execute(days, Some(&dir))
    }

    fn validate_manifest(&self, dir: &Path) -> Result<(), WebEvoError> {
        let manifest = read_manifest(dir)?;
        let expected = self.manifest();
        if manifest.plan != expected.plan {
            return Err(WebEvoError::InvalidState(format!(
                "fleet manifest partitions {} sites across {} shards by {}, but this \
                 session is configured for {} sites across {} shards by {} — resuming \
                 would re-route sites between shards",
                manifest.plan.total_sites(),
                manifest.plan.shards(),
                manifest.plan.function(),
                expected.plan.total_sites(),
                expected.plan.shards(),
                expected.plan.function(),
            )));
        }
        if !manifest.engine.same_family(&expected.engine) {
            return Err(WebEvoError::InvalidState(format!(
                "fleet manifest was written by {} shards, but this session is configured \
                 for {} shards",
                manifest.engine.name(),
                expected.engine.name()
            )));
        }
        if manifest.seed != expected.seed {
            return Err(WebEvoError::InvalidState(format!(
                "fleet manifest was written against universe seed {}, but this session's \
                 universe has seed {}",
                manifest.seed, expected.seed
            )));
        }
        Ok(())
    }

    /// Days between exchange barriers: the engines' natural pass cadence,
    /// so injection always lands at a quiescent boundary.
    fn barrier_interval(&self) -> f64 {
        match self.engine {
            EngineKind::Periodic => self.budget.periodic_config().cycle_days,
            _ => self.budget.incremental_config().ranking_interval_days,
        }
    }

    /// Recover every shard's checkpoint, validate its recorded scope
    /// against the current plan, and align the fleet to its minimum
    /// exchange count. `None` entries are shards with no durable state at
    /// all — legal only before the first exchange (they restart fresh);
    /// afterwards the batches delivered to them are gone and the fleet
    /// refuses to guess.
    fn recover_aligned(&self, dir: &Path) -> Result<Vec<Option<Recovered>>, WebEvoError> {
        let _span = self.obs.span(Stage::SnapshotDecode, LogicalClock::new(0.0, 0));
        let shard_count = self.plan.shards() as usize;
        let mut recoveries: Vec<Option<Recovered>> = Vec::with_capacity(shard_count);
        for k in 0..shard_count {
            let shard_dir = dir.join(shard_dir_name(ShardId(k as u32)));
            let rec = recover(&shard_dir).map_err(|e| {
                WebEvoError::InvalidState(format!(
                    "shard#{k}: checkpoint dir {shard_dir:?} cannot be recovered: {e}"
                ))
            })?;
            recoveries.push(rec);
        }
        let counts: Vec<u64> = recoveries
            .iter()
            .flatten()
            .map(replayed_exchanges)
            .collect();
        let e_min = counts.iter().copied().min().unwrap_or(0);
        let e_max = counts.iter().copied().max().unwrap_or(0);
        if e_max > e_min + 1 {
            return Err(WebEvoError::InvalidState(format!(
                "shard checkpoints disagree by more than one exchange ({e_min}..{e_max}); \
                 they are not one fleet's lineage"
            )));
        }
        if e_max > 0 {
            if let Some(k) = recoveries.iter().position(Option::is_none) {
                return Err(WebEvoError::InvalidState(format!(
                    "shard#{k} has no checkpoint, but the fleet has completed link \
                     exchanges — the batches delivered to it cannot be reconstructed; \
                     restore its checkpoint directory"
                )));
            }
        }
        for (k, rec) in recoveries.iter_mut().enumerate() {
            if let Some(rec) = rec {
                let expected = ShardScope { plan: self.plan, shard: ShardId(k as u32) };
                if rec.state.routing.scope != Some(expected) {
                    return Err(WebEvoError::InvalidState(format!(
                        "shard#{k}: {}",
                        StoreError::ShardPlanMismatch { shard: k as u32 }
                    )));
                }
                align_exchanges(rec, e_min)?;
            }
        }
        Ok(recoveries)
    }

    /// Build shard `k`'s scoped session over `fetcher`.
    fn shard_session<'s>(
        &self,
        shard: ShardId,
        fetcher: &'s mut SimFetcher<'a>,
    ) -> Result<CrawlSession<'s>, WebEvoError>
    where
        'a: 's,
    {
        let capacity = self.capacities[shard.index()];
        let builder = CrawlSession::builder()
            .engine(self.engine)
            .universe(self.universe)
            .scope(self.plan, shard)
            .fetcher(fetcher);
        let mut builder = match self.engine {
            EngineKind::Periodic => {
                let mut config = self.budget.periodic_config();
                config.capacity = capacity;
                builder.periodic(config)
            }
            _ => {
                let mut config = self.budget.incremental_config();
                let total: usize = self.capacities.iter().sum();
                config.capacity = capacity;
                // The fleet's aggregate rate, apportioned like the
                // capacity: a shard that owns a third of the pages gets a
                // third of the fetch slots. An even split would leave
                // large shards unable to cover their sites within the
                // horizon while small shards burn slots on early
                // revisits — the collection deficit the routing protocol
                // exists to close. Rates differ per shard, so metrics
                // sampling is pinned to the shared grid (see
                // `IncrementalEngine::advance`), keeping the per-shard
                // series mergeable.
                config.crawl_rate_per_day =
                    self.budget.steady_rate() * capacity as f64 / total.max(1) as f64;
                builder.incremental(config)
            }
        };
        if let Some((dir, every)) = &self.checkpoint {
            builder = builder.checkpoint(dir.join(shard_dir_name(shard)), *every);
        }
        if self.obs.enabled() {
            builder = builder.obs(self.obs.for_shard(shard));
        }
        builder.build()
    }

    /// Every shard's fetcher under the current plan, pushed onto the empty
    /// `fetchers`, and the scoped session built over each, in shard order.
    fn shard_sessions<'s>(
        &self,
        fetchers: &'s mut Vec<SimFetcher<'a>>,
    ) -> Result<Vec<CrawlSession<'s>>, WebEvoError>
    where
        'a: 's,
    {
        fetchers.extend(
            self.plan
                .shard_ids()
                .map(|_| SimFetcher::new(self.universe).with_failure_rate(self.failure_rate)),
        );
        fetchers
            .iter_mut()
            .enumerate()
            .map(|(k, fetcher)| {
                self.shard_session(ShardId(k as u32), fetcher)
                    .map_err(|e| WebEvoError::InvalidState(format!("shard#{k}: {e}")))
            })
            .collect()
    }

    /// One exchange barrier: read every outbox, merge per destination in
    /// `(ShardId, seq)` order, and deliver each shard's batch — inject it
    /// and commit it to the shard's WAL — so the exchange is durable
    /// before anyone crawls on. Returns links delivered per shard.
    fn exchange(&self, sessions: &mut [CrawlSession<'_>]) -> Result<Vec<u64>, WebEvoError> {
        let barrier_t = sessions.first().map(|s| s.clock().t).unwrap_or(0.0);
        let _span = self.obs.span(Stage::ExchangeBarrier, LogicalClock::new(barrier_t, 0));
        // Read all outboxes before injecting into any shard: injection
        // clears the receiving shard's own outbox.
        let parts: Vec<(ShardId, Vec<RoutedLink>)> = sessions
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let outbox = s.routing().outbox.clone();
                if self.obs.enabled() {
                    self.obs
                        .for_shard(ShardId(k as u32))
                        .observe("outbox_depth", outbox.len() as f64);
                }
                (ShardId(k as u32), outbox)
            })
            .collect();
        let batches = route_exchange(&self.plan, &parts);
        let mut delivered = vec![0u64; sessions.len()];
        for (k, (session, links)) in sessions.iter_mut().zip(batches).enumerate() {
            delivered[k] = links.len() as u64;
            if self.obs.enabled() {
                self.obs
                    .for_shard(ShardId(k as u32))
                    .observe("routed_batch_size", links.len() as f64);
            }
            session
                .deliver(links)
                .map_err(|e| WebEvoError::InvalidState(format!("shard#{k}: {e}")))?;
        }
        Ok(delivered)
    }

    /// Drive all shards in lockstep to day `days`, exchanging at every
    /// barrier strictly inside the horizon, and merge in ascending shard
    /// order: from day 0, or from the shards recovered from `resume_from`.
    fn execute(
        &mut self,
        days: f64,
        resume_from: Option<&Path>,
    ) -> Result<&FleetMetrics, WebEvoError> {
        // A NaN horizon never satisfies `barrier >= days` below and +∞ is
        // never reached, so either would drive barrier after barrier for
        // good: refuse it before a shard session, directory or manifest
        // exists (the engines' own check sits behind all three).
        if !days.is_finite() {
            return Err(WebEvoError::InvalidState(format!(
                "fleet horizon {days} must be a finite day"
            )));
        }
        if resume_from.is_none() {
            if let Some((dir, _)) = &self.checkpoint {
                write_manifest(dir, &self.manifest())?;
            }
        }
        let shard_count = self.plan.shards() as usize;
        let threads = self.concurrency.unwrap_or(shard_count).min(shard_count);
        let mut fetchers = Vec::new();
        let mut sessions = self.shard_sessions(&mut fetchers)?;
        if let Some(dir) = resume_from {
            let recoveries = self.recover_aligned(dir)?;
            for (k, rec) in recoveries.into_iter().enumerate() {
                if let Some(rec) = rec {
                    sessions[k]
                        .adopt(rec)
                        .map_err(|e| WebEvoError::InvalidState(format!("shard#{k}: {e}")))?;
                }
                // A shard with no durable state (legal only before the
                // first exchange) simply starts fresh from day 0 below.
            }
        }
        if let Some(collector) = &self.serve {
            // Serving: every shard's engine stages its boundary views into
            // the collector; the coordinator merges at barriers below.
            for (k, session) in sessions.iter_mut().enumerate() {
                let collector = Arc::clone(collector);
                session.install_view_publisher(Box::new(move || {
                    collector.publisher_for(ShardId(k as u32))
                }));
            }
        }
        // Lockstep: segments end at exchange barriers T(b) = b·interval.
        // The next barrier index always equals the applied-exchange
        // counter + 1 — recovery aligned the counters, so one number
        // schedules the whole fleet.
        let interval = self.barrier_interval();
        let mut routed = vec![0u64; shard_count];
        let mut exchanges = sessions.first().map_or(0, |s| s.routing().exchanges);
        loop {
            let barrier = (exchanges + 1) as f64 * interval;
            if barrier >= days {
                break;
            }
            drive_all(&mut sessions, barrier, threads)?;
            // Shards snapshot only here (their lineages are scoped; see
            // `Checkpointer`), before the injection below: no shard's
            // snapshot ever absorbs an exchange a peer still holds only as
            // a trailing WAL record — the invariant that keeps any single
            // shard's torn WAL tail recoverable (see `align_exchanges`).
            // Each shard's encode runs off-thread while the coordinator
            // routes; delivering its batch joins it first.
            for (k, session) in sessions.iter_mut().enumerate() {
                session
                    .snapshot_if_due()
                    .map_err(|e| WebEvoError::InvalidState(format!("shard#{k}: {e}")))?;
            }
            let delivered = self.exchange(&mut sessions)?;
            for (k, n) in delivered.into_iter().enumerate() {
                routed[k] += n;
            }
            self.merge_views(barrier)?;
            exchanges += 1;
        }
        drive_all(&mut sessions, days, threads)?;
        self.merge_views(days)?;
        let shards: Vec<ShardReport> = sessions
            .iter()
            .enumerate()
            .map(|(k, s)| ShardReport {
                shard: ShardId(k as u32),
                capacity: self.capacities[k],
                sites: self.site_counts[k],
                collection_len: s.collection_len(),
                routed_links: routed[k],
                metrics: s.metrics().clone(),
            })
            .collect();
        drop(sessions);
        let parts: Vec<(f64, &CrawlMetrics)> = shards
            .iter()
            .map(|s| (s.capacity as f64, &s.metrics))
            .collect();
        let merged = CrawlMetrics::merge_weighted(&parts)?;
        Ok(self.results.insert(FleetMetrics { merged, shards }))
    }

    /// Merge the staged shard views into one fleet view and publish it
    /// as the next epoch (no-op until [`FleetSession::serve`] attached a
    /// collector, or until every shard has staged a boundary).
    fn merge_views(&self, t: f64) -> Result<(), WebEvoError> {
        let Some(collector) = &self.serve else {
            return Ok(());
        };
        let _span = self.obs.span(Stage::ViewSwap, LogicalClock::new(t, 0));
        collector.merge_and_publish()?;
        Ok(())
    }

    /// Migrate a checkpointed incremental fleet onto `new_plan` between
    /// passes. Recovers every shard, performs one final exchange so no
    /// outbox holds links routed under the old plan, moves pages, URL
    /// evidence, revisit-queue entries, and admissions to their new
    /// owners, re-apportions collection capacity to the new ownership,
    /// writes a fresh snapshot lineage per shard, and atomically rewrites
    /// the fleet manifest. Afterwards [`FleetSession::resume`] continues
    /// under `new_plan`; a stale pre-rebalance shard directory fails it
    /// with a typed shard-plan mismatch.
    ///
    /// The shard *count* cannot change (capacity and crawl rate were
    /// split at build time), and only the incremental engine migrates —
    /// the periodic engine's mid-cycle shadow state has no stable home in
    /// a different partition.
    pub fn rebalance(&mut self, new_plan: ShardPlan) -> Result<(), WebEvoError> {
        let Some((dir, every)) = self.checkpoint.clone() else {
            return Err(WebEvoError::InvalidState(
                "rebalance requires .checkpoint(dir, every) on the builder".into(),
            ));
        };
        if !matches!(self.engine, EngineKind::Incremental) {
            return Err(WebEvoError::InvalidState(format!(
                "only incremental fleets rebalance; this fleet runs the {} engine",
                self.engine.name()
            )));
        }
        if new_plan.shards() != self.plan.shards() {
            return Err(WebEvoError::InvalidState(format!(
                "rebalance cannot change the shard count ({} -> {}); it re-routes sites \
                 across the existing shards",
                self.plan.shards(),
                new_plan.shards()
            )));
        }
        if new_plan.total_sites() != self.plan.total_sites() {
            return Err(WebEvoError::InvalidState(format!(
                "the new plan covers {} sites but the fleet crawls {}",
                new_plan.total_sites(),
                self.plan.total_sites()
            )));
        }
        self.validate_manifest(&dir)?;
        let _span = self.obs.span(Stage::Rebalance, LogicalClock::new(0.0, 0));

        // Materialize every shard at its last committed boundary (aligned,
        // under the *old* plan).
        let recoveries = self.recover_aligned(&dir)?;
        if let Some(k) = recoveries.iter().position(Option::is_none) {
            return Err(WebEvoError::InvalidState(format!(
                "shard#{k} has no checkpoint; run the fleet before rebalancing"
            )));
        }
        let mut fetchers = Vec::new();
        let mut sessions = self.shard_sessions(&mut fetchers)?;
        // Every shard has a recovery, so shard `k`'s is the `k`-th.
        for (k, rec) in recoveries.into_iter().flatten().enumerate() {
            sessions[k]
                .adopt(rec)
                .map_err(|e| WebEvoError::InvalidState(format!("shard#{k}: {e}")))?;
        }
        // Final exchange under the old plan: migration must not find links
        // in any outbox that were routed by the partition being retired.
        self.exchange(&mut sessions)?;
        let mut states: Vec<_> = sessions.iter_mut().map(|s| s.export_state()).collect();
        drop(sessions);

        // Re-apportion capacity to the new ownership and migrate.
        let site_counts = owned_site_counts(&new_plan, self.universe);
        let capacities = apportion_capacity(self.budget.capacity, &site_counts);
        rebalance_states(&mut states, &new_plan, &capacities)?;

        // Fresh snapshot lineage per shard, then the new manifest — the
        // manifest rename is the atomic commit point of the rebalance.
        for (k, state) in states.iter().enumerate() {
            let shard_dir = dir.join(shard_dir_name(ShardId(k as u32)));
            let config = CheckpointConfig::new(shard_dir.clone(), every);
            Checkpointer::continue_from(config, state).map_err(|e| {
                WebEvoError::InvalidState(format!(
                    "shard#{k}: checkpoint dir {shard_dir:?} is not writable: {e}"
                ))
            })?;
        }
        self.plan = new_plan;
        self.site_counts = site_counts;
        self.capacities = capacities;
        self.results = None;
        write_manifest(&dir, &self.manifest())
    }
}

/// Write the manifest durably and atomically, the way snapshots are
/// written (see [`write_atomically`]): a crash mid-write never leaves a
/// torn manifest, and once this returns the rename — the commit point of
/// [`FleetSession::rebalance`] — survives a machine crash.
fn write_manifest(dir: &Path, manifest: &FleetManifest) -> Result<(), WebEvoError> {
    let doc = encode_document(MANIFEST_MAGIC, MANIFEST_VERSION, 64, manifest);
    write_atomically(dir, MANIFEST_FILE, &doc).map_err(|e| {
        let path = dir.join(MANIFEST_FILE);
        WebEvoError::invalid(format!("fleet manifest {path:?} cannot be written: {e}"))
    })
}

/// Read and decode the manifest of a fleet directory: a missing,
/// truncated, corrupted or other-version file is a typed error, never a
/// guess at what the fleet was. A stale
/// `fleet.manifest.tmp` — the residue of a crash between the temp write
/// and the rename in `write_manifest` — is removed here, mirroring the
/// snapshot-tmp cleanup in [`crate::checkpoint::recover`]: the rename
/// never happened, so the file belongs to no lineage.
fn read_manifest(dir: &Path) -> Result<FleetManifest, WebEvoError> {
    let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
    match std::fs::remove_file(&tmp) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(WebEvoError::InvalidState(format!(
                "removing stale {tmp:?}: {e}"
            )))
        }
    }
    let path = dir.join(MANIFEST_FILE);
    let doc = std::fs::read(&path).map_err(|e| {
        WebEvoError::InvalidState(format!(
            "nothing to resume: fleet manifest {path:?} cannot be read: {e}"
        ))
    })?;
    // Version 1 was a bare JSON object with no header line to sniff.
    let decoded = if doc.first() == Some(&b'{') {
        Err(StoreError::UnsupportedVersion(1))
    } else {
        decode_document(MANIFEST_MAGIC, MANIFEST_VERSION, &doc)
    };
    decoded.map_err(|e| {
        WebEvoError::InvalidState(format!("fleet manifest {path:?} does not decode: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_sim::UniverseConfig;

    fn universe(seed: u64) -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(seed))
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("webevo-fleet-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fetcher whose every fetch panics.
    struct PanickingFetcher;

    impl webevo_sim::Fetcher for PanickingFetcher {
        fn fetch(
            &mut self,
            _url: webevo_types::Url,
            _t: f64,
        ) -> Result<webevo_sim::FetchOutcome, webevo_sim::FetchError> {
            panic!("the fetcher broke")
        }
    }

    #[test]
    fn a_panicking_shard_drive_is_a_typed_error() {
        let u = universe(66);
        let budget = CrawlBudget::paper_monthly(20).with_cycle_days(5.0);
        for threads in [1, 2] {
            let builder = || {
                CrawlSession::builder().engine(EngineKind::Incremental).budget(budget).universe(&u)
            };
            let mut panicking = PanickingFetcher;
            let mut sessions = vec![
                builder().build().expect("a valid session"),
                builder().fetcher(&mut panicking).build().expect("a valid session"),
            ];
            let driven = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drive_all(&mut sessions, 2.0, threads)
            }));
            let err = driven.expect("nothing unwinds out of drive_all").expect_err("shard#1 fails");
            let message = err.to_string();
            assert!(message.contains("shard#1"), "{threads} thread(s): {message}");
            assert!(message.contains("drive panicked"), "{threads} thread(s): {message}");
            assert!(message.contains("the fetcher broke"), "{threads} thread(s): {message}");
            assert!(sessions[0].metrics().fetches > 0, "the healthy shard still drove");
        }
    }

    #[test]
    fn capacity_apportioned_by_owned_sites() {
        // test_scale universes have 10 sites; Range over 3 shards owns
        // 4/3/3, so a 32-page budget splits ~12.8/9.6/9.6 → 13/10/9 or
        // 13/9/10 by largest remainder. Check the invariants rather than
        // one rounding outcome: exact sum, ≥1 each, monotone in sites.
        let u = universe(51);
        let fleet = FleetSession::builder()
            .shards(3)
            .partition(ShardFn::Range)
            .budget(CrawlBudget::paper_monthly(32))
            .universe(&u)
            .build()
            .expect("valid fleet");
        let caps = fleet.capacities.clone();
        assert_eq!(caps.iter().sum::<usize>(), 32);
        assert!(caps.iter().all(|&c| c >= 1));
        assert!(caps[0] > caps[1], "the 4-site shard outweighs the 3-site ones: {caps:?}");
    }

    #[test]
    fn apportionment_is_exact_proportional_and_floored() {
        // Skewed ownership: capacity follows the sites, sums exactly, and
        // a siteless shard still gets its floor of one page.
        assert_eq!(apportion_capacity(100, &[50, 30, 20]), vec![50, 30, 20]);
        assert_eq!(apportion_capacity(10, &[7, 2, 1]), vec![7, 2, 1]);
        let skewed = apportion_capacity(100, &[97, 2, 1, 0]);
        assert_eq!(skewed.iter().sum::<usize>(), 100);
        assert!(skewed[3] >= 1, "siteless shard floored: {skewed:?}");
        assert!(skewed[0] > 90, "dominant shard keeps its share: {skewed:?}");
        // capacity == shards: everyone gets exactly one.
        assert_eq!(apportion_capacity(3, &[5, 0, 0]), vec![1, 1, 1]);
        // Degenerate siteless universe: even split.
        assert_eq!(apportion_capacity(7, &[0, 0, 0]), vec![3, 2, 2]);
    }

    #[test]
    fn balanced_partition_owns_evenly() {
        let u = universe(60);
        let fleet = FleetSession::builder()
            .shards(3)
            .partition(ShardFn::Balanced)
            .budget(CrawlBudget::paper_monthly(30))
            .universe(&u)
            .build()
            .expect("valid fleet");
        let counts: Vec<usize> = (0..3).map(|k| fleet.site_counts[k]).collect();
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "balanced ownership within one site: {counts:?}");
    }

    #[test]
    fn stale_manifest_tmp_is_removed_on_read() {
        let dir = temp_dir("manifest-tmp");
        let u = universe(59);
        let mut fleet = FleetSession::builder()
            .shards(2)
            .budget(CrawlBudget::paper_monthly(20).with_cycle_days(5.0))
            .universe(&u)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        fleet.run(6.0).expect("runs");
        let tmp = dir.join(format!("{MANIFEST_FILE}.tmp"));
        std::fs::write(&tmp, b"{ torn mid-wr").unwrap();
        let manifest = read_manifest(&dir).expect("stale tmp must not break reads");
        assert_eq!(manifest, fleet.manifest());
        assert!(!tmp.exists(), "read_manifest removes the stale temp file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_or_foreign_manifests_are_typed_errors() {
        let dir = temp_dir("manifest-damage");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = FleetManifest {
            plan: ShardPlan::new(ShardFn::Balanced, 4, 270),
            engine: EngineKind::Threaded { workers: 3 },
            seed: 0xfeed_beef,
            snapshot_every_days: 2.5,
        };
        write_manifest(&dir, &manifest).expect("writes");
        let doc = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(read_manifest(&dir).expect("clean manifest reads"), manifest);
        let read_bytes = |bytes: &[u8]| {
            std::fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
            read_manifest(&dir)
        };

        // The version-1 manifest earlier builds wrote: refused by version.
        let v1 = br#"{"version":1,"plan":{"shards":4,"total_sites":270,"function":"Balanced"},"engine":"Incremental","seed":7,"snapshot_every_days":2.5}"#;
        let err = read_bytes(v1).unwrap_err().to_string();
        assert!(err.contains("version 1"), "{err}");
        // Cut short at every byte offset: always an error.
        for cut in 0..doc.len() {
            assert!(read_bytes(&doc[..cut]).is_err(), "truncation at {cut} decoded");
        }
        // Every single-bit flip of every byte: an error, or (a hex digit
        // of the checksum changing case) the very same manifest — never a
        // different one.
        for at in 0..doc.len() {
            for bit in 0..8 {
                let mut damaged = doc.clone();
                damaged[at] ^= 1 << bit;
                if let Ok(read) = read_bytes(&damaged) {
                    assert_eq!(read, manifest, "flip of bit {bit} at byte {at}");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shards_partition_the_work() {
        let u = universe(52);
        let mut fleet = FleetSession::builder()
            .shards(3)
            .partition(ShardFn::Range)
            .budget(CrawlBudget::paper_monthly(30).with_cycle_days(5.0))
            .universe(&u)
            .build()
            .expect("valid fleet");
        let results = fleet.run(12.0).expect("runs");
        assert_eq!(results.shards.len(), 3);
        let sites: usize = results.shards.iter().map(|s| s.sites).sum();
        assert_eq!(sites, u.site_count(), "every site belongs to exactly one shard");
        for report in &results.shards {
            assert!(report.metrics.fetches > 0, "{} idle", report.shard);
            assert!(report.collection_len <= report.capacity);
        }
        // The boundary traffic flowed through exchanges.
        assert!(results.routed_links() > 0, "cross-shard links were exchanged");
        assert_eq!(
            results.merged.fetches,
            results.shards.iter().map(|s| s.metrics.fetches).sum::<u64>()
        );
        assert!(results.collection_len() > 0);
    }

    #[test]
    fn concurrency_does_not_change_the_result() {
        let u = universe(61);
        let run_with = |threads: usize| {
            let mut fleet = FleetSession::builder()
                .shards(3)
                .budget(CrawlBudget::paper_monthly(30).with_cycle_days(5.0))
                .universe(&u)
                .concurrency(threads)
                .build()
                .expect("valid fleet");
            let r = fleet.run(9.0).expect("runs").clone();
            (
                r.merged.fetches,
                r.routed_links(),
                r.shards.iter().map(|s| s.collection_len).collect::<Vec<_>>(),
            )
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2));
        assert_eq!(one, run_with(3));
    }

    #[test]
    fn periodic_fleet_runs_and_merges() {
        let u = universe(53);
        let mut fleet = FleetSession::builder()
            .shards(2)
            .engine(EngineKind::Periodic)
            .budget(CrawlBudget::paper_monthly(40).with_cycle_days(10.0))
            .universe(&u)
            .build()
            .expect("valid fleet");
        let results = fleet.run(25.0).expect("runs");
        assert!(results.merged.fetches > 0);
        assert!(!results.merged.freshness.is_empty());
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let u = universe(54);
        let budget = CrawlBudget::paper_monthly(10);
        let invalid = |b: FleetSessionBuilder| b.build().err().expect("must be rejected");
        invalid(FleetSession::builder().budget(budget).universe(&u).shards(0));
        invalid(FleetSession::builder().budget(budget).universe(&u).shards(11));
        invalid(
            FleetSession::builder()
                .budget(budget)
                .universe(&u)
                .shards(2)
                .concurrency(0),
        );
        invalid(
            FleetSession::builder()
                .budget(budget)
                .universe(&u)
                .shards(2)
                .failure_rate(1.5),
        );
        invalid(FleetSession::builder().universe(&u).shards(2));
        invalid(FleetSession::builder().budget(budget).shards(2));
    }

    #[test]
    fn manifest_roundtrips_and_mismatches_are_typed() {
        let dir = temp_dir("manifest");
        let u = universe(55);
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        let mut fleet = FleetSession::builder()
            .shards(2)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        fleet.run(8.0).expect("runs");
        let on_disk = read_manifest(&dir).expect("manifest written");
        assert_eq!(on_disk, fleet.manifest());

        // Wrong shard count.
        let mut wrong_shards = FleetSession::builder()
            .shards(3)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        assert!(wrong_shards.resume(12.0).is_err());
        // Wrong partition function.
        let mut wrong_fn = FleetSession::builder()
            .shards(2)
            .partition(ShardFn::Range)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        assert!(wrong_fn.resume(12.0).is_err());
        // Wrong engine family.
        let mut wrong_engine = FleetSession::builder()
            .shards(2)
            .engine(EngineKind::Periodic)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        assert!(wrong_engine.resume(12.0).is_err());
        // Wrong universe seed.
        let other = universe(56);
        let mut wrong_seed = FleetSession::builder()
            .shards(2)
            .budget(budget)
            .universe(&other)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        assert!(wrong_seed.resume(12.0).is_err());
        // The matching configuration resumes fine.
        let mut matching = FleetSession::builder()
            .shards(2)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        matching.resume(12.0).expect("matching fleet resumes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pre_exchange_shard_loss_restarts_fresh() {
        // Before the first exchange barrier, shards hold no routed state —
        // a shard that lost its checkpoint can restart from day 0 and the
        // fleet still merges to the exact uninterrupted trajectory. (The
        // default ranking interval is 1 day, so stop short of day 1.)
        let dir = temp_dir("pre-exchange-loss");
        let u = universe(58);
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        let build = |checkpoint: bool| {
            let mut b = FleetSession::builder()
                .shards(3)
                .budget(budget)
                .universe(&u)
                .failure_rate(0.1);
            if checkpoint {
                b = b.checkpoint(&dir, 4.0);
            }
            b.build().expect("valid fleet")
        };
        let mut killed = build(true);
        killed.run(0.75).expect("runs");
        drop(killed);
        std::fs::remove_dir_all(dir.join(shard_dir_name(ShardId(1)))).expect("dir exists");

        let mut resumed = build(true);
        let recovered = resumed.resume(12.0).expect("fleet resumes").clone();
        let mut reference = build(false);
        let uninterrupted = reference.run(12.0).expect("runs").clone();
        assert_eq!(recovered.merged.fetches, uninterrupted.merged.fetches);
        assert_eq!(recovered.routed_links(), uninterrupted.routed_links());
        let a: Vec<(f64, f64)> = recovered.merged.freshness.rows().collect();
        let b: Vec<(f64, f64)> = uninterrupted.merged.freshness.rows().collect();
        assert_eq!(a, b, "merged trajectory must survive the missing shard");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn post_exchange_shard_loss_is_typed() {
        // After a barrier, the batches delivered to a shard exist only in
        // its own checkpoint; losing it wholesale is unrecoverable and
        // must say so instead of silently restarting the shard (which
        // would lose the routed pages forever).
        let dir = temp_dir("post-exchange-loss");
        let u = universe(62);
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        let mut fleet = FleetSession::builder()
            .shards(3)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 4.0)
            .build()
            .expect("valid fleet");
        fleet.run(6.0).expect("runs");
        drop(fleet);
        std::fs::remove_dir_all(dir.join(shard_dir_name(ShardId(1)))).expect("dir exists");
        let mut resumed = FleetSession::builder()
            .shards(3)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 4.0)
            .build()
            .expect("valid fleet");
        let err = resumed.resume(12.0).map(|_| ()).expect_err("must refuse");
        assert!(err.to_string().contains("no checkpoint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebalance_migrates_and_rewrites_the_manifest() {
        let dir = temp_dir("rebalance");
        let u = universe(63);
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        let mut fleet = FleetSession::builder()
            .shards(2)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 4.0)
            .build()
            .expect("valid fleet");
        let before = fleet.run(6.0).expect("runs").clone();
        let total_before = before.collection_len();

        let new_plan = ShardPlan::new(ShardFn::Balanced, 2, u.site_count() as u32);
        fleet.rebalance(new_plan).expect("rebalances");
        assert_eq!(*fleet.plan(), new_plan);
        assert_eq!(read_manifest(&dir).expect("manifest").plan, new_plan);

        // The migrated fleet resumes under the new plan and keeps crawling.
        let after = fleet.resume(12.0).expect("resumes post-rebalance").clone();
        assert!(after.merged.fetches >= before.merged.fetches);
        assert!(after.collection_len() >= total_before.saturating_sub(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_pre_rebalance_checkpoint_is_a_plan_mismatch() {
        let dir = temp_dir("stale-shard");
        let u = universe(64);
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        let mut fleet = FleetSession::builder()
            .shards(2)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 4.0)
            .build()
            .expect("valid fleet");
        fleet.run(6.0).expect("runs");
        // Save shard 0's pre-rebalance checkpoint aside.
        let shard0 = dir.join(shard_dir_name(ShardId(0)));
        let saved = dir.join("shard-0.saved");
        copy_dir(&shard0, &saved);
        let new_plan = ShardPlan::new(ShardFn::Balanced, 2, u.site_count() as u32);
        fleet.rebalance(new_plan).expect("rebalances");
        // Restore the stale directory: its recorded scope carries the old
        // plan, which no longer matches the rewritten manifest.
        std::fs::remove_dir_all(&shard0).unwrap();
        copy_dir(&saved, &shard0);
        let err = fleet.resume(12.0).map(|_| ()).expect_err("must refuse");
        assert!(err.to_string().contains("different shard plan"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }

    #[test]
    fn rebalance_preconditions_are_typed() {
        let u = universe(65);
        let budget = CrawlBudget::paper_monthly(30).with_cycle_days(5.0);
        let plan2 = ShardPlan::new(ShardFn::Balanced, 2, u.site_count() as u32);
        // No checkpointing.
        let mut no_ckpt = FleetSession::builder()
            .shards(2)
            .budget(budget)
            .universe(&u)
            .build()
            .expect("valid fleet");
        assert!(no_ckpt.rebalance(plan2).is_err());
        // Periodic engine.
        let dir = temp_dir("rebalance-pre");
        let mut periodic = FleetSession::builder()
            .shards(2)
            .engine(EngineKind::Periodic)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 4.0)
            .build()
            .expect("valid fleet");
        assert!(periodic.rebalance(plan2).is_err());
        // Shard-count change.
        let mut fleet = FleetSession::builder()
            .shards(2)
            .budget(budget)
            .universe(&u)
            .checkpoint(&dir, 4.0)
            .build()
            .expect("valid fleet");
        let plan3 = ShardPlan::new(ShardFn::Balanced, 3, u.site_count() as u32);
        assert!(fleet.rebalance(plan3).is_err());
        // Never ran: nothing on disk to migrate.
        assert!(fleet.rebalance(plan2).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_manifest_is_typed() {
        let dir = temp_dir("no-manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let u = universe(57);
        let mut fleet = FleetSession::builder()
            .shards(2)
            .budget(CrawlBudget::paper_monthly(20))
            .universe(&u)
            .checkpoint(&dir, 3.0)
            .build()
            .expect("valid fleet");
        let err = fleet.resume(10.0).map(|_| ()).expect_err("nothing to resume");
        assert!(err.to_string().contains("nothing to resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
