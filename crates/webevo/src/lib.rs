//! # webevo
//!
//! A production-quality Rust reproduction of **Cho & Garcia-Molina, "The
//! Evolution of the Web and Implications for an Incremental Crawler"
//! (VLDB 2000)**: the web-evolution measurement study (§2–3), the
//! freshness analysis of crawler design choices (§4), and the incremental
//! crawler architecture (§5) — plus every substrate they need, built from
//! scratch (synthetic evolving web, PageRank, statistics toolkit,
//! change-frequency estimators, revisit-schedule optimizer).
//!
//! ## Quickstart
//!
//! ```
//! use webevo::prelude::*;
//!
//! // 1. Generate a small synthetic web calibrated to the paper's
//! //    measurements.
//! let universe = WebUniverse::generate(UniverseConfig::test_scale(42));
//!
//! // 2. Run the incremental crawler for 30 simulated days. CrawlSession
//! //    is the one entry point for every engine (periodic, incremental,
//! //    threaded); swap the EngineKind to compare them under the same
//! //    budget.
//! let mut session = CrawlSession::builder()
//!     .engine(EngineKind::Incremental)
//!     .budget(CrawlBudget::paper_monthly(50).with_cycle_days(5.0))
//!     .universe(&universe)
//!     .build()
//!     .expect("a valid session");
//! session.run(30.0).expect("the crawl runs");
//!
//! // 3. Inspect steady-state freshness.
//! let freshness = session.metrics().average_freshness_from(15.0);
//! assert!(freshness > 0.3);
//! ```
//!
//! ## Crate map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`types`] | — | ids, time, domains, checksums |
//! | [`stats`] | §3.4 | sampling, histograms, CIs, goodness-of-fit |
//! | [`graph`] | §2.2, §5 | the flat link structure, PageRank (page + site level) |
//! | [`sim`] | §2 | the synthetic evolving web + fetch interface |
//! | [`experiment`] | §2–3 | daily monitor, Figures 2/4/5/6, Table 1 |
//! | [`freshness`] | §4 | freshness/age analytics, Figures 7/8, Table 2 |
//! | [`estimate`] | §5.3 | estimators EP and EB |
//! | [`schedule`] | §4.3 | uniform/proportional/optimal revisit, Figure 9 |
//! | [`core`] | §5 | the crawl engines behind one `CrawlEngine` trait: periodic, and the incremental engine with its inline and pool executors |
//! | [`store`] | §5 | durable crawl state, the `CrawlSession` entry point, sharded `FleetSession`s |
//! | [`obs`] | — | structured tracing, metrics registry, stage profiling |
//! | [`serve`] | §1, §5 | epoch-swapped query layer serving concurrent readers under a live crawl |
//! | [`analyze`] | — | static-analysis gate for what clippy cannot check: `#![forbid(unsafe_code)]`, `SCHEMA.lock` drift, dead public surface |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use webevo_analyze as analyze;
pub use webevo_core as core;
pub use webevo_estimate as estimate;
pub use webevo_experiment as experiment;
pub use webevo_freshness as freshness;
pub use webevo_graph as graph;
pub use webevo_obs as obs;
pub use webevo_schedule as schedule;
pub use webevo_serve as serve;
pub use webevo_sim as sim;
pub use webevo_stats as stats;
pub use webevo_store as store;
pub use webevo_types as types;

/// The most commonly used items, re-exported flat. Everything else is
/// reachable through its crate module ([`webevo::core`](crate::core),
/// [`webevo::serve`](crate::serve), …).
pub mod prelude {
    pub use webevo_core::{
        collection_quality, CrawlBudget, CrawlEngine, CrawlHook, CrawlMetrics, CrawlerState,
        EngineConfig, EngineKind, EstimatorKind, FetchRecord, IncrementalConfig,
        IncrementalCrawler, NoopHook, PeriodicConfig, PeriodicCrawler, RankingConfig,
        RevisitStrategy, ThreadedCrawler, WalEvent,
    };
    pub use webevo_estimate::{
        estimate_ep, estimate_irregular_mle, estimate_naive, BayesianEstimator, ChangeHistory,
        SitePool,
    };
    pub use webevo_experiment::{
        run_full_experiment, select_sites, DailyMonitor, ExperimentReport, MonitorConfig,
    };
    pub use webevo_freshness::{
        freshness_batch_inplace, freshness_batch_shadow, freshness_periodic,
        freshness_steady_inplace, freshness_steady_shadow, CrawlMode, CrawlPolicy, UpdateMode,
    };
    pub use webevo_graph::{pagerank, LinkCsr, PageRankConfig};
    pub use webevo_obs::{LogicalClock, ObsSink, Stage};
    pub use webevo_schedule::{
        evaluate_allocation, optimal_allocation, optimal_frequency_curve,
        proportional_allocation, uniform_allocation,
    };
    pub use webevo_serve::{QueryService, ServeHandle};
    pub use webevo_sim::{
        FetchError, FetchOutcome, Fetcher, FetcherState, Politeness, SimFetcher,
        UniverseConfig, WebUniverse,
    };
    pub use webevo_stats::{IntervalBin, LifespanBin, PoissonProcess, SimRng, Summary};
    pub use webevo_store::{
        recover, CheckpointConfig, Checkpointer, CrawlSession, FleetMetrics, FleetSession,
    };
    pub use webevo_types::{
        ChangeRate, Checksum, Domain, PageId, ShardFn, ShardId, ShardPlan, SiteId, Url,
        WebEvoError,
    };
}
