//! A synthetic evolving web, calibrated to the paper's measurements.
//!
//! The paper's experiment ran against the live 1999 web: 720,000 pages on
//! 270 popular sites, crawled daily for four months. That web no longer
//! exists, so this crate substitutes the closest synthetic equivalent that
//! exercises the same code paths (see DESIGN.md §2):
//!
//! * Every page changes as a **Poisson process** with a page-specific rate —
//!   exactly the model §3.4 validates against the real data.
//! * Per-domain **rate mixtures** are calibrated to Figure 2(b): more than
//!   40% of `com` pages change daily, more than half of `edu`/`gov` pages
//!   never change within four months.
//! * Pages are **born and die**; per-domain lifespan mixtures are calibrated
//!   to Figure 4(b) so the visible-lifespan study has the right censoring
//!   behaviour.
//! * Sites expose a **page window** (§2.1): the first `window_size` BFS
//!   slots of the site; pages enter and leave the window as they are
//!   created and deleted.
//! * Pages carry **links** (BFS tree + random intra-site + cross-site) so
//!   PageRank-based selection and refinement run on realistic structure.
//!
//! The crawler-facing surface is the [`Fetcher`] trait: fetching a URL at a
//! simulated time yields a checksum, extracted links and an optional
//! last-modified date — or a failure. Ground truth (true rates, change
//! times, liveness) is exposed separately for *evaluation only*; no crawler
//! component reads it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fetch;
pub mod page;
pub mod profile;
pub mod universe;

pub use config::UniverseConfig;
pub use fetch::{FetchError, FetchOutcome, Fetcher, FetcherState, Politeness, SimFetcher};
pub use page::{SimPage, SimSite};
pub use profile::DomainProfile;
pub use universe::WebUniverse;
