//! Shared vocabulary types for the `webevo` workspace.
//!
//! This crate defines the identifiers, time model, and small value types used
//! by every other crate in the reproduction of Cho & Garcia-Molina,
//! *"The Evolution of the Web and Implications for an Incremental Crawler"*
//! (VLDB 2000).
//!
//! Design notes:
//!
//! * **Time is denominated in days**, as plain `f64` ([`time`]): the paper's
//!   measurement study has one-day granularity, while its analytic layer is
//!   continuous, so a floating-point day count serves both.
//! * Identifiers are **newtypes over `u32`/`u64`** so they cannot be mixed up
//!   and stay small in hot data structures.
//! * `Checksum` models the page digest the paper's UpdateModule compares
//!   across visits (§5.3); the crawler layer never sees simulator ground
//!   truth, only checksums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binio;
pub mod dense;
pub mod domain;
pub mod error;
pub mod id;
pub mod page;
pub mod shard;
pub mod time;
pub mod url;

pub use binio::{BinDecode, BinEncode, BinError, BinReader};
pub use dense::{DenseMap, DenseSet};
pub use domain::Domain;
pub use error::{Error, Result, WebEvoError};
pub use id::{PageId, SiteId};
pub use page::{Checksum, ChangeRate, PageVersion};
pub use shard::{ShardFn, ShardId, ShardPlan};
pub use time::{FOUR_MONTHS, MONTH, WEEK};
pub use url::Url;
