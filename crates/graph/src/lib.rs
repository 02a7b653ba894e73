//! Web-graph substrate for the `webevo` workspace.
//!
//! Three pieces of the paper need a link graph:
//!
//! * **Site selection** (§2.2): the 270 monitored sites were the most
//!   "popular" sites of a 25M-page snapshot, ranked by a *site-level*
//!   PageRank over the hypergraph whose nodes are sites ([`sitegraph`]).
//! * **The RankingModule** (§5.3): the incremental crawler constantly
//!   reevaluates page importance by PageRank [CGMP98, PB98] over the link
//!   structure captured in the Collection ([`mod@pagerank`]), including
//!   estimating the rank of pages *not yet crawled* from the in-links the
//!   Collection has seen (footnote 2 of the paper). Hub & Authority
//!   \[Kle98\], §5.3's alternative importance measure, is not implemented.
//! * **The simulator** generates realistic link structure to drive both.
//!
//! Every reader sees links through one type, the [`LinkCsr`]: a flat,
//! point-in-time copy built straight from each page's out-links.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod linkcsr;
pub mod pagerank;
#[cfg(test)]
mod reference;
pub mod sitegraph;

pub use linkcsr::LinkCsr;
pub use pagerank::{
    estimate_uncrawled, pagerank, PageRankConfig, PageRankKernel, PageRankScores,
};
pub use sitegraph::{site_pagerank, SiteGraph};
