//! Web-graph substrate for the `webevo` workspace.
//!
//! Three pieces of the paper need a link graph:
//!
//! * **Site selection** (§2.2): the 270 monitored sites were the most
//!   "popular" sites of a 25M-page snapshot, ranked by a *site-level*
//!   PageRank over the hypergraph whose nodes are sites ([`sitegraph`]).
//! * **The RankingModule** (§5.3): the incremental crawler constantly
//!   reevaluates page importance — PageRank [CGMP98, PB98] or Hub &
//!   Authority \[Kle98\] — over the link structure captured in the
//!   Collection ([`mod@pagerank`], [`mod@hits`]), including estimating the rank of
//!   pages *not yet crawled* from the in-links the Collection has seen
//!   (footnote 2 of the paper).
//! * **The simulator** generates realistic link structure to drive both.
//!
//! The [`PageGraph`] is mutable (pages and links appear and disappear as the
//! web evolves). PageRank runs on a point-in-time flat copy, a [`LinkCsr`],
//! built either from a `PageGraph` or straight from each page's out-links.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hits;
pub mod linkcsr;
pub mod pagegraph;
pub mod pagerank;
#[cfg(test)]
mod reference;
pub mod sitegraph;

pub use hits::{hits, HitsConfig, HitsScores};
pub use linkcsr::LinkCsr;
pub use pagegraph::PageGraph;
pub use pagerank::{
    estimate_uncrawled, pagerank, pagerank_csr, PageRankConfig, PageRankKernel, PageRankScores,
};
pub use sitegraph::{site_pagerank, SiteGraph};
