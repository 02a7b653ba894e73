//! Freshness and age analytics for crawler policies (§4 of the paper).
//!
//! The paper compares crawler designs with the *freshness* metric of
//! \[CGM99b\]: the expected fraction of the local collection that is
//! up-to-date. Under the Poisson change model of §3.4 the metric has closed
//! forms for every combination the paper considers:
//!
//! * **steady vs batch-mode** crawling (Figure 7),
//! * **in-place update vs shadowing** (Figure 8, Table 2),
//! * arbitrary revisit interval per page (feeding the Figure 9 optimizer).
//!
//! [`analytic`] holds the time-averaged formulas (Table 2's entries to the
//! printed precision), [`curves`] the instantaneous E\[freshness\](t) curves
//! that draw Figures 7 and 8, [`age`] the companion age metric the paper
//! mentions, [`series`] an empirical freshness time-series accumulator, and
//! [`montecarlo`] a simulation cross-check of every formula.
//!
//! Derivations (not shown in the paper, reconstructed from the Poisson
//! model) are documented on each function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod age;
pub mod analytic;
pub mod curves;
pub mod montecarlo;
pub mod policy;
pub mod series;

pub use age::age_periodic;
pub use analytic::{
    freshness_batch_inplace, freshness_batch_shadow, freshness_periodic,
    freshness_steady_inplace, freshness_steady_shadow, table2_entry,
};
pub use curves::{FreshnessCurve, PolicyCurves};
pub use policy::{CrawlMode, CrawlPolicy, UpdateMode};
pub use series::FreshnessSeries;
