//! Change-frequency estimation — the paper's estimators **EP** and **EB**
//! (§5.3, detailed in \[CGM99a\] "Measuring frequency of change").
//!
//! The UpdateModule can only *sample* a page: each crawl compares the new
//! checksum with the stored one, yielding a binary "changed since last
//! visit?" observation (Figure 1's granularity caveat: multiple changes
//! between visits collapse into one detection). From those observations the
//! crawler must estimate the page's Poisson rate λ to schedule revisits.
//!
//! * [`history`] — the per-page observation log the UpdateModule keeps.
//! * [`ep`] — estimator EP: frequentist rate estimates (naive, MLE,
//!   bias-corrected) with the confidence interval §5.3 describes.
//! * [`eb`] — estimator EB: Bayesian inference over frequency classes
//!   ("pages that change every week" vs "every month"), updated per
//!   observation exactly as §5.3 sketches.
//! * [`last_modified`] — extension: the improved estimator available when
//!   servers report a last-modified date.
//! * [`pooling`] — site-level statistics pooling (§5.3's "larger units than
//!   a page" discussion) with its bias/variance trade-off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eb;
pub mod ep;
pub mod history;
pub mod last_modified;
pub mod pooling;

pub use eb::{BayesianEstimator, FrequencyClass};
pub use ep::{
    estimate_ep, estimate_irregular_mle, estimate_naive,
    estimate_regular_bias_corrected, EpEstimate,
};
pub use history::{ChangeHistory, Observation};
pub use last_modified::{estimate_from_last_modified, LastModifiedObs};
pub use pooling::SitePool;
