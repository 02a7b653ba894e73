//! Statistics substrate for the `webevo` workspace.
//!
//! The paper's measurement study (§3) and its Poisson-model analysis (§3.4,
//! §4) need a small but complete statistics toolkit:
//!
//! * deterministic, seedable random sampling ([`rng`]),
//! * exponential / Poisson distributions and Poisson-process event streams
//!   ([`dist`], [`process`]) — Theorem 1 of the paper,
//! * histograms, including the paper's change-interval bins ([`histogram`]),
//! * survival curves for Figure 5 ([`ecdf`]),
//! * binomial and rate confidence intervals for estimator EP ([`ci`]),
//! * special functions backing the above ([`special`]),
//! * a chi-square goodness-of-fit test used to verify the Poisson model the
//!   way Figure 6 does ([`gof`]),
//! * streaming summary statistics ([`summary`]).
//!
//! Everything is deterministic given a seed; nothing here touches wall-clock
//! time or global state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod dist;
pub mod ecdf;
pub mod gof;
pub mod histogram;
pub mod process;
pub mod rng;
pub mod special;
pub mod summary;

pub use ci::{binomial_wilson, rate_ci_from_regular_access, ConfidenceInterval};
pub use dist::sample_exponential;
pub use ecdf::SurvivalCurve;
pub use gof::GofResult;
pub use histogram::{Histogram, IntervalBin, IntervalHistogram, LifespanBin, LifespanHistogram};
pub use process::{event_slice, generate_poisson_into, PoissonProcess};
pub use rng::SimRng;
pub use summary::Summary;
