//! Revisit-frequency scheduling (§4 choice 3, Figure 9, \[CGM99b\]).
//!
//! Given estimated change rates for the pages in the collection and a total
//! crawl-rate budget (pages per day), how often should each page be
//! revisited?
//!
//! * **Fixed/uniform** — every page at the same frequency; the natural
//!   batch-crawler policy.
//! * **Proportional** — frequency ∝ change rate; the intuitive policy the
//!   paper debunks with its two-page example (§4.3).
//! * **Optimal** — the freshness-maximizing allocation of \[CGM99b\], a
//!   Lagrange water-filling solve. Reproduces Figure 9's counterintuitive
//!   shape: revisit frequency *rises* with change rate up to a threshold
//!   λ_h, then *falls*, reaching zero for pages that change too fast to be
//!   worth chasing.
//!
//! [`optimal`] implements the solver, [`policy`] the uniform/proportional
//! baselines and the common evaluation code, and [`queue`] the
//! time-ordered revisit queue that turns frequencies into a crawl order
//! (the heart of `CollUrls`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod optimal;
pub mod policy;
pub mod queue;

pub use optimal::{optimal_allocation, optimal_frequency_curve, OptimalSolution};
pub use policy::{
    evaluate_allocation, proportional_allocation, uniform_allocation, Allocation,
    RevisitPolicy,
};
pub use queue::{RevisitQueue, ScheduledVisit};
