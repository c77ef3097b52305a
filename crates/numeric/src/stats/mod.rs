//! Summary statistics for simulation output analysis.
//!
//! Monte Carlo experiments in this workspace produce streams of outputs;
//! the estimators here turn them into the quantities the paper's systems
//! report: means with confidence intervals (MCDB query results), variances
//! and covariances (the `V₁`, `V₂` statistics of the result-caching
//! optimizer, §2.3), quantiles including extreme quantiles (MCDB-R risk
//! analysis), and the small time-series toolkit behind the Figure 1
//! extrapolation experiment.

mod ci;
mod quantile;
mod summary;
mod timeseries;

pub use ci::{mean_confidence_interval, proportion_confidence_interval, ConfidenceInterval};
pub use quantile::{quantile, quantiles};
pub use summary::{BivariateSummary, Summary};
pub use timeseries::{Ar1Fit, LinearTrend, TrendAr1Model};
