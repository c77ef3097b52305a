//! Data harmonization at scale — §2.2 of Haas, *Model-Data Ecosystems*
//! (PODS 2014).
//!
//! Composite simulation platforms like IBM Splash couple models "via data
//! exchange": upstream model outputs become downstream model inputs, after
//! transformations that fix **schema** discrepancies (format differences at
//! one point of simulated time) and **time-alignment** discrepancies
//! (timescale differences between models). For stochastic composites these
//! transformations run at *every Monte Carlo repetition*, so efficiency is
//! a first-order concern.
//!
//! | module | paper concept |
//! |---|---|
//! | [`series`] | the time series `⟨(s_i, d_i)⟩` with k-tuple observations |
//! | [`align`] | time alignment: aggregation vs interpolation |
//! | [`spline`] | natural cubic splines and their tridiagonal system |
//! | [`sgd`] | stochastic gradient descent on `‖Ax−b‖²` |
//! | [`dsgd`] | stratified DSGD (Gemulla et al.) with shuffle accounting |
//! | [`schema_map`] | Clio-lite declarative field mappings |
//! | [`gridfield`] | the Howe–Maier gridfield algebra and the restrict/regrid rewrite |
//!
//! # Example: align a daily series onto a weekly model's grid
//!
//! ```
//! use mde_harmonize::align::{align, AlignSpec, AggMethod};
//! use mde_harmonize::series::TimeSeries;
//!
//! // An upstream model emits daily output…
//! let days: Vec<f64> = (0..28).map(f64::from).collect();
//! let demand = days.iter().map(|t| 100.0 + t).collect();
//! let daily = TimeSeries::univariate("demand", days, demand).unwrap();
//! // …but the downstream model consumes weekly means.
//! let weekly = align(&daily, &[6.0, 13.0, 20.0, 27.0],
//!                    AlignSpec::Aggregate(AggMethod::Mean)).unwrap();
//! assert_eq!(weekly.len(), 4);
//! assert!((weekly.channel("demand").unwrap()[0] - 103.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod dsgd;
pub mod error;
pub mod gridfield;
pub mod schema_map;
pub mod series;
pub mod sgd;
pub mod spline;

pub use error::HarmonizeError;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, HarmonizeError>;
