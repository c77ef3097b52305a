//! Calibrating simulation models against data — §3.1 of Haas, *Model-Data
//! Ecosystems* (PODS 2014).
//!
//! "The key is then to *calibrate* the model using statistical and machine
//! learning techniques in order to approximately match existing datasets."
//!
//! | module | paper concept |
//! |---|---|
//! | [`mle`] | maximum likelihood (the exponential worked example, generic numeric MLE) |
//! | [`mm`] | the method of moments |
//! | [`msm`] | McFadden's method of simulated moments: `J(θ) = GᵀWG`, estimated `W`, ridge regularization |
//! | [`optim`] | simulation-budgeted optimizers: Nelder–Mead, genetic algorithm (Fabretti), random search |
//! | [`kriging_cal`] | DOE + kriging surrogate minimization (Salle & Yildizoglu) |
//! | [`range`] | the acceptable-set / prediction-range diagnostic (Shi & Brooks \[51\]) |
//!
//! # Example: the paper's worked MLE, plus MSM on a simulator
//!
//! ```
//! use mde_calibrate::mle::exponential_mle;
//! use mde_calibrate::msm::{MsmProblem, Simulator};
//! use mde_numeric::dist::{Distribution, Exponential};
//! use mde_numeric::rng::rng_from_seed;
//!
//! // θ̂ = 1/X̄, exactly as §3.1 derives.
//! assert!((exponential_mle(&[1.0, 2.0, 3.0]).unwrap() - 0.5).abs() < 1e-12);
//!
//! // The same estimation when only a simulator is available (MSM).
//! let sim: &Simulator = &|theta: &[f64], seed: u64| {
//!     let d = Exponential::new(theta[0].max(1e-6)).unwrap();
//!     let mut rng = rng_from_seed(seed);
//!     vec![d.sample_n(&mut rng, 400).iter().sum::<f64>() / 400.0]
//! };
//! let problem = MsmProblem::new(vec![0.5 /* observed mean */], sim, 8, 3);
//! let theta_hat = problem.calibrate(&[1.0], 200).unwrap().x[0];
//! assert!((theta_hat - 2.0).abs() < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod kriging_cal;
pub mod mle;
pub mod mm;
pub mod msm;
pub mod optim;
pub mod range;
pub mod sched;

pub use error::CalibrateError;
pub use sched::SearchCampaign;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CalibrateError>;
