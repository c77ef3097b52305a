//! Combining real and simulated data — §3.2 of Haas, *Model-Data
//! Ecosystems* (PODS 2014).
//!
//! The paper's worked example is wildfire tracking: "domain experts have
//! developed simulation models that capture the probabilistic mechanism by
//! which a fire spreads over terrain. During an actual fire, real-world
//! temperature data … is available as a stream of time-varying readings
//! from a set of sensors. Particle filtering can be used to combine sensor
//! readings with simulated data to yield more accurate estimates of the
//! fire status than could be obtained from either data source alone."
//!
//! | module | paper concept |
//! |---|---|
//! | [`is`] | importance sampling with unnormalized weights, `Ẑ` |
//! | [`resample`] | systematic resampling, ESS, weight collapse |
//! | [`pf`] | the particle filter (the paper's Algorithm 2) over a generic state-space model |
//! | [`wildfire`] | the DEVS-FIRE-style cellular fire model + Gaussian sensor grid |
//! | [`proposal`] | bootstrap (prior) proposal \[56\] and the sensor-aware proposal with KDE-estimated weights \[57\] |
//!
//! # Example: track a fire from noisy sensors
//!
//! ```
//! use mde_assim::pf::{BootstrapProposal, ParticleFilter};
//! use mde_assim::wildfire::default_scenario;
//! use mde_numeric::resilience::RunOptions;
//! use mde_numeric::rng::rng_from_seed;
//!
//! let model = default_scenario();
//! let mut rng = rng_from_seed(7);
//! let (truth, sensor_stream) = model.simulate_truth(8, &mut rng);
//! let pf = ParticleFilter::new(100, 1);
//! let run = pf.run(&model, &BootstrapProposal, &sensor_stream, &RunOptions::default())?;
//! // The filtered burning-cell count tracks the (hidden) truth.
//! let est = run.steps[7].estimate(|s| s.burning_count() as f64);
//! let tru = truth[7].burning_count() as f64;
//! assert!((est - tru).abs() < tru.max(4.0));
//! # Ok::<(), mde_assim::AssimError>(())
//! ```
//!
//! [`ParticleFilter::run`](pf::ParticleFilter::run) is the filter's one
//! entry point: the same call takes a retry or best-effort policy, a
//! deadline, a cancel token, a checkpoint file or a state to resume from
//! through its [`RunOptions`](mde_numeric::resilience::RunOptions).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod is;
pub mod pf;
pub mod proposal;
pub mod resample;
pub mod sis;
pub mod wildfire;

pub use error::AssimError;

/// Convenience result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, AssimError>;
