//! Simulation metamodeling — §4 of Haas, *Model-Data Ecosystems* (PODS
//! 2014).
//!
//! "A simulation metamodel is a simplified functional representation of a
//! simulation model, i.e., a response surface … An appealing property of a
//! metamodel is that it supports 'simulation on demand' … The power of
//! experimental design lies in the observation that, if a relatively
//! simple metamodel suffices … then the parameters of the metamodel can
//! often be estimated by exploring a very small but carefully selected
//! subset of the parameter space."
//!
//! | module | paper concept |
//! |---|---|
//! | [`response`] | the response-surface abstraction shared with calibration |
//! | [`design`] | full/fractional factorials (Fig 3), Latin hypercubes (Fig 5), NOLH |
//! | [`poly`] | polynomial metamodels (eq. 3), main effects (Fig 4), half-normal diagnostics |
//! | [`gp`] | Gaussian-process metamodels (eqs. 4–6), kriging and stochastic kriging |
//! | [`kernel`] | cached kernel-matrix workspaces behind the GP hot path |
//! | [`screening`] | sequential bifurcation and GP-based factor screening (§4.3) |
//!
//! # Example: 8 runs estimate 7 main effects (Figure 3 + Figure 4)
//!
//! ```
//! use mde_metamodel::design::resolution_iii_7;
//! use mde_metamodel::poly::main_effects;
//!
//! let design = resolution_iii_7().design();
//! assert_eq!((design.runs(), design.factors()), (8, 7));
//! // A sparse linear truth…
//! let ys: Vec<f64> = design.matrix.iter()
//!     .map(|x| 10.0 + 4.0 * x[0] - 3.0 * x[2])
//!     .collect();
//! // …whose effects the tiny design pins exactly.
//! let me = main_effects(&design, &ys);
//! assert!((me.effects[0] - 8.0).abs() < 1e-9);
//! assert!((me.effects[2] + 6.0).abs() < 1e-9);
//! assert!(me.effects[1].abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod error;
pub mod gp;
pub mod kernel;
pub mod poly;
pub mod response;
pub mod screening;

pub use error::MetamodelError;

/// Convenience result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, MetamodelError>;
