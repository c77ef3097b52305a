//! The model-data ecosystem platform — the paper's thesis made executable.
//!
//! IBM's Splash prototype (§2.2, \[26, 28, 53\]) "synthesize\[s\] simulation
//! and data-integration techniques, permitting loose coupling of models via
//! data exchange; that is, models communicate by reading and writing
//! datasets. When model and data contributors initially register their
//! models and datasets …, they provide metadata that enables drag-and-drop
//! composite-model creation, automatic detection of data mismatches
//! between upstream 'source' and downstream 'target' models, and …
//! data transformations, which are then compiled into runtime code. For a
//! stochastic composite model, data transformations must be performed at
//! every Monte Carlo repetition."
//!
//! | module | Splash concept |
//! |---|---|
//! | [`registry`] | model registration with metadata |
//! | [`composite`] | composite DAG, mismatch detection, auto-harmonization, MC execution |
//! | [`experiment`] | experiment manager: DOE-driven runs, metamodel fitting, RC optimization |
//! | [`whatif`] | the "data is dead without what-if" entry point over `mde-mcdb` |
//!
//! # Example: attach a stochastic model to data and ask what-if
//!
//! ```
//! use mde_core::whatif::WhatIfSession;
//! use mde_mcdb::prelude::*;
//! use mde_mcdb::query::{AggFunc, AggSpec};
//! use mde_mcdb::vg::NormalVg;
//! use std::sync::Arc;
//!
//! let mut s = WhatIfSession::new();
//! s.add_data(
//!     Table::build("STORES", &[("SID", DataType::Int)])
//!         .rows((0..5).map(|i| vec![Value::from(i)]))
//!         .finish().unwrap(),
//! );
//! s.attach_stochastic(
//!     RandomTableSpec::builder("SALES")
//!         .for_each(Plan::scan("STORES"))
//!         .with_vg(Arc::new(NormalVg))
//!         .vg_params_exprs(&[Expr::lit(50.0), Expr::lit(5.0)])
//!         .select(&[("AMT", Expr::col("VALUE"))])
//!         .build().unwrap(),
//! );
//! let total = Plan::scan("SALES")
//!     .aggregate(&[], vec![AggSpec::new("T", AggFunc::Sum, Expr::col("AMT"))]);
//! let dist = s.what_if(&total, 200, 1).unwrap();
//! assert!((dist.mean() - 250.0).abs() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod error;
pub mod experiment;
pub mod registry;
pub mod sched;
pub mod whatif;

pub use error::CoreError;
pub use sched::{CampaignReport, CampaignSpec, CampaignStatus, SchedConfig, SchedRun, Scheduler};

/// Convenience result alias used throughout the crate.
pub(crate) type Result<T> = std::result::Result<T, CoreError>;
