//! An in-process Monte Carlo database engine, reproducing the MCDB and
//! SimSQL systems surveyed in §2.1 and §2.4 of Haas, *Model-Data
//! Ecosystems* (PODS 2014).
//!
//! # What the paper describes
//!
//! MCDB (Jampani et al., TODS 2011) lets an analyst attach arbitrary
//! stochastic models to a relational database: alongside ordinary tables,
//! *stochastic tables* contain "uncertain" data represented not by values
//! but by probability distributions, realized on demand by **VG functions**
//! (variable-generation functions). Running a query over one realization
//! yields one sample from the query-result distribution; iterating yields a
//! Monte Carlo sample from which moments, quantiles (MCDB-R risk
//! analysis), and threshold probabilities are estimated. To make this
//! affordable, MCDB executes a query plan *once* over **tuple bundles** —
//! tuples carrying all `N` Monte Carlo instantiations at once — instead of
//! `N` times.
//!
//! This engine keeps what of that sentence pays on a vectorized substrate:
//! a Monte Carlo query is *planned* once
//! ([`random_table::RandomTableSpec::prepare`] and [`query::PreparedQuery`]
//! bind every plan and expression up front), and the part of it that is the
//! same in every instance — every sub-plan that reads no stochastic table:
//! driver and parameter queries, the deterministic side of a join under its
//! pushed-down filter — *executes* once per run and is shared by all
//! replicates. What depends on the draws runs once per
//! replicate, each replicate on its own RNG stream: the VG calls, whose
//! cells go straight into typed columns, and the stochastic suffix of the
//! prepared, vectorized plan. A tuple-bundle interpreter existed through
//! PR 18; measured against the vectorized engine it lost 3× on plan
//! execution, and it was removed (EXPERIMENTS.md, E3).
//!
//! SimSQL (Cai et al., SIGMOD 2013) extends MCDB with *versioned,
//! recursively defined* stochastic tables: the mechanism that generates
//! database state `D[i]` may depend on `D[i−1]`, so the system simulates a
//! **database-valued Markov chain** — enabling scalable Bayesian machine
//! learning and, building on Wang et al.'s observation that an agent-based
//! simulation step is a self-join, massive stochastic ABS inside the
//! database.
//!
//! # Crate layout
//!
//! | module | paper concept |
//! |---|---|
//! | [`value`], [`schema`], [`table`] | ordinary relational storage |
//! | [`expr`] | scalar expressions over rows |
//! | [`query`] | logical plans, executor, filter-pushdown planner |
//! | [`vg`] | the VG-function trait and the paper's example library |
//! | [`random_table`] | `CREATE TABLE … AS FOR EACH … WITH … AS VG(…)` |
//! | [`mc`] | Monte Carlo query estimation, risk & threshold queries |
//! | [`markov`] | SimSQL database-valued Markov chains |
//! | [`simstep`] | ABS-step-as-self-join (Wang et al.) |
//!
//! # Quick example
//!
//! The paper's SBP (systolic blood pressure) stochastic table:
//!
//! ```
//! use mde_mcdb::prelude::*;
//! use mde_mcdb::vg::NormalVg;
//! use std::sync::Arc;
//!
//! // Ordinary tables: patients, and the (single-row) SBP parameter table.
//! let mut db = Catalog::new();
//! db.insert(
//!     Table::build("PATIENTS", &[("PID", DataType::Int), ("GENDER", DataType::Str)])
//!         .row(vec![Value::from(1), Value::from("F")])
//!         .row(vec![Value::from(2), Value::from("M")])
//!         .finish()
//!         .unwrap(),
//! );
//! db.insert(
//!     Table::build("SBP_PARAM", &[("MEAN", DataType::Float), ("STD", DataType::Float)])
//!         .row(vec![Value::from(120.0), Value::from(15.0)])
//!         .finish()
//!         .unwrap(),
//! );
//!
//! // CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
//! //   FOR EACH p IN PATIENTS
//! //   WITH SBP AS Normal((SELECT s.MEAN, s.STD FROM SBP_PARAM s))
//! //   SELECT p.PID, p.GENDER, b.VALUE FROM SBP b
//! let spec = RandomTableSpec::builder("SBP_DATA")
//!     .for_each(Plan::scan("PATIENTS"))
//!     .with_vg(std::sync::Arc::new(NormalVg))
//!     .vg_params_query(Plan::scan("SBP_PARAM"))
//!     .select(&[("PID", Expr::col("PID")), ("GENDER", Expr::col("GENDER")),
//!               ("SBP", Expr::col("VALUE"))])
//!     .build()
//!     .unwrap();
//!
//! let mut rng = mde_numeric::rng::rng_from_seed(1);
//! let realization = spec.realize(&db, &mut rng).unwrap();
//! assert_eq!(realization.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod expr;
pub mod markov;
pub mod mc;
pub mod query;
pub mod random_table;
pub mod sched;
pub mod schema;
pub mod simstep;
pub mod sql;
pub mod storage;
pub mod table;
pub mod value;
pub mod vg;

pub use error::McdbError;
pub use mde_numeric::resilience::{RunOptions, RunPolicy, RunReport};
pub use sched::McCampaign;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, McdbError>;

/// The most common imports, for examples and downstream crates.
pub mod prelude {
    pub use crate::expr::Expr;
    pub use crate::query::{AggFunc, Catalog, Plan};
    pub use crate::random_table::RandomTableSpec;
    pub use crate::schema::{Column, DataType, Schema};
    pub use crate::table::Table;
    pub use crate::value::Value;
}
