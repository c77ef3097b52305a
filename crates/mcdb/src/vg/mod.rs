//! VG (variable generation) functions.
//!
//! In MCDB, "uncertain data are not represented by specific data values,
//! but rather by stochastic models … implemented as user- and
//! system-defined libraries of external C++ programs called Variable
//! Generation functions". A call to a VG function generates a realization
//! of uncertain values as a pseudorandom sample; the sample can be a single
//! element or a set of correlated elements.
//!
//! This module defines the [`VgFunction`] trait and implements the paper's
//! own examples:
//!
//! * [`NormalVg`] — "simple generation of a sample from a normal
//!   distribution" (the SBP example);
//! * [`BackwardWalkVg`] — "executing a backward random walk starting at a
//!   given current price in order to estimate missing prior prices";
//! * [`StockOptionVg`] — "simulating a sequence of stock prices in order to
//!   return a sample of the value of a stock option one week from now";
//! * [`BayesianDemandVg`] — "a customer's random demand for an item, given
//!   its price … fitting a parametric global demand model … and then
//!   computing a customized demand distribution for each customer using the
//!   customer's individual purchase history together with Bayes' Theorem";
//! * plus the general-purpose [`UniformVg`], [`PoissonVg`], and
//!   [`DiscreteChoiceVg`].

mod library;

pub use library::{
    BackwardWalkVg, BayesianDemandVg, BernoulliVg, BetaVg, DiscreteChoiceVg, ExponentialVg,
    NormalVg, PoissonVg, StockOptionVg, UniformVg,
};

use crate::schema::Schema;
use crate::table::Row;
use crate::value::Value;
use mde_numeric::rng::Rng;

/// A variable-generation function: the pluggable stochastic model of a
/// random table.
///
/// `generate` receives parameter values (produced by a SQL-like parameter
/// query and/or per-driver-row expressions — see
/// [`crate::random_table::RandomTableSpec`]) and must return rows matching
/// [`VgFunction::output_schema`].
pub trait VgFunction: Send + Sync {
    /// Name, for error messages and registry display — and the function's
    /// identity in campaign fingerprints: a checkpoint or cached result of a
    /// Monte Carlo query is tied to its VGs by name, so two functions that
    /// generate differently must not share one.
    fn name(&self) -> &str;

    /// Schema of the rows this function produces.
    fn output_schema(&self) -> Schema;

    /// Number of parameters expected, or `None` for variadic functions.
    fn arity(&self) -> Option<usize>;

    /// Generate one realization.
    fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>>;

    /// Validate parameter count against [`VgFunction::arity`].
    fn check_arity(&self, params: &[Value]) -> crate::Result<()> {
        if let Some(n) = self.arity() {
            if params.len() != n {
                return Err(crate::McdbError::ArityMismatch {
                    context: format!("VG function `{}`", self.name()),
                    expected: n,
                    found: params.len(),
                });
            }
        }
        Ok(())
    }
}

/// Extract a required float parameter with a descriptive error.
pub(crate) fn float_param(
    params: &[Value],
    idx: usize,
    vg: &str,
    what: &str,
) -> crate::Result<f64> {
    params
        .get(idx)
        .ok_or_else(|| crate::McdbError::ArityMismatch {
            context: format!("VG function `{vg}` ({what})"),
            expected: idx + 1,
            found: params.len(),
        })?
        .as_f64()
        .map_err(|_| {
            crate::McdbError::type_mismatch(
                format!("VG function `{vg}` parameter {idx} ({what})"),
                "numeric",
                format!("{}", params[idx]),
            )
        })
}
