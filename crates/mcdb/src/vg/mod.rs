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

use crate::query::column::ColumnVec;
use crate::schema::{Column, DataType, Schema};
use crate::table::Row;
use crate::value::Value;
use crate::McdbError;
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

    /// Generate the realizations of a batch of calls — one per driver row,
    /// in driver order, all on `rng` — into `out`. This is the one entry a
    /// stochastic table's realization calls.
    ///
    /// The default body is the row loop: build call `r`'s parameter list,
    /// check it against [`VgFunction::arity`], [`VgFunction::generate`],
    /// and append the rows it returned to `out`. An
    /// override must be that loop to the bit: the same cells, the same
    /// draws from `rng` in the same order, and on failure the error the
    /// loop raises, at the row where it raises it.
    fn generate_batch(
        &self,
        params: &VgParams<'_>,
        rng: &mut Rng,
        out: &mut VgColumns<'_>,
    ) -> crate::Result<()> {
        let mut call = Vec::with_capacity(params.width());
        for r in 0..params.rows() {
            params.call(r, &mut call);
            self.check_arity(&call)?;
            out.push_rows(r, self.generate(&call, rng)?)?;
        }
        Ok(())
    }

    /// Validate parameter count against [`VgFunction::arity`].
    fn check_arity(&self, params: &[Value]) -> crate::Result<()> {
        check_width(self.name(), self.arity(), params.len())
    }
}

/// The arity check on a parameter count.
fn check_width(vg: &str, arity: Option<usize>, found: usize) -> crate::Result<()> {
    match arity {
        Some(expected) if found != expected => Err(McdbError::ArityMismatch {
            context: format!("VG function `{vg}`"),
            expected,
            found,
        }),
        _ => Ok(()),
    }
}

/// The parameter lists of a batch of VG calls, one call per driver row:
/// the parameter query's one row, which prefixes every list, then one
/// column per per-row parameter expression.
#[derive(Debug, Clone, Copy)]
pub struct VgParams<'a> {
    base: &'a [Value],
    columns: &'a [ColumnVec],
    rows: usize,
}

impl<'a> VgParams<'a> {
    /// `rows` calls over `base` followed by lane `r` of each of `columns`.
    pub(crate) fn new(base: &'a [Value], columns: &'a [ColumnVec], rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        VgParams {
            base,
            columns,
            rows,
        }
    }

    /// Number of calls.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of parameters in each call's list.
    pub(crate) fn width(&self) -> usize {
        self.base.len() + self.columns.len()
    }

    /// Call `r`'s parameter list, written over `out`.
    pub(crate) fn call(&self, r: usize, out: &mut Vec<Value>) {
        out.clear();
        out.extend_from_slice(self.base);
        out.extend(self.columns.iter().map(|c| c.value(r)));
    }

    /// Parameter `idx` of call `r` as [`float_param`] reads it from the
    /// list [`VgParams::call`] builds — same value, same error — without
    /// building the list.
    pub(crate) fn float(&self, r: usize, idx: usize, vg: &str, what: &str) -> crate::Result<f64> {
        let Some(k) = idx.checked_sub(self.base.len()) else {
            return float_param(self.base, idx, vg, what);
        };
        match self.columns.get(k) {
            Some(ColumnVec::Float { data, nulls }) if !nulls.is_null(r) => Ok(data[r]),
            Some(ColumnVec::Int { data, nulls }) if !nulls.is_null(r) => Ok(data[r] as f64),
            Some(c) => {
                let v = c.value(r);
                v.as_f64().map_err(|_| not_numeric(vg, idx, what, &v))
            }
            None => Err(missing_param(vg, idx, what, self.width())),
        }
    }
}

/// The error for call `r`'s row `vrow` whose cell `j` does not fit its
/// column, as a stochastic table's select list would meet it.
type Mistyped<'a> = Box<dyn Fn(usize, &[Value], usize) -> McdbError + 'a>;

/// Where a batch of VG calls writes its rows: one column per output column
/// the VG declares (`NULL` is admitted anywhere, an `Int` cell widens into
/// a `Float` column), and the call behind each output row. Batches written
/// one after another — the replicates of a tuple bundle — append.
pub struct VgColumns<'a> {
    vg: &'a str,
    declared: &'a [Column],
    columns: Vec<ColumnVec>,
    /// The call (driver row) behind each output row.
    calls: Vec<u32>,
    /// Whether every call so far emitted exactly one row.
    one_each: bool,
    mistyped: Mistyped<'a>,
}

impl<'a> VgColumns<'a> {
    /// Empty output columns typed as `declared`, the output schema of `vg`.
    pub(crate) fn new(
        vg: &'a str,
        declared: &'a [Column],
        mistyped: impl Fn(usize, &[Value], usize) -> McdbError + 'a,
    ) -> Self {
        VgColumns {
            vg,
            declared,
            columns: declared
                .iter()
                .map(|c| ColumnVec::placeholders(0, c.dtype))
                .collect(),
            calls: Vec::new(),
            one_each: true,
            mistyped: Box::new(mistyped),
        }
    }

    /// Rows written so far.
    pub(crate) fn rows(&self) -> usize {
        self.calls.len()
    }

    /// Append the rows call `r` returned. A row of another width than the
    /// declared schema is an arity error, and a cell its column cannot
    /// hold is the error `mistyped` makes of it.
    pub(crate) fn push_rows(&mut self, r: usize, rows: Vec<Row>) -> crate::Result<()> {
        self.one_each &= rows.len() == 1;
        for vrow in rows {
            if vrow.len() != self.columns.len() {
                return Err(McdbError::ArityMismatch {
                    context: format!("VG function `{}` output row", self.vg),
                    expected: self.columns.len(),
                    found: vrow.len(),
                });
            }
            for (j, v) in vrow.iter().enumerate() {
                let widened = match (v, self.declared[j].dtype) {
                    (Value::Int(x), DataType::Float) => Value::Float(*x as f64),
                    _ => v.clone(),
                };
                if self.columns[j].push(widened).is_err() {
                    return Err((self.mistyped)(r, &vrow, j));
                }
            }
            self.calls.push(r as u32);
        }
        Ok(())
    }

    /// One `Float` row per call, `values[r]` for call `r`: for the whole
    /// batch, in place of appending rows call by call. A VG that declares one
    /// `Float` column hands its draws over as they are; any other schema
    /// gets them as one row per call.
    pub(crate) fn push_floats(&mut self, values: Vec<f64>) -> crate::Result<()> {
        if let [ColumnVec::Float { data, nulls }] = &mut self.columns[..] {
            self.calls.extend(0..values.len() as u32);
            nulls.extend_valid(values.len());
            match data.is_empty() {
                true => *data = values,
                false => data.extend_from_slice(&values),
            }
            return Ok(());
        }
        for (r, x) in values.into_iter().enumerate() {
            self.push_rows(r, vec![vec![Value::Float(x)]])?;
        }
        Ok(())
    }

    /// The output columns, and the call behind each row — `None` when every
    /// call emitted exactly one row, so row `r` is call `r`'s.
    pub(crate) fn finish(self) -> (Vec<ColumnVec>, Option<Vec<u32>>) {
        let calls = (!self.one_each).then_some(self.calls);
        (self.columns, calls)
    }
}

/// Extract a required float parameter with a descriptive error.
pub(crate) fn float_param(
    params: &[Value],
    idx: usize,
    vg: &str,
    what: &str,
) -> crate::Result<f64> {
    let v = params
        .get(idx)
        .ok_or_else(|| missing_param(vg, idx, what, params.len()))?;
    v.as_f64().map_err(|_| not_numeric(vg, idx, what, v))
}

fn missing_param(vg: &str, idx: usize, what: &str, found: usize) -> McdbError {
    McdbError::ArityMismatch {
        context: format!("VG function `{vg}` ({what})"),
        expected: idx + 1,
        found,
    }
}

fn not_numeric(vg: &str, idx: usize, what: &str, v: &Value) -> McdbError {
    McdbError::type_mismatch(
        format!("VG function `{vg}` parameter {idx} ({what})"),
        "numeric",
        format!("{v}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_numeric::rng::{for_cases, rng_from_seed};
    use std::sync::Arc;

    /// A draw of valid parameters for one call.
    type ParamDraw = fn(&mut Rng) -> Vec<f64>;

    /// Each library VG with its parameter draw.
    fn library() -> Vec<(Arc<dyn VgFunction>, ParamDraw)> {
        vec![
            (Arc::new(NormalVg), |g| {
                vec![g.gen_range(-50.0..50.0), g.gen_range(0.1..10.0)]
            }),
            (Arc::new(UniformVg), |g| {
                let lo = g.gen_range(-50.0..50.0);
                vec![lo, lo + g.gen_range(0.5..10.0)]
            }),
            (Arc::new(ExponentialVg), |g| vec![g.gen_range(0.1..5.0)]),
            (Arc::new(PoissonVg), |g| vec![g.gen_range(0.5..20.0)]),
            (Arc::new(DiscreteChoiceVg::new(&["a", "b", "c"])), |g| {
                (0..3).map(|_| g.gen_range(0.1..3.0)).collect()
            }),
            (Arc::new(BackwardWalkVg), |g| {
                vec![
                    g.gen_range(50.0..150.0),
                    g.gen_range(0.1..5.0),
                    g.gen_range(0..4) as f64,
                ]
            }),
            (Arc::new(StockOptionVg), |g| {
                vec![
                    g.gen_range(50.0..150.0),
                    g.gen_range(50.0..150.0),
                    g.gen_range(-0.1..0.1),
                    g.gen_range(0.05..0.5),
                    g.gen_range(0..6) as f64,
                ]
            }),
            (Arc::new(BayesianDemandVg), |g| {
                vec![
                    g.gen_range(0.5..5.0),
                    g.gen_range(0.5..5.0),
                    g.gen_range(0..10) as f64,
                    g.gen_range(0..40) as f64,
                    g.gen_range(5.0..15.0),
                    10.0,
                    g.gen_range(0.0..3.0),
                ]
            }),
            (Arc::new(BetaVg), |g| {
                vec![g.gen_range(0.5..5.0), g.gen_range(0.5..5.0)]
            }),
            (Arc::new(BernoulliVg), |g| vec![g.gen_range(0.0..1.0)]),
        ]
    }

    /// A parameter value that may be invalid: `NULL`, NaN, non-positive,
    /// or not a number at all.
    fn spoiled(g: &mut Rng) -> Value {
        match g.gen_range(0..4) {
            0 => Value::Null,
            1 => Value::Float(f64::NAN),
            2 => Value::Float(-g.gen_range(0.0..2.0)),
            _ => Value::from("x"),
        }
    }

    /// Strictly the same cell: same variant, floats by bit pattern.
    fn same_cell(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
            (Value::Null, Value::Null) => true,
            (Value::Int(p), Value::Int(q)) => p == q,
            (Value::Str(p), Value::Str(q)) => p == q,
            (Value::Bool(p), Value::Bool(q)) => p == q,
            _ => false,
        }
    }

    #[test]
    fn the_batch_entry_is_the_per_row_loop_over_the_vg_library() {
        let mut outcomes = [0usize; 2];
        for_cases(48, |g| {
            for (vg, draw) in library() {
                let rows = g.gen_range(0usize..24);
                let calls: Vec<Vec<f64>> = (0..rows.max(1)).map(|_| draw(g)).collect();
                let width = calls[0].len();
                // The first `n_base` parameters come from the parameter
                // query (the first call's), the rest from columns, each
                // `Float` or rounded into an `Int` column.
                let n_base = g.gen_range(0..=width);
                let mut base: Vec<Value> =
                    calls[0][..n_base].iter().map(|&x| Value::from(x)).collect();
                let mut cells: Vec<Vec<Value>> = (n_base..width)
                    .map(|k| {
                        let int = g.gen_range(0..3) == 0;
                        (0..rows)
                            .map(|r| match int {
                                true => Value::Int(calls[r][k].round() as i64),
                                false => Value::Float(calls[r][k]),
                            })
                            .collect()
                    })
                    .collect();
                // One spoiled parameter in half the cases; a parameter too
                // many or too few in some.
                if g.gen_range(0..2) == 0 && rows > 0 {
                    let k = g.gen_range(0..width);
                    match k.checked_sub(n_base) {
                        None => base[k] = spoiled(g),
                        Some(c) => cells[c][g.gen_range(0..rows)] = spoiled(g),
                    }
                }
                match g.gen_range(0..12) {
                    0 => cells.push(vec![Value::from(1.0); rows]),
                    1 if !cells.is_empty() => drop(cells.pop()),
                    _ => {}
                }
                // A text cell among numbers makes the whole column text.
                let columns: Vec<ColumnVec> = cells
                    .into_iter()
                    .map(|c| {
                        ColumnVec::from_values(c.clone()).unwrap_or_else(|_| {
                            let text = c.iter().map(|v| Value::from(v.to_string().as_str()));
                            ColumnVec::from_values(text.collect()).unwrap()
                        })
                    })
                    .collect();
                let params = VgParams::new(&base, &columns, rows);
                let seed = g.gen::<u64>();

                // The oracle: one `generate` per row on its own list.
                let mut oracle_rng = rng_from_seed(seed);
                let oracle: crate::Result<Vec<(usize, Row)>> = (|| {
                    let mut out = Vec::new();
                    for r in 0..rows {
                        let mut call = base.clone();
                        call.extend(columns.iter().map(|c| c.value(r)));
                        vg.check_arity(&call)?;
                        out.extend(
                            vg.generate(&call, &mut oracle_rng)?
                                .into_iter()
                                .map(|row| (r, row)),
                        );
                    }
                    Ok(out)
                })();

                let schema = vg.output_schema();
                let mistyped = |r: usize, _: &[Value], j: usize| {
                    McdbError::invalid_plan(format!("cell {j} of call {r} mistyped"))
                };
                let mut out = VgColumns::new(vg.name(), schema.columns(), mistyped);
                let mut batch_rng = rng_from_seed(seed);
                let batch = vg.generate_batch(&params, &mut batch_rng, &mut out);
                let name = vg.name();
                match (batch, oracle) {
                    (Ok(()), Ok(want)) => {
                        let (cols, calls) = out.finish();
                        let n_out = calls.as_ref().map_or(rows, Vec::len);
                        assert_eq!(n_out, want.len(), "{name}: rows");
                        for (i, (r, row)) in want.iter().enumerate() {
                            assert_eq!(calls.as_ref().map_or(i, |c| c[i] as usize), *r, "{name}");
                            for (j, cell) in row.iter().enumerate() {
                                let got = cols[j].value(i);
                                assert!(
                                    same_cell(&got, cell),
                                    "{name} row {i}: {got:?} vs {cell:?}"
                                );
                            }
                        }
                        outcomes[0] += 1;
                    }
                    (Err(e), Err(want)) => {
                        assert_eq!(e, want, "{name}");
                        outcomes[1] += 1;
                    }
                    (got, want) => panic!("{name}: batch {got:?}, per-row {want:?}"),
                }
                assert_eq!(
                    batch_rng.gen::<u64>(),
                    oracle_rng.gen::<u64>(),
                    "{name}: generator state"
                );
            }
        });
        // Both outcomes were compared, many times.
        assert!(outcomes.iter().all(|&n| n > 48), "{outcomes:?}");
    }
}
