//! Tuple-bundle query execution.
//!
//! "To ensure acceptable performance, MCDB employs query processing
//! techniques that execute a query plan only once, processing 'tuple
//! bundles' rather than ordinary tuples. A tuple bundle encapsulates the
//! instantiations of a tuple over a set of Monte Carlo iterations."
//!
//! A [`BundledTable`] stores, per logical row, either a single shared value
//! per column ([`BundledValue::Const`]) or one value per Monte Carlo
//! iteration ([`BundledValue::Varying`]), plus a presence mask recording in
//! which iterations the row exists. [`execute_bundled`] runs a plan over
//! bundled inputs **once**:
//!
//! * expressions touching only constant columns are evaluated once per row
//!   (this is where the speedup over naive `N`-fold execution comes from);
//! * filters on constant predicates keep or drop whole bundles; varying
//!   predicates just narrow the presence mask;
//! * joins require constant keys (join structure shared by all
//!   iterations), intersecting presence masks;
//! * aggregation produces per-iteration results, yielding the Monte Carlo
//!   sample of the query answer in one pass.
//!
//! The invariant that makes all this trustworthy — *instantiating iteration
//! `i` of the bundled result equals running the ordinary executor on
//! iteration `i` of the inputs* — is enforced by tests here and by a
//! property test in the crate's test suite.

use crate::expr::BoundExpr;
use crate::query::{AggFunc, AggState, Catalog, Plan};
use crate::random_table::RandomTableSpec;
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::{GroupKey, Value};
use crate::vg::OutputCardinality;
use crate::McdbError;
use mde_numeric::rng::Rng;
use std::collections::HashMap;
use std::sync::Arc;

/// A column value within a tuple bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum BundledValue {
    /// The same value in every Monte Carlo iteration.
    Const(Value),
    /// One value per iteration (length = bundle's iteration count).
    Varying(Arc<Vec<Value>>),
}

impl BundledValue {
    /// The value at iteration `i`.
    pub fn at(&self, i: usize) -> &Value {
        match self {
            BundledValue::Const(v) => v,
            BundledValue::Varying(vs) => &vs[i],
        }
    }

    /// Whether this value is iteration-independent.
    pub fn is_const(&self) -> bool {
        matches!(self, BundledValue::Const(_))
    }
}

/// Row-presence across iterations.
#[derive(Debug, Clone, PartialEq)]
pub enum Presence {
    /// Present in every iteration.
    All,
    /// Present exactly where the mask is true (length = iteration count).
    Mask(Arc<Vec<bool>>),
}

impl Presence {
    /// Present at iteration `i`?
    pub fn at(&self, i: usize) -> bool {
        match self {
            Presence::All => true,
            Presence::Mask(m) => m[i],
        }
    }

    /// Present in at least one iteration?
    pub fn any(&self) -> bool {
        match self {
            Presence::All => true,
            Presence::Mask(m) => m.iter().any(|&b| b),
        }
    }
}

/// One tuple bundle: a row whose values may vary per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BundledRow {
    /// Per-column bundled values.
    pub values: Vec<BundledValue>,
    /// Presence mask.
    pub present: Presence,
}

/// A table of tuple bundles over `n_iters` Monte Carlo iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct BundledTable {
    name: String,
    schema: Schema,
    n_iters: usize,
    rows: Vec<BundledRow>,
}

impl BundledTable {
    /// Bundle a deterministic table: every value constant, present in all
    /// iterations.
    pub fn from_table(table: &Table, n_iters: usize) -> Self {
        BundledTable {
            name: table.name().to_string(),
            schema: table.schema().clone(),
            n_iters,
            rows: table
                .rows()
                .iter()
                .map(|r| BundledRow {
                    values: r.iter().cloned().map(BundledValue::Const).collect(),
                    present: Presence::All,
                })
                .collect(),
        }
    }

    /// Realize a stochastic table as tuple bundles over `n_iters`
    /// iterations.
    ///
    /// VG functions with [`OutputCardinality::Fixed`] produce dense bundles:
    /// one bundle per (driver row × output row), with driver-derived columns
    /// constant and VG-derived columns varying. Variable-cardinality
    /// functions fall back to one bundle per generated row, present only in
    /// its own iteration — MCDB's general case.
    pub fn from_spec(
        spec: &RandomTableSpec,
        catalog: &Catalog,
        n_iters: usize,
        rng: &mut Rng,
    ) -> crate::Result<Self> {
        let driver = catalog.query(spec.driver())?;
        let combined = spec.combined_schema(catalog)?;
        let out_schema = spec.output_schema(catalog)?;

        match spec.vg().cardinality() {
            OutputCardinality::Fixed(k) => Self::from_spec_fixed(
                spec,
                catalog,
                &driver,
                &combined,
                &out_schema,
                k,
                n_iters,
                rng,
            ),
            OutputCardinality::Variable => {
                Self::from_spec_variable(spec, catalog, &out_schema, n_iters, rng)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn from_spec_fixed(
        spec: &RandomTableSpec,
        catalog: &Catalog,
        driver: &Table,
        combined: &Schema,
        out_schema: &Schema,
        rows_per_call: usize,
        n_iters: usize,
        rng: &mut Rng,
    ) -> crate::Result<Self> {
        // Reuse `realize`'s parameter logic but keep the per-(driver-row,
        // output-row) structure by driving the VG function directly.
        let base_params = spec.base_params_values(catalog)?;
        let bound_param_exprs = spec.bind_param_exprs(driver.schema())?;
        let select = spec.bind_select(combined)?;

        let vg_width = spec.vg().output_schema().len();
        let mut rows: Vec<BundledRow> = Vec::with_capacity(driver.len() * rows_per_call);
        for drow in driver.rows() {
            let mut params = base_params.clone();
            for be in &bound_param_exprs {
                params.push(be.eval(drow)?);
            }
            spec.vg().check_arity(&params)?;
            // Draw all iterations for this driver row: per output-row slot,
            // per VG column, a vector of n_iters values.
            let mut slots: Vec<Vec<Vec<Value>>> =
                vec![vec![Vec::with_capacity(n_iters); vg_width]; rows_per_call];
            for _ in 0..n_iters {
                let generated = spec.vg().generate(&params, rng)?;
                if generated.len() != rows_per_call {
                    return Err(McdbError::invalid_plan(format!(
                        "VG `{}` declared Fixed({rows_per_call}) cardinality but produced {} rows",
                        spec.vg().name(),
                        generated.len()
                    )));
                }
                for (slot, grow) in slots.iter_mut().zip(generated) {
                    for (col, v) in slot.iter_mut().zip(grow) {
                        col.push(v);
                    }
                }
            }
            for slot in slots {
                // Combined bundled row: driver columns Const, VG columns
                // Varying (collapsed to Const if the VG happens to be
                // degenerate — skipped: correctness first).
                let mut values: Vec<BundledValue> =
                    drow.iter().cloned().map(BundledValue::Const).collect();
                values.extend(
                    slot.into_iter()
                        .map(|vs| BundledValue::Varying(Arc::new(vs))),
                );
                let combined_row = BundledRow {
                    values,
                    present: Presence::All,
                };
                // Apply the SELECT projection in bundle space.
                let mut out_values = Vec::with_capacity(select.len());
                for (be, col) in select.iter().zip(out_schema.columns()) {
                    out_values.push(eval_bundled(be, &combined_row, n_iters, col.dtype)?);
                }
                rows.push(BundledRow {
                    values: out_values,
                    present: Presence::All,
                });
            }
        }
        Ok(BundledTable {
            name: spec.name().to_string(),
            schema: out_schema.clone(),
            n_iters,
            rows,
        })
    }

    fn from_spec_variable(
        spec: &RandomTableSpec,
        catalog: &Catalog,
        out_schema: &Schema,
        n_iters: usize,
        rng: &mut Rng,
    ) -> crate::Result<Self> {
        // Plan the spec once; only realization repeats per iteration.
        let prepared = spec.prepare(catalog)?;
        let mut rows = Vec::new();
        for i in 0..n_iters {
            let t = prepared.realize(catalog, rng)?;
            for r in t.rows() {
                let mut mask = vec![false; n_iters];
                mask[i] = true;
                rows.push(BundledRow {
                    values: r.iter().cloned().map(BundledValue::Const).collect(),
                    present: Presence::Mask(Arc::new(mask)),
                });
            }
        }
        Ok(BundledTable {
            name: spec.name().to_string(),
            schema: out_schema.clone(),
            n_iters,
            rows,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of Monte Carlo iterations in the bundle.
    pub fn n_iters(&self) -> usize {
        self.n_iters
    }

    /// The bundled rows.
    pub fn rows(&self) -> &[BundledRow] {
        &self.rows
    }

    /// Materialize iteration `i` as an ordinary table.
    pub fn instantiate(&self, i: usize) -> crate::Result<Table> {
        if i >= self.n_iters {
            return Err(McdbError::invalid_plan(format!(
                "iteration {i} out of range (bundle has {})",
                self.n_iters
            )));
        }
        let mut t = Table::new(self.name.clone(), self.schema.clone());
        for row in &self.rows {
            if row.present.at(i) {
                t.push_row(row.values.iter().map(|v| v.at(i).clone()).collect())?;
            }
        }
        Ok(t)
    }

    /// For a bundled result with exactly one row and one column, the Monte
    /// Carlo sample of the scalar result (NaN-free; errors if any
    /// iteration's value is missing or non-numeric).
    pub fn scalar_samples(&self) -> crate::Result<Vec<f64>> {
        if self.rows.len() != 1 || self.schema.len() != 1 {
            return Err(McdbError::NonScalarResult {
                rows: self.rows.len(),
                cols: self.schema.len(),
            });
        }
        (0..self.n_iters)
            .map(|i| self.rows[0].values[0].at(i).as_f64())
            .collect()
    }
}

/// A catalog of bundled tables, all over the same iteration count.
#[derive(Debug, Clone, Default)]
pub struct BundledCatalog {
    n_iters: usize,
    tables: HashMap<String, BundledTable>,
}

impl BundledCatalog {
    /// Create an empty bundled catalog for `n_iters` iterations.
    pub fn new(n_iters: usize) -> Self {
        BundledCatalog {
            n_iters,
            tables: HashMap::new(),
        }
    }

    /// The iteration count.
    pub fn n_iters(&self) -> usize {
        self.n_iters
    }

    /// Insert a bundled table (must match the catalog's iteration count).
    pub fn insert(&mut self, table: BundledTable) -> crate::Result<()> {
        if table.n_iters != self.n_iters {
            return Err(McdbError::invalid_plan(format!(
                "bundled table `{}` has {} iterations, catalog expects {}",
                table.name, table.n_iters, self.n_iters
            )));
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Insert a deterministic table (bundled as all-constant).
    pub fn insert_const(&mut self, table: &Table) {
        self.tables.insert(
            table.name().to_string(),
            BundledTable::from_table(table, self.n_iters),
        );
    }

    /// Look up a bundled table.
    pub fn get(&self, name: &str) -> crate::Result<&BundledTable> {
        self.tables
            .get(name)
            .ok_or_else(|| McdbError::UnknownTable {
                name: name.to_string(),
            })
    }
}

/// Execute a plan over tuple bundles — once, for all iterations.
///
/// Supported operators: `Scan`, `Values` (bundled as constant), `Filter`,
/// `Project`, `Join` (constant keys only), and `Aggregate`. `Sort`/`Limit`
/// are rejected: their row selection is iteration-dependent, which defeats
/// bundling (MCDB handles them after the Monte Carlo loop, and so should
/// callers here).
pub fn execute_bundled(plan: &Plan, catalog: &BundledCatalog) -> crate::Result<BundledTable> {
    let n = catalog.n_iters();
    match plan {
        Plan::Scan { table } => Ok(catalog.get(table)?.clone()),
        Plan::Values { table } => Ok(BundledTable::from_table(table, n)),
        Plan::Filter { input, predicate } => {
            let t = execute_bundled(input, catalog)?;
            let bound = predicate.bind(&t.schema)?;
            let mut rows = Vec::with_capacity(t.rows.len());
            for row in &t.rows {
                if bundle_is_const(&bound, row) {
                    // Constant predicate: decide the whole bundle at once.
                    let v = eval_at(&bound, row, 0)?;
                    if truthy(&v) {
                        rows.push(row.clone());
                    }
                } else {
                    let mut mask = Vec::with_capacity(n);
                    for i in 0..n {
                        mask.push(row.present.at(i) && truthy(&eval_at(&bound, row, i)?));
                    }
                    if mask.iter().any(|&b| b) {
                        rows.push(BundledRow {
                            values: row.values.clone(),
                            present: Presence::Mask(Arc::new(mask)),
                        });
                    }
                }
            }
            Ok(BundledTable {
                name: "filter".to_string(),
                schema: t.schema.clone(),
                n_iters: n,
                rows,
            })
        }
        Plan::Project { input, exprs } => {
            let t = execute_bundled(input, catalog)?;
            // Output schema: reuse ordinary inference against a throwaway
            // catalog holding the input schema shape.
            let out_schema = project_schema(exprs, &t.schema)?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(_, e)| e.bind(&t.schema))
                .collect::<crate::Result<_>>()?;
            let mut rows = Vec::with_capacity(t.rows.len());
            for row in &t.rows {
                let mut values = Vec::with_capacity(bound.len());
                for (be, col) in bound.iter().zip(out_schema.columns()) {
                    values.push(eval_bundled(be, row, n, col.dtype)?);
                }
                rows.push(BundledRow {
                    values,
                    present: row.present.clone(),
                });
            }
            Ok(BundledTable {
                name: "project".to_string(),
                schema: out_schema,
                n_iters: n,
                rows,
            })
        }
        Plan::Join {
            left,
            right,
            on,
            right_prefix,
        } => {
            let lt = execute_bundled(left, catalog)?;
            let rt = execute_bundled(right, catalog)?;
            if on.is_empty() {
                return Err(McdbError::invalid_plan("join requires key pairs"));
            }
            let l_idx: Vec<usize> = on
                .iter()
                .map(|(l, _)| lt.schema.index_of(l))
                .collect::<crate::Result<_>>()?;
            let r_idx: Vec<usize> = on
                .iter()
                .map(|(_, r)| rt.schema.index_of(r))
                .collect::<crate::Result<_>>()?;
            // Bundled joins require iteration-independent keys.
            for row in lt.rows.iter() {
                if l_idx.iter().any(|&j| !row.values[j].is_const()) {
                    return Err(McdbError::invalid_plan(
                        "bundled join requires constant join keys on the left input",
                    ));
                }
            }
            for row in rt.rows.iter() {
                if r_idx.iter().any(|&j| !row.values[j].is_const()) {
                    return Err(McdbError::invalid_plan(
                        "bundled join requires constant join keys on the right input",
                    ));
                }
            }
            let mut index: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::new();
            for (i, row) in rt.rows.iter().enumerate() {
                if r_idx.iter().any(|&j| row.values[j].at(0).is_null()) {
                    continue;
                }
                let key: Vec<GroupKey> = r_idx
                    .iter()
                    .map(|&j| row.values[j].at(0).group_key())
                    .collect();
                index.entry(key).or_default().push(i);
            }
            let out_schema = lt.schema.concat(&rt.schema, right_prefix)?;
            let mut rows = Vec::new();
            for lrow in &lt.rows {
                if l_idx.iter().any(|&j| lrow.values[j].at(0).is_null()) {
                    continue;
                }
                let key: Vec<GroupKey> = l_idx
                    .iter()
                    .map(|&j| lrow.values[j].at(0).group_key())
                    .collect();
                if let Some(matches) = index.get(&key) {
                    for &ri in matches {
                        let rrow = &rt.rows[ri];
                        let present = intersect(&lrow.present, &rrow.present, n);
                        if !present.any() {
                            continue;
                        }
                        let mut values = lrow.values.clone();
                        values.extend(rrow.values.iter().cloned());
                        rows.push(BundledRow { values, present });
                    }
                }
            }
            Ok(BundledTable {
                name: "join".to_string(),
                schema: out_schema,
                n_iters: n,
                rows,
            })
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let t = execute_bundled(input, catalog)?;
            let group_idx: Vec<usize> = group_by
                .iter()
                .map(|g| t.schema.index_of(g))
                .collect::<crate::Result<_>>()?;
            for row in &t.rows {
                if group_idx.iter().any(|&j| !row.values[j].is_const()) {
                    return Err(McdbError::invalid_plan(
                        "bundled group-by requires constant grouping columns",
                    ));
                }
            }
            let bound_args: Vec<Option<BoundExpr>> = aggs
                .iter()
                .map(|a| a.arg.as_ref().map(|e| e.bind(&t.schema)).transpose())
                .collect::<crate::Result<_>>()?;
            let out_schema = aggregate_schema(&t.schema, group_by, aggs)?;

            // Group bundles by constant keys.
            let mut groups: HashMap<Vec<GroupKey>, (Row, Vec<usize>)> = HashMap::new();
            let mut order: Vec<Vec<GroupKey>> = Vec::new();
            for (ri, row) in t.rows.iter().enumerate() {
                let key: Vec<GroupKey> = group_idx
                    .iter()
                    .map(|&j| row.values[j].at(0).group_key())
                    .collect();
                groups
                    .entry(key.clone())
                    .or_insert_with(|| {
                        order.push(key);
                        (
                            group_idx
                                .iter()
                                .map(|&j| row.values[j].at(0).clone())
                                .collect(),
                            Vec::new(),
                        )
                    })
                    .1
                    .push(ri);
            }
            let no_groups = groups.is_empty() && group_by.is_empty();
            let mut rows = Vec::new();
            let group_iter: Vec<(Row, Vec<usize>)> = if no_groups {
                vec![(Vec::new(), Vec::new())]
            } else {
                order
                    .into_iter()
                    .map(|k| groups.remove(&k).expect("recorded"))
                    .collect()
            };
            for (gvals, members) in group_iter {
                let mut agg_columns: Vec<Vec<Value>> = vec![Vec::with_capacity(n); aggs.len()];
                for i in 0..n {
                    for (a_idx, (spec, barg)) in aggs.iter().zip(&bound_args).enumerate() {
                        let mut state = AggState::new(spec.func);
                        for &ri in &members {
                            let row = &t.rows[ri];
                            if !row.present.at(i) {
                                continue;
                            }
                            let v = match barg {
                                Some(b) => Some(eval_at(b, row, i)?),
                                None => None,
                            };
                            state.update(v)?;
                        }
                        agg_columns[a_idx].push(state.finish());
                    }
                }
                let mut values: Vec<BundledValue> =
                    gvals.into_iter().map(BundledValue::Const).collect();
                for (col, schema_col) in agg_columns
                    .into_iter()
                    .zip(out_schema.columns().iter().skip(group_by.len()))
                {
                    let col: Vec<Value> = col
                        .into_iter()
                        .map(|v| coerce_value(v, schema_col.dtype))
                        .collect();
                    // Collapse to Const when every iteration agrees.
                    if col.windows(2).all(|w| {
                        w[0] == w[1] && !w[0].is_null() || (w[0].is_null() && w[1].is_null())
                    }) {
                        values.push(BundledValue::Const(col[0].clone()));
                    } else {
                        values.push(BundledValue::Varying(Arc::new(col)));
                    }
                }
                rows.push(BundledRow {
                    values,
                    present: Presence::All,
                });
            }
            Ok(BundledTable {
                name: "aggregate".to_string(),
                schema: out_schema,
                n_iters: n,
                rows,
            })
        }
        Plan::Sort { .. } | Plan::Limit { .. } => Err(McdbError::invalid_plan(
            "Sort/Limit are not bundle-executable; apply them per-iteration after instantiation",
        )),
    }
}

fn project_schema(exprs: &[(String, crate::expr::Expr)], input: &Schema) -> crate::Result<Schema> {
    let mut cols = Vec::with_capacity(exprs.len());
    for (name, e) in exprs {
        let dt = crate::query::infer_type(e, input)?.unwrap_or(crate::schema::DataType::Float);
        cols.push(crate::schema::Column::new(name.clone(), dt));
    }
    Schema::new(cols)
}

fn aggregate_schema(
    input: &Schema,
    group_by: &[String],
    aggs: &[crate::query::AggSpec],
) -> crate::Result<Schema> {
    let mut cols = Vec::new();
    for g in group_by {
        let i = input.index_of(g)?;
        cols.push(input.columns()[i].clone());
    }
    for a in aggs {
        let dt = match (a.func, &a.arg) {
            (AggFunc::Count, _) => crate::schema::DataType::Int,
            (_, None) => {
                return Err(McdbError::invalid_plan(format!(
                    "aggregate `{}` requires an argument",
                    a.name
                )))
            }
            (AggFunc::Avg, Some(_)) => crate::schema::DataType::Float,
            (AggFunc::Sum, Some(e)) | (AggFunc::Min, Some(e)) | (AggFunc::Max, Some(e)) => {
                crate::query::infer_type(e, input)?.unwrap_or(crate::schema::DataType::Float)
            }
        };
        cols.push(crate::schema::Column::new(a.name.clone(), dt));
    }
    Schema::new(cols)
}

fn coerce_value(v: Value, dtype: crate::schema::DataType) -> Value {
    match (&v, dtype) {
        (Value::Int(i), crate::schema::DataType::Float) => Value::Float(*i as f64),
        _ => v,
    }
}

/// Does this bound expression depend only on constant columns of the row?
fn bundle_is_const(e: &BoundExpr, row: &BundledRow) -> bool {
    match e {
        BoundExpr::Col(i) => row.values.get(*i).map(|v| v.is_const()).unwrap_or(true),
        BoundExpr::Lit(_) => true,
        BoundExpr::Binary { left, right, .. } => {
            bundle_is_const(left, row) && bundle_is_const(right, row)
        }
        BoundExpr::Unary { expr, .. } => bundle_is_const(expr, row),
        BoundExpr::Func { arg, .. } => bundle_is_const(arg, row),
    }
}

/// Evaluate a bound expression against iteration `i` of a bundled row.
fn eval_at(e: &BoundExpr, row: &BundledRow, i: usize) -> crate::Result<Value> {
    // Materialize lazily: only referenced columns are touched via Col eval,
    // so build a view row on demand. BoundExpr::eval needs a slice; for
    // simplicity materialize the full row (widths here are small).
    let materialized: Row = row.values.iter().map(|v| v.at(i).clone()).collect();
    e.eval(&materialized)
}

/// Bundle-space expression evaluation: once if constant, per-iteration
/// otherwise.
fn eval_bundled(
    e: &BoundExpr,
    row: &BundledRow,
    n: usize,
    dtype: crate::schema::DataType,
) -> crate::Result<BundledValue> {
    if bundle_is_const(e, row) {
        Ok(BundledValue::Const(coerce_value(
            eval_at(e, row, 0)?,
            dtype,
        )))
    } else {
        let mut vs = Vec::with_capacity(n);
        for i in 0..n {
            vs.push(coerce_value(eval_at(e, row, i)?, dtype));
        }
        Ok(BundledValue::Varying(Arc::new(vs)))
    }
}

fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn intersect(a: &Presence, b: &Presence, n: usize) -> Presence {
    match (a, b) {
        (Presence::All, Presence::All) => Presence::All,
        (Presence::All, m @ Presence::Mask(_)) | (m @ Presence::Mask(_), Presence::All) => {
            m.clone()
        }
        (Presence::Mask(x), Presence::Mask(y)) => {
            Presence::Mask(Arc::new((0..n).map(|i| x[i] && y[i]).collect()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::AggSpec;
    use crate::schema::DataType;
    use crate::vg::{BackwardWalkVg, NormalVg};
    use mde_numeric::rng::rng_from_seed;

    fn base_catalog() -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "ITEMS",
                &[("IID", DataType::Int), ("REGION", DataType::Str)],
            )
            .rows((0..10).map(|i| {
                vec![
                    Value::from(i),
                    Value::from(if i % 2 == 0 { "east" } else { "west" }),
                ]
            }))
            .finish()
            .unwrap(),
        );
        db.insert(
            Table::build(
                "PARAMS",
                &[("MEAN", DataType::Float), ("STD", DataType::Float)],
            )
            .row(vec![Value::from(10.0), Value::from(2.0)])
            .finish()
            .unwrap(),
        );
        db
    }

    fn sales_spec() -> RandomTableSpec {
        RandomTableSpec::builder("SALES")
            .for_each(Plan::scan("ITEMS"))
            .with_vg(std::sync::Arc::new(NormalVg))
            .vg_params_query(Plan::scan("PARAMS"))
            .select(&[
                ("IID", Expr::col("IID")),
                ("REGION", Expr::col("REGION")),
                ("AMT", Expr::col("VALUE")),
            ])
            .build()
            .unwrap()
    }

    fn bundled_catalog(n: usize, seed: u64) -> BundledCatalog {
        let db = base_catalog();
        let mut rng = rng_from_seed(seed);
        let bundled = BundledTable::from_spec(&sales_spec(), &db, n, &mut rng).unwrap();
        let mut bc = BundledCatalog::new(n);
        bc.insert(bundled).unwrap();
        bc.insert_const(db.get("ITEMS").unwrap());
        bc
    }

    /// The fundamental invariant: bundled execution instantiated at
    /// iteration i equals ordinary execution over inputs instantiated at i.
    fn assert_bundle_equiv(plan: &Plan, bc: &BundledCatalog) {
        let bundled_result = execute_bundled(plan, bc).unwrap();
        for i in 0..bc.n_iters() {
            // Instantiate every input table at iteration i.
            let mut cat = Catalog::new();
            for name in ["SALES", "ITEMS"] {
                if let Ok(bt) = bc.get(name) {
                    cat.insert(bt.instantiate(i).unwrap());
                }
            }
            let naive = cat.query_unoptimized(plan).unwrap();
            let inst = bundled_result.instantiate(i).unwrap();
            assert_eq!(
                inst.rows(),
                naive.rows(),
                "bundle/naive divergence at iteration {i} for {plan:?}"
            );
        }
    }

    #[test]
    fn bundled_scan_instantiates_correctly() {
        let bc = bundled_catalog(5, 1);
        let bt = bc.get("SALES").unwrap();
        assert_eq!(bt.n_iters(), 5);
        for i in 0..5 {
            let t = bt.instantiate(i).unwrap();
            assert_eq!(t.len(), 10);
        }
        // Different iterations differ in the random column.
        let a = bt.instantiate(0).unwrap().column_f64("AMT").unwrap();
        let b = bt.instantiate(1).unwrap().column_f64("AMT").unwrap();
        assert_ne!(a, b);
        // But share the deterministic columns.
        assert_eq!(
            bt.instantiate(0).unwrap().column("IID").unwrap(),
            bt.instantiate(1).unwrap().column("IID").unwrap()
        );
    }

    #[test]
    fn filter_on_const_column_keeps_whole_bundles() {
        let bc = bundled_catalog(4, 2);
        let plan = Plan::scan("SALES").filter(Expr::col("REGION").eq(Expr::lit("east")));
        let out = execute_bundled(&plan, &bc).unwrap();
        assert_eq!(out.rows().len(), 5);
        assert!(out.rows().iter().all(|r| r.present == Presence::All));
        assert_bundle_equiv(&plan, &bc);
    }

    #[test]
    fn filter_on_varying_column_masks() {
        let bc = bundled_catalog(8, 3);
        let plan = Plan::scan("SALES").filter(Expr::col("AMT").gt(Expr::lit(10.0)));
        let out = execute_bundled(&plan, &bc).unwrap();
        // Some bundle should be present in a strict subset of iterations.
        assert!(out
            .rows()
            .iter()
            .any(|r| matches!(&r.present, Presence::Mask(m) if m.iter().any(|&x| x) && !m.iter().all(|&x| x))));
        assert_bundle_equiv(&plan, &bc);
    }

    #[test]
    fn projection_mixes_const_and_varying() {
        let bc = bundled_catalog(6, 4);
        let plan = Plan::scan("SALES").project(&[
            ("IID2", Expr::col("IID").mul(Expr::lit(2))),
            ("AMT_TAXED", Expr::col("AMT").mul(Expr::lit(1.1))),
        ]);
        let out = execute_bundled(&plan, &bc).unwrap();
        assert!(out.rows()[0].values[0].is_const());
        assert!(!out.rows()[0].values[1].is_const());
        assert_bundle_equiv(&plan, &bc);
    }

    #[test]
    fn global_aggregate_yields_mc_sample() {
        let bc = bundled_catalog(50, 5);
        let plan = Plan::scan("SALES").aggregate(
            &[],
            vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("AMT"))],
        );
        let out = execute_bundled(&plan, &bc).unwrap();
        let samples = out.scalar_samples().unwrap();
        assert_eq!(samples.len(), 50);
        // True mean 100 (10 items × mean 10), std 2*sqrt(10) ≈ 6.3.
        let mean = samples.iter().sum::<f64>() / 50.0;
        assert!((mean - 100.0).abs() < 5.0, "mean {mean}");
        assert_bundle_equiv(&plan, &bc);
    }

    #[test]
    fn group_by_on_const_columns() {
        let bc = bundled_catalog(10, 6);
        let plan = Plan::scan("SALES").aggregate(
            &["REGION"],
            vec![
                AggSpec::count_star("N"),
                AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("AMT")),
            ],
        );
        let out = execute_bundled(&plan, &bc).unwrap();
        assert_eq!(out.rows().len(), 2);
        // COUNT is iteration-independent here and collapses to Const.
        assert!(out.rows()[0].values[1].is_const());
        assert!(!out.rows()[0].values[2].is_const());
        assert_bundle_equiv(&plan, &bc);
    }

    #[test]
    fn group_by_on_varying_column_rejected() {
        let bc = bundled_catalog(3, 7);
        let plan = Plan::scan("SALES").aggregate(&["AMT"], vec![AggSpec::count_star("N")]);
        assert!(execute_bundled(&plan, &bc).is_err());
    }

    #[test]
    fn join_on_const_keys() {
        let bc = bundled_catalog(6, 8);
        let plan = Plan::scan("SALES")
            .join(Plan::scan("ITEMS"), &[("IID", "IID")])
            .aggregate(
                &[],
                vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("AMT"))],
            );
        assert_bundle_equiv(&plan, &bc);
    }

    #[test]
    fn join_on_varying_keys_rejected() {
        let bc = bundled_catalog(3, 9);
        let plan = Plan::scan("SALES").join(Plan::scan("ITEMS"), &[("AMT", "IID")]);
        assert!(execute_bundled(&plan, &bc).is_err());
    }

    #[test]
    fn sort_and_limit_rejected() {
        let bc = bundled_catalog(3, 10);
        let plan = Plan::scan("SALES").limit(3);
        assert!(execute_bundled(&plan, &bc).is_err());
        let plan = Plan::scan("SALES").sort(vec![crate::query::SortKey::asc(Expr::col("AMT"))]);
        assert!(execute_bundled(&plan, &bc).is_err());
    }

    #[test]
    fn variable_cardinality_vg_uses_presence_masks() {
        let db = base_catalog();
        let spec = RandomTableSpec::builder("WALK")
            .for_each(Plan::scan("PARAMS"))
            .with_vg(std::sync::Arc::new(BackwardWalkVg))
            .vg_params_exprs(&[Expr::lit(100.0), Expr::lit(5.0), Expr::lit(3.0)])
            .select(&[("LAG", Expr::col("LAG")), ("PRICE", Expr::col("PRICE"))])
            .build()
            .unwrap();
        let mut rng = rng_from_seed(11);
        let bt = BundledTable::from_spec(&spec, &db, 4, &mut rng).unwrap();
        // 4 iterations x 3 lags = 12 single-iteration bundles.
        assert_eq!(bt.rows().len(), 12);
        for i in 0..4 {
            assert_eq!(bt.instantiate(i).unwrap().len(), 3);
        }
    }

    #[test]
    fn mismatched_iteration_counts_rejected() {
        let db = base_catalog();
        let mut rng = rng_from_seed(12);
        let bt = BundledTable::from_spec(&sales_spec(), &db, 3, &mut rng).unwrap();
        let mut bc = BundledCatalog::new(5);
        assert!(bc.insert(bt).is_err());
    }
}
