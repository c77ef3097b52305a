//! Stochastic ("random") table specifications.
//!
//! A [`RandomTableSpec`] is the engine's equivalent of MCDB's
//!
//! ```sql
//! CREATE TABLE SBP_DATA(PID, GENDER, SBP) AS
//!   FOR EACH p IN PATIENTS
//!   WITH SBP AS Normal((SELECT s.MEAN, s.STD FROM SBP_PARAM s))
//!   SELECT p.PID, p.GENDER, b.VALUE FROM SBP b
//! ```
//!
//! A realization walks the rows of the *driver* query (`FOR EACH`), invokes
//! the VG function once per driver row — parametrized by a SQL query over
//! the non-random tables and/or by expressions over the driver row — and
//! runs the `SELECT` projection, which sees the driver row's columns and
//! the VG output's columns side by side. It is columnar throughout:
//! parameters are evaluated over the driver batch, the VG gets the whole
//! batch of calls at once ([`VgFunction::generate_batch`]) and fills typed
//! columns, and the select list runs through the executor's projection
//! kernel.

use crate::expr::BoundExpr;
use crate::query::batch::Batch;
use crate::query::column::{ColumnVec, NullMask};
use crate::query::physical::{project_batch, PinCell};
use crate::query::{Catalog, Plan, PreparedQuery};
use crate::schema::{DataType, Schema};
use crate::table::{Row, Table};
use crate::value::Value;
use crate::vg::{VgColumns, VgFunction, VgParams};
use crate::{expr::Expr, McdbError};
use mde_numeric::rng::Rng;
use std::sync::Arc;

/// Specification of a stochastic table.
#[derive(Clone)]
pub struct RandomTableSpec {
    name: String,
    driver: Plan,
    vg: Arc<dyn VgFunction>,
    /// Parameter query evaluated once per realization over the catalog; its
    /// single row's values prefix the VG parameter list.
    params_query: Option<Plan>,
    /// Per-driver-row parameter expressions, appended after the query
    /// parameters.
    param_exprs: Vec<Expr>,
    /// `(output name, expression)` over driver ++ VG columns.
    select: Vec<(String, Expr)>,
}

/// Every field, the VG by [`VgFunction::name`]: this text is what
/// [`crate::mc::MonteCarloQuery`] hashes into a campaign's checkpoint
/// fingerprint and result-cache key, so anything left out of it is something
/// two different campaigns could share an answer across.
impl std::fmt::Debug for RandomTableSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Destructured without `..`: a new field does not compile until it
        // is printed here.
        let RandomTableSpec {
            name,
            driver,
            vg,
            params_query,
            param_exprs,
            select,
        } = self;
        f.debug_struct("RandomTableSpec")
            .field("name", name)
            .field("driver", driver)
            .field("vg", &vg.name())
            .field("params_query", params_query)
            .field("param_exprs", param_exprs)
            .field("select", select)
            .finish()
    }
}

impl RandomTableSpec {
    /// Start building a spec for a table with the given name.
    pub fn builder(name: impl Into<String>) -> RandomTableSpecBuilder {
        RandomTableSpecBuilder {
            name: name.into(),
            driver: None,
            vg: None,
            params_query: None,
            param_exprs: Vec::new(),
            select: Vec::new(),
        }
    }

    /// The table name this spec realizes.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Prepare this spec against a catalog snapshot: plan the driver and
    /// parameter queries once, bind every expression, and resolve the
    /// output schema. The result realizes any number of replicates without
    /// re-planning — the MCDB prepare-once / sample-per-replicate split.
    ///
    /// Tables the driver or parameter query scan must exist in `catalog`
    /// with their execution-time schemas (the Monte Carlo runners register
    /// empty placeholder tables for not-yet-realized stochastic inputs).
    pub fn prepare(&self, catalog: &Catalog) -> crate::Result<PreparedRandomTable> {
        let driver = PreparedQuery::prepare(&self.driver, catalog)?;
        let combined = driver.schema().concat(&self.vg.output_schema(), "vg")?;
        let mut cols = Vec::with_capacity(self.select.len());
        for (name, e) in &self.select {
            let dt = crate::query::infer_type(e, &combined)?.unwrap_or(DataType::Float);
            cols.push(crate::schema::Column::new(name.clone(), dt));
        }
        let out_schema = Schema::new(cols)?;
        let params_query = self
            .params_query
            .as_ref()
            .map(|q| PreparedQuery::prepare(q, catalog))
            .transpose()?;
        let bound_param_exprs = self
            .param_exprs
            .iter()
            .map(|e| e.bind(driver.schema()))
            .collect::<crate::Result<_>>()?;
        let bound_select: Vec<BoundExpr> = self
            .select
            .iter()
            .map(|(_, e)| e.bind(&combined))
            .collect::<crate::Result<_>>()?;
        let mut carried = vec![false; driver.schema().len()];
        for e in &bound_select {
            e.for_each_column(&mut |i| {
                if let Some(bound) = carried.get_mut(i) {
                    *bound = true;
                }
            });
        }
        Ok(PreparedRandomTable {
            name: self.name.clone(),
            vg: Arc::clone(&self.vg),
            driver,
            params_query,
            bound_param_exprs,
            bound_select,
            carried,
            combined,
            out_schema,
            pinned_inputs: None,
        })
    }

    /// Generate one realization of the stochastic table.
    ///
    /// Convenience wrapper that prepares and realizes in one step; loops
    /// should call [`RandomTableSpec::prepare`] once and realize the
    /// prepared form per replicate.
    pub fn realize(&self, catalog: &Catalog, rng: &mut Rng) -> crate::Result<Table> {
        self.prepare(catalog)?.realize(catalog, rng)
    }
}

/// A [`RandomTableSpec`] with its driver and parameter queries planned and
/// every expression bound, ready to realize once per replicate.
///
/// Planning, binding, and schema resolution happen exactly once, at
/// [`RandomTableSpec::prepare`] time. Through this public pair —
/// `prepare`, then [`PreparedRandomTable::realize`] against whatever
/// catalog the caller passes — the driver and parameter queries still
/// *execute* per realization, because nothing says the next catalog holds
/// the same tables. Inside a Monte Carlo run
/// ([`MonteCarloQuery`](crate::mc::MonteCarloQuery)) something does: every
/// replicate starts from the run's base catalog, so there each of the two
/// queries runs once per run unless it reads a table realized earlier in
/// the replicate — and where neither does, the parameter expressions are
/// evaluated once per run too.
#[derive(Clone)]
pub struct PreparedRandomTable {
    name: String,
    vg: Arc<dyn VgFunction>,
    driver: PreparedQuery,
    params_query: Option<PreparedQuery>,
    bound_param_exprs: Vec<BoundExpr>,
    bound_select: Vec<BoundExpr>,
    /// Per driver column: whether the select list binds it. The others
    /// never reach the projection.
    carried: Vec<bool>,
    /// Driver columns, then VG output columns: what the select list sees.
    combined: Schema,
    out_schema: Schema,
    /// Set by [`PreparedRandomTable::pin_invariant`] when the driver and
    /// parameter queries are wholly invariant: the realization inputs,
    /// computed by the first realization that gets through them and shared
    /// by every later one (and by every clone).
    pinned_inputs: Option<Arc<PinCell<RealizeInputs>>>,
}

/// What a realization computes before its first VG call: the driver batch,
/// the parameter query's one row, and the per-row parameter columns.
#[derive(Debug)]
pub(crate) struct RealizeInputs {
    driver: Arc<Batch>,
    base: Row,
    params: Vec<ColumnVec>,
}

impl RealizeInputs {
    /// Driver rows: the rows a realization has when every VG call emits one.
    pub(crate) fn rows(&self) -> usize {
        self.driver.len()
    }
}

/// The VG calls of one or more realizations of a stochastic table, drawn
/// one after another into the same columns, before the driver columns and
/// the select list meet them: one realization, or the lanes of a tuple
/// bundle.
pub(crate) struct Draws<'a> {
    spec: &'a PreparedRandomTable,
    inputs: &'a RealizeInputs,
    out: VgColumns<'a>,
    /// Output rows per realization.
    lanes: Vec<usize>,
}

impl<'a> Draws<'a> {
    pub(crate) fn new(spec: &'a PreparedRandomTable, inputs: &'a RealizeInputs) -> Draws<'a> {
        let driver = &inputs.driver;
        let vg_schema = &spec.combined.columns()[driver.schema().len()..];
        let mistyped = move |r: usize, vrow: &[Value], j: usize| {
            spec.mistyped_cell_error(&driver.row(r), vrow, j)
        };
        Draws {
            spec,
            inputs,
            out: VgColumns::new(spec.vg.name(), vg_schema, mistyped),
            lanes: Vec::new(),
        }
    }

    /// One more realization's VG calls — one per driver row, in driver
    /// order, all on `rng`. Returns the rows they emitted.
    pub(crate) fn draw(&mut self, rng: &mut Rng) -> crate::Result<usize> {
        let inputs = self.inputs;
        let params = VgParams::new(&inputs.base, &inputs.params, inputs.driver.len());
        let before = self.out.rows();
        self.spec.vg.generate_batch(&params, rng, &mut self.out)?;
        let rows = self.out.rows() - before;
        self.lanes.push(rows);
        Ok(rows)
    }

    /// The table the realizations make, one after the other: each output
    /// row joins its VG row to the driver row behind it, and the select list
    /// runs once over all of them. With `lane_schema` — the output schema
    /// plus one `Int` column — that column holds each row's realization: a
    /// tuple bundle.
    pub(crate) fn assemble(self, lane_schema: Option<&Schema>) -> crate::Result<Table> {
        let spec = self.spec;
        let driver = &self.inputs.driver;
        let (vg_cols, calls) = self.out.finish();
        let len = self.lanes.iter().sum();
        // The driver row behind each output row, where they are not the
        // driver's rows verbatim.
        let behind = match (calls, self.lanes.len()) {
            (Some(calls), _) => Some(calls),
            (None, 1) => None,
            (None, lanes) => {
                let mut rows = Vec::with_capacity(len);
                for _ in 0..lanes {
                    rows.extend(0..driver.len() as u32);
                }
                Some(rows)
            }
        };
        let mut columns: Vec<ColumnVec> = Vec::with_capacity(spec.combined.len());
        for (col, &carried) in driver.columns().iter().zip(&spec.carried) {
            columns.push(match (carried, &behind) {
                (false, _) => ColumnVec::AllNull { len },
                (true, None) => col.clone(),
                (true, Some(rows)) => col.gather(rows),
            });
        }
        columns.extend(vg_cols);
        let combined = Batch::from_columns(spec.combined.clone(), columns, len)?;
        let mut out = project_batch(combined, &spec.bound_select, &spec.out_schema)?;
        if let Some(schema) = lane_schema {
            let mut columns = out.into_columns();
            let mut lanes = Vec::with_capacity(len);
            for (lane, &rows) in self.lanes.iter().enumerate() {
                lanes.resize(lanes.len() + rows, lane as i64);
            }
            columns.push(ColumnVec::Int {
                data: lanes,
                nulls: NullMask::all_valid(len),
            });
            out = Batch::from_columns(schema.clone(), columns, len)?;
        }
        Ok(Table::from_batch(spec.name.clone(), Arc::new(out)))
    }
}

impl std::fmt::Debug for PreparedRandomTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedRandomTable")
            .field("name", &self.name)
            .field("vg", &self.vg.name())
            .field("out_schema", &self.out_schema)
            .finish_non_exhaustive()
    }
}

impl PreparedRandomTable {
    /// The table name this realizes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Output schema of a realization (resolved at prepare time).
    pub fn output_schema(&self) -> &Schema {
        &self.out_schema
    }

    /// Run the driver and parameter queries' sub-plans that scan none of
    /// the `volatile` tables once for every realization from here on (see
    /// `PreparedQuery::pin_invariant` for what the caller — the Monte Carlo
    /// prepare path, and nothing else — must guarantee). Where both queries
    /// are invariant whole, so are the parameter columns evaluated over the
    /// driver's result, and they are kept with it.
    pub(crate) fn pin_invariant(&mut self, volatile: &[&str]) {
        let driver = self.driver.pin_invariant(volatile);
        let params = self
            .params_query
            .as_mut()
            .is_none_or(|q| q.pin_invariant(volatile));
        if driver && params {
            self.pinned_inputs = Some(Arc::default());
        }
    }

    /// Generate one realization using the prepared plans — the engine's one
    /// generator.
    ///
    /// RNG consumption is the contract every sample bit rests on: one VG
    /// invocation per driver row, in driver order, all on `rng`.
    ///
    /// The work is columnar: the parameter expressions are evaluated over
    /// the whole driver batch, the VG takes the batch of calls in one
    /// [`VgFunction::generate_batch`] and fills columns typed as it
    /// declares them (`NULL` is admitted anywhere, an `Int` cell widens
    /// into a `Float` column), the driver columns the select list binds
    /// are repeated once per row their VG call emitted, and the select list
    /// runs through the executor's projection kernel. A realization with
    /// one bad cell fails with the error a row-at-a-time evaluation raises
    /// for that cell (which lets through two things that are typed errors
    /// here: a VG row wider or narrower than the VG's schema, and a
    /// mistyped cell that no select expression reads). With several, the
    /// first in this order wins: parameter expressions (in order, each
    /// at its first failing driver row), VG calls in driver order (the
    /// parameter count, the call's own error, the shape and types of the
    /// rows it returned), then select columns in order, each at its first
    /// invalid lane.
    pub fn realize(&self, catalog: &Catalog, rng: &mut Rng) -> crate::Result<Table> {
        let computed;
        let inputs = match self.kept_inputs(catalog) {
            Some(kept) => kept?,
            None => {
                computed = self.inputs(catalog)?;
                &computed
            }
        };
        let mut draws = Draws::new(self, inputs);
        draws.draw(rng)?;
        draws.assemble(None)
    }

    /// Whether [`PreparedRandomTable::pin_invariant`] found the driver and
    /// parameter queries wholly invariant, so a run keeps their results.
    pub(crate) fn keeps_inputs(&self) -> bool {
        self.pinned_inputs.is_some()
    }

    /// The realization inputs a Monte Carlo run keeps, computed by the first
    /// realization that gets through them; `None` unless
    /// [`PreparedRandomTable::pin_invariant`] found both queries wholly
    /// invariant.
    pub(crate) fn kept_inputs(&self, catalog: &Catalog) -> Option<crate::Result<&RealizeInputs>> {
        let cell = self.pinned_inputs.as_ref()?;
        Some(cell.get_or_try_fill(|| self.inputs(catalog)))
    }

    /// The driver batch, the parameter query's row and the parameter
    /// columns, each step's error first.
    fn inputs(&self, catalog: &Catalog) -> crate::Result<RealizeInputs> {
        let driver = self.driver.execute(catalog)?.batch();
        let base = self.base_params(catalog)?;
        let params = self
            .bound_param_exprs
            .iter()
            .map(|e| e.eval_batch(&driver, None))
            .collect::<crate::Result<_>>()?;
        Ok(RealizeInputs {
            driver,
            base,
            params,
        })
    }

    /// The parameter query's one row: the values that prefix every VG
    /// call's parameter list.
    fn base_params(&self, catalog: &Catalog) -> crate::Result<Row> {
        let Some(q) = &self.params_query else {
            return Ok(Vec::new());
        };
        let t = q.execute(catalog)?;
        if t.len() != 1 {
            return Err(McdbError::invalid_plan(format!(
                "VG parameter query for `{}` must return exactly one row, got {}",
                self.name,
                t.len()
            )));
        }
        Ok(t.batch().row(0))
    }

    /// The error for a VG row whose cell `j` is not of its declared type:
    /// whatever evaluating the select list over that one row, cell by cell,
    /// makes of it — the failing expression, or the output column the cell
    /// was headed for — and the VG's own column where the select list never
    /// looks at the cell.
    fn mistyped_cell_error(&self, drow: &[Value], vrow: &[Value], j: usize) -> McdbError {
        let crow: Row = drow.iter().chain(vrow).cloned().collect();
        let orow: crate::Result<Row> = self
            .bound_select
            .iter()
            .zip(self.out_schema.columns())
            .map(|(be, col)| {
                Ok(match (be.eval(&crow)?, col.dtype) {
                    (Value::Int(i), DataType::Float) => Value::Float(i as f64),
                    (v, _) => v,
                })
            })
            .collect();
        match orow.and_then(|orow| self.out_schema.validate_row(&orow)) {
            Err(e) => e,
            Ok(()) => {
                let declared = &self.combined.columns()[drow.len() + j];
                McdbError::type_mismatch(
                    format!(
                        "VG function `{}` column `{}`",
                        self.vg.name(),
                        declared.name
                    ),
                    declared.dtype.to_string(),
                    format!("{}", vrow[j]),
                )
            }
        }
    }

    /// The generator as it was before it went columnar — one output row at
    /// a time through `Value`s and `push_row` — kept verbatim as the oracle
    /// the columnar [`PreparedRandomTable::realize`] is tested against.
    #[cfg(test)]
    fn realize_rowwise(&self, catalog: &Catalog, rng: &mut Rng) -> crate::Result<Table> {
        let driver_table = self.driver.execute(catalog)?;
        let base_params = match &self.params_query {
            None => Vec::new(),
            Some(q) => {
                let t = q.execute(catalog)?;
                if t.len() != 1 {
                    return Err(McdbError::invalid_plan(format!(
                        "VG parameter query for `{}` must return exactly one row, got {}",
                        self.name,
                        t.len()
                    )));
                }
                t.rows()[0].clone()
            }
        };

        let mut out = Table::new(self.name.clone(), self.out_schema.clone());
        for drow in driver_table.rows() {
            let mut params = base_params.clone();
            for be in &self.bound_param_exprs {
                params.push(be.eval(drow)?);
            }
            self.vg.check_arity(&params)?;
            for vrow in self.vg.generate(&params, rng)? {
                let mut crow: Row = Vec::with_capacity(self.combined.len());
                crow.extend(drow.iter().cloned());
                crow.extend(vrow);
                let mut orow = Vec::with_capacity(self.bound_select.len());
                for (be, col) in self.bound_select.iter().zip(self.out_schema.columns()) {
                    let v = be.eval(&crow)?;
                    let v = match (&v, col.dtype) {
                        (Value::Int(i), crate::schema::DataType::Float) => Value::Float(*i as f64),
                        _ => v,
                    };
                    orow.push(v);
                }
                out.push_row(orow)?;
            }
        }
        Ok(out)
    }
}

/// Builder for [`RandomTableSpec`].
pub struct RandomTableSpecBuilder {
    name: String,
    driver: Option<Plan>,
    vg: Option<Arc<dyn VgFunction>>,
    params_query: Option<Plan>,
    param_exprs: Vec<Expr>,
    select: Vec<(String, Expr)>,
}

impl RandomTableSpecBuilder {
    /// The `FOR EACH` driver query.
    pub fn for_each(mut self, driver: Plan) -> Self {
        self.driver = Some(driver);
        self
    }

    /// The VG function.
    pub fn with_vg(mut self, vg: Arc<dyn VgFunction>) -> Self {
        self.vg = Some(vg);
        self
    }

    /// Parameter query (evaluated once per realization; must yield one row
    /// whose values prefix the VG parameter list).
    pub fn vg_params_query(mut self, q: Plan) -> Self {
        self.params_query = Some(q);
        self
    }

    /// Per-driver-row parameter expressions (appended after the query
    /// parameters).
    pub fn vg_params_exprs(mut self, exprs: &[Expr]) -> Self {
        self.param_exprs = exprs.to_vec();
        self
    }

    /// The output projection over driver ++ VG columns.
    pub fn select(mut self, exprs: &[(&str, Expr)]) -> Self {
        self.select = exprs
            .iter()
            .map(|(n, e)| (n.to_string(), e.clone()))
            .collect();
        self
    }

    /// Validate and build the spec.
    pub fn build(self) -> crate::Result<RandomTableSpec> {
        let driver = self
            .driver
            .ok_or_else(|| McdbError::invalid_plan("random table needs a FOR EACH driver"))?;
        let vg = self
            .vg
            .ok_or_else(|| McdbError::invalid_plan("random table needs a VG function"))?;
        if self.select.is_empty() {
            return Err(McdbError::invalid_plan(
                "random table needs a SELECT projection",
            ));
        }
        Ok(RandomTableSpec {
            name: self.name,
            driver,
            vg,
            params_query: self.params_query,
            param_exprs: self.param_exprs,
            select: self.select,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarFunc;
    use crate::vg::{
        BackwardWalkVg, BayesianDemandVg, BernoulliVg, BetaVg, DiscreteChoiceVg, ExponentialVg,
        NormalVg, PoissonVg, StockOptionVg, UniformVg,
    };
    use mde_numeric::rng::{for_cases, rng_from_seed};

    // ---- columnar `realize` against the row-wise oracle -------------------

    /// Cell by cell and strictly: same variant, floats by bit pattern
    /// (`Value`'s own equality would let `Int(1)` pass for `Float(1.0)`).
    fn same_cells(a: &Table, b: &Table) -> bool {
        let (x, y) = (a.batch(), b.batch());
        a.name() == b.name()
            && a.schema() == b.schema()
            && a.len() == b.len()
            && x.columns().iter().zip(y.columns()).all(|(c, d)| {
                (0..x.len()).all(|i| match (c.value(i), d.value(i)) {
                    (Value::Null, Value::Null) => true,
                    (Value::Int(p), Value::Int(q)) => p == q,
                    (Value::Float(p), Value::Float(q)) => p.to_bits() == q.to_bits(),
                    (Value::Bool(p), Value::Bool(q)) => p == q,
                    (Value::Str(p), Value::Str(q)) => p == q,
                    _ => false,
                })
            })
    }

    /// Realize `spec` both ways from the same generator state: the same
    /// table or the same error, and — where both succeed — the generator
    /// left in the same state. Returns the columnar outcome.
    fn realize_both_ways(spec: &RandomTableSpec, db: &Catalog, seed: u64) -> crate::Result<Table> {
        let prepared = spec.prepare(db).unwrap();
        let (mut a, mut b) = (rng_from_seed(seed), rng_from_seed(seed));
        let columnar = prepared.realize(db, &mut a);
        let oracle = prepared.realize_rowwise(db, &mut b);
        match (&columnar, &oracle) {
            (Ok(t), Ok(want)) => {
                assert!(
                    same_cells(t, want),
                    "{spec:?}:\n{t}\nvs the oracle's\n{want}"
                );
                assert_eq!(
                    a.gen::<u64>(),
                    b.gen::<u64>(),
                    "generator state after {spec:?}"
                );
            }
            (Err(e), Err(want)) => assert_eq!(e, want, "{spec:?}"),
            (got, want) => panic!("{spec:?}: columnar {got:?}, oracle {want:?}"),
        }
        columnar
    }

    /// `DRIVER(ID, X, W, STEPS, S)`: an `Int` key, a positive `Float` and a
    /// positive `Int` to parametrize with, a step count in `0..4` (so a
    /// `BackwardWalk` call emits zero to three rows), and a `Str`; `X` and
    /// `S` are `NULL` where `null_at` says so. `MODEL` is a one-row
    /// parameter table.
    fn driver_catalog(n: usize, null_at: impl Fn(usize) -> bool) -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "DRIVER",
                &[
                    ("ID", DataType::Int),
                    ("X", DataType::Float),
                    ("W", DataType::Int),
                    ("STEPS", DataType::Int),
                    ("S", DataType::Str),
                ],
            )
            .rows((0..n).map(|i| {
                let nullable = |v: Value| if null_at(i) { Value::Null } else { v };
                vec![
                    Value::from(i as i64),
                    nullable(Value::from(0.5 + i as f64 * 0.25)),
                    Value::from(1 + (i % 5) as i64),
                    Value::from((i % 4) as i64),
                    nullable(Value::from(["a", "b", "c"][i % 3])),
                ]
            }))
            .finish()
            .unwrap(),
        );
        db.insert(
            Table::build("MODEL", &[("A", DataType::Float), ("B", DataType::Float)])
                .row(vec![Value::from(2.0), Value::from(1.5)])
                .finish()
                .unwrap(),
        );
        db
    }

    /// The ten library VGs, each with its parameters drawn from a query,
    /// from expressions over the driver row (`Int` columns among them), or
    /// from both.
    fn library_specs() -> Vec<RandomTableSpecBuilder> {
        let spec = |vg: Arc<dyn VgFunction>| {
            RandomTableSpec::builder("OUT")
                .for_each(Plan::scan("DRIVER"))
                .with_vg(vg)
        };
        let (w, id) = (|| Expr::col("W"), || Expr::col("ID"));
        vec![
            spec(Arc::new(NormalVg)).vg_params_query(Plan::scan("MODEL")),
            spec(Arc::new(NormalVg))
                .vg_params_query(Plan::scan("MODEL").project(&[("A", Expr::col("A"))]))
                .vg_params_exprs(&[w().mul(Expr::lit(0.5))]),
            spec(Arc::new(UniformVg)).vg_params_exprs(&[id(), id().add(w())]),
            spec(Arc::new(PoissonVg)).vg_params_exprs(&[w()]),
            spec(Arc::new(DiscreteChoiceVg::new(&["lo", "mid", "hi"]))).vg_params_exprs(&[
                Expr::lit(1.0),
                w(),
                Expr::lit(2),
            ]),
            spec(Arc::new(BackwardWalkVg)).vg_params_exprs(&[
                Expr::lit(100.0),
                w(),
                Expr::col("STEPS"),
            ]),
            spec(Arc::new(StockOptionVg)).vg_params_exprs(&[
                Expr::lit(100.0),
                Expr::lit(95.0),
                Expr::lit(0.05),
                Expr::lit(0.2),
                w(),
            ]),
            spec(Arc::new(BayesianDemandVg))
                .vg_params_query(Plan::scan("MODEL"))
                .vg_params_exprs(&[w(), id(), Expr::lit(10.5), Expr::lit(10.0), Expr::lit(2.0)]),
            spec(Arc::new(ExponentialVg)).vg_params_exprs(&[w()]),
            spec(Arc::new(BetaVg))
                .vg_params_query(Plan::scan("MODEL"))
                .vg_params_exprs(&[]),
            spec(Arc::new(BernoulliVg)).vg_params_exprs(&[Expr::lit(1.0).div(w())]),
        ]
    }

    /// Select lists over driver ++ VG columns, by what they exercise.
    fn select_list(variant: u8, vg_cols: &[String]) -> Vec<(&'static str, Expr)> {
        let value = || Expr::col(vg_cols.last().unwrap().as_str());
        match variant % 4 {
            // Every driver column carried (NULL and `Str` cells among them).
            0 => vec![
                ("ID", Expr::col("ID")),
                ("X", Expr::col("X")),
                ("S", Expr::col("S")),
                ("FIRST", Expr::col(vg_cols[0].as_str())),
                ("V", value()),
            ],
            // Expressions spanning both sides; on a `Str`-valued VG the
            // arithmetic is a type error both generators must agree on.
            1 => vec![
                ("MIXED", value().mul(Expr::lit(2)).add(Expr::col("ID"))),
                ("HALF", Expr::col("W").div(Expr::lit(2))),
                ("MISSING", Expr::col("X").is_null()),
            ],
            // No driver column bound.
            2 => vec![("V", value())],
            // A constant, an untyped NULL, and a function of a carried column.
            _ => vec![
                ("ONE", Expr::lit(1)),
                ("NOTHING", Expr::lit(Value::Null)),
                ("ROOT", Expr::col("X").func(ScalarFunc::Sqrt)),
                ("V", value()),
            ],
        }
    }

    #[test]
    fn columnar_realize_equals_the_rowwise_oracle_over_the_vg_library() {
        let mut rows_compared = vec![0; library_specs().len()];
        for_cases(32, |rng| {
            let n = rng.gen_range(0usize..40);
            let null_every = rng.gen_range(2usize..6);
            let variant = rng.gen_range(0u8..4);
            let seed = rng.gen_range(0u64..1000);
            let db = driver_catalog(n, |i| i % null_every == 0);
            for (builder, rows) in library_specs().into_iter().zip(&mut rows_compared) {
                let vg_cols = builder.vg.as_ref().unwrap().output_schema().names();
                let spec = builder
                    .select(&select_list(variant, &vg_cols))
                    .build()
                    .unwrap();
                if let Ok(t) = realize_both_ways(&spec, &db, seed) {
                    *rows += t.len();
                }
            }
        });
        // Every spec realized (not merely failed alike) on some case.
        assert!(
            rows_compared.iter().all(|&rows| rows > 100),
            "{rows_compared:?}"
        );
    }

    #[test]
    fn columnar_realize_equals_the_oracle_on_empty_and_null_inputs() {
        let walk = |steps: Expr| {
            RandomTableSpec::builder("WALK")
                .for_each(Plan::scan("DRIVER"))
                .with_vg(Arc::new(BackwardWalkVg))
                .vg_params_exprs(&[Expr::col("X"), Expr::lit(1.0), steps])
                .select(&[
                    ("ID", Expr::col("ID")),
                    ("S", Expr::col("S")),
                    ("LAG", Expr::col("LAG")),
                    ("PRICE", Expr::col("PRICE")),
                ])
                .build()
                .unwrap()
        };
        // Zero driver rows: no VG call, no expression evaluated.
        let empty = driver_catalog(0, |_| false);
        let t = realize_both_ways(&walk(Expr::col("STEPS")), &empty, 1).unwrap();
        assert_eq!((t.len(), t.schema().len()), (0, 4));
        // Driver rows, but every VG call emits zero rows.
        let db = driver_catalog(9, |_| false);
        assert!(realize_both_ways(&walk(Expr::lit(0)), &db, 2)
            .unwrap()
            .is_empty());
        // Variable cardinality: 0, 1, 2, 3, 0, 1, 2, 3, 0 rows per driver row.
        let t = realize_both_ways(&walk(Expr::col("STEPS")), &db, 3).unwrap();
        assert_eq!(t.len(), 2 * (1 + 2 + 3));
        // A NULL reaching the VG as a parameter is the VG's typed error.
        let db = driver_catalog(9, |i| i == 4);
        assert!(realize_both_ways(&walk(Expr::col("STEPS")), &db, 4).is_err());
        // A parameter query with no row, or two.
        for rows in [0, 2] {
            let spec = RandomTableSpec::builder("BAD")
                .for_each(Plan::scan("DRIVER"))
                .with_vg(Arc::new(NormalVg))
                .vg_params_query(Plan::scan("DRIVER").limit(rows))
                .select(&[("V", Expr::col("VALUE"))])
                .build()
                .unwrap();
            assert!(realize_both_ways(&spec, &db, 5).is_err());
        }
    }

    /// `Probe(x)` → one row `(VALUE: Float, TAG: Int)` (`NULL` counts as 1),
    /// misbehaving on chosen parameter values: a typed error, a NaN, a `Str` cell where it
    /// declared `Float`, an `Int` cell there (which widens), a short row.
    #[derive(Debug)]
    struct ProbeVg;

    impl VgFunction for ProbeVg {
        fn name(&self) -> &str {
            "Probe"
        }
        fn output_schema(&self) -> Schema {
            Schema::from_pairs(&[("VALUE", DataType::Float), ("TAG", DataType::Int)]).unwrap()
        }
        fn arity(&self) -> Option<usize> {
            Some(1)
        }
        fn generate(&self, params: &[Value], rng: &mut Rng) -> crate::Result<Vec<Row>> {
            let x = match &params[0] {
                Value::Null => 1,
                p => p.as_i64()?,
            };
            let draw: f64 = rng.gen();
            let value = match x {
                -1 => return Err(McdbError::invalid_plan("probe refused its parameter")),
                -2 => Value::Float(f64::NAN),
                -3 => Value::from("not a number"),
                -4 => return Ok(vec![vec![Value::Float(draw)]]),
                x if x % 2 == 0 => Value::Int(x),
                _ => Value::Float(draw),
            };
            Ok(vec![vec![value, Value::Int(x)]])
        }
    }

    /// `DRIVER(P, S)` of `n` rows with `P = i`, except `P = poison` at row
    /// `at`, where alone `S` is not NULL.
    fn probe_catalog(n: usize, at: usize, poison: i64) -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build("DRIVER", &[("P", DataType::Int), ("S", DataType::Str)])
                .rows((0..n).map(|i| {
                    if i == at {
                        vec![Value::from(poison), Value::from("here")]
                    } else {
                        vec![Value::from(i as i64), Value::Null]
                    }
                }))
                .finish()
                .unwrap(),
        );
        db
    }

    fn probe_spec(params: &[Expr], select: &[(&str, Expr)]) -> RandomTableSpec {
        RandomTableSpec::builder("OUT")
            .for_each(Plan::scan("DRIVER"))
            .with_vg(Arc::new(ProbeVg))
            .vg_params_exprs(params)
            .select(select)
            .build()
            .unwrap()
    }

    #[test]
    fn one_failing_cell_fails_with_the_oracles_error() {
        let pass = [("P", Expr::col("P")), ("V", Expr::col("VALUE"))];
        let arith = [(
            "V2",
            Expr::col("VALUE").mul(Expr::lit(2)).add(Expr::col("P")),
        )];
        let p = [Expr::col("P")];
        for_cases(16, |rng| {
            let n = rng.gen_range(1usize..30);
            let at = rng.gen_range(0..n);
            let seed = rng.gen_range(0u64..1000);
            // Nothing fails: `Int` cells in the `Float` column widen, in a
            // carried column and under arithmetic alike.
            let clean = probe_catalog(n, at, 1);
            for select in [&pass[..], &arith[..]] {
                let t = realize_both_ways(&probe_spec(&p, select), &clean, seed).unwrap();
                assert_eq!(t.len(), n);
            }
            // The VG's own error at row `at`.
            let e = realize_both_ways(&probe_spec(&p, &pass), &probe_catalog(n, at, -1), seed)
                .unwrap_err();
            assert!(e.to_string().contains("probe refused"), "{e}");
            // A NaN, carried into a `Float` output column.
            let e = realize_both_ways(&probe_spec(&p, &pass), &probe_catalog(n, at, -2), seed)
                .unwrap_err();
            assert!(e.to_string().contains("NaN"), "{e}");
            // A `Str` cell in the `Float` column: the output column it was
            // carried into, or the arithmetic that met it.
            let mistyped = probe_catalog(n, at, -3);
            let e = realize_both_ways(&probe_spec(&p, &pass), &mistyped, seed).unwrap_err();
            assert!(e.to_string().contains("column `V`"), "{e}");
            realize_both_ways(&probe_spec(&p, &arith), &mistyped, seed).unwrap_err();
            // A select expression failing on the one row where `S` is set,
            // and a parameter expression doing the same.
            let cmp = Expr::col("S").lt(Expr::lit(1));
            let select = [("V", Expr::col("VALUE")), ("BAD", cmp.clone())];
            realize_both_ways(&probe_spec(&p, &select), &clean, seed).unwrap_err();
            realize_both_ways(&probe_spec(&[cmp], &pass), &clean, seed).unwrap_err();
            // Wrong parameter count.
            let e = realize_both_ways(&probe_spec(&[], &pass), &clean, seed).unwrap_err();
            assert!(matches!(e, McdbError::ArityMismatch { .. }), "{e}");
        });
    }

    #[test]
    fn several_failing_cells_resolve_in_the_documented_order() {
        let db = probe_catalog(10, 6, -1);
        let prepared = |params: &[Expr], select: &[(&str, Expr)]| {
            probe_spec(params, select).prepare(&db).unwrap()
        };
        // Row 2 fails in the select list (`1 / 0` is NULL, not an error, so
        // compare a string), row 6 in the VG: VG calls come first here, the
        // earlier row first in the oracle.
        let cmp = Expr::lit("x").lt(Expr::col("P"));
        let p = prepared(
            &[Expr::col("P")],
            &[("V", Expr::col("VALUE")), ("BAD", cmp)],
        );
        let columnar = p.realize(&db, &mut rng_from_seed(1)).unwrap_err();
        assert!(columnar.to_string().contains("probe refused"), "{columnar}");
        let oracle = p.realize_rowwise(&db, &mut rng_from_seed(1)).unwrap_err();
        assert_ne!(columnar, oracle);
        // Two failing select columns: the first column wins, whatever the
        // rows — as `PhysOp::Project` resolves it.
        let clean = probe_catalog(10, 0, 1);
        let late = Expr::col("S").lt(Expr::lit(1)); // fails at row 0 only
        let early = Expr::lit("x").lt(Expr::col("P")); // fails at every row
        let p = probe_spec(
            &[Expr::col("P")],
            &[("A", early.clone()), ("B", late.clone())],
        )
        .prepare(&clean)
        .unwrap();
        let first = p.realize(&clean, &mut rng_from_seed(1)).unwrap_err();
        let p = probe_spec(&[Expr::col("P")], &[("A", early)])
            .prepare(&clean)
            .unwrap();
        assert_eq!(first, p.realize(&clean, &mut rng_from_seed(1)).unwrap_err());
        // A cell of the wrong type that the select list never looks at, and
        // a row of the wrong shape: typed errors naming the VG.
        let tag_only = [("T", Expr::col("TAG"))];
        for (poison, needle) in [
            (-3, "VG function `Probe` column `VALUE`"),
            (-4, "output row"),
        ] {
            let db = probe_catalog(10, 6, poison);
            let e = probe_spec(&[Expr::col("P")], &tag_only)
                .prepare(&db)
                .unwrap()
                .realize(&db, &mut rng_from_seed(1))
                .unwrap_err();
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    // ---- behaviour ---------------------------------------------------------

    fn patients_catalog() -> Catalog {
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "PATIENTS",
                &[("PID", DataType::Int), ("GENDER", DataType::Str)],
            )
            .row(vec![Value::from(1), Value::from("F")])
            .row(vec![Value::from(2), Value::from("M")])
            .row(vec![Value::from(3), Value::from("F")])
            .finish()
            .unwrap(),
        );
        db.insert(
            Table::build(
                "SBP_PARAM",
                &[("MEAN", DataType::Float), ("STD", DataType::Float)],
            )
            .row(vec![Value::from(120.0), Value::from(15.0)])
            .finish()
            .unwrap(),
        );
        db
    }

    fn sbp_spec() -> RandomTableSpec {
        RandomTableSpec::builder("SBP_DATA")
            .for_each(Plan::scan("PATIENTS"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_query(Plan::scan("SBP_PARAM"))
            .select(&[
                ("PID", Expr::col("PID")),
                ("GENDER", Expr::col("GENDER")),
                ("SBP", Expr::col("VALUE")),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn sbp_example_realizes_per_patient() {
        let db = patients_catalog();
        let spec = sbp_spec();
        let mut rng = rng_from_seed(42);
        let t = spec.realize(&db, &mut rng).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.schema().names(), vec!["PID", "GENDER", "SBP"]);
        // SBP values are plausible normal draws around 120.
        for v in t.column_f64("SBP").unwrap() {
            assert!((30.0..=210.0).contains(&v), "implausible SBP {v}");
        }
    }

    #[test]
    fn realizations_differ_across_rng_states_but_reproduce_with_seed() {
        let db = patients_catalog();
        let spec = sbp_spec();
        let t1 = spec.realize(&db, &mut rng_from_seed(1)).unwrap();
        let t2 = spec.realize(&db, &mut rng_from_seed(1)).unwrap();
        let t3 = spec.realize(&db, &mut rng_from_seed(2)).unwrap();
        assert_eq!(t1.rows(), t2.rows(), "same seed must reproduce");
        assert_ne!(t1.rows(), t3.rows(), "different seeds must differ");
    }

    #[test]
    fn per_row_params_feed_the_vg() {
        // Each row's lambda comes from its own column.
        let mut db = Catalog::new();
        db.insert(
            Table::build("CUST", &[("CID", DataType::Int), ("RATE", DataType::Float)])
                .row(vec![Value::from(1), Value::from(1.0)])
                .row(vec![Value::from(2), Value::from(50.0)])
                .finish()
                .unwrap(),
        );
        let spec = RandomTableSpec::builder("DEMAND")
            .for_each(Plan::scan("CUST"))
            .with_vg(Arc::new(PoissonVg))
            .vg_params_exprs(&[Expr::col("RATE")])
            .select(&[("CID", Expr::col("CID")), ("D", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let mut rng = rng_from_seed(5);
        // Average a few realizations: customer 2 must dominate customer 1.
        let (mut d1, mut d2) = (0.0, 0.0);
        for _ in 0..50 {
            let t = spec.realize(&db, &mut rng).unwrap();
            d1 += t.rows()[0][1].as_i64().unwrap() as f64;
            d2 += t.rows()[1][1].as_i64().unwrap() as f64;
        }
        assert!(d2 > d1 * 5.0, "demand means: {d1} vs {d2}");
    }

    #[test]
    fn combined_projection_uses_driver_and_vg_columns() {
        let db = patients_catalog();
        // Select an arithmetic combination spanning both sides.
        let spec = RandomTableSpec::builder("X")
            .for_each(Plan::scan("PATIENTS"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_query(Plan::scan("SBP_PARAM"))
            .select(&[(
                "SHIFTED",
                Expr::col("VALUE").add(Expr::col("PID").mul(Expr::lit(1000))),
            )])
            .build()
            .unwrap();
        let t = spec.realize(&db, &mut rng_from_seed(3)).unwrap();
        for (i, row) in t.rows().iter().enumerate() {
            let v = row[0].as_f64().unwrap();
            let expected_band = (i as f64 + 1.0) * 1000.0;
            assert!(
                (v - expected_band).abs() < 500.0,
                "row {i} out of band: {v}"
            );
        }
    }

    #[test]
    fn multi_row_param_query_rejected() {
        let db = patients_catalog();
        let spec = RandomTableSpec::builder("BAD")
            .for_each(Plan::scan("PATIENTS"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_query(Plan::scan("PATIENTS")) // 3 rows: invalid
            .select(&[("V", Expr::col("VALUE"))])
            .build()
            .unwrap();
        assert!(spec.realize(&db, &mut rng_from_seed(1)).is_err());
    }

    #[test]
    fn builder_validation() {
        assert!(RandomTableSpec::builder("X").build().is_err());
        assert!(RandomTableSpec::builder("X")
            .for_each(Plan::scan("T"))
            .build()
            .is_err());
        assert!(RandomTableSpec::builder("X")
            .for_each(Plan::scan("T"))
            .with_vg(Arc::new(NormalVg))
            .build()
            .is_err());
    }

    #[test]
    fn bayesian_demand_end_to_end() {
        // The paper's demand scenario: global model params + per-customer
        // history, asking demand under a 5% price increase.
        let mut db = Catalog::new();
        db.insert(
            Table::build(
                "CUSTOMERS",
                &[
                    ("CID", DataType::Int),
                    ("HIST_PERIODS", DataType::Float),
                    ("HIST_UNITS", DataType::Float),
                ],
            )
            .row(vec![Value::from(1), Value::from(10.0), Value::from(20.0)])
            .row(vec![Value::from(2), Value::from(10.0), Value::from(80.0)])
            .finish()
            .unwrap(),
        );
        db.insert(
            Table::build(
                "DEMAND_MODEL",
                &[("ALPHA", DataType::Float), ("BETA", DataType::Float)],
            )
            .row(vec![Value::from(2.0), Value::from(1.0)])
            .finish()
            .unwrap(),
        );
        let spec = RandomTableSpec::builder("DEMAND")
            .for_each(Plan::scan("CUSTOMERS"))
            .with_vg(Arc::new(BayesianDemandVg))
            .vg_params_query(Plan::scan("DEMAND_MODEL"))
            .vg_params_exprs(&[
                Expr::col("HIST_PERIODS"),
                Expr::col("HIST_UNITS"),
                Expr::lit(10.5), // price after 5% increase
                Expr::lit(10.0), // reference price
                Expr::lit(2.0),  // elasticity
            ])
            .select(&[("CID", Expr::col("CID")), ("UNITS", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let mut rng = rng_from_seed(11);
        let (mut u1, mut u2) = (0.0, 0.0);
        for _ in 0..200 {
            let t = spec.realize(&db, &mut rng).unwrap();
            u1 += t.rows()[0][1].as_i64().unwrap() as f64;
            u2 += t.rows()[1][1].as_i64().unwrap() as f64;
        }
        // Posterior means ~2 vs ~7.45 (×0.905 price factor); heavy history
        // customer demands more.
        assert!(u2 > u1 * 2.0);
    }
}
