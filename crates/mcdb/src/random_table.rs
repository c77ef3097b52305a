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
//! A realization loops over the rows of the *driver* query (`FOR EACH`),
//! invokes the VG function once per driver row — parametrized by a SQL
//! query over the non-random tables and/or by expressions over the driver
//! row — and assembles output rows with the `SELECT` projection, which sees
//! the driver row's columns and the VG output's columns side by side.

use crate::expr::BoundExpr;
use crate::query::{Catalog, Plan, PreparedQuery};
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::Value;
use crate::vg::VgFunction;
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
    pub fn name(&self) -> &str {
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
            let dt =
                crate::query::infer_type(e, &combined)?.unwrap_or(crate::schema::DataType::Float);
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
        let bound_select = self
            .select
            .iter()
            .map(|(_, e)| e.bind(&combined))
            .collect::<crate::Result<_>>()?;
        Ok(PreparedRandomTable {
            name: self.name.clone(),
            vg: Arc::clone(&self.vg),
            driver,
            params_query,
            bound_param_exprs,
            bound_select,
            combined_len: combined.len(),
            out_schema,
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
/// The driver and parameter queries still *execute* per realization (they
/// may read tables realized earlier in the same replicate), but planning,
/// binding, and schema resolution happen exactly once, at
/// [`RandomTableSpec::prepare`] time.
#[derive(Clone)]
pub struct PreparedRandomTable {
    name: String,
    vg: Arc<dyn VgFunction>,
    driver: PreparedQuery,
    params_query: Option<PreparedQuery>,
    bound_param_exprs: Vec<BoundExpr>,
    bound_select: Vec<BoundExpr>,
    combined_len: usize,
    out_schema: Schema,
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

    /// Generate one realization using the prepared plans — the engine's one
    /// generator.
    ///
    /// RNG consumption is the contract every sample bit rests on: one VG
    /// invocation per driver row, in driver order, all on `rng`.
    pub fn realize(&self, catalog: &Catalog, rng: &mut Rng) -> crate::Result<Table> {
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
                let mut crow: Row = Vec::with_capacity(self.combined_len);
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
    use crate::schema::DataType;
    use crate::vg::{BayesianDemandVg, NormalVg, PoissonVg};
    use mde_numeric::rng::rng_from_seed;

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
