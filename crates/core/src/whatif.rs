//! What-if analytics over data + models — the paper's opening thesis.
//!
//! "Data is dead … without what-if models" (§1): descriptive analytics
//! over existing data reflects only the past; robust decisions need
//! stochastic models attached to the data, simulated forward, and queried.
//! [`WhatIfSession`] packages that workflow over the Monte Carlo database:
//! load data tables, attach stochastic (VG-function) models, pose an
//! aggregate query, and get a query-result *distribution* with risk and
//! threshold decisions — plus the Figure 1 cautionary baseline, a
//! shallow trend extrapolation for comparison.

use mde_mcdb::mc::{McResult, McRun, MonteCarloQuery};
use mde_mcdb::prelude::*;
use mde_numeric::resilience::RunOptions;
use mde_numeric::stats::TrendAr1Model;

/// A what-if analysis session: deterministic data plus attached stochastic
/// models.
#[derive(Debug, Clone, Default)]
pub struct WhatIfSession {
    catalog: Catalog,
    specs: Vec<RandomTableSpec>,
}

impl WhatIfSession {
    /// Start an empty session.
    pub fn new() -> Self {
        WhatIfSession::default()
    }

    /// Load a deterministic data table.
    pub fn add_data(&mut self, table: Table) -> &mut Self {
        self.catalog.insert(table);
        self
    }

    /// Attach a stochastic model (a random-table spec) to the session —
    /// "the analyst can specify … 'stochastic' tables that contain
    /// 'uncertain' data".
    pub fn attach_stochastic(&mut self, spec: RandomTableSpec) -> &mut Self {
        self.specs.push(spec);
        self
    }

    /// Run a descriptive (deterministic) query over the data alone.
    pub fn describe(&self, plan: &Plan) -> crate::Result<Table> {
        Ok(self.catalog.query(plan)?)
    }

    /// Run a what-if query: realize all attached stochastic models `n`
    /// times, executing the scalar aggregate query per realization. The
    /// three-argument convenience over [`WhatIfSession::what_if_with`].
    pub fn what_if(&self, plan: &Plan, n: usize, seed: u64) -> crate::Result<McResult> {
        Ok(self
            .what_if_with(plan, n, seed, &RunOptions::default())?
            .result)
    }

    /// Run a what-if query under `opts` — recovery policy, result cache,
    /// checkpointing and resumption are all options of the one Monte Carlo
    /// entry point ([`MonteCarloQuery::run_with_options`]); the samples are
    /// the same resumed or cached.
    pub fn what_if_with(
        &self,
        plan: &Plan,
        n: usize,
        seed: u64,
        opts: &RunOptions,
    ) -> crate::Result<McRun> {
        let q = MonteCarloQuery::new(self.specs.clone(), plan.clone());
        Ok(q.run_with_options(&self.catalog, n, seed, opts)?)
    }
}

/// The Figure 1 cautionary baseline: fit a shallow trend+AR(1) model to a
/// history column (ordered by a time column) and extrapolate `horizon`
/// steps. The Figure 1 experiment contrasts this against a
/// regime-aware simulation.
pub fn shallow_extrapolation(
    history: &Table,
    time_col: &str,
    value_col: &str,
    horizon: u32,
) -> crate::Result<f64> {
    let ts = history.column_f64(time_col)?;
    let ys = history.column_f64(value_col)?;
    let model = TrendAr1Model::fit(&ts, &ys)?;
    Ok(model.extrapolate(horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mde_mcdb::vg::NormalVg;
    use std::sync::Arc;

    fn session() -> WhatIfSession {
        let mut s = WhatIfSession::new();
        s.add_data(
            Table::build("STORES", &[("SID", DataType::Int)])
                .rows((0..10).map(|i| vec![Value::from(i)]))
                .finish()
                .unwrap(),
        );
        s.add_data(
            Table::build(
                "MODEL",
                &[("MEAN", DataType::Float), ("STD", DataType::Float)],
            )
            .row(vec![Value::from(50.0), Value::from(10.0)])
            .finish()
            .unwrap(),
        );
        let spec = RandomTableSpec::builder("SALES")
            .for_each(Plan::scan("STORES"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_query(Plan::scan("MODEL"))
            .select(&[("SID", Expr::col("SID")), ("AMT", Expr::col("VALUE"))])
            .build()
            .unwrap();
        s.attach_stochastic(spec);
        s
    }

    #[test]
    fn descriptive_query_over_data() {
        let s = session();
        let t = s
            .describe(
                &Plan::scan("STORES")
                    .aggregate(&[], vec![mde_mcdb::query::AggSpec::count_star("n")]),
            )
            .unwrap();
        assert_eq!(t.scalar().unwrap(), Value::from(10));
    }

    #[test]
    fn what_if_produces_distribution() {
        let s = session();
        let plan = Plan::scan("SALES").aggregate(
            &[],
            vec![mde_mcdb::query::AggSpec::new(
                "TOTAL",
                mde_mcdb::query::AggFunc::Sum,
                Expr::col("AMT"),
            )],
        );
        let res = s.what_if(&plan, 300, 4).unwrap();
        // Total sales across 10 stores ~ N(500, 10√10).
        assert!((res.mean() - 500.0).abs() < 10.0);
        assert!(res.quantile(0.95).unwrap() > res.mean());
        // Threshold decision: P(total > 400) is essentially certain.
        assert_eq!(
            res.threshold_decision(400.0, 0.5, 0.95).unwrap(),
            Some(true)
        );
        // The options-taking entry point agrees exactly.
        let with = s.what_if_with(&plan, 300, 4, &RunOptions::default());
        assert_eq!(res.samples(), with.unwrap().result.samples());
    }

    #[test]
    fn shallow_extrapolation_over_table() {
        // Linear history: extrapolation continues the line.
        let t = Table::build("H", &[("T", DataType::Float), ("V", DataType::Float)])
            .rows((0..20).map(|i| vec![Value::from(i as f64), Value::from(3.0 + 2.0 * i as f64)]))
            .finish()
            .unwrap();
        let f = shallow_extrapolation(&t, "T", "V", 5).unwrap();
        assert!((f - (3.0 + 2.0 * 24.0)).abs() < 1e-6);
    }
}
