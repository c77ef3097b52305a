//! Database-valued Markov chains — the SimSQL extension.
//!
//! "Whereas MCDB merely allowed generation of sample realizations of a
//! stochastic database D — in other words, a static database-valued random
//! variable — the foregoing extensions enable SimSQL to generate
//! realizations of a database-valued Markov chain `D[0], D[1], D[2], …`
//! That is, the stochastic mechanism that generates a realization of the
//! i-th database state `D[i]` may explicitly depend on the prior state
//! D[i−1]."
//!
//! [`MarkovChainSpec`] holds initialization specs (generating `D[0]` from
//! the deterministic base tables) and transition specs (generating `D[i]`
//! from the base tables *plus* `D[i−1]`). Transitions use **batch
//! semantics**: all of step `i`'s tables are generated against the frozen
//! state `i−1`, then swapped in together — so a spec that regenerates table
//! `A` reads the *previous* `A`, exactly the "data in stochastic table A …
//! used to parametrize the stochastic generation of … a second version of
//! A" recursion the paper describes.

use crate::query::{Catalog, Plan};
use crate::random_table::RandomTableSpec;
use crate::table::Table;
use mde_numeric::rng::StreamFactory;

/// Specification of a database-valued Markov chain.
#[derive(Debug, Clone)]
pub struct MarkovChainSpec {
    init: Vec<RandomTableSpec>,
    transition: Vec<RandomTableSpec>,
}

impl MarkovChainSpec {
    /// Create from initialization specs (produce `D[0]`) and transition
    /// specs (produce `D[i]` from `D[i−1]`).
    pub fn new(init: Vec<RandomTableSpec>, transition: Vec<RandomTableSpec>) -> Self {
        MarkovChainSpec { init, transition }
    }

    /// Simulate the chain for `steps` transitions, producing the trajectory
    /// `D[0], …, D[steps]`.
    pub fn run(&self, base: &Catalog, steps: usize, seed: u64) -> crate::Result<ChainTrajectory> {
        let factory = StreamFactory::new(seed);
        let mut working = base.clone();

        // D[0].
        let init_factory = factory.child(0);
        let mut state0 = Vec::new();
        for (k, spec) in self.init.iter().enumerate() {
            let mut rng = init_factory.stream(k as u64);
            let t = spec.realize(&working, &mut rng)?;
            state0.push(t.clone());
            working.insert(t);
        }
        let mut states = vec![state0];

        // Transitions with batch semantics.
        for step in 1..=steps {
            let step_factory = factory.child(step as u64);
            let mut new_tables = Vec::new();
            for (k, spec) in self.transition.iter().enumerate() {
                let mut rng = step_factory.stream(k as u64);
                // Realize against `working`, which still holds D[i-1].
                new_tables.push(spec.realize(&working, &mut rng)?);
            }
            for t in &new_tables {
                working.insert(t.clone());
            }
            states.push(new_tables);
        }

        Ok(ChainTrajectory {
            base: base.clone(),
            states,
        })
    }
}

/// A realized trajectory `D[0..=T]` of a database-valued Markov chain.
#[derive(Debug, Clone)]
pub struct ChainTrajectory {
    base: Catalog,
    /// `states[i]` holds the stochastic tables generated at step `i`.
    states: Vec<Vec<Table>>,
}

impl ChainTrajectory {
    /// Number of states (`T + 1` for `T` transitions).
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the trajectory is empty (no states generated).
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The stochastic tables generated at version `i` (versioned access,
    /// the SimSQL `A[i]` syntax).
    #[cfg(test)]
    fn tables_at(&self, version: usize) -> &[Table] {
        &self.states[version]
    }

    /// Materialize the full catalog visible at version `i`: base tables
    /// overlaid with the latest generation of every stochastic table up to
    /// and including version `i`.
    fn catalog_at(&self, version: usize) -> Catalog {
        let mut c = self.base.clone();
        for state in &self.states[..=version.min(self.states.len() - 1)] {
            for t in state {
                c.insert(t.clone());
            }
        }
        c
    }

    /// Run a query against the catalog at version `i`.
    pub fn query_at(&self, version: usize, plan: &Plan) -> crate::Result<Table> {
        self.catalog_at(version).query(plan)
    }

    /// Run a scalar query at every version, producing the time series of
    /// results (the typical SimSQL analysis pattern: track a statistic of
    /// the chain over simulated time).
    pub fn scalar_series(&self, plan: &Plan) -> crate::Result<Vec<f64>> {
        (0..self.len())
            .map(|i| self.query_at(i, plan)?.scalar()?.as_f64())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{AggFunc, AggSpec};
    use crate::schema::DataType;
    use crate::value::Value;
    use crate::vg::NormalVg;
    use std::sync::Arc;

    /// A scalar AR(1)-style chain implemented as a database-valued Markov
    /// chain: table X has one row whose VALUE gets re-generated as
    /// N(phi * prev_value, sigma).
    fn ar1_chain(phi: f64, sigma: f64) -> (Catalog, MarkovChainSpec) {
        let mut base = Catalog::new();
        base.insert(
            Table::build("SEED", &[("X0", DataType::Float)])
                .row(vec![Value::from(100.0)])
                .finish()
                .unwrap(),
        );
        // D[0]: X = N(X0, sigma).
        let init = RandomTableSpec::builder("X")
            .for_each(Plan::scan("SEED"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_exprs(&[Expr::col("X0"), Expr::lit(sigma)])
            .select(&[("V", Expr::col("VALUE"))])
            .build()
            .unwrap();
        // D[i]: X = N(phi * X[i-1].V, sigma) — reads the previous version
        // of X itself (the SimSQL recursion).
        let trans = RandomTableSpec::builder("X")
            .for_each(Plan::scan("X"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_exprs(&[Expr::col("V").mul(Expr::lit(phi)), Expr::lit(sigma)])
            .select(&[("V", Expr::col("VALUE"))])
            .build()
            .unwrap();
        (base, MarkovChainSpec::new(vec![init], vec![trans]))
    }

    #[test]
    fn chain_produces_versioned_states() {
        let (base, spec) = ar1_chain(0.5, 0.1);
        let traj = spec.run(&base, 10, 3).unwrap();
        assert_eq!(traj.len(), 11);
        assert!(!traj.is_empty());
        assert_eq!(traj.tables_at(0).len(), 1);
        assert_eq!(traj.tables_at(5)[0].name(), "X");
    }

    #[test]
    fn recursive_self_reference_contracts_toward_zero() {
        // With phi = 0.5 and tiny noise, X[t] ≈ 100 * 0.5^t.
        let (base, spec) = ar1_chain(0.5, 0.01);
        let traj = spec.run(&base, 6, 4).unwrap();
        let q =
            Plan::scan("X").aggregate(&[], vec![AggSpec::new("V", AggFunc::Avg, Expr::col("V"))]);
        let series = traj.scalar_series(&q).unwrap();
        for (t, v) in series.iter().enumerate() {
            let expected = 100.0 * 0.5f64.powi(t as i32);
            assert!(
                (v - expected).abs() < 1.0 + 0.05 * expected,
                "t={t}: {v} vs {expected}"
            );
        }
    }

    #[test]
    fn trajectories_reproducible_by_seed() {
        let (base, spec) = ar1_chain(0.9, 1.0);
        let a = spec.run(&base, 5, 77).unwrap();
        let b = spec.run(&base, 5, 77).unwrap();
        let c = spec.run(&base, 5, 78).unwrap();
        for i in 0..a.len() {
            assert_eq!(a.tables_at(i)[0].rows(), b.tables_at(i)[0].rows());
        }
        assert_ne!(a.tables_at(1)[0].rows(), c.tables_at(1)[0].rows());
    }

    #[test]
    fn catalog_at_overlays_correct_version() {
        let (base, spec) = ar1_chain(0.5, 0.01);
        let traj = spec.run(&base, 3, 5).unwrap();
        // The catalog at version 0 must show the initial X, not a later one.
        let v0 = traj.query_at(0, &Plan::scan("X")).unwrap().rows()[0][0]
            .as_f64()
            .unwrap();
        let v3 = traj.query_at(3, &Plan::scan("X")).unwrap().rows()[0][0]
            .as_f64()
            .unwrap();
        assert!((v0 - 100.0).abs() < 1.0);
        assert!((v3 - 12.5).abs() < 2.0);
        // Base tables remain visible at every version.
        assert!(traj.query_at(2, &Plan::scan("SEED")).is_ok());
    }

    /// "SimSQL [is] well suited to scalable Bayesian machine learning": a
    /// two-block Gibbs sampler as a database-valued Markov chain. The
    /// chain alternates `P ~ Beta(1 + Σx, 1 + n − Σx)` and
    /// `x_i ~ Bernoulli(P)`; its stationary joint is
    /// `prior(p) × f(x | p)` with prior Beta(1,1), so the long-run marginal
    /// of `P` is Uniform(0,1) — exactly checkable.
    #[test]
    fn gibbs_sampler_as_database_valued_chain() {
        use crate::query::AggFunc;
        use crate::vg::{BernoulliVg, BetaVg};

        let n_units = 20;
        let mut base = Catalog::new();
        base.insert(
            Table::build("UNITS", &[("UID", DataType::Int)])
                .rows((0..n_units).map(|i| vec![Value::from(i)]))
                .finish()
                .unwrap(),
        );
        base.insert(
            Table::build("INIT_P", &[("P0", DataType::Float)])
                .row(vec![Value::from(0.5)])
                .finish()
                .unwrap(),
        );

        // D[0]: X_i ~ Bernoulli(0.5) and P ~ Beta(1, 1).
        let init_x = RandomTableSpec::builder("X")
            .for_each(Plan::scan("UNITS"))
            .with_vg(Arc::new(BernoulliVg))
            .vg_params_query(Plan::scan("INIT_P"))
            .select(&[("UID", Expr::col("UID")), ("V", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let init_p = RandomTableSpec::builder("P")
            .for_each(Plan::scan("INIT_P"))
            .with_vg(Arc::new(BetaVg))
            .vg_params_exprs(&[Expr::lit(1.0), Expr::lit(1.0)])
            .select(&[("P", Expr::col("VALUE"))])
            .build()
            .unwrap();

        // Block 1: P ~ Beta(1 + Σx, 1 + n − Σx) — parameters via a SQL
        // aggregate over the previous X (the conjugate update, in-database).
        let posterior_params = Plan::scan("X")
            .aggregate(
                &[],
                vec![AggSpec::new(
                    "A",
                    AggFunc::Sum,
                    Expr::col("V").add(Expr::lit(0)),
                )],
            )
            .project(&[
                ("A", Expr::col("A").add(Expr::lit(1)).add(Expr::lit(0.0))),
                (
                    "B",
                    Expr::lit((n_units + 1) as i64)
                        .sub(Expr::col("A"))
                        .add(Expr::lit(0.0)),
                ),
            ]);
        let draw_p = RandomTableSpec::builder("P")
            .for_each(Plan::scan("INIT_P")) // single-row driver
            .with_vg(Arc::new(BetaVg))
            .vg_params_query(posterior_params)
            .select(&[("P", Expr::col("VALUE"))])
            .build()
            .unwrap();

        // Block 2: X_i ~ Bernoulli(P). Under the chain's batch semantics
        // both blocks read the *previous* step's tables — a synchronous
        // two-block Gibbs update, whose interleaved subsequences
        // (P₁, X₂, P₃, …) and (X₁, P₂, X₃, …) are each a standard
        // alternating-scan Gibbs chain, so both marginals converge to the
        // correct stationary marginals.
        let draw_x = RandomTableSpec::builder("X")
            .for_each(Plan::scan("UNITS"))
            .with_vg(Arc::new(BernoulliVg))
            .vg_params_query(Plan::scan("P").project(&[("P", Expr::col("P"))]))
            .select(&[("UID", Expr::col("UID")), ("V", Expr::col("VALUE"))])
            .build()
            .unwrap();

        let spec = MarkovChainSpec::new(vec![init_x, init_p], vec![draw_p, draw_x]);
        let steps = 800;
        let traj = spec.run(&base, steps, 99).unwrap();

        // Collect P's trajectory after burn-in.
        let p_query =
            Plan::scan("P").aggregate(&[], vec![AggSpec::new("P", AggFunc::Avg, Expr::col("P"))]);
        let mut ps = Vec::new();
        for t in 100..=steps {
            ps.push(
                traj.query_at(t, &p_query)
                    .unwrap()
                    .scalar()
                    .unwrap()
                    .as_f64()
                    .unwrap(),
            );
        }
        let mean = ps.iter().sum::<f64>() / ps.len() as f64;
        let var = ps.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / ps.len() as f64;
        // Stationary marginal Uniform(0,1): mean 1/2, variance 1/12. The
        // chain is autocorrelated, so tolerances are generous but still
        // far tighter than any broken sampler would pass.
        assert!((mean - 0.5).abs() < 0.06, "P mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.025, "P variance {var}");
        // And P visits both tails.
        assert!(ps.iter().any(|&p| p < 0.15));
        assert!(ps.iter().any(|&p| p > 0.85));
    }

    #[test]
    fn two_table_cross_parametrization() {
        // The paper's A -> B -> A' pattern: B is generated from A, then a
        // new A from B.
        let mut base = Catalog::new();
        base.insert(
            Table::build("START", &[("V", DataType::Float)])
                .row(vec![Value::from(10.0)])
                .finish()
                .unwrap(),
        );
        let init_a = RandomTableSpec::builder("A")
            .for_each(Plan::scan("START"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_exprs(&[Expr::col("V"), Expr::lit(0.001)])
            .select(&[("V", Expr::col("VALUE"))])
            .build()
            .unwrap();
        // B = A + 1 (tiny noise); A' = B + 1.
        let trans_b = RandomTableSpec::builder("B")
            .for_each(Plan::scan("A"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_exprs(&[Expr::col("V").add(Expr::lit(1.0)), Expr::lit(0.001)])
            .select(&[("V", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let trans_a = RandomTableSpec::builder("A")
            .for_each(Plan::scan("A"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_exprs(&[Expr::col("V").add(Expr::lit(2.0)), Expr::lit(0.001)])
            .select(&[("V", Expr::col("VALUE"))])
            .build()
            .unwrap();
        let spec = MarkovChainSpec::new(vec![init_a], vec![trans_b, trans_a]);
        let traj = spec.run(&base, 2, 6).unwrap();
        // Batch semantics: at step 1, B reads A[0]=10 so B[1] ≈ 11, and
        // A[1] reads A[0] so A[1] ≈ 12. At step 2, B[2] ≈ A[1]+1 = 13.
        let a1 = traj.tables_at(1)[1].rows()[0][0].as_f64().unwrap();
        let b1 = traj.tables_at(1)[0].rows()[0][0].as_f64().unwrap();
        let b2 = traj.tables_at(2)[0].rows()[0][0].as_f64().unwrap();
        assert!((b1 - 11.0).abs() < 0.1, "B[1] = {b1}");
        assert!((a1 - 12.0).abs() < 0.1, "A[1] = {a1}");
        assert!((b2 - 13.0).abs() < 0.1, "B[2] = {b2}");
    }
}
