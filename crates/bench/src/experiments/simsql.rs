//! E4 — §2.1 SimSQL: database-valued Markov chains.
//!
//! An inventory/pricing chain exercising SimSQL's two headline extensions:
//! versioned stochastic tables (query `D[i]` for any `i`) and recursive
//! definitions (`PRICE[i]` generated from `PRICE[i-1]`, `DEMAND[i]` from
//! `PRICE[i]`'s *previous* version under batch semantics).

use mde_mcdb::markov::MarkovChainSpec;
use mde_mcdb::prelude::*;
use mde_mcdb::query::{AggFunc, AggSpec};
use mde_mcdb::vg::{NormalVg, PoissonVg};
use std::sync::Arc;

fn build_chain() -> (Catalog, MarkovChainSpec) {
    let mut base = Catalog::new();
    base.insert(
        Table::build("INIT", &[("P0", DataType::Float)])
            .row(vec![Value::from(10.0)])
            .finish()
            .expect("static"),
    );
    // D[0]: PRICE = N(P0, 0.1).
    let init_price = RandomTableSpec::builder("PRICE")
        .for_each(Plan::scan("INIT"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::col("P0"), Expr::lit(0.1)])
        .select(&[("P", Expr::col("VALUE"))])
        .build()
        .expect("valid spec");
    // Transition: PRICE[i] = N(PRICE[i-1] * 1.02, 0.2) — a recursive,
    // self-referential stochastic table (2%/step drift).
    let price_step = RandomTableSpec::builder("PRICE")
        .for_each(Plan::scan("PRICE"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::col("P").mul(Expr::lit(1.02)), Expr::lit(0.2)])
        .select(&[("P", Expr::col("VALUE"))])
        .build()
        .expect("valid spec");
    // DEMAND[i] ~ Poisson(1000 / PRICE[i-1]) — cross-table parametrization.
    let demand_step = RandomTableSpec::builder("DEMAND")
        .for_each(Plan::scan("PRICE"))
        .with_vg(Arc::new(PoissonVg))
        .vg_params_exprs(&[Expr::lit(1000.0).div(Expr::col("P"))])
        .select(&[("UNITS", Expr::col("VALUE"))])
        .build()
        .expect("valid spec");
    (
        base,
        MarkovChainSpec::new(vec![init_price], vec![demand_step, price_step]),
    )
}

/// Regenerate the SimSQL chain report: per-version queries over `D[0..T]`.
pub(crate) fn simsql_markov_report() -> String {
    let (base, spec) = build_chain();
    let steps = 12;
    let traj = spec.run(&base, steps, 11).expect("chain run");

    let price_q =
        Plan::scan("PRICE").aggregate(&[], vec![AggSpec::new("P", AggFunc::Avg, Expr::col("P"))]);
    let demand_q = Plan::scan("DEMAND").aggregate(
        &[],
        vec![AggSpec::new("U", AggFunc::Avg, Expr::col("UNITS"))],
    );
    let prices = traj.scalar_series(&price_q).expect("price series");

    let mut out = String::new();
    out.push_str("E4 | §2.1 SimSQL: database-valued Markov chain D[0..12]\n");
    out.push_str("PRICE[i] ~ N(1.02*PRICE[i-1], 0.2); DEMAND[i] ~ Poisson(1000/PRICE[i-1])\n\n");
    let mut rows = Vec::new();
    for (i, &price_i) in prices.iter().enumerate().take(steps + 1) {
        let demand = if i == 0 {
            "-".to_string()
        } else {
            crate::f(
                traj.query_at(i, &demand_q)
                    .expect("versioned query")
                    .scalar()
                    .expect("scalar")
                    .as_f64()
                    .expect("float"),
            )
        };
        rows.push(vec![format!("D[{i}]"), crate::f(price_i), demand]);
    }
    out.push_str(&crate::render_table(&["version", "price", "demand"], &rows));

    let drift = prices.last().expect("non-empty") / prices[0];
    let expected_drift = 1.02f64.powi(steps as i32);
    out.push_str(&format!(
        "\nprice drift over {steps} steps: {:.3} (theory 1.02^{steps} = {:.3})\n",
        drift, expected_drift
    ));
    out.push_str(
        "Versioned access (query_at any i), recursion (PRICE reads its prior version),\n\
         and cross-table parametrization (DEMAND reads PRICE) all exercised.\n",
    );

    // "Well suited to scalable Bayesian machine learning": a two-block
    // Gibbs sampler as a database-valued chain, with the posterior update
    // computed by a SQL aggregate. Stationary marginal of P is
    // Uniform(0,1) — mean 1/2, variance 1/12.
    out.push_str("\nBayesian ML in the database: Beta-Bernoulli Gibbs chain (n = 20 units)\n");
    let (mean, var, steps) = gibbs_marginal_stats(3000, 200, 7);
    out.push_str(&format!(
        "P marginal over {steps} post-burn-in steps: mean {:.3} (theory 0.500), \
         variance {:.4} (theory {:.4})\n",
        mean,
        var,
        1.0 / 12.0
    ));
    out
}

/// Run the Beta-Bernoulli Gibbs chain and return `(mean, var, samples)` of
/// the `P` marginal after burn-in.
fn gibbs_marginal_stats(steps: usize, burn_in: usize, seed: u64) -> (f64, f64, usize) {
    use mde_mcdb::vg::{BernoulliVg, BetaVg};
    let n_units = 20i64;
    let mut base = Catalog::new();
    base.insert(
        Table::build("UNITS", &[("UID", DataType::Int)])
            .rows((0..n_units).map(|i| vec![Value::from(i)]))
            .finish()
            .expect("static"),
    );
    base.insert(
        Table::build("INIT_P", &[("P0", DataType::Float)])
            .row(vec![Value::from(0.5)])
            .finish()
            .expect("static"),
    );
    let init_x = RandomTableSpec::builder("X")
        .for_each(Plan::scan("UNITS"))
        .with_vg(Arc::new(BernoulliVg))
        .vg_params_query(Plan::scan("INIT_P"))
        .select(&[("UID", Expr::col("UID")), ("V", Expr::col("VALUE"))])
        .build()
        .expect("valid spec");
    let init_p = RandomTableSpec::builder("P")
        .for_each(Plan::scan("INIT_P"))
        .with_vg(Arc::new(BetaVg))
        .vg_params_exprs(&[Expr::lit(1.0), Expr::lit(1.0)])
        .select(&[("P", Expr::col("VALUE"))])
        .build()
        .expect("valid spec");
    let posterior_params = Plan::scan("X")
        .aggregate(&[], vec![AggSpec::new("A", AggFunc::Sum, Expr::col("V"))])
        .project(&[
            ("A", Expr::col("A").add(Expr::lit(1)).add(Expr::lit(0.0))),
            (
                "B",
                Expr::lit(n_units + 1)
                    .sub(Expr::col("A"))
                    .add(Expr::lit(0.0)),
            ),
        ]);
    let draw_p = RandomTableSpec::builder("P")
        .for_each(Plan::scan("INIT_P"))
        .with_vg(Arc::new(BetaVg))
        .vg_params_query(posterior_params)
        .select(&[("P", Expr::col("VALUE"))])
        .build()
        .expect("valid spec");
    let draw_x = RandomTableSpec::builder("X")
        .for_each(Plan::scan("UNITS"))
        .with_vg(Arc::new(BernoulliVg))
        .vg_params_query(Plan::scan("P"))
        .select(&[("UID", Expr::col("UID")), ("V", Expr::col("VALUE"))])
        .build()
        .expect("valid spec");
    let chain = MarkovChainSpec::new(vec![init_x, init_p], vec![draw_p, draw_x]);
    let traj = chain.run(&base, steps, seed).expect("chain run");
    let p_query =
        Plan::scan("P").aggregate(&[], vec![AggSpec::new("P", AggFunc::Avg, Expr::col("P"))]);
    let mut ps = Vec::new();
    for t in burn_in..=steps {
        ps.push(
            traj.query_at(t, &p_query)
                .expect("versioned query")
                .scalar()
                .expect("scalar")
                .as_f64()
                .expect("float"),
        );
    }
    let mean = ps.iter().sum::<f64>() / ps.len() as f64;
    let var = ps.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / ps.len() as f64;
    (mean, var, ps.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_drifts_at_the_configured_rate() {
        let (base, spec) = build_chain();
        let traj = spec.run(&base, 12, 3).unwrap();
        let q = Plan::scan("PRICE")
            .aggregate(&[], vec![AggSpec::new("P", AggFunc::Avg, Expr::col("P"))]);
        let prices = traj.scalar_series(&q).unwrap();
        let drift = prices.last().unwrap() / prices[0];
        assert!((drift - 1.02f64.powi(12)).abs() < 0.15, "drift {drift}");
    }

    #[test]
    fn demand_tracks_inverse_price() {
        let (base, spec) = build_chain();
        let traj = spec.run(&base, 8, 4).unwrap();
        // At version i, demand ~ Poisson(1000/price[i-1]) ≈ 100/1.02^i.
        let d = traj
            .query_at(
                5,
                &Plan::scan("DEMAND").aggregate(
                    &[],
                    vec![AggSpec::new("U", AggFunc::Avg, Expr::col("UNITS"))],
                ),
            )
            .unwrap()
            .scalar()
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((60.0..135.0).contains(&d), "demand {d}");
    }
}
