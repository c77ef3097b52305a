//! Quickstart: "data is dead without what-if models".
//!
//! The paper's opening claim is that descriptive analytics over existing
//! data cannot support decisions — the data must be combined with
//! stochastic models of how the world behaves. This example walks the
//! whole arc in one file:
//!
//! 1. load a small sales database (the "dead" data);
//! 2. run a descriptive query (what *was* revenue?);
//! 3. attach a stochastic demand model (a VG function, per MCDB §2.1)
//!    parametrized by the data;
//! 4. ask a *what-if* question — what happens to revenue under a 5% price
//!    increase? — and get a distribution with risk quantiles and a
//!    threshold decision, not a single number.
//!
//! Run with: `cargo run --example quickstart`

use model_data_ecosystems::core::whatif::WhatIfSession;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{AggFunc, AggSpec};
use model_data_ecosystems::mcdb::vg::BayesianDemandVg;
use std::sync::Arc;

fn main() {
    // ---- 1. The data: customers with purchase histories, and the global
    // demand-model parameters fit from all customers (the paper's Bayesian
    // demand example).
    let customers = Table::build(
        "CUSTOMERS",
        &[
            ("CID", DataType::Int),
            ("REGION", DataType::Str),
            ("HIST_PERIODS", DataType::Float),
            ("HIST_UNITS", DataType::Float),
        ],
    )
    .rows((0..200).map(|i| {
        vec![
            Value::from(i),
            Value::from(if i % 3 == 0 { "east" } else { "west" }),
            Value::from(12.0),
            // Heterogeneous purchase histories: 12..72 units/year.
            Value::from(12.0 + (i % 6) as f64 * 12.0),
        ]
    }))
    .finish()
    .expect("static table");

    let demand_model = Table::build(
        "DEMAND_MODEL",
        &[("ALPHA", DataType::Float), ("BETA", DataType::Float)],
    )
    .row(vec![Value::from(3.0), Value::from(1.0)])
    .finish()
    .expect("static table");

    let mut session = WhatIfSession::new();
    session.add_data(customers).add_data(demand_model);

    // ---- 2. Descriptive analytics: the past.
    let history = session
        .describe(&Plan::scan("CUSTOMERS").aggregate(
            &["REGION"],
            vec![
                AggSpec::count_star("CUSTOMERS"),
                AggSpec::new("UNITS_LAST_YEAR", AggFunc::Sum, Expr::col("HIST_UNITS")),
            ],
        ))
        .expect("descriptive query");
    println!("== What the data says about the past ==\n{history}");

    // ---- 3. Attach the stochastic model: per-customer demand under a
    // given price, via the Gamma-Poisson Bayesian update of §2.1.
    let price = 10.5; // a 5% increase over the reference price of 10
    let spec = RandomTableSpec::builder("NEXT_PERIOD_SALES")
        .for_each(Plan::scan("CUSTOMERS"))
        .with_vg(Arc::new(BayesianDemandVg))
        .vg_params_query(Plan::scan("DEMAND_MODEL"))
        .vg_params_exprs(&[
            Expr::col("HIST_PERIODS"),
            Expr::col("HIST_UNITS"),
            Expr::lit(price),
            Expr::lit(10.0), // reference price
            Expr::lit(2.0),  // elasticity
        ])
        .select(&[
            ("CID", Expr::col("CID")),
            ("REGION", Expr::col("REGION")),
            ("UNITS", Expr::col("VALUE")),
        ])
        .build()
        .expect("valid spec");
    session.attach_stochastic(spec);

    // ---- 4. The what-if question: revenue from east-coast customers
    // under the price increase (the paper's exact example query shape).
    let east_revenue = Plan::scan("NEXT_PERIOD_SALES")
        .filter(Expr::col("REGION").eq(Expr::lit("east")))
        .project(&[("REV", Expr::col("UNITS").mul(Expr::lit(price)))])
        .aggregate(
            &[],
            vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("REV"))],
        );

    let result = session
        .what_if(&east_revenue, 1000, 42)
        .expect("Monte Carlo run");

    println!("== What-if: east-coast revenue under a 5% price increase ==");
    println!("mean revenue        : {:10.0}", result.mean());
    let ci = result.mean_ci(0.95).expect("ci");
    println!("95% CI for the mean : [{:.0}, {:.0}]", ci.lo, ci.hi);
    println!(
        "5% / 95% quantiles  : {:10.0} / {:10.0}",
        result.quantile(0.05).expect("quantile"),
        result.quantile(0.95).expect("quantile"),
    );
    println!(
        "value-at-risk (q01) : {:10.0}",
        result.quantile(0.01).expect("quantile")
    );
    let target = 1_400.0;
    let decision = result
        .threshold_decision(target, 0.9, 0.95)
        .expect("threshold query");
    println!(
        "P(revenue > {target}) >= 90%?  {}",
        match decision {
            Some(true) => "YES (confidently)",
            Some(false) => "NO (confidently)",
            None => "inconclusive — run more iterations",
        }
    );
}
