//! End-to-end integration: the full model-data ecosystem loop.
//!
//! Data → stochastic models attached (MCDB) → what-if distribution;
//! composite models with auto-harmonization (Splash); run optimization
//! (result caching); and the Figure 1 contrast between shallow
//! extrapolation and regime-aware simulation.

use model_data_ecosystems::core::composite::{CompositeModel, ParamAssignment};
use model_data_ecosystems::core::registry::{
    FnSimModel, ModelMetadata, ParamSpec, PerfStats, PortSpec, Registry,
};
use model_data_ecosystems::core::whatif::{shallow_extrapolation, WhatIfSession};
use model_data_ecosystems::harmonize::series::TimeSeries;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{AggFunc, AggSpec};
use model_data_ecosystems::mcdb::vg::NormalVg;
use model_data_ecosystems::numeric::dist::{Distribution, Normal};
use model_data_ecosystems::numeric::resilience::RunOptions;
use std::sync::Arc;

#[test]
fn what_if_session_full_loop() {
    let mut session = WhatIfSession::new();
    session.add_data(
        Table::build(
            "ITEMS",
            &[("IID", DataType::Int), ("PRICE", DataType::Float)],
        )
        .rows((0..25).map(|i| vec![Value::from(i), Value::from(5.0 + (i % 5) as f64)]))
        .finish()
        .unwrap(),
    );
    session.add_data(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(20.0), Value::from(4.0)])
        .finish()
        .unwrap(),
    );
    session.attach_stochastic(
        RandomTableSpec::builder("DEMAND")
            .for_each(Plan::scan("ITEMS"))
            .with_vg(Arc::new(NormalVg))
            .vg_params_query(Plan::scan("PARAMS"))
            .select(&[
                ("IID", Expr::col("IID")),
                ("PRICE", Expr::col("PRICE")),
                ("UNITS", Expr::col("VALUE")),
            ])
            .build()
            .unwrap(),
    );

    // Revenue = Σ price × units across items.
    let q = Plan::scan("DEMAND")
        .project(&[("REV", Expr::col("PRICE").mul(Expr::col("UNITS")))])
        .aggregate(
            &[],
            vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("REV"))],
        );
    let res = session.what_if(&q, 400, 3).unwrap();

    // E[total] = 20 × Σ price = 20 × 25 × 7 = 3500.
    assert!((res.mean() - 3500.0).abs() < 40.0, "mean {}", res.mean());
    assert!(res.mean_ci(0.95).unwrap().contains(3500.0));
    assert!(res.quantile(0.99).unwrap() > res.quantile(0.5).unwrap());
    // The options-taking entry point agrees exactly.
    let with = session.what_if_with(&q, 400, 3, &RunOptions::default());
    assert_eq!(res.samples(), with.unwrap().result.samples());
}

#[test]
fn composite_platform_with_three_stage_chain() {
    // weather (hourly) → demand (daily) → cost (weekly): two tick
    // mismatches auto-resolved in one composite.
    let mut reg = Registry::new();
    reg.register_model(Arc::new(FnSimModel::new(
        ModelMetadata {
            name: "weather".into(),
            description: "hourly temperature".into(),
            inputs: vec![],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["temp".into()],
                tick: 1.0 / 24.0,
            },
            params: vec![ParamSpec {
                name: "mean_temp".into(),
                default: 20.0,
                lo: 0.0,
                hi: 40.0,
            }],
            perf: PerfStats::default(),
        },
        |_i, p, rng| {
            let noise = Normal::new(0.0, 2.0).expect("static");
            let times: Vec<f64> = (0..24 * 14).map(|h| h as f64 / 24.0).collect();
            let vals: Vec<f64> = times
                .iter()
                .map(|t| p[0] + 8.0 * (t * std::f64::consts::TAU).sin() + noise.sample(rng))
                .collect();
            Ok(TimeSeries::univariate("temp", times, vals)?)
        },
    )));
    reg.register_model(Arc::new(FnSimModel::new(
        ModelMetadata {
            name: "demand".into(),
            description: "daily heating demand".into(),
            inputs: vec![PortSpec {
                name: "in".into(),
                channels: vec!["temp".into()],
                tick: 1.0,
            }],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["kwh".into()],
                tick: 1.0,
            },
            params: vec![],
            perf: PerfStats::default(),
        },
        |inputs, _p, _rng| {
            let temp = inputs[0].channel("temp")?;
            Ok(TimeSeries::univariate(
                "kwh",
                inputs[0].times().to_vec(),
                temp.iter().map(|t| (25.0 - t).max(0.0) * 10.0).collect(),
            )?)
        },
    )));
    reg.register_model(Arc::new(FnSimModel::new(
        ModelMetadata {
            name: "cost".into(),
            description: "weekly energy cost".into(),
            inputs: vec![PortSpec {
                name: "in".into(),
                channels: vec!["kwh".into()],
                tick: 7.0,
            }],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["eur".into()],
                tick: 7.0,
            },
            params: vec![],
            perf: PerfStats::default(),
        },
        |inputs, _p, _rng| {
            let kwh = inputs[0].channel("kwh")?;
            Ok(TimeSeries::univariate(
                "eur",
                inputs[0].times().to_vec(),
                kwh.iter().map(|k| k * 0.3).collect(),
            )?)
        },
    )));

    let mut comp = CompositeModel::new();
    let w = comp.add_model("weather");
    let d = comp.add_model("demand");
    let c = comp.add_model("cost");
    comp.connect(w, d, 0);
    comp.connect(d, c, 0);
    // Two tick mismatches must be detected.
    let mismatches = comp.detect_mismatches(&reg).unwrap();
    assert_eq!(mismatches.len(), 2);

    let plan = comp.plan(&reg).unwrap();
    let mc = plan
        .run_monte_carlo(&ParamAssignment::new(), 30, 5, |ts| {
            let v = ts.channel("eur").expect("eur");
            v.iter().sum::<f64>() / v.len() as f64
        })
        .unwrap();
    // Mean temp 20, sin averages out: daily kwh ≈ E[(25 − T)⁺]·10 ≈ 60–80;
    // weekly mean cost ≈ kwh·0.3 → within a broad sanity band.
    assert!(
        (5.0..50.0).contains(&mc.summary.mean()),
        "weekly cost {}",
        mc.summary.mean()
    );
    assert!(mc.summary.sample_variance() > 0.0);
}

#[test]
fn figure1_shallow_extrapolation_misses_regime_change() {
    // A boom-bust "housing index": growth 1970–2006, collapse after.
    let years: Vec<f64> = (1970..=2011).map(|y| y as f64).collect();
    let index: Vec<f64> = years
        .iter()
        .map(|&y| {
            if y <= 2006.0 {
                100.0 * (0.045 * (y - 1970.0)).exp()
            } else {
                100.0 * (0.045 * 36.0f64).exp() * (1.0 - 0.07 * (y - 2006.0))
            }
        })
        .collect();
    let mut hist = Table::build(
        "HOUSING",
        &[("YEAR", DataType::Float), ("INDEX", DataType::Float)],
    );
    for (y, v) in years.iter().zip(&index).filter(|(y, _)| **y <= 2006.0) {
        hist = hist.row(vec![Value::from(*y), Value::from(*v)]);
    }
    let table = hist.finish().unwrap();

    let forecast_2011 = shallow_extrapolation(&table, "YEAR", "INDEX", 5).unwrap();
    let actual_2011 = *index.last().unwrap();
    // The shallow model extrapolates the boom and overshoots massively.
    assert!(
        forecast_2011 > actual_2011 * 1.3,
        "forecast {forecast_2011} vs actual {actual_2011}"
    );
}
