//! A Splash-style composite model: register models with metadata, detect
//! mismatches, let the platform compile harmonization transformations, run
//! Monte Carlo repetitions, and then *optimize the run* with §2.3's result
//! caching.
//!
//! The composite is the paper's Figure 2 shape: a (slow, stochastic)
//! demand model feeding a (fast) revenue model, with a deliberate daily →
//! weekly time-granularity mismatch between them.
//!
//! Run with: `cargo run --example composite_pipeline`

use model_data_ecosystems::core::composite::{CompositeModel, Mismatch, ParamAssignment};
use model_data_ecosystems::core::experiment::{bridge_chain_to_simopt, rc_plan, Experiment};
use model_data_ecosystems::core::registry::{
    FnSimModel, ModelMetadata, ParamSpec, PerfStats, PortSpec, Registry,
};
use model_data_ecosystems::harmonize::series::TimeSeries;
use model_data_ecosystems::metamodel::design::full_factorial;
use model_data_ecosystems::numeric::dist::{Distribution, Normal};
use model_data_ecosystems::numeric::resilience::RunOptions;
use std::sync::Arc;

fn register_models(reg: &mut Registry) {
    // Daily demand source: base level, weekly seasonality, noise.
    reg.register_model(Arc::new(FnSimModel::new(
        ModelMetadata {
            name: "demand".into(),
            description: "daily demand with weekly seasonality".into(),
            inputs: vec![],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["demand".into()],
                tick: 1.0,
            },
            params: vec![
                ParamSpec {
                    name: "base".into(),
                    default: 100.0,
                    lo: 60.0,
                    hi: 140.0,
                },
                ParamSpec {
                    name: "noise".into(),
                    default: 8.0,
                    lo: 1.0,
                    hi: 20.0,
                },
            ],
            perf: PerfStats {
                cost: 25.0,
                ..PerfStats::default()
            },
        },
        |_inputs, params, rng| {
            let noise = Normal::new(0.0, params[1].max(1e-6))?;
            let times: Vec<f64> = (0..56).map(|t| t as f64).collect();
            let values: Vec<f64> = times
                .iter()
                .map(|t| {
                    (params[0] + 15.0 * (t * std::f64::consts::TAU / 7.0).sin() + noise.sample(rng))
                        .max(0.0)
                })
                .collect();
            Ok(TimeSeries::univariate("demand", times, values)?)
        },
    )));

    // Weekly revenue sink.
    reg.register_model(Arc::new(FnSimModel::new(
        ModelMetadata {
            name: "revenue".into(),
            description: "weekly revenue".into(),
            inputs: vec![PortSpec {
                name: "in".into(),
                channels: vec!["demand".into()],
                tick: 7.0,
            }],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["revenue".into()],
                tick: 7.0,
            },
            params: vec![ParamSpec {
                name: "price".into(),
                default: 2.5,
                lo: 1.0,
                hi: 5.0,
            }],
            perf: PerfStats {
                cost: 1.0,
                ..PerfStats::default()
            },
        },
        |inputs, params, rng| {
            // Stochastic conversion: market execution noise on top of the
            // demand signal, so the composite is doubly stochastic (the
            // §2.3 setting where result caching pays off).
            let market_noise = Normal::new(0.0, 60.0)?;
            let demand = inputs[0].channel("demand")?;
            Ok(TimeSeries::univariate(
                "revenue",
                inputs[0].times().to_vec(),
                demand
                    .iter()
                    .map(|d| (d * params[0] + market_noise.sample(rng)).max(0.0))
                    .collect(),
            )?)
        },
    )));
}

fn mean_revenue(ts: &TimeSeries) -> f64 {
    let v = ts.channel("revenue").expect("revenue channel");
    v.iter().sum::<f64>() / v.len() as f64
}

fn main() {
    let mut registry = Registry::new();
    register_models(&mut registry);
    println!("registered models: {:?}", registry.model_names());

    // ---- Compose, detect mismatches, plan.
    let mut composite = CompositeModel::new();
    let demand = composite.add_model("demand");
    let revenue = composite.add_model("revenue");
    composite.connect(demand, revenue, 0);

    println!("\n== Mismatch detection (Splash registration-time diagnostics) ==");
    for m in composite.detect_mismatches(&registry).expect("metadata") {
        match m {
            Mismatch::TickMismatch { source_tick, target_tick, .. } => println!(
                "tick mismatch: source emits every {source_tick}, target expects every {target_tick} \
                 -> auto-inserting time alignment (aggregation)"
            ),
            Mismatch::MissingChannel { channel, .. } => {
                println!("missing channel `{channel}` — needs an explicit mapping")
            }
        }
    }

    let plan = composite.plan(&registry).expect("composite plans");
    let (mc, _) = plan
        .run_monte_carlo(
            &ParamAssignment::new(),
            200,
            11,
            mean_revenue,
            &RunOptions::default(),
        )
        .expect("Monte Carlo run");
    println!(
        "\nmean weekly revenue over 200 reps: {:.1} (sd {:.1})",
        mc.summary.mean(),
        mc.summary.sample_std_dev()
    );

    // ---- Experiment management: unified parameter view + main effects.
    let experiment = Experiment::new(&registry, composite).expect("experiment");
    println!("\n== Unified parameter view ==");
    for f in experiment.factors() {
        println!(
            "{:>10}.{:<6} range [{}, {}] default {}",
            f.model, f.param, f.range.0, f.range.1, f.default
        );
    }
    let design = full_factorial(experiment.factors().len());
    let me = experiment
        .main_effects(&design, 10, 13, mean_revenue)
        .expect("design run");
    println!("\n== Main effects (2^3 factorial, 10 reps/point) ==");
    print!("{}", me.render_ascii(&["base", "noise", "price"]));

    // ---- Run optimization: result caching per §2.3.
    let bridged = bridge_chain_to_simopt(
        &registry,
        "demand",
        "revenue",
        ParamAssignment::new(),
        mean_revenue,
    )
    .expect("two-model chain bridges");
    let (stats, alpha) = rc_plan(&bridged, 400, 17, 100_000);
    println!("\n== Result-caching optimization (paper §2.3) ==");
    println!(
        "pilot statistics: c1={:.1} c2={:.1} V1={:.2} V2={:.2}",
        stats.c1, stats.c2, stats.v1, stats.v2
    );
    println!("optimal replication fraction alpha* = {alpha:.3}");
    let budget = 5_000.0;
    let opt = model_data_ecosystems::simopt::budget::run_under_budget(&bridged, budget, alpha, 3)
        .expect("valid budget configuration")
        .expect("budget affords runs");
    let naive = model_data_ecosystems::simopt::budget::run_under_budget(&bridged, budget, 1.0, 3)
        .expect("valid budget configuration")
        .expect("budget affords runs");
    println!(
        "under budget {budget}: alpha* affords n={} M2-replications (m={} M1 runs); \
         naive alpha=1 affords n={}",
        opt.n, opt.m, naive.n
    );
    println!(
        "estimates agree: theta_hat(alpha*) = {:.1}, theta_hat(1) = {:.1}",
        opt.theta_hat, naive.theta_hat
    );
}
