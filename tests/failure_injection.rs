//! Failure injection: errors raised deep inside Monte Carlo loops,
//! and composite executions must surface as typed errors
//! — never panics, never silently wrong numbers.
//!
//! The second half exercises the resilience runtime end to end: under
//! [`RunPolicy::FailFast`] injected panics become typed errors, under
//! [`RunPolicy::Retry`] replicates recover on fresh deterministic
//! sub-seeds identically on every run, and under
//! [`RunPolicy::BestEffort`] the returned [`RunReport`] ledger matches the
//! injected [`FaultPlan`] exactly.

use model_data_ecosystems::core::composite::{CompositeModel, ParamAssignment};
use model_data_ecosystems::core::registry::{
    FnSimModel, ModelMetadata, PerfStats, PortSpec, Registry,
};
use model_data_ecosystems::core::CoreError;
use model_data_ecosystems::harmonize::series::TimeSeries;
use model_data_ecosystems::mcdb::mc::MonteCarloQuery;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{AggFunc, AggSpec};
use model_data_ecosystems::mcdb::schema::Schema;
use model_data_ecosystems::mcdb::vg::VgFunction;
use model_data_ecosystems::numeric::resilience::{FaultKind, FaultPlan, RunOptions, RunPolicy};
use std::sync::Arc;

/// A VG function that errors whenever its parameter is negative.
#[derive(Debug)]
struct FragileVg;

impl VgFunction for FragileVg {
    fn name(&self) -> &str {
        "Fragile"
    }

    fn output_schema(&self) -> Schema {
        Schema::from_pairs(&[("VALUE", DataType::Float)]).unwrap()
    }

    fn arity(&self) -> Option<usize> {
        Some(1)
    }

    fn generate(
        &self,
        params: &[Value],
        _rng: &mut model_data_ecosystems::numeric::rng::Rng,
    ) -> model_data_ecosystems::mcdb::Result<Vec<Vec<Value>>> {
        let p = params
            .first()
            .ok_or_else(|| {
                model_data_ecosystems::mcdb::McdbError::invalid_plan(
                    "Fragile requires exactly one parameter",
                )
            })?
            .as_f64()?;
        if p < 0.0 {
            return Err(model_data_ecosystems::mcdb::McdbError::invalid_plan(
                "negative parameter reached the stochastic model",
            ));
        }
        Ok(vec![vec![Value::Float(p)]])
    }
}

/// A catalog with one `P` column holding `values`, plus a Monte Carlo
/// query that pushes each `P` through [`FragileVg`] and sums the output.
fn fragile_setup(values: &[f64]) -> (Catalog, MonteCarloQuery) {
    let mut db = Catalog::new();
    let mut builder = Table::build("T", &[("P", DataType::Float)]);
    for &v in values {
        builder = builder.row(vec![Value::from(v)]);
    }
    db.insert(builder.finish().unwrap());
    let spec = RandomTableSpec::builder("OUT")
        .for_each(Plan::scan("T"))
        .with_vg(Arc::new(FragileVg))
        .vg_params_exprs(&[Expr::col("P")])
        .select(&[("V", Expr::col("VALUE"))])
        .build()
        .unwrap();
    let q = MonteCarloQuery::new(
        vec![spec],
        Plan::scan("OUT").aggregate(&[], vec![AggSpec::new("S", AggFunc::Sum, Expr::col("V"))]),
    );
    (db, q)
}

#[test]
fn vg_failure_surfaces_from_monte_carlo_loop() {
    let (db, q) = fragile_setup(&[1.0, -1.0]); // second row is poison
    let err = q.run(&db, 10, 1).unwrap_err();
    assert!(err.to_string().contains("negative parameter"), "{err}");
}

#[test]
fn composite_model_failure_surfaces_with_context() {
    let mut reg = Registry::new();
    reg.register_model(Arc::new(FnSimModel::new(
        ModelMetadata {
            name: "flaky".into(),
            description: "fails after 2 ticks".into(),
            inputs: vec![],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["x".into()],
                tick: 1.0,
            },
            params: vec![],
            perf: PerfStats::default(),
        },
        |_inputs, _params, rng| {
            if rng.gen::<f64>() < 0.5 {
                // Structural failure inside the model: invalid series.
                Ok(TimeSeries::univariate("x", vec![0.0, 0.0], vec![1.0, 2.0])?)
            } else {
                Ok(TimeSeries::univariate("x", vec![0.0, 1.0], vec![1.0, 2.0])?)
            }
        },
    )));
    let mut comp = CompositeModel::new();
    comp.add_model("flaky");
    let plan = comp.plan(&reg).unwrap();
    // Across enough repetitions the flaky branch triggers; the error is a
    // typed harmonization error, not a panic.
    let result = plan.run_monte_carlo(
        &ParamAssignment::new(),
        50,
        3,
        |_| 0.0,
        &RunOptions::default(),
    );
    match result {
        Err(CoreError::Harmonize(e)) => {
            assert!(e.to_string().contains("strictly increasing"), "{e}");
        }
        other => panic!("expected a harmonization error, got {other:?}"),
    }
}

#[test]
fn unknown_model_in_composite_is_reported_at_plan_time() {
    let reg = Registry::new();
    let mut comp = CompositeModel::new();
    comp.add_model("ghost");
    match comp.plan(&reg) {
        Err(CoreError::NotRegistered { kind, name }) => {
            assert_eq!(kind, "model");
            assert_eq!(name, "ghost");
        }
        Err(other) => panic!("expected NotRegistered, got {other:?}"),
        Ok(_) => panic!("expected NotRegistered, got a valid plan"),
    }
}

#[test]
fn sql_runtime_errors_are_typed() {
    let mut db = Catalog::new();
    db.insert(
        Table::build("t", &[("a", DataType::Int)])
            .row(vec![Value::from(1)])
            .finish()
            .unwrap(),
    );
    // Unknown column: caught at bind time with the available columns
    // listed.
    let err = db.sql("SELECT b FROM t").unwrap_err();
    assert!(err.to_string().contains('b'), "{err}");
    // Unknown table.
    let err = db.sql("SELECT * FROM nope").unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
    // Type error in a predicate.
    let err = db.sql("SELECT * FROM t WHERE a + 1").unwrap_err();
    assert!(err.to_string().to_lowercase().contains("bool"), "{err}");
}

// ---------------------------------------------------------------------------
// Resilience runtime: one case per RunPolicy, driven by a FaultPlan
// ---------------------------------------------------------------------------

#[test]
fn injected_panic_surfaces_as_typed_error_under_fail_fast() {
    let (db, q) = fragile_setup(&[1.0, 2.5]);
    let opts = RunOptions::policy(RunPolicy::FailFast).with_faults(FaultPlan::new().fail_on(
        2,
        0,
        FaultKind::Panic,
    ));
    // The panic is contained by the supervisor and surfaces as a typed
    // ReplicateFailed error naming the replicate — the caller never sees
    // an unwinding panic.
    let err = q.run_with_options(&db, 6, 1, &opts).unwrap_err();
    assert!(err.to_string().contains("replicate 2"), "{err}");
    assert!(err.to_string().contains("injected fault"), "{err}");
}

#[test]
fn retry_policy_recovers_identically_run_to_run() {
    let (db, q) = fragile_setup(&[1.0, 2.5]);
    let opts = RunOptions::policy(RunPolicy::Retry {
        max_attempts: 3,
        reseed: true,
    })
    .with_faults(
        FaultPlan::new()
            .fail_on(1, 0, FaultKind::Panic)
            .fail_on(3, 0, FaultKind::Error)
            .fail_on(4, 0, FaultKind::Nan),
    );
    let seq = q.run_with_options(&db, 8, 7, &opts).unwrap();
    // Every replicate recovered on its retry: a full sample, no drops.
    assert_eq!(seq.result.n(), 8);
    assert_eq!(seq.report.retried, 3);
    assert_eq!(seq.report.succeeded, 8);
    assert!(!seq.report.ci_widened);
    // Retry sub-seeds are a pure function of (seed, replicate, attempt),
    // so samples AND the failure ledger are bit-identical run to run.
    let again = q.run_with_options(&db, 8, 7, &opts).unwrap();
    assert_eq!(seq.result.samples(), again.result.samples());
    assert_eq!(seq.report, again.report);
}

#[test]
fn best_effort_ledger_matches_the_injected_fault_plan() {
    let (db, q) = fragile_setup(&[1.0, 2.5]);
    let faults = FaultPlan::new()
        .fail_on(0, 0, FaultKind::Panic)
        .fail_on(5, 0, FaultKind::Error)
        // Unreachable under max_attempts = 1: expected_failure_keys
        // filters it, and the run must agree.
        .fail_on(5, 1, FaultKind::Error);
    let opts =
        RunOptions::policy(RunPolicy::BestEffort { min_fraction: 0.5 }).with_faults(faults.clone());
    let run = q.run_with_options(&db, 10, 1, &opts).unwrap();
    assert_eq!(run.result.n(), 8);
    assert_eq!(run.report.dropped, 2);
    assert!(run.report.ci_widened);
    assert_eq!(
        run.report.failure_keys(),
        faults.expected_failure_keys(&opts.policy)
    );
    // Degrading below the policy floor is a typed error, never a silent
    // estimate from too few samples.
    let strict =
        RunOptions::policy(RunPolicy::BestEffort { min_fraction: 0.95 }).with_faults(faults);
    let err = q.run_with_options(&db, 10, 1, &strict).unwrap_err();
    assert!(err.to_string().contains("below its floor"), "{err}");
}

#[test]
fn fatal_model_errors_abort_under_every_policy() {
    // The poison row raises an invalid-plan error, classified Fatal:
    // retrying or dropping a configuration error can only waste budget or
    // hide the bug, so it aborts under every policy.
    let (db, q) = fragile_setup(&[1.0, -1.0]);
    for policy in [
        RunPolicy::FailFast,
        RunPolicy::Retry {
            max_attempts: 4,
            reseed: true,
        },
        RunPolicy::BestEffort { min_fraction: 0.0 },
    ] {
        let err = q
            .run_with_options(&db, 10, 1, &RunOptions::policy(policy))
            .unwrap_err();
        assert!(
            err.to_string().contains("negative parameter"),
            "{policy:?}: {err}"
        );
    }
}

#[test]
fn composite_supervision_retries_and_degrades_gracefully() {
    let mut reg = Registry::new();
    reg.register_model(Arc::new(FnSimModel::new(
        ModelMetadata {
            name: "steady".into(),
            description: "always produces a valid series".into(),
            inputs: vec![],
            output: PortSpec {
                name: "out".into(),
                channels: vec!["x".into()],
                tick: 1.0,
            },
            params: vec![],
            perf: PerfStats::default(),
        },
        |_inputs, _params, rng| {
            let v: f64 = rng.gen();
            Ok(TimeSeries::univariate(
                "x",
                vec![0.0, 1.0],
                vec![v, v + 1.0],
            )?)
        },
    )));
    let mut comp = CompositeModel::new();
    comp.add_model("steady");
    let plan = comp.plan(&reg).unwrap();

    // Retry: the injected panic is contained and the repetition recovers
    // on a fresh sub-seed, so all repetitions produce samples.
    let opts = RunOptions::policy(RunPolicy::Retry {
        max_attempts: 2,
        reseed: true,
    })
    .with_faults(FaultPlan::new().fail_on(2, 0, FaultKind::Panic));
    let (out, report) = plan
        .run_monte_carlo(&ParamAssignment::new(), 6, 3, |_| 1.0, &opts)
        .unwrap();
    assert_eq!(out.samples.len(), 6);
    assert_eq!(report.retried, 1);
    assert!(!report.ci_widened);

    // BestEffort: the failing repetition is dropped and the ledger matches
    // the injected plan exactly.
    let faults = FaultPlan::new().fail_on(1, 0, FaultKind::Error);
    let opts =
        RunOptions::policy(RunPolicy::BestEffort { min_fraction: 0.5 }).with_faults(faults.clone());
    let (out, report) = plan
        .run_monte_carlo(&ParamAssignment::new(), 6, 3, |_| 1.0, &opts)
        .unwrap();
    assert_eq!(out.samples.len(), 5);
    assert_eq!(report.dropped, 1);
    assert!(report.ci_widened);
    assert_eq!(
        report.failure_keys(),
        faults.expected_failure_keys(&opts.policy)
    );
}

#[test]
fn particle_filter_degrades_gracefully_under_best_effort() {
    use model_data_ecosystems::assim::pf::{BootstrapProposal, ParticleFilter, PfRun};
    use model_data_ecosystems::assim::wildfire::default_scenario;
    use model_data_ecosystems::numeric::rng::rng_from_seed;

    let model = default_scenario();
    let mut rng = rng_from_seed(11);
    let (_truth, obs) = model.simulate_truth(6, &mut rng);
    let faults = FaultPlan::new().fail_on(3, 0, FaultKind::Nan);
    let opts =
        RunOptions::policy(RunPolicy::BestEffort { min_fraction: 0.5 }).with_faults(faults.clone());
    let PfRun { steps, report, .. } = ParticleFilter::new(40, 1)
        .run(&model, &BootstrapProposal, &obs, &opts)
        .unwrap();
    // Output shape is preserved: one step per observation even though one
    // assimilation step was dropped.
    assert_eq!(steps.len(), 6);
    assert_eq!(report.dropped, 1);
    assert!(report.ci_widened);
    assert_eq!(
        report.failure_keys(),
        faults.expected_failure_keys(&opts.policy)
    );
    // The dropped step is visibly degraded, not silently wrong: the prior
    // particles carry forward, ESS is zeroed, evidence is NaN.
    assert_eq!(steps[3].ess, 0.0);
    assert!(steps[3].ln_evidence_increment.is_nan());
}

#[test]
fn invalid_budget_is_a_fatal_typed_error() {
    use model_data_ecosystems::numeric::{ErrorClass as _, Severity};
    let err = model_data_ecosystems::simopt::budget::n_max(1000.0, 2.0, 10.0, 1.0).unwrap_err();
    assert!(err.to_string().contains("(0, 1]"), "{err}");
    // Budget misconfiguration would fail identically on every attempt.
    assert_eq!(err.severity(), Severity::Fatal);
}
