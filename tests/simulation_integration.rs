//! Cross-crate simulation integration: the SimSQL ABS-in-the-database
//! path, the Indemics split, and assimilation over the wildfire model.

use model_data_ecosystems::abs::epidemic::{
    run_with_policy, EpidemicConfig, EpidemicModel, Intervention,
};
use model_data_ecosystems::assim::pf::{BootstrapProposal, ParticleFilter, StateSpaceModel};
use model_data_ecosystems::assim::wildfire::default_scenario;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::AggSpec;
use model_data_ecosystems::mcdb::simstep::SelfJoinSim;
use model_data_ecosystems::numeric::resilience::RunOptions;
use model_data_ecosystems::numeric::rng::rng_from_seed;
use std::sync::Arc;

/// The Wang-et-al path: an epidemic step executed as a self-join over an
/// agent table, queried with SQL between steps — SimSQL's "massive
/// stochastic ABS inside the database".
#[test]
fn abs_as_self_join_epidemic_with_sql_observation() {
    // Agents on a 1-D cell line; infection spreads to adjacent cells with
    // certainty (deterministic, so the front is exactly checkable by SQL).
    let agents = Table::build(
        "AGENTS",
        &[
            ("ID", DataType::Int),
            ("CELL", DataType::Int),
            ("SICK", DataType::Bool),
        ],
    )
    .rows((0..50).map(|i| {
        vec![
            Value::from(i),
            Value::from(i / 2), // two agents per cell
            Value::from(i == 0),
        ]
    }))
    .finish()
    .unwrap();

    let sim = SelfJoinSim::new(
        "CELL",
        |k: &Value| {
            let c = k.as_i64().expect("int key");
            vec![Value::Int(c - 1), Value::Int(c + 1)]
        },
        Arc::new(
            |agent: &Vec<Value>,
             neighbors: &[&Vec<Value>],
             _rng: &mut model_data_ecosystems::numeric::rng::Rng| {
                let sick = agent[2].as_bool()?;
                let exposure = neighbors.iter().any(|n| n[2].as_bool().unwrap_or(false));
                Ok(vec![
                    agent[0].clone(),
                    agent[1].clone(),
                    Value::Bool(sick || exposure),
                ])
            },
        ),
    );

    let states = sim.run(agents, 5, 99).unwrap();
    // Observe each step with SQL: count sick agents.
    let counts: Vec<i64> = states
        .iter()
        .map(|t| {
            let mut cat = Catalog::new();
            cat.insert(t.clone());
            cat.query(
                &Plan::scan("AGENTS")
                    .filter(Expr::col("SICK").eq(Expr::lit(true)))
                    .aggregate(&[], vec![AggSpec::count_star("N")]),
            )
            .unwrap()
            .scalar()
            .unwrap()
            .as_i64()
            .unwrap()
        })
        .collect();
    // Front advances one cell (2 agents) per step after the first, plus
    // the second agent of cell 0 at step 1: 1, 4, 6, 8, 10, 12.
    assert_eq!(counts[0], 1);
    assert_eq!(counts[1], 4);
    for w in counts.windows(2).skip(1) {
        assert_eq!(w[1] - w[0], 2);
    }
}

/// The Indemics division of labor under quarantine interventions: SQL
/// selects the intervention subset, the HPC engine applies it.
#[test]
fn quarantine_policy_reduces_attack_rate() {
    let cfg = EpidemicConfig {
        transmission_rate: 0.06,
        initial_infected: 8,
        ..EpidemicConfig::default()
    };
    let run = |quarantine: bool, seed: u64| {
        let mut m = EpidemicModel::synthetic(cfg, 800, seed);
        run_with_policy(&mut m, 80, seed ^ 3, |catalog, _day| {
            if !quarantine {
                return vec![];
            }
            // Quarantine every currently infected person (test & trace).
            let pids: Vec<i64> = catalog
                .query(&Plan::scan("InfectedPerson"))
                .unwrap()
                .column("pid")
                .unwrap()
                .iter()
                .map(|v| v.as_i64().unwrap())
                .collect();
            vec![Intervention::Quarantine(pids)]
        })
        .unwrap();
        m.attack_rate()
    };
    let mut base = 0.0;
    let mut quar = 0.0;
    for s in 0..3 {
        base += run(false, 10 + s);
        quar += run(true, 10 + s);
    }
    assert!(
        quar < base * 0.8,
        "quarantine did not reduce attack rate: {base} vs {quar}"
    );
}

/// Data assimilation end-to-end on the wildfire model: the filter's
/// burning-count estimate tracks truth within a reasonable band while the
/// raw model drifts.
#[test]
fn wildfire_filter_tracks_truth() {
    let model = default_scenario();
    let mut rng = rng_from_seed(77);
    let (truth, obs) = model.simulate_truth(12, &mut rng);
    let pf = ParticleFilter::new(150, 5);
    let steps = pf
        .run(&model, &BootstrapProposal, &obs, &RunOptions::default())
        .unwrap()
        .steps;
    let mut total_err = 0.0;
    for (s, t) in steps.iter().zip(&truth) {
        total_err += (s.estimate(|x| x.burning_count() as f64) - t.burning_count() as f64).abs();
    }
    let mean_err = total_err / truth.len() as f64;
    let mean_truth: f64 =
        truth.iter().map(|t| t.burning_count() as f64).sum::<f64>() / truth.len() as f64;
    assert!(
        mean_err < mean_truth * 0.5,
        "mean error {mean_err} vs mean truth {mean_truth}"
    );
    // Also verify the open-loop (no assimilation) baseline is worse — the
    // §3.2 headline.
    let mut open_rng = rng_from_seed(6);
    let mut open: Vec<_> = (0..150)
        .map(|_| model.sample_initial(&mut open_rng))
        .collect();
    let mut open_err = 0.0;
    for (t, tru) in truth.iter().enumerate() {
        if t > 0 {
            open = open
                .iter()
                .map(|s| model.sample_transition(s, &mut open_rng))
                .collect();
        }
        let est = open.iter().map(|s| s.burning_count() as f64).sum::<f64>() / 150.0;
        open_err += (est - tru.burning_count() as f64).abs();
    }
    assert!(
        total_err < open_err,
        "PF ({total_err}) should beat open loop ({open_err})"
    );
}
