//! E7 — §2.4 Algorithm 1: the Indemics intervention loop.
//!
//! "Vaccinate preschoolers if more than 1% are sick", expressed as SQL
//! queries over the exported network tables, with the epidemic engine in
//! the HPC role — compared against no intervention and against a
//! quarantine policy, over several stochastic replicates.

use mde_abs::epidemic::{
    run_with_policy, EpidemicConfig, EpidemicModel, HealthState, Intervention, Person,
};
use mde_mcdb::prelude::*;
use mde_mcdb::query::AggSpec;

fn preschool_attack(m: &EpidemicModel) -> f64 {
    let kids: Vec<&Person> = m
        .people()
        .iter()
        .filter(|p| (0..=4).contains(&p.age))
        .collect();
    kids.iter()
        .filter(|p| {
            matches!(
                p.state,
                HealthState::Infected { .. } | HealthState::Recovered
            )
        })
        .count() as f64
        / kids.len().max(1) as f64
}

#[derive(Clone, Copy, PartialEq)]
enum Policy {
    None,
    VaccinatePreschool,
    QuarantineInfected,
}

fn run(policy: Policy, seed: u64) -> (EpidemicModel, usize) {
    let cfg = EpidemicConfig {
        transmission_rate: 0.05,
        initial_infected: 10,
        ..EpidemicConfig::default()
    };
    let mut m = EpidemicModel::synthetic(cfg, 1500, seed);
    let mut interventions = 0usize;
    run_with_policy(&mut m, 120, seed ^ 0xbeef, |catalog, _day| {
        match policy {
            Policy::None => vec![],
            Policy::VaccinatePreschool => {
                // Algorithm 1, line for line.
                let preschool = Plan::scan("Person").filter(
                    Expr::col("age")
                        .ge(Expr::lit(0))
                        .and(Expr::col("age").le(Expr::lit(4))),
                );
                let n_preschool = catalog
                    .query(
                        &preschool
                            .clone()
                            .aggregate(&[], vec![AggSpec::count_star("n")]),
                    )
                    .and_then(|t| t.scalar())
                    .and_then(|v| v.as_i64())
                    .expect("count");
                let n_infected = catalog
                    .query(
                        &preschool
                            .clone()
                            .join(Plan::scan("InfectedPerson"), &[("pid", "pid")])
                            .aggregate(&[], vec![AggSpec::count_star("n")]),
                    )
                    .and_then(|t| t.scalar())
                    .and_then(|v| v.as_i64())
                    .expect("join count");
                if n_preschool > 0 && n_infected * 100 > n_preschool {
                    interventions += 1;
                    let pids = catalog
                        .query(&preschool.project(&[("pid", Expr::col("pid"))]))
                        .expect("pids")
                        .column("pid")
                        .expect("pid col")
                        .iter()
                        .map(|v| v.as_i64().expect("int"))
                        .collect();
                    vec![Intervention::Vaccinate(pids)]
                } else {
                    vec![]
                }
            }
            Policy::QuarantineInfected => {
                let pids: Vec<i64> = catalog
                    .query(&Plan::scan("InfectedPerson"))
                    .expect("scan")
                    .column("pid")
                    .expect("pid col")
                    .iter()
                    .map(|v| v.as_i64().expect("int"))
                    .collect();
                if pids.is_empty() {
                    vec![]
                } else {
                    interventions += 1;
                    vec![Intervention::Quarantine(pids)]
                }
            }
        }
    })
    .expect("policy run");
    (m, interventions)
}

/// Regenerate the Algorithm 1 comparison.
pub(crate) fn indemics_report() -> String {
    let mut out = String::new();
    out.push_str("E7 | §2.4 Algorithm 1: query-driven interventions (Indemics)\n");
    out.push_str("1500 people, 120 days, 3 stochastic replicates per policy\n\n");
    let mut rows = Vec::new();
    for (name, policy) in [
        ("no intervention", Policy::None),
        (
            "Algorithm 1 (vaccinate preschool @ >1%)",
            Policy::VaccinatePreschool,
        ),
        (
            "quarantine infected (test & trace)",
            Policy::QuarantineInfected,
        ),
    ] {
        let (mut overall, mut preschool, mut ivs) = (0.0, 0.0, 0usize);
        let reps = 3;
        for s in 0..reps {
            let (m, n_iv) = run(policy, 100 + s);
            overall += m.attack_rate() / reps as f64;
            preschool += preschool_attack(&m) / reps as f64;
            ivs += n_iv;
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.1}%", overall * 100.0),
            format!("{:.1}%", preschool * 100.0),
            (ivs / reps as usize).to_string(),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "policy",
            "overall attack rate",
            "preschool attack rate",
            "intervention days (avg)",
        ],
        &rows,
    ));
    out.push_str(
        "\nThe Algorithm 1 policy slashes the preschool attack rate (the targeted\n\
         subpopulation) while SQL expresses both the trigger condition and the subset —\n\
         the paper's 'interactive extension to partially observed MDPs'.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaccination_protects_preschoolers_in_most_replicates() {
        let mut better = 0;
        for s in 0..3 {
            let (base, _) = run(Policy::None, 200 + s);
            let (vacc, _) = run(Policy::VaccinatePreschool, 200 + s);
            if preschool_attack(&vacc) <= preschool_attack(&base) {
                better += 1;
            }
        }
        assert!(better >= 2, "policy failed in most replicates");
    }
}
