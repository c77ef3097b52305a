//! E3 / E16 — §2.1 MCDB: the cost of a Monte Carlo replicate and MCDB-R
//! risk queries.

use mde_mcdb::mc::MonteCarloQuery;
use mde_mcdb::prelude::*;
use mde_mcdb::query::{AggFunc, AggSpec, PreparedQuery};
use mde_mcdb::vg::NormalVg;
use mde_mcdb::RunOptions;
use mde_numeric::rng::StreamFactory;
use mde_numeric::stats::quantiles;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn catalog(n_items: usize) -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "ITEMS",
            &[("IID", DataType::Int), ("REGION", DataType::Str)],
        )
        .rows((0..n_items).map(|i| {
            vec![
                Value::from(i as i64),
                Value::from(["east", "west", "north", "south"][i % 4]),
            ]
        }))
        .finish()
        .expect("static"),
    );
    db.insert(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(100.0), Value::from(20.0)])
        .finish()
        .expect("static"),
    );
    db
}

fn sales_spec() -> RandomTableSpec {
    RandomTableSpec::builder("SALES")
        .for_each(Plan::scan("ITEMS"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_query(Plan::scan("PARAMS"))
        .select(&[
            ("IID", Expr::col("IID")),
            ("REGION", Expr::col("REGION")),
            ("AMT", Expr::col("VALUE")),
        ])
        .build()
        .expect("valid spec")
}

fn revenue_plan() -> Plan {
    Plan::scan("SALES")
        .filter(Expr::col("REGION").eq(Expr::lit("east")))
        .project(&[("REV", Expr::col("AMT").mul(Expr::lit(1.1)))])
        .aggregate(
            &[],
            vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("REV"))],
        )
}

/// The 1×1 answer of one replicate.
fn scalar(answer: Table) -> f64 {
    answer.scalar().expect("scalar").as_f64().expect("numeric")
}

fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|v| v.to_bits()).collect()
}

/// Runs of each E3 cell; a cell prints their median and quartiles.
const E3_RUNS: usize = 5;

/// One E3 run at `n_items` × `n_iters`: N × realize and N × execute of the
/// split loop, then the `run` total and the plan-per-replicate total, with
/// the three loops' samples asserted equal bit for bit; and the share of the
/// run's replicates that tuple bundles answered.
fn plan_once_cells(n_items: usize, n_iters: usize, seed: u64) -> ([Duration; 4], f64) {
    let db = catalog(n_items);
    let spec = sales_spec();
    let plan = revenue_plan();
    // Replicate `i` realizes spec `k` on stream `k` of child `i`.
    let streams = StreamFactory::new(seed);

    // The default loop taken apart: prepare once, then clock the two
    // halves of every replicate separately.
    let prepared_spec = spec.prepare(&db).expect("prepare spec");
    let mut scratch = db.clone();
    scratch.insert(Table::new(
        prepared_spec.name(),
        prepared_spec.output_schema().clone(),
    ));
    let prepared_plan = PreparedQuery::prepare(&plan, &scratch).expect("prepare plan");
    let (mut realize, mut execute) = (Duration::ZERO, Duration::ZERO);
    let mut split = Vec::with_capacity(n_iters);
    for i in 0..n_iters {
        let mut rng = streams.child(i as u64).stream(0);
        let t = Instant::now();
        let sales = prepared_spec.realize(&scratch, &mut rng).expect("realize");
        realize += t.elapsed();
        scratch.insert(sales);
        let t = Instant::now();
        let answer = prepared_plan.execute(&scratch).expect("execute");
        execute += t.elapsed();
        split.push(scalar(answer));
    }

    // The default path, end to end.
    let t = Instant::now();
    let run = MonteCarloQuery::new(vec![spec.clone()], plan.clone())
        .run_with_options(&db, n_iters, seed, &RunOptions::default())
        .expect("run");
    let run_total = t.elapsed();
    let bundled = run.report.metrics.io_counter("mc.bundled") as f64 / n_iters as f64;
    let run = run.result;

    // Plan per replicate: nothing prepared, the spec and the query are
    // planned and bound again inside every replicate.
    let t = Instant::now();
    let mut scratch = db.clone();
    let mut replanned = Vec::with_capacity(n_iters);
    for i in 0..n_iters {
        let mut rng = streams.child(i as u64).stream(0);
        let sales = spec.realize(&scratch, &mut rng).expect("realize");
        scratch.insert(sales);
        replanned.push(scalar(scratch.query(&plan).expect("query")));
    }
    let replan_total = t.elapsed();

    assert_eq!(
        bits(run.samples()),
        bits(&replanned),
        "run / plan-per-replicate divergence"
    );
    assert_eq!(
        bits(run.samples()),
        bits(&split),
        "run / split-loop divergence"
    );
    ([realize, execute, run_total, replan_total], bundled)
}

/// E3: what one Monte Carlo replicate costs and where — generation against
/// plan execution, planning once against planning per replicate, and (the
/// `run` total against the split loop's) the invariant part run once.
pub(crate) fn mcdb_plan_once_report() -> String {
    const SEED: u64 = 1;
    let mut out = String::new();
    out.push_str("E3 | §2.1 MCDB: plan once, execute per replicate\n");
    out.push_str("query: SELECT SUM(1.1*AMT) FROM SALES WHERE REGION='east' (N MC replicates)\n");
    out.push_str(&format!(
        "cells: median [quartiles] of {E3_RUNS} runs, ms\n\n"
    ));
    let mut rows = Vec::new();
    // Per size, how the two totals' quartile ranges compare.
    let mut totals = Vec::new();
    for &(n_items, n_iters) in &[(16usize, 1000usize), (100, 100), (500, 200), (1000, 500)] {
        let (runs, bundled): (Vec<[Duration; 4]>, Vec<f64>) = (0..E3_RUNS)
            .map(|_| plan_once_cells(n_items, n_iters, SEED))
            .unzip();
        // Per column: [q1, median, q3] in ms.
        let cells: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                let ms: Vec<f64> = runs.iter().map(|r| r[c].as_secs_f64() * 1e3).collect();
                quantiles(&ms, &[0.25, 0.5, 0.75]).expect("runs")
            })
            .collect();
        let cell = |q: &[f64]| format!("{:.1} [{:.1}, {:.1}]", q[1], q[0], q[2]);
        let (run_q, replan_q) = (&cells[2], &cells[3]);
        totals.push(format!(
            "{n_items}x{n_iters} {}",
            if run_q[2] < replan_q[0] {
                "run faster"
            } else if replan_q[2] < run_q[0] {
                "plan-per-replicate faster"
            } else {
                "ranges overlap"
            }
        ));
        rows.push(vec![
            format!("{n_items}x{n_iters}"),
            cell(&cells[0]),
            cell(&cells[1]),
            format!("{:.0}%", 100.0 * cells[0][1] / (cells[0][1] + cells[1][1])),
            cell(run_q),
            format!("{:.0}%", 100.0 * bundled[0]),
            cell(replan_q),
        ]);
    }
    out.push_str(&crate::render_table(
        &[
            "items x iters",
            "N x realize (ms)",
            "N x execute (ms)",
            "realize share",
            "run total (ms)",
            "bundled",
            "plan-per-replicate total (ms)",
        ],
        &rows,
    ));
    out.push_str(
        "\nSemantics verified: `MonteCarloQuery::run`, the split loop and the plan-per-replicate\n\
         loop return the same samples bit for bit.\n",
    );
    out.push_str(&format!(
        "The two totals' quartile ranges: {}.\n",
        totals.join(", ")
    ));
    out.push_str(
        "Finding: a tuple-bundle *interpreter* has nothing to win on this substrate - one that\n\
         executed the plan once measured 3x slower than N executions of the prepared vectorized\n\
         plan (20 ms against 5 ms at 1000x500) and was removed. What carries over is MCDB's\n\
         \"run the plan once\" inside the one engine. Replicate-invariant work runs once per run:\n\
         the driver query, the parameter query and every sub-plan that reads no stochastic\n\
         table; a VG is called once per batch of driver rows and a run keeps its parameter\n\
         columns. And where the query reaches its stochastic table through filters, projections\n\
         and aggregates alone, as this one does, the run realizes a tuple bundle of replicates\n\
         (up to 4096 rows) into one lane-tagged batch and answers all of them with one\n\
         execution of the plan grouped by lane (the bundled column: the replicates a bundle\n\
         answered). The fewer rows a replicate has, the more the bundle saves, because the\n\
         per-replicate overhead it removes - a realization's and an execution's fixed cost -\n\
         weighs most there. The realize and execute columns are the public prepare + realize\n\
         and prepare + execute per replicate, which must re-run the driver and parameter\n\
         queries. Still paid per replicate inside a run: the draws, the select list over them,\n\
         and the boundary protocol's ledger.\n",
    );
    out.push_str(&frame_stages_section());
    out
}

/// The olap benchmark's star schema (`benchmark/src/wire.rs`): 65 536
/// facts over 1 000 dimension rows carrying 3 labels, `V` scrambled, `Q`
/// monotone.
fn star_catalog() -> Catalog {
    const FACTS: u64 = 65_536;
    const N_DIM: u64 = 1_000;
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "FACT",
            &[
                ("K", DataType::Int),
                ("G", DataType::Int),
                ("V", DataType::Float),
                ("Q", DataType::Int),
            ],
        )
        .rows((0..FACTS).map(|i| {
            let h = (i.wrapping_mul(2_654_435_761).wrapping_add(21)) % 100_003;
            vec![
                Value::from((h % N_DIM) as i64),
                Value::from((h % 16) as i64),
                Value::from(h as f64 / 100.0 - 450.0),
                Value::from(i as i64),
            ]
        }))
        .finish()
        .expect("static"),
    );
    db.insert(
        Table::build(
            "DIM",
            &[
                ("DK", DataType::Int),
                ("W", DataType::Float),
                ("LABEL", DataType::Str),
            ],
        )
        .rows((0..N_DIM).map(|j| {
            vec![
                Value::from(j as i64),
                Value::from(1.0 + (j * 7 % 1000) as f64 / 1000.0),
                Value::from(["red", "green", "blue"][(j % 3) as usize]),
            ]
        }))
        .finish()
        .expect("static"),
    );
    db
}

/// Every cell of `t` as bits (floats by `to_bits`), row-major.
fn table_bits(t: &Table) -> Vec<String> {
    let batch = t.batch();
    (0..batch.len())
        .flat_map(|i| batch.row(i))
        .map(|v| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => other.to_string(),
        })
        .collect()
}

/// The fastest of `reps` traced executions of `plan`, as each operator's
/// *self* time (its span minus its children's) in nanoseconds, by name.
fn operator_self_nanos(db: &Catalog, plan: &Plan, reps: usize) -> Vec<(String, u64)> {
    use mde_numeric::obs::{MemorySink, Tracer};
    let prepared = PreparedQuery::prepare(plan, db).expect("prepare");
    let mut best: Vec<(String, u64)> = Vec::new();
    for _ in 0..reps {
        let sink = Arc::new(MemorySink::new());
        prepared
            .execute_traced(db, &Tracer::new(sink.clone()))
            .expect("execute");
        let records = sink.records();
        let run: Vec<(String, u64)> = records
            .iter()
            .map(|r| {
                let children: u64 = records
                    .iter()
                    .filter(|c| c.parent == r.id)
                    .map(|c| c.duration_nanos)
                    .sum();
                (r.name.clone(), r.duration_nanos.saturating_sub(children))
            })
            .collect();
        if best.is_empty() {
            best = run;
        } else {
            for (b, r) in best.iter_mut().zip(run) {
                b.1 = b.1.min(r.1);
            }
        }
    }
    best
}

/// The join-frame and group-by shapes of the olap benchmark, stage by
/// stage in ns per input lane, answers held to the reference interpreter's
/// bits.
fn frame_stages_section() -> String {
    const REPS: usize = 9;
    let db = star_catalog();
    let lanes = db.get("FACT").expect("FACT").len() as f64;
    let hot = Expr::col("V").add(Expr::lit(450)).gt(Expr::lit(9.5));
    let joined = || {
        Plan::scan("FACT")
            .join(Plan::scan("DIM"), &[("K", "DK")])
            .filter(hot.clone())
    };
    let sum_v = || AggSpec::new("T", AggFunc::Sum, Expr::col("V"));
    // SELECT LABEL, COUNT(*), SUM(V) FROM FACT JOIN DIM ON K = DK
    //   WHERE V + 450 > 9.5 GROUP BY LABEL
    let join_frame = joined().aggregate(&["LABEL"], vec![AggSpec::count_star("N"), sum_v()]);
    // The same with the stages after the probe, then after the group
    // assignment, taken away: the join emits no column, the fold only counts.
    let probe_only = joined().aggregate(&[], vec![AggSpec::count_star("N")]);
    let groups_only = joined().aggregate(&["LABEL"], vec![AggSpec::count_star("N")]);
    // SELECT G, COUNT(*), AVG(V) FROM FACT WHERE Q >= 600 GROUP BY G
    let late = || Plan::scan("FACT").filter(Expr::col("Q").ge(Expr::lit(600)));
    let avg_v = AggSpec::new("M", AggFunc::Avg, Expr::col("V"));
    let group_frame = late().aggregate(&["G"], vec![AggSpec::count_star("N"), avg_v]);
    let group_ids_only = late().aggregate(&["G"], vec![AggSpec::count_star("N")]);

    for (what, plan) in [("join", &join_frame), ("group-by", &group_frame)] {
        let engine = db.query(plan).expect("engine");
        let reference =
            mde_mcdb::query::reference::execute(plan, &db).expect("reference interpreter");
        assert_eq!(
            table_bits(&engine),
            table_bits(&reference),
            "{what} frame: engine / reference interpreter divergence"
        );
    }

    let stage = |plan: &Plan, op: &str| -> f64 {
        let spans = operator_self_nanos(&db, plan, REPS);
        let (_, nanos) = spans.iter().find(|(name, _)| name == op).expect("operator");
        *nanos as f64 / lanes
    };
    let ns = |x: f64| format!("{x:.1}");
    let (probe, groups) = (stage(&probe_only, "join"), stage(&groups_only, "aggregate"));
    let group_ids = stage(&group_ids_only, "aggregate");
    let rows = vec![
        vec![
            "join frame".to_string(),
            ns(stage(&join_frame, "filter")),
            ns(probe),
            ns((stage(&join_frame, "join") - probe).max(0.0)),
            ns(groups),
            ns((stage(&join_frame, "aggregate") - groups).max(0.0)),
        ],
        vec![
            "group-by frame".to_string(),
            ns(stage(&group_frame, "filter")),
            "-".to_string(),
            "-".to_string(),
            ns(group_ids),
            ns((stage(&group_frame, "aggregate") - group_ids).max(0.0)),
        ],
    ];
    let mut out = String::from(
        "\nThe olap benchmark's frames, stage by stage (65 536 facts x 1 000 dimension rows,\n\
         3 labels / 16 groups; ns per FACT lane, fastest of 9 traced runs, one thread):\n\
         join:     SELECT LABEL, COUNT(*), SUM(V) FROM FACT JOIN DIM ON K = DK\n\
         \x20         WHERE V + 450 > 9.5 GROUP BY LABEL\n\
         group-by: SELECT G, COUNT(*), AVG(V) FROM FACT WHERE Q >= 600 GROUP BY G\n\n",
    );
    out.push_str(&crate::render_table(
        &[
            "frame",
            "predicate",
            "probe",
            "gather",
            "group assignment",
            "fold",
        ],
        &rows,
    ));
    out.push_str(
        "\nSemantics verified: both frames equal the reference interpreter's answer cell by cell,\n\
         floats by `to_bits`. A stage is an operator's self time (its span minus its children's);\n\
         probe is the join with no column to emit, gather what emitting V and LABEL adds; group\n\
         assignment is the aggregate that only counts, fold what SUM / AVG over V adds. Every\n\
         operator is one pass over its input on the calling thread: the morsel split with worker\n\
         threads was deleted in PR 25 (at 2 threads the join frame ran at 0.82x, the group-by\n\
         frame at 0.73x; at 1 thread, 4 096-lane morsels and one morsel per input timed the same).\n",
    );
    out
}

/// E16: MCDB-R risk analysis (extreme quantiles) and threshold queries.
pub(crate) fn mcdb_risk_report() -> String {
    let db = catalog(200);
    let q = MonteCarloQuery::new(vec![sales_spec()], revenue_plan());
    let res = q.run(&db, 4000, 7).expect("MC run");

    // Truth: east region has 50 items; total = 1.1 * Σ N(100, 20) ⇒
    // N(5500, 1.1·20·√50 ≈ 155.6).
    let true_mean = 5500.0;
    let true_std = 1.1 * 20.0 * (50.0f64).sqrt();
    let z99 = 2.326_347_874;

    let mut out = String::new();
    out.push_str("E16 | §2.1 MCDB-R: risk (extreme quantiles) and threshold queries\n");
    out.push_str("east-region revenue distribution, 4000 MC iterations\n\n");
    let mut rows = Vec::new();
    for &(label, p, truth) in &[
        ("median", 0.5, true_mean),
        ("q90", 0.9, true_mean + 1.2816 * true_std),
        ("q99 (VaR)", 0.99, true_mean + z99 * true_std),
        ("q999", 0.999, true_mean + 3.0902 * true_std),
    ] {
        let est = res.quantile(p).expect("quantile");
        rows.push(vec![
            label.to_string(),
            crate::f(est),
            crate::f(truth),
            format!("{:+.1}%", (est - truth) / truth * 100.0),
        ]);
    }
    out.push_str(&crate::render_table(
        &["quantile", "estimate", "closed form", "error"],
        &rows,
    ));

    out.push_str("\nThreshold queries (Perez et al.): is P(revenue > x) >= p?\n");
    let mut trows = Vec::new();
    for &(x, p) in &[(5400.0, 0.5), (5500.0, 0.5), (5800.0, 0.5), (5700.0, 0.1)] {
        let ci = res.prob_above(x, 0.95).expect("wilson");
        let decision = res.threshold_decision(x, p, 0.95).expect("decision");
        trows.push(vec![
            format!("P(rev > {x}) >= {p}?"),
            format!("{:.3}", ci.estimate),
            format!("[{:.3}, {:.3}]", ci.lo, ci.hi),
            match decision {
                Some(true) => "YES".into(),
                Some(false) => "NO".into(),
                None => "inconclusive".into(),
            },
        ]);
    }
    out.push_str(&crate::render_table(
        &["query", "P-hat", "95% Wilson CI", "decision"],
        &trows,
    ));

    // The paper's verbatim grouped threshold query: "Which regions will
    // see more than a 2% decline in sales with at least 50% probability?"
    out.push_str(
        "\nWhich regions will see more than a 2% decline in sales with >= 50% probability?\n",
    );
    // Last year's sales were 1000 in every region; next year's are
    // N(forecast, 30).
    let regions = [
        ("east", 1010.0),
        ("west", 985.0),
        ("north", 940.0),
        ("south", 979.0),
    ];
    let mut db2 = Catalog::new();
    db2.insert(
        Table::build(
            "REGIONS",
            &[
                ("NAME", DataType::Str),
                ("LAST_YEAR", DataType::Float),
                ("FORECAST_MEAN", DataType::Float),
            ],
        )
        .rows(
            regions.iter().map(|&(name, mean)| {
                vec![Value::from(name), Value::from(1000.0), Value::from(mean)]
            }),
        )
        .finish()
        .expect("static"),
    );
    let spec = RandomTableSpec::builder("NEXT_SALES")
        .for_each(Plan::scan("REGIONS"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::col("FORECAST_MEAN"), Expr::lit(30.0)])
        .select(&[
            ("REGION", Expr::col("NAME")),
            (
                "REL_CHANGE",
                Expr::col("VALUE")
                    .sub(Expr::col("LAST_YEAR"))
                    .div(Expr::col("LAST_YEAR")),
            ),
        ])
        .build()
        .expect("valid spec");
    // One Monte Carlo run per region on the same seed: replicate `i`
    // realizes the same NEXT_SALES in every run, and the run for a region
    // reads that region's row of the grouped decline.
    let decline = Plan::scan("NEXT_SALES").aggregate(
        &["REGION"],
        vec![AggSpec::new(
            "DECLINE",
            AggFunc::Avg,
            Expr::col("REL_CHANGE").neg(),
        )],
    );
    let mut grows = Vec::new();
    for (name, _) in regions {
        let query = decline
            .clone()
            .filter(Expr::col("REGION").eq(Expr::lit(name)))
            .project(&[("DECLINE", Expr::col("DECLINE"))]);
        let res = MonteCarloQuery::new(vec![spec.clone()], query)
            .run(&db2, 2000, 17)
            .expect("per-region MC");
        let p = res.prob_above(0.02, 0.95).expect("wilson");
        let decision = res.threshold_decision(0.02, 0.5, 0.95).expect("decision");
        grows.push(vec![
            name.to_string(),
            format!("{:.3}", p.estimate),
            match decision {
                Some(true) => "YES — flag this region".into(),
                Some(false) => "no".into(),
                None => "inconclusive".into(),
            },
        ]);
    }
    out.push_str(&crate::render_table(
        &["region", "P(decline > 2%)", "decision"],
        &grows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn risk_quantiles_match_closed_form() {
        let db = catalog(200);
        let q = MonteCarloQuery::new(vec![sales_spec()], revenue_plan());
        let res = q.run(&db, 2000, 7).unwrap();
        let true_mean = 5500.0;
        let true_std = 1.1 * 20.0 * (50.0f64).sqrt();
        let q99 = res.quantile(0.99).unwrap();
        let expected = true_mean + 2.3263 * true_std;
        assert!(
            ((q99 - expected) / expected).abs() < 0.02,
            "q99 {q99} vs {expected}"
        );
    }
}
