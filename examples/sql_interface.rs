//! The Monte Carlo database, driven entirely from SQL text — the paper's
//! own interface. Declares the §2.1 SBP stochastic table with the paper's
//! `CREATE TABLE … AS FOR EACH … WITH … SELECT` DDL, realizes it under
//! Monte Carlo, and analyzes it with plain SELECTs.
//!
//! Run with: `cargo run --example sql_interface`

use model_data_ecosystems::mcdb::mc::MonteCarloQuery;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::PreparedQuery;
use model_data_ecosystems::mcdb::sql::{parse_create_random_table, plan_from_sql, VgRegistry};
use model_data_ecosystems::numeric::obs::{JsonlSink, Tracer};
use model_data_ecosystems::numeric::resilience::RunOptions;
use model_data_ecosystems::numeric::rng::rng_from_seed;
use std::sync::Arc;

fn main() {
    // ---- Ordinary tables.
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "PATIENTS",
            &[
                ("PID", DataType::Int),
                ("GENDER", DataType::Str),
                ("AGE", DataType::Int),
            ],
        )
        .rows((0..500).map(|i| {
            vec![
                Value::from(i),
                Value::from(if i % 2 == 0 { "F" } else { "M" }),
                Value::from(20 + (i * 7) % 60),
            ]
        }))
        .finish()
        .expect("static table"),
    );
    db.insert(
        Table::build(
            "SBP_PARAM",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(120.0), Value::from(15.0)])
        .finish()
        .expect("static table"),
    );

    // ---- The paper's stochastic-table DDL, verbatim shape.
    let ddl = "CREATE TABLE SBP_DATA(PID, GENDER, AGE, SBP) AS \
               FOR EACH PATIENTS \
               WITH Normal(SELECT MEAN, STD FROM SBP_PARAM) \
               SELECT PID, GENDER, AGE, VALUE AS SBP";
    println!("DDL:\n  {ddl}\n");
    let spec = parse_create_random_table(ddl, &VgRegistry::standard()).expect("valid DDL");

    // ---- One realization, inspected with SQL.
    let mut realized = db.clone();
    realized.insert(
        spec.realize(&db, &mut rng_from_seed(1))
            .expect("realization"),
    );
    let by_gender = realized
        .sql(
            "SELECT GENDER, COUNT(*) AS n, AVG(SBP) AS mean_sbp, MAX(SBP) AS max_sbp \
             FROM SBP_DATA GROUP BY GENDER ORDER BY GENDER",
        )
        .expect("query");
    println!("one realization, summarized by SQL:\n{by_gender}");

    // ---- Prepare once, run many: bind the analysis query to a physical
    // plan a single time, then execute the *same* prepared plan against a
    // fresh realization per replicate. This is exactly what the Monte Carlo
    // runners do internally — planning cost is paid once, not per replicate.
    let analysis =
        plan_from_sql("SELECT COUNT(*) AS n FROM SBP_DATA WHERE SBP >= 140 AND AGE > 50")
            .expect("valid SQL");
    let prepared_spec = spec.prepare(&db).expect("spec planning");
    let prepared_query = PreparedQuery::prepare(&analysis, &realized).expect("query planning");
    let mut rng = rng_from_seed(2);
    let mut counts = Vec::new();
    for _ in 0..5 {
        let mut scratch = db.clone();
        scratch.insert(prepared_spec.realize(&db, &mut rng).expect("realization"));
        let t = prepared_query
            .execute(&scratch)
            .expect("prepared execution");
        counts.push(t.rows()[0][0].clone());
    }
    println!("prepared plan, executed over 5 fresh realizations: {counts:?}\n");

    // ---- The same Monte Carlo question at scale: what is the distribution
    // of the hypertensive (SBP >= 140) count among patients over 50? The
    // runner prepares specs + query once and replicates execution.
    let question = "SELECT COUNT(*) AS n FROM SBP_DATA WHERE SBP >= 140 AND AGE > 50";
    let plan = plan_from_sql(question).expect("valid SQL");
    let mc = MonteCarloQuery::new(vec![spec], plan);
    let run = mc
        .run_with_options(&db, 500, 7, &RunOptions::default())
        .expect("Monte Carlo run");
    let res = &run.result;
    println!("Monte Carlo over: {question}");
    println!(
        "  mean count: {:.1}   95% of realizations within [{:.0}, {:.0}]",
        res.mean(),
        res.quantile(0.025).expect("quantile"),
        res.quantile(0.975).expect("quantile"),
    );
    let ci = res.mean_ci(0.95).expect("ci");
    println!("  95% CI for the mean: [{:.1}, {:.1}]", ci.lo, ci.hi);

    // ---- Every run carries a metrics ledger: deterministic counters and
    // value histograms (bit-identical when resumed or cached) plus
    // out-of-band latency/IO observations.
    println!("\nrun metrics ledger:\n{}", run.report.metrics.render());

    // ---- Optionally attach a structured trace: set MDE_TRACE_JSONL to a
    // file path to capture one traced execution of the analysis query as
    // one JSON object per span.
    if let Ok(path) = std::env::var("MDE_TRACE_JSONL") {
        let file = std::fs::File::create(&path).expect("trace file");
        let sink = Arc::new(JsonlSink::new(file));
        let tracer = Tracer::new(sink);
        realized
            .query_traced(&analysis, &tracer)
            .expect("traced query");
        drop(tracer);
        println!("span trace written to {path}");
    }
}
