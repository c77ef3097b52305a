//! Criterion benchmarks for the logical→physical query pipeline: the
//! vectorized columnar engine vs the legacy row-at-a-time executor on
//! filter / join / group-by / top-k at ~10^5 rows, plus the prepare-once /
//! execute-many split that Monte Carlo replication relies on.
//!
//! Run with `cargo bench -p mde-bench --bench query_engine`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use mde_mcdb::mc::MonteCarloQuery;
use mde_mcdb::prelude::*;
use mde_mcdb::query::{AggFunc, AggSpec, PreparedQuery, SortKey};
use mde_mcdb::vg::NormalVg;

const FACT_ROWS: usize = 100_000;
const DIM_ROWS: usize = 1_000;

/// A deterministic 10^5-row star-schema catalog: FACT(K, G, V, Q) with a
/// 1000-key join column and a 16-way group column, DIM(K, LABEL).
fn star_catalog() -> Catalog {
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
        .rows((0..FACT_ROWS).map(|i| {
            // Cheap deterministic scramble so values are unordered but
            // reproducible without an RNG dependency in the setup path.
            let h = (i as u64).wrapping_mul(2654435761) % 100_003;
            vec![
                Value::from((h % DIM_ROWS as u64) as i64),
                Value::from((h % 16) as i64),
                Value::from(h as f64 / 100.0 - 450.0),
                Value::from(i as i64),
            ]
        }))
        .finish()
        .unwrap(),
    );
    db.insert(
        Table::build("DIM", &[("K", DataType::Int), ("LABEL", DataType::Str)])
            .rows((0..DIM_ROWS).map(|j| {
                vec![
                    Value::from(j as i64),
                    Value::from(["red", "green", "blue"][j % 3]),
                ]
            }))
            .finish()
            .unwrap(),
    );
    db
}

fn filter_plan() -> Plan {
    Plan::scan("FACT").filter(
        Expr::col("V")
            .gt(Expr::lit(0.0))
            .and(Expr::col("Q").le(Expr::lit((FACT_ROWS / 2) as i64))),
    )
}

fn join_plan() -> Plan {
    Plan::scan("FACT")
        .join(Plan::scan("DIM"), &[("K", "K")])
        .filter(Expr::col("V").gt(Expr::lit(250.0)))
}

fn group_by_plan() -> Plan {
    Plan::scan("FACT").aggregate(
        &["G"],
        vec![
            AggSpec::count_star("N"),
            AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("V")),
            AggSpec::new("PEAK", AggFunc::Max, Expr::col("V")),
        ],
    )
}

fn top_k_plan() -> Plan {
    Plan::scan("FACT")
        .filter(Expr::col("V").gt(Expr::lit(250.0)))
        .sort(vec![SortKey::desc(Expr::col("V"))])
        .limit(10)
}

/// Vectorized (default) vs legacy executor on the core operators.
fn bench_operators(c: &mut Criterion) {
    let db = star_catalog();
    let mut group = c.benchmark_group("query_engine");
    group.sample_size(10);
    for (name, plan) in [
        ("filter_100k", filter_plan()),
        ("join_100k_x_1k", join_plan()),
        ("group_by_100k", group_by_plan()),
        ("top_k_100k", top_k_plan()),
    ] {
        group.bench_with_input(BenchmarkId::new("vectorized", name), &plan, |b, plan| {
            b.iter(|| black_box(db.query(black_box(plan)).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("legacy_rows", name), &plan, |b, plan| {
            b.iter(|| black_box(db.query_unoptimized(black_box(plan)).unwrap()))
        });
    }
    group.finish();
}

/// Planning amortization: preparing a physical plan once and executing it
/// repeatedly vs re-planning on every execution.
fn bench_prepare_once(c: &mut Criterion) {
    let db = star_catalog();
    let plan = join_plan().aggregate(
        &["LABEL"],
        vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("V"))],
    );
    let mut group = c.benchmark_group("query_engine_prepare");
    group.sample_size(10);
    group.bench_function("prepare_once_execute_100", |b| {
        b.iter(|| {
            let prepared = PreparedQuery::prepare(&plan, &db).unwrap();
            for _ in 0..100 {
                black_box(prepared.execute(&db).unwrap());
            }
        })
    });
    group.bench_function("replan_every_execute_100", |b| {
        b.iter(|| {
            for _ in 0..100 {
                black_box(db.query(&plan).unwrap());
            }
        })
    });
    group.finish();
}

/// End-to-end Monte Carlo query at 100 replicates: the runner plans the
/// stochastic specs and the aggregate query once, then only realization
/// and vectorized execution repeat per replicate.
fn bench_mc_replicates(c: &mut Criterion) {
    let mut db = Catalog::new();
    db.insert(
        Table::build("ITEMS", &[("IID", DataType::Int)])
            .rows((0..500).map(|i| vec![Value::from(i as i64)]))
            .finish()
            .unwrap(),
    );
    db.insert(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(100.0), Value::from(20.0)])
        .finish()
        .unwrap(),
    );
    let spec = RandomTableSpec::builder("SALES")
        .for_each(Plan::scan("ITEMS"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_query(Plan::scan("PARAMS"))
        .select(&[("IID", Expr::col("IID")), ("AMT", Expr::col("VALUE"))])
        .build()
        .unwrap();
    let plan = Plan::scan("SALES")
        .filter(Expr::col("AMT").gt(Expr::lit(95.0)))
        .aggregate(&[], vec![AggSpec::new("T", AggFunc::Sum, Expr::col("AMT"))]);
    let q = MonteCarloQuery::new(vec![spec], plan);
    let mut group = c.benchmark_group("query_engine_mc");
    group.sample_size(10);
    group.bench_function("mc_query_500rows_100reps", |b| {
        b.iter(|| black_box(q.run(&db, 100, 42).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_operators,
    bench_prepare_once,
    bench_mc_replicates
);
criterion_main!(benches);
