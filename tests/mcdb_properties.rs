//! Property-based integration tests for the Monte Carlo database.
//!
//! The load-bearing invariant of MCDB's performance story (§2.1): tuple-
//! bundle execution must be *semantically invisible* — instantiating
//! iteration `i` of a bundled query result equals running the ordinary
//! executor on iteration `i` of the inputs, for random queries over random
//! stochastic tables.

use model_data_ecosystems::mcdb::bundle::{execute_bundled, BundledCatalog, BundledTable};
use model_data_ecosystems::mcdb::expr::ScalarFunc;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{AggFunc, AggSpec};
use model_data_ecosystems::mcdb::vg::NormalVg;
use model_data_ecosystems::numeric::rng::{for_cases, rng_from_seed};
use std::sync::Arc;

fn base_catalog(n_items: usize, mean: f64, std: f64) -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build("ITEMS", &[("IID", DataType::Int), ("GROUP", DataType::Str)])
            .rows(
                (0..n_items)
                    .map(|i| vec![Value::from(i as i64), Value::from(["a", "b", "c"][i % 3])]),
            )
            .finish()
            .unwrap(),
    );
    db.insert(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(mean), Value::from(std)])
        .finish()
        .unwrap(),
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
            ("GROUP", Expr::col("GROUP")),
            ("AMT", Expr::col("VALUE")),
        ])
        .build()
        .unwrap()
}

/// A small family of query plans exercising filter/project/join/aggregate.
fn plan_for(case: u8, threshold: f64) -> Plan {
    match case % 4 {
        0 => Plan::scan("SALES").filter(Expr::col("AMT").gt(Expr::lit(threshold))),
        1 => Plan::scan("SALES")
            .project(&[
                ("IID", Expr::col("IID")),
                ("TAXED", Expr::col("AMT").mul(Expr::lit(1.2))),
            ])
            .filter(Expr::col("TAXED").lt(Expr::lit(threshold * 2.0))),
        2 => Plan::scan("SALES").aggregate(
            &["GROUP"],
            vec![
                AggSpec::count_star("N"),
                AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("AMT")),
            ],
        ),
        _ => Plan::scan("SALES")
            .join(Plan::scan("ITEMS"), &[("IID", "IID")])
            .filter(Expr::col("AMT").gt(Expr::lit(threshold)))
            .aggregate(&[], vec![AggSpec::new("M", AggFunc::Max, Expr::col("AMT"))]),
    }
}

/// A catalog with NULLs sprinkled into join/group keys and values so the
/// differential test hits the semantic edges (NULL keys never match, NULL
/// groups do group together, NULL predicates mean "drop the row").
fn edge_catalog(n_rows: usize, null_every: usize) -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "FACT",
            &[
                ("K", DataType::Int),
                ("V", DataType::Float),
                ("Q", DataType::Int),
            ],
        )
        .rows((0..n_rows).map(|i| {
            let k = if i % null_every == 0 {
                Value::Null
            } else {
                Value::from((i % 5) as i64)
            };
            let v = if i % (null_every + 2) == 0 {
                Value::Null
            } else {
                Value::from(i as f64 - 7.5)
            };
            vec![k, v, Value::from(i as i64 - 3)]
        }))
        .finish()
        .unwrap(),
    );
    db.insert(
        Table::build("DIM", &[("K", DataType::Int), ("LABEL", DataType::Str)])
            .rows((0..4).map(|j| {
                let k = if j == 0 {
                    Value::Null
                } else {
                    Value::from(j as i64)
                };
                vec![k, Value::from(["none", "lo", "mid", "hi"][j])]
            }))
            .finish()
            .unwrap(),
    );
    db
}

/// Edge-case plan family: each arm stresses one semantic corner that a
/// vectorized engine can easily get subtly wrong.
fn edge_plan_for(case: u8, divisor: i64, threshold: f64, limit: usize) -> Plan {
    match case % 6 {
        // NULL join keys must never match, and fact-major row order must
        // survive regardless of which side the hash table is built on.
        0 => Plan::scan("FACT")
            .join(Plan::scan("DIM"), &[("K", "K")])
            .filter(Expr::col("V").gt(Expr::lit(threshold))),
        // Int/Int division coerces to Float; divisor 0 yields NULL, which
        // as a filter predicate drops the row (no error).
        1 => Plan::scan("FACT")
            .project(&[
                ("K", Expr::col("K")),
                ("RATIO", Expr::col("Q").div(Expr::lit(divisor))),
            ])
            .filter(Expr::col("RATIO").ge(Expr::lit(0))),
        // NULL group keys group together; SUM over all-NULL groups is NULL.
        2 => Plan::scan("FACT").aggregate(
            &["K"],
            vec![
                AggSpec::count_star("N"),
                AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("V")),
                AggSpec::new("PEAK", AggFunc::Max, Expr::col("Q")),
            ],
        ),
        // Kleene three-valued logic: NULL OR true = true, NULL AND x = NULL
        // or false — no short-circuit divergence allowed.
        3 => Plan::scan("FACT").filter(
            Expr::col("V")
                .gt(Expr::lit(threshold))
                .or(Expr::col("K").is_null())
                .and(Expr::col("Q").ne(Expr::lit(divisor))),
        ),
        // Sqrt of negatives is NULL; projection then sort puts NULLs first.
        4 => Plan::scan("FACT")
            .project(&[
                ("K", Expr::col("K")),
                ("ROOT", Expr::col("V").func(ScalarFunc::Sqrt)),
            ])
            .sort(vec![model_data_ecosystems::mcdb::query::SortKey::asc(
                Expr::col("ROOT"),
            )])
            .limit(limit),
        // Selection vectors composing through filter → sort → limit, with
        // a wrapping-arithmetic expression in the sort key.
        _ => Plan::scan("FACT")
            .filter(Expr::col("Q").mul(Expr::lit(3)).le(Expr::lit(divisor * 7)))
            .sort(vec![model_data_ecosystems::mcdb::query::SortKey::desc(
                Expr::col("V"),
            )])
            .limit(limit),
    }
}

#[test]
fn bundled_execution_equals_naive_per_iteration() {
    for_cases(24, |rng| {
        let n_items = rng.gen_range(1usize..12);
        let mean = rng.gen_range(-50.0f64..50.0);
        let std = rng.gen_range(0.5f64..20.0);
        let n_iters = rng.gen_range(1usize..8);
        let case = rng.gen_range(0u8..4);
        let threshold = rng.gen_range(-40.0f64..40.0);
        let seed = rng.gen_range(0u64..1000);
        let db = base_catalog(n_items, mean, std);
        let spec = sales_spec();
        let mut rng = rng_from_seed(seed);
        let bundled = BundledTable::from_spec(&spec, &db, n_iters, &mut rng).unwrap();

        let mut bc = BundledCatalog::new(n_iters);
        bc.insert(bundled.clone()).unwrap();
        bc.insert_const(db.get("ITEMS").unwrap());

        let plan = plan_for(case, threshold);
        let bundled_result = execute_bundled(&plan, &bc).unwrap();

        for i in 0..n_iters {
            let mut cat = Catalog::new();
            cat.insert(bundled.instantiate(i).unwrap());
            cat.insert(db.get("ITEMS").unwrap().clone());
            let naive = cat.query_unoptimized(&plan).unwrap();
            let inst = bundled_result.instantiate(i).unwrap();
            assert_eq!(
                inst.rows(),
                naive.rows(),
                "divergence at iteration {} (case {})",
                i,
                case
            );
        }
    });
}

#[test]
fn optimizer_never_changes_results() {
    for_cases(24, |rng| {
        let n_items = rng.gen_range(1usize..10);
        let threshold = rng.gen_range(-40.0f64..40.0);
        let seed = rng.gen_range(0u64..500);
        let db = base_catalog(n_items, 10.0, 5.0);
        let spec = sales_spec();
        let mut rng = rng_from_seed(seed);
        let mut cat = db.clone();
        cat.insert(spec.realize(&db, &mut rng).unwrap());

        let plan = Plan::scan("SALES")
            .join(Plan::scan("ITEMS"), &[("IID", "IID")])
            .filter(
                Expr::col("AMT")
                    .gt(Expr::lit(threshold))
                    .and(Expr::col("GROUP").ne(Expr::lit("zzz"))),
            );
        let optimized = cat.query(&plan).unwrap();
        let raw = cat.query_unoptimized(&plan).unwrap();
        assert_eq!(optimized.rows(), raw.rows());
    });
}

/// The vectorized columnar engine (the default `Catalog::query` path)
/// must be observationally identical to the legacy row-at-a-time
/// executor on plans exercising NULL join keys, NULL group keys,
/// Kleene logic, division by zero, Int→Float coercion, and
/// filter→sort→limit selection-vector composition.
#[test]
fn vectorized_engine_matches_legacy_on_edge_plans() {
    for_cases(24, |rng| {
        let n_rows = rng.gen_range(0usize..40);
        let null_every = rng.gen_range(1usize..5);
        let divisor = rng.gen_range(-2i64..3);
        let threshold = rng.gen_range(-10.0f64..10.0);
        let case = rng.gen_range(0u8..6);
        let limit = rng.gen_range(1usize..12);
        let db = edge_catalog(n_rows, null_every);
        let plan = edge_plan_for(case, divisor, threshold, limit);
        match (db.query(&plan), db.query_unoptimized(&plan)) {
            (Ok(vectorized), Ok(legacy)) => {
                assert_eq!(
                    vectorized.schema(),
                    legacy.schema(),
                    "schema divergence (case {})",
                    case
                );
                assert_eq!(
                    vectorized.rows(),
                    legacy.rows(),
                    "row divergence (case {})",
                    case
                );
            }
            (Err(_), Err(_)) => {} // both engines reject the plan/data
            (v, l) => panic!(
                "engine status divergence (case {}): vectorized={:?} legacy={:?}",
                case,
                v.map(|t| t.len()),
                l.map(|t| t.len())
            ),
        }
    });
}

#[test]
fn prepared_realization_equals_direct_realization() {
    for_cases(24, |rng| {
        let n_items = rng.gen_range(0usize..15);
        let mean = rng.gen_range(-50.0f64..50.0);
        let std = rng.gen_range(0.5f64..20.0);
        let seed = rng.gen_range(0u64..1000);
        let db = base_catalog(n_items, mean, std);
        let spec = sales_spec();
        let prepared = spec.prepare(&db).unwrap();
        let direct = spec.realize(&db, &mut rng_from_seed(seed)).unwrap();
        let via_prepared = prepared.realize(&db, &mut rng_from_seed(seed)).unwrap();
        assert_eq!(direct.rows(), via_prepared.rows());
        // Reuse of the same prepared spec must be deterministic given the seed.
        let again = prepared.realize(&db, &mut rng_from_seed(seed)).unwrap();
        assert_eq!(via_prepared.rows(), again.rows());
    });
}

#[test]
fn realization_matches_schema_and_row_count() {
    for_cases(24, |rng| {
        let n_items = rng.gen_range(0usize..20);
        let mean = rng.gen_range(-100.0f64..100.0);
        let std = rng.gen_range(0.1f64..50.0);
        let seed = rng.gen_range(0u64..1000);
        let db = base_catalog(n_items, mean, std);
        let spec = sales_spec();
        let mut rng = rng_from_seed(seed);
        let t = spec.realize(&db, &mut rng).unwrap();
        assert_eq!(t.len(), n_items);
        assert_eq!(t.schema().names(), vec!["IID", "GROUP", "AMT"]);
        // All values validated against the schema by construction; spot-
        // check the numeric column is finite.
        for v in t.column_f64("AMT").unwrap() {
            assert!(v.is_finite());
        }
    });
}
