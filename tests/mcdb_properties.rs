//! Property-based integration tests for the Monte Carlo database.
//!
//! The load-bearing invariant of the Monte Carlo loop: "sample `i` of a
//! query" means one thing. Whatever `MonteCarloQuery` prepares once or
//! shares between replicates must be *semantically
//! invisible* — its sample `i` equals realizing the stochastic tables and
//! running the query from scratch on replicate `i`'s streams, bit for bit,
//! for random queries over random stochastic tables.

use model_data_ecosystems::mcdb::expr::ScalarFunc;
use model_data_ecosystems::mcdb::mc::{McRun, MonteCarloQuery};
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{reference, AggFunc, AggSpec, SortKey};
use model_data_ecosystems::mcdb::vg::{BackwardWalkVg, NormalVg, PoissonVg, VgFunction};
use model_data_ecosystems::mcdb::McdbError;
use model_data_ecosystems::numeric::rng::{for_cases, rng_from_seed, StreamFactory};
use std::sync::Arc;

mod common;

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
    // String keys over independent dictionaries (cases 6 and up); eight
    // times the rows, so a paged twin spreads them over several pages.
    for t in common::string_tables(n_rows * 8, null_every) {
        db.insert(t);
    }
    db
}

/// How many plans [`edge_plan_for`] knows.
const EDGE_CASES: u8 = 6 + common::STRING_CASES;

/// Edge-case plan family: each arm stresses one semantic corner that a
/// vectorized engine can easily get subtly wrong.
fn edge_plan_for(case: u8, divisor: i64, threshold: f64, limit: usize) -> Plan {
    if case >= 6 {
        return common::string_plan_for(case - 6, limit);
    }
    match case {
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

/// A variable-cardinality stochastic table driven by another one: a price
/// walk of `IID + 1` steps back from each realized `SALES.AMT`, so its
/// driver query cannot run before `SALES` is realized in the same replicate.
fn walk_spec() -> RandomTableSpec {
    RandomTableSpec::builder("WALK")
        .for_each(Plan::scan("SALES"))
        .with_vg(Arc::new(BackwardWalkVg))
        .vg_params_exprs(&[
            Expr::col("AMT"),
            Expr::lit(2.0),
            Expr::col("IID").add(Expr::lit(1)),
        ])
        .select(&[
            ("IID", Expr::col("IID")),
            ("LAG", Expr::col("LAG")),
            ("PRICE", Expr::col("PRICE")),
        ])
        .build()
        .unwrap()
}

/// A stochastic integer per item, to group and join on.
fn demand_spec() -> RandomTableSpec {
    RandomTableSpec::builder("DEMAND")
        .for_each(Plan::scan("ITEMS"))
        .with_vg(Arc::new(PoissonVg))
        .vg_params_exprs(&[Expr::lit(3.0)])
        .select(&[("IID", Expr::col("IID")), ("D", Expr::col("VALUE"))])
        .build()
        .unwrap()
}

/// A stochastic table that shadows the base table it is driven by — and that
/// `SALES` takes its parameters from: each replicate's mean is the *base*
/// mean plus noise, whatever an earlier replicate realized under the name.
fn drifting_params_spec() -> RandomTableSpec {
    RandomTableSpec::builder("PARAMS")
        .for_each(Plan::scan("PARAMS"))
        .with_vg(Arc::new(NormalVg))
        .vg_params_exprs(&[Expr::col("MEAN"), Expr::lit(1.0)])
        .select(&[("MEAN", Expr::col("VALUE")), ("STD", Expr::col("STD"))])
        .build()
        .unwrap()
}

/// One scalar per replicate: the `plan_for` family under a closing
/// aggregate, then Sort/Limit, grouping and joining on a stochastic column,
/// and a variable-cardinality table.
fn scalar_plan_for(case: u8, threshold: f64) -> Plan {
    let total = |plan: Plan, col: &str| {
        plan.aggregate(&[], vec![AggSpec::new("S", AggFunc::Sum, Expr::col(col))])
    };
    match case % 8 {
        0 => total(plan_for(0, threshold), "AMT"),
        1 => total(plan_for(1, threshold), "TAXED"),
        2 => total(plan_for(2, threshold), "TOTAL"),
        3 => plan_for(3, threshold),
        4 => total(
            Plan::scan("SALES")
                .sort(vec![SortKey::desc(Expr::col("AMT"))])
                .limit(3),
            "AMT",
        ),
        5 => Plan::scan("DEMAND")
            .join(Plan::scan("SALES"), &[("IID", "IID")])
            .aggregate(
                &["D"],
                vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("AMT"))],
            )
            .aggregate(
                &[],
                vec![AggSpec::new("M", AggFunc::Max, Expr::col("TOTAL"))],
            ),
        6 => total(
            Plan::scan("DEMAND")
                .project(&[("D", Expr::col("D"))])
                .join(Plan::scan("SALES"), &[("D", "IID")]),
            "AMT",
        ),
        _ => total(
            Plan::scan("WALK").filter(Expr::col("LAG").le(Expr::lit(2))),
            "PRICE",
        ),
    }
}

/// The contract any hoisting of replicate-invariant work must keep:
/// replicate `i` starts from the base catalog and realizes spec `k` on
/// `StreamFactory::new(seed).child(i).stream(k)`, a `NULL` answer fails the
/// run, and nothing else about how the run is prepared or scheduled reaches
/// a sample bit.
#[test]
fn monte_carlo_run_equals_the_plan_per_replicate_loop() {
    for_cases(48, |rng| {
        let n_items = rng.gen_range(1usize..12);
        let mean = rng.gen_range(-50.0f64..50.0);
        let std = rng.gen_range(0.5f64..20.0);
        let n_iters = rng.gen_range(1usize..8);
        let case = rng.gen_range(0u8..8);
        // Within one deviation of the mean, so most filters keep some rows.
        let threshold = mean + std * rng.gen_range(-1.0f64..1.0);
        let seed = rng.gen_range(0u64..1000);
        let db = base_catalog(n_items, mean, std);
        let mut specs = vec![sales_spec(), walk_spec(), demand_spec()];
        if rng.gen_range(0u8..2) == 1 {
            specs.insert(0, drifting_params_spec());
        }
        let plan = scalar_plan_for(case, threshold);

        // Nothing prepared: plan, bind and realize from scratch per replicate.
        let streams = StreamFactory::new(seed);
        let by_hand: Option<Vec<u64>> = (0..n_iters as u64)
            .map(|i| {
                let mut scratch = db.clone();
                for (k, spec) in specs.iter().enumerate() {
                    let mut rng = streams.child(i).stream(k as u64);
                    let table = spec.realize(&scratch, &mut rng).unwrap();
                    scratch.insert(table);
                }
                let answer = scratch.query(&plan).unwrap().scalar().unwrap();
                (!answer.is_null()).then(|| answer.as_f64().unwrap().to_bits())
            })
            .collect();

        let query = MonteCarloQuery::new(specs, plan);
        match (&by_hand, query.run(&db, n_iters, seed)) {
            (Some(bits), Ok(run)) => assert_eq!(
                &run.samples()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                bits,
                "case {case}"
            ),
            (None, Err(_)) => {} // a replicate's aggregate ran over no rows
            (expected, run) => panic!(
                "case {case}: by hand {expected:?}, run {:?}",
                run.map(|r| r.samples().to_vec())
            ),
        }
    });
}

/// `ITEMS(IID, GROUP, MU, SD, RATE)`: per-row `Normal` parameters and a
/// `Poisson` rate for every item.
fn per_row_catalog(n_items: usize) -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "ITEMS",
            &[
                ("IID", DataType::Int),
                ("GROUP", DataType::Str),
                ("MU", DataType::Float),
                ("SD", DataType::Float),
                ("RATE", DataType::Float),
            ],
        )
        .rows((0..n_items).map(|i| {
            vec![
                Value::from(i as i64),
                Value::from(["a", "b", "c"][i % 3]),
                Value::from(10.0 + 1.5 * i as f64),
                Value::from(0.5 + 0.75 * (i % 4) as f64),
                Value::from(0.5 + i as f64),
            ]
        }))
        .finish()
        .unwrap(),
    );
    db
}

/// Two stochastic tables driven by the base `ITEMS` and parametrized by its
/// row alone: `SALES` draws a `Normal(MU, SD)` per item, `DEMAND` an `Int`
/// `Poisson(RATE)`.
fn per_row_specs() -> Vec<RandomTableSpec> {
    let spec = |name: &str, vg: Arc<dyn VgFunction>, params: &[Expr], value: &str| {
        RandomTableSpec::builder(name)
            .for_each(Plan::scan("ITEMS"))
            .with_vg(vg)
            .vg_params_exprs(params)
            .select(&[
                ("IID", Expr::col("IID")),
                ("GROUP", Expr::col("GROUP")),
                (value, Expr::col("VALUE")),
            ])
            .build()
            .unwrap()
    };
    vec![
        spec(
            "SALES",
            Arc::new(NormalVg),
            &[Expr::col("MU"), Expr::col("SD")],
            "AMT",
        ),
        spec("DEMAND", Arc::new(PoissonVg), &[Expr::col("RATE")], "D"),
    ]
}

/// One scalar per replicate from one stochastic table, through filters,
/// projections and aggregates only: every aggregate function, filters that
/// leave some replicates without a row, a nested aggregate and a projection
/// over an aggregate.
fn per_row_plan_for(case: u8, threshold: f64, floor: i64) -> Plan {
    let agg = |name: &str, func: AggFunc, col: &str| vec![AggSpec::new(name, func, Expr::col(col))];
    let above = || Expr::col("AMT").gt(Expr::lit(threshold));
    match case % 8 {
        0 => Plan::scan("SALES").aggregate(&[], agg("S", AggFunc::Sum, "AMT")),
        1 => Plan::scan("SALES")
            .filter(above())
            .aggregate(&[], vec![AggSpec::count_star("N")]),
        2 => Plan::scan("SALES")
            .filter(above())
            .aggregate(&[], agg("A", AggFunc::Avg, "AMT")),
        3 => Plan::scan("DEMAND")
            .filter(Expr::col("D").ge(Expr::lit(floor)))
            .aggregate(&[], agg("M", AggFunc::Min, "D")),
        4 => Plan::scan("SALES")
            .filter(Expr::col("GROUP").ne(Expr::lit("b")).and(above()))
            .aggregate(&[], agg("M", AggFunc::Max, "AMT")),
        5 => Plan::scan("SALES")
            .aggregate(&["GROUP"], agg("TOTAL", AggFunc::Sum, "AMT"))
            .aggregate(&[], agg("M", AggFunc::Max, "TOTAL")),
        6 => Plan::scan("DEMAND")
            .aggregate(&[], agg("S", AggFunc::Sum, "D"))
            .project(&[("X", Expr::col("S").mul(Expr::lit(2)).add(Expr::lit(1)))]),
        _ => Plan::scan("SALES")
            .project(&[("TAXED", Expr::col("AMT").mul(Expr::lit(1.2)))])
            .filter(Expr::col("TAXED").lt(Expr::lit(threshold * 1.2)))
            .aggregate(&[], agg("S", AggFunc::Sum, "TAXED")),
    }
}

/// A run as the text a digest takes: the sample bits, the stop cause, the
/// deterministic ledger and the final state's bytes — or the error.
fn run_text(run: &Result<McRun, McdbError>) -> String {
    match run {
        Ok(run) => {
            let r = &run.report;
            let bits: Vec<u64> = run.result.samples().iter().map(|v| v.to_bits()).collect();
            format!(
                "ok {bits:x?} {:?} {} {} {} {} {} {} {:?} {:x?}",
                run.stopped,
                r.attempted,
                r.succeeded,
                r.retried,
                r.dropped,
                r.shed,
                r.ci_widened,
                r.failures,
                run.checkpoint.encode()
            )
        }
        Err(e) => format!("err {e}"),
    }
}

/// Monte Carlo runs over per-row-parametrized stochastic tables and
/// filter / project / aggregate queries, each under every policy with
/// random injected faults, checkpointed every four replicates, and preempted
/// and resumed from disk. The digests were captured before a run could
/// answer more than one replicate per executor pass; they hold for the
/// seeds CI sweeps, and at any other `MDE_CHAOS_SEED` the resumed runs only
/// have to equal the uninterrupted ones. Never regenerate a digest to make
/// a change pass.
#[test]
fn bundle_eligible_runs_match_their_golden_digest() {
    use model_data_ecosystems::numeric::codec::{fnv1a, FNV_OFFSET};
    use model_data_ecosystems::numeric::resilience::{
        CheckpointSpec, FaultKind, FaultPlan, RunOptions, RunPolicy,
    };
    use model_data_ecosystems::numeric::rng::chaos_seed;
    use model_data_ecosystems::numeric::CampaignState;
    let dir = std::env::temp_dir().join(format!(
        "mde-bundle-golden-{}-{}",
        std::process::id(),
        chaos_seed()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut digest, mut answered, mut refused) = (FNV_OFFSET, 0, 0);
    for_cases(24, |rng| {
        let n_items = rng.gen_range(1usize..10);
        let n = rng.gen_range(1usize..24);
        let case = rng.gen_range(0u8..8);
        let threshold = rng.gen_range(8.0f64..24.0);
        let floor = rng.gen_range(0i64..8);
        let seed = rng.gen_range(0u64..1000);
        let mut faults = FaultPlan::new();
        for _ in 0..rng.gen_range(0usize..3) {
            let kind =
                [FaultKind::Error, FaultKind::Panic, FaultKind::Nan][rng.gen_range(0usize..3)];
            faults = faults.fail_on(rng.gen_range(0..n as u64), 0, kind);
        }
        let cut = rng.gen_range(0..n as u64 + 1);
        let db = per_row_catalog(n_items);
        let q = MonteCarloQuery::new(per_row_specs(), per_row_plan_for(case, threshold, floor));
        for policy in [
            RunPolicy::FailFast,
            RunPolicy::Retry {
                max_attempts: 3,
                reseed: true,
            },
            RunPolicy::BestEffort { min_fraction: 0.5 },
        ] {
            let opts = |file: &str| {
                RunOptions::policy(policy)
                    .with_faults(faults.clone())
                    .with_checkpoint(CheckpointSpec::new(dir.join(file)).every(4))
            };
            let full = q.run_with_options(&db, n, seed, &opts("full"));
            let mut preempted = opts("cut");
            preempted.faults = Some(faults.clone().preempt_at(cut));
            let partial = q.run_with_options(&db, n, seed, &preempted);
            let mut text = format!(
                "{case} {policy:?} {}\n{}",
                run_text(&full),
                run_text(&partial)
            );
            if partial.is_ok() {
                let state = CampaignState::load(&dir.join("cut")).unwrap();
                let resumed = q.run_with_options(&db, n, seed, &opts("resumed").resuming(state));
                assert_eq!(
                    run_text(&resumed),
                    run_text(&full),
                    "case {case} {policy:?}"
                );
                text += &run_text(&resumed);
            }
            match &full {
                Ok(_) => answered += 1,
                Err(_) => refused += 1,
            }
            digest = fnv1a(digest, text.as_bytes());
        }
    });
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        answered > 24 && refused > 4,
        "{answered} runs answered, {refused} refused: the mix is lopsided"
    );
    let golden = [
        (7, 0x6072_e1df_48a4_3a36u64),
        (13, 0x371f_3de5_cba5_b9c0),
        (17, 0xd5e2_4be3_743e_2bdb),
    ];
    eprintln!(
        "seed {} digest {digest:#018x}, {answered} answered, {refused} refused",
        chaos_seed()
    );
    if let Some(&(_, want)) = golden.iter().find(|(seed, _)| *seed == chaos_seed()) {
        assert_eq!(digest, want);
    }
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
        let raw = reference::execute(&plan, &cat).unwrap();
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
    for_cases(60, |rng| {
        let n_rows = rng.gen_range(0usize..40);
        let null_every = rng.gen_range(1usize..5);
        let divisor = rng.gen_range(-2i64..3);
        let threshold = rng.gen_range(-10.0f64..10.0);
        let case = rng.gen_range(0u8..EDGE_CASES);
        let limit = rng.gen_range(1usize..12);
        let db = edge_catalog(n_rows, null_every);
        let plan = edge_plan_for(case, divisor, threshold, limit);
        match (db.query(&plan), reference::execute(&plan, &db)) {
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
