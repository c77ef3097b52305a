//! Differential property suite for the paged storage backend.
//!
//! The all-in-RAM row backend is the oracle: for every plan in the query
//! corpus (the same families `mcdb_properties.rs` and `sql_robustness.rs`
//! drive through the two executors), a paged twin of the catalog —
//! every table rewritten as an `MDETAB02` file read back through a
//! deliberately tiny buffer pool — must return bit-identical results.
//! A third twin forces Grace spilling of join builds and group-by hash
//! tables and must still match exactly, because partition assignment is
//! deterministic and per-group accumulation order is preserved.

use model_data_ecosystems::mcdb::expr::ScalarFunc;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{reference, AggFunc, AggSpec, SortKey};
use model_data_ecosystems::mcdb::sql::plan_from_sql;
use model_data_ecosystems::mcdb::storage::{BufferPool, SpillConfig};
use model_data_ecosystems::numeric::rng::for_cases;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;

static TWIN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write a paged twin of `db` under a fresh temp dir with a small pool;
/// optionally force spilling. Returns the twin and its directory (caller
/// removes it).
fn paged_twin(
    db: &Catalog,
    frames: usize,
    page_size: usize,
    spill_threshold: Option<usize>,
) -> (Catalog, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "mde_sdiff_{}_{}",
        std::process::id(),
        TWIN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let pool = BufferPool::new(frames);
    let mut paged = db.to_paged(&dir, page_size, pool).unwrap();
    if let Some(threshold_rows) = spill_threshold {
        paged.set_spill_config(SpillConfig {
            threshold_rows,
            partitions: 5,
            dir: Some(dir.clone()),
            page_size,
            ..SpillConfig::default()
        });
    }
    (paged, dir)
}

/// Oracle vs paged on one plan. `exact_errors` additionally pins error
/// messages (valid whenever execution order is identical, i.e. the
/// unspilled paged path; spilled runs may hit the first bad value in a
/// different partition order, so there only the failure status is pinned).
fn assert_twin_agrees(db: &Catalog, paged: &Catalog, plan: &Plan, exact_errors: bool) {
    match (db.query(plan), paged.query(plan)) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.schema(),
                b.schema(),
                "schema diverged for {}",
                plan.explain()
            );
            assert_eq!(a.rows(), b.rows(), "rows diverged for {}", plan.explain());
        }
        (Err(a), Err(b)) => {
            if exact_errors {
                assert_eq!(
                    a.to_string(),
                    b.to_string(),
                    "errors diverged for {}",
                    plan.explain()
                );
            }
        }
        (a, b) => panic!(
            "status diverged for {}: mem={:?} paged={:?}",
            plan.explain(),
            a.map(|t| t.len()),
            b.map(|t| t.len())
        ),
    }
}

/// Same catalog of semantic edge cases `mcdb_properties.rs` uses: NULLs
/// sprinkled into join/group keys and values.
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
    // times the rows, so the paged `TAGGED.TAG` spans several pages, each
    // with a dictionary of its own.
    for t in common::string_tables(n_rows * 8, null_every) {
        db.insert(t);
    }
    db
}

/// How many plans [`edge_plan_for`] knows.
const EDGE_CASES: u8 = 6 + common::STRING_CASES;

/// Same edge-case plan family as `mcdb_properties.rs`.
fn edge_plan_for(case: u8, divisor: i64, threshold: f64, limit: usize) -> Plan {
    if case >= 6 {
        return common::string_plan_for(case - 6, limit);
    }
    match case {
        0 => Plan::scan("FACT")
            .join(Plan::scan("DIM"), &[("K", "K")])
            .filter(Expr::col("V").gt(Expr::lit(threshold))),
        1 => Plan::scan("FACT")
            .project(&[
                ("K", Expr::col("K")),
                ("RATIO", Expr::col("Q").div(Expr::lit(divisor))),
            ])
            .filter(Expr::col("RATIO").ge(Expr::lit(0))),
        2 => Plan::scan("FACT").aggregate(
            &["K"],
            vec![
                AggSpec::count_star("N"),
                AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("V")),
                AggSpec::new("PEAK", AggFunc::Max, Expr::col("Q")),
            ],
        ),
        3 => Plan::scan("FACT").filter(
            Expr::col("V")
                .gt(Expr::lit(threshold))
                .or(Expr::col("K").is_null())
                .and(Expr::col("Q").ne(Expr::lit(divisor))),
        ),
        4 => Plan::scan("FACT")
            .project(&[
                ("K", Expr::col("K")),
                ("ROOT", Expr::col("V").func(ScalarFunc::Sqrt)),
            ])
            .sort(vec![SortKey::asc(Expr::col("ROOT"))])
            .limit(limit),
        _ => Plan::scan("FACT")
            .filter(Expr::col("Q").mul(Expr::lit(3)).le(Expr::lit(divisor * 7)))
            .sort(vec![SortKey::desc(Expr::col("V"))])
            .limit(limit),
    }
}

/// The `sql_robustness.rs` base catalog for its generated SQL family.
fn sql_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.insert(
        Table::build(
            "t",
            &[
                ("a", DataType::Int),
                ("b", DataType::Float),
                ("s", DataType::Str),
            ],
        )
        .rows((0..7).map(|i| {
            vec![
                Value::from(i),
                Value::from(i as f64 * 1.5),
                Value::from(["x", "y"][i as usize % 2]),
            ]
        }))
        .finish()
        .unwrap(),
    );
    c
}

/// Paged twin, tiny pool (4 frames, 256-byte pages → many evictions):
/// bit-identical to the in-memory oracle on the full edge-plan
/// family, including identical error messages.
#[test]
fn paged_catalog_matches_memory_oracle_on_edge_plans() {
    for_cases(60, |rng| {
        let n_rows = rng.gen_range(0usize..40);
        let null_every = rng.gen_range(1usize..5);
        let divisor = rng.gen_range(-2i64..3);
        let threshold = rng.gen_range(-10.0f64..10.0);
        let case = rng.gen_range(0u8..EDGE_CASES);
        let limit = rng.gen_range(1usize..12);
        let db = edge_catalog(n_rows, null_every);
        let (paged, dir) = paged_twin(&db, 4, 256, None);
        let plan = edge_plan_for(case, divisor, threshold, limit);
        assert_twin_agrees(&db, &paged, &plan, true);
        drop(paged);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// Spill-forced paged twin: joins and group-bys degrade to Grace
/// partitioning (threshold 8 rows) and must still match exactly.
#[test]
fn spilled_paged_catalog_matches_memory_oracle() {
    for_cases(60, |rng| {
        let n_rows = rng.gen_range(0usize..40);
        let null_every = rng.gen_range(1usize..5);
        let divisor = rng.gen_range(-2i64..3);
        let threshold = rng.gen_range(-10.0f64..10.0);
        let case = rng.gen_range(0u8..EDGE_CASES);
        let limit = rng.gen_range(1usize..12);
        let db = edge_catalog(n_rows, null_every);
        let (paged, dir) = paged_twin(&db, 4, 256, Some(8));
        let plan = edge_plan_for(case, divisor, threshold, limit);
        assert_twin_agrees(&db, &paged, &plan, false);
        drop(paged);
        std::fs::remove_dir_all(&dir).ok();
    });
}

/// The generated-SQL family from `sql_robustness.rs`, executed on
/// both backends through the SQL front end.
#[test]
fn generated_sql_identical_on_paged_catalog() {
    for_cases(24, |rng| {
        let threshold = rng.gen_range(-5i64..15);
        let divisor = rng.gen_range(-3i64..4);
        let pick_col = rng.gen_range(0usize..3);
        let desc = rng.gen::<bool>();
        let limit = rng.gen_range(1usize..10);
        let col = ["a", "b", "s"][pick_col];
        let sql = format!(
            "SELECT a, b / {divisor} AS r FROM t WHERE {col} <> '{threshold}' ORDER BY b {} LIMIT {limit}",
            if desc { "DESC" } else { "ASC" },
        );
        if let Ok(plan) = plan_from_sql(&sql) {
            let db = sql_catalog();
            let (paged, dir) = paged_twin(&db, 4, 256, None);
            assert_twin_agrees(&db, &paged, &plan, true);
            // The legacy row engine materializes paged rows through the
            // oracle path; it must agree too.
            match (
                reference::execute(&plan, &db),
                reference::execute(&plan, &paged),
            ) {
                (Ok(a), Ok(b)) => assert_eq!(a.rows(), b.rows(), "sql: {}", sql),
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "row-engine status divergence for {}: mem={:?} paged={:?}",
                    sql,
                    a.map(|t| t.len()),
                    b.map(|t| t.len())
                ),
            }
            drop(paged);
            std::fs::remove_dir_all(&dir).ok();
        }
    });
}

/// Appending after paging: tail rows splice onto the on-disk base and
/// both backends keep agreeing, across all operators.
#[test]
fn paged_append_tail_stays_differential() {
    let mut db = edge_catalog(25, 3);
    let (mut paged, dir) = paged_twin(&db, 4, 256, None);
    // Append identical rows to FACT on both sides (paged side goes to
    // the in-memory tail).
    let extra: Vec<Vec<Value>> = (0..9)
        .map(|i| {
            vec![
                Value::from(i % 4),
                Value::from(i as f64 * 0.5 - 1.0),
                Value::from(i),
            ]
        })
        .collect();
    for cat in [&mut db, &mut paged] {
        let mut fact = cat.remove("FACT").unwrap();
        for r in &extra {
            fact.push_row(r.clone()).unwrap();
        }
        cat.insert(fact);
    }
    // And to TAGGED: tail strings the pages' dictionaries hold ("lo", "")
    // and ones they do not, spliced onto a base of several pages.
    let tagged = paged.get("TAGGED").unwrap().paged_store().unwrap();
    let tag_pages = tagged.directory().iter().filter(|m| m.column == 0);
    assert!(tag_pages.count() > 1, "TAG must span pages");
    let more: Vec<Vec<Value>> = ["lo", "brand new", "", "é", "brand new", "t0"]
        .iter()
        .enumerate()
        .map(|(i, tag)| {
            vec![
                Value::from(*tag),
                Value::from(i as i64 % 3),
                Value::from(i as f64 - 1.5),
                Value::from(1_000 + i as i64),
            ]
        })
        .collect();
    for cat in [&mut db, &mut paged] {
        let mut t = cat.remove("TAGGED").unwrap();
        for r in &more {
            t.push_row(r.clone()).unwrap();
        }
        cat.insert(t);
    }
    assert!(paged.get("FACT").unwrap().is_paged());
    for case in 0..EDGE_CASES {
        let plan = edge_plan_for(case, 2, 0.5, 7);
        assert_twin_agrees(&db, &paged, &plan, true);
    }
    // Projected scans splice the tail onto the columns they read only.
    for plan in [
        Plan::scan("FACT").aggregate(&[], vec![AggSpec::count_star("N")]),
        Plan::scan("FACT").aggregate(&[], vec![AggSpec::new("S", AggFunc::Sum, Expr::col("V"))]),
        Plan::scan("FACT")
            .filter(Expr::col("Q").ge(Expr::lit(4)))
            .project(&[("K", Expr::col("K"))]),
    ] {
        assert_twin_agrees(&db, &paged, &plan, true);
    }
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

/// A paged scan costs what it reads: the per-store logical read counter
/// advances by exactly the pages of the columns the plan binds.
#[test]
fn scans_read_exactly_the_pages_of_the_columns_they_bind() {
    let db = edge_catalog(300, 4);
    let (paged, dir) = paged_twin(&db, 4, 256, None);
    let store = Arc::clone(paged.get("FACT").unwrap().paged_store().unwrap());
    let pages_of = |cols: &[u32]| {
        store
            .directory()
            .iter()
            .filter(|m| cols.contains(&m.column))
            .count() as u64
    };
    let n_pages = store.n_pages() as u64;
    assert_eq!(pages_of(&[0, 1, 2]), n_pages);
    assert!(
        (0..3).all(|c| pages_of(&[c]) > 1),
        "every column must span pages"
    );
    // FACT(K, V, Q) = columns 0, 1, 2.
    let sum_v = AggSpec::new("S", AggFunc::Sum, Expr::col("V"));
    let cases = [
        (
            Plan::scan("FACT").aggregate(&[], vec![AggSpec::count_star("N")]),
            0,
        ),
        (
            Plan::scan("FACT").aggregate(&[], vec![sum_v.clone()]),
            pages_of(&[1]),
        ),
        (
            Plan::scan("FACT").aggregate(&["K"], vec![AggSpec::count_star("N")]),
            pages_of(&[0]),
        ),
        (
            Plan::scan("FACT")
                .filter(Expr::col("Q").ge(Expr::lit(10)))
                .aggregate(&["K"], vec![sum_v]),
            n_pages,
        ),
        (
            Plan::scan("FACT")
                .filter(Expr::col("Q").ge(Expr::lit(10)))
                .project(&[("K", Expr::col("K"))]),
            pages_of(&[0, 2]),
        ),
        // A root filter passes the scan's whole batch through.
        (
            Plan::scan("FACT").filter(Expr::col("Q").ge(Expr::lit(10))),
            n_pages,
        ),
        (Plan::scan("FACT"), n_pages),
    ];
    for (plan, want) in &cases {
        assert_twin_agrees(&db, &paged, plan, true);
        let before = store.logical_reads();
        paged.query(plan).unwrap();
        assert_eq!(
            store.logical_reads() - before,
            *want,
            "page reads of {}",
            plan.explain()
        );
    }
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

/// Logical page reads are deterministic: repeating the same query on the
/// same paged catalog advances the per-store counter by the same amount
/// every time, regardless of pool hits or evictions.
#[test]
fn logical_page_reads_are_deterministic() {
    let db = edge_catalog(60, 4);
    let (paged, dir) = paged_twin(&db, 2, 256, None);
    let plan = edge_plan_for(0, 1, -1.0, 10);
    let store = Arc::clone(paged.get("FACT").unwrap().paged_store().unwrap());
    let before = store.logical_reads();
    paged.query(&plan).unwrap();
    let per_query = store.logical_reads() - before;
    assert!(per_query > 0, "a paged scan must read pages");
    for _ in 0..3 {
        let at = store.logical_reads();
        paged.query(&plan).unwrap();
        assert_eq!(store.logical_reads() - at, per_query);
    }
    // The pool, by contrast, reports timing-dependent reuse out-of-band.
    let stats = store.pool().stats();
    assert_eq!(
        stats.hits + stats.misses,
        store.logical_reads() + {
            // DIM's reads went through the same pool.
            let dim = paged.get("DIM").unwrap().paged_store().unwrap();
            dim.logical_reads()
        }
    );
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

/// Buffer-pool pressure gates scheduler admission end to end: a pool
/// filled by paged scans pushes `pressure()` to 1.0, and a scheduler
/// configured with that probe rejects new campaigns with the typed
/// `Overloaded::PoolPressure` until the limit allows them.
#[test]
fn pool_pressure_gates_scheduler_admission() {
    use mde_core::sched::{CampaignSpec, PressureProbe, SchedConfig, Scheduler};
    use mde_numeric::resilience::sched::Campaign;
    use mde_numeric::{
        CampaignCtl, CampaignError, CampaignOutput, CampaignStep, Overloaded, RunReport,
    };

    struct Noop;
    impl Campaign for Noop {
        fn run(&mut self, _ctl: &CampaignCtl) -> Result<CampaignStep, CampaignError> {
            Ok(CampaignStep::Done(CampaignOutput {
                value: Some(0.0),
                report: RunReport::new(),
            }))
        }
    }

    let db = edge_catalog(60, 4);
    let (paged, dir) = paged_twin(&db, 3, 256, None);
    let pool = Arc::clone(paged.get("FACT").unwrap().paged_store().unwrap().pool());
    // Fill the pool: one full scan leaves every frame slot resident.
    paged.query(&Plan::scan("FACT")).unwrap();
    assert!(pool.pressure() >= 1.0 - f64::EPSILON);

    let probe_pool = Arc::clone(&pool);
    let mut sched = Scheduler::new(SchedConfig {
        pressure_probe: Some(PressureProbe::new(move || probe_pool.pressure())),
        pressure_limit: 0.5,
        ..SchedConfig::default()
    });
    let err = sched
        .submit(CampaignSpec::new("storage", "probe-gated"), Box::new(Noop))
        .expect_err("full pool must gate admission");
    assert!(matches!(err, Overloaded::PoolPressure { .. }), "{err}");

    // With the limit above current occupancy, the same submission lands.
    let mut relaxed = Scheduler::new(SchedConfig {
        pressure_probe: Some(PressureProbe::new(move || pool.pressure())),
        pressure_limit: 1.5,
        ..SchedConfig::default()
    });
    relaxed
        .submit(CampaignSpec::new("storage", "probe-open"), Box::new(Noop))
        .expect("relaxed limit admits");
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}
