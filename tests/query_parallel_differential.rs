//! Differential fuzz + determinism suite for the vectorized executor
//! (ISSUE 9; its thread axis went with the morsel workers in PR 25, and
//! the file and test names keep their history).
//!
//! Contract under test: the one-pass vectorized executor equals the
//! row-at-a-time reference interpreter (`query::reference::execute`) —
//! same rows (floats compared by `to_bits`), same errors — over both memory-backed and
//! paged tables, and a repeated execution reproduces its deterministic
//! span ledger (every span field except `*_nanos` wall-clock ones). A
//! seeded generated-SQL corpus (filters, equi-joins across NULL keys,
//! group-bys, ORDER BY/LIMIT) is executed on a memory catalog and on its
//! paged twin (small pages, shared buffer pool), whose ~1000-row fact
//! table spans many pages (including a partial last page).
//!
//! A second, hand-enumerated corpus targets the typed aggregate / join /
//! sort kernels (ISSUE 13): `-0.0`/`0.0`/NULL and multi-column group keys,
//! string keys held in shared and in distinct `Arc`s, extrema over strings
//! and booleans, `SUM`/`AVG` type errors, empty inputs, joins with
//! selection vectors on either side, tied `ORDER BY` under `LIMIT k`, and
//! every join-of-scans `WHERE` shape pushed down vs not. It runs over
//! memory and paged catalogs, each also with a spill threshold forced low,
//! so every Grace partition goes through the same kernels.
//!
//! The corpus is keyed off `MDE_CHAOS_SEED` (CI sweeps a small matrix)
//! but is fully deterministic for a given seed.

use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::planner::optimize;
use model_data_ecosystems::mcdb::query::{reference, AggSpec, PreparedQuery, SortKey};
use model_data_ecosystems::mcdb::sql::plan_from_sql;
use model_data_ecosystems::mcdb::storage::{BufferPool, SpillConfig};
use model_data_ecosystems::mcdb::value::Value;
use model_data_ecosystems::numeric::obs::{MemorySink, SpanRecord, Tracer};
use model_data_ecosystems::numeric::rng::{chaos_seed, rng_from_seed, Rng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;

static TWIN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Star-schema corpus catalog: a fact table with NULLs sprinkled into
/// the join key and the float measure, plus a small dimension with a
/// NULL key row. `n_rows` is deliberately not a multiple of 64 so the
/// last null-mask word is partial.
fn corpus_catalog(seed: u64, n_rows: usize) -> Catalog {
    let mut rng = rng_from_seed(seed);
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "FACT",
            &[
                ("K", DataType::Int),
                ("V", DataType::Float),
                ("Q", DataType::Int),
                ("TAG", DataType::Str),
            ],
        )
        .rows((0..n_rows).map(|i| {
            let r: u64 = rng.gen();
            let k = if r.is_multiple_of(13) {
                Value::Null
            } else {
                Value::from((r % 6) as i64)
            };
            let v = if r.is_multiple_of(17) {
                Value::Null
            } else {
                // Mixed magnitudes and signs, incl. exact negative zero.
                match r % 5 {
                    0 => Value::from(-0.0f64),
                    1 => Value::from((r % 1000) as f64 * 1e-3),
                    2 => Value::from(-((r % 97) as f64) * 3.5),
                    3 => Value::from((r % 7) as f64 * 1e6),
                    _ => Value::from(i as f64 - 0.5),
                }
            };
            vec![
                k,
                v,
                Value::from((r % 29) as i64 - 14),
                Value::from(["alpha", "beta", "gamma"][(r % 3) as usize]),
            ]
        }))
        .finish()
        .unwrap(),
    );
    db.insert(
        Table::build("DIM", &[("K", DataType::Int), ("LABEL", DataType::Str)])
            .rows((0..6).map(|j| {
                let k = if j == 0 {
                    Value::Null
                } else {
                    Value::from(j as i64)
                };
                vec![k, Value::from(["none", "lo", "mid", "hi", "top", "max"][j])]
            }))
            .finish()
            .unwrap(),
    );
    db
}

/// One SQL statement from the seeded corpus: filters (SIMD fast path on
/// Int/Float literals and the generic expression path), equi-joins over
/// the NULL-bearing key, group-bys with mixed aggregates, ORDER BY and
/// LIMIT.
fn generated_sql(rng: &mut Rng) -> String {
    let cmp = ["=", "<>", "<", "<=", ">", ">="][rng.gen_range(0..6)];
    let flit = rng.gen_range(0..200) as f64 * 0.5 - 50.0;
    let ilit: i64 = rng.gen_range(-14..15);
    let limit = rng.gen_range(1..=40);
    match rng.gen_range(0..8) {
        // SIMD float-literal filter fast path.
        0 => format!("SELECT K, V FROM FACT WHERE V {cmp} {flit}"),
        // SIMD int-literal filter fast path.
        1 => format!("SELECT K, Q FROM FACT WHERE Q {cmp} {ilit}"),
        // Generic predicate path (arithmetic + boolean connectives).
        2 => format!("SELECT K, V, Q FROM FACT WHERE V * 2 {cmp} {flit} OR Q + 1 = {ilit}"),
        // Join across NULL keys, then filter.
        3 => format!("SELECT LABEL, V FROM FACT JOIN DIM ON K = K WHERE V {cmp} {flit}"),
        // Join + ORDER BY + LIMIT.
        4 => format!(
            "SELECT LABEL, Q FROM FACT JOIN DIM ON K = K ORDER BY Q ASC, LABEL ASC LIMIT {limit}"
        ),
        // Group-by with mixed aggregates (Sum order-sensitivity probe).
        5 => "SELECT K, COUNT(*) AS N, SUM(V) AS S, MIN(Q) AS LO, MAX(V) AS HI \
              FROM FACT GROUP BY K ORDER BY K ASC"
            .to_string(),
        // Filtered group-by.
        6 => format!(
            "SELECT TAG, COUNT(*) AS N, SUM(Q) AS S FROM FACT \
             WHERE Q {cmp} {ilit} GROUP BY TAG ORDER BY TAG ASC"
        ),
        // Projection arithmetic + sort + limit.
        _ => format!(
            "SELECT K, V / 3 AS R, SQRT(ABS(V)) AS RT FROM FACT \
             ORDER BY R DESC LIMIT {limit}"
        ),
    }
}

/// Canonical row rendering with float **bit** equality (`to_bits`), so
/// `-0.0` vs `0.0` or differently-rounded sums can never slip through.
fn canon_rows(t: &Table) -> Vec<Vec<String>> {
    t.rows()
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(i) => format!("I:{i}"),
                    Value::Float(f) => format!("F:{:016x}", f.to_bits()),
                    Value::Str(s) => format!("S:{s}"),
                    Value::Bool(b) => format!("B:{b}"),
                    Value::Null => "N".to_string(),
                })
                .collect()
        })
        .collect()
}

/// The deterministic half of the span ledger: every span (id, parent,
/// name, fields) with the `*_nanos` wall-clock fields stripped.
/// Everything that remains must be bit-identical run to run.
fn deterministic_ledger(records: &[SpanRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            let fields: Vec<String> = r
                .fields
                .iter()
                .filter(|(k, _)| !k.ends_with("_nanos"))
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            format!("{}#{}<-{}{{{}}}", r.name, r.id, r.parent, fields.join(", "))
        })
        .collect()
}

/// Execute `plan` on `db`, returning the result (canonical rows or error
/// text) and the deterministic ledger.
#[allow(clippy::type_complexity)]
fn run_traced(db: &Catalog, plan: &Plan) -> (Result<Vec<Vec<String>>, String>, Vec<String>) {
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::new(sink.clone());
    let out = db
        .query_traced(plan, &tracer)
        .map(|t| canon_rows(&t))
        .map_err(|e| e.to_string());
    (out, deterministic_ledger(&sink.records()))
}

/// Paged twin under a fresh scratch dir: small pages so the fact table
/// spans many page frames, and a pool that holds several of them.
fn paged_twin(db: &Catalog) -> (Catalog, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "mde_qpar_{}_{}",
        std::process::id(),
        TWIN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let pool = BufferPool::new(24);
    let paged = db.to_paged(&dir, 1024, pool).unwrap();
    (paged, dir)
}

/// The per-plan differential check: a repeated execution reproduces the
/// rows, error and deterministic ledger, then the row-at-a-time oracle —
/// identical rows on success; on failure, status agreement, and with
/// `strict_errors` the identical error text. Returns the result.
fn assert_plan_invariant(
    db: &Catalog,
    oracle: &Catalog,
    plan: &Plan,
    strict_errors: bool,
    what: &str,
) -> Result<Vec<Vec<String>>, String> {
    let (first, first_ledger) = run_traced(db, plan);
    let (again, again_ledger) = run_traced(db, plan);
    assert_eq!(first, again, "{what}: rows diverged on a repeat");
    assert_eq!(
        first_ledger, again_ledger,
        "{what}: deterministic ledger diverged on a repeat"
    );
    match (&first, reference::execute(plan, oracle)) {
        (Ok(rows), Ok(oracle_table)) => {
            assert_eq!(
                rows,
                &canon_rows(&oracle_table),
                "{what}: vectorized vs row oracle diverged"
            );
        }
        // The legacy engine's error text may name the same defect
        // differently, unless the caller knows it does not.
        (Err(e), Err(oracle_e)) => {
            if strict_errors {
                assert_eq!(e, &oracle_e.to_string(), "{what}: error diverged");
            }
        }
        (a, b) => panic!(
            "{what}: status diverged vs row oracle: vectorized={:?} oracle_ok={}",
            a.as_ref().map(|r| r.len()),
            b.is_ok()
        ),
    }
    first
}

/// The core differential loop shared by the Mem and Paged suites, over
/// the generated SQL corpus.
fn assert_corpus_invariant(db: &Catalog, oracle: &Catalog, n_queries: usize, tag: &str) {
    let mut rng = rng_from_seed(chaos_seed());
    let mut executed = 0usize;
    for case in 0..n_queries {
        let sql = generated_sql(&mut rng);
        let plan = match plan_from_sql(&sql) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let what = format!("[{tag}] case {case}: {sql}");
        let _ = assert_plan_invariant(db, oracle, &plan, false, &what);
        executed += 1;
    }
    assert!(
        executed >= n_queries / 2,
        "[{tag}] corpus degenerated: only {executed}/{n_queries} statements parsed"
    );
}

#[test]
fn generated_sql_corpus_bit_identical_across_thread_counts_mem() {
    let db = corpus_catalog(chaos_seed(), 997);
    assert_corpus_invariant(&db, &db, 40, "mem");
}

#[test]
fn generated_sql_corpus_bit_identical_across_thread_counts_paged() {
    let db = corpus_catalog(chaos_seed().wrapping_add(1), 997);
    let (paged, dir) = paged_twin(&db);
    // The paged twin must agree with itself on a repeat AND with the
    // in-memory row oracle.
    assert_corpus_invariant(&paged, &db, 40, "paged");
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

/// Paged vs Mem: the storage backend must not perturb results.
#[test]
fn paged_parallel_matches_mem_sequential() {
    let db = corpus_catalog(chaos_seed().wrapping_add(2), 640);
    let (paged, dir) = paged_twin(&db);
    let mut rng = rng_from_seed(chaos_seed());
    for _ in 0..24 {
        let sql = generated_sql(&mut rng);
        let plan = match plan_from_sql(&sql) {
            Ok(p) => p,
            Err(_) => continue,
        };
        let (mem, _) = run_traced(&db, &plan);
        let (paged_rows, _) = run_traced(&paged, &plan);
        assert_eq!(mem, paged_rows, "paged diverged from mem for {sql}");
    }
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

/// Repeating one query is a fixed point: the deterministic ledger never
/// drifts run to run.
#[test]
fn ledger_is_stable_across_repeated_runs() {
    let db = corpus_catalog(chaos_seed().wrapping_add(3), 320);
    let plan =
        plan_from_sql("SELECT K, COUNT(*) AS N, SUM(V) AS S FROM FACT GROUP BY K ORDER BY K ASC")
            .unwrap();
    let (first, first_ledger) = run_traced(&db, &plan);
    for _ in 0..3 {
        let (again, again_ledger) = run_traced(&db, &plan);
        assert_eq!(first, again);
        assert_eq!(first_ledger, again_ledger);
    }
    // Sanity: the ledger actually carries the deterministic counters.
    let root = first_ledger
        .iter()
        .find(|l| l.starts_with("query#"))
        .expect("root query span present");
    assert!(
        root.contains("query.morsels="),
        "root span must carry query.morsels: {root}"
    );
    assert!(
        root.contains("query.simd_lanes="),
        "root span must carry query.simd_lanes: {root}"
    );
    assert!(
        !root.contains("_nanos"),
        "wall-clock must be stripped from the deterministic ledger: {root}"
    );
}

/// NULL join keys never match (SQL semantics): pin the exact row
/// multiset against the row oracle, on memory and paged tables.
#[test]
fn null_join_keys_drop_identically_in_parallel() {
    let db = corpus_catalog(chaos_seed().wrapping_add(4), 250);
    let (paged, dir) = paged_twin(&db);
    let plan = plan_from_sql("SELECT K, LABEL FROM FACT JOIN DIM ON K = K").unwrap();
    for (tag, config) in [("mem", &db), ("paged", &paged)] {
        let rows = assert_plan_invariant(config, &db, &plan, true, tag).expect("join executes");
        assert!(
            rows.iter().all(|r| r[0] != "N"),
            "[{tag}] a NULL key must never join"
        );
    }
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

/// Errors raised mid-pipeline (an Int-vs-Str comparison the binder does
/// not reject, surfacing from `cmp_batch` inside predicate evaluation)
/// carry the row oracle's byte-identical message, on memory and paged
/// tables.
#[test]
fn typed_errors_are_thread_count_invariant() {
    let db = corpus_catalog(chaos_seed().wrapping_add(5), 300);
    let (paged, dir) = paged_twin(&db);
    let plan = plan_from_sql("SELECT K FROM FACT WHERE K < 'x'").unwrap();
    for (tag, config) in [("mem", &db), ("paged", &paged)] {
        let out = assert_plan_invariant(config, &db, &plan, true, tag);
        out.expect_err("Int vs Str comparison must fail");
    }
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Typed-kernel corpus (aggregate / join / sort families)
// ---------------------------------------------------------------------------

const KEYS_ROWS: usize = 523;

/// Catalog behind the kernel corpus. `KEYS` carries every key hazard:
/// `F` mixes `-0.0`, `0.0` and NULL; `K` holds the one `Int` key that hashes
/// like NULL; `S` holds equal strings both through two shared `Arc`s and
/// through a fresh `Arc` per row, `""` and a non-ASCII value; `B` is a
/// nullable boolean; `Q` is a narrow Int range (sort ties); `V` mixes magnitudes so
/// float sums are order-sensitive. `DIM` has duplicate, NULL and
/// never-matching keys of every type; `EMPTY` has no rows.
fn kernel_catalog(seed: u64) -> Catalog {
    let mut rng = rng_from_seed(seed);
    let shared = [Value::str("a"), Value::str("b")];
    let mut db = Catalog::new();
    db.insert(
        Table::build(
            "KEYS",
            &[
                ("F", DataType::Float),
                ("K", DataType::Int),
                ("S", DataType::Str),
                ("B", DataType::Bool),
                ("V", DataType::Float),
                ("Q", DataType::Int),
            ],
        )
        .rows((0..KEYS_ROWS).map(|i| {
            let r: u64 = rng.gen();
            vec![
                match r % 7 {
                    0 => Value::Null,
                    1 => Value::from(-0.0f64),
                    2 => Value::from(0.0f64),
                    3 => Value::from(1.5f64),
                    4 => Value::from(-1.5f64),
                    _ => Value::from((r % 3) as f64),
                },
                if (r >> 3).is_multiple_of(11) {
                    Value::Null
                } else if (r >> 3).is_multiple_of(13) {
                    Value::from(common::null_hash_twin())
                } else {
                    Value::from(((r >> 3) % 5) as i64)
                },
                match (r >> 6) % 8 {
                    0 => Value::Null,
                    1 => shared[0].clone(),
                    2 => Value::str("a"),
                    3 => shared[1].clone(),
                    4 => Value::str("b"),
                    5 => Value::str(""),
                    6 => Value::str("é"),
                    _ => Value::str("c"),
                },
                match (r >> 9) % 5 {
                    0 => Value::Null,
                    b => Value::from(b % 2 == 0),
                },
                match (r >> 12) % 6 {
                    0 => Value::Null,
                    1 => Value::from(1e16f64),
                    2 => Value::from(-1e16f64),
                    3 => Value::from(((r >> 20) % 1000) as f64 * 1e-3),
                    4 => Value::from(-0.0f64),
                    _ => Value::from(i as f64 + 0.25),
                },
                Value::from(((r >> 15) % 7) as i64 - 3),
            ]
        }))
        .finish()
        .unwrap(),
    );
    type DimRow = (Option<i64>, Option<&'static str>, Option<f64>, bool);
    let twin = common::null_hash_twin();
    let dim_rows: [DimRow; 13] = [
        (Some(twin), Some("é"), Some(3.0), true),
        (Some(5), Some(""), Some(4.0), true),
        (Some(twin), Some(""), Some(5.0), false),
        (None, Some("a"), Some(0.0), true),
        (Some(0), Some("a"), Some(-0.0), false),
        (Some(1), Some("b"), Some(1.5), true),
        (Some(1), Some("b"), Some(1.5), false),
        (Some(2), None, None, true),
        (Some(3), Some("c"), Some(2.0), false),
        (Some(4), Some("zz"), Some(-1.5), true),
        (Some(4), Some("a"), Some(9.0), true),
        (Some(77), Some("b"), Some(1.0), false),
        (Some(2), Some("c"), Some(0.5), true),
    ];
    db.insert(
        Table::build(
            "DIM",
            &[
                ("DK", DataType::Int),
                ("DS", DataType::Str),
                ("W", DataType::Float),
                ("FLAG", DataType::Bool),
            ],
        )
        .rows(dim_rows.iter().map(|&(k, s, w, flag)| {
            vec![
                k.map_or(Value::Null, Value::from),
                s.map_or(Value::Null, Value::str),
                w.map_or(Value::Null, Value::from),
                Value::from(flag),
            ]
        }))
        .finish()
        .unwrap(),
    );
    // Same join key name on both sides: the right `K` is renamed `r.K`
    // in the join output, so a predicate on it cannot be pushed.
    db.insert(
        Table::build("DIMK", &[("K", DataType::Int), ("LABEL", DataType::Str)])
            .rows((0..4).map(|j| vec![Value::from(j as i64), Value::str(["w", "x", "y", "z"][j])]))
            .finish()
            .unwrap(),
    );
    db.insert(
        Table::build(
            "EMPTY",
            &[
                ("K", DataType::Int),
                ("V", DataType::Float),
                ("S", DataType::Str),
            ],
        )
        .finish()
        .unwrap(),
    );
    db
}

fn agg(name: &str, func: AggFunc, col: &str) -> AggSpec {
    AggSpec::new(name, func, Expr::col(col))
}

/// The aggregate, sort and join families. Every plan is well typed
/// except the `SUM`/`AVG`-over-non-numeric ones, whose typed error must
/// come out identically everywhere.
fn kernel_plans() -> Vec<(&'static str, Plan)> {
    let keys = || Plan::scan("KEYS");
    let every_agg = |col: &str| {
        vec![
            AggSpec::count_star("N"),
            agg("C", AggFunc::Count, col),
            agg("LO", AggFunc::Min, col),
            agg("HI", AggFunc::Max, col),
        ]
    };
    let numeric = |col: &str| {
        let mut aggs = every_agg(col);
        aggs.push(agg("SUM", AggFunc::Sum, col));
        aggs.push(agg("AVG", AggFunc::Avg, col));
        aggs
    };
    let mut plans = vec![
        // -0.0 / 0.0 are one group, NULL is its own; float sums are
        // order-sensitive over the mixed magnitudes of V.
        ("group by float key", keys().aggregate(&["F"], numeric("V"))),
        (
            "group by nullable int key",
            keys().aggregate(&["K"], numeric("Q")),
        ),
        // Equal strings in shared and in distinct Arcs are one group.
        ("group by str key", keys().aggregate(&["S"], numeric("V"))),
        (
            "group by bool key",
            keys().aggregate(&["B"], every_agg("S")),
        ),
        (
            "multi-column key",
            keys().aggregate(&["K", "S"], every_agg("B")),
        ),
        (
            "four-column key",
            keys().aggregate(&["F", "K", "S", "B"], vec![AggSpec::count_star("N")]),
        ),
        ("global aggregates", keys().aggregate(&[], numeric("V"))),
        (
            "global extrema over str",
            keys().aggregate(&[], every_agg("S")),
        ),
        (
            "global extrema over bool",
            keys().aggregate(&[], every_agg("B")),
        ),
        (
            "expression argument under a selection",
            keys().filter(Expr::col("Q").gt(Expr::lit(0))).aggregate(
                &["K"],
                vec![AggSpec::new(
                    "X",
                    AggFunc::Sum,
                    Expr::col("V").mul(Expr::lit(2)).add(Expr::col("Q")),
                )],
            ),
        ),
        // Typed errors: same error, same first lane, in every config.
        (
            "sum over str",
            keys().aggregate(
                &["K"],
                vec![AggSpec::count_star("N"), agg("X", AggFunc::Sum, "S")],
            ),
        ),
        (
            "avg over str",
            keys().aggregate(&[], vec![agg("X", AggFunc::Avg, "S")]),
        ),
        (
            "sum over bool then avg over str",
            keys().aggregate(
                &["F"],
                vec![agg("X", AggFunc::Sum, "B"), agg("Y", AggFunc::Avg, "S")],
            ),
        ),
        // Empty input: identities without GROUP BY, no rows with it.
        (
            "empty global",
            Plan::scan("EMPTY").aggregate(&[], numeric("V")),
        ),
        (
            "empty grouped",
            Plan::scan("EMPTY").aggregate(&["K"], numeric("V")),
        ),
        (
            "filtered-empty global",
            keys()
                .filter(Expr::col("Q").gt(Expr::lit(99)))
                .aggregate(&[], every_agg("S")),
        ),
        (
            "filtered-empty grouped",
            keys()
                .filter(Expr::col("Q").gt(Expr::lit(99)))
                .aggregate(&["S"], every_agg("S")),
        ),
        // Sorts: NULLs first, -0.0 ties 0.0, ties keep input order.
        (
            "multi-key sort",
            keys().sort(vec![
                SortKey::asc(Expr::col("B")),
                SortKey::desc(Expr::col("Q")),
            ]),
        ),
        (
            "sort by str desc",
            keys().sort(vec![SortKey::desc(Expr::col("S"))]),
        ),
        (
            "sort under a selection",
            keys()
                .filter(Expr::col("K").ge(Expr::lit(2)))
                .sort(vec![SortKey::asc(Expr::col("F"))])
                .limit(40),
        ),
        (
            "limit over a filter",
            keys().filter(Expr::col("Q").lt(Expr::lit(0))).limit(9),
        ),
        // A string column against a literal: decided per dictionary entry
        // on an unselected input, per lane under a selection.
        (
            "str column below a literal",
            keys().filter(Expr::col("S").lt(Expr::lit("b"))),
        ),
        (
            "literal at most a str column, under a selection",
            keys()
                .filter(Expr::col("Q").gt(Expr::lit(-2)))
                .filter(Expr::lit("b").le(Expr::col("S")))
                .aggregate(&["S"], vec![AggSpec::count_star("N")]),
        ),
    ];
    // Top-k must equal stable-sort-then-truncate at the boundaries.
    for (name, k) in [
        ("tied sort limit 0", 0),
        ("tied sort limit 1", 1),
        ("tied sort limit rows", KEYS_ROWS),
        ("tied sort limit rows+1", KEYS_ROWS + 1),
        ("tied sort limit 25", 25),
    ] {
        plans.push((
            name,
            keys().sort(vec![SortKey::asc(Expr::col("Q"))]).limit(k),
        ));
    }
    // Joins: NULL keys never match; duplicate build keys fan out; the
    // selection vector sits on the probe side, the build side, or both.
    let dim = || Plan::scan("DIM");
    let probe_sel = || keys().filter(Expr::col("Q").gt(Expr::lit(-2)));
    let build_sel = || dim().filter(Expr::col("FLAG"));
    plans.extend([
        ("join int key", keys().join(dim(), &[("K", "DK")])),
        (
            "join, probe selected",
            probe_sel().join(dim(), &[("K", "DK")]),
        ),
        (
            "join, build selected",
            keys().join(build_sel(), &[("K", "DK")]),
        ),
        (
            "join, both selected",
            probe_sel().join(build_sel(), &[("K", "DK")]),
        ),
        (
            "join, left build",
            build_sel().join(probe_sel(), &[("DK", "K")]),
        ),
        ("join str key", keys().join(dim(), &[("S", "DS")])),
        ("join float key", probe_sel().join(dim(), &[("F", "W")])),
        (
            "join two keys",
            keys().join(build_sel(), &[("K", "DK"), ("S", "DS")]),
        ),
        // Int and Float keys never match, at any numeric value.
        ("join int to float key", keys().join(dim(), &[("K", "W")])),
        (
            "aggregate over join reads two columns",
            probe_sel().join(dim(), &[("K", "DK")]).aggregate(
                &["DS"],
                vec![AggSpec::count_star("N"), agg("T", AggFunc::Sum, "V")],
            ),
        ),
        (
            "top-k over join",
            keys()
                .join(dim(), &[("K", "DK")])
                .sort(vec![
                    SortKey::desc(Expr::col("W")),
                    SortKey::asc(Expr::col("Q")),
                ])
                .limit(17),
        ),
    ]);
    plans
}

/// `WHERE` shapes over a join of two scans. `pushed` says whether the
/// planner, now that it sees the scans' schemas, must move (part of) the
/// predicate below the join.
fn pushdown_plans() -> Vec<(&'static str, Plan, bool)> {
    let joined = || Plan::scan("KEYS").join(Plan::scan("DIM"), &[("K", "DK")]);
    let left = || Expr::col("V").gt(Expr::lit(0.5));
    let right = || Expr::col("W").gt(Expr::lit(1.0));
    let cross = || Expr::col("V").gt(Expr::col("W"));
    let collide = || Plan::scan("KEYS").join(Plan::scan("DIMK"), &[("K", "K")]);
    vec![
        ("left-only", joined().filter(left()), true),
        ("right-only", joined().filter(right()), true),
        (
            "one conjunct per side",
            joined().filter(left().and(right())),
            true,
        ),
        ("cross-side stays above", joined().filter(cross()), false),
        (
            "pushable and cross-side conjuncts",
            joined().filter(left().and(cross())),
            true,
        ),
        (
            "arithmetic on one side",
            joined().filter(Expr::col("V").add(Expr::col("Q")).gt(Expr::lit(1))),
            true,
        ),
        (
            "is-null on the right",
            joined().filter(Expr::col("DS").is_null().not()),
            true,
        ),
        (
            "colliding key name, left column",
            collide().filter(Expr::col("K").gt(Expr::lit(1))),
            true,
        ),
        (
            "colliding key name, renamed right column",
            collide().filter(Expr::col("r.K").gt(Expr::lit(1))),
            false,
        ),
        (
            "under aggregate and sort",
            joined()
                .filter(left().and(right()))
                .aggregate(&["DS"], vec![agg("T", AggFunc::Sum, "V")])
                .sort(vec![SortKey::asc(Expr::col("DS"))]),
            true,
        ),
    ]
}

/// A copy of `db` that spills every join build and group-by past 16 rows
/// into 5 Grace partitions.
fn spilling(db: &Catalog, dir: &std::path::Path) -> Catalog {
    std::fs::create_dir_all(dir).unwrap();
    let mut out = db.clone();
    out.set_spill_config(SpillConfig {
        threshold_rows: 16,
        partitions: 5,
        dir: Some(dir.to_path_buf()),
        page_size: 512,
        ..db.spill_config().clone()
    });
    out
}

#[test]
fn typed_kernel_families_are_invariant_across_threads_backings_and_spill() {
    let db = kernel_catalog(chaos_seed());
    let (paged, dir) = paged_twin(&db);
    let configs = [
        ("mem", db.clone()),
        ("paged", paged.clone()),
        ("mem+spill", spilling(&db, &dir.join("spill_mem"))),
        ("paged+spill", spilling(&paged, &dir.join("spill_paged"))),
    ];
    let pushdown = pushdown_plans()
        .into_iter()
        .map(|(name, plan, _)| (name, plan));
    for (name, plan) in kernel_plans().into_iter().chain(pushdown) {
        let mut results = Vec::new();
        for (tag, config) in &configs {
            let what = format!("[{tag}] {name}");
            results.push(assert_plan_invariant(config, &db, &plan, true, &what));
        }
        // Backing and spilling change nothing either: not the rows, not
        // the error.
        for (r, (tag, _)) in results.iter().zip(&configs) {
            assert_eq!(&results[0], r, "{name}: [{tag}] diverged from [mem]");
        }
    }
    // The spill configs really do run Grace partitions.
    let grouped = Plan::scan("KEYS").aggregate(&["K"], vec![AggSpec::count_star("N")]);
    let joined = Plan::scan("KEYS").join(Plan::scan("KEYS"), &[("K", "K")]);
    for plan in [grouped, joined] {
        let (_, ledger) = run_traced(&configs[2].1, &plan);
        assert!(
            ledger.iter().any(|span| span.contains("spilled=true")),
            "{ledger:?}"
        );
    }
    drop(configs);
    drop(paged);
    std::fs::remove_dir_all(&dir).ok();
}

/// The planner resolves scan schemas from the catalog, so a `WHERE` over
/// a join of scans is pushed below the join exactly when it names one
/// side's columns — and pushed or not, results equal the reference
/// interpreter's on the unrewritten plan.
#[test]
fn join_of_scans_pushdown_matches_unoptimized_lowering() {
    let db = kernel_catalog(chaos_seed().wrapping_add(6));
    for (name, plan, pushed) in pushdown_plans() {
        let explained = optimize(plan.clone(), &db).explain();
        let lines: Vec<&str> = explained.lines().map(str::trim_start).collect();
        let join_at = lines
            .iter()
            .position(|l| l.starts_with("HashJoin"))
            .unwrap();
        let below = lines[join_at..].iter().any(|l| l.starts_with("Filter"));
        assert_eq!(below, pushed, "{name}: optimized to\n{explained}");
        let optimized = PreparedQuery::prepare(&plan, &db).unwrap();
        assert_eq!(
            canon_rows(&optimized.execute(&db).unwrap()),
            canon_rows(&reference::execute(&plan, &db).unwrap()),
            "{name}: pushdown changed the result"
        );
    }
}
