//! Fuzz-style robustness properties for the SQL front end: arbitrary input
//! must produce a typed error or a valid plan — never a panic — and
//! well-formed generated queries must round-trip through parse + execute.

use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::reference;
use model_data_ecosystems::mcdb::sql::{
    parse_create_random_table, plan_from_sql, tokenize, VgRegistry,
};
use model_data_ecosystems::mcdb::McdbError;
use model_data_ecosystems::numeric::rng::{for_cases, Rng};

fn catalog() -> Catalog {
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

/// A string of `len` characters, each drawn uniformly from `charset`.
fn ascii(rng: &mut Rng, charset: &[u8], len: std::ops::RangeInclusive<usize>) -> String {
    (0..rng.gen_range(len))
        .map(|_| charset[rng.gen_range(0..charset.len())] as char)
        .collect()
}

/// Up to 120 printable ASCII characters.
fn printable(rng: &mut Rng) -> String {
    let charset: Vec<u8> = (b' '..=b'~').collect();
    ascii(rng, &charset, 0..=120)
}

/// The lexer never panics on arbitrary ASCII-ish input.
#[test]
fn tokenizer_total_on_arbitrary_input() {
    for_cases(256, |rng| {
        let input = printable(rng);
        let _ = tokenize(&input); // Ok or Err, never a panic
    });
}

/// The SELECT parser never panics on arbitrary input.
#[test]
fn select_parser_total_on_arbitrary_input() {
    for_cases(256, |rng| {
        let input = printable(rng);
        let _ = plan_from_sql(&input);
    });
}

/// The DDL parser never panics on arbitrary input.
#[test]
fn ddl_parser_total_on_arbitrary_input() {
    for_cases(256, |rng| {
        let input = printable(rng);
        let _ = parse_create_random_table(&input, &VgRegistry::standard());
    });
}

/// The parser never panics on *near-miss* SQL: a valid skeleton with
/// mutated fragments (the inputs a user actually types).
#[test]
fn select_parser_total_on_near_sql() {
    for_cases(256, |rng| {
        let cols = ascii(
            rng,
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ*,() ",
            1..=20,
        );
        let keyword = ["", "WHERE", "GROUP BY", "ORDER BY", "LIMIT", "JOIN"][rng.gen_range(0..6)];
        let space = if rng.gen() { " " } else { "" };
        let rest = ascii(rng, b"abcdefghijklmnopqrstuvwxyz0123456789<>=' ", 0..=30);
        let sql = format!("SELECT {cols} FROM t {keyword}{space}{rest}");
        let _ = plan_from_sql(&sql);
    });
}

/// End-to-end: a family of generated well-formed queries parses,
/// executes, and matches the equivalent hand-built plan's results.
#[test]
fn generated_queries_execute_and_match_hand_built() {
    for_cases(256, |rng| {
        let threshold = rng.gen_range(-5i64..15);
        let pick_col = rng.gen_range(0usize..2);
        let desc = rng.gen::<bool>();
        let limit = rng.gen_range(1usize..10);
        let col = ["a", "b"][pick_col];
        let sql = format!(
            "SELECT a, b FROM t WHERE {col} >= {threshold} ORDER BY a {} LIMIT {limit}",
            if desc { "DESC" } else { "ASC" },
        );
        let db = catalog();
        let via_sql = db.sql(&sql).unwrap();

        let mut keys = vec![if desc {
            model_data_ecosystems::mcdb::query::SortKey::desc(Expr::col("a"))
        } else {
            model_data_ecosystems::mcdb::query::SortKey::asc(Expr::col("a"))
        }];
        let hand = Plan::scan("t")
            .filter(Expr::col(col).ge(Expr::lit(threshold)))
            .project(&[("a", Expr::col("a")), ("b", Expr::col("b"))])
            .sort(std::mem::take(&mut keys))
            .limit(limit);
        let via_plan = db.query(&hand).unwrap();
        assert_eq!(via_sql.rows(), via_plan.rows(), "sql: {}", sql);
    });
}

/// Every generated well-formed query must produce the same result (or
/// the same failure status) under the default vectorized engine and the
/// legacy row-at-a-time executor, including coercion edges like integer
/// division and comparisons mixing Int and Float columns.
#[test]
fn generated_queries_identical_under_both_engines() {
    for_cases(256, |rng| {
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
        let db = catalog();
        if let Ok(plan) = plan_from_sql(&sql) {
            match (db.query(&plan), reference::execute(&plan, &db)) {
                (Ok(vectorized), Ok(legacy)) => {
                    assert_eq!(vectorized.rows(), legacy.rows(), "sql: {}", sql);
                }
                (Err(_), Err(_)) => {}
                (v, l) => panic!(
                    "engine status divergence for {}: vectorized={:?} legacy={:?}",
                    sql,
                    v.map(|t| t.len()),
                    l.map(|t| t.len())
                ),
            }
        }
    });
}

/// Regression: `SUM` over an `Int` column whose total reaches 9e15 used to
/// fall back to a `Float` result, which the `Int`-declared output column
/// then rejected with a `TypeMismatch`. Int sums are exact `i64` in both
/// engines, and leaving `i64` is a typed overflow error naming the
/// aggregate — never a wrap, never a change of result type.
#[test]
fn int_sum_past_9e15_is_exact_and_overflow_is_typed() {
    let big = |rows: &[i64]| {
        let mut c = Catalog::new();
        c.insert(
            Table::build("T", &[("X", DataType::Int)])
                .rows(rows.iter().map(|&x| vec![Value::from(x)]))
                .finish()
                .unwrap(),
        );
        c
    };
    let plan = plan_from_sql("SELECT SUM(X) AS S FROM T").unwrap();

    let db = big(&[4_000_000_000_000_000; 4]);
    for result in [db.query(&plan), reference::execute(&plan, &db)] {
        assert_eq!(
            result.unwrap().rows(),
            &[vec![Value::from(16_000_000_000_000_000i64)]]
        );
    }

    let db = big(&[i64::MAX, -5, 10]);
    let errors: Vec<McdbError> = [db.query(&plan), reference::execute(&plan, &db)]
        .into_iter()
        .map(|r| r.unwrap_err())
        .collect();
    assert!(
        matches!(&errors[0], McdbError::IntegerOverflow { context } if context.contains("SUM")),
        "{:?}",
        errors[0]
    );
    assert_eq!(errors[0], errors[1], "both engines fail identically");
}

/// Regression: the lexer rebuilt string literals byte by byte, each UTF-8
/// byte becoming one Latin-1 `char`, so `WHERE S = 'héllo'` matched no row
/// of a stored `"héllo"`. Literals holding 2-, 3- and 4-byte code points
/// now compare, project and group as the strings they spell, identically in
/// both engines; malformed non-ASCII input is a typed error, never a slice
/// panic.
#[test]
fn non_ascii_string_literals_mean_what_they_spell() {
    let words = ["héllo", "日本語", "🦀 crab", "o'brien ñ"];
    let mut db = Catalog::new();
    db.insert(
        Table::build("T", &[("X", DataType::Int), ("S", DataType::Str)])
            .rows((0..8).map(|i| vec![Value::from(i), Value::from(words[i as usize % 4])]))
            .finish()
            .unwrap(),
    );
    let both = |sql: &str| {
        let plan = plan_from_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let engine = db.query(&plan).unwrap();
        assert_eq!(engine, reference::execute(&plan, &db).unwrap(), "{sql}");
        engine
    };
    for (k, word) in words.iter().enumerate() {
        let lit = word.replace('\'', "''");
        let k = k as i64;
        // WHERE: the literal equals the stored string.
        let hit = both(&format!("SELECT X FROM T WHERE S = '{lit}' ORDER BY X"));
        assert_eq!(
            hit.column("X").unwrap(),
            [Value::from(k), Value::from(k + 4)]
        );
        // SELECT '…' AS c: the literal is projected as written.
        let lit_col = both(&format!("SELECT '{lit}' AS C, X FROM T WHERE X = {k}"));
        assert_eq!(lit_col.rows(), [vec![Value::from(*word), Value::from(k)]]);
    }
    // GROUP BY: stored strings group under themselves and a filter literal
    // picks its group.
    let groups = both("SELECT S, COUNT(*) AS N FROM T GROUP BY S ORDER BY S");
    assert_eq!(groups.len(), 4);
    let crab = both("SELECT S, COUNT(*) AS N FROM T WHERE S <> '日本語' GROUP BY S ORDER BY S");
    assert_eq!(crab.len(), 3);
    assert!(crab.column("S").unwrap().contains(&Value::from("🦀 crab")));

    for bad in [
        "SELECT X FROM T WHERE S = 'abc é",
        "SELECT X FROM T WHERE X <é 1",
        "SELECT é",
    ] {
        assert!(plan_from_sql(bad).is_err(), "{bad}");
    }
}
