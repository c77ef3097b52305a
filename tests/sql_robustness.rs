//! Fuzz-style robustness properties for the SQL front end: arbitrary input
//! must produce a typed error or a valid plan — never a panic — and
//! well-formed generated queries must round-trip through parse + execute.

use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::reference;
use model_data_ecosystems::mcdb::sql::{
    parse_create_random_table, parse_statement, plan_from_sql, tokenize, Statement, VgRegistry,
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

/// `parse_statement` never panics, and it is the two typed entries behind
/// one door: what it parses, `plan_from_sql` or `parse_create_random_table`
/// parses to the same result, and where it fails one of them fails with the
/// same error.
fn front_door_agrees(input: &str) {
    let registry = VgRegistry::standard();
    match parse_statement(input, &registry) {
        Ok(Statement::Select(plan)) => assert_eq!(Ok(plan), plan_from_sql(input), "{input}"),
        Ok(Statement::CreateRandomTable(spec)) => {
            let typed = parse_create_random_table(input, &registry).expect(input);
            assert_eq!(format!("{spec:?}"), format!("{typed:?}"), "{input}");
        }
        Err(e) => assert!(
            plan_from_sql(input) == Err(e.clone())
                || parse_create_random_table(input, &registry).err() == Some(e),
            "{input}"
        ),
    }
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
        front_door_agrees(&input);
    });
}

/// The DDL parser never panics on arbitrary input.
#[test]
fn ddl_parser_total_on_arbitrary_input() {
    for_cases(256, |rng| {
        let input = printable(rng);
        let _ = parse_create_random_table(&input, &VgRegistry::standard());
        front_door_agrees(&input);
        front_door_agrees(&format!("CREATE TABLE {input}"));
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
        front_door_agrees(&sql);
        front_door_agrees(&generated_ddl(rng));
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

/// One generated DDL statement: valid, or a valid one with a word deleted,
/// repeated, swapped with its neighbour or a stray symbol inserted. A
/// column list is either absent or names exactly the SELECT's output
/// columns, and a mutated statement has none.
fn generated_ddl(rng: &mut Rng) -> String {
    let pick = |rng: &mut Rng, xs: &[&'static str]| xs[rng.gen_range(0..xs.len())];
    let (create, for_each) =
        [("CREATE TABLE", "FOR EACH"), ("create table", "for each")][rng.gen_range(0..2usize)];
    let table = pick(rng, &["SBP_DATA", "X", "SHOCK"]);
    let driver = pick(rng, &["PATIENTS", "DIM", "T"]);
    let vg = pick(
        rng,
        &[
            "Normal",
            "Uniform",
            "Poisson",
            "Exponential",
            "BackwardWalk",
            "Zeta",
        ],
    );
    let args = pick(
        rng,
        &[
            "SELECT MEAN, STD FROM SBP_PARAM",
            "SELECT MEAN, STD FROM SBP_PARAM WHERE MEAN > 0",
            "SELECT AVG(MEAN) AS M, MAX(STD) AS S FROM SBP_PARAM",
            "PID * 100, 0.5",
            "W, 0.25",
            "-(PID + 1), ABS(W) / 2",
            "(SELECT MEAN FROM SBP_PARAM), 0.001",
            "(SELECT MEAN FROM SBP_PARAM)",
            "2",
            "",
        ],
    );
    let items: Vec<(&str, &str)> = (0..rng.gen_range(1..4usize))
        .map(|_| pick_item(rng))
        .collect();
    let select: Vec<String> = items
        .iter()
        .map(|(expr, alias)| match *alias {
            "" => expr.to_string(),
            alias => format!("{expr} AS {alias}"),
        })
        .collect();
    let mutate = rng.gen_range(0..3usize) != 0;
    let columns = if !mutate && rng.gen() {
        let names: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, (expr, alias))| match (*alias, *expr) {
                ("", e) if e.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') => {
                    e.to_string()
                }
                ("", _) => format!("col_{}", i + 1),
                (alias, _) => alias.to_string(),
            })
            .collect();
        format!("({})", names.join(", "))
    } else {
        String::new()
    };
    let sql = format!(
        "{create} {table}{columns} AS {for_each} {driver} WITH {vg}({args}) SELECT {}",
        select.join(", ")
    );
    if !mutate {
        return sql;
    }
    let mut words: Vec<String> = sql.split(' ').map(str::to_string).collect();
    let at = rng.gen_range(0..words.len());
    match rng.gen_range(0..4usize) {
        0 => {
            words.remove(at);
        }
        1 => words.insert(at, words[at].clone()),
        2 if at + 1 < words.len() => words.swap(at, at + 1),
        _ => words.insert(
            at,
            pick(rng, &["(", ")", ",", "*", "SELECT", "AS", "1"]).to_string(),
        ),
    }
    words.join(" ")
}

/// One projection item `(expression, alias)`; an empty alias is none.
fn pick_item(rng: &mut Rng) -> (&'static str, &'static str) {
    [
        ("PID", ""),
        ("GENDER", ""),
        ("VALUE", ""),
        ("VALUE", "SBP"),
        ("DK", "SK"),
        ("PID * 2", "D"),
        ("VALUE + 1", ""),
        ("PRICE", "S"),
    ][rng.gen_range(0..8usize)]
}

/// The stochastic-table DDL parses as it always has: a digest over 256
/// generated statements of which parse, which fail, and the `Debug` text of
/// every spec that parses, captured before the DDL grammar moved onto the
/// SELECT parser's cursor. Digests are held for the seeds CI sweeps; at any
/// other `MDE_CHAOS_SEED` the cases only have to parse or fail with a typed
/// error. Never regenerate a digest to make a change pass.
#[test]
fn ddl_parses_match_their_golden_digest() {
    use model_data_ecosystems::numeric::codec::{fnv1a, FNV_OFFSET};
    use model_data_ecosystems::numeric::rng::chaos_seed;
    let registry = VgRegistry::standard();
    let (mut digest, mut ok) = (FNV_OFFSET, 0);
    for_cases(256, |rng| {
        let sql = generated_ddl(rng);
        let text = match parse_create_random_table(&sql, &registry) {
            Ok(spec) => {
                ok += 1;
                format!("ok {spec:?}")
            }
            Err(_) => "err".to_string(),
        };
        digest = fnv1a(digest, text.as_bytes());
    });
    assert!(
        (32..224).contains(&ok),
        "{ok} of 256 parse: the mix is lopsided"
    );
    let golden = [
        (7, 0x8460_7576_7e6c_6092u64),
        (13, 0x31d8_f7df_7d93_cb90),
        (17, 0x2ffe_d8df_e6cd_9125),
    ];
    eprintln!("seed {} digest {digest:#018x} ok {ok}", chaos_seed());
    if let Some(&(_, want)) = golden.iter().find(|(seed, _)| *seed == chaos_seed()) {
        assert_eq!(digest, want, "{ok} of 256 parse");
    }
}
