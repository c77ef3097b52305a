//! Property suite for the cell ↔ lane round trip of a [`Table`].
//!
//! A table is columns, and the row executor — the differential oracle of
//! the vectorized engine — reads its inputs through `Table::rows()` and
//! builds its result with `Table::push_row`. So the one thing oracle and
//! engine share is this round trip, and it has to be exact on its own:
//! rows → `Table` → `rows()` is the identity to the bit, the columns built
//! by appending equal the columns decoded from a paged file of the same
//! rows, and rows a schema rejects are still rejected with typed errors.

use mde_mcdb::prelude::*;
use mde_mcdb::query::column::ColumnVec;
use mde_mcdb::storage::BufferPool;
use mde_mcdb::McdbError;
use mde_numeric::rng::for_cases;
use std::sync::atomic::{AtomicU64, Ordering};

const COLS: [(&str, DataType); 4] = [
    ("I", DataType::Int),
    ("F", DataType::Float),
    ("S", DataType::Str),
    ("B", DataType::Bool),
];

/// The hostile value of column `col` for `pick`; `alt` is an arbitrary
/// finite float / its bits.
fn hostile(col: usize, pick: usize, alt: f64) -> Value {
    match col {
        0 => Value::from([i64::MIN, i64::MAX, 0, -1, 1, alt.to_bits() as i64][pick % 6]),
        1 => Value::from(
            [
                0.0,
                -0.0,
                f64::MIN_POSITIVE / 2.0, // subnormal
                -f64::MIN_POSITIVE / 4.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN_POSITIVE,
                alt,
            ][pick % 9],
        ),
        2 => Value::from(
            [
                "",
                "x",
                "héllo",
                "日本語",
                "🦀",
                "NULL",
                "a\tb\nc",
                "o'brien",
            ][pick % 8],
        ),
        _ => Value::from(pick.is_multiple_of(2)),
    }
}

/// Row-major values with `NULL` wherever `null_at(row, col)`.
fn rows_of(
    n: usize,
    picks: &[usize],
    alt: f64,
    null_at: impl Fn(usize, usize) -> bool,
) -> Vec<Vec<Value>> {
    (0..n)
        .map(|r| {
            (0..COLS.len())
                .map(|c| {
                    if null_at(r, c) {
                        Value::Null
                    } else {
                        hostile(c, picks[(r * COLS.len() + c) % picks.len()], alt)
                    }
                })
                .collect()
        })
        .collect()
}

/// A value as something `==` compares exactly: floats by bit pattern
/// (`Value`'s own equality says `-0.0 == 0.0` and `1 == 1.0`).
fn exact(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:#018x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn exact_rows(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(exact).collect()).collect()
}

/// Column for column, lane for lane, floats by bit pattern.
fn assert_same_columns(built: &Table, decoded: &Table, what: &str) {
    let (a, b) = (built.batch(), decoded.try_batch().unwrap());
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (j, (x, y)) in a.columns().iter().zip(b.columns()).enumerate() {
        assert_eq!(
            x.dtype(),
            Some(COLS[j].1),
            "{what}: built column {j} is typed as declared"
        );
        assert_eq!(x.dtype(), y.dtype(), "{what}: column {j} type");
        for lane in 0..a.len() {
            assert_eq!(
                x.is_null(lane),
                y.is_null(lane),
                "{what}: column {j} lane {lane} null"
            );
            assert_eq!(
                exact(&x.value(lane)),
                exact(&y.value(lane)),
                "{what}: column {j} lane {lane}"
            );
        }
        if let (ColumnVec::Float { data: p, .. }, ColumnVec::Float { data: q, .. }) = (x, y) {
            // Placeholders at null lanes included.
            let bits = |d: &[f64]| d.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p), bits(q), "{what}: float column {j} payload");
        }
    }
    // And the representations agree too (null-mask words, placeholders).
    assert_eq!(*a, *b, "{what}: batch representation");
}

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Build from rows, check the row view, write pages, read them back.
fn check_round_trip(rows: Vec<Vec<Value>>, page_size: usize, what: &str) {
    let built = Table::build("T", &COLS)
        .rows(rows.iter().cloned())
        .finish()
        .unwrap();
    assert_eq!(built.len(), rows.len(), "{what}");
    assert_eq!(
        exact_rows(built.rows()),
        exact_rows(&rows),
        "{what}: rows() is the identity"
    );
    // The cell readers agree with the view.
    for (j, (name, _)) in COLS.iter().enumerate() {
        let cells: Vec<String> = built.column(name).unwrap().iter().map(exact).collect();
        let want: Vec<String> = rows.iter().map(|r| exact(&r[j])).collect();
        assert_eq!(cells, want, "{what}: column({name})");
    }

    let dir = std::env::temp_dir().join(format!(
        "mde_table_columns_{}_{}",
        std::process::id(),
        FILE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let paged = built
        .to_paged(&dir.join("t.mdet"), page_size, BufferPool::new(4))
        .unwrap();
    assert_same_columns(&built, &paged, what);
    assert_eq!(
        exact_rows(paged.rows()),
        exact_rows(&rows),
        "{what}: paged rows()"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Generated tables over the hostile palette, 0..140 rows (both sides
/// of the 64-lane mask word), NULLs scattered by a random stride.
#[test]
fn rows_round_trip_and_appended_columns_equal_decoded_columns() {
    for_cases(48, |rng| {
        let n = rng.gen_range(0usize..140);
        let picks: Vec<usize> = (0..rng.gen_range(1..131))
            .map(|_| rng.gen_range(0..72))
            .collect();
        // Any finite bit pattern: a Float column refuses NaN with a typed error.
        let alt = loop {
            let x = f64::from_bits(rng.gen());
            if x.is_finite() {
                break x;
            }
        };
        let null_stride = rng.gen_range(1usize..9);
        let page_pick = rng.gen_range(0usize..3);
        let lane = |r: usize, c: usize| r * COLS.len() + c + picks[0];
        let null_at = |r: usize, c: usize| lane(r, c).is_multiple_of(null_stride + 1);
        let rows = rows_of(n, &picks, alt, null_at);
        check_round_trip(rows, [256, 1024, 16 * 1024][page_pick], "generated");
    });
}

#[test]
fn nulls_at_the_mask_word_boundary_and_in_every_column() {
    let picks: Vec<usize> = (0..97).collect();
    for lane in [0usize, 63, 64, 65] {
        for col in 0..COLS.len() {
            let rows = rows_of(130, &picks, 1.5, |r, c| r == lane && c == col);
            check_round_trip(rows, 512, &format!("null at lane {lane} of column {col}"));
        }
        let rows = rows_of(130, &picks, 1.5, |r, _| r == lane);
        check_round_trip(rows, 512, &format!("null row at lane {lane}"));
    }
}

#[test]
fn all_null_columns_stay_typed_and_zero_rows_round_trip() {
    let picks: Vec<usize> = (0..97).collect();
    for col in 0..COLS.len() {
        for n in [1usize, 64, 65] {
            let rows = rows_of(n, &picks, -2.5, |_, c| c == col);
            check_round_trip(rows, 256, &format!("all-NULL column {col}, {n} rows"));
        }
    }
    check_round_trip(
        rows_of(70, &picks, 0.0, |_, _| true),
        256,
        "every cell NULL",
    );
    check_round_trip(Vec::new(), 256, "zero rows");
}

#[test]
fn rows_the_schema_rejects_are_still_typed_errors_and_leave_the_table_unchanged() {
    let picks: Vec<usize> = (0..97).collect();
    let rows = rows_of(3, &picks, 1.0, |_, _| false);
    let mut t = Table::build("T", &COLS)
        .rows(rows.iter().cloned())
        .finish()
        .unwrap();
    let good = rows[0].clone();

    let mut nan = good.clone();
    nan[1] = Value::from(f64::NAN);
    match t.push_row(nan).unwrap_err() {
        McdbError::TypeMismatch {
            context,
            expected,
            found,
        } => {
            assert_eq!(
                (context.as_str(), expected.as_str(), found.as_str()),
                ("column `F`", "finite float or NULL", "NaN")
            );
        }
        other => panic!("NaN: {other:?}"),
    }

    // Wrong type in each column — including Int where Float is declared:
    // only expressions widen, storage does not.
    for (col, bad) in [
        (0, Value::from(1.5)),
        (1, Value::from(1)),
        (2, Value::from(true)),
        (3, Value::from("true")),
    ] {
        let mut row = good.clone();
        let found = bad.data_type().unwrap().to_string();
        row[col] = bad;
        match t.push_row(row).unwrap_err() {
            McdbError::TypeMismatch {
                context,
                expected,
                found: got,
            } => {
                assert_eq!(context, format!("column `{}`", COLS[col].0));
                assert_eq!(expected, COLS[col].1.to_string());
                assert_eq!(got, found);
            }
            other => panic!("column {col}: {other:?}"),
        }
    }

    for bad_arity in [
        good[..3].to_vec(),
        [good.clone(), vec![Value::Null]].concat(),
    ] {
        let found_len = bad_arity.len();
        match t.push_row(bad_arity).unwrap_err() {
            McdbError::ArityMismatch {
                context,
                expected,
                found,
            } => {
                assert_eq!(context, "Schema::validate_row");
                assert_eq!((expected, found), (4, found_len));
            }
            other => panic!("arity: {other:?}"),
        }
    }

    // Nothing above reached a column.
    assert_eq!(exact_rows(t.rows()), exact_rows(&rows));
    assert!(t.batch().columns().iter().all(|c| c.len() == 3));
    // The builder reports the same errors.
    assert!(matches!(
        Table::build("T", &COLS).row(vec![Value::Null; 3]).finish(),
        Err(McdbError::ArityMismatch { .. })
    ));
}

/// A query result shares its string dictionary with the table it read (a
/// gather clones one `Arc`). An append that brings a new string copies the
/// dictionary first, so the earlier result is what it was — codes, values,
/// dictionary — and the table holds the new row.
#[test]
fn an_append_after_a_query_leaves_the_earlier_result_as_it_was() {
    let mut db = Catalog::new();
    db.insert(
        Table::build("T", &[("S", DataType::Str), ("I", DataType::Int)])
            .rows((0..6).map(|i| vec![Value::from(["x", "y", "é"][i % 3]), Value::from(i as i64)]))
            .finish()
            .unwrap(),
    );
    let odd = Plan::scan("T").filter(Expr::col("I").gt(Expr::lit(2)));
    let before = db.query(&odd).unwrap();
    let dict_of = |t: &Table| match t.batch().column(0) {
        ColumnVec::Str { dict, .. } => std::sync::Arc::clone(dict),
        other => panic!("expected Str, got {other:?}"),
    };
    let (shared, frozen) = (dict_of(&before), exact_rows(before.rows()));
    assert!(std::sync::Arc::ptr_eq(
        &shared,
        &dict_of(db.get("T").unwrap())
    ));

    let mut t = db.remove("T").unwrap();
    t.push_row(vec![Value::from("y"), Value::from(6)]).unwrap();
    t.push_row(vec![Value::from("brand new"), Value::from(7)])
        .unwrap();
    t.push_row(vec![Value::Null, Value::from(8)]).unwrap();
    db.insert(t);

    assert_eq!(exact_rows(before.rows()), frozen);
    assert!(std::sync::Arc::ptr_eq(&shared, &dict_of(&before)));
    assert_eq!(shared.code_of("brand new"), None);
    let after = db.query(&odd).unwrap();
    assert_eq!(after.len(), before.len() + 3);
    assert_eq!(
        exact_rows(after.rows())[before.len()..],
        exact_rows(&[
            vec![Value::from("y"), Value::from(6)],
            vec![Value::from("brand new"), Value::from(7)],
            vec![Value::Null, Value::from(8)],
        ])[..]
    );
}
