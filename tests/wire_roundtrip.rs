//! Property: a `TABLE` reply frame decodes to the table it was encoded
//! from, whatever its string cells hold.
//!
//! `encode_table` escapes backslash, TAB, LF and CR in string cells and
//! writes a string spelled `NULL` as `\NULL`, so the frame always has the
//! `rows` × `cols` cells its header announces; `decode_reply` shows the
//! client those cells unescaped, and `parse_row` — what `INSERT` reads —
//! turns a row line back into the typed values, with the string `NULL` and
//! a null kept apart.

use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::numeric::rng::for_cases;
use model_data_ecosystems::server::client::{decode_reply, Reply};
use model_data_ecosystems::server::proto::{encode_table, parse_row};

const COLS: [(&str, DataType); 4] = [
    ("S", DataType::Str),
    ("I", DataType::Int),
    ("T", DataType::Str),
    ("F", DataType::Float),
];

/// Strings built from the bytes the framing cares about, plus multi-byte
/// characters and the spellings of a null.
fn hostile_string(picks: &[usize]) -> String {
    const PIECES: [&str; 14] = [
        "\t", "\n", "\r", "\\", "NULL", "\\NULL", "\\t", "\\n", "", "a", " ", "é", "日本", "🦀",
    ];
    match picks.first().map(|p| p % 5) {
        // Whole-cell edge cases now and then.
        Some(0) => PIECES[picks.len() % PIECES.len()].to_string(),
        _ => picks.iter().map(|&p| PIECES[p % PIECES.len()]).collect(),
    }
}

#[test]
fn decode_of_encode_is_the_table() {
    for_cases(128, |rng| {
        let n_rows = rng.gen_range(0usize..12);
        let picks: Vec<usize> = (0..rng.gen_range(1..131))
            .map(|_| rng.gen_range(0..1000))
            .collect();
        let lens: Vec<usize> = (0..rng.gen_range(1..40))
            .map(|_| rng.gen_range(0..6))
            .collect();
        let null_stride = rng.gen_range(1usize..7);
        // Any finite bit pattern: a Float column refuses NaN with a typed error.
        let x = loop {
            let x = f64::from_bits(rng.gen());
            if x.is_finite() {
                break x;
            }
        };
        let mut at = 0;
        let mut next_string = |k: usize| {
            let len = lens[k % lens.len()];
            let pieces: Vec<usize> = (0..len).map(|i| picks[(at + i) % picks.len()]).collect();
            let s = hostile_string(&pieces);
            at += len + 1;
            s
        };
        let rows: Vec<Vec<Value>> = (0..n_rows)
            .map(|r| {
                let cell = |c: usize, v: Value| match (r * 4 + c) % (null_stride + 1) {
                    0 => Value::Null,
                    _ => v,
                };
                vec![
                    cell(0, Value::from(next_string(2 * r))),
                    cell(1, Value::from(picks[r % picks.len()] as i64 - 500)),
                    cell(2, Value::from(next_string(2 * r + 1))),
                    cell(3, Value::from(x + r as f64)),
                ]
            })
            .collect();
        let table = Table::build("R", &COLS)
            .rows(rows.iter().cloned())
            .finish()
            .unwrap();
        let payload = encode_table(&table);

        // The frame has the lines its header announces.
        let lines: Vec<&str> = payload.split('\n').collect();
        assert_eq!(lines[0], format!("TABLE rows={} cols=4", n_rows));
        assert_eq!(lines.len(), n_rows + 2, "payload: {:?}", payload);

        // The client sees rows × cols cells, string cells as stored.
        match decode_reply(&payload) {
            Reply::Table {
                columns,
                rows: shown,
            } => {
                assert_eq!(columns, vec!["S:Str", "I:Int", "T:Str", "F:Float"]);
                assert_eq!(shown.len(), n_rows);
                for (shown, row) in shown.iter().zip(&rows) {
                    assert_eq!(shown.len(), 4);
                    for c in [0, 2] {
                        assert_eq!(&shown[c], &row[c].to_string());
                    }
                }
            }
            other => panic!("expected a table, got {other:?}"),
        }

        // Typed inverse, line by line: decode(encode(t)) == t.
        let columns: Vec<(String, DataType)> =
            COLS.iter().map(|(n, t)| (n.to_string(), *t)).collect();
        let mut decoded = Table::build("R", &COLS);
        for line in &lines[2..] {
            decoded = decoded.row(parse_row(line, &columns).unwrap());
        }
        let decoded = decoded.finish().unwrap();
        assert_eq!(&decoded, &table);
        for (got, want) in decoded.rows().iter().zip(&rows) {
            for (g, w) in got.iter().zip(want) {
                // `Value`'s equality is numeric; nulls and strings must match in kind.
                assert_eq!(g.data_type(), w.data_type());
            }
        }
    });
}

/// The reproduction from the issue: one row, two columns, a string holding
/// TAB and LF — the parent's frame parsed as two rows `["a","b"]`,
/// `["c","2"]`.
#[test]
fn a_tab_and_newline_in_a_string_literal_stay_one_cell_over_sql() {
    let mut db = Catalog::new();
    db.insert(
        Table::build("T", &[("X", DataType::Int)])
            .row(vec![Value::from(2)])
            .finish()
            .unwrap(),
    );
    let plan = model_data_ecosystems::mcdb::sql::plan_from_sql("SELECT 'a\tb\nc' AS S2, X FROM T")
        .unwrap();
    let payload = encode_table(&db.query(&plan).unwrap());
    assert_eq!(payload, "TABLE rows=1 cols=2\nS2:Str\tX:Int\na\\tb\\nc\t2");
    match decode_reply(&payload) {
        Reply::Table { rows, .. } => {
            assert_eq!(rows, vec![vec!["a\tb\nc".to_string(), "2".to_string()]])
        }
        other => panic!("{other:?}"),
    }
}
