//! String-keyed tables and plans shared by the differential suites
//! (`mcdb_properties`: engine ≡ reference interpreter; `storage_differential`:
//! memory ≡ paged ≡ Grace-spilled): two tables whose string columns are
//! dictionary-coded **independently**, so every join between them compares
//! contents across dictionaries, plus the key hazards of the typed kernels —
//! NULL, `""`, non-ASCII, equal contents behind a fresh `Arc` per row,
//! `-0.0`/`0.0`, and the one `Int` key whose lane hash is the NULL lane's.
#![allow(dead_code)]

use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::{AggFunc, AggSpec, SortKey};

/// How many plans [`string_plan_for`] knows.
pub const STRING_CASES: u8 = 9;

/// `hash_i64_one` inverted: every step of the splitmix64 finaliser is a
/// bijection of `u64`.
fn unhash_i64_one(h: u64) -> i64 {
    fn unxorshift(z: u64, by: u32) -> u64 {
        let mut x = z;
        for _ in 0..64 / by {
            x = z ^ (x >> by);
        }
        x
    }
    fn inverse(odd: u64) -> u64 {
        let mut inv = odd;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
        }
        inv
    }
    let z = unxorshift(h, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
    let z = unxorshift(z, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
    unxorshift(z, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15) as i64
}

/// The `Int` key that hashes like a NULL key part (`NULL_HASH` of
/// `query/kernels.rs`, whose unit tests hold this constant to the code):
/// it must group and join apart from NULL.
pub fn null_hash_twin() -> i64 {
    use model_data_ecosystems::mcdb::query::select::hash_i64_one;
    let twin = unhash_i64_one(0x9ae1_6a3b_2f90_404f);
    assert_eq!(hash_i64_one(twin), 0x9ae1_6a3b_2f90_404f);
    twin
}

/// `TAGGED(TAG, K, F, Q)` with `n_rows` rows and `NAMES(LABEL, K, W)`.
/// `TAG` drifts along the table (`t0`, `t1`, …), so a paged `TAGGED` holds a
/// different dictionary in every page; with `null_every == 1` every `TAG`
/// and every `K` is NULL.
pub fn string_tables(n_rows: usize, null_every: usize) -> [Table; 2] {
    let twin = null_hash_twin();
    let tagged = Table::build(
        "TAGGED",
        &[
            ("TAG", DataType::Str),
            ("K", DataType::Int),
            ("F", DataType::Float),
            ("Q", DataType::Int),
        ],
    )
    .rows((0..n_rows).map(|i| {
        let tag = if i % null_every == 0 {
            Value::Null
        } else {
            match i % 6 {
                0 => Value::from(""),
                1 => Value::from("é"),
                2 | 5 => Value::from("lo"),
                3 => Value::from("mid"),
                _ => Value::from(format!("t{}", i / 16)),
            }
        };
        let k = if (i + 1) % null_every == 0 {
            Value::Null
        } else if i % 4 == 1 {
            Value::from(twin)
        } else {
            Value::from((i % 3) as i64)
        };
        let f = match i % 5 {
            0 => Value::Null,
            1 => Value::from(-0.0),
            2 => Value::from(0.0),
            3 => Value::from(1.5),
            _ => Value::from(-2.25),
        };
        vec![tag, k, f, Value::from(i as i64)]
    }))
    .finish()
    .unwrap();
    let labels = [
        None,
        Some("lo"),
        Some("mid"),
        Some("hi"),
        Some(""),
        Some("é"),
        Some("lo"),
        Some("t1"),
    ];
    let keys = [
        Some(1),
        None,
        Some(0),
        Some(twin),
        Some(2),
        Some(1),
        Some(twin),
        Some(0),
    ];
    let names = Table::build(
        "NAMES",
        &[
            ("LABEL", DataType::Str),
            ("K", DataType::Int),
            ("W", DataType::Int),
        ],
    )
    .rows((0..labels.len()).map(|j| {
        vec![
            labels[j].map_or(Value::Null, Value::from),
            keys[j].map_or(Value::Null, Value::from),
            Value::from(j as i64 * 10),
        ]
    }))
    .finish()
    .unwrap();
    [tagged, names]
}

/// One plan per kernel route a string (or hazardous) key can take.
pub fn string_plan_for(case: u8, limit: usize) -> Plan {
    let tagged = || Plan::scan("TAGGED");
    let names = || Plan::scan("NAMES");
    let agg = |name: &str, func, col: &str| AggSpec::new(name, func, Expr::col(col));
    match case % STRING_CASES {
        // A string join key across two dictionaries; `lo` fans out.
        0 => tagged().join(names(), &[("TAG", "LABEL")]),
        // The small side first: the engine builds on the left.
        1 => names().join(tagged(), &[("LABEL", "TAG")]),
        // Group-by on one string key, with string extrema.
        2 => tagged().aggregate(
            &["TAG"],
            vec![
                AggSpec::count_star("N"),
                agg("LO", AggFunc::Min, "TAG"),
                agg("HI", AggFunc::Max, "TAG"),
                agg("S", AggFunc::Sum, "F"),
            ],
        ),
        3 => tagged()
            .sort(vec![
                SortKey::desc(Expr::col("TAG")),
                SortKey::asc(Expr::col("Q")),
            ])
            .limit(limit),
        // Column against literal, both ways round, under Kleene OR.
        4 => tagged().filter(
            Expr::col("TAG")
                .lt(Expr::lit("lo"))
                .or(Expr::lit("mid").le(Expr::col("TAG"))),
        ),
        // Composite keys mixing Str, Int and a nullable Float.
        5 => tagged().aggregate(
            &["TAG", "K", "F"],
            vec![AggSpec::count_star("N"), agg("T", AggFunc::Sum, "Q")],
        ),
        6 => tagged().join(names(), &[("TAG", "LABEL"), ("K", "K")]),
        // One nullable Int key holding the NULL-hash twin.
        7 => tagged().aggregate(
            &["K"],
            vec![AggSpec::count_star("N"), agg("HI", AggFunc::Max, "TAG")],
        ),
        _ => tagged()
            .filter(Expr::col("TAG").ne(Expr::lit("é")))
            .join(names(), &[("K", "K")]),
    }
}
