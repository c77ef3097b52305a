//! The reference interpreter: the row-at-a-time semantics the vectorized
//! engine ([`super::PreparedQuery`]) is held to by differential tests.
//!
//! It runs the plan as given, without the optimizer, pull-based and
//! materializing each operator's output. Joins are hash joins; aggregation
//! is hash-grouped with streaming accumulators; sorting precomputes key
//! values so the comparator never fails mid-sort. All expressions are bound
//! once per operator.

use super::kernels::checked_int_sum;
use super::{AggFunc, Catalog, Plan, SortKey};
use crate::expr::BoundExpr;
use crate::schema::Schema;
use crate::table::{Row, Table};
use crate::value::{GroupKey, Value};
use crate::McdbError;
use std::cmp::Ordering;
use std::collections::HashMap;

/// One operator's output. Operators hand rows to each other; only the root
/// builds a [`Table`].
type Rows = (Schema, Vec<Row>);

fn rows_of(table: &Table) -> Rows {
    (table.schema().clone(), table.rows().to_vec())
}

/// Execute a plan against a catalog, materializing the result table.
///
/// This interpreter is the differential reference for the vectorized
/// engine, so it shares as little with it as a `Table` allows: inputs are
/// read through [`Table::rows`], operators pass `Vec<Row>`, and the one
/// result table is built row by row with [`Table::push_row`].
pub fn execute(plan: &Plan, catalog: &Catalog) -> crate::Result<Table> {
    let name = match plan {
        Plan::Scan { table } => table.as_str(),
        Plan::Values { table } => table.name(),
        Plan::Filter { .. } => "filter",
        Plan::Project { .. } => "project",
        Plan::Join { .. } => "join",
        Plan::Aggregate { .. } => "aggregate",
        Plan::Sort { .. } => "sort",
        Plan::Limit { .. } => "limit",
    };
    let (schema, rows) = run(plan, catalog)?;
    let mut out = Table::new(name, schema);
    for row in rows {
        out.push_row(row)?;
    }
    Ok(out)
}

fn run(plan: &Plan, catalog: &Catalog) -> crate::Result<Rows> {
    match plan {
        Plan::Scan { table } => Ok(rows_of(catalog.get(table)?)),
        Plan::Values { table } => Ok(rows_of(table)),
        Plan::Filter { input, predicate } => {
            let (schema, input) = run(input, catalog)?;
            let bound = predicate.bind(&schema)?;
            let mut rows = Vec::new();
            for row in input {
                if bound.eval_predicate(&row)? {
                    rows.push(row);
                }
            }
            Ok((schema, rows))
        }
        Plan::Project { input, exprs } => {
            let (schema, input) = run(input, catalog)?;
            let out_schema = plan.output_schema(catalog)?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(_, e)| e.bind(&schema))
                .collect::<crate::Result<_>>()?;
            let mut rows = Vec::with_capacity(input.len());
            for row in &input {
                let mut new_row = Vec::with_capacity(bound.len());
                for (b, col) in bound.iter().zip(out_schema.columns()) {
                    let v = b.eval(row)?;
                    // Reconcile inferred static type with the runtime value:
                    // Int literals flowing into Float columns are coerced.
                    let v = coerce(v, col.dtype);
                    new_row.push(v);
                }
                out_schema.validate_row(&new_row)?;
                rows.push(new_row);
            }
            Ok((out_schema, rows))
        }
        Plan::Join {
            left,
            right,
            on,
            right_prefix,
        } => {
            let (l_schema, l_rows) = run(left, catalog)?;
            let (r_schema, r_rows) = run(right, catalog)?;
            if on.is_empty() {
                return Err(McdbError::invalid_plan(
                    "join requires at least one key pair (cross joins unsupported)",
                ));
            }
            let l_idx: Vec<usize> = on
                .iter()
                .map(|(l, _)| l_schema.index_of(l))
                .collect::<crate::Result<_>>()?;
            let r_idx: Vec<usize> = on
                .iter()
                .map(|(_, r)| r_schema.index_of(r))
                .collect::<crate::Result<_>>()?;

            let out_schema = l_schema.concat(&r_schema, right_prefix)?;

            // Build the hash index on the smaller input (classical
            // build-side selection) and probe with the larger one. Output
            // order is left-major either way: probing the left visits it in
            // row order; probing the right collects (left, right) pairs
            // that are restored to left-major order before emitting.
            let key_of = |row: &Row, idx: &[usize]| -> Option<Vec<GroupKey>> {
                // SQL inner-join semantics: Null keys never match.
                if idx.iter().any(|&j| row[j].is_null()) {
                    return None;
                }
                Some(idx.iter().map(|&j| row[j].group_key()).collect())
            };
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            if r_rows.len() <= l_rows.len() {
                let mut index: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::new();
                for (i, row) in r_rows.iter().enumerate() {
                    if let Some(key) = key_of(row, &r_idx) {
                        index.entry(key).or_default().push(i);
                    }
                }
                for (i, lrow) in l_rows.iter().enumerate() {
                    if let Some(matches) = key_of(lrow, &l_idx).and_then(|k| index.get(&k)) {
                        for &ri in matches {
                            pairs.push((i, ri));
                        }
                    }
                }
            } else {
                let mut index: HashMap<Vec<GroupKey>, Vec<usize>> = HashMap::new();
                for (i, row) in l_rows.iter().enumerate() {
                    if let Some(key) = key_of(row, &l_idx) {
                        index.entry(key).or_default().push(i);
                    }
                }
                for (i, rrow) in r_rows.iter().enumerate() {
                    if let Some(matches) = key_of(rrow, &r_idx).and_then(|k| index.get(&k)) {
                        for &li in matches {
                            pairs.push((li, i));
                        }
                    }
                }
                pairs.sort_unstable();
            }

            let rows = pairs
                .into_iter()
                .map(|(li, ri)| {
                    let mut row = l_rows[li].clone();
                    row.extend(r_rows[ri].iter().cloned());
                    row
                })
                .collect();
            Ok((out_schema, rows))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (schema, input) = run(input, catalog)?;
            let out_schema = plan.output_schema(catalog)?;
            let group_idx: Vec<usize> = group_by
                .iter()
                .map(|g| schema.index_of(g))
                .collect::<crate::Result<_>>()?;
            let bound_args: Vec<Option<BoundExpr>> = aggs
                .iter()
                .map(|a| a.arg.as_ref().map(|e| e.bind(&schema)).transpose())
                .collect::<crate::Result<_>>()?;

            // Group rows, remembering first-seen group key values and order.
            let mut states: HashMap<Vec<GroupKey>, (Row, Vec<AggState>)> = HashMap::new();
            let mut order: Vec<Vec<GroupKey>> = Vec::new();
            for row in &input {
                let key: Vec<GroupKey> = group_idx.iter().map(|&j| row[j].group_key()).collect();
                let entry = states.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (
                        group_idx.iter().map(|&j| row[j].clone()).collect(),
                        aggs.iter().map(|a| AggState::new(a.func)).collect(),
                    )
                });
                for (state, bound) in entry.1.iter_mut().zip(&bound_args) {
                    let v = match bound {
                        Some(b) => Some(b.eval(row)?),
                        None => None,
                    };
                    state.update(v)?;
                }
            }

            let mut rows = Vec::with_capacity(order.len());
            if states.is_empty() && group_by.is_empty() {
                // Global aggregate over empty input: one row of identities,
                // coerced to declared output types (e.g. SUM over empty -> NULL).
                let row: Row = aggs
                    .iter()
                    .zip(out_schema.columns())
                    .map(|(a, c)| coerce(AggState::new(a.func).finish(), c.dtype))
                    .collect();
                out_schema.validate_row(&row)?;
                rows.push(row);
            }
            for key in order {
                let (group_vals, sts) = states.remove(&key).expect("key recorded in order");
                let mut row = group_vals;
                for (st, col) in sts
                    .into_iter()
                    .zip(out_schema.columns().iter().skip(group_by.len()))
                {
                    row.push(coerce(st.finish(), col.dtype));
                }
                out_schema.validate_row(&row)?;
                rows.push(row);
            }
            Ok((out_schema, rows))
        }
        Plan::Sort { input, keys } => {
            let (schema, input) = run(input, catalog)?;
            let bound: Vec<(BoundExpr, bool)> = keys
                .iter()
                .map(|SortKey { expr, ascending }| Ok((expr.bind(&schema)?, *ascending)))
                .collect::<crate::Result<_>>()?;
            // Precompute sort keys so the comparator is infallible.
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(input.len());
            for row in input {
                let ks: Vec<Value> = bound
                    .iter()
                    .map(|(b, _)| b.eval(&row))
                    .collect::<crate::Result<_>>()?;
                keyed.push((ks, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(&bound) {
                    let ord = sql_sort_cmp(a, b);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            Ok((schema, keyed.into_iter().map(|(_, row)| row).collect()))
        }
        Plan::Limit { input, n } => {
            let (schema, mut rows) = run(input, catalog)?;
            rows.truncate(*n);
            Ok((schema, rows))
        }
    }
}

/// Total order for sorting: Nulls first, then SQL comparison; incomparable
/// values (mixed types that slipped past typing) tie. The vectorized
/// engine's typed twin is `kernels::cmp_lanes`.
fn sql_sort_cmp(a: &Value, b: &Value) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.sql_cmp(b).unwrap_or(Ordering::Equal),
    }
}

/// Runtime coercion to the statically inferred column type (only numeric
/// widening; anything else passes through and is caught by validation).
fn coerce(v: Value, dtype: crate::schema::DataType) -> Value {
    match (&v, dtype) {
        (Value::Int(i), crate::schema::DataType::Float) => Value::Float(*i as f64),
        _ => v,
    }
}

/// Streaming aggregate accumulator of this row-at-a-time interpreter. The
/// vectorized engine folds the same functions over typed columns in
/// `kernels::accumulate`.
#[derive(Debug, Clone)]
enum AggState {
    Count(i64),
    /// `int` accumulates while every input was `Int` (exact, checked);
    /// `float` accumulates every input as `f64` and is the result once a
    /// `Float` input has been seen.
    Sum {
        int: Option<i64>,
        float: f64,
        any: bool,
    },
    Avg {
        acc: f64,
        n: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                int: Some(0),
                float: 0.0,
                any: false,
            },
            AggFunc::Avg => AggState::Avg { acc: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<Value>) -> crate::Result<()> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(expr) counts non-nulls.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::Sum { int, float, any } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *float += val.as_f64()?;
                        *int = match (*int, &val) {
                            (Some(acc), Value::Int(i)) => Some(checked_int_sum(acc, *i)?),
                            _ => None,
                        };
                        *any = true;
                    }
                }
            }
            AggState::Avg { acc, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *acc += val.as_f64()?;
                        *n += 1;
                    }
                }
            }
            AggState::Min(best) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match best {
                            None => true,
                            Some(b) => val.sql_cmp(b) == Some(Ordering::Less),
                        };
                        if replace {
                            *best = Some(val);
                        }
                    }
                }
            }
            AggState::Max(best) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match best {
                            None => true,
                            Some(b) => val.sql_cmp(b) == Some(Ordering::Greater),
                        };
                        if replace {
                            *best = Some(val);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { int, float, any } => match int {
                _ if !any => Value::Null,
                Some(acc) => Value::Int(acc),
                None => Value::Float(float),
            },
            AggState::Avg { acc, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(acc / n as f64)
                }
            }
            AggState::Min(v) => v.unwrap_or(Value::Null),
            AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::AggSpec;
    use crate::schema::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            Table::build(
                "sales",
                &[
                    ("id", DataType::Int),
                    ("region", DataType::Str),
                    ("amount", DataType::Float),
                ],
            )
            .row(vec![Value::from(1), Value::from("east"), Value::from(10.0)])
            .row(vec![Value::from(2), Value::from("west"), Value::from(20.0)])
            .row(vec![Value::from(3), Value::from("east"), Value::from(30.0)])
            .row(vec![Value::from(4), Value::from("east"), Value::Null])
            .finish()
            .unwrap(),
        );
        c.insert(
            Table::build(
                "regions",
                &[("name", DataType::Str), ("tax", DataType::Float)],
            )
            .row(vec![Value::from("east"), Value::from(0.1)])
            .row(vec![Value::from("west"), Value::from(0.2)])
            .finish()
            .unwrap(),
        );
        c
    }

    /// The reference's answer to `plan`, once the engine
    /// ([`Catalog::query`]) has given the same rows or the same error.
    fn both(c: &Catalog, plan: &Plan) -> crate::Result<Table> {
        let want = execute(plan, c);
        match (&want, c.query(plan)) {
            (Ok(want), Ok(got)) => assert_eq!(got.rows(), want.rows(), "{plan:?}"),
            (Err(want), Err(got)) => assert_eq!(&got, want, "{plan:?}"),
            (want, got) => panic!("{plan:?}: reference {want:?}, engine {got:?}"),
        }
        want
    }

    #[test]
    fn scan_and_filter() {
        let c = catalog();
        let t = both(
            &c,
            &Plan::scan("sales").filter(Expr::col("amount").gt(Expr::lit(15.0))),
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        // Null amount row dropped (NULL predicate is false).
        let ids = t.column("id").unwrap();
        assert_eq!(ids, vec![Value::from(2), Value::from(3)]);
    }

    #[test]
    fn projection_computes_and_coerces() {
        let c = catalog();
        let t = both(
            &c,
            &Plan::scan("sales").project(&[
                ("id", Expr::col("id")),
                ("with_tax", Expr::col("amount").mul(Expr::lit(1.1))),
            ]),
        )
        .unwrap();
        assert_eq!(t.schema().names(), vec!["id", "with_tax"]);
        assert_eq!(t.rows()[0][1], Value::from(11.0));
        // Null propagates.
        assert!(t.rows()[3][1].is_null());
    }

    #[test]
    fn hash_join_inner_semantics() {
        let c = catalog();
        let t = both(
            &c,
            &Plan::scan("sales").join(Plan::scan("regions"), &[("region", "name")]),
        )
        .unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(
            t.schema().names(),
            vec!["id", "region", "amount", "name", "tax"]
        );
        // Row order preserved from left side.
        assert_eq!(t.rows()[0][4], Value::from(0.1));
        assert_eq!(t.rows()[1][4], Value::from(0.2));
    }

    #[test]
    fn join_null_keys_never_match() {
        let mut c = catalog();
        c.insert(
            Table::build("l", &[("k", DataType::Int)])
                .row(vec![Value::Null])
                .row(vec![Value::from(1)])
                .finish()
                .unwrap(),
        );
        c.insert(
            Table::build("rr", &[("k2", DataType::Int)])
                .row(vec![Value::Null])
                .row(vec![Value::from(1)])
                .finish()
                .unwrap(),
        );
        let t = both(&c, &Plan::scan("l").join(Plan::scan("rr"), &[("k", "k2")])).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn join_builds_on_smaller_side_preserving_left_major_order() {
        // Small LEFT dimension table against a larger fact table: the
        // engine builds the hash index on the left, but the output must
        // still be in left-major order (each dim row's matches in fact-row
        // order), exactly as if the right side had been built.
        let mut c = Catalog::new();
        c.insert(
            Table::build("dim", &[("k", DataType::Int), ("label", DataType::Str)])
                .row(vec![Value::from(2), Value::from("two")])
                .row(vec![Value::from(1), Value::from("one")])
                .finish()
                .unwrap(),
        );
        let mut fact = Table::new(
            "fact",
            crate::schema::Schema::from_pairs(&[("k2", DataType::Int), ("x", DataType::Int)])
                .unwrap(),
        );
        for i in 0..9i64 {
            fact.push_row(vec![Value::from(i % 3), Value::from(i)])
                .unwrap();
        }
        c.insert(fact);
        let t = both(
            &c,
            &Plan::scan("dim").join(Plan::scan("fact"), &[("k", "k2")]),
        )
        .unwrap();
        // dim row (2, "two") matches fact rows 2, 5, 8; then (1, "one")
        // matches 1, 4, 7 — left-major, fact-row order within each.
        assert_eq!(t.len(), 6);
        let ks: Vec<Value> = t.column("k").unwrap();
        assert_eq!(ks[..3], vec![Value::from(2); 3][..]);
        assert_eq!(ks[3..], vec![Value::from(1); 3][..]);
        let xs = t.column("x").unwrap();
        assert_eq!(
            xs,
            vec![2i64, 5, 8, 1, 4, 7]
                .into_iter()
                .map(Value::from)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn join_requires_keys() {
        let c = catalog();
        let p = Plan::Join {
            left: Box::new(Plan::scan("sales")),
            right: Box::new(Plan::scan("regions")),
            on: vec![],
            right_prefix: "r".into(),
        };
        assert!(both(&c, &p).is_err());
    }

    #[test]
    fn group_by_aggregation() {
        let c = catalog();
        let t = both(
            &c,
            &Plan::scan("sales").aggregate(
                &["region"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::new("nn", AggFunc::Count, Expr::col("amount")),
                    AggSpec::new("total", AggFunc::Sum, Expr::col("amount")),
                    AggSpec::new("mean", AggFunc::Avg, Expr::col("amount")),
                    AggSpec::new("lo", AggFunc::Min, Expr::col("amount")),
                    AggSpec::new("hi", AggFunc::Max, Expr::col("amount")),
                ],
            ),
        )
        .unwrap();
        assert_eq!(t.len(), 2);
        // Groups appear in first-seen order: east, west.
        let east = &t.rows()[0];
        assert_eq!(east[0], Value::from("east"));
        assert_eq!(east[1], Value::from(3)); // COUNT(*) counts the Null row
        assert_eq!(east[2], Value::from(2)); // COUNT(amount) does not
        assert_eq!(east[3], Value::from(40.0));
        assert_eq!(east[4], Value::from(20.0));
        assert_eq!(east[5], Value::from(10.0));
        assert_eq!(east[6], Value::from(30.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let c = catalog();
        let p = Plan::scan("sales")
            .filter(Expr::col("amount").gt(Expr::lit(1e9)))
            .aggregate(
                &[],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::new("total", AggFunc::Sum, Expr::col("amount")),
                ],
            );
        let t = both(&c, &p).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::from(0));
        assert!(t.rows()[0][1].is_null());
    }

    #[test]
    fn empty_group_by_over_nonempty_input_is_one_row() {
        let c = catalog();
        let t = both(
            &c,
            &Plan::scan("sales").aggregate(&[], vec![AggSpec::count_star("n")]),
        )
        .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][0], Value::from(4));
    }

    #[test]
    fn sort_with_nulls_and_direction() {
        let c = catalog();
        let t = both(
            &c,
            &Plan::scan("sales").sort(vec![SortKey::desc(Expr::col("amount"))]),
        )
        .unwrap();
        let amounts = t.column("amount").unwrap();
        // Descending: 30, 20, 10, then the Null (Nulls-first under asc
        // reverses to last under desc).
        assert_eq!(amounts[0], Value::from(30.0));
        assert!(amounts[3].is_null());

        let t = both(
            &c,
            &Plan::scan("sales").sort(vec![SortKey::asc(Expr::col("amount"))]),
        )
        .unwrap();
        assert!(t.column("amount").unwrap()[0].is_null());
    }

    #[test]
    fn multi_key_sort() {
        let c = catalog();
        let t = both(
            &c,
            &Plan::scan("sales").sort(vec![
                SortKey::asc(Expr::col("region")),
                SortKey::desc(Expr::col("id")),
            ]),
        )
        .unwrap();
        let ids = t.column("id").unwrap();
        assert_eq!(
            ids,
            vec![
                Value::from(4),
                Value::from(3),
                Value::from(1),
                Value::from(2)
            ]
        );
    }

    #[test]
    fn limit_truncates() {
        let c = catalog();
        let t = both(&c, &Plan::scan("sales").limit(2)).unwrap();
        assert_eq!(t.len(), 2);
        let t = both(&c, &Plan::scan("sales").limit(100)).unwrap();
        assert_eq!(t.len(), 4);
        let t = both(&c, &Plan::scan("sales").limit(0)).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn composed_pipeline() {
        // Revenue by region for amounts > 5, joined with tax, computing
        // taxed revenue — a miniature of the paper's "revenue from East
        // Coast customers" query.
        let c = catalog();
        let p = Plan::scan("sales")
            .filter(Expr::col("amount").gt(Expr::lit(5.0)))
            .join(Plan::scan("regions"), &[("region", "name")])
            .project(&[
                ("region", Expr::col("region")),
                (
                    "net",
                    Expr::col("amount").mul(Expr::lit(1.0).sub(Expr::col("tax"))),
                ),
            ])
            .aggregate(
                &["region"],
                vec![AggSpec::new("net_total", AggFunc::Sum, Expr::col("net"))],
            )
            .sort(vec![SortKey::asc(Expr::col("region"))]);
        let t = both(&c, &p).unwrap();
        assert_eq!(t.len(), 2);
        let east = &t.rows()[0];
        assert_eq!(east[0], Value::from("east"));
        assert!((east[1].as_f64().unwrap() - 36.0).abs() < 1e-12); // (10+30)*0.9
        let west = &t.rows()[1];
        assert!((west[1].as_f64().unwrap() - 16.0).abs() < 1e-12); // 20*0.8
    }
}
