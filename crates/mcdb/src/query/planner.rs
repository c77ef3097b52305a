//! Rewrite-based plan optimization.
//!
//! §2.3 of the paper observes that "the problem of simulation-experiment
//! optimization subsumes the problem of query optimization": composite
//! platforms run queries to harmonize data between models at every Monte
//! Carlo repetition, so classical rewrites pay off multiplied by the
//! replication count. The rewrites here are the classical ones:
//!
//! 1. **Conjunct splitting** — `Filter(a AND b)` → `Filter(a)` over
//!    `Filter(b)`, enabling the next rewrite per conjunct.
//! 2. **Filter pushdown below joins** — a predicate referencing only one
//!    join side moves below the join, shrinking the join input.
//! 3. **Filter fusion** — adjacent filters re-merge into one conjunction
//!    after pushdown, so rows are tested once.
//! 4. **Constant folding** — literal-only subexpressions evaluate at plan
//!    time, so per-replicate execution never recomputes them.
//! 5. **Projection pruning** — a projection (or aggregation) stacked on
//!    another projection drops inner columns nothing references.
//!
//! The gridfield `restrict`/`regrid` commutation of §2.2 is the same idea
//! in a different algebra; see `mde_harmonize::gridfield`.

use super::{AggSpec, Catalog, Plan, SortKey};
use crate::expr::Expr;
use std::collections::BTreeSet;

/// Optimize a plan by repeated local rewrites until fixpoint (bounded by a
/// generous iteration cap; each rewrite strictly reduces a measure, so the
/// cap is never hit in practice). `catalog` supplies the schemas of
/// scanned tables, which is what lets a filter move below a join of scans;
/// a scan of a table it does not hold is simply never pushed through.
pub fn optimize(plan: Plan, catalog: &Catalog) -> Plan {
    let mut current = plan;
    for _ in 0..64 {
        let (next, changed) = rewrite(current, catalog);
        current = next;
        if !changed {
            break;
        }
    }
    current
}

/// One bottom-up rewrite pass. Returns the plan and whether anything
/// changed.
fn rewrite(plan: Plan, catalog: &Catalog) -> (Plan, bool) {
    match plan {
        Plan::Filter { input, predicate } => {
            let (input, mut changed) = rewrite(*input, catalog);
            let (predicate, folded) = fold_expr(predicate);
            changed |= folded;
            // Split conjunctions into a list of predicates to place.
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);

            let mut node = input;
            let mut remaining = Vec::new();
            for pred in conjuncts {
                match try_push_down(node, pred, catalog) {
                    Ok(new_node) => {
                        node = new_node;
                        changed = true;
                    }
                    Err((old_node, pred)) => {
                        node = old_node;
                        remaining.push(pred);
                    }
                }
            }
            if remaining.is_empty() {
                (node, true)
            } else {
                let fused = fuse_conjuncts(remaining);
                // Splitting-then-refusing identical conjuncts is a no-op;
                // only report change if a pushdown actually happened.
                (node.filter(fused), changed)
            }
        }
        Plan::Project { input, exprs } => {
            let (input, mut changed) = rewrite(*input, catalog);
            let exprs: Vec<(String, Expr)> = exprs
                .into_iter()
                .map(|(n, e)| {
                    let (e, c) = fold_expr(e);
                    changed |= c;
                    (n, e)
                })
                .collect();
            let needed: BTreeSet<String> = exprs
                .iter()
                .flat_map(|(_, e)| e.referenced_columns())
                .collect();
            let (input, pruned) = prune_projection(input, &needed);
            changed |= pruned;
            (
                Plan::Project {
                    input: Box::new(input),
                    exprs,
                },
                changed,
            )
        }
        Plan::Join {
            left,
            right,
            on,
            right_prefix,
        } => {
            let (left, c1) = rewrite(*left, catalog);
            let (right, c2) = rewrite(*right, catalog);
            (
                Plan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    on,
                    right_prefix,
                },
                c1 || c2,
            )
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (input, mut changed) = rewrite(*input, catalog);
            let aggs: Vec<AggSpec> = aggs
                .into_iter()
                .map(|mut a| {
                    if let Some(arg) = a.arg.take() {
                        let (arg, c) = fold_expr(arg);
                        changed |= c;
                        a.arg = Some(arg);
                    }
                    a
                })
                .collect();
            let needed: BTreeSet<String> = group_by
                .iter()
                .cloned()
                .chain(
                    aggs.iter()
                        .filter_map(|a| a.arg.as_ref())
                        .flat_map(Expr::referenced_columns),
                )
                .collect();
            let (input, pruned) = prune_projection(input, &needed);
            changed |= pruned;
            (
                Plan::Aggregate {
                    input: Box::new(input),
                    group_by,
                    aggs,
                },
                changed,
            )
        }
        Plan::Sort { input, keys } => {
            let (input, mut changed) = rewrite(*input, catalog);
            let keys: Vec<SortKey> = keys
                .into_iter()
                .map(|SortKey { expr, ascending }| {
                    let (expr, c) = fold_expr(expr);
                    changed |= c;
                    SortKey { expr, ascending }
                })
                .collect();
            (
                Plan::Sort {
                    input: Box::new(input),
                    keys,
                },
                changed,
            )
        }
        Plan::Limit { input, n } => {
            let (input, changed) = rewrite(*input, catalog);
            (
                Plan::Limit {
                    input: Box::new(input),
                    n,
                },
                changed,
            )
        }
        leaf @ (Plan::Scan { .. } | Plan::Values { .. }) => (leaf, false),
    }
}

/// Fold literal-only subexpressions bottom-up through the scalar
/// evaluator, so prepared plans never recompute them per row.
///
/// A node folds only when every operand is a literal, evaluation succeeds,
/// **and** the result is non-Null: an erroring subexpression must keep
/// erroring at execution time, and folding to a Null literal would erase
/// the statically inferred output type (`infer_type` gives `1 = 1` type
/// Bool but a bare Null literal type Float). The rewrite is idempotent —
/// a folded node is a literal, and literals never fold again.
fn fold_expr(e: Expr) -> (Expr, bool) {
    match e {
        Expr::Binary { op, left, right } => {
            let (left, c1) = fold_expr(*left);
            let (right, c2) = fold_expr(*right);
            if let (Expr::Lit(l), Expr::Lit(r)) = (&left, &right) {
                if let Ok(v) = crate::expr::eval_binary(op, l.clone(), r.clone()) {
                    if !v.is_null() {
                        return (Expr::Lit(v), true);
                    }
                }
            }
            (
                Expr::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                },
                c1 || c2,
            )
        }
        Expr::Unary { op, expr } => {
            let (expr, c) = fold_expr(*expr);
            if let Expr::Lit(v) = &expr {
                if let Ok(v) = crate::expr::eval_unary(op, v.clone()) {
                    if !v.is_null() {
                        return (Expr::Lit(v), true);
                    }
                }
            }
            (
                Expr::Unary {
                    op,
                    expr: Box::new(expr),
                },
                c,
            )
        }
        Expr::Func { func, arg } => {
            let (arg, c) = fold_expr(*arg);
            if let Expr::Lit(v) = &arg {
                if let Ok(v) = crate::expr::eval_func(func, v.clone()) {
                    if !v.is_null() {
                        return (Expr::Lit(v), true);
                    }
                }
            }
            (
                Expr::Func {
                    func,
                    arg: Box::new(arg),
                },
                c,
            )
        }
        leaf @ (Expr::Col(_) | Expr::Lit(_)) => (leaf, false),
    }
}

/// If `input` is a projection, drop its output columns that `needed` does
/// not reference (the consumer is another projection or an aggregation, so
/// anything unreferenced is dead). Conservative: only drops — never
/// rewrites surviving expressions — and only looks one projection deep.
fn prune_projection(input: Plan, needed: &BTreeSet<String>) -> (Plan, bool) {
    match input {
        Plan::Project {
            input: inner,
            exprs,
        } => {
            let before = exprs.len();
            let kept: Vec<(String, Expr)> = exprs
                .into_iter()
                .filter(|(n, _)| needed.contains(n))
                .collect();
            let changed = kept.len() < before;
            (
                Plan::Project {
                    input: inner,
                    exprs: kept,
                },
                changed,
            )
        }
        other => (other, false),
    }
}

/// Try to push one predicate below `node`. On success returns the new node;
/// on failure returns the original node and predicate unchanged.
#[allow(clippy::result_large_err)] // the Err side *is* the pass-through path
fn try_push_down(node: Plan, pred: Expr, catalog: &Catalog) -> Result<Plan, (Plan, Expr)> {
    match node {
        Plan::Join {
            left,
            right,
            on,
            right_prefix,
        } => {
            let cols = pred.referenced_columns();
            let left_cols = plan_column_names(&left, catalog);
            let right_cols = plan_column_names(&right, catalog);
            // Columns that exist on the left keep their names in join
            // output; right columns may be renamed on collision, in which
            // case they are not safely pushable — require exact, unprefixed,
            // unambiguous membership.
            let all_left = cols.iter().all(|c| left_cols.contains(c));
            let all_right = cols
                .iter()
                .all(|c| right_cols.contains(c) && !left_cols.contains(c));
            if all_left {
                Ok(Plan::Join {
                    left: Box::new(left.filter(pred)),
                    right,
                    on,
                    right_prefix,
                })
            } else if all_right {
                Ok(Plan::Join {
                    left,
                    right: Box::new(right.filter(pred)),
                    on,
                    right_prefix,
                })
            } else {
                Err((
                    Plan::Join {
                        left,
                        right,
                        on,
                        right_prefix,
                    },
                    pred,
                ))
            }
        }
        // Filters commute with sorts and pass through other filters; both
        // are cheap wins that also expose deeper joins.
        Plan::Sort { input, keys } => match try_push_down(*input, pred, catalog) {
            Ok(inner) => Ok(Plan::Sort {
                input: Box::new(inner),
                keys,
            }),
            Err((inner, pred)) => Err((
                Plan::Sort {
                    input: Box::new(inner),
                    keys,
                },
                pred,
            )),
        },
        other => Err((other, pred)),
    }
}

/// Best-effort static column-name set of a plan. A scan of a table the
/// catalog does not hold contributes nothing — pushdown through a scan of
/// unknown schema is skipped, which is safe.
fn plan_column_names(plan: &Plan, catalog: &Catalog) -> BTreeSet<String> {
    match plan {
        Plan::Scan { table } => catalog
            .get(table)
            .map(|t| t.schema().names().into_iter().collect())
            .unwrap_or_default(),
        Plan::Values { table } => table.schema().names().into_iter().collect(),
        Plan::Filter { input, .. } | Plan::Sort { input, .. } | Plan::Limit { input, .. } => {
            plan_column_names(input, catalog)
        }
        Plan::Project { exprs, .. } => exprs.iter().map(|(n, _)| n.clone()).collect(),
        Plan::Join { left, right, .. } => {
            // Approximation: union, with collisions unresolved; pushdown
            // requires unambiguous membership so this stays conservative.
            let mut s = plan_column_names(left, catalog);
            s.extend(plan_column_names(right, catalog));
            s
        }
        Plan::Aggregate { group_by, aggs, .. } => group_by
            .iter()
            .cloned()
            .chain(aggs.iter().map(|a| a.name.clone()))
            .collect(),
    }
}

fn split_conjuncts(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Binary {
            op: crate::expr::BinOp::And,
            left,
            right,
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

fn fuse_conjuncts(mut preds: Vec<Expr>) -> Expr {
    let first = preds.remove(0);
    preds.into_iter().fold(first, |acc, p| acc.and(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{reference, AggSpec, Catalog};
    use crate::schema::DataType;
    use crate::table::Table;
    use crate::value::Value;

    /// Optimize with no scanned-table schemas (inline `Values` plans carry
    /// their own).
    fn optimize(plan: Plan) -> Plan {
        super::optimize(plan, &Catalog::new())
    }

    fn people() -> Table {
        Table::build("people", &[("pid", DataType::Int), ("age", DataType::Int)])
            .row(vec![Value::from(1), Value::from(3)])
            .row(vec![Value::from(2), Value::from(40)])
            .finish()
            .unwrap()
    }

    fn visits() -> Table {
        Table::build(
            "visits",
            &[("vid", DataType::Int), ("cost", DataType::Float)],
        )
        .row(vec![Value::from(1), Value::from(10.0)])
        .row(vec![Value::from(1), Value::from(20.0)])
        .row(vec![Value::from(2), Value::from(5.0)])
        .finish()
        .unwrap()
    }

    fn is_filter_below_join(p: &Plan) -> bool {
        match p {
            Plan::Join { left, right, .. } => {
                matches!(**left, Plan::Filter { .. }) || matches!(**right, Plan::Filter { .. })
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Aggregate { input, .. } => is_filter_below_join(input),
            _ => false,
        }
    }

    #[test]
    fn pushes_left_side_filter_below_join() {
        let p = Plan::values(people())
            .join(Plan::values(visits()), &[("pid", "vid")])
            .filter(Expr::col("age").lt(Expr::lit(5)));
        let opt = optimize(p);
        assert!(is_filter_below_join(&opt), "filter not pushed: {opt:?}");
    }

    #[test]
    fn pushes_right_side_filter_below_join() {
        let p = Plan::values(people())
            .join(Plan::values(visits()), &[("pid", "vid")])
            .filter(Expr::col("cost").gt(Expr::lit(7.0)));
        let opt = optimize(p);
        assert!(is_filter_below_join(&opt));
    }

    #[test]
    fn splits_conjuncts_to_both_sides() {
        let p = Plan::values(people())
            .join(Plan::values(visits()), &[("pid", "vid")])
            .filter(
                Expr::col("age")
                    .lt(Expr::lit(5))
                    .and(Expr::col("cost").gt(Expr::lit(7.0))),
            );
        let opt = optimize(p);
        // Both sides should now carry a filter.
        if let Plan::Join { left, right, .. } = &opt {
            assert!(matches!(**left, Plan::Filter { .. }));
            assert!(matches!(**right, Plan::Filter { .. }));
        } else {
            panic!("expected bare join at root, got {opt:?}");
        }
    }

    #[test]
    fn cross_side_predicate_stays_above() {
        let p = Plan::values(people())
            .join(Plan::values(visits()), &[("pid", "vid")])
            .filter(Expr::col("age").lt(Expr::col("cost")));
        let opt = optimize(p);
        assert!(matches!(opt, Plan::Filter { .. }));
    }

    #[test]
    fn optimized_plans_produce_identical_results() {
        let mut c = Catalog::new();
        c.insert(people());
        c.insert(visits());
        let plans = vec![
            Plan::scan("people")
                .join(Plan::scan("visits"), &[("pid", "vid")])
                .filter(
                    Expr::col("age")
                        .lt(Expr::lit(50))
                        .and(Expr::col("cost").gt(Expr::lit(7.0))),
                ),
            Plan::values(people())
                .join(Plan::values(visits()), &[("pid", "vid")])
                .filter(Expr::col("age").gt(Expr::lit(5)))
                .aggregate(&[], vec![AggSpec::count_star("n")]),
        ];
        for p in plans {
            let opt = c.query(&p).unwrap();
            let raw = reference::execute(&p, &c).unwrap();
            assert_eq!(
                opt.rows(),
                raw.rows(),
                "optimizer changed results for {p:?}"
            );
        }
    }

    #[test]
    fn pushdown_through_scans_needs_their_schemas() {
        let p = Plan::scan("people")
            .join(Plan::scan("visits"), &[("pid", "vid")])
            .filter(
                Expr::col("age")
                    .lt(Expr::lit(5))
                    .and(Expr::col("cost").gt(Expr::lit(7.0))),
            );
        // A catalog that does not hold the scanned tables: their columns
        // are unknown, so nothing is pushed.
        assert_eq!(optimize(p.clone()), p);
        // The catalog that does: each conjunct lands on its own side.
        let mut c = Catalog::new();
        c.insert(people());
        c.insert(visits());
        let opt = super::optimize(p.clone(), &c);
        let Plan::Join { left, right, .. } = &opt else {
            panic!("expected bare join at root, got {opt:?}");
        };
        assert!(matches!(**left, Plan::Filter { .. }));
        assert!(matches!(**right, Plan::Filter { .. }));
        assert_eq!(
            reference::execute(&opt, &c).unwrap().rows(),
            reference::execute(&p, &c).unwrap().rows()
        );
    }

    #[test]
    fn filter_commutes_with_sort() {
        use crate::query::SortKey;
        let p = Plan::values(people())
            .join(Plan::values(visits()), &[("pid", "vid")])
            .sort(vec![SortKey::asc(Expr::col("age"))])
            .filter(Expr::col("age").lt(Expr::lit(5)));
        let opt = optimize(p);
        // Root should now be the sort, with the filter pushed inside.
        assert!(matches!(opt, Plan::Sort { .. }), "got {opt:?}");
    }

    #[test]
    fn optimize_is_idempotent() {
        let p = Plan::values(people())
            .join(Plan::values(visits()), &[("pid", "vid")])
            .filter(Expr::col("age").lt(Expr::lit(5)));
        let once = optimize(p);
        let twice = optimize(once.clone());
        assert_eq!(once, twice);
    }

    #[test]
    fn folds_literal_subexpressions() {
        // 1 + 2 * 3 folds all the way to 7 inside a projection.
        let p = Plan::values(people())
            .project(&[("x", Expr::lit(1).add(Expr::lit(2).mul(Expr::lit(3))))]);
        match optimize(p) {
            Plan::Project { exprs, .. } => assert_eq!(exprs[0].1, Expr::lit(7)),
            other => panic!("expected project, got {other:?}"),
        }
        // Mixed literal/column expressions fold only the literal part.
        let p = Plan::values(people()).filter(Expr::col("age").lt(Expr::lit(10).mul(Expr::lit(4))));
        match optimize(p) {
            Plan::Filter { predicate, .. } => {
                assert_eq!(predicate, Expr::col("age").lt(Expr::lit(40)));
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn folding_preserves_null_and_error_semantics() {
        // NULL + 1 evaluates to Null, which must NOT fold: a literal Null
        // has no static type, so folding would change the inferred schema.
        let p = Plan::values(people()).project(&[("x", Expr::lit(Value::Null).add(Expr::lit(1)))]);
        match optimize(p) {
            Plan::Project { exprs, .. } => {
                assert!(matches!(exprs[0].1, Expr::Binary { .. }))
            }
            other => panic!("expected project, got {other:?}"),
        }
        // 1 / 0 degrades to Null at runtime — likewise left in place, and
        // still identical between optimized and reference execution.
        let mut c = Catalog::new();
        c.insert(people());
        let p = Plan::scan("people").project(&[("x", Expr::lit(1).div(Expr::lit(0)))]);
        assert_eq!(
            c.query(&p).unwrap().rows(),
            reference::execute(&p, &c).unwrap().rows()
        );
        // A type error stays a runtime error in both engines.
        let bad = Plan::scan("people").project(&[("x", Expr::lit("s").add(Expr::lit(1)))]);
        assert!(c.query(&bad).is_err());
        assert!(reference::execute(&bad, &c).is_err());
    }

    #[test]
    fn prunes_unreferenced_projection_columns() {
        // Project over Project: the inner "b" column is never used.
        let p = Plan::values(people())
            .project(&[
                ("a", Expr::col("pid")),
                ("b", Expr::col("age").mul(Expr::lit(2))),
            ])
            .project(&[("a2", Expr::col("a").add(Expr::lit(1)))]);
        let opt = optimize(p.clone());
        match &opt {
            Plan::Project { input, .. } => match input.as_ref() {
                Plan::Project { exprs, .. } => {
                    assert_eq!(exprs.len(), 1);
                    assert_eq!(exprs[0].0, "a");
                }
                other => panic!("expected inner project, got {other:?}"),
            },
            other => panic!("expected project, got {other:?}"),
        }
        // Aggregate over Project: only grouped/aggregated columns survive.
        let agg = Plan::values(people())
            .project(&[
                ("a", Expr::col("pid")),
                ("b", Expr::col("age").mul(Expr::lit(2))),
                ("c", Expr::col("age")),
            ])
            .aggregate(
                &["a"],
                vec![AggSpec::new(
                    "s",
                    super::super::AggFunc::Sum,
                    Expr::col("c"),
                )],
            );
        match optimize(agg.clone()) {
            Plan::Aggregate { input, .. } => match *input {
                Plan::Project { exprs, .. } => {
                    let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                    assert_eq!(names, vec!["a", "c"]);
                }
                other => panic!("expected inner project, got {other:?}"),
            },
            other => panic!("expected aggregate, got {other:?}"),
        }
        // Results are unchanged by pruning, and pruning is idempotent.
        let mut c = Catalog::new();
        c.insert(people());
        for plan in [p, agg] {
            assert_eq!(
                c.query(&plan).unwrap().rows(),
                reference::execute(&plan, &c).unwrap().rows()
            );
            let once = optimize(plan);
            assert_eq!(once.clone(), optimize(once));
        }
    }
}
