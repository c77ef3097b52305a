//! Logical query plans, the catalog, and query execution.
//!
//! Plans are built with a fluent API, optimized by a small rewrite planner
//! ([`planner::optimize`] — conjunct splitting and filter pushdown below
//! joins, constant folding, and projection pruning: the classical rewrites
//! the paper points to when it notes that "techniques for query
//! optimization" transfer to simulation settings), lowered to a physical
//! plan with expressions bound exactly once ([`physical::PreparedQuery`]),
//! and executed against a [`Catalog`] of in-memory tables by a vectorized
//! columnar engine ([`mod@column`]/[`batch`]) that runs each operator in one
//! pass over its input, on the calling thread.
//!
//! The row-at-a-time interpreter [`reference::execute`] runs a plan as
//! given, without the optimizer: the reference semantics for differential
//! testing of the planner and the vectorized path.

pub mod batch;
pub mod column;
pub(crate) mod kernels;
pub mod physical;
pub mod planner;
pub mod reference;
pub mod select;

use crate::expr::Expr;
use crate::schema::{Column, DataType, Schema};
use crate::storage::{BufferPool, SpillConfig};
use crate::table::Table;
use crate::McdbError;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

pub use physical::PreparedQuery;

/// A named collection of tables — the "database".
///
/// Tables are stored behind `Arc`s so cloning a catalog (the per-replicate
/// scratch-reset pattern in the Monte Carlo runners) shares table storage
/// instead of deep-copying every row.
///
/// A catalog also carries the [`SpillConfig`] governing when the executor
/// degrades hash-join builds and group-by hash tables to out-of-core
/// Grace partitioning (default: effectively never — a 2²⁰-row threshold).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    spill: SpillConfig,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Insert (or replace) a table under its own name.
    pub fn insert(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// The shared handle of a table, to put back with
    /// [`Catalog::insert_shared`] after something shadowed it.
    pub(crate) fn shared(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    /// [`Catalog::insert`] of a table another catalog already holds,
    /// without copying it.
    pub(crate) fn insert_shared(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> crate::Result<&Table> {
        self.tables
            .get(name)
            .map(|t| t.as_ref())
            .ok_or_else(|| McdbError::UnknownTable {
                name: name.to_string(),
            })
    }

    /// Remove a table, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<Table> {
        self.tables
            .remove(name)
            .map(|t| Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all tables (unordered).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// A stable digest of the catalog's shape: every table name with its
    /// column names and types, in sorted table order. Two catalogs with
    /// identical schemas fingerprint identically regardless of row
    /// contents or insertion order, and any DDL that adds, drops, or
    /// retypes a table changes the digest — which is what makes it a
    /// sound cache key for prepared plans (a plan prepared against one
    /// fingerprint is structurally valid for every catalog snapshot
    /// sharing it).
    pub fn schema_fingerprint(&self) -> u64 {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut fp = mde_numeric::Fingerprint::new("mcdb.catalog.schema");
        for name in names {
            fp = fp.push_str(name);
            for col in self.tables[name].schema().columns() {
                fp = fp.push_str(&col.name).push_str(&col.dtype.to_string());
            }
        }
        fp.finish()
    }

    /// The spill policy the executor applies to hash joins and group-by.
    pub fn spill_config(&self) -> &SpillConfig {
        &self.spill
    }

    /// Replace the spill policy (e.g. to force out-of-core execution in
    /// tests, or to share one buffer pool between tables and spills).
    pub fn set_spill_config(&mut self, spill: SpillConfig) {
        self.spill = spill;
    }

    /// Persist every table as a paged columnar file under `dir` (one
    /// `<table>.mdet` per table) and return a catalog of paged tables
    /// reading back through the shared `pool`. Spill partitions written
    /// by the new catalog reuse the same pool and directory, so one
    /// frame budget governs the whole query workload. The source catalog
    /// is untouched — it is the differential oracle for the paged twin.
    pub fn to_paged(
        &self,
        dir: &Path,
        page_size: usize,
        pool: Arc<BufferPool>,
    ) -> crate::Result<Catalog> {
        std::fs::create_dir_all(dir).map_err(|e| {
            McdbError::invalid_plan(format!("cannot create paged catalog dir: {e}"))
        })?;
        let mut out = Catalog::new();
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort(); // deterministic write order
        for name in names {
            let t = &self.tables[name];
            let path = dir.join(format!("{name}.mdet"));
            out.insert(t.to_paged(&path, page_size, Arc::clone(&pool))?);
        }
        out.spill = SpillConfig {
            dir: Some(dir.to_path_buf()),
            page_size,
            pool,
            ..self.spill.clone()
        };
        Ok(out)
    }

    /// Execute a plan against this catalog.
    ///
    /// The plan is optimized, lowered to a physical plan with expressions
    /// bound once, and run on the vectorized columnar engine. Callers that
    /// execute the same plan repeatedly should lower it themselves with
    /// [`PreparedQuery::prepare`] and call
    /// [`PreparedQuery::execute`] per run.
    pub fn query(&self, plan: &Plan) -> crate::Result<Table> {
        PreparedQuery::prepare(plan, self)?.execute(self)
    }

    /// Execute a plan with structured tracing: one `query` root span plus
    /// one child span per physical operator, routed to `tracer`'s sink.
    /// See [`PreparedQuery::execute_traced`].
    pub fn query_traced(
        &self,
        plan: &Plan,
        tracer: &mde_numeric::obs::Tracer,
    ) -> crate::Result<Table> {
        PreparedQuery::prepare(plan, self)?.execute_traced(self, tracer)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (`COUNT(*)` when the argument is absent, else counts
    /// non-null argument values).
    Count,
    /// Sum of a numeric expression (Nulls skipped).
    Sum,
    /// Mean of a numeric expression (Nulls skipped).
    Avg,
    /// Minimum by SQL ordering (Nulls skipped).
    Min,
    /// Maximum by SQL ordering (Nulls skipped).
    Max,
}

/// One aggregate output column.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Output column name.
    pub name: String,
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expression; `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
}

impl AggSpec {
    /// `COUNT(*) AS name`.
    pub fn count_star(name: impl Into<String>) -> Self {
        AggSpec {
            name: name.into(),
            func: AggFunc::Count,
            arg: None,
        }
    }

    /// `func(expr) AS name`.
    pub fn new(name: impl Into<String>, func: AggFunc, arg: Expr) -> Self {
        AggSpec {
            name: name.into(),
            func,
            arg: Some(arg),
        }
    }
}

/// A sort key: expression plus direction. Nulls sort first regardless of
/// direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The key expression.
    pub expr: Expr,
    /// Ascending if true.
    pub ascending: bool,
}

impl SortKey {
    /// Ascending key on an expression.
    pub fn asc(expr: Expr) -> Self {
        SortKey {
            expr,
            ascending: true,
        }
    }

    /// Descending key on an expression.
    pub fn desc(expr: Expr) -> Self {
        SortKey {
            expr,
            ascending: false,
        }
    }
}

/// A logical query plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a named table from the catalog.
    Scan {
        /// Table name.
        table: String,
    },
    /// An inline table (subquery materialized by the caller, VG output,
    /// etc.).
    Values {
        /// The inline table.
        table: Table,
    },
    /// Keep rows where the predicate evaluates to true.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate expression (Bool-typed).
        predicate: Expr,
    },
    /// Compute output columns from input rows.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Inner equi-join on pairs of column names.
    Join {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// `(left column, right column)` equality pairs.
        on: Vec<(String, String)>,
        /// Prefix applied to right-side columns whose names collide with
        /// the left side.
        right_prefix: String,
    },
    /// Group-by aggregation. With an empty `group_by`, produces exactly one
    /// row (global aggregates).
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping column names.
        group_by: Vec<String>,
        /// Aggregate output columns.
        aggs: Vec<AggSpec>,
    },
    /// Sort rows.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys, most significant first.
        keys: Vec<SortKey>,
    },
    /// Keep the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum number of rows.
        n: usize,
    },
}

impl Plan {
    /// Scan a catalog table.
    pub fn scan(table: impl Into<String>) -> Plan {
        Plan::Scan {
            table: table.into(),
        }
    }

    /// Inline table.
    pub fn values(table: Table) -> Plan {
        Plan::Values { table }
    }

    /// Add a filter on top.
    pub fn filter(self, predicate: Expr) -> Plan {
        Plan::Filter {
            input: Box::new(self),
            predicate,
        }
    }

    /// Add a projection on top.
    pub fn project(self, exprs: &[(&str, Expr)]) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs: exprs
                .iter()
                .map(|(n, e)| (n.to_string(), e.clone()))
                .collect(),
        }
    }

    /// Inner equi-join with another plan.
    pub fn join(self, right: Plan, on: &[(&str, &str)]) -> Plan {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
            on: on
                .iter()
                .map(|(l, r)| (l.to_string(), r.to_string()))
                .collect(),
            right_prefix: "r".to_string(),
        }
    }

    /// Group-by aggregation.
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            aggs,
        }
    }

    /// Sort.
    pub fn sort(self, keys: Vec<SortKey>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            keys,
        }
    }

    /// Limit.
    pub fn limit(self, n: usize) -> Plan {
        Plan::Limit {
            input: Box::new(self),
            n,
        }
    }

    /// Render the plan as an indented operator tree — the engine's
    /// `EXPLAIN`. Useful for seeing what the rewrite planner did:
    ///
    /// ```
    /// use mde_mcdb::prelude::*;
    /// use mde_mcdb::query::planner::optimize;
    ///
    /// let mut c = Catalog::new();
    /// let sales = [("region", DataType::Str), ("amount", DataType::Int)];
    /// c.insert(Table::build("sales", &sales).finish().unwrap());
    /// c.insert(Table::build("regions", &[("name", DataType::Str)]).finish().unwrap());
    /// let plan = Plan::scan("sales")
    ///     .join(Plan::scan("regions"), &[("region", "name")])
    ///     .filter(Expr::col("amount").gt(Expr::lit(10)));
    /// assert!(plan.explain().starts_with("Filter"));
    /// // The catalog resolves the scans' columns, so the filter moves
    /// // below the join, onto the side that owns `amount`.
    /// assert!(optimize(plan, &c).explain().starts_with("HashJoin"));
    /// ```
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan { table } => {
                out.push_str(&format!("{pad}Scan {table}\n"));
            }
            Plan::Values { table } => {
                out.push_str(&format!(
                    "{pad}Values {} ({} rows)\n",
                    table.name(),
                    table.len()
                ));
            }
            Plan::Filter { input, predicate } => {
                out.push_str(&format!("{pad}Filter {predicate}\n"));
                input.explain_into(out, depth + 1);
            }
            Plan::Project { input, exprs } => {
                let cols: Vec<String> = exprs.iter().map(|(n, e)| format!("{n}={e}")).collect();
                out.push_str(&format!("{pad}Project [{}]\n", cols.join(", ")));
                input.explain_into(out, depth + 1);
            }
            Plan::Join {
                left, right, on, ..
            } => {
                let keys: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                out.push_str(&format!("{pad}HashJoin on {}\n", keys.join(" AND ")));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let agg_names: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                out.push_str(&format!(
                    "{pad}Aggregate group_by=[{}] aggs=[{}]\n",
                    group_by.join(", "),
                    agg_names.join(", ")
                ));
                input.explain_into(out, depth + 1);
            }
            Plan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{} {}", k.expr, if k.ascending { "ASC" } else { "DESC" }))
                    .collect();
                out.push_str(&format!("{pad}Sort [{}]\n", ks.join(", ")));
                input.explain_into(out, depth + 1);
            }
            Plan::Limit { input, n } => {
                out.push_str(&format!("{pad}Limit {n}\n"));
                input.explain_into(out, depth + 1);
            }
        }
    }

    /// Infer the output schema against a catalog, without executing.
    ///
    /// Used for composite-model mismatch detection and by the executor to
    /// pre-validate plans.
    pub fn output_schema(&self, catalog: &Catalog) -> crate::Result<Schema> {
        match self {
            Plan::Scan { table } => Ok(catalog.get(table)?.schema().clone()),
            Plan::Values { table } => Ok(table.schema().clone()),
            Plan::Filter { input, predicate } => {
                let schema = input.output_schema(catalog)?;
                // Validate the predicate binds.
                predicate.bind(&schema)?;
                Ok(schema)
            }
            Plan::Project { input, exprs } => {
                let in_schema = input.output_schema(catalog)?;
                let mut cols = Vec::with_capacity(exprs.len());
                for (name, e) in exprs {
                    let dt = infer_type(e, &in_schema)?.unwrap_or(DataType::Float);
                    cols.push(Column::new(name.clone(), dt));
                }
                Schema::new(cols)
            }
            Plan::Join {
                left,
                right,
                on,
                right_prefix,
            } => {
                let ls = left.output_schema(catalog)?;
                let rs = right.output_schema(catalog)?;
                for (l, r) in on {
                    ls.index_of(l)?;
                    rs.index_of(r)?;
                }
                ls.concat(&rs, right_prefix)
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.output_schema(catalog)?;
                let mut cols = Vec::new();
                for g in group_by {
                    let i = in_schema.index_of(g)?;
                    cols.push(in_schema.columns()[i].clone());
                }
                for a in aggs {
                    let dt = match (a.func, &a.arg) {
                        (AggFunc::Count, _) => DataType::Int,
                        (_, None) => {
                            return Err(McdbError::invalid_plan(format!(
                                "aggregate `{}` requires an argument",
                                a.name
                            )))
                        }
                        (AggFunc::Avg, Some(_)) => DataType::Float,
                        (AggFunc::Sum, Some(e))
                        | (AggFunc::Min, Some(e))
                        | (AggFunc::Max, Some(e)) => {
                            infer_type(e, &in_schema)?.unwrap_or(DataType::Float)
                        }
                    };
                    cols.push(Column::new(a.name.clone(), dt));
                }
                Schema::new(cols)
            }
            Plan::Sort { input, keys } => {
                let schema = input.output_schema(catalog)?;
                for k in keys {
                    k.expr.bind(&schema)?;
                }
                Ok(schema)
            }
            Plan::Limit { input, .. } => input.output_schema(catalog),
        }
    }
}

/// Infer the static type of an expression against a schema. `None` means
/// "unconstrained" (a bare NULL literal).
pub(crate) fn infer_type(e: &Expr, schema: &Schema) -> crate::Result<Option<DataType>> {
    use crate::expr::{BinOp, ScalarFunc, UnOp};
    Ok(match e {
        Expr::Col(name) => Some(schema.columns()[schema.index_of(name)?].dtype),
        Expr::Lit(v) => v.data_type(),
        Expr::Binary { op, left, right } => {
            let lt = infer_type(left, schema)?;
            let rt = infer_type(right, schema)?;
            match op {
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or => Some(DataType::Bool),
                BinOp::Div => Some(DataType::Float),
                BinOp::Add | BinOp::Sub | BinOp::Mul => match (lt, rt) {
                    (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
                    (None, None) => None,
                    _ => Some(DataType::Float),
                },
            }
        }
        Expr::Unary { op, expr } => match op {
            UnOp::IsNull | UnOp::Not => Some(DataType::Bool),
            UnOp::Neg => infer_type(expr, schema)?,
        },
        Expr::Func { func, arg } => match func {
            ScalarFunc::Abs => infer_type(arg, schema)?,
            _ => Some(DataType::Float),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.insert(
            Table::build(
                "t",
                &[
                    ("id", DataType::Int),
                    ("x", DataType::Float),
                    ("s", DataType::Str),
                ],
            )
            .row(vec![Value::from(1), Value::from(2.0), Value::from("a")])
            .finish()
            .unwrap(),
        );
        c
    }

    #[test]
    fn schema_fingerprint_tracks_shape_not_rows() {
        let c = catalog();
        let fp = c.schema_fingerprint();
        // Same shape, different rows: identical fingerprint.
        let mut c2 = Catalog::new();
        c2.insert(
            Table::build(
                "t",
                &[
                    ("id", DataType::Int),
                    ("x", DataType::Float),
                    ("s", DataType::Str),
                ],
            )
            .rows((0..10).map(|i| vec![Value::from(i), Value::from(0.5), Value::from("b")]))
            .finish()
            .unwrap(),
        );
        assert_eq!(fp, c2.schema_fingerprint());
        // Adding a table changes it; dropping it restores it.
        c2.insert(Table::build("u", &[("k", DataType::Int)]).finish().unwrap());
        assert_ne!(fp, c2.schema_fingerprint());
        c2.remove("u");
        assert_eq!(fp, c2.schema_fingerprint());
        // Retyping a column changes it.
        let mut c3 = Catalog::new();
        c3.insert(
            Table::build(
                "t",
                &[
                    ("id", DataType::Int),
                    ("x", DataType::Int),
                    ("s", DataType::Str),
                ],
            )
            .finish()
            .unwrap(),
        );
        assert_ne!(fp, c3.schema_fingerprint());
    }

    #[test]
    fn catalog_crud() {
        let mut c = catalog();
        assert!(c.contains("t"));
        assert!(c.get("t").is_ok());
        assert!(c.get("nope").is_err());
        assert!(c.remove("t").is_some());
        assert!(!c.contains("t"));
    }

    #[test]
    fn schema_inference_scan_filter() {
        let c = catalog();
        let p = Plan::scan("t").filter(Expr::col("id").gt(Expr::lit(0)));
        let s = p.output_schema(&c).unwrap();
        assert_eq!(s.names(), vec!["id", "x", "s"]);
        // Unknown column in the predicate is caught statically.
        let p = Plan::scan("t").filter(Expr::col("zzz").gt(Expr::lit(0)));
        assert!(p.output_schema(&c).is_err());
    }

    #[test]
    fn schema_inference_project_types() {
        let c = catalog();
        let p = Plan::scan("t").project(&[
            ("i2", Expr::col("id").add(Expr::lit(1))),
            ("f", Expr::col("id").add(Expr::col("x"))),
            ("d", Expr::col("id").div(Expr::lit(2))),
            ("b", Expr::col("id").gt(Expr::lit(0))),
        ]);
        let s = p.output_schema(&c).unwrap();
        let types: Vec<DataType> = s.columns().iter().map(|col| col.dtype).collect();
        assert_eq!(
            types,
            vec![
                DataType::Int,
                DataType::Float,
                DataType::Float,
                DataType::Bool
            ]
        );
    }

    #[test]
    fn schema_inference_aggregate() {
        let c = catalog();
        let p = Plan::scan("t").aggregate(
            &["s"],
            vec![
                AggSpec::count_star("n"),
                AggSpec::new("total", AggFunc::Sum, Expr::col("id")),
                AggSpec::new("mean", AggFunc::Avg, Expr::col("x")),
            ],
        );
        let s = p.output_schema(&c).unwrap();
        assert_eq!(s.names(), vec!["s", "n", "total", "mean"]);
        let types: Vec<DataType> = s.columns().iter().map(|col| col.dtype).collect();
        assert_eq!(
            types,
            vec![DataType::Str, DataType::Int, DataType::Int, DataType::Float]
        );
    }

    #[test]
    fn schema_inference_join_collision() {
        let mut c = catalog();
        c.insert(
            Table::build("u", &[("id", DataType::Int), ("y", DataType::Float)])
                .finish()
                .unwrap(),
        );
        let p = Plan::scan("t").join(Plan::scan("u"), &[("id", "id")]);
        let s = p.output_schema(&c).unwrap();
        assert_eq!(s.names(), vec!["id", "x", "s", "r.id", "y"]);
        // Joining on a missing column errors.
        let p = Plan::scan("t").join(Plan::scan("u"), &[("id", "nope")]);
        assert!(p.output_schema(&c).is_err());
    }

    #[test]
    fn explain_renders_tree_shape() {
        let p = Plan::scan("t")
            .join(Plan::scan("u"), &[("id", "id")])
            .filter(Expr::col("x").gt(Expr::lit(1)))
            .aggregate(&["s"], vec![AggSpec::count_star("n")])
            .sort(vec![crate::query::SortKey::asc(Expr::col("s"))])
            .limit(5);
        let e = p.explain();
        let lines: Vec<&str> = e.lines().collect();
        assert!(lines[0].starts_with("Limit 5"));
        assert!(lines[1].trim_start().starts_with("Sort"));
        assert!(lines[2].trim_start().starts_with("Aggregate"));
        assert!(lines[3].trim_start().starts_with("Filter"));
        assert!(lines[4].trim_start().starts_with("HashJoin on id=id"));
        assert!(lines[5].contains("Scan t"));
        assert!(lines[6].contains("Scan u"));
        // Indentation increases down the tree.
        assert!(lines[5].starts_with("          ") || lines[5].starts_with("    "));
    }

    #[test]
    fn explain_shows_pushdown_effect() {
        use crate::query::planner::optimize;
        let people = Table::build("people", &[("pid", DataType::Int)])
            .row(vec![Value::from(1)])
            .finish()
            .unwrap();
        let visits = Table::build("visits", &[("vid", DataType::Int)])
            .row(vec![Value::from(1)])
            .finish()
            .unwrap();
        let p = Plan::values(people)
            .join(Plan::values(visits), &[("pid", "vid")])
            .filter(Expr::col("pid").gt(Expr::lit(0)));
        let before = p.explain();
        let after = optimize(p, &Catalog::new()).explain();
        assert!(before.starts_with("Filter"));
        assert!(after.starts_with("HashJoin"), "pushdown visible: {after}");
    }

    #[test]
    fn aggregate_without_arg_rejected() {
        let c = catalog();
        let p = Plan::scan("t").aggregate(
            &[],
            vec![AggSpec {
                name: "bad".into(),
                func: AggFunc::Sum,
                arg: None,
            }],
        );
        assert!(p.output_schema(&c).is_err());
    }
}
