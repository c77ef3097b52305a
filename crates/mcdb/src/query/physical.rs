//! Physical query plans and the vectorized columnar executor.
//!
//! [`PreparedQuery::prepare`] lowers a logical [`Plan`] against a catalog
//! snapshot: the plan is optimized, every expression is bound to column
//! indices exactly once, operator output schemas are resolved, inline
//! `Values` tables hand over their columns, and join key columns are
//! indexed. The resulting physical plan can then be executed any number
//! of times with [`PreparedQuery::execute`] — the prepare-once /
//! execute-per-replicate split that MCDB-style Monte Carlo processing is
//! built around.
//!
//! A Monte Carlo run goes one step further and executes the part of a plan
//! that no replicate can change **once**: `pin_invariant` wraps every
//! maximal sub-plan that scans none of a given set of *volatile* tables in
//! a pinned node, which keeps its output chunk in a fill-once cell
//! shared by every later execution. Only the Monte Carlo
//! prepare path (`mc.rs`) creates pinned nodes — [`PreparedQuery::prepare`]
//! never does, so SQL frames, the plan cache and traced executions run
//! every operator every time. A pinned plan is only right while every
//! catalog it executes against agrees on the tables it does *not* hold
//! volatile (same name, same contents); the Monte Carlo loop guarantees
//! that by starting every replicate from the run's base catalog and
//! replacing nothing but the stochastic tables' outputs.
//!
//! Execution is vectorized: data flows between operators as
//! `Chunk`s — a shared [`Batch`] plus an optional selection vector —
//! so filters, sorts, and limits never copy rows, and expression evaluation
//! runs whole-column kernels (`BoundExpr::eval_batch`). Row-level
//! semantics (null propagation, Kleene logic, first-seen group order,
//! Null join keys never matching, validation errors) are identical to the
//! row-at-a-time [`super::reference`] interpreter, which differential tests
//! hold it to.
//!
//! Each operator runs in **one pass over its input, on the calling
//! thread**: a filter evaluates its predicate over every lane at once, a
//! join probes every lane against one index, a group-by folds its lanes in
//! order. A morsel split and its worker threads never beat one pass here
//! (EXPERIMENTS.md, E3), so there is none, and none above this executor
//! either: a Monte Carlo run executes its replicates on the calling thread
//! too. Aggregation, join indexing and sort comparison run on the typed
//! kernels of `query::kernels` (dense group ids from the key columns, typed
//! accumulators, a flat join index) rather than on boxed values; filters
//! turn their predicate into a selection vector with the branch-free loops
//! of [`crate::query::select`].

use super::batch::Batch;
use super::column::ColumnVec;
use super::kernels::{
    accumulate, any_null, any_nullable, assign_groups, cmp_lanes, hash_keys, partition_of,
    JoinIndex, LaneError, Lanes, NO_KEY,
};
use super::select::{self, CmpOp};
use super::{infer_type, planner, AggFunc, Catalog, Plan};
use crate::expr::{BinOp, BoundExpr};
use crate::schema::{Column, DataType, Schema};
use crate::storage::spill::SpilledBatch;
use crate::table::Table;
use crate::value::Value;
use crate::McdbError;
use mde_numeric::obs::{Counter, Span, Tracer};
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

/// A unit of data flowing between physical operators: a shared columnar
/// batch plus an optional selection vector of row indices into it. Both are
/// shared, so cloning a chunk — reading a pinned one, say — allocates
/// nothing.
#[derive(Debug, Clone)]
struct Chunk {
    batch: Arc<Batch>,
    /// Row indices into `batch`, in output order, and how many of them
    /// (from the front) are this chunk's — a `Limit` narrows the count, not
    /// the vector. `None` = all rows.
    sel: Option<(Arc<Vec<u32>>, usize)>,
}

impl Chunk {
    fn from_batch(batch: Arc<Batch>) -> Chunk {
        Chunk { batch, sel: None }
    }

    fn selected(batch: Arc<Batch>, sel: Vec<u32>) -> Chunk {
        let len = sel.len();
        Chunk {
            batch,
            sel: Some((Arc::new(sel), len)),
        }
    }

    /// Number of output rows.
    fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.batch.len(), |(_, len)| *len)
    }

    /// The batch row index backing output lane `lane`.
    #[inline]
    fn index(&self, lane: usize) -> u32 {
        match &self.sel {
            Some((s, _)) => s[lane],
            None => lane as u32,
        }
    }

    fn sel_slice(&self) -> Option<&[u32]> {
        self.sel.as_ref().map(|(s, len)| &s[..*len])
    }

    /// The batch rows behind the output lanes.
    fn lanes(&self) -> Lanes<'_> {
        match self.sel_slice() {
            Some(s) => Lanes::Sel(s),
            None => Lanes::All(self.batch.len()),
        }
    }
}

/// Per-execution state threaded through the operator tree: the catalog
/// and the deterministic execution counters, each a pure function of the
/// data and the plan.
struct ExecCtx<'a> {
    catalog: &'a Catalog,
    /// `query.morsels`: one per operator pass over an input (filter, join
    /// probe, aggregate arguments, projection, sort keys) and one per
    /// decoded page.
    morsels: Cell<u64>,
    /// `query.simd_lanes` (a benchmark metric name): lanes through the
    /// selection kernels.
    select_lanes: Cell<u64>,
}

impl<'a> ExecCtx<'a> {
    fn new(catalog: &'a Catalog) -> ExecCtx<'a> {
        ExecCtx {
            catalog,
            morsels: Cell::new(0),
            select_lanes: Cell::new(0),
        }
    }

    fn count_morsels(&self, n: u64) {
        self.morsels.set(self.morsels.get() + n);
    }

    fn count_select_lanes(&self, n: usize) {
        self.select_lanes.set(self.select_lanes.get() + n as u64);
    }
}

/// A comparison predicate eligible for the column-vs-literal selection
/// kernels.
#[derive(Clone, Copy)]
enum FastCmp {
    F64(CmpOp, f64),
    I64(CmpOp, i64),
}

fn cmp_op_of(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::Ne => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::Le => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::Ge => Some(CmpOp::Ge),
        _ => None,
    }
}

/// Mirror a comparison across its operands (`lit op col` → `col op' lit`).
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

/// Detect a predicate the column-vs-literal kernels can decide: a
/// `col <cmp> literal` comparison over an unselected Float/Int column, or
/// a conjunction of such comparisons. Under Kleene logic a conjunction
/// passes a lane only when every conjunct is true, so its selection is the
/// intersection of the conjuncts' selections — bit-identical to the
/// generic path. Float-literal-vs-Int-column and NaN literals (and any
/// other conjunct) fall back to the generic path so coercion and error
/// semantics stay byte-for-byte those of `eval_batch`.
fn filter_fast_path(chunk: &Chunk, predicate: &BoundExpr) -> Option<Vec<(usize, FastCmp)>> {
    fn collect(batch: &Batch, e: &BoundExpr, out: &mut Vec<(usize, FastCmp)>) -> Option<()> {
        let BoundExpr::Binary { op, left, right } = e else {
            return None;
        };
        if *op == BinOp::And {
            collect(batch, left, out)?;
            return collect(batch, right, out);
        }
        let (col, lit, flipped) = match (left.as_ref(), right.as_ref()) {
            (BoundExpr::Col(i), BoundExpr::Lit(v)) => (*i, v, false),
            (BoundExpr::Lit(v), BoundExpr::Col(i)) => (*i, v, true),
            _ => return None,
        };
        let op = cmp_op_of(*op)?;
        let op = if flipped { flip_cmp(op) } else { op };
        out.push(match (batch.column(col), lit) {
            (ColumnVec::Float { .. }, Value::Float(x)) if !x.is_nan() => {
                (col, FastCmp::F64(op, *x))
            }
            (ColumnVec::Float { .. }, Value::Int(x)) => (col, FastCmp::F64(op, *x as f64)),
            (ColumnVec::Int { .. }, Value::Int(x)) => (col, FastCmp::I64(op, *x)),
            _ => return None,
        });
        Some(())
    }
    if chunk.sel.is_some() {
        return None;
    }
    let mut conjuncts = Vec::new();
    collect(&chunk.batch, predicate, &mut conjuncts)?;
    Some(conjuncts)
}

/// A physical operator with all expressions bound and schemas resolved.
#[derive(Debug, Clone)]
enum PhysOp {
    /// Scan a catalog table: its cached columnar batch, or — for a paged
    /// table — the pages of the columns marked in `read`.
    Scan {
        table: String,
        schema: Schema,
        /// Per table column: whether an ancestor binds it (see
        /// [`prune_unread_columns`]). An unmarked column may come back as
        /// an untyped all-null placeholder.
        read: Vec<bool>,
    },
    /// An inline table: its columns, shared at prepare time.
    Values { name: String, batch: Arc<Batch> },
    /// Selection-vector filter; emits no data, only indices.
    Filter {
        input: Box<PhysOp>,
        predicate: BoundExpr,
    },
    /// Column-at-a-time projection with declared output types.
    Project {
        input: Box<PhysOp>,
        exprs: Vec<BoundExpr>,
        schema: Schema,
    },
    /// Hash equi-join; the build side is chosen by cardinality at runtime.
    HashJoin {
        left: Box<PhysOp>,
        right: Box<PhysOp>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        /// Per left/right input column: whether an ancestor binds it in
        /// the join output (see [`prune_unread_columns`]).
        emit_left: Vec<bool>,
        emit_right: Vec<bool>,
        schema: Schema,
        /// Set by [`PreparedQuery::pin_invariant`] when it pins exactly one
        /// input.
        memo: Option<Arc<JoinMemo>>,
    },
    /// Hash-grouped aggregation with pre-evaluated argument columns.
    Aggregate {
        input: Box<PhysOp>,
        group_idx: Vec<usize>,
        agg_funcs: Vec<AggFunc>,
        agg_args: Vec<Option<BoundExpr>>,
        schema: Schema,
    },
    /// Stable sort producing a permutation selection vector.
    Sort {
        input: Box<PhysOp>,
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Selection-vector truncation.
    Limit { input: Box<PhysOp>, n: usize },
    /// A sub-plan whose output no execution of this plan can change: run by
    /// the first execution that gets through it, answered from `cell` by
    /// every later one. Inserted only by [`PreparedQuery::pin_invariant`],
    /// as the child of a join or as the root.
    Pinned {
        input: Box<PhysOp>,
        cell: Arc<PinCell<Chunk>>,
    },
}

/// A fill-once cell: the output of a [`PhysOp::Pinned`] node, or a
/// stochastic table's realization inputs
/// ([`PreparedRandomTable`](crate::random_table::PreparedRandomTable)),
/// shared by the clones of the plan that holds it. A pinned plan is
/// executed by one Monte Carlo run on one thread, so a fill never races
/// another.
#[derive(Debug)]
pub(crate) struct PinCell<T> {
    value: OnceLock<T>,
}

impl<T> Default for PinCell<T> {
    fn default() -> Self {
        PinCell {
            value: OnceLock::new(),
        }
    }
}

impl<T> PinCell<T> {
    /// The pinned value, produced by `fill` if no execution has produced it
    /// yet. A `fill` that returns an error or panics leaves the cell empty:
    /// that execution fails as it would have unpinned, and the next one
    /// runs the sub-plan again.
    pub(crate) fn get_or_try_fill(
        &self,
        fill: impl FnOnce() -> crate::Result<T>,
    ) -> crate::Result<&T> {
        if let Some(value) = self.value.get() {
            return Ok(value);
        }
        let value = fill()?;
        Ok(self.value.get_or_init(|| value))
    }
}

/// The memo of a [`PhysOp::HashJoin`] with exactly one [`PhysOp::Pinned`]
/// input: the join structure its last completed execution built, which
/// depends only on the pinned input and on the join keys of the other —
/// *volatile* — input. Made only where a pinned node is, so it lives and
/// dies with one Monte Carlo run's prepared plan (and its clones).
struct JoinMemo {
    /// Whether the pinned input is the left one.
    pinned_left: bool,
    last: Mutex<Option<Arc<JoinMemoEntry>>>,
    /// Probes run (a memo hit runs none): a deterministic count.
    probes: Counter,
}

/// The flags, not the batches.
impl std::fmt::Debug for JoinMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinMemo")
            .field("pinned_left", &self.pinned_left)
            .field("probes", &self.probes.get())
            .finish_non_exhaustive()
    }
}

/// One execution's join structure, keyed by its inputs. Everything is
/// shared with that execution: keeping it copies nothing.
struct JoinMemoEntry {
    /// The pinned input's batch, compared by address (a filled pin cell
    /// never changes, so this only guards the memo's own reasoning).
    pinned: Arc<Batch>,
    /// The volatile input: its key columns and selection are the key.
    volatile: Chunk,
    /// The volatile input's half of the pair list: its batch row behind
    /// each output row.
    volatile_rows: Vec<u32>,
    /// The output batch; a hit reuses its pinned-side columns.
    out: Arc<Batch>,
}

impl JoinMemoEntry {
    /// Whether an execution with inputs `pinned` and `volatile` (join keys
    /// at `keys`) builds this entry's pair list: the same pinned batch, and
    /// the volatile keys equal to the bit, null masks included, under the
    /// same selection.
    fn matches(&self, pinned: &Chunk, volatile: &Chunk, keys: &[usize]) -> bool {
        Arc::ptr_eq(&self.pinned, &pinned.batch)
            && self.volatile.sel_slice() == volatile.sel_slice()
            && keys
                .iter()
                .all(|&k| same_bits(self.volatile.batch.column(k), volatile.batch.column(k)))
    }
}

/// Lane-for-lane equality by representation: floats by bit pattern (so
/// `0.0` and `-0.0` differ and a NaN equals itself), the other types as
/// `==` compares them, null masks included.
fn same_bits(a: &ColumnVec, b: &ColumnVec) -> bool {
    match (a, b) {
        (ColumnVec::Float { data: x, nulls: nx }, ColumnVec::Float { data: y, nulls: ny }) => {
            nx == ny
                && x.len() == y.len()
                && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => a == b,
    }
}

impl PhysOp {
    /// The name the materialized result table carries — matching what the
    /// row-at-a-time executor names each operator's output.
    fn result_name(&self) -> &str {
        match self {
            PhysOp::Scan { table, .. } => table,
            PhysOp::Values { name, .. } => name,
            PhysOp::Filter { .. } => "filter",
            PhysOp::Project { .. } => "project",
            PhysOp::HashJoin { .. } => "join",
            PhysOp::Aggregate { .. } => "aggregate",
            PhysOp::Sort { .. } => "sort",
            PhysOp::Limit { .. } => "limit",
            PhysOp::Pinned { input, .. } => input.result_name(),
        }
    }
}

/// A logical plan lowered to a physical plan against a catalog snapshot:
/// optimized, expressions bound once, schemas resolved.
///
/// Prepare once, execute many times:
///
/// ```
/// use mde_mcdb::prelude::*;
/// use mde_mcdb::query::PreparedQuery;
///
/// let mut c = Catalog::new();
/// c.insert(
///     Table::build("t", &[("x", DataType::Int)])
///         .row(vec![Value::from(1)])
///         .row(vec![Value::from(5)])
///         .finish()
///         .unwrap(),
/// );
/// let plan = Plan::scan("t").filter(Expr::col("x").gt(Expr::lit(2)));
/// let prepared = PreparedQuery::prepare(&plan, &c).unwrap();
/// for _ in 0..3 {
///     assert_eq!(prepared.execute(&c).unwrap().len(), 1);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    root: PhysOp,
    schema: Schema,
    /// Lifetime execution count of this prepared plan (clones snapshot).
    executions: Counter,
}

impl PreparedQuery {
    /// Optimize and lower a logical plan against a catalog.
    ///
    /// Errors surface anything the planner can see statically: unknown
    /// tables or columns, unbound expressions, joins without keys,
    /// aggregates missing arguments.
    pub fn prepare(plan: &Plan, catalog: &Catalog) -> crate::Result<PreparedQuery> {
        Self::lower(&planner::optimize(plan.clone(), catalog), catalog)
    }

    /// Lower a plan without running the rewrite planner first, so a
    /// differential test isolates executor semantics from planner rewrites.
    #[cfg(test)]
    pub(crate) fn prepare_unoptimized(
        plan: &Plan,
        catalog: &Catalog,
    ) -> crate::Result<PreparedQuery> {
        Self::lower(plan, catalog)
    }

    fn lower(plan: &Plan, catalog: &Catalog) -> crate::Result<PreparedQuery> {
        let (mut root, schema) = build(plan, catalog)?;
        prune_unread_columns(&mut root, None);
        Ok(PreparedQuery {
            root,
            schema,
            executions: Counter::new(),
        })
    }

    /// Pin every maximal sub-plan that scans none of the `volatile` tables:
    /// it runs in the first execution that reaches it and its output chunk
    /// is shared by every execution after (and by every clone of this plan).
    /// A join with one pinned input memoizes its pair list (see
    /// [`PhysOp::HashJoin`]'s `memo`). The caller guarantees what the
    /// pinned nodes rely on — every catalog this plan executes against
    /// holds the same tables under every name outside `volatile` — which
    /// is why only the Monte Carlo prepare path calls this. Returns whether
    /// the whole plan is invariant.
    pub(crate) fn pin_invariant(&mut self, volatile: &[&str]) -> bool {
        let invariant = pin_below(&mut self.root, volatile);
        if invariant {
            pin(&mut self.root);
        }
        invariant
    }

    /// The result schema.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The probes run by this plan's memoizing joins (see `JoinMemo`), or
    /// `None` when it has none.
    #[cfg(test)]
    pub(crate) fn join_probes(&self) -> Option<u64> {
        fn walk(op: &PhysOp) -> Option<u64> {
            match op {
                PhysOp::Scan { .. } | PhysOp::Values { .. } => None,
                PhysOp::Filter { input, .. }
                | PhysOp::Project { input, .. }
                | PhysOp::Aggregate { input, .. }
                | PhysOp::Sort { input, .. }
                | PhysOp::Limit { input, .. }
                | PhysOp::Pinned { input, .. } => walk(input),
                PhysOp::HashJoin {
                    left, right, memo, ..
                } => [
                    memo.as_ref().map(|m| m.probes.get()),
                    walk(left),
                    walk(right),
                ]
                .into_iter()
                .flatten()
                .reduce(|a, b| a + b),
            }
        }
        walk(&self.root)
    }

    /// How many times this prepared plan has been executed.
    pub fn executions(&self) -> u64 {
        self.executions.get()
    }

    /// Execute against a catalog, materializing the result table.
    ///
    /// The catalog may differ from the one used at prepare time (the Monte
    /// Carlo runners prepare against a planning catalog and execute against
    /// per-replicate scratch catalogs); scanned tables must still exist
    /// with the schema seen at prepare time.
    pub fn execute(&self, catalog: &Catalog) -> crate::Result<Table> {
        self.execute_traced(catalog, &Tracer::disabled())
    }

    /// Execute with structured tracing: one `query` root span, one child
    /// span per physical operator (in execution order) carrying row counts
    /// and — for scans — table names and page reads. With the
    /// disabled tracer this is exactly [`PreparedQuery::execute`]: spans
    /// are inert and nothing allocates.
    pub fn execute_traced(&self, catalog: &Catalog, tracer: &Tracer) -> crate::Result<Table> {
        self.executions.inc();
        let ctx = ExecCtx::new(catalog);
        let mut span = tracer.root("query");
        span.record("exec", self.executions.get());
        let chunk = run(&self.root, &ctx, &span)?;
        let table = materialize(&chunk, self.root.result_name())?;
        span.record("rows_out", table.len());
        // Deterministic execution counters: pure functions of the data and
        // the plan (DESIGN.md §6g).
        span.record("query.morsels", ctx.morsels.get());
        span.record("query.simd_lanes", ctx.select_lanes.get());
        Ok(table)
    }
}

/// Lower one plan node, returning the physical operator and its output
/// schema. Mirrors `Plan::output_schema` so error discovery order matches
/// the legacy executor.
fn build(plan: &Plan, catalog: &Catalog) -> crate::Result<(PhysOp, Schema)> {
    match plan {
        Plan::Scan { table } => {
            let schema = catalog.get(table)?.schema().clone();
            Ok((
                PhysOp::Scan {
                    table: table.clone(),
                    read: vec![true; schema.len()],
                    schema: schema.clone(),
                },
                schema,
            ))
        }
        Plan::Values { table } => Ok((
            PhysOp::Values {
                name: table.name().to_string(),
                batch: table.batch(),
            },
            table.schema().clone(),
        )),
        Plan::Filter { input, predicate } => {
            let (child, schema) = build(input, catalog)?;
            let predicate = predicate.bind(&schema)?;
            Ok((
                PhysOp::Filter {
                    input: Box::new(child),
                    predicate,
                },
                schema,
            ))
        }
        Plan::Project { input, exprs } => {
            let (child, in_schema) = build(input, catalog)?;
            let mut cols = Vec::with_capacity(exprs.len());
            for (name, e) in exprs {
                let dt = infer_type(e, &in_schema)?.unwrap_or(DataType::Float);
                cols.push(Column::new(name.clone(), dt));
            }
            let schema = Schema::new(cols)?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(_, e)| e.bind(&in_schema))
                .collect::<crate::Result<_>>()?;
            Ok((
                PhysOp::Project {
                    input: Box::new(child),
                    exprs: bound,
                    schema: schema.clone(),
                },
                schema,
            ))
        }
        Plan::Join {
            left,
            right,
            on,
            right_prefix,
        } => {
            let (lchild, ls) = build(left, catalog)?;
            let (rchild, rs) = build(right, catalog)?;
            if on.is_empty() {
                return Err(McdbError::invalid_plan(
                    "join requires at least one key pair (cross joins unsupported)",
                ));
            }
            let left_keys: Vec<usize> = on
                .iter()
                .map(|(l, _)| ls.index_of(l))
                .collect::<crate::Result<_>>()?;
            let right_keys: Vec<usize> = on
                .iter()
                .map(|(_, r)| rs.index_of(r))
                .collect::<crate::Result<_>>()?;
            let schema = ls.concat(&rs, right_prefix)?;
            Ok((
                PhysOp::HashJoin {
                    left: Box::new(lchild),
                    right: Box::new(rchild),
                    left_keys,
                    right_keys,
                    emit_left: vec![true; ls.len()],
                    emit_right: vec![true; rs.len()],
                    schema: schema.clone(),
                    memo: None,
                },
                schema,
            ))
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (child, in_schema) = build(input, catalog)?;
            let group_idx: Vec<usize> = group_by
                .iter()
                .map(|g| in_schema.index_of(g))
                .collect::<crate::Result<_>>()?;
            let mut cols = Vec::with_capacity(group_idx.len() + aggs.len());
            for &j in &group_idx {
                cols.push(in_schema.columns()[j].clone());
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
                    (AggFunc::Sum, Some(e)) | (AggFunc::Min, Some(e)) | (AggFunc::Max, Some(e)) => {
                        infer_type(e, &in_schema)?.unwrap_or(DataType::Float)
                    }
                };
                cols.push(Column::new(a.name.clone(), dt));
            }
            let schema = Schema::new(cols)?;
            let agg_args: Vec<Option<BoundExpr>> = aggs
                .iter()
                .map(|a| a.arg.as_ref().map(|e| e.bind(&in_schema)).transpose())
                .collect::<crate::Result<_>>()?;
            Ok((
                PhysOp::Aggregate {
                    input: Box::new(child),
                    group_idx,
                    agg_funcs: aggs.iter().map(|a| a.func).collect(),
                    agg_args,
                    schema: schema.clone(),
                },
                schema,
            ))
        }
        Plan::Sort { input, keys } => {
            let (child, schema) = build(input, catalog)?;
            let keys: Vec<(BoundExpr, bool)> = keys
                .iter()
                .map(|k| Ok((k.expr.bind(&schema)?, k.ascending)))
                .collect::<crate::Result<_>>()?;
            Ok((
                PhysOp::Sort {
                    input: Box::new(child),
                    keys,
                },
                schema,
            ))
        }
        Plan::Limit { input, n } => {
            let (child, schema) = build(input, catalog)?;
            Ok((
                PhysOp::Limit {
                    input: Box::new(child),
                    n: *n,
                },
                schema,
            ))
        }
    }
}

/// Whether `op` scans none of the `volatile` tables. Where it does, its
/// maximal invariant sub-plans — a whole input of a join — are pinned on
/// the way; an invariant `op` is left for the caller to pin higher up.
fn pin_below(op: &mut PhysOp, volatile: &[&str]) -> bool {
    match op {
        PhysOp::Scan { table, .. } => !volatile.contains(&table.as_str()),
        PhysOp::Values { .. } => true,
        PhysOp::Filter { input, .. }
        | PhysOp::Project { input, .. }
        | PhysOp::Aggregate { input, .. }
        | PhysOp::Sort { input, .. }
        | PhysOp::Limit { input, .. } => pin_below(input, volatile),
        PhysOp::HashJoin {
            left, right, memo, ..
        } => {
            match (pin_below(left, volatile), pin_below(right, volatile)) {
                (true, true) => return true,
                (true, false) => pin(left),
                (false, true) => pin(right),
                (false, false) => {}
            }
            let pinned = |op: &PhysOp| matches!(op, PhysOp::Pinned { .. });
            if pinned(left) != pinned(right) {
                *memo = Some(Arc::new(JoinMemo {
                    pinned_left: pinned(left),
                    last: Mutex::new(None),
                    probes: Counter::new(),
                }));
            }
            false
        }
        // Already split for some volatile set; nothing below is re-pinned.
        PhysOp::Pinned { .. } => false,
    }
}

/// Wrap `op` in a pinned node with an empty cell. Inline values are left
/// alone: executing them is already a pointer copy.
fn pin(op: &mut PhysOp) {
    if matches!(op, PhysOp::Values { .. }) {
        return;
    }
    // A scan of nothing stands in (allocation-free) while `op` moves into
    // its own wrapper.
    let hole = PhysOp::Scan {
        table: String::new(),
        schema: Schema::new(Vec::new()).expect("no columns, no duplicates"),
        read: Vec::new(),
    };
    *op = PhysOp::Pinned {
        input: Box::new(std::mem::replace(op, hole)),
        cell: Arc::default(),
    };
}

/// Narrow what every scan reads and every join emits to the columns the
/// operators above them bind, so a join feeding (say) an aggregate over two
/// columns gathers those two instead of every column of both inputs, and a
/// paged scan under it fetches and decodes only their pages. `needed` marks
/// the columns of `op`'s output that are read above it; `None` means all of
/// them (the root: its whole batch becomes the result table).
fn prune_unread_columns(op: &mut PhysOp, needed: Option<Vec<bool>>) {
    fn mark(mask: &mut Vec<bool>, e: &BoundExpr) {
        e.for_each_column(&mut |i| {
            if mask.len() <= i {
                mask.resize(i + 1, false);
            }
            mask[i] = true;
        });
    }
    /// Masks only grow as far as the highest column marked.
    fn marked(mask: &[bool], j: usize) -> bool {
        mask.get(j).copied().unwrap_or(false)
    }
    match op {
        PhysOp::Scan { read, .. } => {
            if let Some(m) = needed {
                *read = (0..read.len()).map(|j| marked(&m, j)).collect();
            }
        }
        PhysOp::Values { .. } => {}
        // Selection-vector operators pass their input batch through.
        PhysOp::Filter { input, predicate } => {
            let needed = needed.map(|mut m| {
                mark(&mut m, predicate);
                m
            });
            prune_unread_columns(input, needed);
        }
        PhysOp::Sort { input, keys } => {
            let needed = needed.map(|mut m| {
                keys.iter().for_each(|(e, _)| mark(&mut m, e));
                m
            });
            prune_unread_columns(input, needed);
        }
        PhysOp::Limit { input, .. } | PhysOp::Pinned { input, .. } => {
            prune_unread_columns(input, needed)
        }
        // Operators that rebuild their batch read exactly what they bind.
        PhysOp::Project { input, exprs, .. } => {
            let mut m = Vec::new();
            exprs.iter().for_each(|e| mark(&mut m, e));
            prune_unread_columns(input, Some(m));
        }
        PhysOp::Aggregate {
            input,
            group_idx,
            agg_args,
            ..
        } => {
            let mut m = Vec::new();
            group_idx
                .iter()
                .for_each(|&j| mark(&mut m, &BoundExpr::Col(j)));
            agg_args.iter().flatten().for_each(|e| mark(&mut m, e));
            prune_unread_columns(input, Some(m));
        }
        PhysOp::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            emit_left,
            emit_right,
            ..
        } => {
            if let Some(m) = needed {
                let n_left = emit_left.len();
                *emit_left = (0..n_left).map(|j| marked(&m, j)).collect();
                *emit_right = (0..emit_right.len())
                    .map(|j| marked(&m, n_left + j))
                    .collect();
            }
            // Each input must deliver what the join emits plus its keys.
            for (child, emit, keys) in [
                (left, &*emit_left, &*left_keys),
                (right, &*emit_right, &*right_keys),
            ] {
                let mut m = emit.clone();
                keys.iter().for_each(|&j| m[j] = true);
                prune_unread_columns(child, Some(m));
            }
        }
    }
}

/// The root chunk as a table. A chunk without a selection vector is a
/// batch verbatim (plain scan, values, or an operator that rebuilt its
/// batch) and is adopted as is; otherwise the selection is validated and
/// gathered once, column by column.
fn materialize(chunk: &Chunk, name: &str) -> crate::Result<Table> {
    let batch = match chunk.sel_slice() {
        None => Arc::clone(&chunk.batch),
        Some(sel) => Arc::new(chunk.batch.gather(sel)?),
    };
    Ok(Table::from_batch(name, batch))
}

fn run(op: &PhysOp, ctx: &ExecCtx, parent: &Span) -> crate::Result<Chunk> {
    match op {
        PhysOp::Scan {
            table,
            schema,
            read,
        } => {
            let mut span = parent.child("scan");
            let t = ctx.catalog.get(table)?;
            if t.schema() != schema {
                return Err(McdbError::invalid_plan(format!(
                    "prepared plan is stale: schema of table `{table}` changed since prepare"
                )));
            }
            span.record("table", table.as_str());
            // Logical page reads are deterministic (a pure function of the
            // queries executed), so they may live on the span; the pool's
            // hit/eviction counters are timing-dependent and stay
            // out-of-band in `PoolStats`.
            let reads_before = t.paged_store().map(|s| s.logical_reads());
            let chunk = Chunk::from_batch(t.scan_batch(read)?);
            if let (Some(before), Some(store)) = (reads_before, t.paged_store()) {
                let pages = store.logical_reads() - before;
                span.record("storage.page_reads", pages);
                ctx.count_morsels(pages);
            }
            span.record("rows", chunk.len());
            Ok(chunk)
        }
        PhysOp::Values { name, batch } => {
            let mut span = parent.child("values");
            span.record("table", name.as_str());
            span.record("rows", batch.len());
            Ok(Chunk::from_batch(Arc::clone(batch)))
        }
        PhysOp::Filter { input, predicate } => {
            let mut span = parent.child("filter");
            let chunk = run(input, ctx, &span)?;
            span.record("rows_in", chunk.len());
            ctx.count_morsels(1);
            let sel = filter_lanes(ctx, &chunk, predicate)?;
            span.record("rows_out", sel.len());
            Ok(Chunk::selected(chunk.batch, sel))
        }
        PhysOp::Project {
            input,
            exprs,
            schema,
        } => {
            let mut span = parent.child("project");
            let chunk = run(input, ctx, &span)?;
            span.record("rows", chunk.len());
            ctx.count_morsels(1);
            let batch = project(&chunk, exprs, schema)?;
            Ok(Chunk::from_batch(Arc::new(batch)))
        }
        PhysOp::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            emit_left,
            emit_right,
            schema,
            memo,
        } => {
            let mut span = parent.child("join");
            let lc = run(left, ctx, &span)?;
            let rc = run(right, ctx, &span)?;
            let (l_lanes, r_lanes) = (lc.len(), rc.len());
            span.record("left_rows", l_lanes);
            span.record("right_rows", r_lanes);
            // With one input pinned, the pair list is a function of the
            // other input's keys and selection: while they repeat, only that
            // input's columns are gathered again. (Every write to the memo
            // is one whole entry, so a poisoned lock still holds a valid
            // one.)
            let memo = memo.as_deref().map(|m| match m.pinned_left {
                true => (m, &lc, &rc, &right_keys[..]),
                false => (m, &rc, &lc, &left_keys[..]),
            });
            if let Some((m, pinned, volatile, keys)) = memo {
                let last = m.last.lock().unwrap_or_else(|e| e.into_inner()).clone();
                if let Some(hit) = last.filter(|e| e.matches(pinned, volatile, keys)) {
                    span.record("memo_hit", true);
                    let n_left = emit_left.len();
                    let kept = |range: std::ops::Range<usize>| hit.out.columns()[range].to_vec();
                    let cols = if m.pinned_left {
                        let mut cols = kept(0..n_left);
                        cols.extend(gather_emitted(&rc, &hit.volatile_rows, emit_right));
                        cols
                    } else {
                        let mut cols = gather_emitted(&lc, &hit.volatile_rows, emit_left);
                        cols.extend(kept(n_left..schema.len()));
                        cols
                    };
                    span.record("rows_out", hit.volatile_rows.len());
                    let batch = Batch::from_columns(schema.clone(), cols, hit.volatile_rows.len())?;
                    return Ok(Chunk::from_batch(Arc::new(batch)));
                }
            }

            // The batch rows of the matching (left, right) pairs, in the
            // reference output order: ascending left lane, then ascending
            // right lane.
            let l_side = JoinSide::new(&lc.batch, left_keys, lc.lanes());
            let r_side = JoinSide::new(&rc.batch, right_keys, rc.lanes());
            let spill = ctx.catalog.spill_config();
            let (l_sel, r_sel) = if l_lanes.min(r_lanes) > spill.threshold_rows {
                // Grace hash join: the build side exceeds the spill
                // threshold, so both inputs are hash-partitioned by join
                // key (the same deterministic key hash the index uses —
                // identical sharding every run), each partition is
                // persisted through the page codec, and partitions are
                // joined one at a time by the in-memory kernel. Every key
                // lives wholly in one partition, and the final lane-pair
                // sort restores the reference output order exactly, so
                // results are bit-identical to the in-memory path.
                let parts = spill.partitions.max(1);
                span.record("spilled", true);
                span.record("partitions", parts);
                let l_parts = l_side.partition(parts);
                let r_parts = r_side.partition(parts);
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                let mut spill_rows = 0u64;
                for p in 0..parts {
                    let (lp, rp) = (&l_parts[p], &r_parts[p]);
                    if lp.is_empty() || rp.is_empty() {
                        continue;
                    }
                    let l_sel: Vec<u32> = lp.iter().map(|&l| lc.index(l as usize)).collect();
                    let r_sel: Vec<u32> = rp.iter().map(|&r| rc.index(r as usize)).collect();
                    let ls = SpilledBatch::write(&lc.batch, &l_sel, spill, &format!("jl{p}"))?;
                    let rs = SpilledBatch::write(&rc.batch, &r_sel, spill, &format!("jr{p}"))?;
                    spill_rows += (ls.n_rows() + rs.n_rows()) as u64;
                    let (lb, rb) = (ls.read()?, rs.read()?);
                    // A partition batch is unselected: its rows are the
                    // partition's lanes.
                    let (l_rows, r_rows) = join_rows(
                        ctx,
                        &JoinSide::new(&lb, left_keys, Lanes::All(lb.len())),
                        &JoinSide::new(&rb, right_keys, Lanes::All(rb.len())),
                    );
                    pairs.extend(
                        l_rows
                            .into_iter()
                            .zip(r_rows)
                            .map(|(l, r)| (lp[l as usize], rp[r as usize])),
                    );
                }
                span.record("spill_rows", spill_rows);
                pairs.sort_unstable();
                (
                    pairs.iter().map(|&(l, _)| lc.index(l as usize)).collect(),
                    pairs.iter().map(|&(_, r)| rc.index(r as usize)).collect(),
                )
            } else {
                join_rows(ctx, &l_side, &r_side)
            };

            let mut cols = gather_emitted(&lc, &l_sel, emit_left);
            cols.extend(gather_emitted(&rc, &r_sel, emit_right));
            span.record("rows_out", l_sel.len());
            let batch = Arc::new(Batch::from_columns(schema.clone(), cols, l_sel.len())?);
            if let Some((m, pinned, volatile, _)) = memo {
                m.probes.inc();
                let entry = JoinMemoEntry {
                    pinned: Arc::clone(&pinned.batch),
                    volatile: volatile.clone(),
                    volatile_rows: if m.pinned_left { r_sel } else { l_sel },
                    out: Arc::clone(&batch),
                };
                *m.last.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(entry));
            }
            Ok(Chunk::from_batch(batch))
        }
        PhysOp::Aggregate {
            input,
            group_idx,
            agg_funcs,
            agg_args,
            schema,
        } => {
            let mut span = parent.child("aggregate");
            let chunk = run(input, ctx, &span)?;
            let lanes = chunk.len();
            span.record("rows_in", lanes);
            let spill = ctx.catalog.spill_config();
            let grouped = if lanes > spill.threshold_rows && !group_idx.is_empty() {
                // Grace-partitioned aggregation: the input exceeds the
                // spill threshold, so lanes are hash-partitioned by group
                // key, each partition is persisted and aggregated on its
                // own by the in-memory kernel, and groups are re-emitted
                // in global first-seen order. Every group lives wholly in
                // one partition and its lanes keep ascending order, so
                // accumulation order — and therefore floating-point sums —
                // is bit-identical to the unspilled path. (A global
                // aggregate with no group keys holds O(1) state and never
                // needs to spill.)
                let parts = spill.partitions.max(1);
                span.record("spilled", true);
                span.record("partitions", parts);
                let keys: Vec<&ColumnVec> =
                    group_idx.iter().map(|&j| chunk.batch.column(j)).collect();
                let mut lane_parts: Vec<Vec<u32>> = vec![Vec::new(); parts];
                for (lane, &h) in hash_keys(&keys, chunk.lanes()).iter().enumerate() {
                    lane_parts[partition_of(h, parts)].push(lane as u32);
                }
                let mut partitions: Vec<Grouped> = Vec::new();
                // The failing lane a sequential fold over the unspilled
                // input would have reached first.
                let mut failed: Option<LaneError> = None;
                let mut spill_rows = 0u64;
                for (p, part) in lane_parts.iter().enumerate() {
                    if part.is_empty() {
                        continue;
                    }
                    let sel: Vec<u32> = part.iter().map(|&l| chunk.index(l as usize)).collect();
                    let spilled =
                        SpilledBatch::write(&chunk.batch, &sel, spill, &format!("agg{p}"))?;
                    spill_rows += spilled.n_rows() as u64;
                    let pb = spilled.read()?;
                    let lanes = Lanes::All(pb.len());
                    match aggregate_lanes(ctx, &pb, lanes, group_idx, agg_funcs, agg_args)? {
                        Ok(mut g) => {
                            for lane in &mut g.first_lane {
                                *lane = part[*lane as usize];
                            }
                            partitions.push(g);
                        }
                        Err((lane, e)) => {
                            let lane = part[lane] as usize;
                            if failed.as_ref().is_none_or(|(first, _)| lane < *first) {
                                failed = Some((lane, e));
                            }
                        }
                    }
                }
                if let Some((_, e)) = failed {
                    return Err(e);
                }
                span.record("spill_rows", spill_rows);
                // Partitions interleave in lane space; first-seen group
                // order is the order of each group's first global lane.
                Grouped::merge_first_seen(partitions)
            } else {
                aggregate_lanes(
                    ctx,
                    &chunk.batch,
                    chunk.lanes(),
                    group_idx,
                    agg_funcs,
                    agg_args,
                )?
                .map_err(|(_, e)| e)?
            };
            let batch = grouped.into_batch(schema, group_idx.len())?;
            span.record("groups", batch.len());
            Ok(Chunk::from_batch(Arc::new(batch)))
        }
        PhysOp::Sort { input, keys } => Ok(run_sort(input, keys, None, ctx, parent)?.0),
        PhysOp::Limit { input, n } => {
            let mut span = parent.child("limit");
            // `Limit` directly over `Sort` is a top-k selection: the sort
            // keeps only the first `n` lanes of its total order.
            let (chunk, rows_in) = match input.as_ref() {
                PhysOp::Sort { input, keys } => run_sort(input, keys, Some(*n), ctx, &span)?,
                other => {
                    let chunk = run(other, ctx, &span)?;
                    let rows = chunk.len();
                    (chunk, rows)
                }
            };
            span.record("rows_in", rows_in);
            let n = *n;
            let out = match chunk.sel {
                Some((sel, len)) => Chunk {
                    batch: chunk.batch,
                    sel: Some((sel, len.min(n))),
                },
                None if chunk.batch.len() <= n => chunk,
                None => Chunk::selected(chunk.batch, (0..n as u32).collect()),
            };
            span.record("rows_out", out.len());
            Ok(out)
        }
        // The filling execution runs the sub-plan under its own span tree
        // and counters; a later one shares the chunk (two `Arc` clones).
        PhysOp::Pinned { input, cell } => cell.get_or_try_fill(|| run(input, ctx, parent)).cloned(),
    }
}

/// A join input's output columns: the ones an ancestor binds gathered at
/// `sel`, the others an O(1) untyped all-null placeholder (never read).
fn gather_emitted(side: &Chunk, sel: &[u32], emit: &[bool]) -> Vec<ColumnVec> {
    emit.iter()
        .enumerate()
        .map(|(k, &emit)| {
            if emit {
                side.batch.column(k).gather(sel)
            } else {
                ColumnVec::AllNull { len: sel.len() }
            }
        })
        .collect()
}

/// The filter kernel: the batch rows behind the lanes of `chunk` where
/// `predicate` is true, in lane order.
fn filter_lanes(ctx: &ExecCtx, chunk: &Chunk, predicate: &BoundExpr) -> crate::Result<Vec<u32>> {
    let lanes = chunk.len();
    if let Some(conjuncts) = filter_fast_path(chunk, predicate) {
        // Literal fast path: the comparison kernels consume the column
        // slice and its null words directly; the first conjunct selects
        // and each later one refines that selection in place.
        ctx.count_select_lanes(lanes);
        let mut sel: Option<Vec<u32>> = None;
        for &(col, fast) in &conjuncts {
            sel = Some(match (fast, chunk.batch.column(col)) {
                (FastCmp::F64(op, lit), ColumnVec::Float { data, nulls }) => match sel {
                    None => select::cmp_f64_lit(op, data, lit, nulls.words()),
                    Some(sel) => select::refine_f64_lit(sel, op, data, lit, nulls.words()),
                },
                (FastCmp::I64(op, lit), ColumnVec::Int { data, nulls }) => match sel {
                    None => select::cmp_i64_lit(op, data, lit, nulls.words()),
                    Some(sel) => select::refine_i64_lit(sel, op, data, lit, nulls.words()),
                },
                // `filter_fast_path` only emits matching pairs.
                _ => Vec::new(),
            });
        }
        return Ok(sel.unwrap_or_default());
    }
    // Generic path: evaluate the predicate, then compact true-and-not-null
    // lanes with the bool selection kernel.
    match predicate.eval_lanes(&chunk.batch, chunk.lanes())? {
        ColumnVec::Bool { data, nulls } => {
            ctx.count_select_lanes(lanes);
            let sel = select::compact_bool_lanes(&data, nulls.words());
            Ok(match chunk.sel_slice() {
                Some(rows) => sel.into_iter().map(|l| rows[l as usize]).collect(),
                None => sel,
            })
        }
        // All-null predicate: NULL is not true.
        ColumnVec::AllNull { .. } => Ok(Vec::new()),
        // Same error the row engine raises at the first row whose predicate
        // value is non-Bool and non-Null.
        other => match (0..other.len()).find(|&i| !other.is_null(i)) {
            Some(i) => Err(McdbError::type_mismatch(
                "filter predicate",
                "Bool or NULL",
                format!("{}", other.value(i)),
            )),
            None => Ok(Vec::new()),
        },
    }
}

/// The projection kernel: evaluate `exprs` over the lanes of `chunk`, widen
/// each result to its declared column of `schema`, validate it, and
/// assemble the output batch. Errors surface column-major and, within a
/// column, at its first failing lane — the order the row engine discovers
/// them in.
fn project(chunk: &Chunk, exprs: &[BoundExpr], schema: &Schema) -> crate::Result<Batch> {
    let cols = exprs
        .iter()
        .zip(schema.columns())
        .map(|(e, col)| {
            let c = e
                .eval_lanes(&chunk.batch, chunk.lanes())?
                .coerce_to(col.dtype);
            validate_column(&c, col)?;
            Ok(c)
        })
        .collect::<crate::Result<Vec<ColumnVec>>>()?;
    Batch::from_columns(schema.clone(), cols, chunk.len())
}

/// [`PhysOp::Project`]'s kernel over a whole batch, outside any plan — what
/// a stochastic table's `SELECT` list runs through
/// ([`PreparedRandomTable::realize`](crate::random_table::PreparedRandomTable::realize)).
pub(crate) fn project_batch(
    batch: Batch,
    exprs: &[BoundExpr],
    schema: &Schema,
) -> crate::Result<Batch> {
    project(&Chunk::from_batch(Arc::new(batch)), exprs, schema)
}

/// One input of a hash join: a batch, its key column indices, and the
/// batch rows behind its lanes.
struct JoinSide<'a> {
    keys: Vec<&'a ColumnVec>,
    lanes: Lanes<'a>,
}

impl<'a> JoinSide<'a> {
    fn new(batch: &'a Batch, keys: &[usize], lanes: Lanes<'a>) -> JoinSide<'a> {
        JoinSide {
            keys: keys.iter().map(|&j| batch.column(j)).collect(),
            lanes,
        }
    }

    /// Lanes with a non-NULL key, sharded by key hash into `parts` Grace
    /// partitions (ascending lane order within each).
    fn partition(&self, parts: usize) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); parts];
        let nullable = any_nullable(&self.keys);
        for (lane, &h) in hash_keys(&self.keys, self.lanes).iter().enumerate() {
            if !(nullable && any_null(&self.keys, self.lanes.row(lane))) {
                out[partition_of(h, parts)].push(lane as u32);
            }
        }
        out
    }
}

/// The in-memory hash-join kernel, shared by the unspilled path and every
/// Grace partition: index the smaller side (ties keep the legacy right
/// build), probe the larger side, and return the batch rows of the matching
/// (left, right) pairs in the reference order. The probe writes the build
/// key each probe lane matches into one buffer; the pairs are then expanded
/// from it in probe-lane order, so a right build emerges in the reference
/// order (ascending probe lane × ascending build lane) directly — as the
/// two selection vectors the gathers take — and a left build restores it
/// with a sort. NULL keys never match.
fn join_rows(ctx: &ExecCtx, left: &JoinSide<'_>, right: &JoinSide<'_>) -> (Vec<u32>, Vec<u32>) {
    let build_right = right.lanes.len() <= left.lanes.len();
    let (build, probe) = if build_right {
        (right, left)
    } else {
        (left, right)
    };
    let index = JoinIndex::build(&build.keys, build.lanes);
    ctx.count_morsels(1);
    let mut hits = vec![NO_KEY; probe.lanes.len()];
    index.probe(&probe.keys, probe.lanes, &mut hits);
    if build_right {
        return index.matches(&hits, probe.lanes, build.lanes);
    }
    let identity = |side: &JoinSide<'_>| Lanes::All(side.lanes.len());
    let (probe_lanes, build_lanes) = index.matches(&hits, identity(probe), identity(build));
    let mut pairs: Vec<(u32, u32)> = build_lanes.into_iter().zip(probe_lanes).collect();
    pairs.sort_unstable();
    (
        pairs
            .iter()
            .map(|&(l, _)| left.lanes.row(l as usize) as u32)
            .collect(),
        pairs
            .iter()
            .map(|&(_, r)| right.lanes.row(r as usize) as u32)
            .collect(),
    )
}

/// Group-by output before typing: one row per group.
struct Grouped {
    /// Each group's first input lane — its rank in first-seen order.
    first_lane: Vec<u32>,
    /// Group key columns, then one column per aggregate.
    cols: Vec<ColumnVec>,
}

impl Grouped {
    /// Concatenate the groups of several partitions and reorder them by
    /// first lane.
    fn merge_first_seen(parts: Vec<Grouped>) -> Grouped {
        let n_cols = parts.first().map_or(0, |g| g.cols.len());
        let mut first_lane = Vec::new();
        let mut per_col: Vec<Vec<ColumnVec>> = (0..n_cols).map(|_| Vec::new()).collect();
        for part in parts {
            first_lane.extend(part.first_lane);
            for (col_parts, c) in per_col.iter_mut().zip(part.cols) {
                col_parts.push(c);
            }
        }
        let mut order: Vec<u32> = (0..first_lane.len() as u32).collect();
        order.sort_unstable_by_key(|&g| first_lane[g as usize]);
        Grouped {
            first_lane: order.iter().map(|&g| first_lane[g as usize]).collect(),
            cols: per_col
                .into_iter()
                .map(|parts| ColumnVec::concat_many(parts).gather(&order))
                .collect(),
        }
    }

    /// Type the aggregate columns to the declared output schema (numeric
    /// widening, typed NULLs) and validate them as `Table::push_row` did
    /// row by row: the first offending row wins, then the first column.
    fn into_batch(self, schema: &Schema, n_keys: usize) -> crate::Result<Batch> {
        let n_groups = self.first_lane.len();
        let cols: Vec<ColumnVec> = self
            .cols
            .into_iter()
            .zip(schema.columns())
            .map(|(c, col)| match c {
                ColumnVec::AllNull { len } => ColumnVec::typed_nulls(len, col.dtype),
                typed => typed.coerce_to(col.dtype),
            })
            .collect();
        let invalid = cols
            .iter()
            .zip(schema.columns())
            .skip(n_keys)
            .filter_map(|(c, col)| first_invalid(c, col))
            .min_by_key(|(row, _)| *row);
        match invalid {
            Some((_, e)) => Err(e),
            None => Batch::from_columns(schema.clone(), cols, n_groups),
        }
    }
}

/// Evaluate `exprs` over `lanes` of `batch`: one pass, counted as one
/// morsel whether or not there is an expression to evaluate.
fn eval_columns(
    ctx: &ExecCtx,
    exprs: &[&BoundExpr],
    batch: &Batch,
    lanes: Lanes<'_>,
) -> crate::Result<Vec<ColumnVec>> {
    ctx.count_morsels(1);
    exprs.iter().map(|e| e.eval_lanes(batch, lanes)).collect()
}

/// The aggregate kernel, shared by the unspilled path and every Grace
/// partition. Argument expressions are evaluated first (an argument that is
/// a bare column is not copied: the fold reads it in place through
/// `lanes`); then dense group ids are assigned from the typed key columns
/// and each aggregate folds its argument column into typed per-group
/// accumulators, both walking lanes in order — so group discovery order and
/// floating-point accumulation order are exactly those of a row-at-a-time
/// fold. The inner error is the first lane (then first aggregate) at which
/// that fold would have failed.
fn aggregate_lanes(
    ctx: &ExecCtx,
    batch: &Batch,
    lanes: Lanes<'_>,
    group_idx: &[usize],
    agg_funcs: &[AggFunc],
    agg_args: &[Option<BoundExpr>],
) -> crate::Result<Result<Grouped, LaneError>> {
    let n = lanes.len();
    // Over zero lanes nothing is read in place: `eval_lanes` then yields
    // the untyped empty column the fold's identities expect.
    let in_place = |arg: &BoundExpr| match arg {
        BoundExpr::Col(j) if n > 0 && *j < batch.schema().len() => Some(batch.column(*j)),
        _ => None,
    };
    let arg_exprs: Vec<&BoundExpr> = agg_args
        .iter()
        .flatten()
        .filter(|arg| in_place(arg).is_none())
        .collect();
    let evaluated = eval_columns(ctx, &arg_exprs, batch, lanes)?;
    let mut evaluated = evaluated.iter();
    let arg_cols: Vec<Option<(&ColumnVec, Lanes<'_>)>> = agg_args
        .iter()
        .map(|arg| {
            let arg = arg.as_ref()?;
            Some(match in_place(arg) {
                Some(col) => (col, lanes),
                None => (evaluated.next()?, Lanes::All(n)),
            })
        })
        .collect();

    let keys: Vec<&ColumnVec> = group_idx.iter().map(|&j| batch.column(j)).collect();
    // No group keys: one global group, present even over zero lanes (its
    // accumulators then hold the aggregate identities).
    let groups = (!keys.is_empty()).then(|| assign_groups(&keys, lanes));
    let n_groups = groups.as_ref().map_or(1, |g| g.first_lane.len());
    let mut agg_cols = Vec::with_capacity(agg_funcs.len());
    let mut failed: Option<LaneError> = None;
    for (&func, arg) in agg_funcs.iter().zip(arg_cols) {
        let out = match &groups {
            Some(g) => accumulate(func, arg, n, n_groups, |l| g.ids[l] as usize),
            None => accumulate(func, arg, n, n_groups, |_| 0),
        };
        match out {
            Ok(c) => agg_cols.push(c),
            Err((lane, e)) => {
                if failed.as_ref().is_none_or(|(first, _)| lane < *first) {
                    failed = Some((lane, e));
                }
            }
        }
    }
    if let Some(e) = failed {
        return Ok(Err(e));
    }
    let (first_lane, key_cols) = match groups {
        Some(g) => {
            let rep_rows: Vec<u32> = g
                .first_lane
                .iter()
                .map(|&l| lanes.row(l as usize) as u32)
                .collect();
            let key_cols: Vec<ColumnVec> = keys.iter().map(|k| k.gather(&rep_rows)).collect();
            (g.first_lane, key_cols)
        }
        None => (vec![0], Vec::new()),
    };
    Ok(Ok(Grouped {
        first_lane,
        cols: key_cols.into_iter().chain(agg_cols).collect(),
    }))
}

/// Sort `input` by `keys`, keeping only the first `limit` lanes of the
/// order when a `Limit` sits directly above. Returns the sorted chunk and
/// the number of lanes sorted. The order is total — keys, then input lane
/// — so it equals a stable sort by the keys alone, and selecting its
/// first `k` lanes yields exactly the rows of stable-sort-then-truncate.
fn run_sort(
    input: &PhysOp,
    keys: &[(BoundExpr, bool)],
    limit: Option<usize>,
    ctx: &ExecCtx,
    parent: &Span,
) -> crate::Result<(Chunk, usize)> {
    let mut span = parent.child("sort");
    let chunk = run(input, ctx, &span)?;
    let lanes = chunk.len();
    span.record("rows", lanes);
    // Precompute whole key columns so the comparator is infallible.
    let key_exprs: Vec<&BoundExpr> = keys.iter().map(|(e, _)| e).collect();
    let key_cols: Vec<(ColumnVec, bool)> =
        eval_columns(ctx, &key_exprs, &chunk.batch, chunk.lanes())?
            .into_iter()
            .zip(keys.iter().map(|(_, asc)| *asc))
            .collect();
    let order = |a: &u32, b: &u32| {
        for (col, asc) in &key_cols {
            let ord = cmp_lanes(col, *a as usize, *b as usize);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        a.cmp(b)
    };
    let mut perm: Vec<u32> = (0..lanes as u32).collect();
    // One numeric key without a NULL (the top-k shape) is compared straight
    // from its slice: the key shape is resolved here, once, instead of in
    // `cmp_lanes` at every comparison. Same order, ties included.
    match key_cols.as_slice() {
        [(ColumnVec::Float { data, nulls }, asc)] if !nulls.any_null() => {
            arrange(&mut perm, limit, slice_order(data, *asc))
        }
        [(ColumnVec::Int { data, nulls }, asc)] if !nulls.any_null() => {
            arrange(&mut perm, limit, slice_order(data, *asc))
        }
        _ => arrange(&mut perm, limit, order),
    }
    let sel: Vec<u32> = perm.into_iter().map(|l| chunk.index(l as usize)).collect();
    Ok((Chunk::selected(chunk.batch, sel), lanes))
}

/// [`cmp_lanes`] order (incomparable floats tie), then lane order, over an
/// all-valid numeric key read from its slice.
fn slice_order<T: PartialOrd>(
    data: &[T],
    asc: bool,
) -> impl Fn(&u32, &u32) -> Ordering + Copy + '_ {
    move |a, b| {
        let ord = data[*a as usize]
            .partial_cmp(&data[*b as usize])
            .unwrap_or(Ordering::Equal);
        (if asc { ord } else { ord.reverse() }).then(a.cmp(b))
    }
}

/// Put `perm` in `order`: all of it, or only its first `limit` lanes
/// (selected, then sorted).
fn arrange(
    perm: &mut Vec<u32>,
    limit: Option<usize>,
    order: impl Fn(&u32, &u32) -> Ordering + Copy,
) {
    match limit {
        Some(0) => perm.clear(),
        Some(k) if k < perm.len() => {
            perm.select_nth_unstable_by(k - 1, order);
            perm.truncate(k);
            perm.sort_unstable_by(order);
        }
        _ => perm.sort_unstable_by(order),
    }
}

/// The first row at which a computed column violates its declared schema
/// column, with the error `Schema::validate_row` raises for it: the
/// column must match the declared type (untyped all-null columns match
/// anything) and Float columns must not contain NaN.
fn first_invalid(c: &ColumnVec, col: &Column) -> Option<(usize, McdbError)> {
    match c.dtype() {
        None => None,
        Some(t) if t == col.dtype => {
            let ColumnVec::Float { data, nulls } = c else {
                return None;
            };
            let row = (0..data.len()).find(|&i| data[i].is_nan() && !nulls.is_null(i))?;
            Some((
                row,
                McdbError::type_mismatch(
                    format!("column `{}`", col.name),
                    "finite float or NULL",
                    "NaN",
                ),
            ))
        }
        Some(t) => {
            let row = (0..c.len()).find(|&i| !c.is_null(i))?;
            Some((
                row,
                McdbError::type_mismatch(
                    format!("column `{}`", col.name),
                    col.dtype.to_string(),
                    t.to_string(),
                ),
            ))
        }
    }
}

/// Column-level analogue of `Schema::validate_row`; see [`first_invalid`].
fn validate_column(c: &ColumnVec, col: &Column) -> crate::Result<()> {
    first_invalid(c, col).map_or(Ok(()), |(_, e)| Err(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{AggSpec, SortKey};
    use crate::value::Value;

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

    /// Both engines, same plan, same catalog — results must agree exactly
    /// (the unoptimized reference is executed on the optimized plan so the
    /// comparison isolates the engine, not the planner).
    fn assert_engines_agree(c: &Catalog, plan: &Plan) {
        let optimized = planner::optimize(plan.clone(), c);
        let legacy = crate::query::reference::execute(&optimized, c);
        let vectorized =
            PreparedQuery::prepare_unoptimized(&optimized, c).and_then(|p| p.execute(c));
        match (legacy, vectorized) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "engines diverged for {}", plan.explain()),
            (Err(a), Err(b)) => assert_eq!(a, b, "errors diverged for {}", plan.explain()),
            (a, b) => panic!("status diverged for {}: {a:?} vs {b:?}", plan.explain()),
        }
    }

    #[test]
    fn matches_reference_on_core_operators() {
        let c = catalog();
        let plans = vec![
            Plan::scan("sales"),
            Plan::scan("sales").filter(Expr::col("amount").gt(Expr::lit(15.0))),
            Plan::scan("sales").project(&[
                ("id", Expr::col("id")),
                ("taxed", Expr::col("amount").mul(Expr::lit(1.1))),
                ("flag", Expr::col("amount").is_null()),
            ]),
            Plan::scan("sales").join(Plan::scan("regions"), &[("region", "name")]),
            Plan::scan("sales").aggregate(
                &["region"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::new("total", AggFunc::Sum, Expr::col("amount")),
                    AggSpec::new("mean", AggFunc::Avg, Expr::col("amount")),
                    AggSpec::new("lo", AggFunc::Min, Expr::col("amount")),
                    AggSpec::new("hi", AggFunc::Max, Expr::col("amount")),
                ],
            ),
            Plan::scan("sales").sort(vec![
                SortKey::asc(Expr::col("region")),
                SortKey::desc(Expr::col("amount")),
            ]),
            Plan::scan("sales").limit(2),
            Plan::scan("sales")
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
                .sort(vec![SortKey::asc(Expr::col("region"))])
                .limit(10),
        ];
        for p in &plans {
            assert_engines_agree(&c, p);
        }
    }

    #[test]
    fn matches_reference_on_null_and_edge_semantics() {
        let mut c = catalog();
        c.insert(
            Table::build("l", &[("k", DataType::Int), ("v", DataType::Float)])
                .row(vec![Value::Null, Value::from(1.0)])
                .row(vec![Value::from(1), Value::from(2.0)])
                .row(vec![Value::from(2), Value::Null])
                .finish()
                .unwrap(),
        );
        c.insert(
            Table::build("rr", &[("k2", DataType::Int), ("w", DataType::Int)])
                .row(vec![Value::Null, Value::from(7)])
                .row(vec![Value::from(1), Value::from(8)])
                .row(vec![Value::from(1), Value::from(9)])
                .finish()
                .unwrap(),
        );
        let plans = vec![
            // Null join keys never match, and duplicate build keys fan out.
            Plan::scan("l").join(Plan::scan("rr"), &[("k", "k2")]),
            // Null grouping keys form their own group.
            Plan::scan("l").aggregate(
                &["k"],
                vec![AggSpec::new("s", AggFunc::Sum, Expr::col("v"))],
            ),
            // Kleene logic without short-circuit, NULL predicate is false.
            Plan::scan("l").filter(
                Expr::col("v")
                    .gt(Expr::lit(0.5))
                    .and(Expr::col("k").is_null().not()),
            ),
            // Division by zero degrades to NULL; Int/Int division floats.
            Plan::scan("l").project(&[
                ("d", Expr::col("k").div(Expr::lit(0))),
                ("e", Expr::col("v").div(Expr::col("v"))),
                ("f", Expr::col("k").div(Expr::lit(2))),
            ]),
            // Int literal flowing into a Float output column coerces.
            Plan::scan("l")
                .project(&[("c", Expr::lit(1))])
                .project(&[("c2", Expr::col("c").add(Expr::lit(0.5)))]),
            // Sqrt/Ln domain errors degrade to NULL; Abs keeps Int.
            Plan::scan("l").project(&[
                (
                    "s",
                    Expr::col("v").neg().func(crate::expr::ScalarFunc::Sqrt),
                ),
                ("a", Expr::col("k").neg().func(crate::expr::ScalarFunc::Abs)),
                ("ln", Expr::lit(0.0).func(crate::expr::ScalarFunc::Ln)),
            ]),
            // Nulls sort first ascending, last descending; stable ties.
            Plan::scan("l").sort(vec![
                SortKey::desc(Expr::col("v")),
                SortKey::asc(Expr::col("k")),
            ]),
            // Empty input: filter drops all, aggregate still yields identity.
            Plan::scan("l")
                .filter(Expr::lit(false))
                .aggregate(&[], vec![AggSpec::count_star("n")]),
            // Non-Bool filter predicate errors identically.
            Plan::scan("l").filter(Expr::col("k")),
            // Wrapping integer arithmetic.
            Plan::scan("l").project(&[(
                "w",
                Expr::col("k").mul(Expr::lit(i64::MAX)).add(Expr::lit(1)),
            )]),
        ];
        for p in &plans {
            assert_engines_agree(&c, p);
        }
    }

    #[test]
    fn join_builds_on_smaller_side_with_identical_output() {
        // Big left (fact) × small right (dimension) and the mirror image:
        // both orientations must equal the reference row engine's output.
        let mut c = Catalog::new();
        let mut fact = Table::new(
            "fact",
            Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Int)]).unwrap(),
        );
        for i in 0..100i64 {
            fact.push_row(vec![Value::from(i % 7), Value::from(i)])
                .unwrap();
        }
        c.insert(fact);
        c.insert(
            Table::build("dim", &[("k2", DataType::Int), ("label", DataType::Str)])
                .row(vec![Value::from(1), Value::from("one")])
                .row(vec![Value::from(3), Value::from("three")])
                .finish()
                .unwrap(),
        );
        // Small right: build side is the right (legacy orientation).
        assert_engines_agree(
            &c,
            &Plan::scan("fact").join(Plan::scan("dim"), &[("k", "k2")]),
        );
        // Small LEFT: the engine flips the build side; output order must
        // still match the reference exactly.
        assert_engines_agree(
            &c,
            &Plan::scan("dim").join(Plan::scan("fact"), &[("k2", "k")]),
        );
    }

    #[test]
    fn spilled_join_and_aggregate_match_in_memory_results() {
        use crate::storage::SpillConfig;
        // Large enough that keys repeat and floats accumulate in a
        // meaningful order; small spill threshold forces Grace
        // partitioning on both the join build and the group-by.
        let mut c = Catalog::new();
        let mut fact = Table::new(
            "fact",
            Schema::from_pairs(&[
                ("k", DataType::Int),
                ("x", DataType::Float),
                ("tag", DataType::Str),
            ])
            .unwrap(),
        );
        for i in 0..500i64 {
            fact.push_row(vec![
                Value::from(i % 23),
                if i % 17 == 0 {
                    Value::Null
                } else {
                    Value::from((i as f64) * 0.1)
                },
                Value::str(["a", "b", "c"][(i % 3) as usize]),
            ])
            .unwrap();
        }
        c.insert(fact);
        c.insert(
            Table::build("dim", &[("k2", DataType::Int), ("w", DataType::Float)])
                .rows((0..23).map(|i| vec![Value::from(i as i64), Value::from(i as f64 * 2.0)]))
                .finish()
                .unwrap(),
        );
        let plans = vec![
            Plan::scan("fact").join(Plan::scan("dim"), &[("k", "k2")]),
            Plan::scan("fact").aggregate(
                &["k", "tag"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::new("s", AggFunc::Sum, Expr::col("x")),
                ],
            ),
            Plan::scan("fact")
                .join(Plan::scan("dim"), &[("k", "k2")])
                .aggregate(
                    &["tag"],
                    vec![AggSpec::new("t", AggFunc::Sum, Expr::col("w"))],
                )
                .sort(vec![SortKey::asc(Expr::col("tag"))]),
        ];
        let dir = std::env::temp_dir().join(format!("mde_phys_spill_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut spilled = c.clone();
        spilled.set_spill_config(SpillConfig {
            threshold_rows: 16,
            partitions: 5,
            dir: Some(dir.clone()),
            page_size: 512,
            ..SpillConfig::default()
        });
        for p in &plans {
            let plain = c.query(p).unwrap();
            let out_of_core = spilled.query(p).unwrap();
            assert_eq!(plain, out_of_core, "spill diverged for {}", p.explain());
        }
        // Partition files are transient: all deleted once consumed.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepared_query_reuses_plan_and_detects_schema_drift() {
        let c = catalog();
        let plan = Plan::scan("sales")
            .filter(Expr::col("amount").gt(Expr::lit(5.0)))
            .aggregate(
                &[],
                vec![AggSpec::new("s", AggFunc::Sum, Expr::col("amount"))],
            );
        let prepared = PreparedQuery::prepare(&plan, &c).unwrap();
        assert_eq!(prepared.schema().names(), vec!["s"]);
        let a = prepared.execute(&c).unwrap();
        let b = prepared.execute(&c).unwrap();
        assert_eq!(a, b);

        // Same table name, different schema: execution fails loudly
        // instead of producing garbage.
        let mut drifted = Catalog::new();
        drifted.insert(
            Table::build("sales", &[("amount", DataType::Float)])
                .finish()
                .unwrap(),
        );
        let err = prepared.execute(&drifted).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        // A missing table is an UnknownTable error, as with direct queries.
        assert!(matches!(
            prepared.execute(&Catalog::new()).unwrap_err(),
            McdbError::UnknownTable { .. }
        ));
    }

    #[test]
    fn a_pin_cell_is_filled_once_and_only_by_a_fill_that_returns() {
        let cell = PinCell::default();
        let failed = cell.get_or_try_fill(|| Err(McdbError::invalid_plan("not this time")));
        assert!(failed.is_err());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cell.get_or_try_fill(|| panic!("mid-fill"));
        }));
        assert!(panicked.is_err() && cell.value.get().is_none());
        // The first fill that returns fills the cell; later reads never fill.
        let sales = catalog().get("sales").unwrap().batch();
        let filled = cell.get_or_try_fill(|| Ok(Chunk::from_batch(Arc::clone(&sales))));
        assert!(Arc::ptr_eq(&filled.unwrap().batch, &sales));
        let read = cell.get_or_try_fill(|| panic!("a filled cell fills again"));
        assert!(Arc::ptr_eq(&read.unwrap().batch, &sales));
    }

    #[test]
    fn pinning_wraps_maximal_invariant_subplans_and_changes_no_result() {
        fn pinned_inputs(op: &PhysOp, out: &mut Vec<String>) {
            match op {
                PhysOp::Pinned { input, .. } => out.push(input.result_name().to_string()),
                PhysOp::Scan { .. } | PhysOp::Values { .. } => {}
                PhysOp::Filter { input, .. }
                | PhysOp::Project { input, .. }
                | PhysOp::Aggregate { input, .. }
                | PhysOp::Sort { input, .. }
                | PhysOp::Limit { input, .. } => pinned_inputs(input, out),
                PhysOp::HashJoin { left, right, .. } => {
                    pinned_inputs(left, out);
                    pinned_inputs(right, out);
                }
            }
        }
        let c = catalog();
        let by_region = Plan::scan("sales")
            .filter(Expr::col("amount").gt(Expr::lit(5.0)))
            .join(Plan::scan("regions"), &[("region", "name")])
            .aggregate(
                &["region"],
                vec![AggSpec::new("t", AggFunc::Sum, Expr::col("tax"))],
            );
        let top = Plan::scan("sales")
            .sort(vec![SortKey::desc(Expr::col("amount"))])
            .limit(2);
        for (plan, volatile, want) in [
            // One side of the join is volatile: the other is pinned whole.
            (&by_region, &["regions"][..], vec!["filter"]),
            (&by_region, &["sales"][..], vec!["regions"]),
            // Nothing is: the root is. Everything is: nothing is pinned.
            (&by_region, &[][..], vec!["aggregate"]),
            (&by_region, &["sales", "regions"][..], vec![]),
            // A top-k stays one fused operator under its pin.
            (&top, &[][..], vec!["limit"]),
            (&top, &["sales"][..], vec![]),
        ] {
            let plain = PreparedQuery::prepare(plan, &c).unwrap();
            let mut pinned = plain.clone();
            pinned.pin_invariant(volatile);
            let mut found = Vec::new();
            pinned_inputs(&pinned.root, &mut found);
            assert_eq!(found, want, "{} holding {volatile:?}", plan.explain());
            for _ in 0..2 {
                assert_eq!(pinned.execute(&c).unwrap(), plain.execute(&c).unwrap());
            }
        }
    }

    #[test]
    fn one_pass_operators_match_reference_over_a_thousand_rows() {
        // Every operator kernel (literal filter fast path, generic filter,
        // Int join probe, group-by accumulation, sort keys, projection)
        // over more lanes than a null-mask word holds.
        let mut c = Catalog::new();
        let mut t = Table::new(
            "big",
            Schema::from_pairs(&[("k", DataType::Int), ("x", DataType::Float)]).unwrap(),
        );
        for i in 0..1000i64 {
            t.push_row(vec![
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::from(i % 7)
                },
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::from(i as f64 * 0.37)
                },
            ])
            .unwrap();
        }
        c.insert(t);
        c.insert(
            Table::build("dim", &[("k2", DataType::Int), ("w", DataType::Float)])
                .rows((0..7).map(|i| vec![Value::from(i), Value::from(i as f64 + 0.5)]))
                .finish()
                .unwrap(),
        );
        let plans = vec![
            Plan::scan("big").filter(Expr::col("x").gt(Expr::lit(100.0))),
            Plan::scan("big").filter(Expr::lit(3).le(Expr::col("k"))),
            Plan::scan("big").join(Plan::scan("dim"), &[("k", "k2")]),
            Plan::scan("big").aggregate(
                &["k"],
                vec![
                    AggSpec::count_star("n"),
                    AggSpec::new("s", AggFunc::Sum, Expr::col("x")),
                ],
            ),
            Plan::scan("big")
                .sort(vec![SortKey::desc(Expr::col("x"))])
                .limit(10),
            Plan::scan("big").project(&[("y", Expr::col("x").mul(Expr::lit(2.0)))]),
        ];
        for plan in &plans {
            assert_engines_agree(&c, plan);
        }
    }

    #[test]
    fn selection_vectors_compose_through_filter_sort_limit() {
        let c = catalog();
        let plan = Plan::scan("sales")
            .filter(Expr::col("amount").is_null().not())
            .sort(vec![SortKey::desc(Expr::col("amount"))])
            .limit(2);
        let t = c.query(&plan).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][2], Value::from(30.0));
        assert_eq!(t.rows()[1][2], Value::from(20.0));
        assert_eq!(t.name(), "limit");
    }

    /// One all-valid numeric key is ordered from its slice; the answer is
    /// the general comparator's (reached here by naming the key twice) and
    /// the reference interpreter's — ties in lane order, `-0.0` beside
    /// `0.0`, both directions, with and without a limit.
    #[test]
    fn a_single_numeric_sort_key_orders_as_the_general_comparator() {
        let mut c = Catalog::new();
        c.insert(
            Table::build("t", &[("i", DataType::Int), ("f", DataType::Float)])
                .rows((0..97i64).map(|r| {
                    let f = [0.0, -0.0, 2.5, -7.0, 2.5, 1e300][(r * 5 % 6) as usize];
                    vec![Value::from(r * 13 % 7 - 3), Value::from(f)]
                }))
                .finish()
                .unwrap(),
        );
        for key in ["i", "f"] {
            for asc in [true, false] {
                let k = || SortKey {
                    expr: Expr::col(key),
                    ascending: asc,
                };
                for limit in [None, Some(0), Some(1), Some(10), Some(200)] {
                    let capped = |p: Plan| limit.map_or(p.clone(), |n| p.limit(n));
                    let one = capped(Plan::scan("t").sort(vec![k()]));
                    let two = capped(Plan::scan("t").sort(vec![k(), k()]));
                    assert_engines_agree(&c, &one);
                    assert_eq!(
                        c.query(&one).unwrap().rows(),
                        c.query(&two).unwrap().rows(),
                        "{key} asc={asc} limit={limit:?}"
                    );
                }
            }
        }
    }
}
