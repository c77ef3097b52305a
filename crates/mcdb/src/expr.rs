//! Scalar expressions over rows.
//!
//! Expressions are built by name ([`Expr`]), then *bound* against a schema
//! ([`BoundExpr`]) which resolves column references to indices once. The
//! executor binds each operator's expressions a single time per plan, so
//! per-row evaluation never does string lookups — the same logical/physical
//! split a production engine uses.
//!
//! Semantics follow SQL: `NULL` propagates through arithmetic and
//! comparisons, and `AND`/`OR` use three-valued logic.

use crate::schema::Schema;
use crate::value::Value;
use crate::McdbError;
use std::collections::BTreeSet;
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition (numeric).
    Add,
    /// Subtraction (numeric).
    Sub,
    /// Multiplication (numeric).
    Mul,
    /// Division (numeric; always produces Float).
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Three-valued logical AND.
    And,
    /// Three-valued logical OR.
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Three-valued logical NOT.
    Not,
    /// `IS NULL` (never returns Null itself).
    IsNull,
}

/// Scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// Absolute value.
    Abs,
    /// Floor (returns Float).
    Floor,
    /// Ceiling (returns Float).
    Ceil,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
}

/// A logical (unbound) scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by name.
    Col(String),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Scalar function application.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Argument.
        arg: Box<Expr>,
    },
}

// The builder methods deliberately mirror SQL operator names (`add`,
// `eq`, `not`, ...) rather than implementing the std operator traits:
// `Expr` is a by-value AST builder, and the traits' by-ref semantics
// and `Output` plumbing would obscure the DSL.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    fn binary(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(rhs),
        }
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Add, rhs)
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Sub, rhs)
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Mul, rhs)
    }

    /// `self / rhs` (Float result).
    pub fn div(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Div, rhs)
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Eq, rhs)
    }

    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ne, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Lt, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Le, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Ge, rhs)
    }

    /// `self AND rhs` (three-valued).
    pub fn and(self, rhs: Expr) -> Expr {
        self.binary(BinOp::And, rhs)
    }

    /// `self OR rhs` (three-valued).
    pub fn or(self, rhs: Expr) -> Expr {
        self.binary(BinOp::Or, rhs)
    }

    /// `-self`.
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }

    /// `NOT self`.
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(self),
        }
    }

    /// Apply a scalar function.
    pub fn func(self, func: ScalarFunc) -> Expr {
        Expr::Func {
            func,
            arg: Box::new(self),
        }
    }

    /// The set of column names this expression references — used by the
    /// filter-pushdown planner to decide which side of a join a predicate
    /// belongs to.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Col(name) => {
                out.insert(name.clone());
            }
            Expr::Lit(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Unary { expr, .. } => expr.collect_columns(out),
            Expr::Func { arg, .. } => arg.collect_columns(out),
        }
    }

    /// Bind against a schema, resolving all column references.
    pub fn bind(&self, schema: &Schema) -> crate::Result<BoundExpr> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(schema.index_of(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(expr.bind(schema)?),
            },
            Expr::Func { func, arg } => BoundExpr::Func {
                func: *func,
                arg: Box::new(arg.bind(schema)?),
            },
        })
    }

    /// Bind and evaluate in one step (convenience for one-off evaluation).
    pub fn eval(&self, row: &[Value], schema: &Schema) -> crate::Result<Value> {
        self.bind(schema)?.eval(row)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(n) => write!(f, "{n}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op:?} {right})"),
            Expr::Unary { op, expr } => write!(f, "{op:?}({expr})"),
            Expr::Func { func, arg } => write!(f, "{func:?}({arg})"),
        }
    }
}

/// An expression with column references resolved to row indices.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column by index.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// Scalar function.
    Func {
        /// The function.
        func: ScalarFunc,
        /// Argument.
        arg: Box<BoundExpr>,
    },
}

impl BoundExpr {
    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> crate::Result<Value> {
        match self {
            BoundExpr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| McdbError::ArityMismatch {
                    context: "BoundExpr::eval".to_string(),
                    expected: i + 1,
                    found: row.len(),
                }),
            BoundExpr::Lit(v) => Ok(v.clone()),
            BoundExpr::Binary { op, left, right } => {
                eval_binary(*op, left.eval(row)?, right.eval(row)?)
            }
            BoundExpr::Unary { op, expr } => eval_unary(*op, expr.eval(row)?),
            BoundExpr::Func { func, arg } => eval_func(*func, arg.eval(row)?),
        }
    }

    /// Call `f` with the index of every column this expression reads.
    pub(crate) fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            BoundExpr::Col(i) => f(*i),
            BoundExpr::Lit(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            BoundExpr::Unary { expr, .. } => expr.for_each_column(f),
            BoundExpr::Func { arg, .. } => arg.for_each_column(f),
        }
    }

    /// Evaluate as a filter predicate: SQL `WHERE` keeps a row only when
    /// the predicate is `true` (not `false`, not `NULL`).
    pub fn eval_predicate(&self, row: &[Value]) -> crate::Result<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(McdbError::type_mismatch(
                "filter predicate",
                "Bool or NULL",
                format!("{other}"),
            )),
        }
    }
}

pub(crate) fn eval_binary(op: BinOp, l: Value, r: Value) -> crate::Result<Value> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => eval_arith(op, l, r),
        Eq | Ne | Lt | Le | Gt | Ge => eval_cmp(op, l, r),
        And | Or => eval_logic(op, l, r),
    }
}

fn eval_arith(op: BinOp, l: Value, r: Value) -> crate::Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Int op Int stays Int except Div, which always yields Float.
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        return Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null // SQL engines raise; we degrade to NULL and document it
                } else {
                    Value::Float(*a as f64 / *b as f64)
                }
            }
            _ => unreachable!("eval_arith only handles arithmetic ops"),
        });
    }
    let a = l
        .as_f64()
        .map_err(|_| McdbError::type_mismatch("arithmetic", "numeric", format!("{l}")))?;
    let b = r
        .as_f64()
        .map_err(|_| McdbError::type_mismatch("arithmetic", "numeric", format!("{r}")))?;
    let v = match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == 0.0 {
                return Ok(Value::Null);
            }
            a / b
        }
        _ => unreachable!("eval_arith only handles arithmetic ops"),
    };
    Ok(Value::Float(v))
}

fn eval_cmp(op: BinOp, l: Value, r: Value) -> crate::Result<Value> {
    let Some(ord) = l.sql_cmp(&r) else {
        // Null operand, or incomparable types: comparisons with Null yield
        // Null; genuinely incomparable types are an error.
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        return Err(McdbError::type_mismatch(
            "comparison",
            "comparable values".to_string(),
            format!("{l} vs {r}"),
        ));
    };
    use std::cmp::Ordering::*;
    let b = match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("eval_cmp only handles comparison ops"),
    };
    Ok(Value::Bool(b))
}

fn eval_logic(op: BinOp, l: Value, r: Value) -> crate::Result<Value> {
    let to_opt = |v: &Value| -> crate::Result<Option<bool>> {
        match v {
            Value::Bool(b) => Ok(Some(*b)),
            Value::Null => Ok(None),
            other => Err(McdbError::type_mismatch(
                "logical operator",
                "Bool or NULL",
                format!("{other}"),
            )),
        }
    };
    let (a, b) = (to_opt(&l)?, to_opt(&r)?);
    let out = match op {
        // Kleene logic.
        BinOp::And => match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinOp::Or => match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("eval_logic only handles logical ops"),
    };
    Ok(out.map_or(Value::Null, Value::Bool))
}

pub(crate) fn eval_unary(op: UnOp, v: Value) -> crate::Result<Value> {
    match op {
        UnOp::IsNull => Ok(Value::Bool(v.is_null())),
        UnOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(McdbError::type_mismatch(
                "negation",
                "numeric",
                format!("{other}"),
            )),
        },
        UnOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(McdbError::type_mismatch(
                "NOT",
                "Bool or NULL",
                format!("{other}"),
            )),
        },
    }
}

pub(crate) fn eval_func(func: ScalarFunc, v: Value) -> crate::Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    if func == ScalarFunc::Abs {
        // Abs preserves Int-ness.
        if let Value::Int(i) = v {
            return Ok(Value::Int(i.abs()));
        }
    }
    let x = v
        .as_f64()
        .map_err(|_| McdbError::type_mismatch(format!("{func:?}"), "numeric", format!("{v}")))?;
    let out = match func {
        ScalarFunc::Abs => x.abs(),
        ScalarFunc::Floor => x.floor(),
        ScalarFunc::Ceil => x.ceil(),
        ScalarFunc::Sqrt => {
            if x < 0.0 {
                return Ok(Value::Null);
            }
            x.sqrt()
        }
        ScalarFunc::Exp => x.exp(),
        ScalarFunc::Ln => {
            if x <= 0.0 {
                return Ok(Value::Null);
            }
            x.ln()
        }
    };
    Ok(Value::Float(out))
}

// ---------------------------------------------------------------------------
// Vectorized evaluation
// ---------------------------------------------------------------------------

use crate::query::batch::Batch;
use crate::query::column::{ColumnVec, NullMask};
use std::borrow::Cow;

/// Intermediate result of evaluating one expression node over a batch:
/// either a full column (borrowed straight from the batch when no selection
/// vector is active, owned when computed) or a single constant that has not
/// been broadcast yet. Keeping literals as constants lets `col ⊕ const`
/// kernels avoid materializing the constant side at all.
enum BatchVal<'a> {
    Col(Cow<'a, ColumnVec>),
    Const(Value),
}

impl BatchVal<'_> {
    fn value(&self, i: usize) -> Value {
        match self {
            BatchVal::Col(c) => c.value(i),
            BatchVal::Const(v) => v.clone(),
        }
    }

    /// Whether every lane is guaranteed Null (a Null constant or an
    /// untyped all-null column).
    fn is_all_null(&self) -> bool {
        match self {
            BatchVal::Const(v) => v.is_null(),
            BatchVal::Col(c) => matches!(c.as_ref(), ColumnVec::AllNull { .. }),
        }
    }
}

/// Lane accessor over a numeric operand (Int/Float column or constant).
enum NumAcc<'a> {
    I(&'a [i64], &'a NullMask),
    F(&'a [f64], &'a NullMask),
    CI(i64),
    CF(f64),
}

impl NumAcc<'_> {
    fn is_int(&self) -> bool {
        matches!(self, NumAcc::I(..) | NumAcc::CI(_))
    }

    /// `(value, is_null)` as i64 — only meaningful when [`Self::is_int`].
    #[inline]
    fn get_i64(&self, i: usize) -> (i64, bool) {
        match self {
            NumAcc::I(d, n) => (d[i], n.is_null(i)),
            NumAcc::CI(x) => (*x, false),
            _ => unreachable!("get_i64 on a float accessor"),
        }
    }

    /// `(value, is_null)` widened to f64.
    #[inline]
    fn get_f64(&self, i: usize) -> (f64, bool) {
        match self {
            NumAcc::I(d, n) => (d[i] as f64, n.is_null(i)),
            NumAcc::F(d, n) => (d[i], n.is_null(i)),
            NumAcc::CI(x) => (*x as f64, false),
            NumAcc::CF(x) => (*x, false),
        }
    }

    /// The lane as a [`Value`] with its original type (for error messages
    /// that must match the row-at-a-time engine byte for byte).
    fn value(&self, i: usize) -> Value {
        match self {
            NumAcc::I(d, n) => {
                if n.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(d[i])
                }
            }
            NumAcc::F(d, n) => {
                if n.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(d[i])
                }
            }
            NumAcc::CI(x) => Value::Int(*x),
            NumAcc::CF(x) => Value::Float(*x),
        }
    }
}

fn num_acc<'a>(v: &'a BatchVal<'a>) -> Option<NumAcc<'a>> {
    match v {
        BatchVal::Col(c) => match c.as_ref() {
            ColumnVec::Int { data, nulls } => Some(NumAcc::I(data, nulls)),
            ColumnVec::Float { data, nulls } => Some(NumAcc::F(data, nulls)),
            _ => None,
        },
        BatchVal::Const(Value::Int(x)) => Some(NumAcc::CI(*x)),
        BatchVal::Const(Value::Float(x)) => Some(NumAcc::CF(*x)),
        _ => None,
    }
}

/// Lane accessor over a string operand.
enum StrAcc<'a> {
    S(&'a [std::sync::Arc<str>], &'a NullMask),
    C(&'a std::sync::Arc<str>),
}

impl StrAcc<'_> {
    /// `(value, is_null)`; the payload is only valid when not null.
    #[inline]
    fn get(&self, i: usize) -> (&str, bool) {
        match self {
            StrAcc::S(d, n) => (&d[i], n.is_null(i)),
            StrAcc::C(s) => (s, false),
        }
    }
}

fn str_acc<'a>(v: &'a BatchVal<'a>) -> Option<StrAcc<'a>> {
    match v {
        BatchVal::Col(c) => match c.as_ref() {
            ColumnVec::Str { data, nulls } => Some(StrAcc::S(data, nulls)),
            _ => None,
        },
        BatchVal::Const(Value::Str(s)) => Some(StrAcc::C(s)),
        _ => None,
    }
}

/// Lane accessor over a Kleene boolean operand (`Some(b)` or null).
enum BoolAcc<'a> {
    B(&'a [bool], &'a NullMask),
    C(Option<bool>),
    AllNull,
}

impl BoolAcc<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<bool> {
        match self {
            BoolAcc::B(d, n) => {
                if n.is_null(i) {
                    None
                } else {
                    Some(d[i])
                }
            }
            BoolAcc::C(b) => *b,
            BoolAcc::AllNull => None,
        }
    }
}

fn bool_acc<'a>(v: &'a BatchVal<'a>) -> Option<BoolAcc<'a>> {
    match v {
        BatchVal::Col(c) => match c.as_ref() {
            ColumnVec::Bool { data, nulls } => Some(BoolAcc::B(data, nulls)),
            ColumnVec::AllNull { .. } => Some(BoolAcc::AllNull),
            _ => None,
        },
        BatchVal::Const(Value::Bool(b)) => Some(BoolAcc::C(Some(*b))),
        BatchVal::Const(Value::Null) => Some(BoolAcc::C(None)),
        _ => None,
    }
}

#[inline]
fn cmp_to_bool(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => unreachable!("cmp_to_bool only handles comparison ops"),
    }
}

/// Per-lane fallback through the scalar evaluator — used for operand type
/// combinations with no dedicated kernel so error behavior is identical to
/// the row engine by construction.
fn map2_scalar(
    op: BinOp,
    l: &BatchVal<'_>,
    r: &BatchVal<'_>,
    lanes: usize,
) -> crate::Result<ColumnVec> {
    let mut out = Vec::with_capacity(lanes);
    for i in 0..lanes {
        out.push(eval_binary(op, l.value(i), r.value(i))?);
    }
    ColumnVec::from_values(out)
}

fn arith_batch(
    op: BinOp,
    l: &BatchVal<'_>,
    r: &BatchVal<'_>,
    lanes: usize,
) -> crate::Result<ColumnVec> {
    if l.is_all_null() || r.is_all_null() {
        return Ok(ColumnVec::AllNull { len: lanes });
    }
    let (Some(la), Some(ra)) = (num_acc(l), num_acc(r)) else {
        return map2_scalar(op, l, r, lanes);
    };
    if la.is_int() && ra.is_int() && op != BinOp::Div {
        let mut data = vec![0i64; lanes];
        let mut nulls = NullMask::all_valid(lanes);
        for (i, slot) in data.iter_mut().enumerate() {
            let (a, an) = la.get_i64(i);
            let (b, bn) = ra.get_i64(i);
            if an || bn {
                nulls.set_null(i);
                continue;
            }
            *slot = match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                _ => unreachable!("int arith kernel"),
            };
        }
        return Ok(ColumnVec::Int { data, nulls });
    }
    let mut data = vec![0.0f64; lanes];
    let mut nulls = NullMask::all_valid(lanes);
    for (i, slot) in data.iter_mut().enumerate() {
        let (a, an) = la.get_f64(i);
        let (b, bn) = ra.get_f64(i);
        if an || bn {
            nulls.set_null(i);
            continue;
        }
        match op {
            BinOp::Add => *slot = a + b,
            BinOp::Sub => *slot = a - b,
            BinOp::Mul => *slot = a * b,
            BinOp::Div => {
                if b == 0.0 {
                    nulls.set_null(i);
                } else {
                    *slot = a / b;
                }
            }
            _ => unreachable!("float arith kernel"),
        }
    }
    Ok(ColumnVec::Float { data, nulls })
}

fn cmp_batch(
    op: BinOp,
    l: &BatchVal<'_>,
    r: &BatchVal<'_>,
    lanes: usize,
) -> crate::Result<ColumnVec> {
    if l.is_all_null() || r.is_all_null() {
        return Ok(ColumnVec::AllNull { len: lanes });
    }
    if let (Some(la), Some(ra)) = (num_acc(l), num_acc(r)) {
        let mut data = vec![false; lanes];
        let mut nulls = NullMask::all_valid(lanes);
        if la.is_int() && ra.is_int() {
            // Exact i64 ordering, matching Value::sql_cmp for Int × Int.
            for (i, slot) in data.iter_mut().enumerate() {
                let (a, an) = la.get_i64(i);
                let (b, bn) = ra.get_i64(i);
                if an || bn {
                    nulls.set_null(i);
                    continue;
                }
                *slot = cmp_to_bool(op, a.cmp(&b));
            }
        } else {
            for (i, slot) in data.iter_mut().enumerate() {
                let (a, an) = la.get_f64(i);
                let (b, bn) = ra.get_f64(i);
                if an || bn {
                    nulls.set_null(i);
                    continue;
                }
                match a.partial_cmp(&b) {
                    Some(ord) => *slot = cmp_to_bool(op, ord),
                    // NaN: same error the scalar path raises.
                    None => {
                        return Err(McdbError::type_mismatch(
                            "comparison",
                            "comparable values".to_string(),
                            format!("{} vs {}", la.value(i), ra.value(i)),
                        ))
                    }
                }
            }
        }
        return Ok(ColumnVec::Bool { data, nulls });
    }
    if let (Some(la), Some(ra)) = (str_acc(l), str_acc(r)) {
        let mut data = vec![false; lanes];
        let mut nulls = NullMask::all_valid(lanes);
        for (i, slot) in data.iter_mut().enumerate() {
            let (a, an) = la.get(i);
            let (b, bn) = ra.get(i);
            if an || bn {
                nulls.set_null(i);
                continue;
            }
            *slot = cmp_to_bool(op, a.cmp(b));
        }
        return Ok(ColumnVec::Bool { data, nulls });
    }
    map2_scalar(op, l, r, lanes)
}

fn logic_batch(
    op: BinOp,
    l: &BatchVal<'_>,
    r: &BatchVal<'_>,
    lanes: usize,
) -> crate::Result<ColumnVec> {
    let (Some(la), Some(ra)) = (bool_acc(l), bool_acc(r)) else {
        return map2_scalar(op, l, r, lanes);
    };
    let mut data = vec![false; lanes];
    let mut nulls = NullMask::all_valid(lanes);
    for (i, slot) in data.iter_mut().enumerate() {
        let (a, b) = (la.get(i), ra.get(i));
        let out = match op {
            BinOp::And => match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            _ => unreachable!("logic kernel"),
        };
        match out {
            Some(v) => *slot = v,
            None => nulls.set_null(i),
        }
    }
    Ok(ColumnVec::Bool { data, nulls })
}

fn unary_batch(op: UnOp, v: &BatchVal<'_>, lanes: usize) -> crate::Result<ColumnVec> {
    match op {
        UnOp::IsNull => {
            let data = match v {
                BatchVal::Const(c) => vec![c.is_null(); lanes],
                BatchVal::Col(c) => (0..lanes).map(|i| c.is_null(i)).collect(),
            };
            Ok(ColumnVec::Bool {
                data,
                nulls: NullMask::all_valid(lanes),
            })
        }
        UnOp::Neg => match v {
            BatchVal::Col(c) => match c.as_ref() {
                ColumnVec::Int { data, nulls } => Ok(ColumnVec::Int {
                    data: data
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| if nulls.is_null(i) { 0 } else { -x })
                        .collect(),
                    nulls: nulls.clone(),
                }),
                ColumnVec::Float { data, nulls } => Ok(ColumnVec::Float {
                    data: data.iter().map(|x| -x).collect(),
                    nulls: nulls.clone(),
                }),
                ColumnVec::AllNull { .. } => Ok(ColumnVec::AllNull { len: lanes }),
                _ => map1_scalar(op, v, lanes),
            },
            BatchVal::Const(_) => map1_scalar(op, v, lanes),
        },
        UnOp::Not => match bool_acc(v) {
            Some(acc) => {
                let mut data = vec![false; lanes];
                let mut nulls = NullMask::all_valid(lanes);
                for (i, slot) in data.iter_mut().enumerate() {
                    match acc.get(i) {
                        Some(b) => *slot = !b,
                        None => nulls.set_null(i),
                    }
                }
                Ok(ColumnVec::Bool { data, nulls })
            }
            None => map1_scalar(op, v, lanes),
        },
    }
}

fn map1_scalar(op: UnOp, v: &BatchVal<'_>, lanes: usize) -> crate::Result<ColumnVec> {
    let mut out = Vec::with_capacity(lanes);
    for i in 0..lanes {
        out.push(eval_unary(op, v.value(i))?);
    }
    ColumnVec::from_values(out)
}

fn func_batch(func: ScalarFunc, v: &BatchVal<'_>, lanes: usize) -> crate::Result<ColumnVec> {
    if v.is_all_null() {
        return Ok(ColumnVec::AllNull { len: lanes });
    }
    if func == ScalarFunc::Abs {
        if let BatchVal::Col(c) = v {
            // Abs preserves Int-ness, matching the scalar path.
            if let ColumnVec::Int { data, nulls } = c.as_ref() {
                return Ok(ColumnVec::Int {
                    data: data
                        .iter()
                        .enumerate()
                        .map(|(i, &x)| if nulls.is_null(i) { 0 } else { x.abs() })
                        .collect(),
                    nulls: nulls.clone(),
                });
            }
        }
        if let BatchVal::Const(Value::Int(x)) = v {
            return Ok(ColumnVec::broadcast(&Value::Int(x.abs()), lanes));
        }
    }
    let Some(acc) = num_acc(v) else {
        let mut out = Vec::with_capacity(lanes);
        for i in 0..lanes {
            out.push(eval_func(func, v.value(i))?);
        }
        return ColumnVec::from_values(out);
    };
    let mut data = vec![0.0f64; lanes];
    let mut nulls = NullMask::all_valid(lanes);
    for (i, slot) in data.iter_mut().enumerate() {
        let (x, is_null) = acc.get_f64(i);
        if is_null {
            nulls.set_null(i);
            continue;
        }
        match func {
            ScalarFunc::Abs => *slot = x.abs(),
            ScalarFunc::Floor => *slot = x.floor(),
            ScalarFunc::Ceil => *slot = x.ceil(),
            ScalarFunc::Sqrt => {
                if x < 0.0 {
                    nulls.set_null(i);
                } else {
                    *slot = x.sqrt();
                }
            }
            ScalarFunc::Exp => *slot = x.exp(),
            ScalarFunc::Ln => {
                if x <= 0.0 {
                    nulls.set_null(i);
                } else {
                    *slot = x.ln();
                }
            }
        }
    }
    Ok(ColumnVec::Float { data, nulls })
}

impl BoundExpr {
    /// Evaluate over a whole batch, producing one column.
    ///
    /// `sel` is an optional selection vector: only the listed row indices
    /// are evaluated (in that order), and the result has one lane per
    /// selected row. Semantics — null propagation, Kleene logic without
    /// short-circuiting, wrapping integer arithmetic, division-by-zero and
    /// function-domain Nulls, and every error message — are identical to
    /// calling [`BoundExpr::eval`] on each selected row; typed kernels
    /// cover the common operand shapes and anything else falls back to the
    /// scalar evaluator per lane.
    pub fn eval_batch(&self, batch: &Batch, sel: Option<&[u32]>) -> crate::Result<ColumnVec> {
        let lanes = sel.map_or(batch.len(), |s| s.len());
        if lanes == 0 {
            // The row engine never evaluates expressions over zero rows, so
            // neither do we (avoids raising type errors legacy cannot hit).
            return Ok(ColumnVec::AllNull { len: 0 });
        }
        match self.eval_batch_inner(batch, sel, lanes)? {
            BatchVal::Col(c) => Ok(c.into_owned()),
            BatchVal::Const(v) => Ok(ColumnVec::broadcast(&v, lanes)),
        }
    }

    fn eval_batch_inner<'a>(
        &'a self,
        batch: &'a Batch,
        sel: Option<&[u32]>,
        lanes: usize,
    ) -> crate::Result<BatchVal<'a>> {
        Ok(match self {
            BoundExpr::Col(i) => {
                if *i >= batch.schema().len() {
                    return Err(McdbError::ArityMismatch {
                        context: "BoundExpr::eval".to_string(),
                        expected: i + 1,
                        found: batch.schema().len(),
                    });
                }
                match sel {
                    None => BatchVal::Col(Cow::Borrowed(batch.column(*i))),
                    Some(s) => BatchVal::Col(Cow::Owned(batch.column(*i).gather(s))),
                }
            }
            BoundExpr::Lit(v) => BatchVal::Const(v.clone()),
            BoundExpr::Binary { op, left, right } => {
                let l = left.eval_batch_inner(batch, sel, lanes)?;
                let r = right.eval_batch_inner(batch, sel, lanes)?;
                if let (BatchVal::Const(a), BatchVal::Const(b)) = (&l, &r) {
                    // Constant × constant: evaluate once (lanes > 0, so the
                    // scalar path would evaluate it at least once too).
                    return Ok(BatchVal::Const(eval_binary(*op, a.clone(), b.clone())?));
                }
                use BinOp::*;
                let col = match op {
                    Add | Sub | Mul | Div => arith_batch(*op, &l, &r, lanes)?,
                    Eq | Ne | Lt | Le | Gt | Ge => cmp_batch(*op, &l, &r, lanes)?,
                    And | Or => logic_batch(*op, &l, &r, lanes)?,
                };
                BatchVal::Col(Cow::Owned(col))
            }
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval_batch_inner(batch, sel, lanes)?;
                if let BatchVal::Const(c) = &v {
                    return Ok(BatchVal::Const(eval_unary(*op, c.clone())?));
                }
                BatchVal::Col(Cow::Owned(unary_batch(*op, &v, lanes)?))
            }
            BoundExpr::Func { func, arg } => {
                let v = arg.eval_batch_inner(batch, sel, lanes)?;
                if let BatchVal::Const(c) = &v {
                    return Ok(BatchVal::Const(eval_func(*func, c.clone())?));
                }
                BatchVal::Col(Cow::Owned(func_batch(*func, &v, lanes)?))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn schema() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("s", DataType::Str),
            ("flag", DataType::Bool),
        ])
        .unwrap()
    }

    fn row() -> Vec<Value> {
        vec![
            Value::from(3),
            Value::from(1.5),
            Value::from("hi"),
            Value::from(true),
        ]
    }

    #[test]
    fn arithmetic_int_semantics() {
        let s = schema();
        let e = Expr::col("a").add(Expr::lit(2));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Int(5));
        let e = Expr::col("a").mul(Expr::lit(4));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Int(12));
        // Division always floats.
        let e = Expr::col("a").div(Expr::lit(2));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Float(1.5));
    }

    #[test]
    fn arithmetic_mixed_promotes() {
        let s = schema();
        let e = Expr::col("a").add(Expr::col("b"));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Float(4.5));
    }

    #[test]
    fn division_by_zero_yields_null() {
        let s = schema();
        let e = Expr::col("a").div(Expr::lit(0));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Null);
        let e = Expr::col("b").div(Expr::lit(0.0));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        let s = schema();
        let e = Expr::col("a").add(Expr::lit(Value::Null));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Null);
        let e = Expr::col("a").lt(Expr::lit(Value::Null));
        assert_eq!(e.eval(&row(), &s).unwrap(), Value::Null);
    }

    #[test]
    fn comparisons() {
        let s = schema();
        assert_eq!(
            Expr::col("a").ge(Expr::lit(3)).eval(&row(), &s).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::col("s").eq(Expr::lit("hi")).eval(&row(), &s).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::col("a").lt(Expr::col("b")).eval(&row(), &s).unwrap(),
            Value::Bool(false)
        );
        // Incomparable non-null types are an error.
        assert!(Expr::col("s").lt(Expr::lit(1)).eval(&row(), &s).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let s = schema();
        let null = Expr::lit(Value::Null);
        let t = Expr::lit(true);
        let f = Expr::lit(false);
        // false AND NULL = false; true AND NULL = NULL.
        assert_eq!(
            f.clone().and(null.clone()).eval(&row(), &s).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            t.clone().and(null.clone()).eval(&row(), &s).unwrap(),
            Value::Null
        );
        // true OR NULL = true; false OR NULL = NULL.
        assert_eq!(
            t.clone().or(null.clone()).eval(&row(), &s).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            f.clone().or(null.clone()).eval(&row(), &s).unwrap(),
            Value::Null
        );
        // NOT NULL = NULL.
        assert_eq!(null.clone().not().eval(&row(), &s).unwrap(), Value::Null);
    }

    #[test]
    fn predicate_semantics_null_is_false() {
        let s = schema();
        let bound = Expr::lit(Value::Null).bind(&s).unwrap();
        assert!(!bound.eval_predicate(&row()).unwrap());
        let bound = Expr::lit(true).bind(&s).unwrap();
        assert!(bound.eval_predicate(&row()).unwrap());
        let bound = Expr::lit(1).bind(&s).unwrap();
        assert!(bound.eval_predicate(&row()).is_err());
    }

    #[test]
    fn unary_and_functions() {
        let s = schema();
        assert_eq!(
            Expr::col("a").neg().eval(&row(), &s).unwrap(),
            Value::Int(-3)
        );
        assert_eq!(
            Expr::col("flag").not().eval(&row(), &s).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::col("a").is_null().eval(&row(), &s).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::lit(Value::Null).is_null().eval(&row(), &s).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::lit(-4)
                .func(ScalarFunc::Abs)
                .eval(&row(), &s)
                .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            Expr::lit(2.25)
                .func(ScalarFunc::Sqrt)
                .eval(&row(), &s)
                .unwrap(),
            Value::Float(1.5)
        );
        // Domain errors degrade to NULL.
        assert_eq!(
            Expr::lit(-1.0)
                .func(ScalarFunc::Sqrt)
                .eval(&row(), &s)
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            Expr::lit(0.0)
                .func(ScalarFunc::Ln)
                .eval(&row(), &s)
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn referenced_columns() {
        let e = Expr::col("x")
            .add(Expr::col("y").mul(Expr::lit(2)))
            .lt(Expr::col("x"));
        let cols = e.referenced_columns();
        assert_eq!(cols.len(), 2);
        assert!(cols.contains("x") && cols.contains("y"));
    }

    #[test]
    fn binding_unknown_column_fails() {
        let s = schema();
        assert!(Expr::col("zzz").bind(&s).is_err());
    }

    #[test]
    fn bound_expr_out_of_range_row() {
        let s = schema();
        let b = Expr::col("flag").bind(&s).unwrap();
        assert!(b.eval(&[Value::from(1)]).is_err());
    }
}
