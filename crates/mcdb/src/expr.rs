//! Scalar expressions over rows.
//!
//! Expressions are built by name ([`Expr`]), then *bound* against a schema
//! (`BoundExpr`) which resolves column references to indices once. The
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
    pub(crate) fn referenced_columns(&self) -> BTreeSet<String> {
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
    pub(crate) fn bind(&self, schema: &Schema) -> crate::Result<BoundExpr> {
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
    #[cfg(test)]
    fn eval(&self, row: &[Value], schema: &Schema) -> crate::Result<Value> {
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
pub(crate) enum BoundExpr {
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
    pub(crate) fn eval(&self, row: &[Value]) -> crate::Result<Value> {
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
    pub(crate) fn eval_predicate(&self, row: &[Value]) -> crate::Result<bool> {
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
//
// Every binary kernel resolves the *shape* of its operands — column or
// constant, `i64` or `f64`, dictionary codes or a literal — once, outside
// the loop, and then runs slice loops the compiler can vectorise: no
// accessor enum is matched per lane on the numeric column × column and
// column × constant shapes. Null masks combine a word at a time, and the
// whole batch borrows the batch column's data and null mask instead of
// gathering a copy.

use crate::query::batch::Batch;
use crate::query::column::{ColumnVec, NullMask, StrDict};
use crate::query::kernels::{worth_indexing, Lanes};
use std::borrow::Cow;
use std::sync::Arc;

/// Intermediate result of evaluating one expression node over `lanes`
/// lanes: a column, or a single constant that has not been broadcast yet.
/// Keeping literals as constants lets `col ⊕ const` kernels avoid
/// materializing the constant side at all.
enum BatchVal<'a> {
    /// Lane `i` is row `i` of the column: a batch column borrowed in place,
    /// or a computed or gathered one.
    Col(Cow<'a, ColumnVec>),
    Const(Value),
}

impl BatchVal<'_> {
    fn computed(col: ColumnVec) -> BatchVal<'static> {
        BatchVal::Col(Cow::Owned(col))
    }

    /// The column behind a non-constant operand.
    fn column(&self) -> Option<&ColumnVec> {
        match self {
            BatchVal::Col(c) => Some(c),
            BatchVal::Const(_) => None,
        }
    }

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
            BatchVal::Col(c) => matches!(c.as_ref(), ColumnVec::AllNull { .. }),
            BatchVal::Const(v) => v.is_null(),
        }
    }
}

/// One side of a binary kernel over values of type `T`: the lanes of a
/// column with their null mask, or a constant.
enum Operand<'a, T: Clone> {
    Col(Cow<'a, [T]>, &'a NullMask),
    Const(T),
}

impl<T: Copy> Operand<'_, T> {
    #[inline]
    fn get(&self, i: usize) -> T {
        match self {
            Operand::Col(d, _) => d[i],
            Operand::Const(c) => *c,
        }
    }

    fn is_null(&self, i: usize) -> bool {
        match self {
            Operand::Col(_, n) => n.is_null(i),
            Operand::Const(_) => false,
        }
    }
}

/// The null lanes of `a ⊕ b`: null where either operand is.
fn either_null<T: Clone, U: Clone>(
    a: &Operand<'_, T>,
    b: &Operand<'_, U>,
    lanes: usize,
) -> NullMask {
    match (a, b) {
        (Operand::Col(_, x), Operand::Col(_, y)) => x.union(y),
        (Operand::Col(_, x), Operand::Const(_)) | (Operand::Const(_), Operand::Col(_, x)) => {
            (*x).clone()
        }
        (Operand::Const(_), Operand::Const(_)) => NullMask::all_valid(lanes),
    }
}

/// `f` over the lanes of two operands, the operand shapes matched once:
/// each arm is a loop over slices.
#[inline(always)]
fn map2<T: Copy, U>(
    a: &Operand<'_, T>,
    b: &Operand<'_, T>,
    lanes: usize,
    f: impl Fn(T, T) -> U,
) -> Vec<U> {
    match (a, b) {
        (Operand::Col(x, _), Operand::Col(y, _)) => {
            x.iter().zip(y.iter()).map(|(&x, &y)| f(x, y)).collect()
        }
        (Operand::Col(x, _), Operand::Const(c)) => x.iter().map(|&x| f(x, *c)).collect(),
        (Operand::Const(c), Operand::Col(y, _)) => y.iter().map(|&y| f(*c, y)).collect(),
        (Operand::Const(c), Operand::Const(d)) => (0..lanes).map(|_| f(*c, *d)).collect(),
    }
}

/// A numeric operand (Int/Float column or constant).
enum Num<'a> {
    I(Operand<'a, i64>),
    F(Operand<'a, f64>),
}

impl<'a> Num<'a> {
    /// Widened to `f64` — an `Int` column converts in one pass.
    fn into_f64(self) -> Operand<'a, f64> {
        match self {
            Num::F(f) => f,
            Num::I(Operand::Const(c)) => Operand::Const(c as f64),
            Num::I(Operand::Col(d, n)) => {
                Operand::Col(Cow::Owned(d.iter().map(|&x| x as f64).collect()), n)
            }
        }
    }
}

fn num_operand<'a>(v: &'a BatchVal<'a>, lanes: usize) -> Option<Num<'a>> {
    match v {
        BatchVal::Const(Value::Int(x)) => Some(Num::I(Operand::Const(*x))),
        BatchVal::Const(Value::Float(x)) => Some(Num::F(Operand::Const(*x))),
        BatchVal::Const(_) => None,
        _ => {
            let col = v.column()?;
            debug_assert_eq!(col.len(), lanes, "one operand row per lane");
            match col {
                ColumnVec::Int { data, nulls } => {
                    Some(Num::I(Operand::Col(Cow::Borrowed(&data[..]), nulls)))
                }
                ColumnVec::Float { data, nulls } => {
                    Some(Num::F(Operand::Col(Cow::Borrowed(&data[..]), nulls)))
                }
                _ => None,
            }
        }
    }
}

/// A string operand: dictionary codes with their dictionary, or a literal.
enum StrOperand<'a> {
    Col(&'a [u32], &'a StrDict, &'a NullMask),
    Const(&'a Arc<str>),
}

impl StrOperand<'_> {
    #[inline]
    fn get(&self, i: usize) -> &str {
        match self {
            StrOperand::Col(codes, dict, _) => dict.value(codes[i]),
            StrOperand::Const(s) => s,
        }
    }

    fn is_null(&self, i: usize) -> bool {
        match self {
            StrOperand::Col(_, _, n) => n.is_null(i),
            StrOperand::Const(_) => false,
        }
    }
}

fn str_operand<'a>(v: &'a BatchVal<'a>, lanes: usize) -> Option<StrOperand<'a>> {
    match v {
        BatchVal::Const(Value::Str(s)) => Some(StrOperand::Const(s)),
        BatchVal::Const(_) => None,
        _ => match v.column()? {
            ColumnVec::Str { codes, dict, nulls } => {
                debug_assert_eq!(nulls.len(), lanes, "one operand row per lane");
                Some(StrOperand::Col(codes, dict, nulls))
            }
            _ => None,
        },
    }
}

/// A Kleene boolean operand (`Some(b)` or null per lane).
enum BoolOperand<'a> {
    Col(&'a [bool], &'a NullMask),
    Const(Option<bool>),
}

impl BoolOperand<'_> {
    #[inline]
    fn get(&self, i: usize) -> Option<bool> {
        match self {
            BoolOperand::Col(d, n) => (!n.is_null(i)).then(|| d[i]),
            BoolOperand::Const(b) => *b,
        }
    }
}

fn bool_operand<'a>(v: &'a BatchVal<'a>, lanes: usize) -> Option<BoolOperand<'a>> {
    match v {
        BatchVal::Const(Value::Bool(b)) => Some(BoolOperand::Const(Some(*b))),
        BatchVal::Const(Value::Null) => Some(BoolOperand::Const(None)),
        BatchVal::Const(_) => None,
        _ => match v.column()? {
            ColumnVec::Bool { data, nulls } => {
                debug_assert_eq!(nulls.len(), lanes, "one operand row per lane");
                Some(BoolOperand::Col(data, nulls))
            }
            ColumnVec::AllNull { .. } => Some(BoolOperand::Const(None)),
            _ => None,
        },
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

/// `a op b` per lane by the type's own operators, `op` matched outside the
/// loops. (For floats this is the IEEE comparison; the caller has ruled NaN
/// out.)
fn cmp_map<T: Copy + PartialOrd>(
    op: BinOp,
    a: &Operand<'_, T>,
    b: &Operand<'_, T>,
    lanes: usize,
) -> Vec<bool> {
    match op {
        BinOp::Eq => map2(a, b, lanes, |x, y| x == y),
        BinOp::Ne => map2(a, b, lanes, |x, y| x != y),
        BinOp::Lt => map2(a, b, lanes, |x, y| x < y),
        BinOp::Le => map2(a, b, lanes, |x, y| x <= y),
        BinOp::Gt => map2(a, b, lanes, |x, y| x > y),
        BinOp::Ge => map2(a, b, lanes, |x, y| x >= y),
        _ => unreachable!("cmp_map only handles comparison ops"),
    }
}

/// A `Bool` result column: `data` with the placeholder `false` restored at
/// the null lanes.
fn bool_column(mut data: Vec<bool>, nulls: NullMask) -> ColumnVec {
    nulls.for_each_null(|i| data[i] = false);
    ColumnVec::Bool { data, nulls }
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
    let (Some(la), Some(ra)) = (num_operand(l, lanes), num_operand(r, lanes)) else {
        return map2_scalar(op, l, r, lanes);
    };
    let (a, b) = match (la, ra) {
        (Num::I(a), Num::I(b)) if op != BinOp::Div => {
            let mut data = match op {
                BinOp::Add => map2(&a, &b, lanes, i64::wrapping_add),
                BinOp::Sub => map2(&a, &b, lanes, i64::wrapping_sub),
                BinOp::Mul => map2(&a, &b, lanes, i64::wrapping_mul),
                _ => unreachable!("int arith kernel"),
            };
            let nulls = either_null(&a, &b, lanes);
            nulls.for_each_null(|i| data[i] = 0);
            return Ok(ColumnVec::Int { data, nulls });
        }
        (la, ra) => (la.into_f64(), ra.into_f64()),
    };
    let mut nulls = either_null(&a, &b, lanes);
    let mut data = match op {
        BinOp::Add => map2(&a, &b, lanes, |x, y| x + y),
        BinOp::Sub => map2(&a, &b, lanes, |x, y| x - y),
        BinOp::Mul => map2(&a, &b, lanes, |x, y| x * y),
        BinOp::Div => {
            // Division by zero degrades to NULL.
            let mut zero = vec![0u64; lanes.div_ceil(64)];
            for i in (0..lanes).filter(|&i| b.get(i) == 0.0) {
                zero[i / 64] |= 1 << (i % 64);
            }
            nulls.set_null_words(&zero);
            map2(&a, &b, lanes, |x, y| x / y)
        }
        _ => unreachable!("float arith kernel"),
    };
    nulls.for_each_null(|i| data[i] = 0.0);
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
    if let (Some(la), Some(ra)) = (num_operand(l, lanes), num_operand(r, lanes)) {
        let (a, b) = match (la, ra) {
            // Exact i64 ordering, matching Value::sql_cmp for Int × Int.
            (Num::I(a), Num::I(b)) => {
                let nulls = either_null(&a, &b, lanes);
                return Ok(bool_column(cmp_map(op, &a, &b, lanes), nulls));
            }
            (la, ra) => (la.into_f64(), ra.into_f64()),
        };
        let nulls = either_null(&a, &b, lanes);
        let has_nan = |x: &Operand<'_, f64>| match x {
            Operand::Col(d, _) => d.iter().fold(false, |any, v| any | v.is_nan()),
            Operand::Const(c) => c.is_nan(),
        };
        if has_nan(&a) || has_nan(&b) {
            // NaN: the error the scalar path raises, at the first lane
            // that compares one (a NULL lane compares nothing).
            if let Some(i) =
                (0..lanes).find(|&i| !nulls.is_null(i) && a.get(i).partial_cmp(&b.get(i)).is_none())
            {
                return Err(McdbError::type_mismatch(
                    "comparison",
                    "comparable values".to_string(),
                    format!("{} vs {}", l.value(i), r.value(i)),
                ));
            }
        }
        return Ok(bool_column(cmp_map(op, &a, &b, lanes), nulls));
    }
    if let (Some(la), Some(ra)) = (str_operand(l, lanes), str_operand(r, lanes)) {
        // A column against a literal is decided once per dictionary entry
        // and mapped through the codes — when the dictionary (which a
        // gather shares whole) is `worth_indexing` for these lanes.
        let by_entry = |codes: &[u32], dict: &StrDict, nulls: &NullMask, lit: &str, flip: bool| {
            let verdict: Vec<bool> = dict
                .values()
                .iter()
                .map(|v| {
                    let ord = v.as_ref().cmp(lit);
                    cmp_to_bool(op, if flip { ord.reverse() } else { ord })
                })
                .collect();
            let data = codes.iter().map(|&c| verdict[c as usize]).collect();
            bool_column(data, nulls.clone())
        };
        match (&la, &ra) {
            (StrOperand::Col(codes, dict, nulls), StrOperand::Const(lit))
                if worth_indexing(dict.len(), lanes) =>
            {
                return Ok(by_entry(codes, dict, nulls, lit, false));
            }
            (StrOperand::Const(lit), StrOperand::Col(codes, dict, nulls))
                if worth_indexing(dict.len(), lanes) =>
            {
                return Ok(by_entry(codes, dict, nulls, lit, true));
            }
            _ => {}
        }
        let mut data = vec![false; lanes];
        let mut nulls = NullMask::all_valid(lanes);
        for (i, slot) in data.iter_mut().enumerate() {
            if la.is_null(i) || ra.is_null(i) {
                nulls.set_null(i);
                continue;
            }
            *slot = cmp_to_bool(op, la.get(i).cmp(ra.get(i)));
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
    let (Some(la), Some(ra)) = (bool_operand(l, lanes), bool_operand(r, lanes)) else {
        return map2_scalar(op, l, r, lanes);
    };
    // Two columns without a NULL: plain boolean algebra over the slices.
    if let (BoolOperand::Col(a, an), BoolOperand::Col(b, bn)) = (&la, &ra) {
        if !an.any_null() && !bn.any_null() {
            let data = match op {
                BinOp::And => a.iter().zip(b.iter()).map(|(&x, &y)| x & y).collect(),
                BinOp::Or => a.iter().zip(b.iter()).map(|(&x, &y)| x | y).collect(),
                _ => unreachable!("logic kernel"),
            };
            return Ok(ColumnVec::Bool {
                data,
                nulls: NullMask::all_valid(lanes),
            });
        }
    }
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
            let data = match v.column() {
                None => vec![v.is_all_null(); lanes],
                Some(c) => (0..lanes).map(|i| c.is_null(i)).collect(),
            };
            Ok(ColumnVec::Bool {
                data,
                nulls: NullMask::all_valid(lanes),
            })
        }
        UnOp::Neg => match num_operand(v, lanes) {
            Some(Num::I(Operand::Col(data, nulls))) => {
                let mut data: Vec<i64> = data.iter().map(|&x| x.wrapping_neg()).collect();
                nulls.for_each_null(|i| data[i] = 0);
                Ok(ColumnVec::Int {
                    data,
                    nulls: nulls.clone(),
                })
            }
            Some(Num::F(Operand::Col(data, nulls))) => Ok(ColumnVec::Float {
                data: data.iter().map(|x| -x).collect(),
                nulls: nulls.clone(),
            }),
            _ if v.is_all_null() => Ok(ColumnVec::AllNull { len: lanes }),
            _ => map1_scalar(op, v, lanes),
        },
        UnOp::Not => match bool_operand(v, lanes) {
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
    let acc = match num_operand(v, lanes) {
        // Abs preserves Int-ness, matching the scalar path.
        Some(Num::I(Operand::Col(data, nulls))) if func == ScalarFunc::Abs => {
            let mut data: Vec<i64> = data.iter().map(|&x| x.wrapping_abs()).collect();
            nulls.for_each_null(|i| data[i] = 0);
            return Ok(ColumnVec::Int {
                data,
                nulls: nulls.clone(),
            });
        }
        Some(Num::I(Operand::Const(x))) if func == ScalarFunc::Abs => {
            return Ok(ColumnVec::broadcast(&Value::Int(x.abs()), lanes));
        }
        Some(acc) => acc.into_f64(),
        None => {
            let mut out = Vec::with_capacity(lanes);
            for i in 0..lanes {
                out.push(eval_func(func, v.value(i))?);
            }
            return ColumnVec::from_values(out);
        }
    };
    let mut data = vec![0.0f64; lanes];
    let mut nulls = NullMask::all_valid(lanes);
    for (i, slot) in data.iter_mut().enumerate() {
        if acc.is_null(i) {
            nulls.set_null(i);
            continue;
        }
        let x = acc.get(i);
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
    pub(crate) fn eval_batch(
        &self,
        batch: &Batch,
        sel: Option<&[u32]>,
    ) -> crate::Result<ColumnVec> {
        self.eval_lanes(
            batch,
            match sel {
                Some(s) => Lanes::Sel(s),
                None => Lanes::All(batch.len()),
            },
        )
    }

    /// [`BoundExpr::eval_batch`] over the batch rows behind `lanes`: a
    /// selection gathers the columns the expression reads, the whole batch
    /// reads them in place.
    pub(crate) fn eval_lanes(&self, batch: &Batch, lanes: Lanes<'_>) -> crate::Result<ColumnVec> {
        let n = lanes.len();
        debug_assert!(matches!(lanes, Lanes::Sel(_)) || n == batch.len());
        if n == 0 {
            // The row engine never evaluates expressions over zero rows, so
            // neither do we (avoids raising type errors legacy cannot hit).
            return Ok(ColumnVec::AllNull { len: 0 });
        }
        Ok(match self.eval_inner(batch, lanes, n)? {
            BatchVal::Col(c) => c.into_owned(),
            BatchVal::Const(v) => ColumnVec::broadcast(&v, n),
        })
    }

    fn eval_inner<'a>(
        &'a self,
        batch: &'a Batch,
        lanes: Lanes<'_>,
        n: usize,
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
                match lanes {
                    Lanes::All(_) => BatchVal::Col(Cow::Borrowed(batch.column(*i))),
                    Lanes::Sel(s) => BatchVal::computed(batch.column(*i).gather(s)),
                }
            }
            BoundExpr::Lit(v) => BatchVal::Const(v.clone()),
            BoundExpr::Binary { op, left, right } => {
                let l = left.eval_inner(batch, lanes, n)?;
                let r = right.eval_inner(batch, lanes, n)?;
                if let (BatchVal::Const(a), BatchVal::Const(b)) = (&l, &r) {
                    // Constant × constant: evaluate once (lanes > 0, so the
                    // scalar path would evaluate it at least once too).
                    return Ok(BatchVal::Const(eval_binary(*op, a.clone(), b.clone())?));
                }
                use BinOp::*;
                BatchVal::computed(match op {
                    Add | Sub | Mul | Div => arith_batch(*op, &l, &r, n)?,
                    Eq | Ne | Lt | Le | Gt | Ge => cmp_batch(*op, &l, &r, n)?,
                    And | Or => logic_batch(*op, &l, &r, n)?,
                })
            }
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval_inner(batch, lanes, n)?;
                if let BatchVal::Const(c) = &v {
                    return Ok(BatchVal::Const(eval_unary(*op, c.clone())?));
                }
                BatchVal::computed(unary_batch(*op, &v, n)?)
            }
            BoundExpr::Func { func, arg } => {
                let v = arg.eval_inner(batch, lanes, n)?;
                if let BatchVal::Const(c) = &v {
                    return Ok(BatchVal::Const(eval_func(*func, c.clone())?));
                }
                BatchVal::computed(func_batch(*func, &v, n)?)
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

    /// The batch kernels against the scalar evaluator, lane by lane: every
    /// operand shape (column or constant on either side, `Int` / `Float` /
    /// mixed, strings against a literal and against a column, Kleene logic
    /// with and without NULLs) over whole batches, 64-aligned and unaligned
    /// row runs, and selections — same values to the bit, same NULLs, and
    /// the same error when the first failing lane fails.
    #[test]
    fn batch_kernels_equal_the_scalar_evaluator_on_every_operand_shape() {
        use crate::query::kernels::Lanes;
        use crate::table::Table;
        use mde_numeric::rng::for_cases;
        let s = Schema::from_pairs(&[
            ("a", DataType::Int),
            ("a2", DataType::Int),
            ("b", DataType::Float),
            ("b2", DataType::Float),
            ("s", DataType::Str),
            ("s2", DataType::Str),
            ("p", DataType::Bool),
            ("q", DataType::Bool),
        ])
        .unwrap();
        let col = Expr::col;
        let exprs: Vec<Expr> = {
            let num = [
                col("a"),
                col("a2"),
                col("b"),
                col("b2"),
                Expr::lit(3),
                Expr::lit(-0.5),
            ];
            let mut out = Vec::new();
            for l in &num {
                for r in &num {
                    out.push(l.clone().add(r.clone()));
                    out.push(l.clone().sub(r.clone()).mul(r.clone()));
                    out.push(l.clone().div(r.clone()));
                    out.push(l.clone().lt(r.clone()));
                    out.push(l.clone().ge(r.clone()).or(l.clone().eq(r.clone())));
                }
            }
            out.extend([
                col("a").div(Expr::lit(0)),
                col("b").div(col("a").sub(col("a"))),
                // inf - inf: a NaN the comparison must reject at its lane.
                col("b")
                    .mul(Expr::lit(1e308))
                    .mul(Expr::lit(10))
                    .sub(col("b2").mul(Expr::lit(1e308)).mul(Expr::lit(10)))
                    .gt(Expr::lit(0)),
                col("s").lt(Expr::lit("m")),
                Expr::lit("m").le(col("s")),
                col("s").eq(col("s2")),
                col("s").ne(Expr::lit("")),
                col("s").lt(Expr::lit(1)),
                col("p").and(col("q")),
                col("p").or(col("q")).and(col("p").not()),
                col("p").and(Expr::lit(Value::Null)).or(col("a").is_null()),
                col("a").gt(Expr::lit(0)).and(col("b").le(Expr::lit(1.5))),
                col("a").neg().add(col("b").neg()),
                col("a").neg().func(ScalarFunc::Abs),
                col("b")
                    .func(ScalarFunc::Sqrt)
                    .add(col("a").func(ScalarFunc::Ln)),
                col("p").add(col("a")),
            ]);
            out
        };
        let bound: Vec<BoundExpr> = exprs.iter().map(|e| e.bind(&s).unwrap()).collect();
        for_cases(12, |rng| {
            let n = rng.gen_range(1usize..200);
            let nullable = rng.gen_range(0..3) > 0;
            let mut cell = |v: Value| {
                if nullable && rng.gen_range(0..5) == 0 {
                    Value::Null
                } else {
                    v
                }
            };
            let rows: Vec<Vec<Value>> = (0..n)
                .map(|i| {
                    let strs = ["", "a", "m", "z", "é"];
                    vec![
                        cell(Value::from(i as i64 % 7 - 3)),
                        cell(Value::from([i64::MAX, 2, 0, -5][i % 4])),
                        cell(Value::from(i as f64 * 0.25 - 3.0)),
                        cell(Value::from([0.0, -0.0, 1e300, -2.5][i % 4])),
                        cell(Value::from(strs[i % 5])),
                        cell(Value::from(strs[(i / 2) % 5])),
                        cell(Value::from(i % 3 == 0)),
                        cell(Value::from(i % 2 == 0)),
                    ]
                })
                .collect();
            let mut t = Table::new("t", s.clone());
            for r in &rows {
                t.push_row(r.clone()).unwrap();
            }
            let batch = t.batch();
            let start = rng.gen_range(0..n);
            let sel: Vec<u32> = (0..n as u32).rev().filter(|i| i % 3 != 1).collect();
            let tail = |from: usize| (from as u32..n as u32).collect::<Vec<u32>>();
            let (aligned, unaligned) = (tail(start / 64 * 64), tail(start));
            // Fewer lanes than dictionary entries (a gather shares the
            // dictionary whole): the far side of `kernels::worth_indexing`.
            let two = tail(n - n.min(2));
            let runs = [
                Lanes::All(n),
                Lanes::Sel(&aligned),
                Lanes::Sel(&unaligned),
                Lanes::Sel(&two),
                Lanes::Sel(&sel),
            ];
            for (e, b) in exprs.iter().zip(&bound) {
                for lanes in runs {
                    let scalar: crate::Result<Vec<Value>> = (0..lanes.len())
                        .map(|l| b.eval(&rows[lanes.row(l)]))
                        .collect();
                    let exact = |v: &Value| match v {
                        Value::Float(f) => format!("f{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    };
                    match (b.eval_lanes(&batch, lanes), scalar) {
                        (Ok(c), Ok(want)) if lanes.len() > 0 => {
                            let got: Vec<String> =
                                (0..c.len()).map(|i| exact(&c.value(i))).collect();
                            let want: Vec<String> = want.iter().map(exact).collect();
                            assert_eq!(got, want, "{e} over {lanes:?}");
                        }
                        // Zero lanes evaluate nothing, as the row engine does.
                        (Ok(c), _) if lanes.len() == 0 => assert_eq!(c.len(), 0),
                        (Err(got), Err(want)) => assert_eq!(got, want, "{e} over {lanes:?}"),
                        (got, want) => panic!("{e} over {lanes:?}: {got:?} vs {want:?}"),
                    }
                }
            }
        });
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
