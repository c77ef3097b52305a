//! Typed column vectors with null bitmaps — the storage unit of the
//! vectorized executor.
//!
//! A [`ColumnVec`] holds one column of a batch as a contiguous typed
//! vector (`Vec<i64>`, `Vec<f64>`, …) plus a [`NullMask`] recording which
//! lanes are SQL `NULL`. Keeping the type tag per *column* instead of per
//! *value* is what lets the expression kernels in
//! [`BoundExpr::eval_batch`](crate::expr::BoundExpr::eval_batch) run tight
//! monomorphic loops over primitive slices instead of matching on a
//! [`Value`] enum per row.

use crate::schema::DataType;
use crate::value::Value;
use std::sync::Arc;

/// Per-lane null bitmap with an all-valid fast path.
///
/// `bits: None` means "no nulls anywhere" so that fully valid columns (the
/// common case) cost nothing to check; the bitmap is materialized lazily on
/// the first [`NullMask::set_null`].
#[derive(Debug, Clone, PartialEq)]
pub struct NullMask {
    len: usize,
    /// One bit per lane, set = null. `None` = all lanes valid.
    bits: Option<Vec<u64>>,
}

impl NullMask {
    /// An all-valid mask over `len` lanes.
    pub fn all_valid(len: usize) -> Self {
        NullMask { len, bits: None }
    }

    /// Number of lanes covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether lane `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match &self.bits {
            None => false,
            Some(b) => b[i / 64] & (1u64 << (i % 64)) != 0,
        }
    }

    /// Mark lane `i` as null (materializes the bitmap on first use).
    pub fn set_null(&mut self, i: usize) {
        let words = self.len.div_ceil(64);
        let bits = self.bits.get_or_insert_with(|| vec![0u64; words]);
        bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Append one lane, keeping the all-valid fast path until the first
    /// null arrives.
    #[inline]
    pub(crate) fn push(&mut self, null: bool) {
        self.len += 1;
        if let Some(bits) = &mut self.bits {
            bits.resize(self.len.div_ceil(64), 0);
        }
        if null {
            self.set_null(self.len - 1);
        }
    }

    /// Whether any lane is null.
    pub fn any_null(&self) -> bool {
        match &self.bits {
            None => false,
            Some(b) => b.iter().any(|&w| w != 0),
        }
    }

    /// The raw bitmap words, or `None` when the mask never materialized
    /// (all lanes valid). Lets the page-codec tests assert that decoded
    /// masks reproduce the all-valid fast path verbatim.
    #[cfg(test)]
    pub(crate) fn words(&self) -> Option<&[u64]> {
        self.bits.as_deref()
    }

    /// The bitmap words covering the 64-aligned lane window
    /// `[start, start + len)`, or `None` when the mask never materialized
    /// (all lanes valid). This is the zero-copy handoff to the SIMD
    /// kernels in [`crate::query::simd`], which read lane `i` of the
    /// window as `words[i / 64] >> (i % 64) & 1` — exactly why morsel
    /// boundaries are required to be 64-lane aligned.
    #[inline]
    pub(crate) fn word_slice(&self, start: usize, len: usize) -> Option<&[u64]> {
        debug_assert!(start.is_multiple_of(64) && start + len <= self.len);
        self.bits
            .as_deref()
            .map(|b| &b[start / 64..start / 64 + len.div_ceil(64)])
    }

    /// Rebuild a mask from persisted bitmap words. `words: None` must be
    /// used exactly when the original mask was all-valid so that decoded
    /// masks compare equal (`PartialEq`) to their pre-encode originals.
    pub(crate) fn from_words(len: usize, words: Option<Vec<u64>>) -> NullMask {
        debug_assert!(words.as_ref().is_none_or(|w| w.len() == len.div_ceil(64)));
        NullMask { len, bits: words }
    }

    /// Select lanes by index, producing the gathered mask.
    pub fn gather(&self, sel: &[u32]) -> NullMask {
        let mut out = NullMask::all_valid(sel.len());
        if self.any_null() {
            for (k, &i) in sel.iter().enumerate() {
                if self.is_null(i as usize) {
                    out.set_null(k);
                }
            }
        }
        out
    }

    /// Concatenate two masks lane-wise. Preserves the all-valid fast
    /// path: the result only materializes a bitmap if either input has
    /// null lanes.
    pub(crate) fn concat(&self, tail: &NullMask) -> NullMask {
        let mut out = NullMask::all_valid(self.len + tail.len);
        if self.any_null() || tail.any_null() {
            for i in 0..self.len {
                if self.is_null(i) {
                    out.set_null(i);
                }
            }
            for j in 0..tail.len {
                if tail.is_null(j) {
                    out.set_null(self.len + j);
                }
            }
        }
        out
    }
}

/// A typed column of values with a null bitmap.
///
/// The `AllNull` variant represents a column whose every lane is `NULL`
/// and whose type is unconstrained (e.g. the result of evaluating a bare
/// `NULL` literal over a batch) — it is compatible with any declared
/// column type, mirroring how [`Value::Null`] is typeless.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnVec {
    /// 64-bit integer column.
    Int {
        /// Lane values (placeholder `0` at null lanes).
        data: Vec<i64>,
        /// Null lanes.
        nulls: NullMask,
    },
    /// 64-bit float column.
    Float {
        /// Lane values (placeholder `0.0` at null lanes).
        data: Vec<f64>,
        /// Null lanes.
        nulls: NullMask,
    },
    /// Boolean column.
    Bool {
        /// Lane values (placeholder `false` at null lanes).
        data: Vec<bool>,
        /// Null lanes.
        nulls: NullMask,
    },
    /// String column (reference-counted payloads; gathers clone `Arc`s).
    Str {
        /// Lane values (placeholder `""` at null lanes).
        data: Vec<Arc<str>>,
        /// Null lanes.
        nulls: NullMask,
    },
    /// An untyped all-null column.
    AllNull {
        /// Number of lanes.
        len: usize,
    },
}

impl ColumnVec {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Str { data, .. } => data.len(),
            ColumnVec::AllNull { len } => *len,
        }
    }

    /// Whether the column has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's type, or `None` for an untyped all-null column.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            ColumnVec::Int { .. } => Some(DataType::Int),
            ColumnVec::Float { .. } => Some(DataType::Float),
            ColumnVec::Bool { .. } => Some(DataType::Bool),
            ColumnVec::Str { .. } => Some(DataType::Str),
            ColumnVec::AllNull { .. } => None,
        }
    }

    /// Whether lane `i` is null.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Bool { nulls, .. }
            | ColumnVec::Str { nulls, .. } => nulls.is_null(i),
            ColumnVec::AllNull { .. } => true,
        }
    }

    /// The value at lane `i` (strings clone their `Arc`).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            ColumnVec::Float { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            ColumnVec::Bool { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            ColumnVec::Str { data, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(&data[i]))
                }
            }
            ColumnVec::AllNull { .. } => Value::Null,
        }
    }

    /// Append one lane. `Value::Null` appends a NULL lane (a typed column
    /// stores its placeholder there); an untyped all-null column takes the
    /// type of the first non-null value it is given. A value of another
    /// type than the column's is a typed error and leaves the column as it
    /// was.
    #[inline]
    pub fn push(&mut self, v: Value) -> crate::Result<()> {
        match (&mut *self, v) {
            (ColumnVec::Int { data, nulls }, Value::Int(x)) => {
                data.push(x);
                nulls.push(false);
            }
            (ColumnVec::Float { data, nulls }, Value::Float(x)) => {
                data.push(x);
                nulls.push(false);
            }
            (ColumnVec::Bool { data, nulls }, Value::Bool(x)) => {
                data.push(x);
                nulls.push(false);
            }
            (ColumnVec::Str { data, nulls }, Value::Str(x)) => {
                data.push(x);
                nulls.push(false);
            }
            (ColumnVec::Int { data, nulls }, Value::Null) => {
                data.push(0);
                nulls.push(true);
            }
            (ColumnVec::Float { data, nulls }, Value::Null) => {
                data.push(0.0);
                nulls.push(true);
            }
            (ColumnVec::Bool { data, nulls }, Value::Null) => {
                data.push(false);
                nulls.push(true);
            }
            (ColumnVec::Str { data, nulls }, Value::Null) => {
                data.push(Arc::from(""));
                nulls.push(true);
            }
            (ColumnVec::AllNull { len }, Value::Null) => *len += 1,
            (ColumnVec::AllNull { len }, v) => {
                let dtype = v.data_type().expect("not NULL");
                *self = ColumnVec::typed_nulls(*len, dtype);
                return self.push(v);
            }
            (col, other) => {
                let dtype = col.dtype().expect("an untyped column accepts any value");
                return Err(mixed_column_error(dtype, &other));
            }
        }
        Ok(())
    }

    /// Build a column from owned values, inferring the type from the first
    /// non-null value. Mixed `Int`/`Float` lanes promote to `Float`; any
    /// other mix is a type error.
    pub fn from_values(values: Vec<Value>) -> crate::Result<ColumnVec> {
        let dtype = values.iter().find_map(|v| v.data_type());
        let Some(mut dtype) = dtype else {
            return Ok(ColumnVec::AllNull { len: values.len() });
        };
        if dtype == DataType::Int && values.iter().any(|v| matches!(v, Value::Float(_))) {
            dtype = DataType::Float;
        }
        let n = values.len();
        let mut nulls = NullMask::all_valid(n);
        Ok(match dtype {
            DataType::Int => {
                let mut data = vec![0i64; n];
                for (i, v) in values.into_iter().enumerate() {
                    match v {
                        Value::Int(x) => data[i] = x,
                        Value::Null => nulls.set_null(i),
                        other => return Err(mixed_column_error(DataType::Int, &other)),
                    }
                }
                ColumnVec::Int { data, nulls }
            }
            DataType::Float => {
                let mut data = vec![0.0f64; n];
                for (i, v) in values.into_iter().enumerate() {
                    match v {
                        Value::Float(x) => data[i] = x,
                        Value::Int(x) => data[i] = x as f64,
                        Value::Null => nulls.set_null(i),
                        other => return Err(mixed_column_error(DataType::Float, &other)),
                    }
                }
                ColumnVec::Float { data, nulls }
            }
            DataType::Bool => {
                let mut data = vec![false; n];
                for (i, v) in values.into_iter().enumerate() {
                    match v {
                        Value::Bool(x) => data[i] = x,
                        Value::Null => nulls.set_null(i),
                        other => return Err(mixed_column_error(DataType::Bool, &other)),
                    }
                }
                ColumnVec::Bool { data, nulls }
            }
            DataType::Str => {
                let empty: Arc<str> = Arc::from("");
                let mut data = vec![Arc::clone(&empty); n];
                for (i, v) in values.into_iter().enumerate() {
                    match v {
                        Value::Str(x) => data[i] = x,
                        Value::Null => nulls.set_null(i),
                        other => return Err(mixed_column_error(DataType::Str, &other)),
                    }
                }
                ColumnVec::Str { data, nulls }
            }
        })
    }

    /// A column whose every lane holds `v`.
    pub fn broadcast(v: &Value, len: usize) -> ColumnVec {
        match v {
            Value::Null => ColumnVec::AllNull { len },
            Value::Int(x) => ColumnVec::Int {
                data: vec![*x; len],
                nulls: NullMask::all_valid(len),
            },
            Value::Float(x) => ColumnVec::Float {
                data: vec![*x; len],
                nulls: NullMask::all_valid(len),
            },
            Value::Bool(x) => ColumnVec::Bool {
                data: vec![*x; len],
                nulls: NullMask::all_valid(len),
            },
            Value::Str(s) => ColumnVec::Str {
                data: vec![Arc::clone(s); len],
                nulls: NullMask::all_valid(len),
            },
        }
    }

    /// Select lanes by index (a selection-vector gather).
    pub fn gather(&self, sel: &[u32]) -> ColumnVec {
        match self {
            ColumnVec::Int { data, nulls } => ColumnVec::Int {
                data: sel.iter().map(|&i| data[i as usize]).collect(),
                nulls: nulls.gather(sel),
            },
            ColumnVec::Float { data, nulls } => ColumnVec::Float {
                data: sel.iter().map(|&i| data[i as usize]).collect(),
                nulls: nulls.gather(sel),
            },
            ColumnVec::Bool { data, nulls } => ColumnVec::Bool {
                data: sel.iter().map(|&i| data[i as usize]).collect(),
                nulls: nulls.gather(sel),
            },
            ColumnVec::Str { data, nulls } => ColumnVec::Str {
                data: sel.iter().map(|&i| Arc::clone(&data[i as usize])).collect(),
                nulls: nulls.gather(sel),
            },
            ColumnVec::AllNull { .. } => ColumnVec::AllNull { len: sel.len() },
        }
    }

    /// A fully valid column of `len` placeholder values (`0`, `0.0`,
    /// `false`, `""`) typed as `dtype` — the buffer the page reader decodes
    /// a stored column into.
    pub(crate) fn placeholders(len: usize, dtype: DataType) -> ColumnVec {
        let nulls = NullMask::all_valid(len);
        match dtype {
            DataType::Int => ColumnVec::Int {
                data: vec![0; len],
                nulls,
            },
            DataType::Float => ColumnVec::Float {
                data: vec![0.0; len],
                nulls,
            },
            DataType::Bool => ColumnVec::Bool {
                data: vec![false; len],
                nulls,
            },
            DataType::Str => ColumnVec::Str {
                data: vec![Arc::from(""); len],
                nulls,
            },
        }
    }

    /// The same lanes under another null mask (an untyped all-null column
    /// has none to replace).
    pub(crate) fn with_nulls(self, nulls: NullMask) -> ColumnVec {
        match self {
            ColumnVec::Int { data, .. } => ColumnVec::Int { data, nulls },
            ColumnVec::Float { data, .. } => ColumnVec::Float { data, nulls },
            ColumnVec::Bool { data, .. } => ColumnVec::Bool { data, nulls },
            ColumnVec::Str { data, .. } => ColumnVec::Str { data, nulls },
            ColumnVec::AllNull { len } => ColumnVec::AllNull { len },
        }
    }

    /// A column of `len` NULLs typed as `dtype` (placeholder values, every
    /// lane null) — what pushing `len` NULLs onto a typed column builds.
    pub(crate) fn typed_nulls(len: usize, dtype: DataType) -> ColumnVec {
        let mut nulls = NullMask::all_valid(len);
        for i in 0..len {
            nulls.set_null(i);
        }
        ColumnVec::placeholders(len, dtype).with_nulls(nulls)
    }

    /// Concatenate two columns of the same type, lane-wise. Used by the
    /// paged table backend to splice the in-memory append tail onto the
    /// decoded on-disk base. Untyped all-null columns adopt the other
    /// side's type (placeholder values, all lanes null), matching what
    /// [`ColumnVec::push`] builds for the combined rows.
    ///
    /// # Panics
    ///
    /// If the two columns carry different concrete types — impossible
    /// when both conform to one schema column, which is the only way the
    /// engine calls this.
    pub(crate) fn concat(&self, tail: &ColumnVec) -> ColumnVec {
        let typed_nulls = ColumnVec::typed_nulls;
        match (self, tail) {
            (ColumnVec::AllNull { len: a }, ColumnVec::AllNull { len: b }) => {
                ColumnVec::AllNull { len: a + b }
            }
            (ColumnVec::AllNull { len }, other) => {
                typed_nulls(*len, other.dtype().expect("non-AllNull has a dtype")).concat(other)
            }
            (other, ColumnVec::AllNull { len }) => other.concat(&typed_nulls(
                *len,
                other.dtype().expect("non-AllNull has a dtype"),
            )),
            (ColumnVec::Int { data: a, nulls: na }, ColumnVec::Int { data: b, nulls: nb }) => {
                ColumnVec::Int {
                    data: a.iter().chain(b).copied().collect(),
                    nulls: na.concat(nb),
                }
            }
            (ColumnVec::Float { data: a, nulls: na }, ColumnVec::Float { data: b, nulls: nb }) => {
                ColumnVec::Float {
                    data: a.iter().chain(b).copied().collect(),
                    nulls: na.concat(nb),
                }
            }
            (ColumnVec::Bool { data: a, nulls: na }, ColumnVec::Bool { data: b, nulls: nb }) => {
                ColumnVec::Bool {
                    data: a.iter().chain(b).copied().collect(),
                    nulls: na.concat(nb),
                }
            }
            (ColumnVec::Str { data: a, nulls: na }, ColumnVec::Str { data: b, nulls: nb }) => {
                ColumnVec::Str {
                    data: a.iter().chain(b).map(Arc::clone).collect(),
                    nulls: na.concat(nb),
                }
            }
            (a, b) => unreachable!(
                "concat of mismatched column types {:?} and {:?}",
                a.dtype(),
                b.dtype()
            ),
        }
    }

    /// Concatenate many columns in one pass with a single allocation per
    /// payload — the morsel-merge primitive. Semantically identical to a
    /// left fold of [`ColumnVec::concat`] (including the untyped-all-null
    /// adoption rules and the all-valid null-mask fast path) but O(total)
    /// instead of O(total · parts).
    ///
    /// # Panics
    ///
    /// Like [`ColumnVec::concat`], if two parts carry different concrete
    /// types — impossible when every part was produced by evaluating the
    /// same expression over morsels of one batch.
    pub(crate) fn concat_many(parts: Vec<ColumnVec>) -> ColumnVec {
        if parts.len() == 1 {
            return parts.into_iter().next().expect("one part");
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        let Some(dtype) = parts.iter().find_map(|p| p.dtype()) else {
            return ColumnVec::AllNull { len: total };
        };
        let mut nulls = NullMask::all_valid(total);
        let mut offset = 0;
        for p in &parts {
            match p {
                ColumnVec::AllNull { len } => {
                    for i in 0..*len {
                        nulls.set_null(offset + i);
                    }
                }
                _ => {
                    for i in 0..p.len() {
                        if p.is_null(i) {
                            nulls.set_null(offset + i);
                        }
                    }
                }
            }
            offset += p.len();
        }
        macro_rules! fill {
            ($variant:ident, $ty:ty, $zero:expr, $extend:expr) => {{
                let mut data: Vec<$ty> = Vec::with_capacity(total);
                for p in &parts {
                    match p {
                        ColumnVec::$variant { data: d, .. } => $extend(&mut data, d),
                        ColumnVec::AllNull { len } => {
                            data.resize(data.len() + len, $zero);
                        }
                        other => unreachable!(
                            "concat_many of mismatched column types {:?} and {:?}",
                            Some(DataType::$variant),
                            other.dtype()
                        ),
                    }
                }
                ColumnVec::$variant { data, nulls }
            }};
        }
        match dtype {
            DataType::Int => fill!(Int, i64, 0, |out: &mut Vec<i64>, d: &Vec<i64>| out
                .extend_from_slice(d)),
            DataType::Float => fill!(Float, f64, 0.0, |out: &mut Vec<f64>, d: &Vec<f64>| out
                .extend_from_slice(d)),
            DataType::Bool => fill!(Bool, bool, false, |out: &mut Vec<bool>, d: &Vec<bool>| out
                .extend_from_slice(d)),
            DataType::Str => fill!(
                Str,
                Arc<str>,
                Arc::from(""),
                |out: &mut Vec<Arc<str>>, d: &Vec<Arc<str>>| {
                    out.extend(d.iter().map(Arc::clone))
                }
            ),
        }
    }

    /// Numeric widening to a declared column type: an `Int` column flowing
    /// into a `Float` column converts whole; everything else is unchanged
    /// (mismatches are caught by the projection validator).
    pub fn coerce_to(self, dtype: DataType) -> ColumnVec {
        match (self, dtype) {
            (ColumnVec::Int { data, nulls }, DataType::Float) => ColumnVec::Float {
                data: data.into_iter().map(|v| v as f64).collect(),
                nulls,
            },
            (other, _) => other,
        }
    }
}

fn mixed_column_error(expected: DataType, found: &Value) -> crate::McdbError {
    crate::McdbError::type_mismatch("column build", expected.to_string(), format!("{found}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_mask_basics() {
        let mut m = NullMask::all_valid(70);
        assert!(!m.any_null());
        m.set_null(0);
        m.set_null(69);
        assert!(m.is_null(0) && m.is_null(69) && !m.is_null(33));
        let g = m.gather(&[69, 1, 0]);
        assert!(g.is_null(0) && !g.is_null(1) && g.is_null(2));
    }

    #[test]
    fn from_values_infers_and_promotes() {
        let c = ColumnVec::from_values(vec![Value::Null, Value::from(2), Value::from(3)]).unwrap();
        assert_eq!(c.dtype(), Some(DataType::Int));
        assert!(c.is_null(0));
        assert_eq!(c.value(1), Value::from(2));

        let c = ColumnVec::from_values(vec![Value::from(1), Value::from(2.5)]).unwrap();
        assert_eq!(c.dtype(), Some(DataType::Float));
        assert_eq!(c.value(0), Value::from(1.0));

        let c = ColumnVec::from_values(vec![Value::Null, Value::Null]).unwrap();
        assert_eq!(c.dtype(), None);
        assert!(c.value(0).is_null());

        assert!(ColumnVec::from_values(vec![Value::from(1), Value::from("x")]).is_err());
    }

    #[test]
    fn push_builds_what_placeholders_plus_set_null_builds() {
        // Lane by lane, across the 64-lane word boundary: the pushed mask
        // and payload equal the ones a page decode assembles, so appended
        // and decoded columns compare `PartialEq`-equal.
        for null_lanes in [vec![], vec![0], vec![63], vec![64], vec![0, 65, 129]] {
            let mut pushed = ColumnVec::placeholders(0, DataType::Int);
            let mut nulls = NullMask::all_valid(130);
            let mut data = vec![0i64; 130];
            for (i, slot) in data.iter_mut().enumerate() {
                if null_lanes.contains(&i) {
                    nulls.set_null(i);
                    pushed.push(Value::Null).unwrap();
                } else {
                    *slot = i as i64 - 7;
                    pushed.push(Value::from(i as i64 - 7)).unwrap();
                }
            }
            assert_eq!(pushed, ColumnVec::Int { data, nulls }, "{null_lanes:?}");
        }
        // A value of another type is a typed error and changes nothing.
        let mut c = ColumnVec::from_values(vec![Value::from(1.5)]).unwrap();
        assert!(c.push(Value::from(2)).is_err());
        assert!(c.push(Value::from("x")).is_err());
        assert_eq!(c, ColumnVec::from_values(vec![Value::from(1.5)]).unwrap());
        // An untyped column stays untyped under NULLs and takes the type of
        // its first value.
        let mut c = ColumnVec::AllNull { len: 2 };
        c.push(Value::Null).unwrap();
        assert_eq!(c, ColumnVec::AllNull { len: 3 });
        c.push(Value::from("s")).unwrap();
        assert_eq!(
            c,
            ColumnVec::typed_nulls(3, DataType::Str)
                .concat(&ColumnVec::broadcast(&Value::from("s"), 1))
        );
    }

    #[test]
    fn gather_and_broadcast() {
        let c =
            ColumnVec::from_values(vec![Value::from("a"), Value::Null, Value::from("c")]).unwrap();
        let g = c.gather(&[2, 0, 1]);
        assert_eq!(g.value(0), Value::from("c"));
        assert_eq!(g.value(1), Value::from("a"));
        assert!(g.value(2).is_null());

        let b = ColumnVec::broadcast(&Value::from(true), 3);
        assert_eq!(b.len(), 3);
        assert_eq!(b.value(2), Value::from(true));
    }

    #[test]
    fn concat_splices_tails_and_adopts_types() {
        let base = ColumnVec::from_values(vec![Value::from(1), Value::Null]).unwrap();
        let tail = ColumnVec::from_values(vec![Value::from(3)]).unwrap();
        let joined = base.concat(&tail);
        assert_eq!(joined.len(), 3);
        assert_eq!(joined.value(0), Value::from(1));
        assert!(joined.value(1).is_null());
        assert_eq!(joined.value(2), Value::from(3));

        // All-valid fast path survives concat.
        let a = ColumnVec::from_values(vec![Value::from("x")]).unwrap();
        let b = ColumnVec::from_values(vec![Value::from("y")]).unwrap();
        match a.concat(&b) {
            ColumnVec::Str { nulls, .. } => assert!(nulls.words().is_none()),
            other => panic!("expected Str, got {other:?}"),
        }

        // Untyped all-null sides adopt the typed side's dtype.
        let n = ColumnVec::AllNull { len: 2 };
        let typed = n.concat(&tail);
        assert_eq!(typed.dtype(), Some(DataType::Int));
        assert!(typed.value(0).is_null() && typed.value(1).is_null());
        assert_eq!(typed.value(2), Value::from(3));
        let back = tail.concat(&n);
        assert_eq!(back.dtype(), Some(DataType::Int));
        assert_eq!(back.value(0), Value::from(3));
        assert!(back.value(2).is_null());
        assert_eq!(
            n.concat(&ColumnVec::AllNull { len: 1 }),
            ColumnVec::AllNull { len: 3 }
        );
    }

    #[test]
    fn concat_many_matches_concat_fold() {
        let parts = vec![
            ColumnVec::from_values(vec![Value::from(1), Value::Null]).unwrap(),
            ColumnVec::AllNull { len: 3 },
            ColumnVec::from_values(vec![Value::from(7)]).unwrap(),
        ];
        let folded = parts
            .iter()
            .skip(1)
            .fold(parts[0].clone(), |acc, p| acc.concat(p));
        assert_eq!(ColumnVec::concat_many(parts), folded);

        // All-AllNull stays untyped; all-valid fast path survives.
        assert_eq!(
            ColumnVec::concat_many(vec![
                ColumnVec::AllNull { len: 2 },
                ColumnVec::AllNull { len: 1 }
            ]),
            ColumnVec::AllNull { len: 3 }
        );
        let a = ColumnVec::from_values(vec![Value::from("x")]).unwrap();
        let b = ColumnVec::from_values(vec![Value::from("y")]).unwrap();
        match ColumnVec::concat_many(vec![a, b]) {
            ColumnVec::Str { nulls, .. } => assert!(nulls.words().is_none()),
            other => panic!("expected Str, got {other:?}"),
        }
    }

    #[test]
    fn word_slice_windows_align() {
        let mut m = NullMask::all_valid(200);
        assert!(m.word_slice(64, 64).is_none());
        m.set_null(70);
        let w = m.word_slice(64, 64).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0] >> 6 & 1, 1, "global lane 70 = local lane 6");
        assert_eq!(m.word_slice(128, 72).unwrap().len(), 2);
    }

    #[test]
    fn coercion_widens_int_to_float() {
        let c = ColumnVec::from_values(vec![Value::from(1), Value::Null]).unwrap();
        let f = c.coerce_to(DataType::Float);
        assert_eq!(f.dtype(), Some(DataType::Float));
        assert_eq!(f.value(0), Value::from(1.0));
        assert!(f.value(1).is_null());
    }
}
