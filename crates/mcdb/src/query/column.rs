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
//!
//! Strings are dictionary-coded: a `Str` column is a `Vec<u32>` of codes
//! into a shared [`StrDict`], so *the dictionary is the column* — a gather
//! or a join copies `u32`s and clones one `Arc`, a group-by on one string
//! key indexes an array by code, and a comparison against a literal is
//! decided once per distinct value. Two columns that share a dictionary
//! compare codes; columns with different dictionaries compare contents.

use crate::schema::DataType;
use crate::value::Value;
use mde_numeric::codec::{fnv1a, FNV_OFFSET};
use std::collections::HashMap;
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

    /// Append `n` valid lanes.
    pub(crate) fn extend_valid(&mut self, n: usize) {
        self.len += n;
        if let Some(bits) = &mut self.bits {
            bits.resize(self.len.div_ceil(64), 0);
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
    /// (all lanes valid) — the zero-copy handoff to the selection kernels
    /// in [`crate::query::select`], which read lane `i` as
    /// `words[i / 64] >> (i % 64) & 1`.
    pub(crate) fn words(&self) -> Option<&[u64]> {
        self.bits.as_deref()
    }

    /// Rebuild a mask from persisted bitmap words. `words: None` must be
    /// used exactly when the original mask was all-valid so that decoded
    /// masks compare equal (`PartialEq`) to their pre-encode originals.
    pub(crate) fn from_words(len: usize, words: Option<Vec<u64>>) -> NullMask {
        debug_assert!(words.as_ref().is_none_or(|w| w.len() == len.div_ceil(64)));
        NullMask { len, bits: words }
    }

    /// Lane-wise OR with a mask of the same length, a word at a time — a
    /// lane is null in the result iff it is null in either operand.
    pub(crate) fn union(&self, other: &NullMask) -> NullMask {
        debug_assert_eq!(self.len, other.len);
        let bits: Option<Vec<u64>> = match (&self.bits, &other.bits) {
            (None, None) => None,
            (Some(b), None) | (None, Some(b)) => Some(b.clone()),
            (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(x, y)| x | y).collect()),
        };
        NullMask {
            len: self.len,
            bits: bits.filter(|b| b.iter().any(|&w| w != 0)),
        }
    }

    /// Mark every lane whose bit is set in `words` (bit `i % 64` of word
    /// `i / 64` = lane `i`) as null.
    pub(crate) fn set_null_words(&mut self, words: &[u64]) {
        debug_assert_eq!(words.len(), self.len.div_ceil(64));
        if words.iter().all(|&w| w == 0) {
            return;
        }
        match &mut self.bits {
            Some(bits) => bits.iter_mut().zip(words).for_each(|(b, w)| *b |= w),
            None => self.bits = Some(words.to_vec()),
        }
    }

    /// Call `f(lane)` for every null lane, ascending; nothing runs for an
    /// all-valid mask.
    pub(crate) fn for_each_null(&self, mut f: impl FnMut(usize)) {
        for (k, &word) in self.bits.iter().flatten().enumerate() {
            let mut w = word;
            while w != 0 {
                f(k * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
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

/// The distinct values of a string column, in first-seen order, with what
/// the key kernels and the appenders need per value: its FNV-1a hash
/// (computed once, when the value is first interned — a string key's lane
/// hash is a table lookup) and the intern index from content to code.
///
/// Values are distinct by construction, so within one dictionary two codes
/// are equal iff their strings are. A column's dictionary may hold values no
/// lane of the column uses (a gather shares its source's dictionary).
#[derive(Clone, Default)]
pub struct StrDict {
    /// Code `c` is `values[c]`.
    values: Vec<Arc<str>>,
    /// `fnv1a(FNV_OFFSET, values[c])`.
    hashes: Vec<u64>,
    index: HashMap<Arc<str>, u32>,
}

/// The values alone, in code order: the hashes and the intern index are
/// functions of them, and a `HashMap` prints in a different order in every
/// process.
impl std::fmt::Debug for StrDict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrDict")
            .field("values", &self.values)
            .finish()
    }
}

impl StrDict {
    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dictionary holds no value.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The distinct values, indexed by code.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }

    /// The string behind `code`.
    #[inline]
    pub fn value(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Each value's FNV-1a hash, indexed by code.
    pub(crate) fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// The order of the strings behind two codes (equal codes are equal
    /// strings, so only different codes read their contents).
    pub(crate) fn cmp_codes(&self, a: u32, b: u32) -> std::cmp::Ordering {
        if a == b {
            return std::cmp::Ordering::Equal;
        }
        self.value(a).as_ref().cmp(self.value(b).as_ref())
    }

    /// Whether a pass over the dictionary's entries pays for `lanes` lanes
    /// of a column over it — the one rule for every kernel that would
    /// index by code: a gathered column can carry a dictionary far larger
    /// than itself.
    pub(crate) fn worth_indexing(&self, lanes: usize) -> bool {
        self.len() <= lanes
    }

    /// The code of `s`, if the dictionary holds it.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The code of `s`, appending it as the next code if it is new.
    pub fn intern(&mut self, s: &Arc<str>) -> u32 {
        match self.code_of(s) {
            Some(code) => code,
            None => self.append(s),
        }
    }

    /// Append `s`, which the dictionary does not hold, as the next code.
    fn append(&mut self, s: &Arc<str>) -> u32 {
        let code = u32::try_from(self.values.len()).expect("more than u32::MAX distinct strings");
        self.values.push(Arc::clone(s));
        self.hashes.push(fnv1a(FNV_OFFSET, s.as_bytes()));
        self.index.insert(Arc::clone(s), code);
        code
    }
}

/// The code of `s` in `dict`, interning it first if it is new; a shared
/// dictionary is copied only then (copy-on-write), so whoever else holds it
/// — a query result gathered from this column, say — keeps what it had.
fn intern_shared(dict: &mut Arc<StrDict>, s: &Arc<str>) -> u32 {
    match dict.code_of(s) {
        Some(code) => code,
        None => Arc::make_mut(dict).append(s),
    }
}

/// The code of the NULL-lane placeholder `""` in `dict`.
fn empty_code(dict: &mut Arc<StrDict>) -> u32 {
    match dict.code_of("") {
        Some(code) => code,
        None => Arc::make_mut(dict).append(&Arc::from("")),
    }
}

/// Append the lanes `src_codes` of a column over `src_dict` to a column
/// over `dict`: verbatim when the dictionaries are the same `Arc`, otherwise
/// remapped with one lookup per distinct incoming value.
pub(crate) fn append_codes(
    codes: &mut Vec<u32>,
    dict: &mut Arc<StrDict>,
    src_codes: &[u32],
    src_dict: &Arc<StrDict>,
) {
    if Arc::ptr_eq(dict, src_dict) {
        codes.extend_from_slice(src_codes);
        return;
    }
    const UNSEEN: u32 = u32::MAX;
    let mut remap = vec![UNSEEN; src_dict.len()];
    codes.extend(src_codes.iter().map(|&c| {
        let slot = &mut remap[c as usize];
        if *slot == UNSEEN {
            *slot = intern_shared(dict, src_dict.value(c));
        }
        *slot
    }));
}

/// A typed column of values with a null bitmap.
///
/// The `AllNull` variant represents a column whose every lane is `NULL`
/// and whose type is unconstrained (e.g. the result of evaluating a bare
/// `NULL` literal over a batch) — it is compatible with any declared
/// column type, mirroring how [`Value::Null`] is typeless.
///
/// Equality is by lane: same variant, same null lanes, same value in every
/// lane (placeholders included) — for strings the *contents* behind the
/// codes, whichever dictionaries hold them.
#[derive(Clone)]
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
    /// Dictionary-coded string column: lane `i` is `dict.value(codes[i])`.
    /// Gathers, joins and concatenations of columns over one dictionary
    /// move codes and share the `Arc`; an append that brings a new value
    /// copies a shared dictionary first.
    Str {
        /// Lane codes into `dict` (the code of `""` at null lanes); every
        /// code is below `dict.len()`.
        codes: Vec<u32>,
        /// The distinct values the codes index.
        dict: Arc<StrDict>,
        /// Null lanes.
        nulls: NullMask,
    },
    /// An untyped all-null column.
    AllNull {
        /// Number of lanes.
        len: usize,
    },
}

/// What the derived impl prints, except that a string column prints its
/// lanes (`data: ["a", "b", "a"]`), not its codes and dictionary: the text
/// of a `Plan::Values` is hashed into Monte Carlo checkpoint fingerprints
/// and result-cache keys, so it must be a function of the lane contents —
/// the same in every process, whichever dictionary layout holds them.
impl std::fmt::Debug for ColumnVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        struct StrLanes<'a>(&'a [u32], &'a StrDict);
        impl std::fmt::Debug for StrLanes<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_list()
                    .entries(self.0.iter().map(|&c| self.1.value(c)))
                    .finish()
            }
        }
        let (name, data, nulls): (_, &dyn std::fmt::Debug, _) = match self {
            ColumnVec::Int { data, nulls } => ("Int", data, nulls),
            ColumnVec::Float { data, nulls } => ("Float", data, nulls),
            ColumnVec::Bool { data, nulls } => ("Bool", data, nulls),
            ColumnVec::Str { codes, dict, nulls } => ("Str", &StrLanes(codes, dict), nulls),
            ColumnVec::AllNull { len } => {
                return f.debug_struct("AllNull").field("len", len).finish()
            }
        };
        f.debug_struct(name)
            .field("data", data)
            .field("nulls", nulls)
            .finish()
    }
}

impl PartialEq for ColumnVec {
    fn eq(&self, other: &ColumnVec) -> bool {
        use ColumnVec::*;
        match (self, other) {
            (Int { data: a, nulls: na }, Int { data: b, nulls: nb }) => a == b && na == nb,
            (Float { data: a, nulls: na }, Float { data: b, nulls: nb }) => a == b && na == nb,
            (Bool { data: a, nulls: na }, Bool { data: b, nulls: nb }) => a == b && na == nb,
            (
                Str {
                    codes: a,
                    dict: da,
                    nulls: na,
                },
                Str {
                    codes: b,
                    dict: db,
                    nulls: nb,
                },
            ) => {
                if a.len() != b.len() || na != nb {
                    return false;
                }
                if Arc::ptr_eq(da, db) {
                    return a == b;
                }
                // Values are distinct within a dictionary, so each code of
                // `a` can equal at most one code of `b`: compare contents
                // once per distinct code, codes after that.
                const UNSEEN: u32 = u32::MAX;
                let mut twin = vec![UNSEEN; da.len()];
                a.iter().zip(b).all(|(&x, &y)| {
                    let slot = &mut twin[x as usize];
                    if *slot == UNSEEN && da.value(x) == db.value(y) {
                        *slot = y;
                    }
                    *slot == y
                })
            }
            (AllNull { len: a }, AllNull { len: b }) => a == b,
            _ => false,
        }
    }
}

impl ColumnVec {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int { data, .. } => data.len(),
            ColumnVec::Float { data, .. } => data.len(),
            ColumnVec::Bool { data, .. } => data.len(),
            ColumnVec::Str { codes, .. } => codes.len(),
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

    /// The null mask, or `None` for an untyped all-null column (every lane
    /// of which is null).
    pub(crate) fn nulls(&self) -> Option<&NullMask> {
        match self {
            ColumnVec::Int { nulls, .. }
            | ColumnVec::Float { nulls, .. }
            | ColumnVec::Bool { nulls, .. }
            | ColumnVec::Str { nulls, .. } => Some(nulls),
            ColumnVec::AllNull { .. } => None,
        }
    }

    /// The value at lane `i` (a string clones its dictionary entry's `Arc`).
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
            ColumnVec::Str { codes, dict, nulls } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(dict.value(codes[i])))
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
            (ColumnVec::Str { codes, dict, nulls }, Value::Str(x)) => {
                codes.push(intern_shared(dict, &x));
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
            (ColumnVec::Str { codes, dict, nulls }, Value::Null) => {
                codes.push(empty_code(dict));
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
                let mut dict = StrDict::default();
                let mut codes = Vec::with_capacity(n);
                for (i, v) in values.into_iter().enumerate() {
                    codes.push(match v {
                        Value::Str(x) => dict.intern(&x),
                        Value::Null => {
                            nulls.set_null(i);
                            dict.intern(&empty)
                        }
                        other => return Err(mixed_column_error(DataType::Str, &other)),
                    });
                }
                ColumnVec::Str {
                    codes,
                    dict: Arc::new(dict),
                    nulls,
                }
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
            Value::Str(s) => ColumnVec::str_constant(s, len, NullMask::all_valid(len)),
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
            ColumnVec::Str { codes, dict, nulls } => ColumnVec::Str {
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
                dict: Arc::clone(dict),
                nulls: nulls.gather(sel),
            },
            ColumnVec::AllNull { .. } => ColumnVec::AllNull { len: sel.len() },
        }
    }

    /// `len` lanes of the one string `s` under `nulls`.
    fn str_constant(s: &Arc<str>, len: usize, nulls: NullMask) -> ColumnVec {
        let mut dict = StrDict::default();
        if len > 0 {
            dict.intern(s);
        }
        ColumnVec::Str {
            codes: vec![0; len],
            dict: Arc::new(dict),
            nulls,
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
            DataType::Str => ColumnVec::str_constant(&Arc::from(""), len, nulls),
        }
    }

    /// The same lanes under another null mask (an untyped all-null column
    /// has none to replace).
    pub(crate) fn with_nulls(self, nulls: NullMask) -> ColumnVec {
        match self {
            ColumnVec::Int { data, .. } => ColumnVec::Int { data, nulls },
            ColumnVec::Float { data, .. } => ColumnVec::Float { data, nulls },
            ColumnVec::Bool { data, .. } => ColumnVec::Bool { data, nulls },
            ColumnVec::Str { codes, dict, .. } => ColumnVec::Str { codes, dict, nulls },
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
            (
                ColumnVec::Str {
                    codes: a,
                    dict: da,
                    nulls: na,
                },
                ColumnVec::Str {
                    codes: b,
                    dict: db,
                    nulls: nb,
                },
            ) => {
                let mut codes = Vec::with_capacity(a.len() + b.len());
                codes.extend_from_slice(a);
                let mut dict = Arc::clone(da);
                append_codes(&mut codes, &mut dict, b, db);
                ColumnVec::Str {
                    codes,
                    dict,
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
    /// payload — how Grace partitions' group-by outputs merge. Semantically
    /// identical to a left fold of [`ColumnVec::concat`] (including the
    /// untyped-all-null adoption rules and the all-valid null-mask fast
    /// path) but O(total)
    /// instead of O(total · parts).
    ///
    /// # Panics
    ///
    /// Like [`ColumnVec::concat`], if two parts carry different concrete
    /// types — impossible when every part is the same output column of one
    /// operator.
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
        let mismatched = |other: &ColumnVec| -> ! {
            unreachable!(
                "concat_many of mismatched column types {:?} and {:?}",
                Some(dtype),
                other.dtype()
            )
        };
        macro_rules! fill {
            ($variant:ident, $ty:ty, $zero:expr) => {{
                let mut data: Vec<$ty> = Vec::with_capacity(total);
                for p in &parts {
                    match p {
                        ColumnVec::$variant { data: d, .. } => data.extend_from_slice(d),
                        ColumnVec::AllNull { len } => data.resize(data.len() + len, $zero),
                        other => mismatched(other),
                    }
                }
                ColumnVec::$variant { data, nulls }
            }};
        }
        match dtype {
            DataType::Int => fill!(Int, i64, 0),
            DataType::Float => fill!(Float, f64, 0.0),
            DataType::Bool => fill!(Bool, bool, false),
            DataType::Str => {
                // Morsels of one expression over one batch share a
                // dictionary, so this appends codes; an untyped all-null
                // part holds the placeholder `""`.
                let mut codes: Vec<u32> = Vec::with_capacity(total);
                let mut dict = parts
                    .iter()
                    .find_map(|p| match p {
                        ColumnVec::Str { dict, .. } => Some(Arc::clone(dict)),
                        _ => None,
                    })
                    .expect("a part is typed Str");
                for p in &parts {
                    match p {
                        ColumnVec::Str {
                            codes: c, dict: d, ..
                        } => append_codes(&mut codes, &mut dict, c, d),
                        ColumnVec::AllNull { len } => {
                            let empty = empty_code(&mut dict);
                            codes.resize(codes.len() + len, empty);
                        }
                        other => mismatched(other),
                    }
                }
                ColumnVec::Str { codes, dict, nulls }
            }
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

    fn strs(values: &[Option<&str>]) -> ColumnVec {
        ColumnVec::from_values(
            values
                .iter()
                .map(|v| v.map_or(Value::Null, Value::str))
                .collect(),
        )
        .unwrap()
    }

    fn values(c: &ColumnVec) -> Vec<Value> {
        (0..c.len()).map(|i| c.value(i)).collect()
    }

    #[test]
    fn a_string_column_is_codes_over_distinct_values_in_first_seen_order() {
        let c = strs(&[Some("b"), None, Some("ü"), Some("b"), Some(""), Some("ü")]);
        let ColumnVec::Str { codes, dict, nulls } = &c else {
            panic!("expected Str, got {c:?}");
        };
        let distinct: Vec<&str> = dict.values().iter().map(|v| v.as_ref()).collect();
        // The NULL lane holds the placeholder `""`, which the later `""`
        // lane shares.
        assert_eq!(distinct, ["b", "", "ü"]);
        assert_eq!(codes, &[0, 1, 2, 0, 1, 2]);
        assert!(nulls.is_null(1) && !nulls.is_null(4));
        assert_eq!(dict.code_of("ü"), Some(2));
        assert_eq!(dict.code_of("nope"), None);
        for (v, h) in dict.values().iter().zip(dict.hashes()) {
            assert_eq!(*h, fnv1a(FNV_OFFSET, v.as_bytes()));
        }
        // `from_values` is repeated `push`, dictionary included.
        let mut pushed = ColumnVec::placeholders(0, DataType::Str);
        for v in values(&c) {
            pushed.push(v).unwrap();
        }
        assert_eq!(pushed, c);
        let ColumnVec::Str {
            codes: pc,
            dict: pd,
            ..
        } = &pushed
        else {
            panic!("expected Str");
        };
        assert_eq!((pc, pd.values()), (codes, dict.values()));
    }

    #[test]
    fn gathers_share_the_dictionary_and_appends_copy_it_on_write() {
        let c = strs(&[Some("a"), Some("b"), None, Some("c")]);
        let ColumnVec::Str { dict, .. } = &c else {
            panic!("expected Str");
        };
        let mut g = c.gather(&[3, 3, 2, 0]);
        let ColumnVec::Str {
            dict: gd, codes, ..
        } = &g
        else {
            panic!("expected Str");
        };
        // A `u32` gather plus one `Arc` clone; the dictionary may hold
        // values ("b") no gathered lane uses.
        assert!(Arc::ptr_eq(gd, dict));
        assert_eq!(codes, &[3, 3, 2, 0]);
        assert_eq!(
            values(&g),
            [
                Value::str("c"),
                Value::str("c"),
                Value::Null,
                Value::str("a")
            ]
        );
        // Pushing a value the dictionary holds shares it still; a new value
        // copies it, and the column gathered from keeps what it had.
        g.push(Value::str("b")).unwrap();
        g.push(Value::Null).unwrap();
        let ColumnVec::Str { dict: gd, .. } = &g else {
            panic!("expected Str");
        };
        assert!(Arc::ptr_eq(gd, dict));
        g.push(Value::str("new")).unwrap();
        let ColumnVec::Str { dict: gd, .. } = &g else {
            panic!("expected Str");
        };
        assert!(!Arc::ptr_eq(gd, dict));
        assert_eq!(dict.code_of("new"), None);
        assert_eq!(g.value(6), Value::str("new"));
        assert_eq!(values(&c).len(), 4);
        assert_eq!(c, strs(&[Some("a"), Some("b"), None, Some("c")]));
    }

    #[test]
    fn string_columns_concat_and_compare_by_content_across_dictionaries() {
        let a = strs(&[Some("x"), None, Some("y")]);
        let b = strs(&[Some("y"), Some("z"), Some("x"), None]);
        let joined = a.concat(&b);
        let want = strs(&[
            Some("x"),
            None,
            Some("y"),
            Some("y"),
            Some("z"),
            Some("x"),
            None,
        ]);
        assert_eq!(joined, want);
        assert_eq!(values(&joined), values(&want));
        // One lookup per distinct incoming value: "y" and "x" map onto the
        // codes `a` gave them, "z" is appended.
        let ColumnVec::Str { codes, dict, .. } = &joined else {
            panic!("expected Str");
        };
        assert_eq!(codes, &[0, 1, 2, 2, 3, 0, 1]);
        assert_eq!(dict.len(), 4);
        // gather ∘ concat = concat ∘ gather, whichever dictionaries result.
        let sel = [6u32, 0, 3, 4];
        assert_eq!(
            joined.gather(&sel),
            a.gather(&[1, 0]).concat(&b.gather(&[0, 1]))
        );
        assert_eq!(
            ColumnVec::concat_many(vec![a.clone(), ColumnVec::AllNull { len: 2 }, b.clone()]),
            a.concat(&ColumnVec::AllNull { len: 2 }).concat(&b)
        );
        // Same dictionary: codes are appended as they are.
        let twice = a.concat(&a.gather(&[2, 2]));
        let (
            ColumnVec::Str { dict: da, .. },
            ColumnVec::Str {
                dict: dt, codes, ..
            },
        ) = (&a, &twice)
        else {
            panic!("expected Str");
        };
        assert!(Arc::ptr_eq(da, dt));
        assert_eq!(codes, &[0, 1, 2, 2, 2]);

        // Equality is by lane content: codes and dictionary order are
        // representation.
        let shuffled = b.gather(&[2, 3, 0]);
        assert_eq!(a, shuffled);
        assert_ne!(a, strs(&[Some("x"), None, Some("z")]));
        assert_ne!(
            a,
            strs(&[Some("x"), Some(""), Some("y")]),
            "null lanes differ"
        );
        assert_ne!(a, strs(&[Some("x"), None]));
        // Two codes of one side may not stand for one value of the other.
        assert_ne!(strs(&[Some("p"), Some("q")]), strs(&[Some("p"), Some("p")]));
        assert_ne!(strs(&[Some("p"), Some("p")]), strs(&[Some("p"), Some("q")]));
        assert_eq!(
            ColumnVec::broadcast(&Value::str("k"), 3),
            strs(&[Some("k"), Some("k"), Some("k")])
        );
    }

    /// The debug text is hashed into checkpoint fingerprints and cache keys
    /// (`Plan::Values` inside a Monte Carlo query): it reads as the lanes,
    /// whatever the dictionary layout, and never shows the intern index.
    #[test]
    fn string_debug_text_is_the_lanes_not_the_dictionary() {
        let a = strs(&[Some("x"), None, Some("y"), Some("x")]);
        let nulls = a.nulls().unwrap();
        assert_eq!(
            format!("{a:?}"),
            format!("Str {{ data: [\"x\", \"\", \"y\", \"x\"], nulls: {nulls:?} }}")
        );
        // Same lanes over a larger, differently ordered dictionary.
        let wide = strs(&[Some("q"), Some("y"), Some("x"), None, Some("y"), Some("x")]);
        let b = wide.gather(&[2, 3, 4, 5]);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(format!("{a:#?}"), format!("{b:#?}"));
        let ColumnVec::Str { dict, .. } = &wide else {
            panic!("expected Str");
        };
        assert_eq!(
            format!("{dict:?}"),
            "StrDict { values: [\"q\", \"y\", \"x\", \"\"] }"
        );
        // The other variants print what a derived impl would.
        let ints = ColumnVec::broadcast(&Value::from(3), 2);
        let valid = ints.nulls().unwrap();
        assert_eq!(
            format!("{ints:?}"),
            format!("Int {{ data: [3, 3], nulls: {valid:?} }}")
        );
        assert_eq!(
            format!("{:?}", ColumnVec::AllNull { len: 2 }),
            "AllNull { len: 2 }"
        );
    }

    #[test]
    fn null_mask_unions_and_word_marks() {
        let mut m = NullMask::all_valid(200);
        for i in [0, 63, 64, 70, 130, 199] {
            m.set_null(i);
        }
        let mut other = NullMask::all_valid(200);
        other.set_null(5);
        other.set_null(70);
        let u = m.union(&other);
        for i in 0..200 {
            assert_eq!(u.is_null(i), m.is_null(i) || other.is_null(i));
        }
        let none = NullMask::all_valid(200);
        assert!(none.union(&none).words().is_none());
        assert_eq!(none.union(&other), other);
        let mut seen = Vec::new();
        u.for_each_null(|i| seen.push(i));
        assert_eq!(seen, [0, 5, 63, 64, 70, 130, 199]);
        let mut marked = NullMask::all_valid(130);
        marked.set_null_words(&[0, 0, 0]);
        assert!(marked.words().is_none());
        marked.set_null_words(&[1 << 9, 0, 2]);
        marked.set_null_words(&[1, 0, 0]);
        let mut seen = Vec::new();
        marked.for_each_null(|i| seen.push(i));
        assert_eq!(seen, [0, 9, 129]);
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
