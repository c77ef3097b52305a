//! Per-page column encodings: plain, RLE, bit-packed integers, and
//! dictionary strings.
//!
//! A page body is one encoded chunk of one column. The writer encodes
//! every candidate applicable to the column's type and keeps the smallest
//! — a deterministic, local decision recorded in the page header so the
//! reader needs no global state. Null lanes hold the same placeholder
//! values the in-memory [`ColumnVec`] uses (`0`, `0.0`, `false`, `""`)
//! and are encoded as ordinary values alongside a verbatim copy of the
//! null bitmap, so a decoded column compares equal (`PartialEq`) to the
//! column that was written — the property the differential suite leans on
//! for bit-identical paged vs in-memory query results. Floats are
//! encoded by bit pattern (`to_bits`), never re-parsed.
//!
//! Decoding writes straight into the caller's slice of the column's
//! final buffer (`LanesMut`): plain pages convert after one bounds
//! check, bit-packed streams are read through 64-bit little-endian
//! windows, runs are `fill`ed. The bit-at-a-time coder the format was
//! first written with is kept under `#[cfg(test)]` as the oracle the
//! word-wise one is property-tested against — same bit layout, same
//! bytes on disk.

use super::codec::{put_i64, put_str, put_u32, put_u64, Cursor};
use crate::query::column::{ColumnVec, NullMask, StrDict};
use crate::schema::DataType;
use std::collections::HashMap;
use std::sync::Arc;

/// How a page body is encoded. Tags are part of the on-disk format:
/// never renumber, only append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Values verbatim (floats by bit pattern, bools as a bitmap).
    Plain,
    /// Run-length: `(count, value)` pairs; wins on constant or sorted
    /// low-cardinality chunks.
    Rle,
    /// Frame-of-reference bit-packing for integers: a base plus
    /// fixed-width deltas.
    BitPack,
    /// Dictionary strings: distinct payloads once, lanes as bit-packed
    /// indices; wins on low-cardinality string chunks.
    Dict,
    /// An untyped all-null chunk (no body at all).
    AllNull,
}

impl Encoding {
    pub(crate) fn to_tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Rle => 1,
            Encoding::BitPack => 2,
            Encoding::Dict => 3,
            Encoding::AllNull => 4,
        }
    }

    pub(crate) fn from_tag(tag: u8) -> Option<Encoding> {
        match tag {
            0 => Some(Encoding::Plain),
            1 => Some(Encoding::Rle),
            2 => Some(Encoding::BitPack),
            3 => Some(Encoding::Dict),
            4 => Some(Encoding::AllNull),
            _ => None,
        }
    }
}

/// Column-type tag for an untyped all-null chunk (see
/// [`DataType::to_tag`] for the typed tags 0–3).
pub(crate) const ALL_NULL_TAG: u8 = 4;

// ---------------------------------------------------------------------------
// Bit packing
// ---------------------------------------------------------------------------
//
// Layout (unchanged since the first `MDEPAGE1` file): value `i` occupies
// bits `[i * width, (i + 1) * width)` of an LSB-first bit stream, bit `b`
// of the stream being bit `b % 8` of byte `b / 8`. A little-endian `u64`
// loaded at byte `k` therefore holds stream bits `[8k, 8k + 64)`, which is
// what lets both directions move whole words.

fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// Append `n` values of `width` bits each, through a 64-bit accumulator
/// flushed a word at a time.
fn pack_bits(values: impl Iterator<Item = u64>, n: usize, width: u32, out: &mut Vec<u8>) {
    debug_assert!(width <= 64);
    if width == 0 {
        return;
    }
    let end = out.len() + (n * width as usize).div_ceil(8);
    out.reserve(end - out.len() + 8);
    let mask = width_mask(width);
    let mut acc = 0u64;
    let mut filled = 0u32;
    for v in values.take(n) {
        let v = v & mask;
        acc |= v << filled;
        if filled + width >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            // The bits of `v` that did not fit the flushed word.
            acc = if filled == 0 { 0 } else { v >> (64 - filled) };
            filled = filled + width - 64;
        } else {
            filled += width;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes());
    out.truncate(end);
}

/// The little-endian word at `bytes[at..at + 8]`.
#[inline(always)]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
}

/// The `width` bits (`1..=64`) starting at stream bit `bit`, read through
/// the 64-bit window at their first byte plus, for the widths that can
/// straddle it, the byte after. `bytes` must extend 9 bytes past that
/// first byte.
#[inline(always)]
fn bits_at(bytes: &[u8], bit: usize, width: u32, mask: u64) -> u64 {
    let (at, shift) = (bit / 8, (bit % 8) as u32);
    let mut v = word_at(bytes, at) >> shift;
    if width > 56 && shift + width > 64 {
        v |= (bytes[at + 8] as u64) << (64 - shift);
    }
    v & mask
}

/// Decode `n` values of `width` bits (`width <= 64`, checked by the
/// caller) from `bytes`, exactly `ceil(n * width / 8)` long, handing each
/// to `emit(lane, value)`. Lanes whose 9-byte window lies inside `bytes`
/// are read in place; the last few are read from a zero-padded copy of the
/// stream's tail, so no read ever leaves the slice.
fn unpack_bits(bytes: &[u8], n: usize, width: u32, mut emit: impl FnMut(usize, u64)) {
    debug_assert!(width <= 64 && bytes.len() == (n * width as usize).div_ceil(8));
    if width == 0 {
        (0..n).for_each(|i| emit(i, 0));
        return;
    }
    let w = width as usize;
    let mask = width_mask(width);
    let in_place = match bytes.len().checked_sub(9) {
        // Lane `i` starts in byte `i * w / 8`.
        Some(last_start) => n.min((last_start * 8 + 7) / w + 1),
        None => 0,
    };
    for i in 0..in_place {
        emit(i, bits_at(bytes, i * w, width, mask));
    }
    if in_place < n {
        // Fewer than 9 bytes remain from the first tail lane's byte on.
        let from = in_place * w / 8;
        let mut tail = [0u8; 16];
        tail[..bytes.len() - from].copy_from_slice(&bytes[from..]);
        for i in in_place..n {
            emit(i, bits_at(&tail, i * w - from * 8, width, mask));
        }
    }
}

/// The bit-at-a-time coder the format was first written with, kept as the
/// oracle the word-wise coder is property-tested against.
#[cfg(test)]
mod bitwise_oracle {
    pub(super) fn pack_bits(values: &[u64], width: u32, out: &mut Vec<u8>) {
        if width == 0 {
            return;
        }
        let start = out.len();
        out.resize(start + (values.len() * width as usize).div_ceil(8), 0);
        let bytes = &mut out[start..];
        let mut bit = 0usize;
        for v in values {
            for k in 0..width as usize {
                if v >> k & 1 == 1 {
                    bytes[bit / 8] |= 1 << (bit % 8);
                }
                bit += 1;
            }
        }
    }

    pub(super) fn unpack_bits(bytes: &[u8], n: usize, width: u32) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut bit = 0usize;
        for _ in 0..n {
            let mut v = 0u64;
            for k in 0..width as usize {
                if bytes[bit / 8] >> (bit % 8) & 1 == 1 {
                    v |= 1 << k;
                }
                bit += 1;
            }
            out.push(v);
        }
        out
    }
}

fn width_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

// ---------------------------------------------------------------------------
// Run-length helper
// ---------------------------------------------------------------------------

/// Collect `(count, index-of-representative)` runs of adjacent equal
/// values under `eq`.
fn runs_of<T, F: Fn(&T, &T) -> bool>(data: &[T], eq: F) -> Vec<(u32, usize)> {
    let mut runs: Vec<(u32, usize)> = Vec::new();
    for (i, v) in data.iter().enumerate() {
        match runs.last_mut() {
            Some((count, rep)) if eq(&data[*rep], v) && *count < u32::MAX => *count += 1,
            _ => runs.push((1, i)),
        }
    }
    runs
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encode lanes `[start, start + len)` of `col` into a page body:
/// `dtype_tag, encoding_tag, has_nulls, [null words], data`. Returns the
/// winning encoding (for telemetry/tests).
pub(crate) fn encode_page_body(
    col: &ColumnVec,
    start: usize,
    len: usize,
    out: &mut Vec<u8>,
) -> Encoding {
    // Untyped all-null chunk: tag + encoding only.
    if let ColumnVec::AllNull { .. } = col {
        out.push(ALL_NULL_TAG);
        out.push(Encoding::AllNull.to_tag());
        out.push(0);
        return Encoding::AllNull;
    }
    let dtype = col.dtype().expect("typed column");
    out.push(dtype.to_tag());
    let enc_pos = out.len();
    out.push(0); // encoding tag, patched below
    let has_nulls = (start..start + len).any(|i| col.is_null(i));
    out.push(has_nulls as u8);
    if has_nulls {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in 0..len {
            if col.is_null(start + i) {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        for w in &words {
            put_u64(out, *w);
        }
    }
    let enc = match col {
        ColumnVec::Int { data, .. } => encode_int(&data[start..start + len], out),
        ColumnVec::Float { data, .. } => encode_float(&data[start..start + len], out),
        ColumnVec::Bool { data, .. } => encode_bool(&data[start..start + len], out),
        ColumnVec::Str { codes, dict, .. } => encode_str(&codes[start..start + len], dict, out),
        ColumnVec::AllNull { .. } => unreachable!(),
    };
    out[enc_pos] = enc.to_tag();
    enc
}

/// Encode each candidate, append the smallest to `out`, return its tag.
fn pick_smallest(out: &mut Vec<u8>, candidates: Vec<(Encoding, Vec<u8>)>) -> Encoding {
    let (enc, body) = candidates
        .into_iter()
        .min_by_key(|(_, b)| b.len())
        .expect("at least one candidate");
    out.extend_from_slice(&body);
    enc
}

fn encode_int(data: &[i64], out: &mut Vec<u8>) -> Encoding {
    let mut plain = Vec::with_capacity(data.len() * 8);
    for &v in data {
        put_i64(&mut plain, v);
    }

    let mut packed = Vec::new();
    let min = data.iter().copied().min().unwrap_or(0);
    let width = data
        .iter()
        .map(|&v| width_for(v.wrapping_sub(min) as u64))
        .max()
        .unwrap_or(0);
    put_i64(&mut packed, min);
    packed.push(width as u8);
    pack_bits(
        data.iter().map(|&v| v.wrapping_sub(min) as u64),
        data.len(),
        width,
        &mut packed,
    );

    let runs = runs_of(data, |a, b| a == b);
    let mut rle = Vec::with_capacity(4 + runs.len() * 12);
    put_u32(&mut rle, runs.len() as u32);
    for (count, rep) in &runs {
        put_u32(&mut rle, *count);
        put_i64(&mut rle, data[*rep]);
    }

    pick_smallest(
        out,
        vec![
            (Encoding::Plain, plain),
            (Encoding::BitPack, packed),
            (Encoding::Rle, rle),
        ],
    )
}

fn encode_float(data: &[f64], out: &mut Vec<u8>) -> Encoding {
    let mut plain = Vec::with_capacity(data.len() * 8);
    for &v in data {
        put_u64(&mut plain, v.to_bits());
    }

    let runs = runs_of(data, |a, b| a.to_bits() == b.to_bits());
    let mut rle = Vec::with_capacity(4 + runs.len() * 12);
    put_u32(&mut rle, runs.len() as u32);
    for (count, rep) in &runs {
        put_u32(&mut rle, *count);
        put_u64(&mut rle, data[*rep].to_bits());
    }

    pick_smallest(out, vec![(Encoding::Plain, plain), (Encoding::Rle, rle)])
}

fn encode_bool(data: &[bool], out: &mut Vec<u8>) -> Encoding {
    let mut plain = vec![0u8; data.len().div_ceil(8)];
    for (i, &v) in data.iter().enumerate() {
        if v {
            plain[i / 8] |= 1 << (i % 8);
        }
    }

    let runs = runs_of(data, |a, b| a == b);
    let mut rle = Vec::with_capacity(4 + runs.len() * 5);
    put_u32(&mut rle, runs.len() as u32);
    for (count, rep) in &runs {
        put_u32(&mut rle, *count);
        rle.push(data[*rep] as u8);
    }

    pick_smallest(out, vec![(Encoding::Plain, plain), (Encoding::Rle, rle)])
}

/// The dictionary candidate for a string chunk: the page's own
/// dictionary — the distinct payloads of *these* lanes in first-occurrence
/// order, so the bytes are a pure function of the lanes, whatever else the
/// column's dictionary holds — then the lanes as bit-packed indices into
/// it. The index is a hash map over the column's codes, so a
/// high-cardinality chunk costs O(lanes), not O(lanes x distinct).
fn dict_body(codes: &[u32], dict: &StrDict) -> Vec<u8> {
    let mut index: HashMap<u32, u64> = HashMap::new();
    let mut local: Vec<u32> = Vec::new();
    let indices: Vec<u64> = codes
        .iter()
        .map(|&c| {
            *index.entry(c).or_insert_with(|| {
                local.push(c);
                local.len() as u64 - 1
            })
        })
        .collect();
    let width = if local.len() <= 1 {
        0
    } else {
        width_for(local.len() as u64 - 1)
    };
    let mut dicted = Vec::new();
    put_u32(&mut dicted, local.len() as u32);
    for &c in &local {
        put_str(&mut dicted, dict.value(c));
    }
    dicted.push(width as u8);
    pack_bits(indices.into_iter(), codes.len(), width, &mut dicted);
    dicted
}

/// Values are distinct within a dictionary, so equal codes are exactly
/// equal strings: runs and the page dictionary come out as they would from
/// the strings themselves.
fn encode_str(codes: &[u32], dict: &StrDict, out: &mut Vec<u8>) -> Encoding {
    let mut plain = Vec::new();
    for &c in codes {
        put_str(&mut plain, dict.value(c));
    }

    let runs = runs_of(codes, |a, b| a == b);
    let mut rle = Vec::new();
    put_u32(&mut rle, runs.len() as u32);
    for (count, rep) in &runs {
        put_u32(&mut rle, *count);
        put_str(&mut rle, dict.value(codes[*rep]));
    }

    pick_smallest(
        out,
        vec![
            (Encoding::Plain, plain),
            (Encoding::Dict, dict_body(codes, dict)),
            (Encoding::Rle, rle),
        ],
    )
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The lanes of a column's final buffer that one page decodes into.
///
/// Every encoding is page-local (bit-pack bases, RLE runs and string
/// dictionaries are stored in the page itself) and a page's row offset
/// comes from the file's directory, so the pages of a column decode
/// independently into disjoint slices of one buffer — on one thread or
/// several, by the same routine, with the same bits. A string page decodes
/// into codes of its *own* dictionary ([`DecodedPage::Typed`]); the
/// assembler renumbers them into the column's when it absorbs the page.
pub(crate) enum LanesMut<'a> {
    Int(&'a mut [i64]),
    Float(&'a mut [f64]),
    Bool(&'a mut [bool]),
    Str(&'a mut [u32]),
}

impl<'a> LanesMut<'a> {
    fn len(&self) -> usize {
        match self {
            LanesMut::Int(s) => s.len(),
            LanesMut::Float(s) => s.len(),
            LanesMut::Bool(s) => s.len(),
            LanesMut::Str(s) => s.len(),
        }
    }

    fn dtype(&self) -> DataType {
        match self {
            LanesMut::Int(_) => DataType::Int,
            LanesMut::Float(_) => DataType::Float,
            LanesMut::Bool(_) => DataType::Bool,
            LanesMut::Str(_) => DataType::Str,
        }
    }

    /// Split off the first `n` lanes, leaving the rest in `self`.
    ///
    /// # Panics
    ///
    /// If fewer than `n` lanes remain. [`PagedStore::open`] checks that a
    /// column's pages sum to its row count before any page is read.
    ///
    /// [`PagedStore::open`]: super::PagedStore::open
    pub(crate) fn split_front(&mut self, n: usize) -> LanesMut<'a> {
        macro_rules! split {
            ($variant:ident, $s:ident) => {{
                let (head, rest) = std::mem::take($s).split_at_mut(n);
                *$s = rest;
                LanesMut::$variant(head)
            }};
        }
        match self {
            LanesMut::Int(s) => split!(Int, s),
            LanesMut::Float(s) => split!(Float, s),
            LanesMut::Bool(s) => split!(Bool, s),
            LanesMut::Str(s) => split!(Str, s),
        }
    }
}

/// What [`decode_page`] reports about the page it wrote into its lanes.
pub(crate) enum DecodedPage {
    /// An untyped all-null chunk: no lane was written.
    AllNull,
    /// A typed chunk.
    Typed {
        /// The null bitmap words (bit `i` = lane `i` of the page) when the
        /// page declared nulls.
        nulls: Option<Vec<u64>>,
        /// A string page's own dictionary — what the codes it wrote into
        /// its lanes index; empty for every other type.
        strings: Vec<Arc<str>>,
    },
}

/// Decode one page body (positioned after the page header) straight into
/// `out`, whose length is the page's value count and whose type is the
/// column's declared schema type. Uses only page-local state; cross-page
/// invariants are checked by [`ColumnAssembler::absorb`].
pub(crate) fn decode_page(cur: &mut Cursor<'_>, out: LanesMut<'_>) -> crate::Result<DecodedPage> {
    let n_values = out.len();
    let dtype_tag = cur.u8()?;
    let enc_tag = cur.u8()?;
    let enc = Encoding::from_tag(enc_tag)
        .ok_or_else(|| cur.corrupt(format!("unknown encoding tag {enc_tag}")))?;
    let has_nulls = match cur.u8()? {
        0 => false,
        1 => true,
        other => return Err(cur.corrupt(format!("bad null flag {other}"))),
    };

    if dtype_tag == ALL_NULL_TAG {
        if enc != Encoding::AllNull || has_nulls {
            return Err(cur.corrupt("malformed all-null chunk"));
        }
        return Ok(DecodedPage::AllNull);
    }
    let dtype = DataType::from_tag(dtype_tag)
        .ok_or_else(|| cur.corrupt(format!("unknown column type tag {dtype_tag}")))?;

    let nulls = if has_nulls {
        let words = cur.bytes(n_values.div_ceil(64) * 8)?.chunks_exact(8);
        Some(words.map(|w| word_at(w, 0)).collect())
    } else {
        None
    };
    let mut strings = Vec::new();
    match (dtype, out) {
        (DataType::Int, LanesMut::Int(out)) => decode_int(cur, enc, out)?,
        (DataType::Float, LanesMut::Float(out)) => decode_float(cur, enc, out)?,
        (DataType::Bool, LanesMut::Bool(out)) => decode_bool(cur, enc, out)?,
        (DataType::Str, LanesMut::Str(out)) => strings = decode_str(cur, enc, out)?,
        (found, out) => {
            return Err(cur.corrupt(format!(
                "column type {found} does not match declared schema type {}",
                out.dtype()
            )))
        }
    }
    Ok(DecodedPage::Typed { nulls, strings })
}

/// Rebuilds one column from its pages: owns the column's final buffer,
/// hands out its lanes for [`decode_page`] to fill, and folds each page's
/// report in — in page order — to enforce the cross-page invariants and
/// reproduce the null mask verbatim (materialized iff any page carried
/// nulls), so the result is `PartialEq`-identical to the column that was
/// written.
pub(crate) struct ColumnAssembler {
    /// Declared-type buffer at full length, placeholder values until
    /// decoded.
    col: ColumnVec,
    filled: usize,
    /// Whether the pages so far were untyped all-null chunks (`None`
    /// before the first page).
    all_null: Option<bool>,
    nulls: Option<Vec<u64>>,
}

impl ColumnAssembler {
    /// An assembler for a column of `declared` type with `total` rows
    /// across all pages.
    pub(crate) fn new(declared: DataType, total: usize) -> Self {
        let col = match declared {
            // Codes are meaningless until their page is absorbed, so the
            // dictionary starts empty and grows in page order.
            DataType::Str => ColumnVec::Str {
                codes: vec![0; total],
                dict: Arc::new(StrDict::default()),
                nulls: NullMask::all_valid(total),
            },
            other => ColumnVec::placeholders(total, other),
        };
        ColumnAssembler {
            col,
            filled: 0,
            all_null: None,
            nulls: None,
        }
    }

    /// The whole buffer; the pager splits it by the directory's value
    /// counts.
    pub(crate) fn lanes_mut(&mut self) -> LanesMut<'_> {
        match &mut self.col {
            ColumnVec::Int { data, .. } => LanesMut::Int(data),
            ColumnVec::Float { data, .. } => LanesMut::Float(data),
            ColumnVec::Bool { data, .. } => LanesMut::Bool(data),
            ColumnVec::Str { codes, .. } => LanesMut::Str(codes),
            ColumnVec::AllNull { .. } => unreachable!("placeholders are typed"),
        }
    }

    /// Decode one page body into the next `n_values` lanes and absorb it.
    #[cfg(test)]
    pub(crate) fn push_page(&mut self, cur: &mut Cursor<'_>, n_values: usize) -> crate::Result<()> {
        let filled = self.filled;
        let mut lanes = self.lanes_mut();
        lanes.split_front(filled);
        let page = decode_page(cur, lanes.split_front(n_values))?;
        self.absorb(page, n_values, cur.path(), cur.page())
    }

    /// Account for a decoded page of `n_values` lanes, enforcing the
    /// cross-page invariants (declared row count, one kind of chunk per
    /// column). Pages must be absorbed in page order — null-mask placement
    /// and the renumbering of a string page's codes into the column's
    /// dictionary (one lookup per entry of the page's) depend on `filled`.
    pub(crate) fn absorb(
        &mut self,
        page: DecodedPage,
        n_values: usize,
        path: &str,
        page_no: u64,
    ) -> crate::Result<()> {
        let corrupt = |reason: String| crate::McdbError::PageCorrupt {
            path: path.to_string(),
            page: page_no,
            reason,
        };
        let total = self.col.len();
        if self.filled + n_values > total {
            return Err(corrupt(format!(
                "page overflows column: {} + {n_values} rows > {total} declared",
                self.filled
            )));
        }
        let all_null = matches!(page, DecodedPage::AllNull);
        match self.all_null.replace(all_null) {
            Some(true) if !all_null => {
                return Err(corrupt("column type tag changed between pages".into()))
            }
            Some(false) if all_null => {
                return Err(corrupt("all-null chunk in a typed column".into()))
            }
            _ => {}
        }
        if let DecodedPage::Typed { nulls, strings } = page {
            if let Some(words) = nulls {
                let global = self
                    .nulls
                    .get_or_insert_with(|| vec![0u64; total.div_ceil(64)]);
                or_null_words(global, self.filled, n_values, &words);
            }
            if let ColumnVec::Str { codes, dict, .. } = &mut self.col {
                let dict = Arc::make_mut(dict);
                let renumber: Vec<u32> = strings.iter().map(|s| dict.intern(s)).collect();
                let unchanged = renumber.iter().enumerate().all(|(i, &c)| c as usize == i);
                if !unchanged {
                    for c in &mut codes[self.filled..self.filled + n_values] {
                        *c = renumber[*c as usize];
                    }
                }
            }
        }
        self.filled += n_values;
        Ok(())
    }

    /// Produce the finished column, checking the row count.
    pub(crate) fn finish(self, path: &str) -> crate::Result<ColumnVec> {
        let total = self.col.len();
        if self.filled != total {
            return Err(crate::McdbError::PageCorrupt {
                path: path.to_string(),
                page: u64::MAX,
                reason: format!("column has {} rows, file declares {total}", self.filled),
            });
        }
        if self.all_null == Some(true) {
            return Ok(ColumnVec::AllNull { len: total });
        }
        let nulls = NullMask::from_words(total, self.nulls);
        Ok(self.col.with_nulls(nulls))
    }
}

/// OR a page's null bitmap (`n` lanes, bit `i` of `words` = page lane `i`)
/// into the column's bitmap at lane `first`, a word at a time: straight
/// when the page starts on a word boundary, as two shifted halves when it
/// does not. Bits past lane `n` of the last page word are ignored.
fn or_null_words(global: &mut [u64], first: usize, n: usize, words: &[u64]) {
    let (base, shift) = (first / 64, (first % 64) as u32);
    for (k, &word) in words.iter().enumerate() {
        let live = (n - k * 64).min(64) as u32;
        let word = word & width_mask(live);
        global[base + k] |= word << shift;
        if shift != 0 && word >> (64 - shift) != 0 {
            global[base + k + 1] |= word >> (64 - shift);
        }
    }
}

/// Fill `out` from `(count, value)` runs, `value` read by `read`.
fn decode_runs<T: Clone>(
    cur: &mut Cursor<'_>,
    out: &mut [T],
    mut read: impl FnMut(&mut Cursor<'_>) -> crate::Result<T>,
) -> crate::Result<()> {
    let n = out.len();
    let n_runs = cur.u32()? as usize;
    if n_runs > n {
        return Err(cur.corrupt(format!("{n_runs} runs for {n} values")));
    }
    let mut at = 0;
    for _ in 0..n_runs {
        let count = cur.u32()? as usize;
        let v = read(cur)?;
        if count > n - at {
            return Err(cur.corrupt("run overflows chunk"));
        }
        out[at..at + count].fill(v);
        at += count;
    }
    if at != n {
        return Err(cur.corrupt("runs cover fewer values than chunk declares"));
    }
    Ok(())
}

/// The byte stream of `n` bit-packed lanes after a width byte, with the
/// width checked and the stream's length bounds-checked once.
fn packed_stream<'a>(cur: &mut Cursor<'a>, n: usize) -> crate::Result<(&'a [u8], u32)> {
    let width = cur.u8()? as u32;
    if width > 64 {
        return Err(cur.corrupt(format!("bit width {width} exceeds 64")));
    }
    Ok((cur.bytes((n * width as usize).div_ceil(8))?, width))
}

fn decode_int(cur: &mut Cursor<'_>, enc: Encoding, out: &mut [i64]) -> crate::Result<()> {
    match enc {
        Encoding::Plain => {
            let bytes = cur.bytes(out.len() * 8)?;
            for (o, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                *o = word_at(b, 0) as i64;
            }
        }
        Encoding::BitPack => {
            let min = cur.i64()?;
            let (bytes, width) = packed_stream(cur, out.len())?;
            unpack_bits(bytes, out.len(), width, |i, d| {
                out[i] = min.wrapping_add(d as i64)
            });
        }
        Encoding::Rle => decode_runs(cur, out, |cur| cur.i64())?,
        other => return Err(cur.corrupt(format!("encoding {other:?} invalid for Int"))),
    }
    Ok(())
}

fn decode_float(cur: &mut Cursor<'_>, enc: Encoding, out: &mut [f64]) -> crate::Result<()> {
    match enc {
        Encoding::Plain => {
            let bytes = cur.bytes(out.len() * 8)?;
            for (o, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                *o = f64::from_bits(word_at(b, 0));
            }
        }
        Encoding::Rle => decode_runs(cur, out, |cur| Ok(f64::from_bits(cur.u64()?)))?,
        other => return Err(cur.corrupt(format!("encoding {other:?} invalid for Float"))),
    }
    Ok(())
}

fn decode_bool(cur: &mut Cursor<'_>, enc: Encoding, out: &mut [bool]) -> crate::Result<()> {
    match enc {
        Encoding::Plain => {
            let bytes = cur.bytes(out.len().div_ceil(8))?;
            for (lanes, byte) in out.chunks_mut(8).zip(bytes) {
                for (k, o) in lanes.iter_mut().enumerate() {
                    *o = byte >> k & 1 == 1;
                }
            }
        }
        Encoding::Rle => decode_runs(cur, out, |cur| Ok(cur.u8()? != 0))?,
        other => return Err(cur.corrupt(format!("encoding {other:?} invalid for Bool"))),
    }
    Ok(())
}

/// Decode a string page into codes of the page's own dictionary, which is
/// returned: the stored one for a `Dict` page, one entry per run or per
/// lane otherwise (the assembler's intern folds repeats).
fn decode_str(
    cur: &mut Cursor<'_>,
    enc: Encoding,
    out: &mut [u32],
) -> crate::Result<Vec<Arc<str>>> {
    let n = out.len();
    let mut dict: Vec<Arc<str>> = Vec::new();
    match enc {
        Encoding::Plain => {
            for (i, o) in out.iter_mut().enumerate() {
                dict.push(Arc::from(cur.str()?));
                *o = i as u32;
            }
        }
        Encoding::Dict => {
            let n_dict = cur.u32()? as usize;
            if n_dict > n {
                return Err(cur.corrupt(format!("{n_dict} dictionary entries for {n} values")));
            }
            dict.reserve(n_dict);
            for _ in 0..n_dict {
                dict.push(Arc::from(cur.str()?));
            }
            let (bytes, width) = packed_stream(cur, n)?;
            let mut out_of_range = None;
            unpack_bits(bytes, n, width, |i, idx| {
                if idx < n_dict as u64 {
                    out[i] = idx as u32;
                } else {
                    out_of_range = out_of_range.or(Some(idx));
                }
            });
            if let Some(idx) = out_of_range {
                return Err(cur.corrupt(format!("dictionary index {idx} out of range")));
            }
        }
        Encoding::Rle => decode_runs(cur, out, |cur| {
            dict.push(Arc::from(cur.str()?));
            Ok(dict.len() as u32 - 1)
        })?,
        other => return Err(cur.corrupt(format!("encoding {other:?} invalid for Str"))),
    }
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn round_trip(col: &ColumnVec) -> (Encoding, ColumnVec) {
        let mut body = Vec::new();
        let enc = encode_page_body(col, 0, col.len(), &mut body);
        let declared = col.dtype().unwrap_or(DataType::Int);
        let mut asm = ColumnAssembler::new(declared, col.len());
        let mut cur = Cursor::new(&body, "mem", 0);
        asm.push_page(&mut cur, col.len()).unwrap();
        (enc, asm.finish("mem").unwrap())
    }

    #[test]
    fn int_encodings_round_trip_exactly() {
        // Dense ascending ints → bit-pack wins.
        let c = ColumnVec::from_values((0..500).map(Value::from).collect()).unwrap();
        let (enc, back) = round_trip(&c);
        assert_eq!(enc, Encoding::BitPack);
        assert_eq!(back, c);
        // Constant ints → zero-width bit-pack wins (9 bytes total).
        let c = ColumnVec::from_values(vec![Value::from(42); 300]).unwrap();
        let (enc, back) = round_trip(&c);
        assert_eq!(enc, Encoding::BitPack);
        assert_eq!(back, c);
        // Long runs of widely spread values → RLE wins.
        let mut vals = vec![Value::from(0i64); 150];
        vals.extend(vec![Value::from(i64::MAX / 2); 150]);
        let c = ColumnVec::from_values(vals).unwrap();
        let (enc, back) = round_trip(&c);
        assert_eq!(enc, Encoding::Rle);
        assert_eq!(back, c);
        // Extremes survive frame-of-reference packing.
        let c = ColumnVec::from_values(vec![
            Value::from(i64::MIN),
            Value::from(i64::MAX),
            Value::Null,
            Value::from(0),
        ])
        .unwrap();
        let (_, back) = round_trip(&c);
        assert_eq!(back, c);
    }

    #[test]
    fn float_bits_survive_including_negative_zero() {
        let c = ColumnVec::from_values(vec![
            Value::from(-0.0),
            Value::from(0.0),
            Value::from(f64::INFINITY),
            Value::Null,
            Value::from(1.5e-300),
        ])
        .unwrap();
        let (_, back) = round_trip(&c);
        // PartialEq on f64 treats -0.0 == 0.0; check bits explicitly.
        match (&back, &c) {
            (ColumnVec::Float { data: a, .. }, ColumnVec::Float { data: b, .. }) => {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => panic!("expected float columns"),
        }
        assert_eq!(back, c);
    }

    #[test]
    fn strings_pick_dictionary_on_low_cardinality() {
        let vals: Vec<Value> = (0..400)
            .map(|i| Value::str(["alpha", "beta", "gamma"][i % 3]))
            .collect();
        let c = ColumnVec::from_values(vals).unwrap();
        let (enc, back) = round_trip(&c);
        assert_eq!(enc, Encoding::Dict);
        assert_eq!(back, c);
    }

    #[test]
    fn bools_and_all_null_round_trip() {
        let c = ColumnVec::from_values(
            (0..130)
                .map(|i| {
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::from(i % 2 == 0)
                    }
                })
                .collect(),
        )
        .unwrap();
        let (_, back) = round_trip(&c);
        assert_eq!(back, c);

        let c = ColumnVec::AllNull { len: 64 };
        let (enc, back) = round_trip(&c);
        assert_eq!(enc, Encoding::AllNull);
        assert_eq!(back, c);
    }

    #[test]
    fn null_mask_reproduced_verbatim() {
        // No nulls → decoded mask must be the un-materialized fast path
        // (PartialEq distinguishes None from Some(all-zero)).
        let c = ColumnVec::from_values((0..10).map(Value::from).collect()).unwrap();
        let (_, back) = round_trip(&c);
        assert_eq!(back, c);
        match back {
            ColumnVec::Int { nulls, .. } => assert!(nulls.words().is_none()),
            _ => panic!(),
        }
    }

    #[test]
    fn multi_page_assembly_spans_word_boundaries() {
        let vals: Vec<Value> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::from(i)
                }
            })
            .collect();
        let c = ColumnVec::from_values(vals).unwrap();
        // Split at a non-multiple-of-64 boundary.
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        encode_page_body(&c, 0, 77, &mut b1);
        encode_page_body(&c, 77, 123, &mut b2);
        let mut asm = ColumnAssembler::new(DataType::Int, 200);
        asm.push_page(&mut Cursor::new(&b1, "mem", 0), 77).unwrap();
        asm.push_page(&mut Cursor::new(&b2, "mem", 1), 123).unwrap();
        assert_eq!(asm.finish("mem").unwrap(), c);
    }

    #[test]
    fn corrupt_bodies_surface_typed_errors() {
        let c = ColumnVec::from_values((0..50).map(Value::from).collect()).unwrap();
        let mut body = Vec::new();
        encode_page_body(&c, 0, 50, &mut body);
        // Truncated body.
        let mut asm = ColumnAssembler::new(DataType::Int, 50);
        let short = &body[..body.len() - 3];
        let err = asm
            .push_page(&mut Cursor::new(short, "mem", 0), 50)
            .unwrap_err();
        assert!(matches!(err, crate::McdbError::PageCorrupt { .. }));
        // Unknown encoding tag.
        let mut bad = body.clone();
        bad[1] = 99;
        let mut asm = ColumnAssembler::new(DataType::Int, 50);
        let err = asm
            .push_page(&mut Cursor::new(&bad, "mem", 0), 50)
            .unwrap_err();
        assert!(matches!(err, crate::McdbError::PageCorrupt { .. }));
    }

    // -----------------------------------------------------------------
    // Coder properties (CI runs these before the unit and differential
    // suites: `cargo test -p mde-mcdb storage::encoding`)
    // -----------------------------------------------------------------

    use mde_numeric::rng::{chaos_seed, rng_from_seed};

    const LANE_COUNTS: [usize; 10] = [0, 1, 7, 8, 9, 63, 64, 65, 2_044, 13_000];

    #[test]
    fn wordwise_coder_matches_the_bitwise_oracle() {
        let mut rng = rng_from_seed(chaos_seed());
        for width in 0..=64u32 {
            for n in LANE_COUNTS {
                // Values use the full width, with the extremes present.
                let values: Vec<u64> = (0..n)
                    .map(|i| match i % 5 {
                        0 => width_mask(width),
                        1 => 0,
                        _ => rng.gen::<u64>() & width_mask(width),
                    })
                    .collect();
                let mut want = vec![0xEE]; // packing appends
                bitwise_oracle::pack_bits(&values, width, &mut want);
                let mut got = vec![0xEE];
                pack_bits(values.iter().copied(), n, width, &mut got);
                assert_eq!(got, want, "packed bytes differ: width {width}, {n} lanes");

                let stream = &got[1..];
                assert_eq!(stream.len(), (n * width as usize).div_ceil(8));
                let mut back = vec![u64::MAX; n];
                unpack_bits(stream, n, width, |i, v| back[i] = v);
                assert_eq!(back, values, "round trip: width {width}, {n} lanes");
                assert_eq!(
                    back,
                    bitwise_oracle::unpack_bits(stream, n, width),
                    "oracle decode: width {width}, {n} lanes"
                );
            }
        }
    }

    #[test]
    fn packing_ignores_bits_above_the_width() {
        // The oracle only ever looked at the low `width` bits of a value.
        let values = [u64::MAX, 0x1234_5678_9ABC_DEF0, 7];
        for width in [1u32, 5, 13, 33, 63] {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            bitwise_oracle::pack_bits(&values, width, &mut want);
            pack_bits(values.iter().copied(), values.len(), width, &mut got);
            assert_eq!(got, want, "width {width}");
        }
    }

    /// One column per dtype/encoding pair the writer can choose, NULLs
    /// included.
    fn coder_fixture(n: usize) -> Vec<(&'static str, ColumnVec)> {
        let nullable = |i: usize, v: Value| if i % 11 == 3 { Value::Null } else { v };
        let col = |vals: Vec<Value>| ColumnVec::from_values(vals).unwrap();
        vec![
            (
                "int bitpack",
                col((0..n)
                    .map(|i| nullable(i, Value::from((i % 7) as i64)))
                    .collect()),
            ),
            (
                "int plain",
                col((0..n)
                    .map(|i| Value::from((i as i64).wrapping_mul(0x5851_F42D_4C95_7F2D)))
                    .collect()),
            ),
            (
                "int rle",
                col((0..n)
                    .map(|i| {
                        Value::from(if i < n / 2 {
                            i64::MIN / 3
                        } else {
                            i64::MAX / 3
                        })
                    })
                    .collect()),
            ),
            (
                "float plain",
                col((0..n)
                    .map(|i| {
                        nullable(
                            i,
                            Value::from(if i == 0 { -0.0 } else { i as f64 * 0.25 - 3.0 }),
                        )
                    })
                    .collect()),
            ),
            ("float rle", col(vec![Value::from(1.5); n])),
            (
                "bool plain",
                col((0..n)
                    .map(|i| nullable(i, Value::from(i % 3 == 0)))
                    .collect()),
            ),
            ("bool rle", col(vec![Value::from(true); n])),
            (
                "str dict",
                col((0..n)
                    .map(|i| nullable(i, Value::str(["alpha", "beta", "gamma"][i % 3])))
                    .collect()),
            ),
            (
                "str plain",
                col((0..n).map(|i| Value::str(format!("v{i}"))).collect()),
            ),
            ("str rle", col(vec![Value::str("same"); n])),
            ("all null", ColumnVec::AllNull { len: n }),
        ]
    }

    #[test]
    fn every_truncation_of_a_valid_body_is_a_typed_error() {
        for n in [1usize, 9, 64, 130] {
            for (what, c) in coder_fixture(n) {
                let mut body = Vec::new();
                encode_page_body(&c, 0, n, &mut body);
                let declared = c.dtype().unwrap_or(DataType::Int);
                let mut whole = ColumnAssembler::new(declared, n);
                whole
                    .push_page(&mut Cursor::new(&body, "mem", 0), n)
                    .unwrap();
                assert_eq!(whole.finish("mem").unwrap(), c, "{what}, {n} lanes");
                for cut in 0..body.len() {
                    let mut asm = ColumnAssembler::new(declared, n);
                    let err = asm
                        .push_page(&mut Cursor::new(&body[..cut], "mem", 3), n)
                        .expect_err(&format!("{what}: {cut} of {} bytes decoded", body.len()));
                    assert!(
                        matches!(err, crate::McdbError::PageCorrupt { page: 3, .. }),
                        "{what} cut at {cut}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn hostile_page_fields_are_typed_errors() {
        let ints = ColumnVec::from_values((0..50).map(Value::from).collect()).unwrap();
        let mut body = Vec::new();
        assert_eq!(encode_page_body(&ints, 0, 50, &mut body), Encoding::BitPack);
        let decode = |body: &[u8], declared| {
            ColumnAssembler::new(declared, 50).push_page(&mut Cursor::new(body, "mem", 0), 50)
        };
        // Bit width above 64 (the width byte follows tag, encoding, null
        // flag and the 8-byte base).
        let mut wide = body.clone();
        wide[11] = 65;
        let err = decode(&wide, DataType::Int).unwrap_err();
        assert!(err.to_string().contains("bit width 65"), "{err}");
        // A page of another type than the schema declares.
        let err = decode(&body, DataType::Float).unwrap_err();
        assert!(err.to_string().contains("declared schema type"), "{err}");
        // A typed page after an all-null one, and the reverse.
        let mut nulls = Vec::new();
        encode_page_body(&ColumnVec::AllNull { len: 50 }, 0, 50, &mut nulls);
        let mut asm = ColumnAssembler::new(DataType::Int, 100);
        asm.push_page(&mut Cursor::new(&nulls, "mem", 0), 50)
            .unwrap();
        let err = asm
            .push_page(&mut Cursor::new(&body, "mem", 1), 50)
            .unwrap_err();
        assert!(err.to_string().contains("changed between pages"), "{err}");
        let mut asm = ColumnAssembler::new(DataType::Int, 100);
        asm.push_page(&mut Cursor::new(&body, "mem", 0), 50)
            .unwrap();
        let err = asm
            .push_page(&mut Cursor::new(&nulls, "mem", 1), 50)
            .unwrap_err();
        assert!(err.to_string().contains("all-null chunk"), "{err}");
        // Fewer pages than rows.
        let mut asm = ColumnAssembler::new(DataType::Int, 100);
        asm.push_page(&mut Cursor::new(&body, "mem", 0), 50)
            .unwrap();
        assert!(asm.finish("mem").is_err());
    }

    #[test]
    fn null_bits_past_a_pages_last_lane_are_ignored() {
        let c = ColumnVec::from_values(
            (0..5)
                .map(|i| if i == 2 { Value::Null } else { Value::from(i) })
                .collect(),
        )
        .unwrap();
        let mut body = Vec::new();
        encode_page_body(&c, 0, 5, &mut body);
        // The null word follows tag, encoding and null flag; set every bit
        // above lane 4.
        body[3] |= 0xE0;
        body[4..11].fill(0xFF);
        let rest = ColumnVec::from_values((0..70).map(Value::from).collect()).unwrap();
        let mut tail = Vec::new();
        encode_page_body(&rest, 0, 70, &mut tail);
        let mut asm = ColumnAssembler::new(DataType::Int, 75);
        asm.push_page(&mut Cursor::new(&body, "mem", 0), 5).unwrap();
        asm.push_page(&mut Cursor::new(&tail, "mem", 1), 70)
            .unwrap();
        let got = asm.finish("mem").unwrap();
        assert!((0..75).all(|i| got.is_null(i) == (i == 2)));
    }

    #[test]
    fn in_place_decode_is_bit_identical_to_the_written_batch() {
        use crate::query::batch::Batch;
        use crate::storage::{BufferPool, PagedStore};
        use crate::table::Table;

        let mut rng = rng_from_seed(chaos_seed());
        let n = rng.gen_range(1_500..2_200);
        let table = Table::build(
            "T",
            &[
                ("K", DataType::Int),
                ("V", DataType::Float),
                ("TAG", DataType::Str),
                ("OK", DataType::Bool),
            ],
        )
        .rows((0..n).map(|i| {
            let k: i64 = rng.gen_range(-500..500);
            let mut null = |v: Value| {
                if rng.gen_range(0..9) == 0 {
                    Value::Null
                } else {
                    v
                }
            };
            vec![
                null(Value::from(k)),
                null(Value::from(if i % 97 == 0 {
                    -0.0
                } else {
                    i as f64 * 0.25 - 3.0
                })),
                null(Value::str(["alpha", "beta", "gamma"][i % 3])),
                null(Value::from(i % 2 == 0)),
            ]
        }))
        .finish()
        .unwrap();
        let batch = (*table.batch()).clone();
        let dir = std::env::temp_dir().join(format!("mde_coder_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.mdet");
        PagedStore::write(&path, "T", &batch, 256).unwrap();
        let store = PagedStore::open(&path, BufferPool::new(16)).unwrap();
        assert!(
            store.n_pages() > 16,
            "fixture must span many pages per column"
        );

        let bits = |b: &Batch| -> Vec<Vec<u64>> {
            b.columns()
                .iter()
                .map(|c| {
                    (0..c.len())
                        .map(|i| match c.value(i) {
                            Value::Null => u64::MAX - 1,
                            Value::Int(v) => v as u64,
                            Value::Float(v) => v.to_bits(),
                            Value::Bool(v) => v as u64,
                            Value::Str(s) => s.len() as u64,
                        })
                        .collect()
                })
                .collect()
        };
        let back = store.read_batch().unwrap();
        assert_eq!(back, batch);
        assert_eq!(bits(&back), bits(&batch));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The dictionary builder this module first shipped: a linear search
    /// of the dictionary per lane, packed bit by bit.
    fn dict_body_oracle(data: &[Arc<str>]) -> Vec<u8> {
        let mut dict: Vec<&Arc<str>> = Vec::new();
        let mut indices = Vec::with_capacity(data.len());
        for v in data {
            let idx = match dict.iter().position(|d| d.as_ref() == v.as_ref()) {
                Some(i) => i,
                None => {
                    dict.push(v);
                    dict.len() - 1
                }
            };
            indices.push(idx as u64);
        }
        let width = if dict.len() <= 1 {
            0
        } else {
            width_for(dict.len() as u64 - 1)
        };
        let mut dicted = Vec::new();
        put_u32(&mut dicted, dict.len() as u32);
        for d in &dict {
            put_str(&mut dicted, d);
        }
        dicted.push(width as u8);
        bitwise_oracle::pack_bits(&indices, width, &mut dicted);
        dicted
    }

    #[test]
    fn hashed_dictionary_writes_the_bytes_the_linear_one_did() {
        // The chaos fixture's TAG column, a one-value chunk, and a
        // high-cardinality chunk with repeats.
        let chunks: Vec<Vec<Arc<str>>> = vec![
            (0..600)
                .map(|i| Arc::from(["alpha", "beta", "gamma"][i % 3]))
                .collect(),
            vec![Arc::from("only"); 40],
            (0..3_000)
                .map(|i| Arc::from(format!("k{}", (i * 7919) % 1_201).as_str()))
                .collect(),
            Vec::new(),
        ];
        for data in &chunks {
            // Behind a dictionary that holds more than the chunk's values,
            // in another order.
            let mut dict = StrDict::default();
            dict.intern(&Arc::from("never written"));
            let codes: Vec<u32> = data.iter().rev().map(|s| dict.intern(s)).rev().collect();
            assert_eq!(
                dict_body(&codes, &dict),
                dict_body_oracle(data),
                "{} lanes",
                data.len()
            );
        }
    }
}
