//! Typed columnar kernels behind the physical aggregate, join and sort
//! operators of [`super::physical`]. They read key and argument columns
//! through their typed vectors — no per-lane `Value`, `GroupKey` or
//! allocation — and allocate per *operator* call:
//!
//! * [`hash_keys`] hashes key columns column-wise into one `Vec<u64>`;
//!   [`KeyTable`] is the open-addressed table that maps a hash plus a
//!   caller-supplied equality test to a dense key id. Group-by
//!   ([`assign_groups`]) and every join ([`JoinIndex`]) share both.
//! * [`accumulate`] folds one aggregate over its typed argument column
//!   into per-group typed accumulators, **in lane order** — which is what
//!   keeps first-seen group order and float accumulation order (hence
//!   every bit of the result) those of a sequential row-at-a-time fold.
//! * [`cmp_lanes`] is the SQL sort order over one typed key column.
//!
//! Key equality is [`GroupKey`](crate::value::GroupKey) equality, which
//! the row-at-a-time oracle hashes on: NULL groups with NULL, `-0.0`
//! groups with `0.0`, floats otherwise compare by bit pattern, and keys of
//! different column types never match.

use super::column::{ColumnVec, NullMask};
use super::exec::checked_int_sum;
use super::{simd, AggFunc};
use crate::storage::codec::{fnv1a, FNV_OFFSET};
use crate::McdbError;
use std::cmp::Ordering;
use std::sync::Arc;

/// The batch rows behind a run of operator lanes: a contiguous row range
/// (no selection vector) or a slice of a selection vector.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lanes<'a> {
    /// Lane `i` is batch row `start + i`.
    Range(usize, usize),
    /// Lane `i` is batch row `sel[i]`.
    Sel(&'a [u32]),
}

impl<'a> Lanes<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Lanes::Range(a, b) => b - a,
            Lanes::Sel(s) => s.len(),
        }
    }

    /// The batch row behind lane `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> usize {
        match self {
            Lanes::Range(a, _) => a + i,
            Lanes::Sel(s) => s[i] as usize,
        }
    }

    /// Lanes `[a, b)` of this run.
    pub(crate) fn slice(&self, a: usize, b: usize) -> Lanes<'a> {
        match self {
            Lanes::Range(start, _) => Lanes::Range(start + a, start + b),
            Lanes::Sel(s) => Lanes::Sel(&s[a..b]),
        }
    }

    /// Call `f(lane, row)` for every lane, with the range/selection
    /// dispatch hoisted out of the loop.
    #[inline(always)]
    fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match self {
            Lanes::Range(a, b) => (*a..*b).enumerate().for_each(|(i, r)| f(i, r)),
            Lanes::Sel(s) => s.iter().enumerate().for_each(|(i, &r)| f(i, r as usize)),
        }
    }
}

/// Hash of a NULL key part (NULL groups with NULL).
const NULL_HASH: u64 = 0x9ae1_6a3b_2f90_404f;

/// `GroupKey` canonicalisation of a float key: `-0.0` and `0.0` are one
/// key, every other value is its bit pattern.
#[inline]
fn float_key_bits(f: f64) -> u64 {
    (if f == 0.0 { 0.0 } else { f }).to_bits()
}

#[inline]
fn fold_hash(acc: u64, part: u64) -> u64 {
    (acc.rotate_left(23) ^ part).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Column-wise hash of the key columns over `lanes`: one pass per column
/// with the column type matched once, folding into one `u64` per lane.
/// Equal keys (in the `GroupKey` sense) hash equal; the hash is a pure
/// function of the key values, so it also shards Grace partitions
/// identically on every run and on both sides of a join
/// ([`partition_of`]).
pub(crate) fn hash_keys(cols: &[&ColumnVec], lanes: Lanes<'_>) -> Vec<u64> {
    let mut out = vec![0u64; lanes.len()];
    for col in cols {
        macro_rules! fold {
            ($data:ident, $nulls:ident, |$v:ident| $hash:expr) => {
                lanes.for_each(|lane, r| {
                    let $v = &$data[r];
                    let h = if $nulls.is_null(r) { NULL_HASH } else { $hash };
                    out[lane] = fold_hash(out[lane], h);
                })
            };
        }
        match col {
            ColumnVec::Int { data, nulls } => fold!(data, nulls, |v| simd::hash_i64_one(*v)),
            ColumnVec::Float { data, nulls } => {
                fold!(data, nulls, |v| simd::hash_i64_one(
                    float_key_bits(*v) as i64
                ))
            }
            ColumnVec::Bool { data, nulls } => {
                fold!(data, nulls, |v| simd::hash_i64_one(*v as i64))
            }
            ColumnVec::Str { data, nulls } => {
                fold!(data, nulls, |v| fnv1a(FNV_OFFSET, v.as_bytes()))
            }
            ColumnVec::AllNull { .. } => {
                out.iter_mut().for_each(|h| *h = fold_hash(*h, NULL_HASH));
            }
        }
    }
    out
}

/// The Grace partition of a key hash. Uses the high half of the hash so
/// the per-partition [`KeyTable`]s, which index by the low bits, do not
/// see clustered slots.
#[inline]
pub(crate) fn partition_of(hash: u64, partitions: usize) -> usize {
    ((hash >> 32) % partitions.max(1) as u64) as usize
}

/// Whether key row `a` of `left` equals key row `b` of `right` under
/// `GroupKey` equality. Strings compare `Arc` pointers before contents.
#[inline]
pub(crate) fn keys_equal(left: &[&ColumnVec], a: usize, right: &[&ColumnVec], b: usize) -> bool {
    left.iter().zip(right).all(|(l, r)| {
        let (ln, rn) = (l.is_null(a), r.is_null(b));
        if ln || rn {
            return ln && rn;
        }
        match (l, r) {
            (ColumnVec::Int { data: x, .. }, ColumnVec::Int { data: y, .. }) => x[a] == y[b],
            (ColumnVec::Float { data: x, .. }, ColumnVec::Float { data: y, .. }) => {
                float_key_bits(x[a]) == float_key_bits(y[b])
            }
            (ColumnVec::Bool { data: x, .. }, ColumnVec::Bool { data: y, .. }) => x[a] == y[b],
            (ColumnVec::Str { data: x, .. }, ColumnVec::Str { data: y, .. }) => {
                Arc::ptr_eq(&x[a], &y[b]) || x[a] == y[b]
            }
            _ => false,
        }
    })
}

/// Whether any key part of `row` is NULL (such a row never joins).
#[inline]
pub(crate) fn any_null(cols: &[&ColumnVec], row: usize) -> bool {
    cols.iter().any(|c| c.is_null(row))
}

/// Open-addressed (linear probing) map from a key hash to a dense key id,
/// ids assigned in insertion order. Key storage and equality stay with the
/// caller, which passes an `eq(id)` test against its own representative
/// row for that id — so one table serves group-by and joins over any key
/// column types.
pub(crate) struct KeyTable {
    /// `(hash, id + 1)` per slot, id 0 = empty; power-of-two length.
    slots: Vec<(u64, u32)>,
    len: u32,
}

impl KeyTable {
    /// A table sized for `keys` distinct keys without growing.
    pub(crate) fn with_capacity(keys: usize) -> KeyTable {
        KeyTable {
            slots: vec![(0, 0); (keys.max(8) * 2).next_power_of_two()],
            len: 0,
        }
    }

    /// The id of the key with hash `hash` that satisfies `eq`, if present.
    #[inline]
    pub(crate) fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                (_, 0) => return None,
                (h, tagged) if h == hash && eq(tagged as usize - 1) => return Some(tagged - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The id of the matching key, inserting it with the next dense id if
    /// absent; the flag reports an insertion.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        eq: impl FnMut(usize) -> bool,
    ) -> (u32, bool) {
        if let Some(id) = self.find(hash, eq) {
            return (id, false);
        }
        if (self.len as usize + 1) * 2 > self.slots.len() {
            let grown = vec![(0, 0); self.slots.len() * 2];
            for (h, tagged) in std::mem::replace(&mut self.slots, grown) {
                if tagged != 0 {
                    self.place(h, tagged);
                }
            }
        }
        self.len += 1;
        self.place(hash, self.len);
        (self.len - 1, true)
    }

    fn place(&mut self, hash: u64, tagged: u32) {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot].1 != 0 {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = (hash, tagged);
    }
}

/// Dense group ids for a group-by input.
pub(crate) struct Groups {
    /// Group id of every lane; ids are dense in first-seen lane order.
    pub(crate) ids: Vec<u32>,
    /// The first lane of each group (ascending by construction).
    pub(crate) first_lane: Vec<u32>,
}

/// Assign a dense group id to every lane by its key columns, walking lanes
/// in order so ids come out in first-seen order. Each lane is compared
/// against its candidate group's first lane.
pub(crate) fn assign_groups(keys: &[&ColumnVec], lanes: Lanes<'_>) -> Groups {
    let hashes = hash_keys(keys, lanes);
    let mut table = KeyTable::with_capacity(64);
    let mut ids = Vec::with_capacity(hashes.len());
    let mut first_lane: Vec<u32> = Vec::new();
    // Batch row of each group's first lane: the equality witness.
    let mut rep_row: Vec<u32> = Vec::new();
    for (lane, &h) in hashes.iter().enumerate() {
        let row = lanes.row(lane);
        let (id, inserted) =
            table.find_or_insert(h, |g| keys_equal(keys, row, keys, rep_row[g] as usize));
        if inserted {
            first_lane.push(lane as u32);
            rep_row.push(row as u32);
        }
        ids.push(id);
    }
    Groups { ids, first_lane }
}

/// Flat hash index over the build side of an equi-join: a [`KeyTable`]
/// over the distinct non-NULL keys plus, per key, its build lanes in
/// ascending order (CSR layout) — so a probe emits each key's matches in
/// ascending build lane.
pub(crate) struct JoinIndex<'a> {
    keys: Vec<&'a ColumnVec>,
    table: KeyTable,
    /// Batch row of each key's first build lane (the equality witness).
    rep_row: Vec<u32>,
    /// `lanes[offsets[id]..offsets[id + 1]]` are key `id`'s build lanes.
    offsets: Vec<u32>,
    lanes: Vec<u32>,
}

impl<'a> JoinIndex<'a> {
    pub(crate) fn build(keys: &[&'a ColumnVec], lanes: Lanes<'_>) -> JoinIndex<'a> {
        const NO_KEY: u32 = u32::MAX;
        let hashes = hash_keys(keys, lanes);
        let mut table = KeyTable::with_capacity(hashes.len());
        let mut rep_row: Vec<u32> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut ids = Vec::with_capacity(hashes.len());
        for (lane, &h) in hashes.iter().enumerate() {
            let row = lanes.row(lane);
            if any_null(keys, row) {
                ids.push(NO_KEY);
                continue;
            }
            let (id, inserted) =
                table.find_or_insert(h, |k| keys_equal(keys, row, keys, rep_row[k] as usize));
            if inserted {
                rep_row.push(row as u32);
                counts.push(0);
            }
            counts[id as usize] += 1;
            ids.push(id);
        }
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..counts.len()].to_vec();
        let mut by_key = vec![0u32; total as usize];
        for (lane, &id) in ids.iter().enumerate() {
            if id != NO_KEY {
                by_key[cursor[id as usize] as usize] = lane as u32;
                cursor[id as usize] += 1;
            }
        }
        JoinIndex {
            keys: keys.to_vec(),
            table,
            rep_row,
            offsets,
            lanes: by_key,
        }
    }

    /// Probe with `lanes` of the probe side's key columns, calling
    /// `emit(probe lane, build lane)` for every match: ascending probe
    /// lane, then ascending build lane. NULL probe keys never match.
    pub(crate) fn probe(
        &self,
        probe_keys: &[&ColumnVec],
        lanes: Lanes<'_>,
        mut emit: impl FnMut(usize, u32),
    ) {
        let hashes = hash_keys(probe_keys, lanes);
        for (lane, &h) in hashes.iter().enumerate() {
            let row = lanes.row(lane);
            if any_null(probe_keys, row) {
                continue;
            }
            let hit = self.table.find(h, |k| {
                keys_equal(probe_keys, row, &self.keys, self.rep_row[k] as usize)
            });
            if let Some(id) = hit {
                let (a, b) = (self.offsets[id as usize], self.offsets[id as usize + 1]);
                for &build_lane in &self.lanes[a as usize..b as usize] {
                    emit(lane, build_lane);
                }
            }
        }
    }
}

/// SQL sort order between two lanes of one key column: NULLs first, then
/// the typed comparison; incomparable floats (NaN) tie. The column type is
/// matched here, once per comparison, with no `Value` built.
#[inline]
pub(crate) fn cmp_lanes(col: &ColumnVec, a: usize, b: usize) -> Ordering {
    match (col.is_null(a), col.is_null(b)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => {}
    }
    match col {
        ColumnVec::Int { data, .. } => data[a].cmp(&data[b]),
        ColumnVec::Float { data, .. } => data[a].partial_cmp(&data[b]).unwrap_or(Ordering::Equal),
        ColumnVec::Bool { data, .. } => data[a].cmp(&data[b]),
        ColumnVec::Str { data, .. } => data[a].as_ref().cmp(data[b].as_ref()),
        ColumnVec::AllNull { .. } => Ordering::Equal,
    }
}

/// An aggregate failure at a lane: the error a row-at-a-time fold would
/// have raised on reaching that lane.
pub(crate) type LaneError = (usize, McdbError);

/// A null mask over `n` groups with `is_set(g) == false` groups NULL.
fn mask_unset(n: usize, is_set: impl Fn(usize) -> bool) -> NullMask {
    let mut nulls = NullMask::all_valid(n);
    for g in (0..n).filter(|&g| !is_set(g)) {
        nulls.set_null(g);
    }
    nulls
}

/// The first non-NULL lane of `col`, with the `as_f64` type error that
/// `AggState::update` raises for a non-numeric `SUM`/`AVG` argument.
fn first_non_numeric(col: &ColumnVec) -> Option<LaneError> {
    (0..col.len())
        .find(|&lane| !col.is_null(lane))
        .and_then(|lane| col.value(lane).as_f64().err().map(|e| (lane, e)))
}

/// Fold aggregate `func` over its argument column `arg` (`None` only for
/// `COUNT(*)`) into one output row per group, walking lanes in order.
/// `group_of(lane)` is the lane's dense group id. Returns the typed output
/// column (`Int` counts, `Int`/`Float` sums by argument type, `Float`
/// means, argument-typed extrema; groups with no non-NULL input are NULL),
/// or the first failing lane: a non-numeric `SUM`/`AVG` argument, or an
/// `Int` sum leaving `i64`.
pub(crate) fn accumulate(
    func: AggFunc,
    arg: Option<&ColumnVec>,
    lanes: usize,
    n_groups: usize,
    group_of: impl Fn(usize) -> usize,
) -> Result<ColumnVec, LaneError> {
    let all_null = || ColumnVec::AllNull { len: n_groups };
    let arg = match (func, arg) {
        (AggFunc::Count, None) => {
            let mut n = vec![0i64; n_groups];
            for lane in 0..lanes {
                n[group_of(lane)] += 1;
            }
            return Ok(ColumnVec::Int {
                data: n,
                nulls: NullMask::all_valid(n_groups),
            });
        }
        // The planner rejects argument-less SUM/AVG/MIN/MAX.
        (_, None) => return Ok(all_null()),
        (_, Some(arg)) => arg,
    };
    Ok(match func {
        AggFunc::Count => {
            let mut n = vec![0i64; n_groups];
            for lane in 0..lanes {
                n[group_of(lane)] += !arg.is_null(lane) as i64;
            }
            ColumnVec::Int {
                data: n,
                nulls: NullMask::all_valid(n_groups),
            }
        }
        AggFunc::Sum => match arg {
            ColumnVec::Int { data, nulls } => {
                let mut acc = vec![0i64; n_groups];
                let mut any = vec![false; n_groups];
                for lane in (0..lanes).filter(|&l| !nulls.is_null(l)) {
                    let g = group_of(lane);
                    acc[g] = checked_int_sum(acc[g], data[lane]).map_err(|e| (lane, e))?;
                    any[g] = true;
                }
                ColumnVec::Int {
                    data: acc,
                    nulls: mask_unset(n_groups, |g| any[g]),
                }
            }
            ColumnVec::Float { data, nulls } => {
                let mut acc = vec![0.0f64; n_groups];
                let mut any = vec![false; n_groups];
                for lane in (0..lanes).filter(|&l| !nulls.is_null(l)) {
                    let g = group_of(lane);
                    acc[g] += data[lane];
                    any[g] = true;
                }
                ColumnVec::Float {
                    data: acc,
                    nulls: mask_unset(n_groups, |g| any[g]),
                }
            }
            other => match first_non_numeric(other) {
                Some(e) => return Err(e),
                None => all_null(),
            },
        },
        AggFunc::Avg => {
            let mut acc = vec![0.0f64; n_groups];
            let mut n = vec![0i64; n_groups];
            match arg {
                ColumnVec::Int { data, nulls } => {
                    for lane in (0..lanes).filter(|&l| !nulls.is_null(l)) {
                        let g = group_of(lane);
                        acc[g] += data[lane] as f64;
                        n[g] += 1;
                    }
                }
                ColumnVec::Float { data, nulls } => {
                    for lane in (0..lanes).filter(|&l| !nulls.is_null(l)) {
                        let g = group_of(lane);
                        acc[g] += data[lane];
                        n[g] += 1;
                    }
                }
                other => {
                    if let Some(e) = first_non_numeric(other) {
                        return Err(e);
                    }
                }
            }
            for (a, &c) in acc.iter_mut().zip(&n) {
                if c > 0 {
                    *a /= c as f64;
                }
            }
            ColumnVec::Float {
                data: acc,
                nulls: mask_unset(n_groups, |g| n[g] > 0),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            // Per group, the lane holding the extremum so far; a later
            // lane replaces it only when strictly better, as
            // `sql_cmp == Some(Less/Greater)` did (so NaN never wins or
            // loses a comparison).
            const NONE: u32 = u32::MAX;
            let want = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best = vec![NONE; n_groups];
            macro_rules! scan {
                ($nulls:expr, |$l:ident, $b:ident| $ord:expr) => {
                    for $l in (0..lanes).filter(|&l| !$nulls.is_null(l)) {
                        let g = group_of($l);
                        let $b = best[g] as usize;
                        if best[g] == NONE || $ord == Some(want) {
                            best[g] = $l as u32;
                        }
                    }
                };
            }
            match arg {
                ColumnVec::Int { data, nulls } => {
                    scan!(nulls, |l, b| Some(data[l].cmp(&data[b])))
                }
                ColumnVec::Float { data, nulls } => {
                    scan!(nulls, |l, b| data[l].partial_cmp(&data[b]))
                }
                ColumnVec::Bool { data, nulls } => {
                    scan!(nulls, |l, b| Some(data[l].cmp(&data[b])))
                }
                ColumnVec::Str { data, nulls } => {
                    scan!(nulls, |l, b| Some(data[l].as_ref().cmp(data[b].as_ref())))
                }
                ColumnVec::AllNull { .. } => {}
            }
            // NULL groups gather lane 0's placeholder and are masked.
            let picks: Vec<u32> = best
                .iter()
                .map(|&b| if b == NONE { 0 } else { b })
                .collect();
            if lanes == 0 {
                return Ok(all_null());
            }
            let nulls = mask_unset(n_groups, |g| best[g] != NONE);
            match arg.gather(&picks) {
                ColumnVec::Int { data, .. } => ColumnVec::Int { data, nulls },
                ColumnVec::Float { data, .. } => ColumnVec::Float { data, nulls },
                ColumnVec::Bool { data, .. } => ColumnVec::Bool { data, nulls },
                ColumnVec::Str { data, .. } => ColumnVec::Str { data, nulls },
                ColumnVec::AllNull { .. } => all_null(),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use mde_numeric::rng::{chaos_seed, rng_from_seed};

    fn col(values: Vec<Value>) -> ColumnVec {
        ColumnVec::from_values(values).unwrap()
    }

    #[test]
    fn key_table_assigns_dense_ids_and_survives_growth() {
        // Every key hashes to the same slot chain start (hash = key % 4),
        // and 1000 keys force several growths from the initial 16 slots.
        let keys: Vec<u64> = (0..1000).collect();
        let mut table = KeyTable::with_capacity(0);
        for &k in &keys {
            let (id, inserted) = table.find_or_insert(k % 4, |id| keys[id] == k);
            assert_eq!((id as u64, inserted), (k, true));
        }
        for &k in &keys {
            assert_eq!(table.find(k % 4, |id| keys[id] == k), Some(k as u32));
            assert_eq!(
                table.find_or_insert(k % 4, |id| keys[id] == k),
                (k as u32, false)
            );
        }
        assert_eq!(table.find(7, |_| true), None);
    }

    #[test]
    fn groups_follow_group_key_equality_in_first_seen_order() {
        let shared: Arc<str> = Arc::from("x");
        let f = col(vec![
            Value::from(-0.0),
            Value::from(0.0),
            Value::Null,
            Value::from(1.5),
            Value::Null,
            Value::from(1.5),
        ]);
        let s = ColumnVec::Str {
            data: vec![
                Arc::clone(&shared),
                Arc::clone(&shared),
                Arc::from("x"),
                Arc::from("y"),
                Arc::from("x"),
                Arc::from("y"),
            ],
            nulls: NullMask::all_valid(6),
        };
        // -0.0/0.0 are one key, NULL groups with NULL, distinct `Arc`s of
        // equal content are one key.
        let g = assign_groups(&[&f, &s], Lanes::Range(0, 6));
        assert_eq!(g.ids, vec![0, 0, 1, 2, 1, 2]);
        assert_eq!(g.first_lane, vec![0, 2, 3]);
        // Through a selection vector ids restart in lane order.
        let g = assign_groups(&[&f, &s], Lanes::Sel(&[5, 4, 3, 2]));
        assert_eq!(g.ids, vec![0, 1, 0, 1]);
        assert_eq!(g.first_lane, vec![0, 1]);
        // No key columns: one group.
        let g = assign_groups(&[], Lanes::Range(0, 3));
        assert_eq!((g.ids, g.first_lane), (vec![0, 0, 0], vec![0]));
    }

    /// `assign_groups` against a sort-free quadratic oracle over seeded
    /// multi-column keys with NULLs.
    #[test]
    fn groups_match_quadratic_oracle_on_seeded_keys() {
        let mut rng = rng_from_seed(chaos_seed());
        for _ in 0..20 {
            let n = rng.gen_range(1..=300);
            let ints: Vec<Value> = (0..n)
                .map(|_| match rng.gen_range(0..5i64) {
                    0 => Value::Null,
                    r => Value::from(r % 3),
                })
                .collect();
            let strs: Vec<Value> = (0..n)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => Value::Null,
                    r => Value::str(["a", "b", "c"][r - 1]),
                })
                .collect();
            let (a, b) = (col(ints.clone()), col(strs.clone()));
            let g = assign_groups(&[&a, &b], Lanes::Range(0, n));
            let key = |i: usize| (ints[i].group_key(), strs[i].group_key());
            let mut seen: Vec<usize> = Vec::new();
            for i in 0..n {
                let id = match seen.iter().position(|&j| key(j) == key(i)) {
                    Some(id) => id,
                    None => {
                        seen.push(i);
                        seen.len() - 1
                    }
                };
                assert_eq!(g.ids[i] as usize, id, "lane {i}");
            }
            let first: Vec<u32> = seen.iter().map(|&i| i as u32).collect();
            assert_eq!(g.first_lane, first);
        }
    }

    #[test]
    fn join_index_emits_matches_in_lane_order_and_skips_nulls() {
        let build = col(vec![
            Value::from(1),
            Value::Null,
            Value::from(2),
            Value::from(1),
        ]);
        let probe = col(vec![
            Value::from(2),
            Value::from(1),
            Value::Null,
            Value::from(3),
        ]);
        let index = JoinIndex::build(&[&build], Lanes::Range(0, 4));
        let mut pairs = Vec::new();
        index.probe(&[&probe], Lanes::Range(0, 4), |p, b| pairs.push((p, b)));
        assert_eq!(pairs, vec![(0, 2), (1, 0), (1, 3)]);
        // Selection vectors on both sides: lanes, not rows, are reported.
        let index = JoinIndex::build(&[&build], Lanes::Sel(&[3, 2, 0]));
        let mut pairs = Vec::new();
        index.probe(&[&probe], Lanes::Sel(&[1, 1, 0]), |p, b| pairs.push((p, b)));
        assert_eq!(pairs, vec![(0, 0), (0, 2), (1, 0), (1, 2), (2, 1)]);
        // Int and Float keys never match, even at equal numeric value.
        let floats = col(vec![Value::from(1.0), Value::from(2.0)]);
        let mut pairs = Vec::new();
        index.probe(&[&floats], Lanes::Range(0, 2), |p, b| pairs.push((p, b)));
        assert!(pairs.is_empty());
    }

    #[test]
    fn partitions_are_deterministic_spread_and_stable_for_nulls() {
        let ints = col((0..64).map(|i| Value::from(i as i64)).collect());
        let strs = col((0..64).map(|_| Value::str("k")).collect());
        let parts = |cols: &[&ColumnVec]| -> Vec<usize> {
            hash_keys(cols, Lanes::Range(0, 64))
                .into_iter()
                .map(|h| partition_of(h, 8))
                .collect()
        };
        let p = parts(&[&ints, &strs]);
        assert_eq!(p, parts(&[&ints, &strs]));
        assert!(p.iter().collect::<std::collections::HashSet<_>>().len() > 1);
        assert!(p.iter().all(|&x| x < 8));
        let nulls = ColumnVec::AllNull { len: 64 };
        let p = parts(&[&nulls]);
        assert!(p.iter().all(|&x| x == p[0]));
    }

    #[test]
    fn accumulators_are_typed_and_ordered() {
        let gids = [0usize, 1, 0, 1, 0];
        let by = |l: usize| gids[l];
        let x = col(vec![
            Value::from(1.5),
            Value::Null,
            Value::from(-0.5),
            Value::Null,
            Value::from(4.0),
        ]);
        let run = |f, a: Option<&ColumnVec>| accumulate(f, a, 5, 2, by).unwrap();
        assert_eq!(
            run(AggFunc::Count, None),
            col(vec![Value::from(3), Value::from(2)])
        );
        assert_eq!(
            run(AggFunc::Count, Some(&x)),
            col(vec![Value::from(3), Value::from(0)])
        );
        let sum = run(AggFunc::Sum, Some(&x));
        assert_eq!(sum.value(0), Value::from(5.0));
        assert!(sum.value(1).is_null());
        let avg = run(AggFunc::Avg, Some(&x));
        assert_eq!(avg.value(0), Value::from(5.0 / 3.0));
        assert!(avg.value(1).is_null());
        assert_eq!(run(AggFunc::Min, Some(&x)).value(0), Value::from(-0.5));
        assert_eq!(run(AggFunc::Max, Some(&x)).value(0), Value::from(4.0));
        assert!(run(AggFunc::Max, Some(&x)).value(1).is_null());
        // Strings and bools have extrema but no sums; the error names the
        // first non-NULL lane's value.
        let s = col(vec![
            Value::Null,
            Value::from("pear"),
            Value::from("fig"),
            Value::from("kiwi"),
            Value::Null,
        ]);
        assert_eq!(run(AggFunc::Min, Some(&s)).value(0), Value::from("fig"));
        assert_eq!(run(AggFunc::Max, Some(&s)).value(1), Value::from("pear"));
        for f in [AggFunc::Sum, AggFunc::Avg] {
            let (lane, e) = accumulate(f, Some(&s), 5, 2, by).unwrap_err();
            assert_eq!(lane, 1);
            assert_eq!(e, Value::from("pear").as_f64().unwrap_err());
        }
        // An untyped all-NULL argument sums to NULL, not to an error.
        let n = ColumnVec::AllNull { len: 5 };
        assert!(run(AggFunc::Sum, Some(&n)).value(0).is_null());
        // No lanes, one (global) group: the identities.
        let empty = ColumnVec::AllNull { len: 0 };
        let id = |f, a| accumulate(f, a, 0, 1, |_| 0).unwrap().value(0);
        assert_eq!(id(AggFunc::Count, None), Value::from(0));
        assert!(id(AggFunc::Sum, Some(&empty)).is_null());
        assert!(id(AggFunc::Min, Some(&empty)).is_null());
    }

    #[test]
    fn int_sums_are_exact_and_overflow_is_typed() {
        let big = col(vec![Value::from(4_000_000_000_000_000i64); 4]);
        let sum = accumulate(AggFunc::Sum, Some(&big), 4, 1, |_| 0).unwrap();
        assert_eq!(sum.value(0), Value::from(16_000_000_000_000_000i64));
        let wrap = col(vec![Value::from(i64::MAX), Value::from(0), Value::from(1)]);
        let (lane, e) = accumulate(AggFunc::Sum, Some(&wrap), 3, 1, |_| 0).unwrap_err();
        assert_eq!(lane, 2);
        assert!(matches!(e, McdbError::IntegerOverflow { .. }), "{e}");
    }

    #[test]
    fn sort_order_puts_nulls_first_and_ties_nan() {
        let c = col(vec![Value::from(2.0), Value::Null, Value::from(-1.0)]);
        assert_eq!(cmp_lanes(&c, 1, 2), Ordering::Less);
        assert_eq!(cmp_lanes(&c, 0, 1), Ordering::Greater);
        assert_eq!(cmp_lanes(&c, 2, 0), Ordering::Less);
        assert_eq!(cmp_lanes(&c, 1, 1), Ordering::Equal);
        let nan = ColumnVec::Float {
            data: vec![f64::NAN, 1.0],
            nulls: NullMask::all_valid(2),
        };
        assert_eq!(cmp_lanes(&nan, 0, 1), Ordering::Equal);
        let s = col(vec![Value::from("b"), Value::from("a")]);
        assert_eq!(cmp_lanes(&s, 0, 1), Ordering::Greater);
    }
}
