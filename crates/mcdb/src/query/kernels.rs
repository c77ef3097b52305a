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
//!
//! # The key shape is resolved once per operator call
//!
//! No kernel matches a column's type per lane. [`assign_groups`] and
//! [`JoinIndex`] look at the key columns once and take one of three
//! routes:
//!
//! * **One fixed-width key** (`Int`, `Float`, `Bool`): the lane's key is a
//!   64-bit *word* (the integer, the canonical float bits, `0`/`1`) and its
//!   hash is `fold_hash(0, hash_i64_one(word))` — a splitmix64 finaliser
//!   followed by a multiplication by an odd constant, both **bijections**
//!   of `u64`. Two non-NULL lanes therefore hash equal iff their keys are
//!   equal, and the table is probed with no equality test at all.
//!   **Invariant this depends on:** a NULL lane never enters that table.
//!   [`hash_keys`] hashes a NULL part as the constant `NULL_HASH`, and
//!   exactly one real word has that part hash too, so NULL lanes are
//!   routed before the table — skipped by joins (NULL never matches), one
//!   reserved group in group-by — and a probe additionally checks once per
//!   call that both sides have the same column type, since equal words of
//!   different types are different keys.
//! * **One string key** (group-by): the code *is* the key within one
//!   dictionary; groups are an array indexed by code (a dictionary larger
//!   than the lanes — `StrDict::worth_indexing` — takes the next route).
//! * **Anything else** (composite keys, a string join key): the table is
//!   probed with the exact test `keys_equal` against each key's
//!   representative row, so the answer never depends on the hash.
//!
//! String key parts hash to their dictionary's stored FNV-1a hash (a
//! function of the bytes, so two dictionaries agree and Grace partitions
//! shard as they always have); two columns over one dictionary compare
//! codes, columns over different dictionaries compare contents.

use super::column::{ColumnVec, NullMask};
use super::{select, AggFunc};
use crate::McdbError;
use std::cmp::Ordering;
use std::sync::Arc;

/// The batch rows behind a run of operator lanes: the whole batch (no
/// selection vector) or a selection vector.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lanes<'a> {
    /// `n` lanes; lane `i` is batch row `i`.
    All(usize),
    /// Lane `i` is batch row `sel[i]`.
    Sel(&'a [u32]),
}

impl<'a> Lanes<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Lanes::All(n) => *n,
            Lanes::Sel(s) => s.len(),
        }
    }

    /// The batch row behind lane `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> usize {
        match self {
            Lanes::All(_) => i,
            Lanes::Sel(s) => s[i] as usize,
        }
    }
}

/// `for (lane, row) in lanes`, with the all/selection dispatch hoisted
/// out of the loop. The body is an ordinary loop body (`?`, `return` and
/// `continue` work).
macro_rules! for_rows {
    ($lanes:expr, |$lane:ident, $row:ident| $body:block) => {
        match $lanes {
            Lanes::All(n) => {
                for $lane in 0..n {
                    let $row = $lane;
                    $body
                }
            }
            Lanes::Sel(s) => {
                for ($lane, &r) in s.iter().enumerate() {
                    let $row = r as usize;
                    $body
                }
            }
        }
    };
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

/// The lane hash of a single fixed-width key whose word is `word` — what
/// [`hash_keys`] computes for that lane, and a bijection of `word`.
#[inline]
fn word_hash(word: u64) -> u64 {
    fold_hash(0, select::hash_i64_one(word as i64))
}

/// Run `$body` with `$word` bound to the row → key word reader of the
/// fixed-width column `$col` and `$nulls` to its null mask; `$other` for
/// any other column.
macro_rules! with_word_key {
    ($col:expr, |$word:ident, $nulls:ident| $body:expr, _ => $other:expr) => {
        match $col {
            ColumnVec::Int {
                data,
                nulls: $nulls,
            } => {
                let $word = |r: usize| data[r] as u64;
                $body
            }
            ColumnVec::Float {
                data,
                nulls: $nulls,
            } => {
                let $word = |r: usize| float_key_bits(data[r]);
                $body
            }
            ColumnVec::Bool {
                data,
                nulls: $nulls,
            } => {
                let $word = |r: usize| data[r] as u64;
                $body
            }
            _ => $other,
        }
    };
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
            ($nulls:ident, |$r:ident| $hash:expr) => {
                for_rows!(lanes, |lane, $r| {
                    let h = if $nulls.is_null($r) { NULL_HASH } else { $hash };
                    out[lane] = fold_hash(out[lane], h);
                })
            };
        }
        match col {
            ColumnVec::Str { codes, dict, nulls } => {
                let hashes = dict.hashes();
                fold!(nulls, |r| hashes[codes[r] as usize])
            }
            ColumnVec::AllNull { .. } => {
                out.iter_mut().for_each(|h| *h = fold_hash(*h, NULL_HASH));
            }
            fixed => with_word_key!(
                fixed,
                |word, nulls| fold!(nulls, |r| select::hash_i64_one(word(r) as i64)),
                _ => unreachable!("every other variant is matched above")
            ),
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
/// `GroupKey` equality — the exact per-lane test of the route for keys
/// that are neither one word nor one string code. Strings over one
/// dictionary compare codes, otherwise contents.
#[inline]
fn keys_equal(left: &[&ColumnVec], a: usize, right: &[&ColumnVec], b: usize) -> bool {
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
            (
                ColumnVec::Str {
                    codes: x, dict: dx, ..
                },
                ColumnVec::Str {
                    codes: y, dict: dy, ..
                },
            ) => {
                if Arc::ptr_eq(dx, dy) {
                    x[a] == y[b]
                } else {
                    dx.value(x[a]) == dy.value(y[b])
                }
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

/// Whether any lane of any of `cols` can be NULL — the whole-mask test
/// that lets a join skip the per-lane one.
pub(crate) fn any_nullable(cols: &[&ColumnVec]) -> bool {
    cols.iter()
        .any(|c| c.nulls().is_none_or(NullMask::any_null))
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

    /// Take the next dense id for a key that lives outside the table (the
    /// NULL group of a single-key group-by).
    fn reserve_id(&mut self) -> u32 {
        self.len += 1;
        self.len - 1
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
/// in order so ids come out in first-seen order. The key shape picks the
/// route once (module docs): a word table without an equality test, an
/// array indexed by string code, or the exact test inside the table probe.
pub(crate) fn assign_groups(keys: &[&ColumnVec], lanes: Lanes<'_>) -> Groups {
    if let [key] = keys {
        match key {
            ColumnVec::Str { codes, dict, nulls } if dict.worth_indexing(lanes.len()) => {
                return group_codes(codes, dict.len(), nulls, lanes)
            }
            fixed => with_word_key!(
                fixed,
                |word, nulls| return group_words(word, nulls, lanes),
                _ => {}
            ),
        }
    }
    group_exact(keys, lanes, &hash_keys(keys, lanes))
}

/// Group-by on one fixed-width key: the word hash is a bijection, so the
/// table is probed by hash alone; NULL lanes share one reserved group and
/// never enter the table.
fn group_words(word: impl Fn(usize) -> u64, nulls: &NullMask, lanes: Lanes<'_>) -> Groups {
    let mut table = KeyTable::with_capacity(64);
    let mut ids = Vec::with_capacity(lanes.len());
    let mut first_lane: Vec<u32> = Vec::new();
    let mut null_group: Option<u32> = None;
    for_rows!(lanes, |lane, row| {
        let (id, inserted) = if nulls.is_null(row) {
            match null_group {
                Some(id) => (id, false),
                None => (*null_group.insert(table.reserve_id()), true),
            }
        } else {
            table.find_or_insert(word_hash(word(row)), |_| true)
        };
        if inserted {
            first_lane.push(lane as u32);
        }
        ids.push(id);
    });
    Groups { ids, first_lane }
}

/// Group-by on one string key: within one dictionary the code is the key,
/// so the group of a code is an array lookup; ids are still handed out in
/// first-seen *lane* order.
fn group_codes(codes: &[u32], dict_len: usize, nulls: &NullMask, lanes: Lanes<'_>) -> Groups {
    const UNSEEN: u32 = u32::MAX;
    // The last slot is the NULL group's.
    let mut group_of = vec![UNSEEN; dict_len + 1];
    let mut ids = Vec::with_capacity(lanes.len());
    let mut first_lane: Vec<u32> = Vec::new();
    for_rows!(lanes, |lane, row| {
        let slot = if nulls.is_null(row) {
            dict_len
        } else {
            codes[row] as usize
        };
        if group_of[slot] == UNSEEN {
            group_of[slot] = first_lane.len() as u32;
            first_lane.push(lane as u32);
        }
        ids.push(group_of[slot]);
    });
    Groups { ids, first_lane }
}

/// Group-by on any key shape, with the exact per-lane equality test inside
/// the table probe.
fn group_exact(keys: &[&ColumnVec], lanes: Lanes<'_>, hashes: &[u64]) -> Groups {
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

/// The key id [`JoinIndex::probe`] reports for a lane without a match.
pub(crate) const NO_KEY: u32 = u32::MAX;

impl<'a> JoinIndex<'a> {
    pub(crate) fn build(keys: &[&'a ColumnVec], lanes: Lanes<'_>) -> JoinIndex<'a> {
        let mut index = JoinIndex {
            keys: keys.to_vec(),
            table: KeyTable::with_capacity(lanes.len()),
            rep_row: Vec::new(),
            offsets: Vec::new(),
            lanes: Vec::new(),
        };
        // The key id of every build lane, `NO_KEY` for a NULL key.
        let mut ids = vec![NO_KEY; lanes.len()];
        let word_keyed = match keys {
            [key] => with_word_key!(
                key,
                |word, nulls| {
                    for_rows!(lanes, |lane, row| {
                        if !nulls.is_null(row) {
                            let (id, inserted) =
                                index.table.find_or_insert(word_hash(word(row)), |_| true);
                            if inserted {
                                index.rep_row.push(row as u32);
                            }
                            ids[lane] = id;
                        }
                    });
                    true
                },
                _ => false
            ),
            _ => false,
        };
        if !word_keyed {
            index.insert_exact(lanes, &hash_keys(keys, lanes), &mut ids);
        }
        let mut counts = vec![0u32; index.rep_row.len()];
        for &id in ids.iter().filter(|&&id| id != NO_KEY) {
            counts[id as usize] += 1;
        }
        index.offsets.reserve(counts.len() + 1);
        let mut total = 0u32;
        index.offsets.push(0);
        for c in &counts {
            total += c;
            index.offsets.push(total);
        }
        let mut cursor: Vec<u32> = index.offsets[..counts.len()].to_vec();
        index.lanes = vec![0u32; total as usize];
        for (lane, &id) in ids.iter().enumerate() {
            if id != NO_KEY {
                index.lanes[cursor[id as usize] as usize] = lane as u32;
                cursor[id as usize] += 1;
            }
        }
        index
    }

    /// Key ids for the non-NULL build lanes, with the exact equality test
    /// inside the table probe.
    fn insert_exact(&mut self, lanes: Lanes<'_>, hashes: &[u64], ids: &mut [u32]) {
        let nullable = any_nullable(&self.keys);
        for_rows!(lanes, |lane, row| {
            if nullable && any_null(&self.keys, row) {
                continue;
            }
            let (keys, rep_row) = (&self.keys, &self.rep_row);
            let (id, inserted) = self.table.find_or_insert(hashes[lane], |k| {
                keys_equal(keys, row, keys, rep_row[k] as usize)
            });
            if inserted {
                self.rep_row.push(row as u32);
            }
            ids[lane] = id;
        });
    }

    /// Probe with `lanes` of the probe side's key columns: `out[lane]`
    /// becomes the id of the build key the lane matches, or [`NO_KEY`]
    /// (a NULL probe key never matches). [`JoinIndex::build_lanes`] lists a
    /// key's build lanes.
    pub(crate) fn probe(&self, probe_keys: &[&ColumnVec], lanes: Lanes<'_>, out: &mut [u32]) {
        debug_assert_eq!(out.len(), lanes.len());
        // Keys of different column types never match, whatever their bits.
        let same_types = self
            .keys
            .iter()
            .zip(probe_keys)
            .all(|(b, p)| b.dtype().is_some() && b.dtype() == p.dtype());
        if !same_types {
            out.fill(NO_KEY);
            return;
        }
        if let [key] = probe_keys {
            with_word_key!(
                key,
                |word, nulls| {
                    for_rows!(lanes, |lane, row| {
                        out[lane] = if nulls.is_null(row) {
                            NO_KEY
                        } else {
                            let hit = self.table.find(word_hash(word(row)), |_| true);
                            hit.unwrap_or(NO_KEY)
                        };
                    });
                    return;
                },
                _ => {}
            )
        }
        let hashes = hash_keys(probe_keys, lanes);
        let nullable = any_nullable(probe_keys);
        for_rows!(lanes, |lane, row| {
            out[lane] = if nullable && any_null(probe_keys, row) {
                NO_KEY
            } else {
                let hit = self.table.find(hashes[lane], |k| {
                    keys_equal(probe_keys, row, &self.keys, self.rep_row[k] as usize)
                });
                hit.unwrap_or(NO_KEY)
            };
        });
    }

    /// The build lanes holding key `id`, ascending.
    #[inline]
    pub(crate) fn build_lanes(&self, id: u32) -> &[u32] {
        let (a, b) = (self.offsets[id as usize], self.offsets[id as usize + 1]);
        &self.lanes[a as usize..b as usize]
    }

    /// Expand the key ids [`JoinIndex::probe`] reported for `probe` lanes
    /// into the matching pairs, as two parallel vectors of batch rows
    /// (probe side, build side, read through each side's lanes): ascending
    /// probe lane, then ascending build lane. Both are sized from the probe
    /// lanes — exact when build keys are unique and every lane matches.
    pub(crate) fn matches(
        &self,
        hits: &[u32],
        probe: Lanes<'_>,
        build: Lanes<'_>,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut probe_rows = Vec::with_capacity(hits.len());
        let mut build_rows = Vec::with_capacity(hits.len());
        for_rows!(probe, |lane, row| {
            if hits[lane] != NO_KEY {
                for &b in self.build_lanes(hits[lane]) {
                    probe_rows.push(row as u32);
                    build_rows.push(build.row(b as usize) as u32);
                }
            }
        });
        (probe_rows, build_rows)
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
        ColumnVec::Str { codes, dict, .. } => dict.cmp_codes(codes[a], codes[b]),
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

/// The first non-NULL lane of `col` read through `rows`, with the `as_f64`
/// type error that `AggState::update` raises for a non-numeric `SUM`/`AVG`
/// argument.
fn first_non_numeric(col: &ColumnVec, rows: Lanes<'_>) -> Option<LaneError> {
    (0..rows.len())
        .find(|&lane| !col.is_null(rows.row(lane)))
        .and_then(|lane| {
            let v = col.value(rows.row(lane));
            v.as_f64().err().map(|e| (lane, e))
        })
}

/// One step of an `Int`-typed `SUM`: exact `i64` addition, with leaving the
/// `i64` range a typed error instead of a wrap or a silent fall-back to
/// `Float`. Shared by [`accumulate`]'s typed accumulators and the reference
/// interpreter's `AggState` so both sum — and fail — identically.
pub(crate) fn checked_int_sum(acc: i64, v: i64) -> crate::Result<i64> {
    acc.checked_add(v)
        .ok_or_else(|| McdbError::IntegerOverflow {
            context: "SUM over Int".to_string(),
        })
}

/// Fold aggregate `func` over its argument (`None` only for `COUNT(*)`)
/// into one output row per group, walking lanes in order. The argument is
/// a column and the rows of it behind the `lanes` operator lanes — a batch
/// column read in place through the operator's own lanes, or an evaluated
/// column read front to back. `group_of(lane)` is the lane's dense group
/// id. Returns the typed output column (`Int` counts, `Int`/`Float` sums by
/// argument type, `Float` means, argument-typed extrema; groups with no
/// non-NULL input are NULL), or the first failing lane: a non-numeric
/// `SUM`/`AVG` argument, or an `Int` sum leaving `i64`.
pub(crate) fn accumulate(
    func: AggFunc,
    arg: Option<(&ColumnVec, Lanes<'_>)>,
    lanes: usize,
    n_groups: usize,
    group_of: impl Fn(usize) -> usize,
) -> Result<ColumnVec, LaneError> {
    let all_null = || ColumnVec::AllNull { len: n_groups };
    let (arg, rows) = match (func, arg) {
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
    debug_assert_eq!(rows.len(), lanes);
    Ok(match func {
        AggFunc::Count => {
            let mut n = vec![0i64; n_groups];
            for_rows!(rows, |lane, row| {
                n[group_of(lane)] += !arg.is_null(row) as i64;
            });
            ColumnVec::Int {
                data: n,
                nulls: NullMask::all_valid(n_groups),
            }
        }
        AggFunc::Sum => match arg {
            ColumnVec::Int { data, nulls } => {
                let mut acc = vec![0i64; n_groups];
                let mut any = vec![false; n_groups];
                for_rows!(rows, |lane, row| {
                    if !nulls.is_null(row) {
                        let g = group_of(lane);
                        acc[g] = checked_int_sum(acc[g], data[row]).map_err(|e| (lane, e))?;
                        any[g] = true;
                    }
                });
                ColumnVec::Int {
                    data: acc,
                    nulls: mask_unset(n_groups, |g| any[g]),
                }
            }
            ColumnVec::Float { data, nulls } => {
                let mut acc = vec![0.0f64; n_groups];
                let mut any = vec![false; n_groups];
                for_rows!(rows, |lane, row| {
                    if !nulls.is_null(row) {
                        let g = group_of(lane);
                        acc[g] += data[row];
                        any[g] = true;
                    }
                });
                ColumnVec::Float {
                    data: acc,
                    nulls: mask_unset(n_groups, |g| any[g]),
                }
            }
            other => match first_non_numeric(other, rows) {
                Some(e) => return Err(e),
                None => all_null(),
            },
        },
        AggFunc::Avg => {
            let mut acc = vec![0.0f64; n_groups];
            let mut n = vec![0i64; n_groups];
            match arg {
                ColumnVec::Int { data, nulls } => {
                    for_rows!(rows, |lane, row| {
                        if !nulls.is_null(row) {
                            let g = group_of(lane);
                            acc[g] += data[row] as f64;
                            n[g] += 1;
                        }
                    });
                }
                ColumnVec::Float { data, nulls } => {
                    for_rows!(rows, |lane, row| {
                        if !nulls.is_null(row) {
                            let g = group_of(lane);
                            acc[g] += data[row];
                            n[g] += 1;
                        }
                    });
                }
                other => {
                    if let Some(e) = first_non_numeric(other, rows) {
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
            // Per group, the row holding the extremum so far; a later
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
                ($nulls:expr, |$r:ident, $b:ident| $ord:expr) => {
                    for_rows!(rows, |lane, $r| {
                        if !$nulls.is_null($r) {
                            let g = group_of(lane);
                            let $b = best[g] as usize;
                            if best[g] == NONE || $ord == Some(want) {
                                best[g] = $r as u32;
                            }
                        }
                    })
                };
            }
            match arg {
                ColumnVec::Int { data, nulls } => {
                    scan!(nulls, |r, b| Some(data[r].cmp(&data[b])))
                }
                ColumnVec::Float { data, nulls } => {
                    scan!(nulls, |r, b| data[r].partial_cmp(&data[b]))
                }
                ColumnVec::Bool { data, nulls } => {
                    scan!(nulls, |r, b| Some(data[r].cmp(&data[b])))
                }
                ColumnVec::Str { nulls, .. } => {
                    scan!(nulls, |r, b| Some(cmp_lanes(arg, r, b)))
                }
                ColumnVec::AllNull { .. } => {}
            }
            if lanes == 0 {
                return Ok(all_null());
            }
            // NULL groups gather the first lane's placeholder and are
            // masked.
            let first_row = rows.row(0) as u32;
            let picks: Vec<u32> = best
                .iter()
                .map(|&b| if b == NONE { first_row } else { b })
                .collect();
            let nulls = mask_unset(n_groups, |g| best[g] != NONE);
            match arg.gather(&picks) {
                ColumnVec::AllNull { .. } => all_null(),
                typed => typed.with_nulls(nulls),
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

    /// The (probe lane, build lane) pairs of joining all of `probe` to all
    /// of `build`.
    fn join_lanes(
        build: &[&ColumnVec],
        build_lanes: Lanes<'_>,
        probe: &[&ColumnVec],
        probe_lanes: Lanes<'_>,
    ) -> Vec<(u32, u32)> {
        let index = JoinIndex::build(build, build_lanes);
        let mut hits = vec![0; probe_lanes.len()];
        index.probe(probe, probe_lanes, &mut hits);
        let (p, b) = index.matches(
            &hits,
            Lanes::All(probe_lanes.len()),
            Lanes::All(build_lanes.len()),
        );
        p.into_iter().zip(b).collect()
    }

    /// The inverse of `select::hash_i64_one` (every step of the splitmix64
    /// finaliser is a bijection of `u64`).
    fn unhash_i64_one(h: u64) -> i64 {
        fn unxorshift(mut z: u64, by: u32) -> u64 {
            // z = x ^ (x >> by): the top `by` bits are x's; recover the rest
            // `by` bits at a time.
            let mut x = z;
            for _ in 0..64 / by {
                x = z ^ (x >> by);
            }
            z = x;
            z
        }
        fn inverse(odd: u64) -> u64 {
            // Newton's iteration doubles the correct low bits.
            let mut inv = odd;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(odd.wrapping_mul(inv)));
            }
            inv
        }
        let z = unxorshift(h, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
        let z = unxorshift(z, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
        unxorshift(z, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15) as i64
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
        let s = col([
            Arc::clone(&shared),
            Arc::clone(&shared),
            Arc::from("x"),
            Arc::from("y"),
            Arc::from("x"),
            Arc::from("y"),
        ]
        .map(Value::Str)
        .to_vec());
        // -0.0/0.0 are one key, NULL groups with NULL, distinct `Arc`s of
        // equal content are one key.
        let g = assign_groups(&[&f, &s], Lanes::All(6));
        assert_eq!(g.ids, vec![0, 0, 1, 2, 1, 2]);
        assert_eq!(g.first_lane, vec![0, 2, 3]);
        // Through a selection vector ids restart in lane order.
        let g = assign_groups(&[&f, &s], Lanes::Sel(&[5, 4, 3, 2]));
        assert_eq!(g.ids, vec![0, 1, 0, 1]);
        assert_eq!(g.first_lane, vec![0, 1]);
        // One string key, on both sides of `worth_indexing`: six lanes over
        // a two-entry dictionary go by code, three gathered lanes that
        // still carry a five-entry dictionary by the exact route.
        let g = assign_groups(&[&s], Lanes::All(6));
        assert_eq!((g.ids, g.first_lane), (vec![0, 0, 0, 1, 0, 1], vec![0, 3]));
        let few = col(["a", "b", "c", "d", "e"].map(Value::str).to_vec()).gather(&[4, 1, 4]);
        let g = assign_groups(&[&few], Lanes::All(3));
        assert_eq!((g.ids, g.first_lane), (vec![0, 1, 0], vec![0, 1]));
        // No key columns: one group.
        let g = assign_groups(&[], Lanes::All(3));
        assert_eq!((g.ids, g.first_lane), (vec![0, 0, 0], vec![0]));
    }

    /// `assign_groups` against a sort-free quadratic oracle over seeded
    /// keys with NULLs — every route: one `Int`, `Float` (`-0.0`/`0.0`),
    /// `Bool` or `Str` key (`""`, non-ASCII), and composites of them, over
    /// a range and through a selection vector.
    #[test]
    fn groups_match_quadratic_oracle_on_seeded_keys() {
        let mut rng = rng_from_seed(chaos_seed());
        for _ in 0..20 {
            let n = rng.gen_range(1..=300);
            let mut draw = |pick: &dyn Fn(i64) -> Value| -> Vec<Value> {
                (0..n)
                    .map(|_| match rng.gen_range(0..5i64) {
                        0 => Value::Null,
                        r => pick(r),
                    })
                    .collect()
            };
            let columns = [
                draw(&|r| Value::from(r % 3)),
                draw(&|r| Value::from([-0.0, 0.0, 1.5, -2.0][r as usize - 1])),
                draw(&|r| Value::from(r % 2 == 0)),
                draw(&|r| Value::str(["", "b", "ü", "b\u{0}"][r as usize - 1])),
            ];
            let cols: Vec<ColumnVec> = columns.iter().map(|c| col(c.clone())).collect();
            let sel: Vec<u32> = (0..n as u32).rev().step_by(2).collect();
            for shape in [
                vec![0],
                vec![1],
                vec![2],
                vec![3],
                vec![0, 3],
                vec![3, 0, 1, 2],
            ] {
                let keys: Vec<&ColumnVec> = shape.iter().map(|&j| &cols[j]).collect();
                for lanes in [Lanes::All(n), Lanes::Sel(&sel)] {
                    let g = assign_groups(&keys, lanes);
                    let key = |lane: usize| -> Vec<_> {
                        let row = lanes.row(lane);
                        shape.iter().map(|&j| columns[j][row].group_key()).collect()
                    };
                    let mut seen: Vec<usize> = Vec::new();
                    for i in 0..lanes.len() {
                        let id = match seen.iter().position(|&j| key(j) == key(i)) {
                            Some(id) => id,
                            None => {
                                seen.push(i);
                                seen.len() - 1
                            }
                        };
                        assert_eq!(g.ids[i] as usize, id, "keys {shape:?}, lane {i}");
                    }
                    let first: Vec<u32> = seen.iter().map(|&i| i as u32).collect();
                    assert_eq!(g.first_lane, first, "keys {shape:?}");
                }
            }
        }
    }

    /// The bijection route's one hazard: a NULL lane's hash is also the lane
    /// hash of exactly one real key. That key must group and join apart
    /// from NULL.
    #[test]
    fn the_int_key_that_hashes_like_null_is_not_null() {
        let twin = unhash_i64_one(NULL_HASH);
        let keys = col(vec![
            Value::Null,
            Value::from(twin),
            Value::Null,
            Value::from(twin),
            Value::from(5),
        ]);
        let hashes = hash_keys(&[&keys], Lanes::All(5));
        assert_eq!(
            hashes[0], hashes[1],
            "the test's key must alias NULL's hash"
        );
        let g = assign_groups(&[&keys], Lanes::All(5));
        assert_eq!((g.ids, g.first_lane), (vec![0, 1, 0, 1, 2], vec![0, 1, 4]));
        // NULL joins nothing, the twin joins the twin.
        let all = Lanes::All(5);
        assert_eq!(
            join_lanes(&[&keys], all, &[&keys], all),
            vec![(1, 1), (1, 3), (3, 1), (3, 3), (4, 4)]
        );
        // The same through the composite route, where only the exact test
        // tells (NULL, 7) from (twin, 7).
        let sevens = col(vec![Value::from(7); 5]);
        let g = assign_groups(&[&keys, &sevens], all);
        assert_eq!((g.ids, g.first_lane), (vec![0, 1, 0, 1, 2], vec![0, 1, 4]));
    }

    /// Two different composite keys with one 64-bit hash stay two keys — in
    /// group-by, in the join build and in the join probe.
    #[test]
    fn a_hash_collision_between_composite_keys_changes_no_answer() {
        // fold(fold(0, m(a)), m(b)) == fold(fold(0, m(a2)), m(b2)) iff
        // rotl(m(a)·C, 23) ^ m(b) == rotl(m(a2)·C, 23) ^ m(b2): pick a, b
        // and a2, solve for b2.
        let m = |k: i64| select::hash_i64_one(k);
        let first = |k: i64| fold_hash(0, m(k)).rotate_left(23);
        let (a, b, a2) = (11i64, 22i64, 33i64);
        let b2 = unhash_i64_one(first(a) ^ m(b) ^ first(a2));
        assert_eq!(m(unhash_i64_one(0xDEAD_BEEF)), 0xDEAD_BEEF);
        let x = col([a, a2, a, a2, 1].map(Value::from).to_vec());
        let y = col([b, b2, b, b2, 2].map(Value::from).to_vec());
        let hashes = hash_keys(&[&x, &y], Lanes::All(5));
        assert_eq!(hashes[0], hashes[1], "the two keys must collide");
        let g = assign_groups(&[&x, &y], Lanes::All(5));
        assert_eq!((g.ids, g.first_lane), (vec![0, 1, 0, 1, 2], vec![0, 1, 4]));
        let all = Lanes::All(5);
        assert_eq!(
            join_lanes(&[&x, &y], all, &[&x, &y], all),
            vec![
                (0, 0),
                (0, 2),
                (1, 1),
                (1, 3),
                (2, 0),
                (2, 2),
                (3, 1),
                (3, 3),
                (4, 4)
            ]
        );
        // The collision only on the probe side: the build holds (a, b), the
        // probe brings (a2, b2), which matches nothing.
        let (bx, by) = (col(vec![Value::from(a)]), col(vec![Value::from(b)]));
        assert_eq!(
            join_lanes(&[&bx, &by], Lanes::All(1), &[&x, &y], all),
            vec![(0, 0), (2, 0)]
        );
    }

    /// String keys across dictionaries: equal contents behind different
    /// dictionaries (and different `Arc`s) are one key, codes mean nothing
    /// across them.
    #[test]
    fn string_keys_compare_contents_across_dictionaries() {
        let build = col(["b", "", "ü", "a"].map(Value::str).to_vec());
        let probe = col(vec![
            Value::str("a"),
            Value::Null,
            Value::str("ü"),
            Value::str("zz"),
            Value::str(""),
            Value::str("a"),
        ]);
        let (bl, pl) = (Lanes::All(4), Lanes::All(6));
        assert_eq!(
            join_lanes(&[&build], bl, &[&probe], pl),
            vec![(0, 3), (2, 2), (4, 1), (5, 3)]
        );
        // One dictionary on both sides (a gather shares it).
        let gathered = probe.gather(&[5, 4, 1]);
        assert_eq!(
            join_lanes(&[&probe], pl, &[&gathered], Lanes::All(3)),
            vec![(0, 0), (0, 5), (1, 4)]
        );
        // Composite with an Int part; a Str key never matches an Int one.
        let (bn, pn) = (
            col([1, 2, 3, 4].map(Value::from).to_vec()),
            col([4, 0, 3, 0, 9, 1].map(Value::from).to_vec()),
        );
        assert_eq!(
            join_lanes(&[&build, &bn], bl, &[&probe, &pn], pl),
            vec![(0, 3), (2, 2)]
        );
        assert!(join_lanes(&[&bn], bl, &[&probe], pl).is_empty());
        // Zero lanes and all-NULL keys join nothing and group as one.
        assert!(join_lanes(&[&build], Lanes::All(0), &[&probe], pl).is_empty());
        assert!(join_lanes(&[&build], bl, &[&probe], Lanes::All(0)).is_empty());
        let nulls = ColumnVec::typed_nulls(6, crate::schema::DataType::Str);
        assert!(join_lanes(&[&nulls], pl, &[&probe], pl).is_empty());
        assert!(join_lanes(&[&probe], pl, &[&nulls], pl).is_empty());
        let g = assign_groups(&[&nulls], pl);
        assert_eq!((g.ids, g.first_lane), (vec![0; 6], vec![0]));
        let g = assign_groups(&[&probe], Lanes::All(0));
        assert!(g.ids.is_empty() && g.first_lane.is_empty());
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
        let all = Lanes::All(4);
        assert_eq!(
            join_lanes(&[&build], all, &[&probe], all),
            vec![(0, 2), (1, 0), (1, 3)]
        );
        // Selection vectors on both sides: lanes, not rows, are reported.
        let (bl, pl) = (Lanes::Sel(&[3, 2, 0]), Lanes::Sel(&[1, 1, 0]));
        assert_eq!(
            join_lanes(&[&build], bl, &[&probe], pl),
            vec![(0, 0), (0, 2), (1, 0), (1, 2), (2, 1)]
        );
        // `matches` reads rows through each side's lanes.
        let index = JoinIndex::build(&[&build], bl);
        let mut hits = vec![0; 3];
        index.probe(&[&probe], pl, &mut hits);
        assert_eq!(
            index.matches(&hits, pl, bl),
            (vec![1, 1, 1, 1, 0], vec![3, 0, 3, 0, 2])
        );
        // Int and Float keys never match, even at equal numeric value.
        let floats = col(vec![Value::from(1.0), Value::from(2.0)]);
        assert!(join_lanes(&[&build], bl, &[&floats], Lanes::All(2)).is_empty());
    }

    #[test]
    fn partitions_are_deterministic_spread_and_stable_for_nulls() {
        let ints = col((0..64).map(|i| Value::from(i as i64)).collect());
        let strs = col((0..64).map(|_| Value::str("k")).collect());
        let parts = |cols: &[&ColumnVec]| -> Vec<usize> {
            hash_keys(cols, Lanes::All(64))
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
        let all = Lanes::All(5);
        let run = |f, a: Option<&ColumnVec>| accumulate(f, a.map(|a| (a, all)), 5, 2, by).unwrap();
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
            let (lane, e) = accumulate(f, Some((&s, all)), 5, 2, by).unwrap_err();
            assert_eq!(lane, 1);
            assert_eq!(e, Value::from("pear").as_f64().unwrap_err());
        }
        // An untyped all-NULL argument sums to NULL, not to an error.
        let n = ColumnVec::AllNull { len: 5 };
        assert!(run(AggFunc::Sum, Some(&n)).value(0).is_null());
        // No lanes, one (global) group: the identities.
        let empty = ColumnVec::AllNull { len: 0 };
        let id = |f, a| accumulate(f, a, 0, 1, |_| 0).unwrap().value(0);
        let none = Lanes::All(0);
        assert_eq!(id(AggFunc::Count, None), Value::from(0));
        assert!(id(AggFunc::Sum, Some((&empty, none))).is_null());
        assert!(id(AggFunc::Min, Some((&empty, none))).is_null());
        // An argument read in place through a selection folds the selected
        // rows in lane order: group 0 is lanes 0 and 2 (rows 4 and 3),
        // group 1 is lanes 1 and 3 (rows 0 and 2).
        let picked = Lanes::Sel(&[4, 0, 3, 2]);
        let fold = |f, a| accumulate(f, Some((a, picked)), 4, 2, |l| l % 2).unwrap();
        assert_eq!(fold(AggFunc::Sum, &x).value(0), Value::from(4.0));
        assert_eq!(fold(AggFunc::Sum, &x).value(1), Value::from(1.5 + -0.5));
        assert_eq!(fold(AggFunc::Count, &x).value(0), Value::from(1));
        assert_eq!(fold(AggFunc::Max, &s).value(0), Value::from("kiwi"));
        assert_eq!(fold(AggFunc::Min, &s).value(1), Value::from("fig"));
        let (lane, _) = accumulate(AggFunc::Avg, Some((&s, picked)), 4, 2, |l| l % 2).unwrap_err();
        assert_eq!(lane, 2, "rows 4 and 0 are NULL, row 3 is lane 2");
    }

    #[test]
    fn int_sums_are_exact_and_overflow_is_typed() {
        let big = col(vec![Value::from(4_000_000_000_000_000i64); 4]);
        let sum = accumulate(AggFunc::Sum, Some((&big, Lanes::All(4))), 4, 1, |_| 0).unwrap();
        assert_eq!(sum.value(0), Value::from(16_000_000_000_000_000i64));
        let wrap = col(vec![Value::from(i64::MAX), Value::from(0), Value::from(1)]);
        let (lane, e) =
            accumulate(AggFunc::Sum, Some((&wrap, Lanes::All(3))), 3, 1, |_| 0).unwrap_err();
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
