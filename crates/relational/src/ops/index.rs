//! Per-segment hash indexes.
//!
//! MJoin is a *symmetric* hash join: when a segment arrives, hash tables
//! are built over it on its join columns (§4.1 of the paper: "builds
//! appropriate hash tables based on the join conditions"); the Skipper
//! engine builds them only on the columns some rooted plan probes, and
//! charges one per join column. A [`SegmentIndex`] borrows its tuples: it
//! keeps the delivered `Arc<Segment>` alive and refers to rows by
//! position, so neither rows nor keys are ever copied.
//!
//! # Layout
//!
//! * `kept` — the selection vector: positions of the rows that passed
//!   the filter ([`scan::select`]), ascending. A row's index in `kept`
//!   is its *slot*.
//! * per join column, one `KeyIndex`: the column, its `ChainTable` and
//!   its key range.
//! * `ChainTable`: `heads[bucket]` is the first slot of the bucket's
//!   chain and `links[slot]` holds the next slot of the chain plus the
//!   low 32 bits of the slot's key hash. Keys are hashed straight out of
//!   the typed key column (a string column hashes each dictionary entry
//!   once and looks codes up), in the pass (`hash_column`) that also
//!   hashes the rooted kernel's first-step keys. The bucket is taken from
//!   the hash's *high* bits (the well-mixed end of Fx's multiply); the
//!   stored low bits reject almost every non-matching chain entry without
//!   touching the column. A tag hit compares the key column's value at
//!   `kept[slot]` with the probe key.
//! * `KeyRange`: the least and greatest non-NULL key of the kept rows,
//!   in the column's own type (a string range holds two dictionary
//!   codes), found in the same pass that hashes the slots. These are
//!   "small materialized aggregates" (Moerkotte, VLDB 1998): a probe key
//!   outside the range equals no kept key under [`ValueRef`]'s total
//!   order, so `SegmentIndex::may_hold` rejects the segment with two
//!   compares and no bucket load. MJoin's range-partitioned keys
//!   (`o_orderkey`, `c_custkey`) make most cached segments of a relation
//!   miss that way.
//!
//! # Emit order
//!
//! Slots are inserted in one reverse pass, each at the head of its
//! bucket's chain, so every chain lists its slots in ascending order. A
//! probe walks one chain and keeps the slots whose key matches: matches
//! come out in ascending row position. Emit order is part of the
//! contract: joined rows reach the aggregator in a fixed order, so float
//! sums — and the goldens that pin them — repeat bit for bit.
//!
//! # Eviction
//!
//! Dropping a [`SegmentIndex`] is the paper's "frees space by dropping
//! its hashtable": it frees `kept`, the `KeyIndex` list (each key range
//! lives in it, beside its table), two `Vec`s per join column and one
//! `Arc` reference — independent of the number of distinct keys. The
//! segment itself is freed when the last holder lets go.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::expr::Expr;
use crate::hash::FxHasher;
use crate::ops::scan::{self, ScanStats};
use crate::segment::{Column, ColumnValues, RowRef, Segment};
use crate::value::ValueRef;

/// End-of-chain marker in [`ChainTable`].
const NIL: u32 = u32::MAX;

/// One chain entry: the next slot of the chain and the low half of this
/// slot's key hash.
#[derive(Clone, Copy)]
struct Link {
    next: u32,
    tag: u32,
}

/// Bucket-head / next-link hash table over numbered slots; the baseline
/// join keys its build sides with it too.
pub(crate) struct ChainTable {
    /// `heads[hash >> shift]` — first slot of the chain, or [`NIL`].
    heads: Vec<u32>,
    /// `links[slot]`; a slot without a hash (a NULL key) is in no chain.
    links: Vec<Link>,
    shift: u32,
}

impl ChainTable {
    /// Chains slots `0..slots` by `hash_of(slot)`, skipping the slots it
    /// gives no hash.
    pub(crate) fn build(slots: usize, mut hash_of: impl FnMut(usize) -> Option<u64>) -> Self {
        let mut table = ChainTable::unchained(slots);
        // Reverse pass + head insertion ⇒ chains ascend by slot.
        for slot in (0..slots).rev() {
            if let Some(hash) = hash_of(slot) {
                table.push_front(slot, hash);
            }
        }
        table
    }

    /// A table over `slots` slots with every chain empty.
    fn unchained(slots: usize) -> Self {
        assert!(slots < NIL as usize, "{slots} slots exceed 32-bit slot ids");
        // At least two buckets per slot keeps most chains at one key;
        // at least two buckets keeps `shift` below 64.
        let buckets = (slots * 2).next_power_of_two().max(2);
        ChainTable {
            heads: vec![NIL; buckets],
            links: vec![Link { next: NIL, tag: 0 }; slots],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// Puts `slot` at the head of its hash's chain: pushing slots in
    /// descending order leaves every chain ascending.
    #[inline]
    fn push_front(&mut self, slot: usize, hash: u64) {
        let head = &mut self.heads[(hash >> self.shift) as usize];
        self.links[slot] = Link {
            next: *head,
            tag: hash as u32,
        };
        *head = slot as u32;
    }

    /// The slots whose hash may equal `hash` (their stored low half
    /// does), ascending; the caller compares the keys.
    #[inline]
    pub(crate) fn chain(&self, hash: u64) -> Chain<'_> {
        Chain {
            links: &self.links,
            next: self.heads[(hash >> self.shift) as usize],
            tag: hash as u32,
        }
    }
}

/// Iterator over the candidate slots of one hash.
pub(crate) struct Chain<'a> {
    links: &'a [Link],
    next: u32,
    tag: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.next != NIL {
            let slot = self.next as usize;
            let link = self.links[slot];
            self.next = link.next;
            if link.tag == self.tag {
                return Some(slot);
            }
        }
        None
    }
}

/// The least and greatest non-NULL key of a column's kept rows, in the
/// column's own type.
#[derive(Clone, Copy, Debug)]
enum KeyRange {
    /// No kept row has a non-NULL key: nothing can match.
    Empty,
    Bool(bool, bool),
    Int(i64, i64),
    Float(f64, f64),
    Date(i32, i32),
    /// Dictionary codes of the least and greatest string.
    Str(u32, u32),
}

impl KeyRange {
    /// False when `key` lies outside the range under [`ValueRef`]'s total
    /// order, so that it equals no kept key of the column.
    #[inline]
    fn admits(self, key: ValueRef<'_>, segment: &Segment) -> bool {
        match (self, key) {
            // Every join key of the paper's queries: two integer compares,
            // inlined into the probe loop; the rest is out of line.
            (KeyRange::Int(lo, hi), ValueRef::Int(k)) => lo <= k && k <= hi,
            _ => self.admits_any(key, segment),
        }
    }

    #[cold]
    #[inline(never)]
    fn admits_any(self, key: ValueRef<'_>, segment: &Segment) -> bool {
        fn within<'v>(lo: ValueRef<'v>, key: ValueRef<'v>, hi: ValueRef<'v>) -> bool {
            lo <= key && key <= hi
        }
        match self {
            KeyRange::Empty => false,
            KeyRange::Bool(lo, hi) => within(ValueRef::Bool(lo), key, ValueRef::Bool(hi)),
            KeyRange::Int(lo, hi) => within(ValueRef::Int(lo), key, ValueRef::Int(hi)),
            KeyRange::Float(lo, hi) => within(ValueRef::Float(lo), key, ValueRef::Float(hi)),
            KeyRange::Date(lo, hi) => within(ValueRef::Date(lo), key, ValueRef::Date(hi)),
            KeyRange::Str(lo, hi) => {
                let dict = segment.dictionary();
                within(
                    ValueRef::Str(&dict[lo as usize]),
                    key,
                    ValueRef::Str(&dict[hi as usize]),
                )
            }
        }
    }
}

/// The index of one join column: its hash table and its key range.
struct KeyIndex {
    col: usize,
    table: ChainTable,
    range: KeyRange,
}

/// [`hash_column`] over a typed column (`less` orders keys as
/// [`ValueRef`] does).
fn hash_typed<T: Copy>(
    column: Column<'_>,
    kept: &[u32],
    key_at: impl Fn(usize) -> T,
    hash: impl Fn(T) -> u64,
    less: impl Fn(T, T) -> bool,
    range: impl Fn(T, T) -> KeyRange,
    mut each: impl FnMut(usize, u64),
) -> KeyRange {
    let mut bounds: Option<(T, T)> = None;
    for (slot, &pos) in kept.iter().enumerate().rev() {
        let pos = pos as usize;
        // NULL never equi-joins.
        if column.is_null(pos) {
            continue;
        }
        let key = key_at(pos);
        bounds = Some(match bounds {
            None => (key, key),
            Some((lo, hi)) => (
                if less(key, lo) { key } else { lo },
                if less(hi, key) { key } else { hi },
            ),
        });
        each(slot, hash(key));
    }
    bounds.map_or(KeyRange::Empty, |(lo, hi)| range(lo, hi))
}

/// Feeds `each` the [`hash_key`] of every kept row's non-NULL key in
/// column `col`, as `(slot, hash)` in descending slot order, in one typed
/// pass (a string column hashes each dictionary entry once), and returns
/// the range of those keys.
fn hash_column(
    segment: &Segment,
    kept: &[u32],
    col: usize,
    each: impl FnMut(usize, u64),
) -> KeyRange {
    if kept.is_empty() {
        // The segment may not even have the column (an empty relation
        // under an empty schema).
        return KeyRange::Empty;
    }
    let column = segment.column(col);
    match column.values() {
        ColumnValues::Int(v) => hash_typed(
            column,
            kept,
            |p| v[p],
            |k| hash_key(ValueRef::Int(k)),
            |a, b| a < b,
            KeyRange::Int,
            each,
        ),
        ColumnValues::Date(v) => hash_typed(
            column,
            kept,
            |p| v[p],
            |k| hash_key(ValueRef::Date(k)),
            |a, b| a < b,
            KeyRange::Date,
            each,
        ),
        ColumnValues::Float(v) => hash_typed(
            column,
            kept,
            |p| v[p],
            |k| hash_key(ValueRef::Float(k)),
            |a: f64, b| a.total_cmp(&b).is_lt(),
            KeyRange::Float,
            each,
        ),
        ColumnValues::Bool(v) => hash_typed(
            column,
            kept,
            |p| v[p],
            |k| hash_key(ValueRef::Bool(k)),
            |a, b| !a & b,
            KeyRange::Bool,
            each,
        ),
        ColumnValues::Str(codes) => {
            let dict = segment.dictionary();
            let hashes: Vec<u64> = dict.iter().map(|s| hash_key(ValueRef::Str(s))).collect();
            hash_typed(
                column,
                kept,
                |p| codes[p],
                |code| hashes[code as usize],
                |a, b| a != b && dict[a as usize] < dict[b as usize],
                KeyRange::Str,
                each,
            )
        }
    }
}

/// The index over `kept` of column `col`: its chain table and key range,
/// from one [`hash_column`] pass.
fn key_index(segment: &Segment, kept: &[u32], col: usize) -> KeyIndex {
    let mut table = ChainTable::unchained(kept.len());
    let range = hash_column(segment, kept, col, |slot, hash| {
        table.push_front(slot, hash)
    });
    KeyIndex { col, table, range }
}

/// Hash of a join key, as every [`SegmentIndex`] table uses it. Compute
/// it once per logical probe and reuse it across candidate segments via
/// [`SegmentIndex::probe_hashed`].
#[inline]
pub(crate) fn hash_key(key: ValueRef<'_>) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Filter survivors of one segment plus hash indexes on its join
/// columns, all by reference into the shared segment.
pub struct SegmentIndex {
    segment: Arc<Segment>,
    /// Positions of rows surviving the filter, ascending.
    kept: Vec<u32>,
    /// One per join column, in `join_cols` order; a column's position
    /// here is its table slot.
    keys: Vec<KeyIndex>,
    stats: ScanStats,
}

impl SegmentIndex {
    /// Scans `segment` through `filter` and builds hash indexes on
    /// `join_cols`. The index shares the segment; no row is copied.
    pub fn build(segment: &Arc<Segment>, filter: Option<&Expr>, join_cols: &[usize]) -> Self {
        let kept = scan::select(segment, filter);
        let keys = join_cols
            .iter()
            .map(|&col| key_index(segment, &kept, col))
            .collect();
        SegmentIndex {
            stats: ScanStats {
                scanned: segment.len(),
                kept: kept.len(),
            },
            segment: Arc::clone(segment),
            kept,
            keys,
        }
    }

    /// Surviving row `slot` (its place in [`SegmentIndex::positions`]).
    #[inline]
    pub(crate) fn row_at(&self, slot: usize) -> RowRef<'_> {
        self.segment.row(self.kept[slot] as usize)
    }

    /// [`hash_column`] over the surviving rows' column `col`.
    pub(crate) fn hash_keys(&self, col: usize, each: impl FnMut(usize, u64)) {
        hash_column(&self.segment, &self.kept, col, each);
    }

    /// Rows surviving the filter, in segment order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        self.kept
            .iter()
            .map(move |&pos| self.segment.row(pos as usize))
    }

    /// Positions, in the indexed segment, of the rows surviving the
    /// filter (ascending; parallel to [`SegmentIndex::rows`]).
    pub fn positions(&self) -> &[u32] {
        &self.kept
    }

    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// True when no rows survived the filter — the trigger for the
    /// subplan-pruning optimization (§5.2.4).
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Scan statistics (tuples examined/kept) for cost accounting.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// The table slot of join column `col`, for
    /// [`SegmentIndex::probe_hashed`].
    ///
    /// # Panics
    /// Panics if `col` was not indexed — probing an unindexed column is a
    /// planning bug, not a data condition.
    pub(crate) fn slot_of(&self, col: usize) -> usize {
        self.keys
            .iter()
            .position(|k| k.col == col)
            .unwrap_or_else(|| {
                let indexed: Vec<usize> = self.keys.iter().map(|k| k.col).collect();
                panic!("column {col} not indexed (indexed: {indexed:?})")
            })
    }

    /// False when no kept row's key in table `slot` can equal `key`: the
    /// key lies outside the column's least and greatest kept key, so a
    /// probe would yield nothing. Two compares for an integer key; no
    /// bucket is loaded.
    #[inline]
    pub(crate) fn may_hold(&self, slot: usize, key: ValueRef<'_>) -> bool {
        self.keys[slot].range.admits(key, &self.segment)
    }

    /// Rows whose column `col` equals `key`, in ascending row position.
    /// `col` must be one of the join columns the index was built on; a
    /// NULL `key` matches nothing.
    ///
    /// # Panics
    /// Panics if `col` was not indexed.
    pub fn probe<'a>(&'a self, col: usize, key: ValueRef<'a>) -> Matches<'a> {
        self.probe_hashed(self.slot_of(col), hash_key(key), key)
    }

    /// [`SegmentIndex::probe`] with the column already resolved to its
    /// table slot ([`SegmentIndex::slot_of`]) and the key already hashed
    /// ([`hash_key`]): the form for probing many segments with one key.
    #[inline]
    pub(crate) fn probe_hashed<'a>(
        &'a self,
        slot: usize,
        hash: u64,
        key: ValueRef<'a>,
    ) -> Matches<'a> {
        Matches {
            segment: &self.segment,
            kept: &self.kept,
            // A NULL probe key needs no special case: NULL-keyed slots
            // are in no chain, so it compares unequal to all it meets.
            chain: self.keys[slot].table.chain(hash),
            col: self.keys[slot].col,
            key,
        }
    }
}

/// Iterator over the rows matching one probe, ascending by row position.
pub struct Matches<'a> {
    segment: &'a Segment,
    kept: &'a [u32],
    chain: Chain<'a>,
    col: usize,
    key: ValueRef<'a>,
}

impl<'a> Iterator for Matches<'a> {
    type Item = RowRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<RowRef<'a>> {
        let (segment, kept, col, key) = (self.segment, self.kept, self.col, self.key);
        self.chain
            .by_ref()
            .map(|slot| segment.row(kept[slot] as usize))
            .find(|row| row.get(col) == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};
    use crate::tuple::Row;
    use crate::value::Value;

    fn seg() -> Arc<Segment> {
        let schema = Schema::of(&[("k", DataType::Int), ("g", DataType::Int)]);
        Arc::new(
            Segment::new(
                schema,
                vec![
                    row![1i64, 10i64],
                    row![2i64, 10i64],
                    row![1i64, 20i64],
                    row![3i64, 30i64],
                ],
            )
            .unwrap(),
        )
    }

    fn owned<'a>(rows: impl Iterator<Item = RowRef<'a>>) -> Vec<Row> {
        rows.map(RowRef::to_row).collect()
    }

    #[test]
    fn probes_by_key() {
        let idx = SegmentIndex::build(&seg(), None, &[0]);
        assert_eq!(idx.probe(0, ValueRef::Int(1)).count(), 2);
        assert_eq!(idx.probe(0, ValueRef::Int(3)).count(), 1);
        assert_eq!(idx.probe(0, ValueRef::Int(99)).count(), 0);
        let row = idx.probe(0, ValueRef::Int(3)).next().unwrap();
        assert_eq!(row.to_row(), row![3i64, 30i64]);
    }

    #[test]
    fn matches_ascend_by_row_position() {
        let idx = SegmentIndex::build(&seg(), None, &[0, 1]);
        let hits = owned(idx.probe(0, ValueRef::Int(1)));
        assert_eq!(hits, [row![1i64, 10i64], row![1i64, 20i64]]);
        let hits = owned(idx.probe(1, ValueRef::Int(10)));
        assert_eq!(hits, [row![1i64, 10i64], row![2i64, 10i64]]);
    }

    #[test]
    fn multiple_indexed_columns() {
        let idx = SegmentIndex::build(&seg(), None, &[0, 1]);
        assert_eq!(idx.probe(1, ValueRef::Int(10)).count(), 2);
        assert_eq!(idx.probe(0, ValueRef::Int(1)).count(), 2);
    }

    #[test]
    fn filter_applied_before_indexing() {
        let pred = Expr::col(1).ge(Expr::lit(20i64));
        let idx = SegmentIndex::build(&seg(), Some(&pred), &[0]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.positions(), [2, 3]);
        assert_eq!(idx.stats().scanned, 4);
        assert_eq!(idx.stats().kept, 2);
        assert_eq!(idx.probe(0, ValueRef::Int(2)).count(), 0); // filtered out
        assert_eq!(idx.probe(0, ValueRef::Int(1)).count(), 1);
    }

    #[test]
    fn empty_after_filter_flags_prunable() {
        let pred = Expr::col(0).gt(Expr::lit(100i64));
        let idx = SegmentIndex::build(&seg(), Some(&pred), &[0]);
        assert!(idx.is_empty());
        assert_eq!(idx.probe(0, ValueRef::Int(1)).count(), 0);
    }

    #[test]
    fn null_keys_not_indexed() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let seg =
            Arc::new(Segment::new(schema, vec![Row::new(vec![Value::Null]), row![1i64]]).unwrap());
        let idx = SegmentIndex::build(&seg, None, &[0]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.probe(0, ValueRef::Null).count(), 0);
        // The NULL slot holds the column's zero, which must not match.
        assert_eq!(idx.probe(0, ValueRef::Int(0)).count(), 0);
    }

    #[test]
    fn string_keys_probe_through_the_dictionary() {
        let schema = Schema::of(&[("s", DataType::Str)]);
        let seg = Arc::new(Segment::new(schema, vec![row!["a"], row!["b"], row!["a"]]).unwrap());
        let idx = SegmentIndex::build(&seg, None, &[0]);
        let a = Value::str("a");
        let hits: Vec<usize> = idx.probe(0, a.as_ref()).map(RowRef::position).collect();
        assert_eq!(hits, [0, 2]);
    }

    #[test]
    fn rows_are_borrowed_from_the_segment() {
        let seg = seg();
        let idx = SegmentIndex::build(&seg, None, &[0]);
        assert_eq!(Arc::strong_count(&seg), 2);
        for (row, &pos) in idx.rows().zip(idx.positions()) {
            assert!(std::ptr::eq(row.segment(), &*seg));
            assert_eq!(row.position(), pos as usize);
        }
        drop(idx);
        assert_eq!(Arc::strong_count(&seg), 1);
    }

    /// Probe keys at and around `bound`: the same number in every
    /// numeric type, its integer neighbours, the halves between them and
    /// `-0.0` next to zero; a string, its prefix and its extension.
    fn keys_around(bound: ValueRef<'_>) -> Vec<Value> {
        let whole = match bound {
            ValueRef::Int(i) => i,
            ValueRef::Date(d) => d as i64,
            ValueRef::Float(f) => f.floor() as i64,
            ValueRef::Str(s) => {
                let prefix = &s[..s.len() - 1];
                return vec![
                    Value::str(s),
                    Value::str(prefix),
                    Value::str(&format!("{s}~")),
                ];
            }
            _ => unreachable!("no such key column"),
        };
        let mut keys = vec![Value::Float(-0.0)];
        if let ValueRef::Float(f) = bound {
            keys.push(Value::Float(f));
        }
        for k in whole - 1..=whole + 2 {
            let half = k as f64 + 0.5;
            keys.extend([Value::Int(k), Value::Date(k as i32)]);
            keys.extend([Value::Float(k as f64), Value::Float(half)]);
        }
        keys
    }

    fn non_null_keys<'a>(rows: impl Iterator<Item = RowRef<'a>>, col: usize) -> Vec<ValueRef<'a>> {
        rows.map(|row| row.get(col))
            .filter(|v| !v.is_null())
            .collect()
    }

    /// The key range is exact under `ValueRef`'s total order: every key
    /// below the least or above the greatest kept non-NULL key is
    /// rejected and its probe yields nothing, and every key at a bound
    /// (or between them) is admitted — in every cross type, NULL
    /// included, on segments whose filter or NULLs drop the extreme rows.
    #[test]
    fn key_range_is_exact_across_types() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let schema = Schema::of(&[
            ("i", DataType::Int),
            ("f", DataType::Float),
            ("d", DataType::Date),
            ("s", DataType::Str),
            ("g", DataType::Int),
        ]);
        let cols = [0, 1, 2, 3];
        let mut rng = StdRng::seed_from_u64(0xB0B5);
        let (mut trimmed, mut rejected, mut admitted) = (0, 0, 0);
        for case in 0..300 {
            let rows: Vec<Row> = (0..rng.gen_range(0..10))
                .map(|_| {
                    let k = rng.gen_range(-6..6i64);
                    let values = [
                        Value::Int(k),
                        // Integral, non-integral and negative zero.
                        match rng.gen_range(0..3) {
                            0 => Value::Float(k as f64),
                            1 => Value::Float(k as f64 + 0.5),
                            _ => Value::Float(-0.0),
                        },
                        Value::Date(k as i32),
                        Value::str(&format!("s{}", k + 6)),
                    ];
                    let mut row: Vec<Value> = values
                        .into_iter()
                        .map(|v| if rng.gen_bool(0.2) { Value::Null } else { v })
                        .collect();
                    row.push(Value::Int(rng.gen_range(0..4)));
                    Row::new(row)
                })
                .collect();
            let seg = Arc::new(Segment::new(schema.clone(), rows).unwrap());
            let filter = rng
                .gen_bool(0.5)
                .then(|| Expr::col(4).ge(Expr::lit(rng.gen_range(0..4i64))));
            let idx = SegmentIndex::build(&seg, filter.as_ref(), &cols);
            for (slot, &col) in cols.iter().enumerate() {
                let kept = non_null_keys(idx.rows(), col);
                let all = non_null_keys(seg.iter(), col);
                let (lo, hi) = (kept.iter().min(), kept.iter().max());
                trimmed += ((lo, hi) != (all.iter().min(), all.iter().max())) as usize;
                let mut keys = vec![Value::Null, Value::str("s"), Value::Int(0)];
                for bound in all.iter().chain(lo).chain(hi) {
                    keys.extend(keys_around(*bound));
                }
                for key in &keys {
                    let key = key.as_ref();
                    let inside = lo.is_some_and(|lo| *lo <= key) && hi.is_some_and(|hi| key <= *hi);
                    let holds = idx.may_hold(slot, key);
                    assert_eq!(
                        holds, inside,
                        "case {case} col {col} key {key:?} in {lo:?}..={hi:?}"
                    );
                    if holds {
                        admitted += 1;
                    } else {
                        rejected += 1;
                        assert_eq!(
                            idx.probe(col, key).count(),
                            0,
                            "case {case} col {col} key {key:?}"
                        );
                    }
                }
            }
        }
        // Not vacuous: filters and NULLs trimmed ranges, and keys fell on
        // both sides.
        assert!(trimmed > 100, "only {trimmed} trimmed ranges");
        assert!(
            rejected > 1_000 && admitted > 1_000,
            "{rejected} rejected, {admitted} admitted"
        );
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn probing_unindexed_column_panics() {
        let idx = SegmentIndex::build(&seg(), None, &[0]);
        let _ = idx.probe(1, ValueRef::Int(10));
    }
}
