//! Per-segment hash indexes.
//!
//! MJoin is a *symmetric* hash join: when a segment arrives, hash tables
//! are built over it on every join column its relation participates in
//! (§4.1 of the paper: "builds appropriate hash tables based on the join
//! conditions"). A [`SegmentIndex`] borrows its tuples: it keeps the
//! delivered `Arc<Segment>` alive and refers to rows by position, so
//! neither rows nor keys are ever copied.
//!
//! # Layout
//!
//! * `kept` — the selection vector: positions of the rows that passed
//!   the filter ([`scan::select`]), ascending. A row's index in `kept`
//!   is its *slot*.
//! * per join column, one `ChainTable`: `heads[bucket]` is the first
//!   slot of the bucket's chain and `links[slot]` holds the next slot of
//!   the chain plus the low 32 bits of the slot's key hash. Keys are
//!   hashed straight out of the typed key column (a string column hashes
//!   each dictionary entry once and looks codes up). The bucket is taken
//!   from the hash's *high* bits (the well-mixed end of Fx's multiply);
//!   the stored low bits reject almost every non-matching chain entry
//!   without touching the column. A tag hit compares the key column's
//!   value at `kept[slot]` with the probe key.
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
//! its hashtable": it frees `kept`, two `Vec`s per join column and one
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
        assert!(slots < NIL as usize, "{slots} slots exceed 32-bit slot ids");
        // At least two buckets per slot keeps most chains at one key;
        // at least two buckets keeps `shift` below 64.
        let buckets = (slots * 2).next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let mut heads = vec![NIL; buckets];
        let mut links = vec![Link { next: NIL, tag: 0 }; slots];
        // Reverse pass + head insertion ⇒ chains ascend by slot.
        for slot in (0..slots).rev() {
            let Some(hash) = hash_of(slot) else {
                continue;
            };
            let head = &mut heads[(hash >> shift) as usize];
            links[slot] = Link {
                next: *head,
                tag: hash as u32,
            };
            *head = slot as u32;
        }
        ChainTable {
            heads,
            links,
            shift,
        }
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

/// The chain table over `kept` keyed on column `col`, hashing straight
/// out of the typed column (a string column hashes each dictionary entry
/// once).
fn column_table(segment: &Segment, kept: &[u32], col: usize) -> ChainTable {
    fn table(column: Column<'_>, kept: &[u32], hash_at: impl Fn(usize) -> u64) -> ChainTable {
        ChainTable::build(kept.len(), |slot| {
            let pos = kept[slot] as usize;
            // NULL never equi-joins.
            (!column.is_null(pos)).then(|| hash_at(pos))
        })
    }
    if kept.is_empty() {
        // Nothing to chain; the segment may not even have the column (an
        // empty relation under an empty schema).
        return ChainTable::build(0, |_| None);
    }
    let column = segment.column(col);
    match column.values() {
        ColumnValues::Int(v) => table(column, kept, |p| hash_key(ValueRef::Int(v[p]))),
        ColumnValues::Date(v) => table(column, kept, |p| hash_key(ValueRef::Date(v[p]))),
        ColumnValues::Float(v) => table(column, kept, |p| hash_key(ValueRef::Float(v[p]))),
        ColumnValues::Bool(v) => table(column, kept, |p| hash_key(ValueRef::Bool(v[p]))),
        ColumnValues::Str(codes) => {
            let hashes: Vec<u64> = segment
                .dictionary()
                .iter()
                .map(|s| hash_key(ValueRef::Str(s)))
                .collect();
            table(column, kept, |p| hashes[codes[p] as usize])
        }
    }
}

/// Hash of a join key, as every [`SegmentIndex`] table uses it. Compute
/// it once per logical probe and reuse it across candidate segments via
/// [`SegmentIndex::probe_hashed`].
#[inline]
pub fn hash_key(key: ValueRef<'_>) -> u64 {
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
    /// `tables[i]` indexes column `cols[i]`.
    cols: Vec<usize>,
    tables: Vec<ChainTable>,
    stats: ScanStats,
}

impl SegmentIndex {
    /// Scans `segment` through `filter` and builds hash indexes on
    /// `join_cols`. The index shares the segment; no row is copied.
    pub fn build(segment: &Arc<Segment>, filter: Option<&Expr>, join_cols: &[usize]) -> Self {
        let kept = scan::select(segment, filter);
        let tables = join_cols
            .iter()
            .map(|&col| column_table(segment, &kept, col))
            .collect();
        SegmentIndex {
            stats: ScanStats {
                scanned: segment.len(),
                kept: kept.len(),
            },
            segment: Arc::clone(segment),
            kept,
            cols: join_cols.to_vec(),
            tables,
        }
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
    pub fn slot_of(&self, col: usize) -> usize {
        self.cols
            .iter()
            .position(|&c| c == col)
            .unwrap_or_else(|| panic!("column {col} not indexed (indexed: {:?})", self.cols))
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
    pub fn probe_hashed<'a>(&'a self, slot: usize, hash: u64, key: ValueRef<'a>) -> Matches<'a> {
        Matches {
            segment: &self.segment,
            kept: &self.kept,
            // A NULL probe key needs no special case: NULL-keyed slots
            // are in no chain, so it compares unequal to all it meets.
            chain: self.tables[slot].chain(hash),
            col: self.cols[slot],
            key,
        }
    }

    /// Approximate number of hash-table entries across all indexes; used
    /// to charge hash-build CPU cost.
    pub fn entries(&self) -> usize {
        self.cols.len() * self.kept.len()
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
        assert_eq!(idx.entries(), 8);
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

    #[test]
    #[should_panic(expected = "not indexed")]
    fn probing_unindexed_column_panics() {
        let idx = SegmentIndex::build(&seg(), None, &[0]);
        let _ = idx.probe(1, ValueRef::Int(10));
    }
}
