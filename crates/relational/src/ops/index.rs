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
//! * `kept` — positions (into `segment.rows()`) of the rows that passed
//!   the filter, ascending. A row's index in `kept` is its *slot*.
//! * per join column, one `ChainTable`: `heads[bucket]` is the first
//!   slot of the bucket's chain and `links[slot]` holds the next slot of
//!   the chain plus the low 32 bits of the slot's key hash. The bucket is
//!   taken from the hash's *high* bits (the well-mixed end of Fx's
//!   multiply); the stored low bits reject almost every non-matching
//!   chain entry without touching its row. Keys are compared in place,
//!   `segment.rows()[kept[slot]].get(col)`.
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
use crate::ops::scan::{surviving, ScanStats};
use crate::segment::Segment;
use crate::tuple::Row;
use crate::value::Value;

/// End-of-chain marker in [`ChainTable`].
const NIL: u32 = u32::MAX;

/// One chain entry: the next slot of the chain and the low half of this
/// slot's key hash.
#[derive(Clone, Copy)]
struct Link {
    next: u32,
    tag: u32,
}

/// Bucket-head / next-link hash table over the slots of one column.
struct ChainTable {
    /// `heads[hash >> shift]` — first slot of the chain, or [`NIL`].
    heads: Vec<u32>,
    /// `links[slot]`; NULL-keyed slots are in no chain.
    links: Vec<Link>,
    shift: u32,
}

impl ChainTable {
    fn build(segment: &Segment, kept: &[u32], col: usize) -> Self {
        // At least two buckets per slot keeps most chains at one key;
        // at least two buckets keeps `shift` below 64.
        let buckets = (kept.len() * 2).next_power_of_two().max(2);
        let shift = 64 - buckets.trailing_zeros();
        let mut heads = vec![NIL; buckets];
        let mut links = vec![Link { next: NIL, tag: 0 }; kept.len()];
        let rows = segment.rows();
        // Reverse pass + head insertion ⇒ chains ascend by slot.
        for (slot, &pos) in kept.iter().enumerate().rev() {
            let key = rows[pos as usize].get(col);
            if key.is_null() {
                continue; // NULL never equi-joins
            }
            let hash = hash_key(key);
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
}

/// Hash of a join key, as every [`SegmentIndex`] table uses it. Compute
/// it once per logical probe and reuse it across candidate segments via
/// [`SegmentIndex::probe_hashed`].
#[inline]
pub fn hash_key(key: &Value) -> u64 {
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
        let rows = segment.rows();
        assert!(
            rows.len() < NIL as usize,
            "segment of {} rows exceeds 32-bit row positions",
            rows.len()
        );
        let kept: Vec<u32> = surviving(segment, filter)
            .map(|(pos, _)| pos as u32)
            .collect();
        let tables = join_cols
            .iter()
            .map(|&col| ChainTable::build(segment, &kept, col))
            .collect();
        SegmentIndex {
            stats: ScanStats {
                scanned: rows.len(),
                kept: kept.len(),
            },
            segment: Arc::clone(segment),
            kept,
            cols: join_cols.to_vec(),
            tables,
        }
    }

    /// Rows surviving the filter, in segment order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> + '_ {
        let rows = self.segment.rows();
        self.kept.iter().map(move |&pos| &rows[pos as usize])
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
    pub fn probe<'a, 'k>(&'a self, col: usize, key: &'k Value) -> Matches<'a, 'k> {
        self.probe_hashed(self.slot_of(col), hash_key(key), key)
    }

    /// [`SegmentIndex::probe`] with the column already resolved to its
    /// table slot ([`SegmentIndex::slot_of`]) and the key already hashed
    /// ([`hash_key`]): the form for probing many segments with one key.
    #[inline]
    pub fn probe_hashed<'a, 'k>(
        &'a self,
        slot: usize,
        hash: u64,
        key: &'k Value,
    ) -> Matches<'a, 'k> {
        let table = &self.tables[slot];
        Matches {
            rows: self.segment.rows(),
            kept: &self.kept,
            links: &table.links,
            // A NULL probe key needs no special case: NULL-keyed slots
            // are in no chain, so it compares unequal to all it meets.
            next: table.heads[(hash >> table.shift) as usize],
            col: self.cols[slot],
            tag: hash as u32,
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
pub struct Matches<'a, 'k> {
    rows: &'a [Row],
    kept: &'a [u32],
    links: &'a [Link],
    next: u32,
    col: usize,
    tag: u32,
    key: &'k Value,
}

impl<'a> Iterator for Matches<'a, '_> {
    type Item = &'a Row;

    #[inline]
    fn next(&mut self) -> Option<&'a Row> {
        while self.next != NIL {
            let slot = self.next as usize;
            let link = self.links[slot];
            self.next = link.next;
            if link.tag == self.tag {
                let row = &self.rows[self.kept[slot] as usize];
                if row.get(self.col) == self.key {
                    return Some(row);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};

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

    #[test]
    fn probes_by_key() {
        let idx = SegmentIndex::build(&seg(), None, &[0]);
        assert_eq!(idx.probe(0, &Value::Int(1)).count(), 2);
        assert_eq!(idx.probe(0, &Value::Int(3)).count(), 1);
        assert_eq!(idx.probe(0, &Value::Int(99)).count(), 0);
        let row = idx.probe(0, &Value::Int(3)).next().unwrap();
        assert_eq!(row, &row![3i64, 30i64]);
    }

    #[test]
    fn matches_ascend_by_row_position() {
        let idx = SegmentIndex::build(&seg(), None, &[0, 1]);
        let hits: Vec<&Row> = idx.probe(0, &Value::Int(1)).collect();
        assert_eq!(hits, [&row![1i64, 10i64], &row![1i64, 20i64]]);
        let hits: Vec<&Row> = idx.probe(1, &Value::Int(10)).collect();
        assert_eq!(hits, [&row![1i64, 10i64], &row![2i64, 10i64]]);
    }

    #[test]
    fn multiple_indexed_columns() {
        let idx = SegmentIndex::build(&seg(), None, &[0, 1]);
        assert_eq!(idx.probe(1, &Value::Int(10)).count(), 2);
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
        assert_eq!(idx.probe(0, &Value::Int(2)).count(), 0); // filtered out
        assert_eq!(idx.probe(0, &Value::Int(1)).count(), 1);
    }

    #[test]
    fn empty_after_filter_flags_prunable() {
        let pred = Expr::col(0).gt(Expr::lit(100i64));
        let idx = SegmentIndex::build(&seg(), Some(&pred), &[0]);
        assert!(idx.is_empty());
        assert_eq!(idx.probe(0, &Value::Int(1)).count(), 0);
    }

    #[test]
    fn null_keys_not_indexed() {
        let schema = Schema::of(&[("k", DataType::Int)]);
        let seg =
            Arc::new(Segment::new(schema, vec![Row::new(vec![Value::Null]), row![1i64]]).unwrap());
        let idx = SegmentIndex::build(&seg, None, &[0]);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.probe(0, &Value::Null).count(), 0);
    }

    #[test]
    fn rows_are_borrowed_from_the_segment() {
        let seg = seg();
        let idx = SegmentIndex::build(&seg, None, &[0]);
        assert_eq!(Arc::strong_count(&seg), 2);
        for (row, &pos) in idx.rows().zip(idx.positions()) {
            assert!(std::ptr::eq(row, &seg.rows()[pos as usize]));
        }
        drop(idx);
        assert_eq!(Arc::strong_count(&seg), 1);
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn probing_unindexed_column_panics() {
        let idx = SegmentIndex::build(&seg(), None, &[0]);
        let _ = idx.probe(1, &Value::Int(10));
    }
}
