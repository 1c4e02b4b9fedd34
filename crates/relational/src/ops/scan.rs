//! Filtered segment scans.
//!
//! Selection predicates are applied at the segment boundary in both
//! engines — the baseline filters each segment as it arrives, MJoin
//! filters before inserting tuples into its per-segment hash tables.
//! Centralizing the scan here keeps the two engines' filter semantics
//! identical.

use crate::expr::Expr;
use crate::segment::Segment;

/// Statistics from one scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Tuples examined.
    pub scanned: usize,
    /// Tuples passing the predicate.
    pub kept: usize,
}

/// The selection vector of `segment` under `filter`: ascending positions
/// of the rows it keeps (every row when `filter` is `None`), evaluated
/// column by column.
pub fn select(segment: &Segment, filter: Option<&Expr>) -> Vec<u32> {
    assert!(
        segment.len() < u32::MAX as usize,
        "segment of {} rows exceeds 32-bit row positions",
        segment.len()
    );
    let mut sel: Vec<u32> = (0..segment.len() as u32).collect();
    if let Some(pred) = filter {
        pred.retain(segment, &mut sel);
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};

    fn seg() -> Segment {
        let schema = Schema::of(&[("k", DataType::Int)]);
        Segment::new(schema, (0..10i64).map(|i| row![i]).collect()).unwrap()
    }

    #[test]
    fn unfiltered_scan_keeps_all() {
        assert_eq!(select(&seg(), None), (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn filtered_scan_applies_predicate() {
        let seg = seg();
        let pred = Expr::col(0).ge(Expr::lit(7i64));
        let kept = select(&seg, Some(&pred));
        assert_eq!(kept, [7, 8, 9]);
        for pos in kept {
            assert!(seg.value(pos as usize, 0).as_int().unwrap() >= 7);
        }
    }

    #[test]
    fn count_matches_scan() {
        let pred = Expr::col(0).lt(Expr::lit(4i64));
        assert_eq!(select(&seg(), Some(&pred)).len(), 4);
        assert_eq!(select(&seg(), None).len(), 10);
    }

    #[test]
    fn selective_to_empty() {
        let pred = Expr::col(0).gt(Expr::lit(100i64));
        assert!(select(&seg(), Some(&pred)).is_empty());
    }
}
