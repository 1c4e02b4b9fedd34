//! Filtered segment scans.
//!
//! Selection predicates are applied at the segment boundary in both
//! engines — the baseline filters while building/probing, MJoin filters
//! before inserting tuples into its per-segment hash tables. Centralizing
//! the scan here keeps the two engines' filter semantics identical.

use crate::expr::Expr;
use crate::segment::Segment;
use crate::tuple::Row;

/// Statistics from one scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Tuples examined.
    pub scanned: usize,
    /// Tuples passing the predicate.
    pub kept: usize,
}

/// Positions and rows of `segment` passing `filter` (every row when
/// `filter` is `None`), in segment order. Rows are borrowed, never copied.
pub fn surviving<'a>(
    segment: &'a Segment,
    filter: Option<&'a Expr>,
) -> impl Iterator<Item = (usize, &'a Row)> + 'a {
    segment
        .rows()
        .iter()
        .enumerate()
        .filter(move |(_, row)| filter.is_none_or(|pred| pred.matches(row)))
}

/// Counts rows passing `filter` without materializing them.
pub fn count_matching(segment: &Segment, filter: Option<&Expr>) -> usize {
    match filter {
        None => segment.len(),
        Some(pred) => segment.rows().iter().filter(|r| pred.matches(r)).count(),
    }
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
        let seg = seg();
        let positions: Vec<usize> = surviving(&seg, None).map(|(pos, _)| pos).collect();
        assert_eq!(positions, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn filtered_scan_applies_predicate() {
        let seg = seg();
        let pred = Expr::col(0).ge(Expr::lit(7i64));
        let kept: Vec<(usize, &Row)> = surviving(&seg, Some(&pred)).collect();
        assert_eq!(kept.len(), 3);
        for (pos, row) in kept {
            assert!(row.get(0).as_int().unwrap() >= 7);
            assert!(std::ptr::eq(row, &seg.rows()[pos]), "rows are borrowed");
        }
    }

    #[test]
    fn count_matches_scan() {
        let pred = Expr::col(0).lt(Expr::lit(4i64));
        assert_eq!(count_matching(&seg(), Some(&pred)), 4);
        assert_eq!(count_matching(&seg(), None), 10);
    }

    #[test]
    fn selective_to_empty() {
        let pred = Expr::col(0).gt(Expr::lit(100i64));
        assert_eq!(surviving(&seg(), Some(&pred)).count(), 0);
    }
}
