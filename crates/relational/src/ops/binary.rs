//! Left-deep binary hash joins: the vanilla-PostgreSQL-style baseline.
//!
//! Classic optimize-then-execute evaluation: relations are consumed in the
//! optimizer-chosen `plan_order`, each step building a hash table over the
//! next relation and probing it with the accumulated intermediate result.
//! This is the *blocking* execution model the paper contrasts with MJoin:
//! every input must be fully available, in order, before results appear —
//! precisely the assumption a shared CSD violates.

use std::borrow::Borrow;

use crate::hash::FxHashMap;
use crate::ops::scan::surviving;
use crate::query::{Aggregator, QuerySpec};
use crate::segment::Segment;
use crate::tuple::Row;
use crate::value::Value;

/// Work counters from a baseline execution, used for CPU cost accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinaryWork {
    /// Tuples examined by scans.
    pub scanned: usize,
    /// Tuples surviving filters.
    pub kept: usize,
    /// Tuples inserted into build-side hash tables.
    pub built: usize,
    /// Probe operations.
    pub probes: usize,
    /// Rows in the final joined result.
    pub emitted: usize,
    /// Peak intermediate-result cardinality (memory pressure proxy).
    pub peak_intermediate: usize,
}

/// Executes `spec` with left-deep binary hash joins over fully
/// materialized relations (`relations[i]` = all segments of table `i`,
/// owned or shared: `Segment`, `Arc<Segment>`, `&Segment`), feeding the
/// final rows into a fresh [`Aggregator`]. Rows are read in place.
///
/// # Panics
/// Panics if `plan_order` would require a cross product (no join edge
/// between the next relation and the already-joined prefix) — the static
/// workload plans never do.
pub fn execute_left_deep<S: Borrow<Segment>>(
    spec: &QuerySpec,
    relations: &[&[S]],
) -> (Aggregator, BinaryWork) {
    assert_eq!(relations.len(), spec.num_relations());
    let mut work = BinaryWork::default();

    // Scan + filter every relation up front (the baseline fetches whole
    // relations in plan order; filters apply at scan time).
    let mut filtered: Vec<Vec<&Row>> = Vec::with_capacity(relations.len());
    for (rel, segs) in relations.iter().enumerate() {
        let mut rows = Vec::new();
        for seg in segs.iter() {
            let seg: &Segment = seg.borrow();
            work.scanned += seg.len();
            rows.extend(surviving(seg, spec.filters[rel].as_ref()).map(|(_, row)| row));
        }
        work.kept += rows.len();
        filtered.push(rows);
    }

    // Intermediate result: tuples of row indices, one per bound relation,
    // in binding order.
    let first = spec.plan_order[0];
    let mut bound: Vec<usize> = vec![first];
    let mut inter: Vec<Vec<u32>> = (0..filtered[first].len() as u32).map(|i| vec![i]).collect();
    work.peak_intermediate = inter.len();

    for &rel in &spec.plan_order[1..] {
        // Join edges between `rel` and the bound prefix.
        let edges: Vec<(usize, usize, usize)> = spec
            .joins
            .iter()
            .filter_map(|jc| {
                let own = jc.side_of(rel)?;
                let other = jc.other_side(rel)?;
                let slot = bound.iter().position(|&b| b == other.rel)?;
                Some((own.col, slot, other.col))
            })
            .collect();
        assert!(
            !edges.is_empty(),
            "query {}: plan_order step {rel} has no join edge into {:?} (cross product)",
            spec.name,
            bound
        );

        // Build a hash table over `rel` keyed by its composite join key.
        let mut table: FxHashMap<Row, Vec<u32>> = FxHashMap::default();
        'rows: for (pos, row) in filtered[rel].iter().enumerate() {
            let mut key = Vec::with_capacity(edges.len());
            for &(own_col, _, _) in &edges {
                let v = row.get(own_col);
                if v.is_null() {
                    continue 'rows;
                }
                key.push(v.clone());
            }
            work.built += 1;
            table.entry(Row::new(key)).or_default().push(pos as u32);
        }

        // Probe with the intermediate result.
        let mut next = Vec::new();
        for tuple in &inter {
            work.probes += 1;
            let mut key: Vec<Value> = Vec::with_capacity(edges.len());
            let mut null_key = false;
            for &(_, slot, other_col) in &edges {
                let src_rel = bound[slot];
                let row = filtered[src_rel][tuple[slot] as usize];
                let v = row.get(other_col);
                if v.is_null() {
                    null_key = true;
                    break;
                }
                key.push(v.clone());
            }
            if null_key {
                continue;
            }
            if let Some(matches) = table.get(&Row::new(key)) {
                for &pos in matches {
                    let mut t = tuple.clone();
                    t.push(pos);
                    next.push(t);
                }
            }
        }
        bound.push(rel);
        inter = next;
        work.peak_intermediate = work.peak_intermediate.max(inter.len());
    }

    // Emit joined rows in relation order into the aggregator.
    let mut agg = Aggregator::for_query(spec);
    let mut ordered: Vec<&Row> = Vec::with_capacity(spec.num_relations());
    for tuple in &inter {
        ordered.clear();
        ordered.resize(spec.num_relations(), filtered[0][0]); // placeholder; every slot overwritten below
        let mut slots_filled = 0usize;
        for (slot, &rel) in bound.iter().enumerate() {
            ordered[rel] = filtered[rel][tuple[slot] as usize];
            slots_filled += 1;
        }
        debug_assert_eq!(slots_filled, spec.num_relations());
        work.emitted += 1;
        agg.update(&ordered);
    }
    (agg, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QualifiedCol};
    use crate::row;
    use crate::schema::{DataType, Schema};

    fn seg(cols: &[(&str, DataType)], rows: Vec<Row>) -> Segment {
        Segment::new(Schema::of(cols), rows).unwrap()
    }

    fn count_spec(n: usize, joins: Vec<JoinCond>, plan_order: Vec<usize>) -> QuerySpec {
        QuerySpec {
            name: "t".into(),
            tables: (0..n).map(|i| format!("t{i}")).collect(),
            filters: vec![None; n],
            joins,
            driver: 0,
            plan_order,
            probe_order: None,
            group_by: vec![],
            aggregates: vec![AggSpec::new(
                AggFunc::Count,
                JoinExpr::Lit(Value::Int(1)),
                "cnt",
            )],
        }
    }

    fn result_count(agg: &Aggregator) -> i64 {
        agg.finish()
            .first()
            .and_then(|(_, vals)| vals[0].as_int())
            .unwrap_or(0)
    }

    #[test]
    fn two_way_count() {
        let a = seg(
            &[("k", DataType::Int)],
            vec![row![1i64], row![2i64], row![2i64]],
        );
        let b = seg(&[("k", DataType::Int)], vec![row![2i64], row![3i64]]);
        let spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        let (agg, work) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 2);
        assert_eq!(work.emitted, 2);
        assert_eq!(work.scanned, 5);
    }

    #[test]
    fn filters_apply_at_scan() {
        let a = seg(
            &[("k", DataType::Int)],
            (0..10i64).map(|i| row![i]).collect(),
        );
        let b = seg(
            &[("k", DataType::Int)],
            (0..10i64).map(|i| row![i]).collect(),
        );
        let mut spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        spec.filters[0] = Some(Expr::col(0).lt(Expr::lit(3i64)));
        let (agg, work) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 3);
        assert_eq!(work.kept, 13); // 3 from a + 10 from b
    }

    #[test]
    fn three_way_chain_with_grouping() {
        // a(k,g) ⋈ b(k,m) ⋈ c(m), group by a.g
        let a = seg(
            &[("k", DataType::Int), ("g", DataType::Str)],
            vec![row![1i64, "x"], row![2i64, "y"]],
        );
        let b = seg(
            &[("k", DataType::Int), ("m", DataType::Int)],
            vec![row![1i64, 7i64], row![2i64, 7i64], row![2i64, 8i64]],
        );
        let c = seg(&[("m", DataType::Int)], vec![row![7i64]]);
        let mut spec = count_spec(
            3,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(1, 1, 2, 0)],
            vec![2, 1, 0],
        );
        spec.group_by = vec![QualifiedCol::new(0, 1)];
        let (agg, _) = execute_left_deep(&spec, &[&[a], &[b], &[c]]);
        let out = agg.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, row!["x"]);
        assert_eq!(out[0].1, vec![Value::Int(1)]);
        assert_eq!(out[1].0, row!["y"]);
        assert_eq!(out[1].1, vec![Value::Int(1)]);
    }

    #[test]
    fn multi_segment_relations_concatenate() {
        let a1 = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        let a2 = seg(&[("k", DataType::Int)], vec![row![2i64]]);
        let b = seg(&[("k", DataType::Int)], vec![row![1i64], row![2i64]]);
        let spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        let (agg, _) = execute_left_deep(&spec, &[&[a1, a2], &[b]]);
        assert_eq!(result_count(&agg), 2);
    }

    #[test]
    fn null_join_keys_never_match() {
        let a = seg(
            &[("k", DataType::Int)],
            vec![Row::new(vec![Value::Null]), row![1i64]],
        );
        let b = seg(
            &[("k", DataType::Int)],
            vec![Row::new(vec![Value::Null]), row![1i64]],
        );
        let spec = count_spec(2, vec![JoinCond::new(0, 0, 1, 0)], vec![1, 0]);
        let (agg, _) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 1);
    }

    #[test]
    #[should_panic(expected = "cross product")]
    fn cross_product_plans_rejected() {
        let a = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        let b = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        let c = seg(&[("k", DataType::Int)], vec![row![1i64]]);
        // Join edges only between 0 and 1; plan order visits 2 second.
        let spec = count_spec(3, vec![JoinCond::new(0, 0, 1, 0)], vec![0, 2, 1]);
        let _ = execute_left_deep(&spec, &[&[a], &[b], &[c]]);
    }

    #[test]
    fn composite_key_join() {
        // Two join edges between the same pair of relations form a
        // composite key.
        let a = seg(
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1i64, 10i64], row![1i64, 20i64]],
        );
        let b = seg(
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1i64, 10i64]],
        );
        let spec = count_spec(
            2,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(0, 1, 1, 1)],
            vec![1, 0],
        );
        let (agg, _) = execute_left_deep(&spec, &[&[a], &[b]]);
        assert_eq!(result_count(&agg), 1);
    }
}
