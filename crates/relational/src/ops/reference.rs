//! Whole-query reference executor.
//!
//! Evaluates a [`QuerySpec`] over fully materialized relations using the
//! same n-ary probe kernel MJoin uses for subplans, but with each relation
//! treated as a single segment. Together with the binary baseline this
//! gives three independent evaluation paths for every query; the test
//! suite asserts all three agree.

use std::sync::Arc;

use crate::join_graph::ProbePlan;
use crate::ops::index::SegmentIndex;
use crate::ops::nary;
use crate::query::{Aggregator, QuerySpec};
use crate::schema::Schema;
use crate::segment::Segment;
use crate::tuple::Row;

/// Executes `spec` over `relations[i]` = all segments of table `i`,
/// returning the finished `(group key, aggregates)` rows sorted by key.
pub fn execute(spec: &QuerySpec, relations: &[&[Segment]]) -> Vec<(Row, Vec<Value>)> {
    let agg = aggregate(spec, relations);
    agg.finish()
}

use crate::value::Value;

/// Like [`execute`] but returns the raw [`Aggregator`] (exposing the join
/// cardinality via [`Aggregator::rows_seen`]).
pub fn aggregate(spec: &QuerySpec, relations: &[&[Segment]]) -> Aggregator {
    assert_eq!(relations.len(), spec.num_relations());
    let plan = ProbePlan::plan(spec).expect("workload queries are plannable");

    // Concatenate each relation's segments into one index.
    let indexes: Vec<SegmentIndex> = relations
        .iter()
        .enumerate()
        .map(|(rel, segs)| {
            let schema: Schema = segs
                .first()
                .map(|s| s.schema().clone())
                .unwrap_or_else(|| Schema::new(vec![]));
            let all_rows: Vec<Row> = segs.iter().flat_map(|s| s.rows().iter().cloned()).collect();
            let merged = Arc::new(Segment::new_unchecked(schema, all_rows));
            SegmentIndex::build(&merged, spec.filters[rel].as_ref(), &spec.join_cols(rel))
        })
        .collect();
    let refs: Vec<&SegmentIndex> = indexes.iter().collect();

    let mut agg = Aggregator::for_query(spec);
    nary::execute_combination(&plan, &refs, &mut |rows| agg.update(rows));
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::ops::binary;
    use crate::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QualifiedCol};
    use crate::row;
    use crate::schema::DataType;

    fn seg(cols: &[(&str, DataType)], rows: Vec<Row>) -> Segment {
        Segment::new(Schema::of(cols), rows).unwrap()
    }

    fn spec() -> QuerySpec {
        QuerySpec {
            name: "ref-test".into(),
            tables: vec!["fact".into(), "dim".into()],
            filters: vec![Some(Expr::col(1).ge(Expr::lit(10i64))), None],
            joins: vec![JoinCond::new(0, 0, 1, 0)],
            driver: 0,
            plan_order: vec![1, 0],
            probe_order: None,
            group_by: vec![QualifiedCol::new(1, 1)],
            aggregates: vec![
                AggSpec::new(AggFunc::Count, JoinExpr::Lit(Value::Int(1)), "cnt"),
                AggSpec::new(AggFunc::Sum, JoinExpr::col(0, 1), "sum_v"),
            ],
        }
    }

    fn data() -> (Vec<Segment>, Vec<Segment>) {
        let fact = vec![
            seg(
                &[("k", DataType::Int), ("v", DataType::Int)],
                vec![row![1i64, 5i64], row![1i64, 15i64], row![2i64, 25i64]],
            ),
            seg(
                &[("k", DataType::Int), ("v", DataType::Int)],
                vec![row![2i64, 35i64], row![3i64, 45i64]],
            ),
        ];
        let dim = vec![seg(
            &[("k", DataType::Int), ("name", DataType::Str)],
            vec![row![1i64, "one"], row![2i64, "two"]],
        )];
        (fact, dim)
    }

    #[test]
    fn reference_matches_hand_computation() {
        let (fact, dim) = data();
        let out = execute(&spec(), &[&fact, &dim]);
        // Matching rows with v >= 10: (1,15)→one, (2,25)→two, (2,35)→two.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, row!["one"]);
        assert_eq!(out[0].1, vec![Value::Int(1), Value::Float(15.0)]);
        assert_eq!(out[1].0, row!["two"]);
        assert_eq!(out[1].1, vec![Value::Int(2), Value::Float(60.0)]);
    }

    #[test]
    fn reference_agrees_with_binary_baseline() {
        let (fact, dim) = data();
        let s = spec();
        let ref_out = execute(&s, &[&fact, &dim]);
        let (bin_agg, _) = binary::execute_left_deep(&s, &[&fact, &dim]);
        assert_eq!(ref_out, bin_agg.finish());
    }

    #[test]
    fn join_cardinality_exposed() {
        let (fact, dim) = data();
        let agg = aggregate(&spec(), &[&fact, &dim]);
        assert_eq!(agg.rows_seen(), 3);
    }

    #[test]
    fn empty_relation_yields_empty_result() {
        let (fact, _) = data();
        let out = execute(&spec(), &[&fact, &[]]);
        assert!(out.is_empty());
    }
}
