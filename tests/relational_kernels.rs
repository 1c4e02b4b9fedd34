//! Seeded differential battery for the borrowed relational kernels:
//! [`SegmentIndex`] (chained hash tables over row positions),
//! [`nary::execute_rooted`] (hash-once probes into many segments) and
//! [`binary::execute_left_deep`] (shared segments read in place). Every
//! case is drawn from a seeded RNG and reproducible by its case index.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipper::datagen::{tpch, GenConfig};
use skipper::relational::join_graph::ProbePlan;
use skipper::relational::ops::index::SegmentIndex;
use skipper::relational::ops::{binary, nary, reference};
use skipper::relational::query::{AggFunc, AggSpec, JoinExpr};
use skipper::relational::{DataType, Expr, JoinCond, QuerySpec, Row, Schema, Segment, Value};

/// A value of `dtype` for key `k`, NULL with probability `null_p`.
/// Small key ranges make duplicates the rule.
fn value(rng: &mut StdRng, dtype: DataType, k: i64, null_p: f64) -> Value {
    if rng.gen_bool(null_p) {
        return Value::Null;
    }
    match dtype {
        DataType::Str => Value::str(&format!("s{k}")),
        DataType::Date => Value::Date(k as i32),
        _ => Value::Int(k),
    }
}

fn segment(
    rng: &mut StdRng,
    dtypes: &[DataType],
    rows: usize,
    keys: i64,
    null_p: f64,
) -> Arc<Segment> {
    let fields: Vec<(String, DataType)> = dtypes
        .iter()
        .enumerate()
        .map(|(i, &t)| (format!("c{i}"), t))
        .collect();
    let fields: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let rows = (0..rows)
        .map(|_| {
            Row::new(
                dtypes
                    .iter()
                    .map(|&t| {
                        let k = rng.gen_range(0..keys);
                        value(rng, t, k, null_p)
                    })
                    .collect(),
            )
        })
        .collect();
    Arc::new(Segment::new(Schema::of(&fields), rows).unwrap())
}

/// `None`, or "column `col` >= a random key of its type" (NULL fails).
fn random_filter(rng: &mut StdRng, dtypes: &[DataType], keys: i64) -> Option<Expr> {
    if rng.gen_bool(0.3) {
        return None;
    }
    let col = rng.gen_range(0..dtypes.len());
    let key = rng.gen_range(0..keys);
    let threshold = value(rng, dtypes[col], key, 0.0);
    Some(Expr::col(col).ge(Expr::lit(threshold)))
}

/// (a) + (d): a probe is a brute-force scan of the filter survivors in
/// ascending position, NULL matches nothing, and every row the index
/// hands out *is* the segment's row — same address, nothing copied.
#[test]
fn probe_equals_brute_force_scan_of_borrowed_rows() {
    let mut rng = StdRng::seed_from_u64(0x1D3C);
    let types = [DataType::Int, DataType::Str, DataType::Date];
    for case in 0..200 {
        let ncols = rng.gen_range(1..6usize);
        let dtypes: Vec<DataType> = (0..ncols).map(|_| types[rng.gen_range(0..3)]).collect();
        let keys = rng.gen_range(1..12i64);
        let rows = rng.gen_range(0..80usize);
        let seg = segment(&mut rng, &dtypes, rows, keys, 0.15);
        let filter = random_filter(&mut rng, &dtypes, keys);
        let mut join_cols: Vec<usize> = (0..ncols).collect();
        for i in 0..ncols {
            join_cols.swap(i, rng.gen_range(i..ncols));
        }
        join_cols.truncate(rng.gen_range(1..=ncols.min(3)));

        let holders = Arc::strong_count(&seg);
        let idx = SegmentIndex::build(&seg, filter.as_ref(), &join_cols);
        assert_eq!(Arc::strong_count(&seg), holders + 1, "case {case}");

        let survivors: Vec<u32> = (0..seg.len() as u32)
            .filter(|&p| {
                filter
                    .as_ref()
                    .is_none_or(|f| f.matches(&seg.rows()[p as usize]))
            })
            .collect();
        assert_eq!(idx.positions(), survivors, "case {case}");
        assert_eq!(idx.len(), survivors.len());
        assert_eq!(idx.is_empty(), survivors.is_empty());
        assert_eq!(idx.stats().scanned, seg.len());
        assert_eq!(idx.stats().kept, survivors.len());
        assert_eq!(idx.entries(), join_cols.len() * survivors.len());
        assert_eq!(idx.rows().count(), survivors.len());
        for (row, &pos) in idx.rows().zip(&survivors) {
            assert!(
                std::ptr::eq(row, &seg.rows()[pos as usize]),
                "case {case}: row {pos} was copied"
            );
        }

        for &col in &join_cols {
            // Every key in range, one beyond it, and NULL.
            let mut probes: Vec<Value> = (0..=keys)
                .map(|k| value(&mut rng, dtypes[col], k, 0.0))
                .collect();
            probes.push(Value::Null);
            for key in &probes {
                let expected: Vec<&Row> = survivors
                    .iter()
                    .map(|&p| &seg.rows()[p as usize])
                    .filter(|row| !key.is_null() && row.get(col) == key)
                    .collect();
                let got: Vec<&Row> = idx.probe(col, key).collect();
                assert_eq!(got.len(), expected.len(), "case {case} col {col} key {key}");
                for (g, e) in got.iter().zip(&expected) {
                    assert!(std::ptr::eq(*g, *e), "case {case} col {col} key {key}");
                }
            }
        }

        drop(idx);
        assert_eq!(
            Arc::strong_count(&seg),
            holders,
            "case {case}: eviction must release the segment"
        );
    }
}

/// Three relations `a(x, y, v, seg)`, `b(x, z, v, seg)`, `c(z, y, v,
/// seg)` joined `a.x = b.x`, `b.z = c.z` and, when `cyclic`, `a.y = c.y`
/// (a residual check). `z` is a string key. The last column holds the
/// row's segment id so an emitted row names its own combination.
const REL_TYPES: [[DataType; 4]; 3] = [
    [DataType::Int, DataType::Int, DataType::Int, DataType::Int],
    [DataType::Int, DataType::Str, DataType::Int, DataType::Int],
    [DataType::Str, DataType::Int, DataType::Int, DataType::Int],
];
const SEG_COL: usize = 3;

fn triangle_spec(rng: &mut StdRng, cyclic: bool) -> QuerySpec {
    let mut joins = vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(1, 1, 2, 0)];
    if cyclic {
        joins.push(JoinCond::new(0, 1, 2, 1));
    }
    let filters = (0..3)
        .map(|_| {
            rng.gen_bool(0.5)
                .then(|| Expr::col(2).ge(Expr::lit(rng.gen_range(0..6i64))))
        })
        .collect();
    let spec = QuerySpec {
        name: "kernels".into(),
        tables: vec!["a".into(), "b".into(), "c".into()],
        filters,
        joins,
        driver: 0,
        plan_order: vec![0, 1, 2],
        probe_order: None,
        group_by: vec![],
        aggregates: vec![AggSpec::new(
            AggFunc::Count,
            JoinExpr::Lit(Value::Int(1)),
            "cnt",
        )],
    };
    spec.validate();
    spec
}

fn tagged_segment(rng: &mut StdRng, rel: usize, seg_id: u32, keys: i64) -> Arc<Segment> {
    let rows = rng.gen_range(0..25);
    let seg = segment(rng, &REL_TYPES[rel][..SEG_COL], rows, keys, 0.1);
    let fields: Vec<(&str, DataType)> = ["k0", "k1", "v", "seg"]
        .into_iter()
        .zip(REL_TYPES[rel])
        .collect();
    let rows = seg
        .rows()
        .iter()
        .map(|r| {
            let mut values = r.values().to_vec();
            values.push(Value::Int(seg_id as i64));
            Row::new(values)
        })
        .collect();
    Arc::new(Segment::new(Schema::of(&fields), rows).unwrap())
}

fn combo_of(rows: &[&Row]) -> Vec<u32> {
    rows.iter()
        .map(|r| r.get(SEG_COL).as_int().unwrap() as u32)
        .collect()
}

fn owned(rows: &[&Row]) -> Vec<Row> {
    rows.iter().map(|&r| r.clone()).collect()
}

/// (b): arrival-rooted execution over many cached segments, with a
/// random set of combinations already executed, against two oracles.
///
/// * One logical table per relation (the candidates concatenated, as
///   the probe accounting pretends): the same emit *sequence* once the
///   executed combinations are dropped, the same `driver_tuples` and the
///   same `probes` — a logical probe is counted once however many
///   segments it fans out into.
/// * The union of [`nary::execute_combination`] over the non-executed
///   combinations: the same rows as a multiset, the same `emitted`.
#[test]
fn rooted_execution_equals_union_of_combinations() {
    let mut rng = StdRng::seed_from_u64(0xB007);
    let mut emitted_total = 0;
    let mut skipped_total = 0;
    for case in 0..150 {
        let spec = triangle_spec(&mut rng, case % 2 == 0);
        let keys = rng.gen_range(2..7i64);
        let segments: Vec<Vec<Arc<Segment>>> = (0..3)
            .map(|rel| {
                (0..rng.gen_range(1..4u32))
                    .map(|s| tagged_segment(&mut rng, rel, s, keys))
                    .collect()
            })
            .collect();
        let indexes: Vec<Vec<SegmentIndex>> = segments
            .iter()
            .enumerate()
            .map(|(rel, segs)| {
                segs.iter()
                    .map(|s| {
                        SegmentIndex::build(s, spec.filters[rel].as_ref(), &spec.join_cols(rel))
                    })
                    .collect()
            })
            .collect();

        let root = rng.gen_range(0..3usize);
        let plan = ProbePlan::plan_rooted(&spec, root).unwrap();
        let arriving = rng.gen_range(0..segments[root].len() as u32);
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> = (0..3)
            .map(|rel| {
                (0..segments[rel].len() as u32)
                    .filter(|&s| if rel == root { s == arriving } else { true })
                    .map(|s| (s, &indexes[rel][s as usize]))
                    .collect()
            })
            .collect();
        let mut combos: Vec<Vec<u32>> = vec![vec![]];
        for rel_candidates in &candidates {
            combos = combos
                .iter()
                .flat_map(|prefix| {
                    rel_candidates.iter().map(move |&(s, _)| {
                        let mut c = prefix.clone();
                        c.push(s);
                        c
                    })
                })
                .collect();
        }
        let executed: Vec<Vec<u32>> = combos
            .iter()
            .filter(|_| rng.gen_bool(0.3))
            .cloned()
            .collect();

        let mut got: Vec<Vec<Row>> = Vec::new();
        let work = nary::execute_rooted(
            &plan,
            &candidates,
            &|combo| executed.iter().any(|e| e == combo),
            &mut |rows| {
                assert!(!executed.contains(&combo_of(rows)), "case {case}");
                got.push(owned(rows));
            },
        );
        assert_eq!(work.emitted, got.len(), "case {case}");

        // Oracle 1: one logical table per relation.
        let merged: Vec<SegmentIndex> = (0..3)
            .map(|rel| {
                let rows: Vec<Row> = candidates[rel]
                    .iter()
                    .flat_map(|&(s, _)| segments[rel][s as usize].rows().iter().cloned())
                    .collect();
                let schema = segments[rel][0].schema().clone();
                SegmentIndex::build(
                    &Arc::new(Segment::new(schema, rows).unwrap()),
                    spec.filters[rel].as_ref(),
                    &spec.join_cols(rel),
                )
            })
            .collect();
        let merged_refs: Vec<&SegmentIndex> = merged.iter().collect();
        let mut sequence: Vec<Vec<Row>> = Vec::new();
        let mut skipped = 0;
        let logical = nary::execute_combination(&plan, &merged_refs, &mut |rows| {
            if executed.contains(&combo_of(rows)) {
                skipped += 1;
            } else {
                sequence.push(owned(rows));
            }
        });
        assert_eq!(got, sequence, "case {case}: emit order");
        if merged.iter().all(|m| !m.is_empty()) {
            assert_eq!(work.driver_tuples, logical.driver_tuples, "case {case}");
            assert_eq!(work.probes, logical.probes, "case {case}: logical probes");
        }

        // Oracle 2: the union of per-combination executions.
        let mut union: Vec<Vec<Row>> = Vec::new();
        let mut union_emitted = 0;
        for combo in combos.iter().filter(|c| !executed.contains(c)) {
            let one: Vec<&SegmentIndex> = (0..3)
                .map(|rel| &indexes[rel][combo[rel] as usize])
                .collect();
            union_emitted +=
                nary::execute_combination(&plan, &one, &mut |rows| union.push(owned(rows))).emitted;
        }
        assert_eq!(work.emitted, union_emitted, "case {case}");
        let mut got_sorted = got;
        got_sorted.sort();
        union.sort();
        assert_eq!(got_sorted, union, "case {case}: rows");

        emitted_total += work.emitted;
        skipped_total += skipped;
    }
    // The battery must not pass vacuously.
    assert!(emitted_total > 1_000, "only {emitted_total} rows emitted");
    assert!(skipped_total > 300, "only {skipped_total} rows suppressed");
}

/// (c): the baseline join reads shared `Arc<Segment>`s in place and
/// agrees with the join over owned copies exactly and with the
/// reference executor.
#[test]
fn left_deep_join_over_shared_segments_matches_reference() {
    let ds = tpch::dataset(&GenConfig::new(42, 2).with_phys_divisor(5_000));
    for spec in [tpch::q12(&ds), tpch::q5(&ds)] {
        let shared: Vec<&[Arc<Segment>]> = ds
            .query_table_indexes(&spec)
            .into_iter()
            .map(|t| ds.table_segments(t))
            .collect();
        let holders: Vec<usize> = shared
            .iter()
            .flat_map(|segs| segs.iter().map(Arc::strong_count))
            .collect();
        let (agg, work) = binary::execute_left_deep(&spec, &shared);
        let still: Vec<usize> = shared
            .iter()
            .flat_map(|segs| segs.iter().map(Arc::strong_count))
            .collect();
        assert_eq!(holders, still, "{}: the join keeps no segment", spec.name);

        let tables = ds.materialize_query_tables(&spec);
        let copies: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
        let (copy_agg, copy_work) = binary::execute_left_deep(&spec, &copies);
        assert_eq!(work, copy_work, "{}", spec.name);
        assert_eq!(agg.finish(), copy_agg.finish(), "{}", spec.name);

        let expected = reference::execute(&spec, &copies);
        assert!(!expected.is_empty(), "{} returned nothing", spec.name);
        assert_eq!(agg.finish(), expected, "{}", spec.name);
    }
}
