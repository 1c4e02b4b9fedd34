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
use skipper::relational::ops::{binary, nary};
use skipper::relational::query::{AggFunc, AggSpec, JoinExpr};
use skipper::relational::{
    DataType, Expr, JoinCond, QuerySpec, Row, RowRef, Schema, Segment, Value,
};
use skipper_testkit::ops::reference;

/// A value of `dtype` for key `k`, NULL with probability `null_p`.
/// Small key ranges make duplicates the rule.
fn value(rng: &mut StdRng, dtype: DataType, k: i64, null_p: f64) -> Value {
    if rng.gen_bool(null_p) {
        return Value::Null;
    }
    match dtype {
        DataType::Str => Value::str(&format!("s{k}")),
        DataType::Date => Value::Date(k as i32),
        // Integral, so that it equals the same key of the other types.
        DataType::Float => Value::Float(k as f64),
        _ => Value::Int(k),
    }
}

/// `rows` random rows whose keys are drawn from `base..base + keys`.
fn segment(
    rng: &mut StdRng,
    dtypes: &[DataType],
    rows: usize,
    (base, keys): (i64, i64),
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
                        let k = rng.gen_range(base..base + keys);
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
/// hands out *is* the segment's row — the shared segment at the row's
/// own position, nothing copied.
#[test]
fn probe_equals_brute_force_scan_of_borrowed_rows() {
    let mut rng = StdRng::seed_from_u64(0x1D3C);
    let types = [DataType::Int, DataType::Str, DataType::Date];
    for case in 0..200 {
        let ncols = rng.gen_range(1..6usize);
        let dtypes: Vec<DataType> = (0..ncols).map(|_| types[rng.gen_range(0..3)]).collect();
        let keys = rng.gen_range(1..12i64);
        let rows = rng.gen_range(0..80usize);
        let seg = segment(&mut rng, &dtypes, rows, (0, keys), 0.15);
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
                    .is_none_or(|f| f.matches(seg.row(p as usize)))
            })
            .collect();
        assert_eq!(idx.positions(), survivors, "case {case}");
        assert_eq!(idx.len(), survivors.len());
        assert_eq!(idx.is_empty(), survivors.is_empty());
        assert_eq!(idx.stats().scanned, seg.len());
        assert_eq!(idx.stats().kept, survivors.len());
        assert_eq!(idx.rows().count(), survivors.len());
        for (row, &pos) in idx.rows().zip(&survivors) {
            assert!(
                std::ptr::eq(row.segment(), &*seg) && row.position() == pos as usize,
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
                let expected: Vec<usize> = survivors
                    .iter()
                    .map(|&p| seg.row(p as usize))
                    .filter(|row| !key.is_null() && row.get(col) == key.as_ref())
                    .map(RowRef::position)
                    .collect();
                let got: Vec<RowRef<'_>> = idx.probe(col, key.as_ref()).collect();
                assert!(
                    got.iter().all(|row| std::ptr::eq(row.segment(), &*seg)),
                    "case {case} col {col} key {key}"
                );
                let got: Vec<usize> = got.into_iter().map(RowRef::position).collect();
                assert_eq!(got, expected, "case {case} col {col} key {key}");
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
/// (a residual check). `z` is a string key; `x` and `y` are `Int`,
/// `Date` or integral `Float` on each side, drawn per case, so equal
/// keys of different types join. The last column holds the row's
/// segment id so an emitted row names its own combination.
type RelTypes = [[DataType; 4]; 3];
const SEG_COL: usize = 3;

fn rel_types(rng: &mut StdRng) -> RelTypes {
    const NUMERIC: [DataType; 3] = [DataType::Int, DataType::Date, DataType::Float];
    let mut numeric = || NUMERIC[rng.gen_range(0..3)];
    let (int, str) = (DataType::Int, DataType::Str);
    [
        [numeric(), numeric(), int, int],
        [numeric(), str, int, int],
        [str, numeric(), int, int],
    ]
}

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

/// A segment of relation `rel`; a `partitioned` one draws its keys from
/// a range of its own, disjoint from every other segment id's.
fn tagged_segment(
    rng: &mut StdRng,
    types: &[DataType; 4],
    seg_id: u32,
    keys: i64,
    partitioned: bool,
) -> Arc<Segment> {
    let rows = rng.gen_range(0..25);
    let base = if partitioned { seg_id as i64 * keys } else { 0 };
    let seg = segment(rng, &types[..SEG_COL], rows, (base, keys), 0.1);
    let fields: Vec<(&str, DataType)> = ["k0", "k1", "v", "seg"].into_iter().zip(*types).collect();
    let rows = seg
        .iter()
        .map(|r| {
            let mut values = r.to_row().values().to_vec();
            values.push(Value::Int(seg_id as i64));
            Row::new(values)
        })
        .collect();
    Arc::new(Segment::new(Schema::of(&fields), rows).unwrap())
}

fn combo_of(rows: &[RowRef<'_>]) -> Vec<u32> {
    rows.iter()
        .map(|r| r.get(SEG_COL).as_int().unwrap() as u32)
        .collect()
}

fn owned(rows: &[RowRef<'_>]) -> Vec<Row> {
    rows.iter().map(|r| r.to_row()).collect()
}

/// The rooted join walked without a key filter: every driver row in
/// order, each step probing every candidate segment in order through
/// [`SegmentIndex::probe`], residual checks applied and executed
/// combinations dropped at emit. Counts logical probes as the kernel
/// does: one per bound prefix per step with a non-NULL key.
struct Walk<'a, 'c> {
    plan: &'c ProbePlan,
    candidates: &'c [Vec<(u32, &'a SegmentIndex)>],
    executed: &'c dyn Fn(&[u32]) -> bool,
    probes: usize,
    rows: Vec<Vec<Row>>,
}

impl<'a> Walk<'a, '_> {
    fn run(mut self) -> (usize, Vec<Vec<Row>>) {
        let n = self.candidates.len();
        let (seg, root) = self.candidates[self.plan.driver][0];
        let mut combo = vec![0; n];
        combo[self.plan.driver] = seg;
        for row in root.rows() {
            let mut bound = vec![None; n];
            bound[self.plan.driver] = Some(row);
            self.step(0, &mut bound, &mut combo);
        }
        (self.probes, self.rows)
    }

    fn step(&mut self, depth: usize, bound: &mut [Option<RowRef<'a>>], combo: &mut [u32]) {
        let Some(step) = self.plan.steps.get(depth) else {
            if !(self.executed)(combo) {
                self.rows
                    .push(bound.iter().map(|r| r.unwrap().to_row()).collect());
            }
            return;
        };
        let key = bound[step.bound_source.rel]
            .unwrap()
            .get(step.bound_source.col);
        if key.is_null() {
            return;
        }
        self.probes += 1;
        for &(seg, idx) in &self.candidates[step.rel] {
            for row in idx.probe(step.key_col, key) {
                let residuals = step
                    .extra_checks
                    .iter()
                    .all(|(own, other)| row.get(*own) == bound[other.rel].unwrap().get(other.col));
                if residuals {
                    bound[step.rel] = Some(row);
                    combo[step.rel] = seg;
                    self.step(depth + 1, bound, combo);
                }
            }
        }
        bound[step.rel] = None;
    }
}

/// (b): arrival-rooted execution over many cached segments, with a
/// random set of combinations already executed, against three oracles.
///
/// * The same join walked without a key filter ([`Walk`]): the same
///   `probes`, `emitted` and emit sequence, whether or not the kernel
///   built its first step's filter this call.
/// * One logical table per relation (the candidates concatenated, as
///   the probe accounting pretends): the same emit *sequence* once the
///   executed combinations are dropped, the same `driver_tuples` and the
///   same `probes` — a logical probe is counted once however many
///   segments it fans out into.
/// * The union of [`nary::execute_combination`] over the non-executed
///   combinations: the same rows as a multiset, the same `emitted`.
///
/// Join keys mix `Int`, `Date` and integral `Float` across the two sides
/// of an edge, and hold NULLs, so cross-type equality runs through the
/// key filter. One scratch serves every case, as an engine's does.
///
/// In half the cases each segment id draws its keys from a range of its
/// own, as `o_orderkey` is partitioned, so the key ranges reject
/// segments: a logical probe walks at most every candidate segment of
/// the probed relation, and in aggregate over those cases fewer than
/// the narrowest relation's count.
#[test]
fn rooted_execution_equals_union_of_combinations() {
    let mut rng = StdRng::seed_from_u64(0xB007);
    let mut scratch = nary::RootedScratch::default();
    let mut emitted_total = 0;
    let mut skipped_total = 0;
    let (mut partitioned_lookups, mut partitioned_floor) = (0, 0);
    let (mut filtered_cases, mut unfiltered_cases, mut filtered_keys) = (0, 0, 0);
    for case in 0..150 {
        let spec = triangle_spec(&mut rng, case % 2 == 0);
        let types = rel_types(&mut rng);
        let partitioned = case % 4 >= 2;
        let keys = rng.gen_range(2..7i64);
        let segments: Vec<Vec<Arc<Segment>>> = (0..3)
            .map(|rel| {
                (0..rng.gen_range(1..4u32))
                    .map(|s| tagged_segment(&mut rng, &types[rel], s, keys, partitioned))
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
        let already_executed = |combo: &[u32]| executed.iter().any(|e| e == combo);

        let mut got: Vec<Vec<Row>> = Vec::new();
        let work = nary::execute_rooted(
            &plan,
            &candidates,
            &already_executed,
            &mut |rows| {
                assert!(!executed.contains(&combo_of(rows)), "case {case}");
                got.push(owned(rows));
            },
            &mut scratch,
        );
        assert_eq!(work.emitted, got.len(), "case {case}");
        // Every lookup walks one candidate segment of the probed relation.
        let probed = || {
            (0..3)
                .filter(|&rel| rel != root)
                .map(|rel| candidates[rel].len())
        };
        let (widest, narrowest) = (probed().max().unwrap(), probed().min().unwrap());
        assert!(
            work.lookups <= work.probes * widest,
            "case {case}: {work:?}"
        );
        if partitioned {
            partitioned_lookups += work.lookups;
            partitioned_floor += work.probes * narrowest;
        }

        // Oracle 1: the walk without a key filter. The kernel builds one
        // when the arriving segment keeps at least half as many rows as
        // the first step's candidates.
        let held: usize = candidates[plan.steps[0].rel]
            .iter()
            .map(|(_, idx)| idx.len())
            .sum();
        if 2 * indexes[root][arriving as usize].len() >= held {
            filtered_cases += 1;
        } else {
            unfiltered_cases += 1;
            assert_eq!(work.filtered, 0, "case {case}: no filter to drop keys");
        }
        filtered_keys += work.filtered;
        let walk = Walk {
            plan: &plan,
            candidates: &candidates,
            executed: &already_executed,
            probes: 0,
            rows: Vec::new(),
        };
        let (walk_probes, walk_rows) = walk.run();
        assert_eq!(work.probes, walk_probes, "case {case}: probes");
        assert_eq!(work.emitted, walk_rows.len(), "case {case}: emitted");
        assert_eq!(got, walk_rows, "case {case}: unfiltered emit order");

        // Oracle 2: one logical table per relation.
        let merged: Vec<SegmentIndex> = (0..3)
            .map(|rel| {
                let rows: Vec<Row> = candidates[rel]
                    .iter()
                    .flat_map(|&(s, _)| segments[rel][s as usize].iter().map(RowRef::to_row))
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

        // Oracle 3: the union of per-combination executions.
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
    // Walking every candidate costs at least `probes × narrowest`.
    assert!(
        partitioned_lookups < partitioned_floor,
        "key ranges skipped nothing: {partitioned_lookups} lookups, floor {partitioned_floor}"
    );
    // Both sides of the filter's build rule, and a filter that drops
    // keys.
    assert!(
        filtered_cases > 30 && unfiltered_cases > 30,
        "{filtered_cases} cases built a filter, {unfiltered_cases} did not"
    );
    assert!(
        filtered_keys > 100,
        "the filter dropped {filtered_keys} keys"
    );
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

/// Reduced-scale TPC-H: every Q5 `lineitem` segment, arriving, probes
/// every `orders` segment cached. `o_orderkey` is range-partitioned by
/// segment, so the key ranges leave at most one `orders` lookup per
/// logical probe, and the rows come out exactly as a walk of every
/// cached segment emits them.
#[test]
fn q5_lineitem_walks_at_most_one_orders_segment_per_probe() {
    let ds = tpch::dataset(&GenConfig::new(7, 8).with_phys_divisor(100_000));
    let q5 = tpch::q5(&ds);
    let rel = |name: &str| q5.tables.iter().position(|t| t == name).unwrap();
    let (o, l) = (rel("orders"), rel("lineitem"));
    let edge = q5
        .joins
        .iter()
        .find(|j| j.side_of(o).is_some() && j.side_of(l).is_some())
        .unwrap();
    let (o_key, l_key) = (edge.side_of(o).unwrap().col, edge.side_of(l).unwrap().col);
    // Q5's `lineitem → orders` step on its own: orders is relation 0.
    let spec = QuerySpec {
        name: "q5-lineitem-orders".into(),
        tables: vec!["orders".into(), "lineitem".into()],
        filters: vec![q5.filters[o].clone(), q5.filters[l].clone()],
        joins: vec![JoinCond::new(1, l_key, 0, o_key)],
        driver: 1,
        plan_order: vec![0, 1],
        probe_order: None,
        group_by: vec![],
        aggregates: vec![],
    };
    spec.validate();
    let plan = ProbePlan::plan_rooted(&spec, 1).unwrap();
    let segments = |name: &str| ds.table_segments(ds.catalog.index_of(name).unwrap());
    // Indexed as the engine indexes them, on every Q5 join column.
    let orders: Vec<SegmentIndex> = segments("orders")
        .iter()
        .map(|s| SegmentIndex::build(s, q5.filters[o].as_ref(), &q5.join_cols(o)))
        .collect();
    assert!(orders.len() >= 2, "{} orders segments", orders.len());
    let cached: Vec<(u32, &SegmentIndex)> = (0..).zip(&orders).collect();

    let (mut probes, mut lookups, mut emitted) = (0, 0, 0);
    for (s, seg) in (0..).zip(segments("lineitem")) {
        let arriving = SegmentIndex::build(seg, q5.filters[l].as_ref(), &q5.join_cols(l));
        let mut got: Vec<Vec<Row>> = Vec::new();
        let candidates = [cached.clone(), vec![(s, &arriving)]];
        let work = nary::execute_rooted(
            &plan,
            &candidates,
            &|_| false,
            &mut |rows| got.push(owned(rows)),
            &mut nary::RootedScratch::default(),
        );
        assert!(work.lookups <= work.probes, "lineitem {s}: {work:?}");

        // Every cached segment walked, in candidate order.
        let mut walked: Vec<Vec<Row>> = Vec::new();
        for row in arriving.rows() {
            let key = row.get(l_key);
            for idx in &orders {
                for hit in idx.probe(o_key, key) {
                    walked.push(vec![hit.to_row(), row.to_row()]);
                }
            }
        }
        assert_eq!(got, walked, "lineitem {s}: emit order");
        probes += work.probes;
        lookups += work.lookups;
        emitted += work.emitted;
    }
    assert!(
        emitted > 0 && probes > 0,
        "{emitted} rows from {probes} probes"
    );
    assert!(lookups <= probes, "{lookups} lookups for {probes} probes");
}
