//! Join-kernel microbenchmarks: MJoin's arrival-rooted n-ary probe vs the
//! blocking binary hash join over the same data, plus segment-index build
//! cost. These quantify the "+6 %" query-execution overhead Table 3
//! attributes to out-of-order execution.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use skipper_datagen::{tpch, GenConfig};
use skipper_relational::join_graph::ProbePlan;
use skipper_relational::ops::index::SegmentIndex;
use skipper_relational::ops::{binary, nary, reference};
use skipper_relational::Segment;

fn workload() -> (Vec<Vec<Segment>>, skipper_relational::QuerySpec) {
    let ds = tpch::dataset(&GenConfig::new(1, 8).with_phys_divisor(20_000));
    let q12 = tpch::q12(&ds);
    let tables = ds.materialize_query_tables(&q12);
    (tables, q12)
}

fn bench_binary_hash_join(c: &mut Criterion) {
    let (tables, q12) = workload();
    let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
    c.bench_function("join/binary_left_deep_q12", |b| {
        b.iter(|| binary::execute_left_deep(black_box(&q12), black_box(&slices)))
    });
}

fn bench_reference_nary(c: &mut Criterion) {
    let (tables, q12) = workload();
    let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
    c.bench_function("join/reference_nary_q12", |b| {
        b.iter(|| reference::aggregate(black_box(&q12), black_box(&slices)))
    });
}

fn bench_rooted_probe(c: &mut Criterion) {
    // One arriving lineitem segment probing all cached orders segments —
    // Skipper's per-arrival kernel.
    let (tables, q12) = workload();
    let orders_indexes: Vec<SegmentIndex> = tables[0]
        .iter()
        .map(|s| {
            SegmentIndex::build(
                &Arc::new(s.clone()),
                q12.filters[0].as_ref(),
                &q12.join_cols(0),
            )
        })
        .collect();
    let lineitem_index = SegmentIndex::build(
        &Arc::new(tables[1][0].clone()),
        q12.filters[1].as_ref(),
        &q12.join_cols(1),
    );
    let plan = ProbePlan::plan_rooted(&q12, 1).unwrap();
    c.bench_function("join/rooted_probe_one_arrival", |b| {
        b.iter(|| {
            let candidates: Vec<Vec<(u32, &SegmentIndex)>> = vec![
                orders_indexes
                    .iter()
                    .enumerate()
                    .map(|(i, idx)| (i as u32, idx))
                    .collect(),
                vec![(0, &lineitem_index)],
            ];
            let mut n = 0u64;
            nary::execute_rooted(black_box(&plan), &candidates, &|_| false, &mut |_| n += 1);
            n
        })
    });
}

fn bench_segment_index_build(c: &mut Criterion) {
    let (tables, q12) = workload();
    let seg = Arc::new(tables[1][0].clone()); // a lineitem segment
    let cols = q12.join_cols(1);
    c.bench_function("join/segment_index_build_lineitem", |b| {
        b.iter(|| SegmentIndex::build(black_box(&seg), q12.filters[1].as_ref(), &cols))
    });
}

fn bench_segment_codec(c: &mut Criterion) {
    let (tables, _) = workload();
    let seg = &tables[1][0];
    c.bench_function("segment/encode", |b| b.iter(|| black_box(seg).encode()));
    let bytes = seg.encode();
    c.bench_function("segment/decode", |b| {
        b.iter(|| Segment::decode(seg.schema(), black_box(bytes.clone())).unwrap())
    });
}

criterion_group!(
    benches,
    bench_binary_hash_join,
    bench_reference_nary,
    bench_rooted_probe,
    bench_segment_index_build,
    bench_segment_codec
);
criterion_main!(benches);
