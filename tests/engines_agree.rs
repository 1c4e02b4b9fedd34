//! Cross-engine correctness: Skipper's out-of-order, cache-constrained
//! MJoin must produce byte-identical results to the blocking binary
//! baseline and the reference executor on every workload, under any
//! layout, scheduler, cache size, and arrival order.
//!
//! The randomized cases were originally proptest strategies; this
//! offline workspace draws them from a seeded RNG instead, so every
//! combination is deterministic and reproducible by case index.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipper::core::cache::EvictionPolicy;
use skipper::core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::csd::{IntraGroupOrder, LayoutPolicy, SchedPolicy};
use skipper::datagen::dataset::{Dataset, DatasetBuilder, TableSpec};
use skipper::datagen::{mrbench, nref, ssb, tpch, GenConfig};
use skipper::relational::query::{
    results_approx_eq, AggFunc, AggSpec, JoinCond, JoinExpr, QualifiedCol, QuerySpec,
};
use skipper::relational::schema::{DataType, Schema};
use skipper::relational::Segment;
use skipper_testkit::ops::reference;

const GIB: u64 = 1 << 30;

/// A random three-relation chain-join workload: fact(k1, k2, v) joins
/// dim_a(k1) and dim_b(k2, g), grouped by g.
fn random_workload(
    seed: u64,
    fact_segs: u32,
    dim_segs: u32,
    rows_per_seg: u64,
    key_range: i64,
) -> (Dataset, QuerySpec) {
    let mut b = DatasetBuilder::new(&format!("prop-{seed}"), seed);
    let spec = |name, segs, rows| TableSpec {
        name,
        segments: segs,
        logical_rows_per_segment: rows * 1000,
        phys_rows_per_segment: rows,
    };
    b.add_table(
        &spec("dim_a", dim_segs, rows_per_seg),
        Schema::of(&[("k1", DataType::Int)]),
        |rng, _, row| {
            row.int(rng.gen_range(0..key_range));
        },
    );
    b.add_table(
        &spec("dim_b", dim_segs, rows_per_seg),
        Schema::of(&[("k2", DataType::Int), ("g", DataType::Int)]),
        |rng, _, row| {
            row.int(rng.gen_range(0..key_range))
                .int(rng.gen_range(0..4i64));
        },
    );
    b.add_table(
        &spec("fact", fact_segs, rows_per_seg * 2),
        Schema::of(&[
            ("k1", DataType::Int),
            ("k2", DataType::Int),
            ("v", DataType::Int),
        ]),
        |rng, _, row| {
            row.int(rng.gen_range(0..key_range))
                .int(rng.gen_range(0..key_range))
                .int(rng.gen_range(0..100i64));
        },
    );
    let ds = b.finish();
    let q = QuerySpec {
        name: "prop-chain".into(),
        tables: vec!["dim_a".into(), "dim_b".into(), "fact".into()],
        filters: vec![None, None, None],
        joins: vec![JoinCond::new(2, 0, 0, 0), JoinCond::new(2, 1, 1, 0)],
        driver: 2,
        plan_order: vec![0, 2, 1],
        probe_order: None,
        group_by: vec![QualifiedCol::new(1, 1)],
        aggregates: vec![
            AggSpec::new(AggFunc::Count, JoinExpr::Lit(1i64.into()), "cnt"),
            AggSpec::new(AggFunc::Sum, JoinExpr::col(2, 2), "sum_v"),
        ],
    };
    q.validate();
    (ds, q)
}

fn reference_result(
    ds: &Dataset,
    q: &QuerySpec,
) -> Vec<(skipper::relational::Row, Vec<skipper::relational::Value>)> {
    let tables = ds.materialize_query_tables(q);
    let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
    reference::execute(q, &slices)
}

/// The headline invariant: for random data, random placement, random
/// scheduling, and cache pressure, Skipper's result equals the
/// reference join.
#[test]
fn skipper_matches_reference_under_randomized_conditions() {
    let layouts = [
        LayoutPolicy::AllInOne,
        LayoutPolicy::TwoClientsPerGroup,
        LayoutPolicy::OneClientPerGroup,
        LayoutPolicy::Incremental,
    ];
    let scheds = [
        SchedPolicy::FcfsObject,
        SchedPolicy::FcfsQuery,
        SchedPolicy::MaxQueries,
        SchedPolicy::RankBased,
    ];
    let intras = [
        IntraGroupOrder::SemanticRoundRobin,
        IntraGroupOrder::TableOrder,
    ];
    let mut rng = StdRng::seed_from_u64(0xA97E);
    for case in 0..24 {
        let seed = rng.gen_range(0u64..1000);
        let fact_segs = rng.gen_range(1u32..5);
        let dim_segs = rng.gen_range(1u32..3);
        let key_range = rng.gen_range(1i64..60);
        let cache_objects = rng.gen_range(3u64..8);
        let layout = layouts[rng.gen_range(0..layouts.len())];
        let sched = scheds[rng.gen_range(0..scheds.len())];
        let intra = intras[rng.gen_range(0..intras.len())];
        let clients = rng.gen_range(1usize..3);

        let (ds, q) = random_workload(seed, fact_segs, dim_segs, 25, key_range);
        let expected = reference_result(&ds, &q);
        let client = Workload::new(ds)
            .repeat_query(q, 1)
            .engine(SkipperFactory::default().cache_bytes(cache_objects * GIB));
        let res = Scenario::from_workloads(vec![client; clients])
            .layout(layout)
            .scheduler(sched)
            .intra_order(intra)
            .run();
        for rec in res.records() {
            assert!(
                results_approx_eq(&rec.result, &expected, 1e-9),
                "case {case}: skipper diverged: {:?} vs {:?}",
                rec.result,
                expected
            );
        }
    }
}

/// Both eviction policies stay correct under cache thrash.
#[test]
fn eviction_policies_preserve_correctness() {
    let policies = [
        EvictionPolicy::MaximalProgress,
        EvictionPolicy::MaxPendingSubplans,
    ];
    let mut rng = StdRng::seed_from_u64(0xE71C);
    for case in 0..12 {
        let seed = rng.gen_range(0u64..500);
        let cache_objects = rng.gen_range(3u64..6);
        let policy = policies[rng.gen_range(0..policies.len())];
        let (ds, q) = random_workload(seed, 4, 2, 25, 40);
        let expected = reference_result(&ds, &q);
        let engine = SkipperFactory::default()
            .cache_bytes(cache_objects * GIB)
            .eviction(policy);
        let res =
            Scenario::from_workloads(vec![Workload::new(ds).repeat_query(q, 1).engine(engine)])
                .run();
        let rec = &res.clients[0][0];
        assert!(
            results_approx_eq(&rec.result, &expected, 1e-9),
            "case {case} diverged"
        );
    }
}

/// Subplan pruning never changes results, only work.
#[test]
fn pruning_preserves_results() {
    use skipper::relational::Expr;
    let mut rng = StdRng::seed_from_u64(0x9123);
    for case in 0..12 {
        let seed = rng.gen_range(0u64..500);
        let cache_objects = rng.gen_range(3u64..6);
        // Keys clustered per segment (partition-ordered ids) + a range
        // filter make some fact segments empty.
        let (ds, mut q) = random_workload(seed, 4, 2, 25, 50);
        q.filters[2] = Some(Expr::col(2).lt(Expr::lit(30i64)));
        let expected = reference_result(&ds, &q);
        let ds = Arc::new(ds);
        let run = |prune: bool| {
            let engine = SkipperFactory::default()
                .cache_bytes(cache_objects * GIB)
                .prune_empty(prune);
            Scenario::from_workloads(vec![Workload::new(Arc::clone(&ds))
                .repeat_query(q.clone(), 1)
                .engine(engine)])
            .run()
        };
        let with = run(true);
        let without = run(false);
        assert!(
            results_approx_eq(&with.clients[0][0].result, &expected, 1e-9),
            "case {case} (pruned) diverged"
        );
        assert!(
            results_approx_eq(&without.clients[0][0].result, &expected, 1e-9),
            "case {case} (unpruned) diverged"
        );
    }
}

/// All four benchmark workloads agree across the three execution paths
/// when run through the full simulated stack.
#[test]
fn benchmark_workloads_agree_end_to_end() {
    let cfg = GenConfig::new(77, 4).with_phys_divisor(200_000);
    let cases: Vec<(Dataset, QuerySpec)> = vec![
        {
            let ds = tpch::dataset(&cfg);
            let q = tpch::q12(&ds);
            (ds, q)
        },
        {
            let ds = tpch::dataset(&cfg);
            let q = tpch::q5(&ds);
            (ds, q)
        },
        {
            let ds = ssb::dataset(&cfg);
            let q = ssb::q1(&ds);
            (ds, q)
        },
        {
            let ds = mrbench::dataset(&GenConfig::new(77, 50).with_phys_divisor(400_000));
            let q = mrbench::join_task(&ds);
            (ds, q)
        },
        {
            let ds = nref::dataset(&GenConfig::new(77, 50).with_phys_divisor(400_000));
            let q = nref::protein_count(&ds);
            (ds, q)
        },
    ];
    for (ds, q) in cases {
        let expected = reference_result(&ds, &q);
        let ds = Arc::new(ds);
        let engines: [Arc<dyn EngineFactory>; 2] = [
            Arc::new(VanillaFactory),
            Arc::new(SkipperFactory::default().cache_bytes(16 * GIB)),
        ];
        for engine in engines {
            let label = engine.label();
            let client = Workload::new(Arc::clone(&ds))
                .repeat_query(q.clone(), 1)
                .engine_arc(engine);
            let res = Scenario::from_workloads(vec![client; 2]).run();
            for rec in res.records() {
                assert!(
                    results_approx_eq(&rec.result, &expected, 1e-9),
                    "{label} diverged on {}",
                    q.name
                );
            }
        }
    }
}
