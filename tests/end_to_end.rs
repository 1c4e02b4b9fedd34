//! End-to-end behaviours of the full stack: mixed tenants, repeated
//! query sequences, pruning, determinism, and the storage codec under
//! the simulated GET path.

use std::sync::Arc;

use skipper::core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::csd::{IntraGroupOrder, LayoutPolicy};
use skipper::datagen::{mrbench, nref, ssb, tpch, GenConfig};
use skipper::relational::query::results_approx_eq;
use skipper::relational::Segment;

const GIB: u64 = 1 << 30;

/// The two engines every both-engines cell here compares: pull-based
/// PostgreSQL and Skipper with `cache_gib` GiB of MJoin buffer.
fn both_engines(cache_gib: u64) -> [Arc<dyn EngineFactory>; 2] {
    [
        Arc::new(VanillaFactory),
        Arc::new(SkipperFactory::default().cache_bytes(cache_gib * GIB)),
    ]
}

#[test]
fn mixed_tenants_complete_with_correct_results() {
    let cfg = GenConfig::new(99, 4).with_phys_divisor(200_000);
    let big = GenConfig::new(99, 50).with_phys_divisor(800_000);
    let tpch_ds = Arc::new(tpch::dataset(&cfg));
    let ssb_ds = Arc::new(ssb::dataset(&cfg));
    let mr_ds = Arc::new(mrbench::dataset(&big));
    let nref_ds = Arc::new(nref::dataset(&big));
    let clients = [
        (
            Arc::clone(&tpch_ds),
            vec![tpch::q12(&tpch_ds), tpch::q3(&tpch_ds)],
        ),
        (Arc::clone(&ssb_ds), vec![ssb::q1(&ssb_ds)]),
        (Arc::clone(&mr_ds), vec![mrbench::join_task(&mr_ds)]),
        (Arc::clone(&nref_ds), vec![nref::protein_count(&nref_ds)]),
    ];
    for engine in both_engines(20) {
        let tenants = clients
            .iter()
            .map(|(ds, queries)| {
                Workload::new(Arc::clone(ds))
                    .queries(queries.clone())
                    .engine_arc(Arc::clone(&engine))
            })
            .collect();
        let res = Scenario::from_workloads(tenants).run();
        assert_eq!(res.clients[0].len(), 2, "tpch tenant ran two queries");
        for (c, (ds, queries)) in clients.iter().enumerate() {
            for (i, q) in queries.iter().enumerate() {
                let tables = ds.materialize_query_tables(q);
                let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
                let expected = skipper_testkit::ops::reference::execute(q, &slices);
                assert!(
                    results_approx_eq(&res.clients[c][i].result, &expected, 1e-9),
                    "{} tenant {c} query {i} ({}) diverged",
                    engine.label(),
                    q.name
                );
            }
        }
    }
}

#[test]
fn repeated_queries_have_identical_results_and_disjoint_spans() {
    let ds = tpch::dataset(&GenConfig::new(4, 4).with_phys_divisor(200_000));
    let q12 = tpch::q12(&ds);
    let client = Workload::new(ds)
        .repeat_query(q12, 3)
        .engine(SkipperFactory::default().cache_bytes(8 * GIB));
    let res = Scenario::from_workloads(vec![client; 2]).run();
    for client in &res.clients {
        assert_eq!(client.len(), 3);
        for pair in client.windows(2) {
            assert!(pair[0].end <= pair[1].start, "queries overlapped");
            assert_eq!(pair[0].result, pair[1].result);
        }
    }
}

#[test]
fn whole_simulation_is_deterministic() {
    let run = || {
        let ds = tpch::dataset(&GenConfig::new(31, 4).with_phys_divisor(200_000));
        let q5 = tpch::q5(&ds);
        let client = Workload::new(ds)
            .repeat_query(q5, 2)
            .engine(SkipperFactory::default().cache_bytes(7 * GIB));
        let res = Scenario::from_workloads(vec![client; 3])
            .layout(LayoutPolicy::Incremental)
            .intra_order(IntraGroupOrder::SemanticRoundRobin)
            .run();
        let times: Vec<(u64, u64)> = res
            .records()
            .map(|r| (r.start.as_micros(), r.end.as_micros()))
            .collect();
        (times, res.device.group_switches, res.total_gets())
    };
    assert_eq!(run(), run());
}

#[test]
fn segments_round_trip_through_the_wire_format() {
    // The object store carries in-memory Arcs for speed; verify the
    // binary codec would transport every benchmark segment faithfully.
    let cfg = GenConfig::new(8, 2).with_phys_divisor(400_000);
    for ds in [
        tpch::dataset(&cfg),
        ssb::dataset(&cfg),
        mrbench::dataset(&GenConfig::new(8, 50).with_phys_divisor(2_000_000)),
        nref::dataset(&GenConfig::new(8, 50).with_phys_divisor(2_000_000)),
    ] {
        for (t, table) in ds.segments.iter().enumerate() {
            let schema = &ds.catalog.table(t).schema;
            for seg in table {
                let decoded = Segment::decode(schema, seg.encode()).expect("decode");
                assert_eq!(&decoded, seg.as_ref());
            }
        }
    }
}

#[test]
fn pruning_saves_gets_without_changing_results() {
    use skipper::relational::Expr;
    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(66, 8).with_phys_divisor(200_000),
    ));
    let mut q = tpch::q12(&ds);
    // Orders keys are partition-ordered: restricting to the first
    // segment's key range makes every other orders object empty.
    let orders_idx = ds.catalog.index_of("orders").unwrap();
    let seg_rows = ds.segments[orders_idx][0].len() as i64;
    let orders_schema = &ds.catalog.table(orders_idx).schema;
    q.filters[0] = Some(Expr::col(orders_schema.col("o_orderkey")).le(Expr::lit(seg_rows)));

    let run = |prune| {
        let engine = SkipperFactory::default()
            .cache_bytes(3 * GIB)
            .prune_empty(prune);
        Scenario::from_workloads(vec![Workload::new(Arc::clone(&ds))
            .repeat_query(q.clone(), 1)
            .engine(engine)])
        .run()
    };
    let with = run(true);
    let without = run(false);
    let rec_with = &with.clients[0][0];
    let rec_without = &without.clients[0][0];
    assert!(rec_with.stats.pruned_objects > 0);
    assert!(rec_with.stats.gets_issued <= rec_without.stats.gets_issued);
    assert!(rec_with.stats.subplans_executed < rec_without.stats.subplans_executed);
    assert_eq!(rec_with.result, rec_without.result);
}

#[test]
fn staggered_starts_shift_client_timelines() {
    use skipper::sim::SimDuration;
    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(4, 4).with_phys_divisor(200_000),
    ));
    let q12 = tpch::q12(&ds);
    let tenants = (0..3)
        .map(|i| {
            Workload::new(Arc::clone(&ds))
                .repeat_query(q12.clone(), 1)
                .engine(SkipperFactory::default().cache_bytes(8 * GIB))
                .start_at(SimDuration::from_secs(500) * i)
        })
        .collect();
    let res = Scenario::from_workloads(tenants).run();
    // Client i's query starts exactly at i × 500 s.
    for (c, recs) in res.clients.iter().enumerate() {
        assert_eq!(recs[0].start.as_micros(), (c as u64) * 500_000_000);
    }
    // With arrival gaps larger than a residency, each client is served
    // while the others are absent: nobody queues behind anyone (K's
    // FCFS-like regime for large s in the §4.4 derivation). The only
    // difference is the single group switch clients 1+ pay to reach
    // their group — client 0 rides the free initial load.
    let d0 = res.clients[0][0].duration();
    let one_switch = SimDuration::from_secs(10);
    for (c, recs) in res.clients.iter().enumerate() {
        let expected = if c == 0 { d0 } else { d0 + one_switch };
        assert_eq!(
            recs[0].duration(),
            expected,
            "client {c} was not served uncontended"
        );
    }
    assert_eq!(res.device.group_switches, 2);
}

#[test]
fn maid_power_savings_hold_during_queries() {
    use skipper::csd::PowerModel;
    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(4, 8).with_phys_divisor(200_000),
    ));
    let q12 = tpch::q12(&ds);
    let run = |engine: Arc<dyn EngineFactory>| {
        let client = Workload::new(Arc::clone(&ds))
            .repeat_query(q12.clone(), 1)
            .engine_arc(engine);
        Scenario::from_workloads(vec![client; 4]).run()
    };
    let power = PowerModel::default();
    let energy = |res: &skipper::core::runtime::RunResult| {
        let transfer = skipper::sim::SimDuration::from_secs_f64(
            res.device.logical_bytes_served as f64 / (110.0 * 1024.0 * 1024.0),
        );
        power.estimate(
            res.makespan.since(skipper::sim::SimTime::ZERO),
            transfer,
            res.device.group_switches,
        )
    };
    let [vanilla, skipper_run] = both_engines(8).map(run);
    let ev = energy(&vanilla);
    let es = energy(&skipper_run);
    // MAID beats all-spinning in both, by the motivation-level ~4-5×.
    assert!(ev.savings() > 0.6, "vanilla savings {:.2}", ev.savings());
    assert!(es.savings() > 0.6, "skipper savings {:.2}", es.savings());
    // Skipper's shorter makespan and fewer spin-ups consume less energy
    // for the same work.
    assert!(
        es.maid_wh < ev.maid_wh,
        "skipper {:.1} Wh !< vanilla {:.1} Wh",
        es.maid_wh,
        ev.maid_wh
    );
}

#[test]
fn skipper_handles_single_table_scan_queries() {
    // Scans are the degenerate MJoin case the paper mentions ("scans
    // could naturally be serviced in an out-of-order fashion").
    use skipper::relational::query::{AggFunc, AggSpec, JoinExpr, QuerySpec};
    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(2, 4).with_phys_divisor(200_000),
    ));
    let lineitem = ds
        .catalog
        .table(ds.catalog.index_of("lineitem").unwrap())
        .schema
        .clone();
    let scan = QuerySpec {
        name: "scan-count".into(),
        tables: vec!["lineitem".into()],
        filters: vec![None],
        joins: vec![],
        driver: 0,
        plan_order: vec![0],
        probe_order: None,
        group_by: vec![],
        aggregates: vec![AggSpec::new(
            AggFunc::Count,
            JoinExpr::col(0, lineitem.col("l_orderkey")),
            "rows",
        )],
    };
    for engine in both_engines(2) {
        let res = Scenario::from_workloads(vec![Workload::new(Arc::clone(&ds))
            .repeat_query(scan.clone(), 1)
            .engine_arc(engine)])
        .run();
        let total_rows: i64 = ds
            .table_segments(ds.catalog.index_of("lineitem").unwrap())
            .iter()
            .map(|s| s.len() as i64)
            .sum();
        let rec = &res.clients[0][0];
        assert_eq!(rec.result[0].1[0].as_int(), Some(total_rows));
    }
}
