//! Integration tests for the layered multi-tenant runtime: determinism
//! of the full stack (including open arrivals and multi-shard device
//! fleets) and the mixed-engine fleet regression the refactor exists to
//! enable.

use std::sync::Arc;

use skipper::core::runtime::{
    ArrivalProcess, PlacementPolicy, RunResult, Scenario, SkipperFactory, VanillaFactory, Workload,
};
use skipper::datagen::{mrbench, tpch, Dataset, GenConfig};
use skipper::relational::ops::reference;
use skipper::relational::query::results_approx_eq;
use skipper::relational::Segment;
use skipper::sim::SimDuration;

const GIB: u64 = 1 << 30;

fn tpch_ds() -> Arc<Dataset> {
    Arc::new(tpch::dataset(
        &GenConfig::new(17, 4).with_phys_divisor(100_000),
    ))
}

/// Everything observable about a run, flattened for equality checks.
fn fingerprint(res: &RunResult) -> Vec<(usize, u32, &'static str, u64, u64, u64, u64)> {
    res.records()
        .map(|r| {
            (
                r.client,
                r.seq,
                r.engine,
                r.start.as_micros(),
                r.end.as_micros(),
                r.processing.as_micros(),
                r.stats.gets_issued,
            )
        })
        .collect()
}

/// A three-tenant mixed fleet with one open-arrival tenant; the
/// determinism workhorse.
fn mixed_scenario(ds: &Arc<Dataset>) -> Scenario {
    let q12 = tpch::q12(ds);
    Scenario::from_workloads(vec![
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(10 * GIB)),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 2)
            .engine(VanillaFactory),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12, 3)
            .engine(SkipperFactory::default().cache_bytes(6 * GIB))
            .arrival(ArrivalProcess::Poisson {
                mean: SimDuration::from_secs(200),
                seed: 99,
            }),
    ])
}

/// Same seed ⇒ identical `RunResult`, down to every timestamp, GET
/// count, and device counter — across closed loops, per-tenant engines,
/// and Poisson arrivals at once.
#[test]
fn runtime_is_deterministic_across_runs() {
    let ds = tpch_ds();
    let a = mixed_scenario(&ds).run();
    let b = mixed_scenario(&ds).run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.device.group_switches, b.device.group_switches);
    assert_eq!(a.device.objects_served, b.device.objects_served);
    assert_eq!(a.scheduler, b.scheduler);
    assert_eq!(a.device_spans().len(), b.device_spans().len());
    // A different Poisson seed produces a genuinely different run.
    let q12 = tpch::q12(&ds);
    let other = Scenario::from_workloads(vec![Workload::new(Arc::clone(&ds))
        .repeat_query(q12, 3)
        .engine(SkipperFactory::default().cache_bytes(6 * GIB))
        .arrival(ArrivalProcess::Poisson {
            mean: SimDuration::from_secs(200),
            seed: 100,
        })])
    .run();
    let same_shape_a: Vec<u64> = a.clients[2].iter().map(|r| r.start.as_micros()).collect();
    let other_starts: Vec<u64> = other.clients[0]
        .iter()
        .map(|r| r.start.as_micros())
        .collect();
    assert_ne!(same_shape_a, other_starts, "seed must matter");
}

/// Same seed + same fleet config ⇒ byte-identical `RunResult` across
/// two runs — including the multi-shard event-interleaving order, which
/// the per-shard delivery ledgers record transfer by transfer.
#[test]
fn sharded_runtime_is_deterministic_including_interleaving() {
    let ds = tpch_ds();
    let build = |placement| mixed_scenario(&ds).shards(3).placement(placement).run();
    for placement in [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::HashObject,
        PlacementPolicy::TableAffinity,
    ] {
        let a = build(placement);
        let b = build(placement);
        assert_eq!(fingerprint(&a), fingerprint(&b), "{placement:?}");
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.device.group_switches, b.device.group_switches);
        assert_eq!(a.shards.len(), 3);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.metrics, sb.metrics, "{placement:?} shard {}", sa.shard);
            // The full service order, not just the multiset: the event
            // interleaving across shards must replay exactly.
            assert_eq!(sa.deliveries, sb.deliveries);
            assert_eq!(sa.spans, sb.spans);
            assert_eq!(sa.scheduler, sb.scheduler);
        }
        // Stall breakdowns replay too (union attribution is pure).
        let stalls = |r: &RunResult| -> Vec<(u64, u64, u64)> {
            r.records()
                .map(|q| {
                    (
                        q.stalls.switching.as_micros(),
                        q.stalls.transfer.as_micros(),
                        q.stalls.idle.as_micros(),
                    )
                })
                .collect()
        };
        assert_eq!(stalls(&a), stalls(&b));
    }
}

/// The mixed-engine regression: in one scenario, Skipper tenants issue
/// their whole working set as an upfront GET batch while Vanilla
/// tenants pull one object at a time — and both produce the reference
/// result.
#[test]
fn mixed_fleet_upfront_batches_vs_one_at_a_time() {
    let ds = tpch_ds();
    let q12 = tpch::q12(&ds);
    let objects = ds.objects_for_query(&q12) as u64;
    let res = mixed_scenario(&ds).run();

    let expected = {
        let tables = ds.materialize_query_tables(&q12);
        let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
        reference::execute(&q12, &slices)
    };
    for rec in res.records() {
        match rec.engine {
            "skipper" => assert_eq!(
                rec.upfront_gets, objects,
                "skipper must issue everything upfront (client {})",
                rec.client
            ),
            "vanilla" => assert_eq!(
                rec.upfront_gets, 1,
                "vanilla must pull one at a time (client {})",
                rec.client
            ),
            other => panic!("unexpected engine {other}"),
        }
        assert!(
            results_approx_eq(&rec.result, &expected, 1e-9),
            "client {} ({}) diverged",
            rec.client,
            rec.engine
        );
    }
    // The fleet really was mixed.
    assert!(res.records().any(|r| r.engine == "skipper"));
    assert!(res.records().any(|r| r.engine == "vanilla"));
    assert_eq!(res.scheduler, "ranking");
}

/// Per-tenant cache configuration is honored: a Skipper tenant with a
/// thrash-inducing cache reissues GETs while a roomy tenant running the
/// same query does not.
#[test]
fn per_tenant_cache_configuration_is_independent() {
    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(17, 8).with_phys_divisor(100_000),
    ));
    let q5 = tpch::q5(&ds);
    let res = Scenario::from_workloads(vec![
        Workload::new(Arc::clone(&ds))
            .repeat_query(q5.clone(), 1)
            .engine(SkipperFactory::default().cache_bytes(6 * GIB)),
        Workload::new(Arc::clone(&ds))
            .repeat_query(q5, 1)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB)),
    ])
    .run();
    let tight = &res.clients[0][0];
    let roomy = &res.clients[1][0];
    assert!(
        tight.stats.gets_issued > roomy.stats.gets_issued,
        "tight cache {} GETs !> roomy {} GETs",
        tight.stats.gets_issued,
        roomy.stats.gets_issued
    );
    assert_eq!(roomy.stats.reissues, 0);
    assert_eq!(tight.result, roomy.result, "results must agree regardless");
}

/// Heterogeneous datasets + engines + arrivals in one run: the paper's
/// Figure 8 mix with a half-migrated fleet and an open-arrival tenant.
#[test]
fn heterogeneous_fleet_end_to_end() {
    let cfg = GenConfig::new(5, 2).with_phys_divisor(200_000);
    let tp = Arc::new(tpch::dataset(&cfg));
    let mr = Arc::new(mrbench::dataset(
        &GenConfig::new(5, 50).with_phys_divisor(800_000),
    ));
    let res = Scenario::from_workloads(vec![
        Workload::new(Arc::clone(&tp))
            .repeat_query(tpch::q12(&tp), 2)
            .engine(SkipperFactory::default().cache_bytes(10 * GIB)),
        Workload::new(Arc::clone(&mr))
            .repeat_query(mrbench::join_task(&mr), 1)
            .engine(VanillaFactory)
            .start_at(SimDuration::from_secs(120)),
        Workload::new(Arc::clone(&tp))
            .repeat_query(tpch::q12(&tp), 2)
            .engine(VanillaFactory)
            .arrival(ArrivalProcess::Poisson {
                mean: SimDuration::from_secs(300),
                seed: 42,
            }),
    ])
    .run();
    assert_eq!(res.clients[0].len(), 2);
    assert_eq!(res.clients[1].len(), 1);
    assert_eq!(res.clients[2].len(), 2);
    // Staggered tenant starts exactly at its offset.
    assert_eq!(res.clients[1][0].start.as_micros(), 120_000_000);
    // Open-arrival tenant starts strictly later than its release seed
    // would ever allow at t = 0.
    assert!(res.clients[2][0].start.as_micros() > 0);
    // Every tenant's breakdown accounts for its full duration.
    for rec in res.records() {
        let accounted = rec.processing + rec.stalls.total();
        assert_eq!(accounted.as_micros(), rec.duration().as_micros());
    }
}

/// A repeated workload is the whole description of a homogeneous fleet:
/// `vec![w; 3]` (three clones sharing one factory `Arc`) and three
/// separately built workloads, each with its own `SkipperFactory`,
/// produce `==` `RunResult`s on 1 and 4 shards — and a `start_at`
/// offset is the tenant's exact first start.
#[test]
fn repeated_workload_equals_separately_built_tenants() {
    let ds = tpch_ds();
    let q12 = tpch::q12(&ds);
    let tenant = || {
        Workload::new(Arc::clone(&ds))
            .repeat_query(q12.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(10 * GIB))
    };
    for shards in [1, 4] {
        let repeated = Scenario::from_workloads(vec![tenant(); 3])
            .shards(shards)
            .run();
        let separate = Scenario::from_workloads(vec![tenant(), tenant(), tenant()])
            .shards(shards)
            .run();
        assert_eq!(repeated, separate, "{shards} shard(s)");
    }

    let staggered = (0..3)
        .map(|i| tenant().start_at(SimDuration::from_secs(500) * i))
        .collect();
    let res = Scenario::from_workloads(staggered).run();
    for (c, recs) in res.clients.iter().enumerate() {
        assert_eq!(recs[0].start.as_micros(), c as u64 * 500_000_000);
    }
}
