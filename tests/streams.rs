//! Property-style sweep over the multi-stream service pipeline.
//!
//! The pipeline's contract mirrors the sharding one: parallel streams
//! redistribute *when* transfers happen but must neither lose,
//! duplicate, nor invent any. For every scheduling policy × stream
//! count, a multi-stream run of the mixed-tenant fleet must deliver
//! exactly the same multiset of `(client, query, object)` transfers as
//! the serial (`streams(1)`) run — and adding streams must never make
//! the makespan *worse* (monotonically non-increasing in stream count).
//! On top of that, `streams(1)` must be byte-for-byte the historical
//! serial device, and the overlap rollup must actually report the
//! §5.2.1 parallelism the pipeline claims.

use std::sync::Arc;

use skipper::core::runtime::{RunResult, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::csd::SchedPolicy;
use skipper::datagen::{tpch, Dataset, GenConfig};
use skipper::sim::SimDuration;

const GIB: u64 = 1 << 30;

fn dataset() -> Arc<Dataset> {
    Arc::new(tpch::dataset(
        &GenConfig::new(31, 4).with_phys_divisor(100_000),
    ))
}

/// The `tests/sharding.rs` mixed-tenant fleet: two Skipper tenants
/// (roomy caches: no reissues, so the GET multiset is exactly the
/// working sets), one pull-based Vanilla, one staggered.
fn fleet_scenario(ds: &Arc<Dataset>, sched: SchedPolicy) -> Scenario {
    let q12 = tpch::q12(ds);
    Scenario::from_workloads(vec![
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB)),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 1)
            .engine(VanillaFactory),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12, 1)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB))
            .start_at(SimDuration::from_secs(120)),
    ])
    .scheduler(sched)
}

const SCHEDULERS: [SchedPolicy; 5] = [
    SchedPolicy::FcfsObject,
    SchedPolicy::FcfsSlack(4),
    SchedPolicy::FcfsQuery,
    SchedPolicy::MaxQueries,
    SchedPolicy::RankBased,
];

fn check_invariants(res: &RunResult, label: &str) {
    let served: u64 = res.shards.iter().map(|s| s.metrics.objects_served).sum();
    assert_eq!(
        res.device.objects_served, served,
        "{label}: roll-up drifted"
    );
    assert_eq!(res.delivery_multiset().len() as u64, served, "{label}");
    // The Figure 9 breakdown stays exact under union attribution even
    // with overlapping per-stream spans.
    for rec in res.records() {
        let accounted = rec.processing + rec.stalls.total();
        assert_eq!(
            accounted.as_micros(),
            rec.duration().as_micros(),
            "{label}: breakdown mismatch for client {} seq {}",
            rec.client,
            rec.seq
        );
    }
}

/// The sweep: every scheduler × stream count delivers the serial
/// multiset, and the makespan never degrades as streams are added.
///
/// Monotonicity is an *empirical pin on this fixed workload*, not a
/// theorem: non-preemptive scheduling with more parallel slots admits
/// Graham-style anomalies in principle (shifted delivery times shift
/// resubmissions, which can flip switch decisions). The drain-time
/// re-decision in the policies is what keeps this workload clean; if
/// a deliberate semantic change trips this assertion, inspect the
/// switch count before assuming a bug.
#[test]
fn streams_conserve_work_and_makespans_never_degrade() {
    let ds = dataset();
    for sched in SCHEDULERS {
        let serial = fleet_scenario(&ds, sched).streams(1).run();
        check_invariants(&serial, &format!("{sched:?}/1"));
        let expected = serial.delivery_multiset();
        assert!(!expected.is_empty());
        let mut last_makespan = serial.makespan;
        for streams in [2u32, 4, 8] {
            let label = format!("{sched:?}/{streams}");
            let res = fleet_scenario(&ds, sched).streams(streams).run();
            check_invariants(&res, &label);
            assert_eq!(
                res.delivery_multiset(),
                expected,
                "{label}: streaming lost or duplicated work"
            );
            assert!(
                res.makespan <= last_makespan,
                "{label}: {} streams regressed the makespan ({} > {})",
                streams,
                res.makespan,
                last_makespan
            );
            last_makespan = res.makespan;
        }
    }
}

/// `streams(1)` reproduces the default scenario exactly: same
/// makespan, same spans, same per-query windows, same multiset.
#[test]
fn one_stream_is_exactly_the_serial_run() {
    let ds = dataset();
    let implicit = fleet_scenario(&ds, SchedPolicy::RankBased).run();
    let explicit = fleet_scenario(&ds, SchedPolicy::RankBased).streams(1).run();
    assert_eq!(explicit.makespan, implicit.makespan);
    assert_eq!(explicit.device_spans(), implicit.device_spans());
    assert_eq!(explicit.delivery_multiset(), implicit.delivery_multiset());
    assert!(explicit.shards[0].extra_stream_spans.is_empty());
    let a: Vec<_> = implicit.records().map(|r| (r.start, r.end)).collect();
    let b: Vec<_> = explicit.records().map(|r| (r.start, r.end)).collect();
    assert_eq!(a, b, "streams(1) drifted from the default run");
}

/// The overlap/utilization rollup actually measures the §5.2.1 win:
/// serial runs report overlap 1.0; a 4-stream run overlaps transfers
/// and compresses the intra-group transfer wall-clock.
#[test]
fn stream_rollup_reports_real_overlap() {
    let ds = dataset();
    let serial = fleet_scenario(&ds, SchedPolicy::RankBased).run();
    let parallel = fleet_scenario(&ds, SchedPolicy::RankBased).streams(4).run();
    let s = serial.stream_rollup();
    let p = parallel.stream_rollup();
    assert_eq!(s.streams, 1);
    assert!((s.overlap() - 1.0).abs() < 1e-9);
    assert_eq!(s.peak_streams, 1);
    assert_eq!(p.streams, 4);
    assert!(p.peak_streams > 1, "pipeline never overlapped");
    assert!(
        p.overlap() > 1.5,
        "4 streams but mean concurrency only {:.2}",
        p.overlap()
    );
    assert!(p.utilization() <= 1.0 + 1e-9);
    // Same stream-seconds of transfer work, compressed into less wall
    // time: the §5.2.1 transfer-time reduction.
    assert!((p.transfer_stream_secs - s.transfer_stream_secs).abs() < 1e-6);
    assert!(p.transfer_wall_secs < s.transfer_wall_secs / 1.5);
}

/// Per-shard stream overrides only upgrade their shard; the rest of the
/// fleet stays serial, and work is still conserved.
#[test]
fn shard_stream_overrides_are_local() {
    let ds = dataset();
    let base = fleet_scenario(&ds, SchedPolicy::RankBased).shards(2).run();
    let upgraded = fleet_scenario(&ds, SchedPolicy::RankBased)
        .shards(2)
        .shard_streams(1, 4)
        .run();
    assert_eq!(upgraded.delivery_multiset(), base.delivery_multiset());
    assert!(upgraded.makespan <= base.makespan);
    assert_eq!(upgraded.shards[0].extra_stream_spans.len(), 0);
    assert_eq!(upgraded.shards[1].extra_stream_spans.len(), 3);
    assert_eq!(upgraded.shards[0].stream_rollup().streams, 1);
    assert_eq!(upgraded.shards[1].stream_rollup().streams, 4);
}

#[test]
#[should_panic(expected = "at least 1 transfer stream")]
fn zero_streams_rejected_at_build_time() {
    let ds = dataset();
    fleet_scenario(&ds, SchedPolicy::RankBased).streams(0);
}

#[test]
#[should_panic(expected = "at least 1 transfer stream")]
fn zero_shard_streams_rejected_at_build_time() {
    let ds = dataset();
    fleet_scenario(&ds, SchedPolicy::RankBased).shard_streams(0, 0);
}
