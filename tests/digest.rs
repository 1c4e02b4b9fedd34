//! Whole-run digests: "byte-identical" as one assertion.
//!
//! Each test runs a reduced-scale twin of one benchmark workload shape
//! (`benchmark/src/workloads.rs`) and pins the [`digest`] of its whole
//! `RunResult` — every record, span, ledger entry, counter and
//! quantile — plus five readable aggregates, so a mismatch says where
//! the change is. The five shapes all run the rank-based scheduler, so
//! a small fleet per canned policy pins the other four.
//!
//! A refactor must leave every digest unchanged. Regenerating one
//! counts as regenerating a golden: do it only in a change that says
//! the model moved, and why.

use std::sync::Arc;

use skipper::core::runtime::{
    AdmissionPolicy, AdmissionResponse, ArrivalProcess, BreakerPolicy, CacheConfig, FaultPlan,
    LedgerMode, RecordMode, RetryPolicy, RunResult, Scenario, SkipperFactory, TraceMode,
    VanillaFactory, Workload,
};
use skipper::csd::{BasePlacement, LayoutPolicy, PlacementPolicy, SchedPolicy};
use skipper::datagen::{tpch, Dataset, GenConfig};
use skipper::sim::{SimDuration, SimTime};
use skipper_testkit::digest;

const GIB: u64 = 1 << 30;

/// SF-16 TPC-H, miniaturized physical rows.
fn dataset() -> Arc<Dataset> {
    let config = GenConfig::new(2016, 16).with_phys_divisor(400_000);
    Arc::new(tpch::dataset(&config))
}

/// `[makespan µs, group switches, objects served, GETs submitted,
/// queries completed]`.
fn aggregates(run: &RunResult) -> [u64; 5] {
    [
        run.makespan.as_micros(),
        run.device.group_switches,
        run.device.objects_served,
        run.device.requests_submitted,
        run.latency.fleet.count,
    ]
}

/// Pinned `(aggregates, digest)` of the five benchmark shapes.
type Pin = ([u64; 5], u64);
const BATCH_CLOSED: Pin = (
    [2_492_979_290, 504, 1_280, 1_280, 64],
    0xc491_8565_7972_4537,
);
const PULL_CLOSED: Pin = (
    [3_789_615_745, 1_272, 1_280, 1_280, 64],
    0x3e52_b826_2c13_c803,
);
const TPCH_MJOIN: Pin = ([2_828_545_659, 21, 249, 249, 8], 0xefbf_2f5f_c8d2_08ef);
const OPEN_PLAIN: Pin = ([3_389_876_596, 140, 780, 780, 36], 0xcc65_6dda_749a_eb85);
const OPEN_PLANES: Pin = ([3_363_158_717, 82, 468, 494, 14], 0x1456_e28d_cd4c_8e54);
const CRASH_CUTS: Pin = ([2_703_406_385, 149, 360, 482, 18], 0xb32d_e3a0_f7cb_55ae);

/// Asserts the run's aggregates, then its whole-run digest.
fn pin(label: &str, run: &RunResult, (want, want_digest): Pin) {
    assert_eq!(
        aggregates(run),
        want,
        "{label}: [makespan µs, switches, served, submitted, completed]"
    );
    assert_eq!(digest(run), want_digest, "{label}: whole-run digest");
}

fn skipper(ds: &Arc<Dataset>, cache_gib: u64) -> Workload {
    Workload::new(Arc::clone(ds)).engine(SkipperFactory::default().cache_bytes(cache_gib * GIB))
}

fn vanilla(ds: &Arc<Dataset>) -> Workload {
    Workload::new(Arc::clone(ds)).engine(VanillaFactory)
}

/// The closed-loop shape: 16 tenants, 4 queries each, 8 shards, the
/// rank-based scheduler and counter-only recording.
fn closed_loop(tenant: impl Fn(&Arc<Dataset>) -> Workload) -> RunResult {
    let ds = dataset();
    let q12 = tpch::q12(&ds);
    let tenants = (0..16)
        .map(|_| tenant(&ds).repeat_query(q12.clone(), 4))
        .collect();
    Scenario::from_workloads(tenants)
        .shards(8)
        .scheduler(SchedPolicy::RankBased)
        .trace_mode(TraceMode::Counters)
        .ledger_mode(LedgerMode::Counters)
        .record_mode(RecordMode::Counters)
        .run()
}

#[test]
fn batch_closed_twin() {
    let run = closed_loop(|ds| skipper(ds, 30));
    pin("batch_closed", &run, BATCH_CLOSED);
}

#[test]
fn pull_closed_twin() {
    let run = closed_loop(vanilla);
    pin("pull_closed", &run, PULL_CLOSED);
}

#[test]
fn tpch_mjoin_twin() {
    // One device, Q5 and Q12 per tenant; the Skipper caches are small
    // enough that Q5 evicts and re-fetches (the reissue regime).
    let ds = dataset();
    let queries = vec![tpch::q5(&ds), tpch::q12(&ds)];
    let tenants = (0..4)
        .map(|t| if t < 3 { skipper(&ds, 8) } else { vanilla(&ds) }.queries(queries.clone()))
        .collect();
    let run = Scenario::from_workloads(tenants).run();
    let working_sets: u64 = run.records().map(|r| r.upfront_gets).sum();
    assert!(run.total_gets() > working_sets, "no reissue at this cache");
    pin("tpch_mjoin", &run, TPCH_MJOIN);
}

/// The open-loop shape: 4 bursty hot tenants and 4 Poisson cold ones
/// on 4 shards with 4 streams, Full recording and one SLO target;
/// `knobs` sets each tenant's protection (`true` for a hot tenant).
fn open_loop(knobs: impl Fn(Workload, bool) -> Workload) -> Scenario {
    let ds = dataset();
    let (q12, q5) = (tpch::q12(&ds), tpch::q5(&ds));
    let tenants = (0..8u64)
        .map(|t| {
            let seed = 2016 + t;
            let w = if t < 4 {
                skipper(&ds, 30)
                    .repeat_query(q12.clone(), 6)
                    .arrival(ArrivalProcess::OnOff {
                        on_mean: SimDuration::from_secs(20),
                        on_duration: SimDuration::from_secs(200),
                        off_duration: SimDuration::from_secs(800),
                        seed,
                    })
            } else {
                skipper(&ds, 30)
                    .repeat_query(q5.clone(), 3)
                    .arrival(ArrivalProcess::Poisson {
                        mean: SimDuration::from_secs(600),
                        seed,
                    })
            };
            knobs(w, t < 4)
        })
        .collect();
    Scenario::from_workloads(tenants)
        .shards(4)
        .streams(4)
        .scheduler(SchedPolicy::RankBased)
        .slo_target(SimDuration::from_secs(300))
}

#[test]
fn open_plain_twin() {
    let run = open_loop(|w, _| w).run();
    pin("open_plain", &run, OPEN_PLAIN);
}

#[test]
fn open_planes_twin() {
    // The same arrivals on 2 replicas with DRAM+SSD shard caches, one
    // fault of every kind, deadlines, retries, hedges and admission.
    let at = SimTime::from_secs;
    let faults = FaultPlan::new()
        .shard_down(1, at(600), at(900))
        .degraded(2, at(1_200), at(1_800), 0.25)
        .drop_wakeup_after(3, 20, SimDuration::from_secs(30))
        .seeded_crashes(
            0,
            SimDuration::from_secs(1_500),
            SimDuration::from_secs(60),
            at(4_000),
            7,
        );
    let run = open_loop(|w, hot| {
        if hot {
            w.deadline(SimDuration::from_secs(150))
                .retry(RetryPolicy::Backoff {
                    base: SimDuration::from_secs(30),
                    cap: SimDuration::from_secs(240),
                    max_attempts: 2,
                })
                .priority(1)
                .hedge_after(SimDuration::from_secs(60))
        } else {
            w.deadline(SimDuration::from_secs(400))
                .hedge_after(SimDuration::from_secs(120))
        }
    })
    .placement(PlacementPolicy::Replicated {
        k: 2,
        base: BasePlacement::RoundRobin,
    })
    .shard_cache(CacheConfig::two_tier(4 * GIB, 8 * GIB))
    .faults(faults)
    .admission(AdmissionPolicy {
        max_queue_depth: 12,
        max_queued_bytes: u64::MAX,
        response: AdmissionResponse::Shed,
        breaker: Some(BreakerPolicy {
            brownout_below: 0.5,
            trip_timeouts: 3,
            cooldown: SimDuration::from_secs(600),
        }),
    })
    .run();
    assert!(run.availability.fault_events >= 4, "every fault kind fired");
    pin("open_planes", &run, OPEN_PLANES);
}

#[test]
fn crash_cuts_on_a_three_stream_fleet() {
    // Seeded crashes on both shards abort transfers and switches
    // mid-span on a 3-stream fleet that keeps every record and span,
    // so the pin covers the cut spans and the stalls around them.
    let ds = dataset();
    let q12 = tpch::q12(&ds);
    let tenants = (0..6u64)
        .map(|t| {
            let w = if t % 3 == 2 {
                vanilla(&ds)
            } else {
                skipper(&ds, 30)
            };
            w.repeat_query(q12.clone(), 3)
                .start_at(SimDuration::from_secs(30 * t))
        })
        .collect();
    let at = SimTime::from_secs;
    let mut faults = FaultPlan::new();
    for shard in 0..2 {
        faults = faults.seeded_crashes(
            shard,
            SimDuration::from_secs(300),
            SimDuration::from_secs(40),
            at(2_000),
            11 + shard as u64,
        );
    }
    let run = Scenario::from_workloads(tenants)
        .shards(2)
        .streams(3)
        .scheduler(SchedPolicy::RankBased)
        .faults(faults.degraded(1, at(100), at(400), 0.5))
        .run();
    assert!(
        run.availability.aborted_transfers > 0,
        "no crash cut a transfer"
    );
    pin("crash_cuts", &run, CRASH_CUTS);
}

#[test]
fn every_policy_on_a_two_per_group_fleet() {
    // Eight tenants sharing four groups, a quarter of them pull-based,
    // half of them staggered, on two streams: every policy serves,
    // switches and declines while the pipe drains.
    let ds = dataset();
    let q12 = tpch::q12(&ds);
    let want: [Pin; 5] = [
        ([4_159_269_300, 136, 480, 480, 24], 0x2418_efb1_8195_601a),
        ([4_159_269_300, 136, 480, 480, 24], 0x739a_f9db_4647_42eb),
        ([4_159_269_300, 136, 480, 480, 24], 0x0f08_b6bf_7fe2_f72a),
        ([4_059_269_300, 126, 480, 480, 24], 0xfbe3_e400_02c9_da8c),
        ([4_059_269_300, 126, 480, 480, 24], 0xc6c7_ff94_05cd_9c46),
    ];
    for (policy, want) in SchedPolicy::all().into_iter().zip(want) {
        let tenants = (0..8)
            .map(|t| {
                let pull = t % 4 == 3;
                let w = if pull { vanilla(&ds) } else { skipper(&ds, 30) };
                w.repeat_query(q12.clone(), 3)
                    .start_at(SimDuration::from_secs(40 * (t as u64 % 2)))
            })
            .collect();
        let run = Scenario::from_workloads(tenants)
            .layout(LayoutPolicy::TwoClientsPerGroup)
            .streams(2)
            .scheduler(policy)
            .run();
        pin(policy.label(), &run, want);
    }
}
