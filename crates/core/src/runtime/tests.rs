//! Runtime unit tests: the paper's switch-count and breakdown
//! invariants plus runtime-specific coverage (the pump wake-up protocol
//! and the sharded device fleet).

use std::sync::Arc;

use super::fleet::DeviceFleet;
use super::pump::DevicePump;
use super::*;
use crate::config::CostModel;
use crate::engine::{EngineStats, QueryEngine, Reaction};
use skipper_csd::{
    CsdConfig, CsdDevice, Delivery, IntraGroupOrder, LayoutPolicy, ObjectId, ObjectStore, QueryId,
    SchedPolicy,
};
use skipper_datagen::{tpch, Dataset, GenConfig};
use skipper_relational::ops::reference;
use skipper_relational::query::{results_approx_eq, QuerySpec};
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;
use skipper_sim::{SimDuration, SimTime};

/// SF-4 TPC-H: lineitem 4 + orders 1 = 5 objects per Q12 client.
fn mini_dataset() -> Dataset {
    tpch::dataset(&GenConfig::new(21, 4).with_phys_divisor(100_000))
}

fn gib(n: u64) -> u64 {
    n << 30
}

/// A Skipper tenant (10 GiB MJoin cache) running `q` `times` times.
fn skipper(ds: &Arc<Dataset>, q: &QuerySpec, times: usize) -> Workload {
    Workload::new(Arc::clone(ds))
        .repeat_query(q.clone(), times)
        .engine(SkipperFactory::default().cache_bytes(gib(10)))
}

/// A pull-based tenant running `q` `times` times.
fn vanilla(ds: &Arc<Dataset>, q: &QuerySpec, times: usize) -> Workload {
    Workload::new(Arc::clone(ds))
        .repeat_query(q.clone(), times)
        .engine(VanillaFactory)
}

#[test]
fn single_skipper_client_no_switches() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![skipper(&ds, &q, 1)]).run();
    assert_eq!(res.device.group_switches, 0);
    assert_eq!(res.clients.len(), 1);
    let rec = &res.clients[0][0];
    assert!(rec.duration().as_secs_f64() > 0.0);
    assert!(rec.stalls.switching.is_zero());
    assert_eq!(rec.engine, "skipper");
}

#[test]
fn results_match_reference_for_both_engines() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let tables = ds.materialize_query_tables(&q);
    let slices: Vec<&[skipper_relational::segment::Segment]> =
        tables.iter().map(|t| t.as_slice()).collect();
    let expected = reference::execute(&q, &slices);

    for tenant in [vanilla(&ds, &q, 1), skipper(&ds, &q, 1)] {
        let label = tenant.engine.label();
        let res = Scenario::from_workloads(vec![tenant; 2]).run();
        for rec in res.records() {
            assert!(
                results_approx_eq(&rec.result, &expected, 1e-9),
                "{label} produced a wrong result"
            );
        }
    }
}

#[test]
fn vanilla_switch_count_scales_with_clients_times_objects() {
    // §3.2: "two consecutive requests from any PostgreSQL client are
    // separated by five group switches" — with C clients on private
    // groups, vanilla forces ≈ C×D switches.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let objects = ds.objects_for_query(&q) as u64; // 5
    let res = Scenario::from_workloads(vec![vanilla(&ds, &q, 1); 3]).run();
    let switches = res.device.group_switches;
    // Ideal batching would need ~C switches; vanilla needs ~C×D.
    assert!(
        switches >= 2 * objects,
        "expected ping-pong switching, got {switches}"
    );
}

#[test]
fn skipper_switch_count_is_one_per_client_round() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![skipper(&ds, &q, 1); 3]).run();
    // All of a client's data is batched per residency: C-1 paid
    // switches for C clients (first load is free).
    assert_eq!(res.device.group_switches, 2);
}

#[test]
fn skipper_beats_vanilla_with_multiple_clients() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let pulled = Scenario::from_workloads(vec![vanilla(&ds, &q, 1); 3]).run();
    let pushed = Scenario::from_workloads(vec![skipper(&ds, &q, 1); 3]).run();
    assert!(
        pushed.mean_query_secs() < pulled.mean_query_secs(),
        "skipper {:.0}s !< vanilla {:.0}s",
        pushed.mean_query_secs(),
        pulled.mean_query_secs()
    );
}

#[test]
fn all_in_one_layout_eliminates_switches() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![vanilla(&ds, &q, 1); 3])
        .layout(LayoutPolicy::AllInOne)
        .run();
    assert_eq!(res.device.group_switches, 0);
}

#[test]
fn breakdown_covers_execution_time() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![vanilla(&ds, &q, 1); 2]).run();
    assert_eq!(oracle::check_run(&res), Vec::<String>::new());
}

#[test]
fn query_sequences_run_back_to_back() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![skipper(&ds, &q, 3)]).run();
    let recs = &res.clients[0];
    assert_eq!(recs.len(), 3);
    assert!(recs[0].end <= recs[1].start);
    assert!(recs[1].end <= recs[2].start);
    assert_eq!(recs[2].seq, 2);
}

#[test]
fn deterministic_across_runs() {
    let build = || {
        let ds = Arc::new(mini_dataset());
        let q = tpch::q12(&ds);
        Scenario::from_workloads(vec![skipper(&ds, &q, 1); 3]).run()
    };
    let a = build();
    let b = build();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.device.group_switches, b.device.group_switches);
    let ta: Vec<_> = a.records().map(|r| (r.start, r.end)).collect();
    let tb: Vec<_> = b.records().map(|r| (r.start, r.end)).collect();
    assert_eq!(ta, tb);
}

#[test]
fn mixed_fleet_runs_both_engines_in_one_scenario() {
    let ds = std::sync::Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![
        Workload::new(std::sync::Arc::clone(&ds))
            .repeat_query(q.clone(), 1)
            .engine(SkipperFactory::default().cache_bytes(gib(10))),
        Workload::new(std::sync::Arc::clone(&ds))
            .repeat_query(q, 1)
            .engine(VanillaFactory),
    ])
    .run();
    assert_eq!(res.clients[0][0].engine, "skipper");
    assert_eq!(res.clients[1][0].engine, "vanilla");
    // One shared device served both: the query-aware scheduler is
    // deployed because a Skipper tenant is present.
    assert_eq!(res.scheduler, "ranking");
    // Results agree across the two engines.
    assert_eq!(res.clients[0][0].result, res.clients[1][0].result);
}

#[test]
fn all_vanilla_fleet_defaults_to_stock_fcfs_scheduler() {
    let ds = std::sync::Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![
        Workload::new(std::sync::Arc::clone(&ds))
            .repeat_query(q.clone(), 1)
            .engine(VanillaFactory),
        Workload::new(ds).repeat_query(q, 1).engine(VanillaFactory),
    ])
    .run();
    assert!(
        res.scheduler.contains("fcfs"),
        "stock fleet got {}",
        res.scheduler
    );
}

#[test]
fn poisson_arrivals_queue_behind_busy_tenant_and_complete() {
    let ds = mini_dataset();
    let q = tpch::q12(&ds);
    // Mean gap far below the query duration: arrivals pile up and the
    // tenant drains them back-to-back.
    let res = Scenario::from_workloads(vec![Workload::new(ds)
        .repeat_query(q, 4)
        .engine(SkipperFactory::default().cache_bytes(gib(10)))
        .arrival(ArrivalProcess::Poisson {
            mean: SimDuration::from_secs(1),
            seed: 3,
        })])
    .run();
    let recs = &res.clients[0];
    assert_eq!(recs.len(), 4);
    for pair in recs.windows(2) {
        assert!(pair[0].end <= pair[1].start, "queries overlapped");
    }
    // First arrival is an open release: the tenant starts strictly
    // after t = 0.
    assert!(recs[0].start.as_micros() > 0);
}

/// Two 1 GiB objects on different groups, 1 GiB/s bandwidth (1 s per
/// transfer), 10 s switches, free initial load — wrapped in a pump.
fn mini_pump() -> DevicePump {
    mini_pump_with_streams(1)
}

/// Like [`mini_pump`] but with both objects in ONE group and `streams`
/// pipeline slots, for the earliest-of-K re-arm protocol tests.
fn mini_pump_same_group(streams: u32) -> DevicePump {
    let ds = mini_dataset();
    let payload: Arc<Segment> = Arc::clone(&ds.segments[0][0]);
    let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
    store.put(ObjectId::new(0, 0, 0), 1 << 30, 0, Arc::clone(&payload));
    store.put(ObjectId::new(0, 0, 1), 2 << 30, 0, payload);
    DevicePump::new(CsdDevice::new(
        CsdConfig {
            switch_latency: SimDuration::from_secs(10),
            bandwidth_bytes_per_sec: (1u64 << 30) as f64,
            parallel_streams: streams,
            ..CsdConfig::default()
        },
        store,
        SchedPolicy::RankBased.build(),
        IntraGroupOrder::SemanticRoundRobin,
    ))
}

/// Two equal 1 GiB objects in ONE group: with 2 streams both transfers
/// start together and retire in the same wake-up (the batch path).
fn mini_pump_equal_group(streams: u32) -> DevicePump {
    let ds = mini_dataset();
    let payload: Arc<Segment> = Arc::clone(&ds.segments[0][0]);
    let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
    store.put(ObjectId::new(0, 0, 0), 1 << 30, 0, Arc::clone(&payload));
    store.put(ObjectId::new(0, 0, 1), 1 << 30, 0, payload);
    DevicePump::new(CsdDevice::new(
        CsdConfig {
            switch_latency: SimDuration::from_secs(10),
            bandwidth_bytes_per_sec: (1u64 << 30) as f64,
            parallel_streams: streams,
            ..CsdConfig::default()
        },
        store,
        SchedPolicy::RankBased.build(),
        IntraGroupOrder::SemanticRoundRobin,
    ))
}

fn mini_pump_with_streams(streams: u32) -> DevicePump {
    let ds = mini_dataset();
    let payload: Arc<Segment> = Arc::clone(&ds.segments[0][0]);
    let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
    store.put(ObjectId::new(0, 0, 0), 1 << 30, 0, Arc::clone(&payload));
    store.put(ObjectId::new(0, 0, 1), 1 << 30, 1, payload);
    DevicePump::new(CsdDevice::new(
        CsdConfig {
            switch_latency: SimDuration::from_secs(10),
            bandwidth_bytes_per_sec: (1u64 << 30) as f64,
            parallel_streams: streams,
            ..CsdConfig::default()
        },
        store,
        SchedPolicy::RankBased.build(),
        IntraGroupOrder::SemanticRoundRobin,
    ))
}

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// Fires `pump`'s wake-up at `at` into a fresh local buffer.
fn wake(pump: &mut DevicePump, at: SimTime) -> Vec<Delivery<Arc<Segment>>> {
    let mut out = Vec::new();
    pump.on_wakeup_into(at, &mut out);
    out
}

#[test]
fn pump_poke_with_quiescent_device_stays_unarmed() {
    let mut pump = mini_pump();
    // Nothing submitted: poke must not arm anything, ever.
    assert_eq!(pump.poke(t(0)), None);
    assert_eq!(pump.poke(t(5)), None);
    assert!(pump.device().is_quiescent());
}

#[test]
fn pump_double_poke_while_armed_is_a_no_op() {
    let mut pump = mini_pump();
    pump.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
    let at = pump.poke(t(0)).expect("first poke arms the wake-up");
    assert_eq!(at, t(1));
    // Re-poking while armed must not double-schedule — even later in
    // virtual time, and even after more work arrives.
    assert_eq!(pump.poke(t(0)), None);
    pump.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 1)]);
    assert_eq!(pump.poke(t(0)), None);
    // The armed wake-up still completes normally.
    let d = wake(&mut pump, t(1));
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].object, ObjectId::new(0, 0, 0));
}

#[test]
fn pump_repoke_after_delivery_resumes_the_protocol() {
    let mut pump = mini_pump();
    pump.submit(
        t(0),
        0,
        QueryId::new(0, 0),
        &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
    );
    // Transfer of object 0 (group 0 loads free).
    assert_eq!(pump.poke(t(0)), Some(t(1)));
    assert_eq!(wake(&mut pump, t(1)).len(), 1);
    // Re-poke arms the paid switch to group 1; its wake-up completes the
    // switch and delivers nothing.
    assert_eq!(pump.poke(t(1)), Some(t(11)));
    assert!(
        wake(&mut pump, t(11)).is_empty(),
        "switch is not a delivery"
    );
    // Re-poke after the non-delivery wake-up arms the final transfer.
    assert_eq!(pump.poke(t(11)), Some(t(12)));
    let d = wake(&mut pump, t(12));
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].object, ObjectId::new(0, 0, 1));
    // Drained: poke goes quiet again.
    assert_eq!(pump.poke(t(12)), None);
    assert!(pump.device().is_quiescent());
}

#[test]
fn pump_wakeup_without_armed_operation_is_a_stale_no_op() {
    // Under the earliest-of-K protocol a wake-up whose instant no
    // longer matches the armed one is *stale* (superseded by a
    // re-arm): it must be ignored without touching the device.
    let mut pump = mini_pump();
    assert!(wake(&mut pump, t(0)).is_empty());
    pump.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
    assert_eq!(pump.poke(t(0)), Some(t(1)));
    // A wake-up at the wrong instant is stale; the armed one still fires.
    assert!(wake(&mut pump, t(0)).is_empty());
    assert_eq!(wake(&mut pump, t(1)).len(), 1);
}

#[test]
fn pump_rearms_when_new_work_moves_the_earliest_completion() {
    // Both objects in group 0, 2 streams. The 2 GiB object (2 s) is
    // dispatched first; an armed wake-up points at t=2. Submitting the
    // 1 GiB object fills the second slot, finishing at t=1 — poke must
    // RE-ARM at the earlier instant, and the superseded t=2 wake-up
    // fires... except the transfer really is still due at t=2 here, so
    // the re-poke after the t=1 batch arms t=2 again: the original
    // event is consumed by the re-armed instant matching it.
    let mut pump = mini_pump_same_group(2);
    pump.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 1)]);
    assert_eq!(pump.poke(t(0)), Some(t(2)), "2 GiB transfer alone");
    pump.submit(t(0), 0, QueryId::new(0, 1), &[ObjectId::new(0, 0, 0)]);
    assert_eq!(
        pump.poke(t(0)),
        Some(t(1)),
        "the 1 GiB transfer moved the earliest completion earlier"
    );
    // Double-poke stays a no-op at the new instant.
    assert_eq!(pump.poke(t(0)), None);
    let first = wake(&mut pump, t(1));
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].object, ObjectId::new(0, 0, 0));
    // Re-poke re-arms at the still-pending t=2 completion, which the
    // superseded event (also at t=2) then legitimately consumes.
    assert_eq!(pump.poke(t(1)), Some(t(2)));
    let second = wake(&mut pump, t(2));
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].object, ObjectId::new(0, 0, 1));
    assert!(pump.device().is_quiescent());
}

#[test]
fn pump_multi_stream_wakeup_retires_the_whole_batch() {
    let mut pump = mini_pump_with_streams(2);
    // Objects on different groups: only group 0's transfer can start;
    // same-group batches retire together instead.
    pump.submit(
        t(0),
        0,
        QueryId::new(0, 0),
        &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
    );
    assert_eq!(pump.poke(t(0)), Some(t(1)));
    assert_eq!(pump.device().in_flight(), 1, "second object is off-group");
    assert_eq!(wake(&mut pump, t(1)).len(), 1);
    // Unequal same-group pair: both slots fill but retire separately.
    let mut pair = mini_pump_same_group(2);
    pair.submit(
        t(0),
        0,
        QueryId::new(0, 0),
        &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
    );
    assert_eq!(pair.poke(t(0)), Some(t(1)), "earliest of the two transfers");
    assert_eq!(pair.device().in_flight(), 2);
    let batch = wake(&mut pair, t(1));
    assert_eq!(batch.len(), 1, "only the 1 GiB transfer is due at t=1");
    assert_eq!(pair.poke(t(1)), Some(t(2)));
    assert_eq!(wake(&mut pair, t(2)).len(), 1);
    assert!(pair.device().is_quiescent());
    // Equal same-group pair: one wake-up really does retire a batch of
    // two through the pump (the multi-delivery path the driver routes).
    let mut equal = mini_pump_equal_group(2);
    equal.submit(
        t(0),
        0,
        QueryId::new(0, 0),
        &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
    );
    assert_eq!(equal.poke(t(0)), Some(t(1)));
    assert_eq!(equal.device().in_flight(), 2);
    let batch = wake(&mut equal, t(1));
    assert_eq!(batch.len(), 2, "same-instant completions retire together");
    assert_eq!(batch[0].object, ObjectId::new(0, 0, 0));
    assert_eq!(batch[1].object, ObjectId::new(0, 0, 1));
    assert_eq!(equal.poke(t(1)), None);
    assert!(equal.device().is_quiescent());
}

#[test]
fn fleet_routes_submissions_by_shard_map_and_interleaves() {
    // Two single-object shards; one batch touching both.
    let ds = mini_dataset();
    let payload: Arc<Segment> = Arc::clone(&ds.segments[0][0]);
    let mk_dev = |obj: ObjectId| {
        let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
        store.put(obj, 1 << 30, 0, Arc::clone(&payload));
        CsdDevice::new(
            CsdConfig {
                switch_latency: SimDuration::from_secs(10),
                bandwidth_bytes_per_sec: (1u64 << 30) as f64,
                parallel_streams: 1,
                ..CsdConfig::default()
            },
            store,
            SchedPolicy::RankBased.build(),
            IntraGroupOrder::SemanticRoundRobin,
        )
    };
    let a = ObjectId::new(0, 0, 0);
    let b = ObjectId::new(0, 0, 1);
    let mut fleet = DeviceFleet::new(
        vec![mk_dev(a), mk_dev(b)],
        [(a, 0), (b, 1)].into_iter().collect(),
    );
    assert_eq!(fleet.pumps().len(), 2);
    assert_eq!(fleet.shard_for(a), 0);
    assert_eq!(fleet.shard_for(b), 1);
    fleet.submit(t(0), 0, QueryId::new(0, 0), &[b, a]);
    // Both shards arm independently and serve in parallel virtual time.
    let mut armed = Vec::new();
    fleet.poke_all(t(0), |s, at| armed.push((s, at)));
    assert_eq!(armed, vec![(0, t(1)), (1, t(1))]);
    // Nothing re-arms while both are armed.
    let mut rearmed = Vec::new();
    fleet.poke_all(t(0), |s, at| rearmed.push((s, at)));
    assert!(rearmed.is_empty());
    let (mut d0, mut d1) = (Vec::new(), Vec::new());
    fleet.on_wakeup_into(0, t(1), &mut d0);
    fleet.on_wakeup_into(1, t(1), &mut d1);
    assert_eq!(d0[0].object, a);
    assert_eq!(d1[0].object, b);
    assert!(fleet.is_quiescent());
}

#[test]
#[should_panic(expected = "never placed on any shard")]
fn fleet_rejects_unplaced_objects() {
    let mk_dev = || {
        CsdDevice::<Arc<Segment>>::new(
            CsdConfig::default(),
            ObjectStore::new(),
            SchedPolicy::RankBased.build(),
            IntraGroupOrder::SemanticRoundRobin,
        )
    };
    // Two shards, empty placement map: any submission must panic loudly
    // instead of silently dropping the request.
    let mut fleet = DeviceFleet::new(vec![mk_dev(), mk_dev()], Default::default());
    fleet.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
}

/// A 4-shard `Replicated { k: 3 }` fleet over one object whose primary
/// is shard 3, so its replica run wraps around: 3, 0, 1. Shard 2, off
/// the run, stores only [`OFF_RUN`].
fn wrapped_k3_fleet() -> (DeviceFleet<()>, ObjectId) {
    let obj = ObjectId::new(0, 0, 0);
    let devices = (0..4)
        .map(|shard| {
            let mut store: ObjectStore<()> = ObjectStore::new();
            let stored = if shard == 2 { OFF_RUN } else { obj };
            store.put(stored, 1 << 20, 0, ());
            CsdDevice::new(
                CsdConfig::default(),
                store,
                SchedPolicy::FcfsObject.build(),
                IntraGroupOrder::SemanticRoundRobin,
            )
        })
        .collect();
    let placement = PlacementPolicy::Replicated {
        k: 3,
        base: skipper_csd::BasePlacement::RoundRobin,
    };
    let run: Vec<usize> = placement.replica_shards(obj, 3, 4).collect();
    assert_eq!(run, vec![3, 0, 1]);
    let fleet = DeviceFleet::with_replicas(devices, [(obj, run)].into_iter().collect());
    (fleet, obj)
}

/// The object [`wrapped_k3_fleet`] stores on shard 2 only.
const OFF_RUN: ObjectId = ObjectId::new(0, 0, 1);

#[test]
fn hedge_losers_are_cancelled_along_the_wrapped_run() {
    let (mut fleet, obj) = wrapped_k3_fleet();
    let q = QueryId::new(0, 0);
    // Losers queued on both wrapped replicas, and a same-query copy of
    // another object off the run.
    fleet.submit_to(0, t(0), 0, q, obj);
    fleet.submit_to(1, t(0), 0, q, obj);
    fleet.submit_to(2, t(0), 0, q, OFF_RUN);
    assert_eq!(fleet.cancel_object(q, obj), 2);
    let queued: Vec<usize> = fleet
        .pumps()
        .iter()
        .map(|p| p.device().pending_len())
        .collect();
    assert_eq!(queued, vec![0, 0, 1, 0]);
    assert_eq!(fleet.cancel_object(q, obj), 0, "nothing is left to cancel");
}

#[test]
fn three_replica_routing_wraps_around_the_fleet() {
    let (mut fleet, obj) = wrapped_k3_fleet();
    let mut flushed = Vec::new();
    assert_eq!(fleet.route(t(0), obj), Some(3), "a live primary serves");
    fleet.fail_shard(3, t(1), &mut flushed);
    assert_eq!(fleet.route(t(2), obj), Some(0), "the run wraps to shard 0");
    assert_eq!(fleet.hedge_target(obj), Some(1));
    // An open breaker on 0 sends the read one replica further.
    let mut breaker = super::protect::Breaker::new(
        BreakerPolicy {
            brownout_below: 0.5,
            trip_timeouts: u32::MAX,
            cooldown: SimDuration::from_secs(60),
        },
        4,
    );
    breaker.set_bandwidth_factor(0, 0.1);
    fleet.breaker = Some(breaker);
    assert_eq!(fleet.route(t(3), obj), Some(1));
    fleet.breaker = None;
    fleet.fail_shard(0, t(4), &mut flushed);
    assert_eq!(fleet.route(t(5), obj), Some(1));
    // With the whole run down the request parks.
    fleet.fail_shard(1, t(6), &mut flushed);
    fleet.submit(t(7), 0, QueryId::new(0, 0), &[obj]);
    assert_eq!(fleet.parked_total(), 1);
    assert!(flushed.is_empty());
    let (stats, _) = fleet.fault_summary(t(8));
    let receipts: Vec<u64> = stats.iter().map(|s| s.failover_receipts).collect();
    assert_eq!(receipts, vec![1, 2, 0, 0]);
}

fn empty_devices(n: usize) -> Vec<CsdDevice<()>> {
    (0..n)
        .map(|_| {
            CsdDevice::new(
                CsdConfig::default(),
                ObjectStore::new(),
                SchedPolicy::FcfsObject.build(),
                IntraGroupOrder::SemanticRoundRobin,
            )
        })
        .collect()
}

#[test]
#[should_panic(expected = "consecutive runs of one length")]
fn with_replicas_rejects_ragged_lists() {
    let (a, b) = (ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1));
    let lists = [(a, vec![0, 1]), (b, vec![2])];
    DeviceFleet::with_replicas(empty_devices(3), lists.into_iter().collect());
}

#[test]
#[should_panic(expected = "consecutive runs of one length")]
fn with_replicas_rejects_non_consecutive_lists() {
    let obj = ObjectId::new(0, 0, 0);
    DeviceFleet::with_replicas(empty_devices(3), [(obj, vec![0, 2])].into_iter().collect());
}

#[test]
fn sharded_scenario_reports_per_shard_breakdowns() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![skipper(&ds, &q, 1); 3])
        .shards(2)
        .placement(PlacementPolicy::RoundRobin)
        .run();
    assert_eq!(res.shards.len(), 2);
    // The roll-ups equal the per-shard sums, and per-query breakdowns
    // stay exact on a fleet.
    assert_eq!(oracle::check_run(&res), Vec::<String>::new());
    // Every shard actually served something under round-robin.
    for s in &res.shards {
        assert!(s.metrics.objects_served > 0, "shard {} idle", s.shard);
        assert_eq!(s.deliveries.len() as u64, s.metrics.objects_served);
    }
    // device_spans mirrors shard 0.
    assert_eq!(res.device_spans().to_vec(), res.shards[0].spans);
}

#[test]
fn staggered_workload_offsets_shift_first_submissions() {
    let ds = std::sync::Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let mk = |offset_secs: u64| {
        Workload::new(std::sync::Arc::clone(&ds))
            .repeat_query(q.clone(), 1)
            .engine(SkipperFactory::default().cache_bytes(gib(10)))
            .start_at(SimDuration::from_secs(offset_secs))
    };
    let res = Scenario::from_workloads(vec![mk(0), mk(500), mk(1000)]).run();
    for (c, recs) in res.clients.iter().enumerate() {
        assert_eq!(recs[0].start.as_micros(), c as u64 * 500_000_000);
    }
}

// ---------------------------------------------------------------------
// Open-arrival latency: queue-wait in response time, the internet-scale
// traffic shapes, and the streaming tail-latency summary.

/// The headline regression: a Poisson release landing while the tenant
/// is busy must surface its queueing delay — response time (release →
/// end) strictly exceeds execution time (start → end). Before the fix,
/// `start` was the only timestamp and queue-wait silently vanished
/// from every latency number.
#[test]
fn queued_release_makes_response_time_exceed_duration() {
    let ds = mini_dataset();
    let q = tpch::q12(&ds);
    // Mean gap far below the query duration ⇒ releases pile up.
    let res = Scenario::from_workloads(vec![Workload::new(ds)
        .repeat_query(q, 4)
        .engine(SkipperFactory::default().cache_bytes(gib(10)))
        .arrival(ArrivalProcess::Poisson {
            mean: SimDuration::from_secs(1),
            seed: 3,
        })])
    .run();
    let recs = &res.clients[0];
    assert!(recs.iter().all(|r| r.release.is_some()));
    // Identity: response = queue-wait + execution, record by record.
    for r in recs {
        assert_eq!(r.response_time(), r.queue_wait() + r.duration());
    }
    // At least the later arrivals queued behind the first query.
    let queued: Vec<_> = recs
        .iter()
        .filter(|r| r.queue_wait() > SimDuration::ZERO)
        .collect();
    assert!(!queued.is_empty(), "no query ever queued at 1s mean gaps");
    for r in &queued {
        assert!(
            r.response_time() > r.duration(),
            "queue-wait missing from response time (seq {})",
            r.seq
        );
    }
    // The summary is fed response times, not execution times: its mean
    // must match the records exactly.
    let expect_mean = recs
        .iter()
        .map(|r| r.response_time().as_secs_f64())
        .sum::<f64>()
        / recs.len() as f64;
    assert!((res.latency.fleet.mean_secs - expect_mean).abs() < 1e-12);
}

/// Every arrival shape must produce byte-equal `RunResult`s across
/// repeated runs — the determinism battery extended over the traffic
/// vocabulary (the latency summary is part of the equality).
#[test]
fn arrival_shapes_are_repeat_deterministic() {
    let shapes: Vec<(&str, ArrivalProcess)> = vec![
        (
            "poisson",
            ArrivalProcess::Poisson {
                mean: SimDuration::from_secs(30),
                seed: 9,
            },
        ),
        (
            "onoff",
            ArrivalProcess::OnOff {
                on_mean: SimDuration::from_secs(5),
                on_duration: SimDuration::from_secs(60),
                off_duration: SimDuration::from_secs(600),
                seed: 9,
            },
        ),
    ];
    let ds = std::sync::Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    for (label, arrival) in shapes {
        let build = |arrival: ArrivalProcess| {
            Scenario::from_workloads(vec![
                Workload::new(std::sync::Arc::clone(&ds))
                    .repeat_query(q.clone(), 4)
                    .engine(SkipperFactory::default().cache_bytes(gib(10)))
                    .arrival(arrival),
                Workload::new(std::sync::Arc::clone(&ds))
                    .repeat_query(q.clone(), 2)
                    .engine(VanillaFactory),
            ])
            .slo_target(SimDuration::from_secs(600))
            .shards(2)
            .placement(PlacementPolicy::RoundRobin)
            .streams(2)
        };
        let reference = build(arrival.clone()).run();
        let repeat = build(arrival).run();
        assert_eq!(repeat, reference, "{label} arrivals diverged on repeat");
    }
}

/// The seeded streams that feed every open-loop and chaos run, pinned
/// to recorded microseconds: a refactor of `release_times` or
/// `FaultPlan::expand` that shifts a draw fails here, not as moved
/// latencies downstream.
#[test]
fn seeded_streams_match_recorded_values() {
    let releases = |arrival: ArrivalProcess, tenant: usize| -> Vec<u64> {
        arrival
            .release_times(8, tenant, SimDuration::ZERO)
            .into_iter()
            .map(|t| t.expect("open arrivals release every query").as_micros())
            .collect()
    };
    let poisson = ArrivalProcess::Poisson {
        mean: SimDuration::from_secs(100),
        seed: 7,
    };
    let onoff = ArrivalProcess::OnOff {
        on_mean: SimDuration::from_secs(10),
        on_duration: SimDuration::from_secs(120),
        off_duration: SimDuration::from_secs(1200),
        seed: 11,
    };
    assert_eq!(
        releases(poisson.clone(), 0),
        [
            59_845_719,
            151_525_614,
            174_215_951,
            239_511_179,
            239_954_808,
            291_231_113,
            593_423_035,
            761_795_844
        ]
    );
    assert_eq!(
        releases(poisson, 1),
        [
            23_963_752,
            78_538_792,
            80_670_327,
            219_111_552,
            541_958_747,
            673_305_939,
            728_083_261,
            822_786_990
        ]
    );
    assert_eq!(
        releases(onoff.clone(), 0),
        [
            106_362_334,
            129_154_099,
            130_237_606,
            131_610_458,
            159_646_291,
            172_307_346,
            181_126_011,
            222_454_134
        ]
    );
    assert_eq!(
        releases(onoff, 1),
        [
            13_900_089, 17_345_761, 23_388_497, 28_581_245, 33_925_099, 35_231_390, 44_078_974,
            47_709_877
        ]
    );

    let crashes: Vec<(u64, u64)> = FaultPlan::new()
        .seeded_crashes(
            1,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            t(1000),
            7,
        )
        .expand(2)
        .into_iter()
        .map(|e| match e {
            FaultEpisode::ShardDown {
                shard: 1,
                at,
                until,
            } => (at.as_micros(), until.as_micros()),
            other => panic!("crash stream produced {other:?}"),
        })
        .collect();
    assert_eq!(
        crashes,
        [
            (37_945_779, 58_910_099),
            (131_694_106, 150_527_302),
            (155_141_019, 165_191_979),
            (320_358_350, 343_254_495),
            (450_704_327, 454_585_084),
            (458_665_959, 468_554_992),
            (688_668_097, 702_846_095),
            (774_444_019, 788_230_249),
            (807_397_293, 815_701_343),
            (864_154_462, 898_081_193),
            (904_036_985, 924_028_920),
            (994_635_681, 999_329_584)
        ]
    );
}

/// `RecordMode::Counters` drops every per-query record yet reports the
/// identical streaming latency summary — tail latency stays observable
/// with bounded memory.
#[test]
fn counters_record_mode_keeps_the_latency_summary() {
    let ds = std::sync::Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let build = || {
        Scenario::from_workloads(vec![Workload::new(std::sync::Arc::clone(&ds))
            .repeat_query(q.clone(), 6)
            .engine(SkipperFactory::default().cache_bytes(gib(10)))
            .arrival(ArrivalProcess::OnOff {
                on_mean: SimDuration::from_secs(2),
                on_duration: SimDuration::from_secs(120),
                off_duration: SimDuration::from_secs(300),
                seed: 5,
            })])
        .slo_target(SimDuration::from_secs(400))
    };
    let full = build().run();
    let lean = build().record_mode(RecordMode::Counters).run();
    assert!(lean.clients.iter().all(|c| c.is_empty()), "records kept");
    assert!(!full.clients[0].is_empty());
    assert_eq!(lean.latency, full.latency);
    assert_eq!(lean.makespan, full.makespan);
    assert_eq!(lean.device, full.device);
    assert!(lean.latency.fleet.response.is_some());
    assert_eq!(lean.latency.fleet.count, 6);
}

/// The summary's percentiles against exact sorted quantiles of the same
/// Full-mode run: below the sketch's compression threshold the answers
/// are exact; the rank-error bound at scale is pinned in
/// `skipper_sim::stats` and re-checked on the bench's open drive.
#[test]
fn latency_summary_quantiles_match_exact_records() {
    let ds = mini_dataset();
    let q = tpch::q12(&ds);
    let res = Scenario::from_workloads(vec![Workload::new(ds)
        .repeat_query(q, 12)
        .engine(SkipperFactory::default().cache_bytes(gib(10)))
        .arrival(ArrivalProcess::Poisson {
            mean: SimDuration::from_secs(20),
            seed: 17,
        })])
    .run();
    let mut exact: Vec<f64> = res.clients[0]
        .iter()
        .map(|r| r.response_time().as_secs_f64())
        .collect();
    exact.sort_by(f64::total_cmp);
    let n = exact.len();
    let resp = res.latency.fleet.response.unwrap();
    for (phi, got) in [
        (0.50, resp.p50),
        (0.95, resp.p95),
        (0.99, resp.p99),
        (0.999, resp.p999),
    ] {
        let rank = ((phi * n as f64).ceil() as usize).clamp(1, n);
        assert_eq!(
            got,
            exact[rank - 1],
            "p{} diverged from the exact order statistic",
            phi * 100.0
        );
    }
    assert_eq!(res.latency.fleet.max_secs, *exact.last().unwrap());
}

// ---------------------------------------------------------------------
// Fault plane: seeded failures, k-replica failover, degraded serving.
// The chaos battery pins (1) delivery-multiset conservation through
// every failover path, (2) byte-equal determinism across repeated
// runs, (3) the empty plan leaving runs untouched.

/// The chaos cell: 3 staggered Skipper tenants over 4 shards, with a
/// configurable placement and fault plan.
fn chaos_scenario(placement: PlacementPolicy, plan: FaultPlan) -> Scenario {
    protected_chaos(placement, plan, |w| w)
}

/// [`chaos_scenario`] with `knobs` applied to every tenant (the
/// protection plane's per-workload deadline / retry / hedge settings).
fn protected_chaos(
    placement: PlacementPolicy,
    plan: FaultPlan,
    knobs: impl Fn(Workload) -> Workload,
) -> Scenario {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let tenants = (0..3)
        .map(|i| knobs(skipper(&ds, &q, 2).start_at(SimDuration::from_secs(30) * i)))
        .collect();
    Scenario::from_workloads(tenants)
        .shards(4)
        .placement(placement)
        .faults(plan)
}

fn replicated_rr(k: usize) -> PlacementPolicy {
    PlacementPolicy::Replicated {
        k,
        base: BasePlacement::RoundRobin,
    }
}

#[test]
fn empty_fault_plan_leaves_runs_byte_identical() {
    let base = chaos_scenario(PlacementPolicy::RoundRobin, FaultPlan::new()).run();
    let mut explicit = chaos_scenario(PlacementPolicy::RoundRobin, FaultPlan::new());
    explicit = explicit.faults(FaultPlan::new());
    assert_eq!(explicit.run(), base);
    assert_eq!(
        base.availability,
        AvailabilitySummary::from_shards(&[ShardFaultStats::default(); 4], 0, 0, base.makespan,)
    );
    assert_eq!(base.availability.availability, 1.0);
}

#[test]
fn replicated_placement_without_faults_serves_from_primaries() {
    // Fault-free, the first (preferred) replica serves everything: no
    // failovers, no parking, and the delivery multiset matches the
    // same scenario at k = 1 over the same base policy (the replica
    // copies only change which shards *store* objects, never which
    // serve them).
    let k1 = chaos_scenario(replicated_rr(1), FaultPlan::new()).run();
    let k2 = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    assert_eq!(k2.availability.failovers, 0);
    assert_eq!(k2.availability.parked_requests, 0);
    assert_eq!(k1.delivery_multiset(), k2.delivery_multiset());
}

#[test]
fn mid_run_crash_fails_over_with_multiset_conserved() {
    // Shard 2 dies mid-run and recovers late; with k = 2 every object
    // on shard 2 has a live replica, so every query completes via
    // failover and the delivery multiset equals the fault-free run's.
    let plan = FaultPlan::new().shard_down(2, t(20), t(500));
    let clean = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    let faulted = chaos_scenario(replicated_rr(2), plan).run();
    assert_eq!(faulted.delivery_multiset(), clean.delivery_multiset());
    for (c, recs) in faulted.clients.iter().enumerate() {
        assert_eq!(recs.len(), 2, "client {c} lost queries to the crash");
    }
    assert_eq!(faulted.shards[2].fault.downs, 1);
    assert!(
        faulted.availability.failovers > 0,
        "no request ever failed over"
    );
    assert!(faulted.availability.downtime_micros > 0);
    assert!(faulted.availability.availability < 1.0);
    assert_eq!(faulted.availability.fault_events, 2);
}

#[test]
fn chaos_grid_is_repeat_deterministic() {
    // The determinism battery's fault cells: explicit crash + seeded
    // crash stream + brown-out + dropped wake-up, all in one plan, run
    // twice. Whole RunResults compare with `==` — availability summary
    // and per-shard fault counters included.
    let plan = || {
        FaultPlan::new()
            .shard_down(2, t(20), t(300))
            .degraded(0, t(40), t(200), 0.5)
            .drop_wakeup_after(1, 2, SimDuration::from_secs(1))
            .seeded_crashes(
                3,
                SimDuration::from_secs(120),
                SimDuration::from_secs(30),
                t(600),
                11,
            )
    };
    let reference = chaos_scenario(replicated_rr(2), plan()).run();
    let repeat = chaos_scenario(replicated_rr(2), plan()).run();
    assert_eq!(repeat, reference, "same seeded plan, different run");
    // The plan really did something.
    assert!(reference.availability.fault_events >= 4);
    // And conserved the work anyway.
    let clean = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    assert_eq!(reference.delivery_multiset(), clean.delivery_multiset());
}

#[test]
fn unreplicated_outage_parks_requests_until_recovery() {
    // k = 1 and the only shard down: nothing can serve, so requests
    // park at the fleet and re-submit at recovery — late, but exactly
    // once each.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let build =
        |plan: FaultPlan| Scenario::from_workloads(vec![vanilla(&ds, &q, 1); 2]).faults(plan);
    let clean = build(FaultPlan::new()).run();
    let faulted = build(FaultPlan::new().shard_down(0, t(15), t(60))).run();
    assert_eq!(faulted.delivery_multiset(), clean.delivery_multiset());
    assert!(
        faulted.availability.parked_requests > 0,
        "a 45 s outage on the only shard parked nothing"
    );
    assert_eq!(faulted.availability.failovers, 0, "nowhere to fail over");
    assert_eq!(
        faulted.availability.downtime_micros,
        SimDuration::from_secs(45).as_micros()
    );
    assert!(faulted.makespan >= clean.makespan);
    for recs in &faulted.clients {
        assert_eq!(recs.len(), 1);
    }
}

#[test]
fn crash_recovery_pays_the_reload_switch() {
    // The spun-up group is lost with the crash: unlike the array's very
    // first load, the first post-recovery load pays a full switch, so
    // the faulted run can never undercut the clean one's switch count.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let build =
        |plan: FaultPlan| Scenario::from_workloads(vec![vanilla(&ds, &q, 1); 2]).faults(plan);
    let clean = build(FaultPlan::new()).run();
    let faulted = build(FaultPlan::new().shard_down(0, t(15), t(60))).run();
    assert!(
        faulted.device.group_switches > clean.device.group_switches,
        "recovery reload did not pay a switch ({} vs {})",
        faulted.device.group_switches,
        clean.device.group_switches
    );
}

#[test]
fn brownout_slows_transfers_but_conserves_deliveries() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let build =
        |plan: FaultPlan| Scenario::from_workloads(vec![skipper(&ds, &q, 2); 2]).faults(plan);
    let clean = build(FaultPlan::new()).run();
    let slowed = build(FaultPlan::new().degraded(0, t(0), t(100_000), 0.25)).run();
    assert_eq!(slowed.delivery_multiset(), clean.delivery_multiset());
    assert!(
        slowed.makespan > clean.makespan,
        "quartering the bandwidth did not slow the run"
    );
    assert_eq!(slowed.availability.downtime_micros, 0, "degraded ≠ down");
    assert_eq!(slowed.availability.availability, 1.0);
}

#[test]
fn dropped_wakeup_is_redelivered_by_the_watchdog() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let build =
        |plan: FaultPlan| Scenario::from_workloads(vec![skipper(&ds, &q, 1); 2]).faults(plan);
    let clean = build(FaultPlan::new()).run();
    // Wake-up #5 carries client 0's last object (5 objects per Q12
    // client, one transfer stream): parking it makes the watchdog
    // delay visible in the query's end time instead of being absorbed
    // by pipeline slack.
    let dropped = build(FaultPlan::new().drop_wakeup_after(0, 5, SimDuration::from_secs(1))).run();
    // The lost notification delays its batch by the watchdog interval
    // but loses nothing.
    assert_eq!(dropped.delivery_multiset(), clean.delivery_multiset());
    assert!(
        dropped.clients[0][0].end >= clean.clients[0][0].end + SimDuration::from_secs(1),
        "redelivered batch arrived on time ({:?} vs {:?})",
        dropped.clients[0][0].end,
        clean.clients[0][0].end
    );
    for recs in &dropped.clients {
        assert_eq!(recs.len(), 1);
    }
}

/// SLO attainment flows through the scenario facade: the one target
/// applies to every tenant, and the fleet scope states it.
#[test]
fn scenario_slo_target_feeds_attainment_counters() {
    let ds = std::sync::Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let run = |target: SimDuration| {
        Scenario::from_workloads(vec![skipper(&ds, &q, 2), vanilla(&ds, &q, 2)])
            .slo_target(target)
            .run()
    };
    let generous = run(SimDuration::from_secs(100_000));
    for tenant in &generous.latency.tenants {
        let slo = tenant.slo.unwrap();
        assert_eq!((slo.met, slo.total), (2, 2));
        assert_eq!(slo.attainment(), 1.0);
    }
    let fleet = generous.latency.fleet.slo.unwrap();
    assert_eq!((fleet.met, fleet.total), (4, 4));
    assert_eq!(fleet.target_secs, 100_000.0);
    // An unmeetable 1 µs target: every scope counts, none met.
    let strict = run(SimDuration::from_micros(1));
    let t1 = strict.latency.tenants[1].slo.unwrap();
    assert_eq!((t1.met, t1.total), (0, 2));
    let fleet = strict.latency.fleet.slo.unwrap();
    assert_eq!((fleet.met, fleet.total), (0, 4));
    assert_eq!(fleet.target_secs, 1e-6);
    // Without a target no scope reports attainment.
    let none = Scenario::from_workloads(vec![skipper(&ds, &q, 1)]).run();
    assert!(none.latency.fleet.slo.is_none());
    assert!(none.latency.tenants[0].slo.is_none());
}

// ---------------------------------------------------------------------
// Protection plane: deadlines, seeded retry/backoff, hedged requests,
// admission control. The battery pins (1) the disabled configuration
// reproducing the unprotected machine byte-exactly, (2) each mechanism's
// behavior and accounting, (3) conservation under hedging (at-most-once
// *consumption*), and (4) bit-identity across repeats for every
// protection feature.

fn backoff(base_s: u64, cap_s: u64, max_attempts: u32) -> RetryPolicy {
    RetryPolicy::Backoff {
        base: SimDuration::from_secs(base_s),
        cap: SimDuration::from_secs(cap_s),
        max_attempts,
    }
}

#[test]
fn disabled_protection_plane_is_byte_identical() {
    // No knobs set: the protection plumbing (always installed) must not
    // perturb a single byte — and the seed is inert without retries.
    let base = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    let reseeded = chaos_scenario(replicated_rr(2), FaultPlan::new())
        .seed(7)
        .run();
    assert_eq!(reseeded, base);
    let explicit = protected_chaos(replicated_rr(2), FaultPlan::new(), |w| {
        w.retry(RetryPolicy::None)
    })
    .run();
    assert_eq!(explicit, base);
    assert!(base.protection.is_quiet());
    // The per-tenant ledger populates on every run (behavior-neutral).
    for t in &base.protection.per_tenant {
        assert_eq!((t.offered, t.completed), (2, 2));
        assert_eq!((t.deadline_misses, t.shed), (0, 0));
    }
    assert!(base.consumed.is_empty(), "consumption log without hedging");
}

#[test]
fn generous_deadline_leaves_the_run_byte_identical() {
    // Deadlines nobody misses schedule cancel events that all pop
    // stale: the run — makespan included — must not move.
    let base = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    let protected = protected_chaos(replicated_rr(2), FaultPlan::new(), |w| {
        w.deadline(SimDuration::from_secs(10_000))
    })
    .run();
    assert_eq!(protected, base);
}

#[test]
fn tight_deadline_cancels_and_counts_misses() {
    // A 5 s deadline is unmeetable for ~53 s queries: every query is
    // cancelled (in flight or unstarted), nothing completes, and the
    // run still drains instead of deadlocking.
    let res = protected_chaos(replicated_rr(2), FaultPlan::new(), |w| {
        w.deadline(SimDuration::from_secs(5))
    })
    .run();
    assert_eq!(res.protection.deadline_misses, 6, "2 queries × 3 tenants");
    assert_eq!(res.latency.fleet.count, 0);
    for t in &res.protection.per_tenant {
        assert_eq!((t.offered, t.completed, t.deadline_misses), (2, 0, 2));
    }
    assert!(
        res.device.requests_cancelled > 0,
        "cancels never reached the device queues"
    );
    // Much shorter than the ~181 s unprotected run: cancelled queries
    // release the fleet.
    let base = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    assert!(res.makespan < base.makespan);
}

#[test]
fn deadline_retry_replays_missed_queries_to_completion() {
    // 65 s sits between the solo and the contended response time: early
    // queries miss under contention, their retries re-run after the
    // fleet drains and beat the deadline. Everything completes.
    let res = protected_chaos(replicated_rr(2), FaultPlan::new(), |w| {
        w.deadline(SimDuration::from_secs(65))
            .retry(backoff(20, 60, 10))
    })
    .run();
    assert!(res.protection.deadline_misses > 0, "nothing ever missed");
    assert!(res.protection.retries > 0);
    assert_eq!(res.protection.retry_exhausted, 0, "a retry budget ran dry");
    for (c, t) in res.protection.per_tenant.iter().enumerate() {
        assert_eq!(
            (t.offered, t.completed),
            (2, 2),
            "tenant {c} lost queries despite retries"
        );
    }
    // Completed-query latencies all beat the deadline (misses are
    // cancelled before they can report).
    assert!(res.latency.fleet.max_secs <= 65.0);
}

#[test]
fn retry_replaces_parking_during_outage() {
    // k = 1 and the only shard down: without retry the requests park at
    // the fleet; with backoff they re-submit on their own schedule and
    // complete after recovery — same deliveries, no parking.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let build =
        |plan: FaultPlan| Scenario::from_workloads(vec![vanilla(&ds, &q, 1); 2]).faults(plan);
    let clean = build(FaultPlan::new()).run();
    let outage = || FaultPlan::new().shard_down(0, t(15), t(60));
    let parked = build(outage()).run();
    let retried = Scenario::from_workloads(vec![vanilla(&ds, &q, 1).retry(backoff(5, 20, 50)); 2])
        .faults(outage())
        .run();
    assert_eq!(retried.delivery_multiset(), clean.delivery_multiset());
    assert_eq!(
        retried.availability.parked_requests, 0,
        "retry tenants must bypass the parking lot"
    );
    assert!(retried.protection.retries > 0);
    assert!(parked.availability.parked_requests > 0);
    for recs in &retried.clients {
        assert_eq!(recs.len(), 1);
    }
}

#[test]
fn hedged_requests_cut_brownout_tails_and_conserve_consumption() {
    // Shard 0 crawls at 5% bandwidth; its queries would dominate the
    // tail. Hedging re-issues its reads to the healthy replica after
    // 5 s — first copy wins, the loser is cancelled or discarded, and
    // every (client, query, object) is consumed exactly once.
    let slow = || FaultPlan::new().degraded(0, t(0), t(2_000), 0.05);
    let clean = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    let unhedged = chaos_scenario(replicated_rr(2), slow()).run();
    let hedged = protected_chaos(replicated_rr(2), slow(), |w| {
        w.hedge_after(SimDuration::from_secs(5))
    })
    .run();
    assert!(hedged.protection.hedges_fired > 0, "no hedge ever fired");
    assert!(
        hedged.latency.fleet.max_secs < unhedged.latency.fleet.max_secs,
        "hedging did not beat the degraded shard ({} s vs {} s)",
        hedged.latency.fleet.max_secs,
        unhedged.latency.fleet.max_secs
    );
    // At-most-once consumption: the consumed multiset equals the clean
    // run's delivery multiset — duplicates were discarded, not eaten.
    assert_eq!(oracle::check_run(&hedged), Vec::<String>::new());
    assert_eq!(
        oracle::check_same_work(&hedged, &clean),
        Vec::<String>::new()
    );
    // Every hedged object consumes exactly one copy; the other copy is
    // the loser — cancelled in-queue, discarded at delivery, or (for
    // the last objects of a query) dropped as stale when it lands
    // after the query already finished. (Wins overlap with these: a
    // win just says *which* copy was consumed.)
    let losers =
        hedged.protection.hedge_losers_cancelled + hedged.protection.hedge_losers_discarded;
    assert!(
        losers > 0 && losers <= hedged.protection.hedges_fired,
        "loser accounting out of range: {losers} of {} duplicates",
        hedged.protection.hedges_fired
    );
    assert!(hedged.protection.hedge_wins > 0, "no duplicate ever won");
    assert!(hedged.protection.hedge_wins <= hedged.protection.hedges_fired);
    for t in &hedged.protection.per_tenant {
        assert_eq!((t.offered, t.completed), (2, 2));
    }
}

#[test]
fn hedged_tenant_may_re_request_a_consumed_object() {
    // Skipper tenants whose MJoin cache is too small for Q5 reissue
    // objects they already consumed in the same query. A reissue is new
    // work, not a hedge loser: with a hedge delay no request reaches,
    // the hedged run must finish and equal the unhedged one.
    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(2016, 16).with_phys_divisor(400_000),
    ));
    let q5 = tpch::q5(&ds);
    let fleet = |hedge: Option<SimDuration>| {
        let tenants = (0..3)
            .map(|_| {
                let w = Workload::new(Arc::clone(&ds))
                    .repeat_query(q5.clone(), 1)
                    .engine(SkipperFactory::default().cache_bytes(gib(8)));
                match hedge {
                    Some(delay) => w.hedge_after(delay),
                    None => w,
                }
            })
            .collect();
        Scenario::from_workloads(tenants)
            .shards(2)
            .placement(replicated_rr(2))
            .run()
    };
    let unhedged = fleet(None);
    let working_sets: u64 = unhedged.records().map(|r| r.upfront_gets).sum();
    assert!(unhedged.total_gets() > working_sets, "no object reissued");
    let hedged = fleet(Some(SimDuration::from_secs(10_000_000)));
    assert_eq!(hedged.protection.hedges_fired, 0);
    assert_eq!(hedged.makespan, unhedged.makespan);
    assert!(hedged.records().eq(unhedged.records()), "records differ");
    assert_eq!(hedged.delivery_multiset(), unhedged.delivery_multiset());
    assert_eq!(
        oracle::check_same_work(&hedged, &unhedged),
        Vec::<String>::new()
    );
}

#[test]
#[should_panic(expected = "hedge_after needs a replicated placement")]
fn hedging_a_single_replica_placement_is_rejected_loudly() {
    // With one replica there is no other shard to hedge to: the knob
    // would be silently inert, so assembly refuses it.
    protected_chaos(replicated_rr(1), FaultPlan::new(), |w| {
        w.hedge_after(SimDuration::from_secs(5))
    })
    .run();
}

/// The oracle passes a clean, a cached and a hedged run, and a
/// `RunResult` broken on purpose trips exactly the check it breaks.
#[test]
fn oracle_reports_exactly_the_broken_invariant() {
    let clean = || chaos_scenario(PlacementPolicy::RoundRobin, FaultPlan::new()).run();
    let cached = || {
        chaos_scenario(PlacementPolicy::RoundRobin, FaultPlan::new())
            .shard_cache(CacheConfig::dram_only(gib(2)))
            .run()
    };
    let hedged = || {
        let slow = FaultPlan::new().degraded(0, t(0), t(2_000), 0.05);
        protected_chaos(replicated_rr(2), slow, |w| {
            w.hedge_after(SimDuration::from_secs(5))
        })
        .run()
    };
    let reference = clean();
    let sound = [clean(), cached(), hedged()];
    assert!(sound[1].cache.hits() > 0 && sound[2].protection.hedges_fired > 0);
    // A hedged run is judged on what it consumed, not on what the
    // losing replica also delivered.
    assert_ne!(sound[2].delivery_multiset(), reference.delivery_multiset());
    for run in &sound {
        assert_eq!(oracle::check_run(run), Vec::<String>::new());
        assert_eq!(
            oracle::check_same_work(run, &reference),
            Vec::<String>::new()
        );
    }
    type Break = (fn() -> RunResult, fn(&mut RunResult), &'static str);
    let breaks: [Break; 10] = [
        (
            clean,
            |r| r.shards[1].metrics.objects_served += 1,
            "device counters",
        ),
        (
            cached,
            |r| r.shards[0].cache.evictions += 1,
            "cache counters",
        ),
        (
            clean,
            |r| {
                r.device.requests_submitted += 1;
                r.shards[0].metrics.requests_submitted += 1;
            },
            "device requests but",
        ),
        (
            cached,
            |r| {
                r.cache.misses += 1;
                r.shards[0].cache.misses += 1;
            },
            "cache misses",
        ),
        (
            cached,
            |r| {
                r.device.objects_served -= 1;
                r.device.requests_cancelled += 1;
                r.shards[0].metrics.objects_served -= 1;
                r.shards[0].metrics.requests_cancelled += 1;
                r.shards[0].deliveries.pop();
            },
            "protection plane quiet",
        ),
        (
            clean,
            |r| {
                let ledger = &mut r.shards[0].deliveries;
                ledger.push(ledger[0]);
            },
            "delivery ledger",
        ),
        (
            clean,
            |r| r.clients[2][1].end += SimDuration::from_micros(1),
            "client 2 query 1",
        ),
        (hedged, |r| r.consumed.push(r.consumed[3]), "twice"),
        (
            clean,
            |r| {
                r.shards[1].deliveries.pop();
            },
            "delivered multiset",
        ),
        (
            hedged,
            |r| r.consumed.push(r.consumed[0]),
            "consumed multiset",
        ),
    ];
    for (run, break_it, what) in breaks {
        let mut broken = run();
        break_it(&mut broken);
        // The last two break the work, not the run's own ledgers.
        let found = if what.ends_with("multiset") {
            oracle::check_same_work(&broken, &reference)
        } else {
            oracle::check_run(&broken)
        };
        assert!(
            found.len() == 1 && found[0].contains(what),
            "{what}: {found:?}"
        );
    }
}

#[test]
fn admission_sheds_lowest_priority_under_saturation() {
    // One shard, four tenants submitting together: tenant 0 (priority
    // 5) fills the queue, tenants 1–2 (priority 0) are over the ceiling
    // and shed everything, tenant 3 (priority 9) rides its 10× headroom.
    let ds = mini_dataset();
    let q = tpch::q12(&ds);
    let mk = |priority: u32| {
        Workload::new(Arc::new(ds.clone()))
            .repeat_query(q.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(gib(10)))
            .priority(priority)
    };
    let res = Scenario::from_workloads(vec![mk(5), mk(0), mk(0), mk(3)])
        .admission(AdmissionPolicy {
            max_queue_depth: 3,
            max_queued_bytes: u64::MAX,
            response: AdmissionResponse::Shed,
            breaker: None,
        })
        .run();
    assert_eq!(res.protection.sheds, 4, "tenants 1 and 2 shed everything");
    for c in [1, 2] {
        let t = &res.protection.per_tenant[c];
        assert_eq!((t.offered, t.completed, t.shed), (2, 0, 2));
    }
    for c in [0, 3] {
        let t = &res.protection.per_tenant[c];
        assert_eq!((t.offered, t.completed, t.shed), (2, 2, 0));
    }
    assert_eq!(res.latency.fleet.count, 4);
}

#[test]
fn backpressure_defers_but_completes_everything() {
    // Same saturation, Backpressure response: over-ceiling arrivals are
    // pushed back in 20 s steps instead of dropped — goodput is
    // preserved at the price of latency.
    let ds = mini_dataset();
    let q = tpch::q12(&ds);
    let mk = || {
        Workload::new(Arc::new(ds.clone()))
            .repeat_query(q.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(gib(10)))
    };
    let res = Scenario::from_workloads(vec![mk(), mk(), mk(), mk()])
        .admission(AdmissionPolicy {
            max_queue_depth: 3,
            max_queued_bytes: u64::MAX,
            response: AdmissionResponse::Backpressure(SimDuration::from_secs(20)),
            breaker: None,
        })
        .run();
    assert!(res.protection.backpressure_deferrals > 0);
    assert_eq!(res.protection.sheds, 0);
    for t in &res.protection.per_tenant {
        assert_eq!((t.offered, t.completed), (2, 2));
    }
    assert_eq!(res.latency.fleet.count, 8);
}

#[test]
fn breaker_routes_reads_around_a_browned_out_shard() {
    // With the breaker armed, a brown-out below the threshold diverts
    // reads to the healthy replica for the whole episode; without it
    // the primary crawls. Both conserve deliveries.
    let slow = || FaultPlan::new().degraded(0, t(0), t(2_000), 0.1);
    let admission = AdmissionPolicy {
        max_queue_depth: usize::MAX,
        max_queued_bytes: u64::MAX,
        response: AdmissionResponse::Shed,
        breaker: Some(BreakerPolicy {
            brownout_below: 0.5,
            trip_timeouts: u32::MAX,
            cooldown: SimDuration::from_secs(60),
        }),
    };
    let clean = chaos_scenario(replicated_rr(2), FaultPlan::new()).run();
    let unprotected = chaos_scenario(replicated_rr(2), slow()).run();
    let shielded = chaos_scenario(replicated_rr(2), slow())
        .admission(admission)
        .run();
    assert!(shielded.protection.breaker_trips >= 1);
    assert_eq!(shielded.protection.sheds, 0, "ceilings were unreachable");
    // The fault window itself pins both makespans (the Restore event
    // at t = 2000 s is the last calendar entry), so the win shows in
    // the response-time tail instead.
    assert!(
        shielded.latency.fleet.max_secs < unprotected.latency.fleet.max_secs,
        "breaker failed to route around the brown-out ({} s vs {} s)",
        shielded.latency.fleet.max_secs,
        unprotected.latency.fleet.max_secs
    );
    assert_eq!(shielded.delivery_multiset(), clean.delivery_multiset());
}

#[test]
fn protection_grid_is_repeat_deterministic() {
    // The determinism battery extended over the protection plane: each
    // cell runs the full feature set it names, and whole RunResults —
    // protection counters and consumption log included — must be
    // byte-equal across repeats.
    type Cell = (&'static str, Box<dyn Fn() -> Scenario>);
    let cells: Vec<Cell> = vec![
        (
            "deadline+retry under crash",
            Box::new(|| {
                protected_chaos(
                    replicated_rr(2),
                    FaultPlan::new().shard_down(2, t(20), t(300)),
                    |w| {
                        w.deadline(SimDuration::from_secs(65))
                            .retry(backoff(20, 60, 10))
                    },
                )
            }),
        ),
        (
            "hedge under brown-out",
            Box::new(|| {
                protected_chaos(
                    replicated_rr(2),
                    FaultPlan::new().degraded(0, t(0), t(2_000), 0.05),
                    |w| w.hedge_after(SimDuration::from_secs(5)),
                )
            }),
        ),
        (
            "admission+breaker under degrade",
            Box::new(|| {
                chaos_scenario(
                    replicated_rr(2),
                    FaultPlan::new().degraded(1, t(10), t(400), 0.25),
                )
                .admission(AdmissionPolicy {
                    max_queue_depth: 6,
                    max_queued_bytes: u64::MAX,
                    response: AdmissionResponse::Backpressure(SimDuration::from_secs(15)),
                    breaker: Some(BreakerPolicy {
                        brownout_below: 0.5,
                        trip_timeouts: 3,
                        cooldown: SimDuration::from_secs(60),
                    }),
                })
            }),
        ),
        (
            "retry instead of parking",
            Box::new(|| {
                protected_chaos(
                    PlacementPolicy::RoundRobin,
                    FaultPlan::new().shard_down(1, t(10), t(120)),
                    |w| w.retry(backoff(5, 30, 50)),
                )
            }),
        ),
    ];
    for (name, build) in &cells {
        let reference = build().run();
        let repeat = build().run();
        assert_eq!(repeat, reference, "{name}: same config, different run");
    }
}

#[test]
fn hedging_over_shard_caches_conserves_consumption_through_faults() {
    // The plane combination no other cell runs: hedged tenants on a
    // replicated, two-tier-cached fleet through a brown-out and a crash.
    // Hedge copies may be cache hits, crashes invalidate a shard cache
    // and fail its queue over — and every (client, query, object) must
    // still be consumed exactly once.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let build = |hedge: Option<SimDuration>, cache: CacheConfig, plan: FaultPlan| {
        let tenants = (0..3)
            .map(|i| {
                let w = skipper(&ds, &q, 3).start_at(SimDuration::from_secs(30) * i);
                match hedge {
                    Some(h) => w.hedge_after(h),
                    None => w,
                }
            })
            .collect();
        Scenario::from_workloads(tenants)
            .shards(4)
            .placement(replicated_rr(2))
            .shard_cache(cache)
            .faults(plan)
    };
    let faults = || {
        FaultPlan::new()
            .degraded(0, t(0), t(2_000), 0.05)
            .shard_down(2, t(40), t(300))
    };
    let cached = || {
        build(
            Some(SimDuration::from_secs(5)),
            CacheConfig::two_tier(gib(1), gib(4)),
            faults(),
        )
    };
    let clean = build(None, CacheConfig::disabled(), FaultPlan::new()).run();
    let res = cached().run();
    assert_eq!(oracle::check_run(&res), Vec::<String>::new());
    assert_eq!(oracle::check_same_work(&res, &clean), Vec::<String>::new());
    assert_eq!(cached().run(), res, "same config, different run");
    assert!(res.cache.hits() > 0, "no cache hit");
    assert!(res.protection.hedges_fired > 0, "no hedge fired");
    assert!(res.availability.failovers > 0, "no failover");
    for tp in &res.protection.per_tenant {
        assert_eq!((tp.offered, tp.completed), (3, 3));
    }
}

#[test]
fn overlapping_outages_resubmit_parked_requests_in_arrival_order() {
    // Two shards fail in overlapping windows and recover one at a time.
    // Requests parked while both were down must re-submit at each
    // recovery in original arrival order — the fleet's parking lot is
    // FIFO per recovery, never a LIFO or an interleaving artifact.
    let ds = mini_dataset();
    let payload: Arc<Segment> = Arc::clone(&ds.segments[0][0]);
    let mk_dev = |objs: &[ObjectId]| {
        let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
        for &o in objs {
            store.put(o, 1 << 20, 0, Arc::clone(&payload));
        }
        CsdDevice::new(
            CsdConfig {
                switch_latency: SimDuration::from_secs(1),
                bandwidth_bytes_per_sec: (1u64 << 30) as f64,
                parallel_streams: 1,
                ..CsdConfig::default()
            },
            store,
            SchedPolicy::FcfsObject.build(),
            IntraGroupOrder::SemanticRoundRobin,
        )
    };
    // Shard 0 owns a0..a2, shard 1 owns b0..b2. Each object belongs to
    // the tenant of the client that requests it below.
    let a: Vec<ObjectId> = [0, 2, 1]
        .into_iter()
        .zip(0..3)
        .map(|(tenant, s)| ObjectId::new(tenant, 0, s))
        .collect();
    let b: Vec<ObjectId> = [1, 0, 2]
        .into_iter()
        .zip(0..3)
        .map(|(tenant, s)| ObjectId::new(tenant, 1, s))
        .collect();
    let mut map = std::collections::HashMap::new();
    for &o in &a {
        map.insert(o, 0);
    }
    for &o in &b {
        map.insert(o, 1);
    }
    let mut fleet = DeviceFleet::new(vec![mk_dev(&a), mk_dev(&b)], map);
    let mut flushed = Vec::new();
    fleet.fail_shard(0, t(1), &mut flushed);
    fleet.fail_shard(1, t(2), &mut flushed);
    assert!(flushed.is_empty());
    // Six requests from three clients while both shards are down, in a
    // deliberately shard-interleaved arrival order.
    let arrivals = [
        (0usize, a[0]),
        (1usize, b[0]),
        (2usize, a[1]),
        (0usize, b[1]),
        (1usize, a[2]),
        (2usize, b[2]),
    ];
    for (i, &(client, obj)) in arrivals.iter().enumerate() {
        fleet.submit(
            t(10 + i as u64),
            client,
            QueryId::new(client as u16, 0),
            &[obj],
        );
    }
    assert_eq!(fleet.parked_total(), 6);
    // Shard 0 recovers first: its three parked requests re-submit (in
    // arrival order), shard 1's re-park untouched.
    fleet.recover_shard(0, t(100));
    // Drain shard 0 and collect its service order.
    fn drain(fleet: &mut DeviceFleet, start: SimTime, served: &mut [Vec<(usize, ObjectId)>; 2]) {
        let mut now = start;
        let mut batch = Vec::new();
        loop {
            let mut armed = Vec::new();
            fleet.poke_all(now, |s, at| armed.push((s, at)));
            if armed.is_empty() {
                break;
            }
            for (s, at) in armed {
                fleet.on_wakeup_into(s, at, &mut batch);
                for d in batch.drain(..) {
                    served[s].push((d.client, d.object));
                }
                now = now.max(at);
            }
        }
    }
    let mut served: [Vec<(usize, ObjectId)>; 2] = [Vec::new(), Vec::new()];
    drain(&mut fleet, t(100), &mut served);
    assert_eq!(
        served[0],
        vec![(0, a[0]), (2, a[1]), (1, a[2])],
        "shard 0 recovery re-submitted out of arrival order"
    );
    assert!(served[1].is_empty(), "shard 1 served while down");
    // Shard 1 recovers later: same FIFO property for its survivors.
    fleet.recover_shard(1, t(1_000));
    drain(&mut fleet, t(1_000), &mut served);
    assert_eq!(
        served[1],
        vec![(1, b[0]), (0, b[1]), (2, b[2])],
        "shard 1 recovery re-submitted out of arrival order"
    );
    assert!(fleet.is_quiescent());
}

#[test]
fn pump_crash_displaces_slots_then_queue_then_hits_in_ready_order() {
    let ds = mini_dataset();
    let payload: Arc<Segment> = Arc::clone(&ds.segments[0][0]);
    let obj = |table: u16, seg: u32| ObjectId::new(0, table, seg);
    // Client 1 requests b0 and b1, so they are its tenant's objects.
    let (a0, a1) = (obj(0, 0), obj(0, 1));
    let (b0, b1) = (ObjectId::new(1, 1, 0), ObjectId::new(1, 1, 1));
    let (c0, c1, c2, d0) = (obj(2, 0), obj(2, 1), obj(2, 2), obj(3, 0));
    let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
    for (object, group) in [
        (a0, 0),
        (a1, 0),
        (b0, 0),
        (b1, 0),
        (c0, 0),
        (c1, 0),
        (c2, 0),
        (d0, 1),
    ] {
        store.put(object, gib(1), group, Arc::clone(&payload));
    }
    let device = CsdDevice::new(
        CsdConfig {
            switch_latency: SimDuration::from_secs(10),
            bandwidth_bytes_per_sec: gib(1) as f64,
            parallel_streams: 2,
            ..CsdConfig::default()
        },
        store,
        SchedPolicy::RankBased.build(),
        IntraGroupOrder::SemanticRoundRobin,
    );
    // The planes install through the fleet; the test drives its pump.
    let mut fleet = DeviceFleet::new(vec![device], Default::default());
    // A slow one-object DRAM tier over a fast SSD tier, so a later SSD
    // hit is ready before an earlier DRAM hit.
    fleet.install_cache(CacheConfig {
        dram: TierConfig::new(gib(1), gib(1) as f64 / 4.0),
        ssd: TierConfig::new(gib(4), gib(2) as f64),
        policy: CachePolicy::Lru,
    });
    fleet.install_faults(&FaultPlan::new().drop_wakeup_after(0, 2, SimDuration::from_secs(100)));
    let pump = &mut fleet.pumps[0];
    let (q0, q1) = (QueryId::new(0, 0), QueryId::new(1, 0));
    // Live wake-up 1 fills the tiers: a1 in DRAM, a0 demoted to SSD.
    pump.submit(t(0), 0, q0, &[a0, a1]);
    assert_eq!(pump.poke(t(0)), Some(t(1)));
    assert_eq!(wake(pump, t(1)).len(), 2);
    // Live wake-up 2 is dropped: its batch parks for the watchdog.
    pump.submit(t(1), 1, q1, &[b0, b1]);
    assert_eq!(pump.poke(t(1)), Some(t(2)));
    assert!(wake(pump, t(2)).is_empty());
    // Two transfers in flight, two requests queued, two pending hits.
    let q = QueryId::new(0, 1);
    pump.submit(t(2), 0, q, &[c0, c1, c2, d0, a1, a0]);
    assert_eq!(pump.take_redelivery_arm(), Some(t(102)));
    assert_eq!(
        pump.take_cache_arm(),
        Some(t(2) + SimDuration::from_millis(500))
    );
    assert_eq!(pump.poke(t(2)), Some(t(3)));
    let (mut displaced, mut completed) = (Vec::new(), Vec::new());
    assert_eq!(pump.fail(t(2), &mut displaced, &mut completed), 4);
    assert!(displaced.iter().all(|r| (r.client, r.query) == (0, q)));
    let displaced: Vec<_> = displaced.iter().map(|r| (r.object, r.seq)).collect();
    assert_eq!(
        displaced,
        vec![(c0, 4), (c1, 5), (c2, 6), (d0, 7), (a0, 2), (a1, 1)],
        "aborted slots, then the queue oldest first, then hits in ready order"
    );
    let completed: Vec<_> = completed
        .iter()
        .map(|d| (d.client, d.query, d.object))
        .collect();
    assert_eq!(completed, vec![(1, q1, b0), (1, q1, b1)]);
    // Down: nothing to kick, nothing armed, nothing held back, and the
    // flushed batch's watchdog fires stale.
    assert_eq!(pump.poke(t(2)), None);
    assert_eq!(pump.take_redelivery_arm(), None);
    assert_eq!(pump.take_cache_arm(), None);
    assert!(pump.is_quiescent());
    assert!(wake(pump, t(102)).is_empty());
    assert_eq!(pump.cache_stats().invalidations, 1);
    pump.recover();
    pump.submit(t(130), 0, QueryId::new(0, 2), &[c0]);
    assert_eq!(pump.poke(t(130)), Some(t(140)), "the reload pays a switch");
    assert_eq!(pump.device().metrics().group_switches, 1);
}

/// The two-tenant Q12 cell of the fault bug fixes over `plan`.
fn two_skippers(ds: &Arc<Dataset>, q: &QuerySpec, plan: FaultPlan) -> Scenario {
    Scenario::from_workloads(vec![skipper(ds, q, 1); 2]).faults(plan)
}

/// The latest query end of a run.
fn last_end(res: &RunResult) -> SimTime {
    res.records()
        .map(|r| r.end)
        .max()
        .expect("a finished query")
}

#[test]
fn short_outage_cuts_aborted_spans_at_the_crash() {
    // The 5 s outage is shorter than the transfer it aborts: the
    // aborted span must end at the crash, not at its planned end, or
    // the reload switch after recovery overlaps it.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let clean = two_skippers(&ds, &q, FaultPlan::new()).run();
    let crash = || FaultPlan::new().shard_down(0, t(20), t(25));
    let res = two_skippers(&ds, &q, crash()).run();
    assert_eq!(res.delivery_multiset(), clean.delivery_multiset());
    assert_eq!(two_skippers(&ds, &q, crash()).run(), res);
    assert_eq!(res.availability.aborted_transfers, 1);
    let shard = &res.shards[0];
    for s in shard
        .spans
        .iter()
        .chain(shard.extra_stream_spans.iter().flatten())
    {
        assert!(
            s.end <= t(20) || s.start >= t(25),
            "{s:?} crosses the outage"
        );
    }
    let lean = two_skippers(&ds, &q, crash())
        .trace_mode(TraceMode::Counters)
        .run();
    assert_eq!(lean.makespan, res.makespan);
    assert_eq!(lean.delivery_multiset(), res.delivery_multiset());
}

#[test]
fn a_drop_on_a_parked_batch_joins_it_until_the_later_deadline() {
    // Wake-up 3 is dropped while wake-up 2's batch waits out its
    // hour-long watchdog: it joins that batch, which is released at the
    // later deadline, and the makespan is the last query's end.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let hour = SimDuration::from_secs(3600);
    let clean = two_skippers(&ds, &q, FaultPlan::new()).run();
    let plan = FaultPlan::new()
        .drop_wakeup_after(0, 2, hour)
        .drop_wakeup_after(0, 3, SimDuration::from_secs(1));
    let res = two_skippers(&ds, &q, plan).run();
    assert_eq!(res.delivery_multiset(), clean.delivery_multiset());
    assert!(
        res.clients[0][0].end > SimTime::ZERO + hour,
        "the joined batch left early"
    );
    assert_eq!(res.makespan, last_end(&res));
}

#[test]
fn a_crash_flushes_a_parked_batch_and_its_watchdog_leaves_no_trace() {
    // The crash flushes the batch parked behind an hour-long watchdog;
    // the watchdog's event then fires stale and must not stretch the
    // makespan past the last query's end.
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let clean = two_skippers(&ds, &q, FaultPlan::new()).run();
    let plan = FaultPlan::new()
        .drop_wakeup_after(0, 2, SimDuration::from_secs(3600))
        .shard_down(0, t(20), t(25));
    let res = two_skippers(&ds, &q, plan).run();
    assert_eq!(res.delivery_multiset(), clean.delivery_multiset());
    assert_eq!(res.makespan, last_end(&res));
    assert!(res.makespan < t(3600));
}

// ---------------------------------------------------------------------
// Delivery by reference: the device path carries no payload, and the
// engine borrows each segment from its own tenant's dataset.

/// Requests its query's whole working set at start and retains no
/// payload. Every delivery must be the dataset's own `Arc`, with the
/// reference count read before the run: nothing on the device path —
/// store, cache hit, watchdog park, failover, hedge copy — may hold a
/// second reference.
struct IdentityEngine {
    dataset: Arc<Dataset>,
    /// `Arc::strong_count` of every `segments[table][segment]`.
    counts: Arc<Vec<Vec<usize>>>,
    requests: Vec<ObjectId>,
    received: usize,
}

impl QueryEngine for IdentityEngine {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn start(&mut self) -> Vec<ObjectId> {
        self.requests.clone()
    }

    fn on_object(&mut self, object: ObjectId, payload: &Arc<Segment>) -> Reaction {
        let (table, segment) = (object.table as usize, object.segment as usize);
        assert!(
            Arc::ptr_eq(payload, &self.dataset.segments[table][segment]),
            "{object}: payload is not the dataset's segment"
        );
        assert_eq!(
            Arc::strong_count(payload),
            self.counts[table][segment],
            "{object}: the device path holds a reference to the payload"
        );
        self.received += 1;
        Reaction {
            processing: SimDuration::from_millis(500),
            requests: Vec::new(),
            finished: self.received == self.requests.len(),
        }
    }

    fn is_finished(&self) -> bool {
        self.received == self.requests.len()
    }

    fn result(&self) -> Vec<(Row, Vec<Value>)> {
        Vec::new()
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            objects_received: self.received as u64,
            ..Default::default()
        }
    }
}

/// Builds [`IdentityEngine`]s over one shared dataset. `owner` maps the
/// building tenant to the tenant whose objects it requests (the
/// identity for every legal engine).
struct IdentityFactory {
    dataset: Arc<Dataset>,
    counts: Arc<Vec<Vec<usize>>>,
    owner: fn(u16) -> u16,
}

impl IdentityFactory {
    /// Reads every segment's reference count now — call right before
    /// `Scenario::run`, after every other clone of the dataset.
    fn new(dataset: &Arc<Dataset>, owner: fn(u16) -> u16) -> Self {
        let counts = dataset
            .segments
            .iter()
            .map(|table| table.iter().map(Arc::strong_count).collect())
            .collect();
        IdentityFactory {
            dataset: Arc::clone(dataset),
            counts: Arc::new(counts),
            owner,
        }
    }
}

impl EngineFactory for IdentityFactory {
    fn label(&self) -> &'static str {
        "identity"
    }

    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        spec: QuerySpec,
        _cost: CostModel,
    ) -> Box<dyn QueryEngine> {
        let owner = (self.owner)(tenant);
        let requests = dataset
            .query_table_indexes(&spec)
            .into_iter()
            .flat_map(|t| {
                (0..dataset.catalog.table(t).segment_count)
                    .map(move |s| ObjectId::new(owner, t as u16, s))
            })
            .collect();
        Box::new(IdentityEngine {
            dataset: Arc::clone(&self.dataset),
            counts: Arc::clone(&self.counts),
            requests,
            received: 0,
        })
    }

    fn preferred_scheduler(&self) -> SchedPolicy {
        SchedPolicy::RankBased
    }
}

/// Runs `tenants`, each on an [`IdentityFactory`] engine whose
/// reference counts are read last, on the fleet `shape` configures.
fn run_identity(
    ds: &Arc<Dataset>,
    tenants: Vec<Workload>,
    owner: fn(u16) -> u16,
    shape: impl Fn(Scenario) -> Scenario,
) -> RunResult {
    let factory: Arc<dyn EngineFactory> = Arc::new(IdentityFactory::new(ds, owner));
    let tenants = tenants
        .into_iter()
        .map(|w| w.engine_arc(Arc::clone(&factory)))
        .collect();
    shape(Scenario::from_workloads(tenants)).run()
}

/// Objects the identity engines consumed over the whole run.
fn objects_consumed(res: &RunResult) -> u64 {
    res.records().map(|r| r.stats.objects_received).sum()
}

#[test]
fn delivered_payload_is_the_datasets_arc_with_no_device_path_reference() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let working_set = ds.objects_for_query(&q) as u64;
    let tenants = |hedge: Option<SimDuration>| -> Vec<Workload> {
        (0..3)
            .map(|i| {
                let w = Workload::new(Arc::clone(&ds))
                    .repeat_query(q.clone(), 3)
                    .start_at(SimDuration::from_secs(30) * i);
                match hedge {
                    Some(h) => w.hedge_after(h),
                    None => w,
                }
            })
            .collect()
    };

    // A plain 4-shard closed loop: every delivery is a device completion.
    let plain = run_identity(&ds, tenants(None), |tenant| tenant, |s| s.shards(4));
    assert_eq!(objects_consumed(&plain), 3 * 3 * working_set);

    // The plane combination of
    // `hedging_over_shard_caches_conserves_consumption_through_faults`
    // plus a dropped wake-up: cache hits, watchdog redeliveries,
    // failover re-routes and hedge duplicates all reach the engine.
    let faults = || {
        FaultPlan::new()
            .degraded(0, t(0), t(2_000), 0.05)
            .shard_down(2, t(40), t(300))
    };
    let planes = |plan: FaultPlan| {
        move |s: Scenario| {
            s.shards(4)
                .placement(replicated_rr(2))
                .shard_cache(CacheConfig::two_tier(gib(1), gib(4)))
                .faults(plan.clone())
        }
    };
    let hedged = || tenants(Some(SimDuration::from_secs(5)));
    let dropped = faults().drop_wakeup_after(1, 2, SimDuration::from_secs(20));
    let res = run_identity(&ds, hedged(), |tenant| tenant, planes(dropped));
    let undropped = run_identity(&ds, hedged(), |tenant| tenant, planes(faults()));
    assert_eq!(objects_consumed(&res), 3 * 3 * working_set);
    assert!(res.cache.hits() > 0, "no cache hit");
    assert!(res.protection.hedges_fired > 0, "no hedge fired");
    assert!(res.availability.failovers > 0, "no failover");
    assert_ne!(res, undropped, "the dropped wake-up never fired");
    assert_eq!(oracle::check_run(&res), Vec::<String>::new());
    assert_eq!(oracle::check_same_work(&res, &plain), Vec::<String>::new());
}

#[test]
#[should_panic(expected = "cross-tenant GET: object c1/t")]
fn cross_tenant_get_is_rejected_loudly() {
    let ds = Arc::new(mini_dataset());
    let q = tpch::q12(&ds);
    let tenants = vec![Workload::new(Arc::clone(&ds)).repeat_query(q, 1); 2];
    // Tenant 0's engine requests tenant 1's objects, and vice versa.
    run_identity(&ds, tenants, |tenant| tenant ^ 1, |s| s);
}
