//! Property-style seeded sweep over the sharded device fleet.
//!
//! The fleet's contract is *work conservation*: sharding redistributes
//! requests across devices but must neither lose, duplicate, nor invent
//! any. For every scheduling policy × placement policy × shard count,
//! a sharded run of the mixed-tenant fleet must deliver exactly the
//! same multiset of `(client, query, object)` transfers as the 1-shard
//! run — and every tenant must still produce the reference query
//! result with an exact stall breakdown.

mod common;

use common::{assert_sound, dataset, fleet_scenario};
use skipper::core::runtime::oracle::check_run;
use skipper::core::runtime::{BasePlacement, FaultPlan, PlacementPolicy};
use skipper::csd::SchedPolicy;
use skipper::sim::{SimDuration, SimTime};

const PLACEMENTS: [PlacementPolicy; 2] = [PlacementPolicy::RoundRobin, PlacementPolicy::HashObject];

/// The sweep: every scheduler × placement × shard count delivers the
/// 1-shard multiset, exactly.
#[test]
fn sharded_runs_conserve_the_delivery_multiset() {
    let ds = dataset();
    for sched in SchedPolicy::all() {
        for placement in PLACEMENTS {
            let baseline = fleet_scenario(&ds, sched)
                .shards(1)
                .placement(placement)
                .run();
            let label = format!("{sched:?}/{placement:?}/1");
            assert_eq!(check_run(&baseline), Vec::<String>::new(), "{label}");
            assert!(!baseline.delivery_multiset().is_empty());
            for shards in [2, 4] {
                let label = format!("{sched:?}/{placement:?}/{shards}");
                let res = fleet_scenario(&ds, sched)
                    .shards(shards)
                    .placement(placement)
                    .run();
                assert_sound(&res, &baseline, &label);
                assert_eq!(res.shards.len(), shards, "{label}");
            }
        }
    }
}

/// The chaos grid: conservation must survive the fault plane. For
/// every scheduler × replicated placement, a 4-shard run that loses
/// one shard mid-run (and brown-outs another) must still deliver the
/// fault-free run's exact multiset — failover re-serves displaced
/// work from replicas without losing, duplicating, or inventing any.
#[test]
fn faulted_runs_conserve_the_delivery_multiset() {
    let ds = dataset();
    let secs = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
    let plan = || {
        FaultPlan::new()
            .shard_down(1, secs(60), secs(900))
            .degraded(3, secs(30), secs(400), 0.5)
    };
    for sched in SchedPolicy::all() {
        for base in [BasePlacement::RoundRobin, BasePlacement::HashObject] {
            let placement = PlacementPolicy::Replicated { k: 2, base };
            let label = format!("{sched:?}/{base:?}/chaos");
            let clean = fleet_scenario(&ds, sched)
                .shards(4)
                .placement(placement)
                .run();
            let faulted = fleet_scenario(&ds, sched)
                .shards(4)
                .placement(placement)
                .faults(plan())
                .run();
            assert_sound(&faulted, &clean, &label);
            assert_eq!(faulted.shards[1].fault.downs, 1, "{label}");
            assert!(
                faulted.availability.availability < 1.0,
                "{label}: downtime not accounted"
            );
        }
    }
}

/// Sharding never changes query *answers*: every tenant's result on a
/// 4-shard hash-placed fleet matches the 1-shard run row for row.
#[test]
fn sharded_results_match_single_device_results() {
    let ds = dataset();
    let single = fleet_scenario(&ds, SchedPolicy::RankBased).run();
    let sharded = fleet_scenario(&ds, SchedPolicy::RankBased)
        .shards(4)
        .placement(PlacementPolicy::HashObject)
        .run();
    assert_eq!(single.clients.len(), sharded.clients.len());
    for (a, b) in single.records().zip(sharded.records()) {
        assert_eq!(a.client, b.client);
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.result, b.result, "client {} seq {}", a.client, a.seq);
    }
}

/// More shards never serve fewer devices than objects allow: each shard
/// with placed objects gets its own scheduler and serves only its own
/// objects (tenant isolation of the ledger).
#[test]
fn shard_ledgers_partition_the_object_space() {
    let ds = dataset();
    let res = fleet_scenario(&ds, SchedPolicy::RankBased)
        .shards(4)
        .placement(PlacementPolicy::RoundRobin)
        .run();
    // An object may repeat within a shard (reissues/repeat queries) but
    // must never appear on two different shards.
    let mut owner: std::collections::HashMap<_, usize> = std::collections::HashMap::new();
    for s in &res.shards {
        for obj in s.deliveries.iter().map(|e| e.object()) {
            let prev = owner.insert(obj, s.shard);
            assert!(
                prev.is_none() || prev == Some(s.shard),
                "object {obj} served by two shards"
            );
        }
    }
}
