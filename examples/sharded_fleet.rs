//! Scale-out beyond one rack: the same mixed fleet of tenants served by
//! 1, 2, and 4 CSD shards behind a single scenario.
//!
//! Each shard is an independent device — its own disk groups, scheduler
//! instance, bandwidth, and switch state — and a `PlacementPolicy`
//! fixes which shard stores each object at layout time. Work is
//! conserved exactly (same delivery multiset as one device); the
//! speedup is pure parallelism from having several spun-up groups
//! serving at once.
//!
//! ```text
//! cargo run --release --example sharded_fleet
//! ```

use std::sync::Arc;

use skipper::core::runtime::oracle::{check_run, check_same_work};
use skipper::core::runtime::{PlacementPolicy, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::datagen::{tpch, GenConfig};

fn main() {
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(7, 16).with_phys_divisor(100_000),
    ));
    let q12 = tpch::q12(&data);

    // A half-migrated 4-tenant fleet: 0/2 on Skipper, 1/3 pull-based.
    let fleet = || -> Vec<Workload> {
        (0..4)
            .map(|i| {
                let w = Workload::new(Arc::clone(&data)).repeat_query(q12.clone(), 1);
                if i % 2 == 0 {
                    w.engine(SkipperFactory::default().cache_bytes(12 << 30))
                } else {
                    w.engine(VanillaFactory)
                }
            })
            .collect()
    };

    println!("shards  makespan(s)  mean query(s)  switches  per-shard objects");
    let mut single = None;
    for shards in [1usize, 2, 4] {
        let res = Scenario::from_workloads(fleet())
            .shards(shards)
            .placement(PlacementPolicy::RoundRobin)
            .run();
        let objects: Vec<String> = res
            .shards
            .iter()
            .map(|s| s.metrics.objects_served.to_string())
            .collect();
        println!(
            "{shards:>6}  {:>11.0}  {:>13.0}  {:>8}  {}",
            res.makespan.as_secs_f64(),
            res.mean_query_secs(),
            res.device.group_switches,
            objects.join("/")
        );
        // Work conservation, demonstrated live.
        assert_eq!(check_run(&res), Vec::<String>::new());
        match &single {
            None => single = Some(res),
            Some(base) => assert_eq!(
                check_same_work(&res, base),
                Vec::<String>::new(),
                "sharding must deliver exactly the single-device multiset"
            ),
        }
    }

    // Per-shard anatomy of the 4-shard run: every shard is an
    // identically configured device with its own scheduler instance.
    println!("\n4-shard fleet, per shard:");
    let res = Scenario::from_workloads(fleet())
        .shards(4)
        .placement(PlacementPolicy::RoundRobin)
        .run();
    for s in &res.shards {
        println!(
            "  shard {} [{}]: {:>3} objects, {} switches",
            s.shard, s.scheduler, s.metrics.objects_served, s.metrics.group_switches,
        );
    }
    println!(
        "  fleet makespan {:.0}s under the {} scheduler family",
        res.makespan.as_secs_f64(),
        res.scheduler
    );
}
