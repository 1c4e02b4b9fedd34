//! Scheduler playground: fairness vs efficiency on a skewed layout.
//!
//! Recreates the §5.2.5 setup in miniature: five tenants, two disk groups
//! holding two tenants each and a third group holding the fifth, each
//! tenant repeating TPC-H Q12. Compares all four scheduling policies —
//! including the strict object-FCFS that stock CSDs ship — on stretch
//! metrics and total time, and prints the rank evolution that lets the
//! lone tenant's group win service every few switches.
//!
//! ```text
//! cargo run --release --example scheduler_playground
//! ```

use std::sync::Arc;

use skipper::core::runtime::{ArrivalProcess, Scenario, SkipperFactory, Workload};
use skipper::csd::sched::{GroupScheduler, RankBased};
use skipper::csd::{LayoutPolicy, SchedPolicy};
use skipper::datagen::{tpch, GenConfig};
use skipper::sim::stats::{l2_norm, max_stretch};
use skipper::sim::SimDuration;

fn main() {
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(3, 8).with_phys_divisor(100_000),
    ));
    let q12 = tpch::q12(&data);
    // One Skipper tenant (6 GiB MJoin cache) running Q12 `reps` times.
    let tenant = |reps: usize| {
        Workload::new(Arc::clone(&data))
            .repeat_query(q12.clone(), reps)
            .engine(SkipperFactory::default().cache_bytes(6 << 30))
    };

    // Uncontended reference for stretch.
    let ideal = Scenario::from_workloads(vec![tenant(1)])
        .run()
        .mean_query_secs();
    println!("single-tenant ideal: {ideal:.0}s\n");

    println!("scheduler     L2-norm  max-stretch  cumulative(s)  switches");
    for policy in [
        SchedPolicy::FcfsObject,
        SchedPolicy::FcfsSlack(16),
        SchedPolicy::FcfsQuery,
        SchedPolicy::MaxQueries,
        SchedPolicy::RankBased,
    ] {
        let res = Scenario::from_workloads(vec![tenant(3); 5])
            .layout(LayoutPolicy::TwoClientsPerGroup)
            .scheduler(policy)
            .run();
        let stretches = res.stretches(SimDuration::from_secs_f64(ideal));
        println!(
            "{:<12}  {:>7.2}  {:>11.2}  {:>13.0}  {:>8}",
            policy.label(),
            l2_norm(&stretches),
            max_stretch(&stretches),
            res.cumulative_secs(),
            res.device.group_switches
        );
    }

    // Open arrivals: the same skewed layout, but tenants issue queries
    // at Poisson instants instead of the closed loop — the traffic shape
    // a shared archival service actually sees. Fixed seeds keep every
    // run reproducible.
    println!("\nopen (Poisson) arrivals, mean gap 400s, 3 queries/tenant:");
    println!("scheduler     L2-norm  max-stretch  makespan(s)  switches");
    for policy in [
        SchedPolicy::FcfsObject,
        SchedPolicy::MaxQueries,
        SchedPolicy::RankBased,
    ] {
        let fleet: Vec<Workload> = (0..5)
            .map(|i| {
                tenant(3).arrival(ArrivalProcess::Poisson {
                    mean: SimDuration::from_secs(400),
                    seed: 1000 + i,
                })
            })
            .collect();
        let res = Scenario::from_workloads(fleet)
            .layout(LayoutPolicy::TwoClientsPerGroup)
            .scheduler(policy)
            .run();
        let stretches = res.stretches(SimDuration::from_secs_f64(ideal));
        println!(
            "{:<12}  {:>7.2}  {:>11.2}  {:>11.0}  {:>8}",
            policy.label(),
            l2_norm(&stretches),
            max_stretch(&stretches),
            res.makespan.as_secs_f64(),
            res.device.group_switches
        );
    }

    // The §4.4 rank walk-through: R(g) = N_g + K·ΣW_q(g) with K = 1.
    // Each step loads the group the policy's own `decide` picks (ties go
    // to the group holding the oldest request), then ages the waiting
    // queries through `on_switch_complete`.
    println!("\nrank evolution (groups: g0 holds 2 queries, g1 holds 2, g2 holds 1):");
    use skipper::csd::sched::{Decision, InFlight, PendingRequest, RequestQueue};
    use skipper::csd::{IntraGroupOrder, ObjectId, QueryId};
    let mk = |group, tenant: u16, seq| PendingRequest {
        object: ObjectId::new(tenant, 0, 0),
        query: QueryId::new(tenant, 0),
        client: tenant as usize,
        group,
        bytes: 0,
        slot: 0,
        seq,
    };
    let pending = [
        mk(0, 0, 0),
        mk(0, 1, 1),
        mk(1, 2, 2),
        mk(1, 3, 3),
        mk(2, 4, 4),
    ];
    // The scheduler consumes a QueueView; build the indexed queue the
    // device would maintain incrementally.
    let queue = RequestQueue::from_requests(IntraGroupOrder::ArrivalOrder, pending);
    let mut rank = RankBased::new();
    let mut loaded = None;
    for step in 0..5 {
        let ranks = rank.ranks(&queue);
        let group = match rank.decide(&queue, loaded, InFlight::NONE) {
            Decision::SwitchTo(g) => g,
            Decision::ServeActive => loaded.expect("serving needs a loaded group"),
            Decision::Idle => unreachable!("the queue is never empty"),
        };
        println!("  step {step}: ranks {ranks:?} -> load group {group}");
        rank.on_switch_complete(&queue, group);
        loaded = Some(group);
    }
}
