//! Scheduler fairness and efficiency properties (§4.4, Figure 12).
//!
//! Randomized cases are drawn from a seeded RNG (deterministic stand-in
//! for the original proptest strategies).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipper::csd::sched::{
    Decision, GroupScheduler, InFlight, PendingRequest, RankBased, RequestQueue,
};
use skipper::csd::{IntraGroupOrder, ObjectId, QueryId, SchedPolicy};

fn req(group: u32, tenant: u16, seq: u64) -> PendingRequest {
    PendingRequest {
        object: ObjectId::new(tenant, 0, seq as u32),
        query: QueryId::new(tenant, 0),
        client: tenant as usize,
        group,
        bytes: 0,
        slot: 0,
        seq,
    }
}

/// The indexed queue view a device would maintain over `pending`.
fn queue_of(pending: &[PendingRequest]) -> RequestQueue {
    RequestQueue::from_requests(IntraGroupOrder::ArrivalOrder, pending.iter().copied())
}

/// Starvation bound: with K = 1, a group holding one query among
/// groups holding at most `n` queries each is served within `n + 1`
/// switches — the derivation behind the paper's "once every four
/// group switches" example.
#[test]
fn rank_based_serves_lone_group_within_bound() {
    for popular_queries in 1u16..8 {
        for popular_groups in 1u32..4 {
            let mut pending = Vec::new();
            let mut seq = 0u64;
            for g in 0..popular_groups {
                for q in 0..popular_queries {
                    pending.push(req(g, (g * 100) as u16 + q, seq));
                    seq += 1;
                }
            }
            let lone_group = popular_groups;
            pending.push(req(lone_group, 999, seq));

            let queue = queue_of(&pending);
            let mut sched = RankBased::new();
            let mut switches = 0u32;
            let bound = (popular_queries as u32 + 1) * popular_groups;
            loop {
                match sched.decide(&queue, None, InFlight::NONE) {
                    Decision::SwitchTo(g) => {
                        switches += 1;
                        sched.on_switch_complete(&queue, g);
                        if g == lone_group {
                            break;
                        }
                        // Popular queries are a steady stream: their
                        // requests never drain.
                        assert!(
                            switches <= bound,
                            "lone group starved for {switches} switches (bound {bound})"
                        );
                    }
                    other => panic!("unexpected decision {other:?}"),
                }
            }
            assert!(switches <= bound);
        }
    }
}

/// Waiting times reset exactly for the queries on the loaded group
/// and grow by one elsewhere (the W_q definition).
#[test]
fn waiting_time_bookkeeping() {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    for _ in 0..64 {
        let n = rng.gen_range(1usize..12);
        let loads: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..3)).collect();
        let queue = queue_of(&[req(0, 0, 0), req(1, 1, 1), req(2, 2, 2)]);
        let mut sched = RankBased::new();
        let mut expected = [0u64; 3];
        for g in loads {
            sched.on_switch_complete(&queue, g);
            for (q, e) in expected.iter_mut().enumerate() {
                if q as u32 == g {
                    *e = 0;
                } else {
                    *e += 1;
                }
            }
            for (q, &e) in expected.iter().enumerate() {
                assert_eq!(sched.waiting_of(QueryId::new(q as u16, 0)), e);
            }
        }
    }
}

/// The three Figure 12 policies order as the paper reports on a skewed
/// layout: Max-Queries worst max-stretch, FCFS worst cumulative time,
/// ranking in between on both axes.
#[test]
fn figure12_ordering_holds() {
    use std::sync::Arc;

    use skipper::core::runtime::{Scenario, SkipperFactory, Workload};
    use skipper::csd::LayoutPolicy;
    use skipper::datagen::{tpch, GenConfig};
    use skipper::sim::stats::max_stretch;
    use skipper::sim::SimDuration;

    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(12, 8).with_phys_divisor(200_000),
    ));
    let q12 = tpch::q12(&ds);
    let client = |reps: usize| {
        Workload::new(Arc::clone(&ds))
            .repeat_query(q12.clone(), reps)
            .engine(SkipperFactory::default().cache_bytes(8 << 30))
    };
    let ideal = Scenario::from_workloads(vec![client(1)])
        .run()
        .mean_query_secs();
    let run = |policy| {
        let res = Scenario::from_workloads(vec![client(4); 5])
            .layout(LayoutPolicy::TwoClientsPerGroup)
            .scheduler(policy)
            .run();
        let stretches = res.stretches(SimDuration::from_secs_f64(ideal));
        (max_stretch(&stretches), res.cumulative_secs())
    };
    let (fcfs_max, fcfs_cum) = run(SchedPolicy::FcfsQuery);
    let (mq_max, mq_cum) = run(SchedPolicy::MaxQueries);
    let (rank_max, rank_cum) = run(SchedPolicy::RankBased);

    assert!(
        mq_max > rank_max && mq_max > fcfs_max,
        "Max-Queries must starve hardest: mq={mq_max:.1} rank={rank_max:.1} fcfs={fcfs_max:.1}"
    );
    assert!(
        mq_cum <= rank_cum && rank_cum <= fcfs_cum * 1.01,
        "efficiency order violated: mq={mq_cum:.0} rank={rank_cum:.0} fcfs={fcfs_cum:.0}"
    );
}
