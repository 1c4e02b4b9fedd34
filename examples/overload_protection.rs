//! The overload-and-outage protection plane in one tour: deadlines,
//! seeded retry/backoff, hedged requests, and admission control.
//!
//! Cold storage serves queries in *seconds*, so a saturating burst or a
//! browned-out shard is a tail-latency catastrophe by default. This
//! example drives three small fleets through the four knobs:
//!
//! 1. **Admission control** — a saturating on/off burst against a
//!    2-shard fleet, unprotected vs priority-scaled load shedding:
//!    shedding drops the lowest-priority arrivals at the fleet seam and
//!    holds the survivors' p99.
//! 2. **Deadlines + seeded retry** — a crash window on an unreplicated
//!    fleet: instead of parking requests until recovery, retry-enabled
//!    tenants re-submit on a capped exponential backoff drawn from
//!    per-client seeded streams, and every query still completes.
//! 3. **Hedged requests** — a browned-out shard on a `k = 2` replicated
//!    fleet: reads still undelivered after the hedge delay re-issue to
//!    the healthy replica, first completion wins, duplicates are
//!    cancelled or discarded — consumption stays exactly-once.
//!
//! Every knob defaults to off, and the disabled configuration is
//! byte-identical to the unprotected machine.
//!
//! ```text
//! cargo run --release --example overload_protection
//! ```

use std::sync::Arc;

use skipper::core::runtime::{
    AdmissionPolicy, AdmissionResponse, ArrivalProcess, BasePlacement, FaultPlan, PlacementPolicy,
    RetryPolicy, Scenario, SkipperFactory, Workload,
};
use skipper::datagen::{tpch, GenConfig};
use skipper::sim::{SimDuration, SimTime};

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

fn main() {
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(7, 4).with_phys_divisor(100_000),
    ));
    let q12 = tpch::q12(&data);

    // ---- 1. Admission control under a saturating burst --------------
    // Four open-arrival tenants fire synchronized 30 s bursts (a
    // release every ~2 s) at a 2-shard fleet whose per-query service
    // time is tens of seconds. Tenant 0 runs at priority 3: its
    // admission ceiling is 4x the others', so saturation sheds the
    // low-priority arrivals first.
    let burst = |admission: Option<AdmissionPolicy>| {
        let workloads: Vec<Workload> = (0..4)
            .map(|i| {
                Workload::new(Arc::clone(&data))
                    .repeat_query(q12.clone(), 6)
                    .engine(SkipperFactory::default().cache_bytes(12 << 30))
                    .arrival(ArrivalProcess::OnOff {
                        on_mean: SimDuration::from_secs(2),
                        on_duration: SimDuration::from_secs(30),
                        off_duration: SimDuration::from_secs(150),
                        seed: 42,
                    })
                    .priority(if i == 0 { 3 } else { 0 })
            })
            .collect();
        let mut s = Scenario::from_workloads(workloads).shards(2);
        if let Some(a) = admission {
            s = s.admission(a);
        }
        s.run()
    };
    let open_loop = burst(None);
    let shedding = burst(Some(AdmissionPolicy {
        max_queue_depth: 6,
        max_queued_bytes: u64::MAX >> 8,
        response: AdmissionResponse::Shed,
        breaker: None,
    }));
    let p99 = |r: &skipper::core::runtime::RunResult| {
        r.latency.fleet.response.as_ref().expect("open run").p99
    };
    println!("1. admission control under a saturating burst:");
    println!(
        "   unprotected: p99 {:.0}s over {} completions",
        p99(&open_loop),
        open_loop.latency.fleet.count
    );
    println!(
        "   shedding:    p99 {:.0}s, {} arrivals shed at the fleet seam",
        p99(&shedding),
        shedding.protection.sheds
    );
    for (t, led) in shedding.protection.per_tenant.iter().enumerate() {
        println!(
            "     tenant {t} (priority {}): {}/{} completed, {} shed",
            if t == 0 { 3 } else { 0 },
            led.completed,
            led.offered,
            led.shed
        );
    }

    // ---- 2. Deadlines + seeded retry through a crash window ----------
    // Shard 0 of an unreplicated 2-shard fleet is down over [15 s,
    // 120 s). Without retries its requests would park until recovery;
    // with Backoff they re-submit at seeded jittered instants and the
    // run drains with zero parking.
    let crashy = |retry: RetryPolicy| {
        let workloads: Vec<Workload> = (0..2)
            .map(|_| {
                Workload::new(Arc::clone(&data))
                    .repeat_query(q12.clone(), 2)
                    .engine(SkipperFactory::default().cache_bytes(12 << 30))
                    .retry(retry)
            })
            .collect();
        Scenario::from_workloads(workloads)
            .shards(2)
            .faults(FaultPlan::new().shard_down(0, secs(15), secs(120)))
            .run()
    };
    let parked = crashy(RetryPolicy::None);
    let retried = crashy(RetryPolicy::Backoff {
        base: SimDuration::from_secs(5),
        cap: SimDuration::from_secs(20),
        max_attempts: 50,
    });
    assert_eq!(
        retried.delivery_multiset(),
        parked.delivery_multiset(),
        "retry must conserve the delivery multiset"
    );
    println!("\n2. seeded retry through a 105s crash window:");
    println!(
        "   parking (default): {} requests parked until recovery",
        parked.availability.parked_requests
    );
    println!(
        "   retry w/ backoff:  {} re-submissions, {} parked, same deliveries",
        retried.protection.retries, retried.availability.parked_requests
    );

    // ---- 3. Hedged requests around a browned-out replica -------------
    // Shard 0 of a k = 2 replicated fleet serves at 5% bandwidth for
    // the whole run. Hedging re-issues its laggard reads to the healthy
    // replica after 5 s; the first completion wins and the loser is
    // cancelled in queue or discarded on delivery.
    let brownout = |hedge: Option<SimDuration>| {
        let workloads: Vec<Workload> = (0..3)
            .map(|i| {
                let w = Workload::new(Arc::clone(&data))
                    .repeat_query(q12.clone(), 4)
                    .engine(SkipperFactory::default().cache_bytes(12 << 30))
                    .start_at(SimDuration::from_secs(20 * i as u64));
                match hedge {
                    Some(h) => w.hedge_after(h),
                    None => w,
                }
            })
            .collect();
        Scenario::from_workloads(workloads)
            .shards(4)
            .placement(PlacementPolicy::Replicated {
                k: 2,
                base: BasePlacement::RoundRobin,
            })
            .faults(FaultPlan::new().degraded(0, secs(0), secs(4000), 0.05))
            .run()
    };
    let slow = brownout(None);
    let hedged = brownout(Some(SimDuration::from_secs(5)));
    println!("\n3. hedged reads around a browned-out replica (k = 2):");
    println!(
        "   unhedged: slowest query {:.0}s (stuck behind the 5% shard)",
        slow.latency.fleet.max_secs
    );
    println!(
        "   hedged:   slowest query {:.0}s — {} hedges fired, {} won, \
         {} losers cancelled in queue, {} discarded on delivery",
        hedged.latency.fleet.max_secs,
        hedged.protection.hedges_fired,
        hedged.protection.hedge_wins,
        hedged.protection.hedge_losers_cancelled,
        hedged.protection.hedge_losers_discarded
    );
    println!(
        "   at-most-once consumption: {} objects consumed, duplicates dropped",
        hedged.consumed_multiset().len()
    );
}
