//! Surviving a device loss: a 4-shard replicated fleet loses shard 2
//! mid-run and keeps serving every query from the surviving replicas.
//!
//! Placement is `Replicated { k: 2 }`: every object lives on two
//! shards, and the fleet routes each request to the first live
//! replica. When shard 2 crashes, its queued requests are evacuated to
//! the survivors, in-flight transfers are aborted and retried, and the
//! delivery multiset — the exact (client, query, object) transfers —
//! matches the fault-free run. The crash costs latency, never work.
//!
//! ```text
//! cargo run --release --example fault_tolerant_fleet
//! ```

use std::sync::Arc;

use skipper::core::runtime::oracle::{check_run, check_same_work};
use skipper::core::runtime::{
    BasePlacement, FaultPlan, PlacementPolicy, RunResult, Scenario, SkipperFactory, Workload,
};
use skipper::datagen::{tpch, GenConfig};
use skipper::sim::{SimDuration, SimTime};

/// p99 of query response times (seconds) for records ending in
/// `[from, to)`, or `None` when the window saw no completions.
fn p99_secs(res: &RunResult, tenant: usize, from: SimTime, to: SimTime) -> Option<f64> {
    let mut lat: Vec<f64> = res.clients[tenant]
        .iter()
        .filter(|r| r.end >= from && r.end < to)
        .map(|r| r.duration().as_secs_f64())
        .collect();
    if lat.is_empty() {
        return None;
    }
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((lat.len() as f64 * 0.99).ceil() as usize).clamp(1, lat.len()) - 1;
    Some(lat[idx])
}

fn fmt(p: Option<f64>) -> String {
    match p {
        Some(s) => format!("{s:>8.1}"),
        None => format!("{:>8}", "-"),
    }
}

fn main() {
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(7, 4).with_phys_divisor(100_000),
    ));
    let q12 = tpch::q12(&data);

    let fleet = || -> Vec<Workload> {
        (0..3)
            .map(|i| {
                Workload::new(Arc::clone(&data))
                    .repeat_query(q12.clone(), 12)
                    .engine(SkipperFactory::default().cache_bytes(12 << 30))
                    .start_at(SimDuration::from_secs(20 * i as u64))
            })
            .collect()
    };
    let placement = PlacementPolicy::Replicated {
        k: 2,
        base: BasePlacement::RoundRobin,
    };

    // Fault-free reference run: fixes the outage window (the middle
    // ~30% of the clean makespan) and the conservation baseline.
    let clean = Scenario::from_workloads(fleet())
        .shards(4)
        .placement(placement)
        .run();
    let span = clean.makespan.as_secs_f64();
    let down = SimTime::ZERO + SimDuration::from_secs_f64(span * 0.25);
    let up = SimTime::ZERO + SimDuration::from_secs_f64(span * 0.55);
    println!(
        "clean run: {} queries in {span:.0}s on 4 shards (k=2 replication)",
        clean.records().count()
    );
    println!(
        "injecting: shard 2 down over [{:.0}s, {:.0}s)\n",
        down.as_secs_f64(),
        up.as_secs_f64()
    );

    let faulted = Scenario::from_workloads(fleet())
        .shards(4)
        .placement(placement)
        .faults(FaultPlan::new().shard_down(2, down, up))
        .run();

    // The crash costs latency, never work: demonstrated live.
    assert_eq!(check_run(&faulted), Vec::<String>::new());
    assert_eq!(
        check_same_work(&faulted, &clean),
        Vec::<String>::new(),
        "failover must conserve the delivery multiset"
    );
    assert!(faulted.records().count() == clean.records().count());

    println!("per-tenant p99 response (s), by completion window:");
    println!("tenant    before   during    after");
    let end = faulted.makespan + SimDuration::from_secs(1);
    for tenant in 0..3 {
        println!(
            "{tenant:>6}  {}  {}  {}",
            fmt(p99_secs(&faulted, tenant, SimTime::ZERO, down)),
            fmt(p99_secs(&faulted, tenant, down, up)),
            fmt(p99_secs(&faulted, tenant, up, end)),
        );
    }

    let a = &faulted.availability;
    println!("\navailability summary:");
    println!("  fault events        {}", a.fault_events);
    println!(
        "  shard-seconds down  {:.0}",
        a.downtime_micros as f64 / 1e6
    );
    println!("  evacuated requests  {}", a.evacuated_requests);
    println!("  aborted transfers   {}", a.aborted_transfers);
    println!("  failover receipts   {}", a.failovers);
    println!("  parked requests     {}", a.parked_requests);
    println!("  availability        {:.4}", a.availability);
    for s in &faulted.shards {
        println!(
            "  shard {}: {:>3} objects served, {} downs, {} failover receipts",
            s.shard, s.metrics.objects_served, s.fault.downs, s.fault.failover_receipts
        );
    }
    println!(
        "\nfaulted makespan {:.0}s vs clean {:.0}s (+{:.0}%), every query answered",
        faulted.makespan.as_secs_f64(),
        span,
        (faulted.makespan.as_secs_f64() / span - 1.0) * 100.0
    );

    // The protection plane's per-tenant ledger populates on every run
    // (the knobs stay off here, so misses and sheds are zero and the
    // run is byte-identical to the pre-protection machine). Adding a
    // per-query deadline turns the outage's latency cost into an
    // explicit goodput cost: queries the crash pushes past the bound
    // are cancelled and counted instead of silently served late.
    println!("\nper-tenant goodput ledger (offered -> completed):");
    for (t, led) in faulted.protection.per_tenant.iter().enumerate() {
        println!(
            "  tenant {t}: {}/{} completed, {} deadline misses, {} shed",
            led.completed, led.offered, led.deadline_misses, led.shed
        );
    }

    // Replication is what makes the ledger boring: at k = 2 the crash
    // costs zero goodput. Re-run the same outage *without* replicas
    // under a per-query deadline and the parked window turns into
    // counted misses instead of silently late answers.
    let deadline = SimDuration::from_secs_f64(span * 0.1);
    let strict =
        Scenario::from_workloads(fleet().into_iter().map(|w| w.deadline(deadline)).collect())
            .shards(4)
            .placement(PlacementPolicy::RoundRobin)
            .faults(FaultPlan::new().shard_down(2, down, up))
            .run();
    println!(
        "\nsame outage at k = 1 under a {:.0}s per-query deadline (goodput view):",
        deadline.as_secs_f64()
    );
    for (t, led) in strict.protection.per_tenant.iter().enumerate() {
        println!(
            "  tenant {t}: {}/{} completed, {} deadline misses",
            led.completed, led.offered, led.deadline_misses
        );
    }
    println!(
        "  fleet: {} of {} queries met the deadline — replication above \
         bought that goodput back; see examples/overload_protection.rs \
         for retries, hedging, and admission control",
        strict
            .protection
            .per_tenant
            .iter()
            .map(|l| l.completed)
            .sum::<u64>(),
        strict
            .protection
            .per_tenant
            .iter()
            .map(|l| l.offered)
            .sum::<u64>(),
    );
}
