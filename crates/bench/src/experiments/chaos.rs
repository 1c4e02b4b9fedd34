//! Chaos smoke gate for the deterministic fault plane.
//!
//! Drives a reduced mixed-tenant fleet through a fault plan that
//! exercises every episode kind — a mid-run crash with recovery, a
//! brown-out, a dropped wake-up, and a seeded crash stream — on a
//! 4-shard `Replicated { k: 2 }` fleet, and gates the invariants the
//! fault plane guarantees:
//!
//! 1. **Soundness** — the clean and the faulted run both pass
//!    [`check_run`]: roll-ups, ledger, and the Figure 9 breakdown.
//! 2. **Conservation** — the faulted run delivers exactly the
//!    fault-free run's `(client, query, object)` multiset
//!    ([`check_same_work`]): failover re-serves displaced work, losing
//!    and duplicating nothing.
//! 3. **Determinism** — repeating the faulted run reproduces the
//!    `RunResult` bit for bit.
//! 4. **Allocation ceiling** — when the binary's allocation probe is
//!    installed, allocations per delivered object across a faulted run
//!    stay under [`ALLOC_CEILING`]: a fault-plane change that
//!    re-introduces per-event heap traffic on the drive loop trips it.
//!    (The gauge includes scenario assembly, which is O(data) not
//!    O(requests) — the request count here is large enough that an
//!    O(events) regression dominates.)
//!
//! Any violation exits non-zero — the CI regression gate. `--out PATH`
//! writes the smoke cells (deliveries, availability, failovers, parked
//! requests, allocations/delivery per scheduling policy) as
//! `BENCH_chaos.json` (schema `BENCH_chaos/v1`).
//!
//! `--sweep` instead prints the EXPERIMENTS.md degraded-mode table:
//! open-arrival tenants (Poisson vs equal-rate bursty) under a ~10%
//! outage, k = 1 vs k = 2, p99/p999 + SLO attainment per policy.
//!
//! ```text
//! cargo run --release -p skipper-bench -- chaos --out BENCH_chaos.json
//! cargo run --release -p skipper-bench -- chaos --sweep
//! ```

use std::sync::Arc;

use skipper_core::runtime::oracle::{check_run, check_same_work};
use skipper_core::runtime::{
    ArrivalProcess, BasePlacement, FaultPlan, PlacementPolicy, Scenario, SkipperFactory, Workload,
};
use skipper_csd::SchedPolicy;
use skipper_datagen::{tpch, Dataset};
use skipper_sim::SimDuration;

use crate::cli::{
    allocs_per_delivery, count_allocs, gauge_label, write_artifact, AllocProbe, Flags, Gates,
    UsageError,
};
use crate::scenarios::{mixed_fleet, secs, smoke_dataset};

/// The flags [`command`] accepts.
pub const FLAGS: &str = "[--out PATH] [--sweep]";

/// Allocations per delivered object a faulted run may make: the
/// committed measurement (36.4) + 10 %.
pub const ALLOC_CEILING: f64 = 40.1;

/// Every episode kind in one plan: crash + recovery on shard 2, a
/// half-bandwidth brown-out on shard 0, a dropped wake-up on shard 1,
/// and a seeded crash stream on shard 3.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .shard_down(2, secs(60), secs(600))
        .degraded(0, secs(30), secs(300), 0.5)
        .drop_wakeup_after(1, 3, SimDuration::from_secs(1))
        .seeded_crashes(
            3,
            SimDuration::from_secs(400),
            SimDuration::from_secs(60),
            secs(1200),
            7,
        )
}

/// `--sweep`: the degraded-mode serving table for EXPERIMENTS.md.
///
/// Open-arrival tenants (Poisson vs equal-rate bursty on/off) against
/// a ~10%-of-shard-time outage, per scheduling policy, at k = 1
/// (outage parks the down shard's work until recovery) and k = 2
/// (failover re-serves it from replicas immediately). Reports
/// response-time p99/p999 (release → last delivery, queue-wait
/// included) and SLO attainment.
fn degraded_sweep(ds: &Arc<Dataset>) {
    const SEED: u64 = 42;
    let arrivals: [(&str, ArrivalProcess); 2] = [
        (
            "poisson",
            ArrivalProcess::Poisson {
                mean: SimDuration::from_secs(15),
                seed: SEED,
            },
        ),
        (
            "bursty",
            ArrivalProcess::OnOff {
                on_mean: SimDuration::from_secs(2),
                on_duration: SimDuration::from_secs(30),
                off_duration: SimDuration::from_secs(165),
                seed: SEED,
            },
        ),
    ];
    let policies: [(&str, SchedPolicy); 5] = [
        ("fcfs-object", SchedPolicy::FcfsObject),
        ("fcfs-slack", SchedPolicy::FcfsSlack(4)),
        ("fairness", SchedPolicy::FcfsQuery),
        ("maxquery", SchedPolicy::MaxQueries),
        ("ranking", SchedPolicy::RankBased),
    ];
    println!("| policy | arrival | k | fault | p99(s) | p999(s) | SLO met | availability |");
    println!("|--------|---------|---|-------|-------:|--------:|--------:|-------------:|");
    for (pname, policy) in policies {
        for (aname, arrival) in &arrivals {
            for k in [1usize, 2] {
                // The clean reference rides on one policy: the others
                // reproduce it (all-Skipper tenants on private groups
                // leave the policy axis second-order here).
                let plans: &[(&str, FaultPlan)] = if pname == "ranking" {
                    &[("outage", outage()), ("none", FaultPlan::new())]
                } else {
                    &[("outage", outage())]
                };
                for (fname, plan) in plans {
                    let q12 = tpch::q12(ds);
                    let workloads: Vec<Workload> = (0..4)
                        .map(|_| {
                            Workload::new(Arc::clone(ds))
                                .repeat_query(q12.clone(), 16)
                                .engine(SkipperFactory::default().cache_bytes(30 << 30))
                                .arrival(arrival.clone())
                        })
                        .collect();
                    let res = Scenario::from_workloads(workloads)
                        .shards(4)
                        .placement(PlacementPolicy::Replicated {
                            k,
                            base: BasePlacement::RoundRobin,
                        })
                        .scheduler(policy)
                        .slo_target(SimDuration::from_secs(600))
                        .faults(plan.clone())
                        .run();
                    let q = res.latency.fleet.response.expect("open run has responses");
                    let slo = res.latency.fleet.slo.expect("SLO target declared");
                    println!(
                        "| {pname} | {aname} | {k} | {fname} | {:.0} | {:.0} | {}/{} | {:.4} |",
                        q.p99, q.p999, slo.met, slo.total, res.availability.availability
                    );
                }
            }
        }
    }
}

/// The sweep's outage: shard 2 of 4 down for 760 s — ~10% of
/// shard-time over these ~1900 s runs.
fn outage() -> FaultPlan {
    FaultPlan::new().shard_down(2, secs(100), secs(860))
}

/// Runs the smoke cells and their gates; returns the gates and the
/// `BENCH_chaos.json` document.
pub fn smoke(probe: Option<AllocProbe>) -> (Gates, String) {
    let ds = smoke_dataset();
    let mut gates = Gates::default();
    let mut json_rows: Vec<String> = Vec::new();
    for sched in [SchedPolicy::RankBased, SchedPolicy::FcfsObject] {
        let clean = mixed_fleet(&ds, sched).run();
        let (faulted, allocs) =
            count_allocs(probe, || mixed_fleet(&ds, sched).faults(chaos_plan()).run());
        let deliveries = faulted.device.objects_served;
        let per_delivery = allocs_per_delivery(allocs, deliveries);

        gates.violations(check_run(&clean), &format!("{sched:?}: clean run is sound"));
        gates.violations(
            [check_run(&faulted), check_same_work(&faulted, &clean)].concat(),
            &format!("{sched:?}: faulted run is sound, multiset == clean multiset"),
        );
        gates.check(
            faulted.shards[2].fault.downs >= 1 && faulted.availability.availability < 1.0,
            &format!("{sched:?}: outage observed in availability counters"),
        );

        let repeat = mixed_fleet(&ds, sched).faults(chaos_plan()).run();
        gates.check(
            repeat == faulted,
            &format!("{sched:?}: repeated faulted run is bit-identical"),
        );

        println!(
            "     {sched:?}: {deliveries} deliveries, availability {:.4}, {} failovers, \
             {} allocations/delivery",
            faulted.availability.availability,
            faulted.availability.failovers,
            gauge_label(per_delivery, 1),
        );
        gates.alloc_ceiling(per_delivery, ALLOC_CEILING, &format!("{sched:?}: "));
        json_rows.push(format!(
            "    {{\"scheduler\": \"{sched:?}\", \"deliveries\": {deliveries}, \
             \"availability\": {:.6}, \"downtime_micros\": {}, \"failovers\": {}, \
             \"parked_requests\": {}, \"evacuated_requests\": {}, \
             \"fault_events\": {}, \"allocs_per_delivery\": {}}}",
            faulted.availability.availability,
            faulted.availability.downtime_micros,
            faulted.availability.failovers,
            faulted.availability.parked_requests,
            faulted.availability.evacuated_requests,
            faulted.availability.fault_events,
            gauge_label(per_delivery, 4),
        ));
    }
    let json = format!(
        "{{\n  \"schema\": \"BENCH_chaos/v1\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    (gates, json)
}

/// The `chaos` subcommand; returns the number of violated gates.
pub fn command(flags: &mut Flags, probe: Option<AllocProbe>) -> Result<u32, UsageError> {
    let mut sweep = false;
    let mut out: Option<String> = None;
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--out" => out = Some(flags.value(&flag)?),
            "--sweep" => sweep = true,
            _ => return Err(flags.unknown(&flag)),
        }
    }
    if sweep {
        degraded_sweep(&smoke_dataset());
        return Ok(0);
    }
    let (gates, json) = smoke(probe);
    if let Some(path) = out {
        write_artifact(&path, &json)?;
    }
    Ok(gates.finish(
        "CHAOS",
        "chaos smoke clean: conservation and determinism hold",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_hold_and_reproduce_the_committed_artifact() {
        let (gates, json) = smoke(None);
        assert_eq!(gates.failures, 0);
        crate::cli::assert_matches_committed(&json, include_str!("../../../../BENCH_chaos.json"));
    }
}
