//! Overload/outage protection sweep + CI smoke gate.
//!
//! Drives two fleets through the protection-plane grid; `--out PATH`
//! writes the cells as `BENCH_overload.json` (schema
//! `BENCH_overload/v1`):
//!
//! * **Burst** — four open-arrival tenants whose synchronized on/off
//!   bursts saturate a 2-shard fleet (one tenant runs at elevated
//!   priority), swept across {unprotected, deadline-only, admission
//!   shed, admission backpressure}. The headline: priority-scaled
//!   shedding holds the survivors' response p99 far under the
//!   unprotected tail while the high-priority tenant keeps its
//!   throughput.
//! * **Outage** — three open-arrival tenants on a 4-shard
//!   `Replicated { k: 2 }` fleet with one shard browned out to 5 %
//!   bandwidth, unhedged vs hedged. The headline: hedging re-issues
//!   the slow shard's reads to the healthy replica and cuts the
//!   brown-out response p99.
//!
//! The smoke gates (any violation exits non-zero — the CI regression
//! gate):
//!
//! 0. **Soundness** — every cell passes [`check_run`]: roll-ups,
//!    ledger, the Figure 9 breakdown, and at-most-once consumption.
//! 1. **Disabled ⇒ byte-exact** — the burst fleet with every knob at
//!    its default, but a non-default scenario seed and an explicit
//!    `RetryPolicy::None`, reproduces the knob-free `RunResult` bit
//!    for bit, and its `ProtectionSummary` is quiet.
//! 2. **Consumption conservation** — the hedged brown-out run consumes
//!    exactly the clean (fault-free, hedge-free) run's delivery
//!    multiset ([`check_same_work`]): duplicate hedge copies are
//!    cancelled or discarded, never double-processed.
//! 3. **Determinism** — repeating the hedged run and the shed run
//!    reproduces them bit for bit.
//! 4. **Headline direction** — shed p99 < unprotected p99 under the
//!    burst, hedged p99 < unhedged p99 under the brown-out.
//! 5. **Allocation ceiling** — when the binary's allocation probe is
//!    installed, allocations per delivered object on the hedged run
//!    stay ≤ [`ALLOC_CEILING`]: the protection hot path must not
//!    re-introduce per-event heap traffic.
//!
//! ```text
//! cargo run --release -p skipper-bench -- overload --out BENCH_overload.json
//! ```

use std::sync::Arc;

use skipper_core::runtime::oracle::{check_run, check_same_work};
use skipper_core::runtime::{
    AdmissionPolicy, AdmissionResponse, ArrivalProcess, BasePlacement, FaultPlan, PlacementPolicy,
    RetryPolicy, RunResult, Scenario, SkipperFactory, Workload,
};
use skipper_csd::SchedPolicy;
use skipper_datagen::{tpch, Dataset};
use skipper_sim::SimDuration;

use crate::cli::{
    allocs_per_delivery, count_allocs, gauge_label, write_artifact, AllocProbe, Flags, Gates,
    UsageError,
};
use crate::scenarios::{secs, smoke_dataset};

/// The flags [`command`] accepts.
pub const FLAGS: &str = "[--out PATH]";

/// Allocations per delivered object the hedged run may make: the
/// committed measurement (28.8) + 10 %.
pub const ALLOC_CEILING: f64 = 31.7;

/// The saturating burst fleet: four tenants firing synchronized on/off
/// bursts (2 s between releases for 30 s, then 150 s quiet) at a
/// 2-shard fleet whose per-query service time is ~50 s — each burst
/// piles up far more work than the shards can drain before the next.
/// Tenant 0 runs at priority 3; the rest at 0. `knobs` sets each
/// tenant's protection knobs.
fn burst_scenario(ds: &Arc<Dataset>, knobs: impl Fn(Workload) -> Workload) -> Scenario {
    let q12 = tpch::q12(ds);
    let workloads: Vec<Workload> = (0..4)
        .map(|i| {
            Workload::new(Arc::clone(ds))
                .repeat_query(q12.clone(), 8)
                .engine(SkipperFactory::default().cache_bytes(30 << 30))
                .arrival(ArrivalProcess::OnOff {
                    on_mean: SimDuration::from_secs(2),
                    on_duration: SimDuration::from_secs(30),
                    off_duration: SimDuration::from_secs(150),
                    seed: 42,
                })
                .priority(if i == 0 { 3 } else { 0 })
        })
        .map(knobs)
        .collect();
    Scenario::from_workloads(workloads)
        .shards(2)
        .placement(PlacementPolicy::RoundRobin)
        .scheduler(SchedPolicy::RankBased)
        .slo_target(SimDuration::from_secs(300))
}

/// The admission policy for the burst sweep: a shard over 6 queued
/// requests (priority-scaled) refuses new arrivals.
fn admission(response: AdmissionResponse) -> AdmissionPolicy {
    AdmissionPolicy {
        max_queue_depth: 6,
        max_queued_bytes: u64::MAX >> 8,
        response,
        breaker: None,
    }
}

/// The outage fleet: three Poisson tenants on a 4-shard
/// `Replicated { k: 2 }` fleet; the fault plan browns shard 0 out to
/// 5 % bandwidth for the whole run. `knobs` sets each tenant's
/// protection knobs.
fn outage_scenario(
    ds: &Arc<Dataset>,
    faulted: bool,
    knobs: impl Fn(Workload) -> Workload,
) -> Scenario {
    let q12 = tpch::q12(ds);
    let workloads: Vec<Workload> = (0..3)
        .map(|_| {
            Workload::new(Arc::clone(ds))
                .repeat_query(q12.clone(), 8)
                .engine(SkipperFactory::default().cache_bytes(30 << 30))
                .arrival(ArrivalProcess::Poisson {
                    mean: SimDuration::from_secs(25),
                    seed: 42,
                })
        })
        .map(knobs)
        .collect();
    let s = Scenario::from_workloads(workloads)
        .shards(4)
        .placement(PlacementPolicy::Replicated {
            k: 2,
            base: BasePlacement::RoundRobin,
        })
        .scheduler(SchedPolicy::RankBased)
        .slo_target(SimDuration::from_secs(300));
    if faulted {
        s.faults(FaultPlan::new().degraded(0, secs(0), secs(8000), 0.05))
    } else {
        s
    }
}

/// Response p99 in seconds (open-arrival runs always have quantiles).
fn p99(res: &RunResult) -> f64 {
    res.latency
        .fleet
        .response
        .as_ref()
        .expect("open-arrival run has response quantiles")
        .p99
}

/// One JSON sample row for a grid cell.
fn json_row(experiment: &str, label: &str, res: &RunResult) -> String {
    let q = res
        .latency
        .fleet
        .response
        .as_ref()
        .expect("open-arrival run has response quantiles");
    let slo = res.latency.fleet.slo.as_ref().expect("SLO target declared");
    let p = &res.protection;
    let offered: u64 = p.per_tenant.iter().map(|t| t.offered).sum();
    let completed: u64 = p.per_tenant.iter().map(|t| t.completed).sum();
    format!(
        "    {{\"experiment\": \"{experiment}\", \"config\": \"{label}\", \
         \"p50_secs\": {:.6}, \"p99_secs\": {:.6}, \"p999_secs\": {:.6}, \
         \"max_secs\": {:.6}, \"mean_secs\": {:.6}, \"completions\": {}, \
         \"offered\": {offered}, \"completed\": {completed}, \
         \"slo_met\": {}, \"slo_total\": {}, \
         \"deadline_misses\": {}, \"sheds\": {}, \"deferrals\": {}, \
         \"retries\": {}, \"hedges_fired\": {}, \"hedge_wins\": {}, \
         \"breaker_trips\": {}, \"availability\": {:.6}}}",
        q.p50,
        q.p99,
        q.p999,
        res.latency.fleet.max_secs,
        res.latency.fleet.mean_secs,
        res.latency.fleet.count,
        slo.met,
        slo.total,
        p.deadline_misses,
        p.sheds,
        p.backpressure_deferrals,
        p.retries,
        p.hedges_fired,
        p.hedge_wins,
        p.breaker_trips,
        res.availability.availability,
    )
}

/// Runs both grids and their gates; returns the gates and the
/// `BENCH_overload.json` document.
pub fn smoke(probe: Option<AllocProbe>) -> (Gates, String) {
    let ds = smoke_dataset();
    let mut gates = Gates::default();

    // ---- burst sweep -------------------------------------------------
    eprintln!("running burst grid...");
    let unprotected = burst_scenario(&ds, |w| w).run();
    let deadline_only = burst_scenario(&ds, |w| w.deadline(SimDuration::from_secs(150))).run();
    let shed = burst_scenario(&ds, |w| w)
        .admission(admission(AdmissionResponse::Shed))
        .run();
    let backpressure = burst_scenario(&ds, |w| w)
        .admission(admission(AdmissionResponse::Backpressure(
            SimDuration::from_secs(45),
        )))
        .run();

    // ---- outage sweep ------------------------------------------------
    eprintln!("running outage grid...");
    let hedge = |w: Workload| w.hedge_after(SimDuration::from_secs(8));
    let clean = outage_scenario(&ds, false, |w| w).run();
    let unhedged = outage_scenario(&ds, true, |w| w).run();
    let hedged = outage_scenario(&ds, true, hedge).run();

    let cells = [
        ("burst", "unprotected", &unprotected),
        ("burst", "deadline-150s", &deadline_only),
        ("burst", "admission-shed", &shed),
        ("burst", "admission-backpressure", &backpressure),
        ("outage", "clean", &clean),
        ("outage", "unhedged", &unhedged),
        ("outage", "hedged-8s", &hedged),
    ];
    let rows: Vec<String> = cells
        .iter()
        .map(|&(experiment, label, res)| json_row(experiment, label, res))
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"BENCH_overload/v1\",\n  \"samples\": [\n{}\n  ],\n  \
         \"headline\": {{\"unprotected_burst_p99_secs\": {:.6}, \
         \"admission_shed_p99_secs\": {:.6}, \"unhedged_outage_p99_secs\": {:.6}, \
         \"hedged_outage_p99_secs\": {:.6}}}\n}}\n",
        rows.join(",\n"),
        p99(&unprotected),
        p99(&shed),
        p99(&unhedged),
        p99(&hedged),
    );

    // Gate 0: every cell is sound.
    let unsound = cells.iter().flat_map(|&(_, label, res)| {
        check_run(res)
            .into_iter()
            .map(move |v| format!("{label}: {v}"))
    });
    gates.violations(
        unsound.collect(),
        "every cell is sound (roll-ups, ledger, breakdown, consumption)",
    );

    // Gate 1: every knob disabled — but a non-default seed and an
    // explicit RetryPolicy::None — is byte-for-byte today's machine.
    let explicit = burst_scenario(&ds, |w| w.retry(RetryPolicy::None))
        .seed(7)
        .run();
    gates.check(
        explicit == unprotected,
        "disabled protection plane is byte-identical (seed + explicit RetryPolicy::None)",
    );
    gates.check(
        unprotected.protection.is_quiet(),
        "unprotected run's protection summary is quiet",
    );

    // Gate 2: hedge duplicates are consumed at most once — the hedged
    // brown-out run consumes exactly the clean run's delivery multiset.
    gates.check(hedged.protection.hedges_fired > 0, "brown-out fires hedges");
    gates.violations(
        check_same_work(&hedged, &clean),
        "hedged consumption multiset == clean delivery multiset (conservation)",
    );

    // Gate 3: determinism on the protected cells.
    let (repeat_hedged, allocs) = count_allocs(probe, || outage_scenario(&ds, true, hedge).run());
    let per_delivery = allocs_per_delivery(allocs, repeat_hedged.device.objects_served);
    gates.check(
        repeat_hedged == hedged,
        "repeated hedged run is bit-identical",
    );
    let repeat_shed = burst_scenario(&ds, |w| w)
        .admission(admission(AdmissionResponse::Shed))
        .run();
    gates.check(repeat_shed == shed, "repeated shed run is bit-identical");

    // Gate 4: the headline directions the JSON records.
    gates.check(
        shed.protection.sheds > 0,
        "saturating burst triggers shedding",
    );
    gates.check(
        p99(&shed) < p99(&unprotected),
        &format!(
            "admission shedding holds p99: {:.1}s < unprotected {:.1}s",
            p99(&shed),
            p99(&unprotected)
        ),
    );
    gates.check(
        p99(&hedged) < p99(&unhedged),
        &format!(
            "hedging (k = 2) cuts the brown-out p99: {:.1}s < unhedged {:.1}s",
            p99(&hedged),
            p99(&unhedged)
        ),
    );

    println!(
        "     burst p99: unprotected {:.1}s, deadline {:.1}s, shed {:.1}s \
         ({} sheds), backpressure {:.1}s ({} deferrals)",
        p99(&unprotected),
        p99(&deadline_only),
        p99(&shed),
        shed.protection.sheds,
        p99(&backpressure),
        backpressure.protection.backpressure_deferrals,
    );
    println!(
        "     outage p99: clean {:.1}s, unhedged {:.1}s, hedged {:.1}s \
         ({} hedges, {} wins); {} allocations/delivery on the hedged run",
        p99(&clean),
        p99(&unhedged),
        p99(&hedged),
        hedged.protection.hedges_fired,
        hedged.protection.hedge_wins,
        gauge_label(per_delivery, 1),
    );
    gates.alloc_ceiling(per_delivery, ALLOC_CEILING, "");
    (gates, json)
}

/// The `overload` subcommand; returns the number of violated gates.
pub fn command(flags: &mut Flags, probe: Option<AllocProbe>) -> Result<u32, UsageError> {
    let out = flags.out()?;
    let (gates, json) = smoke(probe);
    if let Some(path) = out {
        write_artifact(&path, &json)?;
    }
    Ok(gates.finish(
        "OVERLOAD",
        "overload smoke clean: byte-identity, conservation, determinism, headline gates all hold",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_hold_and_reproduce_the_committed_artifact() {
        let (gates, json) = smoke(None);
        assert_eq!(gates.failures, 0);
        crate::cli::assert_matches_committed(
            &json,
            include_str!("../../../../BENCH_overload.json"),
        );
    }
}
