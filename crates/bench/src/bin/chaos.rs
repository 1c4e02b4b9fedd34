//! Chaos smoke gate for the deterministic fault plane.
//!
//! Drives a reduced mixed-tenant fleet through a fault plan that
//! exercises every episode kind — a mid-run crash with recovery, a
//! brown-out, a dropped wake-up, and a seeded crash stream — on a
//! 4-shard `Replicated { k: 2 }` fleet, and gates the invariants the
//! fault plane guarantees:
//!
//! 1. **Conservation** — the faulted run delivers exactly the
//!    fault-free run's `(client, query, object)` multiset: failover
//!    re-serves displaced work, losing and duplicating nothing.
//! 2. **Determinism** — repeating the faulted run reproduces the
//!    `RunResult` bit for bit.
//! 3. **Allocation ceiling** — allocations per delivered object across
//!    a faulted run stay under `--alloc-ceiling`: a fault-plane change
//!    that re-introduces per-event heap traffic on the drive loop
//!    trips it. (The gauge includes scenario assembly, which is O(data)
//!    not O(requests) — the request count here is large enough that an
//!    O(events) regression dominates.)
//!
//! Any violation exits non-zero — the CI chaos-smoke regression gate.
//! `--out PATH` additionally writes the smoke cells (deliveries,
//! availability, failovers, parked requests, allocations/delivery per
//! scheduling policy) as `BENCH_chaos.json` (schema `BENCH_chaos/v1`).
//!
//! `--sweep` instead prints the EXPERIMENTS.md degraded-mode table:
//! open-arrival tenants (Poisson vs equal-rate bursty) under a ~10%
//! outage, k = 1 vs k = 2, p99/p999 + SLO attainment per policy.
//!
//! ```text
//! cargo run --release -p skipper-bench --bin chaos -- \
//!     --alloc-ceiling 300 --out BENCH_chaos.json
//! cargo run --release -p skipper-bench --bin chaos -- --sweep
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skipper_bench::scenarios::{mixed_fleet, secs};
use skipper_core::runtime::{
    ArrivalProcess, BasePlacement, FaultPlan, PlacementPolicy, RunResult, Scenario, SkipperFactory,
    Workload,
};
use skipper_csd::SchedPolicy;
use skipper_datagen::{tpch, Dataset, GenConfig};
use skipper_sim::SimDuration;

/// Counts every allocation (alloc + realloc) on top of the system
/// allocator, as in the perf harness: the gauge is allocator traffic,
/// not net memory.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`, which upholds the GlobalAlloc
// contract; the counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Every episode kind in one plan: crash + recovery on shard 2, a
/// half-bandwidth brown-out on shard 0, a dropped wake-up on shard 1,
/// and a seeded crash stream on shard 3.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .shard_down(2, secs(60), secs(600))
        .degraded(0, secs(30), secs(300), 0.5)
        .drop_wakeup(1, 3)
        .seeded_crashes(
            3,
            SimDuration::from_secs(400),
            SimDuration::from_secs(60),
            secs(1200),
            7,
        )
}

/// The smoke scenario: [`mixed_fleet`] from the shared bench builders.
fn fleet(ds: &Arc<Dataset>, sched: SchedPolicy) -> Scenario {
    mixed_fleet(ds, sched)
}

fn deliveries(res: &RunResult) -> u64 {
    res.device.objects_served
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

fn main() {
    let mut alloc_ceiling: Option<f64> = None;
    let mut sweep = false;
    let mut out_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--alloc-ceiling" => {
                i += 1;
                let v = args.get(i).expect("missing value for --alloc-ceiling");
                alloc_ceiling = Some(v.parse().expect("--alloc-ceiling"));
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).expect("missing value for --out").to_string());
            }
            "--sweep" => sweep = true,
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }

    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(21, 4).with_phys_divisor(100_000),
    ));
    if sweep {
        degraded_sweep(&ds);
        return;
    }
    let mut failures = 0u32;
    let mut check = |ok: bool, label: &str| {
        if ok {
            println!("ok   {label}");
        } else {
            eprintln!("FAIL {label}");
            failures += 1;
        }
    };

    let mut json_rows: Vec<String> = Vec::new();
    for sched in [SchedPolicy::RankBased, SchedPolicy::FcfsObject] {
        let clean = fleet(&ds, sched).run();

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let faulted = fleet(&ds, sched).faults(chaos_plan()).run();
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let per_delivery = allocs as f64 / deliveries(&faulted).max(1) as f64;

        check(
            faulted.delivery_multiset() == clean.delivery_multiset(),
            &format!("{sched:?}: faulted multiset == clean multiset"),
        );
        check(
            faulted.shards[2].fault.downs >= 1 && faulted.availability.availability < 1.0,
            &format!("{sched:?}: outage observed in availability counters"),
        );

        let repeat = fleet(&ds, sched).faults(chaos_plan()).run();
        check(
            repeat == faulted,
            &format!("{sched:?}: repeated faulted run is bit-identical"),
        );

        println!(
            "     {sched:?}: {} deliveries, availability {:.4}, {} failovers, \
             {:.1} allocations/delivery",
            deliveries(&faulted),
            faulted.availability.availability,
            faulted.availability.failovers,
            per_delivery
        );
        if let Some(ceiling) = alloc_ceiling {
            check(
                per_delivery <= ceiling,
                &format!("{sched:?}: allocations/delivery {per_delivery:.1} <= {ceiling:.1}"),
            );
        }
        json_rows.push(format!(
            "    {{\"scheduler\": \"{sched:?}\", \"deliveries\": {}, \
             \"availability\": {:.6}, \"downtime_micros\": {}, \"failovers\": {}, \
             \"parked_requests\": {}, \"evacuated_requests\": {}, \
             \"fault_events\": {}, \"allocs_per_delivery\": {per_delivery:.4}}}",
            deliveries(&faulted),
            faulted.availability.availability,
            faulted.availability.downtime_micros,
            faulted.availability.failovers,
            faulted.availability.parked_requests,
            faulted.availability.evacuated_requests,
            faulted.availability.fault_events,
        ));
    }

    if let Some(path) = out_path {
        let json = format!(
            "{{\n  \"schema\": \"BENCH_chaos/v1\",\n  \"cells\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }

    if failures > 0 {
        eprintln!("CHAOS REGRESSION: {failures} invariant(s) violated");
        std::process::exit(1);
    }
    println!("chaos smoke clean: conservation and determinism hold");
}
