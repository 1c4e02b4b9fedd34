//! A shard cache absorbing the head of a skewed tenant population.
//!
//! Six tenants share one CSD, with Zipfian-ish demand: tenant `i`
//! re-runs Q12 about `1/(i+1)` as often as tenant 0, released at
//! seeded staggered starts. Uncached, every round pays queue + switch +
//! cold transfer, and the busy head tenants suffer the most. A DRAM
//! tier sized to ~11% of the stored working set, under the group-aware
//! policy (evict from the least-recently-used *disk group*, so a
//! tenant whose group keeps getting hit stays fully resident), absorbs
//! the hot head: warm-round GETs complete at DRAM bandwidth without
//! touching the device, warm p99 collapses by an order of magnitude
//! for cache-resident tenants, and the fleet makespan, switch count,
//! energy, and $/query drop with it.
//!
//! ```text
//! cargo run --release --example tiered_fleet
//! ```

use std::sync::Arc;

use skipper::core::runtime::oracle::{check_run, check_same_work};
use skipper::core::runtime::{RunResult, Scenario, SkipperFactory, Workload};
use skipper::csd::cache::{CacheConfig, CachePolicy};
use skipper::datagen::{tpch, GenConfig};
use skipper::sim::rng::splitmix64;
use skipper::sim::SimDuration;

const TENANTS: usize = 6;
const HEAD_ROUNDS: usize = 18;

fn fleet(data: &Arc<skipper::datagen::Dataset>) -> Vec<Workload> {
    let q12 = tpch::q12(data);
    // Seeded stagger: deterministic, but not lockstep.
    let mut seed = 0x5eed_cafe;
    (0..TENANTS)
        .map(|i| {
            let rounds = (HEAD_ROUNDS / (i + 1)).max(2);
            let offset = splitmix64(&mut seed) % 30;
            Workload::new(Arc::clone(data))
                .repeat_query(q12.clone(), rounds)
                .engine(SkipperFactory::default().cache_bytes(30 << 30))
                .start_at(SimDuration::from_secs(offset))
        })
        .collect()
}

/// Warm-round p99 (here: max — each tenant has well under 100 queries)
/// of a tenant's query durations, seconds. The first round is excluded:
/// it is the compulsory-miss round that fills the cache, identical in
/// both runs, and a tenant's steady state is what its users feel.
fn warm_p99_secs(res: &RunResult, tenant: usize) -> f64 {
    res.clients[tenant]
        .iter()
        .skip(1)
        .map(|r| r.duration().as_secs_f64())
        .fold(0.0, f64::max)
}

fn main() {
    // SF-2: 9 objects of 1 GiB per tenant; Q12 touches 3 of them.
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(42, 2).with_phys_divisor(100_000),
    ));
    let stored_gib = TENANTS as u64 * data.total_objects() as u64;

    let uncached = Scenario::from_workloads(fleet(&data)).run();
    // 6 GiB of DRAM over 54 GiB stored: room for the head two tenants'
    // entire Q12 working sets, and not much else.
    let dram = CacheConfig::dram_only(6 << 30).with_policy(CachePolicy::GroupAware);
    let cached = Scenario::from_workloads(fleet(&data))
        .shard_cache(dram)
        .run();

    // The cache changes when bytes arrive, never which.
    assert_eq!(check_run(&cached), Vec::<String>::new());
    assert_eq!(check_same_work(&cached, &uncached), Vec::<String>::new());

    println!(
        "{TENANTS} tenants, {stored_gib} GiB stored, DRAM tier {} GiB ({}% of working set)\n",
        dram.dram.capacity_bytes >> 30,
        100 * dram.dram.capacity_bytes / (stored_gib << 30),
    );
    println!("tenant  rounds  uncached warm p99(s)  cached warm p99(s)  speedup");
    for tenant in 0..TENANTS {
        let rounds = uncached.clients[tenant].len();
        let (before, after) = (
            warm_p99_secs(&uncached, tenant),
            warm_p99_secs(&cached, tenant),
        );
        println!(
            "{tenant:>6}  {rounds:>6}  {before:>20.1}  {after:>18.1}  {:>6.2}x",
            before / after
        );
    }
    println!(
        "\nmakespan {:.0}s -> {:.0}s ({:.2}x), hit rate {:.1}%, switches {} -> {}",
        uncached.makespan.as_secs_f64(),
        cached.makespan.as_secs_f64(),
        uncached.makespan.as_secs_f64() / cached.makespan.as_secs_f64(),
        cached.cache.hit_rate() * 100.0,
        uncached.device.group_switches,
        cached.device.group_switches,
    );
    println!(
        "energy {:.0} Wh -> {:.0} Wh, ${:.5}/query -> ${:.5}/query",
        uncached.energy.maid_wh,
        cached.energy.maid_wh,
        uncached.economics.dollars_per_query,
        cached.economics.dollars_per_query,
    );
}
