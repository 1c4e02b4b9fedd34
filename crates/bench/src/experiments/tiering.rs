//! The shard-cache tiering sweep: cost vs performance across cache
//! sizes, tier mixes, and policies.
//!
//! Runs the [`SkewedFleet`] — a head of
//! hot tenants whose Q12 rounds re-GET the same objects against a tail
//! of cold one-shot scans — under a grid of shard-cache configurations,
//! and reports for each the makespan, hit rate, per-query p99, and the
//! end-of-run economics ($/query from amortized capex + energy). The
//! interesting output is the **Pareto frontier** over
//! `(dollars_per_query, makespan)`: small DRAM tiers buy large makespan
//! reductions (the hot head fits), while past the knee extra capacity
//! only caches touch-once cold traffic and the dollars are wasted —
//! the same cost-vs-performance argument the paper makes for the cold
//! tier itself (§2.1), one level up the hierarchy.
//!
//! The `tiering` subcommand runs the [`SkewedFleet`],
//! prints the sweep table with its Pareto frontier, writes
//! `BENCH_tiering.json` (schema `BENCH_tiering/v1`) under `--out PATH`,
//! and runs the smoke gates (any violation exits non-zero):
//!
//! 1. **Soundness** — every grid cell passes [`check_run`]: roll-ups,
//!    ledger, and the Figure 9 breakdown.
//! 2. **Zero-size equivalence** — `CacheConfig::dram_only(0)` reproduces the
//!    uncached `RunResult` bit for bit: the cache plane is invisible
//!    until switched on.
//! 3. **Conservation** — the cached run delivers exactly the uncached
//!    run's `(client, query, object)` multiset, hits and misses
//!    together: the cache changes *when* bytes arrive, never *which*.
//! 4. **Determinism** — repeating the gated cached run reproduces it
//!    bit for bit.
//! 5. **Hit floor** — hit rate at the gated config (DRAM = 10 % of the
//!    working set) stays ≥ [`HIT_FLOOR`].
//! 6. **Speedup floor** — uncached/cached makespan ratio at the gated
//!    config stays ≥ [`SPEEDUP_FLOOR`].
//! 7. **Allocation ceiling** — when the binary's allocation probe is
//!    installed, allocations per delivered object on the gated cached
//!    run stay ≤ [`ALLOC_CEILING`]: the hit fast path must not
//!    re-introduce per-event heap traffic.
//!
//! ```text
//! cargo run --release -p skipper-bench -- tiering --out BENCH_tiering.json
//! ```

use skipper_core::runtime::oracle::{check_run, check_same_work};
use skipper_core::runtime::RunResult;
use skipper_csd::cache::{CacheConfig, CachePolicy, TierConfig};

use crate::cli::{
    allocs_per_delivery, count_allocs, gauge_label, write_artifact, AllocProbe, Flags, Gates,
    UsageError,
};
use crate::report::Table;
use crate::scenarios::{SkewedFleet, COLD_TENANTS, HOT_ROUNDS, HOT_TENANTS, SHARDS};

/// The flags [`command`] accepts.
pub const FLAGS: &str = "[--out PATH]";

/// The gated config's hit rate may not fall below this (measured 0.71).
pub const HIT_FLOOR: f64 = 0.5;

/// The gated config's uncached/cached makespan ratio may not fall below
/// this (measured 2.78).
pub const SPEEDUP_FLOOR: f64 = 2.0;

/// Allocations per delivered object the gated cached run may make:
/// the committed measurement (54.6) + 10 %.
pub const ALLOC_CEILING: f64 = 60.1;

/// One point of the sweep grid: a labelled cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct TieringConfig {
    /// Grid label (e.g. `"dram-10%"`, `"dram-5%+ssd-20%"`).
    pub label: &'static str,
    /// The shard-cache configuration installed on every shard.
    pub cache: CacheConfig,
}

/// Measurements from one sweep run.
#[derive(Clone, Debug)]
pub struct TieringSample {
    /// Grid label of the configuration.
    pub label: &'static str,
    /// Cache policy label (`lru` / `clock` / `group`).
    pub policy: &'static str,
    /// Fleet-total DRAM tier capacity (all shards).
    pub dram_bytes: u64,
    /// Fleet-total SSD tier capacity (all shards).
    pub ssd_bytes: u64,
    /// Run makespan in seconds.
    pub makespan_secs: f64,
    /// Fleet cache hit rate (0 when uncached).
    pub hit_rate: f64,
    /// DRAM-tier hits.
    pub dram_hits: u64,
    /// SSD-tier hits.
    pub ssd_hits: u64,
    /// Cache misses (GETs that reached the CSD).
    pub misses: u64,
    /// DRAM→SSD demotion write-backs.
    pub demotions: u64,
    /// Objects the CSDs actually served.
    pub objects_served: u64,
    /// Group switches across the fleet.
    pub group_switches: u64,
    /// p99 of per-query durations, seconds.
    pub p99_secs: f64,
    /// Mean per-query duration, seconds.
    pub mean_secs: f64,
    /// Energy drawn under the MAID electrical model, Wh.
    pub energy_wh: f64,
    /// Amortized capex + energy for the run, dollars.
    pub total_run_dollars: f64,
    /// Dollars per completed query.
    pub dollars_per_query: f64,
    /// Allocations per delivered object over the drive, when the
    /// binary's allocation probe is installed.
    pub allocs_per_delivery: Option<f64>,
}

/// The sweep grid for a fleet with the given total working set:
/// DRAM-only sizes bracketing the hot head (0 / 2.5 / 5 / 10 / 20 /
/// 40 % of the working set, LRU), one two-tier mix, and the two
/// alternative policies at the 10 % point.
pub fn sweep_grid(working_set_bytes: u64) -> Vec<TieringConfig> {
    let frac = |pct: u64| working_set_bytes * pct / 1000;
    vec![
        TieringConfig {
            label: "uncached",
            cache: CacheConfig::disabled(),
        },
        TieringConfig {
            label: "dram-2.5%",
            cache: CacheConfig::dram_only(frac(25)),
        },
        TieringConfig {
            label: "dram-5%",
            cache: CacheConfig::dram_only(frac(50)),
        },
        TieringConfig {
            label: "dram-10%",
            cache: CacheConfig::dram_only(frac(100)),
        },
        TieringConfig {
            label: "dram-20%",
            cache: CacheConfig::dram_only(frac(200)),
        },
        TieringConfig {
            label: "dram-40%",
            cache: CacheConfig::dram_only(frac(400)),
        },
        TieringConfig {
            label: "dram-5%+ssd-20%",
            cache: CacheConfig::two_tier(frac(50), frac(200)),
        },
        TieringConfig {
            label: "dram-10%-clock",
            cache: CacheConfig::dram_only(frac(100)).with_policy(CachePolicy::Clock),
        },
        TieringConfig {
            label: "dram-10%-group",
            cache: CacheConfig::dram_only(frac(100)).with_policy(CachePolicy::GroupAware),
        },
    ]
}

/// The grid label whose configuration the CI gates (hit-rate floor,
/// speedup floor) are checked against: DRAM at 10 % of the working set.
pub const GATED_LABEL: &str = "dram-10%";

/// A grid point's fleet-total capacities split evenly over the shards
/// (placement spreads every tenant's objects round-robin, so capacity
/// follows the data).
fn per_shard(cache: CacheConfig, shards: u64) -> CacheConfig {
    let split = |tier: TierConfig| TierConfig {
        capacity_bytes: tier.capacity_bytes / shards,
        ..tier
    };
    CacheConfig {
        dram: split(cache.dram),
        ssd: split(cache.ssd),
        policy: cache.policy,
    }
}

/// Runs one grid point on `fleet`; returns its sample and the run's
/// [`check_run`] violations. `probe` counts the run's allocations.
pub fn run_config(
    fleet: &SkewedFleet,
    cfg: &TieringConfig,
    probe: Option<AllocProbe>,
) -> (TieringSample, Vec<String>) {
    let shards = SHARDS as u64;
    let per_shard = per_shard(cfg.cache, shards);
    let (res, allocs) = count_allocs(probe, || fleet.scenario().shard_cache(per_shard).run());
    let violations = check_run(&res)
        .into_iter()
        .map(|v| format!("{}: {v}", cfg.label))
        .collect();
    (
        sample_from(cfg, per_shard, shards, &res, allocs),
        violations,
    )
}

fn sample_from(
    cfg: &TieringConfig,
    per_shard: CacheConfig,
    shards: u64,
    res: &RunResult,
    allocs: Option<u64>,
) -> TieringSample {
    let mut durations: Vec<f64> = res.records().map(|r| r.duration().as_secs_f64()).collect();
    durations.sort_by(f64::total_cmp);
    let pick = |q: f64| {
        if durations.is_empty() {
            0.0
        } else {
            durations[((durations.len() as f64 * q).ceil() as usize).max(1) - 1]
        }
    };
    let delivered = res.device.objects_served + res.cache.hits();
    TieringSample {
        label: cfg.label,
        policy: cfg.cache.policy.label(),
        dram_bytes: per_shard.dram.capacity_bytes * shards,
        ssd_bytes: per_shard.ssd.capacity_bytes * shards,
        makespan_secs: res.makespan.as_secs_f64(),
        hit_rate: res.cache.hit_rate(),
        dram_hits: res.cache.dram_hits,
        ssd_hits: res.cache.ssd_hits,
        misses: res.cache.misses,
        demotions: res.cache.demotions,
        objects_served: res.device.objects_served,
        group_switches: res.device.group_switches,
        p99_secs: pick(0.99),
        mean_secs: if durations.is_empty() {
            0.0
        } else {
            durations.iter().sum::<f64>() / durations.len() as f64
        },
        energy_wh: res.energy.maid_wh,
        total_run_dollars: res.economics.total_run_dollars,
        dollars_per_query: res.economics.dollars_per_query,
        allocs_per_delivery: allocs_per_delivery(allocs, delivered),
    }
}

/// Indices of the samples on the Pareto frontier minimizing
/// `(dollars_per_query, makespan_secs)`: a sample survives unless some
/// other sample is no worse on both axes and strictly better on one.
pub fn pareto_frontier(samples: &[TieringSample]) -> Vec<usize> {
    (0..samples.len())
        .filter(|&i| {
            !samples.iter().enumerate().any(|(j, other)| {
                j != i
                    && other.dollars_per_query <= samples[i].dollars_per_query
                    && other.makespan_secs <= samples[i].makespan_secs
                    && (other.dollars_per_query < samples[i].dollars_per_query
                        || other.makespan_secs < samples[i].makespan_secs)
            })
        })
        .collect()
}

/// The printable sweep table.
pub fn table(fleet: &SkewedFleet, samples: &[TieringSample]) -> Table {
    let frontier = pareto_frontier(samples);
    let mut t = Table::new(
        &format!(
            "Shard-cache tiering sweep ({} hot x {} rounds + {} cold scans, {} shards, \
             working set {} GiB)",
            HOT_TENANTS,
            HOT_ROUNDS,
            COLD_TENANTS,
            SHARDS,
            fleet.working_set_bytes() >> 30,
        ),
        &[
            "config", "policy", "dram GiB", "ssd GiB", "makespan", "hit rate", "p99", "switches",
            "Wh", "$/query", "pareto",
        ],
    );
    for (i, s) in samples.iter().enumerate() {
        t.push_row(vec![
            s.label.to_string(),
            s.policy.to_string(),
            format!("{:.1}", s.dram_bytes as f64 / (1u64 << 30) as f64),
            format!("{:.1}", s.ssd_bytes as f64 / (1u64 << 30) as f64),
            format!("{:.1}s", s.makespan_secs),
            format!("{:.1}%", s.hit_rate * 100.0),
            format!("{:.1}s", s.p99_secs),
            s.group_switches.to_string(),
            format!("{:.1}", s.energy_wh),
            format!("{:.5}", s.dollars_per_query),
            if frontier.contains(&i) { "*" } else { "" }.to_string(),
        ]);
    }
    t
}

/// Renders `BENCH_tiering.json` (schema `BENCH_tiering/v1`).
pub fn to_json(fleet: &SkewedFleet, samples: &[TieringSample]) -> String {
    let mut out = String::from("{\n  \"schema\": \"BENCH_tiering/v1\",\n");
    out.push_str(&format!(
        "  \"fleet\": {{\"hot_tenants\": {}, \"hot_rounds\": {}, \"cold_tenants\": {}, \
         \"shards\": {}, \"working_set_bytes\": {}, \"hot_set_bytes\": {}}},\n",
        HOT_TENANTS,
        HOT_ROUNDS,
        COLD_TENANTS,
        SHARDS,
        fleet.working_set_bytes(),
        fleet.hot_set_bytes(),
    ));
    out.push_str("  \"samples\": [\n");
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"config\": \"{}\", \"policy\": \"{}\", \"dram_bytes\": {}, \
                 \"ssd_bytes\": {}, \"makespan_secs\": {:.6}, \"hit_rate\": {:.6}, \
                 \"dram_hits\": {}, \"ssd_hits\": {}, \"misses\": {}, \"demotions\": {}, \
                 \"objects_served\": {}, \"group_switches\": {}, \"p99_secs\": {:.6}, \
                 \"mean_secs\": {:.6}, \"energy_wh\": {:.3}, \"total_run_dollars\": {:.6}, \
                 \"dollars_per_query\": {:.8}, \"allocs_per_delivery\": {}}}",
                s.label,
                s.policy,
                s.dram_bytes,
                s.ssd_bytes,
                s.makespan_secs,
                s.hit_rate,
                s.dram_hits,
                s.ssd_hits,
                s.misses,
                s.demotions,
                s.objects_served,
                s.group_switches,
                s.p99_secs,
                s.mean_secs,
                s.energy_wh,
                s.total_run_dollars,
                s.dollars_per_query,
                gauge_label(s.allocs_per_delivery, 4),
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    let frontier: Vec<String> = pareto_frontier(samples)
        .into_iter()
        .map(|i| format!("\"{}\"", samples[i].label))
        .collect();
    out.push_str(&format!("  \"pareto\": [{}]\n}}\n", frontier.join(", ")));
    out
}

/// Runs the sweep grid on the default skewed fleet and the smoke
/// gates; returns the gates and the `BENCH_tiering.json` document.
pub fn smoke(probe: Option<AllocProbe>) -> (Gates, String) {
    let fleet = &SkewedFleet::default();
    eprintln!(
        "skewed fleet: {} hot x {} rounds + {} cold scans on {} shards, \
         working set {} GiB (hot head {} GiB)",
        HOT_TENANTS,
        HOT_ROUNDS,
        COLD_TENANTS,
        SHARDS,
        fleet.working_set_bytes() >> 30,
        fleet.hot_set_bytes() >> 30,
    );
    let grid = sweep_grid(fleet.working_set_bytes());
    let mut unsound = Vec::new();
    let samples: Vec<_> = grid
        .iter()
        .map(|cfg| {
            eprintln!("running {}...", cfg.label);
            let (sample, violations) = run_config(fleet, cfg, probe);
            unsound.extend(violations);
            sample
        })
        .collect();
    println!("{}", table(fleet, &samples).to_tsv());
    let json = to_json(fleet, &samples);

    let mut gates = Gates::default();
    gates.violations(
        unsound,
        "every grid cell is sound (roll-ups, ledger, breakdown)",
    );

    // A zero-capacity cache is byte-for-byte the uncached machine.
    let uncached = fleet.scenario().run();
    let zero = fleet
        .scenario()
        .shard_cache(CacheConfig::dram_only(0))
        .run();
    gates.check(zero == uncached, "dram_only(0) == uncached, bit for bit");

    // The rest run against the gated grid point (DRAM at 10% of the
    // working set).
    let at = |label: &str| {
        grid.iter()
            .position(|c| c.label == label)
            .expect("label in grid")
    };
    let (gated_sample, uncached_sample) = (&samples[at(GATED_LABEL)], &samples[at("uncached")]);

    let gated_cache = per_shard(grid[at(GATED_LABEL)].cache, SHARDS as u64);
    let cached = fleet.scenario().shard_cache(gated_cache).run();
    gates.violations(
        check_same_work(&cached, &uncached),
        "cached multiset == uncached multiset (conservation)",
    );
    let repeat = fleet.scenario().shard_cache(gated_cache).run();
    gates.check(repeat == cached, "repeated cached run is bit-identical");

    let speedup = uncached_sample.makespan_secs / gated_sample.makespan_secs;
    let per_delivery = gauge_label(gated_sample.allocs_per_delivery, 1);
    println!(
        "     {GATED_LABEL}: hit rate {:.1}%, makespan {:.1}s vs uncached {:.1}s ({speedup:.2}x), \
         {per_delivery} allocations/delivery",
        gated_sample.hit_rate * 100.0,
        gated_sample.makespan_secs,
        uncached_sample.makespan_secs,
    );
    gates.check(
        gated_sample.hit_rate >= HIT_FLOOR,
        &format!(
            "hit rate {:.3} >= floor {HIT_FLOOR:.3}",
            gated_sample.hit_rate
        ),
    );
    gates.check(
        speedup >= SPEEDUP_FLOOR,
        &format!("makespan speedup {speedup:.2}x >= floor {SPEEDUP_FLOOR:.2}x"),
    );
    gates.alloc_ceiling(gated_sample.allocs_per_delivery, ALLOC_CEILING, "");

    // The frontier must contain a cached configuration: if the uncached
    // point dominates everything, the tiers are economically dead.
    let frontier = pareto_frontier(&samples);
    gates.check(
        frontier.iter().any(|&i| samples[i].label != "uncached"),
        "pareto frontier contains a cached configuration",
    );
    (gates, json)
}

/// The `tiering` subcommand; returns the number of violated gates.
pub fn command(flags: &mut Flags, probe: Option<AllocProbe>) -> Result<u32, UsageError> {
    let out = flags.out()?;
    let (gates, json) = smoke(probe);
    if let Some(path) = out {
        write_artifact(&path, &json)?;
    }
    Ok(gates.finish(
        "TIERING",
        "tiering smoke clean: equivalence, conservation, determinism, economics all hold",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(label: &'static str, dollars: f64, makespan: f64) -> TieringSample {
        TieringSample {
            label,
            policy: "lru",
            dram_bytes: 0,
            ssd_bytes: 0,
            makespan_secs: makespan,
            hit_rate: 0.0,
            dram_hits: 0,
            ssd_hits: 0,
            misses: 0,
            demotions: 0,
            objects_served: 0,
            group_switches: 0,
            p99_secs: 0.0,
            mean_secs: 0.0,
            energy_wh: 0.0,
            total_run_dollars: 0.0,
            dollars_per_query: dollars,
            allocs_per_delivery: None,
        }
    }

    #[test]
    fn pareto_drops_dominated_points() {
        // (0.2, 100) is dominated by (0.1, 90); the cheap-slow and
        // fast-expensive extremes both survive.
        let samples = vec![
            fake("cheap-slow", 0.05, 300.0),
            fake("dominated", 0.2, 100.0),
            fake("knee", 0.1, 90.0),
            fake("fast-expensive", 0.3, 80.0),
        ];
        let frontier = pareto_frontier(&samples);
        assert_eq!(frontier, vec![0, 2, 3]);
    }

    #[test]
    fn grid_brackets_the_gated_point() {
        let grid = sweep_grid(64 << 30);
        assert!(grid.iter().any(|c| c.label == GATED_LABEL));
        assert!(grid.iter().any(|c| !c.cache.enabled()));
        let gated = grid.iter().find(|c| c.label == GATED_LABEL).unwrap();
        assert_eq!(gated.cache.dram.capacity_bytes, (64u64 << 30) / 10);
    }

    #[test]
    fn gates_hold_and_reproduce_the_committed_artifact() {
        let (gates, json) = smoke(None);
        assert_eq!(gates.failures, 0);
        crate::cli::assert_matches_committed(&json, include_str!("../../../../BENCH_tiering.json"));
    }
}
