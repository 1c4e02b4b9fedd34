//! Shard-cache tiering sweep + CI smoke gate.
//!
//! Drives the skewed fleet (hot tenants re-running Q12 against cold
//! one-shot scans) across the cache grid — DRAM sizes from 0 to 40 % of
//! the working set, a DRAM+SSD mix, and the three policies — prints the
//! cost-vs-performance table with its Pareto frontier, and writes
//! `BENCH_tiering.json` (schema `BENCH_tiering/v1`).
//!
//! The smoke gates (any violation exits non-zero):
//!
//! 1. **Zero-size equivalence** — `cache_size(0)` reproduces the
//!    uncached `RunResult` bit for bit: the cache plane is invisible
//!    until switched on.
//! 2. **Conservation** — the cached run delivers exactly the uncached
//!    run's `(client, query, object)` multiset, hits and misses
//!    together: the cache changes *when* bytes arrive, never *which*.
//! 3. **Determinism** — repeating the gated cached run reproduces it
//!    bit for bit.
//! 4. **`--hit-floor F`** — hit rate at the gated config (DRAM = 10 %
//!    of the working set) stays ≥ `F`.
//! 5. **`--speedup-floor X`** — uncached/cached makespan ratio at the
//!    gated config stays ≥ `X` (the ISSUE's ≥ 2× claim).
//! 6. **`--alloc-ceiling C`** — allocations per delivered object on the
//!    gated cached run stay ≤ `C`: the hit fast path must not
//!    re-introduce per-event heap traffic.
//!
//! ```text
//! cargo run --release -p skipper-bench --bin tiering
//! cargo run --release -p skipper-bench --bin tiering -- \
//!     --hit-floor 0.5 --speedup-floor 2.0 --alloc-ceiling 300 \
//!     --out BENCH_tiering.json
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use skipper_bench::experiments::tiering::{
    pareto_frontier, run_config, sweep_grid, table, to_json, GATED_LABEL,
};
use skipper_bench::scenarios::{SkewedFleet, SkewedSpec};

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

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    let mut out_path = String::from("BENCH_tiering.json");
    let mut hit_floor: Option<f64> = None;
    let mut speedup_floor: Option<f64> = None;
    let mut alloc_ceiling: Option<f64> = None;
    let mut spec = SkewedSpec::default();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> &str {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value for {}", args[*i - 1]))
        };
        match args[i].as_str() {
            "--out" => out_path = value(&mut i).to_string(),
            "--hit-floor" => hit_floor = Some(value(&mut i).parse().expect("--hit-floor")),
            "--speedup-floor" => {
                speedup_floor = Some(value(&mut i).parse().expect("--speedup-floor"))
            }
            "--alloc-ceiling" => {
                alloc_ceiling = Some(value(&mut i).parse().expect("--alloc-ceiling"))
            }
            "--hot-tenants" => spec.hot_tenants = value(&mut i).parse().expect("--hot-tenants"),
            "--hot-rounds" => spec.hot_rounds = value(&mut i).parse().expect("--hot-rounds"),
            "--cold-tenants" => spec.cold_tenants = value(&mut i).parse().expect("--cold-tenants"),
            "--shards" => spec.shards = value(&mut i).parse().expect("--shards"),
            other => panic!("unknown flag {other:?}"),
        }
        i += 1;
    }

    let fleet = SkewedFleet::new(spec);
    let ws = fleet.working_set_bytes();
    eprintln!(
        "skewed fleet: {} hot x {} rounds + {} cold scans on {} shards, \
         working set {} GiB (hot head {} GiB)",
        spec.hot_tenants,
        spec.hot_rounds,
        spec.cold_tenants,
        spec.shards,
        ws >> 30,
        fleet.hot_set_bytes() >> 30,
    );

    let grid = sweep_grid(ws);
    let samples: Vec<_> = grid
        .iter()
        .map(|cfg| {
            eprintln!("running {}...", cfg.label);
            run_config(&fleet, cfg, Some(allocation_count))
        })
        .collect();
    println!("{}", table(&fleet, &samples).to_tsv());

    let json = to_json(&fleet, &samples);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    let mut failures = 0u32;
    let mut check = |ok: bool, label: &str| {
        if ok {
            println!("ok   {label}");
        } else {
            eprintln!("FAIL {label}");
            failures += 1;
        }
    };

    // Gate 1: a zero-capacity cache is byte-for-byte the uncached
    // machine.
    let uncached = fleet.scenario().run();
    let zero = fleet.scenario().cache_size(0).run();
    check(zero == uncached, "cache_size(0) == uncached, bit for bit");

    // Gates 2-6 run against the gated grid point (DRAM at 10% of the
    // working set).
    let gated = grid
        .iter()
        .find(|c| c.label == GATED_LABEL)
        .expect("gated config in grid");
    let gated_sample = samples
        .iter()
        .find(|s| s.label == GATED_LABEL)
        .expect("gated sample");
    let uncached_sample = samples
        .iter()
        .find(|s| s.label == "uncached")
        .expect("uncached sample");

    let per_shard = skipper_csd::cache::CacheConfig {
        dram: skipper_csd::cache::TierConfig {
            capacity_bytes: gated.cache.dram.capacity_bytes / spec.shards as u64,
            ..gated.cache.dram
        },
        ..gated.cache
    };
    let cached = fleet.scenario().shard_cache(per_shard).run();
    check(
        cached.delivery_multiset() == uncached.delivery_multiset(),
        "cached multiset == uncached multiset (conservation)",
    );
    let repeat = fleet.scenario().shard_cache(per_shard).run();
    check(repeat == cached, "repeated cached run is bit-identical");

    let speedup = uncached_sample.makespan_secs / gated_sample.makespan_secs;
    println!(
        "     {GATED_LABEL}: hit rate {:.1}%, makespan {:.1}s vs uncached {:.1}s ({speedup:.2}x), \
         {} allocations/delivery",
        gated_sample.hit_rate * 100.0,
        gated_sample.makespan_secs,
        uncached_sample.makespan_secs,
        gated_sample
            .allocs_per_delivery
            .map_or_else(|| "?".into(), |a| format!("{a:.1}")),
    );
    if let Some(floor) = hit_floor {
        check(
            gated_sample.hit_rate >= floor,
            &format!("hit rate {:.3} >= floor {floor:.3}", gated_sample.hit_rate),
        );
    }
    if let Some(floor) = speedup_floor {
        check(
            speedup >= floor,
            &format!("makespan speedup {speedup:.2}x >= floor {floor:.2}x"),
        );
    }
    if let Some(ceiling) = alloc_ceiling {
        let per_delivery = gated_sample
            .allocs_per_delivery
            .expect("allocation probe installed");
        check(
            per_delivery <= ceiling,
            &format!("allocations/delivery {per_delivery:.1} <= {ceiling:.1}"),
        );
    }

    // The frontier must contain a cached configuration: if the uncached
    // point dominates everything, the tiers are economically dead.
    let frontier = pareto_frontier(&samples);
    check(
        frontier.iter().any(|&i| samples[i].label != "uncached"),
        "pareto frontier contains a cached configuration",
    );

    if failures > 0 {
        eprintln!("TIERING REGRESSION: {failures} gate(s) violated");
        std::process::exit(1);
    }
    println!("tiering smoke clean: equivalence, conservation, determinism, economics all hold");
}
