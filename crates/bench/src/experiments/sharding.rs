//! Fleet scale-out: the mixed-tenant fleet swept across 1→8 CSD shards.
//!
//! The paper's testbed has one emulated CSD; the production question is
//! what happens when the archive outgrows a rack and the same tenants
//! are spread over a *fleet* of devices. This experiment reruns the
//! heterogeneous Figure 8 mix — TPC-H and NREF tenants on Skipper,
//! MR-bench and SSB still pull-based — against 1 through 8 shards and
//! reports the makespan, the switch bill, and the per-shard balance.
//! Work is conserved by construction (the determinism/property suite in
//! `tests/sharding.rs` pins that), so every speedup here is pure
//! parallelism: more spun-up groups serving at once.

use std::sync::Arc;

use skipper_core::runtime::{Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper_csd::PlacementPolicy;

use crate::ctx::Ctx;
use crate::experiments::mixed;
use crate::experiments::params::GIB;
use crate::report::{secs, Table};

/// One shard count's outcome under the mixed-tenant fleet.
#[derive(Clone, Debug)]
pub struct ShardingRow {
    /// Fleet size.
    pub shards: usize,
    /// Placement policy label.
    pub placement: &'static str,
    /// Virtual makespan of the whole fleet run.
    pub makespan_secs: f64,
    /// Mean per-query execution time.
    pub mean_query_secs: f64,
    /// Total paid group switches across all shards.
    pub total_switches: u64,
    /// Objects served by the least-loaded shard.
    pub min_shard_objects: u64,
    /// Objects served by the most-loaded shard.
    pub max_shard_objects: u64,
}

/// Runs the sweep for one placement policy with `reps` repetitions per
/// tenant.
pub fn sharding_rows(ctx: &mut Ctx, placement: PlacementPolicy, reps: usize) -> Vec<ShardingRow> {
    let tenants = mixed::tenants(ctx);
    (1..=8)
        .map(|shards| {
            let workloads: Vec<Workload> = tenants
                .iter()
                .enumerate()
                .map(|(i, (_, ds, q))| {
                    let w = Workload::new(Arc::clone(ds)).repeat_query(q.clone(), reps);
                    if i % 2 == 0 {
                        w.engine(SkipperFactory::default().cache_bytes(30 * GIB))
                    } else {
                        w.engine(VanillaFactory)
                    }
                })
                .collect();
            let res = Scenario::from_workloads(workloads)
                .shards(shards)
                .placement(placement)
                .run();
            let objects: Vec<u64> = res
                .shards
                .iter()
                .map(|s| s.metrics.objects_served)
                .collect();
            ShardingRow {
                shards,
                placement: placement.label(),
                makespan_secs: res.makespan.as_secs_f64(),
                mean_query_secs: res.mean_query_secs(),
                total_switches: res.device.group_switches,
                min_shard_objects: objects.iter().copied().min().unwrap_or(0),
                max_shard_objects: objects.iter().copied().max().unwrap_or(0),
            }
        })
        .collect()
}

/// The sharding sweep as a printable table (round-robin and hash
/// placement side by side).
pub fn sharding(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Fleet scale-out: mixed-tenant fleet on 1-8 CSD shards (5 runs per tenant)",
        &[
            "shards",
            "placement",
            "makespan(s)",
            "mean query(s)",
            "switches",
            "min/max shard objects",
        ],
    );
    for placement in [PlacementPolicy::RoundRobin, PlacementPolicy::HashObject] {
        for r in sharding_rows(ctx, placement, 5) {
            t.push_row(vec![
                r.shards.to_string(),
                r.placement.into(),
                secs(r.makespan_secs),
                secs(r.mean_query_secs),
                r.total_switches.to_string(),
                format!("{}/{}", r.min_shard_objects, r.max_shard_objects),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shrinks_makespan_and_conserves_objects() {
        // Miniature: SF-2 datasets, 1 repetition, round-robin placement.
        let mut ctx = Ctx::new();
        // Warm the miniature datasets so mixed::tenants at SF_MAIN is
        // not required: run the sweep directly over two tenants.
        let tpch_ds = ctx.tpch(2, 200_000);
        let mr_ds = ctx.mrbench(2, 200_000);
        let mk = |shards: usize| {
            Scenario::from_workloads(vec![
                Workload::new(Arc::clone(&tpch_ds))
                    .repeat_query(skipper_datagen::tpch::q12(&tpch_ds), 1)
                    .engine(SkipperFactory::default().cache_bytes(20 * GIB)),
                Workload::new(Arc::clone(&mr_ds))
                    .repeat_query(skipper_datagen::mrbench::join_task(&mr_ds), 1)
                    .engine(VanillaFactory),
            ])
            .shards(shards)
            .placement(PlacementPolicy::RoundRobin)
            .run()
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(
            one.device.objects_served, four.device.objects_served,
            "sharding must conserve work"
        );
        assert!(
            four.makespan <= one.makespan,
            "4 shards slower than 1: {} > {}",
            four.makespan,
            one.makespan
        );
        assert_eq!(four.shards.len(), 4);
    }
}
