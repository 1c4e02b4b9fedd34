//! Ablations of Skipper's design choices (the registry's `ablations` entry).
//!
//! Three A/B comparisons the paper motivates qualitatively, quantified
//! here:
//!
//! 1. **Cache eviction** (§4.2): maximal-progress vs
//!    maximal-pending-subplans at a tight cache.
//! 2. **Intra-group ordering** (§4.4): semantically-smart round-robin vs
//!    naive table-major delivery.
//! 3. **Subplan pruning** (§5.2.4): on a clustered-selectivity workload
//!    where most orders segments contain no qualifying tuples.

use std::sync::Arc;

use skipper_core::cache::EvictionPolicy;
use skipper_core::runtime::{Scenario, SkipperFactory, Workload};
use skipper_csd::IntraGroupOrder;
use skipper_datagen::{tpch, Dataset};
use skipper_relational::expr::Expr;
use skipper_relational::query::QuerySpec;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{secs, Table};

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which design dimension.
    pub dimension: &'static str,
    /// Variant label.
    pub variant: String,
    /// Mean execution time.
    pub exec_secs: f64,
    /// GETs per client.
    pub gets_per_client: u64,
    /// Subplans executed per client.
    pub subplans_per_client: u64,
}

/// `n` Skipper clients configured by `engine`, each running `q` once.
fn skipper_clients(
    ds: &Arc<Dataset>,
    q: &QuerySpec,
    n: usize,
    engine: SkipperFactory,
) -> Vec<Workload> {
    let client = Workload::new(Arc::clone(ds))
        .repeat_query(q.clone(), 1)
        .engine(engine);
    vec![client; n]
}

/// Eviction-policy A/B: Q5, 5 clients, swept over cache pressure (the
/// paper's §4.2 argument concerns *low* cache capacities).
pub fn eviction_rows(ctx: &mut Ctx) -> Vec<AblationRow> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q5 = tpch::q5(&ds);
    let mut out = Vec::new();
    for cache_gib in [8u64, 12, 20] {
        for policy in [
            EvictionPolicy::MaximalProgress,
            EvictionPolicy::MaxPendingSubplans,
        ] {
            let engine = SkipperFactory::default()
                .cache_bytes(cache_gib * GIB)
                .eviction(policy);
            let res = Scenario::from_workloads(skipper_clients(&ds, &q5, 5, engine)).run();
            out.push(AblationRow {
                dimension: "eviction",
                variant: format!("{} @{}GB", policy.label(), cache_gib),
                exec_secs: res.mean_query_secs(),
                gets_per_client: res.total_gets() / 5,
                subplans_per_client: res
                    .records()
                    .map(|r| r.stats.subplans_executed)
                    .sum::<u64>()
                    / 5,
            });
        }
    }
    out
}

/// Intra-group-ordering A/B: Q5, 5 clients, swept over cache pressure.
/// Semantically-smart round-robin matters when the cache cannot hold the
/// build side; with ample cache, table-major delivery degenerates to the
/// classic build-then-probe order and is equally good.
pub fn ordering_rows(ctx: &mut Ctx) -> Vec<AblationRow> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q5 = tpch::q5(&ds);
    let mut out = Vec::new();
    for cache_gib in [8u64, 15] {
        for order in [
            IntraGroupOrder::SemanticRoundRobin,
            IntraGroupOrder::TableOrder,
        ] {
            let engine = SkipperFactory::default().cache_bytes(cache_gib * GIB);
            let res = Scenario::from_workloads(skipper_clients(&ds, &q5, 5, engine))
                .intra_order(order)
                .run();
            out.push(AblationRow {
                dimension: "intra-group order",
                variant: format!("{order:?} @{}GB", cache_gib),
                exec_secs: res.mean_query_secs(),
                gets_per_client: res.total_gets() / 5,
                subplans_per_client: res
                    .records()
                    .map(|r| r.stats.subplans_executed)
                    .sum::<u64>()
                    / 5,
            });
        }
    }
    out
}

/// A Q12 variant whose orders-side predicate only matches the first
/// orders segment (keys are partitioned per segment), so every other
/// orders object is prunable.
pub fn clustered_q12(ds: &Dataset) -> QuerySpec {
    let mut spec = tpch::q12(ds);
    spec.name = "tpch-q12-clustered".into();
    let orders_idx = ds.catalog.index_of("orders").unwrap();
    let orders = &ds.catalog.table(orders_idx).schema;
    let seg_rows = ds.segments[orders_idx][0].len() as i64;
    spec.filters[0] = Some(Expr::col(orders.col("o_orderkey")).le(Expr::lit(seg_rows)));
    spec
}

/// Subplan-pruning A/B on the clustered workload: 5 clients, tight cache.
pub fn pruning_rows(ctx: &mut Ctx) -> Vec<AblationRow> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let spec = clustered_q12(&ds);
    [false, true]
        .iter()
        .map(|&prune| {
            let engine = SkipperFactory::default()
                .cache_bytes(4 * GIB)
                .prune_empty(prune);
            let res = Scenario::from_workloads(skipper_clients(&ds, &spec, 5, engine)).run();
            AblationRow {
                dimension: "subplan pruning",
                variant: if prune { "enabled" } else { "disabled" }.to_string(),
                exec_secs: res.mean_query_secs(),
                gets_per_client: res.total_gets() / 5,
                subplans_per_client: res
                    .records()
                    .map(|r| r.stats.subplans_executed)
                    .sum::<u64>()
                    / 5,
            }
        })
        .collect()
}

/// All ablations as one printable table.
pub fn ablations(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Ablations: Skipper design choices (5 clients)",
        &[
            "dimension",
            "variant",
            "avg exec (s)",
            "GETs/client",
            "subplans/client",
        ],
    );
    let mut rows = eviction_rows(ctx);
    rows.extend(ordering_rows(ctx));
    rows.extend(pruning_rows(ctx));
    for r in rows {
        t.push_row(vec![
            r.dimension.into(),
            r.variant,
            secs(r.exec_secs),
            r.gets_per_client.to_string(),
            r.subplans_per_client.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_reduces_work_on_clustered_data() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(8, 400_000);
        let spec = clustered_q12(&ds);
        let run = |prune: bool| {
            let engine = SkipperFactory::default()
                .cache_bytes(3 * GIB)
                .prune_empty(prune);
            Scenario::from_workloads(skipper_clients(&ds, &spec, 2, engine)).run()
        };
        let without = run(false);
        let with = run(true);
        let sub = |res: &skipper_core::runtime::RunResult| {
            res.records()
                .map(|r| r.stats.subplans_executed)
                .sum::<u64>()
        };
        assert!(
            sub(&with) < sub(&without),
            "pruning must skip subplans: {} !< {}",
            sub(&with),
            sub(&without)
        );
        // Pruned objects are detected.
        let pruned: u64 = with.records().map(|r| r.stats.pruned_objects).sum();
        assert!(pruned > 0);
        // Same results either way.
        for (a, b) in with.records().zip(without.records()) {
            assert_eq!(a.result, b.result);
        }
    }

    #[test]
    fn semantic_ordering_beats_table_major_at_tight_cache() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(8, 400_000);
        let q5 = tpch::q5(&ds);
        let run = |order| {
            let engine = SkipperFactory::default().cache_bytes(7 * GIB);
            Scenario::from_workloads(skipper_clients(&ds, &q5, 1, engine))
                .intra_order(order)
                .run()
        };
        let smart = run(IntraGroupOrder::SemanticRoundRobin);
        let naive = run(IntraGroupOrder::TableOrder);
        assert!(
            smart.total_gets() <= naive.total_gets(),
            "semantic ordering should not reissue more: {} vs {}",
            smart.total_gets(),
            naive.total_gets()
        );
    }
}
