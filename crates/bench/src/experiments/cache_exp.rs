//! Figures 11b and 11c: MJoin sensitivity to cache size (§5.2.4).
//!
//! TPC-H Q5 — the six-table join whose input nearly covers the dataset —
//! under shrinking MJoin caches. Shrinking the cache forces evictions of
//! objects still needed by pending subplans, which must be refetched in
//! reissue cycles: execution time and GET counts climb steeply below
//! ~20 % of the dataset size. Figure 11c repeats the sweep at SF-100
//! (127 objects, 14 630 subplans).

use std::sync::Arc;

use skipper_core::runtime::{Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper_datagen::tpch;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_LARGE, DIVISOR_MAIN, GIB, SF_LARGE, SF_MAIN};
use crate::report::{secs, Table};

/// One cache-sweep point.
#[derive(Clone, Copy, Debug)]
pub struct CacheRow {
    /// Cache size in GiB (= objects, at 1 GiB per object).
    pub cache_gib: u64,
    /// Mean Q5 execution time across the 5 clients.
    pub exec_secs: f64,
    /// Total GET requests issued by one client (initial + reissues).
    pub gets_per_client: u64,
}

fn sweep(ctx: &mut Ctx, sf: u32, divisor: u64, cache_gib: &[u64], clients: usize) -> Vec<CacheRow> {
    let ds = ctx.tpch(sf, divisor);
    let q5 = tpch::q5(&ds);
    cache_gib
        .iter()
        .map(|&gib| {
            let client = Workload::new(Arc::clone(&ds))
                .repeat_query(q5.clone(), 1)
                .engine(SkipperFactory::default().cache_bytes(gib * GIB));
            let res = Scenario::from_workloads(vec![client; clients]).run();
            CacheRow {
                cache_gib: gib,
                exec_secs: res.mean_query_secs(),
                gets_per_client: res.total_gets() / clients as u64,
            }
        })
        .collect()
}

/// Runs Figure 11b: SF-50 Q5, caches 10-30 GB, 5 clients.
pub fn fig11b_rows(ctx: &mut Ctx) -> Vec<CacheRow> {
    sweep(ctx, SF_MAIN, DIVISOR_MAIN, &[10, 15, 20, 25, 30], 5)
}

/// The vanilla Q5 reference time quoted alongside Figure 11b
/// ("the average query execution time under vanilla PostgreSQL was
/// 3,710 seconds").
pub fn fig11b_vanilla_reference(ctx: &mut Ctx) -> f64 {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q5 = tpch::q5(&ds);
    let client = Workload::new(ds).repeat_query(q5, 1).engine(VanillaFactory);
    Scenario::from_workloads(vec![client; 5])
        .run()
        .mean_query_secs()
}

/// Figure 11b as a printable table.
pub fn fig11b(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 11b: MJoin cache sensitivity (TPC-H SF-50 Q5, 5 clients)",
        &["cache (GB)", "avg exec (s)", "GET requests"],
    );
    for r in fig11b_rows(ctx) {
        t.push_row(vec![
            r.cache_gib.to_string(),
            secs(r.exec_secs),
            r.gets_per_client.to_string(),
        ]);
    }
    t.push_row(vec![
        "vanilla ref".into(),
        secs(fig11b_vanilla_reference(ctx)),
        "66".into(),
    ]);
    t
}

/// Runs Figure 11c: SF-100 Q5, caches 14-42 objects (10-30 % of the
/// dataset in 5 % steps), 5 clients.
pub fn fig11c_rows(ctx: &mut Ctx) -> Vec<CacheRow> {
    sweep(ctx, SF_LARGE, DIVISOR_LARGE, &[14, 21, 28, 35, 42], 5)
}

/// Figure 11c as a printable table.
pub fn fig11c(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 11c: MJoin cache sensitivity at scale (TPC-H SF-100 Q5, 5 clients, 127 objects, 14630 subplans)",
        &["cache (objects)", "avg exec (s)", "GET requests"],
    );
    for r in fig11c_rows(ctx) {
        t.push_row(vec![
            r.cache_gib.to_string(),
            secs(r.exec_secs),
            r.gets_per_client.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_cache_inflates_gets_and_time() {
        // Miniature sweep: SF-8 Q5 (lineitem 8, orders 2, customer 1,
        // dims 1) with caches from roomy to tight.
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(8, 400_000);
        let q5 = tpch::q5(&ds);
        let objects = ds.objects_for_query(&q5) as u64;
        let run = |gib: u64| {
            let client = Workload::new(Arc::clone(&ds))
                .repeat_query(q5.clone(), 1)
                .engine(SkipperFactory::default().cache_bytes(gib * GIB));
            let res = Scenario::from_workloads(vec![client; 2]).run();
            (res.mean_query_secs(), res.total_gets() / 2)
        };
        let (t_big, g_big) = run(objects); // everything fits
        let (t_small, g_small) = run(6); // one object per relation
        assert_eq!(g_big, objects, "roomy cache must not reissue");
        assert!(
            g_small > g_big,
            "tight cache must reissue: {g_small} !> {g_big}"
        );
        assert!(t_small > t_big);
    }
}
