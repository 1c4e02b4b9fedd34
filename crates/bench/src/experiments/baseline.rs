//! Figures 4 and 5: the motivating baseline pathology (§3.2).
//!
//! Vanilla PostgreSQL over a shared CSD: per-segment pull-based GETs make
//! every pair of consecutive requests pay a full round of group switches,
//! so execution time grows like `S × C × D` and is hypersensitive to the
//! switch latency.

use std::sync::Arc;

use skipper_core::runtime::{Scenario, VanillaFactory, Workload};
use skipper_csd::LayoutPolicy;
use skipper_datagen::{tpch, Dataset};
use skipper_relational::query::QuerySpec;
use skipper_sim::SimDuration;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, SF_MAIN};
use crate::report::{secs, Table};

/// The "PostgreSQL-on-HDD (ideal)" reference: on the HDD capacity tier
/// every tenant effectively has a dedicated 110 MB/s stream (the RAID
/// array's 1.2 GB/s aggregate is not bandwidth-bound at five streams),
/// which is why the paper's ideal line in Figure 4 stays flat as clients
/// are added. Modelled as an uncontended single-client run.
pub fn ideal_hdd_secs(ds: &Arc<Dataset>, q: &QuerySpec) -> f64 {
    Scenario::from_workloads(vanilla_clients(ds, q, 1))
        .layout(LayoutPolicy::AllInOne)
        .run()
        .mean_query_secs()
}

/// `n` vanilla PostgreSQL clients, each running `q` once.
fn vanilla_clients(ds: &Arc<Dataset>, q: &QuerySpec, n: usize) -> Vec<Workload> {
    let client = Workload::new(Arc::clone(ds))
        .repeat_query(q.clone(), 1)
        .engine(VanillaFactory);
    vec![client; n]
}

/// One Figure 4 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Row {
    /// Concurrent clients.
    pub clients: usize,
    /// Mean query time on the CSD (one group per client).
    pub on_csd_secs: f64,
    /// Mean query time on the emulated HDD tier (all data in one group).
    pub on_hdd_secs: f64,
}

/// Runs Figure 4: vanilla PostgreSQL, TPC-H Q12, 1-5 clients, S = 10 s.
pub fn fig4_rows(ctx: &mut Ctx) -> Vec<Fig4Row> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    let ideal = ideal_hdd_secs(&ds, &q12);
    (1..=5)
        .map(|clients| {
            let on_csd = Scenario::from_workloads(vanilla_clients(&ds, &q12, clients))
                .layout(LayoutPolicy::OneClientPerGroup)
                .run();
            Fig4Row {
                clients,
                on_csd_secs: on_csd.mean_query_secs(),
                on_hdd_secs: ideal,
            }
        })
        .collect()
}

/// Figure 4 as a printable table.
pub fn fig4(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 4: vanilla PostgreSQL on CSD vs HDD (TPC-H Q12, S=10s, avg exec s)",
        &["clients", "PostgreSQL-on-CSD", "PostgreSQL-on-HDD (ideal)"],
    );
    for r in fig4_rows(ctx) {
        t.push_row(vec![
            r.clients.to_string(),
            secs(r.on_csd_secs),
            secs(r.on_hdd_secs),
        ]);
    }
    t
}

/// One Figure 5 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig5Row {
    /// Group-switch latency in seconds.
    pub switch_secs: u64,
    /// Mean query time (5 clients).
    pub exec_secs: f64,
}

/// Runs Figure 5: vanilla, 5 clients, switch latency 0-20 s.
pub fn fig5_rows(ctx: &mut Ctx) -> Vec<Fig5Row> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    [0u64, 5, 10, 15, 20]
        .iter()
        .map(|&s| {
            let res = Scenario::from_workloads(vanilla_clients(&ds, &q12, 5))
                .switch_latency(SimDuration::from_secs(s))
                .run();
            Fig5Row {
                switch_secs: s,
                exec_secs: res.mean_query_secs(),
            }
        })
        .collect()
}

/// Figure 5 as a printable table.
pub fn fig5(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 5: vanilla sensitivity to group-switch latency (5 clients, Q12, avg exec s)",
        &["switch latency (s)", "avg exec (s)"],
    );
    for r in fig5_rows(ctx) {
        t.push_row(vec![r.switch_secs.to_string(), secs(r.exec_secs)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ctx_rows() -> Vec<Fig4Row> {
        // Tests run the same code at SF-4 via a private context to stay
        // fast in debug builds.
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 100_000);
        let q12 = tpch::q12(&ds);
        let ideal = ideal_hdd_secs(&ds, &q12);
        (1..=3)
            .map(|clients| {
                let on_csd = Scenario::from_workloads(vanilla_clients(&ds, &q12, clients)).run();
                Fig4Row {
                    clients,
                    on_csd_secs: on_csd.mean_query_secs(),
                    on_hdd_secs: ideal,
                }
            })
            .collect()
    }

    #[test]
    fn csd_time_grows_with_clients_hdd_stays_flatter() {
        let rows = small_ctx_rows();
        // CSD time grows superlinearly vs the single-client case...
        assert!(rows[2].on_csd_secs > 2.0 * rows[0].on_csd_secs);
        // ...and the no-switch configuration is always faster.
        for r in &rows {
            assert!(r.on_hdd_secs <= r.on_csd_secs + 1e-9);
        }
        // One client on its own group = HDD-identical (no switches).
        assert!((rows[0].on_csd_secs - rows[0].on_hdd_secs).abs() < 1e-6);
    }

    #[test]
    fn latency_sensitivity_is_superlinear_for_vanilla() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 100_000);
        let q12 = tpch::q12(&ds);
        let run = |s: u64| {
            Scenario::from_workloads(vanilla_clients(&ds, &q12, 3))
                .switch_latency(SimDuration::from_secs(s))
                .run()
                .mean_query_secs()
        };
        let t0 = run(0);
        let t10 = run(10);
        let t20 = run(20);
        assert!(t10 > t0);
        // Linear-in-S growth: the S=20 delta is ~2× the S=10 delta.
        let d10 = t10 - t0;
        let d20 = t20 - t0;
        assert!(
            (d20 / d10 - 2.0).abs() < 0.2,
            "expected linear growth in S, got d10={d10:.1} d20={d20:.1}"
        );
    }
}
