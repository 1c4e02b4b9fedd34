//! Figure 8: cumulative execution time under a mixed workload — plus
//! the mixed-*engine* fleet the layered runtime unlocks.
//!
//! Four tenants share the CSD, each running a different benchmark five
//! times: TPC-H Q12, the MR-bench JoinTask, the NREF protein-count query,
//! and SSB Q1.1 — the paper's demonstration that Skipper's benefit is not
//! TPC-H-specific. The paper compares two homogeneous fleets (all
//! PostgreSQL vs all Skipper); [`mixed_fleet_rows`] additionally runs a
//! *heterogeneous* fleet — Skipper and Vanilla tenants side by side in
//! one scenario.

use std::sync::Arc;

use skipper_core::runtime::{
    EngineFactory, RunResult, Scenario, SkipperFactory, VanillaFactory, Workload,
};
use skipper_datagen::{mrbench, nref, ssb, tpch, Dataset};
use skipper_relational::query::QuerySpec;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{secs, Table};

/// Cumulative seconds per benchmark for one engine.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Benchmark label (paper x-axis).
    pub benchmark: &'static str,
    /// Vanilla cumulative execution time (5 runs).
    pub vanilla_secs: f64,
    /// Skipper cumulative execution time (5 runs).
    pub skipper_secs: f64,
}

/// The four tenants: `(label, dataset, query)`.
pub fn tenants(ctx: &mut Ctx) -> Vec<(&'static str, Arc<Dataset>, QuerySpec)> {
    let tpch_ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let mr_ds = ctx.mrbench(SF_MAIN, DIVISOR_MAIN);
    let nref_ds = ctx.nref(SF_MAIN, DIVISOR_MAIN);
    let ssb_ds = ctx.ssb(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&tpch_ds);
    let mr = mrbench::join_task(&mr_ds);
    let pc = nref::protein_count(&nref_ds);
    let q1 = ssb::q1(&ssb_ds);
    vec![
        ("TPC-H", tpch_ds, q12),
        ("MR-Bench", mr_ds, mr),
        ("NREF", nref_ds, pc),
        ("SSB", ssb_ds, q1),
    ]
}

/// Runs Figure 8 with `reps` repetitions per tenant (paper: 5).
pub fn fig8_rows(ctx: &mut Ctx, reps: usize) -> Vec<Fig8Row> {
    let tenants = tenants(ctx);
    let run = |engine: Arc<dyn EngineFactory>| {
        let workloads: Vec<Workload> = tenants
            .iter()
            .map(|(_, ds, q)| {
                Workload::new(Arc::clone(ds))
                    .repeat_query(q.clone(), reps)
                    .engine_arc(Arc::clone(&engine))
            })
            .collect();
        Scenario::from_workloads(workloads).run()
    };
    let vanilla = run(Arc::new(VanillaFactory));
    let skipper = run(Arc::new(SkipperFactory::default().cache_bytes(30 * GIB)));
    tenants
        .iter()
        .enumerate()
        .map(|(c, (label, _, _))| {
            let sum = |res: &RunResult| {
                res.clients[c]
                    .iter()
                    .map(|r| r.duration().as_secs_f64())
                    .sum::<f64>()
            };
            Fig8Row {
                benchmark: label,
                vanilla_secs: sum(&vanilla),
                skipper_secs: sum(&skipper),
            }
        })
        .collect()
}

/// Figure 8 as a printable table.
pub fn fig8(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 8: cumulative execution time of the mixed workload (5 runs each, s)",
        &["benchmark", "PostgreSQL", "Skipper", "speedup"],
    );
    for r in fig8_rows(ctx, 5) {
        t.push_row(vec![
            r.benchmark.into(),
            secs(r.vanilla_secs),
            secs(r.skipper_secs),
            format!("{:.2}x", r.vanilla_secs / r.skipper_secs),
        ]);
    }
    t
}

/// One tenant's outcome in the heterogeneous fleet.
#[derive(Clone, Debug)]
pub struct MixedFleetRow {
    /// Benchmark label.
    pub benchmark: &'static str,
    /// Engine the tenant ran ("skipper"/"vanilla").
    pub engine: &'static str,
    /// Cumulative execution time over `reps` runs.
    pub cumulative_secs: f64,
    /// GETs in the tenant's first upfront batch (whole working set for
    /// Skipper, 1 for the pull-based baseline).
    pub upfront_gets: u64,
}

/// The mixed-engine migration scenario: TPC-H and NREF tenants have
/// upgraded to Skipper while MR-bench and SSB still run pull-based
/// PostgreSQL — all four against one shared device in a single run.
pub fn mixed_fleet_rows(ctx: &mut Ctx, reps: usize) -> Vec<MixedFleetRow> {
    let tenants = tenants(ctx);
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
    let res = Scenario::from_workloads(workloads).run();
    tenants
        .iter()
        .enumerate()
        .map(|(c, (label, _, _))| MixedFleetRow {
            benchmark: label,
            engine: res.clients[c][0].engine,
            cumulative_secs: res.clients[c]
                .iter()
                .map(|r| r.duration().as_secs_f64())
                .sum(),
            upfront_gets: res.clients[c][0].upfront_gets,
        })
        .collect()
}

/// The mixed-engine fleet as a printable table.
pub fn mixed_fleet(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Mixed-engine fleet: Skipper and PostgreSQL tenants sharing one CSD (5 runs each, s)",
        &["benchmark", "engine", "cumulative(s)", "upfront GETs"],
    );
    for r in mixed_fleet_rows(ctx, 5) {
        t.push_row(vec![
            r.benchmark.into(),
            r.engine.into(),
            secs(r.cumulative_secs),
            r.upfront_gets.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_workload_runs_and_skipper_wins_overall() {
        // Miniature: SF-2 datasets, 1 repetition.
        let mut ctx = Ctx::new();
        let tpch_ds = ctx.tpch(2, 200_000);
        let mr_ds = ctx.mrbench(2, 200_000);
        let run = |engine: Arc<dyn EngineFactory>| {
            Scenario::from_workloads(vec![
                Workload::new(Arc::clone(&tpch_ds))
                    .repeat_query(tpch::q12(&tpch_ds), 1)
                    .engine_arc(Arc::clone(&engine)),
                Workload::new(Arc::clone(&mr_ds))
                    .repeat_query(mrbench::join_task(&mr_ds), 1)
                    .engine_arc(engine),
            ])
            .run()
        };
        let v = run(Arc::new(VanillaFactory));
        let s = run(Arc::new(SkipperFactory::default().cache_bytes(20 * GIB)));
        assert_eq!(v.clients.len(), 2);
        assert!(s.cumulative_secs() < v.cumulative_secs());
        // Both engines agree on every tenant's result (the miniature
        // MR-bench window may legitimately select zero rows).
        for (a, b) in s.records().zip(v.records()) {
            assert_eq!(a.result.len(), b.result.len(), "{}", a.query);
        }
        // The TPC-H tenant's result is non-trivial.
        assert!(!s.clients[0][0].result.is_empty());
    }

    #[test]
    fn mixed_fleet_is_truly_heterogeneous() {
        let mut ctx = Ctx::new();
        let tpch_ds = ctx.tpch(2, 200_000);
        let mr_ds = ctx.mrbench(2, 200_000);
        let workloads = vec![
            Workload::new(Arc::clone(&tpch_ds))
                .repeat_query(tpch::q12(&tpch_ds), 1)
                .engine(SkipperFactory::default().cache_bytes(20 * GIB)),
            Workload::new(Arc::clone(&mr_ds))
                .repeat_query(mrbench::join_task(&mr_ds), 1)
                .engine(VanillaFactory),
        ];
        let res = Scenario::from_workloads(workloads).run();
        assert_eq!(res.clients[0][0].engine, "skipper");
        assert_eq!(res.clients[1][0].engine, "vanilla");
        // Skipper issues its working set upfront; vanilla pulls one
        // object at a time.
        assert!(res.clients[0][0].upfront_gets > 1);
        assert_eq!(res.clients[1][0].upfront_gets, 1);
    }
}
