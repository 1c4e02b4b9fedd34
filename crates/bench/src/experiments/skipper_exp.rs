//! Figures 7, 9, 10 and Table 3: the core Skipper-vs-vanilla results.

use std::sync::Arc;

use skipper_core::config::CostModel;
use skipper_core::runtime::{
    EngineFactory, RunResult, Scenario, SkipperFactory, VanillaFactory, Workload,
};
use skipper_csd::LayoutPolicy;
use skipper_datagen::{tpch, Dataset};
use skipper_relational::query::QuerySpec;
use skipper_sim::SimDuration;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{pct, secs, Table};

/// The paper's default Skipper cache: 30 GB (half the Q12 working set's
/// dataset class).
pub const CACHE_BYTES: u64 = 30 * GIB;

/// `n` vanilla PostgreSQL clients, each running `q` once.
fn postgres(ds: &Arc<Dataset>, q: &QuerySpec, n: usize) -> Vec<Workload> {
    clients(ds, q, n, Arc::new(VanillaFactory))
}

/// `n` Skipper clients with `cache` bytes of MJoin buffer each, each
/// running `q` once.
fn skipper(ds: &Arc<Dataset>, q: &QuerySpec, n: usize, cache: u64) -> Vec<Workload> {
    let engine = SkipperFactory::default().cache_bytes(cache);
    clients(ds, q, n, Arc::new(engine))
}

fn clients(
    ds: &Arc<Dataset>,
    q: &QuerySpec,
    n: usize,
    engine: Arc<dyn EngineFactory>,
) -> Vec<Workload> {
    let client = Workload::new(Arc::clone(ds))
        .repeat_query(q.clone(), 1)
        .engine_arc(engine);
    vec![client; n]
}

/// One Figure 7 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig7Row {
    /// Concurrent clients.
    pub clients: usize,
    /// Vanilla on CSD.
    pub vanilla_secs: f64,
    /// Skipper on CSD.
    pub skipper_secs: f64,
    /// Vanilla with the all-in-one (no-switch) layout — the HDD ideal.
    pub ideal_secs: f64,
}

/// Runs Figure 7: Skipper vs vanilla vs ideal, TPC-H Q12, 1-5 clients.
pub fn fig7_rows(ctx: &mut Ctx) -> Vec<Fig7Row> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    let ideal = crate::experiments::baseline::ideal_hdd_secs(&ds, &q12);
    (1..=5)
        .map(|clients| {
            let vanilla = Scenario::from_workloads(postgres(&ds, &q12, clients)).run();
            let pushed = Scenario::from_workloads(skipper(&ds, &q12, clients, CACHE_BYTES)).run();
            Fig7Row {
                clients,
                vanilla_secs: vanilla.mean_query_secs(),
                skipper_secs: pushed.mean_query_secs(),
                ideal_secs: ideal,
            }
        })
        .collect()
}

/// Figure 7 as a printable table.
pub fn fig7(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 7: average execution time, Skipper vs PostgreSQL vs ideal (Q12, S=10s)",
        &["clients", "PostgreSQL", "Skipper", "Ideal"],
    );
    for r in fig7_rows(ctx) {
        t.push_row(vec![
            r.clients.to_string(),
            secs(r.vanilla_secs),
            secs(r.skipper_secs),
            secs(r.ideal_secs),
        ]);
    }
    t
}

/// One engine's Figure 9 breakdown (fractions of end-to-end time).
#[derive(Clone, Copy, Debug)]
pub struct Fig9Row {
    /// Engine label.
    pub engine: &'static str,
    /// Useful processing fraction.
    pub processing: f64,
    /// Group-switch stall fraction.
    pub switching: f64,
    /// Transfer stall fraction.
    pub transfer: f64,
    /// Device-idle waits (usually ~0).
    pub idle: f64,
}

fn breakdown(res: &RunResult, engine: &'static str) -> Fig9Row {
    let (mut proc, mut sw, mut tr, mut idle, mut total) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for r in res.records() {
        proc += r.processing.as_secs_f64();
        sw += r.stalls.switching.as_secs_f64();
        tr += r.stalls.transfer.as_secs_f64();
        idle += r.stalls.idle.as_secs_f64();
        total += r.duration().as_secs_f64();
    }
    Fig9Row {
        engine,
        processing: proc / total,
        switching: sw / total,
        transfer: tr / total,
        idle: idle / total,
    }
}

/// Runs Figure 9: 5-client execution-time breakdown for both engines.
pub fn fig9_rows(ctx: &mut Ctx) -> Vec<Fig9Row> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    let vanilla = Scenario::from_workloads(postgres(&ds, &q12, 5)).run();
    let pushed = Scenario::from_workloads(skipper(&ds, &q12, 5, CACHE_BYTES)).run();
    vec![
        breakdown(&vanilla, "PostgreSQL"),
        breakdown(&pushed, "Skipper"),
    ]
}

/// Figure 9 as a printable table.
pub fn fig9(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 9: avg execution-time breakdown, 5 clients (fractions of total)",
        &[
            "engine",
            "processing",
            "switch stall",
            "transfer stall",
            "device idle",
        ],
    );
    for r in fig9_rows(ctx) {
        t.push_row(vec![
            r.engine.into(),
            pct(r.processing),
            pct(r.switching),
            pct(r.transfer),
            pct(r.idle),
        ]);
    }
    t
}

/// One Figure 10 point.
#[derive(Clone, Copy, Debug)]
pub struct Fig10Row {
    /// Switch latency in seconds.
    pub switch_secs: u64,
    /// Vanilla mean execution time.
    pub vanilla_secs: f64,
    /// Skipper mean execution time.
    pub skipper_secs: f64,
}

/// Runs Figure 10: sensitivity to switch latency 10-40 s, 5 clients.
pub fn fig10_rows(ctx: &mut Ctx) -> Vec<Fig10Row> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    [10u64, 20, 30, 40]
        .iter()
        .map(|&s| {
            let vanilla = Scenario::from_workloads(postgres(&ds, &q12, 5))
                .switch_latency(SimDuration::from_secs(s))
                .run();
            let pushed = Scenario::from_workloads(skipper(&ds, &q12, 5, CACHE_BYTES))
                .switch_latency(SimDuration::from_secs(s))
                .run();
            Fig10Row {
                switch_secs: s,
                vanilla_secs: vanilla.mean_query_secs(),
                skipper_secs: pushed.mean_query_secs(),
            }
        })
        .collect()
}

/// Figure 10 as a printable table.
pub fn fig10(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 10: sensitivity to CSD group-switch latency (5 clients, Q12, avg exec s)",
        &["switch latency (s)", "PostgreSQL", "Skipper"],
    );
    for r in fig10_rows(ctx) {
        t.push_row(vec![
            r.switch_secs.to_string(),
            secs(r.vanilla_secs),
            secs(r.skipper_secs),
        ]);
    }
    t
}

/// Table 3 measurements: component times in seconds per engine.
#[derive(Clone, Copy, Debug)]
pub struct Table3Row {
    /// Engine label.
    pub engine: &'static str,
    /// Pure query-execution time (local data, no FUSE).
    pub query_exec_secs: f64,
    /// FUSE file-system overhead (vanilla only; 0 for Skipper).
    pub fuse_secs: f64,
    /// Network-access overhead (remote single-group Swift vs local).
    pub network_secs: f64,
}

/// Runs the Table 3 component breakdown: single client, Q12, three
/// configurations (local / local+FUSE / remote single-group).
pub fn table3_rows(ctx: &mut Ctx) -> Vec<Table3Row> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    let run = |client: &[Workload], cost: CostModel, bandwidth: f64| {
        Scenario::from_workloads(client.to_vec())
            .layout(LayoutPolicy::AllInOne)
            .cost(cost)
            .bandwidth(bandwidth)
            .run()
            .mean_query_secs()
    };
    let default_bw = 110.0 * 1024.0 * 1024.0;
    let calibrated = CostModel::paper_calibrated();

    // PostgreSQL reads through FUSE; Skipper's client proxy bypasses it.
    [
        ("PostgreSQL", postgres(&ds, &q12, 1), true),
        ("Skipper", skipper(&ds, &q12, 1, CACHE_BYTES), false),
    ]
    .into_iter()
    .map(|(engine, client, through_fuse)| {
        let local = run(&client, calibrated.without_fuse(), 0.0);
        let (with_fuse, deployed) = if through_fuse {
            (run(&client, calibrated, 0.0), calibrated)
        } else {
            (local, calibrated.without_fuse())
        };
        let remote = run(&client, deployed, default_bw);
        Table3Row {
            engine,
            query_exec_secs: local,
            fuse_secs: with_fuse - local,
            network_secs: remote - with_fuse,
        }
    })
    .collect()
}

/// Table 3 as a printable table.
pub fn table3(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Table 3: execution breakdown of PostgreSQL and Skipper (1 client, Q12, seconds)",
        &["component", "PostgreSQL", "%", "Skipper", "%"],
    );
    let rows = table3_rows(ctx);
    let (v, s) = (rows[0], rows[1]);
    let vt = v.query_exec_secs + v.fuse_secs + v.network_secs;
    let st = s.query_exec_secs + s.fuse_secs + s.network_secs;
    let mut push = |name: &str, vv: f64, sv: Option<f64>| {
        t.push_row(vec![
            name.into(),
            format!("{vv:.1}"),
            pct(vv / vt),
            sv.map(|x| format!("{x:.1}")).unwrap_or_else(|| "/".into()),
            sv.map(|x| pct(x / st)).unwrap_or_else(|| "/".into()),
        ]);
    };
    push(
        "Query execution",
        v.query_exec_secs,
        Some(s.query_exec_secs),
    );
    push("FUSE file system", v.fuse_secs, None);
    push("Network access", v.network_secs, Some(s.network_secs));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared miniature runs (SF-4) exercising the same code paths.
    fn mini(n: usize, engine: impl EngineFactory + 'static) -> RunResult {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 100_000);
        let q12 = tpch::q12(&ds);
        Scenario::from_workloads(clients(&ds, &q12, n, Arc::new(engine))).run()
    }

    #[test]
    fn skipper_scales_better_than_vanilla() {
        let v = mini(4, VanillaFactory);
        let s = mini(4, SkipperFactory::default().cache_bytes(10 * GIB));
        assert!(s.mean_query_secs() < v.mean_query_secs());
        // Switch stalls dominate vanilla, not Skipper.
        let v_row = breakdown(&v, "v");
        let s_row = breakdown(&s, "s");
        assert!(
            v_row.switching > s_row.switching,
            "vanilla switch stall {:.2} should exceed skipper {:.2}",
            v_row.switching,
            s_row.switching
        );
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let v = mini(3, VanillaFactory);
        let r = breakdown(&v, "v");
        let sum = r.processing + r.switching + r.transfer + r.idle;
        assert!((sum - 1.0).abs() < 1e-6, "fractions sum to {sum}");
    }

    #[test]
    fn table3_shape_holds_in_miniature() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 100_000);
        let q12 = tpch::q12(&ds);
        let run = |client: Vec<Workload>, cost: CostModel, bw: f64| {
            Scenario::from_workloads(client)
                .layout(LayoutPolicy::AllInOne)
                .cost(cost)
                .bandwidth(bw)
                .run()
                .mean_query_secs()
        };
        let vanilla = || postgres(&ds, &q12, 1);
        let c = CostModel::paper_calibrated();
        let local = run(vanilla(), c.without_fuse(), 0.0);
        let fuse = run(vanilla(), c, 0.0);
        let remote = run(vanilla(), c, 110.0 * 1024.0 * 1024.0);
        assert!(local < fuse && fuse < remote);
        // Skipper's out-of-order execution carries only marginal overhead
        // vs the blocking baseline (paper: +6%).
        let skipper_local = run(skipper(&ds, &q12, 1, 10 * GIB), c.without_fuse(), 0.0);
        let overhead = skipper_local / local;
        assert!(
            (0.95..1.35).contains(&overhead),
            "skipper local overhead {overhead:.3}"
        );
    }
}
