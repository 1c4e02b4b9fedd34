//! Bonus experiment: the extended TPC-H query suite at paper scale.
//!
//! The paper evaluates Q12 and Q5; this table runs seven TPC-H queries
//! (pure scans, two-way, three-way, four-way and six-way joins) through
//! both engines at SF-50 with five tenants, showing that the Skipper
//! advantage is a property of the access pattern, not of one query: every
//! shape lands in the 2.5-3.5× band once group switches dominate.

use std::sync::Arc;

use skipper_core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper_datagen::tpch;
use skipper_relational::query::{results_approx_eq, QuerySpec};

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{secs, Table};

/// One suite row.
#[derive(Clone, Debug)]
pub struct SuiteRow {
    /// Query name.
    pub query: String,
    /// Objects the query touches.
    pub objects: u32,
    /// Vanilla mean execution time.
    pub vanilla_secs: f64,
    /// Skipper mean execution time.
    pub skipper_secs: f64,
    /// Result rows (sanity; identical across engines by assertion).
    pub result_rows: usize,
}

/// Runs the suite: 5 clients, 30 GB cache, S = 10 s.
pub fn suite_rows(ctx: &mut Ctx) -> Vec<SuiteRow> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let queries: Vec<QuerySpec> = vec![
        tpch::q1(&ds),
        tpch::q3(&ds),
        tpch::q5(&ds),
        tpch::q6(&ds),
        tpch::q10(&ds),
        tpch::q12(&ds),
        tpch::q14(&ds),
    ];
    queries
        .into_iter()
        .map(|q| {
            let run = |engine: Arc<dyn EngineFactory>| {
                let client = Workload::new(Arc::clone(&ds))
                    .repeat_query(q.clone(), 1)
                    .engine_arc(engine);
                Scenario::from_workloads(vec![client; 5]).run()
            };
            let vanilla = run(Arc::new(VanillaFactory));
            let skipper = run(Arc::new(SkipperFactory::default().cache_bytes(30 * GIB)));
            let v = &vanilla.clients[0][0];
            let s = &skipper.clients[0][0];
            assert!(
                results_approx_eq(&v.result, &s.result, 1e-9),
                "{} diverged between engines",
                q.name
            );
            SuiteRow {
                query: q.name.clone(),
                objects: ds.objects_for_query(&q),
                vanilla_secs: vanilla.mean_query_secs(),
                skipper_secs: skipper.mean_query_secs(),
                result_rows: s.result.len(),
            }
        })
        .collect()
}

/// The suite as a printable table.
pub fn suite(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Bonus: extended TPC-H suite (SF-50, 5 clients, S=10s, avg exec s)",
        &[
            "query",
            "objects",
            "PostgreSQL",
            "Skipper",
            "speedup",
            "rows",
        ],
    );
    for r in suite_rows(ctx) {
        t.push_row(vec![
            r.query,
            r.objects.to_string(),
            secs(r.vanilla_secs),
            secs(r.skipper_secs),
            format!("{:.2}x", r.vanilla_secs / r.skipper_secs),
            r.result_rows.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_queries_all_win_under_contention() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 200_000);
        for q in [tpch::q1(&ds), tpch::q6(&ds), tpch::q10(&ds), tpch::q14(&ds)] {
            let run = |engine: Arc<dyn EngineFactory>| {
                let client = Workload::new(Arc::clone(&ds))
                    .repeat_query(q.clone(), 1)
                    .engine_arc(engine);
                Scenario::from_workloads(vec![client; 3]).run()
            };
            let vanilla = run(Arc::new(VanillaFactory));
            let skipper = run(Arc::new(SkipperFactory::default().cache_bytes(10 * GIB)));
            assert!(
                results_approx_eq(
                    &vanilla.clients[0][0].result,
                    &skipper.clients[0][0].result,
                    1e-9
                ),
                "{} diverged",
                q.name
            );
            assert!(
                skipper.mean_query_secs() < vanilla.mean_query_secs(),
                "{}: skipper must win under contention",
                q.name
            );
        }
    }
}
