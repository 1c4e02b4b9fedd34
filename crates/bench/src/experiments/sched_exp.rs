//! Figure 12: balancing efficiency and fairness (§5.2.5).
//!
//! Five clients, each issuing TPC-H Q12 ten times, over a skewed layout:
//! two groups hold two clients each and the last group holds the fifth
//! client ([`LayoutPolicy::TwoClientsPerGroup`] with five tenants).
//! Three schedulers are compared — query-FCFS ("fairness"), Max-Queries
//! ("maxquery"), and the paper's rank-based policy ("ranking") — on the
//! L2-norm of stretch, maximum stretch, and cumulative workload time.

use std::sync::Arc;

use skipper_core::runtime::{Scenario, SkipperFactory, Workload};
use skipper_csd::{LayoutPolicy, SchedPolicy};
use skipper_datagen::{tpch, Dataset};
use skipper_relational::query::QuerySpec;
use skipper_sim::stats::{l2_norm, max_stretch};
use skipper_sim::SimDuration;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{factor, secs, Table};

/// One scheduler's Figure 12 metrics.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Row {
    /// Scheduler label (paper x-axis).
    pub scheduler: &'static str,
    /// L2-norm of per-query stretches.
    pub l2_norm_stretch: f64,
    /// Maximum stretch (worst-served query).
    pub max_stretch: f64,
    /// Cumulative workload time in seconds (sum over the 50 queries).
    pub cumulative_secs: f64,
}

/// The three policies in figure order.
pub const POLICIES: [SchedPolicy; 3] = [
    SchedPolicy::FcfsQuery,
    SchedPolicy::MaxQueries,
    SchedPolicy::RankBased,
];

/// One Skipper client with `cache` bytes of MJoin buffer running `q`
/// `reps` times.
fn skipper_client(ds: &Arc<Dataset>, q: &QuerySpec, reps: usize, cache: u64) -> Workload {
    Workload::new(Arc::clone(ds))
        .repeat_query(q.clone(), reps)
        .engine(SkipperFactory::default().cache_bytes(cache))
}

/// The per-query ideal: single-client execution time (no contention).
pub fn ideal_secs(ctx: &mut Ctx) -> f64 {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    Scenario::from_workloads(vec![skipper_client(&ds, &q12, 1, 30 * GIB)])
        .run()
        .mean_query_secs()
}

/// Runs Figure 12 with `reps` Q12 repetitions per client (paper: 10).
pub fn fig12_rows(ctx: &mut Ctx, reps: usize) -> Vec<Fig12Row> {
    let ideal = SimDuration::from_secs_f64(ideal_secs(ctx));
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    POLICIES
        .iter()
        .map(|&policy| {
            let res = Scenario::from_workloads(vec![skipper_client(&ds, &q12, reps, 30 * GIB); 5])
                .layout(LayoutPolicy::TwoClientsPerGroup)
                .scheduler(policy)
                .run();
            let stretches = res.stretches(ideal);
            Fig12Row {
                scheduler: policy.label(),
                l2_norm_stretch: l2_norm(&stretches),
                max_stretch: max_stretch(&stretches),
                cumulative_secs: res.cumulative_secs(),
            }
        })
        .collect()
}

/// Figure 12 (both panels) as a printable table.
pub fn fig12(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 12: fairness vs efficiency (5 clients × Q12 × 10, skewed layout)",
        &[
            "scheduler",
            "L2-norm stretch",
            "max stretch",
            "cumulative (s)",
        ],
    );
    for r in fig12_rows(ctx, 10) {
        t.push_row(vec![
            r.scheduler.into(),
            factor(r.l2_norm_stretch),
            factor(r.max_stretch),
            secs(r.cumulative_secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_tradeoffs_hold_in_miniature() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 100_000);
        let q12 = tpch::q12(&ds);
        let ideal = {
            let res = Scenario::from_workloads(vec![skipper_client(&ds, &q12, 1, 10 * GIB)]).run();
            SimDuration::from_secs_f64(res.mean_query_secs())
        };
        let run = |policy: SchedPolicy| {
            let res = Scenario::from_workloads(vec![skipper_client(&ds, &q12, 3, 10 * GIB); 5])
                .layout(LayoutPolicy::TwoClientsPerGroup)
                .scheduler(policy)
                .run();
            let st = res.stretches(ideal);
            (max_stretch(&st), res.cumulative_secs())
        };
        let (fair_max, _fair_cum) = run(SchedPolicy::FcfsQuery);
        let (mq_max, mq_cum) = run(SchedPolicy::MaxQueries);
        let (rank_max, rank_cum) = run(SchedPolicy::RankBased);
        // Max-Queries starves the lone-group client: worst max stretch.
        assert!(
            mq_max >= rank_max && mq_max >= fair_max,
            "maxquery should have the worst max stretch: mq={mq_max:.1} rank={rank_max:.1} fcfs={fair_max:.1}"
        );
        // Ranking must not cost much efficiency vs Max-Queries.
        assert!(
            rank_cum <= mq_cum * 1.25,
            "ranking cumulative {rank_cum:.0} vs maxquery {mq_cum:.0}"
        );
    }
}
