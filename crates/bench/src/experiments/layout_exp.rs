//! Figure 11a: sensitivity to the CSD data layout (§5.2.3).
//!
//! Four clients, Q12, four placements: all tenants in one group
//! (`Allin1`), two per group (`2perG`), one per group (`1perG`), and the
//! `Increm.` split where each tenant's data straddles two groups.

use std::sync::Arc;

use skipper_core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper_csd::LayoutPolicy;
use skipper_datagen::tpch;

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{secs, Table};

/// One Figure 11a point.
#[derive(Clone, Copy, Debug)]
pub struct Fig11aRow {
    /// Layout label (paper x-axis).
    pub layout: &'static str,
    /// Vanilla mean execution time.
    pub vanilla_secs: f64,
    /// Skipper mean execution time.
    pub skipper_secs: f64,
}

/// All four layouts in figure order.
pub const LAYOUTS: [LayoutPolicy; 4] = [
    LayoutPolicy::AllInOne,
    LayoutPolicy::TwoClientsPerGroup,
    LayoutPolicy::OneClientPerGroup,
    LayoutPolicy::Incremental,
];

/// Runs Figure 11a: 4 clients, Q12, the four layouts, both engines.
pub fn fig11a_rows(ctx: &mut Ctx) -> Vec<Fig11aRow> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    LAYOUTS
        .iter()
        .map(|&layout| {
            let run = |engine: Arc<dyn EngineFactory>| {
                let client = Workload::new(Arc::clone(&ds))
                    .repeat_query(q12.clone(), 1)
                    .engine_arc(engine);
                Scenario::from_workloads(vec![client; 4])
                    .layout(layout)
                    .run()
                    .mean_query_secs()
            };
            Fig11aRow {
                layout: layout.label(),
                vanilla_secs: run(Arc::new(VanillaFactory)),
                skipper_secs: run(Arc::new(SkipperFactory::default().cache_bytes(30 * GIB))),
            }
        })
        .collect()
}

/// Figure 11a as a printable table.
pub fn fig11a(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Figure 11a: sensitivity to data layout (4 clients, Q12, avg exec s)",
        &["layout", "PostgreSQL", "Skipper"],
    );
    for r in fig11a_rows(ctx) {
        t.push_row(vec![
            r.layout.into(),
            secs(r.vanilla_secs),
            secs(r.skipper_secs),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_shapes_hold_in_miniature() {
        let mut ctx = Ctx::new();
        let ds = ctx.tpch(4, 100_000);
        let q12 = tpch::q12(&ds);
        let run = |engine: Arc<dyn EngineFactory>, layout| {
            let client = Workload::new(Arc::clone(&ds))
                .repeat_query(q12.clone(), 1)
                .engine_arc(engine);
            Scenario::from_workloads(vec![client; 4])
                .layout(layout)
                .run()
                .mean_query_secs()
        };
        let vanilla = || -> Arc<dyn EngineFactory> { Arc::new(VanillaFactory) };
        let skipper = || -> Arc<dyn EngineFactory> {
            Arc::new(SkipperFactory::default().cache_bytes(10 * GIB))
        };
        // Vanilla degrades as data fans out across groups...
        let v_allin1 = run(vanilla(), LayoutPolicy::AllInOne);
        let v_2perg = run(vanilla(), LayoutPolicy::TwoClientsPerGroup);
        let v_1perg = run(vanilla(), LayoutPolicy::OneClientPerGroup);
        assert!(v_allin1 < v_2perg);
        assert!(v_2perg < v_1perg);
        // ...while Skipper is insensitive between 2perG and 1perG (§5.2.3).
        let s_allin1 = run(skipper(), LayoutPolicy::AllInOne);
        let s_2perg = run(skipper(), LayoutPolicy::TwoClientsPerGroup);
        let s_1perg = run(skipper(), LayoutPolicy::OneClientPerGroup);
        let drift = (s_1perg - s_2perg).abs() / s_2perg;
        assert!(drift < 0.25, "skipper layout drift {drift:.2}");
        // With no switches both engines come close (paper: "similar
        // execution time under the all-in-one case").
        assert!(s_allin1 <= v_1perg);
        // And Skipper beats vanilla whenever switches exist.
        assert!(s_1perg < v_1perg);
    }
}
