//! Bonus experiment: MAID energy accounting for the Figure 7 scenario.
//!
//! Quantifies the motivation-level claims of §1/§7: a MAID-configured CSD
//! consumes a fraction of an always-on array's power, and Skipper's
//! batched group residencies save further energy over the pull-based
//! baseline (fewer spin-up cycles, shorter makespans for the same work).

use std::sync::Arc;

use skipper_core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper_csd::PowerModel;
use skipper_datagen::tpch;
use skipper_sim::{SimDuration, SimTime};

use crate::ctx::Ctx;
use crate::experiments::params::{DIVISOR_MAIN, GIB, SF_MAIN};
use crate::report::{pct, Table};

/// One engine's energy figures for the 5-client Q12 run.
#[derive(Clone, Copy, Debug)]
pub struct PowerRow {
    /// Engine label.
    pub engine: &'static str,
    /// Group switches (spin-up cycles).
    pub switches: u64,
    /// Makespan in seconds.
    pub makespan_secs: f64,
    /// MAID energy in watt-hours.
    pub maid_wh: f64,
    /// Always-on baseline energy in watt-hours.
    pub all_spinning_wh: f64,
}

/// Runs the energy comparison: 5 clients, Q12, Pelican-shaped array.
pub fn power_rows(ctx: &mut Ctx) -> Vec<PowerRow> {
    let ds = ctx.tpch(SF_MAIN, DIVISOR_MAIN);
    let q12 = tpch::q12(&ds);
    let model = PowerModel::default();
    let engines: [(&'static str, Arc<dyn EngineFactory>); 2] = [
        ("PostgreSQL", Arc::new(VanillaFactory)),
        (
            "Skipper",
            Arc::new(SkipperFactory::default().cache_bytes(30 * GIB)),
        ),
    ];
    engines
        .into_iter()
        .map(|(engine, factory)| {
            let client = Workload::new(Arc::clone(&ds))
                .repeat_query(q12.clone(), 1)
                .engine_arc(factory);
            let res = Scenario::from_workloads(vec![client; 5]).run();
            let transfer = SimDuration::from_secs_f64(
                res.device.logical_bytes_served as f64 / (110.0 * 1024.0 * 1024.0),
            );
            let report = model.estimate(
                res.makespan.since(SimTime::ZERO),
                transfer,
                res.device.group_switches,
            );
            PowerRow {
                engine,
                switches: res.device.group_switches,
                makespan_secs: res.makespan.as_secs_f64(),
                maid_wh: report.maid_wh,
                all_spinning_wh: report.all_spinning_wh,
            }
        })
        .collect()
}

/// The energy comparison as a printable table.
pub fn power(ctx: &mut Ctx) -> Table {
    let mut t = Table::new(
        "Bonus: MAID energy for the Figure 7 scenario (Pelican-shaped array, 5 clients, Q12)",
        &[
            "engine",
            "switches",
            "makespan (s)",
            "MAID (Wh)",
            "always-on (Wh)",
            "saving",
        ],
    );
    for r in power_rows(ctx) {
        t.push_row(vec![
            r.engine.into(),
            r.switches.to_string(),
            format!("{:.0}", r.makespan_secs),
            format!("{:.0}", r.maid_wh),
            format!("{:.0}", r.all_spinning_wh),
            pct(1.0 - r.maid_wh / r.all_spinning_wh),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skipper_consumes_less_energy_for_the_same_work() {
        let mut ctx = Ctx::new();
        // Miniature run through the same code path.
        let ds = ctx.tpch(4, 200_000);
        let q12 = tpch::q12(&ds);
        let model = PowerModel::default();
        let energy = |engine: Arc<dyn EngineFactory>| {
            let client = Workload::new(Arc::clone(&ds))
                .repeat_query(q12.clone(), 1)
                .engine_arc(engine);
            let res = Scenario::from_workloads(vec![client; 4]).run();
            let transfer = SimDuration::from_secs_f64(
                res.device.logical_bytes_served as f64 / (110.0 * 1024.0 * 1024.0),
            );
            model.estimate(
                res.makespan.since(SimTime::ZERO),
                transfer,
                res.device.group_switches,
            )
        };
        let v = energy(Arc::new(VanillaFactory));
        let s = energy(Arc::new(SkipperFactory::default().cache_bytes(10 * GIB)));
        assert!(s.maid_wh < v.maid_wh);
        assert!(v.savings() > 0.5 && s.savings() > 0.5);
    }
}
