//! The dataset and mixed-tenant fleet the root property sweeps share,
//! and the oracle assertion they make.

// Each test binary compiles this module and uses part of it.
#![allow(dead_code)]

use std::sync::Arc;

use skipper::core::runtime::oracle::{check_run, check_same_work};
use skipper::core::runtime::{RunResult, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::csd::SchedPolicy;
use skipper::datagen::{tpch, Dataset, GenConfig};
use skipper::sim::SimDuration;

const GIB: u64 = 1 << 30;

/// SF-4 TPC-H, miniaturized physical rows.
pub fn dataset() -> Arc<Dataset> {
    Arc::new(tpch::dataset(
        &GenConfig::new(31, 4).with_phys_divisor(100_000),
    ))
}

/// Three tenants — two Skipper (roomy caches: no reissues, so the GET
/// multiset is exactly the working sets), one pull-based Vanilla, one
/// staggered — under `sched`.
pub fn fleet_scenario(ds: &Arc<Dataset>, sched: SchedPolicy) -> Scenario {
    let q12 = tpch::q12(ds);
    Scenario::from_workloads(vec![
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 2)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB)),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12.clone(), 1)
            .engine(VanillaFactory),
        Workload::new(Arc::clone(ds))
            .repeat_query(q12, 1)
            .engine(SkipperFactory::default().cache_bytes(30 * GIB))
            .start_at(SimDuration::from_secs(120)),
    ])
    .scheduler(sched)
}

/// Asserts `run` is sound and did `reference`'s work (the oracle's
/// `check_run` and `check_same_work`), printing the violations.
pub fn assert_sound(run: &RunResult, reference: &RunResult, label: &str) {
    let violations = [check_run(run), check_same_work(run, reference)].concat();
    assert!(violations.is_empty(), "{label}: {violations:#?}");
}
