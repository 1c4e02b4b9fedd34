//! Cache sizing with the §5.2.4 analytical model, validated against the
//! simulator.
//!
//! Computes the paper's closed-form reissue estimate for TPC-H Q5 and
//! compares it with the *measured* GET counts from full simulation runs,
//! then asks the advisor how much cache a target reissue budget needs.
//!
//! ```text
//! cargo run --release --example cache_advisor
//! ```

use std::sync::Arc;

use skipper::core::analysis::{CacheAdvisor, ReissueModel};
use skipper::core::runtime::{Scenario, SkipperFactory, Workload};
use skipper::datagen::{tpch, GenConfig};

fn main() {
    let ds = Arc::new(tpch::dataset(
        &GenConfig::new(2016, 16).with_phys_divisor(100_000),
    ));
    let q5 = tpch::q5(&ds);

    // The query's segment geometry drives the model.
    let counts: Vec<u32> = ds
        .query_table_indexes(&q5)
        .iter()
        .map(|&t| ds.catalog.table(t).segment_count)
        .collect();
    let model = ReissueModel::from_segment_counts(&counts);
    println!(
        "Q5 shape: {counts:?} segments, {} objects, R = {}",
        model.total_objects, model.relations
    );
    println!(
        "hash-join-equivalence capacity: {:.0} objects\n",
        model.no_reissue_capacity()
    );

    println!("cache(GB)  model GETs (upper bound)  measured GETs  measured exec(s)");
    for cache in [6u64, 8, 10, 14, 18, 22] {
        let tenant = Workload::new(Arc::clone(&ds))
            .repeat_query(q5.clone(), 1)
            .engine(SkipperFactory::default().cache_bytes(cache << 30));
        let res = Scenario::from_workloads(vec![tenant]).run();
        let rec = &res.clients[0][0];
        println!(
            "{cache:>9}  {:>24.0}  {:>13}  {:>16.0}",
            model.estimated_gets(cache),
            rec.stats.gets_issued,
            rec.duration().as_secs_f64()
        );
    }

    let advisor = CacheAdvisor::new(model);
    println!("\nadvisor:");
    for factor in [1.0, 1.5, 2.0, 5.0] {
        println!(
            "  reissue factor ≤ {factor:>4.1}: cache ≥ {:>3} objects",
            advisor.capacity_for_factor(factor)
        );
    }
}
