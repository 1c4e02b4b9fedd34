//! Quickstart: one tenant, TPC-H Q12, Skipper vs the pull-based baseline.
//!
//! Generates a miniature TPC-H instance, stores it on a simulated cold
//! storage device (10 s group switches), and runs the same join query
//! through both engines, printing execution time, stall breakdown, GET
//! counts, and the (identical) query results.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use skipper::core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::datagen::{tpch, GenConfig};

fn main() {
    // SF-8 TPC-H miniature: Q12 touches 8 lineitem + 2 orders segments.
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(42, 8).with_phys_divisor(50_000),
    ));
    let q12 = tpch::q12(&data);
    println!(
        "dataset: {} ({} objects, {:.0} GB logical)\nquery:   {q12}\n",
        data.name,
        data.total_objects(),
        data.catalog.total_logical_bytes() as f64 / (1u64 << 30) as f64,
    );

    let engines: [Arc<dyn EngineFactory>; 2] = [
        Arc::new(VanillaFactory),
        Arc::new(SkipperFactory::default().cache_bytes(6 << 30)),
    ];
    for engine in engines {
        println!("=== {} ===", engine.label());
        // Three tenants contend for the device; each runs Q12 once.
        let tenant = Workload::new(Arc::clone(&data))
            .repeat_query(q12.clone(), 1)
            .engine_arc(engine);
        let result = Scenario::from_workloads(vec![tenant; 3]).run();

        println!(
            "mean execution time: {:>8.1} s   (group switches: {})",
            result.mean_query_secs(),
            result.device.group_switches
        );
        let rec = &result.clients[0][0];
        println!(
            "client 0 breakdown:  processing {:.0}s, switch stall {:.0}s, transfer stall {:.0}s",
            rec.processing.as_secs_f64(),
            rec.stalls.switching.as_secs_f64(),
            rec.stalls.transfer.as_secs_f64()
        );
        println!(
            "GETs issued: {} (reissues: {})",
            rec.stats.gets_issued, rec.stats.reissues
        );
        println!("result ({} groups):", rec.result.len());
        for (key, vals) in &rec.result {
            println!("  {key:?} -> {vals:?}");
        }
        // The device's life, at a glance: S = switch, digits = transfers.
        println!("device timeline: {}", result.timeline(72));
        println!();
    }
}
