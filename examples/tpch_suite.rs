//! The full TPC-H query suite through both engines on a shared CSD.
//!
//! Runs Q1, Q3, Q5, Q6, Q10, Q12 and Q14 with three tenants, verifies
//! both engines return identical results, and prints the per-query
//! comparison — a compact tour of how much each query shape benefits from
//! CSD-driven execution (scans benefit purely from batching; multi-way
//! joins also exercise the cache).
//!
//! ```text
//! cargo run --release --example tpch_suite
//! ```

use std::sync::Arc;

use skipper::core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::datagen::{tpch, GenConfig};
use skipper::relational::query::{results_approx_eq, QuerySpec};

fn main() {
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(7, 8).with_phys_divisor(100_000),
    ));
    let queries: Vec<QuerySpec> = vec![
        tpch::q1(&data),
        tpch::q3(&data),
        tpch::q5(&data),
        tpch::q6(&data),
        tpch::q10(&data),
        tpch::q12(&data),
        tpch::q14(&data),
    ];

    println!(
        "{} — {} objects on the CSD, 3 tenants, 10 s switches\n",
        data.name,
        data.total_objects()
    );
    println!("query      objects  vanilla(s)  skipper(s)  speedup  result rows");
    for q in queries {
        let run = |engine: Arc<dyn EngineFactory>| {
            let tenant = Workload::new(Arc::clone(&data))
                .repeat_query(q.clone(), 1)
                .engine_arc(engine);
            Scenario::from_workloads(vec![tenant; 3]).run()
        };
        let vanilla = run(Arc::new(VanillaFactory));
        let skipper = run(Arc::new(SkipperFactory::default().cache_bytes(8 << 30)));
        let v_rec = &vanilla.clients[0][0];
        let s_rec = &skipper.clients[0][0];
        assert!(
            results_approx_eq(&v_rec.result, &s_rec.result, 1e-9),
            "{} results diverged",
            q.name
        );
        println!(
            "{:<9}  {:>7}  {:>10.0}  {:>10.0}  {:>6.2}x  {:>11}",
            q.name,
            data.objects_for_query(&q),
            vanilla.mean_query_secs(),
            skipper.mean_query_secs(),
            vanilla.mean_query_secs() / skipper.mean_query_secs(),
            s_rec.result.len(),
        );
    }
}
