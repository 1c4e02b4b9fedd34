//! The paper's headline scenario (Figure 7): five tenant databases share
//! one cold storage device, each running TPC-H Q12.
//!
//! Sweeps the client count from 1 to 5 and prints the three lines of the
//! figure — pull-based PostgreSQL on the CSD, Skipper on the CSD, and the
//! no-switch HDD ideal — plus the per-client stall anatomy at five
//! clients (Figure 9's story), plus the runtime's mixed-engine twist:
//! a half-migrated fleet where Skipper and PostgreSQL tenants share the
//! device in a single scenario.
//!
//! ```text
//! cargo run --release --example multi_tenant_tpch
//! ```

use std::sync::Arc;

use skipper::core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::csd::LayoutPolicy;
use skipper::datagen::{tpch, GenConfig};

fn main() {
    // SF-16 keeps the example fast while giving Q12 a 16+3-object
    // working set; the bench harness runs the full SF-50 versions.
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(7, 16).with_phys_divisor(100_000),
    ));
    let q12 = tpch::q12(&data);
    // `n` identical tenants, each running Q12 once on `engine`.
    let fleet = |n: usize, engine: Arc<dyn EngineFactory>| {
        let tenant = Workload::new(Arc::clone(&data))
            .repeat_query(q12.clone(), 1)
            .engine_arc(engine);
        Scenario::from_workloads(vec![tenant; n])
    };
    let vanilla_engine: Arc<dyn EngineFactory> = Arc::new(VanillaFactory);
    let skipper_engine: Arc<dyn EngineFactory> =
        Arc::new(SkipperFactory::default().cache_bytes(12 << 30));

    println!("clients  vanilla(s)  skipper(s)  ideal(s)  vanilla/skipper");
    let ideal = fleet(1, Arc::clone(&vanilla_engine))
        .layout(LayoutPolicy::AllInOne)
        .run()
        .mean_query_secs();
    for clients in 1..=5 {
        let vanilla = fleet(clients, Arc::clone(&vanilla_engine))
            .run()
            .mean_query_secs();
        let skipper = fleet(clients, Arc::clone(&skipper_engine))
            .run()
            .mean_query_secs();
        println!(
            "{clients:>7}  {vanilla:>10.0}  {skipper:>10.0}  {ideal:>8.0}  {:>15.2}x",
            vanilla / skipper
        );
    }

    // The Figure 9 story at five clients: where does the time go?
    println!("\nstall anatomy at 5 clients:");
    for engine in [vanilla_engine, skipper_engine] {
        let label = engine.label();
        let res = fleet(5, engine).run();
        let (mut proc, mut sw, mut tr, mut total) = (0.0, 0.0, 0.0, 0.0);
        for r in res.records() {
            proc += r.processing.as_secs_f64();
            sw += r.stalls.switching.as_secs_f64();
            tr += r.stalls.transfer.as_secs_f64();
            total += r.duration().as_secs_f64();
        }
        println!(
            "  {:>8}: processing {:>4.1}%  switch {:>4.1}%  transfer {:>4.1}%",
            label,
            100.0 * proc / total,
            100.0 * sw / total,
            100.0 * tr / total
        );
    }

    // A half-migrated fleet: tenants 0/2/4 upgraded to Skipper, 1/3
    // still pull-based — one scenario, one shared device, per-tenant
    // engines.
    println!("\nmixed fleet (3 skipper + 2 vanilla tenants):");
    let mixed: Vec<Workload> = (0..5)
        .map(|i| {
            let w = Workload::new(Arc::clone(&data)).repeat_query(q12.clone(), 1);
            if i % 2 == 0 {
                w.engine(SkipperFactory::default().cache_bytes(12 << 30))
            } else {
                w.engine(VanillaFactory)
            }
        })
        .collect();
    let res = Scenario::from_workloads(mixed).run();
    for (c, recs) in res.clients.iter().enumerate() {
        let r = &recs[0];
        println!(
            "  tenant {c} [{:>7}]: {:>6.0}s  (upfront GETs: {})",
            r.engine,
            r.duration().as_secs_f64(),
            r.upfront_gets
        );
    }
    println!(
        "  device: {} switches under the {} scheduler",
        res.device.group_switches, res.scheduler
    );
}
