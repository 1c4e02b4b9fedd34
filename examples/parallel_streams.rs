//! True intra-group parallel servicing (§5.2.1): the same mixed tenant
//! fleet served by 1, 2, 4, and 8 transfer streams per device.
//!
//! The paper's prototype middleware serialized request servicing; the
//! spun-up disk group itself sustains 1-2 GB/s while a single stream
//! sees ~110 MB/s. `Scenario::streams(n)` opens `n` service-pipeline
//! slots per device: intra-group transfers overlap in time, a switch
//! decided mid-drain is *armed* (it begins the instant the last
//! old-group transfer completes — no idle gap), and the delivery
//! multiset is conserved exactly. The overlap rollup shows where the
//! win comes from: the same stream-seconds of transfer work compressed
//! into a fraction of the wall time, until the makespan is
//! switch-limited.
//!
//! ```text
//! cargo run --release --example parallel_streams
//! ```

use std::sync::Arc;

use skipper::core::runtime::oracle::{check_run, check_same_work};
use skipper::core::runtime::{Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::csd::CsdConfig;
use skipper::datagen::{tpch, GenConfig};

fn main() {
    let data = Arc::new(tpch::dataset(
        &GenConfig::new(7, 16).with_phys_divisor(100_000),
    ));
    let q12 = tpch::q12(&data);

    // A half-migrated 4-tenant fleet: 0/2 on Skipper, 1/3 pull-based.
    let fleet = || -> Vec<Workload> {
        (0..4)
            .map(|i| {
                let w = Workload::new(Arc::clone(&data)).repeat_query(q12.clone(), 2);
                if i % 2 == 0 {
                    w.engine(SkipperFactory::default().cache_bytes(12 << 30))
                } else {
                    w.engine(VanillaFactory)
                }
            })
            .collect()
    };

    println!("streams  makespan(s)  transfer wall(s)  stream secs  overlap  switch wall(s)");
    let mut serial = None;
    for streams in [1u32, 2, 4, 8] {
        let res = Scenario::from_workloads(fleet()).streams(streams).run();
        let roll = res.stream_rollup();
        println!(
            "{streams:>7}  {:>11.0}  {:>16.0}  {:>11.0}  {:>7.2}  {:>14.0}",
            res.makespan.as_secs_f64(),
            roll.transfer_wall_secs,
            roll.transfer_stream_secs,
            roll.overlap(),
            roll.switching_secs,
        );
        // Work conservation, demonstrated live: parallelism changes
        // *when* transfers happen, never *what* gets delivered.
        assert_eq!(check_run(&res), Vec::<String>::new());
        match &serial {
            None => serial = Some(res),
            Some(base) => assert_eq!(
                check_same_work(&res, base),
                Vec::<String>::new(),
                "streams must deliver exactly the serial multiset"
            ),
        }
    }

    // The A/B: one serial stream at 4× the bandwidth reaches a similar
    // makespan on this saturated fleet but is still serial — no
    // overlap, just shorter transfers.
    let multiplier = Scenario::from_workloads(fleet())
        .streams(1)
        .bandwidth(4.0 * CsdConfig::default().bandwidth_bytes_per_sec)
        .run();
    let roll = multiplier.stream_rollup();
    println!(
        "\nmultiplier A/B at 4 streams: makespan {:.0}s, overlap {:.2} (serial by construction)",
        multiplier.makespan.as_secs_f64(),
        roll.overlap()
    );
}
