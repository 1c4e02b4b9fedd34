//! Closed-form shape checks from the paper's analysis.
//!
//! §3.2: vanilla's total execution time on a shared CSD is
//! `S × C × D` (plus transfers) — every client's consecutive requests are
//! separated by a full round of group switches.
//!
//! §5.2.1: Skipper's total waiting time for any client C is
//! `(C−1) × (D/B + S)` — one residency (bulk transfer + one switch) per
//! other client.

use std::sync::Arc;

use skipper::core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::datagen::{tpch, Dataset, GenConfig};
use skipper::relational::query::QuerySpec;
use skipper::sim::SimDuration;

const GIB: u64 = 1 << 30;
/// 110 MiB/s — the driver's default bandwidth.
const BW: f64 = 110.0 * 1024.0 * 1024.0;

fn workload() -> (Arc<Dataset>, QuerySpec) {
    // SF-8: lineitem 8 + orders 2 = D = 10 objects.
    let ds = tpch::dataset(&GenConfig::new(5, 8).with_phys_divisor(400_000));
    let q12 = tpch::q12(&ds);
    (Arc::new(ds), q12)
}

/// `n` clients, each running `q` once on `engine`.
fn fleet(
    ds: &Arc<Dataset>,
    q: &QuerySpec,
    n: usize,
    engine: impl EngineFactory + 'static,
) -> Scenario {
    let client = Workload::new(Arc::clone(ds))
        .repeat_query(q.clone(), 1)
        .engine(engine);
    Scenario::from_workloads(vec![client; n])
}

/// The 12 GiB MJoin cache every Skipper cell here runs with.
fn skipper() -> SkipperFactory {
    SkipperFactory::default().cache_bytes(12 * GIB)
}

#[test]
fn vanilla_follows_s_times_c_times_d() {
    let (ds, q12) = workload();
    let d = ds.objects_for_query(&q12) as f64;
    let transfer = GIB as f64 / BW;
    for clients in 2..=4 {
        let res = fleet(&ds, &q12, clients, VanillaFactory)
            .switch_latency(SimDuration::from_secs(10))
            .run();
        let c = clients as f64;
        // The paper's model: S·C·D switching plus the serialized
        // transfers C·D·T (processing is negligible here).
        let predicted = 10.0 * c * d + c * d * transfer;
        let measured = res.mean_query_secs();
        let err = (measured - predicted).abs() / predicted;
        assert!(
            err < 0.15,
            "{clients} clients: measured {measured:.0}s vs S·C·D model {predicted:.0}s"
        );
        // Switch count: every object access of every client pays one
        // switch, except accesses while the right group happens to be
        // loaded.
        let switches = res.device.group_switches as f64;
        assert!(
            switches >= c * d - c - d && switches <= c * d,
            "{clients} clients: switches {switches} vs C·D {}",
            c * d
        );
    }
}

#[test]
fn skipper_waiting_follows_c_minus_one_residencies() {
    let (ds, q12) = workload();
    let d = ds.objects_for_query(&q12) as f64;
    let transfer = GIB as f64 / BW;
    for clients in 2..=4 {
        let res = fleet(&ds, &q12, clients, skipper())
            .switch_latency(SimDuration::from_secs(10))
            .run();
        // §5.2.1: total waiting ≈ (C−1) × (D/B + S). The *mean* over
        // clients is half that (clients are served in residency order),
        // plus one's own transfer and processing.
        let c = clients as f64;
        let worst_wait = (c - 1.0) * (d * transfer + 10.0);
        let worst = res
            .records()
            .map(|r| r.duration().as_secs_f64())
            .fold(0.0, f64::max);
        let own = d * transfer; // own residency transfer time
        let predicted_worst = worst_wait + own;
        let err = (worst - predicted_worst).abs() / predicted_worst;
        assert!(
            err < 0.35,
            "{clients} clients: worst {worst:.0}s vs (C−1)(D/B+S)+D/B = {predicted_worst:.0}s"
        );
        // Exactly C−1 paid switches (one per extra client; first load is
        // free).
        assert_eq!(res.device.group_switches, clients as u64 - 1);
    }
}

#[test]
fn skipper_insensitive_to_switch_latency_when_transfer_dominates() {
    // §5.2.2: "if D/B >> S, Skipper will make the database clients
    // insensitive to access latency."
    let (ds, q12) = workload();
    let mean_secs = |fleet: Scenario, s: u64| {
        fleet
            .switch_latency(SimDuration::from_secs(s))
            .run()
            .mean_query_secs()
    };
    let skipper_10 = mean_secs(fleet(&ds, &q12, 3, skipper()), 10);
    let skipper_40 = mean_secs(fleet(&ds, &q12, 3, skipper()), 40);
    let vanilla_10 = mean_secs(fleet(&ds, &q12, 3, VanillaFactory), 10);
    let vanilla_40 = mean_secs(fleet(&ds, &q12, 3, VanillaFactory), 40);
    let skipper_growth = skipper_40 / skipper_10;
    let vanilla_growth = vanilla_40 / vanilla_10;
    assert!(
        skipper_growth < 1.15,
        "skipper grew {skipper_growth:.2}x from S=10 to S=40"
    );
    assert!(
        vanilla_growth > 1.8,
        "vanilla should be hypersensitive, grew only {vanilla_growth:.2}x"
    );
}

#[test]
fn skipper_switches_stay_constant_as_latency_grows() {
    // Figure 10's mechanism: Skipper pays C−1 switches regardless of S
    // (vs vanilla's C×D), so its curve is flat in S.
    let (ds, q12) = workload();
    for s in [10u64, 20, 40] {
        let res = fleet(&ds, &q12, 5, skipper())
            .switch_latency(SimDuration::from_secs(s))
            .run();
        assert_eq!(res.device.group_switches, 4, "at S={s}");
    }
}

#[test]
fn breakdown_accounts_for_all_time() {
    let (ds, q12) = workload();
    for res in [
        fleet(&ds, &q12, 3, VanillaFactory).run(),
        fleet(&ds, &q12, 3, skipper()).run(),
    ] {
        for rec in res.records() {
            let accounted = rec.processing + rec.stalls.total();
            assert_eq!(
                accounted.as_micros(),
                rec.duration().as_micros(),
                "{} breakdown leak",
                rec.engine
            );
        }
    }
}

#[test]
fn single_client_parity_between_csd_and_ideal() {
    // Figure 4's first point: one client with a one-group layout sees no
    // switches, so CSD == HDD exactly.
    let (ds, q12) = workload();
    let csd = fleet(&ds, &q12, 1, VanillaFactory).run();
    let ideal = fleet(&ds, &q12, 1, VanillaFactory)
        .layout(skipper::csd::LayoutPolicy::AllInOne)
        .run();
    assert_eq!(csd.device.group_switches, 0);
    assert_eq!(
        csd.mean_query_secs(),
        ideal.mean_query_secs(),
        "lone client must not pay for the CSD"
    );
}
