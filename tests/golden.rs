//! Golden regression tests: exact virtual-time outputs of fixed,
//! deterministic configurations.
//!
//! These pin the observable behaviour of the whole stack — event
//! ordering, scheduler decisions, cost-model charging, cache dynamics —
//! so refactors that unintentionally change semantics fail loudly. If a
//! change is *supposed* to alter these numbers, regenerate them and say
//! so in the commit message.

use skipper::core::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
use skipper::csd::PlacementPolicy;
use skipper::datagen::{mrbench, nref, ssb, tpch, Dataset, GenConfig};
use skipper::relational::row;
use skipper::relational::value::Value;

fn dataset() -> Dataset {
    tpch::dataset(&GenConfig::new(7, 8).with_phys_divisor(100_000))
}

fn skipper(cache_gib: u64) -> SkipperFactory {
    SkipperFactory::default().cache_bytes(cache_gib << 30)
}

/// Three clients, each running Q12 once on `engine`.
fn fleet(engine: impl EngineFactory + 'static) -> Scenario {
    let ds = dataset();
    let q12 = tpch::q12(&ds);
    let client = Workload::new(ds).repeat_query(q12, 1).engine(engine);
    Scenario::from_workloads(vec![client; 3])
}

#[test]
fn golden_vanilla_q12_three_clients() {
    let res = fleet(VanillaFactory).run();
    assert_eq!(res.makespan.as_micros(), 575_704_730);
    assert_eq!(res.device.group_switches, 29);
    assert_eq!(res.total_gets(), 30);
    assert_eq!(res.device.objects_served, 30);
    let rec = &res.clients[0][0];
    assert_eq!(rec.duration().as_micros(), 537_086_548);
    assert_eq!(rec.processing.as_micros(), 69_155_000);
}

#[test]
fn golden_skipper_q12_three_clients() {
    let res = fleet(skipper(8)).run();
    assert_eq!(res.makespan.as_micros(), 305_278_730);
    assert_eq!(res.device.group_switches, 2);
    assert_eq!(res.total_gets(), 30);
    let rec = &res.clients[0][0];
    assert_eq!(rec.duration().as_micros(), 99_096_910);
    assert_eq!(rec.processing.as_micros(), 69_293_000);
}

#[test]
fn golden_skipper_tight_cache_same_outcome() {
    // Q12's working set degrades gracefully: at 3 GiB (orders stays
    // pinned, lineitem streams through) the maximal-progress policy still
    // avoids every reissue, so the run is identical to the roomy one.
    let roomy = fleet(skipper(8)).run();
    let tight = fleet(skipper(3)).run();
    assert_eq!(tight.makespan, roomy.makespan);
    assert_eq!(tight.total_gets(), roomy.total_gets());
}

#[test]
fn golden_query_results() {
    // Both engines, exact aggregate values (integer-valued sums of the
    // CASE counters; float representation is exact for small integers).
    // Regenerated 2026-07: the offline rand stand-in changed the
    // generator streams (see crates/compat/rand), which shifts the
    // per-group CASE counter sums.
    let expected = vec![
        (row!["MAIL"], vec![Value::Float(1.0), Value::Float(5.0)]),
        (row!["SHIP"], vec![Value::Float(1.0), Value::Float(1.0)]),
    ];
    for res in [fleet(VanillaFactory).run(), fleet(skipper(8)).run()] {
        for rec in res.records() {
            assert_eq!(rec.result, expected, "{} result drifted", rec.engine);
        }
    }
}

#[test]
fn golden_one_shard_facade_matches_unsharded_run_exactly() {
    // The fleet refactor's backward-compatibility contract: a scenario
    // with no shard config — and one with an explicit 1-shard fleet
    // under any placement policy — reproduces the pinned single-device
    // goldens microsecond-exactly.
    let implicit = fleet(skipper(8)).run();
    assert_eq!(implicit.makespan.as_micros(), 305_278_730);
    assert_eq!(implicit.shards.len(), 1);
    for placement in [PlacementPolicy::RoundRobin, PlacementPolicy::HashObject] {
        let explicit = fleet(skipper(8)).shards(1).placement(placement).run();
        assert_eq!(explicit.makespan, implicit.makespan, "{placement:?}");
        assert_eq!(
            explicit.device.group_switches,
            implicit.device.group_switches
        );
        assert_eq!(explicit.device_spans(), implicit.device_spans());
        assert_eq!(explicit.delivery_multiset(), implicit.delivery_multiset());
        let a: Vec<_> = implicit.records().map(|r| (r.start, r.end)).collect();
        let b: Vec<_> = explicit.records().map(|r| (r.start, r.end)).collect();
        assert_eq!(a, b, "{placement:?} drifted from the unsharded run");
        // The single shard's breakdown IS the device aggregate.
        assert_eq!(explicit.shards[0].metrics, explicit.device);
        assert_eq!(explicit.shards[0].spans, explicit.device_spans());
    }
}

#[test]
fn golden_four_shard_round_robin() {
    // Pinned fleet golden: 3 Skipper clients × Q12 over a 4-shard
    // round-robin fleet. Sharding spreads each tenant's working set
    // over 4 devices: the 30 objects split 9/9/6/6, every shard pays
    // 2 switches (one per non-first tenant residency), and the makespan
    // drops from the 1-shard 305.3 s to 138.0 s. If a change is
    // *supposed* to alter these numbers, regenerate them and say so.
    let res = fleet(skipper(8))
        .shards(4)
        .placement(PlacementPolicy::RoundRobin)
        .run();
    assert_eq!(res.makespan.as_micros(), 138_038_455);
    assert_eq!(res.device.group_switches, 8);
    assert_eq!(res.device.objects_served, 30);
    assert_eq!(res.total_gets(), 30);
    let per_shard: Vec<(u64, u64)> = res
        .shards
        .iter()
        .map(|s| (s.metrics.group_switches, s.metrics.objects_served))
        .collect();
    assert_eq!(per_shard, vec![(2, 9), (2, 9), (2, 6), (2, 6)]);
    let rec = &res.clients[0][0];
    assert_eq!(rec.duration().as_micros(), 76_202_091);
    assert_eq!(rec.processing.as_micros(), 66_893_000);
    // The fleet conserves work: same delivery multiset as one device.
    let single = fleet(skipper(8)).run();
    assert_eq!(res.delivery_multiset(), single.delivery_multiset());
}

#[test]
fn golden_dataset_fingerprint() {
    // The generator's streams are part of the contract: fixed seed ⇒
    // fixed data. Fingerprint a few structural facts plus one deep value.
    let ds = dataset();
    assert_eq!(ds.name, "tpch-sf8");
    assert_eq!(ds.total_objects(), 16);
    let li = ds.catalog.index_of("lineitem").unwrap();
    assert_eq!(ds.catalog.table(li).segment_count, 8);
    let seg0 = &ds.segments[li][0];
    assert_eq!(seg0.len(), 60);
    // First lineitem row's orderkey is stream-determined.
    let key_col = ds.catalog.table(li).schema.col("l_orderkey");
    let first_key = seg0.value(0, key_col).as_int().unwrap();
    let total_orders = ds
        .catalog
        .table(ds.catalog.index_of("orders").unwrap())
        .segment_count as i64
        * ds.segments[ds.catalog.index_of("orders").unwrap()][0].len() as i64;
    assert!(first_key >= 1 && first_key <= total_orders);
    // The exact value pins the RNG stream layout.
    assert_eq!(first_key, PIN_FIRST_KEY);
}

const PIN_FIRST_KEY: i64 = 101;

/// Every value of every segment of `ds`, in table, segment and row order.
fn all_values(ds: &Dataset) -> Vec<Value> {
    ds.segments
        .iter()
        .flatten()
        .flat_map(|seg| seg.iter().flat_map(|row| row.to_row().values().to_vec()))
        .collect()
}

/// `(value count, digest of every value)` of each generator at a small
/// config: any change to a stream, a draw order or a column moves a pin.
#[test]
fn golden_dataset_streams() {
    let cfg = GenConfig::new(7, 8).with_phys_divisor(100_000);
    let pins: Vec<(&str, Dataset, (usize, u64))> = vec![
        ("tpch", tpch::dataset(&cfg), PIN_TPCH),
        ("ssb", ssb::dataset(&cfg), PIN_SSB),
        ("mrbench", mrbench::dataset(&cfg), PIN_MRBENCH),
        ("nref", nref::dataset(&cfg), PIN_NREF),
    ];
    for (name, ds, pin) in pins {
        let values = all_values(&ds);
        let got = (values.len(), skipper_testkit::digest(&values));
        assert_eq!(got, pin, "{name} dataset streams moved");
    }
}

const PIN_TPCH: (usize, u64) = (7_557, 0x4fb2_3cdc_d906_aacc);
const PIN_SSB: (usize, u64) = (9_588, 0x6c32_834a_6a3a_6267);
const PIN_MRBENCH: (usize, u64) = (1_112, 0x3008_6af6_02d0_a0e1);
const PIN_NREF: (usize, u64) = (1_344, 0xd205_b6ce_10d2_392d);
