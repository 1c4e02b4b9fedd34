//! Randomized-but-deterministic property tests for the CSD device model.
//!
//! Originally written with `proptest`; this offline workspace replaces
//! the strategy machinery with seeded sweeps over the same input space —
//! every case is a pure function of the loop index, so failures
//! reproduce exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use skipper_csd::{
    CsdConfig, CsdDevice, IntraGroupOrder, Layout, LayoutPolicy, ObjectId, ObjectStore, QueryId,
    SchedPolicy,
};
use skipper_sim::{SimDuration, SimTime};

fn tenant_objects(tenants: u16, per_tenant: u32) -> Vec<Vec<ObjectId>> {
    (0..tenants)
        .map(|t| (0..per_tenant).map(|s| ObjectId::new(t, 0, s)).collect())
        .collect()
}

/// Every layout policy places every object exactly once, and the
/// policy-specific structure holds.
#[test]
fn layouts_place_everything() {
    let policies = [
        LayoutPolicy::AllInOne,
        LayoutPolicy::TwoClientsPerGroup,
        LayoutPolicy::OneClientPerGroup,
        LayoutPolicy::Incremental,
    ];
    for tenants in 1u16..6 {
        for per_tenant in 1u32..10 {
            for policy in policies {
                let objs = tenant_objects(tenants, per_tenant);
                let layout = Layout::build(policy, &objs);
                assert_eq!(layout.len(), (tenants as u32 * per_tenant) as usize);
                for tenant in &objs {
                    for &o in tenant {
                        assert!(layout.contains(o));
                    }
                }
                match policy {
                    LayoutPolicy::AllInOne => assert_eq!(layout.num_groups(), 1),
                    LayoutPolicy::OneClientPerGroup => {
                        assert_eq!(layout.num_groups(), tenants as u32)
                    }
                    LayoutPolicy::TwoClientsPerGroup => {
                        assert_eq!(layout.num_groups(), tenants.div_ceil(2) as u32)
                    }
                    LayoutPolicy::Incremental => {
                        // Each tenant's data touches at most two groups.
                        for (t, tenant) in objs.iter().enumerate() {
                            let mut groups: Vec<u32> =
                                tenant.iter().map(|&o| layout.group_of(o)).collect();
                            groups.sort_unstable();
                            groups.dedup();
                            assert!(groups.len() <= 2, "tenant {t} spans {groups:?}");
                        }
                    }
                }
            }
        }
    }
}

/// Conservation: the device serves every submitted request exactly once,
/// under any scheduler and intra-group ordering, and virtual time only
/// moves forward.
#[test]
fn device_serves_every_request_once() {
    let policies = [
        SchedPolicy::FcfsObject,
        SchedPolicy::FcfsQuery,
        SchedPolicy::MaxQueries,
        SchedPolicy::RankBased,
        SchedPolicy::FcfsSlack(8),
    ];
    let intras = [
        IntraGroupOrder::SemanticRoundRobin,
        IntraGroupOrder::TableOrder,
        IntraGroupOrder::ArrivalOrder,
    ];
    let mut rng = StdRng::seed_from_u64(0xC5D0);
    for case in 0..120 {
        let tenants = rng.gen_range(1u16..5);
        let per_tenant = rng.gen_range(1u32..8);
        let policy = policies[rng.gen_range(0..policies.len())];
        let intra = intras[rng.gen_range(0..intras.len())];
        let switch_secs = rng.gen_range(0u64..30);
        let split_batches = rng.gen_bool(0.5);

        let mut store = ObjectStore::new();
        let objs = tenant_objects(tenants, per_tenant);
        for tenant in &objs {
            for &o in tenant {
                store.put(o, 1 << 20, o.tenant as u32 % 3, ());
            }
        }
        let mut dev: CsdDevice<()> = CsdDevice::new(
            CsdConfig {
                switch_latency: SimDuration::from_secs(switch_secs),
                bandwidth_bytes_per_sec: (1 << 20) as f64,
                initial_load_free: true,
                parallel_streams: 1,
                ..CsdConfig::default()
            },
            store,
            policy.build(),
            intra,
        );
        let mut now = SimTime::ZERO;
        let mut expected = 0u64;
        for (t, tenant) in objs.iter().enumerate() {
            expected += tenant.len() as u64;
            if split_batches {
                for &o in tenant {
                    dev.submit(now, t, QueryId::new(t as u16, 0), &[o]);
                }
            } else {
                dev.submit(now, t, QueryId::new(t as u16, 0), tenant);
            }
        }
        let mut served = Vec::new();
        let mut last = now;
        let mut batch = Vec::new();
        while let Some(until) = dev.kick(now) {
            assert!(until >= last, "case {case}: time went backwards");
            last = until;
            now = until;
            dev.complete_into(now, &mut batch);
            served.extend(batch.drain(..).map(|d| d.object));
        }
        assert!(dev.is_quiescent());
        assert_eq!(served.len() as u64, expected, "case {case}");
        served.sort_unstable();
        served.dedup();
        assert_eq!(
            served.len() as u64,
            expected,
            "case {case}: duplicate delivery"
        );
        assert_eq!(dev.metrics().objects_served, expected);
        // Switches are bounded by the number of service operations.
        assert!(dev.metrics().group_switches <= expected * 3);
    }
}

/// With all data in one group no scheduler ever pays a switch.
#[test]
fn single_group_never_switches() {
    let policies = [
        SchedPolicy::FcfsObject,
        SchedPolicy::FcfsQuery,
        SchedPolicy::MaxQueries,
        SchedPolicy::RankBased,
    ];
    for tenants in 1u16..5 {
        for per_tenant in 1u32..6 {
            for policy in policies {
                let mut store = ObjectStore::new();
                let objs = tenant_objects(tenants, per_tenant);
                for tenant in &objs {
                    for &o in tenant {
                        store.put(o, 1 << 20, 0, ());
                    }
                }
                let mut dev: CsdDevice<()> = CsdDevice::new(
                    CsdConfig {
                        switch_latency: SimDuration::from_secs(10),
                        bandwidth_bytes_per_sec: (1 << 20) as f64,
                        initial_load_free: true,
                        parallel_streams: 1,
                        ..CsdConfig::default()
                    },
                    store,
                    policy.build(),
                    IntraGroupOrder::SemanticRoundRobin,
                );
                let mut now = SimTime::ZERO;
                for (t, tenant) in objs.iter().enumerate() {
                    dev.submit(now, t, QueryId::new(t as u16, 0), tenant);
                }
                let mut done = Vec::new();
                while let Some(until) = dev.kick(now) {
                    now = until;
                    done.clear();
                    dev.complete_into(now, &mut done);
                }
                assert_eq!(dev.metrics().group_switches, 0);
            }
        }
    }
}
