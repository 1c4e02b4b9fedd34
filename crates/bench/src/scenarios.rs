//! Scenario builders shared by the gate runs: the reduced mixed fleet
//! the `chaos` gates fault, and the skewed hot/cold fleet the `tiering`
//! grid sweeps.

use std::sync::Arc;

use skipper_core::runtime::{
    BasePlacement, PlacementPolicy, Scenario, SkipperFactory, VanillaFactory, Workload,
};
use skipper_csd::SchedPolicy;
use skipper_datagen::{tpch, Dataset, GenConfig};
use skipper_relational::catalog::GIB;
use skipper_sim::{SimDuration, SimTime};

/// `s` seconds past the simulation epoch (fault-plan instants).
pub fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// The SF-4 TPC-H dataset the `chaos` and `overload` fleets query.
pub fn smoke_dataset() -> Arc<Dataset> {
    Arc::new(tpch::dataset(
        &GenConfig::new(21, 4).with_phys_divisor(100_000),
    ))
}

/// Reduced mixed fleet (the chaos smoke scenario): three staggered
/// Skipper tenants and one pull-based Vanilla tenant on a 4-shard
/// `Replicated { k: 2 }` fleet, enough repeat rounds that drive-loop
/// allocation behaviour dominates assembly in a per-delivery gauge.
pub fn mixed_fleet(ds: &Arc<Dataset>, sched: SchedPolicy) -> Scenario {
    let q12 = tpch::q12(ds);
    let mut workloads: Vec<Workload> = (0..3)
        .map(|i| {
            Workload::new(Arc::clone(ds))
                .repeat_query(q12.clone(), 8)
                .engine(SkipperFactory::default().cache_bytes(30 << 30))
                .start_at(SimDuration::from_secs(15 * i as u64))
        })
        .collect();
    workloads.push(
        Workload::new(Arc::clone(ds))
            .repeat_query(q12, 4)
            .engine(VanillaFactory),
    );
    Scenario::from_workloads(workloads)
        .shards(4)
        .placement(PlacementPolicy::Replicated {
            k: 2,
            base: BasePlacement::RoundRobin,
        })
        .scheduler(sched)
}

/// [`SkewedFleet`] hot tenants: small working set, many closed-loop
/// repeat rounds.
pub const HOT_TENANTS: usize = 4;
/// Q12 rounds per hot tenant (every round re-GETs the same objects).
pub const HOT_ROUNDS: usize = 16;
/// [`SkewedFleet`] cold tenants: large working set, one scan each,
/// never repeated.
pub const COLD_TENANTS: usize = 6;
/// CSD shards behind the [`SkewedFleet`] (round-robin placement).
pub const SHARDS: usize = 4;
/// The [`SkewedFleet`] datasets' generator seed.
const SEED: u64 = 21;

/// A skew-heavy multi-tenant fleet for the cache-tier experiments:
/// a head of hot tenants re-running Q12 over small private datasets
/// (their GET sets repeat every round — exactly what a shard cache
/// absorbs) against a tail of cold tenants each streaming one large
/// Q1 scan (touch-once traffic that only pollutes a cache).
///
/// Datasets are generated once and `Arc`-shared across every
/// [`SkewedFleet::scenario`] call, so a sweep re-running the same fleet
/// under many cache configurations pays generation once.
pub struct SkewedFleet {
    /// Hot tenants' small dataset (SF-2).
    pub hot: Arc<Dataset>,
    /// Cold tenants' large dataset (SF-8).
    pub cold: Arc<Dataset>,
}

impl Default for SkewedFleet {
    /// Generates the two datasets (miniaturized physical rows, full
    /// logical geometry — like every other bench fleet).
    fn default() -> Self {
        let hot = Arc::new(tpch::dataset(
            &GenConfig::new(SEED, 2).with_phys_divisor(100_000),
        ));
        let cold = Arc::new(tpch::dataset(
            &GenConfig::new(SEED, 8).with_phys_divisor(100_000),
        ));
        SkewedFleet { hot, cold }
    }
}

impl SkewedFleet {
    /// Total logical bytes stored on the fleet (every tenant's whole
    /// dataset — the denominator for "DRAM at X% of the working set").
    pub fn working_set_bytes(&self) -> u64 {
        let per_hot = self.hot.total_objects() as u64 * GIB;
        let per_cold = self.cold.total_objects() as u64 * GIB;
        HOT_TENANTS as u64 * per_hot + COLD_TENANTS as u64 * per_cold
    }

    /// Logical bytes the hot tenants re-touch every round (the cache's
    /// target residency: Q12's orders + lineitem objects per tenant).
    pub fn hot_set_bytes(&self) -> u64 {
        let q12 = tpch::q12(&self.hot);
        HOT_TENANTS as u64 * self.hot.objects_for_query(&q12) as u64 * GIB
    }

    /// Builds the scenario: hot tenants staggered 5 s apart so their
    /// rounds interleave, cold scans released at t = 0. Deterministic —
    /// no stochastic arrivals — so cached runs replay bit-identically.
    pub fn scenario(&self) -> Scenario {
        let q12 = tpch::q12(&self.hot);
        let q1 = tpch::q1(&self.cold);
        let mut workloads: Vec<Workload> = (0..HOT_TENANTS)
            .map(|i| {
                Workload::new(Arc::clone(&self.hot))
                    .repeat_query(q12.clone(), HOT_ROUNDS)
                    .engine(SkipperFactory::default().cache_bytes(30 << 30))
                    .start_at(SimDuration::from_secs(5 * i as u64))
            })
            .collect();
        for _ in 0..COLD_TENANTS {
            workloads.push(
                Workload::new(Arc::clone(&self.cold))
                    .repeat_query(q1.clone(), 1)
                    .engine(SkipperFactory::default().cache_bytes(30 << 30)),
            );
        }
        Scenario::from_workloads(workloads)
            .shards(SHARDS)
            .placement(PlacementPolicy::RoundRobin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_fleet_geometry() {
        let fleet = SkewedFleet::default();
        // SF-2: 9 objects; SF-8: 16 objects (the golden fingerprint).
        assert_eq!(fleet.hot.total_objects(), 9);
        assert_eq!(fleet.cold.total_objects(), 16);
        assert_eq!(fleet.working_set_bytes(), (4 * 9 + 6 * 16) * GIB);
        // Q12 on SF-2 touches orders (1) + lineitem (2).
        assert_eq!(fleet.hot_set_bytes(), 4 * 3 * GIB);
        // The hot head must fit in ~10% of the working set, or the
        // tiering experiment's premise (a small DRAM tier absorbs the
        // repeats) is void.
        assert!(fleet.hot_set_bytes() * 10 <= fleet.working_set_bytes() * 11 / 10);
    }
}
