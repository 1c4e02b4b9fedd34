//! Run-level fleet economics: pricing one simulated run in dollars.
//!
//! The paper's Figures 2–3 price *static* database configurations; a
//! cache-tiered CSD fleet additionally trades capex (DRAM/SSD tiers in
//! front of the cold device) against performance (makespan, tail
//! latency). This module turns a run's observable outputs — cold
//! capacity, cache tier sizes, wall-clock, energy, queries served —
//! into a dollar figure per query, so a bench sweep over cache sizes
//! and tier mixes produces a cost-vs-performance Pareto frontier.
//!
//! The model is deliberately simple and fully deterministic:
//!
//! * **Capex** — tier capacity × $/GB ([`DevicePricing::ssd`] prices
//!   the SSD cache tier; DRAM and the cold CSD tier carry their own
//!   $/GB), amortized linearly over [`FleetPricing::amortization_secs`]
//!   of wall-clock.
//! * **Opex** — the run's MAID energy (watt-hours) at
//!   [`FleetPricing::electricity_per_kwh`].
//!
//! Dollars per query = (amortized capex + energy) / queries.

use crate::tiers::{DevicePricing, CSD_PRICE_POINTS};

/// Bytes per gigabyte, matching the crate's binary-ish convention
/// (100 TB = 102,400 GB in [`crate::model::REFERENCE_DB_GB`]).
pub(crate) const BYTES_PER_GB: f64 = (1u64 << 30) as f64;

/// $/GB and $/kWh inputs pricing one simulated fleet run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetPricing {
    /// Device-class acquisition prices (the paper's Table 1); the SSD
    /// entry prices the SSD cache tier.
    pub devices: DevicePricing,
    /// Cold (CSD) capacity $/GB — default is the middle CSD price
    /// point of Figure 3 ($0.20/GB).
    pub csd_per_gb: f64,
    /// DRAM $/GB for the hot cache tier (2016 server DRAM ≈ $7/GB).
    pub dram_per_gb: f64,
    /// Electricity price, $/kWh.
    pub electricity_per_kwh: f64,
    /// Capex amortization window in wall-clock seconds (3 years).
    pub amortization_secs: f64,
}

impl Default for FleetPricing {
    fn default() -> Self {
        FleetPricing {
            devices: DevicePricing::default(),
            csd_per_gb: CSD_PRICE_POINTS[1],
            dram_per_gb: 7.0,
            electricity_per_kwh: 0.10,
            amortization_secs: 3.0 * 365.25 * 24.0 * 3600.0,
        }
    }
}

impl FleetPricing {
    /// Prices one run: `cold_bytes` on the CSD, `dram_bytes`/`ssd_bytes`
    /// of cache tier capacity, over `wall_secs` of (simulated)
    /// wall-clock consuming `energy_wh` watt-hours and completing
    /// `queries` queries.
    pub fn price_run(
        &self,
        cold_bytes: u64,
        dram_bytes: u64,
        ssd_bytes: u64,
        wall_secs: f64,
        energy_wh: f64,
        queries: u64,
    ) -> CostReport {
        let cold_capacity_dollars = cold_bytes as f64 / BYTES_PER_GB * self.csd_per_gb;
        let dram_tier_dollars = dram_bytes as f64 / BYTES_PER_GB * self.dram_per_gb;
        let ssd_tier_dollars = ssd_bytes as f64 / BYTES_PER_GB * self.devices.ssd;
        let capex_dollars = cold_capacity_dollars + dram_tier_dollars + ssd_tier_dollars;
        let amortized_capex_dollars = if self.amortization_secs > 0.0 {
            capex_dollars * (wall_secs / self.amortization_secs)
        } else {
            0.0
        };
        let energy_dollars = energy_wh / 1000.0 * self.electricity_per_kwh;
        let total_run_dollars = amortized_capex_dollars + energy_dollars;
        let dollars_per_query = if queries > 0 {
            total_run_dollars / queries as f64
        } else {
            0.0
        };
        CostReport {
            cold_capacity_dollars,
            dram_tier_dollars,
            ssd_tier_dollars,
            capex_dollars,
            amortized_capex_dollars,
            energy_dollars,
            total_run_dollars,
            queries,
            dollars_per_query,
        }
    }
}

/// The dollar breakdown of one run (see [`FleetPricing::price_run`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostReport {
    /// Full acquisition cost of the cold (CSD) capacity.
    pub cold_capacity_dollars: f64,
    /// Full acquisition cost of the DRAM cache tier.
    pub dram_tier_dollars: f64,
    /// Full acquisition cost of the SSD cache tier.
    pub ssd_tier_dollars: f64,
    /// Total acquisition cost (all of the above).
    pub capex_dollars: f64,
    /// Capex share attributable to this run's wall-clock.
    pub amortized_capex_dollars: f64,
    /// Energy cost of the run (MAID watt-hours at the $/kWh price).
    pub energy_dollars: f64,
    /// Amortized capex + energy.
    pub total_run_dollars: f64,
    /// Queries the run completed.
    pub queries: u64,
    /// `total_run_dollars / queries` (0 when no query completed).
    pub dollars_per_query: f64,
}

impl Default for CostReport {
    fn default() -> Self {
        FleetPricing::default().price_run(0, 0, 0, 0.0, 0.0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capex_prices_each_tier_at_its_rate() {
        let p = FleetPricing::default();
        let r = p.price_run(100 << 30, 10 << 30, 20 << 30, 0.0, 0.0, 0);
        assert!((r.cold_capacity_dollars - 100.0 * 0.2).abs() < 1e-9);
        assert!((r.dram_tier_dollars - 10.0 * 7.0).abs() < 1e-9);
        assert!((r.ssd_tier_dollars - 20.0 * 75.0).abs() < 1e-9);
        assert!((r.capex_dollars - (20.0 + 70.0 + 1500.0)).abs() < 1e-9);
        assert_eq!(r.dollars_per_query, 0.0);
    }

    #[test]
    fn dollars_per_query_amortizes_capex_and_adds_energy() {
        let p = FleetPricing {
            amortization_secs: 1000.0,
            electricity_per_kwh: 0.10,
            ..FleetPricing::default()
        };
        // $200 capex amortized over a 100 s run = $20; 5 kWh = $0.50.
        let r = p.price_run(1000 << 30, 0, 0, 100.0, 5000.0, 10);
        assert!((r.amortized_capex_dollars - 20.0).abs() < 1e-9);
        assert!((r.energy_dollars - 0.5).abs() < 1e-9);
        assert!((r.dollars_per_query - 2.05).abs() < 1e-9);
    }

    #[test]
    fn bigger_cache_costs_more_per_query_at_equal_speed() {
        let p = FleetPricing::default();
        let small = p.price_run(1 << 40, 1 << 30, 0, 3600.0, 100.0, 1000);
        let big = p.price_run(1 << 40, 64 << 30, 0, 3600.0, 100.0, 1000);
        assert!(big.dollars_per_query > small.dollars_per_query);
    }
}
