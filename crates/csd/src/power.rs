//! MAID power accounting — the physics behind the CSD's economics.
//!
//! The paper's motivation (§1-§2) rests on Massive-Array-of-Idle-Disks
//! power management: Pelican keeps only ~8 % of its 1,152 disks spinning,
//! which is what permits right-provisioned cooling and the $0.01-0.1/GB
//! price points. This module quantifies that: given a run's device
//! activity (switches, active time), it estimates energy consumption for
//! a MAID configuration vs. the same disks kept always-on — reproducing
//! the motivation-level claim that cold storage saves ~80-90 % of the
//! power of an equivalent online tier (Facebook reports 80 % for its
//! Blu-ray tier over Open Vault, §7).

use skipper_sim::SimDuration;

/// Electrical parameters of one disk and the array geometry.
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    /// Disks in the array (Pelican: 1,152).
    pub total_disks: u32,
    /// Disks per group — spun up together (Pelican: ~96 of 1,152 ≈ 8 %).
    pub disks_per_group: u32,
    /// Watts per spinning, idle disk (archival SMR: ~5 W).
    pub active_idle_watts: f64,
    /// Watts per disk while seeking/streaming (~8 W).
    pub busy_watts: f64,
    /// Watts per standby (spun-down) disk (~0.6 W).
    pub standby_watts: f64,
    /// Extra energy of one spin-up cycle per disk, in joules (inrush
    /// current over ~10 s: ~20 J typical archival HDD).
    pub spinup_joules_per_disk: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            total_disks: 1_152,
            disks_per_group: 96,
            active_idle_watts: 5.0,
            busy_watts: 8.0,
            standby_watts: 0.6,
            spinup_joules_per_disk: 20.0,
        }
    }
}

/// Energy estimate for one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyReport {
    /// Watt-hours consumed by the MAID configuration.
    pub maid_wh: f64,
    /// Watt-hours the same array would consume with every disk spinning.
    pub all_spinning_wh: f64,
}

impl EnergyReport {
    /// Fraction of energy saved by MAID operation.
    pub fn savings(&self) -> f64 {
        if self.all_spinning_wh <= 0.0 {
            0.0
        } else {
            1.0 - self.maid_wh / self.all_spinning_wh
        }
    }
}

impl PowerModel {
    /// Estimates energy over a run of length `wall`, with `transfer_time`
    /// spent streaming and `group_switches` spin-down/spin-up cycles.
    ///
    /// MAID: one group spins (idle or busy), the rest stand by, plus the
    /// spin-up surcharge per switch. All-spinning baseline: every disk at
    /// active idle, the serving group at busy rate while transferring.
    pub fn estimate(
        &self,
        wall: SimDuration,
        transfer_time: SimDuration,
        group_switches: u64,
    ) -> EnergyReport {
        let wall_s = wall.as_secs_f64();
        let busy_s = transfer_time.as_secs_f64().min(wall_s);
        let idle_s = wall_s - busy_s;
        let group = self.disks_per_group as f64;
        let standby = (self.total_disks - self.disks_per_group) as f64;

        let maid_j = group * (busy_s * self.busy_watts + idle_s * self.active_idle_watts)
            + standby * wall_s * self.standby_watts
            + group_switches as f64 * group * self.spinup_joules_per_disk;

        let all_j = group * busy_s * self.busy_watts
            + (self.total_disks as f64 * wall_s - group * busy_s) * self.active_idle_watts;

        EnergyReport {
            maid_wh: maid_j / 3_600.0,
            all_spinning_wh: all_j / 3_600.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_run_saves_close_to_the_idle_ratio() {
        let m = PowerModel::default();
        let report = m.estimate(SimDuration::from_secs(3_600), SimDuration::from_secs(60), 2);
        let savings = report.savings();
        assert!(
            (0.70..0.90).contains(&savings),
            "savings {savings:.3} for a mostly idle hour"
        );
    }

    #[test]
    fn switch_storms_erode_savings() {
        let m = PowerModel::default();
        let calm = m.estimate(SimDuration::from_secs(600), SimDuration::from_secs(60), 1);
        let stormy = m.estimate(SimDuration::from_secs(600), SimDuration::from_secs(60), 500);
        assert!(stormy.maid_wh > calm.maid_wh);
        assert!(stormy.savings() < calm.savings());
    }

    #[test]
    fn busy_transfer_time_charged_at_busy_rate() {
        let m = PowerModel::default();
        let idle = m.estimate(SimDuration::from_secs(100), SimDuration::ZERO, 0);
        let busy = m.estimate(SimDuration::from_secs(100), SimDuration::from_secs(100), 0);
        assert!(busy.maid_wh > idle.maid_wh);
        // Fully-busy group: 96 disks × 100 s × (8−5) W extra = 8.3 Wh.
        let extra = busy.maid_wh - idle.maid_wh;
        assert!((extra - 96.0 * 100.0 * 3.0 / 3600.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_longer_than_wall_is_clamped() {
        let m = PowerModel::default();
        let r = m.estimate(SimDuration::from_secs(10), SimDuration::from_secs(100), 0);
        assert!(r.maid_wh.is_finite() && r.maid_wh > 0.0);
    }
}
