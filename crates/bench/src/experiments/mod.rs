//! Experiment runners, one module per paper artifact group.

pub mod ablations;
pub mod baseline;
pub mod cache_exp;
pub mod chaos;
pub mod costs;
pub mod layout_exp;
pub mod mixed;
pub mod outlook;
pub mod overload;
pub mod power_exp;
pub mod sched_exp;
pub mod sharding;
pub mod skipper_exp;
pub mod streams;
pub mod suite;
pub mod table2;
pub mod tiering;

/// Default scale parameters shared by the §5 experiments.
pub mod params {
    /// TPC-H scale factor of the main experiments (50 GB dataset class).
    pub const SF_MAIN: u32 = 50;
    /// TPC-H scale factor of the large cache sweep (Figure 11c).
    pub const SF_LARGE: u32 = 100;
    /// Physical miniaturization for SF-50 runs.
    pub const DIVISOR_MAIN: u64 = 5_000;
    /// Coarser miniaturization for the SF-100 sweep (14 630 subplans ×
    /// 5 clients make per-tuple work the wall-clock bottleneck).
    pub const DIVISOR_LARGE: u64 = 20_000;
    /// One gibibyte.
    pub const GIB: u64 = 1 << 30;
}
