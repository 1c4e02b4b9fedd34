//! # skipper-cost — storage tiering economics
//!
//! Reproduces the cost analysis of §2.1 and §3.1 of the paper: the
//! acquisition cost of a database under one/two/three/four-tier storage
//! hierarchies (Table 1, Figure 2) and the savings from collapsing the
//! capacity + archival tiers into a single CSD-based *cold storage tier*
//! at various CSD price points (Figure 3).
//!
//! All numbers are pure arithmetic over published $/GB prices, so this
//! crate regenerates the paper's dollar figures *exactly* (e.g. the
//! All-SATA 100 TB configuration costs $460,800).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod fleet;
pub mod model;
pub mod tiers;

pub use fleet::{CostReport, FleetPricing};
pub use model::{CsdTiering, StorageConfig};
pub use tiers::{DevicePricing, TierFractions, CSD_PRICE_POINTS};
