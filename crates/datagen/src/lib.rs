//! # skipper-datagen — deterministic miniature benchmark datasets
//!
//! The paper evaluates on four workloads: TPC-H (SF-50 / SF-100), the
//! Star-Schema Benchmark, the Pavlo et al. analytical benchmark
//! ("MR-bench"), and a genome-sequencing query over the NREF protein
//! database. This crate generates deterministic miniatures of all four
//! plus their benchmark queries as [`QuerySpec`]s.
//!
//! ## Logical vs physical sizing
//!
//! Every table is striped into 1 GB-class *logical* segments whose counts
//! follow the paper's geometry (`dataset::segments_for`, e.g. TPC-H SF-100
//! yields 127 objects for Q5 and 95×22×7 = 14 630 subplans, the exact
//! numbers in §5.2.4). Each segment physically carries only a few
//! thousand rows ([`GenConfig::phys_divisor`] scales logical row counts
//! down) so real joins stay fast; the simulation charges transfer and CPU
//! virtual time from the logical sizes.
//!
//! [`QuerySpec`]: skipper_relational::QuerySpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod config;
pub mod dataset;
pub(crate) mod dates;
pub mod mrbench;
pub mod nref;
pub mod ssb;
pub mod tpch;

pub use config::GenConfig;
pub use dataset::{Dataset, TableSpec};
