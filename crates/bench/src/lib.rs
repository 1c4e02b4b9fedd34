//! # skipper-bench — the experiment harness
//!
//! One runner per table and figure of the paper's evaluation (§2-§5),
//! each returning structured rows and a printable [`report::Table`],
//! plus the three plane gate runs (`chaos`, `overload`, `tiering`).
//! One binary fronts them all, driven by the [`registry`]:
//!
//! ```text
//! cargo run --release -p skipper-bench -- list        # every subcommand
//! cargo run --release -p skipper-bench -- fig7
//! cargo run --release -p skipper-bench -- all         # the data recorded in EXPERIMENTS.md
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod ctx;
pub mod experiments;
pub mod registry;
pub mod report;
pub mod scenarios;

pub use ctx::Ctx;
pub use report::Table;
