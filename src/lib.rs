//! # Skipper — cheap data analytics on cold storage devices
//!
//! A from-scratch reproduction of *"Cheap Data Analytics using Cold
//! Storage Devices"* (Borovica-Gajić, Appuswamy, Ailamaki — PVLDB 9(12),
//! 2016): a query-execution framework that makes multi-second MAID
//! group-switch latencies disappear behind out-of-order, cache-aware
//! multi-way join execution and query-aware device scheduling.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! * [`sim`] — deterministic discrete-event simulation substrate.
//! * [`csd`] — the cold storage device model (groups, switches,
//!   schedulers, layouts).
//! * [`relational`] — the relational engine substrate (rows, expressions,
//!   scans, hash joins, aggregation).
//! * [`datagen`] — miniature TPC-H / SSB / MR-bench / NREF generators
//!   with the paper's segment geometry.
//! * [`cost`] — storage-tiering economics (Figures 2-3).
//! * [`core`] — Skipper itself: the MJoin state manager, maximal-progress
//!   cache, client proxy, and the **layered multi-tenant runtime**
//!   (`core::runtime`): per-tenant workloads, pluggable engine
//!   factories, and closed-loop / staggered / Poisson arrival
//!   processes.
//!
//! ## Quickstart
//!
//! The classic homogeneous fleet (three Skipper tenants, one shared
//! device) is one [`Workload`](core::runtime::Workload), repeated:
//!
//! ```
//! use skipper::core::runtime::{Scenario, SkipperFactory, Workload};
//! use skipper::datagen::{tpch, GenConfig};
//!
//! // A miniature TPC-H instance (SF-2) and its Q12.
//! let data = tpch::dataset(&GenConfig::new(42, 2).with_phys_divisor(200_000));
//! let q12 = tpch::q12(&data);
//!
//! // Three tenants sharing one CSD, each running Q12 through Skipper.
//! let tenant = Workload::new(data)
//!     .repeat_query(q12, 1)
//!     .engine(SkipperFactory::default().cache_bytes(10 << 30));
//! let result = Scenario::from_workloads(vec![tenant; 3]).run();
//!
//! assert_eq!(result.device.group_switches, 2); // one residency per tenant
//! println!("mean query time: {:.0}s", result.mean_query_secs());
//! ```
//!
//! ## Mixed-engine fleets and open arrivals
//!
//! One workload per tenant composes heterogeneous fleets — a
//! half-migrated fleet where Skipper and pull-based PostgreSQL tenants
//! share the device, with per-tenant caches and arrival processes:
//!
//! ```
//! use std::sync::Arc;
//! use skipper::core::runtime::{
//!     ArrivalProcess, Scenario, SkipperFactory, VanillaFactory, Workload,
//! };
//! use skipper::datagen::{tpch, GenConfig};
//! use skipper::sim::SimDuration;
//!
//! let data = Arc::new(tpch::dataset(&GenConfig::new(42, 2).with_phys_divisor(200_000)));
//! let q12 = tpch::q12(&data);
//!
//! let result = Scenario::from_workloads(vec![
//!     // Upgraded tenant: Skipper with a private 10 GiB MJoin cache.
//!     Workload::new(Arc::clone(&data))
//!         .repeat_query(q12.clone(), 1)
//!         .engine(SkipperFactory::default().cache_bytes(10 << 30)),
//!     // Legacy tenant: pull-based, one GET at a time.
//!     Workload::new(Arc::clone(&data))
//!         .repeat_query(q12.clone(), 1)
//!         .engine(VanillaFactory),
//!     // Open-arrival tenant: Poisson releases, fixed seed, exactly
//!     // reproducible.
//!     Workload::new(data)
//!         .repeat_query(q12, 2)
//!         .engine(SkipperFactory::default().cache_bytes(10 << 30))
//!         .arrival(ArrivalProcess::Poisson {
//!             mean: SimDuration::from_secs(600),
//!             seed: 7,
//!         }),
//! ])
//! .run();
//!
//! // Skipper issues its working set upfront; vanilla pulls one object
//! // at a time — in the same run.
//! assert!(result.clients[0][0].upfront_gets > 1);
//! assert_eq!(result.clients[1][0].upfront_gets, 1);
//! assert_eq!(result.scheduler, "ranking"); // query-aware device scheduling
//! ```
//!
//! Run `cargo run --release -p skipper-bench -- all` to regenerate
//! every table and figure of the paper; see `EXPERIMENTS.md` for the
//! recorded paper-vs-measured comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use skipper_core as core;
pub use skipper_cost as cost;
pub use skipper_csd as csd;
pub use skipper_datagen as datagen;
pub use skipper_relational as relational;
pub use skipper_sim as sim;
