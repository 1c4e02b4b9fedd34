//! # skipper-core — the Skipper query-execution framework
//!
//! This crate implements the paper's primary contribution: a CSD-driven
//! query execution framework that masks the multi-second group-switch
//! latency of cold storage devices. Its pieces map one-to-one onto §4 of
//! the paper:
//!
//! * [`subplan`] — the subplan bookkeeping behind the cache-aware MJoin:
//!   the cross product of per-relation segment choices (Table 2), with
//!   pending/executed tracking, per-object counts, and the §5.2.4
//!   subplan-pruning optimization.
//! * [`cache`] — the MJoin buffer cache with the two eviction policies of
//!   §4.2: *maximal pending subplans* and the paper's final
//!   *maximal progress* policy.
//! * [`state_manager`] — Algorithm 1: issue-everything-upfront,
//!   out-of-order arrival handling, admission/eviction, runnable-subplan
//!   execution, and reissue cycles.
//! * [`vanilla`] — the pull-based baseline: plan-ordered, one GET at a
//!   time, blocking binary hash joins (vanilla PostgreSQL's behaviour).
//! * [`proxy`] — the client proxy that tags GETs with query identifiers,
//!   making the CSD scheduler query-aware (§4.3).
//! * [`config`] — the calibrated cost model mapping real tuple work to
//!   virtual time (Table 3 anchors).
//! * [`analysis`] — the §5.2.4 closed-form reissue model and a cache
//!   advisor derived from it.
//! * [`runtime`] — the layered multi-tenant runtime: a **workload
//!   layer** ([`runtime::Workload`]: dataset + query mix + engine +
//!   arrival process, including staggered starts and fixed-seed Poisson
//!   open arrivals), an **engine layer**
//!   ([`runtime::EngineFactory`]: per-tenant boxed engine builders, so
//!   one scenario mixes Skipper and Vanilla tenants), and a **driver
//!   layer** (client state machine, device pump, event loop, and
//!   record collector) producing the per-query timings, stall
//!   breakdowns, and GET counts behind every figure in §5.
//!
//! The entry point is [`runtime::Scenario`], built from one
//! [`runtime::Workload`] per tenant. A fleet of identical tenants is a
//! repeated workload:
//!
//! ```no_run
//! use skipper_core::runtime::{Scenario, Workload};
//! use skipper_datagen::{tpch, GenConfig};
//!
//! let data = tpch::dataset(&GenConfig::new(42, 50));
//! let q12 = tpch::q12(&data);
//! // Five Skipper clients (the default engine), one query each.
//! let tenant = Workload::new(data).repeat_query(q12, 1);
//! let result = Scenario::from_workloads(vec![tenant; 5]).run();
//! println!("mean exec time: {:.0}s", result.mean_query_secs());
//! ```
//!
//! and a heterogeneous fleet is one workload per tenant:
//!
//! ```no_run
//! use skipper_core::runtime::{ArrivalProcess, Scenario, SkipperFactory, VanillaFactory, Workload};
//! use skipper_datagen::{tpch, GenConfig};
//! use skipper_sim::SimDuration;
//!
//! let data = tpch::dataset(&GenConfig::new(42, 50));
//! let q12 = tpch::q12(&data);
//! let result = Scenario::from_workloads(vec![
//!     // An interactive Skipper tenant with a private 10 GiB cache...
//!     Workload::new(data.clone())
//!         .repeat_query(q12.clone(), 3)
//!         .engine(SkipperFactory::default().cache_bytes(10 << 30)),
//!     // ...sharing the device with a legacy pull-based tenant...
//!     Workload::new(data.clone())
//!         .repeat_query(q12.clone(), 3)
//!         .engine(VanillaFactory),
//!     // ...and an open-arrival tenant issuing a query every ~10 min.
//!     Workload::new(data)
//!         .repeat_query(q12, 8)
//!         .arrival(ArrivalProcess::Poisson { mean: SimDuration::from_secs(600), seed: 1 }),
//! ])
//! .run();
//! println!("makespan: {:.0}s", result.makespan.as_secs_f64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod config;
pub mod engine;
pub mod proxy;
pub mod runtime;
pub mod state_manager;
pub mod subplan;
pub mod vanilla;

pub use analysis::{CacheAdvisor, ReissueModel};
pub use cache::{BufferCache, EvictionPolicy};
pub use config::CostModel;
pub use runtime::{
    ArrivalProcess, EngineFactory, LatencyScope, LatencySummary, Quantiles, QueryRecord,
    RecordMode, RunResult, Scenario, SkipperFactory, SloReport, VanillaFactory, Workload,
};
pub use state_manager::SkipperEngine;
pub use subplan::SubplanTracker;
pub use vanilla::VanillaEngine;
