//! # skipper-csd — Cold Storage Device model
//!
//! A Cold Storage Device (CSD) packs hundreds to thousands of
//! archival-grade SMR disks into a rack, organized as a
//! Massive-Array-of-Idle-Disks: only one *disk group* is spun up at a
//! time. Accessing data in the loaded group performs like a normal
//! capacity-tier disk array (1-2 GB/s); accessing any other group first
//! requires a *group switch* — spinning the active group down and the
//! target group up — costing roughly 8-20 seconds (Pelican: 8 s).
//!
//! This crate models exactly the device the paper emulates with its Swift
//! middleware:
//!
//! * [`object`] — object identifiers and metadata (tenant, table, segment,
//!   logical size, group placement).
//! * [`layout`] — data-placement policies across groups, including the
//!   four layouts of §5.2.3 (all-in-one, two-clients-per-group,
//!   one-client-per-group, incremental), plus the device-level
//!   [`PlacementPolicy`] dividing objects across the shards of a
//!   multi-CSD fleet.
//! * [`store`] — the object store: per-object size and group placement
//!   behind a GET interface, generic over the payload. The runtime's
//!   shards store `()` — the bytes stay in each tenant's dataset and the
//!   device only decides *when* a GET completes, as the paper's testbed
//!   does by delaying Swift GETs.
//! * [`sched`] — group-switch scheduling policies: object-FCFS,
//!   query-FCFS, Max-Queries, and the paper's rank-based algorithm
//!   `R(g) = N_g + K·ΣW_q(g)` with `K = 1` (§4.4) — all deciding over
//!   the incrementally-indexed request queue
//!   ([`sched::queue::RequestQueue`], O(log n) per submit and O(1)
//!   amortized per serve; the
//!   pre-index full-rescan [`sched::naive::NaiveQueue`] survives as the
//!   differential-test reference).
//! * [`device`] — the device state machine: request queue → pick group →
//!   switch (latency S) → serve every pending request on the group
//!   (no preemption) → repeat; with semantically-smart intra-group
//!   ordering (round-robin across a query's tables). Serving runs
//!   through a multi-stream *service pipeline*
//!   ([`CsdConfig::parallel_streams`](device::CsdConfig) transfer
//!   slots, §5.2.1): intra-group transfers overlap, and a switch
//!   decided mid-drain is armed to start the instant the pipe drains.
//! * [`metrics`] — switch/transfer counters per device and per client.
//! * [`power`] — MAID energy accounting (the ~80 % power saving that
//!   motivates cold storage economics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod device;
pub mod layout;
pub mod metrics;
pub mod object;
pub mod power;
pub mod sched;
pub mod store;

pub use cache::{CacheConfig, CachePolicy, CacheStats, ShardCache, TierConfig};
pub use device::{CsdConfig, CsdDevice, Delivery, IntraGroupOrder, LedgerMode};
pub use layout::{BasePlacement, Layout, LayoutPolicy, PlacementPolicy};
pub use object::{GroupId, ObjectId, ObjectMeta, QueryId};
pub use power::{EnergyReport, PowerModel};
pub use sched::{
    FcfsObject, FcfsQuery, FcfsSlack, GroupLens, GroupScheduler, InFlight, MaxQueries, NaiveQueue,
    QueueView, RankBased, RequestIndex, RequestQueue, SchedPolicy, ServeScope,
};
pub use store::{FastBuild, ObjectStore};
