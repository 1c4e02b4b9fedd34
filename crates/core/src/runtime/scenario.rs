//! The scenario facade: fluent experiment description + assembly.
//!
//! A [`Scenario`] is a list of per-tenant [`Workload`]s — each with its
//! own dataset, queries, engine factory, and arrival process, so one
//! run can mix Skipper and Vanilla tenants — plus the device-side
//! knobs they share. `run()` assembles the layers — sharding datasets
//! across the device fleet, placing each shard's objects into disk
//! groups, choosing schedulers, planning arrivals — and hands off to
//! [`Runtime`].
//!
//! The device layer scales out through [`Scenario::shards`] /
//! [`Scenario::placement`]: N identically configured CSD shards behind
//! one scenario, each with the scenario's switch latency, bandwidth and
//! stream count. The default single shard reproduces the paper's
//! one-device outputs microsecond-exactly.
//!
//! One response-time SLO target ([`Scenario::slo_target`]) applies to
//! every tenant and to the fleet.

use skipper_csd::cache::CacheConfig;
use skipper_csd::layout::replica_run;
use skipper_csd::{
    CsdConfig, CsdDevice, IntraGroupOrder, Layout, LayoutPolicy, LedgerMode, ObjectId, ObjectIndex,
    ObjectStore, PlacementPolicy, SchedPolicy,
};
use skipper_sim::{SimDuration, TraceMode};

use crate::config::CostModel;

use super::client::{ClientState, PlannedQuery};
use super::collector::{RecordMode, RunResult};
use super::driver::Runtime;
use super::fault::FaultPlan;
use super::fleet::DeviceFleet;
use super::protect::{AdmissionPolicy, Breaker, ClientProtection, Protection};
use super::workload::Workload;

/// A complete experiment description; build with the fluent setters and
/// [`Scenario::run`].
pub struct Scenario {
    tenants: Vec<Workload>,
    sched: Option<SchedPolicy>,
    intra: IntraGroupOrder,
    layout: LayoutPolicy,
    switch_latency: SimDuration,
    bandwidth: f64,
    cost: CostModel,
    parallel_streams: u32,
    shards: usize,
    placement: PlacementPolicy,
    trace_mode: TraceMode,
    ledger_mode: LedgerMode,
    record_mode: RecordMode,
    slo: Option<SimDuration>,
    faults: FaultPlan,
    shard_cache: CacheConfig,
    seed: u64,
    admission: Option<AdmissionPolicy>,
}

impl Scenario {
    /// A scenario over per-tenant [`Workload`]s (engine and arrival
    /// process are per workload) with paper-default device knobs:
    /// fleet-appropriate scheduling, semantic intra-group ordering,
    /// one-group-per-client layout, 10 s switches, ~110 MB/s transfers,
    /// one shard, one transfer stream.
    pub fn from_workloads(tenants: Vec<Workload>) -> Self {
        assert!(!tenants.is_empty(), "at least one workload");
        Scenario {
            tenants,
            sched: None,
            intra: IntraGroupOrder::SemanticRoundRobin,
            layout: LayoutPolicy::OneClientPerGroup,
            switch_latency: SimDuration::from_secs(10),
            bandwidth: 110.0 * 1024.0 * 1024.0,
            cost: CostModel::paper_calibrated(),
            parallel_streams: 1,
            shards: 1,
            placement: PlacementPolicy::RoundRobin,
            trace_mode: TraceMode::Full,
            ledger_mode: LedgerMode::Full,
            record_mode: RecordMode::Full,
            slo: None,
            faults: FaultPlan::new(),
            shard_cache: CacheConfig::disabled(),
            seed: 42,
            admission: None,
        }
    }

    /// CSD group-switch scheduling policy. When not set, the device
    /// defaults to the fleet-appropriate policy: all-vanilla fleets get
    /// the stock CSD's object-FCFS (§4.4), any Skipper tenant deploys
    /// the rank-based query-aware scheduler.
    pub fn scheduler(mut self, p: SchedPolicy) -> Self {
        self.sched = Some(p);
        self
    }

    /// Intra-group request ordering.
    pub fn intra_order(mut self, o: IntraGroupOrder) -> Self {
        self.intra = o;
        self
    }

    /// Data placement across disk groups.
    pub fn layout(mut self, l: LayoutPolicy) -> Self {
        self.layout = l;
        self
    }

    /// Group-switch latency `S`.
    pub fn switch_latency(mut self, s: SimDuration) -> Self {
        self.switch_latency = s;
        self
    }

    /// Object streaming bandwidth in bytes/s (≤ 0 ⇒ free transfers).
    pub fn bandwidth(mut self, bytes_per_sec: f64) -> Self {
        self.bandwidth = bytes_per_sec;
        self
    }

    /// Shard-cache tiers installed on every shard: DRAM/SSD capacities,
    /// bandwidths, and the promotion/demotion policy. Distinct from
    /// a tenant's MJoin buffer
    /// ([`SkipperFactory`](super::engines::SkipperFactory)): this
    /// cache fronts the *device*, completing hot GETs at tier bandwidth
    /// without a queue or a group switch. A disabled config (the
    /// default) runs the uncached machine byte-exactly.
    pub fn shard_cache(mut self, config: CacheConfig) -> Self {
        self.shard_cache = config;
        self
    }

    /// CPU cost model.
    pub fn cost(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Concurrent transfer streams while a group is loaded (default 1,
    /// the paper's serializing middleware; > 1 opens that many service
    /// pipeline slots per device — the §5.2.1 "parallelize servicing
    /// within a group" improvement). Validated here, at build time: a
    /// zero-stream device could never serve a request, so the scenario
    /// rejects it loudly instead of letting a masked config reach the
    /// device layer.
    pub fn streams(mut self, n: u32) -> Self {
        assert!(
            n >= 1,
            "Scenario::streams needs at least 1 transfer stream (got 0): \
             use streams(1) for the paper's serialized middleware"
        );
        self.parallel_streams = n;
        self
    }

    /// Span-log regime of the fleet's activity traces (default:
    /// [`TraceMode::Full`] — every span kept, stall attribution and
    /// timelines exact). [`TraceMode::Counters`] bounds memory for very
    /// large runs: devices keep only their counters, span lists in
    /// the [`ShardResult`](super::collector::ShardResult)s come back
    /// empty, and blocked time attributes as idle.
    pub fn trace_mode(mut self, mode: TraceMode) -> Self {
        self.trace_mode = mode;
        self
    }

    /// Delivery-ledger regime (default: [`LedgerMode::Full`] — every
    /// completed transfer recorded). [`LedgerMode::Counters`] keeps the
    /// [`DeviceMetrics`](skipper_csd::metrics::DeviceMetrics) counters
    /// but leaves the per-shard delivery ledgers empty (bounded memory;
    /// the work-conservation multiset checks need `Full`).
    pub fn ledger_mode(mut self, mode: LedgerMode) -> Self {
        self.ledger_mode = mode;
        self
    }

    /// Per-query record retention (default: [`RecordMode::Full`]).
    /// [`RecordMode::Counters`] drops records as queries finish —
    /// [`RunResult::clients`] comes back empty — while the streaming
    /// [`LatencySummary`](super::collector::LatencySummary) stays fully
    /// populated, so tail latency remains observable on runs too large
    /// to hold per-query records (pair with [`Scenario::trace_mode`] /
    /// [`Scenario::ledger_mode`] `Counters` for a fully bounded drive).
    pub fn record_mode(mut self, mode: RecordMode) -> Self {
        self.record_mode = mode;
        self
    }

    /// Response-time SLO target (release → completion, queue-wait
    /// included) for every query of the run. Feeds the per-tenant and
    /// fleet attainment counters of the run's latency summary.
    pub fn slo_target(mut self, target: SimDuration) -> Self {
        self.slo = Some(target);
        self
    }

    /// Root seed for the protection plane's per-client
    /// `"retry/{client}"` backoff-jitter streams (default 42; workload
    /// arrival processes keep their own per-tenant seeds).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs fleet-seam admission control (default: none — every
    /// arrival admitted, byte-identical to before the protection plane
    /// existed): per-shard backlog ceilings that shed or defer the
    /// lowest-priority arrivals, plus the optional per-shard breaker.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Number of CSD shards behind the scenario (default 1: the paper's
    /// single device, reproduced exactly). Each shard is a fully
    /// independent device — own disk groups, scheduler, bandwidth, and
    /// switch state — and the [`Scenario::placement`] policy decides
    /// which shard stores each object.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "a fleet needs at least one shard");
        self.shards = n;
        self
    }

    /// Object → shard placement policy (default round-robin; irrelevant
    /// with one shard). `PlacementPolicy::Replicated` stores every
    /// object on `k` consecutive shards, the replica run of its
    /// primary, and serves each request from the first live replica
    /// (see the fault plane, [`Scenario::faults`]). Placement is
    /// decided once, at assembly: each object is placed in its tenant's
    /// storage order, so every shard's slice of a tenant keeps that
    /// order.
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Installs the deterministic fault plan (default: empty — no
    /// faults, every run byte-identical to before the fault plane
    /// existed). The plan expands at assembly time into timestamped
    /// episodes — seeded stochastic streams and all — and the driver
    /// schedules each as a first-class calendar event. Note that
    /// recovery events keep the simulation alive: a plan whose
    /// episodes outlast the natural drain extends the makespan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Executes the scenario to completion, returning all measurements.
    pub fn run(self) -> RunResult {
        let workloads = self.tenants;
        assert!(
            workloads.iter().all(|w| !w.queries.is_empty()),
            "every tenant needs at least one query"
        );
        assert!(
            self.placement.replicas() >= 2 || workloads.iter().all(|w| w.hedge.is_none()),
            "hedge_after needs a replicated placement (Replicated {{ k >= 2 }}), got {:?}",
            self.placement
        );

        // Place every object once, in each tenant's storage order: its
        // primary routes GETs, and each shard of its replica run stores
        // it. Each shard's slice of a tenant thus keeps storage order.
        // The fleet's and the stores' object indexes are laid out once
        // from the catalogs' segment counts.
        let k = self.placement.replicas();
        let extents: Vec<Vec<u32>> = workloads
            .iter()
            .map(|w| {
                let catalog = &w.dataset.catalog;
                (0..catalog.len())
                    .map(|t| catalog.table(t).segment_count)
                    .collect()
            })
            .collect();
        let mut primaries = ObjectIndex::with_extents(&extents);
        let mut shard_objects = vec![vec![Vec::new(); workloads.len()]; self.shards];
        for (tenant, segments) in extents.iter().enumerate() {
            let objects = segments.iter().enumerate().flat_map(|(t, &count)| {
                (0..count).map(move |s| ObjectId::new(tenant as u16, t as u16, s))
            });
            for (ordinal, id) in objects.enumerate() {
                let primary = self.placement.shard_of(id, ordinal, self.shards);
                primaries.insert(id, primary as u32);
                for shard in replica_run(primary, k, self.shards) {
                    shard_objects[shard][tenant].push(id);
                }
            }
        }

        // Fleet-appropriate default scheduler: stock CSDs run
        // object-FCFS; one Skipper tenant is enough to deploy the
        // query-aware rank scheduler on every shared device.
        let sched = self.sched.unwrap_or_else(|| {
            if workloads
                .iter()
                .all(|w| w.engine.preferred_scheduler() == SchedPolicy::FcfsObject)
            {
                SchedPolicy::FcfsObject
            } else {
                SchedPolicy::RankBased
            }
        });

        // Metadata-only stores: engines borrow their segments from the
        // tenant's dataset (see the `driver` module doc).
        let devices: Vec<CsdDevice<()>> = shard_objects
            .into_iter()
            .map(|shard_tenant_objects| {
                let layout = Layout::build(self.layout, &shard_tenant_objects);
                let objects = shard_tenant_objects.iter().map(Vec::len).sum();
                let mut store: ObjectStore<()> = ObjectStore::with_extents(&extents, objects);
                for (tenant, w) in workloads.iter().enumerate() {
                    for &id in &shard_tenant_objects[tenant] {
                        let table = w.dataset.catalog.table(id.table as usize);
                        store.put_with_layout(id, table.logical_bytes_per_segment, &layout, ());
                    }
                }
                CsdDevice::new(
                    CsdConfig {
                        switch_latency: self.switch_latency,
                        bandwidth_bytes_per_sec: self.bandwidth,
                        parallel_streams: self.parallel_streams,
                        trace_mode: self.trace_mode,
                        ledger_mode: self.ledger_mode,
                    },
                    store,
                    sched.build(),
                    self.intra,
                )
            })
            .collect();

        // The protection plane exists only when some knob is set.
        let retry_clients: Vec<bool> = workloads.iter().map(|w| w.retry.enabled()).collect();
        let knobs = workloads
            .iter()
            .map(|w| ClientProtection {
                deadline: w.deadline,
                retry: w.retry,
                hedge: w.hedge,
                priority: w.priority,
            })
            .collect();
        let protection = Protection::new(
            knobs,
            self.admission,
            self.seed,
            self.record_mode == RecordMode::Full,
        );

        let clients = workloads
            .into_iter()
            .enumerate()
            .map(|(tenant, w)| {
                let releases = w.release_times(tenant);
                let plan = w
                    .queries
                    .into_iter()
                    .zip(releases)
                    .map(|(spec, release)| PlannedQuery { spec, release })
                    .collect();
                ClientState::new(w.dataset, w.engine, plan)
            })
            .collect();
        let mut fleet = DeviceFleet::from_primaries(devices, primaries, k);

        // The fault plan and the shard-cache tiers each install only
        // when they inject or hold something.
        fleet.install_faults(&self.faults);
        fleet.install_cache(self.shard_cache);

        // Wire the fleet for the protection plane: retry tenants'
        // replica-less requests come back for backoff instead of
        // parking, and an admission breaker routes around bad shards.
        if retry_clients.contains(&true) {
            fleet.retry_clients = retry_clients;
        }
        if let Some(b) = self.admission.and_then(|a| a.breaker) {
            fleet.breaker = Some(Breaker::new(b, self.shards));
        }

        Runtime::new(fleet, clients, self.cost, self.slo)
            .with_record_mode(self.record_mode)
            .with_protection(protection)
            .run()
    }
}
