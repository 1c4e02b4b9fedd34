//! The layered multi-tenant runtime.
//!
//! This module is the execution stack of the reproduction, split into
//! three explicit layers (replacing the seed's monolithic `driver.rs`):
//!
//! 1. **Workload layer** ([`workload`]) — [`Workload`] describes one
//!    tenant: dataset, query mix, engine choice, and arrival process
//!    (closed-loop, staggered starts, and the open-arrival vocabulary:
//!    fixed-seed Poisson, bursty on/off, diurnal, trace replay), plus
//!    optional per-tenant SLO target and ideal-time anchors for the
//!    latency summary.
//! 2. **Engine layer** ([`engines`]) — the per-tenant
//!    [`EngineFactory`]: one scenario can mix Skipper and Vanilla
//!    tenants with per-tenant cache/eviction configuration.
//! 3. **Driver layer** ([`client`], [`pump`], [`fleet`], [`driver`],
//!    [`collector`]) — the client state machine, the device pump, the
//!    sharded device fleet, the discrete-event loop, and the
//!    record/metrics collector behind every figure in §5 of the paper.
//!    Three optional planes hook into it, each owned by one module:
//!    injected failures ([`fault`]), shard-cache tiers (`tiers`) and
//!    overload protection ([`protect`]).
//!
//! [`Scenario`] ([`scenario`]) is the one-stop facade over all three
//! layers.
//!
//! # Fleet layering
//!
//! The execution stack, top to bottom — one box per layer, one device
//! pump per CSD shard:
//!
//! ```text
//!   ┌────────────────────────────────────────────────────────────┐
//!   │ workload   Workload × N tenants                            │
//!   │            dataset + query mix + arrival process           │
//!   ├────────────────────────────────────────────────────────────┤
//!   │ engine     EngineFactory per tenant                        │
//!   │            Skipper (upfront batch) / Vanilla (pull)        │
//!   ├────────────────────────────────────────────────────────────┤
//!   │ driver     Runtime: event loop + ClientState machines      │
//!   │            deliveries ⇢ processing ⇢ follow-up GETs        │
//!   │   ┌──────────────────────────────────────────────────┐     │
//!   │   │ event core  CalendarQueue (timer wheel, O(1)     │     │
//!   │   │ amortized; (time, seq) pop order ≡ the BinaryHeap│     │
//!   │   │ reference) + one reusable Delivery scratch — the │     │
//!   │   │ steady-state loop allocates nothing per event    │     │
//!   │   └──────────────────────────────────────────────────┘     │
//!   ├─────────────────────────────┬──────────────────────────────┤
//!   │ fault (opt-in)              │ protection (opt-in)          │
//!   │  FaultPlan → timestamped    │  Option<Protection>: only    │
//!   │  episodes; only a non-empty │  with a deadline / retry /   │
//!   │  plan installs the fleet's  │  hedge / admission knob;     │
//!   │  Option<FleetFaults> (down  │  start gate, submit, deliver │
//!   │  flags, parking lot, timed  │  hooks + Event::Protect;     │
//!   │  Event::Fault schedule) and │  Option<Breaker> on the      │
//!   │  a Watchdog per DropWakeup  │  fleet's routing             │
//!   ├─────────────────────────────┴──────────────────────────────┤
//!   │ fleet      DeviceFleet: PlacementPolicy → replica lists    │
//!   │   ┌──────────────────┬──────────────────┬────────┐         │
//!   │   │ DevicePump 0     │ DevicePump 1     │   …    │ 1/shard │
//!   │   │  earliest-of-K   │  earliest-of-K   │        │         │
//!   │   │  wake-up, rearm  │  wake-up, rearm  │        │         │
//!   │   ├──────────────────┼──────────────────┼────────┤         │
//!   │   │ ShardCache 0     │ ShardCache 1     │   …    │ opt-in  │
//!   │   │  DRAM tier ─┐    │  (hits bypass    │        │         │
//!   │   │  SSD tier  ─┴─►  │   queue, sched,  │        │         │
//!   │   │  hit fast path   │   and switches)  │        │         │
//!   │   ├──────────────────┼──────────────────┼────────┤         │
//!   │   │ CsdDevice 0      │ CsdDevice 1      │   …    │         │
//!   │   │ ┌────┬────┬────┐ │ ┌────┐           │        │         │
//!   │   │ │str0│str1│str…│ │ │str0│ streams(n)│        │         │
//!   │   │ └────┴────┴────┘ │ └────┘ per shard │        │         │
//!   │   │ + armed switch   │                  │        │         │
//!   │   └──────────────────┴──────────────────┴────────┘         │
//!   │   own scheduler · bandwidth · switch latency · streams     │
//!   │   TraceMode / LedgerMode: Full spans+ledger vs bounded     │
//!   │   Counters for multi-million-request runs                  │
//!   └────────────────────────────────────────────────────────────┘
//! ```
//!
//! GET batches fan out through the shard map fixed at layout time;
//! each shard's wake-ups interleave deterministically in the one event
//! queue (insertion order breaks ties, shards are poked in shard
//! order). A 1-shard fleet replays the seed's single-device schedule
//! microsecond-exactly; `Scenario::shards(n)` scales the device layer
//! out with per-shard config overrides and per-shard result
//! breakdowns ([`collector::ShardResult`]).
//!
//! # Deterministic fault plane
//!
//! [`FaultPlan`] ([`fault`]) injects seeded device failures the same
//! way [`ArrivalProcess`] injects traffic: everything is expanded at
//! assembly time from labeled SplitMix64 streams into timestamped
//! episodes, and the driver schedules each one as a first-class
//! calendar event — nothing is drawn during the run, so repeated runs
//! see identical fault timings.
//! Crashes ([`FaultEpisode::ShardDown`]) abort the shard's in-flight
//! transfers, evacuate its queue, and cost it its spun-up group;
//! brown-outs ([`FaultEpisode::Degraded`]) scale newly dispatched
//! transfer bandwidth; dropped wake-ups ([`FaultEpisode::DropWakeup`])
//! park one completed batch until a watchdog redelivers it.
//! `PlacementPolicy::Replicated { k, .. }` stores each object on `k`
//! consecutive shards; requests route to the first live replica, and
//! with none live they park at the fleet until a recovery re-submits
//! them in arrival order.
//!
//! Like the protection plane, this one is optional boxes owned by its
//! module: `Scenario::run` installs the fleet's fault state (down
//! flags, counters, parking lot, timed schedule) only for a plan that
//! expands to some episode, and a watchdog only on a pump with a
//! dropped wake-up. The kernel's hooks — routing's liveness test, run
//! start, `Event::Fault` and the end-of-run summary — are each one
//! presence test, so an empty plan installs nothing and runs no fault
//! code.
//!
//! **Failover invariants** (pinned by the chaos grid in
//! `tests/sharding.rs` and the fault cells of the differential
//! battery):
//!
//! * **Delivery-multiset conservation** — every `(client, query,
//!   object)` request is served exactly once, by whichever replica
//!   completes it: aborted transfers log nothing and are re-served;
//!   stale deliveries for completed queries are dropped at routing.
//!   A faulted run's multiset equals the fault-free run's.
//! * **Determinism** — a seeded `FaultPlan` yields byte-equal
//!   [`RunResult`]s across repeated runs.
//! * **Empty plan ⇒ exact goldens** — by construction: a default
//!   `FaultPlan` installs no fault state, so every run is
//!   microsecond-identical to a build without the fault plane.
//! * **Crash truthfulness** — a crash cuts the aborted transfer or
//!   switch span at the crash instant, so no span crosses an outage and
//!   a short outage's reload cannot overlap it; a crash flushes a
//!   parked watchdog batch at once, and the flushed batch's watchdog
//!   event fires stale without stretching the makespan.
//!
//! What faults *do* change: makespans (recovery events keep the run
//! alive), per-shard counters, and latency tails — failover is a
//! requeue at the surviving replica's tail, not a splice, and
//! [`RunResult::availability`] / [`ShardResult`]`::fault` report
//! downtime, evacuations, aborts, failovers, and parking.
//!
//! # Overload-and-outage protection plane
//!
//! Cold storage serves *seconds*-scale accesses, so saturation and
//! outages are tail-latency catastrophes by default: queues grow
//! without bound under a sustained burst, and a k = 1 outage parks
//! requests indefinitely. [`protect`] is the plane: four deterministic
//! defenses, each set per tenant on its [`Workload`] (admission is
//! fleet-wide, `Scenario::admission`). `Scenario::run` installs one
//! optional `Protection` on the runtime — and a `Breaker` on the fleet
//! — only when some knob is set; the kernel's hooks (start gate,
//! submit, delivery, finish, the plane's own calendar events) are each
//! one presence test, so an unprotected run executes no protection
//! code:
//!
//! * **Deadlines** (`Workload::deadline`) — a per-tenant response
//!   bound anchored at release (queue wait counts). A query that cannot meet it is *cancelled*: its queued
//!   requests are dequeued on every shard
//!   (`CsdDevice::cancel_query`), its client drops the engine and
//!   bumps the query seq so in-flight deliveries and late protection
//!   events go stale, and queries whose deadline lapses while still
//!   queued are abandoned unstarted. Cancel-while-busy is legal: the
//!   pending `ClientReady` fires, sees the `cancelled` flag, and
//!   discards its reaction instead of applying it.
//! * **Seeded retry with capped exponential backoff** —
//!   [`RetryPolicy::Backoff`] re-plans a deadline-cancelled query (and
//!   re-submits outage-unroutable requests) at instants drawn from the
//!   per-client `"retry/{c}"` SplitMix stream (seeded by
//!   `Scenario::seed`), never from wall-clock state. For retry
//!   tenants the fleet diverts would-park requests to the driver's
//!   retry schedule; [`RetryPolicy::None`] tenants keep the
//!   historical parking path byte-exactly.
//! * **Hedged requests** (`Workload::hedge_after`) — under replicated
//!   placement, reads still undelivered after the hedge delay are
//!   re-issued to the next live replica; the first completion wins. Conservation is
//!   redefined from at-most-once *delivery* to at-most-once
//!   **consumption**: the winner is consumed, the loser's queued copy
//!   is cancelled (`cancel_object`), a loser that was already in
//!   flight delivers and is discarded at routing, and
//!   [`RunResult::consumed`] logs the consumed multiset so the bench
//!   can assert it equals the clean run's delivery multiset.
//! * **Admission control + breaker** ([`AdmissionPolicy`]) — before a
//!   query starts, the fleet's most-loaded *live* shard is checked
//!   against priority-scaled backlog ceilings; over the limit the
//!   arrival is shed (dropped, counted per tenant) or deferred by
//!   backpressure into the release schedule. The optional per-shard
//!   [`BreakerPolicy`] opens on brown-outs below a bandwidth factor or
//!   on repeated deadline timeouts, and `route` then *prefers* a
//!   closed-breaker replica while still falling back to any live one —
//!   the breaker degrades preference, never availability.
//!
//! **Protection invariants** (pinned by the protection battery in the
//! runtime tests and the overload bench gates):
//!
//! * **No knob ⇒ no `Protection` installed** — byte-exactness by
//!   construction: no protection code runs, no protection events are
//!   scheduled, the fleet routes (no breaker) and parks exactly as
//!   before, and the goldens survive unregenerated
//!   ([`ProtectionSummary::is_quiet`] holds; the kernel's per-tenant
//!   offered/completed ledger populates on every run but is
//!   behavior-neutral).
//! * **Determinism** — backoff jitter is the only stochastic input and
//!   it pre-derives from labeled streams, so every protected run is
//!   byte-equal across repeats.
//! * **Makespan honesty** — protection events for queries that already
//!   completed pop as stale no-ops and do not stretch the makespan (a
//!   met deadline leaves a far-future cancel event behind).
//! * **Consumption conservation** — hedged runs consume every
//!   requested `(client, query, object)` exactly once; duplicates are
//!   cancelled or discarded, never double-processed.
//!
//! [`RunResult::protection`] rolls up misses, sheds, deferrals,
//! retries, hedge outcomes, breaker trips, and the per-tenant
//! offered/completed/missed/shed ledger; `skipper-bench -- overload`
//! sweeps a saturating burst across protection configs into
//! `BENCH_overload.json` (`EXPERIMENTS.md`).
//!
//! # Shard cache tiers
//!
//! `Scenario::shard_cache(CacheConfig)` ([`skipper_csd::cache`]) bolts
//! a per-shard DRAM(/SSD) hot tier onto each pump. The cache is a
//! *latency* plane, never a correctness plane: it changes *when* bytes
//! arrive, never *which* — every GET resolves through one of four
//! transitions:
//!
//! ```text
//!             ┌─────────── lookup at submit ───────────┐
//!             ▼                                        ▼
//!           HIT                                      MISS
//!   complete at tier bandwidth               enqueue on the CsdDevice
//!   via the pump-local pending               as before (queue, sched,
//!   heap; the request never                  group switch, transfer)
//!   touches queue, scheduler,                         │
//!   or group switch                                   ▼
//!             │                                     FILL
//!             │                          on delivery consumption the
//!             │                          object enters DRAM, evicting
//!             │                          by policy (LRU / CLOCK /
//!             │                          group-aware)
//!             ▼                                       │
//!   SSD hits also PROMOTE                             ▼
//!   the object to DRAM                              EVICT
//!                                        DRAM victims demote to SSD
//!                                        (a write-back that reserves
//!                                        the SSD pipe) or vanish when
//!                                        no SSD tier is configured
//! ```
//!
//! Each tier is a serialized pipe with its own bandwidth: concurrent
//! hits queue behind a `free_at` cursor, so a hot burst is fast but not
//! free. Residency is metadata-only — no shard stores a payload (each
//! engine borrows its segments from its tenant's dataset), so a
//! "cached byte" costs an index entry, not a copy.
//!
//! The plane is one optional box per pump, owned by the `tiers` module
//! with every routine that acts on it (the submit partition, hit
//! delivery, fill-on-consume, the wake-up arm, crash displacement):
//! `DeviceFleet::install_cache` installs the same tiers on every shard,
//! and only for a config with some capacity. The pump's hooks are each
//! one presence test.
//! Invariants, pinned by `tests/cache_tiers.rs` and the tiering smoke
//! gates:
//!
//! * **Conservation** — hits + misses partition the GET multiset
//!   exactly; `cache.misses == device.objects_served`.
//! * **Zero ⇒ byte-exact** — by construction:
//!   `CacheConfig::dram_only(0)` / `CacheConfig::disabled` installs
//!   nothing, so the pump runs no cache code and reproduces the
//!   uncached [`RunResult`] bit for bit (the goldens survive
//!   untouched).
//! * **Determinism** — hit completions are ordinary pump events
//!   ordered by `(ready instant, per-shard issue sequence)`, so cached
//!   runs are bit-identical across repeats.
//! * **Crash coherence** — a `ShardDown` drains pending hits into the
//!   displaced set and invalidates the whole shard cache (DRAM does not
//!   survive a power cycle); failover re-serves from replicas.
//!
//! The cost model prices the tiers ([`skipper_cost`]) and the power
//! model charges their draw, so `skipper-bench -- tiering` can sweep
//! capacity × policy into a cost-vs-makespan Pareto frontier
//! (`EXPERIMENTS.md`).
//!
//! # Million-request event core
//!
//! The future event list is the [`skipper_sim::CalendarQueue`]: a
//! bucketed timer wheel with O(1) amortized schedule/pop whose pop
//! order is identical to the reference `EventQueue` binary heap
//! (pinned by the differential sweep in `skipper-sim`), so the goldens
//! survive microsecond-exactly. Wake-up delivery batches drain through
//! `DeviceFleet::on_wakeup_into` into one scratch buffer owned by the
//! `Runtime`, devices pool their request nodes in a seq-addressed slab
//! and reuse transfer slots in place, and per-shard dirty flags keep
//! untouched pumps O(1) per event. Deliveries carry no payload: the
//! fleet is a `DeviceFleet<()>` over metadata-only stores, a client's
//! inbox holds object ids, and the driver lends the engine the segment
//! from the client's own dataset when it processes one — so no
//! reference count is touched per GET, on a hit, a watchdog
//! redelivery or a failover. After warm-up the hot loop stays
//! off the allocator (the full-stack benchmark under `benchmark/`
//! counts `runtime.allocs_per_request` ≈ 0.08 on its 1 024 000-GET
//! `batch_closed` workload; CI gates a ceiling on it).
//! Scheduler decisions stay off the allocator too: policies fold over
//! the queue's borrowed [`skipper_csd::sched::GroupLens`] aggregates
//! instead of materializing per-group vectors, and the queue's
//! residency runs, seq FIFOs and heaps are recycled and compacted in
//! place.
//!
//! The loop is single-threaded by design: a delivery may trigger a
//! submit at almost every event, so there is no window of independent
//! shard work to hand to other threads.
//!
//! Observability streams instead of accumulating:
//! `Scenario::trace_mode(TraceMode::Counters)` and
//! `Scenario::ledger_mode(LedgerMode::Counters)` bound memory for
//! multi-million-request runs (running totals only — no span log, no
//! delivery ledger), and whole-run stall attribution flattens every
//! shard's span lists into one [`skipper_sim::MergedTimeline`] via a
//! k-way merge — O((spans + intervals)·log k) total instead of a
//! per-interval union scan, pinned equal to `attribute_union` by the
//! `tests/observability.rs` property sweep.
//!
//! # Internet-scale traffic & tail latency
//!
//! [`ArrivalProcess`] is the traffic vocabulary of the workload layer.
//! Beyond the closed loop and the fixed-seed Poisson stream, it speaks
//! the shapes internet-facing storage actually sees: `OnOff` (a
//! two-phase Markov-modulated Poisson process — exponential ON bursts
//! of exponential-gap releases separated by exponential silences),
//! `Diurnal` (a raised-cosine rate cycle sampled by Lewis–Shedler
//! thinning, peak-to-trough ratio set by `trough`), and `TraceReplay`
//! (externally captured instants, sorted and offset). Every shape is
//! expanded to concrete release instants at assembly time from labeled
//! SplitMix64 streams, so schedules are bit-reproducible.
//!
//! An open-arrival query's clock starts at its *release*, not when a
//! client slot frees up: [`QueryRecord::response_time`] = release →
//! completion (queue-wait included; [`QueryRecord::duration`] remains
//! start → completion) and [`QueryRecord::queue_wait`] is the
//! difference. Per-query response times stream, in completion order,
//! into Greenwald–Khanna quantile sketches
//! ([`skipper_sim::stats::QuantileSketch`], default rank
//! error ε = 5·10⁻⁴) held per tenant and fleet-wide, surfacing in
//! [`RunResult::latency`] as a [`LatencySummary`]: p50/p95/p99/p999
//! response time and stretch ([`Quantiles`]), exact mean/max, and SLO
//! attainment ([`SloReport`]) against `Workload::slo_target` /
//! `Scenario::slo_target` anchors. The summary costs O(sketch) memory
//! regardless of query count, so
//! `Scenario::record_mode(RecordMode::Counters)` can drop the
//! per-query [`QueryRecord`]s entirely — million-query runs keep full
//! tail visibility with bounded memory, and the collector's
//! counters-vs-full differential tests pin the summary byte-equal
//! across both record modes.
//!
//! # Multi-stream servicing (§5.2.1)
//!
//! Each device is a *service pipeline*: `Scenario::streams(n)` opens
//! `n` transfer slots per shard (per-shard override:
//! `Scenario::shard_streams`), so intra-group requests overlap in time
//! while a group is loaded, and a group switch decided mid-drain is
//! *armed* — it begins the instant the last old-group transfer
//! completes. The pump's wake-up protocol is therefore
//! "earliest of K completions": dispatching new work can move a
//! shard's earliest completion *earlier*, so every poke re-kicks the
//! device and re-arms when the instant changed; superseded wake-up
//! events fire as recognized stale no-ops, and a live wake-up can
//! retire several transfers at once (the event loop routes the whole
//! batch). `streams(1)` — the default — collapses to the paper's
//! serialized middleware exactly. Per-stream activity spans land in
//! [`collector::ShardResult`] and roll up into the
//! [`collector::StreamRollup`] overlap/utilization report
//! ([`collector::RunResult::stream_rollup`]).
//!
//! # Scheduling hot-path complexity
//!
//! Each device's pending queue is the incrementally-indexed
//! `skipper_csd::sched::RequestQueue`: a submit is O(log n) in queue
//! depth, a serve O(1) amortized (a residency is one sorted run drained
//! by a cursor, sorted once per snapshot), and scheduler decisions read
//! maintained per-group aggregates instead of rescanning the queue —
//! so a run costs O(events · log depth), not O(events · depth). The
//! contract is pinned two ways: the differential suite
//! (`crates/csd/tests/equivalence.rs`) diffs the indexed queue against
//! the preserved full-rescan `NaiveQueue` reference across every
//! policy × intra order × shard count, and the goldens stay
//! microsecond-exact. End-of-run result assembly
//! moves spans, ledgers, and counters out of the devices (`Runtime::run`
//! consumes the fleet) instead of cloning them.
//!
//! # Mixed-engine fleets
//!
//! ```no_run
//! use skipper_core::runtime::{ArrivalProcess, Scenario, SkipperFactory, VanillaFactory, Workload};
//! use skipper_datagen::{tpch, GenConfig};
//! use skipper_sim::SimDuration;
//!
//! let data = tpch::dataset(&GenConfig::new(42, 8).with_phys_divisor(100_000));
//! let q12 = tpch::q12(&data);
//! let result = Scenario::from_workloads(vec![
//!     Workload::new(data.clone())
//!         .repeat_query(q12.clone(), 2)
//!         .engine(SkipperFactory::default().cache_bytes(10 << 30)),
//!     Workload::new(data.clone())
//!         .repeat_query(q12.clone(), 2)
//!         .engine(VanillaFactory),
//!     Workload::new(data)
//!         .repeat_query(q12, 4)
//!         .arrival(ArrivalProcess::Poisson {
//!             mean: SimDuration::from_secs(300),
//!             seed: 7,
//!         }),
//! ])
//! .run();
//! for rec in result.records() {
//!     println!("client {} [{}] {}: {:.0}s", rec.client, rec.engine, rec.query,
//!              rec.duration().as_secs_f64());
//! }
//! ```

pub mod client;
pub mod collector;
pub mod driver;
pub mod engines;
pub mod fault;
pub mod fleet;
pub mod protect;
pub mod pump;
pub mod scenario;
mod tiers;
pub mod workload;

pub use collector::{
    AvailabilitySummary, LatencyScope, LatencySummary, Quantiles, QueryRecord, RecordMode,
    RunResult, ShardFaultStats, ShardResult, SloReport, StreamRollup,
};
pub use engines::{EngineFactory, SkipperFactory, VanillaFactory};
pub use fault::{FaultEpisode, FaultPlan, DEFAULT_REDELIVERY};
pub use fleet::DeviceFleet;
pub use protect::{
    AdmissionPolicy, AdmissionResponse, BreakerPolicy, ProtectionSummary, RetryPolicy,
    TenantProtection,
};
pub use scenario::Scenario;
pub use skipper_csd::cache::{CacheConfig, CachePolicy, CacheStats, TierConfig};
pub use skipper_csd::{BasePlacement, LedgerMode, PlacementPolicy};
pub use skipper_sim::TraceMode;
pub use workload::{ArrivalProcess, Workload};

#[cfg(test)]
mod tests;
