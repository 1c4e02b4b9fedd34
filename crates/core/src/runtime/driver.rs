//! The driver layer: the discrete-event loop wiring clients to the
//! device fleet.
//!
//! The [`Runtime`] owns the assembled parts — a [`DeviceFleet`], the
//! per-tenant [`ClientState`]s, and the event queue — and advances
//! virtual time until every tenant has drained its plan. It reproduces
//! the paper's testbed loop exactly: deliveries wake clients, charged
//! processing blocks them, follow-up GETs go back to the owning shard,
//! and every transition is timestamped for the collector.
//!
//! Like the paper's testbed, which emulates the device by delaying
//! Swift GETs, the fleet only decides *when* a GET completes: its
//! devices carry `()` payloads, a delivery names its object, and the
//! engine borrows the segment from its tenant's dataset when the
//! client processes it — no per-delivery reference count is touched.
//!
//! Multi-shard wake-ups interleave deterministically: each shard keeps
//! its own armed-wake-up protocol, the event queue breaks simultaneous
//! events by insertion order, and shards are always poked in shard
//! order — so a fleet run is exactly reproducible, and a 1-shard fleet
//! replays the single-device event schedule unchanged.
//!
//! The hot loop is engineered for million-request runs: the future
//! event list is the O(1)-amortized [`CalendarQueue`] (pop order
//! identical to the reference `EventQueue` — pinned by the differential
//! sweep in `skipper-sim`), and delivery batches flow through one
//! reusable scratch buffer (`DeviceFleet::on_wakeup_into`), so the
//! steady state of the loop allocates nothing per event.
//!
//! The protection plane ([`protect`](super::protect)) hooks into the
//! loop at the start gate, submit, delivery, finish, and its own
//! `Event::Protect` events; the failure-injection plane at run start,
//! its own calendar events and the end-of-run summary — each behind
//! one presence test of an optional box, so a run that sets neither
//! executes none of their code.

use skipper_cost::FleetPricing;
use skipper_csd::cache::CacheStats;
use skipper_csd::metrics::DeviceMetrics;
use skipper_csd::{Delivery, ObjectId, PowerModel, QueryId};
use skipper_sim::trace::Span;
use skipper_sim::{CalendarQueue, MergedTimeline, SimDuration, SimTime};

use crate::config::CostModel;

use super::client::ClientState;
use super::collector::{
    attribute_stalls_merged, LatencyAccumulator, RecordMode, RunResult, ShardResult,
};
use super::fleet::DeviceFleet;
use super::protect::{ProtectEvent, Protection, ProtectionSummary};

/// Event payloads of the runtime loop.
#[derive(Clone, Copy, Debug)]
pub(super) enum Event {
    /// Shard `s` finishes its in-flight operation.
    Device(usize),
    /// Client `c` finishes its charged processing.
    ClientReady(usize),
    /// The arrival process releases client `c`'s next query.
    Release(usize),
    /// The fleet's `i`-th timed crash, recovery or brown-out action.
    Fault(usize),
    /// One of the protection plane's own events.
    Protect(ProtectEvent),
}

/// The assembled multi-tenant runtime; consumed by [`Runtime::run`].
pub struct Runtime {
    pub(super) fleet: DeviceFleet<()>,
    pub(super) clients: Vec<ClientState>,
    pub(super) events: CalendarQueue<Event>,
    cost: CostModel,
    /// Reusable delivery scratch for multi-stream wake-up batches.
    scratch: Vec<Delivery<()>>,
    /// Streaming tail-latency sketches, fed in completion order.
    latency: LatencyAccumulator,
    /// Whether finished records are retained for the result.
    record_mode: RecordMode,
    /// The protection plane, installed only when some knob is set;
    /// without it no protection code runs.
    pub(super) protection: Option<Box<Protection>>,
    /// Instant of the last event that did anything — the makespan.
    /// Stale no-ops must not stretch it: a protection event for a query
    /// that already completed (a met deadline leaves its far-future
    /// event behind), or a shard wake-up that was superseded, or whose
    /// batch a crash already flushed. Every other event advances it.
    pub(super) last_activity: SimTime,
}

impl Runtime {
    /// Wires the parts together.
    pub fn new(fleet: DeviceFleet<()>, clients: Vec<ClientState>, cost: CostModel) -> Self {
        let targets: Vec<_> = clients.iter().map(|c| (c.slo, c.ideal)).collect();
        Runtime {
            fleet,
            clients,
            events: CalendarQueue::new(),
            cost,
            scratch: Vec::new(),
            latency: LatencyAccumulator::new(&targets),
            record_mode: RecordMode::default(),
            protection: None,
            last_activity: SimTime::ZERO,
        }
    }

    /// Selects whether per-query records are retained (builder style).
    pub fn with_record_mode(mut self, mode: RecordMode) -> Self {
        self.record_mode = mode;
        self
    }

    /// Installs the protection plane (builder style; `None` leaves the
    /// kernel running no protection code).
    pub(crate) fn with_protection(mut self, plane: Option<Protection>) -> Self {
        self.protection = plane.map(Box::new);
        self
    }

    /// Executes to completion, returning all measurements.
    ///
    /// # Panics
    /// Panics if any client fails to drain its plan (a simulation
    /// deadlock — always a harness bug).
    pub fn run(mut self) -> RunResult {
        let now = SimTime::ZERO;
        let offered: Vec<u64> = self.clients.iter().map(|c| c.plan.len() as u64).collect();
        // Scheduled releases (staggered starts, Poisson arrivals) are
        // armed as events, in client order for deterministic ties;
        // closed-loop queries with no release instant start immediately.
        // Starting a client never schedules events, so arming all
        // releases first preserves the historical event order.
        self.arm_faults();
        for (c, client) in self.clients.iter().enumerate() {
            for at in client.plan.iter().filter_map(|p| p.release) {
                self.events.schedule(at, Event::Release(c));
            }
        }
        for c in 0..self.clients.len() {
            self.try_start(c, now);
        }
        self.poke_fleet(now);

        while let Some((t, ev)) = self.events.pop() {
            if !matches!(ev, Event::Device(_) | Event::Protect(_)) {
                self.last_activity = t;
            }
            match ev {
                Event::Device(shard) => {
                    // A multi-stream wake-up retires every transfer due
                    // at this instant: route the whole batch (device
                    // slot order — deterministic), then poke once.
                    // Stale superseded wake-ups leave the batch empty.
                    if self.route_batch(shard, t, |fleet, batch| {
                        fleet.on_wakeup_into(shard, t, batch)
                    }) {
                        self.last_activity = t;
                    }
                    self.poke_fleet(t);
                }
                Event::ClientReady(c) => self.client_ready(c, t),
                Event::Release(c) => {
                    self.try_start(c, t);
                    self.poke_fleet(t);
                }
                Event::Fault(i) => self.fault_fired(i, t),
                Event::Protect(e) => self.protect_fired(e, t),
            }
        }

        let makespan = self.last_activity;
        let (mut protection, consumed) = match self.protection.take() {
            Some(p) => p.finish(&self.fleet),
            None => (ProtectionSummary::sized(self.clients.len()), Vec::new()),
        };
        let (fault_stats, availability) = self.fleet.fault_summary(makespan);
        for (idx, client) in self.clients.iter().enumerate() {
            assert!(
                client.plan.is_empty() && client.engine.is_none(),
                "client {idx} did not finish its workload (simulation deadlock)"
            );
        }
        assert!(
            self.fleet.is_quiescent(),
            "fleet still has queued work after the event queue drained"
        );
        // Post-hoc stall attribution against the union of every stream
        // trace of every shard: a client blocked while *any* stream is
        // transferring anywhere in the fleet counts as a transfer stall.
        // The fleet timeline is flattened exactly once (one k-way merge
        // over all span lists) and shared by every client's records.
        let clients_out = {
            let lists: Vec<&[Span]> = self
                .fleet
                .pumps()
                .iter()
                .flat_map(|p| p.device().traces())
                .map(|tr| tr.spans())
                .collect();
            let timeline = MergedTimeline::build(&lists);
            self.clients
                .iter_mut()
                .map(|client| {
                    attribute_stalls_merged(&timeline, client.records.drain(..).collect())
                })
                .collect()
        };
        // Tier capacities and resident cold bytes feed the cost report;
        // captured before the pumps are consumed.
        let cold_bytes: u64 = self
            .fleet
            .pumps()
            .iter()
            .map(|p| p.device().store().total_logical_bytes())
            .sum();
        let (dram_bytes, ssd_bytes) =
            self.fleet
                .pumps()
                .iter()
                .fold((0u64, 0u64), |acc, p| match p.cache_config() {
                    Some(cfg) => (
                        acc.0 + cfg.dram.capacity_bytes,
                        acc.1 + cfg.ssd.capacity_bytes,
                    ),
                    None => acc,
                });
        // `run` consumed the runtime, so each shard's spans and delivery
        // ledger move into its ShardResult instead of being cloned.
        // Stream 0 is the control stream (switches + slot-0 transfers);
        // the extra streams' span lists are empty for a serial device.
        let shards: Vec<ShardResult> = self
            .fleet
            .into_pumps()
            .into_iter()
            .enumerate()
            .map(|(shard, mut pump)| {
                let cache = pump.cache_stats();
                let cache_deliveries = pump.take_cache_served_log();
                let mut dev = pump.into_device();
                let mut stream_spans = dev.take_stream_spans().into_iter();
                let spans = stream_spans.next().expect("at least one stream trace");
                ShardResult {
                    shard,
                    scheduler: dev.scheduler_name(),
                    metrics: dev.take_metrics(),
                    fault: fault_stats[shard],
                    spans,
                    extra_stream_spans: stream_spans.collect(),
                    deliveries: dev.take_served_log(),
                    cache,
                    cache_deliveries,
                }
            })
            .collect();
        let device = DeviceMetrics::rolled_up(shards.iter().map(|s| &s.metrics));
        let cache = shards.iter().fold(CacheStats::default(), |mut acc, s| {
            acc.absorb(&s.cache);
            acc
        });
        // The energy estimate sees only the cold device's activity —
        // cache hits bypass it by design, which is exactly where the
        // MAID savings come from on a cached run.
        let energy = PowerModel::default().estimate(
            makespan.since(SimTime::ZERO),
            SimDuration::from_micros(device.transfer_busy_micros),
            device.group_switches,
        );
        let latency = self.latency.finish();
        // The offered/completed ledger is kernel bookkeeping: plan
        // lengths at start, completions as counted by the sketches.
        for (c, ledger) in protection.per_tenant.iter_mut().enumerate() {
            ledger.offered = offered[c];
            ledger.completed = latency.tenants[c].count;
        }
        let economics = FleetPricing::default().price_run(
            cold_bytes,
            dram_bytes,
            ssd_bytes,
            makespan.as_secs_f64(),
            energy.maid_wh,
            latency.fleet.count,
        );
        RunResult {
            clients: clients_out,
            device,
            scheduler: shards[0].scheduler,
            shards,
            makespan,
            latency,
            availability,
            cache,
            energy,
            economics,
            protection,
            consumed,
        }
    }

    /// Starts client `c`'s next query if its release has come and the
    /// client is idle (and the protection plane, when installed, admits
    /// it).
    pub(super) fn try_start(&mut self, c: usize, now: SimTime) {
        if !self.clients[c].can_start(now) || (self.protection.is_some() && !self.admit(c, now)) {
            return;
        }
        let requests = self.clients[c].start_next(c as u16, self.cost, now);
        self.clients[c].draft.upfront_gets = requests.len() as u64;
        let qid = QueryId::new(c as u16, self.clients[c].qseq);
        self.submit(now, c, qid, &requests);
    }

    /// Routes a GET batch through the fleet — through the protection
    /// plane's submit hook when installed.
    fn submit(&mut self, now: SimTime, c: usize, qid: QueryId, objects: &[ObjectId]) {
        if self.protection.is_some() {
            self.protected_submit(now, c, qid, objects);
        } else {
            self.fleet.submit(now, c, qid, objects);
        }
    }

    /// Lets `fill` append a batch of shard `shard`'s deliveries to the
    /// reusable scratch buffer, then routes the batch in order. The
    /// buffer is taken out of `self` for the duration (routing borrows
    /// clients and fleet) and put back drained, so no per-event
    /// allocation survives warm-up.
    pub(super) fn route_batch<R>(
        &mut self,
        shard: usize,
        now: SimTime,
        fill: impl FnOnce(&mut DeviceFleet<()>, &mut Vec<Delivery<()>>) -> R,
    ) -> R {
        let mut batch = std::mem::take(&mut self.scratch);
        batch.clear();
        let filled = fill(&mut self.fleet, &mut batch);
        for d in batch.drain(..) {
            self.route_delivery(now, shard, d.client, d.query, d.object);
        }
        self.scratch = batch;
        filled
    }

    /// Arms wake-ups on every shard with pending work and none armed.
    pub(super) fn poke_fleet(&mut self, now: SimTime) {
        let events = &mut self.events;
        self.fleet
            .poke_all(now, |shard, at| events.schedule(at, Event::Device(shard)));
    }

    /// Routes a finished transfer to its client, dropping stale
    /// deliveries for already-completed queries (reissue races) and
    /// whatever the protection plane refuses (hedge losers).
    fn route_delivery(
        &mut self,
        now: SimTime,
        shard: usize,
        c: usize,
        query: QueryId,
        object: ObjectId,
    ) {
        if !self.clients[c].is_current(query.seq) {
            return; // stale delivery for a completed query
        }
        if self.protection.is_some() && !self.consume(shard, c, query, object) {
            return;
        }
        self.clients[c].inbox.push_back(object);
        self.try_process(c, now);
    }

    /// Feeds the next buffered delivery to the engine — lending it the
    /// segment from the client's own dataset — and charges its
    /// processing time.
    ///
    /// # Panics
    /// Panics when the delivered object belongs to another tenant: an
    /// engine may only GET its own tenant's objects.
    fn try_process(&mut self, c: usize, now: SimTime) {
        let client = &mut self.clients[c];
        if client.busy || client.engine.is_none() {
            return;
        }
        let Some(object) = client.inbox.pop_front() else {
            return;
        };
        assert_eq!(
            object.tenant as usize, c,
            "cross-tenant GET: object {object} delivered to client {c}"
        );
        client.draft.unblock(now);
        let payload = &client.dataset.segments[object.table as usize][object.segment as usize];
        let reaction = client
            .engine
            .as_mut()
            .expect("engine present")
            .on_object(object, payload);
        client.charge(reaction.processing);
        client.busy = true;
        let at = now + reaction.processing;
        client.pending_after = Some((reaction.requests, reaction.finished));
        self.events.schedule(at, Event::ClientReady(c));
    }

    /// Applies the reaction of the processing that just completed:
    /// submit follow-up GETs, finish the query, or go back to waiting.
    fn client_ready(&mut self, c: usize, now: SimTime) {
        let (requests, finished) = self.clients[c]
            .pending_after
            .take()
            .expect("client_ready without reaction");
        self.clients[c].busy = false;
        if self.clients[c].cancelled {
            // The query this processing belonged to was cancelled while
            // charged: discard the reaction. A successor query may
            // already have started (a release fired during the busy
            // window), so drain its buffered deliveries too.
            self.clients[c].cancelled = false;
            self.try_start(c, now);
            self.poke_fleet(now);
            self.try_process(c, now);
            return;
        }
        let submitted = !requests.is_empty();
        // Reaction contract: a finished query has nothing left to fetch.
        // The single poke below would otherwise let a next-query batch
        // change the device decision the follow-ups should have seen.
        debug_assert!(
            !(submitted && finished),
            "engine finished a query while issuing follow-up GETs"
        );
        if submitted {
            let qid = QueryId::new(c as u16, self.clients[c].qseq);
            self.submit(now, c, qid, &requests);
        }
        if finished {
            // Engines never finish with follow-up GETs in flight, so the
            // next query's upfront batch and the (empty) follow-up set
            // share one poke below instead of the historical two.
            self.clients[c].finish(c, now);
            if let Some(p) = &mut self.protection {
                p.reset(c);
            }
            let response = self.clients[c]
                .records
                .last()
                .expect("finish pushed a record")
                .record
                .response_time();
            self.latency.observe(c, response);
            if self.record_mode == RecordMode::Counters {
                // Counters mode: the sketches above are the only
                // survivors; drop the record before it accumulates.
                self.clients[c].records.pop();
            }
            self.try_start(c, now);
        }
        if submitted || finished {
            self.poke_fleet(now);
        }
        if !finished {
            self.clients[c].note_waiting(now);
            self.try_process(c, now);
        }
    }
}
