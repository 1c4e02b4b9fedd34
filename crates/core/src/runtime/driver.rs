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
//! its own alarms (the timer rule of the [`pump`](super::pump) module
//! docs), the event queue breaks simultaneous events by insertion
//! order, and the shards an event touched are poked in shard order —
//! so a fleet run is exactly reproducible, and a 1-shard fleet replays
//! the single-device event schedule unchanged.
//!
//! The hot loop is engineered for million-request runs: the future
//! event list is the [`CalendarQueue`], which sorts everything `run`
//! arms before its first pop (fault actions, planned releases, the
//! t = 0 wake-ups and deadlines) into one run popped in O(1) and keeps
//! the few events scheduled later in a binary heap; delivery batches
//! flow through one reusable scratch buffer
//! (`DeviceFleet::on_wakeup_into`), so the steady state of the loop
//! allocates nothing per event.
//!
//! The protection plane ([`protect`](super::protect)) hooks into the
//! loop at the start gate, submit, delivery, its own `Event::Protect`
//! events and the end-of-run summary; the failure-injection plane at
//! run start, its own calendar events and the end-of-run summary —
//! each behind one presence test of an optional box, so a run that
//! sets neither executes none of their code.

use skipper_cost::FleetPricing;
use skipper_csd::cache::CacheStats;
use skipper_csd::metrics::DeviceMetrics;
use skipper_csd::{Delivery, ObjectId, PowerModel, QueryId};
use skipper_sim::{CalendarQueue, SimDuration, SimTime, StallClock};

use crate::config::CostModel;
use crate::memo;

use super::client::ClientState;
use super::collector::{LatencyAccumulator, RecordMode, RunResult, ShardResult};
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
pub(crate) struct Runtime {
    pub(super) fleet: DeviceFleet<()>,
    pub(super) clients: Vec<ClientState>,
    pub(super) events: CalendarQueue<Event>,
    cost: CostModel,
    /// Reusable delivery scratch for multi-stream wake-up batches.
    scratch: Vec<Delivery<()>>,
    /// Streaming tail-latency sketches, fed in completion order.
    latency: LatencyAccumulator,
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
    /// Wires the parts together; every query's response time is
    /// measured against the one SLO target `slo`, if any.
    pub(crate) fn new(
        fleet: DeviceFleet<()>,
        clients: Vec<ClientState>,
        cost: CostModel,
        slo: Option<SimDuration>,
    ) -> Self {
        Runtime {
            latency: LatencyAccumulator::new(clients.len(), slo),
            fleet,
            clients,
            events: CalendarQueue::new(),
            cost,
            scratch: Vec::new(),
            protection: None,
            last_activity: SimTime::ZERO,
        }
        .with_record_mode(RecordMode::Full)
    }

    /// Selects whether per-query records are retained (builder style).
    /// Kept records split their stalls online, so keeping them installs
    /// the fleet's stall clock; dropping them removes it.
    pub(crate) fn with_record_mode(mut self, mode: RecordMode) -> Self {
        let keep = mode == RecordMode::Full;
        for client in &mut self.clients {
            client.keep_records(keep);
        }
        self.fleet.stall_clock = keep.then(StallClock::default);
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
    pub(crate) fn run(mut self) -> RunResult {
        // Filter selections and Vanilla joins are shared across the
        // run's tenants, and freed with the run.
        let _memo = memo::Scope::open();
        let offered: Vec<u64> = self.clients.iter().map(|c| c.plan.len() as u64).collect();
        self.drive();
        self.finish(offered)
    }

    /// Runs the event loop until the calendar drains.
    pub(super) fn drive(&mut self) {
        let now = SimTime::ZERO;
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
                    // A wake-up retires every alarm due at this instant
                    // (the pump's timer rule): route the whole batch
                    // (device slot order — deterministic), then poke
                    // once. A stale wake-up leaves the batch empty.
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
    }

    /// Assembles the measurements of a drained run; `offered` holds
    /// each client's plan length at the start.
    ///
    /// # Panics
    /// Panics if any client did not drain its plan.
    fn finish(mut self, offered: Vec<u64>) -> RunResult {
        let makespan = self.last_activity;
        let (mut protection, consumed) = match self.protection.take() {
            Some(p) => p.finish(&self.fleet),
            None => (ProtectionSummary::sized(self.clients.len()), Vec::new()),
        };
        let (fault_stats, availability) = self.fleet.fault_summary(makespan);
        for (idx, client) in self.clients.iter().enumerate() {
            assert!(
                client.plan.is_empty() && client.running.is_none(),
                "client {idx} did not finish its workload (simulation deadlock)"
            );
        }
        assert!(
            self.fleet.is_quiescent(),
            "fleet still has queued work after the event queue drained"
        );
        let clients_out = self
            .clients
            .iter_mut()
            .map(ClientState::take_records)
            .collect();
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
        let clock = self.fleet.stall_clock.as_ref();
        let requests = self.clients[c].start_next(c as u16, self.cost, now, clock);
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

    /// Pokes the shards touched since the last poke, in shard order,
    /// scheduling every wake-up they arm (see
    /// [`DeviceFleet::poke_all`]).
    pub(super) fn poke_fleet(&mut self, now: SimTime) {
        let events = &mut self.events;
        self.fleet
            .poke_all(now, |shard, at| events.schedule(at, Event::Device(shard)));
    }

    /// Routes a finished transfer to its client, dropping stale
    /// deliveries (their query finished or was cancelled, or its engine
    /// needs nothing more) and whatever the protection plane refuses
    /// (hedge losers).
    fn route_delivery(
        &mut self,
        now: SimTime,
        shard: usize,
        c: usize,
        query: QueryId,
        object: ObjectId,
    ) {
        if !self.clients[c].accepts(query.seq) {
            return;
        }
        if self.protection.is_some() && !self.consume(shard, c, query, object) {
            return;
        }
        if let Some(run) = &mut self.clients[c].running {
            run.inbox.push_back(object);
        }
        self.try_process(c, now);
    }

    /// Charges client `c`'s next buffered delivery, if its CPU is free,
    /// and arms the `ClientReady` that applies the reaction.
    fn try_process(&mut self, c: usize, now: SimTime) {
        let clock = self.fleet.stall_clock.as_ref();
        if let Some(charged) = self.clients[c].process(now, clock) {
            self.events.schedule(now + charged, Event::ClientReady(c));
        }
    }

    /// Applies the reaction of the processing that just completed:
    /// submit follow-up GETs, finish the query, or go back to waiting.
    fn client_ready(&mut self, c: usize, now: SimTime) {
        let (qseq, reaction) = self.clients[c].processing.take().expect("a reaction");
        let (requests, finished) = (reaction.requests, reaction.finished);
        if !self.clients[c].runs(qseq) {
            // The query this processing belonged to was cancelled while
            // charged: discard the reaction. A successor query may
            // already have started (a release fired during the busy
            // window), so drain its buffered deliveries too.
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
            let response = self.clients[c].finish(c, now);
            self.latency.observe(c, response);
            self.try_start(c, now);
        }
        if submitted || finished {
            self.poke_fleet(now);
        }
        if !finished {
            self.clients[c].note_waiting(now, self.fleet.stall_clock.as_ref());
            self.try_process(c, now);
        }
    }
}
