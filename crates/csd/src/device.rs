//! The CSD device state machine: a multi-stream service pipeline.
//!
//! Models the paper's emulated cold storage device: a request queue in
//! front of a MAID array with one active disk group. The device is
//! event-driven and passive — the simulation driver calls [`CsdDevice::kick`]
//! whenever the device might have work (new requests, or an operation just
//! completed) and schedules a wake-up at the returned completion time.
//!
//! The paper's prototype middleware *serialized* request servicing; §5.2.1
//! observes that "by parallelizing the servicing of requests within a
//! group, we can reduce transfer time substantially" — the spun-up group
//! itself sustains 1-2 GB/s while one stream sees ~110 MB/s. The device
//! therefore runs a **service pipeline**: `parallel_streams` transfer
//! slots, each carrying one in-flight request, with completions kept in a
//! small min-heap, plus an explicit switch stage that drains in-flight
//! transfers before the group swap:
//!
//! ```text
//! kick(now) ──► per idle slot: scheduler.decide(queue, active, in-flight)
//!    │              │
//!    │         ServeActive ──► resolve ServeScope + IntraGroupOrder in
//!    │              │          the queue, dequeue the request, start a
//!    │              │          transfer in the slot: done at now+bytes/BW
//!    │         SwitchTo(g) ──► pipe empty: start Switch, done at now+S
//!    │              │          (first load of an idle array is free
//!    │              │          unless a crash spun it down);
//!    │              │          pipe draining: ARM the switch — no new
//!    │              │          transfers; it begins the instant the
//!    │              │          last old-group transfer completes
//!    │         Idle ────────► nothing new (a draining policy may be
//!    │                        declining; it is re-asked at the next
//!    │                        completion)
//!    ▼
//! earliest pending completion (min over the slot heap / switch stage)
//!    │
//! complete_into(now) ──► retire EVERYTHING due at now:
//!                        Switch: activate group, notify scheduler, arm
//!                                the residency snapshot
//!                        Transfers: pop payloads, append Deliveries to
//!                                the caller's buffer; if the pipe just
//!                                drained and a switch is armed, the
//!                                switch starts at now exactly
//! ```
//!
//! Serving never preempts: once a transfer starts it finishes; an armed
//! switch stops new dispatches but never cancels in-flight transfers.
//! `streams = 1` collapses to the historical one-op state machine
//! exactly: the single slot is either empty (decide, as before) or busy
//! (return its completion), a switch can only be decided with the pipe
//! empty (so it starts immediately, never armed), and every decision is
//! made with [`InFlight::NONE`].
//!
//! Each slot records its transfer spans in its own [`ActivityTrace`]
//! (slot 0 also carries the switch spans), so traces stay sequential
//! per-slot while transfers overlap across slots. Every span starts at
//! the instant it is recorded, and only [`CsdDevice::fail`] ends one
//! early; the runtime's stall clock (`skipper_sim::StallClock`) relies
//! on both to union the slots online.
//!
//! The pending queue is pluggable: the device is generic over
//! [`RequestIndex`] and defaults to the incrementally-indexed
//! [`RequestQueue`], which serves a residency from one sorted run
//! (O(1) amortized per served request; the order is paid for once per
//! arm). The full-rescan `NaiveQueue` (in `skipper-testkit`) plugs into
//! the same slot for differential testing.
//!
//! Every per-GET fact is resolved once, at [`CsdDevice::submit`]: the
//! object's group, size and store slot travel with the
//! [`PendingRequest`], so neither dispatch nor completion looks the
//! object up in the store's index again. The request carries no arrival
//! time: its sequence number is its place in arrival order, and the
//! intra-group key ([`IntraGroupOrder::key`]) ends with it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use skipper_sim::{Activity, ActivityTrace, SimDuration, SimTime, TraceMode};

use crate::metrics::DeviceMetrics;
use crate::object::{assert_own_tenant, GroupId, LedgerEntry, ObjectId, QueryId};
use crate::sched::{
    Decision, GroupScheduler, InFlight, PendingRequest, RequestIndex, RequestQueue,
};
use crate::store::{transfer_time, ObjectStore};
use skipper_sim::trace::Span;

/// How the device keeps its per-transfer delivery ledger.
///
/// The ledger (`served_log`) records every completed transfer as one
/// 12-byte [`LedgerEntry`], which reads back as the `(client, query,
/// object)` triple — the work-conservation multiset the sharding and
/// equivalence suites compare. It grows O(requests), which a
/// multi-million-request run cannot afford; [`LedgerMode::Counters`]
/// keeps only the [`DeviceMetrics`] counters and leaves the ledger
/// empty.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LedgerMode {
    /// Record every delivery (default; O(requests) memory).
    #[default]
    Full,
    /// Counters only; `served_log` stays empty (bounded memory).
    Counters,
}

/// Device parameters.
#[derive(Clone, Copy, Debug)]
pub struct CsdConfig {
    /// Group switch latency `S` (Pelican: 8 s; the paper's experiments
    /// use 10 s by default and sweep 0-40 s).
    pub switch_latency: SimDuration,
    /// Per-stream object streaming bandwidth in bytes/s. Non-positive or
    /// non-finite means transfers are free (used by the "local disk"
    /// configuration of the Table 3 component breakdown).
    pub bandwidth_bytes_per_sec: f64,
    /// Concurrent transfer streams while a group is loaded. The paper's
    /// prototype middleware serialized request servicing (streams = 1);
    /// values > 1 open that many pipeline slots (§5.2.1 "parallelize
    /// the servicing of requests within a group"). Must be ≥ 1 — a
    /// zero-stream device could never serve anything, so the
    /// constructor rejects it loudly instead of clamping.
    pub parallel_streams: u32,
    /// Span-log regime of the per-slot activity traces (default: keep
    /// every span). [`TraceMode::Counters`] bounds memory for huge runs
    /// at the cost of the span log (timelines, span-level queries);
    /// stall attribution is online and works in both modes.
    pub trace_mode: TraceMode,
    /// Delivery-ledger regime (default: record every transfer).
    pub ledger_mode: LedgerMode,
}

impl Default for CsdConfig {
    fn default() -> Self {
        CsdConfig {
            switch_latency: SimDuration::from_secs(10),
            // ~110 MB/s: the effective per-object streaming rate implied by
            // the paper's Table 3 (57 GB transferred in ~550 s through the
            // serializing Swift middleware).
            bandwidth_bytes_per_sec: 110.0 * 1024.0 * 1024.0,
            parallel_streams: 1,
            trace_mode: TraceMode::Full,
            ledger_mode: LedgerMode::Full,
        }
    }
}

/// How the device orders requests *within* the loaded group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntraGroupOrder {
    /// Semantically-smart ordering (§4.4): round-robin across a query's
    /// tables (A.1, B.1, C.1, A.2, B.2, C.2, ...) so MJoin can complete
    /// subplans early and evict aggressively.
    SemanticRoundRobin,
    /// Naive per-table ordering (all of A, then all of B, ...): the
    /// pathological case for cache-constrained MJoin, used in ablations.
    TableOrder,
    /// Strict arrival order.
    ArrivalOrder,
}

impl IntraGroupOrder {
    /// The total service-order key of one request: the policy's sort
    /// components followed by the arrival sequence number, so keys are
    /// unique and ties always break FIFO. Every scope serves its least
    /// key next; the indexed [`RequestQueue`] keeps its residency runs
    /// sorted by exactly this key.
    pub fn key(self, r: &PendingRequest) -> (u32, u32, u32, u64) {
        match self {
            // Segment-major: (seg, table) walks A.1,B.1,C.1,A.2,...
            IntraGroupOrder::SemanticRoundRobin => (
                r.object.segment,
                r.object.table as u32,
                r.object.tenant as u32,
                r.seq,
            ),
            // Table-major: (table, seg) drains A entirely first.
            IntraGroupOrder::TableOrder => (
                r.object.table as u32,
                r.object.segment,
                r.object.tenant as u32,
                r.seq,
            ),
            IntraGroupOrder::ArrivalOrder => (0, 0, 0, r.seq),
        }
    }
}

/// A completed object transfer handed back to the driver.
#[derive(Clone, Debug)]
pub struct Delivery<P> {
    /// Receiving client.
    pub client: usize,
    /// The query the GET belonged to.
    pub query: QueryId,
    /// The delivered object.
    pub object: ObjectId,
    /// The object payload, cloned out of the store. The core runtime's
    /// devices carry `()`: the engine borrows the segment from its
    /// tenant's dataset instead.
    pub payload: P,
}

/// One occupied transfer slot.
#[derive(Clone, Debug)]
struct TransferSlot {
    request: PendingRequest,
    started: SimTime,
    until: SimTime,
}

/// The switch stage of the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SwitchStage {
    /// No switch pending.
    Idle,
    /// Decided while transfers were draining: starts the instant the
    /// last one completes. No new transfers dispatch while armed.
    Armed(GroupId),
    /// Spinning groups down/up right now; the pipe is empty.
    Switching { target: GroupId, until: SimTime },
}

/// The cold storage device: request queue + MAID service pipeline.
///
/// Generic over the pending-queue implementation `Q` (default: the
/// indexed [`RequestQueue`]).
pub struct CsdDevice<P, Q: RequestIndex = RequestQueue> {
    config: CsdConfig,
    store: ObjectStore<P>,
    scheduler: Box<dyn GroupScheduler>,
    queue: Q,
    active_group: Option<GroupId>,
    /// The transfer slots; `None` = idle. Length is the stream count.
    slots: Vec<Option<TransferSlot>>,
    /// Occupied-slot count (= number of `Some` entries in `slots`).
    in_flight: usize,
    /// Pending transfer completions: min-heap of `(until, slot)`, so
    /// the earliest wake-up is a peek and same-instant retirements pop
    /// in slot order (deterministic).
    completions: BinaryHeap<Reverse<(SimTime, usize)>>,
    switch: SwitchStage,
    next_seq: u64,
    /// One activity trace per slot: per-slot spans stay sequential while
    /// transfers overlap across slots. Slot 0 also records switch spans
    /// (a switch only runs with the pipe empty, so they never overlap).
    traces: Vec<ActivityTrace>,
    metrics: DeviceMetrics,
    served_log: Vec<LedgerEntry>,
    /// Fault-plane brown-out multiplier on the per-stream bandwidth,
    /// applied to transfers *dispatched* while it is below 1.0 (already
    /// committed completion instants never move).
    bandwidth_factor: f64,
    /// Set by [`CsdDevice::fail`]: the crash spun the array down, so
    /// the first group load after recovery pays a full switch instead
    /// of being free.
    paid_reload: bool,
    /// Logical bytes of the queued (not yet dispatched) requests,
    /// maintained at every queue mutation so the admission-control
    /// seam reads the backlog in O(1) instead of rescanning.
    queued_bytes: u64,
}

impl<P: Clone, Q: RequestIndex> CsdDevice<P, Q> {
    /// Creates a device over `store` with the given scheduler and
    /// intra-group ordering.
    ///
    /// # Panics
    /// Panics if `config.parallel_streams` is 0 — a zero-stream device
    /// could never serve a request.
    pub fn new(
        config: CsdConfig,
        store: ObjectStore<P>,
        scheduler: Box<dyn GroupScheduler>,
        intra: IntraGroupOrder,
    ) -> Self {
        assert!(
            config.parallel_streams >= 1,
            "CsdConfig::parallel_streams must be >= 1 (got 0); \
             use 1 for the paper's serialized middleware"
        );
        let slot_count = config.parallel_streams as usize;
        CsdDevice {
            config,
            store,
            scheduler,
            queue: Q::new(intra),
            active_group: None,
            slots: (0..slot_count).map(|_| None).collect(),
            in_flight: 0,
            completions: BinaryHeap::new(),
            switch: SwitchStage::Idle,
            next_seq: 0,
            traces: (0..slot_count)
                .map(|_| ActivityTrace::with_mode(config.trace_mode))
                .collect(),
            metrics: DeviceMetrics::default(),
            served_log: Vec::new(),
            bandwidth_factor: 1.0,
            paid_reload: false,
            queued_bytes: 0,
        }
    }

    /// The effective per-stream service bandwidth (scaled by any active
    /// brown-out factor).
    fn stream_bandwidth(&self) -> f64 {
        self.config.bandwidth_bytes_per_sec * self.bandwidth_factor
    }

    /// Scales the per-stream bandwidth by `factor` (a fault-plane
    /// brown-out; `1.0` restores nominal service). Only transfers
    /// dispatched from now on see the new rate — in-flight completion
    /// instants are already committed.
    ///
    /// # Panics
    /// Panics unless `0 < factor <= 1`.
    pub fn set_bandwidth_factor(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "bandwidth factor {factor} outside (0, 1]"
        );
        self.bandwidth_factor = factor;
    }

    /// Power-fails the device: every in-flight transfer is aborted
    /// (nothing is counted as served — the bytes never arrived), any
    /// armed or in-progress switch is cancelled, the spun-up group is
    /// lost (the first load after recovery pays a full switch), and the
    /// pending queue is evacuated.
    ///
    /// Displaced requests are appended to `displaced`: aborted
    /// in-flight transfers first (slot order), then the queued requests
    /// oldest first. The return value is the aborted-transfer count
    /// (the prefix length). The caller re-routes them to surviving
    /// replicas or parks them until recovery; their re-submission gets
    /// fresh sequence numbers.
    ///
    /// Every slot trace ends at `now`: an aborted transfer's span, or
    /// an aborted switch's, is cut at the crash instead of running to
    /// its planned end — the platters spun until the crash and no
    /// longer — so the reload after a short outage cannot overlap it.
    pub fn fail(&mut self, now: SimTime, displaced: &mut Vec<PendingRequest>) -> usize {
        for trace in &mut self.traces {
            trace.cut(now);
        }
        let mut aborted = 0usize;
        for slot in &mut self.slots {
            if let Some(TransferSlot { request, .. }) = slot.take() {
                displaced.push(request);
                aborted += 1;
            }
        }
        self.in_flight = 0;
        self.completions.clear();
        self.switch = SwitchStage::Idle;
        self.active_group = None;
        self.paid_reload = true;
        self.metrics.transfers_aborted += aborted as u64;
        while let Some(r) = self.queue.oldest() {
            displaced.push(self.queue.remove(r.seq));
            self.metrics.requests_evacuated += 1;
        }
        self.queued_bytes = 0;
        aborted
    }

    /// Cancels query `q`: every still-queued request of the query is
    /// dequeued (never served, no ledger entry) and counted in
    /// [`DeviceMetrics::requests_cancelled`]. In-flight transfers are
    /// *not* preempted — serving never preempts — so their deliveries
    /// still complete and the caller discards them at routing. Returns
    /// the number of requests dequeued.
    pub fn cancel_query(&mut self, q: QueryId) -> usize {
        let mut bytes = 0u64;
        let n = self.queue.cancel_query(q, &mut |r| bytes += r.bytes);
        self.queued_bytes -= bytes;
        self.metrics.requests_cancelled += n as u64;
        n
    }

    /// Cancels query `q`'s queued request for `object` — the
    /// hedge-loser path: the winning replica's copy was consumed, so
    /// the duplicate must not occupy this shard's pipeline. Returns
    /// true when a queued copy was dequeued.
    pub fn cancel_object(&mut self, q: QueryId, object: ObjectId) -> bool {
        match self.queue.cancel_object(q, object) {
            Some(r) => {
                self.queued_bytes -= r.bytes;
                self.metrics.requests_cancelled += 1;
                true
            }
            None => false,
        }
    }

    /// Enqueues GET requests from `client` tagged with `query`. Call
    /// [`CsdDevice::kick`] afterwards to (re)start the device.
    ///
    /// The submission instant is not stored: a request's place in the
    /// queue is its sequence number, and no policy reads an arrival time.
    ///
    /// # Panics
    /// Panics if an object is not stored — requesting unknown objects is
    /// a harness bug — or belongs to another tenant than `client` and
    /// `query` (checked in both [`LedgerMode`]s).
    pub fn submit(&mut self, _now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        for &object in objects {
            let (slot, meta) = self
                .store
                .resolve(object)
                .unwrap_or_else(|| panic!("GET for unknown object {object}"));
            assert_own_tenant(client, query, object);
            self.queue.insert(PendingRequest {
                object,
                query,
                client,
                group: meta.group,
                bytes: meta.logical_bytes,
                slot,
                seq: self.next_seq,
            });
            self.next_seq += 1;
            self.queued_bytes += meta.logical_bytes;
            self.metrics.requests_submitted += 1;
        }
    }

    /// Fills idle transfer slots (consulting the scheduler once per
    /// slot, each grant dequeuing its request so the queue aggregates
    /// stay truthful) and returns the *earliest* pending completion —
    /// transfer or switch — or `None` if the device is idle with
    /// nothing to do.
    ///
    /// The wake-up contract is "earliest of K completions": dispatching
    /// new work can move the earliest completion *earlier*, so callers
    /// must re-kick after every mutation (submit or complete) and
    /// re-arm their wake-up when the returned instant changes.
    pub fn kick(&mut self, now: SimTime) -> Option<SimTime> {
        if let SwitchStage::Switching { until, .. } = self.switch {
            return Some(until);
        }
        // Dispatch until the slots are full, the scheduler stops
        // granting, or a switch gets armed (no new transfers then).
        while self.switch == SwitchStage::Idle {
            let Some(slot) = self.slots.iter().position(Option::is_none) else {
                break;
            };
            let pipe = InFlight {
                transfers: self.in_flight,
            };
            match self.scheduler.decide(&self.queue, self.active_group, pipe) {
                Decision::Idle => break,
                Decision::ServeActive => {
                    let active = self
                        .active_group
                        .expect("ServeActive requires a loaded group");
                    let scope = self.scheduler.serve_scope();
                    let seq = match self.queue.select(scope, active) {
                        Some(seq) => seq,
                        None => {
                            // The residency drained but the scheduler
                            // re-picked this group: start a fresh
                            // residency over the current queue without
                            // paying a switch.
                            self.queue.arm_residency(active);
                            self.queue.select(scope, active).unwrap_or_else(|| {
                                panic!(
                                    "scheduler {} returned ServeActive with empty scope",
                                    self.scheduler.name()
                                )
                            })
                        }
                    };
                    let request = self.queue.remove(seq);
                    debug_assert_eq!(request.group, active, "serving off-group request");
                    self.queued_bytes -= request.bytes;
                    let until = now + transfer_time(request.bytes, self.stream_bandwidth());
                    self.traces[slot].record(
                        now,
                        until,
                        Activity::Transferring {
                            client: request.client as u32,
                        },
                    );
                    self.slots[slot] = Some(TransferSlot {
                        request,
                        started: now,
                        until,
                    });
                    self.in_flight += 1;
                    self.metrics.peak_concurrent_streams = self
                        .metrics
                        .peak_concurrent_streams
                        .max(self.in_flight as u32);
                    self.completions.push(Reverse((until, slot)));
                }
                Decision::SwitchTo(target) => {
                    assert_ne!(
                        Some(target),
                        self.active_group,
                        "scheduler {} switched to the already-active group",
                        self.scheduler.name()
                    );
                    if self.in_flight > 0 {
                        // Transfers still draining: arm the switch so it
                        // begins the instant the last one completes.
                        self.switch = SwitchStage::Armed(target);
                        break;
                    }
                    if self.active_group.is_none() && !self.paid_reload {
                        // The array always has some group spinning (a
                        // lone client on a one-group layout sees zero
                        // switches): the first load is free; re-decide.
                        self.active_group = Some(target);
                        self.metrics.initial_loads += 1;
                        self.scheduler.on_switch_complete(&self.queue, target);
                        self.queue.arm_residency(target);
                        continue;
                    }
                    return Some(self.begin_switch(now, target));
                }
            }
        }
        self.completions.peek().map(|&Reverse((at, _))| at)
    }

    /// Starts the switch stage (the pipe must be empty) and returns its
    /// completion instant.
    fn begin_switch(&mut self, now: SimTime, target: GroupId) -> SimTime {
        debug_assert_eq!(self.in_flight, 0, "switch started with transfers in flight");
        self.paid_reload = false;
        let until = now + self.config.switch_latency;
        self.traces[0].record(now, until, Activity::Switching);
        self.metrics.group_switches += 1;
        self.switch = SwitchStage::Switching { target, until };
        until
    }

    /// Completes everything due at `now`: either the switch stage, or
    /// every transfer whose completion instant is exactly `now`
    /// (appended to `out` in slot order — `out` is a caller-owned
    /// scratch buffer, reusable across wake-ups so the steady state
    /// allocates nothing). If retiring the last transfer drains the
    /// pipe with a switch armed, the switch starts at `now` — no idle
    /// gap. The caller should deliver the results and call
    /// [`CsdDevice::kick`] again.
    ///
    /// # Panics
    /// Panics if nothing is due at `now` — the event loop must stay in
    /// lock-step with the device's reported completion times.
    pub fn complete_into(&mut self, now: SimTime, out: &mut Vec<Delivery<P>>) {
        if let SwitchStage::Switching { target, until } = self.switch {
            assert_eq!(until, now, "switch completion out of step");
            self.switch = SwitchStage::Idle;
            self.active_group = Some(target);
            self.scheduler.on_switch_complete(&self.queue, target);
            self.queue.arm_residency(target);
            return;
        }
        let mut retired = 0usize;
        while let Some(&Reverse((at, slot))) = self.completions.peek() {
            if at != now {
                assert!(
                    at > now,
                    "transfer completion out of step: slot {slot} was due at {at}, woken at {now}"
                );
                break;
            }
            self.completions.pop();
            let TransferSlot {
                request,
                started,
                until,
            } = self.slots[slot]
                .take()
                .expect("completion heap entry without an occupied slot");
            debug_assert_eq!(until, now);
            self.in_flight -= 1;
            retired += 1;
            self.metrics.objects_served += 1;
            self.metrics.logical_bytes_served += request.bytes;
            self.metrics.transfer_busy_micros += until.since(started).as_micros();
            if self.config.ledger_mode == LedgerMode::Full {
                self.served_log.push(LedgerEntry::new(
                    request.client,
                    request.query,
                    request.object,
                ));
            }
            out.push(Delivery {
                client: request.client,
                query: request.query,
                object: request.object,
                payload: self.store.payload(request.slot).clone(),
            });
        }
        assert!(
            retired > 0,
            "complete() with no operation in flight at {now}"
        );
        if self.in_flight == 0 {
            if let SwitchStage::Armed(target) = self.switch {
                // The pipe just drained: the armed switch begins now.
                self.switch = SwitchStage::Idle;
                self.begin_switch(now, target);
            }
        }
    }

    /// True when no transfer or switch is in flight and the queue is
    /// empty.
    pub fn is_quiescent(&self) -> bool {
        self.in_flight == 0 && self.switch == SwitchStage::Idle && self.queue.is_empty()
    }

    /// Number of queued (not yet dispatched) requests.
    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }

    /// Logical bytes of the queued (not yet dispatched) requests — the
    /// backlog the admission-control seam thresholds against,
    /// maintained incrementally (O(1) read).
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Number of transfers currently occupying pipeline slots.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The currently loaded group.
    #[cfg(test)]
    pub(crate) fn active_group(&self) -> Option<GroupId> {
        self.active_group
    }

    /// Run counters.
    pub fn metrics(&self) -> &DeviceMetrics {
        &self.metrics
    }

    /// Takes the run counters out of the device (end-of-run assembly).
    pub fn take_metrics(&mut self) -> DeviceMetrics {
        std::mem::take(&mut self.metrics)
    }

    /// Every completed transfer in service order, one [`LedgerEntry`]
    /// (a `(client, query, object)` triple) each. The multiset of entries
    /// is the device's work-conservation ledger — sharded fleets must
    /// deliver exactly the same multiset as a single device would.
    #[cfg(test)]
    pub(crate) fn served_log(&self) -> &[LedgerEntry] {
        &self.served_log
    }

    /// Takes the delivery ledger out of the device (end-of-run assembly).
    pub fn take_served_log(&mut self) -> Vec<LedgerEntry> {
        std::mem::take(&mut self.served_log)
    }

    /// The control-stream activity trace: slot 0's transfers plus every
    /// switch span. The full per-slot picture is [`CsdDevice::traces`].
    #[cfg(test)]
    pub(crate) fn trace(&self) -> &ActivityTrace {
        &self.traces[0]
    }

    /// Every slot's activity trace, in slot order. Spans are sequential
    /// within a slot and overlap across slots; the runtime's stall
    /// clock (`skipper_sim::StallClock`) unions them as they are
    /// recorded.
    pub fn traces(&self) -> &[ActivityTrace] {
        &self.traces
    }

    /// Takes the recorded spans out of every slot trace, in slot order
    /// (end-of-run assembly). Index 0 is the control stream (switches +
    /// slot-0 transfers); with one stream this is exactly the
    /// historical single span log.
    pub fn take_stream_spans(&mut self) -> Vec<Vec<Span>> {
        self.traces.iter_mut().map(|t| t.take_spans()).collect()
    }

    /// The configured delivery-ledger mode (callers layering extra
    /// ledgers — e.g. the shard cache's served log — follow it).
    pub fn ledger_mode(&self) -> LedgerMode {
        self.config.ledger_mode
    }

    /// The scheduler's report name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// Read access to the backing store.
    pub fn store(&self) -> &ObjectStore<P> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedPolicy;

    const MB: u64 = 1 << 20;

    /// 2 tenants × 2 objects, one group per tenant, 100 MB objects,
    /// 100 MB/s bandwidth (1 s per object), 10 s switches.
    fn device(policy: SchedPolicy) -> CsdDevice<&'static str> {
        device_with_streams(policy, 1)
    }

    fn device_with_streams(policy: SchedPolicy, streams: u32) -> CsdDevice<&'static str> {
        device_traced(policy, streams, TraceMode::Full)
    }

    fn device_traced(
        policy: SchedPolicy,
        streams: u32,
        trace_mode: TraceMode,
    ) -> CsdDevice<&'static str> {
        let mut store = ObjectStore::new();
        for t in 0..2u16 {
            for s in 0..2u32 {
                store.put(ObjectId::new(t, 0, s), 100 * MB, t as u32, "seg");
            }
        }
        CsdDevice::new(
            CsdConfig {
                switch_latency: SimDuration::from_secs(10),
                bandwidth_bytes_per_sec: (100 * MB) as f64,
                parallel_streams: streams,
                trace_mode,
                ..CsdConfig::default()
            },
            store,
            policy.build(),
            IntraGroupOrder::SemanticRoundRobin,
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Completes everything due at `now` into a fresh local buffer.
    fn complete(dev: &mut CsdDevice<&'static str>, now: SimTime) -> Vec<Delivery<&'static str>> {
        let mut out = Vec::new();
        dev.complete_into(now, &mut out);
        out
    }

    /// Drives the device to quiescence, collecting `(time, delivery)`.
    fn drain(dev: &mut CsdDevice<&'static str>, mut now: SimTime) -> (SimTime, Vec<ObjectId>) {
        let mut served = Vec::new();
        while let Some(until) = dev.kick(now) {
            now = until;
            for d in complete(dev, now) {
                served.push(d.object);
            }
        }
        (now, served)
    }

    #[test]
    fn single_client_sees_no_switches() {
        let mut dev = device(SchedPolicy::RankBased);
        let q = QueryId::new(0, 0);
        dev.submit(
            t(0),
            0,
            q,
            &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
        );
        // Initial load is free → first op is a 1 s transfer.
        let done = dev.kick(t(0)).unwrap();
        assert_eq!(done, t(1));
        let d = complete(&mut dev, t(1));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].client, 0);
        assert_eq!(d[0].object.segment, 0); // semantic order: lowest segment first
        let done = dev.kick(t(1)).unwrap();
        assert_eq!(done, t(2));
        let d = complete(&mut dev, t(2));
        assert_eq!(d[0].object.segment, 1);
        assert!(dev.kick(t(2)).is_none());
        assert!(dev.is_quiescent());
        assert_eq!(dev.metrics().group_switches, 0);
        assert_eq!(dev.metrics().initial_loads, 1);
        assert_eq!(dev.metrics().objects_served, 2);
    }

    #[test]
    fn two_clients_force_one_switch_with_batching() {
        let mut dev = device(SchedPolicy::RankBased);
        dev.submit(
            t(0),
            0,
            QueryId::new(0, 0),
            &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
        );
        dev.submit(
            t(0),
            1,
            QueryId::new(1, 0),
            &[ObjectId::new(1, 0, 0), ObjectId::new(1, 0, 1)],
        );
        let mut now = t(0);
        let mut deliveries = Vec::new();
        while let Some(until) = dev.kick(now) {
            now = until;
            deliveries.extend(complete(&mut dev, now));
        }
        assert_eq!(deliveries.len(), 4);
        // Batched: both of client 0's objects, then a single switch, then
        // both of client 1's.
        assert_eq!(dev.metrics().group_switches, 1);
        assert_eq!(deliveries[0].client, deliveries[1].client);
        assert_eq!(deliveries[2].client, deliveries[3].client);
        assert_ne!(deliveries[0].client, deliveries[2].client);
        // Total: 2×1 s + 10 s switch + 2×1 s = 14 s.
        assert_eq!(now, t(14));
    }

    #[test]
    fn object_fcfs_ping_pongs_between_groups() {
        let mut dev = device(SchedPolicy::FcfsObject);
        // Interleaved arrival: c0/s0, c1/s0, c0/s1, c1/s1.
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 0)]);
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 1)]);
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 1)]);
        let (now, _) = drain(&mut dev, t(0));
        // Strict arrival order forces 3 switches (0→1→0→1) vs 1 for the
        // batching schedulers — the §4.4 pathology.
        assert_eq!(dev.metrics().group_switches, 3);
        assert_eq!(now, t(4 + 30));
    }

    #[test]
    fn switch_latency_respected() {
        let mut dev = device(SchedPolicy::MaxQueries);
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 0)]);
        // Free initial load lands on group 1 directly.
        let until = dev.kick(t(0)).unwrap();
        assert_eq!(until, t(1));
        complete(&mut dev, t(1));
        // New work on group 0 arrives: now a paid switch.
        dev.submit(t(1), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
        let until = dev.kick(t(1)).unwrap();
        assert_eq!(until, t(11)); // 10 s switch
        assert!(complete(&mut dev, t(11)).is_empty());
        assert_eq!(dev.active_group(), Some(0));
        let until = dev.kick(t(11)).unwrap();
        assert_eq!(until, t(12));
        assert_eq!(complete(&mut dev, t(12)).len(), 1);
    }

    #[test]
    fn trace_records_switch_and_transfer_spans() {
        let mut dev = device(SchedPolicy::MaxQueries);
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 0)]);
        let (now, _) = drain(&mut dev, t(0));
        let attr = dev.trace().attribute(t(0), now);
        assert_eq!(attr.switching, SimDuration::from_secs(10));
        assert_eq!(attr.transfer, SimDuration::from_secs(2));
    }

    #[test]
    fn intra_group_orders() {
        let mk = |table: u16, seg: u32, seq: u64| PendingRequest {
            object: ObjectId::new(0, table, seg),
            query: QueryId::new(0, 0),
            client: 0,
            group: 0,
            bytes: 0,
            slot: 0,
            seq,
        };
        let pending = [mk(0, 0, 0), mk(0, 1, 1), mk(1, 0, 2), mk(1, 1, 3)];
        // The request a scope serves next: its least key.
        let next = |order: IntraGroupOrder, scope: &[usize]| {
            let least = scope.iter().min_by_key(|&&i| order.key(&pending[i]));
            pending[*least.unwrap()].object
        };
        // Semantic: A.0 then B.0 (segment-major).
        let semantic = IntraGroupOrder::SemanticRoundRobin;
        assert_eq!(next(semantic, &[0, 1, 2, 3]), ObjectId::new(0, 0, 0));
        assert_eq!(next(semantic, &[1, 2, 3]), ObjectId::new(0, 1, 0));
        // TableOrder: A.0 then A.1 (table-major).
        let table = IntraGroupOrder::TableOrder;
        assert_eq!(next(table, &[1, 2, 3]), ObjectId::new(0, 0, 1));
        // Arrival order follows seq.
        assert_eq!(
            next(IntraGroupOrder::ArrivalOrder, &[3, 2]),
            ObjectId::new(0, 1, 0)
        );
    }

    #[test]
    #[should_panic(expected = "unknown object")]
    fn unknown_object_rejected() {
        let mut dev = device(SchedPolicy::RankBased);
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(9, 9, 9)]);
    }

    /// A strided shard's share of tenant 0's one table: segments 1, 3
    /// and 5 of 6, in a store laid out for the whole table.
    fn strided_device() -> CsdDevice<&'static str> {
        let mut store = ObjectStore::with_extents(&[vec![6]], 3);
        for s in [1, 3, 5] {
            store.put(ObjectId::new(0, 0, s), 100 * MB, 0, "seg");
        }
        CsdDevice::new(
            CsdConfig::default(),
            store,
            SchedPolicy::RankBased.build(),
            IntraGroupOrder::SemanticRoundRobin,
        )
    }

    #[test]
    #[should_panic(expected = "GET for unknown object c0/t0.2")]
    fn get_in_a_hole_of_a_strided_store_panics() {
        let mut dev = strided_device();
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 3)]);
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 2)]);
    }

    #[test]
    #[should_panic(expected = "GET for unknown object c0/t0.6")]
    fn get_past_the_table_extent_panics() {
        let mut dev = strided_device();
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 6)]);
    }

    #[test]
    #[should_panic(expected = "GET for unknown object c1/t0.1")]
    fn get_for_an_unknown_tenant_panics() {
        let mut dev = strided_device();
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "no operation in flight")]
    fn complete_without_op_panics() {
        let mut dev = device(SchedPolicy::RankBased);
        complete(&mut dev, t(0));
    }

    #[test]
    #[should_panic(expected = "parallel_streams must be >= 1")]
    fn zero_streams_rejected() {
        device_with_streams(SchedPolicy::RankBased, 0);
    }

    #[test]
    fn pipeline_overlaps_intra_group_transfers() {
        // 4 objects on one group, 2 streams: pairs of 1 s transfers
        // overlap → 2 s total instead of the serial 4 s.
        let mut store = ObjectStore::new();
        for s in 0..4u32 {
            store.put(ObjectId::new(0, 0, s), 100 * MB, 0, "seg");
        }
        let mut dev: CsdDevice<&'static str> = CsdDevice::new(
            CsdConfig {
                switch_latency: SimDuration::from_secs(10),
                bandwidth_bytes_per_sec: (100 * MB) as f64,
                parallel_streams: 2,
                ..CsdConfig::default()
            },
            store,
            SchedPolicy::RankBased.build(),
            IntraGroupOrder::SemanticRoundRobin,
        );
        let objs: Vec<ObjectId> = (0..4).map(|s| ObjectId::new(0, 0, s)).collect();
        dev.submit(t(0), 0, QueryId::new(0, 0), &objs);
        let first = dev.kick(t(0)).unwrap();
        assert_eq!(first, t(1));
        assert_eq!(dev.in_flight(), 2);
        // Both streams complete at t=1: one wake-up retires both.
        let batch = complete(&mut dev, t(1));
        assert_eq!(batch.len(), 2);
        let (now, _) = drain(&mut dev, t(1));
        assert_eq!(now, t(2), "two stream-pairs of 1 s each");
        assert_eq!(dev.metrics().objects_served, 4);
        assert_eq!(dev.metrics().peak_concurrent_streams, 2);
        // 4 stream-seconds of transfer over 2 wall seconds.
        assert_eq!(dev.metrics().transfer_busy_micros, 4_000_000);
        // Slot traces: 2 s of transfer in each slot, overlapping in
        // wall time (adjacent same-client spans coalesce per slot).
        assert_eq!(dev.traces().len(), 2);
        for tr in dev.traces() {
            assert_eq!(tr.attribute(t(0), t(2)).transfer, SimDuration::from_secs(2));
        }
    }

    #[test]
    fn switch_begins_the_instant_the_pipe_drains() {
        // Client 0: two 1 s objects on group 0; client 1: one on group 1.
        // With 2 streams both of client 0's transfers overlap in [0,1);
        // the switch must begin at exactly t=1 (no idle gap at the
        // drain→switch seam), finishing at t=11.
        let mut dev = device_with_streams(SchedPolicy::FcfsQuery, 2);
        dev.submit(
            t(0),
            0,
            QueryId::new(0, 0),
            &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
        );
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 0)]);
        let first = dev.kick(t(0)).unwrap();
        assert_eq!(first, t(1));
        assert_eq!(dev.in_flight(), 2);
        let batch = complete(&mut dev, t(1));
        assert_eq!(batch.len(), 2, "both group-0 transfers retire together");
        let until = dev.kick(t(1)).unwrap();
        assert_eq!(until, t(11), "switch spans [1, 11) with no idle gap");
        assert!(complete(&mut dev, t(11)).is_empty());
        assert_eq!(dev.active_group(), Some(1));
        let (now, _) = drain(&mut dev, t(11));
        assert_eq!(now, t(12));
        // Trace confirms the seam: switch span starts exactly at drain.
        let switching: Vec<_> = dev
            .trace()
            .spans()
            .iter()
            .filter(|s| s.activity == Activity::Switching)
            .collect();
        assert_eq!(switching.len(), 1);
        assert_eq!(switching[0].start, t(1));
        assert_eq!(switching[0].end, t(11));
    }

    #[test]
    fn armed_switch_blocks_new_dispatches() {
        // FCFS-object with 2 streams: oldest is on group 0, second
        // oldest on group 1. Slot 0 takes the group-0 transfer; the
        // next grant is a switch (armed, pipe draining) and the second
        // slot must stay empty.
        let mut dev = device_with_streams(SchedPolicy::FcfsObject, 2);
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 0)]);
        dev.submit(t(0), 0, QueryId::new(0, 1), &[ObjectId::new(0, 0, 1)]);
        let first = dev.kick(t(0)).unwrap();
        assert_eq!(first, t(1));
        assert_eq!(dev.in_flight(), 1, "armed switch must stop dispatching");
        complete(&mut dev, t(1));
        // Switch to group 1 spans [1, 11).
        assert_eq!(dev.kick(t(1)), Some(t(11)));
        assert_eq!(dev.metrics().group_switches, 1);
    }

    #[test]
    fn pipeline_matches_multiplier_makespan_on_saturated_queue() {
        // With the queue saturated the pipeline's total intra-group
        // service time equals a 4× bandwidth multiplier's: 4 × 1 s over
        // 4 streams = 1 s.
        let mut store = ObjectStore::new();
        for s in 0..4u32 {
            store.put(ObjectId::new(0, 0, s), 100 * MB, 0, "seg");
        }
        let mut dev: CsdDevice<&'static str> = CsdDevice::new(
            CsdConfig {
                switch_latency: SimDuration::from_secs(10),
                bandwidth_bytes_per_sec: (100 * MB) as f64,
                parallel_streams: 4,
                ..CsdConfig::default()
            },
            store,
            SchedPolicy::RankBased.build(),
            IntraGroupOrder::SemanticRoundRobin,
        );
        let objs: Vec<ObjectId> = (0..4).map(|s| ObjectId::new(0, 0, s)).collect();
        dev.submit(t(0), 0, QueryId::new(0, 0), &objs);
        let (now, _) = drain(&mut dev, t(0));
        assert_eq!(now, t(1));
        assert_eq!(dev.metrics().objects_served, 4);
        assert_eq!(dev.metrics().peak_concurrent_streams, 4);
    }

    #[test]
    fn residency_snapshot_excludes_mid_residency_arrivals() {
        // Client 0's query is being served on group 0; client 1 submits
        // for group 1; then client 0 submits MORE work for group 0. The
        // new group-0 work must wait until after group 1 is served (it
        // arrived after the residency snapshot).
        let mut dev = device(SchedPolicy::RankBased);
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(0, 0, 0)]);
        let until = dev.kick(t(0)).unwrap(); // serving c0/s0 on group 0
        dev.submit(t(0), 1, QueryId::new(1, 0), &[ObjectId::new(1, 0, 0)]);
        dev.submit(t(0), 0, QueryId::new(0, 1), &[ObjectId::new(0, 0, 1)]);
        let mut order = Vec::new();
        let mut now = until;
        loop {
            for d in complete(&mut dev, now) {
                order.push(d.query);
            }
            match dev.kick(now) {
                Some(u) => now = u,
                None => break,
            }
        }
        assert_eq!(
            order,
            vec![QueryId::new(0, 0), QueryId::new(1, 0), QueryId::new(0, 1)],
            "post-snapshot work must not preempt the waiting group"
        );
        assert_eq!(dev.metrics().group_switches, 2);
    }

    #[test]
    fn requests_submitted_counts_reissues() {
        let mut dev = device(SchedPolicy::RankBased);
        let obj = ObjectId::new(0, 0, 0);
        dev.submit(t(0), 0, QueryId::new(0, 0), &[obj]);
        let (now, _) = drain(&mut dev, t(0));
        dev.submit(now, 0, QueryId::new(0, 0), &[obj]); // reissue
        drain(&mut dev, now);
        assert_eq!(dev.metrics().requests_submitted, 2);
        assert_eq!(dev.metrics().objects_served, 2);
    }

    #[test]
    fn served_log_records_every_transfer_in_order() {
        let mut dev = device(SchedPolicy::RankBased);
        dev.submit(
            t(0),
            0,
            QueryId::new(0, 0),
            &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
        );
        drain(&mut dev, t(0));
        let log: Vec<_> = dev.served_log().iter().map(|e| e.triple()).collect();
        assert_eq!(
            log,
            &[
                (0, QueryId::new(0, 0), ObjectId::new(0, 0, 0)),
                (0, QueryId::new(0, 0), ObjectId::new(0, 0, 1)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "cross-tenant GET: object c1/t0.0")]
    fn cross_tenant_submit_is_rejected_without_a_ledger() {
        let mut dev = device(SchedPolicy::RankBased);
        dev.config.ledger_mode = LedgerMode::Counters;
        dev.submit(t(0), 0, QueryId::new(0, 0), &[ObjectId::new(1, 0, 0)]);
    }

    #[test]
    fn crash_cuts_aborted_transfer_and_switch_spans() {
        let at = |ms: u64| t(0) + SimDuration::from_millis(ms);
        let obj = ObjectId::new(0, 0, 0);
        let q = QueryId::new(0, 0);
        for mode in [TraceMode::Full, TraceMode::Counters] {
            let mut dev = device_traced(SchedPolicy::RankBased, 1, mode);
            let mut displaced = Vec::new();
            // Mid-transfer: the 1 s transfer dies at 0.4 s.
            dev.submit(t(0), 0, q, &[obj]);
            assert_eq!(dev.kick(t(0)), Some(t(1)));
            assert_eq!(dev.fail(at(400), &mut displaced), 1);
            // Mid-switch: the paid reload dies at 5 s.
            dev.submit(at(500), 0, q, &[obj]);
            assert_eq!(dev.kick(at(500)), Some(at(10_500)));
            assert_eq!(dev.fail(t(5), &mut displaced), 0);
            // The next reload records after the cut without overlap.
            dev.submit(t(6), 0, q, &[obj]);
            assert_eq!(dev.kick(t(6)), Some(t(16)));
            assert_eq!(dev.metrics().group_switches, 2);
            let expected = match mode {
                TraceMode::Full => vec![
                    Span {
                        start: t(0),
                        end: at(400),
                        activity: Activity::Transferring { client: 0 },
                    },
                    Span {
                        start: at(500),
                        end: t(5),
                        activity: Activity::Switching,
                    },
                    Span {
                        start: t(6),
                        end: t(16),
                        activity: Activity::Switching,
                    },
                ],
                TraceMode::Counters => Vec::new(),
            };
            assert_eq!(dev.trace().spans(), expected.as_slice());
        }
    }

    #[test]
    fn streams_one_matches_the_serial_event_schedule() {
        // The collapse contract: a 1-stream pipeline reproduces the
        // serial machine's exact completion instants and span log on a
        // switch-heavy workload.
        let run = |streams: u32| {
            let mut dev = device_with_streams(SchedPolicy::RankBased, streams);
            dev.submit(
                t(0),
                0,
                QueryId::new(0, 0),
                &[ObjectId::new(0, 0, 0), ObjectId::new(0, 0, 1)],
            );
            dev.submit(
                t(0),
                1,
                QueryId::new(1, 0),
                &[ObjectId::new(1, 0, 0), ObjectId::new(1, 0, 1)],
            );
            let mut instants = Vec::new();
            let mut now = t(0);
            while let Some(until) = dev.kick(now) {
                now = until;
                instants.push((now, complete(&mut dev, now).len()));
            }
            let spans = dev.take_stream_spans();
            (instants, spans)
        };
        let (serial, serial_spans) = run(1);
        assert_eq!(
            serial,
            vec![(t(1), 1), (t(2), 1), (t(12), 0), (t(13), 1), (t(14), 1)]
        );
        // One slot trace: coalesced transfer [0,2), switch [2,12),
        // coalesced transfer [12,14) — the historical span log.
        assert_eq!(serial_spans.len(), 1);
        assert_eq!(serial_spans[0].len(), 3);
    }
}
