//! The client state machine: one tenant's database VM.
//!
//! Each client walks its planned query sequence (released by the
//! workload's arrival process), runs one engine at a time, buffers
//! deliveries that arrive while it is processing, and hands finished
//! measurements to the collector. All timing decisions (when to fire
//! `ClientReady`, when to pump the device) belong to the runtime driver;
//! this module only owns per-tenant state and its legal transitions.

use std::collections::VecDeque;
use std::sync::Arc;

use skipper_csd::ObjectId;
use skipper_datagen::Dataset;
use skipper_relational::query::QuerySpec;
use skipper_sim::{SimDuration, SimTime};

use crate::config::CostModel;
use crate::engine::QueryEngine;

use super::collector::{PendingRecord, QueryRecord, RecordDraft};
use super::engines::EngineFactory;

/// A query waiting in a client's plan: its spec plus the instant the
/// arrival process releases it (`None` = closed-loop, released by the
/// predecessor's completion).
pub struct PlannedQuery {
    /// The query to run.
    pub spec: QuerySpec,
    /// Absolute release instant for open arrivals.
    pub release: Option<SimTime>,
}

/// One tenant's runtime state.
pub struct ClientState {
    /// The tenant's dataset.
    pub dataset: Arc<Dataset>,
    /// Engine builder for this tenant.
    pub factory: Arc<dyn EngineFactory>,
    /// Queries not yet started, in plan order.
    pub plan: VecDeque<PlannedQuery>,
    /// The engine executing the current query, if any.
    pub engine: Option<Box<dyn QueryEngine>>,
    /// Per-client query sequence number.
    pub qseq: u32,
    /// Delivered objects waiting for the CPU. Ids only: the bytes live
    /// in [`ClientState::dataset`], which the driver lends the engine
    /// when it processes the delivery.
    pub inbox: VecDeque<ObjectId>,
    /// True while charged processing is in flight.
    pub busy: bool,
    /// Requests + finished flag from the in-flight `on_object`, applied
    /// when processing completes.
    pub pending_after: Option<(Vec<ObjectId>, bool)>,
    /// Measurement draft for the current query.
    pub draft: RecordDraft,
    /// Finished records awaiting stall attribution.
    pub records: Vec<PendingRecord>,
    /// Response-time SLO target (feeds the run's latency summary).
    pub slo: Option<SimDuration>,
    /// Ideal single-tenant time (enables streaming stretch quantiles).
    pub ideal: Option<SimDuration>,
    /// Protection plane: the current query was cancelled while charged
    /// processing was in flight — the pending `ClientReady` must
    /// discard its reaction instead of applying it.
    pub cancelled: bool,
}

impl ClientState {
    /// Fresh state over `plan`.
    pub fn new(
        dataset: Arc<Dataset>,
        factory: Arc<dyn EngineFactory>,
        plan: Vec<PlannedQuery>,
    ) -> Self {
        ClientState {
            dataset,
            factory,
            plan: plan.into(),
            engine: None,
            qseq: 0,
            inbox: VecDeque::new(),
            busy: false,
            pending_after: None,
            draft: RecordDraft::default(),
            records: Vec::new(),
            slo: None,
            ideal: None,
            cancelled: false,
        }
    }

    /// True when the next planned query may start at `now`: the client
    /// is idle and the query's release instant (if any) has passed.
    pub fn can_start(&self, now: SimTime) -> bool {
        self.engine.is_none()
            && self
                .plan
                .front()
                .is_some_and(|p| p.release.is_none_or(|at| at <= now))
    }

    /// Starts the next planned query: builds the engine, opens the
    /// measurement draft, and returns the initial GET batch.
    ///
    /// # Panics
    /// Panics if a query is already running — callers gate on
    /// [`ClientState::can_start`].
    pub fn start_next(&mut self, tenant: u16, cost: CostModel, now: SimTime) -> Vec<ObjectId> {
        assert!(self.engine.is_none(), "query started while one is running");
        let planned = self.plan.pop_front().expect("start_next on empty plan");
        let query_name = planned.spec.name.clone();
        let release = planned.release;
        let mut engine = self
            .factory
            .build(tenant, &self.dataset, planned.spec, cost);
        let requests = engine.start();
        self.engine = Some(engine);
        self.draft = RecordDraft::begin(query_name, release, now);
        requests
    }

    /// Abandons the current query without a record (a protection-plane
    /// cancel): drops the engine, discards buffered deliveries, resets
    /// the measurement draft, and advances the query seq so in-flight
    /// deliveries and stale protection events are recognized and
    /// dropped at routing. If charged processing is in flight the
    /// [`ClientState::cancelled`] flag stays up and the pending
    /// `ClientReady` discards its reaction instead of applying it; the
    /// driver must not start the next query until that fires.
    pub fn cancel(&mut self) {
        assert!(self.engine.is_some(), "cancel without a running query");
        self.engine = None;
        self.inbox.clear();
        self.draft = RecordDraft::default();
        self.qseq += 1;
        if self.busy {
            self.cancelled = true;
        }
    }

    /// Whether `query_seq` refers to the query currently in flight.
    pub fn is_current(&self, query_seq: u32) -> bool {
        self.engine
            .as_ref()
            .map(|e| !e.is_finished() && query_seq == self.qseq)
            .unwrap_or(false)
    }

    /// Finishes the current query at `now`, recording its measurements.
    pub fn finish(&mut self, client_idx: usize, now: SimTime) {
        let engine = self.engine.take().expect("finishing without engine");
        let draft = std::mem::take(&mut self.draft);
        self.records.push(PendingRecord {
            record: QueryRecord {
                query: draft.query_name.clone(),
                client: client_idx,
                seq: self.qseq,
                engine: self.factory.label(),
                release: draft.release,
                start: draft.start,
                end: now,
                processing: draft.processing,
                upfront_gets: draft.upfront_gets,
                stalls: Default::default(),
                stats: engine.stats(),
                result: engine.result(),
            },
            blocked_intervals: draft.blocked,
        });
        self.inbox.clear();
        self.qseq += 1;
    }

    /// Marks the client blocked-or-working after processing completed:
    /// blocked if the inbox is dry, otherwise ready for the next
    /// delivery.
    pub fn note_waiting(&mut self, now: SimTime) {
        if self.inbox.is_empty() {
            self.draft.blocked_from = Some(now);
        }
    }

    /// Accumulates charged processing time.
    pub fn charge(&mut self, d: SimDuration) {
        self.draft.processing += d;
    }
}
