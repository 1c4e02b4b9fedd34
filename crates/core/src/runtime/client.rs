//! The client state machine: one tenant's database VM.
//!
//! Like the paper's tenants (§4.3), a client runs one query at a time
//! and tags its GETs with the query's sequence number `qseq`. All a
//! query owns is one [`RunningQuery`]: `start_next` creates it, and
//! `finish` or `cancel` drops it and advances `qseq`. A delivery, a
//! protection event or a charged reaction that names a `qseq` no
//! longer [`runs`](ClientState::runs) belongs to a cancelled query and
//! is discarded. All timing decisions belong to the runtime driver;
//! this module owns per-tenant state and its legal transitions.

use std::collections::VecDeque;
use std::sync::Arc;

use skipper_csd::ObjectId;
use skipper_datagen::Dataset;
use skipper_relational::query::QuerySpec;
use skipper_sim::{SimDuration, SimTime, StallClock};

use crate::config::CostModel;
use crate::engine::{QueryEngine, Reaction};

use super::collector::{QueryRecord, RecordDraft};
use super::engines::EngineFactory;

/// A query waiting in a client's plan: its spec plus the instant the
/// arrival process releases it (`None` = closed-loop, released by the
/// predecessor's completion).
pub(crate) struct PlannedQuery {
    /// The query to run.
    pub spec: QuerySpec,
    /// Absolute release instant for open arrivals.
    pub release: Option<SimTime>,
    /// Deadline retries already spent on the query: 0 as planned, `k`
    /// when a deadline re-planned it for its `k`-th attempt.
    pub attempt: u32,
}

/// The query a client is running.
pub(crate) struct RunningQuery {
    /// The engine executing the query.
    pub engine: Box<dyn QueryEngine>,
    /// Measurement draft, stalls included.
    pub draft: RecordDraft,
    /// Delivered objects waiting for the CPU. Ids only: the bytes live
    /// in [`ClientState::dataset`], lent to the engine at processing.
    pub inbox: VecDeque<ObjectId>,
    /// Deadline retries spent on the query before this attempt.
    pub attempt: u32,
}

/// One tenant's runtime state.
pub(crate) struct ClientState {
    /// The tenant's dataset.
    pub dataset: Arc<Dataset>,
    /// Engine builder for this tenant.
    pub factory: Arc<dyn EngineFactory>,
    /// Queries not yet started, in plan order.
    pub plan: VecDeque<PlannedQuery>,
    /// The running query, if any.
    pub running: Option<RunningQuery>,
    /// Sequence number of the running query, or of the next to start.
    pub qseq: u32,
    /// Charged processing in flight: the reaction its `ClientReady`
    /// applies, tagged with the `qseq` of the query it belongs to.
    pub processing: Option<(u32, Reaction)>,
    /// Finished records, in completion order, each carrying the stalls
    /// its draft split as the query ran.
    pub records: Vec<QueryRecord>,
    /// Whether finished records are kept; `false` drops them as they
    /// finish (`RecordMode::Counters`).
    keeps_records: bool,
    /// One shared name per distinct query name the tenant has run.
    names: Vec<Arc<str>>,
    /// The last query's emptied inbox, reused by the next one so the
    /// steady state allocates no buffer per query.
    spare_inbox: VecDeque<ObjectId>,
}

impl ClientState {
    /// Fresh state over `plan`.
    pub(crate) fn new(
        dataset: Arc<Dataset>,
        factory: Arc<dyn EngineFactory>,
        plan: Vec<PlannedQuery>,
    ) -> Self {
        ClientState {
            dataset,
            factory,
            plan: plan.into(),
            running: None,
            qseq: 0,
            processing: None,
            records: Vec::new(),
            keeps_records: true,
            names: Vec::new(),
            spare_inbox: VecDeque::new(),
        }
    }

    /// Whether finished records are kept (the default) or dropped as
    /// they finish.
    pub(crate) fn keep_records(&mut self, keep: bool) {
        self.keeps_records = keep;
    }

    /// Whether query `qseq` is running.
    pub(crate) fn runs(&self, qseq: u32) -> bool {
        qseq == self.qseq && self.running.is_some()
    }

    /// Whether query `qseq` runs and its engine still wants deliveries.
    pub(crate) fn accepts(&self, qseq: u32) -> bool {
        matches!(&self.running, Some(run) if qseq == self.qseq && !run.engine.is_finished())
    }

    /// True when the next planned query may start at `now`: no query
    /// runs and the query's release instant (if any) has passed.
    pub(crate) fn can_start(&self, now: SimTime) -> bool {
        self.running.is_none()
            && self
                .plan
                .front()
                .is_some_and(|p| p.release.is_none_or(|at| at <= now))
    }

    /// Starts the next planned query: builds the engine, opens the
    /// measurement draft — blocked from `now`, read off the fleet's
    /// stall `clock` — and returns the initial GET batch.
    ///
    /// # Panics
    /// Panics if a query is already running — callers gate on
    /// [`ClientState::can_start`].
    pub(crate) fn start_next(
        &mut self,
        tenant: u16,
        cost: CostModel,
        now: SimTime,
        clock: Option<&StallClock>,
    ) -> Vec<ObjectId> {
        assert!(self.running.is_none(), "query started while one is running");
        let planned = self.plan.pop_front().expect("start_next on empty plan");
        let query_name = match self.names.iter().find(|n| ***n == planned.spec.name) {
            Some(name) => Arc::clone(name),
            None => {
                let name: Arc<str> = planned.spec.name.as_str().into();
                self.names.push(Arc::clone(&name));
                name
            }
        };
        let release = planned.release;
        let mut engine = self
            .factory
            .build(tenant, &self.dataset, planned.spec, cost);
        let requests = engine.start();
        let mut draft = RecordDraft::begin(query_name, release, now, clock);
        draft.upfront_gets = requests.len() as u64;
        self.running = Some(RunningQuery {
            engine,
            draft,
            inbox: std::mem::take(&mut self.spare_inbox),
            attempt: planned.attempt,
        });
        requests
    }

    /// Takes the running query out — its buffered deliveries and its
    /// draft, stalls included — and advances `qseq`. A protection-plane
    /// cancel drops it; [`ClientState::finish`] records it. Charged
    /// processing in flight stays, and its `ClientReady` discards it.
    pub(crate) fn cancel(&mut self) -> RunningQuery {
        let mut run = self.running.take().expect("no running query");
        self.qseq += 1;
        self.spare_inbox = std::mem::take(&mut run.inbox);
        self.spare_inbox.clear();
        run
    }

    /// Finishes the running query at `now` and returns its response
    /// time. The record — result rows included — is built only when the
    /// client keeps records.
    pub(crate) fn finish(&mut self, client_idx: usize, now: SimTime) -> SimDuration {
        let seq = self.qseq;
        let RunningQuery { engine, draft, .. } = self.cancel();
        let response = now.since(draft.release.unwrap_or(draft.start));
        if self.keeps_records {
            self.records.push(QueryRecord {
                query: draft.query_name,
                client: client_idx,
                seq,
                engine: self.factory.label(),
                release: draft.release,
                start: draft.start,
                end: now,
                processing: draft.processing,
                upfront_gets: draft.upfront_gets,
                stalls: draft.stalls,
                stats: engine.stats(),
                result: engine.result(),
            });
        }
        response
    }

    /// Closes the running query's blocked interval (a delivery
    /// arrived), splitting it against the fleet's stall `clock`.
    #[cfg(test)]
    pub(crate) fn unblock(&mut self, now: SimTime, clock: Option<&StallClock>) {
        if let Some(run) = &mut self.running {
            run.draft.unblock(now, clock);
        }
    }

    /// Feeds the next buffered delivery to the engine, lending it the
    /// segment from the client's own dataset (the device and the cache
    /// tiers reject a cross-tenant GET at submit), and returns the
    /// processing it charged. `None` while the CPU is busy or nothing
    /// is buffered.
    pub(crate) fn process(
        &mut self,
        now: SimTime,
        clock: Option<&StallClock>,
    ) -> Option<SimDuration> {
        if self.processing.is_some() {
            return None;
        }
        let run = self.running.as_mut()?;
        let object = run.inbox.pop_front()?;
        run.draft.unblock(now, clock);
        let payload = &self.dataset.segments[object.table as usize][object.segment as usize];
        let reaction = run.engine.on_object(object, payload);
        run.draft.processing += reaction.processing;
        let charged = reaction.processing;
        self.processing = Some((self.qseq, reaction));
        Some(charged)
    }

    /// Takes the finished records out (end-of-run assembly).
    pub(crate) fn take_records(&mut self) -> Vec<QueryRecord> {
        std::mem::take(&mut self.records)
    }

    /// Marks the running query blocked-or-working after processing
    /// completed: blocked from `now` if the inbox is dry, otherwise
    /// ready for the next delivery.
    pub(crate) fn note_waiting(&mut self, now: SimTime, clock: Option<&StallClock>) {
        if let Some(run) = self.running.as_mut().filter(|run| run.inbox.is_empty()) {
            run.draft.block(now, clock);
        }
    }
}
