//! The overload-and-outage protection plane.
//!
//! The paper serves analytics from devices with *seconds*-scale access
//! latencies, so tail behavior under bursts and outages is the product:
//! without protection, a k=1 outage parks requests indefinitely and a
//! saturating open-arrival burst grows queues without bound. This
//! module is the whole plane — its configuration surface, its state,
//! every routine that acts on it, and its observability rollup — for
//! four defenses:
//!
//! * **Deadlines** — a per-tenant response-time bound; a query that
//!   cannot finish inside it is cancelled (dequeued if waiting, its
//!   deliveries discarded if in flight) and counted as a miss.
//! * **Retry with capped exponential backoff + jitter**
//!   ([`RetryPolicy::Backoff`]) — cancelled queries and outage-parked
//!   requests re-submit at instants computed from a labeled SplitMix
//!   stream instead of parking forever. [`RetryPolicy::None`] preserves
//!   the historical parking behavior byte-exactly.
//! * **Hedged requests** — under replicated placement, a per-tenant
//!   hedge delay after which still-undelivered reads are re-issued to
//!   the next live replica; first completion wins, the loser's queued
//!   copy is cancelled and its late delivery discarded (at-most-once
//!   *consumption*).
//! * **Admission control** ([`AdmissionPolicy`]) — per-shard backlog
//!   thresholds that shed the lowest-priority arrivals (or push
//!   backpressure into closed-loop think time), plus a per-shard
//!   breaker ([`BreakerPolicy`]) that routes around shards in brown-out
//!   or repeated-timeout state.
//!
//! The plane is one optional `Protection` on the runtime (its kernel
//! hooks are the `impl Runtime` block below) plus one optional
//! `Breaker` on the fleet, installed only when some knob is set: with
//! none, the kernel runs no protection code and today's machine is
//! reproduced byte-exactly by construction (see the invariants section
//! in [`runtime`](crate::runtime)).

use skipper_csd::{ObjectId, QueryId};
use skipper_relational::query::QuerySpec;
use skipper_sim::rng::{derive_seed, uniform01};
use skipper_sim::{SimDuration, SimTime};

use super::client::PlannedQuery;
use super::driver::{Event, Runtime};
use super::fleet::DeviceFleet;

/// Re-submission policy for cancelled queries and requests that find no
/// live replica.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RetryPolicy {
    /// No retries: requests with no live replica park until a recovery
    /// re-submits them (the historical behavior, byte-identical), and a
    /// deadline-cancelled query is simply dropped.
    #[default]
    None,
    /// Seeded capped exponential backoff with jitter: attempt `k`
    /// (1-based) re-submits after `min(cap, base·2^(k−1))` scaled by a
    /// uniform jitter in `[0.5, 1.0)` drawn from the per-client
    /// `"retry/{client}"` SplitMix stream.
    Backoff {
        /// First-attempt delay (before jitter).
        base: SimDuration,
        /// Upper bound on the un-jittered delay.
        cap: SimDuration,
        /// Total re-submission attempts before giving up; exhaustion
        /// cancels the query so the run still drains.
        max_attempts: u32,
    },
}

impl RetryPolicy {
    /// True when retries are enabled.
    pub fn enabled(&self) -> bool {
        !matches!(self, RetryPolicy::None)
    }

    /// The jittered delay before re-submission attempt `attempt`
    /// (1-based), or `None` when the policy is [`RetryPolicy::None`] or
    /// the attempt budget is exhausted. `state` is the client's
    /// dedicated SplitMix stream; one draw per computed delay.
    pub(crate) fn delay(&self, attempt: u32, state: &mut u64) -> Option<SimDuration> {
        match *self {
            RetryPolicy::None => None,
            RetryPolicy::Backoff {
                base,
                cap,
                max_attempts,
            } => {
                if attempt > max_attempts {
                    return None;
                }
                let doubled = base
                    .as_micros()
                    .saturating_mul(1u64 << (attempt - 1).min(62));
                let capped = doubled.min(cap.as_micros());
                let jitter = 0.5 + 0.5 * uniform01(state);
                Some(SimDuration::from_micros(
                    ((capped as f64 * jitter) as u64).max(1),
                ))
            }
        }
    }
}

/// What the fleet seam does with an arrival that would push a shard's
/// backlog past the [`AdmissionPolicy`] thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionResponse {
    /// Drop the query outright (no record, counted per tenant) and move
    /// on to the tenant's next planned query.
    Shed,
    /// Defer the query: push its release this far into the future,
    /// stretching a closed-loop client's think time instead of losing
    /// work.
    Backpressure(SimDuration),
}

/// Per-shard breaker: routes reads around shards that are browned out
/// or repeatedly blowing deadlines.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerPolicy {
    /// A brown-out below this bandwidth factor opens the shard's
    /// breaker until the fault plane restores nominal service.
    pub brownout_below: f64,
    /// Deadline-cancellations charged to a shard before its breaker
    /// opens for [`BreakerPolicy::cooldown`].
    pub trip_timeouts: u32,
    /// How long a timeout-tripped breaker stays open.
    pub cooldown: SimDuration,
}

/// Fleet-seam admission control: per-shard backlog thresholds plus the
/// optional breaker. Thresholds are scaled by tenant priority — a
/// tenant with priority `p` is admitted until `limit × (p + 1)` — so
/// saturation sheds the lowest-priority arrivals first.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionPolicy {
    /// Per-shard queued-request ceiling (priority-scaled).
    pub max_queue_depth: usize,
    /// Per-shard queued logical-byte ceiling (priority-scaled).
    pub max_queued_bytes: u64,
    /// Shed or defer when a target shard is over its ceiling.
    pub response: AdmissionResponse,
    /// Optional per-shard breaker.
    pub breaker: Option<BreakerPolicy>,
}

impl AdmissionPolicy {
    /// True when `depth`/`bytes` exceed the ceilings scaled for a
    /// tenant of `priority`.
    pub(crate) fn over_limit(&self, priority: u32, depth: usize, bytes: u64) -> bool {
        let scale = priority as u64 + 1;
        depth as u64 >= (self.max_queue_depth as u64).saturating_mul(scale)
            || bytes >= self.max_queued_bytes.saturating_mul(scale)
    }
}

/// One tenant's offered-vs-attained ledger.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantProtection {
    /// Queries the tenant's plan released (including shed ones).
    pub offered: u64,
    /// Queries that ran to completion — the tenant's goodput.
    pub completed: u64,
    /// Queries cancelled (or abandoned unstarted) past their deadline.
    pub deadline_misses: u64,
    /// Queries dropped by admission control before starting.
    pub shed: u64,
}

/// Protection-plane counters for a run, rolled into
/// [`RunResult::protection`](crate::runtime::RunResult::protection).
/// Every event counter is zero ([`ProtectionSummary::is_quiet`]) when
/// every knob is disabled; the per-tenant offered/completed ledger is
/// populated on every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtectionSummary {
    /// Queries cancelled or abandoned past their deadline.
    pub deadline_misses: u64,
    /// Queries dropped at the admission seam.
    pub sheds: u64,
    /// Query releases deferred by backpressure.
    pub backpressure_deferrals: u64,
    /// Re-submission attempts scheduled by [`RetryPolicy::Backoff`].
    pub retries: u64,
    /// Queries cancelled because their retry budget ran out.
    pub retry_exhausted: u64,
    /// Hedge duplicates issued to a secondary replica.
    pub hedges_fired: u64,
    /// Consumed deliveries that arrived from the hedge copy (the
    /// duplicate beat the primary).
    pub hedge_wins: u64,
    /// Queued loser copies cancelled before service once the winning
    /// replica delivered.
    pub hedge_losers_cancelled: u64,
    /// Loser deliveries that completed anyway and were discarded at
    /// routing (at-most-once consumption).
    pub hedge_losers_discarded: u64,
    /// Breaker openings (brown-out or repeated timeouts).
    pub breaker_trips: u64,
    /// Per-tenant goodput vs offered load, indexed by client.
    pub per_tenant: Vec<TenantProtection>,
}

impl ProtectionSummary {
    /// An all-zero summary with one [`TenantProtection`] slot per
    /// client. The per-tenant offered/completed tallies populate on
    /// every run (they are behavior-neutral); the event counters stay
    /// zero whenever every knob is disabled.
    pub(crate) fn sized(clients: usize) -> Self {
        ProtectionSummary {
            per_tenant: vec![TenantProtection::default(); clients],
            ..ProtectionSummary::default()
        }
    }

    /// True when no protection mechanism ever acted (trivially true for
    /// a disabled configuration).
    pub fn is_quiet(&self) -> bool {
        let quiet = ProtectionSummary {
            per_tenant: self.per_tenant.clone(),
            ..ProtectionSummary::default()
        };
        *self == quiet
    }
}

/// One client's protection knobs, copied from its
/// [`Workload`](crate::runtime::Workload).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct ClientProtection {
    /// Response-time deadline (anchored at release, like SLO targets).
    pub deadline: Option<SimDuration>,
    /// Re-submission policy for cancelled / unroutable work.
    pub retry: RetryPolicy,
    /// Hedge delay: re-issue undelivered reads to the next live replica
    /// this long after submission.
    pub hedge: Option<SimDuration>,
    /// Admission priority (0 = lowest, shed first).
    pub priority: u32,
}

/// The per-shard breaker state the fleet consults when routing:
/// installed only with a [`BreakerPolicy`], so an unprotected fleet
/// routes without it.
pub(crate) struct Breaker {
    policy: BreakerPolicy,
    /// Shard open due to repeated deadline timeouts until this instant.
    open_until: Vec<SimTime>,
    /// Shard open due to a deep brown-out.
    brownout: Vec<bool>,
    /// Deadline timeouts charged per shard since its last trip.
    timeouts: Vec<u32>,
    /// Breaker openings over the run (brown-out + timeout trips).
    trips: u64,
}

impl Breaker {
    /// A closed breaker over `shards` shards.
    pub(crate) fn new(policy: BreakerPolicy, shards: usize) -> Self {
        Breaker {
            policy,
            open_until: vec![SimTime::ZERO; shards],
            brownout: vec![false; shards],
            timeouts: vec![0; shards],
            trips: 0,
        }
    }

    /// True while `shard` is held out of preferred routing (brown-out,
    /// or a recent timeout trip still in cooldown).
    pub(crate) fn open(&self, shard: usize, now: SimTime) -> bool {
        self.brownout[shard] || self.open_until[shard] > now
    }

    /// Charges one deadline timeout against `shard`; at the policy's
    /// `trip_timeouts` the shard opens for the cooldown and the counter
    /// resets.
    pub(crate) fn record_timeout(&mut self, shard: usize, now: SimTime) {
        self.timeouts[shard] += 1;
        if self.timeouts[shard] >= self.policy.trip_timeouts {
            self.timeouts[shard] = 0;
            self.open_until[shard] = now + self.policy.cooldown;
            self.trips += 1;
        }
    }

    /// Follows a fault-plane bandwidth change on `shard`: a factor below
    /// `brownout_below` opens the shard until service is restored.
    pub(crate) fn set_bandwidth_factor(&mut self, shard: usize, factor: f64) {
        if factor < self.policy.brownout_below {
            if !self.brownout[shard] {
                self.brownout[shard] = true;
                self.trips += 1;
            }
        } else {
            self.brownout[shard] = false;
        }
    }

    /// Breaker openings over the run.
    pub(crate) fn trips(&self) -> u64 {
        self.trips
    }
}

/// The plane's own calendar events, carried by the kernel's
/// `Event::Protect`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ProtectEvent {
    /// Client `c`'s query seq `q` hits its response deadline.
    Deadline(usize, u32),
    /// The `i`-th hedge check fires.
    Hedge(usize),
    /// The `i`-th retry fires.
    Retry(usize),
}

/// Per-client hedging ledger for the current query. Cleared on finish
/// and cancel; empty for tenants without a hedge delay.
#[derive(Clone, Default)]
struct HedgeState {
    /// Every object submitted for the current query, in submit order.
    requested: Vec<ObjectId>,
    /// Objects already consumed (first copy delivered); later copies
    /// are hedge losers and are discarded.
    consumed: Vec<ObjectId>,
    /// Objects with a hedge duplicate in flight, and the shard it was
    /// sent to (to tell hedge wins from primary wins).
    hedged: Vec<(ObjectId, usize)>,
}

/// Everything the protection plane keeps during a run.
pub(crate) struct Protection {
    /// Per-client knobs, one entry per client.
    knobs: Vec<ClientProtection>,
    /// Fleet-seam admission policy, if any.
    admission: Option<AdmissionPolicy>,
    /// Event counters and the per-tenant miss/shed tallies.
    summary: ProtectionSummary,
    /// Per-client seeded SplitMix streams for retry backoff jitter.
    retry_rng: Vec<u64>,
    /// Deadline-retry attempts already spent on each current query.
    attempts: Vec<u32>,
    /// Scheduled re-submissions of objects that found no live replica,
    /// `(client, query, object, attempt)`, indexed by
    /// [`ProtectEvent::Retry`].
    retries: Vec<(usize, QueryId, ObjectId, u32)>,
    /// Scheduled hedge checks, each covering one submitted batch
    /// `(client, qseq, start, end)` — `start..end` indexes the client's
    /// `HedgeState::requested` log — indexed by [`ProtectEvent::Hedge`].
    hedges: Vec<(usize, u32, usize, usize)>,
    /// Per-client hedging ledgers (empty vectors when unused).
    hedge_state: Vec<HedgeState>,
    /// The running query's spec of each deadline+retry tenant, kept so
    /// a deadline-cancelled query can be re-planned.
    specs: Vec<Option<QuerySpec>>,
    /// At-most-once consumption log (see `RunResult::consumed`), kept
    /// on hedged full-record runs only.
    consumed: Option<Vec<(usize, QueryId, ObjectId)>>,
}

impl Protection {
    /// The plane, or `None` when no knob is set (priorities act only
    /// through admission). `seed` roots the per-client `"retry/{c}"`
    /// backoff streams; `log_consumed` keeps the consumption log.
    pub(crate) fn new(
        knobs: Vec<ClientProtection>,
        admission: Option<AdmissionPolicy>,
        seed: u64,
        log_consumed: bool,
    ) -> Option<Self> {
        let any_hedge = knobs.iter().any(|k| k.hedge.is_some());
        let any_knob = any_hedge
            || knobs
                .iter()
                .any(|k| k.deadline.is_some() || k.retry.enabled());
        if !any_knob && admission.is_none() {
            return None;
        }
        let n = knobs.len();
        Some(Protection {
            knobs,
            admission,
            summary: ProtectionSummary::sized(n),
            retry_rng: (0..n)
                .map(|c| derive_seed(seed, &format!("retry/{c}")))
                .collect(),
            attempts: vec![0; n],
            retries: Vec::new(),
            hedges: Vec::new(),
            hedge_state: vec![HedgeState::default(); n],
            specs: vec![None; n],
            consumed: (any_hedge && log_consumed).then(Vec::new),
        })
    }

    /// Client `c`'s current query is over (completed or cancelled): its
    /// retry budget and hedge ledger start over.
    pub(crate) fn reset(&mut self, c: usize) {
        self.attempts[c] = 0;
        let hs = &mut self.hedge_state[c];
        hs.requested.clear();
        hs.consumed.clear();
        hs.hedged.clear();
    }

    /// Closes the plane into the run's summary (breaker trips read from
    /// the fleet) and consumption log.
    pub(crate) fn finish(
        self,
        fleet: &DeviceFleet<()>,
    ) -> (ProtectionSummary, Vec<(usize, QueryId, ObjectId)>) {
        let mut summary = self.summary;
        summary.breaker_trips = fleet.breaker.as_ref().map_or(0, Breaker::trips);
        (summary, self.consumed.unwrap_or_default())
    }
}

/// The installed plane (the kernel runs its hooks only then).
fn plane(protection: &mut Option<Box<Protection>>) -> &mut Protection {
    protection
        .as_deref_mut()
        .expect("protection hook ran without the plane installed")
}

impl Runtime {
    /// The start gates of `try_start`: true when client `c`'s next
    /// query, released and idle, may start at `now`. Queries whose
    /// deadline already lapsed while queued are abandoned, admission
    /// control sheds or defers the start when a live shard is over its
    /// backlog ceiling, and an admitted query arms its deadline
    /// (keeping its spec for a retry).
    pub(super) fn admit(&mut self, c: usize, now: SimTime) -> bool {
        let p = plane(&mut self.protection);
        let knobs = p.knobs[c];
        loop {
            if !self.clients[c].can_start(now) {
                return false;
            }
            // Lazy deadline check: an open-arrival query that queued
            // past its whole deadline is a miss before it starts.
            if let Some(d) = knobs.deadline {
                let expired = self.clients[c]
                    .plan
                    .front()
                    .and_then(|q| q.release)
                    .is_some_and(|r| r + d <= now);
                if expired {
                    self.clients[c].plan.pop_front();
                    p.summary.deadline_misses += 1;
                    p.summary.per_tenant[c].deadline_misses += 1;
                    p.attempts[c] = 0;
                    continue;
                }
            }
            if let Some(policy) = p.admission {
                let (depth, bytes) = self.fleet.max_live_load();
                if policy.over_limit(knobs.priority, depth, bytes) {
                    match policy.response {
                        AdmissionResponse::Shed => {
                            self.clients[c].plan.pop_front();
                            p.summary.sheds += 1;
                            p.summary.per_tenant[c].shed += 1;
                            p.attempts[c] = 0;
                            continue;
                        }
                        AdmissionResponse::Backpressure(delay) => {
                            let at = now + delay;
                            self.clients[c]
                                .plan
                                .front_mut()
                                .expect("can_start saw a front query")
                                .release = Some(at);
                            self.events.schedule(at, Event::Release(c));
                            p.summary.backpressure_deferrals += 1;
                            return false;
                        }
                    }
                }
            }
            break;
        }
        if let Some(d) = knobs.deadline {
            // The deadline anchors at release (queue wait counts), like
            // the SLO attainment report.
            let client = &self.clients[c];
            let front = client.plan.front().expect("can_start saw a front query");
            let event = Event::Protect(ProtectEvent::Deadline(c, client.qseq));
            self.events
                .schedule(front.release.unwrap_or(now) + d, event);
            if knobs.retry.enabled() {
                p.specs[c] = Some(front.spec.clone());
            }
        }
        true
    }

    /// The delivery hook of `route_delivery`: true when client `c`
    /// consumes `object`. For hedged tenants a duplicate copy of an
    /// already-consumed object is a loser and is discarded
    /// (at-most-once consumption; the winner's cancel may have raced
    /// the loser's dispatch), and a first consumption cancels the
    /// loser's still-queued copy.
    pub(super) fn consume(
        &mut self,
        shard: usize,
        c: usize,
        query: QueryId,
        object: ObjectId,
    ) -> bool {
        let p = plane(&mut self.protection);
        if p.knobs[c].hedge.is_some() {
            let hs = &mut p.hedge_state[c];
            if hs.consumed.contains(&object) {
                p.summary.hedge_losers_discarded += 1;
                return false; // the other replica already won this object
            }
            hs.consumed.push(object);
            if let Some(&(_, target)) = hs.hedged.iter().find(|&&(o, _)| o == object) {
                if target == shard {
                    p.summary.hedge_wins += 1;
                }
                // The winner's copy left its queue at dispatch, so a
                // fleet-wide scan only finds the loser.
                p.summary.hedge_losers_cancelled += self.fleet.cancel_object(query, object) as u64;
            }
        }
        if let Some(log) = &mut p.consumed {
            log.push((c, query, object));
        }
        true
    }

    /// The submit hook: records a hedge check for hedge-enabled tenants
    /// under replication, routes through the fleet, and converts any
    /// unroutable requests (retry tenants with no live replica) into
    /// scheduled re-submissions.
    pub(super) fn protected_submit(
        &mut self,
        now: SimTime,
        c: usize,
        qid: QueryId,
        objects: &[ObjectId],
    ) {
        let p = plane(&mut self.protection);
        if !objects.is_empty() && self.fleet.replicated() {
            if let Some(delay) = p.knobs[c].hedge {
                let hs = &mut p.hedge_state[c];
                let start = hs.requested.len();
                hs.requested.extend_from_slice(objects);
                let idx = p.hedges.len();
                let end = start + objects.len();
                p.hedges.push((c, self.clients[c].qseq, start, end));
                let event = Event::Protect(ProtectEvent::Hedge(idx));
                self.events.schedule(now + delay, event);
            }
        }
        self.fleet.submit(now, c, qid, objects);
        self.drain_unroutable(now, 1);
    }

    /// Converts the fleet's pending unroutable requests into scheduled
    /// retries at backoff instant `attempt` (a crash may also have
    /// displaced a retry tenant's requests with no live replica left).
    pub(super) fn drain_unroutable(&mut self, now: SimTime, attempt: u32) {
        for (client, query, object) in self.fleet.take_unroutable() {
            self.schedule_retry(now, client, query, object, attempt);
        }
    }

    /// Schedules re-submission attempt `attempt` for one unroutable
    /// object, or — when the backoff budget is exhausted — cancels the
    /// whole query so the run still drains.
    fn schedule_retry(
        &mut self,
        now: SimTime,
        client: usize,
        query: QueryId,
        object: ObjectId,
        attempt: u32,
    ) {
        if self.clients[client].engine.is_none() || self.clients[client].qseq != query.seq {
            return; // the owning query was cancelled meanwhile
        }
        let p = plane(&mut self.protection);
        match p.knobs[client]
            .retry
            .delay(attempt, &mut p.retry_rng[client])
        {
            Some(delay) => {
                p.summary.retries += 1;
                let idx = p.retries.len();
                p.retries.push((client, query, object, attempt));
                let event = Event::Protect(ProtectEvent::Retry(idx));
                self.events.schedule(now + delay, event);
            }
            None => {
                // Out of attempts: the query can never receive this
                // object, so cancel it (no timeout charged — the shard
                // is down, not slow).
                p.summary.retry_exhausted += 1;
                self.cancel_current(client, now, false);
                if !self.clients[client].busy {
                    self.try_start(client, now);
                }
            }
        }
    }

    /// Dispatches one of the plane's own calendar events.
    pub(super) fn protect_fired(&mut self, event: ProtectEvent, now: SimTime) {
        match event {
            ProtectEvent::Deadline(c, qseq) => self.deadline_fired(c, qseq, now),
            ProtectEvent::Hedge(i) => self.hedge_fired(i, now),
            ProtectEvent::Retry(i) => self.retry_fired(i, now),
        }
    }

    /// A scheduled retry instant arrived: re-submit the object if its
    /// query is still in flight; if the fleet still has no live replica
    /// the request comes straight back and re-schedules at the next
    /// backoff step.
    fn retry_fired(&mut self, i: usize, now: SimTime) {
        let (client, query, object, attempt) = plane(&mut self.protection).retries[i];
        if self.clients[client].engine.is_none() || self.clients[client].qseq != query.seq {
            return; // cancelled or finished while the retry waited
        }
        self.last_activity = now;
        self.fleet.submit(now, client, query, &[object]);
        self.drain_unroutable(now, attempt + 1);
        self.poke_fleet(now);
    }

    /// A hedge delay elapsed: re-issue every still-undelivered object
    /// of the covered batch to the next live replica.
    fn hedge_fired(&mut self, i: usize, now: SimTime) {
        let p = plane(&mut self.protection);
        let (client, qseq, start, end) = p.hedges[i];
        if self.clients[client].engine.is_none() || self.clients[client].qseq != qseq {
            return; // the covered query already finished or cancelled
        }
        self.last_activity = now;
        let qid = QueryId::new(client as u16, qseq);
        let hs = &mut p.hedge_state[client];
        let mut fired = false;
        for idx in start..end {
            let object = hs.requested[idx];
            if hs.consumed.contains(&object) || hs.hedged.iter().any(|&(o, _)| o == object) {
                continue;
            }
            let Some(target) = self.fleet.hedge_target(object) else {
                continue; // no second live replica to hedge to
            };
            self.fleet.submit_to(target, now, client, qid, object);
            hs.hedged.push((object, target));
            p.summary.hedges_fired += 1;
            fired = true;
        }
        if fired {
            self.poke_fleet(now);
        }
    }

    /// A deadline fired: if the query is still in flight, cancel it
    /// everywhere (client, queues, ledgers), count the miss, and — for
    /// retry tenants — re-plan it at the next backoff instant.
    fn deadline_fired(&mut self, c: usize, qseq: u32, now: SimTime) {
        let live = self.clients[c].engine.is_some() && self.clients[c].qseq == qseq;
        if !live {
            return; // the query beat its deadline
        }
        self.last_activity = now;
        let p = plane(&mut self.protection);
        p.summary.deadline_misses += 1;
        p.summary.per_tenant[c].deadline_misses += 1;
        let attempt = p.attempts[c] + 1;
        let retry = p.knobs[c].retry;
        let delay = retry.delay(attempt, &mut p.retry_rng[c]);
        // The timeout is charged to the shards that still held queued
        // work for the query — that is what trips a slow shard's
        // breaker.
        self.cancel_current(c, now, true);
        let p = plane(&mut self.protection);
        match delay {
            Some(delay) => {
                p.attempts[c] = attempt;
                p.summary.retries += 1;
                let spec = p.specs[c]
                    .take()
                    .expect("deadline+retry client keeps its running spec");
                let at = now + delay;
                self.clients[c].plan.push_front(PlannedQuery {
                    spec,
                    release: Some(at),
                });
                self.events.schedule(at, Event::Release(c));
            }
            None if retry.enabled() => p.summary.retry_exhausted += 1,
            None => {}
        }
        if !self.clients[c].busy {
            self.try_start(c, now);
        }
        self.poke_fleet(now);
    }

    /// Cancels client `c`'s current query end-to-end: fleet queues
    /// (optionally charging the breaker's timeout counter), the client
    /// state machine, and the plane's per-query state.
    fn cancel_current(&mut self, c: usize, now: SimTime, charge_timeout: bool) {
        let qid = QueryId::new(c as u16, self.clients[c].qseq);
        self.fleet.cancel_query(qid, now, charge_timeout);
        self.clients[c].cancel();
        plane(&mut self.protection).reset(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_delays_double_cap_and_jitter() {
        let policy = RetryPolicy::Backoff {
            base: SimDuration::from_secs(1),
            cap: SimDuration::from_secs(4),
            max_attempts: 5,
        };
        let mut state = derive_seed(42, "retry/0");
        for attempt in 1..=5u32 {
            let d = policy.delay(attempt, &mut state).unwrap().as_micros();
            let unjittered = (1u64 << (attempt - 1)).min(4) * 1_000_000;
            assert!(
                d >= unjittered / 2 && d < unjittered,
                "attempt {attempt}: {d} outside [{}, {})",
                unjittered / 2,
                unjittered
            );
        }
        assert_eq!(policy.delay(6, &mut state), None);
        assert_eq!(RetryPolicy::None.delay(1, &mut state), None);
    }

    #[test]
    fn backoff_stream_is_reproducible() {
        let policy = RetryPolicy::Backoff {
            base: SimDuration::from_millis(100),
            cap: SimDuration::from_secs(10),
            max_attempts: 8,
        };
        let mut a = derive_seed(7, "retry/3");
        let mut b = derive_seed(7, "retry/3");
        for attempt in 1..=8 {
            assert_eq!(policy.delay(attempt, &mut a), policy.delay(attempt, &mut b));
        }
    }

    #[test]
    fn admission_limits_scale_with_priority() {
        let policy = AdmissionPolicy {
            max_queue_depth: 10,
            max_queued_bytes: 1000,
            response: AdmissionResponse::Shed,
            breaker: None,
        };
        assert!(policy.over_limit(0, 10, 0));
        assert!(!policy.over_limit(0, 9, 999));
        assert!(policy.over_limit(0, 0, 1000));
        // Priority 1 gets double the headroom.
        assert!(!policy.over_limit(1, 10, 1000));
        assert!(policy.over_limit(1, 20, 0));
    }

    #[test]
    fn disabled_protection_is_quiet() {
        let knobs = vec![ClientProtection::default(); 3];
        assert!(Protection::new(knobs, None, 42, true).is_none());
        assert!(ProtectionSummary::default().is_quiet());
        let s = ProtectionSummary {
            sheds: 1,
            ..ProtectionSummary::default()
        };
        assert!(!s.is_quiet());
    }
}
