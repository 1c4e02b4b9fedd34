//! Stacked replay: one mirror of the runtime's event loop, run at three
//! depths of the device stack.
//!
//! The planes-off synthetic workloads can be reproduced from outside
//! the runtime: the mirror below keeps a [`CalendarQueue`] and client
//! state machines that follow `driver.rs`'s order exactly — deliver →
//! process → ready → submit → poke — and talks to the device stack
//! only through a [`Level`]:
//!
//! * [`FleetLevel`]: `DeviceFleet::{submit, poke_all, on_wakeup_into}`;
//! * [`PumpLevel`]: `DevicePump::{submit, poke, on_wakeup_into}` behind
//!   the static shard map;
//! * [`DeviceLevel`]: `CsdDevice::{submit, kick, complete_into}` with
//!   the pump's armed-wake-up protocol restated here.
//!
//! The same mirror costs the same at every level, so the wall-clock
//! *differences* between levels are the self times of the layers
//! between them. The fleet-level replay must reproduce the real run's
//! makespan, switch count and delivery count — the proof that the
//! spans describe the same work.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use skipper_core::engine::QueryEngine;
use skipper_core::runtime::pump::DevicePump;
use skipper_core::runtime::{DeviceFleet, EngineFactory, Workload};
use skipper_core::CostModel;
use skipper_csd::sched::{Decision, QueueView};
use skipper_csd::{
    CsdConfig, CsdDevice, Delivery, GroupId, GroupScheduler, InFlight, IntraGroupOrder, Layout,
    LayoutPolicy, ObjectId, ObjectStore, QueryId, SchedPolicy, ServeScope,
};
use skipper_datagen::Dataset;
use skipper_relational::query::QuerySpec;
use skipper_relational::segment::Segment;
use skipper_sim::{CalendarQueue, SimTime};

use crate::engines::working_set;
use crate::workloads::FleetSpec;

type Device = CsdDevice<Arc<Segment>>;
type Batch = Vec<Delivery<Arc<Segment>>>;

/// Marks a `pop` in the calendar log (no event is scheduled at
/// `u64::MAX` µs).
pub const CALENDAR_POP: u64 = u64::MAX;

/// One client of the mirror: the fields of the runtime's client state
/// machine that the planes-off path touches.
struct Client {
    dataset: Arc<Dataset>,
    factory: Arc<dyn EngineFactory>,
    plan: VecDeque<(QuerySpec, Option<SimTime>)>,
    engine: Option<Box<dyn QueryEngine>>,
    qseq: u32,
    inbox: VecDeque<(ObjectId, Arc<Segment>)>,
    busy: bool,
    pending_after: Option<(Vec<ObjectId>, bool)>,
    release: Option<SimTime>,
    start: SimTime,
    blocked_from: Option<SimTime>,
    blocked: Vec<(SimTime, SimTime)>,
}

/// Devices, shard map and client plans built the way `Scenario::run`
/// builds them, through the same public calls.
pub struct Assembly {
    devices: Vec<Device>,
    /// Replica lists per object, preferred shard first.
    replicas_of: HashMap<ObjectId, Vec<usize>>,
    clients: Vec<Client>,
}

/// Aggregate cost of a scheduler, written when its device is dropped.
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedCost {
    /// `decide` calls.
    pub decisions: u64,
    /// Nanoseconds inside `decide`.
    pub decide_ns: u64,
    /// `on_switch_complete` calls.
    pub switch_completes: u64,
    /// Nanoseconds inside `on_switch_complete`.
    pub switch_complete_ns: u64,
}

/// Decorates a scheduler behind the public [`GroupScheduler`] trait and
/// times its two hot entry points.
struct TimedScheduler {
    inner: Box<dyn GroupScheduler>,
    cost: SchedCost,
    sink: Arc<Mutex<SchedCost>>,
}

impl GroupScheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(
        &mut self,
        queue: &dyn QueueView,
        active: Option<GroupId>,
        pipe: InFlight,
    ) -> Decision {
        let begin = Instant::now();
        let decision = self.inner.decide(queue, active, pipe);
        self.cost.decide_ns += begin.elapsed().as_nanos() as u64;
        self.cost.decisions += 1;
        decision
    }

    fn serve_scope(&self) -> ServeScope {
        self.inner.serve_scope()
    }

    fn on_switch_complete(&mut self, queue: &dyn QueueView, loaded: GroupId) {
        let begin = Instant::now();
        self.inner.on_switch_complete(queue, loaded);
        self.cost.switch_complete_ns += begin.elapsed().as_nanos() as u64;
        self.cost.switch_completes += 1;
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        // A poisoned sink only means another device's drop panicked;
        // this device's totals are still worth adding.
        let mut total = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        total.decisions += self.cost.decisions;
        total.decide_ns += self.cost.decide_ns;
        total.switch_completes += self.cost.switch_completes;
        total.switch_complete_ns += self.cost.switch_complete_ns;
    }
}

/// Builds the devices and client plans for `tenants` on `spec`. With
/// `sched_cost` set, every shard's scheduler is wrapped in a timing
/// decorator that adds into it.
pub fn assemble(
    tenants: Vec<Workload>,
    spec: &FleetSpec,
    sched_cost: Option<&Arc<Mutex<SchedCost>>>,
) -> Assembly {
    let tenant_objects: Vec<Vec<ObjectId>> = tenants
        .iter()
        .enumerate()
        .map(|(tenant, w)| working_set(tenant as u16, &w.dataset))
        .collect();
    let replicas_of = spec.placement.assign_replicas(&tenant_objects, spec.shards);
    let policy = spec.sched.unwrap_or(SchedPolicy::RankBased);
    let (trace_mode, ledger_mode, _) = spec.observe.modes();
    let devices = (0..spec.shards)
        .map(|shard| {
            let shard_tenant_objects: Vec<Vec<ObjectId>> = tenant_objects
                .iter()
                .map(|objs| {
                    objs.iter()
                        .filter(|o| replicas_of[o].contains(&shard))
                        .copied()
                        .collect()
                })
                .collect();
            let layout = Layout::build(LayoutPolicy::OneClientPerGroup, &shard_tenant_objects);
            let mut store: ObjectStore<Arc<Segment>> = ObjectStore::new();
            for (tenant, w) in tenants.iter().enumerate() {
                for &id in &shard_tenant_objects[tenant] {
                    let table = id.table as usize;
                    store.put_with_layout(
                        id,
                        w.dataset.catalog.table(table).logical_bytes_per_segment,
                        &layout,
                        Arc::clone(&w.dataset.segments[table][id.segment as usize]),
                    );
                }
            }
            let scheduler = policy.build();
            let scheduler: Box<dyn GroupScheduler> = match sched_cost {
                Some(sink) => Box::new(TimedScheduler {
                    inner: scheduler,
                    cost: SchedCost::default(),
                    sink: Arc::clone(sink),
                }),
                None => scheduler,
            };
            CsdDevice::new(
                CsdConfig {
                    parallel_streams: spec.streams,
                    trace_mode,
                    ledger_mode,
                    ..CsdConfig::default()
                },
                store,
                scheduler,
                IntraGroupOrder::SemanticRoundRobin,
            )
        })
        .collect();
    let clients = tenants
        .into_iter()
        .enumerate()
        .map(|(tenant, w)| {
            let releases = w.release_times(tenant);
            Client {
                dataset: w.dataset,
                factory: w.engine,
                plan: w.queries.into_iter().zip(releases).collect(),
                engine: None,
                qseq: 0,
                inbox: VecDeque::new(),
                busy: false,
                pending_after: None,
                release: None,
                start: SimTime::ZERO,
                blocked_from: None,
                blocked: Vec::new(),
            }
        })
        .collect();
    Assembly {
        devices,
        replicas_of,
        clients,
    }
}

/// How deep into the device stack the mirror reaches.
pub trait Level {
    /// Queues `objects` for `client`'s `query`.
    fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]);
    /// Arms wake-ups; `armed(shard, at)` is called for each new one.
    fn poke_all(&mut self, now: SimTime, armed: impl FnMut(usize, SimTime));
    /// Handles `shard`'s wake-up, appending retired transfers to `out`.
    fn on_wakeup_into(&mut self, shard: usize, now: SimTime, out: &mut Batch);
    /// The devices underneath, for their end-of-run counters.
    fn devices(&self) -> Vec<&Device>;
}

/// The whole fleet, as the runtime drives it.
pub struct FleetLevel(DeviceFleet);

impl Level for FleetLevel {
    fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        self.0.submit(now, client, query, objects);
    }

    fn poke_all(&mut self, now: SimTime, armed: impl FnMut(usize, SimTime)) {
        self.0.poke_all(now, armed);
    }

    fn on_wakeup_into(&mut self, shard: usize, now: SimTime, out: &mut Batch) {
        self.0.on_wakeup_into(shard, now, out);
    }

    fn devices(&self) -> Vec<&Device> {
        self.0.pumps().iter().map(DevicePump::device).collect()
    }
}

/// The fleet's fan-out restated: the static object → shard map plus
/// pooled per-shard batches, shared by the two lower levels.
struct Router {
    shard_of: HashMap<ObjectId, usize>,
    fanout: Vec<Vec<ObjectId>>,
}

impl Router {
    fn new(shard_of: HashMap<ObjectId, usize>, shards: usize) -> Router {
        Router {
            shard_of,
            fanout: vec![Vec::new(); shards],
        }
    }

    /// Splits `objects` by shard, then hands each non-empty batch to
    /// `deliver` in shard order.
    fn fan_out(&mut self, objects: &[ObjectId], mut deliver: impl FnMut(usize, &[ObjectId])) {
        for &object in objects {
            self.fanout[self.shard_of[&object]].push(object);
        }
        for (shard, batch) in self.fanout.iter_mut().enumerate() {
            if !batch.is_empty() {
                deliver(shard, batch);
                batch.clear();
            }
        }
    }
}

/// The pumps without the fleet around them.
pub struct PumpLevel {
    pumps: Vec<DevicePump>,
    router: Router,
}

impl Level for PumpLevel {
    fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        let pumps = &mut self.pumps;
        self.router.fan_out(objects, |shard, batch| {
            pumps[shard].submit(now, client, query, batch)
        });
    }

    fn poke_all(&mut self, now: SimTime, mut armed: impl FnMut(usize, SimTime)) {
        for (shard, pump) in self.pumps.iter_mut().enumerate() {
            if let Some(at) = pump.poke(now) {
                armed(shard, at);
            }
        }
    }

    fn on_wakeup_into(&mut self, shard: usize, now: SimTime, out: &mut Batch) {
        self.pumps[shard].on_wakeup_into(now, out);
    }

    fn devices(&self) -> Vec<&Device> {
        self.pumps.iter().map(DevicePump::device).collect()
    }
}

/// The bare devices, with the pump's wake-up protocol (one armed
/// instant per shard, re-kick only after a mutation, stale wake-ups
/// ignored) restated around them.
pub struct DeviceLevel {
    devices: Vec<Device>,
    router: Router,
    armed_at: Vec<Option<SimTime>>,
    dirty: Vec<bool>,
    /// Deepest pending queue seen right after a submit.
    pub peak_depth: usize,
}

impl Level for DeviceLevel {
    fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        let (devices, dirty, peak) = (&mut self.devices, &mut self.dirty, &mut self.peak_depth);
        self.router.fan_out(objects, |shard, batch| {
            dirty[shard] = true;
            devices[shard].submit(now, client, query, batch);
            *peak = (*peak).max(devices[shard].pending_len());
        });
    }

    fn poke_all(&mut self, now: SimTime, mut armed: impl FnMut(usize, SimTime)) {
        for (shard, device) in self.devices.iter_mut().enumerate() {
            if !std::mem::take(&mut self.dirty[shard]) {
                continue;
            }
            let next = device.kick(now);
            if let Some(at) = next.filter(|_| next != self.armed_at[shard]) {
                armed(shard, at);
            }
            self.armed_at[shard] = next;
        }
    }

    fn on_wakeup_into(&mut self, shard: usize, now: SimTime, out: &mut Batch) {
        if self.armed_at[shard] != Some(now) {
            return; // superseded by a re-arm at an earlier instant
        }
        self.armed_at[shard] = None;
        self.dirty[shard] = true;
        self.devices[shard].complete_into(now, out);
    }

    fn devices(&self) -> Vec<&Device> {
        self.devices.iter().collect()
    }
}

impl Assembly {
    /// The primary-replica map the two lower levels route by.
    ///
    /// # Panics
    /// Panics on a replicated placement: failover routing lives in the
    /// fleet, so only the fleet level can carry replicas.
    fn shard_of(&self) -> HashMap<ObjectId, usize> {
        assert!(
            self.replicas_of.values().all(|r| r.len() == 1),
            "pump- and device-level replay cover single-replica placements only"
        );
        self.replicas_of.iter().map(|(&o, r)| (o, r[0])).collect()
    }

    /// Wraps the devices in a [`DeviceFleet`], as `Scenario::run` does.
    pub fn into_fleet(self) -> (FleetLevel, Clients) {
        let fleet = if self.replicas_of.values().all(|r| r.len() == 1) {
            let shard_of = self.shard_of();
            DeviceFleet::new(self.devices, shard_of)
        } else {
            DeviceFleet::with_replicas(self.devices, self.replicas_of)
        };
        (FleetLevel(fleet), Clients(self.clients))
    }

    /// Wraps the devices in bare pumps.
    pub fn into_pumps(self) -> (PumpLevel, Clients) {
        let (shards, shard_of) = (self.devices.len(), self.shard_of());
        (
            PumpLevel {
                pumps: self.devices.into_iter().map(DevicePump::new).collect(),
                router: Router::new(shard_of, shards),
            },
            Clients(self.clients),
        )
    }

    /// Keeps the devices bare.
    pub fn into_devices(self) -> (DeviceLevel, Clients) {
        let (shards, shard_of) = (self.devices.len(), self.shard_of());
        (
            DeviceLevel {
                devices: self.devices,
                router: Router::new(shard_of, shards),
                armed_at: vec![None; shards],
                dirty: vec![true; shards],
                peak_depth: 0,
            },
            Clients(self.clients),
        )
    }
}

/// The assembled client plans (opaque outside this module).
pub struct Clients(Vec<Client>);

/// What one replay produced.
pub struct Outcome {
    /// Host seconds inside the mirror loop (assembly excluded).
    pub wall_s: f64,
    /// Instant of the last event.
    pub makespan: SimTime,
    /// GETs the mirror submitted.
    pub requests: u64,
    /// Transfers the devices completed.
    pub delivered: u64,
    /// Paid group switches.
    pub switches: u64,
    /// Response time of every finished query, in completion order.
    pub responses: Vec<f64>,
    /// Every blocked interval of every query (kept only on request).
    pub blocked: Vec<(SimTime, SimTime)>,
    /// Calendar operations in order: a scheduled instant in µs, or
    /// [`CALENDAR_POP`] (empty unless asked for).
    pub calendar_log: Vec<u64>,
}

#[derive(Clone, Copy)]
enum Event {
    Device(usize),
    ClientReady(usize),
    Release(usize),
}

struct Mirror<L: Level> {
    level: L,
    clients: Vec<Client>,
    events: CalendarQueue<Event>,
    /// Calendar operations, recorded only when asked for: the log grows
    /// by tens of megabytes, which a timed replay must not pay for.
    log: Option<Vec<u64>>,
    cost: CostModel,
    requests: u64,
    responses: Vec<f64>,
    keep_blocked: bool,
    blocked: Vec<(SimTime, SimTime)>,
}

impl<L: Level> Mirror<L> {
    fn schedule(&mut self, at: SimTime, event: Event) {
        if let Some(log) = &mut self.log {
            log.push(at.as_micros());
        }
        self.events.schedule(at, event);
    }

    fn poke(&mut self, now: SimTime) {
        let (events, log) = (&mut self.events, &mut self.log);
        self.level.poke_all(now, |shard, at| {
            if let Some(log) = log {
                log.push(at.as_micros());
            }
            events.schedule(at, Event::Device(shard));
        });
    }

    fn try_start(&mut self, c: usize, now: SimTime) {
        let client = &mut self.clients[c];
        let released = client
            .plan
            .front()
            .is_some_and(|(_, release)| release.is_none_or(|at| at <= now));
        if client.engine.is_some() || !released {
            return;
        }
        let (spec, release) = client.plan.pop_front().expect("front checked");
        let mut engine = client
            .factory
            .build(c as u16, &client.dataset, spec, self.cost);
        let requests = engine.start();
        client.engine = Some(engine);
        client.release = release;
        client.start = now;
        client.blocked_from = Some(now);
        let query = QueryId::new(c as u16, client.qseq);
        self.requests += requests.len() as u64;
        self.level.submit(now, c, query, &requests);
    }

    fn route_delivery(&mut self, now: SimTime, d: Delivery<Arc<Segment>>) {
        let client = &mut self.clients[d.client];
        let current = client
            .engine
            .as_ref()
            .is_some_and(|e| !e.is_finished() && d.query.seq == client.qseq);
        if !current {
            return;
        }
        client.inbox.push_back((d.object, d.payload));
        self.try_process(d.client, now);
    }

    fn try_process(&mut self, c: usize, now: SimTime) {
        let client = &mut self.clients[c];
        if client.busy || client.engine.is_none() {
            return;
        }
        let Some((object, payload)) = client.inbox.pop_front() else {
            return;
        };
        if let Some(from) = client.blocked_from.take() {
            if now > from {
                client.blocked.push((from, now));
            }
        }
        let reaction = client
            .engine
            .as_mut()
            .expect("engine present")
            .on_object(object, &payload);
        client.busy = true;
        client.pending_after = Some((reaction.requests, reaction.finished));
        self.schedule(now + reaction.processing, Event::ClientReady(c));
    }

    fn client_ready(&mut self, c: usize, now: SimTime) {
        let client = &mut self.clients[c];
        let (requests, finished) = client
            .pending_after
            .take()
            .expect("client_ready without reaction");
        client.busy = false;
        let submitted = !requests.is_empty();
        if submitted {
            let query = QueryId::new(c as u16, client.qseq);
            self.requests += requests.len() as u64;
            self.level.submit(now, c, query, &requests);
        }
        if finished {
            let client = &mut self.clients[c];
            client.engine = None;
            client.inbox.clear();
            client.qseq += 1;
            let response = now.since(client.release.unwrap_or(client.start));
            self.responses.push(response.as_secs_f64());
            if self.keep_blocked {
                self.blocked.append(&mut client.blocked);
            } else {
                client.blocked.clear();
            }
            self.try_start(c, now);
        }
        if submitted || finished {
            self.poke(now);
        }
        if !finished {
            let client = &mut self.clients[c];
            if client.inbox.is_empty() {
                client.blocked_from = Some(now);
            }
            self.try_process(c, now);
        }
    }
}

/// What a replay keeps beyond its counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Keep {
    /// Every blocked interval, for the stall-attribution probe (the
    /// runtime records them either way; only Full-record runs keep
    /// them).
    pub blocked: bool,
    /// The calendar operation log, for the calendar probe.
    pub calendar_log: bool,
}

/// Runs the mirror loop to completion over `level`; the level comes
/// back for whatever only it knows (the device level's peak depth).
pub fn replay<L: Level>(level: L, clients: Clients, keep: Keep) -> (Outcome, L) {
    let mut mirror = Mirror {
        level,
        clients: clients.0,
        events: CalendarQueue::new(),
        log: keep.calendar_log.then(Vec::new),
        cost: CostModel::paper_calibrated(),
        requests: 0,
        responses: Vec::new(),
        keep_blocked: keep.blocked,
        blocked: Vec::new(),
    };
    let begin = Instant::now();
    let mut scratch: Batch = Vec::new();
    let mut makespan = SimTime::ZERO;
    for c in 0..mirror.clients.len() {
        let releases: Vec<SimTime> = mirror.clients[c]
            .plan
            .iter()
            .filter_map(|(_, release)| *release)
            .collect();
        for at in releases {
            mirror.schedule(at, Event::Release(c));
        }
    }
    for c in 0..mirror.clients.len() {
        mirror.try_start(c, SimTime::ZERO);
    }
    mirror.poke(SimTime::ZERO);
    loop {
        if let Some(log) = &mut mirror.log {
            log.push(CALENDAR_POP);
        }
        let Some((t, event)) = mirror.events.pop() else {
            break;
        };
        makespan = t;
        match event {
            Event::Device(shard) => {
                scratch.clear();
                mirror.level.on_wakeup_into(shard, t, &mut scratch);
                for d in scratch.drain(..) {
                    mirror.route_delivery(t, d);
                }
                mirror.poke(t);
            }
            Event::ClientReady(c) => mirror.client_ready(c, t),
            Event::Release(c) => {
                mirror.try_start(c, t);
                mirror.poke(t);
            }
        }
    }
    let wall_s = begin.elapsed().as_secs_f64();
    for (c, client) in mirror.clients.iter().enumerate() {
        assert!(
            client.plan.is_empty() && client.engine.is_none(),
            "replay client {c} did not finish its workload"
        );
    }
    let devices = mirror.level.devices();
    let outcome = Outcome {
        wall_s,
        makespan,
        requests: mirror.requests,
        delivered: devices.iter().map(|d| d.metrics().objects_served).sum(),
        switches: devices.iter().map(|d| d.metrics().group_switches).sum(),
        responses: mirror.responses,
        blocked: mirror.blocked,
        calendar_log: mirror.log.unwrap_or_default(),
    };
    (outcome, mirror.level)
}

/// Re-drives a logged calendar sequence through a fresh
/// [`CalendarQueue`] alone; returns `(operations, host seconds)`.
pub fn calendar_probe(log: &[u64]) -> (u64, f64) {
    let mut queue: CalendarQueue<u32> = CalendarQueue::new();
    let begin = Instant::now();
    let mut popped = 0u64;
    for &op in log {
        if op == CALENDAR_POP {
            if let Some((at, payload)) = queue.pop() {
                popped += std::hint::black_box(at.as_micros() & payload as u64) & 1;
            }
        } else {
            queue.schedule(SimTime::from_micros(op), 0);
        }
    }
    std::hint::black_box(popped);
    (log.len() as u64, begin.elapsed().as_secs_f64())
}
