//! The device fleet: N pumps over N independently configured CSDs.
//!
//! One cold storage device tops out at a rack; the production path is a
//! *fleet* of CSD shards behind a single scenario. [`DeviceFleet`] owns
//! one [`DevicePump`] per shard plus the object → shard map fixed at
//! layout time by a
//! [`PlacementPolicy`](skipper_csd::PlacementPolicy): `submit` fans a
//! GET batch out to the owning shards (preserving relative order within
//! each shard), and each shard keeps its own wake-up protocol, so the
//! event loop interleaves devices deterministically — shard index breaks
//! every tie.
//!
//! A 1-shard fleet is byte-for-byte the old single-device runtime: the
//! whole batch goes to pump 0 in submission order and the event
//! schedule is unchanged.
//!
//! ## Replication and failover
//!
//! Under `PlacementPolicy::Replicated { k, .. }` every object carries a
//! replica list (preferred shard first; see
//! [`DeviceFleet::with_replicas`]) and each request routes to the
//! *first live replica*. With every replica down — or on a k = 1 fleet
//! whose only shard is down — the request parks at the fleet and is
//! re-submitted, in arrival order, when a replica recovers. A crash
//! ([`DeviceFleet::fail_shard`]) evacuates the dead shard's queue and
//! aborts its in-flight transfers; every displaced request re-routes
//! through the same first-live-replica rule immediately, so the
//! delivery multiset is conserved through every failover path: aborted
//! transfers log nothing, and each query object is served exactly once
//! by whichever replica completes it. Re-routed and un-parked requests
//! re-enter the destination queue at the tail with a fresh arrival
//! stamp — failover is a requeue, not a splice.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use skipper_csd::sched::PendingRequest;
use skipper_csd::{CsdDevice, Delivery, FastBuild, ObjectId, QueryId};
use skipper_relational::segment::Segment;
use skipper_sim::{SimDuration, SimTime};

use super::collector::ShardFaultStats;
use super::protect::Breaker;
use super::pump::DevicePump;

/// N device pumps + the object → shard map.
///
/// Generic over the payload `P` its devices deliver, like
/// [`DevicePump`]: the runtime's fleet is `DeviceFleet<()>`.
pub struct DeviceFleet<P = Arc<Segment>> {
    pumps: Vec<DevicePump<P>>,
    /// Preferred (primary) shard per object — the k = 1 routing map,
    /// probed once per GET.
    shard_of: HashMap<ObjectId, usize, FastBuild>,
    /// Full replica lists (preferred first) when the placement
    /// replicates; empty for single-replica fleets, which route
    /// through `shard_of` alone.
    replicas_of: HashMap<ObjectId, Vec<usize>, FastBuild>,
    /// Reusable per-shard fan-out buffers for `submit` — pooled so a
    /// multi-shard batch costs no allocation once warm, matching the
    /// 1-shard path (the 8-shard allocs/event regression fix).
    fanout: Vec<Vec<ObjectId>>,
    /// Fault plane: per-shard down flags (`true` between `fail_shard`
    /// and `recover_shard`).
    down: Vec<bool>,
    /// Crash instant of each currently-down shard (downtime accrual).
    down_since: Vec<Option<SimTime>>,
    /// Per-shard fault counters for the run result.
    stats: Vec<ShardFaultStats>,
    /// Requests with no live replica, awaiting a recovery, in arrival
    /// order: `(client, query, object)`.
    parked: VecDeque<(usize, QueryId, ObjectId)>,
    /// Requests ever parked (availability summary).
    parked_total: u64,
    /// Reusable evacuation scratch for `fail_shard`.
    displaced: Vec<PendingRequest>,
    /// Protection plane: clients whose no-live-replica requests are
    /// handed back to the driver for backoff retries instead of parking
    /// (installed at assembly, empty unless a retry policy is configured
    /// — the parked path stays byte-identical).
    pub(super) retry_clients: Vec<bool>,
    /// Requests from retry-enabled clients that found no live replica,
    /// awaiting a driver-scheduled re-submission.
    unroutable: Vec<(usize, QueryId, ObjectId)>,
    /// Protection plane: the per-shard breaker, installed at assembly;
    /// `None` (the default) leaves routing byte-identical.
    pub(super) breaker: Option<Breaker>,
}

impl<P: Clone> DeviceFleet<P> {
    /// Assembles a fleet from per-shard devices and the placement map
    /// (single-replica: each object lives on exactly one shard).
    ///
    /// # Panics
    /// Panics on an empty fleet or a map entry pointing outside it.
    pub fn new(devices: Vec<CsdDevice<P>>, shard_of: HashMap<ObjectId, usize>) -> Self {
        Self::from_routes(devices, shard_of)
    }

    /// [`DeviceFleet::new`] over any `(object, shard)` listing: the
    /// routing map is built exactly once, straight onto the
    /// simulator's cheap deterministic hasher (it is probed once per
    /// GET), so a caller that never had a `HashMap` need not build one.
    pub(crate) fn from_routes(
        devices: Vec<CsdDevice<P>>,
        shard_of: impl IntoIterator<Item = (ObjectId, usize)>,
    ) -> Self {
        assert!(!devices.is_empty(), "a fleet needs at least one device");
        let shard_of: HashMap<ObjectId, usize, FastBuild> = shard_of.into_iter().collect();
        assert!(
            shard_of.values().all(|&s| s < devices.len()),
            "placement map points outside the fleet"
        );
        let n = devices.len();
        DeviceFleet {
            pumps: devices.into_iter().map(DevicePump::new).collect(),
            shard_of,
            replicas_of: HashMap::default(),
            fanout: vec![Vec::new(); n],
            down: vec![false; n],
            down_since: vec![None; n],
            stats: vec![ShardFaultStats::default(); n],
            parked: VecDeque::new(),
            parked_total: 0,
            displaced: Vec::new(),
            retry_clients: Vec::new(),
            unroutable: Vec::new(),
            breaker: None,
        }
    }

    /// Assembles a replicated fleet: every object carries its full
    /// replica list, preferred shard first (the
    /// `PlacementPolicy::assign_replicas` output). A fault-free run
    /// routes every request to the preferred replica, byte-identical
    /// to the equivalent single-replica fleet.
    ///
    /// # Panics
    /// Panics on an empty fleet, an empty replica list, or a replica
    /// outside the fleet.
    pub fn with_replicas(
        devices: Vec<CsdDevice<P>>,
        replicas_of: HashMap<ObjectId, Vec<usize>>,
    ) -> Self {
        assert!(
            replicas_of
                .values()
                .all(|r| !r.is_empty() && r.iter().all(|&s| s < devices.len())),
            "replica list empty or pointing outside the fleet"
        );
        let primaries = replicas_of.iter().map(|(&o, r)| (o, r[0]));
        let mut fleet = DeviceFleet::from_routes(devices, primaries);
        fleet.replicas_of = replicas_of.into_iter().collect();
        fleet
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.pumps.len()
    }

    /// The preferred shard storing `object` (shard 0 when the fleet
    /// has one device and no explicit map).
    ///
    /// # Panics
    /// Panics for objects never placed on a multi-shard fleet.
    pub fn shard_for(&self, object: ObjectId) -> usize {
        if self.pumps.len() == 1 {
            return 0;
        }
        *self
            .shard_of
            .get(&object)
            .unwrap_or_else(|| panic!("object {object} was never placed on any shard"))
    }

    /// The first live replica for `object`, counting a failover receipt
    /// on the serving shard when it is not the preferred one. With a
    /// breaker installed, replicas whose breaker is open are skipped
    /// when a closed live replica exists (and used anyway when not —
    /// the breaker degrades preference, never availability). `None`
    /// when every replica is down (the caller parks the request).
    fn route(&mut self, now: SimTime, object: ObjectId) -> Option<usize> {
        if !self.replicas_of.is_empty() {
            let replicas = self
                .replicas_of
                .get(&object)
                .unwrap_or_else(|| panic!("object {object} was never placed on any shard"));
            let choice = replicas
                .iter()
                .enumerate()
                .find(|&(_, &s)| {
                    !self.down[s] && !self.breaker.as_ref().is_some_and(|b| b.open(s, now))
                })
                .or_else(|| replicas.iter().enumerate().find(|&(_, &s)| !self.down[s]))
                .map(|(i, &s)| (i, s));
            return match choice {
                Some((ordinal, shard)) => {
                    if ordinal > 0 {
                        self.stats[shard].failover_receipts += 1;
                    }
                    Some(shard)
                }
                None => None,
            };
        }
        let shard = self.shard_for(object);
        (!self.down[shard]).then_some(shard)
    }

    /// Fans GET requests out to the owning shards (first live replica
    /// each; see the module docs). Objects keep their relative order
    /// within each shard's batch; shards are submitted in shard order
    /// for determinism. Requests with no live replica park until a
    /// recovery.
    pub fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        if self.pumps.len() == 1 && !self.down[0] {
            self.pumps[0].submit(now, client, query, objects);
            return;
        }
        for &obj in objects {
            match self.route(now, obj) {
                Some(shard) => self.fanout[shard].push(obj),
                None => self.park_or_defer(client, query, obj),
            }
        }
        for (pump, batch) in self.pumps.iter_mut().zip(self.fanout.iter_mut()) {
            if !batch.is_empty() {
                pump.submit(now, client, query, batch);
                batch.clear();
            }
        }
    }

    /// A request with no live replica either parks (the historical
    /// path) or, for retry-enabled clients, lands in the unroutable
    /// buffer for the driver to schedule a backoff re-submission.
    fn park_or_defer(&mut self, client: usize, query: QueryId, obj: ObjectId) {
        if self.retry_clients.get(client).copied().unwrap_or(false) {
            self.unroutable.push((client, query, obj));
        } else {
            self.parked_total += 1;
            self.parked.push_back((client, query, obj));
        }
    }

    /// Crashes shard `shard` (a fault-plane `ShardDown` start): aborts
    /// its in-flight transfers, evacuates its queue, and re-routes
    /// every displaced request to the first live replica (or parks it).
    /// Transfers that completed but whose wake-up notification was
    /// dropped are flushed into `completed` — the driver routes them
    /// like any retired batch (the data already arrived).
    pub fn fail_shard(&mut self, shard: usize, now: SimTime, completed: &mut Vec<Delivery<P>>) {
        assert!(
            !self.down[shard],
            "shard {shard} crashed while already down"
        );
        self.down[shard] = true;
        self.down_since[shard] = Some(now);
        self.stats[shard].downs += 1;
        let mut displaced = std::mem::take(&mut self.displaced);
        displaced.clear();
        let aborted = self.pumps[shard].fail(now, &mut displaced, completed);
        self.stats[shard].aborted_transfers += aborted as u64;
        self.stats[shard].evacuated_requests += (displaced.len() - aborted) as u64;
        // Re-route in evacuation order: aborted in-flight requests
        // first (slot order), then the queue (arrival order). Each
        // re-submission is a fresh single-object batch — a requeue at
        // the destination's tail.
        for req in displaced.drain(..) {
            match self.route(now, req.object) {
                Some(live) => self.pumps[live].submit(now, req.client, req.query, &[req.object]),
                None => self.park_or_defer(req.client, req.query, req.object),
            }
        }
        self.displaced = displaced;
    }

    /// Recovers shard `shard` (a fault-plane `ShardDown` end): accrues
    /// its downtime, reopens it for routing, and re-submits every
    /// parked request that now has a live replica, in arrival order.
    pub fn recover_shard(&mut self, shard: usize, now: SimTime) {
        assert!(self.down[shard], "shard {shard} recovered while up");
        self.down[shard] = false;
        let since = self.down_since[shard]
            .take()
            .expect("down shard has a crash instant");
        self.stats[shard].downtime_micros += now.since(since).as_micros();
        self.pumps[shard].recover(now);
        for _ in 0..self.parked.len() {
            let (client, query, obj) = self.parked.pop_front().expect("len checked");
            match self.route(now, obj) {
                Some(live) => self.pumps[live].submit(now, client, query, &[obj]),
                None => self.parked.push_back((client, query, obj)),
            }
        }
    }

    /// Scales shard `shard`'s effective per-stream bandwidth (a
    /// fault-plane brown-out; `1.0` restores nominal). With a breaker
    /// installed, a factor below its `brownout_below` threshold opens
    /// the shard's breaker until service is restored.
    pub fn set_bandwidth_factor(&mut self, shard: usize, factor: f64) {
        self.pumps[shard].set_bandwidth_factor(factor);
        if let Some(b) = &mut self.breaker {
            b.set_bandwidth_factor(shard, factor);
        }
    }

    /// Drains the unroutable buffer (preserving order).
    pub(crate) fn take_unroutable(&mut self) -> Vec<(usize, QueryId, ObjectId)> {
        std::mem::take(&mut self.unroutable)
    }

    /// Protection plane: dequeues every still-queued request of `query`
    /// across the fleet — pumps, the parked buffer, and the unroutable
    /// buffer. When `charge_timeout` (a deadline cancel), every shard
    /// that still held queued work for the query is charged a breaker
    /// timeout. Returns the number of requests removed from device
    /// queues.
    pub(crate) fn cancel_query(
        &mut self,
        query: QueryId,
        now: SimTime,
        charge_timeout: bool,
    ) -> usize {
        let mut total = 0;
        for shard in 0..self.pumps.len() {
            let n = self.pumps[shard].cancel_query(query);
            if n > 0 && charge_timeout {
                if let Some(b) = &mut self.breaker {
                    b.record_timeout(shard, now);
                }
            }
            total += n;
        }
        self.parked.retain(|&(_, q, _)| q != query);
        self.unroutable.retain(|&(_, q, _)| q != query);
        total
    }

    /// Protection plane: dequeues every still-queued copy of
    /// `(query, object)` across the fleet (hedge losers — the winning
    /// replica already delivered, so at most the loser copies remain
    /// queued). Returns the number of copies removed.
    pub(crate) fn cancel_object(&mut self, query: QueryId, object: ObjectId) -> usize {
        let mut n = 0;
        for pump in &mut self.pumps {
            if pump.cancel_object(query, object) {
                n += 1;
            }
        }
        n
    }

    /// The hedge target for `object`: the first live replica *after*
    /// the one routing currently prefers, or `None` when no distinct
    /// live replica exists (single-replica placements never hedge).
    pub(crate) fn hedge_target(&self, object: ObjectId) -> Option<usize> {
        let replicas = self.replicas_of.get(&object)?;
        let mut live = replicas.iter().filter(|&&s| !self.down[s]);
        let _primary = live.next()?;
        live.next().copied()
    }

    /// Submits one request directly to `shard`, bypassing routing (the
    /// hedge duplicate — the caller picked the target).
    pub(crate) fn submit_to(
        &mut self,
        shard: usize,
        now: SimTime,
        client: usize,
        query: QueryId,
        object: ObjectId,
    ) {
        debug_assert!(!self.down[shard], "hedge duplicate sent to a down shard");
        self.pumps[shard].submit(now, client, query, &[object]);
    }

    /// The deepest backlog across live shards, as `(max queued
    /// requests, max queued logical bytes)` — the admission-control
    /// load signal. O(shards); called only when an admission policy is
    /// configured.
    pub(crate) fn max_live_load(&self) -> (usize, u64) {
        let (mut depth, mut bytes) = (0usize, 0u64);
        for (shard, pump) in self.pumps.iter().enumerate() {
            if self.down[shard] {
                continue;
            }
            depth = depth.max(pump.device().pending_len());
            bytes = bytes.max(pump.device().queued_bytes());
        }
        (depth, bytes)
    }

    /// True under replicated placement (hedging needs a second copy).
    pub(crate) fn replicated(&self) -> bool {
        !self.replicas_of.is_empty()
    }

    /// Installs shard `shard`'s cache tiers (assembly time; a disabled
    /// config installs nothing — see [`DevicePump::set_cache`]).
    pub fn set_cache(&mut self, shard: usize, config: skipper_csd::cache::CacheConfig) {
        self.pumps[shard].set_cache(config);
    }

    /// Installs a drop-wakeup injection on shard `shard` (assembly
    /// time; see [`DevicePump::plan_drop`]).
    pub fn plan_drop(&mut self, shard: usize, nth: u64, redeliver_after: SimDuration) {
        self.pumps[shard].plan_drop(nth, redeliver_after);
    }

    /// Accrues downtime for shards still down when the run ends.
    pub fn close_downtime(&mut self, end: SimTime) {
        for shard in 0..self.pumps.len() {
            if let Some(since) = self.down_since[shard].take() {
                self.stats[shard].downtime_micros += end.since(since).as_micros();
            }
        }
    }

    /// Per-shard fault counters, in shard order.
    pub fn fault_stats(&self) -> &[ShardFaultStats] {
        &self.stats
    }

    /// Requests that ever parked for lack of a live replica.
    pub fn parked_total(&self) -> u64 {
        self.parked_total
    }

    /// Pokes every shard in shard order, invoking `armed` with
    /// `(shard, wake-up)` for each newly armed (or re-armed) wake-up —
    /// including watchdog redelivery wake-ups for dropped batches.
    /// Allocation-free: this runs once per event on the loop's hot
    /// path. A re-arm supersedes the shard's previous wake-up, which
    /// then fires as a stale no-op.
    pub fn poke_all(&mut self, now: SimTime, mut armed: impl FnMut(usize, SimTime)) {
        for (shard, pump) in self.pumps.iter_mut().enumerate() {
            if let Some(at) = pump.take_redelivery_arm() {
                armed(shard, at);
            }
            if let Some(at) = pump.take_cache_arm() {
                armed(shard, at);
            }
            if let Some(at) = pump.poke(now) {
                armed(shard, at);
            }
        }
    }

    /// Handles shard `shard`'s wake-up firing at `now`, appending every
    /// transfer the shard retired at that instant to the caller's
    /// reusable scratch buffer (nothing for switch completions and
    /// stale, superseded wake-ups).
    pub fn on_wakeup_into(&mut self, shard: usize, now: SimTime, out: &mut Vec<Delivery<P>>) {
        self.pumps[shard].on_wakeup_into(now, out);
    }

    /// Read access to every pump, in shard order.
    pub fn pumps(&self) -> &[DevicePump<P>] {
        &self.pumps
    }

    /// Consumes the fleet into its pumps, in shard order (end-of-run
    /// result assembly).
    pub fn into_pumps(self) -> Vec<DevicePump<P>> {
        self.pumps
    }

    /// True when every shard is idle with an empty queue, nothing is
    /// parked at the fleet, no watchdog batch is pending, and no
    /// unroutable request awaits a retry.
    pub fn is_quiescent(&self) -> bool {
        self.pumps.iter().all(|p| p.is_quiescent())
            && self.parked.is_empty()
            && self.unroutable.is_empty()
    }
}
