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
//! Under `PlacementPolicy::Replicated { k, .. }` every object carries a
//! replica list (preferred shard first; see
//! [`DeviceFleet::with_replicas`]) and each request routes to the
//! *first live replica*. Which shards are live is the fault plane's
//! record — one optional box on the fleet, owned by
//! [`fault`](super::fault) with the crash, recovery and parking rules —
//! so a fleet that never crashes routes with one null test per replica.

use std::collections::HashMap;
use std::sync::Arc;

use skipper_csd::{CsdDevice, Delivery, FastBuild, ObjectId, QueryId};
use skipper_relational::segment::Segment;
use skipper_sim::SimTime;

use super::fault::FleetFaults;
use super::protect::Breaker;
use super::pump::DevicePump;

/// N device pumps + the object → shard map.
///
/// Generic over the payload `P` its devices deliver, like
/// [`DevicePump`]: the runtime's fleet is `DeviceFleet<()>`.
pub struct DeviceFleet<P = Arc<Segment>> {
    pub(super) pumps: Vec<DevicePump<P>>,
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
    /// The fault plane's state, installed with a fault plan (or on
    /// first use); `None` means every shard is up.
    pub(super) faults: Option<Box<FleetFaults>>,
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
            retry_clients: Vec::new(),
            unroutable: Vec::new(),
            breaker: None,
            faults: None,
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
    pub(super) fn route(&mut self, now: SimTime, object: ObjectId) -> Option<usize> {
        if self.replicas_of.is_empty() {
            let shard = self.shard_for(object);
            return (!self.is_down(shard)).then_some(shard);
        }
        let replicas = self
            .replicas_of
            .get(&object)
            .unwrap_or_else(|| panic!("object {object} was never placed on any shard"));
        let (ordinal, shard) = replicas
            .iter()
            .enumerate()
            .find(|&(_, &s)| {
                !self.is_down(s) && !self.breaker.as_ref().is_some_and(|b| b.open(s, now))
            })
            .or_else(|| {
                replicas
                    .iter()
                    .enumerate()
                    .find(|&(_, &s)| !self.is_down(s))
            })
            .map(|(i, &s)| (i, s))?;
        if ordinal > 0 {
            self.faults_mut().note_failover(shard);
        }
        Some(shard)
    }

    /// Fans GET requests out to the owning shards (first live replica
    /// each; see the module docs). Objects keep their relative order
    /// within each shard's batch; shards are submitted in shard order
    /// for determinism. Requests with no live replica park until a
    /// recovery.
    pub fn submit(&mut self, now: SimTime, client: usize, query: QueryId, objects: &[ObjectId]) {
        if self.pumps.len() == 1 && !self.is_down(0) {
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
    pub(super) fn park_or_defer(&mut self, client: usize, query: QueryId, obj: ObjectId) {
        if self.retry_clients.get(client).copied().unwrap_or(false) {
            self.unroutable.push((client, query, obj));
        } else {
            self.faults_mut().park(client, query, obj);
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
        if let Some(faults) = self.faults.as_deref_mut() {
            faults.cancel(query);
        }
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
        let mut live = replicas.iter().filter(|&&s| !self.is_down(s));
        let _primary = live.next()?;
        live.next().copied()
    }

    /// Submits one request directly to `shard`, bypassing routing (the
    /// caller picked a live target: a hedge duplicate or a failover).
    ///
    /// # Panics
    /// Panics when `shard` is down (a fleet routing bug): `route` alone
    /// never picks a crashed shard.
    pub(crate) fn submit_to(
        &mut self,
        shard: usize,
        now: SimTime,
        client: usize,
        query: QueryId,
        object: ObjectId,
    ) {
        assert!(
            !self.is_down(shard),
            "submit landed on a crashed shard (fleet routing bug)"
        );
        self.pumps[shard].submit(now, client, query, &[object]);
    }

    /// The deepest backlog across live shards, as `(max queued
    /// requests, max queued logical bytes)` — the admission-control
    /// load signal. O(shards); called only when an admission policy is
    /// configured.
    pub(crate) fn max_live_load(&self) -> (usize, u64) {
        let (mut depth, mut bytes) = (0usize, 0u64);
        for (shard, pump) in self.pumps.iter().enumerate() {
            if self.is_down(shard) {
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

    /// Pokes every shard in shard order, invoking `armed` with
    /// `(shard, wake-up)` for each newly armed (or re-armed) wake-up:
    /// per shard, the watchdog's release, then the cache's next hit,
    /// then the device. Allocation-free: this runs once per event on
    /// the loop's hot path. A re-arm supersedes the shard's previous
    /// wake-up, which then fires as a stale no-op.
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
    /// stale, superseded wake-ups). Returns whether the wake-up did
    /// anything (see [`DevicePump::on_wakeup_into`]).
    pub fn on_wakeup_into(
        &mut self,
        shard: usize,
        now: SimTime,
        out: &mut Vec<Delivery<P>>,
    ) -> bool {
        self.pumps[shard].on_wakeup_into(now, out)
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
            && self.faults.as_ref().is_none_or(|f| f.is_idle())
            && self.unroutable.is_empty()
    }
}
