//! The device fleet: N pumps over N independently configured CSDs.
//!
//! One cold storage device tops out at a rack; the production path is a
//! *fleet* of CSD shards behind a single scenario. [`DeviceFleet`] owns
//! one [`DevicePump`] per shard plus the object → primary shard map
//! fixed at layout time by a
//! [`PlacementPolicy`](skipper_csd::PlacementPolicy): `submit` fans a
//! GET batch out to the owning shards (preserving relative order within
//! each shard), and each shard keeps its own wake-up protocol, so the
//! event loop interleaves devices deterministically — shard index breaks
//! every tie.
//!
//! A 1-shard fleet takes the same path: every request routes to shard
//! 0, so the whole batch reaches pump 0 in submission order and the
//! event schedule is the single-device runtime's.
//!
//! Every fleet has a replica count `k` (1 unless the placement is
//! `PlacementPolicy::Replicated { k, .. }`), and object `o` lives on
//! the [`replica_run`] of its primary: `k` consecutive shards,
//! preferred first. Each request routes to the *first live replica*
//! whose breaker is closed, through one body for every `k`. Which
//! shards are live is the fault plane's record — one optional box on
//! the fleet, owned by [`fault`](super::fault) with the crash, recovery
//! and parking rules — so a fleet that never crashes routes a request
//! with one dense index lookup and two null tests.

use std::collections::HashMap;
use std::sync::Arc;

use skipper_csd::layout::replica_run;
use skipper_csd::{CsdDevice, Delivery, ObjectId, ObjectIndex, QueryId};
use skipper_relational::segment::Segment;
use skipper_sim::SimTime;

use super::fault::FleetFaults;
use super::protect::Breaker;
use super::pump::DevicePump;

/// N device pumps + the object → primary shard map.
///
/// Generic over the payload `P` its devices deliver, like
/// [`DevicePump`]: the runtime's fleet is `DeviceFleet<()>`.
pub struct DeviceFleet<P = Arc<Segment>> {
    pub(super) pumps: Vec<DevicePump<P>>,
    /// Preferred (primary) shard per object, looked up once per GET.
    shard_of: ObjectIndex,
    /// Replica count `k`: object `o` lives on
    /// `replica_run(shard_of[o], k, shards)`.
    replicas: usize,
    /// Reusable per-shard fan-out buffers for `submit` — pooled so a
    /// batch costs no allocation once warm.
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
    /// Assembles a single-replica fleet (`k = 1`) from per-shard
    /// devices and the placement map: each object lives on exactly one
    /// shard.
    ///
    /// # Panics
    /// Panics on an empty fleet or a map entry pointing outside it.
    pub fn new(devices: Vec<CsdDevice<P>>, shard_of: HashMap<ObjectId, usize>) -> Self {
        let shard_of = primary_index(shard_of, devices.len());
        Self::from_primaries(devices, shard_of, 1)
    }

    /// Assembles a replicated fleet from every object's replica list,
    /// preferred shard first (the `PlacementPolicy::assign_replicas`
    /// output). The fleet keeps only each list's head and the common
    /// length `k`. A fault-free run routes every request to the
    /// preferred replica, byte-identical to the equivalent
    /// single-replica fleet.
    ///
    /// # Panics
    /// Panics on an empty fleet, or when a list is not the
    /// [`replica_run`] of its head at one common length `k`, with `k`
    /// at most the shard count.
    pub fn with_replicas(
        devices: Vec<CsdDevice<P>>,
        replicas_of: HashMap<ObjectId, Vec<usize>>,
    ) -> Self {
        let shards = devices.len();
        let k = replicas_of.values().next().map_or(1, Vec::len);
        let is_run = |r: &Vec<usize>| r.iter().copied().eq(replica_run(r[0], k, shards));
        assert!(
            k > 0 && replicas_of.values().all(|r| r.len() == k && is_run(r)),
            "replica lists must be consecutive runs of one length inside the fleet"
        );
        let primaries = primary_index(replicas_of.into_iter().map(|(o, r)| (o, r[0])), shards);
        Self::from_primaries(devices, primaries, k)
    }

    /// The one constructor: each object's primary shard, a dense index
    /// looked up once per GET, and the replica count `k`. Object `o`
    /// lives on `replica_run(shard_of[o], k, shards)`; every primary
    /// must lie inside the fleet.
    pub(super) fn from_primaries(
        devices: Vec<CsdDevice<P>>,
        shard_of: ObjectIndex,
        replicas: usize,
    ) -> Self {
        let n = devices.len();
        assert!(n > 0, "a fleet needs at least one device");
        DeviceFleet {
            pumps: devices.into_iter().map(DevicePump::new).collect(),
            shard_of,
            replicas,
            fanout: vec![Vec::new(); n],
            retry_clients: Vec::new(),
            unroutable: Vec::new(),
            breaker: None,
            faults: None,
        }
    }

    /// The preferred (primary) shard storing `object`.
    ///
    /// # Panics
    /// Panics for objects never placed on the fleet.
    pub fn shard_for(&self, object: ObjectId) -> usize {
        self.shard_of
            .get(object)
            .unwrap_or_else(|| panic!("object {object} was never placed on any shard"))
            as usize
    }

    /// The first live replica for `object`, counting a failover receipt
    /// on the serving shard when it is not the preferred one. With a
    /// breaker installed, replicas whose breaker is open are skipped
    /// when a closed live replica exists (and used anyway when not —
    /// the breaker degrades preference, never availability). `None`
    /// when every replica is down (the caller parks the request).
    pub(super) fn route(&mut self, now: SimTime, object: ObjectId) -> Option<usize> {
        let primary = self.shard_for(object);
        let usable =
            |s: usize| !self.is_down(s) && !self.breaker.as_ref().is_some_and(|b| b.open(s, now));
        if usable(primary) {
            return Some(primary);
        }
        let run = || replica_run(primary, self.replicas, self.pumps.len());
        let shard = run()
            .find(|&s| usable(s))
            .or_else(|| run().find(|&s| !self.is_down(s)))?;
        if shard != primary {
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
    /// `(query, object)` (hedge losers — the winning replica already
    /// delivered, so at most the loser copies remain queued). Routing,
    /// hedges, retries and evacuations only ever place a copy on the
    /// object's replica run, so only the run's shards are visited.
    /// Returns the number of copies removed.
    pub(crate) fn cancel_object(&mut self, query: QueryId, object: ObjectId) -> usize {
        let run = replica_run(self.shard_for(object), self.replicas, self.pumps.len());
        run.filter(|&shard| self.pumps[shard].cancel_object(query, object))
            .count()
    }

    /// The hedge target for `object`: the second live replica of its
    /// run, or `None` when no second live replica exists (always, on a
    /// single-replica fleet).
    pub(crate) fn hedge_target(&self, object: ObjectId) -> Option<usize> {
        let run = replica_run(self.shard_for(object), self.replicas, self.pumps.len());
        run.filter(|&s| !self.is_down(s)).nth(1)
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

/// The primary-shard index of a placement map's `(object, shard)`
/// pairs.
///
/// # Panics
/// Panics on a shard outside a fleet of `shards`.
fn primary_index(
    shard_of: impl IntoIterator<Item = (ObjectId, usize)>,
    shards: usize,
) -> ObjectIndex {
    let mut index = ObjectIndex::default();
    for (object, shard) in shard_of {
        assert!(shard < shards, "placement map points outside the fleet");
        index.insert(object, shard as u32);
    }
    index
}
