//! The shard-cache plane: DRAM/SSD tiers in front of each shard's
//! device.
//!
//! With a [`CacheConfig`] installed (`DeviceFleet::install_cache`)
//! every pump fronts its device with the tiers: `submit` consults the
//! cache first, schedules hits as *cache completions* at tier bandwidth
//! (a pending min-heap whose earliest instant the pump's hit alarm
//! follows, under the timer rule of the [`pump`](super::pump) module
//! docs), and forwards only the misses to the device — a hit never
//! touches the CSD queue, the scheduler, or a group switch. Miss
//! deliveries fill the tiers at consumption time, and a crash
//! invalidates the whole cache: pending hits are displaced like aborted
//! transfers and re-routed by the fleet, so a dead shard can never
//! serve a stale hit.
//!
//! The plane is one [`CacheState`] per pump, boxed behind an `Option`
//! and installed only for a config with some capacity: an uncached pump
//! pays one null test per hook and runs none of this module's code.
//! Residency is metadata-only — a hit hands back the object id, and the
//! engine reads the bytes from its tenant's dataset like any other
//! delivery. The tiers name an object by its slot in the shard's
//! [`ObjectStore`]: a submit resolves each GET once, the pending hit
//! carries the slot to its delivery and to a crash's displaced request,
//! and a miss delivery resolves it again to fill.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use skipper_csd::cache::{CacheConfig, CacheStats, ShardCache};
use skipper_csd::sched::PendingRequest;
use skipper_csd::{Delivery, GroupId, LedgerEntry, LedgerMode, ObjectId, ObjectStore, QueryId};
use skipper_sim::SimTime;

use super::fleet::DeviceFleet;
use super::pump::DevicePump;

/// One cache hit awaiting its tier-bandwidth completion. Ordered by
/// `(ready, seq)`: the derived order compares the leading fields first,
/// and `seq` is unique per shard, so no later field ever decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct CachePending {
    /// Delivery-ready instant (tier pipe reservation).
    ready: SimTime,
    /// Per-shard issue sequence (deterministic tie-break).
    seq: u64,
    client: usize,
    query: QueryId,
    object: ObjectId,
    /// The object's slot in the shard's store.
    slot: u32,
    group: GroupId,
    bytes: u64,
}

/// Everything a pump keeps per installed shard cache.
pub(super) struct CacheState {
    cache: ShardCache,
    config: CacheConfig,
    /// Hits in flight on the tier pipes, earliest-ready first.
    pending: BinaryHeap<Reverse<CachePending>>,
    /// Issue counter (heap tie-break).
    seq: u64,
    /// Reusable submit-partition scratch (the miss batch).
    misses: Vec<ObjectId>,
    /// Cache-served deliveries, one [`LedgerEntry`] (a `(client, query,
    /// object)` triple) each, recorded only under `LedgerMode::Full`
    /// (mirrors the device ledger).
    served_log: Vec<LedgerEntry>,
    ledger: bool,
}

impl CacheState {
    /// Partitions a submitted batch: hits are scheduled as cache
    /// completions at tier bandwidth, and the misses — the device's
    /// share, in submission order — come back.
    ///
    /// # Panics
    /// Panics on a cross-tenant hit, as the device does on a
    /// cross-tenant miss.
    pub(super) fn partition<P>(
        &mut self,
        now: SimTime,
        client: usize,
        query: QueryId,
        objects: &[ObjectId],
        store: &ObjectStore<P>,
    ) -> &[ObjectId] {
        self.misses.clear();
        for &object in objects {
            let (slot, meta) = store
                .resolve(object)
                .unwrap_or_else(|| panic!("unknown object {object} submitted to shard cache"));
            let (bytes, group) = (meta.logical_bytes, meta.group);
            match self.cache.lookup(now, slot, bytes, group) {
                Some(ready) => {
                    // A hit never reaches the device, whose submit
                    // rejects a cross-tenant GET: reject it here.
                    skipper_csd::object::assert_own_tenant(client, query, object);
                    self.seq += 1;
                    self.pending.push(Reverse(CachePending {
                        ready,
                        seq: self.seq,
                        client,
                        query,
                        object,
                        slot,
                        group,
                        bytes,
                    }));
                }
                None => self.misses.push(object),
            }
        }
        &self.misses
    }

    /// Delivers every pending hit due at `now` into `out` (the pump
    /// calls this when its hit alarm fires). Payloads clone out of the
    /// store — `()` in the runtime, whose engines borrow the bytes from
    /// the dataset — so the hit path allocates nothing once the heap
    /// and ledger are warm.
    pub(super) fn pop_ready<P: Clone>(
        &mut self,
        now: SimTime,
        out: &mut Vec<Delivery<P>>,
        store: &ObjectStore<P>,
    ) {
        while self.pending.peek().is_some_and(|p| p.0.ready == now) {
            let Reverse(p) = self.pending.pop().expect("peeked entry");
            let payload = store.payload(p.slot).clone();
            if self.ledger {
                self.served_log
                    .push(LedgerEntry::new(p.client, p.query, p.object));
            }
            out.push(Delivery {
                client: p.client,
                query: p.query,
                object: p.object,
                payload,
            });
        }
    }

    /// Fills the tiers from miss deliveries, at consumption time.
    pub(super) fn fill<P>(
        &mut self,
        now: SimTime,
        delivered: &[Delivery<P>],
        store: &ObjectStore<P>,
    ) {
        for d in delivered {
            let (slot, meta) = store
                .resolve(d.object)
                .expect("delivered object has store metadata");
            self.cache.fill(now, slot, meta.logical_bytes, meta.group);
        }
    }

    /// The earliest pending hit's ready instant, which the pump's hit
    /// alarm follows.
    pub(super) fn next_ready(&self) -> Option<SimTime> {
        self.pending.peek().map(|p| p.0.ready)
    }

    /// The shard crashed: every pending hit is displaced like an
    /// aborted in-flight transfer — in ready order, after the device's
    /// evacuation — for the fleet to re-route, and the tiers are wiped
    /// (nothing survives a power cycle, so no stale hit is ever
    /// served). Returns the number of hits displaced.
    pub(super) fn fail(&mut self, displaced: &mut Vec<PendingRequest>) -> usize {
        let hits = self.pending.len();
        while let Some(Reverse(p)) = self.pending.pop() {
            displaced.push(PendingRequest {
                object: p.object,
                query: p.query,
                client: p.client,
                group: p.group,
                bytes: p.bytes,
                slot: p.slot,
                seq: p.seq,
            });
        }
        self.cache.invalidate_all();
        hits
    }

    /// True when no hit awaits delivery.
    pub(super) fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }
}

impl<P: Clone> DevicePump<P> {
    /// Counter snapshot of the shard cache (zeros when uncached).
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(|s| s.cache.stats())
            .unwrap_or_default()
    }

    /// The installed cache configuration, if any (economics reporting).
    pub(crate) fn cache_config(&self) -> Option<CacheConfig> {
        self.cache.as_ref().map(|s| s.config)
    }

    /// Takes the cache-served delivery ledger (end-of-run assembly;
    /// empty when uncached or under `LedgerMode::Counters`).
    pub(crate) fn take_cache_served_log(&mut self) -> Vec<LedgerEntry> {
        self.cache
            .as_deref_mut()
            .map(|s| std::mem::take(&mut s.served_log))
            .unwrap_or_default()
    }
}

impl<P: Clone> DeviceFleet<P> {
    /// Installs the same cache tiers on every shard (assembly time). A
    /// config without capacity installs nothing: the fleet stays the
    /// uncached machine by construction.
    pub(crate) fn install_cache(&mut self, config: CacheConfig) {
        for shard in 0..self.pumps.len() {
            let pump = self.pump_mut(shard);
            let ledger = pump.device.ledger_mode() == LedgerMode::Full;
            pump.cache = ShardCache::new(config, pump.device.store()).map(|cache| {
                Box::new(CacheState {
                    cache,
                    config,
                    pending: BinaryHeap::new(),
                    seq: 0,
                    misses: Vec::new(),
                    served_log: Vec::new(),
                    ledger,
                })
            });
        }
    }
}
