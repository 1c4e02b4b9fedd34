//! The shard-cache plane: DRAM/SSD tiers in front of each shard's
//! device.
//!
//! With a [`CacheConfig`] installed (`DeviceFleet::install_cache`)
//! every pump fronts its device with the tiers: `submit` consults the
//! cache first, schedules hits as *cache completions* at tier bandwidth
//! (a pending min-heap, armed through `DevicePump::take_cache_arm`
//! exactly like the device wake-up), and forwards only the misses to
//! the device — a hit never touches the CSD queue, the scheduler, or a
//! group switch. Miss deliveries fill the tiers at consumption time,
//! and a crash invalidates the whole cache: pending hits are displaced
//! like aborted transfers and re-routed by the fleet, so a dead shard
//! can never serve a stale hit.
//!
//! The plane is one [`CacheState`] per pump, boxed behind an `Option`
//! and installed only for a config with some capacity: an uncached pump
//! pays one null test per hook and runs none of this module's code.
//! Residency is metadata-only — a hit hands back the object id, and the
//! engine reads the bytes from its tenant's dataset like any other
//! delivery — so every routine here reads the shard's [`ObjectStore`]
//! through the argument its pump passes in.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use skipper_csd::cache::{CacheConfig, CacheStats, ShardCache};
use skipper_csd::sched::PendingRequest;
use skipper_csd::{Delivery, GroupId, LedgerMode, ObjectId, ObjectStore, QueryId};
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
    /// The pending-hit instant a wake-up is armed for (re-armed when a
    /// new hit becomes the earliest, like the device protocol).
    armed: Option<SimTime>,
    /// Reusable submit-partition scratch (the miss batch).
    misses: Vec<ObjectId>,
    /// Cache-served deliveries `(client, query, object)`, recorded
    /// only under `LedgerMode::Full` (mirrors the device ledger).
    served_log: Vec<(usize, QueryId, ObjectId)>,
    ledger: bool,
}

impl CacheState {
    /// Partitions a submitted batch: hits are scheduled as cache
    /// completions at tier bandwidth, and the misses — the device's
    /// share, in submission order — come back.
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
            let meta = store
                .meta(object)
                .unwrap_or_else(|| panic!("unknown object {object} submitted to shard cache"));
            let (bytes, group) = (meta.logical_bytes, meta.group);
            match self.cache.lookup(now, object, bytes, group) {
                Some(ready) => {
                    self.seq += 1;
                    self.pending.push(Reverse(CachePending {
                        ready,
                        seq: self.seq,
                        client,
                        query,
                        object,
                        group,
                        bytes,
                    }));
                }
                None => self.misses.push(object),
            }
        }
        &self.misses
    }

    /// Delivers every pending hit due at `now` into `out`, returning
    /// whether the cache wake-up armed for this instant fired (false
    /// while it is absent or superseded). Payloads clone out of the
    /// store — `()` in the runtime, whose engines borrow the bytes from
    /// the dataset — so the hit path allocates nothing once the heap
    /// and ledger are warm.
    pub(super) fn pop_ready<P: Clone>(
        &mut self,
        now: SimTime,
        out: &mut Vec<Delivery<P>>,
        store: &ObjectStore<P>,
    ) -> bool {
        if self.armed != Some(now) {
            return false;
        }
        self.armed = None;
        while self.pending.peek().is_some_and(|p| p.0.ready == now) {
            let Reverse(p) = self.pending.pop().expect("peeked entry");
            let payload = store
                .get(p.object)
                .expect("cache-resident object lives in the shard store")
                .clone();
            if self.ledger {
                self.served_log.push((p.client, p.query, p.object));
            }
            out.push(Delivery {
                client: p.client,
                query: p.query,
                object: p.object,
                payload,
            });
        }
        true
    }

    /// Fills the tiers from miss deliveries, at consumption time.
    pub(super) fn fill<P>(
        &mut self,
        now: SimTime,
        delivered: &[Delivery<P>],
        store: &ObjectStore<P>,
    ) {
        for d in delivered {
            let meta = store
                .meta(d.object)
                .expect("delivered object has store metadata");
            self.cache
                .fill(now, d.object, meta.logical_bytes, meta.group);
        }
    }

    /// The earliest pending completion to schedule, handed out once per
    /// distinct instant (re-armed when a new hit becomes the earliest;
    /// the superseded event fires stale).
    fn take_arm(&mut self) -> Option<SimTime> {
        let next = self.pending.peek()?.0.ready;
        if self.armed == Some(next) {
            None
        } else {
            self.armed = Some(next);
            Some(next)
        }
    }

    /// The shard crashed: every pending hit is displaced like an
    /// aborted in-flight transfer — in ready order, after the device's
    /// evacuation — for the fleet to re-route, and the tiers are wiped
    /// (nothing survives a power cycle, so no stale hit is ever
    /// served). Returns the number of hits displaced.
    pub(super) fn fail<P>(
        &mut self,
        now: SimTime,
        displaced: &mut Vec<PendingRequest>,
        store: &ObjectStore<P>,
    ) -> usize {
        self.armed = None;
        let hits = self.pending.len();
        while let Some(Reverse(p)) = self.pending.pop() {
            let (slot, _) = store
                .resolve(p.object)
                .expect("cache hit on an object the shard stores");
            displaced.push(PendingRequest {
                object: p.object,
                query: p.query,
                client: p.client,
                group: p.group,
                bytes: p.bytes,
                slot,
                arrival: now,
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
    /// The cache wake-up to schedule, if a new hit became the earliest
    /// pending one (the fleet polls this on every poke pass, alongside
    /// the device and watchdog wake-ups).
    pub fn take_cache_arm(&mut self) -> Option<SimTime> {
        self.cache.as_deref_mut()?.take_arm()
    }

    /// Counter snapshot of the shard cache (zeros when uncached).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_ref()
            .map(|s| s.cache.stats())
            .unwrap_or_default()
    }

    /// The installed cache configuration, if any (economics reporting).
    pub fn cache_config(&self) -> Option<CacheConfig> {
        self.cache.as_ref().map(|s| s.config)
    }

    /// Takes the cache-served delivery ledger (end-of-run assembly;
    /// empty when uncached or under `LedgerMode::Counters`).
    pub fn take_cache_served_log(&mut self) -> Vec<(usize, QueryId, ObjectId)> {
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
        for pump in &mut self.pumps {
            let ledger = pump.device.ledger_mode() == LedgerMode::Full;
            pump.cache = ShardCache::new(config, pump.device.store()).map(|cache| {
                Box::new(CacheState {
                    cache,
                    config,
                    pending: BinaryHeap::new(),
                    seq: 0,
                    armed: None,
                    misses: Vec::new(),
                    served_log: Vec::new(),
                    ledger,
                })
            });
        }
    }
}
