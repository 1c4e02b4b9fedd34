//! Shard-local cache tiers: the DRAM/SSD hot path in front of a CSD.
//!
//! The paper hides the cold device's multi-second group-switch latency
//! behind scheduling, but a production fleet would never serve a hot
//! object from the CSD twice — it fronts each shard with a DRAM tier
//! (and optionally an SSD tier below it) so repeated GETs complete at
//! tier bandwidth without touching the CSD queue, the scheduler, or a
//! group switch. This module is the pure cache machine: residency,
//! promotion/demotion policy, per-tier bandwidth serialization, and
//! hit/miss accounting. The event-loop integration (arming cache
//! completions as wake-ups, filling on miss delivery, invalidation on
//! crash) lives in the core runtime's `DevicePump`.
//!
//! ## Timing model
//!
//! Each tier serves reads through one serialized pipe: a cursor tracks
//! the instant the tier's bandwidth is next free, a hit starts at
//! `max(now, free_at)` and completes `bytes / bandwidth` later, and the
//! cursor advances. Demotion write-backs (DRAM evictions spilling into
//! the SSD tier) reserve the same SSD pipe, so background fills compete
//! with foreground hits for the same streams — a burst of evictions
//! visibly delays subsequent SSD reads. Everything is integer
//! microseconds on the simulation clock, so replays are bit-identical.
//!
//! ## Policies
//!
//! * [`CachePolicy::Lru`] — classic move-to-front; evicts the least
//!   recently used object.
//! * [`CachePolicy::Clock`] — second-chance: a hit sets a reference bit
//!   instead of relinking; eviction rotates referenced entries back
//!   with the bit cleared and evicts the first unreferenced one.
//! * [`CachePolicy::GroupAware`] — recency at disk-group granularity:
//!   the victim is the least-recently-*used group's* coldest object,
//!   so a group whose objects keep getting hit stays fully resident
//!   and every future GET against it skips the switch entirely.

use std::collections::HashMap;

use skipper_sim::SimTime;

use crate::object::{GroupId, ObjectId};
use crate::store::{transfer_time, FastBuild};

/// Default DRAM tier read bandwidth (one service pipe): 4 GiB/s.
pub const DRAM_BANDWIDTH_BYTES_PER_SEC: f64 = 4.0 * (1u64 << 30) as f64;

/// Default SSD tier read bandwidth (one service pipe): 500 MB/s.
pub const SSD_BANDWIDTH_BYTES_PER_SEC: f64 = 500e6;

/// Eviction/recency policy shared by both tiers of a shard cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-recently-used: hits relink to the front, evict the tail.
    #[default]
    Lru,
    /// CLOCK (second chance): hits set a reference bit; eviction
    /// rotates referenced tail entries back to the front.
    Clock,
    /// Group-aware: evict from the least-recently-used *disk group*,
    /// keeping actively hit groups fully resident so their GETs never
    /// pay a switch.
    GroupAware,
}

impl CachePolicy {
    /// Short lowercase label for reports and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Clock => "clock",
            CachePolicy::GroupAware => "group",
        }
    }
}

/// Capacity and bandwidth of one cache tier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierConfig {
    /// Resident-byte capacity; `0` disables the tier.
    pub capacity_bytes: u64,
    /// Serialized read/fill bandwidth of the tier's service pipe.
    pub bandwidth_bytes_per_sec: f64,
}

impl TierConfig {
    /// A tier with the given capacity and bandwidth.
    pub fn new(capacity_bytes: u64, bandwidth_bytes_per_sec: f64) -> Self {
        TierConfig {
            capacity_bytes,
            bandwidth_bytes_per_sec,
        }
    }

    /// A disabled (zero-capacity) tier.
    pub fn disabled() -> Self {
        TierConfig::new(0, 0.0)
    }

    /// True when the tier can hold at least one byte.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }
}

/// Full shard-cache configuration: both tiers plus the shared policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// The DRAM tier (top of the hierarchy; misses fill here).
    pub dram: TierConfig,
    /// The SSD tier (holds DRAM demotions; hits promote back up).
    pub ssd: TierConfig,
    /// Eviction/recency policy for both tiers.
    pub policy: CachePolicy,
}

impl CacheConfig {
    /// No cache at all — the byte-exact legacy machine.
    pub fn disabled() -> Self {
        CacheConfig {
            dram: TierConfig::disabled(),
            ssd: TierConfig::disabled(),
            policy: CachePolicy::Lru,
        }
    }

    /// A DRAM-only cache of `capacity_bytes` at the default DRAM
    /// bandwidth under LRU; `0` is exactly [`CacheConfig::disabled`].
    pub fn dram_only(capacity_bytes: u64) -> Self {
        CacheConfig {
            dram: TierConfig::new(capacity_bytes, DRAM_BANDWIDTH_BYTES_PER_SEC),
            ssd: TierConfig::disabled(),
            policy: CachePolicy::Lru,
        }
    }

    /// DRAM + SSD tiers at default bandwidths under LRU.
    pub fn two_tier(dram_bytes: u64, ssd_bytes: u64) -> Self {
        CacheConfig {
            dram: TierConfig::new(dram_bytes, DRAM_BANDWIDTH_BYTES_PER_SEC),
            ssd: TierConfig::new(ssd_bytes, SSD_BANDWIDTH_BYTES_PER_SEC),
            policy: CachePolicy::Lru,
        }
    }

    /// Returns the config with `policy` swapped in.
    pub fn with_policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// True when at least one tier has capacity. A disabled config
    /// must collapse to the uncached machine byte-exactly, so callers
    /// gate every cache structure on this.
    pub fn enabled(&self) -> bool {
        self.dram.enabled() || self.ssd.enabled()
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::disabled()
    }
}

/// Hit/miss/fill/evict counters for one shard cache (or a fleet
/// roll-up). Every counter is exact; `hits() + misses` equals the GETs
/// the shard cache was consulted for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// GETs served from the DRAM tier.
    pub dram_hits: u64,
    /// GETs served from the SSD tier (then promoted to DRAM).
    pub ssd_hits: u64,
    /// GETs that fell through to the CSD.
    pub misses: u64,
    /// Objects inserted on miss delivery.
    pub fills: u64,
    /// SSD→DRAM promotions on SSD hits.
    pub promotions: u64,
    /// DRAM→SSD demotions (evictions written back to the SSD tier).
    pub demotions: u64,
    /// Objects evicted out of the hierarchy entirely.
    pub evictions: u64,
    /// Logical bytes served from either tier.
    pub hit_bytes: u64,
    /// Demotion write-back bytes charged to the SSD pipe.
    pub writeback_bytes: u64,
    /// Whole-cache wipes (shard crashes).
    pub invalidations: u64,
}

impl CacheStats {
    /// Total tier hits.
    pub fn hits(&self) -> u64 {
        self.dram_hits + self.ssd_hits
    }

    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Fraction of lookups served from a tier (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits() as f64 / self.lookups() as f64
        }
    }

    /// Accumulates `other` into `self` (fleet roll-up).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.dram_hits += other.dram_hits;
        self.ssd_hits += other.ssd_hits;
        self.misses += other.misses;
        self.fills += other.fills;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.evictions += other.evictions;
        self.hit_bytes += other.hit_bytes;
        self.writeback_bytes += other.writeback_bytes;
        self.invalidations += other.invalidations;
    }
}

/// Slab slot sentinel for the intrusive lists.
const NIL: u32 = u32::MAX;

/// One resident object: slab node carrying both the global recency
/// links and the per-group links (group-aware policy only).
#[derive(Clone, Copy, Debug)]
struct Node {
    id: ObjectId,
    bytes: u64,
    group: GroupId,
    /// Global recency list (MRU at head).
    prev: u32,
    next: u32,
    /// Per-group recency list (MRU at head; group-aware policy).
    gprev: u32,
    gnext: u32,
    /// CLOCK reference bit.
    referenced: bool,
}

/// Per-group list head/tail plus the group-recency chain links.
#[derive(Clone, Copy, Debug)]
struct GroupLinks {
    head: u32,
    tail: u32,
    prev: Option<GroupId>,
    next: Option<GroupId>,
}

/// One cache tier: a capacity-bounded residency set over a slab of
/// intrusively linked nodes, plus the serialized bandwidth pipe.
/// All operations are allocation-free once the slab and index have
/// grown to their peak population.
struct Tier {
    capacity: u64,
    bandwidth: f64,
    policy: CachePolicy,
    used: u64,
    /// Instant the tier's service pipe is next free.
    free_at: SimTime,
    nodes: Vec<Node>,
    free: Vec<u32>,
    index: HashMap<ObjectId, u32, FastBuild>,
    /// Global recency list (MRU first).
    head: u32,
    tail: u32,
    /// Group recency chain (group-aware policy; MRU first).
    groups: HashMap<GroupId, GroupLinks, FastBuild>,
    gmru: Option<GroupId>,
    glru: Option<GroupId>,
}

impl Tier {
    fn new(config: TierConfig, policy: CachePolicy) -> Tier {
        Tier {
            capacity: config.capacity_bytes,
            bandwidth: config.bandwidth_bytes_per_sec,
            policy,
            used: 0,
            free_at: SimTime::ZERO,
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            groups: HashMap::default(),
            gmru: None,
            glru: None,
        }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// Reserves the serialized pipe for `bytes`: service starts when
    /// the pipe frees up, never before `now`; returns the completion
    /// instant and advances the cursor.
    fn reserve(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.free_at);
        let done = start + transfer_time(bytes, self.bandwidth);
        self.free_at = done;
        done
    }

    // ---- global recency list ----

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        {
            let n = &mut self.nodes[slot as usize];
            n.prev = NIL;
            n.next = old;
        }
        if old != NIL {
            self.nodes[old as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    // ---- per-group lists (group-aware policy) ----

    fn group_unlink_node(&mut self, slot: u32) {
        let (group, gprev, gnext) = {
            let n = &self.nodes[slot as usize];
            (n.group, n.gprev, n.gnext)
        };
        let links = self.groups.get_mut(&group).expect("resident node's group");
        if gprev == NIL {
            links.head = gnext;
        } else {
            self.nodes[gprev as usize].gnext = gnext;
        }
        if gnext == NIL {
            links.tail = gprev;
        } else {
            self.nodes[gnext as usize].gprev = gprev;
        }
        let links = self.groups[&group];
        if links.head == NIL {
            // Last resident object of the group: drop it from the
            // group-recency chain.
            match links.prev {
                Some(p) => self.groups.get_mut(&p).expect("chained group").next = links.next,
                None => self.gmru = links.next,
            }
            match links.next {
                Some(nx) => self.groups.get_mut(&nx).expect("chained group").prev = links.prev,
                None => self.glru = links.prev,
            }
            self.groups.remove(&group);
        }
    }

    fn group_push_node(&mut self, slot: u32) {
        let group = self.nodes[slot as usize].group;
        match self.groups.get_mut(&group) {
            Some(links) => {
                let old = links.head;
                links.head = slot;
                {
                    let n = &mut self.nodes[slot as usize];
                    n.gprev = NIL;
                    n.gnext = old;
                }
                if old != NIL {
                    self.nodes[old as usize].gprev = slot;
                }
            }
            None => {
                {
                    let n = &mut self.nodes[slot as usize];
                    n.gprev = NIL;
                    n.gnext = NIL;
                }
                self.groups.insert(
                    group,
                    GroupLinks {
                        head: slot,
                        tail: slot,
                        prev: None,
                        next: None,
                    },
                );
                // Splice at MRU below (group_touch), starting unlinked.
                let links = self.groups.get_mut(&group).expect("just inserted");
                links.next = self.gmru;
                match self.gmru {
                    Some(m) => self.groups.get_mut(&m).expect("chained group").prev = Some(group),
                    None => self.glru = Some(group),
                }
                self.gmru = Some(group);
                return;
            }
        }
        self.group_touch(group);
    }

    /// Moves `group` to the MRU end of the group-recency chain.
    fn group_touch(&mut self, group: GroupId) {
        if self.gmru == Some(group) {
            return;
        }
        let links = self.groups[&group];
        match links.prev {
            Some(p) => self.groups.get_mut(&p).expect("chained group").next = links.next,
            None => self.gmru = links.next,
        }
        match links.next {
            Some(nx) => self.groups.get_mut(&nx).expect("chained group").prev = links.prev,
            None => self.glru = links.prev,
        }
        let old_mru = self.gmru;
        {
            let links = self.groups.get_mut(&group).expect("chained group");
            links.prev = None;
            links.next = old_mru;
        }
        match old_mru {
            Some(m) => self.groups.get_mut(&m).expect("chained group").prev = Some(group),
            None => self.glru = Some(group),
        }
        self.gmru = Some(group);
    }

    // ---- residency operations ----

    /// Records a hit on `id` (recency update per policy); returns the
    /// resident byte size, or `None` when absent.
    fn touch(&mut self, id: ObjectId) -> Option<u64> {
        let slot = *self.index.get(&id)?;
        match self.policy {
            CachePolicy::Lru => {
                self.unlink(slot);
                self.push_front(slot);
            }
            CachePolicy::Clock => {
                self.nodes[slot as usize].referenced = true;
            }
            CachePolicy::GroupAware => {
                self.unlink(slot);
                self.push_front(slot);
                self.group_unlink_node(slot);
                self.group_push_node(slot);
            }
        }
        Some(self.nodes[slot as usize].bytes)
    }

    /// Picks the victim slot per policy. Caller guarantees the tier is
    /// non-empty.
    fn victim(&mut self) -> u32 {
        match self.policy {
            CachePolicy::Lru => self.tail,
            CachePolicy::Clock => {
                // Second chance: rotate referenced tail entries back to
                // the front with the bit cleared. Each pass clears one
                // bit, so this terminates within one lap.
                loop {
                    let t = self.tail;
                    debug_assert!(t != NIL, "victim() on an empty tier");
                    if self.nodes[t as usize].referenced {
                        self.nodes[t as usize].referenced = false;
                        self.unlink(t);
                        self.push_front(t);
                    } else {
                        return t;
                    }
                }
            }
            CachePolicy::GroupAware => {
                let coldest = self.glru.expect("non-empty tier has a coldest group");
                self.groups[&coldest].tail
            }
        }
    }

    /// Removes `slot` from every structure and returns its metadata.
    fn remove_slot(&mut self, slot: u32) -> (ObjectId, u64, GroupId) {
        self.unlink(slot);
        if self.policy == CachePolicy::GroupAware {
            self.group_unlink_node(slot);
        }
        let n = self.nodes[slot as usize];
        self.index.remove(&n.id);
        self.used -= n.bytes;
        self.free.push(slot);
        (n.id, n.bytes, n.group)
    }

    /// Removes `id` if resident (promotion exclusivity).
    fn remove(&mut self, id: ObjectId) -> bool {
        match self.index.get(&id) {
            Some(&slot) => {
                self.remove_slot(slot);
                true
            }
            None => false,
        }
    }

    /// Inserts `id` at the MRU position, evicting per policy until it
    /// fits; evicted objects are appended to `evicted`. Returns `false`
    /// (inserting nothing, evicting nothing) when `bytes` exceeds the
    /// whole tier, and `true` (a pure touch) when already resident.
    fn insert(
        &mut self,
        id: ObjectId,
        bytes: u64,
        group: GroupId,
        evicted: &mut Vec<(ObjectId, u64, GroupId)>,
    ) -> bool {
        if bytes > self.capacity {
            return false;
        }
        if self.index.contains_key(&id) {
            self.touch(id);
            return true;
        }
        while self.used + bytes > self.capacity {
            let v = self.victim();
            evicted.push(self.remove_slot(v));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s as usize] = Node {
                    id,
                    bytes,
                    group,
                    prev: NIL,
                    next: NIL,
                    gprev: NIL,
                    gnext: NIL,
                    referenced: false,
                };
                s
            }
            None => {
                let s = u32::try_from(self.nodes.len()).expect("cache slab fits u32");
                self.nodes.push(Node {
                    id,
                    bytes,
                    group,
                    prev: NIL,
                    next: NIL,
                    gprev: NIL,
                    gnext: NIL,
                    referenced: false,
                });
                s
            }
        };
        self.index.insert(id, slot);
        self.used += bytes;
        self.push_front(slot);
        if self.policy == CachePolicy::GroupAware {
            self.group_push_node(slot);
        }
        true
    }

    /// Wipes all residency (crash invalidation). The pipe cursor resets
    /// too: a dead tier serves nothing.
    fn clear(&mut self) {
        self.used = 0;
        self.free_at = SimTime::ZERO;
        self.nodes.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
        self.groups.clear();
        self.gmru = None;
        self.glru = None;
    }
}

/// The per-shard cache state machine: a DRAM tier over an SSD tier,
/// with hits reserving tier bandwidth, SSD hits promoting, DRAM
/// evictions demoting (write-backs on the SSD pipe), and full
/// hit/miss/fill accounting. Pure state — the runtime's pump owns
/// delivery scheduling and crash wiring.
pub struct ShardCache {
    dram: Tier,
    ssd: Tier,
    stats: CacheStats,
    /// Reusable eviction scratch (DRAM evictions per insert).
    evict_scratch: Vec<(ObjectId, u64, GroupId)>,
    /// Reusable eviction scratch (SSD evictions per demotion).
    drop_scratch: Vec<(ObjectId, u64, GroupId)>,
}

impl ShardCache {
    /// Builds the cache, or `None` for a disabled config — the caller
    /// keeps `None` on the hot path so zero capacity is byte-exactly
    /// the uncached machine.
    pub fn new(config: CacheConfig) -> Option<ShardCache> {
        if !config.enabled() {
            return None;
        }
        Some(ShardCache {
            dram: Tier::new(config.dram, config.policy),
            ssd: Tier::new(config.ssd, config.policy),
            stats: CacheStats::default(),
            evict_scratch: Vec::new(),
            drop_scratch: Vec::new(),
        })
    }

    /// Consults the tiers for `id`: on a hit, reserves the serving
    /// tier's pipe and returns the delivery-ready instant (an SSD hit
    /// also promotes the object to DRAM); on a miss returns `None` and
    /// the caller forwards the GET to the CSD.
    pub fn lookup(
        &mut self,
        now: SimTime,
        id: ObjectId,
        bytes: u64,
        group: GroupId,
    ) -> Option<SimTime> {
        if self.dram.enabled() && self.dram.touch(id).is_some() {
            self.stats.dram_hits += 1;
            self.stats.hit_bytes += bytes;
            return Some(self.dram.reserve(now, bytes));
        }
        if self.ssd.enabled() && self.ssd.touch(id).is_some() {
            self.stats.ssd_hits += 1;
            self.stats.hit_bytes += bytes;
            let ready = self.ssd.reserve(now, bytes);
            if self.dram.enabled() && bytes <= self.dram.capacity {
                self.ssd.remove(id);
                self.stats.promotions += 1;
                self.insert_dram(now, id, bytes, group);
            }
            return Some(ready);
        }
        self.stats.misses += 1;
        None
    }

    /// Fills the hierarchy after a miss delivery: the object enters the
    /// top enabled tier; DRAM evictions demote into SSD as write-backs
    /// on the SSD pipe; SSD evictions leave the hierarchy.
    pub fn fill(&mut self, now: SimTime, id: ObjectId, bytes: u64, group: GroupId) {
        if self.dram.enabled() {
            if self.insert_dram(now, id, bytes, group) {
                self.stats.fills += 1;
            }
        } else if self.ssd.enabled() {
            self.drop_scratch.clear();
            if self.ssd.insert(id, bytes, group, &mut self.drop_scratch) {
                self.stats.fills += 1;
            }
            self.stats.evictions += self.drop_scratch.len() as u64;
        }
    }

    /// Inserts into DRAM, demoting evictions into SSD. Returns whether
    /// the object is resident afterwards.
    fn insert_dram(&mut self, now: SimTime, id: ObjectId, bytes: u64, group: GroupId) -> bool {
        self.evict_scratch.clear();
        let inserted = self.dram.insert(id, bytes, group, &mut self.evict_scratch);
        for i in 0..self.evict_scratch.len() {
            let (eid, ebytes, egroup) = self.evict_scratch[i];
            if self.ssd.enabled() {
                self.drop_scratch.clear();
                if self.ssd.insert(eid, ebytes, egroup, &mut self.drop_scratch) {
                    // The write-back occupies the SSD pipe like any
                    // read: demotions compete with foreground hits.
                    self.ssd.reserve(now, ebytes);
                    self.stats.demotions += 1;
                    self.stats.writeback_bytes += ebytes;
                } else {
                    self.stats.evictions += 1;
                }
                self.stats.evictions += self.drop_scratch.len() as u64;
            } else {
                self.stats.evictions += 1;
            }
        }
        inserted
    }

    /// Wipes both tiers (shard crash): nothing survives a failover, so
    /// no stale hit can ever be served from a dead shard's memory.
    pub fn invalidate_all(&mut self) {
        self.dram.clear();
        self.ssd.clear();
        self.stats.invalidations += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resident objects per tier `(dram, ssd)` — test/report helper.
    pub fn resident(&self) -> (usize, usize) {
        (self.dram.len(), self.ssd.len())
    }

    /// Resident bytes per tier `(dram, ssd)`.
    pub fn resident_bytes(&self) -> (u64, u64) {
        (self.dram.used, self.ssd.used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(seg: u32) -> ObjectId {
        ObjectId::new(0, 0, seg)
    }

    fn dram_cache(capacity: u64, policy: CachePolicy) -> ShardCache {
        ShardCache::new(CacheConfig {
            dram: TierConfig::new(capacity, 100.0), // 100 B/s: easy math
            ssd: TierConfig::disabled(),
            policy,
        })
        .expect("enabled config")
    }

    #[test]
    fn disabled_config_builds_no_cache() {
        assert!(ShardCache::new(CacheConfig::disabled()).is_none());
        assert!(ShardCache::new(CacheConfig::dram_only(0)).is_none());
        assert!(ShardCache::new(CacheConfig::dram_only(1)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = dram_cache(300, CachePolicy::Lru);
        let t = SimTime::ZERO;
        for seg in 0..3 {
            c.fill(t, oid(seg), 100, 0);
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.lookup(t, oid(0), 100, 0).is_some());
        c.fill(t, oid(3), 100, 0);
        assert!(c.lookup(t, oid(1), 100, 0).is_none(), "LRU victim evicted");
        assert!(c.lookup(t, oid(0), 100, 0).is_some());
        assert!(c.lookup(t, oid(3), 100, 0).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let mut c = dram_cache(300, CachePolicy::Clock);
        let t = SimTime::ZERO;
        for seg in 0..3 {
            c.fill(t, oid(seg), 100, 0);
        }
        // Reference 0 (the would-be victim): CLOCK must skip it.
        assert!(c.lookup(t, oid(0), 100, 0).is_some());
        c.fill(t, oid(3), 100, 0);
        assert!(c.lookup(t, oid(0), 100, 0).is_some(), "referenced survives");
        assert!(
            c.lookup(t, oid(1), 100, 0).is_none(),
            "unreferenced evicted"
        );
    }

    #[test]
    fn group_aware_keeps_the_hot_group_resident() {
        let mut c = dram_cache(400, CachePolicy::GroupAware);
        let t = SimTime::ZERO;
        // Group 0: objects 0,1 — filled first; group 1: objects 10,11.
        c.fill(t, oid(0), 100, 0);
        c.fill(t, oid(1), 100, 0);
        c.fill(t, oid(10), 100, 1);
        c.fill(t, oid(11), 100, 1);
        // Touch ONE object of group 0: under plain LRU object 1 (group
        // 0) would be the victim; group-aware recency protects the
        // whole group and evicts from group 1 instead.
        assert!(c.lookup(t, oid(0), 100, 0).is_some());
        c.fill(t, oid(2), 100, 0);
        assert!(c.lookup(t, oid(1), 100, 0).is_some(), "whole group stays");
        assert!(c.lookup(t, oid(10), 100, 1).is_none(), "cold group pays");
    }

    #[test]
    fn hits_serialize_on_the_tier_pipe() {
        let mut c = dram_cache(300, CachePolicy::Lru);
        let t = SimTime::ZERO;
        c.fill(t, oid(0), 100, 0);
        c.fill(t, oid(1), 100, 0);
        // 100 bytes at 100 B/s = 1 s each; the second hit queues behind
        // the first on the single pipe.
        let first = c.lookup(t, oid(0), 100, 0).expect("hit");
        let second = c.lookup(t, oid(1), 100, 0).expect("hit");
        assert_eq!(first, SimTime::from_secs(1));
        assert_eq!(second, SimTime::from_secs(2));
    }

    #[test]
    fn dram_evictions_demote_and_charge_the_ssd_pipe() {
        let mut c = ShardCache::new(CacheConfig {
            dram: TierConfig::new(100, 100.0),
            ssd: TierConfig::new(200, 100.0),
            policy: CachePolicy::Lru,
        })
        .expect("enabled");
        let t = SimTime::ZERO;
        c.fill(t, oid(0), 100, 0);
        c.fill(t, oid(1), 100, 0); // evicts 0 from DRAM → demotes to SSD
        assert_eq!(c.stats().demotions, 1);
        assert_eq!(c.stats().writeback_bytes, 100);
        // The SSD hit must queue behind the 1 s write-back.
        let ready = c.lookup(t, oid(0), 100, 0).expect("SSD hit");
        assert_eq!(ready, SimTime::from_secs(2));
        assert_eq!(c.stats().ssd_hits, 1);
        // The hit promoted 0 back to DRAM, displacing 1 down.
        assert!(c.stats().promotions == 1 && c.stats().demotions == 2);
    }

    #[test]
    fn accounting_conserves_lookups_and_residency() {
        let mut c = dram_cache(500, CachePolicy::Lru);
        let t = SimTime::ZERO;
        let mut lookups = 0u64;
        for round in 0..4u32 {
            // Round 0 scans everything; later rounds re-touch the tail
            // half, which fits in the tier — a hot head with locality.
            let segs = if round == 0 { 0..8u32 } else { 4..8u32 };
            for seg in segs {
                lookups += 1;
                if c.lookup(t, oid(seg), 100, seg % 2).is_none() {
                    c.fill(t, oid(seg), 100, seg % 2);
                }
            }
        }
        let s = c.stats();
        assert_eq!(s.lookups(), lookups);
        assert_eq!(s.hits() + s.misses, lookups);
        assert_eq!(s.fills as i64 - s.evictions as i64, c.resident().0 as i64);
        assert!(s.hit_rate() > 0.0);
    }

    #[test]
    fn invalidation_wipes_everything() {
        let mut c = dram_cache(500, CachePolicy::GroupAware);
        let t = SimTime::ZERO;
        for seg in 0..5 {
            c.fill(t, oid(seg), 100, seg % 3);
        }
        c.invalidate_all();
        assert_eq!(c.resident(), (0, 0));
        assert_eq!(c.stats().invalidations, 1);
        for seg in 0..5 {
            assert!(c.lookup(t, oid(seg), 100, seg % 3).is_none());
        }
    }

    #[test]
    fn oversized_objects_bypass_the_tier() {
        let mut c = dram_cache(100, CachePolicy::Lru);
        let t = SimTime::ZERO;
        c.fill(t, oid(0), 1000, 0);
        assert_eq!(c.stats().fills, 0);
        assert_eq!(c.resident(), (0, 0));
        assert!(c.lookup(t, oid(0), 1000, 0).is_none());
    }
}
