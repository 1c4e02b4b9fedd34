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
//!
//! ## Residency
//!
//! A tier names an object by its slot in the shard's store
//! ([`ObjectStore::resolve`]) and maps slots to resident nodes through
//! one vector laid out for every stored object. Every recency order is
//! one instance of one index-linked list type: the node order (LRU,
//! CLOCK), each group's member list and the group order (group-aware).

use skipper_sim::SimTime;

use crate::object::GroupId;
use crate::store::{transfer_time, ObjectStore};

/// Default DRAM tier read bandwidth (one service pipe): 4 GiB/s.
pub(crate) const DRAM_BANDWIDTH_BYTES_PER_SEC: f64 = 4.0 * (1u64 << 30) as f64;

/// Default SSD tier read bandwidth (one service pipe): 500 MB/s.
pub(crate) const SSD_BANDWIDTH_BYTES_PER_SEC: f64 = 500e6;

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
    pub(crate) fn disabled() -> Self {
        TierConfig::new(0, 0.0)
    }

    /// True when the tier can hold at least one byte.
    pub(crate) fn enabled(&self) -> bool {
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
    /// Objects inserted on miss delivery (a refill of a resident object
    /// touches it and is not one).
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

/// The end of a [`List`], or a store slot with no resident node.
const NIL: u32 = u32::MAX;

/// One entry's neighbours in the [`List`] it is on.
#[derive(Clone, Copy, Debug)]
struct Links {
    prev: u32,
    next: u32,
}

/// A doubly linked recency order over the entries of a slab, most
/// recent first. The links live in the entries themselves ([`AsMut`]),
/// so a list is just its two ends: the recency order and each group's
/// members over a tier's nodes, the group order over its groups.
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn unlink<T: AsMut<Links>>(&mut self, slab: &mut [T], at: u32) {
        let Links { prev, next } = *slab[at as usize].as_mut();
        match prev {
            NIL => self.head = next,
            prev => slab[prev as usize].as_mut().next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => slab[next as usize].as_mut().prev = prev,
        }
    }

    fn push_front<T: AsMut<Links>>(&mut self, slab: &mut [T], at: u32) {
        *slab[at as usize].as_mut() = Links {
            prev: NIL,
            next: self.head,
        };
        match self.head {
            NIL => self.tail = at,
            head => slab[head as usize].as_mut().prev = at,
        }
        self.head = at;
    }

    fn move_to_front<T: AsMut<Links>>(&mut self, slab: &mut [T], at: u32) {
        if self.head != at {
            self.unlink(slab, at);
            self.push_front(slab, at);
        }
    }
}

/// One resident object. Its links place it on the tier's recency order
/// (LRU, CLOCK) or on its group's member list (group-aware): a policy
/// keeps each node on exactly one of the two.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// The object's store slot.
    slot: u32,
    bytes: u64,
    group: GroupId,
    links: Links,
    /// CLOCK reference bit.
    referenced: bool,
}

impl AsMut<Links> for Node {
    fn as_mut(&mut self) -> &mut Links {
        &mut self.links
    }
}

/// One disk group of a group-aware tier: its resident members, and its
/// place in the group order while it has any.
#[derive(Clone, Copy, Debug)]
struct Group {
    members: List,
    order: Links,
}

impl Group {
    const EMPTY: Group = Group {
        members: List::EMPTY,
        order: Links {
            prev: NIL,
            next: NIL,
        },
    };
}

impl AsMut<Links> for Group {
    fn as_mut(&mut self) -> &mut Links {
        &mut self.order
    }
}

/// One cache tier: a capacity-bounded residency set over a slab of
/// nodes, plus the serialized bandwidth pipe. Residency is keyed by
/// store slot through an index laid out once for every object the
/// shard stores, and each recency order is one [`List`]. All operations
/// are allocation-free once the slab has grown to its peak population.
struct Tier {
    capacity: u64,
    bandwidth: f64,
    policy: CachePolicy,
    used: u64,
    /// Instant the tier's service pipe is next free.
    free_at: SimTime,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Store slot → resident node, [`NIL`] when absent.
    index: Vec<u32>,
    /// Node recency order (LRU and CLOCK).
    recency: List,
    /// Per [`GroupId`] (group-aware policy).
    groups: Vec<Group>,
    /// Order of the groups with a resident member (group-aware policy).
    group_order: List,
}

impl Tier {
    /// A tier in front of a store of `objects` objects in `groups`
    /// groups.
    fn new(config: TierConfig, policy: CachePolicy, objects: usize, groups: usize) -> Tier {
        Tier {
            capacity: config.capacity_bytes,
            bandwidth: config.bandwidth_bytes_per_sec,
            policy,
            used: 0,
            free_at: SimTime::ZERO,
            nodes: Vec::new(),
            free: Vec::new(),
            index: vec![NIL; objects],
            recency: List::EMPTY,
            groups: vec![Group::EMPTY; groups],
            group_order: List::EMPTY,
        }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
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

    /// Records a hit on store slot `slot` (recency update per policy);
    /// returns whether the object is resident.
    fn touch(&mut self, slot: u32) -> bool {
        let node = self.index[slot as usize];
        if node == NIL {
            return false;
        }
        match self.policy {
            CachePolicy::Lru => self.recency.move_to_front(&mut self.nodes, node),
            CachePolicy::Clock => self.nodes[node as usize].referenced = true,
            CachePolicy::GroupAware => {
                let group = self.nodes[node as usize].group;
                self.groups[group as usize]
                    .members
                    .move_to_front(&mut self.nodes, node);
                self.group_order.move_to_front(&mut self.groups, group);
            }
        }
        true
    }

    /// Picks the victim node per policy. Caller guarantees the tier is
    /// non-empty.
    fn victim(&mut self) -> u32 {
        match self.policy {
            CachePolicy::Lru => self.recency.tail,
            CachePolicy::Clock => loop {
                // Second chance: rotate referenced tail entries back to
                // the front with the bit cleared. Each pass clears one
                // bit, so this terminates within one lap.
                let tail = self.recency.tail;
                debug_assert!(tail != NIL, "victim() on an empty tier");
                let node = &mut self.nodes[tail as usize];
                if !node.referenced {
                    return tail;
                }
                node.referenced = false;
                self.recency.move_to_front(&mut self.nodes, tail);
            },
            CachePolicy::GroupAware => self.groups[self.group_order.tail as usize].members.tail,
        }
    }

    /// Takes `node` off its policy's order(s) and out of the tier, and
    /// returns its `(slot, bytes, group)`.
    fn remove_node(&mut self, node: u32) -> (u32, u64, GroupId) {
        let n = self.nodes[node as usize];
        if self.policy == CachePolicy::GroupAware {
            let members = &mut self.groups[n.group as usize].members;
            members.unlink(&mut self.nodes, node);
            if members.head == NIL {
                self.group_order.unlink(&mut self.groups, n.group);
            }
        } else {
            self.recency.unlink(&mut self.nodes, node);
        }
        self.index[n.slot as usize] = NIL;
        self.used -= n.bytes;
        self.free.push(node);
        (n.slot, n.bytes, n.group)
    }

    /// Removes the resident object at `slot` (promotion exclusivity).
    fn remove(&mut self, slot: u32) {
        self.remove_node(self.index[slot as usize]);
    }

    /// Inserts `slot`, which the tier does not hold, at the MRU position,
    /// evicting per policy until it fits; evicted objects are appended
    /// to `evicted`. Returns `false` (inserting nothing, evicting
    /// nothing) when `bytes` exceeds the whole tier.
    fn insert(
        &mut self,
        slot: u32,
        bytes: u64,
        group: GroupId,
        evicted: &mut Vec<(u32, u64, GroupId)>,
    ) -> bool {
        debug_assert_eq!(
            self.index[slot as usize], NIL,
            "insert of a resident object"
        );
        if bytes > self.capacity {
            return false;
        }
        while self.used + bytes > self.capacity {
            let victim = self.victim();
            evicted.push(self.remove_node(victim));
        }
        let n = Node {
            slot,
            bytes,
            group,
            links: Links {
                prev: NIL,
                next: NIL,
            },
            referenced: false,
        };
        let node = match self.free.pop() {
            Some(node) => {
                self.nodes[node as usize] = n;
                node
            }
            None => {
                self.nodes.push(n);
                u32::try_from(self.nodes.len() - 1).expect("cache slab fits u32")
            }
        };
        self.index[slot as usize] = node;
        self.used += bytes;
        if self.policy == CachePolicy::GroupAware {
            let members = &mut self.groups[group as usize].members;
            let first = members.head == NIL;
            members.push_front(&mut self.nodes, node);
            if first {
                self.group_order.push_front(&mut self.groups, group);
            } else {
                self.group_order.move_to_front(&mut self.groups, group);
            }
        } else {
            self.recency.push_front(&mut self.nodes, node);
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
        self.index.fill(NIL);
        self.recency = List::EMPTY;
        self.groups.fill(Group::EMPTY);
        self.group_order = List::EMPTY;
    }
}

/// The per-shard cache state machine: a DRAM tier over an SSD tier,
/// with hits reserving tier bandwidth, SSD hits promoting, DRAM
/// evictions demoting (write-backs on the SSD pipe), and full
/// hit/miss/fill accounting. Pure state — the runtime's pump owns
/// delivery scheduling and crash wiring. Objects are named by their
/// slot in the shard's store ([`ObjectStore::resolve`]).
pub struct ShardCache {
    dram: Tier,
    ssd: Tier,
    stats: CacheStats,
    /// Reusable eviction scratch (DRAM evictions per insert).
    evict_scratch: Vec<(u32, u64, GroupId)>,
    /// Reusable eviction scratch (SSD evictions per demotion).
    drop_scratch: Vec<(u32, u64, GroupId)>,
}

impl ShardCache {
    /// Builds the cache in front of `store`, or `None` for a disabled
    /// config — the caller keeps `None` on the hot path so zero
    /// capacity is byte-exactly the uncached machine. Each tier indexes
    /// residency by store slot, one entry per stored object, so filling
    /// the tiers never grows it.
    pub fn new<P>(config: CacheConfig, store: &ObjectStore<P>) -> Option<ShardCache> {
        if !config.enabled() {
            return None;
        }
        let groups = store.iter_meta().map(|m| m.group as usize + 1).max();
        let tier = |c| Tier::new(c, config.policy, store.len(), groups.unwrap_or(0));
        Some(ShardCache {
            dram: tier(config.dram),
            ssd: tier(config.ssd),
            stats: CacheStats::default(),
            evict_scratch: Vec::new(),
            drop_scratch: Vec::new(),
        })
    }

    /// Consults the tiers for the object at store slot `slot`: on a
    /// hit, reserves the serving tier's pipe and returns the
    /// delivery-ready instant (an SSD hit also promotes the object to
    /// DRAM); on a miss returns `None` and the caller forwards the GET
    /// to the CSD.
    pub fn lookup(
        &mut self,
        now: SimTime,
        slot: u32,
        bytes: u64,
        group: GroupId,
    ) -> Option<SimTime> {
        if self.dram.touch(slot) {
            self.stats.dram_hits += 1;
            self.stats.hit_bytes += bytes;
            return Some(self.dram.reserve(now, bytes));
        }
        if self.ssd.touch(slot) {
            self.stats.ssd_hits += 1;
            self.stats.hit_bytes += bytes;
            let ready = self.ssd.reserve(now, bytes);
            if self.dram.enabled() && bytes <= self.dram.capacity {
                self.ssd.remove(slot);
                self.stats.promotions += 1;
                self.insert_dram(now, slot, bytes, group);
            }
            return Some(ready);
        }
        self.stats.misses += 1;
        None
    }

    /// Fills the hierarchy with the object at store slot `slot` after a
    /// miss delivery: the object enters the top enabled tier; DRAM
    /// evictions demote into SSD as write-backs on the SSD pipe; SSD
    /// evictions leave the hierarchy.
    pub fn fill(&mut self, now: SimTime, slot: u32, bytes: u64, group: GroupId) {
        // A refill of an object the top tier holds only touches it.
        let inserted = if self.dram.enabled() {
            !self.dram.touch(slot) && self.insert_dram(now, slot, bytes, group)
        } else {
            self.drop_scratch.clear();
            let inserted = !self.ssd.touch(slot)
                && self.ssd.insert(slot, bytes, group, &mut self.drop_scratch);
            self.stats.evictions += self.drop_scratch.len() as u64;
            inserted
        };
        self.stats.fills += inserted as u64;
    }

    /// Inserts an object DRAM does not hold, demoting evictions into
    /// SSD. Returns whether it was inserted.
    fn insert_dram(&mut self, now: SimTime, slot: u32, bytes: u64, group: GroupId) -> bool {
        self.evict_scratch.clear();
        let inserted = self
            .dram
            .insert(slot, bytes, group, &mut self.evict_scratch);
        for i in 0..self.evict_scratch.len() {
            let (eslot, ebytes, egroup) = self.evict_scratch[i];
            if self.ssd.enabled() {
                self.drop_scratch.clear();
                // An object SSD already holds is touched there instead.
                if self.ssd.touch(eslot)
                    || self
                        .ssd
                        .insert(eslot, ebytes, egroup, &mut self.drop_scratch)
                {
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

    /// Resident objects per tier `(dram, ssd)`.
    #[cfg(test)]
    pub(crate) fn resident(&self) -> (usize, usize) {
        (self.dram.len(), self.ssd.len())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::object::ObjectId;

    /// The store slot of the unit tests' object `seg` (see [`cache`]).
    fn slot(seg: u32) -> u32 {
        seg
    }

    /// A cache in front of a store of the 16 objects the unit tests
    /// use, `seg` at slot `seg`, over the groups 0..3 they pass.
    fn cache(config: CacheConfig) -> Option<ShardCache> {
        let mut store = ObjectStore::<()>::new();
        for seg in 0..16 {
            store.put(ObjectId::new(0, 0, seg), 100, seg % 3, ());
        }
        ShardCache::new(config, &store)
    }

    fn dram_cache(capacity: u64, policy: CachePolicy) -> ShardCache {
        cache(CacheConfig {
            dram: TierConfig::new(capacity, 100.0), // 100 B/s: easy math
            ssd: TierConfig::disabled(),
            policy,
        })
        .expect("enabled config")
    }

    #[test]
    fn disabled_config_builds_no_cache() {
        assert!(cache(CacheConfig::disabled()).is_none());
        assert!(cache(CacheConfig::dram_only(0)).is_none());
        assert!(cache(CacheConfig::dram_only(1)).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = dram_cache(300, CachePolicy::Lru);
        let t = SimTime::ZERO;
        for seg in 0..3 {
            c.fill(t, slot(seg), 100, 0);
        }
        // Touch 0 so 1 becomes the LRU victim.
        assert!(c.lookup(t, slot(0), 100, 0).is_some());
        c.fill(t, slot(3), 100, 0);
        assert!(c.lookup(t, slot(1), 100, 0).is_none(), "LRU victim evicted");
        assert!(c.lookup(t, slot(0), 100, 0).is_some());
        assert!(c.lookup(t, slot(3), 100, 0).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let mut c = dram_cache(300, CachePolicy::Clock);
        let t = SimTime::ZERO;
        for seg in 0..3 {
            c.fill(t, slot(seg), 100, 0);
        }
        // Reference 0 (the would-be victim): CLOCK must skip it.
        assert!(c.lookup(t, slot(0), 100, 0).is_some());
        c.fill(t, slot(3), 100, 0);
        assert!(
            c.lookup(t, slot(0), 100, 0).is_some(),
            "referenced survives"
        );
        assert!(
            c.lookup(t, slot(1), 100, 0).is_none(),
            "unreferenced evicted"
        );
    }

    #[test]
    fn group_aware_keeps_the_hot_group_resident() {
        let mut c = dram_cache(400, CachePolicy::GroupAware);
        let t = SimTime::ZERO;
        // Group 0: objects 0,1 — filled first; group 1: objects 10,11.
        c.fill(t, slot(0), 100, 0);
        c.fill(t, slot(1), 100, 0);
        c.fill(t, slot(10), 100, 1);
        c.fill(t, slot(11), 100, 1);
        // Touch ONE object of group 0: under plain LRU object 1 (group
        // 0) would be the victim; group-aware recency protects the
        // whole group and evicts from group 1 instead.
        assert!(c.lookup(t, slot(0), 100, 0).is_some());
        c.fill(t, slot(2), 100, 0);
        assert!(c.lookup(t, slot(1), 100, 0).is_some(), "whole group stays");
        assert!(c.lookup(t, slot(10), 100, 1).is_none(), "cold group pays");
    }

    #[test]
    fn hits_serialize_on_the_tier_pipe() {
        let mut c = dram_cache(300, CachePolicy::Lru);
        let t = SimTime::ZERO;
        c.fill(t, slot(0), 100, 0);
        c.fill(t, slot(1), 100, 0);
        // 100 bytes at 100 B/s = 1 s each; the second hit queues behind
        // the first on the single pipe.
        let first = c.lookup(t, slot(0), 100, 0).expect("hit");
        let second = c.lookup(t, slot(1), 100, 0).expect("hit");
        assert_eq!(first, SimTime::from_secs(1));
        assert_eq!(second, SimTime::from_secs(2));
    }

    #[test]
    fn dram_evictions_demote_and_charge_the_ssd_pipe() {
        let mut c = cache(CacheConfig {
            dram: TierConfig::new(100, 100.0),
            ssd: TierConfig::new(200, 100.0),
            policy: CachePolicy::Lru,
        })
        .expect("enabled");
        let t = SimTime::ZERO;
        c.fill(t, slot(0), 100, 0);
        c.fill(t, slot(1), 100, 0); // evicts 0 from DRAM → demotes to SSD
        assert_eq!(c.stats().demotions, 1);
        assert_eq!(c.stats().writeback_bytes, 100);
        // The SSD hit must queue behind the 1 s write-back.
        let ready = c.lookup(t, slot(0), 100, 0).expect("SSD hit");
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
                if c.lookup(t, slot(seg), 100, seg % 2).is_none() {
                    c.fill(t, slot(seg), 100, seg % 2);
                }
            }
        }
        // Two GETs of one object miss before either delivery fills it:
        // the second fill is a refill, not an insertion.
        for _ in 0..2 {
            lookups += 1;
            assert!(c.lookup(t, slot(9), 100, 1).is_none());
        }
        c.fill(t, slot(9), 100, 1);
        c.fill(t, slot(9), 100, 1);
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
            c.fill(t, slot(seg), 100, seg % 3);
        }
        c.invalidate_all();
        assert_eq!(c.resident(), (0, 0));
        assert_eq!(c.stats().invalidations, 1);
        for seg in 0..5 {
            assert!(c.lookup(t, slot(seg), 100, seg % 3).is_none());
        }
    }

    #[test]
    fn oversized_objects_bypass_the_tier() {
        let mut c = dram_cache(100, CachePolicy::Lru);
        let t = SimTime::ZERO;
        c.fill(t, slot(0), 1000, 0);
        assert_eq!(c.stats().fills, 0);
        assert_eq!(c.resident(), (0, 0));
        assert!(c.lookup(t, slot(0), 1000, 0).is_none());
    }

    #[test]
    fn tier_index_is_sized_to_the_store_not_its_layout() {
        // Laid out for 64 tenants x 4 tables x 500 segments, holding 3.
        let mut store = ObjectStore::<()>::with_extents(&vec![vec![500; 4]; 64], 3);
        for seg in 0..3 {
            store.put(ObjectId::new(7, 2, 100 * seg), 100, seg, ());
        }
        let c = ShardCache::new(CacheConfig::two_tier(1000, 1000), &store).expect("enabled");
        assert_eq!((c.dram.index.len(), c.ssd.index.len()), (3, 3));
    }

    /// Bytes of the differential test's object `key`: keys 13 and 29
    /// exceed its DRAM tier but fit its SSD tier, key 37 exceeds both.
    fn naive_bytes(key: u32) -> u64 {
        match key {
            13 | 29 => 500,
            37 => 900,
            _ => [60, 90, 150, 220][key as usize % 4],
        }
    }

    fn naive_group(key: u32) -> GroupId {
        key % 5
    }

    /// The reference tier: each recency order is a `VecDeque`, most
    /// recent first, searched linearly. A group's members are its keys
    /// in `order`, in that order; `groups` is the group order.
    #[derive(Default)]
    struct NaiveTier {
        capacity: u64,
        bandwidth: f64,
        policy: CachePolicy,
        free_at: SimTime,
        order: VecDeque<(u32, bool)>,
        groups: VecDeque<GroupId>,
    }

    impl NaiveTier {
        fn reserve(&mut self, now: SimTime, bytes: u64) -> SimTime {
            self.free_at = now.max(self.free_at) + transfer_time(bytes, self.bandwidth);
            self.free_at
        }

        fn touch(&mut self, key: u32) -> bool {
            let Some(i) = self.order.iter().position(|e| e.0 == key) else {
                return false;
            };
            if self.policy == CachePolicy::Clock {
                self.order[i].1 = true;
            } else {
                self.order.remove(i);
                self.order.push_front((key, false));
                self.groups.retain(|&g| g != naive_group(key));
                self.groups.push_front(naive_group(key));
            }
            true
        }

        fn victim(&mut self) -> u32 {
            let coldest = self.groups.back().copied();
            loop {
                let (key, referenced) = *self.order.back().expect("non-empty tier");
                match self.policy {
                    CachePolicy::GroupAware => {
                        let mut members = self.order.iter().rev().map(|e| e.0);
                        return members
                            .find(|&k| Some(naive_group(k)) == coldest)
                            .expect("member");
                    }
                    CachePolicy::Clock if referenced => {
                        self.order.pop_back();
                        self.order.push_front((key, false));
                    }
                    _ => return key,
                }
            }
        }

        fn remove(&mut self, key: u32) {
            self.order.retain(|e| e.0 != key);
            let group = naive_group(key);
            if !self.order.iter().any(|e| naive_group(e.0) == group) {
                self.groups.retain(|&g| g != group);
            }
        }

        /// Inserts `key` (touching it when resident) and returns its
        /// victims, or `None` when `key` exceeds the tier.
        fn insert(&mut self, key: u32) -> Option<Vec<u32>> {
            let bytes = naive_bytes(key);
            let mut victims = Vec::new();
            if bytes > self.capacity || self.touch(key) {
                return (bytes <= self.capacity).then_some(victims);
            }
            while self.order.iter().map(|e| naive_bytes(e.0)).sum::<u64>() + bytes > self.capacity {
                victims.push(self.victim());
                self.remove(victims[victims.len() - 1]);
            }
            self.order.push_front((key, false));
            self.groups.retain(|&g| g != naive_group(key));
            self.groups.push_front(naive_group(key));
            Some(victims)
        }
    }

    /// The reference shard cache over two [`NaiveTier`]s.
    struct Naive {
        dram: NaiveTier,
        ssd: NaiveTier,
        stats: CacheStats,
    }

    impl Naive {
        fn lookup(&mut self, now: SimTime, key: u32) -> Option<SimTime> {
            let bytes = naive_bytes(key);
            if self.dram.touch(key) {
                self.stats.dram_hits += 1;
                self.stats.hit_bytes += bytes;
                return Some(self.dram.reserve(now, bytes));
            }
            if self.ssd.touch(key) {
                self.stats.ssd_hits += 1;
                self.stats.hit_bytes += bytes;
                let ready = self.ssd.reserve(now, bytes);
                if bytes <= self.dram.capacity {
                    self.ssd.remove(key);
                    self.stats.promotions += 1;
                    self.insert_dram(now, key);
                }
                return Some(ready);
            }
            self.stats.misses += 1;
            None
        }

        fn fill(&mut self, now: SimTime, key: u32) {
            let top = if self.dram.capacity > 0 {
                &self.dram
            } else {
                &self.ssd
            };
            let refill = top.order.iter().any(|e| e.0 == key);
            let filled = if self.dram.capacity > 0 {
                self.insert_dram(now, key)
            } else {
                let dropped = self.ssd.insert(key);
                self.stats.evictions += dropped.as_ref().map_or(0, Vec::len) as u64;
                dropped.is_some()
            };
            self.stats.fills += (filled && !refill) as u64;
        }

        fn insert_dram(&mut self, now: SimTime, key: u32) -> bool {
            let Some(evicted) = self.dram.insert(key) else {
                return false;
            };
            for victim in evicted {
                match self.ssd.insert(victim) {
                    Some(dropped) => {
                        self.ssd.reserve(now, naive_bytes(victim));
                        self.stats.demotions += 1;
                        self.stats.writeback_bytes += naive_bytes(victim);
                        self.stats.evictions += dropped.len() as u64;
                    }
                    None => self.stats.evictions += 1,
                }
            }
            true
        }

        fn invalidate_all(&mut self) {
            for tier in [&mut self.dram, &mut self.ssd] {
                (tier.free_at, tier.order, tier.groups) = Default::default();
            }
            self.stats.invalidations += 1;
        }
    }

    #[test]
    fn agrees_with_a_naive_model_on_random_sequences() {
        // 40 objects of `naive_bytes` over 5 groups.
        let mut store = ObjectStore::<()>::new();
        let ids: Vec<ObjectId> = (0..40).map(|k| ObjectId::new(k as u16 % 3, 0, k)).collect();
        for (key, &id) in (0..).zip(&ids) {
            store.put(id, naive_bytes(key), naive_group(key), ());
        }
        let name = |key: u32| store.resolve(ids[key as usize]).expect("stored").0;
        let tiers = [
            (TierConfig::new(400, 100.0), TierConfig::disabled()),
            (TierConfig::disabled(), TierConfig::new(700, 50.0)),
            (TierConfig::new(400, 100.0), TierConfig::new(700, 50.0)),
        ];
        for policy in [
            CachePolicy::Lru,
            CachePolicy::Clock,
            CachePolicy::GroupAware,
        ] {
            for (dram, ssd) in tiers {
                for seed in 0..4u64 {
                    let config = CacheConfig { dram, ssd, policy };
                    let mut cache = ShardCache::new(config, &store).expect("enabled");
                    let tier = |c: TierConfig| NaiveTier {
                        capacity: c.capacity_bytes,
                        bandwidth: c.bandwidth_bytes_per_sec,
                        policy,
                        ..NaiveTier::default()
                    };
                    let mut model = Naive {
                        dram: tier(dram),
                        ssd: tier(ssd),
                        stats: CacheStats::default(),
                    };
                    let mut state = seed;
                    let mut now = SimTime::ZERO;
                    for step in 0..1500 {
                        let r = skipper_sim::rng::splitmix64(&mut state);
                        now = SimTime::from_micros(now.as_micros() + (r >> 40) % 3_000_000);
                        let key = (r >> 8) as u32 % 40;
                        let (bytes, group) = (naive_bytes(key), naive_group(key));
                        let at = format!("{policy:?} {dram:?}/{ssd:?} seed {seed} step {step}");
                        match r % 100 {
                            // A lookup, filled on a miss like a delivery.
                            0..=54 => {
                                let got = cache.lookup(now, name(key), bytes, group);
                                assert_eq!(got, model.lookup(now, key), "{at}");
                                if got.is_none() {
                                    cache.fill(now, name(key), bytes, group);
                                    model.fill(now, key);
                                }
                            }
                            // A fill without a lookup: often a refill.
                            55..=97 => {
                                cache.fill(now, name(key), bytes, group);
                                model.fill(now, key);
                            }
                            _ => {
                                cache.invalidate_all();
                                model.invalidate_all();
                            }
                        }
                        let resident = (model.dram.order.len(), model.ssd.order.len());
                        assert_eq!(cache.stats(), model.stats, "{at}");
                        assert_eq!(cache.resident(), resident, "{at}");
                    }
                }
            }
        }
    }
}
