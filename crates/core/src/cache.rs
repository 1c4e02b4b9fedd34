//! The MJoin buffer cache and its eviction policies (§4.2).
//!
//! MJoin under a cache smaller than the input must evict previously
//! fetched objects; evicted objects still needed by pending subplans are
//! refetched in the next reissue cycle, so the eviction policy directly
//! controls the GET-amplification curves of Figures 11b/11c. Two greedy
//! heuristics from the paper:
//!
//! * [`EvictionPolicy::MaxPendingSubplans`] — evict the object with the
//!   fewest pending subplans. The paper's first attempt; it can evict an
//!   object whose partners are all cached (stalling progress) while
//!   keeping one whose partners are long gone.
//! * [`EvictionPolicy::MaximalProgress`] — evict the object with the
//!   fewest *executable* subplans given the current cache contents plus
//!   the arriving object, breaking ties by pending count. This is the
//!   paper's final policy; it automatically pins small dimension tables
//!   (they participate in every subplan) — the star-schema-friendly side
//!   effect called out in §4.2.

use std::collections::BTreeMap;

use skipper_relational::ops::index::SegmentIndex;

use crate::subplan::{RelSeg, SubplanTracker, MAX_RELATIONS};

/// Cache-eviction policy selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the minimum-pending-subplans object (§4.2 first heuristic).
    MaxPendingSubplans,
    /// Evict the minimum-executable-subplans object, ties broken by
    /// pending count (§4.2 final heuristic).
    MaximalProgress,
}

impl EvictionPolicy {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::MaxPendingSubplans => "max-pending",
            EvictionPolicy::MaximalProgress => "max-progress",
        }
    }
}

/// A cached object: its hash indexes plus accounting size.
pub(crate) struct CacheSlot {
    /// Filter survivors + hash indexes, borrowed from the shared segment.
    pub index: SegmentIndex,
    /// Logical bytes charged against cache capacity.
    pub bytes: u64,
}

/// The MJoin buffer cache: capacity-bounded map from objects to their
/// per-segment hash indexes.
pub(crate) struct BufferCache {
    capacity_bytes: u64,
    used_bytes: u64,
    policy: EvictionPolicy,
    /// BTreeMap for deterministic iteration (stable victim tie-breaks).
    slots: BTreeMap<RelSeg, CacheSlot>,
    /// `by_rel[r]` — relation `r`'s cached segments, ascending; kept up
    /// to date by [`BufferCache::insert`] and [`BufferCache::remove`].
    by_rel: Vec<Vec<u32>>,
    /// Victim selection's executable counts, reused across arrivals.
    counts: Vec<u64>,
}

impl BufferCache {
    /// Creates a cache of `capacity_bytes` with the given policy, for a
    /// query over `num_relations` relations.
    pub(crate) fn new(num_relations: usize, capacity_bytes: u64, policy: EvictionPolicy) -> Self {
        BufferCache {
            capacity_bytes,
            used_bytes: 0,
            policy,
            slots: BTreeMap::new(),
            by_rel: vec![Vec::new(); num_relations],
            counts: Vec::new(),
        }
    }

    /// Capacity in bytes.
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently used.
    #[cfg(test)]
    pub(crate) fn used(&self) -> u64 {
        self.used_bytes
    }

    /// Number of cached objects.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `obj` is cached.
    pub(crate) fn contains(&self, obj: RelSeg) -> bool {
        self.slots.contains_key(&obj)
    }

    /// The cached index of `obj`.
    ///
    /// # Panics
    /// Panics if absent — subplan execution only references cached
    /// objects.
    #[allow(clippy::should_implement_trait)] // returns a SegmentIndex, not Output
    pub(crate) fn index(&self, obj: RelSeg) -> &SegmentIndex {
        &self
            .slots
            .get(&obj)
            .unwrap_or_else(|| panic!("object {obj:?} not cached"))
            .index
    }

    /// Cached segments grouped by relation (`out[r]` sorted ascending).
    pub(crate) fn cached_by_rel(&self) -> &[Vec<u32>] {
        &self.by_rel
    }

    /// Selects eviction victims to make room for `incoming` of
    /// `incoming_bytes`, consulting `tracker` per the configured policy,
    /// into `victims` (cleared first). Victims are chosen one at a time
    /// with scores recomputed after each choice (objects are usually
    /// equal-sized, so this is typically a single round). `pinned`
    /// objects are never evicted (the state manager pins the target
    /// subplan's members during degraded single-subplan cycles). Does not
    /// change what is cached.
    ///
    /// # Panics
    /// Panics if the cache cannot fit the incoming object even after
    /// evicting every unpinned entry — the paper requires capacity ≥ R
    /// objects, which always leaves room for one pinned combination.
    pub(crate) fn select_victims(
        &mut self,
        tracker: &SubplanTracker,
        incoming: RelSeg,
        incoming_bytes: u64,
        pinned: &[RelSeg],
        victims: &mut Vec<RelSeg>,
    ) {
        victims.clear();
        let mut freed = 0u64;
        while self.used_bytes - freed + incoming_bytes > self.capacity_bytes {
            // Remaining objects: not already chosen, not pinned.
            let remains = |o: &RelSeg| !victims.contains(o) && !pinned.contains(o);
            // Progress guard: evicting a relation's *only* cached segment
            // stalls every subplan (the paper's B.1 failure in §4.2) and,
            // since reissue cycles are deterministic, can livelock the
            // query at tight caches. A relation's sole representative is
            // therefore protected — unless the incoming object belongs to
            // the same relation and simply replaces it, or every
            // remaining object is one.
            let mut per_rel = [0usize; MAX_RELATIONS];
            for &(rel, _) in self.slots.keys().filter(|o| remains(o)) {
                per_rel[rel] += 1;
            }
            let unguarded = |&(rel, _): &RelSeg| rel == incoming.0 || per_rel[rel] > 1;
            let any_unguarded = self.slots.keys().any(|o| remains(o) && unguarded(o));
            let candidate = |o: &RelSeg| remains(o) && (!any_unguarded || unguarded(o));
            let victim = match self.policy {
                EvictionPolicy::MaxPendingSubplans => self
                    .slots
                    .keys()
                    .copied()
                    .filter(candidate)
                    .min_by_key(|&o| (tracker.pending_count(o), o)),
                EvictionPolicy::MaximalProgress => {
                    // Score against the cache minus already-chosen victims,
                    // plus the incoming object.
                    let shrunk: Vec<Vec<u32>>;
                    let cached = if victims.is_empty() {
                        &self.by_rel
                    } else {
                        let mut rest = self.by_rel.clone();
                        for &(rel, seg) in victims.iter() {
                            rest[rel].retain(|&s| s != seg);
                        }
                        shrunk = rest;
                        &shrunk
                    };
                    tracker.executable_counts(cached, Some(incoming), &mut self.counts);
                    let objects = cached
                        .iter()
                        .enumerate()
                        .flat_map(|(rel, segs)| segs.iter().map(move |&seg| (rel, seg)));
                    objects
                        .zip(&self.counts)
                        .filter(|(o, _)| candidate(o))
                        .min_by_key(|&(o, &e)| (e, tracker.pending_count(o), o))
                        .map(|(o, _)| o)
                }
            };
            let victim = victim.unwrap_or_else(|| {
                panic!(
                    "cache capacity {}B cannot hold object of {}B — the MJoin \
                     cache must hold at least one object per relation",
                    self.capacity_bytes, incoming_bytes
                )
            });
            freed += self.slots[&victim].bytes;
            victims.push(victim);
        }
    }

    /// Inserts `obj`; the caller must have made room first.
    ///
    /// # Panics
    /// Panics on duplicate insertion or capacity overflow.
    pub(crate) fn insert(&mut self, obj: RelSeg, slot: CacheSlot) {
        assert!(
            self.used_bytes + slot.bytes <= self.capacity_bytes,
            "cache overflow inserting {obj:?}"
        );
        self.used_bytes += slot.bytes;
        let prev = self.slots.insert(obj, slot);
        assert!(prev.is_none(), "object {obj:?} cached twice");
        let segs = &mut self.by_rel[obj.0];
        let at = segs.binary_search(&obj.1).unwrap_err();
        segs.insert(at, obj.1);
    }

    /// Removes `obj`, returning its slot.
    ///
    /// # Panics
    /// Panics if absent.
    pub(crate) fn remove(&mut self, obj: RelSeg) -> CacheSlot {
        let slot = self
            .slots
            .remove(&obj)
            .unwrap_or_else(|| panic!("evicting uncached object {obj:?}"));
        self.used_bytes -= slot.bytes;
        let segs = &mut self.by_rel[obj.0];
        let at = segs
            .binary_search(&obj.1)
            .expect("a cached object is listed");
        segs.remove(at);
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_relational::row;
    use skipper_relational::schema::{DataType, Schema};
    use skipper_relational::segment::Segment;
    use std::sync::Arc;

    /// The victims `cache` selects to admit `incoming`.
    fn victims(
        cache: &mut BufferCache,
        tracker: &SubplanTracker,
        incoming: RelSeg,
        bytes: u64,
        pinned: &[RelSeg],
    ) -> Vec<RelSeg> {
        let mut out = Vec::new();
        cache.select_victims(tracker, incoming, bytes, pinned, &mut out);
        out
    }

    fn slot(bytes: u64) -> CacheSlot {
        let seg =
            Arc::new(Segment::new(Schema::of(&[("k", DataType::Int)]), vec![row![1i64]]).unwrap());
        CacheSlot {
            index: SegmentIndex::build(&seg, None, &[0]),
            bytes,
        }
    }

    /// Rebuilds the paper's §4.2 walk-through state: cache
    /// {A.1, B.1, A.2, C.3} of capacity 4 (unit-sized objects), executed
    /// {<A.1,B.1,C.3>, <A.2,B.1,C.3>}, arriving C.1.
    fn paper_state() -> (BufferCache, SubplanTracker) {
        let mut tracker = SubplanTracker::new(&[2, 2, 2]);
        tracker.mark_executed(&[0, 0, 1]);
        tracker.mark_executed(&[1, 0, 1]);
        let mut cache = BufferCache::new(3, 4, EvictionPolicy::MaximalProgress);
        for obj in [(0usize, 0u32), (1, 0), (0, 1), (2, 1)] {
            cache.insert(obj, slot(1));
        }
        (cache, tracker)
    }

    #[test]
    fn paper_example_maximal_progress_evicts_c3() {
        let (mut cache, tracker) = paper_state();
        // "this policy would pick C.3 as the eviction candidate since it
        // has the lowest number of executable plans".
        assert_eq!(victims(&mut cache, &tracker, (2, 0), 1, &[]), [(2, 1)]);
    }

    #[test]
    fn paper_example_max_pending_protected_from_b1_stall() {
        let (mut cache, tracker) = paper_state();
        cache.policy = EvictionPolicy::MaxPendingSubplans;
        // Pending counts tie B.1 and C.3 at 2. The paper uses this very
        // case to show max-pending can evict B.1 and stall MJoin (no B
        // object would remain); the progress guard removes B.1 — the sole
        // cached B segment — from the candidate set, so C.3 is evicted.
        assert_eq!(victims(&mut cache, &tracker, (2, 0), 1, &[]), [(2, 1)]);
    }

    #[test]
    fn sole_representative_of_incoming_relation_is_evictable() {
        // Cache of one object per relation (the C = R minimum): an
        // arriving segment of relation 0 replaces relation 0's cached
        // segment, never a partner's sole representative.
        let tracker = SubplanTracker::new(&[3, 1, 1]);
        let mut cache = BufferCache::new(3, 3, EvictionPolicy::MaxPendingSubplans);
        cache.insert((0, 0), slot(1));
        cache.insert((1, 0), slot(1));
        cache.insert((2, 0), slot(1));
        assert_eq!(victims(&mut cache, &tracker, (0, 1), 1, &[]), [(0, 0)]);
    }

    #[test]
    fn maximal_progress_pins_dimension_tables() {
        // Star schema: fact with 4 segments, two 1-segment dims. The dims
        // participate in every subplan; the policy must evict fact
        // segments first.
        let mut tracker = SubplanTracker::new(&[4, 1, 1]);
        tracker.mark_executed(&[0, 0, 0]);
        tracker.mark_executed(&[1, 0, 0]);
        let mut cache = BufferCache::new(3, 4, EvictionPolicy::MaximalProgress);
        cache.insert((0, 0), slot(1));
        cache.insert((0, 1), slot(1));
        cache.insert((1, 0), slot(1));
        cache.insert((2, 0), slot(1));
        let victims = victims(&mut cache, &tracker, (0, 2), 1, &[]);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].0, 0, "must evict a fact segment, not a dim");
    }

    #[test]
    fn multi_victim_eviction_recomputes() {
        let tracker = SubplanTracker::new(&[3, 1]);
        let mut cache = BufferCache::new(2, 4, EvictionPolicy::MaximalProgress);
        cache.insert((0, 0), slot(2));
        cache.insert((0, 1), slot(1));
        cache.insert((1, 0), slot(1));
        // Incoming needs 3 bytes: must evict two fact segments.
        let victims = victims(&mut cache, &tracker, (0, 2), 3, &[]);
        assert_eq!(victims.len(), 2);
        assert!(victims.iter().all(|v| v.0 == 0));
    }

    #[test]
    fn multi_victim_eviction_pins_identity_and_order() {
        // Three rounds, each rescored against the cache minus the victims
        // already chosen: executed combinations and the newcomer shift
        // the executable counts between rounds.
        let mut tracker = SubplanTracker::new(&[4, 3]);
        for combo in [[0, 0], [1, 0], [1, 1], [2, 1], [2, 2]] {
            tracker.mark_executed(&combo);
        }
        // Victim identity *and* order are pinned: both feed the reissue
        // sequence, and with it every virtual-time result.
        let expected = [
            (
                EvictionPolicy::MaximalProgress,
                vec![(0, 1), (0, 2), (1, 0)],
                vec![(0, 2), (1, 0), (0, 0)],
            ),
            (
                EvictionPolicy::MaxPendingSubplans,
                vec![(0, 1), (0, 2), (0, 0)],
                vec![(0, 2), (0, 0)],
            ),
        ];
        for (policy, unpinned, with_pin) in expected {
            let mut cache = BufferCache::new(2, 7, policy);
            cache.insert((0, 0), slot(2));
            cache.insert((0, 1), slot(1));
            cache.insert((0, 2), slot(1));
            cache.insert((1, 0), slot(1));
            cache.insert((1, 1), slot(1));
            cache.insert((1, 2), slot(1));
            let got = victims(&mut cache, &tracker, (0, 3), 3, &[]);
            assert_eq!(got, unpinned, "{policy:?}");
            let got = victims(&mut cache, &tracker, (0, 3), 3, &[(0, 1)]);
            assert_eq!(got, with_pin, "{policy:?}, (0, 1) pinned");
        }
    }

    #[test]
    fn no_eviction_when_room() {
        let tracker = SubplanTracker::new(&[2, 1]);
        let mut cache = BufferCache::new(2, 10, EvictionPolicy::MaximalProgress);
        cache.insert((0, 0), slot(1));
        assert!(victims(&mut cache, &tracker, (0, 1), 1, &[]).is_empty());
    }

    #[test]
    fn accounting_roundtrip() {
        let mut cache = BufferCache::new(1, 10, EvictionPolicy::MaximalProgress);
        cache.insert((0, 0), slot(4));
        assert_eq!(cache.used(), 4);
        assert!(cache.contains((0, 0)));
        assert_eq!(cache.len(), 1);
        let s = cache.remove((0, 0));
        assert_eq!(s.bytes, 4);
        assert_eq!(cache.used(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_by_rel_sorted() {
        let mut cache = BufferCache::new(2, 10, EvictionPolicy::MaximalProgress);
        cache.insert((1, 5), slot(1));
        cache.insert((0, 2), slot(1));
        cache.insert((1, 1), slot(1));
        cache.insert((1, 3), slot(1));
        assert_eq!(cache.cached_by_rel(), [vec![2], vec![1, 3, 5]]);
        cache.remove((1, 3));
        cache.remove((0, 2));
        assert_eq!(cache.cached_by_rel(), [vec![], vec![1, 5]]);
    }

    #[test]
    #[should_panic(expected = "cannot hold object")]
    fn oversized_object_panics() {
        let tracker = SubplanTracker::new(&[1, 1]);
        let mut cache = BufferCache::new(2, 2, EvictionPolicy::MaximalProgress);
        victims(&mut cache, &tracker, (0, 0), 5, &[]);
    }

    #[test]
    #[should_panic(expected = "cached twice")]
    fn duplicate_insert_panics() {
        let mut cache = BufferCache::new(1, 10, EvictionPolicy::MaximalProgress);
        cache.insert((0, 0), slot(1));
        cache.insert((0, 0), slot(1));
    }
}
