//! Subplan bookkeeping for the cache-aware MJoin.
//!
//! A *subplan* is one choice of segment per relation (Table 2 of the
//! paper): joining tables A, B, C with 2, 2, 1 segments yields
//! 2×2×1 = 4 subplans, each of which can execute independently once all
//! of its segments are cached, and the union of their outputs equals the
//! full join. The state manager tracks which subplans are pending vs
//! executed, and the cache-eviction policies need two derived counts:
//!
//! * **pending count** of an object — how many pending subplans it
//!   participates in (the "maximal pending subplans" policy, and the
//!   tie-breaker of the final policy);
//! * **executable count** of an object — how many *new* subplans could
//!   execute given the current cache contents plus the newly arriving
//!   object (the "maximal progress" policy of §4.2).
//!
//! The tracker also implements the §5.2.4 *subplan pruning*
//! optimization: an object whose segment yields no tuples under the
//! query's filters can be pruned, removing every subplan containing it
//! (a 4-table join with 10 segments each drops 10³ subplans per pruned
//! object).
//!
//! Combinations are packed into a `u128` key (up to 8 relations × 16-bit
//! segment ids). Pruning scans the executed set; the executable counts
//! scan it or the cached cross product, whichever is smaller. Nothing
//! enumerates the full cross product.

use skipper_relational::hash::{FxHashMap, FxHashSet};

/// An object within a query: `(relation index, segment index)`.
pub(crate) type RelSeg = (usize, u32);

/// Packed subplan key: segment choice per relation, 16 bits each.
pub(crate) type SubplanKey = u128;

/// Maximum relations per query (u128 packing limit; the paper's widest
/// query, TPC-H Q5, has 6) — the join kernel's scratch width.
pub use skipper_relational::ops::nary::MAX_RELATIONS;

/// Tracks pending/executed subplans over the segment cross product.
pub struct SubplanTracker {
    seg_counts: Vec<u32>,
    /// `alive[r][s]` — segment not pruned.
    alive: Vec<Vec<bool>>,
    /// Live segments per relation.
    alive_counts: Vec<u64>,
    executed: FxHashSet<SubplanKey>,
    /// Executed subplans per object (only fully-alive combos counted).
    executed_per_object: FxHashMap<RelSeg, u64>,
}

impl SubplanTracker {
    /// Creates a tracker for a query whose relation `r` has
    /// `seg_counts[r]` segments.
    ///
    /// # Panics
    /// Panics on more than [`MAX_RELATIONS`] relations, zero-segment
    /// relations, or segment counts beyond 16 bits.
    pub fn new(seg_counts: &[u32]) -> Self {
        assert!(
            (1..=MAX_RELATIONS).contains(&seg_counts.len()),
            "subplan tracker supports 1..={MAX_RELATIONS} relations"
        );
        for &c in seg_counts {
            assert!(c > 0, "relation with zero segments");
            assert!(c <= u16::MAX as u32, "segment count exceeds 16-bit packing");
        }
        SubplanTracker {
            seg_counts: seg_counts.to_vec(),
            alive: seg_counts.iter().map(|&c| vec![true; c as usize]).collect(),
            alive_counts: seg_counts.iter().map(|&c| c as u64).collect(),
            executed: FxHashSet::default(),
            executed_per_object: FxHashMap::default(),
        }
    }

    /// Packs a combination (one segment per relation) into a key.
    pub(crate) fn pack(combo: &[u32]) -> SubplanKey {
        let mut key: SubplanKey = 0;
        for (r, &seg) in combo.iter().enumerate() {
            key |= (seg as SubplanKey) << (16 * r);
        }
        key
    }

    /// Relation `r`'s segment in a packed key.
    #[inline]
    pub fn segment_of(key: SubplanKey, r: usize) -> u32 {
        ((key >> (16 * r)) & 0xFFFF) as u32
    }

    /// Number of relations.
    pub(crate) fn num_relations(&self) -> usize {
        self.seg_counts.len()
    }

    /// Segment count of relation `r` (including pruned segments).
    pub fn seg_count(&self, r: usize) -> u32 {
        self.seg_counts[r]
    }

    /// Whether `(rel, seg)` is still alive (not pruned).
    pub(crate) fn is_alive(&self, obj: RelSeg) -> bool {
        self.alive[obj.0][obj.1 as usize]
    }

    /// Total subplans over live segments (`Π alive_r`).
    pub(crate) fn total_live_subplans(&self) -> u64 {
        self.alive_counts.iter().product()
    }

    /// Pending (live, unexecuted) subplans.
    pub fn pending_total(&self) -> u64 {
        self.total_live_subplans() - self.executed.len() as u64
    }

    /// True when every live subplan has executed — query complete.
    pub(crate) fn is_complete(&self) -> bool {
        self.pending_total() == 0
    }

    /// Number of pending subplans `obj` participates in; 0 for pruned
    /// objects.
    pub fn pending_count(&self, obj: RelSeg) -> u64 {
        if !self.is_alive(obj) {
            return 0;
        }
        let others: u64 = self
            .alive_counts
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != obj.0)
            .map(|(_, &c)| c)
            .product();
        others - self.executed_per_object.get(&obj).copied().unwrap_or(0)
    }

    /// Whether a combination has already executed.
    pub(crate) fn is_executed(&self, combo: &[u32]) -> bool {
        self.executed.contains(&Self::pack(combo))
    }

    /// Marks a combination executed. Returns `false` if it was already
    /// executed (callers treat double execution as a bug upstream).
    ///
    /// # Panics
    /// Panics if any coordinate is pruned — the state manager never
    /// caches pruned objects, so this indicates a bookkeeping bug.
    pub fn mark_executed(&mut self, combo: &[u32]) -> bool {
        assert_eq!(combo.len(), self.seg_counts.len());
        for (r, &seg) in combo.iter().enumerate() {
            assert!(
                self.alive[r][seg as usize],
                "executing subplan with pruned segment ({r}, {seg})"
            );
        }
        let key = Self::pack(combo);
        if !self.executed.insert(key) {
            return false;
        }
        for (r, &seg) in combo.iter().enumerate() {
            *self.executed_per_object.entry((r, seg)).or_insert(0) += 1;
        }
        true
    }

    /// Prunes `(rel, seg)`: every subplan containing it is removed from
    /// the pending space. Returns the number of *pending* subplans
    /// eliminated. Pruning an already-pruned object is a no-op returning
    /// 0.
    pub fn prune(&mut self, obj: RelSeg) -> u64 {
        let (rel, seg) = obj;
        if !self.alive[rel][seg as usize] {
            return 0;
        }
        let eliminated = self.pending_count(obj);
        self.alive[rel][seg as usize] = false;
        self.alive_counts[rel] -= 1;
        // Drop executed combos containing the object so per-object counts
        // stay consistent with the shrunken live space.
        let n = self.seg_counts.len();
        let per_object = &mut self.executed_per_object;
        self.executed.retain(|&key| {
            if Self::segment_of(key, rel) != seg {
                return true;
            }
            for r in 0..n {
                *per_object
                    .get_mut(&(r, Self::segment_of(key, r)))
                    .expect("executed object has a count") -= 1;
            }
            false
        });
        eliminated
    }

    /// The **maximal-progress** scores of §4.2: for every cached object,
    /// how many new subplans become executable given the cache contents
    /// plus `incoming`. `cached[r]` lists relation `r`'s cached segments
    /// (all alive, sorted ascending); `incoming` is the arriving object
    /// (counted as present but not scored).
    ///
    /// Written to `out` (cleared first), one count per object of
    /// `cached`, relation by relation, each in `cached[r]`'s order.
    pub(crate) fn executable_counts(
        &self,
        cached: &[Vec<u32>],
        incoming: Option<RelSeg>,
        out: &mut Vec<u64>,
    ) {
        let n = self.seg_counts.len();
        assert_eq!(cached.len(), n);
        debug_assert!(cached.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
        // The effective cache is `cached` plus the newcomer.
        let mut sizes = [0u64; MAX_RELATIONS];
        for (size, segs) in sizes.iter_mut().zip(cached) {
            *size = segs.len() as u64;
        }
        if let Some((r, s)) = incoming {
            if cached[r].binary_search(&s).is_err() {
                sizes[r] += 1;
            }
        }

        // Executed combos fully inside the effective cache, counted per
        // cached coordinate (`offsets[r]` + position in `cached[r]`), by
        // enumerating the cached cross product when it is smaller than
        // the executed set, else in one pass over the executed set.
        let mut offsets = [0usize; MAX_RELATIONS];
        let mut total = 0;
        for (offset, segs) in offsets.iter_mut().zip(cached) {
            *offset = total;
            total += segs.len();
        }
        out.clear();
        out.resize(total, 0);
        let executed_in_cache = out;
        let product = sizes[..n].iter().try_fold(1u64, |p, &s| p.checked_mul(s));
        if let Some(product) = product.filter(|&p| p < self.executed.len() as u64) {
            // Combination `combo` takes, from each relation `r`, choice
            // `combo % sizes[r]` (then divides `combo` by it): a cached
            // segment, or past them the uncached newcomer.
            for combo in 0..product {
                let (mut key, mut rest) = (0, combo);
                let mut hits = [None; MAX_RELATIONS];
                for (r, &size) in sizes[..n].iter().enumerate() {
                    let at = (rest % size) as usize;
                    rest /= size;
                    let seg = match cached[r].get(at) {
                        Some(&seg) => {
                            hits[r] = Some(offsets[r] + at);
                            seg
                        }
                        None => incoming.expect("only the newcomer lies past the cache").1,
                    };
                    key |= (seg as SubplanKey) << (16 * r);
                }
                if self.executed.contains(&key) {
                    for at in hits[..n].iter().flatten() {
                        executed_in_cache[*at] += 1;
                    }
                }
            }
        } else {
            'combos: for &key in &self.executed {
                // `hits[r]` — where the combo's coordinate sits in
                // `executed_in_cache`, or `None` for the uncounted newcomer.
                let mut hits = [None; MAX_RELATIONS];
                for r in 0..n {
                    let s = Self::segment_of(key, r);
                    match cached[r].binary_search(&s) {
                        Ok(at) => hits[r] = Some(offsets[r] + at),
                        Err(_) if incoming == Some((r, s)) => {}
                        Err(_) => continue 'combos,
                    }
                }
                for at in hits[..n].iter().flatten() {
                    executed_in_cache[*at] += 1;
                }
            }
        }

        // Executable = combinations in the effective cache − executed.
        for rel in 0..n {
            let others: u64 = sizes[..n]
                .iter()
                .enumerate()
                .filter(|&(r, _)| r != rel)
                .map(|(_, &c)| c)
                .product();
            let at = offsets[rel];
            for count in &mut executed_in_cache[at..at + cached[rel].len()] {
                *count = others - *count;
            }
        }
    }

    /// Enumerates the not-yet-executed combinations drawable from the
    /// cache that include `fixed` — the subplans that become runnable
    /// when `fixed` arrives (all other fully-cached combinations were
    /// runnable earlier and have already executed) — into `out`
    /// (cleared first) as packed keys, in lexicographic order.
    pub fn runnable_with(&self, cached: &[Vec<u32>], fixed: RelSeg, out: &mut Vec<SubplanKey>) {
        assert!(self.is_alive(fixed), "runnable_with on pruned object");
        out.clear();
        let mut combo = [0u32; MAX_RELATIONS];
        self.enumerate(cached, fixed, 0, &mut combo[..self.seg_counts.len()], out);
    }

    fn enumerate(
        &self,
        cached: &[Vec<u32>],
        fixed: RelSeg,
        rel: usize,
        combo: &mut [u32],
        out: &mut Vec<SubplanKey>,
    ) {
        if rel == combo.len() {
            let key = Self::pack(combo);
            if !self.executed.contains(&key) {
                out.push(key);
            }
            return;
        }
        if rel == fixed.0 {
            combo[rel] = fixed.1;
            self.enumerate(cached, fixed, rel + 1, combo, out);
        } else {
            for &seg in &cached[rel] {
                debug_assert!(self.is_alive((rel, seg)), "pruned object in cache");
                combo[rel] = seg;
                self.enumerate(cached, fixed, rel + 1, combo, out);
            }
        }
    }

    /// The lexicographically smallest pending combination, if any —
    /// used by the state manager's degraded single-subplan mode at
    /// extreme cache pressure. Cost is bounded by the number of executed
    /// combinations scanned before the first gap.
    pub fn first_pending(&self) -> Option<Vec<u32>> {
        let n = self.seg_counts.len();
        // Odometer over live segments per relation.
        let live: Vec<Vec<u32>> = self
            .alive
            .iter()
            .map(|segs| {
                segs.iter()
                    .enumerate()
                    .filter(|(_, &a)| a)
                    .map(|(s, _)| s as u32)
                    .collect()
            })
            .collect();
        if live.iter().any(|l| l.is_empty()) {
            return None;
        }
        let mut cursor = vec![0usize; n];
        loop {
            let combo: Vec<u32> = cursor
                .iter()
                .enumerate()
                .map(|(r, &i)| live[r][i])
                .collect();
            if !self.is_executed(&combo) {
                return Some(combo);
            }
            // Advance the odometer.
            let mut r = n;
            loop {
                if r == 0 {
                    return None;
                }
                r -= 1;
                cursor[r] += 1;
                if cursor[r] < live[r].len() {
                    break;
                }
                cursor[r] = 0;
            }
        }
    }

    /// All live objects still participating in pending subplans —
    /// the refetch universe for reissue cycles.
    pub fn pending_objects(&self) -> Vec<RelSeg> {
        let mut out = Vec::new();
        for (r, segs) in self.alive.iter().enumerate() {
            for (s, &alive) in segs.iter().enumerate() {
                let obj = (r, s as u32);
                if alive && self.pending_count(obj) > 0 {
                    out.push(obj);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Table 2 configuration: tables A, B, C with 2, 2, 2 segments
    /// (A.1/A.2, B.1/B.2, C.1/C.3 in the paper's naming).
    fn table2_tracker() -> SubplanTracker {
        SubplanTracker::new(&[2, 2, 2])
    }

    #[test]
    fn table2_enumerates_eight_subplans() {
        let t = table2_tracker();
        assert_eq!(t.total_live_subplans(), 8);
        assert_eq!(t.pending_total(), 8);
        assert!(!t.is_complete());
    }

    #[test]
    fn paper_sf100_q5_counts() {
        // §5.2.4: "There are 14630 subplans in total" for 95×22×7 (the
        // three multi-segment tables; single-segment dims do not
        // multiply).
        let t = SubplanTracker::new(&[95, 22, 7, 1, 1, 1]);
        assert_eq!(t.total_live_subplans(), 14_630);
    }

    #[test]
    fn mark_executed_updates_counts() {
        let mut t = table2_tracker();
        assert!(t.mark_executed(&[0, 0, 0]));
        assert!(!t.mark_executed(&[0, 0, 0])); // duplicate
        assert_eq!(t.executed.len(), 1);
        assert_eq!(t.pending_total(), 7);
        assert_eq!(t.pending_count((0, 0)), 3); // 4 combos with A.0, 1 done
        assert_eq!(t.pending_count((0, 1)), 4);
    }

    /// The worked example of §4.2: cache {A.1, B.1, A.2, C.3}, executed
    /// {<A.1,B.1,C.3>, <A.2,B.1,C.3>}, arriving C.1.
    /// (0-based: A=rel0 {0,1}, B=rel1 {0,1}, C=rel2 {C.1=0, C.3=1}.)
    #[test]
    fn paper_eviction_example_pending_counts() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 1]); // <A.1, B.1, C.3>
        t.mark_executed(&[1, 0, 1]); // <A.2, B.1, C.3>
                                     // "we get 4 for C.1, 3 for A.1 and A.2, and 2 for each B.1 and C.3"
        assert_eq!(t.pending_count((2, 0)), 4); // C.1
        assert_eq!(t.pending_count((0, 0)), 3); // A.1
        assert_eq!(t.pending_count((0, 1)), 3); // A.2
        assert_eq!(t.pending_count((1, 0)), 2); // B.1
        assert_eq!(t.pending_count((2, 1)), 2); // C.3
    }

    #[test]
    fn paper_eviction_example_executable_counts() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 1]);
        t.mark_executed(&[1, 0, 1]);
        // Cache: A.1, A.2 (rel0: {0,1}), B.1 (rel1: {0}), C.3 (rel2: {1}),
        // incoming C.1 (rel2, 0).
        let cached = vec![vec![0, 1], vec![0], vec![1]];
        // Counts come out for A.1, A.2, B.1, C.3, in that order.
        let mut counts = Vec::new();
        t.executable_counts(&cached, Some((2, 0)), &mut counts);
        // "1 for each A.1 and A.2, and 2 for B.1 ... but 0 for C.3"
        assert_eq!(counts, vec![1, 1, 2, 0]);
    }

    /// `executable_counts` against its definition: the non-executed
    /// combinations of the effective cache (cached ∪ incoming) that
    /// contain the candidate — including executed combinations that
    /// contain the newcomer, and a newcomer that is already cached. Both
    /// ways of counting (enumerating the cached cross product, walking
    /// the executed set) are taken on many cases.
    #[test]
    fn executable_counts_match_brute_force() {
        use skipper_sim::rng::splitmix64;
        let mut state = 0x5EED;
        let mut draw = |n: u64| splitmix64(&mut state) % n;
        let (mut by_product, mut by_walk) = (0, 0);
        for case in 0..200 {
            let seg_counts: Vec<u32> = (0..1 + draw(3)).map(|_| 1 + draw(4) as u32).collect();
            let n = seg_counts.len();
            let mut t = SubplanTracker::new(&seg_counts);
            let mut all: Vec<Vec<u32>> = vec![vec![]];
            for &count in &seg_counts {
                all = all
                    .iter()
                    .flat_map(|p| (0..count).map(move |s| [p.as_slice(), &[s]].concat()))
                    .collect();
            }
            for combo in &all {
                if draw(3) == 0 {
                    t.mark_executed(combo);
                }
            }
            let cached: Vec<Vec<u32>> = seg_counts
                .iter()
                .map(|&c| (0..c).filter(|_| draw(2) == 0).collect())
                .collect();
            let rel = draw(n as u64) as usize;
            let incoming = (draw(4) != 0).then(|| (rel, draw(seg_counts[rel] as u64) as u32));
            let candidates: Vec<RelSeg> = (0..n)
                .flat_map(|r| cached[r].iter().map(move |&s| (r, s)))
                .collect();

            let present = |r: usize, s: u32| cached[r].contains(&s) || incoming == Some((r, s));
            let expected: Vec<u64> = candidates
                .iter()
                .map(|&(rel, seg)| {
                    all.iter()
                        .filter(|c| c[rel] == seg && !t.is_executed(c))
                        .filter(|c| c.iter().enumerate().all(|(r, &s)| present(r, s)))
                        .count() as u64
                })
                .collect();
            let mut counts = Vec::new();
            t.executable_counts(&cached, incoming, &mut counts);
            assert_eq!(
                counts, expected,
                "case {case}: {seg_counts:?} cached {cached:?} incoming {incoming:?}"
            );

            // The way `executable_counts` took: the cross product of the
            // effective cache if smaller than the executed set.
            let mut sizes: Vec<u64> = cached.iter().map(|c| c.len() as u64).collect();
            if let Some((r, _)) = incoming.filter(|&(r, s)| !cached[r].contains(&s)) {
                sizes[r] += 1;
            }
            if sizes.iter().product::<u64>() < t.executed.len() as u64 {
                by_product += 1;
            } else {
                by_walk += 1;
            }
        }
        assert!(
            by_product > 50 && by_walk > 50,
            "{by_product} cases counted by product, {by_walk} by walk"
        );
    }

    #[test]
    fn runnable_with_lists_new_combinations() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 1]);
        t.mark_executed(&[1, 0, 1]);
        let cached = vec![vec![0, 1], vec![0], vec![1]];
        // C.1 arrives: runnable = {<A.1,B.1,C.1>, <A.2,B.1,C.1>}.
        let mut runnable = Vec::new();
        t.runnable_with(&cached, (2, 0), &mut runnable);
        let packed = [[0, 0, 0], [1, 0, 0]].map(|c| SubplanTracker::pack(&c));
        assert_eq!(runnable, packed);
        // C.3 "arrives" again: both its cached combos already executed.
        t.runnable_with(&cached, (2, 1), &mut runnable);
        assert!(runnable.is_empty());
    }

    #[test]
    fn completes_after_all_subplans() {
        let mut t = SubplanTracker::new(&[2, 1]);
        t.mark_executed(&[0, 0]);
        assert!(!t.is_complete());
        t.mark_executed(&[1, 0]);
        assert!(t.is_complete());
        assert_eq!(t.pending_objects(), Vec::<RelSeg>::new());
    }

    #[test]
    fn pruning_removes_whole_slices() {
        // The §5.2.4 example: 4 tables × 10 segments = 10⁴ subplans;
        // pruning one object removes 10³.
        let mut t = SubplanTracker::new(&[10, 10, 10, 10]);
        assert_eq!(t.total_live_subplans(), 10_000);
        let removed = t.prune((0, 3));
        assert_eq!(removed, 1_000);
        assert_eq!(t.total_live_subplans(), 9_000);
        assert!(!t.is_alive((0, 3)));
        assert_eq!(t.pending_count((0, 3)), 0);
        // Re-pruning is a no-op.
        assert_eq!(t.prune((0, 3)), 0);
    }

    #[test]
    fn pruning_adjusts_executed_bookkeeping() {
        let mut t = table2_tracker();
        t.mark_executed(&[0, 0, 0]);
        t.mark_executed(&[0, 1, 0]);
        // Prune C.0: both executed combos contained it.
        let removed = t.prune((2, 0));
        // Pending combos with C.0 were 4 − 2 executed = 2.
        assert_eq!(removed, 2);
        assert_eq!(t.executed.len(), 0);
        assert_eq!(t.total_live_subplans(), 4);
        assert_eq!(t.pending_count((0, 0)), 2);
        // B.0's executed-per-object count was rolled back too.
        assert_eq!(t.pending_count((1, 0)), 2);
    }

    #[test]
    fn pending_objects_tracks_progress() {
        let mut t = SubplanTracker::new(&[2, 1]);
        assert_eq!(t.pending_objects().len(), 3);
        t.mark_executed(&[0, 0]);
        // A.0 is exhausted; A.1 and B.0 still pending.
        assert_eq!(t.pending_objects(), vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn pack_segment_of_roundtrip() {
        let combo = vec![95, 22, 7, 0, 1, 65_535];
        let key = SubplanTracker::pack(&combo);
        let unpacked: Vec<u32> = (0..6).map(|r| SubplanTracker::segment_of(key, r)).collect();
        assert_eq!(unpacked, combo);
    }

    #[test]
    #[should_panic(expected = "zero segments")]
    fn zero_segment_relation_rejected() {
        SubplanTracker::new(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "relations")]
    fn too_many_relations_rejected() {
        SubplanTracker::new(&[1; 9]);
    }

    #[test]
    #[should_panic(expected = "pruned segment")]
    fn executing_pruned_combo_panics() {
        let mut t = table2_tracker();
        t.prune((0, 0));
        t.mark_executed(&[0, 0, 0]);
    }

    #[test]
    fn single_relation_scan_degenerates() {
        // A pure scan: every segment is its own subplan.
        let mut t = SubplanTracker::new(&[5]);
        assert_eq!(t.total_live_subplans(), 5);
        for s in 0..5 {
            t.mark_executed(&[s]);
        }
        assert!(t.is_complete());
    }
}
