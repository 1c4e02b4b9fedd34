//! N-ary probe execution over one segment combination.
//!
//! This is the execution kernel of a Skipper *subplan*: one
//! [`SegmentIndex`] per relation, a [`ProbePlan`], and a sink receiving
//! every joined row. Iterates the driver segment's rows and recursively
//! probes the remaining relations; cyclic join edges are enforced as
//! residual equality checks. A bound row is a [`RowRef`] — a segment and
//! a position — and the sink reads its values straight from the columns;
//! nothing is copied or materialised.
//!
//! Correctness note: a join distributes over the union of its inputs'
//! partitions, so executing every segment combination exactly once and
//! feeding one shared [`Aggregator`](crate::query::Aggregator) yields the
//! same result as joining the full relations — the property MJoin's
//! out-of-order execution relies on (and which the integration tests
//! verify against the binary baseline).

use crate::join_graph::{ProbePlan, ProbeStep};
use crate::ops::index::{hash_key, SegmentIndex};
use crate::segment::RowRef;
use crate::value::ValueRef;

/// Most relations one join can bind: the width of the fixed scratch
/// arrays below (and of the packed subplan keys built on top of them).
pub const MAX_RELATIONS: usize = 8;

/// Rows bound so far, by relation.
type Bound<'a> = [Option<RowRef<'a>>; MAX_RELATIONS];

/// Work counters from executing one combination, used by the simulation
/// to charge CPU cost to virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinWork {
    /// Driver tuples iterated.
    pub driver_tuples: usize,
    /// Hash-table probe operations performed.
    pub probes: usize,
    /// Per-segment hash-chain walks: one per probe in
    /// [`execute_combination`]; in [`execute_rooted`], one per candidate
    /// segment whose key range admits the probe key. Not charged to
    /// virtual time.
    pub lookups: usize,
    /// Driver keys [`execute_rooted`]'s key filter dropped (counted in
    /// `probes`, no segment walked). Not charged to virtual time.
    pub filtered: usize,
    /// Joined rows emitted to the sink.
    pub emitted: usize,
}

/// Hands the `n` bound rows to `sink`, positionally.
fn emit(bound: &Bound<'_>, n: usize, sink: &mut dyn FnMut(&[RowRef<'_>])) {
    let mut rows = [bound[0].expect("all bound"); MAX_RELATIONS];
    for (out, row) in rows[..n].iter_mut().zip(bound) {
        *out = row.expect("all bound");
    }
    sink(&rows[..n]);
}

/// Residual checks from cyclic join edges.
#[inline]
fn residuals_hold(step: &ProbeStep, candidate: RowRef<'_>, bound: &Bound<'_>) -> bool {
    step.extra_checks.iter().all(|(own_col, bound_col)| {
        let other = bound[bound_col.rel].expect("check source must be bound");
        candidate.get(*own_col) == other.get(bound_col.col)
    })
}

/// Executes the join over one segment per relation.
///
/// `segments[i]` is relation `i`'s segment index. `sink` is invoked with
/// one bound row per relation, positionally matching the query's tables.
pub fn execute_combination(
    plan: &ProbePlan,
    segments: &[&SegmentIndex],
    sink: &mut dyn FnMut(&[RowRef<'_>]),
) -> JoinWork {
    assert!(segments.len() <= MAX_RELATIONS, "too many relations");
    let mut work = JoinWork::default();

    // Cheap short-circuit: any empty input ⇒ empty join.
    if segments.iter().any(|s| s.is_empty()) {
        return work;
    }

    let mut bound: Bound = [None; MAX_RELATIONS];
    for driver_row in segments[plan.driver].rows() {
        work.driver_tuples += 1;
        bound[plan.driver] = Some(driver_row);
        descend(plan, segments, &mut bound, 0, &mut work, sink);
    }
    work
}

fn descend<'a>(
    plan: &ProbePlan,
    segments: &[&'a SegmentIndex],
    bound: &mut Bound<'a>,
    depth: usize,
    work: &mut JoinWork,
    sink: &mut dyn FnMut(&[RowRef<'_>]),
) {
    if depth == plan.steps.len() {
        work.emitted += 1;
        emit(bound, segments.len(), sink);
        return;
    }
    let step = &plan.steps[depth];
    let source = bound[step.bound_source.rel].expect("probe source must be bound");
    let key = source.get(step.bound_source.col);
    if key.is_null() {
        return;
    }
    work.probes += 1;
    work.lookups += 1;
    for candidate in segments[step.rel].probe(step.key_col, key) {
        if !residuals_hold(step, candidate, bound) {
            continue;
        }
        bound[step.rel] = Some(candidate);
        descend(plan, segments, bound, depth + 1, work, sink);
    }
    bound[step.rel] = None;
}

/// Bits of the first step's key filter per cached key.
const FILTER_BITS_PER_KEY: usize = 8;

/// Buffers that [`execute_rooted`] reuses across calls, so that an
/// arrival allocates nothing once they have grown: the first step's
/// driver keys and its key filter's words.
#[derive(Default)]
pub struct RootedScratch {
    keys: Vec<(u32, u64)>,
    filter: Vec<u64>,
}

/// Executes the *arrival-rooted* join of symmetric-hash MJoin: the rows
/// of the newly arrived segment (`candidates[plan.driver]`, a single
/// entry) probe outward into the union of cached candidate segments of
/// every other relation.
///
/// `plan` must be rooted at the arriving relation
/// ([`ProbePlan::plan_rooted`]). `candidates[r]` lists `(segment id,
/// index)` pairs eligible for relation `r` (a `Vec` or a slice); all
/// indexes of one relation must be built on the same join columns. Each
/// emitted row's segment combination is checked against
/// `already_executed` so that refetched objects (evicted and
/// re-delivered in a later reissue cycle) never double-count results of
/// subplans that ran in an earlier cycle. `scratch` holds buffers reused
/// across calls.
///
/// # The first probe step
///
/// One typed pass hashes the arriving segment's key column. When the
/// arriving segment keeps at least half as many rows as the step's
/// cached candidates, a key filter is built first from every candidate's
/// kept keys, `FILTER_BITS_PER_KEY` bits per key: it hashes at most
/// twice as many keys as it can drop. A driver key whose bit is
/// clear equals no cached key (values equal under [`ValueRef`]'s order
/// hash alike in every type pairing) and is dropped before any candidate
/// is visited; the rest go through the deeper steps' candidate loop.
///
/// # Logical probes vs per-segment lookups
///
/// Probe *accounting* is union-table semantics: `JoinWork::probes` counts
/// one probe per bound prefix per step, as if each relation had a single
/// hash table (a production MJoin keeps one logical table per relation
/// with per-segment arenas, so its lookup cost does not scale with the
/// number of cached segments); a key the filter drops counts as probed.
/// Probe *execution* walks one chain per cached candidate segment whose
/// key range admits the probe key (`SegmentIndex::may_hold`); the
/// others are skipped before any bucket head is loaded, and
/// `JoinWork::lookups` counts the walks. A dropped key or a skipped
/// segment holds no match, so emit order (driver row, then candidate,
/// then chain slot), float sums and `probes` are what walking every
/// segment gives. On the benchmark's `tpch_mjoin` workload (seed 2016)
/// one run's 2.93 M logical probes make 2.01 M per-segment lookups; the
/// key ranges alone made 3.67 M, and walking every candidate 13.0 M.
/// The filter drops 1.68 M driver keys per run, four in five of Q5's
/// `lineitem` rows probing `orders`; at eight bits per key about 12 % of
/// the keys without a match pass it. A probe into `lineitem`, which is
/// not partitioned by `l_orderkey`, still walks every cached segment. The
/// kernel pays the per-probe costs — reading and hashing the key,
/// resolving the probed column to its table slot — once per logical
/// probe (`hash_key`, `slots`), and a lookup that misses is a
/// bucket-head load and at most a few 32-bit tag compares, never a
/// column access.
pub fn execute_rooted<'a>(
    plan: &ProbePlan,
    candidates: &[impl AsRef<[(u32, &'a SegmentIndex)]>],
    already_executed: &dyn Fn(&[u32]) -> bool,
    sink: &mut dyn FnMut(&[RowRef<'_>]),
    scratch: &mut RootedScratch,
) -> JoinWork {
    assert!(candidates.len() <= MAX_RELATIONS, "too many relations");
    let mut lists: [&[(u32, &SegmentIndex)]; MAX_RELATIONS] = [&[]; MAX_RELATIONS];
    for (list, c) in lists.iter_mut().zip(candidates) {
        *list = c.as_ref();
    }
    let candidates = &lists[..candidates.len()];
    // Any relation with no cached candidate ⇒ nothing runnable.
    if candidates.iter().any(|c| c.is_empty()) {
        return JoinWork::default();
    }
    debug_assert_eq!(
        candidates[plan.driver].len(),
        1,
        "rooted execution starts from exactly the arriving segment"
    );
    // Column → table slot, once per step rather than once per lookup.
    let mut slots = [0usize; MAX_RELATIONS];
    for (slot, step) in slots.iter_mut().zip(&plan.steps) {
        let indexes = &candidates[step.rel];
        *slot = indexes[0].1.slot_of(step.key_col);
        assert!(
            indexes
                .iter()
                .all(|(_, idx)| idx.slot_of(step.key_col) == *slot),
            "candidate segments of relation {} are indexed on different columns",
            step.rel
        );
    }
    let mut run = Rooted {
        plan,
        candidates,
        slots,
        already_executed,
        sink,
        work: JoinWork::default(),
    };
    let mut bound: Bound = [None; MAX_RELATIONS];
    let mut combo = [0u32; MAX_RELATIONS];
    let (root_seg, root_idx) = candidates[plan.driver][0];
    combo[plan.driver] = root_seg;
    run.work.driver_tuples = root_idx.len();
    let Some(first) = plan.steps.first() else {
        // A single relation: every row is a result.
        for row in root_idx.rows() {
            bound[plan.driver] = Some(row);
            run.descend(&mut bound, &mut combo, 0);
        }
        return run.work;
    };
    debug_assert_eq!(first.bound_source.rel, plan.driver);
    let targets = candidates[first.rel];
    let held: usize = targets.iter().map(|(_, idx)| idx.len()).sum();
    let RootedScratch { keys, filter } = scratch;
    // The filter: bit `hash >> shift` set for every cached key.
    let shift = (2 * root_idx.len() >= held).then(|| {
        let bits = (held * FILTER_BITS_PER_KEY).next_power_of_two().max(64);
        let shift = 64 - bits.trailing_zeros();
        filter.clear();
        filter.resize(bits / 64, 0);
        for (_, idx) in targets {
            idx.hash_keys(first.key_col, |_, hash| {
                let bit = (hash >> shift) as usize;
                filter[bit / 64] |= 1 << (bit % 64);
            });
        }
        shift
    });
    let admits = |hash: u64| {
        shift.is_none_or(|shift| {
            let bit = (hash >> shift) as usize;
            filter[bit / 64] >> (bit % 64) & 1 == 1
        })
    };
    // `(slot, hash)` of each driver key by slot (a NULL key's slot stays
    // `u32::MAX`), then the keys that pass packed in place, in row order,
    // without a branch per key.
    keys.clear();
    keys.resize(root_idx.len(), (u32::MAX, 0));
    root_idx.hash_keys(first.bound_source.col, |slot, hash| {
        keys[slot] = (slot as u32, hash);
    });
    let (mut probes, mut passed) = (0, 0);
    for at in 0..keys.len() {
        let (slot, hash) = keys[at];
        let probed = slot != u32::MAX;
        probes += probed as usize;
        keys[passed] = (slot, hash);
        passed += (probed & admits(hash)) as usize;
    }
    run.work.probes = probes;
    run.work.filtered = probes - passed;
    for &(slot, hash) in &keys[..passed] {
        let row = root_idx.row_at(slot as usize);
        bound[plan.driver] = Some(row);
        let key = row.get(first.bound_source.col);
        run.probe(&mut bound, &mut combo, 0, key, hash);
    }
    run.work
}

/// The per-call constants of one [`execute_rooted`] run.
struct Rooted<'a, 'c> {
    plan: &'c ProbePlan,
    candidates: &'c [&'c [(u32, &'a SegmentIndex)]],
    /// `slots[depth]` — table slot of step `depth`'s probed column.
    slots: [usize; MAX_RELATIONS],
    already_executed: &'c dyn Fn(&[u32]) -> bool,
    sink: &'c mut dyn FnMut(&[RowRef<'_>]),
    work: JoinWork,
}

impl<'a> Rooted<'a, '_> {
    fn descend(&mut self, bound: &mut Bound<'a>, combo: &mut [u32; MAX_RELATIONS], depth: usize) {
        let n = self.candidates.len();
        if depth == self.plan.steps.len() {
            if !(self.already_executed)(&combo[..n]) {
                self.work.emitted += 1;
                emit(bound, n, self.sink);
            }
            return;
        }
        let step = &self.plan.steps[depth];
        let source = bound[step.bound_source.rel].expect("probe source must be bound");
        let key = source.get(step.bound_source.col);
        if key.is_null() {
            return;
        }
        self.work.probes += 1; // one logical probe per step
        self.probe(bound, combo, depth, key, hash_key(key));
    }

    /// Step `depth`'s probe of `key` (hashed to `hash`) into every
    /// cached candidate segment, descending into each match.
    fn probe(
        &mut self,
        bound: &mut Bound<'a>,
        combo: &mut [u32; MAX_RELATIONS],
        depth: usize,
        key: ValueRef<'a>,
        hash: u64,
    ) {
        let step = &self.plan.steps[depth];
        let slot = self.slots[depth];
        for &(seg, idx) in self.candidates[step.rel] {
            // A segment whose key range excludes `key` holds no match.
            if !idx.may_hold(slot, key) {
                continue;
            }
            self.work.lookups += 1;
            for candidate in idx.probe_hashed(slot, hash, key) {
                if !residuals_hold(step, candidate, bound) {
                    continue;
                }
                bound[step.rel] = Some(candidate);
                combo[step.rel] = seg;
                self.descend(bound, combo, depth + 1);
            }
        }
        bound[step.rel] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggSpec, JoinCond, QuerySpec};
    use crate::row;
    use crate::schema::{DataType, Schema};
    use crate::segment::Segment;
    use crate::tuple::Row;
    use std::sync::Arc;

    fn idx(cols: &[(&str, DataType)], rows: Vec<Row>, join_cols: &[usize]) -> SegmentIndex {
        let seg = Arc::new(Segment::new(Schema::of(cols), rows).unwrap());
        SegmentIndex::build(&seg, None, join_cols)
    }

    fn spec(n: usize, joins: Vec<JoinCond>, driver: usize) -> QuerySpec {
        QuerySpec {
            name: "t".into(),
            tables: (0..n).map(|i| format!("t{i}")).collect(),
            filters: vec![None; n],
            joins,
            driver,
            plan_order: (0..n).collect(),
            probe_order: None,
            group_by: vec![],
            aggregates: Vec::<AggSpec>::new(),
        }
    }

    #[test]
    fn two_way_join_emits_matches() {
        let a = idx(
            &[("k", DataType::Int)],
            vec![row![1i64], row![2i64], row![2i64]],
            &[0],
        );
        let b = idx(
            &[("k", DataType::Int), ("v", DataType::Int)],
            vec![row![2i64, 20i64], row![3i64, 30i64]],
            &[0],
        );
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let plan = ProbePlan::plan(&s).unwrap();
        let mut out = Vec::new();
        let work = execute_combination(&plan, &[&a, &b], &mut |rows| {
            out.push((rows[0].to_row(), rows[1].to_row()));
        });
        assert_eq!(out.len(), 2); // two a-rows with k=2 match one b-row
        assert_eq!(work.emitted, 2);
        assert_eq!(work.driver_tuples, 3);
        assert!(out.iter().all(|(a, b)| a.get(0) == b.get(0)));
    }

    #[test]
    fn three_way_chain() {
        // a(k) ⋈ b(k, m) ⋈ c(m): counts of matching paths.
        let a = idx(&[("k", DataType::Int)], vec![row![1i64], row![2i64]], &[0]);
        let b = idx(
            &[("k", DataType::Int), ("m", DataType::Int)],
            vec![row![1i64, 7i64], row![1i64, 8i64], row![2i64, 7i64]],
            &[0, 1],
        );
        let c = idx(&[("m", DataType::Int)], vec![row![7i64], row![7i64]], &[0]);
        let s = spec(
            3,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(1, 1, 2, 0)],
            0,
        );
        let plan = ProbePlan::plan(&s).unwrap();
        let mut count = 0;
        execute_combination(&plan, &[&a, &b, &c], &mut |_| count += 1);
        // paths: a1-b(1,7)-c7 ×2, a2-b(2,7)-c7 ×2 → 4
        assert_eq!(count, 4);
    }

    #[test]
    fn residual_check_filters_cycles() {
        // Triangle query: a(x,y), b(x,z), c(z,y) with c.y = a.y residual.
        let a = idx(
            &[("x", DataType::Int), ("y", DataType::Int)],
            vec![row![1i64, 100i64]],
            &[0, 1],
        );
        let b = idx(
            &[("x", DataType::Int), ("z", DataType::Int)],
            vec![row![1i64, 5i64]],
            &[0, 1],
        );
        let c = idx(
            &[("z", DataType::Int), ("y", DataType::Int)],
            vec![row![5i64, 100i64], row![5i64, 999i64]],
            &[0, 1],
        );
        let s = spec(
            3,
            vec![
                JoinCond::new(0, 0, 1, 0), // a.x = b.x
                JoinCond::new(1, 1, 2, 0), // b.z = c.z
                JoinCond::new(0, 1, 2, 1), // a.y = c.y (cycle)
            ],
            0,
        );
        let plan = ProbePlan::plan(&s).unwrap();
        let mut count = 0;
        execute_combination(&plan, &[&a, &b, &c], &mut |rows| {
            assert_eq!(rows[0].get(1), rows[2].get(1));
            count += 1;
        });
        assert_eq!(count, 1); // the y=999 row is rejected by the residual
    }

    #[test]
    fn empty_segment_short_circuits() {
        let a = idx(&[("k", DataType::Int)], vec![row![1i64]], &[0]);
        let b = idx(&[("k", DataType::Int)], vec![], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let plan = ProbePlan::plan(&s).unwrap();
        let mut count = 0;
        let work = execute_combination(&plan, &[&a, &b], &mut |_| count += 1);
        assert_eq!(count, 0);
        assert_eq!(work.driver_tuples, 0); // short-circuited
    }

    #[test]
    fn work_counters_track_probes() {
        let a = idx(&[("k", DataType::Int)], vec![row![1i64], row![9i64]], &[0]);
        let b = idx(&[("k", DataType::Int)], vec![row![1i64]], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let plan = ProbePlan::plan(&s).unwrap();
        let work = execute_combination(&plan, &[&a, &b], &mut |_| {});
        assert_eq!(work.driver_tuples, 2);
        assert_eq!(work.probes, 2); // one probe per driver tuple
        assert_eq!(work.emitted, 1);
    }

    #[test]
    fn rooted_execution_matches_per_combination_union() {
        // Two segments of `a`, one arriving segment of `b`: rooted
        // execution from b must equal the union of the two combinations.
        let a1 = idx(&[("k", DataType::Int)], vec![row![1i64], row![2i64]], &[0]);
        let a2 = idx(&[("k", DataType::Int)], vec![row![2i64], row![3i64]], &[0]);
        let b = idx(
            &[("k", DataType::Int)],
            vec![row![2i64], row![3i64], row![9i64]],
            &[0],
        );
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        // Root the plan at relation 1 (the arriving side).
        let rooted = crate::join_graph::ProbePlan::plan_rooted(&s, 1).unwrap();
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> =
            vec![vec![(0, &a1), (1, &a2)], vec![(7, &b)]];
        let mut rows = 0;
        let work = execute_rooted(
            &rooted,
            &candidates,
            &|_| false,
            &mut |_| rows += 1,
            &mut RootedScratch::default(),
        );
        // b=2 matches a1 and a2 (one row each); b=3 matches a2; b=9 none.
        assert_eq!(rows, 3);
        assert_eq!(work.driver_tuples, 3);
        assert_eq!(work.emitted, 3);
        // Union probe accounting: one probe per b-row, not per candidate.
        assert_eq!(work.probes, 3);
        // a1 holds keys 1..=2 and a2 2..=3: b=2 walks both, b=3 only a2
        // and b=9 neither.
        assert_eq!(work.lookups, 3);
    }

    #[test]
    fn rooted_execution_skips_executed_combinations() {
        let a1 = idx(&[("k", DataType::Int)], vec![row![2i64]], &[0]);
        let a2 = idx(&[("k", DataType::Int)], vec![row![2i64]], &[0]);
        let b = idx(&[("k", DataType::Int)], vec![row![2i64]], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let rooted = crate::join_graph::ProbePlan::plan_rooted(&s, 1).unwrap();
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> =
            vec![vec![(0, &a1), (1, &a2)], vec![(5, &b)]];
        // Pretend combination {a seg 0, b seg 5} already ran in an
        // earlier reissue cycle.
        let mut rows = 0;
        let work = execute_rooted(
            &rooted,
            &candidates,
            &|combo| combo[0] == 0,
            &mut |_| rows += 1,
            &mut RootedScratch::default(),
        );
        assert_eq!(rows, 1, "only the a2 combination may emit");
        assert_eq!(work.emitted, 1);
    }

    #[test]
    fn rooted_execution_empty_candidate_returns_nothing() {
        let b = idx(&[("k", DataType::Int)], vec![row![1i64]], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let rooted = crate::join_graph::ProbePlan::plan_rooted(&s, 1).unwrap();
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> = vec![vec![], vec![(0, &b)]];
        let work = execute_rooted(
            &rooted,
            &candidates,
            &|_| false,
            &mut |_| panic!("no rows expected"),
            &mut RootedScratch::default(),
        );
        assert_eq!(work, JoinWork::default());
    }
}
