//! N-ary probe execution over one segment combination.
//!
//! This is the execution kernel of a Skipper *subplan*: one
//! [`SegmentIndex`] per relation, a [`ProbePlan`], and a sink receiving
//! every joined row. Iterates the driver segment's rows and recursively
//! probes the remaining relations; cyclic join edges are enforced as
//! residual equality checks.
//!
//! Correctness note: a join distributes over the union of its inputs'
//! partitions, so executing every segment combination exactly once and
//! feeding one shared [`Aggregator`](crate::query::Aggregator) yields the
//! same result as joining the full relations — the property MJoin's
//! out-of-order execution relies on (and which the integration tests
//! verify against the binary baseline).

use crate::join_graph::{ProbePlan, ProbeStep};
use crate::ops::index::{hash_key, SegmentIndex};
use crate::tuple::Row;

/// Most relations one join can bind: the width of the fixed scratch
/// arrays below (and of the packed subplan keys built on top of them).
pub const MAX_RELATIONS: usize = 8;

/// Rows bound so far, by relation.
type Bound<'a> = [Option<&'a Row>; MAX_RELATIONS];

/// Work counters from executing one combination, used by the simulation
/// to charge CPU cost to virtual time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinWork {
    /// Driver tuples iterated.
    pub driver_tuples: usize,
    /// Hash-table probe operations performed.
    pub probes: usize,
    /// Joined rows emitted to the sink.
    pub emitted: usize,
}

impl JoinWork {
    /// Accumulates another work counter.
    pub fn merge(&mut self, other: JoinWork) {
        self.driver_tuples += other.driver_tuples;
        self.probes += other.probes;
        self.emitted += other.emitted;
    }
}

/// Hands the `n` bound rows to `sink`, positionally.
fn emit(bound: &Bound<'_>, n: usize, sink: &mut dyn FnMut(&[&Row])) {
    let mut rows = [bound[0].expect("all bound"); MAX_RELATIONS];
    for (out, row) in rows[..n].iter_mut().zip(bound) {
        *out = row.expect("all bound");
    }
    sink(&rows[..n]);
}

/// Residual checks from cyclic join edges.
#[inline]
fn residuals_hold(step: &ProbeStep, candidate: &Row, bound: &Bound<'_>) -> bool {
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
    sink: &mut dyn FnMut(&[&Row]),
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
    sink: &mut dyn FnMut(&[&Row]),
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
    for candidate in segments[step.rel].probe(step.key_col, key) {
        if !residuals_hold(step, candidate, bound) {
            continue;
        }
        bound[step.rel] = Some(candidate);
        descend(plan, segments, bound, depth + 1, work, sink);
    }
    bound[step.rel] = None;
}

/// Executes the *arrival-rooted* join of symmetric-hash MJoin: the rows
/// of the newly arrived segment (`candidates[plan.driver]`, a single
/// entry) probe outward into the union of cached candidate segments of
/// every other relation.
///
/// `plan` must be rooted at the arriving relation
/// ([`ProbePlan::plan_rooted`]). `candidates[r]` lists `(segment id,
/// index)` pairs eligible for relation `r`; all indexes of one relation
/// must be built on the same join columns. Each emitted row's segment
/// combination is checked against `already_executed` so that refetched
/// objects (evicted and re-delivered in a later reissue cycle) never
/// double-count results of subplans that ran in an earlier cycle.
///
/// # Logical probes vs per-segment lookups
///
/// Probe *accounting* is union-table semantics: `JoinWork::probes` counts
/// one probe per bound prefix per step, as if each relation had a single
/// hash table (a production MJoin keeps one logical table per relation
/// with per-segment arenas, so its lookup cost does not scale with the
/// number of cached segments). Probe *execution* here is one chain walk
/// per cached candidate segment. On the benchmark's `tpch_mjoin`
/// workload (seed 2016) one run's 2.9 M logical probes fan out into
/// 13.0 M per-segment lookups — 23 M vs 104 M over the eight runs of
/// one measurement — and 93 % of those lookups find no row. The kernel
/// therefore pays the per-probe costs — hashing the key, resolving the
/// probed column to its table slot — once per logical probe (`hash_key`,
/// `slots`), and a per-segment lookup that misses is a bucket-head load
/// and at most a few 32-bit tag compares, never a row access.
pub fn execute_rooted(
    plan: &ProbePlan,
    candidates: &[Vec<(u32, &SegmentIndex)>],
    already_executed: &dyn Fn(&[u32]) -> bool,
    sink: &mut dyn FnMut(&[&Row]),
) -> JoinWork {
    assert!(candidates.len() <= MAX_RELATIONS, "too many relations");
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
    for row in root_idx.rows() {
        run.work.driver_tuples += 1;
        bound[plan.driver] = Some(row);
        run.descend(&mut bound, &mut combo, 0);
    }
    run.work
}

/// The per-call constants of one [`execute_rooted`] run.
struct Rooted<'a, 'c> {
    plan: &'c ProbePlan,
    candidates: &'c [Vec<(u32, &'a SegmentIndex)>],
    /// `slots[depth]` — table slot of step `depth`'s probed column.
    slots: [usize; MAX_RELATIONS],
    already_executed: &'c dyn Fn(&[u32]) -> bool,
    sink: &'c mut dyn FnMut(&[&Row]),
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
        let hash = hash_key(key);
        let slot = self.slots[depth];
        for &(seg, idx) in &self.candidates[step.rel] {
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
            out.push((rows[0].clone(), rows[1].clone()));
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
        let work = execute_rooted(&rooted, &candidates, &|_| false, &mut |_| rows += 1);
        // b=2 matches a1 and a2 (one row each); b=3 matches a2; b=9 none.
        assert_eq!(rows, 3);
        assert_eq!(work.driver_tuples, 3);
        assert_eq!(work.emitted, 3);
        // Union probe accounting: one probe per b-row, not per candidate.
        assert_eq!(work.probes, 3);
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
        let work = execute_rooted(&rooted, &candidates, &|combo| combo[0] == 0, &mut |_| {
            rows += 1
        });
        assert_eq!(rows, 1, "only the a2 combination may emit");
        assert_eq!(work.emitted, 1);
    }

    #[test]
    fn rooted_execution_empty_candidate_returns_nothing() {
        let b = idx(&[("k", DataType::Int)], vec![row![1i64]], &[0]);
        let s = spec(2, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let rooted = crate::join_graph::ProbePlan::plan_rooted(&s, 1).unwrap();
        let candidates: Vec<Vec<(u32, &SegmentIndex)>> = vec![vec![], vec![(0, &b)]];
        let work = execute_rooted(&rooted, &candidates, &|_| false, &mut |_| {
            panic!("no rows expected")
        });
        assert_eq!(work, JoinWork::default());
    }

    #[test]
    fn join_work_merge_accumulates() {
        let mut w = JoinWork {
            driver_tuples: 1,
            probes: 2,
            emitted: 3,
        };
        w.merge(JoinWork {
            driver_tuples: 10,
            probes: 20,
            emitted: 30,
        });
        assert_eq!(w.driver_tuples, 11);
        assert_eq!(w.probes, 22);
        assert_eq!(w.emitted, 33);
    }
}
