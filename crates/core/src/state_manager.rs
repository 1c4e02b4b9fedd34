//! The MJoin state manager — Algorithm 1 of the paper.
//!
//! The state manager is the half of the split MJoin operator that owns
//! all state: it enumerates subplans from the catalog, issues the GET
//! requests for every needed object upfront (enabling the CSD to batch
//! per group), handles arrivals in whatever order the device chooses,
//! admits them to the [`BufferCache`] (evicting per the configured
//! policy), triggers the stateless n-ary join operator on every subplan
//! that became runnable, and runs *reissue cycles*: once all outstanding
//! requests are serviced, it re-requests exactly the objects still
//! needed by pending subplans.
//!
//! The §5.2.4 subplan-pruning optimization is implemented at admission:
//! an object with zero filter-surviving tuples is pruned instead of
//! cached, eliminating every subplan containing it.
//!
//! Every admitted arrival is charged the scan, filter and hash build of
//! its segment. On the host, the filter's selection vector comes from
//! the run-scoped memo (the `memo` module), evaluated once per run for
//! each (segment, filter) and shared by every tenant and reissue; the
//! chain tables are built per arrival over it.

use std::sync::Arc;

use skipper_csd::ObjectId;
use skipper_relational::join_graph::ProbePlan;
use skipper_relational::ops::index::SegmentIndex;
use skipper_relational::ops::nary::{self, RootedScratch};
use skipper_relational::query::{Aggregator, QuerySpec};
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;
use skipper_sim::SimDuration;

use skipper_datagen::Dataset;

use crate::cache::{BufferCache, CacheSlot, EvictionPolicy};
use crate::config::CostModel;
use crate::engine::{EngineStats, QueryEngine, Reaction};
use crate::memo;
use crate::proxy::ClientProxy;
use crate::subplan::{RelSeg, SubplanKey, SubplanTracker, MAX_RELATIONS};

/// Skipper's cache-state-aware MJoin execution of one query.
pub(crate) struct SkipperEngine {
    spec: QuerySpec,
    /// One probe plan per relation, rooted at that relation (arrival-
    /// rooted symmetric-hash execution).
    rooted_plans: Vec<ProbePlan>,
    proxy: ClientProxy,
    cache: BufferCache,
    tracker: SubplanTracker,
    agg: Aggregator,
    cost: CostModel,
    /// Logical-to-physical row scale per relation.
    scales: Vec<f64>,
    /// Logical bytes per segment, per relation.
    seg_bytes: Vec<u64>,
    /// `index_cols[r]` — how many join columns relation `r` has (a table
    /// each to charge), and those that some rooted plan probes: the only
    /// ones indexed.
    index_cols: Vec<(usize, Vec<usize>)>,
    /// `outstanding[seg_offsets[rel] + seg]` — a GET for the object is in
    /// flight; `outstanding_count` of them are set.
    outstanding: Vec<bool>,
    outstanding_count: usize,
    seg_offsets: Vec<usize>,
    prune_empty: bool,
    stats: EngineStats,
    finished: bool,
    /// Subplans executed in the current cycle (livelock detector).
    cycle_executed: u64,
    /// Cycle-boundary state fingerprints seen since the last productive
    /// cycle. Zero-progress cycles are legal (the cache can alternate
    /// between complementary working sets across cycles); a *repeated*
    /// fingerprint with no progress in between means the deterministic
    /// reissue loop closed a cycle in state space and will never finish.
    stalled_states: std::collections::HashSet<u64>,
    /// The subplan being completed by the current degraded cycle, if any;
    /// its cached members are pinned against eviction so the combination
    /// cannot be cannibalized before it runs.
    degraded_target: Option<Vec<u32>>,
    /// Per-arrival scratch, reused: the subplans an arrival makes
    /// runnable and the victims its admission evicts.
    runnable: Vec<SubplanKey>,
    victims: Vec<RelSeg>,
    rooted_scratch: RootedScratch,
}

impl SkipperEngine {
    /// Builds the engine for `tenant` running `spec` over `dataset`.
    ///
    /// `cache_bytes` is the MJoin buffer cache capacity (the paper's
    /// per-client "cache size"); it must hold at least one segment per
    /// query relation.
    pub(crate) fn new(
        tenant: u16,
        dataset: &Dataset,
        spec: QuerySpec,
        cache_bytes: u64,
        policy: EvictionPolicy,
        cost: CostModel,
        prune_empty: bool,
    ) -> Self {
        spec.validate();
        let rooted_plans: Vec<ProbePlan> = (0..spec.num_relations())
            .map(|r| ProbePlan::plan_rooted(&spec, r).expect("workload query must be plannable"))
            .collect();
        let rel_tables = dataset.query_table_indexes(&spec);
        let mut seg_counts = Vec::new();
        let mut scales = Vec::new();
        let mut seg_bytes = Vec::new();
        for &t in &rel_tables {
            let def = dataset.catalog.table(t);
            seg_counts.push(def.segment_count);
            let phys = dataset.segments[t]
                .first()
                .map(|s| s.len().max(1))
                .unwrap_or(1) as f64;
            scales.push(def.logical_rows_per_segment as f64 / phys);
            seg_bytes.push(def.logical_bytes_per_segment);
        }
        let max_seg = seg_bytes.iter().copied().max().unwrap_or(0);
        assert!(
            cache_bytes >= max_seg * spec.tables.len() as u64,
            "MJoin cache ({cache_bytes} B) must hold at least one segment per \
             relation ({} × {max_seg} B) for subplans to make progress",
            spec.tables.len()
        );
        let steps = || rooted_plans.iter().flat_map(|p| &p.steps);
        let index_cols = (0..spec.num_relations())
            .map(|r| {
                let mut cols = spec.join_cols(r);
                let joined = cols.len();
                cols.retain(|&c| steps().any(|s| s.rel == r && s.key_col == c));
                (joined, cols)
            })
            .collect();
        let agg = Aggregator::for_query(&spec);
        let tracker = SubplanTracker::new(&seg_counts);
        let mut total_segs = 0usize;
        let seg_offsets: Vec<usize> = seg_counts
            .iter()
            .map(|&count| {
                let offset = total_segs;
                total_segs += count as usize;
                offset
            })
            .collect();
        SkipperEngine {
            proxy: ClientProxy::new(tenant, rel_tables.iter().map(|&t| t as u16).collect()),
            cache: BufferCache::new(spec.num_relations(), cache_bytes, policy),
            tracker,
            agg,
            cost,
            scales,
            seg_bytes,
            index_cols,
            outstanding: vec![false; total_segs],
            outstanding_count: 0,
            seg_offsets,
            prune_empty,
            stats: EngineStats::default(),
            finished: false,
            cycle_executed: 0,
            stalled_states: std::collections::HashSet::new(),
            degraded_target: None,
            runnable: Vec::new(),
            victims: Vec::new(),
            rooted_scratch: RootedScratch::default(),
            rooted_plans,
            spec,
        }
    }

    fn issue(&mut self, objects: Vec<RelSeg>) -> Vec<ObjectId> {
        let ids = self.proxy.issue(&objects);
        // `cycles` counts reissue cycles and is zero at `start`, so every
        // batch after the first is a reissue.
        self.stats.gets_issued += ids.len() as u64;
        if self.stats.cycles > 0 {
            self.stats.reissues += ids.len() as u64;
        }
        for &(rel, seg) in &objects {
            let flag = &mut self.outstanding[self.seg_offsets[rel] + seg as usize];
            assert!(!*flag, "object ({rel}, {seg}) requested while in flight");
            *flag = true;
        }
        self.outstanding_count += objects.len();
        ids
    }

    /// Executes every subplan that became runnable with `arrived`, in one
    /// arrival-rooted pass: the new segment's tuples probe the cached
    /// unions of the other relations (symmetric-hash MJoin semantics, the
    /// paper's best-case `O(S×R)` complexity at full cache). Combinations
    /// executed in earlier reissue cycles are filtered at emit time so
    /// refetched objects never double-count.
    fn execute_runnable(&mut self, arrived: RelSeg, processing: &mut SimDuration) {
        let n = self.tracker.num_relations();
        let cached = self.cache.cached_by_rel();
        self.tracker
            .runnable_with(cached, arrived, &mut self.runnable);
        if self.runnable.is_empty() {
            return;
        }
        // Every relation's candidates in one list, relation by relation:
        // the arriving segment alone for its own relation, every cached
        // segment for the others.
        let mut flat: Vec<(u32, &SegmentIndex)> = Vec::with_capacity(self.cache.len());
        let mut ends = [0usize; MAX_RELATIONS];
        for (r, segs) in cached.iter().enumerate() {
            if r == arrived.0 {
                flat.push((arrived.1, self.cache.index(arrived)));
            } else {
                flat.extend(segs.iter().map(|&seg| (seg, self.cache.index((r, seg)))));
            }
            ends[r] = flat.len();
        }
        let mut candidates: [&[(u32, &SegmentIndex)]; MAX_RELATIONS] = [&[]; MAX_RELATIONS];
        let mut start = 0;
        for (list, &end) in candidates.iter_mut().zip(&ends[..n]) {
            *list = &flat[start..end];
            start = end;
        }
        let tracker = &self.tracker;
        let agg = &mut self.agg;
        let work = nary::execute_rooted(
            &self.rooted_plans[arrived.0],
            &candidates[..n],
            &|combo| tracker.is_executed(combo),
            &mut |rows| agg.update(rows),
            &mut self.rooted_scratch,
        );
        let arrived_scale = self.scales[arrived.0];
        self.stats.probe_ops += work.probes as u64;
        self.stats.emitted_rows += work.emitted as u64;
        *processing +=
            self.cost
                .scaled(work.probes as u64, arrived_scale, self.cost.probe_ns_per_op)
                + self.cost.scaled(
                    work.emitted as u64,
                    arrived_scale,
                    self.cost.emit_ns_per_row,
                );
        for &key in &self.runnable {
            let combo: [u32; MAX_RELATIONS] =
                std::array::from_fn(|r| SubplanTracker::segment_of(key, r));
            let first = self.tracker.mark_executed(&combo[..n]);
            debug_assert!(first, "subplan executed twice: {:?}", &combo[..n]);
            self.stats.subplans_executed += 1;
            self.cycle_executed += 1;
            *processing += self.cost.subplan_overhead;
        }
    }
}

impl QueryEngine for SkipperEngine {
    fn name(&self) -> &'static str {
        "skipper"
    }

    fn start(&mut self) -> Vec<ObjectId> {
        // Algorithm 1: read the object universe from the catalog and
        // request everything upfront.
        let all: Vec<RelSeg> = (0..self.tracker.num_relations())
            .flat_map(|r| (0..self.tracker.seg_count(r)).map(move |s| (r, s)))
            .collect();
        self.issue(all)
    }

    fn on_object(&mut self, object: ObjectId, payload: &Arc<Segment>) -> Reaction {
        let mut processing = SimDuration::ZERO;
        let rel = self
            .proxy
            .rel_of(object)
            .filter(|&rel| object.segment < self.tracker.seg_count(rel))
            .unwrap_or_else(|| panic!("unexpected delivery {object}"));
        let obj: RelSeg = (rel, object.segment);
        let in_flight = &mut self.outstanding[self.seg_offsets[rel] + obj.1 as usize];
        assert!(*in_flight, "unexpected delivery {object}");
        *in_flight = false;
        self.outstanding_count -= 1;
        self.stats.objects_received += 1;

        // Admission. Objects that no longer participate in any pending
        // subplan (pruned or fully executed since the request went out)
        // are dropped without caching.
        if !self.finished && self.tracker.pending_count(obj) > 0 {
            debug_assert!(!self.cache.contains(obj), "delivered object already cached");
            // Scan + filter + symmetric-hash build, one table charged per
            // join column though only probed ones are built (logical scale).
            let (joined, ref cols) = self.index_cols[rel];
            let kept = memo::selection(payload, self.spec.filters[rel].as_ref());
            let index = SegmentIndex::over(payload, kept, cols);
            let scale = self.scales[rel];
            let scanned = index.stats().scanned as u64;
            let entries = (joined * index.len()) as u64;
            self.stats.scanned_tuples += scanned;
            self.stats.built_tuples += entries;
            let cost = &self.cost;
            processing += cost.scaled(scanned, scale, cost.scan_ns_per_tuple)
                + cost.scaled(entries, scale, cost.build_ns_per_tuple);

            if self.prune_empty && index.is_empty() {
                // §5.2.4: no tuple of this object can contribute to the
                // result; prune every subplan containing it.
                self.tracker.prune(obj);
                self.stats.pruned_objects += 1;
                // Pruning can make progress without executing subplans.
                self.cycle_executed += 1;
            } else {
                let bytes = self.seg_bytes[rel];
                let pinned: Vec<RelSeg> = self
                    .degraded_target
                    .as_ref()
                    .map(|combo| {
                        combo
                            .iter()
                            .enumerate()
                            .map(|(r, &seg)| (r, seg))
                            .filter(|&o| self.cache.contains(o))
                            .collect()
                    })
                    .unwrap_or_default();
                self.cache
                    .select_victims(&self.tracker, obj, bytes, &pinned, &mut self.victims);
                for &v in &self.victims {
                    self.cache.remove(v);
                }
                self.cache.insert(obj, CacheSlot { index, bytes });
                self.execute_runnable(obj, &mut processing);
            }
        }

        if !self.finished && self.tracker.is_complete() {
            self.finished = true;
            processing += self.cost.agg_finish;
        }

        // Reissue cycle: once every outstanding request is serviced,
        // refetch exactly the uncached objects still needed by pending
        // subplans. If the cycle that just ended made no progress
        // (possible only at extreme cache pressure, where full-set
        // refetch can oscillate between complementary working sets),
        // degrade to targeting one pending subplan — the paper's O(S^R)
        // worst-case regime of one subplan per cycle at cache capacity R.
        let mut requests = Vec::new();
        if !self.finished && self.outstanding_count == 0 {
            let needed: Vec<RelSeg> = if self.cycle_executed == 0 && self.stats.cycles > 0 {
                let combo = self
                    .tracker
                    .first_pending()
                    .expect("pending subplans exist");
                let needed = combo
                    .iter()
                    .enumerate()
                    .map(|(r, &seg)| (r, seg))
                    .filter(|&o| !self.cache.contains(o))
                    .collect();
                self.degraded_target = Some(combo);
                needed
            } else {
                self.degraded_target = None;
                self.tracker
                    .pending_objects()
                    .into_iter()
                    .filter(|&o| !self.cache.contains(o))
                    .collect()
            };
            assert!(
                !needed.is_empty(),
                "pending subplans but nothing to refetch — tracker bug"
            );
            if self.cycle_executed > 0 {
                self.stalled_states.clear();
            } else {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                self.cache.cached_by_rel().hash(&mut h);
                needed.hash(&mut h);
                assert!(
                    self.stalled_states.insert(h.finish()),
                    "query {} livelocked: the reissue loop revisited an \
                     identical cache/refetch state with no subplan progress \
                     (cache {} B is too small for this arrival order)",
                    self.spec.name,
                    self.cache.capacity()
                );
            }
            self.cycle_executed = 0;
            self.stats.cycles += 1;
            requests = self.issue(needed);
        }

        Reaction {
            processing,
            requests,
            finished: self.finished,
        }
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn result(&self) -> Vec<(Row, Vec<Value>)> {
        self.agg.finish()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use skipper_datagen::{mrbench, nref, ssb, tpch, GenConfig};
    use skipper_relational::catalog::GIB;
    use skipper_relational::query::results_approx_eq;
    use skipper_testkit::ops::reference;

    fn mini() -> (Dataset, QuerySpec) {
        // SF-4: lineitem 4 segments + orders 1 segment = 5 Q12 objects.
        let cfg = GenConfig::new(9, 4).with_phys_divisor(100_000);
        let ds = tpch::dataset(&cfg);
        let spec = tpch::q12(&ds);
        (ds, spec)
    }

    /// Table-major worst case: all lineitem segments before any orders —
    /// the naive intra-group ordering of §4.4.
    fn table_major(queue: &mut Vec<ObjectId>) -> ObjectId {
        let i = queue
            .iter()
            .enumerate()
            .max_by_key(|(_, o)| (o.table, std::cmp::Reverse(o.segment)))
            .map(|(i, _)| i)
            .unwrap();
        queue.swap_remove(i)
    }

    /// Drives the engine standalone by answering its requests in the
    /// given per-step order (round-robin across relations by default).
    fn drive(
        engine: &mut SkipperEngine,
        ds: &Dataset,
        order: impl Fn(&mut Vec<ObjectId>) -> ObjectId,
    ) -> u32 {
        let mut queue = engine.start();
        let mut served = 0u32;
        while !queue.is_empty() {
            let next = order(&mut queue);
            let payload = ds.segments[next.table as usize][next.segment as usize].clone();
            let reaction = engine.on_object(next, &payload);
            served += 1;
            queue.extend(reaction.requests);
            if reaction.finished {
                break;
            }
            assert!(served < 100_000, "engine did not converge");
        }
        served
    }

    /// Semantic order: lowest (segment, table) first — what the CSD's
    /// smart intra-group ordering delivers.
    fn semantic(queue: &mut Vec<ObjectId>) -> ObjectId {
        let i = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| (o.segment, o.table))
            .map(|(i, _)| i)
            .unwrap();
        queue.swap_remove(i)
    }

    #[test]
    fn q12_fully_cached_matches_reference_with_zero_reissues() {
        let (ds, spec) = mini();
        let total_bytes = ds.objects_for_query(&spec) as u64 * GIB;
        let mut engine = SkipperEngine::new(
            0,
            &ds,
            spec.clone(),
            total_bytes,
            EvictionPolicy::MaximalProgress,
            CostModel::paper_calibrated(),
            false,
        );
        drive(&mut engine, &ds, semantic);
        assert!(engine.is_finished());
        assert_eq!(engine.stats().reissues, 0);

        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
        let expected = reference::execute(&spec, &slices);
        assert!(results_approx_eq(&engine.result(), &expected, 1e-9));
    }

    #[test]
    fn q12_tight_cache_still_correct_with_reissues() {
        let (ds, spec) = mini();
        // Cache of 2 objects + table-major (naive) arrival order: the
        // lineitem segments thrash before orders ever shows up, forcing
        // reissue cycles.
        let mut engine = SkipperEngine::new(
            0,
            &ds,
            spec.clone(),
            2 * GIB,
            EvictionPolicy::MaximalProgress,
            CostModel::paper_calibrated(),
            false,
        );
        let served = drive(&mut engine, &ds, table_major);
        assert!(engine.is_finished());
        let objects = ds.objects_for_query(&spec);
        assert!(
            served > objects,
            "tight cache must reissue (served {served} of {objects})"
        );
        assert!(engine.stats().reissues > 0);
        assert!(engine.stats().cycles > 0);

        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
        let expected = reference::execute(&spec, &slices);
        assert!(results_approx_eq(&engine.result(), &expected, 1e-9));
    }

    #[test]
    fn counts_issues_and_reissues() {
        // The upfront batch requests every object once; each later batch
        // is a reissue cycle's refetch, counted in both totals.
        let (ds, spec) = mini();
        let mut engine = SkipperEngine::new(
            0,
            &ds,
            spec.clone(),
            2 * GIB,
            EvictionPolicy::MaximalProgress,
            CostModel::paper_calibrated(),
            false,
        );
        let served = drive(&mut engine, &ds, table_major);
        let stats = engine.stats();
        let objects = ds.objects_for_query(&spec) as u64;
        assert!(stats.reissues > 0);
        assert_eq!(stats.gets_issued, objects + stats.reissues);
        assert_eq!(stats.gets_issued, u64::from(served));
    }

    #[test]
    fn adversarial_arrival_order_still_correct() {
        let (ds, spec) = mini();
        let total_bytes = ds.objects_for_query(&spec) as u64 * GIB;
        let mut engine = SkipperEngine::new(
            0,
            &ds,
            spec.clone(),
            total_bytes,
            EvictionPolicy::MaximalProgress,
            CostModel::paper_calibrated(),
            false,
        );
        drive(&mut engine, &ds, table_major);
        assert!(engine.is_finished());
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
        assert!(results_approx_eq(
            &engine.result(),
            &reference::execute(&spec, &slices),
            1e-9
        ));
    }

    #[test]
    fn subplan_count_matches_cross_product() {
        let (ds, spec) = mini();
        let total_bytes = ds.objects_for_query(&spec) as u64 * GIB;
        let mut engine = SkipperEngine::new(
            0,
            &ds,
            spec.clone(),
            total_bytes,
            EvictionPolicy::MaximalProgress,
            CostModel::paper_calibrated(),
            false,
        );
        let li = ds.catalog.index_of("lineitem").unwrap();
        let or = ds.catalog.index_of("orders").unwrap();
        let expected =
            ds.catalog.table(li).segment_count as u64 * ds.catalog.table(or).segment_count as u64;
        assert_eq!(engine.tracker.pending_total(), expected);
        drive(&mut engine, &ds, semantic);
        assert_eq!(engine.stats().subplans_executed, expected);
    }

    #[test]
    #[should_panic(expected = "at least one segment per")]
    fn cache_below_one_object_per_relation_rejected() {
        let (ds, spec) = mini();
        SkipperEngine::new(
            0,
            &ds,
            spec,
            GIB, // two relations need ≥ 2 GiB
            EvictionPolicy::MaximalProgress,
            CostModel::paper_calibrated(),
            false,
        );
    }

    #[test]
    fn processing_time_is_charged() {
        let (ds, spec) = mini();
        let total_bytes = ds.objects_for_query(&spec) as u64 * GIB;
        let mut engine = SkipperEngine::new(
            0,
            &ds,
            spec,
            total_bytes,
            EvictionPolicy::MaximalProgress,
            CostModel::paper_calibrated(),
            false,
        );
        let mut queue = engine.start();
        let first = semantic(&mut queue);
        let payload = ds.segments[first.table as usize][first.segment as usize].clone();
        let reaction = engine.on_object(first, &payload);
        assert!(
            !reaction.processing.is_zero(),
            "scan+build must consume virtual time"
        );
    }

    /// The five paper queries at reduced scale (Q5, Q12, SSB Q1, the
    /// MR-bench join and NREF), each with its dataset.
    pub(crate) fn paper_queries() -> Vec<(Dataset, QuerySpec)> {
        let cfg = GenConfig::new(9, 4).with_phys_divisor(100_000);
        let big = GenConfig::new(9, 50).with_phys_divisor(2_000_000);
        let (tpch_ds, ssb_ds) = (tpch::dataset(&cfg), ssb::dataset(&cfg));
        let (mr_ds, nref_ds) = (mrbench::dataset(&big), nref::dataset(&big));
        vec![
            (tpch::q5(&tpch_ds), tpch_ds.clone()),
            (tpch::q12(&tpch_ds), tpch_ds),
            (ssb::q1(&ssb_ds), ssb_ds),
            (mrbench::join_task(&mr_ds), mr_ds),
            (nref::protein_count(&nref_ds), nref_ds),
        ]
        .into_iter()
        .map(|(spec, ds)| (ds, spec))
        .collect()
    }

    /// Every relation indexes exactly the columns its rooted plans probe,
    /// so `slot_of` finds every probed column; of the five paper queries
    /// only Q5's `l_suppkey` is joined but never probed, so its table is
    /// the only one not built. The build is still charged one table per
    /// join column: a full run's counts are those of building every
    /// join column.
    #[test]
    fn paper_queries_index_exactly_the_probed_columns() {
        // (built_tuples, probe_ops, emitted_rows) of indexing every join
        // column.
        let expected = [
            (709, 320, 1),
            (64, 4, 4),
            (385, 20, 5),
            (126, 86, 6),
            (408, 172, 3),
        ];
        let mut unindexed = Vec::new();
        for ((ds, spec), counts) in paper_queries().into_iter().zip(expected) {
            let total_bytes = ds.objects_for_query(&spec) as u64 * GIB;
            let mut engine = SkipperEngine::new(
                0,
                &ds,
                spec.clone(),
                total_bytes,
                EvictionPolicy::MaximalProgress,
                CostModel::paper_calibrated(),
                false,
            );
            let tables = ds.query_table_indexes(&spec);
            for (r, &table) in tables.iter().enumerate() {
                let steps = || engine.rooted_plans.iter().flat_map(|plan| &plan.steps);
                let probed = |col: &usize| steps().any(|s| s.rel == r && s.key_col == *col);
                let (indexed, skipped): (Vec<usize>, Vec<usize>) =
                    spec.join_cols(r).into_iter().partition(probed);
                let joined = indexed.len() + skipped.len();
                let (name, table_name) = (&spec.name, &spec.tables[r]);
                assert_eq!(
                    engine.index_cols[r],
                    (joined, indexed),
                    "{name} {table_name}"
                );
                let schema = &ds.catalog.table(table).schema;
                unindexed.extend(
                    skipped
                        .iter()
                        .map(|&col| format!("{} {}", spec.name, schema.field(col).name)),
                );
            }
            drive(&mut engine, &ds, semantic);
            assert!(engine.is_finished(), "{}", spec.name);
            let stats = engine.stats();
            assert_eq!(
                (stats.built_tuples, stats.probe_ops, stats.emitted_rows),
                counts,
                "{}",
                spec.name
            );
        }
        assert_eq!(unindexed, ["tpch-q5 l_suppkey"]);
    }
}
