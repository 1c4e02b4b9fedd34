//! The pull-based baseline: vanilla PostgreSQL's execution model.
//!
//! Classic optimize-then-execute: the engine fetches relations strictly
//! in the optimizer's plan order, one segment at a time, requesting the
//! next segment only after processing the current one — the access
//! pattern §3.2 shows collapsing on a shared CSD (every pair of
//! consecutive requests from a client can be separated by a full round
//! of group switches, giving the `S × C × D` blow-up of Figure 4).
//!
//! Each object traverses the FUSE interposition layer (charged per
//! Table 3); scans and hash builds are charged as segments arrive, and
//! the final result is computed with the real left-deep binary hash join
//! over the fetched data. Each segment's filter runs once, on arrival:
//! the join reuses the selection vector kept with the segment.

use std::sync::Arc;

use skipper_csd::ObjectId;
use skipper_datagen::Dataset;
use skipper_relational::ops::{binary, scan};
use skipper_relational::query::QuerySpec;
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;

use crate::config::CostModel;
use crate::engine::{EngineStats, QueryEngine, Reaction};
use crate::proxy::ClientProxy;

/// Pull-based, plan-ordered baseline engine.
pub(crate) struct VanillaEngine {
    spec: QuerySpec,
    proxy: ClientProxy,
    cost: CostModel,
    scales: Vec<f64>,
    /// The strict fetch sequence (plan order × segment order).
    sequence: Vec<ObjectId>,
    next: usize,
    /// Received segments per query relation, each with the selection
    /// vector of the relation's filter over it.
    received: Vec<Vec<(Arc<Segment>, Vec<u32>)>>,
    stats: EngineStats,
    finished: bool,
    result: Vec<(Row, Vec<Value>)>,
}

impl VanillaEngine {
    /// Builds the baseline engine for `tenant` running `spec` over
    /// `dataset`.
    pub(crate) fn new(tenant: u16, dataset: &Dataset, spec: QuerySpec, cost: CostModel) -> Self {
        spec.validate();
        let rel_tables = dataset.query_table_indexes(&spec);
        let mut scales = Vec::new();
        let mut seg_counts = Vec::new();
        for &t in &rel_tables {
            let def = dataset.catalog.table(t);
            let phys = dataset.segments[t]
                .first()
                .map(|s| s.len().max(1))
                .unwrap_or(1) as f64;
            scales.push(def.logical_rows_per_segment as f64 / phys);
            seg_counts.push(def.segment_count);
        }
        let proxy = ClientProxy::new(tenant, rel_tables.iter().map(|&t| t as u16).collect());
        // Pull order: plan order, each relation's segments in file order —
        // "the database explicitly requests segments in an order
        // determined by the query plan".
        let sequence: Vec<ObjectId> = spec
            .plan_order
            .iter()
            .flat_map(|&rel| (0..seg_counts[rel]).map(move |s| (rel, s)))
            .map(|(rel, seg)| proxy.object_id((rel, seg)))
            .collect();
        let received = vec![Vec::new(); spec.num_relations()];
        VanillaEngine {
            spec,
            proxy,
            cost,
            scales,
            sequence,
            next: 0,
            received,
            stats: EngineStats::default(),
            finished: false,
            result: Vec::new(),
        }
    }
}

impl QueryEngine for VanillaEngine {
    fn name(&self) -> &'static str {
        "vanilla"
    }

    fn start(&mut self) -> Vec<ObjectId> {
        // Pull-based: exactly one outstanding request.
        self.stats.gets_issued = 1;
        self.next = 1;
        vec![self.sequence[0]]
    }

    fn on_object(&mut self, object: ObjectId, payload: &Arc<Segment>) -> Reaction {
        assert!(!self.finished, "delivery after completion");
        assert_eq!(
            object,
            self.sequence[self.next - 1],
            "pull-based delivery out of order"
        );
        let rel = self.proxy.rel_of(object).expect("own delivery");
        self.stats.objects_received += 1;

        // FUSE traversal + scan, charged at logical scale.
        let scale = self.scales[rel];
        let mut processing = self.cost.fuse_charge();
        self.stats.scanned_tuples += payload.len() as u64;
        processing += self
            .cost
            .scaled(payload.len() as u64, scale, self.cost.scan_ns_per_tuple);

        // Hash-build (build-side relations) or probe (the last plan
        // relation) over the filter survivors.
        let survivors = scan::select(payload, self.spec.filters[rel].as_ref());
        let kept = survivors.len() as u64;
        self.received[rel].push((Arc::clone(payload), survivors));
        let is_probe_side = *self.spec.plan_order.last().unwrap() == rel;
        if is_probe_side {
            self.stats.probe_ops += kept;
            processing += self.cost.scaled(kept, scale, self.cost.probe_ns_per_op);
        } else {
            self.stats.built_tuples += kept;
            processing += self.cost.scaled(kept, scale, self.cost.build_ns_per_tuple);
        }

        let mut requests = Vec::new();
        if self.next < self.sequence.len() {
            requests.push(self.sequence[self.next]);
            self.next += 1;
            self.stats.gets_issued += 1;
        } else {
            // All inputs resident: run the real blocking join for the
            // result and charge the emit cost.
            let selected: Vec<Vec<binary::Selected<'_>>> = self
                .received
                .iter()
                .map(|segs| {
                    segs.iter()
                        .map(|(seg, survivors)| (&**seg, survivors.as_slice()))
                        .collect()
                })
                .collect();
            let (agg, work) = binary::join_selected(&self.spec, &selected);
            self.stats.emitted_rows += work.emitted as u64;
            processing += self.cost.scaled(
                work.emitted as u64,
                self.scales[self.spec.driver],
                self.cost.emit_ns_per_row,
            ) + self.cost.agg_finish;
            self.result = agg.finish();
            self.finished = true;
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
        self.result.clone()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_datagen::{tpch, GenConfig};
    use skipper_relational::query::results_approx_eq;
    use skipper_sim::SimDuration;
    use skipper_testkit::ops::reference;

    fn mini() -> (Dataset, QuerySpec) {
        let cfg = GenConfig::new(9, 4).with_phys_divisor(100_000);
        let ds = tpch::dataset(&cfg);
        let spec = tpch::q12(&ds);
        (ds, spec)
    }

    fn drive(engine: &mut VanillaEngine, ds: &Dataset) -> (u32, SimDuration) {
        let mut queue = engine.start();
        let mut served = 0;
        let mut cpu = SimDuration::ZERO;
        while let Some(next) = queue.pop() {
            assert!(queue.is_empty(), "vanilla must have one outstanding GET");
            let payload = ds.segments[next.table as usize][next.segment as usize].clone();
            let r = engine.on_object(next, &payload);
            cpu += r.processing;
            served += 1;
            queue.extend(r.requests);
            if r.finished {
                break;
            }
        }
        (served, cpu)
    }

    #[test]
    fn fetches_in_plan_order_one_at_a_time() {
        let (ds, spec) = mini();
        let mut engine = VanillaEngine::new(0, &ds, spec.clone(), CostModel::paper_calibrated());
        let orders_segs = ds
            .catalog
            .table(ds.catalog.index_of("orders").unwrap())
            .segment_count;
        // First request must be orders segment 0 (plan order: orders
        // before lineitem), then orders 1..; lineitem only after.
        let first = engine.start();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].segment, 0);
        let seq = engine.sequence.clone();
        for (i, o) in seq.iter().enumerate() {
            if (i as u32) < orders_segs {
                assert_eq!(o.table as usize, ds.catalog.index_of("orders").unwrap());
            } else {
                assert_eq!(o.table as usize, ds.catalog.index_of("lineitem").unwrap());
            }
        }
    }

    #[test]
    fn result_matches_reference() {
        let (ds, spec) = mini();
        let mut engine = VanillaEngine::new(0, &ds, spec.clone(), CostModel::paper_calibrated());
        let (served, cpu) = drive(&mut engine, &ds);
        assert!(engine.is_finished());
        assert_eq!(served, ds.objects_for_query(&spec));
        assert!(!cpu.is_zero());
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[Segment]> = tables.iter().map(|t| t.as_slice()).collect();
        assert!(results_approx_eq(
            &engine.result(),
            &reference::execute(&spec, &slices),
            1e-9
        ));
    }

    #[test]
    fn vanilla_never_reissues() {
        let (ds, spec) = mini();
        let mut engine = VanillaEngine::new(0, &ds, spec.clone(), CostModel::paper_calibrated());
        drive(&mut engine, &ds);
        let stats = engine.stats();
        assert_eq!(stats.reissues, 0);
        assert_eq!(stats.gets_issued, ds.objects_for_query(&spec) as u64);
    }

    #[test]
    fn fuse_charge_applies_per_object() {
        let (ds, spec) = mini();
        let with_fuse = {
            let mut e = VanillaEngine::new(0, &ds, spec.clone(), CostModel::paper_calibrated());
            drive(&mut e, &ds).1
        };
        let without = {
            let mut e = VanillaEngine::new(
                0,
                &ds,
                spec.clone(),
                CostModel::paper_calibrated().without_fuse(),
            );
            drive(&mut e, &ds).1
        };
        let diff = with_fuse - without;
        let expected = CostModel::paper_calibrated().fuse_overhead_per_object
            * ds.objects_for_query(&spec) as u64;
        assert_eq!(diff, expected);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_delivery_rejected() {
        let (ds, spec) = mini();
        let mut engine = VanillaEngine::new(0, &ds, spec, CostModel::paper_calibrated());
        let _ = engine.start();
        // Deliver something that was never requested first.
        let bogus = *engine.sequence.last().unwrap();
        let payload = ds.segments[bogus.table as usize][bogus.segment as usize].clone();
        engine.on_object(bogus, &payload);
    }
}
