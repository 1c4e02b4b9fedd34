//! Synthetic query engines and the timing decorator.
//!
//! The four synthetic workloads must load the runtime, not the
//! relational code, so their tenants run engines that only count
//! objects: [`BatchFactory`] issues its whole working set in `start()`
//! (Skipper's access pattern), [`PullFactory`] keeps one GET
//! outstanding (the pull-based baseline's). Both charge a fixed
//! processing time per delivery and do no relational work.
//!
//! [`TimedFactory`] wraps any [`EngineFactory`] behind the same public
//! traits and times every call into the engine it built — the in-situ
//! measurement of the engine layer used by the traced pass only.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use skipper_core::engine::{EngineStats, QueryEngine, Reaction};
use skipper_core::runtime::EngineFactory;
use skipper_core::CostModel;
use skipper_csd::{ObjectId, SchedPolicy};
use skipper_datagen::Dataset;
use skipper_relational::query::QuerySpec;
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;
use skipper_sim::SimDuration;

/// Virtual CPU time every synthetic engine charges per delivered object.
pub const SYNTHETIC_PROCESSING: SimDuration = SimDuration::from_millis(1);

/// The query a synthetic tenant "runs": one relation, no joins, no
/// aggregates. The synthetic engines ignore everything but the name.
pub fn synthetic_query(table: &str) -> QuerySpec {
    QuerySpec {
        name: "synthetic-scan".to_string(),
        tables: vec![table.to_string()],
        filters: vec![None],
        joins: Vec::new(),
        driver: 0,
        plan_order: vec![0],
        probe_order: None,
        group_by: Vec::new(),
        aggregates: Vec::new(),
    }
}

/// Every object of `tenant`'s dataset, in storage order.
pub fn working_set(tenant: u16, dataset: &Dataset) -> Vec<ObjectId> {
    (0..dataset.catalog.len())
        .flat_map(|t| {
            (0..dataset.catalog.table(t).segment_count)
                .map(move |s| ObjectId::new(tenant, t as u16, s))
        })
        .collect()
}

/// Builds [`BatchEngine`]s: the whole working set is requested upfront.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchFactory;

impl EngineFactory for BatchFactory {
    fn label(&self) -> &'static str {
        "batch"
    }

    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        _spec: QuerySpec,
        _cost: CostModel,
    ) -> Box<dyn QueryEngine> {
        Box::new(BatchEngine {
            objects: working_set(tenant, dataset),
            stats: EngineStats::default(),
        })
    }

    fn preferred_scheduler(&self) -> SchedPolicy {
        SchedPolicy::RankBased
    }
}

/// Requests every object in `start()`, then only counts deliveries.
pub struct BatchEngine {
    objects: Vec<ObjectId>,
    stats: EngineStats,
}

impl QueryEngine for BatchEngine {
    fn name(&self) -> &'static str {
        "batch"
    }

    fn start(&mut self) -> Vec<ObjectId> {
        self.stats.gets_issued = self.objects.len() as u64;
        self.objects.clone()
    }

    fn on_object(&mut self, _object: ObjectId, _payload: &Arc<Segment>) -> Reaction {
        self.stats.objects_received += 1;
        Reaction {
            processing: SYNTHETIC_PROCESSING,
            requests: Vec::new(),
            finished: self.is_finished(),
        }
    }

    fn is_finished(&self) -> bool {
        self.stats.objects_received == self.objects.len() as u64
    }

    fn result(&self) -> Vec<(Row, Vec<Value>)> {
        Vec::new()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

/// Builds [`PullEngine`]s: one GET outstanding at any time.
#[derive(Clone, Copy, Debug, Default)]
pub struct PullFactory;

impl EngineFactory for PullFactory {
    fn label(&self) -> &'static str {
        "pull"
    }

    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        _spec: QuerySpec,
        _cost: CostModel,
    ) -> Box<dyn QueryEngine> {
        Box::new(PullEngine {
            objects: working_set(tenant, dataset),
            stats: EngineStats::default(),
        })
    }

    fn preferred_scheduler(&self) -> SchedPolicy {
        SchedPolicy::FcfsObject
    }
}

/// Requests object `k + 1` only once object `k` has been processed.
pub struct PullEngine {
    objects: Vec<ObjectId>,
    stats: EngineStats,
}

impl QueryEngine for PullEngine {
    fn name(&self) -> &'static str {
        "pull"
    }

    fn start(&mut self) -> Vec<ObjectId> {
        self.stats.gets_issued = 1;
        vec![self.objects[0]]
    }

    fn on_object(&mut self, _object: ObjectId, _payload: &Arc<Segment>) -> Reaction {
        self.stats.objects_received += 1;
        let finished = self.is_finished();
        let requests = if finished {
            Vec::new()
        } else {
            self.stats.gets_issued += 1;
            vec![self.objects[self.stats.objects_received as usize]]
        };
        Reaction {
            processing: SYNTHETIC_PROCESSING,
            requests,
            finished,
        }
    }

    fn is_finished(&self) -> bool {
        self.stats.objects_received == self.objects.len() as u64
    }

    fn result(&self) -> Vec<(Row, Vec<Value>)> {
        Vec::new()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

/// What one engine instance (one query of one tenant) cost the host.
#[derive(Clone, Debug)]
pub struct EngineSpan {
    /// Tenant the engine ran for.
    pub tenant: u16,
    /// Query name from the spec.
    pub query: String,
    /// Host nanoseconds (since the log's epoch) of the factory call.
    pub start_ns: u64,
    /// Host nanoseconds of the last call into the engine.
    pub end_ns: u64,
    /// `on_object` calls.
    pub calls: u64,
    /// Nanoseconds inside `on_object`.
    pub on_object_ns: u64,
    /// Nanoseconds inside the factory's `build` plus `start()`.
    pub build_ns: u64,
    /// The engine's own work counters when it was dropped.
    pub stats: EngineStats,
}

/// Mean nanoseconds an empty pair of clock reads measures on this
/// host. The same pair brackets every timed engine call, so this much
/// of each measurement is the clock — several times what a synthetic
/// engine's `on_object` itself takes.
pub fn timer_cost_ns() -> f64 {
    const BRACKETS: u32 = 200_000;
    let mut total_ns = 0u128;
    for _ in 0..BRACKETS {
        let begin = Instant::now();
        let end = Instant::now();
        total_ns += end.duration_since(begin).as_nanos();
    }
    total_ns as f64 / f64::from(BRACKETS)
}

/// Engine spans of one traced run, appended as engines are dropped.
pub struct EngineLog {
    /// Origin of every `*_ns` instant.
    pub epoch: Instant,
    /// One entry per engine instance, in drop order.
    pub spans: Vec<EngineSpan>,
}

impl EngineLog {
    /// An empty log whose instants count from `epoch`.
    pub fn new(epoch: Instant) -> Rc<RefCell<EngineLog>> {
        Rc::new(RefCell::new(EngineLog {
            epoch,
            spans: Vec::new(),
        }))
    }
}

/// Decorates a factory so every engine it builds is a [`TimedEngine`].
pub struct TimedFactory {
    inner: Arc<dyn EngineFactory>,
    log: Rc<RefCell<EngineLog>>,
}

impl TimedFactory {
    /// Wraps `inner`; spans land in `log`.
    pub fn new(inner: Arc<dyn EngineFactory>, log: Rc<RefCell<EngineLog>>) -> Self {
        TimedFactory { inner, log }
    }
}

impl EngineFactory for TimedFactory {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn build(
        &self,
        tenant: u16,
        dataset: &Dataset,
        spec: QuerySpec,
        cost: CostModel,
    ) -> Box<dyn QueryEngine> {
        let epoch = self.log.borrow().epoch;
        let query = spec.name.clone();
        let begin = Instant::now();
        let inner = self.inner.build(tenant, dataset, spec, cost);
        let end = Instant::now();
        Box::new(TimedEngine {
            inner,
            log: Rc::clone(&self.log),
            epoch,
            span: EngineSpan {
                tenant,
                query,
                start_ns: begin.duration_since(epoch).as_nanos() as u64,
                end_ns: end.duration_since(epoch).as_nanos() as u64,
                calls: 0,
                on_object_ns: 0,
                build_ns: end.duration_since(begin).as_nanos() as u64,
                stats: EngineStats::default(),
            },
        })
    }

    fn preferred_scheduler(&self) -> SchedPolicy {
        self.inner.preferred_scheduler()
    }
}

/// Forwards every call to the real engine and times it. The aggregate
/// is written to the shared log when the runtime drops the engine (at
/// query finish or cancel), so the hot path touches no shared state.
pub struct TimedEngine {
    inner: Box<dyn QueryEngine>,
    log: Rc<RefCell<EngineLog>>,
    epoch: Instant,
    span: EngineSpan,
}

impl QueryEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn start(&mut self) -> Vec<ObjectId> {
        let begin = Instant::now();
        let requests = self.inner.start();
        let end = Instant::now();
        self.span.build_ns += end.duration_since(begin).as_nanos() as u64;
        self.span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        requests
    }

    fn on_object(&mut self, object: ObjectId, payload: &Arc<Segment>) -> Reaction {
        let begin = Instant::now();
        let reaction = self.inner.on_object(object, payload);
        let end = Instant::now();
        self.span.calls += 1;
        self.span.on_object_ns += end.duration_since(begin).as_nanos() as u64;
        self.span.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        reaction
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    fn result(&self) -> Vec<(Row, Vec<Value>)> {
        self.inner.result()
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
}

impl Drop for TimedEngine {
    fn drop(&mut self) {
        self.span.stats = self.inner.stats();
        // A run that panicked mid-borrow must not turn into an abort.
        if let Ok(mut log) = self.log.try_borrow_mut() {
            log.spans.push(self.span.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::synthetic_dataset;

    /// Drives `engine` the way a client would — every requested object
    /// is delivered, follow-ups go out after processing — and checks
    /// the `Reaction` contract at every step. Returns the largest
    /// number of GETs ever outstanding and the total issued.
    fn drive(engine: &mut dyn QueryEngine, dataset: &Dataset) -> (usize, u64) {
        let payload = Arc::clone(&dataset.segments[0][0]);
        let mut outstanding: Vec<ObjectId> = engine.start();
        let mut issued = outstanding.len() as u64;
        let mut peak = outstanding.len();
        while let Some(object) = outstanding.pop() {
            assert!(!engine.is_finished(), "delivery after finish");
            let reaction = engine.on_object(object, &payload);
            assert_eq!(reaction.processing, SYNTHETIC_PROCESSING);
            assert!(
                !reaction.finished || reaction.requests.is_empty(),
                "finished with follow-up requests"
            );
            assert_eq!(reaction.finished, engine.is_finished());
            issued += reaction.requests.len() as u64;
            outstanding.extend(reaction.requests);
            peak = peak.max(outstanding.len());
        }
        assert!(engine.is_finished(), "ran dry before finishing");
        (peak, issued)
    }

    #[test]
    fn batch_engine_issues_exactly_its_working_set_upfront() {
        let dataset = synthetic_dataset("t", 37, 1);
        let cost = CostModel::paper_calibrated();
        let mut engine = BatchFactory.build(3, &dataset, synthetic_query("objects"), cost);
        let first = engine.start();
        assert_eq!(first.len(), 37);
        assert!(first.iter().all(|o| o.tenant == 3));
        let mut engine = BatchFactory.build(3, &dataset, synthetic_query("objects"), cost);
        let (peak, issued) = drive(engine.as_mut(), &dataset);
        assert_eq!((peak, issued), (37, 37));
        assert_eq!(engine.stats().gets_issued, 37);
        assert_eq!(engine.stats().objects_received, 37);
    }

    #[test]
    fn pull_engine_keeps_exactly_one_get_outstanding() {
        let dataset = synthetic_dataset("t", 23, 1);
        let cost = CostModel::paper_calibrated();
        let mut engine = PullFactory.build(0, &dataset, synthetic_query("objects"), cost);
        let (peak, issued) = drive(engine.as_mut(), &dataset);
        assert_eq!((peak, issued), (1, 23));
        assert_eq!(engine.stats().gets_issued, 23);
    }

    #[test]
    fn timed_engine_is_transparent_and_logs_one_span_per_engine() {
        let dataset = synthetic_dataset("t", 9, 1);
        let cost = CostModel::paper_calibrated();
        let log = EngineLog::new(Instant::now());
        let factory = TimedFactory::new(Arc::new(PullFactory), Rc::clone(&log));
        assert_eq!(factory.label(), "pull");
        assert_eq!(factory.preferred_scheduler(), SchedPolicy::FcfsObject);
        {
            let mut engine = factory.build(5, &dataset, synthetic_query("objects"), cost);
            let (peak, issued) = drive(engine.as_mut(), &dataset);
            assert_eq!((peak, issued), (1, 9));
            assert!(log.borrow().spans.is_empty(), "span written before drop");
        }
        let log = log.borrow();
        assert_eq!(log.spans.len(), 1);
        let span = &log.spans[0];
        assert_eq!((span.tenant, span.calls), (5, 9));
        assert_eq!(span.stats.gets_issued, 9);
        assert!(span.end_ns >= span.start_ns);
    }
}
