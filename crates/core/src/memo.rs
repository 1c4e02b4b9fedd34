//! The run-scoped memo of pure per-object results.
//!
//! Within one run, what a filter keeps of a segment and what a
//! Vanilla query's blocking join yields over a dataset depend on
//! nothing the run changes: the tenants of a fleet over one dataset
//! recompute the same selection vectors on every arrival and reissue,
//! and every Vanilla tenant with the same query joins the same inputs.
//! The memo computes each once per run and shares the result:
//!
//! * [`selection`] maps (segment, filter) to the filter's selection
//!   vector as an `Arc<[u32]>`; Skipper's `SegmentIndex` keeps that
//!   `Arc` and Vanilla's blocking join reads it, so one copy serves
//!   every tenant. A relation with no filter takes no entry.
//! * [`join`] maps (dataset, query) to a Vanilla query's aggregate rows
//!   and emitted-row count.
//!
//! Only the host work is shared: each engine still charges the virtual
//! time and counts the stats of the work as if it had done it.
//!
//! # Scope
//!
//! `Runtime::run` opens a [`Scope`] for its whole run: the memo starts
//! empty, and dropping the scope — at the end of the run, or while a
//! panic unwinds through it — frees every entry. Outside a scope the
//! functions compute directly, so an engine driven on its own does the
//! work itself, and repeated runs over one dataset each do the same
//! work. The memo lives in a thread-local, because the engine
//! interfaces that reach it do not carry it. A run started inside
//! another (no shipped code does) replaces and then frees the outer
//! run's memo; the outer run's engines then compute directly.
//!
//! A lookup allocates nothing: segments and datasets are keyed by
//! address, which every tenant's `Arc` keeps stable for the run, and a
//! filter or query by its place in the run's short list of distinct
//! ones, found by comparing values.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use skipper_datagen::Dataset;
use skipper_relational::expr::Expr;
use skipper_relational::ops::scan;
use skipper_relational::query::QuerySpec;
use skipper_relational::segment::Segment;
use skipper_relational::tuple::Row;
use skipper_relational::value::Value;

/// A segment and the selection vector of a filter over it.
pub(crate) type Filtered = (Arc<Segment>, Arc<[u32]>);

/// A Vanilla query's aggregate rows and the joined rows it emitted.
pub(crate) struct JoinOutput {
    /// The final `(group key, aggregates)` rows, sorted by key.
    pub rows: Vec<(Row, Vec<Value>)>,
    /// Joined rows emitted to the aggregator.
    pub emitted: usize,
}

/// One run's entries.
#[derive(Default)]
struct RunMemo {
    /// The distinct filters seen this run; an entry's filter is its
    /// place here.
    filters: Vec<Expr>,
    /// `(segment address, filter)` → the segment (held, so the address
    /// cannot be reused) and its selection vector.
    selections: HashMap<(usize, usize), Filtered>,
    /// `(dataset address, query)` → the query's join output.
    joins: Vec<(usize, QuerySpec, Arc<JoinOutput>)>,
}

thread_local! {
    static MEMO: RefCell<Option<RunMemo>> = const { RefCell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Filter evaluations and joins computed on this thread, in a scope
    /// or not.
    static COMPUTED: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// An open memo scope; dropping it frees the memo.
pub(crate) struct Scope(());

impl Scope {
    /// Opens an empty memo on this thread.
    pub(crate) fn open() -> Scope {
        MEMO.with(|memo| *memo.borrow_mut() = Some(RunMemo::default()));
        Scope(())
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        // A panic inside a lookup releases the cell as it unwinds, before
        // the scope drops; if the thread-local is already gone there is
        // nothing to free.
        let _ = MEMO.try_with(|memo| {
            if let Ok(mut memo) = memo.try_borrow_mut() {
                *memo = None;
            }
        });
    }
}

/// The selection vector of `segment` under `filter`
/// ([`scan::select`]), evaluated once per run and shared.
pub(crate) fn selection(segment: &Arc<Segment>, filter: Option<&Expr>) -> Arc<[u32]> {
    let Some(filter) = filter else {
        let rows = u32::try_from(segment.len()).expect("segment rows exceed 32-bit positions");
        return (0..rows).collect();
    };
    let evaluate = || -> Arc<[u32]> {
        #[cfg(test)]
        COMPUTED.with(|n| n.set((n.get().0 + 1, n.get().1)));
        scan::select(segment, Some(filter)).into()
    };
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let Some(memo) = memo.as_mut() else {
            return evaluate();
        };
        let at = match memo.filters.iter().position(|f| f == filter) {
            Some(at) => at,
            None => {
                memo.filters.push(filter.clone());
                memo.filters.len() - 1
            }
        };
        let address = Arc::as_ptr(segment) as usize;
        let (_, selected) = memo
            .selections
            .entry((address, at))
            .or_insert_with(|| (Arc::clone(segment), evaluate()));
        Arc::clone(selected)
    })
}

/// The key [`join`] takes for `dataset`: its address.
pub(crate) fn address(dataset: &Dataset) -> usize {
    dataset as *const Dataset as usize
}

/// `spec`'s join output over the dataset at `dataset` ([`address`]),
/// computed by `compute` once per run and shared. `compute` must be a
/// pure function of the dataset and the query.
pub(crate) fn join(
    dataset: usize,
    spec: &QuerySpec,
    compute: impl FnOnce() -> JoinOutput,
) -> Arc<JoinOutput> {
    let compute = || {
        #[cfg(test)]
        COMPUTED.with(|n| n.set((n.get().0, n.get().1 + 1)));
        Arc::new(compute())
    };
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        let Some(memo) = memo.as_mut() else {
            return compute();
        };
        let held = memo
            .joins
            .iter()
            .find(|(at, query, _)| *at == dataset && query == spec);
        if let Some((.., output)) = held {
            return Arc::clone(output);
        }
        let output = compute();
        memo.joins
            .push((dataset, spec.clone(), Arc::clone(&output)));
        output
    })
}

/// Entries held by this thread's memo (selections, joins), or `None`
/// outside a scope.
#[cfg(test)]
pub(crate) fn entries() -> Option<(usize, usize)> {
    MEMO.with(|memo| {
        memo.borrow()
            .as_ref()
            .map(|m| (m.selections.len(), m.joins.len()))
    })
}

/// Filter evaluations ([`selection`]) and joins ([`join`]) computed on
/// this thread so far.
#[cfg(test)]
pub(crate) fn computed() -> (u64, u64) {
    COMPUTED.with(|n| n.get())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;

    use skipper_csd::ObjectId;
    use skipper_datagen::{tpch, GenConfig};
    use skipper_relational::catalog::GIB;

    use super::*;
    use crate::config::CostModel;
    use crate::engine::{EngineStats, QueryEngine, Reaction};
    use crate::runtime::{EngineFactory, Scenario, SkipperFactory, VanillaFactory, Workload};
    use crate::state_manager::tests::paper_queries;
    use crate::vanilla::VanillaEngine;

    /// The distinct (segment, filter) pairs of `specs`' filtered
    /// relations over `ds`, by segment address and filter value.
    fn filtered_pairs<'a>(ds: &'a Dataset, specs: &'a [QuerySpec]) -> Vec<(usize, &'a Expr)> {
        let mut pairs: Vec<(usize, &Expr)> = Vec::new();
        for spec in specs {
            let tables = ds.query_table_indexes(spec);
            for (filter, &table) in spec.filters.iter().zip(&tables) {
                let Some(filter) = filter else { continue };
                for segment in ds.table_segments(table) {
                    let pair = (Arc::as_ptr(segment) as usize, filter);
                    if !pairs.contains(&pair) {
                        pairs.push(pair);
                    }
                }
            }
        }
        pairs
    }

    /// On every filtered relation of the five paper queries the memo
    /// returns exactly `scan::select`'s vector, on the first lookup and
    /// on every later one; an equal filter shares the entry, a different
    /// one does not, and an unfiltered relation takes none.
    #[test]
    fn selections_equal_the_scan_and_share_equal_filters() {
        let _scope = Scope::open();
        let queries = paper_queries();
        let mut expected = 0;
        for (ds, spec) in &queries {
            let before = entries().expect("in a scope").0;
            let tables = ds.query_table_indexes(spec);
            for (filter, &table) in spec.filters.iter().zip(&tables) {
                for segment in ds.table_segments(table) {
                    let scanned = scan::select(segment, filter.as_ref());
                    let first = selection(segment, filter.as_ref());
                    assert_eq!(*first, *scanned, "{} table {table}", spec.name);
                    // An equal filter built apart: the same entry.
                    let again = selection(segment, filter.clone().as_ref());
                    assert_eq!(Arc::ptr_eq(&first, &again), filter.is_some());
                }
            }
            let added = filtered_pairs(ds, std::slice::from_ref(spec));
            assert_eq!(entries().unwrap().0 - before, added.len(), "{}", spec.name);
            expected += added.len();
        }
        // Q5 and Q12 share the TPC-H dataset, and filter no table alike.
        assert_eq!(entries(), Some((expected, 0)));
        let (ds, q12) = &queries[1];
        let lineitem = ds.query_table_indexes(q12)[1];
        let segment = &ds.table_segments(lineitem)[0];
        let filter = q12.filters[1].as_ref().expect("Q12 filters lineitem");
        let other = filter.clone().and(Expr::col(0).ge(Expr::lit(0i64)));
        let (shared, apart) = (
            selection(segment, Some(filter)),
            selection(segment, Some(&other)),
        );
        assert!(!Arc::ptr_eq(&shared, &apart));
        assert_eq!(entries(), Some((expected + 1, 0)));
    }

    /// A Vanilla engine that panics once it has processed `left`
    /// objects, noting the memo's entries first.
    struct PanicAfter {
        inner: Box<dyn QueryEngine>,
        left: Cell<u32>,
        seen: Rc<Cell<Option<(usize, usize)>>>,
    }

    impl QueryEngine for PanicAfter {
        fn name(&self) -> &'static str {
            "panic-after"
        }
        fn start(&mut self) -> Vec<ObjectId> {
            self.inner.start()
        }
        fn on_object(&mut self, object: ObjectId, payload: &Arc<Segment>) -> Reaction {
            let reaction = self.inner.on_object(object, payload);
            self.left.set(self.left.get() - 1);
            if self.left.get() == 0 {
                self.seen.set(entries());
                panic!("engine failed mid-run");
            }
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

    struct PanicFactory(Rc<Cell<Option<(usize, usize)>>>);

    impl EngineFactory for PanicFactory {
        fn label(&self) -> &'static str {
            "panic-after"
        }
        fn build(
            &self,
            tenant: u16,
            dataset: &Dataset,
            spec: QuerySpec,
            cost: CostModel,
        ) -> Box<dyn QueryEngine> {
            Box::new(PanicAfter {
                inner: VanillaFactory.build(tenant, dataset, spec, cost),
                left: Cell::new(3),
                seen: Rc::clone(&self.0),
            })
        }
        fn preferred_scheduler(&self) -> skipper_csd::SchedPolicy {
            VanillaFactory.preferred_scheduler()
        }
    }

    /// The memo exists only while a run runs: empty at its start, gone
    /// after it ends, whether it finishes or panics.
    #[test]
    fn memo_is_empty_outside_a_run_and_after_a_panicking_run() {
        let (ds, spec) = tpch_at(4);
        assert_eq!(entries(), None);
        Scenario::from_workloads(vec![Workload::new(ds.clone())
            .repeat_query(spec.clone(), 1)
            .engine(VanillaFactory)])
        .run();
        assert_eq!(entries(), None);

        let seen = Rc::new(Cell::new(None));
        let failed = catch_unwind(AssertUnwindSafe(|| {
            Scenario::from_workloads(vec![Workload::new(ds)
                .repeat_query(spec, 1)
                .engine(PanicFactory(Rc::clone(&seen)))])
            .run()
        }));
        assert!(failed.is_err(), "the engine panics");
        // The run had filtered segments when it failed.
        let (selections, joins) = seen.get().expect("the engine saw the run's memo");
        assert!(
            selections > 0 && joins == 0,
            "{selections} selections, {joins} joins"
        );
        assert_eq!(entries(), None);
    }

    /// TPC-H at scale factor `sf`, and its Q12.
    fn tpch_at(sf: u32) -> (Arc<Dataset>, QuerySpec) {
        let ds = tpch::dataset(&GenConfig::new(9, sf).with_phys_divisor(200_000));
        let q12 = tpch::q12(&ds);
        (Arc::new(ds), q12)
    }

    /// The Skipper tenants' cache: tight enough at SF-16 to reissue.
    const CACHE: u64 = 8 * GIB;

    /// 6 Skipper tenants and 2 Vanilla tenants, each running Q5 then
    /// Q12 over one dataset.
    fn fleet(ds: &Arc<Dataset>, queries: &[QuerySpec]) -> Scenario {
        let tenants = (0..8)
            .map(|t| {
                let w = Workload::new(Arc::clone(ds)).queries(queries.to_vec());
                if t < 6 {
                    w.engine(SkipperFactory::default().cache_bytes(CACHE))
                } else {
                    w.engine(VanillaFactory)
                }
            })
            .collect();
        Scenario::from_workloads(tenants)
    }

    /// Each (segment, filter) of the fleet's queries is evaluated once
    /// per run, and each query joined once for the Vanilla tenants; a
    /// second run over the same dataset does the same work again.
    #[test]
    fn fleet_evaluates_each_filter_once_per_run() {
        let (ds, q12) = tpch_at(16);
        let queries = [tpch::q5(&ds), q12];
        // Every pair once, and each query's Vanilla join once.
        let per_run = (filtered_pairs(&ds, &queries).len() as u64, 2);
        let since = |(e, j): (u64, u64)| (computed().0 - e, computed().1 - j);
        let start = computed();
        let first = fleet(&ds, &queries).run();
        assert_eq!(since(start), per_run);
        let middle = computed();
        let second = fleet(&ds, &queries).run();
        assert_eq!(since(middle), per_run);
        let reissues: u64 = first.clients[..6]
            .iter()
            .flatten()
            .map(|r| r.stats.reissues)
            .sum();
        assert!(reissues > 0, "the Skipper cache must reissue");
        for (a, b) in first.clients.iter().zip(&second.clients) {
            for (a, b) in a.iter().zip(b) {
                assert_eq!((a.end, &a.result, a.stats), (b.end, &b.result, b.stats));
            }
        }
    }

    /// A Vanilla tenant that takes another's join output reports the
    /// rows, stats and charged time of joining by itself.
    #[test]
    fn vanilla_tenants_equal_a_memo_free_join() {
        let (ds, q12) = tpch_at(16);
        let queries = [tpch::q5(&ds), q12];
        let result = fleet(&ds, &queries).run();
        for (tenant, records) in result.clients.iter().enumerate().skip(6) {
            for (record, spec) in records.iter().zip(&queries) {
                assert_eq!(entries(), None, "no memo outside the run");
                let mut engine = VanillaEngine::new(
                    tenant as u16,
                    &ds,
                    spec.clone(),
                    CostModel::paper_calibrated(),
                );
                let mut processing = skipper_sim::SimDuration::ZERO;
                let mut next = engine.start();
                while let Some(object) = next.pop() {
                    let payload = &ds.segments[object.table as usize][object.segment as usize];
                    let reaction = engine.on_object(object, payload);
                    processing += reaction.processing;
                    next = reaction.requests;
                }
                assert!(engine.is_finished());
                assert_eq!(record.engine, "vanilla");
                assert_eq!(record.result, engine.result(), "{}", spec.name);
                assert_eq!(record.stats, engine.stats(), "{}", spec.name);
                assert_eq!(record.processing, processing, "{}", spec.name);
            }
        }
    }
}
