//! N-ary probe planning over a query's join graph.
//!
//! MJoin executes a *subplan* (one segment per relation) by iterating the
//! driver relation's tuples and probing the other relations' hash indexes.
//! For that it needs a probe order in which every probed relation is
//! reachable from already-bound relations through an equi-join edge.
//! Cyclic join graphs (TPC-H Q5: `supplier.nationkey = customer.nationkey`
//! closes a cycle) contribute the extra edges as residual equality checks.

use crate::error::RelationalError;
use crate::query::{QualifiedCol, QuerySpec};

/// One step of the n-ary probe pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeStep {
    /// Relation being probed at this step.
    pub rel: usize,
    /// Column of `rel` on which its hash index is probed.
    pub key_col: usize,
    /// Already-bound column that supplies the probe key.
    pub bound_source: QualifiedCol,
    /// Residual equality checks `(col on rel, bound col)` from additional
    /// join edges (cycles) that must also hold.
    pub extra_checks: Vec<(usize, QualifiedCol)>,
}

/// A complete probe plan: iterate `driver`, then apply `steps` in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbePlan {
    /// Relation iterated tuple-by-tuple.
    pub driver: usize,
    /// Probe steps; `steps.len() == num_relations - 1`.
    pub steps: Vec<ProbeStep>,
}

impl ProbePlan {
    /// Builds a probe plan for `spec`, starting from `spec.driver`.
    ///
    /// When [`QuerySpec::probe_order`] is set, that order is used verbatim
    /// (each listed relation must connect to the already-bound prefix).
    /// Otherwise the plan is deterministic BFS: at each step the
    /// lowest-indexed relation adjacent to the bound set is chosen.
    /// Returns an error if the join graph does not connect all relations.
    pub fn plan(spec: &QuerySpec) -> Result<ProbePlan, RelationalError> {
        let n = spec.num_relations();
        let mut bound = vec![false; n];
        bound[spec.driver] = true;
        let mut steps = Vec::with_capacity(n.saturating_sub(1));

        while steps.len() + 1 < n {
            let is_connected = |rel: usize, bound: &[bool]| {
                spec.joins.iter().any(|jc| {
                    jc.side_of(rel)
                        .and_then(|_| jc.other_side(rel))
                        .is_some_and(|other| bound[other.rel])
                })
            };
            let chosen: Option<usize> = match &spec.probe_order {
                Some(order) => {
                    let rel = order[steps.len()];
                    (!bound[rel] && is_connected(rel, &bound)).then_some(rel)
                }
                None => (0..n).find(|&rel| !bound[rel] && is_connected(rel, &bound)),
            };
            let rel = chosen.ok_or_else(|| RelationalError::UnplannableJoin {
                detail: format!(
                    "query {}: relations {:?} unreachable from driver {}",
                    spec.name,
                    (0..n).filter(|&r| !bound[r]).collect::<Vec<_>>(),
                    spec.driver
                ),
            })?;

            // All edges from `rel` into the bound set: the first supplies the
            // hash key, the rest become residual checks.
            let mut key: Option<(usize, QualifiedCol)> = None;
            let mut extra = Vec::new();
            for jc in &spec.joins {
                let (Some(own), Some(other)) = (jc.side_of(rel), jc.other_side(rel)) else {
                    continue;
                };
                if !bound[other.rel] {
                    continue;
                }
                if key.is_none() {
                    key = Some((own.col, other));
                } else {
                    extra.push((own.col, other));
                }
            }
            let (key_col, bound_source) = key.expect("chosen relation must have an edge");
            steps.push(ProbeStep {
                rel,
                key_col,
                bound_source,
                extra_checks: extra,
            });
            bound[rel] = true;
        }

        Ok(ProbePlan {
            driver: spec.driver,
            steps,
        })
    }

    /// Builds a probe plan rooted at an arbitrary relation — the shape
    /// symmetric-hash MJoin needs: when a segment of relation `root`
    /// arrives, its tuples probe outward into the other relations'
    /// cached hash tables. The query's `probe_order` hint applies only
    /// when `root` is the designated driver; other roots use BFS.
    pub fn plan_rooted(spec: &QuerySpec, root: usize) -> Result<ProbePlan, RelationalError> {
        if root == spec.driver {
            return Self::plan(spec);
        }
        let mut respec = spec.clone();
        respec.driver = root;
        respec.probe_order = None;
        Self::plan(&respec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggSpec, JoinCond, QuerySpec};

    fn spec_with(n: usize, joins: Vec<JoinCond>, driver: usize) -> QuerySpec {
        QuerySpec {
            name: "test".into(),
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

    /// The order in which relations become bound (driver first).
    fn binding_order(plan: &ProbePlan) -> Vec<usize> {
        let mut order = vec![plan.driver];
        order.extend(plan.steps.iter().map(|s| s.rel));
        order
    }

    #[test]
    fn plans_simple_chain() {
        // t0 -- t1 -- t2, driver t0.
        let spec = spec_with(
            3,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(1, 1, 2, 0)],
            0,
        );
        let plan = ProbePlan::plan(&spec).unwrap();
        assert_eq!(binding_order(&plan), vec![0, 1, 2]);
        assert_eq!(plan.steps[0].rel, 1);
        assert_eq!(plan.steps[0].key_col, 0);
        assert_eq!(plan.steps[0].bound_source, QualifiedCol::new(0, 0));
        assert_eq!(plan.steps[1].rel, 2);
        assert_eq!(plan.steps[1].bound_source, QualifiedCol::new(1, 1));
        assert!(plan.steps.iter().all(|s| s.extra_checks.is_empty()));
    }

    #[test]
    fn plans_star_from_fact_driver() {
        // Fact t0 joins dims t1, t2, t3 on distinct FK columns.
        let spec = spec_with(
            4,
            vec![
                JoinCond::new(0, 0, 1, 0),
                JoinCond::new(0, 1, 2, 0),
                JoinCond::new(0, 2, 3, 0),
            ],
            0,
        );
        let plan = ProbePlan::plan(&spec).unwrap();
        assert_eq!(binding_order(&plan), vec![0, 1, 2, 3]);
        // Each dim is keyed by its own PK column and sourced from the fact.
        for (i, step) in plan.steps.iter().enumerate() {
            assert_eq!(step.rel, i + 1);
            assert_eq!(step.key_col, 0);
            assert_eq!(step.bound_source.rel, 0);
        }
    }

    #[test]
    fn cycle_becomes_residual_check() {
        // Triangle: t0-t1, t1-t2, t0-t2. Driver t0. When t2 is probed both
        // t0 and t1 are bound, so one edge keys the probe and the other
        // becomes a residual check.
        let spec = spec_with(
            3,
            vec![
                JoinCond::new(0, 0, 1, 0),
                JoinCond::new(1, 1, 2, 1),
                JoinCond::new(0, 1, 2, 0),
            ],
            0,
        );
        let plan = ProbePlan::plan(&spec).unwrap();
        let last = &plan.steps[1];
        assert_eq!(last.rel, 2);
        assert_eq!(last.extra_checks.len(), 1);
    }

    #[test]
    fn disconnected_graph_errors() {
        let spec = spec_with(3, vec![JoinCond::new(0, 0, 1, 0)], 0);
        let err = ProbePlan::plan(&spec).unwrap_err();
        assert!(matches!(err, RelationalError::UnplannableJoin { .. }));
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn driver_choice_changes_binding_order() {
        let spec = spec_with(
            3,
            vec![JoinCond::new(0, 0, 1, 0), JoinCond::new(1, 1, 2, 0)],
            2,
        );
        let plan = ProbePlan::plan(&spec).unwrap();
        assert_eq!(binding_order(&plan), vec![2, 1, 0]);
    }

    #[test]
    fn single_relation_plan_is_empty() {
        let spec = spec_with(1, vec![], 0);
        let plan = ProbePlan::plan(&spec).unwrap();
        assert!(plan.steps.is_empty());
        assert_eq!(binding_order(&plan), vec![0]);
    }
}
