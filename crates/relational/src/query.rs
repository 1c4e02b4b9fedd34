//! Declarative join-query descriptions.
//!
//! Both execution strategies in the paper evaluate the same class of
//! queries: multi-table equi-joins with per-table selection predicates and
//! a grouped aggregation on top (TPC-H Q12/Q5, SSB Q1, the MR-bench
//! JoinTask, the NREF protein query). [`QuerySpec`] captures exactly that,
//! and is consumed by
//! * the pull-based baseline (left-deep binary hash joins in plan order),
//! * Skipper's cache-aware MJoin (n-ary symmetric hash join),
//!
//! so results can be compared row-for-row.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::expr::Expr;
use crate::hash::{FxHashMap, FxHasher};
use crate::segment::RowRef;
use crate::tuple::Row;
use crate::value::{Value, ValueRef};

/// A column of a specific relation participating in a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QualifiedCol {
    /// Index of the relation within [`QuerySpec::tables`].
    pub rel: usize,
    /// Column index within that relation's schema.
    pub col: usize,
}

impl QualifiedCol {
    /// Creates a qualified column reference.
    pub fn new(rel: usize, col: usize) -> Self {
        QualifiedCol { rel, col }
    }
}

/// An equi-join condition between two relations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinCond {
    /// Left side.
    pub left: QualifiedCol,
    /// Right side.
    pub right: QualifiedCol,
}

impl JoinCond {
    /// Creates a join condition `tables[lr].cols[lc] = tables[rr].cols[rc]`.
    pub fn new(lr: usize, lc: usize, rr: usize, rc: usize) -> Self {
        JoinCond {
            left: QualifiedCol::new(lr, lc),
            right: QualifiedCol::new(rr, rc),
        }
    }

    /// The side of this condition touching relation `rel`, if any.
    pub fn side_of(&self, rel: usize) -> Option<QualifiedCol> {
        if self.left.rel == rel {
            Some(self.left)
        } else if self.right.rel == rel {
            Some(self.right)
        } else {
            None
        }
    }

    /// The side of this condition *not* touching relation `rel`, if the
    /// other side does touch it.
    pub(crate) fn other_side(&self, rel: usize) -> Option<QualifiedCol> {
        if self.left.rel == rel {
            Some(self.right)
        } else if self.right.rel == rel {
            Some(self.left)
        } else {
            None
        }
    }
}

/// An expression over a *joined* row (one row per relation).
#[derive(Clone, Debug, PartialEq)]
pub enum JoinExpr {
    /// Qualified column reference.
    Col(QualifiedCol),
    /// Literal.
    Lit(Value),
    /// Multiplication of two numeric sub-expressions.
    Mul(Box<JoinExpr>, Box<JoinExpr>),
    /// Subtraction.
    Sub(Box<JoinExpr>, Box<JoinExpr>),
    /// Addition.
    Add(Box<JoinExpr>, Box<JoinExpr>),
    /// `CASE WHEN <col IN list> THEN a ELSE b END` — the shape TPC-H Q12
    /// needs; kept first-order to avoid duplicating the whole `Expr` tree.
    CaseInList {
        /// Column probed against the list.
        probe: QualifiedCol,
        /// Match list.
        list: Vec<Value>,
        /// Result when the probe is in the list.
        then: Value,
        /// Result otherwise.
        otherwise: Value,
    },
}

impl JoinExpr {
    /// Column reference.
    pub fn col(rel: usize, col: usize) -> JoinExpr {
        JoinExpr::Col(QualifiedCol::new(rel, col))
    }

    /// Evaluates against a joined row: `rows[i]` is the row bound for
    /// relation `i`. Columns are read in place; nothing is allocated.
    pub(crate) fn eval<'a>(&'a self, rows: &[RowRef<'a>]) -> ValueRef<'a> {
        match self {
            JoinExpr::Col(qc) => rows[qc.rel].get(qc.col),
            JoinExpr::Lit(v) => v.as_ref(),
            JoinExpr::Mul(a, b) => numeric(a.eval(rows), b.eval(rows), |x, y| x * y),
            JoinExpr::Sub(a, b) => numeric(a.eval(rows), b.eval(rows), |x, y| x - y),
            JoinExpr::Add(a, b) => numeric(a.eval(rows), b.eval(rows), |x, y| x + y),
            JoinExpr::CaseInList {
                probe,
                list,
                then,
                otherwise,
            } => {
                let v = rows[probe.rel].get(probe.col);
                if list.iter().any(|c| c.as_ref() == v) {
                    then.as_ref()
                } else {
                    otherwise.as_ref()
                }
            }
        }
    }
}

fn numeric<'a>(a: ValueRef<'_>, b: ValueRef<'_>, f: impl Fn(f64, f64) -> f64) -> ValueRef<'a> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => ValueRef::Float(f(x, y)),
        _ => ValueRef::Null,
    }
}

/// The aggregate functions of the benchmark queries. NULL inputs are
/// skipped by `SUM` and `AVG`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` (the expression is evaluated but only counted).
    Count,
    /// `SUM(expr)`, as a float.
    Sum,
    /// `AVG(expr)`, as a float; NULL over no input.
    Avg,
}

/// One aggregate output column.
#[derive(Clone, Debug, PartialEq)]
pub struct AggSpec {
    /// Function.
    pub func: AggFunc,
    /// Input expression over the joined row.
    pub expr: JoinExpr,
    /// Output column name (for display).
    pub name: String,
}

impl AggSpec {
    /// Creates an aggregate column.
    pub fn new(func: AggFunc, expr: JoinExpr, name: &str) -> Self {
        AggSpec {
            func,
            expr,
            name: name.to_string(),
        }
    }
}

/// A complete join query: tables, per-table filters, equi-join conditions,
/// the designated driver (fact) relation, the baseline's pull order, and
/// the aggregation on top.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Query name (e.g. `"tpch-q12"`).
    pub name: String,
    /// Relation names, indexed by `rel`.
    pub tables: Vec<String>,
    /// Optional selection predicate per relation, applied at scan time.
    pub filters: Vec<Option<Expr>>,
    /// Equi-join conditions (must connect all tables).
    pub joins: Vec<JoinCond>,
    /// The driver relation for n-ary probing — by convention the largest
    /// (fact) table, iterated tuple-by-tuple while the others are probed.
    pub driver: usize,
    /// The baseline engine's relation *fetch* order: build sides first,
    /// driver last — the "very specific order" of pull-based execution the
    /// paper blames for CSD-hostile access patterns.
    pub plan_order: Vec<usize>,
    /// Optional explicit n-ary probe order (relations after the driver).
    /// When absent the planner picks a BFS order; workloads with cyclic
    /// join graphs (TPC-H Q5) set this to keep probes key-to-key instead
    /// of fanning out through low-selectivity edges.
    pub probe_order: Option<Vec<usize>>,
    /// Group-by columns over the joined row.
    pub group_by: Vec<QualifiedCol>,
    /// Aggregate output columns.
    pub aggregates: Vec<AggSpec>,
}

impl QuerySpec {
    /// All join columns of relation `rel` (deduplicated, in first-use
    /// order). These are the columns MJoin builds hash indexes on.
    pub fn join_cols(&self, rel: usize) -> Vec<usize> {
        let mut cols = Vec::new();
        for jc in &self.joins {
            if let Some(side) = jc.side_of(rel) {
                if !cols.contains(&side.col) {
                    cols.push(side.col);
                }
            }
        }
        cols
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.tables.len()
    }

    /// Sanity-checks internal consistency (arity of parallel vectors,
    /// index bounds, join connectivity). Panics with a descriptive message
    /// on failure — query specs are static workload definitions, so an
    /// inconsistency is a programming error.
    pub fn validate(&self) {
        assert_eq!(
            self.filters.len(),
            self.tables.len(),
            "query {}: filters arity mismatch",
            self.name
        );
        assert!(
            self.driver < self.tables.len(),
            "query {}: driver out of range",
            self.name
        );
        let mut seen = vec![false; self.tables.len()];
        for &r in &self.plan_order {
            assert!(r < self.tables.len(), "query {}: plan_order", self.name);
            assert!(!seen[r], "query {}: duplicate in plan_order", self.name);
            seen[r] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "query {}: plan_order must be a permutation of all relations",
            self.name
        );
        if let Some(order) = &self.probe_order {
            assert_eq!(
                order.len(),
                self.tables.len().saturating_sub(1),
                "query {}: probe_order must list every non-driver relation",
                self.name
            );
            let mut probe_seen = vec![false; self.tables.len()];
            probe_seen[self.driver] = true;
            for &r in order {
                assert!(
                    r < self.tables.len() && !probe_seen[r],
                    "query {}: probe_order invalid at {r}",
                    self.name
                );
                probe_seen[r] = true;
            }
        }
        for jc in &self.joins {
            assert!(jc.left.rel < self.tables.len() && jc.right.rel < self.tables.len());
            assert_ne!(jc.left.rel, jc.right.rel, "self-join condition");
        }
        // Connectivity check via union-find over join edges.
        let mut parent: Vec<usize> = (0..self.tables.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for jc in &self.joins {
            let a = find(&mut parent, jc.left.rel);
            let b = find(&mut parent, jc.right.rel);
            parent[a] = b;
        }
        if self.tables.len() > 1 {
            let root = find(&mut parent, 0);
            for r in 1..self.tables.len() {
                assert_eq!(
                    find(&mut parent, r),
                    root,
                    "query {}: join graph is disconnected",
                    self.name
                );
            }
        }
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.tables.join(" ⋈ "))
    }
}

/// Streaming grouped-aggregation accumulator shared by both engines.
///
/// `update` is called once per joined output row; `finish` renders the
/// final result sorted by group key for deterministic comparison.
///
/// Groups are found by a borrowed key: the group-by values are hashed
/// and compared where they sit in the bound rows' columns, and a key
/// [`Row`] is allocated only when a new group appears. `index` maps a
/// key hash to the first group with that hash; groups sharing a hash
/// chain through `same_hash`.
pub struct Aggregator {
    group_by: Vec<QualifiedCol>,
    aggs: Vec<AggSpec>,
    index: FxHashMap<u64, u32>,
    keys: Vec<Row>,
    same_hash: Vec<u32>,
    /// `states[g * aggs.len()..][..aggs.len()]` — group `g`'s states.
    states: Vec<AggState>,
    rows_seen: u64,
}

/// End of a `same_hash` chain.
const NO_GROUP: u32 = u32::MAX;

#[derive(Clone, Debug)]
enum AggState {
    Count(u64),
    Sum(f64),
    Avg { sum: f64, n: u64 },
}

impl AggState {
    fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(0.0),
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
        }
    }

    fn update(&mut self, v: ValueRef<'_>) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(s) => {
                if let Some(x) = v.as_f64() {
                    *s += x;
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(x) = v.as_f64() {
                    *sum += x;
                    *n += 1;
                }
            }
        }
    }

    fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum(s) => Value::Float(*s),
            AggState::Avg { sum, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / *n as f64)
                }
            }
        }
    }
}

impl Aggregator {
    /// Creates an accumulator for `spec`'s grouping and aggregates.
    pub fn for_query(spec: &QuerySpec) -> Self {
        Aggregator {
            group_by: spec.group_by.clone(),
            aggs: spec.aggregates.clone(),
            index: FxHashMap::default(),
            keys: Vec::new(),
            same_hash: Vec::new(),
            states: Vec::new(),
            rows_seen: 0,
        }
    }

    /// Feeds one joined output row (`rows[i]` = bound row of relation `i`).
    pub fn update(&mut self, rows: &[RowRef<'_>]) {
        self.rows_seen += 1;
        let group = self.group_of(rows);
        let width = self.aggs.len();
        let states = &mut self.states[group * width..][..width];
        for (state, agg) in states.iter_mut().zip(&self.aggs) {
            state.update(agg.expr.eval(rows));
        }
    }

    /// The group of `rows`' key, created on first sight.
    fn group_of(&mut self, rows: &[RowRef<'_>]) -> usize {
        let key = |qc: &QualifiedCol| rows[qc.rel].get(qc.col);
        let mut h = FxHasher::default();
        for qc in &self.group_by {
            key(qc).hash(&mut h);
        }
        let hash = h.finish();
        let first = *self.index.entry(hash).or_insert(NO_GROUP);
        let mut group = first;
        while group != NO_GROUP {
            let stored = self.keys[group as usize].values();
            if stored
                .iter()
                .zip(&self.group_by)
                .all(|(v, qc)| v.as_ref() == key(qc))
            {
                return group as usize;
            }
            group = self.same_hash[group as usize];
        }
        let group = self.keys.len();
        let id = u32::try_from(group).expect("group count exceeds 32 bits");
        self.keys.push(Row::new(
            self.group_by.iter().map(|qc| key(qc).to_value()).collect(),
        ));
        self.same_hash.push(first);
        self.index.insert(hash, id);
        self.states
            .extend(self.aggs.iter().map(|a| AggState::new(a.func)));
        group
    }

    /// Total joined rows fed in (the join cardinality).
    pub fn rows_seen(&self) -> u64 {
        self.rows_seen
    }

    /// Renders `(group key, aggregate values)` rows sorted by key.
    pub fn finish(&self) -> Vec<(Row, Vec<Value>)> {
        let width = self.aggs.len();
        let mut out: Vec<(Row, Vec<Value>)> = self
            .keys
            .iter()
            .enumerate()
            .map(|(g, k)| {
                let states = &self.states[g * width..][..width];
                (k.clone(), states.iter().map(AggState::finish).collect())
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Compares two finished query results, requiring exact group keys and
/// integer aggregates but tolerating relative error `tol` on floats —
/// different execution strategies legitimately sum floats in different
/// orders.
pub fn results_approx_eq(a: &[(Row, Vec<Value>)], b: &[(Row, Vec<Value>)], tol: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|((ka, va), (kb, vb))| {
        ka == kb
            && va.len() == vb.len()
            && va.iter().zip(vb).all(|(x, y)| match (x, y) {
                (Value::Float(fx), Value::Float(fy)) => {
                    let scale = fx.abs().max(fy.abs()).max(1.0);
                    (fx - fy).abs() <= tol * scale
                }
                _ => x == y,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};
    use crate::segment::Segment;

    fn two_table_spec() -> QuerySpec {
        QuerySpec {
            name: "t".into(),
            tables: vec!["a".into(), "b".into()],
            filters: vec![None, None],
            joins: vec![JoinCond::new(0, 0, 1, 0)],
            driver: 0,
            plan_order: vec![1, 0],
            probe_order: None,
            group_by: vec![QualifiedCol::new(0, 1)],
            aggregates: vec![
                AggSpec::new(AggFunc::Count, JoinExpr::Lit(Value::Int(1)), "cnt"),
                AggSpec::new(AggFunc::Sum, JoinExpr::col(1, 1), "total"),
            ],
        }
    }

    #[test]
    fn join_cols_deduplicated() {
        let mut spec = two_table_spec();
        spec.joins.push(JoinCond::new(0, 0, 1, 1));
        assert_eq!(spec.join_cols(0), vec![0]);
        assert_eq!(spec.join_cols(1), vec![0, 1]);
    }

    #[test]
    fn join_cond_sides() {
        let jc = JoinCond::new(0, 3, 1, 4);
        assert_eq!(jc.side_of(0), Some(QualifiedCol::new(0, 3)));
        assert_eq!(jc.other_side(0), Some(QualifiedCol::new(1, 4)));
        assert_eq!(jc.side_of(2), None);
        assert_eq!(jc.other_side(2), None);
    }

    #[test]
    fn validate_accepts_good_spec() {
        two_table_spec().validate();
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn validate_rejects_disconnected() {
        let mut spec = two_table_spec();
        spec.tables.push("c".into());
        spec.filters.push(None);
        spec.plan_order = vec![1, 0, 2];
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn validate_rejects_partial_plan_order() {
        let mut spec = two_table_spec();
        spec.plan_order = vec![0];
        spec.validate();
    }

    /// A segment of `rows` typed `[Int, Str]` (relation a) or
    /// `[Int, Float]` (relation b).
    fn seg(second: DataType, rows: Vec<Row>) -> Segment {
        Segment::new(Schema::of(&[("k", DataType::Int), ("v", second)]), rows).unwrap()
    }

    #[test]
    fn join_expr_eval() {
        let a = seg(DataType::Float, vec![row![1i64, 2.0f64]]);
        let b = seg(DataType::Float, vec![row![1i64, 10.0f64]]);
        let rows = [a.row(0), b.row(0)];
        assert_eq!(JoinExpr::col(1, 1).eval(&rows), ValueRef::Float(10.0));
        let revenue = JoinExpr::Mul(Box::new(JoinExpr::col(0, 1)), Box::new(JoinExpr::col(1, 1)));
        assert_eq!(revenue.eval(&rows), ValueRef::Float(20.0));
        let case = JoinExpr::CaseInList {
            probe: QualifiedCol::new(0, 0),
            list: vec![Value::Int(1), Value::Int(2)],
            then: Value::Int(100),
            otherwise: Value::Int(0),
        };
        assert_eq!(case.eval(&rows), ValueRef::Int(100));
    }

    #[test]
    fn aggregator_counts_and_sums_by_group() {
        let spec = two_table_spec();
        let mut agg = Aggregator::for_query(&spec);
        let a = seg(DataType::Str, vec![row![1i64, "x"], row![2i64, "y"]]);
        let b = seg(
            DataType::Float,
            vec![row![1i64, 5.0f64], row![2i64, 7.0f64]],
        );
        agg.update(&[a.row(0), b.row(0)]);
        agg.update(&[a.row(0), b.row(0)]);
        agg.update(&[a.row(1), b.row(1)]);
        assert_eq!(agg.rows_seen(), 3);
        let out = agg.finish();
        assert_eq!(out.len(), 2);
        // Sorted by group key: "x" < "y".
        assert_eq!(out[0].0, row!["x"]);
        assert_eq!(out[0].1, vec![Value::Int(2), Value::Float(10.0)]);
        assert_eq!(out[1].0, row!["y"]);
        assert_eq!(out[1].1, vec![Value::Int(1), Value::Float(7.0)]);
    }

    #[test]
    fn aggregator_keeps_groups_apart_on_a_hash_collision() {
        let spec = two_table_spec();
        let mut agg = Aggregator::for_query(&spec);
        let a = seg(DataType::Str, vec![row![1i64, "x"], row![2i64, "y"]]);
        let b = seg(DataType::Float, vec![row![1i64, 5.0f64]]);
        agg.update(&[a.row(0), b.row(0)]);
        // Point the hash of "y" at the group of "x", as a collision would.
        let mut h = FxHasher::default();
        Value::str("y").hash(&mut h);
        agg.index.insert(h.finish(), 0);
        agg.update(&[a.row(1), b.row(0)]);
        agg.update(&[a.row(1), b.row(0)]);
        agg.update(&[a.row(0), b.row(0)]);
        let out = agg.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], (row!["x"], vec![Value::Int(2), Value::Float(10.0)]));
        assert_eq!(out[1], (row!["y"], vec![Value::Int(2), Value::Float(10.0)]));
    }

    #[test]
    fn aggregator_averages_skip_nulls() {
        let mut spec = two_table_spec();
        spec.group_by = vec![];
        spec.aggregates = vec![AggSpec::new(AggFunc::Avg, JoinExpr::col(1, 1), "av")];
        let mut agg = Aggregator::for_query(&spec);
        let a = seg(DataType::Str, vec![row![1i64, "x"]]);
        let b = seg(
            DataType::Float,
            [3.0f64, 9.0, 6.0].map(|v| row![1i64, v]).to_vec(),
        );
        let null = seg(DataType::Float, vec![row![1i64, Value::Null]]);
        for pos in 0..b.len() {
            agg.update(&[a.row(0), b.row(pos)]);
        }
        agg.update(&[a.row(0), null.row(0)]);
        let out = agg.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, vec![Value::Float(6.0)]);
    }

    #[test]
    fn empty_aggregator_finishes_empty() {
        let agg = Aggregator::for_query(&two_table_spec());
        assert!(agg.finish().is_empty());
        assert_eq!(agg.rows_seen(), 0);
    }
}
