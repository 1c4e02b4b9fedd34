//! Scalar expressions over single-table rows.
//!
//! These cover every selection predicate of the four benchmark
//! workloads: column references, literals, comparisons, conjunctions,
//! `IN` lists and `BETWEEN`. Expressions over *joined* rows, including
//! the arithmetic of aggregate inputs and TPC-H Q12's conditional counts
//! ([`JoinExpr::CaseInList`]), live in [`crate::query::JoinExpr`].
//!
//! A predicate filters a segment per column ([`scan::select`]): each
//! conjunct narrows a selection vector of row positions in one typed
//! loop over its column, and a comparison or `IN` list on a string
//! column is decided once per dictionary entry. Shapes without a typed
//! loop fall back to [`Expr::matches`] per selected row; both paths give
//! the same answer.
//!
//! [`scan::select`]: crate::ops::scan::select
//! [`JoinExpr::CaseInList`]: crate::query::JoinExpr::CaseInList

use std::cmp::Ordering;
use std::fmt;

use crate::segment::{ColumnValues, RowRef, Segment};
use crate::value::{Value, ValueRef};

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Applies the comparison using the engine's total value order.
    pub(crate) fn apply(self, l: ValueRef<'_>, r: ValueRef<'_>) -> bool {
        self.holds(l.cmp(&r))
    }

    /// Whether an ordering satisfies the comparison.
    #[inline]
    pub(crate) fn holds(self, ord: Ordering) -> bool {
        use Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The comparison with its operands swapped (`a < b` ⇔ `b > a`).
    fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            op => op,
        }
    }
}

/// A scalar expression evaluated against one row.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical AND (short-circuiting).
    And(Vec<Expr>),
    /// `expr IN (v1, v2, ...)`.
    InList(Box<Expr>, Vec<Value>),
    /// `expr BETWEEN lo AND hi` (inclusive).
    Between(Box<Expr>, Value, Value),
}

impl Expr {
    /// Column reference.
    pub fn col(idx: usize) -> Expr {
        Expr::Col(idx)
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }

    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }

    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }

    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }

    /// `self AND other`, flattening nested ANDs.
    pub fn and(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::And(mut a), Expr::And(b)) => {
                a.extend(b);
                Expr::And(a)
            }
            (Expr::And(mut a), e) => {
                a.push(e);
                Expr::And(a)
            }
            (e, Expr::And(mut b)) => {
                b.insert(0, e);
                Expr::And(b)
            }
            (a, b) => Expr::And(vec![a, b]),
        }
    }

    /// `self IN (values)`.
    pub fn in_list(self, values: Vec<Value>) -> Expr {
        Expr::InList(Box::new(self), values)
    }

    /// `self BETWEEN lo AND hi`.
    pub fn between(self, lo: impl Into<Value>, hi: impl Into<Value>) -> Expr {
        Expr::Between(Box::new(self), lo.into(), hi.into())
    }

    /// Evaluates against a row, yielding a value.
    pub(crate) fn eval<'a>(&'a self, row: RowRef<'a>) -> ValueRef<'a> {
        match self {
            Expr::Col(idx) => row.get(*idx),
            Expr::Lit(v) => v.as_ref(),
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(row);
                let rv = r.eval(row);
                if lv.is_null() || rv.is_null() {
                    ValueRef::Bool(false)
                } else {
                    ValueRef::Bool(op.apply(lv, rv))
                }
            }
            Expr::And(parts) => ValueRef::Bool(parts.iter().all(|p| p.matches(row))),
            Expr::InList(e, values) => {
                let v = e.eval(row);
                ValueRef::Bool(values.iter().any(|c| c.as_ref() == v))
            }
            Expr::Between(e, lo, hi) => {
                let v = e.eval(row);
                ValueRef::Bool(!v.is_null() && v >= lo.as_ref() && v <= hi.as_ref())
            }
        }
    }

    /// Evaluates as a predicate (NULL ⇒ false).
    pub fn matches(&self, row: RowRef<'_>) -> bool {
        self.eval(row).is_truthy()
    }

    /// Keeps in `sel` — ascending positions of `segment` — exactly the
    /// rows this predicate matches, in order.
    pub(crate) fn retain(&self, segment: &Segment, sel: &mut Vec<u32>) {
        let typed = match self {
            Expr::And(parts) => {
                for part in parts {
                    if sel.is_empty() {
                        break;
                    }
                    part.retain(segment, sel);
                }
                true
            }
            Expr::Cmp(op, l, r) => match (&**l, &**r) {
                (Expr::Col(c), Expr::Lit(v)) => retain_cmp_lit(segment, *c, *op, v, sel),
                (Expr::Lit(v), Expr::Col(c)) => retain_cmp_lit(segment, *c, op.flipped(), v, sel),
                (Expr::Col(a), Expr::Col(b)) => retain_cmp_cols(segment, *a, *op, *b, sel),
                _ => false,
            },
            // Either bound may fall back after the other ran typed: the
            // rows the first removed fail the whole predicate anyway.
            Expr::Between(e, lo, hi) => match &**e {
                Expr::Col(c) => {
                    retain_lit(segment, *c, lo, sel, |ord| ord != Ordering::Less)
                        && retain_lit(segment, *c, hi, sel, |ord| ord != Ordering::Greater)
                }
                _ => false,
            },
            Expr::InList(e, values) => match &**e {
                Expr::Col(c) => {
                    retain_dictionary(segment, *c, sel, |s| values.iter().any(|v| v.as_ref() == s))
                }
                _ => false,
            },
            _ => false,
        };
        if !typed {
            self.retain_rows(segment, sel);
        }
    }

    /// The row-at-a-time fallback of [`Expr::retain`].
    fn retain_rows(&self, segment: &Segment, sel: &mut Vec<u32>) {
        sel.retain(|&pos| self.matches(segment.row(pos as usize)));
    }
}

/// `col op lit` in one typed pass; false (nothing done) when no typed
/// loop applies.
fn retain_cmp_lit(
    segment: &Segment,
    col: usize,
    op: CmpOp,
    lit: &Value,
    sel: &mut Vec<u32>,
) -> bool {
    if lit.is_null() {
        // NULL compares false with everything.
        sel.clear();
        return true;
    }
    retain_lit(segment, col, lit, sel, |ord| op.holds(ord))
}

/// Keeps the rows whose column `col` value `v` satisfies
/// `keep(v.cmp(lit))`, in one typed loop when the column has no NULL and
/// `lit` has the column's type (a string column decides per dictionary
/// entry). Returns false, doing nothing, otherwise.
fn retain_lit(
    segment: &Segment,
    col: usize,
    lit: &Value,
    sel: &mut Vec<u32>,
    keep: impl Fn(Ordering) -> bool,
) -> bool {
    let column = segment.column(col);
    if column.has_nulls() {
        return false;
    }
    match (column.values(), lit) {
        (ColumnValues::Int(v), Value::Int(x)) => sel.retain(|&p| keep(v[p as usize].cmp(x))),
        (ColumnValues::Date(v), Value::Date(x)) => sel.retain(|&p| keep(v[p as usize].cmp(x))),
        (ColumnValues::Float(v), Value::Float(x)) => {
            sel.retain(|&p| keep(v[p as usize].total_cmp(x)))
        }
        (ColumnValues::Str(_), _) => {
            return retain_dictionary(segment, col, sel, |s| keep(s.cmp(&lit.as_ref())));
        }
        _ => return false,
    }
    true
}

/// `a op b` over two columns of one type in one typed pass; false when
/// no typed loop applies.
fn retain_cmp_cols(segment: &Segment, a: usize, op: CmpOp, b: usize, sel: &mut Vec<u32>) -> bool {
    let (ca, cb) = (segment.column(a), segment.column(b));
    if ca.has_nulls() || cb.has_nulls() {
        return false;
    }
    match (ca.values(), cb.values()) {
        (ColumnValues::Int(x), ColumnValues::Int(y)) => {
            sel.retain(|&p| op.holds(x[p as usize].cmp(&y[p as usize])));
        }
        (ColumnValues::Date(x), ColumnValues::Date(y)) => {
            sel.retain(|&p| op.holds(x[p as usize].cmp(&y[p as usize])));
        }
        (ColumnValues::Float(x), ColumnValues::Float(y)) => {
            sel.retain(|&p| op.holds(x[p as usize].total_cmp(&y[p as usize])));
        }
        _ => return false,
    }
    true
}

/// Keeps the rows whose string column `col` satisfies `keep`, deciding
/// `keep` once per dictionary entry; false when `col` is not a string
/// column without NULLs.
fn retain_dictionary(
    segment: &Segment,
    col: usize,
    sel: &mut Vec<u32>,
    keep: impl Fn(ValueRef<'_>) -> bool,
) -> bool {
    let column = segment.column(col);
    let ColumnValues::Str(codes) = column.values() else {
        return false;
    };
    if column.has_nulls() {
        return false;
    }
    let kept: Vec<bool> = segment
        .dictionary()
        .iter()
        .map(|s| keep(ValueRef::Str(s)))
        .collect();
    sel.retain(|&p| kept[codes[p as usize] as usize]);
    true
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(op, l, r) => write!(f, "({l} {op:?} {r})"),
            Expr::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Expr::InList(e, vs) => {
                write!(f, "{e} IN (")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Expr::Between(e, lo, hi) => write!(f, "{e} BETWEEN {lo} AND {hi}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{DataType, Schema};
    use crate::tuple::Row;

    /// A segment of `rows`, each column typed by the first row's value.
    fn seg(rows: Vec<Row>) -> Segment {
        let fields: Vec<(String, DataType)> = rows[0]
            .values()
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let dtype = match v {
                    Value::Bool(_) => DataType::Bool,
                    Value::Float(_) => DataType::Float,
                    Value::Str(_) => DataType::Str,
                    Value::Date(_) => DataType::Date,
                    Value::Int(_) | Value::Null => DataType::Int,
                };
                (format!("c{i}"), dtype)
            })
            .collect();
        let fields: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        Segment::new(Schema::of(&fields), rows).unwrap()
    }

    /// `e` on the only row of `rows`.
    fn matches(e: &Expr, row: Row) -> bool {
        e.matches(seg(vec![row]).row(0))
    }

    #[test]
    fn comparisons() {
        let r = || row![10i64, "MAIL"];
        assert!(matches(&Expr::col(0).eq(Expr::lit(10i64)), r()));
        assert!(matches(&Expr::col(0).lt(Expr::lit(11i64)), r()));
        assert!(matches(&Expr::col(0).le(Expr::lit(10i64)), r()));
        assert!(matches(&Expr::col(0).gt(Expr::lit(9i64)), r()));
        assert!(matches(&Expr::col(0).ge(Expr::lit(10i64)), r()));
        assert!(!matches(&Expr::col(0).eq(Expr::lit(11i64)), r()));
    }

    #[test]
    fn null_comparisons_are_false() {
        let r = || Row::new(vec![Value::Null]);
        assert!(!matches(&Expr::col(0).eq(Expr::lit(0i64)), r()));
        assert!(!matches(&Expr::col(0).lt(Expr::lit(0i64)), r()));
        assert!(!matches(&Expr::col(0).between(0i64, 10i64), r()));
    }

    #[test]
    fn boolean_connectives() {
        let r = || row![5i64];
        let t = Expr::col(0).eq(Expr::lit(5i64));
        let f = Expr::col(0).eq(Expr::lit(6i64));
        assert!(matches(&t.clone().and(t.clone()), r()));
        assert!(!matches(&t.and(f), r()));
    }

    #[test]
    fn and_flattens() {
        let a = Expr::col(0).eq(Expr::lit(1i64));
        let b = Expr::col(0).eq(Expr::lit(2i64));
        let c = Expr::col(0).eq(Expr::lit(3i64));
        let combined = a.and(b).and(c);
        match combined {
            Expr::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn in_list_and_between() {
        let r = || row!["SHIP", 15i64];
        let modes = vec![Value::str("MAIL"), Value::str("SHIP")];
        assert!(matches(&Expr::col(0).in_list(modes), r()));
        assert!(!matches(
            &Expr::col(0).in_list(vec![Value::str("AIR")]),
            r()
        ));
        assert!(matches(&Expr::col(1).between(10i64, 20i64), r()));
        assert!(matches(&Expr::col(1).between(15i64, 15i64), r()));
        assert!(!matches(&Expr::col(1).between(16i64, 20i64), r()));
    }

    #[test]
    fn display_renders() {
        let e = Expr::col(1).between(3i64, 9i64);
        assert_eq!(e.to_string(), "$1 BETWEEN 3 AND 9");
    }

    #[test]
    fn date_range_predicate() {
        let e = Expr::col(0)
            .ge(Expr::lit(Value::Date(365)))
            .and(Expr::col(0).lt(Expr::lit(Value::Date(730))));
        assert!(matches(&e, row![Value::Date(400)]));
        assert!(!matches(&e, row![Value::Date(900)]));
    }

    #[test]
    fn retain_agrees_with_matches_on_every_shape() {
        let modes = ["MAIL", "SHIP", "AIR", "RAIL"];
        let rows: Vec<Row> = (0..40i64)
            .map(|i| {
                row![
                    i % 7,
                    modes[(i % 4) as usize],
                    Value::Date((i * 13 % 17) as i32),
                    Value::Date((i * 5 % 17) as i32),
                    (i % 9) as f64 / 4.0
                ]
            })
            .collect();
        let s = seg(rows);
        let shapes = vec![
            Expr::col(0).lt(Expr::lit(3i64)),
            Expr::lit(3i64).lt(Expr::col(0)),
            Expr::col(1).in_list(vec![Value::str("MAIL"), Value::str("SHIP")]),
            Expr::col(1).eq(Expr::lit("AIR")),
            Expr::col(1).ge(Expr::lit("MAIL")),
            Expr::col(2).lt(Expr::col(3)),
            Expr::col(4).between(0.5f64, 1.25f64),
            Expr::col(0).between(Value::Date(2), 5i64),
            Expr::col(0).eq(Expr::lit(Value::Null)),
            Expr::col(4).ge(Expr::lit(1i64)),
            Expr::col(1)
                .in_list(vec![Value::str("RAIL")])
                .and(Expr::col(2).ge(Expr::lit(Value::Date(4))))
                .and(Expr::col(0).le(Expr::col(0))),
            // No typed loop: a literal operand falls back row at a time.
            Expr::lit(2i64).lt(Expr::lit(3i64)),
            Expr::lit(3i64).lt(Expr::lit(2i64)),
            Expr::lit("AIR").in_list(vec![Value::str("MAIL"), Value::str("AIR")]),
            Expr::lit(4i64).between(0i64, 3i64),
            Expr::col(0)
                .lt(Expr::lit(5i64))
                .and(Expr::lit(7i64).between(Value::Date(2), 9i64)),
        ];
        for e in shapes {
            let mut sel: Vec<u32> = (0..s.len() as u32).collect();
            e.retain(&s, &mut sel);
            let expected: Vec<u32> = (0..s.len() as u32)
                .filter(|&p| e.matches(s.row(p as usize)))
                .collect();
            assert_eq!(sel, expected, "{e}");
        }
    }
}
