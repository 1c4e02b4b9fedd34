//! Scalar values.
//!
//! The benchmark schemas (TPC-H, SSB, MR-bench, NREF) need integers,
//! floats, short strings, dates and booleans. Dates are stored as days
//! since 1992-01-01 (the TPC-H epoch) in an `i32`, which keeps range
//! predicates integer comparisons.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar value flowing through the engine.
#[derive(Clone, Debug)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer (all key columns).
    Int(i64),
    /// 64-bit float (prices, discounts).
    Float(f64),
    /// Interned string; `Arc` keeps row clones cheap during joins.
    Str(Arc<str>),
    /// Days since the TPC-H epoch (1992-01-01).
    Date(i32),
}

/// A borrowed [`Value`]: what a segment column, a literal or an
/// expression hands out without allocating. A string borrows its
/// dictionary entry, so `ValueRef::to_value` clones an `Arc`, never
/// the bytes. It orders, compares and hashes exactly as the owned
/// value does; [`Value`]'s impls delegate here.
#[derive(Clone, Copy, Debug)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// A string, borrowed from its dictionary entry.
    Str(&'a Arc<str>),
    /// Days since the TPC-H epoch.
    Date(i32),
}

impl Value {
    /// Convenience constructor for strings.
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    /// The borrowed form of this value.
    #[inline]
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Str(s) => ValueRef::Str(s),
            Value::Date(d) => ValueRef::Date(*d),
        }
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        self.as_ref().as_int()
    }

    /// The float payload, widening integers.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_ref().as_f64()
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The date payload (days since epoch), if this is a [`Value::Date`].
    pub(crate) fn as_date(&self) -> Option<i32> {
        self.as_ref().as_date()
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl<'a> ValueRef<'a> {
    /// The owned value (a string clones its `Arc`).
    #[inline]
    pub(crate) fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Str(s) => Value::Str(Arc::clone(s)),
            ValueRef::Date(d) => Value::Date(d),
        }
    }

    /// The integer payload, if this is an integer.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The float payload, widening integers.
    #[inline]
    pub(crate) fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Float(f) => Some(f),
            ValueRef::Int(i) => Some(i as f64),
            _ => None,
        }
    }

    /// The date payload (days since epoch), if this is a date.
    #[inline]
    pub(crate) fn as_date(self) -> Option<i32> {
        match self {
            ValueRef::Date(d) => Some(d),
            _ => None,
        }
    }

    /// True for SQL NULL.
    #[inline]
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// True when the value is a boolean `true`.
    #[inline]
    pub(crate) fn is_truthy(self) -> bool {
        matches!(self, ValueRef::Bool(true))
    }

    /// Discriminant rank used to order across types (NULL < Bool < numbers
    /// < Str). Numeric types compare cross-type by value.
    fn type_rank(self) -> u8 {
        match self {
            ValueRef::Null => 0,
            ValueRef::Bool(_) => 1,
            ValueRef::Int(_) | ValueRef::Float(_) | ValueRef::Date(_) => 2,
            ValueRef::Str(_) => 3,
        }
    }
}

/// Orders an integer against a float exactly, under the float total
/// order (`f64::total_cmp`): an integer sits where the real number it
/// names sits, `-0.0` just below `0` and `+0.0` equal to it, and NaNs at
/// the ends. Going through `as f64` instead would round large integers,
/// making equality intransitive (`2^53 + 1` would equal `2^53` as a
/// float, which equals the integer `2^53`).
fn cmp_int_float(a: i64, b: f64) -> Ordering {
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if b.is_nan() {
        return if b.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    if b >= TWO_63 {
        return Ordering::Less;
    }
    if b < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = b.trunc();
    match a.cmp(&(whole as i64)) {
        Ordering::Equal if b > whole => Ordering::Less,
        Ordering::Equal if b < whole => Ordering::Greater,
        // `-0.0` orders below `+0.0` under the float order, so below 0.
        Ordering::Equal if b == 0.0 && b.is_sign_negative() => Ordering::Greater,
        ord => ord,
    }
}

/// The integer a float equals under [`cmp_int_float`], if any.
fn integral(f: f64) -> Option<i64> {
    let i = f as i64; // saturates; NaN → 0
    (cmp_int_float(i, f) == Ordering::Equal).then_some(i)
}

impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        use ValueRef::*;
        match (*self, *other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(&b),
            (Int(a), Int(b)) => a.cmp(&b),
            (Date(a), Date(b)) => a.cmp(&b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Float(a), Float(b)) => a.total_cmp(&b),
            // Cross-numeric comparisons are exact.
            (Int(a), Float(b)) => cmp_int_float(a, b),
            (Float(a), Int(b)) => cmp_int_float(b, a).reverse(),
            (Int(a), Date(b)) => a.cmp(&(b as i64)),
            (Date(a), Int(b)) => (a as i64).cmp(&b),
            (Date(a), Float(b)) => cmp_int_float(a as i64, b),
            (Float(a), Date(b)) => cmp_int_float(b as i64, a).reverse(),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}
impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for ValueRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ValueRef<'_> {}

impl Hash for ValueRef<'_> {
    /// Values equal under [`Ord`] hash alike: dates and integral floats
    /// hash as the integer they equal.
    #[inline(always)]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let int = |state: &mut H, i: i64| {
            state.write_u8(2);
            state.write_u64(i as u64);
        };
        match *self {
            ValueRef::Null => state.write_u8(0),
            ValueRef::Bool(b) => {
                state.write_u8(1);
                state.write_u8(b as u8);
            }
            ValueRef::Int(i) => int(state, i),
            ValueRef::Date(d) => int(state, d as i64),
            ValueRef::Float(f) => match integral(f) {
                Some(i) => int(state, i),
                None => {
                    state.write_u8(3);
                    state.write_u64(f.to_bits());
                }
            },
            ValueRef::Str(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Value {}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(&other.as_ref())
    }
}
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:.4}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "d{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHashMap;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Date(100).as_date(), Some(100));
        assert!(Value::Null.is_null());
        assert!(ValueRef::Bool(true).is_truthy());
        assert!(!ValueRef::Bool(false).is_truthy());
        assert!(!ValueRef::Int(1).is_truthy());
        assert!(!ValueRef::Null.is_truthy());
    }

    #[test]
    fn equality_and_ordering() {
        assert_eq!(Value::Int(3), Value::Int(3));
        assert_ne!(Value::Int(3), Value::Int(4));
        assert!(Value::Int(3) < Value::Int(4));
        assert!(Value::Date(10) < Value::Date(20));
        assert_eq!(Value::str("ab"), Value::str("ab"));
        assert!(Value::str("ab") < Value::str("ac"));
        assert!(Value::Null < Value::Int(i64::MIN));
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert_eq!(Value::Date(5), Value::Int(5));
    }

    #[test]
    fn int_float_comparison_is_exact() {
        let big = 1i64 << 53;
        assert_ne!(Value::Int(big + 1), Value::Float(big as f64));
        assert!(Value::Int(big + 1) > Value::Float(big as f64));
        assert_eq!(Value::Int(big), Value::Float(big as f64));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Int(0) > Value::Float(-0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(9.3e18));
        assert!(Value::Int(i64::MIN) == Value::Float(-9_223_372_036_854_775_808.0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
    }

    #[test]
    fn integral_floats_hash_as_ints() {
        let mut m: FxHashMap<Value, i32> = FxHashMap::default();
        m.insert(Value::Int(3), 1);
        assert_eq!(m.get(&Value::Float(3.0)), Some(&1));
        assert_eq!(m.get(&Value::Float(3.5)), None);
    }

    #[test]
    fn date_and_int_hash_compatible() {
        // Ord says Date(5) == Int(5); the Hash impl must agree.
        let mut m: FxHashMap<Value, i32> = FxHashMap::default();
        m.insert(Value::Date(5), 1);
        assert_eq!(m.get(&Value::Int(5)), Some(&1));
    }

    #[test]
    fn usable_as_join_key() {
        let mut m: FxHashMap<Value, Vec<i32>> = FxHashMap::default();
        m.entry(Value::Int(42)).or_default().push(1);
        m.entry(Value::Int(42)).or_default().push(2);
        assert_eq!(m[&Value::Int(42)], vec![1, 2]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("MAIL").to_string(), "MAIL");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
