//! Rows.

use std::fmt;

use crate::schema::Schema;
use crate::value::Value;

/// An owned row: a boxed slice of values positionally matching a
/// [`Schema`].
///
/// Segments do not store rows (they store columns, see
/// [`Segment`](crate::segment::Segment)); a `Row` is what leaves the
/// engine — a result's group key — and what the row-major constructors
/// take in. Rows are cheap to clone (strings are `Arc<str>`) and
/// hashable.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row {
    values: Box<[Value]>,
}

impl Row {
    /// Builds a row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into_boxed_slice(),
        }
    }

    /// Value at column `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// All values.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// Checks the row against a schema (arity and per-column types).
    pub(crate) fn conforms_to(&self, schema: &Schema) -> bool {
        self.values.len() == schema.len()
            && self
                .values
                .iter()
                .zip(schema.fields())
                .all(|(v, f)| f.dtype.admits(v))
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Builds a [`Row`] from value-convertible literals.
///
/// ```
/// use skipper_relational::row;
/// use skipper_relational::value::Value;
/// let r = row![1i64, "MAIL", 2.5];
/// assert_eq!(r.get(1), &Value::str("MAIL"));
/// ```
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Row::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    #[test]
    fn row_macro_and_access() {
        let r = row![5i64, "SHIP"];
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0), &Value::Int(5));
        assert_eq!(r.get(1).as_str(), Some("SHIP"));
    }

    #[test]
    fn conformance() {
        let s = Schema::of(&[("k", DataType::Int), ("m", DataType::Str)]);
        assert!(row![1i64, "x"].conforms_to(&s));
        assert!(!row![1i64].conforms_to(&s));
        assert!(!row!["x", 1i64].conforms_to(&s));
        // NULL conforms to any column type.
        let r = Row::new(vec![Value::Null, Value::Null]);
        assert!(r.conforms_to(&s));
    }

    #[test]
    fn rows_as_hash_keys() {
        use crate::hash::FxHashMap;
        let mut m: FxHashMap<Row, u32> = FxHashMap::default();
        m.insert(row![1i64, "a"], 10);
        assert_eq!(m.get(&row![1i64, "a"]), Some(&10));
        assert_eq!(m.get(&row![1i64, "b"]), None);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", row![1i64, "x"]), "[1, x]");
    }
}
