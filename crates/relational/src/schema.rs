//! Table schemas.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// Logical column type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Variable-length string.
    Str,
    /// Date (days since the TPC-H epoch).
    Date,
}

impl DataType {
    /// Number of types.
    pub(crate) const COUNT: usize = 5;

    /// A dense index, `0..COUNT`.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Whether `value` inhabits this type (NULL inhabits every type).
    pub(crate) fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Bool, Value::Bool(_))
                | (DataType::Int, Value::Int(_))
                | (DataType::Float, Value::Float(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Date, Value::Date(_))
        )
    }
}

/// A named, typed column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Column name (e.g. `l_orderkey`).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Field {
    /// Creates a field.
    pub(crate) fn new(name: &str, dtype: DataType) -> Self {
        Field {
            name: name.to_string(),
            dtype,
        }
    }
}

/// An ordered list of fields. Shared via `Arc` between segments, scans and
/// hash tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schema {
    inner: Arc<Fields>,
}

#[derive(Debug, PartialEq, Eq)]
struct Fields {
    fields: Vec<Field>,
    /// `places[col]` — column `col`'s type and how many earlier columns
    /// share it: its place in a segment's vector of that type.
    places: Vec<(DataType, u32)>,
    /// Columns per type, indexed by [`DataType::index`].
    counts: [u32; DataType::COUNT],
}

impl Schema {
    /// Builds a schema from `(name, type)` pairs.
    pub fn new(fields: Vec<Field>) -> Self {
        let mut counts = [0; DataType::COUNT];
        let places = fields
            .iter()
            .map(|f| {
                let count = &mut counts[f.dtype.index()];
                *count += 1;
                (f.dtype, *count - 1)
            })
            .collect();
        Schema {
            inner: Arc::new(Fields {
                fields,
                places,
                counts,
            }),
        }
    }

    /// Column `col`'s type and its place among the columns of that type.
    #[inline]
    pub(crate) fn place(&self, col: usize) -> (DataType, usize) {
        let (dtype, slot) = self.inner.places[col];
        (dtype, slot as usize)
    }

    /// How many columns have type `dtype`.
    #[inline]
    pub(crate) fn columns_of(&self, dtype: DataType) -> usize {
        self.inner.counts[dtype.index()] as usize
    }

    /// Builds a schema from a compact literal description.
    ///
    /// ```
    /// use skipper_relational::schema::{DataType, Schema};
    /// let s = Schema::of(&[("l_orderkey", DataType::Int), ("l_shipmode", DataType::Str)]);
    /// assert_eq!(s.col("l_shipmode"), 1);
    /// ```
    pub fn of(cols: &[(&str, DataType)]) -> Self {
        Schema::new(
            cols.iter()
                .map(|(n, t)| Field::new(n, *t))
                .collect::<Vec<_>>(),
        )
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.inner.fields.len()
    }

    /// True for the empty schema.
    pub(crate) fn is_empty(&self) -> bool {
        self.inner.fields.is_empty()
    }

    /// The fields in order.
    pub(crate) fn fields(&self) -> &[Field] {
        &self.inner.fields
    }

    /// Index of the column named `name`.
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.fields().iter().position(|f| f.name == name)
    }

    /// Index of the column named `name`, panicking with a helpful message
    /// if absent. Used where the workload definitions are static.
    pub fn col(&self, name: &str) -> usize {
        self.index_of(name)
            .unwrap_or_else(|| panic!("schema has no column named {name:?}: {self}"))
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields()[idx]
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, fld) in self.fields().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{:?}", fld.name, fld.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        assert_eq!(s.index_of("a"), Some(0));
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.index_of("c"), None);
        assert_eq!(s.col("b"), 1);
        assert_eq!(s.field(0).dtype, DataType::Int);
    }

    #[test]
    #[should_panic(expected = "no column named")]
    fn col_panics_on_missing() {
        Schema::of(&[("a", DataType::Int)]).col("zzz");
    }

    #[test]
    fn admits_checks_types() {
        assert!(DataType::Int.admits(&Value::Int(1)));
        assert!(DataType::Int.admits(&Value::Null));
        assert!(!DataType::Int.admits(&Value::str("x")));
        assert!(DataType::Date.admits(&Value::Date(3)));
        assert!(!DataType::Date.admits(&Value::Int(3)));
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::of(&[("a", DataType::Int)]);
        assert_eq!(s.to_string(), "(a:Int)");
    }
}
