//! Catalog: table definitions and segment geometry.
//!
//! Mirrors the only piece of state the paper keeps *outside* the CSD: each
//! database VM stores just its catalog on local storage, from which the
//! MJoin state manager "retrieves information about all objects (segments)
//! across all tables that are necessary for evaluating a query"
//! (Algorithm 1). A [`TableDef`] records the schema plus the segment
//! geometry — how many objects the table is striped into and the *logical*
//! size of each (1 GB in the paper) used for transfer-time accounting.

use crate::error::RelationalError;
use crate::hash::FxHashMap;
use crate::schema::Schema;

/// One gigabyte: the paper's segment size (PostgreSQL's default file
/// segment size, stored one object per segment in Swift).
pub const GIB: u64 = 1 << 30;

/// A table registered in the catalog.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Row schema.
    pub schema: Schema,
    /// Number of 1 GB-class segments the table is striped into.
    pub segment_count: u32,
    /// Logical bytes per segment (drives virtual transfer time).
    pub logical_bytes_per_segment: u64,
    /// Logical row count per segment (drives virtual CPU time scaling:
    /// physical rows are a miniature of this).
    pub logical_rows_per_segment: u64,
}

impl TableDef {
    /// Total logical size of the table.
    pub(crate) fn logical_bytes(&self) -> u64 {
        self.segment_count as u64 * self.logical_bytes_per_segment
    }
}

/// An ordered collection of tables; table index = position.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: Vec<TableDef>,
    by_name: FxHashMap<String, usize>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a table, returning its index.
    ///
    /// # Panics
    /// Panics on duplicate names or zero segment counts — catalogs are
    /// static workload definitions.
    pub fn register(&mut self, def: TableDef) -> usize {
        assert!(def.segment_count > 0, "table {} has no segments", def.name);
        assert!(
            !self.by_name.contains_key(&def.name),
            "duplicate table {}",
            def.name
        );
        let idx = self.tables.len();
        self.by_name.insert(def.name.clone(), idx);
        self.tables.push(def);
        idx
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The table at `idx`.
    pub fn table(&self, idx: usize) -> &TableDef {
        &self.tables[idx]
    }

    /// Index of the table named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, RelationalError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| RelationalError::UnknownTable {
                name: name.to_string(),
            })
    }

    /// Total segments across all tables (the dataset's object count on
    /// the CSD).
    pub fn total_segments(&self) -> u32 {
        self.tables.iter().map(|t| t.segment_count).sum()
    }

    /// Total logical dataset size in bytes.
    pub fn total_logical_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.logical_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn def(name: &str, segments: u32) -> TableDef {
        TableDef {
            name: name.into(),
            schema: Schema::of(&[("k", DataType::Int)]),
            segment_count: segments,
            logical_bytes_per_segment: GIB,
            logical_rows_per_segment: 6_500_000,
        }
    }

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        let li = cat.register(def("lineitem", 48));
        let or = cat.register(def("orders", 11));
        assert_eq!(cat.index_of("lineitem").unwrap(), li);
        assert_eq!(cat.index_of("orders").unwrap(), or);
        assert!(cat.index_of("nope").is_err());
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.total_segments(), 59);
        assert_eq!(cat.total_logical_bytes(), 59 * GIB);
        assert_eq!(cat.table(li).logical_bytes(), 48 * GIB);
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_names_rejected() {
        let mut cat = Catalog::new();
        cat.register(def("t", 1));
        cat.register(def("t", 1));
    }

    #[test]
    #[should_panic(expected = "no segments")]
    fn zero_segments_rejected() {
        let mut cat = Catalog::new();
        cat.register(def("t", 0));
    }
}
