//! Dataset container and builder.

use std::sync::Arc;

use rand::rngs::StdRng;
use skipper_relational::catalog::{Catalog, TableDef, GIB};
use skipper_relational::query::QuerySpec;
use skipper_relational::schema::Schema;
use skipper_relational::segment::{Segment, SegmentBuilder};
use skipper_sim::rng::stream_rng;

/// PostgreSQL on-disk bloat over raw data (tuple headers, page slack,
/// fill factor). Applied to logical sizes so segment counts match the
/// paper's measured object counts (127 Q5 objects at SF-100 etc.).
pub(crate) const STORAGE_OVERHEAD: f64 = 1.3;

/// Computes a table's segment count from its raw GB-per-scale-factor
/// footprint: `ceil(gb_per_sf × sf × STORAGE_OVERHEAD)`, at least 1.
pub(crate) fn segments_for(gb_per_sf: f64, sf: u32) -> u32 {
    (gb_per_sf * sf as f64 * STORAGE_OVERHEAD).ceil().max(1.0) as u32
}

/// Geometry of one table before generation (exposed so tests can assert
/// the paper's object counts without generating data).
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Table name.
    pub name: &'static str,
    /// Segment (object) count.
    pub segments: u32,
    /// Logical rows per segment.
    pub logical_rows_per_segment: u64,
    /// Physical (generated) rows per segment.
    pub phys_rows_per_segment: u64,
}

impl TableSpec {
    /// Total physical rows of the table.
    pub(crate) fn phys_rows(&self) -> u64 {
        self.segments as u64 * self.phys_rows_per_segment
    }
}

/// A fully generated dataset: catalog + per-table segment payloads.
///
/// Segments are `Arc`-shared: the simulation driver hands the same
/// payload to every tenant (the paper's clients each own an identical
/// copy of the benchmark dataset; sharing the bytes is a memory
/// optimization, not a semantic change).
#[derive(Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"tpch-sf50"`).
    pub name: String,
    /// Table definitions (segment geometry, logical sizes).
    pub catalog: Catalog,
    /// `segments[table][segment]` payloads.
    pub segments: Vec<Vec<Arc<Segment>>>,
}

impl Dataset {
    /// The segments of table `idx`.
    pub fn table_segments(&self, idx: usize) -> &[Arc<Segment>] {
        &self.segments[idx]
    }

    /// Total object count (what the CSD stores for one tenant).
    pub fn total_objects(&self) -> u32 {
        self.catalog.total_segments()
    }

    /// Number of objects a query touches (sum over its tables).
    pub fn objects_for_query(&self, spec: &QuerySpec) -> u32 {
        spec.tables
            .iter()
            .map(|t| {
                let idx = self.catalog.index_of(t).expect("query table in catalog");
                self.catalog.table(idx).segment_count
            })
            .sum()
    }

    /// Catalog table indexes for each query relation, in query order.
    pub fn query_table_indexes(&self, spec: &QuerySpec) -> Vec<usize> {
        spec.tables
            .iter()
            .map(|t| self.catalog.index_of(t).expect("query table in catalog"))
            .collect()
    }

    /// Clones out plain segment vectors for the reference executors
    /// (tests only; the driver works on the `Arc`s directly).
    pub fn materialize_query_tables(&self, spec: &QuerySpec) -> Vec<Vec<Segment>> {
        self.query_table_indexes(spec)
            .iter()
            .map(|&idx| {
                self.segments[idx]
                    .iter()
                    .map(|s| Segment::clone(s))
                    .collect()
            })
            .collect()
    }

    /// Total physical rows across all tables (generation sanity metric).
    pub fn total_phys_rows(&self) -> u64 {
        self.segments
            .iter()
            .flat_map(|t| t.iter())
            .map(|s| s.len() as u64)
            .sum()
    }
}

/// Incremental dataset builder used by the workload modules.
pub struct DatasetBuilder {
    name: String,
    seed: u64,
    catalog: Catalog,
    segments: Vec<Vec<Arc<Segment>>>,
}

impl DatasetBuilder {
    /// Starts a dataset named `name`; all RNG streams derive from `seed`.
    pub fn new(name: &str, seed: u64) -> Self {
        DatasetBuilder {
            name: name.to_string(),
            seed,
            catalog: Catalog::new(),
            segments: Vec::new(),
        }
    }

    /// Generates and registers one table.
    ///
    /// `gen` writes the row with the given *global physical row id*
    /// (0-based, contiguous across segments) straight into the segment's
    /// columns, one push per column in schema order — generators derive
    /// partition-ordered primary keys from the id, matching how
    /// bulk-loaded tables lay out key ranges per file segment.
    pub fn add_table(
        &mut self,
        spec: &TableSpec,
        schema: Schema,
        mut gen: impl FnMut(&mut StdRng, u64, &mut SegmentBuilder),
    ) -> usize {
        let idx = self.catalog.register(TableDef {
            name: spec.name.to_string(),
            schema: schema.clone(),
            segment_count: spec.segments,
            logical_bytes_per_segment: GIB,
            logical_rows_per_segment: spec.logical_rows_per_segment,
        });
        let mut table_segments = Vec::with_capacity(spec.segments as usize);
        for seg_idx in 0..spec.segments {
            let mut rng = stream_rng(
                self.seed,
                &format!("{}/{}/{}", self.name, spec.name, seg_idx),
            );
            let base = seg_idx as u64 * spec.phys_rows_per_segment;
            let mut columns =
                SegmentBuilder::new(schema.clone(), spec.phys_rows_per_segment as usize);
            for i in 0..spec.phys_rows_per_segment {
                gen(&mut rng, base + i, &mut columns);
            }
            let segment = columns.finish();
            assert_eq!(segment.len() as u64, spec.phys_rows_per_segment);
            table_segments.push(Arc::new(segment));
        }
        self.segments.push(table_segments);
        idx
    }

    /// Finalizes the dataset.
    pub fn finish(self) -> Dataset {
        Dataset {
            name: self.name,
            catalog: self.catalog,
            segments: self.segments,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_relational::row;
    use skipper_relational::schema::DataType;

    fn tiny_spec() -> TableSpec {
        TableSpec {
            name: "t",
            segments: 3,
            logical_rows_per_segment: 1000,
            phys_rows_per_segment: 10,
        }
    }

    #[test]
    fn segments_for_matches_paper_geometry() {
        // The §5.2.4 anchors: lineitem 95 / orders 22 / customer 7 at
        // SF-100 (95 × 22 × 7 = 14 630 subplans).
        assert_eq!(segments_for(0.73, 100), 95);
        assert_eq!(segments_for(0.165, 100), 22);
        assert_eq!(segments_for(0.052, 100), 7);
        assert_eq!(segments_for(0.00001, 100), 1); // tiny dims
    }

    #[test]
    fn builder_generates_deterministic_partitioned_rows() {
        let build = |seed| {
            let mut b = DatasetBuilder::new("test", seed);
            let schema = Schema::of(&[("k", DataType::Int)]);
            b.add_table(&tiny_spec(), schema, |_rng, rid, row| {
                row.int(rid as i64 + 1);
            });
            b.finish()
        };
        let d1 = build(7);
        let d2 = build(7);
        assert_eq!(d1.segments[0], d2.segments[0]);
        // Partitioned keys: segment 1 starts where segment 0 ended.
        assert_eq!(d1.segments[0][0].row(0).to_row(), row![1i64]);
        assert_eq!(d1.segments[0][1].row(0).to_row(), row![11i64]);
        assert_eq!(d1.total_phys_rows(), 30);
        assert_eq!(d1.total_objects(), 3);
    }

    #[test]
    fn different_seeds_differ() {
        let build = |seed| {
            let mut b = DatasetBuilder::new("test", seed);
            let schema = Schema::of(&[("v", DataType::Int)]);
            b.add_table(&tiny_spec(), schema, |rng, _, row| {
                use rand::Rng;
                row.int(rng.gen_range(0..1_000_000i64));
            });
            b.finish()
        };
        assert_ne!(build(1).segments[0][0], build(2).segments[0][0]);
    }
}
