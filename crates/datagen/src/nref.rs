//! NREF-shaped genome-sequencing benchmark.
//!
//! The paper's fourth workload is "a genome-sequencing benchmark over a
//! 13 GB NREF database" (the Protein Information Resource's
//! non-redundant reference protein DB) running "a 4-table join that
//! counts protein sequences matching a specific criteria". The NREF
//! schema distributed with PIR has protein entries linked to source
//! databases, taxonomy and annotations; this module reproduces that
//! shape:
//!
//! * `protein`    — one row per sequence (nref_id, taxon, length)
//! * `organism`   — taxonomy (taxon_id, kingdom)
//! * `annotation` — keyword tags per protein (nref_id, source_id, keyword)
//! * `source`     — contributing source databases
//!
//! The benchmark query counts bacterial proteins of moderate length
//! carrying a specific annotation keyword from curated sources.

use rand::Rng;
use skipper_relational::expr::Expr;
use skipper_relational::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QuerySpec};
use skipper_relational::schema::{DataType, Schema};
use skipper_relational::value::Value;

use crate::config::GenConfig;
use crate::dataset::{segments_for, Dataset, DatasetBuilder, TableSpec};

/// Taxonomy kingdoms.
pub(crate) const KINGDOMS: [&str; 4] = ["Bacteria", "Archaea", "Eukaryota", "Viruses"];
/// Annotation keywords.
pub(crate) const KEYWORDS: [&str; 6] = [
    "kinase",
    "transferase",
    "hydrolase",
    "membrane",
    "ribosomal",
    "transport",
];

/// GB at the paper's default (sf = 50 ⇒ the published 13 GB database,
/// ~10 GB raw before storage overhead).
const PROTEIN_GB: f64 = 6.0;
const ANNOTATION_GB: f64 = 3.5;
const PROTEIN_ROWS: u64 = 36_000_000;
const ANNOTATION_ROWS: u64 = 55_000_000;

/// Table geometry (scaled by `sf/50` from the 13 GB paper instance).
pub(crate) fn geometry(cfg: &GenConfig) -> Vec<TableSpec> {
    let scale = cfg.sf as f64 / 50.0;
    let mk = |name: &'static str, gb: f64, rows: u64| {
        let segments = segments_for(gb * scale, 1);
        let logical_rows_per_segment = ((rows as f64 * scale) as u64)
            .max(1)
            .div_ceil(segments as u64);
        TableSpec {
            name,
            segments,
            logical_rows_per_segment,
            phys_rows_per_segment: cfg.phys_rows(logical_rows_per_segment),
        }
    };
    vec![
        TableSpec {
            name: "source",
            segments: 1,
            logical_rows_per_segment: 20,
            phys_rows_per_segment: 20,
        },
        TableSpec {
            name: "organism",
            segments: 1,
            logical_rows_per_segment: 4_000,
            phys_rows_per_segment: 400,
        },
        mk("protein", PROTEIN_GB, PROTEIN_ROWS),
        mk("annotation", ANNOTATION_GB, ANNOTATION_ROWS),
    ]
}

/// Generates the NREF miniature dataset.
pub fn dataset(cfg: &GenConfig) -> Dataset {
    let geo = geometry(cfg);
    let n_sources = geo[0].phys_rows() as i64;
    let n_organisms = geo[1].phys_rows() as i64;
    let n_proteins = geo[2].phys_rows() as i64;

    let mut b = DatasetBuilder::new(&format!("nref-sf{}", cfg.sf), cfg.seed);
    b.add_table(
        &geo[0],
        Schema::of(&[("source_id", DataType::Int), ("curated", DataType::Bool)]),
        |rng, rid, row| {
            row.int(rid as i64 + 1).bool(rng.gen_bool(0.5));
        },
    );
    b.add_table(
        &geo[1],
        Schema::of(&[("taxon_id", DataType::Int), ("kingdom", DataType::Str)]),
        |rng, rid, row| {
            row.int(rid as i64 + 1)
                .str(KINGDOMS[rng.gen_range(0..KINGDOMS.len())]);
        },
    );
    b.add_table(
        &geo[2],
        Schema::of(&[
            ("nref_id", DataType::Int),
            ("taxon_id", DataType::Int),
            ("seq_length", DataType::Int),
        ]),
        |rng, rid, row| {
            row.int(rid as i64 + 1)
                .int(rng.gen_range(1..=n_organisms))
                .int(rng.gen_range(50..3_000i64));
        },
    );
    b.add_table(
        &geo[3],
        Schema::of(&[
            ("nref_id", DataType::Int),
            ("source_id", DataType::Int),
            ("keyword", DataType::Str),
        ]),
        |rng, _, row| {
            row.int(rng.gen_range(1..=n_proteins))
                .int(rng.gen_range(1..=n_sources))
                .str(KEYWORDS[rng.gen_range(0..KEYWORDS.len())]);
        },
    );
    b.finish()
}

/// The 4-table protein-count query:
///
/// ```sql
/// SELECT COUNT(*)
/// FROM protein P, organism O, annotation A, source S
/// WHERE P.taxon_id = O.taxon_id
///   AND A.nref_id = P.nref_id
///   AND A.source_id = S.source_id
///   AND O.kingdom = 'Bacteria'
///   AND P.seq_length BETWEEN 200 AND 1000
///   AND A.keyword IN ('kinase', 'transferase')
///   AND S.curated
/// ```
pub fn protein_count(dataset: &Dataset) -> QuerySpec {
    let source = schema(dataset, "source");
    let organism = schema(dataset, "organism");
    let protein = schema(dataset, "protein");
    let annotation = schema(dataset, "annotation");

    const S: usize = 0;
    const O: usize = 1;
    const P: usize = 2;
    const A: usize = 3;

    QuerySpec {
        name: "nref-protein-count".into(),
        tables: vec![
            "source".into(),
            "organism".into(),
            "protein".into(),
            "annotation".into(),
        ],
        filters: vec![
            Some(Expr::col(source.col("curated")).eq(Expr::lit(true))),
            Some(Expr::col(organism.col("kingdom")).eq(Expr::lit("Bacteria"))),
            Some(Expr::col(protein.col("seq_length")).between(200i64, 1000i64)),
            Some(
                Expr::col(annotation.col("keyword"))
                    .in_list(vec![Value::str("kinase"), Value::str("transferase")]),
            ),
        ],
        joins: vec![
            JoinCond::new(A, annotation.col("nref_id"), P, protein.col("nref_id")),
            JoinCond::new(A, annotation.col("source_id"), S, source.col("source_id")),
            JoinCond::new(P, protein.col("taxon_id"), O, organism.col("taxon_id")),
        ],
        driver: A,
        plan_order: vec![O, P, A, S],
        probe_order: Some(vec![P, S, O]),
        group_by: vec![],
        aggregates: vec![AggSpec::new(
            AggFunc::Count,
            JoinExpr::Lit(Value::Int(1)),
            "matching_sequences",
        )],
    }
}

fn schema(dataset: &Dataset, table: &str) -> Schema {
    let idx = dataset.catalog.index_of(table).expect("NREF table present");
    dataset.catalog.table(idx).schema.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_relational::ops::binary;
    use skipper_testkit::ops::reference;

    #[test]
    fn default_scale_is_13gb() {
        let geo = geometry(&GenConfig::new(1, 50));
        let total: u32 = geo.iter().map(|t| t.segments).sum();
        // (6 + 3.5) GB × 1.3 + 2 dimension objects = 15 objects ≈ 13 GB DB.
        assert_eq!(total, 15);
    }

    #[test]
    fn protein_count_is_positive_and_engines_agree() {
        let cfg = GenConfig::new(5, 50).with_phys_divisor(400_000);
        let ds = dataset(&cfg);
        let spec = protein_count(&ds);
        spec.validate();
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let out = reference::execute(&spec, &slices);
        assert_eq!(out.len(), 1);
        let count = out[0].1[0].as_int().unwrap();
        assert!(count > 0, "filters too selective: no rows");
        let (bin, _) = binary::execute_left_deep(&spec, &slices);
        assert_eq!(out, bin.finish());
    }

    #[test]
    fn plan_order_is_binary_joinable() {
        // Every left-deep step must join the bound prefix (the executor
        // panics on cross products): organism → protein → annotation →
        // source is fully connected.
        let cfg = GenConfig::new(5, 50).with_phys_divisor(2_000_000);
        let ds = dataset(&cfg);
        let spec = protein_count(&ds);
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let _ = binary::execute_left_deep(&spec, &slices);
    }
}
