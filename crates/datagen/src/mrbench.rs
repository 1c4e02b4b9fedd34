//! The Pavlo et al. analytical benchmark ("MR-bench").
//!
//! "A Comparison of Approaches to Large-Scale Data Analysis" (SIGMOD'09)
//! defines three tasks over web-crawl-shaped data; the paper's mixed
//! workload (Figure 8) runs the **JoinTask**: join `uservisits` with
//! `rankings` on the visited URL, restricted to a visit-date range, and
//! aggregate ad revenue and page rank. The paper uses a 20 GB instance;
//! geometry here reproduces that footprint (≈26 objects with storage
//! overhead) scaled linearly by `sf / 50` so the same `GenConfig` drives
//! all four workloads.

use rand::Rng;
use skipper_relational::expr::Expr;
use skipper_relational::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QualifiedCol, QuerySpec};
use skipper_relational::schema::{DataType, Schema};
use skipper_relational::value::Value;

use crate::config::GenConfig;
use crate::dataset::{segments_for, Dataset, DatasetBuilder, TableSpec};

/// GB per *paper-default* configuration (sf = 50): 18 GB of uservisits,
/// 2 GB of rankings — the benchmark's published 20 GB database.
const USERVISITS_GB_AT_DEFAULT: f64 = 18.0;
const RANKINGS_GB_AT_DEFAULT: f64 = 2.0;
/// Logical rows at the default scale.
const USERVISITS_ROWS_AT_DEFAULT: u64 = 155_000_000;
const RANKINGS_ROWS_AT_DEFAULT: u64 = 18_000_000;

/// Table geometry (scaled by `sf/50` relative to the 20 GB paper setup).
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
        mk("rankings", RANKINGS_GB_AT_DEFAULT, RANKINGS_ROWS_AT_DEFAULT),
        mk(
            "uservisits",
            USERVISITS_GB_AT_DEFAULT,
            USERVISITS_ROWS_AT_DEFAULT,
        ),
    ]
}

/// Generates the MR-bench miniature dataset.
pub fn dataset(cfg: &GenConfig) -> Dataset {
    let geo = geometry(cfg);
    let n_pages = geo[0].phys_rows() as i64;

    let mut b = DatasetBuilder::new(&format!("mrbench-sf{}", cfg.sf), cfg.seed);
    b.add_table(
        &geo[0],
        Schema::of(&[
            ("pageurl", DataType::Int), // URLs are dictionary-encoded ints
            ("pagerank", DataType::Int),
            ("avgduration", DataType::Int),
        ]),
        |rng, rid, row| {
            row.int(rid as i64 + 1)
                .int(rng.gen_range(0..10_000i64))
                .int(rng.gen_range(1..300i64));
        },
    );
    b.add_table(
        &geo[1],
        Schema::of(&[
            ("sourceip_bucket", DataType::Int),
            ("desturl", DataType::Int),
            ("visitdate", DataType::Date),
            ("adrevenue", DataType::Float),
        ]),
        |rng, _, row| {
            row.int(rng.gen_range(0..100i64))
                .int(rng.gen_range(1..=n_pages))
                .date(rng.gen_range(0..2_400))
                .float(rng.gen_range(0.01..1000.0f64));
        },
    );
    b.finish()
}

/// The JoinTask:
///
/// ```sql
/// SELECT sourceip_bucket, AVG(pagerank), SUM(adrevenue)
/// FROM rankings R, uservisits UV
/// WHERE R.pageurl = UV.desturl
///   AND UV.visitdate BETWEEN '2000-01-15' AND '2000-01-22'
/// GROUP BY sourceip_bucket
/// ```
///
/// (Source IPs are bucketed to 100 groups — the original groups by
/// full IP and re-aggregates; the bucketed form keeps the result set
/// comparable across scales.)
pub fn join_task(dataset: &Dataset) -> QuerySpec {
    let rankings = schema(dataset, "rankings");
    let uservisits = schema(dataset, "uservisits");
    // A one-week window scaled to our synthetic 2400-day visit range to
    // keep the published task's ~0.3% selectivity shape.
    let lo = 1_000;
    let hi = 1_007;

    QuerySpec {
        name: "mrbench-join".into(),
        tables: vec!["rankings".into(), "uservisits".into()],
        filters: vec![
            None,
            Some(Expr::col(uservisits.col("visitdate")).between(Value::Date(lo), Value::Date(hi))),
        ],
        joins: vec![JoinCond::new(
            1,
            uservisits.col("desturl"),
            0,
            rankings.col("pageurl"),
        )],
        driver: 1,
        plan_order: vec![0, 1],
        probe_order: None,
        group_by: vec![QualifiedCol::new(1, uservisits.col("sourceip_bucket"))],
        aggregates: vec![
            AggSpec::new(
                AggFunc::Avg,
                JoinExpr::col(0, rankings.col("pagerank")),
                "avg_pagerank",
            ),
            AggSpec::new(
                AggFunc::Sum,
                JoinExpr::col(1, uservisits.col("adrevenue")),
                "total_adrevenue",
            ),
        ],
    }
}

fn schema(dataset: &Dataset, table: &str) -> Schema {
    let idx = dataset
        .catalog
        .index_of(table)
        .expect("MR-bench table present");
    dataset.catalog.table(idx).schema.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_relational::ops::binary;
    use skipper_testkit::ops::reference;

    #[test]
    fn default_scale_is_20gb() {
        let geo = geometry(&GenConfig::new(1, 50));
        let total: u32 = geo.iter().map(|t| t.segments).sum();
        // 20 GB × 1.3 overhead, per-table ceiling = 24 + 3 = 27 objects.
        assert_eq!(total, 27);
    }

    #[test]
    fn join_task_aggregates_by_bucket() {
        let cfg = GenConfig::new(3, 50).with_phys_divisor(400_000);
        let ds = dataset(&cfg);
        let spec = join_task(&ds);
        spec.validate();
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let out = reference::execute(&spec, &slices);
        assert!(!out.is_empty());
        assert!(out.len() <= 100);
        let (bin, _) = binary::execute_left_deep(&spec, &slices);
        assert!(skipper_relational::query::results_approx_eq(
            &out,
            &bin.finish(),
            1e-9
        ));
    }
}
