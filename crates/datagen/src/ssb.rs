//! Star-Schema Benchmark (SSB) miniature.
//!
//! SSB denormalizes TPC-H into a `lineorder` fact table joined to small
//! dimensions. The paper runs SSB Q1 in its mixed-workload experiment
//! (Figure 8); Q1.1 is a two-table join of `lineorder` with the `date`
//! dimension plus tight fact-side selections — effectively a filtered
//! scan driven by the fact table, which is why scans "could naturally be
//! serviced in an out-of-order fashion".
//!
//! Geometry: SSB at SF-50 is ~30 GB raw (`lineorder` ≈ 0.57 GB/SF);
//! with the 1.3× storage overhead the dataset occupies ~38 objects.

use rand::Rng;
use skipper_relational::expr::Expr;
use skipper_relational::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QuerySpec};
use skipper_relational::schema::{DataType, Schema};

use crate::config::GenConfig;
use crate::dataset::{segments_for, Dataset, DatasetBuilder, TableSpec};
use crate::dates::{max_order_date, year_of};

/// Raw GB per scale-factor unit of the `lineorder` fact table.
pub(crate) const LINEORDER_GB_PER_SF: f64 = 0.57;
/// Logical lineorder rows per scale-factor unit.
pub(crate) const LINEORDER_ROWS_PER_SF: u64 = 6_000_000;

/// Table geometry: `date` (1 segment) + `lineorder`.
pub(crate) fn geometry(cfg: &GenConfig) -> Vec<TableSpec> {
    let segments = segments_for(LINEORDER_GB_PER_SF, cfg.sf);
    let logical_rows_per_segment =
        (LINEORDER_ROWS_PER_SF * cfg.sf as u64).div_ceil(segments as u64);
    vec![
        TableSpec {
            name: "date",
            segments: 1,
            logical_rows_per_segment: 2_556, // 7 years of days
            phys_rows_per_segment: 2_556,
        },
        TableSpec {
            name: "lineorder",
            segments,
            logical_rows_per_segment,
            phys_rows_per_segment: cfg.phys_rows(logical_rows_per_segment),
        },
    ]
}

/// Generates the SSB miniature dataset.
pub fn dataset(cfg: &GenConfig) -> Dataset {
    let geo = geometry(cfg);
    let n_dates = geo[0].phys_rows() as i32;

    let mut b = DatasetBuilder::new(&format!("ssb-sf{}", cfg.sf), cfg.seed);
    b.add_table(
        &geo[0],
        Schema::of(&[
            ("d_datekey", DataType::Int),
            ("d_year", DataType::Int),
            ("d_weeknuminyear", DataType::Int),
        ]),
        |_, rid, row| {
            let day = rid as i32;
            row.int(day as i64)
                .int(year_of(day) as i64)
                .int((day / 7 % 53) as i64 + 1);
        },
    );
    b.add_table(
        &geo[1],
        Schema::of(&[
            ("lo_orderdate", DataType::Int),
            ("lo_quantity", DataType::Int),
            ("lo_discount", DataType::Int),
            ("lo_extendedprice", DataType::Float),
        ]),
        |rng, _, row| {
            row.int(rng.gen_range(0..n_dates.min(max_order_date())) as i64)
                .int(rng.gen_range(1..=50i64))
                .int(rng.gen_range(0..=10i64))
                .float(rng.gen_range(900.0..105_000.0f64));
        },
    );
    b.finish()
}

/// SSB Q1.1:
///
/// ```sql
/// SELECT SUM(lo_extendedprice * lo_discount) AS revenue
/// FROM lineorder, date
/// WHERE lo_orderdate = d_datekey AND d_year = 1993
///   AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25
/// ```
pub fn q1(dataset: &Dataset) -> QuerySpec {
    let date = schema(dataset, "date");
    let lineorder = schema(dataset, "lineorder");

    QuerySpec {
        name: "ssb-q1.1".into(),
        tables: vec!["date".into(), "lineorder".into()],
        filters: vec![
            Some(Expr::col(date.col("d_year")).eq(Expr::lit(1993i64))),
            Some(
                Expr::col(lineorder.col("lo_discount"))
                    .between(1i64, 3i64)
                    .and(Expr::col(lineorder.col("lo_quantity")).lt(Expr::lit(25i64))),
            ),
        ],
        joins: vec![JoinCond::new(
            1,
            lineorder.col("lo_orderdate"),
            0,
            date.col("d_datekey"),
        )],
        driver: 1,
        plan_order: vec![0, 1],
        probe_order: None,
        group_by: vec![],
        aggregates: vec![AggSpec::new(
            AggFunc::Sum,
            JoinExpr::Mul(
                Box::new(JoinExpr::col(1, lineorder.col("lo_extendedprice"))),
                Box::new(JoinExpr::col(1, lineorder.col("lo_discount"))),
            ),
            "revenue",
        )],
    }
}

fn schema(dataset: &Dataset, table: &str) -> Schema {
    let idx = dataset.catalog.index_of(table).expect("SSB table present");
    dataset.catalog.table(idx).schema.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dates::year_start;
    use skipper_relational::ops::binary;
    use skipper_testkit::ops::reference;

    fn cfg() -> GenConfig {
        GenConfig::new(11, 2).with_phys_divisor(20_000)
    }

    #[test]
    fn geometry_scales_with_sf() {
        let g50 = geometry(&GenConfig::new(1, 50));
        // ~38 objects at SF-50 (≈30 GB dataset + overhead).
        assert_eq!(g50[1].segments, 38);
        assert_eq!(g50[0].segments, 1);
    }

    #[test]
    fn q1_filters_to_1993_revenue() {
        let ds = dataset(&cfg());
        let spec = q1(&ds);
        spec.validate();
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let out = reference::execute(&spec, &slices);
        assert_eq!(out.len(), 1); // global aggregate
        assert!(out[0].1[0].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn q1_reference_matches_binary() {
        let ds = dataset(&cfg());
        let spec = q1(&ds);
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let (bin, _) = binary::execute_left_deep(&spec, &slices);
        assert!(skipper_relational::query::results_approx_eq(
            &reference::execute(&spec, &slices),
            &bin.finish(),
            1e-9
        ));
    }

    #[test]
    fn year_boundary_sanity() {
        // d_year derives from the shared calendar: day 366 is 1993-01-01.
        assert_eq!(year_of(year_start(1993)), 1993);
    }
}
