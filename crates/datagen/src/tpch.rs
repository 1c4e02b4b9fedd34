//! Miniature TPC-H: the paper's primary workload.
//!
//! Segment geometry (`geometry`) is sized so the paper's object counts
//! fall out exactly: at SF-100, Q5 touches 95 (lineitem) + 22 (orders) +
//! 7 (customer) + 3×1 (supplier/nation/region) = **127 objects** out of
//! ~144 total, producing **95 × 22 × 7 = 14 630 subplans** — the numbers
//! reported in §5.2.4. At SF-50 the Q12 working set is 48 + 11 = 59
//! objects (the paper observes 57 per-segment group switches) and the
//! whole dataset is 75 objects, making the paper's 30 GB cache = 40 %
//! and 10 GB = ~14 % sweeps line up.

use std::fmt::Write;

use rand::Rng;
use skipper_relational::expr::Expr;
use skipper_relational::query::{AggFunc, AggSpec, JoinCond, JoinExpr, QualifiedCol, QuerySpec};
use skipper_relational::schema::{DataType, Schema};
use skipper_relational::value::Value;

use skipper_sim::rng::stream_rng;

use crate::config::GenConfig;
use crate::dataset::{segments_for, Dataset, DatasetBuilder, TableSpec};
use crate::dates::{max_order_date, year_start};

/// The 25 TPC-H nations and their region assignment (region key 0-4:
/// AFRICA, AMERICA, ASIA, EUROPE, MIDDLE EAST).
pub(crate) const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// The five regions.
pub(crate) const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Ship modes (Q12 selects MAIL and SHIP).
pub(crate) const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// Order priorities (Q12 counts 1-URGENT/2-HIGH as "high").
pub(crate) const PRIORITIES: [&str; 5] =
    ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Market segments (Q3 selects BUILDING).
pub(crate) const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];

/// Part types (Q14 counts the PROMO ones).
pub(crate) const PART_TYPES: [&str; 10] = [
    "PROMO BURNISHED COPPER",
    "PROMO PLATED BRASS",
    "ECONOMY ANODIZED STEEL",
    "ECONOMY BRUSHED NICKEL",
    "STANDARD POLISHED TIN",
    "STANDARD PLATED COPPER",
    "MEDIUM BURNISHED SILVER",
    "MEDIUM ANODIZED BRASS",
    "LARGE BRUSHED STEEL",
    "LARGE POLISHED NICKEL",
];

/// Return flags (Q10 selects returned items, 'R').
pub(crate) const RETURN_FLAGS: [&str; 3] = ["A", "N", "R"];

/// Raw GB per scale-factor unit for each table (before the 1.3× storage
/// overhead), tuned to reproduce the paper's object counts.
mod gb_per_sf {
    pub(crate) const LINEITEM: f64 = 0.73;
    pub(crate) const ORDERS: f64 = 0.165;
    pub(crate) const CUSTOMER: f64 = 0.052;
    pub(crate) const PARTSUPP: f64 = 0.095;
    pub(crate) const PART: f64 = 0.030;
    pub(crate) const SUPPLIER: f64 = 0.0033;
}

/// Logical (full-scale) row counts per scale-factor unit.
mod rows_per_sf {
    pub(crate) const LINEITEM: u64 = 6_000_000;
    pub(crate) const ORDERS: u64 = 1_500_000;
    pub(crate) const CUSTOMER: u64 = 150_000;
    pub(crate) const PARTSUPP: u64 = 800_000;
    pub(crate) const PART: u64 = 200_000;
    pub(crate) const SUPPLIER: u64 = 10_000;
}

fn spec(name: &'static str, gb: f64, rows_sf: u64, cfg: &GenConfig) -> TableSpec {
    let segments = segments_for(gb, cfg.sf);
    let logical_rows_per_segment = (rows_sf * cfg.sf as u64).div_ceil(segments as u64);
    TableSpec {
        name,
        segments,
        logical_rows_per_segment,
        phys_rows_per_segment: cfg.phys_rows(logical_rows_per_segment),
    }
}

/// The full SF-dependent table geometry, in catalog registration order:
/// region, nation, supplier, customer, orders, lineitem, part, partsupp.
pub(crate) fn geometry(cfg: &GenConfig) -> Vec<TableSpec> {
    vec![
        TableSpec {
            name: "region",
            segments: 1,
            logical_rows_per_segment: 5,
            phys_rows_per_segment: 5,
        },
        TableSpec {
            name: "nation",
            segments: 1,
            logical_rows_per_segment: 25,
            phys_rows_per_segment: 25,
        },
        spec("supplier", gb_per_sf::SUPPLIER, rows_per_sf::SUPPLIER, cfg),
        spec("customer", gb_per_sf::CUSTOMER, rows_per_sf::CUSTOMER, cfg),
        spec("orders", gb_per_sf::ORDERS, rows_per_sf::ORDERS, cfg),
        spec("lineitem", gb_per_sf::LINEITEM, rows_per_sf::LINEITEM, cfg),
        spec("part", gb_per_sf::PART, rows_per_sf::PART, cfg),
        spec("partsupp", gb_per_sf::PARTSUPP, rows_per_sf::PARTSUPP, cfg),
    ]
}

/// Generates the TPC-H miniature dataset.
pub fn dataset(cfg: &GenConfig) -> Dataset {
    let geo = geometry(cfg);
    let (region_s, nation_s, supplier_s, customer_s, orders_s, lineitem_s, part_s, partsupp_s) = (
        &geo[0], &geo[1], &geo[2], &geo[3], &geo[4], &geo[5], &geo[6], &geo[7],
    );
    let n_suppliers = supplier_s.phys_rows() as i64;
    let n_customers = customer_s.phys_rows() as i64;
    let n_orders = orders_s.phys_rows() as i64;
    let n_parts = part_s.phys_rows() as i64;

    let ext_seed = cfg.seed;
    let mut b = DatasetBuilder::new(&format!("tpch-sf{}", cfg.sf), cfg.seed);

    b.add_table(
        region_s,
        Schema::of(&[("r_regionkey", DataType::Int), ("r_name", DataType::Str)]),
        |_, rid, row| {
            row.int(rid as i64).str(REGIONS[rid as usize]);
        },
    );

    b.add_table(
        nation_s,
        Schema::of(&[
            ("n_nationkey", DataType::Int),
            ("n_name", DataType::Str),
            ("n_regionkey", DataType::Int),
        ]),
        |_, rid, row| {
            let (name, region) = NATIONS[rid as usize];
            row.int(rid as i64).str(name).int(region);
        },
    );

    b.add_table(
        supplier_s,
        Schema::of(&[
            ("s_suppkey", DataType::Int),
            ("s_nationkey", DataType::Int),
            ("s_acctbal", DataType::Float),
        ]),
        |rng, rid, row| {
            row.int(rid as i64 + 1)
                .int(rng.gen_range(0..25i64))
                .float(rng.gen_range(-999.99..9999.99));
        },
    );

    b.add_table(
        customer_s,
        Schema::of(&[
            ("c_custkey", DataType::Int),
            ("c_nationkey", DataType::Int),
            ("c_mktsegment", DataType::Str),
            ("c_acctbal", DataType::Float),
        ]),
        |rng, rid, row| {
            row.int(rid as i64 + 1)
                .int(rng.gen_range(0..25i64))
                .str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())])
                .float(rng.gen_range(-999.99..9999.99));
        },
    );

    let order_date_span = max_order_date() - 151; // last order ships in range
    b.add_table(
        orders_s,
        Schema::of(&[
            ("o_orderkey", DataType::Int),
            ("o_custkey", DataType::Int),
            ("o_orderdate", DataType::Date),
            ("o_orderpriority", DataType::Str),
            ("o_totalprice", DataType::Float),
        ]),
        |rng, rid, row| {
            row.int(rid as i64 + 1)
                .int(rng.gen_range(1..=n_customers))
                .date(rng.gen_range(0..order_date_span))
                .str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())])
                .float(rng.gen_range(850.0..500_000.0));
        },
    );

    b.add_table(
        lineitem_s,
        Schema::of(&[
            ("l_orderkey", DataType::Int),
            ("l_suppkey", DataType::Int),
            ("l_partkey", DataType::Int),
            ("l_quantity", DataType::Float),
            ("l_extendedprice", DataType::Float),
            ("l_discount", DataType::Float),
            ("l_shipdate", DataType::Date),
            ("l_commitdate", DataType::Date),
            ("l_receiptdate", DataType::Date),
            ("l_shipmode", DataType::Str),
            ("l_returnflag", DataType::Str),
            ("l_linestatus", DataType::Str),
            ("l_tax", DataType::Float),
        ]),
        // The return flag and tax draw from a per-row side stream so that
        // adding these columns did not perturb the original streams (the
        // recorded experiment numbers stay bit-identical).
        |rng, rid, row| {
            let ship = rng.gen_range(0..max_order_date());
            let commit = ship + rng.gen_range(-20..80);
            let receipt = ship + rng.gen_range(1..60);
            let mut ext = stream_rng(ext_seed, &format!("lineitem-ext/{rid}"));
            // TPC-H semantics: lines shipped after 1995-06-17 are still
            // "O"pen; earlier ones are "F"inalized, and only finalized
            // lines can be returned.
            let cutoff = crate::dates::date(1995, 6, 17);
            let linestatus = if ship > cutoff { "O" } else { "F" };
            let returnflag = if ship > cutoff {
                "N"
            } else {
                RETURN_FLAGS[ext.gen_range(0..RETURN_FLAGS.len())]
            };
            row.int(rng.gen_range(1..=n_orders))
                .int(rng.gen_range(1..=n_suppliers))
                .int(rng.gen_range(1..=n_parts.max(1)))
                .float(rng.gen_range(1.0..50.0f64).round())
                .float(rng.gen_range(900.0..105_000.0))
                .float((rng.gen_range(0..=10) as f64) / 100.0)
                .date(ship)
                .date(commit)
                .date(receipt)
                .str(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())])
                .str(returnflag)
                .str(linestatus)
                .float((ext.gen_range(0..=8) as f64) / 100.0);
        },
    );

    let mut brand = String::new();
    b.add_table(
        part_s,
        Schema::of(&[
            ("p_partkey", DataType::Int),
            ("p_brand", DataType::Str),
            ("p_size", DataType::Int),
            ("p_type", DataType::Str),
        ]),
        |rng, rid, row| {
            let mut ext = stream_rng(ext_seed, &format!("part-ext/{rid}"));
            brand.clear();
            write!(
                brand,
                "Brand#{}{}",
                rng.gen_range(1..6),
                rng.gen_range(1..6)
            )
            .expect("writing to a String cannot fail");
            row.int(rid as i64 + 1)
                .str(&brand)
                .int(rng.gen_range(1..51i64))
                .str(PART_TYPES[ext.gen_range(0..PART_TYPES.len())]);
        },
    );

    b.add_table(
        partsupp_s,
        Schema::of(&[
            ("ps_partkey", DataType::Int),
            ("ps_suppkey", DataType::Int),
            ("ps_supplycost", DataType::Float),
        ]),
        |rng, _, row| {
            row.int(rng.gen_range(1..=n_parts.max(1)))
                .int(rng.gen_range(1..=n_suppliers))
                .float(rng.gen_range(1.0..1000.0));
        },
    );

    b.finish()
}

/// TPC-H Q12 ("shipping modes and order priority"): the two-table join
/// over the largest tables used throughout the paper's scalability
/// experiments.
///
/// ```sql
/// SELECT l_shipmode,
///        SUM(CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH')
///                 THEN 1 ELSE 0 END) AS high_line_count,
///        SUM(CASE ... ELSE 1 END)    AS low_line_count
/// FROM orders, lineitem
/// WHERE o_orderkey = l_orderkey
///   AND l_shipmode IN ('MAIL', 'SHIP')
///   AND l_commitdate < l_receiptdate
///   AND l_shipdate < l_commitdate
///   AND l_receiptdate >= DATE '1994-01-01'
///   AND l_receiptdate < DATE '1995-01-01'
/// GROUP BY l_shipmode
/// ```
pub fn q12(dataset: &Dataset) -> QuerySpec {
    let orders = schema_of(dataset, "orders");
    let lineitem = schema_of(dataset, "lineitem");
    let (l_ship, l_commit, l_receipt, l_mode) = (
        lineitem.col("l_shipdate"),
        lineitem.col("l_commitdate"),
        lineitem.col("l_receiptdate"),
        lineitem.col("l_shipmode"),
    );
    let high_list = vec![Value::str("1-URGENT"), Value::str("2-HIGH")];
    let priority = QualifiedCol::new(0, orders.col("o_orderpriority"));

    let lineitem_filter = Expr::col(l_mode)
        .in_list(vec![Value::str("MAIL"), Value::str("SHIP")])
        .and(Expr::col(l_commit).lt(Expr::col(l_receipt)))
        .and(Expr::col(l_ship).lt(Expr::col(l_commit)))
        .and(Expr::col(l_receipt).ge(Expr::lit(Value::Date(year_start(1994)))))
        .and(Expr::col(l_receipt).lt(Expr::lit(Value::Date(year_start(1995)))));

    QuerySpec {
        name: "tpch-q12".into(),
        tables: vec!["orders".into(), "lineitem".into()],
        filters: vec![None, Some(lineitem_filter)],
        joins: vec![JoinCond::new(
            0,
            orders.col("o_orderkey"),
            1,
            lineitem.col("l_orderkey"),
        )],
        driver: 1,
        plan_order: vec![0, 1],
        probe_order: None,
        group_by: vec![QualifiedCol::new(1, l_mode)],
        aggregates: vec![
            AggSpec::new(
                AggFunc::Sum,
                JoinExpr::CaseInList {
                    probe: priority,
                    list: high_list.clone(),
                    then: Value::Int(1),
                    otherwise: Value::Int(0),
                },
                "high_line_count",
            ),
            AggSpec::new(
                AggFunc::Sum,
                JoinExpr::CaseInList {
                    probe: priority,
                    list: high_list,
                    then: Value::Int(0),
                    otherwise: Value::Int(1),
                },
                "low_line_count",
            ),
        ],
    }
}

/// TPC-H Q5 ("local supplier volume"): the six-table join with a cyclic
/// join graph used for the cache-sensitivity experiments (Figures
/// 11b/11c).
///
/// ```sql
/// SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
/// FROM customer, orders, lineitem, supplier, nation, region
/// WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
///   AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
///   AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
///   AND r_name = 'ASIA'
///   AND o_orderdate >= DATE '1994-01-01'
///   AND o_orderdate < DATE '1995-01-01'
/// GROUP BY n_name
/// ```
pub fn q5(dataset: &Dataset) -> QuerySpec {
    let region = schema_of(dataset, "region");
    let nation = schema_of(dataset, "nation");
    let supplier = schema_of(dataset, "supplier");
    let customer = schema_of(dataset, "customer");
    let orders = schema_of(dataset, "orders");
    let lineitem = schema_of(dataset, "lineitem");

    // Relation indexes within the query.
    const R: usize = 0;
    const N: usize = 1;
    const S: usize = 2;
    const C: usize = 3;
    const O: usize = 4;
    const L: usize = 5;

    let region_filter = Expr::col(region.col("r_name")).eq(Expr::lit("ASIA"));
    let orders_filter = Expr::col(orders.col("o_orderdate"))
        .ge(Expr::lit(Value::Date(year_start(1994))))
        .and(Expr::col(orders.col("o_orderdate")).lt(Expr::lit(Value::Date(year_start(1995)))));

    QuerySpec {
        name: "tpch-q5".into(),
        tables: vec![
            "region".into(),
            "nation".into(),
            "supplier".into(),
            "customer".into(),
            "orders".into(),
            "lineitem".into(),
        ],
        filters: vec![
            Some(region_filter),
            None,
            None,
            None,
            Some(orders_filter),
            None,
        ],
        // Key edges first so the probe planner keys each step on a PK.
        joins: vec![
            JoinCond::new(L, lineitem.col("l_orderkey"), O, orders.col("o_orderkey")),
            JoinCond::new(O, orders.col("o_custkey"), C, customer.col("c_custkey")),
            JoinCond::new(L, lineitem.col("l_suppkey"), S, supplier.col("s_suppkey")),
            JoinCond::new(
                S,
                supplier.col("s_nationkey"),
                C,
                customer.col("c_nationkey"),
            ),
            JoinCond::new(C, customer.col("c_nationkey"), N, nation.col("n_nationkey")),
            JoinCond::new(N, nation.col("n_regionkey"), R, region.col("r_regionkey")),
        ],
        driver: L,
        // Vanilla fetch order: dims first, fact last; supplier joins the
        // (lineitem ⨝ customer) prefix on a composite key.
        plan_order: vec![R, N, C, O, L, S],
        // MJoin probes key-to-key: orders ← l_orderkey, customer ←
        // o_custkey, supplier ← l_suppkey (+ nationkey residual), nation,
        // region.
        probe_order: Some(vec![O, C, S, N, R]),
        group_by: vec![QualifiedCol::new(N, nation.col("n_name"))],
        aggregates: vec![AggSpec::new(
            AggFunc::Sum,
            JoinExpr::Mul(
                Box::new(JoinExpr::col(L, lineitem.col("l_extendedprice"))),
                Box::new(JoinExpr::Sub(
                    Box::new(JoinExpr::Lit(Value::Float(1.0))),
                    Box::new(JoinExpr::col(L, lineitem.col("l_discount"))),
                )),
            ),
            "revenue",
        )],
    }
}

/// TPC-H Q3 ("shipping priority", miniature variant grouping by order
/// priority instead of individual orders): a three-table join used by the
/// examples.
pub fn q3(dataset: &Dataset) -> QuerySpec {
    let customer = schema_of(dataset, "customer");
    let orders = schema_of(dataset, "orders");
    let lineitem = schema_of(dataset, "lineitem");
    let cutoff = crate::dates::date(1995, 3, 15);

    QuerySpec {
        name: "tpch-q3".into(),
        tables: vec!["customer".into(), "orders".into(), "lineitem".into()],
        filters: vec![
            Some(Expr::col(customer.col("c_mktsegment")).eq(Expr::lit("BUILDING"))),
            Some(Expr::col(orders.col("o_orderdate")).lt(Expr::lit(Value::Date(cutoff)))),
            Some(Expr::col(lineitem.col("l_shipdate")).gt(Expr::lit(Value::Date(cutoff)))),
        ],
        joins: vec![
            JoinCond::new(2, lineitem.col("l_orderkey"), 1, orders.col("o_orderkey")),
            JoinCond::new(1, orders.col("o_custkey"), 0, customer.col("c_custkey")),
        ],
        driver: 2,
        plan_order: vec![0, 1, 2],
        probe_order: None,
        group_by: vec![QualifiedCol::new(1, orders.col("o_orderpriority"))],
        aggregates: vec![AggSpec::new(
            AggFunc::Sum,
            JoinExpr::Mul(
                Box::new(JoinExpr::col(2, lineitem.col("l_extendedprice"))),
                Box::new(JoinExpr::Sub(
                    Box::new(JoinExpr::Lit(Value::Float(1.0))),
                    Box::new(JoinExpr::col(2, lineitem.col("l_discount"))),
                )),
            ),
            "revenue",
        )],
    }
}

/// TPC-H Q1 ("pricing summary report"): the canonical single-relation
/// scan-and-aggregate — for MJoin the degenerate case where every segment
/// is its own subplan and out-of-order service is free.
///
/// ```sql
/// SELECT l_returnflag, l_linestatus,
///        SUM(l_quantity), SUM(l_extendedprice),
///        SUM(l_extendedprice*(1-l_discount)),
///        SUM(l_extendedprice*(1-l_discount)*(1+l_tax)),
///        AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*)
/// FROM lineitem
/// WHERE l_shipdate <= DATE '1998-09-02' - 90 days
/// GROUP BY l_returnflag, l_linestatus
/// ```
pub fn q1(dataset: &Dataset) -> QuerySpec {
    let li = schema_of(dataset, "lineitem");
    let (qty, price, disc, tax) = (
        li.col("l_quantity"),
        li.col("l_extendedprice"),
        li.col("l_discount"),
        li.col("l_tax"),
    );
    let cutoff = crate::dates::date(1998, 6, 4); // 1998-09-02 − 90 days
    let disc_price = || {
        JoinExpr::Mul(
            Box::new(JoinExpr::col(0, price)),
            Box::new(JoinExpr::Sub(
                Box::new(JoinExpr::Lit(Value::Float(1.0))),
                Box::new(JoinExpr::col(0, disc)),
            )),
        )
    };
    QuerySpec {
        name: "tpch-q1".into(),
        tables: vec!["lineitem".into()],
        filters: vec![Some(
            Expr::col(li.col("l_shipdate")).le(Expr::lit(Value::Date(cutoff))),
        )],
        joins: vec![],
        driver: 0,
        plan_order: vec![0],
        probe_order: None,
        group_by: vec![
            QualifiedCol::new(0, li.col("l_returnflag")),
            QualifiedCol::new(0, li.col("l_linestatus")),
        ],
        aggregates: vec![
            AggSpec::new(AggFunc::Sum, JoinExpr::col(0, qty), "sum_qty"),
            AggSpec::new(AggFunc::Sum, JoinExpr::col(0, price), "sum_base_price"),
            AggSpec::new(AggFunc::Sum, disc_price(), "sum_disc_price"),
            AggSpec::new(
                AggFunc::Sum,
                JoinExpr::Mul(
                    Box::new(disc_price()),
                    Box::new(JoinExpr::Add(
                        Box::new(JoinExpr::Lit(Value::Float(1.0))),
                        Box::new(JoinExpr::col(0, tax)),
                    )),
                ),
                "sum_charge",
            ),
            AggSpec::new(AggFunc::Avg, JoinExpr::col(0, qty), "avg_qty"),
            AggSpec::new(AggFunc::Avg, JoinExpr::col(0, price), "avg_price"),
            AggSpec::new(AggFunc::Avg, JoinExpr::col(0, disc), "avg_disc"),
            AggSpec::new(AggFunc::Count, JoinExpr::Lit(Value::Int(1)), "count_order"),
        ],
    }
}

/// TPC-H Q6 ("forecasting revenue change"): a pure predicate scan —
/// together with Q1 these cover the paper's remark that "scans could
/// naturally be serviced in an out-of-order fashion".
///
/// ```sql
/// SELECT SUM(l_extendedprice * l_discount) AS revenue
/// FROM lineitem
/// WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
///   AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
/// ```
pub fn q6(dataset: &Dataset) -> QuerySpec {
    let li = schema_of(dataset, "lineitem");
    let filter = Expr::col(li.col("l_shipdate"))
        .ge(Expr::lit(Value::Date(year_start(1994))))
        .and(Expr::col(li.col("l_shipdate")).lt(Expr::lit(Value::Date(year_start(1995)))))
        .and(Expr::col(li.col("l_discount")).between(0.049f64, 0.071f64))
        .and(Expr::col(li.col("l_quantity")).lt(Expr::lit(24.0f64)));
    QuerySpec {
        name: "tpch-q6".into(),
        tables: vec!["lineitem".into()],
        filters: vec![Some(filter)],
        joins: vec![],
        driver: 0,
        plan_order: vec![0],
        probe_order: None,
        group_by: vec![],
        aggregates: vec![AggSpec::new(
            AggFunc::Sum,
            JoinExpr::Mul(
                Box::new(JoinExpr::col(0, li.col("l_extendedprice"))),
                Box::new(JoinExpr::col(0, li.col("l_discount"))),
            ),
            "revenue",
        )],
    }
}

/// TPC-H Q14 ("promotion effect", miniature variant): lineitem ⨝ part
/// over one month, reporting promo and total revenue (the paper-shaped
/// engine computes the two sums; the percentage is a client-side
/// division).
pub fn q14(dataset: &Dataset) -> QuerySpec {
    let li = schema_of(dataset, "lineitem");
    let part = schema_of(dataset, "part");
    let promo: Vec<Value> = PART_TYPES
        .iter()
        .filter(|t| t.starts_with("PROMO"))
        .map(|t| Value::str(t))
        .collect();
    let revenue = || {
        JoinExpr::Mul(
            Box::new(JoinExpr::col(1, li.col("l_extendedprice"))),
            Box::new(JoinExpr::Sub(
                Box::new(JoinExpr::Lit(Value::Float(1.0))),
                Box::new(JoinExpr::col(1, li.col("l_discount"))),
            )),
        )
    };
    QuerySpec {
        name: "tpch-q14".into(),
        tables: vec!["part".into(), "lineitem".into()],
        filters: vec![
            None,
            Some(
                Expr::col(li.col("l_shipdate"))
                    .ge(Expr::lit(Value::Date(crate::dates::date(1995, 9, 1))))
                    .and(
                        Expr::col(li.col("l_shipdate"))
                            .lt(Expr::lit(Value::Date(crate::dates::date(1995, 10, 1)))),
                    ),
            ),
        ],
        joins: vec![JoinCond::new(
            1,
            li.col("l_partkey"),
            0,
            part.col("p_partkey"),
        )],
        driver: 1,
        plan_order: vec![0, 1],
        probe_order: None,
        group_by: vec![],
        aggregates: vec![
            AggSpec::new(
                AggFunc::Sum,
                JoinExpr::Mul(
                    Box::new(JoinExpr::CaseInList {
                        probe: QualifiedCol::new(0, part.col("p_type")),
                        list: promo,
                        then: Value::Float(1.0),
                        otherwise: Value::Float(0.0),
                    }),
                    Box::new(revenue()),
                ),
                "promo_revenue",
            ),
            AggSpec::new(AggFunc::Sum, revenue(), "total_revenue"),
        ],
    }
}

/// TPC-H Q10 ("returned item reporting", miniature variant grouping by
/// nation instead of individual customers): a four-table chain join over
/// returned items in one quarter.
pub fn q10(dataset: &Dataset) -> QuerySpec {
    let nation = schema_of(dataset, "nation");
    let customer = schema_of(dataset, "customer");
    let orders = schema_of(dataset, "orders");
    let li = schema_of(dataset, "lineitem");
    const N: usize = 0;
    const C: usize = 1;
    const O: usize = 2;
    const L: usize = 3;
    QuerySpec {
        name: "tpch-q10".into(),
        tables: vec![
            "nation".into(),
            "customer".into(),
            "orders".into(),
            "lineitem".into(),
        ],
        filters: vec![
            None,
            None,
            Some(
                Expr::col(orders.col("o_orderdate"))
                    .ge(Expr::lit(Value::Date(crate::dates::date(1993, 10, 1))))
                    .and(
                        Expr::col(orders.col("o_orderdate"))
                            .lt(Expr::lit(Value::Date(crate::dates::date(1994, 1, 1)))),
                    ),
            ),
            Some(Expr::col(li.col("l_returnflag")).eq(Expr::lit("R"))),
        ],
        joins: vec![
            JoinCond::new(L, li.col("l_orderkey"), O, orders.col("o_orderkey")),
            JoinCond::new(O, orders.col("o_custkey"), C, customer.col("c_custkey")),
            JoinCond::new(C, customer.col("c_nationkey"), N, nation.col("n_nationkey")),
        ],
        driver: L,
        plan_order: vec![N, C, O, L],
        probe_order: Some(vec![O, C, N]),
        group_by: vec![QualifiedCol::new(N, nation.col("n_name"))],
        aggregates: vec![AggSpec::new(
            AggFunc::Sum,
            JoinExpr::Mul(
                Box::new(JoinExpr::col(L, li.col("l_extendedprice"))),
                Box::new(JoinExpr::Sub(
                    Box::new(JoinExpr::Lit(Value::Float(1.0))),
                    Box::new(JoinExpr::col(L, li.col("l_discount"))),
                )),
            ),
            "revenue",
        )],
    }
}

fn schema_of(dataset: &Dataset, table: &str) -> Schema {
    let idx = dataset
        .catalog
        .index_of(table)
        .expect("TPC-H table present");
    dataset.catalog.table(idx).schema.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipper_relational::ops::binary;
    use skipper_relational::query::results_approx_eq;
    use skipper_testkit::ops::reference;

    fn small_cfg() -> GenConfig {
        // SF-2 keeps generation fast while exercising multi-segment tables.
        GenConfig::new(42, 2).with_phys_divisor(5_000)
    }

    #[test]
    fn sf100_geometry_matches_paper() {
        let cfg = GenConfig::new(1, 100);
        let geo = geometry(&cfg);
        let seg = |name: &str| geo.iter().find(|t| t.name == name).unwrap().segments;
        assert_eq!(seg("lineitem"), 95);
        assert_eq!(seg("orders"), 22);
        assert_eq!(seg("customer"), 7);
        assert_eq!(seg("supplier"), 1);
        assert_eq!(seg("nation"), 1);
        assert_eq!(seg("region"), 1);
        // Q5 objects: 95+22+7+1+1+1 = 127 (paper: "reads 127 objects").
        assert_eq!(seg("lineitem") + seg("orders") + seg("customer") + 3, 127);
        // Subplans: 95 × 22 × 7 = 14 630 (paper §5.2.4).
        assert_eq!(95u64 * 22 * 7, 14_630);
        // Total dataset ~140 objects (paper: "out of 140 in total").
        let total: u32 = geo.iter().map(|t| t.segments).sum();
        assert!((140..=150).contains(&total), "total = {total}");
    }

    #[test]
    fn sf50_geometry_matches_paper() {
        let cfg = GenConfig::new(1, 50);
        let geo = geometry(&cfg);
        let seg = |name: &str| geo.iter().find(|t| t.name == name).unwrap().segments;
        // Q12 = lineitem + orders ≈ the paper's 57 per-segment switches.
        assert_eq!(seg("lineitem"), 48);
        assert_eq!(seg("orders"), 11);
        // 30 GB cache = 40 % of the dataset (paper: "30GB(40%)").
        let total: u32 = geo.iter().map(|t| t.segments).sum();
        assert_eq!(total, 75);
    }

    #[test]
    fn dataset_generates_with_partitioned_keys() {
        let ds = dataset(&small_cfg());
        let orders_idx = ds.catalog.index_of("orders").unwrap();
        let ok_col = ds.catalog.table(orders_idx).schema.col("o_orderkey");
        let mut expected = 1i64;
        for seg in ds.table_segments(orders_idx) {
            for row in seg.iter() {
                assert_eq!(row.get(ok_col).as_int(), Some(expected));
                expected += 1;
            }
        }
    }

    #[test]
    fn q12_is_valid_and_selective() {
        let ds = dataset(&small_cfg());
        let spec = q12(&ds);
        spec.validate();
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let agg = reference::aggregate(&spec, &slices);
        let out = agg.finish();
        // Both MAIL and SHIP groups appear, with plausible counts.
        assert_eq!(out.len(), 2, "expected MAIL and SHIP groups: {out:?}");
        assert!(agg.rows_seen() > 0);
        // high + low == total joined rows.
        let total: f64 = out
            .iter()
            .flat_map(|(_, vals)| vals.iter())
            .filter_map(|v| v.as_f64())
            .sum();
        assert_eq!(total as u64, agg.rows_seen());
    }

    #[test]
    fn q12_reference_matches_binary() {
        let ds = dataset(&small_cfg());
        let spec = q12(&ds);
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let ref_out = reference::execute(&spec, &slices);
        let (bin, _) = binary::execute_left_deep(&spec, &slices);
        assert!(results_approx_eq(&ref_out, &bin.finish(), 1e-9));
    }

    #[test]
    fn q5_is_valid_and_produces_asia_revenue() {
        let ds = dataset(&small_cfg());
        let spec = q5(&ds);
        spec.validate();
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let agg = reference::aggregate(&spec, &slices);
        let out = agg.finish();
        assert!(!out.is_empty(), "Q5 must produce revenue rows");
        // Group keys are ASIA nations only.
        let asia: Vec<&str> = NATIONS
            .iter()
            .filter(|(_, r)| *r == 2)
            .map(|(n, _)| *n)
            .collect();
        for (key, vals) in &out {
            let name = key.get(0).as_str().unwrap().to_string();
            assert!(asia.contains(&name.as_str()), "{name} is not in ASIA");
            assert!(vals[0].as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn q5_reference_matches_binary() {
        let ds = dataset(&small_cfg());
        let spec = q5(&ds);
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let ref_out = reference::execute(&spec, &slices);
        let (bin, _) = binary::execute_left_deep(&spec, &slices);
        assert!(results_approx_eq(&ref_out, &bin.finish(), 1e-9));
    }

    #[test]
    fn q3_reference_matches_binary() {
        let ds = dataset(&small_cfg());
        let spec = q3(&ds);
        spec.validate();
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let ref_out = reference::execute(&spec, &slices);
        let (bin, _) = binary::execute_left_deep(&spec, &slices);
        assert!(results_approx_eq(&ref_out, &bin.finish(), 1e-9));
        assert!(!ref_out.is_empty());
    }

    fn agree(spec: &QuerySpec, ds: &Dataset) {
        spec.validate();
        let tables = ds.materialize_query_tables(spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let ref_out = reference::execute(spec, &slices);
        let (bin, _) = binary::execute_left_deep(spec, &slices);
        assert!(
            results_approx_eq(&ref_out, &bin.finish(), 1e-9),
            "{} diverged between executors",
            spec.name
        );
        assert!(!ref_out.is_empty(), "{} returned nothing", spec.name);
    }

    #[test]
    fn q1_groups_by_flag_and_status() {
        let ds = dataset(&small_cfg());
        let spec = q1(&ds);
        agree(&spec, &ds);
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let out = reference::execute(&spec, &slices);
        // Groups: (A,F), (N,F), (N,O), (R,F) — shipped-late lines are
        // never A/R, so at most 4 groups appear.
        assert!(out.len() <= 4 && out.len() >= 3, "groups: {out:?}");
        for (key, vals) in &out {
            let flag = key.get(0).as_str().unwrap().to_string();
            let status = key.get(1).as_str().unwrap().to_string();
            assert!(["A", "N", "R"].contains(&flag.as_str()));
            assert!(["O", "F"].contains(&status.as_str()));
            // count_order is the last aggregate and must be positive.
            assert!(vals[7].as_int().unwrap() > 0);
        }
    }

    #[test]
    fn q6_revenue_positive_and_engines_agree() {
        let ds = dataset(&small_cfg());
        let spec = q6(&ds);
        agree(&spec, &ds);
    }

    #[test]
    fn q14_promo_revenue_is_a_fraction_of_total() {
        let ds = dataset(&small_cfg());
        let spec = q14(&ds);
        agree(&spec, &ds);
        let tables = ds.materialize_query_tables(&spec);
        let slices: Vec<&[skipper_relational::Segment]> =
            tables.iter().map(|t| t.as_slice()).collect();
        let out = reference::execute(&spec, &slices);
        let promo = out[0].1[0].as_f64().unwrap();
        let total = out[0].1[1].as_f64().unwrap();
        assert!(
            promo >= 0.0 && promo <= total,
            "promo {promo} total {total}"
        );
        // Two of ten part types are PROMO: expect roughly a fifth.
        let share = promo / total;
        assert!((0.02..0.6).contains(&share), "promo share {share}");
    }

    #[test]
    fn q10_returns_only_r_flag_revenue() {
        let ds = dataset(&small_cfg());
        let spec = q10(&ds);
        agree(&spec, &ds);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = dataset(&small_cfg());
        let b = dataset(&small_cfg());
        let li = a.catalog.index_of("lineitem").unwrap();
        assert_eq!(a.segments[li][0], b.segments[li][0]);
    }
}
