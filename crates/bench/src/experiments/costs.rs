//! Table 1, Figure 2 and Figure 3: storage-tiering economics.

use skipper_cost::model::{CsdTiering, StorageConfig, REFERENCE_DB_GB};
use skipper_cost::tiers::{DevicePricing, TierFractions, CSD_PRICE_POINTS};

use crate::report::{factor, Table};

/// Table 1: acquisition cost in $/GB and data fraction per device class.
pub fn table1() -> Table {
    let p = DevicePricing::default();
    let mut t = Table::new(
        "Table 1: acquisition cost ($/GB) and data placement per tiering strategy",
        &[
            "strategy",
            "SSD",
            "15k-HDD",
            "7.2k-HDD",
            "tape",
            "$/GB blended",
        ],
    );
    t.push_row(vec![
        "cost $/GB".into(),
        format!("{:.1}", p.ssd),
        format!("{:.1}", p.hdd_15k),
        format!("{:.1}", p.hdd_7k2),
        format!("{:.1}", p.tape),
        "-".into(),
    ]);
    for (name, f) in [
        ("2-tier", TierFractions::TWO_TIER),
        ("3-tier", TierFractions::THREE_TIER),
        ("4-tier", TierFractions::FOUR_TIER),
    ] {
        t.push_row(vec![
            name.into(),
            format!("{:.0}%", f.ssd * 100.0),
            format!("{:.0}%", f.hdd_15k * 100.0),
            format!("{:.1}%", f.hdd_7k2 * 100.0),
            format!("{:.1}%", f.tape * 100.0),
            format!("{:.4}", f.dollars_per_gb(&p)),
        ]);
    }
    t
}

/// Figure 2 rows: `(label, cost in k$ for the 100 TB database)`.
pub fn fig2_rows() -> Vec<(&'static str, f64)> {
    let p = DevicePricing::default();
    StorageConfig::ALL
        .iter()
        .map(|&c| (c.label(), c.cost(&p, REFERENCE_DB_GB) / 1_000.0))
        .collect()
}

/// Figure 2: cost of a 100 TB database under each storage configuration.
pub fn fig2() -> Table {
    let mut t = Table::new(
        "Figure 2: cost of a 100 TB database (k$)",
        &["configuration", "cost (k$)"],
    );
    for (label, k) in fig2_rows() {
        t.push_row(vec![label.into(), format!("{k:.2}")]);
    }
    t
}

/// Figure 3 rows: `(tiering, csd $/GB, traditional k$, csd k$, savings×)`.
pub fn fig3_rows() -> Vec<(&'static str, f64, f64, f64, f64)> {
    let p = DevicePricing::default();
    let mut rows = Vec::new();
    for tiering in [CsdTiering::ThreeTier, CsdTiering::FourTier] {
        for &price in &CSD_PRICE_POINTS {
            let trad = tiering.traditional_cost(&p, REFERENCE_DB_GB) / 1_000.0;
            let csd = tiering.csd_cost(&p, price, REFERENCE_DB_GB) / 1_000.0;
            let savings = tiering.savings_factor(&p, price, REFERENCE_DB_GB);
            rows.push((tiering.label(), price, trad, csd, savings));
        }
    }
    rows
}

/// Figure 3: savings from replacing capacity+archival tiers with a CSD.
pub fn fig3() -> Table {
    let mut t = Table::new(
        "Figure 3: CSD-based cold storage tier vs traditional hierarchy (100 TB, k$)",
        &[
            "hierarchy",
            "CSD $/GB",
            "traditional",
            "with CST",
            "savings",
        ],
    );
    for (label, price, trad, csd, save) in fig3_rows() {
        t.push_row(vec![
            label.into(),
            format!("{price:.2}"),
            format!("{trad:.1}"),
            format!("{csd:.1}"),
            format!("{}x", factor(save)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_reproduces_paper_bars() {
        let rows = fig2_rows();
        let get = |label: &str| rows.iter().find(|(l, _)| *l == label).unwrap().1;
        assert!((get("All-SSD") - 7680.0).abs() < 0.01);
        assert!((get("All-SCSI") - 1382.4).abs() < 0.01);
        assert!((get("All-SATA") - 460.8).abs() < 0.01);
        assert!((get("All-tape") - 20.48).abs() < 0.01);
        assert!((get("2-Tier") - 783.36).abs() < 0.01);
        assert!((get("3-Tier") - 367.872).abs() < 0.01);
        assert!((get("4-Tier") - 493.824).abs() < 0.01);
    }

    #[test]
    fn fig3_reproduces_paper_factors() {
        let rows = fig3_rows();
        let get = |label: &str, price: f64| {
            rows.iter()
                .find(|(l, p, ..)| *l == label && (*p - price).abs() < 1e-9)
                .unwrap()
                .4
        };
        assert!((get("3-Tier", 0.1) - 1.70).abs() < 0.01);
        assert!((get("4-Tier", 0.1) - 1.44).abs() < 0.01);
        assert!((get("3-Tier", 0.2) - 1.63).abs() < 0.01);
        assert!((get("4-Tier", 0.2) - 1.40).abs() < 0.01);
        assert!((get("3-Tier", 1.0) - 1.24).abs() < 0.01);
        assert!((get("4-Tier", 1.0) - 1.17).abs() < 0.01);
    }

    #[test]
    fn tables_render() {
        assert!(table1().to_string().contains("4-tier"));
        assert!(fig2().to_string().contains("All-tape"));
        assert!(fig3().to_string().contains("with CST"));
    }
}
