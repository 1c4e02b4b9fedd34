//! Configuration-level cost model (Figures 2 and 3).

use crate::tiers::{AllOn, DevicePricing, TierFractions};

/// Gigabytes in the paper's reference database (100 TB).
pub const REFERENCE_DB_GB: f64 = 102_400.0;

/// The seven storage configurations of Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageConfig {
    /// Everything on SSD.
    AllSsd,
    /// Everything on 15k-RPM SCSI.
    AllScsi,
    /// Everything on SATA.
    AllSata,
    /// Everything on tape.
    AllTape,
    /// 35/65 performance/capacity HDD split.
    TwoTier,
    /// 15/32.5/52.5 with a tape archival tier.
    ThreeTier,
    /// 2 % SSD + three-tier.
    FourTier,
}

impl StorageConfig {
    /// All configurations in Figure 2's x-axis order.
    pub const ALL: [StorageConfig; 7] = [
        StorageConfig::AllSsd,
        StorageConfig::AllScsi,
        StorageConfig::AllSata,
        StorageConfig::AllTape,
        StorageConfig::TwoTier,
        StorageConfig::ThreeTier,
        StorageConfig::FourTier,
    ];

    /// Figure 2 axis label.
    pub fn label(self) -> &'static str {
        match self {
            StorageConfig::AllSsd => "All-SSD",
            StorageConfig::AllScsi => "All-SCSI",
            StorageConfig::AllSata => "All-SATA",
            StorageConfig::AllTape => "All-tape",
            StorageConfig::TwoTier => "2-Tier",
            StorageConfig::ThreeTier => "3-Tier",
            StorageConfig::FourTier => "4-Tier",
        }
    }

    /// The tier fractions of this configuration.
    pub(crate) fn fractions(self) -> TierFractions {
        match self {
            StorageConfig::AllSsd => TierFractions::all_on(AllOn::Ssd),
            StorageConfig::AllScsi => TierFractions::all_on(AllOn::Hdd15k),
            StorageConfig::AllSata => TierFractions::all_on(AllOn::Hdd7k2),
            StorageConfig::AllTape => TierFractions::all_on(AllOn::Tape),
            StorageConfig::TwoTier => TierFractions::TWO_TIER,
            StorageConfig::ThreeTier => TierFractions::THREE_TIER,
            StorageConfig::FourTier => TierFractions::FOUR_TIER,
        }
    }

    /// Acquisition cost in dollars for a database of `db_gb` gigabytes.
    pub fn cost(self, pricing: &DevicePricing, db_gb: f64) -> f64 {
        self.fractions().dollars_per_gb(pricing) * db_gb
    }
}

/// The Figure 3 comparison: a traditional 3-/4-tier hierarchy vs the same
/// hierarchy with capacity + archival collapsed into a CSD-based cold
/// storage tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsdTiering {
    /// 3-tier baseline: 15 % 15k-HDD performance + 85 % CST.
    ThreeTier,
    /// 4-tier baseline: 2 % SSD + 13 % 15k-HDD + 85 % CST.
    FourTier,
}

impl CsdTiering {
    /// Cost of the *traditional* hierarchy this variant replaces.
    pub fn traditional_cost(self, pricing: &DevicePricing, db_gb: f64) -> f64 {
        match self {
            CsdTiering::ThreeTier => StorageConfig::ThreeTier.cost(pricing, db_gb),
            CsdTiering::FourTier => StorageConfig::FourTier.cost(pricing, db_gb),
        }
    }

    /// Cost with the capacity and archival tiers replaced by a CSD at
    /// `csd_price` $/GB. The hot fractions keep their original devices;
    /// the 32.5 % + 52.5 % cold data moves to the CSD.
    pub fn csd_cost(self, pricing: &DevicePricing, csd_price: f64, db_gb: f64) -> f64 {
        let cold = 0.325 + 0.525;
        let hot = match self {
            CsdTiering::ThreeTier => 0.15 * pricing.hdd_15k,
            CsdTiering::FourTier => 0.02 * pricing.ssd + 0.13 * pricing.hdd_15k,
        };
        (hot + cold * csd_price) * db_gb
    }

    /// Cost-reduction factor (traditional / CSD).
    pub fn savings_factor(self, pricing: &DevicePricing, csd_price: f64, db_gb: f64) -> f64 {
        self.traditional_cost(pricing, db_gb) / self.csd_cost(pricing, csd_price, db_gb)
    }

    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            CsdTiering::ThreeTier => "3-Tier",
            CsdTiering::FourTier => "4-Tier",
        }
    }

    /// The CSD $/GB price at which the cold storage tier stops saving
    /// money: the blended cost of the capacity + archival data it
    /// replaces, `(0.325·hdd + 0.525·tape) / 0.85`. Independent of the
    /// hierarchy (both variants keep their hot tiers unchanged).
    pub fn break_even_price(pricing: &DevicePricing) -> f64 {
        (0.325 * pricing.hdd_7k2 + 0.525 * pricing.tape) / 0.85
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DevicePricing {
        DevicePricing::default()
    }

    /// Figure 2's bar heights in thousands of dollars for the 100 TB DB.
    #[test]
    fn figure2_costs_match_paper_exactly() {
        let k = |c: StorageConfig| c.cost(&p(), REFERENCE_DB_GB) / 1000.0;
        assert!((k(StorageConfig::AllSsd) - 7_680.0).abs() < 1e-6);
        assert!((k(StorageConfig::AllScsi) - 1_382.4).abs() < 1e-6);
        assert!((k(StorageConfig::AllSata) - 460.8).abs() < 1e-6);
        assert!((k(StorageConfig::AllTape) - 20.48).abs() < 1e-6);
        assert!((k(StorageConfig::TwoTier) - 783.36).abs() < 1e-6);
        assert!((k(StorageConfig::ThreeTier) - 367.872).abs() < 1e-6);
        assert!((k(StorageConfig::FourTier) - 493.824).abs() < 1e-6);
    }

    /// §3.1: "At $0.1/GB ... reduces cost by a factor of 1.70×/1.44× for
    /// three/four-tier installations. At $0.2/GB ... 1.63×/1.40×. Even in
    /// the worst case ($1/GB) ... 1.24×/1.17×."
    #[test]
    fn figure3_savings_factors_match_paper() {
        let cases = [
            (CsdTiering::ThreeTier, 0.1, 1.70),
            (CsdTiering::FourTier, 0.1, 1.44),
            (CsdTiering::ThreeTier, 0.2, 1.63),
            (CsdTiering::FourTier, 0.2, 1.40),
            (CsdTiering::ThreeTier, 1.0, 1.24),
            (CsdTiering::FourTier, 1.0, 1.17),
        ];
        for (tiering, price, expected) in cases {
            let got = tiering.savings_factor(&p(), price, REFERENCE_DB_GB);
            assert!(
                (got - expected).abs() < 0.01,
                "{tiering:?} @ ${price}: got {got:.3}, paper says {expected}"
            );
        }
    }

    #[test]
    fn csd_always_cheaper_when_priced_below_sata() {
        for price in [0.1, 0.2, 1.0, 4.0] {
            for tiering in [CsdTiering::ThreeTier, CsdTiering::FourTier] {
                // CSD replaces 4.5 $/GB SATA + 0.2 $/GB tape; any price
                // below the blended cold cost keeps savings > 1.
                let blended_cold = (0.325 * 4.5 + 0.525 * 0.2) / 0.85;
                let factor = tiering.savings_factor(&p(), price, 1000.0);
                if price < blended_cold {
                    assert!(factor > 1.0, "{tiering:?} @ {price} → {factor}");
                }
            }
        }
    }

    #[test]
    fn break_even_price_is_the_blended_cold_cost() {
        let price = CsdTiering::break_even_price(&p());
        // (0.325·4.5 + 0.525·0.2) / 0.85 ≈ $1.844/GB.
        assert!((price - 1.8441).abs() < 1e-3);
        // Exactly at break-even both hierarchies cost the same as the
        // traditional ones...
        for tiering in [CsdTiering::ThreeTier, CsdTiering::FourTier] {
            let f = tiering.savings_factor(&p(), price, 1000.0);
            assert!((f - 1.0).abs() < 1e-9, "{tiering:?}: {f}");
            // ...and a cent below/above flips the sign.
            assert!(tiering.savings_factor(&p(), price - 0.01, 1000.0) > 1.0);
            assert!(tiering.savings_factor(&p(), price + 0.01, 1000.0) < 1.0);
        }
    }

    #[test]
    fn labels_cover_all_configs() {
        for c in StorageConfig::ALL {
            assert!(!c.label().is_empty());
        }
    }

    #[test]
    fn savings_scale_linearly_with_db_size() {
        let t = CsdTiering::ThreeTier;
        let s1 = t.traditional_cost(&p(), 1000.0) - t.csd_cost(&p(), 0.1, 1000.0);
        let s10 = t.traditional_cost(&p(), 10_000.0) - t.csd_cost(&p(), 0.1, 10_000.0);
        assert!((s10 / s1 - 10.0).abs() < 1e-9);
    }
}
