//! Device pricing and tier fractions (the paper's Table 1).

/// Acquisition cost per GB for each device class, as reported by the
/// "Tiered Storage Takes Center Stage" analyst study the paper cites.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DevicePricing {
    /// SSD (performance tier): $75/GB.
    pub ssd: f64,
    /// 15k-RPM SCSI HDD (performance tier): $13.50/GB.
    pub hdd_15k: f64,
    /// 7,200-RPM SATA HDD (capacity tier): $4.50/GB.
    pub hdd_7k2: f64,
    /// Tape (archival tier): $0.20/GB.
    pub tape: f64,
}

impl Default for DevicePricing {
    fn default() -> Self {
        DevicePricing {
            ssd: 75.0,
            hdd_15k: 13.5,
            hdd_7k2: 4.5,
            tape: 0.2,
        }
    }
}

/// Fraction of the database resident on each device class for a given
/// tiering strategy (each row of Table 1; fractions sum to 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierFractions {
    /// On SSD.
    pub ssd: f64,
    /// On 15k-RPM HDD.
    pub hdd_15k: f64,
    /// On 7.2k-RPM SATA HDD.
    pub hdd_7k2: f64,
    /// On tape.
    pub tape: f64,
}

impl TierFractions {
    /// The two-tier strategy: 35 % performance HDD, 65 % capacity HDD.
    pub const TWO_TIER: TierFractions = TierFractions {
        ssd: 0.0,
        hdd_15k: 0.35,
        hdd_7k2: 0.65,
        tape: 0.0,
    };
    /// The three-tier strategy: 15 % / 32.5 % / 52.5 %.
    pub const THREE_TIER: TierFractions = TierFractions {
        ssd: 0.0,
        hdd_15k: 0.15,
        hdd_7k2: 0.325,
        tape: 0.525,
    };
    /// The four-tier strategy: 2 % SSD + 13 % / 32.5 % / 52.5 %.
    pub const FOUR_TIER: TierFractions = TierFractions {
        ssd: 0.02,
        hdd_15k: 0.13,
        hdd_7k2: 0.325,
        tape: 0.525,
    };

    /// A single-device strategy holding everything on one class.
    pub(crate) fn all_on(device: AllOn) -> TierFractions {
        let mut f = TierFractions {
            ssd: 0.0,
            hdd_15k: 0.0,
            hdd_7k2: 0.0,
            tape: 0.0,
        };
        match device {
            AllOn::Ssd => f.ssd = 1.0,
            AllOn::Hdd15k => f.hdd_15k = 1.0,
            AllOn::Hdd7k2 => f.hdd_7k2 = 1.0,
            AllOn::Tape => f.tape = 1.0,
        }
        f
    }

    /// Cost in $/GB of a database spread per these fractions.
    pub fn dollars_per_gb(&self, p: &DevicePricing) -> f64 {
        self.ssd * p.ssd + self.hdd_15k * p.hdd_15k + self.hdd_7k2 * p.hdd_7k2 + self.tape * p.tape
    }

    /// Sum of fractions (should be 1 for complete strategies).
    #[cfg(test)]
    pub(crate) fn total(&self) -> f64 {
        self.ssd + self.hdd_15k + self.hdd_7k2 + self.tape
    }
}

/// Selector for single-device strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AllOn {
    /// Everything on SSD.
    Ssd,
    /// Everything on 15k-RPM HDD.
    Hdd15k,
    /// Everything on SATA HDD.
    Hdd7k2,
    /// Everything on tape.
    Tape,
}

/// The three CSD $/GB price points evaluated in Figure 3: hypothetical
/// worst case ($1), tape-parity ($0.20), and ArcticBlue pricing ($0.10).
pub const CSD_PRICE_POINTS: [f64; 3] = [1.0, 0.2, 0.1];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        for f in [
            TierFractions::TWO_TIER,
            TierFractions::THREE_TIER,
            TierFractions::FOUR_TIER,
            TierFractions::all_on(AllOn::Tape),
        ] {
            assert!((f.total() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn table1_dollars_per_gb() {
        let p = DevicePricing::default();
        assert!((TierFractions::TWO_TIER.dollars_per_gb(&p) - 7.65).abs() < 1e-9);
        assert!((TierFractions::THREE_TIER.dollars_per_gb(&p) - 3.5925).abs() < 1e-9);
        assert!((TierFractions::FOUR_TIER.dollars_per_gb(&p) - 4.8225).abs() < 1e-9);
    }

    #[test]
    fn all_on_selects_single_device() {
        let p = DevicePricing::default();
        assert_eq!(TierFractions::all_on(AllOn::Ssd).dollars_per_gb(&p), 75.0);
        assert_eq!(TierFractions::all_on(AllOn::Tape).dollars_per_gb(&p), 0.2);
    }
}
