//! Generation parameters.

/// Parameters shared by all dataset generators.
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Root seed; all per-table, per-segment RNG streams derive from it.
    pub seed: u64,
    /// Scale factor (TPC-H semantics; the other benchmarks scale their
    /// paper-reported dataset sizes proportionally to their defaults).
    pub sf: u32,
    /// Physical miniaturization: each segment carries
    /// `logical_rows / phys_divisor` real rows (at least
    /// `GenConfig::MIN_ROWS_PER_SEGMENT`). Tiny dimension tables
    /// (nation, region) are generated in full.
    pub phys_divisor: u64,
}

impl GenConfig {
    /// Lower bound on physical rows per segment so joins stay non-trivial
    /// even under aggressive miniaturization.
    pub(crate) const MIN_ROWS_PER_SEGMENT: u64 = 40;

    /// A new config with the paper's default miniaturization.
    pub fn new(seed: u64, sf: u32) -> Self {
        GenConfig {
            seed,
            sf,
            phys_divisor: 5_000,
        }
    }

    /// Overrides the miniaturization divisor (larger = fewer physical
    /// rows = faster experiments, coarser join statistics).
    pub fn with_phys_divisor(mut self, d: u64) -> Self {
        assert!(d > 0, "phys_divisor must be positive");
        self.phys_divisor = d;
        self
    }

    /// Physical rows per segment for a table with `logical_rows` per
    /// segment.
    pub(crate) fn phys_rows(&self, logical_rows: u64) -> u64 {
        (logical_rows / self.phys_divisor)
            .max(Self::MIN_ROWS_PER_SEGMENT)
            .min(logical_rows.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_rows_scales_and_clamps() {
        let cfg = GenConfig::new(1, 50);
        assert_eq!(cfg.phys_rows(6_500_000), 1_300);
        // Clamped up to the minimum...
        assert_eq!(cfg.phys_rows(10_000), GenConfig::MIN_ROWS_PER_SEGMENT);
        // ...but never beyond the logical count (tiny dims are full-size).
        assert_eq!(cfg.phys_rows(25), 25);
        assert_eq!(cfg.phys_rows(5), 5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_divisor_rejected() {
        let _ = GenConfig::new(1, 1).with_phys_divisor(0);
    }
}
