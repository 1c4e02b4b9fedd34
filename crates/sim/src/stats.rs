//! Scheduling metrics and small statistics helpers.
//!
//! The fairness/efficiency comparison in §5.2.5 of the paper uses the
//! *stretch* of a query — observed execution time divided by its ideal
//! (single-tenant) execution time — aggregated over a workload with the
//! L2-norm, plus the maximum stretch. Both are provided here, together
//! with the streaming quantile sketch behind the latency summaries.

use crate::time::SimDuration;

/// Stretch of one query: observed time / ideal (single-client) time.
///
/// Returns 1.0 when the ideal time is zero (degenerate queries cannot be
/// slowed down).
pub fn stretch(observed: SimDuration, ideal: SimDuration) -> f64 {
    if ideal.is_zero() {
        1.0
    } else {
        observed.as_secs_f64() / ideal.as_secs_f64()
    }
}

/// The L2-norm of a set of stretches: `sqrt(Σ sᵢ²)`.
///
/// This is the metric of Bansal & Pruhs ("Server Scheduling in the Lp
/// Norm") adopted by the paper: it penalizes outliers harder than the
/// average does, so a scheduler that starves one tenant scores badly even
/// if it is efficient overall.
pub fn l2_norm(stretches: &[f64]) -> f64 {
    stretches.iter().map(|s| s * s).sum::<f64>().sqrt()
}

/// The maximum stretch across a workload (worst-served query).
pub fn max_stretch(stretches: &[f64]) -> f64 {
    stretches.iter().copied().fold(0.0, f64::max)
}

/// One entry of the Greenwald–Khanna summary: a stored value `v`, the
/// gap `g` between this entry's minimum possible rank and the previous
/// entry's, and the uncertainty `delta` of the entry's own rank
/// (`r_max = r_min + delta`).
#[derive(Clone, Copy, Debug)]
struct GkEntry {
    v: f64,
    g: u64,
    delta: u64,
}

/// A streaming quantile sketch: the Greenwald–Khanna ε-approximate
/// summary with a fixed invariant (`g + delta ≤ ⌊2εn⌋` for every
/// stored entry).
///
/// `quantile(φ)` returns a value whose true rank is within `ε·n` of
/// `⌈φ·n⌉` — a *deterministic* guarantee, not probabilistic, so the
/// latency-summary tests can pin sketch output against exact sorted
/// quantiles by rank. Memory is O((1/ε)·log(εn)) entries worst case
/// (independent of the per-observation record volume): at the default
/// ε = 5·10⁻⁴ a million observations keep a few thousand entries, and
/// below `n ≈ 1/(2ε)` the sketch never merges — small runs are exact.
/// Inserts are O(log entries) (binary search + `Vec` insert) with an
/// amortized compaction pass every ⌊1/(2ε)⌋ observations.
///
/// The sketch is insertion-order deterministic: the same observation
/// sequence always produces the same summary, so byte-equal
/// `RunResult` comparisons extend over sketch-derived sections.
#[derive(Clone, Debug)]
pub struct QuantileSketch {
    epsilon: f64,
    n: u64,
    entries: Vec<GkEntry>,
    /// Observations between compaction passes: ⌊1/(2ε)⌋.
    compact_every: u64,
    since_compact: u64,
}

impl QuantileSketch {
    /// Default rank-error bound of the harness's latency summaries:
    /// rank error ≤ 0.05% of n — tight enough to resolve p999 on
    /// million-observation runs.
    pub const DEFAULT_EPSILON: f64 = 5e-4;

    /// An empty sketch with the given rank-error bound `0 < ε < 0.5`.
    pub(crate) fn new(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon < 0.5,
            "QuantileSketch needs 0 < epsilon < 0.5 (got {epsilon})"
        );
        QuantileSketch {
            epsilon,
            n: 0,
            entries: Vec::new(),
            compact_every: ((1.0 / (2.0 * epsilon)).floor() as u64).max(1),
            since_compact: 0,
        }
    }

    /// An empty sketch at [`QuantileSketch::DEFAULT_EPSILON`].
    pub fn default_epsilon() -> Self {
        Self::new(Self::DEFAULT_EPSILON)
    }

    /// Observations pushed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Stored summary entries (the memory gauge the bounded-memory
    /// tests assert on).
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.entries.len()
    }

    /// Adds one observation. Non-finite values are ignored (a NaN
    /// would poison every subsequent ordering decision).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let band = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        // First entry past x, i.e. the insertion point keeping the
        // summary sorted (ties insert after equal values).
        let idx = self.entries.partition_point(|e| e.v <= x);
        let delta = if idx == 0 || idx == self.entries.len() {
            0 // new minimum or maximum: rank exactly known
        } else {
            band.saturating_sub(1)
        };
        self.entries.insert(idx, GkEntry { v: x, g: 1, delta });
        self.n += 1;
        self.since_compact += 1;
        if self.since_compact >= self.compact_every {
            self.compact();
            self.since_compact = 0;
        }
    }

    /// Merges adjacent entries whose combined rank band still fits the
    /// invariant `g + delta ≤ ⌊2εn⌋`, scanning right-to-left. The
    /// first entry is never absorbed, so the minimum stays exact.
    fn compact(&mut self) {
        let band = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        if band <= 1 || self.entries.len() < 3 {
            return;
        }
        let mut i = self.entries.len() - 1;
        while i >= 2 {
            let (a, b) = (self.entries[i - 1], self.entries[i]);
            if a.g + b.g + b.delta <= band {
                self.entries[i].g = a.g + b.g;
                self.entries.remove(i - 1);
            }
            i -= 1;
        }
    }

    /// The ε-approximate φ-quantile (`None` when empty): a stored
    /// value whose true rank is within `⌈ε·n⌉` of `⌈φ·n⌉`.
    pub fn quantile(&self, phi: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let rank = ((phi * self.n as f64).ceil() as u64).clamp(1, self.n);
        // Query slack is half the invariant band ⌊2εn⌋ (≤ ⌈εn⌉), which
        // is zero while n < 1/(2ε) — small runs answer exactly.
        let band = (2.0 * self.epsilon * self.n as f64).floor() as u64;
        let limit = rank + band.div_ceil(2);
        let mut r_min = 0u64;
        for (i, e) in self.entries.iter().enumerate() {
            r_min += e.g;
            let next = self.entries.get(i + 1);
            let next_r_max = match next {
                Some(nx) => r_min + nx.g + nx.delta,
                None => return Some(e.v), // maximum: rank exact
            };
            if next_r_max > limit {
                return Some(e.v);
            }
        }
        self.entries.last().map(|e| e.v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_basics() {
        let obs = SimDuration::from_secs(30);
        let ideal = SimDuration::from_secs(10);
        assert_eq!(stretch(obs, ideal), 3.0);
        assert_eq!(stretch(obs, SimDuration::ZERO), 1.0);
    }

    #[test]
    fn l2_norm_matches_hand_computation() {
        // sqrt(3² + 4²) = 5
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn l2_norm_penalizes_outliers() {
        // Same sum: {2,2,2,2} vs {5,1,1,1}. The skewed one has higher norm.
        let fair = l2_norm(&[2.0, 2.0, 2.0, 2.0]);
        let skewed = l2_norm(&[5.0, 1.0, 1.0, 1.0]);
        assert!(skewed > fair);
    }

    #[test]
    fn max_stretch_finds_worst() {
        assert_eq!(max_stretch(&[1.5, 9.0, 2.0]), 9.0);
        assert_eq!(max_stretch(&[]), 0.0);
    }

    /// Exact rank of `x` in `sorted` as the range [lo, hi] (1-based),
    /// accounting for duplicates.
    fn rank_range(sorted: &[f64], x: f64) -> (u64, u64) {
        let lo = sorted.partition_point(|&v| v < x) as u64 + 1;
        let hi = sorted.partition_point(|&v| v <= x) as u64;
        (lo, hi.max(lo))
    }

    #[test]
    fn sketch_small_runs_are_exact() {
        let mut sk = QuantileSketch::new(0.01);
        for x in [5.0, 1.0, 3.0, 2.0, 4.0] {
            sk.push(x);
        }
        assert_eq!(sk.count(), 5);
        assert_eq!(sk.quantile(0.0), Some(1.0));
        assert_eq!(sk.quantile(0.5), Some(3.0));
        assert_eq!(sk.quantile(1.0), Some(5.0));
        assert_eq!(QuantileSketch::new(0.01).quantile(0.5), None);
    }

    #[test]
    fn sketch_rank_error_within_epsilon_on_adversarial_orders() {
        // SplitMix-style scramble so the test is deterministic without
        // an RNG dependency; also check sorted and reverse-sorted
        // feeds, which stress the compaction differently.
        let n = 20_000u64;
        let eps = 0.005;
        let orders: Vec<Vec<f64>> = vec![
            (0..n).map(|i| i as f64).collect(),
            (0..n).rev().map(|i| i as f64).collect(),
            (0..n)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as f64)
                .collect(),
        ];
        for xs in orders {
            let mut sk = QuantileSketch::new(eps);
            for &x in &xs {
                sk.push(x);
            }
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            for phi in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
                let got = sk.quantile(phi).unwrap();
                let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
                let (lo, hi) = rank_range(&sorted, got);
                let tolerance = (eps * n as f64).ceil() as u64;
                assert!(
                    lo <= target + tolerance && hi + tolerance >= target,
                    "phi={phi}: value {got} has rank [{lo},{hi}], \
                     target {target} ± {tolerance}"
                );
            }
        }
    }

    #[test]
    fn sketch_memory_stays_sublinear() {
        let mut sk = QuantileSketch::new(0.005);
        for i in 0..200_000u64 {
            sk.push((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64);
        }
        // GK at ε=0.005 keeps O((1/ε)·log(εn)) ≈ a few thousand
        // entries; the point is it is nowhere near n.
        assert!(
            sk.entries() < 10_000,
            "sketch grew to {} entries on 200k observations",
            sk.entries()
        );
    }

    #[test]
    fn sketch_ignores_non_finite() {
        let mut sk = QuantileSketch::new(0.01);
        sk.push(f64::NAN);
        sk.push(f64::INFINITY);
        sk.push(2.0);
        assert_eq!(sk.count(), 1);
        assert_eq!(sk.quantile(0.5), Some(2.0));
    }
}
