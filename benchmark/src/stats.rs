//! Median and quartile helpers for the timed repeats.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spread `agree.sh` prints is the
//! spread an outside checker computing it in Python would see.

/// First quartile, median and third quartile of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples summarised.
    pub samples: usize,
}

impl Quartiles {
    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0, which only constant-zero counters produce).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `values` (mean of the two middle samples for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN sample: every caller times at
/// least one repeat, and a NaN timing is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Quartiles of `values` by the exclusive method. A single sample is
/// its own three quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = sorted.len();
    let cut = |i: usize| -> f64 {
        if n == 1 {
            return sorted[0];
        }
        // Position i·(n+1)/4 on a 1-based scale, clamped to the data.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: median(&sorted),
        q3: cut(3),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(q.samples, 10);
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        let q = quartiles(&nine);
        assert_eq!((q.q1, q.median, q.q3), (2.5, 5.0, 7.5));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let q = quartiles(&[9.0, 10.0, 11.0]);
        assert!((q.spread() - 0.2).abs() < 1e-12);
        assert_eq!(quartiles(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
