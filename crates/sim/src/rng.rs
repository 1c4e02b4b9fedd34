//! Deterministic RNG stream splitting.
//!
//! Every generator in the repository (table data, workload arrival jitter,
//! property-test corpora) derives its RNG from a root seed plus a textual
//! stream label, so adding a new consumer never perturbs existing streams.
//! The mixing function is SplitMix64, the standard seed expander.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One round of SplitMix64: a high-quality 64-bit mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from `(root, label)`.
///
/// Labels are hashed with FNV-1a and folded through SplitMix64 so that
/// textually close labels ("client-1", "client-2") yield uncorrelated
/// streams.
pub fn derive_seed(root: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3); // FNV prime
    }
    let mut state = root ^ h;
    splitmix64(&mut state)
}

/// Builds a deterministic [`StdRng`] for `(root, label)`.
pub fn stream_rng(root: u64, label: &str) -> StdRng {
    StdRng::seed_from_u64(derive_seed(root, label))
}

/// One uniform draw in `[0, 1)` from a SplitMix stream, using the top
/// 53 bits so the mantissa is fully random (the shared primitive behind
/// arrival-gap sampling and the protection plane's backoff jitter).
#[inline]
pub fn uniform01(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = stream_rng(7, "lineitem");
        let mut b = stream_rng(7, "lineitem");
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_differ() {
        assert_ne!(derive_seed(7, "client-1"), derive_seed(7, "client-2"));
        assert_ne!(derive_seed(7, "a"), derive_seed(8, "a"));
    }

    #[test]
    fn uniform01_stays_in_unit_interval() {
        let mut s = derive_seed(42, "jitter");
        for _ in 0..1000 {
            let u = uniform01(&mut s);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values from the canonical SplitMix64 implementation
        // seeded with 0: first output is 0xE220A8397B1DCDAF.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }
}
