//! xoshiro256++: the workspace's general-purpose generator.
//!
//! Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
//! generators", ACM TOMS 2021; public-domain reference code at
//! <https://prng.di.unimi.it/xoshiro256plusplus.c>.

use crate::{Rng, SplitMix64};

/// A 256-bit-state pseudo-random generator (xoshiro256++).
///
/// Fast, equidistributed, and with a period of `2^256 − 1`; more than enough
/// for the million-event stochastic flow runs the partitioner performs. State
/// is never all-zero because seeding goes through [`SplitMix64`].
///
/// # Examples
///
/// ```
/// use ppet_prng::{Rng, Xoshiro256PlusPlus};
///
/// let mut rng = Xoshiro256PlusPlus::seed_from(2024);
/// let x = rng.gen_f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    /// Creates a generator by expanding `seed` through [`SplitMix64`], as
    /// recommended by the xoshiro authors.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Self { s }
    }

    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics if the state is all zero (the one inadmissible state).
    #[must_use]
    pub fn from_state(state: [u64; 4]) -> Self {
        assert!(
            state.iter().any(|&w| w != 0),
            "xoshiro256++ state must not be all zero"
        );
        Self { s: state }
    }

    /// Returns the current 256-bit state.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }
}

impl Rng for Xoshiro256PlusPlus {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vectors computed from the reference C implementation with the state
    /// `{1, 2, 3, 4}`.
    #[test]
    fn matches_reference_vectors() {
        let mut rng = Xoshiro256PlusPlus::from_state([1, 2, 3, 4]);
        let expected = [
            41_943_041u64,
            58_720_359,
            3_588_806_011_781_223,
            3_591_011_842_654_386,
            9_228_616_714_210_784_205,
        ];
        for &e in &expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    #[should_panic(expected = "all zero")]
    fn all_zero_state_rejected() {
        let _ = Xoshiro256PlusPlus::from_state([0; 4]);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Xoshiro256PlusPlus::seed_from(99);
        let mut b = Xoshiro256PlusPlus::seed_from(99);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_are_pairwise_decorrelated() {
        // Sibling generators forked from one base (the per-task streams
        // of a parallel map) must look independent: their prefixes share
        // no values and are uncorrelated bitwise (≈ half the bits differ).
        let mut base = Xoshiro256PlusPlus::seed_from(2024);
        let mut streams: Vec<_> = (0..4).map(|_| base.fork()).collect();
        let prefixes: Vec<Vec<u64>> = streams
            .iter_mut()
            .map(|s| (0..256).map(|_| s.next_u64()).collect())
            .collect();
        for i in 0..prefixes.len() {
            for j in (i + 1)..prefixes.len() {
                let a = &prefixes[i];
                let b = &prefixes[j];
                assert!(a.iter().all(|x| !b.contains(x)), "streams {i}/{j} collide");
                let diff_bits: u32 = a
                    .iter()
                    .zip(b.iter())
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
                let total_bits = 64 * a.len() as u32;
                let ratio = f64::from(diff_bits) / f64::from(total_bits);
                assert!(
                    (0.45..0.55).contains(&ratio),
                    "streams {i}/{j} look correlated: {ratio}"
                );
            }
        }
    }
}
