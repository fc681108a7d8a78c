//! Small vendored seedable PRNG (SplitMix64), replacing the external
//! `rand` crate so the workspace builds with no registry access.
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is a 64-bit
//! counter-with-mix generator: one add and three xor-multiply-shift steps
//! per draw, equidistributed over the full 2⁶⁴ period. Image synthesis and
//! testbench stimulus need reproducibility and decent statistics, not
//! cryptographic strength, so this is a strict upgrade over dragging in a
//! dependency tree.
//!
//! # Example
//!
//! ```
//! use sslic_image::prng::SplitMix64;
//!
//! let mut a = SplitMix64::seed_from_u64(42);
//! let mut b = SplitMix64::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!((0.0..1.0).contains(&a.next_f32()));
//! ```

/// Seedable SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream whose output is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sequence_matches_splitmix64() {
        // First outputs for seed 0 from the canonical C reference.
        let mut rng = SplitMix64::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::seed_from_u64(7);
        let mut b = SplitMix64::seed_from_u64(7);
        let mut c = SplitMix64::seed_from_u64(8);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range_and_vary() {
        let mut rng = SplitMix64::seed_from_u64(3);
        let mut min = 1.0f32;
        let mut max = 0.0f32;
        for _ in 0..10_000 {
            let v = rng.next_f32();
            assert!((0.0..1.0).contains(&v));
            min = min.min(v);
            max = max.max(v);
        }
        assert!(min < 0.05 && max > 0.95, "spread looks uniform-ish");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::seed_from_u64(11);
        for bound in [1u64, 2, 9, 1000] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }
}
