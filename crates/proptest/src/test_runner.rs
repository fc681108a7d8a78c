//! Deterministic RNG and failure type backing the [`proptest!`](crate::proptest!) runner.

use std::fmt;

/// A failed property case: message plus the `prop_assert!` call site.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
    file: &'static str,
    line: u32,
}

impl TestCaseError {
    /// Builds a failure recorded at `file:line`.
    pub fn new(message: String, file: &'static str, line: u32) -> Self {
        TestCaseError { message, file, line }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at {}:{}", self.message, self.file, self.line)
    }
}

impl std::error::Error for TestCaseError {}

/// SplitMix64: tiny, fast, and statistically solid enough for test-input
/// generation. Seeded from the property name so every test owns an
/// independent, reproducible stream.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds the stream from an arbitrary name (FNV-1a over the bytes).
    pub fn from_name(name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng::from_seed(hash)
    }

    /// Seeds the stream directly.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift bounded sampling (Lemire); bias is < 2^-64 per
        // draw — irrelevant for test generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_respects_bound() {
        let mut rng = TestRng::from_seed(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_f64_in_unit_interval() {
        let mut rng = TestRng::from_seed(9);
        for _ in 0..1000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn error_display_includes_location() {
        let e = TestCaseError::new("boom".into(), "x.rs", 12);
        assert_eq!(e.to_string(), "boom at x.rs:12");
    }
}
