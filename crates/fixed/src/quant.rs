/// A uniform quantizer mapping a real interval `[lo, hi]` onto `2^bits`
/// integer codes.
///
/// This models the accelerator's reduced-precision datapath for the paper's
/// §6.1 bit-width exploration: the color-distance output "returns the 8-bit
/// distance", i.e. real distances are represented by one of 256 codes and
/// the 9:1 minimum compares codes, not reals. Sweeping `bits` from 12 down
/// to 4 reproduces the accuracy-vs-precision study.
///
/// Values outside `[lo, hi]` saturate to the extreme codes.
///
/// # Example
///
/// ```
/// use sslic_fixed::Quantizer;
///
/// let q = Quantizer::new(8, 0.0, 255.0);
/// assert_eq!(q.encode(0.0), 0);
/// assert_eq!(q.encode(255.0), 255);
/// assert_eq!(q.encode(300.0), 255); // saturates
/// assert_eq!(q.encode(127.4), 127); // rounds to the nearest code
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    bits: u8,
    lo: f64,
    hi: f64,
    step: f64,
}

impl Quantizer {
    /// Creates a `bits`-wide quantizer over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 32, or if `lo >= hi`.
    pub fn new(bits: u8, lo: f64, hi: f64) -> Self {
        assert!((1..=32).contains(&bits), "bits must be in 1..=32");
        assert!(lo < hi, "lo must be below hi");
        let levels = (1u64 << bits) - 1;
        Quantizer {
            bits,
            lo,
            hi,
            step: (hi - lo) / levels as f64,
        }
    }

    /// Quantization step between adjacent codes.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Largest code, `2^bits − 1`.
    #[inline]
    pub fn max_code(&self) -> u32 {
        (((1u64 << self.bits) - 1) & 0xffff_ffff) as u32
    }

    /// Maps a real value to its code (round-to-nearest, saturating).
    #[inline]
    pub fn encode(&self, value: f64) -> u32 {
        if value.is_nan() {
            return 0;
        }
        let idx = ((value - self.lo) / self.step).round();
        if idx <= 0.0 {
            0
        } else if idx >= self.max_code() as f64 {
            self.max_code()
        } else {
            idx as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Maps a code back to the center of its quantization cell: the inverse
    /// the round-trip properties check `encode` against.
    fn decode(q: &Quantizer, code: u32) -> f64 {
        q.lo + code.min(q.max_code()) as f64 * q.step
    }

    /// Quantize-dequantize in one step: the value the datapath "sees" at
    /// this precision.
    fn apply(q: &Quantizer, value: f64) -> f64 {
        decode(q, q.encode(value))
    }

    #[test]
    fn one_bit_quantizer_has_two_levels() {
        let q = Quantizer::new(1, 0.0, 1.0);
        assert_eq!(q.max_code(), 1);
        assert_eq!(q.encode(0.2), 0);
        assert_eq!(q.encode(0.8), 1);
    }

    #[test]
    fn endpoints_map_to_extreme_codes() {
        let q = Quantizer::new(8, -10.0, 10.0);
        assert_eq!(q.encode(-10.0), 0);
        assert_eq!(q.encode(10.0), 255);
        assert_eq!(decode(&q, 0), -10.0);
        assert_eq!(decode(&q, 255), 10.0);
    }

    #[test]
    fn nan_encodes_to_zero() {
        let q = Quantizer::new(8, 0.0, 1.0);
        assert_eq!(q.encode(f64::NAN), 0);
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn zero_bits_panics() {
        let _ = Quantizer::new(0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "lo must be below hi")]
    fn inverted_range_panics() {
        let _ = Quantizer::new(8, 1.0, 0.0);
    }

    #[test]
    fn higher_bits_strictly_reduce_step() {
        let q8 = Quantizer::new(8, 0.0, 255.0);
        let q12 = Quantizer::new(12, 0.0, 255.0);
        assert!(q12.step() < q8.step());
    }

    proptest! {
        #[test]
        fn round_trip_error_bounded_by_half_step(v in -50.0f64..50.0, bits in 2u8..16) {
            let q = Quantizer::new(bits, -50.0, 50.0);
            let err = (apply(&q, v) - v).abs();
            prop_assert!(err <= q.step() / 2.0 + 1e-9, "err={err} step={}", q.step());
        }

        #[test]
        fn encode_is_monotone(a in 0.0f64..100.0, b in 0.0f64..100.0) {
            let q = Quantizer::new(8, 0.0, 100.0);
            if a <= b {
                prop_assert!(q.encode(a) <= q.encode(b));
            } else {
                prop_assert!(q.encode(a) >= q.encode(b));
            }
        }

        #[test]
        fn out_of_range_saturates(v in prop::num::f64::NORMAL) {
            let q = Quantizer::new(8, 0.0, 1.0);
            let c = q.encode(v);
            prop_assert!(c <= q.max_code());
        }

        #[test]
        fn apply_is_idempotent(v in -10.0f64..10.0, bits in 2u8..12) {
            let q = Quantizer::new(bits, -10.0, 10.0);
            let once = apply(&q, v);
            prop_assert_eq!(apply(&q, once), once);
        }
    }
}
