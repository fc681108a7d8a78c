//! The accelerator's 8-bit CIELAB channel encoding.
//!
//! The channel scratchpads store one byte per pixel per channel (paper
//! §4.3), so real-valued CIELAB must be packed into bytes. We use the
//! conventional 8-bit Lab encoding (the same one OpenCV uses):
//!
//! ```text
//! l8 = round(L * 255 / 100)     L ∈ [0, 100]
//! a8 = round(a) + 128           a ∈ [-128, 127]
//! b8 = round(b) + 128           b ∈ [-128, 127]
//! ```
//!
//! All encoders saturate rather than wrap.

/// Encodes a real `[L, a, b]` triple into scratchpad bytes.
///
/// # Example
///
/// ```
/// use sslic_color::lab8;
///
/// assert_eq!(lab8::encode([0.0, 0.0, 0.0]), [0, 128, 128]);
/// assert_eq!(lab8::encode([100.0, 0.0, 0.0]), [255, 128, 128]);
/// assert_eq!(lab8::encode([200.0, 500.0, -500.0]), [255, 255, 0]); // saturates
/// ```
#[inline]
pub fn encode([l, a, b]: [f64; 3]) -> [u8; 3] {
    [
        (l * 255.0 / 100.0).round().clamp(0.0, 255.0) as u8,
        (a.round() + 128.0).clamp(0.0, 255.0) as u8,
        (b.round() + 128.0).clamp(0.0, 255.0) as u8,
    ]
}

/// Decodes scratchpad bytes back to real `[L, a, b]`.
#[inline]
pub const fn decode([l8, a8, b8]: [u8; 3]) -> [f64; 3] {
    [
        l8 as f64 * 100.0 / 255.0,
        a8 as f64 - 128.0,
        b8 as f64 - 128.0,
    ]
}

/// [`decode`] of every code, narrowed to the `f32` a
/// [`LabImage`](crate::LabImage) plane stores: `DECODED[c][code]` is
/// channel `c` of `decode` at `code`, `as f32`. Each channel decodes on its
/// own, so three 256-entry tables reproduce every value
/// [`Lab8Image::decode_into`](crate::Lab8Image::decode_into) writes, and an
/// engine that keeps only the codes reads them through [`decode_f32`].
pub const DECODED: [[f32; 256]; 3] = {
    let mut table = [[0.0f32; 256]; 3];
    let mut code = 0;
    while code < 256 {
        let [l, a, b] = decode([code as u8; 3]);
        table[0][code] = l as f32;
        table[1][code] = a as f32;
        table[2][code] = b as f32;
        code += 1;
    }
    table
};

/// The `f32` values of one pixel's codes, read from [`DECODED`]: bit for
/// bit what [`Lab8Image::decode_into`](crate::Lab8Image::decode_into)
/// stores for them.
#[inline]
pub fn decode_f32([l8, a8, b8]: [u8; 3]) -> [f32; 3] {
    [
        DECODED[0][l8 as usize],
        DECODED[1][a8 as usize],
        DECODED[2][b8 as usize],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Worst-case absolute decoding error per channel introduced by the
    /// 8-bit encoding: `[L, a, b]` units.
    const MAX_QUANTIZATION_ERROR: [f64; 3] = [100.0 / 255.0 / 2.0, 0.5, 0.5];

    #[test]
    fn origin_encodes_to_midpoint() {
        assert_eq!(encode([0.0, 0.0, 0.0]), [0, 128, 128]);
    }

    #[test]
    fn extremes_saturate() {
        assert_eq!(encode([150.0, 300.0, -300.0]), [255, 255, 0]);
        assert_eq!(encode([-10.0, -300.0, 300.0]), [0, 0, 255]);
    }

    #[test]
    fn decode_inverts_encode_within_half_lsb() {
        for (l, a, b) in [(50.0, 10.0, -10.0), (99.0, -127.0, 126.0), (0.4, 0.4, -0.4)] {
            let [dl, da, db] = decode(encode([l, a, b]));
            assert!((dl - l).abs() <= MAX_QUANTIZATION_ERROR[0] + 1e-9);
            assert!((da - a).abs() <= MAX_QUANTIZATION_ERROR[1] + 1e-9);
            assert!((db - b).abs() <= MAX_QUANTIZATION_ERROR[2] + 1e-9);
        }
    }

    #[test]
    fn decode_tables_match_decode_bit_for_bit() {
        for code in 0..=255u8 {
            for codes in [[code, 0, 255], [255, code, 0], [0, 255, code]] {
                let want = decode(codes).map(|v| (v as f32).to_bits());
                assert_eq!(decode_f32(codes).map(f32::to_bits), want, "{codes:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn round_trip_error_bounded(
            l in 0.0f64..100.0,
            a in -128.0f64..127.0,
            b in -128.0f64..127.0,
        ) {
            let [dl, da, db] = decode(encode([l, a, b]));
            prop_assert!((dl - l).abs() <= MAX_QUANTIZATION_ERROR[0] + 1e-9);
            prop_assert!((da - a).abs() <= MAX_QUANTIZATION_ERROR[1] + 1e-9);
            prop_assert!((db - b).abs() <= MAX_QUANTIZATION_ERROR[2] + 1e-9);
        }

        #[test]
        fn encode_is_monotone_in_l(l1 in 0.0f64..100.0, l2 in 0.0f64..100.0) {
            let e1 = encode([l1, 0.0, 0.0])[0];
            let e2 = encode([l2, 0.0, 0.0])[0];
            if l1 <= l2 {
                prop_assert!(e1 <= e2);
            }
        }
    }
}
