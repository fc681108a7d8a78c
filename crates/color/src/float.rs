//! Exact floating-point RGB → CIELAB conversion (paper §2, Eqs. 1–4).
//!
//! This is the reference the hardware LUT path is validated against and the
//! datapath used by the "64-bit floating point" end of the §6.1 bit-width
//! exploration.

use sslic_image::{Rgb, RgbImage};

use crate::LabImage;

/// sRGB → linear-light RGB matrix to CIE XYZ (D65 white), the matrix `M`
/// of Eq. 2.
pub(crate) const RGB_TO_XYZ: [[f64; 3]; 3] = [
    [0.412_456_4, 0.357_576_1, 0.180_437_5],
    [0.212_672_9, 0.715_152_2, 0.072_175_0],
    [0.019_333_9, 0.119_192_0, 0.950_304_1],
];

/// D65 reference white `[X_r, Y_r, Z_r]` of Eq. 4.
pub(crate) const REFERENCE_WHITE: [f64; 3] = [0.950_47, 1.0, 1.088_83];

/// CIELAB linear-region threshold (`0.008856` in Eq. 4).
pub const LAB_EPSILON: f64 = 0.008856;

/// CIELAB linear-region slope (`903.3` in Eq. 4).
pub(crate) const LAB_KAPPA: f64 = 903.3;

/// Inverse sRGB gamma (Eq. 1): maps a gamma-encoded component in `[0, 1]`
/// to linear light.
///
/// The paper's Eq. 1 writes `(x+0.05)/1.055`; the sRGB standard constant is
/// `0.055`, which is what we (and the SLIC reference code) use.
#[inline]
pub fn srgb_to_linear(x: f64) -> f64 {
    if x <= 0.04045 {
        x / 12.92
    } else {
        ((x + 0.055) / 1.055).powf(2.4)
    }
}

/// Linear-light RGB → CIE XYZ (Eq. 2).
#[inline]
pub(crate) fn linear_rgb_to_xyz([r, g, b]: [f64; 3]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for (o, row) in out.iter_mut().zip(RGB_TO_XYZ.iter()) {
        *o = row[0] * r + row[1] * g + row[2] * b;
    }
    out
}

/// The CIELAB companding function `f(W)` of Eq. 4.
#[inline]
pub(crate) fn lab_f(t: f64) -> f64 {
    if t > LAB_EPSILON {
        t.cbrt()
    } else {
        (LAB_KAPPA * t + 16.0) / 116.0
    }
}

/// CIE XYZ → CIELAB (Eqs. 3–4).
///
/// Note the paper's Eq. 3 typo: `b = 200·(f_Y − f_X)` should be
/// `b = 200·(f_Y − f_Z)` (the standard definition, implemented here).
#[inline]
pub(crate) fn xyz_to_lab([x, y, z]: [f64; 3]) -> [f64; 3] {
    let fx = lab_f(x / REFERENCE_WHITE[0]);
    let fy = lab_f(y / REFERENCE_WHITE[1]);
    let fz = lab_f(z / REFERENCE_WHITE[2]);
    [
        116.0 * fy - 16.0,
        500.0 * (fx - fy),
        200.0 * (fy - fz),
    ]
}

/// Full pipeline for one 8-bit sRGB pixel: gamma → matrix → LAB.
///
/// Returns `[L, a, b]` with `L ∈ [0, 100]` and `a, b` roughly in
/// `[-128, 127]`.
#[inline]
pub fn rgb8_to_lab(px: Rgb) -> [f64; 3] {
    let lin = [
        srgb_to_linear(px.r as f64 / 255.0),
        srgb_to_linear(px.g as f64 / 255.0),
        srgb_to_linear(px.b as f64 / 255.0),
    ];
    xyz_to_lab(linear_rgb_to_xyz(lin))
}

/// Converts a whole image to planar `f32` CIELAB.
pub fn convert_image(img: &RgbImage) -> LabImage {
    let mut out = LabImage::from_fn(img.width(), img.height(), |_, _| [0.0; 3]);
    convert_image_into(img, &mut out);
    out
}

/// Converts a whole image into a caller-owned planar `f32` CIELAB image
/// (no allocation); per-pixel values are identical to [`convert_image`].
///
/// # Panics
///
/// Panics if `out` differs in geometry from `img`.
pub fn convert_image_into(img: &RgbImage, out: &mut LabImage) {
    assert!(
        out.width() == img.width() && out.height() == img.height(),
        "convert_image_into requires matching image geometry"
    );
    for y in 0..img.height() {
        for x in 0..img.width() {
            let [l, a, b] = rgb8_to_lab(img.pixel(x, y));
            out.l[(x, y)] = l as f32;
            out.a[(x, y)] = a as f32;
            out.b[(x, y)] = b as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inverse sRGB gamma's inverse: linear light back to gamma-encoded.
    fn linear_to_srgb(x: f64) -> f64 {
        if x <= 0.04045 / 12.92 {
            x * 12.92
        } else {
            1.055 * x.powf(1.0 / 2.4) - 0.055
        }
    }

    /// CIE XYZ → linear-light RGB (inverse of Eq. 2; the inverse matrix of
    /// [`RGB_TO_XYZ`]).
    fn xyz_to_linear_rgb([x, y, z]: [f64; 3]) -> [f64; 3] {
        // Inverse of the sRGB D65 matrix.
        const INV: [[f64; 3]; 3] = [
            [3.240_454_2, -1.537_138_5, -0.498_531_4],
            [-0.969_266_0, 1.876_010_8, 0.041_556_0],
            [0.055_643_4, -0.204_025_9, 1.057_225_2],
        ];
        let mut out = [0.0; 3];
        for (o, row) in out.iter_mut().zip(INV.iter()) {
            *o = row[0] * x + row[1] * y + row[2] * z;
        }
        out
    }

    /// CIELAB → CIE XYZ (inverse of Eqs. 3–4).
    fn lab_to_xyz([l, a, b]: [f64; 3]) -> [f64; 3] {
        let fy = (l + 16.0) / 116.0;
        let fx = fy + a / 500.0;
        let fz = fy - b / 200.0;
        let finv = |f: f64| {
            let f3 = f * f * f;
            if f3 > LAB_EPSILON {
                f3
            } else {
                (116.0 * f - 16.0) / LAB_KAPPA
            }
        };
        [
            finv(fx) * REFERENCE_WHITE[0],
            finv(fy) * REFERENCE_WHITE[1],
            finv(fz) * REFERENCE_WHITE[2],
        ]
    }

    /// Full inverse pipeline: CIELAB back to an 8-bit sRGB pixel (clamped to
    /// the displayable gamut), the oracle the forward path's round trip is
    /// checked against.
    fn lab_to_rgb8(lab: [f64; 3]) -> Rgb {
        let lin = xyz_to_linear_rgb(lab_to_xyz(lab));
        let to8 = |v: f64| (linear_to_srgb(v.clamp(0.0, 1.0)) * 255.0).round() as u8;
        Rgb::new(to8(lin[0]), to8(lin[1]), to8(lin[2]))
    }

    #[test]
    fn black_maps_to_lab_origin() {
        let [l, a, b] = rgb8_to_lab(Rgb::new(0, 0, 0));
        assert!(l.abs() < 1e-9);
        assert!(a.abs() < 1e-9);
        assert!(b.abs() < 1e-9);
    }

    #[test]
    fn white_maps_to_l100_neutral() {
        let [l, a, b] = rgb8_to_lab(Rgb::new(255, 255, 255));
        assert!((l - 100.0).abs() < 0.01, "L={l}");
        assert!(a.abs() < 0.01, "a={a}");
        assert!(b.abs() < 0.01, "b={b}");
    }

    #[test]
    fn greys_are_neutral() {
        for v in [32u8, 128, 200] {
            let [_, a, b] = rgb8_to_lab(Rgb::new(v, v, v));
            assert!(a.abs() < 0.01 && b.abs() < 0.01, "grey {v} not neutral");
        }
    }

    #[test]
    fn primary_hue_signs() {
        let [_, a_r, b_r] = rgb8_to_lab(Rgb::new(255, 0, 0));
        assert!(a_r > 50.0, "red has strongly positive a*");
        let [_, a_g, _] = rgb8_to_lab(Rgb::new(0, 255, 0));
        assert!(a_g < -50.0, "green has strongly negative a*");
        let [_, _, b_b] = rgb8_to_lab(Rgb::new(0, 0, 255));
        assert!(b_b < -50.0, "blue has strongly negative b*");
        assert!(b_r > 0.0, "red has positive b*");
    }

    #[test]
    fn known_reference_value_mid_grey() {
        // sRGB (119,119,119) ≈ L*50 neutral grey (standard colorimetry).
        let [l, a, b] = rgb8_to_lab(Rgb::new(119, 119, 119));
        assert!((l - 50.0).abs() < 0.5, "L={l}");
        assert!(a.abs() < 0.01 && b.abs() < 0.01);
    }

    #[test]
    fn gamma_is_continuous_at_threshold() {
        let below = srgb_to_linear(0.04045);
        let above = srgb_to_linear(0.040451);
        assert!((below - above).abs() < 1e-5);
    }

    #[test]
    fn lab_f_is_continuous_at_epsilon() {
        let below = lab_f(LAB_EPSILON - 1e-9);
        let above = lab_f(LAB_EPSILON + 1e-9);
        assert!((below - above).abs() < 1e-4);
    }

    #[test]
    fn l_is_monotone_in_grey_level() {
        let mut last = -1.0;
        for v in 0..=255u8 {
            let [l, _, _] = rgb8_to_lab(Rgb::new(v, v, v));
            assert!(l >= last, "L must be monotone in grey level");
            last = l;
        }
    }

    #[test]
    fn lab_range_is_bounded_over_rgb_cube() {
        // Sample the cube corners + edges: L in [0,100], a,b in [-128,127].
        for &r in &[0u8, 128, 255] {
            for &g in &[0u8, 128, 255] {
                for &b in &[0u8, 128, 255] {
                    let [l, a, bb] = rgb8_to_lab(Rgb::new(r, g, b));
                    assert!((0.0..=100.001).contains(&l));
                    assert!((-128.0..=127.0).contains(&a), "a={a}");
                    assert!((-128.0..=127.0).contains(&bb), "b={bb}");
                }
            }
        }
    }

    #[test]
    fn rgb_lab_round_trip_is_near_lossless() {
        for &r in &[0u8, 17, 99, 180, 255] {
            for &g in &[0u8, 64, 200] {
                for &b in &[31u8, 128, 250] {
                    let px = Rgb::new(r, g, b);
                    let back = lab_to_rgb8(rgb8_to_lab(px));
                    assert!(
                        (back.r as i16 - r as i16).abs() <= 1
                            && (back.g as i16 - g as i16).abs() <= 1
                            && (back.b as i16 - b as i16).abs() <= 1,
                        "{px:?} -> {back:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_inverse_is_consistent() {
        let lin = [0.2, 0.5, 0.8];
        let back = xyz_to_linear_rgb(linear_rgb_to_xyz(lin));
        for i in 0..3 {
            assert!((back[i] - lin[i]).abs() < 1e-4, "channel {i}");
        }
    }

    #[test]
    fn convert_image_matches_per_pixel_path() {
        let img = RgbImage::from_fn(8, 4, |x, y| {
            Rgb::new((x * 30) as u8, (y * 60) as u8, 90)
        });
        let lab = convert_image(&img);
        let [l, a, b] = rgb8_to_lab(img.pixel(3, 2));
        assert!((lab.l[(3, 2)] - l as f32).abs() < 1e-4);
        assert!((lab.a[(3, 2)] - a as f32).abs() < 1e-4);
        assert!((lab.b[(3, 2)] - b as f32).abs() < 1e-4);
    }
}
