//! The accelerator's LUT-based fixed-point color-conversion datapath.
//!
//! The hardware replaces both power functions of the RGB→CIELAB pipeline
//! with tables (paper §6.1):
//!
//! * the inverse sRGB gamma of Eq. 1 becomes a **256-entry LUT** indexed by
//!   the 8-bit channel code, exact at its output precision;
//! * the cube root of Eq. 4 becomes an **8-segment piecewise-linear LUT**;
//!   the linear region below `0.008856` is computed directly (it is already
//!   a multiply-add);
//! * the 3×3 matrix of Eq. 2 is evaluated in fixed point with the
//!   reference-white division folded into the coefficients.
//!
//! The datapath width at each stage is configurable through
//! [`HwColorConfig`] so the bit-width exploration of §6.1 can sweep it.
//!
//! Every stage after the matrix takes a small integer input, so
//! [`HwColorConverter::new`] evaluates those stages once per possible input
//! with the `f64` stage expressions and stores the results:
//!
//! * the companding (PWL or linear branch, rounded to `pwl_frac_bits`) and
//!   the `L` encode, indexed by the clamped matrix output
//!   `s ∈ 0..=2^gamma_frac_bits`;
//! * the `a`/`b` encodes, indexed by the difference of two companded codes
//!   (`F_X − F_Y`, `F_Y − F_Z`). Each companded value `f = F/2^pwl_frac_bits`
//!   is dyadic, so `f_X − f_Y` is exact in `f64` and a function of the
//!   integer difference alone.
//!
//! The per-pixel path is then integer-only — three gamma reads, the matrix,
//! five table reads — and its codes are bit-identical to evaluating the
//! stage expressions per pixel.

use sslic_fixed::{Lut256, PwlLut};
use sslic_image::{Rgb, RgbImage};

use crate::float::{LAB_EPSILON, LAB_KAPPA, REFERENCE_WHITE, RGB_TO_XYZ};
use crate::{lab8, Lab8Image};

/// Precision configuration of the hardware color-conversion unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwColorConfig {
    /// Fraction bits of the gamma LUT output (linear-light codes). Paper
    /// default: 12.
    pub gamma_frac_bits: u8,
    /// Fraction bits of the fixed-point matrix coefficients. Paper
    /// default: 12.
    pub matrix_frac_bits: u8,
    /// Number of PWL segments for the cube root. Paper default: 8.
    pub pwl_segments: usize,
    /// Fraction bits the PWL output is rounded to. Paper default: 12.
    pub pwl_frac_bits: u8,
}

impl Default for HwColorConfig {
    fn default() -> Self {
        HwColorConfig {
            gamma_frac_bits: 12,
            matrix_frac_bits: 12,
            pwl_segments: 8,
            pwl_frac_bits: 12,
        }
    }
}

/// One companding-table entry: the stages that follow the matrix for one
/// clamped matrix output `s`.
#[derive(Debug, Clone, Copy)]
struct Compand {
    /// The companded value rounded to `pwl_frac_bits`, as an integer code.
    code: i32,
    /// The encoded lightness byte when this entry is `f_Y`.
    l8: u8,
}

/// The LUT/fixed-point RGB→CIELAB converter of the S-SLIC accelerator.
///
/// # Example
///
/// ```
/// use sslic_color::hw::HwColorConverter;
/// use sslic_image::Rgb;
///
/// let conv = HwColorConverter::paper_default();
/// let [l8, a8, b8] = conv.convert(Rgb::new(255, 255, 255));
/// assert_eq!(l8, 255);            // white → L* = 100
/// assert!((a8 as i16 - 128).abs() <= 1);
/// assert!((b8 as i16 - 128).abs() <= 1);
/// ```
#[derive(Debug, Clone)]
pub struct HwColorConverter {
    gamma: Lut256,
    /// Matrix coefficients with `1/white` folded in, at `matrix_frac_bits`.
    matrix: [[i64; 3]; 3],
    /// Companding and `L` encode, indexed by the clamped matrix output.
    compand: Vec<Compand>,
    /// Encoded `a` byte for each code difference `F_X − F_Y`, offset by
    /// `span`.
    a8: Vec<u8>,
    /// Encoded `b` byte for each code difference `F_Y − F_Z`, offset by
    /// `span`.
    b8: Vec<u8>,
    /// Largest difference between two companded codes.
    span: i32,
    config: HwColorConfig,
}

impl HwColorConverter {
    /// Builds the converter with the paper's configuration (256-entry gamma
    /// LUT, 8-segment PWL cube root, 12-bit intermediate precision).
    pub fn paper_default() -> Self {
        Self::new(HwColorConfig::default())
    }

    /// Builds the converter tables for an arbitrary precision configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pwl_segments == 0`, if `matrix_frac_bits == 0` (the
    /// matrix rounds by adding half an LSB of its fraction), or if any bit
    /// width exceeds 16 (the tables grow as `2^gamma_frac_bits` and
    /// `2^pwl_frac_bits`).
    pub fn new(config: HwColorConfig) -> Self {
        assert!(config.pwl_segments > 0, "at least one PWL segment");
        assert!(
            config.matrix_frac_bits > 0,
            "the matrix needs at least one fraction bit"
        );
        assert!(
            config.gamma_frac_bits <= 16
                && config.matrix_frac_bits <= 16
                && config.pwl_frac_bits <= 16,
            "bit widths above 16 are not supported: the tables grow as 2^bits"
        );
        let gscale = (1i64 << config.gamma_frac_bits) as f64;
        let gamma = Lut256::from_fn(|code| {
            let x = code as f64 / 255.0;
            (crate::float::srgb_to_linear(x) * gscale).round() as i32
        });
        let mscale = (1i64 << config.matrix_frac_bits) as f64;
        let mut matrix = [[0i64; 3]; 3];
        for (r, row) in matrix.iter_mut().enumerate() {
            for (c, m) in row.iter_mut().enumerate() {
                *m = (RGB_TO_XYZ[r][c] / REFERENCE_WHITE[r] * mscale).round() as i64;
            }
        }
        // Companding via PWL (or the exact linear branch), rounded to the
        // PWL output precision, for every matrix output s / 2^gamma_frac.
        let pwl = PwlLut::from_fn_geometric(config.pwl_segments, LAB_EPSILON, 1.0, |t| t.cbrt());
        let gmax = 1i64 << config.gamma_frac_bits;
        let pscale = (1i64 << config.pwl_frac_bits) as f64;
        let compand: Vec<Compand> = (0..=gmax)
            .map(|s| {
                let t = s as f64 / gmax as f64;
                let v = if t > LAB_EPSILON {
                    pwl.eval(t)
                } else {
                    (LAB_KAPPA * t + 16.0) / 116.0
                };
                let code = (v * pscale).round();
                Compand {
                    code: code as i32,
                    l8: lab8::encode([116.0 * (code / pscale) - 16.0, 0.0, 0.0])[0],
                }
            })
            .collect();
        // The a/b encodes for every difference two companded codes can
        // have: `d / 2^pwl_frac` is exactly `f_1 − f_2`.
        let (lo, hi) = compand.iter().fold((i32::MAX, i32::MIN), |(lo, hi), e| {
            (lo.min(e.code), hi.max(e.code))
        });
        let span = hi - lo;
        let (a8, b8) = (-span..=span)
            .map(|d| {
                let df = d as f64 / pscale;
                let [_, a, b] = lab8::encode([0.0, 500.0 * df, 200.0 * df]);
                (a, b)
            })
            .unzip();
        HwColorConverter {
            gamma,
            matrix,
            compand,
            a8,
            b8,
            span,
            config,
        }
    }

    /// Reads one gamma-LUT entry (linear-light code at
    /// [`HwColorConfig::gamma_frac_bits`] fraction bits) — used by tests and
    /// by the fault model to compute realized corruption masks.
    pub fn gamma_entry(&self, code: u8) -> i32 {
        self.gamma.lookup(code)
    }

    /// XORs `xor_mask` into one gamma-LUT entry, modeling a soft error in
    /// the conversion unit's table storage (the `ColorLut` fault site of
    /// `sslic-fault`). Subsequent [`Self::convert`] calls read the corrupted
    /// entry; a second call with the same mask restores it.
    pub fn corrupt_gamma_entry(&mut self, code: u8, xor_mask: i32) {
        self.gamma.corrupt(code, xor_mask);
    }

    /// Converts one 8-bit sRGB pixel to encoded 8-bit CIELAB
    /// (see [`crate::lab8`]).
    pub fn convert(&self, px: Rgb) -> [u8; 3] {
        self.datapath(px.to_array())
    }

    /// The per-pixel datapath shared by [`Self::convert`] and
    /// [`Self::convert_image_into`]; forced inline because a call per pixel
    /// would cost more than the datapath itself.
    #[inline(always)]
    fn datapath(&self, rgb: [u8; 3]) -> [u8; 3] {
        // Stage 1: gamma LUT (three ROM reads).
        let lin = rgb.map(|c| i64::from(self.gamma.lookup(c)));
        // Stage 2: fixed-point matrix with folded white division. The
        // product has gamma_frac + matrix_frac fraction bits; shift back to
        // gamma_frac with rounding and clamp to the companding table.
        let shift = u32::from(self.config.matrix_frac_bits);
        let half = 1i64 << (shift - 1);
        let gmax = 1i64 << self.config.gamma_frac_bits;
        // Stage 3: companding and the L encode (one table read per row).
        let compand = |[m0, m1, m2]: [i64; 3]| {
            let acc = m0 * lin[0] + m1 * lin[1] + m2 * lin[2];
            self.compand[((acc + half) >> shift).clamp(0, gmax) as usize]
        };
        let [mx, my, mz] = self.matrix;
        let (x, y, z) = (compand(mx), compand(my), compand(mz));
        // Stage 4: the a/b encodes of the code differences (two reads).
        let diff = |p: Compand, q: Compand| (p.code - q.code + self.span) as usize;
        [y.l8, self.a8[diff(x, y)], self.b8[diff(y, z)]]
    }

    /// Converts a whole image into the scratchpad's planar 8-bit CIELAB
    /// layout, exactly what the accelerator's color-conversion pass writes
    /// back to channel memories 1–3 (paper §4.3).
    pub fn convert_image(&self, img: &RgbImage) -> Lab8Image {
        let mut out = Lab8Image::from_fn(img.width(), img.height(), |_, _| [0; 3]);
        self.convert_image_into(img, &mut out);
        out
    }

    /// Converts a whole image into a caller-owned planar 8-bit CIELAB
    /// image (no allocation); per-pixel codes are identical to
    /// [`HwColorConverter::convert`]. This is the streaming-session entry
    /// point: the session reuses one `Lab8Image` across frames.
    ///
    /// # Panics
    ///
    /// Panics if `out` differs in geometry from `img`.
    pub fn convert_image_into(&self, img: &RgbImage, out: &mut Lab8Image) {
        assert!(
            out.width() == img.width() && out.height() == img.height(),
            "convert_image_into requires matching image geometry"
        );
        let planes = out
            .l
            .as_mut_slice()
            .iter_mut()
            .zip(out.a.as_mut_slice())
            .zip(out.b.as_mut_slice());
        for (px, ((l, a), b)) in img.as_raw().chunks_exact(3).zip(planes) {
            [*l, *a, *b] = self.datapath([px[0], px[1], px[2]]);
        }
    }

    /// Maximum per-channel absolute deviation (in 8-bit code units) from
    /// the float reference over a deterministic sample of the RGB cube —
    /// the validation the paper runs before committing to the LUT design.
    pub fn max_code_error_vs_float(&self, stride: u8) -> [u8; 3] {
        let axis = || (0..=255u8).step_by(usize::from(stride.max(1)));
        let mut max = [0u8; 3];
        for r in axis() {
            for g in axis() {
                for b in axis() {
                    let px = Rgb::new(r, g, b);
                    let hwc = self.convert(px);
                    let refc = lab8::encode(crate::float::rgb8_to_lab(px));
                    for ((m, h), f) in max.iter_mut().zip(hwc).zip(refc) {
                        *m = (*m).max(h.abs_diff(f));
                    }
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frozen copy of the per-pixel `f64` datapath the tables replaced:
    /// the identity oracle for every table entry and both entry points.
    struct Oracle {
        gamma: Lut256,
        matrix: [[i64; 3]; 3],
        pwl: PwlLut,
        config: HwColorConfig,
    }

    impl Oracle {
        fn new(config: HwColorConfig) -> Self {
            let gscale = (1i64 << config.gamma_frac_bits) as f64;
            let gamma = Lut256::from_fn(|code| {
                let x = code as f64 / 255.0;
                (crate::float::srgb_to_linear(x) * gscale).round() as i32
            });
            let mscale = (1i64 << config.matrix_frac_bits) as f64;
            let mut matrix = [[0i64; 3]; 3];
            for (r, row) in matrix.iter_mut().enumerate() {
                for (c, m) in row.iter_mut().enumerate() {
                    *m = (RGB_TO_XYZ[r][c] / REFERENCE_WHITE[r] * mscale).round() as i64;
                }
            }
            let pwl =
                PwlLut::from_fn_geometric(config.pwl_segments, LAB_EPSILON, 1.0, |t| t.cbrt());
            Oracle {
                gamma,
                matrix,
                pwl,
                config,
            }
        }

        /// Stage 3 for one clamped matrix output: companding via PWL (or
        /// the exact linear branch), rounded to the PWL output precision.
        fn compand(&self, scaled: i64) -> f64 {
            let gmax = 1i64 << self.config.gamma_frac_bits;
            let pscale = (1i64 << self.config.pwl_frac_bits) as f64;
            let ti = scaled as f64 / gmax as f64;
            let v = if ti > LAB_EPSILON {
                self.pwl.eval(ti)
            } else {
                (LAB_KAPPA * ti + 16.0) / 116.0
            };
            (v * pscale).round() / pscale
        }

        /// Stage 4: the three linear combinations and the 8-bit encode.
        fn encode(f: [f64; 3]) -> [u8; 3] {
            lab8::encode([
                116.0 * f[1] - 16.0,
                500.0 * (f[0] - f[1]),
                200.0 * (f[1] - f[2]),
            ])
        }

        fn convert(&self, px: Rgb) -> [u8; 3] {
            // Stage 1: gamma LUT.
            let lin = [
                self.gamma.lookup(px.r) as i64,
                self.gamma.lookup(px.g) as i64,
                self.gamma.lookup(px.b) as i64,
            ];
            // Stage 2: fixed-point matrix, shifted back with rounding.
            let shift = self.config.matrix_frac_bits as u32;
            let half = 1i64 << (shift - 1).min(62);
            let gmax = 1i64 << self.config.gamma_frac_bits;
            let mut f = [0f64; 3];
            for (row, fr) in f.iter_mut().enumerate() {
                let acc: i64 = (0..3).map(|c| self.matrix[row][c] * lin[c]).sum();
                *fr = self.compand(((acc + half) >> shift).clamp(0, gmax));
            }
            Self::encode(f)
        }
    }

    const CONFIGS: [HwColorConfig; 4] = [
        HwColorConfig {
            gamma_frac_bits: 12,
            matrix_frac_bits: 12,
            pwl_segments: 8,
            pwl_frac_bits: 12,
        },
        HwColorConfig {
            gamma_frac_bits: 8,
            matrix_frac_bits: 8,
            pwl_segments: 8,
            pwl_frac_bits: 8,
        },
        HwColorConfig {
            gamma_frac_bits: 7,
            matrix_frac_bits: 9,
            pwl_segments: 3,
            pwl_frac_bits: 6,
        },
        HwColorConfig {
            gamma_frac_bits: 5,
            matrix_frac_bits: 5,
            pwl_segments: 2,
            pwl_frac_bits: 5,
        },
    ];

    /// Every `stride`-th code on each axis of the RGB cube, then all greys.
    fn strided_cube(stride: usize) -> Vec<Rgb> {
        let axis = || (0..=255u8).step_by(stride);
        let mut pixels: Vec<Rgb> = axis()
            .flat_map(|r| axis().flat_map(move |g| axis().map(move |b| Rgb::new(r, g, b))))
            .collect();
        pixels.extend((0..=255u8).map(|v| Rgb::new(v, v, v)));
        pixels
    }

    /// Asserts that `convert` and `convert_image_into` both reproduce the
    /// oracle on every pixel of `pixels`.
    fn assert_matches_oracle(conv: &HwColorConverter, oracle: &Oracle, pixels: &[Rgb]) {
        // An odd width, so image rows start at arbitrary cube positions.
        let width = 251;
        let img = RgbImage::from_fn(width, pixels.len().div_ceil(width), |x, y| {
            pixels[(y * width + x).min(pixels.len() - 1)]
        });
        let mut lab = Lab8Image::from_fn(img.width(), img.height(), |_, _| [7; 3]);
        conv.convert_image_into(&img, &mut lab);
        for (i, &px) in pixels.iter().enumerate() {
            let want = oracle.convert(px);
            assert_eq!(conv.convert(px), want, "convert diverged at {px:?}");
            assert_eq!(
                lab.pixel(i % width, i / width),
                want,
                "convert_image_into diverged at {px:?}"
            );
        }
    }

    #[test]
    fn tables_match_the_oracle_stage_expressions_over_their_whole_domain() {
        for config in CONFIGS {
            let conv = HwColorConverter::new(config);
            let oracle = Oracle::new(config);
            assert_eq!(conv.gamma, oracle.gamma);
            assert_eq!(conv.matrix, oracle.matrix);
            let pscale = (1i64 << config.pwl_frac_bits) as f64;
            let gmax = 1i64 << config.gamma_frac_bits;
            assert_eq!(conv.compand.len() as i64, gmax + 1);
            for (s, e) in (0..=gmax).zip(&conv.compand) {
                let f = oracle.compand(s);
                assert_eq!(e.code as f64 / pscale, f, "{config:?}: companding at s={s}");
                assert_eq!(
                    e.l8,
                    Oracle::encode([0.0, f, 0.0])[0],
                    "{config:?}: L at s={s}"
                );
            }
            // Each difference d, realised by two codes of the table's range.
            let lo = conv.compand.iter().map(|e| e.code).min().unwrap();
            let hi = conv.compand.iter().map(|e| e.code).max().unwrap();
            assert_eq!(conv.span, hi - lo);
            assert_eq!(conv.a8.len(), 2 * conv.span as usize + 1);
            assert_eq!(conv.b8.len(), conv.a8.len());
            for d in -conv.span..=conv.span {
                let (p, q) = (
                    f64::from(lo + d.max(0)) / pscale,
                    f64::from(lo + (-d).max(0)) / pscale,
                );
                let i = (d + conv.span) as usize;
                assert_eq!(
                    conv.a8[i],
                    Oracle::encode([p, q, 0.0])[1],
                    "{config:?}: a at {d}"
                );
                assert_eq!(
                    conv.b8[i],
                    Oracle::encode([0.0, p, q])[2],
                    "{config:?}: b at {d}"
                );
            }
        }
    }

    #[test]
    fn strided_cube_is_bit_identical_to_the_oracle() {
        let pixels = strided_cube(5);
        for config in CONFIGS {
            assert_matches_oracle(
                &HwColorConverter::new(config),
                &Oracle::new(config),
                &pixels,
            );
        }
    }

    #[test]
    fn corrupted_gamma_entries_match_the_oracle_with_the_same_corruption() {
        // Flips that stay in range, go negative (clamped to s = 0), and
        // overshoot the table (clamped to s = 2^gamma_frac).
        let mut conv = HwColorConverter::paper_default();
        let mut oracle = Oracle::new(HwColorConfig::default());
        for (code, mask) in [
            (0u8, 1 << 11),
            (35, 0x7ff),
            (125, -1),
            (200, 1 << 30),
            (255, 1),
        ] {
            conv.corrupt_gamma_entry(code, mask);
            oracle.gamma.corrupt(code, mask);
        }
        assert_matches_oracle(&conv, &oracle, &strided_cube(5));
    }

    #[test]
    #[ignore = "full 256³ cube; run in release"]
    fn full_rgb_cube_is_bit_identical_to_the_oracle() {
        let conv = HwColorConverter::paper_default();
        let oracle = Oracle::new(HwColorConfig::default());
        let mut lab = Lab8Image::from_fn(256, 256, |_, _| [0; 3]);
        for r in 0..=255u8 {
            let img = RgbImage::from_fn(256, 256, |g, b| Rgb::new(r, g as u8, b as u8));
            conv.convert_image_into(&img, &mut lab);
            for g in 0..=255u8 {
                for b in 0..=255u8 {
                    let px = Rgb::new(r, g, b);
                    let want = oracle.convert(px);
                    assert_eq!(conv.convert(px), want, "convert diverged at {px:?}");
                    assert_eq!(
                        lab.pixel(usize::from(g), usize::from(b)),
                        want,
                        "convert_image_into diverged at {px:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn convert_image_into_matches_convert_image_bit_for_bit() {
        let img = RgbImage::from_fn(7, 5, |x, y| {
            Rgb::new((x * 31) as u8, (y * 47) as u8, ((x + y) * 13) as u8)
        });
        let conv = HwColorConverter::paper_default();
        let fresh = conv.convert_image(&img);
        let mut reused = Lab8Image::from_fn(7, 5, |_, _| [1; 3]);
        conv.convert_image_into(&img, &mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn black_and_white_are_exact() {
        let conv = HwColorConverter::paper_default();
        let black = conv.convert(Rgb::new(0, 0, 0));
        assert_eq!(black[0], 0);
        assert!((black[1] as i16 - 128).abs() <= 1);
        assert!((black[2] as i16 - 128).abs() <= 1);
        let white = conv.convert(Rgb::new(255, 255, 255));
        assert_eq!(white[0], 255);
    }

    #[test]
    fn tracks_float_reference_within_a_few_lsbs() {
        // The 8-segment PWL cube root has ≈0.009 max error; a* = 500(fx−fy)
        // amplifies it to at most ~±7 codes in the worst (dark, saturated)
        // corner of the cube. L* (116× then ×2.55 encode) stays within
        // ~3 codes. These bounds
        // are what make the paper's "only 0.003 larger USE at 8-bit" hold:
        // SLIC compares relative distances, so a few correlated LSBs of
        // channel error rarely flip a 9:1 minimum decision.
        let conv = HwColorConverter::paper_default();
        let err = conv.max_code_error_vs_float(15);
        assert!(err[0] <= 3, "L error {} too large", err[0]);
        assert!(err[1] <= 7, "a error {} too large", err[1]);
        assert!(err[2] <= 7, "b error {} too large", err[2]);
    }

    #[test]
    fn coarser_precision_increases_error() {
        let fine = HwColorConverter::paper_default();
        let coarse = HwColorConverter::new(HwColorConfig {
            gamma_frac_bits: 5,
            matrix_frac_bits: 5,
            pwl_segments: 2,
            pwl_frac_bits: 5,
        });
        let ef = fine.max_code_error_vs_float(25);
        let ec = coarse.max_code_error_vs_float(25);
        assert!(
            ec.iter().sum::<u8>() > ef.iter().sum::<u8>(),
            "coarse {ec:?} should be worse than fine {ef:?}"
        );
    }

    #[test]
    fn grey_axis_is_neutral_in_hw_path() {
        let conv = HwColorConverter::paper_default();
        for v in [16u8, 64, 128, 192, 240] {
            let [_, a, b] = conv.convert(Rgb::new(v, v, v));
            assert!((a as i16 - 128).abs() <= 1, "grey {v}: a={a}");
            assert!((b as i16 - 128).abs() <= 1, "grey {v}: b={b}");
        }
    }

    #[test]
    fn l_channel_monotone_on_grey_axis() {
        let conv = HwColorConverter::paper_default();
        let mut last = 0u8;
        for v in 0..=255u8 {
            let [l, _, _] = conv.convert(Rgb::new(v, v, v));
            assert!(l >= last, "hw L must be monotone on greys");
            last = l;
        }
    }

    #[test]
    fn convert_image_is_planar_and_matches_per_pixel() {
        let conv = HwColorConverter::paper_default();
        let img = RgbImage::from_fn(4, 3, |x, y| Rgb::new((x * 60) as u8, (y * 80) as u8, 128));
        let lab = conv.convert_image(&img);
        assert_eq!(lab.pixel(2, 1), conv.convert(img.pixel(2, 1)));
    }

    #[test]
    fn sixteen_bit_widths_are_accepted() {
        let config = HwColorConfig {
            gamma_frac_bits: 16,
            matrix_frac_bits: 16,
            pwl_segments: 8,
            pwl_frac_bits: 16,
        };
        let pixels: Vec<Rgb> = (0..=255u8).map(|v| Rgb::new(v, 255 - v, v / 2)).collect();
        assert_matches_oracle(
            &HwColorConverter::new(config),
            &Oracle::new(config),
            &pixels,
        );
    }

    #[test]
    #[should_panic(expected = "PWL segment")]
    fn zero_segments_panics() {
        let _ = HwColorConverter::new(HwColorConfig {
            pwl_segments: 0,
            ..HwColorConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one fraction bit")]
    fn zero_matrix_fraction_bits_panics() {
        let _ = HwColorConverter::new(HwColorConfig {
            matrix_frac_bits: 0,
            ..HwColorConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "above 16")]
    fn widths_above_16_bits_panic() {
        let _ = HwColorConverter::new(HwColorConfig {
            pwl_frac_bits: 17,
            ..HwColorConfig::default()
        });
    }
}
