use sslic_fixed::Quantizer;

use crate::Cluster;

/// Numeric mode of the color-space distance datapath (Eq. 5).
///
/// The paper's Eq. 5 contains a typo (`(d_s²/S)²`); like the SLIC reference
/// implementation we compute
///
/// ```text
/// D² = d_c² + m² · d_s² / S²
/// ```
///
/// and compare squared distances (monotone in `D`, so the assignment is
/// identical and no square root is needed in the float path).
///
/// [`DistanceMode::Quantized`] models the accelerator's reduced-precision
/// datapath for the §6.1 bit-width exploration: channel values are
/// truncated to `channel_bits` and the distance output — what the 9:1
/// minimum unit actually compares — is a `distance_bits`-wide code of
/// `D` ("Each unit … returns the 8-bit distance", paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceMode {
    /// Full-precision floating point (the "64-bit" end of §6.1).
    #[default]
    Float,
    /// Reduced-precision fixed point.
    Quantized {
        /// Bits kept per L/a/b channel sample (≤ 8; the scratchpads store
        /// bytes, narrower widths truncate LSBs).
        channel_bits: u8,
        /// Bit width of the distance code compared by the minimum unit.
        distance_bits: u8,
    },
}

impl DistanceMode {
    /// The paper's single-knob precision sweep: an `bits`-wide datapath
    /// (channels saturate at 8 bits, the scratchpad word size).
    pub fn quantized(bits: u8) -> Self {
        DistanceMode::Quantized {
            channel_bits: bits.min(8),
            distance_bits: bits,
        }
    }

    /// Whether this mode requires the 8-bit CIELAB image.
    pub fn is_quantized(&self) -> bool {
        matches!(self, DistanceMode::Quantized { .. })
    }
}

/// Float-path squared distance of Eq. 5 (compared without the square
/// root).
#[inline]
pub fn dist2_float(
    px: [f32; 3],
    (x, y): (f32, f32),
    c: &Cluster,
    m2_over_s2: f32,
) -> f32 {
    let dl = px[0] - c.l;
    let da = px[1] - c.a;
    let db = px[2] - c.b;
    let dx = x - c.x;
    let dy = y - c.y;
    dl * dl + da * da + db * db + m2_over_s2 * (dx * dx + dy * dy)
}

/// A cluster center rounded into the quantized datapath's representation:
/// 8-bit Lab codes (truncated to the channel width) and integer position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterCodes {
    /// Truncated scratchpad code of the center's `L*`.
    pub l: i32,
    /// Truncated scratchpad code of the center's `a*`.
    pub a: i32,
    /// Truncated scratchpad code of the center's `b*`.
    pub b: i32,
    /// Center column, rounded to an integer.
    pub x: i32,
    /// Center row, rounded to an integer.
    pub y: i32,
}

/// The quantized-distance kernel of the accelerator datapath.
#[derive(Debug, Clone)]
pub struct QuantKernel {
    chan_shift: u32,
    quantizer: Quantizer,
    m2_over_s2: f64,
}

impl QuantKernel {
    /// Builds the kernel for compactness `m` and grid spacing `s`.
    pub fn new(channel_bits: u8, distance_bits: u8, m: f32, s: f32) -> Self {
        assert!((1..=8).contains(&channel_bits), "channel_bits must be 1..=8");
        assert!(
            (1..=16).contains(&distance_bits),
            "distance_bits must be 1..=16"
        );
        let m2_over_s2 = (m as f64 * m as f64) / (s as f64 * s as f64);
        // Worst-case distance over a 9-neighborhood, in Lab units:
        // ΔL ≤ 100, Δa/Δb ≤ 255, spatial distance up to ~3S per axis.
        let dmax = (100.0f64 * 100.0
            + 2.0 * 255.0f64 * 255.0
            + m2_over_s2 * 18.0 * (s as f64) * (s as f64))
            .sqrt();
        QuantKernel {
            chan_shift: 8 - channel_bits as u32,
            quantizer: Quantizer::new(distance_bits, 0.0, dmax),
            m2_over_s2,
        }
    }

    /// Truncates an 8-bit channel code to the datapath width (LSB drop,
    /// then shift back so magnitudes stay comparable).
    #[inline]
    pub fn truncate_channel(&self, code: u8) -> i32 {
        ((code as i32) >> self.chan_shift) << self.chan_shift
    }

    /// Rounds a cluster into datapath codes (Lab via the scratchpad
    /// encoding, position to integers).
    pub fn encode_cluster(&self, c: &Cluster) -> ClusterCodes {
        let [l8, a8, b8] = sslic_color::lab8::encode([c.l as f64, c.a as f64, c.b as f64]);
        ClusterCodes {
            l: self.truncate_channel(l8),
            a: self.truncate_channel(a8),
            b: self.truncate_channel(b8),
            x: c.x.round() as i32,
            y: c.y.round() as i32,
        }
    }

    /// Channel-truncation shift (`8 - channel_bits`); the SWAR kernel
    /// derives its replicated per-lane truncation mask from this.
    #[inline]
    pub(crate) fn chan_shift(&self) -> u32 {
        self.chan_shift
    }

    /// The distance-code quantizer, exposed so the SWAR kernel can build
    /// its code-threshold table against the exact encoder the scalar path
    /// uses (bit-identity depends on sharing the oracle).
    #[inline]
    pub(crate) fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The Eq. 5 spatial weight `m²/S²` in f64, matching the scalar
    /// `dist_code` expression exactly.
    #[inline]
    pub(crate) fn m2_over_s2(&self) -> f64 {
        self.m2_over_s2
    }

    /// The distance code the 9:1 minimum unit compares for one
    /// pixel/center pair. Monotone in the real distance up to the code
    /// resolution.
    ///
    /// Channel differences are rescaled from the scratchpad encoding back
    /// into Lab units (`ΔL = Δl8 · 100/255`) so the quantized datapath
    /// optimizes the same Eq. 5 objective as the float path — only the
    /// precision differs, which is exactly the knob §6.1 sweeps.
    #[inline]
    pub fn dist_code(&self, px: [u8; 3], (x, y): (i32, i32), c: &ClusterCodes) -> u32 {
        const L_SCALE: f64 = 100.0 / 255.0;
        let dl = (self.truncate_channel(px[0]) - c.l) as f64 * L_SCALE;
        let da = (self.truncate_channel(px[1]) - c.a) as f64;
        let db = (self.truncate_channel(px[2]) - c.b) as f64;
        let dx = (x - c.x) as f64;
        let dy = (y - c.y) as f64;
        let dc2 = dl * dl + da * da + db * db;
        let ds2 = dx * dx + dy * dy;
        self.quantizer.encode((dc2 + self.m2_over_s2 * ds2).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_float() {
        assert_eq!(DistanceMode::default(), DistanceMode::Float);
        assert!(!DistanceMode::Float.is_quantized());
    }

    #[test]
    fn quantized_constructor_clamps_channel_bits() {
        let m = DistanceMode::quantized(12);
        assert_eq!(
            m,
            DistanceMode::Quantized {
                channel_bits: 8,
                distance_bits: 12
            }
        );
        assert!(m.is_quantized());
    }

    #[test]
    fn float_distance_is_zero_at_center() {
        let c = Cluster::new(50.0, 10.0, -10.0, 5.0, 5.0);
        let d = dist2_float([50.0, 10.0, -10.0], (5.0, 5.0), &c, 0.25);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn float_distance_weights_space_by_m_over_s() {
        let c = Cluster::new(0.0, 0.0, 0.0, 0.0, 0.0);
        let near = dist2_float([0.0; 3], (1.0, 0.0), &c, 0.25);
        let far = dist2_float([0.0; 3], (2.0, 0.0), &c, 0.25);
        assert_eq!(near, 0.25);
        assert_eq!(far, 1.0);
    }

    #[test]
    fn quant_kernel_zero_distance_at_center() {
        let k = QuantKernel::new(8, 8, 10.0, 20.0);
        let c = ClusterCodes {
            l: 100,
            a: 128,
            b: 128,
            x: 10,
            y: 10,
        };
        assert_eq!(k.dist_code([100, 128, 128], (10, 10), &c), 0);
    }

    #[test]
    fn quant_distance_monotone_in_color_difference() {
        let k = QuantKernel::new(8, 8, 10.0, 20.0);
        let c = ClusterCodes {
            l: 0,
            a: 128,
            b: 128,
            x: 0,
            y: 0,
        };
        let d1 = k.dist_code([60, 128, 128], (0, 0), &c);
        let d2 = k.dist_code([200, 128, 128], (0, 0), &c);
        assert!(d2 > d1);
    }

    #[test]
    fn narrow_channels_truncate_lsbs() {
        let k = QuantKernel::new(4, 8, 10.0, 20.0);
        assert_eq!(k.truncate_channel(0b1011_0110), 0b1011_0000);
        assert_eq!(k.truncate_channel(0b0000_1111), 0);
    }

    #[test]
    fn eight_bit_channels_are_lossless() {
        let k = QuantKernel::new(8, 8, 10.0, 20.0);
        for v in [0u8, 1, 127, 254, 255] {
            assert_eq!(k.truncate_channel(v), v as i32);
        }
    }

    #[test]
    fn fewer_distance_bits_coarsen_codes() {
        let k8 = QuantKernel::new(8, 8, 10.0, 20.0);
        let k4 = QuantKernel::new(8, 4, 10.0, 20.0);
        let c = ClusterCodes {
            l: 0,
            a: 128,
            b: 128,
            x: 0,
            y: 0,
        };
        // Two nearby color differences distinguished at 8 bits may collide
        // at 4 bits.
        let a8 = k8.dist_code([10, 128, 128], (0, 0), &c);
        let b8 = k8.dist_code([14, 128, 128], (0, 0), &c);
        let a4 = k4.dist_code([10, 128, 128], (0, 0), &c);
        let b4 = k4.dist_code([14, 128, 128], (0, 0), &c);
        assert!(b8 > a8);
        assert_eq!(a4, b4, "4-bit codes collide for nearby distances");
    }

    #[test]
    fn encode_cluster_rounds_position() {
        let k = QuantKernel::new(8, 8, 10.0, 20.0);
        let c = Cluster::new(50.0, 0.0, 0.0, 10.6, 3.2);
        let codes = k.encode_cluster(&c);
        assert_eq!(codes.x, 11);
        assert_eq!(codes.y, 3);
        assert_eq!(codes.a, 128); // a* = 0 encodes to 128
    }

    #[test]
    #[should_panic(expected = "channel_bits")]
    fn zero_channel_bits_panics() {
        let _ = QuantKernel::new(0, 8, 10.0, 20.0);
    }
}
