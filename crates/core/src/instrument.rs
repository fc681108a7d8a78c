//! Operation and memory-traffic accounting, reproducing the paper's
//! Table 2 analysis of the center- vs pixel-perspective architectures.
//!
//! The segmentation engine records raw event counts ([`RunCounters`])
//! during execution — distance evaluations, buffer reads/writes, center
//! register loads. A [`TrafficModel`] then converts events into bytes for a
//! given element-width convention (the software double-precision layout the
//! paper's CPU numbers reflect, or the accelerator's 8-bit layout).
//!
//! Operation counting follows the paper's convention: Table 2's
//! "58M OPs/iteration" (CPA) and "130M OPs/iteration" (PPA) at 1080p imply
//! ≈7 arithmetic operations per color-space distance (5 multiply-
//! accumulates for the squared differences, one scale, one combine), with
//! the CPA averaging 4 distance evaluations per pixel and the PPA exactly
//! 9 — hence the paper's 2.25× operation ratio, which [`RunCounters`]
//! reproduces by construction.

/// Predicts the exact number of distance evaluations a pixel-perspective
/// run will record (9 per pixel per step, over the subset schedule) —
/// the closed form behind Table 2's PPA row and a consistency oracle for
/// the measured [`RunCounters`].
///
/// # Example
///
/// ```
/// use sslic_core::instrument::predict_ppa_distance_calcs;
/// use sslic_core::subsample::SubsetStrategy;
///
/// // Full SLIC PPA, 1080p, one iteration: exactly 9N (Table 2).
/// let calls = predict_ppa_distance_calcs(
///     1920, 1080, 1, 1, SubsetStrategy::Interleaved);
/// assert_eq!(calls, 9 * 1920 * 1080);
/// ```
pub fn predict_ppa_distance_calcs(
    width: usize,
    height: usize,
    iterations: u32,
    subsets: u32,
    strategy: crate::subsample::SubsetStrategy,
) -> u64 {
    let part = crate::subsample::SubsetPartition::new(width, height, subsets, strategy);
    (0..iterations)
        .map(|t| part.subset_len(part.subset_for_step(t)) as u64 * 9)
        .sum()
}

/// Arithmetic operations charged per color-space distance evaluation
/// (Eq. 5): 5 fused multiply-accumulates (3 color + 2 spatial), one
/// `m²/S²` scale, one combine.
pub(crate) const OPS_PER_DISTANCE: u64 = 7;

/// Raw event counts recorded by the segmentation engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Color-space distance evaluations (Eq. 5).
    pub distance_calcs: u64,
    /// Pixel color fetches (one event = all three channels of one pixel).
    pub pixel_color_reads: u64,
    /// Reads of the minimum-distance buffer.
    pub dist_buffer_reads: u64,
    /// Writes to the minimum-distance buffer (on improvement).
    pub dist_buffer_writes: u64,
    /// Reads of the label (superpixel index) buffer.
    pub label_reads: u64,
    /// Writes to the label buffer.
    pub label_writes: u64,
    /// Cluster-center register loads (one event = one 5-field center).
    pub center_reads: u64,
    /// Sigma-register accumulations (one event = one 6-field update).
    pub sigma_updates: u64,
    /// Cluster centers recomputed from sigma registers.
    pub center_updates: u64,
    /// Center-update steps executed (sub-iterations for S-SLIC).
    pub sub_iterations: u64,
}

impl RunCounters {
    /// Operations in the distance datapath only (the paper's Table 2
    /// "operation count").
    pub fn distance_ops(&self) -> u64 {
        self.distance_calcs * OPS_PER_DISTANCE
    }
}

impl std::ops::AddAssign for RunCounters {
    fn add_assign(&mut self, rhs: RunCounters) {
        self.distance_calcs += rhs.distance_calcs;
        self.pixel_color_reads += rhs.pixel_color_reads;
        self.dist_buffer_reads += rhs.dist_buffer_reads;
        self.dist_buffer_writes += rhs.dist_buffer_writes;
        self.label_reads += rhs.label_reads;
        self.label_writes += rhs.label_writes;
        self.center_reads += rhs.center_reads;
        self.sigma_updates += rhs.sigma_updates;
        self.center_updates += rhs.center_updates;
        self.sub_iterations += rhs.sub_iterations;
    }
}

/// Bytes moved, split by direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBytes {
    /// Bytes read from memory.
    pub read: u64,
    /// Bytes written to memory.
    pub written: u64,
}

impl TrafficBytes {
    /// Total bytes in both directions.
    pub fn total(&self) -> u64 {
        self.read + self.written
    }

    /// Total traffic in megabytes (10⁶ bytes, the paper's unit).
    pub fn total_mb(&self) -> f64 {
        self.total() as f64 / 1e6
    }
}

/// Element widths used to convert [`RunCounters`] events into bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficModel {
    /// Bytes per color channel sample (×3 per pixel fetch).
    pub color_channel_bytes: u64,
    /// Bytes per minimum-distance buffer element.
    pub dist_bytes: u64,
    /// Bytes per label element.
    pub label_bytes: u64,
    /// Bytes per cluster-center field (×5 per center load).
    pub center_field_bytes: u64,
}

impl TrafficModel {
    /// The double-precision software layout of the paper's CPU baseline
    /// (Lab as `f64`, `f64` distances, `i32` labels).
    pub fn sw_double() -> Self {
        TrafficModel {
            color_channel_bytes: 8,
            dist_bytes: 8,
            label_bytes: 4,
            center_field_bytes: 8,
        }
    }

    /// A single-precision software layout (Lab as `f32`).
    pub(crate) fn sw_float() -> Self {
        TrafficModel {
            color_channel_bytes: 4,
            dist_bytes: 4,
            label_bytes: 4,
            center_field_bytes: 4,
        }
    }

    /// The accelerator's 8-bit layout (byte channels, byte distances,
    /// 16-bit labels for up to 64k superpixels).
    pub fn hw_8bit() -> Self {
        TrafficModel {
            color_channel_bytes: 1,
            dist_bytes: 1,
            label_bytes: 2,
            center_field_bytes: 1,
        }
    }

    /// Converts recorded events into bytes moved.
    pub fn bytes(&self, c: &RunCounters) -> TrafficBytes {
        TrafficBytes {
            read: c.pixel_color_reads * 3 * self.color_channel_bytes
                + c.dist_buffer_reads * self.dist_bytes
                + c.label_reads * self.label_bytes
                + c.center_reads * 5 * self.center_field_bytes,
            written: c.dist_buffer_writes * self.dist_bytes
                + c.label_writes * self.label_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_ops_match_paper_convention_at_1080p() {
        // CPA: 4 distance evaluations per pixel per iteration.
        let n = 1920u64 * 1080;
        let cpa = RunCounters {
            distance_calcs: 4 * n,
            ..RunCounters::default()
        };
        let mops = cpa.distance_ops() as f64 / 1e6;
        assert!((mops - 58.06).abs() < 0.1, "CPA ≈ 58M OPs, got {mops}M");

        // PPA: exactly 9 per pixel.
        let ppa = RunCounters {
            distance_calcs: 9 * n,
            ..RunCounters::default()
        };
        let mops = ppa.distance_ops() as f64 / 1e6;
        assert!((mops - 130.6).abs() < 0.2, "PPA ≈ 130M OPs, got {mops}M");
    }

    #[test]
    fn ppa_to_cpa_op_ratio_is_2_25() {
        let cpa = RunCounters {
            distance_calcs: 4,
            ..RunCounters::default()
        };
        let ppa = RunCounters {
            distance_calcs: 9,
            ..RunCounters::default()
        };
        let ratio = ppa.distance_ops() as f64 / cpa.distance_ops() as f64;
        assert_eq!(ratio, 2.25);
    }

    #[test]
    fn add_assign_accumulates_all_fields() {
        let mut a = RunCounters::default();
        let b = RunCounters {
            distance_calcs: 1,
            pixel_color_reads: 2,
            dist_buffer_reads: 3,
            dist_buffer_writes: 4,
            label_reads: 5,
            label_writes: 6,
            center_reads: 7,
            sigma_updates: 8,
            center_updates: 9,
            sub_iterations: 10,
        };
        a += b;
        a += b;
        assert_eq!(a.distance_calcs, 2);
        assert_eq!(a.sub_iterations, 20);
        assert_eq!(a.center_reads, 14);
    }

    #[test]
    fn traffic_model_converts_events_to_bytes() {
        let c = RunCounters {
            pixel_color_reads: 10, // 10 pixels × 3 channels
            dist_buffer_reads: 4,
            dist_buffer_writes: 2,
            label_reads: 1,
            label_writes: 3,
            center_reads: 2, // 2 centers × 5 fields
            ..RunCounters::default()
        };
        let m = TrafficModel::sw_float();
        let t = m.bytes(&c);
        assert_eq!(t.read, 10 * 3 * 4 + 4 * 4 + 4 + 2 * 5 * 4);
        assert_eq!(t.written, 2 * 4 + 3 * 4);
        assert_eq!(t.total(), t.read + t.written);
    }

    #[test]
    fn hw_model_is_an_order_of_magnitude_leaner_than_sw() {
        let c = RunCounters {
            pixel_color_reads: 1000,
            dist_buffer_reads: 1000,
            dist_buffer_writes: 500,
            label_writes: 1000,
            ..RunCounters::default()
        };
        let sw = TrafficModel::sw_double().bytes(&c).total();
        let hw = TrafficModel::hw_8bit().bytes(&c).total();
        assert!(sw > 5 * hw, "sw={sw} hw={hw}");
    }

    #[test]
    fn traffic_mb_uses_decimal_megabytes() {
        let t = TrafficBytes {
            read: 500_000,
            written: 500_000,
        };
        assert_eq!(t.total_mb(), 1.0);
    }
}
