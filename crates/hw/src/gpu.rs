//! The GPU baselines of Table 5 and the technology-normalization
//! arithmetic.
//!
//! The paper compares the accelerator against measured SLIC runs on a
//! server GPU (Tesla K20) and a mobile SoC GPU (Tegra K1), both 28 nm
//! parts. To compare energy fairly against the 16 nm accelerator, GPU
//! power is divided by a 28→16 nm scaling factor of 2.2 (×1.25 for
//! voltage², ×1.75 for capacitance — §7).

use crate::sim::FrameReport;

/// 28 nm → 16 nm power normalization: ×1.25 (voltage²) × 1.75
/// (capacitance) = 2.1875, which the paper rounds to 2.2.
pub const TECH_NORMALIZATION: f64 = 1.25 * 1.75;

/// One measured GPU baseline (a column of Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuBaseline {
    /// Device name.
    pub name: &'static str,
    /// Algorithm run on it.
    pub algorithm: &'static str,
    /// Process node in nanometres.
    pub technology_nm: u32,
    /// Supply voltage.
    pub vdd: f64,
    /// On-chip storage in kilobytes (register files + scratchpad + L1 +
    /// L2).
    pub on_chip_kb: u32,
    /// CUDA core count.
    pub cores: u32,
    /// Measured average power in watts.
    pub avg_power_w: f64,
    /// Measured frame latency in milliseconds (1080p, K = 5000).
    pub latency_ms: f64,
}

impl GpuBaseline {
    /// The NVIDIA Tesla K20 column of Table 5.
    pub fn tesla_k20() -> Self {
        GpuBaseline {
            name: "Tesla K20",
            algorithm: "SLIC",
            technology_nm: 28,
            vdd: 0.81,
            on_chip_kb: 6320,
            cores: 2496,
            avg_power_w: 86.0,
            latency_ms: 22.3,
        }
    }

    /// The NVIDIA Tegra K1 (mobile) column of Table 5.
    pub fn tegra_k1() -> Self {
        GpuBaseline {
            name: "TK1",
            algorithm: "SLIC",
            technology_nm: 28,
            vdd: 0.81,
            on_chip_kb: 368,
            cores: 192,
            avg_power_w: 0.332,
            latency_ms: 2713.0,
        }
    }

    /// Both baselines, in Table 5 column order.
    pub fn table5() -> [GpuBaseline; 2] {
        [Self::tesla_k20(), Self::tegra_k1()]
    }

    /// Power normalized to the accelerator's 16 nm node, in watts.
    pub fn normalized_power_w(&self) -> f64 {
        self.avg_power_w / TECH_NORMALIZATION
    }

    /// Technology-normalized energy per frame in millijoules (Table 5's
    /// bottom row).
    pub fn normalized_energy_mj(&self) -> f64 {
        self.normalized_power_w() * self.latency_ms
    }
}

/// Energy-efficiency advantage of the accelerator over `gpu`, both
/// technology-normalized (the paper's headline ratios: >500× vs K20,
/// >250× vs TK1).
pub fn efficiency_ratio(gpu: &GpuBaseline, accel: &FrameReport) -> f64 {
    gpu.normalized_energy_mj() / accel.energy_mj_per_frame()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FrameSimulator, Resolution};

    #[test]
    fn normalization_factor_is_2_2() {
        assert!((TECH_NORMALIZATION - 2.1875).abs() < 1e-12);
    }

    #[test]
    fn k20_normalized_energy_matches_table5() {
        // Paper: 867 mJ/frame normalized.
        let e = GpuBaseline::tesla_k20().normalized_energy_mj();
        assert!((e - 867.0).abs() < 15.0, "K20 normalized energy {e} mJ");
    }

    #[test]
    fn tk1_normalized_energy_matches_table5() {
        // Paper: 407 mJ/frame normalized.
        let e = GpuBaseline::tegra_k1().normalized_energy_mj();
        assert!((e - 407.0).abs() < 8.0, "TK1 normalized energy {e} mJ");
    }

    #[test]
    fn normalized_power_rows_match_table5() {
        // Paper: 39 W and 150 mW.
        let k20 = GpuBaseline::tesla_k20().normalized_power_w();
        let tk1 = GpuBaseline::tegra_k1().normalized_power_w();
        assert!((k20 - 39.0).abs() < 1.0, "K20 normalized {k20} W");
        assert!((tk1 * 1000.0 - 150.0).abs() < 5.0, "TK1 normalized {tk1} W");
    }

    #[test]
    fn k20_is_real_time_but_tk1_misses_by_80x() {
        assert!(GpuBaseline::tesla_k20().latency_ms <= 1000.0 / 30.0);
        let tk1 = GpuBaseline::tegra_k1();
        // "misses the real-time frame rate by a factor of 80"
        let factor = tk1.latency_ms / (1000.0 / 30.0);
        assert!((factor - 81.0).abs() < 2.0, "TK1 misses by {factor}×");
    }

    #[test]
    fn headline_efficiency_ratios() {
        let accel = FrameSimulator::paper_default(Resolution::FULL_HD).simulate();
        let vs_k20 = efficiency_ratio(&GpuBaseline::tesla_k20(), &accel);
        let vs_tk1 = efficiency_ratio(&GpuBaseline::tegra_k1(), &accel);
        assert!(vs_k20 > 500.0, "vs K20: {vs_k20}× (paper: over 500×)");
        assert!(vs_tk1 > 250.0, "vs TK1: {vs_tk1}× (paper: over 250×)");
        // Sanity ceiling: within ~25% of the paper's exact ratios.
        assert!((vs_k20 - 542.0).abs() / 542.0 < 0.25);
        assert!((vs_tk1 - 254.0).abs() / 254.0 < 0.25);
    }

    #[test]
    fn accelerator_on_chip_storage_is_hundreds_of_times_smaller() {
        // Table 5: 6320 kB (K20) and 368 kB (TK1) vs 20 kB.
        let accel_kb = 20;
        assert!(GpuBaseline::tesla_k20().on_chip_kb / accel_kb >= 300);
        assert!(GpuBaseline::tegra_k1().on_chip_kb / accel_kb >= 18);
    }
}
