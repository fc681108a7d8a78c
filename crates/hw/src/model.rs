//! Global technology, clock, energy, and area constants of the 16 nm
//! FinFET design point, and how they were obtained.
//!
//! Every constant in this module is either (a) stated in the paper, (b) a
//! standard value from Horowitz's ISSCC'14 energy survey scaled to 16 nm,
//! or (c) **calibrated** — fitted so the model reproduces a number the
//! paper publishes. Calibrated constants are marked as such in their
//! documentation and revisited in `EXPERIMENTS.md`.

/// The design's clock frequency: 1.6 GHz (paper §5, "targeting 1.6GHz at
/// 0.72V").
pub(crate) const CLOCK_HZ: f64 = 1.6e9;

/// Supply voltage of the 16 nm design point (paper §5).
pub(crate) const VDD: f64 = 0.72;

/// Converts cycles at the design clock to milliseconds.
pub fn cycles_to_ms(cycles: f64) -> f64 {
    cycles / CLOCK_HZ * 1e3
}

/// Energy of one 8-bit integer add at 16 nm, in picojoules.
///
/// Horowitz (ISSCC'14) reports ~0.03 pJ at 45 nm; scaled by capacitance
/// and voltage to 16 nm this is ~0.01 pJ. All other operation energies are
/// expressed relative to this value, as the paper's §4.2 energy model does.
pub(crate) const E_ADD8_PJ: f64 = 0.010;

/// Energy per 8-bit DRAM reference relative to an 8-bit add: the paper's
/// §4.2 assumption, "the energy of an 8b DRAM reference is 2500x larger
/// \[than\] the energy of an 8b add".
pub(crate) const DRAM_REF_RELATIVE: f64 = 2500.0;

/// Energy per byte of DRAM traffic, in picojoules (`2500 × E_ADD8`).
pub(crate) const E_DRAM_BYTE_PJ: f64 = DRAM_REF_RELATIVE * E_ADD8_PJ;

/// Energy per byte of scratchpad SRAM access, in picojoules. Small SRAMs
/// run ~50× cheaper than DRAM per byte (Horowitz: 8 kB SRAM ≈ 10× an
/// 8-bit add per access).
pub(crate) const E_SRAM_BYTE_PJ: f64 = 10.0 * E_ADD8_PJ;

/// Average energy per datapath operation in the cluster-update pipeline,
/// in picojoules. **Calibrated**: Table 3's `1-1-1` row implies
/// 38.9 µJ / (2.07 Mpixel × 78 ops) ≈ 0.24 pJ per op including register
/// and wire overheads (a ~24× markup over a bare 8-bit add, typical for a
/// pipelined datapath with operand registers at 1.6 GHz).
pub(crate) const E_OP_AVG_PJ: f64 = 0.2406;

/// Datapath operations charged per pixel per cluster-update iteration:
/// 9 distances × 7 ops + 9 minimum compares + 6 sigma additions.
pub(crate) const OPS_PER_PIXEL_ITER: f64 = 9.0 * 7.0 + 9.0 + 6.0;

/// SRAM macro area at 16 nm in mm² per kilobyte. **Calibrated** from
/// Table 4: growing the four buffers from 1 kB to 4 kB each (+12 kB) adds
/// 0.066 − 0.053 = 0.013 mm², i.e. ≈ 0.00108 mm²/kB.
pub(crate) const SRAM_MM2_PER_KB: f64 = 0.00108;

/// Fixed (non-cluster, non-SRAM) logic area in mm²: color-conversion unit
/// (LUTs + multipliers), center-update unit (divider), FSM controller.
/// **Calibrated** so the full-HD configuration totals Table 4's 0.066 mm²:
/// `0.066 = 0.0157 (9-9-6 cluster) + 16 kB × SRAM_MM2_PER_KB + FIXED`.
pub(crate) mod area {
    /// Color-conversion unit (256-entry gamma LUT ×3, matrix multipliers,
    /// 8-segment PWL).
    pub(crate) const COLOR_CONV_MM2: f64 = 0.018;
    /// Center-update unit (sigma registers and iterative divider).
    pub(crate) const CENTER_UPDATE_MM2: f64 = 0.010;
    /// FSM host controller and glue.
    pub(crate) const FSM_MM2: f64 = 0.005;
    /// Sum of the fixed logic blocks.
    pub(crate) const FIXED_TOTAL_MM2: f64 = COLOR_CONV_MM2 + CENTER_UPDATE_MM2 + FSM_MM2;
}

/// Peak active power of the fixed-function units, in milliwatts, used with
/// per-unit utilizations to form average power (the paper's method:
/// "The power for each unit is computed using the peak active power … and
/// multiplying by the utilization"). **Calibrated** so the full-HD
/// configuration averages Table 4's 49 mW.
pub(crate) mod power {
    /// Color-conversion unit peak power.
    pub(crate) const COLOR_CONV_MW: f64 = 25.0;
    /// Center-update unit peak power.
    pub(crate) const CENTER_UPDATE_MW: f64 = 8.0;
    /// FSM controller (always on while a frame is in flight).
    pub(crate) const FSM_MW: f64 = 3.0;
    /// External-memory interface logic (PHY excluded, as the paper's 49 mW
    /// budget cannot contain DRAM device power — see `EXPERIMENTS.md`).
    pub(crate) const MEM_INTERFACE_MW: f64 = 10.0;
    /// Scratchpad power per kilobyte at full utilization
    /// ("We assume the external memory and scratch pads are at full
    /// utilization", §6.3).
    pub(crate) const SRAM_MW_PER_KB: f64 = 1.3;
}

/// Center-update latency per superpixel, in cycles: the center-update unit
/// iterates over its sigma registers computing five quotients with an
/// iterative divider, sequentially per field. **Calibrated** against
/// Table 4's cross-resolution latencies (the resolution-independent
/// component of frame time is ≈ 8.7 ms at K = 5000 × 9 iterations
/// → ≈ 310 cycles per superpixel update).
pub(crate) const CENTER_UPDATE_CYCLES_PER_SP: f64 = 310.0;

/// Pipeline fill of the color-conversion unit, in cycles, charged once per
/// tile on top of its one pixel per cycle (LUT read, matrix MACs, PWL
/// evaluate, encode).
pub(crate) const COLOR_CONV_LATENCY_CYCLES: f64 = 10.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_convert_at_the_design_clock() {
        let cycles = 1.6e6;
        assert!((cycles_to_ms(cycles) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dram_is_2500x_an_add() {
        assert_eq!(E_DRAM_BYTE_PJ / E_ADD8_PJ, 2500.0);
    }

    #[test]
    fn sram_is_far_cheaper_than_dram() {
        let ratio = E_DRAM_BYTE_PJ / E_SRAM_BYTE_PJ;
        assert!(ratio >= 50.0, "DRAM/SRAM energy ratio {ratio}");
    }

    #[test]
    fn calibrated_op_energy_reproduces_table3_energy() {
        // 1-1-1 configuration, one 1080p iteration: 38.9 µJ.
        let n = 1920.0 * 1080.0;
        let uj = n * OPS_PER_PIXEL_ITER * E_OP_AVG_PJ * 1e-6;
        assert!((uj - 38.9).abs() < 0.3, "got {uj} µJ");
    }

    #[test]
    fn fixed_area_calibration_closes_table4() {
        // 0.0157 (9-9-6) + 16 kB SRAM + fixed ≈ 0.066 mm².
        let total = 0.0157 + 16.0 * SRAM_MM2_PER_KB + area::FIXED_TOTAL_MM2;
        assert!((total - 0.066).abs() < 0.002, "got {total} mm²");
    }
}
