//! The Cluster Update Unit and its parallelism design space (paper §6.2,
//! Table 3).
//!
//! The unit performs three functions per pixel: the 9 color-distance
//! calculations, the 9:1 minimum, and the 6-field sigma accumulation. Each
//! function is built either *iterative* (one ALU time-multiplexed over the
//! 9/6 elements) or *parallel* (fully unrolled and pipelined). The paper
//! names configurations by their ways, e.g. `9-9-6` = all three parallel.
//!
//! The latency model below reproduces Table 3's latency column exactly:
//!
//! | stage    | iterative | parallel |
//! |----------|-----------|----------|
//! | distance | 10        | 2        |
//! | minimum  | 10        | 3 (tree) |
//! | adder    | 6         | 1        |
//!
//! plus one issue cycle. Initiation interval (pixels/cycle) is set by the
//! slowest iterative stage: any 9-way-iterated stage limits the unit to
//! 1/9 pixel per cycle; an iterative adder alone would limit it to 1/6.

use crate::model;

/// Parallelism of one function of the Cluster Update Unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ways {
    /// One ALU iterated over the elements.
    Iterative,
    /// Fully unrolled, single-cycle initiation.
    Parallel,
}

/// A Cluster Update Unit configuration (one column of Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterUnitConfig {
    /// Distance-calculator function: iterative (1 way) or parallel
    /// (9 ways).
    pub distance: Ways,
    /// Minimum function: iterative (1 way) or a 9:1 comparator tree.
    pub minimum: Ways,
    /// Sigma adder bank: iterative (1 way) or 6 parallel adders.
    pub adder: Ways,
}

impl ClusterUnitConfig {
    /// The `1-1-1` all-iterative configuration.
    pub fn c1_1_1() -> Self {
        Self {
            distance: Ways::Iterative,
            minimum: Ways::Iterative,
            adder: Ways::Iterative,
        }
    }

    /// The `9-1-1` configuration (parallel distance only).
    pub fn c9_1_1() -> Self {
        Self {
            distance: Ways::Parallel,
            minimum: Ways::Iterative,
            adder: Ways::Iterative,
        }
    }

    /// The `1-9-1` configuration (parallel minimum tree only).
    pub fn c1_9_1() -> Self {
        Self {
            distance: Ways::Iterative,
            minimum: Ways::Parallel,
            adder: Ways::Iterative,
        }
    }

    /// The `1-1-6` configuration (parallel adder bank only).
    pub fn c1_1_6() -> Self {
        Self {
            distance: Ways::Iterative,
            minimum: Ways::Iterative,
            adder: Ways::Parallel,
        }
    }

    /// The `9-9-6` fully parallel configuration — the paper's choice.
    pub fn c9_9_6() -> Self {
        Self {
            distance: Ways::Parallel,
            minimum: Ways::Parallel,
            adder: Ways::Parallel,
        }
    }

    /// The five configurations of Table 3, in column order.
    pub fn table3() -> [ClusterUnitConfig; 5] {
        [
            Self::c1_1_1(),
            Self::c9_1_1(),
            Self::c1_9_1(),
            Self::c1_1_6(),
            Self::c9_9_6(),
        ]
    }

    /// The configuration's conventional name, e.g. `"9-9-6"`.
    pub fn name(&self) -> String {
        let d = if self.distance == Ways::Parallel { 9 } else { 1 };
        let m = if self.minimum == Ways::Parallel { 9 } else { 1 };
        let a = if self.adder == Ways::Parallel { 6 } else { 1 };
        format!("{d}-{m}-{a}")
    }

    /// Pipeline latency in cycles for one pixel (Table 3's latency row).
    pub fn latency_cycles(&self) -> u32 {
        let d = if self.distance == Ways::Parallel { 2 } else { 10 };
        let m = if self.minimum == Ways::Parallel { 3 } else { 10 };
        let a = if self.adder == Ways::Parallel { 1 } else { 6 };
        d + m + a + 1
    }

    /// Initiation interval in cycles per pixel: the slowest iterative
    /// stage bounds how often a new pixel can enter.
    pub fn initiation_interval(&self) -> u32 {
        let mut ii = 1;
        if self.distance == Ways::Iterative || self.minimum == Ways::Iterative {
            ii = ii.max(9);
        }
        if self.adder == Ways::Iterative {
            ii = ii.max(6);
        }
        ii
    }

    /// Sustained throughput in pixels per cycle (Table 3's throughput
    /// row).
    pub fn throughput_pixels_per_cycle(&self) -> f64 {
        1.0 / self.initiation_interval() as f64
    }

    /// Unit area in mm² (Table 3's area row). Component areas are fitted
    /// from the published rows: 0.0020 base; +0.0129 for 9 parallel
    /// distance calculators; +0.0003 for the comparator tree; +0.0005 for
    /// the adder bank.
    pub fn area_mm2(&self) -> f64 {
        let mut a = 0.0020;
        if self.distance == Ways::Parallel {
            a += 0.0129;
        }
        if self.minimum == Ways::Parallel {
            a += 0.0003;
        }
        if self.adder == Ways::Parallel {
            a += 0.0005;
        }
        a
    }

    /// Energy markup of this configuration relative to the all-iterative
    /// baseline: parallel distance calculators pay register/fanout energy
    /// (+9.2%), the comparator tree saves control energy (−3.6%), the
    /// adder bank saves a little (−1.5%). Fitted from Table 3's energy
    /// row.
    pub(crate) fn energy_factor(&self) -> f64 {
        let mut f = 1.0;
        if self.distance == Ways::Parallel {
            f *= 1.092;
        }
        if self.minimum == Ways::Parallel {
            f *= 0.964;
        }
        if self.adder == Ways::Parallel {
            f *= 0.985;
        }
        f
    }

    /// Per-stage occupancy in cycles `(distance, minimum, adder)` — the
    /// stage durations the latency model sums (used by the cycle-stepped
    /// pipeline trace).
    pub(crate) fn stage_cycles_for_trace(&self) -> (u64, u64, u64) {
        let d = if self.distance == Ways::Parallel { 2 } else { 10 };
        let m = if self.minimum == Ways::Parallel { 3 } else { 10 };
        let a = if self.adder == Ways::Parallel { 1 } else { 6 };
        (d, m, a)
    }

    /// Cycles to process one cluster-update iteration over `pixels`
    /// pixels, including per-tile pipeline fill (tiles of `tile_pixels`
    /// pixels each drain the pipeline and exchange sigma registers).
    pub(crate) fn iteration_cycles(&self, pixels: u64, tile_pixels: u64) -> f64 {
        let tiles = pixels.div_ceil(tile_pixels.max(1));
        pixels as f64 * self.initiation_interval() as f64
            + tiles as f64 * (self.latency_cycles() as f64 + SIGMA_EXCHANGE_CYCLES)
    }

    /// Time in milliseconds for one iteration over `pixels` pixels
    /// (Table 3's time row; the paper uses 4 kB channel buffers, i.e.
    /// 4096-pixel tiles).
    pub(crate) fn iteration_time_ms(&self, pixels: u64) -> f64 {
        model::cycles_to_ms(self.iteration_cycles(pixels, 4096))
    }

    /// Energy in microjoules for one iteration over `pixels` pixels
    /// (Table 3's energy row).
    pub fn iteration_energy_uj(&self, pixels: u64) -> f64 {
        pixels as f64 * model::OPS_PER_PIXEL_ITER * model::E_OP_AVG_PJ * self.energy_factor()
            * 1e-6
    }

    /// Average power in milliwatts while processing (Table 3's power row:
    /// energy over time).
    pub(crate) fn power_mw(&self, pixels: u64) -> f64 {
        self.iteration_energy_uj(pixels) / self.iteration_time_ms(pixels)
    }
}

/// Cycles to exchange the 9 sigma registers (6 fields each) with the
/// center-update unit at each tile boundary.
pub(crate) const SIGMA_EXCHANGE_CYCLES: f64 = 54.0;

/// The paper's evaluation pixel count (one 1920×1080 frame).
pub const FULL_HD_PIXELS: u64 = 1920 * 1080;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_columns() {
        let names: Vec<String> = ClusterUnitConfig::table3()
            .iter()
            .map(|c| c.name())
            .collect();
        assert_eq!(names, ["1-1-1", "9-1-1", "1-9-1", "1-1-6", "9-9-6"]);
    }

    #[test]
    fn latency_matches_table3_exactly() {
        let lat: Vec<u32> = ClusterUnitConfig::table3()
            .iter()
            .map(|c| c.latency_cycles())
            .collect();
        assert_eq!(lat, [27, 19, 20, 22, 7]);
    }

    #[test]
    fn throughput_matches_table3() {
        let tp: Vec<f64> = ClusterUnitConfig::table3()
            .iter()
            .map(|c| c.throughput_pixels_per_cycle())
            .collect();
        assert_eq!(tp, [1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0, 1.0]);
    }

    #[test]
    fn area_matches_table3_within_rounding() {
        let paper = [0.0020, 0.0149, 0.0023, 0.0025, 0.0156];
        for (cfg, &expect) in ClusterUnitConfig::table3().iter().zip(&paper) {
            let got = cfg.area_mm2();
            assert!(
                (got - expect).abs() <= 0.0002,
                "{}: {got} vs paper {expect}",
                cfg.name()
            );
        }
    }

    #[test]
    fn iteration_time_matches_table3() {
        // Paper: 11.8 ms iterative, 1.3 ms fully parallel at 1080p.
        let t111 = ClusterUnitConfig::c1_1_1().iteration_time_ms(FULL_HD_PIXELS);
        let t996 = ClusterUnitConfig::c9_9_6().iteration_time_ms(FULL_HD_PIXELS);
        assert!((t111 - 11.8).abs() < 0.2, "1-1-1 time {t111} ms");
        assert!((t996 - 1.3).abs() < 0.1, "9-9-6 time {t996} ms");
    }

    #[test]
    fn iteration_energy_matches_table3() {
        let paper = [38.9, 42.5, 37.5, 38.3, 40.6];
        for (cfg, &expect) in ClusterUnitConfig::table3().iter().zip(&paper) {
            let got = cfg.iteration_energy_uj(FULL_HD_PIXELS);
            assert!(
                (got - expect).abs() / expect < 0.02,
                "{}: {got} µJ vs paper {expect}",
                cfg.name()
            );
        }
    }

    #[test]
    fn power_matches_table3() {
        let paper = [3.3, 3.6, 3.2, 3.25, 30.9];
        for (cfg, &expect) in ClusterUnitConfig::table3().iter().zip(&paper) {
            let got = cfg.power_mw(FULL_HD_PIXELS);
            assert!(
                (got - expect).abs() / expect < 0.06,
                "{}: {got} mW vs paper {expect}",
                cfg.name()
            );
        }
    }

    #[test]
    fn paper_tradeoff_9_9_6_vs_1_1_1() {
        // "The 9-9-6 way design is 7.8× higher area and 9.4× higher power
        // … However it offers 9× increase in throughput."
        let base = ClusterUnitConfig::c1_1_1();
        let full = ClusterUnitConfig::c9_9_6();
        let area_ratio = full.area_mm2() / base.area_mm2();
        let power_ratio = full.power_mw(FULL_HD_PIXELS) / base.power_mw(FULL_HD_PIXELS);
        let tp_ratio =
            full.throughput_pixels_per_cycle() / base.throughput_pixels_per_cycle();
        assert!((area_ratio - 7.8).abs() < 0.3, "area ratio {area_ratio}");
        assert!((power_ratio - 9.4).abs() < 0.6, "power ratio {power_ratio}");
        assert_eq!(tp_ratio, 9.0);
    }

    #[test]
    fn imbalanced_designs_gain_no_throughput() {
        // 9-1-1, 1-9-1, 1-1-6 pay area without throughput: the paper's
        // reason to exclude them.
        for cfg in [
            ClusterUnitConfig::c9_1_1(),
            ClusterUnitConfig::c1_9_1(),
            ClusterUnitConfig::c1_1_6(),
        ] {
            assert_eq!(
                cfg.throughput_pixels_per_cycle(),
                ClusterUnitConfig::c1_1_1().throughput_pixels_per_cycle(),
                "{} should not beat 1-1-1 throughput",
                cfg.name()
            );
            assert!(cfg.area_mm2() > ClusterUnitConfig::c1_1_1().area_mm2());
        }
    }

    #[test]
    fn energy_is_nearly_flat_across_configs() {
        // The paper's observation: parallelism changes time and power but
        // energy "only marginally" — within ±10% of the baseline.
        let base = ClusterUnitConfig::c1_1_1().iteration_energy_uj(FULL_HD_PIXELS);
        for cfg in ClusterUnitConfig::table3() {
            let e = cfg.iteration_energy_uj(FULL_HD_PIXELS);
            assert!(
                (e - base).abs() / base < 0.10,
                "{} energy {e} deviates from {base}",
                cfg.name()
            );
        }
    }

    #[test]
    fn tile_fill_overhead_is_small_but_positive() {
        let cfg = ClusterUnitConfig::c9_9_6();
        let no_tiles = FULL_HD_PIXELS as f64; // ideal: 1 px/cycle
        let with_tiles = cfg.iteration_cycles(FULL_HD_PIXELS, 4096);
        assert!(with_tiles > no_tiles);
        assert!(with_tiles < no_tiles * 1.05, "fill overhead under 5%");
    }
}
