//! The frame-level analytic performance/energy model behind Figure 6 and
//! Tables 4–5.
//!
//! A frame is processed in four sequential components (the paper's §7
//! decomposition):
//!
//! 1. **Color conversion** — one pixel per cycle through the LUT unit.
//! 2. **Cluster-update compute** — `iterations` passes of the Cluster
//!    Update Unit at its configuration's initiation interval, with
//!    per-tile pipeline fill and sigma exchange.
//! 3. **Center update** — the iterative divider walking all `K` sigma
//!    registers per iteration (resolution-independent; this is why the
//!    paper's VGA latency is nowhere near 6.7× faster than full HD).
//! 4. **Memory** — all DRAM traffic at effective bandwidth plus a 50-cycle
//!    latency per tile burst; shrinking the channel buffers multiplies the
//!    bursts, which is the Figure 6 effect.
//!
//! At the paper's design point (full HD, K = 5000, 9 iterations, 9-9-6
//! unit, 4 kB buffers) the model reproduces §7's numbers: ≈1.3 ms color
//! conversion, ≈20.5 ms cluster compute, ≈11.1 ms memory, ≈33 ms total —
//! just over 30 frames per second.

use crate::cluster::ClusterUnitConfig;
use crate::dram::{DramModel, DramTraffic};
use crate::model;
use crate::scratchpad::ScratchpadSet;

/// An image geometry with a display name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Display name ("1920×1080", …).
    pub name: &'static str,
}

impl Resolution {
    /// Full HD, the paper's primary evaluation point.
    pub const FULL_HD: Resolution = Resolution {
        width: 1920,
        height: 1080,
        name: "1920x1080",
    };
    /// The paper's 720p-class geometry (Table 4 uses 1280×768).
    pub const HD720: Resolution = Resolution {
        width: 1280,
        height: 768,
        name: "1280x768",
    };
    /// VGA.
    pub const VGA: Resolution = Resolution {
        width: 640,
        height: 480,
        name: "640x480",
    };

    /// The three Table 4 resolutions.
    pub const TABLE4: [Resolution; 3] = [Self::FULL_HD, Self::HD720, Self::VGA];

    /// Pixel count.
    pub fn pixels(&self) -> u64 {
        (self.width * self.height) as u64
    }
}

/// Pipeline latency of the color-conversion unit in cycles (LUT read,
/// matrix MACs, PWL evaluate, encode).
const COLOR_CONV_LATENCY: f64 = 10.0;

/// The frame-level analytic simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSimulator {
    resolution: Resolution,
    superpixels: usize,
    iterations: u32,
    subsets: u32,
    cluster_config: ClusterUnitConfig,
    buffer_bytes_per_channel: usize,
    dram: DramModel,
    cores: u32,
    clock_hz: f64,
}

impl FrameSimulator {
    /// The paper's configuration for `resolution`: K = 5000, 9 iterations,
    /// the 9-9-6 Cluster Update Unit, and the Table 4 buffer size (4 kB at
    /// full HD, 1 kB below).
    pub fn paper_default(resolution: Resolution) -> Self {
        let buffer = if resolution.pixels() >= Resolution::FULL_HD.pixels() {
            4 * 1024
        } else {
            1024
        };
        FrameSimulator {
            resolution,
            superpixels: 5000,
            iterations: 9,
            subsets: 1,
            cluster_config: ClusterUnitConfig::c9_9_6(),
            buffer_bytes_per_channel: buffer,
            dram: DramModel::default(),
            cores: 1,
            clock_hz: model::CLOCK_HZ,
        }
    }

    /// Overrides the superpixel count `K`.
    ///
    /// # Panics
    ///
    /// [`FrameSimulator::simulate`] panics if the value is zero.
    pub fn with_superpixels(mut self, k: usize) -> Self {
        self.superpixels = k;
        self
    }

    /// Overrides the iteration count.
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations;
        self
    }

    /// Sets the S-SLIC subsampling factor `P`: each center-update step
    /// touches `1/P` of the pixels (and their memory traffic). `1` models
    /// full-image SLIC iterations, the assumption behind the paper's
    /// Table 4/§7 latency numbers; `2` is the S-SLIC (0.5) configuration
    /// whose 1.8× bandwidth saving the abstract quotes.
    pub fn with_subsets(mut self, subsets: u32) -> Self {
        self.subsets = subsets.max(1);
        self
    }

    /// Sets the per-channel scratchpad size in bytes (the Fig. 6 knob).
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`: the DRAM model streams the frame in
    /// buffer-sized tiles.
    pub fn with_buffer_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "buffer size must be nonzero");
        self.buffer_bytes_per_channel = bytes;
        self
    }

    /// Sets the core count — the "number of cores" axis of the paper's §5
    /// design-space exploration (Table 4 selects 1). Cores tile-parallelize
    /// color conversion and cluster-update assignment; each core carries
    /// its own Cluster Update Unit and scratchpad set. The center update
    /// and the shared DRAM channel stay serial, so scaling is Amdahl-bound.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Sets the core clock in GHz — §6.3: the architecture "can scale
    /// gracefully down to lower resolution image streams by reducing the
    /// buffer sizes and ultimately reducing the clock rate". DVFS is
    /// modeled with a linear voltage curve `V(f) = VDD·(0.55 + 0.45·f/f₀)`
    /// so dynamic power scales as `(f/f₀)·(V/V₀)²`. DRAM timing is set by
    /// the memory device, not the core clock, so memory time is unchanged.
    pub fn with_clock_ghz(mut self, ghz: f64) -> Self {
        assert!(ghz > 0.0, "clock must be positive");
        self.clock_hz = ghz * 1e9;
        self
    }

    /// The configured core clock in GHz.
    pub fn clock_ghz(&self) -> f64 {
        self.clock_hz / 1e9
    }

    /// The DVFS power-scaling factor relative to the 1.6 GHz / 0.72 V
    /// design point: `(f/f₀)·(V(f)/V₀)²`.
    pub fn dvfs_power_factor(&self) -> f64 {
        let f_ratio = self.clock_hz / model::CLOCK_HZ;
        let v_ratio = 0.55 + 0.45 * f_ratio;
        f_ratio * v_ratio * v_ratio
    }

    /// The configured per-channel buffer size in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes_per_channel
    }

    /// Realized superpixel count after grid rounding (matches
    /// `sslic_core::SeedGrid`).
    pub fn realized_superpixels(&self) -> usize {
        let n = self.resolution.pixels() as f64;
        let spacing = (n / self.superpixels as f64).sqrt();
        let cols = ((self.resolution.width as f64 / spacing).round() as usize).max(1);
        let rows = ((self.resolution.height as f64 / spacing).round() as usize).max(1);
        cols * rows
    }

    /// DRAM traffic for one frame: the RGB load and Lab store of color
    /// conversion, then per center-update step the subset's Lab reads and
    /// index read/write (2-byte indices for up to 64k superpixels).
    pub fn dram_traffic(&self) -> DramTraffic {
        let n = self.resolution.pixels();
        let tile = self.buffer_bytes_per_channel as u64;
        let mut t = DramTraffic::default();
        // Color conversion: interleaved RGB in, 3 Lab planes out, tile by
        // tile.
        let cc_tiles = n.div_ceil(tile);
        t.bytes_read += 3 * n;
        t.bytes_written += 3 * n;
        t.bursts += cc_tiles * 4; // 1 RGB read + 3 Lab writes per tile
        // Cluster update: per step, 1/P of the pixels stream through.
        let step_pixels = n / self.subsets as u64;
        let step_tiles = step_pixels.div_ceil(tile);
        for _ in 0..self.iterations {
            t.bytes_read += 3 * step_pixels; // L, a, b
            t.bytes_read += 2 * step_pixels; // index read
            t.bytes_written += 2 * step_pixels; // index write-back
            t.bursts += step_tiles * 5;
        }
        t
    }

    /// Runs the analytic model.
    ///
    /// # Panics
    ///
    /// Panics if the superpixel count or iteration count is zero.
    pub fn simulate(&self) -> FrameReport {
        assert!(self.superpixels > 0, "superpixel count must be nonzero");
        assert!(self.iterations > 0, "iteration count must be nonzero");
        let n = self.resolution.pixels();
        let tile_pixels = self.buffer_bytes_per_channel as u64;
        let k = self.realized_superpixels() as u64;
        let cores = self.cores as u64;
        let to_ms = |cycles: f64| cycles / self.clock_hz * 1e3;

        // 1. Color conversion: 1 px/cycle per core + per-tile pipeline
        //    fill (tiles are distributed across cores).
        let cc_tiles = n.div_ceil(tile_pixels);
        let color_ms = to_ms(
            (n.div_ceil(cores)) as f64
                + cc_tiles.div_ceil(cores) as f64 * COLOR_CONV_LATENCY,
        );

        // 2. Cluster-update compute, tile-parallel across cores.
        let step_pixels = n / self.subsets as u64;
        let assign_ms = to_ms(
            self.cluster_config
                .iteration_cycles(step_pixels.div_ceil(cores), tile_pixels)
                * self.iterations as f64,
        );

        // 3. Center update (resolution independent, serial).
        let center_ms =
            to_ms(k as f64 * self.iterations as f64 * model::CENTER_UPDATE_CYCLES_PER_SP);

        // 4. Memory: the DRAM channel is shared and its timing is set by
        //    the device, not the core clock, so this term uses the design
        //    clock regardless of DVFS.
        let traffic = self.dram_traffic();
        let memory_ms = self.dram.transfer_ms(traffic.total_bytes(), traffic.bursts);

        // Area: one Cluster Update Unit and scratchpad set per core.
        let scratchpads = ScratchpadSet::new(self.buffer_bytes_per_channel);
        let area_mm2 = (self.cluster_config.area_mm2() + scratchpads.area_mm2())
            * self.cores as f64
            + model::area::FIXED_TOTAL_MM2;

        // Power: per-unit peak × utilization (the paper's method), scaled
        // by the DVFS factor; compute units replicate per core.
        let total_ms = color_ms + assign_ms + center_ms + memory_ms;
        let cluster_peak = self.cluster_config.power_mw(step_pixels.max(1));
        let dvfs = self.dvfs_power_factor();
        let cores_f = self.cores as f64;
        let power = PowerBreakdown {
            cluster_mw: dvfs * cores_f * cluster_peak * (assign_ms / total_ms),
            color_conv_mw: dvfs * cores_f * model::power::COLOR_CONV_MW * (color_ms / total_ms),
            center_update_mw: dvfs
                * model::power::CENTER_UPDATE_MW
                * (center_ms / total_ms),
            sram_mw: dvfs * cores_f * scratchpads.power_mw(),
            fsm_mw: dvfs * model::power::FSM_MW,
            mem_interface_mw: model::power::MEM_INTERFACE_MW,
        };
        let avg_power_mw = power.total_mw();

        // External DRAM energy, reported separately (the paper's 49 mW /
        // 1.6 mJ budget is accelerator-side; DRAM device energy is the
        // §4.2 argument for choosing the PPA).
        let dram_energy_uj = self.dram.transfer_energy_uj(traffic.total_bytes());

        FrameReport {
            resolution: self.resolution,
            superpixels: k as usize,
            buffer_bytes: self.buffer_bytes_per_channel,
            color_ms,
            assign_ms,
            center_ms,
            memory_ms,
            traffic,
            area_mm2,
            avg_power_mw,
            power,
            dram_energy_uj,
        }
    }
}

/// Average power per unit over a frame — the paper's "peak active power
/// × utilization" accounting (§6.3), itemized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Cluster Update Unit(s).
    pub cluster_mw: f64,
    /// Color-conversion unit(s).
    pub color_conv_mw: f64,
    /// Center-update unit.
    pub center_update_mw: f64,
    /// Scratchpad SRAMs (full utilization, per the paper).
    pub sram_mw: f64,
    /// FSM host controller.
    pub fsm_mw: f64,
    /// External-memory interface logic.
    pub mem_interface_mw: f64,
}

impl PowerBreakdown {
    /// Sum of all units.
    pub fn total_mw(&self) -> f64 {
        self.cluster_mw
            + self.color_conv_mw
            + self.center_update_mw
            + self.sram_mw
            + self.fsm_mw
            + self.mem_interface_mw
    }
}

/// The output of [`FrameSimulator::simulate`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// Geometry simulated.
    pub resolution: Resolution,
    /// Realized superpixel count.
    pub superpixels: usize,
    /// Per-channel buffer size in bytes.
    pub buffer_bytes: usize,
    /// Color-conversion time.
    pub color_ms: f64,
    /// Cluster-update assignment compute time.
    pub assign_ms: f64,
    /// Center-update time.
    pub center_ms: f64,
    /// DRAM transfer time.
    pub memory_ms: f64,
    /// DRAM traffic summary.
    pub traffic: DramTraffic,
    /// Total accelerator area.
    pub area_mm2: f64,
    /// Average accelerator power over the frame.
    pub avg_power_mw: f64,
    /// Per-unit power itemization.
    pub power: PowerBreakdown,
    /// External DRAM device energy (not part of the accelerator budget).
    pub dram_energy_uj: f64,
}

impl FrameReport {
    /// End-to-end frame latency in milliseconds (Table 4's latency row).
    pub fn total_ms(&self) -> f64 {
        self.color_ms + self.assign_ms + self.center_ms + self.memory_ms
    }

    /// The paper's "cluster update" aggregate: everything but color
    /// conversion (§7 reports it as compute + memory).
    pub fn cluster_update_ms(&self) -> f64 {
        self.assign_ms + self.center_ms + self.memory_ms
    }

    /// Compute part of the cluster update (assignment + center update).
    pub fn cluster_compute_ms(&self) -> f64 {
        self.assign_ms + self.center_ms
    }

    /// Sustained frame rate (Table 4's throughput row).
    pub fn fps(&self) -> f64 {
        1000.0 / self.total_ms()
    }

    /// Whether the 30 fps real-time bar is met.
    pub fn is_real_time(&self) -> bool {
        self.fps() >= 30.0
    }

    /// Accelerator energy per frame in millijoules (Table 4's energy row:
    /// average power × latency).
    pub fn energy_mj_per_frame(&self) -> f64 {
        self.avg_power_mw * self.total_ms() * 1e-6 * 1e3
    }

    /// Throughput density in fps/mm² (Table 4's last row).
    pub fn fps_per_mm2(&self) -> f64 {
        self.fps() / self.area_mm2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_hd() -> FrameReport {
        FrameSimulator::paper_default(Resolution::FULL_HD).simulate()
    }

    #[test]
    fn full_hd_latency_matches_table4() {
        let r = full_hd();
        // Paper: 32.8 ms, 30.5 fps.
        assert!(
            (r.total_ms() - 32.8).abs() < 1.0,
            "total {} ms vs paper 32.8",
            r.total_ms()
        );
        assert!(r.is_real_time(), "fps = {}", r.fps());
    }

    #[test]
    fn full_hd_decomposition_matches_section7() {
        let r = full_hd();
        // Paper §7: color conversion 1.4 ms, cluster update 31.4 ms of
        // which memory 11.1 ms and compute 20.3 ms.
        assert!((r.color_ms - 1.4).abs() < 0.2, "color {}", r.color_ms);
        assert!(
            (r.memory_ms - 11.1).abs() < 0.5,
            "memory {} vs 11.1",
            r.memory_ms
        );
        assert!(
            (r.cluster_compute_ms() - 20.3).abs() < 1.0,
            "compute {} vs 20.3",
            r.cluster_compute_ms()
        );
    }

    #[test]
    fn full_hd_memory_share_is_about_a_third() {
        // §6.3: "In the case of the 4kB buffer size, memory access takes
        // 35% of total execution time."
        let r = full_hd();
        let share = r.memory_ms / r.total_ms();
        assert!((0.28..=0.40).contains(&share), "memory share {share}");
    }

    #[test]
    fn full_hd_area_matches_table4() {
        let r = full_hd();
        assert!(
            (r.area_mm2 - 0.066).abs() < 0.003,
            "area {} vs 0.066",
            r.area_mm2
        );
    }

    #[test]
    fn full_hd_power_and_energy_match_table4() {
        let r = full_hd();
        assert!(
            (r.avg_power_mw - 49.0).abs() < 4.0,
            "power {} mW vs 49",
            r.avg_power_mw
        );
        assert!(
            (r.energy_mj_per_frame() - 1.6).abs() < 0.2,
            "energy {} mJ vs 1.6",
            r.energy_mj_per_frame()
        );
    }

    #[test]
    fn all_table4_resolutions_are_real_time() {
        for res in Resolution::TABLE4 {
            let r = FrameSimulator::paper_default(res).simulate();
            assert!(r.is_real_time(), "{}: {} fps", res.name, r.fps());
        }
    }

    #[test]
    fn smaller_resolutions_are_faster_but_sublinearly() {
        // Table 4's striking shape: VGA has 6.75× fewer pixels than full
        // HD but is nowhere near 6.75× faster, because the K = 5000 center
        // update does not shrink with resolution.
        let hd = full_hd();
        let vga = FrameSimulator::paper_default(Resolution::VGA).simulate();
        let speedup = hd.total_ms() / vga.total_ms();
        assert!(speedup > 1.3, "VGA should be faster: {speedup}");
        assert!(speedup < 4.0, "but far below the 6.75× pixel ratio: {speedup}");
    }

    #[test]
    fn perf_per_area_improves_at_lower_resolution() {
        // Table 4: 461 → 747 → 963 fps/mm².
        let reports: Vec<FrameReport> = Resolution::TABLE4
            .iter()
            .map(|&r| FrameSimulator::paper_default(r).simulate())
            .collect();
        assert!(reports[0].fps_per_mm2() < reports[1].fps_per_mm2());
        assert!(reports[1].fps_per_mm2() < reports[2].fps_per_mm2());
    }

    #[test]
    fn buffer_sweep_reproduces_fig6_shape() {
        // Fig. 6: time falls steeply from 1 kB, crosses the 33.3 ms
        // real-time line at 4 kB, then flattens.
        let times: Vec<f64> = [1, 2, 4, 8, 16, 32, 64, 128]
            .iter()
            .map(|&kb| {
                FrameSimulator::paper_default(Resolution::FULL_HD)
                    .with_buffer_bytes(kb * 1024)
                    .simulate()
                    .total_ms()
            })
            .collect();
        // Monotone decreasing.
        for w in times.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "time must not grow with buffer size");
        }
        // 1-2 kB miss real time, 4 kB+ make it.
        assert!(times[0] > 33.4, "1 kB misses real-time: {}", times[0]);
        assert!(times[1] > 33.3, "2 kB just misses: {}", times[1]);
        assert!(times[2] < 33.3, "4 kB achieves real-time: {}", times[2]);
        // Diminishing returns beyond 4 kB (paper: "larger buffers provide
        // only slightly better frame time").
        assert!(times[2] - times[7] < 1.5);
    }

    #[test]
    fn subsampling_halves_cluster_traffic_by_about_1_8x() {
        // The abstract's claim: S-SLIC's pixel subsampling reduces memory
        // bandwidth by 1.8× (color conversion is not subsampled, so the
        // ratio is below 2).
        let slic = FrameSimulator::paper_default(Resolution::FULL_HD)
            .dram_traffic()
            .total_bytes();
        let sslic = FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_subsets(2)
            .dram_traffic()
            .total_bytes();
        let ratio = slic as f64 / sslic as f64;
        assert!((ratio - 1.8).abs() < 0.1, "bandwidth reduction {ratio}×");
    }

    #[test]
    fn dram_energy_is_reported_separately_and_dominates() {
        // §4.2's argument: DRAM reference energy dwarfs compute energy —
        // the reason the low-bandwidth PPA wins.
        let r = full_hd();
        let compute_uj = r.avg_power_mw * r.cluster_compute_ms();
        assert!(r.dram_energy_uj > compute_uj, "DRAM energy must dominate");
    }

    #[test]
    fn realized_superpixels_near_target() {
        let sim = FrameSimulator::paper_default(Resolution::FULL_HD);
        let k = sim.realized_superpixels();
        assert!((4500..=5500).contains(&k), "realized K = {k}");
    }

    #[test]
    #[should_panic(expected = "superpixel")]
    fn zero_superpixels_panics() {
        let _ = FrameSimulator::paper_default(Resolution::VGA)
            .with_superpixels(0)
            .simulate();
    }

    #[test]
    #[should_panic(expected = "buffer size must be nonzero")]
    fn zero_buffer_panics() {
        let _ = FrameSimulator::paper_default(Resolution::VGA).with_buffer_bytes(0);
    }

    #[test]
    fn power_breakdown_sums_to_average_power() {
        let r = full_hd();
        assert!((r.power.total_mw() - r.avg_power_mw).abs() < 1e-9);
        // SRAMs at full utilization and the cluster unit are the two big
        // consumers at the full-HD design point.
        assert!(r.power.sram_mw > 10.0);
        assert!(r.power.cluster_mw > 5.0);
        assert!(r.power.color_conv_mw < r.power.cluster_mw);
    }

    #[test]
    fn multi_core_speedup_is_amdahl_bound() {
        let one = FrameSimulator::paper_default(Resolution::FULL_HD).simulate();
        let four = FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_cores(4)
            .simulate();
        let speedup = one.total_ms() / four.total_ms();
        assert!(speedup > 1.2, "4 cores must help: {speedup}");
        // Center update and memory are serial: nowhere near 4×.
        assert!(speedup < 2.0, "Amdahl bound: {speedup}");
        // Cluster units and scratchpads replicate; the fixed logic
        // (color conversion, center update, FSM) is shared.
        assert!(four.area_mm2 > 2.0 * one.area_mm2, "cores replicate area");
        assert!(four.area_mm2 < 4.0 * one.area_mm2, "fixed logic is shared");
    }

    #[test]
    fn single_core_defaults_are_unchanged_by_the_extension() {
        let a = FrameSimulator::paper_default(Resolution::FULL_HD).simulate();
        let b = FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_cores(1)
            .with_clock_ghz(1.6)
            .simulate();
        assert!((a.total_ms() - b.total_ms()).abs() < 1e-9);
        assert!((a.avg_power_mw - b.avg_power_mw).abs() < 1e-6);
    }

    #[test]
    fn downclocking_saves_power_at_the_cost_of_latency() {
        let fast = FrameSimulator::paper_default(Resolution::VGA).simulate();
        let slow = FrameSimulator::paper_default(Resolution::VGA)
            .with_clock_ghz(0.8)
            .simulate();
        assert!(slow.total_ms() > fast.total_ms());
        assert!(slow.avg_power_mw < fast.avg_power_mw);
        // §6.3's "scale gracefully down": VGA stays real-time at half
        // clock.
        assert!(slow.is_real_time(), "{} fps", slow.fps());
    }

    #[test]
    fn dvfs_factor_is_cubic_ish_in_frequency() {
        let sim = FrameSimulator::paper_default(Resolution::VGA);
        assert!((sim.dvfs_power_factor() - 1.0).abs() < 1e-12);
        let half = sim.clone().with_clock_ghz(0.8);
        let f = half.dvfs_power_factor();
        assert!(f < 0.5, "half clock well below half power: {f}");
        assert!(f > 0.2, "but not absurdly low: {f}");
    }
}
