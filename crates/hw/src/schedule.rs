//! The accelerator's one streaming schedule (paper §4.3, Fig. 6): what a
//! frame costs in cycles and DRAM traffic. The analytic
//! [`crate::sim::FrameSimulator`] and the functional
//! [`crate::accel::Accelerator`] both charge it, so they agree exactly.
//!
//! The FSM streams buffer-sized tiles. Color conversion streams the whole
//! frame and writes its planes subset-major; each center-update step then
//! streams only its contiguous S-SLIC subset, which is where subsampling
//! cuts bandwidth. Bytes are exact and every channel of a tile is one
//! burst: `DramModel` and Figure 6 were calibrated this way.

use sslic_core::subsample::{SubsetPartition, SubsetStrategy};
use sslic_core::SeedGrid;

use crate::cluster::ClusterUnitConfig;
use crate::dram::DramTraffic;
use crate::model;

/// DRAM traffic of a cluster-update pass over `pixels` pixels: each tile
/// reads L, a, b and the 2-byte index and writes the index back.
pub(crate) fn step_traffic(pixels: u64, tile_pixels: u64) -> DramTraffic {
    DramTraffic {
        bytes_read: (3 + 2) * pixels,
        bytes_written: 2 * pixels,
        bursts: 5 * pixels.div_ceil(tile_pixels),
    }
}

/// One frame's schedule.
#[derive(Debug)]
pub(crate) struct Schedule {
    /// The static pixel → 9-closest-centers tiling; its cluster count is
    /// the realized `K`.
    pub(crate) grid: SeedGrid,
    /// The interleaved S-SLIC pixel subsets, one per step in turn.
    pub(crate) partition: SubsetPartition,
    pixels: u64,
    tile_pixels: u64,
}

impl Schedule {
    /// The schedule of a `width × height` frame at target `superpixels`,
    /// with `subsets` pixel subsets and `tile_pixels` pixels per tile.
    pub(crate) fn new(
        width: usize,
        height: usize,
        superpixels: usize,
        subsets: u32,
        tile_pixels: usize,
    ) -> Self {
        Schedule {
            grid: SeedGrid::new(width, height, superpixels),
            partition: SubsetPartition::new(width, height, subsets, SubsetStrategy::Interleaved),
            pixels: (width * height) as u64,
            tile_pixels: tile_pixels as u64,
        }
    }

    /// Pixels streamed by `step`: the size of its subset.
    pub(crate) fn step_pixels(&self, step: u32) -> u64 {
        self.partition.subset_len(self.partition.subset_for_step(step)) as u64
    }

    /// Color-conversion cycles: one pixel per cycle per core, plus the LUT
    /// pipeline fill of every tile (tiles are spread over the cores).
    pub(crate) fn color_cycles(&self, cores: u64) -> f64 {
        let tiles = self.pixels.div_ceil(self.tile_pixels);
        self.pixels.div_ceil(cores) as f64
            + tiles.div_ceil(cores) as f64 * model::COLOR_CONV_LATENCY_CYCLES
    }

    /// Color-conversion traffic: each tile reads RGB and writes L, a, b.
    pub(crate) fn color_traffic(&self) -> DramTraffic {
        DramTraffic {
            bytes_read: 3 * self.pixels,
            bytes_written: 3 * self.pixels,
            bursts: 4 * self.pixels.div_ceil(self.tile_pixels),
        }
    }

    /// Assignment cycles of `step` on `unit`, its subset split over the
    /// cores.
    pub(crate) fn assign_cycles(&self, step: u32, unit: &ClusterUnitConfig, cores: u64) -> f64 {
        unit.iteration_cycles(self.step_pixels(step).div_ceil(cores), self.tile_pixels)
    }

    /// Center-update cycles of one step: the divider walks all `K` sigma
    /// registers.
    pub(crate) fn center_cycles(&self) -> f64 {
        self.grid.cluster_count() as f64 * model::CENTER_UPDATE_CYCLES_PER_SP
    }

    /// DRAM traffic of `step`.
    pub(crate) fn step_traffic(&self, step: u32) -> DramTraffic {
        step_traffic(self.step_pixels(step), self.tile_pixels)
    }

    /// DRAM traffic of a frame of `iterations` steps.
    pub(crate) fn traffic(&self, iterations: u32) -> DramTraffic {
        let mut traffic = self.color_traffic();
        for step in 0..iterations {
            traffic += self.step_traffic(step);
        }
        traffic
    }
}
