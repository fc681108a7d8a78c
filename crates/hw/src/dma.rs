//! Tile DMA scheduling: serial versus double-buffered transfer/compute
//! overlap.
//!
//! Both accelerator models charge memory time *in series* with compute,
//! consistent with the paper's "memory access takes 35% of total execution
//! time" accounting. A natural microarchitectural extension is **double
//! buffering**: while the Cluster Update Unit processes tile `i` from one
//! scratchpad bank, the DMA prefetches tile `i+1` into the other. Per-tile
//! time then becomes `max(compute, transfer)` instead of `compute +
//! transfer`, hiding memory behind compute whenever the buffers are large
//! enough to amortize the 50-cycle burst latency.
//!
//! [`TileSchedule`] computes both timelines for a cluster-update pass whose
//! tiles move what the models' streaming schedule charges (7 B per pixel in
//! 5 bursts). The `ablation_dma` bench charts how the Figure 6 curve would
//! shift — the area cost being a second set of channel buffers.

use crate::dram::DramModel;
use crate::schedule::step_traffic;

/// Per-frame tile-streaming timing under a given schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileSchedule {
    /// Number of tiles streamed.
    pub tiles: u64,
    /// Compute cycles per tile.
    pub compute_per_tile: f64,
    /// Transfer cycles per tile (streaming + burst latency).
    pub transfer_per_tile: f64,
}

impl TileSchedule {
    /// Builds the schedule for a pass over `pixels` pixels processed in
    /// `tile_pixels`-pixel tiles at `compute_cycles_per_pixel` (the Cluster
    /// Update Unit's initiation interval: 1 for `9-9-6`).
    ///
    /// # Panics
    ///
    /// Panics if `tile_pixels` is zero or the compute rate is not
    /// positive.
    pub fn new(pixels: u64, tile_pixels: u64, compute_cycles_per_pixel: f64) -> Self {
        assert!(tile_pixels > 0, "tile size must be nonzero");
        assert!(compute_cycles_per_pixel > 0.0, "compute rate must be positive");
        let tile = step_traffic(tile_pixels, tile_pixels);
        TileSchedule {
            tiles: pixels.div_ceil(tile_pixels),
            compute_per_tile: tile_pixels as f64 * compute_cycles_per_pixel,
            transfer_per_tile: DramModel::default().transfer_cycles(tile.total_bytes(), tile.bursts),
        }
    }

    /// Total cycles with serial transfer-then-compute per tile (the
    /// paper's accounting).
    pub fn serial_cycles(&self) -> f64 {
        self.tiles as f64 * (self.compute_per_tile + self.transfer_per_tile)
    }

    /// Total cycles with double buffering: the first tile's transfer is
    /// exposed, every later tile costs `max(compute, transfer)`.
    pub fn double_buffered_cycles(&self) -> f64 {
        if self.tiles == 0 {
            return 0.0;
        }
        self.transfer_per_tile
            + self.tiles as f64 * self.compute_per_tile.max(self.transfer_per_tile)
    }

    /// Speedup of double buffering over the serial schedule.
    pub fn overlap_speedup(&self) -> f64 {
        self.serial_cycles() / self.double_buffered_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_tile(tile_pixels: u64) -> TileSchedule {
        // Full-HD cluster-update pass at 1 cy/px compute.
        TileSchedule::new(1920 * 1080, tile_pixels, 1.0)
    }

    #[test]
    fn serial_equals_sum_of_parts() {
        let s = paper_tile(4096);
        let expect = s.tiles as f64 * (s.compute_per_tile + s.transfer_per_tile);
        assert_eq!(s.serial_cycles(), expect);
    }

    #[test]
    fn double_buffering_never_loses() {
        for tile in [512u64, 1024, 4096, 16384, 131072] {
            let s = paper_tile(tile);
            assert!(
                s.double_buffered_cycles() <= s.serial_cycles(),
                "tile {tile}"
            );
            assert!(s.overlap_speedup() >= 1.0);
        }
    }

    #[test]
    fn cluster_update_stream_is_memory_bound_at_paper_rates() {
        // 7 B/px at 8.64 B/cy = 0.81 cy/px of streaming plus latency vs
        // 1 cy/px compute: transfer per tile exceeds compute once the
        // burst latency is added for small tiles, and stays close above.
        let s = paper_tile(1024);
        assert!(
            s.transfer_per_tile > s.compute_per_tile,
            "small tiles pay the latency"
        );
        // Large tiles amortize latency: compute and transfer are near par.
        let big = paper_tile(131072);
        let ratio = big.transfer_per_tile / big.compute_per_tile;
        assert!((0.7..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn overlap_hides_at_most_the_smaller_phase() {
        let s = paper_tile(4096);
        // Speedup is bounded by 2 (perfect overlap of equal phases).
        let sp = s.overlap_speedup();
        assert!((1.0..2.0).contains(&sp), "speedup {sp}");
    }

    #[test]
    fn overlap_reduces_the_buffer_knee() {
        // With double buffering, the 1 kB tile stream is far less penalized
        // relative to 4 kB than in the serial schedule.
        let serial_gap = paper_tile(1024).serial_cycles() / paper_tile(4096).serial_cycles();
        let overlap_gap =
            paper_tile(1024).double_buffered_cycles() / paper_tile(4096).double_buffered_cycles();
        assert!(
            overlap_gap < serial_gap,
            "overlap {overlap_gap} vs serial {serial_gap}"
        );
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn zero_tile_panics() {
        let _ = TileSchedule::new(100, 0, 1.0);
    }
}
