//! Multi-frame streaming: sustained throughput under frame-level
//! pipelining.
//!
//! Table 4 reports single-frame latency; a camera pipeline cares about
//! *sustained* frames per second. Because the color-conversion unit and
//! the cluster-update machinery are separate blocks (Fig. 4), frame
//! `t+1`'s color conversion can run while frame `t` is still in cluster
//! update — bounded by whichever resource saturates first: the cluster
//! datapath, the center-update divider, or the shared DRAM channel.
//!
//! [`StreamModel`] turns a single-frame [`crate::sim::FrameReport`] into
//! sustained-throughput numbers: the steady-state initiation interval is
//! the *maximum* busy time over the resources, not their sum.

use crate::sim::FrameReport;

/// Sustained-throughput analysis of a frame pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamModel {
    /// Per-frame busy time of the color-conversion unit (ms).
    pub color_ms: f64,
    /// Per-frame busy time of the cluster-update + center-update path
    /// (ms).
    pub compute_ms: f64,
    /// Per-frame busy time of the DRAM channel (ms).
    pub memory_ms: f64,
    /// Single-frame latency (ms), unchanged by pipelining.
    pub latency_ms: f64,
}

impl StreamModel {
    /// Builds the stream model from a single-frame report.
    pub fn from_report(report: &FrameReport) -> Self {
        StreamModel {
            color_ms: report.color_ms,
            compute_ms: report.assign_ms + report.center_ms,
            memory_ms: report.memory_ms,
            latency_ms: report.total_ms(),
        }
    }

    /// Steady-state frame initiation interval: the bottleneck resource's
    /// busy time.
    pub(crate) fn initiation_interval_ms(&self) -> f64 {
        self.color_ms.max(self.compute_ms).max(self.memory_ms)
    }

    /// Sustained frame rate under pipelining.
    pub fn sustained_fps(&self) -> f64 {
        1000.0 / self.initiation_interval_ms()
    }

    /// Which resource bounds the stream.
    pub fn bottleneck(&self) -> &'static str {
        let ii = self.initiation_interval_ms();
        if ii == self.compute_ms {
            "cluster/center compute"
        } else if ii == self.memory_ms {
            "DRAM channel"
        } else {
            "color conversion"
        }
    }

    /// Frames in flight at steady state (latency over initiation
    /// interval, rounded up).
    pub fn frames_in_flight(&self) -> u32 {
        (self.latency_ms / self.initiation_interval_ms()).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{FrameSimulator, Resolution};

    fn model() -> StreamModel {
        let report = FrameSimulator::paper_default(Resolution::FULL_HD).simulate();
        StreamModel::from_report(&report)
    }

    #[test]
    fn pipelining_beats_single_stream() {
        let m = model();
        // Single-stream (unpipelined) rate: one frame per latency.
        assert!(m.sustained_fps() > 1000.0 / m.latency_ms);
        // The paper's single-stream 30 fps becomes ~45-50 fps sustained:
        // the compute path (~20.5 ms) is the bottleneck.
        assert!(m.sustained_fps() > 40.0, "{}", m.sustained_fps());
    }

    #[test]
    fn bottleneck_is_the_compute_path_at_full_hd() {
        let m = model();
        assert_eq!(m.bottleneck(), "cluster/center compute");
    }

    #[test]
    fn initiation_interval_is_the_max_busy_time() {
        let m = model();
        let ii = m.initiation_interval_ms();
        assert!(ii >= m.color_ms && ii >= m.compute_ms && ii >= m.memory_ms);
        assert!(ii <= m.latency_ms);
    }

    #[test]
    fn frames_in_flight_is_small_and_positive() {
        let m = model();
        let f = m.frames_in_flight();
        assert!((1..=4).contains(&f), "{f} frames in flight");
    }

    #[test]
    fn memory_becomes_the_bottleneck_with_tiny_buffers_and_many_cores() {
        // Scale compute down (8 cores) so the shared DRAM channel binds.
        let report = FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_cores(8)
            .with_buffer_bytes(1024)
            .simulate();
        let m = StreamModel::from_report(&report);
        assert_eq!(m.bottleneck(), "DRAM channel");
    }
}
