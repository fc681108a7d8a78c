//! External-memory model.
//!
//! The paper's buffer-size study (§6.3, Fig. 6) "assumed that peak external
//! bandwidth is 256b/cycle and memory latency is 50 cycle latency". Short
//! tile-sized bursts cannot sustain the peak, so the model separates:
//!
//! * a **streaming term** — bytes over the *effective* bandwidth
//!   (peak × utilization, with utilization calibrated to §7's 11.1 ms of
//!   memory time at full HD);
//! * a **latency term** — 50 cycles charged per burst (one burst per
//!   buffer-sized transfer per channel), which is what makes small buffers
//!   slow in Fig. 6.

use crate::model;

/// External-memory timing and energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Peak bandwidth in bytes per cycle (256 bits = 32 B, paper §6.3).
    pub peak_bytes_per_cycle: f64,
    /// Access latency in cycles charged once per burst (paper §6.3).
    pub latency_cycles: f64,
    /// Fraction of peak bandwidth sustained on streaming transfers.
    /// **Calibrated** to 0.27 so the full-HD frame's ≈143 MB of traffic
    /// takes the ≈10.4 ms of §7 (11.1 ms memory time minus the burst
    /// latency term at 4 kB buffers).
    pub bandwidth_utilization: f64,
    /// Energy per byte moved, in picojoules (Horowitz-style 2500× an
    /// 8-bit add — the paper's §4.2 model).
    pub energy_per_byte_pj: f64,
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel {
            peak_bytes_per_cycle: 32.0,
            latency_cycles: 50.0,
            bandwidth_utilization: 0.27,
            energy_per_byte_pj: model::E_DRAM_BYTE_PJ,
        }
    }
}

impl DramModel {
    /// Effective sustained bandwidth in bytes per cycle.
    pub(crate) fn effective_bytes_per_cycle(&self) -> f64 {
        self.peak_bytes_per_cycle * self.bandwidth_utilization
    }

    /// Cycles to move `bytes` in `bursts` separate transfers.
    pub fn transfer_cycles(&self, bytes: u64, bursts: u64) -> f64 {
        bytes as f64 / self.effective_bytes_per_cycle()
            + bursts as f64 * self.latency_cycles
    }

    /// Time in milliseconds to move `bytes` in `bursts` transfers.
    pub(crate) fn transfer_ms(&self, bytes: u64, bursts: u64) -> f64 {
        model::cycles_to_ms(self.transfer_cycles(bytes, bursts))
    }

    /// Energy in microjoules to move `bytes`.
    pub(crate) fn transfer_energy_uj(&self, bytes: u64) -> f64 {
        bytes as f64 * self.energy_per_byte_pj * 1e-6
    }
}

/// Accumulates DRAM traffic by category for a frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramTraffic {
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
    /// Number of bursts issued.
    pub bursts: u64,
}

impl DramTraffic {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

impl std::ops::AddAssign for DramTraffic {
    fn add_assign(&mut self, rhs: DramTraffic) {
        self.bytes_read += rhs.bytes_read;
        self.bytes_written += rhs.bytes_written;
        self.bursts += rhs.bursts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let d = DramModel::default();
        assert_eq!(d.peak_bytes_per_cycle, 32.0); // 256 bits
        assert_eq!(d.latency_cycles, 50.0);
    }

    #[test]
    fn effective_bandwidth_below_peak() {
        let d = DramModel::default();
        assert!(d.effective_bytes_per_cycle() < d.peak_bytes_per_cycle);
        assert!(d.effective_bytes_per_cycle() > 0.0);
    }

    #[test]
    fn more_bursts_cost_more_time_for_same_bytes() {
        let d = DramModel::default();
        let few = d.transfer_cycles(1 << 20, 10);
        let many = d.transfer_cycles(1 << 20, 10_000);
        assert!(many > few);
        assert!((many - few - 9990.0 * 50.0).abs() < 1e-6);
    }

    #[test]
    fn calibration_lands_full_hd_streaming_near_10_4_ms() {
        // ≈143 MB of frame traffic should stream in ≈10.4 ms.
        let d = DramModel::default();
        let ms = d.transfer_ms(143_000_000, 0);
        assert!((ms - 10.4).abs() < 0.5, "streaming time {ms} ms");
    }

    #[test]
    fn energy_uses_horowitz_ratio() {
        let d = DramModel::default();
        let uj = d.transfer_energy_uj(1_000_000);
        assert!((uj - 1e6 * model::E_DRAM_BYTE_PJ * 1e-6).abs() < 1e-9);
    }

    #[test]
    fn traffic_accumulates() {
        let mut t = DramTraffic {
            bytes_read: 100,
            bytes_written: 50,
            bursts: 2,
        };
        t += DramTraffic {
            bytes_read: 25,
            bytes_written: 10,
            bursts: 1,
        };
        assert_eq!(t.bytes_read, 125);
        assert_eq!(t.bytes_written, 60);
        assert_eq!(t.bursts, 3);
        assert_eq!(t.total_bytes(), 185);
    }
}
