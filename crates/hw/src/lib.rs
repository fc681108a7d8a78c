//! Cycle-approximate performance, energy, area, and power models of the
//! DAC'16 S-SLIC superpixel accelerator, plus a functional tile-level
//! simulator of the datapath.
//!
//! The paper prototyped the accelerator with Catapult HLS, Design Compiler,
//! and PrimeTime-PX on a 16 nm FinFET library — a flow we cannot run here.
//! This crate substitutes an analytical model whose primitive latencies and
//! per-unit constants are derived from, and calibrated against, the
//! numbers the paper publishes (see `DESIGN.md` §3 and `EXPERIMENTS.md`):
//!
//! * [`cluster`] — the Cluster Update Unit and its five Table 3
//!   configurations (`1-1-1` … `9-9-6`): latency, throughput, area, power,
//!   energy.
//! * [`dram`] / [`scratchpad`] — the external-memory model (256 b/cycle
//!   peak, 50-cycle latency) and the four on-chip channel/index buffers.
//! * [`model`] — clock (1.6 GHz @ 0.72 V), Horowitz-style operation
//!   energies (8-bit DRAM reference ≈ 2500× an 8-bit add), and the
//!   component area/power tables.
//! * [`sim`] — [`sim::FrameSimulator`], the frame-level analytic model
//!   behind Figure 6 and Tables 4–5.
//! * [`accel`] — [`accel::Accelerator`], a functional simulator that
//!   actually pushes pixels through the FSM → color conversion →
//!   cluster-update → center-update pipeline, producing a label map plus
//!   the same cycle and traffic accounting as [`sim`].
//! * [`gpu`] — the published Tesla K20 / Tegra K1 baselines of Table 5 and
//!   the 28→16 nm normalization arithmetic.
//!
//! # Example
//!
//! ```
//! use sslic_hw::cluster::ClusterUnitConfig;
//! use sslic_hw::sim::{FrameSimulator, Resolution};
//!
//! let sim = FrameSimulator::paper_default(Resolution::FULL_HD);
//! let report = sim.simulate();
//! // The paper's headline: real-time full-HD segmentation.
//! assert!(report.fps() > 30.0);
//! assert!(report.total_ms() < 33.4);
//! // And the fully parallel cluster unit is what makes it possible.
//! assert_eq!(ClusterUnitConfig::c9_9_6().throughput_pixels_per_cycle(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel;
pub mod batch;
pub mod cluster;
pub mod dma;
pub mod dram;
pub mod dse;
pub mod export;
pub mod faults;
pub mod floorplan;
pub mod gpu;
pub mod model;
pub mod pipeline;
mod schedule;
pub mod scratchpad;
pub mod sim;
pub mod vcd;
