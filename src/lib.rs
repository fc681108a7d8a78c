//! # sslic — Subsampled SLIC superpixels and their hardware accelerator
//!
//! A from-scratch Rust reproduction of *"A Real-time Energy-Efficient
//! Superpixel Hardware Accelerator for Mobile Computer Vision Applications"*
//! (Hong et al., DAC 2016): the S-SLIC algorithm, the baseline SLIC it
//! improves on, segmentation quality metrics, and a cycle-approximate model
//! of the proposed 16 nm accelerator with its energy/area/power models.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`image`] — planar images, PPM I/O, synthetic Berkeley-like dataset.
//! * [`fixed`] — hardware-style fixed-point arithmetic and LUT builders.
//! * [`color`] — RGB→CIELAB, both exact float and the accelerator LUT path.
//! * [`core`] — SLIC / S-SLIC segmentation (pixel- and center-perspective).
//! * [`metrics`] — undersegmentation error, boundary recall, ASA, …
//! * [`hw`] — the accelerator performance/energy/area model and DSE driver.
//! * [`fault`] — deterministic fault injection and parity/ECC protection
//!   modeling across the datapath and the hardware model.
//! * [`obs`] — structured observability: logical-clock spans and events,
//!   metrics, JSONL / Chrome-trace sinks, and the [`obs::RunReport`].
//!
//! # Quickstart
//!
//! ```
//! use sslic::core::{RunOptions, SegmentRequest, Segmenter, SlicParams};
//! use sslic::image::synthetic::SyntheticImage;
//! use sslic::metrics::undersegmentation_error;
//!
//! let img = SyntheticImage::builder(96, 64).seed(1).regions(6).build();
//! let params = SlicParams::builder(200)
//!     .compactness(10.0)
//!     .iterations(5)
//!     .build();
//! let seg = Segmenter::sslic_ppa(params, 2)
//!     .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
//! let use_err = undersegmentation_error(seg.labels(), &img.ground_truth);
//! assert!(use_err >= 0.0);
//! ```

#![forbid(unsafe_code)]

pub use sslic_color as color;
pub use sslic_core as core;
pub use sslic_fault as fault;
pub use sslic_fixed as fixed;
pub use sslic_hw as hw;
pub use sslic_image as image;
pub use sslic_metrics as metrics;
pub use sslic_obs as obs;

/// The segmentation API most programs need, importable in one line:
/// `use sslic::prelude::*;`.
///
/// One-shot: configure a [`prelude::Segmenter`] and call `run`. Streaming:
/// derive a [`prelude::SegmenterSession`] from it (`seg.session(w, h)`)
/// and run frames through the reusable scratch with zero steady-state
/// allocations. Multi-stream: pool sessions in a
/// [`prelude::SessionFleet`] keyed by [`prelude::StreamId`], with
/// admission control surfaced as [`prelude::FleetError`].
pub mod prelude {
    pub use sslic_core::{
        FleetConfig, FleetError, FrameReport, Kernel, RunOptions, SegmentError, SegmentRequest,
        Segmentation, SegmentationStatus, Segmenter, SegmenterSession, SessionFleet, SlicParams,
        SlicParamsBuilder, StreamId,
    };
}
