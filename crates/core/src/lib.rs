//! SLIC and Subsampled SLIC (S-SLIC) superpixel segmentation.
//!
//! This crate implements the paper's primary contribution and its baseline:
//!
//! * **SLIC** (Achanta et al.) in its original *center-perspective* form
//!   (each superpixel scans a `2S×2S` window — [`Algorithm::SlicCpa`]) and
//!   the gSLIC-style *pixel-perspective* form (each pixel considers its 9
//!   nearest initial centers — [`Segmenter::slic_ppa`], S-SLIC with one
//!   subset).
//! * **S-SLIC**, the paper's subsampled variant in its pixel-perspective
//!   form: the image pixels are split into equal subsets traversed
//!   round-robin, so each center-update step touches only a fraction of the
//!   data while converging almost as fast per step
//!   ([`Algorithm::SSlicPpa`]). SLIC is the one-subset case: every step
//!   of every algorithm walks one subset of one pixel partition.
//! * A **quantized datapath** ([`DistanceMode::Quantized`]) reproducing the
//!   accelerator's reduced-precision distance pipeline for the paper's
//!   §6.1 bit-width exploration.
//! * **Instrumentation**: per-phase wall-clock breakdown (Table 1) and
//!   analytic operation/memory-traffic accounting (Table 2).
//! * **Streaming sessions** ([`SegmenterSession`]): persistent per-frame
//!   scratch + a parked worker pool for video pipelines — zero heap
//!   allocations per steady-state frame, bit-identical to the one-shot
//!   [`Segmenter::run`].
//!
//! # Quickstart
//!
//! ```
//! use sslic_core::{RunOptions, SegmentRequest, Segmenter, SlicParams};
//! use sslic_image::synthetic::SyntheticImage;
//!
//! let img = SyntheticImage::builder(96, 64).seed(1).regions(6).build();
//! let params = SlicParams::builder(150).compactness(10.0).iterations(4).build();
//! let seg = Segmenter::sslic_ppa(params, 2)
//!     .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
//! assert_eq!(seg.labels().width(), 96);
//! assert!(seg.cluster_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod connectivity;
mod distance;
mod engine;
mod fleet;
mod grid;
mod kernel;
mod parallel;
mod params;
mod recovery;
mod serve;
mod session;

pub mod features;
pub mod graph;
pub mod instrument;
pub mod profile;
pub(crate) mod report;
pub mod subsample;

/// The observability layer (re-exported so downstream crates reach the
/// [`obs::Recorder`] and [`obs::RunReport`] without a direct dependency).
pub use sslic_obs as obs;

pub use cluster::{init_clusters, Cluster};
pub use connectivity::{compact_labels, component_sizes, enforce_connectivity};
pub use distance::{ClusterCodes, DistanceMode, QuantKernel};
pub use engine::{
    Algorithm, RunOptions, SegmentRequest, Segmentation, SegmentationStatus, Segmenter, StepFaults,
};
pub use fleet::{
    label_checksum, FleetConfig, FleetConfigBuilder, FleetError, FleetStats, SessionFleet,
    StreamId, StreamStats,
};
pub use grid::SeedGrid;
pub use kernel::Kernel;
pub use params::{ParamError, SlicParams, SlicParamsBuilder};
pub use recovery::{RecoveryOutcome, RecoveryPolicy, RecoveryReport};
pub use report::build_run_report;
pub use serve::{
    serve, write_wire_close, write_wire_frame, write_wire_stats, ServeOptions, ServeSummary,
    WIRE_CLOSE, WIRE_FRAME, WIRE_MAX_PAYLOAD, WIRE_STATS,
};
pub use session::{FrameReport, SegmentError, SegmenterSession};
