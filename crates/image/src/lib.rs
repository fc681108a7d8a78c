//! Planar image types, PPM I/O, gradients, drawing helpers, and a synthetic
//! Berkeley-like dataset generator.
//!
//! This crate is the image substrate of the S-SLIC reproduction. Everything
//! the SLIC/S-SLIC algorithms and the accelerator model consume comes from
//! here:
//!
//! * [`Plane`] — a single-channel, row-major 2-D buffer generic over the
//!   sample type. Label maps are `Plane<u32>`, 8-bit channels are
//!   `Plane<u8>`, float channels are `Plane<f32>`.
//! * [`RgbImage`] — an interleaved 8-bit RGB image with planar accessors.
//! * [`ppm`] — minimal Netpbm (P5/P6) readers and writers so real images can
//!   be segmented without external decoders.
//! * [`gradient`] — the 3×3 seed-window gradient search of SLIC's center
//!   perturbation step.
//! * [`synthetic`] — a seeded generator of Berkeley-like natural-statistics
//!   images with exact ground-truth region maps, substituting for the
//!   Berkeley segmentation dataset (see `DESIGN.md` §3).
//! * [`filter`] — the 3×3 box blur the generator softens boundaries with.
//! * [`draw`] — boundary overlays and label-map visualisation for examples.
//! * [`prng`] — a vendored seedable SplitMix64 generator backing the
//!   synthetic dataset, so builds need no external `rand` dependency.
//!
//! # Example
//!
//! ```
//! use sslic_image::{synthetic::SyntheticImage, Plane};
//!
//! let img = SyntheticImage::builder(64, 48)
//!     .regions(6)
//!     .seed(7)
//!     .build();
//! assert_eq!(img.rgb.width(), 64);
//! assert_eq!(img.ground_truth.height(), 48);
//! // Every pixel carries a ground-truth region label.
//! let labels: &Plane<u32> = &img.ground_truth;
//! assert!(labels.iter().all(|&l| (l as usize) < img.region_count));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod plane;
mod rgb;

pub mod draw;
pub mod filter;
pub mod gradient;
pub mod ppm;
pub mod prng;
pub mod synthetic;

pub use error::ImageError;
pub use plane::Plane;
pub use rgb::{Rgb, RgbImage};
