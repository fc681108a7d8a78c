//! RGB → CIELAB color conversion: the exact floating-point reference path
//! (paper Eqs. 1–4) and the accelerator's LUT-based 8-bit fixed-point path.
//!
//! Color conversion is the first stage of both SLIC and the S-SLIC
//! accelerator. The paper's hardware replaces the two power functions with
//! LUTs (§6.1): a 256-entry table for the sRGB gamma in the RGB→XYZ step
//! and an 8-segment piecewise-linear approximation of the cube root in the
//! XYZ→LAB step. Both paths are implemented here:
//!
//! * [`float`] — `f64` reference implementation of Eqs. 1–4.
//! * [`lab8`] — the 8-bit CIELAB encoding stored in the accelerator's
//!   channel scratchpads (`L·255/100`, `a+128`, `b+128`).
//! * [`hw`] — [`hw::HwColorConverter`], the LUT/fixed-point datapath model.
//! * [`LabImage`] / [`Lab8Image`] — planar CIELAB images at `f32` and `u8`.
//!
//! ## Paper errata handled here
//!
//! The paper's Eq. 1 writes the sRGB gamma as `[(x+0.05)/1.055]^2.4`; the
//! sRGB standard (and the SLIC reference code) uses `0.055`. Eq. 3 writes
//! `b = 200·(f_Y − f_X)`; CIELAB defines `b = 200·(f_Y − f_Z)`. We implement
//! the standard forms and note the typos in `EXPERIMENTS.md`.
//!
//! # Example
//!
//! ```
//! use sslic_color::{float, hw::HwColorConverter};
//! use sslic_image::Rgb;
//!
//! let px = Rgb::new(200, 60, 60);
//! let [l, a, b] = float::rgb8_to_lab(px);
//! assert!(l > 0.0 && a > 0.0); // a red pixel has positive a*
//!
//! let conv = HwColorConverter::paper_default();
//! let [l8, a8, b8] = conv.convert(px);
//! // The hardware path tracks the float path to within a few 8-bit LSBs.
//! let [fl, fa, fb] = sslic_color::lab8::encode([l, a, b]);
//! assert!((l8 as i16 - fl as i16).abs() <= 2);
//! assert!((a8 as i16 - fa as i16).abs() <= 7);
//! assert!((b8 as i16 - fb as i16).abs() <= 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod float;
pub mod hw;
pub mod lab8;

mod images;

pub use images::{Lab8Image, LabImage};
