//! Hardware-style quantizers, LUT builders, and rounded division.
//!
//! The S-SLIC accelerator uses an 8-bit fixed-point datapath (paper §6.1)
//! and LUT-based function approximation in its color-conversion unit: a
//! 256-entry LUT for the sRGB gamma power function and an 8-segment
//! piecewise-linear approximation of the CIELAB cube root. This crate
//! provides the numeric pieces those models are built on:
//!
//! * [`Quantizer`] — a uniform quantizer over an arbitrary real range at a
//!   configurable bit width, used by the §6.1 bit-width exploration.
//! * [`Lut256`] — an indexed table LUT (the gamma LUT).
//! * [`PwlLut`] — a piecewise-linear LUT with uniform segments (the cube
//!   root LUT).
//! * [`rounded_div`] — the Center Update Unit's rounded integer divider.
//!
//! # Example
//!
//! ```
//! use sslic_fixed::{rounded_div, Quantizer};
//!
//! // An 8-bit channel code, saturating instead of wrapping, as real
//! // datapaths are built:
//! let q = Quantizer::new(8, 0.0, 255.0);
//! assert_eq!(q.encode(300.0), 255);
//! // A center coordinate from an accumulated sum and a member count:
//! assert_eq!(rounded_div(10, 4), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod div;
mod lut;
mod quant;

pub use div::rounded_div;
pub use lut::{Lut256, PwlLut};
pub use quant::Quantizer;
