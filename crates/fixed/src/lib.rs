//! Hardware-style fixed-point arithmetic, quantizers, and LUT builders.
//!
//! The S-SLIC accelerator uses an 8-bit fixed-point datapath (paper §6.1)
//! and LUT-based function approximation in its color-conversion unit: a
//! 256-entry LUT for the sRGB gamma power function and an 8-segment
//! piecewise-linear approximation of the CIELAB cube root. This crate
//! provides the numeric substrate those models are built on:
//!
//! * [`QFormat`] / [`Fx`] — signed fixed-point values in a `Qm.n` format
//!   with saturating hardware semantics.
//! * [`Quantizer`] — a uniform quantizer over an arbitrary real range at a
//!   configurable bit width, used by the §6.1 bit-width exploration.
//! * [`Lut256`] — an indexed table LUT (the gamma LUT).
//! * [`PwlLut`] — a piecewise-linear LUT with uniform segments (the cube
//!   root LUT).
//!
//! # Example
//!
//! ```
//! use sslic_fixed::{QFormat, Fx};
//!
//! let q = QFormat::new(4, 4); // Q4.4: 1 sign + 4 integer + 4 fraction bits
//! let a = Fx::from_f64(1.5, q);
//! let b = Fx::from_f64(2.25, q);
//! assert_eq!((a + b).to_f64(), 3.75);
//! // Saturation instead of wrap-around, as real datapaths are built:
//! let big = Fx::from_f64(100.0, q);
//! assert_eq!(big.to_f64(), q.max_value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod div;
mod format;
mod fx;
mod isqrt;
mod lut;
mod quant;

pub use div::rounded_div;
pub use format::QFormat;
pub use fx::Fx;
pub use isqrt::{isqrt, isqrt_rounded};
pub use lut::{Lut256, PwlLut};
pub use quant::Quantizer;
