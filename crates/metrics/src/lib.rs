//! Superpixel segmentation quality metrics.
//!
//! The paper evaluates SLIC/S-SLIC with the two standard superpixel metrics
//! of Achanta et al. (TPAMI 2012):
//!
//! * [`undersegmentation_error`] — how much computed superpixels "bleed"
//!   across ground-truth region boundaries (lower is better). The corrected
//!   Neubert–Protzel variant is reported by [`MetricSuite`].
//! * [`boundary_recall`] — the fraction of ground-truth boundary pixels
//!   that lie within a small tolerance of a computed superpixel boundary
//!   (higher is better).
//!
//! Two more metrics round out the suite for the extended analyses:
//! [`achievable_segmentation_accuracy`] (the upper bound on downstream
//! segmentation accuracy) and [`compactness`] (isoperimetric shape
//! regularity).
//!
//! # Example
//!
//! ```
//! use sslic_image::Plane;
//! use sslic_metrics::{boundary_recall, undersegmentation_error};
//!
//! // A perfect segmentation has zero USE and full boundary recall.
//! let gt = Plane::from_fn(16, 16, |x, _| if x < 8 { 0u32 } else { 1 });
//! assert_eq!(undersegmentation_error(&gt, &gt), 0.0);
//! assert_eq!(boundary_recall(&gt, &gt, 2), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod overlap;
mod suite;
mod variation;

pub use boundary::boundary_recall;
pub use overlap::{achievable_segmentation_accuracy, compactness, undersegmentation_error};
pub use suite::MetricSuite;
pub use variation::explained_variation;
