//! One-call evaluation: every metric in the crate against one
//! segmentation, with a formatted report.

use sslic_image::{Plane, RgbImage};

use crate::boundary::boundary_precision;
use crate::overlap::corrected_undersegmentation_error;
use crate::{
    achievable_segmentation_accuracy, boundary_recall, compactness, explained_variation,
    undersegmentation_error,
};

/// All segmentation-quality metrics for one label map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSuite {
    /// Undersegmentation error (Achanta, 5 % tolerance). Lower is better.
    pub undersegmentation_error: f64,
    /// Corrected undersegmentation error (Neubert–Protzel). Lower is
    /// better.
    pub corrected_use: f64,
    /// Boundary recall at the given tolerance. Higher is better.
    pub boundary_recall: f64,
    /// Boundary precision at the given tolerance. Higher is better.
    pub boundary_precision: f64,
    /// Achievable segmentation accuracy. Higher is better.
    pub asa: f64,
    /// Isoperimetric compactness. Higher is more regular.
    pub compactness: f64,
    /// Explained color variation (`None` when no image was supplied).
    pub explained_variation: Option<f64>,
    /// Boundary tolerance the recall/precision used.
    pub tolerance: usize,
}

impl MetricSuite {
    /// Evaluates every ground-truth metric, plus explained variation when
    /// the source image is provided.
    ///
    /// # Panics
    ///
    /// Panics if the maps (or image) disagree on geometry.
    pub fn evaluate(
        labels: &Plane<u32>,
        ground_truth: &Plane<u32>,
        image: Option<&RgbImage>,
        tolerance: usize,
    ) -> Self {
        MetricSuite {
            undersegmentation_error: undersegmentation_error(labels, ground_truth),
            corrected_use: corrected_undersegmentation_error(labels, ground_truth),
            boundary_recall: boundary_recall(labels, ground_truth, tolerance),
            boundary_precision: boundary_precision(labels, ground_truth, tolerance),
            asa: achievable_segmentation_accuracy(labels, ground_truth),
            compactness: compactness(labels),
            explained_variation: image.map(|img| explained_variation(img, labels)),
            tolerance,
        }
    }
}

impl std::fmt::Display for MetricSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "undersegmentation error  {:.4}", self.undersegmentation_error)?;
        writeln!(f, "corrected USE            {:.4}", self.corrected_use)?;
        writeln!(
            f,
            "boundary recall (tol {})  {:.4}",
            self.tolerance, self.boundary_recall
        )?;
        writeln!(
            f,
            "boundary precision       {:.4}",
            self.boundary_precision
        )?;
        writeln!(f, "ASA                      {:.4}", self.asa)?;
        write!(f, "compactness              {:.4}", self.compactness)?;
        if let Some(ev) = self.explained_variation {
            write!(f, "\nexplained variation      {ev:.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslic_image::Rgb;

    #[test]
    fn perfect_segmentation_scores_perfectly_everywhere() {
        let gt = Plane::from_fn(16, 16, |x, _| (x / 8) as u32);
        let img = RgbImage::from_fn(16, 16, |x, _| {
            if x < 8 {
                Rgb::new(0, 0, 0)
            } else {
                Rgb::new(255, 255, 255)
            }
        });
        let suite = MetricSuite::evaluate(&gt, &gt, Some(&img), 2);
        assert_eq!(suite.undersegmentation_error, 0.0);
        assert_eq!(suite.corrected_use, 0.0);
        assert_eq!(suite.boundary_recall, 1.0);
        assert_eq!(suite.boundary_precision, 1.0);
        assert_eq!(suite.asa, 1.0);
        assert_eq!(suite.explained_variation, Some(1.0));
    }

    #[test]
    fn image_is_optional() {
        let gt = Plane::filled(8, 8, 0u32);
        let suite = MetricSuite::evaluate(&gt, &gt, None, 2);
        assert_eq!(suite.explained_variation, None);
    }

    #[test]
    fn display_is_multiline_and_complete() {
        let gt = Plane::from_fn(8, 8, |x, _| (x / 4) as u32);
        let suite = MetricSuite::evaluate(&gt, &gt, None, 1);
        let s = suite.to_string();
        assert!(s.contains("undersegmentation error"));
        assert!(s.contains("ASA"));
        assert!(s.lines().count() >= 6);
        assert!(!s.contains("explained variation"), "no image supplied");
    }
}
