//! Per-superpixel feature extraction — the representation downstream
//! vision stages (classification, depth estimation, region segmentation;
//! paper §1) consume instead of raw pixels.

use sslic_color::LabImage;
use sslic_image::Plane;

/// Summary statistics of one superpixel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperpixelFeatures {
    /// The superpixel's label.
    pub label: u32,
    /// Member pixel count.
    pub size: u64,
    /// Mean CIELAB color.
    pub mean_lab: [f32; 3],
    /// Per-channel CIELAB variance.
    pub var_lab: [f32; 3],
    /// Centroid `(x, y)`.
    pub centroid: (f32, f32),
    /// Inclusive bounding box `(x0, y0, x1, y1)`.
    pub bbox: (usize, usize, usize, usize),
}

/// Extracts features for every label present in `labels`, sorted by label.
///
/// Labels absent from the map simply have no entry; the result is dense in
/// the *present* labels, not in the label space.
///
/// # Panics
///
/// Panics if `lab` and `labels` disagree on geometry.
///
/// # Example
///
/// ```
/// use sslic_core::features::extract_features;
/// use sslic_color::LabImage;
/// use sslic_image::Plane;
///
/// let lab = LabImage::from_fn(8, 4, |x, _| [x as f32 * 10.0, 0.0, 0.0]);
/// let labels = Plane::from_fn(8, 4, |x, _| (x / 4) as u32);
/// let feats = extract_features(&lab, &labels);
/// assert_eq!(feats.len(), 2);
/// assert_eq!(feats[0].size, 16);
/// assert!(feats[0].mean_lab[0] < feats[1].mean_lab[0]);
/// ```
pub fn extract_features(lab: &LabImage, labels: &Plane<u32>) -> Vec<SuperpixelFeatures> {
    assert!(
        lab.width() == labels.width() && lab.height() == labels.height(),
        "image and label map must share geometry"
    );
    use std::collections::BTreeMap;
    struct Acc {
        size: u64,
        sum: [f64; 3],
        sum_sq: [f64; 3],
        sum_x: f64,
        sum_y: f64,
        bbox: (usize, usize, usize, usize),
    }
    let mut accs: BTreeMap<u32, Acc> = BTreeMap::new();
    for y in 0..lab.height() {
        for x in 0..lab.width() {
            let l = labels[(x, y)];
            let px = lab.pixel(x, y);
            let acc = accs.entry(l).or_insert(Acc {
                size: 0,
                sum: [0.0; 3],
                sum_sq: [0.0; 3],
                sum_x: 0.0,
                sum_y: 0.0,
                bbox: (x, y, x, y),
            });
            acc.size += 1;
            for (c, &v) in px.iter().enumerate() {
                acc.sum[c] += v as f64;
                acc.sum_sq[c] += (v as f64) * (v as f64);
            }
            acc.sum_x += x as f64;
            acc.sum_y += y as f64;
            acc.bbox.0 = acc.bbox.0.min(x);
            acc.bbox.1 = acc.bbox.1.min(y);
            acc.bbox.2 = acc.bbox.2.max(x);
            acc.bbox.3 = acc.bbox.3.max(y);
        }
    }
    accs.into_iter()
        .map(|(label, a)| {
            let n = a.size as f64;
            let mut mean = [0f32; 3];
            let mut var = [0f32; 3];
            for c in 0..3 {
                let m = a.sum[c] / n;
                mean[c] = m as f32;
                var[c] = ((a.sum_sq[c] / n - m * m).max(0.0)) as f32;
            }
            SuperpixelFeatures {
                label,
                size: a.size,
                mean_lab: mean,
                var_lab: var,
                centroid: ((a.sum_x / n) as f32, (a.sum_y / n) as f32),
                bbox: a.bbox,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_lab() -> (LabImage, Plane<u32>) {
        let lab = LabImage::from_fn(8, 4, |x, _| {
            if x < 4 {
                [20.0, 5.0, -5.0]
            } else {
                [80.0, -10.0, 10.0]
            }
        });
        let labels = Plane::from_fn(8, 4, |x, _| (x / 4) as u32);
        (lab, labels)
    }

    #[test]
    fn features_of_flat_regions() {
        let (lab, labels) = split_lab();
        let f = extract_features(&lab, &labels);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].label, 0);
        assert_eq!(f[0].size, 16);
        assert_eq!(f[0].mean_lab, [20.0, 5.0, -5.0]);
        assert_eq!(f[0].var_lab, [0.0, 0.0, 0.0]);
        assert_eq!(f[0].bbox, (0, 0, 3, 3));
        assert!((f[0].centroid.0 - 1.5).abs() < 1e-6);
        assert!((f[1].centroid.0 - 5.5).abs() < 1e-6);
    }

    #[test]
    fn variance_captures_within_region_spread() {
        let lab = LabImage::from_fn(4, 1, |x, _| [if x % 2 == 0 { 0.0 } else { 10.0 }, 0.0, 0.0]);
        let labels = Plane::filled(4, 1, 0u32);
        let f = extract_features(&lab, &labels);
        assert_eq!(f[0].mean_lab[0], 5.0);
        assert_eq!(f[0].var_lab[0], 25.0);
    }

    #[test]
    fn ragged_shapes_keep_their_size_and_bbox() {
        // An L-shaped region fills 3 of the 4 pixels of its bounding box.
        let labels = Plane::from_fn(2, 2, |x, y| u32::from(x == 1 && y == 0));
        let lab = LabImage::from_fn(2, 2, |_, _| [0.0; 3]);
        let f = extract_features(&lab, &labels);
        let l_shape = f.iter().find(|f| f.label == 0).expect("label 0");
        assert_eq!(l_shape.size, 3);
        assert_eq!(l_shape.bbox, (0, 0, 1, 1));
    }

    #[test]
    fn sorted_by_label_and_sizes_conserve_pixels() {
        let lab = LabImage::from_fn(9, 9, |_, _| [1.0; 3]);
        let labels = Plane::from_fn(9, 9, |x, y| ((x * 31 + y * 7) % 5) as u32);
        let f = extract_features(&lab, &labels);
        assert!(f.windows(2).all(|w| w[0].label < w[1].label));
        assert_eq!(f.iter().map(|s| s.size).sum::<u64>(), 81);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn mismatched_geometry_panics() {
        let lab = LabImage::from_fn(4, 4, |_, _| [0.0; 3]);
        let labels = Plane::filled(4, 5, 0u32);
        let _ = extract_features(&lab, &labels);
    }
}
