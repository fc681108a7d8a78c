use std::collections::HashMap;

use sslic_image::Plane;

/// Builds the superpixel↔ground-truth overlap table: for each superpixel
/// `s`, a map from ground-truth label to `|s ∩ g|`, plus `|s|` itself.
fn overlap_table(
    labels: &Plane<u32>,
    ground_truth: &Plane<u32>,
) -> (HashMap<u32, HashMap<u32, u64>>, HashMap<u32, u64>) {
    assert!(
        labels.width() == ground_truth.width() && labels.height() == ground_truth.height(),
        "label maps must share geometry"
    );
    let mut overlaps: HashMap<u32, HashMap<u32, u64>> = HashMap::new();
    let mut sizes: HashMap<u32, u64> = HashMap::new();
    for (s, g) in labels.iter().zip(ground_truth.iter()) {
        *overlaps.entry(*s).or_default().entry(*g).or_insert(0) += 1;
        *sizes.entry(*s).or_insert(0) += 1;
    }
    (overlaps, sizes)
}

/// Undersegmentation error, Achanta et al. (TPAMI 2012) formulation with
/// the conventional 5% overlap tolerance:
///
/// ```text
/// USE = (1/N) · [ Σ_g  Σ_{s : |s∩g| > 0.05·|s|} |s|  −  N ]
/// ```
///
/// A superpixel is charged to every ground-truth segment it meaningfully
/// overlaps; perfect boundary adherence yields 0, and bleeding across
/// ground-truth boundaries increases the value. Lower is better.
///
/// # Panics
///
/// Panics if the maps disagree on geometry.
///
/// # Example
///
/// ```
/// use sslic_image::Plane;
/// use sslic_metrics::undersegmentation_error;
///
/// let gt = Plane::from_fn(8, 8, |x, _| if x < 4 { 0u32 } else { 1 });
/// // A segmentation straddling the boundary has positive USE.
/// let bad = Plane::from_fn(8, 8, |_, y| (y / 4) as u32);
/// assert!(undersegmentation_error(&bad, &gt) > 0.0);
/// assert_eq!(undersegmentation_error(&gt, &gt), 0.0);
/// ```
pub fn undersegmentation_error(labels: &Plane<u32>, ground_truth: &Plane<u32>) -> f64 {
    let (overlaps, sizes) = overlap_table(labels, ground_truth);
    let n = labels.len() as f64;
    let mut charged = 0u64;
    for (s, per_gt) in &overlaps {
        let size = sizes[s];
        let threshold = 0.05 * size as f64;
        for &count in per_gt.values() {
            if count as f64 > threshold {
                charged += size;
            }
        }
    }
    ((charged as f64) - n).max(0.0) / n
}

/// Corrected undersegmentation error (Neubert & Protzel 2012):
///
/// ```text
/// USE_c = (1/N) · Σ_g Σ_{s ∩ g ≠ ∅} min(|s ∩ g|, |s \ g|)
/// ```
///
/// Free of the tolerance parameter and bounded by construction; each
/// superpixel is charged only its smaller "leak" per ground-truth segment.
/// Lower is better.
///
/// # Panics
///
/// Panics if the maps disagree on geometry.
pub(crate) fn corrected_undersegmentation_error(
    labels: &Plane<u32>,
    ground_truth: &Plane<u32>,
) -> f64 {
    let (overlaps, sizes) = overlap_table(labels, ground_truth);
    let n = labels.len() as f64;
    let mut total = 0u64;
    for (s, per_gt) in &overlaps {
        let size = sizes[s];
        for &inside in per_gt.values() {
            total += inside.min(size - inside);
        }
    }
    total as f64 / n
}

/// Achievable segmentation accuracy: the best pixel accuracy a downstream
/// segmenter could reach by assigning each superpixel to one ground-truth
/// segment:
///
/// ```text
/// ASA = (1/N) · Σ_s max_g |s ∩ g|
/// ```
///
/// Higher is better; 1.0 iff no superpixel straddles a boundary.
///
/// # Panics
///
/// Panics if the maps disagree on geometry.
pub fn achievable_segmentation_accuracy(
    labels: &Plane<u32>,
    ground_truth: &Plane<u32>,
) -> f64 {
    let (overlaps, _) = overlap_table(labels, ground_truth);
    let n = labels.len() as f64;
    let mut total = 0u64;
    for per_gt in overlaps.values() {
        total += per_gt.values().copied().max().unwrap_or(0);
    }
    total as f64 / n
}

/// Compactness (Schick et al. 2012): the size-weighted isoperimetric
/// quotient of the superpixels,
///
/// ```text
/// CO = Σ_s (|s|/N) · (4π·|s| / P_s²)
/// ```
///
/// where `P_s` is the boundary length of superpixel `s` (4-neighbour edge
/// count, image border included). 1.0 would be ideal circles; grid-like
/// SLIC superpixels score around 0.7–0.8.
pub fn compactness(labels: &Plane<u32>) -> f64 {
    let (w, h) = (labels.width(), labels.height());
    let mut sizes: HashMap<u32, u64> = HashMap::new();
    let mut perimeters: HashMap<u32, u64> = HashMap::new();
    for y in 0..h {
        for x in 0..w {
            let l = labels[(x, y)];
            *sizes.entry(l).or_insert(0) += 1;
            let mut p = 0u64;
            // Count exposed edges of this pixel (different label or image
            // border).
            if x == 0 || labels[(x - 1, y)] != l {
                p += 1;
            }
            if x + 1 == w || labels[(x + 1, y)] != l {
                p += 1;
            }
            if y == 0 || labels[(x, y - 1)] != l {
                p += 1;
            }
            if y + 1 == h || labels[(x, y + 1)] != l {
                p += 1;
            }
            *perimeters.entry(l).or_insert(0) += p;
        }
    }
    let n = labels.len() as f64;
    let mut co = 0.0;
    for (l, &size) in &sizes {
        let perim = perimeters[l] as f64;
        if perim > 0.0 {
            let q = 4.0 * std::f64::consts::PI * size as f64 / (perim * perim);
            co += (size as f64 / n) * q.min(1.0);
        }
    }
    co
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn vsplit(w: usize, h: usize, at: usize) -> Plane<u32> {
        Plane::from_fn(w, h, |x, _| if x < at { 0 } else { 1 })
    }

    #[test]
    fn perfect_segmentation_scores_perfectly() {
        let gt = vsplit(16, 16, 8);
        assert_eq!(undersegmentation_error(&gt, &gt), 0.0);
        assert_eq!(corrected_undersegmentation_error(&gt, &gt), 0.0);
        assert_eq!(achievable_segmentation_accuracy(&gt, &gt), 1.0);
    }

    #[test]
    fn oversegmentation_respecting_boundaries_is_free() {
        // Superpixels nested inside GT regions: no bleeding.
        let gt = vsplit(16, 16, 8);
        let sp = Plane::from_fn(16, 16, |x, y| ((x / 4) + 4 * (y / 4)) as u32);
        assert_eq!(undersegmentation_error(&sp, &gt), 0.0);
        assert_eq!(corrected_undersegmentation_error(&sp, &gt), 0.0);
        assert_eq!(achievable_segmentation_accuracy(&sp, &gt), 1.0);
    }

    #[test]
    fn straddling_superpixels_are_charged() {
        let gt = vsplit(16, 16, 8);
        // Horizontal bands: every superpixel straddles the vertical GT edge.
        let sp = Plane::from_fn(16, 16, |_, y| (y / 4) as u32);
        let u = undersegmentation_error(&sp, &gt);
        let c = corrected_undersegmentation_error(&sp, &gt);
        let asa = achievable_segmentation_accuracy(&sp, &gt);
        assert!(u > 0.5, "each band is charged twice: USE={u}");
        // Every band splits 50/50 across the GT edge and is charged
        // min(32,32)=32 by *each* of the two segments: USE_c = 1.0, its
        // maximum (Σ_g min(x, |s|−x) ≤ Σ_g x = |s|).
        assert!((c - 1.0).abs() < 1e-9, "worst-case straddle: {c}");
        assert!((asa - 0.5).abs() < 1e-9, "half the pixels recoverable: {asa}");
    }

    #[test]
    fn use_is_monotone_in_misalignment() {
        let gt = vsplit(32, 32, 16);
        let slightly_off = vsplit(32, 32, 18);
        let badly_off = vsplit(32, 32, 26);
        let u1 = corrected_undersegmentation_error(&slightly_off, &gt);
        let u2 = corrected_undersegmentation_error(&badly_off, &gt);
        assert!(u1 < u2, "more misalignment, more error: {u1} vs {u2}");
    }

    #[test]
    fn compactness_prefers_squares_over_stripes() {
        let squares = Plane::from_fn(16, 16, |x, y| ((x / 4) + 4 * (y / 4)) as u32);
        let stripes = Plane::from_fn(16, 16, |x, _| x as u32 % 16);
        assert!(compactness(&squares) > compactness(&stripes));
    }

    #[test]
    fn compactness_bounded_by_one() {
        let labels = Plane::from_fn(12, 12, |x, y| ((x / 3) + 4 * (y / 3)) as u32);
        let co = compactness(&labels);
        assert!(co > 0.0 && co <= 1.0, "CO = {co}");
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn mismatched_geometry_panics() {
        let a = Plane::filled(4, 4, 0u32);
        let b = Plane::filled(4, 5, 0u32);
        let _ = undersegmentation_error(&a, &b);
    }

    proptest! {
        #[test]
        fn metric_bounds_hold_on_random_maps(seed in 0u64..200) {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let labels = Plane::from_fn(16, 16, |_, _| (next() % 6) as u32);
            let gt = Plane::from_fn(16, 16, |_, _| (next() % 3) as u32);
            let u = undersegmentation_error(&labels, &gt);
            let c = corrected_undersegmentation_error(&labels, &gt);
            let asa = achievable_segmentation_accuracy(&labels, &gt);
            prop_assert!(u >= 0.0);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&c), "USE_c ≤ 1: {c}");
            prop_assert!((0.0..=1.0).contains(&asa));
        }

        #[test]
        fn asa_of_identity_is_one(seed in 0u64..50) {
            let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state
            };
            let gt = Plane::from_fn(12, 12, |_, _| (next() % 5) as u32);
            prop_assert_eq!(achievable_segmentation_accuracy(&gt, &gt), 1.0);
        }
    }
}
