use sslic_image::Plane;

/// Marks every boundary pixel of a label map: a pixel whose label differs
/// from its right or bottom 4-neighbour (1-pixel-wide internal contours).
pub(crate) fn boundary_map(labels: &Plane<u32>) -> Plane<bool> {
    let (w, h) = (labels.width(), labels.height());
    Plane::from_fn(w, h, |x, y| {
        let l = labels[(x, y)];
        (x + 1 < w && labels[(x + 1, y)] != l) || (y + 1 < h && labels[(x, y + 1)] != l)
    })
}

/// Boundary recall (Achanta et al.): the fraction of ground-truth boundary
/// pixels with a computed boundary pixel within Chebyshev distance
/// `tolerance` (the paper uses the conventional 2 pixels).
///
/// Returns 1.0 when the ground truth has no boundary at all (nothing to
/// recall).
///
/// # Panics
///
/// Panics if the maps disagree on geometry.
///
/// # Example
///
/// ```
/// use sslic_image::Plane;
/// use sslic_metrics::boundary_recall;
///
/// let gt = Plane::from_fn(12, 12, |x, _| if x < 6 { 0u32 } else { 1 });
/// // A segmentation whose boundary is 2 pixels off still recalls at tol 2…
/// let close = Plane::from_fn(12, 12, |x, _| if x < 8 { 0u32 } else { 1 });
/// assert_eq!(boundary_recall(&close, &gt, 2), 1.0);
/// // …but not at tolerance 1.
/// assert!(boundary_recall(&close, &gt, 1) < 1.0);
/// ```
pub fn boundary_recall(labels: &Plane<u32>, ground_truth: &Plane<u32>, tolerance: usize) -> f64 {
    matched_fraction(ground_truth, labels, tolerance)
}

/// Boundary precision: the fraction of *computed* boundary pixels within
/// `tolerance` of a ground-truth boundary pixel (the dual of
/// [`boundary_recall`]; useful to detect over-segmentation of flat areas).
///
/// Returns 1.0 when the computed map has no boundary.
///
/// # Panics
///
/// Panics if the maps disagree on geometry.
pub(crate) fn boundary_precision(
    labels: &Plane<u32>,
    ground_truth: &Plane<u32>,
    tolerance: usize,
) -> f64 {
    matched_fraction(labels, ground_truth, tolerance)
}

/// Fraction of `from`'s boundary pixels that have a boundary pixel of
/// `against` within Chebyshev distance `tolerance`.
fn matched_fraction(from: &Plane<u32>, against: &Plane<u32>, tolerance: usize) -> f64 {
    assert!(
        from.width() == against.width() && from.height() == against.height(),
        "label maps must share geometry"
    );
    let from_b = boundary_map(from);
    let against_b = boundary_map(against);
    let (w, h) = (from.width(), from.height());
    let t = tolerance as isize;
    let mut total = 0u64;
    let mut hit = 0u64;
    for y in 0..h {
        for x in 0..w {
            if !from_b[(x, y)] {
                continue;
            }
            total += 1;
            'search: for dy in -t..=t {
                for dx in -t..=t {
                    let nx = x as isize + dx;
                    let ny = y as isize + dy;
                    if nx >= 0
                        && ny >= 0
                        && (nx as usize) < w
                        && (ny as usize) < h
                        && against_b[(nx as usize, ny as usize)]
                    {
                        hit += 1;
                        break 'search;
                    }
                }
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vsplit(w: usize, h: usize, at: usize) -> Plane<u32> {
        Plane::from_fn(w, h, |x, _| if x < at { 0 } else { 1 })
    }

    #[test]
    fn uniform_map_has_no_boundary() {
        let labels = Plane::filled(8, 8, 3u32);
        assert!(boundary_map(&labels).iter().all(|&b| !b));
    }

    #[test]
    fn split_map_boundary_is_single_column() {
        let labels = vsplit(8, 4, 4);
        let b = boundary_map(&labels);
        for y in 0..4 {
            for x in 0..8 {
                assert_eq!(b[(x, y)], x == 3, "boundary only at x=3");
            }
        }
    }

    #[test]
    fn perfect_segmentation_recall_is_one() {
        let gt = vsplit(16, 16, 8);
        assert_eq!(boundary_recall(&gt, &gt, 0), 1.0);
    }

    #[test]
    fn recall_degrades_with_distance_beyond_tolerance() {
        let gt = vsplit(16, 16, 8);
        let off4 = vsplit(16, 16, 12);
        assert_eq!(boundary_recall(&off4, &gt, 2), 0.0);
        assert_eq!(boundary_recall(&off4, &gt, 4), 1.0);
    }

    #[test]
    fn no_gt_boundary_yields_full_recall() {
        let gt = Plane::filled(8, 8, 0u32);
        let labels = vsplit(8, 8, 4);
        assert_eq!(boundary_recall(&labels, &gt, 2), 1.0);
    }

    #[test]
    fn precision_is_dual_of_recall() {
        let gt = vsplit(16, 16, 8);
        // Over-segmented map: many extra boundaries far from GT.
        let over = Plane::from_fn(16, 16, |x, _| (x / 2) as u32);
        let prec = boundary_precision(&over, &gt, 1);
        assert!(prec < 0.5, "most computed boundaries are spurious: {prec}");
        // But recall of the GT boundary is perfect (x=7 boundary exists).
        assert_eq!(boundary_recall(&over, &gt, 1), 1.0);
    }

    #[test]
    fn oversegmentation_keeps_recall_high() {
        // Superpixels nested inside GT regions: every GT boundary is also
        // a superpixel boundary.
        let gt = vsplit(16, 16, 8);
        let sp = Plane::from_fn(16, 16, |x, y| ((x / 4) + 4 * (y / 4)) as u32);
        assert_eq!(boundary_recall(&sp, &gt, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn mismatched_geometry_panics() {
        let a = Plane::filled(8, 8, 0u32);
        let b = Plane::filled(8, 9, 0u32);
        let _ = boundary_recall(&a, &b, 2);
    }
}
