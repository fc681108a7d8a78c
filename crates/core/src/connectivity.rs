//! Connectivity enforcement — SLIC's final post-processing step.
//!
//! k-means assignment does not guarantee each superpixel is a single
//! connected region: "a final step is performed to enforce the
//! connectivity, ensuring that any stray pixels that may still be disjoint
//! are assigned to the closest large SP" (paper §2).
//!
//! The standard SLIC post-pass is implemented: scan the label map in raster
//! order, flood-fill each 4-connected component, and absorb components
//! smaller than `min_size` into the previously visited adjacent component
//! (which, after processing, is always a surviving large one).

use sslic_image::Plane;

/// Reusable working memory of the connectivity pass: a visited bitmap
/// (one byte per pixel), the flood-fill stack, and the member list. A
/// streaming session allocates one `ConnScratch` per geometry and reuses
/// it every frame, so steady-state connectivity enforcement is
/// allocation-free: both queues are pre-sized to their worst case (every
/// pixel of one component is pushed exactly once, so neither ever exceeds
/// `width × height` entries).
#[derive(Debug)]
pub struct ConnScratch {
    visited: Plane<bool>,
    stack: Vec<(usize, usize)>,
    members: Vec<(usize, usize)>,
}

impl ConnScratch {
    /// Allocates scratch for `width × height` label maps.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        ConnScratch {
            visited: Plane::filled(width, height, false),
            stack: Vec::with_capacity(width * height),
            members: Vec::with_capacity(width * height),
        }
    }

    /// Width the scratch was sized for.
    pub fn width(&self) -> usize {
        self.visited.width()
    }

    /// Height the scratch was sized for.
    pub fn height(&self) -> usize {
        self.visited.height()
    }
}

/// Rewrites `labels` in place so stray fragments smaller than `min_size`
/// pixels are absorbed by an adjacent region, and returns the number of
/// absorbed components.
///
/// After the pass every 4-connected component has at least `min_size`
/// pixels, with one possible exception: the component containing pixel
/// `(0, 0)`, whose flood-fill seed is the only one with no previously
/// visited neighbor to absorb into (the same property the reference SLIC
/// post-pass has).
///
/// `min_size` is typically `S²/4` — a quarter of the nominal superpixel
/// area.
///
/// # Panics
///
/// Panics if `min_size == 0`.
///
/// # Example
///
/// ```
/// use sslic_core::enforce_connectivity;
/// use sslic_image::Plane;
///
/// // A lone stray pixel of label 1 inside a sea of label 0.
/// let mut labels = Plane::filled(8, 8, 0u32);
/// labels[(4, 4)] = 1;
/// let absorbed = enforce_connectivity(&mut labels, 3);
/// assert_eq!(absorbed, 1);
/// assert_eq!(labels[(4, 4)], 0);
/// ```
pub fn enforce_connectivity(labels: &mut Plane<u32>, min_size: usize) -> usize {
    let mut scratch = ConnScratch::new(labels.width(), labels.height());
    enforce_connectivity_with(labels, min_size, &mut scratch)
}

/// [`enforce_connectivity`] operating through caller-owned scratch: the
/// pass allocates nothing, which is what lets a streaming session run its
/// connectivity post-pass every frame with zero heap traffic. The result
/// is identical to [`enforce_connectivity`].
///
/// # Panics
///
/// Panics if `min_size == 0` or `scratch` was sized for a different
/// geometry.
pub fn enforce_connectivity_with(
    labels: &mut Plane<u32>,
    min_size: usize,
    scratch: &mut ConnScratch,
) -> usize {
    assert!(min_size > 0, "min_size must be nonzero");
    let w = labels.width();
    let h = labels.height();
    assert!(
        scratch.width() == w && scratch.height() == h,
        "connectivity scratch sized for {}x{}, labels are {}x{}",
        scratch.width(),
        scratch.height(),
        w,
        h
    );
    let visited = &mut scratch.visited;
    visited.reset_to(false);
    let stack = &mut scratch.stack;
    let members = &mut scratch.members;
    let mut absorbed = 0usize;

    for sy in 0..h {
        for sx in 0..w {
            if visited[(sx, sy)] {
                continue;
            }
            let label = labels[(sx, sy)];
            // The label of the component visited immediately before this
            // one in scan order, to absorb into if we turn out small.
            // Standard SLIC uses the left/top neighbor of the seed.
            let adjacent = adjacent_label(labels, visited, sx, sy);

            // Flood fill this component.
            members.clear();
            stack.clear();
            stack.push((sx, sy));
            visited[(sx, sy)] = true;
            while let Some((x, y)) = stack.pop() {
                members.push((x, y));
                for (nx, ny) in neighbors4(x, y, w, h) {
                    if !visited[(nx, ny)] && labels[(nx, ny)] == label {
                        visited[(nx, ny)] = true;
                        stack.push((nx, ny));
                    }
                }
            }

            if members.len() < min_size {
                if let Some(new_label) = adjacent {
                    for &(x, y) in members.iter() {
                        labels[(x, y)] = new_label;
                    }
                    absorbed += 1;
                }
                // No adjacent component exists only when the whole image is
                // a single small component; keep it as is.
            }
        }
    }
    absorbed
}

/// Label of an already-visited 4-neighbour of `(x, y)`, if any.
fn adjacent_label(labels: &Plane<u32>, visited: &Plane<bool>, x: usize, y: usize) -> Option<u32> {
    // In raster order the left and top neighbors are always visited first.
    if x > 0 && visited[(x - 1, y)] {
        return Some(labels[(x - 1, y)]);
    }
    if y > 0 && visited[(x, y - 1)] {
        return Some(labels[(x, y - 1)]);
    }
    None
}

#[inline]
fn neighbors4(
    x: usize,
    y: usize,
    w: usize,
    h: usize,
) -> impl Iterator<Item = (usize, usize)> {
    let mut out = [(usize::MAX, usize::MAX); 4];
    let mut n = 0;
    if x > 0 {
        out[n] = (x - 1, y);
        n += 1;
    }
    if x + 1 < w {
        out[n] = (x + 1, y);
        n += 1;
    }
    if y > 0 {
        out[n] = (x, y - 1);
        n += 1;
    }
    if y + 1 < h {
        out[n] = (x, y + 1);
        n += 1;
    }
    out.into_iter().take(n)
}

/// Renumbers a label map to dense labels `0..n` in first-appearance
/// (raster) order, returning the new map and `n`. Useful after
/// connectivity enforcement or region merging, both of which leave holes
/// in the label space.
///
/// # Example
///
/// ```
/// use sslic_core::compact_labels;
/// use sslic_image::Plane;
///
/// let sparse = Plane::from_fn(4, 1, |x, _| [7u32, 42, 7, 9][x]);
/// let (dense, n) = compact_labels(&sparse);
/// assert_eq!(n, 3);
/// assert_eq!(dense.as_slice(), &[0, 1, 0, 2]);
/// ```
pub fn compact_labels(labels: &Plane<u32>) -> (Plane<u32>, usize) {
    // BTreeMap, not HashMap: remap *insertion* follows scan order either
    // way, but the determinism contract bans hash-ordered containers from
    // result-producing code outright so audits never have to reason about
    // which iteration orders happen to be benign.
    let mut remap: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();
    let mut next = 0u32;
    let dense = labels.map(|l| {
        *remap.entry(l).or_insert_with(|| {
            let id = next;
            next += 1;
            id
        })
    });
    (dense, next as usize)
}

/// Returns the size of every 4-connected component in `labels` (test and
/// metric helper; also used by the benches to verify post-conditions).
pub fn component_sizes(labels: &Plane<u32>) -> Vec<usize> {
    let w = labels.width();
    let h = labels.height();
    let mut visited = Plane::filled(w, h, false);
    let mut sizes = Vec::new();
    let mut stack = Vec::new();
    for sy in 0..h {
        for sx in 0..w {
            if visited[(sx, sy)] {
                continue;
            }
            let label = labels[(sx, sy)];
            let mut size = 0usize;
            stack.push((sx, sy));
            visited[(sx, sy)] = true;
            while let Some((x, y)) = stack.pop() {
                size += 1;
                for (nx, ny) in neighbors4(x, y, w, h) {
                    if !visited[(nx, ny)] && labels[(nx, ny)] == label {
                        visited[(nx, ny)] = true;
                        stack.push((nx, ny));
                    }
                }
            }
            sizes.push(size);
        }
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn connected_map_is_untouched() {
        let mut labels = Plane::from_fn(8, 8, |x, _| if x < 4 { 0u32 } else { 1 });
        let before = labels.clone();
        let absorbed = enforce_connectivity(&mut labels, 4);
        assert_eq!(absorbed, 0);
        assert_eq!(labels, before);
    }

    #[test]
    fn stray_pixel_is_absorbed() {
        let mut labels = Plane::filled(6, 6, 7u32);
        labels[(3, 3)] = 9;
        let absorbed = enforce_connectivity(&mut labels, 2);
        assert_eq!(absorbed, 1);
        assert!(labels.iter().all(|&l| l == 7));
    }

    #[test]
    fn disjoint_fragment_of_same_label_is_absorbed() {
        // Label 1 appears as a large left block and a tiny far-right
        // fragment; the fragment must be relabeled even though label 1 as a
        // whole is large.
        let mut labels = Plane::from_fn(12, 4, |x, _| match x {
            0..=4 => 1u32,
            11 => 1,
            _ => 2,
        });
        enforce_connectivity(&mut labels, 5);
        assert_eq!(labels[(11, 0)], 2, "fragment absorbed into neighbor");
        assert_eq!(labels[(2, 2)], 1, "large component intact");
    }

    #[test]
    fn large_components_survive() {
        let mut labels = Plane::from_fn(10, 10, |x, y| ((x / 5) + 2 * (y / 5)) as u32);
        let before = labels.clone();
        enforce_connectivity(&mut labels, 10);
        assert_eq!(labels, before);
    }

    #[test]
    fn post_condition_no_component_below_min_size() {
        // A noisy map with many singletons.
        let mut labels = Plane::from_fn(16, 16, |x, y| ((x * 7 + y * 13) % 5) as u32);
        enforce_connectivity(&mut labels, 6);
        let sizes = component_sizes(&labels);
        assert!(
            sizes.iter().all(|&s| s >= 6),
            "all components at least min_size: {sizes:?}"
        );
    }

    #[test]
    fn whole_image_single_small_component_is_kept() {
        let mut labels = Plane::filled(2, 2, 5u32);
        let absorbed = enforce_connectivity(&mut labels, 100);
        assert_eq!(absorbed, 0);
        assert!(labels.iter().all(|&l| l == 5));
    }

    #[test]
    #[should_panic(expected = "min_size")]
    fn zero_min_size_panics() {
        let mut labels = Plane::filled(2, 2, 0u32);
        let _ = enforce_connectivity(&mut labels, 0);
    }

    #[test]
    fn scratch_variant_matches_and_is_reusable() {
        let mut scratch = ConnScratch::new(16, 16);
        for seed in 0..4u32 {
            let mut fresh = Plane::from_fn(16, 16, |x, y| ((x * 7 + y * 13 + seed as usize) % 5) as u32);
            let mut reused = fresh.clone();
            let a = enforce_connectivity(&mut fresh, 6);
            let b = enforce_connectivity_with(&mut reused, 6, &mut scratch);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "connectivity scratch sized for")]
    fn scratch_geometry_mismatch_panics() {
        let mut labels = Plane::filled(4, 4, 0u32);
        let mut scratch = ConnScratch::new(5, 4);
        let _ = enforce_connectivity_with(&mut labels, 2, &mut scratch);
    }

    #[test]
    fn compact_labels_is_idempotent_and_order_preserving() {
        let sparse = Plane::from_fn(6, 2, |x, y| ((x + y * 13) * 100 % 7) as u32);
        let (dense, n) = compact_labels(&sparse);
        assert!(dense.iter().all(|&l| (l as usize) < n));
        // Same partition: pixels equal in sparse iff equal in dense.
        for i in 0..12 {
            for j in 0..12 {
                let a = sparse.as_slice()[i] == sparse.as_slice()[j];
                let b = dense.as_slice()[i] == dense.as_slice()[j];
                assert_eq!(a, b);
            }
        }
        let (again, m) = compact_labels(&dense);
        assert_eq!(again, dense);
        assert_eq!(m, n);
    }

    #[test]
    fn compact_labels_on_uniform_map() {
        let labels = Plane::filled(3, 3, 99u32);
        let (dense, n) = compact_labels(&labels);
        assert_eq!(n, 1);
        assert!(dense.iter().all(|&l| l == 0));
    }

    #[test]
    fn component_sizes_sums_to_pixel_count() {
        let labels = Plane::from_fn(9, 7, |x, y| ((x + y) % 3) as u32);
        let sizes = component_sizes(&labels);
        assert_eq!(sizes.iter().sum::<usize>(), 63);
    }

    #[test]
    fn all_one_label_map_terminates_untouched() {
        // The degenerate output of a fully collapsed segmentation: one
        // giant component covering the image. Must terminate (single
        // flood fill) and change nothing whatever min_size is.
        let mut labels = Plane::filled(64, 48, 3u32);
        let before = labels.clone();
        for min_size in [1usize, 16, 10_000] {
            let absorbed = enforce_connectivity(&mut labels, min_size);
            assert_eq!(absorbed, 0);
            assert_eq!(labels, before);
        }
    }

    #[test]
    fn checkerboard_collapses_to_contiguous_regions() {
        // Worst-case fragmentation: every pixel its own 4-connected
        // component. The pass must terminate and leave no undersized
        // fragment except possibly the scan-first one.
        let mut labels = Plane::from_fn(32, 32, |x, y| ((x + y) % 2) as u32);
        enforce_connectivity(&mut labels, 4);
        let sizes = component_sizes(&labels);
        assert_eq!(sizes.iter().sum::<usize>(), 32 * 32, "no pixel lost");
        let small = sizes.iter().filter(|&&s| s < 4).count();
        assert!(small <= 1, "sizes {sizes:?}");
        // And the surviving partition is contiguous by construction of
        // component_sizes; additionally each surviving label must form few
        // components, not the original 1024.
        assert!(sizes.len() < 1024 / 2);
    }

    #[test]
    fn out_of_range_labels_are_absorbed_like_any_other() {
        // Faulted label words (e.g. an undetected index-memory upset) can
        // carry values far beyond the cluster count. Connectivity
        // enforcement must treat them as ordinary stray fragments.
        let mut labels = Plane::filled(16, 16, 2u32);
        labels[(5, 5)] = u32::MAX;
        labels[(10, 3)] = 0xDEAD_BEEF;
        let absorbed = enforce_connectivity(&mut labels, 2);
        assert_eq!(absorbed, 2);
        assert!(labels.iter().all(|&l| l == 2));
    }

    #[test]
    fn adversarial_stripe_fragments_terminate_with_min_size_respected() {
        // One-pixel-wide vertical stripes of alternating labels: every
        // stripe is a legal (tall, thin) component of size h. With
        // min_size above h each stripe must be absorbed leftward in one
        // raster pass, not loop forever.
        let mut labels = Plane::from_fn(24, 8, |x, _| (x % 2) as u32);
        enforce_connectivity(&mut labels, 9);
        let sizes = component_sizes(&labels);
        assert_eq!(sizes.iter().sum::<usize>(), 24 * 8);
        let small = sizes.iter().filter(|&&s| s < 9).count();
        assert!(small <= 1, "sizes {sizes:?}");
    }

    proptest! {
        #[test]
        fn enforce_never_loses_pixels_and_min_size_holds(
            seed in 0u64..500,
            min_size in 1usize..8,
        ) {
            // Pseudo-random label maps.
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut labels = Plane::from_fn(12, 12, |_, _| (next() % 4) as u32);
            enforce_connectivity(&mut labels, min_size);
            let sizes = component_sizes(&labels);
            prop_assert_eq!(sizes.iter().sum::<usize>(), 144);
            // Every component respects min_size, except possibly the one
            // seeded at (0,0): it is the only one whose flood-fill seed has
            // no previously visited neighbor to absorb into.
            let small = sizes.iter().filter(|&&s| s < min_size).count();
            prop_assert!(small <= 1, "at most the scan-first component may stay small");
        }
    }
}
