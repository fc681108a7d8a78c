//! Connectivity enforcement — SLIC's final post-processing step.
//!
//! k-means assignment does not guarantee each superpixel is a single
//! connected region: "a final step is performed to enforce the
//! connectivity, ensuring that any stray pixels that may still be disjoint
//! are assigned to the closest large SP" (paper §2).
//!
//! The result is the standard SLIC post-pass's: every 4-connected
//! component smaller than `min_size` takes the final label of the pixel
//! left of its raster-first pixel (above it, in column 0). It is computed
//! on runs rather than pixels. Each row splits into maximal runs of one
//! label; a union-find joins every run to the same-label runs it overlaps
//! in the row above, always linking to the smaller index, so a component's
//! root is its raster-first run and carries its size. Components are then
//! resolved in root order and only the runs whose label changes are
//! rewritten. A 1280×720, K = 600 S-SLIC label map has about 50k runs
//! against 921 600 pixels.

use sslic_image::Plane;

/// One maximal run of equal labels within a row.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// First column.
    start: u32,
    /// One past the last column.
    end: u32,
    /// The input label until the run is resolved, its final label after.
    label: u32,
    /// Union-find parent: never a larger index than the run's own.
    parent: u32,
    /// Pixel count of the component, while this run is its root.
    size: u32,
}

/// Reusable working memory of the connectivity pass: the run table and
/// each row's first run. A streaming session allocates one `ConnScratch`
/// per geometry and reuses it every frame, so steady-state connectivity
/// enforcement is allocation-free: the run table is reserved for the worst
/// case, one run per pixel (a checkerboard).
#[derive(Debug)]
pub struct ConnScratch {
    width: usize,
    height: usize,
    runs: Vec<Run>,
    row_start: Vec<u32>,
}

impl ConnScratch {
    /// Allocates scratch for `width × height` label maps.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the map has more than
    /// `u32::MAX` pixels.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "label map dimensions must be nonzero"
        );
        let pixels = width
            .checked_mul(height)
            .filter(|&n| n <= u32::MAX as usize);
        assert!(
            pixels.is_some(),
            "label map {width}x{height} exceeds u32::MAX pixels"
        );
        ConnScratch {
            width,
            height,
            runs: Vec::with_capacity(width * height),
            row_start: Vec::with_capacity(height + 1),
        }
    }

    /// Width the scratch was sized for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height the scratch was sized for.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Splits `labels` into runs and joins each run to the same-label runs
    /// it overlaps in the row above. Afterwards the roots are exactly the
    /// components' raster-first runs, each holding its component's size.
    fn join_runs(&mut self, labels: &Plane<u32>) {
        let w = self.width;
        self.runs.clear();
        self.row_start.clear();
        let mut above = 0;
        for row in labels.as_slice().chunks_exact(w) {
            let first = self.runs.len();
            self.row_start.push(first as u32);
            let mut start = 0;
            while start < w {
                let label = row[start];
                let end = row[start..]
                    .iter()
                    .position(|&l| l != label)
                    .map_or(w, |n| start + n);
                let index = self.runs.len() as u32;
                self.runs.push(Run {
                    start: start as u32,
                    end: end as u32,
                    label,
                    parent: index,
                    size: (end - start) as u32,
                });
                start = end;
            }
            // Runs tile both rows, so advancing whichever run ends first
            // (both on a tie) visits exactly the overlapping pairs.
            let (mut a, mut b) = (above, first);
            while a < first && b < self.runs.len() {
                let (ra, rb) = (self.runs[a], self.runs[b]);
                if ra.label == rb.label {
                    union(&mut self.runs, a, b);
                }
                if ra.end <= rb.end {
                    a += 1;
                }
                if rb.end <= ra.end {
                    b += 1;
                }
            }
            above = first;
        }
        self.row_start.push(self.runs.len() as u32);
    }
}

/// Root of run `i`, halving the path on the way.
fn find(runs: &mut [Run], mut i: usize) -> usize {
    while runs[i].parent as usize != i {
        let grandparent = runs[runs[i].parent as usize].parent;
        runs[i].parent = grandparent;
        i = grandparent as usize;
    }
    i
}

/// Joins the components of runs `a` and `b` under the smaller root.
fn union(runs: &mut [Run], a: usize, b: usize) {
    let (ra, rb) = (find(runs, a), find(runs, b));
    if ra != rb {
        let (root, child) = (ra.min(rb), ra.max(rb));
        runs[child].parent = root as u32;
        runs[root].size += runs[child].size;
    }
}

/// Rewrites `labels` in place so stray fragments smaller than `min_size`
/// pixels are absorbed by an adjacent region, and returns the number of
/// absorbed components.
///
/// A small component takes the final label of the pixel left of its
/// raster-first pixel, or of the pixel above it when that first pixel is
/// in column 0. After the pass every 4-connected component has at least
/// `min_size` pixels, with one possible exception: the component
/// containing pixel `(0, 0)`, the only one with no earlier neighbour to
/// absorb into (the same property the reference SLIC post-pass has).
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
    scratch.join_runs(labels);
    let ConnScratch {
        runs, row_start, ..
    } = scratch;
    let mut absorbed = 0usize;
    for (y, row) in labels.as_mut_slice().chunks_exact_mut(w).enumerate() {
        for i in row_start[y] as usize..row_start[y + 1] as usize {
            // A parent precedes its child, so it already points at its root.
            let root = runs[runs[i].parent as usize].parent as usize;
            runs[i].parent = root as u32;
            let label = if root < i {
                runs[root].label
            } else if (runs[i].size as usize) < min_size && i > 0 {
                // Absorb into the run holding the pixel left of this
                // component's first pixel (above it, in column 0): an
                // earlier run, so its label is final. Run 0, at (0, 0),
                // has no such neighbour and keeps its label.
                absorbed += 1;
                let left = if runs[i].start > 0 {
                    i - 1
                } else {
                    row_start[y - 1] as usize
                };
                runs[left].label
            } else {
                runs[i].label
            };
            let run = &mut runs[i];
            if label != run.label {
                row[run.start as usize..run.end as usize].fill(label);
                run.label = label;
            }
        }
    }
    absorbed
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

/// Returns the size of every 4-connected component in `labels`, in raster
/// order of the components' first pixels (test and metric helper).
pub fn component_sizes(labels: &Plane<u32>) -> Vec<usize> {
    let mut scratch = ConnScratch::new(labels.width(), labels.height());
    scratch.join_runs(labels);
    scratch
        .runs
        .iter()
        .enumerate()
        .filter(|&(i, run)| run.parent as usize == i)
        .map(|(_, run)| run.size as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sslic_image::prng::SplitMix64;

    /// The raster flood fill the run-length pass replaced, kept as its
    /// oracle. It seeds every 4-connected component at its raster-first
    /// pixel and absorbs a small one into the current label of its left
    /// neighbour (top, in column 0). Returns the absorbed count and the
    /// input components' sizes in seed order.
    fn flood_fill(labels: &mut Plane<u32>, min_size: usize) -> (usize, Vec<usize>) {
        let (w, h) = (labels.width(), labels.height());
        let mut visited = Plane::filled(w, h, false);
        let mut stack = Vec::new();
        let mut members = Vec::new();
        let mut sizes = Vec::new();
        let mut absorbed = 0;
        for sy in 0..h {
            for sx in 0..w {
                if visited[(sx, sy)] {
                    continue;
                }
                let label = labels[(sx, sy)];
                let adjacent = adjacent_label(labels, &visited, sx, sy);
                members.clear();
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
                sizes.push(members.len());
                if members.len() < min_size {
                    if let Some(new_label) = adjacent {
                        for &(x, y) in &members {
                            labels[(x, y)] = new_label;
                        }
                        absorbed += 1;
                    }
                }
            }
        }
        (absorbed, sizes)
    }

    /// Label of an already-visited 4-neighbour of `(x, y)`, if any.
    fn adjacent_label(
        labels: &Plane<u32>,
        visited: &Plane<bool>,
        x: usize,
        y: usize,
    ) -> Option<u32> {
        // In raster order the left and top neighbors are always visited first.
        if x > 0 && visited[(x - 1, y)] {
            return Some(labels[(x - 1, y)]);
        }
        if y > 0 && visited[(x, y - 1)] {
            return Some(labels[(x, y - 1)]);
        }
        None
    }

    fn neighbors4(x: usize, y: usize, w: usize, h: usize) -> impl Iterator<Item = (usize, usize)> {
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

    /// A `w × h` map over `labels` labels: with probability `stick`/4 a
    /// pixel repeats its left or upper neighbour, so the maps mix single
    /// pixels with larger components.
    fn random_map(w: usize, h: usize, labels: u32, stick: u64, seed: u64) -> Plane<u32> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut map = Plane::filled(w, h, 0u32);
        for y in 0..h {
            for x in 0..w {
                let r = rng.next_u64();
                let left = (r >> 2) & 1 == 0;
                map[(x, y)] = match (r % 4 < stick, x > 0, y > 0) {
                    (true, true, false) => map[(x - 1, y)],
                    (true, true, true) if left => map[(x - 1, y)],
                    (true, _, true) => map[(x, y - 1)],
                    _ => ((r >> 3) % u64::from(labels)) as u32,
                };
            }
        }
        map
    }

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
            let mut fresh =
                Plane::from_fn(16, 16, |x, y| ((x * 7 + y * 13 + seed as usize) % 5) as u32);
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

    #[test]
    fn checkerboard_worst_case_never_grows_the_scratch() {
        // One run per pixel: the case the run table is reserved for.
        let (w, h) = (33, 17);
        let mut scratch = ConnScratch::new(w, h);
        let capacities = |s: &ConnScratch| (s.runs.capacity(), s.row_start.capacity());
        let before = capacities(&scratch);
        for min_size in [1usize, 2, 5, 1000] {
            let mut labels = Plane::from_fn(w, h, |x, y| ((x + y) % 2) as u32);
            let mut want = labels.clone();
            let (want_absorbed, _) = flood_fill(&mut want, min_size);
            let absorbed = enforce_connectivity_with(&mut labels, min_size, &mut scratch);
            assert_eq!(absorbed, want_absorbed, "min_size {min_size}");
            assert_eq!(labels, want, "min_size {min_size}");
            assert_eq!(scratch.runs.len(), w * h);
            assert_eq!(capacities(&scratch), before, "min_size {min_size}");
        }
    }

    #[test]
    #[ignore = "segments 1280x720 frames; run in release"]
    fn full_size_session_maps_match_the_flood_fill_oracle() {
        use crate::{DistanceMode, RunOptions, SegmentRequest, Segmenter, SlicParams};
        use sslic_image::synthetic::SyntheticImage;

        // The camera workload's engine, with connectivity left to this test.
        let (w, h) = (1280, 720);
        let params = SlicParams::builder(600)
            .iterations(5)
            .enforce_connectivity(false)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8));
        let mut maps = Vec::new();
        for seed in [5, 21, 7919] {
            let img = SyntheticImage::builder(w, h).seed(seed).regions(32).build();
            let mut session = seg.session(w, h);
            session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            maps.push(session.labels().clone());
        }
        maps.push(random_map(w, h, 3, 0, 1));
        let mut scratch = ConnScratch::new(w, h);
        // S² = 1536 here; the engine's default min_size is S²/4 = 384.
        for (m, map) in maps.iter().enumerate() {
            for min_size in [1usize, 16, 96, 384, 1536] {
                let (mut want, mut got) = (map.clone(), map.clone());
                let (want_absorbed, _) = flood_fill(&mut want, min_size);
                let absorbed = enforce_connectivity_with(&mut got, min_size, &mut scratch);
                assert_eq!(absorbed, want_absorbed, "map {m}, min_size {min_size}");
                assert!(got == want, "map {m}, min_size {min_size}: labels differ");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn run_length_pass_matches_the_flood_fill_oracle(
            shape in 0u8..4,
            w in 1usize..41,
            h in 1usize..41,
            labels in 1u32..7,
            stick in 0u64..4,
            min_size in 1usize..65,
            seed in any::<u64>(),
        ) {
            // Shapes 0 and 1 are a single row and a single column.
            let (w, h) = match shape {
                0 => (w, 1),
                1 => (1, h),
                _ => (w, h),
            };
            let input = random_map(w, h, labels, stick, seed);
            let mut want = input.clone();
            let (want_absorbed, want_sizes) = flood_fill(&mut want, min_size);
            let mut got = input.clone();
            let absorbed = enforce_connectivity(&mut got, min_size);
            prop_assert_eq!(absorbed, want_absorbed);
            prop_assert!(got == want, "labels differ on a {}x{} map", w, h);
            prop_assert_eq!(component_sizes(&input), want_sizes);
        }
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
            // at (0,0): it is the only one with no earlier neighbour to
            // absorb into.
            let small = sizes.iter().filter(|&&s| s < min_size).count();
            prop_assert!(small <= 1, "at most the scan-first component may stay small");
        }
    }
}
