use sslic_color::{lab8::DECODED, Lab8Image, LabImage};
use sslic_image::gradient::{min_gradient_in_3x3, Channel};
use sslic_image::Plane;

use crate::SeedGrid;

/// A superpixel cluster center: the 5-D vector `[L, a, b, x, y]` of the
/// paper (§2), i.e. the mean color and centroid of its member pixels.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cluster {
    /// Mean lightness `L*`.
    pub l: f32,
    /// Mean `a*`.
    pub a: f32,
    /// Mean `b*`.
    pub b: f32,
    /// Centroid column.
    pub x: f32,
    /// Centroid row.
    pub y: f32,
}

impl Cluster {
    /// Creates a cluster from its 5 coordinates.
    pub fn new(l: f32, a: f32, b: f32, x: f32, y: f32) -> Self {
        Cluster { l, a, b, x, y }
    }

    /// L1 distance moved from `previous`, in pixels: the per-cluster
    /// halting test of [`Segmenter::with_preemption`].
    ///
    /// [`Segmenter::with_preemption`]: crate::Segmenter::with_preemption
    pub(crate) fn movement_from(&self, previous: &Cluster) -> f32 {
        (self.x - previous.x).abs() + (self.y - previous.y).abs()
    }
}

/// Initializes cluster centers on the seed grid, sampling the color at each
/// seed and optionally perturbing seeds to the 3×3 minimum-gradient
/// position (paper §2). The gradient is evaluated only inside the seed
/// windows, straight from the Lab planes.
///
/// # Panics
///
/// Panics if `lab` and `grid` disagree on geometry.
pub fn init_clusters(lab: &LabImage, grid: &SeedGrid, perturb: bool) -> Vec<Cluster> {
    seed_on_grid(&[&lab.l, &lab.a, &lab.b], grid, perturb)
}

/// [`init_clusters`] over 8-bit codes, read through
/// [`DECODED`](sslic_color::lab8::DECODED): the seed samples and every
/// gradient window see the `f32` values [`Lab8Image::decode`] would
/// produce, so the centers equal `init_clusters(&lab8.decode(), ..)` bit
/// for bit, without the decoded planes.
///
/// # Panics
///
/// Panics if `lab8` and `grid` disagree on geometry.
pub(crate) fn init_clusters_from_codes(
    lab8: &Lab8Image,
    grid: &SeedGrid,
    perturb: bool,
) -> Vec<Cluster> {
    let [l, a, b] = &DECODED;
    let channels =
        [(&lab8.l, l), (&lab8.a, a), (&lab8.b, b)].map(|(codes, values)| Decoded { codes, values });
    seed_on_grid(&channels, grid, perturb)
}

/// One channel of 8-bit codes, read as the `f32` values they decode to.
struct Decoded<'a> {
    codes: &'a Plane<u8>,
    values: &'a [f32; 256],
}

impl Channel for Decoded<'_> {
    fn dims(&self) -> (usize, usize) {
        (self.codes.width(), self.codes.height())
    }

    #[inline]
    fn get_clamped(&self, x: isize, y: isize) -> f32 {
        self.values[usize::from(self.codes.get_clamped(x, y))]
    }
}

/// Cold seeding over three `[L, a, b]` channels: the seed sample of each
/// grid cell, moved to its 3×3 minimum-gradient position when `perturb`.
fn seed_on_grid<C: Channel>(channels: &[C; 3], grid: &SeedGrid, perturb: bool) -> Vec<Cluster> {
    let (w, h) = channels[0].dims();
    assert!(
        w == grid.width() && h == grid.height(),
        "image and grid must share geometry"
    );
    (0..grid.cluster_count())
        .map(|k| {
            let (fx, fy) = grid.seed_position(k);
            let mut x = (fx as usize).min(w - 1);
            let mut y = (fy as usize).min(h - 1);
            if perturb {
                (x, y) = min_gradient_in_3x3(channels, x, y);
            }
            let [l, a, b] = channels
                .each_ref()
                .map(|c| c.get_clamped(x as isize, y as isize));
            Cluster::new(l, a, b, x as f32, y as f32)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use sslic_image::prng::SplitMix64;
    use sslic_image::Plane;

    fn flat_lab(w: usize, h: usize, v: f32) -> LabImage {
        LabImage::from_fn(w, h, |_, _| [v, 0.0, 0.0])
    }

    /// The whole-plane seeding `init_clusters` replaced, kept as its
    /// oracle: clone the Lab planes, build the gradient of every pixel,
    /// then take the strict minimum over each seed's in-bounds 3×3
    /// window in row-major order.
    fn init_clusters_whole_plane(lab: &LabImage, grid: &SeedGrid, perturb: bool) -> Vec<Cluster> {
        let channels = [lab.l.clone(), lab.a.clone(), lab.b.clone()];
        let (w, h) = (lab.width(), lab.height());
        let gradient = Plane::from_fn(w, h, |x, y| {
            let (xi, yi) = (x as isize, y as isize);
            let mut gx = 0.0f32;
            let mut gy = 0.0f32;
            for c in &channels {
                let dx = c.get_clamped(xi + 1, yi) - c.get_clamped(xi - 1, yi);
                let dy = c.get_clamped(xi, yi + 1) - c.get_clamped(xi, yi - 1);
                gx += dx * dx;
                gy += dy * dy;
            }
            gx + gy
        });
        (0..grid.cluster_count())
            .map(|k| {
                let (fx, fy) = grid.seed_position(k);
                let mut x = (fx as usize).min(w - 1);
                let mut y = (fy as usize).min(h - 1);
                if perturb {
                    let (sx, sy) = (x, y);
                    let mut best_g = gradient[(sx, sy)];
                    for ny in sy.saturating_sub(1)..(sy + 2).min(h) {
                        for nx in sx.saturating_sub(1)..(sx + 2).min(w) {
                            if gradient[(nx, ny)] < best_g {
                                best_g = gradient[(nx, ny)];
                                (x, y) = (nx, ny);
                            }
                        }
                    }
                }
                let [l, a, b] = lab.pixel(x, y);
                Cluster::new(l, a, b, x as f32, y as f32)
            })
            .collect()
    }

    fn bits(clusters: &[Cluster]) -> Vec<[u32; 5]> {
        clusters
            .iter()
            .map(|c| [c.l, c.a, c.b, c.x, c.y].map(f32::to_bits))
            .collect()
    }

    #[test]
    fn seed_windows_match_the_whole_plane_gradient_bit_for_bit() {
        // (width, height, superpixels): 1×1, single columns and rows, odd
        // sizes, and grids with a seed on every pixel so that every border
        // and corner window occurs.
        let geometries = [
            (1, 1, 1),
            (1, 9, 3),
            (1, 7, 7),
            (11, 1, 4),
            (9, 1, 9),
            (5, 3, 15),
            (7, 5, 12),
            (13, 9, 117),
            (31, 17, 40),
            (97, 61, 150),
        ];
        let (mut moved, mut moved_codes) = (0, 0);
        for (w, h, k) in geometries {
            let grid = SeedGrid::new(w, h, k);
            for seed in 0..4u64 {
                let mut rng = SplitMix64::seed_from_u64(seed);
                // Few distinct values make gradient ties common, so the
                // tie rule is exercised as well as the minimum.
                let lab = LabImage::from_fn(w, h, |_, _| {
                    let r = rng.next_u64();
                    [(r % 4) as f32 * 25.0, (r >> 8) as f32 % 3.0 - 1.0, 0.5]
                });
                // Codes drawn from a few values per channel, ties again
                // common; seeding from them must equal seeding from their
                // decoded planes.
                let lab8 = Lab8Image::from_fn(w, h, |_, _| {
                    let r = rng.next_u64();
                    [
                        (r % 3) as u8 * 127,
                        126 + (r >> 8) as u8 % 3,
                        (r >> 16) as u8,
                    ]
                });
                let decoded = lab8.decode();
                for perturb in [false, true] {
                    let at = format!("{w}x{h}, K {k}, seed {seed}, perturb {perturb}");
                    let want = init_clusters_whole_plane(&lab, &grid, perturb);
                    let got = init_clusters(&lab, &grid, perturb);
                    assert_eq!(bits(&got), bits(&want), "{at}");
                    let want = init_clusters_whole_plane(&decoded, &grid, perturb);
                    let got = init_clusters_from_codes(&lab8, &grid, perturb);
                    assert_eq!(bits(&got), bits(&want), "codes: {at}");
                }
                let still = init_clusters(&lab, &grid, false);
                let perturbed = init_clusters(&lab, &grid, true);
                moved += still.iter().zip(&perturbed).filter(|(a, b)| a != b).count();
                let still = init_clusters_from_codes(&lab8, &grid, false);
                let perturbed = init_clusters_from_codes(&lab8, &grid, true);
                moved_codes += still.iter().zip(&perturbed).filter(|(a, b)| a != b).count();
            }
        }
        assert!(moved > 100, "perturbation moved only {moved} seeds");
        assert!(
            moved_codes > 100,
            "perturbation moved only {moved_codes} code seeds"
        );
    }

    #[test]
    fn init_produces_one_cluster_per_grid_cell() {
        let lab = flat_lab(60, 40, 50.0);
        let grid = SeedGrid::new(60, 40, 24);
        let clusters = init_clusters(&lab, &grid, false);
        assert_eq!(clusters.len(), grid.cluster_count());
    }

    #[test]
    fn init_samples_seed_color() {
        let lab = LabImage::from_fn(40, 40, |x, _| [x as f32, 0.0, 0.0]);
        let grid = SeedGrid::new(40, 40, 4);
        let clusters = init_clusters(&lab, &grid, false);
        for c in &clusters {
            assert_eq!(c.l, c.x, "cluster color sampled at its seed position");
        }
    }

    #[test]
    fn perturbation_moves_seed_off_edge() {
        // A strong vertical edge exactly through a seed column.
        let grid = SeedGrid::new(40, 40, 4); // 2×2 grid, seeds at x = 10, 30
        let lab = LabImage::from_fn(40, 40, |x, _| {
            [if x < 10 { 0.0 } else { 100.0 }, 0.0, 0.0]
        });
        let unperturbed = init_clusters(&lab, &grid, false);
        let perturbed = init_clusters(&lab, &grid, true);
        // Seeds in the first column sit on the gradient ridge at x=10 and
        // must move; their x must differ from the unperturbed position.
        assert_ne!(unperturbed[0].x, perturbed[0].x);
    }

    #[test]
    fn perturbation_is_noop_on_flat_images() {
        let lab = flat_lab(50, 50, 42.0);
        let grid = SeedGrid::new(50, 50, 9);
        let a = init_clusters(&lab, &grid, false);
        let b = init_clusters(&lab, &grid, true);
        assert_eq!(a, b);
    }

    #[test]
    fn movement_is_l1_in_pixels() {
        let a = Cluster::new(0.0, 0.0, 0.0, 10.0, 10.0);
        let b = Cluster::new(5.0, 5.0, 5.0, 13.0, 6.0);
        assert_eq!(b.movement_from(&a), 7.0);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn mismatched_geometry_panics() {
        let lab = flat_lab(10, 10, 0.0);
        let grid = SeedGrid::new(20, 10, 4);
        let _ = init_clusters(&lab, &grid, false);
    }
}
