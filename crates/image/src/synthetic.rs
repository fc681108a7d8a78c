//! Seeded synthetic dataset generator substituting for the Berkeley
//! segmentation dataset.
//!
//! The paper evaluates SLIC/S-SLIC quality (undersegmentation error and
//! boundary recall) on 100–200 Berkeley images with human-drawn ground
//! truth. That dataset cannot be redistributed here, so this module
//! generates *Berkeley-like* images with **exact** ground truth:
//!
//! 1. Region layout: a warped Voronoi diagram — random sites, each pixel
//!    labeled by its nearest site after a smooth sinusoidal coordinate warp,
//!    giving curvy, natural-looking region boundaries.
//! 2. Appearance: a distinct base color per region, plus multi-octave value
//!    noise texture, a smooth illumination ramp, per-pixel Gaussian-ish
//!    noise, and optional passes of [`box_blur`](crate::filter::box_blur)
//!    that soften boundaries the way camera optics do.
//!
//! Because every algorithm variant in this repository sees identical inputs,
//! the *relative* quality/time curves of the paper's Figure 2 and the
//! bit-width deltas of §6.1 are preserved even though absolute metric values
//! differ from Berkeley (see `DESIGN.md` §3).
//!
//! # Example
//!
//! ```
//! use sslic_image::synthetic::SyntheticImage;
//!
//! let a = SyntheticImage::builder(80, 60).seed(3).regions(8).build();
//! let b = SyntheticImage::builder(80, 60).seed(3).regions(8).build();
//! assert_eq!(a.rgb, b.rgb, "generation is fully deterministic per seed");
//! ```

use crate::filter::box_blur;
use crate::prng::SplitMix64;

use crate::{Plane, Rgb, RgbImage};

/// A generated image together with its exact ground-truth region map.
#[derive(Debug, Clone)]
pub struct SyntheticImage {
    /// The rendered 8-bit RGB image.
    pub rgb: RgbImage,
    /// Ground-truth region label per pixel, in `0..region_count`.
    pub ground_truth: Plane<u32>,
    /// Number of distinct ground-truth regions.
    pub region_count: usize,
}

impl SyntheticImage {
    /// Starts building a synthetic image of the given geometry.
    ///
    /// # Panics
    ///
    /// The terminal [`SyntheticBuilder::build`] panics if `width` or
    /// `height` is zero.
    pub fn builder(width: usize, height: usize) -> SyntheticBuilder {
        SyntheticBuilder::new(width, height)
    }
}

/// Configures and generates a [`SyntheticImage`].
///
/// All parameters have Berkeley-plausible defaults; only `seed` typically
/// needs to vary between corpus images.
#[derive(Debug, Clone)]
pub struct SyntheticBuilder {
    width: usize,
    height: usize,
    regions: usize,
    seed: u64,
    noise_sigma: f32,
    texture_amplitude: f32,
    illumination: f32,
    warp_amplitude: f32,
    blur_passes: usize,
    color_separation: f32,
}

impl SyntheticBuilder {
    fn new(width: usize, height: usize) -> Self {
        SyntheticBuilder {
            width,
            height,
            regions: 12,
            seed: 0,
            noise_sigma: 4.0,
            texture_amplitude: 10.0,
            illumination: 18.0,
            warp_amplitude: 0.08,
            blur_passes: 1,
            color_separation: 60.0,
        }
    }

    /// Number of ground-truth regions (Voronoi sites). Default 12.
    pub fn regions(mut self, regions: usize) -> Self {
        self.regions = regions.max(1);
        self
    }

    /// RNG seed. Identical seeds produce identical images. Default 0.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Standard deviation of per-pixel sensor-like noise, in 8-bit levels.
    /// Default 4.0.
    pub fn noise_sigma(mut self, sigma: f32) -> Self {
        self.noise_sigma = sigma.max(0.0);
        self
    }

    /// Peak amplitude of the per-region value-noise texture, in 8-bit
    /// levels. Default 10.0.
    pub fn texture_amplitude(mut self, amp: f32) -> Self {
        self.texture_amplitude = amp.max(0.0);
        self
    }

    /// Peak-to-peak amplitude of the smooth illumination ramp, in 8-bit
    /// levels. Default 18.0.
    pub fn illumination(mut self, amp: f32) -> Self {
        self.illumination = amp.max(0.0);
        self
    }

    /// Boundary-warp amplitude as a fraction of the image diagonal.
    /// `0.0` yields straight Voronoi edges. Default 0.08.
    pub fn warp_amplitude(mut self, amp: f32) -> Self {
        self.warp_amplitude = amp.max(0.0);
        self
    }

    /// Number of 3×3 box-blur passes applied to the rendered image
    /// (softens edges like camera optics). Default 1.
    pub fn blur_passes(mut self, passes: usize) -> Self {
        self.blur_passes = passes;
        self
    }

    /// Minimum pairwise RGB distance between region base colors.
    /// Default 60 (chromatically distinct regions). Small values create
    /// weak-contrast boundaries — the hard cases that make Berkeley-style
    /// boundary recall meaningfully below 1 and slow SLIC convergence.
    pub fn color_separation(mut self, separation: f32) -> Self {
        self.color_separation = separation.max(0.0);
        self
    }

    /// Generates the image and its ground truth.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn build(&self) -> SyntheticImage {
        assert!(
            self.width > 0 && self.height > 0,
            "image dimensions must be nonzero"
        );
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let (w, h) = (self.width, self.height);
        let diag = ((w * w + h * h) as f32).sqrt();

        // --- region sites and colors --------------------------------------
        let sites: Vec<(f32, f32)> = (0..self.regions)
            .map(|_| (rng.next_f32() * w as f32, rng.next_f32() * h as f32))
            .collect();
        let colors: Vec<[f32; 3]> =
            sample_separated_colors(self.regions, self.color_separation, &mut rng);

        // --- smooth coordinate warp (sum of random sinusoids) -------------
        let warp = Warp::random(&mut rng, self.warp_amplitude * diag, w as f32, h as f32);

        // --- ground truth ---------------------------------------------------
        let ground_truth = Plane::from_fn(w, h, |x, y| {
            let (wx, wy) = warp.apply(x as f32, y as f32);
            nearest_site(&sites, wx, wy) as u32
        });

        // --- appearance -----------------------------------------------------
        let tex = ValueNoise::new(&mut rng);
        let (ix, iy) = {
            let ang = rng.next_f32() * std::f32::consts::TAU;
            (ang.cos(), ang.sin())
        };
        let mut noise_rng = SplitMix64::seed_from_u64(self.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut img = RgbImage::from_fn(w, h, |x, y| {
            let region = ground_truth[(x, y)] as usize;
            let base = colors[region];
            let t = self.texture_amplitude
                * tex.octaves(x as f32 / 24.0, y as f32 / 24.0, region as f32, 3);
            let ramp = self.illumination
                * ((x as f32 * ix + y as f32 * iy) / diag);
            let mut px = [0u8; 3];
            for (c, p) in px.iter_mut().enumerate() {
                let n = self.noise_sigma * approx_gaussian(&mut noise_rng);
                *p = (base[c] + t + ramp + n).clamp(0.0, 255.0) as u8;
            }
            Rgb::from(px)
        });

        for _ in 0..self.blur_passes {
            img = box_blur(&img);
        }

        SyntheticImage {
            rgb: img,
            ground_truth,
            region_count: self.regions,
        }
    }
}

/// An alternative scene layout: elliptical objects over a background —
/// closer to the object-centric statistics of many Berkeley photographs
/// than a pure Voronoi tessellation. Region 0 is the background; objects
/// may overlap (later objects occlude earlier ones), so ground truth is
/// still exact.
///
/// # Example
///
/// ```
/// use sslic_image::synthetic::objects_scene;
///
/// let scene = objects_scene(96, 64, 4, 9);
/// assert_eq!(scene.region_count, 5); // background + 4 objects
/// assert!(scene.ground_truth.iter().any(|&l| l == 0), "background visible");
/// ```
pub fn objects_scene(width: usize, height: usize, objects: usize, seed: u64) -> SyntheticImage {
    assert!(width > 0 && height > 0, "image dimensions must be nonzero");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let colors = sample_separated_colors(objects + 1, 50.0, &mut rng);
    // Random ellipses: center, radii, rotation.
    let ellipses: Vec<(f32, f32, f32, f32, f32)> = (0..objects)
        .map(|_| {
            (
                rng.next_f32() * width as f32,
                rng.next_f32() * height as f32,
                (0.08 + 0.17 * rng.next_f32()) * width as f32,
                (0.08 + 0.17 * rng.next_f32()) * height as f32,
                rng.next_f32() * std::f32::consts::PI,
            )
        })
        .collect();
    let ground_truth = Plane::from_fn(width, height, |x, y| {
        let mut label = 0u32;
        for (i, &(cx, cy, rx, ry, theta)) in ellipses.iter().enumerate() {
            let (dx, dy) = (x as f32 - cx, y as f32 - cy);
            let (c, s) = (theta.cos(), theta.sin());
            let (u, v) = (dx * c + dy * s, -dx * s + dy * c);
            if (u / rx).powi(2) + (v / ry).powi(2) <= 1.0 {
                label = (i + 1) as u32; // later objects occlude
            }
        }
        label
    });
    let mut noise_rng = SplitMix64::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let rgb = RgbImage::from_fn(width, height, |x, y| {
        let base = colors[ground_truth[(x, y)] as usize];
        let mut px = [0u8; 3];
        for (c, p) in px.iter_mut().enumerate() {
            let n = 4.0 * approx_gaussian(&mut noise_rng);
            *p = (base[c] + n).clamp(0.0, 255.0) as u8;
        }
        Rgb::from(px)
    });
    SyntheticImage {
        rgb: box_blur(&rgb),
        ground_truth,
        region_count: objects + 1,
    }
}

/// A corpus of synthetic images mimicking the Berkeley benchmark setup.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The generated images with ground truth.
    pub images: Vec<SyntheticImage>,
}

impl SyntheticDataset {
    /// Generates `count` `width × height` images with varying region counts
    /// (deterministic per `seed`) — small sizes keep unit tests fast while
    /// preserving statistics.
    pub fn with_geometry(count: usize, seed: u64, width: usize, height: usize) -> Self {
        let images = (0..count)
            .map(|i| {
                let img_seed = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i as u64);
                let regions = 5 + (img_seed % 24) as usize;
                SyntheticImage::builder(width, height)
                    .seed(img_seed)
                    .regions(regions)
                    .build()
            })
            .collect();
        SyntheticDataset { images }
    }

    /// Number of images in the corpus.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Iterator over the corpus images.
    pub fn iter(&self) -> std::slice::Iter<'_, SyntheticImage> {
        self.images.iter()
    }
}

impl<'a> IntoIterator for &'a SyntheticDataset {
    type Item = &'a SyntheticImage;
    type IntoIter = std::slice::Iter<'a, SyntheticImage>;

    fn into_iter(self) -> Self::IntoIter {
        self.images.iter()
    }
}

// --- internals ------------------------------------------------------------

fn nearest_site(sites: &[(f32, f32)], x: f32, y: f32) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, &(sx, sy)) in sites.iter().enumerate() {
        let d = (sx - x) * (sx - x) + (sy - y) * (sy - y);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Rejection-samples region colors with pairwise separation so regions are
/// visually (and metrically) distinct, like object/background splits in
/// natural photos.
fn sample_separated_colors(count: usize, separation: f32, rng: &mut SplitMix64) -> Vec<[f32; 3]> {
    let mut colors: Vec<[f32; 3]> = Vec::with_capacity(count);
    let min_dist2 = separation * separation;
    while colors.len() < count {
        let cand = [
            30.0 + rng.next_f32() * 195.0,
            30.0 + rng.next_f32() * 195.0,
            30.0 + rng.next_f32() * 195.0,
        ];
        let ok = colors.iter().all(|c| {
            let d: f32 = (0..3).map(|i| (c[i] - cand[i]) * (c[i] - cand[i])).sum();
            d >= min_dist2
        });
        // Relax the constraint as the palette fills up so generation always
        // terminates even for large region counts.
        if ok || colors.len() >= 24 || rng.next_f32() < colors.len() as f32 / 64.0 {
            colors.push(cand);
        }
    }
    colors
}

/// Smooth coordinate warp: a small sum of random sinusoids applied to the
/// sample position before the Voronoi lookup, bending region boundaries.
#[derive(Debug)]
struct Warp {
    terms: Vec<(f32, f32, f32, f32, f32)>, // (amp, fx, fy, phase_x, phase_y)
}

impl Warp {
    fn random(rng: &mut SplitMix64, amplitude: f32, w: f32, h: f32) -> Self {
        let terms = (0..3)
            .map(|_| {
                (
                    amplitude * (0.3 + 0.7 * rng.next_f32()) / 3.0,
                    (1.0 + rng.next_f32() * 2.0) * std::f32::consts::TAU / w,
                    (1.0 + rng.next_f32() * 2.0) * std::f32::consts::TAU / h,
                    rng.next_f32() * std::f32::consts::TAU,
                    rng.next_f32() * std::f32::consts::TAU,
                )
            })
            .collect();
        Warp { terms }
    }

    fn apply(&self, x: f32, y: f32) -> (f32, f32) {
        let mut wx = x;
        let mut wy = y;
        for &(amp, fx, fy, px, py) in &self.terms {
            wx += amp * (y * fy + px).sin();
            wy += amp * (x * fx + py).sin();
        }
        (wx, wy)
    }
}

/// Hash-based value noise with bilinear interpolation, used for per-region
/// texture. Deterministic given the lattice salt.
#[derive(Debug)]
struct ValueNoise {
    salt: u64,
}

impl ValueNoise {
    fn new(rng: &mut SplitMix64) -> Self {
        ValueNoise { salt: rng.next_u64() }
    }

    fn lattice(&self, ix: i64, iy: i64, iz: i64) -> f32 {
        let mut v = self
            .salt
            .wrapping_add(ix as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(iy as u64)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .wrapping_add(iz as u64);
        v ^= v >> 29;
        v = v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        v ^= v >> 32;
        // map to [-1, 1)
        (v as f32 / u64::MAX as f32) * 2.0 - 1.0
    }

    fn sample(&self, x: f32, y: f32, z: f32) -> f32 {
        let (x0, y0) = (x.floor(), y.floor());
        let (fx, fy) = (x - x0, y - y0);
        let (ix, iy, iz) = (x0 as i64, y0 as i64, z as i64);
        let sx = fx * fx * (3.0 - 2.0 * fx);
        let sy = fy * fy * (3.0 - 2.0 * fy);
        let v00 = self.lattice(ix, iy, iz);
        let v10 = self.lattice(ix + 1, iy, iz);
        let v01 = self.lattice(ix, iy + 1, iz);
        let v11 = self.lattice(ix + 1, iy + 1, iz);
        let a = v00 + (v10 - v00) * sx;
        let b = v01 + (v11 - v01) * sx;
        a + (b - a) * sy
    }

    fn octaves(&self, x: f32, y: f32, z: f32, count: usize) -> f32 {
        let mut total = 0.0;
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut norm = 0.0;
        for _ in 0..count {
            total += amp * self.sample(x * freq, y * freq, z);
            norm += amp;
            amp *= 0.5;
            freq *= 2.0;
        }
        total / norm
    }
}

/// Cheap approximately-Gaussian noise: sum of four uniforms (Irwin–Hall),
/// centered, unit-ish variance after scaling.
fn approx_gaussian(rng: &mut SplitMix64) -> f32 {
    let s: f32 = (0..4).map(|_| rng.next_f32()).sum();
    (s - 2.0) * (3.0f32).sqrt() // var of sum = 4/12 = 1/3 → scale by sqrt(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = SyntheticImage::builder(40, 30).seed(11).build();
        let b = SyntheticImage::builder(40, 30).seed(11).build();
        assert_eq!(a.rgb, b.rgb);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticImage::builder(40, 30).seed(1).build();
        let b = SyntheticImage::builder(40, 30).seed(2).build();
        assert_ne!(a.rgb, b.rgb);
    }

    #[test]
    fn ground_truth_labels_in_range() {
        let img = SyntheticImage::builder(50, 40).regions(7).seed(5).build();
        assert!(img.ground_truth.iter().all(|&l| l < 7));
    }

    #[test]
    fn all_requested_regions_can_appear() {
        // With few regions on a reasonably sized image, every region should
        // own at least one pixel.
        let img = SyntheticImage::builder(120, 90).regions(5).seed(9).build();
        let mut seen = [false; 5];
        for &l in img.ground_truth.iter() {
            seen[l as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every region owns pixels");
    }

    #[test]
    fn regions_are_chromatically_distinct() {
        let img = SyntheticImage::builder(120, 90)
            .regions(4)
            .seed(3)
            .noise_sigma(0.0)
            .texture_amplitude(0.0)
            .illumination(0.0)
            .blur_passes(0)
            .build();
        // Mean color per region should be pairwise well separated.
        let mut sums = [[0f64; 3]; 4];
        let mut counts = [0usize; 4];
        for y in 0..90 {
            for x in 0..120 {
                let r = img.ground_truth[(x, y)] as usize;
                let p = img.rgb.pixel(x, y);
                sums[r][0] += p.r as f64;
                sums[r][1] += p.g as f64;
                sums[r][2] += p.b as f64;
                counts[r] += 1;
            }
        }
        let means: Vec<[f64; 3]> = sums
            .iter()
            .zip(&counts)
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| [s[0] / c as f64, s[1] / c as f64, s[2] / c as f64])
            .collect();
        for i in 0..means.len() {
            for j in i + 1..means.len() {
                let d: f64 = (0..3)
                    .map(|k| (means[i][k] - means[j][k]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!(d > 20.0, "regions {i} and {j} too similar: {d}");
            }
        }
    }

    #[test]
    fn zero_warp_gives_straight_voronoi() {
        let img = SyntheticImage::builder(60, 60)
            .regions(3)
            .seed(2)
            .warp_amplitude(0.0)
            .build();
        // Sanity: the label map is a plain Voronoi partition — each region
        // is connected. Check via flood fill count == region count present.
        let present: std::collections::HashSet<u32> =
            img.ground_truth.iter().copied().collect();
        let mut visited = Plane::filled(60, 60, false);
        let mut components = 0;
        for y in 0..60 {
            for x in 0..60 {
                if visited[(x, y)] {
                    continue;
                }
                components += 1;
                let label = img.ground_truth[(x, y)];
                let mut stack = vec![(x, y)];
                visited[(x, y)] = true;
                while let Some((cx, cy)) = stack.pop() {
                    for (nx, ny) in [
                        (cx.wrapping_sub(1), cy),
                        (cx + 1, cy),
                        (cx, cy.wrapping_sub(1)),
                        (cx, cy + 1),
                    ] {
                        if nx < 60
                            && ny < 60
                            && !visited[(nx, ny)]
                            && img.ground_truth[(nx, ny)] == label
                        {
                            visited[(nx, ny)] = true;
                            stack.push((nx, ny));
                        }
                    }
                }
            }
        }
        assert_eq!(components, present.len(), "plain voronoi cells are connected");
    }

    #[test]
    fn objects_scene_has_background_and_occlusion_order() {
        let scene = objects_scene(100, 80, 3, 5);
        assert_eq!(scene.region_count, 4);
        assert!(scene.ground_truth.iter().all(|&l| l < 4));
        // Corner pixels are overwhelmingly background for few objects.
        assert_eq!(scene.ground_truth[(0, 0)], 0);
    }

    #[test]
    fn objects_scene_is_deterministic() {
        let a = objects_scene(60, 40, 4, 11);
        let b = objects_scene(60, 40, 4, 11);
        assert_eq!(a.rgb, b.rgb);
        assert_eq!(a.ground_truth, b.ground_truth);
    }

    #[test]
    fn objects_scene_objects_cover_pixels() {
        let scene = objects_scene(120, 90, 5, 3);
        let nonbg = scene.ground_truth.iter().filter(|&&l| l > 0).count();
        assert!(nonbg > 0, "objects must be visible");
        assert!(
            nonbg < 120 * 90,
            "background must remain visible somewhere"
        );
    }

    #[test]
    fn dataset_is_deterministic_and_sized() {
        let a = SyntheticDataset::with_geometry(4, 42, 32, 24);
        let b = SyntheticDataset::with_geometry(4, 42, 32, 24);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.rgb, y.rgb);
        }
    }

    #[test]
    fn noise_increases_pixel_variance() {
        let clean = SyntheticImage::builder(64, 48)
            .seed(7)
            .noise_sigma(0.0)
            .texture_amplitude(0.0)
            .blur_passes(0)
            .build();
        let noisy = SyntheticImage::builder(64, 48)
            .seed(7)
            .noise_sigma(12.0)
            .texture_amplitude(0.0)
            .blur_passes(0)
            .build();
        let var = |img: &RgbImage| -> f64 {
            let n = img.pixel_count() as f64;
            let mean: f64 = img.as_raw().iter().map(|&v| v as f64).sum::<f64>() / (3.0 * n);
            img.as_raw()
                .iter()
                .map(|&v| (v as f64 - mean).powi(2))
                .sum::<f64>()
                / (3.0 * n)
        };
        assert!(var(&noisy.rgb) > var(&clean.rgb));
    }
}
