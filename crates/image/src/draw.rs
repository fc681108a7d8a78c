//! Visualisation helpers: boundary overlays and label-map rendering.
//!
//! These are used by the examples to produce inspectable PPM output; they
//! are not part of the algorithmic pipeline.

use crate::{Plane, Rgb, RgbImage};

/// Returns a copy of `img` with every label boundary pixel painted `color`.
///
/// A pixel is a boundary pixel when its label differs from its right or
/// bottom 4-neighbour, which draws 1-pixel-wide contours.
///
/// # Panics
///
/// Panics if `labels` and `img` disagree on geometry.
///
/// # Example
///
/// ```
/// use sslic_image::{draw::overlay_boundaries, Plane, Rgb, RgbImage};
///
/// let img = RgbImage::filled(4, 4, Rgb::new(100, 100, 100));
/// let labels = Plane::from_fn(4, 4, |x, _| if x < 2 { 0u32 } else { 1 });
/// let out = overlay_boundaries(&img, &labels, Rgb::new(255, 0, 0));
/// assert_eq!(out.pixel(1, 0), Rgb::new(255, 0, 0)); // boundary column
/// assert_eq!(out.pixel(3, 0), Rgb::new(100, 100, 100));
/// ```
pub fn overlay_boundaries(img: &RgbImage, labels: &Plane<u32>, color: Rgb) -> RgbImage {
    assert!(
        img.width() == labels.width() && img.height() == labels.height(),
        "image and label map must share geometry"
    );
    let mut out = img.clone();
    for y in 0..img.height() {
        for x in 0..img.width() {
            let l = labels[(x, y)];
            let right_differs = x + 1 < img.width() && labels[(x + 1, y)] != l;
            let below_differs = y + 1 < img.height() && labels[(x, y + 1)] != l;
            if right_differs || below_differs {
                out.set(x, y, color);
            }
        }
    }
    out
}

/// Renders a label map as a color image using a deterministic hash palette,
/// so adjacent labels receive visually distinct colors.
pub fn colorize_labels(labels: &Plane<u32>) -> RgbImage {
    RgbImage::from_fn(labels.width(), labels.height(), |x, y| {
        label_color(labels[(x, y)])
    })
}

/// Renders each superpixel at its mean color — the classic "superpixel
/// mosaic" visualisation, and what a downstream stage consuming superpixel
/// features instead of pixels effectively sees.
///
/// # Panics
///
/// Panics if `labels` and `img` disagree on geometry.
pub fn mean_color_image(img: &RgbImage, labels: &Plane<u32>) -> RgbImage {
    assert!(
        img.width() == labels.width() && img.height() == labels.height(),
        "image and label map must share geometry"
    );
    let max_label = labels.iter().copied().max().unwrap_or(0) as usize;
    let mut sums = vec![[0u64; 3]; max_label + 1];
    let mut counts = vec![0u64; max_label + 1];
    for y in 0..img.height() {
        for x in 0..img.width() {
            let l = labels[(x, y)] as usize;
            let p = img.pixel(x, y);
            sums[l][0] += p.r as u64;
            sums[l][1] += p.g as u64;
            sums[l][2] += p.b as u64;
            counts[l] += 1;
        }
    }
    let means: Vec<Rgb> = sums
        .iter()
        .zip(&counts)
        .map(|(s, &c)| match c {
            0 => Rgb::default(),
            c => Rgb::new((s[0] / c) as u8, (s[1] / c) as u8, (s[2] / c) as u8),
        })
        .collect();
    RgbImage::from_fn(img.width(), img.height(), |x, y| {
        means[labels[(x, y)] as usize]
    })
}

/// The deterministic palette color assigned to `label` by
/// [`colorize_labels`].
pub(crate) fn label_color(label: u32) -> Rgb {
    let mut v = (label as u64).wrapping_add(0x9e37_79b9);
    v = v.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    v ^= v >> 31;
    Rgb::new(
        64 + (v & 0x7f) as u8 + ((v >> 21) & 0x3f) as u8,
        64 + ((v >> 7) & 0x7f) as u8 + ((v >> 27) & 0x3f) as u8,
        64 + ((v >> 14) & 0x7f) as u8 + ((v >> 33) & 0x3f) as u8,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_labels_produce_no_boundaries() {
        let img = RgbImage::filled(5, 5, Rgb::new(10, 10, 10));
        let labels = Plane::filled(5, 5, 3u32);
        let out = overlay_boundaries(&img, &labels, Rgb::new(255, 0, 0));
        assert_eq!(out, img);
    }

    #[test]
    fn boundary_is_one_pixel_wide() {
        let img = RgbImage::filled(6, 1, Rgb::new(0, 0, 0));
        let labels = Plane::from_fn(6, 1, |x, _| (x / 3) as u32);
        let out = overlay_boundaries(&img, &labels, Rgb::new(255, 255, 255));
        let marked: Vec<usize> = (0..6)
            .filter(|&x| out.pixel(x, 0) == Rgb::new(255, 255, 255))
            .collect();
        assert_eq!(marked, vec![2]);
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn mismatched_geometry_panics() {
        let img = RgbImage::filled(4, 4, Rgb::default());
        let labels = Plane::filled(5, 4, 0u32);
        let _ = overlay_boundaries(&img, &labels, Rgb::default());
    }

    #[test]
    fn mean_color_image_averages_per_region() {
        let img = RgbImage::from_fn(4, 2, |x, _| {
            if x < 2 {
                Rgb::new(10, 20, 30)
            } else {
                Rgb::new(110, 120, 130)
            }
        });
        let labels = Plane::from_fn(4, 2, |x, _| (x / 2) as u32);
        let mosaic = mean_color_image(&img, &labels);
        assert_eq!(mosaic.pixel(0, 0), Rgb::new(10, 20, 30));
        assert_eq!(mosaic.pixel(3, 1), Rgb::new(110, 120, 130));
    }

    #[test]
    fn mean_color_image_mixes_within_a_region() {
        let img = RgbImage::from_fn(2, 1, |x, _| Rgb::new((x * 100) as u8, 0, 0));
        let labels = Plane::filled(2, 1, 0u32);
        let mosaic = mean_color_image(&img, &labels);
        assert_eq!(mosaic.pixel(0, 0).r, 50);
        assert_eq!(mosaic.pixel(1, 0).r, 50);
    }

    #[test]
    fn colorize_is_deterministic_and_distinct() {
        let labels = Plane::from_fn(4, 1, |x, _| x as u32);
        let a = colorize_labels(&labels);
        let b = colorize_labels(&labels);
        assert_eq!(a, b);
        assert_ne!(label_color(0), label_color(1));
        assert_ne!(label_color(1), label_color(2));
    }
}
