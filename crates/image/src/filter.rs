//! The 3×3 box blur the synthetic generator uses to soften region
//! boundaries the way camera optics do.

use crate::{Plane, RgbImage};

/// One 3×3 box-blur pass with replicate borders, per channel.
pub fn box_blur(img: &RgbImage) -> RgbImage {
    let (r, g, b) = img.to_planes();
    RgbImage::from_planes(&box_blur_plane(&r), &box_blur_plane(&g), &box_blur_plane(&b))
        .unwrap_or_else(|_| img.clone())
}

/// One 3×3 box-blur pass on a single plane.
pub(crate) fn box_blur_plane(p: &Plane<u8>) -> Plane<u8> {
    Plane::from_fn(p.width(), p.height(), |x, y| {
        let mut sum = 0u32;
        for dy in -1isize..=1 {
            for dx in -1isize..=1 {
                sum += p.get_clamped(x as isize + dx, y as isize + dy) as u32;
            }
        }
        (sum / 9) as u8
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rgb;

    #[test]
    fn box_blur_preserves_flat_images() {
        let img = RgbImage::filled(8, 8, Rgb::new(100, 50, 25));
        assert_eq!(box_blur(&img), img);
    }
}
