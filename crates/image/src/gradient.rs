//! The seed-window gradient search of SLIC's center perturbation step.
//!
//! SLIC moves each initial cluster center to the lowest-gradient position in
//! its 3×3 neighbourhood "to avoid initialization on an edge or a noisy
//! pixel" (paper §2). The gradient used by the reference implementation is
//!
//! ```text
//! G(x, y) = ‖I(x+1, y) − I(x−1, y)‖² + ‖I(x, y+1) − I(x, y−1)‖²
//! ```
//!
//! evaluated on the CIELAB image (or any multi-channel image), with
//! coordinates clamped at the border. `G` at a pixel depends only on its
//! four neighbours and perturbation reads it only in the seed windows, so
//! it is evaluated there alone: at most 9·K pixels, never a whole plane.

use crate::Plane;

/// One `f32` channel the gradient reads: a float plane, or any other
/// per-pixel source of the same values (such as 8-bit codes read through
/// a decode table).
pub trait Channel {
    /// `(width, height)` of the channel.
    fn dims(&self) -> (usize, usize);

    /// The sample at `(x, y)`, coordinates clamped to the border.
    fn get_clamped(&self, x: isize, y: isize) -> f32;
}

impl Channel for &Plane<f32> {
    fn dims(&self) -> (usize, usize) {
        (self.width(), self.height())
    }

    #[inline]
    fn get_clamped(&self, x: isize, y: isize) -> f32 {
        Plane::get_clamped(self, x, y)
    }
}

/// `G(x, y)` over `channels`, borders clamped (replicate padding).
fn gradient_at<C: Channel>(channels: &[C], x: usize, y: usize) -> f32 {
    let (xi, yi) = (x as isize, y as isize);
    let mut gx = 0.0f32;
    let mut gy = 0.0f32;
    for c in channels {
        let dx = c.get_clamped(xi + 1, yi) - c.get_clamped(xi - 1, yi);
        let dy = c.get_clamped(xi, yi + 1) - c.get_clamped(xi, yi - 1);
        gx += dx * dx;
        gy += dy * dy;
    }
    gx + gy
}

/// Returns the position of the minimum-gradient sample in the 3×3
/// neighbourhood of `(x, y)` of a multi-channel image given as equally
/// sized `f32` channels (usually planes): the perturbation SLIC applies to
/// every initial center.
///
/// Coordinates outside the image are skipped (not clamped), so corner seeds
/// consider a 2×2 window. Ties resolve to the seed itself, then to the
/// first candidate in row-major order, which keeps the result
/// deterministic.
///
/// # Panics
///
/// Panics if `channels` is empty, the planes disagree on geometry, or
/// `(x, y)` is out of bounds.
///
/// # Example
///
/// ```
/// use sslic_image::{gradient::min_gradient_in_3x3, Plane};
///
/// // A vertical step edge at x = 4: the seed moves off the edge column.
/// let p = Plane::from_fn(9, 9, |x, _| if x < 4 { 0.0 } else { 100.0 });
/// let (nx, ny) = min_gradient_in_3x3(&[&p], 4, 4);
/// assert_eq!((nx, ny), (5, 3));
/// ```
pub fn min_gradient_in_3x3<C: Channel>(channels: &[C], x: usize, y: usize) -> (usize, usize) {
    assert!(!channels.is_empty(), "at least one channel required");
    let (w, h) = channels[0].dims();
    for c in channels {
        assert!(c.dims() == (w, h), "all channels must share geometry");
    }
    assert!(x < w && y < h, "seed out of bounds");
    let mut best = (x, y);
    let mut best_g = gradient_at(channels, x, y);
    for dy in -1isize..=1 {
        for dx in -1isize..=1 {
            let nx = x as isize + dx;
            let ny = y as isize + dy;
            if nx < 0 || ny < 0 || nx >= w as isize || ny >= h as isize {
                continue;
            }
            let g = gradient_at(channels, nx as usize, ny as usize);
            if g < best_g {
                best_g = g;
                best = (nx as usize, ny as usize);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_image_has_zero_gradient() {
        let p = Plane::filled(5, 5, 3.0f32);
        for y in 0..5 {
            for x in 0..5 {
                assert_eq!(gradient_at(&[&p], x, y), 0.0);
            }
        }
    }

    #[test]
    fn multi_channel_gradients_accumulate() {
        let a = Plane::from_fn(6, 6, |x, _| x as f32);
        let b = Plane::from_fn(6, 6, |x, _| 2.0 * x as f32);
        let single = gradient_at(&[&a], 3, 3);
        let multi = gradient_at(&[&a, &b], 3, 3);
        // channel b contributes 4x channel a's squared dx
        assert!(multi > single);
        assert!((multi - 5.0 * single).abs() < 1e-5);
    }

    #[test]
    fn min_gradient_moves_seed_off_edge() {
        // Edge at x = 4: gradient is high at x in {3,4,5}-ish, low elsewhere.
        let p = Plane::from_fn(9, 9, |x, _| if x < 4 { 0.0 } else { 100.0 });
        let (nx, _ny) = min_gradient_in_3x3(&[&p], 4, 4);
        assert_ne!(nx, 4, "seed should move off the edge column");
    }

    #[test]
    fn min_gradient_stays_put_on_flat_region() {
        let p = Plane::filled(5, 5, 1.0f32);
        assert_eq!(min_gradient_in_3x3(&[&p], 2, 2), (2, 2));
    }

    #[test]
    fn min_gradient_at_corner_considers_in_bounds_only() {
        // On a ramp, clamping halves the differences at the border, so G
        // is smallest in the corners.
        let p = Plane::from_fn(4, 4, |x, y| (x + y) as f32);
        assert_eq!(min_gradient_in_3x3(&[&p], 0, 0), (0, 0));
        assert_eq!(min_gradient_in_3x3(&[&p], 1, 1), (0, 0));
        assert_eq!(min_gradient_in_3x3(&[&p], 3, 3), (3, 3));
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn mismatched_channels_panic() {
        let a = Plane::filled(4, 4, 0.0f32);
        let b = Plane::filled(5, 4, 0.0f32);
        let _ = min_gradient_in_3x3(&[&a, &b], 0, 0);
    }
}
