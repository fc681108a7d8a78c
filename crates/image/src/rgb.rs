use crate::{ImageError, Plane};

/// An 8-bit RGB triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red, 0–255.
    pub r: u8,
    /// Green, 0–255.
    pub g: u8,
    /// Blue, 0–255.
    pub b: u8,
}

impl Rgb {
    /// Creates a pixel from its components.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Returns the components as an array `[r, g, b]`.
    #[inline]
    pub const fn to_array(self) -> [u8; 3] {
        [self.r, self.g, self.b]
    }
}

impl From<[u8; 3]> for Rgb {
    fn from([r, g, b]: [u8; 3]) -> Self {
        Rgb { r, g, b }
    }
}

impl From<Rgb> for [u8; 3] {
    fn from(p: Rgb) -> Self {
        p.to_array()
    }
}

/// An interleaved 8-bit RGB image stored in raster-scan order, exactly the
/// layout the accelerator's DMA reads from external memory ("single-byte RGB
/// values per pixel are stored contiguously", paper §4.3).
///
/// # Example
///
/// ```
/// use sslic_image::{Rgb, RgbImage};
///
/// let mut img = RgbImage::filled(8, 8, Rgb::new(0, 0, 0));
/// img.set(3, 4, Rgb::new(255, 0, 0));
/// assert_eq!(img.pixel(3, 4).r, 255);
/// let (r, g, b) = img.to_planes();
/// assert_eq!(r[(3, 4)], 255);
/// assert_eq!(g[(3, 4)], 0);
/// assert_eq!(b[(3, 4)], 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RgbImage {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl RgbImage {
    /// Creates an image of `width × height` pixels, all set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: usize, height: usize, fill: Rgb) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let mut data = Vec::with_capacity(width * height * 3);
        for _ in 0..width * height {
            data.extend_from_slice(&fill.to_array());
        }
        RgbImage {
            width,
            height,
            data,
        }
    }

    /// Builds an image by evaluating `f(x, y)` at every pixel.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> Rgb) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        let mut data = Vec::with_capacity(width * height * 3);
        for y in 0..height {
            for x in 0..width {
                data.extend_from_slice(&f(x, y).to_array());
            }
        }
        RgbImage {
            width,
            height,
            data,
        }
    }

    /// Wraps an interleaved `r g b r g b …` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Dimension`] if `data.len() != width * height * 3`
    /// or either dimension is zero.
    pub(crate) fn from_raw(width: usize, height: usize, data: Vec<u8>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 || data.len() != width * height * 3 {
            return Err(ImageError::Dimension {
                expected: width * height * 3,
                actual: data.len(),
            });
        }
        Ok(RgbImage {
            width,
            height,
            data,
        })
    }

    /// Reassembles an image from three planes (inverse of [`to_planes`]).
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Dimension`] if the planes disagree on geometry.
    ///
    /// [`to_planes`]: RgbImage::to_planes
    pub fn from_planes(r: &Plane<u8>, g: &Plane<u8>, b: &Plane<u8>) -> Result<Self, ImageError> {
        if r.width() != g.width()
            || r.width() != b.width()
            || r.height() != g.height()
            || r.height() != b.height()
        {
            return Err(ImageError::Dimension {
                expected: r.len(),
                actual: g.len().min(b.len()),
            });
        }
        let mut data = Vec::with_capacity(r.len() * 3);
        for ((&rv, &gv), &bv) in r.iter().zip(g.iter()).zip(b.iter()) {
            data.push(rv);
            data.push(gv);
            data.push(bv);
        }
        Ok(RgbImage {
            width: r.width(),
            height: r.height(),
            data,
        })
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels (`N` in the paper).
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> Rgb {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (y * self.width + x) * 3;
        Rgb::new(self.data[i], self.data[i + 1], self.data[i + 2])
    }

    /// Overwrites the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, p: Rgb) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (y * self.width + x) * 3;
        self.data[i] = p.r;
        self.data[i + 1] = p.g;
        self.data[i + 2] = p.b;
    }

    /// Raw interleaved bytes in raster-scan order.
    #[inline]
    pub fn as_raw(&self) -> &[u8] {
        &self.data
    }

    /// Splits the image into three single-channel planes, the layout the
    /// accelerator loads into its channel scratchpads.
    pub fn to_planes(&self) -> (Plane<u8>, Plane<u8>, Plane<u8>) {
        let n = self.pixel_count();
        let mut r = Vec::with_capacity(n);
        let mut g = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for px in self.data.chunks_exact(3) {
            r.push(px[0]);
            g.push(px[1]);
            b.push(px[2]);
        }
        // `data.len() == 3 * width * height` is an RgbImage construction
        // invariant, so the per-channel vecs always fit the plane geometry.
        let plane = |v: Vec<u8>| {
            Plane::from_vec(self.width, self.height, v)
                .unwrap_or_else(|_| Plane::filled(self.width, self.height, 0))
        };
        (plane(r), plane(g), plane(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rgb_array_round_trip() {
        let p = Rgb::new(1, 2, 3);
        let a: [u8; 3] = p.into();
        assert_eq!(Rgb::from(a), p);
    }

    #[test]
    fn filled_uniform() {
        let img = RgbImage::filled(3, 2, Rgb::new(9, 8, 7));
        assert_eq!(img.pixel(2, 1), Rgb::new(9, 8, 7));
        assert_eq!(img.as_raw().len(), 18);
    }

    #[test]
    fn from_raw_validates() {
        assert!(RgbImage::from_raw(2, 2, vec![0; 11]).is_err());
        assert!(RgbImage::from_raw(2, 2, vec![0; 12]).is_ok());
    }

    #[test]
    fn planes_round_trip() {
        let img = RgbImage::from_fn(5, 4, |x, y| {
            Rgb::new(x as u8, y as u8, (x * y) as u8)
        });
        let (r, g, b) = img.to_planes();
        let back = RgbImage::from_planes(&r, &g, &b).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn from_planes_rejects_mismatched_geometry() {
        let a = Plane::filled(3, 3, 0u8);
        let b = Plane::filled(3, 4, 0u8);
        assert!(RgbImage::from_planes(&a, &a, &b).is_err());
    }

    #[test]
    fn set_and_get() {
        let mut img = RgbImage::filled(4, 4, Rgb::default());
        img.set(0, 3, Rgb::new(10, 20, 30));
        assert_eq!(img.pixel(0, 3), Rgb::new(10, 20, 30));
        assert_eq!(img.pixel(0, 2), Rgb::default());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_out_of_bounds_panics() {
        let img = RgbImage::filled(2, 2, Rgb::default());
        let _ = img.pixel(2, 0);
    }

    #[test]
    fn raster_scan_order_matches_paper_dma_layout() {
        // "single-byte RGB values per pixel are stored contiguously"
        let img = RgbImage::from_fn(2, 1, |x, _| Rgb::new(x as u8, 100 + x as u8, 200 + x as u8));
        assert_eq!(img.as_raw(), &[0, 100, 200, 1, 101, 201]);
    }
}
