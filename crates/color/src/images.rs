use sslic_image::Plane;

/// A planar `f32` CIELAB image: the working representation of the software
/// SLIC paths.
#[derive(Debug, Clone, PartialEq)]
pub struct LabImage {
    /// Lightness channel, `L* ∈ [0, 100]`.
    pub l: Plane<f32>,
    /// Green–red opponent channel.
    pub a: Plane<f32>,
    /// Blue–yellow opponent channel.
    pub b: Plane<f32>,
}

impl LabImage {
    /// Builds an image by evaluating `f(x, y) -> [L, a, b]` at every pixel.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> [f32; 3],
    ) -> Self {
        let mut l = Plane::filled(width, height, 0.0f32);
        let mut a = Plane::filled(width, height, 0.0f32);
        let mut b = Plane::filled(width, height, 0.0f32);
        for y in 0..height {
            for x in 0..width {
                let [lv, av, bv] = f(x, y);
                l[(x, y)] = lv;
                a[(x, y)] = av;
                b[(x, y)] = bv;
            }
        }
        LabImage { l, a, b }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.l.width()
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.l.height()
    }

    /// The `[L, a, b]` triple at `(x, y)`.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [f32; 3] {
        [self.l[(x, y)], self.a[(x, y)], self.b[(x, y)]]
    }
}

/// A planar 8-bit CIELAB image in the accelerator's scratchpad encoding
/// (see [`crate::lab8`]): `L` scaled to 0–255, `a`/`b` offset by +128.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lab8Image {
    /// Encoded lightness channel.
    pub l: Plane<u8>,
    /// Encoded green–red channel.
    pub a: Plane<u8>,
    /// Encoded blue–yellow channel.
    pub b: Plane<u8>,
}

impl Lab8Image {
    /// Builds an image by evaluating `f(x, y) -> [l8, a8, b8]` per pixel.
    pub fn from_fn(
        width: usize,
        height: usize,
        mut f: impl FnMut(usize, usize) -> [u8; 3],
    ) -> Self {
        let mut l = Plane::filled(width, height, 0u8);
        let mut a = Plane::filled(width, height, 0u8);
        let mut b = Plane::filled(width, height, 0u8);
        for y in 0..height {
            for x in 0..width {
                let [lv, av, bv] = f(x, y);
                l[(x, y)] = lv;
                a[(x, y)] = av;
                b[(x, y)] = bv;
            }
        }
        Lab8Image { l, a, b }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.l.width()
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.l.height()
    }

    /// The encoded `[l8, a8, b8]` triple at `(x, y)`.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        [self.l[(x, y)], self.a[(x, y)], self.b[(x, y)]]
    }

    /// Decodes the whole image to `f32` CIELAB (inverse of the scratchpad
    /// encoding, up to quantization).
    pub fn decode(&self) -> LabImage {
        let mut out = LabImage::from_fn(self.width(), self.height(), |_, _| [0.0; 3]);
        self.decode_into(&mut out);
        out
    }

    /// Decodes the whole image into a caller-owned `f32` CIELAB image
    /// (no allocation); per-pixel values are identical to
    /// [`Lab8Image::decode`].
    ///
    /// # Panics
    ///
    /// Panics if `out` differs in geometry.
    pub fn decode_into(&self, out: &mut LabImage) {
        assert!(
            out.width() == self.width() && out.height() == self.height(),
            "decode_into requires matching image geometry"
        );
        for y in 0..self.height() {
            for x in 0..self.width() {
                let [l, a, b] = crate::lab8::decode(self.pixel(x, y));
                out.l[(x, y)] = l as f32;
                out.a[(x, y)] = a as f32;
                out.b[(x, y)] = b as f32;
            }
        }
    }

    /// Copies all three channels of `src` into this image in place (no
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if the two images differ in geometry.
    pub fn copy_from(&mut self, src: &Lab8Image) {
        self.l.copy_from(&src.l);
        self.a.copy_from(&src.a);
        self.b.copy_from(&src.b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_image_from_fn_and_pixel() {
        let img = LabImage::from_fn(3, 2, |x, y| [x as f32, y as f32, 7.0]);
        assert_eq!(img.pixel(2, 1), [2.0, 1.0, 7.0]);
        assert_eq!(img.width(), 3);
        assert_eq!(img.height(), 2);
    }

    #[test]
    fn decode_into_matches_decode_bit_for_bit() {
        let img = Lab8Image::from_fn(5, 4, |x, y| [(x * 37) as u8, (y * 61) as u8, 200]);
        let fresh = img.decode();
        let mut reused = LabImage::from_fn(5, 4, |_, _| [9.0; 3]);
        img.decode_into(&mut reused);
        assert_eq!(fresh, reused);
    }

    #[test]
    fn copy_from_replicates_all_channels() {
        let src = Lab8Image::from_fn(3, 3, |x, y| [x as u8, y as u8, 77]);
        let mut dst = Lab8Image::from_fn(3, 3, |_, _| [0; 3]);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    fn lab8_image_round_trips_through_decode() {
        let img = Lab8Image::from_fn(2, 2, |x, y| [(x * 100) as u8, (y * 100 + 28) as u8, 128]);
        let dec = img.decode();
        // b = 128 encodes b* = 0
        assert_eq!(dec.b[(0, 0)], 0.0);
        assert_eq!(dec.width(), 2);
    }
}
