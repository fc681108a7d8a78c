use crate::ImageError;

/// A single-channel, row-major 2-D sample buffer.
///
/// `Plane` is the workhorse container of the reproduction: color channels
/// are `Plane<u8>` / `Plane<f32>`, label maps are `Plane<u32>`, and the
/// accelerator's scratchpad tiles are views into planes.
///
/// Indexing is `(x, y)` with `x` the column and `y` the row; `(0, 0)` is the
/// top-left sample.
///
/// # Example
///
/// ```
/// use sslic_image::Plane;
///
/// let mut p = Plane::filled(4, 3, 0u32);
/// p[(2, 1)] = 7;
/// assert_eq!(p[(2, 1)], 7);
/// assert_eq!(p.iter().sum::<u32>(), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Plane<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T: Copy> Plane<T> {
    /// Creates a plane of `width × height` samples, all set to `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: usize, height: usize, fill: T) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        Plane {
            width,
            height,
            data: vec![fill; width * height],
        }
    }

    /// Wraps an existing buffer as a plane.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::Dimension`] if `data.len() != width * height`
    /// or either dimension is zero.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 || data.len() != width * height {
            return Err(ImageError::Dimension {
                expected: width * height,
                actual: data.len(),
            });
        }
        Ok(Plane {
            width,
            height,
            data,
        })
    }

    /// Builds a plane by evaluating `f(x, y)` at every sample.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        assert!(width > 0 && height > 0, "plane dimensions must be nonzero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Plane {
            width,
            height,
            data,
        }
    }

    /// Returns the sample at `(x, y)`, or `None` when out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> Option<T> {
        if x < self.width && y < self.height {
            Some(self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Returns the sample at `(x, y)` clamping coordinates to the border.
    ///
    /// Useful for windowed operators (gradients, blurs) near edges.
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Copies the rectangle of `width × height` samples whose top-left
    /// corner is `(x0, y0)` into a new plane.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle exceeds the plane or is empty.
    pub fn crop(&self, x0: usize, y0: usize, width: usize, height: usize) -> Plane<T> {
        assert!(width > 0 && height > 0, "crop must be nonempty");
        assert!(
            x0 + width <= self.width && y0 + height <= self.height,
            "crop rectangle out of bounds"
        );
        Plane::from_fn(width, height, |x, y| self[(x0 + x, y0 + y)])
    }

    /// Applies `f` to every sample, producing a new plane of the results.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Plane<U> {
        Plane {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Copies every sample of `src` into this plane in place (no
    /// allocation).
    ///
    /// # Panics
    ///
    /// Panics if the two planes differ in geometry.
    pub fn copy_from(&mut self, src: &Plane<T>) {
        assert!(
            self.width == src.width && self.height == src.height,
            "copy_from requires matching plane geometry"
        );
        self.data.copy_from_slice(&src.data);
    }
}

impl<T> Plane<T> {
    /// Width in samples.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in samples.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of samples (`width * height`).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always `false`: planes have nonzero dimensions by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat row-major view of the samples.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat row-major view of the samples.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `y` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Iterator over all samples in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Mutable iterator over all samples in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.data.iter_mut()
    }

    /// Consumes the plane, returning the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterator over `((x, y), &sample)` pairs in row-major order.
    pub fn enumerate(&self) -> impl Iterator<Item = ((usize, usize), &T)> {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i % w, i / w), v))
    }
}

impl<T: Copy> std::ops::Index<(usize, usize)> for Plane<T> {
    type Output = T;

    #[inline]
    fn index(&self, (x, y): (usize, usize)) -> &T {
        debug_assert!(x < self.width && y < self.height);
        &self.data[y * self.width + x]
    }
}

impl<T: Copy> std::ops::IndexMut<(usize, usize)> for Plane<T> {
    #[inline]
    fn index_mut(&mut self, (x, y): (usize, usize)) -> &mut T {
        debug_assert!(x < self.width && y < self.height);
        &mut self.data[y * self.width + x]
    }
}

impl<'a, T> IntoIterator for &'a Plane<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_has_uniform_content() {
        let p = Plane::filled(5, 4, 9u8);
        assert_eq!(p.len(), 20);
        assert!(p.iter().all(|&v| v == 9));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = Plane::filled(0, 4, 1u8);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Plane::from_vec(3, 3, vec![0u8; 8]).is_err());
        assert!(Plane::from_vec(3, 3, vec![0u8; 9]).is_ok());
        assert!(Plane::from_vec(0, 3, Vec::<u8>::new()).is_err());
    }

    #[test]
    fn from_fn_row_major_order() {
        let p = Plane::from_fn(3, 2, |x, y| (10 * y + x) as u8);
        assert_eq!(p.as_slice(), &[0, 1, 2, 10, 11, 12]);
        assert_eq!(p[(2, 1)], 12);
    }

    #[test]
    fn get_bounds_checked() {
        let p = Plane::from_fn(3, 2, |x, y| (x + y) as u8);
        assert_eq!(p.get(2, 1), Some(3));
        assert_eq!(p.get(3, 1), None);
        assert_eq!(p.get(2, 2), None);
    }

    #[test]
    fn get_clamped_replicates_border() {
        let p = Plane::from_fn(3, 2, |x, y| (10 * y + x) as i32);
        assert_eq!(p.get_clamped(-5, -5), 0);
        assert_eq!(p.get_clamped(10, 10), 12);
        assert_eq!(p.get_clamped(1, 0), 1);
    }

    #[test]
    fn map_preserves_geometry() {
        let p = Plane::from_fn(4, 3, |x, _| x as u8);
        let q = p.map(|v| v as f32 * 2.0);
        assert_eq!(q.width(), 4);
        assert_eq!(q.height(), 3);
        assert_eq!(q[(3, 2)], 6.0);
    }

    #[test]
    fn row_view_matches_indexing() {
        let p = Plane::from_fn(3, 3, |x, y| (y * 3 + x) as u16);
        assert_eq!(p.row(1), &[3, 4, 5]);
    }

    #[test]
    fn enumerate_yields_coordinates() {
        let p = Plane::from_fn(2, 2, |x, y| (x, y));
        for ((x, y), &(vx, vy)) in p.enumerate() {
            assert_eq!((x, y), (vx, vy));
        }
    }

    #[test]
    fn index_mut_writes() {
        let mut p = Plane::filled(2, 2, 0u32);
        p[(1, 1)] = 42;
        assert_eq!(p.as_slice(), &[0, 0, 0, 42]);
    }

    #[test]
    fn crop_extracts_the_right_window() {
        let p = Plane::from_fn(6, 5, |x, y| (10 * y + x) as u8);
        let c = p.crop(2, 1, 3, 2);
        assert_eq!(c.width(), 3);
        assert_eq!(c.as_slice(), &[12, 13, 14, 22, 23, 24]);
    }

    #[test]
    fn crop_of_full_plane_is_identity() {
        let p = Plane::from_fn(4, 3, |x, y| x * y);
        assert_eq!(p.crop(0, 0, 4, 3), p);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oversized_crop_panics() {
        let p = Plane::filled(4, 4, 0u8);
        let _ = p.crop(2, 2, 3, 3);
    }

    #[test]
    fn copy_from_replicates_content() {
        let src = Plane::from_fn(4, 3, |x, y| (x * 10 + y) as u16);
        let mut dst = Plane::filled(4, 3, 0u16);
        dst.copy_from(&src);
        assert_eq!(dst, src);
    }

    #[test]
    #[should_panic(expected = "matching plane geometry")]
    fn copy_from_rejects_geometry_mismatch() {
        let src = Plane::filled(4, 3, 0u16);
        let mut dst = Plane::filled(3, 4, 0u16);
        dst.copy_from(&src);
    }

    #[test]
    fn into_vec_round_trips() {
        let p = Plane::from_fn(2, 2, |x, y| x + 2 * y);
        let v = p.clone().into_vec();
        let q = Plane::from_vec(2, 2, v).unwrap();
        assert_eq!(p, q);
    }
}
