use std::ops::Range;

/// The regular seed grid SLIC initializes its cluster centers on, and the
/// static pixel → 9-nearest-centers mapping the pixel-perspective
/// architecture precomputes (paper §4.3: "The image is statically split
/// into tiled regions based on the initial 9 closest SPs").
///
/// The grid has `cols × rows` cells; cell `(cx, cy)` owns the pixels of one
/// tile and cluster index `cy * cols + cx`. A pixel's 9 candidate clusters
/// are the 3×3 block of cells around its own cell, clamped at image borders
/// (border pixels therefore see some duplicate candidates — exactly what
/// fixed 9-way hardware does).
///
/// # Example
///
/// ```
/// use sslic_core::SeedGrid;
///
/// let grid = SeedGrid::new(192, 108, 100);
/// assert!(grid.cluster_count() >= 90 && grid.cluster_count() <= 110);
/// let nine = grid.nine_neighbors_of_pixel(96, 54);
/// assert_eq!(nine.len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedGrid {
    width: usize,
    height: usize,
    cols: usize,
    rows: usize,
}

impl SeedGrid {
    /// Builds the grid for an image of `width × height` pixels targeting
    /// `superpixels` clusters. The realized cluster count is
    /// `cols × rows ≈ superpixels` (the standard SLIC rounding).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero.
    pub fn new(width: usize, height: usize, superpixels: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert!(superpixels > 0, "superpixel count must be nonzero");
        let spacing = ((width * height) as f64 / superpixels as f64).sqrt();
        let cols = ((width as f64 / spacing).round() as usize).max(1);
        let rows = ((height as f64 / spacing).round() as usize).max(1);
        SeedGrid {
            width,
            height,
            cols,
            rows,
        }
    }

    /// Image width in pixels.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Grid columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Grid rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Realized number of clusters (`cols × rows`).
    pub fn cluster_count(&self) -> usize {
        self.cols * self.rows
    }

    /// Mean grid spacing `S` in pixels (used by the distance normalization
    /// of Eq. 5).
    pub fn spacing(&self) -> f32 {
        ((self.width * self.height) as f32 / self.cluster_count() as f32).sqrt()
    }

    /// Initial (unperturbed) center of cluster `k`, at the middle of its
    /// cell.
    ///
    /// # Panics
    ///
    /// Panics if `k >= cluster_count()`.
    pub fn seed_position(&self, k: usize) -> (f32, f32) {
        assert!(k < self.cluster_count(), "cluster index out of range");
        let cx = k % self.cols;
        let cy = k / self.cols;
        (
            (cx as f32 + 0.5) * self.width as f32 / self.cols as f32,
            (cy as f32 + 0.5) * self.height as f32 / self.rows as f32,
        )
    }

    /// The grid cell that owns pixel `(x, y)`.
    #[inline]
    pub(crate) fn cell_of_pixel(&self, x: usize, y: usize) -> (usize, usize) {
        debug_assert!(x < self.width && y < self.height);
        (
            (x * self.cols / self.width).min(self.cols - 1),
            (y * self.rows / self.height).min(self.rows - 1),
        )
    }

    /// The grid column of every pixel column (`cell_of_pixel(x, _).0` for
    /// `x` in `0..width`): the W-entry table [`SeedGrid::home_row`] reads.
    /// Build it once per geometry.
    pub fn column_cells(&self) -> Vec<u32> {
        (0..self.width)
            .map(|x| self.cell_of_pixel(x, 0).0 as u32)
            .collect()
    }

    /// The home cluster of every pixel of row `y`, left to right: the
    /// row's first cluster index plus each column's entry in
    /// `column_cells` (from [`SeedGrid::column_cells`]). Each entry is the
    /// cluster whose tile owns the pixel, found without two divisions per
    /// pixel — the tile map the accelerator precomputes (paper §4.3), kept
    /// as one row template.
    #[inline]
    pub fn home_row<'a>(
        &self,
        column_cells: &'a [u32],
        y: usize,
    ) -> impl Iterator<Item = u32> + 'a {
        let base = (self.cell_of_pixel(0, y).1 * self.cols) as u32;
        column_cells.iter().map(move |&cx| base + cx)
    }

    /// The 9 candidate cluster indices for a cell (3×3 block clamped at
    /// borders; entries may repeat at edges, matching fixed 9-way
    /// hardware).
    #[inline]
    pub(crate) fn nine_neighbors_of_cell(&self, cx: usize, cy: usize) -> [usize; 9] {
        let mut out = [0usize; 9];
        let mut i = 0;
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let nx = (cx as i64 + dx).clamp(0, self.cols as i64 - 1) as usize;
                let ny = (cy as i64 + dy).clamp(0, self.rows as i64 - 1) as usize;
                out[i] = ny * self.cols + nx;
                i += 1;
            }
        }
        out
    }

    /// The clusters of the grid rows within one row of those of the
    /// non-empty pixel rows `rows`: every label a pixel-perspective step
    /// can give a pixel of `rows`, since a pixel's home cluster and nine
    /// candidates lie within one grid row of its own.
    pub(crate) fn clusters_near_rows(&self, rows: &Range<usize>) -> Range<usize> {
        let top = self.cell_of_pixel(0, rows.start).1.saturating_sub(1);
        let bottom = (self.cell_of_pixel(0, rows.end - 1).1 + 1).min(self.rows - 1);
        top * self.cols..(bottom + 1) * self.cols
    }

    /// The 9 candidate cluster indices for a pixel.
    #[inline]
    pub fn nine_neighbors_of_pixel(&self, x: usize, y: usize) -> [usize; 9] {
        let (cx, cy) = self.cell_of_pixel(x, y);
        self.nine_neighbors_of_cell(cx, cy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cluster whose tile owns pixel `(x, y)`, from the pixel's own
    /// grid cell: the oracle `home_row` is checked against.
    fn home_cluster_of_pixel(g: &SeedGrid, x: usize, y: usize) -> usize {
        let (cx, cy) = g.cell_of_pixel(x, y);
        cy * g.cols + cx
    }

    #[test]
    fn realized_count_tracks_target() {
        let g = SeedGrid::new(1920, 1080, 5000);
        let k = g.cluster_count();
        assert!((4500..=5500).contains(&k), "realized K = {k}");
    }

    #[test]
    fn spacing_matches_sqrt_n_over_k() {
        let g = SeedGrid::new(1920, 1080, 5000);
        let s = g.spacing();
        assert!((s - 20.36).abs() < 1.5, "S = {s}");
    }

    #[test]
    fn seeds_are_inside_the_image() {
        let g = SeedGrid::new(100, 60, 24);
        for k in 0..g.cluster_count() {
            let (x, y) = g.seed_position(k);
            assert!(x > 0.0 && x < 100.0);
            assert!(y > 0.0 && y < 60.0);
        }
    }

    #[test]
    fn every_pixel_has_a_home_cluster() {
        let g = SeedGrid::new(37, 23, 12);
        for y in 0..23 {
            for x in 0..37 {
                assert!(home_cluster_of_pixel(&g, x, y) < g.cluster_count());
            }
        }
    }

    #[test]
    fn home_rows_match_home_cluster_of_pixel() {
        for (w, h, k) in [
            (1, 1, 1),
            (1, 9, 3),
            (11, 1, 4),
            (37, 23, 12),
            (64, 48, 20),
            (5, 3, 15),
        ] {
            let g = SeedGrid::new(w, h, k);
            let cells = g.column_cells();
            assert_eq!(cells.len(), w);
            for y in 0..h {
                let row: Vec<u32> = g.home_row(&cells, y).collect();
                let want: Vec<u32> = (0..w)
                    .map(|x| home_cluster_of_pixel(&g, x, y) as u32)
                    .collect();
                assert_eq!(row, want, "{w}x{h}, K {k}, row {y}");
            }
        }
    }

    #[test]
    fn home_cluster_is_among_nine_neighbors() {
        let g = SeedGrid::new(64, 48, 20);
        for y in (0..48).step_by(5) {
            for x in (0..64).step_by(5) {
                let home = home_cluster_of_pixel(&g, x, y);
                let nine = g.nine_neighbors_of_pixel(x, y);
                assert!(nine.contains(&home));
            }
        }
    }

    #[test]
    fn clusters_near_rows_hold_every_candidate_of_those_rows() {
        for (w, h, k) in [
            (1, 1, 1),
            (1, 9, 3),
            (37, 23, 12),
            (64, 48, 20),
            (320, 240, 600),
        ] {
            let g = SeedGrid::new(w, h, k);
            for start in 0..h {
                for end in start + 1..=h.min(start + 9) {
                    let near = g.clusters_near_rows(&(start..end));
                    assert!(near.end <= g.cluster_count());
                    for y in start..end {
                        for x in 0..w {
                            let nine = g.nine_neighbors_of_pixel(x, y);
                            assert!(
                                nine.iter().all(|k| near.contains(k)),
                                "{w}x{h}, K {k}, rows {start}..{end}, pixel ({x}, {y})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interior_cell_has_nine_distinct_neighbors() {
        let g = SeedGrid::new(100, 100, 25); // 5×5 grid
        let nine = g.nine_neighbors_of_cell(2, 2);
        let set: std::collections::HashSet<usize> = nine.iter().copied().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn corner_cell_neighbors_are_clamped() {
        let g = SeedGrid::new(100, 100, 25);
        let nine = g.nine_neighbors_of_cell(0, 0);
        // Clamping duplicates: only 4 distinct cells exist in the corner.
        let set: std::collections::HashSet<usize> = nine.iter().copied().collect();
        assert_eq!(set.len(), 4);
        assert!(nine.iter().all(|&k| k < g.cluster_count()));
    }

    #[test]
    fn single_cluster_degenerate_grid() {
        let g = SeedGrid::new(10, 10, 1);
        assert_eq!(g.cluster_count(), 1);
        assert_eq!(g.nine_neighbors_of_pixel(5, 5), [0; 9]);
    }

    #[test]
    fn tiny_image_more_superpixels_than_pixels_is_clamped_sanely() {
        let g = SeedGrid::new(4, 4, 64);
        assert!(g.cluster_count() <= 64);
        for y in 0..4 {
            for x in 0..4 {
                assert!(home_cluster_of_pixel(&g, x, y) < g.cluster_count());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn seed_position_bounds_checked() {
        let g = SeedGrid::new(10, 10, 4);
        let _ = g.seed_position(g.cluster_count());
    }
}
