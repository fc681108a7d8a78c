//! Subsampling strategies for S-SLIC.
//!
//! "The image pixels are split into subsets of equal size. At each
//! iteration, a different subset is used to update the SPs. The subsets are
//! traversed in a round-robin fashion to guarantee that all image pixels
//! are considered." (paper §3)
//!
//! The paper explores "different subsampling mechanisms"; this module
//! provides three spatial layouts for the pixel subsets. All of them
//! partition the image exactly (every pixel in exactly one subset) and the
//! sub-iteration schedule is round-robin by construction.

/// How image pixels are distributed among the `P` subsets of S-SLIC's
/// pixel-perspective architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SubsetStrategy {
    /// Raster-interleaved: pixel `i` (raster index) belongs to subset
    /// `i mod P`. Spatially uniform at single-pixel granularity; every
    /// cluster sees members in every sub-iteration. The strategy the
    /// OS-EM analogy suggests and our default.
    #[default]
    Interleaved,
    /// Checkerboard-style 2-D interleave: subset `(x + y·q) mod P` with
    /// `q = ceil(sqrt(P))`, decorrelating rows so subsets are not vertical
    /// stripe patterns for P dividing the width.
    Checkerboard,
    /// Contiguous horizontal bands: subset `⌊y·P / height⌋`. The cheapest
    /// layout for a DMA engine, but clusters outside the active band see no
    /// members in a sub-iteration (worst case for convergence) — included
    /// as the strawman the paper's "proper subsampling strategy" remark
    /// warns about.
    Bands,
}

/// A partition of image pixels into `P` equal-ish subsets.
///
/// # Example
///
/// ```
/// use sslic_core::subsample::{SubsetPartition, SubsetStrategy};
///
/// let part = SubsetPartition::new(64, 48, 4, SubsetStrategy::Interleaved);
/// // The subsets exactly cover the image.
/// let total: usize = (0..4).map(|s| part.subset_len(s)).sum();
/// assert_eq!(total, 64 * 48);
/// // Round-robin schedule: sub-iteration t processes subset t mod P.
/// assert_eq!(part.subset_for_step(6), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsetPartition {
    width: usize,
    height: usize,
    subsets: u32,
    strategy: SubsetStrategy,
    counts: Vec<usize>,
}

impl SubsetPartition {
    /// Builds the partition.
    ///
    /// # Panics
    ///
    /// Panics if `subsets == 0` or either dimension is zero.
    pub fn new(width: usize, height: usize, subsets: u32, strategy: SubsetStrategy) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be nonzero");
        assert!(subsets > 0, "subset count must be nonzero");
        let mut counts = vec![0usize; subsets as usize];
        for y in 0..height {
            for x in 0..width {
                counts[subset_of(x, y, width, height, subsets, strategy) as usize] += 1;
            }
        }
        SubsetPartition {
            width,
            height,
            subsets,
            strategy,
            counts,
        }
    }

    /// Number of subsets `P`.
    pub fn subsets(&self) -> u32 {
        self.subsets
    }

    /// The strategy this partition uses.
    pub fn strategy(&self) -> SubsetStrategy {
        self.strategy
    }

    /// Subset index of pixel `(x, y)`.
    #[inline]
    pub fn subset_of(&self, x: usize, y: usize) -> u32 {
        subset_of(x, y, self.width, self.height, self.subsets, self.strategy)
    }

    /// The columns of row `y` that belong to subset `s`, as `(first, step)`:
    /// every `step`-th column from `first`, or `None` when the row has no
    /// member. Both interleaves advance the subset by one per column, so
    /// their members sit `P` apart from a per-row phase; a band row is
    /// either wholly in `s` or not at all.
    pub(crate) fn row_members(&self, y: usize, s: u32) -> Option<(usize, usize)> {
        let p = self.subsets as usize;
        let row_shift = match self.strategy {
            SubsetStrategy::Interleaved => self.width,
            SubsetStrategy::Checkerboard => checkerboard_q(p),
            SubsetStrategy::Bands => return (self.subset_of(0, y) == s).then_some((0, 1)),
        };
        // Pixel (x, y) is in subset (y·row_shift + x) mod P.
        let phase = y * row_shift % p;
        let first = (s as usize + p - phase) % p;
        (first < self.width).then_some((first, p))
    }

    /// The subset processed at sub-iteration `step` (round-robin).
    #[inline]
    pub fn subset_for_step(&self, step: u32) -> u32 {
        step % self.subsets
    }

    /// Number of pixels in `subset`.
    ///
    /// # Panics
    ///
    /// Panics if `subset >= subsets()`.
    pub fn subset_len(&self, subset: u32) -> usize {
        self.counts[subset as usize]
    }

    /// Fraction of image pixels each sub-iteration touches (`1/P` up to
    /// rounding) — the paper's "subsampling ratio" (0.5 for P=2, 0.25 for
    /// P=4).
    pub fn sampling_ratio(&self) -> f64 {
        1.0 / self.subsets as f64
    }
}

#[inline]
fn subset_of(
    x: usize,
    y: usize,
    width: usize,
    height: usize,
    subsets: u32,
    strategy: SubsetStrategy,
) -> u32 {
    let p = subsets as usize;
    (match strategy {
        SubsetStrategy::Interleaved => (y * width + x) % p,
        SubsetStrategy::Checkerboard => (x + y * checkerboard_q(p)) % p,
        SubsetStrategy::Bands => (y * p / height).min(p - 1),
    }) as u32
}

/// The Checkerboard row shift `q = ⌈√P⌉`.
fn checkerboard_q(p: usize) -> usize {
    (p as f64).sqrt().ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_subset_is_identity() {
        let part = SubsetPartition::new(10, 10, 1, SubsetStrategy::Interleaved);
        assert_eq!(part.subset_len(0), 100);
        assert_eq!(part.sampling_ratio(), 1.0);
        for y in 0..10 {
            for x in 0..10 {
                assert_eq!(part.subset_of(x, y), 0);
            }
        }
    }

    #[test]
    fn interleaved_subsets_are_equal_size() {
        let part = SubsetPartition::new(64, 32, 4, SubsetStrategy::Interleaved);
        for s in 0..4 {
            assert_eq!(part.subset_len(s), 64 * 32 / 4);
        }
    }

    #[test]
    fn bands_cover_rows_contiguously() {
        let part = SubsetPartition::new(8, 12, 3, SubsetStrategy::Bands);
        assert_eq!(part.subset_of(0, 0), 0);
        assert_eq!(part.subset_of(0, 5), 1);
        assert_eq!(part.subset_of(0, 11), 2);
        // Rows within a band share the subset.
        for x in 0..8 {
            assert_eq!(part.subset_of(x, 2), part.subset_of(0, 2));
        }
    }

    #[test]
    fn checkerboard_varies_within_a_row_and_column() {
        let part = SubsetPartition::new(16, 16, 4, SubsetStrategy::Checkerboard);
        let row: std::collections::HashSet<u32> =
            (0..16).map(|x| part.subset_of(x, 0)).collect();
        let col: std::collections::HashSet<u32> =
            (0..16).map(|y| part.subset_of(0, y)).collect();
        assert!(row.len() > 1, "subsets vary along a row");
        assert!(col.len() > 1, "subsets vary along a column");
    }

    #[test]
    fn round_robin_schedule() {
        let part = SubsetPartition::new(8, 8, 3, SubsetStrategy::Interleaved);
        let schedule: Vec<u32> = (0..7).map(|t| part.subset_for_step(t)).collect();
        assert_eq!(schedule, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "subset count")]
    fn zero_subsets_panics() {
        let _ = SubsetPartition::new(8, 8, 0, SubsetStrategy::Interleaved);
    }

    #[test]
    fn row_members_enumerate_exactly_the_subset() {
        for strategy in [
            SubsetStrategy::Interleaved,
            SubsetStrategy::Checkerboard,
            SubsetStrategy::Bands,
        ] {
            for p in 1..=6u32 {
                for (w, h) in [
                    (1, 1),
                    (1, 7),
                    (2, 3),
                    (3, 5),
                    (5, 4),
                    (7, 9),
                    (10, 3),
                    (13, 11),
                ] {
                    let part = SubsetPartition::new(w, h, p, strategy);
                    for y in 0..h {
                        for s in 0..p {
                            let walked: Vec<usize> = match part.row_members(y, s) {
                                Some((first, step)) => (first..w).step_by(step).collect(),
                                None => Vec::new(),
                            };
                            let expected: Vec<usize> =
                                (0..w).filter(|&x| part.subset_of(x, y) == s).collect();
                            let at = format!("{strategy:?} P={p} {w}x{h} y={y} s={s}");
                            assert_eq!(walked, expected, "{at}");
                            assert_eq!(
                                part.row_members(y, s).is_none(),
                                expected.is_empty(),
                                "{at}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn partition_is_exact_and_balanced(
            w in 4usize..40,
            h in 4usize..40,
            p in 1u32..6,
            strat in prop_oneof![
                Just(SubsetStrategy::Interleaved),
                Just(SubsetStrategy::Checkerboard),
                Just(SubsetStrategy::Bands),
            ],
        ) {
            let part = SubsetPartition::new(w, h, p, strat);
            // Exact cover.
            let total: usize = (0..p).map(|s| part.subset_len(s)).sum();
            prop_assert_eq!(total, w * h);
            // Every subset index in range.
            for y in 0..h {
                for x in 0..w {
                    prop_assert!(part.subset_of(x, y) < p);
                }
            }
            // Equal size up to a row/remainder of slack.
            let ideal = (w * h) as f64 / p as f64;
            let slack = match strat {
                SubsetStrategy::Bands => w as f64 * 2.0,
                _ => p as f64 * 2.0,
            };
            for s in 0..p {
                let len = part.subset_len(s) as f64;
                prop_assert!((len - ideal).abs() <= slack.max(ideal * 0.5),
                    "subset {s} has {len} pixels, ideal {ideal}");
            }
        }

        #[test]
        fn schedule_covers_all_subsets(p in 1u32..8) {
            let part = SubsetPartition::new(8, 8, p, SubsetStrategy::Interleaved);
            let seen: std::collections::HashSet<u32> =
                (0..p).map(|t| part.subset_for_step(t)).collect();
            prop_assert_eq!(seen.len() as u32, p);
        }
    }
}
