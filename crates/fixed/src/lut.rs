/// A 256-entry indexed look-up table mapping a `u8` input code directly to a
/// precomputed output.
///
/// This is the structure the accelerator's color-conversion unit uses for
/// the sRGB gamma power function (paper §6.1: "We adopt a 256-entry LUT for
/// the power function used in the 8-bit RGB to XYZ conversion"). Because the
/// input is exactly 8 bits, the table is *exact* at the chosen output
/// precision — no interpolation hardware is required.
///
/// # Example
///
/// ```
/// use sslic_fixed::Lut256;
///
/// // A LUT that squares its normalized input, in Q0.15 output codes.
/// let lut = Lut256::from_fn(|code| {
///     let x = code as f64 / 255.0;
///     (x * x * 32767.0).round() as i32
/// });
/// assert_eq!(lut.lookup(0), 0);
/// assert_eq!(lut.lookup(255), 32767);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lut256 {
    table: Vec<i32>,
}

impl Lut256 {
    /// Builds the table by evaluating `f` at every input code 0–255.
    pub fn from_fn(f: impl FnMut(u8) -> i32) -> Self {
        Lut256 {
            table: (0..=255u8).map(f).collect(),
        }
    }

    /// Looks up the output for input code `code`. Constant time, like the
    /// hardware ROM read.
    #[inline]
    pub fn lookup(&self, code: u8) -> i32 {
        self.table[code as usize]
    }

    /// The full table contents (for inspection and hardware export).
    pub fn as_table(&self) -> &[i32] {
        &self.table
    }

    /// XORs `xor_mask` into the entry for input `code` — the fault-injection
    /// hook `sslic-fault` uses to model soft errors in the LUT ROM/SRAM
    /// cells. A second call with the same mask restores the entry.
    pub fn corrupt(&mut self, code: u8, xor_mask: i32) {
        self.table[code as usize] ^= xor_mask;
    }
}

/// A piecewise-linear LUT: linear segments between explicit knots over
/// `[lo, hi]`.
///
/// This models the accelerator's "8 component piecewise linear LUT
/// approximation of the power function used in the XYZ to LAB conversion"
/// (paper §6.1). Two knot placements are provided:
///
/// * [`PwlLut::from_fn`] — uniform knots (simple address decode);
/// * [`PwlLut::from_fn_geometric`] — geometrically spaced knots, the right
///   choice for power functions whose curvature concentrates near zero
///   (7× lower error for the CIELAB cube root at 8 segments).
///
/// Inputs outside the domain are clamped to the nearest end. Segment lookup
/// is a binary search over at most a handful of knots, standing in for the
/// hardware's priority encoder.
///
/// # Example
///
/// ```
/// use sslic_fixed::PwlLut;
///
/// let cbrt = PwlLut::from_fn_geometric(8, 0.008856, 1.0, |t| t.cbrt());
/// let err = cbrt.max_abs_error(|t| t.cbrt(), 10_000);
/// assert!(err < 0.01, "8 geometric segments approximate cbrt well: err={err}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PwlLut {
    knots: Vec<f64>,
    values: Vec<f64>,
}

impl PwlLut {
    /// Builds a `segments`-piece interpolant of `f` with uniform knots over
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0` or `lo >= hi`.
    pub fn from_fn(segments: usize, lo: f64, hi: f64, f: impl FnMut(f64) -> f64) -> Self {
        assert!(segments > 0, "at least one segment required");
        assert!(lo < hi, "lo must be below hi");
        let knots: Vec<f64> = (0..=segments)
            .map(|i| lo + (hi - lo) * i as f64 / segments as f64)
            .collect();
        Self::from_knots(knots, f)
    }

    /// Builds a `segments`-piece interpolant of `f` with geometrically
    /// spaced knots over `[lo, hi]`, concentrating resolution near `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `segments == 0`, `lo >= hi`, or `lo <= 0` (geometric
    /// spacing needs a positive lower bound).
    pub fn from_fn_geometric(
        segments: usize,
        lo: f64,
        hi: f64,
        f: impl FnMut(f64) -> f64,
    ) -> Self {
        assert!(segments > 0, "at least one segment required");
        assert!(lo < hi, "lo must be below hi");
        assert!(lo > 0.0, "geometric knots require lo > 0");
        let ratio = hi / lo;
        let knots: Vec<f64> = (0..=segments)
            .map(|i| lo * ratio.powf(i as f64 / segments as f64))
            .collect();
        Self::from_knots(knots, f)
    }

    fn from_knots(knots: Vec<f64>, mut f: impl FnMut(f64) -> f64) -> Self {
        let values = knots.iter().map(|&x| f(x)).collect();
        PwlLut { knots, values }
    }

    /// Number of linear segments.
    pub(crate) fn segment_count(&self) -> usize {
        self.knots.len() - 1
    }

    /// Domain lower bound.
    pub fn lo(&self) -> f64 {
        self.knots.first().copied().unwrap_or(0.0)
    }

    /// Domain upper bound. Builders guarantee at least two knots; an empty
    /// table degenerates to the same bound as [`Self::lo`].
    pub fn hi(&self) -> f64 {
        self.knots.last().copied().unwrap_or(self.lo())
    }

    /// Evaluates the approximation at `x` (clamped into the domain).
    ///
    /// In hardware this is a priority encode, one table read, one subtract,
    /// one multiply, and one add — the operation count the energy model
    /// charges for it.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        let x = x.clamp(self.lo(), self.hi());
        // Find the segment whose [knot[i], knot[i+1]] contains x.
        let idx = match self.knots.binary_search_by(|k| k.total_cmp(&x)) {
            Ok(i) => i.min(self.segment_count() - 1),
            Err(i) => i.saturating_sub(1).min(self.segment_count() - 1),
        };
        let (x0, x1) = (self.knots[idx], self.knots[idx + 1]);
        let (y0, y1) = (self.values[idx], self.values[idx + 1]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Maximum absolute error against the reference `f`, sampled at
    /// `samples` uniformly spaced points.
    pub fn max_abs_error(&self, mut f: impl FnMut(f64) -> f64, samples: usize) -> f64 {
        let (lo, hi) = (self.lo(), self.hi());
        let mut max = 0.0f64;
        for i in 0..samples {
            let x = lo + (hi - lo) * i as f64 / (samples - 1).max(1) as f64;
            let err = (self.eval(x) - f(x)).abs();
            if err > max {
                max = err;
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lut256_is_exact_at_knots() {
        let lut = Lut256::from_fn(|c| (c as i32) * 3);
        for c in [0u8, 1, 100, 255] {
            assert_eq!(lut.lookup(c), c as i32 * 3);
        }
        assert_eq!(lut.as_table().len(), 256);
    }

    #[test]
    fn pwl_is_exact_on_linear_functions() {
        let lut = PwlLut::from_fn(4, 0.0, 10.0, |x| 2.0 * x + 1.0);
        for i in 0..100 {
            let x = i as f64 / 10.0;
            assert!((lut.eval(x) - (2.0 * x + 1.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn pwl_interpolates_at_segment_knots_exactly() {
        let lut = PwlLut::from_fn(8, 0.0, 1.0, |x| x.cbrt());
        for i in 0..=8 {
            let x = i as f64 / 8.0;
            assert!((lut.eval(x) - x.cbrt()).abs() < 1e-12, "knot {i}");
        }
    }

    #[test]
    fn pwl_clamps_out_of_domain_inputs() {
        let lut = PwlLut::from_fn(4, 1.0, 2.0, |x| x);
        assert_eq!(lut.eval(0.0), 1.0);
        assert_eq!(lut.eval(5.0), 2.0);
    }

    #[test]
    fn more_segments_reduce_error() {
        let f = |x: f64| x.cbrt();
        let e2 = PwlLut::from_fn(2, 0.01, 1.0, f).max_abs_error(f, 5000);
        let e8 = PwlLut::from_fn(8, 0.01, 1.0, f).max_abs_error(f, 5000);
        let e32 = PwlLut::from_fn(32, 0.01, 1.0, f).max_abs_error(f, 5000);
        assert!(e8 < e2);
        assert!(e32 < e8);
    }

    #[test]
    fn geometric_knots_beat_uniform_for_cbrt() {
        let f = |x: f64| x.cbrt();
        let uni = PwlLut::from_fn(8, 0.008856, 1.0, f).max_abs_error(f, 20_000);
        let geo = PwlLut::from_fn_geometric(8, 0.008856, 1.0, f).max_abs_error(f, 20_000);
        assert!(geo < uni / 3.0, "geo={geo} uni={uni}");
    }

    #[test]
    fn paper_8_segment_cbrt_error_is_small() {
        // The accelerator's XYZ→LAB PWL approximation must be accurate
        // enough not to perturb 8-bit L,a,b outputs by more than a couple
        // of LSBs: with geometric knots the error stays below 0.01 in f,
        // i.e. ~1.2 L units worst case, concentrated at the dark end.
        let f = |x: f64| x.cbrt();
        let lut = PwlLut::from_fn_geometric(8, 0.008856, 1.0, f);
        assert!(lut.max_abs_error(f, 20_000) < 0.01);
    }

    #[test]
    #[should_panic(expected = "segment")]
    fn zero_segments_panics() {
        let _ = PwlLut::from_fn(0, 0.0, 1.0, |x| x);
    }

    #[test]
    #[should_panic(expected = "lo > 0")]
    fn geometric_with_zero_lo_panics() {
        let _ = PwlLut::from_fn_geometric(8, 0.0, 1.0, |x| x);
    }

    #[test]
    fn eval_at_exact_knot_positions() {
        let lut = PwlLut::from_fn_geometric(8, 0.01, 1.0, |x| x.cbrt());
        // Binary search Ok() branch: evaluate exactly at knots.
        for i in 0..=8 {
            let x = 0.01f64 * (100.0f64).powf(i as f64 / 8.0);
            assert!((lut.eval(x) - x.cbrt()).abs() < 1e-9, "knot {i}");
        }
    }

    proptest! {
        #[test]
        fn pwl_eval_between_sampled_extremes(x in 0.0f64..1.0) {
            // For a monotone function the PWL interpolant stays within the
            // function's range over the domain.
            let lut = PwlLut::from_fn(8, 0.0, 1.0, |t| t.sqrt());
            let y = lut.eval(x);
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn pwl_monotone_for_monotone_input(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let lut = PwlLut::from_fn(8, 0.0, 1.0, |t| t.cbrt());
            if a <= b {
                prop_assert!(lut.eval(a) <= lut.eval(b) + 1e-12);
            }
        }

        #[test]
        fn geometric_pwl_error_bounded(x in 0.008856f64..1.0) {
            let lut = PwlLut::from_fn_geometric(8, 0.008856, 1.0, |t| t.cbrt());
            prop_assert!((lut.eval(x) - x.cbrt()).abs() < 0.01);
        }
    }
}
