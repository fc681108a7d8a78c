//! Assign-kernel dispatch and the SWAR fixed-point distance kernel.
//!
//! The quantized 9-candidate PPA distance scan is the hot inner loop of
//! the whole engine and is pure 8/16-bit integer arithmetic — exactly the
//! shape the paper's Cluster Update Unit parallelizes across D distance
//! ways in hardware. This module mirrors that parallelism in software with
//! a SWAR (SIMD-within-a-register) kernel: four pixels' truncated channel
//! codes are packed into the four 16-bit lanes of one `u64`, the per-lane
//! channel deltas are computed with carry-free lane arithmetic, and the
//! per-pixel argmin reduction preserves the scalar loop's first-wins
//! tie-break order exactly — labels are **bit-identical** to the scalar
//! path for every (size, params, threads, warm-start, faults) combination.
//!
//! # Why the labels are bit-identical
//!
//! The scalar path compares `quantizer.encode(sqrt(V))` codes, where
//! `V = dc2 + m2_over_s2 * ds2` is an f64. `encode` is monotone
//! non-decreasing in `V`, so "candidate code < best code" is equivalent to
//! `V < VB[best_code]`, where `VB[c]` is the smallest non-negative f64
//! whose code reaches `c`. [`SwarKernel`] precomputes that threshold table
//! by binary search over f64 *bit patterns* (order-isomorphic to the
//! non-negative reals) with the scalar quantizer as the oracle, and
//! replicates the scalar `V` computation bit-for-bit via two 512-entry
//! squared-delta LUTs indexed by the biased SWAR lanes. This removes the
//! per-candidate `sqrt` + divide + `round` that dominates the scalar
//! datapath while deciding every comparison identically.
//!
//! # Dispatch resolution
//!
//! [`Kernel`] is the public selection knob (the params builder, and
//! `--kernel` on the CLI). A session resolves it once, at construction, as
//! a pure function of the request and the configuration's eligibility:
//! `Scalar` always runs the reference loop; `Swar` and `Auto` run the SWAR
//! kernel when the configuration qualifies (quantized distance mode,
//! pixel-perspective algorithm, non-adaptive) and fall back to the —
//! bit-identical — scalar loop otherwise.

use std::fmt;
use std::ops::Range;
use std::str::FromStr;

use sslic_color::Lab8Image;

use crate::distance::{ClusterCodes, QuantKernel};
use crate::params::ParamError;
use crate::subsample::SubsetPartition;
use crate::SeedGrid;

/// Pixels evaluated per SWAR step: four 16-bit lanes of a `u64`.
const LANES: usize = 4;

/// `1` replicated into each 16-bit lane; multiplying by a value ≤ 2¹⁶−1
/// splats it across all four lanes.
const LANE_ONES: u64 = 0x0001_0001_0001_0001;

/// Which backend executes the assign phase's 9-candidate distance scan.
///
/// Selected once per configuration via [`SlicParamsBuilder::kernel`] —
/// the only setter — and parsed from `--kernel` on the CLI. The resolved
/// backend of each frame is reported by [`FrameReport::kernel`] /
/// `RunReport`.
///
/// All three choices produce **bit-identical labels**: the SWAR kernel is
/// an exact replay of the scalar comparisons (see the module docs), so
/// this knob only selects the execution strategy, never the result.
///
/// [`SlicParamsBuilder::kernel`]: crate::SlicParamsBuilder::kernel
/// [`FrameReport::kernel`]: crate::FrameReport::kernel
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// Pick automatically: [`Kernel::Swar`] when the frame qualifies
    /// (quantized distance, pixel-perspective algorithm), scalar
    /// otherwise. The default.
    #[default]
    Auto,
    /// The reference per-pixel scalar loop.
    Scalar,
    /// The 4-lane SWAR fixed-point kernel. Falls back to the scalar loop
    /// on frames that do not qualify (float mode, center-perspective
    /// algorithms, adaptive compactness).
    Swar,
}

impl Kernel {
    /// Canonical lowercase name: `"auto"`, `"scalar"`, or `"swar"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Kernel::Auto => "auto",
            Kernel::Scalar => "scalar",
            Kernel::Swar => "swar",
        }
    }

    /// Resolves a request against the configuration's eligibility into
    /// the backend that actually runs. Total and deterministic: never
    /// depends on thread count, warm state, or faults.
    pub(crate) fn resolve(self, swar_eligible: bool) -> Kernel {
        match self {
            Kernel::Scalar => Kernel::Scalar,
            Kernel::Auto | Kernel::Swar if swar_eligible => Kernel::Swar,
            Kernel::Auto | Kernel::Swar => Kernel::Scalar,
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Kernel {
    type Err = ParamError;

    /// Parses a CLI-style kernel name. Only the canonical lowercase
    /// names are accepted; anything else is
    /// [`ParamError::UnknownKernel`].
    fn from_str(s: &str) -> Result<Self, ParamError> {
        match s {
            "auto" => Ok(Kernel::Auto),
            "scalar" => Ok(Kernel::Scalar),
            "swar" => Ok(Kernel::Swar),
            _ => Err(ParamError::UnknownKernel),
        }
    }
}

/// Packs four 8-bit channel codes into the four 16-bit lanes of a `u64`.
/// Wrap-free: each operand is ≤ 255 and lands in its own lane, so the
/// ORs never collide and the widest shifted value is `255 << 48`.
#[inline]
fn pack4(b: [u8; LANES]) -> u64 {
    (b[0] as u64) | ((b[1] as u64) << 16) | ((b[2] as u64) << 32) | ((b[3] as u64) << 48)
}

/// Biased per-lane channel deltas: adds `256 - center` to every lane.
/// With packed lanes ≤ 255 and the bias in `[1, 256]`, every lane sum
/// sits in `[1, 511]` — no lane ever carries into its neighbor, which is
/// what makes the lane arithmetic borrow-free without masking.
#[inline]
fn biased_deltas(packed: u64, center: u8) -> u64 {
    packed + (256 - center as u16) as u64 * LANE_ONES
}

/// Precomputed tables of the SWAR assign kernel. Built once per session
/// when the configuration qualifies (ledger-recorded alongside the other
/// scratch), then shared immutably across bands — steady-state frames
/// never touch the heap for it.
#[derive(Debug, Clone)]
pub(crate) struct SwarKernel {
    /// Channel-truncation mask replicated across the four 16-bit lanes
    /// (`(0xFF >> chan_shift) << chan_shift` per lane).
    chan_mask: u64,
    /// `lsq[i] = ((i − 256) · 100/255)²` in f64 — the L channel term of
    /// `dc2`, indexed by a biased lane value. Matches the scalar
    /// `dl * dl` rounding exactly (same two-operation f64 evaluation).
    lsq: Vec<f64>,
    /// `isq[i] = (i − 256)²` as f64 — the a/b channel terms. Exact
    /// integers (≤ 255² < 2⁵³), so identical to the scalar `da * da`.
    isq: Vec<f64>,
    /// `vb[c]` = smallest non-negative f64 `V` with
    /// `encode(sqrt(V)) ≥ c`. `vb[0]` is 0.0; the table is sorted.
    vb: Vec<f64>,
    /// Eq. 5 spatial weight `m²/S²`, bit-identical to the scalar
    /// kernel's f64 copy.
    m2_over_s2: f64,
}

impl SwarKernel {
    /// Builds the lane mask, squared-delta LUTs, and the code-threshold
    /// table from the session's scalar quantized kernel. The threshold
    /// for each code is found by binary search over f64 bit patterns
    /// (monotone-isomorphic to non-negative f64 ordering) with the
    /// scalar `encode(sqrt(V))` as the oracle, so every comparison the
    /// SWAR kernel makes reproduces a scalar comparison exactly.
    pub(crate) fn new(qk: &QuantKernel) -> SwarKernel {
        const L_SCALE: f64 = 100.0 / 255.0;
        let shift = qk.chan_shift();
        let lane = (0xFFu64 >> shift) << shift;
        let lsq: Vec<f64> = (0..512)
            .map(|i| {
                let d = (i - 256) as f64 * L_SCALE;
                d * d
            })
            .collect();
        let isq: Vec<f64> = (0..512)
            .map(|i| {
                let d = (i - 256) as f64;
                d * d
            })
            .collect();

        let q = qk.quantizer();
        let code_of = |bits: u64| q.encode(f64::from_bits(bits).sqrt());
        let max_code = q.max_code();
        let mut vb = Vec::with_capacity(max_code as usize + 1);
        vb.push(0.0f64);
        let mut prev = 0u64; // bit pattern of vb[c - 1]
        for c in 1..=max_code {
            if code_of(prev) >= c {
                // The previous threshold already reaches this code (codes
                // can be skipped when the quantizer step is coarse).
                vb.push(f64::from_bits(prev));
                continue;
            }
            // Invariant: code_of(lo) < c ≤ code_of(hi); the least
            // satisfying bit pattern is found in ≤ 64 oracle calls.
            let mut lo = prev;
            let mut hi = f64::INFINITY.to_bits();
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if code_of(mid) >= c {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            vb.push(f64::from_bits(hi));
            prev = hi;
        }

        SwarKernel {
            chan_mask: lane * LANE_ONES,
            lsq,
            isq,
            vb,
            m2_over_s2: qk.m2_over_s2(),
        }
    }

    /// The threshold a future candidate must beat after a candidate with
    /// value `v` became the current best: `vb[encode(sqrt(v))]`. A later
    /// candidate `v'` wins under the scalar rule (`code' < code`) exactly
    /// when `v' < vb[code]`, because `encode(sqrt(·))` is monotone.
    #[inline]
    fn beat_threshold(&self, v: f64) -> f64 {
        let code = self.vb[1..].partition_point(|&b| b <= v);
        self.vb[code]
    }

    /// The SWAR replacement of the scalar per-band assign loop: walks
    /// each grid-cell run of each row (pixels of one run share their
    /// 9-candidate set), gathers subset-surviving pixels four at a time
    /// into SWAR lanes, and writes the per-pixel argmin labels into the
    /// band stripe. Pixels skipped by subset filtering or preemption keep
    /// their stripe value, exactly like the scalar loop. Returns the
    /// number of pixels assigned (the scalar loop's `assigned` counter).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assign_rows(
        &self,
        grid: &SeedGrid,
        lab8: &Lab8Image,
        codes: &[ClusterCodes],
        active: &[bool],
        partition: Option<(&SubsetPartition, u32)>,
        preempting: bool,
        rows: Range<usize>,
        stripe: &mut [u32],
    ) -> u64 {
        let w = grid.width();
        let h = grid.height();
        let cols = grid.cols();
        let grows = grid.rows();
        let mut assigned = 0u64;
        for y in rows.clone() {
            let cy = (y * grows / h).min(grows - 1);
            let row_off = (y - rows.start) * w;
            let srow = &mut stripe[row_off..row_off + w];
            let lrow = lab8.l.row(y);
            let arow = lab8.a.row(y);
            let brow = lab8.b.row(y);
            for cx in 0..cols {
                // The run of columns mapping to grid cell `cx`:
                // `x * cols / w == cx` ⇔ `x ∈ [⌈cx·w/cols⌉, ⌈(cx+1)·w/cols⌉)`.
                let x0 = (cx * w + cols - 1) / cols;
                let x1 = ((cx + 1) * w + cols - 1) / cols;
                if x0 >= x1 {
                    continue;
                }
                let nine = grid.nine_neighbors_of_cell(cx, cy);
                // Preemption: the whole run shares one candidate set, so
                // one all-frozen check replaces the per-pixel checks.
                if preempting && nine.iter().all(|&k| !active[k]) {
                    continue;
                }
                let mut gx = [0usize; LANES];
                let mut n = 0usize;
                for x in x0..x1 {
                    if let Some((part, s)) = partition {
                        if part.subset_of(x, y) != s {
                            continue;
                        }
                    }
                    gx[n] = x;
                    n += 1;
                    if n == LANES {
                        self.scan_group(lrow, arow, brow, &gx, n, y, &nine, codes, srow);
                        assigned += LANES as u64;
                        n = 0;
                    }
                }
                if n > 0 {
                    self.scan_group(lrow, arow, brow, &gx, n, y, &nine, codes, srow);
                    assigned += n as u64;
                }
            }
        }
        assigned
    }

    /// Scans the 9 candidates for up to four gathered pixels at once.
    /// Lanes `n..LANES` of a partial group hold stale packs and are never
    /// read back. The per-lane comparison replays the scalar first-wins
    /// strict-`<` argmin through the code-threshold table.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn scan_group(
        &self,
        lrow: &[u8],
        arow: &[u8],
        brow: &[u8],
        gx: &[usize; LANES],
        n: usize,
        y: usize,
        nine: &[usize; 9],
        codes: &[ClusterCodes],
        srow: &mut [u32],
    ) {
        let mut lb = [0u8; LANES];
        let mut ab = [0u8; LANES];
        let mut bb = [0u8; LANES];
        for j in 0..n {
            lb[j] = lrow[gx[j]];
            ab[j] = arow[gx[j]];
            bb[j] = brow[gx[j]];
        }
        // Channel truncation for all four pixels at once: the scalar
        // `(code >> s) << s` is the same bit-clear as `code & mask`, and
        // the AND never crosses lane boundaries.
        let pl = pack4(lb) & self.chan_mask;
        let pa = pack4(ab) & self.chan_mask;
        let pb = pack4(bb) & self.chan_mask;
        let mut best = [0u32; LANES];
        let mut thresh = [0f64; LANES];
        for (i, &k) in nine.iter().enumerate() {
            let c = &codes[k];
            // Center codes are truncated 8-bit values, so `as u8` is
            // lossless here.
            let dl = biased_deltas(pl, c.l as u8);
            let da = biased_deltas(pa, c.a as u8);
            let db = biased_deltas(pb, c.b as u8);
            let dy = (y as i32 - c.y) as f64;
            let dy2 = dy * dy;
            for j in 0..n {
                let sh = 16 * j as u32;
                let il = ((dl >> sh) & 0xFFFF) as usize;
                let ia = ((da >> sh) & 0xFFFF) as usize;
                let ib = ((db >> sh) & 0xFFFF) as usize;
                // Identical f64 evaluation order to the scalar
                // `dist_code`: (dl² + da²) + db², dx² + dy², then
                // dc2 + m²/S² · ds2.
                let dc2 = self.lsq[il] + self.isq[ia] + self.isq[ib];
                let dx = (gx[j] as i32 - c.x) as f64;
                let ds2 = dx * dx + dy2;
                let v = dc2 + self.m2_over_s2 * ds2;
                if i == 0 || v < thresh[j] {
                    best[j] = k as u32;
                    thresh[j] = self.beat_threshold(v);
                }
            }
        }
        for j in 0..n {
            srow[gx[j]] = best[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_default_is_auto() {
        assert_eq!(Kernel::default(), Kernel::Auto);
    }

    #[test]
    fn kernel_parses_canonical_names() {
        assert_eq!("auto".parse::<Kernel>(), Ok(Kernel::Auto));
        assert_eq!("scalar".parse::<Kernel>(), Ok(Kernel::Scalar));
        assert_eq!("swar".parse::<Kernel>(), Ok(Kernel::Swar));
    }

    #[test]
    fn kernel_rejects_unknown_and_non_canonical_names() {
        for s in ["", "Swar", "SCALAR", "simd", "auto ", "fast"] {
            assert_eq!(s.parse::<Kernel>(), Err(ParamError::UnknownKernel), "{s:?}");
        }
    }

    #[test]
    fn kernel_display_round_trips() {
        for k in [Kernel::Auto, Kernel::Scalar, Kernel::Swar] {
            assert_eq!(k.to_string().parse::<Kernel>(), Ok(k));
        }
    }

    #[test]
    fn resolution_rules() {
        assert_eq!(Kernel::Auto.resolve(true), Kernel::Swar);
        assert_eq!(Kernel::Auto.resolve(false), Kernel::Scalar);
        assert_eq!(Kernel::Swar.resolve(true), Kernel::Swar);
        assert_eq!(Kernel::Swar.resolve(false), Kernel::Scalar);
        assert_eq!(Kernel::Scalar.resolve(true), Kernel::Scalar);
        assert_eq!(Kernel::Scalar.resolve(false), Kernel::Scalar);
    }

    #[test]
    fn pack4_places_each_byte_in_its_lane() {
        assert_eq!(pack4([1, 2, 3, 4]), 0x0004_0003_0002_0001);
        assert_eq!(pack4([255; 4]), 0x00FF_00FF_00FF_00FF);
    }

    #[test]
    fn biased_deltas_stay_borrow_free() {
        // Extremes: lane 255 against center 0 → 511; lane 0 against
        // center 255 → 1. No lane disturbs its neighbor.
        let p = pack4([255, 0, 255, 0]);
        let d = biased_deltas(p, 0);
        assert_eq!(d & 0xFFFF, 511);
        assert_eq!((d >> 16) & 0xFFFF, 256);
        let d = biased_deltas(p, 255);
        assert_eq!(d & 0xFFFF, 256);
        assert_eq!((d >> 16) & 0xFFFF, 1);
    }

    #[test]
    fn threshold_table_is_sorted_and_starts_at_zero() {
        let qk = QuantKernel::new(8, 8, 10.0, 20.0);
        let sk = SwarKernel::new(&qk);
        assert_eq!(sk.vb[0], 0.0);
        assert!(sk.vb.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(sk.vb.len(), qk.quantizer().max_code() as usize + 1);
    }

    #[test]
    fn thresholds_replay_the_scalar_code_comparison() {
        // For a sweep of V values, `v < vb[code(best)]` must agree with
        // the scalar `code(v) < code(best)` comparison exactly.
        let qk = QuantKernel::new(8, 8, 10.0, 20.0);
        let sk = SwarKernel::new(&qk);
        let code = |v: f64| qk.quantizer().encode(v.sqrt());
        let mut v = 0.0f64;
        while v < 200_000.0 {
            let c = code(v);
            // beat_threshold(v) is vb[code(v)].
            assert_eq!(sk.beat_threshold(v), sk.vb[c as usize], "v = {v}");
            // A value strictly below the threshold has a strictly
            // smaller code; a value at/above it does not.
            if c > 0 {
                let below = f64::from_bits(sk.vb[c as usize].to_bits() - 1);
                assert!(code(below) < c, "v = {v}");
            }
            assert!(code(sk.vb[c as usize]) >= c, "v = {v}");
            v = v * 1.17 + 0.73;
        }
    }
}
