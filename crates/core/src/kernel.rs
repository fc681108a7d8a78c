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
//! `V = dc2 + m2_over_s2 * ds2` is an f64, and keeps the first candidate
//! with the smallest code. [`SwarKernel`] replicates the scalar `V`
//! computation bit-for-bit via two 512-entry squared-delta LUTs indexed by
//! the biased SWAR lanes, and evaluates all nine candidates for all four
//! lanes before comparing anything — the software form of the paper's D
//! distance ways feeding one 9:1 minimum unit. `encode` is monotone
//! non-decreasing in `V`, so the smallest code is the code of the smallest
//! `V`, and a candidate has that code exactly when its `V` lies below
//! `VB[code + 1]`, where `VB[c]` is the smallest non-negative f64 whose
//! code reaches `c` (`+∞` past the top code). [`SwarKernel`] precomputes
//! that threshold table by binary search over f64 *bit patterns*
//! (order-isomorphic to the non-negative reals) with the scalar quantizer
//! as the oracle. Each pixel then pays one `sqrt`, for the code of its
//! minimum `V`, and its winner is the first candidate whose `V` is below
//! that code's upper threshold — the scalar first-wins strict-`<` argmin
//! over codes.
//!
//! # Dispatch resolution
//!
//! [`Kernel`] is the public selection knob (the params builder, and
//! `--kernel` on the CLI). A session resolves it once, at construction, as
//! a pure function of the request and the configuration's eligibility:
//! `Scalar` always runs the reference loop; `Swar` and `Auto` run the SWAR
//! kernel when the configuration qualifies (quantized distance mode,
//! pixel-perspective algorithm) and fall back to the — bit-identical —
//! scalar loop otherwise.

use std::fmt;
use std::str::FromStr;

use sslic_color::Lab8Image;

use crate::distance::{ClusterCodes, QuantKernel};
use crate::params::ParamError;
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
    /// SLIC).
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

/// Precomputed tables of the SWAR assign kernel. Built once, at session
/// construction, when the configuration qualifies, then shared immutably
/// across bands — steady-state frames never touch the heap for it.
#[derive(Debug, Clone)]
pub(crate) struct SwarKernel {
    /// Channel-truncation mask replicated across the four 16-bit lanes
    /// (`(0xFF >> chan_shift) << chan_shift` per lane).
    chan_mask: u64,
    /// `lsq[i] = ((i − 256) · 100/255)²` in f64 — the L channel term of
    /// `dc2`, indexed by a biased lane value. Matches the scalar
    /// `dl * dl` rounding exactly (same two-operation f64 evaluation).
    /// A fixed-size array, so the `& 511` lane index needs no bounds
    /// check.
    lsq: Box<[f64; 512]>,
    /// `isq[i] = (i − 256)²` as f64 — the a/b channel terms. Exact
    /// integers (≤ 255² < 2⁵³), so identical to the scalar `da * da`.
    isq: Box<[f64; 512]>,
    /// `vb[c]` = smallest non-negative f64 `V` with
    /// `encode(sqrt(V)) ≥ c`, for every code `c ≤ max_code`, then `+∞`
    /// (no `V` reaches `max_code + 1`). `vb[0]` is 0.0; the table is
    /// sorted.
    vb: Vec<f64>,
    /// `1 / step` of the distance quantizer: `sqrt(V) · inv_step`
    /// rounds to within one code of `encode(sqrt(V))`.
    inv_step: f64,
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
        let lsq = Box::new(std::array::from_fn(|i| {
            let d = (i as f64 - 256.0) * L_SCALE;
            d * d
        }));
        let isq = Box::new(std::array::from_fn(|i| {
            let d = i as f64 - 256.0;
            d * d
        }));

        let q = qk.quantizer();
        let code_of = |bits: u64| q.encode(f64::from_bits(bits).sqrt());
        let max_code = q.max_code();
        let mut vb = Vec::with_capacity(max_code as usize + 2);
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
        vb.push(f64::INFINITY);

        SwarKernel {
            chan_mask: lane * LANE_ONES,
            lsq,
            isq,
            vb,
            inv_step: 1.0 / q.step(),
            m2_over_s2: qk.m2_over_s2(),
        }
    }

    /// The distance code of `v`, `encode(sqrt(v))`: the largest `c` with
    /// `vb[c] ≤ v`. The rounded guess `sqrt(v) · inv_step` is within one
    /// code of it, so one step against the table lands on it exactly.
    #[inline]
    fn code(&self, v: f64) -> usize {
        let max = self.vb.len() - 2;
        let guess = ((v.sqrt() * self.inv_step + 0.5) as usize).min(max);
        if self.vb[guess + 1] <= v {
            guess + 1
        } else if self.vb[guess] > v {
            guess - 1
        } else {
            guess
        }
    }

    /// Phase 2 of [`Self::scan_group`]: each lane's winning candidate
    /// index, given every candidate's `V` and the lane minimum. The
    /// smallest code among the nine is `code(vmin)`, and a candidate has
    /// it exactly when its `V` is below `t = vb[code(vmin) + 1]` (`+∞` at
    /// the top code), so the first such candidate is the scalar
    /// first-wins strict-`<` argmin over codes. The minimum itself is
    /// below `t`: when none of candidates 0–7 is, candidate 8 is, so the
    /// walk down from it is a select per candidate, with no data-dependent
    /// branch.
    #[inline]
    fn resolve(&self, vs: &[[f64; LANES]; 9], vmin: &[f64; LANES]) -> [usize; LANES] {
        let t: [f64; LANES] = std::array::from_fn(|j| self.vb[self.code(vmin[j]) + 1]);
        let mut win = [8usize; LANES];
        for i in (0..8).rev() {
            for j in 0..LANES {
                if vs[i][j] < t[j] {
                    win[j] = i;
                }
            }
        }
        win
    }

    /// The SWAR replacement of the scalar assign loop over one row `y`,
    /// whose subset members are `first, first + step, …`: one cursor over
    /// the members, carried across the row's grid-cell runs. The pixels of
    /// one run share their 9-candidate set and are gathered four at a
    /// time into SWAR lanes, and the per-pixel argmin labels go into
    /// `srow`, the row of the band stripe. Pixels outside the subset or
    /// skipped by preemption keep their stripe value, exactly like the
    /// scalar loop. Returns the number of pixels assigned (the scalar
    /// loop's `assigned` counter).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assign_row(
        &self,
        grid: &SeedGrid,
        lab8: &Lab8Image,
        codes: &[ClusterCodes],
        active: &[bool],
        preempting: bool,
        y: usize,
        (first, step): (usize, usize),
        srow: &mut [u32],
    ) -> u64 {
        let w = grid.width();
        let cols = grid.cols();
        let grows = grid.rows();
        let cy = (y * grows / grid.height()).min(grows - 1);
        let lrow = lab8.l.row(y);
        let arow = lab8.a.row(y);
        let brow = lab8.b.row(y);
        let mut assigned = 0u64;
        // The cursor: the row's next subset member.
        let mut x = first;
        for cx in 0..cols {
            // Grid cell `cx` covers the columns with
            // `x * cols / w == cx`, which end at `⌈(cx+1)·w/cols⌉`;
            // the cursor enters each run at its first member.
            let x1 = ((cx + 1) * w + cols - 1) / cols;
            if x >= x1 {
                continue;
            }
            let nine = grid.nine_neighbors_of_cell(cx, cy);
            // Preemption: the whole run shares one candidate set, so
            // one all-frozen check replaces the per-pixel checks.
            if preempting && nine.iter().all(|&k| !active[k]) {
                while x < x1 {
                    x += step;
                }
                continue;
            }
            let mut gx = [0usize; LANES];
            while x < x1 {
                let mut n = 0usize;
                while n < LANES && x < x1 {
                    gx[n] = x;
                    n += 1;
                    x += step;
                }
                self.scan_group(lrow, arow, brow, &gx, n, y, &nine, codes, srow);
                assigned += n as u64;
            }
        }
        assigned
    }

    /// Scans the 9 candidates for up to four gathered pixels at once, in
    /// two phases. Phase 1 evaluates `V` for all nine candidates in all
    /// four lanes, with no branch, and keeps each lane's minimum; lanes
    /// `n..LANES` of a partial group hold stale packs and are computed
    /// but never read back. Phase 2 ([`Self::resolve`]) turns each lane's
    /// minimum into one code threshold and picks the first candidate
    /// below it.
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
        let mut vs = [[0f64; LANES]; 9];
        let mut vmin = [f64::INFINITY; LANES];
        for (i, &k) in nine.iter().enumerate() {
            let c = &codes[k];
            // Center codes are truncated 8-bit values, so `as u8` is
            // lossless here.
            let dl = biased_deltas(pl, c.l as u8);
            let da = biased_deltas(pa, c.a as u8);
            let db = biased_deltas(pb, c.b as u8);
            let dy = (y as i32 - c.y) as f64;
            let dy2 = dy * dy;
            for j in 0..LANES {
                // Biased lanes lie in [1, 511], so `& 511` keeps them
                // unchanged and proves the table index in range.
                let sh = 16 * j as u32;
                let il = ((dl >> sh) & 511) as usize;
                let ia = ((da >> sh) & 511) as usize;
                let ib = ((db >> sh) & 511) as usize;
                // Identical f64 evaluation order to the scalar
                // `dist_code`: (dl² + da²) + db², dx² + dy², then
                // dc2 + m²/S² · ds2.
                let dc2 = self.lsq[il] + self.isq[ia] + self.isq[ib];
                let dx = (gx[j] as i32 - c.x) as f64;
                let ds2 = dx * dx + dy2;
                let v = dc2 + self.m2_over_s2 * ds2;
                vs[i][j] = v;
                vmin[j] = if v < vmin[j] { v } else { vmin[j] };
            }
        }
        let win = self.resolve(&vs, &vmin);
        for j in 0..n {
            srow[gx[j]] = nine[win[j]] as u32;
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

    /// The (m, S) pairs the table tests sweep: the paper default, small
    /// and large spatial weights, a non-integer S, and a large grid step.
    const M_S: [(f32, f32); 5] = [
        (10.0, 20.0),
        (1.0, 4.0),
        (40.0, 8.0),
        (10.0, 39.19),
        (25.0, 60.0),
    ];

    #[test]
    fn threshold_table_is_sorted_and_starts_at_zero() {
        let qk = QuantKernel::new(8, 8, 10.0, 20.0);
        let sk = SwarKernel::new(&qk);
        assert_eq!(sk.vb[0], 0.0);
        assert!(sk.vb.windows(2).all(|w| w[0] <= w[1]));
        // One threshold per code, then the +∞ that no V reaches.
        assert_eq!(sk.vb.len(), qk.quantizer().max_code() as usize + 2);
        assert_eq!(sk.vb.last(), Some(&f64::INFINITY));
    }

    #[test]
    fn thresholds_replay_the_scalar_code_comparison() {
        // For a sweep of V values, the code helper must equal the scalar
        // `encode(sqrt(v))`, and `vb` must bracket it: `v' < vb[c]`
        // exactly when `code(v') < c`.
        let qk = QuantKernel::new(8, 8, 10.0, 20.0);
        let sk = SwarKernel::new(&qk);
        let code = |v: f64| qk.quantizer().encode(v.sqrt());
        let mut v = 0.0f64;
        while v < 200_000.0 {
            let c = code(v);
            assert_eq!(sk.code(v), c as usize, "v = {v}");
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

    #[test]
    fn direct_threshold_equals_the_table_search_at_every_boundary() {
        // The binary search the direct index replaced is the oracle: for
        // every table entry, the f64 patterns either side of it, 0 and
        // f64::MAX, the direct index plus its one fix-up step must pick
        // the same code, starting from a guess at most one code off.
        for distance_bits in 1..=16u8 {
            for channel_bits in [4u8, 8] {
                for (m, s) in M_S {
                    let sk = SwarKernel::new(&QuantKernel::new(channel_bits, distance_bits, m, s));
                    let max = sk.vb.len() - 2;
                    let probes = sk.vb[..=max].iter().flat_map(|b| {
                        let bits = b.to_bits();
                        [bits.saturating_sub(1), bits, bits + 1].map(f64::from_bits)
                    });
                    for v in probes.chain([0.0, f64::MAX]) {
                        let exact = sk.vb[1..=max].partition_point(|&b| b <= v);
                        let at =
                            format!("bits {distance_bits}/{channel_bits}, m {m}, S {s}, v {v:e}");
                        assert_eq!(sk.code(v), exact, "{at}");
                        let guess = ((v.sqrt() * sk.inv_step + 0.5) as usize).min(max);
                        assert!(
                            guess.abs_diff(exact) <= 1,
                            "{at}: guess {guess}, exact {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resolve_replays_the_sequential_scalar_argmin() {
        // Phase 2 against the scalar rule it replaces: walk the nine
        // candidates in order and keep the first one whose code
        // `encode(sqrt(v))` is strictly below the best so far. Columns
        // sit on and either side of the table boundaries (dense ties and
        // values one ulp from a code change), all equal, entirely at the
        // top code (the +∞ threshold), or uniformly random.
        let mut rng = sslic_image::prng::SplitMix64::seed_from_u64(20);
        for distance_bits in 1..=16u8 {
            for (m, s) in M_S {
                let qk = QuantKernel::new(8, distance_bits, m, s);
                let sk = SwarKernel::new(&qk);
                let q = qk.quantizer();
                let max = sk.vb.len() - 2;
                let near = |c: usize, ulps: u64| {
                    let bits = sk.vb[c.min(max)].to_bits();
                    f64::from_bits(match ulps {
                        0 => bits.saturating_sub(1),
                        1 => bits,
                        _ => bits + 1,
                    })
                };
                let mut columns: Vec<[f64; 9]> = Vec::new();
                // On and either side of every boundary, nine codes wide.
                for c in 0..=max {
                    for ulps in 0..3 {
                        columns.push(std::array::from_fn(|i| {
                            near(c + i % 3, (ulps + i as u64) % 3)
                        }));
                        columns.push([near(c, ulps); 9]);
                    }
                }
                // Entirely at the top code, where every candidate ties.
                let top = [sk.vb[max], near(max, 2), sk.vb[max] * 4.0, f64::MAX];
                columns.push(std::array::from_fn(|i| top[i % 4]));
                columns.push([f64::MAX; 9]);
                // Random draws: near a few neighbouring boundaries, so the
                // minimum's code is shared by several candidates, or
                // anywhere up to twice the top threshold.
                for _ in 0..2000 {
                    let base = rng.below(max as u64 + 1) as usize;
                    columns.push(std::array::from_fn(|_| {
                        near(base + rng.below(3) as usize, rng.below(3))
                    }));
                    let span = 2.0 * sk.vb[max].max(1.0);
                    columns.push(std::array::from_fn(|_| rng.next_f64() * span));
                }
                for group in columns.chunks(LANES) {
                    let mut vs = [[0f64; LANES]; 9];
                    let mut vmin = [f64::INFINITY; LANES];
                    for (j, col) in group.iter().enumerate() {
                        for i in 0..9 {
                            vs[i][j] = col[i];
                            vmin[j] = vmin[j].min(col[i]);
                        }
                    }
                    // Lanes beyond a short last group repeat lane 0.
                    for j in group.len()..LANES {
                        for lanes in &mut vs {
                            lanes[j] = lanes[0];
                        }
                        vmin[j] = vmin[0];
                    }
                    let win = sk.resolve(&vs, &vmin);
                    for (j, col) in group.iter().enumerate() {
                        let code = |v: f64| q.encode(v.sqrt());
                        let mut best = 0;
                        for i in 1..9 {
                            if code(col[i]) < code(col[best]) {
                                best = i;
                            }
                        }
                        assert_eq!(
                            win[j], best,
                            "bits {distance_bits}, m {m}, S {s}, column {col:?}"
                        );
                    }
                }
            }
        }
    }
}
