//! Streaming segmentation sessions: persistent per-frame scratch and the
//! zero-allocation steady-state execution engine.
//!
//! A [`SegmenterSession`] is created once from a [`Segmenter`] and a frame
//! geometry. It owns every piece of per-frame working memory — the CIELAB
//! feature planes, the label plane, the per-band label stripes, sigma
//! register files and (SLIC-CPA) distance stripes, the connectivity run
//! table, the cluster slots — plus a persistent [`BandPool`] of parked
//! workers. Each
//! [`SegmenterSession::run`] call segments one frame by *reusing* that
//! memory: after the first (cold) frame, a steady-state frame performs zero
//! heap allocations at any thread count (pinned by `tests/zero_alloc.rs` at
//! the workspace root).
//!
//! The one-shot [`Segmenter::run`] is itself a thin wrapper that builds a
//! transient session and runs a single frame through it, so session output
//! is bit-identical to one-shot output **by construction** — there is only
//! one execution engine. Determinism across thread counts is inherited
//! from the banded execution model (see [`crate::parallel`] and
//! DESIGN.md §5d/§5f): band layout, per-band partials, and ascending-band
//! folds never depend on the worker count.
//!
//! Shared state crosses the worker boundary as `Arc`s inside a per-dispatch
//! [`FrameCtx`] command; workers drop their command clones before signaling
//! the dispatch barrier, so the session's `Arc::make_mut` calls at the
//! serial sync points always find a unique reference and mutate in place
//! (copy-on-write never actually copies on the steady-state path).

use std::ops::Range;
use std::sync::Arc;

use sslic_color::{float, hw::HwColorConverter, lab8, Lab8Image, LabImage};
use sslic_image::Plane;
use sslic_obs::{LogicalClock, Recorder, Value};

use crate::cluster::{init_clusters, init_clusters_from_codes, Cluster};
use crate::connectivity::{enforce_connectivity_with, ConnScratch};
use crate::distance::{dist2_float, ClusterCodes, DistanceMode, QuantKernel};
use crate::engine::{
    Algorithm, RunOptions, Segmentation, SegmentationStatus, SegmentRequest, Segmenter, StepFaults,
};
use crate::instrument::RunCounters;
use crate::kernel::{Kernel, SwarKernel};
use crate::parallel::BandPool;
use crate::profile::{Phase, PhaseBreakdown};
use crate::recovery::{
    center_checksum, GuardVerdict, RecoveryAction, RecoveryOutcome, RecoveryReport,
};
use crate::subsample::{SubsetPartition, SubsetStrategy};
use crate::SeedGrid;

/// Fixed bucket boundaries of the per-band assigned-pixel histogram
/// (`core.band.pixels`): powers of four from 256 to 64k pixels.
const BAND_PIXEL_BOUNDS: [u64; 5] = [1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16];

/// The connectivity pass absorbs components smaller than `S² / 4`, the
/// SLIC reference implementation's minimum segment size.
const MIN_REGION_DIVISOR: f32 = 4.0;

/// Why a segmentation request could not run. Returned by the fallible
/// entry point [`SegmenterSession::try_run`]; the panicking twins raise the
/// same conditions as panics carrying the [`std::fmt::Display`] message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SegmentError {
    /// The frame has a zero-sized dimension; there is nothing to segment
    /// (and no valid seed grid).
    EmptyFrame {
        /// Requested frame width.
        width: usize,
        /// Requested frame height.
        height: usize,
    },
    /// The request's frame does not match the geometry this session's
    /// scratch was sized for. Sessions are fixed-geometry: build a new
    /// session to change resolution.
    GeometryMismatch {
        /// `(width, height)` the session was built for.
        expected: (usize, usize),
        /// `(width, height)` actually supplied.
        actual: (usize, usize),
    },
    /// A warm start carried the wrong number of clusters for this frame's
    /// realized seed grid, which would invalidate the static
    /// 9-neighborhood tiling.
    WarmStartLen {
        /// `SeedGrid::cluster_count` of the realized grid.
        expected: usize,
        /// Length of the supplied warm-start slice.
        actual: usize,
    },
    /// A session-fleet operation was refused (saturated pool, full
    /// admission queue, or invalid fleet sizing); see
    /// [`FleetError`](crate::FleetError) for the exact condition.
    Fleet(crate::fleet::FleetError),
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::EmptyFrame { width, height } => {
                write!(f, "cannot segment an empty {width}x{height} frame")
            }
            SegmentError::GeometryMismatch { expected, actual } => write!(
                f,
                "session scratch is sized for {}x{} frames, got {}x{}",
                expected.0, expected.1, actual.0, actual.1
            ),
            SegmentError::WarmStartLen { expected, actual } => {
                write!(f, "warm start must carry {expected} clusters, got {actual}")
            }
            SegmentError::Fleet(e) => write!(f, "fleet: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// Funnels a [`SegmentError`] into a panic with the same message the
/// fallible API reports, for the panicking convenience wrappers.
pub(crate) fn raise(error: SegmentError) -> ! {
    assert!(false, "{error}");
    unreachable!()
}

/// Per-frame result metadata: everything [`Segmentation`] carries except
/// the label map and cluster centers, which live in (or are borrowed from)
/// the session's reusable buffers.
#[derive(Debug, Clone)]
pub struct FrameReport {
    pub(crate) iterations_run: u32,
    pub(crate) breakdown: PhaseBreakdown,
    pub(crate) counters: RunCounters,
    pub(crate) spacing: f32,
    pub(crate) frozen_clusters: usize,
    pub(crate) status: SegmentationStatus,
    pub(crate) repairs: u64,
    pub(crate) recovery: RecoveryReport,
    pub(crate) kernel: Kernel,
}

impl FrameReport {
    /// Center-update steps actually executed this frame.
    pub fn iterations_run(&self) -> u32 {
        self.iterations_run
    }

    /// Wall-clock time per pipeline phase for this frame.
    pub fn breakdown(&self) -> &PhaseBreakdown {
        &self.breakdown
    }

    /// Recorded event counts for this frame.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// Grid spacing `S` of the session geometry.
    pub fn spacing(&self) -> f32 {
        self.spacing
    }

    /// Clusters frozen by Preemptive-SLIC halting at frame end.
    pub fn frozen_clusters(&self) -> usize {
        self.frozen_clusters
    }

    /// Health of the frame (see [`SegmentationStatus`]).
    pub fn status(&self) -> SegmentationStatus {
        self.status
    }

    /// Invariant repairs applied this frame (0 on fault-free frames).
    pub fn invariant_repairs(&self) -> u64 {
        self.repairs
    }

    /// Per-frame recovery record: guard firings, retries, escalations,
    /// outcome, and the final center-table checksum — populated whether
    /// or not a [`crate::RecoveryPolicy`] is active (without one, a
    /// guard failure reports outcome `Failed` with zero retries).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The assign-kernel backend that actually ran this frame:
    /// [`Kernel::Swar`] or [`Kernel::Scalar`], never [`Kernel::Auto`].
    /// Informational only — every backend is bit-identical.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }
}

/// A frame's pixel colours as the engine reads them. Float sessions keep
/// an `f32` Lab plane; quantized sessions keep only the 8-bit codes and
/// read each `f32` value through [`lab8::DECODED`], which reproduces the
/// decoded plane bit for bit. A float session fed a
/// [`SegmentRequest::Lab8`] frame reads that frame's codes the same way.
#[derive(Clone)]
enum Pixels {
    Plane(Arc<LabImage>),
    Codes(Arc<Lab8Image>),
}

impl Pixels {
    /// The `[L, a, b]` of pixel `(x, y)`.
    #[inline]
    fn lab(&self, x: usize, y: usize) -> [f32; 3] {
        match self {
            Pixels::Plane(lab) => lab.pixel(x, y),
            Pixels::Codes(lab8) => lab8::decode_f32(lab8.pixel(x, y)),
        }
    }

    /// Adds row `y`'s subset members `first, first + step, …` to `sigma`,
    /// each under its label in `labels` (the row's labels). Returns the
    /// member count.
    fn sum_row(
        &self,
        sigma: &mut [[f64; 6]],
        labels: &[u32],
        y: usize,
        (first, step): (usize, usize),
    ) -> u64 {
        match self {
            Pixels::Plane(lab) => {
                let [l, a, b] = [&lab.l, &lab.a, &lab.b].map(|p| p.row(y));
                sum_members(sigma, labels, y, first, step, |x| [l[x], a[x], b[x]])
            }
            Pixels::Codes(lab8) => {
                let [l, a, b] = [&lab8.l, &lab8.a, &lab8.b].map(|p| p.row(y));
                sum_members(sigma, labels, y, first, step, |x| {
                    lab8::decode_f32([l[x], a[x], b[x]])
                })
            }
        }
    }
}

/// The center-update sums of one row: adds the members `first, first +
/// step, …` of row `y` to `sigma[labels[x]]` in ascending x. Bands sum
/// their rows in ascending order and the session folds the bands in
/// ascending order, so every cluster's f64 sums group the same way at any
/// thread count. Returns the member count.
#[inline(always)]
fn sum_members(
    sigma: &mut [[f64; 6]],
    labels: &[u32],
    y: usize,
    first: usize,
    step: usize,
    lab: impl Fn(usize) -> [f32; 3],
) -> u64 {
    let mut members = 0u64;
    for x in (first..labels.len()).step_by(step) {
        let [l, a, b] = lab(x);
        let acc = &mut sigma[labels[x] as usize];
        acc[0] += l as f64;
        acc[1] += a as f64;
        acc[2] += b as f64;
        acc[3] += x as f64;
        acc[4] += y as f64;
        acc[5] += 1.0;
        members += 1;
    }
    members
}

/// One dispatch to the band pool: the step's subset and everything a band
/// worker reads, shared by `Arc`. Cloning a `FrameCtx` bumps reference
/// counts and copies plain scalars — it never touches the heap. Workers
/// drop their clone before signaling completion, restoring unique
/// ownership to the session.
#[derive(Clone)]
struct FrameCtx {
    grid: SeedGrid,
    pixels: Pixels,
    clusters: Arc<Vec<Cluster>>,
    codes: Arc<Vec<ClusterCodes>>,
    active: Arc<Vec<bool>>,
    partition: Arc<SubsetPartition>,
    kernel: Option<QuantKernel>,
    /// `Some` exactly when the session runs [`Kernel::Swar`]: the shared
    /// SWAR tables the band workers scan with.
    swar: Option<Arc<SwarKernel>>,
    m2_over_s2: f32,
    /// SLIC-CPA: every band runs the window scan ([`scan_band`]) instead
    /// of pixel-perspective assignment ([`assign_band`]).
    window_scan: bool,
    /// The subset this step assigns and sums.
    subset: u32,
    /// Preemption is on: PPA skips pixels whose nine candidates are all
    /// frozen. (CPA never scans a frozen cluster's window.)
    preempting: bool,
}

/// Pre-allocated per-band output slot, reused across every dispatch of
/// the session: the band's label stripe (it holds the band's labels for a
/// whole attempt), SLIC-CPA's distance stripe (empty in PPA sessions), the
/// band's private sigma register file, and its counter partials, one for
/// the assignment and one for the sums.
struct BandSlot {
    stripe: Vec<u32>,
    dist: Vec<f32>,
    sigma: Vec<[f64; 6]>,
    assign: RunCounters,
    update: RunCounters,
}

/// Borrowed distance-datapath view over a [`FrameCtx`]: the scalar
/// `distance` logic shared by both band kernels.
struct DistCtx<'a> {
    pixels: &'a Pixels,
    clusters: &'a [Cluster],
    codes: &'a [ClusterCodes],
    kernel: Option<&'a QuantKernel>,
    m2_over_s2: f32,
}

impl<'a> DistCtx<'a> {
    fn of(ctx: &'a FrameCtx) -> Self {
        DistCtx {
            pixels: &ctx.pixels,
            clusters: &ctx.clusters,
            codes: &ctx.codes,
            kernel: ctx.kernel.as_ref(),
            m2_over_s2: ctx.m2_over_s2,
        }
    }

    /// Distance between pixel `(x, y)` and cluster `k`, in whichever
    /// numeric mode is active. Returned values are only compared against
    /// each other within one pixel's candidate set.
    #[inline]
    fn distance(&self, x: usize, y: usize, k: usize) -> f32 {
        match (self.kernel, self.pixels) {
            (Some(kernel), Pixels::Codes(lab8)) => {
                let px = lab8.pixel(x, y);
                kernel.dist_code(px, (x as i32, y as i32), &self.codes[k]) as f32
            }
            _ => dist2_float(
                self.pixels.lab(x, y),
                (x as f32, y as f32),
                &self.clusters[k],
                self.m2_over_s2,
            ),
        }
    }
}

/// The band-pool kernel: one step's assignment and sums over one band.
fn band_kernel(ctx: &FrameCtx, _band: usize, rows: Range<usize>, slot: &mut BandSlot) {
    if ctx.window_scan {
        scan_band(ctx, rows, slot);
    } else {
        assign_band(ctx, rows, slot);
    }
}

/// One band of PPA assignment over `rows`: writes the band's label stripe
/// and, row by row, sums the subset into the slot's sigma registers, so
/// one dispatch does the paper's whole Cluster Update Unit pass. Each row
/// visits only the subset's columns ([`SubsetPartition::row_members`];
/// every column of a one-subset partition) and is assigned by the SWAR
/// kernel or the scalar loop. Skipped pixels (outside the subset, or with
/// an all-frozen neighborhood) keep their stripe label, and a skipped
/// subset member is summed under that label.
fn assign_band(ctx: &FrameCtx, rows: Range<usize>, slot: &mut BandSlot) {
    let (subset, preempting) = (ctx.subset, ctx.preempting);
    let w = ctx.grid.width();
    // The SWAR fixed-point kernel: bit-identical labels (the lane scan
    // replays every scalar comparison — see `crate::kernel`), identical
    // counters, identical stripe semantics for skipped pixels.
    let swar = match (ctx.swar.as_deref(), &ctx.pixels) {
        (Some(swar), Pixels::Codes(lab8)) => Some((swar, &**lab8)),
        _ => None,
    };
    let dist = DistCtx::of(ctx);
    for acc in slot.sigma.iter_mut() {
        *acc = [0.0; 6];
    }
    let mut assigned = 0u64;
    let mut summed = 0u64;
    for y in rows.clone() {
        let Some(members) = ctx.partition.row_members(y, subset) else {
            continue;
        };
        let srow = &mut slot.stripe[(y - rows.start) * w..(y - rows.start + 1) * w];
        if let Some((swar, lab8)) = swar {
            assigned += swar.assign_row(
                &ctx.grid,
                lab8,
                &ctx.codes,
                &ctx.active,
                preempting,
                y,
                members,
                srow,
            );
        } else {
            let (first, step) = members;
            for x in (first..w).step_by(step) {
                let nine = ctx.grid.nine_neighbors_of_pixel(x, y);
                // Preemption: if every candidate is frozen, the pixel's
                // assignment cannot change — skip the 9 distances.
                if preempting && nine.iter().all(|&k| !ctx.active[k]) {
                    continue;
                }
                let mut best = nine[0];
                let mut best_d = dist.distance(x, y, nine[0]);
                for &k in &nine[1..] {
                    let d = dist.distance(x, y, k);
                    if d < best_d {
                        best_d = d;
                        best = k;
                    }
                }
                srow[x] = best as u32;
                assigned += 1;
            }
        }
        summed += ctx.pixels.sum_row(&mut slot.sigma, srow, y, members);
    }
    slot.assign = RunCounters {
        pixel_color_reads: assigned,
        distance_calcs: assigned * 9,
        label_writes: assigned,
        ..RunCounters::default()
    };
    slot.update = sum_counters(summed);
}

/// One band of SLIC-CPA over `rows`: every active cluster, in ascending
/// `k`, scans the rows of its `2S×2S` window that fall in the band against
/// the band's distance stripe, then the band sums its rows into its sigma
/// partial as PPA bands do. A pixel meets exactly the clusters whose
/// window covers its row and column, in ascending `k`, as in a serial
/// whole-frame scan, so its label and distance minimum do not depend on
/// the band layout. Every step starts from `+∞` distances, so no step,
/// attempt or frame reads a distance an earlier one wrote.
fn scan_band(ctx: &FrameCtx, rows: Range<usize>, slot: &mut BandSlot) {
    let w = ctx.grid.width();
    let radius = ctx.grid.spacing().ceil() as isize; // 2S×2S window
    let dist = DistCtx::of(ctx);
    slot.dist.fill(f32::INFINITY);
    for acc in slot.sigma.iter_mut() {
        *acc = [0.0; 6];
    }
    let mut visits = 0u64;
    let mut improvements = 0u64;
    for (k, c) in ctx.clusters.iter().enumerate() {
        if !ctx.active[k] {
            continue; // preempted: this cluster's window no longer scans
        }
        // The window clamped to the frame's columns and the band's rows, in
        // `isize`: a center off the left or top edge clamps to an empty
        // window instead of wrapping to the far edge.
        let cx = c.x.round() as isize;
        let cy = c.y.round() as isize;
        let x0 = cx.saturating_sub(radius).max(0);
        let x1 = cx.saturating_add(radius).min(w as isize - 1);
        let y0 = cy.saturating_sub(radius).max(rows.start as isize);
        let y1 = cy.saturating_add(radius).min(rows.end as isize - 1);
        if x0 > x1 || y0 > y1 {
            continue;
        }
        for y in y0 as usize..=y1 as usize {
            let base = (y - rows.start) * w;
            for x in x0 as usize..=x1 as usize {
                let d = dist.distance(x, y, k);
                visits += 1;
                if d < slot.dist[base + x] {
                    slot.dist[base + x] = d;
                    slot.stripe[base + x] = k as u32;
                    improvements += 1;
                }
            }
        }
    }
    let mut summed = 0u64;
    for y in rows.clone() {
        if let Some(members) = ctx.partition.row_members(y, ctx.subset) {
            let srow = &slot.stripe[(y - rows.start) * w..(y - rows.start + 1) * w];
            summed += ctx.pixels.sum_row(&mut slot.sigma, srow, y, members);
        }
    }
    slot.assign = RunCounters {
        distance_calcs: visits,
        pixel_color_reads: visits,
        dist_buffer_reads: visits,
        dist_buffer_writes: improvements,
        label_writes: improvements,
        ..RunCounters::default()
    };
    slot.update = sum_counters(summed);
}

/// The counters of summing `pixels` subset members: the modeled software
/// traffic of a center-update pass, which reads each member's label and
/// colour and updates one sigma register file entry.
fn sum_counters(pixels: u64) -> RunCounters {
    RunCounters {
        label_reads: pixels,
        pixel_color_reads: pixels,
        sigma_updates: pixels,
        ..RunCounters::default()
    }
}

/// How one attempt of a frame resolves its initial centers.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AttemptInit {
    /// Attempt 0: explicit warm start, recycled session state, or cold
    /// grid seeding — as the caller requested.
    AsRequested,
    /// Retry: restore the last-known-good center checkpoint.
    Rollback,
    /// Escalated retry: discard all warm state and re-seed from the grid.
    Cold,
}

/// A persistent streaming segmentation session: a [`Segmenter`]
/// configuration bound to one frame geometry, owning all per-frame working
/// memory and a parked worker pool.
///
/// After the first (cold) frame, segmenting a steady-state frame performs
/// **zero heap allocations** at any thread count, and the output is
/// bit-identical to running [`Segmenter::run`] on the same inputs.
///
/// # Example
///
/// ```
/// use sslic_core::{RunOptions, SegmentRequest, Segmenter, SlicParams};
/// use sslic_image::synthetic::SyntheticImage;
///
/// let seg = Segmenter::sslic_ppa(SlicParams::builder(80).iterations(4).build(), 2);
/// let mut session = seg.session(64, 48);
/// for seed in 0..3 {
///     let img = SyntheticImage::builder(64, 48).seed(seed).regions(5).build();
///     // Frame 0 seeds cold; frames 1 and 2 warm-start from the previous
///     // frame's centers, reusing the scratch established by `session`.
///     session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
///     assert_eq!(session.labels().len(), 64 * 48);
/// }
/// assert_eq!(session.frames(), 3);
/// ```
pub struct SegmenterSession {
    config: Segmenter,
    grid: SeedGrid,
    /// [`SeedGrid::column_cells`]: every home label is written from this
    /// W-entry table, so the session keeps no home-label plane.
    column_cells: Vec<u32>,
    /// The `f32` Lab plane: `Some` exactly in float sessions. Quantized
    /// sessions read their codes through [`lab8::DECODED`] instead.
    lab: Option<Arc<LabImage>>,
    /// The 8-bit codes: a quantized session's pixel features, and a float
    /// session's copy of a [`SegmentRequest::Lab8`] frame.
    lab8: Arc<Lab8Image>,
    /// Float sessions only: the current frame arrived as codes, so the
    /// engine reads them instead of the plane.
    reads_codes: bool,
    /// The frame's label map, assembled from the band stripes at the end
    /// of every attempt.
    labels: Plane<u32>,
    clusters: Arc<Vec<Cluster>>,
    codes: Arc<Vec<ClusterCodes>>,
    active: Arc<Vec<bool>>,
    /// The pixel subsets the sub-iterations walk round-robin: `P` for
    /// S-SLIC, one (every pixel) for SLIC.
    partition: Arc<SubsetPartition>,
    kernel: Option<QuantKernel>,
    /// SWAR assign tables, built at construction only when the params'
    /// kernel resolves to [`Kernel::Swar`] (quantized + pixel-perspective);
    /// `None` means every frame runs the (bit-identical) scalar loop.
    swar: Option<Arc<SwarKernel>>,
    converter: Option<HwColorConverter>,
    conn: ConnScratch,
    pool: BandPool<FrameCtx, BandSlot>,
    fold_sigma: Vec<[f64; 6]>,
    band_counters: Vec<RunCounters>,
    counters: RunCounters,
    m2_over_s2: f32,
    frames: u64,
    /// Last-known-good center table, snapshotted at the serial point
    /// right after attempt 0's Init each frame (post-Init state is always
    /// guard-verified or trusted input). Rollback and frame-failure
    /// restore from here.
    checkpoint: Vec<Cluster>,
    /// [`center_checksum`] of `checkpoint`, for integrity verification at
    /// rollback and the per-frame recovery report.
    checkpoint_sum: u64,
    /// Poisoned bands observed by pool dispatches this attempt.
    poisoned: u64,
    /// Sigma-fold count-conservation mismatch accumulated this attempt.
    sigma_mismatch: u64,
}

impl std::fmt::Debug for SegmenterSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmenterSession")
            .field("width", &self.grid.width())
            .field("height", &self.grid.height())
            .field("algorithm", &self.config.algorithm().name())
            .field("clusters", &self.clusters.len())
            .field("frames", &self.frames)
            .finish_non_exhaustive()
    }
}

impl SegmenterSession {
    /// Builds a session for `width × height` frames, pre-allocating every
    /// per-frame buffer and spawning the worker pool.
    ///
    /// # Errors
    ///
    /// [`SegmentError::EmptyFrame`] if either dimension is zero.
    pub fn try_new(
        config: Segmenter,
        width: usize,
        height: usize,
    ) -> Result<SegmenterSession, SegmentError> {
        if width == 0 || height == 0 {
            return Err(SegmentError::EmptyFrame { width, height });
        }
        let params = *config.params();
        let grid = SeedGrid::new(width, height, params.superpixels());
        let column_cells = grid.column_cells();
        let k = grid.cluster_count();
        let spacing = grid.spacing();
        let m = params.compactness();
        let quantized = config.distance_mode().is_quantized();
        let kernel = match config.distance_mode() {
            DistanceMode::Float => None,
            DistanceMode::Quantized {
                channel_bits,
                distance_bits,
            } => Some(QuantKernel::new(
                channel_bits,
                distance_bits,
                params.compactness(),
                spacing,
            )),
        };
        let (subsets, strategy) = match config.algorithm() {
            Algorithm::SSlicPpa { subsets, strategy } => (subsets, strategy),
            Algorithm::SlicCpa => (1, SubsetStrategy::default()),
        };
        let partition = Arc::new(SubsetPartition::new(width, height, subsets, strategy));
        let window_scan = config.algorithm() == Algorithm::SlicCpa;

        // Every per-frame buffer is established here, once; frames only
        // reset them in place (`tests/zero_alloc.rs` pins that at the
        // real allocator).
        let lab = (!quantized).then(|| Arc::new(LabImage::from_fn(width, height, |_, _| [0.0; 3])));
        let lab8 = Arc::new(Lab8Image::from_fn(width, height, |_, _| [0; 3]));
        let labels = Plane::filled(width, height, 0u32);
        let conn = ConnScratch::new(width, height);
        let clusters = Arc::new(vec![Cluster::default(); k]);
        let codes = Arc::new(Vec::with_capacity(k));
        let active = Arc::new(vec![true; k]);
        let checkpoint = vec![Cluster::default(); k];
        let fold_sigma = vec![[0f64; 6]; k];
        // SWAR assign-kernel tables (squared-delta LUTs + code-threshold
        // table), built only when the params' kernel resolves to SWAR.
        let swar = match &kernel {
            Some(qk) if params.kernel().resolve(!window_scan) == Kernel::Swar => {
                Some(Arc::new(SwarKernel::new(qk)))
            }
            _ => None,
        };
        let pool = BandPool::new(
            params.threads().get(),
            height,
            band_kernel,
            |_, rows: &Range<usize>| {
                let dist_len = if window_scan { rows.len() * width } else { 0 };
                BandSlot {
                    stripe: vec![0u32; rows.len() * width],
                    dist: vec![f32::INFINITY; dist_len],
                    sigma: vec![[0f64; 6]; k],
                    assign: RunCounters::default(),
                    update: RunCounters::default(),
                }
            },
        );
        let band_counters = Vec::with_capacity(pool.band_count());

        Ok(SegmenterSession {
            config,
            grid,
            column_cells,
            lab,
            lab8,
            reads_codes: false,
            labels,
            clusters,
            codes,
            active,
            partition,
            kernel,
            swar,
            converter: quantized.then(HwColorConverter::paper_default),
            conn,
            pool,
            fold_sigma,
            band_counters,
            counters: RunCounters::default(),
            m2_over_s2: (m * m) / (spacing * spacing),
            frames: 0,
            checkpoint,
            checkpoint_sum: 0,
            poisoned: 0,
            sigma_mismatch: 0,
        })
    }

    /// Panicking convenience over [`SegmenterSession::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn new(config: Segmenter, width: usize, height: usize) -> SegmenterSession {
        match SegmenterSession::try_new(config, width, height) {
            Ok(session) => session,
            Err(e) => raise(e),
        }
    }

    /// Frames segmented so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Rewinds the session to its pre-first-frame state: the next frame
    /// seeds cold instead of warm-starting from the previous frame's
    /// centers. The scratch is untouched — no allocation, no geometry
    /// change. Session fleets call this when a freed slot rebinds to a new
    /// stream, so the newcomer never inherits the departed stream's
    /// converged centers; a caller that wants every frame cold, like
    /// [`Segmenter::run`], calls it before each frame.
    pub fn reset(&mut self) {
        self.frames = 0;
    }

    /// The session's configuration.
    pub fn config(&self) -> &Segmenter {
        &self.config
    }

    /// The label map of the most recent frame (all zeros before the
    /// first).
    pub fn labels(&self) -> &Plane<u32> {
        &self.labels
    }

    /// The current cluster centers — after a frame, that frame's converged
    /// centers (the warm-start state the next [`SegmenterSession::run`]
    /// recycles).
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Segments one frame into the session's label plane (readable via
    /// [`SegmenterSession::labels`]). The first frame (and the first
    /// after [`SegmenterSession::reset`]) seeds cold; every later frame
    /// recycles the previous frame's converged centers as a warm start
    /// (unless [`RunOptions::warm_start`] overrides it), and performs zero
    /// heap allocations.
    ///
    /// # Errors
    ///
    /// [`SegmentError::GeometryMismatch`] if the request's frame differs
    /// from the session geometry; [`SegmentError::WarmStartLen`] if an
    /// explicit warm start has the wrong cluster count. A rejected frame
    /// leaves the labels, centers and frame count untouched.
    pub fn try_run(
        &mut self,
        request: SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> Result<FrameReport, SegmentError> {
        self.frame(request, options)
    }

    /// Panicking convenience over [`SegmenterSession::try_run`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn run(&mut self, request: SegmentRequest<'_>, options: &RunOptions<'_>) -> FrameReport {
        match self.try_run(request, options) {
            Ok(report) => report,
            Err(e) => raise(e),
        }
    }

    /// Consumes the session, assembling a full [`Segmentation`] from the
    /// most recent frame's label plane and cluster state. `report` is the
    /// [`FrameReport`] that frame returned; pairing it with any other
    /// frame's report produces a `Segmentation` whose labels and summary
    /// disagree. Backs the one-shot [`Segmenter::run`], and lets streaming
    /// callers hand the final frame of a session to `Segmentation`-based
    /// consumers without a copy.
    pub(crate) fn into_segmentation(self, report: FrameReport) -> Segmentation {
        let SegmenterSession {
            labels, clusters, ..
        } = self;
        // No worker holds a handle after a clean frame barrier, so the
        // unwrap does not copy; a stale handle would cost a copy, not a
        // failure.
        Segmentation::from_parts(labels, Arc::unwrap_or_clone(clusters), report)
    }

    /// Checks a frame against the session before anything runs: the
    /// request must match the session geometry, and an explicit warm start
    /// must carry one cluster per seed of the realized grid. Session fleets
    /// call it before admitting a stream, so a rejected frame binds no slot.
    pub(crate) fn check(
        &self,
        request: &SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> Result<(), SegmentError> {
        let expected = (self.grid.width(), self.grid.height());
        let actual = request_dims(request);
        if actual != expected {
            return Err(SegmentError::GeometryMismatch { expected, actual });
        }
        match options.warm_start {
            Some(warm) if warm.len() != self.grid.cluster_count() => {
                Err(SegmentError::WarmStartLen {
                    expected: self.grid.cluster_count(),
                    actual: warm.len(),
                })
            }
            _ => Ok(()),
        }
    }

    // --- the frame engine --------------------------------------------------

    /// Runs one frame end to end. This is the single execution engine
    /// behind every public entry point (session and one-shot alike).
    fn frame(
        &mut self,
        request: SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> Result<FrameReport, SegmentError> {
        self.check(&request, options)?;
        let params = *self.config.params();
        let recorder = options.recorder;
        let policy = options.recovery;
        let spacing = self.grid.spacing();
        // Every attempt runs the full iteration budget.
        let iterations_run = params.iterations();
        let mut breakdown = PhaseBreakdown::new();

        if let Some(f) = options.faults {
            // Attempt 0 of a new frame: fault adapters re-seed their
            // attempt salt so a recovery-enabled first attempt stays
            // bit-identical to a recovery-free run.
            f.begin_attempt(0);
        }
        self.convert_into(request, options.faults, &mut breakdown);

        // Attempt 0 initial centers: explicit warm start > recycled
        // session state (frames ≥ 1) > cold grid seeding.
        let cold = options.warm_start.is_none() && self.frames == 0;

        // The self-healing attempt loop. Attempt 0 is the ordinary run;
        // each further attempt is a retry whose init the policy chose from
        // the previous attempt's guard verdict — a pure function of
        // (frame, verdict, attempt), so the whole ladder replays
        // bit-identically across thread counts and re-runs. Without a
        // policy the loop body runs exactly once.
        let mut init = AttemptInit::AsRequested;
        let mut attempt: u32 = 0;
        let mut total_guards: u64 = 0;
        let mut escalations: u32 = 0;
        let (last, guard_clean) = loop {
            let verdict = self.run_attempt(options, init, cold, attempt, &mut breakdown);
            total_guards = total_guards.wrapping_add(verdict.guards_fired());
            let action = if verdict.clean() {
                None
            } else {
                policy.map(|p| p.action_for(self.frames, &verdict, attempt))
            };
            match action {
                Some(act @ (RecoveryAction::Rollback | RecoveryAction::ColdRestart)) => {
                    if let Some(rec) = recorder {
                        let clock = LogicalClock::step(iterations_run.saturating_sub(1));
                        rec.span_end(
                            "core.run",
                            clock,
                            vec![
                                ("iterations_run", Value::U64(u64::from(iterations_run))),
                                (
                                    "repairs",
                                    Value::U64(verdict.center_repairs + verdict.label_repairs),
                                ),
                                ("status", Value::from("retrying")),
                            ],
                        );
                        rec.instant(
                            "core.recovery.retry",
                            clock,
                            vec![
                                ("attempt", Value::U64(u64::from(attempt + 1))),
                                ("action", Value::from(act.as_str())),
                                ("guards_fired", Value::U64(verdict.guards_fired())),
                            ],
                        );
                    }
                    init = if act == RecoveryAction::Rollback
                        && center_checksum(&self.checkpoint) == self.checkpoint_sum
                    {
                        AttemptInit::Rollback
                    } else {
                        // ColdRestart — or, defense in depth, a checkpoint
                        // that no longer matches its own checksum.
                        escalations += 1;
                        AttemptInit::Cold
                    };
                    attempt += 1;
                    if let Some(f) = options.faults {
                        f.begin_attempt(attempt);
                    }
                }
                Some(RecoveryAction::FailFrame) => {
                    // Budget exhausted: keep the repaired (valid but
                    // degraded) labels, but restore the last-known-good
                    // centers so the next frame warm-starts clean instead
                    // of propagating corruption.
                    Arc::make_mut(&mut self.clusters).copy_from_slice(&self.checkpoint);
                    break (verdict, false);
                }
                None => {
                    let clean = verdict.clean();
                    break (verdict, clean);
                }
            }
        };
        let repairs = last.center_repairs + last.label_repairs;
        if params.enforce_connectivity() {
            let (labels, conn) = (&mut self.labels, &mut self.conn);
            breakdown.time(Phase::Connectivity, || {
                let min_size = ((spacing * spacing) / MIN_REGION_DIVISOR).max(1.0) as usize;
                enforce_connectivity_with(labels, min_size.max(1), conn);
            });
        }

        let frozen_clusters = self.active.iter().filter(|&&a| !a).count();
        let outcome = if !guard_clean {
            RecoveryOutcome::Failed
        } else if attempt > 0 {
            RecoveryOutcome::Recovered
        } else {
            RecoveryOutcome::Clean
        };
        let status = match outcome {
            RecoveryOutcome::Failed => SegmentationStatus::Degraded,
            RecoveryOutcome::Recovered => SegmentationStatus::Recovered,
            RecoveryOutcome::Clean => SegmentationStatus::Ok,
        };
        let recovery = RecoveryReport {
            guards_fired: total_guards,
            retries: attempt,
            escalations,
            outcome,
            center_checksum: center_checksum(&self.clusters),
        };
        if let Some(rec) = recorder {
            // Phase attribution: wall-clock durations pass through
            // Recorder::duration_ns, which zeroes them in deterministic
            // mode so the trace bytes stay workload-pure.
            for phase in crate::profile::PHASES {
                rec.instant(
                    "core.phase",
                    LogicalClock::step(iterations_run.saturating_sub(1)),
                    vec![
                        ("phase", Value::from(phase.key())),
                        (
                            "nanos",
                            Value::U64(rec.duration_ns(breakdown.phase_time(phase))),
                        ),
                    ],
                );
            }
            let c = &self.counters;
            rec.counter_add("core.distance_calcs", c.distance_calcs);
            rec.counter_add("core.pixel_color_reads", c.pixel_color_reads);
            rec.counter_add("core.sigma_updates", c.sigma_updates);
            rec.counter_add("core.center_updates", c.center_updates);
            rec.counter_add("core.sub_iterations", c.sub_iterations);
            rec.counter_add("core.invariant_repairs", repairs);
            if policy.is_some() {
                // Recovery telemetry is policy-gated so recovery-off
                // traces stay byte-identical to the pre-recovery engine.
                rec.instant(
                    "core.recovery.outcome",
                    LogicalClock::step(iterations_run.saturating_sub(1)),
                    vec![
                        ("outcome", Value::from(recovery.outcome.as_str())),
                        ("guards_fired", Value::U64(recovery.guards_fired)),
                        ("retries", Value::U64(u64::from(recovery.retries))),
                        ("escalations", Value::U64(u64::from(recovery.escalations))),
                        ("center_checksum", Value::U64(recovery.center_checksum)),
                    ],
                );
                rec.counter_add("core.recovery.guards_fired", recovery.guards_fired);
                rec.counter_add("core.recovery.retries", u64::from(recovery.retries));
                rec.counter_add("core.recovery.escalations", u64::from(recovery.escalations));
            }
            rec.span_end(
                "core.run",
                LogicalClock::step(iterations_run.saturating_sub(1)),
                vec![
                    ("iterations_run", Value::U64(u64::from(iterations_run))),
                    ("repairs", Value::U64(repairs)),
                    (
                        "status",
                        Value::from(match status {
                            SegmentationStatus::Ok => "ok",
                            SegmentationStatus::Degraded => "degraded",
                            SegmentationStatus::Recovered => "recovered",
                        }),
                    ),
                ],
            );
        }
        self.frames += 1;
        Ok(FrameReport {
            iterations_run,
            breakdown,
            counters: self.counters,
            spacing,
            frozen_clusters,
            status,
            repairs,
            recovery,
            kernel: if self.swar.is_some() {
                Kernel::Swar
            } else {
                Kernel::Scalar
            },
        })
    }

    /// Runs one attempt of a frame: attempt init, the iteration loop, and
    /// the center/label/sigma/poison guards — everything up to the retry
    /// decision, which stays in [`SegmenterSession::frame`] together with
    /// the finishing passes (connectivity, reporting). Returns the guard
    /// verdict, evaluated at the end-of-attempt serial sync point
    /// (bit-identical across thread counts).
    ///
    /// Emits this attempt's `core.run` span-begin, step spans, and repair
    /// instants; the caller closes the span with the attempt's
    /// disposition (`retrying`, or the frame's final status).
    fn run_attempt(
        &mut self,
        options: &RunOptions<'_>,
        init: AttemptInit,
        cold: bool,
        attempt: u32,
        breakdown: &mut PhaseBreakdown,
    ) -> GuardVerdict {
        let (w, h) = (self.grid.width(), self.grid.height());
        let params = *self.config.params();
        let algorithm = self.config.algorithm();
        let preemption = self.config.preemption();
        let recorder = options.recorder;

        breakdown.time(Phase::Init, || {
            match init {
                AttemptInit::AsRequested => match options.warm_start {
                    Some(warm) => {
                        let clusters = Arc::make_mut(&mut self.clusters);
                        clusters.clear();
                        clusters.extend_from_slice(warm);
                    }
                    None if cold => {
                        let fresh = self.seed_clusters(params.perturb_seeds());
                        let clusters = Arc::make_mut(&mut self.clusters);
                        clusters.clear();
                        clusters.extend_from_slice(&fresh);
                    }
                    None => {} // Steady state: centers stay in place.
                },
                AttemptInit::Rollback => {
                    // Restore the last-known-good center table written at
                    // this frame's attempt-0 sync point. Same-length copy:
                    // no allocation on the retry path.
                    Arc::make_mut(&mut self.clusters).copy_from_slice(&self.checkpoint);
                }
                AttemptInit::Cold => {
                    let fresh = self.seed_clusters(params.perturb_seeds());
                    let clusters = Arc::make_mut(&mut self.clusters);
                    clusters.clear();
                    clusters.extend_from_slice(&fresh);
                }
            }
            // Every pixel starts at its home cluster, in the band stripes,
            // which hold the band's labels for the whole attempt.
            for (b, rows) in self.pool.bands().iter().enumerate() {
                let stripe = &mut self.pool.slot(b).stripe;
                write_home_rows(&self.grid, &self.column_cells, rows.start, stripe);
            }
        });
        if attempt == 0 {
            // Checkpoint: the post-init state of attempt 0 is
            // last-known-good by construction — a guard-verified previous
            // frame, an explicitly trusted warm start, or a fresh grid
            // seed. Same-length copy into preallocated scratch.
            self.checkpoint.copy_from_slice(&self.clusters);
            self.checkpoint_sum = center_checksum(&self.checkpoint);
        }

        let cluster_count = self.clusters.len();
        if let Some(rec) = recorder {
            rec.span_begin(
                "core.run",
                LogicalClock::ZERO,
                vec![
                    ("algorithm", Value::from(algorithm.name())),
                    ("width", Value::U64(w as u64)),
                    ("height", Value::U64(h as u64)),
                    ("clusters", Value::U64(cluster_count as u64)),
                    ("iterations", Value::U64(u64::from(params.iterations()))),
                    // Deliberately NOT the thread count: the determinism
                    // contract byte-diffs traces across worker counts.
                ],
            );
        }

        // Per-attempt scratch resets — all in place, no allocation. A
        // retry resets the counters too, so the frame reports the final
        // attempt's workload (matching the labels it actually produced).
        // SLIC-CPA's distance stripes are reset by every step's scan.
        Arc::make_mut(&mut self.active).fill(true);
        self.counters = RunCounters::default();
        self.poisoned = 0;
        self.sigma_mismatch = 0;

        let mut center_repairs = 0u64;
        for step in 0..params.iterations() {
            let subset = self.partition.subset_for_step(step);
            if let Some(rec) = recorder {
                rec.span_begin(
                    "core.step",
                    LogicalClock::step(step),
                    vec![("subset", Value::U64(u64::from(subset)))],
                );
            }
            breakdown.time(Phase::DistanceMin, || {
                self.assign(subset, preemption.is_some(), recorder, step)
            });
            breakdown.time(Phase::CenterUpdate, || {
                self.update_centers(preemption, recorder, step)
            });
            self.counters.sub_iterations += 1;
            if let Some(f) = options.faults {
                f.corrupt_centers(step, Arc::make_mut(&mut self.clusters).as_mut_slice());
            }
            // Invariant guard: runs unconditionally (a no-op on clean
            // state, preserving bit-identity of the fault-free path) so
            // corrupted center registers cannot push subsequent window
            // scans or seed lookups out of the image box.
            let step_repairs = self.repair_centers();
            center_repairs += step_repairs;
            if let Some(rec) = recorder {
                if step_repairs > 0 {
                    rec.instant(
                        "core.repair.centers",
                        LogicalClock::step(step),
                        vec![("repaired", Value::U64(step_repairs))],
                    );
                }
                rec.span_end(
                    "core.step",
                    LogicalClock::step(step),
                    vec![("sub_iterations", Value::U64(1))],
                );
            }
        }

        // The attempt's labels live in the band stripes; assemble the
        // central plane once, for the guard, connectivity and callers.
        let labels = &mut self.labels;
        for (b, rows) in self.pool.bands().iter().enumerate() {
            labels.as_mut_slice()[rows.start * w..rows.end * w]
                .copy_from_slice(&self.pool.slot(b).stripe);
        }
        // Invariant guard: any out-of-range label (possible only via
        // corruption) is repaired in place to the pixel's home cluster,
        // keeping the map a valid index into `clusters` for connectivity
        // and callers. A clean map costs one flat read-only scan.
        let k = self.clusters.len() as u32;
        let mut label_repairs = 0u64;
        if labels.as_slice().iter().any(|&label| label >= k) {
            for (y, row) in labels.as_mut_slice().chunks_exact_mut(w).enumerate() {
                let homes = self.grid.home_row(&self.column_cells, y);
                for (label, home) in row.iter_mut().zip(homes) {
                    if *label >= k {
                        *label = home;
                        label_repairs += 1;
                    }
                }
            }
        }
        if let Some(rec) = recorder {
            if label_repairs > 0 {
                rec.instant(
                    "core.repair.labels",
                    LogicalClock::step(params.iterations().saturating_sub(1)),
                    vec![("repaired", Value::U64(label_repairs))],
                );
            }
        }
        GuardVerdict {
            center_repairs,
            label_repairs,
            sigma_mismatch: self.sigma_mismatch,
            poisoned_bands: self.poisoned,
        }
    }

    /// Converts the request's pixels into the session's reusable feature
    /// planes: the codes in quantized sessions, the float plane in float
    /// sessions. A [`SegmentRequest::Lab8`] frame is copied into the codes
    /// in either kind of session, and the engine reads it from there. The
    /// pixel-feature fault hook corrupts the codes before anything reads
    /// them.
    fn convert_into(
        &mut self,
        request: SegmentRequest<'_>,
        faults: Option<&dyn StepFaults>,
        breakdown: &mut PhaseBreakdown,
    ) {
        match request {
            SegmentRequest::Rgb(img) => {
                self.reads_codes = false;
                if let Some(lab) = self.lab.as_mut() {
                    let lab = Arc::make_mut(lab);
                    breakdown.time(Phase::ColorConversion, || {
                        float::convert_image_into(img, lab);
                    });
                } else {
                    // The accelerator's LUT path produces the 8-bit image
                    // the quantized datapath operates on; assignment and
                    // sigma both read it.
                    let lab8 = Arc::make_mut(&mut self.lab8);
                    if let Some(conv) = &self.converter {
                        breakdown.time(Phase::ColorConversion, || {
                            conv.convert_image_into(img, lab8);
                        });
                    }
                    if let Some(f) = faults {
                        f.corrupt_lab8(lab8);
                    }
                }
            }
            SegmentRequest::Lab8(src) => {
                // Conversion happened outside the engine: charged zero
                // time. The hooks corrupt the codes before anything reads
                // them.
                self.reads_codes = true;
                let lab8 = Arc::make_mut(&mut self.lab8);
                lab8.copy_from(src);
                if let Some(f) = faults {
                    f.corrupt_lab8(lab8);
                }
            }
        }
    }

    /// The current frame's colours: the float plane, or the codes.
    fn pixels(&self) -> Pixels {
        match &self.lab {
            Some(lab) if !self.reads_codes => Pixels::Plane(Arc::clone(lab)),
            _ => Pixels::Codes(Arc::clone(&self.lab8)),
        }
    }

    /// Cold seeding (see [`init_clusters`]) from the current frame's
    /// colours.
    fn seed_clusters(&self, perturb: bool) -> Vec<Cluster> {
        match self.pixels() {
            Pixels::Plane(lab) => init_clusters(&lab, &self.grid, perturb),
            Pixels::Codes(lab8) => init_clusters_from_codes(&lab8, &self.grid, perturb),
        }
    }

    /// Assembles one step's dispatch over `subset` (`Arc` bumps and
    /// scalar copies only — no heap traffic).
    fn frame_ctx(&self, subset: u32, preempting: bool) -> FrameCtx {
        FrameCtx {
            grid: self.grid.clone(),
            pixels: self.pixels(),
            clusters: Arc::clone(&self.clusters),
            codes: Arc::clone(&self.codes),
            active: Arc::clone(&self.active),
            partition: Arc::clone(&self.partition),
            kernel: self.kernel.clone(),
            swar: self.swar.as_ref().map(Arc::clone),
            m2_over_s2: self.m2_over_s2,
            window_scan: self.config.algorithm() == Algorithm::SlicCpa,
            subset,
            preempting,
        }
    }

    /// Refreshes the quantized cluster codes from the float centers in
    /// place (hardware: centers are loaded into the center registers at
    /// the start of each pass).
    fn refresh_codes(&mut self) {
        if let Some(kernel) = &self.kernel {
            let codes = Arc::make_mut(&mut self.codes);
            codes.clear();
            codes.extend(self.clusters.iter().map(|c| kernel.encode_cluster(c)));
        }
    }

    /// Invariant guard: repairs corrupted center registers in place.
    /// Non-finite positions fall back to the cluster's seed, non-finite
    /// colors to mid-grey, and every field is clamped into the frame and
    /// the CIELAB range. Returns clusters changed.
    fn repair_centers(&mut self) -> u64 {
        let (w, h) = (self.grid.width(), self.grid.height());
        let (xmax, ymax) = ((w - 1) as f32, (h - 1) as f32);
        let mut repaired = 0u64;
        let clusters = Arc::make_mut(&mut self.clusters);
        for (k, c) in clusters.iter_mut().enumerate() {
            let before = *c;
            // f32::clamp propagates NaN, so non-finite fields must be
            // replaced before clamping.
            if !c.x.is_finite() || !c.y.is_finite() {
                let (sx, sy) = self.grid.seed_position(k);
                if !c.x.is_finite() {
                    c.x = sx;
                }
                if !c.y.is_finite() {
                    c.y = sy;
                }
            }
            if !c.l.is_finite() {
                c.l = 50.0;
            }
            if !c.a.is_finite() {
                c.a = 0.0;
            }
            if !c.b.is_finite() {
                c.b = 0.0;
            }
            c.x = c.x.clamp(0.0, xmax);
            c.y = c.y.clamp(0.0, ymax);
            c.l = c.l.clamp(0.0, 100.0);
            c.a = c.a.clamp(-128.0, 127.0);
            c.b = c.b.clamp(-128.0, 127.0);
            // NaN != NaN, so a replaced non-finite field also registers
            // as a change here.
            if *c != before {
                repaired += 1;
            }
        }
        repaired
    }

    /// One step's assignment of `subset`: one pool dispatch, which also
    /// fills every band's sigma partial, then the serial merge of the
    /// assign counter partials in ascending band order. The labels stay in
    /// the band stripes.
    fn assign(&mut self, subset: u32, preempting: bool, recorder: Option<&Recorder>, step: u32) {
        self.refresh_codes();
        let ctx = self.frame_ctx(subset, preempting);
        let window_scan = ctx.window_scan;
        self.poisoned += self.pool.run(ctx);
        self.band_counters.clear();
        for b in 0..self.pool.band_count() {
            self.band_counters.push(self.pool.slot(b).assign);
        }
        // Per-band counter partials fold in ascending band order at this
        // serial sync point: the totals depend only on the band layout
        // (a pure function of the image height), never the thread count.
        let mut scanned = RunCounters::default();
        for part in &self.band_counters {
            scanned += *part;
        }
        self.counters += scanned;
        // PPA: one 9-center register load per tile processed (paper §4.3);
        // under interleaved subsets every tile is touched each
        // sub-iteration. CPA: one load per cluster whose window scanned.
        let center_reads = if window_scan {
            self.active.iter().filter(|&&a| a).count() as u64
        } else {
            self.grid.cluster_count() as u64 * 9
        };
        self.counters.center_reads += center_reads;
        let Some(rec) = recorder else {
            return;
        };
        if window_scan {
            // The window scan reports as one step-level counter event.
            rec.instant(
                "core.assign.step",
                LogicalClock::step(step),
                vec![
                    ("distance_calcs", Value::U64(scanned.distance_calcs)),
                    ("pixel_color_reads", Value::U64(scanned.pixel_color_reads)),
                    ("dist_buffer_reads", Value::U64(scanned.dist_buffer_reads)),
                    ("dist_buffer_writes", Value::U64(scanned.dist_buffer_writes)),
                    ("label_writes", Value::U64(scanned.label_writes)),
                    ("center_reads", Value::U64(center_reads)),
                ],
            );
            return;
        }
        for (b, part) in self.band_counters.iter().enumerate() {
            rec.instant(
                "core.assign.band",
                LogicalClock::band(step, b as u32),
                vec![
                    ("pixel_color_reads", Value::U64(part.pixel_color_reads)),
                    ("distance_calcs", Value::U64(part.distance_calcs)),
                    ("label_writes", Value::U64(part.label_writes)),
                ],
            );
            rec.histogram_observe(
                "core.band.pixels",
                &BAND_PIXEL_BOUNDS,
                part.pixel_color_reads,
            );
        }
        rec.instant(
            "core.assign.step",
            LogicalClock::step(step),
            vec![("center_reads", Value::U64(center_reads))],
        );
    }

    /// Center update from the bands' sigma partials of this step: the
    /// ascending-band fold, the sigma-count guard, then the serial center
    /// recomputation.
    fn update_centers(&mut self, preemption: Option<f32>, recorder: Option<&Recorder>, step: u32) {
        // Banded sigma fold in ascending band order: the f64 sums always
        // group the same way — per band, row-major within a band — no
        // matter how many workers executed the bands, which is what makes
        // the result bit-identical across thread counts despite float
        // non-associativity.
        for acc in self.fold_sigma.iter_mut() {
            *acc = [0.0; 6];
        }
        self.band_counters.clear();
        for b in 0..self.pool.band_count() {
            let slot = self.pool.slot(b);
            for (acc, part) in self.fold_sigma.iter_mut().zip(&slot.sigma) {
                for (a, p) in acc.iter_mut().zip(part) {
                    *a += p;
                }
            }
            self.band_counters.push(slot.update);
        }
        for part in &self.band_counters {
            self.counters += *part;
        }
        // Invariant guard: count conservation across the parallel fold.
        // Every pixel a band summed contributes exactly 1.0 to its
        // cluster's member count, so the folded counts and the band
        // counters must agree; a mismatch means a band handed back
        // partial state (e.g. a poisoned band's stale slot). Integer
        // compare at a serial sync point — bit-identical across thread
        // counts, and exact (member counts are far below 2^53).
        let folded = self
            .fold_sigma
            .iter()
            .map(|acc| acc[5])
            .sum::<f64>() as u64;
        let read: u64 = self.band_counters.iter().map(|c| c.label_reads).sum();
        self.sigma_mismatch += folded.abs_diff(read);
        if let Some(rec) = recorder {
            for (b, part) in self.band_counters.iter().enumerate() {
                rec.instant(
                    "core.update.band",
                    LogicalClock::band(step, b as u32),
                    vec![
                        ("label_reads", Value::U64(part.label_reads)),
                        ("pixel_color_reads", Value::U64(part.pixel_color_reads)),
                        ("sigma_updates", Value::U64(part.sigma_updates)),
                    ],
                );
            }
        }

        let clusters = Arc::make_mut(&mut self.clusters);
        let active = Arc::make_mut(&mut self.active);
        let mut updated = 0u64;
        for (k, acc) in self.fold_sigma.iter().enumerate() {
            if !active[k] {
                continue; // preempted: center is frozen
            }
            if acc[5] == 0.0 {
                continue; // no members seen this step: keep the old center
            }
            let n = acc[5];
            let new = Cluster::new(
                (acc[0] / n) as f32,
                (acc[1] / n) as f32,
                (acc[2] / n) as f32,
                (acc[3] / n) as f32,
                (acc[4] / n) as f32,
            );
            if preemption.is_some_and(|threshold| new.movement_from(&clusters[k]) < threshold) {
                active[k] = false;
            }
            clusters[k] = new;
            updated += 1;
        }
        self.counters.center_updates += updated;
        if let Some(rec) = recorder {
            rec.instant(
                "core.update.step",
                LogicalClock::step(step),
                vec![("center_updates", Value::U64(updated))],
            );
        }
    }
}

/// Writes the home cluster of every pixel of `rows`, the whole rows of
/// the frame starting at row `first_row`.
fn write_home_rows(grid: &SeedGrid, column_cells: &[u32], first_row: usize, rows: &mut [u32]) {
    for (i, row) in rows.chunks_exact_mut(grid.width()).enumerate() {
        for (label, home) in row
            .iter_mut()
            .zip(grid.home_row(column_cells, first_row + i))
        {
            *label = home;
        }
    }
}

pub(crate) fn request_dims(request: &SegmentRequest<'_>) -> (usize, usize) {
    match request {
        SegmentRequest::Rgb(img) => (img.width(), img.height()),
        SegmentRequest::Lab8(lab8) => (lab8.width(), lab8.height()),
    }
}

impl Segmenter {
    /// Runs one segmentation: the canonical one-shot entry point.
    /// `request` names the input representation, `options` carries the
    /// cross-cutting concerns (warm start, fault hooks, recorder).
    ///
    /// Internally this builds a transient [`SegmenterSession`] and runs a
    /// single frame through it — the session API is the engine, so
    /// streaming and one-shot outputs are bit-identical by construction.
    /// For video-rate workloads, hold a session instead and amortize the
    /// setup.
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition — notably a
    /// [`RunOptions::warm_start`] whose length does not match the image's
    /// realized grid ("warm start must carry … clusters").
    pub fn run(&self, request: SegmentRequest<'_>, options: &RunOptions<'_>) -> Segmentation {
        match self.try_run(request, options) {
            Ok(segmentation) => segmentation,
            Err(e) => raise(e),
        }
    }

    /// Fallible twin of [`Segmenter::run`]: every precondition surfaces as
    /// a [`SegmentError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SegmentError::EmptyFrame`] for a zero-sized frame,
    /// [`SegmentError::WarmStartLen`] for a warm start that does not match
    /// the realized grid.
    pub(crate) fn try_run(
        &self,
        request: SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> Result<Segmentation, SegmentError> {
        let (w, h) = request_dims(&request);
        // A fresh session's first frame seeds cold unless a warm start is
        // supplied.
        let mut session = SegmenterSession::try_new(self.clone(), w, h)?;
        let report = session.try_run(request, options)?;
        Ok(session.into_segmentation(report))
    }

    /// Builds a streaming [`SegmenterSession`] for `width × height` frames
    /// from this configuration: a panicking convenience over
    /// [`SegmenterSession::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn session(&self, width: usize, height: usize) -> SegmenterSession {
        SegmenterSession::new(self.clone(), width, height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::band_rows;
    use crate::SlicParams;
    use proptest::prelude::*;
    use sslic_image::prng::SplitMix64;
    use sslic_image::synthetic::SyntheticImage;

    fn params(k: usize, iters: u32) -> SlicParams {
        SlicParams::builder(k).iterations(iters).build()
    }

    fn frames(n: u64) -> Vec<SyntheticImage> {
        (0..n)
            .map(|i| {
                SyntheticImage::builder(64, 48)
                    .seed(100 + i)
                    .regions(5)
                    .build()
            })
            .collect()
    }

    #[test]
    fn reset_frames_match_one_shot_for_every_algorithm() {
        let configs = [
            Segmenter::slic(params(48, 4)),
            Segmenter::slic_ppa(params(48, 4)),
            Segmenter::sslic_ppa(params(48, 4), 2)
                .with_distance_mode(DistanceMode::quantized(8)),
        ];
        for seg in configs {
            let mut session = seg.session(64, 48);
            for img in frames(3) {
                let one_shot = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                session.reset();
                let report = session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                assert_eq!(
                    session.labels().as_slice(),
                    one_shot.labels().as_slice(),
                    "{} labels diverged",
                    seg.algorithm().name()
                );
                assert_eq!(report.counters(), one_shot.report().counters());
                assert_eq!(report.iterations_run(), one_shot.report().iterations_run());
                assert_eq!(report.status(), one_shot.report().status());
            }
        }
    }

    #[test]
    fn auto_warm_matches_explicit_warm_chain() {
        let configs = [
            Segmenter::slic(params(60, 5)),
            Segmenter::slic_ppa(params(60, 5)),
            Segmenter::sslic_ppa(params(60, 5), 2),
        ];
        let imgs = frames(3);
        for seg in configs {
            let name = seg.algorithm().name();
            let mut session = seg.session(64, 48);
            // One-shot chain: each frame warm-started from the previous
            // result. A warm CPA session carries its distance stripes into
            // the next frame, so this also pins that step 0 clears them.
            let mut warm: Option<Vec<Cluster>> = None;
            for img in &imgs {
                let mut options = RunOptions::new();
                if let Some(w) = &warm {
                    options = options.with_warm_start(w);
                }
                let one_shot = seg.run(SegmentRequest::Rgb(&img.rgb), &options);
                session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                assert_eq!(
                    session.labels().as_slice(),
                    one_shot.labels().as_slice(),
                    "{name} labels diverged"
                );
                assert_eq!(
                    session.clusters(),
                    one_shot.clusters(),
                    "{name} centers diverged"
                );
                warm = Some(one_shot.clusters().to_vec());
            }
        }
    }

    #[test]
    fn geometry_mismatch_is_an_error_not_a_panic() {
        let seg = Segmenter::slic_ppa(params(48, 3));
        let mut session = seg.session(64, 48);
        let wrong = SyntheticImage::builder(32, 24).seed(1).regions(3).build();
        let err = session
            .try_run(SegmentRequest::Rgb(&wrong.rgb), &RunOptions::new())
            .unwrap_err();
        assert_eq!(
            err,
            SegmentError::GeometryMismatch {
                expected: (64, 48),
                actual: (32, 24),
            }
        );
        assert!(err.to_string().contains("session scratch is sized for"));
    }

    #[test]
    fn warm_start_length_mismatch_is_an_error() {
        let seg = Segmenter::slic_ppa(params(48, 3));
        let mut session = seg.session(64, 48);
        let img = SyntheticImage::builder(64, 48).seed(1).regions(3).build();
        let bad = vec![Cluster::default(); 3];
        let err = session
            .try_run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_warm_start(&bad),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            SegmentError::WarmStartLen { actual: 3, .. }
        ));
        assert!(err.to_string().contains("warm start must carry"));
    }

    #[test]
    fn empty_frame_is_an_error() {
        let seg = Segmenter::slic_ppa(params(48, 3));
        assert_eq!(
            SegmenterSession::try_new(seg, 0, 48).unwrap_err(),
            SegmentError::EmptyFrame {
                width: 0,
                height: 48
            }
        );
    }

    #[test]
    fn try_run_is_fallible_one_shot() {
        let img = SyntheticImage::builder(64, 48).seed(7).regions(4).build();
        let seg = Segmenter::slic(params(48, 3));
        let ok = seg
            .try_run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new())
            .expect("valid request segments");
        assert_eq!(ok.labels().len(), 64 * 48);
        let bad = vec![Cluster::default(); 5];
        let err = seg
            .try_run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_warm_start(&bad),
            )
            .unwrap_err();
        assert!(matches!(err, SegmentError::WarmStartLen { .. }));
    }

    #[test]
    fn session_respects_explicit_warm_start_override() {
        let seg = Segmenter::slic_ppa(params(48, 4));
        let imgs = frames(2);
        let cold = seg.run(SegmentRequest::Rgb(&imgs[0].rgb), &RunOptions::new());
        let warmed_one_shot = seg.run(
            SegmentRequest::Rgb(&imgs[1].rgb),
            &RunOptions::new().with_warm_start(cold.clusters()),
        );
        let mut session = seg.session(64, 48);
        // Frame 0 leaves centers converged on imgs[1]; the explicit warm
        // start must win over recycling them.
        session.run(SegmentRequest::Rgb(&imgs[1].rgb), &RunOptions::new());
        session.run(
            SegmentRequest::Rgb(&imgs[1].rgb),
            &RunOptions::new().with_warm_start(cold.clusters()),
        );
        assert_eq!(session.labels().as_slice(), warmed_one_shot.labels().as_slice());
    }

    #[test]
    fn off_frame_cpa_centers_scan_an_empty_window() {
        // SLIC-CPA warm-started with cluster 0 moved off the frame: once
        // its window clears the left or top edge it reaches no pixel, however
        // far off the center sits, while at x = -5 it still covers the
        // first columns. Only step 0 of an explicit warm start can see such
        // a center; every later step scans repaired ones.
        let seg = Segmenter::slic(params(60, 1));
        let img = SyntheticImage::builder(64, 48)
            .seed(2024)
            .regions(5)
            .build();
        let base = seg
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new())
            .clusters()
            .to_vec();
        let calcs = |x: Option<f32>, y: Option<f32>| {
            let mut warm = base.clone();
            warm[0].x = x.unwrap_or(warm[0].x);
            warm[0].y = y.unwrap_or(warm[0].y);
            seg.run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_warm_start(&warm),
            )
            .report()
            .counters()
            .distance_calcs
        };
        let near = calcs(Some(-5.0), None);
        let far = [
            calcs(Some(-8.0), None),
            calcs(Some(-200.0), None),
            calcs(None, Some(-200.0)),
            calcs(Some(-200.0), Some(-200.0)),
        ];
        assert!(far.iter().all(|&c| c == far[0]), "{far:?}");
        assert!(far[0] < near, "{far:?} vs {near} at x = -5");
    }

    /// One band's output of a step: its label stripe, distance stripe,
    /// sigma partial and both counter partials.
    struct BandOut {
        stripe: Vec<u32>,
        dist: Vec<f32>,
        sigma: Vec<[f64; 6]>,
        assign: RunCounters,
        update: RunCounters,
    }

    /// Runs `ctx`'s band kernel over every band of the frame, each slot
    /// starting from `labels`, and from garbage distances and sigma files,
    /// so a band that fails to reset either shows.
    fn run_bands(ctx: &FrameCtx, labels: &[u32]) -> Vec<BandOut> {
        let w = ctx.grid.width();
        band_rows(ctx.grid.height())
            .into_iter()
            .enumerate()
            .map(|(b, rows)| {
                let stripe = labels[rows.start * w..rows.end * w].to_vec();
                let dist_len = if ctx.window_scan { stripe.len() } else { 0 };
                let mut slot = BandSlot {
                    stripe,
                    dist: vec![-1.0; dist_len],
                    sigma: vec![[f64::NAN; 6]; ctx.clusters.len()],
                    assign: RunCounters::default(),
                    update: RunCounters::default(),
                };
                band_kernel(ctx, b, rows, &mut slot);
                BandOut {
                    stripe: slot.stripe,
                    dist: slot.dist,
                    sigma: slot.sigma,
                    assign: slot.assign,
                    update: slot.update,
                }
            })
            .collect()
    }

    /// The center-update sums of `ctx`'s subset under `labels`, band by
    /// band, as an unfused pass over the finished label map: the oracle
    /// the sums fused into both band kernels must equal bit for bit.
    fn update_band(ctx: &FrameCtx, labels: &[u32]) -> Vec<(Vec<[f64; 6]>, RunCounters)> {
        let w = ctx.grid.width();
        band_rows(ctx.grid.height())
            .into_iter()
            .map(|rows| {
                let mut sigma = vec![[0.0; 6]; ctx.clusters.len()];
                let mut summed = 0;
                for y in rows {
                    if let Some(members) = ctx.partition.row_members(y, ctx.subset) {
                        let row = &labels[y * w..(y + 1) * w];
                        summed += ctx.pixels.sum_row(&mut sigma, row, y, members);
                    }
                }
                (sigma, sum_counters(summed))
            })
            .collect()
    }

    /// SLIC-CPA's serial whole-frame window scan, the oracle of
    /// [`scan_band`]: every active cluster, in ascending `k`, scans its
    /// whole `2S×2S` window against one frame-sized distance buffer.
    /// Updates `labels` and returns the distance minima and the counters.
    fn assign_cpa(ctx: &FrameCtx, labels: &mut Plane<u32>) -> (Plane<f32>, RunCounters) {
        let (w, h) = (ctx.grid.width(), ctx.grid.height());
        let mut dist_buffer = Plane::filled(w, h, f32::INFINITY);
        let radius = ctx.grid.spacing().ceil() as isize;
        let dctx = DistCtx::of(ctx);
        let mut visits = 0u64;
        let mut improvements = 0u64;
        for k in 0..dctx.clusters.len() {
            if !ctx.active[k] {
                continue;
            }
            let cx = dctx.clusters[k].x.round() as isize;
            let cy = dctx.clusters[k].y.round() as isize;
            let x0 = cx.saturating_sub(radius).max(0);
            let x1 = cx.saturating_add(radius).min(w as isize - 1);
            let y0 = cy.saturating_sub(radius).max(0);
            let y1 = cy.saturating_add(radius).min(h as isize - 1);
            if x0 > x1 || y0 > y1 {
                continue;
            }
            for y in y0 as usize..=y1 as usize {
                for x in x0 as usize..=x1 as usize {
                    let d = dctx.distance(x, y, k);
                    visits += 1;
                    if d < dist_buffer[(x, y)] {
                        dist_buffer[(x, y)] = d;
                        labels[(x, y)] = k as u32;
                        improvements += 1;
                    }
                }
            }
        }
        let counters = RunCounters {
            distance_calcs: visits,
            pixel_color_reads: visits,
            dist_buffer_reads: visits,
            dist_buffer_writes: improvements,
            label_writes: improvements,
            ..RunCounters::default()
        };
        (dist_buffer, counters)
    }

    /// A random step over a random `w × h` frame: random colours (float
    /// or 8-bit codes), `superpixels` random centers spread to half a
    /// frame beyond each edge (as an unrepaired warm start can place
    /// them), none, a quarter, ... or all of them frozen, and a random
    /// subset of a `subsets`-subset partition. Also returns labels from
    /// before the step, drawn from every cluster, so members a step skips
    /// are summed under labels it never wrote.
    fn random_step(
        w: usize,
        h: usize,
        subsets: u32,
        strategy: SubsetStrategy,
        superpixels: usize,
        quantized: bool,
        seed: u64,
    ) -> (FrameCtx, Vec<u32>) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let grid = SeedGrid::new(w, h, superpixels);
        let k = grid.cluster_count();
        let lab8 = Lab8Image::from_fn(w, h, |_, _| {
            let r = rng.next_u64();
            [r as u8, (r >> 8) as u8, (r >> 16) as u8]
        });
        let pixels = if quantized {
            Pixels::Codes(Arc::new(lab8))
        } else {
            Pixels::Plane(Arc::new(LabImage::from_fn(w, h, |_, _| {
                let [l, a, b] = [0; 3].map(|_| rng.next_f64() as f32);
                [l * 100.0, a * 255.0 - 128.0, b * 255.0 - 128.0]
            })))
        };
        let clusters: Vec<Cluster> = (0..k)
            .map(|_| {
                let [l, a, b, x, y] = [0; 5].map(|_| rng.next_f64() as f32);
                Cluster::new(
                    l * 100.0,
                    a * 255.0 - 128.0,
                    b * 255.0 - 128.0,
                    (x * 2.0 - 0.5) * w as f32,
                    (y * 2.0 - 0.5) * h as f32,
                )
            })
            .collect();
        let frozen_quarters = rng.below(5);
        let active: Vec<bool> = (0..k).map(|_| rng.below(4) >= frozen_quarters).collect();
        let spacing = grid.spacing();
        let kernel = quantized.then(|| QuantKernel::new(8, 8, 10.0, spacing));
        let codes = kernel
            .as_ref()
            .map(|qk| clusters.iter().map(|c| qk.encode_cluster(c)).collect())
            .unwrap_or_default();
        let subset = rng.below(u64::from(subsets)) as u32;
        let before: Vec<u32> = (0..w * h).map(|_| rng.below(k as u64) as u32).collect();
        let ctx = FrameCtx {
            grid,
            pixels,
            clusters: Arc::new(clusters),
            codes: Arc::new(codes),
            active: Arc::new(active),
            partition: Arc::new(SubsetPartition::new(w, h, subsets, strategy)),
            kernel,
            swar: None,
            m2_over_s2: 100.0 / (spacing * spacing),
            window_scan: false,
            subset,
            preempting: true,
        };
        (ctx, before)
    }

    fn sigma_bits(sigma: &[[f64; 6]]) -> Vec<[u64; 6]> {
        sigma.iter().map(|acc| acc.map(f64::to_bits)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fused_assign_sums_equal_assign_then_update_band(
            w in 1usize..41,
            h in 1usize..41,
            subsets in 1u32..5,
            strategy in 0u8..3,
            superpixels in 1usize..50,
            quantized in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Summing the labels a dispatch left in the stripes, unfused,
            // must give every band's sigma partial bit for bit, with the
            // same counters: for both PPA kernels and the CPA window scan.
            let strategy = [
                SubsetStrategy::Interleaved,
                SubsetStrategy::Checkerboard,
                SubsetStrategy::Bands,
            ][usize::from(strategy)];
            let (ctx, before) =
                random_step(w, h, subsets, strategy, superpixels, quantized, seed);
            let swar = ctx.kernel.as_ref().map(|qk| Arc::new(SwarKernel::new(qk)));
            let ppa = [None].into_iter().chain(swar.map(Some)).map(|swar| (swar, false));
            let mut scalar_labels = None;
            for (swar, window_scan) in ppa.chain([(None, true)]) {
                let ctx = FrameCtx { swar: swar.clone(), window_scan, ..ctx.clone() };
                let fused = run_bands(&ctx, &before);
                let stripes: Vec<u32> = fused.iter().flat_map(|out| out.stripe.clone()).collect();
                let oracle = update_band(&ctx, &stripes);
                let case = format!(
                    "{w}x{h}, K {}, P {subsets} {strategy:?}, quantized {quantized}, swar {}, \
                     window scan {window_scan}",
                    ctx.clusters.len(),
                    swar.is_some()
                );
                let mut summed = 0;
                for (b, (got, want)) in fused.iter().zip(&oracle).enumerate() {
                    prop_assert!(
                        sigma_bits(&got.sigma) == sigma_bits(&want.0),
                        "band {} sigma: {}", b, case
                    );
                    prop_assert_eq!(got.update, want.1);
                    summed += got.update.sigma_updates;
                }
                // Every subset member was summed, preempted ones included.
                let members = ctx.partition.subset_len(ctx.subset) as u64;
                prop_assert!(summed == members, "summed {} of {}: {}", summed, members, case);
                // And the two PPA kernels agree on the labels too.
                if !window_scan {
                    match &scalar_labels {
                        None => scalar_labels = Some(stripes),
                        Some(want) => prop_assert!(&stripes == want, "labels: {}", case),
                    }
                }
            }
        }

        #[test]
        fn banded_window_scan_equals_the_whole_frame_scan(
            w in 1usize..41,
            h in 1usize..41,
            superpixels in 1usize..50,
            quantized in any::<bool>(),
            seed in any::<u64>(),
        ) {
            // Each band scans only its rows of every window, so each pixel
            // must still meet the same clusters in the same order as in
            // the serial scan: equal labels, equal distance minima (by
            // bits, `+∞` where no window reaches), equal summed counters.
            let (ctx, before) =
                random_step(w, h, 1, SubsetStrategy::default(), superpixels, quantized, seed);
            let ctx = FrameCtx { window_scan: true, ..ctx };
            let bands = run_bands(&ctx, &before);
            let mut labels = Plane::from_vec(w, h, before).expect("one label per pixel");
            let (dist, want) = assign_cpa(&ctx, &mut labels);
            let case = format!("{w}x{h}, K {}, quantized {quantized}", ctx.clusters.len());
            let stripes: Vec<u32> = bands.iter().flat_map(|out| out.stripe.clone()).collect();
            prop_assert!(stripes == labels.as_slice(), "labels: {}", case);
            let minima: Vec<u32> = bands
                .iter()
                .flat_map(|out| out.dist.iter().map(|d| d.to_bits()))
                .collect();
            let want_minima: Vec<u32> = dist.iter().map(|d| d.to_bits()).collect();
            prop_assert!(minima == want_minima, "distance minima: {}", case);
            let mut got = RunCounters::default();
            for out in &bands {
                got += out.assign;
            }
            prop_assert_eq!(got, want);
        }
    }
}
