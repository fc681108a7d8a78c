//! Streaming segmentation sessions: persistent per-frame scratch and the
//! zero-allocation steady-state execution engine.
//!
//! A [`SegmenterSession`] is created once from a [`Segmenter`] and a frame
//! geometry. It owns every piece of per-frame working memory — the CIELAB
//! feature planes, the label plane, the distance buffer, per-band sigma
//! register files, the connectivity run table, the cluster slots —
//! plus a persistent [`BandPool`] of parked workers. Each
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

use sslic_color::{float, hw::HwColorConverter, Lab8Image, LabImage};
use sslic_image::Plane;
use sslic_obs::{LogicalClock, Recorder, Value};

use crate::cluster::{init_clusters, Cluster};
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
/// entry points ([`Segmenter::try_run`], [`SegmenterSession::try_run`]);
/// the panicking twins raise the same conditions as panics carrying the
/// [`std::fmt::Display`] message.
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

/// Everything a band worker needs to execute one dispatch, shared by `Arc`:
/// cloning a `FrameCtx` bumps reference counts and copies plain scalars —
/// it never touches the heap. Workers drop their clone before signaling
/// completion, restoring unique ownership to the session.
#[derive(Clone)]
struct FrameCtx {
    grid: SeedGrid,
    lab: Arc<LabImage>,
    /// `Some` exactly when `kernel` is: the quantized datapath reads the
    /// 8-bit codes.
    lab8: Option<Arc<Lab8Image>>,
    labels: Arc<Plane<u32>>,
    clusters: Arc<Vec<Cluster>>,
    codes: Arc<Vec<ClusterCodes>>,
    active: Arc<Vec<bool>>,
    partition: Arc<SubsetPartition>,
    kernel: Option<QuantKernel>,
    /// `Some` exactly when the session runs [`Kernel::Swar`]: the shared
    /// SWAR tables the band workers scan with.
    swar: Option<Arc<SwarKernel>>,
    m2_over_s2: f32,
}

/// One dispatch to the band pool, over one subset of the session's
/// pixel partition.
#[derive(Clone)]
enum Cmd {
    /// Pixel-perspective assignment.
    Assign {
        ctx: FrameCtx,
        subset: u32,
        preempting: bool,
    },
    /// Banded sigma accumulation for the center update.
    Update { ctx: FrameCtx, subset: u32 },
}

/// Pre-allocated per-band output slot: the band's label stripe (PPA
/// algorithms only), its private sigma register file, and its counter
/// partial. Reused across every dispatch of the session.
struct BandSlot {
    stripe: Vec<u32>,
    sigma: Vec<[f64; 6]>,
    counters: RunCounters,
}

/// Borrowed distance-datapath view over a [`FrameCtx`]: the scalar
/// `distance` logic shared by the banded kernels and the serial CPA scan.
struct DistCtx<'a> {
    lab: &'a LabImage,
    lab8: Option<&'a Lab8Image>,
    clusters: &'a [Cluster],
    codes: &'a [ClusterCodes],
    kernel: Option<&'a QuantKernel>,
    m2_over_s2: f32,
}

impl<'a> DistCtx<'a> {
    fn of(ctx: &'a FrameCtx) -> Self {
        DistCtx {
            lab: &ctx.lab,
            lab8: ctx.lab8.as_deref(),
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
        match (self.kernel, self.lab8) {
            (Some(kernel), Some(lab8)) => {
                let px = lab8.pixel(x, y);
                kernel.dist_code(px, (x as i32, y as i32), &self.codes[k]) as f32
            }
            _ => dist2_float(
                self.lab.pixel(x, y),
                (x as f32, y as f32),
                &self.clusters[k],
                self.m2_over_s2,
            ),
        }
    }
}

/// The band-pool kernel: decodes one dispatch command for one band.
fn band_kernel(cmd: &Cmd, _band: usize, rows: Range<usize>, slot: &mut BandSlot) {
    match cmd {
        Cmd::Assign {
            ctx,
            subset,
            preempting,
        } => assign_band(ctx, *subset, rows, slot, *preempting),
        Cmd::Update { ctx, subset } => update_band(ctx, *subset, rows, slot),
    }
}

/// One band of PPA assignment over `rows`, writing the band's label stripe
/// and private counters into its slot. Each row visits only the
/// subset's columns ([`SubsetPartition::row_members`]; every column of a
/// one-subset partition). Skipped pixels (outside the subset, all-frozen
/// neighborhoods) keep the stripe's previous value, which the session
/// keeps synchronized with the central label plane — so the stripe
/// write-back leaves their labels unchanged.
fn assign_band(
    ctx: &FrameCtx,
    subset: u32,
    rows: Range<usize>,
    slot: &mut BandSlot,
    preempting: bool,
) {
    let w = ctx.grid.width();
    if let (Some(swar), Some(lab8)) = (ctx.swar.as_deref(), ctx.lab8.as_deref()) {
        // The SWAR fixed-point kernel: bit-identical labels (the lane
        // scan replays every scalar comparison — see `crate::kernel`),
        // identical counters, identical stripe semantics for skipped
        // pixels.
        let assigned = swar.assign_rows(
            &ctx.grid,
            lab8,
            &ctx.codes,
            &ctx.active,
            &ctx.partition,
            subset,
            preempting,
            rows,
            &mut slot.stripe,
        );
        slot.counters = RunCounters {
            pixel_color_reads: assigned,
            distance_calcs: assigned * 9,
            label_writes: assigned,
            ..RunCounters::default()
        };
        return;
    }
    let dist = DistCtx::of(ctx);
    let mut assigned = 0u64;
    for y in rows.clone() {
        let Some((first, step)) = ctx.partition.row_members(y, subset) else {
            continue;
        };
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
            slot.stripe[(y - rows.start) * w + x] = best as u32;
            assigned += 1;
        }
    }
    slot.counters = RunCounters {
        pixel_color_reads: assigned,
        distance_calcs: assigned * 9,
        label_writes: assigned,
        ..RunCounters::default()
    };
}

/// One band of sigma accumulation over `rows` into the slot's private
/// register file (zeroed on entry; folded in ascending band order by the
/// session, which is what keeps the f64 sums bit-identical across thread
/// counts despite float non-associativity). Each row reads only the
/// subset's columns ([`SubsetPartition::row_members`]).
fn update_band(ctx: &FrameCtx, subset: u32, rows: Range<usize>, slot: &mut BandSlot) {
    let w = ctx.grid.width();
    for acc in slot.sigma.iter_mut() {
        *acc = [0.0; 6];
    }
    let mut pixels_seen = 0u64;
    for y in rows {
        let Some((first, step)) = ctx.partition.row_members(y, subset) else {
            continue;
        };
        for x in (first..w).step_by(step) {
            let k = ctx.labels[(x, y)] as usize;
            let [l, a, b] = ctx.lab.pixel(x, y);
            let acc = &mut slot.sigma[k];
            acc[0] += l as f64;
            acc[1] += a as f64;
            acc[2] += b as f64;
            acc[3] += x as f64;
            acc[4] += y as f64;
            acc[5] += 1.0;
            pixels_seen += 1;
        }
    }
    slot.counters = RunCounters {
        label_reads: pixels_seen,
        pixel_color_reads: pixels_seen,
        sigma_updates: pixels_seen,
        ..RunCounters::default()
    };
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
    quantized: bool,
    lab: Arc<LabImage>,
    lab8: Arc<Lab8Image>,
    labels: Arc<Plane<u32>>,
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
    /// The CPA distance buffer: `Some` exactly for center-perspective
    /// SLIC, the only algorithm that reads it.
    dist: Option<Plane<f32>>,
    conn: ConnScratch,
    pool: BandPool<Cmd, BandSlot>,
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
            Algorithm::SlicCpa | Algorithm::SlicPpa => (1, SubsetStrategy::default()),
        };
        let partition = Arc::new(SubsetPartition::new(width, height, subsets, strategy));
        let banded_labels = matches!(
            config.algorithm(),
            Algorithm::SlicPpa | Algorithm::SSlicPpa { .. }
        );

        // Every per-frame buffer is established here, once; frames only
        // reset them in place (`tests/zero_alloc.rs` pins that at the
        // real allocator).
        let lab = Arc::new(LabImage::from_fn(width, height, |_, _| [0.0; 3]));
        let lab8 = Arc::new(Lab8Image::from_fn(width, height, |_, _| [0; 3]));
        let labels = Arc::new(Plane::filled(width, height, 0u32));
        let dist = (!banded_labels).then(|| Plane::filled(width, height, f32::INFINITY));
        let conn = ConnScratch::new(width, height);
        let clusters = Arc::new(vec![Cluster::default(); k]);
        let codes = Arc::new(Vec::with_capacity(k));
        let active = Arc::new(vec![true; k]);
        let checkpoint = vec![Cluster::default(); k];
        let fold_sigma = vec![[0f64; 6]; k];
        // SWAR assign-kernel tables (squared-delta LUTs + code-threshold
        // table), built only when the params' kernel resolves to SWAR.
        let swar = match &kernel {
            Some(qk) if params.kernel().resolve(banded_labels) == Kernel::Swar => {
                Some(Arc::new(SwarKernel::new(qk)))
            }
            _ => None,
        };
        let pool = BandPool::new(
            params.threads().get(),
            height,
            band_kernel,
            |_, rows: &Range<usize>| {
                let stripe_len = if banded_labels { rows.len() * width } else { 0 };
                BandSlot {
                    stripe: vec![0u32; stripe_len],
                    sigma: vec![[0f64; 6]; k],
                    counters: RunCounters::default(),
                }
            },
        );
        let band_counters = Vec::with_capacity(pool.band_count());

        Ok(SegmenterSession {
            config,
            grid,
            column_cells,
            quantized,
            lab,
            lab8,
            labels,
            clusters,
            codes,
            active,
            partition,
            kernel,
            swar,
            converter: quantized.then(HwColorConverter::paper_default),
            dist,
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

    /// Frame width this session is bound to.
    pub fn width(&self) -> usize {
        self.grid.width()
    }

    /// Frame height this session is bound to.
    pub fn height(&self) -> usize {
        self.grid.height()
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
    pub fn into_segmentation(self, report: FrameReport) -> Segmentation {
        let SegmenterSession {
            labels, clusters, ..
        } = self;
        // No worker holds a handle after a clean frame barrier, so neither
        // unwrap copies; a stale handle would cost a copy, not a failure.
        Segmentation::from_parts(
            Arc::unwrap_or_clone(labels),
            Arc::unwrap_or_clone(clusters),
            report,
        )
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
            let (labels, conn) = (Arc::make_mut(&mut self.labels), &mut self.conn);
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
                        let fresh = init_clusters(&self.lab, &self.grid, params.perturb_seeds());
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
                    let fresh = init_clusters(&self.lab, &self.grid, params.perturb_seeds());
                    let clusters = Arc::make_mut(&mut self.clusters);
                    clusters.clear();
                    clusters.extend_from_slice(&fresh);
                }
            }
            let labels = Arc::make_mut(&mut self.labels);
            for (y, row) in labels.as_mut_slice().chunks_exact_mut(w).enumerate() {
                let homes = self.grid.home_row(&self.column_cells, y);
                for (label, home) in row.iter_mut().zip(homes) {
                    *label = home;
                }
            }
            // PPA algorithms: re-sync every band's stripe with the central
            // labels so pixels a band skips keep their previous assignment
            // when the stripe is written back.
            for b in 0..self.pool.band_count() {
                let rows = self.pool.bands()[b].clone();
                let mut slot = self.pool.slot(b);
                if !slot.stripe.is_empty() {
                    slot.stripe
                        .copy_from_slice(&labels.as_slice()[rows.start * w..rows.end * w]);
                }
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
        // The CPA distance buffer is reset by `assign_cpa` itself.
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
            breakdown.time(Phase::DistanceMin, || match algorithm {
                Algorithm::SlicCpa => self.assign_cpa(recorder, step),
                _ => self.assign_ppa(subset, preemption.is_some(), recorder, step),
            });
            breakdown.time(Phase::CenterUpdate, || {
                self.update_centers(subset, preemption, recorder, step)
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

        // Invariant guard: any out-of-range label (possible only via
        // corruption) is repaired in place to the pixel's home cluster,
        // keeping the map a valid index into `clusters` for connectivity
        // and callers. A clean map costs one flat read-only scan.
        let labels = Arc::make_mut(&mut self.labels);
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
    /// planes. The pixel-feature fault hook corrupts the 8-bit codes
    /// before the float planes are decoded from them.
    fn convert_into(
        &mut self,
        request: SegmentRequest<'_>,
        faults: Option<&dyn StepFaults>,
        breakdown: &mut PhaseBreakdown,
    ) {
        match request {
            SegmentRequest::Rgb(img) => {
                if self.quantized {
                    // The accelerator's LUT path produces the 8-bit image
                    // the quantized datapath operates on; the f32 image is
                    // derived from it so assignment and sigma see the same
                    // data.
                    let lab8 = Arc::make_mut(&mut self.lab8);
                    if let Some(conv) = &self.converter {
                        breakdown.time(Phase::ColorConversion, || {
                            conv.convert_image_into(img, lab8);
                        });
                    }
                    if let Some(f) = faults {
                        f.corrupt_lab8(lab8);
                    }
                    lab8.decode_into(Arc::make_mut(&mut self.lab));
                } else {
                    let lab = Arc::make_mut(&mut self.lab);
                    breakdown.time(Phase::ColorConversion, || {
                        float::convert_image_into(img, lab);
                    });
                }
            }
            SegmentRequest::Lab8(src) => {
                // Conversion happened outside the engine: charged zero
                // time. The hooks corrupt the codes before anything reads
                // them.
                let lab8 = Arc::make_mut(&mut self.lab8);
                lab8.copy_from(src);
                if let Some(f) = faults {
                    f.corrupt_lab8(lab8);
                }
                lab8.decode_into(Arc::make_mut(&mut self.lab));
            }
        }
    }

    /// Assembles the per-dispatch shared view (`Arc` bumps and scalar
    /// copies only — no heap traffic).
    fn frame_ctx(&self) -> FrameCtx {
        FrameCtx {
            grid: self.grid.clone(),
            lab: Arc::clone(&self.lab),
            lab8: self.quantized.then(|| Arc::clone(&self.lab8)),
            labels: Arc::clone(&self.labels),
            clusters: Arc::clone(&self.clusters),
            codes: Arc::clone(&self.codes),
            active: Arc::clone(&self.active),
            partition: Arc::clone(&self.partition),
            kernel: self.kernel.clone(),
            swar: self.swar.as_ref().map(Arc::clone),
            m2_over_s2: self.m2_over_s2,
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

    /// Pixel-perspective assignment: one pool dispatch, then the serial
    /// fold — stripes copy back into the label plane in ascending band
    /// order, and counters merge the same way.
    fn assign_ppa(
        &mut self,
        subset: u32,
        preempting: bool,
        recorder: Option<&Recorder>,
        step: u32,
    ) {
        self.refresh_codes();
        let w = self.grid.width();
        let cmd = Cmd::Assign {
            ctx: self.frame_ctx(),
            subset,
            preempting,
        };
        self.poisoned += self.pool.run(cmd);
        self.band_counters.clear();
        let labels = Arc::make_mut(&mut self.labels);
        for b in 0..self.pool.band_count() {
            let rows = self.pool.bands()[b].clone();
            let slot = self.pool.slot(b);
            labels.as_mut_slice()[rows.start * w..rows.end * w].copy_from_slice(&slot.stripe);
            self.band_counters.push(slot.counters);
        }
        // Per-band counter partials fold in ascending band order at this
        // serial sync point: the totals depend only on the band layout
        // (a pure function of the image height), never the thread count.
        for part in &self.band_counters {
            self.counters += *part;
        }
        // One 9-center register load per tile processed (paper §4.3); under
        // interleaved subsets every tile is touched each sub-iteration.
        let center_reads = self.grid.cluster_count() as u64 * 9;
        self.counters.center_reads += center_reads;
        if let Some(rec) = recorder {
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
    }

    /// Center-perspective assignment: a serial window scan over every
    /// cluster against the distance buffer.
    fn assign_cpa(&mut self, recorder: Option<&Recorder>, step: u32) {
        self.refresh_codes();
        // Every CPA session owns the buffer (see `try_new`).
        let Some(dist_buffer) = self.dist.as_mut() else {
            return;
        };
        // Every step lets clusters compete afresh, so stale distances to
        // long-moved centers cannot pin labels, and no step, attempt or
        // frame reads a distance an earlier one wrote.
        dist_buffer.reset_to(f32::INFINITY);
        let (w, h) = (self.grid.width(), self.grid.height());
        let radius = self.grid.spacing().ceil() as isize; // 2S×2S window
        let labels = Arc::make_mut(&mut self.labels);
        let dctx = DistCtx {
            lab: &self.lab,
            lab8: self.quantized.then_some(&*self.lab8),
            clusters: &self.clusters,
            codes: &self.codes,
            kernel: self.kernel.as_ref(),
            m2_over_s2: self.m2_over_s2,
        };
        let mut visits = 0u64;
        let mut improvements = 0u64;
        let mut clusters_processed = 0u64;
        for k in 0..dctx.clusters.len() {
            if !self.active[k] {
                continue; // preempted: this cluster's window no longer scans
            }
            clusters_processed += 1;
            let cx = dctx.clusters[k].x.round() as isize;
            let cy = dctx.clusters[k].y.round() as isize;
            let x0 = (cx - radius).max(0) as usize;
            let x1 = ((cx + radius) as usize).min(w - 1);
            let y0 = (cy - radius).max(0) as usize;
            let y1 = ((cy + radius) as usize).min(h - 1);
            for y in y0..=y1 {
                for x in x0..=x1 {
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
        self.counters.distance_calcs += visits;
        self.counters.pixel_color_reads += visits;
        self.counters.dist_buffer_reads += visits;
        self.counters.dist_buffer_writes += improvements;
        self.counters.label_writes += improvements;
        self.counters.center_reads += clusters_processed;
        if let Some(rec) = recorder {
            // CPA is a serial window scan (not banded): the whole pass
            // reports as one step-level counter event.
            rec.instant(
                "core.assign.step",
                LogicalClock::step(step),
                vec![
                    ("distance_calcs", Value::U64(visits)),
                    ("pixel_color_reads", Value::U64(visits)),
                    ("dist_buffer_reads", Value::U64(visits)),
                    ("dist_buffer_writes", Value::U64(improvements)),
                    ("label_writes", Value::U64(improvements)),
                    ("center_reads", Value::U64(clusters_processed)),
                ],
            );
        }
    }

    /// Center update: one banded sigma-accumulation dispatch over
    /// `subset`, the ascending-band fold, then the serial center
    /// recomputation.
    fn update_centers(
        &mut self,
        subset: u32,
        preemption: Option<f32>,
        recorder: Option<&Recorder>,
        step: u32,
    ) {
        let cmd = Cmd::Update {
            ctx: self.frame_ctx(),
            subset,
        };
        self.poisoned += self.pool.run(cmd);
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
            self.band_counters.push(slot.counters);
        }
        for part in &self.band_counters {
            self.counters += *part;
        }
        // Invariant guard: count conservation across the parallel fold.
        // Every pixel an update band read contributes exactly 1.0 to its
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
    pub fn try_run(
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
    /// from this configuration.
    ///
    /// # Errors
    ///
    /// [`SegmentError::EmptyFrame`] if either dimension is zero.
    pub fn try_session(
        &self,
        width: usize,
        height: usize,
    ) -> Result<SegmenterSession, SegmentError> {
        SegmenterSession::try_new(self.clone(), width, height)
    }

    /// Panicking convenience over [`Segmenter::try_session`].
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
    use crate::SlicParams;
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
            // result. A warm CPA session carries its distance buffer into
            // the next frame, so this also pins that step 0 clears it.
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
}
