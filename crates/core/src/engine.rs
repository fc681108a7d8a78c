use sslic_color::Lab8Image;
use sslic_image::{Plane, RgbImage};
use sslic_obs::Recorder;

use crate::cluster::Cluster;
use crate::distance::DistanceMode;
use crate::recovery::RecoveryPolicy;
use crate::session::FrameReport;
use crate::subsample::SubsetStrategy;
use crate::SlicParams;

/// Which SLIC variant the [`Segmenter`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Original SLIC: each cluster scans a `2S×2S` window per iteration
    /// (the paper's center-perspective architecture, Fig. 1a).
    SlicCpa,
    /// S-SLIC, pixel-perspective: pixels split into `subsets` equal groups
    /// traversed round-robin; one group per center-update step (the
    /// paper's primary algorithm, Fig. 1b). SLIC-PPA, where each pixel
    /// considers its 9 nearest initial centers every iteration
    /// (gSLIC-style, no subsampling), is the one-subset case.
    SSlicPpa {
        /// Number of pixel subsets `P` (subsampling ratio `1/P`).
        subsets: u32,
        /// Spatial layout of the subsets.
        strategy: SubsetStrategy,
    },
}

impl Algorithm {
    /// Number of sub-iterations that make up one full-image pass.
    pub(crate) fn steps_per_full_pass(&self) -> u32 {
        match self {
            Algorithm::SlicCpa => 1,
            Algorithm::SSlicPpa { subsets, .. } => *subsets,
        }
    }

    /// Stable snake_case identifier used by trace events and run reports:
    /// a one-subset S-SLIC run is SLIC-PPA, `"slic_ppa"`.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SlicCpa => "slic_cpa",
            Algorithm::SSlicPpa { subsets: 1, .. } => "slic_ppa",
            Algorithm::SSlicPpa { .. } => "sslic_ppa",
        }
    }
}

/// Fault-injection hooks the engine invokes at architecturally meaningful
/// points, modeling soft errors in the accelerator's state-holding
/// elements. Implemented by `sslic-fault`; every method defaults to a
/// no-op, and a no-op implementation leaves the segmentation bit-identical
/// to the hook-free entry points.
///
/// The engine treats whatever the hooks leave behind as untrusted: centers
/// are clamped back into the image box (and non-finite fields replaced),
/// out-of-range labels are repaired to the pixel's home cluster, and the
/// iteration budget of [`SlicParams::iterations`] bounds the run
/// unconditionally — corrupted state can degrade quality but never hang or
/// panic the engine. Any repair marks the result
/// [`SegmentationStatus::Degraded`].
/// Hooks take `&self`: injection is expected to be a pure function of the
/// corrupted addresses (implementations keep any tallies in interior-
/// mutable cells), which is what makes fault injection compose with the
/// banded multi-threaded execution layer — the hooks run at serial
/// synchronization points (before the first iteration, after each center
/// reduction), never inside a worker, so the corruption they apply is
/// independent of the thread count by construction.
pub trait StepFaults {
    /// Called at the start of every run attempt of a frame with the
    /// attempt number (0 for the ordinary run, 1.. for recovery
    /// retries), before any corruption hook of that attempt fires.
    /// Implementations that derive corruption from addresses should fold
    /// the attempt into their address space so a retry draws an
    /// independent fault pattern — re-applying attempt 0's faults
    /// verbatim would re-corrupt the rolled-back state identically and
    /// make recovery impossible by construction. The default is a no-op,
    /// and attempt 0 must leave behavior identical to a hook without
    /// this method.
    fn begin_attempt(&self, _attempt: u32) {}

    /// Called once, before the first iteration, with the quantized pixel
    /// features (the accelerator's channel-memory contents). Only invoked
    /// when the pixel features exist, i.e. in quantized distance mode or
    /// when the input is a [`SegmentRequest::Lab8`].
    fn corrupt_lab8(&self, _lab8: &mut Lab8Image) {}

    /// Called after the center update of step `step` with the engine's
    /// center registers — the landing spot for bit flips in the sigma
    /// accumulators / center register file between iterations.
    fn corrupt_centers(&self, _step: u32, _clusters: &mut [Cluster]) {}
}

/// The input of one segmentation run: which color representation the
/// pixels arrive in. Together with [`RunOptions`], every combination of
/// input representation × warm start × fault hooks is one
/// [`Segmenter::run`] (or session) call.
#[derive(Debug, Clone, Copy)]
pub enum SegmentRequest<'a> {
    /// An RGB image; CIELAB conversion runs first (and is charged to the
    /// [`crate::profile::Phase::ColorConversion`] breakdown slot). The
    /// conversion route
    /// follows the distance mode: the accelerator's LUT converter in
    /// quantized mode, the exact float converter otherwise.
    Rgb(&'a RgbImage),
    /// A pre-encoded 8-bit CIELAB image — exactly the accelerator's
    /// channel-memory contents. The engine reads the supplied codes
    /// directly, each as the `f32` value it decodes to, so assignment and
    /// sigma accumulation see this data bit for bit; in quantized mode the
    /// codes also feed the distance datapath as codes. This is the entry
    /// point for externally converted (or externally corrupted) pixel
    /// features.
    Lab8(&'a Lab8Image),
}

/// Cross-cutting options of one segmentation run. The struct is the
/// extension point for new engine concerns: adding a field here reaches
/// every input representation and entry point (one-shot and streaming
/// session alike) at once.
///
/// # Example
///
/// ```
/// use sslic_core::{RunOptions, SegmentRequest, Segmenter, SlicParams};
/// use sslic_image::synthetic::SyntheticImage;
///
/// let img = SyntheticImage::builder(64, 48).seed(2).regions(5).build();
/// let seg = Segmenter::sslic_ppa(SlicParams::builder(80).iterations(4).build(), 2);
/// let cold = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
/// // Re-run warm-started from the converged centers.
/// let warm = seg.run(
///     SegmentRequest::Rgb(&img.rgb),
///     &RunOptions::new().with_warm_start(cold.clusters()),
/// );
/// assert_eq!(warm.labels().len(), 64 * 48);
/// ```
#[derive(Default, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Initial cluster centers from a previous frame, replacing grid
    /// seeding (no gradient perturbation) — the temporal warm start a
    /// 30 fps video pipeline uses. Must carry exactly
    /// [`crate::SeedGrid::cluster_count`] clusters for this image's
    /// realized grid, since the static 9-neighborhood tiling must stay
    /// valid.
    pub warm_start: Option<&'a [Cluster]>,
    /// Fault-injection hooks, consulted at the points documented on
    /// [`StepFaults`]. `None` (or hooks that never mutate anything)
    /// leaves the output bit-identical to the hook-free run.
    pub faults: Option<&'a dyn StepFaults>,
    /// Observability recorder. When set, the engine emits spans and
    /// events keyed by logical clocks (step, band) at its serial
    /// synchronization points: a `core.run` span, per-step `core.step`
    /// spans, per-band counter events from the assignment and
    /// center-update passes, phase attribution, and repair events. The
    /// emission schedule is a pure function of the workload, so a
    /// deterministic-mode trace is byte-identical across repeats and
    /// thread counts. Recording never changes the segmentation output.
    pub recorder: Option<&'a Recorder>,
    /// Self-healing recovery policy. When set, end-of-frame invariant
    /// guards that fire trigger checkpoint rollback and bounded
    /// deterministic retries per the policy's escalation ladder instead
    /// of merely flagging [`SegmentationStatus::Degraded`]. `None`
    /// preserves the detect-and-flag behavior exactly.
    pub recovery: Option<&'a RecoveryPolicy>,
}

impl<'a> RunOptions<'a> {
    /// Default options: cold start, no fault hooks.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Warm-starts the run from `clusters` (see
    /// [`RunOptions::warm_start`]).
    pub fn with_warm_start(mut self, clusters: &'a [Cluster]) -> Self {
        self.warm_start = Some(clusters);
        self
    }

    /// Activates fault-injection hooks (see [`RunOptions::faults`]).
    pub fn with_faults(mut self, faults: &'a dyn StepFaults) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches an observability recorder (see [`RunOptions::recorder`]).
    pub fn with_recorder(mut self, recorder: &'a Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Enables self-healing recovery (see [`RunOptions::recovery`]).
    pub fn with_recovery(mut self, policy: &'a RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }
}

impl std::fmt::Debug for RunOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("warm_start", &self.warm_start.map(<[Cluster]>::len))
            .field("faults", &self.faults.is_some())
            .field("recorder", &self.recorder.is_some())
            .field("recovery", &self.recovery)
            .finish()
    }
}

/// Health of a completed segmentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentationStatus {
    /// No invariant guard fired.
    Ok,
    /// An invariant guard fired (a center clamp or label-range repair, a
    /// sigma-count mismatch, or a poisoned band) and no recovery attempt
    /// finished guard-clean. The label map is still valid (in-range, fully
    /// assigned).
    Degraded,
    /// Invariant guards fired, but the session's recovery engine rolled
    /// back to its checkpoint and re-ran within the retry budget until an
    /// attempt finished guard-clean — the labels are those of a clean
    /// run, not a repaired one. Only produced when a
    /// [`RecoveryPolicy`] is active (see [`RunOptions::recovery`]).
    Recovered,
}

/// Configured segmentation pipeline: parameters + algorithm + numeric mode.
///
/// # Example
///
/// ```
/// use sslic_core::{DistanceMode, RunOptions, SegmentRequest, Segmenter, SlicParams};
/// use sslic_image::synthetic::SyntheticImage;
///
/// let img = SyntheticImage::builder(64, 48).seed(2).regions(5).build();
/// let params = SlicParams::builder(80).iterations(4).build();
/// // The accelerator's datapath: S-SLIC at 8-bit precision.
/// let seg = Segmenter::sslic_ppa(params, 2)
///     .with_distance_mode(DistanceMode::quantized(8))
///     .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
/// assert_eq!(seg.labels().len(), 64 * 48);
/// ```
#[derive(Debug, Clone)]
pub struct Segmenter {
    params: SlicParams,
    algorithm: Algorithm,
    distance_mode: DistanceMode,
    preemption: Option<f32>,
}

impl Segmenter {
    /// Creates a segmenter for an explicit algorithm choice.
    pub fn new(params: SlicParams, algorithm: Algorithm) -> Self {
        if let Algorithm::SSlicPpa { subsets, .. } = algorithm {
            assert!(subsets > 0, "subset count must be nonzero");
        }
        Segmenter {
            params,
            algorithm,
            distance_mode: DistanceMode::Float,
            preemption: None,
        }
    }

    /// Original SLIC (center-perspective full scan).
    pub fn slic(params: SlicParams) -> Self {
        Self::new(params, Algorithm::SlicCpa)
    }

    /// Pixel-perspective SLIC without subsampling (gSLIC-style): S-SLIC
    /// with one subset.
    pub fn slic_ppa(params: SlicParams) -> Self {
        Self::sslic_ppa(params, 1)
    }

    /// S-SLIC with `subsets` pixel subsets (the paper's primary
    /// configuration; `subsets = 2` is "S-SLIC (0.5)", `4` is
    /// "S-SLIC (0.25)").
    ///
    /// # Panics
    ///
    /// Panics if `subsets == 0`.
    pub fn sslic_ppa(params: SlicParams, subsets: u32) -> Self {
        Self::new(
            params,
            Algorithm::SSlicPpa {
                subsets,
                strategy: SubsetStrategy::default(),
            },
        )
    }

    /// Selects the numeric mode of the distance datapath.
    pub fn with_distance_mode(mut self, mode: DistanceMode) -> Self {
        self.distance_mode = mode;
        self
    }

    /// Selects the subset layout (PPA subsampling only; no-op otherwise).
    pub fn with_subset_strategy(mut self, strategy: SubsetStrategy) -> Self {
        if let Algorithm::SSlicPpa { strategy: s, .. } = &mut self.algorithm {
            *s = strategy;
        }
        self
    }

    /// Enables Preemptive-SLIC-style per-cluster halting (Neubert &
    /// Protzel, ICPR 2014 — the paper's §8 notes the technique is
    /// orthogonal to S-SLIC and that combining them was "beyond the scope
    /// of this work"; this implementation makes the combination
    /// analyzable).
    ///
    /// A cluster whose center moves less than `threshold` pixels (L1) in
    /// one update step is frozen: it is no longer scanned (CPA) and pixels
    /// whose nine candidates are all frozen are skipped (PPA), cutting
    /// distance computations in the late, already-converged iterations.
    pub fn with_preemption(mut self, threshold: f32) -> Self {
        self.preemption = Some(threshold.max(0.0));
        self
    }

    /// The configured preemption threshold, if any.
    pub(crate) fn preemption(&self) -> Option<f32> {
        self.preemption
    }

    /// The configured parameters.
    pub fn params(&self) -> &SlicParams {
        &self.params
    }

    /// The configured algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The configured numeric mode.
    pub(crate) fn distance_mode(&self) -> DistanceMode {
        self.distance_mode
    }

}

/// The result of a segmentation run: the label map, the final cluster
/// centers, and the frame's [`FrameReport`] (iterations, phase breakdown,
/// counters, status, recovery record, kernel).
#[derive(Debug, Clone)]
pub struct Segmentation {
    labels: Plane<u32>,
    clusters: Vec<Cluster>,
    report: FrameReport,
}

impl Segmentation {
    /// Assembles a result from a finished session frame (the one-shot
    /// entry points route through here).
    pub(crate) fn from_parts(
        labels: Plane<u32>,
        clusters: Vec<Cluster>,
        report: FrameReport,
    ) -> Segmentation {
        Segmentation {
            labels,
            clusters,
            report,
        }
    }

    /// Superpixel index per pixel (indices address [`Self::clusters`]).
    pub fn labels(&self) -> &Plane<u32> {
        &self.labels
    }

    /// Final cluster centers (`[L, a, b, x, y]` per superpixel).
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Realized superpixel count (grid rounding of the requested `K`).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Everything else the run recorded: iterations, phase breakdown,
    /// counters, health, recovery record, and the kernel that ran.
    pub fn report(&self) -> &FrameReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedGrid;
    use sslic_color::hw::HwColorConverter;
    use sslic_image::synthetic::SyntheticImage;

    fn test_image() -> SyntheticImage {
        SyntheticImage::builder(64, 48).seed(0).regions(5).build()
    }

    fn params(k: usize, iters: u32) -> SlicParams {
        SlicParams::builder(k).iterations(iters).build()
    }

    #[test]
    fn all_variants_produce_valid_label_maps() {
        let img = test_image();
        for seg in [
            Segmenter::slic(params(60, 3)),
            Segmenter::slic_ppa(params(60, 3)),
            Segmenter::sslic_ppa(params(60, 4), 2),
        ] {
            let out = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            assert_eq!(out.labels().width(), 64);
            assert_eq!(out.labels().height(), 48);
            let k = out.cluster_count() as u32;
            assert!(out.labels().iter().all(|&l| l < k), "labels in range");
            assert_eq!(out.report().iterations_run(), seg.params().iterations());
        }
    }

    #[test]
    fn segmentation_is_deterministic() {
        let img = test_image();
        let seg = Segmenter::sslic_ppa(params(60, 4), 2);
        let a = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let b = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn clusters_move_toward_member_centroids() {
        let img = test_image();
        let out = Segmenter::slic_ppa(params(60, 5)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        // After convergence iterations, cluster centroids should be inside
        // the image and labels should form compact regions near centers.
        for c in out.clusters() {
            assert!(c.x >= 0.0 && c.x < 64.0);
            assert!(c.y >= 0.0 && c.y < 48.0);
        }
    }

    #[test]
    fn ppa_labels_come_from_the_nine_neighborhood() {
        let img = test_image();
        let p = SlicParams::builder(60)
            .iterations(3)
            .enforce_connectivity(false)
            .build();
        let out = Segmenter::slic_ppa(p).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let grid = SeedGrid::new(64, 48, 60);
        for y in 0..48 {
            for x in 0..64 {
                let l = out.labels()[(x, y)] as usize;
                assert!(
                    grid.nine_neighbors_of_pixel(x, y).contains(&l),
                    "pixel ({x},{y}) labeled outside its 9-neighborhood"
                );
            }
        }
    }

    #[test]
    fn sslic_counts_sub_iterations() {
        let img = test_image();
        let out = Segmenter::sslic_ppa(params(60, 6), 3).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert_eq!(out.report().counters().sub_iterations, 6);
    }

    #[test]
    fn sslic_subset_pass_touches_fraction_of_pixels() {
        let img = test_image();
        let n = (64 * 48) as u64;
        let full = Segmenter::slic_ppa(params(60, 2)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let half = Segmenter::sslic_ppa(params(60, 2), 2).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        // Same number of steps, but each S-SLIC step assigns half the
        // pixels: distance calcs are ~half.
        assert_eq!(full.report().counters().distance_calcs, 2 * n * 9);
        assert_eq!(half.report().counters().distance_calcs, n * 9);
    }

    #[test]
    fn cpa_averages_four_distance_calcs_per_pixel() {
        // Table 2's premise: the 2S×2S windows visit each pixel ~4 times
        // per iteration (interior clusters; borders reduce it slightly).
        let img = SyntheticImage::builder(96, 96).seed(1).regions(4).build();
        let p = SlicParams::builder(36)
            .iterations(1)
            .perturb_seeds(false)
            .enforce_connectivity(false)
            .build();
        let out = Segmenter::slic(p).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let per_pixel = out.report().counters().distance_calcs as f64 / (96.0 * 96.0);
        assert!(
            (3.0..=4.6).contains(&per_pixel),
            "CPA visits/pixel = {per_pixel}"
        );
    }

    #[test]
    fn ppa_does_exactly_nine_distance_calcs_per_pixel() {
        let img = test_image();
        let p = SlicParams::builder(60)
            .iterations(1)
            .enforce_connectivity(false)
            .build();
        let out = Segmenter::slic_ppa(p).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert_eq!(out.report().counters().distance_calcs, 64 * 48 * 9);
    }

    fn label_agreement(a: &Segmentation, b: &Segmentation) -> f64 {
        let agree = a
            .labels()
            .iter()
            .zip(b.labels().iter())
            .filter(|(x, y)| x == y)
            .count();
        agree as f64 / a.labels().len() as f64
    }

    #[test]
    fn quantized_8bit_tracks_float_labels_closely() {
        // Float vs 8-bit differ in *both* the color-conversion path (LUT vs
        // exact) and the distance precision; near-tie boundary pixels can
        // flip. On this small image boundaries are a large pixel fraction,
        // so require a moderate majority agreement here — the metric-level
        // claim of §6.1 (USE within 0.003) is validated in the bench
        // harness on full-size corpora.
        let img = test_image();
        let p = params(60, 4);
        let float = Segmenter::slic_ppa(p).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let quant = Segmenter::slic_ppa(p)
            .with_distance_mode(DistanceMode::quantized(8))
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let frac = label_agreement(&float, &quant);
        assert!(frac > 0.65, "8-bit agrees with float on {frac} of pixels");
    }

    #[test]
    fn distance_precision_cliff_sits_below_8_bits() {
        // Same LUT color conversion on all sides: only the distance-code
        // width differs. The paper's §6.1 finding is that 8 bits is safe
        // and degradation starts below — measured here as label agreement
        // against a 12-bit reference at SLIC-realistic superpixel size.
        let img = SyntheticImage::builder(128, 96).seed(3).regions(5).build();
        let p = params(24, 4);
        let run = |bits: u8| {
            Segmenter::slic_ppa(p)
                .with_distance_mode(DistanceMode::quantized(bits))
                .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new())
        };
        let q12 = run(12);
        let a8 = label_agreement(&q12, &run(8));
        let a6 = label_agreement(&q12, &run(6));
        assert!(a8 > 0.85, "8-bit agrees with 12-bit on {a8} of pixels");
        assert!(
            a6 < a8 - 0.1,
            "6-bit ({a6}) must be noticeably worse than 8-bit ({a8})"
        );
    }

    #[test]
    fn very_low_precision_degrades_labels() {
        let img = test_image();
        let p = params(60, 4);
        let q8 = Segmenter::slic_ppa(p)
            .with_distance_mode(DistanceMode::quantized(8))
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let q3 = Segmenter::slic_ppa(p)
            .with_distance_mode(DistanceMode::quantized(3))
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let diff = q8
            .labels()
            .iter()
            .zip(q3.labels().iter())
            .filter(|(a, b)| a != b)
            .count();
        assert!(diff > 0, "3-bit must differ from 8-bit somewhere");
    }

    #[test]
    fn connectivity_can_be_disabled() {
        let img = test_image();
        let p = SlicParams::builder(60)
            .iterations(3)
            .enforce_connectivity(false)
            .build();
        let out = Segmenter::slic_ppa(p).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        // With connectivity off the connectivity phase records zero time.
        assert_eq!(
            out.report().breakdown().phase_time(crate::profile::Phase::Connectivity),
            std::time::Duration::ZERO
        );
    }

    #[test]
    fn breakdown_records_assignment_and_update_time() {
        let img = test_image();
        let out = Segmenter::slic_ppa(params(60, 3)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        use crate::profile::Phase;
        let breakdown = out.report().breakdown();
        assert!(breakdown.phase_time(Phase::DistanceMin) > std::time::Duration::ZERO);
        assert!(breakdown.phase_time(Phase::CenterUpdate) > std::time::Duration::ZERO);
    }

    #[test]
    fn bands_strategy_is_selectable() {
        let img = test_image();
        let seg = Segmenter::sslic_ppa(params(60, 4), 2)
            .with_subset_strategy(SubsetStrategy::Bands);
        match seg.algorithm() {
            Algorithm::SSlicPpa { strategy, .. } => {
                assert_eq!(strategy, SubsetStrategy::Bands)
            }
            _ => panic!("wrong algorithm"),
        }
        let out = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert_eq!(out.labels().len(), 64 * 48);
    }

    #[test]
    fn preemption_freezes_clusters_and_cuts_distance_work() {
        let img = test_image();
        let plain = Segmenter::slic_ppa(params(60, 10)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let preempted = Segmenter::slic_ppa(params(60, 10))
            .with_preemption(0.5)
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert_eq!(plain.report().frozen_clusters(), 0);
        assert!(
            preempted.report().frozen_clusters() > 0,
            "some clusters should converge and freeze within 10 iterations"
        );
        assert!(
            preempted.report().counters().distance_calcs < plain.report().counters().distance_calcs,
            "frozen neighborhoods skip distance computations"
        );
    }

    #[test]
    fn preemption_barely_changes_the_result() {
        let img = test_image();
        let plain = Segmenter::slic_ppa(params(60, 10)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let preempted = Segmenter::slic_ppa(params(60, 10))
            .with_preemption(0.25)
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let agree = plain
            .labels()
            .iter()
            .zip(preempted.labels().iter())
            .filter(|(a, b)| a == b)
            .count() as f64
            / plain.labels().len() as f64;
        assert!(agree > 0.9, "preemption is near-lossless: {agree}");
    }

    #[test]
    fn preemption_composes_with_subsampling() {
        // The combination the paper's §8 left unanalyzed.
        let img = test_image();
        let combined = Segmenter::sslic_ppa(params(60, 12), 2)
            .with_preemption(0.5)
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let sslic_only = Segmenter::sslic_ppa(params(60, 12), 2).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert!(
            combined.report().counters().distance_calcs
                <= sslic_only.report().counters().distance_calcs
        );
        let k = combined.cluster_count() as u32;
        assert!(combined.labels().iter().all(|&l| l < k));
    }

    #[test]
    fn measured_counters_match_the_analytic_prediction() {
        use crate::instrument::predict_ppa_distance_calcs;
        let img = test_image();
        for subsets in [1u32, 2, 3] {
            for strategy in [
                SubsetStrategy::Interleaved,
                SubsetStrategy::Checkerboard,
                SubsetStrategy::Bands,
            ] {
                let seg = if subsets == 1 {
                    Segmenter::slic_ppa(params(60, 5))
                } else {
                    Segmenter::sslic_ppa(params(60, 5), subsets)
                        .with_subset_strategy(strategy)
                };
                let out = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                let predicted =
                    predict_ppa_distance_calcs(64, 48, 5, subsets, strategy);
                if subsets == 1 {
                    // Strategy irrelevant for one subset.
                    assert_eq!(out.report().counters().distance_calcs, 64 * 48 * 5 * 9);
                } else {
                    assert_eq!(
                        out.report().counters().distance_calcs,
                        predicted,
                        "P={subsets} {strategy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_start_matches_cold_quality_on_similar_frames() {
        // "Frame t+1": the same scene, slightly different noise.
        let frame0 = SyntheticImage::builder(64, 48).seed(0).regions(5).build();
        let frame1 = SyntheticImage::builder(64, 48)
            .seed(0)
            .regions(5)
            .noise_sigma(7.0)
            .build();
        let seg10 = Segmenter::slic_ppa(params(60, 10));
        let cold1 = seg10.run(SegmentRequest::Rgb(&frame1.rgb), &RunOptions::new());
        let prev = seg10.run(SegmentRequest::Rgb(&frame0.rgb), &RunOptions::new());
        let warm1 = Segmenter::slic_ppa(params(60, 2)).run(
            SegmentRequest::Rgb(&frame1.rgb),
            &RunOptions::new().with_warm_start(prev.clusters()),
        );
        let agree = warm1
            .labels()
            .iter()
            .zip(cold1.labels().iter())
            .filter(|(a, b)| a == b)
            .count() as f64
            / cold1.labels().len() as f64;
        assert!(
            agree > 0.8,
            "2 warm steps track 10 cold steps on a similar frame: {agree}"
        );
    }

    #[test]
    #[should_panic(expected = "warm start must carry")]
    fn warm_start_with_wrong_cluster_count_panics() {
        let img = test_image();
        let seg = Segmenter::slic_ppa(params(60, 2));
        let _ = seg.run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_warm_start(&[Cluster::default(); 3]),
        );
    }

    #[test]
    #[should_panic(expected = "subset count")]
    fn zero_subsets_panics() {
        let _ = Segmenter::sslic_ppa(params(60, 2), 0);
    }

    #[test]
    fn more_superpixels_than_pixels_yields_valid_degenerate_map() {
        // K far beyond the pixel count: the grid clamps to one seed per
        // pixel-ish cell and the run must still produce an in-range, fully
        // assigned label map instead of panicking.
        let img = SyntheticImage::builder(4, 4).seed(0).regions(2).build();
        let p = SlicParams::builder(64).iterations(2).build();
        let out = Segmenter::slic_ppa(p).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let k = out.cluster_count() as u32;
        assert!(k >= 1);
        assert_eq!(out.labels().len(), 16);
        assert!(out.labels().iter().all(|&l| l < k));
    }

    #[test]
    fn noop_fault_hook_is_bit_identical() {
        struct Noop;
        impl StepFaults for Noop {}
        let img = test_image();
        for seg in [
            Segmenter::slic_ppa(params(60, 4)),
            Segmenter::sslic_ppa(params(60, 4), 2)
                .with_distance_mode(DistanceMode::quantized(8)),
        ] {
            let clean = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            let hooked = seg.run(
                SegmentRequest::Rgb(&img.rgb),
                &RunOptions::new().with_faults(&Noop),
            );
            assert_eq!(clean.labels(), hooked.labels());
            assert_eq!(clean.clusters(), hooked.clusters());
            assert_eq!(hooked.report().status(), SegmentationStatus::Ok);
            assert_eq!(hooked.report().invariant_repairs(), 0);
        }
    }

    #[test]
    fn fault_free_runs_report_ok_status() {
        let img = test_image();
        let out = Segmenter::slic_ppa(params(60, 3)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert_eq!(out.report().status(), SegmentationStatus::Ok);
        assert_eq!(out.report().invariant_repairs(), 0);
    }

    #[test]
    fn corrupted_centers_are_repaired_and_flagged() {
        struct Smash;
        impl StepFaults for Smash {
            fn corrupt_centers(&self, step: u32, clusters: &mut [Cluster]) {
                if step == 0 {
                    clusters[0].x = f32::NAN;
                    clusters[1].y = 1.0e9;
                    clusters[2].l = f32::INFINITY;
                }
            }
        }
        let img = test_image();
        let out = Segmenter::slic_ppa(params(60, 3)).run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_faults(&Smash),
        );
        assert_eq!(out.report().status(), SegmentationStatus::Degraded);
        assert!(out.report().invariant_repairs() >= 3);
        for c in out.clusters() {
            assert!(c.x.is_finite() && (0.0..64.0).contains(&c.x));
            assert!(c.y.is_finite() && (0.0..48.0).contains(&c.y));
            assert!(c.l.is_finite() && (0.0..=100.0).contains(&c.l));
        }
        let k = out.cluster_count() as u32;
        assert!(out.labels().iter().all(|&l| l < k));
    }

    #[test]
    fn corrupted_lab8_still_yields_valid_labels() {
        struct Noise;
        impl StepFaults for Noise {
            fn corrupt_lab8(&self, lab8: &mut Lab8Image) {
                for (i, v) in lab8.l.as_mut_slice().iter_mut().enumerate() {
                    if i % 7 == 0 {
                        *v ^= 0x80;
                    }
                }
            }
        }
        let img = test_image();
        let seg = Segmenter::sslic_ppa(params(60, 4), 2)
            .with_distance_mode(DistanceMode::quantized(8));
        let out = seg.run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_faults(&Noise),
        );
        let k = out.cluster_count() as u32;
        assert!(out.labels().iter().all(|&l| l < k));
        let clean = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        assert_ne!(clean.labels(), out.labels(), "corruption must be visible");
    }

    #[test]
    fn lab8_request_matches_rgb_in_quantized_mode() {
        let img = test_image();
        let seg = Segmenter::slic_ppa(params(60, 3))
            .with_distance_mode(DistanceMode::quantized(8));
        let via_rgb = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let lab8 = HwColorConverter::paper_default().convert_image(&img.rgb);
        let via_lab8 = seg.run(SegmentRequest::Lab8(&lab8), &RunOptions::new());
        assert_eq!(via_rgb.labels(), via_lab8.labels());
    }

    #[test]
    fn steps_per_full_pass() {
        assert_eq!(Algorithm::SlicCpa.steps_per_full_pass(), 1);
        assert_eq!(
            Algorithm::SSlicPpa {
                subsets: 4,
                strategy: SubsetStrategy::Interleaved
            }
            .steps_per_full_pass(),
            4
        );
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let img = test_image();
        let mut baseline: Option<Segmentation> = None;
        for threads in [1usize, 2, 3, 8] {
            let p = SlicParams::builder(60)
                .iterations(4)
                .threads(threads)
                .build();
            let out =
                Segmenter::sslic_ppa(p, 2).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
            if let Some(base) = &baseline {
                assert_eq!(base.labels(), out.labels(), "threads = {threads}");
                assert_eq!(base.clusters(), out.clusters(), "threads = {threads}");
            } else {
                baseline = Some(out);
            }
        }
    }
}
