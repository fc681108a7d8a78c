//! The fault sweep: segmentation quality as a function of fault rate and
//! protection scheme, on both the software engine and the functional
//! hardware model.
//!
//! Everything here is deterministic: the synthetic scenes, the fault
//! plans, and the injection itself all derive from [`SweepConfig::seed`],
//! so two runs of [`run_sweep`] with the same config produce identical
//! [`SweepResult`]s (and, through [`crate::report`], byte-identical
//! reports).

use sslic_core::{RecoveryPolicy, RunOptions, SegmentRequest, SegmentationStatus, Segmenter};
use sslic_hw::accel::{Accelerator, AcceleratorConfig};
use sslic_hw::scratchpad::Protection;
use sslic_image::synthetic::SyntheticImage;
use sslic_metrics::{boundary_recall, undersegmentation_error};

use sslic_color::hw::HwColorConverter;
use sslic_core::DistanceMode;

use crate::hooks::{corrupt_color_lut, EngineFaults, HwFaults};
use crate::plan::{FaultKind, FaultPlan, FaultSite};
use crate::protect::ProtectionStats;

/// Boundary-recall tolerance (pixels) used for all sweep points.
const BR_TOLERANCE: usize = 2;

/// Geometry, workload, and axis definition of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Master seed: drives the synthetic scene and every fault plan.
    pub seed: u64,
    /// Scene width in pixels.
    pub width: usize,
    /// Scene height in pixels.
    pub height: usize,
    /// Ground-truth region count of the synthetic scene.
    pub regions: usize,
    /// Target superpixel count `K`.
    pub superpixels: usize,
    /// Center-update steps.
    pub iterations: u32,
    /// S-SLIC subset count.
    pub subsets: u32,
    /// Fault-rate axis, in parts per million per addressable word.
    pub rates_ppm: Vec<u32>,
    /// Protection-scheme axis for the hardware model.
    pub protections: Vec<Protection>,
}

impl SweepConfig {
    /// A seconds-scale smoke configuration (used by CI).
    pub fn smoke(seed: u64) -> Self {
        SweepConfig {
            seed,
            width: 64,
            height: 48,
            regions: 5,
            superpixels: 60,
            iterations: 4,
            subsets: 2,
            rates_ppm: vec![0, 200, 2_000, 20_000],
            protections: vec![
                Protection::Unprotected,
                Protection::Parity,
                Protection::Secded,
            ],
        }
    }

    /// A denser configuration for offline characterization.
    pub fn full(seed: u64) -> Self {
        SweepConfig {
            width: 160,
            height: 120,
            regions: 8,
            superpixels: 150,
            iterations: 6,
            rates_ppm: vec![0, 50, 200, 1_000, 5_000, 20_000, 100_000],
            ..SweepConfig::smoke(seed)
        }
    }

    /// The fault plan exercised at one rate point. The per-site rates are
    /// scaled so the large sites (pixel words) do not completely drown the
    /// small ones (sigma registers, burst groups) at equal `rate_ppm`.
    pub(crate) fn plan_at(&self, rate_ppm: u32) -> FaultPlan {
        FaultPlan::new(self.seed)
            .with(FaultSite::ColorLut, FaultKind::SingleBitFlip, rate_ppm)
            .with(FaultSite::PixelFeature, FaultKind::SingleBitFlip, rate_ppm)
            .with(
                FaultSite::SigmaRegister,
                FaultKind::SingleBitFlip,
                rate_ppm / 8,
            )
            .with(FaultSite::ScratchpadWord, FaultKind::SingleBitFlip, rate_ppm)
            .with(
                FaultSite::ScratchpadWord,
                FaultKind::MultiBitFlip { bits: 2 },
                rate_ppm / 4,
            )
            .with(
                FaultSite::DramBurst,
                FaultKind::Burst { span: 8 },
                rate_ppm / 8,
            )
    }
}

/// One hardware-model sweep point: a `(fault rate, protection)` pair.
#[derive(Debug, Clone)]
pub struct HwPoint {
    /// Fault rate of this point, parts per million.
    pub rate_ppm: u32,
    /// Protection scheme of this point.
    pub protection: Protection,
    /// Undersegmentation error against the synthetic ground truth.
    pub undersegmentation_error: f64,
    /// Boundary recall against the synthetic ground truth.
    pub boundary_recall: f64,
    /// Protected-read outcome tallies.
    pub stats: ProtectionStats,
    /// DRAM retry bursts charged for detected errors.
    pub retry_bursts: u64,
    /// Out-of-range labels repaired at readout.
    pub label_repairs: u64,
    /// Total scratchpad energy (µJ), including protection and retry
    /// overheads.
    pub sram_energy_uj: f64,
}

/// One engine sweep point (protection-independent: the engine models the
/// raw algorithmic datapath).
#[derive(Debug, Clone)]
pub struct EnginePoint {
    /// Fault rate of this point, parts per million.
    pub rate_ppm: u32,
    /// Undersegmentation error against the synthetic ground truth.
    pub undersegmentation_error: f64,
    /// Boundary recall against the synthetic ground truth.
    pub boundary_recall: f64,
    /// Whether the engine flagged the run as degraded.
    pub degraded: bool,
    /// Invariant repairs (center clamps + label-range fixes) performed.
    pub repairs: u64,
    /// Gamma-LUT entries corrupted before conversion.
    pub lut_entries_corrupted: u64,
    /// Pixel bytes and center fields corrupted during iteration.
    pub injected_words: u64,
}

/// Retry budget of the sweep's recovered-quality curve.
pub(crate) const SWEEP_RECOVERY_RETRIES: u32 = 2;

/// One recovery-enabled engine sweep point: the same plan and workload as
/// the matching [`EnginePoint`], re-run under a
/// [`RecoveryPolicy`] so the curves compare
/// recovery-off against recovery-on quality.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Fault rate of this point, parts per million.
    pub rate_ppm: u32,
    /// Undersegmentation error against the synthetic ground truth.
    pub undersegmentation_error: f64,
    /// Boundary recall against the synthetic ground truth.
    pub boundary_recall: f64,
    /// Recovery outcome (`clean`, `recovered`, or `failed`).
    pub outcome: String,
    /// Invariant-guard firings summed over every attempt.
    pub guards_fired: u64,
    /// Frame re-runs taken by the policy.
    pub retries: u64,
    /// Cold-restart escalations among the retries.
    pub escalations: u64,
}

/// The full result of one sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The configuration that produced it.
    pub config: SweepConfig,
    /// Hardware-model points, in `rates_ppm` × `protections` order.
    pub hw: Vec<HwPoint>,
    /// Engine points, in `rates_ppm` order.
    pub engine: Vec<EnginePoint>,
    /// Recovery-enabled engine points, in `rates_ppm` order.
    pub recovered: Vec<RecoveryPoint>,
}

/// Runs the sweep described by `config`.
pub fn run_sweep(config: &SweepConfig) -> SweepResult {
    let scene = SyntheticImage::builder(config.width, config.height)
        .seed(config.seed)
        .regions(config.regions)
        .build();

    let mut hw = Vec::new();
    for &rate in &config.rates_ppm {
        let plan = config.plan_at(rate);
        for &protection in &config.protections {
            let mut cfg = AcceleratorConfig::new(config.superpixels);
            cfg.iterations = config.iterations;
            cfg.subsets = config.subsets;
            cfg.protection = protection;
            let accel = Accelerator::new(cfg);
            let mut faults = HwFaults::new(&plan, protection);
            let run = accel.process_with_faults(&scene.rgb, &mut faults);
            hw.push(HwPoint {
                rate_ppm: rate,
                protection,
                undersegmentation_error: undersegmentation_error(
                    &run.labels,
                    &scene.ground_truth,
                ),
                boundary_recall: boundary_recall(&run.labels, &scene.ground_truth, BR_TOLERANCE),
                stats: faults.stats,
                retry_bursts: run.retry_bursts,
                label_repairs: run.label_repairs,
                sram_energy_uj: run.scratchpads.energy_uj(),
            });
        }
    }

    let params = sslic_core::SlicParams::builder(config.superpixels)
        .iterations(config.iterations)
        .build();
    let segmenter = Segmenter::sslic_ppa(params, config.subsets)
        .with_distance_mode(DistanceMode::quantized(8));
    let mut engine = Vec::new();
    for &rate in &config.rates_ppm {
        let plan = config.plan_at(rate);
        let mut conv = HwColorConverter::paper_default();
        let lut_entries_corrupted = corrupt_color_lut(&plan, &mut conv);
        let lab8 = conv.convert_image(&scene.rgb);
        let faults = EngineFaults::new(&plan);
        let seg = segmenter.run(
            SegmentRequest::Lab8(&lab8),
            &RunOptions::new().with_faults(&faults),
        );
        engine.push(EnginePoint {
            rate_ppm: rate,
            undersegmentation_error: undersegmentation_error(seg.labels(), &scene.ground_truth),
            boundary_recall: boundary_recall(seg.labels(), &scene.ground_truth, BR_TOLERANCE),
            degraded: seg.report().status() == SegmentationStatus::Degraded,
            repairs: seg.report().invariant_repairs(),
            lut_entries_corrupted,
            injected_words: faults.injected_words(),
        });
    }

    // The recovered-quality curve: identical workload and plans, but the
    // engine runs under the bounded retry policy, so the USE/BR deltas
    // against `engine` isolate what self-healing buys at each rate.
    let policy = RecoveryPolicy::new(SWEEP_RECOVERY_RETRIES);
    let mut recovered = Vec::new();
    for &rate in &config.rates_ppm {
        let plan = config.plan_at(rate);
        let mut conv = HwColorConverter::paper_default();
        corrupt_color_lut(&plan, &mut conv);
        let lab8 = conv.convert_image(&scene.rgb);
        let faults = EngineFaults::new(&plan);
        let seg = segmenter.run(
            SegmentRequest::Lab8(&lab8),
            &RunOptions::new().with_faults(&faults).with_recovery(&policy),
        );
        let rec = seg.report().recovery();
        recovered.push(RecoveryPoint {
            rate_ppm: rate,
            undersegmentation_error: undersegmentation_error(seg.labels(), &scene.ground_truth),
            boundary_recall: boundary_recall(seg.labels(), &scene.ground_truth, BR_TOLERANCE),
            outcome: rec.outcome.as_str().to_string(),
            guards_fired: rec.guards_fired,
            retries: u64::from(rec.retries),
            escalations: u64::from(rec.escalations),
        });
    }

    SweepResult {
        config: config.clone(),
        hw,
        engine,
        recovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_covers_the_full_grid() {
        let cfg = SweepConfig::smoke(3);
        let result = run_sweep(&cfg);
        assert_eq!(result.hw.len(), cfg.rates_ppm.len() * cfg.protections.len());
        assert_eq!(result.engine.len(), cfg.rates_ppm.len());
        assert_eq!(result.recovered.len(), cfg.rates_ppm.len());
        for p in &result.hw {
            assert!(p.undersegmentation_error.is_finite());
            assert!((0.0..=1.0).contains(&p.boundary_recall));
        }
    }

    #[test]
    fn zero_rate_points_are_fault_free() {
        let mut cfg = SweepConfig::smoke(11);
        cfg.rates_ppm = vec![0];
        let result = run_sweep(&cfg);
        for p in &result.hw {
            assert_eq!(p.stats.corrupted_reads(), 0);
            assert_eq!(p.retry_bursts, 0);
            assert_eq!(p.label_repairs, 0);
        }
        assert!(!result.engine[0].degraded);
        assert_eq!(result.engine[0].injected_words, 0);
        assert_eq!(result.engine[0].lut_entries_corrupted, 0);
        let r = &result.recovered[0];
        assert_eq!(r.outcome, "clean");
        assert_eq!((r.guards_fired, r.retries, r.escalations), (0, 0, 0));
    }

    #[test]
    fn stronger_protection_never_passes_more_corruption() {
        let mut cfg = SweepConfig::smoke(7);
        cfg.rates_ppm = vec![20_000];
        let result = run_sweep(&cfg);
        let by_scheme = |p: Protection| {
            result
                .hw
                .iter()
                .find(|pt| pt.protection == p)
                .map(|pt| pt.stats.corrupted_reads())
                .unwrap_or(u64::MAX)
        };
        let raw = by_scheme(Protection::Unprotected);
        let parity = by_scheme(Protection::Parity);
        let secded = by_scheme(Protection::Secded);
        assert!(raw >= parity, "unprotected {raw} < parity {parity}");
        assert!(parity >= secded, "parity {parity} < secded {secded}");
    }
}
