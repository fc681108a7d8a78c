//! Per-layer readings of the engine, taken from outside the program: the
//! phase breakdown and counters every frame report already carries, plus
//! the colour-conversion and seeding layers timed by calling their public
//! functions on the same input the engine just segmented. Both workloads
//! run the quantized datapath, so the probe follows its colour path:
//! `HwColorConverter` into 8-bit codes, then `Lab8Image::decode_into`.

use sslic_color::{float, hw::HwColorConverter, Lab8Image, LabImage};
use sslic_core::instrument::{RunCounters, TrafficModel};
use sslic_core::profile::{PhaseBreakdown, PHASES};
use sslic_core::{init_clusters, SeedGrid, Segmenter};
use sslic_image::RgbImage;

use crate::{ms, stats, timed, Layers};

/// Accumulates the engine-layer readings of a traced loop.
pub struct EngineProbe {
    perturb: bool,
    grid: SeedGrid,
    converter: HwColorConverter,
    lab8: Lab8Image,
    lab: LabImage,
    /// Scratch for timing the float converter, which neither workload's
    /// engine runs; `None` unless asked for.
    float_lab: Option<LabImage>,
    frames: u64,
    phase_ms: [Vec<f64>; 5],
    unattributed_ms: Vec<f64>,
    hw_convert_ms: Vec<f64>,
    float_convert_ms: Vec<f64>,
    decode_ms: Vec<f64>,
    init_clusters_total_ms: f64,
    counters: RunCounters,
    iterations: u64,
    hw8_bytes: u64,
}

impl EngineProbe {
    /// A probe for frames of `width × height` segmented by `seg`, with
    /// its own conversion scratch so it never touches the engine's.
    pub fn new(seg: &Segmenter, width: usize, height: usize) -> Self {
        EngineProbe {
            perturb: seg.params().perturb_seeds(),
            grid: SeedGrid::new(width, height, seg.params().superpixels()),
            converter: HwColorConverter::paper_default(),
            lab8: Lab8Image::from_fn(width, height, |_, _| [0; 3]),
            lab: LabImage::from_fn(width, height, |_, _| [0.0; 3]),
            float_lab: None,
            frames: 0,
            phase_ms: Default::default(),
            unattributed_ms: Vec::new(),
            hw_convert_ms: Vec::new(),
            float_convert_ms: Vec::new(),
            decode_ms: Vec::new(),
            init_clusters_total_ms: 0.0,
            counters: RunCounters::default(),
            iterations: 0,
            hw8_bytes: 0,
        }
    }

    /// Also times `float::convert_image_into` on every observed frame.
    pub fn with_float_converter(mut self) -> Self {
        self.float_lab = Some(self.lab.clone());
        self
    }

    /// Books one engine frame that took `frame_ms` from outside: its phase
    /// breakdown and counters, then times the colour layer on `rgb` — and
    /// `init_clusters`, when the engine seeded this frame `cold`.
    pub fn observe(
        &mut self,
        rgb: &RgbImage,
        cold: bool,
        breakdown: &PhaseBreakdown,
        counters: &RunCounters,
        iterations_run: u32,
        frame_ms: f64,
    ) {
        self.frames += 1;
        let mut attributed = 0.0;
        for (samples, &phase) in self.phase_ms.iter_mut().zip(PHASES.iter()) {
            let t = ms(breakdown.phase_time(phase));
            attributed += t;
            samples.push(t);
        }
        self.unattributed_ms.push(frame_ms - attributed);
        self.counters += *counters;
        self.iterations += u64::from(iterations_run);
        self.hw8_bytes += TrafficModel::hw_8bit().bytes(counters).total();

        let ((), t) = timed(|| self.converter.convert_image_into(rgb, &mut self.lab8));
        self.hw_convert_ms.push(t);
        let ((), t) = timed(|| self.lab8.decode_into(&mut self.lab));
        self.decode_ms.push(t);
        if let Some(lab) = self.float_lab.as_mut() {
            let ((), t) = timed(|| float::convert_image_into(rgb, lab));
            self.float_convert_ms.push(t);
        }
        if cold {
            let (clusters, t) = timed(|| init_clusters(&self.lab, &self.grid, self.perturb));
            std::hint::black_box(clusters);
            self.init_clusters_total_ms += t;
        }
    }

    /// Writes the engine-layer metrics: medians per frame for times,
    /// means per frame for counts, and `init_clusters` amortised over
    /// every frame (near 0 when most frames warm-start).
    pub fn finish(&self, layers: &mut Layers) {
        let keys = [
            "core.color_conversion_ms",
            "core.init_ms",
            "core.distance_min_ms",
            "core.center_update_ms",
            "core.connectivity_ms",
        ];
        for (key, samples) in keys.iter().zip(&self.phase_ms) {
            layers.insert(key, stats::median(samples));
        }
        layers.insert("core.unattributed_ms", stats::median(&self.unattributed_ms));
        layers.insert("color.hw_convert_ms", stats::median(&self.hw_convert_ms));
        layers.insert(
            "color.float_convert_ms",
            stats::median(&self.float_convert_ms),
        );
        layers.insert("color.lab8_decode_ms", stats::median(&self.decode_ms));
        let n = self.frames.max(1) as f64;
        layers.insert("core.init_clusters_ms", self.init_clusters_total_ms / n);
        let c = &self.counters;
        layers.insert("core.distance_calcs", c.distance_calcs as f64 / n);
        layers.insert("core.pixel_color_reads", c.pixel_color_reads as f64 / n);
        layers.insert("core.center_updates", c.center_updates as f64 / n);
        layers.insert("core.iterations_run", self.iterations as f64 / n);
        layers.insert("core.hw8_bytes", self.hw8_bytes as f64 / n);
    }
}
