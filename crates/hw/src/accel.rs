//! Functional simulator of the S-SLIC accelerator.
//!
//! Unlike the analytic [`crate::sim::FrameSimulator`], this module pushes
//! actual pixels through the architecture of Figure 4, following the FSM
//! schedule of §4.3:
//!
//! 1. **Color conversion** — RGB streams from external memory into the
//!    channel scratchpads, through the LUT conversion unit, and back as
//!    8-bit L, a, b.
//! 2. **Static initialization** — the pixel → 9-closest-centers tiling is
//!    precomputed (the paper stores it in external memory; here it is the
//!    [`sslic_core::SeedGrid`]), and the initial centers sample the seed
//!    pixels.
//! 3. **Cluster update** — per step, the pixels of that step's S-SLIC
//!    subset stream through the Cluster Update Unit: 9 distance codes per
//!    pixel, the 9:1 minimum, the 6-field sigma accumulation, and the
//!    index write-back.
//! 4. **Center update** — the sigma registers are averaged with rounded
//!    integer division into new center codes.
//!
//! Every cycle and DRAM byte comes from the streaming schedule that
//! `FrameSimulator` charges too, so the two models agree exactly on one
//! configuration. This module adds only what a run observes: its fault
//! hooks' retry bursts and the scratchpad accesses of each step's subset.
//!
//! The distance datapath is shared with the software engine
//! ([`sslic_core::QuantKernel`]), but the centers are not: the engine
//! averages decoded `f32` values, this simulator divides integer sigma sums
//! with rounded division. Their label maps agree closely, not exactly
//! (`tests/hw_equivalence.rs`; ROADMAP.md item 1).

use sslic_color::hw::HwColorConverter;
use sslic_core::{ClusterCodes, QuantKernel};
use sslic_fixed::rounded_div;
use sslic_image::{Plane, RgbImage};
use sslic_obs::{LogicalClock, Recorder, Value};

use crate::cluster::ClusterUnitConfig;
use crate::dram::{DramModel, DramTraffic};
use crate::faults::MemFaults;
use crate::model;
use crate::schedule::Schedule;
use crate::scratchpad::{Protection, ScratchpadSet};

/// Bytes of the DRAM burst charged per detected-error re-fetch (one
/// minimum-size transfer of the memory model).
const RETRY_BURST_BYTES: u64 = 32;

/// Configuration of the functional accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Target superpixel count `K`.
    pub superpixels: usize,
    /// Compactness weight `m` of Eq. 5.
    pub compactness: f32,
    /// Number of center-update steps (sub-iterations when `subsets > 1`).
    pub iterations: u32,
    /// S-SLIC pixel-subset count `P` (1 = plain pixel-perspective SLIC).
    pub subsets: u32,
    /// Per-channel scratchpad bytes (= pixels per tile).
    pub buffer_bytes_per_channel: usize,
    /// Cluster Update Unit parallelism.
    pub cluster_config: ClusterUnitConfig,
    /// Width of the distance codes compared by the minimum unit.
    pub distance_bits: u8,
    /// Word-protection scheme of the four scratchpads (area/energy
    /// overheads fold into the PPA accounting; detection/correction
    /// semantics apply under [`Accelerator::process_with_faults`]).
    pub protection: Protection,
}

impl AcceleratorConfig {
    /// The paper's design point for `superpixels` target superpixels:
    /// m = 10, 9 iterations, subsampling ratio 0.5, 4 kB buffers, the
    /// 9-9-6 unit, 8-bit distances.
    pub fn new(superpixels: usize) -> Self {
        AcceleratorConfig {
            superpixels,
            compactness: 10.0,
            iterations: 9,
            subsets: 2,
            buffer_bytes_per_channel: 4 * 1024,
            cluster_config: ClusterUnitConfig::c9_9_6(),
            distance_bits: 8,
            protection: Protection::Unprotected,
        }
    }
}

/// The functional accelerator simulator.
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Creates the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the superpixel, iteration, or subset count or the buffer
    /// size is zero.
    pub fn new(config: AcceleratorConfig) -> Self {
        assert!(config.superpixels > 0, "superpixel count must be nonzero");
        assert!(config.iterations > 0, "iteration count must be nonzero");
        assert!(config.subsets > 0, "subset count must be nonzero");
        assert!(
            config.buffer_bytes_per_channel > 0,
            "buffer size must be nonzero"
        );
        Accelerator { config }
    }

    /// Processes one frame, producing the label map and the full cycle,
    /// traffic, and energy accounting.
    pub fn process(&self, img: &RgbImage) -> AcceleratorRun {
        self.process_impl(img, None, None)
    }

    /// [`Self::process`] with an observability recorder attached: the FSM
    /// phases emit spans stamped with the modeled cycle counter, each
    /// streaming step emits a `hw.dma.stream` traffic event and a
    /// `hw.stall` what-if (the DMA cycles a double-buffered stream could
    /// not hide behind compute), and the scratchpads report occupancy
    /// counters. The simulator is serial, so the emission schedule — and a
    /// deterministic-mode trace — is a pure function of the frame.
    /// Recording never changes the run output.
    pub fn process_traced(&self, img: &RgbImage, recorder: &Recorder) -> AcceleratorRun {
        self.process_impl(img, None, Some(recorder))
    }

    /// [`Self::process`] with memory fault-injection hooks active: every
    /// channel-memory read and the final index readout route through
    /// `faults`. Detected errors are charged one DRAM retry burst plus a
    /// scratchpad retry; out-of-range labels surviving the readout are
    /// repaired to the pixel's home cluster (counted in
    /// [`AcceleratorRun::label_repairs`]). With default (no-op) hooks the
    /// label map and centers are bit-identical to [`Self::process`]; the
    /// accounting additionally charges the modeled index readout pass.
    pub fn process_with_faults(&self, img: &RgbImage, faults: &mut dyn MemFaults) -> AcceleratorRun {
        self.process_impl(img, Some(faults), None)
    }

    fn process_impl(
        &self,
        img: &RgbImage,
        mut faults: Option<&mut dyn MemFaults>,
        recorder: Option<&Recorder>,
    ) -> AcceleratorRun {
        let cfg = &self.config;
        let (w, h) = (img.width(), img.height());
        let n = (w * h) as u64;
        let schedule = Schedule::new(w, h, cfg.superpixels, cfg.subsets, cfg.buffer_bytes_per_channel);
        let (grid, partition) = (&schedule.grid, &schedule.partition);

        let mut scratchpads =
            ScratchpadSet::new(cfg.buffer_bytes_per_channel).with_protection(cfg.protection);
        let mut retry_bursts = 0u64;
        let mut label_repairs = 0u64;

        // The simulator is serial, so every emission below happens at a
        // fixed point of the FSM schedule; clocks carry the modeled cycle
        // counter (truncated to whole cycles), never wall time.
        if let Some(rec) = recorder {
            rec.span_begin(
                "hw.frame",
                LogicalClock::cycle(0),
                vec![
                    ("width", Value::U64(w as u64)),
                    ("height", Value::U64(h as u64)),
                    ("superpixels", Value::U64(cfg.superpixels as u64)),
                    ("tile_pixels", Value::U64(cfg.buffer_bytes_per_channel as u64)),
                ],
            );
            rec.span_begin("hw.color", LogicalClock::cycle(0), Vec::new());
        }

        // --- Phase 1: color conversion -----------------------------------
        let lab8 = HwColorConverter::paper_default().convert_image(img);
        let mut traffic = schedule.color_traffic();
        let color_cycles = schedule.color_cycles(1);

        if let Some(rec) = recorder {
            let clock = LogicalClock::cycle(color_cycles as u64);
            dma_stream(rec, clock, "color", &traffic);
            rec.span_end(
                "hw.color",
                clock,
                vec![("cycles", Value::U64(color_cycles as u64))],
            );
        }

        // --- Phase 2: static initialization ------------------------------
        let kernel = QuantKernel::new(8, cfg.distance_bits, cfg.compactness, grid.spacing());
        let mut centers: Vec<ClusterCodes> = (0..grid.cluster_count())
            .map(|k| {
                let (fx, fy) = grid.seed_position(k);
                let x = (fx as usize).min(w - 1);
                let y = (fy as usize).min(h - 1);
                let [l, a, b] = lab8.pixel(x, y);
                ClusterCodes {
                    l: kernel.truncate_channel(l),
                    a: kernel.truncate_channel(a),
                    b: kernel.truncate_channel(b),
                    x: x as i32,
                    y: y as i32,
                }
            })
            .collect();
        let column_cells = grid.column_cells();
        let mut labels = Plane::filled(w, h, 0u32);
        for (y, row) in labels.as_mut_slice().chunks_exact_mut(w).enumerate() {
            for (label, home) in row.iter_mut().zip(grid.home_row(&column_cells, y)) {
                *label = home;
            }
        }

        // --- Phases 3 & 4: cluster + center updates ----------------------
        let mut assign_cycles = 0.0f64;
        let mut center_cycles = 0.0f64;
        let mut sigma = vec![[0i64; 6]; centers.len()];
        for step in 0..cfg.iterations {
            let subset = partition.subset_for_step(step);
            for s in sigma.iter_mut() {
                *s = [0; 6];
            }
            let step_pixels = schedule.step_pixels(step);
            let step_traffic = schedule.step_traffic(step);
            let step_start_cycles = color_cycles + assign_cycles + center_cycles;
            if let Some(rec) = recorder {
                rec.span_begin(
                    "hw.step",
                    LogicalClock::step(step).with_cycle(step_start_cycles as u64),
                    vec![
                        ("subset", Value::U64(subset as u64)),
                        ("step_pixels", Value::U64(step_pixels)),
                    ],
                );
            }

            traffic += step_traffic;
            for y in 0..h {
                let Some((first, stride)) = partition.row_members(y, subset) else {
                    continue;
                };
                for x in (first..w).step_by(stride) {
                    let mut px = lab8.pixel(x, y);
                    if let Some(f) = faults.as_deref_mut() {
                        let addr = (y * w + x) as u64;
                        for (c, pad) in scratchpads.channels_mut().into_iter().enumerate() {
                            let read = f.channel_read(step, c as u8, addr, px[c]);
                            px[c] = read.value;
                            if read.retried {
                                pad.record_retries(1);
                                retry_bursts += 1;
                            }
                        }
                    }
                    let nine = grid.nine_neighbors_of_pixel(x, y);
                    let mut best = nine[0];
                    let mut best_d = kernel.dist_code(px, (x as i32, y as i32), &centers[nine[0]]);
                    for &k in &nine[1..] {
                        let d = kernel.dist_code(px, (x as i32, y as i32), &centers[k]);
                        if d < best_d {
                            best_d = d;
                            best = k;
                        }
                    }
                    labels[(x, y)] = best as u32;
                    // Six-field sigma update: codes and coordinates.
                    let acc = &mut sigma[best];
                    acc[0] += px[0] as i64;
                    acc[1] += px[1] as i64;
                    acc[2] += px[2] as i64;
                    acc[3] += x as i64;
                    acc[4] += y as i64;
                    acc[5] += 1;
                }
            }
            assign_cycles += schedule.assign_cycles(step, &cfg.cluster_config, 1);

            // Center update: rounded integer division per field.
            let mut updated = 0u64;
            for (k, acc) in sigma.iter().enumerate() {
                let count = acc[5];
                if count == 0 {
                    continue; // keep the previous center
                }
                centers[k] = ClusterCodes {
                    l: kernel.truncate_channel(rounded_div(acc[0], count).clamp(0, 255) as u8),
                    a: kernel.truncate_channel(rounded_div(acc[1], count).clamp(0, 255) as u8),
                    b: kernel.truncate_channel(rounded_div(acc[2], count).clamp(0, 255) as u8),
                    x: rounded_div(acc[3], count),
                    y: rounded_div(acc[4], count),
                };
                updated += 1;
            }
            center_cycles += schedule.center_cycles();

            if let Some(rec) = recorder {
                let end_cycles = color_cycles + assign_cycles + center_cycles;
                let clock = LogicalClock::step(step).with_cycle(end_cycles as u64);
                dma_stream(rec, clock, "cluster_update", &step_traffic);
                // What-if stall: the DMA cycles a double-buffered stream
                // (`crate::dma`) could not hide behind this step's compute.
                // The model itself charges memory in series.
                let dma_cycles = DramModel::default()
                    .transfer_cycles(step_traffic.total_bytes(), step_traffic.bursts);
                let compute_cycles = end_cycles - step_start_cycles;
                let stall_cycles = (dma_cycles - compute_cycles).max(0.0);
                rec.instant(
                    "hw.stall",
                    clock,
                    vec![
                        ("dma_cycles", Value::U64(dma_cycles as u64)),
                        ("compute_cycles", Value::U64(compute_cycles as u64)),
                        ("stall_cycles", Value::U64(stall_cycles as u64)),
                    ],
                );
                rec.span_end(
                    "hw.step",
                    clock,
                    vec![("updated_centers", Value::U64(updated))],
                );
            }
        }

        // Scratchpad accesses of the stream. Color conversion writes and
        // reads each channel byte twice (RGB in, Lab back, paper §4.3);
        // each step fills the channels and the index with its subset, reads
        // the channels and writes each member's 2-byte label.
        let streamed: u64 = (0..cfg.iterations).map(|step| schedule.step_pixels(step)).sum();
        for pad in scratchpads.channels_mut() {
            pad.record_writes(2 * n + streamed);
            pad.record_reads(2 * n + streamed);
        }
        scratchpads.index.record_writes(2 * 2 * streamed);

        // Final index readout: the label map leaves through the index
        // memory, so each word passes the fault/protection filter once
        // more; any out-of-range survivor is repaired to the pixel's home
        // cluster so the returned map stays a valid index into `centers`.
        if let Some(f) = faults.as_deref_mut() {
            let k = centers.len() as u32;
            for (y, row) in labels.as_mut_slice().chunks_exact_mut(w).enumerate() {
                let homes = grid.home_row(&column_cells, y);
                for ((x, label), home) in row.iter_mut().enumerate().zip(homes) {
                    let read = f.index_read((y * w + x) as u64, *label);
                    scratchpads.index.record_reads(2);
                    if read.retried {
                        scratchpads.index.record_retries(1);
                        retry_bursts += 1;
                    }
                    *label = read.value;
                    if *label >= k {
                        *label = home;
                        label_repairs += 1;
                    }
                }
            }
        }

        // Each detected-error re-fetch is one minimum-size DRAM burst.
        traffic += DramTraffic {
            bytes_read: retry_bursts * RETRY_BURST_BYTES,
            bytes_written: 0,
            bursts: retry_bursts,
        };
        let dram = DramModel::default();
        let memory_cycles = dram.transfer_cycles(traffic.total_bytes(), traffic.bursts);
        let dram_energy_uj = dram.transfer_energy_uj(traffic.total_bytes());

        if let Some(rec) = recorder {
            let total = color_cycles + assign_cycles + center_cycles + memory_cycles;
            let clock = LogicalClock::cycle(total as u64);
            for pad in [
                &scratchpads.ch1,
                &scratchpads.ch2,
                &scratchpads.ch3,
                &scratchpads.index,
            ] {
                rec.counter(
                    "hw.scratchpad",
                    clock,
                    vec![
                        ("pad", Value::from(pad.name())),
                        ("reads", Value::U64(pad.reads())),
                        ("writes", Value::U64(pad.writes())),
                        ("retries", Value::U64(pad.retries())),
                        ("capacity_bytes", Value::U64(pad.capacity_bytes() as u64)),
                    ],
                );
            }
            rec.counter_add("hw.dram.bytes_read", traffic.bytes_read);
            rec.counter_add("hw.dram.bytes_written", traffic.bytes_written);
            rec.counter_add("hw.dram.bursts", traffic.bursts);
            rec.span_end(
                "hw.frame",
                clock,
                vec![("memory_cycles", Value::U64(memory_cycles as u64))],
            );
        }

        AcceleratorRun {
            labels,
            centers,
            color_cycles,
            assign_cycles,
            center_cycles,
            memory_cycles,
            traffic,
            scratchpads,
            dram_energy_uj,
            retry_bursts,
            label_repairs,
        }
    }
}

/// Emits one `hw.dma.stream` traffic event.
fn dma_stream(rec: &Recorder, clock: LogicalClock, phase: &'static str, traffic: &DramTraffic) {
    rec.instant(
        "hw.dma.stream",
        clock,
        vec![
            ("phase", Value::from(phase)),
            ("read_bytes", Value::U64(traffic.bytes_read)),
            ("written_bytes", Value::U64(traffic.bytes_written)),
            ("bursts", Value::U64(traffic.bursts)),
        ],
    );
}

/// The output of [`Accelerator::process`]: the label map plus full
/// accounting.
#[derive(Debug, Clone)]
pub struct AcceleratorRun {
    /// Final superpixel index per pixel.
    pub labels: Plane<u32>,
    /// Final center codes.
    pub centers: Vec<ClusterCodes>,
    /// Cycles spent in color conversion.
    pub color_cycles: f64,
    /// Cycles spent in cluster-update assignment.
    pub assign_cycles: f64,
    /// Cycles spent in center updates.
    pub center_cycles: f64,
    /// Cycles spent on DRAM transfers.
    pub memory_cycles: f64,
    /// DRAM traffic.
    pub traffic: DramTraffic,
    /// Scratchpads with access counts.
    pub scratchpads: ScratchpadSet,
    /// External DRAM energy in µJ.
    pub dram_energy_uj: f64,
    /// DRAM bursts charged to detected-error re-fetches (0 without fault
    /// hooks).
    pub retry_bursts: u64,
    /// Out-of-range labels repaired at final index readout (0 without
    /// fault hooks).
    pub label_repairs: u64,
}

impl AcceleratorRun {
    /// Total modeled frame time in milliseconds (phases serialized, as the
    /// FSM runs them).
    pub fn total_ms(&self) -> f64 {
        model::cycles_to_ms(
            self.color_cycles + self.assign_cycles + self.center_cycles + self.memory_cycles,
        )
    }

    /// Scratchpad access energy in µJ.
    pub fn sram_energy_uj(&self) -> f64 {
        self.scratchpads.energy_uj()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslic_image::synthetic::SyntheticImage;

    fn small_cfg() -> AcceleratorConfig {
        AcceleratorConfig {
            superpixels: 60,
            iterations: 4,
            subsets: 2,
            buffer_bytes_per_channel: 512,
            ..AcceleratorConfig::new(60)
        }
    }

    fn test_image() -> RgbImage {
        SyntheticImage::builder(64, 48).seed(7).regions(5).build().rgb
    }

    #[test]
    fn produces_valid_labels() {
        let run = Accelerator::new(small_cfg()).process(&test_image());
        let k = run.centers.len() as u32;
        assert!(run.labels.iter().all(|&l| l < k));
    }

    #[test]
    fn is_deterministic() {
        let img = test_image();
        let a = Accelerator::new(small_cfg()).process(&img);
        let b = Accelerator::new(small_cfg()).process(&img);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn centers_stay_in_image_bounds() {
        let run = Accelerator::new(small_cfg()).process(&test_image());
        for c in &run.centers {
            assert!((0..64).contains(&c.x), "center x = {}", c.x);
            assert!((0..48).contains(&c.y), "center y = {}", c.y);
            assert!((0..=255).contains(&c.l));
        }
    }

    #[test]
    fn traffic_scales_with_iterations() {
        let img = test_image();
        let short = Accelerator::new(AcceleratorConfig {
            iterations: 2,
            ..small_cfg()
        })
        .process(&img);
        let long = Accelerator::new(AcceleratorConfig {
            iterations: 8,
            ..small_cfg()
        })
        .process(&img);
        assert!(long.traffic.total_bytes() > short.traffic.total_bytes());
        // Color conversion traffic (6 B/px) is iteration independent.
        let per_iter =
            (long.traffic.total_bytes() - short.traffic.total_bytes()) as f64 / 6.0;
        assert!(per_iter > 0.0);
    }

    #[test]
    fn smaller_buffers_issue_more_bursts() {
        let img = test_image();
        let small = Accelerator::new(AcceleratorConfig {
            buffer_bytes_per_channel: 256,
            ..small_cfg()
        })
        .process(&img);
        let large = Accelerator::new(AcceleratorConfig {
            buffer_bytes_per_channel: 2048,
            ..small_cfg()
        })
        .process(&img);
        assert!(small.traffic.bursts > large.traffic.bursts);
        assert!(small.memory_cycles > large.memory_cycles);
    }

    #[test]
    fn nine_nine_six_outruns_one_one_one() {
        let img = test_image();
        let fast = Accelerator::new(AcceleratorConfig {
            cluster_config: ClusterUnitConfig::c9_9_6(),
            ..small_cfg()
        })
        .process(&img);
        let slow = Accelerator::new(AcceleratorConfig {
            cluster_config: ClusterUnitConfig::c1_1_1(),
            ..small_cfg()
        })
        .process(&img);
        assert_eq!(fast.labels, slow.labels, "parallelism must not change results");
        assert!(slow.assign_cycles > 8.0 * fast.assign_cycles);
    }

    #[test]
    fn subsampling_halves_assignment_work() {
        let img = test_image();
        let full = Accelerator::new(AcceleratorConfig {
            subsets: 1,
            iterations: 4,
            ..small_cfg()
        })
        .process(&img);
        let half = Accelerator::new(AcceleratorConfig {
            subsets: 2,
            iterations: 4,
            ..small_cfg()
        })
        .process(&img);
        let ratio = full.assign_cycles / half.assign_cycles;
        assert!((1.6..=2.2).contains(&ratio), "assign ratio {ratio}");
    }

    #[test]
    fn sram_energy_is_positive_and_below_dram() {
        let run = Accelerator::new(small_cfg()).process(&test_image());
        assert!(run.sram_energy_uj() > 0.0);
        assert!(run.dram_energy_uj > run.sram_energy_uj());
    }

    #[test]
    #[should_panic(expected = "iteration count")]
    fn zero_iterations_panics() {
        let _ = Accelerator::new(AcceleratorConfig {
            iterations: 0,
            ..small_cfg()
        });
    }

    #[test]
    #[should_panic(expected = "buffer size must be nonzero")]
    fn zero_buffer_panics() {
        let _ = Accelerator::new(AcceleratorConfig {
            buffer_bytes_per_channel: 0,
            ..small_cfg()
        });
    }

    #[test]
    fn noop_mem_faults_leave_labels_bit_identical() {
        struct Noop;
        impl MemFaults for Noop {}
        let img = test_image();
        let clean = Accelerator::new(small_cfg()).process(&img);
        let hooked = Accelerator::new(small_cfg()).process_with_faults(&img, &mut Noop);
        assert_eq!(clean.labels, hooked.labels);
        assert_eq!(clean.centers, hooked.centers);
        assert_eq!(hooked.retry_bursts, 0);
        assert_eq!(hooked.label_repairs, 0);
    }

    #[test]
    fn corrupting_mem_faults_stay_valid_and_charge_retries() {
        use crate::faults::{FaultedByte, FaultedLabel};
        struct Nasty;
        impl MemFaults for Nasty {
            fn channel_read(&mut self, _s: u32, _c: u8, addr: u64, value: u8) -> FaultedByte {
                // Every 13th word: flip the MSB; every 31st: detected
                // error, value restored after a retry.
                if addr % 31 == 0 {
                    FaultedByte {
                        value,
                        retried: true,
                    }
                } else if addr % 13 == 0 {
                    FaultedByte {
                        value: value ^ 0x80,
                        retried: false,
                    }
                } else {
                    FaultedByte {
                        value,
                        retried: false,
                    }
                }
            }
            fn index_read(&mut self, addr: u64, label: u32) -> FaultedLabel {
                if addr % 97 == 0 {
                    // Stuck-high high byte: pushes labels out of range.
                    FaultedLabel {
                        value: label | 0xFF00,
                        retried: false,
                    }
                } else {
                    FaultedLabel {
                        value: label,
                        retried: false,
                    }
                }
            }
        }
        let img = test_image();
        let clean = Accelerator::new(small_cfg()).process(&img);
        let run = Accelerator::new(small_cfg()).process_with_faults(&img, &mut Nasty);
        let k = run.centers.len() as u32;
        assert!(run.labels.iter().all(|&l| l < k), "labels stay in range");
        assert_ne!(clean.labels, run.labels, "corruption must be visible");
        assert!(run.retry_bursts > 0);
        assert!(run.label_repairs > 0);
        let pads = &run.scratchpads;
        assert!([&pads.ch1, &pads.ch2, &pads.ch3, &pads.index]
            .iter()
            .any(|sp| sp.retries() > 0));
        assert!(
            run.traffic.total_bytes() > clean.traffic.total_bytes(),
            "retries cost DRAM bursts"
        );
    }

    #[test]
    fn tracing_never_changes_the_run_and_is_deterministic() {
        let img = test_image();
        let plain = Accelerator::new(small_cfg()).process(&img);
        let rec = Recorder::deterministic();
        let traced = Accelerator::new(small_cfg()).process_traced(&img, &rec);
        assert_eq!(plain.labels, traced.labels);
        assert_eq!(plain.centers, traced.centers);
        assert_eq!(plain.traffic, traced.traffic);

        let rec2 = Recorder::deterministic();
        let _ = Accelerator::new(small_cfg()).process_traced(&img, &rec2);
        assert_eq!(rec.to_jsonl(), rec2.to_jsonl(), "repeat traces byte-identical");
        assert_eq!(rec.to_chrome_trace(), rec2.to_chrome_trace());
    }

    #[test]
    fn trace_covers_every_fsm_phase_and_step() {
        let img = test_image();
        let rec = Recorder::deterministic();
        let run = Accelerator::new(small_cfg()).process_traced(&img, &rec);
        let events = rec.events();
        assert_eq!(events.first().map(|e| e.name), Some("hw.frame"));
        assert_eq!(events.last().map(|e| e.name), Some("hw.frame"));
        let steps = events.iter().filter(|e| e.name == "hw.step").count();
        assert_eq!(steps, 2 * 4, "begin+end per iteration");
        // One DMA event for color plus one per step; their byte totals
        // reconstruct the run's DRAM traffic exactly.
        let dma: Vec<_> = events.iter().filter(|e| e.name == "hw.dma.stream").collect();
        assert_eq!(dma.len(), 1 + 4);
        let read: u64 = dma.iter().map(|e| e.attr_u64("read_bytes")).sum();
        let written: u64 = dma.iter().map(|e| e.attr_u64("written_bytes")).sum();
        assert_eq!(read, run.traffic.bytes_read);
        assert_eq!(written, run.traffic.bytes_written);
        assert_eq!(
            events.iter().filter(|e| e.name == "hw.stall").count(),
            4,
            "one stall estimate per step"
        );
        // Scratchpad counters mirror the run's access accounting.
        let pads: Vec<_> = events.iter().filter(|e| e.name == "hw.scratchpad").collect();
        assert_eq!(pads.len(), 4);
        let reads: u64 = pads.iter().map(|e| e.attr_u64("reads")).sum();
        assert_eq!(
            reads,
            run.scratchpads.ch1.reads()
                + run.scratchpads.ch2.reads()
                + run.scratchpads.ch3.reads()
                + run.scratchpads.index.reads()
        );
        let m = rec.metrics();
        assert_eq!(m.counter("hw.dram.bytes_read"), run.traffic.bytes_read);
        assert_eq!(m.counter("hw.dram.bursts"), run.traffic.bursts);
    }

    #[test]
    fn protection_config_folds_into_ppa_accounting() {
        let img = test_image();
        let raw = Accelerator::new(small_cfg()).process(&img);
        let ecc = Accelerator::new(AcceleratorConfig {
            protection: Protection::Secded,
            ..small_cfg()
        })
        .process(&img);
        assert_eq!(raw.labels, ecc.labels, "protection never changes results");
        assert!(ecc.scratchpads.area_mm2() > raw.scratchpads.area_mm2());
        assert!(ecc.sram_energy_uj() > raw.sram_energy_uj());
    }
}
