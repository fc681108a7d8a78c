//! End-to-end checks of the paper's headline claims, at integration-test
//! scale. The full reproductions live in `sslic-bench`; these assertions
//! pin the *shape* of each result so regressions are caught by
//! `cargo test --workspace`.

use sslic::core::{DistanceMode, RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic::hw::gpu::{efficiency_ratio, GpuBaseline};
use sslic::hw::sim::{FrameSimulator, Resolution};
use sslic::image::synthetic::SyntheticImage;
use sslic::metrics::undersegmentation_error;

/// Abstract: "uses pixel subsampling to reduce the memory bandwidth by
/// 1.8×".
#[test]
fn claim_subsampling_reduces_bandwidth_1_8x() {
    let slic = FrameSimulator::paper_default(Resolution::FULL_HD)
        .dram_traffic()
        .total_bytes() as f64;
    let sslic = FrameSimulator::paper_default(Resolution::FULL_HD)
        .with_subsets(2)
        .dram_traffic()
        .total_bytes() as f64;
    assert!((slic / sslic - 1.8).abs() < 0.1, "ratio {}", slic / sslic);
}

/// Abstract/§7: real-time (30 fps) full-HD operation with ≥250× better
/// energy efficiency than the mobile GPU.
#[test]
fn claim_real_time_and_250x_efficiency() {
    let accel = FrameSimulator::paper_default(Resolution::FULL_HD).simulate();
    assert!(accel.fps() >= 30.0, "fps {}", accel.fps());
    assert!(efficiency_ratio(&GpuBaseline::tegra_k1(), &accel) >= 250.0);
    assert!(efficiency_ratio(&GpuBaseline::tesla_k20(), &accel) >= 500.0);
}

/// §3 / Fig. 2: for matched full-pass work, S-SLIC does half the
/// assignment computation per center-update step and loses essentially no
/// quality at convergence.
#[test]
fn claim_sslic_matches_slic_quality_at_half_the_step_cost() {
    let img = SyntheticImage::builder(240, 160)
        .seed(21)
        .regions(9)
        .noise_sigma(5.0)
        .texture_amplitude(8.0)
        .color_separation(35.0)
        .build();
    let slic_params = SlicParams::builder(224).compactness(30.0).iterations(8).build();
    let sslic_params = SlicParams::builder(224).compactness(30.0).iterations(16).build();

    let slic = Segmenter::slic_ppa(slic_params).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let sslic = Segmenter::sslic_ppa(sslic_params, 2).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());

    // Identical total assignment work (16 half-passes = 8 full passes)…
    assert_eq!(
        slic.report().counters().distance_calcs,
        sslic.report().counters().distance_calcs
    );
    // …with twice the center updates, and no quality loss.
    assert_eq!(
        slic.report().counters().center_updates * 2,
        sslic.report().counters().center_updates
    );
    let use_slic = undersegmentation_error(slic.labels(), &img.ground_truth);
    let use_sslic = undersegmentation_error(sslic.labels(), &img.ground_truth);
    assert!(
        use_sslic <= use_slic + 0.01,
        "S-SLIC {use_sslic} vs SLIC {use_slic}"
    );
}

/// §6.1: 8-bit precision is essentially free; the error cliff sits below
/// 8 bits.
#[test]
fn claim_8bit_is_free_below_8_is_not() {
    let img = SyntheticImage::builder(240, 160)
        .seed(33)
        .regions(9)
        .noise_sigma(5.0)
        .texture_amplitude(8.0)
        .color_separation(35.0)
        .build();
    let params = SlicParams::builder(224).compactness(30.0).iterations(8).build();
    let run = |mode: DistanceMode| {
        let seg = Segmenter::sslic_ppa(params, 2)
            .with_distance_mode(mode)
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        undersegmentation_error(seg.labels(), &img.ground_truth)
    };
    let float = run(DistanceMode::Float);
    let q8 = run(DistanceMode::quantized(8));
    let q5 = run(DistanceMode::quantized(5));
    assert!(q8 - float < 0.012, "8-bit nearly free: {q8} vs {float}");
    assert!(q5 > q8 + 0.01, "5-bit noticeably worse: {q5} vs {q8}");
}

/// §6.2 / Table 3: only the fully parallel 9-9-6 unit reaches
/// 1 pixel/cycle, at ~7.8× the area of the iterative unit and nearly flat
/// energy.
#[test]
fn claim_9_9_6_tradeoffs() {
    use sslic::hw::cluster::{ClusterUnitConfig, FULL_HD_PIXELS};
    let base = ClusterUnitConfig::c1_1_1();
    let full = ClusterUnitConfig::c9_9_6();
    assert_eq!(full.throughput_pixels_per_cycle(), 1.0);
    assert_eq!(base.throughput_pixels_per_cycle(), 1.0 / 9.0);
    let area_ratio = full.area_mm2() / base.area_mm2();
    assert!((7.0..9.0).contains(&area_ratio));
    let energy_ratio =
        full.iteration_energy_uj(FULL_HD_PIXELS) / base.iteration_energy_uj(FULL_HD_PIXELS);
    assert!((0.9..1.1).contains(&energy_ratio), "energy nearly flat");
}

/// §6.3 / Fig. 6: 4 kB is the smallest real-time buffer and memory is
/// about a third of execution time there.
#[test]
fn claim_4kb_buffer_crossover() {
    let time = |kb: usize| {
        FrameSimulator::paper_default(Resolution::FULL_HD)
            .with_buffer_bytes(kb * 1024)
            .simulate()
    };
    assert!(!time(2).is_real_time());
    let four = time(4);
    assert!(four.is_real_time());
    let share = four.memory_ms / four.total_ms();
    assert!((0.28..0.40).contains(&share), "memory share {share}");
}

/// Table 4: all three resolutions are real-time and fps/mm² improves
/// monotonically toward VGA.
#[test]
fn claim_table4_scaling() {
    let reports: Vec<_> = Resolution::TABLE4
        .iter()
        .map(|&r| FrameSimulator::paper_default(r).simulate())
        .collect();
    for r in &reports {
        assert!(r.is_real_time(), "{}: {} fps", r.resolution.name, r.fps());
    }
    assert!(reports[0].fps_per_mm2() < reports[1].fps_per_mm2());
    assert!(reports[1].fps_per_mm2() < reports[2].fps_per_mm2());
}

/// §4.2 / Table 2: the PPA needs about a third of the CPA's memory traffic
/// at ~2.25× the arithmetic, measured on real instrumented runs.
#[test]
fn claim_cpa_vs_ppa_tradeoff() {
    use sslic::core::instrument::TrafficModel;
    let img = SyntheticImage::builder(320, 240).seed(8).regions(10).build();
    let params = SlicParams::builder(300)
        .iterations(1)
        .perturb_seeds(false)
        .enforce_connectivity(false)
        .build();
    let model = TrafficModel::sw_double();
    let cpa = Segmenter::slic(params).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let ppa = Segmenter::slic_ppa(params).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let mem_ratio = model.bytes(cpa.report().counters()).total() as f64
        / model.bytes(ppa.report().counters()).total() as f64;
    let ops_ratio = ppa.report().counters().distance_ops() as f64
        / cpa.report().counters().distance_ops() as f64;
    assert!((2.5..5.0).contains(&mem_ratio), "memory ratio {mem_ratio}");
    assert!((1.8..2.6).contains(&ops_ratio), "ops ratio {ops_ratio}");
}
