//! The functional accelerator simulator against the software S-SLIC engine
//! configured for the accelerator datapath (8-bit LUT color conversion,
//! quantized distances, static 9-neighborhoods, no seed perturbation, no
//! connectivity post-pass). The two share the distance kernel, color path,
//! grid and subset schedule but not the center update, so these tests
//! assert only that the label maps agree on ≥ 99.5 % of pixels of 96×72
//! frames, that buffer size never changes the accelerator's labels, and
//! that both do the same distance work. The 99.5 % bound depends on the
//! frame (one 640×480 seed falls below it); ROADMAP.md item 1 makes the
//! two agree exactly.

use sslic::core::{DistanceMode, RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic::hw::accel::{Accelerator, AcceleratorConfig};
use sslic::image::synthetic::SyntheticImage;

fn agreement(a: &sslic::image::Plane<u32>, b: &sslic::image::Plane<u32>) -> f64 {
    let same = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

fn software_twin(k: usize, iterations: u32, subsets: u32) -> Segmenter {
    let params = SlicParams::builder(k)
        .compactness(10.0)
        .iterations(iterations)
        .perturb_seeds(false)
        .enforce_connectivity(false)
        .build();
    Segmenter::sslic_ppa(params, subsets).with_distance_mode(DistanceMode::quantized(8))
}

fn accel(k: usize, iterations: u32, subsets: u32) -> Accelerator {
    Accelerator::new(AcceleratorConfig {
        superpixels: k,
        iterations,
        subsets,
        buffer_bytes_per_channel: 1024,
        ..AcceleratorConfig::new(k)
    })
}

#[test]
fn accelerator_labels_match_software_model() {
    // The two models share the distance kernel, color path, grid, and
    // subset schedule; the only divergence channel is center-mean rounding
    // (the software keeps f32 centers and re-encodes; the hardware divides
    // integer sigma sums), which can flip exact half-LSB ties. Agreement
    // must therefore be near-total but is not guaranteed bit-exact.
    for seed in [1u64, 2, 3] {
        let img = SyntheticImage::builder(96, 72).seed(seed).regions(6).build();
        let sw = software_twin(60, 6, 2).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let hw = accel(60, 6, 2).process(&img.rgb);
        let frac = agreement(sw.labels(), &hw.labels);
        assert!(
            frac >= 0.995,
            "seed {seed}: hardware and software labels agree on {frac} of pixels"
        );
    }
}

#[test]
fn equivalence_holds_without_subsampling_too() {
    let img = SyntheticImage::builder(96, 72).seed(9).regions(5).build();
    let sw = software_twin(60, 4, 1).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let hw = accel(60, 4, 1).process(&img.rgb);
    assert!(agreement(sw.labels(), &hw.labels) >= 0.995);
}

#[test]
fn equivalence_holds_across_buffer_sizes() {
    // Tiling is a performance knob; it must never change results.
    let img = SyntheticImage::builder(96, 72).seed(5).regions(6).build();
    let runs: Vec<_> = [256usize, 1024, 8192]
        .iter()
        .map(|&b| {
            Accelerator::new(AcceleratorConfig {
                superpixels: 60,
                iterations: 4,
                subsets: 2,
                buffer_bytes_per_channel: b,
                ..AcceleratorConfig::new(60)
            })
            .process(&img.rgb)
        })
        .collect();
    assert_eq!(runs[0].labels, runs[1].labels);
    assert_eq!(runs[1].labels, runs[2].labels);
}

#[test]
fn quantized_software_engine_counts_match_hw_work() {
    // The software engine's distance-calc counter must equal the number of
    // distance evaluations the hardware performs: 9 per assigned pixel.
    let img = SyntheticImage::builder(96, 72).seed(7).regions(6).build();
    let sw = software_twin(60, 6, 2).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let n = (96 * 72) as u64;
    assert_eq!(sw.report().counters().distance_calcs, 6 * (n / 2) * 9);
}
