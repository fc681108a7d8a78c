//! Cross-crate integration: synthetic image → color conversion →
//! segmentation → metrics, through the `sslic` facade.

use sslic::core::{Algorithm, RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic::image::synthetic::{SyntheticDataset, SyntheticImage};
use sslic::image::{draw, ppm};
use sslic::metrics::{
    achievable_segmentation_accuracy, boundary_recall, undersegmentation_error,
};

fn params(k: usize, iters: u32) -> SlicParams {
    SlicParams::builder(k)
        .compactness(30.0)
        .iterations(iters)
        .build()
}

#[test]
fn every_variant_beats_a_horizontal_bands_strawman() {
    let img = SyntheticImage::builder(160, 120)
        .seed(5)
        .regions(7)
        .build();
    // Strawman: 40 horizontal bands, ignoring image content entirely.
    let bands = sslic::image::Plane::from_fn(160, 120, |_, y| (y / 3) as u32);
    let strawman_use = undersegmentation_error(&bands, &img.ground_truth);

    for algorithm in [
        Algorithm::SlicCpa,
        Algorithm::SlicPpa,
        Algorithm::SSlicPpa {
            subsets: 2,
            strategy: Default::default(),
        },
        Algorithm::SSlicCpa { subsets: 2 },
    ] {
        let seg = Segmenter::new(params(120, 6), algorithm).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let use_err = undersegmentation_error(seg.labels(), &img.ground_truth);
        assert!(
            use_err < strawman_use / 2.0,
            "{algorithm:?}: USE {use_err} should crush the strawman {strawman_use}"
        );
        let asa = achievable_segmentation_accuracy(seg.labels(), &img.ground_truth);
        assert!(asa > 0.93, "{algorithm:?}: ASA {asa}");
    }
}

#[test]
fn more_superpixels_recall_boundaries_at_least_as_well() {
    let img = SyntheticImage::builder(160, 120).seed(9).regions(8).build();
    let coarse = Segmenter::slic_ppa(params(40, 6)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let fine = Segmenter::slic_ppa(params(250, 6)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let br_coarse = boundary_recall(coarse.labels(), &img.ground_truth, 1);
    let br_fine = boundary_recall(fine.labels(), &img.ground_truth, 1);
    assert!(
        br_fine >= br_coarse - 0.02,
        "finer superpixels must not lose recall: {br_fine} vs {br_coarse}"
    );
}

#[test]
fn label_maps_survive_a_ppm_round_trip_visualisation() {
    let img = SyntheticImage::builder(96, 64).seed(2).regions(5).build();
    let seg = Segmenter::sslic_ppa(params(60, 4), 2).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let overlay =
        draw::overlay_boundaries(&img.rgb, seg.labels(), sslic::image::Rgb::new(255, 0, 0));
    let mut buf = Vec::new();
    ppm::write_ppm(&mut buf, &overlay).expect("in-memory write");
    let back = ppm::read_ppm(buf.as_slice()).expect("in-memory read");
    assert_eq!(back, overlay);
}

#[test]
fn corpus_evaluation_is_reproducible_across_runs() {
    let corpus = SyntheticDataset::with_geometry(3, 77, 120, 80);
    let seg = Segmenter::sslic_ppa(params(80, 4), 2);
    let run = |corpus: &SyntheticDataset| -> Vec<f64> {
        corpus
            .iter()
            .map(|img| {
                let s = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                undersegmentation_error(s.labels(), &img.ground_truth)
            })
            .collect()
    };
    assert_eq!(run(&corpus), run(&corpus));
}

#[test]
fn connectivity_leaves_no_small_fragments() {
    let img = SyntheticImage::builder(160, 120)
        .seed(13)
        .regions(9)
        .noise_sigma(10.0)
        .build();
    let p = SlicParams::builder(120)
        .compactness(30.0)
        .iterations(6)
        .build();
    let seg = Segmenter::slic_ppa(p).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let min_size = ((seg.report().spacing() * seg.report().spacing()) / 4.0) as usize;
    let sizes = sslic::core::component_sizes(seg.labels());
    let too_small = sizes.iter().filter(|&&s| s < min_size).count();
    assert!(
        too_small <= 1,
        "{too_small} fragments below {min_size} px survived connectivity"
    );
}

#[test]
fn object_scenes_segment_as_well_as_voronoi_scenes() {
    // The alternative generator (elliptical objects over background) must
    // be segmentable too: superpixels should recover object boundaries.
    let scene = sslic::image::synthetic::objects_scene(160, 120, 5, 21);
    let seg = Segmenter::sslic_ppa(params(150, 8), 2).run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());
    let asa = achievable_segmentation_accuracy(seg.labels(), &scene.ground_truth);
    assert!(asa > 0.95, "ASA on object scene = {asa}");
    let br = boundary_recall(seg.labels(), &scene.ground_truth, 2);
    assert!(br > 0.9, "BR on object scene = {br}");
}

#[test]
fn compacted_labels_preserve_metric_values() {
    // Metrics must be invariant under label renumbering.
    let img = SyntheticImage::builder(120, 90).seed(3).regions(6).build();
    let seg = Segmenter::slic_ppa(params(100, 5)).run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let (dense, n) = sslic::core::compact_labels(seg.labels());
    assert!(n <= seg.cluster_count());
    let before = undersegmentation_error(seg.labels(), &img.ground_truth);
    let after = undersegmentation_error(&dense, &img.ground_truth);
    assert_eq!(before, after);
}
