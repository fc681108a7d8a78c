//! Bit-identity regression: supplying no fault plan (or an empty one) must
//! leave the engine's output bit-identical to the unhooked path, pinned by
//! a label-map checksum on a fixed synthetic scene.

use sslic_color::hw::HwColorConverter;
use sslic_core::{
    label_checksum, DistanceMode, RunOptions, SegmentRequest, SegmentationStatus, Segmenter,
    SlicParams,
};
use sslic_fault::{corrupt_color_lut, EngineFaults, FaultPlan};
use sslic_image::synthetic::SyntheticImage;

/// Pinned checksum of the quantized-mode segmentation of the fixed scene
/// below. Any change to the fault-free datapath shows up here.
const PINNED_QUANTIZED_CHECKSUM: u64 = 0x8a1b_9b35_ba38_48cc;

fn fixed_scene() -> SyntheticImage {
    SyntheticImage::builder(64, 48).seed(2024).regions(5).build()
}

fn quantized_segmenter() -> Segmenter {
    let params = SlicParams::builder(60).iterations(5).build();
    Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8))
}

#[test]
fn fault_free_labels_match_the_pinned_checksum() {
    let seg = quantized_segmenter().run(
        SegmentRequest::Rgb(&fixed_scene().rgb),
        &RunOptions::new(),
    );
    assert_eq!(
        label_checksum(seg.labels()),
        PINNED_QUANTIZED_CHECKSUM,
        "fault-free quantized output drifted from the pinned labels"
    );
}

#[test]
fn empty_plan_is_bit_identical_to_the_unhooked_path() {
    let scene = fixed_scene();
    let segmenter = quantized_segmenter();
    let plan = FaultPlan::new(123);

    let clean = segmenter.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());

    let mut conv = HwColorConverter::paper_default();
    assert_eq!(corrupt_color_lut(&plan, &mut conv), 0);
    let lab8 = conv.convert_image(&scene.rgb);
    let faults = EngineFaults::new(&plan);
    let hooked = segmenter.run(
        SegmentRequest::Lab8(&lab8),
        &RunOptions::new().with_faults(&faults),
    );

    assert_eq!(clean.labels().as_slice(), hooked.labels().as_slice());
    assert_eq!(label_checksum(hooked.labels()), PINNED_QUANTIZED_CHECKSUM);
    assert_eq!(hooked.report().status(), SegmentationStatus::Ok);
    assert_eq!(hooked.report().invariant_repairs(), 0);
    assert_eq!(faults.injected_words(), 0);
}

#[test]
fn direct_and_faultless_hooked_apis_agree_in_float_mode_too() {
    let scene = fixed_scene();
    let params = SlicParams::builder(60).iterations(5).build();
    let segmenter = Segmenter::sslic_ppa(params, 2);
    let clean = segmenter.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());
    let plan = FaultPlan::new(0);
    let faults = EngineFaults::new(&plan);
    let hooked = segmenter.run(
        SegmentRequest::Rgb(&scene.rgb),
        &RunOptions::new().with_faults(&faults),
    );
    assert_eq!(clean.labels().as_slice(), hooked.labels().as_slice());
}
