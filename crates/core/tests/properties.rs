//! Property-based invariants of the segmentation engine: any valid
//! configuration on any image must yield a structurally sound result.

use proptest::prelude::*;

use sslic_core::{Algorithm, DistanceMode, RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic_core::subsample::SubsetStrategy;
use sslic_image::synthetic::SyntheticImage;

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::SlicCpa),
        (1u32..4, arb_strategy())
            .prop_map(|(p, strategy)| Algorithm::SSlicPpa { subsets: p, strategy }),
    ]
}

fn arb_strategy() -> impl Strategy<Value = SubsetStrategy> {
    prop_oneof![
        Just(SubsetStrategy::Interleaved),
        Just(SubsetStrategy::Checkerboard),
        Just(SubsetStrategy::Bands),
    ]
}

fn arb_distance_mode() -> impl Strategy<Value = DistanceMode> {
    prop_oneof![
        Just(DistanceMode::Float),
        (4u8..13).prop_map(DistanceMode::quantized),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_configuration_yields_a_structurally_valid_segmentation(
        seed in 0u64..1000,
        k in 8usize..80,
        iterations in 1u32..6,
        algorithm in arb_algorithm(),
        mode in arb_distance_mode(),
        m in 1.0f32..40.0,
        connectivity in any::<bool>(),
    ) {
        let img = SyntheticImage::builder(48, 36).seed(seed).regions(5).build();
        let params = SlicParams::builder(k)
            .compactness(m)
            .iterations(iterations)
            .enforce_connectivity(connectivity)
            .build();
        let seg = Segmenter::new(params, algorithm)
            .with_distance_mode(mode)
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());

        // Geometry is preserved.
        prop_assert_eq!(seg.labels().width(), 48);
        prop_assert_eq!(seg.labels().height(), 36);
        // Every label addresses a real cluster.
        let count = seg.cluster_count() as u32;
        prop_assert!(count > 0);
        prop_assert!(seg.labels().iter().all(|&l| l < count));
        // Centers stay inside the image.
        for c in seg.clusters() {
            prop_assert!((0.0..48.0).contains(&c.x), "x = {}", c.x);
            prop_assert!((0.0..36.0).contains(&c.y), "y = {}", c.y);
        }
        // The engine ran the requested number of steps (no threshold set).
        prop_assert_eq!(seg.report().iterations_run(), iterations);
        prop_assert_eq!(seg.report().counters().sub_iterations, iterations as u64);
        // Counters are self-consistent: PPA-style passes do 9 distance
        // calcs per assigned pixel, CPA visits are positive.
        prop_assert!(seg.report().counters().distance_calcs > 0);
    }

    #[test]
    fn determinism_across_repeated_runs(
        seed in 0u64..200,
        algorithm in arb_algorithm(),
    ) {
        let img = SyntheticImage::builder(40, 32).seed(seed).regions(4).build();
        let params = SlicParams::builder(24).iterations(3).build();
        let seg = Segmenter::new(params, algorithm);
        let a = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let b = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        prop_assert_eq!(a.labels(), b.labels());
        prop_assert_eq!(a.clusters(), b.clusters());
        prop_assert_eq!(a.report().counters(), b.report().counters());
    }

    #[test]
    fn preemption_never_breaks_validity(
        seed in 0u64..200,
        threshold in 0.0f32..3.0,
    ) {
        let img = SyntheticImage::builder(40, 32).seed(seed).regions(4).build();
        let params = SlicParams::builder(24).iterations(6).build();
        let seg = Segmenter::slic_ppa(params)
            .with_preemption(threshold)
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let count = seg.cluster_count() as u32;
        prop_assert!(seg.labels().iter().all(|&l| l < count));
        prop_assert!(seg.report().frozen_clusters() <= seg.cluster_count());
    }

    #[test]
    fn warm_start_accepts_any_prior_result(
        seed_a in 0u64..100,
        seed_b in 0u64..100,
    ) {
        let frame_a = SyntheticImage::builder(40, 32).seed(seed_a).regions(4).build();
        let frame_b = SyntheticImage::builder(40, 32).seed(seed_b).regions(4).build();
        let params = SlicParams::builder(24).iterations(2).build();
        let seg = Segmenter::sslic_ppa(params, 2);
        let first = seg.run(SegmentRequest::Rgb(&frame_a.rgb), &RunOptions::new());
        let second = seg.run(
            SegmentRequest::Rgb(&frame_b.rgb),
            &RunOptions::new().with_warm_start(first.clusters()),
        );
        let count = second.cluster_count() as u32;
        prop_assert_eq!(second.cluster_count(), first.cluster_count());
        prop_assert!(second.labels().iter().all(|&l| l < count));
    }

    #[test]
    fn quantized_bits_never_panic_or_corrupt(
        bits in 1u8..16,
        seed in 0u64..100,
    ) {
        let img = SyntheticImage::builder(40, 32).seed(seed).regions(4).build();
        let params = SlicParams::builder(24).iterations(2).build();
        let seg = Segmenter::sslic_ppa(params, 2)
            .with_distance_mode(DistanceMode::quantized(bits))
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let count = seg.cluster_count() as u32;
        prop_assert!(seg.labels().iter().all(|&l| l < count));
    }
}
