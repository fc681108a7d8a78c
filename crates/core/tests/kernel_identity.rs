//! Scalar-vs-SWAR bit-identity: the packed fixed-point assign kernel
//! must reproduce the scalar reference loop label-for-label (and
//! counter-for-counter) on every eligible configuration — any size, any
//! parameter set, any thread count, warm or cold, with or without
//! preemption and injected faults. The property runs both kernels
//! explicitly forced, so a silently wrong `Auto` resolution cannot hide
//! a divergence.

use proptest::prelude::*;

use sslic_core::subsample::SubsetStrategy;
use sslic_core::{
    Cluster, DistanceMode, Kernel, RunOptions, SegmentRequest, Segmentation, Segmenter,
    SlicParams, StepFaults,
};
use sslic_image::synthetic::SyntheticImage;

/// Deterministic center corruption at every serial sync point — the same
/// bytes hit both kernels' runs, so their outputs must still agree.
struct NudgeCenters;

impl StepFaults for NudgeCenters {
    fn corrupt_centers(&self, step: u32, clusters: &mut [Cluster]) {
        if let Some(c) = clusters.get_mut(step as usize % clusters.len().max(1)) {
            c.l += 7.5;
            c.x += 1.25;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_forced(
    kernel: Kernel,
    img: &SyntheticImage,
    k: usize,
    m: f32,
    iterations: u32,
    subsets: u32,
    strategy: SubsetStrategy,
    bits: u8,
    threads: usize,
    preempt: Option<f32>,
    warm: Option<&[Cluster]>,
    faults: bool,
) -> Segmentation {
    let params = SlicParams::builder(k)
        .compactness(m)
        .iterations(iterations)
        .threads(threads)
        .kernel(kernel)
        .build();
    let mut seg = Segmenter::sslic_ppa(params, subsets)
        .with_subset_strategy(strategy)
        .with_distance_mode(DistanceMode::quantized(bits));
    if let Some(t) = preempt {
        seg = seg.with_preemption(t);
    }
    let mut options = RunOptions::new();
    if let Some(clusters) = warm {
        options = options.with_warm_start(clusters);
    }
    if faults {
        options = options.with_faults(&NudgeCenters);
    }
    seg.run(SegmentRequest::Rgb(&img.rgb), &options)
}

fn arb_strategy() -> impl Strategy<Value = SubsetStrategy> {
    prop_oneof![
        Just(SubsetStrategy::Interleaved),
        Just(SubsetStrategy::Checkerboard),
        Just(SubsetStrategy::Bands),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn swar_is_bit_identical_to_scalar_on_any_eligible_config(
        seed in 0u64..1000,
        w in 17usize..97,
        h in 9usize..65,
        k in 8usize..80,
        m in 1.0f32..40.0,
        iterations in 1u32..6,
        subsets in 1u32..4,
        strategy in arb_strategy(),
        bits in 4u8..13,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
        preempt in prop_oneof![Just(None), (0.1f32..2.0).prop_map(Some)],
        faults in any::<bool>(),
    ) {
        let img = SyntheticImage::builder(w, h).seed(seed).regions(5).build();
        let scalar = run_forced(
            Kernel::Scalar, &img, k, m, iterations, subsets, strategy, bits,
            threads, preempt, None, faults,
        );
        let swar = run_forced(
            Kernel::Swar, &img, k, m, iterations, subsets, strategy, bits,
            threads, preempt, None, faults,
        );
        // The forced requests resolved to the two distinct backends...
        prop_assert_eq!(scalar.report().kernel(), Kernel::Scalar);
        prop_assert_eq!(swar.report().kernel(), Kernel::Swar);
        // ...and every observable output is byte-equal.
        prop_assert_eq!(scalar.labels(), swar.labels());
        prop_assert_eq!(scalar.clusters(), swar.clusters());
        prop_assert_eq!(scalar.report().counters(), swar.report().counters());
        prop_assert_eq!(scalar.report().iterations_run(), swar.report().iterations_run());
    }

    #[test]
    fn warm_started_swar_matches_warm_started_scalar(
        seed_a in 0u64..200,
        seed_b in 0u64..200,
        k in 8usize..60,
        threads in prop_oneof![Just(1usize), Just(2), Just(8)],
    ) {
        // Warm starts change which centers the very first assign sees —
        // both kernels must track them identically.
        let frame_a = SyntheticImage::builder(56, 40).seed(seed_a).regions(4).build();
        let frame_b = SyntheticImage::builder(56, 40).seed(seed_b).regions(4).build();
        let cold = run_forced(
            Kernel::Scalar, &frame_a, k, 10.0, 3, 2,
            SubsetStrategy::Interleaved, 8, threads, None, None, false,
        );
        let scalar = run_forced(
            Kernel::Scalar, &frame_b, k, 10.0, 2, 2,
            SubsetStrategy::Interleaved, 8, threads, None, Some(cold.clusters()), false,
        );
        let swar = run_forced(
            Kernel::Swar, &frame_b, k, 10.0, 2, 2,
            SubsetStrategy::Interleaved, 8, threads, None, Some(cold.clusters()), false,
        );
        prop_assert_eq!(scalar.labels(), swar.labels());
        prop_assert_eq!(scalar.clusters(), swar.clusters());
        prop_assert_eq!(scalar.report().counters(), swar.report().counters());
    }

    #[test]
    fn auto_resolves_to_swar_and_matches_both_forced_kernels(
        seed in 0u64..300,
        k in 8usize..60,
        bits in 4u8..13,
    ) {
        let img = SyntheticImage::builder(48, 36).seed(seed).regions(5).build();
        let auto = run_forced(
            Kernel::Auto, &img, k, 10.0, 3, 2,
            SubsetStrategy::Interleaved, bits, 1, None, None, false,
        );
        let scalar = run_forced(
            Kernel::Scalar, &img, k, 10.0, 3, 2,
            SubsetStrategy::Interleaved, bits, 1, None, None, false,
        );
        // Auto prefers the SWAR backend on the eligible configuration —
        // and the report says so.
        prop_assert_eq!(auto.report().kernel(), Kernel::Swar);
        prop_assert_eq!(auto.labels(), scalar.labels());
        prop_assert_eq!(auto.clusters(), scalar.clusters());
    }

    #[test]
    fn float_mode_resolves_to_scalar_even_when_swar_is_forced(
        seed in 0u64..100,
        k in 8usize..60,
    ) {
        // No quantized datapath → no SWAR tables; the forced request
        // falls back gracefully and reports the backend that actually ran.
        let img = SyntheticImage::builder(48, 36).seed(seed).regions(5).build();
        let params = SlicParams::builder(k)
            .iterations(3)
            .kernel(Kernel::Swar)
            .build();
        let float_run = Segmenter::sslic_ppa(params, 2)
            .run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        prop_assert_eq!(float_run.report().kernel(), Kernel::Scalar);
    }
}
