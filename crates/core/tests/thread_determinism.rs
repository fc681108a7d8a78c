//! Thread-count invariance: the banded parallel engine must produce
//! bit-identical labels for every thread count, pinned by checksums on a
//! fixed scene so any drift (in the band layout, the reduction order, or
//! the accumulation itself) fails loudly. Runs under the workspace's
//! overflow-checked test profile.

use sslic_core::subsample::SubsetStrategy;
use sslic_core::{
    label_checksum, DistanceMode, Kernel, RunOptions, SegmentRequest, Segmenter, SlicParams,
};
use sslic_image::synthetic::SyntheticImage;

/// The thread counts the determinism contract is pinned over: serial, an
/// even band split, an uneven one, and more workers than most heights'
/// bands-per-worker.
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn fixed_scene() -> SyntheticImage {
    SyntheticImage::builder(64, 48).seed(2024).regions(5).build()
}

fn checksum_at(threads: usize, cpa: bool, quantized: bool) -> u64 {
    checksum_with_kernel(threads, cpa, quantized, Kernel::Auto)
}

fn checksum_with_kernel(threads: usize, cpa: bool, quantized: bool, kernel: Kernel) -> u64 {
    let params = SlicParams::builder(60)
        .iterations(5)
        .threads(threads)
        .kernel(kernel)
        .build();
    let seg = if cpa {
        Segmenter::slic(params)
    } else {
        Segmenter::sslic_ppa(params, 2)
    };
    let seg = if quantized {
        seg.with_distance_mode(DistanceMode::quantized(8))
    } else {
        seg
    };
    let out = seg.run(SegmentRequest::Rgb(&fixed_scene().rgb), &RunOptions::new());
    label_checksum(out.labels())
}

/// Same scene and configuration as the fault crate's pinned regression —
/// the two suites deliberately share this value.
const PINNED_PPA_QUANTIZED: u64 = 0x8a1b_9b35_ba38_48cc;
const PINNED_PPA_FLOAT: u64 = 0xa416_4089_577b_ac01;
const PINNED_CPA_FLOAT: u64 = 0x04aa_dc79_e680_b98d;
const PINNED_CPA_QUANTIZED: u64 = 0x2508_aa7b_3c23_18ee;

/// An odd-width scene: at P = 3 and P = 4 each row's first Interleaved
/// member (`y·97 mod P`) and Checkerboard phase (`y·q mod P`) rotate from
/// row to row, unlike on the even 64-wide scene above.
fn odd_width_scene() -> SyntheticImage {
    SyntheticImage::builder(97, 61).seed(2024).regions(5).build()
}

fn strategy_checksum(
    img: &SyntheticImage,
    threads: usize,
    strategy: SubsetStrategy,
    subsets: u32,
    quantized: bool,
    kernel: Kernel,
) -> u64 {
    let params = SlicParams::builder(60)
        .iterations(5)
        .threads(threads)
        .kernel(kernel)
        .build();
    let seg = Segmenter::sslic_ppa(params, subsets).with_subset_strategy(strategy);
    let seg = if quantized {
        seg.with_distance_mode(DistanceMode::quantized(8))
    } else {
        seg
    };
    let out = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    label_checksum(out.labels())
}

/// `(strategy, P, quantized, checksum)` of `sslic_ppa` on the odd-width
/// scene, for the strategies and subset counts the 64-wide P = 2 pins
/// above never reach.
const PINNED_STRATEGIES: [(SubsetStrategy, u32, bool, u64); 10] = [
    (SubsetStrategy::Interleaved, 3, false, 0x8c8c_753d_a80e_2377),
    (SubsetStrategy::Interleaved, 3, true, 0x5c42_603a_77ce_95cc),
    (SubsetStrategy::Checkerboard, 3, false, 0x6900_a172_b226_dd1e),
    (SubsetStrategy::Checkerboard, 3, true, 0xc30d_e484_72d6_23b5),
    (SubsetStrategy::Checkerboard, 4, false, 0x8f56_0402_d3c9_39ab),
    (SubsetStrategy::Checkerboard, 4, true, 0xd1fc_82d8_3b35_e0d0),
    (SubsetStrategy::Bands, 3, false, 0x1a17_1ac9_3dff_e5d0),
    (SubsetStrategy::Bands, 3, true, 0xda18_8345_c09f_0f2f),
    (SubsetStrategy::Bands, 4, false, 0x74fb_4802_8168_d068),
    (SubsetStrategy::Bands, 4, true, 0x35aa_1af9_3ef4_5d60),
];

#[test]
fn subset_strategies_are_pinned_for_every_thread_count_and_kernel() {
    let img = odd_width_scene();
    for (strategy, p, quantized, pin) in PINNED_STRATEGIES {
        for t in THREADS {
            for kernel in [Kernel::Scalar, Kernel::Auto] {
                let sum = strategy_checksum(&img, t, strategy, p, quantized, kernel);
                assert_eq!(
                    sum, pin,
                    "{strategy:?} P={p} quantized={quantized} with {kernel} at {t} threads \
                     drifted: got {sum:#018x}"
                );
            }
        }
    }
}

#[test]
fn ppa_quantized_is_pinned_for_every_thread_count() {
    for t in THREADS {
        let sum = checksum_at(t, false, true);
        assert_eq!(
            sum, PINNED_PPA_QUANTIZED,
            "PPA quantized at {t} threads drifted: got {sum:#018x}"
        );
    }
}

#[test]
fn ppa_float_is_pinned_for_every_thread_count() {
    for t in THREADS {
        let sum = checksum_at(t, false, false);
        assert_eq!(
            sum, PINNED_PPA_FLOAT,
            "PPA float at {t} threads drifted: got {sum:#018x}"
        );
    }
}

#[test]
fn cpa_float_is_pinned_for_every_thread_count() {
    for t in THREADS {
        let sum = checksum_at(t, true, false);
        assert_eq!(
            sum, PINNED_CPA_FLOAT,
            "CPA float at {t} threads drifted: got {sum:#018x}"
        );
    }
}

#[test]
fn cpa_quantized_is_pinned_for_every_thread_count() {
    for t in THREADS {
        let sum = checksum_at(t, true, true);
        assert_eq!(
            sum, PINNED_CPA_QUANTIZED,
            "CPA quantized at {t} threads drifted: got {sum:#018x}"
        );
    }
}

#[test]
fn forced_kernels_match_the_quantized_pin_at_every_thread_count() {
    // The SWAR path's bit-identity contract, pinned from both sides:
    // forcing `Scalar` and forcing `Swar` on the eligible configuration
    // must both land on the pre-SWAR checksum, at serial and banded
    // thread counts alike.
    for t in [1usize, 2, 8] {
        for kernel in [Kernel::Scalar, Kernel::Swar] {
            let sum = checksum_with_kernel(t, false, true, kernel);
            assert_eq!(
                sum, PINNED_PPA_QUANTIZED,
                "PPA quantized with {kernel} forced at {t} threads drifted: got {sum:#018x}"
            );
        }
    }
}

#[test]
fn swar_request_falls_back_to_scalar_on_ineligible_configs() {
    // Float datapaths and the center-perspective traversal have no SWAR
    // tables; a forced `Swar` must resolve to the scalar loop and hit the
    // exact same pins, not error or drift.
    for (cpa, quantized, pin, name) in [
        (false, false, PINNED_PPA_FLOAT, "PPA float"),
        (true, false, PINNED_CPA_FLOAT, "CPA float"),
        (true, true, PINNED_CPA_QUANTIZED, "CPA quantized"),
    ] {
        for t in [1usize, 2, 8] {
            let sum = checksum_with_kernel(t, cpa, quantized, Kernel::Swar);
            assert_eq!(
                sum, pin,
                "{name} with Swar forced at {t} threads drifted: got {sum:#018x}"
            );
        }
    }
}

#[test]
fn run_counters_are_bit_identical_across_thread_counts() {
    // The op/traffic counters accumulate per band and fold in ascending
    // band order at the serial sync point, so every field must be exactly
    // equal — not approximately — at any worker count.
    for (cpa, quantized) in [(false, false), (false, true), (true, false)] {
        let baseline = {
            let params = SlicParams::builder(60).iterations(5).threads(1).build();
            let seg = if cpa {
                Segmenter::slic(params)
            } else {
                Segmenter::sslic_ppa(params, 2)
            };
            let seg = if quantized {
                seg.with_distance_mode(DistanceMode::quantized(8))
            } else {
                seg
            };
            *seg.run(SegmentRequest::Rgb(&fixed_scene().rgb), &RunOptions::new())
                .report().counters()
        };
        assert!(baseline.distance_calcs > 0);
        for t in [2usize, 8] {
            let params = SlicParams::builder(60).iterations(5).threads(t).build();
            let seg = if cpa {
                Segmenter::slic(params)
            } else {
                Segmenter::sslic_ppa(params, 2)
            };
            let seg = if quantized {
                seg.with_distance_mode(DistanceMode::quantized(8))
            } else {
                seg
            };
            let out = seg.run(SegmentRequest::Rgb(&fixed_scene().rgb), &RunOptions::new());
            assert_eq!(
                out.report().counters(),
                &baseline,
                "counters drifted at {t} threads (cpa={cpa}, quantized={quantized})"
            );
        }
    }
}

#[test]
fn slic_ppa_is_sslic_ppa_with_one_subset() {
    // SLIC-PPA walks a one-subset partition: every row's members are
    // `(0, 1)`, so it must equal S-SLIC-PPA at P = 1 in labels, centers
    // and counters, on both datapaths, both kernels and any thread count.
    let scene = fixed_scene();
    for quantized in [false, true] {
        for kernel in [Kernel::Scalar, Kernel::Auto] {
            for t in [1usize, 4] {
                let params = SlicParams::builder(60)
                    .iterations(5)
                    .threads(t)
                    .kernel(kernel)
                    .build();
                let [slic, sslic] = [Segmenter::slic_ppa(params), Segmenter::sslic_ppa(params, 1)]
                    .map(|seg| {
                        let seg = if quantized {
                            seg.with_distance_mode(DistanceMode::quantized(8))
                        } else {
                            seg
                        };
                        seg.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new())
                    });
                let case = format!("quantized={quantized} {kernel} at {t} threads");
                assert_eq!(slic.labels(), sslic.labels(), "labels: {case}");
                assert_eq!(slic.clusters(), sslic.clusters(), "centers: {case}");
                assert_eq!(
                    slic.report().counters(),
                    sslic.report().counters(),
                    "counters: {case}"
                );
            }
        }
    }
}

#[test]
fn warm_start_is_thread_count_invariant() {
    // Warm starts change the sigma state the banded reduction sees; pin
    // their invariance too (relative, not absolute: the cold result is
    // itself pinned above).
    let cold = Segmenter::sslic_ppa(
        SlicParams::builder(60).iterations(5).build(),
        2,
    )
    .run(SegmentRequest::Rgb(&fixed_scene().rgb), &RunOptions::new());
    let mut baseline = None;
    for t in THREADS {
        let params = SlicParams::builder(60).iterations(2).threads(t).build();
        let warm = Segmenter::sslic_ppa(params, 2).run(
            SegmentRequest::Rgb(&fixed_scene().rgb),
            &RunOptions::new().with_warm_start(cold.clusters()),
        );
        let sum = label_checksum(warm.labels());
        match baseline {
            None => baseline = Some(sum),
            Some(expect) => assert_eq!(sum, expect, "warm start at {t} threads"),
        }
    }
}
