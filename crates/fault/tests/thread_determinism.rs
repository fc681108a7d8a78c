//! Thread-count invariance under active fault injection: corruption is a
//! stateless address hash and the engine's hooks fire only at serial
//! synchronization points, so a faulted run must stay bit-identical for
//! every thread count — pinned by checksums on a fixed scene. Runs under
//! the workspace's overflow-checked test profile.

use sslic_core::{label_checksum, DistanceMode, RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic_fault::{EngineFaults, FaultKind, FaultPlan, FaultSite};
use sslic_image::synthetic::SyntheticImage;

const THREADS: [usize; 4] = [1, 2, 3, 8];

fn fixed_scene() -> SyntheticImage {
    SyntheticImage::builder(64, 48).seed(2024).regions(5).build()
}

/// An aggressive plan hitting both engine fault sites.
fn active_plan() -> FaultPlan {
    FaultPlan::new(4242)
        .with(FaultSite::PixelFeature, FaultKind::SingleBitFlip, 8_000)
        .with(FaultSite::SigmaRegister, FaultKind::SingleBitFlip, 1_000)
}

fn faulted_checksum(threads: usize, cpa: bool) -> (u64, u64) {
    let params = SlicParams::builder(60)
        .iterations(5)
        .threads(threads)
        .build();
    let seg = if cpa {
        Segmenter::sslic_cpa(params, 2)
    } else {
        Segmenter::sslic_ppa(params, 2)
    };
    let seg = seg.with_distance_mode(DistanceMode::quantized(8));
    let plan = active_plan();
    let faults = EngineFaults::new(&plan);
    let out = seg.run(
        SegmentRequest::Rgb(&fixed_scene().rgb),
        &RunOptions::new().with_faults(&faults),
    );
    (label_checksum(out.labels()), faults.injected_words())
}

const PINNED_FAULTED_PPA: u64 = 0xb07d_2607_bd02_fd5e;
const PINNED_FAULTED_CPA: u64 = 0x5421_7005_f627_af3b;

#[test]
fn faulted_ppa_is_pinned_for_every_thread_count() {
    let mut words = None;
    for t in THREADS {
        let (sum, injected) = faulted_checksum(t, false);
        assert_eq!(
            sum, PINNED_FAULTED_PPA,
            "faulted PPA at {t} threads drifted: got {sum:#018x}"
        );
        assert!(injected > 0, "the plan must actually corrupt something");
        match words {
            None => words = Some(injected),
            Some(expect) => assert_eq!(injected, expect, "injection count at {t} threads"),
        }
    }
}

#[test]
fn faulted_cpa_is_pinned_for_every_thread_count() {
    for t in THREADS {
        let (sum, injected) = faulted_checksum(t, true);
        assert_eq!(
            sum, PINNED_FAULTED_CPA,
            "faulted CPA at {t} threads drifted: got {sum:#018x}"
        );
        assert!(injected > 0, "the plan must actually corrupt something");
    }
}

#[test]
fn faulted_and_clean_runs_differ() {
    // Guard against the pins accidentally pinning a no-op plan.
    let params = SlicParams::builder(60).iterations(5).build();
    let seg = Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8));
    let clean = seg.run(SegmentRequest::Rgb(&fixed_scene().rgb), &RunOptions::new());
    assert_ne!(label_checksum(clean.labels()), PINNED_FAULTED_PPA);
}

#[test]
fn faulted_session_frames_match_the_one_shot_pins() {
    // The streaming session shares the one-shot execution engine, so an
    // actively faulted frame must land on the same pinned checksums — at
    // any thread count, and on a reused session (frame > 0) just as on a
    // fresh one. `reset` makes every frame cold, like the one-shot run.
    let scene = fixed_scene();
    for (cpa, pinned) in [(false, PINNED_FAULTED_PPA), (true, PINNED_FAULTED_CPA)] {
        for t in [1usize, 2, 8] {
            let params = SlicParams::builder(60)
                .iterations(5)
                .threads(t)
                .build();
            let seg = if cpa {
                Segmenter::sslic_cpa(params, 2)
            } else {
                Segmenter::sslic_ppa(params, 2)
            };
            let seg = seg.with_distance_mode(DistanceMode::quantized(8));
            let plan = active_plan();
            let faults = EngineFaults::new(&plan);
            let mut session = seg.session(64, 48);
            for frame in 0..2 {
                session.reset();
                session.run(
                    SegmentRequest::Rgb(&scene.rgb),
                    &RunOptions::new().with_faults(&faults),
                );
                let sum = label_checksum(session.labels());
                assert_eq!(
                    sum, pinned,
                    "faulted session frame {frame} (cpa={cpa}, {t} threads) \
                     drifted: got {sum:#018x}"
                );
            }
        }
    }
}
