//! Session-vs-one-shot bit identity: a cold `SegmenterSession` frame
//! (`reset` then `run`) must reproduce `Segmenter::run` exactly — same
//! labels, same counters — for every algorithm and thread count, pinned
//! against the same checksums the thread-determinism suite carries so a
//! drift in either entry point fails loudly against an absolute
//! reference, not just against each other.

use sslic_core::{
    label_checksum, DistanceMode, RunOptions, SegmentError, SegmentRequest, Segmenter, SlicParams,
};
use sslic_image::synthetic::SyntheticImage;

const THREADS: [usize; 3] = [1, 2, 8];

fn fixed_scene() -> SyntheticImage {
    SyntheticImage::builder(64, 48).seed(2024).regions(5).build()
}

/// The checksums pinned by `thread_determinism.rs` for the fixed scene
/// (K=60, 5 iterations, 2 subsets): the session path must land on the
/// same values.
const PINNED_PPA_QUANTIZED: u64 = 0x8a1b_9b35_ba38_48cc;
const PINNED_PPA_FLOAT: u64 = 0xa416_4089_577b_ac01;
const PINNED_CPA_FLOAT: u64 = 0x1de9_c5e4_8cb9_bffb;
const PINNED_CPA_QUANTIZED: u64 = 0x1f96_3143_2ca2_8643;

fn segmenter(threads: usize, cpa: bool, quantized: bool) -> Segmenter {
    let params = SlicParams::builder(60)
        .iterations(5)
        .threads(threads)
        .build();
    let seg = if cpa {
        Segmenter::sslic_cpa(params, 2)
    } else {
        Segmenter::sslic_ppa(params, 2)
    };
    if quantized {
        seg.with_distance_mode(DistanceMode::quantized(8))
    } else {
        seg
    }
}

fn assert_session_matches_pin(cpa: bool, quantized: bool, pinned: u64) {
    let scene = fixed_scene();
    for t in THREADS {
        let seg = segmenter(t, cpa, quantized);
        let one_shot = seg.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());
        let mut session = seg.session(64, 48);
        // Several frames through the same scratch: reuse must not leak
        // state into a cold-started frame.
        for frame in 0..3 {
            session.reset();
            let report = session.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());
            let out = session.labels();
            assert_eq!(
                label_checksum(out),
                pinned,
                "session frame {frame} at {t} threads (cpa={cpa}, quantized={quantized}) \
                 drifted from the pinned labels"
            );
            assert_eq!(out.as_slice(), one_shot.labels().as_slice());
            assert_eq!(report.counters(), one_shot.report().counters());
        }
    }
}

#[test]
fn session_ppa_quantized_matches_the_pin_at_every_thread_count() {
    assert_session_matches_pin(false, true, PINNED_PPA_QUANTIZED);
}

#[test]
fn session_ppa_float_matches_the_pin_at_every_thread_count() {
    assert_session_matches_pin(false, false, PINNED_PPA_FLOAT);
}

#[test]
fn session_cpa_float_matches_the_pin_at_every_thread_count() {
    assert_session_matches_pin(true, false, PINNED_CPA_FLOAT);
}

#[test]
fn session_cpa_quantized_matches_the_pin_at_every_thread_count() {
    assert_session_matches_pin(true, true, PINNED_CPA_QUANTIZED);
}

#[test]
fn plain_slic_sessions_match_one_shot_at_every_thread_count() {
    // The non-subsampled variants have no standalone pin; pin them
    // relatively (session == one-shot) with counters included.
    let scene = fixed_scene();
    for cpa in [false, true] {
        for t in THREADS {
            let params = SlicParams::builder(60)
                .iterations(5)
                .threads(t)
                .build();
            let seg = if cpa {
                Segmenter::slic(params)
            } else {
                Segmenter::slic_ppa(params)
            };
            let one_shot = seg.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());
            let mut session = seg.session(64, 48);
            session.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());
            assert_eq!(
                session.labels().as_slice(),
                one_shot.labels().as_slice(),
                "cpa={cpa} t={t}"
            );
        }
    }
}

#[test]
fn geometry_change_is_a_typed_error() {
    let seg = segmenter(2, false, false);
    let mut session = seg.session(64, 48);
    let scene = fixed_scene();
    session.run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new());
    // The camera "switches resolution": the session refuses rather than
    // resegmenting through mis-sized scratch.
    let smaller = SyntheticImage::builder(32, 24).seed(7).regions(3).build();
    let err = session
        .try_run(SegmentRequest::Rgb(&smaller.rgb), &RunOptions::new())
        .unwrap_err();
    assert_eq!(
        err,
        SegmentError::GeometryMismatch {
            expected: (64, 48),
            actual: (32, 24),
        }
    );
    // The session stays usable for correctly-sized frames afterwards.
    let report = session
        .try_run(SegmentRequest::Rgb(&scene.rgb), &RunOptions::new())
        .expect("session survives a rejected frame");
    assert!(report.iterations_run() > 0);
}
