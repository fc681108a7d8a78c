//! Exhaustive error-path coverage: every [`ParamError`], [`SegmentError`],
//! and [`FleetError`] variant is reachable through the fallible entry
//! points, the panicking twins carry the same message, and a rejected
//! frame leaves the session's labels, centers and frame count untouched.

use sslic_core::{
    FleetConfig, FleetError, Kernel, ParamError, RunOptions, SegmentError, SegmentRequest,
    Segmenter, SegmenterSession, SessionFleet, SlicParams, StreamId,
};
use sslic_image::synthetic::SyntheticImage;

fn scene(w: usize, h: usize) -> SyntheticImage {
    SyntheticImage::builder(w, h).seed(3).regions(4).build()
}

#[test]
fn every_param_error_variant_is_reachable_via_try_build() {
    assert_eq!(
        SlicParams::builder(0).try_build().unwrap_err(),
        ParamError::ZeroSuperpixels
    );
    assert_eq!(
        SlicParams::builder(100).compactness(0.0).try_build().unwrap_err(),
        ParamError::InvalidCompactness
    );
    assert_eq!(
        SlicParams::builder(100).compactness(-3.0).try_build().unwrap_err(),
        ParamError::InvalidCompactness
    );
    assert_eq!(
        SlicParams::builder(100)
            .compactness(f32::NAN)
            .try_build()
            .unwrap_err(),
        ParamError::InvalidCompactness
    );
    assert_eq!(
        SlicParams::builder(100)
            .compactness(f32::INFINITY)
            .try_build()
            .unwrap_err(),
        ParamError::InvalidCompactness
    );
    assert_eq!(
        SlicParams::builder(100).iterations(0).try_build().unwrap_err(),
        ParamError::ZeroIterations
    );
    assert_eq!(
        SlicParams::builder(100).threads(0).try_build().unwrap_err(),
        ParamError::ZeroThreads
    );
    // The happy path still builds.
    assert!(SlicParams::builder(100).try_build().is_ok());
}

#[test]
fn unknown_kernel_is_reachable_via_from_str() {
    // `Kernel` parses only the canonical lowercase names — everything
    // else (the CLI's `--kernel bogus`, trailing whitespace, wrong case)
    // lands on the dedicated variant.
    for bad in ["bogus", "", "Swar", "SCALAR", "auto ", "simd"] {
        assert_eq!(
            bad.parse::<Kernel>().unwrap_err(),
            ParamError::UnknownKernel,
            "{bad:?} must be rejected"
        );
    }
    assert_eq!("swar".parse::<Kernel>().unwrap(), Kernel::Swar);
}

#[test]
fn param_errors_display_distinct_messages() {
    let variants = [
        ParamError::ZeroSuperpixels,
        ParamError::InvalidCompactness,
        ParamError::ZeroIterations,
        ParamError::ZeroThreads,
        ParamError::UnknownKernel,
    ];
    let messages: Vec<String> = variants.iter().map(|v| v.to_string()).collect();
    for (i, m) in messages.iter().enumerate() {
        assert!(!m.is_empty());
        for other in &messages[i + 1..] {
            assert_ne!(m, other, "messages must distinguish the variants");
        }
    }
}

#[test]
fn empty_frame_is_reported_by_try_new() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(2).build(), 2);
    for (w, h) in [(0usize, 32usize), (32, 0), (0, 0)] {
        let err = SegmenterSession::try_new(seg.clone(), w, h).unwrap_err();
        assert_eq!(err, SegmentError::EmptyFrame { width: w, height: h });
        assert!(err.to_string().contains("empty"));
    }
}

#[test]
fn geometry_mismatch_is_reported_for_the_request() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(2).build(), 2);
    let mut session = seg.session(64, 48);
    for (w, h) in [(32usize, 24usize), (64, 47)] {
        let wrong = scene(w, h);
        let err = session
            .try_run(SegmentRequest::Rgb(&wrong.rgb), &RunOptions::new())
            .unwrap_err();
        assert_eq!(
            err,
            SegmentError::GeometryMismatch {
                expected: (64, 48),
                actual: (w, h),
            }
        );
    }
}

#[test]
fn warm_start_length_is_validated() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(2).build(), 2);
    let mut session = seg.session(64, 48);
    let img = scene(64, 48);
    // Learn the true cluster count from a clean run.
    session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let k = session.clusters().len();

    let bogus = vec![sslic_core::Cluster::default(); k + 1];
    let err = session
        .try_run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_warm_start(&bogus),
        )
        .unwrap_err();
    assert_eq!(
        err,
        SegmentError::WarmStartLen {
            expected: k,
            actual: k + 1,
        }
    );
}

#[test]
fn rejected_frames_leave_the_session_untouched() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(2).build(), 2);
    let mut session = seg.session(64, 48);
    let img = scene(64, 48);
    session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let labels = session.labels().clone();
    let clusters = session.clusters().to_vec();
    let k = clusters.len();

    // Wrong-geometry request, then a wrong warm-start length: both are
    // rejected before any pixel work, so the previous frame's labels,
    // centers and the frame count all survive.
    let wrong = scene(32, 24);
    let bogus = vec![sslic_core::Cluster::default(); k + 3];
    let rejected = [
        (
            SegmentRequest::Rgb(&wrong.rgb),
            RunOptions::new(),
            "geometry mismatch",
        ),
        (
            SegmentRequest::Rgb(&img.rgb),
            RunOptions::new().with_warm_start(&bogus),
            "warm-start rejection",
        ),
    ];
    for (request, options, what) in rejected {
        assert!(session.try_run(request, &options).is_err(), "{what}");
        assert_eq!(session.labels(), &labels, "{what} touched the labels");
        assert_eq!(
            session.clusters(),
            &clusters[..],
            "{what} touched the centers"
        );
        assert_eq!(session.frames(), 1, "{what} counted as a frame");
    }

    // The session stays serviceable: the next frame warm-starts from the
    // surviving centers exactly as if the rejections never happened.
    let mut reference = seg.session(64, 48);
    reference.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let expected = reference.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let report = session
        .try_run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new())
        .expect("session must survive rejected requests");
    assert_eq!(session.frames(), 2);
    assert_eq!(report.counters(), expected.counters());
    assert_eq!(session.labels(), reference.labels());
    assert_eq!(session.clusters(), reference.clusters());
}

#[test]
fn every_fleet_error_variant_is_reachable() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(2).build(), 2);
    let img = scene(64, 48);

    // ZeroSlots falls out of builder validation.
    assert_eq!(
        FleetConfig::builder().with_slots(0).try_build().unwrap_err(),
        FleetError::ZeroSlots
    );

    // Saturated: a 1-slot fleet refuses a second live stream.
    let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(1).build();
    let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
    fleet.run(StreamId(0), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    let err = fleet
        .try_run(StreamId(1), SegmentRequest::Rgb(&img.rgb), &RunOptions::new())
        .unwrap_err();
    assert_eq!(
        err,
        SegmentError::Fleet(FleetError::Saturated { streams: 1, slots: 1 })
    );

    // QueueFull: the bounded queue rejects past its configured depth.
    assert!(fleet.try_enqueue(StreamId(1), img.rgb.clone()).is_ok());
    let err = fleet.try_enqueue(StreamId(2), img.rgb.clone()).unwrap_err();
    assert_eq!(err, SegmentError::Fleet(FleetError::QueueFull { depth: 1 }));

    // Both rejections are observable in the fleet stats.
    assert_eq!(fleet.stats().rejected, 2);

    // And the shared error hierarchy still reaches the non-fleet variants
    // through fleet entry points: bad geometry at construction and
    // per-frame.
    let err = SessionFleet::try_new(&seg, 0, 48, FleetConfig::default()).unwrap_err();
    assert_eq!(err, SegmentError::EmptyFrame { width: 0, height: 48 });
    let wrong = scene(32, 24);
    let err = fleet.try_enqueue(StreamId(9), wrong.rgb.clone()).unwrap_err();
    assert_eq!(
        err,
        SegmentError::GeometryMismatch {
            expected: (64, 48),
            actual: (32, 24),
        }
    );
}

#[test]
fn fleet_errors_display_distinct_messages() {
    let variants = [
        FleetError::Saturated { streams: 2, slots: 2 },
        FleetError::QueueFull { depth: 4 },
        FleetError::ZeroSlots,
    ];
    let messages: Vec<String> = variants.iter().map(|v| v.to_string()).collect();
    for (i, m) in messages.iter().enumerate() {
        assert!(!m.is_empty());
        for other in &messages[i + 1..] {
            assert_ne!(m, other, "messages must distinguish the variants");
        }
    }
    // The unified hierarchy prefixes the fleet condition, so a
    // SegmentError::Fleet message is distinct from every other
    // SegmentError variant's text.
    let folded = SegmentError::Fleet(FleetError::ZeroSlots).to_string();
    assert!(folded.starts_with("fleet: "));
    assert!(folded.contains("at least one slot"));
}

#[test]
fn fleet_panicking_twin_carries_the_typed_message() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(2).build(), 2);
    let img = scene(64, 48);
    let result = std::panic::catch_unwind(|| {
        let mut fleet = SessionFleet::new(&seg, 64, 48, FleetConfig::default());
        fleet.run(StreamId(0), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        fleet.run(StreamId(1), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
    });
    let payload = result.unwrap_err();
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    let typed = SegmentError::Fleet(FleetError::Saturated { streams: 1, slots: 1 });
    assert!(
        msg.contains(&typed.to_string()),
        "panic message {msg:?} must carry the typed error text"
    );
}

#[test]
fn panicking_twins_carry_the_typed_message() {
    let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(2).build(), 2);
    let result = std::panic::catch_unwind(|| {
        let mut session = seg.session(64, 48);
        let wrong = scene(32, 24);
        session.run(SegmentRequest::Rgb(&wrong.rgb), &RunOptions::new());
    });
    let payload = result.unwrap_err();
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    let typed = SegmentError::GeometryMismatch {
        expected: (64, 48),
        actual: (32, 24),
    };
    assert!(
        msg.contains(&typed.to_string()),
        "panic message {msg:?} must carry the typed error text"
    );
}
