//! The fleet contract, pinned end to end: a [`SessionFleet`] is a pure
//! scheduler. Interleaved `run` calls and `serve` produce bit-identical
//! labels, centers, and counters to N independent [`SegmenterSession`]s
//! fed the same frames — at engine threads {1, 2, 8}, with a
//! recovery-armed faulted stream healing in the middle of clean
//! neighbors, and across slot rebinding (a closed stream's replacement
//! seeds cold exactly like a fresh session).

use sslic::core::{
    label_checksum, serve, write_wire_close, write_wire_frame, write_wire_stats, RecoveryPolicy,
    ServeOptions,
};
use sslic::fault::{EngineFaults, FaultKind, FaultPlan, FaultSite};
use sslic::image::synthetic::SyntheticImage;
use sslic::image::{ppm, Plane};
use sslic::obs::RunReport;
use sslic::prelude::*;

const W: usize = 64;
const H: usize = 48;

fn images(stream: u64, count: usize) -> Vec<SyntheticImage> {
    (0..count)
        .map(|i| {
            SyntheticImage::builder(W, H)
                .seed(stream * 1000 + i as u64)
                .regions(5)
                .build()
        })
        .collect()
}

fn segmenter(threads: usize) -> Segmenter {
    Segmenter::sslic_ppa(
        SlicParams::builder(80).iterations(4).threads(threads).build(),
        2,
    )
}

#[test]
fn interleaved_fleet_frames_match_independent_sessions_at_all_thread_counts() {
    const STREAMS: u64 = 3;
    const PER_STREAM: usize = 4;
    let per_stream: Vec<Vec<SyntheticImage>> =
        (0..STREAMS).map(|s| images(s, PER_STREAM)).collect();

    for threads in [1usize, 2, 8] {
        let seg = segmenter(threads);
        let cfg = FleetConfig::builder()
            .with_slots(STREAMS as usize)
            .try_build()
            .expect("valid config");
        let mut fleet = SessionFleet::new(&seg, W, H, cfg);
        // Interleaved arrival: s0f0, s1f0, s2f0, s0f1, ...
        let mut reports = Vec::new();
        for f in 0..PER_STREAM {
            for s in 0..STREAMS {
                let rgb = &per_stream[s as usize][f].rgb;
                reports.push(fleet.run(StreamId(s), SegmentRequest::Rgb(rgb), &RunOptions::new()));
            }
        }

        // Reference: one standalone session per stream, frames in the
        // same per-stream order.
        for s in 0..STREAMS {
            let mut session = seg.session(W, H);
            for (f, img) in per_stream[s as usize].iter().enumerate() {
                let reference = session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                let i = f * STREAMS as usize + s as usize;
                assert_eq!(
                    reports[i].counters(),
                    reference.counters(),
                    "threads={threads} stream {s} frame {f}: counters"
                );
                assert_eq!(
                    reports[i].iterations_run(),
                    reference.iterations_run(),
                    "threads={threads} stream {s} frame {f}: iterations"
                );
            }
            assert_eq!(
                fleet.stream_labels(StreamId(s)).map(Plane::as_slice),
                Some(session.labels().as_slice()),
                "threads={threads} stream {s}: final labels"
            );
            assert_eq!(
                fleet.stream_clusters(StreamId(s)),
                Some(session.clusters()),
                "threads={threads} stream {s}: final centers"
            );
        }
    }
}

#[test]
fn recovery_armed_faulted_stream_heals_without_perturbing_neighbors() {
    const FRAMES: usize = 4;
    let clean_imgs = images(7, FRAMES);
    let hot_imgs = images(8, FRAMES);
    // Sigma-register corruption dense enough that every frame trips a
    // guard, yet sparse enough that one rollback retry heals it — so the
    // fleet's per-stream `recovered` tally must advance.
    let plan = FaultPlan::new(11).with(FaultSite::SigmaRegister, FaultKind::SingleBitFlip, 5_000);
    let policy = RecoveryPolicy::new(2);

    for threads in [1usize, 2, 8] {
        let seg = segmenter(threads);
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut fleet = SessionFleet::new(&seg, W, H, cfg);
        let (clean, hot) = (StreamId(0), StreamId(1));
        let fleet_faults = EngineFaults::new(&plan);

        // References: independent sessions under identical options.
        let mut clean_ref = seg.session(W, H);
        let mut hot_ref = seg.session(W, H);
        let ref_faults = EngineFaults::new(&plan);

        for f in 0..FRAMES {
            let a = fleet.run(
                clean,
                SegmentRequest::Rgb(&clean_imgs[f].rgb),
                &RunOptions::new(),
            );
            let b = fleet.run(
                hot,
                SegmentRequest::Rgb(&hot_imgs[f].rgb),
                &RunOptions::new()
                    .with_faults(&fleet_faults)
                    .with_recovery(&policy),
            );
            let a_ref = clean_ref.run(SegmentRequest::Rgb(&clean_imgs[f].rgb), &RunOptions::new());
            let b_ref = hot_ref.run(
                SegmentRequest::Rgb(&hot_imgs[f].rgb),
                &RunOptions::new()
                    .with_faults(&ref_faults)
                    .with_recovery(&policy),
            );
            assert_eq!(a.counters(), a_ref.counters(), "x{threads} clean frame {f}");
            assert_eq!(b.counters(), b_ref.counters(), "x{threads} hot frame {f}");
            assert_eq!(
                b.recovery().retries,
                b_ref.recovery().retries,
                "x{threads} hot frame {f}: retry ladder"
            );
            assert_eq!(a.status(), SegmentationStatus::Ok, "x{threads} frame {f}");
            assert_eq!(b.status(), b_ref.status(), "x{threads} frame {f}");
        }
        assert_eq!(
            fleet.stream_labels(clean).map(Plane::as_slice),
            Some(clean_ref.labels().as_slice()),
            "x{threads}: the clean stream must not see the neighbor's faults"
        );
        assert_eq!(
            fleet.stream_labels(hot).map(Plane::as_slice),
            Some(hot_ref.labels().as_slice()),
            "x{threads}: the healed stream matches its standalone twin"
        );
        let hot_stats = fleet.stream_stats(hot).expect("hot stream bound");
        assert!(
            hot_stats.recovered > 0,
            "x{threads}: the hot plan must actually force recoveries"
        );
        assert_eq!(
            fleet.stream_stats(clean).map(|s| s.recovered),
            Some(0),
            "x{threads}: healing is per-stream"
        );
    }
}

/// Encodes the canonical serve workload: interleaved frames on streams 0
/// and 1, a close of stream 0, then one more stream-0 frame that must
/// rebind cold.
fn wire_input(s0: &[SyntheticImage], s1: &[SyntheticImage]) -> Vec<u8> {
    fn push_frame(wire: &mut Vec<u8>, stream: u64, img: &SyntheticImage) {
        let mut payload = Vec::new();
        ppm::write_ppm(&mut payload, &img.rgb).expect("encode ppm");
        write_wire_frame(wire, StreamId(stream), &payload).expect("frame record");
    }
    let mut wire = Vec::new();
    push_frame(&mut wire, 0, &s0[0]);
    push_frame(&mut wire, 1, &s1[0]);
    push_frame(&mut wire, 0, &s0[1]);
    write_wire_close(&mut wire, StreamId(0)).expect("close record");
    push_frame(&mut wire, 0, &s0[2]);
    wire
}

#[test]
fn serve_is_thread_invariant_and_matches_independent_sessions() {
    let s0 = images(20, 3);
    let s1 = images(21, 1);
    let wire = wire_input(&s0, &s1);

    let mut outputs: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let seg = segmenter(threads);
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut out = Vec::new();
        let summary = serve(&seg, cfg, &mut &wire[..], &mut out, &ServeOptions::new())
            .expect("serve pumps to EOF");
        assert_eq!(summary.frames, 4);
        assert_eq!(summary.closed, 1);
        outputs.push(String::from_utf8(out).expect("utf8 output"));
    }
    // Deterministic reports omit the thread count, so the whole output
    // is byte-identical with no normalisation.
    assert!(!outputs[0].contains("\"threads\""));
    assert_eq!(outputs[0], outputs[1], "1 vs 2 threads");
    assert_eq!(outputs[0], outputs[2], "1 vs 8 threads");
    let first_output = &outputs[0];

    // Per-stream label checksums in the report lines must match
    // independent sessions — including the cold rebind after the close.
    let lines: Vec<&str> = first_output.lines().collect();
    assert_eq!(lines.len(), 6, "4 reports + close ack + summary");
    let checksums: Vec<(u64, u64)> = lines[..3]
        .iter()
        .chain(&lines[4..5])
        .map(|line| {
            let report = RunReport::from_json(line).expect("report line parses");
            let fleet = report.fleet.expect("fleet section present");
            (fleet.stream, fleet.label_checksum)
        })
        .collect();
    assert!(lines[3].contains("sslic-serve-close-v1"));
    assert!(lines[5].contains("sslic-serve-summary-v2"));
    assert!(lines[5].contains("\"frame_latency_p50\":"));

    let seg = segmenter(1);
    let mut expected = Vec::new();
    // Stream 0 warms across its first two frames...
    let mut session0 = seg.session(W, H);
    session0.run(SegmentRequest::Rgb(&s0[0].rgb), &RunOptions::new());
    expected.push((0, label_checksum(session0.labels())));
    // ...stream 1 runs independently...
    let mut session1 = seg.session(W, H);
    session1.run(SegmentRequest::Rgb(&s1[0].rgb), &RunOptions::new());
    expected.push((1, label_checksum(session1.labels())));
    session0.run(SegmentRequest::Rgb(&s0[1].rgb), &RunOptions::new());
    expected.push((0, label_checksum(session0.labels())));
    // ...and after the close, stream 0's next frame seeds a fresh session.
    let mut rebound = seg.session(W, H);
    rebound.run(SegmentRequest::Rgb(&s0[2].rgb), &RunOptions::new());
    expected.push((0, label_checksum(rebound.labels())));

    assert_eq!(checksums, expected);
}

#[test]
fn serve_heartbeats_and_stats_are_thread_invariant() {
    let s0 = images(40, 3);
    let s1 = images(41, 1);
    // The canonical workload plus a stats request at the very end, so the
    // exposition covers every frame.
    let mut wire = wire_input(&s0, &s1);
    write_wire_stats(&mut wire).expect("stats record");

    let mut telemetry_lines: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 4] {
        let seg = segmenter(threads);
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut out = Vec::new();
        serve(
            &seg,
            cfg,
            &mut &wire[..],
            &mut out,
            &ServeOptions::new().with_heartbeat(2),
        )
        .expect("serve pumps to EOF");
        let text = String::from_utf8(out).expect("utf8 output");
        // Heartbeat, stats, and summary lines carry no thread-dependent
        // field, so they must be byte-identical with NO normalisation.
        let telemetry: Vec<String> = text
            .lines()
            .filter(|l| {
                l.contains("sslic-serve-heartbeat-v1")
                    || l.contains("sslic-serve-stats-v1")
                    || l.contains("sslic-serve-summary-v2")
            })
            .map(str::to_string)
            .collect();
        let beats = telemetry
            .iter()
            .filter(|l| l.contains("heartbeat"))
            .count();
        assert_eq!(beats, 2, "4 frames at --heartbeat 2 fire twice");
        telemetry_lines.push(telemetry);
    }
    assert_eq!(
        telemetry_lines[0], telemetry_lines[1],
        "telemetry bytes are identical at 1 vs 4 threads"
    );

    // The stats reply is a valid Prometheus exposition over the fleet.
    let stats_line = telemetry_lines[0]
        .iter()
        .find(|l| l.contains("sslic-serve-stats-v1"))
        .expect("stats reply present");
    let exposition = stats_line
        .split("\"exposition\":\"")
        .nth(1)
        .and_then(|s| s.strip_suffix("\"}"))
        .expect("exposition field")
        .replace("\\n", "\n")
        .replace("\\\"", "\"");
    assert!(exposition.contains("# TYPE sslic_fleet_frame_latency histogram"));
    assert!(exposition.contains("sslic_fleet_frame_latency_bucket{le=\"+Inf\"} 4"));
    assert!(exposition.contains("sslic_fleet_frames_total 4"));
    assert!(exposition.contains("sslic_stream_frames_total{stream=\"1\"} 1"));
    for line in exposition.lines() {
        assert!(
            line.starts_with("# TYPE ") || line.contains(' '),
            "every exposition line is a comment or a `name value` sample: {line:?}"
        );
    }
}

#[test]
fn serve_queues_under_saturation_and_drains_on_close() {
    let s0 = images(30, 1);
    let s1 = images(31, 1);
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    ppm::write_ppm(&mut payload, &s0[0].rgb).expect("encode ppm");
    write_wire_frame(&mut wire, StreamId(0), &payload).expect("frame record");
    payload.clear();
    ppm::write_ppm(&mut payload, &s1[0].rgb).expect("encode ppm");
    write_wire_frame(&mut wire, StreamId(1), &payload).expect("frame record");
    write_wire_close(&mut wire, StreamId(0)).expect("close record");

    let seg = segmenter(1);
    let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(2).build();
    let mut out = Vec::new();
    let summary = serve(&seg, cfg, &mut &wire[..], &mut out, &ServeOptions::new())
        .expect("serve pumps to EOF");
    assert_eq!(summary.frames, 2);
    assert_eq!(summary.queued_peak, 1);
    let text = String::from_utf8(out).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    // report(s0), queued(s1), close ack draining s1's report, summary.
    assert_eq!(lines.len(), 5);
    assert!(lines[1].contains("sslic-serve-queued-v1"));
    assert!(lines[3].contains("\"drained\":1"));

    // The drained frame is bit-identical to a cold standalone run.
    let drained = RunReport::from_json(lines[2]).expect("drained report parses");
    let fleet = drained.fleet.expect("fleet section");
    assert_eq!(fleet.stream, 1);
    let mut reference = seg.session(W, H);
    reference.run(SegmentRequest::Rgb(&s1[0].rgb), &RunOptions::new());
    assert_eq!(fleet.label_checksum, label_checksum(reference.labels()));
}
