//! End-to-end observability: one recorder threaded through the software
//! engine, the functional accelerator, and the fault adapters, with the
//! RunReport round-tripping through the facade. The per-subsystem
//! contracts live in the member crates' own test suites; these tests pin
//! the cross-crate composition.

use sslic::core::{
    build_run_report, DistanceMode, RunOptions, SegmentRequest, Segmenter, SlicParams,
};
use sslic::fault::{EngineFaults, FaultKind, FaultPlan, FaultSite};
use sslic::hw::accel::{Accelerator, AcceleratorConfig};
use sslic::image::synthetic::SyntheticImage;
use sslic::obs::{json, Recorder, RunReport};

fn scene() -> SyntheticImage {
    SyntheticImage::builder(96, 72).seed(5).regions(6).build()
}

#[test]
fn one_recorder_collects_engine_hw_and_fault_events() {
    let img = scene();
    let rec = Recorder::deterministic();

    // Software engine under fault injection, reporting into `rec`.
    let plan = FaultPlan::new(11).with(FaultSite::PixelFeature, FaultKind::SingleBitFlip, 20_000);
    let hooks = EngineFaults::new(&plan).with_recorder(&rec);
    let seg = Segmenter::sslic_ppa(SlicParams::builder(80).iterations(4).build(), 2)
        .with_distance_mode(DistanceMode::quantized(8));
    let out = seg.run(
        SegmentRequest::Rgb(&img.rgb),
        &RunOptions::new().with_faults(&hooks).with_recorder(&rec),
    );
    assert!(out.cluster_count() > 0);
    assert!(hooks.injected_words() > 0);

    // Functional accelerator on the same frame, same recorder.
    let hw = Accelerator::new(AcceleratorConfig {
        iterations: 4,
        buffer_bytes_per_channel: 1024,
        ..AcceleratorConfig::new(80)
    });
    let _ = hw.process_traced(&img.rgb, &rec);

    let names: Vec<&str> = rec.events().iter().map(|e| e.name).collect();
    for expected in [
        "fault.inject.lab8",
        "core.run",
        "core.step",
        "hw.frame",
        "hw.dma.stream",
        "hw.stall",
    ] {
        assert!(names.contains(&expected), "missing {expected} event");
    }
    assert!(rec.metrics().counter("fault.injected_words") > 0);
    assert!(rec.metrics().counter("hw.dram.bytes_read") > 0);

    // The combined trace still renders to both sinks and the Chrome
    // output still parses.
    let chrome = rec.to_chrome_trace();
    let doc = json::parse(&chrome).expect("combined chrome trace parses");
    assert!(doc
        .get("traceEvents")
        .and_then(json::Json::as_arr)
        .is_some_and(|a| !a.is_empty()));
}

#[test]
fn run_report_round_trips_through_the_facade() {
    let img = scene();
    let mut bytes = Vec::new();
    for threads in [1, 4] {
        let rec = Recorder::deterministic();
        let params = SlicParams::builder(80)
            .iterations(3)
            .threads(threads)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2);
        let out = seg.run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_recorder(&rec),
        );
        let report = build_run_report(&seg, &out, true, Some(&rec), 0);
        let back = RunReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(report, back);
        assert_eq!(
            back.counters.distance_calcs,
            out.report().counters().distance_calcs
        );
        // Deterministic reports carry no wall-clock time.
        assert!(back.phases.iter().all(|p| p.nanos == 0));
        bytes.push(report.to_json());
    }
    // ...nor the thread count, so the bytes are thread-count invariant.
    assert_eq!(
        bytes[0], bytes[1],
        "RunReport bytes differ between 1 and 4 threads"
    );
}
