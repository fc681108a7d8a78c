//! Trace/counter consistency: the events a traced run emits must account
//! for the run's counters exactly — against the closed-form PPA oracle,
//! and by conservation (band + step events sum to the run totals). Also
//! pins the determinism contract on the rendered trace bytes and the
//! structural validity of the Chrome trace-event output.

use sslic_core::instrument::{predict_ppa_distance_calcs, RunCounters};
use sslic_core::obs::{json, Recorder};
use sslic_core::subsample::SubsetStrategy;
use sslic_core::{RunOptions, SegmentRequest, Segmenter, SlicParams};
use sslic_image::synthetic::SyntheticImage;

fn scene() -> SyntheticImage {
    SyntheticImage::builder(96, 72).seed(11).regions(5).build()
}

fn traced_run(threads: usize, subsets: u32, iterations: u32) -> (Recorder, RunCounters) {
    let rec = Recorder::deterministic();
    let params = SlicParams::builder(80)
        .iterations(iterations)
        .threads(threads)
        .build();
    let out = Segmenter::sslic_ppa(params, subsets).run(
        SegmentRequest::Rgb(&scene().rgb),
        &RunOptions::new().with_recorder(&rec),
    );
    (rec, *out.report().counters())
}

#[test]
fn traced_distance_events_match_the_ppa_oracle_exactly() {
    let (rec, counters) = traced_run(2, 2, 6);
    let from_events: u64 = rec
        .events()
        .iter()
        .filter(|e| e.name == "core.assign.band")
        .map(|e| e.attr_u64("distance_calcs"))
        .sum();
    let oracle = predict_ppa_distance_calcs(96, 72, 6, 2, SubsetStrategy::default());
    assert_eq!(from_events, oracle, "band events vs closed form");
    assert_eq!(counters.distance_calcs, oracle, "run counters vs closed form");
}

#[test]
fn band_and_step_events_conserve_the_run_counters() {
    // Every counter field must be fully attributed: summing the per-band
    // and per-step counter events reconstructs the final RunCounters with
    // nothing lost and nothing double-counted.
    for (threads, subsets, iterations) in [(1usize, 2u32, 4u32), (3, 3, 5)] {
        let (rec, counters) = traced_run(threads, subsets, iterations);
        let mut from_events = RunCounters::default();
        for e in rec.events() {
            match e.name {
                "core.assign.band" | "core.assign.step" | "core.update.band"
                | "core.update.step" => {
                    from_events.distance_calcs += e.attr_u64("distance_calcs");
                    from_events.pixel_color_reads += e.attr_u64("pixel_color_reads");
                    from_events.dist_buffer_reads += e.attr_u64("dist_buffer_reads");
                    from_events.dist_buffer_writes += e.attr_u64("dist_buffer_writes");
                    from_events.label_reads += e.attr_u64("label_reads");
                    from_events.label_writes += e.attr_u64("label_writes");
                    from_events.center_reads += e.attr_u64("center_reads");
                    from_events.sigma_updates += e.attr_u64("sigma_updates");
                    from_events.center_updates += e.attr_u64("center_updates");
                }
                "core.step" => {
                    from_events.sub_iterations += e.attr_u64("sub_iterations");
                }
                _ => {}
            }
        }
        assert_eq!(
            from_events, counters,
            "event sum vs run counters at threads={threads} subsets={subsets}"
        );
    }
}

#[test]
fn deterministic_traces_are_byte_identical_across_threads_and_repeats() {
    let (rec1, _) = traced_run(1, 2, 5);
    let (rec1b, _) = traced_run(1, 2, 5);
    let (rec4, _) = traced_run(4, 2, 5);
    let (rec8, _) = traced_run(8, 2, 5);
    let jsonl = rec1.to_jsonl();
    assert_eq!(jsonl, rec1b.to_jsonl(), "repeat run");
    assert_eq!(jsonl, rec4.to_jsonl(), "4 threads");
    assert_eq!(jsonl, rec8.to_jsonl(), "8 threads");
    let chrome = rec1.to_chrome_trace();
    assert_eq!(chrome, rec4.to_chrome_trace(), "chrome, 4 threads");
    assert!(!jsonl.is_empty());
}

#[test]
fn recording_does_not_change_the_segmentation() {
    let params = SlicParams::builder(80).iterations(5).build();
    let seg = Segmenter::sslic_ppa(params, 2);
    let plain = seg.run(SegmentRequest::Rgb(&scene().rgb), &RunOptions::new());
    let rec = Recorder::deterministic();
    let traced = seg.run(
        SegmentRequest::Rgb(&scene().rgb),
        &RunOptions::new().with_recorder(&rec),
    );
    assert_eq!(plain.labels(), traced.labels());
    assert_eq!(plain.report().counters(), traced.report().counters());
}

#[test]
fn chrome_trace_is_structurally_valid_trace_event_json() {
    let (rec, _) = traced_run(2, 2, 4);
    let doc = json::parse(&rec.to_chrome_trace()).expect("chrome trace parses as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(json::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut begins = 0i64;
    let mut ends = 0i64;
    for e in events {
        let ph = e.get("ph").and_then(json::Json::as_str).expect("ph");
        assert!(
            matches!(ph, "B" | "E" | "i" | "C"),
            "unexpected phase {ph:?}"
        );
        assert!(e.get("name").and_then(json::Json::as_str).is_some());
        assert!(e.get("ts").and_then(json::Json::as_u64).is_some());
        assert!(e.get("pid").and_then(json::Json::as_u64).is_some());
        assert!(e.get("tid").and_then(json::Json::as_u64).is_some());
        match ph {
            "B" => begins += 1,
            "E" => ends += 1,
            "i" => assert_eq!(e.get("s").and_then(json::Json::as_str), Some("t")),
            _ => {}
        }
    }
    assert_eq!(begins, ends, "every span begin has a matching end");
    // ts values (recorder sequence numbers) are strictly increasing.
    let ts: Vec<u64> = events
        .iter()
        .map(|e| e.get("ts").and_then(json::Json::as_u64).unwrap_or(0))
        .collect();
    assert!(ts.windows(2).all(|w| w[0] < w[1]), "monotonic timestamps");
}

#[test]
fn run_span_wraps_the_whole_trace() {
    let (rec, _) = traced_run(1, 2, 3);
    let events = rec.events();
    assert_eq!(events.first().map(|e| e.name), Some("core.run"));
    // The last events are run-level (phases, then span end).
    assert_eq!(events.last().map(|e| e.name), Some("core.run"));
    let steps = events.iter().filter(|e| e.name == "core.step").count();
    assert_eq!(steps, 2 * 3, "begin+end per executed step");
}
