//! Simulated 30 fps multi-camera pipeline: segment two slowly changing
//! streams through one [`SessionFleet`], each stream warm-starting every
//! frame from its own previous centers — the deployment the paper's
//! accelerator targets. The fleet owns all per-stream warm-start
//! bookkeeping (no bootstrap buffers, no hand-rolled session juggling)
//! and every steady-state frame runs with zero heap allocations (pinned
//! at the real allocator by `tests/zero_alloc.rs`).
//!
//! ```text
//! cargo run --release --example video_stream
//! cargo run --release --example video_stream -- --trace stream
//! ```
//!
//! With `--trace PREFIX`, camera 0's warm pipeline records every frame
//! into one deterministic trace and writes `PREFIX.jsonl` (structured
//! events) and `PREFIX.chrome.json` (load in Perfetto /
//! `chrome://tracing`).

use std::time::Instant;

use sslic::image::synthetic::SyntheticImage;
use sslic::metrics::undersegmentation_error;
use sslic::obs::Recorder;
use sslic::prelude::*;

fn frame(camera: u64, t: usize) -> SyntheticImage {
    // Same scene geometry per camera; the warp phase comes from the seed,
    // so vary only the noise realization + illumination to mimic slowly
    // changing camera streams.
    SyntheticImage::builder(320, 240)
        .seed(42 + camera)
        .regions(12)
        .noise_sigma(4.0 + (t % 3) as f32)
        .illumination(15.0 + t as f32)
        .build()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_prefix: Option<String> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let recorder = trace_prefix.as_ref().map(|_| Recorder::deterministic());

    let cam0: Vec<SyntheticImage> = (0..12).map(|t| frame(0, t)).collect();
    let cam1: Vec<SyntheticImage> = (0..12).map(|t| frame(1, t)).collect();
    let k = 600;

    // Cold pipeline: every frame from scratch, 10 iterations, one-shot API.
    let cold_seg = Segmenter::sslic_ppa(
        SlicParams::builder(k).iterations(10).build(),
        2,
    );
    // Warm pipeline: a two-slot fleet, one stream per camera. Each slot is
    // a persistent session: frame 0 of a stream seeds cold, then 2 steps
    // per frame recycling that stream's previous centers in place — no
    // per-frame allocation, no center copy, and no per-stream bookkeeping
    // out here: the fleet keys the warm state by StreamId.
    let warm_seg = Segmenter::sslic_ppa(
        SlicParams::builder(k).iterations(2).build(),
        2,
    );
    let mut fleet = SessionFleet::new(
        &warm_seg,
        320,
        240,
        FleetConfig::builder().with_slots(2).build(),
    );

    println!(
        "{:<7} {:>12} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "frame", "cold (ms)", "cold fps", "cold USE", "warm (ms)", "cam0 USE", "cam1 USE"
    );
    println!("{}", "-".repeat(78));

    let (mut cold_total, mut warm_total) = (0.0f64, 0.0f64);
    for (t, (f0, f1)) in cam0.iter().zip(&cam1).enumerate() {
        // Cold baseline on camera 0 only: the per-frame cost a pipeline
        // pays without warm starts.
        let start = Instant::now();
        let cold = cold_seg.run(SegmentRequest::Rgb(&f0.rgb), &RunOptions::new());
        let cold_ms = start.elapsed().as_secs_f64() * 1e3;
        cold_total += cold_ms;

        // Camera 0 is the traced deployment path; camera 1 shares the
        // fleet but keeps fully independent warm-start state.
        let start = Instant::now();
        let mut options = RunOptions::new();
        if let Some(rec) = recorder.as_ref() {
            options = options.with_recorder(rec);
        }
        fleet.run(StreamId(0), SegmentRequest::Rgb(&f0.rgb), &options);
        let warm_ms = start.elapsed().as_secs_f64() * 1e3;
        warm_total += warm_ms;
        fleet.run(StreamId(1), SegmentRequest::Rgb(&f1.rgb), &RunOptions::new());

        println!(
            "{:<7} {:>12.2} {:>10.1} {:>10.4} {:>12.2} {:>10.4} {:>10.4}",
            t,
            cold_ms,
            1e3 / cold_ms,
            undersegmentation_error(cold.labels(), &f0.ground_truth),
            warm_ms,
            undersegmentation_error(
                fleet.stream_labels(StreamId(0)).expect("cam0 bound"),
                &f0.ground_truth
            ),
            undersegmentation_error(
                fleet.stream_labels(StreamId(1)).expect("cam1 bound"),
                &f1.ground_truth
            ),
        );
    }
    println!("{}", "-".repeat(78));
    let n = cam0.len() as f64;
    let stats = fleet.stats();
    println!(
        "mean per-frame: cold {:.2} ms ({:.1} fps), warm {:.2} ms ({:.1} fps)",
        cold_total / n,
        1e3 * n / cold_total,
        warm_total / n,
        1e3 * n / warm_total
    );
    println!(
        "fleet: {} frames over {} active streams, {} admissions, {} rejections",
        stats.frames, stats.active_streams, stats.admitted, stats.rejected
    );
    println!(
        "totals (cam0): cold {:.1} ms, warm {:.1} ms — {:.1}x less compute for\n\
         the stream at matched quality, with zero steady-state allocations.\n\
         Combined with S-SLIC subsampling this is how the accelerator's\n\
         30 fps budget stretches on video.",
        cold_total,
        warm_total,
        cold_total / warm_total
    );

    // Admission control: both slots are bound, so a third stream is
    // refused with explicit backpressure instead of silently evicting a
    // warm stream.
    match fleet.try_run(StreamId(2), SegmentRequest::Rgb(&cam0[0].rgb), &RunOptions::new()) {
        Err(e) => println!("\nadmission control: {e}"),
        Ok(_) => println!("\nunexpected admission"),
    }

    // Self-healing: one fleet serves a bare stream and a recovery-armed
    // stream under the same center-register corruption. Healing is a
    // per-call option, so the streams heal (or degrade) independently
    // while sharing the pool.
    println!("\nself-healing under sigma-register corruption (2000 ppm):");
    let plan = sslic::fault::FaultPlan::new(7).with(
        sslic::fault::FaultSite::SigmaRegister,
        sslic::fault::FaultKind::SingleBitFlip,
        2_000,
    );
    let policy = sslic::core::RecoveryPolicy::new(2);
    println!(
        "{:<7} {:>12} {:>22}",
        "frame", "no policy", "retry budget 2"
    );
    let mut healers = SessionFleet::new(
        &warm_seg,
        320,
        240,
        FleetConfig::builder().with_slots(2).build(),
    );
    let (bare, healing) = (StreamId(10), StreamId(11));
    for (t, f) in cam0.iter().take(6).enumerate() {
        let faults = sslic::fault::EngineFaults::new(&plan);
        let r0 = healers.run(
            bare,
            SegmentRequest::Rgb(&f.rgb),
            &RunOptions::new().with_faults(&faults),
        );
        let faults = sslic::fault::EngineFaults::new(&plan);
        let r1 = healers.run(
            healing,
            SegmentRequest::Rgb(&f.rgb),
            &RunOptions::new().with_faults(&faults).with_recovery(&policy),
        );
        println!(
            "{:<7} {:>12} {:>15} ({} try)",
            t,
            r0.recovery().outcome.as_str(),
            r1.recovery().outcome.as_str(),
            r1.recovery().retries,
        );
    }
    let healed = healers.stream_stats(healing).map_or(0, |s| s.recovered);
    println!(
        "rollback + bounded retry stays allocation-free ({healed} frames\n\
         recovered on the armed stream): the checkpoint and retry scratch\n\
         were built with each slot's session all along."
    );

    if let (Some(prefix), Some(rec)) = (trace_prefix, recorder) {
        let jsonl = format!("{prefix}.jsonl");
        let chrome = format!("{prefix}.chrome.json");
        if let Err(e) = std::fs::write(&jsonl, rec.to_jsonl()) {
            eprintln!("failed to write {jsonl}: {e}");
        }
        if let Err(e) = std::fs::write(&chrome, rec.to_chrome_trace()) {
            eprintln!("failed to write {chrome}: {e}");
        }
        println!(
            "trace: {} events across the warm stream -> {jsonl}, {chrome}",
            rec.event_count()
        );
    }
}
