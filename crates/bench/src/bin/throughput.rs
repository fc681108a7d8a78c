//! Thread-scaling throughput sweep of the banded parallel engine.
//!
//! Sweeps thread count × image size over the paper's primary
//! configuration (S-SLIC PPA, 2 subsets, quantized 8-bit datapath) and
//! reports frames/sec and speedup vs 1 thread as markdown. The JSON
//! report carries only the *deterministic* outputs — the configuration
//! and one label checksum per image size — so two invocations with
//! different `--threads` lists produce byte-identical JSON (CI diffs a
//! 1-thread run against a 4-thread run to enforce the engine's
//! thread-count-invariance contract). The binary additionally verifies
//! in-process that every swept thread count reproduces the same checksum.
//!
//! Usage:
//!
//! ```text
//! throughput [--threads 1,2,4,8] [--sizes 320x240,1280x720]
//!            [--frames N] [--superpixels K] [--iterations N]
//!            [--mode oneshot|session|fleet] [--kernel auto|scalar|swar]
//!            [--json PATH] [--md PATH] [--report PATH]
//! ```
//!
//! `--kernel` pins the assign backend for the timed sweep (the labels —
//! and hence the JSON checksums — are bit-identical either way; only the
//! wall-clock changes), which is how EXPERIMENTS.md measures the
//! scalar-vs-SWAR assign-phase speedup.
//!
//! `--mode session` drives every frame through a persistent
//! [`sslic_core::SegmenterSession`] via `reset` + `run` (cold per frame,
//! zero steady-state allocations) instead of the one-shot `Segmenter::run`.
//! `--mode fleet` drives every frame through a one-slot
//! [`sslic_core::SessionFleet`] — the warm-up frame seeds the stream
//! cold, the timed frames then run the fleet's steady state (per-stream
//! warm starts, zero allocations). The warm-up frame of every mode is
//! bit-identical by contract, so the JSON report is byte-identical
//! across modes as well as thread lists — CI diffs the modes against
//! each other to enforce it.
//!
//! `--report` additionally writes a structured [`sslic_obs::RunReport`]
//! from one traced deterministic 1-thread run of the first size —
//! wall-clock phase timings are zeroed, so the report bytes, like the
//! JSON report, depend only on the workload.
//!
//! `--bench-json` writes the *performance-trajectory seed*: per-size
//! label checksums, operation counters, and modeled DRAM traffic — every
//! field a pure function of the workload, no wall-clock anywhere. The
//! seed frame runs through the selected mode and kernel at the largest
//! swept thread count, and every such choice must emit the same bytes.
//! CI regenerates it across the mode × threads × kernel matrix and
//! byte-diffs each result against the committed `BENCH_10.json`, so any
//! change to the engine's workload shape (more distance calculations,
//! more traffic) must be committed deliberately.

use std::env;
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

use sslic_core::{
    build_run_report, label_checksum, DistanceMode, FleetConfig, Kernel, RunOptions,
    SegmentRequest, Segmenter, SessionFleet, SlicParams, StreamId,
};
use sslic_image::synthetic::SyntheticImage;
use sslic_obs::Recorder;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Oneshot,
    Session,
    Fleet,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Oneshot => "oneshot",
            Mode::Session => "session",
            Mode::Fleet => "fleet",
        }
    }
}

struct Cell {
    threads: usize,
    ms_per_frame: f64,
    fps: f64,
    speedup: f64,
}

struct SizeResult {
    width: usize,
    height: usize,
    checksum: u64,
    cells: Vec<Cell>,
}

fn parse_threads(spec: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        match part.trim().parse::<usize>() {
            Ok(n) if n > 0 => out.push(n),
            _ => return None,
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn parse_sizes(spec: &str) -> Option<Vec<(usize, usize)>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (w, h) = part.trim().split_once('x')?;
        match (w.parse::<usize>(), h.parse::<usize>()) {
            (Ok(w), Ok(h)) if w > 0 && h > 0 => out.push((w, h)),
            _ => return None,
        }
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

fn main() -> ExitCode {
    let mut threads = vec![1usize, 2, 4, 8];
    let mut sizes = vec![(320usize, 240usize), (1280, 720)];
    let mut frames = 3usize;
    let mut superpixels = 600usize;
    let mut iterations = 5u32;
    let mut mode = Mode::Oneshot;
    let mut kernel = Kernel::Auto;
    let mut json_path: Option<String> = None;
    let mut md_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut bench_json_path: Option<String> = None;

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match args.next().as_deref().and_then(parse_threads) {
                Some(t) => threads = t,
                None => return usage("--threads needs a comma list of positive integers"),
            },
            "--sizes" => match args.next().as_deref().and_then(parse_sizes) {
                Some(s) => sizes = s,
                None => return usage("--sizes needs a comma list like 320x240,1280x720"),
            },
            "--frames" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => frames = n,
                _ => return usage("--frames needs a positive integer"),
            },
            "--superpixels" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => superpixels = n,
                _ => return usage("--superpixels needs a positive integer"),
            },
            "--iterations" => match args.next().map(|v| v.parse::<u32>()) {
                Some(Ok(n)) if n > 0 => iterations = n,
                _ => return usage("--iterations needs a positive integer"),
            },
            "--mode" => match args.next().as_deref() {
                Some("oneshot") => mode = Mode::Oneshot,
                Some("session") => mode = Mode::Session,
                Some("fleet") => mode = Mode::Fleet,
                _ => return usage("--mode needs `oneshot`, `session`, or `fleet`"),
            },
            "--kernel" => match args.next().as_deref().map(str::parse::<Kernel>) {
                Some(Ok(k)) => kernel = k,
                _ => return usage("--kernel needs `auto`, `scalar`, or `swar`"),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => return usage("--json needs a path"),
            },
            "--md" => match args.next() {
                Some(p) => md_path = Some(p),
                None => return usage("--md needs a path"),
            },
            "--report" => match args.next() {
                Some(p) => report_path = Some(p),
                None => return usage("--report needs a path"),
            },
            "--bench-json" => match args.next() {
                Some(p) => bench_json_path = Some(p),
                None => return usage("--bench-json needs a path"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // 1 thread must always be present: it is the speedup baseline.
    if !threads.contains(&1) {
        threads.insert(0, 1);
    }
    eprintln!(
        "throughput: {} sizes × {} thread counts, {frames} frames each, K={superpixels}, \
         {iterations} iters, {} mode, {} kernel",
        sizes.len(),
        threads.len(),
        mode.as_str(),
        kernel.as_str(),
    );

    let mut results = Vec::new();
    for &(w, h) in &sizes {
        let img = SyntheticImage::builder(w, h).seed(2024).regions(12).build();
        let mut cells: Vec<Cell> = Vec::new();
        let mut checksum: Option<u64> = None;
        for &t in &threads {
            let params = SlicParams::builder(superpixels)
                .iterations(iterations)
                .threads(t)
                .kernel(kernel)
                .build();
            let seg = Segmenter::sslic_ppa(params, 2)
                .with_distance_mode(DistanceMode::quantized(8));
            let mut session = (mode == Mode::Session).then(|| seg.session(w, h));
            let mut fleet =
                (mode == Mode::Fleet).then(|| SessionFleet::new(&seg, w, h, FleetConfig::default()));
            // One untimed warm-up run (page-in, allocator steady state);
            // its labels also feed the cross-thread-count equality check.
            // In fleet mode this is the stream's cold frame — bit-identical
            // to the other modes' cold run by contract.
            let sum = match (session.as_mut(), fleet.as_mut()) {
                (Some(sess), _) => {
                    sess.reset();
                    sess.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    label_checksum(sess.labels())
                }
                (_, Some(fl)) => {
                    fl.run(StreamId(0), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    label_checksum(fl.stream_labels(StreamId(0)).expect("stream just ran"))
                }
                _ => {
                    let out = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    label_checksum(out.labels())
                }
            };
            match checksum {
                None => checksum = Some(sum),
                Some(expect) if expect != sum => {
                    eprintln!(
                        "throughput: {w}x{h}: labels at {t} threads diverge from baseline \
                         ({sum:#018x} vs {expect:#018x}) — determinism contract broken"
                    );
                    return ExitCode::FAILURE;
                }
                Some(_) => {}
            }
            let start = Instant::now();
            for _ in 0..frames {
                match (session.as_mut(), fleet.as_mut()) {
                    (Some(sess), _) => {
                        sess.reset();
                        sess.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    }
                    (_, Some(fl)) => {
                        fl.run(StreamId(0), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    }
                    _ => {
                        let _ = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    }
                }
            }
            let ms_per_frame = start.elapsed().as_secs_f64() * 1e3 / frames as f64;
            let fps = 1e3 / ms_per_frame;
            let speedup = match cells.first() {
                Some(base) => base.ms_per_frame / ms_per_frame,
                None => 1.0,
            };
            cells.push(Cell {
                threads: t,
                ms_per_frame,
                fps,
                speedup,
            });
        }
        results.push(SizeResult {
            width: w,
            height: h,
            checksum: checksum.unwrap_or(0),
            cells,
        });
    }

    let json = to_json(superpixels, iterations, &results);
    let md = to_markdown(superpixels, iterations, frames, &results);

    if let Some(path) = &json_path {
        if let Err(e) = fs::write(path, &json) {
            eprintln!("throughput: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &md_path {
        if let Err(e) = fs::write(path, &md) {
            eprintln!("throughput: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &report_path {
        // Pinned to 1 thread regardless of the swept list, so the report
        // bytes are invariant across invocations (CI byte-diffs them).
        let (w, h) = sizes[0];
        let img = SyntheticImage::builder(w, h).seed(2024).regions(12).build();
        let params = SlicParams::builder(superpixels)
            .iterations(iterations)
            .threads(1)
            .build();
        let seg = Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8));
        let rec = Recorder::deterministic();
        let out = seg.run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_recorder(&rec),
        );
        let report = build_run_report(&seg, &out, true, Some(&rec), 0);
        if let Err(e) = fs::write(path, report.to_json()) {
            eprintln!("throughput: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &bench_json_path {
        // The perf-trajectory seed. No timings — the seed is
        // byte-reproducible, and by the determinism contract it is the
        // same at every thread count.
        let seed_threads = threads.iter().copied().max().unwrap_or(1);
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"sslic-bench-seed-v1\",\n");
        out.push_str(&format!(
            "  \"config\": {{\"algorithm\": \"sslic_ppa\", \"subsets\": 2, \
             \"distance\": \"quantized8\", \"superpixels\": {superpixels}, \
             \"iterations\": {iterations}, \"seed\": 2024}},\n"
        ));
        out.push_str("  \"workloads\": [\n");
        for (i, &(w, h)) in sizes.iter().enumerate() {
            let img = SyntheticImage::builder(w, h).seed(2024).regions(12).build();
            let params = SlicParams::builder(superpixels)
                .iterations(iterations)
                .threads(seed_threads)
                .kernel(kernel)
                .build();
            let seg =
                Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8));
            // The seed frame is cold in every mode, so the counters and
            // checksum below are mode-invariant — the committed seed stays
            // byte-identical whichever API regenerates it. The kernel flag
            // is honored too: the SWAR path's bit-identity contract means a
            // `--kernel swar` regeneration must reproduce the scalar seed
            // exactly (CI pins this).
            let (sum, c) = match mode {
                Mode::Fleet => {
                    let mut fl = SessionFleet::new(&seg, w, h, FleetConfig::default());
                    let report =
                        fl.run(StreamId(0), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    let c = *report.counters();
                    (
                        label_checksum(fl.stream_labels(StreamId(0)).expect("stream just ran")),
                        c,
                    )
                }
                Mode::Session => {
                    let mut session = seg.session(w, h);
                    let report = session.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    (label_checksum(session.labels()), *report.counters())
                }
                Mode::Oneshot => {
                    let res = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
                    (label_checksum(res.labels()), *res.report().counters())
                }
            };
            let hw = sslic_core::instrument::TrafficModel::hw_8bit().bytes(&c);
            out.push_str(&format!(
                concat!(
                    "    {{\"width\": {}, \"height\": {}, \"label_checksum\": \"{:#018x}\", ",
                    "\"distance_calcs\": {}, \"pixel_color_reads\": {}, ",
                    "\"label_writes\": {}, \"center_updates\": {}, ",
                    "\"sub_iterations\": {}, \"hw8_read_bytes\": {}, ",
                    "\"hw8_written_bytes\": {}}}{}\n"
                ),
                w,
                h,
                sum,
                c.distance_calcs,
                c.pixel_color_reads,
                c.label_writes,
                c.center_updates,
                c.sub_iterations,
                hw.read,
                hw.written,
                if i + 1 < sizes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        if let Err(e) = fs::write(path, out) {
            eprintln!("throughput: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if json_path.is_none() && md_path.is_none() {
        print!("{md}");
    } else {
        for r in &results {
            for c in &r.cells {
                println!(
                    "{}x{} threads={} {:.2} ms/frame {:.1} fps speedup={:.2}",
                    r.width, r.height, c.threads, c.ms_per_frame, c.fps, c.speedup
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// Deterministic report: configuration + per-size label checksums only.
/// Timings and the swept thread list are deliberately excluded so the
/// bytes depend on nothing but the engine's output.
fn to_json(superpixels: usize, iterations: u32, results: &[SizeResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!(
        "  \"config\": {{\"algorithm\": \"sslic_ppa\", \"subsets\": 2, \"distance\": \"quantized8\", \
         \"superpixels\": {superpixels}, \"iterations\": {iterations}, \"seed\": 2024}},\n"
    ));
    s.push_str("  \"sizes\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"width\": {}, \"height\": {}, \"label_checksum\": \"{:#018x}\"}}{}\n",
            r.width,
            r.height,
            r.checksum,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn to_markdown(
    superpixels: usize,
    iterations: u32,
    frames: usize,
    results: &[SizeResult],
) -> String {
    let mut s = String::new();
    s.push_str("# Thread-scaling throughput\n\n");
    s.push_str(&format!(
        "S-SLIC PPA (2 subsets, quantized 8-bit), K = {superpixels}, {iterations} iterations, \
         {frames} timed frames per cell. Labels are bit-identical across all thread counts \
         (verified per size, checksum below).\n\n"
    ));
    for r in results {
        s.push_str(&format!(
            "## {}x{} — label checksum {:#018x}\n\n",
            r.width, r.height, r.checksum
        ));
        s.push_str("| threads | ms/frame | frames/sec | speedup vs 1 thread |\n");
        s.push_str("|--------:|---------:|-----------:|--------------------:|\n");
        for c in &r.cells {
            s.push_str(&format!(
                "| {} | {:.2} | {:.1} | {:.2}x |\n",
                c.threads, c.ms_per_frame, c.fps, c.speedup
            ));
        }
        s.push('\n');
    }
    s
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("throughput: {err}");
    }
    eprintln!(
        "usage: throughput [--threads 1,2,4,8] [--sizes 320x240,1280x720] [--frames N] \
         [--superpixels K] [--iterations N] [--mode oneshot|session|fleet] \
         [--kernel auto|scalar|swar] [--json PATH] [--md PATH] [--report PATH] \
         [--bench-json PATH]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
