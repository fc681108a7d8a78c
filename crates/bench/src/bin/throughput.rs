//! Deterministic seed and invariance generator for the banded engine.
//!
//! Segments one cold frame per image size over the paper's primary
//! configuration (S-SLIC PPA, 2 subsets, quantized 8-bit datapath) and
//! writes only outputs that are pure functions of the workload — no
//! wall-clock anywhere (frame timing lives in `perfbench/`). The frame
//! runs through the selected mode, assign kernel and thread count, and
//! every such choice must emit the same bytes: CI byte-diffs the files
//! across thread counts, modes and kernels to enforce the engine's
//! determinism contract.
//!
//! Usage:
//!
//! ```text
//! throughput [--threads N] [--sizes 320x240,1280x720]
//!            [--superpixels K] [--iterations N]
//!            [--mode oneshot|session|fleet] [--kernel auto|scalar|swar]
//!            [--json PATH] [--report PATH] [--bench-json PATH]
//! ```
//!
//! `--mode oneshot` runs `Segmenter::run`, `--mode session` the first
//! frame of a fresh [`sslic_core::SegmenterSession`], and `--mode fleet`
//! the first frame of a stream on a [`sslic_core::SessionFleet`]. Each is
//! a cold frame, bit-identical to the others by contract.
//!
//! `--json` writes the configuration and one label checksum per size.
//!
//! `--report` writes a structured [`sslic_obs::RunReport`] from one
//! traced one-shot run of the first size at the selected thread count
//! and kernel. The report is deterministic: phase timings are zeroed and
//! the thread count is omitted, so its bytes depend only on the workload.
//!
//! `--bench-json` writes the *performance-trajectory seed*: per-size
//! label checksums, operation counters, and modeled DRAM traffic. CI
//! regenerates it across the mode × threads × kernel matrix and
//! byte-diffs each result against the committed `BENCH_10.json`, so any
//! change to the engine's workload shape (more distance calculations,
//! more traffic) must be committed deliberately.

use std::env;
use std::fs;
use std::process::ExitCode;

use sslic_core::instrument::{RunCounters, TrafficModel};
use sslic_core::{
    build_run_report, label_checksum, DistanceMode, FleetConfig, Kernel, RunOptions,
    SegmentRequest, Segmenter, SessionFleet, SlicParams, StreamId,
};
use sslic_image::synthetic::SyntheticImage;
use sslic_obs::Recorder;

#[derive(Clone, Copy)]
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

/// The deterministic outputs of one size's cold frame.
struct SizeResult {
    width: usize,
    height: usize,
    checksum: u64,
    counters: RunCounters,
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

fn scene(w: usize, h: usize) -> SyntheticImage {
    SyntheticImage::builder(w, h).seed(2024).regions(12).build()
}

/// Segments one cold frame of `img` through `mode`.
fn cold_frame(mode: Mode, seg: &Segmenter, img: &SyntheticImage) -> (u64, RunCounters) {
    let (w, h) = (img.rgb.width(), img.rgb.height());
    let request = SegmentRequest::Rgb(&img.rgb);
    let opts = RunOptions::new();
    match mode {
        Mode::Oneshot => {
            let res = seg.run(request, &opts);
            (label_checksum(res.labels()), *res.report().counters())
        }
        Mode::Session => {
            let mut session = seg.session(w, h);
            let report = session.run(request, &opts);
            (label_checksum(session.labels()), *report.counters())
        }
        Mode::Fleet => {
            let mut fleet = SessionFleet::new(seg, w, h, FleetConfig::default());
            let report = fleet.run(StreamId(0), request, &opts);
            let labels = fleet.stream_labels(StreamId(0)).expect("stream just ran");
            (label_checksum(labels), *report.counters())
        }
    }
}

fn main() -> ExitCode {
    let mut threads = 1usize;
    let mut sizes = vec![(320usize, 240usize), (1280, 720)];
    let mut superpixels = 600usize;
    let mut iterations = 5u32;
    let mut mode = Mode::Oneshot;
    let mut kernel = Kernel::Auto;
    let mut json_path: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut bench_json_path: Option<String> = None;

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n > 0 => threads = n,
                _ => return usage("--threads needs a positive integer"),
            },
            "--sizes" => match args.next().as_deref().and_then(parse_sizes) {
                Some(s) => sizes = s,
                None => return usage("--sizes needs a comma list like 320x240,1280x720"),
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

    eprintln!(
        "throughput: {} sizes, K={superpixels}, {iterations} iters, {} mode, {} kernel, \
         {threads} threads",
        sizes.len(),
        mode.as_str(),
        kernel.as_str(),
    );

    let params = SlicParams::builder(superpixels)
        .iterations(iterations)
        .threads(threads)
        .kernel(kernel)
        .build();
    let seg = Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8));
    let results: Vec<SizeResult> = sizes
        .iter()
        .map(|&(width, height)| {
            let (checksum, counters) = cold_frame(mode, &seg, &scene(width, height));
            SizeResult {
                width,
                height,
                checksum,
                counters,
            }
        })
        .collect();
    for r in &results {
        println!(
            "{}x{} label_checksum={:#018x}",
            r.width, r.height, r.checksum
        );
    }

    let config = format!(
        "  \"config\": {{\"algorithm\": \"sslic_ppa\", \"subsets\": 2, \
         \"distance\": \"quantized8\", \"superpixels\": {superpixels}, \
         \"iterations\": {iterations}, \"seed\": 2024}},\n"
    );
    let mut outputs = Vec::new();
    if let Some(path) = json_path {
        outputs.push((path, to_json(&config, &results)));
    }
    if let Some(path) = report_path {
        let (w, h) = sizes[0];
        let img = scene(w, h);
        let rec = Recorder::deterministic();
        let out = seg.run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_recorder(&rec),
        );
        let report = build_run_report(&seg, &out, true, Some(&rec), 0);
        outputs.push((path, report.to_json()));
    }
    if let Some(path) = bench_json_path {
        outputs.push((path, to_bench_json(&config, &results)));
    }
    for (path, text) in outputs {
        if let Err(e) = fs::write(&path, text) {
            eprintln!("throughput: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Deterministic report: configuration + per-size label checksums only.
fn to_json(config: &str, results: &[SizeResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(config);
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

/// The perf-trajectory seed: per-size checksums, operation counters and
/// modeled hw traffic.
fn to_bench_json(config: &str, results: &[SizeResult]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"schema\": \"sslic-bench-seed-v1\",\n");
    s.push_str(config);
    s.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        let c = &r.counters;
        let hw = TrafficModel::hw_8bit().bytes(c);
        s.push_str(&format!(
            concat!(
                "    {{\"width\": {}, \"height\": {}, \"label_checksum\": \"{:#018x}\", ",
                "\"distance_calcs\": {}, \"pixel_color_reads\": {}, ",
                "\"label_writes\": {}, \"center_updates\": {}, ",
                "\"sub_iterations\": {}, \"hw8_read_bytes\": {}, ",
                "\"hw8_written_bytes\": {}}}{}\n"
            ),
            r.width,
            r.height,
            r.checksum,
            c.distance_calcs,
            c.pixel_color_reads,
            c.label_writes,
            c.center_updates,
            c.sub_iterations,
            hw.read,
            hw.written,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("throughput: {err}");
    }
    eprintln!(
        "usage: throughput [--threads N] [--sizes 320x240,1280x720] [--superpixels K] \
         [--iterations N] [--mode oneshot|session|fleet] [--kernel auto|scalar|swar] \
         [--json PATH] [--report PATH] [--bench-json PATH]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
