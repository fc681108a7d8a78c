//! `sslic` — command-line front end to the S-SLIC reproduction.
//!
//! ```text
//! sslic segment photo.ppm --superpixels 900 --algo sslic
//! sslic dataset out/ --count 10 --width 481 --height 321
//! sslic hwsim --resolution 1080p --buffer-kb 4
//! sslic export hw_tables/
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use sslic::core::{
    build_run_report, serve, write_wire_close, write_wire_frame, write_wire_stats, DistanceMode,
    FleetConfig, Kernel, ParamError, RecoveryOutcome, RecoveryPolicy, RunOptions, SegmentRequest,
    Segmenter, ServeOptions, SessionFleet, SlicParams, StreamId,
};
use sslic::hw::export;
use sslic::hw::sim::{FrameSimulator, Resolution};
use sslic::image::synthetic::SyntheticImage;
use sslic::image::{draw, ppm, Rgb};
use sslic::metrics::explained_variation;
use sslic::obs::Recorder;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("segment") => cmd_segment(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("framepack") => cmd_framepack(&args[1..]),
        Some("insight") => cmd_insight(&args[1..]),
        Some("dataset") => cmd_dataset(&args[1..]),
        Some("hwsim") => cmd_hwsim(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("help") | None => {
            print_help();
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (try 'sslic help')").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!(
        "sslic — Subsampled SLIC superpixels and the DAC'16 accelerator models\n\
         \n\
         USAGE:\n\
         \x20 sslic segment <input.ppm>... [--superpixels K] [--compactness M]\n\
         \x20               [--iterations N] [--subsets P] [--algo slic|ppa|sslic|hw8]\n\
         \x20               [--threads T] [--kernel auto|scalar|swar] [--out PREFIX]\n\
         \x20               [--recovery N] [--trace out.jsonl]\n\
         \x20               [--chrome-trace out.json] [--report out.json] [--wallclock]\n\
         \x20     Segment binary PPMs; writes PREFIX.boundaries.ppm,\n\
         \x20     PREFIX.mosaic.ppm, and PREFIX.labels.pgm (16-bit) per input.\n\
         \x20     Several inputs stream through one persistent session:\n\
         \x20     each frame warm-starts from the previous frame's centers\n\
         \x20     and reuses the same scratch (zero steady-state\n\
         \x20     allocations).\n\
         \x20     --recovery N arms the self-healing runtime: invariant-guard\n\
         \x20     failures retry the frame from its checkpoint up to N times\n\
         \x20     (deterministically) before the frame is failed.\n\
         \x20     --kernel picks the assign backend: swar is the packed\n\
         \x20     fixed-point scan (quantized configs, bit-identical labels),\n\
         \x20     scalar the reference loop, auto (default) takes swar\n\
         \x20     whenever the configuration qualifies.\n\
         \x20     --trace writes a JSONL event trace, --chrome-trace a\n\
         \x20     Perfetto/chrome://tracing file, --report a RunReport JSON.\n\
         \x20     Traces are deterministic (logical clocks, byte-identical\n\
         \x20     across runs and thread counts) unless --wallclock is given.\n\
         \n\
         \x20 sslic serve [--listen ADDR] [--slots S] [--queue-depth Q]\n\
         \x20             [--superpixels K] [--compactness M] [--iterations N]\n\
         \x20             [--subsets P] [--algo slic|ppa|sslic|hw8] [--threads T]\n\
         \x20             [--kernel auto|scalar|swar] [--recovery N] [--wallclock]\n\
         \x20             [--heartbeat N] [--metrics-file PATH]\n\
         \x20     Multi-stream segmentation server over a SessionFleet.\n\
         \x20     Speaks the length-prefixed frame protocol (see README) on\n\
         \x20     stdin/stdout, or on one TCP connection with --listen. Emits\n\
         \x20     one RunReport JSON line per frame with per-stream fleet\n\
         \x20     counters (frames, recovered, queue depth, rejections), plus\n\
         \x20     an sslic-serve-heartbeat-v1 line every N frames with\n\
         \x20     --heartbeat, and answers 0x03 stats requests with the\n\
         \x20     fleet's Prometheus exposition. --metrics-file dumps that\n\
         \x20     exposition to PATH at end of input.\n\
         \n\
         \x20 sslic framepack [--out FILE]\n\
         \x20                 <stream:frame.ppm | close:stream | stats>...\n\
         \x20     Encode PPM frames, close records, and stats requests into\n\
         \x20     the serve wire format, in argument order (stdout when\n\
         \x20     --out is omitted).\n\
         \n\
         \x20 sslic insight <trace.jsonl | report.json | ...>...\n\
         \x20               [--out PATH] [--collapsed PATH]\n\
         \x20     Analyze observability artifacts: JSONL traces, RunReport\n\
         \x20     lines, serve output. Prints per-span time/cycle attribution\n\
         \x20     (total vs self), point events, record tallies, report\n\
         \x20     counters/phases, and per-stream fleet rollups. --collapsed\n\
         \x20     writes flamegraph-compatible collapsed stacks.\n\
         \n\
         \x20 sslic insight bench <BENCH_A.json> <BENCH_B.json>...\n\
         \x20     Compare bench seeds across PRs: per-workload counter\n\
         \x20     trajectories with regression flags (exit 1 on regression).\n\
         \n\
         \x20 sslic dataset <dir> [--count N] [--width W] [--height H] [--seed S]\n\
         \x20     Generate a synthetic evaluation corpus with exact ground truth\n\
         \x20     (NNN.ppm + NNN.gt.pgm pairs).\n\
         \n\
         \x20 sslic hwsim [--resolution 1080p|720p|vga] [--buffer-kb N]\n\
         \x20             [--cores N] [--clock-ghz F] [--superpixels K]\n\
         \x20     Run the accelerator frame model and print the report.\n\
         \n\
         \x20 sslic export <dir>\n\
         \x20     Write the hardware LUT tables (C headers + $readmemh hex), the\n\
         \x20     floorplan SVG, and the design summary.\n\
         \n\
         \x20 sslic metrics <labels.pgm> <ground_truth.pgm> [--image x.ppm]\n\
         \x20             [--tolerance T]\n\
         \x20     Score a 16-bit label map against ground truth."
    );
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Returns the value following `--flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} requires a value"))?;
            value
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("invalid value for {name}: {e}"))
        }
    }
}

/// Builds the [`Segmenter`] from the flags `segment` and `serve` share
/// (`--superpixels`, `--compactness`, `--iterations`, `--subsets`,
/// `--algo`, `--threads`, `--kernel`) and returns it with the `--algo`
/// name.
fn segmenter_from_flags(
    args: &[String],
) -> Result<(Segmenter, String), Box<dyn std::error::Error>> {
    let k: usize = flag(args, "--superpixels")?.unwrap_or(900);
    let m: f32 = flag(args, "--compactness")?.unwrap_or(10.0);
    let iterations: u32 = flag(args, "--iterations")?.unwrap_or(10);
    let subsets: u32 = flag(args, "--subsets")?.unwrap_or(2);
    let algo: String = flag(args, "--algo")?.unwrap_or_else(|| "sslic".to_string());
    let threads: usize = flag(args, "--threads")?.unwrap_or(1);
    let kernel: Kernel = flag(args, "--kernel")?.unwrap_or_default();

    let params = SlicParams::builder(k)
        .compactness(m)
        .iterations(iterations)
        .threads(threads)
        .kernel(kernel)
        .try_build()
        .map_err(|e| match e {
            ParamError::ZeroSuperpixels => format!("--superpixels {k}: {e}"),
            ParamError::InvalidCompactness => format!("--compactness {m}: {e}"),
            ParamError::ZeroIterations => format!("--iterations {iterations}: {e}"),
            ParamError::ZeroThreads => format!("--threads {threads}: {e}"),
            _ => e.to_string(),
        })?;
    if subsets == 0 {
        return Err("--subsets 0: subset count must be nonzero".into());
    }
    let segmenter = match algo.as_str() {
        "slic" => Segmenter::slic(params),
        "ppa" => Segmenter::slic_ppa(params),
        "sslic" => Segmenter::sslic_ppa(params, subsets),
        "hw8" => Segmenter::sslic_ppa(params, subsets)
            .with_distance_mode(DistanceMode::quantized(8)),
        other => return Err(format!("unknown --algo '{other}'").into()),
    };
    Ok((segmenter, algo))
}

fn cmd_segment(args: &[String]) -> CliResult {
    // Positionals are the arguments that are neither flags nor flag
    // values (`--wallclock` is the only value-less flag).
    let mut inputs: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--wallclock" {
            i += 1;
        } else if args[i].starts_with("--") {
            i += 2; // skip the flag and its value
        } else {
            inputs.push(&args[i]);
            i += 1;
        }
    }
    if inputs.is_empty() {
        return Err("segment needs at least one input .ppm path".into());
    }
    let (segmenter, algo) = segmenter_from_flags(args)?;
    let out: Option<String> = flag(args, "--out")?;
    let trace_path: Option<String> = flag(args, "--trace")?;
    let chrome_path: Option<String> = flag(args, "--chrome-trace")?;
    let report_path: Option<String> = flag(args, "--report")?;
    let recovery: Option<u32> = flag(args, "--recovery")?;
    let wallclock = args.iter().any(|a| a == "--wallclock");

    let tracing = trace_path.is_some() || chrome_path.is_some() || report_path.is_some();
    let recorder = tracing.then(|| {
        if wallclock {
            Recorder::wallclock()
        } else {
            Recorder::deterministic()
        }
    });
    let mut options = RunOptions::new();
    if let Some(rec) = recorder.as_ref() {
        options = options.with_recorder(rec);
    }
    let policy = recovery.map(RecoveryPolicy::new);
    if let Some(p) = policy.as_ref() {
        options = options.with_recovery(p);
    }

    // One input or many, every frame goes through a one-slot session
    // fleet: for a single frame this is bit-identical to the one-shot
    // API, and a sequence of equally-sized frames reuses the same scratch
    // (and the previous frame's centers) with zero steady-state
    // allocations. The fleet owns all per-stream warm-start bookkeeping.
    let stream = StreamId(0);
    let mut fleet: Option<SessionFleet> = None;
    let mut last_report = None;
    for (i, input) in inputs.iter().enumerate() {
        let img = ppm::read_ppm(BufReader::new(File::open(input)?))?;
        let fl = match fleet.as_mut() {
            Some(f) if (f.width(), f.height()) == (img.width(), img.height()) => f,
            stale => {
                if stale.is_some() {
                    println!("resolution changed; re-establishing session scratch");
                }
                fleet = Some(SessionFleet::new(
                    &segmenter,
                    img.width(),
                    img.height(),
                    FleetConfig::default(),
                ));
                fleet.as_mut().expect("just created")
            }
        };
        let start = std::time::Instant::now();
        let report = fl.run(stream, SegmentRequest::Rgb(&img), &options);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        let labels = fl.stream_labels(stream).expect("stream just ran");
        println!(
            "{algo}: {input} {}x{} -> {} superpixels in {elapsed:.1} ms ({} steps)",
            img.width(),
            img.height(),
            fl.stream_clusters(stream).map_or(0, <[_]>::len),
            report.iterations_run(),
        );
        println!(
            "explained variation: {:.4}",
            explained_variation(&img, labels)
        );
        if policy.is_some() || report.recovery().outcome != RecoveryOutcome::Clean {
            let rec = report.recovery();
            println!(
                "recovery: {} ({} guards fired, {} retries, {} escalations)",
                rec.outcome.as_str(),
                rec.guards_fired,
                rec.retries,
                rec.escalations,
            );
        }

        let prefix = match (&out, inputs.len()) {
            (Some(prefix), 1) => prefix.clone(),
            (Some(prefix), _) => format!("{prefix}.{i:03}"),
            (None, _) => (*input).clone(),
        };
        let boundaries = draw::overlay_boundaries(&img, labels, Rgb::new(255, 220, 0));
        ppm::write_ppm(
            BufWriter::new(File::create(format!("{prefix}.boundaries.ppm"))?),
            &boundaries,
        )?;
        let mosaic = draw::mean_color_image(&img, labels);
        ppm::write_ppm(
            BufWriter::new(File::create(format!("{prefix}.mosaic.ppm"))?),
            &mosaic,
        )?;
        ppm::write_pgm16(
            BufWriter::new(File::create(format!("{prefix}.labels.pgm"))?),
            labels,
        )?;
        println!("wrote {prefix}.boundaries.ppm, {prefix}.mosaic.ppm, {prefix}.labels.pgm");
        last_report = Some(report);
    }

    if let Some(rec) = recorder.as_ref() {
        if let Some(path) = &trace_path {
            std::fs::write(path, rec.to_jsonl())?;
            println!("wrote {path} ({} events)", rec.event_count());
        }
        if let Some(path) = &chrome_path {
            std::fs::write(path, rec.to_chrome_trace())?;
            println!("wrote {path} (load in Perfetto or chrome://tracing)");
        }
        if let Some(path) = &report_path {
            // The RunReport covers the last frame the fleet retired.
            let seg = fleet
                .take()
                .expect("at least one input ran")
                .into_segmentation(stream, last_report.expect("at least one input ran"))
                .expect("stream bound");
            let report = build_run_report(&segmenter, &seg, !wallclock, Some(rec), 0);
            std::fs::write(path, report.to_json())?;
            println!("wrote {path}");
        }
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let (segmenter, _) = segmenter_from_flags(args)?;
    let slots: usize = flag(args, "--slots")?.unwrap_or(4);
    let queue_depth: usize = flag(args, "--queue-depth")?.unwrap_or(16);
    let recovery: Option<u32> = flag(args, "--recovery")?;
    let listen: Option<String> = flag(args, "--listen")?;
    let wallclock = args.iter().any(|a| a == "--wallclock");
    let heartbeat: u64 = flag(args, "--heartbeat")?.unwrap_or(0);
    let metrics_file: Option<String> = flag(args, "--metrics-file")?;

    let fleet_cfg = FleetConfig::builder()
        .with_slots(slots)
        .with_queue_depth(queue_depth)
        .try_build()
        .map_err(|e| e.to_string())?;
    let policy = recovery.map(RecoveryPolicy::new);
    let mut serve_opts = ServeOptions::new()
        .with_wallclock(wallclock)
        .with_heartbeat(heartbeat);
    if let Some(p) = policy.as_ref() {
        serve_opts = serve_opts.with_recovery(p);
    }
    if let Some(path) = metrics_file.as_deref() {
        serve_opts = serve_opts.with_metrics_file(path);
    }

    let summary = match listen {
        Some(addr) => {
            // One connection per invocation: accept, pump to EOF, report.
            let listener = std::net::TcpListener::bind(&addr)?;
            eprintln!("serve: listening on {addr}");
            let (socket, peer) = listener.accept()?;
            eprintln!("serve: accepted {peer}");
            let mut input = BufReader::new(socket.try_clone()?);
            let mut output = BufWriter::new(socket);
            let summary = serve(&segmenter, fleet_cfg, &mut input, &mut output, &serve_opts)?;
            output.flush()?;
            summary
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut input = BufReader::new(stdin.lock());
            let mut output = BufWriter::new(stdout.lock());
            let summary = serve(&segmenter, fleet_cfg, &mut input, &mut output, &serve_opts)?;
            output.flush()?;
            summary
        }
    };
    eprintln!(
        "serve: {} frames ({} recovered), {} rejected, queue peak {}, {} streams closed",
        summary.frames, summary.recovered, summary.rejected, summary.queued_peak, summary.closed
    );
    Ok(())
}

fn cmd_framepack(args: &[String]) -> CliResult {
    let out_path: Option<String> = flag(args, "--out")?;
    let mut entries: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2; // skip the flag and its value
        } else {
            entries.push(&args[i]);
            i += 1;
        }
    }
    if entries.is_empty() {
        return Err(
            "framepack needs at least one <stream:frame.ppm>, close:<stream>, or stats entry"
                .into(),
        );
    }
    let mut wire = Vec::new();
    for entry in entries {
        if entry.as_str() == "stats" {
            write_wire_stats(&mut wire)?;
        } else if let Some(stream) = entry.strip_prefix("close:") {
            let stream: u64 = stream
                .parse()
                .map_err(|e| format!("invalid stream id in '{entry}': {e}"))?;
            write_wire_close(&mut wire, StreamId(stream))?;
        } else {
            let (stream, path) = entry
                .split_once(':')
                .ok_or_else(|| format!("'{entry}' is not <stream:frame.ppm> or close:<stream>"))?;
            let stream: u64 = stream
                .parse()
                .map_err(|e| format!("invalid stream id in '{entry}': {e}"))?;
            let payload = std::fs::read(path)?;
            write_wire_frame(&mut wire, StreamId(stream), &payload)?;
        }
    }
    match out_path {
        Some(path) => {
            std::fs::write(&path, &wire)?;
            eprintln!("wrote {path} ({} bytes)", wire.len());
        }
        None => std::io::stdout().write_all(&wire)?,
    }
    Ok(())
}

fn cmd_insight(args: &[String]) -> CliResult {
    use sslic::obs::insight::{self, Analyzer};

    if args.first().map(String::as_str) == Some("bench") {
        return cmd_insight_bench(&args[1..]);
    }
    let out_path: Option<String> = flag(args, "--out")?;
    let collapsed_path: Option<String> = flag(args, "--collapsed")?;
    let mut inputs: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2; // skip the flag and its value
        } else {
            inputs.push(&args[i]);
            i += 1;
        }
    }
    if inputs.is_empty() {
        return Err("insight needs at least one trace/report file (or 'bench <seeds...>')".into());
    }
    let mut analyzer = Analyzer::new();
    for path in &inputs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("insight: cannot read {path}: {e}"))?;
        analyzer.ingest(&text);
    }
    let analysis = analyzer.finish();
    let rendered = insight::render(&analysis);
    match out_path {
        Some(path) => {
            std::fs::write(&path, &rendered)?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    if let Some(path) = collapsed_path {
        std::fs::write(&path, insight::render_collapsed(&analysis))?;
        eprintln!("wrote {path} (collapsed stacks; feed to flamegraph.pl)");
    }
    Ok(())
}

fn cmd_insight_bench(args: &[String]) -> CliResult {
    use sslic::obs::insight::{bench_trajectory, parse_bench};

    let inputs: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if inputs.len() < 2 {
        return Err("insight bench needs at least two BENCH_*.json seeds to compare".into());
    }
    let mut seeds = Vec::new();
    for path in &inputs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("insight bench: cannot read {path}: {e}"))?;
        let label = path
            .rsplit('/')
            .next()
            .unwrap_or(path)
            .trim_end_matches(".json");
        seeds.push(parse_bench(label, &text).map_err(|e| format!("{path}: {e}"))?);
    }
    let trajectory = bench_trajectory(&seeds);
    print!("{}", trajectory.rendered);
    if !trajectory.regressions.is_empty() {
        return Err(format!(
            "insight bench: {} regression(s) detected:\n  {}",
            trajectory.regressions.len(),
            trajectory.regressions.join("\n  ")
        )
        .into());
    }
    Ok(())
}

fn cmd_dataset(args: &[String]) -> CliResult {
    let dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("dataset needs an output directory")?;
    let count: usize = flag(args, "--count")?.unwrap_or(10);
    let width: usize = flag(args, "--width")?.unwrap_or(481);
    let height: usize = flag(args, "--height")?.unwrap_or(321);
    let seed: u64 = flag(args, "--seed")?.unwrap_or(2016);
    if width == 0 || height == 0 {
        return Err(
            format!("--width {width} --height {height}: image dimensions must be nonzero").into(),
        );
    }

    std::fs::create_dir_all(dir)?;
    for i in 0..count {
        let img = SyntheticImage::builder(width, height)
            .seed(seed + i as u64)
            .regions(9 + i % 8)
            .noise_sigma(5.0)
            .texture_amplitude(8.0)
            .color_separation(35.0)
            .build();
        ppm::write_ppm(
            BufWriter::new(File::create(format!("{dir}/{i:03}.ppm"))?),
            &img.rgb,
        )?;
        ppm::write_pgm16(
            BufWriter::new(File::create(format!("{dir}/{i:03}.gt.pgm"))?),
            &img.ground_truth,
        )?;
    }
    println!("wrote {count} image/ground-truth pairs to {dir}/");
    Ok(())
}

fn cmd_hwsim(args: &[String]) -> CliResult {
    let res_name: String = flag(args, "--resolution")?.unwrap_or_else(|| "1080p".to_string());
    let resolution = match res_name.as_str() {
        "1080p" => Resolution::FULL_HD,
        "720p" => Resolution::HD720,
        "vga" => Resolution::VGA,
        other => return Err(format!("unknown resolution '{other}'").into()),
    };
    let mut sim = FrameSimulator::paper_default(resolution);
    if let Some(kb) = flag::<usize>(args, "--buffer-kb")? {
        let bytes = kb.checked_mul(1024).filter(|&b| b > 0).ok_or_else(|| {
            format!("--buffer-kb {kb}: buffer size must be nonzero and fit in usize")
        })?;
        sim = sim.with_buffer_bytes(bytes);
    }
    if let Some(cores) = flag::<u32>(args, "--cores")? {
        sim = sim.with_cores(cores);
    }
    if let Some(ghz) = flag::<f64>(args, "--clock-ghz")? {
        if !(ghz > 0.0 && ghz.is_finite()) {
            return Err(format!("--clock-ghz {ghz}: clock must be positive and finite").into());
        }
        sim = sim.with_clock_ghz(ghz);
    }
    if let Some(k) = flag::<usize>(args, "--superpixels")? {
        if k == 0 {
            return Err("--superpixels 0: superpixel count must be nonzero".into());
        }
        sim = sim.with_superpixels(k);
    }
    let r = sim.simulate();
    println!("S-SLIC accelerator model — {}", r.resolution.name);
    println!(
        "  latency  {:>7.2} ms  ({:.1} fps{})",
        r.total_ms(),
        r.fps(),
        if r.is_real_time() { ", real-time" } else { "" }
    );
    println!(
        "  phases   color {:.2} + assign {:.2} + centers {:.2} + memory {:.2} ms",
        r.color_ms, r.assign_ms, r.center_ms, r.memory_ms
    );
    println!("  area     {:>7.3} mm2", r.area_mm2);
    println!("  power    {:>7.1} mW", r.avg_power_mw);
    println!("  energy   {:>7.2} mJ/frame", r.energy_mj_per_frame());
    println!(
        "  traffic  {:>7.1} MB/frame over {} bursts",
        r.traffic.total_bytes() as f64 / 1e6,
        r.traffic.bursts
    );
    Ok(())
}

fn cmd_export(args: &[String]) -> CliResult {
    let dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("export needs an output directory")?;
    std::fs::create_dir_all(dir)?;
    let write = |name: &str, content: String| -> std::io::Result<()> {
        let mut f = File::create(format!("{dir}/{name}"))?;
        f.write_all(content.as_bytes())
    };
    write("gamma_lut.h", export::gamma_lut_c_header(12))?;
    write("gamma_lut.hex", export::gamma_lut_hex(12))?;
    write("cbrt_pwl.h", export::pwl_coefficients_c_header(8, 12))?;
    write("design_summary.txt", export::design_summary())?;
    let plan = sslic::hw::floorplan::Floorplan::new(
        sslic::hw::cluster::ClusterUnitConfig::c9_9_6(),
        4 * 1024,
    );
    write("floorplan.svg", plan.to_svg(1500.0))?;
    // A short sample trace of the 9-9-6 pipeline, viewable in GTKWave.
    let mut pipe = sslic::hw::pipeline::ClusterPipeline::new(
        sslic::hw::cluster::ClusterUnitConfig::c9_9_6(),
    )
    .with_trace();
    for i in 0..32u32 {
        let mut d = [200u32; 9];
        d[(i % 9) as usize] = i;
        pipe.issue(d);
    }
    pipe.flush();
    write(
        "cluster_update.vcd",
        sslic::hw::vcd::trace_to_vcd(pipe.trace().expect("tracing on"), "cluster_update"),
    )?;
    println!(
        "wrote gamma_lut.h, gamma_lut.hex, cbrt_pwl.h, design_summary.txt, floorplan.svg,\n\
         cluster_update.vcd to {dir}/"
    );
    Ok(())
}

fn cmd_metrics(args: &[String]) -> CliResult {
    // Positionals are the arguments that are neither flags nor flag
    // values.
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2; // skip the flag and its value
        } else {
            positional.push(&args[i]);
            i += 1;
        }
    }
    let [labels_path, gt_path] = positional.as_slice() else {
        return Err("metrics needs <labels.pgm> <ground_truth.pgm>".into());
    };
    let labels = ppm::read_pgm16(BufReader::new(File::open(labels_path)?))?;
    let gt = ppm::read_pgm16(BufReader::new(File::open(gt_path)?))?;
    let image = match flag::<String>(args, "--image")? {
        Some(path) => Some(ppm::read_ppm(BufReader::new(File::open(path)?))?),
        None => None,
    };
    let tolerance: usize = flag(args, "--tolerance")?.unwrap_or(2);
    let suite =
        sslic::metrics::MetricSuite::evaluate(&labels, &gt, image.as_ref(), tolerance);
    println!("{suite}");
    Ok(())
}
