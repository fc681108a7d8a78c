//! `serve-qvga-mux`: the [`serve`] wire loop pumped from an in-memory
//! buffer into an in-memory sink — 4 streams of 320×240 frames over a
//! 2-slot [`SessionFleet`], 1 engine thread.
//!
//! The schedule alternates which pair of streams holds the two slots. The
//! other pair's frames arrive at the end of each round and queue; closing
//! the active pair drains them into cold-rebound slots. Every round ends
//! with a `WIRE_STATS` scrape. At most two frames are ever parked, well
//! inside the queue depth, so no frame is refused.
//!
//! Frame latency runs from the read of a frame record's last byte to the
//! write of the newline ending its report line, so it includes queue wait.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

use sslic_core::{
    label_checksum, serve, write_wire_close, write_wire_frame, write_wire_stats, FleetConfig,
    FrameReport, Kernel, RunOptions, SegmentRequest, SegmentationStatus, Segmenter, ServeOptions,
    SessionFleet, StreamId,
};
use sslic_image::prng::SplitMix64;
use sslic_image::synthetic::SyntheticImage;
use sslic_image::{ppm, Plane, RgbImage};
use sslic_obs::telemetry::render_prometheus;
use sslic_obs::RunReport;

use crate::probe::EngineProbe;
use crate::{budgets, hw8, mem, ms, quality, stats, timed, Args, EndToEnd, Layers, Outcome};

const WIDTH: usize = 320;
const HEIGHT: usize = 240;
const STREAMS: usize = 4;
const SLOTS: usize = 2;
const QUEUE_DEPTH: usize = 4;
const ROUNDS: usize = 4;
/// Frames each stream of the active pair sends per round.
const BURST: usize = 5;
/// Frames per stream per lap: a burst in each round it is active, one
/// queued frame in each round it is not.
const PER_STREAM: usize = ROUNDS / 2 * (BURST + 1);
/// Pan per frame in pixels (x, y) within each stream's scene.
const PAN: (usize, usize) = (3, 2);
const SETUP_REPS: usize = 5;
/// Frame records the set-up pump serves before the timed loop.
const WARMUP_FRAMES: usize = 2;

const REPORT_PREFIX: &str = "{\"schema\":\"sslic-run-report-v2\"";
const REJECT_PREFIX: &str = "{\"schema\":\"sslic-serve-reject-v1\"";
const FLEET_STREAM_KEY: &str = "\"fleet\":{\"stream\":";

#[derive(Debug, Clone, Copy)]
enum Record {
    Frame { stream: u64, image: usize },
    Close(u64),
    Stats,
}

/// One pass of the schedule: the generated frames and their wire bytes.
struct Lap {
    records: Vec<Record>,
    /// Frame `j` of stream `s` is `images[s * PER_STREAM + j]`.
    images: Vec<RgbImage>,
    truth: Vec<Plane<u32>>,
    /// Binary PPM of each image, as carried on the wire.
    payloads: Vec<Vec<u8>>,
    wire: Vec<u8>,
    /// Byte offset just past each frame record, in wire order.
    frame_ends: Vec<usize>,
    /// Stream of each frame record, in wire order.
    frame_streams: Vec<u64>,
}

fn generate(seed: u64) -> Result<Lap, String> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5E4E_0D0C);
    let (mut images, mut truth) = (Vec::new(), Vec::new());
    for _ in 0..STREAMS {
        let scene = SyntheticImage::builder(
            WIDTH + PAN.0 * (PER_STREAM - 1),
            HEIGHT + PAN.1 * (PER_STREAM - 1),
        )
        .seed(rng.next_u64())
        .regions(16)
        .build();
        for j in 0..PER_STREAM {
            let (x0, y0) = (j * PAN.0, j * PAN.1);
            images.push(RgbImage::from_fn(WIDTH, HEIGHT, |x, y| {
                scene.rgb.pixel(x0 + x, y0 + y)
            }));
            truth.push(scene.ground_truth.crop(x0, y0, WIDTH, HEIGHT));
        }
    }

    let mut next = [0usize; STREAMS];
    let mut records = Vec::new();
    for round in 0..ROUNDS {
        let (active, idle) = if round % 2 == 0 {
            ([0, 1], [2, 3])
        } else {
            ([2, 3], [0, 1])
        };
        let mut left = [BURST; 2];
        let mut order = Vec::with_capacity(2 * BURST + 2);
        while left != [0, 0] {
            let k = match left {
                [0, _] => 1,
                [_, 0] => 0,
                _ => rng.below(2) as usize,
            };
            left[k] -= 1;
            order.push(active[k]);
        }
        // The idle pair's frames find both slots held, so they queue until
        // the closes below. They arrive last, just before the closes: a
        // wait spanning the whole round would add up every slowdown a
        // shared host deals the round and make the latency tail unsteady.
        order.extend(idle);
        for s in order {
            records.push(Record::Frame {
                stream: s as u64,
                image: s * PER_STREAM + next[s],
            });
            next[s] += 1;
        }
        let flip = rng.below(2) as usize;
        records.push(Record::Close(active[flip] as u64));
        records.push(Record::Close(active[1 - flip] as u64));
        records.push(Record::Stats);
    }

    let mut payloads = Vec::with_capacity(images.len());
    for image in &images {
        let mut bytes = Vec::new();
        ppm::write_ppm(&mut bytes, image).map_err(|e| format!("ppm encode: {e}"))?;
        payloads.push(bytes);
    }
    let (mut wire, mut frame_ends, mut frame_streams) = (Vec::new(), Vec::new(), Vec::new());
    for rec in &records {
        match *rec {
            Record::Frame { stream, image } => {
                write_wire_frame(&mut wire, StreamId(stream), &payloads[image])?;
                frame_ends.push(wire.len());
                frame_streams.push(stream);
            }
            Record::Close(stream) => write_wire_close(&mut wire, StreamId(stream))?,
            Record::Stats => write_wire_stats(&mut wire)?,
        }
    }
    Ok(Lap {
        records,
        images,
        truth,
        payloads,
        wire,
        frame_ends,
        frame_streams,
    })
}

fn fleet_config() -> Result<FleetConfig, String> {
    FleetConfig::builder()
        .with_slots(SLOTS)
        .with_queue_depth(QUEUE_DEPTH)
        .try_build()
        .map_err(|e| e.to_string())
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Serves wire bytes and stamps the moment each frame record's last byte
/// is handed out.
struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
    ends: &'a [usize],
    origin: Instant,
    read_ns: Vec<u64>,
}

impl Read for WireReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        while self.read_ns.len() < self.ends.len() && self.ends[self.read_ns.len()] <= self.pos {
            self.read_ns.push(nanos_since(self.origin));
        }
        Ok(n)
    }
}

/// Collects serve's output and stamps the moment each line's newline is
/// written.
struct LineSink {
    bytes: Vec<u8>,
    origin: Instant,
    line_ns: Vec<u64>,
}

impl Write for LineSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        for _ in buf.iter().filter(|&&b| b == b'\n') {
            self.line_ns.push(nanos_since(self.origin));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One `serve` pump over `wire`, whose frame records end at `ends`.
struct Pump {
    sink: LineSink,
    read_ns: Vec<u64>,
    wall_s: f64,
    allocs: u64,
}

fn pump(seg: &Segmenter, wire: &[u8], ends: &[usize]) -> Result<Pump, String> {
    let origin = Instant::now();
    let mut reader = WireReader {
        data: wire,
        pos: 0,
        ends,
        origin,
        read_ns: Vec::with_capacity(ends.len()),
    };
    let mut sink = LineSink {
        bytes: Vec::with_capacity(1 << 20),
        origin,
        line_ns: Vec::with_capacity(4 * ends.len()),
    };
    let a0 = mem::allocs();
    serve(
        seg,
        fleet_config()?,
        &mut reader,
        &mut sink,
        &ServeOptions::new(),
    )?;
    let allocs = mem::allocs() - a0;
    Ok(Pump {
        wall_s: origin.elapsed().as_secs_f64(),
        read_ns: reader.read_ns,
        sink,
        allocs,
    })
}

/// The `(stream, newline stamp)` of every run-report line, and the number
/// of reject lines.
fn report_lines(sink: &LineSink) -> (Vec<(u64, u64)>, usize) {
    let mut reports = Vec::new();
    let mut rejects = 0;
    for (line, &ns) in sink.bytes.split(|&b| b == b'\n').zip(&sink.line_ns) {
        let line = String::from_utf8_lossy(line);
        if line.starts_with(REPORT_PREFIX) {
            // A report line without a parsable stream answers no frame; the
            // matcher then counts that frame as unanswered.
            if let Some(stream) = stream_of(&line) {
                reports.push((stream, ns));
            }
        } else if line.starts_with(REJECT_PREFIX) {
            rejects += 1;
        }
    }
    (reports, rejects)
}

fn stream_of(report_line: &str) -> Option<u64> {
    let rest = &report_line[report_line.find(FLEET_STREAM_KEY)? + FLEET_STREAM_KEY.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Frame latencies recovered by pairing report lines with frame records.
#[derive(Debug, Default, PartialEq)]
struct Matched {
    latencies_ms: Vec<f64>,
    /// Frame records no report line answered.
    unanswered: usize,
    /// Report lines with no earlier unanswered frame of their stream.
    orphans: usize,
}

/// Pairs each report line with the oldest unanswered frame record of the
/// same stream — serve answers a stream's frames in arrival order, while a
/// queued frame is answered after later frames of other streams.
/// `arrivals` are `(stream, read stamp)` in wire order, `reports`
/// `(stream, write stamp)` in output order.
fn match_latencies(arrivals: &[(u64, u64)], reports: &[(u64, u64)]) -> Matched {
    let mut pending: BTreeMap<u64, VecDeque<u64>> = BTreeMap::new();
    for &(stream, at) in arrivals {
        pending.entry(stream).or_default().push_back(at);
    }
    let mut m = Matched::default();
    for &(stream, at) in reports {
        match pending.get_mut(&stream).and_then(VecDeque::pop_front) {
            Some(read) if read <= at => m.latencies_ms.push((at - read) as f64 / 1e6),
            _ => m.orphans += 1,
        }
    }
    m.unanswered = pending.values().map(VecDeque::len).sum();
    m
}

/// One timed lap of the serve loop.
struct LapRun {
    frames: usize,
    latencies_ms: Vec<f64>,
    /// Rejects, unanswered frames and orphan report lines.
    wire_failures: usize,
    wall_s: f64,
    allocs: u64,
    out: Vec<u8>,
}

fn serve_lap(seg: &Segmenter, lap: &Lap) -> Result<LapRun, String> {
    let p = pump(seg, &lap.wire, &lap.frame_ends)?;
    let (reports, rejects) = report_lines(&p.sink);
    let arrivals: Vec<(u64, u64)> = lap
        .frame_streams
        .iter()
        .copied()
        .zip(p.read_ns.iter().copied())
        .collect();
    let m = match_latencies(&arrivals, &reports);
    Ok(LapRun {
        frames: lap.frame_ends.len(),
        latencies_ms: m.latencies_ms,
        wire_failures: rejects + m.unanswered + m.orphans,
        wall_s: p.wall_s,
        allocs: p.allocs,
        out: p.sink.bytes,
    })
}

/// Serves laps until `budget` runs out, returning them with the loop's
/// wall time; when tracing, each lap is followed by a traced direct replay
/// of the same schedule.
fn serve_loop(
    seg: &Segmenter,
    lap: &Lap,
    budget: Duration,
    mut trace: Option<&mut Trace>,
) -> Result<(Vec<LapRun>, f64), String> {
    let mut laps = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let run = serve_lap(seg, lap)?;
        if let Some(t) = trace.as_deref_mut() {
            t.observe(seg, lap, &run)?;
        }
        laps.push(run);
    }
    Ok((laps, start.elapsed().as_secs_f64()))
}

/// What a direct replay of the schedule through a [`SessionFleet`] saw.
#[derive(Default)]
struct Replay {
    /// `(stream, label checksum, degraded)` per segmented frame, in order.
    frames: Vec<(u64, u64, bool)>,
    run_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    emit_ms: Vec<f64>,
    exposition_ms: Vec<f64>,
    /// `(image, seeded cold, report)` per segmented frame, for the engine
    /// probe, which runs after the replay so it cannot disturb its timing.
    reports: Vec<(usize, bool, FrameReport)>,
    queued: u64,
    rejected: u64,
    cold_rebinds: u64,
    use_sum: f64,
    boundary_recall_sum: f64,
}

/// Replays the schedule directly through a fleet with the same sizing —
/// the reference serve's report lines are checked against, and the
/// source of the fleet and report-emit timings. With `quality_of_labels`,
/// each frame's labels are also scored against its ground truth.
fn replay(seg: &Segmenter, lap: &Lap, quality_of_labels: bool) -> Result<Replay, String> {
    let fleet = SessionFleet::try_new(seg, WIDTH, HEIGHT, fleet_config()?)
        .map_err(|e| format!("replay: {e}"))?;
    let mut r = Replayer {
        lap,
        fleet,
        quality_of_labels,
        parked: VecDeque::new(),
        out: Replay::default(),
    };
    for rec in &lap.records {
        match *rec {
            Record::Frame { stream, image } => {
                let id = StreamId(stream);
                if r.fleet.admissible(id) {
                    r.segment(stream, image)?;
                } else if r.fleet.try_enqueue(id, lap.images[image].clone()).is_ok() {
                    r.parked.push_back((stream, image, Instant::now()));
                    r.out.queued += 1;
                } else {
                    r.out.rejected += 1;
                }
            }
            Record::Close(stream) => {
                r.fleet.close(StreamId(stream));
                r.drain()?;
            }
            Record::Stats => {
                let (text, t) = timed(|| render_prometheus(&r.fleet.metrics_registry()));
                std::hint::black_box(text);
                r.out.exposition_ms.push(t);
            }
        }
    }
    r.drain()?;
    Ok(r.out)
}

struct Replayer<'a> {
    lap: &'a Lap,
    fleet: SessionFleet,
    quality_of_labels: bool,
    /// `(stream, image, enqueued at)` of each parked frame, in queue order.
    parked: VecDeque<(u64, usize, Instant)>,
    out: Replay,
}

impl Replayer<'_> {
    fn segment(&mut self, stream: u64, image: usize) -> Result<(), String> {
        let id = StreamId(stream);
        let rgb = &self.lap.images[image];
        let fleet = &mut self.fleet;
        let cold = fleet.stream_stats(id).is_none();
        let (report, t) = timed(|| fleet.try_run(id, SegmentRequest::Rgb(rgb), &RunOptions::new()));
        let report = report.map_err(|e| format!("replay: {e}"))?;
        let labels = fleet
            .stream_labels(id)
            .ok_or("replay: stream lost its slot")?;
        let out = &mut self.out;
        out.frames.push((
            stream,
            label_checksum(labels),
            report.status() == SegmentationStatus::Degraded,
        ));
        if self.quality_of_labels {
            let (u, b) = quality(labels, &self.lap.truth[image]);
            out.use_sum += u;
            out.boundary_recall_sum += b;
        }
        out.run_ms.push(t);
        out.cold_rebinds += u64::from(cold);
        let (json, t) = timed(|| fleet.run_report(id, &report, true).map(|r| r.to_json()));
        std::hint::black_box(json);
        out.emit_ms.push(t);
        out.reports.push((image, cold, report));
        Ok(())
    }

    /// Runs every parked frame that became admissible, as serve does after
    /// a close and at end of input.
    fn drain(&mut self) -> Result<(), String> {
        while let Some((id, _)) = self.fleet.pop_admissible() {
            let popped = Instant::now();
            // The fleet pops a stream's frames in arrival order, so the
            // popped frame is that stream's oldest parked one.
            let at = self
                .parked
                .iter()
                .position(|&(s, _, _)| s == id.0)
                .ok_or("replay: popped a frame that was never parked")?;
            let (stream, image, since) = self.parked.remove(at).ok_or("replay: parked index")?;
            self.out.queue_wait_ms.push(ms(popped - since));
            self.segment(stream, image)?;
        }
        Ok(())
    }
}

/// Frames of serve's output that disagree with the replay: report lines
/// whose stream, label checksum or status differ, missing or extra
/// reports, and rejects.
fn check_output(out: &[u8], expected: &[(u64, u64, bool)]) -> Result<usize, String> {
    let mut got = Vec::with_capacity(expected.len());
    let mut rejects = 0;
    for line in out.split(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(line);
        if line.starts_with(REPORT_PREFIX) {
            let report = RunReport::from_json(&line)?;
            let fleet = report.fleet.ok_or("report line without a fleet section")?;
            got.push((
                fleet.stream,
                fleet.label_checksum,
                report.status == "degraded",
            ));
        } else if line.starts_with(REJECT_PREFIX) {
            rejects += 1;
        }
    }
    let mismatched = got
        .iter()
        .zip(expected)
        .filter(|(g, e)| g != e || g.2)
        .count();
    Ok(mismatched + got.len().abs_diff(expected.len()) + rejects)
}

/// Per-layer readings of the traced loop.
struct Trace {
    engine: EngineProbe,
    /// Per traced lap: mean `try_run` time of the replay, and serve's wall
    /// time per frame, in ms.
    run_ms: Vec<f64>,
    serve_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    emit_ms: Vec<f64>,
    exposition_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    allocs_per_frame: Vec<f64>,
    out_bytes_per_frame: Vec<f64>,
    queued: u64,
    cold_rebinds: u64,
}

impl Trace {
    /// Traces one served lap: replays it directly, probes the engine
    /// layers of every replayed frame, and times PPM parsing of every
    /// payload.
    fn observe(&mut self, seg: &Segmenter, lap: &Lap, run: &LapRun) -> Result<(), String> {
        let r = replay(seg, lap, false)?;
        for ((image, cold, report), &t) in r.reports.iter().zip(&r.run_ms) {
            let (b, c, it) = (
                report.breakdown(),
                report.counters(),
                report.iterations_run(),
            );
            self.engine.observe(&lap.images[*image], *cold, b, c, it, t);
        }
        let frames = run.frames as f64;
        self.run_ms.push(stats::mean(&r.run_ms));
        self.serve_ms.push(run.wall_s * 1e3 / frames);
        self.queue_wait_ms.extend(&r.queue_wait_ms);
        self.emit_ms.extend(&r.emit_ms);
        self.exposition_ms.extend(&r.exposition_ms);
        self.allocs_per_frame.push(run.allocs as f64 / frames);
        self.out_bytes_per_frame.push(run.out.len() as f64 / frames);
        self.queued = r.queued;
        self.cold_rebinds = r.cold_rebinds;
        for rec in &lap.records {
            if let Record::Frame { image, .. } = *rec {
                let (img, t) = timed(|| ppm::read_ppm(&lap.payloads[image][..]));
                img.map_err(|e| format!("ppm parse: {e}"))?;
                self.parse_ms.push(t);
            }
        }
        Ok(())
    }

    /// `fleet.run_ms` and `serve.overhead_ms` compare the quietest replay
    /// with the quietest served lap: the serve-only work is well under a
    /// millisecond per frame, far below the noise a shared host adds to
    /// any one lap, and that noise only ever slows a lap down.
    fn finish(&self, layers: &mut Layers) {
        self.engine.finish(layers);
        let quietest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let run_ms = quietest(&self.run_ms);
        layers.insert("fleet.run_ms", run_ms);
        layers.insert("serve.overhead_ms", quietest(&self.serve_ms) - run_ms);
        layers.insert("fleet.queue_wait_ms", stats::median(&self.queue_wait_ms));
        layers.insert("fleet.queued_frames", self.queued as f64);
        layers.insert("fleet.cold_rebinds", self.cold_rebinds as f64);
        layers.insert(
            "serve.out_bytes_per_frame",
            stats::median(&self.out_bytes_per_frame),
        );
        layers.insert(
            "core.allocs_per_frame",
            stats::median(&self.allocs_per_frame),
        );
        layers.insert("image.ppm_parse_ms", stats::median(&self.parse_ms));
        layers.insert("obs.report_emit_ms", stats::median(&self.emit_ms));
        layers.insert("obs.exposition_ms", stats::median(&self.exposition_ms));
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let lap = generate(args.seed)?;
    let seg = hw8(1, Kernel::Auto);
    let (untraced, traced) = budgets(args);

    // Set-up as serve pays it: the fleet is built lazily inside `serve`,
    // so each sample is one pump of the first frame records.
    let warm_end = lap.frame_ends[WARMUP_FRAMES - 1];
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let p = pump(
            &seg,
            &lap.wire[..warm_end],
            &lap.frame_ends[..WARMUP_FRAMES],
        )?;
        setup_s.push(p.wall_s);
    }

    let (laps, wall_s) = serve_loop(&seg, &lap, untraced, None)?;
    let peak_rss_mb = mem::peak_rss_mb()?;
    let mut trace = Trace {
        engine: EngineProbe::new(&seg, WIDTH, HEIGHT).with_float_converter(),
        run_ms: Vec::new(),
        serve_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        emit_ms: Vec::new(),
        exposition_ms: Vec::new(),
        parse_ms: Vec::new(),
        allocs_per_frame: Vec::new(),
        out_bytes_per_frame: Vec::new(),
        queued: 0,
        cold_rebinds: 0,
    };
    let (traced_laps, traced_wall_s) = if args.trace {
        serve_loop(&seg, &lap, traced, Some(&mut trace))?
    } else {
        (Vec::new(), 0.0)
    };

    // Verification, outside every timed section: the first lap's report
    // lines against a direct replay, every later lap byte for byte against
    // the first (deterministic serve output is a pure function of the
    // wire bytes).
    let reference = replay(&seg, &lap, true)?;
    let all = || laps.iter().chain(&traced_laps);
    let first = all().next().ok_or("no lap completed")?;
    let first_failures = check_output(&first.out, &reference.frames)? + reference.rejected as usize;
    let failed: usize = all()
        .map(|l| {
            let output = if l.out == first.out {
                first_failures
            } else {
                l.frames
            };
            (output + l.wire_failures).min(l.frames)
        })
        .sum();
    let frames_per_lap = lap.frame_ends.len();
    let mut outcome = Outcome {
        attempted: (all().count() * frames_per_lap) as u64,
        failed: failed as u64,
        ..Outcome::default()
    };

    if args.trace {
        let mut layers = Layers::new();
        trace.finish(&mut layers);
        let fps = (laps.len() * frames_per_lap) as f64 / wall_s;
        let traced_fps = (traced_laps.len() * frames_per_lap) as f64 / traced_wall_s;
        layers.insert("trace.overhead_ratio", fps / traced_fps);
        outcome.metrics = crate::layer_metrics(&layers)?;
    } else {
        let n = reference.frames.len().max(1) as f64;
        let e2e = EndToEnd {
            // The median of the quietest lap: a shared host's neighbours
            // slow whole laps of this 1-thread loop and never speed one
            // up, and the median of all frames falls between the quiet
            // and the slowed frames, where it swings with their mix.
            p50_ms: laps
                .iter()
                .map(|l| stats::median(&l.latencies_ms))
                .fold(f64::INFINITY, f64::min),
            frame_ms: laps
                .iter()
                .flat_map(|l| l.latencies_ms.iter().copied())
                .collect(),
            frames: laps.len() * frames_per_lap,
            wall_s,
            setup_s,
            peak_rss_mb,
            use_: reference.use_sum / n,
            boundary_recall: reference.boundary_recall_sum / n,
        };
        let (metrics, note) = e2e.metrics();
        outcome.metrics = metrics;
        outcome.notes.push(note);
        outcome.notes.push(format!(
            "{} laps of {frames_per_lap} frames; {} queued and {} cold rebinds per lap",
            laps.len(),
            reference.queued,
            reference.cold_rebinds
        ));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queued_frame_pairs_with_its_later_report_by_stream_order() {
        // Streams 0 and 1 hold the slots; stream 2's frame (read at t=30)
        // queues and is answered only after stream 0's second frame.
        let arrivals = [(0, 10), (1, 20), (2, 30), (0, 40), (2, 50)];
        let reports = [(0, 15), (1, 25), (0, 45), (2, 60), (2, 70)];
        let m = match_latencies(&arrivals, &reports);
        assert_eq!(m.latencies_ms, vec![5e-6, 5e-6, 5e-6, 30e-6, 20e-6]);
        assert_eq!((m.unanswered, m.orphans), (0, 0));
    }

    #[test]
    fn unanswered_frames_and_orphan_reports_are_counted() {
        let m = match_latencies(&[(0, 10), (1, 20)], &[(1, 25), (3, 30), (1, 35)]);
        assert_eq!(m.latencies_ms, vec![5e-6]);
        assert_eq!((m.unanswered, m.orphans), (1, 2));
        // A report stamped before its frame was read answers nothing.
        let m = match_latencies(&[(0, 50)], &[(0, 40)]);
        assert_eq!((m.latencies_ms.len(), m.orphans), (0, 1));
    }

    #[test]
    fn report_stream_is_read_from_the_fleet_section() {
        let line =
            format!("{REPORT_PREFIX},\"threads\":1,\"fleet\":{{\"stream\":12,\"frames\":3}}}}");
        assert_eq!(stream_of(&line), Some(12));
        assert_eq!(stream_of(REPORT_PREFIX), None);
    }

    #[test]
    fn reader_stamps_each_frame_record_end_once() {
        let data = [0u8; 10];
        let mut r = WireReader {
            data: &data,
            pos: 0,
            ends: &[3, 4, 9],
            origin: Instant::now(),
            read_ns: Vec::new(),
        };
        let mut buf = [0u8; 4];
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(r.read_ns.len(), 2);
        assert_eq!(r.read(&mut buf).unwrap(), 4);
        assert_eq!(r.read_ns.len(), 2);
        assert_eq!(r.read(&mut buf).unwrap(), 2);
        assert_eq!(r.read_ns.len(), 3);
        assert_eq!(r.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn schedule_never_overflows_the_queue_and_every_frame_is_answered() {
        let lap = generate(3).unwrap();
        assert_eq!(lap.frame_ends.len(), STREAMS * PER_STREAM);
        let seg = hw8(1, Kernel::Auto);
        let r = replay(&seg, &lap, false).unwrap();
        assert_eq!(r.rejected, 0);
        assert_eq!(r.frames.len(), STREAMS * PER_STREAM);
        assert_eq!(r.queued, (STREAMS / 2 * ROUNDS) as u64);
        assert_eq!(r.cold_rebinds, (SLOTS + STREAMS / 2 * ROUNDS) as u64);
    }
}
