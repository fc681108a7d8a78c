//! `camera-720p`: one warm-started 1280×720 video stream through a
//! persistent [`SegmenterSession`] with 2 engine threads.
//!
//! Frames are successive windows of one seeded synthetic scene, panned a
//! few pixels per frame, so each frame warm-starts from centers that
//! nearly fit it, as on real video. The clip repeats; the session is reset
//! at each repeat, so every pass replays the same cold-then-warm history
//! and one reference run per clip frame checks every pass.

use std::time::{Duration, Instant};

use sslic_core::{
    label_checksum, Kernel, RunOptions, SegmentRequest, SegmentationStatus, SegmenterSession,
};
use sslic_image::prng::SplitMix64;
use sslic_image::synthetic::SyntheticImage;
use sslic_image::{Plane, RgbImage};

use crate::probe::EngineProbe;
use crate::{budgets, hw8, mem, ms, quality, stats, Args, EndToEnd, Layers, Outcome};

const WIDTH: usize = 1280;
const HEIGHT: usize = 720;
const THREADS: usize = 2;
/// Frames per clip; the session is reset at every clip start.
const CLIP: usize = 10;
/// Pan per frame in pixels (x, y).
const PAN: (usize, usize) = (4, 2);
const SETUP_REPS: usize = 3;

struct Clip {
    frames: Vec<RgbImage>,
    truth: Vec<Plane<u32>>,
}

fn generate(seed: u64) -> Clip {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xCA3E_7A20);
    let scene = SyntheticImage::builder(WIDTH + PAN.0 * (CLIP - 1), HEIGHT + PAN.1 * (CLIP - 1))
        .seed(rng.next_u64())
        .regions(32)
        .build();
    let (frames, truth) = (0..CLIP)
        .map(|i| {
            let (x0, y0) = (i * PAN.0, i * PAN.1);
            (
                RgbImage::from_fn(WIDTH, HEIGHT, |x, y| scene.rgb.pixel(x0 + x, y0 + y)),
                scene.ground_truth.crop(x0, y0, WIDTH, HEIGHT),
            )
        })
        .unzip();
    Clip { frames, truth }
}

/// One frame of the timed loop.
struct Frame {
    pos: usize,
    ms: f64,
    allocs: u64,
    checksum: u64,
    degraded: bool,
}

/// Streams the clip through `session` until `budget` runs out, starting
/// at clip position 0. With a probe, every frame is also traced.
fn stream(
    session: &mut SegmenterSession,
    clip: &Clip,
    budget: Duration,
    mut probe: Option<&mut EngineProbe>,
) -> (Vec<Frame>, f64) {
    let options = RunOptions::new();
    let mut frames = Vec::with_capacity(4096);
    let start = Instant::now();
    while start.elapsed() < budget {
        let pos = frames.len() % CLIP;
        if pos == 0 {
            session.reset();
        }
        let image = &clip.frames[pos];
        let a0 = mem::allocs();
        let t = Instant::now();
        let report = session.run(SegmentRequest::Rgb(image), &options);
        let frame_ms = ms(t.elapsed());
        let allocs = mem::allocs() - a0;
        frames.push(Frame {
            pos,
            ms: frame_ms,
            allocs,
            checksum: label_checksum(session.labels()),
            degraded: report.status() == SegmentationStatus::Degraded,
        });
        if let Some(p) = probe.as_deref_mut() {
            let (b, c, it) = (
                report.breakdown(),
                report.counters(),
                report.iterations_run(),
            );
            p.observe(image, pos == 0, b, c, it, frame_ms);
        }
    }
    (frames, start.elapsed().as_secs_f64())
}

/// Runs the clip through a 1-thread and a 2-thread session, alternating
/// frame by frame so a neighbour's slowdown falls on both alike, and
/// returns the ratio of their summed frame times.
fn speedup_2t(clip: &Clip) -> f64 {
    let mut sessions =
        [1, THREADS].map(|t| SegmenterSession::new(hw8(t, Kernel::Auto), WIDTH, HEIGHT));
    let mut total = [0.0; 2];
    for image in &clip.frames {
        for (session, slot) in sessions.iter_mut().zip(&mut total) {
            let t = Instant::now();
            session.run(SegmentRequest::Rgb(image), &RunOptions::new());
            *slot += ms(t.elapsed());
        }
    }
    total[0] / total[1]
}

/// Replays the first `upto` clip frames through a scalar-kernel, 1-thread
/// session — the reference the kernel and thread bit-identity contracts
/// promise the timed session matches — returning each frame's label
/// checksum and the mean quality of the reference labels.
fn reference(clip: &Clip, upto: usize) -> (Vec<u64>, f64, f64) {
    let mut session = SegmenterSession::new(hw8(1, Kernel::Scalar), WIDTH, HEIGHT);
    let mut sums = Vec::with_capacity(upto);
    let (mut use_, mut br) = (0.0, 0.0);
    for (image, truth) in clip.frames.iter().zip(&clip.truth).take(upto) {
        session.run(SegmentRequest::Rgb(image), &RunOptions::new());
        sums.push(label_checksum(session.labels()));
        let (u, b) = quality(session.labels(), truth);
        use_ += u;
        br += b;
    }
    (sums, use_ / upto as f64, br / upto as f64)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let clip = generate(args.seed);
    let (untraced, traced) = budgets(args);

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        let t = Instant::now();
        let mut s = SegmenterSession::new(hw8(THREADS, Kernel::Auto), WIDTH, HEIGHT);
        s.run(SegmentRequest::Rgb(&clip.frames[0]), &RunOptions::new());
        setup_s.push(t.elapsed().as_secs_f64());
        session = Some(s);
    }
    let mut session = session.ok_or("no set-up ran")?;

    let (frames, wall_s) = stream(&mut session, &clip, untraced, None);
    let peak_rss_mb = mem::peak_rss_mb()?;
    let mut probe = EngineProbe::new(session.config(), WIDTH, HEIGHT);
    let (traced_frames, traced_wall_s) = if args.trace {
        stream(&mut session, &clip, traced, Some(&mut probe))
    } else {
        (Vec::new(), 0.0)
    };
    drop(session);

    // Verification, outside every timed section.
    let all = || frames.iter().chain(&traced_frames);
    let seen = all().map(|f| f.pos + 1).max().unwrap_or(0);
    let (expected, use_, boundary_recall) = reference(&clip, seen);
    let failed = all()
        .filter(|f| f.degraded || f.checksum != expected[f.pos])
        .count() as u64;
    let mut outcome = Outcome {
        attempted: all().count() as u64,
        failed,
        ..Outcome::default()
    };

    if args.trace {
        let mut layers = Layers::new();
        probe.finish(&mut layers);
        let warm: Vec<f64> = traced_frames
            .iter()
            .filter(|f| f.pos != 0)
            .map(|f| f.allocs as f64)
            .collect();
        layers.insert("core.allocs_per_frame", stats::mean(&warm));
        layers.insert("parallel.speedup_2t", speedup_2t(&clip));
        let fps = frames.len() as f64 / wall_s;
        let traced_fps = traced_frames.len() as f64 / traced_wall_s;
        layers.insert("trace.overhead_ratio", fps / traced_fps);
        outcome.metrics = crate::layer_metrics(&layers)?;
    } else {
        let frame_ms: Vec<f64> = frames.iter().map(|f| f.ms).collect();
        let e2e = EndToEnd {
            // The median over every frame: a 2-thread frame runs fast only
            // while both vCPUs are free at once, which on a shared host is
            // a rare window, so a quietest-window reading would chase it.
            p50_ms: stats::median(&frame_ms),
            frame_ms,
            frames: frames.len(),
            wall_s,
            setup_s,
            peak_rss_mb,
            use_,
            boundary_recall,
        };
        let (metrics, note) = e2e.metrics();
        outcome.metrics = metrics;
        outcome.notes.push(note);
        let warm_allocs: u64 = frames.iter().filter(|f| f.pos != 0).map(|f| f.allocs).sum();
        outcome
            .notes
            .push(format!("allocations on warm frames: {warm_allocs}"));
    }
    Ok(outcome)
}
