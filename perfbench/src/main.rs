//! The repository's benchmark: end-to-end and per-layer timings of the
//! S-SLIC engine on two seeded workloads (see README.md).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload camera-720p --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Every workload is a single-process closed loop: one client issues the
//! next frame only after the previous one finished. Inputs are generated
//! from `--seed` before any timer starts; outputs are checked after the
//! timed section. The last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod camera;
mod mem;
mod probe;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sslic_core::{DistanceMode, Kernel, Segmenter, SlicParams};
use sslic_image::Plane;

#[global_allocator]
static GLOBAL: mem::CountingAlloc = mem::CountingAlloc;

/// Per-layer metrics printed by a traced run, with their units. A
/// workload that never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("color.hw_convert_ms", "ms"),
    ("color.float_convert_ms", "ms"),
    ("color.lab8_decode_ms", "ms"),
    ("core.color_conversion_ms", "ms"),
    ("core.init_ms", "ms"),
    ("core.distance_min_ms", "ms"),
    ("core.center_update_ms", "ms"),
    ("core.connectivity_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.init_clusters_ms", "ms"),
    ("core.distance_calcs", "count"),
    ("core.pixel_color_reads", "count"),
    ("core.center_updates", "count"),
    ("core.iterations_run", "count"),
    ("core.hw8_bytes", "bytes"),
    ("core.allocs_per_frame", "count"),
    ("parallel.speedup_2t", "x"),
    ("image.ppm_parse_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.queue_wait_ms", "ms"),
    ("fleet.queued_frames", "count"),
    ("fleet.cold_rebinds", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.out_bytes_per_frame", "bytes"),
    ("obs.report_emit_ms", "ms"),
    ("obs.exposition_ms", "ms"),
    ("trace.overhead_ratio", "x"),
];

/// Per-layer readings of one traced run, keyed by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Frames attempted in the measured loops.
    pub attempted: u64,
    /// Of those, frames whose output failed verification, was rejected, or
    /// came back `Degraded`.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

/// The command line, as the benchmark contract fixes it.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The camera and serve engine: S-SLIC PPA with P = 2 subsets on the 8-bit
/// quantized datapath, K = 600, 5 iterations, compactness 10.
pub fn hw8(threads: usize, kernel: Kernel) -> Segmenter {
    let params = SlicParams::builder(600)
        .iterations(5)
        .threads(threads)
        .kernel(kernel)
        .build();
    Segmenter::sslic_ppa(params, 2).with_distance_mode(DistanceMode::quantized(8))
}

/// Elapsed time in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Splits a run's measuring time between the untraced loop and, in a traced
/// run, the traced loop that follows it.
pub fn budgets(args: &Args) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(args.seconds);
    if args.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}

/// Times `f` once, returning its result and the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Undersegmentation error and boundary recall (tolerance 0) of one label
/// map against its ground truth.
pub fn quality(labels: &Plane<u32>, truth: &Plane<u32>) -> (f64, f64) {
    (
        sslic_metrics::undersegmentation_error(labels, truth),
        sslic_metrics::boundary_recall(labels, truth, 0),
    )
}

/// Everything the end-to-end metrics are computed from.
pub struct EndToEnd {
    /// Per-frame latency of every frame of the untraced loop, in ms.
    pub frame_ms: Vec<f64>,
    /// The workload's `frame_ms_p50` reading (see its `run`).
    pub p50_ms: f64,
    /// Frames the untraced loop completed, and its wall time in seconds.
    pub frames: usize,
    pub wall_s: f64,
    /// One sample per repeated set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Mean undersegmentation error over the distinct inputs (printed in
    /// the notes only; see README.md).
    pub use_: f64,
    /// Mean boundary recall over the distinct inputs.
    pub boundary_recall: f64,
}

impl EndToEnd {
    /// The `end_to_end` metrics of BENCHMARK.json and a note naming the
    /// tail percentile and its sample count.
    pub fn metrics(&self) -> (Vec<Metric>, String) {
        let tail = stats::tail(&self.frame_ms);
        let p50 = self.p50_ms;
        let fps = self.frames as f64 / self.wall_s;
        let metric = |name, value, unit| Metric { name, value, unit };
        let metrics = vec![
            metric("frame_ms_p50", p50, "ms"),
            metric("frame_ms_tail", tail.value, "ms"),
            metric("fps", fps, "1/s"),
            metric("setup_s", stats::median(&self.setup_s), "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("boundary_recall", self.boundary_recall, "ratio"),
        ];
        let [q1, med, q3] = stats::quartiles(&self.frame_ms).unwrap_or([0.0; 3]);
        let note = format!(
            "all frames: q1 {q1:.3}, median {med:.3}, q3 {q3:.3} ms; tail p{:.2} = {:.3} with {} of {} \
             samples beyond; setup_s median of {} set-ups; use {:.6}",
            tail.percentile,
            tail.value,
            tail.beyond,
            tail.samples,
            self.setup_s.len(),
            self.use_
        );
        (metrics, note)
    }
}

/// Orders a traced run's readings as [`PER_LAYER`], filling 0 for layers
/// the workload never entered.
pub fn layer_metrics(layers: &Layers) -> Result<Vec<Metric>, String> {
    if let Some(unknown) = layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload reported unknown layer metric {unknown}"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect())
}

fn result_json(outcome: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "camera-720p" => camera::run(args),
        "serve-qvga-mux" => serve::run(args),
        other => Err(format!(
            "unknown workload '{other}' (camera-720p, serve-qvga-mux)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let json = match result_json(&outcome) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{}: {note}", args.workload);
    }
    println!(
        "{}: failed_ratio {} ({} of {} frames)",
        args.workload,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!("{json}");
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_follow_the_contract() {
        let argv: Vec<String> = [
            "--workload",
            "camera-720p",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("camera-720p", 7, 10.0, true)
        );
        assert!(parse_args(&argv[..6]).is_err(), "--trace is required");
        let mut bad = argv.clone();
        bad[7] = "2".into();
        assert!(parse_args(&bad).is_err());
    }

    #[test]
    fn every_layer_is_reported_in_order() {
        let mut layers = Layers::new();
        layers.insert("fleet.run_ms", 3.5);
        let m = layer_metrics(&layers).unwrap();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[18].name, "fleet.run_ms");
        assert_eq!(m[18].value, 3.5);
        assert_eq!(m[0].value, 0.0);
        layers.insert("no.such_layer", 1.0);
        assert!(layer_metrics(&layers).is_err());
    }
}
