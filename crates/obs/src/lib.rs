//! # sslic-obs — deterministic structured observability
//!
//! A zero-dependency observability layer for the S-SLIC reproduction:
//! spans, instants, and counter samples keyed by **logical clocks**
//! (iteration / band / modeled hardware cycle — never wall-clock in
//! deterministic mode), a metrics registry (monotonic counters, gauges,
//! fixed-boundary histograms), and pluggable render sinks:
//!
//! * [`Recorder::to_jsonl`] — one JSON object per line, byte-diffable by CI;
//! * [`Recorder::to_chrome_trace`] — Chrome trace-event format, loadable in
//!   Perfetto or `chrome://tracing`.
//!
//! The determinism contract: with a [`Recorder`] in deterministic mode
//! ([`Recorder::deterministic`]), the rendered trace bytes are a
//! pure function of the workload — identical across repeated runs and
//! across worker-thread counts. The engine guarantees this by emitting
//! only at serial synchronization points in a fixed order; this crate
//! guarantees it by keeping floats and wall-clock values out of the event
//! model ([`event::Value`] has no float variant, and
//! [`Recorder::duration_ns`] returns 0 in deterministic mode).
//!
//! A traced run is capped by a [`RunReport`]: parameters, counters,
//! phase attribution, histograms, fault summary, and modeled DRAM
//! traffic, round-trippable through [`RunReport::to_json`] /
//! [`RunReport::from_json`] via the built-in no-panic [`json`] parser.
//!
//! On top of those primitives sit two analysis layers. [`telemetry`]
//! adds log2-bucketed [`telemetry::LatencyHistogram`]s with deterministic integer
//! percentile estimation and a Prometheus text-exposition renderer over
//! the registry. [`insight`] reads the artifacts back — JSONL
//! traces, report lines, bench seeds — and renders span attribution
//! tables, flamegraph-collapsed stacks, and cross-PR bench trajectories.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod clock;
pub(crate) mod event;
pub mod insight;
pub mod json;
pub mod metrics;
pub(crate) mod recorder;
pub(crate) mod report;
pub mod sink;
pub mod telemetry;

pub use clock::LogicalClock;
pub use event::{Event, EventKind, Value};
pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::Recorder;
pub use report::{
    HistogramSnapshot, PhaseNanos, ReportCounters, ReportFleet, ReportRecovery, RunReport,
    TrafficEntry,
};
