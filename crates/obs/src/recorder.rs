//! The [`Recorder`]: the single handle a traced run threads through the
//! subsystems it touches.
//!
//! Interior mutability is a [`std::sync::Mutex`] so a `&Recorder` can ride
//! inside structures that must stay [`Sync`] (the engine's banded workers
//! share `&Engine`). The emitting subsystems only ever call it at serial
//! synchronization points, in a deterministic order — the mutex is for the
//! type system, not for contention — which is what keeps deterministic-mode
//! traces byte-identical across thread counts.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::clock::LogicalClock;
use crate::event::{Event, EventKind, Value};
use crate::metrics::MetricsRegistry;
use crate::sink;

/// Whether a trace may contain wall-clock durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinism {
    /// Logical clocks only: every duration attribute is forced to 0, so
    /// the trace bytes are a pure function of the workload. This is the
    /// mode CI byte-diffs.
    Deterministic,
    /// Durations carry real elapsed nanoseconds (profiling runs; traces
    /// are not byte-comparable across runs).
    Wallclock,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    next_seq: u64,
    metrics: MetricsRegistry,
}

/// Collects events and metrics from one (or several) runs.
#[derive(Debug)]
pub struct Recorder {
    mode: Determinism,
    inner: Mutex<Inner>,
}

impl Recorder {
    /// A recorder in the given mode.
    pub fn new(mode: Determinism) -> Self {
        Recorder {
            mode,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// A deterministic-mode recorder (see [`Determinism::Deterministic`]).
    pub fn deterministic() -> Self {
        Self::new(Determinism::Deterministic)
    }

    /// A wall-clock-mode recorder.
    pub fn wallclock() -> Self {
        Self::new(Determinism::Wallclock)
    }

    /// The recording mode.
    pub fn mode(&self) -> Determinism {
        self.mode
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Emitters never panic while holding the lock, but if an external
        // caller ever did, the data is still sound to read.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(
        &self,
        kind: EventKind,
        name: &'static str,
        clock: LogicalClock,
        attrs: Vec<(&'static str, Value)>,
    ) {
        let mut inner = self.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push(Event {
            seq,
            clock,
            kind,
            name,
            attrs,
        });
    }

    /// Opens a span.
    pub fn span_begin(
        &self,
        name: &'static str,
        clock: LogicalClock,
        attrs: Vec<(&'static str, Value)>,
    ) {
        self.push(EventKind::SpanBegin, name, clock, attrs);
    }

    /// Closes the most recent span of `name`.
    pub fn span_end(
        &self,
        name: &'static str,
        clock: LogicalClock,
        attrs: Vec<(&'static str, Value)>,
    ) {
        self.push(EventKind::SpanEnd, name, clock, attrs);
    }

    /// Emits a point event.
    pub fn instant(
        &self,
        name: &'static str,
        clock: LogicalClock,
        attrs: Vec<(&'static str, Value)>,
    ) {
        self.push(EventKind::Instant, name, clock, attrs);
    }

    /// Emits a counter sample (rendered as a Chrome counter track).
    pub fn counter(
        &self,
        name: &'static str,
        clock: LogicalClock,
        attrs: Vec<(&'static str, Value)>,
    ) {
        self.push(EventKind::Counter, name, clock, attrs);
    }

    /// Converts a measured duration to the nanosecond value a trace
    /// attribute may carry: 0 in deterministic mode, the saturated real
    /// nanoseconds otherwise.
    pub fn duration_ns(&self, d: Duration) -> u64 {
        match self.mode {
            Determinism::Deterministic => 0,
            Determinism::Wallclock => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Adds to a monotonic metric counter.
    pub fn counter_add(&self, name: &str, v: u64) {
        self.lock().metrics.counter_add(name, v);
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, name: &str, v: i64) {
        self.lock().metrics.gauge_set(name, v);
    }

    /// Records a histogram observation (boundaries fixed at first use).
    pub fn histogram_observe(&self, name: &str, boundaries: &[u64], v: u64) {
        self.lock().metrics.histogram_observe(name, boundaries, v);
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> usize {
        self.lock().events.len()
    }

    /// A snapshot of all events in sequence order.
    pub fn events(&self) -> Vec<Event> {
        self.lock().events.clone()
    }

    /// A snapshot of the metrics registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.lock().metrics.clone()
    }

    /// Renders the trace as JSON lines (one event per line).
    pub fn to_jsonl(&self) -> String {
        sink::to_jsonl(&self.lock().events)
    }

    /// Renders the trace in Chrome trace-event format (loadable in
    /// Perfetto / `chrome://tracing`).
    pub fn to_chrome_trace(&self) -> String {
        sink::to_chrome_trace(&self.lock().events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_numbers_are_monotonic_from_zero() {
        let r = Recorder::deterministic();
        r.instant("a", LogicalClock::ZERO, vec![]);
        r.instant("b", LogicalClock::step(1), vec![]);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!((ev[0].seq, ev[1].seq), (0, 1));
        assert_eq!(ev[1].name, "b");
    }

    #[test]
    fn deterministic_mode_zeroes_durations() {
        let r = Recorder::deterministic();
        assert_eq!(r.duration_ns(Duration::from_millis(5)), 0);
        let w = Recorder::wallclock();
        assert_eq!(w.duration_ns(Duration::from_nanos(42)), 42);
    }

    #[test]
    fn metrics_ride_along() {
        let r = Recorder::deterministic();
        r.counter_add("ops", 5);
        r.gauge_set("occupancy", 3);
        r.histogram_observe("sizes", &[10], 4);
        let m = r.metrics();
        assert_eq!(m.counter("ops"), 5);
        assert_eq!(m.gauge("occupancy"), Some(3));
        assert_eq!(m.histogram("sizes").map(|h| h.count()), Some(1));
    }

    #[test]
    fn recorder_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Recorder>();
    }
}
