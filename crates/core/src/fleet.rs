//! Multi-stream session fleets: admission control and deterministic
//! round-robin slot binding. The length-prefixed wire protocol that
//! drives a fleet from a byte stream lives in [`crate::serve`].
//!
//! A [`SessionFleet`] owns a pool of pre-built [`SegmenterSession`]s
//! (*slots*), all sharing one [`Segmenter`] configuration and one frame
//! geometry. Independent video streams, keyed by [`StreamId`], are bound
//! to slots on first use by a deterministic round-robin scan; a bound
//! stream keeps its slot — and therefore its warm-start center state —
//! until [`SessionFleet::close`] releases it. When every slot is bound,
//! admission fails with [`FleetError::Saturated`] backpressure; a bounded
//! queue ([`SessionFleet::try_enqueue`], capacity
//! [`FleetConfig::queue_depth`]) can park frames until a slot frees.
//!
//! The fleet upholds the contracts of the layers beneath it:
//!
//! * **Bit-identity** — every frame runs through an ordinary session via
//!   [`SessionFleet::try_run`], so a fleet-run stream is bit-identical to
//!   a standalone session fed the same frames, at any thread count and
//!   whether frames arrive by call or over the wire
//!   ([`serve`](crate::serve())). Slot rebinding calls
//!   [`SegmenterSession::reset`], so a recycled slot seeds cold exactly
//!   like a fresh session.
//! * **Zero steady-state allocations** — admission is a linear scan over
//!   preallocated slots and per-frame bookkeeping is scalar, so a
//!   steady-state fleet frame allocates nothing (pinned in
//!   `tests/zero_alloc.rs`). The queue, which owns its parked images, is
//!   the documented exception off the per-frame steady path.
//! * **Independent healing** — recovery state lives inside each slot's
//!   session, so a recovery-armed stream rolls back and retries without
//!   perturbing its neighbors.

use std::collections::VecDeque;
use std::time::Instant;

use sslic_image::{Plane, RgbImage};
use sslic_obs::telemetry::{self, LatencyHistogram};
use sslic_obs::{MetricsRegistry, Recorder, ReportFleet, RunReport};

use crate::cluster::Cluster;
use crate::engine::{RunOptions, Segmentation, SegmentationStatus, SegmentRequest, Segmenter};
use crate::session::{raise, FrameReport, SegmentError, SegmenterSession};

/// Identifies one logical video stream within a fleet. Plain `u64`
/// newtype: callers mint the IDs (connection numbers, camera indices);
/// the fleet only compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why the fleet refused an operation. Folded into the unified error
/// hierarchy as [`SegmentError::Fleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetError {
    /// Every slot is bound to a live stream; the new stream cannot be
    /// admitted until one closes.
    Saturated {
        /// Streams currently bound to slots.
        streams: usize,
        /// Total slots in the fleet.
        slots: usize,
    },
    /// The admission queue is at its configured capacity.
    QueueFull {
        /// Configured queue depth
        /// ([`FleetConfigBuilder::with_queue_depth`]).
        depth: usize,
    },
    /// A [`FleetConfig`] requested zero slots.
    ZeroSlots,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Saturated { streams, slots } => write!(
                f,
                "all {slots} fleet slots are bound ({streams} active streams); \
                 close a stream or configure more slots"
            ),
            FleetError::QueueFull { depth } => {
                write!(f, "fleet admission queue is full at its depth of {depth}")
            }
            FleetError::ZeroSlots => write!(f, "a session fleet needs at least one slot"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<FleetError> for SegmentError {
    fn from(e: FleetError) -> Self {
        SegmentError::Fleet(e)
    }
}

/// Sizing of a [`SessionFleet`]: slot count and admission-queue depth.
/// Built via [`FleetConfig::builder`]; the builder validates, so every
/// constructed config is well-formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    slots: usize,
    queue_depth: usize,
    wallclock_latency: bool,
}

impl Default for FleetConfig {
    /// One slot, no queue — the single-stream shape.
    fn default() -> Self {
        FleetConfig {
            slots: 1,
            queue_depth: 0,
            wallclock_latency: false,
        }
    }
}

impl FleetConfig {
    /// Starts a builder at the default sizing (1 slot, no queue).
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::default(),
        }
    }

    /// Toggles the unit of the fleet's latency telemetry: off (default),
    /// frame latency is the frame's exact deterministic cost in
    /// distance-evaluation units and queue wait is fleet frames elapsed —
    /// both byte-reproducible; on, both record wall-clock nanoseconds.
    /// Safe to toggle on a built config: it changes no sizing invariant.
    pub(crate) fn with_wallclock_latency(mut self, on: bool) -> Self {
        self.wallclock_latency = on;
        self
    }
}

/// Builder for [`FleetConfig`] (`with_*` chaining, validated by
/// [`FleetConfigBuilder::try_build`]).
#[derive(Debug, Clone, Copy)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the slot count: the maximum number of concurrently bound
    /// streams.
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.config.slots = slots;
        self
    }

    /// Sets the admission-queue capacity (0 disables queueing).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Validates and builds the config.
    ///
    /// # Errors
    ///
    /// [`FleetError::ZeroSlots`] when the slot count is zero.
    pub fn try_build(self) -> Result<FleetConfig, FleetError> {
        if self.config.slots == 0 {
            return Err(FleetError::ZeroSlots);
        }
        Ok(self.config)
    }

    /// Panicking convenience over [`FleetConfigBuilder::try_build`].
    ///
    /// # Panics
    ///
    /// Panics on any [`FleetError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn build(self) -> FleetConfig {
        match self.try_build() {
            Ok(config) => config,
            Err(e) => {
                assert!(false, "{e}");
                unreachable!()
            }
        }
    }
}

/// log2 exponent range of the frame-latency histograms: boundaries
/// `[2^8 … 2^36]` cover both deterministic cost units (distance
/// evaluations per frame, ~10^5–10^7) and wall-clock nanoseconds
/// (~10^5–10^10) in one fixed layout, so the report schema never depends
/// on the telemetry mode.
const FRAME_LATENCY_EXP: (u32, u32) = (8, 36);

/// log2 exponent range of the queue-wait histogram: `[2^0 … 2^36]` spans
/// single-frame deterministic waits up to tens of wall-clock seconds.
const QUEUE_WAIT_EXP: (u32, u32) = (0, 36);

/// One fleet slot: a session plus the stream bound to it (if any) and its
/// per-stream tallies. The stream's frame count is the session's
/// [`SegmenterSession::frames`], which admission resets.
struct Slot {
    session: SegmenterSession,
    stream: Option<StreamId>,
    recovered: u64,
    /// Per-stream frame-latency histogram; reset on rebind along with the
    /// session, so it describes exactly the currently bound stream.
    latency: LatencyHistogram,
}

/// One queued frame awaiting a slot. The queue owns the pixels: by the
/// time the frame becomes admissible the caller's borrow is long gone.
struct Pending {
    stream: StreamId,
    image: RgbImage,
    /// Fleet frame counter at enqueue time — the deterministic queue-wait
    /// clock (wait = frames segmented while parked).
    enqueued_frame: u64,
    /// Wall-clock enqueue stamp, present only in wallclock-latency mode.
    enqueued_at: Option<Instant>,
}

/// Fleet-level totals (see [`SessionFleet::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Frames segmented across all streams.
    pub frames: u64,
    /// Frames whose status was [`SegmentationStatus::Recovered`].
    pub recovered: u64,
    /// Stream-to-slot bindings performed.
    pub admitted: u64,
    /// Admission rejections (saturated fleet or full queue).
    pub rejected: u64,
    /// Frames currently parked in the queue.
    pub queue_depth: u64,
    /// High-water mark of the queue depth.
    pub queued_peak: u64,
    /// Streams currently bound to slots.
    pub active_streams: u64,
    /// Streams unbound via [`SessionFleet::close`].
    pub closed: u64,
}

/// Per-stream tallies (see [`SessionFleet::stream_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamStats {
    /// Frames this stream segmented since it was (re)bound.
    pub frames: u64,
    /// Of those, frames that healed via recovery.
    pub recovered: u64,
}

/// A pool of pre-warmed [`SegmenterSession`]s serving many concurrent
/// streams: per-stream warm-start state, deterministic round-robin
/// admission, and explicit backpressure.
///
/// # Example
///
/// ```
/// use sslic_core::{
///     FleetConfig, RunOptions, SegmentRequest, Segmenter, SessionFleet, SlicParams, StreamId,
/// };
/// use sslic_image::synthetic::SyntheticImage;
///
/// let seg = Segmenter::sslic_ppa(SlicParams::builder(80).iterations(4).build(), 2);
/// let cfg = FleetConfig::builder().with_slots(2).try_build().unwrap();
/// let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
/// for frame in 0..3 {
///     for cam in 0..2u64 {
///         let img = SyntheticImage::builder(64, 48)
///             .seed(cam * 100 + frame)
///             .regions(5)
///             .build();
///         fleet.run(StreamId(cam), SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
///     }
/// }
/// assert_eq!(fleet.stats().frames, 6);
/// assert_eq!(fleet.stream_stats(StreamId(1)).unwrap().frames, 3);
/// ```
pub struct SessionFleet {
    config: Segmenter,
    fleet: FleetConfig,
    width: usize,
    height: usize,
    slots: Vec<Slot>,
    /// Round-robin cursor: the slot index where the next free-slot scan
    /// starts. A pure function of the admission history, never of timing.
    next_slot: usize,
    queue: VecDeque<Pending>,
    queued_peak: u64,
    admitted: u64,
    rejected: u64,
    frames: u64,
    recovered: u64,
    closed: u64,
    /// Fleet-wide frame-latency histogram (deterministic cost units, or
    /// wall-clock nanos under [`FleetConfig::with_wallclock_latency`]).
    frame_latency: LatencyHistogram,
    /// Fleet-wide queue-wait histogram (frames waited, or wall-clock
    /// nanos).
    queue_wait: LatencyHistogram,
}

impl std::fmt::Debug for SessionFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionFleet")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("slots", &self.slots.len())
            .field("active_streams", &self.active_streams())
            .field("frames", &self.frames)
            .finish_non_exhaustive()
    }
}

impl SessionFleet {
    /// Builds a fleet of `fleet.slots()` sessions for `width × height`
    /// frames, each with the full per-frame scratch inventory of a
    /// standalone session.
    ///
    /// # Errors
    ///
    /// [`SegmentError::EmptyFrame`] if either dimension is zero.
    pub fn try_new(
        config: &Segmenter,
        width: usize,
        height: usize,
        fleet: FleetConfig,
    ) -> Result<SessionFleet, SegmentError> {
        let mut slots = Vec::with_capacity(fleet.slots);
        for _ in 0..fleet.slots {
            slots.push(Slot {
                session: SegmenterSession::try_new(config.clone(), width, height)?,
                stream: None,
                recovered: 0,
                latency: LatencyHistogram::log2(FRAME_LATENCY_EXP.0, FRAME_LATENCY_EXP.1),
            });
        }
        Ok(SessionFleet {
            config: config.clone(),
            fleet,
            width,
            height,
            slots,
            next_slot: 0,
            queue: VecDeque::with_capacity(fleet.queue_depth),
            queued_peak: 0,
            admitted: 0,
            rejected: 0,
            frames: 0,
            recovered: 0,
            closed: 0,
            frame_latency: LatencyHistogram::log2(FRAME_LATENCY_EXP.0, FRAME_LATENCY_EXP.1),
            queue_wait: LatencyHistogram::log2(QUEUE_WAIT_EXP.0, QUEUE_WAIT_EXP.1),
        })
    }

    /// Panicking convenience over [`SessionFleet::try_new`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn new(config: &Segmenter, width: usize, height: usize, fleet: FleetConfig) -> SessionFleet {
        match SessionFleet::try_new(config, width, height, fleet) {
            Ok(f) => f,
            Err(e) => raise(e),
        }
    }

    /// Frame width every slot is bound to.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height every slot is bound to.
    pub fn height(&self) -> usize {
        self.height
    }

    fn active_streams(&self) -> usize {
        self.slots.iter().filter(|s| s.stream.is_some()).count()
    }

    /// The slot index `stream` is bound to, if any. Linear scan over the
    /// (small, preallocated) slot table — deterministic and
    /// allocation-free, unlike a hash map.
    fn slot_of(&self, stream: StreamId) -> Option<usize> {
        self.slots.iter().position(|s| s.stream == Some(stream))
    }

    /// Whether a frame for `stream` would be admitted right now (already
    /// bound, or a free slot exists).
    pub fn admissible(&self, stream: StreamId) -> bool {
        self.slot_of(stream).is_some() || self.slots.iter().any(|s| s.stream.is_none())
    }

    /// Binds `stream` to a slot, or returns its existing binding. New
    /// bindings scan free slots round-robin from the cursor; the chosen
    /// slot's session is [`SegmenterSession::reset`] so the new stream
    /// seeds cold instead of inheriting the departed stream's centers.
    fn admit(&mut self, stream: StreamId) -> Result<usize, FleetError> {
        if let Some(i) = self.slot_of(stream) {
            return Ok(i);
        }
        let n = self.slots.len();
        for k in 0..n {
            let i = (self.next_slot + k) % n;
            if self.slots[i].stream.is_none() {
                let slot = &mut self.slots[i];
                slot.stream = Some(stream);
                slot.recovered = 0;
                slot.latency.reset();
                slot.session.reset();
                self.next_slot = (i + 1) % n;
                self.admitted += 1;
                return Ok(i);
            }
        }
        Err(FleetError::Saturated {
            streams: self.active_streams(),
            slots: n,
        })
    }

    /// Books one finished frame into the fleet and per-stream tallies,
    /// the latency histograms, and the `fleet.*` trace counters when a
    /// recorder is attached. The latency unit is elapsed wall-clock
    /// nanoseconds since `started` when a start stamp exists
    /// ([`FleetConfig::with_wallclock_latency`]), otherwise the frame's exact
    /// deterministic cost in distance-evaluation units. Allocation-free
    /// (it sits on the `try_run` hot path).
    fn note(
        &mut self,
        slot: usize,
        report: &FrameReport,
        started: Option<Instant>,
        recorder: Option<&Recorder>,
    ) {
        let latency = match started {
            Some(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => report.counters().distance_calcs,
        };
        self.frames += 1;
        self.frame_latency.observe(latency);
        self.slots[slot].latency.observe(latency);
        let recovered = report.status() == SegmentationStatus::Recovered;
        if recovered {
            self.recovered += 1;
            self.slots[slot].recovered += 1;
        }
        if let Some(rec) = recorder {
            rec.counter_add("fleet.frames", 1);
            if recovered {
                rec.counter_add("fleet.recovered", 1);
            }
        }
    }

    /// Segments one frame of `stream`, admitting the stream first if it
    /// has no slot yet. Bit-identical to running the same frames through
    /// a standalone session; allocation-free in steady state.
    ///
    /// # Errors
    ///
    /// Every per-frame error of [`SegmenterSession::try_run`], checked
    /// before admission so a rejected frame binds no slot; then
    /// [`SegmentError::Fleet`] ([`FleetError::Saturated`]) when no slot is
    /// free.
    pub fn try_run(
        &mut self,
        stream: StreamId,
        request: SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> Result<FrameReport, SegmentError> {
        // Every slot shares one geometry, so slot 0 checks for all.
        self.slots[0].session.check(&request, options)?;
        let slot = match self.admit(stream) {
            Ok(i) => i,
            Err(e) => {
                self.rejected += 1;
                if let Some(rec) = options.recorder {
                    rec.counter_add("fleet.rejected", 1);
                }
                return Err(SegmentError::Fleet(e));
            }
        };
        let started = self.fleet.wallclock_latency.then(Instant::now);
        let report = self.slots[slot].session.try_run(request, options)?;
        self.note(slot, &report, started, options.recorder);
        Ok(report)
    }

    /// Panicking convenience over [`SessionFleet::try_run`].
    ///
    /// # Panics
    ///
    /// Panics on any [`SegmentError`] condition, with the error's
    /// [`std::fmt::Display`] message.
    pub fn run(
        &mut self,
        stream: StreamId,
        request: SegmentRequest<'_>,
        options: &RunOptions<'_>,
    ) -> FrameReport {
        match self.try_run(stream, request, options) {
            Ok(report) => report,
            Err(e) => raise(e),
        }
    }

    /// Parks one frame in the admission queue (the backpressure relief
    /// valve for a saturated fleet). Returns the queue depth after the
    /// push. The queue owns the image; frames leave it in arrival order
    /// via [`SessionFleet::pop_admissible`].
    ///
    /// # Errors
    ///
    /// [`SegmentError::GeometryMismatch`] for a mis-sized frame;
    /// [`SegmentError::Fleet`] ([`FleetError::QueueFull`]) at capacity —
    /// which also counts as an admission rejection in
    /// [`SessionFleet::stats`].
    pub fn try_enqueue(
        &mut self,
        stream: StreamId,
        image: RgbImage,
    ) -> Result<usize, SegmentError> {
        self.slots[0]
            .session
            .check(&SegmentRequest::Rgb(&image), &RunOptions::new())?;
        if self.queue.len() >= self.fleet.queue_depth {
            self.rejected += 1;
            return Err(SegmentError::Fleet(FleetError::QueueFull {
                depth: self.fleet.queue_depth,
            }));
        }
        self.queue.push_back(Pending {
            stream,
            image,
            enqueued_frame: self.frames,
            enqueued_at: self.fleet.wallclock_latency.then(Instant::now),
        });
        self.queued_peak = self.queued_peak.max(self.queue.len() as u64);
        Ok(self.queue.len())
    }

    /// Removes and returns the first queued frame that could run right
    /// now (its stream is bound, or a slot is free). Other frames keep
    /// their arrival order. The frame's queue wait — fleet frames
    /// segmented while it was parked, or elapsed nanos in
    /// wallclock-latency mode — lands in the queue-wait histogram.
    pub fn pop_admissible(&mut self) -> Option<(StreamId, RgbImage)> {
        let at = self
            .queue
            .iter()
            .position(|p| self.admissible(p.stream))?;
        let p = self.queue.remove(at)?;
        let wait = match p.enqueued_at {
            Some(t) => u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
            None => self.frames.saturating_sub(p.enqueued_frame),
        };
        self.queue_wait.observe(wait);
        Some((p.stream, p.image))
    }

    /// Unbinds `stream`, freeing its slot for the next admission. Returns
    /// whether the stream was bound. Queued frames of the stream stay
    /// queued (they re-admit into a free slot once popped).
    pub fn close(&mut self, stream: StreamId) -> bool {
        match self.slot_of(stream) {
            Some(i) => {
                self.slots[i].stream = None;
                self.closed += 1;
                true
            }
            None => false,
        }
    }

    /// Fleet-level totals since construction.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            frames: self.frames,
            recovered: self.recovered,
            admitted: self.admitted,
            rejected: self.rejected,
            queue_depth: self.queue.len() as u64,
            queued_peak: self.queued_peak,
            active_streams: self.active_streams() as u64,
            closed: self.closed,
        }
    }

    /// Deterministic p50/p90/p99 estimates of the fleet-wide frame
    /// latency (all 0 before the first frame).
    pub(crate) fn latency_percentiles(&self) -> (u64, u64, u64) {
        (
            self.frame_latency.percentile(50).unwrap_or(0),
            self.frame_latency.percentile(90).unwrap_or(0),
            self.frame_latency.percentile(99).unwrap_or(0),
        )
    }

    /// Snapshots the fleet's telemetry into a [`MetricsRegistry`]:
    /// `sslic_fleet_*` counters and gauges, the fleet-wide frame-latency
    /// and queue-wait histograms, and per-stream `sslic_stream_*` series
    /// labeled `{stream="<id>"}` for every bound stream. Built off the
    /// frame path (it allocates); every value is deterministic unless
    /// wallclock latency is armed, so the Prometheus exposition rendered
    /// from it is byte-identical across thread counts.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("sslic_fleet_frames_total", self.frames);
        m.counter_add("sslic_fleet_recovered_total", self.recovered);
        m.counter_add("sslic_fleet_admitted_total", self.admitted);
        m.counter_add("sslic_fleet_rejected_total", self.rejected);
        m.counter_add("sslic_fleet_closed_total", self.closed);
        let to_gauge = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let active = self.active_streams() as u64;
        let slots = self.slots.len() as u64;
        m.gauge_set("sslic_fleet_active_streams", to_gauge(active));
        m.gauge_set("sslic_fleet_slots", to_gauge(slots));
        m.gauge_set("sslic_fleet_queue_depth", to_gauge(self.queue.len() as u64));
        m.gauge_set("sslic_fleet_queued_peak", to_gauge(self.queued_peak));
        // Slot occupancy in permille: integer-exact, no float formatting.
        let saturation = if slots == 0 { 0 } else { active * 1000 / slots };
        m.gauge_set("sslic_fleet_saturation_permille", to_gauge(saturation));
        m.histogram_insert(
            "sslic_fleet_frame_latency",
            self.frame_latency.histogram().clone(),
        );
        m.histogram_insert("sslic_fleet_queue_wait", self.queue_wait.histogram().clone());
        for slot in &self.slots {
            let Some(stream) = slot.stream else { continue };
            let sid = stream.to_string();
            let labels: [(&str, &str); 1] = [("stream", &sid)];
            m.counter_add(
                &telemetry::label("sslic_stream_frames_total", &labels),
                slot.session.frames(),
            );
            m.counter_add(
                &telemetry::label("sslic_stream_recovered_total", &labels),
                slot.recovered,
            );
            m.histogram_insert(
                &telemetry::label("sslic_stream_frame_latency", &labels),
                slot.latency.histogram().clone(),
            );
        }
        m
    }

    /// Per-stream tallies, if the stream is currently bound.
    pub fn stream_stats(&self, stream: StreamId) -> Option<StreamStats> {
        self.slot_of(stream).map(|i| StreamStats {
            frames: self.slots[i].session.frames(),
            recovered: self.slots[i].recovered,
        })
    }

    /// The label map of `stream`'s most recent frame, if bound.
    pub fn stream_labels(&self, stream: StreamId) -> Option<&Plane<u32>> {
        self.slot_of(stream).map(|i| self.slots[i].session.labels())
    }

    /// The current cluster centers of `stream` (its warm-start state), if
    /// bound.
    pub fn stream_clusters(&self, stream: StreamId) -> Option<&[Cluster]> {
        self.slot_of(stream)
            .map(|i| self.slots[i].session.clusters())
    }

    /// Consumes the fleet, assembling a full [`Segmentation`] from
    /// `stream`'s most recent frame. `report` must be that frame's
    /// [`FrameReport`].
    /// Returns `None` when the stream is not bound.
    pub fn into_segmentation(
        mut self,
        stream: StreamId,
        report: FrameReport,
    ) -> Option<Segmentation> {
        let i = self.slot_of(stream)?;
        let slot = self.slots.swap_remove(i);
        Some(slot.session.into_segmentation(report))
    }

    /// Builds a [`RunReport`] for `stream`'s most recent frame, extended
    /// with the per-stream fleet section (`fleet.*`): stream id, frames,
    /// recovered frames, live queue depth, admission rejections, and the
    /// FNV-1a checksum of the stream's label map. Returns `None` when the
    /// stream is not bound.
    ///
    /// With `deterministic = true` the phase timings are zeroed and the
    /// thread count is omitted, so the report bytes are a pure function of
    /// the workload (the form the `serve` determinism gate byte-diffs).
    pub fn run_report(
        &self,
        stream: StreamId,
        report: &FrameReport,
        deterministic: bool,
    ) -> Option<RunReport> {
        let i = self.slot_of(stream)?;
        let slot = &self.slots[i];
        let mut run = crate::report::frame_run_report(&self.config, report, deterministic);
        run.width = self.width as u64;
        run.height = self.height as u64;
        run.fleet = Some(ReportFleet {
            stream: stream.0,
            frames: slot.session.frames(),
            recovered: slot.recovered,
            queue_depth: self.queue.len() as u64,
            rejected: self.rejected,
            label_checksum: label_checksum(slot.session.labels()),
        });
        Some(run)
    }
}

/// FNV-1a over a label plane, the fleet's per-stream output fingerprint
/// (the same fold the throughput bench pins in BENCH_*.json seeds).
pub fn label_checksum(labels: &Plane<u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in labels.iter() {
        h ^= u64::from(l);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlicParams;
    use sslic_image::synthetic::SyntheticImage;
    use sslic_obs::Histogram;

    fn segmenter() -> Segmenter {
        Segmenter::sslic_ppa(SlicParams::builder(48).iterations(3).build(), 2)
    }

    fn img(seed: u64) -> SyntheticImage {
        SyntheticImage::builder(64, 48).seed(seed).regions(5).build()
    }

    /// Observations in `stream`'s per-stream latency histogram, if bound.
    fn stream_latency(fleet: &SessionFleet, stream: StreamId) -> Option<u64> {
        fleet
            .slot_of(stream)
            .map(|i| fleet.slots[i].latency.count())
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            FleetConfig::builder().with_slots(0).try_build(),
            Err(FleetError::ZeroSlots)
        );
        let cfg = FleetConfig::builder().with_slots(3).with_queue_depth(5).build();
        assert_eq!((cfg.slots, cfg.queue_depth), (3, 5));
        assert_eq!(FleetConfig::default().slots, 1);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn builder_build_panics_with_the_display_message() {
        let _ = FleetConfig::builder().with_slots(0).build();
    }

    #[test]
    fn round_robin_admission_is_deterministic() {
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(1);
        fleet.run(StreamId(10), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        fleet.run(StreamId(20), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        // Saturated: a third stream is refused, observably.
        let err = fleet
            .try_run(StreamId(30), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new())
            .unwrap_err();
        assert_eq!(
            err,
            SegmentError::Fleet(FleetError::Saturated { streams: 2, slots: 2 })
        );
        assert_eq!(fleet.stats().rejected, 1);
        // Closing stream 10 frees exactly its slot; the next admission
        // reuses it (cursor continuity keeps the choice deterministic).
        assert!(fleet.close(StreamId(10)));
        assert!(!fleet.close(StreamId(10)));
        fleet.run(StreamId(30), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert_eq!(fleet.stats().active_streams, 2);
        assert_eq!(fleet.stream_stats(StreamId(30)).map(|s| s.frames), Some(1));
        assert_eq!(fleet.stream_stats(StreamId(10)), None);
    }

    #[test]
    fn rebinding_a_slot_seeds_cold_like_a_fresh_session() {
        let seg = segmenter();
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut fleet = SessionFleet::new(&seg, 64, 48, cfg);
        let a = img(1);
        let b = img(2);
        // Stream 0 warms the lone slot, then departs.
        fleet.run(StreamId(0), SegmentRequest::Rgb(&a.rgb), &RunOptions::new());
        fleet.close(StreamId(0));
        // Stream 1's first frame must match a cold standalone session,
        // not inherit stream 0's converged centers.
        fleet.run(StreamId(1), SegmentRequest::Rgb(&b.rgb), &RunOptions::new());
        let mut fresh = seg.session(64, 48);
        fresh.run(SegmentRequest::Rgb(&b.rgb), &RunOptions::new());
        assert_eq!(
            fleet.stream_labels(StreamId(1)).map(Plane::as_slice),
            Some(fresh.labels().as_slice())
        );
    }

    #[test]
    fn rejected_frames_leave_the_stream_unbound() {
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(1);
        fleet.run(
            StreamId(0),
            SegmentRequest::Rgb(&frame.rgb),
            &RunOptions::new(),
        );
        fleet.close(StreamId(0));
        // A rejected frame must not bind its stream, hold the lone slot
        // against other streams, or count as an admission.
        let unbound = |fleet: &SessionFleet| {
            let stats = fleet.stats();
            assert_eq!((stats.admitted, stats.active_streams), (1, 0));
            assert!(fleet.stream_labels(StreamId(1)).is_none());
            assert!(fleet.admissible(StreamId(2)));
        };
        let small = SyntheticImage::builder(32, 24).seed(2).regions(3).build();
        let err = fleet
            .try_run(
                StreamId(1),
                SegmentRequest::Rgb(&small.rgb),
                &RunOptions::new(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            SegmentError::GeometryMismatch {
                expected: (64, 48),
                actual: (32, 24),
            }
        );
        unbound(&fleet);
        let short = vec![Cluster::default(); 3];
        let err = fleet
            .try_run(
                StreamId(1),
                SegmentRequest::Rgb(&frame.rgb),
                &RunOptions::new().with_warm_start(&short),
            )
            .unwrap_err();
        assert!(matches!(err, SegmentError::WarmStartLen { actual: 3, .. }));
        unbound(&fleet);
    }

    #[test]
    fn queue_holds_frames_until_a_slot_frees() {
        let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(2).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(3);
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert!(!fleet.admissible(StreamId(1)));
        assert_eq!(fleet.try_enqueue(StreamId(1), frame.rgb.clone()), Ok(1));
        assert_eq!(fleet.try_enqueue(StreamId(2), frame.rgb.clone()), Ok(2));
        let err = fleet.try_enqueue(StreamId(3), frame.rgb.clone()).unwrap_err();
        assert_eq!(err, SegmentError::Fleet(FleetError::QueueFull { depth: 2 }));
        assert_eq!(fleet.stats().queued_peak, 2);
        // Nothing admissible while the slot is bound elsewhere…
        assert!(fleet.pop_admissible().is_none());
        // …until the stream closes: popping then runs frames in order.
        fleet.close(StreamId(0));
        let mut order = Vec::new();
        while let Some((s, image)) = fleet.pop_admissible() {
            fleet.run(s, SegmentRequest::Rgb(&image), &RunOptions::new());
            order.push(s);
        }
        // Queue order is 1 then 2, but only one slot exists: 1 runs,
        // binds the slot, and 2 stays queued (inadmissible again).
        assert_eq!(order, vec![StreamId(1)]);
        assert_eq!(fleet.stats().queue_depth, 1);
    }

    #[test]
    fn fleet_telemetry_tracks_latency_and_queue_wait() {
        let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(2).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(1);
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert_eq!(fleet.frame_latency.count(), 2);
        // Deterministic latency unit is the frame's distance_calcs: > 0
        // for any real frame, so every percentile estimate is > 0 too.
        let (p50, p90, p99) = fleet.latency_percentiles();
        assert!(p50 > 0 && p50 <= p90 && p90 <= p99);
        assert_eq!(stream_latency(&fleet, StreamId(0)), Some(2));
        assert_eq!(stream_latency(&fleet, StreamId(9)), None);
        // Park a frame for a second stream, then free the slot and drain:
        // the queue-wait histogram sees exactly one observation.
        fleet
            .try_enqueue(StreamId(1), frame.rgb.clone())
            .expect("enqueue");
        assert_eq!(fleet.queue_wait.count(), 0);
        fleet.close(StreamId(0));
        let (s, image) = fleet.pop_admissible().expect("admissible after close");
        fleet.run(s, SegmentRequest::Rgb(&image), &RunOptions::new());
        assert_eq!(fleet.queue_wait.count(), 1);
        let m = fleet.metrics_registry();
        assert_eq!(m.counter("sslic_fleet_frames_total"), 3);
        assert_eq!(m.counter("sslic_fleet_closed_total"), 1);
        assert_eq!(m.gauge("sslic_fleet_saturation_permille"), Some(1000));
        assert_eq!(
            m.histogram("sslic_fleet_frame_latency").map(Histogram::count),
            Some(3)
        );
        assert_eq!(
            m.histogram("sslic_fleet_queue_wait").map(Histogram::count),
            Some(1)
        );
    }

    #[test]
    fn rebinding_a_slot_resets_its_latency_histogram() {
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(1);
        fleet.run(StreamId(0), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        assert_eq!(stream_latency(&fleet, StreamId(0)), Some(1));
        fleet.close(StreamId(0));
        fleet.run(StreamId(1), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        // Stream 1 inherits the slot but not stream 0's observations.
        assert_eq!(stream_latency(&fleet, StreamId(1)), Some(1));
        // The fleet-wide histogram keeps everything.
        assert_eq!(fleet.frame_latency.count(), 2);
    }

    #[test]
    fn into_segmentation_hands_over_the_final_frame() {
        let cfg = FleetConfig::default();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(4);
        let report = fleet.run(StreamId(5), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        let labels = fleet
            .stream_labels(StreamId(5))
            .map(|p| p.as_slice().to_vec())
            .expect("bound");
        let seg = fleet
            .into_segmentation(StreamId(5), report)
            .expect("stream bound");
        assert_eq!(seg.labels().as_slice(), labels.as_slice());
    }

    #[test]
    fn run_report_carries_the_fleet_section() {
        let cfg = FleetConfig::builder().with_slots(1).with_queue_depth(1).build();
        let mut fleet = SessionFleet::new(&segmenter(), 64, 48, cfg);
        let frame = img(6);
        let report = fleet.run(StreamId(9), SegmentRequest::Rgb(&frame.rgb), &RunOptions::new());
        let run = fleet.run_report(StreamId(9), &report, true).expect("bound");
        let fleet_section = run.fleet.expect("fleet section");
        assert_eq!(fleet_section.stream, 9);
        assert_eq!(fleet_section.frames, 1);
        assert_eq!(
            fleet_section.label_checksum,
            label_checksum(fleet.stream_labels(StreamId(9)).expect("labels"))
        );
        // Round-trips through the schema with the optional section.
        let back = RunReport::from_json(&run.to_json()).expect("parse");
        assert_eq!(back, run);
        assert!(fleet.run_report(StreamId(1), &report, true).is_none());
    }
}
