//! The length-prefixed `serve` wire protocol: the record codec and the
//! pump that drives a [`SessionFleet`] from a byte stream.
//!
//! Every frame the pump segments goes through [`SessionFleet::try_run`],
//! so served output is bit-identical to calling the fleet directly.

use std::io::{Read, Write};

use sslic_image::{ppm, RgbImage};
use sslic_obs::sink::escape_json;
use sslic_obs::telemetry;

use crate::engine::{RunOptions, SegmentRequest, SegmentationStatus, Segmenter};
use crate::fleet::{FleetConfig, SessionFleet, StreamId};
use crate::recovery::RecoveryPolicy;

/// Wire opcode: one frame follows — `stream: u64 LE`, `len: u32 LE`, then
/// `len` bytes of binary PPM (P6).
pub const WIRE_FRAME: u8 = 0x01;

/// Wire opcode: close a stream — `stream: u64 LE` follows. Frees the
/// stream's slot and drains admissible queued frames.
pub const WIRE_CLOSE: u8 = 0x02;

/// Wire opcode: telemetry request — no payload. [`serve`] replies with an
/// `sslic-serve-stats-v1` line carrying the fleet's Prometheus text
/// exposition.
pub const WIRE_STATS: u8 = 0x03;

/// Hard cap on a frame payload (64 MiB), rejecting absurd length prefixes
/// before any buffer grows.
pub const WIRE_MAX_PAYLOAD: usize = 1 << 26;

/// Encodes one [`WIRE_FRAME`] record.
///
/// # Errors
///
/// Any I/O error of `w`, plus a payload larger than
/// [`WIRE_MAX_PAYLOAD`].
pub fn write_wire_frame<W: Write>(
    w: &mut W,
    stream: StreamId,
    payload: &[u8],
) -> Result<(), String> {
    let len = match u32::try_from(payload.len()) {
        Ok(len) if payload.len() <= WIRE_MAX_PAYLOAD => len,
        _ => {
            return Err(format!(
                "frame payload of {} bytes exceeds the {WIRE_MAX_PAYLOAD}-byte wire cap",
                payload.len()
            ))
        }
    };
    let io = |e: std::io::Error| format!("wire write failed: {e}");
    w.write_all(&[WIRE_FRAME]).map_err(io)?;
    w.write_all(&stream.0.to_le_bytes()).map_err(io)?;
    w.write_all(&len.to_le_bytes()).map_err(io)?;
    w.write_all(payload).map_err(io)
}

/// Encodes one [`WIRE_CLOSE`] record.
///
/// # Errors
///
/// Any I/O error of `w`.
pub fn write_wire_close<W: Write>(w: &mut W, stream: StreamId) -> Result<(), String> {
    let io = |e: std::io::Error| format!("wire write failed: {e}");
    w.write_all(&[WIRE_CLOSE]).map_err(io)?;
    w.write_all(&stream.0.to_le_bytes()).map_err(io)
}

/// Encodes one [`WIRE_STATS`] record (a single opcode byte).
///
/// # Errors
///
/// Any I/O error of `w`.
pub fn write_wire_stats<W: Write>(w: &mut W) -> Result<(), String> {
    w.write_all(&[WIRE_STATS])
        .map_err(|e| format!("wire write failed: {e}"))
}

/// Reads one opcode byte, or `None` at a clean end of stream (EOF is only
/// legal at a record boundary).
fn read_opcode<R: Read>(r: &mut R) -> Result<Option<u8>, String> {
    let mut b = [0u8; 1];
    loop {
        match r.read(&mut b) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(b[0])),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("serve: read failed: {e}")),
        }
    }
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, String> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)
        .map_err(|e| format!("serve: truncated record: {e}"))?;
    Ok(u64::from_le_bytes(b))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, String> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)
        .map_err(|e| format!("serve: truncated record: {e}"))?;
    Ok(u32::from_le_bytes(b))
}

/// Options of one [`serve`] pump.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeOptions<'a> {
    /// Self-healing policy armed on every stream (see
    /// [`RunOptions::recovery`]).
    pub recovery: Option<&'a RecoveryPolicy>,
    /// Emit real phase timings instead of deterministic zeros.
    pub wallclock: bool,
    /// Emit an `sslic-serve-heartbeat-v1` line after every N segmented
    /// frames (0 = off).
    pub heartbeat_every: u64,
    /// Dump the fleet's Prometheus exposition to this path at end of
    /// input.
    pub metrics_path: Option<&'a str>,
}

impl<'a> ServeOptions<'a> {
    /// Default serve options: no recovery, deterministic reports.
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// Arms a recovery policy on every stream.
    pub fn with_recovery(mut self, policy: &'a RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Emits wall-clock phase timings (reports are no longer
    /// byte-reproducible).
    pub fn with_wallclock(mut self, wallclock: bool) -> Self {
        self.wallclock = wallclock;
        self
    }

    /// Emits a heartbeat line after every `every` segmented frames
    /// (0 disables the heartbeat).
    pub fn with_heartbeat(mut self, every: u64) -> Self {
        self.heartbeat_every = every;
        self
    }

    /// Writes the fleet's Prometheus exposition to `path` at end of
    /// input.
    pub fn with_metrics_file(mut self, path: &'a str) -> Self {
        self.metrics_path = Some(path);
        self
    }
}

/// What one [`serve`] pump processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Frames segmented (including drained queued frames).
    pub frames: u64,
    /// Of those, frames that healed via recovery.
    pub recovered: u64,
    /// Frames rejected (saturated + queue full + bad payloads).
    pub rejected: u64,
    /// High-water mark of the admission queue.
    pub queued_peak: u64,
    /// Streams closed by [`WIRE_CLOSE`] records.
    pub closed: u64,
}

fn emit<W: Write>(out: &mut W, line: &str) -> Result<(), String> {
    writeln!(out, "{line}").map_err(|e| format!("serve: write failed: {e}"))
}

fn emit_reject<W: Write>(out: &mut W, stream: StreamId, error: &str) -> Result<(), String> {
    emit(
        out,
        &format!(
            "{{\"schema\":\"sslic-serve-reject-v1\",\"stream\":{stream},\"error\":\"{error}\"}}"
        ),
    )
}

/// The per-pump settings every segmented frame shares.
struct Pump<'a> {
    run_options: RunOptions<'a>,
    deterministic: bool,
    heartbeat_every: u64,
}

impl Pump<'_> {
    /// Runs one admissible frame through the fleet, emits its report
    /// line, folds it into the summary, and emits a heartbeat when one is
    /// due.
    fn frame<W: Write>(
        &self,
        fl: &mut SessionFleet,
        stream: StreamId,
        image: &RgbImage,
        summary: &mut ServeSummary,
        out: &mut W,
    ) -> Result<(), String> {
        let report = fl
            .try_run(stream, SegmentRequest::Rgb(image), &self.run_options)
            .map_err(|e| format!("serve: {e}"))?;
        summary.frames += 1;
        if report.status() == SegmentationStatus::Recovered {
            summary.recovered += 1;
        }
        if let Some(run) = fl.run_report(stream, &report, self.deterministic) {
            emit(out, &run.to_json())?;
        }
        if self.heartbeat_every != 0 && summary.frames.is_multiple_of(self.heartbeat_every) {
            emit_heartbeat(out, fl, summary)?;
        }
        Ok(())
    }

    /// Runs every queued frame that has become admissible, in arrival
    /// order. Returns how many ran.
    fn queued<W: Write>(
        &self,
        fl: &mut SessionFleet,
        summary: &mut ServeSummary,
        out: &mut W,
    ) -> Result<u64, String> {
        let mut drained = 0u64;
        while let Some((stream, image)) = fl.pop_admissible() {
            self.frame(fl, stream, &image, summary, out)?;
            drained += 1;
        }
        Ok(drained)
    }
}

/// The fleet's Prometheus text exposition; empty before the first frame
/// has built the fleet.
fn exposition(pool: Option<&SessionFleet>) -> String {
    pool.map(|fl| telemetry::render_prometheus(&fl.metrics_registry()))
        .unwrap_or_default()
}

/// Emits one `sslic-serve-heartbeat-v1` line: liveness tallies plus the
/// fleet-wide frame-latency percentiles. In deterministic mode every
/// field is a pure function of the frames pumped so far, so heartbeat
/// bytes are identical across worker-thread counts.
fn emit_heartbeat<W: Write>(
    out: &mut W,
    fl: &SessionFleet,
    summary: &ServeSummary,
) -> Result<(), String> {
    let stats = fl.stats();
    let (p50, p90, p99) = fl.latency_percentiles();
    emit(
        out,
        &format!(
            "{{\"schema\":\"sslic-serve-heartbeat-v1\",\"frames\":{},\"recovered\":{},\
             \"rejected\":{},\"queue_depth\":{},\"active_streams\":{},\
             \"frame_latency_p50\":{p50},\"frame_latency_p90\":{p90},\
             \"frame_latency_p99\":{p99}}}",
            summary.frames,
            summary.recovered,
            summary.rejected,
            stats.queue_depth,
            stats.active_streams
        ),
    )
}

/// Pumps the length-prefixed frame protocol from `input` to completion,
/// emitting one JSON line per event on `out`: a full
/// [`RunReport`](sslic_obs::RunReport) (schema `sslic-run-report-v2`,
/// with the `fleet` section) per segmented frame,
/// `sslic-serve-queued-v1` / `sslic-serve-reject-v1` lines for parked
/// and refused frames, an `sslic-serve-close-v1` line per closed stream,
/// an `sslic-serve-stats-v1` line (carrying the fleet's Prometheus text
/// exposition) per [`WIRE_STATS`] request, optional
/// `sslic-serve-heartbeat-v1` lines every
/// [`ServeOptions::heartbeat_every`] frames, and a final
/// `sslic-serve-summary-v2` line at EOF with the fleet-wide
/// frame-latency p50/p90/p99. With [`ServeOptions::metrics_path`] set,
/// the raw exposition is also written to that file at end of input.
///
/// The fleet is sized by `fleet`, configured by `config`, and built
/// lazily from the first frame's geometry; later frames of a different
/// geometry are rejected, not resized. With `wallclock` off, every
/// emitted byte — report lines included, since deterministic reports
/// omit the thread count — and the metrics file are a pure function of
/// the input records, so they are byte-identical across thread counts.
///
/// # Errors
///
/// I/O failures and malformed records (truncation, unknown opcodes,
/// over-cap payloads) abort the pump with a message; malformed *frame
/// pixels* (unparseable PPM) only reject that frame.
pub fn serve<R: Read, W: Write>(
    config: &Segmenter,
    fleet: FleetConfig,
    input: &mut R,
    out: &mut W,
    opts: &ServeOptions<'_>,
) -> Result<ServeSummary, String> {
    let fleet = fleet.with_wallclock_latency(opts.wallclock);
    let mut pool: Option<SessionFleet> = None;
    let mut payload: Vec<u8> = Vec::new();
    let mut summary = ServeSummary::default();
    let mut run_options = RunOptions::new();
    if let Some(p) = opts.recovery {
        run_options = run_options.with_recovery(p);
    }
    let pump = Pump {
        run_options,
        deterministic: !opts.wallclock,
        heartbeat_every: opts.heartbeat_every,
    };
    while let Some(op) = read_opcode(input)? {
        match op {
            WIRE_FRAME => {
                let stream = StreamId(read_u64(input)?);
                let len = read_u32(input)? as usize;
                if len > WIRE_MAX_PAYLOAD {
                    return Err(format!(
                        "serve: frame payload of {len} bytes exceeds the \
                         {WIRE_MAX_PAYLOAD}-byte wire cap"
                    ));
                }
                payload.resize(len, 0);
                input
                    .read_exact(&mut payload)
                    .map_err(|e| format!("serve: truncated frame payload: {e}"))?;
                let Ok(image) = ppm::read_ppm(&payload[..]) else {
                    summary.rejected += 1;
                    emit_reject(out, stream, "bad-frame")?;
                    continue;
                };
                let fl = match &mut pool {
                    Some(fl) => fl,
                    None => pool.insert(
                        SessionFleet::try_new(config, image.width(), image.height(), fleet)
                            .map_err(|e| format!("serve: {e}"))?,
                    ),
                };
                if (image.width(), image.height()) != (fl.width(), fl.height()) {
                    summary.rejected += 1;
                    emit_reject(out, stream, "geometry")?;
                } else if fl.admissible(stream) {
                    pump.frame(fl, stream, &image, &mut summary, out)?;
                } else {
                    match fl.try_enqueue(stream, image) {
                        Ok(depth) => emit(
                            out,
                            &format!(
                                "{{\"schema\":\"sslic-serve-queued-v1\",\"stream\":{stream},\
                                 \"depth\":{depth}}}"
                            ),
                        )?,
                        Err(_) => {
                            summary.rejected += 1;
                            emit_reject(out, stream, "saturated")?;
                        }
                    }
                }
            }
            WIRE_CLOSE => {
                let stream = StreamId(read_u64(input)?);
                let drained = match pool.as_mut() {
                    Some(fl) => {
                        if fl.close(stream) {
                            summary.closed += 1;
                        }
                        pump.queued(fl, &mut summary, out)?
                    }
                    None => 0,
                };
                emit(
                    out,
                    &format!(
                        "{{\"schema\":\"sslic-serve-close-v1\",\"stream\":{stream},\
                         \"drained\":{drained}}}"
                    ),
                )?;
            }
            WIRE_STATS => emit(
                out,
                &format!(
                    "{{\"schema\":\"sslic-serve-stats-v1\",\"exposition\":\"{}\"}}",
                    escape_json(&exposition(pool.as_ref()))
                ),
            )?,
            other => return Err(format!("serve: unknown wire opcode 0x{other:02x}")),
        }
    }
    if let Some(fl) = pool.as_mut() {
        pump.queued(fl, &mut summary, out)?;
        summary.queued_peak = fl.stats().queued_peak;
    }
    if let Some(path) = opts.metrics_path {
        std::fs::write(path, exposition(pool.as_ref()))
            .map_err(|e| format!("serve: cannot write metrics file {path}: {e}"))?;
    }
    let (p50, p90, p99) = pool
        .as_ref()
        .map(|fl| fl.latency_percentiles())
        .unwrap_or((0, 0, 0));
    emit(
        out,
        &format!(
            "{{\"schema\":\"sslic-serve-summary-v2\",\"frames\":{},\"recovered\":{},\
             \"rejected\":{},\"queued_peak\":{},\"closed\":{},\
             \"frame_latency_p50\":{p50},\"frame_latency_p90\":{p90},\
             \"frame_latency_p99\":{p99}}}",
            summary.frames,
            summary.recovered,
            summary.rejected,
            summary.queued_peak,
            summary.closed
        ),
    )?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlicParams;
    use sslic_image::synthetic::SyntheticImage;
    use sslic_obs::RunReport;

    fn segmenter() -> Segmenter {
        Segmenter::sslic_ppa(SlicParams::builder(48).iterations(3).build(), 2)
    }

    fn img(seed: u64) -> SyntheticImage {
        SyntheticImage::builder(64, 48)
            .seed(seed)
            .regions(5)
            .build()
    }

    #[test]
    fn wire_records_round_trip() {
        let mut buf = Vec::new();
        write_wire_frame(&mut buf, StreamId(7), b"pixels").expect("frame");
        write_wire_close(&mut buf, StreamId(7)).expect("close");
        let mut r: &[u8] = &buf;
        assert_eq!(read_opcode(&mut r), Ok(Some(WIRE_FRAME)));
        assert_eq!(read_u64(&mut r), Ok(7));
        assert_eq!(read_u32(&mut r), Ok(6));
        let mut payload = [0u8; 6];
        r.read_exact(&mut payload).expect("payload");
        assert_eq!(&payload, b"pixels");
        assert_eq!(read_opcode(&mut r), Ok(Some(WIRE_CLOSE)));
        assert_eq!(read_u64(&mut r), Ok(7));
        assert_eq!(read_opcode(&mut r), Ok(None));
    }

    #[test]
    fn serve_smoke_emits_reports_and_summary() {
        let seg = segmenter();
        let mut stream_bytes = Vec::new();
        for (s, seed) in [(0u64, 1u64), (1, 2), (0, 3)] {
            let mut ppm_bytes = Vec::new();
            ppm::write_ppm(&mut ppm_bytes, &img(seed).rgb).expect("encode");
            write_wire_frame(&mut stream_bytes, StreamId(s), &ppm_bytes).expect("frame");
        }
        write_wire_close(&mut stream_bytes, StreamId(0)).expect("close");
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut out = Vec::new();
        let summary = serve(
            &seg,
            cfg,
            &mut &stream_bytes[..],
            &mut out,
            &ServeOptions::new(),
        )
        .expect("serve");
        assert_eq!(summary.frames, 3);
        assert_eq!(summary.closed, 1);
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // 3 reports + 1 close ack + 1 summary.
        assert_eq!(lines.len(), 5);
        let report = RunReport::from_json(lines[0]).expect("report line parses");
        let fleet_section = report.fleet.expect("fleet section present");
        assert_eq!(fleet_section.stream, 0);
        assert_eq!(fleet_section.frames, 1);
        assert!(lines[3].contains("sslic-serve-close-v1"));
        assert!(lines[4].contains("sslic-serve-summary-v2"));
        assert!(lines[4].contains("\"frames\":3"));
        assert!(lines[4].contains("\"frame_latency_p50\":"));
    }

    #[test]
    fn wire_stats_round_trips() {
        let mut buf = Vec::new();
        write_wire_stats(&mut buf).expect("stats");
        let mut r: &[u8] = &buf;
        assert_eq!(read_opcode(&mut r), Ok(Some(WIRE_STATS)));
        assert_eq!(read_opcode(&mut r), Ok(None));
    }

    #[test]
    fn serve_answers_stats_with_prometheus_exposition() {
        let seg = segmenter();
        let mut stream_bytes = Vec::new();
        // A stats request before any frame: empty exposition, no pool yet.
        write_wire_stats(&mut stream_bytes).expect("stats");
        for (s, seed) in [(0u64, 1u64), (1, 2)] {
            let mut ppm_bytes = Vec::new();
            ppm::write_ppm(&mut ppm_bytes, &img(seed).rgb).expect("encode");
            write_wire_frame(&mut stream_bytes, StreamId(s), &ppm_bytes).expect("frame");
        }
        write_wire_stats(&mut stream_bytes).expect("stats");
        let cfg = FleetConfig::builder().with_slots(2).build();
        let mut out = Vec::new();
        serve(
            &seg,
            cfg,
            &mut &stream_bytes[..],
            &mut out,
            &ServeOptions::new(),
        )
        .expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let stats: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("sslic-serve-stats-v1"))
            .collect();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].contains("\"exposition\":\"\""));
        assert!(stats[1].contains("sslic_fleet_frames_total 2"));
        assert!(stats[1].contains("sslic_fleet_frame_latency_bucket"));
        assert!(stats[1].contains("le=\\\"+Inf\\\""));
        assert!(stats[1].contains("sslic_stream_frames_total{stream=\\\"0\\\"} 1"));
    }

    #[test]
    fn serve_heartbeat_fires_every_n_frames() {
        let seg = segmenter();
        let mut stream_bytes = Vec::new();
        for seed in 1u64..=4 {
            let mut ppm_bytes = Vec::new();
            ppm::write_ppm(&mut ppm_bytes, &img(seed).rgb).expect("encode");
            write_wire_frame(&mut stream_bytes, StreamId(0), &ppm_bytes).expect("frame");
        }
        let cfg = FleetConfig::builder().with_slots(1).build();
        let mut out = Vec::new();
        serve(
            &seg,
            cfg,
            &mut &stream_bytes[..],
            &mut out,
            &ServeOptions::new().with_heartbeat(2),
        )
        .expect("serve");
        let text = String::from_utf8(out).expect("utf8");
        let beats: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("sslic-serve-heartbeat-v1"))
            .collect();
        assert_eq!(beats.len(), 2);
        assert!(beats[0].contains("\"frames\":2"));
        assert!(beats[1].contains("\"frames\":4"));
        assert!(beats[1].contains("\"frame_latency_p99\":"));
    }
}
