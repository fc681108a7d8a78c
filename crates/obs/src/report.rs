//! The [`RunReport`]: one serializable record capping a traced run.
//!
//! A report bundles the run parameters, the op/traffic counters, the
//! phase attribution, metric histograms, and the fault summary into a
//! single JSON document that benches and the CLI can emit next to their
//! existing output. `to_json` / `from_json` round-trip exactly: `u64`
//! counters are serialized as raw integer tokens, and the one `f64`
//! parameter (compactness) uses Rust's shortest `Display` form, which
//! `parse` recovers bit-for-bit.

use crate::json::{self, Json};
use crate::metrics::MetricsRegistry;
use crate::sink::escape_json;

/// Schema tag written into every report.
pub const RUN_REPORT_SCHEMA: &str = "sslic-run-report-v2";

/// Mirror of the engine's per-frame `RecoveryReport` (plain struct for
/// the same acyclicity reason as [`ReportCounters`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportRecovery {
    /// Invariant-guard firings summed over every attempt of the run.
    pub guards_fired: u64,
    /// Frame re-runs taken by the recovery policy.
    pub retries: u64,
    /// Cold-restart escalations among the retries.
    pub escalations: u64,
    /// Final disposition (`clean`, `recovered`, or `failed`).
    pub outcome: String,
    /// Checksum of the center table as the run left it.
    pub center_checksum: u64,
}

impl Default for ReportRecovery {
    fn default() -> Self {
        ReportRecovery {
            guards_fired: 0,
            retries: 0,
            escalations: 0,
            outcome: "clean".to_string(),
            center_checksum: 0,
        }
    }
}

impl ReportRecovery {
    fn from_json(j: &Json) -> Option<Self> {
        Some(ReportRecovery {
            guards_fired: j.get("guards_fired")?.as_u64()?,
            retries: j.get("retries")?.as_u64()?,
            escalations: j.get("escalations")?.as_u64()?,
            outcome: j.get("outcome")?.as_str()?.to_string(),
            center_checksum: j.get("center_checksum")?.as_u64()?,
        })
    }
}

/// Per-stream fleet section of a report emitted by a session fleet
/// (`serve` lines and `SessionFleet::run_report`). Absent — and absent
/// from the JSON — for reports produced outside a fleet, so existing
/// single-session reports keep their exact bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportFleet {
    /// The stream this frame belongs to.
    pub stream: u64,
    /// Frames this stream has segmented since it was bound.
    pub frames: u64,
    /// Of those, frames that healed via recovery.
    pub recovered: u64,
    /// Frames parked in the fleet's admission queue right now.
    pub queue_depth: u64,
    /// Fleet-wide admission rejections so far.
    pub rejected: u64,
    /// FNV-1a checksum of this stream's current label map.
    pub label_checksum: u64,
}

impl ReportFleet {
    fn from_json(j: &Json) -> Option<Self> {
        Some(ReportFleet {
            stream: j.get("stream")?.as_u64()?,
            frames: j.get("frames")?.as_u64()?,
            recovered: j.get("recovered")?.as_u64()?,
            queue_depth: j.get("queue_depth")?.as_u64()?,
            rejected: j.get("rejected")?.as_u64()?,
            label_checksum: j.get("label_checksum")?.as_u64()?,
        })
    }
}

/// Mirror of the engine's `RunCounters` (kept as a plain struct here so
/// the zero-dependency crate graph stays acyclic: obs depends on nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReportCounters {
    /// 9-candidate distance evaluations.
    pub distance_calcs: u64,
    /// Pixel color fetches.
    pub pixel_color_reads: u64,
    /// Distance-buffer reads.
    pub dist_buffer_reads: u64,
    /// Distance-buffer writes.
    pub dist_buffer_writes: u64,
    /// Label-plane reads.
    pub label_reads: u64,
    /// Label-plane writes.
    pub label_writes: u64,
    /// Cluster-center reads.
    pub center_reads: u64,
    /// Sigma-accumulator updates.
    pub sigma_updates: u64,
    /// Cluster-center writes.
    pub center_updates: u64,
    /// Center-update steps executed.
    pub sub_iterations: u64,
}

impl ReportCounters {
    const FIELDS: [&'static str; 10] = [
        "distance_calcs",
        "pixel_color_reads",
        "dist_buffer_reads",
        "dist_buffer_writes",
        "label_reads",
        "label_writes",
        "center_reads",
        "sigma_updates",
        "center_updates",
        "sub_iterations",
    ];

    fn values(&self) -> [u64; 10] {
        [
            self.distance_calcs,
            self.pixel_color_reads,
            self.dist_buffer_reads,
            self.dist_buffer_writes,
            self.label_reads,
            self.label_writes,
            self.center_reads,
            self.sigma_updates,
            self.center_updates,
            self.sub_iterations,
        ]
    }

    fn from_json(j: &Json) -> Option<Self> {
        let mut c = ReportCounters::default();
        let slots: [&mut u64; 10] = [
            &mut c.distance_calcs,
            &mut c.pixel_color_reads,
            &mut c.dist_buffer_reads,
            &mut c.dist_buffer_writes,
            &mut c.label_reads,
            &mut c.label_writes,
            &mut c.center_reads,
            &mut c.sigma_updates,
            &mut c.center_updates,
            &mut c.sub_iterations,
        ];
        for (name, slot) in Self::FIELDS.iter().zip(slots) {
            *slot = j.get(name)?.as_u64()?;
        }
        Some(c)
    }
}

/// Per-phase attribution in nanoseconds (0 in deterministic mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Phase name (`color_conversion`, `init`, …).
    pub name: String,
    /// Elapsed nanoseconds; 0 under [`crate::Determinism::Deterministic`].
    pub nanos: u64,
}

/// Snapshot of one named histogram from the metrics registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Upper bucket boundaries.
    pub boundaries: Vec<u64>,
    /// Per-bucket counts (`boundaries.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
}

/// Modeled DRAM traffic for one memory model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficEntry {
    /// Model name (`sw_double`, `sw_float`, `hw_8bit`).
    pub model: String,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub written_bytes: u64,
}

/// One traced run, serialized.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Algorithm name (`slic_cpa`, `slic_ppa` or `sslic_ppa`).
    pub algorithm: String,
    /// Image width in pixels.
    pub width: u64,
    /// Image height in pixels.
    pub height: u64,
    /// Requested superpixel count.
    pub superpixels: u64,
    /// Requested iterations.
    pub iterations: u64,
    /// Subset count of the subset-schedule algorithms.
    pub subsets: u64,
    /// Worker threads used; `None` (and omitted from the JSON) in
    /// deterministic reports, whose bytes must not depend on the thread
    /// count.
    pub threads: Option<u64>,
    /// Compactness parameter.
    pub compactness: f64,
    /// Distance mode (`float` or `quantized`).
    pub distance_mode: String,
    /// Resolved assign-kernel backend (`scalar` or `swar`); `None` (and
    /// omitted from the JSON) for reports from producers that predate
    /// kernel dispatch, so existing captures parse unchanged.
    pub kernel: Option<String>,
    /// Center-update steps actually executed.
    pub iterations_run: u64,
    /// Final status (`ok`, `degraded` or `recovered`).
    pub status: String,
    /// Invariant repairs performed by the engine.
    pub repairs: u64,
    /// Fault-injected words (0 for clean runs).
    pub injected_words: u64,
    /// Self-healing summary (all-zero `clean` when recovery never ran).
    pub recovery: ReportRecovery,
    /// Per-stream fleet section; `None` (and omitted from the JSON) for
    /// reports produced outside a session fleet.
    pub fleet: Option<ReportFleet>,
    /// Engine op counters.
    pub counters: ReportCounters,
    /// Per-phase attribution.
    pub phases: Vec<PhaseNanos>,
    /// Histogram snapshots from the recorder, name-ordered.
    pub histograms: Vec<HistogramSnapshot>,
    /// Modeled traffic per memory model.
    pub traffic: Vec<TrafficEntry>,
}

fn u64_arr_json(values: &[u64]) -> String {
    let items: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

fn u64_arr_from(j: &Json) -> Option<Vec<u64>> {
    j.as_arr()?.iter().map(Json::as_u64).collect()
}

impl RunReport {
    /// Captures the recorder's histograms into `self.histograms`
    /// (name-ordered, so the serialization is deterministic).
    pub fn set_histograms(&mut self, metrics: &MetricsRegistry) {
        self.histograms = metrics
            .histograms()
            .map(|(name, h)| HistogramSnapshot {
                name: name.to_string(),
                boundaries: h.boundaries().to_vec(),
                buckets: h.buckets().to_vec(),
                count: h.count(),
                sum: h.sum(),
            })
            .collect();
    }

    /// Serializes the report as a pretty-stable single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"schema\":\"{}\"", RUN_REPORT_SCHEMA));
        out.push_str(&format!(
            ",\"algorithm\":\"{}\"",
            escape_json(&self.algorithm)
        ));
        out.push_str(&format!(",\"width\":{}", self.width));
        out.push_str(&format!(",\"height\":{}", self.height));
        out.push_str(&format!(",\"superpixels\":{}", self.superpixels));
        out.push_str(&format!(",\"iterations\":{}", self.iterations));
        out.push_str(&format!(",\"subsets\":{}", self.subsets));
        if let Some(t) = self.threads {
            out.push_str(&format!(",\"threads\":{t}"));
        }
        out.push_str(&format!(",\"compactness\":{}", self.compactness));
        out.push_str(&format!(
            ",\"distance_mode\":\"{}\"",
            escape_json(&self.distance_mode)
        ));
        if let Some(k) = &self.kernel {
            out.push_str(&format!(",\"kernel\":\"{}\"", escape_json(k)));
        }
        out.push_str(&format!(",\"iterations_run\":{}", self.iterations_run));
        out.push_str(&format!(",\"status\":\"{}\"", escape_json(&self.status)));
        out.push_str(&format!(",\"repairs\":{}", self.repairs));
        out.push_str(&format!(",\"injected_words\":{}", self.injected_words));
        out.push_str(&format!(
            ",\"recovery\":{{\"guards_fired\":{},\"retries\":{},\"escalations\":{},\"outcome\":\"{}\",\"center_checksum\":{}}}",
            self.recovery.guards_fired,
            self.recovery.retries,
            self.recovery.escalations,
            escape_json(&self.recovery.outcome),
            self.recovery.center_checksum
        ));
        if let Some(fl) = &self.fleet {
            out.push_str(&format!(
                ",\"fleet\":{{\"stream\":{},\"frames\":{},\"recovered\":{},\"queue_depth\":{},\"rejected\":{},\"label_checksum\":{}}}",
                fl.stream, fl.frames, fl.recovered, fl.queue_depth, fl.rejected, fl.label_checksum
            ));
        }
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in ReportCounters::FIELDS
            .iter()
            .zip(self.counters.values())
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push('}');
        out.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"nanos\":{}}}",
                escape_json(&p.name),
                p.nanos
            ));
        }
        out.push(']');
        out.push_str(",\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"boundaries\":{},\"buckets\":{},\"count\":{},\"sum\":{}}}",
                escape_json(&h.name),
                u64_arr_json(&h.boundaries),
                u64_arr_json(&h.buckets),
                h.count,
                h.sum
            ));
        }
        out.push(']');
        out.push_str(",\"traffic\":[");
        for (i, t) in self.traffic.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"model\":\"{}\",\"read_bytes\":{},\"written_bytes\":{}}}",
                escape_json(&t.model),
                t.read_bytes,
                t.written_bytes
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses a report serialized by [`RunReport::to_json`].
    pub fn from_json(input: &str) -> Result<RunReport, String> {
        let j = json::parse(input)?;
        let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != RUN_REPORT_SCHEMA {
            return Err(format!("unknown report schema '{schema}'"));
        }
        let need_u64 = |key: &str| -> Result<u64, String> {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or invalid field '{key}'"))
        };
        let need_str = |key: &str| -> Result<String, String> {
            j.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or invalid field '{key}'"))
        };
        let counters = j
            .get("counters")
            .and_then(ReportCounters::from_json)
            .ok_or_else(|| "missing or invalid 'counters'".to_string())?;
        let recovery = j
            .get("recovery")
            .and_then(ReportRecovery::from_json)
            .ok_or_else(|| "missing or invalid 'recovery'".to_string())?;
        let phases = j
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing 'phases'".to_string())?
            .iter()
            .map(|p| {
                Some(PhaseNanos {
                    name: p.get("name")?.as_str()?.to_string(),
                    nanos: p.get("nanos")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "invalid phase entry".to_string())?;
        let histograms = j
            .get("histograms")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing 'histograms'".to_string())?
            .iter()
            .map(|h| {
                Some(HistogramSnapshot {
                    name: h.get("name")?.as_str()?.to_string(),
                    boundaries: h.get("boundaries").and_then(u64_arr_from)?,
                    buckets: h.get("buckets").and_then(u64_arr_from)?,
                    count: h.get("count")?.as_u64()?,
                    sum: h.get("sum")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "invalid histogram entry".to_string())?;
        let traffic = j
            .get("traffic")
            .and_then(Json::as_arr)
            .ok_or_else(|| "missing 'traffic'".to_string())?
            .iter()
            .map(|t| {
                Some(TrafficEntry {
                    model: t.get("model")?.as_str()?.to_string(),
                    read_bytes: t.get("read_bytes")?.as_u64()?,
                    written_bytes: t.get("written_bytes")?.as_u64()?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| "invalid traffic entry".to_string())?;
        Ok(RunReport {
            algorithm: need_str("algorithm")?,
            width: need_u64("width")?,
            height: need_u64("height")?,
            superpixels: need_u64("superpixels")?,
            iterations: need_u64("iterations")?,
            subsets: need_u64("subsets")?,
            threads: j.get("threads").and_then(Json::as_u64),
            compactness: j
                .get("compactness")
                .and_then(Json::as_f64)
                .ok_or_else(|| "missing or invalid field 'compactness'".to_string())?,
            distance_mode: need_str("distance_mode")?,
            kernel: j
                .get("kernel")
                .and_then(Json::as_str)
                .map(str::to_string),
            iterations_run: need_u64("iterations_run")?,
            status: need_str("status")?,
            repairs: need_u64("repairs")?,
            injected_words: need_u64("injected_words")?,
            recovery,
            fleet: j.get("fleet").and_then(ReportFleet::from_json),
            counters,
            phases,
            histograms,
            traffic,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            algorithm: "ppa".to_string(),
            width: 320,
            height: 240,
            superpixels: 150,
            iterations: 3,
            subsets: 4,
            threads: Some(2),
            compactness: 10.5,
            distance_mode: "quantized".to_string(),
            kernel: None,
            iterations_run: 12,
            status: "ok".to_string(),
            repairs: 0,
            injected_words: 0,
            recovery: ReportRecovery {
                guards_fired: 3,
                retries: 1,
                escalations: 0,
                outcome: "recovered".to_string(),
                center_checksum: 0x9E37_79B9_7F4A_7C15,
            },
            fleet: None,
            counters: ReportCounters {
                distance_calcs: 2_073_600,
                pixel_color_reads: 230_400,
                sub_iterations: 12,
                ..ReportCounters::default()
            },
            phases: vec![
                PhaseNanos {
                    name: "init".to_string(),
                    nanos: 0,
                },
                PhaseNanos {
                    name: "distance_min".to_string(),
                    nanos: 0,
                },
            ],
            histograms: vec![HistogramSnapshot {
                name: "band.pixels".to_string(),
                boundaries: vec![1024, 4096],
                buckets: vec![0, 3, 1],
                count: 4,
                sum: 9000,
            }],
            traffic: vec![TrafficEntry {
                model: "hw_8bit".to_string(),
                read_bytes: 12345,
                written_bytes: 678,
            }],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let r = sample();
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parse");
        assert_eq!(back, r);
        // And the re-serialization is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn fleet_section_round_trips_and_stays_optional() {
        // Without a fleet section, the key never appears: pre-fleet
        // reports keep their exact bytes.
        let plain = sample();
        assert!(!plain.to_json().contains("\"fleet\""));
        // With one, every field survives the round trip.
        let mut r = sample();
        r.fleet = Some(ReportFleet {
            stream: 42,
            frames: 7,
            recovered: 1,
            queue_depth: 3,
            rejected: 2,
            label_checksum: 0xDEAD_BEEF_CAFE_F00D,
        });
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn threads_field_is_optional() {
        // Deterministic reports omit the thread count entirely.
        let mut r = sample();
        r.threads = None;
        let json = r.to_json();
        assert!(!json.contains("\"threads\""));
        let back = RunReport::from_json(&json).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn kernel_field_round_trips_and_stays_optional() {
        // Reports from producers that predate kernel dispatch never
        // emit the key, so their bytes are untouched.
        let plain = sample();
        assert!(!plain.to_json().contains("\"kernel\""));
        // With one, the value survives the round trip byte-for-byte.
        let mut r = sample();
        r.kernel = Some("swar".to_string());
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parse");
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn extreme_u64_counters_survive() {
        let mut r = sample();
        r.counters.distance_calcs = u64::MAX;
        r.counters.sigma_updates = u64::MAX - 1;
        let back = RunReport::from_json(&r.to_json()).expect("parse");
        assert_eq!(back.counters.distance_calcs, u64::MAX);
        assert_eq!(back.counters.sigma_updates, u64::MAX - 1);
    }

    #[test]
    fn fractional_compactness_round_trips() {
        for c in [10.0f64, 0.1, 37.33, 1e-3] {
            let mut r = sample();
            r.compactness = c;
            let back = RunReport::from_json(&r.to_json()).expect("parse");
            assert_eq!(back.compactness.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn rejects_wrong_schema() {
        let doctored = sample().to_json().replace(RUN_REPORT_SCHEMA, "v0");
        assert!(RunReport::from_json(&doctored).is_err());
    }

    #[test]
    fn set_histograms_snapshots_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.histogram_observe("z", &[10], 5);
        m.histogram_observe("a", &[2], 1);
        let mut r = sample();
        r.set_histograms(&m);
        let names: Vec<&str> = r.histograms.iter().map(|h| h.name.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
        assert_eq!(r.histograms[1].sum, 5);
    }
}
