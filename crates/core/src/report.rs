//! Building an [`sslic_obs::RunReport`] from a finished segmentation.
//!
//! The report is the serializable cap of a traced run: parameters,
//! counters, phase attribution, recorder histograms, fault summary, and
//! modeled DRAM traffic under each element-width convention.

use sslic_obs::{PhaseNanos, Recorder, ReportCounters, ReportRecovery, RunReport, TrafficEntry};

use crate::engine::{Segmentation, SegmentationStatus, Segmenter};
use crate::instrument::{RunCounters, TrafficModel};
use crate::profile::PHASES;
use crate::recovery::RecoveryReport;
use crate::session::FrameReport;

/// Converts the engine's per-frame [`RecoveryReport`] into the report
/// mirror.
pub(crate) fn report_recovery(r: &RecoveryReport) -> ReportRecovery {
    ReportRecovery {
        guards_fired: r.guards_fired,
        retries: u64::from(r.retries),
        escalations: u64::from(r.escalations),
        outcome: r.outcome.as_str().to_string(),
        center_checksum: r.center_checksum,
    }
}

/// Converts the engine's [`RunCounters`] into the report mirror.
pub(crate) fn report_counters(c: &RunCounters) -> ReportCounters {
    ReportCounters {
        distance_calcs: c.distance_calcs,
        pixel_color_reads: c.pixel_color_reads,
        dist_buffer_reads: c.dist_buffer_reads,
        dist_buffer_writes: c.dist_buffer_writes,
        label_reads: c.label_reads,
        label_writes: c.label_writes,
        center_reads: c.center_reads,
        sigma_updates: c.sigma_updates,
        center_updates: c.center_updates,
        sub_iterations: c.sub_iterations,
    }
}

/// Builds a [`RunReport`] from a streaming [`FrameReport`] — the same
/// document [`build_run_report`] produces, minus the pieces a frame
/// report does not carry: `width`/`height` are left at 0 for the caller
/// to fill in (a session fleet knows its geometry; the report does not),
/// histograms are empty, and `injected_words` is 0.
///
/// With `deterministic = true` the phase timings are zeroed and the
/// thread count is omitted, so the report bytes are a pure function of
/// the workload (the mode CI byte-diffs across thread counts).
pub(crate) fn frame_run_report(
    seg: &Segmenter,
    frame: &FrameReport,
    deterministic: bool,
) -> RunReport {
    let params = seg.params();
    let phases = PHASES
        .iter()
        .map(|&p| PhaseNanos {
            name: p.key().to_string(),
            nanos: if deterministic {
                0
            } else {
                u64::try_from(frame.breakdown().phase_time(p).as_nanos()).unwrap_or(u64::MAX)
            },
        })
        .collect();
    let traffic = [
        ("sw_double", TrafficModel::sw_double()),
        ("sw_float", TrafficModel::sw_float()),
        ("hw_8bit", TrafficModel::hw_8bit()),
    ]
    .iter()
    .map(|(name, model)| {
        let bytes = model.bytes(frame.counters());
        TrafficEntry {
            model: name.to_string(),
            read_bytes: bytes.read,
            written_bytes: bytes.written,
        }
    })
    .collect();
    RunReport {
        algorithm: seg.algorithm().name().to_string(),
        width: 0,
        height: 0,
        superpixels: params.superpixels() as u64,
        iterations: u64::from(params.iterations()),
        subsets: u64::from(seg.algorithm().steps_per_full_pass()),
        threads: (!deterministic).then(|| params.threads().get() as u64),
        compactness: f64::from(params.compactness()),
        distance_mode: if seg.distance_mode().is_quantized() {
            "quantized".to_string()
        } else {
            "float".to_string()
        },
        kernel: Some(frame.kernel().as_str().to_string()),
        iterations_run: u64::from(frame.iterations_run()),
        status: match frame.status() {
            SegmentationStatus::Ok => "ok".to_string(),
            SegmentationStatus::Degraded => "degraded".to_string(),
            SegmentationStatus::Recovered => "recovered".to_string(),
        },
        repairs: frame.invariant_repairs(),
        injected_words: 0,
        recovery: report_recovery(frame.recovery()),
        fleet: None,
        counters: report_counters(frame.counters()),
        phases,
        histograms: Vec::new(),
        traffic,
    }
}

/// Builds a [`RunReport`] for a completed run of `seg`: the
/// `frame_run_report` of its frame plus the image geometry.
///
/// `deterministic` is as for `frame_run_report`. `recorder`, when
/// given, contributes its histogram snapshots; `injected_words` is the
/// fault-campaign tally (0 for clean runs).
pub fn build_run_report(
    seg: &Segmenter,
    out: &Segmentation,
    deterministic: bool,
    recorder: Option<&Recorder>,
    injected_words: u64,
) -> RunReport {
    let mut report = frame_run_report(seg, out.report(), deterministic);
    report.width = out.labels().width() as u64;
    report.height = out.labels().height() as u64;
    report.injected_words = injected_words;
    if let Some(rec) = recorder {
        report.set_histograms(&rec.metrics());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunOptions, SegmentRequest, SlicParams};
    use sslic_image::synthetic::SyntheticImage;

    #[test]
    fn report_mirrors_counters_and_round_trips() {
        let img = SyntheticImage::builder(64, 48).seed(7).regions(4).build();
        let seg = Segmenter::sslic_ppa(SlicParams::builder(60).iterations(4).build(), 2);
        let rec = Recorder::deterministic();
        let out = seg.run(
            SegmentRequest::Rgb(&img.rgb),
            &RunOptions::new().with_recorder(&rec),
        );
        let report = build_run_report(&seg, &out, true, Some(&rec), 0);
        assert_eq!(report.counters, report_counters(out.report().counters()));
        assert_eq!(report.iterations_run, 4);
        assert_eq!(report.algorithm, "sslic_ppa");
        assert!(report.phases.iter().all(|p| p.nanos == 0));
        assert_eq!(report.threads, None, "deterministic reports omit the thread count");
        // Traffic entries match the models exactly.
        let hw = TrafficModel::hw_8bit().bytes(out.report().counters());
        let entry = report
            .traffic
            .iter()
            .find(|t| t.model == "hw_8bit")
            .expect("hw entry");
        assert_eq!((entry.read_bytes, entry.written_bytes), (hw.read, hw.written));
        // Round trip.
        let back = RunReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
    }

    #[test]
    fn wallclock_report_carries_phase_nanos() {
        let img = SyntheticImage::builder(64, 48).seed(7).regions(4).build();
        let seg = Segmenter::slic_ppa(SlicParams::builder(60).iterations(3).build());
        let out = seg.run(SegmentRequest::Rgb(&img.rgb), &RunOptions::new());
        let report = build_run_report(&seg, &out, false, None, 0);
        let total: u64 = report.phases.iter().map(|p| p.nanos).sum();
        assert!(total > 0, "non-deterministic report keeps real timings");
        assert_eq!(report.threads, Some(1));
    }
}
