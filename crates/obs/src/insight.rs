//! `sslic insight`: offline analysis of the artifacts the workspace
//! already emits — JSONL traces, `RunReport` lines (including `serve`
//! streams), and `BENCH_*.json` perf seeds.
//!
//! Three views:
//! - **span attribution**: a per-span table of logical-unit and hw-cycle
//!   cost (total and self) reconstructed from `span_begin`/`span_end`
//!   pairs, plus a collapsed-stack export in the flamegraph `a;b;c N`
//!   format;
//! - **report aggregation**: counters, phase nanos, statuses, and
//!   per-stream fleet tallies summed over every report line;
//! - **bench trajectory**: a cross-PR diff of `sslic-bench-seed-v1`
//!   files that flags counter regressions and checksum drift.
//!
//! Every rendering is a pure function of the parsed inputs: integer-only
//! arithmetic, name-ordered maps, fixed column widths. Deterministic-mode
//! traces are byte-identical across thread counts, so insight output over
//! them is too — CI byte-diffs it.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::report::{RunReport, RUN_REPORT_SCHEMA};

/// Aggregated cost of one span name across every occurrence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanRow {
    /// Completed `begin`/`end` pairs.
    pub count: u64,
    /// Logical units (sequence-number deltas) inside the span, children
    /// included.
    pub total_units: u64,
    /// Logical units net of child spans.
    pub self_units: u64,
    /// Modeled hardware cycles elapsed across the span.
    pub total_cycles: u64,
}

/// Per-stream tallies folded from the fleet sections of report lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamRow {
    /// Report lines seen for this stream.
    pub reports: u64,
    /// Highest per-stream recovered tally observed.
    pub recovered: u64,
    /// Label checksum from the stream's last report line.
    pub label_checksum: u64,
}

/// Everything [`Analyzer`] extracted, ready to render.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Trace event lines ingested.
    pub events: u64,
    /// `sslic-run-report-v2` lines ingested.
    pub reports: u64,
    /// Other schema-tagged records (serve heartbeats, summaries, …) by
    /// schema name.
    pub records: Vec<(String, u64)>,
    /// Lines that parsed as nothing we know.
    pub skipped: u64,
    /// `span_end` events with no matching open span.
    pub unmatched_ends: u64,
    /// Spans left open at end of an input.
    pub unclosed_spans: u64,
    /// Span cost table, name-ordered.
    pub spans: Vec<(String, SpanRow)>,
    /// Collapsed call stacks (`a;b;c` → self units), stack-ordered.
    pub collapsed: Vec<(String, u64)>,
    /// Instant/counter event tallies by name.
    pub points: Vec<(String, u64)>,
    /// Report op counters summed across reports, name-ordered.
    pub counters: Vec<(String, u64)>,
    /// Report phase nanos summed across reports, name-ordered.
    pub phases: Vec<(String, u64)>,
    /// Report statuses tallied.
    pub statuses: Vec<(String, u64)>,
    /// Per-stream fleet tallies.
    pub streams: Vec<(u64, StreamRow)>,
}

struct OpenSpan {
    name: String,
    begin_seq: u64,
    begin_cycle: u64,
    child_units: u64,
}

/// Streaming accumulator: feed it file contents with
/// [`Analyzer::ingest`], then [`Analyzer::finish`].
#[derive(Default)]
pub struct Analyzer {
    events: u64,
    reports: u64,
    skipped: u64,
    unmatched_ends: u64,
    unclosed_spans: u64,
    records: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanRow>,
    collapsed: BTreeMap<String, u64>,
    points: BTreeMap<String, u64>,
    counters: BTreeMap<String, u64>,
    phases: BTreeMap<String, u64>,
    statuses: BTreeMap<String, u64>,
    streams: BTreeMap<u64, StreamRow>,
}

impl Analyzer {
    /// A fresh analyzer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one file's worth of JSON lines. The span stack is local to
    /// the call: each trace file gets its own tree, while tallies
    /// accumulate across calls.
    pub fn ingest(&mut self, text: &str) {
        let mut stack: Vec<OpenSpan> = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(j) = json::parse(line) else {
                self.skipped += 1;
                continue;
            };
            if let Some(schema) = j.get("schema").and_then(Json::as_str) {
                if schema == RUN_REPORT_SCHEMA {
                    match RunReport::from_json(line) {
                        Ok(r) => self.ingest_report(&r),
                        Err(_) => self.skipped += 1,
                    }
                } else {
                    *self.records.entry(schema.to_string()).or_insert(0) += 1;
                }
                continue;
            }
            let (seq, name, kind) = (
                j.get("seq").and_then(Json::as_u64),
                j.get("name").and_then(Json::as_str),
                j.get("kind").and_then(Json::as_str),
            );
            let (Some(seq), Some(name), Some(kind)) = (seq, name, kind) else {
                self.skipped += 1;
                continue;
            };
            self.events += 1;
            let cycle = j.get("hw_cycle").and_then(Json::as_u64).unwrap_or(0);
            match kind {
                "span_begin" => stack.push(OpenSpan {
                    name: name.to_string(),
                    begin_seq: seq,
                    begin_cycle: cycle,
                    child_units: 0,
                }),
                "span_end" => {
                    let matches = stack.last().is_some_and(|top| top.name == name);
                    if !matches {
                        self.unmatched_ends += 1;
                        continue;
                    }
                    let Some(open) = stack.pop() else {
                        continue;
                    };
                    let total = seq.saturating_sub(open.begin_seq);
                    let cycles = cycle.saturating_sub(open.begin_cycle);
                    let this_self = total.saturating_sub(open.child_units);
                    if let Some(parent) = stack.last_mut() {
                        parent.child_units = parent.child_units.saturating_add(total);
                    }
                    let row = self.spans.entry(open.name.clone()).or_default();
                    row.count += 1;
                    row.total_units = row.total_units.saturating_add(total);
                    row.self_units = row.self_units.saturating_add(this_self);
                    row.total_cycles = row.total_cycles.saturating_add(cycles);
                    let mut path = String::new();
                    for frame in &stack {
                        path.push_str(&frame.name);
                        path.push(';');
                    }
                    path.push_str(&open.name);
                    let slot = self.collapsed.entry(path).or_insert(0);
                    *slot = slot.saturating_add(this_self);
                }
                _ => {
                    *self.points.entry(name.to_string()).or_insert(0) += 1;
                }
            }
        }
        self.unclosed_spans += stack.len() as u64;
    }

    fn ingest_report(&mut self, r: &RunReport) {
        self.reports += 1;
        let c = &r.counters;
        for (name, v) in [
            ("distance_calcs", c.distance_calcs),
            ("pixel_color_reads", c.pixel_color_reads),
            ("dist_buffer_reads", c.dist_buffer_reads),
            ("dist_buffer_writes", c.dist_buffer_writes),
            ("label_reads", c.label_reads),
            ("label_writes", c.label_writes),
            ("center_reads", c.center_reads),
            ("sigma_updates", c.sigma_updates),
            ("center_updates", c.center_updates),
            ("sub_iterations", c.sub_iterations),
        ] {
            let slot = self.counters.entry(name.to_string()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        for p in &r.phases {
            let slot = self.phases.entry(p.name.clone()).or_insert(0);
            *slot = slot.saturating_add(p.nanos);
        }
        *self.statuses.entry(r.status.clone()).or_insert(0) += 1;
        if let Some(fl) = &r.fleet {
            let row = self.streams.entry(fl.stream).or_default();
            row.reports += 1;
            row.recovered = row.recovered.max(fl.recovered);
            row.label_checksum = fl.label_checksum;
        }
    }

    /// Freezes the accumulated state into an [`Analysis`].
    pub fn finish(self) -> Analysis {
        Analysis {
            events: self.events,
            reports: self.reports,
            records: self.records.into_iter().collect(),
            skipped: self.skipped,
            unmatched_ends: self.unmatched_ends,
            unclosed_spans: self.unclosed_spans,
            spans: self.spans.into_iter().collect(),
            collapsed: self.collapsed.into_iter().collect(),
            points: self.points.into_iter().collect(),
            counters: self.counters.into_iter().collect(),
            phases: self.phases.into_iter().collect(),
            statuses: self.statuses.into_iter().collect(),
            streams: self.streams.into_iter().collect(),
        }
    }
}

/// Renders the attribution report. Byte-stable: fixed column widths,
/// name-ordered sections, sections omitted when empty.
pub fn render(a: &Analysis) -> String {
    let mut out = String::from("== sslic insight ==\n");
    let records: u64 = a.records.iter().map(|(_, n)| n).sum();
    out.push_str(&format!(
        "inputs: events={} reports={} records={} skipped={}\n",
        a.events, a.reports, records, a.skipped
    ));
    if a.unmatched_ends != 0 || a.unclosed_spans != 0 {
        out.push_str(&format!(
            "span stream: unmatched_ends={} unclosed={}\n",
            a.unmatched_ends, a.unclosed_spans
        ));
    }
    if !a.spans.is_empty() {
        out.push_str("\nspans (logical units / hw cycles):\n");
        out.push_str(&format!(
            "  {:<28} {:>7} {:>12} {:>12} {:>12}\n",
            "name", "count", "total", "self", "cycles"
        ));
        for (name, row) in &a.spans {
            out.push_str(&format!(
                "  {:<28} {:>7} {:>12} {:>12} {:>12}\n",
                name, row.count, row.total_units, row.self_units, row.total_cycles
            ));
        }
    }
    if !a.points.is_empty() {
        out.push_str("\npoint events:\n");
        for (name, n) in &a.points {
            out.push_str(&format!("  {name:<28} {n:>7}\n"));
        }
    }
    if !a.records.is_empty() {
        out.push_str("\nrecords:\n");
        for (name, n) in &a.records {
            out.push_str(&format!("  {name:<28} {n:>7}\n"));
        }
    }
    if a.reports != 0 {
        out.push_str(&format!("\nreport counters ({} reports):\n", a.reports));
        for (name, v) in &a.counters {
            out.push_str(&format!("  {name:<28} {v:>14}\n"));
        }
        out.push_str("\nreport phases (nanos):\n");
        for (name, v) in &a.phases {
            out.push_str(&format!("  {name:<28} {v:>14}\n"));
        }
        out.push_str("\nreport statuses:\n");
        for (name, n) in &a.statuses {
            out.push_str(&format!("  {name:<28} {n:>7}\n"));
        }
    }
    if !a.streams.is_empty() {
        out.push_str("\nstreams:\n");
        for (id, row) in &a.streams {
            out.push_str(&format!(
                "  stream {:<3} reports={} recovered={} label_checksum=0x{:016x}\n",
                id, row.reports, row.recovered, row.label_checksum
            ));
        }
    }
    out
}

/// Renders the collapsed call stacks in the flamegraph-collapsed format:
/// one `frame;frame;frame count` line per stack, stack-ordered, counting
/// self logical units.
pub fn render_collapsed(a: &Analysis) -> String {
    let mut out = String::new();
    for (path, units) in &a.collapsed {
        out.push_str(&format!("{path} {units}\n"));
    }
    out
}

// --- bench trajectory -----------------------------------------------------

/// Schema tag of the committed perf seeds.
pub(crate) const BENCH_SCHEMA: &str = "sslic-bench-seed-v1";

/// One workload row of a bench seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchWorkload {
    /// Image width.
    pub width: u64,
    /// Image height.
    pub height: u64,
    /// Pinned label checksum (hex string, verbatim).
    pub label_checksum: String,
    /// Every integer counter of the workload, in file order.
    pub counters: Vec<(String, u64)>,
}

/// One parsed `sslic-bench-seed-v1` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchSeed {
    /// Display label (the file name).
    pub label: String,
    /// Config echo: algorithm name.
    pub algorithm: String,
    /// Config echo: requested superpixels.
    pub superpixels: u64,
    /// Config echo: requested iterations.
    pub iterations: u64,
    /// Per-size workloads.
    pub workloads: Vec<BenchWorkload>,
}

/// Parses a bench seed file, keeping counter order as written.
pub fn parse_bench(label: &str, text: &str) -> Result<BenchSeed, String> {
    let j = json::parse(text)?;
    let schema = j.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BENCH_SCHEMA {
        return Err(format!("{label}: unknown bench schema '{schema}'"));
    }
    let config = j
        .get("config")
        .ok_or_else(|| format!("{label}: missing 'config'"))?;
    let workloads = j
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{label}: missing 'workloads'"))?
        .iter()
        .map(|w| {
            let mut counters = Vec::new();
            if let Json::Obj(members) = w {
                for (k, v) in members {
                    if matches!(k.as_str(), "width" | "height" | "label_checksum") {
                        continue;
                    }
                    if let Some(n) = v.as_u64() {
                        counters.push((k.clone(), n));
                    }
                }
            }
            Some(BenchWorkload {
                width: w.get("width")?.as_u64()?,
                height: w.get("height")?.as_u64()?,
                label_checksum: w.get("label_checksum")?.as_str()?.to_string(),
                counters,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{label}: invalid workload entry"))?;
    Ok(BenchSeed {
        label: label.to_string(),
        algorithm: config
            .get("algorithm")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        superpixels: config.get("superpixels").and_then(Json::as_u64).unwrap_or(0),
        iterations: config.get("iterations").and_then(Json::as_u64).unwrap_or(0),
        workloads,
    })
}

/// Outcome of a cross-seed diff.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trajectory {
    /// The rendered trajectory tables.
    pub rendered: String,
    /// One line per detected regression (counter increase or checksum
    /// drift between consecutive seeds). Empty means the trajectory is
    /// clean.
    pub regressions: Vec<String>,
}

fn workload_key(w: &BenchWorkload) -> String {
    format!("{}x{}", w.width, w.height)
}

/// Diffs consecutive seeds workload-by-workload. A counter that grows
/// between seed *i* and seed *i+1* is a regression (more work for the
/// same workload); a label-checksum change is flagged too, since a seed
/// bump must be deliberate. Seeds are compared in the order given —
/// pass them oldest first.
pub fn bench_trajectory(seeds: &[BenchSeed]) -> Trajectory {
    let mut t = Trajectory::default();
    let mut out = String::from("== bench trajectory ==\n");
    out.push_str("seeds:");
    for s in seeds {
        out.push_str(&format!(" {}", s.label));
    }
    out.push('\n');
    if let Some(first) = seeds.first() {
        out.push_str(&format!(
            "config: {} superpixels={} iterations={}\n",
            first.algorithm, first.superpixels, first.iterations
        ));
        for s in &seeds[1..] {
            if (s.algorithm.as_str(), s.superpixels, s.iterations)
                != (first.algorithm.as_str(), first.superpixels, first.iterations)
            {
                out.push_str(&format!(
                    "note: {} ran a different config ({} superpixels={} iterations={}); \
                     counters compared anyway\n",
                    s.label, s.algorithm, s.superpixels, s.iterations
                ));
            }
        }
    }
    // Workload keys in order of first appearance across all seeds.
    let mut keys: Vec<String> = Vec::new();
    for s in seeds {
        for w in &s.workloads {
            let k = workload_key(w);
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    for key in &keys {
        out.push_str(&format!("\nworkload {key}:\n"));
        let per_seed: Vec<Option<&BenchWorkload>> = seeds
            .iter()
            .map(|s| s.workloads.iter().find(|w| &workload_key(w) == key))
            .collect();
        // Counter names in order of first appearance.
        let mut names: Vec<&str> = Vec::new();
        for w in per_seed.iter().flatten() {
            for (n, _) in &w.counters {
                if !names.contains(&n.as_str()) {
                    names.push(n);
                }
            }
        }
        out.push_str(&format!("  {:<22}", "counter"));
        for s in seeds {
            out.push_str(&format!(" {:>14}", s.label));
        }
        out.push_str("  trend\n");
        for name in &names {
            out.push_str(&format!("  {name:<22}"));
            let mut prev: Option<(usize, u64)> = None;
            let mut trend = '=';
            for (i, w) in per_seed.iter().enumerate() {
                let v = w.and_then(|w| {
                    w.counters
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|&(_, v)| v)
                });
                match v {
                    Some(v) => {
                        out.push_str(&format!(" {v:>14}"));
                        if let Some((pi, pv)) = prev {
                            if v > pv {
                                trend = if trend == 'v' { '~' } else { '^' };
                                t.regressions.push(format!(
                                    "{key} {name}: {pv} -> {v} ({} -> {})",
                                    seeds[pi].label, seeds[i].label
                                ));
                            } else if v < pv {
                                trend = if trend == '^' { '~' } else { 'v' };
                            }
                        }
                        prev = Some((i, v));
                    }
                    None => out.push_str(&format!(" {:>14}", "-")),
                }
            }
            out.push_str(&format!("  {trend}\n"));
        }
        // Checksum drift between consecutive present seeds.
        out.push_str(&format!("  {:<22}", "label_checksum"));
        let mut prev: Option<(usize, &str)> = None;
        let mut trend = '=';
        for (i, w) in per_seed.iter().enumerate() {
            match w {
                Some(w) => {
                    out.push_str(&format!(" {:>14}", shorten(&w.label_checksum)));
                    if let Some((pi, pc)) = prev {
                        if pc != w.label_checksum {
                            trend = '!';
                            t.regressions.push(format!(
                                "{key} label_checksum changed: {pc} ({}) -> {} ({})",
                                seeds[pi].label, w.label_checksum, seeds[i].label
                            ));
                        }
                    }
                    prev = Some((i, &w.label_checksum));
                }
                None => out.push_str(&format!(" {:>14}", "-")),
            }
        }
        out.push_str(&format!("  {trend}\n"));
    }
    if t.regressions.is_empty() {
        out.push_str("\nregressions: none\n");
    } else {
        out.push_str(&format!("\nregressions: {}\n", t.regressions.len()));
        for r in &t.regressions {
            out.push_str(&format!("  {r}\n"));
        }
    }
    t.rendered = out;
    t
}

/// Shortens a hex checksum to fit a table column (`0xfe8398dba3457c21` →
/// `0xfe83..7c21`).
fn shorten(cs: &str) -> String {
    if cs.len() <= 14 {
        cs.to_string()
    } else {
        let head: String = cs.chars().take(6).collect();
        let tail_len = cs.chars().count().saturating_sub(4);
        let tail: String = cs.chars().skip(tail_len).collect();
        format!("{head}..{tail}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, name: &str, kind: &str, cycle: u64) -> String {
        format!(
            "{{\"seq\":{seq},\"name\":\"{name}\",\"kind\":\"{kind}\",\"iter\":0,\
             \"band\":null,\"hw_cycle\":{cycle},\"attrs\":{{}}}}"
        )
    }

    #[test]
    fn span_tree_attribution_splits_self_from_children() {
        let trace = [
            line(0, "run", "span_begin", 0),
            line(1, "step", "span_begin", 100),
            line(2, "tick", "instant", 150),
            line(3, "step", "span_end", 400),
            line(4, "step", "span_begin", 400),
            line(5, "step", "span_end", 500),
            line(10, "run", "span_end", 900),
        ]
        .join("\n");
        let mut an = Analyzer::new();
        an.ingest(&trace);
        let a = an.finish();
        assert_eq!(a.events, 7);
        let run = &a.spans.iter().find(|(n, _)| n == "run").expect("run").1;
        assert_eq!(run.count, 1);
        assert_eq!(run.total_units, 10);
        assert_eq!(run.self_units, 10 - (2 + 1)); // two child spans of 2 and 1
        assert_eq!(run.total_cycles, 900);
        let step = &a.spans.iter().find(|(n, _)| n == "step").expect("step").1;
        assert_eq!(step.count, 2);
        assert_eq!(step.total_units, 3);
        assert_eq!(step.total_cycles, 300 + 100);
        assert_eq!(a.points, vec![("tick".to_string(), 1)]);
        assert_eq!(
            a.collapsed,
            vec![("run".to_string(), 7), ("run;step".to_string(), 3)]
        );
        let folded = render_collapsed(&a);
        assert_eq!(folded, "run 7\nrun;step 3\n");
    }

    #[test]
    fn malformed_and_unmatched_lines_are_tallied_not_fatal() {
        let trace = [
            "not json at all".to_string(),
            "{\"seq\":0}".to_string(),
            line(1, "b", "span_end", 0),
            line(2, "a", "span_begin", 0),
        ]
        .join("\n");
        let mut an = Analyzer::new();
        an.ingest(&trace);
        let a = an.finish();
        assert_eq!(a.skipped, 2);
        assert_eq!(a.unmatched_ends, 1);
        assert_eq!(a.unclosed_spans, 1);
        assert!(render(&a).contains("unmatched_ends=1 unclosed=1"));
    }

    #[test]
    fn span_stacks_do_not_leak_across_files() {
        let mut an = Analyzer::new();
        an.ingest(&line(0, "a", "span_begin", 0));
        an.ingest(&line(5, "a", "span_end", 0));
        let a = an.finish();
        // The dangling end in file 2 must not close file 1's span.
        assert_eq!(a.unclosed_spans, 1);
        assert_eq!(a.unmatched_ends, 1);
        assert!(a.spans.is_empty());
    }

    #[test]
    fn report_lines_aggregate_counters_phases_and_streams() {
        let mk = |stream: u64, dc: u64| {
            format!(
                "{{\"schema\":\"{RUN_REPORT_SCHEMA}\",\"algorithm\":\"ppa\",\"width\":160,\
                 \"height\":120,\"superpixels\":150,\"iterations\":3,\"subsets\":2,\
                 \"threads\":1,\"compactness\":10,\"distance_mode\":\"quantized\",\
                 \"iterations_run\":3,\"status\":\"ok\",\"repairs\":0,\"injected_words\":0,\
                 \"recovery\":{{\"guards_fired\":0,\"retries\":0,\"escalations\":0,\
                 \"outcome\":\"clean\",\"center_checksum\":0}},\
                 \"fleet\":{{\"stream\":{stream},\"frames\":1,\"recovered\":0,\
                 \"queue_depth\":0,\"rejected\":0,\"label_checksum\":7}},\
                 \"counters\":{{\"distance_calcs\":{dc},\"pixel_color_reads\":1,\
                 \"dist_buffer_reads\":0,\"dist_buffer_writes\":0,\"label_reads\":0,\
                 \"label_writes\":0,\"center_reads\":0,\"sigma_updates\":0,\
                 \"center_updates\":0,\"sub_iterations\":3}},\
                 \"phases\":[{{\"name\":\"init\",\"nanos\":5}}],\"histograms\":[],\
                 \"traffic\":[]}}"
            )
        };
        let mixed = format!(
            "{}\n{}\n{{\"schema\":\"sslic-serve-summary-v2\",\"frames\":2}}\n",
            mk(0, 100),
            mk(1, 50)
        );
        let mut an = Analyzer::new();
        an.ingest(&mixed);
        let a = an.finish();
        assert_eq!(a.reports, 2);
        assert_eq!(a.records, vec![("sslic-serve-summary-v2".to_string(), 1)]);
        let dc = a
            .counters
            .iter()
            .find(|(n, _)| n == "distance_calcs")
            .expect("dc");
        assert_eq!(dc.1, 150);
        assert_eq!(a.phases, vec![("init".to_string(), 10)]);
        assert_eq!(a.statuses, vec![("ok".to_string(), 2)]);
        assert_eq!(a.streams.len(), 2);
        let text = render(&a);
        assert!(text.contains("report counters (2 reports):"));
        assert!(text.contains("stream 0"));
        assert!(text.contains("label_checksum=0x0000000000000007"));
    }

    fn seed(label: &str, dc: u64, checksum: &str) -> BenchSeed {
        let text = format!(
            "{{\"schema\":\"sslic-bench-seed-v1\",\
             \"config\":{{\"algorithm\":\"sslic_ppa\",\"subsets\":2,\
             \"distance\":\"quantized8\",\"superpixels\":150,\"iterations\":5,\"seed\":2024}},\
             \"workloads\":[{{\"width\":160,\"height\":120,\
             \"label_checksum\":\"{checksum}\",\"distance_calcs\":{dc},\
             \"label_writes\":48000}}]}}"
        );
        parse_bench(label, &text).expect("seed parses")
    }

    #[test]
    fn bench_parse_keeps_counter_order() {
        let s = seed("B7", 432000, "0xfe8398dba3457c21");
        assert_eq!(s.algorithm, "sslic_ppa");
        assert_eq!(s.workloads.len(), 1);
        assert_eq!(
            s.workloads[0].counters,
            vec![
                ("distance_calcs".to_string(), 432000),
                ("label_writes".to_string(), 48000)
            ]
        );
    }

    #[test]
    fn bench_parse_rejects_wrong_schema() {
        assert!(parse_bench("x", "{\"schema\":\"nope\"}").is_err());
    }

    #[test]
    fn trajectory_flags_counter_regressions_and_checksum_drift() {
        let clean = bench_trajectory(&[
            seed("B7", 432000, "0xaa"),
            seed("B8", 432000, "0xaa"),
        ]);
        assert!(clean.regressions.is_empty());
        assert!(clean.rendered.contains("regressions: none"));

        let worse = bench_trajectory(&[
            seed("B7", 432000, "0xaa"),
            seed("B8", 500000, "0xbb"),
        ]);
        assert_eq!(worse.regressions.len(), 2);
        assert!(worse.regressions[0].contains("distance_calcs: 432000 -> 500000"));
        assert!(worse.regressions[1].contains("label_checksum changed"));
        assert!(worse.rendered.contains("  ^\n"));
        assert!(worse.rendered.contains("  !\n"));

        // Improvements are not regressions.
        let better = bench_trajectory(&[
            seed("B7", 432000, "0xaa"),
            seed("B8", 400000, "0xaa"),
        ]);
        assert!(better.regressions.is_empty());
        assert!(better.rendered.contains("  v\n"));
    }

    #[test]
    fn trajectory_rendering_is_deterministic() {
        let seeds = [seed("B7", 1, "0xaa"), seed("B8", 2, "0xbb")];
        assert_eq!(
            bench_trajectory(&seeds).rendered,
            bench_trajectory(&seeds).rendered
        );
    }
}
