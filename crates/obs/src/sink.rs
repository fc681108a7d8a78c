//! Trace sinks: JSON-lines and Chrome trace-event format. `sslic insight`
//! renders the human view of a JSONL trace.
//!
//! Serialization is hand-rolled (the workspace is zero-dependency) and
//! fully deterministic: attribute order is emission order, map iteration
//! is name-ordered, and no floating-point formatting is involved anywhere
//! on the deterministic path.

use crate::clock::NO_BAND;
use crate::event::{Event, EventKind, Value};

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let code = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (code >> shift) & 0xf;
                    let ch = char::from_digit(digit, 16).unwrap_or('0');
                    out.push(ch);
                }
            }
            c => out.push(c),
        }
    }
    out
}

fn value_json(v: &Value) -> String {
    match v {
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Str(s) => format!("\"{}\"", escape_json(s)),
    }
}

fn attrs_json(attrs: &[(&'static str, Value)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape_json(k), value_json(v)));
    }
    out.push('}');
    out
}

/// Renders events as JSON lines: one self-contained JSON object per line,
/// in sequence order. This is the format the CI determinism gate
/// byte-diffs.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        let band = if e.clock.band == NO_BAND {
            "null".to_string()
        } else {
            e.clock.band.to_string()
        };
        out.push_str(&format!(
            "{{\"seq\":{},\"name\":\"{}\",\"kind\":\"{}\",\"iter\":{},\"band\":{},\"hw_cycle\":{},\"attrs\":{}}}\n",
            e.seq,
            escape_json(e.name),
            e.kind.name(),
            e.clock.iteration,
            band,
            e.clock.hw_cycle,
            attrs_json(&e.attrs),
        ));
    }
    out
}

/// Track id for the Chrome view: run/step-level events share track 1,
/// band-scoped events get their own track per band.
fn chrome_tid(e: &Event) -> u64 {
    if e.clock.band == NO_BAND {
        1
    } else {
        u64::from(e.clock.band) + 2
    }
}

/// Renders events in Chrome trace-event format (the JSON-object form:
/// `{"traceEvents":[...]}`), loadable in Perfetto or `chrome://tracing`.
///
/// Timestamps are the recorder sequence numbers — logical microseconds —
/// so the rendered timeline shows causal order, not wall time, and the
/// bytes are stable across runs.
pub fn to_chrome_trace(events: &[Event]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match e.kind {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Instant => "i",
            EventKind::Counter => "C",
        };
        let mut args = String::from("{");
        args.push_str(&format!("\"iter\":{}", e.clock.iteration));
        if e.clock.band != NO_BAND {
            args.push_str(&format!(",\"band\":{}", e.clock.band));
        }
        if e.clock.hw_cycle != 0 {
            args.push_str(&format!(",\"hw_cycle\":{}", e.clock.hw_cycle));
        }
        for (k, v) in &e.attrs {
            args.push_str(&format!(",\"{}\":{}", escape_json(k), value_json(v)));
        }
        args.push('}');
        let scope = if e.kind == EventKind::Instant {
            ",\"s\":\"t\""
        } else {
            ""
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}{},\"args\":{}}}",
            escape_json(e.name),
            ph,
            e.seq,
            chrome_tid(e),
            scope,
            args,
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::LogicalClock;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                seq: 0,
                clock: LogicalClock::ZERO,
                kind: EventKind::SpanBegin,
                name: "core.run",
                attrs: vec![("pixels", Value::U64(100))],
            },
            Event {
                seq: 1,
                clock: LogicalClock::band(0, 2),
                kind: EventKind::Instant,
                name: "core.assign.band",
                attrs: vec![("rows", Value::U64(12)), ("tag", Value::from("a\"b"))],
            },
            Event {
                seq: 2,
                clock: LogicalClock::ZERO,
                kind: EventKind::SpanEnd,
                name: "core.run",
                attrs: vec![],
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let s = to_jsonl(&sample_events());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"seq\":0,"));
        assert!(lines[0].contains("\"band\":null"));
        assert!(lines[1].contains("\"band\":2"));
        assert!(lines[1].contains("\\\"")); // quote escaped in attr
    }

    #[test]
    fn chrome_trace_has_expected_shape() {
        let s = to_chrome_trace(&sample_events());
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.trim_end().ends_with("]}"));
        assert!(s.contains("\"ph\":\"B\""));
        assert!(s.contains("\"ph\":\"E\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"s\":\"t\"")); // instant scope
        assert!(s.contains("\"tid\":4")); // band 2 → tid 4
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(escape_json("a\nb"), "a\\nb");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("q\"\\"), "q\\\"\\\\");
    }
}
