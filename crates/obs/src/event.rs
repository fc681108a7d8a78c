//! The span/event model.
//!
//! A trace is a flat, append-only sequence of [`Event`]s, each stamped
//! with a [`LogicalClock`] and a recorder-assigned sequence number. Spans
//! are begin/end event pairs matched by name; instants and counter samples
//! are single events. Attribute values are integers, booleans, or strings
//! only — floats are deliberately absent from the event model so that a
//! deterministic-mode trace has exactly one byte representation.

use crate::clock::LogicalClock;

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Start of a named span (matched with the next [`EventKind::SpanEnd`]
    /// of the same name).
    SpanBegin,
    /// End of a named span.
    SpanEnd,
    /// A point-in-time occurrence.
    Instant,
    /// A sampled counter value (rendered as a Chrome counter track).
    Counter,
}

impl EventKind {
    /// Stable lowercase name used by the sinks.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Instant => "instant",
            EventKind::Counter => "counter",
        }
    }
}

/// An attribute value. Integer, boolean, or string — never floating
/// point (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned integer (counters, byte counts, cycle counts).
    U64(u64),
    /// Signed integer (gauges, deltas).
    I64(i64),
    /// Boolean flag.
    Bool(bool),
    /// Short string (names, statuses).
    Str(String),
}

impl Value {
    /// The unsigned payload, if this is a [`Value::U64`].
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Recorder-assigned monotonic sequence number (the trace order).
    pub seq: u64,
    /// Logical coordinates of the moment described.
    pub clock: LogicalClock,
    /// Record kind.
    pub kind: EventKind,
    /// Event name, dot-namespaced by subsystem (`core.step`,
    /// `hw.dma.stream`, `fault.inject.centers`, …).
    pub name: &'static str,
    /// Attributes, in emission order.
    pub attrs: Vec<(&'static str, Value)>,
}

impl Event {
    /// Looks up an attribute by key.
    pub(crate) fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Convenience: an attribute's unsigned payload, 0 when absent or not
    /// a [`Value::U64`].
    pub fn attr_u64(&self, key: &str) -> u64 {
        self.attr(key).and_then(Value::as_u64).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_lookup_finds_values_by_key() {
        let e = Event {
            seq: 0,
            clock: LogicalClock::ZERO,
            kind: EventKind::Instant,
            name: "t",
            attrs: vec![("pixels", Value::U64(10)), ("tag", Value::from("x"))],
        };
        assert_eq!(e.attr_u64("pixels"), 10);
        assert_eq!(e.attr("tag"), Some(&Value::Str("x".into())));
        assert_eq!(e.attr_u64("missing"), 0);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::SpanBegin.name(), "span_begin");
        assert_eq!(EventKind::Counter.name(), "counter");
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(3u64).as_u64(), Some(3));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(-2i64), Value::I64(-2));
    }
}
