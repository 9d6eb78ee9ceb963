//! Optional event tracing.
//!
//! When enabled ([`crate::Kernel::enable_tracing`]), the kernel appends one
//! [`TraceEntry`] per dispatched event and keeps every entry: a trace is
//! either off or complete. Tests use traces to assert determinism (two runs
//! with the same seed must produce identical traces) and to debug protocol
//! interleavings. The bounded recorder of recent dispatches is the
//! [`crate::FlightRecorder`].

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// The kind of dispatched event recorded in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A message delivery; `a` is the sender, `b` the payload discriminant.
    Message,
    /// A timer expiration; `a` is unused, `b` the tag.
    Timer,
}

/// One dispatched event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Dispatch instant.
    pub time: SimTime,
    /// Receiving actor.
    pub target: usize,
    /// Message or timer.
    pub kind: TraceKind,
    /// Sender (messages) — unused for timers.
    pub a: usize,
    /// Payload discriminant (messages) or tag (timers).
    pub b: u64,
}

/// The kernel's event trace buffer: disabled (the default) or keeping
/// every entry.
#[derive(Debug, Default)]
pub(crate) struct Tracer {
    enabled: bool,
    entries: Vec<TraceEntry>,
}

impl Tracer {
    /// A disabled tracer (records nothing).
    pub(crate) fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer that keeps every entry.
    pub(crate) fn enabled() -> Self {
        Tracer {
            enabled: true,
            entries: Vec::new(),
        }
    }

    /// Whether recording is on.
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one entry (a no-op when disabled).
    pub(crate) fn record(&mut self, entry: TraceEntry) {
        if self.enabled {
            self.entries.push(entry);
        }
    }

    /// Every recorded entry, in dispatch order.
    pub(crate) fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(t: u64) -> TraceEntry {
        TraceEntry {
            time: SimTime::from_ticks(t),
            target: 0,
            kind: TraceKind::Timer,
            a: 0,
            b: t,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.record(entry(1));
        assert!(tr.entries().is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn enabled_records_in_order() {
        let mut tr = Tracer::enabled();
        tr.record(entry(1));
        tr.record(entry(2));
        assert_eq!(tr.entries().len(), 2);
        assert_eq!(tr.entries()[1].b, 2);
    }
}
