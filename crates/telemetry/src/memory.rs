//! In-memory recorder for tests and tools.

use crate::event::EventKind;
use crate::recorder::Recorder;
use crate::summary::{SummaryBuilder, TelemetrySummary};
use std::sync::Mutex;

/// A recorder that only aggregates, never writes.
///
/// Useful in tests (`assert_eq!(rec.summary().counter_total(..), ..)`) and
/// anywhere a summary is wanted without a JSONL file.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    builder: Mutex<SummaryBuilder>,
}

impl MemoryRecorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    #[must_use]
    pub fn summary(&self) -> TelemetrySummary {
        self.builder
            .lock()
            .expect("telemetry lock poisoned")
            .build()
    }

    fn apply(&self, kind: EventKind, name: &str, value: f64) {
        self.builder
            .lock()
            .expect("telemetry lock poisoned")
            .apply(kind, name, value);
    }
}

impl Recorder for MemoryRecorder {
    fn counter(&self, name: &str, delta: u64) {
        self.apply(EventKind::Counter, name, delta as f64);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.apply(EventKind::Gauge, name, value);
    }

    fn histogram(&self, name: &str, value: f64) {
        self.apply(EventKind::Histogram, name, value);
    }

    fn span_seconds(&self, name: &str, seconds: f64) {
        self.apply(EventKind::Span, name, seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_aggregates_counters_and_gauges() {
        let rec = MemoryRecorder::new();
        rec.counter("c", 1);
        rec.counter("c", 4);
        rec.gauge("g", 2.5);
        rec.histogram("h", 10.0);
        let s = rec.summary();
        assert_eq!(s.counter_total("c"), Some(5));
        assert_eq!(s.gauge("g").map(|g| g.last), Some(2.5));
        assert_eq!(s.histogram("h").map(|h| h.count), Some(1));
    }

    #[test]
    fn summary_is_a_snapshot() {
        let rec = MemoryRecorder::new();
        rec.counter("c", 1);
        let before = rec.summary();
        rec.counter("c", 1);
        assert_eq!(before.counter_total("c"), Some(1));
        assert_eq!(rec.summary().counter_total("c"), Some(2));
    }
}
