//! The [`Recorder`] sink trait, the zero-cost [`NullRecorder`], and RAII
//! span timing.

use crate::event::SpanContext;
use std::time::Instant;

/// A sink for telemetry signals.
///
/// Implementations must be cheap and infallible: recording never returns
/// errors to the instrumented code (I/O problems are surfaced when the
/// recorder is finished/flushed), and the simulation must behave identically
/// whatever recorder is plugged in.
///
/// The trait is object-safe; the simulation layers hold `&dyn Recorder` or
/// `Arc<dyn Recorder>`.
pub trait Recorder: Send + Sync {
    /// `false` if every signal is discarded, letting instrumentation skip
    /// argument construction and clock reads. [`NullRecorder`] returns
    /// `false`; real sinks return `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);

    /// Records the current value of a named gauge.
    fn gauge(&self, name: &str, value: f64);

    /// Records one observation into the named log-bucketed histogram.
    fn histogram(&self, name: &str, value: f64);

    /// Records one completed span of `seconds` wall-clock duration.
    ///
    /// Usually called by [`SpanGuard`] on drop rather than directly.
    fn span_seconds(&self, name: &str, seconds: f64);

    /// Replaces the causal context stamped onto subsequent signals.
    ///
    /// Stream-oriented sinks ([`JsonlRecorder`](crate::JsonlRecorder),
    /// [`BufferRecorder`](crate::BufferRecorder)) attach the context to every
    /// following event; aggregating sinks key by name only and use the
    /// default no-op.
    fn set_context(&self, _ctx: SpanContext) {}
}

/// Extension methods available on every recorder, including `dyn Recorder`.
pub trait RecorderExt: Recorder {
    /// Starts an RAII timer: the span is recorded (via
    /// [`Recorder::span_seconds`]) when the guard drops. When the recorder
    /// is disabled the guard is inert and never reads the clock.
    fn span<'a>(&'a self, name: &'a str) -> SpanGuard<'a, Self> {
        SpanGuard {
            recorder: self,
            name,
            start: if self.enabled() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }
}

impl<R: Recorder + ?Sized> RecorderExt for R {}

/// RAII timer returned by [`RecorderExt::span`].
///
/// Dropping the guard records the elapsed wall-clock time. Use
/// [`SpanGuard::cancel`] to abandon a measurement.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard<'a, R: Recorder + ?Sized> {
    recorder: &'a R,
    name: &'a str,
    start: Option<Instant>,
}

impl<R: Recorder + ?Sized> SpanGuard<'_, R> {
    /// Drops the guard without recording anything.
    pub fn cancel(mut self) {
        self.start = None;
    }
}

impl<R: Recorder + ?Sized> Drop for SpanGuard<'_, R> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            self.recorder
                .span_seconds(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// The do-nothing default recorder.
///
/// All methods are empty and `enabled()` is `false`, so instrumented hot
/// loops run at uninstrumented speed (held within 2% by a release-only
/// timing gate in `hayat-bench`'s `tests/perf_gates.rs`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn counter(&self, _name: &str, _delta: u64) {}

    #[inline]
    fn gauge(&self, _name: &str, _value: f64) {}

    #[inline]
    fn histogram(&self, _name: &str, _value: f64) {}

    #[inline]
    fn span_seconds(&self, _name: &str, _seconds: f64) {}
}

/// A shared static instance for default wiring (`&NULL_RECORDER` coerces to
/// `&'static dyn Recorder`).
pub static NULL_RECORDER: NullRecorder = NullRecorder;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryRecorder;

    #[test]
    fn null_recorder_span_never_reads_clock() {
        let guard = NullRecorder.span("x");
        assert!(guard.start.is_none());
        drop(guard);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let rec = MemoryRecorder::new();
        {
            let _g = rec.span("timed");
        }
        assert_eq!(rec.summary().span("timed").map(|s| s.count), Some(1));
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let rec = MemoryRecorder::new();
        rec.span("skipped").cancel();
        assert!(rec.summary().span("skipped").is_none());
    }

    #[test]
    fn works_through_dyn_reference() {
        let rec = MemoryRecorder::new();
        let dyn_rec: &dyn Recorder = &rec;
        {
            let _g = dyn_rec.span("dyn");
            dyn_rec.counter("c", 3);
        }
        let summary = rec.summary();
        assert_eq!(summary.span("dyn").map(|s| s.count), Some(1));
        assert_eq!(summary.counter_total("c"), Some(3));
    }
}
