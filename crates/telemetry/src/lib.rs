//! # hayat-telemetry
//!
//! Spans, counters, gauges and JSONL event streams for the Hayat simulation
//! stack.
//!
//! The paper's headline claims — aging deceleration, DTM-event reduction,
//! sub-millisecond decision overhead (Section VII) — are all *run-time*
//! quantities. This crate gives every layer of the reproduction a way to
//! emit them without coupling to any output format:
//!
//! * [`Recorder`] — the sink trait: `counter`, `gauge`, `histogram`, and
//!   RAII [`span`](RecorderExt::span) timers built on [`std::time::Instant`].
//! * [`NullRecorder`] — the zero-cost default. Its `enabled()` is `false`,
//!   so span guards skip the clock reads entirely; every other method is an
//!   empty inlineable body.
//! * [`JsonlRecorder`] — buffered writer streaming one JSON event per line,
//!   aggregating a [`TelemetrySummary`] on the side.
//! * [`MemoryRecorder`] — in-memory aggregation only, for tests and tools.
//! * [`BufferRecorder`] — ordered in-memory capture with
//!   [`replay_into`](BufferRecorder::replay_into), used by the parallel
//!   campaign executor to merge per-worker streams deterministically.
//! * [`TelemetrySummary`] — end-of-run per-span `count/total/p50/p99`,
//!   counter totals and gauge extrema, renderable as a text table or
//!   recovered from a JSONL stream with
//!   [`TelemetrySummary::from_jsonl`] (malformed lines are skipped and
//!   counted, so truncated streams still summarize). Its
//!   [`phase_profile`](TelemetrySummary::phase_profile) attributes wall
//!   time to simulation phases (thermal solve, policy decision, aging
//!   advance, checkpoint I/O) flamegraph-style.
//! * [`SpanContext`] — causal `run`/`chip`/`epoch`/`worker` fields stamped
//!   onto events via [`Recorder::set_context`], making JSONL streams from a
//!   parallel campaign joinable.
//! * [`FleetStats`] — mergeable online statistics sketches (Welford
//!   moments + [`LogHistogram`] quantiles) per tracked fleet series, with a
//!   compact serializable [`FleetSummary`] behind `--fleet-stats`.
//!
//! ## Example
//!
//! ```
//! use hayat_telemetry::{MemoryRecorder, Recorder, RecorderExt};
//!
//! let recorder = MemoryRecorder::new();
//! {
//!     let _epoch = recorder.span("engine.epoch");
//!     recorder.counter("dtm.migrations", 2);
//!     recorder.gauge("threads.unplaced", 0.0);
//! }
//! let summary = recorder.summary();
//! assert_eq!(summary.counter_total("dtm.migrations"), Some(2));
//! assert_eq!(summary.span("engine.epoch").map(|s| s.count), Some(1));
//! println!("{}", summary.render_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod event;
mod fleet;
mod histogram;
mod jsonl;
mod memory;
mod recorder;
mod summary;

pub use buffer::BufferRecorder;
pub use event::{EventKind, SpanContext, TelemetryEvent};
pub use fleet::{FleetStats, FleetSummary, SeriesSketch, SeriesStats};
pub use histogram::LogHistogram;
pub use jsonl::JsonlRecorder;
pub use memory::MemoryRecorder;
pub use recorder::{NullRecorder, Recorder, RecorderExt, SpanGuard, NULL_RECORDER};
pub use summary::{
    CounterStats, GaugeStats, HistogramStats, PhaseProfile, PhaseStats, SpanStats, TelemetrySummary,
};
