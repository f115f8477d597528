//! `SpanTape`: the benchmark's in-memory trace.
//!
//! It holds two kinds of record. The benchmark's own spans time its calls
//! into the program and carry a start, an end and the span that caused
//! them. The program's signals arrive through the `Recorder` interface the
//! simulator already emits into: span durations stamped with the causal
//! `SpanContext` current at the time, counter totals and gauge readings.
//! Nothing is written until `write_jsonl`, after the measurement.

use crate::report::{map, to_json};
use hayat_telemetry::{Recorder, SpanContext};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of one of the benchmark's own spans on its tape.
pub type SpanId = usize;

pub struct SpanTape {
    origin: Instant,
    inner: Mutex<Tape>,
}

#[derive(Default)]
struct Tape {
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    /// Every context the program set, in order; program spans point into it.
    contexts: Vec<SpanContext>,
    program: Vec<ProgramSpan>,
    counters: BTreeMap<String, u64>,
    gauges: Vec<(String, f64, u32)>,
    own: Vec<OwnSpan>,
}

/// Kept to 16 bytes: a paper-scale traced rep records over a million
/// thermal steps.
struct ProgramSpan {
    name: u32,
    context: u32,
    seconds: f64,
}

struct OwnSpan {
    name: &'static str,
    parent: Option<SpanId>,
    start_s: f64,
    end_s: Option<f64>,
}

impl Tape {
    fn name_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 signal names");
        self.names.push(name.to_owned());
        self.name_ids.insert(name.to_owned(), id);
        id
    }

    fn context_id(&mut self) -> u32 {
        if self.contexts.is_empty() {
            self.contexts.push(SpanContext::default());
        }
        u32::try_from(self.contexts.len() - 1).expect("fewer than 2^32 contexts")
    }
}

impl SpanTape {
    pub fn new() -> Self {
        SpanTape {
            origin: Instant::now(),
            inner: Mutex::new(Tape::default()),
        }
    }

    fn tape(&self) -> std::sync::MutexGuard<'_, Tape> {
        self.inner
            .lock()
            .expect("no thread panics while holding the tape")
    }

    /// Opens one of the benchmark's own spans, starting now.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start_s = self.origin.elapsed().as_secs_f64();
        let mut tape = self.tape();
        tape.own.push(OwnSpan {
            name,
            parent,
            start_s,
            end_s: None,
        });
        tape.own.len() - 1
    }

    /// Closes an open span, ending now.
    pub fn close(&self, id: SpanId) {
        let end_s = self.origin.elapsed().as_secs_f64();
        self.tape().own[id].end_s = Some(end_s);
    }

    /// Durations of the benchmark's own closed spans called `name`.
    pub fn own_seconds(&self, name: &str) -> Vec<f64> {
        self.tape()
            .own
            .iter()
            .filter(|span| span.name == name)
            .filter_map(|span| span.end_s.map(|end| end - span.start_s))
            .collect()
    }

    /// Durations of the program's spans whose name satisfies `select`.
    pub fn program_seconds(&self, select: impl Fn(&str) -> bool) -> Vec<f64> {
        let tape = self.tape();
        let chosen: Vec<bool> = tape.names.iter().map(|n| select(n)).collect();
        tape.program
            .iter()
            .filter(|span| chosen[span.name as usize])
            .map(|span| span.seconds)
            .collect()
    }

    /// Total of a program counter (0 when never incremented).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.tape().counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of every reading of a program gauge.
    pub fn gauge_sum(&self, name: &str) -> f64 {
        self.tape()
            .gauges
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, value, _)| value)
            .sum()
    }

    /// Writes the tape as JSON lines: every own span, the program's spans
    /// folded per (name, context) into a count and a total, then counters
    /// and gauges.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let tape = self.tape();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = |fields: Vec<(&str, Value)>| -> std::io::Result<()> {
            writeln!(out, "{}", to_json(map(fields), false))
        };
        for (id, span) in tape.own.iter().enumerate() {
            line(vec![
                ("span", Value::Str(span.name.to_owned())),
                ("id", id.to_value()),
                ("parent", span.parent.to_value()),
                ("start_s", Value::Float(span.start_s)),
                ("end_s", span.end_s.to_value()),
            ])?;
        }
        let mut folded: BTreeMap<(u32, u32), (u64, f64)> = BTreeMap::new();
        for span in &tape.program {
            let entry = folded.entry((span.name, span.context)).or_default();
            entry.0 += 1;
            entry.1 += span.seconds;
        }
        for ((name, context), (count, total)) in folded {
            line(vec![
                (
                    "program_span",
                    Value::Str(tape.names[name as usize].clone()),
                ),
                ("ctx", tape.contexts[context as usize].to_value()),
                ("count", count.to_value()),
                ("total_s", Value::Float(total)),
            ])?;
        }
        for (name, total) in &tape.counters {
            line(vec![
                ("counter", Value::Str(name.clone())),
                ("total", total.to_value()),
            ])?;
        }
        for (name, value, context) in &tape.gauges {
            line(vec![
                ("gauge", Value::Str(name.clone())),
                ("ctx", tape.contexts[*context as usize].to_value()),
                ("value", Value::Float(*value)),
            ])?;
        }
        out.flush()
    }
}

impl Recorder for SpanTape {
    fn counter(&self, name: &str, delta: u64) {
        *self.tape().counters.entry(name.to_owned()).or_default() += delta;
    }

    fn gauge(&self, name: &str, value: f64) {
        let mut tape = self.tape();
        let context = tape.context_id();
        tape.gauges.push((name.to_owned(), value, context));
    }

    /// Histograms are not kept: the layers the benchmark reports are built
    /// from span durations and counters.
    fn histogram(&self, _name: &str, _value: f64) {}

    fn span_seconds(&self, name: &str, seconds: f64) {
        let mut tape = self.tape();
        let name = tape.name_id(name);
        let context = tape.context_id();
        tape.program.push(ProgramSpan {
            name,
            context,
            seconds,
        });
    }

    fn set_context(&self, ctx: SpanContext) {
        let mut tape = self.tape();
        if tape.contexts.last() != Some(&ctx) {
            tape.contexts.push(ctx);
        }
    }
}

/// Runs `f` inside one of the benchmark's own spans when a tape is present;
/// `f` receives the span's id to parent the spans it opens.
pub fn traced<T>(
    tape: Option<&SpanTape>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    let id = tape.map(|tape| tape.open(name, parent));
    let out = f(id);
    if let (Some(tape), Some(id)) = (tape, id) {
        tape.close(id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_spans_carry_the_context_current_when_they_ended() {
        let tape = SpanTape::new();
        tape.span_seconds("before", 1.0);
        let ctx = SpanContext {
            run: Some(3),
            ..SpanContext::default()
        };
        tape.set_context(ctx);
        tape.span_seconds("policy.hayat.decision", 0.25);
        tape.span_seconds("policy.hayat.decision", 0.5);
        tape.counter("dtm.migrations", 2);
        tape.counter("dtm.migrations", 3);
        tape.gauge("campaign.worker_busy_seconds", 1.5);
        tape.gauge("campaign.worker_busy_seconds", 2.0);

        assert_eq!(
            tape.program_seconds(|n| n.ends_with(".decision")),
            vec![0.25, 0.5]
        );
        assert_eq!(tape.counter_total("dtm.migrations"), 5);
        assert_eq!(tape.counter_total("never"), 0);
        assert_eq!(tape.gauge_sum("campaign.worker_busy_seconds"), 3.5);
        let inner = tape.tape();
        assert_eq!(
            inner.contexts[inner.program[0].context as usize],
            SpanContext::default()
        );
        assert_eq!(inner.contexts[inner.program[1].context as usize], ctx);
    }

    #[test]
    fn own_spans_nest_and_time_their_calls() {
        let tape = SpanTape::new();
        let inner_id = traced(Some(&tape), "outer", None, |outer| {
            traced(Some(&tape), "inner", outer, |id| id)
        });
        assert_eq!(inner_id, Some(1));
        assert_eq!(tape.tape().own[1].parent, Some(0));
        let outer = tape.own_seconds("outer");
        let inner = tape.own_seconds("inner");
        assert!(outer.len() == 1 && inner.len() == 1);
        assert!(outer[0] >= inner[0]);
        assert_eq!(traced(None, "untraced", None, |id| id), None);
    }
}
