//! Measuring one workload in this process, and reporting it: the text
//! lines, the record `--json` writes and `compare` reads, and the one-line
//! result object.

use crate::layers::{per_layer, Metric, TraceContext};
use crate::stats::{median, quartiles};
use crate::tape::SpanTape;
use crate::workload::{host_parallelism, Rep, Scale, Workload};
use serde::{find_key, Serialize, Value};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Host-time metrics of the untraced reps, as `BENCHMARK.json` lists them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "chip_years_per_s",
        unit: "chip-years/s",
        better: Better::Higher,
        bound: 0.1,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// Metrics that must not move at all between two versions at the same
/// seed. They vary with the seed, so they carry no spread-based bound.
pub const EXACT: [&str; 2] = ["failed_runs_frac", "fig10_abs_error"];

pub struct Settings {
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One workload's measurement in this process.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    /// Every untraced rep's value, per `END_TO_END` metric.
    pub end_to_end: Vec<(&'static EndToEnd, Vec<f64>)>,
    pub exact: Vec<Metric>,
    /// Empty unless traced.
    pub layers: Vec<Metric>,
    /// The output digest every rep, the traced one included, was held to.
    pub digest: Option<u64>,
}

/// Counts attempted and failed runs across reps and holds every rep's
/// output to the first one's (or to the pinned digest).
struct Tally {
    reference: Option<u64>,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, grid_runs: usize, label: &str, rep: &Rep) {
        self.attempted += grid_runs;
        let mut problems = rep.errors.clone();
        if problems.is_empty() {
            match self.reference {
                None => self.reference = Some(rep.digest),
                Some(expected) if expected != rep.digest => problems.push(format!(
                    "output digest {:016x}, expected {expected:016x}",
                    rep.digest
                )),
                Some(_) => {}
            }
        }
        if !problems.is_empty() {
            self.failed += grid_runs;
            self.problems
                .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
        }
    }
}

/// One warm-up rep, then timed reps until `seconds` have passed (at least
/// one), then with tracing one traced rep and the probes. `out` receives
/// the trace and holds a scratch directory for checkpoints meanwhile.
pub fn measure(w: &Workload, settings: &Settings, out: &Path) -> Outcome {
    let scratch = out.join(format!("{}-{}", w.name, std::process::id()));
    let mut tally = Tally {
        reference: w.pinned,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let grid = w.grid_runs();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        tally
            .problems
            .push(format!("cannot create {}: {e}", scratch.display()));
    }
    let warm_up = w.run_rep(None, true, &scratch);
    tally.record(grid, "warm-up", &warm_up);
    let mut reps = Vec::new();
    let clock = Instant::now();
    while reps.is_empty() || clock.elapsed().as_secs_f64() < settings.seconds {
        let rep = w.run_rep(None, false, &scratch);
        tally.record(grid, "rep", &rep);
        reps.push(rep);
    }
    let peak_rss = peak_rss_mb().unwrap_or_else(|e| {
        tally.problems.push(e);
        f64::NAN
    });
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|metric| {
            let values = match metric.name {
                "setup_s" => reps.iter().map(|r| r.setup_s).collect(),
                "wall_s" => walls.clone(),
                "chip_years_per_s" => reps
                    .iter()
                    .map(|r| w.chip_years() / (r.wall_s - r.setup_s))
                    .collect(),
                "peak_rss_mb" => vec![peak_rss],
                other => unreachable!("no measurement for {other}"),
            };
            (metric, values)
        })
        .collect();

    let mut layers = Vec::new();
    if settings.trace {
        let tape = Arc::new(SpanTape::new());
        let rep = w.run_rep(Some(&tape), false, &scratch);
        tally.record(grid, "traced rep", &rep);
        if let Err(e) = w.probe(&tape) {
            tally.problems.push(format!("probe: {e}"));
        }
        layers = per_layer(
            &tape,
            &TraceContext {
                batch: w.batch,
                jobs: w.jobs(),
                runs: grid,
                runfile_bytes_per_run: rep.runfile_bytes_per_run,
                traced_wall_s: rep.wall_s,
                untraced_wall_s: median(&walls).unwrap_or(f64::NAN),
            },
        );
        let trace = out.join(format!("trace-{}.jsonl", w.name));
        if let Err(e) = tape.write_jsonl(&trace) {
            tally
                .problems
                .push(format!("cannot write {}: {e}", trace.display()));
        }
    }
    if scratch.exists() {
        if let Err(e) = std::fs::remove_dir_all(&scratch) {
            tally
                .problems
                .push(format!("cannot remove {}: {e}", scratch.display()));
        }
    }

    let mut exact = vec![Metric {
        note: format!("{} of {} runs", tally.failed, tally.attempted),
        ..Metric::new(
            "failed_runs_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "fraction",
        )
    }];
    if let Some(error) = reps[0].fig10_abs_error {
        exact.push(Metric {
            note: "mean |Hayat/VAA avg-fmax aging rate - paper| over 25% and 50% dark".to_owned(),
            ..Metric::new("fig10_abs_error", error, "ratio")
        });
    }
    Outcome {
        workload: w.name,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        end_to_end,
        exact,
        layers,
        digest: tally.reference,
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The text lines: `workload metric value unit (detail)`.
    pub fn lines(&self) -> Vec<String> {
        let w = self.workload;
        let mut lines = Vec::new();
        for (metric, values) in &self.end_to_end {
            let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
            lines.push(format!(
                "{w} {} {} {} (q1 {q1:.6}, q3 {q3:.6}, n {})",
                metric.name,
                fmt(median(values).unwrap_or(f64::NAN)),
                metric.unit,
                values.len()
            ));
        }
        for m in self.exact.iter().chain(&self.layers) {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!(" ({})", m.note)
            };
            lines.push(format!("{w} {} {} {}{note}", m.name, fmt(m.value), m.unit));
        }
        if let Some(digest) = self.digest {
            lines.push(format!("{w} output digest {digest:016x}"));
        }
        for problem in &self.problems {
            lines.push(format!("{w} problem: {problem}"));
        }
        lines
    }

    /// The record `--json` writes and `compare` reads.
    pub fn record(&self, settings: &Settings) -> Value {
        let mut metrics = Vec::new();
        for (metric, values) in &self.end_to_end {
            let (q1, q3) = quartiles(values).unwrap_or((f64::NAN, f64::NAN));
            metrics.push((
                metric.name.to_owned(),
                map(vec![
                    ("value", Value::Float(median(values).unwrap_or(f64::NAN))),
                    ("unit", Value::Str(metric.unit.to_owned())),
                    ("q1", Value::Float(q1)),
                    ("q3", Value::Float(q3)),
                    ("n", values.len().to_value()),
                ]),
            ));
        }
        for m in self.exact.iter().chain(&self.layers) {
            metrics.push((
                m.name.to_owned(),
                map(vec![
                    ("value", Value::Float(m.value)),
                    ("unit", Value::Str(m.unit.to_owned())),
                    ("note", Value::Str(m.note.clone())),
                ]),
            ));
        }
        let workload = map(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            (
                "digest",
                self.digest.map(|d| format!("{d:016x}")).to_value(),
            ),
            ("problems", self.problems.to_value()),
            ("metrics", Value::Map(metrics)),
        ]);
        map(vec![
            ("seed", settings.seed.to_value()),
            ("seconds", Value::Float(settings.seconds)),
            ("trace", Value::Bool(settings.trace)),
            ("host_parallelism", host_parallelism().to_value()),
            (
                "workloads",
                Value::Map(vec![(self.workload.to_owned(), workload)]),
            ),
        ])
    }
}

/// The last line of output: `correct`, `attempted`, `failed` and the
/// end-to-end metrics (or, traced, the per-layer ones) of every workload in
/// `record`, each metric keyed `workload/metric` when `prefixed`.
pub fn result_line(record: &Value, trace: bool, prefixed: bool) -> String {
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for (name, workload) in workloads(record) {
        correct &= matches!(field(workload, "correct"), Some(Value::Bool(true)));
        attempted += field(workload, "attempted").and_then(as_f64).unwrap_or(0.0) as u64;
        failed += field(workload, "failed").and_then(as_f64).unwrap_or(0.0) as u64;
        let Some(Value::Map(entries)) = field(workload, "metrics") else {
            continue;
        };
        for (metric, value) in entries {
            let end_to_end = END_TO_END.iter().any(|e| e.name == metric);
            let layer = !end_to_end && !EXACT.contains(&metric.as_str());
            if (trace && layer) || (!trace && end_to_end) {
                let key = if prefixed {
                    format!("{name}/{metric}")
                } else {
                    metric.clone()
                };
                let kept = ["value", "unit"]
                    .iter()
                    .filter_map(|k| field(value, k).map(|v| ((*k).to_owned(), v.clone())))
                    .collect();
                metrics.push((key, Value::Map(kept)));
            }
        }
    }
    let line = map(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", attempted.max(1).to_value()),
        ("failed", failed.to_value()),
        ("metrics", Value::Map(metrics)),
    ]);
    to_json(line, false)
}

/// The `(name, record)` pairs of a record's `workloads` map.
pub fn workloads(record: &Value) -> &[(String, Value)] {
    match field(record, "workloads") {
        Some(Value::Map(entries)) => entries,
        _ => &[],
    }
}

pub fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value.as_map().and_then(|m| find_key(m, key))
}

pub fn as_f64(value: &Value) -> Option<f64> {
    match *value {
        Value::Float(f) => Some(f),
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        _ => None,
    }
}

pub fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Renders a value tree as JSON text, compact or two-space indented.
pub fn to_json(value: Value, pretty: bool) -> String {
    /// The vendored `serde` has no `Serialize` for its own `Value`.
    struct Tree(Value);
    impl Serialize for Tree {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    let tree = Tree(value);
    let text = if pretty {
        serde_json::to_string_pretty(&tree)
    } else {
        serde_json::to_string(&tree)
    };
    text.expect("plain values serialize")
}

/// Full precision, without trailing noise for whole numbers.
fn fmt(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{workload, NAMES};
    use hayat_checkpoint::{FailMode, FailPoint, FAILPOINT_EPOCH};
    use std::path::PathBuf;

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::parse_value_str(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'v>(spec: &'v Value, key: &str) -> &'v [Value] {
        field(spec, key).and_then(Value::as_seq).expect("a list")
    }

    fn text<'v>(entry: &'v Value, key: &str) -> &'v str {
        field(entry, key).and_then(Value::as_str).expect("a string")
    }

    /// A directory of its own per test: tests run in parallel.
    fn test_dir(name: &str) -> PathBuf {
        let dir = crate::out_dir().join(format!("test-{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn smoke(trace: bool) -> Settings {
        Settings {
            seed: None,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
        }
    }

    #[test]
    fn benchmark_json_lists_the_end_to_end_metrics_and_workloads_reported_here() {
        let spec = benchmark_json();
        let listed = entries(&spec, "end_to_end");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit);
            let better = match metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text(entry, "better"), better, "{}", metric.name);
            assert_eq!(field(entry, "bound").and_then(as_f64), Some(metric.bound));
        }
        for entry in entries(&spec, "workloads") {
            assert!(NAMES.contains(&text(entry, "name")));
        }
    }

    #[test]
    fn smoke_run_of_every_workload_prints_every_metric_and_tracing_keeps_the_output() {
        let spec = benchmark_json();
        let listed = |key| -> Vec<(String, String)> {
            entries(&spec, key)
                .iter()
                .map(|e| (text(e, "name").to_owned(), text(e, "unit").to_owned()))
                .collect()
        };
        let (end_to_end, per_layer) = (listed("end_to_end"), listed("per_layer"));
        let out = test_dir("smoke");
        let settings = smoke(true);
        for name in NAMES {
            let w = workload(name, Scale::Smoke, None).expect("known workload");
            let outcome = measure(&w, &settings, &out);
            // Correct means every rep, the traced one included, delivered
            // every run with the digest of the first.
            assert!(outcome.correct(), "{name}: {:?}", outcome.problems);
            assert_eq!(
                outcome.attempted,
                3 * w.grid_runs(),
                "warm-up, rep, traced rep"
            );
            assert!(outcome.digest.is_some());

            let lines = outcome.lines();
            for (metric, unit) in end_to_end.iter().chain(&per_layer) {
                let printed = lines.iter().any(|line| {
                    let words: Vec<&str> = line.split_whitespace().collect();
                    words.len() >= 4 && words[0] == name && words[1] == metric && words[3] == unit
                });
                assert!(printed, "{name} prints no `{metric} <value> {unit}` line");
            }
            let record = outcome.record(&settings);
            for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
                let line = serde_json::parse_value_str(&result_line(&record, trace, false))
                    .expect("the result line is JSON");
                let keys: Vec<&str> = field(&line, "metrics")
                    .and_then(Value::as_map)
                    .expect("metrics")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let want: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
                assert_eq!(keys, want, "{name}, trace {trace}");
            }
        }
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn injected_failure_raises_the_failed_fraction_instead_of_crashing() {
        // The checkpointer consults its fail point through the executor's
        // gate (`ExecutorOptions::gate`) before every epoch; it fires once,
        // in the warm-up, and the later rep runs clean.
        let mut w = workload("durable", Scale::Smoke, None).expect("known workload");
        w.failpoint = Arc::new(FailPoint::armed(FAILPOINT_EPOCH, 3, FailMode::Error));
        let out = test_dir("failure");
        let outcome = measure(&w, &smoke(false), &out);
        assert!(!outcome.correct());
        assert_eq!(outcome.attempted, 2 * w.grid_runs());
        assert_eq!(outcome.failed, w.grid_runs());
        let fraction = outcome
            .exact
            .iter()
            .find(|m| m.name == "failed_runs_frac")
            .expect("always reported");
        assert_eq!(fraction.value, 0.5);
        assert!(outcome.problems[0].starts_with("warm-up: checkpointed campaign failed"));
        std::fs::remove_dir_all(&out).ok();
    }
}
