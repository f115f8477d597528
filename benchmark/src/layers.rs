//! Per-layer metrics of a traced rep, and the partition of worker busy time
//! across the layers one chip passes through.
//!
//! Inside the program the tape reads only the signals it already emits:
//! `policy.*.decision`, `thermal.transient.step`, `engine.aging.advance`,
//! `engine.epoch`, `checkpoint.write`, the `campaign.worker_busy_seconds`
//! gauge and the counters. Chip construction and the parts of set-up carry
//! no program span, so the benchmark's probe times them with its own spans.

use crate::stats::{median, tail};
use crate::tape::SpanTape;

/// One measured value, printed as `name value unit (note)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }
}

/// Σ worker busy time split into layer self times plus an explicit
/// residual, which makes the parts sum to the busy time by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    pub busy_s: f64,
    pub build_s: f64,
    pub decision_s: f64,
    pub thermal_s: f64,
    pub aging_s: f64,
    /// The engine's window bookkeeping (power, DTM, statistics): epoch time
    /// not covered by the decision, thermal steps or aging.
    pub window_self_s: f64,
    pub residual_s: f64,
}

impl Partition {
    /// `epoch_s` is the total of the `engine.epoch` spans when they enclose
    /// the whole epoch, that is with one chip per claim. Under batching
    /// (`ChipBatch`) the epoch span wraps only the decision, so pass `None`:
    /// the window's bookkeeping then falls into the residual.
    pub fn new(
        busy_s: f64,
        build_s: f64,
        decision_s: f64,
        thermal_s: f64,
        aging_s: f64,
        epoch_s: Option<f64>,
    ) -> Self {
        let window_self_s = epoch_s.map_or(0.0, |epoch| epoch - decision_s - thermal_s - aging_s);
        let residual_s = busy_s - (build_s + decision_s + thermal_s + aging_s + window_self_s);
        Partition {
            busy_s,
            build_s,
            decision_s,
            thermal_s,
            aging_s,
            window_self_s,
            residual_s,
        }
    }
}

/// What the per-layer metrics need besides the tape.
pub struct TraceContext {
    pub batch: usize,
    pub jobs: usize,
    pub runs: usize,
    pub runfile_bytes_per_run: f64,
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn per_layer(tape: &SpanTape, cx: &TraceContext) -> Vec<Metric> {
    let sum = |v: &[f64]| v.iter().fold(0.0, |total, x| total + x);
    let scaled = |v: &[f64], by: f64| v.iter().map(|x| x * by).collect::<Vec<_>>();
    let chip_stream = tape.own_seconds("setup.chip_stream");
    let learn = tape.own_seconds("setup.predictor_learn");
    let table = tape.own_seconds("setup.aging_table");
    let build = tape.own_seconds("system.build");
    let decisions = tape.program_seconds(|n| n.starts_with("policy.") && n.ends_with(".decision"));
    let steps = tape.program_seconds(|n| n == "thermal.transient.step");
    let aging = tape.program_seconds(|n| n == "engine.aging.advance");
    let epochs = (cx.batch == 1).then(|| sum(&tape.program_seconds(|n| n == "engine.epoch")));
    let writes = tape.program_seconds(|n| n == "checkpoint.write");
    let busy = tape.gauge_sum("campaign.worker_busy_seconds");
    let campaign_wall = sum(&tape.own_seconds("campaign.run"));
    let capacity = cx.jobs as f64 * campaign_wall;
    let partition = Partition::new(
        busy,
        sum(&build),
        sum(&decisions),
        sum(&steps),
        sum(&aging),
        epochs,
    );
    let count = |name: &str| tape.counter_total(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    vec![
        Metric::new("setup.chip_stream_s", sum(&chip_stream), "s"),
        Metric::new("setup.predictor_learn_s", sum(&learn), "s"),
        Metric::new("setup.aging_table_s", sum(&table), "s"),
        Metric::new("system.build_s", partition.build_s, "s"),
        p50("system.build_ms_p50", &scaled(&build, 1e3), "ms"),
        tail_of("system.build_ms_tail", &scaled(&build, 1e3), "ms"),
        Metric::new("policy.decision_s", partition.decision_s, "s"),
        p50("policy.decision_ms_p50", &scaled(&decisions, 1e3), "ms"),
        tail_of("policy.decision_ms_tail", &scaled(&decisions, 1e3), "ms"),
        Metric::new("policy.decisions", decisions.len() as f64, "count"),
        Metric::new(
            "policy.dcm.candidates_evaluated",
            count("policy.dcm.candidates_evaluated"),
            "count",
        ),
        Metric::new(
            "policy.dcm.candidates_pruned",
            count("policy.dcm.candidates_pruned"),
            "count",
        ),
        Metric::new(
            "policy.hayat.candidates_evaluated",
            count("policy.hayat.candidates_evaluated"),
            "count",
        ),
        Metric::new(
            "policy.hayat.candidates_pruned",
            count("policy.hayat.candidates_pruned"),
            "count",
        ),
        Metric::new(
            "policy.vaa.candidates_evaluated",
            count("policy.vaa.candidates_evaluated"),
            "count",
        ),
        Metric::new(
            "policy.table_lookups",
            count("policy.table_lookups"),
            "count",
        ),
        Metric::new("thermal.step_s", partition.thermal_s, "s"),
        Metric::new("thermal.steps", steps.len() as f64, "count"),
        p50("thermal.step_us_p50", &scaled(&steps, 1e6), "us"),
        tail_of("thermal.step_us_tail", &scaled(&steps, 1e6), "us"),
        Metric {
            note: if epochs.is_some() {
                String::new()
            } else {
                "not separable under batching; in the residual".to_owned()
            },
            ..Metric::new("engine.window_self_s", partition.window_self_s, "s")
        },
        Metric::new("engine.dtm_migrations", count("dtm.migrations"), "count"),
        Metric::new("engine.dtm_throttles", count("dtm.throttles"), "count"),
        Metric::new("aging.advance_s", partition.aging_s, "s"),
        p50("aging.advance_us_p50", &scaled(&aging, 1e6), "us"),
        Metric::new("executor.busy_s", busy, "s"),
        Metric::new("executor.busy_frac", ratio(busy, capacity), "fraction"),
        Metric::new("executor.idle_s", capacity - busy, "s"),
        Metric::new("executor.steals", count("campaign.steals"), "count"),
        Metric::new("sink.runfmt_s", sum(&tape.own_seconds("sink.runfmt")), "s"),
        Metric::new("sink.runfmt_bytes_per_run", cx.runfile_bytes_per_run, "B"),
        Metric::new(
            "sink.fleet_fold_s",
            sum(&tape.own_seconds("sink.fleet_fold")),
            "s",
        ),
        Metric::new("checkpoint.write_s", sum(&writes), "s"),
        Metric::new("checkpoint.writes", count("checkpoint.writes"), "count"),
        Metric::new(
            "checkpoint.bytes_written",
            count("checkpoint.bytes_written"),
            "B",
        ),
        Metric::new(
            "checkpoint.shards_sealed",
            count("checkpoint.shards_sealed"),
            "count",
        ),
        Metric::new(
            "checkpoint.replay_s",
            sum(&tape.own_seconds("checkpoint.replay")),
            "s",
        ),
        Metric::new(
            "trace.overhead_frac",
            ratio(cx.traced_wall_s - cx.untraced_wall_s, cx.untraced_wall_s),
            "fraction",
        ),
        Metric {
            note: format!(
                "of {:.4} s worker busy over {} runs",
                partition.busy_s, cx.runs
            ),
            ..Metric::new(
                "trace.residual_frac",
                ratio(partition.residual_s, partition.busy_s),
                "fraction",
            )
        },
    ]
}

fn p50(name: &'static str, values: &[f64], unit: &'static str) -> Metric {
    Metric {
        note: format!("of {}", values.len()),
        ..Metric::new(name, median(values).unwrap_or(0.0), unit)
    }
}

/// The highest percentile with at least ten samples beyond it; with fewer
/// than twenty samples no such percentile exists and the median stands in.
fn tail_of(name: &'static str, values: &[f64], unit: &'static str) -> Metric {
    match tail(values) {
        Some((percentile, value)) => Metric {
            note: format!("p{percentile} of {}", values.len()),
            ..Metric::new(name, value, unit)
        },
        None => Metric {
            note: format!("median: {} samples are too few for a tail", values.len()),
            ..Metric::new(name, median(values).unwrap_or(0.0), unit)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts_s(p: &Partition) -> f64 {
        p.build_s + p.decision_s + p.thermal_s + p.aging_s + p.window_self_s + p.residual_s
    }

    #[test]
    fn layer_self_times_plus_residual_equal_busy() {
        // One chip per claim: the epoch spans enclose decision, thermal and
        // aging, and the rest of the epoch is the window's own time.
        let p = Partition::new(10.0, 1.0, 2.0, 3.0, 0.5, Some(6.5));
        assert_eq!(p.window_self_s, 1.0);
        assert_eq!(p.residual_s, 2.5);
        assert_eq!(parts_s(&p), p.busy_s);

        // Batched: no epoch total, so window bookkeeping lands in the residual.
        let b = Partition::new(10.0, 1.0, 2.0, 3.0, 0.5, None);
        assert_eq!(b.window_self_s, 0.0);
        assert_eq!(b.residual_s, 3.5);
        assert_eq!(parts_s(&b), b.busy_s);

        // A probe that over-measures construction shows as a negative
        // residual rather than vanishing.
        let over = Partition::new(4.0, 2.0, 1.0, 1.0, 0.5, Some(2.5));
        assert!(over.residual_s < 0.0);
        assert!((parts_s(&over) - over.busy_s).abs() < 1e-12);
    }

    #[test]
    fn tail_metric_names_its_percentile_or_falls_back_to_the_median() {
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let m = tail_of("x", &many, "ms");
        assert_eq!((m.value, m.note.as_str()), (90.0, "p90 of 100"));
        let few = tail_of("x", &[1.0, 2.0, 3.0], "ms");
        assert_eq!(few.value, 2.0);
        assert!(few.note.starts_with("median"));
    }
}
