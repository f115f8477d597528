//! `benchmark compare PARENT.json... -- CHANGE.json...`: a verdict for every
//! workload and end-to-end metric between two sets of runs.
//!
//! Run i of the parent pairs with run i of the change; run the pairs in
//! alternating order (parent first, then change first) at the same seed. A
//! change improved a metric when it wins at least nine tenths of the pairs
//! (ties count for neither side) and the medians differ by more than the
//! parent's own quartile spread; it regressed when its median is worse
//! than the parent's by more than the metric's bound. When the parent's
//! spread exceeds the bound the metric is unresolved, unless every change
//! run beats every parent run.

use crate::report::{as_f64, field, workloads, Better, END_TO_END, EXACT};
use crate::stats::{median, quartiles};
use serde::Value;

/// Fewer pairs than this leave every verdict unresolved.
pub const MIN_PAIRS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
    /// An exact metric moved without getting worse.
    Changed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

fn beats(better: Better, a: f64, b: f64) -> bool {
    match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    }
}

/// Pairs in which the change read better than the parent.
fn wins(parent: &[f64], change: &[f64], better: Better) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|(p, c)| beats(better, **c, **p))
        .count()
}

/// The verdict on one bounded metric over paired runs.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let pairs = parent.len().min(change.len());
    let (Some(mp), Some(mc), Some((q1, q3))) = (median(parent), median(change), quartiles(parent))
    else {
        return Verdict::Unresolved;
    };
    if pairs < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let beats = |a: f64, b: f64| beats(better, a, b);
    let wins = wins(parent, change, better);
    let all_beat = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let spread = q3 - q1;
    let worse_by = match better {
        Better::Lower => (mc - mp) / mp.abs(),
        Better::Higher => (mp - mc) / mp.abs(),
    };
    if all_beat {
        Verdict::Improved
    } else if spread / mp.abs() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if wins * 10 >= pairs * 9 && beats(mc, mp) && (mc - mp).abs() > spread {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The verdict on a metric that must repeat exactly at the same seed:
/// unchanged when every pair is equal, regressed when any change run reads
/// higher (both exact metrics are better lower), changed otherwise.
pub fn exact_verdict(parent: &[f64], change: &[f64]) -> Verdict {
    let pairs = || parent.iter().zip(change);
    if parent.len().min(change.len()) < MIN_PAIRS {
        Verdict::Unresolved
    } else if pairs().all(|(p, c)| p == c) {
        Verdict::Unchanged
    } else if pairs().any(|(p, c)| c > p) {
        Verdict::Regressed
    } else {
        Verdict::Changed
    }
}

/// Prints one row per workload and metric; `Ok(false)` when any regressed.
pub fn run(parent_paths: &[String], change_paths: &[String]) -> Result<bool, String> {
    let parents = load(parent_paths)?;
    let changes = load(change_paths)?;
    let names: Vec<String> = parents
        .first()
        .map(|r| workloads(r).iter().map(|(n, _)| n.clone()).collect())
        .unwrap_or_default();
    println!(
        "{:<12} {:<18} {:>36} {:>36} {:>7} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "bound"
    );
    let mut clean = true;
    for name in &names {
        let bounded = END_TO_END
            .iter()
            .map(|e| (e.name, Some((e.better, e.bound))));
        let exact = EXACT.iter().map(|&metric| (metric, None));
        for (metric, bound) in bounded.chain(exact) {
            let parent = values(&parents, parent_paths, name, metric)?;
            let change = values(&changes, change_paths, name, metric)?;
            if parent.is_empty() && change.is_empty() {
                continue; // an exact metric this workload does not report
            }
            let verdict = match bound {
                Some((better, bound)) => verdict(&parent, &change, better, bound),
                None => exact_verdict(&parent, &change),
            };
            clean &= verdict != Verdict::Regressed;
            let better = bound.map_or(Better::Lower, |(b, _)| b);
            let wins = wins(&parent, &change, better);
            println!(
                "{name:<12} {metric:<18} {:>36} {:>36} {:>7} {:>6}  {}",
                summary(&parent),
                summary(&change),
                format!("{wins}/{}", parent.len().min(change.len())),
                bound.map_or_else(|| "exact".to_owned(), |(_, b)| format!("{:.0}%", b * 100.0)),
                verdict.label()
            );
        }
    }
    Ok(clean)
}

fn load(paths: &[String]) -> Result<Vec<Value>, String> {
    paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::parse_value_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))
        })
        .collect()
}

/// One value per run file; an error when a file lacks the workload, and
/// empty when no file reports the metric.
fn values(
    records: &[Value],
    paths: &[String],
    workload: &str,
    metric: &str,
) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for (record, path) in records.iter().zip(paths) {
        let Some((_, w)) = workloads(record).iter().find(|(n, _)| n == workload) else {
            return Err(format!("{path} has no run of workload {workload}"));
        };
        if let Some(value) = field(w, "metrics")
            .and_then(|m| field(m, metric))
            .and_then(|m| field(m, "value"))
            .and_then(as_f64)
        {
            out.push(value);
        }
    }
    Ok(out)
}

fn summary(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.5} [{q1:.5}, {q3:.5}]"),
        _ => "-".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(centre: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre + jitter * (f64::from(i) - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        let runs = around(10.0, 0.1);
        assert_eq!(
            verdict(&runs, &runs, Better::Lower, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn consistent_win_beyond_the_spread_is_improved() {
        let parent = around(10.0, 0.1);
        let change: Vec<f64> = parent.iter().map(|p| p * 0.97).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Improved
        );
        // For a higher-is-better metric the same numbers are a loss, but
        // within the bound.
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn loss_beyond_the_bound_is_regressed() {
        let parent = around(10.0, 0.1);
        let change: Vec<f64> = parent.iter().map(|p| p * 1.08).collect();
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Regressed
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let parent = around(10.0, 2.0);
        let change = around(10.5, 2.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        let far = around(5.0, 0.5);
        assert_eq!(
            verdict(&parent, &far, Better::Lower, 0.05),
            Verdict::Improved
        );
    }

    #[test]
    fn too_few_pairs_are_unresolved() {
        let runs = vec![1.0; MIN_PAIRS - 1];
        assert_eq!(
            verdict(&runs, &runs, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(exact_verdict(&runs, &runs), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_must_repeat() {
        let parent = around(0.02, 0.005);
        assert_eq!(exact_verdict(&parent, &parent), Verdict::Unchanged);
        let lower: Vec<f64> = parent.iter().map(|p| p - 0.001).collect();
        assert_eq!(exact_verdict(&parent, &lower), Verdict::Changed);
        let mut higher = parent.clone();
        higher[3] += 0.001;
        assert_eq!(exact_verdict(&parent, &higher), Verdict::Regressed);
    }
}
