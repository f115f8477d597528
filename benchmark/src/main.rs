//! End-to-end and per-layer benchmark of the Hayat campaign simulator.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--json FILE]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare PARENT.json... -- CHANGE.json...
//! ```
//!
//! With `--workload` the named workload runs in this process; without it
//! every workload runs in a child process of its own, so each one's peak
//! RSS is its own. The last line of output is one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end ones,
//! or with `--trace 1` the per-layer ones. The exit code is 0 only when
//! every output checked out. See README.md for the workloads and metrics.

mod compare;
mod layers;
mod report;
mod stats;
mod tape;
mod workload;

use report::{measure, result_line, workloads, Settings};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workload::{workload, Scale, NAMES};

/// Seconds of timed reps per workload when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
         [--json FILE]\n       benchmark compare PARENT.json... -- CHANGE.json...",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<String>,
    settings: Settings,
    json: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let mut parsed = Args {
        workload: None,
        settings: Settings {
            seed: None,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: Scale::Full,
        },
        json: None,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => parsed.workload = Some(args.next()?),
            "--seed" => parsed.settings.seed = Some(args.next()?.parse().ok()?),
            "--seconds" => {
                let seconds: f64 = args.next()?.parse().ok()?;
                parsed.settings.seconds =
                    (seconds.is_finite() && seconds >= 0.0).then_some(seconds)?;
            }
            "--trace" => {
                parsed.settings.trace = match args.next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
            }
            "--smoke" => parsed.settings.scale = Scale::Smoke,
            "--json" => parsed.json = Some(PathBuf::from(args.next()?)),
            _ => return None,
        }
    }
    Some(parsed)
}

/// Trace files and scratch directories go here, inside the benchmark's own
/// directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        let rest: Vec<String> = args.skip(1).collect();
        let Some(split) = rest.iter().position(|a| a == "--") else {
            return usage();
        };
        return match compare::run(&rest[..split], &rest[split + 1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(args) = parse(args) else {
        return usage();
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let (record, prefixed) = match &args.workload {
        Some(name) => {
            let Some(w) = workload(name, args.settings.scale, args.settings.seed) else {
                eprintln!("unknown workload {name:?}");
                return usage();
            };
            println!(
                "== {} (jobs {}, batch {}, host parallelism {}, seed {}, {} s of reps{})",
                w.name,
                w.jobs(),
                w.batch,
                workload::host_parallelism(),
                args.settings
                    .seed
                    .map_or("default".to_owned(), |s| s.to_string()),
                args.settings.seconds,
                if args.settings.trace {
                    " + a traced rep"
                } else {
                    ""
                }
            );
            let outcome = measure(&w, &args.settings, &out);
            for line in outcome.lines() {
                println!("{line}");
            }
            (outcome.record(&args.settings), false)
        }
        None => (run_children(&args, &out), true),
    };
    if let Some(path) = &args.json {
        let text = report::to_json(record.clone(), true);
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let line = result_line(&record, args.settings.trace, prefixed);
    println!("{line}");
    let correct = workloads(&record)
        .iter()
        .all(|(_, w)| matches!(report::field(w, "correct"), Some(Value::Bool(true))));
    if correct && !workloads(&record).is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and merges their
/// records; a child that fails or dies is recorded as failed and the rest
/// still run.
fn run_children(args: &Args, out: &Path) -> Value {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut merged = Vec::new();
    for name in NAMES {
        let child_json = out.join(format!("{name}-{}.json", std::process::id()));
        let mut command = Command::new(&exe);
        command
            .args(["--workload", name, "--seconds"])
            .arg(args.settings.seconds.to_string())
            .args(["--trace", if args.settings.trace { "1" } else { "0" }])
            .arg("--json")
            .arg(&child_json);
        if let Some(seed) = args.settings.seed {
            command.args(["--seed", &seed.to_string()]);
        }
        if args.settings.scale == Scale::Smoke {
            command.arg("--smoke");
        }
        let status = command.status();
        let record = std::fs::read_to_string(&child_json)
            .ok()
            .and_then(|text| serde_json::parse_value_str(&text).ok());
        let _ = std::fs::remove_file(&child_json);
        match record {
            Some(record) => merged.extend(workloads(&record).iter().cloned()),
            None => {
                let problem = format!("child process ended without a record: {status:?}");
                println!("{name} problem: {problem}");
                merged.push((
                    name.to_owned(),
                    report::map(vec![
                        ("correct", Value::Bool(false)),
                        ("attempted", Value::UInt(1)),
                        ("failed", Value::UInt(1)),
                        ("problems", Value::Seq(vec![Value::Str(problem)])),
                    ]),
                ));
            }
        }
    }
    report::map(vec![
        ("seed", args.settings.seed.map_or(Value::Null, Value::UInt)),
        ("seconds", Value::Float(args.settings.seconds)),
        ("trace", Value::Bool(args.settings.trace)),
        (
            "host_parallelism",
            Value::UInt(workload::host_parallelism() as u64),
        ),
        ("workloads", Value::Map(merged)),
    ])
}
