//! Regenerates the **Section VI overhead discussion**: wall-clock cost of
//! the run-time primitives compared to the paper's budget —
//! `predictTemperature` ≈ 25 µs, `estimateNextHealth` ≈ 10 µs, a worst-case
//! full decision ≈ 1.6 ms, and the per-epoch health-map update, "1–10
//! seconds each 3 or 6 months" on the paper's full simulation stack.
//!
//! Usage: `cargo run --release -p hayat-bench --bin overhead_table [--telemetry FILE.jsonl]`
//!
//! With `--telemetry`, each measured primitive is also recorded as an
//! `overhead.*` span sample in the JSONL stream, so the printed table can be
//! recovered offline via `TelemetrySummary::from_jsonl`. Any other flag,
//! or `--telemetry` without its file, prints the usage and exits with
//! status 2.

use hayat::{ChipSystem, HayatPolicy, Policy, PolicyContext, SimulationConfig};
use hayat_telemetry::{JsonlRecorder, Recorder, NULL_RECORDER};
use hayat_units::{DutyCycle, Kelvin, Watts, Years};
use hayat_workload::WorkloadMix;
use std::time::Instant;

fn usage() -> ! {
    eprintln!("usage: overhead_table [--telemetry FILE.jsonl]");
    std::process::exit(2)
}

/// The `--telemetry` path, if given.
fn parse_args() -> Option<String> {
    let mut telemetry_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--telemetry" => {
                telemetry_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("missing value for --telemetry");
                    usage()
                }));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    telemetry_path
}

fn time_per_call<F: FnMut()>(mut f: F, calls: u32) -> f64 {
    // Warm up.
    f();
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

fn main() {
    let telemetry_path = parse_args();
    let jsonl = telemetry_path
        .as_deref()
        .map(|path| JsonlRecorder::create(path).expect("create telemetry stream"));
    let recorder: &dyn Recorder = match &jsonl {
        Some(rec) => rec,
        None => &NULL_RECORDER,
    };

    let config = SimulationConfig::paper(0.5);
    let system = ChipSystem::paper_chip(0, &config).expect("paper chip builds");
    let fp = system.floorplan().clone();
    let workload = WorkloadMix::generate(config.workload_seed, system.budget().max_on());

    // predictTemperature: one chip-wide superposition prediction.
    let power: Vec<Watts> = fp.cores().map(|_| Watts::new(6.0)).collect();
    let predictor = system.predictor();
    let t_predict = time_per_call(
        || {
            let t = predictor.predict(&fp, &power);
            std::hint::black_box(t.max());
        },
        2_000,
    );

    // estimateNextHealth: one 3D-table advance.
    let table = system.aging_table();
    let t_health = time_per_call(
        || {
            let h = table.advance(
                Kelvin::new(350.0),
                DutyCycle::new(0.7),
                std::hint::black_box(0.97),
                Years::new(1.0),
            );
            std::hint::black_box(h);
        },
        20_000,
    );

    // Full decision: DCM selection + Algorithm 1 over every thread. The
    // policy's own decision spans and counters flow into the same stream.
    let mut policy = HayatPolicy::default();
    let ctx =
        PolicyContext::new(&system, config.horizon(), Years::new(0.0)).with_recorder(recorder);
    let t_decision = time_per_call(
        || {
            let m = policy.map_threads(&ctx, &workload);
            std::hint::black_box(m.active_cores());
        },
        50,
    );

    // Epoch health-map update: one table advance per core.
    let t_epoch = time_per_call(
        || {
            for core in fp.cores() {
                let h = table.advance(
                    Kelvin::new(345.0),
                    DutyCycle::new(0.6),
                    std::hint::black_box(0.95),
                    Years::new(0.25),
                );
                std::hint::black_box((core, h));
            }
        },
        2_000,
    );

    // One span sample per primitive with its measured mean, so the table can
    // be reconstructed from the JSONL stream alone.
    recorder.span_seconds("overhead.predict_temperature", t_predict);
    recorder.span_seconds("overhead.estimate_next_health", t_health);
    recorder.span_seconds("overhead.full_mapping_decision", t_decision);
    recorder.span_seconds("overhead.epoch_health_map_update", t_epoch);

    hayat_bench::section("Section VI overhead table (this machine, release build)");
    println!(
        "  {:<28} {:>12} {:>20}",
        "primitive", "measured", "paper budget"
    );
    println!(
        "  {:<28} {:>9.1} us {:>20}",
        "predictTemperature",
        t_predict * 1e6,
        "~25 us"
    );
    println!(
        "  {:<28} {:>9.1} us {:>20}",
        "estimateNextHealth",
        t_health * 1e6,
        "~10 us"
    );
    println!(
        "  {:<28} {:>9.2} ms {:>20}",
        "full mapping decision",
        t_decision * 1e3,
        "<= 1.6 ms worst case"
    );
    println!(
        "  {:<28} {:>9.1} us {:>20}",
        "epoch health-map update",
        t_epoch * 1e6,
        "1-10 s per 3-6 months*"
    );
    println!();
    println!("  * the paper's epoch update includes its full Gem5/HotSpot re-");
    println!("    simulation; ours is the table-driven update only, hence far cheaper.");

    if let Some(rec) = jsonl {
        let events = rec.events_recorded();
        let summary = rec.finish().expect("flush telemetry stream");
        let path = telemetry_path.as_deref().unwrap_or_default();
        println!("\ntelemetry: {events} events written to {path}");
        println!("{}", summary.render_table());
    }
}
