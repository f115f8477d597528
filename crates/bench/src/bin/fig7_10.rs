//! Regenerates **Figs. 7–10** and the derived Section VI percentages:
//! the 25-chip campaign comparing Hayat against the VAA baseline at 25% and
//! 50% minimum dark silicon.
//!
//! * Fig. 7 — DTM migrations, normalized to VAA,
//! * Fig. 8 — average temperature over ambient, normalized to VAA,
//! * Fig. 9 — aging rate of the per-chip maximum frequency, normalized,
//! * Fig. 10 — aging rate of the per-core average frequency, normalized.
//!
//! Paper shape: Hayat ≈0.9× VAA migrations at 25% dark and ≈0.28× at 50%;
//! ≈5% lower average temperature at 50%; much lower chip-fmax aging
//! (−95% at 50%); 6.3% / 23% lower average aging at 25% / 50%.
//!
//! Usage: `cargo run --release -p hayat-bench --bin fig7_10 [--quick]`
//! (`--quick` runs 5 chips with 6-month epochs; the default is the paper's
//! 25 chips with 3-month epochs and takes several minutes).
//!
//! `--jobs N|auto` (default `auto` = available parallelism) runs the
//! campaign grid on N worker threads; output is byte-identical for any N.
//! `--pin none|cores` pins workers to cores and `--batch N` runs N
//! consecutive chips in lockstep per worker claim through the batched SoA
//! kernels — both pure execution knobs with byte-identical output. The
//! `HAYAT_JOBS` and `HAYAT_PIN` environment variables set the defaults;
//! flags override.
//!
//! `--floorplan RxC` swaps the paper's 8×8 die for an R-row × C-column
//! mesh (e.g. `32x32`) to exercise the large-floorplan decision path.
//!
//! The default run is long enough to be worth protecting: `--checkpoint
//! STEM` persists each dark-fraction campaign to its own checkpoint
//! directory, `STEM.dark25/` / `STEM.dark50/` (atomic writes, every
//! `--every EPOCHS` epochs), and `--resume STEM` picks the experiment back
//! up — completed campaigns load instantly, an interrupted one re-enters
//! mid-chip, and a directory without a manifest starts that campaign fresh
//! (still checkpointed). A regular file at `STEM.dark25` is a v1
//! single-file checkpoint of an earlier build: `--resume` imports it into
//! `STEM.dark25.shards/` and resumes from there.
//!
//! `--fleet-stats STEM` streams every run into mergeable online sketches
//! and writes one summary per dark fraction (`STEM.dark25.json`,
//! `STEM.dark50.json`) — byte-identical for any `--jobs` value and across
//! crash/resume cycles.
//!
//! An unknown flag, a flag without its value, or a value that does not
//! parse prints the usage and exits with status 2 before anything runs.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

use hayat::sim::campaign::PolicyKind;
use hayat::{Batch, Campaign, CampaignSummary, FleetAccumulator, Jobs, Pinning, SimulationConfig};
use hayat_bench::{bar_row, env_default, resume_dir, section};
use hayat_checkpoint::{FailPoint, ShardedCheckpointer, DEFAULT_SHARD_RUNS};
use hayat_telemetry::{JsonlRecorder, NullRecorder, Recorder};

struct Args {
    quick: bool,
    /// `--json DIR`: writes the raw CampaignResult of each dark fraction as
    /// JSON for external analysis.
    json_dir: Option<String>,
    /// `--telemetry FILE.jsonl`: one JSON event per line covering both
    /// dark-fraction campaigns.
    telemetry_path: Option<String>,
    /// `--fleet-stats STEM`: one mergeable summary per dark fraction
    /// (STEM.dark25.json, STEM.dark50.json).
    fleet_stem: Option<String>,
    /// `--checkpoint STEM` / `--resume STEM`: each dark-fraction campaign
    /// persists to its own derived directory (STEM.dark25/, ...).
    checkpoint_stem: Option<String>,
    resume_stem: Option<String>,
    every: Option<usize>,
    jobs: Jobs,
    pin: Pinning,
    batch: Batch,
    /// `--floorplan RxC` mesh override, e.g. 32x32 or 16x64.
    floorplan: Option<(usize, usize)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fig7_10 [--quick] [--json DIR] [--telemetry FILE.jsonl] \
         [--fleet-stats STEM] [--checkpoint STEM | --resume STEM] [--every EPOCHS] \
         [--jobs N|auto] [--batch N] [--pin none|cores] [--floorplan RxC]"
    );
    std::process::exit(2)
}

/// Parses `value` as the value of `flag`, or prints why it does not parse
/// and the usage, and exits 2.
fn parse<T: FromStr>(flag: &str, value: &str) -> T
where
    T::Err: Display,
{
    value.parse().unwrap_or_else(|e| {
        eprintln!("{flag} {value:?}: {e}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        json_dir: None,
        telemetry_path: None,
        fleet_stem: None,
        checkpoint_stem: None,
        resume_stem: None,
        every: None,
        jobs: env_default(Jobs::from_env),
        pin: env_default(Pinning::from_env),
        batch: Batch::serial(),
        floorplan: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage()
            })
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--json" => args.json_dir = Some(value()),
            "--telemetry" => args.telemetry_path = Some(value()),
            "--fleet-stats" => args.fleet_stem = Some(value()),
            "--checkpoint" => args.checkpoint_stem = Some(value()),
            "--resume" => args.resume_stem = Some(value()),
            "--every" => args.every = Some(parse(&flag, &value())),
            "--jobs" => args.jobs = parse(&flag, &value()),
            "--pin" => args.pin = parse(&flag, &value()),
            "--batch" => args.batch = parse(&flag, &value()),
            "--floorplan" => {
                let spec = value();
                let mesh = spec
                    .split_once(['x', 'X'])
                    .and_then(|(r, c)| Some((r.trim().parse().ok()?, c.trim().parse().ok()?)))
                    .filter(|&(r, c): &(usize, usize)| r > 0 && c > 0);
                args.floorplan = Some(mesh.unwrap_or_else(|| {
                    eprintln!("--floorplan wants ROWSxCOLS with positive dimensions, got {spec:?}");
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
    if args.checkpoint_stem.is_some() && args.resume_stem.is_some() {
        eprintln!("--checkpoint and --resume are mutually exclusive");
        usage()
    }
    if args.every.is_some() && args.checkpoint_stem.is_none() && args.resume_stem.is_none() {
        eprintln!("--every requires --checkpoint or --resume");
        usage()
    }
    if args.every == Some(0) {
        eprintln!("--every must be at least 1 epoch");
        usage()
    }
    args
}

fn main() {
    let Args {
        quick,
        json_dir,
        telemetry_path,
        fleet_stem,
        checkpoint_stem,
        resume_stem,
        every,
        jobs,
        pin,
        batch,
        floorplan,
    } = parse_args();
    let recorder = telemetry_path
        .as_deref()
        .map(|path| Arc::new(JsonlRecorder::create(path).expect("create telemetry stream")));
    // One shared fail point: HAYAT_FAILPOINT hits count across BOTH
    // dark-fraction campaigns, so any point of the experiment is killable.
    let failpoint = Arc::new(env_default(FailPoint::from_env));
    for dark in [0.25, 0.5] {
        let mut config = SimulationConfig::paper(dark);
        if quick {
            config.chip_count = 5;
            config.epoch_years = 0.5;
            config.transient_window_seconds = 1.5;
        }
        if let Some(mesh) = floorplan {
            config.mesh = mesh;
        }
        let campaign = Campaign::new(config)
            .expect("paper configuration is valid")
            .with_pinning(pin)
            .with_batch(batch);
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let fleet = fleet_stem
            .as_ref()
            .map(|_| Arc::new(Mutex::new(FleetAccumulator::new())));
        let stem = checkpoint_stem.as_deref().or(resume_stem.as_deref());
        let result = if let Some(stem) = stem {
            let path = format!("{stem}.dark{}", (dark * 100.0) as u32);
            let dir = if resume_stem.is_some() {
                resume_dir(Path::new(&path), DEFAULT_SHARD_RUNS).unwrap_or_else(|err| {
                    eprintln!("cannot resume from {path}: {err}");
                    std::process::exit(1)
                })
            } else {
                path.clone().into()
            };
            let mut runner = ShardedCheckpointer::new(dir)
                .jobs(jobs)
                .with_failpoint(Arc::clone(&failpoint));
            if let Some(every) = every {
                runner = runner.every(every);
            }
            if let Some(rec) = &recorder {
                runner = runner.with_recorder(Arc::clone(rec) as Arc<dyn Recorder>);
            }
            if let Some(fleet) = &fleet {
                runner = runner.with_fleet(Arc::clone(fleet));
            }
            let outcome = if resume_stem.is_some() && runner.has_manifest() {
                println!("resuming from checkpoint {path}");
                runner.resume(&campaign)
            } else {
                runner.run(&campaign, &policies)
            };
            outcome.unwrap_or_else(|err| {
                eprintln!("campaign aborted: {err}");
                eprintln!("progress is saved; rerun with --resume {stem}");
                std::process::exit(1)
            })
        } else {
            let rec: Arc<dyn Recorder> = match &recorder {
                Some(rec) => Arc::clone(rec) as Arc<dyn Recorder>,
                None => Arc::new(NullRecorder),
            };
            campaign
                .try_run_observed(&policies, jobs, rec, fleet.as_deref(), None)
                .unwrap_or_else(|err| {
                    eprintln!("campaign failed: {err}");
                    std::process::exit(1)
                })
        };
        if let (Some(stem), Some(fleet)) = (&fleet_stem, &fleet) {
            let path = format!("{stem}.dark{}.json", (dark * 100.0) as u32);
            let mut fleet = fleet.lock().expect("fleet accumulator lock");
            fleet.finish();
            let json = serde_json::to_string_pretty(&fleet.summary()).expect("serializable");
            std::fs::write(&path, json).expect("write fleet stats");
            println!("(fleet statistics written to {path})");
        }
        let vaa = result.summary(PolicyKind::Vaa).expect("VAA ran");
        let hayat = result.summary(PolicyKind::Hayat).expect("Hayat ran");
        if let Some(dir) = &json_dir {
            let path = format!("{dir}/campaign_dark{}.json", (dark * 100.0) as u32);
            let json = serde_json::to_string_pretty(&result).expect("serializable result");
            std::fs::write(&path, json).expect("write campaign JSON");
            println!("(raw campaign archived to {path})");
        }

        section(&format!(
            "min. {:.0}% dark silicon, {} chips, {:.0} years",
            dark * 100.0,
            vaa.chips,
            result.runs[0].epochs.last().map_or(0.0, |e| e.years)
        ));

        let norm = |f: fn(&CampaignSummary) -> f64| {
            let d = f(&vaa);
            if d == 0.0 {
                (0.0, 0.0)
            } else {
                (1.0, f(&hayat) / d)
            }
        };

        println!("Fig. 7: normalized DTM migration events");
        let (v, h) = norm(|s| s.mean_dtm_migrations);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute: VAA {:.1}, Hayat {:.1} migrations per chip lifetime)",
            vaa.mean_dtm_migrations, hayat.mean_dtm_migrations
        );

        println!("Fig. 8: normalized average temperature over T_ambient");
        let (v, h) = norm(|s| s.mean_temp_over_ambient);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute: VAA {:.2} K, Hayat {:.2} K over ambient)",
            vaa.mean_temp_over_ambient, hayat.mean_temp_over_ambient
        );

        println!("Fig. 9: normalized aging rate of per-chip max frequency");
        let (v, h) = norm(|s| s.mean_chip_fmax_aging_rate);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute rates: VAA {:.4}, Hayat {:.4})",
            vaa.mean_chip_fmax_aging_rate, hayat.mean_chip_fmax_aging_rate
        );

        println!("Fig. 10: normalized aging rate of per-core average frequency");
        let (v, h) = norm(|s| s.mean_avg_fmax_aging_rate);
        println!("{}", bar_row("VAA", v, 1.5));
        println!("{}", bar_row("Hayat", h, 1.5));
        println!(
            "  (absolute rates: VAA {:.4}, Hayat {:.4})",
            vaa.mean_avg_fmax_aging_rate, hayat.mean_avg_fmax_aging_rate
        );

        println!();
        println!(
            "Delivered throughput (performance): VAA {:.2}%, Hayat {:.2}% of required IPS",
            vaa.mean_throughput_fraction * 100.0,
            hayat.mean_throughput_fraction * 100.0
        );
        println!(
            "Aging balance (final weakest-core health): VAA {:.4}, Hayat {:.4}",
            vaa.mean_final_min_health, hayat.mean_final_min_health
        );
        println!("Section VI derived improvements (Hayat vs VAA):");
        let pct = |v: f64, h: f64| {
            if v == 0.0 {
                0.0
            } else {
                (1.0 - h / v) * 100.0
            }
        };
        println!(
            "  DTM migrations reduced by {:>6.1}%   (paper: 10% at 25%, 72% at 50%)",
            pct(vaa.mean_dtm_migrations, hayat.mean_dtm_migrations)
        );
        println!(
            "  avg temperature reduced by {:>5.1}%   (paper: ~0% at 25%, 5% at 50%)",
            pct(vaa.mean_temp_over_ambient, hayat.mean_temp_over_ambient)
        );
        println!(
            "  chip-fmax aging reduced by {:>5.1}%   (paper: 95% at 50%)",
            pct(
                vaa.mean_chip_fmax_aging_rate,
                hayat.mean_chip_fmax_aging_rate
            )
        );
        println!(
            "  avg-fmax aging reduced by {:>6.1}%   (paper: 6.3% at 25%, 23% at 50%)",
            pct(vaa.mean_avg_fmax_aging_rate, hayat.mean_avg_fmax_aging_rate)
        );
    }
    if let Some(rec) = recorder {
        let rec = Arc::try_unwrap(rec)
            .ok()
            .expect("campaign workers have exited, so no recorder refs remain");
        let events = rec.events_recorded();
        let summary = rec.finish().expect("flush telemetry stream");
        let path = telemetry_path.as_deref().unwrap_or_default();
        println!("\ntelemetry: {events} events written to {path}");
        println!("{}", summary.render_table());
    }
}
