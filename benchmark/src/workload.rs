//! The benchmark's workloads, one repetition ("rep") of each, and the
//! checks on what a rep delivers.
//!
//! A rep is what a user of the simulator waits for: `Campaign::new` for
//! every campaign of the workload, then the campaign itself through the
//! public entry point that workload exercises. The clock runs from the
//! first `Campaign::new` to the last delivered run; digesting and
//! cross-checking the output happen after it stops.

use crate::stats::Fnv64;
use crate::tape::{traced, SpanId, SpanTape};
use hayat::{
    Batch, Campaign, CampaignResult, DynError, FleetAccumulator, Jobs, PolicyKind, RunMetrics,
    SimulationConfig, SimulationEngine,
};
use hayat_aging::{AgingModel, AgingTable};
use hayat_checkpoint::{FailPoint, ShardedCheckpointer};
use hayat_runfmt::RunFileWriter;
use hayat_telemetry::{NullRecorder, Recorder};
use hayat_thermal::ThermalPredictor;
use hayat_variation::ChipStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order a full invocation runs them.
pub const NAMES: [&str; 4] = ["paper", "fleet", "large_32x32", "durable"];

/// Every workload evaluates the paper's two policies on each chip.
pub const POLICIES: [PolicyKind; 2] = [PolicyKind::Vaa, PolicyKind::Hayat];

/// Fig. 10 of the paper: Hayat's average-fmax aging rate normalized to
/// VAA's, at 25 % and 50 % dark silicon.
const FIG10_PAPER: [(f64, f64); 2] = [(0.25, 0.937), (0.5, 0.77)];

/// Output digests of the full-scale workloads under the default seeds.
/// `paper`'s digest is that of `results/campaign_dark25.json` followed by
/// `results/campaign_dark50.json` (a test holds it to those files).
const PINNED: [(&str, u64); 4] = [
    ("paper", 0x536d_ab89_975c_0664),
    ("fleet", 0xb38f_0c2b_03d5_d2b0),
    ("large_32x32", 0x6829_350b_68f6_8bac),
    ("durable", 0xd718_9a20_9f4e_91c6),
];

/// Full size, or a shrunken configuration of the same workloads that runs
/// every code path in well under a second (for tests and `--smoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Where a workload's runs go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// `Campaign::try_run` collects each campaign's `CampaignResult`; the
    /// digest covers their pretty JSON, the form `results/*.json` archive.
    Collect,
    /// `Campaign::stream_runs` hands runs in canonical order to a run-file
    /// encoder writing into a hashing sink, and to the fleet sketches; the
    /// digest covers the run-file bytes and then the sketch summary.
    RunFile,
    /// `ShardedCheckpointer::run_streamed` writes the runs durably and
    /// streams them into a run-file encoder; `resume_streamed` then replays
    /// the finished directory, which must deliver the same bytes. The
    /// digest covers the written runs' run-file bytes.
    Durable { shard_runs: usize, every: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub configs: Vec<SimulationConfig>,
    /// Worker threads asked for; a rep uses at most the host's parallelism.
    pub jobs: usize,
    pub batch: usize,
    pub output: Output,
    /// Whether the rep reports the distance from the paper's Fig. 10.
    pub fig10: bool,
    /// The expected output digest, when known before the first rep.
    pub pinned: Option<u64>,
    /// Fault injection for the durable path (disarmed outside tests).
    pub failpoint: Arc<FailPoint>,
}

/// What one rep measured and found.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub digest: u64,
    /// Run-file bytes encoded per delivered run (0 for `Collect`).
    pub runfile_bytes_per_run: f64,
    pub fig10_abs_error: Option<f64>,
    /// Everything that went wrong; an empty list means every run was
    /// delivered and passed the rep's own checks.
    pub errors: Vec<String>,
}

/// The host's hardware threads.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds the named workload; `seed` replaces the paper's seeds the way
/// `campaign --seed` does.
pub fn workload(name: &str, scale: Scale, seed: Option<u64>) -> Option<Workload> {
    let paper = SimulationConfig::paper;
    let base = Workload {
        name: NAMES.into_iter().find(|&n| n == name)?,
        configs: vec![paper(0.5)],
        jobs: 2,
        batch: 1,
        output: Output::Collect,
        fig10: false,
        pinned: PINNED.iter().find(|(n, _)| *n == name).map(|&(_, d)| d),
        failpoint: Arc::new(FailPoint::disarmed()),
    };
    let mut w = match name {
        "paper" => Workload {
            configs: vec![paper(0.25), paper(0.5)],
            jobs: 1,
            fig10: true,
            ..base
        },
        "fleet" => Workload {
            configs: vec![SimulationConfig {
                chip_count: 2000,
                years: 2.0,
                epoch_years: 0.5,
                transient_window_seconds: 0.3,
                ..paper(0.5)
            }],
            batch: 8,
            output: Output::RunFile,
            ..base
        },
        // At 32×32 a chip can run away thermally until a worker panics
        // with "power must be finite and non-negative, got inf W": with a
        // 2 s window even under the default seeds, with 0.1 s at 50 % dark
        // under 7 of 10 other seeds. At 75 % dark and 0.1 s no seed tried
        // has failed.
        "large_32x32" => Workload {
            configs: vec![SimulationConfig {
                mesh: (32, 32),
                chip_count: 8,
                transient_window_seconds: 0.1,
                ..paper(0.75)
            }],
            ..base
        },
        // Every checkpoint write is an fsync, which costs tens of
        // milliseconds on a disk: the run count and cadence keep a rep to
        // about a hundred writes.
        "durable" => Workload {
            configs: vec![SimulationConfig {
                chip_count: 8,
                transient_window_seconds: 0.3,
                ..paper(0.5)
            }],
            output: Output::Durable {
                shard_runs: 4,
                every: 10,
            },
            ..base
        },
        _ => unreachable!("name was found in NAMES"),
    };
    if scale == Scale::Smoke {
        for config in &mut w.configs {
            config.chip_count = config.chip_count.min(3);
            config.years = 0.5;
            config.epoch_years = 0.25;
            config.transient_window_seconds = 0.05;
        }
        w.pinned = None;
    }
    if let Some(seed) = seed {
        for config in &mut w.configs {
            config.workload_seed = seed;
            config.variation_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        }
        w.pinned = None;
    }
    Some(w)
}

impl Workload {
    /// Runs over all campaigns: chips × policies.
    pub fn grid_runs(&self) -> usize {
        self.configs
            .iter()
            .map(|c| c.chip_count * POLICIES.len())
            .sum()
    }

    /// Simulated chip-years over all campaigns.
    pub fn chip_years(&self) -> f64 {
        self.configs
            .iter()
            .map(|c| (c.chip_count * POLICIES.len()) as f64 * c.years)
            .sum()
    }

    /// Worker threads a rep uses.
    pub fn jobs(&self) -> usize {
        self.jobs.min(host_parallelism())
    }

    /// One rep. With a tape, the program's signals and spans around the
    /// benchmark's calls are recorded on it. `spot_check` replays the first
    /// and last run of streamed outputs through `Campaign::run_one` and
    /// compares. `scratch` holds the checkpoint directory.
    pub fn run_rep(&self, tape: Option<&Arc<SpanTape>>, spot_check: bool, scratch: &Path) -> Rep {
        let recorder: Arc<dyn Recorder> = match tape {
            Some(tape) => Arc::clone(tape) as Arc<dyn Recorder>,
            None => Arc::new(NullRecorder),
        };
        let tape = tape.map(Arc::as_ref);
        let checkpoint_dir = scratch.join(format!("{}-checkpoint", self.name));
        if checkpoint_dir.exists() {
            std::fs::remove_dir_all(&checkpoint_dir).expect("remove the previous checkpoint");
        }
        let jobs = Jobs::new(self.jobs()).expect("at least one job");
        let mut rep = Rep::default();
        let mut delivered = Vec::new();
        let start = Instant::now();
        traced(tape, "rep", None, |rep_span| {
            for config in &self.configs {
                let began = Instant::now();
                let campaign = traced(tape, "campaign.new", rep_span, |_| {
                    Campaign::new(config.clone())
                });
                rep.setup_s += began.elapsed().as_secs_f64();
                let campaign = match campaign {
                    Ok(c) => c.with_batch(Batch::new(self.batch).expect("positive batch")),
                    Err(e) => {
                        rep.errors.push(format!("Campaign::new failed: {e}"));
                        continue;
                    }
                };
                let outcome = traced(tape, "campaign.run", rep_span, |run_span| {
                    self.deliver(&campaign, jobs, &recorder, &checkpoint_dir, tape, run_span)
                });
                match outcome {
                    Ok(outcome) => delivered.push((campaign, outcome)),
                    Err(e) => rep.errors.push(e),
                }
            }
        });
        rep.wall_s = start.elapsed().as_secs_f64();
        self.check(&mut rep, &delivered, spot_check);
        rep
    }

    /// The campaign call of one rep, through the output's entry point.
    fn deliver(
        &self,
        campaign: &Campaign,
        jobs: Jobs,
        recorder: &Arc<dyn Recorder>,
        checkpoint_dir: &Path,
        tape: Option<&SpanTape>,
        parent: Option<SpanId>,
    ) -> Result<Delivered, String> {
        let grid = campaign.grid(&POLICIES).len();
        let dark = campaign.config().dark_fraction;
        let delivered = match self.output {
            Output::Collect => {
                let result = campaign
                    .try_run(&POLICIES, jobs, Arc::clone(recorder))
                    .map_err(|e| format!("campaign failed: {e}"))?;
                Delivered {
                    runs: result.runs.len(),
                    result: Some(result),
                    ..Delivered::default()
                }
            }
            Output::RunFile => {
                let mut hash = Fnv64::new();
                let mut sink = RunSink::new(&mut hash, dark, true, grid, tape, parent)?;
                let runs = campaign
                    .stream_runs(
                        &POLICIES,
                        jobs,
                        Arc::clone(recorder),
                        None,
                        None,
                        |i, run| sink.push(i, &run),
                    )
                    .map_err(|e| format!("campaign failed: {e}"))?;
                let delivered = sink.finish(runs)?;
                Delivered {
                    runfile: Some(hash),
                    ..delivered
                }
            }
            Output::Durable { shard_runs, every } => {
                let runner = ShardedCheckpointer::new(checkpoint_dir)
                    .jobs(jobs)
                    .shard_runs(shard_runs)
                    .every(every)
                    .with_failpoint(Arc::clone(&self.failpoint))
                    .with_recorder(Arc::clone(recorder));
                let mut hash = Fnv64::new();
                let mut sink = RunSink::new(&mut hash, dark, false, grid, tape, parent)?;
                let runs = runner
                    .run_streamed(campaign, &POLICIES, |i, run| sink.push(i, run))
                    .map_err(|e| format!("checkpointed campaign failed: {e}"))?;
                let mut written = sink.finish(runs as usize)?;
                written.runfile = Some(hash);
                let mut replay = Fnv64::new();
                let mut writer =
                    RunFileWriter::new(&mut replay, dark).map_err(|e| e.to_string())?;
                traced(tape, "checkpoint.replay", parent, |_| {
                    runner.resume_streamed(campaign, |_, run| {
                        writer.push(run).map_err(|e| Box::new(e) as DynError)
                    })
                })
                .map_err(|e| format!("resume over the finished checkpoint failed: {e}"))?;
                writer.finish().map_err(|e| e.to_string())?;
                written.replay = Some(replay);
                written
            }
        };
        Ok(delivered)
    }

    /// Digests what the rep delivered and checks it, after the clock.
    fn check(&self, rep: &mut Rep, delivered: &[(Campaign, Delivered)], spot_check: bool) {
        let mut digest = Fnv64::new();
        let mut runfile_bytes = 0;
        let mut fig10 = Vec::new();
        for (campaign, d) in delivered {
            let grid = campaign.grid(&POLICIES);
            if d.runs != grid.len() {
                rep.errors
                    .push(format!("{} of {} runs delivered", d.runs, grid.len()));
            }
            if let Some(runfile) = d.runfile {
                // Streamed workloads run a single campaign, so the rep's
                // digest continues from the run file's.
                digest = runfile;
                runfile_bytes += runfile.bytes();
            }
            if let Some(result) = &d.result {
                let json = serde_json::to_string_pretty(result).expect("results serialize");
                digest.update(json.as_bytes());
                let paper = FIG10_PAPER
                    .iter()
                    .find(|(dark, _)| *dark == result.dark_fraction);
                let ratio = result.normalized(
                    |s| s.mean_avg_fmax_aging_rate,
                    PolicyKind::Hayat,
                    PolicyKind::Vaa,
                );
                if let (Some(&(_, paper)), Some(ratio)) = (paper, ratio) {
                    fig10.push((ratio - paper).abs());
                }
            }
            if let Some(fleet) = &d.fleet {
                let json = serde_json::to_string_pretty(&fleet.summary()).expect("serializes");
                digest.update(json.as_bytes());
            }
            if let (Some(written), Some(replay)) = (&d.runfile, &d.replay) {
                if written.digest() != replay.digest() {
                    rep.errors.push(format!(
                        "resume replay {:016x} differs from the written runs {:016x}",
                        replay.digest(),
                        written.digest()
                    ));
                }
            }
            for (index, run) in d.spots.iter().filter(|_| spot_check) {
                let descriptor = grid[*index];
                if campaign.run_one(descriptor.kind, descriptor.chip) != *run {
                    rep.errors.push(format!(
                        "run {index} differs from Campaign::run_one({}, chip {})",
                        descriptor.kind.name(),
                        descriptor.chip
                    ));
                }
            }
        }
        rep.digest = digest.digest();
        let runs: usize = delivered.iter().map(|(_, d)| d.runs).sum();
        rep.runfile_bytes_per_run = runfile_bytes as f64 / runs.max(1) as f64;
        if self.fig10 && fig10.len() == self.configs.len() {
            rep.fig10_abs_error = Some(fig10.iter().sum::<f64>() / fig10.len() as f64);
        }
    }

    /// Times the parts the traced rep cannot see inside the program: the
    /// three parts of `Campaign::new`, and chip construction
    /// (`Campaign::system_for` plus `SimulationEngine::new`) for every run
    /// of the grid.
    pub fn probe(&self, tape: &SpanTape) -> Result<(), String> {
        for config in &self.configs {
            let floorplan = config.floorplan();
            traced(Some(tape), "setup.chip_stream", None, |_| {
                ChipStream::new(&floorplan, &config.variation, config.variation_seed)
            })
            .map_err(|e| format!("ChipStream::new failed: {e}"))?;
            traced(Some(tape), "setup.predictor_learn", None, |_| {
                ThermalPredictor::learn(&floorplan, &config.thermal)
            });
            traced(Some(tape), "setup.aging_table", None, |_| {
                let model = AgingModel::paper(config.variation.design_seed);
                AgingTable::generate(&model, &config.table_axes)
            });
            let campaign =
                Campaign::new(config.clone()).map_err(|e| format!("Campaign::new failed: {e}"))?;
            for d in campaign.grid(&POLICIES) {
                traced(Some(tape), "system.build", None, |_| {
                    let system = campaign.system_for(d.chip);
                    let policy = d.kind.instantiate(config.workload_seed ^ d.chip as u64);
                    SimulationEngine::new(system, policy, config)
                });
            }
        }
        Ok(())
    }
}

/// What the campaign call of one rep handed back.
#[derive(Default)]
struct Delivered {
    runs: usize,
    result: Option<CampaignResult>,
    runfile: Option<Fnv64>,
    fleet: Option<FleetAccumulator>,
    replay: Option<Fnv64>,
    /// The first and last run, kept for the spot check.
    spots: Vec<(usize, RunMetrics)>,
}

/// The streamed outputs' sink: every run is encoded into the run-file
/// format (into a hashing writer) and, for fleets, folded into the
/// sketches, each call timed as a benchmark span when tracing.
struct RunSink<'a> {
    writer: RunFileWriter<&'a mut Fnv64>,
    fleet: Option<FleetAccumulator>,
    spots: Vec<(usize, RunMetrics)>,
    last: usize,
    tape: Option<&'a SpanTape>,
    parent: Option<SpanId>,
}

impl<'a> RunSink<'a> {
    fn new(
        hash: &'a mut Fnv64,
        dark: f64,
        fleet: bool,
        grid: usize,
        tape: Option<&'a SpanTape>,
        parent: Option<SpanId>,
    ) -> Result<Self, String> {
        Ok(RunSink {
            writer: RunFileWriter::new(hash, dark).map_err(|e| e.to_string())?,
            fleet: fleet.then(FleetAccumulator::new),
            spots: Vec::new(),
            last: grid.saturating_sub(1),
            tape,
            parent,
        })
    }

    fn push(&mut self, index: usize, run: &RunMetrics) -> Result<(), DynError> {
        traced(self.tape, "sink.runfmt", self.parent, |_| {
            self.writer.push(run)
        })
        .map_err(|e| Box::new(e) as DynError)?;
        if let Some(fleet) = &mut self.fleet {
            traced(self.tape, "sink.fleet_fold", self.parent, |_| {
                fleet.observe_completed(index, run);
            });
        }
        if index == 0 || index == self.last {
            self.spots.push((index, run.clone()));
        }
        Ok(())
    }

    /// Ends the run file, returning the delivery minus its digest, which
    /// the caller reads from the hasher it lent.
    fn finish(self, runs: usize) -> Result<Delivered, String> {
        self.writer.finish().map_err(|e| e.to_string())?;
        let fleet = self.fleet.map(|mut fleet| {
            fleet.finish();
            fleet
        });
        Ok(Delivered {
            runs,
            fleet,
            spots: self.spots,
            ..Delivered::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_paper_digest_is_that_of_the_committed_results() {
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
        let mut digest = Fnv64::new();
        for file in ["campaign_dark25.json", "campaign_dark50.json"] {
            digest.update(&std::fs::read(results.join(file)).expect("committed results"));
        }
        let paper = workload("paper", Scale::Full, None).expect("known workload");
        assert_eq!(paper.pinned, Some(digest.digest()));
    }

    #[test]
    fn seeds_replace_the_paper_seeds_and_unpin_the_digest() {
        let default = workload("fleet", Scale::Full, None).expect("known workload");
        assert!(default.pinned.is_some());
        let seeded = workload("fleet", Scale::Full, Some(7)).expect("known workload");
        assert_eq!(seeded.pinned, None);
        assert_eq!(seeded.configs[0].workload_seed, 7);
        assert_ne!(
            seeded.configs[0].variation_seed,
            default.configs[0].variation_seed
        );
        assert!(workload("nope", Scale::Full, None).is_none());
    }
}
