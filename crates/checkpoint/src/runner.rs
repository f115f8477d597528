//! The checkpointed campaign driver.

use crate::checkpoint::{CampaignCheckpoint, CheckpointError, InFlightRun};
use crate::failpoint::{FailPoint, InjectedFailure};
use hayat::{
    Campaign, CampaignResult, DynError, ExecutorError, ExecutorOptions, FleetAccumulator, GateSite,
    InFlightState, Jobs, Pinning, PolicyKind, ProgressOptions, RestoreError, RunDescriptor,
    RunMetrics, RunUpdate,
};
use hayat_telemetry::{NullRecorder, Recorder, RecorderExt};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default checkpoint cadence: one durable write per this many epochs
/// (2 simulated years at the paper's 3-month epochs), in addition to the
/// unconditional write at every chip-run boundary.
pub const DEFAULT_EVERY_EPOCHS: usize = 8;

/// Fail-point site checked once per chip×policy job, before the run
/// starts (arm with `HAYAT_FAILPOINT=campaign.chip:<n>:<mode>`).
pub const FAILPOINT_CHIP: &str = "campaign.chip";

/// Fail-point site checked once per aging epoch across the whole
/// campaign, before the epoch runs (arm with
/// `HAYAT_FAILPOINT=campaign.epoch:<n>:<mode>`).
pub const FAILPOINT_EPOCH: &str = "campaign.epoch";

/// Drives a [`Campaign`] with durable progress: a [`CampaignCheckpoint`]
/// is written atomically every N epochs and at every chip-run boundary,
/// so a crash — at *any* instant, thanks to the tmp-file + rename
/// protocol — loses at most the epochs since the last write, and
/// [`Checkpointer::resume`] replays none of the completed work.
///
/// Jobs run on the parallel campaign executor ([`Campaign::execute`];
/// worker count via [`jobs`](Self::jobs), default all hardware threads),
/// but the checkpointer remains the *single owner* of the checkpoint file:
/// workers publish completed runs back to the owner thread, which merges
/// them into the canonical order (policy-major, then chip index — the same
/// order [`Campaign::run`] reports) and persists the contiguous completed
/// prefix. Each run is bit-identical to its uninterrupted counterpart,
/// resumed or not, for any worker count.
///
/// The checkpoint format stores completed runs as a prefix in job order
/// plus at most one in-flight engine snapshot, so a run that finishes
/// *ahead* of an unfinished earlier run waits in memory and is persisted
/// only when the prefix catches up — a crash re-runs such out-of-order
/// work on resume. That bounded re-execution (at most `jobs - 1` runs)
/// keeps the on-disk format identical to the serial runner's, so
/// checkpoints written with any `--jobs` value resume with any other.
///
/// # Example
///
/// A campaign interrupted by an injected fault and resumed from its
/// checkpoint produces exactly the result of an uninterrupted run:
///
/// ```
/// use hayat::sim::campaign::PolicyKind;
/// use hayat::{Campaign, SimulationConfig};
/// use hayat_checkpoint::{Checkpointer, FailMode, FailPoint};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut config = SimulationConfig::quick_demo();
/// config.chip_count = 1;
/// config.transient_window_seconds = 0.05;
/// let campaign = Campaign::new(config)?;
/// let path = std::env::temp_dir().join("doctest_checkpointer.ckpt");
///
/// let interrupted = Checkpointer::new(&path)
///     .every(1)
///     .with_failpoint(FailPoint::armed("campaign.epoch", 3, FailMode::Error))
///     .run(&campaign, &[PolicyKind::Hayat]);
/// assert!(interrupted.is_err(), "the fault fired mid-campaign");
///
/// let resumed = Checkpointer::new(&path).resume(&campaign)?;
/// assert_eq!(resumed, campaign.run(&[PolicyKind::Hayat]));
/// # std::fs::remove_file(&path).ok();
/// # Ok(())
/// # }
/// ```
pub struct Checkpointer {
    path: PathBuf,
    every_epochs: Option<usize>,
    jobs: Jobs,
    pinning: Pinning,
    recorder: Arc<dyn Recorder>,
    failpoint: Arc<FailPoint>,
    fleet: Option<Arc<Mutex<FleetAccumulator>>>,
    progress: Option<ProgressOptions>,
}

impl Checkpointer {
    /// A checkpointer writing to `path` with the default cadence, no
    /// telemetry, and fault injection disarmed.
    #[must_use]
    pub fn new(path: impl AsRef<Path>) -> Self {
        Checkpointer {
            path: path.as_ref().to_path_buf(),
            every_epochs: None,
            jobs: Jobs::auto(),
            pinning: Pinning::default(),
            recorder: Arc::new(NullRecorder),
            failpoint: Arc::new(FailPoint::disarmed()),
            fleet: None,
            progress: None,
        }
    }

    /// Sets the worker-thread count (default: all hardware threads). The
    /// result — and the resumability contract — is identical for every
    /// worker count; `jobs` trades wall-clock time against the bounded
    /// out-of-order re-execution window described on [`Checkpointer`].
    #[must_use]
    pub const fn jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets worker core pinning (default: [`Pinning::None`]). A placement
    /// hint only; never influences results or resumability.
    #[must_use]
    pub const fn pinning(mut self, pinning: Pinning) -> Self {
        self.pinning = pinning;
        self
    }

    /// Sets the checkpoint cadence in epochs (plus the unconditional
    /// write at chip-run boundaries). On [`resume`](Self::resume) an
    /// explicit cadence overrides the one stored in the checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero.
    #[must_use]
    pub fn every(mut self, epochs: usize) -> Self {
        assert!(epochs > 0, "checkpoint cadence must be at least one epoch");
        self.every_epochs = Some(epochs);
        self
    }

    /// Attaches a telemetry sink. The checkpointer emits
    /// `checkpoint.write` spans, `checkpoint.writes` /
    /// `checkpoint.bytes_written` counters, a `campaign.resume` span, and
    /// `campaign.runs_skipped` / `campaign.epochs_skipped` counters on
    /// resume — on top of everything the engines and policies emit.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Arms fault injection (see [`FailPoint`]): the runner consults the
    /// point at the [`FAILPOINT_CHIP`] and [`FAILPOINT_EPOCH`] sites.
    /// Accepts a bare [`FailPoint`] or an `Arc<FailPoint>` — pass a shared
    /// `Arc` to keep one global hit count across several checkpointers
    /// (e.g. `fig7_10`'s two dark-fraction campaigns).
    #[must_use]
    pub fn with_failpoint(mut self, failpoint: impl Into<Arc<FailPoint>>) -> Self {
        self.failpoint = failpoint.into();
        self
    }

    /// Attaches a streaming [`FleetAccumulator`]: every run is folded into
    /// the shared accumulator at the owner thread's canonical-order merge
    /// point, and on [`resume`](Self::resume) the checkpoint's completed
    /// prefix is pre-folded first — so the final summary is byte-identical
    /// to an uninterrupted run for any worker count and any number of
    /// crash/resume cycles.
    #[must_use]
    pub fn with_fleet(mut self, fleet: Arc<Mutex<FleetAccumulator>>) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Enables live progress frames (see [`ProgressOptions`]), emitted from
    /// the owner thread as completed runs merge into the durable prefix.
    #[must_use]
    pub fn with_progress(mut self, progress: ProgressOptions) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Runs the campaign from scratch with durable progress. The
    /// checkpoint file is created immediately (so even a crash in the
    /// first epoch leaves a resumable file) and updated every N epochs
    /// and at every chip-run boundary.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when a write fails, or
    /// [`CheckpointError::Injected`] when an armed [`FailPoint`] fires in
    /// error mode. In both cases the file holds the last durable state
    /// and [`resume`](Self::resume) continues from it.
    pub fn run(
        &self,
        campaign: &Campaign,
        policies: &[PolicyKind],
    ) -> Result<CampaignResult, CheckpointError> {
        let every = self.every_epochs.unwrap_or(DEFAULT_EVERY_EPOCHS);
        let checkpoint = CampaignCheckpoint::fresh(campaign.config(), policies, every);
        self.save(&checkpoint)?;
        self.drive(campaign, checkpoint)
    }

    /// Resumes a campaign from the checkpoint at this checkpointer's
    /// path: completed runs are taken from the file verbatim, an
    /// interrupted mid-chip run re-enters its partially-aged engine at
    /// the recorded epoch, and the rest of the campaign runs normally —
    /// with checkpointing still active, so repeated crash/resume cycles
    /// compose.
    ///
    /// # Errors
    ///
    /// Everything [`CampaignCheckpoint::load`] reports (missing file,
    /// corrupt JSON, forward version), [`CheckpointError::ConfigMismatch`]
    /// when the campaign's config differs from the checkpointed one, and
    /// the same runtime errors as [`run`](Self::run).
    pub fn resume(&self, campaign: &Campaign) -> Result<CampaignResult, CheckpointError> {
        let _resume_span = self.recorder.span("campaign.resume");
        let mut checkpoint = CampaignCheckpoint::load(&self.path)?;
        checkpoint.validate_config(campaign.config())?;
        if let Some(every) = self.every_epochs {
            checkpoint.every_epochs = every;
        }
        self.recorder
            .counter("campaign.runs_skipped", checkpoint.completed.len() as u64);
        if let Some(in_flight) = &checkpoint.in_flight {
            self.recorder.counter(
                "campaign.epochs_skipped",
                in_flight.engine.next_epoch as u64,
            );
        }
        self.drive(campaign, checkpoint)
    }

    /// The shared fresh/resume loop: runs every job not yet recorded as
    /// completed on the parallel executor, merging completed runs into the
    /// checkpoint's contiguous prefix on this (owner) thread and
    /// checkpointing as the prefix advances.
    fn drive(
        &self,
        campaign: &Campaign,
        mut checkpoint: CampaignCheckpoint,
    ) -> Result<CampaignResult, CheckpointError> {
        let config = campaign.config();
        let epoch_count = config.epoch_count();
        let every = checkpoint.every_epochs.max(1);
        let grid: Vec<(PolicyKind, usize)> = checkpoint
            .policies
            .iter()
            .flat_map(|&kind| (0..campaign.chip_count()).map(move |chip| (kind, chip)))
            .collect();
        if checkpoint.completed.len() > grid.len() {
            return Err(CheckpointError::ProgressOutOfRange {
                jobs: grid.len(),
                completed: checkpoint.completed.len(),
            });
        }
        // Pre-fold the durable prefix so a resumed campaign's fleet summary
        // is indistinguishable from an uninterrupted one: the accumulator
        // sees runs 0..completed first, in canonical order, exactly as the
        // fresh path would have fed them.
        if let Some(fleet) = &self.fleet {
            let mut fleet = fleet.lock().expect("fleet accumulator lock");
            for (index, run) in checkpoint.completed.iter().enumerate() {
                fleet.observe_completed(index, run);
            }
        }
        let start_job = checkpoint.completed.len();
        let in_flight = checkpoint.in_flight.take();
        if let Some(state) = &in_flight {
            if grid.get(start_job) != Some(&(state.policy, state.chip))
                || state.engine.next_epoch > epoch_count
            {
                return Err(CheckpointError::Corrupt(format!(
                    "in-flight run ({:?}, chip {}) at epoch {} does not \
                     match the campaign's job order",
                    state.policy, state.chip, state.engine.next_epoch
                )));
            }
        }
        let resume_state = in_flight.map(|state| InFlightState {
            index: start_job,
            partial: state.partial,
            snapshot: state.engine,
        });
        let descriptors: Vec<RunDescriptor> = grid
            .iter()
            .enumerate()
            .skip(start_job)
            .map(|(index, &(kind, chip))| RunDescriptor { index, kind, chip })
            .collect();

        // Fault-injection gates ride the executor's abort channel; the
        // injected error is downcast back out of the boxed form below.
        let failpoint = Arc::clone(&self.failpoint);
        let gate = move |site: GateSite, _run: &RunDescriptor| -> Result<(), DynError> {
            let site = match site {
                GateSite::Run => FAILPOINT_CHIP,
                GateSite::Epoch => FAILPOINT_EPOCH,
            };
            failpoint.check(site).map_err(|e| Box::new(e) as DynError)
        };
        let options = ExecutorOptions {
            jobs: self.jobs,
            pinning: self.pinning,
            snapshot_every: Some(every),
            gate: Some(&gate),
            progress: self.progress.clone(),
        };

        // Owner-side merge state. `pending` holds runs that finished ahead
        // of an unfinished earlier run; `snapshots` the latest cadence
        // snapshot of each still-running descriptor. Only the run at the
        // head of the completed prefix is persisted as `in_flight` — the
        // checkpoint format (v1) stays exactly what the serial runner wrote.
        let mut pending: BTreeMap<usize, RunMetrics> = BTreeMap::new();
        let mut snapshots: BTreeMap<usize, InFlightRun> = BTreeMap::new();
        let outcome = campaign.execute(
            &descriptors,
            resume_state,
            &options,
            &self.recorder,
            |update| -> Result<(), DynError> {
                match update {
                    RunUpdate::Progress {
                        index,
                        partial,
                        snapshot,
                    } => {
                        let (policy, chip) = grid[index];
                        snapshots.insert(
                            index,
                            InFlightRun {
                                policy,
                                chip,
                                partial,
                                engine: *snapshot,
                            },
                        );
                        if index == checkpoint.completed.len() {
                            checkpoint.in_flight = snapshots.get(&index).cloned();
                            self.save(&checkpoint).map_err(DynError::from)?;
                        }
                    }
                    RunUpdate::Completed { index, metrics } => {
                        if let Some(fleet) = &self.fleet {
                            fleet
                                .lock()
                                .expect("fleet accumulator lock")
                                .observe_completed(index, &metrics);
                        }
                        snapshots.remove(&index);
                        pending.insert(index, *metrics);
                        let before = checkpoint.completed.len();
                        while let Some(metrics) = pending.remove(&checkpoint.completed.len()) {
                            checkpoint.completed.push(metrics);
                        }
                        if checkpoint.completed.len() != before {
                            let head = checkpoint.completed.len();
                            checkpoint.in_flight = snapshots.get(&head).cloned();
                            self.save(&checkpoint).map_err(DynError::from)?;
                        }
                    }
                }
                Ok(())
            },
        );
        if let Err(error) = outcome {
            return Err(checkpoint_error(error));
        }

        debug_assert_eq!(checkpoint.completed.len(), grid.len());
        debug_assert!(checkpoint.in_flight.is_none());
        Ok(CampaignResult {
            runs: checkpoint.completed,
            dark_fraction: config.dark_fraction,
        })
    }

    fn save(&self, checkpoint: &CampaignCheckpoint) -> Result<(), CheckpointError> {
        let _write_span = self.recorder.span("checkpoint.write");
        let bytes = checkpoint.save(&self.path)?;
        self.recorder.counter("checkpoint.writes", 1);
        self.recorder.counter("checkpoint.bytes_written", bytes);
        Ok(())
    }
}

/// Translates executor failures back into checkpoint errors: worker panics
/// map to [`CheckpointError::WorkerPanic`], and boxed gate/sink errors are
/// downcast back to the concrete types this crate fed in (checkpoint-write,
/// injected-fault, and in-flight-restore errors).
pub(crate) fn checkpoint_error(error: ExecutorError) -> CheckpointError {
    match error {
        ExecutorError::WorkerPanic {
            kind,
            chip,
            message,
        } => CheckpointError::WorkerPanic {
            policy: kind,
            chip,
            message,
        },
        ExecutorError::RunAborted { source, .. } | ExecutorError::SinkAborted { source } => {
            let source = match source.downcast::<CheckpointError>() {
                Ok(concrete) => return *concrete,
                Err(source) => source,
            };
            let source = match source.downcast::<InjectedFailure>() {
                Ok(concrete) => return CheckpointError::Injected(*concrete),
                Err(source) => source,
            };
            match source.downcast::<RestoreError>() {
                Ok(concrete) => CheckpointError::Restore(*concrete),
                Err(source) => CheckpointError::Corrupt(format!("campaign aborted: {source}")),
            }
        }
    }
}

/// Checkpoint-aware convenience methods on [`Campaign`] itself.
pub trait CampaignCheckpointExt {
    /// [`Campaign::run`] with durable progress written to `path` at the
    /// default cadence; see [`Checkpointer::run`].
    ///
    /// # Errors
    ///
    /// See [`Checkpointer::run`].
    fn run_checkpointed(
        &self,
        policies: &[PolicyKind],
        path: impl AsRef<Path>,
    ) -> Result<CampaignResult, CheckpointError>;

    /// Resumes this campaign from a checkpoint file, skipping completed
    /// runs and re-entering a partially-aged chip mid-decade; see
    /// [`Checkpointer::resume`].
    ///
    /// # Example
    ///
    /// ```
    /// use hayat::sim::campaign::PolicyKind;
    /// use hayat::{Campaign, SimulationConfig};
    /// use hayat_checkpoint::CampaignCheckpointExt;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut config = SimulationConfig::quick_demo();
    /// config.chip_count = 1;
    /// config.transient_window_seconds = 0.05;
    /// let campaign = Campaign::new(config)?;
    /// let path = std::env::temp_dir().join("doctest_resume.ckpt");
    ///
    /// // A completed (or interrupted) checkpointed campaign...
    /// let first = campaign.run_checkpointed(&[PolicyKind::Vaa], &path)?;
    /// // ...resumes instantly: all recorded progress is reused verbatim.
    /// let resumed = campaign.resume(&path)?;
    /// assert_eq!(first, resumed);
    /// # std::fs::remove_file(&path).ok();
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// See [`Checkpointer::resume`].
    fn resume(&self, path: impl AsRef<Path>) -> Result<CampaignResult, CheckpointError>;
}

impl CampaignCheckpointExt for Campaign {
    fn run_checkpointed(
        &self,
        policies: &[PolicyKind],
        path: impl AsRef<Path>,
    ) -> Result<CampaignResult, CheckpointError> {
        Checkpointer::new(path).run(self, policies)
    }

    fn resume(&self, path: impl AsRef<Path>) -> Result<CampaignResult, CheckpointError> {
        Checkpointer::new(path).resume(self)
    }
}
