//! The checkpointed campaign driver: durable campaign progress split
//! across many small files so write cost stays O(shard), not O(campaign).
//!
//! The v1 single-file [`CampaignCheckpoint`](crate::CampaignCheckpoint)
//! rewrote *every* completed run on each save — O(completed runs) of JSON
//! per checkpoint, which at fleet scale (10⁵ runs) turns the durable write
//! into the campaign bottleneck long before the simulations do. A
//! checkpoint directory keeps the same resumability contract with bounded
//! writes:
//!
//! * **Sealed shards** (`shard-00000.json`, `shard-00001.json`, …) — fixed
//!   runs-per-shard segments of the canonical run order (policy-major, then
//!   chip index). Once written, never rewritten.
//! * **Tail** (`tail.json`) — the open segment: completed runs past the
//!   last sealed shard, plus the optional in-flight engine snapshot. This
//!   is the only file rewritten at checkpoint cadence, and it never holds
//!   more than one shard's worth of runs.
//! * **Manifest** (`manifest.json`) — the commit point: format version,
//!   config fingerprint, policy list, shard capacity, and the sealed-shard
//!   count. Tiny and rewritten only when a shard seals (or when resume
//!   commits a shard a crashed seal left uncommitted).
//!
//! **Ownership rule:** exactly one writer — the executor's owner thread.
//! Workers never touch the checkpoint directory; they publish completed
//! runs over the executor channel and the owner merges them into canonical
//! order (the same discipline `FleetAccumulator` uses) before anything is
//! persisted. Shards are therefore canonical-order *segments*, not
//! per-worker files: that is what keeps the on-disk state — like every
//! other campaign output — byte-identical for any `--jobs` value.
//!
//! Every file is written atomically (tmp + fsync + rename). A seal is the
//! sequence *shard file → trimmed tail → manifest*, and the tail it writes
//! already names the run at the new head as in flight. A crash after the
//! shard write leaves an orphan shard the manifest does not vouch for:
//! resume ignores it, its runs re-run deterministically, and the re-seal
//! writes identical bytes. A crash after the tail write leaves a tail that
//! starts exactly one shard past the manifest: resume checks the shard file
//! in between against the missing canonical slots, replays it, and commits
//! it in the manifest.
//!
//! Resume replays one sealed shard at a time — memory stays one shard, as
//! on the fresh path — and never rewrites one. Every replayed run must sit
//! in its canonical slot (its policy and `chip_id`, which is the chip
//! index); anything else is [`CheckpointError::Corrupt`]. No interleaving
//! loses committed work beyond one shard, and none can drop or
//! double-count a run.
//!
//! A v1 file is never written any more; [`ShardedCheckpointer::import_v1`]
//! turns one into a directory whose tail holds all of the file's progress,
//! and resume seals it into shards from there.

use crate::checkpoint::{config_hash, CampaignCheckpoint, CheckpointError, InFlightRun};
use crate::failpoint::{FailPoint, InjectedFailure};
use hayat::{
    Campaign, CampaignResult, DynError, ExecutorError, ExecutorOptions, FleetAccumulator, GateSite,
    InFlightState, Jobs, PolicyKind, ProgressOptions, RestoreError, RunDescriptor, RunMetrics,
    RunUpdate,
};
use hayat_telemetry::{NullRecorder, Recorder, RecorderExt};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default checkpoint cadence: one durable write per this many epochs
/// (2 simulated years at the paper's 3-month epochs), in addition to the
/// write at every completed run.
pub const DEFAULT_EVERY_EPOCHS: usize = 8;

/// Fail-point site checked once per chip×policy job, before the run
/// starts (arm with `HAYAT_FAILPOINT=campaign.chip:<n>:<mode>`).
pub const FAILPOINT_CHIP: &str = "campaign.chip";

/// Fail-point site checked once per aging epoch across the whole
/// campaign, before the epoch runs (arm with
/// `HAYAT_FAILPOINT=campaign.epoch:<n>:<mode>`).
pub const FAILPOINT_EPOCH: &str = "campaign.epoch";

/// The checkpoint-directory format version. Like the v1 file format,
/// loading rejects every other version — in particular manifests from
/// newer builds.
pub const SHARD_FORMAT_VERSION: u32 = 1;

/// Default runs per sealed shard. Checkpoint write cost is O(this), so it
/// bounds both the tail rewrite and the worst-case work re-run after the
/// narrow seal-window crash.
pub const DEFAULT_SHARD_RUNS: usize = 256;

/// The commit point of a sharded checkpoint directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Format version ([`SHARD_FORMAT_VERSION`] when written by this build).
    pub version: u32,
    /// FNV-1a hash of the campaign's canonical config JSON.
    pub config_hash: u64,
    /// Checkpoint cadence in epochs.
    pub every_epochs: usize,
    /// The requested policy list, in canonical (policy-major) order.
    pub policies: Vec<PolicyKind>,
    /// Capacity of every sealed shard, in runs.
    pub shard_runs: usize,
    /// Number of sealed (immutable, full) shard files the manifest vouches
    /// for. Files beyond this count are uncommitted orphans.
    pub sealed: usize,
}

/// The mutable open segment of a sharded checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardTail {
    /// Completed runs past the last sealed shard (fewer than the shard
    /// capacity, except transiently inside a seal).
    pub completed: Vec<RunMetrics>,
    /// The interrupted mid-chip run, if any.
    pub in_flight: Option<InFlightRun>,
}

/// Path layout and atomic file I/O of one checkpoint directory.
struct ShardStore {
    dir: PathBuf,
}

impl ShardStore {
    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn tail_path(&self) -> PathBuf {
        self.dir.join("tail.json")
    }

    fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(format!("shard-{index:05}.json"))
    }

    fn create_dir(&self) -> Result<(), CheckpointError> {
        std::fs::create_dir_all(&self.dir).map_err(|source| CheckpointError::Io {
            path: self.dir.clone(),
            source,
        })
    }

    /// Serializes `value` to `path` through [`write_atomic`].
    fn save_json<T: Serialize>(&self, path: &Path, value: &T) -> Result<u64, CheckpointError> {
        let json = serde_json::to_string(value).expect("checkpoint structs always serialize");
        write_atomic(path, json.as_bytes())?;
        Ok(json.len() as u64)
    }

    fn load_json<T: Deserialize>(&self, path: &Path) -> Result<T, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        serde_json::from_str(&text)
            .map_err(|e| CheckpointError::Corrupt(format!("{}: {e}", path.display())))
    }
}

/// Replaces `path` with `bytes` durably: write `<path>.tmp` in the same
/// directory, fsync it, `rename` it over `path`, then fsync the directory.
/// The first fsync keeps a power cut from publishing an empty file under
/// the new name; the last one makes the rename itself survive.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let io_err = |source| CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, path).map_err(io_err)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|dir| dir.sync_all())
        .map_err(io_err)
}

/// Drives a [`Campaign`] with durable progress in a checkpoint directory:
/// the tail is rewritten every N epochs of the run at the head of the
/// canonical order and whenever that head advances, and full shards seal
/// behind it. A crash at *any* instant loses at most the epochs since the
/// last write, and [`resume`](Self::resume) is bit-identical to an
/// uninterrupted run, for any worker count, through any number of
/// kill/resume cycles. Each durable write touches O(shard capacity) bytes,
/// not O(completed campaign).
///
/// Jobs run on the parallel campaign executor ([`Campaign::execute`]),
/// pinned as the campaign says ([`Campaign::with_pinning`]), but the
/// checkpointer stays the *single owner* of the directory: workers
/// publish completed runs back to the owner thread, which merges them into
/// canonical order before anything is persisted. Only the head run's
/// snapshots are written, so a crash re-runs the runs that finished ahead
/// of the head (at most `jobs - 1`). For the same reason, at jobs > 1 the
/// *number* of tail writes (the `checkpoint.writes` counter) follows the
/// order in which runs complete; the bytes of every sealed shard, and the
/// final result, do not.
///
/// # Example
///
/// ```
/// use hayat::sim::campaign::PolicyKind;
/// use hayat::{Campaign, SimulationConfig};
/// use hayat_checkpoint::{FailMode, FailPoint, ShardedCheckpointer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut config = SimulationConfig::quick_demo();
/// config.chip_count = 2;
/// config.transient_window_seconds = 0.05;
/// let campaign = Campaign::new(config)?;
/// let dir = std::env::temp_dir().join("doctest_sharded_ckpt");
///
/// let interrupted = ShardedCheckpointer::new(&dir)
///     .every(1)
///     .shard_runs(1)
///     .with_failpoint(FailPoint::armed("campaign.epoch", 5, FailMode::Error))
///     .run(&campaign, &[PolicyKind::Hayat]);
/// assert!(interrupted.is_err(), "the fault fired mid-campaign");
///
/// let resumed = ShardedCheckpointer::new(&dir).resume(&campaign)?;
/// assert_eq!(resumed, campaign.run(&[PolicyKind::Hayat]));
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok(())
/// # }
/// ```
pub struct ShardedCheckpointer {
    store: ShardStore,
    shard_runs: usize,
    every_epochs: Option<usize>,
    jobs: Jobs,
    recorder: Arc<dyn Recorder>,
    failpoint: Arc<FailPoint>,
    fleet: Option<Arc<Mutex<FleetAccumulator>>>,
    progress: Option<ProgressOptions>,
}

impl ShardedCheckpointer {
    /// A checkpointer writing into directory `dir` (created on first run)
    /// with the default cadence ([`DEFAULT_EVERY_EPOCHS`]) and shard
    /// capacity ([`DEFAULT_SHARD_RUNS`]), all hardware threads, no
    /// telemetry, and fault injection disarmed.
    #[must_use]
    pub fn new(dir: impl AsRef<Path>) -> Self {
        ShardedCheckpointer {
            store: ShardStore {
                dir: dir.as_ref().to_path_buf(),
            },
            shard_runs: DEFAULT_SHARD_RUNS,
            every_epochs: None,
            jobs: Jobs::auto(),
            recorder: Arc::new(NullRecorder),
            failpoint: Arc::new(FailPoint::disarmed()),
            fleet: None,
            progress: None,
        }
    }

    /// Sets the runs-per-shard capacity of a fresh run or a v1 import. A
    /// resumed directory keeps the capacity its manifest records.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is zero.
    #[must_use]
    pub fn shard_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "shard capacity must be at least one run");
        self.shard_runs = runs;
        self
    }

    /// Sets the worker-thread count (default: all hardware threads). The
    /// result, and every sealed shard, are identical for every worker
    /// count.
    #[must_use]
    pub const fn jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the checkpoint cadence in epochs (plus the write whenever the
    /// head run completes). On [`resume`](Self::resume) an explicit cadence
    /// overrides the one stored in the manifest.
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

    /// Attaches a telemetry sink. The checkpointer emits `checkpoint.write`
    /// spans, `checkpoint.writes` / `checkpoint.bytes_written` /
    /// `checkpoint.shards_sealed` counters, a `campaign.resume` span, and
    /// `campaign.runs_skipped` / `campaign.epochs_skipped` counters on
    /// resume — on top of everything the engines and policies emit.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Arms fault injection (see [`FailPoint`]) at the [`FAILPOINT_CHIP`] /
    /// [`FAILPOINT_EPOCH`] sites. Accepts a bare [`FailPoint`] or an
    /// `Arc<FailPoint>` — pass a shared `Arc` to keep one hit count across
    /// several checkpointers (e.g. `fig7_10`'s two dark-fraction
    /// campaigns).
    #[must_use]
    pub fn with_failpoint(mut self, failpoint: impl Into<Arc<FailPoint>>) -> Self {
        self.failpoint = failpoint.into();
        self
    }

    /// Attaches a streaming [`FleetAccumulator`] fed at the canonical-order
    /// merge point (pre-folded with the durable prefix on resume).
    #[must_use]
    pub fn with_fleet(mut self, fleet: Arc<Mutex<FleetAccumulator>>) -> Self {
        self.fleet = Some(fleet);
        self
    }

    /// Enables live progress frames.
    #[must_use]
    pub fn with_progress(mut self, progress: ProgressOptions) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Runs the campaign from scratch with sharded durable progress,
    /// collecting the full result. For fleets, prefer
    /// [`run_streamed`](Self::run_streamed).
    ///
    /// # Errors
    ///
    /// See [`run_streamed`](Self::run_streamed).
    pub fn run(
        &self,
        campaign: &Campaign,
        policies: &[PolicyKind],
    ) -> Result<CampaignResult, CheckpointError> {
        let mut runs = Vec::new();
        self.run_streamed(campaign, policies, |_, metrics| {
            runs.push(metrics.clone());
            Ok(())
        })?;
        Ok(CampaignResult {
            runs,
            dark_fraction: campaign.config().dark_fraction,
        })
    }

    /// Resumes from the checkpoint directory, collecting the full result.
    /// For fleets, prefer [`resume_streamed`](Self::resume_streamed).
    ///
    /// # Errors
    ///
    /// See [`resume_streamed`](Self::resume_streamed).
    pub fn resume(&self, campaign: &Campaign) -> Result<CampaignResult, CheckpointError> {
        let mut runs = Vec::new();
        self.resume_streamed(campaign, |_, metrics| {
            runs.push(metrics.clone());
            Ok(())
        })?;
        Ok(CampaignResult {
            runs,
            dark_fraction: campaign.config().dark_fraction,
        })
    }

    /// The fleet path: runs the campaign with sharded durable progress and
    /// hands every completed run to `sink` in canonical order, holding at
    /// most one shard of runs in memory. Returns the number of runs
    /// delivered.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when a durable write fails,
    /// [`CheckpointError::Injected`] when an armed fail point fires, and
    /// the executor's panic/abort conditions translated as in the
    /// single-file checkpointer. Sink errors surface as
    /// [`CheckpointError::Corrupt`] with the sink's message.
    pub fn run_streamed(
        &self,
        campaign: &Campaign,
        policies: &[PolicyKind],
        sink: impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError> {
        let every = self.every_epochs.unwrap_or(DEFAULT_EVERY_EPOCHS);
        self.store.create_dir()?;
        let manifest = ShardManifest {
            version: SHARD_FORMAT_VERSION,
            config_hash: config_hash(campaign.config()),
            every_epochs: every,
            policies: policies.to_vec(),
            shard_runs: self.shard_runs,
            sealed: 0,
        };
        let tail = ShardTail {
            completed: Vec::new(),
            in_flight: None,
        };
        self.store.save_json(&self.store.tail_path(), &tail)?;
        self.store
            .save_json(&self.store.manifest_path(), &manifest)?;
        self.drive(campaign, &campaign.grid(policies), manifest, tail, 0, sink)
    }

    /// Migrates a v1 single-file checkpoint into this checkpointer's
    /// directory, after which [`resume`](Self::resume) continues it. The
    /// file's completed runs and in-flight run become the tail; the
    /// manifest takes the file's config hash, cadence and policies, this
    /// checkpointer's shard capacity, and no sealed shards. The manifest
    /// is written last — it is the commit point, so an import cut short
    /// leaves no manifest and can simply be repeated. The file itself is
    /// only read.
    ///
    /// # Errors
    ///
    /// Everything [`CampaignCheckpoint::load`] reports for the file,
    /// [`CheckpointError::ManifestExists`] when the directory already
    /// holds a manifest (it is a checkpoint of its own: resume it), and
    /// [`CheckpointError::Io`] when a write fails.
    pub fn import_v1(&self, file: impl AsRef<Path>) -> Result<(), CheckpointError> {
        if self.has_manifest() {
            return Err(CheckpointError::ManifestExists {
                dir: self.store.dir.clone(),
            });
        }
        let v1 = CampaignCheckpoint::load(file.as_ref())?;
        self.store.create_dir()?;
        let tail = ShardTail {
            completed: v1.completed,
            in_flight: v1.in_flight,
        };
        self.store.save_json(&self.store.tail_path(), &tail)?;
        let manifest = ShardManifest {
            version: SHARD_FORMAT_VERSION,
            config_hash: v1.config_hash,
            every_epochs: v1.every_epochs,
            policies: v1.policies,
            shard_runs: self.shard_runs,
            sealed: 0,
        };
        self.store
            .save_json(&self.store.manifest_path(), &manifest)?;
        Ok(())
    }

    /// Whether the directory holds a manifest: a committed checkpoint that
    /// [`resume`](Self::resume) continues and
    /// [`import_v1`](Self::import_v1) leaves alone.
    #[must_use]
    pub fn has_manifest(&self) -> bool {
        self.store.manifest_path().exists()
    }

    /// Resumes a sharded campaign: the sealed shards are replayed to `sink`
    /// (and the fleet accumulator) in canonical order one shard at a time,
    /// then the tail; an interrupted mid-chip run re-enters its engine
    /// snapshot, and the remaining grid runs normally with sharding still
    /// active. Sealed shards are never rewritten. Returns the total number
    /// of runs delivered (replayed + fresh).
    ///
    /// Every replayed run must sit in its canonical slot. The one
    /// tolerated gap is a crash inside a seal after the tail write but
    /// before the manifest commit: the tail then starts one shard past the
    /// manifest, and the shard file in between is checked against the
    /// missing slots, replayed, and committed.
    ///
    /// # Errors
    ///
    /// Everything [`run_streamed`](Self::run_streamed) reports, plus
    /// [`CheckpointError::VersionMismatch`] /
    /// [`CheckpointError::ConfigMismatch`] /
    /// [`CheckpointError::ProgressOutOfRange`] /
    /// [`CheckpointError::Corrupt`] for directories that don't fit the
    /// campaign.
    pub fn resume_streamed(
        &self,
        campaign: &Campaign,
        mut sink: impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError> {
        let _resume_span = self.recorder.span("campaign.resume");
        let mut manifest: ShardManifest = self.store.load_json(&self.store.manifest_path())?;
        if manifest.version != SHARD_FORMAT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: manifest.version,
                supported: SHARD_FORMAT_VERSION,
            });
        }
        let expected = config_hash(campaign.config());
        if manifest.config_hash != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: manifest.config_hash,
            });
        }
        if manifest.shard_runs == 0 {
            return Err(CheckpointError::Corrupt(
                "manifest declares zero-capacity shards".to_owned(),
            ));
        }
        if let Some(every) = self.every_epochs {
            manifest.every_epochs = every;
        }
        let grid = campaign.grid(&manifest.policies);
        let capacity = manifest.shard_runs;
        let sealed_runs = manifest.sealed.saturating_mul(capacity);
        if sealed_runs > grid.len() {
            return Err(CheckpointError::ProgressOutOfRange {
                jobs: grid.len(),
                completed: sealed_runs,
            });
        }
        let mut base = sealed_runs;
        for shard in 0..manifest.sealed {
            let runs = self.load_shard(&grid, shard, capacity)?;
            self.replay(shard * capacity, &runs, &mut sink)?;
        }
        let tail: ShardTail = self.store.load_json(&self.store.tail_path())?;
        if !tail_fits(&grid, base, &tail) {
            // A hostile capacity can make the next shard's start overflow;
            // no tail fits there.
            let past_seal = base.checked_add(capacity);
            if !past_seal.is_some_and(|start| tail_fits(&grid, start, &tail)) {
                return Err(CheckpointError::Corrupt(format!(
                    "tail does not continue the {} sealed shards in the \
                     campaign's job order",
                    manifest.sealed
                )));
            }
            let runs = self.load_shard(&grid, manifest.sealed, capacity)?;
            self.replay(base, &runs, &mut sink)?;
            manifest.sealed += 1;
            self.store
                .save_json(&self.store.manifest_path(), &manifest)?;
            base += capacity;
        }
        self.replay(base, &tail.completed, &mut sink)?;
        let done = base + tail.completed.len();
        self.recorder.counter("campaign.runs_skipped", done as u64);
        if let Some(in_flight) = &tail.in_flight {
            if in_flight.engine.next_epoch > campaign.config().epoch_count() {
                return Err(CheckpointError::Corrupt(format!(
                    "in-flight run ({:?}, chip {}) at epoch {} is past the \
                     campaign's last epoch",
                    in_flight.policy, in_flight.chip, in_flight.engine.next_epoch
                )));
            }
            self.recorder.counter(
                "campaign.epochs_skipped",
                in_flight.engine.next_epoch as u64,
            );
        }
        self.drive(campaign, &grid, manifest, tail, done, sink)
    }

    /// Loads sealed shard `index` and checks that it holds exactly the runs
    /// of its canonical slots.
    fn load_shard(
        &self,
        grid: &[RunDescriptor],
        index: usize,
        capacity: usize,
    ) -> Result<Vec<RunMetrics>, CheckpointError> {
        let runs: Vec<RunMetrics> = self.store.load_json(&self.store.shard_path(index))?;
        let start = index * capacity;
        if runs.len() != capacity || !fills_slots(grid, start, &runs) {
            return Err(CheckpointError::Corrupt(format!(
                "shard {index} does not hold the {capacity} runs of canonical slots \
                 {start}..{}",
                start + capacity
            )));
        }
        Ok(runs)
    }

    /// Feeds durable runs, the first at canonical slot `start`, to the
    /// fleet accumulator and `sink`.
    fn replay(
        &self,
        start: usize,
        runs: &[RunMetrics],
        sink: &mut impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<(), CheckpointError> {
        for (index, run) in (start..).zip(runs) {
            if let Some(fleet) = &self.fleet {
                fleet
                    .lock()
                    .expect("fleet accumulator lock")
                    .observe_completed(index, run);
            }
            sink(index, run).map_err(sink_error)?;
        }
        Ok(())
    }

    /// The shared fresh/resume loop over the campaign's canonical `grid`.
    /// The first `done` runs are durable and already delivered, the last
    /// of them held in `tail`; `sink` sees every later run exactly once, in
    /// canonical order.
    fn drive(
        &self,
        campaign: &Campaign,
        grid: &[RunDescriptor],
        mut manifest: ShardManifest,
        mut tail: ShardTail,
        mut done: usize,
        mut sink: impl FnMut(usize, &RunMetrics) -> Result<(), DynError>,
    ) -> Result<u64, CheckpointError> {
        // A tail resumed from inside a multi-shard seal may still hold a
        // full shard.
        self.seal_full_shards(&mut manifest, &mut tail)?;

        let resume_state = tail.in_flight.take().map(|state| InFlightState {
            index: done,
            partial: state.partial,
            snapshot: state.engine,
        });
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
            pinning: campaign.pinning(),
            snapshot_every: Some(manifest.every_epochs.max(1)),
            gate: Some(&gate),
            progress: self.progress.clone(),
        };

        let mut pending: BTreeMap<usize, RunMetrics> = BTreeMap::new();
        let mut snapshots: BTreeMap<usize, InFlightRun> = BTreeMap::new();
        let outcome = campaign.execute(
            &grid[done..],
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
                        let RunDescriptor { kind, chip, .. } = grid[index];
                        snapshots.insert(
                            index,
                            InFlightRun {
                                policy: kind,
                                chip,
                                partial,
                                engine: *snapshot,
                            },
                        );
                        if index == done {
                            tail.in_flight = snapshots.get(&index).cloned();
                            self.save_tail(&tail).map_err(DynError::from)?;
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
                        let before = done;
                        while let Some(metrics) = pending.remove(&done) {
                            sink(done, &metrics)?;
                            tail.completed.push(metrics);
                            done += 1;
                        }
                        if done != before {
                            // Set before sealing: every tail a seal writes
                            // then names the run at the new head.
                            tail.in_flight = snapshots.get(&done).cloned();
                            self.seal_full_shards(&mut manifest, &mut tail)
                                .map_err(DynError::from)?;
                            self.save_tail(&tail).map_err(DynError::from)?;
                        }
                    }
                }
                Ok(())
            },
        );
        if let Err(error) = outcome {
            return Err(checkpoint_error(error));
        }
        debug_assert_eq!(done, grid.len());
        Ok(done as u64)
    }

    /// Seals every full shard the tail holds: *shard file → cleared tail →
    /// manifest*, each write atomic. The manifest write is the commit.
    fn seal_full_shards(
        &self,
        manifest: &mut ShardManifest,
        tail: &mut ShardTail,
    ) -> Result<(), CheckpointError> {
        while tail.completed.len() >= manifest.shard_runs {
            let rest = tail.completed.split_off(manifest.shard_runs);
            let shard: Vec<RunMetrics> = std::mem::replace(&mut tail.completed, rest);
            self.store
                .save_json(&self.store.shard_path(manifest.sealed), &shard)?;
            self.save_tail(tail)?;
            manifest.sealed += 1;
            self.store
                .save_json(&self.store.manifest_path(), manifest)?;
            self.recorder.counter("checkpoint.shards_sealed", 1);
        }
        Ok(())
    }

    fn save_tail(&self, tail: &ShardTail) -> Result<(), CheckpointError> {
        let _write_span = self.recorder.span("checkpoint.write");
        let bytes = self.store.save_json(&self.store.tail_path(), tail)?;
        self.recorder.counter("checkpoint.writes", 1);
        self.recorder.counter("checkpoint.bytes_written", bytes);
        Ok(())
    }
}

/// Whether `runs` are the runs of the canonical slots from `start` on.
fn fills_slots(grid: &[RunDescriptor], start: usize, runs: &[RunMetrics]) -> bool {
    runs.iter().enumerate().all(|(offset, run)| {
        grid.get(start + offset)
            .is_some_and(|slot| run.policy == slot.kind.name() && run.chip_id == slot.chip)
    })
}

/// Whether `tail`'s completed runs, then its in-flight run, occupy the
/// canonical slots from `start` on. The in-flight slot is computed only
/// once the completed runs fit, which bounds it by the grid's length.
fn tail_fits(grid: &[RunDescriptor], start: usize, tail: &ShardTail) -> bool {
    fills_slots(grid, start, &tail.completed)
        && tail.in_flight.as_ref().is_none_or(|run| {
            grid.get(start + tail.completed.len())
                .is_some_and(|slot| slot.kind == run.policy && slot.chip == run.chip)
        })
}

/// Translates executor failures back into checkpoint errors: worker panics
/// map to [`CheckpointError::WorkerPanic`], and boxed gate/sink errors are
/// downcast back to the concrete types this crate fed in (checkpoint-write,
/// injected-fault, and in-flight-restore errors).
fn checkpoint_error(error: ExecutorError) -> CheckpointError {
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

/// Wraps a sink failure that is not already a checkpoint error.
fn sink_error(source: DynError) -> CheckpointError {
    match source.downcast::<CheckpointError>() {
        Ok(concrete) => *concrete,
        Err(source) => CheckpointError::Corrupt(format!("run sink aborted: {source}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hayat::SimulationConfig;

    fn tiny_campaign(chips: usize) -> Campaign {
        let mut config = SimulationConfig::quick_demo();
        config.chip_count = chips;
        config.years = 0.5;
        config.epoch_years = 0.25;
        config.transient_window_seconds = 0.05;
        Campaign::new(config).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hayat_shard_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn sharded_run_matches_plain_campaign() {
        let campaign = tiny_campaign(3);
        let dir = temp_dir("plain");
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let sharded = ShardedCheckpointer::new(&dir)
            .shard_runs(2)
            .run(&campaign, &policies)
            .unwrap();
        assert_eq!(sharded, campaign.run(&policies));
        // 6 runs at capacity 2: three sealed shards, empty tail.
        let manifest: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(dir.join("manifest.json")).unwrap())
                .unwrap();
        assert_eq!(manifest.sealed, 3);
        let tail: ShardTail =
            serde_json::from_str(&std::fs::read_to_string(dir.join("tail.json")).unwrap()).unwrap();
        assert!(tail.completed.is_empty());
        assert!(tail.in_flight.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_sharded_campaign_resumes_bit_identically() {
        let campaign = tiny_campaign(2);
        let dir = temp_dir("resume");
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let interrupted = ShardedCheckpointer::new(&dir)
            .every(1)
            .shard_runs(1)
            .jobs(Jobs::serial())
            .with_failpoint(FailPoint::armed(
                FAILPOINT_EPOCH,
                5,
                crate::failpoint::FailMode::Error,
            ))
            .run(&campaign, &policies);
        assert!(matches!(interrupted, Err(CheckpointError::Injected(_))));

        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&policies));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_sink_sees_every_run_once_in_canonical_order() {
        let campaign = tiny_campaign(2);
        let dir = temp_dir("streamed");
        let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
        let mut indices = Vec::new();
        let total = ShardedCheckpointer::new(&dir)
            .shard_runs(3)
            .run_streamed(&campaign, &policies, |index, _| {
                indices.push(index);
                Ok(())
            })
            .unwrap();
        assert_eq!(total, 4);
        assert_eq!(indices, vec![0, 1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_replays_prefix_then_continues() {
        let campaign = tiny_campaign(2);
        let dir = temp_dir("replay");
        let policies = [PolicyKind::Hayat];
        let interrupted = ShardedCheckpointer::new(&dir)
            .every(1)
            .shard_runs(1)
            .jobs(Jobs::serial())
            .with_failpoint(FailPoint::armed(
                FAILPOINT_CHIP,
                1,
                crate::failpoint::FailMode::Error,
            ))
            .run(&campaign, &policies);
        assert!(interrupted.is_err());

        let mut streamed = Vec::new();
        let total = ShardedCheckpointer::new(&dir)
            .resume_streamed(&campaign, |index, run| {
                streamed.push((index, run.clone()));
                Ok(())
            })
            .unwrap();
        assert_eq!(total, 2);
        let plain = campaign.run(&policies);
        assert_eq!(
            streamed,
            plain.runs.iter().cloned().enumerate().collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn forward_manifest_versions_are_rejected() {
        let campaign = tiny_campaign(1);
        let dir = temp_dir("version");
        ShardedCheckpointer::new(&dir)
            .run(&campaign, &[PolicyKind::Hayat])
            .unwrap();
        let manifest_path = dir.join("manifest.json");
        let mut manifest: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        manifest.version = SHARD_FORMAT_VERSION + 1;
        std::fs::write(&manifest_path, serde_json::to_string(&manifest).unwrap()).unwrap();
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&campaign),
            Err(CheckpointError::VersionMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let campaign = tiny_campaign(1);
        let dir = temp_dir("config");
        ShardedCheckpointer::new(&dir)
            .run(&campaign, &[PolicyKind::Hayat])
            .unwrap();
        let other = tiny_campaign(2);
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn read_json<T: Deserialize>(path: &Path) -> T {
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn write_json<T: Serialize>(path: &Path, value: &T) {
        std::fs::write(path, serde_json::to_string(value).unwrap()).unwrap();
    }

    /// Rewinds the manifest's sealed count, as a crash after a seal's tail
    /// write but before its manifest commit leaves it.
    fn rewind_manifest(dir: &Path, sealed: usize) {
        let path = dir.join("manifest.json");
        let mut manifest: ShardManifest = read_json(&path);
        manifest.sealed = sealed;
        write_json(&path, &manifest);
    }

    #[test]
    fn resume_commits_the_shard_a_crashed_seal_left_uncommitted() {
        // 5 runs at capacity 2: shards {0, 1} and {2, 3}, tail [4]. With the
        // manifest rewound to one shard the tail starts one shard past it;
        // resume must splice shard 1 back in, not run 4 after run 1.
        let campaign = tiny_campaign(5);
        let dir = temp_dir("seal_crash_tail");
        let policies = [PolicyKind::Hayat];
        ShardedCheckpointer::new(&dir)
            .shard_runs(2)
            .run(&campaign, &policies)
            .unwrap();
        rewind_manifest(&dir, 1);

        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&policies));
        let manifest: ShardManifest = read_json(&dir.join("manifest.json"));
        assert_eq!(manifest.sealed, 2, "the recovered shard is committed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_commits_the_shard_behind_an_in_flight_tail() {
        // Interrupted inside chip 4's second epoch (2 epochs per run, so
        // epoch gate 10): shards {0, 1} and {2, 3}, an empty tail, chip 4
        // in flight. Rewound to one shard, the in-flight run sits one
        // shard past the manifest.
        let campaign = tiny_campaign(5);
        let dir = temp_dir("seal_crash_in_flight");
        let policies = [PolicyKind::Hayat];
        let interrupted = ShardedCheckpointer::new(&dir)
            .every(1)
            .shard_runs(2)
            .jobs(Jobs::serial())
            .with_failpoint(FailPoint::armed(
                FAILPOINT_EPOCH,
                10,
                crate::failpoint::FailMode::Error,
            ))
            .run(&campaign, &policies);
        assert!(matches!(interrupted, Err(CheckpointError::Injected(_))));
        let tail: ShardTail = read_json(&dir.join("tail.json"));
        assert!(tail.completed.is_empty());
        assert_eq!(tail.in_flight.map(|run| run.chip), Some(4));
        rewind_manifest(&dir, 1);

        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&policies));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_seal_that_fails_before_its_manifest_commit_resumes() {
        // A directory squatting on the manifest's temp path fails the
        // manifest write of shard 0's seal, after the shard and tail
        // writes: the on-disk state of a crash inside the seal. The tail
        // must not name the just-sealed run as still in flight.
        let campaign = tiny_campaign(3);
        let dir = temp_dir("seal_manifest_failure");
        let policies = [PolicyKind::Hayat];
        let blocker = dir.join("manifest.json.tmp");
        let failed = ShardedCheckpointer::new(&dir)
            .every(1)
            .shard_runs(2)
            .jobs(Jobs::serial())
            .run_streamed(&campaign, &policies, |index, _| {
                if index == 1 {
                    std::fs::create_dir(&blocker)?;
                }
                Ok(())
            });
        assert!(matches!(failed, Err(CheckpointError::Io { .. })));
        std::fs::remove_dir(&blocker).unwrap();

        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&policies));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runs_outside_their_canonical_slot_are_corrupt() {
        let campaign = tiny_campaign(5);
        let policies = [PolicyKind::Hayat];
        let finished = |name: &str| {
            let dir = temp_dir(name);
            ShardedCheckpointer::new(&dir)
                .shard_runs(2)
                .run(&campaign, &policies)
                .unwrap();
            dir
        };

        // The tail's run 4 relabelled as chip 3: it fits neither after the
        // sealed shards nor one shard past them.
        let dir = finished("misplaced_tail");
        let tail_path = dir.join("tail.json");
        let mut tail: ShardTail = read_json(&tail_path);
        tail.completed[0].chip_id = 3;
        write_json(&tail_path, &tail);
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&campaign),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();

        // A sealed shard with its two runs swapped.
        let dir = finished("misplaced_shard");
        let shard_path = dir.join("shard-00000.json");
        let mut shard: Vec<RunMetrics> = read_json(&shard_path);
        shard.swap(0, 1);
        write_json(&shard_path, &shard);
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&campaign),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resuming_a_finished_directory_writes_nothing() {
        let campaign = tiny_campaign(5);
        let dir = temp_dir("finished");
        let policies = [PolicyKind::Hayat];
        let fresh = ShardedCheckpointer::new(&dir)
            .shard_runs(2)
            .run(&campaign, &policies)
            .unwrap();
        let memory = Arc::new(hayat_telemetry::MemoryRecorder::new());
        let resumed = ShardedCheckpointer::new(&dir)
            .with_recorder(memory.clone())
            .resume(&campaign)
            .unwrap();
        assert_eq!(resumed, fresh);
        let summary = memory.summary();
        assert_eq!(summary.counter_total("campaign.runs_skipped"), Some(5));
        assert_eq!(summary.counter_total("checkpoint.shards_sealed"), None);
        assert_eq!(summary.counter_total("checkpoint.writes"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_hostile_shard_capacity_is_corrupt_not_an_overflow() {
        // At a capacity of usize::MAX the shard after the sealed ones would
        // start past the end of the address space; the tail cannot sit
        // there, and resume must say so instead of overflowing.
        let campaign = tiny_campaign(5);
        let dir = temp_dir("hostile_capacity");
        ShardedCheckpointer::new(&dir)
            .shard_runs(2)
            .run(&campaign, &[PolicyKind::Hayat])
            .unwrap();
        let path = dir.join("manifest.json");
        let mut manifest: ShardManifest = read_json(&path);
        manifest.shard_runs = usize::MAX;
        manifest.sealed = 0;
        write_json(&path, &manifest);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"shard_runs\":18446744073709551615"));
        assert!(matches!(
            ShardedCheckpointer::new(&dir).resume(&campaign),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_durable_files_are_typed_errors() {
        // Every strict prefix of every durable file — the manifest, the
        // tail and a sealed shard of a finished directory, and a v1 file
        // on import — must be rejected with an error, never a panic.
        let campaign = tiny_campaign(5);
        let dir = temp_dir("truncated");
        ShardedCheckpointer::new(&dir)
            .shard_runs(2)
            .run(&campaign, &[PolicyKind::Hayat])
            .unwrap();
        let rejected = |outcome: Result<_, CheckpointError>| {
            matches!(
                outcome,
                Err(CheckpointError::Corrupt(_) | CheckpointError::Io { .. })
            )
        };
        for name in ["manifest.json", "tail.json", "shard-00000.json"] {
            let path = dir.join(name);
            let bytes = std::fs::read(&path).unwrap();
            for len in 0..bytes.len() {
                std::fs::write(&path, &bytes[..len]).unwrap();
                let outcome = ShardedCheckpointer::new(&dir).resume(&campaign);
                assert!(rejected(outcome.map(drop)), "{name} cut to {len} bytes");
            }
            std::fs::write(&path, &bytes).unwrap();
        }
        assert!(ShardedCheckpointer::new(&dir).resume(&campaign).is_ok());

        let v1 = v1_file_with_a_run_in_flight(&dir.join("v1_source"));
        let file = dir.join("v1.ckpt");
        let importer = ShardedCheckpointer::new(dir.join("imported"));
        for len in 0..v1.len() {
            std::fs::write(&file, &v1[..len]).unwrap();
            assert!(
                rejected(importer.import_v1(&file)),
                "v1 file cut to {len} bytes"
            );
        }
        assert!(!importer.has_manifest(), "a failed import commits nothing");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The bytes of a v1 file holding one completed run and one in flight,
    /// assembled from a campaign interrupted in `scratch` (a 4×4 die keeps
    /// the engine snapshot small).
    fn v1_file_with_a_run_in_flight(scratch: &Path) -> Vec<u8> {
        let mut config = SimulationConfig::quick_demo();
        config.mesh = (4, 4);
        config.years = 0.5;
        config.epoch_years = 0.25;
        config.transient_window_seconds = 0.05;
        let campaign = Campaign::new(config).unwrap();
        // Two epochs per run: the fourth epoch gate is chip 1's second.
        let interrupted = ShardedCheckpointer::new(scratch)
            .every(1)
            .jobs(Jobs::serial())
            .with_failpoint(FailPoint::armed(
                FAILPOINT_EPOCH,
                4,
                crate::failpoint::FailMode::Error,
            ))
            .run(&campaign, &[PolicyKind::Hayat]);
        assert!(matches!(interrupted, Err(CheckpointError::Injected(_))));
        let manifest: ShardManifest = read_json(&scratch.join("manifest.json"));
        let tail: ShardTail = read_json(&scratch.join("tail.json"));
        assert_eq!(tail.completed.len(), 1);
        assert!(tail.in_flight.is_some());
        let v1 = CampaignCheckpoint {
            version: crate::FORMAT_VERSION,
            config_hash: manifest.config_hash,
            every_epochs: manifest.every_epochs,
            policies: manifest.policies,
            completed: tail.completed,
            in_flight: tail.in_flight,
        };
        serde_json::to_string(&v1).unwrap().into_bytes()
    }

    #[test]
    fn orphan_shard_from_a_seal_crash_is_harmless() {
        // Simulate the crash window between the shard write and the
        // manifest commit: an orphan shard file exists but the manifest
        // doesn't count it. Resume must ignore it and still produce the
        // uninterrupted result.
        let campaign = tiny_campaign(2);
        let dir = temp_dir("orphan");
        let policies = [PolicyKind::Hayat];
        ShardedCheckpointer::new(&dir)
            .shard_runs(1)
            .run(&campaign, &policies)
            .unwrap();
        // Rewind the manifest by one sealed shard, leaving shard-00001 an
        // orphan; its runs vanish from the durable prefix.
        let manifest_path = dir.join("manifest.json");
        let mut manifest: ShardManifest =
            serde_json::from_str(&std::fs::read_to_string(&manifest_path).unwrap()).unwrap();
        manifest.sealed -= 1;
        std::fs::write(&manifest_path, serde_json::to_string(&manifest).unwrap()).unwrap();

        let resumed = ShardedCheckpointer::new(&dir).resume(&campaign).unwrap();
        assert_eq!(resumed, campaign.run(&policies));
        std::fs::remove_dir_all(&dir).ok();
    }
}
