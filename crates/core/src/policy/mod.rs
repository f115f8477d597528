//! Run-time mapping policies.

pub mod exhaustive;
pub mod hayat;
pub mod simple;
pub mod vaa;

use crate::mapping::ThreadMapping;
use crate::system::ChipSystem;
use hayat_aging::AgeCurveScratch;
use hayat_floorplan::CoreId;
use hayat_power::PowerState;
use hayat_telemetry::{Recorder, NULL_RECORDER};
use hayat_thermal::TemperatureMap;
use hayat_units::{Gigahertz, Kelvin, Watts, Years};
use hayat_workload::{ThreadId, WorkloadMix};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Reusable buffers for the epoch decision path.
///
/// Every per-decision working set the policies need — temperature-rise
/// accumulators, the sorted thread work list, per-core snapshots that used
/// to be recomputed per *candidate*, the collapsed age-curve scratch, and a
/// pool of recycled [`ThreadMapping`]s — lives here, owned by the caller
/// (normally the engine) and handed to policies through
/// [`PolicyContext::with_scratch`]. After the first decision warms the
/// capacities up, a decision performs **zero heap allocations**; the
/// `alloc_free_decision` integration test counts them.
///
/// Policies called without a scratch (unit tests, one-off evaluations) fall
/// back to a local instance and behave identically — the scratch is a pure
/// cache and never carries state between decisions.
#[derive(Debug, Default)]
pub struct PolicyScratch {
    /// Per-core aged maximum frequency snapshot, GHz (one read of the
    /// health map per decision instead of one per candidate).
    pub aged_fmax: Vec<f64>,
    /// Per-core idle leakage at the DCM stage's typical operating
    /// temperature, watts.
    pub dcm_leakage: Vec<f64>,
    /// Per-core idle leakage at the power model's reference temperature,
    /// watts (the thread-power estimate's leakage share).
    pub ref_leakage: Vec<f64>,
    /// Temperature rise above ambient accumulated by the threads mapped so
    /// far (Algorithm 1's incremental superposition state).
    pub rise: Vec<f64>,
    /// The DCM greedy stage's own rise accumulator.
    pub dcm_rise: Vec<f64>,
    /// The Dark Core Map under construction (`true` = planned on).
    pub on: Vec<bool>,
    /// Sort buffer for the preserve-threshold frequency quantile.
    pub freqs: Vec<f64>,
    /// The `(required frequency, thread)` work list, sorted hardest-first.
    pub threads: Vec<(Gigahertz, ThreadId)>,
    /// BFS output buffer (VAA's contiguous-region growth).
    pub region: Vec<CoreId>,
    /// BFS visited markers.
    pub seen: Vec<bool>,
    /// BFS frontier.
    pub queue: VecDeque<CoreId>,
    /// Scratch for the collapsed 1D age curve of the candidate health
    /// advance.
    pub age_curve: AgeCurveScratch,
    /// DCM greedy: each core's frequency term of the score,
    /// `min(f, cap) − excess·max(0, f − preserve threshold)`.
    pub dcm_base: Vec<f64>,
    /// DCM greedy: each core's own share of its predicted temperature,
    /// `power·R[c][c]`.
    pub dcm_self_rise: Vec<f64>,
    /// DCM greedy: each core's leakage penalty, `μ·leakage`.
    pub dcm_leak_penalty: Vec<f64>,
    /// VAA: per-core count of occupied mesh neighbours, kept current on
    /// every assignment of the decision.
    pub occupied_neighbors: Vec<u8>,
    /// Stage-2 pruning: certainly-infeasible candidates deferred as
    /// `(peak lower bound, on-list position)` until the thread is known to
    /// need the thermal-emergency fallback.
    pub fallback_pool: Vec<(f64, u32)>,
    /// Stage-2 pruning: indices of the hottest rise lanes (rise descending,
    /// index ascending), rebuilt after each assignment — a candidate's peak
    /// usually sits on one of these, so they make the O(1) peak lower bound
    /// tight.
    pub hot_lanes: Vec<u32>,
    /// Stage 2: on-DCM core indices in ascending order — Algorithm 1's
    /// candidate list without the all-cores filter walk.
    pub on_list: Vec<u32>,
    /// Recycled mappings: policies pop from here instead of allocating and
    /// the engine pushes each epoch's mapping back after its transient
    /// window.
    pub mapping_pool: Vec<ThreadMapping>,
}

impl PolicyScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    #[must_use]
    pub fn new() -> Self {
        PolicyScratch::default()
    }

    /// Pops a recycled mapping (cleared and re-sized to `cores`) or
    /// allocates a fresh one when the pool is empty.
    #[must_use]
    pub fn take_mapping(&mut self, cores: usize) -> ThreadMapping {
        match self.mapping_pool.pop() {
            Some(mut mapping) => {
                mapping.reset(cores);
                mapping
            }
            None => ThreadMapping::empty(cores),
        }
    }
}

/// The read-only view a policy gets of the system when (re)mapping at an
/// epoch boundary.
#[derive(Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The chip system (geometry, variation, health, predictor, table, …).
    pub system: &'a ChipSystem,
    /// Health-estimation horizon for candidate evaluation (Algorithm 1
    /// estimates "the future (e.g., 1 year) health").
    pub horizon: Years,
    /// Simulated time already elapsed, used by policies that distinguish
    /// early- from late-aging phases.
    pub elapsed: Years,
    /// Telemetry sink for decision-path instrumentation (decision-latency
    /// spans, candidates-evaluated counters). Defaults to the zero-cost
    /// [`hayat_telemetry::NullRecorder`]; recorders must never influence the
    /// mapping a policy produces.
    pub recorder: &'a dyn Recorder,
    /// Optional reusable decision buffers. `None` (the default) makes each
    /// policy fall back to a throw-away local scratch; the engine threads
    /// its own through every epoch so decisions stop allocating. Like the
    /// recorder, the scratch must never influence the mapping produced.
    pub scratch: Option<&'a RefCell<PolicyScratch>>,
}

impl<'a> PolicyContext<'a> {
    /// A context with the default (null) recorder and no shared scratch.
    #[must_use]
    pub fn new(system: &'a ChipSystem, horizon: Years, elapsed: Years) -> Self {
        PolicyContext {
            system,
            horizon,
            elapsed,
            recorder: &NULL_RECORDER,
            scratch: None,
        }
    }

    /// Replaces the telemetry sink.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches reusable decision buffers (see [`PolicyScratch`]).
    #[must_use]
    pub fn with_scratch(mut self, scratch: &'a RefCell<PolicyScratch>) -> Self {
        self.scratch = Some(scratch);
        self
    }
}

impl std::fmt::Debug for PolicyContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyContext")
            .field("horizon", &self.horizon)
            .field("elapsed", &self.elapsed)
            .field("recorder_enabled", &self.recorder.enabled())
            .field("has_scratch", &self.scratch.is_some())
            .finish_non_exhaustive()
    }
}

/// A run-time thread-to-core mapping policy.
///
/// Policies run at aging-epoch boundaries (and when workloads change) and
/// produce a full [`ThreadMapping`]; cores left unmapped are power-gated,
/// which makes the mapping double as the Dark Core Map. Implementations
/// must respect the dark-silicon budget (`mapping.active_cores() ≤
/// budget.max_on()`) and each thread's minimum-frequency requirement.
pub trait Policy {
    /// Human-readable policy name (used in reports and figures).
    fn name(&self) -> &str;

    /// Maps every thread of `workload` to a core.
    ///
    /// Threads that cannot be feasibly placed (no healthy-enough core left
    /// within the budget) are dropped from the mapping; the engine counts
    /// them as unplaced and the metrics report them.
    fn map_threads(&mut self, ctx: &PolicyContext<'_>, workload: &WorkloadMix) -> ThreadMapping;

    /// The policy's internal RNG state, if it has one (`None` for the
    /// stateless policies). Checkpointing captures this so a resumed run
    /// continues the exact random sequence of the uninterrupted run.
    fn rng_state(&self) -> Option<u64> {
        None
    }

    /// Restores state captured by [`Policy::rng_state`]. The default
    /// implementation is a no-op for stateless policies.
    fn restore_rng_state(&mut self, _state: u64) {}
}

/// Builds the per-core power vector implied by a mapping: mapped cores run
/// their thread at its required frequency (threads "only run at their
/// required frequency and not faster"), unmapped cores are power-gated.
/// Leakage is evaluated at the given per-core temperatures.
#[must_use]
pub fn power_vector(
    system: &ChipSystem,
    mapping: &ThreadMapping,
    workload: &WorkloadMix,
    temps: &TemperatureMap,
) -> Vec<Watts> {
    let fp = system.floorplan();
    let model = system.power_model();
    fp.cores()
        .map(|core| {
            let state = match mapping.thread_on(core) {
                Some(tid) => {
                    let profile = workload.thread(tid);
                    PowerState::Active {
                        dynamic: profile.dynamic_power(profile.min_frequency()),
                    }
                }
                None => PowerState::Dark,
            };
            model.core_power(state, system.chip().leakage_factor(core), temps.core(core))
        })
        .collect()
}

/// Predicts the chip temperature map for a tentative mapping using the
/// system's superposition predictor with a one-shot leakage correction:
/// the base vector evaluates leakage at the reference temperature, then the
/// predictor adds the extra leakage at the predicted temperatures.
#[must_use]
pub fn predict_mapping_temperatures(
    system: &ChipSystem,
    mapping: &ThreadMapping,
    workload: &WorkloadMix,
) -> TemperatureMap {
    let fp = system.floorplan();
    let model = system.power_model();
    let reference = model.config().reference_temperature;
    let base_temps = TemperatureMap::uniform(fp.core_count(), reference);
    let base_power = power_vector(system, mapping, workload, &base_temps);
    system
        .predictor()
        .predict_with_leakage(fp, &base_power, |core, t: Kelvin| {
            let state = match mapping.thread_on(core) {
                Some(_) => PowerState::Idle, // leakage share of an on core
                None => PowerState::Dark,
            };
            let lf = system.chip().leakage_factor(core);
            model.leakage(state, lf, t) - model.leakage(state, lf, reference)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::config::SimulationConfig;
    use hayat_floorplan::CoreId;
    use hayat_workload::ThreadId;

    fn setup() -> (ChipSystem, WorkloadMix) {
        let system = ChipSystem::paper_chip(0, &SimulationConfig::quick_demo()).unwrap();
        let workload = WorkloadMix::generate(3, 8);
        (system, workload)
    }

    #[test]
    fn power_vector_distinguishes_dark_and_active() {
        let (system, workload) = setup();
        let mut mapping = ThreadMapping::empty(64);
        let (tid, _) = workload.threads().next().unwrap();
        mapping.assign(tid, CoreId::new(10));
        let temps = TemperatureMap::uniform(64, system.thermal_config().ambient);
        let p = power_vector(&system, &mapping, &workload, &temps);
        assert_eq!(p.len(), 64);
        // The active core dissipates watts; dark cores only the gated residue.
        assert!(p[10].value() > 1.0);
        assert!(p[0].value() < 0.1);
    }

    #[test]
    fn predicted_temperatures_rise_with_load() {
        let (system, workload) = setup();
        let empty = ThreadMapping::empty(64);
        let t_empty = predict_mapping_temperatures(&system, &empty, &workload);
        let mut loaded = ThreadMapping::empty(64);
        for (i, (tid, _)) in workload.threads().enumerate() {
            loaded.assign(tid, CoreId::new(i * 8));
        }
        let t_loaded = predict_mapping_temperatures(&system, &loaded, &workload);
        assert!(t_loaded.mean() > t_empty.mean());
        assert!(t_loaded.max() > t_empty.max());
    }

    #[test]
    fn leakage_correction_raises_loaded_prediction() {
        let (system, workload) = setup();
        let mut mapping = ThreadMapping::empty(64);
        for (i, (tid, _)) in workload.threads().enumerate() {
            mapping.assign(tid, CoreId::new(i));
        }
        // Without correction: plain predict on the reference-temp vector.
        let fp = system.floorplan();
        let reference = system.power_model().config().reference_temperature;
        let base_temps = TemperatureMap::uniform(64, reference);
        let base_power = power_vector(&system, &mapping, &workload, &base_temps);
        let uncorrected = system.predictor().predict(fp, &base_power);
        let corrected = predict_mapping_temperatures(&system, &mapping, &workload);
        // Hot clustered cores leak more, so the corrected peak is higher.
        assert!(corrected.max() >= uncorrected.max());
    }

    #[test]
    fn scratch_recycles_mappings() {
        let mut scratch = PolicyScratch::new();
        let mut m = scratch.take_mapping(8);
        m.assign(ThreadId::new(0, 0), CoreId::new(3));
        scratch.mapping_pool.push(m);
        let recycled = scratch.take_mapping(4);
        assert_eq!(recycled.core_count(), 4);
        assert_eq!(recycled.active_cores(), 0);
        // Pool drained: the next take allocates fresh.
        assert_eq!(scratch.take_mapping(2).core_count(), 2);
    }

    #[test]
    fn context_carries_scratch_by_reference() {
        let (system, _) = setup();
        let cell = std::cell::RefCell::new(PolicyScratch::new());
        let ctx = PolicyContext::new(
            &system,
            hayat_units::Years::new(1.0),
            hayat_units::Years::new(0.0),
        )
        .with_scratch(&cell);
        assert!(ctx.scratch.is_some());
        assert!(format!("{ctx:?}").contains("has_scratch: true"));
        let plain = PolicyContext::new(
            &system,
            hayat_units::Years::new(1.0),
            hayat_units::Years::new(0.0),
        );
        assert!(plain.scratch.is_none());
    }

    #[test]
    fn unmapped_thread_is_simply_absent() {
        let (system, workload) = setup();
        let mapping = ThreadMapping::empty(64);
        let temps = TemperatureMap::uniform(64, system.thermal_config().ambient);
        let p = power_vector(&system, &mapping, &workload, &temps);
        assert!(p.iter().all(|w| w.value() < 0.1));
        let _ = ThreadId::new(0, 0); // ids remain valid even when unmapped
    }
}
