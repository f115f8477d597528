//! Lockstep execution of N chips per worker claim — the batched
//! structure-of-arrays data path.
//!
//! A [`ChipBatch`] owns B [`SimulationEngine`]s built from the same
//! campaign configuration and advances them **in lockstep** through the
//! epoch loop: every lane's policy decision runs serially in canonical
//! order against one batch-shared [`PolicyScratch`] (amortizing the warmed
//! candidate-scan and aging-curve caches), then each control period runs
//! every lane's DTM/power half-step before a single batched thermal solve
//! ([`BatchedTransient`]) advances all lanes' temperature vectors through
//! one cached factorization traversal.
//!
//! The hot state is structure-of-arrays where it pays: the B right-hand
//! sides of the implicit thermal solve interleave per node
//! (`hayat_linalg::BandedCholeskyFactor::solve_many_in_place`), while the
//! per-chip health, leakage, and rise state stay inside each engine — the
//! SoA strides across chips and never reassociates within a chip, so every
//! lane performs exactly the FP operation sequence of a serial
//! [`SimulationEngine::run_epoch`] and batch output is byte-identical to
//! `--batch 1` (pinned by `batched_epochs_match_serial_bitwise` and the
//! campaign-level proptests).
//!
//! A batch of one engine is the executor's `--batch 1` path: it steps
//! through the engine's own [`SimulationEngine::run_epoch`], so a width-1
//! claim keeps the per-chip span shape (`engine.epoch` around decision,
//! window and upscale) and steps the thermal state in place, without the
//! batched solve's staging copies.
//!
//! Telemetry shape differs under wider batching (one
//! `thermal.transient.step` span per batched step instead of per chip;
//! each lane's `engine.epoch` span covers its decision only); campaign
//! *output* is unaffected — spans are observational.

use crate::metrics::EpochRecord;
use crate::policy::PolicyScratch;
use crate::sim::engine::{EpochDecision, SimulationEngine, WindowAccum};
use hayat_telemetry::RecorderExt;
use hayat_thermal::{BatchLane, BatchedTransient};
use hayat_units::Watts;
use std::cell::RefCell;
use std::sync::Arc;

/// B chips advanced in lockstep through the epoch loop with batched
/// thermal solves and one shared policy scratch.
///
/// Lanes may start at different epochs (checkpoint resume): a lane whose
/// `start_epoch` is after the current epoch simply sits out the step.
pub(crate) struct ChipBatch {
    engines: Vec<SimulationEngine>,
    start_epochs: Vec<usize>,
    /// One policy scratch for the whole batch — a pure cache (never carries
    /// state between decisions), so serial per-lane decisions through it
    /// are output-identical to per-engine scratches.
    scratch: RefCell<PolicyScratch>,
    thermal: BatchedTransient,
    /// Per-lane power buffers, reused across steps and epochs.
    powers: Vec<Vec<Watts>>,
}

impl ChipBatch {
    /// Builds a batch over engines that all share one campaign
    /// configuration (floorplan, thermal config, epoch schedule), lane `i`
    /// starting at `start_epochs[i]` (0 for a fresh run, later for a
    /// resumed one).
    ///
    /// # Panics
    ///
    /// Panics if `engines` is empty or the lengths disagree.
    #[must_use]
    pub(crate) fn with_start_epochs(
        engines: Vec<SimulationEngine>,
        start_epochs: Vec<usize>,
    ) -> Self {
        assert!(!engines.is_empty(), "a batch needs at least one engine");
        assert_eq!(
            engines.len(),
            start_epochs.len(),
            "one start epoch per engine"
        );
        let thermal = BatchedTransient::new(engines[0].system().transient());
        let cores = engines[0].system().floorplan().core_count();
        let powers = engines.iter().map(|_| Vec::with_capacity(cores)).collect();
        ChipBatch {
            engines,
            start_epochs,
            scratch: RefCell::new(PolicyScratch::new()),
            thermal,
            powers,
        }
    }

    /// The engine on `lane`, for snapshotting and metric finalization.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    #[must_use]
    pub(crate) fn engine(&self, lane: usize) -> &SimulationEngine {
        &self.engines[lane]
    }

    /// Runs `epoch` across every lane whose run has reached it, in
    /// lockstep, returning `(lane, record)` pairs in lane order. Each
    /// lane's record is bit-identical to what its engine's serial
    /// [`SimulationEngine::run_epoch`] would have produced; a one-lane
    /// batch simply calls it.
    pub(crate) fn run_epoch(&mut self, epoch: usize) -> Vec<(usize, EpochRecord)> {
        if let [engine] = self.engines.as_mut_slice() {
            return if self.start_epochs[0] <= epoch {
                vec![(0, engine.run_epoch(epoch))]
            } else {
                Vec::new()
            };
        }
        let active: Vec<usize> = (0..self.engines.len())
            .filter(|&lane| self.start_epochs[lane] <= epoch)
            .collect();
        if active.is_empty() {
            return Vec::new();
        }
        // Phase 1 — decisions, serial in canonical lane order through the
        // shared scratch. Each lane's epoch span covers its decision (the
        // window below interleaves lanes, so per-lane span timing under
        // batching measures the decision only).
        let mut decisions: Vec<EpochDecision> = Vec::with_capacity(active.len());
        for &lane in &active {
            let engine = &mut self.engines[lane];
            let recorder = Arc::clone(engine.recorder());
            if recorder.enabled() {
                recorder.set_context(engine.span_context().with_epoch(epoch as u64));
            }
            let _epoch_span = recorder.span("engine.epoch");
            decisions.push(engine.epoch_decide(epoch, Some(&self.scratch)));
        }
        // Phase 2 — the transient window, lockstep across lanes: every
        // lane's DTM/power half-step, one batched thermal solve, every
        // lane's statistics fold.
        let mut accums: Vec<WindowAccum> = active
            .iter()
            .zip(&decisions)
            .map(|(&lane, decision)| self.engines[lane].window_begin(&decision.workload))
            .collect();
        let steps = accums[0].steps;
        let dt = self.engines[active[0]].config().control_period();
        let recorder = Arc::clone(self.engines[active[0]].recorder());
        for step in 0..steps {
            for ((&lane, decision), accum) in active.iter().zip(&mut decisions).zip(&mut accums) {
                self.engines[lane].window_power_step(step, decision, accum, &mut self.powers[lane]);
            }
            {
                let powers = &self.powers;
                let start_epochs = &self.start_epochs;
                let mut lanes: Vec<BatchLane<'_>> = self
                    .engines
                    .iter_mut()
                    .enumerate()
                    .filter(|(lane, _)| start_epochs[*lane] <= epoch)
                    .map(|(lane, engine)| BatchLane {
                        sim: engine.system_mut().transient_mut(),
                        power: &powers[lane],
                    })
                    .collect();
                self.thermal
                    .step_recorded(dt, &mut lanes, recorder.as_ref());
            }
            for (&lane, accum) in active.iter().zip(&mut accums) {
                self.engines[lane].window_absorb_step(accum);
            }
        }
        // Phase 3 — epoch upscale per lane, serial in canonical order.
        let mut records = Vec::with_capacity(active.len());
        for ((&lane, decision), accum) in active.iter().zip(decisions).zip(accums) {
            let engine = &mut self.engines[lane];
            let recorder = Arc::clone(engine.recorder());
            if recorder.enabled() {
                recorder.set_context(engine.span_context().with_epoch(epoch as u64));
            }
            let outcome = accum.finish();
            records.push((
                lane,
                engine.epoch_finish(epoch, decision, outcome, Some(&self.scratch)),
            ));
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::hayat::HayatPolicy;
    use crate::sim::campaign::Campaign;
    use crate::sim::config::SimulationConfig;
    use crate::system::ChipSystem;

    fn engines(count: usize) -> Vec<SimulationEngine> {
        let mut config = SimulationConfig::quick_demo();
        config.chip_count = count;
        (0..count)
            .map(|chip| {
                let system = ChipSystem::paper_chip(chip, &config).unwrap();
                SimulationEngine::new(system, Box::<HayatPolicy>::default(), &config)
            })
            .collect()
    }

    #[test]
    fn batched_epochs_match_serial_bitwise() {
        let config = SimulationConfig::quick_demo();
        let serial: Vec<_> = engines(3)
            .into_iter()
            .map(|mut engine| {
                let mut metrics = engine.start_metrics();
                engine.run_epochs(0, config.epoch_count(), &mut metrics);
                engine.finalize_metrics(&mut metrics);
                metrics
            })
            .collect();
        let mut batch = ChipBatch::with_start_epochs(engines(3), vec![0; 3]);
        let mut metrics: Vec<_> = (0..3)
            .map(|lane| batch.engine(lane).start_metrics())
            .collect();
        for epoch in 0..config.epoch_count() {
            for (lane, record) in batch.run_epoch(epoch) {
                metrics[lane].epochs.push(record);
            }
        }
        for (lane, m) in metrics.iter_mut().enumerate() {
            batch.engine(lane).finalize_metrics(m);
        }
        assert_eq!(metrics, serial, "lockstep output must not drift a bit");
    }

    #[test]
    fn one_lane_batch_matches_the_engine_bitwise_also_when_resumed() {
        let config = SimulationConfig::quick_demo();
        let epochs = config.epoch_count();
        let mut serial = engines(1).remove(0);
        let reference: Vec<EpochRecord> = (0..epochs).map(|e| serial.run_epoch(e)).collect();
        let records = |batch: &mut ChipBatch| -> Vec<EpochRecord> {
            (0..epochs)
                .flat_map(|epoch| batch.run_epoch(epoch))
                .map(|(lane, record)| {
                    assert_eq!(lane, 0);
                    record
                })
                .collect()
        };
        let mut batch = ChipBatch::with_start_epochs(engines(1), vec![0]);
        assert_eq!(records(&mut batch), reference);

        // A lane restored from a mid-run snapshot joins late, as a resumed
        // run does, and continues the serial trajectory exactly.
        let cut = epochs / 2;
        let mut first = engines(1).remove(0);
        for epoch in 0..cut {
            let _ = first.run_epoch(epoch);
        }
        let mut resumed = engines(1).remove(0);
        resumed.restore(&first.snapshot(cut)).unwrap();
        let mut batch = ChipBatch::with_start_epochs(vec![resumed], vec![cut]);
        assert_eq!(records(&mut batch), reference[cut..]);
    }

    #[test]
    fn one_lane_batch_keeps_the_engine_span_shape() {
        let config = SimulationConfig::quick_demo();
        let traced = || {
            let memory = Arc::new(hayat_telemetry::MemoryRecorder::new());
            let engine = engines(1).remove(0).with_recorder(memory.clone());
            (engine, memory)
        };
        let (mut plain, plain_memory) = traced();
        let (engine, batch_memory) = traced();
        let mut batch = ChipBatch::with_start_epochs(vec![engine], vec![0]);
        for epoch in 0..config.epoch_count() {
            let _ = plain.run_epoch(epoch);
            let _ = batch.run_epoch(epoch);
        }
        let (plain, batched) = (plain_memory.summary(), batch_memory.summary());
        let counts = |summary: &hayat_telemetry::TelemetrySummary| {
            summary
                .spans
                .iter()
                .map(|span| (span.name.clone(), span.count))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&batched), counts(&plain));
        // At batch 1 the epoch span encloses the decision, every thermal
        // step and the upscale — the benchmark's per-layer split relies on
        // it.
        let total = |name: &str| batched.span(name).map_or(0.0, |span| span.total_seconds);
        let inner = total("policy.hayat.decision")
            + total("thermal.transient.step")
            + total("engine.aging.advance");
        assert!(inner > 0.0);
        assert!(
            total("engine.epoch") >= inner,
            "engine.epoch {} s must cover its {inner} s of decision, window and upscale",
            total("engine.epoch")
        );
    }

    #[test]
    fn staggered_start_epochs_skip_inactive_lanes() {
        let config = SimulationConfig::quick_demo();
        let serial: Vec<_> = engines(2)
            .into_iter()
            .map(|mut engine| {
                let mut metrics = engine.start_metrics();
                engine.run_epochs(0, config.epoch_count(), &mut metrics);
                metrics
            })
            .collect();
        // Lane 1 joins one epoch late, as a resumed run would; lane 0's
        // records must still match the serial path exactly, and lane 1 must
        // produce records only for the epochs it ran.
        let mut batch = ChipBatch::with_start_epochs(engines(2), vec![0, 1]);
        let mut per_lane: Vec<Vec<EpochRecord>> = vec![Vec::new(); 2];
        for epoch in 0..config.epoch_count() {
            for (lane, record) in batch.run_epoch(epoch) {
                per_lane[lane].push(record);
            }
        }
        assert_eq!(per_lane[0], serial[0].epochs);
        assert_eq!(per_lane[1].len(), config.epoch_count() - 1);
        assert_eq!(per_lane[1][0].epoch, 1);
    }

    #[test]
    fn campaign_systems_and_the_batch_stepper_share_one_network_and_factor() {
        let config = SimulationConfig::quick_demo();
        let campaign = Campaign::new(config.clone()).unwrap();
        let dt = config.control_period();
        let mut a = campaign.system_for(0);
        let mut b = campaign.system_for(1);
        let network = Arc::clone(a.transient().network());
        assert!(Arc::ptr_eq(&network, b.transient().network()));
        let power = vec![Watts::new(4.0); 64];
        for system in [&mut a, &mut b] {
            assert!(system.transient().implicit_factor(dt).is_none());
            system.transient_mut().step(dt, &power);
        }
        let factor = a.transient().implicit_factor(dt).unwrap();
        assert!(Arc::ptr_eq(
            factor,
            b.transient().implicit_factor(dt).unwrap()
        ));

        let engines = (0..2)
            .map(|chip| {
                let policy = Box::<HayatPolicy>::default();
                SimulationEngine::new(campaign.system_for(chip), policy, &config)
            })
            .collect();
        let mut batch = ChipBatch::with_start_epochs(engines, vec![0; 2]);
        assert!(Arc::ptr_eq(batch.thermal.network(), &network));
        let _ = batch.run_epoch(0);
        let lane = batch.engine(0).system().transient();
        assert!(Arc::ptr_eq(lane.implicit_factor(dt).unwrap(), factor));
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn empty_batch_is_rejected() {
        let _ = ChipBatch::with_start_epochs(Vec::new(), Vec::new());
    }
}
