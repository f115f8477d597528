//! Release-only timing gates. Each test times one fast path against its
//! slower reference in the same process, prints the measured value, and
//! fails when the ratio leaves its bound:
//!
//! | gate | bound |
//! |---|---|
//! | age-curve advance vs `AgingTable::advance` bisection | ≥ 5× |
//! | `HayatPolicy` vs `UnprunedHayatPolicy` decision at 32×32 | ≥ 5× |
//! | batched decision+thermal kernel, batch 64 / batch 8 vs serial | ≥ 1.5× / ≥ 1.0× |
//! | fleet-sketch streaming overhead on a serial campaign | < 2 % |
//! | `NullRecorder` instrumentation on a Hayat decision | ratio < 1.02 |
//! | skewed-cost campaign, jobs 1 over jobs 4 (needs ≥ 4 CPUs) | ≥ 2.5× |
//!
//! Timings mean nothing in a debug build, so every gate is ignored by
//! default and refuses to run without optimizations. Run them one at a
//! time, so no gate shares the CPUs with another:
//!
//! ```text
//! cargo test --release -p hayat-bench --test perf_gates -- --ignored --test-threads 1 --nocapture
//! ```

use hayat::sim::campaign::PolicyKind;
use hayat::{
    Campaign, ChipSystem, ExecutorOptions, FleetAccumulator, GateSite, HayatPolicy, Jobs, Policy,
    PolicyContext, PolicyScratch, RunDescriptor, RunUpdate, SimulationConfig, SimulationEngine,
    UnprunedHayatPolicy,
};
use hayat_aging::AgeCurveScratch;
use hayat_telemetry::{NullRecorder, Recorder, RecorderExt};
use hayat_thermal::{BatchLane, BatchedTransient, TransientSimulator};
use hayat_units::{DutyCycle, Kelvin, Seconds, Watts, Years};
use hayat_workload::WorkloadMix;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Paper control period inside the transient window, seconds.
const CONTROL_PERIOD: f64 = 0.0066;
/// Paper transient window length, seconds (303 control periods).
const WINDOW_SECONDS: f64 = 2.0;

/// Fails a gate run without optimizations, where no ratio is meaningful.
fn require_release() {
    if cfg!(debug_assertions) {
        panic!("timing gates run only in a release build: cargo test --release");
    }
}

/// Best-of-`reps` wall time of `f`, after one warm-up call.
fn time_best<F: FnMut()>(mut f: F, reps: u32) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Quick-demo chip on a 10-year grid of 0.25-year epochs with a 0.1 s
/// window: the decision is a large share of each epoch.
fn decision_config() -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.years = 10.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    config
}

/// Chip 0 aged `epochs` epochs under Hayat. A fresh chip sits at full
/// health, where every candidate looks the same; decisions only
/// discriminate on a degraded, spread-out health map.
fn aged_system(config: &SimulationConfig, epochs: usize) -> ChipSystem {
    let system = ChipSystem::paper_chip(0, config).expect("paper chip builds");
    let mut engine = SimulationEngine::new(system, Box::new(HayatPolicy::default()), config);
    let mut metrics = engine.start_metrics();
    engine.run_epochs(0, epochs, &mut metrics);
    engine.system().clone()
}

/// Best-of-`reps` time of one `map_threads` call with a warm scratch and a
/// recycled mapping: the steady-state epoch decision.
fn decision_seconds(
    system: &ChipSystem,
    policy: &mut dyn Policy,
    workload: &WorkloadMix,
    horizon: Years,
    reps: u32,
) -> f64 {
    let scratch = RefCell::new(PolicyScratch::new());
    let ctx = PolicyContext::new(system, horizon, Years::new(0.0)).with_scratch(&scratch);
    time_best(
        || {
            let mapping = policy.map_threads(&ctx, workload);
            scratch.borrow_mut().mapping_pool.push(mapping);
        },
        reps,
    )
}

/// Best-of-`reps` time of a 256-step (temperature, duty, health) chain,
/// each step one call of `advance`.
fn advance_chain_seconds(
    mut advance: impl FnMut(Kelvin, DutyCycle, f64, Years) -> f64,
    reps: u32,
) -> f64 {
    let epoch = Years::new(0.25);
    let temps: Vec<Kelvin> = (0..256)
        .map(|i| Kelvin::new(315.0 + 0.2 * f64::from(i)))
        .collect();
    let duty = DutyCycle::clamped(0.7);
    time_best(
        || {
            let mut h = 1.0;
            for &t in &temps {
                h = advance(t, duty, h, epoch);
            }
            black_box(h);
        },
        reps,
    )
}

#[test]
#[ignore = "release-only timing gate"]
fn age_curve_advance_is_at_least_5x_the_bisection_oracle() {
    require_release();
    let system = aged_system(&decision_config(), 8);
    let table = system.aging_table();
    let mut scratch = AgeCurveScratch::new();
    let fast = advance_chain_seconds(
        |t, duty, h, epoch| table.age_curve(t, duty, &mut scratch).advance(h, epoch),
        100,
    );
    let oracle = advance_chain_seconds(|t, duty, h, epoch| table.advance(t, duty, h, epoch), 100);
    let speedup = oracle / fast;
    println!(
        "advance: {:.3} us bisection -> {:.3} us age curve, {speedup:.2}x (gate >= 5x)",
        oracle / 256.0 * 1e6,
        fast / 256.0 * 1e6
    );
    assert!(speedup >= 5.0, "age-curve advance only {speedup:.2}x");
}

#[test]
#[ignore = "release-only timing gate"]
fn pruned_decision_is_at_least_5x_the_unpruned_scan_at_32x32() {
    require_release();
    let mut config = decision_config();
    config.mesh = (32, 32);
    let system = aged_system(&config, 8);
    let workload = WorkloadMix::generate(config.workload_seed, system.budget().max_on());
    let horizon = config.horizon();
    let pruned = decision_seconds(&system, &mut HayatPolicy::default(), &workload, horizon, 5);
    let unpruned = decision_seconds(
        &system,
        &mut UnprunedHayatPolicy::default(),
        &workload,
        horizon,
        5,
    );
    let speedup = unpruned / pruned;
    println!(
        "32x32 decision: {:.3} ms unpruned -> {:.3} ms pruned, {speedup:.2}x (gate >= 5x)",
        unpruned * 1e3,
        pruned * 1e3
    );
    assert!(speedup >= 5.0, "pruned decision only {speedup:.2}x");
}

/// A half-dark power vector: active cores at 6 W, dark ones at gated
/// leakage.
fn window_power(cores: usize) -> Vec<Watts> {
    (0..cores)
        .map(|i| Watts::new(if i % 2 == 0 { 6.0 } else { 0.019 }))
        .collect()
}

/// One timed pass of the decision+thermal kernel composite over every
/// chip: per chip, one Hayat decision (warm shared scratch, recycled
/// mapping), then one paper window of backward-Euler steps. Width 1 steps
/// each chip's scalar simulator; wider widths run `BatchedTransient`.
/// `sims` lives across passes and is rewound in place, untimed: fresh
/// same-size-class allocations between passes can alias in cache and
/// cost ~40% on the batched window. Each pass still pays its own
/// factorizations, since amortizing them is part of the batched gain.
fn composite_pass_seconds(
    systems: &[ChipSystem],
    workloads: &[WorkloadMix],
    powers: &[Vec<Watts>],
    sims: &mut [TransientSimulator],
    horizon: Years,
    width: usize,
) -> f64 {
    let steps = (WINDOW_SECONDS / CONTROL_PERIOD).round() as usize;
    let dt = Seconds::new(CONTROL_PERIOD);
    let mut policy = HayatPolicy::default();
    let scratch = RefCell::new(PolicyScratch::new());
    for (sim, system) in sims.iter_mut().zip(systems) {
        sim.clone_from(system.transient());
    }
    let t0 = Instant::now();
    for start in (0..systems.len()).step_by(width) {
        let end = (start + width).min(systems.len());
        for lane in start..end {
            let ctx =
                PolicyContext::new(&systems[lane], horizon, Years::new(0.0)).with_scratch(&scratch);
            let mapping = policy.map_threads(&ctx, &workloads[lane]);
            scratch.borrow_mut().mapping_pool.push(mapping);
        }
        let chunk = &mut sims[start..end];
        if width == 1 {
            for _ in 0..steps {
                chunk[0].step(dt, &powers[start]);
            }
        } else {
            let mut batched = BatchedTransient::new(&chunk[0]);
            for _ in 0..steps {
                let mut lanes: Vec<BatchLane<'_>> = chunk
                    .iter_mut()
                    .zip(&powers[start..end])
                    .map(|(sim, power)| BatchLane { sim, power })
                    .collect();
                batched.step_recorded(dt, &mut lanes, &NullRecorder);
            }
        }
        for sim in chunk.iter() {
            black_box(sim.temperatures().max());
        }
    }
    t0.elapsed().as_secs_f64()
}

/// Throughput over width 1 at widths 8 and 64: one untimed warm-up cycle,
/// then `reps` cycles that each measure every width once, keeping each
/// width's minimum. Interleaving the widths lands a burst of host noise on
/// the same rep of every width instead of on one width's whole block.
fn width_sweep(reps: u32, mut pass_seconds: impl FnMut(usize) -> f64) -> (f64, f64) {
    const WIDTHS: [usize; 3] = [1, 8, 64];
    let mut best = [f64::INFINITY; 3];
    for rep in 0..=reps {
        for (slot, &width) in best.iter_mut().zip(&WIDTHS) {
            let wall = pass_seconds(width);
            if rep > 0 {
                *slot = slot.min(wall);
            }
        }
    }
    (best[0] / best[1], best[0] / best[2])
}

#[test]
#[ignore = "release-only timing gate"]
fn batched_kernels_beat_serial_at_batch_8_and_64() {
    require_release();
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 64;
    config.years = 0.5;
    config.epoch_years = 0.25;
    let systems: Vec<ChipSystem> = (0..config.chip_count)
        .map(|chip| ChipSystem::paper_chip(chip, &config).expect("paper chip builds"))
        .collect();
    let workloads: Vec<WorkloadMix> = systems
        .iter()
        .enumerate()
        .map(|(chip, system)| {
            WorkloadMix::generate(config.workload_seed ^ chip as u64, system.budget().max_on())
        })
        .collect();
    let powers: Vec<Vec<Watts>> = systems
        .iter()
        .map(|system| window_power(system.floorplan().core_count()))
        .collect();
    let horizon = config.horizon();

    // The batched window's working set is L2-sized, and L2 sets are
    // physically indexed: an unlucky page draw for its buffers
    // conflict-misses every batched step of the process while the scalar
    // arm is untouched. Re-measuring cannot recover from that draw, so an
    // attempt below 1.5x keeps its allocations (plus decoys) alive and the
    // next attempt lands on fresh pages. The best of 3 attempts counts, and
    // every re-roll is logged.
    let mut graveyard: Vec<Vec<TransientSimulator>> = Vec::new();
    let mut decoys: Vec<Vec<f64>> = Vec::new();
    let (mut at_8, mut at_64) = (0.0, 0.0);
    for attempt in 1..=3 {
        let mut sims: Vec<TransientSimulator> =
            systems.iter().map(|s| s.transient().clone()).collect();
        let (b8, b64) = width_sweep(6, |width| {
            composite_pass_seconds(&systems, &workloads, &powers, &mut sims, horizon, width)
        });
        if b64 > at_64 {
            (at_8, at_64) = (b8, b64);
        }
        if at_64 >= 1.5 {
            break;
        }
        println!("kernel sweep attempt {attempt}: {b64:.2}x at batch 64, re-rolling allocations");
        graveyard.push(sims);
        decoys.extend((0..4).map(|_| vec![0.0; 32 * 1024]));
    }
    println!(
        "batched kernels over 64 chips: {at_8:.2}x at batch 8 (gate >= 1.0x), \
         {at_64:.2}x at batch 64 (gate >= 1.5x)"
    );
    assert!(at_64 >= 1.5, "batch 64 only {at_64:.2}x serial");
    assert!(at_8 >= 1.0, "batch 8 only {at_8:.2}x serial");
}

#[test]
#[ignore = "release-only timing gate"]
fn fleet_sketch_streaming_costs_under_2_percent() {
    require_release();
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 8;
    config.years = 10.0;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 1.0;
    let campaign = Campaign::new(config).expect("valid configuration");
    let policies = [PolicyKind::Hayat];
    let run_plain = || {
        black_box(
            campaign
                .try_run(&policies, Jobs::serial(), Arc::new(NullRecorder))
                .expect("campaign runs"),
        );
    };
    let run_observed = || {
        let fleet = Mutex::new(FleetAccumulator::new());
        black_box(
            campaign
                .try_run_observed(
                    &policies,
                    Jobs::serial(),
                    Arc::new(NullRecorder),
                    Some(&fleet),
                    None,
                )
                .expect("campaign runs"),
        );
        let mut fleet = fleet.into_inner().expect("fleet accumulator lock");
        fleet.finish();
        black_box(fleet.summary());
    };
    // Serial, so no idle worker absorbs the sketch updates. Each rep runs
    // the two variants back to back and the gate takes the smallest
    // per-rep overhead: a noise burst inflates both halves of one pair and
    // cancels in its ratio, where separate minima could pair a lucky plain
    // rep with a noisy observed one.
    run_plain();
    run_observed();
    let mut overhead = f64::INFINITY;
    for _ in 0..10 {
        let t0 = Instant::now();
        run_plain();
        let plain = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        run_observed();
        let observed = t0.elapsed().as_secs_f64();
        overhead = overhead.min(((observed - plain) / plain).max(0.0));
    }
    println!(
        "fleet-sketch overhead: {:.2}% (gate < 2%)",
        overhead * 100.0
    );
    assert!(
        overhead < 0.02,
        "fleet sketches cost {:.2}%",
        overhead * 100.0
    );
}

#[test]
#[ignore = "release-only timing gate"]
fn null_recorder_instrumentation_costs_under_2_percent() {
    const ITERS_PER_SAMPLE: u32 = 8;
    const SAMPLES: usize = 31;
    require_release();
    let config = SimulationConfig::paper(0.5);
    let system = ChipSystem::paper_chip(0, &config).expect("paper chip builds");
    let workload = WorkloadMix::generate(config.workload_seed, system.budget().max_on());
    let ctx = PolicyContext::new(&system, config.horizon(), Years::new(0.0));
    let recorder = NullRecorder;

    let mut policy_bare = HayatPolicy::default();
    let mut bare = || {
        black_box(black_box(policy_bare.map_threads(&ctx, black_box(&workload))).active_cores());
    };
    // The same decision plus a heavy helping of disabled telemetry.
    let mut policy_instr = HayatPolicy::default();
    let mut instrumented = || {
        let _decision = recorder.span("perf_gate.null.decision");
        let inner = recorder.span("perf_gate.null.inner");
        let mapping = black_box(policy_instr.map_threads(&ctx, black_box(&workload)));
        inner.cancel();
        let active = mapping.active_cores();
        recorder.counter("perf_gate.null.assignments", active as u64);
        recorder.gauge("perf_gate.null.active_cores", active as f64);
        recorder.histogram("perf_gate.null.active_cores_hist", active as f64);
        recorder.counter("perf_gate.null.decisions", 1);
        black_box(active);
    };
    let sample_ns = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..ITERS_PER_SAMPLE {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS_PER_SAMPLE)
    };
    // Alternate the arms sample by sample so slow drift (frequency
    // scaling, cache warm-up) hits both alike, then compare medians.
    let mut bare_samples = Vec::with_capacity(SAMPLES);
    let mut instr_samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        bare_samples.push(sample_ns(&mut bare));
        instr_samples.push(sample_ns(&mut instrumented));
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let bare_ns = median(&mut bare_samples);
    let instr_ns = median(&mut instr_samples);
    let ratio = instr_ns / bare_ns;
    println!(
        "NullRecorder: bare {bare_ns:.0} ns, instrumented {instr_ns:.0} ns, \
         ratio {ratio:.4} (gate < 1.02)"
    );
    assert!(
        ratio < 1.02,
        "NullRecorder instrumentation ratio {ratio:.4}"
    );
}

#[test]
#[ignore = "release-only timing gate"]
fn skewed_campaign_scales_at_least_2_5x_on_4_jobs() {
    /// Skew unit: every fourth chip spins nine of these in the run gate,
    /// the rest one.
    const SPIN: Duration = Duration::from_micros(1500);
    require_release();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 4 {
        println!("skewed jobs-4 gate skipped: host parallelism {cpus} is below 4");
        return;
    }
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = 12;
    config.years = 0.25;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    let campaign = Campaign::new(config).expect("valid configuration");
    let descriptors = campaign.grid(&[PolicyKind::Hayat]);
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let gate = |site: GateSite, run: &RunDescriptor| -> Result<(), hayat::DynError> {
        if site == GateSite::Run {
            let spin = SPIN * if run.chip.is_multiple_of(4) { 9 } else { 1 };
            let t0 = Instant::now();
            while t0.elapsed() < spin {
                std::hint::spin_loop();
            }
        }
        Ok(())
    };
    let wall = |jobs: usize| {
        let options = ExecutorOptions {
            jobs: Jobs::new(jobs).expect("positive"),
            gate: Some(&gate),
            ..ExecutorOptions::default()
        };
        time_best(
            || {
                let mut completed = 0;
                campaign
                    .execute(&descriptors, None, &options, &recorder, |update| {
                        if let RunUpdate::Completed { metrics, .. } = update {
                            black_box(metrics);
                            completed += 1;
                        }
                        Ok(())
                    })
                    .expect("skewed campaign runs");
                assert_eq!(completed, descriptors.len());
            },
            5,
        )
    };
    let speedup = wall(1) / wall(4);
    println!("skewed campaign: {speedup:.2}x at 4 jobs (gate >= 2.5x)");
    assert!(speedup >= 2.5, "jobs 4 only {speedup:.2}x serial");
}
