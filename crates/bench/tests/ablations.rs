//! Ablations beyond the paper, each row pinned to the direction it shows:
//! the Eq. 9 weighting and DCM-stage mechanisms, the dark-core-map
//! strategy, the thermal predictor model, and the aging-epoch length.
//! Every test prints its rows, so `--nocapture` regenerates the
//! EXPERIMENTS.md "Ablations" numbers.

use hayat::{
    predict_mapping_temperatures, Campaign, ChipSystem, DarkCoreMap, HayatConfig, HayatPolicy,
    Policy, PolicyContext, SimulationConfig, SimulationEngine,
};
use hayat_floorplan::Floorplan;
use hayat_thermal::{steady_state, PredictorModel, ThermalConfig, ThermalPredictor};
use hayat_units::{Watts, Years};
use hayat_workload::WorkloadMix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Predicted peak temperature (K) and fastest used core (GHz) of one Hayat
/// decision on the paper's 50%-dark chip 0.
struct Outcome {
    peak_kelvin: f64,
    fastest_ghz: f64,
}

#[test]
fn weighting_ablation_rows_keep_their_direction() {
    let config = SimulationConfig::paper(0.5);
    let system = ChipSystem::paper_chip(0, &config).expect("paper chip builds");
    let workload = WorkloadMix::generate(config.workload_seed, system.budget().max_on());
    let ctx = PolicyContext::new(&system, config.horizon(), Years::new(0.0));
    let decide = |name: &str, cfg: HayatConfig| {
        let mapping = HayatPolicy::new(cfg).map_threads(&ctx, &workload);
        let outcome = Outcome {
            peak_kelvin: predict_mapping_temperatures(&system, &mapping, &workload)
                .max()
                .value(),
            fastest_ghz: mapping
                .active()
                .map(|core| system.aged_fmax(core).value())
                .fold(0.0, f64::max),
        };
        println!(
            "  {name:<22} predicted peak {:.1} K, fastest used core {:.2} GHz",
            outcome.peak_kelvin, outcome.fastest_ghz
        );
        outcome
    };

    let paper = HayatConfig::paper();
    let base = decide("paper", paper.clone());
    let slack_only = decide(
        "slack_only",
        HayatConfig {
            beta_early: 0.0,
            beta_late: 0.0,
            ..paper.clone()
        },
    );
    let health_only = decide(
        "health_only",
        HayatConfig {
            alpha_early: 0.0,
            alpha_late: 0.0,
            beta_early: 1.0,
            beta_late: 1.0,
            ..paper.clone()
        },
    );
    let late = decide(
        "late_coefficients",
        HayatConfig {
            late_phase_health: 2.0,
            ..paper.clone()
        },
    );
    let blind = decide(
        "dcm_temperature_blind",
        HayatConfig {
            lambda_ghz_per_kelvin: 0.0,
            mu_ghz_per_watt: 0.0,
            ..paper.clone()
        },
    );
    let unpreserved = decide(
        "no_elite_preservation",
        HayatConfig {
            preserve_fraction: 0.0001,
            excess_penalty: 0.0,
            ..paper
        },
    );

    let t_safe = system.thermal_config().t_safe.value();
    for outcome in [
        &base,
        &slack_only,
        &health_only,
        &late,
        &blind,
        &unpreserved,
    ] {
        assert!(outcome.peak_kelvin < t_safe, "a variant reaches T_safe");
    }
    assert!(
        blind.peak_kelvin > base.peak_kelvin,
        "dropping the DCM temperature/leakage terms must run hotter"
    );
    assert!(
        unpreserved.fastest_ghz > base.fastest_ghz,
        "dropping elite preservation must use a faster core"
    );
}

/// Steady-state peak (K) with every on-core of `dcm` at 9 W and the dark
/// ones power-gated.
fn peak_under_uniform_load(system: &ChipSystem, dcm: &DarkCoreMap) -> f64 {
    let fp = system.floorplan();
    let power: Vec<Watts> = fp
        .cores()
        .map(|c| Watts::new(if dcm.is_on(c) { 9.0 } else { 0.019 }))
        .collect();
    steady_state(fp, system.thermal_config(), &power)
        .max()
        .value()
}

#[test]
fn dcm_strategy_ablation_rows_keep_their_direction() {
    let config = SimulationConfig::paper(0.5);
    let system = ChipSystem::paper_chip(0, &config).expect("paper chip builds");
    let fp = system.floorplan();
    let n_on = system.budget().max_on();
    let maps = [
        ("contiguous", DarkCoreMap::contiguous(fp, n_on)),
        ("checkerboard", DarkCoreMap::checkerboard(fp, n_on)),
        (
            "random",
            DarkCoreMap::random(fp, n_on, &mut StdRng::seed_from_u64(7)),
        ),
        (
            "optimized",
            DarkCoreMap::variation_temperature_aware(
                fp,
                system.chip(),
                system.predictor(),
                n_on,
                Watts::new(7.0),
                0.05,
            ),
        ),
    ];
    // (spread in hops, steady peak in K) per map, in the order above.
    let rows: Vec<(f64, f64)> = maps
        .iter()
        .map(|(name, dcm)| {
            let row = (dcm.spread(fp), peak_under_uniform_load(&system, dcm));
            println!(
                "  {name:<13} spread {:.2} hops, steady peak {:.1} K",
                row.0, row.1
            );
            row
        })
        .collect();

    let [contiguous, checkerboard, random, optimized] = rows[..] else {
        unreachable!("four maps")
    };
    for other in [checkerboard, random, optimized] {
        assert!(
            contiguous.0 < other.0,
            "contiguous must have the least spread"
        );
        assert!(contiguous.1 > other.1, "contiguous must run hottest");
    }
    for other in [contiguous, checkerboard, random] {
        assert!(optimized.0 > other.0, "optimized must have the most spread");
    }
    assert!(
        optimized.1 > checkerboard.1,
        "under a uniform load the optimized map runs above the checkerboard"
    );
}

#[test]
fn predictor_ablation_rows_keep_their_direction() {
    let fp = Floorplan::paper_8x8();
    let cfg = ThermalConfig::paper();
    let power: Vec<Watts> = fp
        .cores()
        .map(|c| Watts::new(if c.index() % 3 == 0 { 8.0 } else { 0.019 }))
        .collect();
    let exact = steady_state(&fp, &cfg, &power);
    let max_error = |model| {
        let predicted = ThermalPredictor::learn_with(&fp, &cfg, model).predict(&fp, &power);
        let error = fp
            .cores()
            .map(|core| (predicted.core(core) - exact.core(core)).abs())
            .fold(0.0, f64::max);
        println!("  {model:?}: max error vs the exact solve {error:.3e} K");
        error
    };
    assert!(max_error(PredictorModel::ResponseMatrix) < 1e-3);
    assert!(max_error(PredictorModel::Isotropic) > 1.0);
}

/// Mean final health of chip 0 after a 4-year Hayat run at 50% dark with
/// `epoch_years` epochs and a 1 s window.
fn final_health(epoch_years: f64) -> f64 {
    let mut config = SimulationConfig::paper(0.5);
    config.chip_count = 1;
    config.years = 4.0;
    config.epoch_years = epoch_years;
    config.transient_window_seconds = 1.0;
    let campaign = Campaign::new(config.clone()).expect("valid configuration");
    let mut engine = SimulationEngine::new(
        campaign.system_for(0),
        Box::<HayatPolicy>::default(),
        &config,
    );
    engine.run().final_health_mean()
}

#[test]
fn coarser_aging_epochs_drift_further_from_the_finest() {
    let fine = final_health(0.125);
    let drifts: Vec<f64> = [0.25, 0.5, 1.0]
        .into_iter()
        .map(|epoch| {
            let drift = final_health(epoch) - fine;
            println!("  epoch {epoch:>4} y: final-health drift vs 0.125-year epochs {drift:+.5}");
            drift
        })
        .collect();
    assert!(drifts[0] > 0.0, "drift {drifts:?}");
    assert!(
        drifts.windows(2).all(|pair| pair[0] < pair[1]),
        "drift must grow strictly with the epoch length: {drifts:?}"
    );
}
