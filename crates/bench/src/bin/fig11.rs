//! Regenerates **Fig. 11**: (left) the aged per-core frequency maps of VAA
//! vs Hayat for one example 8×8 chip after 10 years; (right) the
//! population-averaged frequency over 10 years for VAA/Hayat at 25% and 50%
//! dark silicon, plus the lifetime-gain readout.
//!
//! Paper shape: Hayat's curves stay above VAA's, the gap widens with time
//! (≈3 months of lifetime gained at a 3-year requirement, ≈2× at 10 years),
//! and Hayat's aged map keeps more fast (dark in the map = healthy) cores.
//!
//! Usage: `cargo run --release -p hayat-bench --bin fig11 [--quick]`

use hayat::metrics::lifetime_gain_years;
use hayat::sim::campaign::PolicyKind;
use hayat::{Campaign, SimulationConfig, SimulationEngine};
use hayat_bench::{ascii_core_map, per_core, section};

fn main() {
    let quick = !hayat_bench::switches("fig11 [--quick]", &["--quick"]).is_empty();

    // --- Left: example chip aged maps under both policies at 50% dark. ----
    let mut config = SimulationConfig::paper(0.5);
    if quick {
        config.epoch_years = 0.5;
        config.transient_window_seconds = 1.5;
    }
    config.chip_count = config.chip_count.min(if quick { 5 } else { 25 });
    let campaign = Campaign::new(config.clone()).expect("paper configuration is valid");

    for kind in [PolicyKind::Vaa, PolicyKind::Hayat] {
        let system = campaign.system_for(0);
        let fp = system.floorplan().clone();
        let policy = kind.instantiate(config.workload_seed);
        let name = policy.name().to_owned();
        let mut engine = SimulationEngine::new(system, policy, &config);
        let _ = engine.run();
        section(&format!(
            "Fig. 11 left: {name} aged frequency map, chip 1, year 10 (50% dark)"
        ));
        let aged = per_core(&fp, |c| engine.system().aged_fmax(c).value());
        print!("{}", ascii_core_map(&fp, &aged, "GHz"));
    }

    // --- Right: population-average trajectories for both dark fractions. --
    section("Fig. 11 right: average fmax over 10 years (population mean, GHz)");
    let mut curves = Vec::new();
    for dark in [0.25, 0.5] {
        let mut cfg = SimulationConfig::paper(dark);
        if quick {
            cfg.chip_count = 5;
            cfg.epoch_years = 0.5;
            cfg.transient_window_seconds = 1.5;
        }
        let campaign = Campaign::new(cfg).expect("paper configuration is valid");
        let result = campaign.run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
        for kind in [PolicyKind::Vaa, PolicyKind::Hayat] {
            let summary = result.summary(kind).expect("policy ran");
            curves.push((format!("{} {:.0}%", summary.policy, dark * 100.0), summary));
        }

        // Lifetime gain readout per Fig. 11's discussion.
        let vaa_runs: Vec<_> = result.runs_of(PolicyKind::Vaa);
        let hayat_runs: Vec<_> = result.runs_of(PolicyKind::Hayat);
        for target in [3.0, 10.0] {
            let gains: Vec<f64> = vaa_runs
                .iter()
                .zip(&hayat_runs)
                .filter_map(|(v, h)| lifetime_gain_years(v, h, target))
                .collect();
            if gains.is_empty() {
                println!(
                    "  dark {:.0}%, required lifetime {target} y: Hayat never falls to VAA's \
                     level inside the simulated horizon (gain exceeds the run length)",
                    dark * 100.0
                );
            } else {
                println!(
                    "  dark {:.0}%, required lifetime {target} y: mean lifetime gain {:+.2} years \
                     over {} chips (paper: +0.25 y at 3 y, 2x at 10 y)",
                    dark * 100.0,
                    hayat_bench::mean(&gains),
                    gains.len()
                );
            }
        }
    }

    println!();
    println!(
        "  {:>6} {}",
        "year",
        curves
            .iter()
            .map(|(label, _)| format!("{label:>12}"))
            .collect::<String>()
    );
    let epochs = curves[0].1.avg_fmax_trajectory.len();
    for i in 0..epochs {
        let year = curves[0].1.avg_fmax_trajectory[i].0;
        print!("  {year:>6.2}");
        for (_, summary) in &curves {
            print!("{:>12.3}", summary.avg_fmax_trajectory[i].1);
        }
        println!();
    }
}
