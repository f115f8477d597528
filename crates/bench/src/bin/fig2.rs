//! Regenerates **Fig. 2**: aging and thermal analysis for different Dark
//! Core Maps on two chips with process variations at 50% dark silicon.
//!
//! For each of two chip samples and two DCMs — DCM-1 the dense contiguous
//! block of Fig. 2(a), DCM-2 the variation-dependent temperature-optimizing
//! map of Fig. 2(h)/(p) — this prints:
//!
//! * the initial (year-0) per-core frequency map,
//! * the aged (year-10) per-core frequency map,
//! * the steady-state temperature profile under the mapped workload,
//! * the Fig. 2(o) table rows: max/avg frequency at years 0 and 10 and
//!   max/avg steady-state temperature.
//!
//! The shapes to match: the optimized DCM differs between the two chips,
//! runs cooler than the contiguous one, and ages less.
//!
//! Usage: `cargo run --release -p hayat-bench --bin fig2`

use hayat::{Campaign, DarkCoreMap, FixedDcmPolicy, SimulationConfig, SimulationEngine};
use hayat_bench::{ascii_core_map, per_core, section};
use hayat_thermal::steady_state;
use hayat_units::Watts;
use hayat_workload::WorkloadMix;

struct DcmOutcome {
    label: String,
    f_max_yr0: f64,
    f_avg_yr0: f64,
    f_max_yr10: f64,
    f_avg_yr10: f64,
    t_max: f64,
    t_avg: f64,
}

fn main() {
    hayat_bench::switches("fig2", &[]);
    let mut config = SimulationConfig::paper(0.5);
    // Fig. 2 is a two-chip analysis; speed it up relative to the campaign.
    config.chip_count = 2;
    config.epoch_years = 0.5;
    config.transient_window_seconds = 1.5;
    let campaign = Campaign::new(config.clone()).expect("paper configuration is valid");
    let mut table: Vec<DcmOutcome> = Vec::new();

    for chip_index in 0..2 {
        let system = campaign.system_for(chip_index);
        let fp = system.floorplan().clone();
        let n_on = system.budget().max_on();
        let workload = WorkloadMix::generate(config.workload_seed, n_on);

        section(&format!(
            "Chip-{}: initial frequency variation (year 0)",
            chip_index + 1
        ));
        let f0 = per_core(&fp, |c| system.chip().fmax(c).value());
        print!("{}", ascii_core_map(&fp, &f0, "GHz"));

        for (dcm_label, dcm) in [
            ("DCM-1 (contiguous)", DarkCoreMap::contiguous(&fp, n_on)),
            (
                "DCM-2 (variation/temperature-optimized)",
                DarkCoreMap::variation_temperature_aware(
                    &fp,
                    system.chip(),
                    system.predictor(),
                    n_on,
                    Watts::new(7.0),
                    0.05,
                ),
            ),
        ] {
            section(&format!("Chip-{}: {dcm_label}", chip_index + 1));
            let on_marks = per_core(&fp, |c| if dcm.is_on(c) { 1.0 } else { 0.0 });
            println!(
                "  dark core map ('@' = on, ' ' = dark), spread {:.2} hops:",
                dcm.spread(&fp)
            );
            print!("{}", ascii_core_map(&fp, &on_marks, "on"));

            // Steady-state temperature profile of the mapped workload.
            let mut policy = FixedDcmPolicy::new(dcm.clone());
            let ctx =
                hayat::PolicyContext::new(&system, config.horizon(), hayat_units::Years::new(0.0));
            let mapping = hayat::Policy::map_threads(&mut policy, &ctx, &workload);
            let temps = {
                let ref_temps = hayat_thermal::TemperatureMap::uniform(
                    fp.core_count(),
                    system.thermal_config().ambient,
                );
                let power = hayat::power_vector(&system, &mapping, &workload, &ref_temps);
                steady_state(&fp, system.thermal_config(), &power)
            };
            println!("  steady-state temperature profile:");
            let t = per_core(&fp, |c| temps.core(c).value());
            print!("{}", ascii_core_map(&fp, &t, "K"));

            // 10-year aging run pinned to this DCM.
            let mut engine = SimulationEngine::new(
                campaign.system_for(chip_index),
                Box::new(FixedDcmPolicy::new(dcm.clone())),
                &config,
            );
            let metrics = engine.run();
            let aged = per_core(&fp, |c| engine.system().aged_fmax(c).value());
            println!("  aged frequency map (year 10):");
            print!("{}", ascii_core_map(&fp, &aged, "GHz"));

            table.push(DcmOutcome {
                label: format!("Chip-{} {dcm_label}", chip_index + 1),
                f_max_yr0: f0.iter().copied().fold(f64::MIN, f64::max),
                f_avg_yr0: hayat_bench::mean(&f0),
                f_max_yr10: metrics.final_chip_fmax_ghz(),
                f_avg_yr10: metrics.final_avg_fmax_ghz(),
                t_max: temps.max().value(),
                t_avg: temps.mean().value(),
            });
        }
    }

    section("Fig. 2(o): frequency and temperature summary");
    println!(
        "  {:<46} {:>8} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "configuration", "Fmax@0", "Favg@0", "Fmax@10", "Favg@10", "Tmax", "Tavg"
    );
    for row in &table {
        println!(
            "  {:<46} {:>8.2} {:>8.2} {:>9.2} {:>9.2} {:>8.2} {:>8.2}",
            row.label,
            row.f_max_yr0,
            row.f_avg_yr0,
            row.f_max_yr10,
            row.f_avg_yr10,
            row.t_max,
            row.t_avg
        );
    }
    println!();
    println!("  Paper shape: DCM-2 (optimized) has lower Tmax/Tavg and higher");
    println!("  year-10 frequencies than DCM-1 (contiguous) on both chips, and");
    println!("  the optimized maps differ between the two chips.");
}
