//! Regenerates the **Section V setup sanity numbers**: the quantities the
//! paper quotes about its experimental platform, measured on this
//! reproduction's default seeds.
//!
//! * ~30–35% core-to-core frequency variation at 1.13 V, 3–4 GHz,
//! * nominal leakage 1.18 W per on-core / 0.019 W power-gated,
//! * `T_safe` = 95 °C, ambient = 45 °C,
//! * steady-state temperature bands for spread vs contiguous 50%-dark maps.
//!
//! Usage: `cargo run --release -p hayat-bench --bin setup_sanity`

use hayat::{ChipSystem, DarkCoreMap, SimulationConfig};
use hayat_bench::section;
use hayat_thermal::steady_state;
use hayat_units::Watts;
use hayat_variation::ChipPopulation;

fn main() {
    hayat_bench::switches("setup_sanity", &[]);
    let config = SimulationConfig::paper(0.5);
    let fp = hayat_floorplan::Floorplan::paper_8x8();

    section("frequency variation across the 25-chip population");
    let population = ChipPopulation::generate(
        &fp,
        &config.variation,
        config.chip_count,
        config.variation_seed,
    )
    .expect("population generates");
    let mut spreads: Vec<f64> = population
        .chips()
        .iter()
        .map(hayat_variation::Chip::fmax_spread)
        .collect();
    spreads.sort_by(f64::total_cmp);
    println!(
        "  per-chip (max-min)/max spread: min {:.1}%, median {:.1}%, max {:.1}% \
         (paper: \"about 30%-35%\")",
        spreads[0] * 100.0,
        spreads[spreads.len() / 2] * 100.0,
        spreads[spreads.len() - 1] * 100.0
    );
    let all_min = population
        .chips()
        .iter()
        .map(|c| c.min_fmax().value())
        .fold(f64::MAX, f64::min);
    let all_max = population
        .chips()
        .iter()
        .map(|c| c.max_fmax().value())
        .fold(f64::MIN, f64::max);
    println!(
        "  population frequency range: {all_min:.2}-{all_max:.2} GHz (paper: 3-4 GHz nominal band)"
    );

    section("leakage constants and spread");
    println!(
        "  nominal on-core leakage {} / power-gated {} (paper constants)",
        config.power.leakage_on, config.power.leakage_gated
    );
    let chip = &population.chips()[0];
    let mut lf: Vec<f64> = fp.cores().map(|c| chip.leakage_factor(c)).collect();
    lf.sort_by(f64::total_cmp);
    println!(
        "  chip-0 process leakage factors: min {:.2}x, median {:.2}x, max {:.2}x",
        lf[0], lf[32], lf[63]
    );

    section("thermal envelope at 50% dark silicon");
    println!(
        "  ambient {} | T_safe {} (Intel mobile i5 setting)",
        config.thermal.ambient, config.thermal.t_safe
    );
    let system = ChipSystem::paper_chip(0, &config).expect("system builds");
    for (name, dcm) in [
        ("contiguous", DarkCoreMap::contiguous(&fp, 32)),
        ("checkerboard", DarkCoreMap::checkerboard(&fp, 32)),
    ] {
        let power: Vec<Watts> = fp
            .cores()
            .map(|c| {
                if dcm.is_on(c) {
                    Watts::new(7.0 + 1.18 * system.chip().leakage_factor(c))
                } else {
                    Watts::new(0.019)
                }
            })
            .collect();
        let temps = steady_state(&fp, &config.thermal, &power);
        println!(
            "  {name:<13} 32x~8 W: peak {:.1} K, mean {:.1} K (paper band: ~325-345 K with DTM active)",
            temps.max().value(),
            temps.mean().value()
        );
    }
}
