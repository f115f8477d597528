//! Regenerates **Fig. 1(b)**: temperature-dependent increase in delay of an
//! aging core over 10 years, at 25 / 75 / 100 / 140 °C.
//!
//! The paper plots the relative delay increase of a LEON3 synthesized for
//! 45 nm; here the synthetic critical path of the aging substrate plays that
//! role. The *shape* to match: monotone growth with both age and
//! temperature, reaching roughly 1.1× (25 °C) to 1.4× (140 °C) at year 10,
//! with the `y^(1/6)` time profile.
//!
//! Usage: `cargo run --release -p hayat-bench --bin fig1b`

use hayat_aging::AgingModel;
use hayat_units::{Celsius, DutyCycle, Years};

fn main() {
    hayat_bench::switches("fig1b", &[]);
    let model = AgingModel::paper(hayat_variation::VariationParams::paper().design_seed);
    let duty = DutyCycle::generic();
    let temps_c = [25.0, 75.0, 100.0, 140.0];

    hayat_bench::section("Fig. 1(b): delay increase vs aging year per temperature");
    print!("{:>6}", "year");
    for t in temps_c {
        print!("{:>10}", format!("{t} degC"));
    }
    println!();
    for year in 0..=10 {
        print!("{year:>6}");
        for t in temps_c {
            let ratio = model.path().delay_at(
                model.nbti(),
                Celsius::new(t).to_kelvin(),
                duty,
                Years::new(f64::from(year)),
            ) / model.path().nominal_delay_ps();
            print!("{ratio:>10.3}");
        }
        println!();
    }

    hayat_bench::section("paper-vs-measured at year 10");
    let expect = [(25.0, 1.1), (75.0, 1.2), (100.0, 1.3), (140.0, 1.4)];
    for (t, paper) in expect {
        let measured = model.path().delay_at(
            model.nbti(),
            Celsius::new(t).to_kelvin(),
            duty,
            Years::new(10.0),
        ) / model.path().nominal_delay_ps();
        println!("  {t:>5.0} degC: paper ~{paper:.1}x, measured {measured:.3}x");
    }
}
