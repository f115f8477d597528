//! Regenerates **Fig. 1(a)**: the abstract short-/long-term NBTI picture —
//! threshold-voltage shift rising during stress phases, partially (never
//! fully) recovering when the stress is released, with the long-term
//! envelope creeping upward.
//!
//! Usage: `cargo run --release -p hayat-bench --bin fig1a`

use hayat_aging::NbtiModel;
use hayat_units::{Celsius, DutyCycle, Years};

fn main() {
    hayat_bench::switches("fig1a", &[]);
    let nbti = NbtiModel::paper();
    let t = Celsius::new(80.0).to_kelvin();
    let duty = DutyCycle::worst_case();

    hayat_bench::section("Fig. 1(a): stress/recovery envelope at 80 degC");
    println!("  alternating 0.5-year stress and 0.5-year recovery phases;");
    println!("  columns: accumulated stress years, shift after the stress");
    println!("  phase, shift after the following recovery phase (mV)\n");
    println!(
        "  {:>12} {:>14} {:>16}",
        "stress-years", "after stress", "after recovery"
    );
    let mut stress_years = 0.0;
    for _cycle in 0..8 {
        stress_years += 0.5;
        let stressed = nbti.delta_vth(t, Years::new(stress_years), duty);
        let recovered =
            nbti.short_term_with_recovery(t, Years::new(stress_years), Years::new(0.5), duty);
        println!(
            "  {:>12.1} {:>11.1} mV {:>13.1} mV",
            stress_years,
            stressed.value() * 1e3,
            recovered.value() * 1e3
        );
    }
    println!();
    println!("  Shape: the long-term envelope (after-stress column) grows");
    println!("  monotonically with y^(1/6); recovery undoes part of each");
    println!("  cycle's shift but \"100% recovery is not possible\".");
}
