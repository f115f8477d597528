//! Property tests for the aging substrate: the physical monotonicities of
//! Eq. 7/8 for arbitrary (bounded) inputs, table-vs-model agreement, the
//! age-curve inversion against its bisection oracle, and serde round-trips.

use hayat_aging::{
    AgeCurveScratch, AgingModel, AgingTable, CriticalPath, Health, HealthMap, NbtiModel, TableAxes,
};
use hayat_units::{DutyCycle, Kelvin, Volts, Years};
use proptest::prelude::*;
use std::sync::OnceLock;

fn table() -> &'static AgingTable {
    static TABLE: OnceLock<AgingTable> = OnceLock::new();
    TABLE.get_or_init(|| AgingTable::generate(&AgingModel::paper(2), &TableAxes::paper()))
}

/// Uniform over `[lo, hi]`, except that one draw in eight lands exactly on
/// each endpoint: a uniform draw alone never hits the boundaries the
/// advance special-cases (zero duty, zero epoch, full health).
fn with_edges(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
    (0u8..8, lo..=hi).prop_map(move |(k, x)| match k {
        0 => lo,
        1 => hi,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_vth_is_monotone(
        t in 280.0f64..430.0,
        dt in 0.0f64..50.0,
        y in 0.01f64..20.0,
        dy in 0.0f64..10.0,
        d in 0.01f64..1.0,
    ) {
        let m = NbtiModel::paper();
        let base = m.delta_vth(Kelvin::new(t), Years::new(y), DutyCycle::new(d));
        let hotter = m.delta_vth(Kelvin::new(t + dt), Years::new(y), DutyCycle::new(d));
        let older = m.delta_vth(Kelvin::new(t), Years::new(y + dy), DutyCycle::new(d));
        prop_assert!(hotter.value() >= base.value() - 1e-15);
        prop_assert!(older.value() >= base.value() - 1e-15);
        prop_assert!(base.value() >= 0.0);
    }

    #[test]
    fn equivalent_age_inverts_for_any_conditions(
        t in 300.0f64..420.0,
        y in 0.1f64..15.0,
        d in 0.05f64..1.0,
    ) {
        let m = NbtiModel::paper();
        let temp = Kelvin::new(t);
        let duty = DutyCycle::new(d);
        let shift = m.delta_vth(temp, Years::new(y), duty);
        let back = m.equivalent_age(temp, duty, shift).expect("stress conditions");
        prop_assert!((back.value() - y).abs() < 1e-6 * y.max(1.0));
    }

    #[test]
    fn recovery_never_exceeds_the_stressed_shift(
        t in 300.0f64..420.0,
        stress in 0.1f64..10.0,
        recovery in 0.0f64..10.0,
        d in 0.05f64..1.0,
    ) {
        let m = NbtiModel::paper();
        let temp = Kelvin::new(t);
        let duty = DutyCycle::new(d);
        let stressed = m.delta_vth(temp, Years::new(stress), duty);
        let relaxed = m.short_term_with_recovery(temp, Years::new(stress), Years::new(recovery), duty);
        prop_assert!(relaxed.value() <= stressed.value() + 1e-15);
        // Never full recovery.
        prop_assert!(relaxed.value() >= stressed.value() * (1.0 - m.recovery_fraction) - 1e-12);
    }

    #[test]
    fn path_delay_never_below_nominal(
        seed in 0u64..1000,
        len in 1usize..80,
        t in 280.0f64..430.0,
        d in 0.0f64..1.0,
        y in 0.0f64..15.0,
    ) {
        let path = CriticalPath::synthesize(len, seed);
        let m = NbtiModel::paper();
        let delay = path.delay_at(&m, Kelvin::new(t), DutyCycle::new(d), Years::new(y));
        prop_assert!(delay >= path.nominal_delay_ps() - 1e-12);
        let rel = path.relative_frequency(&m, Kelvin::new(t), DutyCycle::new(d), Years::new(y));
        prop_assert!(rel > 0.0 && rel <= 1.0 + 1e-12);
    }

    #[test]
    fn table_tracks_the_model_at_arbitrary_points(
        t in 305.0f64..425.0,
        d in 0.0f64..1.0,
        y in 0.0f64..14.5,
    ) {
        let model = AgingModel::paper(2);
        let direct = model.path().relative_frequency(
            model.nbti(),
            Kelvin::new(t),
            DutyCycle::new(d),
            Years::new(y),
        );
        let looked_up = table().relative_frequency(Kelvin::new(t), DutyCycle::new(d), Years::new(y));
        prop_assert!((direct - looked_up).abs() < 1e-2, "direct {direct} vs table {looked_up}");
    }

    #[test]
    fn health_map_statistics_are_order_invariant(
        healths in prop::collection::vec(0.2f64..=1.0, 1..32),
    ) {
        let forward = HealthMap::new(healths.iter().map(|&h| Health::new(h)).collect());
        let mut rev = healths.clone();
        rev.reverse();
        let backward = HealthMap::new(rev.iter().map(|&h| Health::new(h)).collect());
        prop_assert!((forward.mean() - backward.mean()).abs() < 1e-12);
        prop_assert_eq!(forward.min(), backward.min());
        prop_assert_eq!(forward.max(), backward.max());
    }

    #[test]
    fn health_serde_round_trips(h in prop::collection::vec(0.1f64..=1.0, 1..16)) {
        let map = HealthMap::new(h.into_iter().map(Health::new).collect());
        let json = serde_json::to_string(&map).expect("serialize");
        let back: HealthMap = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back, map);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    // The policies advance candidate health through the collapsed age curve;
    // the bisection advance is its reference. Temperatures reach past both
    // ends of the 300–430 K axis, so the clamped edges are covered too.
    #[test]
    fn age_curve_advance_matches_the_bisection_oracle(
        t in with_edges(290.0, 440.0),
        duty in with_edges(0.0, 1.0),
        health in with_edges(0.01, 1.0),
        epoch in with_edges(0.0, 10.0),
    ) {
        let (t, duty, epoch) = (Kelvin::new(t), DutyCycle::new(duty), Years::new(epoch));
        let mut scratch = AgeCurveScratch::new();
        let fast = table().age_curve(t, duty, &mut scratch).advance(health, epoch);
        let oracle = table().advance(t, duty, health, epoch);
        prop_assert!(
            (fast - oracle).abs() <= 1e-12,
            "(t={t:?}, duty={duty:?}, health={health}, epoch={epoch:?}): {fast} vs {oracle}"
        );
    }
}

#[test]
fn aging_table_serde_round_trips() {
    // The offline table is exactly the artifact one would persist.
    let small_axes = TableAxes {
        temperatures: vec![300.0, 350.0, 400.0],
        duty_cycles: vec![0.0, 0.5, 1.0],
        ages: vec![0.0, 5.0, 10.0],
    };
    let table = AgingTable::generate(&AgingModel::paper(2), &small_axes);
    let json = serde_json::to_string(&table).unwrap();
    let back: AgingTable = serde_json::from_str(&json).unwrap();
    assert_eq!(back, table);
    // And the deserialized copy answers queries identically.
    let q = back.relative_frequency(Kelvin::new(340.0), DutyCycle::new(0.4), Years::new(3.0));
    let p = table.relative_frequency(Kelvin::new(340.0), DutyCycle::new(0.4), Years::new(3.0));
    assert_eq!(q, p);
}

#[test]
fn nbti_model_serde_round_trips() {
    let m = NbtiModel::paper();
    let json = serde_json::to_string(&m).unwrap();
    let back: NbtiModel = serde_json::from_str(&json).unwrap();
    assert_eq!(back, m);
    let _ = Volts::new(0.0); // unit linkage
}
