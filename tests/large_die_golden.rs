//! Large-die output pinned byte for byte.
//!
//! `fixtures/large_die_16x16.json` and `fixtures/large_die_12x20.json` are
//! the pretty `--json` export of a short campaign (2 chips, 1 year in
//! quarter-year epochs, 0.1 s windows, 75% dark) under VAA and Hayat. They
//! were produced before the decision path's large-die rewrite (VAA's
//! incremental first node and bounded region search, Hayat's dense DCM scan
//! and threshold-built hot lanes), so these tests hold the rewrite to the
//! old decisions on a square and a non-square die well past the paper's
//! 8×8.

use hayat::sim::campaign::PolicyKind;
use hayat::{Campaign, SimulationConfig};

fn assert_matches_golden(mesh: (usize, usize), golden: &str) {
    let config = SimulationConfig {
        mesh,
        chip_count: 2,
        years: 1.0,
        epoch_years: 0.25,
        transient_window_seconds: 0.1,
        ..SimulationConfig::paper(0.75)
    };
    let result = Campaign::new(config)
        .expect("configuration is valid")
        .run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
    let json = serde_json::to_string_pretty(&result).expect("result serializes");
    assert!(
        json.trim_end() == golden.trim_end(),
        "the {}x{} campaign no longer reproduces its golden export",
        mesh.0,
        mesh.1
    );
}

#[test]
fn sixteen_by_sixteen_campaign_matches_its_golden() {
    assert_matches_golden((16, 16), include_str!("fixtures/large_die_16x16.json"));
}

#[test]
fn twelve_by_twenty_campaign_matches_its_golden() {
    assert_matches_golden((12, 20), include_str!("fixtures/large_die_12x20.json"));
}
