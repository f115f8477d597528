//! End-to-end campaign integration: a scaled-down version of the paper's
//! evaluation must reproduce every qualitative result of Section VI.

use hayat::sim::campaign::PolicyKind;
use hayat::{Campaign, ChipSystem, SimulationConfig, SimulationEngine};

/// A small but real campaign: 3 chips, 4 years in 6-month epochs.
fn small_campaign(dark: f64) -> Campaign {
    let mut config = SimulationConfig::paper(dark);
    config.chip_count = 3;
    config.years = 4.0;
    config.epoch_years = 0.5;
    config.transient_window_seconds = 1.0;
    Campaign::new(config).expect("configuration is valid")
}

#[test]
fn campaign_reproduces_the_section_6_orderings_at_50_dark() {
    let campaign = small_campaign(0.5);
    let result = campaign.run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
    let vaa = result.summary(PolicyKind::Vaa).unwrap();
    let hayat = result.summary(PolicyKind::Hayat).unwrap();

    // Fig. 7: Hayat triggers at most as many DTM migrations.
    assert!(
        hayat.mean_dtm_migrations <= vaa.mean_dtm_migrations,
        "DTM: hayat {} vs vaa {}",
        hayat.mean_dtm_migrations,
        vaa.mean_dtm_migrations
    );
    // Fig. 8: Hayat is at least as cool on average.
    assert!(
        hayat.mean_temp_over_ambient <= vaa.mean_temp_over_ambient * 1.01,
        "Tavg: hayat {} vs vaa {}",
        hayat.mean_temp_over_ambient,
        vaa.mean_temp_over_ambient
    );
    // Fig. 9: Hayat decelerates the chip-fmax aging dramatically.
    assert!(
        hayat.mean_chip_fmax_aging_rate < vaa.mean_chip_fmax_aging_rate * 0.5,
        "chip fmax aging: hayat {} vs vaa {}",
        hayat.mean_chip_fmax_aging_rate,
        vaa.mean_chip_fmax_aging_rate
    );
    // Fig. 10: Hayat decelerates the average aging.
    assert!(
        hayat.mean_avg_fmax_aging_rate < vaa.mean_avg_fmax_aging_rate,
        "avg fmax aging: hayat {} vs vaa {}",
        hayat.mean_avg_fmax_aging_rate,
        vaa.mean_avg_fmax_aging_rate
    );
    // Fig. 11: Hayat's average-frequency curve ends higher.
    assert!(hayat.mean_final_avg_fmax_ghz > vaa.mean_final_avg_fmax_ghz);
}

#[test]
fn improvements_grow_with_the_dark_fraction() {
    // The paper's headline: more dark silicon gives Hayat more headroom to
    // exploit (23% vs 6.3% average-aging improvement at 50% vs 25%).
    let gain_at = |dark: f64| {
        let result = small_campaign(dark).run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
        let vaa = result.summary(PolicyKind::Vaa).unwrap();
        let hayat = result.summary(PolicyKind::Hayat).unwrap();
        1.0 - hayat.mean_avg_fmax_aging_rate / vaa.mean_avg_fmax_aging_rate
    };
    let g25 = gain_at(0.25);
    let g50 = gain_at(0.5);
    assert!(
        g50 > g25,
        "improvement must grow with dark fraction: 25% -> {g25:.3}, 50% -> {g50:.3}"
    );
    assert!(
        g50 > 0.1,
        "the 50% improvement must be substantial, got {g50:.3}"
    );
}

#[test]
fn campaign_is_deterministic() {
    let run = || {
        small_campaign(0.5)
            .run(&[PolicyKind::Hayat])
            .runs
            .into_iter()
            .map(|r| (r.chip_id, r.final_avg_fmax_ghz(), r.total_dtm_events()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn runs_on_the_shared_network_match_systems_that_build_their_own() {
    // `Campaign::run_one` steps every chip on the campaign's one RC network
    // and factorization; `ChipSystem::paper_chip` builds private ones.
    // Sharing must not move a bit.
    for mesh in [(8, 8), (3, 5)] {
        let config = SimulationConfig {
            mesh,
            ..SimulationConfig::quick_demo()
        };
        let campaign = Campaign::new(config.clone()).expect("configuration is valid");
        for kind in [PolicyKind::Vaa, PolicyKind::Hayat] {
            let chip = 1;
            let system = ChipSystem::paper_chip(chip, &config).expect("system builds");
            let policy = kind.instantiate(config.workload_seed ^ chip as u64);
            let private = SimulationEngine::new(system, policy, &config).run();
            assert_eq!(
                campaign.run_one(kind, chip),
                private,
                "{} on {mesh:?}",
                kind.name()
            );
        }
    }
}

#[test]
fn every_run_ends_with_declined_health_and_bounded_temps() {
    let campaign = small_campaign(0.5);
    let result = campaign.run(&[PolicyKind::Vaa, PolicyKind::Hayat, PolicyKind::CoolestFirst]);
    assert_eq!(result.runs.len(), 9);
    for run in &result.runs {
        assert!(run.final_health_mean() < 1.0, "{} did not age", run.policy);
        assert!(
            run.final_health_mean() > 0.5,
            "{} aged absurdly",
            run.policy
        );
        for epoch in &run.epochs {
            assert!(epoch.peak_temp_kelvin < 400.0);
            assert!(epoch.avg_temp_kelvin > 300.0);
            assert_eq!(
                epoch.unplaced_threads, 0,
                "{} left threads unplaced",
                run.policy
            );
        }
    }
}

#[test]
fn normalized_accessor_matches_manual_ratio() {
    let campaign = small_campaign(0.5);
    let result = campaign.run(&[PolicyKind::Vaa, PolicyKind::Hayat]);
    let manual = result
        .summary(PolicyKind::Hayat)
        .unwrap()
        .mean_temp_over_ambient
        / result
            .summary(PolicyKind::Vaa)
            .unwrap()
            .mean_temp_over_ambient;
    let via_api = result
        .normalized(
            |s| s.mean_temp_over_ambient,
            PolicyKind::Hayat,
            PolicyKind::Vaa,
        )
        .unwrap();
    assert!((manual - via_api).abs() < 1e-12);
}
