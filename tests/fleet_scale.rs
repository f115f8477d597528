//! End-to-end checks of the fleet-scale data path: streamed chips, the
//! canonical-order `stream_runs` delivery, and the compact columnar run
//! format — held together by the byte-identity discipline that governs the
//! whole campaign stack (same bytes for any `--jobs`, collected or
//! streamed).

use hayat::{Campaign, Jobs, PolicyKind, RunMetrics, SimulationConfig};
use hayat_runfmt::{RunFileReader, RunFileWriter};
use hayat_telemetry::NullRecorder;
use std::sync::Arc;

fn tiny_config(chips: usize) -> SimulationConfig {
    let mut config = SimulationConfig::quick_demo();
    config.chip_count = chips;
    config.years = 0.5;
    config.epoch_years = 0.25;
    config.transient_window_seconds = 0.1;
    config
}

/// Encodes a campaign through the streaming path into `.runfmt` bytes.
fn encode_streamed(campaign: &Campaign, policies: &[PolicyKind], jobs: Jobs) -> Vec<u8> {
    let mut buf = Vec::new();
    let dark = campaign.config().dark_fraction;
    let mut writer = RunFileWriter::new(&mut buf, dark).unwrap();
    campaign
        .stream_runs(
            policies,
            jobs,
            Arc::new(NullRecorder),
            None,
            None,
            |_, metrics| {
                writer.push(&metrics)?;
                Ok(())
            },
        )
        .unwrap();
    writer.finish().unwrap();
    buf
}

#[test]
fn runfmt_bytes_are_identical_for_any_job_count() {
    let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
    let campaign = Campaign::new(tiny_config(3)).unwrap();
    let serial = encode_streamed(&campaign, &policies, Jobs::serial());
    let parallel = encode_streamed(&campaign, &policies, Jobs::new(4).unwrap());
    assert_eq!(serial, parallel, "runfmt output must be jobs-invariant");
}

#[test]
fn streamed_runfmt_decodes_to_the_collected_campaign() {
    let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
    let campaign = Campaign::new(tiny_config(2)).unwrap();
    let collected = campaign
        .try_run(&policies, Jobs::serial(), Arc::new(NullRecorder))
        .unwrap();

    let bytes = encode_streamed(&campaign, &policies, Jobs::auto());
    let reader = RunFileReader::new(bytes.as_slice()).unwrap();
    assert_eq!(reader.dark_fraction(), collected.dark_fraction);
    let decoded: Vec<RunMetrics> = reader.collect::<Result<_, _>>().unwrap();
    assert_eq!(decoded, collected.runs);
}

#[test]
fn spot_replay_reproduces_one_run_from_the_streamed_file() {
    // The `--replay POLICY:CHIP` contract: any single cell of a streamed
    // fleet can be regenerated alone — seekable chips make it O(one run).
    let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
    let campaign = Campaign::new(tiny_config(3)).unwrap();
    let bytes = encode_streamed(&campaign, &policies, Jobs::auto());
    let decoded: Vec<RunMetrics> = RunFileReader::new(bytes.as_slice())
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();

    // Hayat on chip 2 sits at canonical index 1*3 + 2 = 5.
    let replayed = campaign.run_one(PolicyKind::Hayat, 2);
    assert_eq!(replayed, decoded[5]);
}

#[test]
fn compact_format_is_smaller_than_json() {
    let policies = [PolicyKind::Vaa, PolicyKind::Hayat];
    let campaign = Campaign::new(tiny_config(3)).unwrap();
    let collected = campaign.run(&policies);
    let json = serde_json::to_string_pretty(&collected).unwrap();
    let bytes = encode_streamed(&campaign, &policies, Jobs::auto());
    assert!(
        bytes.len() * 2 < json.len(),
        "runfmt ({} B) should be well under half of JSON ({} B)",
        bytes.len(),
        json.len()
    );
}
