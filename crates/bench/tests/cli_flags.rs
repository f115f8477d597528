//! The figure binaries reject flags they cannot honour: an unknown flag, or
//! a flag missing its value, prints the usage and exits with status 2
//! before anything runs — never a silently ignored flag.

use std::process::Command;

fn assert_rejected(bin: &str, args: &[&str], reason: &str) {
    let out = Command::new(bin)
        .args(args)
        .env_remove("HAYAT_JOBS")
        .env_remove("HAYAT_PIN")
        .env_remove("HAYAT_FAILPOINT")
        .output()
        .expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} ran before its flags were checked"
    );
}

#[test]
fn fig7_10_rejects_unknown_and_incomplete_flags() {
    let bin = env!("CARGO_BIN_EXE_fig7_10");
    assert_rejected(
        bin,
        &["--quick", "--telemetry"],
        "missing value for --telemetry",
    );
    assert_rejected(bin, &["--quick", "--fast"], "unknown flag \"--fast\"");
    assert_rejected(bin, &["quick"], "unknown flag \"quick\"");
    assert_rejected(bin, &["--quick", "--every", "two"], "--every \"two\"");
    assert_rejected(bin, &["--quick", "--every", "2"], "--every requires");
    assert_rejected(
        bin,
        &["--quick", "--schedule", "steal"],
        "unknown flag \"--schedule\"",
    );
}

#[test]
fn campaign_rejects_the_removed_schedule_flag() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    assert_rejected(
        bin,
        &["--chips", "1", "--schedule", "steal"],
        "unknown flag \"--schedule\"",
    );
}

#[test]
fn overhead_table_rejects_unknown_and_incomplete_flags() {
    let bin = env!("CARGO_BIN_EXE_overhead_table");
    assert_rejected(bin, &["--telemetry"], "missing value for --telemetry");
    assert_rejected(bin, &["--quick"], "unknown flag \"--quick\"");
}
