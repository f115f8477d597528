//! The figure binaries reject flags they cannot honour: an unknown flag, or
//! a flag missing its value, prints the usage and exits with status 2
//! before anything runs — never a silently ignored flag. Hostile input
//! files are rejected with an error, never a crash.

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
        &["--quick", "--checkpoint", "unused", "--every", "0"],
        "--every must be at least 1 epoch",
    );
    for removed in [["--schedule", "steal"], ["--search-path", "exhaustive"]] {
        let args = ["--quick", removed[0], removed[1]];
        assert_rejected(bin, &args, &format!("unknown flag {:?}", removed[0]));
    }
}

#[test]
fn campaign_rejects_removed_flags() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    for removed in [
        ["--schedule", "steal"],
        ["--table-path", "oracle"],
        ["--search-path", "exhaustive"],
    ] {
        let args = ["--chips", "1", removed[0], removed[1]];
        assert_rejected(bin, &args, &format!("unknown flag {:?}", removed[0]));
    }
}

#[test]
fn campaign_rejects_zero_checkpoint_cadence_and_capacity() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let checkpoint = ["--chips", "1", "--checkpoint", "unused"];
    assert_rejected(
        bin,
        &[&checkpoint[..], &["--every", "0"]].concat(),
        "--every must be at least 1 epoch",
    );
    assert_rejected(
        bin,
        &[&checkpoint[..], &["--shard-checkpoints", "0"]].concat(),
        "--shard-checkpoints must be at least 1",
    );
}

#[test]
fn campaign_rejects_deeply_nested_json_without_crashing() {
    let dir = std::env::temp_dir().join(format!("hayat_cli_nested_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("nested.json");
    let depth = 200_000;
    std::fs::write(&src, "[".repeat(depth) + &"]".repeat(depth)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("--from-json")
        .arg(&src)
        .arg("--run-format")
        .arg(dir.join("out.runfmt"))
        .output()
        .expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("is not a campaign result JSON"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overhead_table_rejects_unknown_and_incomplete_flags() {
    let bin = env!("CARGO_BIN_EXE_overhead_table");
    assert_rejected(bin, &["--telemetry"], "missing value for --telemetry");
    assert_rejected(bin, &["--quick"], "unknown flag \"--quick\"");
}

#[test]
fn figure_binaries_reject_unknown_flags() {
    for bin in [
        env!("CARGO_BIN_EXE_fig1a"),
        env!("CARGO_BIN_EXE_fig1b"),
        env!("CARGO_BIN_EXE_fig2"),
        env!("CARGO_BIN_EXE_setup_sanity"),
    ] {
        assert_rejected(bin, &["--bogus"], "unknown flag \"--bogus\"");
    }
    let fig11 = env!("CARGO_BIN_EXE_fig11");
    assert_rejected(fig11, &["--quik"], "unknown flag \"--quik\"");
    assert_rejected(fig11, &["--quick", "--bogus"], "unknown flag \"--bogus\"");
}
