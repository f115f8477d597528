//! Kill-mode crash test for the `campaign` binary: a run hard-killed by a
//! `HAYAT_FAILPOINT=...:kill` fault (process exits with no unwinding, like
//! an OOM kill) must resume from its checkpoint directory to a result
//! byte-identical to an uninterrupted run's JSON export. A v1 single-file
//! checkpoint of an earlier build resumes through the same flag.

use std::path::PathBuf;
use std::process::Command;

/// A fresh scratch path: no file and no directory of that name.
fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hayat_cli_{name}_{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&path).ok();
    path
}

/// Shared tiny-campaign flags: 2 chips × 4 epochs on a 4×4 mesh.
const FLAGS: &[&str] = &[
    "--chips",
    "2",
    "--years",
    "1",
    "--epoch",
    "0.25",
    "--window",
    "0.1",
    "--mesh",
    "4",
    "--policies",
    "hayat",
];

fn campaign_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(FLAGS).env_remove("HAYAT_FAILPOINT");
    cmd
}

#[test]
fn hard_killed_campaign_resumes_to_an_identical_result() {
    let reference_json = scratch("reference.json");
    let resumed_json = scratch("resumed.json");
    let checkpoint = scratch("cli.ckpt");

    let reference = campaign_cmd()
        .args(["--json", reference_json.to_str().unwrap()])
        .output()
        .expect("run campaign binary");
    assert!(
        reference.status.success(),
        "uninterrupted run failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Kill the process outright at the 6th epoch, with 4 workers so the
    // crash lands mid-flight in a genuinely parallel pool. The resume below
    // deliberately uses the default worker count: checkpoints written under
    // any `--jobs` must resume under any other.
    let killed = campaign_cmd()
        .args(["--checkpoint", checkpoint.to_str().unwrap(), "--every", "1"])
        .args(["--jobs", "4"])
        .env("HAYAT_FAILPOINT", "campaign.epoch:6:kill")
        .output()
        .expect("run campaign binary");
    assert_eq!(
        killed.status.code(),
        Some(137),
        "kill mode must exit with the SIGKILL convention code; stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        checkpoint.join("manifest.json").is_file(),
        "the checkpoint must survive the kill"
    );

    let resumed = campaign_cmd()
        .args(["--resume", checkpoint.to_str().unwrap()])
        .args(["--json", resumed_json.to_str().unwrap()])
        .output()
        .expect("run campaign binary");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&resumed.stdout).contains("resuming from checkpoint"),
        "resume must announce itself"
    );

    let expected = std::fs::read(&reference_json).expect("reference JSON written");
    let actual = std::fs::read(&resumed_json).expect("resumed JSON written");
    assert!(
        expected == actual,
        "resumed campaign JSON must be byte-identical to the uninterrupted run"
    );

    for path in [&reference_json, &resumed_json] {
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_dir_all(&checkpoint).ok();
}

#[test]
fn malformed_failpoint_spec_aborts_instead_of_running_vacuously() {
    let checkpoint = scratch("badspec.ckpt");
    let out = campaign_cmd()
        .args(["--checkpoint", checkpoint.to_str().unwrap()])
        .env("HAYAT_FAILPOINT", "not-a-spec")
        .output()
        .expect("run campaign binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("site:hit:mode"),
        "the error must explain the expected format"
    );
    std::fs::remove_dir_all(&checkpoint).ok();
}

#[test]
fn resume_without_a_checkpoint_fails_without_the_resume_hint() {
    let missing = scratch("missing.ckpt");
    let empty = scratch("empty.ckpt");
    std::fs::create_dir(&empty).unwrap();
    for dir in [&missing, &empty] {
        let out = campaign_cmd()
            .args(["--resume", dir.to_str().unwrap()])
            .output()
            .expect("run campaign binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("no checkpoint at {}", dir.display())),
            "{stderr}"
        );
        assert!(!stderr.contains("rerun with --resume"), "{stderr}");
    }
    assert!(!missing.exists(), "a failed resume creates nothing");
    std::fs::remove_dir_all(&empty).ok();
}

/// `--resume FILE` on a v1 single-file checkpoint imports it into
/// `FILE.shards/` and finishes the campaign: the pre-PR-5 fixture (a
/// half-finished campaign written by an earlier build) must complete to
/// its reference export byte for byte, and a second `--resume FILE` picks
/// up the imported directory instead of importing again.
#[test]
fn v1_checkpoint_file_resumes_to_its_reference_export() {
    let fixtures = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    let copy = scratch("pre_pr5.ckpt");
    let shards = PathBuf::from(format!("{}.shards", copy.display()));
    std::fs::remove_dir_all(&shards).ok();
    let out_json = scratch("pre_pr5_resumed.json");
    std::fs::copy(format!("{fixtures}/pre_pr5.ckpt"), &copy).unwrap();
    let reference = std::fs::read(format!("{fixtures}/pre_pr5_reference.json")).unwrap();

    for attempt in ["import", "re-resume"] {
        let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
            .args(["--resume", copy.to_str().unwrap()])
            .args(["--chips", "2", "--years", "10", "--epoch", "0.5"])
            .args(["--window", "0.1", "--mesh", "4"])
            .args(["--json", out_json.to_str().unwrap()])
            .env_remove("HAYAT_FAILPOINT")
            .output()
            .expect("run campaign binary");
        assert!(
            out.status.success(),
            "{attempt}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("resuming from checkpoint"),
            "{attempt}: resume must announce itself"
        );
        let actual = std::fs::read(&out_json).expect("resumed JSON written");
        assert!(
            actual == reference,
            "{attempt}: the resumed v1 campaign must match its reference export"
        );
    }
    assert!(shards.join("manifest.json").is_file());
    assert_eq!(
        std::fs::read(&copy).unwrap(),
        std::fs::read(format!("{fixtures}/pre_pr5.ckpt")).unwrap(),
        "the v1 file is only read"
    );

    std::fs::remove_file(&copy).ok();
    std::fs::remove_file(&out_json).ok();
    std::fs::remove_dir_all(&shards).ok();
}
