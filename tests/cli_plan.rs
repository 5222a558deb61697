//! CLI contracts. Every subcommand answers `--help` / `-h` with its own
//! usage and exit 0. `ecfd campaign --plan`: a missing or malformed plan
//! file must exit with code 2 (setup never completed) and a diagnostic
//! naming the file, distinct from exit 1 (a sweep that ran and found
//! property violations). A valid plan must drive both the chaos and the
//! kv scenarios.

use std::path::PathBuf;
use std::process::Command;

fn ecfd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ecfd"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_plan");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn missing_plan_file_exits_2_with_the_path() {
    let path = scratch("no-such-plan.json");
    let _ = std::fs::remove_file(&path);
    let out = ecfd()
        .args([
            "campaign",
            "--plan",
            path.to_str().unwrap(),
            "--seeds",
            "0..2",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing plan file must exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no-such-plan.json"),
        "diagnostic must name the file: {stderr}"
    );
}

#[test]
fn malformed_plan_file_exits_2_with_a_parse_diagnostic() {
    let path = scratch("garbage.json");
    std::fs::write(&path, "{ this is not a chaos plan").unwrap();
    let out = ecfd()
        .args([
            "campaign",
            "--plan",
            path.to_str().unwrap(),
            "--seeds",
            "0..2",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "malformed plan file must exit 2\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("garbage.json") && stderr.contains("not a chaos plan"),
        "diagnostic must name the file and the parse failure: {stderr}"
    );
}

#[test]
fn valid_plan_drives_the_kv_scenario() {
    let path = scratch("standard.json");
    let plan = fd_kv::standard_plan(fd_chaos::DetectorKind::Heartbeat);
    std::fs::write(&path, serde_json::to_string_pretty(&plan).unwrap()).unwrap();
    let out = ecfd()
        .args([
            "campaign",
            "--plan",
            path.to_str().unwrap(),
            "--scenario",
            "kv",
            "--seeds",
            "0..2",
            "--jobs",
            "1",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean kv sweep under a fixed plan must exit 0\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn plan_rejects_non_chaos_non_kv_scenarios() {
    let path = scratch("standard-e8.json");
    let plan = fd_kv::standard_plan(fd_chaos::DetectorKind::Ring);
    std::fs::write(&path, serde_json::to_string_pretty(&plan).unwrap()).unwrap();
    let out = ecfd()
        .args([
            "campaign",
            "--plan",
            path.to_str().unwrap(),
            "--scenario",
            "e8",
            "--seeds",
            "0..2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("chaos or kv"), "{stderr}");
}

#[test]
fn every_subcommand_answers_help_with_its_own_usage() {
    for sub in [
        "consensus",
        "detector",
        "log",
        "campaign",
        "bench-kernel",
        "bench-scale",
        "kv-bench",
        "obs-report",
        "lint",
        "mc",
        "classes",
    ] {
        for flag in ["--help", "-h"] {
            let out = ecfd().args([sub, flag]).output().unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(
                out.status.code(),
                Some(0),
                "`ecfd {sub} {flag}` must exit 0\nstderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                stdout.starts_with(&format!("USAGE:\n  ecfd {sub}")),
                "`ecfd {sub} {flag}` must print that subcommand's usage, got: {stdout}"
            );
            assert_eq!(
                stdout.matches("\n  ecfd ").count(),
                stdout.matches(&format!("\n  ecfd {sub}")).count(),
                "`ecfd {sub} {flag}` must not list other subcommands: {stdout}"
            );
        }
    }
}
