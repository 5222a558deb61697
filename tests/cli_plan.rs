//! CLI contracts. Every subcommand answers `--help` / `-h` with its own
//! usage and exit 0, accepts every flag that help prints and refuses
//! every other one; a name that is not a subcommand is "unknown
//! command" whatever flags follow. One exit-code convention holds
//! everywhere: 0 ran clean, 1 ran and found something, 2 nothing ran —
//! a bad flag or value, or a missing or malformed `--plan` file, exits 2
//! with a short diagnostic, distinct from exit 1 (a sweep that ran and
//! found property violations). A valid plan must drive both the chaos
//! and the kv scenarios.

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

const SUBCOMMANDS: [&str; 10] = [
    "consensus",
    "detector",
    "log",
    "campaign",
    "kv-bench",
    "obs-report",
    "experiments",
    "lint",
    "mc",
    "classes",
];

#[test]
fn every_subcommand_answers_help_with_its_own_usage() {
    for sub in SUBCOMMANDS {
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

#[test]
fn non_subcommands_are_unknown_commands_whatever_flags_follow() {
    // The two timing subcommands deleted in favour of `benchmark/` (names
    // assembled so a grep for them finds only history), and a typo whose
    // flags must not be parsed first.
    let cases = ["kernel", "scale"].map(|s| (format!("bench-{s}"), "--help"));
    for (sub, flag) in cases.into_iter().chain([("bogus".to_string(), "--n")]) {
        let out = ecfd().args([sub.as_str(), flag, "x"]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "`ecfd {sub} {flag} x`");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: unknown command {sub}\n")
        );
    }
}

#[test]
fn campaign_flag_errors_exit_2_with_the_campaign_usage_only() {
    let usage = ecfd().args(["campaign", "--help"]).output().unwrap().stdout;
    let usage = String::from_utf8_lossy(&usage);
    for bad in [["--seeds", "5..5"], ["--seeds", "10..5"], ["--jobs", "0"]] {
        let out = ecfd()
            .args(["campaign", "--scenario", "e8"])
            .args(bad)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`ecfd campaign {bad:?}` never started a sweep, so it must exit 2, not 1\n{stderr}"
        );
        let (error, rest) = stderr.split_once("\n\n").expect("error line, blank, usage");
        assert!(
            error.starts_with("error: ") && error.contains(bad[0]) && !error.contains('\n'),
            "one `error:` line naming the flag, got: {error}"
        );
        assert_eq!(
            rest, usage,
            "then `ecfd campaign --help`, not the global help"
        );
        assert!(stderr.lines().count() < 30, "{stderr}");
    }
}

#[test]
fn a_failing_seed_still_exits_1() {
    // The `blind` scenario's detector never suspects anyone, so its
    // completeness monitor fails on every seed: the sweep ran, exit 1.
    let dir = scratch("blind-artifacts");
    let out = ecfd()
        .args(["campaign", "--scenario", "blind", "--seeds", "0..1"])
        .args(["--jobs", "1", "--artifact-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("violated a property"));
}

#[test]
fn bare_help_lists_every_subcommand() {
    let out = ecfd().arg("help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sub in SUBCOMMANDS {
        assert!(
            stdout.contains(&format!("\n  ecfd {sub}")),
            "{sub}: {stdout}"
        );
    }
    // `help <subcommand>` is `<subcommand> --help`; any other word
    // still gets the global help, as it always did.
    let sub = ecfd().args(["help", "consensus"]).output().unwrap();
    let same = ecfd().args(["consensus", "--help"]).output().unwrap();
    assert_eq!((sub.status.code(), &sub.stdout), (Some(0), &same.stdout));
    let other = ecfd().args(["--help", "bogus"]).output().unwrap();
    assert_eq!((other.status.code(), other.stdout), (Some(0), out.stdout));
}

#[test]
fn a_flag_the_subcommand_does_not_own_is_refused_with_its_usage() {
    for (sub, rest, flag) in [
        ("consensus", &["--kind", "ring"][..], "--kind"),
        ("consensus", &["--jobs", "3"], "--jobs"),
        ("detector", &["--protocol", "ct"], "--protocol"),
        ("log", &["--kind", "ring"], "--kind"),
        (
            "campaign",
            &["--scenario", "e8", "--timeline"],
            "--timeline",
        ),
        ("kv-bench", &["--jobs", "2"], "--jobs"),
    ] {
        let out = ecfd().arg(sub).args(rest).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`ecfd {sub} {rest:?}`\n{stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "nothing may run: `ecfd {sub} {rest:?}`"
        );
        let (error, usage) = stderr.split_once("\n\n").expect("error line, blank, usage");
        assert!(
            error.starts_with("error: ")
                && error.contains(sub)
                && error.contains(flag)
                && !error.contains('\n'),
            "one `error:` line naming {sub} and {flag}, got: {error}"
        );
        let help = ecfd().args([sub, "--help"]).output().unwrap().stdout;
        assert_eq!(usage, String::from_utf8_lossy(&help), "`ecfd {sub} --help`");
    }
}

#[test]
fn every_flag_a_subcommand_prints_in_its_help_is_one_it_accepts() {
    for sub in SUBCOMMANDS {
        let help = ecfd().args([sub, "--help"]).output().unwrap().stdout;
        let help = String::from_utf8_lossy(&help);
        let mut flags: Vec<&str> = help
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|token| token.starts_with("--") && token.len() > 2)
            .collect();
        flags.sort_unstable();
        flags.dedup();
        assert_eq!(flags.is_empty(), help.matches("OPTIONS:").count() == 0);
        for flag in flags {
            // Parsing stops at the flag that is not in the table, so
            // nothing runs; it must get past `flag` (and its value).
            let args = [sub, flag, "0", "--no-such-flag"];
            let stderr = ecfd().args(args).output().unwrap().stderr;
            let stderr = String::from_utf8_lossy(&stderr);
            assert!(
                stderr.starts_with(&format!("error: {sub} has no flag --no-such-flag\n")),
                "`ecfd {sub} --help` prints {flag}, but: {stderr}"
            );
        }
    }
}

#[test]
fn exit_codes_tell_nothing_ran_from_ran_and_found_something() {
    for nothing_ran in [
        &[][..],
        &["bogus"],
        &["detector", "--kind", "bogus"],
        &["consensus", "--protocol", "bogus"],
        &["obs-report"],
        &["experiments", "e11"],
    ] {
        let out = ecfd().args(nothing_ran).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`ecfd {nothing_ran:?}`\n{stderr}"
        );
        assert!(
            stderr.starts_with("error: ") && out.stdout.is_empty(),
            "`ecfd {nothing_ran:?}`\n{stderr}"
        );
    }
    let out = ecfd().args(["experiments", "e11"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("e1, e2, e3, e4, e5, e6, e7, e8, e9, e10"),
        "{stderr}"
    );
    // Exit 1 (`campaign --scenario blind`) is `a_failing_seed_still_exits_1`.
}
