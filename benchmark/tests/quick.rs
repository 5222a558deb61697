//! Drives the benchmark binary end to end at `--quick` size: every
//! workload, both trace modes, and the result line the acceptance
//! driver parses.

use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "e8-sweep",
    "ring-1024",
    "heartbeat-64",
    "vcube-lossy-256",
    "kv-ramp",
    "kv-failover",
];

/// The `"name"` values of one array of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Run the binary; return its stdout, asserting a zero exit.
fn bench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ecfd-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} exited with {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The metric names of a result line, in order.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("\": {\"value\": ")
        .map(|chunk| chunk[chunk.rfind('"').expect("opening quote") + 1..].to_string())
        .take(metrics.matches("\"value\"").count())
        .collect()
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    assert_eq!(names_in("workloads"), WORKLOADS);
    let expected = names_in("end_to_end");
    for workload in WORKLOADS {
        let out = bench(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--quick",
        ]);
        let line = out.lines().last().expect("a result line");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        assert_eq!(metric_names(line), expected, "{workload}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }
}

#[test]
fn the_traced_run_reports_every_per_layer_metric() {
    let expected = names_in("per_layer");
    for workload in WORKLOADS {
        let out = bench(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
            "--trace",
            "1",
            "--quick",
        ]);
        let line = out.lines().last().expect("a result line");
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {out}");
        assert_eq!(metric_names(line), expected, "{workload}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }
}

#[test]
fn the_same_seed_gives_the_same_simulated_numbers_and_another_seed_others() {
    let simulated = |seed: &str| {
        let out = bench(&[
            "--workload",
            "kv-failover",
            "--seed",
            seed,
            "--seconds",
            "0.1",
            "--quick",
        ]);
        let line = out.lines().last().expect("a result line").to_string();
        let at = line.find("\"msgs_per_op\"").expect("simulated metrics");
        line[at..].to_string()
    };
    assert_eq!(simulated("5"), simulated("5"));
    assert_ne!(simulated("5"), simulated("6"));
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ecfd-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
