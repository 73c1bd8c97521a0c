//! Harness self-test: a short run of each workload, untraced and traced,
//! must pass its reference checks and print every metric `BENCHMARK.json`
//! names, with its unit.

use std::process::Command;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .lines()
        .filter(|line| line.contains("\"unit\""))
        .map(|line| {
            let parts: Vec<&str> = line.split('"').collect();
            (parts[3].to_string(), parts[7].to_string())
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "{workload}: exit {:?}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
        "{workload}: {last}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    last
}

fn check_metrics(workload: &str, last: &str, section: &str) {
    let metrics = declared(section);
    assert!(!metrics.is_empty(), "{section} declares metrics");
    for (name, unit) in metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let entry = &last[at..at + last[at..].find('}').expect("entry closes")];
        assert!(
            entry.ends_with(&format!("\"unit\": \"{unit}\"")),
            "{workload}: {name} has the wrong unit: {entry}"
        );
    }
}

fn smoke(workload: &str) {
    check_metrics(workload, &run(workload, false), "end_to_end");
    check_metrics(workload, &run(workload, true), "per_layer");
}

#[test]
fn case_study_smoke() {
    smoke("case_study");
}

#[test]
fn open_threads_smoke() {
    smoke("open_threads");
}

#[test]
fn service_sweep_smoke() {
    smoke("service_sweep");
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seconds", "1"])
        .output()
        .expect("the benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
