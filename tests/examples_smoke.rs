//! Smoke tests that run each of the ten `examples/` binaries end to end,
//! so example rot is caught by `cargo test` and CI rather than by users.
//!
//! Each test shells out to the same `cargo` that is driving this test run
//! (via the `CARGO` environment variable) and asserts the example exits
//! successfully. Cargo serialises concurrent invocations on its own build
//! lock, so the tests are safe to run in parallel.

use std::process::Command;

fn run_example(name: &str) {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(cargo)
        .args(["run", "--quiet", "--example", name])
        .current_dir(manifest_dir)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn `cargo run --example {name}`: {e}"));
    assert!(
        output.status.success(),
        "example `{name}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}

#[test]
fn example_quickstart_runs() {
    run_example("quickstart");
}

#[test]
fn example_producer_consumer_runs() {
    run_example("producer_consumer");
}

#[test]
fn example_port_semantics_runs() {
    run_example("port_semantics");
}

#[test]
fn example_scheduling_analysis_runs() {
    run_example("scheduling_analysis");
}

#[test]
fn example_clock_scalability_runs() {
    run_example("clock_scalability");
}

#[test]
fn example_verification_runs() {
    run_example("verification");
}

#[test]
fn example_batch_verification_runs() {
    run_example("batch_verification");
}

#[test]
fn example_product_verification_runs() {
    run_example("product_verification");
}

#[test]
fn example_ltl_properties_runs() {
    run_example("ltl_properties");
}

#[test]
fn example_symbolic_closure_runs() {
    run_example("symbolic_closure");
}

/// The CLI's batch subcommand must complete every job with all checks
/// passing (exit code 0) and print one report line per job.
#[test]
fn cli_batch_completes_every_job() {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = std::process::Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "--bin",
            "polychrony",
            "--",
            "batch",
            "--jobs",
            "4",
            "--workers",
            "2",
        ])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn the polychrony CLI");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "CLI exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(stdout.contains("prodcons-case-study"), "{stdout}");
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
}

/// `analyze --stop-after` halts the staged pipeline at the named phase.
#[test]
fn cli_analyze_stop_after_schedule_prints_the_schedule_only() {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = std::process::Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "--bin",
            "polychrony",
            "--",
            "analyze",
            "--stop-after",
            "schedule",
        ])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn the polychrony CLI");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("static schedule"), "{stdout}");
    assert!(stdout.contains("affine clocks"), "{stdout}");
    // Later phases did not run: no simulation or verification output.
    assert!(!stdout.contains("simulation"), "{stdout}");
}

/// `verify --product` must surface the joint verdict of the thread product
/// and exit 0 on the healthy case study.
#[test]
fn cli_verify_product_reports_the_joint_verdict() {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = std::process::Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "--bin",
            "polychrony",
            "--",
            "verify",
            "--product",
        ])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn the polychrony CLI");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "CLI exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    assert!(stdout.contains("product of"), "{stdout}");
    assert!(stdout.contains("end-to-end-response"), "{stdout}");
    assert!(stdout.contains("no cross-thread violation"), "{stdout}");
}

/// The CLI's verification subcommand must find and replay the injected
/// deadline bug (exit code 0 in `--inject-deadline-bug` mode means the
/// counterexample was found *and* reproduced by the simulator). The fault,
/// the explored space and the violation instant are pinned exactly, so the
/// scenario cannot silently move to another thread or schedule.
#[test]
fn cli_verify_injected_bug_is_found_and_replayed() {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = std::process::Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "--bin",
            "polychrony",
            "--",
            "verify",
            "--inject-deadline-bug",
        ])
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn the polychrony CLI");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "CLI exited with {:?}\n--- stdout ---\n{stdout}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr),
    );
    for line in [
        "injected deadline overrun: Resume moved from tick 1 to Some(5) (deadline at tick 4)",
        "explored 6 states / 5 transitions at depth 5",
        "never-raised(*Alarm*)                    VIOLATED at instant 4",
        "simulator replay: violation reproduced (signal `Alarm` raised at instant 4 of the replay)",
    ] {
        assert!(stdout.contains(line), "missing `{line}` in:\n{stdout}");
    }
}
