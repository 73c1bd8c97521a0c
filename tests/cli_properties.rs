//! CLI contract of `polychrony verify --property`: user-supplied past-time
//! LTL expressions get per-property verdicts, and malformed expressions
//! fail with a clean span-annotated usage error (exit 1, no `Debug`
//! panic). Flags of the retired interval domain are usage errors too.

use std::process::Command;

fn run_cli(args: &[&str]) -> (Option<i32>, String, String) {
    let cargo = env!("CARGO");
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let output = Command::new(cargo)
        .args(["run", "--quiet", "--bin", "polychrony", "--"])
        .args(args)
        .current_dir(manifest_dir)
        .output()
        .expect("failed to spawn the polychrony CLI");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// A malformed property expression is a usage error: exit code 1, the
/// offending span rendered with a caret, and no `Debug`-formatted panic.
#[test]
fn cli_malformed_property_is_a_clean_usage_error() {
    let (code, stdout, stderr) = run_cli(&["verify", "--property", "always (Deadline implies"]);
    assert_eq!(
        code,
        Some(1),
        "--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    assert!(stderr.contains("invalid --property expression"), "{stderr}");
    assert!(
        stderr.contains("expected a formula"),
        "the parser's message is surfaced: {stderr}"
    );
    assert!(stderr.contains('^'), "the span caret is rendered: {stderr}");
    assert!(
        !stderr.contains("panicked") && !stderr.contains("RUST_BACKTRACE"),
        "no Debug-format panic: {stderr}"
    );
}

/// The interval domain's flags are gone: `--domain` and
/// `--project-counters` are unknown arguments (exit 1, no panic), and
/// `submit` rejects them before it contacts any daemon.
#[test]
fn cli_retired_domain_flags_are_clean_usage_errors() {
    for (args, flag) in [
        (&["verify", "--domain", "interval"][..], "--domain"),
        (
            &["submit", "--socket", "unused.sock", "--project-counters"][..],
            "--project-counters",
        ),
    ] {
        let (code, stdout, stderr) = run_cli(args);
        assert_eq!(
            code,
            Some(1),
            "--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
        );
        assert!(
            stderr.contains(&format!("unknown argument `{flag}`")),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "no panic: {stderr}");
    }
}

/// A well-formed user property rides through the whole pipeline and gets
/// its own verdict line, rendered by its source expression.
#[test]
fn cli_user_property_gets_a_per_property_verdict() {
    let (code, stdout, stderr) = run_cli(&[
        "verify",
        "--property",
        "never raised(*Alarm*)",
        "--property",
        "always (Alarm implies once Deadline)",
    ]);
    assert_eq!(
        code,
        Some(0),
        "--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    assert!(stdout.contains("never raised(*Alarm*)"), "{stdout}");
    assert!(
        stdout.contains("always (Alarm implies once Deadline)"),
        "{stdout}"
    );
    assert!(stdout.contains("violation-free: yes"), "{stdout}");
}

/// The injected deadline overrun is caught — and its counterexample
/// replayed in polysim — by a user-supplied property expression alone.
#[test]
fn cli_injected_bug_caught_by_user_property_alone() {
    let (code, stdout, stderr) = run_cli(&[
        "verify",
        "--inject-deadline-bug",
        "--property",
        "never raised(*Alarm*)",
    ]);
    assert_eq!(
        code,
        Some(0),
        "--- stdout ---\n{stdout}\n--- stderr ---\n{stderr}"
    );
    assert!(stdout.contains("VIOLATED"), "{stdout}");
    assert!(stdout.contains("violation reproduced"), "{stdout}");
}
