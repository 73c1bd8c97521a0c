//! End-to-end tests of the daemon-facing CLI: exit-code contract when no
//! daemon is running, and a full `polychronyd` round trip — submit the
//! case study twice, the second run reports a cache hit with verdicts
//! identical to the first, then stop the daemon.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polychrony"))
}

fn daemon_bin() -> &'static str {
    env!("CARGO_BIN_EXE_polychronyd")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("polychrony-cli-{}-{name}", std::process::id()))
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

#[test]
fn connecting_to_a_missing_daemon_exits_2_not_a_panic() {
    for subcommand in ["submit", "status", "stop"] {
        let output = cli()
            .args([
                subcommand,
                "--socket",
                "/tmp/polychrony-no-such-daemon.sock",
            ])
            .output()
            .expect("run CLI");
        assert_eq!(
            output.status.code(),
            Some(2),
            "`{subcommand}` against a missing daemon must exit 2, got {:?}\nstderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("cannot connect"),
            "`{subcommand}` stderr should explain the connection failure: {stderr}"
        );
    }
}

#[test]
fn a_missing_endpoint_flag_is_a_usage_error_exit_1() {
    for subcommand in ["submit", "status", "watch", "stop"] {
        let output = cli().arg(subcommand).output().expect("run CLI");
        assert_eq!(
            output.status.code(),
            Some(1),
            "`{subcommand}` without --socket/--tcp must exit 1"
        );
    }
}

#[test]
fn conflicting_endpoint_flags_are_a_usage_error_exit_1() {
    let output = cli()
        .args(["status", "--socket", "/tmp/a.sock", "--tcp", "127.0.0.1:1"])
        .output()
        .expect("run CLI");
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn a_daemon_dying_mid_stream_is_a_clean_exit_2_not_a_hang() {
    let socket = tmp("dies.sock");
    let _ = std::fs::remove_file(&socket);

    let mut daemon = Command::new(daemon_bin())
        .args(["--socket"])
        .arg(&socket)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn polychronyd");
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "daemon socket never appeared");
    let pid = daemon.id().to_string();

    // Freeze the daemon so the watch request is accepted by the listening
    // socket's backlog but never answered — the client is parked inside
    // its blocking read when the daemon is killed.
    let stopped = Command::new("kill")
        .args(["-STOP", &pid])
        .status()
        .expect("send SIGSTOP");
    assert!(stopped.success());

    let mut watcher = cli()
        .args(["watch", "--id", "1", "--socket"])
        .arg(&socket)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn watch");
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        watcher.try_wait().expect("poll watcher").is_none(),
        "watcher should still be blocked on the frozen daemon"
    );

    // Kill the frozen daemon: the kernel closes its sockets and the
    // watcher's read fails mid-stream.
    let killed = Command::new("kill")
        .args(["-KILL", &pid])
        .status()
        .expect("send SIGKILL");
    assert!(killed.success());
    let _ = daemon.wait();

    // The watcher must exit 2 with a clean message — not panic, not hang.
    let mut exited = None;
    for _ in 0..400 {
        if let Some(status) = watcher.try_wait().expect("poll watcher") {
            exited = Some(status);
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let Some(status) = exited else {
        let _ = watcher.kill();
        panic!("watch hung after the daemon died mid-stream");
    };
    assert_eq!(
        status.code(),
        Some(2),
        "watch against a dying daemon must exit 2"
    );
    let mut stderr = String::new();
    use std::io::Read as _;
    watcher
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(
        stderr.contains("daemon closed the connection"),
        "stderr should explain the mid-stream disconnect cleanly: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "no panic output expected: {stderr}"
    );

    let _ = std::fs::remove_file(&socket);
}

#[test]
fn submitting_twice_hits_the_cache_with_identical_verdicts() {
    let socket = tmp("e2e.sock");
    let log = tmp("e2e.log");
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&log);

    let mut daemon = Command::new(daemon_bin())
        .args(["--socket"])
        .arg(&socket)
        .args(["--workers", "2", "--log"])
        .arg(&log)
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn polychronyd");
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "daemon socket never appeared");

    let submit = |name: &str| {
        let output = cli()
            .args(["submit", "--quiet", "--name", name, "--socket"])
            .arg(&socket)
            .output()
            .expect("submit");
        assert_eq!(
            output.status.code(),
            Some(0),
            "submit failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdout_of(&output)
    };
    let cold = submit("cold");
    let warm = submit("warm");

    assert!(
        cold.starts_with("cache: miss\n"),
        "first submission should miss the cache:\n{cold}"
    );
    assert!(
        warm.starts_with("cache: simulated-hit\n"),
        "second submission should hit the cache:\n{warm}"
    );
    let strip_cache = |text: &str| {
        text.lines()
            .filter(|line| !line.starts_with("cache: "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip_cache(&cold),
        strip_cache(&warm),
        "cold and warm --quiet output must be identical apart from the cache line"
    );
    assert!(cold.trim_end().ends_with("passed: yes"));

    let status = cli()
        .args(["status", "--socket"])
        .arg(&socket)
        .output()
        .expect("status");
    let table = stdout_of(&status);
    assert!(table.contains("cold"), "status table lists job 1:\n{table}");
    assert!(
        table.contains("[cache: simulated-hit]"),
        "status table shows the warm job's cache outcome:\n{table}"
    );

    let stop = cli()
        .args(["stop", "--socket"])
        .arg(&socket)
        .output()
        .expect("stop");
    assert_eq!(stop.status.code(), Some(0));
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status:?}");

    let _ = std::fs::remove_file(&log);
}
