//! In-process daemon tests: caching across submissions, progress rate,
//! log replay and the bound on stored reports, cancellation, and full unix
//! and TCP socket round-trips with the blocking client.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use polychrony_client::Endpoint;
use polychrony_core::SessionOptions;
use polychrony_server::{Daemon, DaemonConfig, ServerError};
use polyobs::json::Json;
use polyobs::ProgressUpdate;
use polywire::{Frame, JobSpec, JobState, WireReport};

fn quick_daemon(workers: usize) -> Daemon {
    Daemon::new(DaemonConfig {
        workers,
        ..DaemonConfig::default()
    })
    .expect("daemon starts")
}

fn wait_report(daemon: &Daemon, id: u64) -> WireReport {
    let rx = daemon.watch(id).expect("job exists");
    for frame in rx {
        if let Frame::Result { id: got, report } = frame {
            assert_eq!(got, id);
            return report;
        }
    }
    panic!("watch channel closed without a result frame");
}

#[test]
fn resubmitting_the_same_job_hits_the_cache_with_identical_verdicts() {
    let daemon = quick_daemon(1);
    let spec = JobSpec::case_study("cold").with_options(SessionOptions::quick());
    let cold_id = daemon.submit(spec.clone()).expect("submit cold");
    let warm_id = daemon
        .submit(JobSpec {
            name: "warm".to_string(),
            ..spec
        })
        .expect("submit warm");
    let cold = wait_report(&daemon, cold_id);
    let warm = wait_report(&daemon, warm_id);

    assert_eq!(cold.error, None);
    assert_eq!(cold.cache.as_deref(), Some("miss"));
    assert_eq!(warm.cache.as_deref(), Some("simulated-hit"));
    assert_eq!(cold.verdicts, warm.verdicts);
    assert_eq!(cold.passed, warm.passed);
    assert_eq!(cold.states, warm.states);
    assert_eq!(cold.transitions, warm.transitions);

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn changing_only_verification_options_still_reuses_the_front_end() {
    let daemon = quick_daemon(2);
    let mut sweep = SessionOptions::quick();
    sweep.verify.hyperperiods = 2;
    let cold_id = daemon
        .submit(JobSpec::case_study("base").with_options(SessionOptions::quick()))
        .expect("submit base");
    wait_report(&daemon, cold_id);
    let warm_id = daemon
        .submit(JobSpec::case_study("sweep").with_options(sweep))
        .expect("submit sweep");
    let warm = wait_report(&daemon, warm_id);

    assert_eq!(warm.error, None);
    // Same source, same simulate options, different verify options: the
    // simulated artifact is reused and only verification re-runs.
    assert_eq!(warm.cache.as_deref(), Some("simulated-hit"));

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn watch_on_a_finished_job_replays_the_stored_result() {
    let daemon = quick_daemon(1);
    let id = daemon
        .submit(JobSpec::case_study("done").with_options(SessionOptions::quick()))
        .expect("submit");
    let live = wait_report(&daemon, id);
    daemon.wait_idle();
    let replayed = wait_report(&daemon, id);
    assert_eq!(live, replayed);

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn watchers_of_a_live_job_see_progress_frames_before_the_result() {
    let daemon = quick_daemon(1);
    // Park a first job so the watched one is still queued when we attach.
    let first = daemon
        .submit(JobSpec::case_study("first").with_options(SessionOptions::quick()))
        .expect("submit first");
    let (id, rx) = daemon
        .submit_watched(JobSpec::case_study("watched").with_options(SessionOptions::quick()))
        .expect("submit watched");
    let mut saw_progress = false;
    for frame in rx {
        match frame {
            Frame::Progress { id: got, .. } => {
                assert_eq!(got, id);
                saw_progress = true;
            }
            Frame::Result { id: got, report } => {
                assert_eq!(got, id);
                assert_eq!(report.error, None);
                break;
            }
            other => panic!("unexpected frame {}", other.kind()),
        }
    }
    assert!(saw_progress, "a watched job should stream progress frames");
    let _ = first;

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn a_watched_job_streams_every_phase_in_order_and_levels_at_a_human_rate() {
    let daemon = quick_daemon(1);
    let started = Instant::now();
    let (id, rx) = daemon
        .submit_watched(JobSpec::case_study("paced").with_options(SessionOptions::quick()))
        .expect("submit");
    let mut phases = Vec::new();
    let mut levels = 0;
    for frame in rx {
        match frame {
            Frame::Progress { id: got, update } => {
                assert_eq!(got, id);
                match update {
                    ProgressUpdate::Phase { name } => phases.push(name),
                    ProgressUpdate::Level { .. } => levels += 1,
                }
            }
            Frame::Result { id: got, report } => {
                assert_eq!(got, id);
                assert_eq!(report.cache.as_deref(), Some("miss"));
                break;
            }
            other => panic!("unexpected frame {}", other.kind()),
        }
    }
    let watched_ms = started.elapsed().as_millis();
    assert_eq!(
        phases,
        [
            "parse",
            "instantiate",
            "schedule",
            "translate",
            "analyze",
            "simulate",
            "verify"
        ]
    );
    // The first level passes, then at most one per 100 ms of the job's
    // run, and the watch outlasts the run. The four threads explore 24
    // levels each, far more than a quick job's run allows.
    assert!(levels >= 1, "no level frame");
    assert!(
        levels <= 1 + watched_ms / 100,
        "{levels} level frames in {watched_ms} ms"
    );

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn a_queued_job_can_be_cancelled_but_done_jobs_cannot() {
    let daemon = quick_daemon(1);
    let running = daemon
        .submit(JobSpec::case_study("running").with_options(SessionOptions::quick()))
        .expect("submit running");
    let queued = daemon
        .submit(JobSpec::case_study("queued").with_options(SessionOptions::quick()))
        .expect("submit queued");
    assert_eq!(daemon.cancel(queued).expect("cancel"), JobState::Cancelled);

    wait_report(&daemon, running);
    daemon.wait_idle();
    assert_eq!(daemon.cancel(running).expect("cancel done"), JobState::Done);

    let rows = daemon.status(None).expect("status");
    let states: BTreeMap<u64, JobState> = rows.iter().map(|r| (r.id, r.state)).collect();
    assert_eq!(states[&running], JobState::Done);
    assert_eq!(states[&queued], JobState::Cancelled);

    let cancelled_report = wait_report(&daemon, queued);
    assert!(cancelled_report.error.is_some());

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn cancelling_a_claimed_job_reports_cancelled_never_a_completed_result() {
    let daemon = quick_daemon(1);
    // A long simulation horizon keeps the worker mid-`run_job` long enough
    // to observe `Running` and land the cancel inside the claim window.
    let mut slow = SessionOptions::quick();
    slow.simulate.hyperperiods = 300;
    let (id, rx) = daemon
        .submit_watched(JobSpec::case_study("doomed").with_options(slow))
        .expect("submit");

    // Wait until a worker has claimed the job off the queue.
    loop {
        let state = daemon.status(Some(id)).expect("status")[0].state;
        if state == JobState::Running {
            break;
        }
        assert!(
            !state.is_terminal(),
            "job reached {state:?} before it could be cancelled — raise the horizon"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    // The ack is binding even though the worker is mid-run: the in-flight
    // result must be discarded, never reported.
    assert_eq!(daemon.cancel(id).expect("cancel"), JobState::Cancelled);

    // The watcher sees exactly one result frame — the cancelled report.
    let results: Vec<WireReport> = rx
        .iter()
        .filter_map(|frame| match frame {
            Frame::Result { id: got, report } => {
                assert_eq!(got, id);
                Some(report)
            }
            _ => None,
        })
        .collect();
    assert_eq!(results.len(), 1, "exactly one result frame after a cancel");
    assert!(
        results[0]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("cancelled"),
        "the single result is the cancelled report: {:?}",
        results[0]
    );

    // Once the worker completes (and discards its report), the job still
    // reports Cancelled everywhere: status, repeat cancel, fresh watch.
    daemon.wait_idle();
    assert_eq!(
        daemon.status(Some(id)).expect("status")[0].state,
        JobState::Cancelled
    );
    assert_eq!(
        daemon.cancel(id).expect("cancel again"),
        JobState::Cancelled
    );
    let replayed = wait_report(&daemon, id);
    assert!(replayed
        .error
        .as_deref()
        .unwrap_or("")
        .contains("cancelled"));

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn an_invalid_spec_is_rejected_at_submission() {
    let daemon = quick_daemon(1);
    let mut options = SessionOptions::quick();
    options.verify.workers = 0;
    let err = daemon
        .submit(JobSpec::case_study("bad").with_options(options))
        .expect_err("zero verify workers must not validate");
    assert!(err.to_string().contains("invalid job spec"));

    daemon.request_shutdown();
    daemon.join();
}

#[test]
fn the_job_log_replays_finished_jobs_and_requeues_unfinished_ones() {
    let dir = std::env::temp_dir().join(format!("polychronyd-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("jobs.log");
    let _ = std::fs::remove_file(&log);

    let first_report;
    {
        let daemon = Daemon::new(DaemonConfig {
            workers: 1,
            log_path: Some(log.clone()),
            ..DaemonConfig::default()
        })
        .expect("first daemon");
        let id = daemon
            .submit(JobSpec::case_study("persisted").with_options(SessionOptions::quick()))
            .expect("submit");
        first_report = wait_report(&daemon, id);
        daemon.wait_idle();
        daemon.request_shutdown();
        daemon.join();
    }

    // Simulate a submission that never ran: append its `submitted` line by
    // hand, as if the daemon died before a worker claimed it.
    {
        use std::io::Write;
        let spec = JobSpec::case_study("interrupted").with_options(SessionOptions::quick());
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log");
        writeln!(file, "{}", {
            let mut obj = std::collections::BTreeMap::new();
            obj.insert(
                "event".to_string(),
                polyobs::json::Json::Str("submitted".into()),
            );
            obj.insert("id".to_string(), polyobs::json::Json::Num(2.0));
            obj.insert("spec".to_string(), spec.to_json());
            polyobs::json::Json::Obj(obj)
        })
        .expect("append");
    }

    let daemon = Daemon::new(DaemonConfig {
        workers: 1,
        log_path: Some(log.clone()),
        ..DaemonConfig::default()
    })
    .expect("second daemon");
    // Job 1 finished before the restart: watch replays its stored report.
    let replayed = wait_report(&daemon, 1);
    assert_eq!(replayed, first_report);
    // Job 2 was still queued: the restart re-runs it to completion.
    let rerun = wait_report(&daemon, 2);
    assert_eq!(rerun.error, None);
    assert_eq!(rerun.verdicts, first_report.verdicts);

    daemon.request_shutdown();
    daemon.join();
    let _ = std::fs::remove_file(&log);
}

/// One job-log line: a JSON object of `pairs`.
fn log_line(pairs: Vec<(&str, Json)>) -> String {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_string() + "\n"
}

#[test]
fn log_replay_keeps_the_newest_reports_and_every_status_row() {
    const FINISHED: u64 = 1030;
    let dir = std::env::temp_dir().join(format!("polychronyd-bounded-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let log = dir.join("jobs.log");

    // Jobs 1..=1031. Job 3 never ran; every other job finished, in id
    // order except job 1, which finished last.
    let queued = 3;
    let last = FINISHED + 1;
    let finished = |id: u64| {
        let report = WireReport {
            passed: true,
            cache: Some("miss".into()),
            hyperperiod: 24,
            states: 24,
            transitions: 24,
            verdicts: BTreeMap::new(),
            error: None,
            wall_us: id,
        };
        log_line(vec![
            ("event", Json::Str("finished".into())),
            ("id", Json::Num(id as f64)),
            ("report", report.to_json()),
        ])
    };
    let mut text = String::new();
    for id in 1..=last {
        let spec = JobSpec::case_study(format!("logged{id}")).with_options(SessionOptions::quick());
        text += &log_line(vec![
            ("event", Json::Str("submitted".into())),
            ("id", Json::Num(id as f64)),
            ("spec", spec.to_json()),
        ]);
        if id != 1 && id != queued {
            text += &finished(id);
        }
    }
    text += &finished(1);
    std::fs::write(&log, text).expect("write log");

    let daemon = Daemon::new(DaemonConfig {
        workers: 1,
        log_path: Some(log.clone()),
        ..DaemonConfig::default()
    })
    .expect("daemon on the synthetic log");
    let dropped =
        |id: u64| matches!(daemon.watch(id), Err(ServerError::ReportDropped(got)) if got == id);
    // Every job keeps its status row. The six jobs that finished first
    // (2, 4, 5, 6, 7, 8) lost their reports; job 1, the last to finish,
    // and the queued job 3 did not.
    let rows = daemon.status(None).expect("status");
    assert_eq!(rows.len(), last as usize);
    assert!([2, 4, 5, 6, 7, 8].into_iter().all(dropped));
    let row = &daemon.status(Some(2)).expect("row kept")[0];
    assert_eq!(row.detail, "pass [cache: miss]");
    assert_eq!(daemon.cancel(2).expect("cancel"), JobState::Done);
    assert_eq!(wait_report(&daemon, 1).wall_us, 1);

    // The queued job runs; its report is then the newest kept, and the
    // next oldest is dropped.
    let rerun = wait_report(&daemon, queued);
    assert_eq!(rerun.error, None);
    assert!(dropped(9));
    assert_eq!(wait_report(&daemon, 10).wall_us, 10);
    // Ids continue above the largest logged one.
    let unknown = last + 1;
    assert!(
        matches!(daemon.status(Some(unknown)), Err(ServerError::UnknownJob(got)) if got == unknown)
    );
    let fresh = daemon
        .submit(JobSpec::case_study("fresh").with_options(SessionOptions::quick()))
        .expect("submit");
    assert_eq!(fresh, unknown);

    daemon.request_shutdown();
    daemon.join();
    let _ = std::fs::remove_file(&log);
}

/// Drives a served daemon from a blocking client on `endpoint`: a cold
/// submit is a cache miss, a warm one over a fresh connection a simulated
/// hit with the same verdicts, 20 `status` round trips stay far below the
/// stall of Nagle's algorithm against a delayed ACK (40 ms each), and a
/// `shutdown` request ends the serve loop.
fn round_trip(daemon: &Daemon, server: JoinHandle<Result<(), ServerError>>, endpoint: &Endpoint) {
    let mut client = (0..200)
        .find_map(|_| {
            let client = endpoint.connect().ok();
            if client.is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
            client
        })
        .expect("connect");
    let spec = JobSpec::case_study("over-the-wire").with_options(SessionOptions::quick());
    let (id, state) = client.submit(&spec, true).expect("submit");
    assert_eq!(state, JobState::Queued);
    let (result_id, report) = client.wait(|_, _| {}).expect("wait for result");
    assert_eq!(result_id, id);
    assert_eq!(report.error, None);
    assert_eq!(report.cache.as_deref(), Some("miss"));

    // Second submission over a fresh connection: served from the cache.
    let mut second = endpoint.connect().expect("reconnect");
    let (_, _) = second.submit(&spec, true).expect("resubmit");
    let (_, warm) = second.wait(|_, _| {}).expect("wait warm");
    assert_eq!(warm.cache.as_deref(), Some("simulated-hit"));
    assert_eq!(warm.verdicts, report.verdicts);

    let started = Instant::now();
    for _ in 0..20 {
        client.status(Some(id)).expect("status");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(800),
        "20 status round trips over {endpoint} took {elapsed:?}"
    );
    let rows = client.status(None).expect("status");
    assert_eq!(rows.len(), 2);

    let mut stopper = endpoint.connect().expect("connect for shutdown");
    stopper.shutdown().expect("shutdown ack");
    server.join().expect("serve thread").expect("serve ok");
    daemon.join();
}

#[test]
fn the_wire_protocol_round_trips_over_a_unix_socket() {
    let dir = std::env::temp_dir().join(format!("polychronyd-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let socket = dir.join("daemon.sock");

    let daemon = quick_daemon(2);
    let server = {
        let daemon = daemon.clone();
        let socket = socket.clone();
        std::thread::spawn(move || daemon.serve_unix(&socket))
    };
    round_trip(&daemon, server, &Endpoint::Unix(socket.clone()));
    assert!(!socket.exists(), "socket file is removed on shutdown");
}

#[test]
fn the_wire_protocol_round_trips_over_tcp() {
    // A free loopback port: bind it, note it, and release it for the daemon.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|listener| listener.local_addr())
        .expect("free loopback port")
        .to_string();

    let daemon = quick_daemon(2);
    let server = {
        let daemon = daemon.clone();
        let addr = addr.clone();
        std::thread::spawn(move || daemon.serve_tcp(&addr))
    };
    round_trip(&daemon, server, &Endpoint::Tcp(addr));
}
