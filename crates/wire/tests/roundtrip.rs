//! Property tests of the `polychrony-wire-v1` codec: every frame kind must
//! survive encode → decode bit-identically, and junk must be rejected with
//! an error (never a panic, never a wrong frame).

use std::io::BufReader;

use polychrony_core::sched::SchedulingPolicy;
use polychrony_core::{PropertySpec, SessionOptions, VcdCapture, VerificationScope};
use polyobs::ProgressUpdate;
use polywire::{read_frame, write_frame, Frame, JobSpec, JobState, JobStatus, WireReport};
use proptest::prelude::*;

/// Names with the characters most likely to break hand-rolled JSON:
/// quotes, backslashes, newlines, control bytes, non-ASCII.
fn names() -> Vec<&'static str> {
    vec![
        "sweep-0",
        "",
        "with space",
        "quo\"ted\\slash",
        "line\nbreak\ttab",
        "unicode-é-Δ-中",
        "ctrl-\u{1}-char",
    ]
}

fn roundtrip(frame: &Frame) -> Frame {
    let mut wire = Vec::new();
    write_frame(&mut wire, frame).unwrap();
    let mut reader = BufReader::new(wire.as_slice());
    let decoded = read_frame(&mut reader).unwrap().expect("one frame written");
    assert!(
        read_frame(&mut reader).unwrap().is_none(),
        "clean EOF after frame"
    );
    decoded
}

fn options_variant(policy: usize, scope: bool, vcd: usize, n: u64) -> SessionOptions {
    let mut options = SessionOptions::default();
    options.schedule.policy = match policy % 3 {
        0 => SchedulingPolicy::RateMonotonic,
        1 => SchedulingPolicy::EarliestDeadlineFirst,
        _ => SchedulingPolicy::FixedPriority,
    };
    options.translate.default_queue_size = (n % 7 + 1) as usize;
    options.simulate.hyperperiods = n % 5 + 1;
    options.simulate.vcd = match vcd % 3 {
        0 => VcdCapture::First,
        1 => VcdCapture::Off,
        _ => VcdCapture::Thread(format!("thread-{n}")),
    };
    options.verify.enabled = n.is_multiple_of(2);
    options.verify.workers = (n % 4 + 1) as usize;
    options.verify.hyperperiods = n % 3 + 1;
    options.verify.scope = if scope {
        VerificationScope::Product
    } else {
        VerificationScope::PerThread
    };
    if n % 2 == 1 {
        options.verify.properties = vec![
            PropertySpec::new("never raised(*Alarm*)"),
            PropertySpec::new(format!(
                "always (Dispatch implies Resume within {})",
                n % 9 + 1
            )),
        ];
    }
    options
}

proptest! {
    #[test]
    fn submit_frames_round_trip(
        (policy, vcd) in (0usize..3, 0usize..3),
        (scope, watch) in (any::<bool>(), any::<bool>()),
        n in 0u64..10_000,
        name in prop::sample::select(names()),
        source in prop::option::of(prop::sample::select(names())),
    ) {
        let frame = Frame::Submit {
            spec: JobSpec {
                name: name.to_string(),
                source: source.map(str::to_string),
                root: "sysProdCons.impl".to_string(),
                options: options_variant(policy, scope, vcd, n),
            },
            watch,
        };
        prop_assert_eq!(roundtrip(&frame), frame);
    }

    #[test]
    fn control_frames_round_trip(
        id in 0u64..1_000_000,
        with_id in any::<bool>(),
        state in 0usize..5,
        name in prop::sample::select(names()),
    ) {
        let state = [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ][state];
        let frames = vec![
            Frame::Status { id: with_id.then_some(id) },
            Frame::Cancel { id },
            Frame::Watch { id },
            Frame::Shutdown,
            Frame::Ack { id, state },
            Frame::Jobs {
                jobs: vec![JobStatus {
                    id,
                    name: name.to_string(),
                    state,
                    detail: format!("pass [cache: miss] {name}"),
                }],
            },
            Frame::Error { message: name.to_string() },
        ];
        for frame in frames {
            prop_assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn progress_and_result_frames_round_trip(
        id in 0u64..1_000_000,
        (depth, states, frontier) in (0u64..10_000, 0u64..100_000, 0u64..1_000),
        bound in prop::option::of(0u64..10_000),
        passed in any::<bool>(),
        name in prop::sample::select(names()),
    ) {
        let phase = Frame::Progress {
            id,
            update: ProgressUpdate::Phase { name: name.to_string() },
        };
        prop_assert_eq!(roundtrip(&phase), phase);

        let level = Frame::Progress {
            id,
            update: ProgressUpdate::Level {
                phase: name.to_string(),
                depth,
                bound,
                states,
                frontier,
            },
        };
        prop_assert_eq!(roundtrip(&level), level);

        let result = Frame::Result {
            id,
            report: WireReport {
                passed,
                cache: bound.map(|_| "frontend-hit".to_string()),
                hyperperiod: depth,
                states,
                transitions: states * 2,
                verdicts: [(name.to_string(), format!("verdict of {name}"))]
                    .into_iter()
                    .collect(),
                error: (!passed).then(|| format!("phase error: {name}")),
                wall_us: frontier,
            },
        };
        prop_assert_eq!(roundtrip(&result), result);
    }

    #[test]
    fn junk_bytes_never_decode_to_a_frame(
        len in 0u64..100,
        body in prop::sample::select(vec![
            "garbage", "{}", "{\"proto\":\"polychrony-wire-v1\"}", "[1,2,3]", "null",
            "{\"proto\":\"other\",\"kind\":\"shutdown\"}", "\u{0}\u{1}\u{2}",
        ]),
    ) {
        // A random length prefix over a random body either errors (length
        // mismatch, bad JSON, bad frame) or decodes nothing — it must never
        // produce a frame, because none of these bodies is a valid frame.
        let stream = format!("{len}\n{body}\n");
        let mut reader = BufReader::new(stream.as_bytes());
        if let Ok(Some(frame)) = read_frame(&mut reader) {
            prop_assert!(false, "junk decoded to {frame:?}");
        }
    }
}

/// Daemon job logs written before six verify options were retired still
/// carry their keys. Unknown keys are ignored, so such a line decodes to
/// the same spec as one without them and the log replays.
#[test]
fn retired_option_keys_still_decode() {
    let current = r#"{"name":"old","source":null,"root":"sysProdCons.impl",
        "options":{"verify":{"workers":1,"hyperperiods":2,"scope":"product"}}}"#;
    let retired = r#"{"name":"old","source":null,"root":"sysProdCons.impl",
        "options":{"verify":{"workers":1,"hyperperiods":2,"scope":"product",
        "frontier":"barrier","pruning":false,"interner_capacity":1,
        "domain":"interval","project_counters":true,"widen_threshold":3}}}"#;
    let decode = |text: &str| JobSpec::from_json(&polyobs::json::parse(text).unwrap()).unwrap();
    let spec = decode(current);
    assert_eq!(spec.options.verify.hyperperiods, 2);
    assert_eq!(decode(retired), spec);

    // The same line inside a `submit` frame, as a client built before the
    // keys were retired would send it.
    let submit = format!(
        r#"{{"proto":"polychrony-wire-v1","kind":"submit","watch":false,"spec":{retired}}}"#
    );
    let frame = Frame::from_json(&polyobs::json::parse(&submit).unwrap()).unwrap();
    assert_eq!(frame, Frame::Submit { spec, watch: false });
}
