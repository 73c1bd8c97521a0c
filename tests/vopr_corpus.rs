//! Seed corpus for the vopr chaos harness: every entry is a scenario seed
//! that a previous harness run found, shrank and printed a replay line
//! for. Replaying them pins three things at once — the generator stream
//! (the seed still produces the same system), the detection path (the
//! injected fault is still caught by the same property) and the shrinker
//! (the minimal system stays minimal and stable across runs).
//!
//! When a harness run prints `replay: polychrony vopr --replay 0x… --fault
//! f`, adding `(FaultKind, seed)` here turns that one-off finding into a
//! permanent regression test.

use polyvopr::{replay, FaultKind, VoprOptions, VoprVerdict};

/// One corpus entry: an injected fault, the scenario seed that catches it,
/// and a fragment of the property name expected to flag the violation.
struct CorpusEntry {
    fault: FaultKind,
    seed: u64,
    property_fragment: &'static str,
}

/// Findings recorded from harness runs with the default `--max-threads 5`.
/// Per-thread faults surface as alarm violations; link faults surface as
/// end-to-end response violations on the tampered connection.
const CORPUS: [CorpusEntry; 6] = [
    CorpusEntry {
        fault: FaultKind::DeadlineOverrun,
        seed: 0x73fb_1f33_5173_76f7,
        property_fragment: "never-raised",
    },
    CorpusEntry {
        fault: FaultKind::DispatchJitter,
        seed: 0xe3e0_fdad_713b_79da,
        property_fragment: "never-raised",
    },
    CorpusEntry {
        fault: FaultKind::CorruptedSchedule,
        seed: 0xdb9b_c913_eca9_c4b4,
        property_fragment: "never-raised",
    },
    CorpusEntry {
        fault: FaultKind::ConnectionLatency,
        seed: 0x9ad8_70b5_7940_a53f,
        property_fragment: "end-to-end-response",
    },
    CorpusEntry {
        fault: FaultKind::DroppedDelivery,
        seed: 0x9ca4_4a0a_c6d0_58b2,
        property_fragment: "end-to-end-response",
    },
    // Drifted counter state is flagged by the probe property that reads
    // the drifted signal — which also keeps the slot out of the slice
    // (the slice oracle runs on every scenario, drifted or not).
    CorpusEntry {
        fault: FaultKind::CounterDrift,
        seed: 0x5ec8_97b9_a1e7_c2fa,
        property_fragment: "dispatch_count",
    },
];

fn corpus_options(fault: FaultKind) -> VoprOptions {
    VoprOptions {
        fault: Some(fault),
        ..VoprOptions::default()
    }
}

#[test]
fn every_corpus_seed_still_detects_its_fault() {
    for entry in &CORPUS {
        let report = replay(entry.seed, &corpus_options(entry.fault), &mut |_| {});
        let VoprVerdict::Fault(case) = &report.verdict else {
            panic!(
                "corpus seed 0x{:016x} ({}) no longer detects its fault:\n{}",
                entry.seed,
                entry.fault,
                report.summary()
            );
        };
        assert_eq!(case.fault, entry.fault);
        assert_eq!(case.scenario_seed, entry.seed);
        assert!(
            case.property.contains(entry.property_fragment),
            "seed 0x{:016x}: property `{}` lost the expected `{}` fragment",
            entry.seed,
            case.property,
            entry.property_fragment
        );
        // The report always carries a replay line for the finding.
        let expected = format!(
            "replay: polychrony vopr --replay 0x{:016x} --fault {}",
            entry.seed, entry.fault
        );
        assert!(
            report.summary().contains(&expected),
            "summary lost its replay line:\n{}",
            report.summary()
        );
    }
}

#[test]
fn corpus_replays_shrink_to_stable_minimal_systems() {
    for entry in &CORPUS {
        let first = replay(entry.seed, &corpus_options(entry.fault), &mut |_| {});
        let second = replay(entry.seed, &corpus_options(entry.fault), &mut |_| {});
        assert_eq!(
            first, second,
            "replay of 0x{:016x} ({}) is not deterministic",
            entry.seed, entry.fault
        );
        let VoprVerdict::Fault(case) = &first.verdict else {
            panic!("corpus seed 0x{:016x} lost its fault", entry.seed);
        };
        // Minimality: link faults need the sender/receiver pair, per-thread
        // faults shrink the topology around the faulty thread.
        let floor = if entry.fault.needs_links() { 2 } else { 1 };
        assert!(
            case.spec.threads.len() <= floor + 1,
            "seed 0x{:016x}: shrinker left {} thread(s), expected near the {} floor:\n{}",
            entry.seed,
            case.spec.threads.len(),
            floor,
            case.spec.summary()
        );
        if entry.fault.needs_links() {
            assert_eq!(
                case.spec.connections.len(),
                1,
                "link faults shrink to a single tampered connection:\n{}",
                case.spec.summary()
            );
        }
    }
}

#[test]
fn a_clean_corpus_seed_passes_the_full_oracle_battery() {
    // Pure chaos mode on a seed with no recorded finding: the pipeline,
    // cache, monitor, lockstep, slice and replay oracles must all agree.
    let options = VoprOptions::default();
    let report = replay(0xdbfa_5755_b794_49d0, &options, &mut |_| {});
    assert!(
        matches!(report.verdict, VoprVerdict::Clean),
        "expected a clean pass:\n{}",
        report.summary()
    );
    assert_eq!(report.passed, 1);
}
