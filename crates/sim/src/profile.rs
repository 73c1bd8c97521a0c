//! Profiling of simulated traces: per-signal activity counters and derived
//! performance indicators, the "profiling-based analysis of real-time
//! characteristics" the paper connects to the Polychrony core.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Activity profile of one signal over a simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SignalProfile {
    /// Signal name.
    pub name: String,
    /// Number of instants where the signal is present.
    pub presence_count: usize,
    /// Number of instants where the signal is present with a truthy value
    /// (for booleans: `true`; for events: always; for numbers: non-zero).
    pub active_count: usize,
    /// Presence rate relative to the trace length (its activation rate on
    /// the fastest clock).
    pub presence_rate: f64,
    /// Largest integer value observed (useful for FIFO depths and counters).
    pub max_int: Option<i64>,
}

/// Profile of a whole simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Number of instants simulated.
    pub instants: usize,
    /// Per-signal profiles, indexed by name.
    pub signals: BTreeMap<String, SignalProfile>,
}

impl ProfileReport {
    /// Profile of one signal.
    pub fn signal(&self, name: &str) -> Option<&SignalProfile> {
        self.signals.get(name)
    }

    /// Number of activations (truthy instants) of a signal, 0 if unknown.
    pub fn activations(&self, name: &str) -> usize {
        self.signal(name).map(|s| s.active_count).unwrap_or(0)
    }

    /// Signals whose name ends with the given suffix — convenient to collect
    /// per-thread indicators (`*_Alarm`, `*_Dispatch`, …).
    pub fn signals_with_suffix(&self, suffix: &str) -> Vec<&SignalProfile> {
        self.signals
            .values()
            .filter(|s| s.name.ends_with(suffix))
            .collect()
    }

    /// Renders a compact textual report sorted by activity.
    pub fn to_table(&self, limit: usize) -> String {
        let mut rows: Vec<&SignalProfile> = self.signals.values().collect();
        rows.sort_by(|a, b| {
            b.active_count
                .cmp(&a.active_count)
                .then(a.name.cmp(&b.name))
        });
        let mut out = format!("profile over {} instants\n", self.instants);
        out.push_str("signal                                   present  active  rate\n");
        for row in rows.into_iter().take(limit) {
            out.push_str(&format!(
                "{:<40} {:>7} {:>7} {:>5.2}\n",
                row.name, row.presence_count, row.active_count, row.presence_rate
            ));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use signal_moc::trace::Trace;
    use signal_moc::value::Value;

    /// The profile of a whole trace, folded as [`crate::Simulator::report`]
    /// folds its history.
    fn profile(trace: &Trace) -> ProfileReport {
        crate::engine::report_over(trace).profile
    }

    fn trace() -> Trace {
        let mut tr = Trace::new();
        for t in 0..10usize {
            tr.set(t, "Dispatch", Value::Bool(t % 2 == 0));
            if t % 3 == 0 {
                tr.set(t, "depth", Value::Int(t as i64));
            }
        }
        tr
    }

    #[test]
    fn counts_and_rates() {
        let report = profile(&trace());
        assert_eq!(report.instants, 10);
        let dispatch = report.signal("Dispatch").unwrap();
        assert_eq!(dispatch.presence_count, 10);
        assert_eq!(dispatch.active_count, 5);
        assert!((dispatch.presence_rate - 1.0).abs() < 1e-9);
        let depth = report.signal("depth").unwrap();
        assert_eq!(depth.presence_count, 4);
        assert_eq!(depth.max_int, Some(9));
        assert_eq!(report.activations("Dispatch"), 5);
        assert_eq!(report.activations("missing"), 0);
    }

    #[test]
    fn suffix_query_and_table() {
        let report = profile(&trace());
        assert_eq!(report.signals_with_suffix("Dispatch").len(), 1);
        let table = report.to_table(10);
        assert!(table.contains("Dispatch"));
        assert!(table.contains("profile over 10 instants"));
    }

    /// The per-signal profile computation the one-pass fold replaced: one
    /// lookup per signal per step.
    fn reference_profile(trace: &Trace) -> ProfileReport {
        let instants = trace.len();
        let mut signals = BTreeMap::new();
        for name in trace.signals() {
            let mut presence = 0usize;
            let mut active = 0usize;
            let mut max_int = None;
            for step in trace.iter() {
                if let Some(v) = step.get(&name) {
                    presence += 1;
                    if v.as_bool() {
                        active += 1;
                    }
                    if let Some(i) = v.as_int() {
                        max_int = Some(max_int.map_or(i, |m: i64| m.max(i)));
                    }
                }
            }
            signals.insert(
                name.clone(),
                SignalProfile {
                    name,
                    presence_count: presence,
                    active_count: active,
                    presence_rate: if instants == 0 {
                        0.0
                    } else {
                        presence as f64 / instants as f64
                    },
                    max_int,
                },
            );
        }
        ProfileReport { instants, signals }
    }

    /// A random trace over a few signals of mixed types, some absent.
    pub(crate) fn random_trace(cells: &[(u8, u8, i64)]) -> Trace {
        let mut trace = Trace::new();
        for (i, &(signal, kind, value)) in cells.iter().enumerate() {
            let t = i / 3;
            let name = format!("s{signal}");
            let value = match kind {
                0 => Value::Bool(value >= 0),
                1 => Value::Int(value),
                2 => Value::Real(value as f64 / 4.0),
                3 => Value::Event,
                _ => Value::Text(format!("{value}")),
            };
            trace.set(t, name, value);
        }
        trace
    }

    proptest::proptest! {
        #[test]
        fn one_pass_profile_matches_the_per_signal_reference(
            cells in proptest::collection::vec((0u8..6, 0u8..5, -8i64..=8), 0..40),
        ) {
            let trace = random_trace(&cells);
            proptest::prop_assert_eq!(profile(&trace), reference_profile(&trace));
        }
    }

    #[test]
    fn empty_trace_profile() {
        let report = profile(&Trace::new());
        assert_eq!(report.instants, 0);
        assert!(report.signals.is_empty());
    }
}
