//! Per-run summaries embedded into toolchain reports.
//!
//! A [`RunRecord`] is the durable, report-friendly residue of a run's
//! telemetry: one [`PhaseRecord`] per pipeline phase (wall time plus the
//! phase's deterministic attributes) and a final counter snapshot. It is
//! deliberately small and owned — reports must stay self-contained after
//! the collector is gone.

use std::fmt::Write as _;

/// Timing and attributes for one pipeline phase.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseRecord {
    /// Phase name (`parse`, `instantiate`, …, `verify`).
    pub name: String,
    /// Wall-clock duration of the phase in microseconds.
    pub wall_us: u64,
    /// Phase-specific numeric attributes (e.g. `states`, `hyperperiod`).
    pub attrs: Vec<(String, u64)>,
}

impl PhaseRecord {
    /// Look up a numeric attribute by name.
    pub fn attr(&self, name: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// The telemetry summary a finished run leaves behind in its report.
///
/// # Equality
///
/// `PartialEq` compares the *shape* of the run only — the sequence of phase
/// names. Wall times and counter values are measurements, not results: two
/// runs of the same model must produce equal reports (the cold-vs-warm
/// cache and batch worker-count determinism pins rely on this), and counters may
/// legitimately differ between such runs: a warm artifact cache counts
/// hits where a cold run counts misses.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    /// One record per executed phase, in execution order.
    pub phases: Vec<PhaseRecord>,
    /// Final collector counter snapshot `(name, value)`, sorted by name.
    /// Empty when the run's collector was noop.
    pub counters: Vec<(String, u64)>,
}

impl PartialEq for RunRecord {
    fn eq(&self, other: &Self) -> bool {
        self.phases.len() == other.phases.len()
            && self
                .phases
                .iter()
                .zip(&other.phases)
                .all(|(a, b)| a.name == b.name)
    }
}

impl Eq for RunRecord {}

impl RunRecord {
    /// Append a phase record.
    pub fn push(&mut self, phase: PhaseRecord) {
        self.phases.push(phase);
    }

    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseRecord> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Total wall time across all recorded phases, in microseconds.
    pub fn total_us(&self) -> u64 {
        self.phases.iter().map(|p| p.wall_us).sum()
    }

    /// A multi-line human rendering: one line per phase with duration and
    /// attributes, plus a total.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for phase in &self.phases {
            let _ = write!(
                out,
                "  {:<12} {:>9.3} ms",
                phase.name,
                phase.wall_us as f64 / 1000.0
            );
            for (k, v) in &phase.attrs {
                let _ = write!(out, "  {k}={v}");
            }
            out.push('\n');
        }
        let _ = write!(
            out,
            "  {:<12} {:>9.3} ms",
            "total",
            self.total_us() as f64 / 1000.0
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(names: &[&str], wall: u64) -> RunRecord {
        RunRecord {
            phases: names
                .iter()
                .map(|n| PhaseRecord {
                    name: n.to_string(),
                    wall_us: wall,
                    attrs: vec![("states".into(), 10)],
                })
                .collect(),
            counters: vec![("cache.hits.simulated".into(), wall)],
        }
    }

    #[test]
    fn equality_ignores_timings_and_counter_values() {
        let a = record(&["parse", "verify"], 10);
        let b = record(&["parse", "verify"], 99_999);
        assert_eq!(
            a, b,
            "wall times and counters are measurements, not results"
        );
        let c = record(&["parse", "simulate"], 10);
        assert_ne!(a, c, "phase sequence is part of the run's shape");
    }

    #[test]
    fn accessors_and_summary_render_phases() {
        let mut r = RunRecord::default();
        r.push(PhaseRecord {
            name: "verify".into(),
            wall_us: 1500,
            attrs: vec![("states".into(), 97)],
        });
        assert_eq!(r.phase("verify").and_then(|p| p.attr("states")), Some(97));
        assert_eq!(r.total_us(), 1500);
        let summary = r.summary();
        assert!(summary.contains("verify"), "{summary}");
        assert!(summary.contains("states=97"), "{summary}");
        assert!(summary.contains("total"), "{summary}");
    }
}
