//! Value Change Dump (VCD) emission from multi-clock traces.
//!
//! The paper demonstrates co-simulation of AADL specifications "using the
//! VCD technique": the simulated signals are dumped in the standard IEEE
//! 1364 VCD format so that any waveform viewer can display the polychronous
//! execution. This module converts a [`Trace`] to VCD text, and folds the
//! same text one resolved instant at a time for
//! [`simulate_folded`](crate::simulate_folded).

use std::fmt::Write as _;

use signal_moc::trace::Trace;
use signal_moc::value::Value;

use crate::engine::indexed;

/// Converts a trace to VCD text.
///
/// Each signal present at least once becomes a VCD variable, listed in
/// name order and typed by its first present value: booleans and events
/// are 1-bit wires (an event is dumped as a one-tick pulse), integers are
/// 64-bit registers, reals use the VCD `real` type, and strings are dumped
/// as `real 0` placeholders (VCD has no string type). One trace instant
/// corresponds to `timescale_ns` nanoseconds.
pub fn write_vcd(trace: &Trace, module: &str, timescale_ns: u64) -> String {
    let names = trace.signals();
    let mut recorder = VcdRecorder::new(names.len());
    for step in trace.iter() {
        recorder.record(indexed(step, &names));
    }
    recorder.finish(&names, module, timescale_ns)
}

/// A VCD waveform folded one instant at a time from the present signals,
/// each keyed by its index in a name table, and written out once the run
/// ends (the header needs every signal the run shows).
#[derive(Debug, Clone)]
pub(crate) struct VcdRecorder {
    /// Per index: the instants the signal is present at, with its value.
    columns: Vec<Vec<(usize, Value)>>,
    instants: usize,
}

impl VcdRecorder {
    /// An empty waveform over `signals` indices.
    pub(crate) fn new(signals: usize) -> Self {
        Self {
            columns: vec![Vec::new(); signals],
            instants: 0,
        }
    }

    /// Folds one instant.
    pub(crate) fn record<'v>(&mut self, present: impl IntoIterator<Item = (usize, &'v Value)>) {
        for (index, value) in present {
            self.columns[index].push((self.instants, value.clone()));
        }
        self.instants += 1;
    }

    /// The VCD text, each signal named by `names`, the table the recorder
    /// was fed over.
    pub(crate) fn finish(self, names: &[String], module: &str, timescale_ns: u64) -> String {
        // The signals present at least once, in name order.
        let mut order: Vec<usize> = (0..self.columns.len())
            .filter(|&index| !self.columns[index].is_empty())
            .collect();
        order.sort_by(|&a, &b| names[a].cmp(&names[b]));
        let columns: Vec<&[(usize, Value)]> = order
            .iter()
            .map(|&index| self.columns[index].as_slice())
            .collect();

        let mut out = String::new();
        let _ = writeln!(out, "$date polychrony-aadl reproduction $end");
        let _ = writeln!(out, "$version polysim 0.1 $end");
        let _ = writeln!(out, "$timescale {timescale_ns} ns $end");
        let _ = writeln!(out, "$scope module {module} $end");

        // Assign short identifiers, and each signal its type once.
        let ids: Vec<String> = (0..order.len()).map(vcd_id).collect();
        let types: Vec<(&str, usize)> = columns
            .iter()
            .map(|column| vcd_type(&column[0].1))
            .collect();
        for ((&index, id), (ty, width)) in order.iter().zip(&ids).zip(&types) {
            let _ = writeln!(out, "$var {ty} {width} {id} {} $end", names[index]);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // Initial values: everything absent/zero.
        let _ = writeln!(out, "#0");
        let _ = writeln!(out, "$dumpvars");
        for (id, (ty, _)) in ids.iter().zip(&types) {
            match *ty {
                "wire" => {
                    let _ = writeln!(out, "0{id}");
                }
                "real" => {
                    let _ = writeln!(out, "r0 {id}");
                }
                _ => {
                    let _ = writeln!(out, "b0 {id}");
                }
            }
        }
        let _ = writeln!(out, "$end");

        let mut changes = String::new();
        // Per column: how many of its values earlier instants dumped.
        let mut dumped = vec![0usize; columns.len()];
        for t in 0..self.instants {
            changes.clear();
            for (((column, next), id), (ty, _)) in
                columns.iter().zip(&mut dumped).zip(&ids).zip(&types)
            {
                let value = match column.get(*next) {
                    Some((at, value)) if *at == t => {
                        *next += 1;
                        Some(value)
                    }
                    _ => None,
                };
                match value {
                    Some(value) => match (*ty, value) {
                        ("wire", v) => {
                            let bit = if v.as_bool() { '1' } else { '0' };
                            let _ = writeln!(changes, "{bit}{id}");
                        }
                        ("real", v) => {
                            let _ = writeln!(changes, "r{} {id}", v.as_real().unwrap_or(0.0));
                        }
                        (_, v) => {
                            let bits = v.as_int().unwrap_or(0);
                            let _ = writeln!(changes, "b{bits:b} {id}");
                        }
                    },
                    // Absent event/boolean signals fall back to 0 so pulses
                    // are visible; absent value signals keep their previous
                    // value.
                    None => {
                        if *ty == "wire" {
                            let _ = writeln!(changes, "0{id}");
                        }
                    }
                }
            }
            if !changes.is_empty() {
                let _ = writeln!(out, "#{}", t as u64 * timescale_ns);
                out.push_str(&changes);
            }
        }
        let _ = writeln!(out, "#{}", self.instants as u64 * timescale_ns);
        out
    }
}

fn vcd_id(index: usize) -> String {
    // VCD identifiers use printable ASCII 33..=126.
    let mut id = String::new();
    let mut i = index;
    loop {
        id.push((33 + (i % 94)) as u8 as char);
        i /= 94;
        if i == 0 {
            break;
        }
    }
    id
}

/// The VCD type of a signal whose first present value is `first`.
fn vcd_type(first: &Value) -> (&'static str, usize) {
    match first {
        Value::Event | Value::Bool(_) => ("wire", 1),
        Value::Int(_) => ("reg", 64),
        Value::Real(_) | Value::Text(_) => ("real", 64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::value::Value;

    fn sample_trace() -> Trace {
        let mut tr = Trace::new();
        tr.set(0, "dispatch", Value::Bool(true));
        tr.set(0, "count", Value::Int(1));
        tr.set(1, "dispatch", Value::Bool(false));
        tr.set(2, "dispatch", Value::Bool(true));
        tr.set(2, "count", Value::Int(2));
        tr.set(2, "load", Value::Real(0.5));
        tr
    }

    #[test]
    fn header_declares_all_signals() {
        let vcd = write_vcd(&sample_trace(), "prProdCons", 1_000_000);
        assert!(vcd.contains("$timescale 1000000 ns $end"));
        assert!(vcd.contains("$scope module prProdCons $end"));
        assert!(vcd.contains("$var wire 1 ! dispatch $end") || vcd.contains("dispatch $end"));
        assert!(vcd.contains("count"));
        assert!(vcd.contains("load"));
        assert!(vcd.contains("$enddefinitions $end"));
    }

    #[test]
    fn value_changes_are_dumped_per_instant() {
        let vcd = write_vcd(&sample_trace(), "m", 1);
        // Three time markers plus the final one.
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#1"));
        assert!(vcd.contains("#2"));
        assert!(vcd.contains("#3"));
        // Integer dumped in binary.
        assert!(vcd.contains("b10 "));
        // Real dumped with the r prefix.
        assert!(vcd.contains("r0.5 "));
    }

    #[test]
    fn identifiers_are_unique_and_printable() {
        let mut tr = Trace::new();
        for i in 0..200 {
            tr.set(0, format!("s{i}"), Value::Bool(true));
        }
        let vcd = write_vcd(&tr, "wide", 1);
        let ids: Vec<&str> = vcd
            .lines()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).unwrap())
            .collect();
        let unique: std::collections::BTreeSet<&&str> = ids.iter().collect();
        assert_eq!(ids.len(), 200);
        assert_eq!(unique.len(), 200);
        assert!(ids
            .iter()
            .all(|id| id.chars().all(|c| ('!'..='~').contains(&c))));
    }

    /// The type scan of the writer before types were computed once per
    /// signal: the first present value, or a wire.
    fn reference_type(trace: &Trace, signal: &str) -> (&'static str, usize) {
        for step in trace.iter() {
            if let Some(v) = step.get(signal) {
                return match v {
                    Value::Event | Value::Bool(_) => ("wire", 1),
                    Value::Int(_) => ("reg", 64),
                    Value::Real(_) => ("real", 64),
                    Value::Text(_) => ("real", 64),
                };
            }
        }
        ("wire", 1)
    }

    /// The writer before types were computed once per signal: a type scan
    /// and a lookup per signal at every instant.
    fn reference_vcd(trace: &Trace, module: &str, timescale_ns: u64) -> String {
        let signals = trace.signals();
        let mut out = String::new();
        let _ = writeln!(out, "$date polychrony-aadl reproduction $end");
        let _ = writeln!(out, "$version polysim 0.1 $end");
        let _ = writeln!(out, "$timescale {timescale_ns} ns $end");
        let _ = writeln!(out, "$scope module {module} $end");
        let ids: Vec<String> = (0..signals.len()).map(vcd_id).collect();
        for (signal, id) in signals.iter().zip(&ids) {
            let (ty, width) = reference_type(trace, signal);
            let _ = writeln!(out, "$var {ty} {width} {id} {signal} $end");
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");
        let _ = writeln!(out, "#0");
        let _ = writeln!(out, "$dumpvars");
        for (signal, id) in signals.iter().zip(&ids) {
            let (ty, _) = reference_type(trace, signal);
            match ty {
                "wire" => {
                    let _ = writeln!(out, "0{id}");
                }
                "real" => {
                    let _ = writeln!(out, "r0 {id}");
                }
                _ => {
                    let _ = writeln!(out, "b0 {id}");
                }
            }
        }
        let _ = writeln!(out, "$end");
        for (t, step) in trace.iter().enumerate() {
            let mut changes = String::new();
            for (signal, id) in signals.iter().zip(&ids) {
                let (ty, _) = reference_type(trace, signal);
                match step.get(signal) {
                    Some(value) => match (ty, value) {
                        ("wire", v) => {
                            let bit = if v.as_bool() { '1' } else { '0' };
                            let _ = writeln!(changes, "{bit}{id}");
                        }
                        ("real", v) => {
                            let _ = writeln!(changes, "r{} {id}", v.as_real().unwrap_or(0.0));
                        }
                        (_, v) => {
                            let bits = v.as_int().unwrap_or(0);
                            let _ = writeln!(changes, "b{bits:b} {id}");
                        }
                    },
                    None => {
                        if ty == "wire" {
                            let _ = writeln!(changes, "0{id}");
                        }
                    }
                }
            }
            if !changes.is_empty() {
                let _ = writeln!(out, "#{}", t as u64 * timescale_ns);
                out.push_str(&changes);
            }
        }
        let _ = writeln!(out, "#{}", trace.len() as u64 * timescale_ns);
        out
    }

    proptest::proptest! {
        #[test]
        fn vcd_matches_the_per_instant_reference(
            cells in proptest::collection::vec((0u8..6, 0u8..5, -8i64..=8), 0..40),
            timescale in 1u64..=1000,
        ) {
            let trace = crate::profile::tests::random_trace(&cells);
            proptest::prop_assert_eq!(
                write_vcd(&trace, "m", timescale),
                reference_vcd(&trace, "m", timescale)
            );
        }
    }

    #[test]
    fn empty_trace_still_produces_valid_header() {
        let vcd = write_vcd(&Trace::new(), "empty", 10);
        assert!(vcd.contains("$enddefinitions $end"));
        assert!(vcd.ends_with("#0\n"));
    }
}
