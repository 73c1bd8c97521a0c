//! Static analyses: instantaneous-causality (deadlock) detection and the
//! aggregated static-analysis report.
//!
//! The paper lists, among the techniques applied to the translated AADL
//! model, "static analysis, including determinism identification and deadlock
//! detection". Determinism identification lives in the clock calculus
//! ([`crate::clockcalc`]); this module provides the causality-cycle analysis
//! and a report type that aggregates everything a user needs from the static
//! phase.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::clockcalc::{ClockCalculus, DeterminismVerdict};
use crate::error::SignalError;
use crate::process::{Equation, Process};

/// Instantaneous data-dependency graph of a process.
///
/// There is an edge `a → b` when the value of `b` at an instant depends on
/// the value of `a` at the *same* instant. A `delay` breaks the dependency
/// (it only needs the previous value), so feedback loops through delays are
/// fine; a cycle without a delay is a causality deadlock.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DependencyGraph {
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl DependencyGraph {
    /// Builds the instantaneous dependency graph of `process`.
    pub fn of(process: &Process) -> Self {
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for eq in &process.equations {
            if let Equation::Definition { target, expr }
            | Equation::PartialDefinition { target, expr } = eq
            {
                for dep in expr.instantaneous_dependencies() {
                    edges.entry(dep).or_default().insert(target.clone());
                }
            }
        }
        Self { edges }
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(BTreeSet::len).sum()
    }

    /// Finds a cycle in the graph, if any, returned as the list of signals
    /// along the cycle (first element repeated at the end).
    pub fn find_cycle(&self) -> Option<Vec<String>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let nodes: BTreeSet<&String> = self
            .edges
            .keys()
            .chain(self.edges.values().flatten())
            .collect();
        let mut marks: BTreeMap<&String, Mark> = nodes.iter().map(|&n| (n, Mark::White)).collect();

        fn dfs<'a>(
            node: &'a String,
            edges: &'a BTreeMap<String, BTreeSet<String>>,
            marks: &mut BTreeMap<&'a String, Mark>,
            stack: &mut Vec<&'a String>,
        ) -> Option<Vec<String>> {
            marks.insert(node, Mark::Grey);
            stack.push(node);
            if let Some(succs) = edges.get(node) {
                for succ in succs {
                    match marks.get(succ).copied().unwrap_or(Mark::White) {
                        Mark::Grey => {
                            // Found a cycle: slice the stack from succ.
                            let pos = stack.iter().position(|&n| n == succ).unwrap_or(0);
                            let mut cycle: Vec<String> =
                                stack[pos..].iter().map(|s| s.to_string()).collect();
                            cycle.push(succ.to_string());
                            return Some(cycle);
                        }
                        Mark::White => {
                            if let Some(c) = dfs(succ, edges, marks, stack) {
                                return Some(c);
                            }
                        }
                        Mark::Black => {}
                    }
                }
            }
            stack.pop();
            marks.insert(node, Mark::Black);
            None
        }

        let node_list: Vec<&String> = nodes.iter().copied().collect();
        for node in node_list {
            if marks.get(node) == Some(&Mark::White) {
                let mut stack = Vec::new();
                if let Some(cycle) = dfs(node, &self.edges, &mut marks, &mut stack) {
                    return Some(cycle);
                }
            }
        }
        None
    }
}

/// Checks the process for causality deadlocks.
///
/// # Errors
///
/// Returns [`SignalError::CausalityCycle`] when an instantaneous dependency
/// cycle exists.
pub fn check_deadlock(process: &Process) -> Result<(), SignalError> {
    let graph = DependencyGraph::of(process);
    match graph.find_cycle() {
        None => Ok(()),
        Some(cycle) => Err(SignalError::CausalityCycle {
            process: process.name.clone(),
            cycle,
        }),
    }
}

/// Aggregated result of the static-analysis phase of the tool chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticAnalysisReport {
    /// Name of the analysed process.
    pub process: String,
    /// Number of signals.
    pub signal_count: usize,
    /// Number of equations.
    pub equation_count: usize,
    /// Number of synchronisation classes (clocks).
    pub clock_count: usize,
    /// Number of master clocks; `1` means the model is endochronous.
    pub master_clock_count: usize,
    /// Depth of the clock hierarchy.
    pub hierarchy_depth: usize,
    /// Determinism identification verdict.
    pub determinism: DeterminismVerdict,
    /// `None` when no causality cycle exists, otherwise the cycle.
    pub causality_cycle: Option<Vec<String>>,
    /// Number of instantaneous dependency edges.
    pub dependency_edges: usize,
}

impl StaticAnalysisReport {
    /// Runs the clock calculus and the deadlock analysis on `process` and
    /// aggregates the results.
    ///
    /// # Errors
    ///
    /// Returns an error if the process is structurally invalid or has
    /// duplicate total definitions; analysis *findings* (non-determinism,
    /// cycles) are reported in the returned value, not as errors.
    pub fn analyze(process: &Process) -> Result<Self, SignalError> {
        let calculus = ClockCalculus::analyze(process)?;
        let graph = DependencyGraph::of(process);
        Ok(Self {
            process: process.name.clone(),
            signal_count: process.signals.len(),
            equation_count: process.equation_count(),
            clock_count: calculus.clock_count(),
            master_clock_count: calculus.master_clocks().len(),
            hierarchy_depth: calculus.hierarchy_depth(),
            determinism: calculus.determinism().clone(),
            causality_cycle: graph.find_cycle(),
            dependency_edges: graph.edge_count(),
        })
    }

    /// Returns `true` when the model passed every static check: single
    /// master clock, deterministic, no causality cycle.
    pub fn is_clean(&self) -> bool {
        self.master_clock_count <= 1
            && self.determinism.is_deterministic()
            && self.causality_cycle.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcessBuilder;
    use crate::expr::Expr;
    use crate::value::{Value, ValueType};

    fn counter() -> Process {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(Expr::delay(Expr::var("count"), Value::Int(0)), Expr::int(1)),
        );
        b.synchronize(&["count", "tick"]);
        b.build().unwrap()
    }

    #[test]
    fn delay_breaks_cycles() {
        let p = counter();
        assert!(check_deadlock(&p).is_ok());
        let report = StaticAnalysisReport::analyze(&p).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.clock_count, 1);
        assert_eq!(report.signal_count, 2);
        assert_eq!(report.dependency_edges, 0);
    }

    #[test]
    fn instantaneous_cycle_detected() {
        let mut b = ProcessBuilder::new("loopy");
        b.output("a", ValueType::Integer);
        b.output("b", ValueType::Integer);
        b.define("a", Expr::add(Expr::var("b"), Expr::int(1)));
        b.define("b", Expr::add(Expr::var("a"), Expr::int(1)));
        let p = b.build().unwrap();
        let err = check_deadlock(&p).unwrap_err();
        match err {
            SignalError::CausalityCycle { cycle, .. } => {
                assert!(cycle.len() >= 3);
                assert_eq!(cycle.first(), cycle.last());
            }
            other => panic!("expected causality cycle, got {other}"),
        }
        let report = StaticAnalysisReport::analyze(&p).unwrap();
        assert!(!report.is_clean());
        assert!(report.causality_cycle.is_some());
        assert_eq!(DependencyGraph::of(&p).edge_count(), 2);
    }

    #[test]
    fn self_loop_is_a_causality_cycle() {
        let mut b = ProcessBuilder::new("loopy");
        b.output("a", ValueType::Integer);
        b.define("a", Expr::add(Expr::var("a"), Expr::int(1)));
        let p = b.build().unwrap();
        match check_deadlock(&p).unwrap_err() {
            SignalError::CausalityCycle { cycle, .. } => assert_eq!(cycle, ["a", "a"]),
            other => panic!("expected causality cycle, got {other}"),
        }
    }
}
