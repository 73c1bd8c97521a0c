//! SIGNAL processes: signal declarations, equations and process models.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::error::SignalError;
use crate::expr::Expr;
use crate::value::ValueType;

/// The interface role of a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SignalRole {
    /// An input of the process (`?` in SIGNAL syntax).
    Input,
    /// An output of the process (`!` in SIGNAL syntax).
    Output,
    /// A local signal (declared in the `where` part).
    Local,
}

/// Declaration of a signal: name, type and interface role.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalDecl {
    /// Signal name, unique within its process.
    pub name: String,
    /// Carried value type.
    pub ty: ValueType,
    /// Input, output or local.
    pub role: SignalRole,
}

/// One equation of a SIGNAL process body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Equation {
    /// Total definition `target := expr`: defines `target` at the clock of
    /// `expr`, which must equal the clock of `target`.
    Definition {
        /// Defined signal.
        target: String,
        /// Defining expression.
        expr: Expr,
    },
    /// Partial definition `target ::= expr`: defines `target` only at the
    /// clock of `expr`. Several partial definitions of the same signal are
    /// merged; the clock calculus must prove them pairwise exclusive for the
    /// overall definition to be deterministic (Section IV-B of the paper).
    PartialDefinition {
        /// Defined signal.
        target: String,
        /// Defining expression, active on its own clock.
        expr: Expr,
    },
    /// Clock synchronisation constraint `s1 ^= s2 ^= …`: all listed signals
    /// share the same clock.
    ClockConstraint {
        /// Signals constrained to be synchronous.
        signals: Vec<String>,
    },
    /// Clock exclusion constraint: the listed signals are pairwise never
    /// present at the same instant (used for shared-data access clocks).
    ClockExclusion {
        /// Signals constrained to be mutually exclusive.
        signals: Vec<String>,
    },
    /// Instantiation of a sub-process: `(outs) := Name{params}(ins)`.
    Instance {
        /// Name of the instantiated process model.
        process: String,
        /// Instance label (unique within the parent), used for traceability.
        label: String,
        /// Actual input signals, in the order of the model's inputs.
        inputs: Vec<String>,
        /// Actual output signals, in the order of the model's outputs.
        outputs: Vec<String>,
    },
}

impl Equation {
    /// Name of the signal defined by this equation, if it is a (partial)
    /// definition.
    pub fn defined_signal(&self) -> Option<&str> {
        match self {
            Equation::Definition { target, .. } | Equation::PartialDefinition { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }
}

/// A SIGNAL process: an interface, a body of equations, and optional
/// sub-process models (declared in its `where` part).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Process {
    /// Process name.
    pub name: String,
    /// Declared signals (inputs, outputs and locals).
    pub signals: Vec<SignalDecl>,
    /// Body equations.
    pub equations: Vec<Equation>,
    /// Free-form annotations (pragmas) attached by the translator for
    /// traceability: AADL source path, component category, etc.
    pub annotations: BTreeMap<String, String>,
}

impl Process {
    /// Creates an empty process with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            signals: Vec::new(),
            equations: Vec::new(),
            annotations: BTreeMap::new(),
        }
    }

    /// Signals with [`SignalRole::Input`].
    pub fn inputs(&self) -> impl Iterator<Item = &SignalDecl> {
        self.signals.iter().filter(|s| s.role == SignalRole::Input)
    }

    /// Signals with [`SignalRole::Output`].
    pub fn outputs(&self) -> impl Iterator<Item = &SignalDecl> {
        self.signals.iter().filter(|s| s.role == SignalRole::Output)
    }

    /// Signals with [`SignalRole::Local`].
    pub fn locals(&self) -> impl Iterator<Item = &SignalDecl> {
        self.signals.iter().filter(|s| s.role == SignalRole::Local)
    }

    /// Looks up a signal declaration by name.
    pub fn signal(&self, name: &str) -> Option<&SignalDecl> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Number of equations in the body (not counting sub-process bodies).
    pub fn equation_count(&self) -> usize {
        self.equations.len()
    }

    /// All signal names referenced anywhere in the body but not declared.
    pub fn undeclared_signals(&self) -> Vec<String> {
        let declared: std::collections::BTreeSet<&str> =
            self.signals.iter().map(|s| s.name.as_str()).collect();
        let mut missing = Vec::new();
        let mut note = |name: &str| {
            if !declared.contains(name) && !missing.iter().any(|m: &String| m == name) {
                missing.push(name.to_string());
            }
        };
        for eq in &self.equations {
            match eq {
                Equation::Definition { target, expr }
                | Equation::PartialDefinition { target, expr } => {
                    note(target);
                    for r in expr.referenced_signals() {
                        note(&r);
                    }
                }
                Equation::ClockConstraint { signals } | Equation::ClockExclusion { signals } => {
                    for s in signals {
                        note(s);
                    }
                }
                Equation::Instance {
                    inputs, outputs, ..
                } => {
                    for s in inputs.iter().chain(outputs) {
                        note(s);
                    }
                }
            }
        }
        missing.sort();
        missing
    }

    /// Structural well-formedness check: all referenced signals are declared,
    /// signal names are unique, and every output has at least one definition.
    ///
    /// # Errors
    ///
    /// Returns the first violation found as a [`SignalError`]: the first
    /// duplicate declaration, else the alphabetically first undeclared
    /// name (the first of [`Process::undeclared_signals`]), else the first
    /// output, in declaration order, that no definition or instance
    /// output defines.
    pub fn validate(&self) -> Result<(), SignalError> {
        let mut declared = HashSet::with_capacity(self.signals.len());
        for decl in &self.signals {
            if !declared.insert(decl.name.as_str()) {
                return Err(SignalError::DuplicateSignal {
                    process: self.name.clone(),
                    signal: decl.name.clone(),
                });
            }
        }
        let mut defined = HashSet::new();
        // Only an undeclared name, an error, allocates.
        let mut first_missing: Option<String> = None;
        let mut note = |name: &str| {
            if !declared.contains(name) && first_missing.as_ref().is_none_or(|first| name < first) {
                first_missing = Some(name.to_string());
            }
        };
        for eq in &self.equations {
            match eq {
                Equation::Definition { target, expr }
                | Equation::PartialDefinition { target, expr } => {
                    defined.insert(target.as_str());
                    note(target);
                    expr.for_each_signal(&mut note);
                }
                Equation::ClockConstraint { signals } | Equation::ClockExclusion { signals } => {
                    signals.iter().for_each(|s| note(s));
                }
                Equation::Instance {
                    inputs, outputs, ..
                } => {
                    defined.extend(outputs.iter().map(String::as_str));
                    inputs.iter().chain(outputs).for_each(|s| note(s));
                }
            }
        }
        if let Some(name) = first_missing {
            return Err(SignalError::UndeclaredSignal {
                process: self.name.clone(),
                signal: name,
            });
        }
        match self
            .outputs()
            .find(|out| !defined.contains(out.name.as_str()))
        {
            Some(out) => Err(SignalError::UndefinedOutput {
                process: self.name.clone(),
                signal: out.name.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Attaches a traceability annotation (e.g. the AADL source path).
    pub fn annotate(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.annotations.insert(key.into(), value.into());
    }
}

/// A model: a library of named processes, one of which is the root.
///
/// This mirrors the SSME (SIGNAL Syntax Model under Eclipse) produced by the
/// ASME2SSME transformation: the root process represents the AADL system
/// (bound to its processor), and the library contains the AADL2SIGNAL helper
/// processes plus one process per translated component.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProcessModel {
    /// Name of the root process.
    pub root: String,
    /// All process definitions, indexed by name.
    pub processes: BTreeMap<String, Process>,
}

impl ProcessModel {
    /// Creates an empty model with the given root process name (the root
    /// process itself must be added with [`ProcessModel::add`]).
    pub fn new(root: impl Into<String>) -> Self {
        Self {
            root: root.into(),
            processes: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a process definition.
    pub fn add(&mut self, process: Process) {
        self.processes.insert(process.name.clone(), process);
    }

    /// Looks up a process by name.
    pub fn process(&self, name: &str) -> Option<&Process> {
        self.processes.get(name)
    }

    /// The root process, if present.
    pub fn root_process(&self) -> Option<&Process> {
        self.processes.get(&self.root)
    }

    /// Number of processes in the model.
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Returns `true` when the model contains no process.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Total number of equations across all processes — the "model size"
    /// metric used in the scalability experiments.
    pub fn total_equations(&self) -> usize {
        self.processes.values().map(Process::equation_count).sum()
    }

    /// Validates every process and checks that every instantiated sub-process
    /// exists in the model with a matching arity.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), SignalError> {
        if !self.processes.contains_key(&self.root) {
            return Err(SignalError::UnknownProcess(self.root.clone()));
        }
        for process in self.processes.values() {
            process.validate()?;
            for eq in &process.equations {
                if let Equation::Instance {
                    process: callee,
                    inputs,
                    outputs,
                    ..
                } = eq
                {
                    let model = self
                        .processes
                        .get(callee)
                        .ok_or_else(|| SignalError::UnknownProcess(callee.clone()))?;
                    let n_in = model.inputs().count();
                    let n_out = model.outputs().count();
                    if n_in != inputs.len() || n_out != outputs.len() {
                        return Err(SignalError::ArityMismatch {
                            caller: process.name.clone(),
                            callee: callee.clone(),
                            expected_inputs: n_in,
                            actual_inputs: inputs.len(),
                            expected_outputs: n_out,
                            actual_outputs: outputs.len(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Flattens the root process by inlining every sub-process instance
    /// (recursively), producing a single process whose local signal names are
    /// prefixed by the instance labels. Analyses and the evaluator work on
    /// flat processes.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::UnknownProcess`] if an instantiated process is
    /// missing, or [`SignalError::RecursionLimit`] if the instance graph is
    /// recursive beyond a fixed depth.
    pub fn flatten(&self) -> Result<Process, SignalError> {
        let root = self
            .root_process()
            .ok_or_else(|| SignalError::UnknownProcess(self.root.clone()))?;
        let mut flat = Process::new(format!("{}_flat", root.name));
        flat.annotations = root.annotations.clone();
        self.inline_into(&mut flat, root, "", 0)?;
        Ok(flat)
    }

    fn inline_into(
        &self,
        flat: &mut Process,
        process: &Process,
        prefix: &str,
        depth: usize,
    ) -> Result<(), SignalError> {
        const MAX_DEPTH: usize = 64;
        if depth > MAX_DEPTH {
            return Err(SignalError::RecursionLimit(process.name.clone()));
        }
        let rename = |name: &str| -> String {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}_{name}")
            }
        };
        for decl in &process.signals {
            let role = if prefix.is_empty() {
                decl.role
            } else {
                SignalRole::Local
            };
            flat.signals.push(SignalDecl {
                name: rename(&decl.name),
                ty: decl.ty,
                role,
            });
        }
        for eq in &process.equations {
            match eq {
                Equation::Definition { target, expr } => {
                    flat.equations.push(Equation::Definition {
                        target: rename(target),
                        expr: rename_expr(expr, &rename),
                    })
                }
                Equation::PartialDefinition { target, expr } => {
                    flat.equations.push(Equation::PartialDefinition {
                        target: rename(target),
                        expr: rename_expr(expr, &rename),
                    })
                }
                Equation::ClockConstraint { signals } => {
                    flat.equations.push(Equation::ClockConstraint {
                        signals: signals.iter().map(|s| rename(s)).collect(),
                    })
                }
                Equation::ClockExclusion { signals } => {
                    flat.equations.push(Equation::ClockExclusion {
                        signals: signals.iter().map(|s| rename(s)).collect(),
                    })
                }
                Equation::Instance {
                    process: callee,
                    label,
                    inputs,
                    outputs,
                } => {
                    let model = self
                        .processes
                        .get(callee)
                        .ok_or_else(|| SignalError::UnknownProcess(callee.clone()))?;
                    let sub_prefix = if prefix.is_empty() {
                        label.clone()
                    } else {
                        format!("{prefix}_{label}")
                    };
                    // Connect formal interface signals to the actual signals
                    // with synchronising definitions.
                    self.inline_into(flat, model, &sub_prefix, depth + 1)?;
                    for (formal, actual) in model.inputs().zip(inputs) {
                        flat.equations.push(Equation::Definition {
                            target: format!("{sub_prefix}_{}", formal.name),
                            expr: Expr::var(rename(actual)),
                        });
                    }
                    for (formal, actual) in model.outputs().zip(outputs) {
                        flat.equations.push(Equation::Definition {
                            target: rename(actual),
                            expr: Expr::var(format!("{sub_prefix}_{}", formal.name)),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

fn rename_expr(expr: &Expr, rename: &dyn Fn(&str) -> String) -> Expr {
    match expr {
        Expr::Var(name) => Expr::Var(rename(name)),
        Expr::Const(v) => Expr::Const(v.clone()),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(rename_expr(e, rename))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(rename_expr(a, rename)),
            Box::new(rename_expr(b, rename)),
        ),
        Expr::Delay(e, init) => Expr::Delay(Box::new(rename_expr(e, rename)), init.clone()),
        Expr::When(e, b) => Expr::When(
            Box::new(rename_expr(e, rename)),
            Box::new(rename_expr(b, rename)),
        ),
        Expr::Default(u, v) => Expr::Default(
            Box::new(rename_expr(u, rename)),
            Box::new(rename_expr(v, rename)),
        ),
        Expr::Cell(i, b, init) => Expr::Cell(
            Box::new(rename_expr(i, rename)),
            Box::new(rename_expr(b, rename)),
            init.clone(),
        ),
        Expr::ClockOf(e) => Expr::ClockOf(Box::new(rename_expr(e, rename))),
        Expr::ClockWhen(b) => Expr::ClockWhen(Box::new(rename_expr(b, rename))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcessBuilder;
    use crate::value::ValueType;

    fn counter_process() -> Process {
        let mut b = ProcessBuilder::new("counter");
        b.input("tick", ValueType::Event);
        b.output("count", ValueType::Integer);
        b.define(
            "count",
            Expr::add(
                Expr::delay(Expr::var("count"), crate::value::Value::Int(0)),
                Expr::int(1),
            ),
        );
        b.synchronize(&["count", "tick"]);
        b.build().unwrap()
    }

    #[test]
    fn interface_queries() {
        let p = counter_process();
        assert_eq!(p.inputs().count(), 1);
        assert_eq!(p.outputs().count(), 1);
        assert_eq!(p.locals().count(), 0);
        assert!(p.signal("count").is_some());
        assert!(p.signal("missing").is_none());
    }

    #[test]
    fn undeclared_signal_detected() {
        let mut p = counter_process();
        p.equations.push(Equation::Definition {
            target: "ghost".into(),
            expr: Expr::int(1),
        });
        assert_eq!(p.undeclared_signals(), vec!["ghost".to_string()]);
        assert!(matches!(
            p.validate(),
            Err(SignalError::UndeclaredSignal { .. })
        ));
    }

    #[test]
    fn duplicate_signal_detected() {
        let mut p = counter_process();
        p.signals.push(SignalDecl {
            name: "count".into(),
            ty: ValueType::Integer,
            role: SignalRole::Local,
        });
        assert!(matches!(
            p.validate(),
            Err(SignalError::DuplicateSignal { .. })
        ));
    }

    #[test]
    fn undefined_output_detected() {
        let mut p = Process::new("empty");
        p.signals.push(SignalDecl {
            name: "y".into(),
            ty: ValueType::Integer,
            role: SignalRole::Output,
        });
        assert!(matches!(
            p.validate(),
            Err(SignalError::UndefinedOutput { .. })
        ));
    }

    #[test]
    fn validation_reports_duplicates_then_undeclared_then_undefined_outputs() {
        let decl = |name: &str, role| SignalDecl {
            name: name.into(),
            ty: ValueType::Integer,
            role,
        };
        let mut p = Process::new("ordered");
        for (name, role) in [
            ("z_out", SignalRole::Output),
            ("a_out", SignalRole::Output),
            ("by_instance", SignalRole::Output),
            ("x", SignalRole::Input),
            ("dup", SignalRole::Local),
            ("dup", SignalRole::Local),
        ] {
            p.signals.push(decl(name, role));
        }
        // Undeclared names, none of them first in source order.
        p.equations.push(Equation::Definition {
            target: "m_ghost".into(),
            expr: Expr::add(Expr::var("x"), Expr::var("k_ghost")),
        });
        p.equations.push(Equation::ClockConstraint {
            signals: vec!["x".into(), "b_ghost".into()],
        });
        p.equations.push(Equation::Instance {
            process: "child".into(),
            label: "c1".into(),
            inputs: vec!["x".into()],
            outputs: vec!["by_instance".into()],
        });
        let message = |p: &Process| p.validate().unwrap_err().to_string();
        let duplicate = SignalError::DuplicateSignal {
            process: "ordered".into(),
            signal: "dup".into(),
        };
        assert_eq!(message(&p), duplicate.to_string());
        p.signals.pop();
        assert_eq!(
            p.undeclared_signals(),
            ["b_ghost", "k_ghost", "m_ghost"].map(String::from)
        );
        let undeclared = SignalError::UndeclaredSignal {
            process: "ordered".into(),
            signal: "b_ghost".into(),
        };
        assert_eq!(message(&p), undeclared.to_string());
        // With every name declared, the first undefined output in
        // declaration order is reported; an instance output is defined.
        p.equations.truncate(0);
        p.equations.push(Equation::Instance {
            process: "child".into(),
            label: "c1".into(),
            inputs: vec!["x".into()],
            outputs: vec!["by_instance".into()],
        });
        let undefined = SignalError::UndefinedOutput {
            process: "ordered".into(),
            signal: "z_out".into(),
        };
        assert_eq!(message(&p), undefined.to_string());
        for target in ["z_out", "a_out"] {
            p.equations.push(Equation::PartialDefinition {
                target: target.into(),
                expr: Expr::var("x"),
            });
        }
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn model_validate_checks_instances() {
        let mut model = ProcessModel::new("top");
        let mut top = Process::new("top");
        top.signals.push(SignalDecl {
            name: "t".into(),
            ty: ValueType::Event,
            role: SignalRole::Input,
        });
        top.signals.push(SignalDecl {
            name: "c".into(),
            ty: ValueType::Integer,
            role: SignalRole::Output,
        });
        top.equations.push(Equation::Instance {
            process: "counter".into(),
            label: "k1".into(),
            inputs: vec!["t".into()],
            outputs: vec!["c".into()],
        });
        model.add(top);
        // Missing callee.
        assert!(matches!(
            model.validate(),
            Err(SignalError::UnknownProcess(_))
        ));
        model.add(counter_process());
        model.validate().unwrap();
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut model = ProcessModel::new("top");
        let mut top = Process::new("top");
        top.signals.push(SignalDecl {
            name: "c".into(),
            ty: ValueType::Integer,
            role: SignalRole::Output,
        });
        top.equations.push(Equation::Instance {
            process: "counter".into(),
            label: "k1".into(),
            inputs: vec![],
            outputs: vec!["c".into()],
        });
        model.add(top);
        model.add(counter_process());
        assert!(matches!(
            model.validate(),
            Err(SignalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn flatten_inlines_instances() {
        let mut model = ProcessModel::new("top");
        let mut top = Process::new("top");
        top.signals.push(SignalDecl {
            name: "t".into(),
            ty: ValueType::Event,
            role: SignalRole::Input,
        });
        top.signals.push(SignalDecl {
            name: "c".into(),
            ty: ValueType::Integer,
            role: SignalRole::Output,
        });
        top.equations.push(Equation::Instance {
            process: "counter".into(),
            label: "k1".into(),
            inputs: vec!["t".into()],
            outputs: vec!["c".into()],
        });
        model.add(top);
        model.add(counter_process());
        let flat = model.flatten().unwrap();
        // Original interface kept, sub-process signals prefixed.
        assert!(flat.signal("t").is_some());
        assert!(flat.signal("c").is_some());
        assert!(flat.signal("k1_count").is_some());
        assert!(flat.signal("k1_tick").is_some());
        assert!(flat.equations.len() >= 4);
        flat.validate().unwrap();
    }

    #[test]
    fn total_equations_counts_all_processes() {
        let mut model = ProcessModel::new("counter");
        model.add(counter_process());
        assert_eq!(model.total_equations(), 2);
        assert_eq!(model.len(), 1);
        assert!(!model.is_empty());
    }
}
