//! Safety properties checked during state-space exploration.
//!
//! Every property except [`Property::DeadlockFree`] denotes a past-time
//! LTL invariant over the resolved trace: [`Property::ltl`] exposes the
//! formula and [`Property::monitor`] compiles it into the monitor
//! automaton the explorers step ([`crate::monitor::LtlMonitor`]). The
//! legacy shapes ([`Property::NeverRaised`],
//! [`Property::BoundedResponse`], [`Property::EndToEndResponse`]) are
//! canonical desugarings into that one monitor path; arbitrary
//! user-written formulas enter through [`Property::Ltl`]. Deadlock freedom
//! is the one property that is *not* a trace formula — it asks for the
//! existence of a feasible successor — and keeps its dedicated check in
//! the explorers.

use serde::{Deserialize, Serialize};
use signal_moc::InstantView;

use crate::ltl::{Formula, LtlProperty};
use crate::monitor::{LtlMonitor, MonitorStep};

/// A safety property over the executions of a flat SIGNAL process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Property {
    /// No signal whose name matches the pattern is ever present with a
    /// `true`-ish value. Patterns support leading/trailing `*` wildcards:
    /// `"*Alarm*"` (contains), `"Alarm*"` (prefix), `"*Alarm"` (suffix),
    /// `"Alarm"` (exact). Desugars to the LTL property
    /// `never raised(<pattern>)`.
    NeverRaised(String),
    /// Every reachable state has at least one executable successor. Under a
    /// scheduled input trace this means every scheduled step is executable;
    /// under free inputs it means some non-silent input valuation is
    /// feasible. Not expressible as a trace formula (it quantifies over
    /// successors, not over the observed trace), so it has no LTL
    /// desugaring.
    DeadlockFree,
    /// Whenever `trigger` is present and true, `response` must be present
    /// and true within `bound` instants (a same-instant response counts).
    /// Desugars to the LTL property
    /// `always (<trigger> implies <response> within <bound>)`.
    BoundedResponse {
        /// Name of the triggering signal.
        trigger: String,
        /// Name of the required response signal.
        response: String,
        /// Maximum number of instants between trigger and response.
        bound: u32,
    },
    /// Cross-thread latency: whenever the joint signal `from` is true (for a
    /// product this is typically a sender-side emission such as a link's
    /// `<link>_sent` signal), the joint signal `to` (typically the matching
    /// `<link>_consumed` signal, true when the receiver freezes at least one
    /// delivered event) must be true within `bound` instants. Over a
    /// [`crate::ProductVerifier`] this checks end-to-end response across an
    /// event-port connection; over a single thread the referenced joint
    /// signals do not exist, so the property is vacuously satisfied — which
    /// is exactly why connection faults are invisible to per-thread scope.
    /// Desugars to `always (<from> implies <to> within <bound>)`.
    EndToEndResponse {
        /// Name of the (joint) signal whose truth starts the deadline.
        from: String,
        /// Name of the (joint) signal that must answer within the bound.
        to: String,
        /// Maximum number of instants between `from` and `to`.
        bound: u32,
    },
    /// A user-written past-time LTL property (see [`crate::ltl`] and the
    /// `docs/PROPERTIES.md` reference manual), e.g. parsed from
    /// `polychrony verify --property '<expr>'`.
    Ltl(LtlProperty),
}

impl Property {
    /// Parses a property from the past-time LTL surface syntax.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::ltl::ParseError`] with the offending span.
    pub fn parse_ltl(expr: &str) -> Result<Self, crate::ltl::ParseError> {
        LtlProperty::parse(expr).map(Property::Ltl)
    }

    /// A short human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            Property::NeverRaised(pattern) => format!("never-raised({pattern})"),
            Property::DeadlockFree => "deadlock-free".to_string(),
            Property::BoundedResponse {
                trigger,
                response,
                bound,
            } => format!("bounded-response({trigger} -> {response} within {bound})"),
            Property::EndToEndResponse { from, to, bound } => {
                format!("end-to-end-response({from} -> {to} within {bound})")
            }
            Property::Ltl(property) => property.expr().to_string(),
        }
    }

    /// The past-time LTL desugaring of this property — the one monitor path
    /// every trace property compiles through. `None` only for
    /// [`Property::DeadlockFree`], which is a successor-existence property,
    /// not a trace formula.
    pub fn ltl(&self) -> Option<LtlProperty> {
        match self {
            Property::NeverRaised(pattern) => {
                Some(LtlProperty::never(Formula::raised(pattern.clone())))
            }
            Property::DeadlockFree => None,
            Property::BoundedResponse {
                trigger,
                response,
                bound,
            } => Some(LtlProperty::always(Formula::within(
                Formula::signal(trigger.clone()),
                Formula::signal(response.clone()),
                *bound,
            ))),
            Property::EndToEndResponse { from, to, bound } => {
                Some(LtlProperty::always(Formula::within(
                    Formula::signal(from.clone()),
                    Formula::signal(to.clone()),
                    *bound,
                )))
            }
            Property::Ltl(property) => Some(property.clone()),
        }
    }

    /// Compiles the property's invariant into the monitor automaton stepped
    /// by the explorers (`None` for [`Property::DeadlockFree`]).
    pub fn monitor(&self) -> Option<LtlMonitor> {
        self.ltl()
            .map(|property| LtlMonitor::new(property.invariant().clone()))
    }

    /// The `(trigger, response, bound)` triple of a response property
    /// (`None` for the other shapes). Both response flavours share the same
    /// deadline automaton; they differ only in the namespace the signals
    /// live in (one thread vs the joint product).
    pub fn monitor_spec(&self) -> Option<(&str, &str, u32)> {
        match self {
            Property::BoundedResponse {
                trigger,
                response,
                bound,
            } => Some((trigger, response, *bound)),
            Property::EndToEndResponse { from, to, bound } => Some((from, to, *bound)),
            Property::NeverRaised(_) | Property::DeadlockFree | Property::Ltl(_) => None,
        }
    }

    /// The witness text of a violating monitor step, matching the
    /// property's vocabulary (the raised signal for alarm properties, the
    /// expired deadline for response properties).
    pub(crate) fn violation_witness<W: AsRef<str>>(&self, observed: &MonitorStep<W>) -> String {
        let raised = observed.raised.as_ref().map(AsRef::as_ref);
        match self {
            Property::NeverRaised(_) => match raised {
                Some(signal) => format!("signal `{signal}` raised"),
                None => "signal raised".to_string(),
            },
            Property::BoundedResponse { .. } | Property::EndToEndResponse { .. } => {
                "response deadline expired".to_string()
            }
            Property::Ltl(property) => {
                if observed.expired {
                    "response deadline expired".to_string()
                } else if let (Formula::Not(_), Some(signal)) = (property.invariant(), raised) {
                    format!("signal `{signal}` raised")
                } else {
                    "formula false at this instant".to_string()
                }
            }
            Property::DeadlockFree => unreachable!("deadlock freedom has no monitor"),
        }
    }
}

/// Matches a signal name against a `NeverRaised` pattern.
pub(crate) fn pattern_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_prefix('*') {
        Some(rest) => match rest.strip_suffix('*') {
            Some(middle) => middle.is_empty() || name.contains(middle),
            None => name.ends_with(rest),
        },
        None => match pattern.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => name == pattern,
        },
    }
}

/// Returns the name of a signal that is present with a `true`-ish value and
/// matches `pattern`, if any.
pub(crate) fn raised_signal<V: InstantView + ?Sized>(pattern: &str, step: &V) -> Option<String> {
    step.first_present_matching(&mut |name, value| {
        pattern_matches(pattern, name) && value.as_bool()
    })
}

/// Returns `true` when `name` is present with a `true`-ish value.
pub(crate) fn signal_true<V: InstantView + ?Sized>(step: &V, name: &str) -> bool {
    step.value_of(name).map(|v| v.as_bool()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal_moc::trace::TraceStep;
    use signal_moc::value::Value;

    #[test]
    fn patterns_match_like_globs() {
        assert!(pattern_matches("*Alarm*", "thProducer_Alarm"));
        assert!(pattern_matches("*Alarm*", "Alarm"));
        assert!(!pattern_matches("*Alarm*", "Resume"));
        assert!(pattern_matches("Alarm*", "Alarm_out"));
        assert!(!pattern_matches("Alarm*", "MyAlarm"));
        assert!(pattern_matches("*Alarm", "MyAlarm"));
        assert!(!pattern_matches("*Alarm", "Alarm_out"));
        assert!(pattern_matches("Alarm", "Alarm"));
        assert!(!pattern_matches("Alarm", "Alarms"));
        assert!(pattern_matches("**", "anything"));
    }

    #[test]
    fn raised_signal_requires_truth() {
        let mut step = TraceStep::new();
        step.set("Alarm", Value::Bool(false));
        assert_eq!(raised_signal("*Alarm*", &step), None);
        step.set("th_Alarm", Value::Bool(true));
        assert_eq!(raised_signal("*Alarm*", &step), Some("th_Alarm".into()));
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(
            Property::NeverRaised("*Alarm*".into()).name(),
            "never-raised(*Alarm*)"
        );
        assert_eq!(Property::DeadlockFree.name(), "deadlock-free");
        let br = Property::BoundedResponse {
            trigger: "Dispatch".into(),
            response: "Complete".into(),
            bound: 4,
        };
        assert!(br.name().contains("within 4"));
        assert_eq!(br.monitor_spec(), Some(("Dispatch", "Complete", 4)));
        let e2e = Property::EndToEndResponse {
            from: "cLink_sent".into(),
            to: "cLink_consumed".into(),
            bound: 8,
        };
        assert_eq!(
            e2e.name(),
            "end-to-end-response(cLink_sent -> cLink_consumed within 8)"
        );
        assert_eq!(
            e2e.monitor_spec(),
            Some(("cLink_sent", "cLink_consumed", 8))
        );
        assert_eq!(Property::NeverRaised("*".into()).monitor_spec(), None);
        let ltl = Property::parse_ltl("never raised(*Alarm*)").unwrap();
        assert_eq!(ltl.name(), "never raised(*Alarm*)");
        assert_eq!(ltl.monitor_spec(), None);
    }

    #[test]
    fn built_ins_desugar_to_the_documented_formulas() {
        assert_eq!(
            Property::NeverRaised("*Alarm*".into())
                .ltl()
                .unwrap()
                .expr(),
            "never raised(*Alarm*)"
        );
        assert_eq!(
            Property::BoundedResponse {
                trigger: "Deadline".into(),
                response: "Resume".into(),
                bound: 2,
            }
            .ltl()
            .unwrap()
            .expr(),
            "always Deadline implies Resume within 2"
        );
        assert_eq!(
            Property::EndToEndResponse {
                from: "c_sent".into(),
                to: "c_consumed".into(),
                bound: 8,
            }
            .ltl()
            .unwrap()
            .expr(),
            "always c_sent implies c_consumed within 8"
        );
        assert!(Property::DeadlockFree.ltl().is_none());
        assert!(Property::DeadlockFree.monitor().is_none());
    }

    #[test]
    fn desugared_monitors_have_the_legacy_register_footprint() {
        // NeverRaised is stateless; a response property keeps exactly the
        // one countdown register the legacy monitor used — so desugaring
        // cannot change the explored state space.
        assert_eq!(
            Property::NeverRaised("*Alarm*".into())
                .monitor()
                .unwrap()
                .register_count(),
            0
        );
        assert_eq!(
            Property::BoundedResponse {
                trigger: "t".into(),
                response: "r".into(),
                bound: 3,
            }
            .monitor()
            .unwrap()
            .register_count(),
            1
        );
    }
}
