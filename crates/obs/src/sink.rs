//! Event sinks: consumers of the structured event stream.
//!
//! Sinks receive events in recording order while the collector holds its
//! event-log lock, so a sink never sees out-of-order timestamps. Two sinks
//! ship with the crate: [`JsonLinesSink`] writes the machine-readable
//! `polychrony-trace-v1` stream and [`ProgressReporter`] renders throttled
//! human progress lines on stderr.

use std::io::Write;
use std::time::{Duration, Instant};

use crate::json::escape;
use crate::{AttrValue, Event, EventKind};

/// The schema identifier stamped on every trace file's `meta` line.
pub const TRACE_SCHEMA: &str = "polychrony-trace-v1";

/// A consumer of the structured event stream. Implementations must be
/// `Send`: sinks are owned by the collector and may be driven from any
/// thread of a run.
pub trait EventSink: Send {
    /// Called once when the sink is registered; `t_us` is the collector
    /// clock at registration.
    fn open(&mut self, t_us: u64) {
        let _ = t_us;
    }

    /// Called for every recorded event, in timestamp order.
    fn event(&mut self, event: &Event);

    /// Called by [`crate::Collector::flush`] with the final counter and
    /// gauge snapshots.
    fn finish(&mut self, counters: &[(String, u64)], gauges: &[(String, u64)], t_us: u64) {
        let _ = (counters, gauges, t_us);
    }
}

/// Writes the `polychrony-trace-v1` JSON-lines stream.
///
/// One JSON object per line. Every line carries `"kind"` and `"t_us"`
/// (microseconds since the collector epoch, non-decreasing down the file):
///
/// * `{"kind":"meta","t_us":…,"schema":"polychrony-trace-v1"}` — first line.
/// * `{"kind":"span_open","t_us":…,"span":id,"name":…[,"parent":id]}`
/// * `{"kind":"span_close","t_us":…,"span":id,"name":…,"dur_us":…[,"attrs":{…}]}`
/// * `{"kind":"event","t_us":…,"name":…[,"span":id][,"attrs":{…}]}`
/// * `{"kind":"counters","t_us":…,"counters":{…},"gauges":{…}}` — written on
///   flush, last line of a complete trace.
pub struct JsonLinesSink {
    writer: Box<dyn Write + Send>,
}

impl JsonLinesSink {
    /// A sink writing to `writer` (typically a file opened for `--trace-out`).
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonLinesSink { writer }
    }

    fn write_line(&mut self, line: &str) {
        // Trace output is best-effort: a full disk must not abort the run.
        let _ = writeln!(self.writer, "{line}");
    }
}

/// Render an attribute list as a JSON object fragment `"attrs":{…}`.
fn attrs_json(attrs: &[(String, AttrValue)]) -> String {
    let mut out = String::from("\"attrs\":{");
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&escape(k));
        out.push(':');
        out.push_str(&v.to_json().to_string());
    }
    out.push('}');
    out
}

impl EventSink for JsonLinesSink {
    fn open(&mut self, t_us: u64) {
        self.write_line(&format!(
            "{{\"kind\":\"meta\",\"t_us\":{t_us},\"schema\":{}}}",
            escape(TRACE_SCHEMA)
        ));
    }

    fn event(&mut self, event: &Event) {
        let mut line = String::from("{");
        let kind = match &event.kind {
            EventKind::SpanOpen => "span_open",
            EventKind::SpanClose { .. } => "span_close",
            EventKind::Point => "event",
        };
        line.push_str(&format!("\"kind\":\"{kind}\",\"t_us\":{}", event.t_us));
        line.push_str(&format!(",\"name\":{}", escape(&event.name)));
        if event.span != 0 {
            line.push_str(&format!(",\"span\":{}", event.span));
        }
        if let Some(parent) = event.parent {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        if let EventKind::SpanClose { dur_us } = &event.kind {
            line.push_str(&format!(",\"dur_us\":{dur_us}"));
        }
        if !event.attrs.is_empty() {
            line.push(',');
            line.push_str(&attrs_json(&event.attrs));
        }
        line.push('}');
        self.write_line(&line);
    }

    fn finish(&mut self, counters: &[(String, u64)], gauges: &[(String, u64)], t_us: u64) {
        let mut line = format!("{{\"kind\":\"counters\",\"t_us\":{t_us},\"counters\":{{");
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{}:{v}", escape(k)));
        }
        line.push_str("},\"gauges\":{");
        for (i, (k, v)) in gauges.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{}:{v}", escape(k)));
        }
        line.push_str("}}");
        self.write_line(&line);
        let _ = self.writer.flush();
    }
}

/// Throttled human progress lines on stderr.
///
/// Renders the [`ProgressUpdate`]s of the event stream (phase span opens
/// and the engine's per-level `engine.level` events, translated as for a
/// [`ProgressBridge`]), at most one line per throttle interval:
///
/// ```text
/// [verify] depth 42/384  states 1024  frontier 96  12.3k states/s  eta 1.2s
/// ```
///
/// The rate is computed from consecutive reports; the ETA extrapolates the
/// per-depth rate to the configured depth bound.
pub struct ProgressReporter {
    out: Box<dyn Write + Send>,
    min_interval: Duration,
    last_emit: Option<Instant>,
    phase: String,
    last_level: Option<(Instant, u64)>,
    states_per_sec: f64,
}

impl ProgressReporter {
    /// A reporter writing to stderr, emitting at most every 100ms.
    pub fn stderr() -> Self {
        Self::new(Box::new(std::io::stderr()), Duration::from_millis(100))
    }

    /// A reporter writing to `out`, emitting at most once per `min_interval`.
    pub fn new(out: Box<dyn Write + Send>, min_interval: Duration) -> Self {
        ProgressReporter {
            out,
            min_interval,
            last_emit: None,
            phase: String::new(),
            last_level: None,
            states_per_sec: 0.0,
        }
    }

    fn throttled(&mut self) -> bool {
        self.last_emit
            .is_some_and(|t| t.elapsed() < self.min_interval)
    }

    fn emit(&mut self, line: &str) {
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
        self.last_emit = Some(Instant::now());
    }
}

/// Pull a numeric attribute out of an event.
fn attr_u64(event: &Event, name: &str) -> Option<u64> {
    event
        .attrs
        .iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| match v {
            AttrValue::U64(n) => Some(*n),
            AttrValue::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        })
}

/// Render a count with a compact suffix (`12.3k`, `4.2M`).
fn human_count(n: f64) -> String {
    if n >= 1_000_000.0 {
        format!("{:.1}M", n / 1_000_000.0)
    } else if n >= 1_000.0 {
        format!("{:.1}k", n / 1_000.0)
    } else {
        format!("{n:.0}")
    }
}

impl ProgressReporter {
    /// Renders one update as a line, unless a line went out within the
    /// throttle interval.
    fn render(&mut self, update: ProgressUpdate) {
        match update {
            ProgressUpdate::Phase { name } => {
                self.last_level = None;
                if !self.throttled() {
                    self.emit(&format!("[{name}] …"));
                }
            }
            ProgressUpdate::Level {
                phase,
                depth,
                bound,
                states,
                frontier,
            } => {
                let now = Instant::now();
                if let Some((prev_t, prev_states)) = self.last_level {
                    let dt = now.duration_since(prev_t).as_secs_f64();
                    if dt > 0.0 {
                        let fresh = states.saturating_sub(prev_states) as f64;
                        self.states_per_sec = fresh / dt;
                    }
                }
                self.last_level = Some((now, states));
                if self.throttled() {
                    return;
                }
                let phase = if phase.is_empty() { "verify" } else { &phase };
                let mut line = match bound {
                    Some(bound) => format!("[{phase}] depth {depth}/{bound}"),
                    None => format!("[{phase}] depth {depth}"),
                };
                line.push_str(&format!(
                    "  states {}  frontier {}",
                    human_count(states as f64),
                    human_count(frontier as f64)
                ));
                if self.states_per_sec > 0.0 {
                    line.push_str(&format!("  {} states/s", human_count(self.states_per_sec)));
                    if let Some(bound) = bound {
                        let remaining = bound.saturating_sub(depth) as f64;
                        let per_level = states as f64 / depth.max(1) as f64;
                        let eta = remaining * per_level / self.states_per_sec;
                        if eta.is_finite() {
                            line.push_str(&format!("  eta {eta:.1}s"));
                        }
                    }
                }
                self.emit(&line);
            }
        }
    }
}

impl EventSink for ProgressReporter {
    fn event(&mut self, event: &Event) {
        if let Some(update) = progress_update(&mut self.phase, event) {
            self.render(update);
        }
    }

    fn finish(&mut self, counters: &[(String, u64)], _gauges: &[(String, u64)], _t_us: u64) {
        let states = counters
            .iter()
            .find(|(k, _)| k == "engine.states")
            .map(|(_, v)| *v);
        if let Some(states) = states {
            let phase = if self.phase.is_empty() {
                "done"
            } else {
                &self.phase
            };
            let line = format!(
                "[{phase}] finished: {} states explored",
                human_count(states as f64)
            );
            self.emit(&line);
        }
    }
}

/// A condensed, transport-friendly progress notification bridged off the
/// span/event stream by a [`ProgressBridge`]. Consumers (the verification
/// daemon's `Progress` frames, in-process dashboards) get pipeline phase
/// boundaries and exploration-level snapshots without depending on the raw
/// event vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressUpdate {
    /// A pipeline phase opened (a `phase.<name>` span).
    Phase {
        /// Phase name without the `phase.` prefix (`parse`, …, `verify`).
        name: String,
    },
    /// The exploration engine finished one level (an `engine.level` event).
    Level {
        /// Phase the level belongs to (empty before any phase span opened).
        phase: String,
        /// Current exploration depth.
        depth: u64,
        /// Depth bound, when the exploration has one.
        bound: Option<u64>,
        /// Distinct states interned so far.
        states: u64,
        /// Current frontier size.
        frontier: u64,
    },
}

/// Bridges the collector's span/event stream onto a callback of
/// [`ProgressUpdate`]s — the generic half of live progress streaming.
/// [`ProgressReporter`] renders for humans; this sink forwards the same
/// signal to arbitrary consumers (an `mpsc` channel feeding a daemon's
/// subscribed clients, a GUI, a test). Registered like any sink via
/// [`Collector::add_sink`](crate::Collector::add_sink); the collector must
/// be in full mode for events to flow.
pub struct ProgressBridge {
    phase: String,
    forward: Box<dyn FnMut(ProgressUpdate) + Send>,
}

impl ProgressBridge {
    /// A bridge invoking `forward` for every update, on whichever thread
    /// records the event.
    pub fn new(forward: Box<dyn FnMut(ProgressUpdate) + Send>) -> Self {
        ProgressBridge {
            phase: String::new(),
            forward,
        }
    }

    /// A bridge sending every update into an `mpsc` channel. Send failures
    /// (receiver gone) are ignored: progress is best-effort and must never
    /// perturb the run.
    pub fn channel(tx: std::sync::mpsc::Sender<ProgressUpdate>) -> Self {
        Self::new(Box::new(move |update| {
            let _ = tx.send(update);
        }))
    }
}

/// Translates the event vocabulary into progress, for both progress sinks:
/// a `phase.<name>` span open is a [`ProgressUpdate::Phase`] (and becomes
/// the tracked `phase`), an `engine.level` event is a
/// [`ProgressUpdate::Level`] of the tracked phase, and any other event is
/// no progress.
fn progress_update(phase: &mut String, event: &Event) -> Option<ProgressUpdate> {
    match &event.kind {
        EventKind::SpanOpen => {
            let name = event.name.strip_prefix("phase.")?;
            *phase = name.to_string();
            Some(ProgressUpdate::Phase {
                name: name.to_string(),
            })
        }
        EventKind::Point if event.name == "engine.level" => Some(ProgressUpdate::Level {
            phase: phase.clone(),
            depth: attr_u64(event, "depth").unwrap_or(0),
            bound: attr_u64(event, "bound"),
            states: attr_u64(event, "states").unwrap_or(0),
            frontier: attr_u64(event, "frontier").unwrap_or(0),
        }),
        _ => None,
    }
}

impl EventSink for ProgressBridge {
    fn event(&mut self, event: &Event) {
        if let Some(update) = progress_update(&mut self.phase, event) {
            (self.forward)(update);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::Collector;
    use std::sync::{Arc, Mutex};

    /// A `Write` that appends into a shared buffer, for asserting on sink
    /// output after the collector takes ownership of the sink.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn trace_lines_round_trip_through_the_json_parser() {
        let buf = SharedBuf::default();
        let collector = Collector::full();
        collector.add_sink(Box::new(JsonLinesSink::new(Box::new(buf.clone()))));
        {
            let mut span = collector.span("phase.verify");
            span.attr("states", 97u64);
            collector.event(
                "engine.level",
                vec![
                    ("depth".into(), 3u64.into()),
                    ("states".into(), 10u64.into()),
                ],
            );
        }
        collector.counter("engine.states").add(97);
        collector.gauge("engine.interner.bytes").set(4096);
        collector.flush();

        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() >= 5,
            "meta + open + event + close + counters: {text}"
        );
        let mut prev_t = 0;
        for line in &lines {
            let v = json::parse(line).expect("every trace line parses");
            let kind = v.get("kind").and_then(json::Json::as_str).expect("kind");
            let t_us = v.get("t_us").and_then(json::Json::as_u64).expect("t_us");
            assert!(t_us >= prev_t, "timestamps non-decreasing");
            prev_t = t_us;
            assert!(
                matches!(
                    kind,
                    "meta" | "span_open" | "span_close" | "event" | "counters"
                ),
                "unknown kind {kind}"
            );
        }
        let meta = json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("kind").and_then(json::Json::as_str), Some("meta"));
        assert_eq!(
            meta.get("schema").and_then(json::Json::as_str),
            Some(TRACE_SCHEMA)
        );
        let last = json::parse(lines[lines.len() - 1]).unwrap();
        assert_eq!(
            last.get("kind").and_then(json::Json::as_str),
            Some("counters")
        );
        assert_eq!(
            last.get("counters")
                .and_then(|c| c.get("engine.states"))
                .and_then(json::Json::as_u64),
            Some(97)
        );
        assert_eq!(
            last.get("gauges")
                .and_then(|g| g.get("engine.interner.bytes"))
                .and_then(json::Json::as_u64),
            Some(4096)
        );
        let close = lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("kind").and_then(json::Json::as_str) == Some("span_close"))
            .expect("span close present");
        assert!(close.get("dur_us").and_then(json::Json::as_u64).is_some());
        assert_eq!(
            close
                .get("attrs")
                .and_then(|a| a.get("states"))
                .and_then(json::Json::as_u64),
            Some(97)
        );
    }

    #[test]
    fn progress_bridge_forwards_phase_and_level_updates() {
        let (tx, rx) = std::sync::mpsc::channel();
        let collector = Collector::full();
        collector.add_sink(Box::new(ProgressBridge::channel(tx)));
        {
            let _span = collector.span("phase.verify");
            collector.event(
                "engine.level",
                vec![
                    ("depth".into(), 3u64.into()),
                    ("bound".into(), 24u64.into()),
                    ("states".into(), 57u64.into()),
                    ("frontier".into(), 8u64.into()),
                ],
            );
            // Unrelated events are not forwarded.
            collector.event("engine.memo", vec![]);
        }
        drop(collector);
        let updates: Vec<ProgressUpdate> = rx.iter().collect();
        assert_eq!(
            updates,
            vec![
                ProgressUpdate::Phase {
                    name: "verify".into()
                },
                ProgressUpdate::Level {
                    phase: "verify".into(),
                    depth: 3,
                    bound: Some(24),
                    states: 57,
                    frontier: 8,
                },
            ]
        );
    }

    #[test]
    fn progress_reporter_renders_phase_and_level_lines() {
        let buf = SharedBuf::default();
        let mut reporter = ProgressReporter::new(Box::new(buf.clone()), Duration::from_millis(0));
        reporter.event(&Event {
            t_us: 1,
            kind: EventKind::SpanOpen,
            name: "phase.verify".into(),
            span: 1,
            parent: None,
            attrs: vec![],
        });
        reporter.event(&Event {
            t_us: 2,
            kind: EventKind::Point,
            name: "engine.level".into(),
            span: 0,
            parent: Some(1),
            attrs: vec![
                ("depth".into(), 3u64.into()),
                ("bound".into(), 10u64.into()),
                ("states".into(), 1500u64.into()),
                ("frontier".into(), 40u64.into()),
            ],
        });
        reporter.finish(&[("engine.states".into(), 1500)], &[], 3);
        let text = buf.text();
        assert!(text.contains("[verify] depth 3/10"), "{text}");
        assert!(text.contains("states 1.5k"), "{text}");
        assert!(text.contains("frontier 40"), "{text}");
        assert!(text.contains("finished: 1.5k states explored"), "{text}");
    }
}
