//! In-memory spans recorded by the benchmark around its own calls into the
//! tool chain's public API. Nothing inside the program is instrumented: a
//! span covers exactly one public call (or one whole job), so a layer's
//! self time is the time spent in calls into that layer minus the calls
//! nested inside it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. `job` groups the spans of one job; `parent` indexes
/// the enclosing span in the same tracer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans when enabled; when disabled every method is a no-op, so
/// the traced and untraced loops run the same code.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; `job_base` offsets the
    /// job ids so tracers of concurrent clients never collide.
    pub fn new(enabled: bool, epoch: Instant, job_base: u64) -> Self {
        Self {
            enabled,
            epoch,
            job: job_base,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens the root span of the next job. Spans a failed job left open
    /// stay open (zero length) and parent nothing further.
    pub fn begin_job(&mut self, name: &'static str) -> Open {
        self.job += 1;
        self.open.clear();
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end = self.epoch.elapsed();
            self.open.retain(|&i| i != idx);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span measured elsewhere (the daemon's worker time reported
    /// back over the wire), placed at the end of the currently open span.
    pub fn record_inside(&mut self, name: &'static str, duration: Duration) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start: now.saturating_sub(duration),
            end: now,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The layer (crate) a span name belongs to. Job roots count as `core`:
/// their self time is the glue between pipeline calls.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "aadl" => "aadl",
        "sched" => "sched",
        "translate" => "translate",
        "signal" => "signal",
        "sim" => "sim",
        "verify" | "product" => "verify",
        "server" => "server",
        "client" => "client",
        _ => "core",
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut out: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            out[parent] = out[parent].saturating_sub(span.duration());
        }
    }
    out
}

/// Self time per layer, summed over all spans, in milliseconds.
pub fn layer_self_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(layer_of(span.name)).or_insert(0.0) += own.as_secs_f64() * 1e3;
    }
    by_layer
}

/// The spans as JSON lines, one object per span with its self time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, (span, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"job\":{},\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
            span.name,
            layer_of(span.name),
            span.job,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.start.as_secs_f64() * 1e6,
            span.duration().as_secs_f64() * 1e6,
            own.as_secs_f64() * 1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let ms = Duration::from_millis;
        let spans = vec![
            Span {
                name: "job.x",
                job: 1,
                parent: None,
                start: ms(0),
                end: ms(10),
            },
            Span {
                name: "verify.free",
                job: 1,
                parent: Some(0),
                start: ms(1),
                end: ms(7),
            },
            Span {
                name: "signal.analyze",
                job: 1,
                parent: Some(1),
                start: ms(2),
                end: ms(4),
            },
        ];
        assert_eq!(self_times(&spans), vec![ms(4), ms(4), ms(2)]);
        let layers = layer_self_ms(&spans);
        assert_eq!(layers["core"], 4.0);
        assert_eq!(layers["verify"], 4.0);
        assert_eq!(layers["signal"], 2.0);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 0);
        let root = tracer.begin_job("job.x");
        assert_eq!(tracer.time("aadl.parse", || 7), 7);
        tracer.record_inside("server.worker", Duration::from_millis(1));
        tracer.end(root);
        assert!(tracer.into_spans().is_empty());
    }
}
