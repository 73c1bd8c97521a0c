//! `polyobs` — structured tracing, metrics and progress reporting for the
//! polychrony toolchain.
//!
//! The crate is deliberately dependency-free: every byte of JSON it emits is
//! hand-encoded (see [`json`]) and every primitive is built on `std` atomics
//! and mutexes, so it can be threaded through the hot exploration loop of
//! `polyverify` without dragging a telemetry stack into the build.
//!
//! # Model
//!
//! The entry point is the [`Collector`], a cheaply clonable handle shared by
//! every layer of a run. It operates in one of three [`CollectionMode`]s:
//!
//! * [`CollectionMode::Noop`] — the default. Every call is a branch on a
//!   `None` and nothing is recorded; handles obtained from a noop collector
//!   carry no allocation at all.
//! * [`CollectionMode::Counters`] — [`Counter`]s and [`Gauge`]s are live
//!   (sharded relaxed atomics), span/event recording is skipped.
//! * [`CollectionMode::Full`] — counters plus the structured event stream:
//!   [`Span`] open/close pairs and point events flow into every registered
//!   [`sink::EventSink`] (JSON-lines trace files, live progress reporters);
//!   the collector itself keeps no event.
//!
//! # Determinism contract
//!
//! Telemetry must never perturb verification. Collection-mode changes may
//! alter *observability* output only: verdicts, counterexamples and
//! `ExplorationStats` stay bit-identical whether the collector is noop,
//! counting or full. Consumers uphold this by keeping nondeterministic
//! measurements (timings, rates) in collector counters and
//! never copying them into deterministic result structures; this crate
//! upholds it by making every recording call side-effect-free with respect
//! to caller-visible state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod record;
pub mod sink;

pub use record::{PhaseRecord, RunRecord};
pub use sink::{EventSink, JsonLinesSink, ProgressBridge, ProgressReporter, ProgressUpdate};

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How much a [`Collector`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollectionMode {
    /// Record nothing; every call is a no-op (the default).
    Noop,
    /// Record counters and gauges only.
    Counters,
    /// Record counters and gauges, and stream spans and events to sinks.
    Full,
}

impl fmt::Display for CollectionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectionMode::Noop => write!(f, "noop"),
            CollectionMode::Counters => write!(f, "counters"),
            CollectionMode::Full => write!(f, "full"),
        }
    }
}

/// Number of shards per counter: updates from concurrent workers land on
/// distinct cache lines, reads sum across all of them.
const COUNTER_SHARDS: usize = 8;

/// A value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer attribute.
    U64(u64),
    /// Signed integer attribute.
    I64(i64),
    /// Floating-point attribute.
    F64(f64),
    /// String attribute.
    Str(String),
    /// Boolean attribute.
    Bool(bool),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(u64::from(v))
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl AttrValue {
    /// The attribute as a JSON value.
    pub fn to_json(&self) -> json::Json {
        match self {
            AttrValue::U64(v) => json::Json::Num(*v as f64),
            AttrValue::I64(v) => json::Json::Num(*v as f64),
            AttrValue::F64(v) => json::Json::Num(*v),
            AttrValue::Str(v) => json::Json::Str(v.clone()),
            AttrValue::Bool(v) => json::Json::Bool(*v),
        }
    }
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A [`Span`] was opened.
    SpanOpen,
    /// A [`Span`] was closed after `dur_us` microseconds.
    SpanClose {
        /// Wall-clock duration of the span in microseconds.
        dur_us: u64,
    },
    /// A point-in-time event (no duration).
    Point,
}

/// One record in the structured event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the collector's epoch; monotonically non-decreasing
    /// in recording order.
    pub t_us: u64,
    /// Open, close or point.
    pub kind: EventKind,
    /// Span or event name.
    pub name: String,
    /// Span id (0 for point events emitted outside any span).
    pub span: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Attached attributes.
    pub attrs: Vec<(String, AttrValue)>,
}

/// A counter sharded across cache lines; `add` touches one relaxed atomic.
#[derive(Debug, Default)]
struct ShardedCounter {
    shards: [PaddedAtomic; COUNTER_SHARDS],
}

/// An atomic padded out to its own cache line so concurrent workers
/// incrementing different shards never contend.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedAtomic(AtomicU64);

impl ShardedCounter {
    fn add(&self, slot: usize, n: u64) {
        self.shards[slot % COUNTER_SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Round-robin assignment of threads to counter shards.
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The shard slot this thread writes to, assigned on first use.
    static THREAD_SLOT: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed);
    /// The stack of open span ids on this thread (parent attribution).
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// A handle to a named counter. Cloning is cheap; a handle from a noop
/// collector holds nothing and `add` is a single branch.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<ShardedCounter>>);

impl Counter {
    /// Add `n` to the counter (~one relaxed atomic when live, nothing when
    /// the collector is noop).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            THREAD_SLOT.with(|slot| c.add(*slot, n));
        }
    }

    /// Increment the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (sums all shards); 0 for a noop handle.
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.value())
    }
}

/// A handle to a named gauge (last-write-wins instantaneous value).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Set the gauge (relaxed store when live, nothing when noop).
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Current value; 0 for a noop handle.
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// The sinks, guarded by one mutex so events reach them in a single total
/// order (this is what makes trace timestamps monotonic).
struct EventLog {
    sinks: Vec<Box<dyn EventSink>>,
}

struct Inner {
    mode: CollectionMode,
    epoch: Instant,
    counters: Mutex<BTreeMap<String, Arc<ShardedCounter>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    next_span: AtomicU64,
    events: Mutex<EventLog>,
}

/// The shared telemetry handle threaded through a run.
///
/// Clones share all state. Equality (and hashing of option structs that
/// embed a collector) considers only the [`CollectionMode`]: two collectors
/// in the same mode compare equal even if they hold different data, because
/// options structs embedding a collector must stay comparable without making
/// telemetry part of a run's identity.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("mode", &self.mode())
            .finish()
    }
}

impl PartialEq for Collector {
    fn eq(&self, other: &Self) -> bool {
        self.mode() == other.mode()
    }
}

impl Eq for Collector {}

impl Collector {
    /// A collector that records nothing (the default).
    pub fn noop() -> Self {
        Collector { inner: None }
    }

    /// A collector recording counters and gauges only.
    pub fn counters() -> Self {
        Self::with_mode(CollectionMode::Counters)
    }

    /// A collector recording counters, gauges, spans and events.
    pub fn full() -> Self {
        Self::with_mode(CollectionMode::Full)
    }

    /// A collector in the given mode.
    pub fn with_mode(mode: CollectionMode) -> Self {
        if mode == CollectionMode::Noop {
            return Self::noop();
        }
        Collector {
            inner: Some(Arc::new(Inner {
                mode,
                epoch: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                next_span: AtomicU64::new(1),
                events: Mutex::new(EventLog { sinks: Vec::new() }),
            })),
        }
    }

    /// The collector's mode.
    pub fn mode(&self) -> CollectionMode {
        self.inner.as_ref().map_or(CollectionMode::Noop, |i| i.mode)
    }

    /// `true` unless the collector is noop.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// `true` when spans and events are recorded (mode is `Full`).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.mode() == CollectionMode::Full
    }

    /// Microseconds since the collector's epoch (0 for noop).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter(None);
        };
        let mut counters = inner.counters.lock().unwrap();
        let c = counters.entry(name.to_string()).or_default();
        Counter(Some(Arc::clone(c)))
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge(None);
        };
        let mut gauges = inner.gauges.lock().unwrap();
        let g = gauges.entry(name.to_string()).or_default();
        Gauge(Some(Arc::clone(g)))
    }

    /// All counters with their current values, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let counters = inner.counters.lock().unwrap();
        counters
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// All gauges with their current values, sorted by name.
    pub fn gauge_values(&self) -> Vec<(String, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let gauges = inner.gauges.lock().unwrap();
        gauges
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Open a span. The guard records the close (with its duration and any
    /// attributes added via [`Span::attr`]) when dropped.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                collector: Collector::noop(),
                id: 0,
                name: String::new(),
                start: Instant::now(),
                attrs: Vec::new(),
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = if self.is_full() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                let parent = stack.last().copied();
                stack.push(id);
                parent
            })
        } else {
            None
        };
        self.record(EventKind::SpanOpen, name, id, parent, Vec::new());
        Span {
            collector: self.clone(),
            id,
            name: name.to_string(),
            start: Instant::now(),
            attrs: Vec::new(),
        }
    }

    /// Record a point event with attributes.
    pub fn event(&self, name: &str, attrs: Vec<(String, AttrValue)>) {
        let parent = if self.is_full() {
            SPAN_STACK.with(|s| s.borrow().last().copied())
        } else {
            None
        };
        self.record(EventKind::Point, name, 0, parent, attrs);
    }

    /// Register a sink that will receive every subsequent event.
    pub fn add_sink(&self, mut sink: Box<dyn EventSink>) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut log = inner.events.lock().unwrap();
        let t_us = inner.epoch.elapsed().as_micros() as u64;
        sink.open(t_us);
        log.sinks.push(sink);
    }

    /// Flush all sinks, handing each the final counter and gauge snapshots.
    /// Call once at the end of a run before dropping the collector.
    pub fn flush(&self) {
        let Some(inner) = &self.inner else {
            return;
        };
        let counters = self.counter_values();
        let gauges = self.gauge_values();
        let mut log = inner.events.lock().unwrap();
        let t_us = inner.epoch.elapsed().as_micros() as u64;
        for sink in log.sinks.iter_mut() {
            sink.finish(&counters, &gauges, t_us);
        }
    }

    /// Record an event if the mode admits it. The timestamp is taken while
    /// holding the event-log lock, guaranteeing `t_us` is non-decreasing in
    /// stream order.
    fn record(
        &self,
        kind: EventKind,
        name: &str,
        span: u64,
        parent: Option<u64>,
        attrs: Vec<(String, AttrValue)>,
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        if inner.mode != CollectionMode::Full {
            return;
        }
        let mut log = inner.events.lock().unwrap();
        let event = Event {
            t_us: inner.epoch.elapsed().as_micros() as u64,
            kind,
            name: name.to_string(),
            span,
            parent,
            attrs,
        };
        for sink in log.sinks.iter_mut() {
            sink.event(&event);
        }
    }
}

/// A guard for an open span. Dropping it records the close event with the
/// span's wall-clock duration and accumulated attributes.
#[derive(Debug)]
pub struct Span {
    collector: Collector,
    id: u64,
    name: String,
    start: Instant,
    attrs: Vec<(String, AttrValue)>,
}

impl Span {
    /// Attach an attribute, reported on the close event.
    pub fn attr(&mut self, name: &str, value: impl Into<AttrValue>) {
        if self.collector.is_full() {
            self.attrs.push((name.to_string(), value.into()));
        }
    }

    /// The span's id (0 when the collector is noop).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Elapsed wall-clock time since the span opened.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Close the span now (equivalent to dropping it).
    pub fn close(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        if self.collector.is_full() {
            SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack.last() == Some(&self.id) {
                    stack.pop();
                } else {
                    // Out-of-order drop (spans moved across scopes): remove
                    // wherever it is so the stack cannot grow unboundedly.
                    stack.retain(|&id| id != self.id);
                }
            });
        }
        let attrs = std::mem::take(&mut self.attrs);
        let dur_us = self.start.elapsed().as_micros() as u64;
        self.collector.record(
            EventKind::SpanClose { dur_us },
            &self.name,
            self.id,
            None,
            attrs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink keeping every event it receives, readable by the test that
    /// registered it.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<Event>>>);

    impl Capture {
        /// A capture registered on `collector`.
        fn on(collector: &Collector) -> Self {
            let capture = Self::default();
            collector.add_sink(Box::new(capture.clone()));
            capture
        }

        fn events(&self) -> Vec<Event> {
            self.0.lock().unwrap().clone()
        }
    }

    impl EventSink for Capture {
        fn event(&mut self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn noop_collector_records_nothing_and_costs_nothing() {
        let c = Collector::noop();
        let capture = Capture::on(&c);
        assert_eq!(c.mode(), CollectionMode::Noop);
        assert!(!c.is_enabled());
        let counter = c.counter("x");
        counter.add(10);
        assert_eq!(counter.value(), 0);
        let mut span = c.span("phase");
        span.attr("k", 1u64);
        assert_eq!(span.id(), 0);
        drop(span);
        c.event("e", Vec::new());
        assert!(capture.events().is_empty());
        assert!(c.counter_values().is_empty());
    }

    #[test]
    fn counters_mode_counts_but_drops_events() {
        let c = Collector::counters();
        let capture = Capture::on(&c);
        let counter = c.counter("engine.states");
        counter.add(5);
        counter.add(7);
        assert_eq!(counter.value(), 12);
        assert_eq!(c.counter_values(), vec![("engine.states".into(), 12)]);
        let gauge = c.gauge("depth");
        gauge.set(3);
        gauge.set(9);
        assert_eq!(gauge.value(), 9);
        let span = c.span("p");
        assert_ne!(span.id(), 0);
        drop(span);
        c.event("e", Vec::new());
        assert!(
            capture.events().is_empty(),
            "counters mode must not record events"
        );
    }

    #[test]
    fn full_mode_pairs_span_open_and_close_with_monotonic_timestamps() {
        let c = Collector::full();
        let capture = Capture::on(&c);
        {
            let mut outer = c.span("outer");
            outer.attr("states", 42u64);
            let inner = c.span("inner");
            c.event("tick", vec![("depth".into(), AttrValue::U64(3))]);
            drop(inner);
        }
        let events = capture.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, EventKind::SpanOpen);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[1].parent, Some(events[0].span));
        assert_eq!(events[2].kind, EventKind::Point);
        assert_eq!(events[2].parent, Some(events[1].span));
        assert!(matches!(events[3].kind, EventKind::SpanClose { .. }));
        assert_eq!(events[3].name, "inner");
        assert_eq!(events[4].name, "outer");
        assert_eq!(
            events[4].attrs,
            vec![("states".to_string(), AttrValue::U64(42))]
        );
        for pair in events.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us, "timestamps must be monotonic");
        }
    }

    #[test]
    fn counters_shard_across_threads_without_losing_updates() {
        let c = Collector::counters();
        let counter = c.counter("hits");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.incr();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 8000);
    }

    #[test]
    fn collectors_compare_by_mode_only() {
        assert_eq!(Collector::noop(), Collector::default());
        assert_eq!(Collector::counters(), Collector::counters());
        assert_ne!(Collector::counters(), Collector::full());
        let a = Collector::full();
        a.counter("x").add(1);
        assert_eq!(a, Collector::full());
    }
}
