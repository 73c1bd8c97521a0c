//! Content-addressed artifact cache for the staged pipeline.
//!
//! Property sweeps are the common shape of verification workloads: the same
//! AADL source checked under many [`VerificationOptions`](crate::VerificationOptions) variants. Every
//! such variant pays the identical front end — parse, instantiate,
//! schedule, translate, analyze — and the identical co-simulation. An
//! [`ArtifactCache`] memoizes that prefix of the chain as one typed
//! artifact, the [`Simulated`] artifact, keyed by **content**: the hash of
//! the source text, the root classifier, and a fingerprint of exactly the
//! options that influence the cached phases (the `schedule`, `translate`
//! and `simulate` groups). Two jobs that differ only in verification
//! options therefore share one front end and one co-simulation, leaving
//! only the verification phase to run; two jobs that differ only in the
//! collector share everything (telemetry never changes results — see the
//! determinism contract in `polyobs`). A job that changes any cached group
//! is a miss and runs the whole chain.
//!
//! Cached artifacts keep their original [`RunRecord`](crate::RunRecord) phase sequence, so a
//! warm run's report compares equal to a cold run's (record equality is the
//! phase-name shape; wall times are measurements). Lookup hashes are FNV-1a
//! over the full content, and every hit re-checks the stored content
//! byte-for-byte, so a 64-bit collision degrades to a miss, never to a
//! wrong artifact.
//!
//! ```
//! use polychrony_core::{ArtifactCache, BatchJob, CacheOutcome, SessionOptions};
//!
//! let cache = ArtifactCache::new();
//! let job = BatchJob::case_study("sweep-0").with_options(SessionOptions::quick());
//! let (first, outcome) = job.run_cached(&cache)?;
//! assert_eq!(outcome, CacheOutcome::Miss);
//! let (second, outcome) = job.run_cached(&cache)?;
//! assert_eq!(outcome, CacheOutcome::SimulatedHit);
//! assert_eq!(first, second);
//! # Ok::<(), polychrony_core::CoreError>(())
//! ```

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use polyobs::Collector;

use crate::batch::BatchJob;
use crate::error::CoreError;
use crate::options::{groups_to_json, options_to_json, SessionOptions};
use crate::session::{Session, Simulated};

/// Default number of entries kept.
const DEFAULT_CAPACITY: usize = 64;

/// FNV-1a 64-bit: the zero-dependency content hash of the cache. Small,
/// deterministic across runs, and collision-checked at every use (entries
/// store their full content and hits compare it).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a length-delimited field (so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_field(&mut self, bytes: &[u8]) {
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }

    /// The accumulated hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// How a cached run resolved against the [`ArtifactCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Nothing reusable: the full chain ran (and populated the cache).
    Miss,
    /// The [`Simulated`] artifact was reused; only verify ran.
    SimulatedHit,
}

impl CacheOutcome {
    /// Returns `true` for a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::SimulatedHit)
    }

    /// The stable label used on the wire, in logs and in CLI output.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::SimulatedHit => "simulated-hit",
        }
    }

    /// Parses a [`CacheOutcome::label`] back.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "miss" => Some(CacheOutcome::Miss),
            "simulated-hit" => Some(CacheOutcome::SimulatedHit),
            _ => None,
        }
    }
}

impl fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The fingerprint of the options that influence parse through simulate:
/// the JSON text of the `schedule`, `translate` and `simulate` option
/// groups. Rendered as text so it doubles as the collision check and as
/// the human-readable cache-key component in logs.
pub fn simulated_fingerprint(options: &SessionOptions) -> String {
    groups_to_json(options, &["schedule", "translate", "simulate"]).to_string()
}

/// The content hash identifying a whole job: source, root classifier and
/// every result-relevant option, i.e. the [`options_to_json`] text (the
/// collector is excluded — telemetry never changes results).
/// [`BatchRunner`](crate::BatchRunner) dedupes submissions on this hash,
/// and the daemon's cache keys derive from the same fields.
pub fn job_content_hash(job: &BatchJob) -> u64 {
    let mut h = Fnv64::new();
    h.write_field(job.source.as_bytes());
    h.write_field(job.root.as_bytes());
    h.write_field(options_to_json(&job.options).to_string().as_bytes());
    h.finish()
}

/// One stored artifact plus the full content it was keyed by, re-checked on
/// every hit so hash collisions degrade to misses.
#[derive(Debug, Clone)]
struct Entry {
    source: String,
    root: String,
    fingerprint: String,
    artifact: Simulated,
}

impl Entry {
    fn matches(&self, source: &str, root: &str, fingerprint: &str) -> bool {
        self.source == source && self.root == root && self.fingerprint == fingerprint
    }
}

/// The bounded store: least-recently-used eviction once `capacity` is
/// exceeded. `order` is the recency queue — front is the eviction victim,
/// back is the most recently inserted *or hit* key.
#[derive(Debug, Default)]
struct Lru {
    entries: BTreeMap<u64, Entry>,
    order: VecDeque<u64>,
}

impl Lru {
    fn get(&mut self, key: u64, source: &str, root: &str, fingerprint: &str) -> Option<Simulated> {
        let artifact = self
            .entries
            .get(&key)
            .filter(|e| e.matches(source, root, fingerprint))
            .map(|e| e.artifact.clone())?;
        // Promote on hit: a hot entry swept on every run must outlive
        // colder entries once the cache runs over capacity (LRU, not
        // insertion-order FIFO).
        if let Some(position) = self.order.iter().position(|&k| k == key) {
            self.order.remove(position);
            self.order.push_back(key);
        }
        Some(artifact)
    }

    fn insert(&mut self, key: u64, entry: Entry, capacity: usize) {
        if self.entries.insert(key, entry).is_none() {
            self.order.push_back(key);
        } else if let Some(position) = self.order.iter().position(|&k| k == key) {
            // Overwriting an existing key refreshes its recency too.
            self.order.remove(position);
            self.order.push_back(key);
        }
        while self.entries.len() > capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
        }
    }
}

#[derive(Debug)]
struct CacheInner {
    capacity: usize,
    collector: Collector,
    state: Mutex<Lru>,
}

/// A thread-safe, content-addressed cache of [`Simulated`] artifacts,
/// shared by cloning (clones see the same entries). See the module docs for
/// the key structure.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    inner: Arc<CacheInner>,
}

/// Clones share state; equality is identity of that shared state (two
/// handles are equal iff they cache into the same store).
impl PartialEq for ArtifactCache {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Default for ArtifactCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactCache {
    /// A cache holding up to 64 entries, with no telemetry.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding up to `capacity` entries (least-recently-used
    /// eviction, where both inserts and hits refresh recency; a zero
    /// capacity disables storing, turning every run into a miss).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(capacity, Collector::noop())
    }

    /// Installs a telemetry collector: the `cache.hits.simulated` and
    /// `cache.misses` counters plus the `cache.entries` gauge are recorded
    /// on it. Returns a new handle with the same capacity and **empty**
    /// state — call this while configuring the cache, before sharing
    /// clones.
    #[must_use]
    pub fn with_collector(self, collector: Collector) -> Self {
        Self::build(self.inner.capacity, collector)
    }

    fn build(capacity: usize, collector: Collector) -> Self {
        ArtifactCache {
            inner: Arc::new(CacheInner {
                capacity,
                collector,
                state: Mutex::new(Lru::default()),
            }),
        }
    }

    /// Number of cached artifacts.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Returns `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Lru> {
        // A panic while holding the lock leaves only telemetry-grade state
        // behind; recover the guard rather than poisoning every later job.
        match self.inner.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn key(source: &str, root: &str, fingerprint: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write_field(source.as_bytes());
        h.write_field(root.as_bytes());
        h.write_field(fingerprint.as_bytes());
        h.finish()
    }

    fn update_entries_gauge(&self) {
        let len = self.len() as u64;
        self.inner.collector.gauge("cache.entries").set(len);
    }

    /// Produces the [`Simulated`] artifact for `source`/`root` under
    /// `options`, reusing a cached one when its content key matches and
    /// otherwise running the whole chain and storing its result. The
    /// returned artifact carries `options` (including its collector), so
    /// the verification phase that follows behaves exactly as in an
    /// uncached run.
    ///
    /// # Errors
    ///
    /// Returns the first error of any phase that actually ran, including
    /// [`CoreError::InvalidOptions`] for out-of-range options.
    pub fn simulated_for(
        &self,
        source: &str,
        root: &str,
        options: &SessionOptions,
    ) -> Result<(Simulated, CacheOutcome), CoreError> {
        options.validate()?;
        let fingerprint = simulated_fingerprint(options);
        let key = Self::key(source, root, &fingerprint);

        // Bind the lookup before matching on it: an `if let` over
        // `self.lock().…` would keep the guard alive for the whole body,
        // and the miss path re-locks in `store`.
        let cached = self.lock().get(key, source, root, &fingerprint);
        if let Some(mut simulated) = cached {
            simulated.adopt_options(options.clone());
            self.inner.collector.counter("cache.hits.simulated").incr();
            self.inner
                .collector
                .event("cache.hit", vec![("level".into(), "simulated".into())]);
            return Ok((simulated, CacheOutcome::SimulatedHit));
        }

        let simulated = Session::with_options(options.clone())?
            .parse(source)?
            .instantiate(root)?
            .schedule()?
            .translate()?
            .analyze()?
            .simulate()?;
        self.store(key, source, root, &fingerprint, &simulated);
        self.inner.collector.counter("cache.misses").incr();
        self.update_entries_gauge();
        Ok((simulated, CacheOutcome::Miss))
    }

    fn store(&self, key: u64, source: &str, root: &str, fp: &str, artifact: &Simulated) {
        if self.inner.capacity == 0 {
            return;
        }
        // Stored artifacts are scrubbed to a noop collector so the cache
        // never keeps a job's telemetry pipeline (sinks, rings) alive.
        let mut stored = artifact.clone();
        let mut options = stored.options().clone();
        options.collector = Collector::noop();
        stored.adopt_options(options);
        self.lock().insert(
            key,
            Entry {
                source: source.to_string(),
                root: root.to_string(),
                fingerprint: fp.to_string(),
                artifact: stored,
            },
            self.inner.capacity,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{SessionOptions, SimulateOptions, VcdCapture};

    fn quick() -> SessionOptions {
        SessionOptions::quick()
    }

    #[test]
    fn repeated_runs_hit_the_simulated_artifact() {
        let cache = ArtifactCache::new();
        let job = BatchJob::case_study("a").with_options(quick());
        let (cold, outcome) = job.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(cache.len(), 1, "a miss stores one artifact");
        let (warm, outcome) = job.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::SimulatedHit);
        assert_eq!(cold, warm, "warm report equals cold report");
        assert_eq!(cold.verification, warm.verification);
    }

    #[test]
    fn changed_verify_options_still_hit_changed_simulate_options_miss() {
        let cache = ArtifactCache::new();
        let base = BatchJob::case_study("base").with_options(quick());
        base.run_cached(&cache).unwrap();

        // Different verification options: the simulated artifact applies.
        let mut sweep = quick();
        sweep.verify.workers = 2;
        sweep.verify.hyperperiods = 2;
        let job = BatchJob::case_study("sweep").with_options(sweep);
        let (_, outcome) = job.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::SimulatedHit);

        // Different simulate options: nothing is reusable.
        let mut sim = quick();
        sim.simulate = SimulateOptions {
            hyperperiods: 2,
            vcd: VcdCapture::Off,
        };
        let job = BatchJob::case_study("sim").with_options(sim);
        let (_, outcome) = job.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);

        // Different schedule options: nothing is reusable.
        let mut resched = quick();
        resched.schedule.policy = sched::SchedulingPolicy::RateMonotonic;
        let job = BatchJob::case_study("resched").with_options(resched);
        let (_, outcome) = job.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
    }

    #[test]
    fn different_sources_do_not_collide() {
        use aadl::synth::SyntheticSpec;
        let cache = ArtifactCache::new();
        let a = BatchJob::case_study("case").with_options(quick());
        let b = BatchJob::synthetic("synth", &SyntheticSpec::new(4, 1)).with_options(quick());
        assert_ne!(job_content_hash(&a), job_content_hash(&b));
        a.run_cached(&cache).unwrap();
        let (_, outcome) = b.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (_, outcome) = b.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::SimulatedHit);
    }

    #[test]
    fn a_repeatedly_hit_entry_survives_an_over_capacity_sweep() {
        use aadl::synth::SyntheticSpec;
        // Capacity 2; `hot` is inserted first but hit before the cache
        // overflows, so the eviction victim must be the colder
        // `filler` entry — under the old insertion-order FIFO the sweep
        // evicted `hot` despite its hit.
        let cache = ArtifactCache::with_capacity(2);
        let hot = BatchJob::case_study("hot").with_options(quick());
        let filler = BatchJob::synthetic("filler", &SyntheticSpec::new(2, 1)).with_options(quick());
        let newcomer =
            BatchJob::synthetic("newcomer", &SyntheticSpec::new(3, 1)).with_options(quick());

        hot.run_cached(&cache).unwrap();
        filler.run_cached(&cache).unwrap();
        let (_, outcome) = hot.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::SimulatedHit, "hot entry warms up");

        // Third distinct job overflows the cache: LRU must evict `filler`.
        newcomer.run_cached(&cache).unwrap();
        let (_, outcome) = hot.run_cached(&cache).unwrap();
        assert_eq!(
            outcome,
            CacheOutcome::SimulatedHit,
            "the repeatedly-hit entry must survive the over-capacity sweep"
        );
        let (_, outcome) = filler.run_cached(&cache).unwrap();
        assert_eq!(
            outcome,
            CacheOutcome::Miss,
            "the least-recently-used entry was the eviction victim"
        );
    }

    #[test]
    fn zero_capacity_disables_storing() {
        let cache = ArtifactCache::with_capacity(0);
        let job = BatchJob::case_study("a").with_options(quick());
        job.run_cached(&cache).unwrap();
        assert!(cache.is_empty());
        let (_, outcome) = job.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
    }

    #[test]
    fn hit_and_miss_counters_flow_through_the_collector() {
        let collector = Collector::counters();
        let cache = ArtifactCache::new().with_collector(collector.clone());
        let job = BatchJob::case_study("a").with_options(quick());
        job.run_cached(&cache).unwrap();
        job.run_cached(&cache).unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            collector.counter_values().into_iter().collect();
        assert_eq!(counters.get("cache.misses"), Some(&1));
        assert_eq!(counters.get("cache.hits.simulated"), Some(&1));
    }

    #[test]
    fn cached_options_never_leak_into_later_jobs() {
        // The artifact stored on a miss was produced under job A's options;
        // a hit for job B must verify under job B's options.
        let cache = ArtifactCache::new();
        let a = BatchJob::case_study("a").with_options(quick());
        a.run_cached(&cache).unwrap();
        let mut opts = quick();
        opts.verify.hyperperiods = 3;
        let b = BatchJob::case_study("b").with_options(opts);
        let (report, outcome) = b.run_cached(&cache).unwrap();
        assert_eq!(outcome, CacheOutcome::SimulatedHit);
        assert_eq!(report.verification.as_ref().unwrap().hyperperiods, 3);
    }

    /// The two keys of a job: simulated fingerprint and whole-job content
    /// hash.
    fn keys(options: &SessionOptions) -> (String, u64) {
        let job = BatchJob::case_study("keys").with_options(options.clone());
        (simulated_fingerprint(options), job_content_hash(&job))
    }

    #[test]
    fn each_option_moves_exactly_the_keys_that_include_its_group() {
        use crate::options::{PropertySpec, VerificationScope, FIELDS};

        // One mutation per field of the option table, tagged with its group.
        type Mutation = (&'static str, fn(&mut SessionOptions));
        let mutations: Vec<Mutation> = vec![
            ("schedule", |o| {
                o.schedule.policy = sched::SchedulingPolicy::RateMonotonic
            }),
            ("translate", |o| o.translate.default_queue_size = 3),
            ("simulate", |o| o.simulate.hyperperiods = 9),
            ("simulate", |o| {
                o.simulate.vcd = VcdCapture::Thread("thConsumer".into())
            }),
            ("verify", |o| o.verify.enabled = false),
            ("verify", |o| o.verify.workers = 7),
            ("verify", |o| o.verify.hyperperiods = 5),
            ("verify", |o| o.verify.scope = VerificationScope::Product),
            ("verify", |o| {
                o.verify.properties = vec![PropertySpec::new("never Alarm")]
            }),
        ];
        assert_eq!(mutations.len(), FIELDS.len(), "one mutation per field");

        let base = quick();
        let (sim, job) = keys(&base);
        for (group, mutate) in mutations {
            let mut changed = base.clone();
            mutate(&mut changed);
            let (sim2, job2) = keys(&changed);
            let in_sim = group != "verify";
            assert_eq!(sim != sim2, in_sim, "{group}: simulated fingerprint");
            assert_ne!(job, job2, "{group}: job content hash");
        }

        // Telemetry never changes a result, so it changes no key either.
        let mut traced = base.clone();
        traced.collector = Collector::full();
        assert_eq!(keys(&traced), (sim, job));
    }
}
