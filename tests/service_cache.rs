//! Cache equivalence: a report served through the content-addressed
//! artifact cache must be bit-identical to an uncached run — same
//! verdicts, same counterexample depths, same state counts — for every
//! combination of verification options in a sweep over one model.
//!
//! `ToolChainReport` equality deliberately ignores wall-clock timings
//! (`RunRecord` compares its phase-name sequence), so `assert_eq!` on the
//! full report is exactly the "identical modulo timings" check.

use polychrony_core::{
    ArtifactCache, BatchJob, CacheOutcome, PropertySpec, SessionOptions, VerificationScope,
};

/// The 8-variant sweep from the acceptance criteria: same source, options
/// differing only in the verification group.
fn sweep_options() -> Vec<SessionOptions> {
    let mut sweep = Vec::new();
    for workers in [1usize, 2] {
        for hyperperiods in [1u64, 2] {
            for with_property in [false, true] {
                let mut options = SessionOptions::quick();
                options.verify.workers = workers;
                options.verify.hyperperiods = hyperperiods;
                if with_property {
                    options.verify.properties = vec![PropertySpec::new("never raised(*Alarm*)")];
                }
                sweep.push(options);
            }
        }
    }
    sweep
}

#[test]
fn warm_cache_reports_are_bit_identical_to_cold_runs_across_a_sweep() {
    let cache = ArtifactCache::new();
    // Prime the cache once so every sweep variant runs warm.
    let (_, outcome) = BatchJob::case_study("prime")
        .with_options(SessionOptions::quick())
        .run_cached(&cache)
        .expect("prime run");
    assert_eq!(outcome, CacheOutcome::Miss);

    for (i, options) in sweep_options().into_iter().enumerate() {
        let job = BatchJob::case_study(format!("variant-{i}")).with_options(options);
        let cold = job.run().expect("cold run");
        let (warm, outcome) = job.run_cached(&cache).expect("warm run");
        assert_eq!(
            outcome,
            CacheOutcome::SimulatedHit,
            "variant {i}: verify-only differences must reuse the simulated artifact"
        );
        assert_eq!(
            cold.verification, warm.verification,
            "variant {i}: verification reports diverge between cold and warm"
        );
        assert_eq!(cold, warm, "variant {i}: full reports diverge");
    }
}

#[test]
fn warm_product_scope_reports_match_cold_runs() {
    let cache = ArtifactCache::new();
    let mut options = SessionOptions::quick();
    options.verify.scope = VerificationScope::Product;
    let job = BatchJob::case_study("product").with_options(options);

    let cold = job.run().expect("cold product run");
    let (_, first) = job.run_cached(&cache).expect("first cached run");
    assert_eq!(first, CacheOutcome::Miss);
    let (warm, second) = job.run_cached(&cache).expect("second cached run");
    assert_eq!(second, CacheOutcome::SimulatedHit);

    let cold_product = cold
        .verification
        .as_ref()
        .and_then(|v| v.product.as_ref())
        .expect("cold product report");
    let warm_product = warm
        .verification
        .as_ref()
        .and_then(|v| v.product.as_ref())
        .expect("warm product report");
    assert_eq!(cold_product, warm_product);
    assert_eq!(cold, warm);
}

#[test]
fn changed_simulate_options_miss_and_match_an_uncached_run() {
    let cache = ArtifactCache::new();
    let (_, first) = BatchJob::case_study("base")
        .with_options(SessionOptions::quick())
        .run_cached(&cache)
        .expect("base run");
    assert_eq!(first, CacheOutcome::Miss);

    let mut options = SessionOptions::quick();
    options.simulate.hyperperiods = 2;
    let job = BatchJob::case_study("resim").with_options(options);
    let cold = job.run().expect("cold run");
    let (warm, outcome) = job.run_cached(&cache).expect("warm run");
    // Simulation differs, so nothing is reused — and the report must
    // still be identical to an uncached run.
    assert_eq!(outcome, CacheOutcome::Miss);
    assert_eq!(cold, warm);
}
