//! Differential + chaos suite for the content-addressed result cache.
//!
//! Contract under test (DESIGN.md §6h): a cache hit is bit-identical to a
//! recompute — samples, deterministic report ledger, resumable final
//! state — under fault injection and retries; a
//! key that differs in any component (spec fingerprint, parameter point,
//! replicate count, master seed) never hits; and a corrupt cache file is
//! always a typed error or a transparent recompute, never a wrong answer.
//!
//! Corruption placement is keyed off `MDE_CHAOS_SEED` (CI runs a small
//! matrix) but is fully deterministic for a given seed.

use model_data_ecosystems::mcdb::mc::MonteCarloQuery;
use model_data_ecosystems::mcdb::prelude::*;
use model_data_ecosystems::mcdb::query::AggSpec;
use model_data_ecosystems::mcdb::random_table::RandomTableSpecBuilder;
use model_data_ecosystems::mcdb::vg::NormalVg;
use model_data_ecosystems::mcdb::{RunOptions, RunPolicy};
use model_data_ecosystems::metamodel::gp::{fit_key, GpConfig, GpModel};
use model_data_ecosystems::metamodel::kernel::KernelWorkspace;
use model_data_ecosystems::numeric::cache::{
    CacheEntry, CacheError, CacheHandle, CacheKey, ObjectiveScope, ResultCache, DEFAULT_MAX_BYTES,
};
use model_data_ecosystems::numeric::obs::RunMetrics;
use model_data_ecosystems::numeric::resilience::{FaultKind, FaultPlan};
use model_data_ecosystems::numeric::rng::{chaos_seed, rng_from_seed};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

static FIXTURE_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mde_cchaos_{}_{}",
        std::process::id(),
        FIXTURE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn demand_catalog() -> Catalog {
    let mut db = Catalog::new();
    db.insert(
        Table::build("ITEMS", &[("IID", DataType::Int)])
            .rows((0..20).map(|i| vec![Value::from(i)]))
            .finish()
            .unwrap(),
    );
    db.insert(
        Table::build(
            "PARAMS",
            &[("MEAN", DataType::Float), ("STD", DataType::Float)],
        )
        .row(vec![Value::from(10.0), Value::from(2.0)])
        .finish()
        .unwrap(),
    );
    db
}

/// `SALES` without its VG parameters.
fn sales_spec() -> RandomTableSpecBuilder {
    RandomTableSpec::builder("SALES")
        .for_each(Plan::scan("ITEMS"))
        .with_vg(Arc::new(NormalVg))
        .select(&[("IID", Expr::col("IID")), ("AMT", Expr::col("VALUE"))])
}

fn revenue_spec() -> RandomTableSpecBuilder {
    sales_spec().vg_params_query(Plan::scan("PARAMS"))
}

fn revenue_over(spec: RandomTableSpecBuilder) -> MonteCarloQuery {
    let q = Plan::scan("SALES").aggregate(
        &[],
        vec![AggSpec::new("TOTAL", AggFunc::Sum, Expr::col("AMT"))],
    );
    MonteCarloQuery::new(vec![spec.build().unwrap()], q)
}

fn revenue_query() -> MonteCarloQuery {
    revenue_over(revenue_spec())
}

/// A retry policy plus a fault plan that panics two replicates on their
/// first attempt — the supervised path the cache must replay exactly.
fn faulty_opts() -> RunOptions {
    RunOptions::policy(RunPolicy::Retry {
        max_attempts: 3,
        reseed: true,
    })
    .with_faults(FaultPlan::new().fail_on(3, 0, FaultKind::Panic).fail_on(
        11,
        0,
        FaultKind::Error,
    ))
}

const N: usize = 60;
const SEED: u64 = 42;

#[test]
fn cache_hit_is_bit_identical_to_recompute_across_thread_counts() {
    let db = demand_catalog();
    let task = revenue_query();
    let opts = faulty_opts();

    // Ground truth: an uncached supervised run (faults + retries active).
    let base = task.run_with_options(&db, N, SEED, &opts).unwrap();
    assert!(!base.report.failures.is_empty(), "faults must have fired");

    // Cold cached run computes and stores; it must already equal truth.
    let cache = CacheHandle::in_memory();
    let cached_opts = opts.clone().with_cache(cache.clone());
    let cold = task.run_with_options(&db, N, SEED, &cached_opts).unwrap();
    assert_eq!(base.result, cold.result);
    assert_eq!(base.report, cold.report);
    assert_eq!(cache.stats().hits, 0);

    // A warm run replays the entry bit-identically: samples, the
    // deterministic report ledger, and the resumable state.
    let warm = task.run_with_options(&db, N, SEED, &cached_opts).unwrap();
    assert_eq!(base.result, warm.result);
    assert_eq!(base.report, warm.report);
    let state = warm.checkpoint.expect("replay carries final state");
    assert_eq!(state.cursor, N as u64);
    assert_eq!(state.completed.len(), base.result.n());
    let stats = cache.stats();
    assert_eq!(stats.hits, 1, "the warm run is exactly one hit");
    assert_eq!(stats.misses, 1, "only the cold run missed");
}

#[test]
fn sequential_and_parallel_runs_share_one_entry() {
    let db = demand_catalog();
    let task = revenue_query();
    let cache = CacheHandle::in_memory();
    let opts = RunOptions::default().with_cache(cache.clone());

    // One run computes the entry; the next replays it.
    let computed = task.run_with_options(&db, N, SEED, &opts).unwrap();
    let replayed = task.run_with_options(&db, N, SEED, &opts).unwrap();
    assert_eq!(computed.result, replayed.result);
    assert_eq!(computed.report, replayed.report);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

#[test]
fn foreign_fingerprint_and_stale_seed_never_hit() {
    let db = demand_catalog();
    let task = revenue_query();
    let cache = CacheHandle::in_memory();
    let opts = RunOptions::default().with_cache(cache.clone());
    task.run_with_options(&db, N, SEED, &opts).unwrap();
    assert_eq!(cache.stats().entries, 1);

    // Stale seed: same campaign, different master seed — a miss.
    task.run_with_options(&db, N, SEED + 1, &opts).unwrap();
    // Different n: a foreign fingerprint (n is folded into the spec) — miss.
    task.run_with_options(&db, N - 1, SEED, &opts).unwrap();
    // Different supervision policy: result bits could differ — miss.
    let retry_opts = RunOptions::policy(RunPolicy::Retry {
        max_attempts: 2,
        reseed: true,
    })
    .with_cache(cache.clone());
    task.run_with_options(&db, N, SEED, &retry_opts).unwrap();
    let stats = cache.stats();
    assert_eq!(stats.hits, 0, "no foreign key may hit");
    assert_eq!(stats.misses, 4);
    assert_eq!(stats.entries, 4);

    // Specs that share the table name, the VG and the output column names
    // with the original (or with each other) and differ in one expression.
    let params_by_literal =
        |mean: f64| sales_spec().vg_params_exprs(&[Expr::lit(mean), Expr::lit(2.0)]);
    let foreign = [
        ("parameter literal 10", params_by_literal(10.0)),
        ("parameter literal 1000", params_by_literal(1000.0)),
        (
            "parameter query",
            revenue_spec().vg_params_query(
                Plan::scan("PARAMS")
                    .project(&[("STD", Expr::col("STD")), ("MEAN", Expr::col("MEAN"))]),
            ),
        ),
        (
            "filtered driver",
            revenue_spec().for_each(Plan::scan("ITEMS").filter(Expr::col("IID").lt(Expr::lit(10)))),
        ),
        (
            "select expression under the same name",
            revenue_spec().select(&[
                ("IID", Expr::col("IID")),
                ("AMT", Expr::col("VALUE").mul(Expr::lit(2.0))),
            ]),
        ),
    ];
    for (i, (what, spec)) in (0u64..).zip(foreign) {
        revenue_over(spec)
            .run_with_options(&db, N, SEED, &opts)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "a spec with a different {what} hit");
        assert_eq!(stats.entries, 5 + i);
    }

    // The exact original key still replays.
    task.run_with_options(&db, N, SEED, &opts).unwrap();
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn durable_cache_survives_reopen_and_replays_bit_identically() {
    let dir = scratch_dir();
    let path = dir.join("results.mdecache");
    let db = demand_catalog();
    let task = revenue_query();
    let opts = faulty_opts();
    let base = task.run_with_options(&db, N, SEED, &opts).unwrap();

    {
        let (cache, dropped) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
        assert_eq!(dropped, 0);
        let cached_opts = opts.clone().with_cache(cache);
        task.run_with_options(&db, N, SEED, &cached_opts).unwrap();
    }
    assert!(path.exists(), "insert_durable must persist the image");

    // A fresh process (fresh handle) replays from disk without computing.
    let (cache, dropped) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
    assert_eq!(dropped, 0);
    let cached_opts = opts.clone().with_cache(cache.clone());
    let warm = task.run_with_options(&db, N, SEED, &cached_opts).unwrap();
    assert_eq!(base.result, warm.result);
    assert_eq!(base.report, warm.report);
    assert_eq!(cache.stats().hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Count replicate executions so chaos tests can distinguish "replayed"
/// from "recomputed" without trusting the cache's own counters.
fn instrumented_scope(cache: &CacheHandle, seed: u64) -> ObjectiveScope {
    ObjectiveScope::new(cache.clone(), "chaos.probe", 0x5EED, 1, seed)
}

#[test]
fn chaos_bit_flips_are_typed_errors_or_transparent_recomputes() {
    let dir = scratch_dir();
    let path = dir.join("flip.mdecache");
    let evals = Arc::new(AtomicUsize::new(0));

    // Populate a small durable cache through the objective-scope path.
    let truth: Vec<f64> = {
        let (cache, _) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
        let mut scope = instrumented_scope(&cache, 9);
        let truth = (0..6)
            .map(|i| {
                let evals = Arc::clone(&evals);
                scope.memoize_scalar(&[i as f64, (i * i) as f64], || {
                    evals.fetch_add(1, Ordering::Relaxed);
                    (i as f64).sin() * 100.0
                })
            })
            .collect();
        cache.persist().unwrap();
        truth
    };
    assert_eq!(evals.load(Ordering::Relaxed), 6);
    let pristine = std::fs::read(&path).unwrap();

    // The corruption schedule is a pure function of the chaos seed.
    let mut rng = rng_from_seed(chaos_seed());
    for round in 0..16 {
        // Flip one random byte (never in the magic, which is its own case).
        let mut bytes = pristine.clone();
        let at = rng.gen_range(9..bytes.len());
        bytes[at] ^= 1u8 << rng.gen_range(0..8);
        std::fs::write(&path, &bytes).unwrap();

        // Strict open: a typed error, or a cache that dropped the damage.
        match ResultCache::open(&path, DEFAULT_MAX_BYTES) {
            Ok(cache) => {
                // The flip landed in slack the checksum does not govern
                // (e.g. the entry-count suffix of a short file is
                // impossible — count mismatches are framing errors), so
                // every surviving entry must still be verifiable.
                assert_eq!(cache.stats().entries, 6, "round {round}");
            }
            Err(
                CacheError::Corrupt { .. }
                | CacheError::ChecksumMismatch { .. }
                | CacheError::KeyMismatch { .. },
            ) => {}
            Err(e) => panic!("round {round}: unexpected error class: {e}"),
        }

        // Recovery open: damaged entries are recomputed, never wrong.
        let before = evals.load(Ordering::Relaxed);
        let (cache, _dropped) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
        let mut scope = instrumented_scope(&cache, 9);
        let replayed: Vec<f64> = (0..6)
            .map(|i| {
                let evals = Arc::clone(&evals);
                scope.memoize_scalar(&[i as f64, (i * i) as f64], || {
                    evals.fetch_add(1, Ordering::Relaxed);
                    (i as f64).sin() * 100.0
                })
            })
            .collect();
        assert_eq!(truth, replayed, "round {round}: a flip changed an answer");
        let recomputed = evals.load(Ordering::Relaxed) - before;
        assert!(recomputed <= 6, "round {round}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_truncation_and_torn_writes_recover_the_prefix() {
    let dir = scratch_dir();
    let path = dir.join("torn.mdecache");
    let (cache, _) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
    let mut scope = instrumented_scope(&cache, 11);
    let truth: Vec<f64> = (0..5)
        .map(|i| scope.memoize_scalar(&[i as f64], || (i as f64) * 2.5 + 1.0))
        .collect();
    drop(scope);
    cache.persist().unwrap();
    drop(cache);
    let pristine = std::fs::read(&path).unwrap();

    let mut rng = rng_from_seed(chaos_seed());
    for round in 0..12 {
        let cut = rng.gen_range(1..pristine.len());
        let mut bytes = pristine[..cut].to_vec();
        if round % 2 == 1 {
            // Torn write: garbage tail instead of clean truncation.
            bytes.extend((0..rng.gen_range(0..64)).map(|_| rng.gen::<u64>() as u8));
        }
        std::fs::write(&path, &bytes).unwrap();

        // Strict open of a torn file must never succeed with silently
        // missing *verified* entries presented as the full set.
        if let Err(e) = ResultCache::open(&path, DEFAULT_MAX_BYTES) {
            match e {
                CacheError::Corrupt { .. } | CacheError::ChecksumMismatch { .. } => {}
                other => panic!("round {round}: unexpected error: {other}"),
            }
        }

        // Recovery keeps the undamaged prefix and recomputes the rest.
        let (cache, _dropped) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
        let mut scope = instrumented_scope(&cache, 11);
        let replayed: Vec<f64> = (0..5)
            .map(|i| scope.memoize_scalar(&[i as f64], || (i as f64) * 2.5 + 1.0))
            .collect();
        assert_eq!(truth, replayed, "round {round}");
    }

    // Degenerate cases: empty file and foreign magic.
    std::fs::write(&path, b"").unwrap();
    assert!(matches!(
        ResultCache::open(&path, DEFAULT_MAX_BYTES),
        Err(CacheError::Corrupt { .. })
    ));
    std::fs::write(&path, b"NOTACACHE-file").unwrap();
    assert!(matches!(
        ResultCache::open(&path, DEFAULT_MAX_BYTES),
        Err(CacheError::Corrupt { .. })
    ));
    let (empty, _) = ResultCache::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
    assert_eq!(empty.stats().entries, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn provenance_links_campaign_traces_to_their_upstream_entries() {
    let cache = CacheHandle::in_memory();
    let mut scope = instrumented_scope(&cache, 13);
    for i in 0..4 {
        scope.memoize_scalar(&[i as f64], || i as f64 + 0.5);
    }
    // Warm lookups accumulate the upstream hash chain.
    let mut warm = instrumented_scope(&cache, 13);
    for i in 0..4 {
        warm.memoize_scalar(&[i as f64], || unreachable!("must hit"));
    }
    warm.store_trace(vec![1.0, 2.0]);
    let prov = cache
        .provenance_of(&warm.trace_key())
        .expect("trace entry must carry provenance");
    assert_eq!(prov.campaign, "chaos.probe");
    assert_eq!(prov.upstream.len(), 4, "one upstream hash per hit");
    // A foreign key has no provenance.
    assert!(cache
        .provenance_of(&CacheKey::for_campaign(0xDEAD_BEEF, 1, 13))
        .is_none());
}

/// A 24 × 3 kriging problem (seeded) with replication noise.
fn gp_problem(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let mut rng = rng_from_seed(seed);
    let xs: Vec<Vec<f64>> = (0..24)
        .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let ys = xs
        .iter()
        .map(|x| (2.0 * x[0]).sin() + x[1] * x[1] + 0.05 * rng.gen::<f64>())
        .collect();
    let noise = (0..24).map(|_| rng.gen_range(0.001..0.01)).collect();
    (xs, ys, noise)
}

/// Fit through `cache`; returns the model's bits (β₀, τ², θ, a prediction)
/// and the factorizations the fit took — 1 means a remembered fit was
/// verified and accepted, more means the search ran.
fn remembered_fit(
    problem: &(Vec<Vec<f64>>, Vec<f64>, Vec<f64>),
    cache: Option<&CacheHandle>,
) -> (Vec<u64>, u64) {
    let (xs, ys, noise) = problem;
    let mut ws = KernelWorkspace::new(xs).unwrap();
    let mut metrics = RunMetrics::new();
    let gp = GpModel::fit_remembered(
        &mut ws,
        ys,
        noise,
        &GpConfig::default(),
        Some(&mut metrics),
        cache,
    )
    .unwrap();
    let bits = [gp.beta0(), gp.tau2(), gp.predict(&[0.1, -0.2, 0.3])]
        .iter()
        .chain(gp.thetas())
        .map(|v| v.to_bits())
        .collect();
    (bits, metrics.counter("gp.factorizations"))
}

#[test]
fn hostile_gp_fit_entries_are_recomputed_never_served() {
    // A remembered fit is verified, never trusted: whatever sits under a
    // fit's key, the model equals the uncached one to the bit; a stored
    // point is accepted only if re-evaluating it reproduces the stored
    // likelihood exactly, and anything else is a search that overwrites.
    let problem = gp_problem(chaos_seed());
    let cfg = GpConfig::default();
    let key = fit_key(&problem.0, &problem.1, &problem.2, &cfg);
    let (truth, searched) = remembered_fit(&problem, None);
    assert!(searched > 1);

    let cache = CacheHandle::in_memory();
    assert_eq!(
        remembered_fit(&problem, Some(&cache)),
        (truth.clone(), searched)
    );
    let honest = cache.get(&key).expect("the fit was remembered").values;
    assert_eq!(honest.len(), 3 + 2, "[ln τ², ln θ × 3, nll]");
    assert_eq!(remembered_fit(&problem, Some(&cache)), (truth.clone(), 1));

    // The remembered fit of a *different* design, re-keyed onto this one
    // (what a digest collision would look like).
    let other = gp_problem(chaos_seed() + 1);
    remembered_fit(&other, Some(&cache));
    let foreign = cache
        .get(&fit_key(&other.0, &other.1, &other.2, &cfg))
        .expect("the other fit was remembered")
        .values;

    let mut rng = rng_from_seed(chaos_seed());
    // A flip the likelihood can see. (At a stationary point a last-ulp
    // change of a log-parameter moves the likelihood by less than its own
    // rounding, so it re-verifies like the honest entry; damage of that
    // size on disk is the per-entry checksum's to catch.)
    let mut flipped = honest.clone();
    let at = rng.gen_range(0..flipped.len());
    flipped[at] = f64::from_bits(flipped[at].to_bits() ^ (1u64 << rng.gen_range(40..52)));
    let mut with_nan = honest.clone();
    with_nan[rng.gen_range(0..5usize)] = f64::NAN;
    let mut infinite = honest.clone();
    infinite[1] = f64::INFINITY;
    // (what, stored values, whether the entry gets as far as the one
    // verifying evaluation before it is refused)
    let hostile: [(&str, Vec<f64>, u64); 6] = [
        ("one flipped bit", flipped, 1),
        ("too few values", honest[..4].to_vec(), 0),
        ("too many values", [honest.clone(), vec![0.0]].concat(), 0),
        ("a NaN", with_nan, 0),
        ("an infinite log-parameter", infinite, 0),
        ("another design's fit", foreign, 1),
    ];
    for (what, values, verified) in hostile {
        cache.insert(CacheEntry::leaf(key.clone(), "gp.fit", values));
        let (bits, factorizations) = remembered_fit(&problem, Some(&cache));
        assert_eq!(bits, truth, "{what}: served a different model");
        assert_eq!(factorizations, verified + searched, "{what}: must search");
        // …and the search overwrote the hostile entry with the honest one.
        assert_eq!(
            remembered_fit(&problem, Some(&cache)),
            (truth.clone(), 1),
            "{what}"
        );
    }

    // A truncated file: whatever prefix survives, the answer is the same.
    let dir = scratch_dir();
    let path = dir.join("fits.mdecache");
    {
        let (durable, _) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
        remembered_fit(&problem, Some(&durable));
        remembered_fit(&other, Some(&durable));
        durable.persist().unwrap();
    }
    let pristine = std::fs::read(&path).unwrap();
    for _ in 0..8 {
        let cut = rng.gen_range(0..pristine.len());
        std::fs::write(&path, &pristine[..cut]).unwrap();
        let (reopened, _) = CacheHandle::open_or_recover(&path, DEFAULT_MAX_BYTES).unwrap();
        let (bits, factorizations) = remembered_fit(&problem, Some(&reopened));
        assert_eq!(bits, truth, "cut at {cut}");
        assert!(
            factorizations == 1 || factorizations == searched,
            "cut at {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
