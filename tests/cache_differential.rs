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
use model_data_ecosystems::numeric::rng::{chaos_seed, for_cases, rng_from_seed, Rng};
use std::path::{Path, PathBuf};
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
fn cache_hit_replays_a_faulted_run_bit_identically() {
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
    let state = warm.checkpoint;
    assert_eq!(state.cursor, N as u64);
    assert_eq!(state.completed.len(), base.result.n());
    let stats = cache.stats();
    assert_eq!(stats.hits, 1, "the warm run is exactly one hit");
    assert_eq!(stats.misses, 1, "only the cold run missed");
}

#[test]
fn repeated_runs_share_one_entry() {
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

/// The entries `tests/fixtures/mdecache1_four_entries.cache` holds, in
/// insertion order: a campaign entry with a report whose ledger carries a
/// unicode failure message, two points of one spec (one citing the first
/// entry upstream) and a point with a NaN coordinate.
fn fixture_entries() -> Vec<CacheEntry> {
    use model_data_ecosystems::numeric::resilience::{FailureKind, FailureRecord, RunReport};
    let mut report = RunReport::new();
    report.attempted = 100;
    report.succeeded = 99;
    report.dropped = 1;
    report.ci_widened = true;
    report.failures.push(FailureRecord {
        replicate: 41,
        attempt: 0,
        kind: FailureKind::Panic,
        message: "réplica 41: σ → ∞".into(),
    });
    report.metrics.add("replicates.attempted", 100);
    report.metrics.observe("mc.sample", -0.0);
    report.metrics.observe("mc.sample", f64::INFINITY);
    let mut campaign = CacheEntry::leaf(
        CacheKey::for_campaign(0x30, 100, 7),
        "mc.fixture",
        vec![1.0, -0.0, f64::INFINITY],
    );
    campaign.ints = vec![0, 1, 2];
    campaign.report = Some(report);

    let mut point = CacheEntry::leaf(
        CacheKey::for_point(0x10, &[0.5, -0.0], 50, 9),
        "calibrate.kriging",
        vec![2.5],
    );
    point.provenance.upstream = vec![campaign.content_hash()];
    let nan_point = CacheEntry::leaf(
        CacheKey::for_point(0x20, &[f64::NAN], 10, 1),
        "screening",
        Vec::new(),
    );
    let other_point = CacheEntry::leaf(
        CacheKey::for_point(0x10, &[0.25, 1e9], 50, 9),
        "calibrate.kriging",
        vec![-3.75, 1e-310],
    );
    vec![campaign, point, nan_point, other_point]
}

/// The content hashes of [`fixture_entries`], in the same order.
const FIXTURE_HASHES: [u64; 4] = [
    0x0F0C_327F_A14D_1E59,
    0x6C9C_CAD4_F31C_CF83,
    0x0700_42F8_ED99_5B8B,
    0x177E_A8DD_78F2_72FE,
];

/// A cache image written by an earlier build (`MDECACHE1`) opens strictly,
/// with the content hashes its entries had, and its first persist rewrites
/// it as `mdecache2_four_entries.cache` — the same entry bodies and hashes
/// in the same LRU order (oldest first: the NaN point, the other point, the
/// point, the campaign; neither key order nor insertion order), in one
/// sealed segment. Never regenerate either fixture.
#[test]
fn mdecache1_fixture_opens_strictly_and_persists_as_the_mdecache2_fixture() {
    let committed = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/mdecache1_four_entries.cache");
    let bytes = std::fs::read(&committed).unwrap();
    let dir = scratch_dir();
    let path = dir.join("fixture.cache");
    std::fs::write(&path, &bytes).unwrap();

    let mut cache = ResultCache::open(&path, DEFAULT_MAX_BYTES).unwrap();
    assert_eq!(cache.stats().entries, 4);
    cache.persist().unwrap();
    let v2 = std::fs::read(committed.with_file_name("mdecache2_four_entries.cache")).unwrap();
    assert!(
        std::fs::read(&path).unwrap() == v2,
        "the persisted image differs from the MDECACHE2 fixture"
    );

    for (entry, hash) in fixture_entries().into_iter().zip(FIXTURE_HASHES) {
        assert_eq!(entry.content_hash(), hash);
        let (found, found_hash) = cache.lookup(&entry.key).unwrap();
        assert_eq!(found_hash, hash);
        assert_eq!(found, entry);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A copy of the committed fixture `name` in a scratch directory: its
/// path, its bytes and the directory.
fn fixture_copy(name: &str) -> (PathBuf, Vec<u8>, PathBuf) {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let bytes = std::fs::read(committed).unwrap();
    let dir = scratch_dir();
    let path = dir.join(name);
    std::fs::write(&path, &bytes).unwrap();
    (path, bytes, dir)
}

/// The sealed segments of an `MDECACHE2` file: after the magic, each is
/// `len ‖ body ‖ checksum`.
fn segment_count(bytes: &[u8]) -> usize {
    assert_eq!(&bytes[..9], b"MDECACHE2");
    let (mut at, mut n) = (9, 0);
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        at += 8 + len + 8;
        n += 1;
    }
    assert_eq!(at, bytes.len(), "the last segment runs past the end");
    n
}

/// `path` opens strictly and holds exactly `entries`, under `hashes`.
fn assert_holds(path: &Path, entries: &[CacheEntry], hashes: &[u64]) {
    let mut cache = ResultCache::open(path, DEFAULT_MAX_BYTES).unwrap();
    assert_eq!(cache.stats().entries, entries.len() as u64);
    for (entry, &hash) in entries.iter().zip(hashes) {
        assert_eq!(entry.content_hash(), hash);
        assert_eq!(cache.lookup(&entry.key), Some((entry.clone(), hash)));
    }
}

/// `path` holds `oldest_first` in that LRU order. Opened with room for
/// exactly what it holds, each insert of a same-sized copy of the next
/// expected victim (under another seed) must evict exactly that entry.
fn assert_lru_order(path: &Path, oldest_first: &[CacheEntry]) {
    let held = ResultCache::open(path, DEFAULT_MAX_BYTES)
        .unwrap()
        .stats()
        .bytes;
    let mut cache = ResultCache::open(path, held).unwrap();
    for (i, victim) in oldest_first.iter().enumerate() {
        let mut probe = victim.clone();
        probe.key.master_seed ^= 0x0BE5_0000;
        cache.insert(probe);
        for (j, entry) in oldest_first.iter().enumerate() {
            assert_eq!(
                cache.provenance_of(&entry.key).is_some(),
                j > i,
                "after the insert that should evict entry {i}, entry {j}"
            );
        }
    }
}

/// The `MDECACHE2` image of the four fixture entries, written by this
/// format's first build when it persisted the `MDECACHE1` fixture. It opens
/// strictly with the same entries, hashes and LRU order, and a persist with
/// nothing new leaves it as it is. Never regenerate it.
#[test]
fn mdecache2_four_entries_fixture_opens_strictly_and_persists_unchanged() {
    let (path, bytes, dir) = fixture_copy("mdecache2_four_entries.cache");
    assert_eq!(segment_count(&bytes), 1);
    ResultCache::open(&path, DEFAULT_MAX_BYTES)
        .unwrap()
        .persist()
        .unwrap();
    assert!(
        std::fs::read(&path).unwrap() == bytes,
        "a persist with nothing new changed the file"
    );
    assert_holds(&path, &fixture_entries(), &FIXTURE_HASHES);
    let [campaign, point, nan_point, other_point] = fixture_entries().try_into().unwrap();
    assert_lru_order(&path, &[nan_point, other_point, point, campaign]);
    std::fs::remove_dir_all(&dir).ok();
}

/// An entry of the segments fixture: key `k` of one spec, 24 values `v`.
fn segment_entry(k: u64, v: f64) -> CacheEntry {
    CacheEntry::leaf(
        CacheKey::for_point(0x5E65, &[k as f64], 4, 3),
        "segments",
        vec![v; 24],
    )
}

/// Room for three segment entries (297 bytes each), not four.
const SEGMENTS_MAX_BYTES: u64 = 1000;

/// Write what `tests/fixtures/mdecache2_segments.cache` holds at `path`,
/// one persist per segment, and return the live entries oldest first.
fn write_segments(path: &Path) -> Vec<CacheEntry> {
    let mut cache = ResultCache::open(path, SEGMENTS_MAX_BYTES).unwrap();
    // 1. A new file is written whole: entries 0, 1 and 2.
    for k in 0..3 {
        cache.insert(segment_entry(k, k as f64));
    }
    cache.persist().unwrap();
    // 2. Key 1 is replaced.
    cache.insert(segment_entry(1, -1.0));
    cache.persist().unwrap();
    // 3. A hit moves entry 0 past entry 2, so entry 3 evicts entry 2.
    assert!(cache.lookup(&segment_entry(0, 0.0).key).is_some());
    cache.insert(segment_entry(3, 3.0));
    assert_eq!(cache.stats().evictions, 1);
    cache.persist().unwrap();
    // 4. A hit alone: entry 1 becomes the most recent.
    assert!(cache.lookup(&segment_entry(1, 0.0).key).is_some());
    cache.persist().unwrap();
    vec![
        segment_entry(0, 0.0),
        segment_entry(3, 3.0),
        segment_entry(1, -1.0),
    ]
}

/// The content hashes of [`write_segments`]' live entries, oldest first.
const SEGMENTS_HASHES: [u64; 3] = [
    0xBEDA_444E_E4B4_94CB,
    0xD008_0655_1434_30F3,
    0x86AF_0CCA_C7C7_3DB0,
];

/// A file of four segments — one written whole, then a replaced key, an
/// eviction after a reordering hit, and a hit alone, each appended — opens
/// strictly with the entries, hashes and LRU order it was left with; this
/// build writes it byte for byte, and a persist with nothing new leaves it
/// as it is. Never regenerate the fixture.
#[test]
fn mdecache2_segments_fixture_replays_and_round_trips() {
    let (path, bytes, dir) = fixture_copy("mdecache2_segments.cache");
    assert_eq!(segment_count(&bytes), 4);
    let fresh = dir.join("fresh.cache");
    let live = write_segments(&fresh);
    assert!(
        std::fs::read(&fresh).unwrap() == bytes,
        "this build writes other segments than the fixture"
    );
    ResultCache::open(&path, SEGMENTS_MAX_BYTES)
        .unwrap()
        .persist()
        .unwrap();
    assert!(
        std::fs::read(&path).unwrap() == bytes,
        "a persist with nothing new changed the file"
    );
    assert_holds(&path, &live, &SEGMENTS_HASHES);
    assert_lru_order(&path, &live);
    std::fs::remove_dir_all(&dir).ok();
}

/// One step of a random cache workload over six keys of one spec.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Insert key `k` with `n` values equal to `v`, replacing any entry
    /// under `k` by one of another size or content.
    Insert(u64, usize, u64),
    Lookup(u64),
    Persist,
}

fn step_entry(k: u64, n: usize, v: u64) -> CacheEntry {
    CacheEntry::leaf(
        CacheKey::for_point(0x57E9, &[k as f64], 4, 1),
        "steps",
        vec![v as f64; n],
    )
}

/// Room for three to four step entries (108–148 bytes each), so most
/// inserts past the third evict.
const STEPS_MAX_BYTES: u64 = 500;

fn random_steps(rng: &mut Rng, len: usize) -> Vec<Step> {
    (0..len)
        .map(|_| match rng.gen_range(0..10u32) {
            0..=4 => Step::Insert(
                rng.gen_range(0..6),
                rng.gen_range(0..6),
                rng.gen_range(0..3),
            ),
            5..=7 => Step::Lookup(rng.gen_range(0..6)),
            _ => Step::Persist,
        })
        .collect()
}

fn apply(cache: &mut ResultCache, step: Step) {
    match step {
        Step::Insert(k, n, v) => {
            cache.insert(step_entry(k, n, v));
        }
        Step::Lookup(k) => {
            cache.lookup(&step_entry(k, 0, 0).key);
        }
        Step::Persist => {
            cache.persist().unwrap();
        }
    }
}

/// A cache that took `steps` and never persisted: what the live cache
/// holds after them. (Its path in `dir` is never written.)
fn replica(dir: &Path, steps: &[Step]) -> ResultCache {
    let mut cache = ResultCache::open(&dir.join("replica"), STEPS_MAX_BYTES).unwrap();
    for &step in steps.iter().filter(|s| !matches!(s, Step::Persist)) {
        apply(&mut cache, step);
    }
    cache
}

/// The caches `a` and `b` build hold the same entries under the same
/// hashes, and the same inserts then evict the same keys in the same
/// order. Each is built twice, as lookups reorder what they find.
fn assert_same_state(a: impl Fn() -> ResultCache, b: impl Fn() -> ResultCache, what: &str) {
    let keys: Vec<CacheKey> = (0..6).map(|k| step_entry(k, 0, 0).key).collect();
    let (mut x, mut y) = (a(), b());
    for key in &keys {
        assert_eq!(x.lookup(key), y.lookup(key), "{what}: {key:?}");
    }
    let (mut x, mut y) = (a(), b());
    assert_eq!(x.stats().entries, y.stats().entries, "{what}");
    assert_eq!(x.stats().bytes, y.stats().bytes, "{what}");
    let held = |c: &ResultCache| -> Vec<bool> {
        keys.iter().map(|k| c.provenance_of(k).is_some()).collect()
    };
    for p in 0..8 {
        let probe = CacheEntry::leaf(
            CacheKey::for_point(0x57E9, &[p as f64], 4, 2),
            "steps",
            vec![0.0; 3],
        );
        x.insert(probe.clone());
        y.insert(probe);
        assert_eq!(held(&x), held(&y), "{what}: after probe {p}");
    }
}

#[test]
fn a_reopened_cache_equals_the_live_one_at_every_persist() {
    for_cases(16, |rng| {
        let dir = scratch_dir();
        let path = dir.join("steps.cache");
        let steps = random_steps(rng, 48);
        let mut live = ResultCache::open(&path, STEPS_MAX_BYTES).unwrap();
        for (i, &step) in steps.iter().enumerate() {
            let before = std::fs::read(&path).ok();
            apply(&mut live, step);
            if !matches!(step, Step::Persist) {
                continue;
            }
            if i > 0 && matches!(steps[i - 1], Step::Persist) {
                assert!(
                    std::fs::read(&path).ok() == before,
                    "a persist with nothing new changed the file"
                );
            }
            assert_eq!(live.stats(), replica(&dir, &steps[..=i]).stats());
            // Compaction: past the magic, the file holds no more dead bytes
            // than live ones, or only a rewritten segment's 40-byte frame.
            let held = live.stats().bytes;
            let after_magic = std::fs::metadata(&path).unwrap().len() - 9;
            assert!(
                after_magic <= (2 * held).max(held + 40),
                "step {i}: {after_magic} bytes after the magic, {held} live"
            );
            assert_same_state(
                || ResultCache::open(&path, STEPS_MAX_BYTES).unwrap(),
                || replica(&dir, &steps[..=i]),
                &format!("persist at step {i}"),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

#[test]
fn a_cut_inside_the_last_segment_recovers_the_persist_before_it() {
    let mut cut_segments = 0;
    for_cases(6, |rng| {
        let dir = scratch_dir();
        let path = dir.join("torn.cache");
        let steps = random_steps(rng, 32);
        // The file after each persist, with the persist's step.
        let mut images: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut live = ResultCache::open(&path, STEPS_MAX_BYTES).unwrap();
        for (i, &step) in steps.iter().enumerate() {
            apply(&mut live, step);
            if matches!(step, Step::Persist) {
                images.push((i, std::fs::read(&path).unwrap_or_default()));
            }
        }
        drop(live);
        // The last persist that appended a segment to the file before it.
        let Some(w) = images
            .windows(2)
            .rposition(|w| w[1].1.len() > w[0].1.len() && w[1].1.starts_with(&w[0].1))
        else {
            return;
        };
        cut_segments += 1;
        let ((prev, before), (_, after)) = (&images[w], &images[w + 1]);
        let extra = CacheEntry::leaf(CacheKey::for_campaign(0x57E9, 4, 9), "steps", vec![1.0]);
        for cut in before.len() + 1..after.len() {
            let what = format!("cut at {cut} of {}", after.len());
            std::fs::write(&path, &after[..cut]).unwrap();
            match ResultCache::open(&path, STEPS_MAX_BYTES) {
                Err(CacheError::Corrupt { .. } | CacheError::ChecksumMismatch { .. }) => {}
                other => panic!("{what}: strict open gave {other:?}"),
            }
            let recover = || ResultCache::open_or_recover(&path, STEPS_MAX_BYTES).unwrap();
            assert_eq!(recover().1, 1, "{what}");
            assert_same_state(|| recover().0, || replica(&dir, &steps[..=*prev]), &what);
            // The next persist rewrites the file instead of appending after
            // the torn bytes: it opens strictly again.
            let (handle, _) = CacheHandle::open_or_recover(&path, STEPS_MAX_BYTES).unwrap();
            handle.insert_durable(extra.clone());
            drop(handle);
            assert_same_state(
                || ResultCache::open(&path, STEPS_MAX_BYTES).unwrap(),
                || {
                    let mut cache = replica(&dir, &steps[..=*prev]);
                    cache.insert(extra.clone());
                    cache
                },
                &what,
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    });
    assert!(cut_segments > 0, "no case appended a segment to cut");
}
